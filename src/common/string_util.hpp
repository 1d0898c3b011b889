// Small string helpers used by the frontend and harness.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace catt {

/// Splits on a single character; empty fields are preserved.
std::vector<std::string> split(std::string_view s, char sep);

/// Strips leading/trailing ASCII whitespace.
std::string_view trim(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);

/// The value of `s` when it is a decimal integer in [1, INT_MAX] and
/// nothing else (no sign, blanks or trailing characters); nullopt
/// otherwise, including on overflow.
std::optional<int> parse_positive_int(std::string_view s);

/// Joins with a separator.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

}  // namespace catt
