// Per-query digests of simulated statistics, and the comparator that turns
// a digest mismatch into a failed query.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// The simulated statistics a query's digest covers, for one launch.
struct LaunchFacts {
  std::int64_t cycles = 0;
  std::uint64_t l1_hits = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t l2_misses = 0;
  std::uint64_t dram_lines = 0;
  std::uint64_t warp_insts = 0;

  bool operator==(const LaunchFacts&) const = default;
  /// Accumulates repeated launches of one schedule entry.
  LaunchFacts& operator+=(const LaunchFacts& o) {
    cycles += o.cycles;
    l1_hits += o.l1_hits;
    l1_misses += o.l1_misses;
    l2_hits += o.l2_hits;
    l2_misses += o.l2_misses;
    dram_lines += o.dram_lines;
    warp_insts += o.warp_insts;
    return *this;
  }
};

/// Order-sensitive digest of a run's launches, seeded with `tag` so
/// digests of different query kinds never alias.
std::uint64_t digest_launches(const std::string& tag, const std::vector<LaunchFacts>& launches);

/// 16 lowercase hex digits.
std::string hex16(std::uint64_t v);

/// query id -> digest.
using DigestMap = std::map<std::string, std::uint64_t>;

/// Text form: one "<query id> <16 hex digits>" line per query, sorted.
std::string format_digests(const DigestMap& m);
/// Parses format_digests() output; throws std::runtime_error on a
/// malformed line.
DigestMap parse_digests(const std::string& text);

struct Mismatch {
  std::string query;
  std::string what;  // "missing", "unexpected" or "differs"
};

/// Every query of `actual` must carry the digest `expected` holds for it,
/// and every expected query must be present.
std::vector<Mismatch> compare_digests(const DigestMap& expected, const DigestMap& actual);

}  // namespace perfbench
