#include "summary.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

Quartiles quartiles(std::vector<double> v) {
  if (v.empty()) return {};
  std::sort(v.begin(), v.end());
  if (v.size() == 1) return {v[0], v[0], v[0]};
  // statistics.quantiles, method="exclusive": the j-th cut point sits at
  // rank j*(n+1)/4 (1-based), clamped to the data, interpolated linearly.
  const auto n = static_cast<long>(v.size());
  auto cut = [&](long j) {
    const long m = n + 1;
    long k = j * m / 4;
    k = std::clamp(k, 1L, n - 1);
    const double frac = static_cast<double>(j * m - 4 * k) / 4.0;
    return v[static_cast<std::size_t>(k - 1)] +
           (v[static_cast<std::size_t>(k)] - v[static_cast<std::size_t>(k - 1)]) * frac;
  };
  return {cut(1), cut(2), cut(3)};
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

}  // namespace perfbench
