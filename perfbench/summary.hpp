// Order statistics used by the benchmark's reports.
#pragma once

#include <vector>

namespace perfbench {

/// Linear-interpolated percentile, q in [0, 1] (numpy's default method).
/// Empty input gives 0.
double percentile(std::vector<double> v, double q);

double median(const std::vector<double>& v);

/// Quartiles as Python's statistics.quantiles(v, n=4) gives them (the
/// "exclusive" method). Needs at least two values; one value is returned
/// as all three quartiles.
struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};
Quartiles quartiles(std::vector<double> v);

/// Geometric mean of positive values; empty input gives 0.
double geomean(const std::vector<double>& v);

}  // namespace perfbench
