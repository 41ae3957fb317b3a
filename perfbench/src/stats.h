// Order statistics the benchmark reports: medians, the tail percentile that
// still has a stated number of samples beyond it, quartiles with the same
// interpolation as Python's statistics.quantiles(n=4), and ratios that stay
// defined when the denominator is zero.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank q-quantile (q in [0, 1]) of `samples`: the smallest sample
/// with at least q * n samples at or below it. 0 for an empty input.
double Percentile(std::vector<double> samples, double q);

/// The middle sample (mean of the two middle ones for even n); 0 if empty.
double Median(std::vector<double> samples);

/// The highest percentile that still has `min_beyond` samples above it.
struct Tail {
  double value = 0;       // the sample at that percentile
  double percentile = 0;  // in percent: 100 * rank / n
  std::size_t samples = 0;
  bool valid = false;     // false when n <= min_beyond; value is then the max
};
Tail TailPercentile(std::vector<double> samples, std::size_t min_beyond = 10);

/// Python statistics.quantiles(samples, n=4) ("exclusive" method); needs
/// at least two samples (fewer: all three equal the single sample, or 0).
struct Quartiles {
  double q1 = 0;
  double q2 = 0;
  double q3 = 0;
};
Quartiles ComputeQuartiles(std::vector<double> samples);

/// num / den, or `if_zero` when den is 0.
double Ratio(double num, double den, double if_zero = 0.0);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
