#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  if (rank < 1) rank = 1;
  if (rank > samples.size()) rank = samples.size();
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

Tail TailPercentile(std::vector<double> samples, std::size_t min_beyond) {
  Tail tail;
  tail.samples = samples.size();
  if (samples.empty()) return tail;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  if (n <= min_beyond) {
    tail.value = samples.back();
    tail.percentile = 100.0;
    return tail;
  }
  const std::size_t rank = n - min_beyond;  // 1-based; min_beyond above it
  tail.value = samples[rank - 1];
  tail.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  tail.valid = true;
  return tail;
}

Quartiles ComputeQuartiles(std::vector<double> samples) {
  Quartiles out;
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const long ld = static_cast<long>(samples.size());
  if (ld == 1) {
    out.q1 = out.q2 = out.q3 = samples[0];
    return out;
  }
  const long m = ld + 1;
  double result[3];
  for (long i = 1; i < 4; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    result[i - 1] = (samples[j - 1] * static_cast<double>(4 - delta) +
                     samples[j] * static_cast<double>(delta)) /
                    4.0;
  }
  out.q1 = result[0];
  out.q2 = result[1];
  out.q3 = result[2];
  return out;
}

double Ratio(double num, double den, double if_zero) {
  return den == 0 ? if_zero : num / den;
}

}  // namespace perfbench
