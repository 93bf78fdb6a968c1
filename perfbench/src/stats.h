#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// Summary statistics of latency samples.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// The p-quantile of `v` (0 <= p <= 1), interpolated linearly between the
/// two nearest ranks; 0 for no samples. An infinite sample (a request that
/// never completed) makes every quantile at or above its rank infinite,
/// never NaN.
inline double Quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0 || v[lo] == v[hi]) return v[lo];
  if (!std::isfinite(v[hi])) return v[hi];
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double Mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
