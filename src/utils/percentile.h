#ifndef SAGDFN_UTILS_PERCENTILE_H_
#define SAGDFN_UTILS_PERCENTILE_H_

#include <algorithm>
#include <cstddef>
#include <vector>

namespace sagdfn::utils {

/// Unbiased percentile of an ALREADY-SORTED ascending sample: linear
/// interpolation at rank pct/100 * (n-1) (the quantile estimator R-7 /
/// numpy.percentile default). `pct` is clamped to [0, 100]; an empty
/// sample gives 0. The one estimator behind every latency percentile the
/// repo reports (the benches and the registry's p99 health probe), so
/// their numbers agree. A 2-sample p50 is the midpoint.
inline double PercentileSorted(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  const double rank =
      std::clamp(pct, 0.0, 100.0) / 100.0 *
      static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace sagdfn::utils

#endif  // SAGDFN_UTILS_PERCENTILE_H_
