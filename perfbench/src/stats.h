// Order statistics the benchmark reports: medians and the tail percentile.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <iterator>
#include <vector>

namespace simdc::perfbench {

/// Samples that must lie strictly beyond a reported tail percentile.
inline constexpr std::size_t kTailBeyond = 10;

/// 1-based nearest rank of percentile p (in [0, 100]) among n samples. The
/// small slack keeps products such as 99.9% of 10000 from rounding up.
inline double NearestRank(double p, std::size_t n) {
  return std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
}

/// Nearest-rank percentile of `values`; 0 when empty.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = NearestRank(p, values.size());
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

inline double Median(const std::vector<double>& values) {
  return Percentile(values, 50.0);
}

/// Percentiles a tail is reported at. The rungs are a decade apart so a
/// run-to-run change of a few samples rarely moves the reported rung.
inline constexpr double kTailLadder[] = {50.0, 90.0, 99.0, 99.9};

/// The highest kTailLadder percentile that leaves at least kTailBeyond of
/// `samples` values beyond it (nearest rank), or 50 when even the median
/// does not.
inline double TailPercentile(std::size_t samples) {
  for (auto it = std::rbegin(kTailLadder); it != std::rend(kTailLadder); ++it) {
    const double p = *it;
    if (static_cast<double>(samples) - NearestRank(p, samples) >=
        static_cast<double>(kTailBeyond)) {
      return p;
    }
  }
  return 50.0;
}

}  // namespace simdc::perfbench
