#pragma once

/// \file stats.hpp
/// Order statistics the benchmark reports: medians, and the tail rule of
/// the metric definitions — the highest percentile that still has at
/// least ten samples beyond it.

#include <cstddef>
#include <vector>

namespace perfbench {

/// Median of `samples` (mean of the two middle values for an even count);
/// 0 for an empty vector.
[[nodiscard]] double median(std::vector<double> samples);

/// The tail of a latency distribution.
struct Tail {
    double value{0.0};       ///< the sample at the tail rank
    double percentile{0.0};  ///< share of samples at or below it, in %
    std::size_t beyond{0};   ///< samples ranked above it
    std::size_t samples{0};
    /// False when fewer than kTailBeyond + 1 samples exist: no percentile
    /// then has ten samples beyond it, and `value` is the maximum.
    bool defined{false};
};

inline constexpr std::size_t kTailBeyond = 10;

/// Sorted ascending, the tail sample is x[N - 11]: exactly ten samples
/// rank above it, and its percentile is 100 * (N - 10) / N. Ranks, not
/// values, decide "beyond", so ties above the tail sample still count.
[[nodiscard]] Tail tail_of(std::vector<double> samples);

}  // namespace perfbench
