#include "stats.hpp"

#include <algorithm>

namespace perfbench {

double median(std::vector<double> samples) {
    if (samples.empty()) return 0.0;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 == 1 ? samples[n / 2]
                      : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Tail tail_of(std::vector<double> samples) {
    Tail tail;
    tail.samples = samples.size();
    if (samples.empty()) return tail;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    if (n <= kTailBeyond) {
        tail.value = samples.back();
        tail.percentile = 100.0;
        return tail;
    }
    const std::size_t rank = n - kTailBeyond - 1;
    tail.value = samples[rank];
    tail.beyond = kTailBeyond;
    tail.percentile =
        100.0 * static_cast<double>(rank + 1) / static_cast<double>(n);
    tail.defined = true;
    return tail;
}

}  // namespace perfbench
