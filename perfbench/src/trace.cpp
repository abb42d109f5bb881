#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <utility>

namespace perfbench {

std::int64_t SpanRecorder::now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

int SpanRecorder::begin(std::string name, std::uint64_t op, int parent) {
    Span span{std::move(name), now_ns(), 0, parent, op};
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
    return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::end(int id) {
    const std::int64_t now = now_ns();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end_ns = now;
}

int SpanRecorder::add(Span span) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
    return static_cast<int>(spans_.size() - 1);
}

std::vector<Span> SpanRecorder::spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

bool SpanRecorder::write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    for (const Span& span : spans())
        out << "{\"name\":\"" << span.name << "\",\"start_ns\":"
            << span.start_ns << ",\"end_ns\":" << span.end_ns
            << ",\"parent\":" << span.parent << ",\"op\":" << span.op
            << "}\n";
    return static_cast<bool>(out);
}

namespace {

/// Children of every span, by parent index.
std::vector<std::vector<std::size_t>> children_of(
    const std::vector<Span>& spans) {
    std::vector<std::vector<std::size_t>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const int parent = spans[i].parent;
        if (parent >= 0 && static_cast<std::size_t>(parent) < spans.size())
            children[static_cast<std::size_t>(parent)].push_back(i);
    }
    return children;
}

std::int64_t self_time(const std::vector<Span>& spans,
                       const std::vector<std::size_t>& children,
                       std::size_t index) {
    const Span& span = spans[index];
    std::vector<std::pair<std::int64_t, std::int64_t>> covered;
    for (std::size_t child : children) {
        const std::int64_t lo = std::max(spans[child].start_ns, span.start_ns);
        const std::int64_t hi = std::min(spans[child].end_ns, span.end_ns);
        if (hi > lo) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    std::int64_t union_ns = 0;
    std::int64_t reach = span.start_ns;
    for (const auto& [lo, hi] : covered) {
        const std::int64_t from = std::max(lo, reach);
        if (hi > from) {
            union_ns += hi - from;
            reach = hi;
        }
    }
    return (span.end_ns - span.start_ns) - union_ns;
}

}  // namespace

std::int64_t self_time_ns(const std::vector<Span>& spans, std::size_t index) {
    std::vector<std::size_t> children;
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].parent == static_cast<int>(index)) children.push_back(i);
    return self_time(spans, children, index);
}

std::map<std::string, SpanTotals> totals_by_name(
    const std::vector<Span>& spans) {
    const auto children = children_of(spans);
    std::map<std::string, SpanTotals> totals;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        SpanTotals& entry = totals[spans[i].name];
        entry.total_ns += spans[i].end_ns - spans[i].start_ns;
        entry.self_ns += self_time(spans, children[i], i);
        ++entry.count;
    }
    return totals;
}

std::map<std::string, std::int64_t> self_ns_by_module(
    const std::vector<Span>& spans) {
    std::map<std::string, std::int64_t> modules;
    for (const auto& [name, entry] : totals_by_name(spans))
        modules[name.substr(0, name.find('.'))] += entry.self_ns;
    return modules;
}

}  // namespace perfbench
