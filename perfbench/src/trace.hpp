#pragma once

/// \file trace.hpp
/// The benchmark's span recorder. Spans are recorded only around the
/// benchmark's own calls into the program's public functions — nothing
/// inside src/ is instrumented. Each span carries a name of the form
/// `<module>.<function>` (the src/ module it times), its start and end on
/// the steady clock, the span that caused it and the op it belongs to.
/// Spans stay in memory and are written out once, when the run ends.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
    std::string name;
    std::int64_t start_ns{0};
    std::int64_t end_ns{0};
    int parent{-1};  ///< index of the causing span, -1 for a root
    std::uint64_t op{0};
};

/// Thread-safe in-memory span store.
class SpanRecorder {
public:
    [[nodiscard]] static std::int64_t now_ns();

    /// Opens a span starting now; returns its id.
    int begin(std::string name, std::uint64_t op, int parent = -1);
    /// Closes span `id` now.
    void end(int id);
    /// Records a span timed by the caller (e.g. an open-loop request that
    /// starts at its due time, not when it was sent).
    int add(Span span);

    [[nodiscard]] std::vector<Span> spans() const;

    /// One JSON object per line: name, start_ns, end_ns, parent, op.
    /// Returns false when the file cannot be written.
    bool write(const std::string& path) const;

private:
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/// RAII span over a recorder that may be null (tracing off: no-op).
class ScopedSpan {
public:
    ScopedSpan(SpanRecorder* recorder, std::string name, std::uint64_t op,
               int parent = -1)
        : recorder_(recorder),
          id_(recorder ? recorder->begin(std::move(name), op, parent) : -1) {}
    ~ScopedSpan() {
        if (recorder_) recorder_->end(id_);
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    [[nodiscard]] int id() const { return id_; }

private:
    SpanRecorder* recorder_;
    int id_;
};

/// Self time of span `index`: its duration minus the part of its interval
/// that its children cover. Overlapping children (concurrent work) are
/// counted once, and children reaching outside the parent are clipped.
[[nodiscard]] std::int64_t self_time_ns(const std::vector<Span>& spans,
                                        std::size_t index);

/// Per-name totals over a span set.
struct SpanTotals {
    std::int64_t total_ns{0};
    std::int64_t self_ns{0};
    std::size_t count{0};
};
[[nodiscard]] std::map<std::string, SpanTotals> totals_by_name(
    const std::vector<Span>& spans);

/// Self time summed per module: the name up to its first '.'.
[[nodiscard]] std::map<std::string, std::int64_t> self_ns_by_module(
    const std::vector<Span>& spans);

}  // namespace perfbench
