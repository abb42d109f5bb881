#pragma once

/// \file report.hpp
/// What a run produces and how it is printed: the end-to-end and
/// per-layer metric sets, the host/config stamp, the output digest and
/// the final one-line JSON result.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

struct RunConfig {
    std::string workload;
    std::uint64_t seed{0};
    double seconds{10.0};
    bool trace{false};
    std::string commit{"unknown"};
    std::string trace_out;  ///< span dump path (traced runs); empty = none
};

struct MetricSpec {
    const char* name;
    const char* unit;
};

/// End-to-end metrics, printed by every untraced run of every workload.
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_specs();
/// Per-layer metrics, printed by every traced run of every workload; a
/// layer a workload never enters reads 0.
[[nodiscard]] const std::vector<MetricSpec>& per_layer_specs();

/// FNV-1a over the deterministic outputs of a run.
class Digest {
public:
    void add(const std::string& text);
    void add(std::uint64_t value);
    [[nodiscard]] std::string hex() const;

private:
    std::uint64_t hash_{0xcbf29ce484222325ULL};
};

struct Outcome {
    std::map<std::string, double> metrics;  ///< by spec name
    /// Human-readable `key value` lines printed above the result, e.g.
    /// the tail percentile and its sample count.
    std::vector<std::string> details;
    std::size_t attempted{0};
    std::size_t failed{0};
    std::size_t wrong{0};  ///< outputs that failed their check
    Digest digest;

    void detail(const std::string& key, const std::string& value);
    void detail(const std::string& key, double value);
};

/// Resource counters of the whole process (getrusage, /proc) plus wall
/// time.
struct Usage {
    double wall_s{0.0};
    double cpu_s{0.0};
    long vcsw{0};
    long ivcsw{0};
    double max_rss_mb{0.0};  ///< peak resident set (VmHWM)
    /// Host CPU time stolen by the hypervisor and total host CPU time,
    /// in clock ticks (/proc/stat; 0 where unavailable).
    double host_steal{0.0};
    double host_total{0.0};
};
[[nodiscard]] Usage usage_now();

/// Share of host CPU time stolen between two usage samples, in percent.
[[nodiscard]] double steal_pct(const Usage& before, const Usage& after);

/// Monotonic seconds.
[[nodiscard]] double now_s();

/// Host and config stamp: nproc, lane ISA and width, pool workers, every
/// MTG_* variable seen, compiler, build type, commit, workload and seed.
[[nodiscard]] std::string stamp(const RunConfig& config);

/// Prints detail lines, the digest line and the final JSON result line.
void print_result(const RunConfig& config, const Outcome& outcome);

/// Fills the per-layer self-time metrics (`<module>.self_us_per_op`, the
/// module's self time per root span) and per-name span detail lines.
void add_self_times(const std::vector<Span>& spans, Outcome& outcome);

}  // namespace perfbench
