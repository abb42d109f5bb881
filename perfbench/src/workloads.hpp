#pragma once

/// \file workloads.hpp
/// The four workloads and the closed-loop machinery three of them share.

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "report.hpp"
#include "stats.hpp"

namespace perfbench {

[[nodiscard]] Outcome run_library_sweep(const RunConfig& config);
[[nodiscard]] Outcome run_query_mix(const RunConfig& config);
[[nodiscard]] Outcome run_synth_search(const RunConfig& config);
[[nodiscard]] Outcome run_table3_generate(const RunConfig& config);

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetups = 5;

/// Builds the workload state kSetups times, dropping each before the
/// next is built (so the peak RSS stays that of one state), and returns
/// the last one with the median build time.
template <typename Make>
auto timed_setups(Make&& make, double& setup_s) {
    decltype(make()) state{};
    std::vector<double> times;
    for (int i = 0; i < kSetups; ++i) {
        state = {};
        const double start = now_s();
        state = make();
        times.push_back(now_s() - start);
    }
    setup_s = median(times);
    return state;
}

/// One closed-loop window: whole passes over the op list until the window
/// has elapsed, so every run measures an exact multiple of the mix.
struct LoopStats {
    std::vector<double> latency_ms;  ///< per op, time inside the op
    std::vector<double> pass_busy_s;  ///< per pass, sum of its op times
    std::vector<double> pass_steal_pct;  ///< per pass, host steal share
    double busy_s{0.0};              ///< sum of op times
    std::size_t ops{0};
    std::size_t ops_per_pass{0};
    Usage before;
    Usage after;
};

/// `op(index, op_number)` runs op `index` of the list and returns its
/// latency in seconds (the op times only its call into the program, not
/// the checks around it).
template <typename Op>
LoopStats closed_loop(double seconds, std::size_t count, Op&& op) {
    LoopStats stats;
    stats.ops_per_pass = count;
    stats.before = usage_now();
    const double start = now_s();
    Usage pass_start = stats.before;
    do {
        double pass_busy = 0.0;
        for (std::size_t i = 0; i < count; ++i) {
            const double latency = op(i, stats.ops);
            stats.latency_ms.push_back(1e3 * latency);
            pass_busy += latency;
            ++stats.ops;
        }
        const Usage pass_end = usage_now();
        stats.pass_busy_s.push_back(pass_busy);
        stats.pass_steal_pct.push_back(steal_pct(pass_start, pass_end));
        stats.busy_s += pass_busy;
        pass_start = pass_end;
    } while (now_s() - start < seconds);
    stats.after = usage_now();
    return stats;
}

/// Fills the end-to-end metrics of a closed loop. `faults` is the number
/// of fault evaluations the window's ops performed; ops slower than
/// `limit_ms` do not count towards sustained_qps.
///
/// On a shared virtual machine the hypervisor steals CPU time in bursts,
/// and the workloads that fork tiny jobs across the pool slow down several
/// times while it does. So the metrics come from the half of the passes
/// (every pass runs the same ops) during which the least host CPU time was
/// stolen: rates are per-pass medians over those passes, latencies are
/// taken over their ops. The choice depends on the host's steal counter
/// only, never on how fast a pass ran. The all-pass figures are printed as
/// detail lines.
void closed_loop_metrics(const LoopStats& loop, double setup_s, double faults,
                         double limit_ms, Outcome& outcome);

/// Indices of the passes closed_loop_metrics keeps: the ceil(n/2) with the
/// lowest steal share, earlier passes first on ties, in pass order.
[[nodiscard]] std::vector<std::size_t> least_stolen_passes(
    const std::vector<double>& pass_steal_pct);

/// Thread-pool counters of a traced window (getrusage deltas).
void pool_metrics(const LoopStats& loop, Outcome& outcome);

/// Engine counter deltas of a traced window.
void engine_metrics(const mtg::engine::Engine::Stats& before,
                    const mtg::engine::Engine::Stats& after, std::size_t ops,
                    Outcome& outcome);

/// bench.trace_overhead_pct from the median op latency of an untraced
/// and a traced window of the same ops.
void trace_overhead(const LoopStats& untraced, const LoopStats& traced,
                    Outcome& outcome);

/// The layer decomposition of a traced run: after the traced window, each
/// workload times the program's public functions on its own inputs, one
/// root span per op, one child span per call. The medians and per-fault
/// costs land in the per-layer metrics.
class Decomposition {
public:
    explicit Decomposition(SpanRecorder& recorder) : recorder_(recorder) {}

    /// Starts op `op`: closes the previous op's root span, opens a new one.
    void next_op(std::uint64_t op);

    /// Times `call()` under a child span `name`; returns the seconds.
    template <typename Call>
    double time(const char* name, Call&& call) {
        ScopedSpan span(&recorder_, name, op_, root_);
        const double start = now_s();
        (void)call();
        return now_s() - start;
    }

    /// fault::parse_fault_kinds and march::parse_march of an op's text.
    void parse(const std::string& kinds, const std::string& test_text);

    /// Engine::run of `query`; returns the seconds.
    double run(const mtg::engine::Engine& engine, const mtg::engine::Query& query);

    /// Engine::run of a kind-expanded `query`, then the bare backend call
    /// it makes on the same cached population. Their difference is the
    /// Engine's overhead; full sweeps (not DetectsAll, which may stop
    /// early) feed the per-fault kernel cost. Returns the Engine::run
    /// seconds.
    double run_and_backend(const mtg::engine::Engine& engine,
                           const mtg::engine::Query& query);

    /// Writes the medians of everything timed so far. Metrics nothing fed
    /// are left untouched.
    void report(Outcome& outcome) const;

    ~Decomposition();
    Decomposition(const Decomposition&) = delete;
    Decomposition& operator=(const Decomposition&) = delete;

private:
    SpanRecorder& recorder_;
    std::uint64_t op_{0};
    int root_{-1};
    std::vector<double> parse_us_, kinds_us_, overhead_us_;
    std::map<mtg::engine::Want, std::vector<double>> run_us_;
    double backend_ns_[2][2]{};  ///< [word][traces]
    double backend_faults_[2][2]{};
};

/// Times `call()` and returns its result with the elapsed seconds.
template <typename Call>
auto timed(Call&& call, double& seconds) {
    const double start = now_s();
    auto result = call();
    seconds = now_s() - start;
    return result;
}

}  // namespace perfbench
