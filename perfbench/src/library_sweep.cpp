/// \file library_sweep.cpp
/// library_sweep: a closed loop, one caller, on a direct Engine. Each op
/// is one Engine::run of a library March test on a seeded kind list, over
/// a 64-cell bit universe or a words × width word universe, Detects
/// interleaved with Traces. The packed kernels and the pool fan-out do
/// nearly all the work; net and synth do none.

#include <algorithm>

#include "check.hpp"
#include "inputs.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// An op's latency limit for sustained_qps: far above every op's
/// steady-state time, so only a stall or a regression of several times
/// drops an op out.
constexpr double kLimitMs = 500.0;
/// Faults per op re-checked against the Scalar oracle.
constexpr std::size_t kScalarSample = 24;

struct State {
    std::unique_ptr<mtg::engine::Engine> engine;
    std::vector<LibraryOp> ops;
    std::vector<mtg::engine::Query> queries;
    std::vector<mtg::engine::Result> reference;  ///< warm-up results
    double population_build_ms{0.0};
    std::size_t population_faults{0};
};

std::unique_ptr<State> make_state(std::uint64_t seed) {
    auto state = std::make_unique<State>();
    state->engine = std::make_unique<mtg::engine::Engine>();
    state->ops = library_sweep_inputs(seed);
    for (const LibraryOp& op : state->ops)
        state->queries.push_back(to_query(op));
    // Cold population expansion, then one warm-up pass.
    const double start = now_s();
    for (const auto& query : state->queries) {
        if (const auto* bit =
                std::get_if<mtg::engine::BitUniverse>(&query.universe))
            (void)state->engine->bit_population(query.kinds,
                                                bit->opts.memory_size);
        else
            (void)state->engine->word_population(
                query.kinds,
                std::get<mtg::engine::WordUniverse>(query.universe).opts);
    }
    state->population_build_ms = 1e3 * (now_s() - start);
    state->population_faults = state->engine->stats().cache.retained_faults;
    for (const auto& query : state->queries)
        state->reference.push_back(state->engine->run(query));
    return state;
}

std::size_t faults_of(const mtg::engine::Result& result) {
    return std::max({result.detected.size(), result.traces.size(),
                     result.word_traces.size()});
}

LoopStats sweep_window(const State& state, double seconds,
                       SpanRecorder* recorder, Outcome& outcome,
                       double& faults) {
    return closed_loop(seconds, state.ops.size(),
                       [&](std::size_t i, std::size_t op_number) {
        ScopedSpan op_span(recorder, "bench.op", op_number);
        double latency = 0.0;
        mtg::engine::Result result;
        {
            ScopedSpan run_span(recorder, "engine.run", op_number,
                                op_span.id());
            result = timed([&] { return state.engine->run(state.queries[i]); },
                           latency);
        }
        faults += static_cast<double>(faults_of(result));
        if (!same_result(result, state.reference[i])) {
            ++outcome.wrong;
            ++outcome.failed;
        }
        ++outcome.attempted;
        return latency;
    });
}

/// Layer decomposition of every distinct op: parse, Engine::run and the
/// bare backend call on the same cached population.
void decompose(const State& state, SpanRecorder& recorder, Outcome& outcome) {
    Decomposition decomposition(recorder);
    for (std::size_t i = 0; i < state.ops.size(); ++i) {
        const auto& query = state.queries[i];
        decomposition.next_op(i);
        decomposition.parse(state.ops[i].kinds,
                            query.test.str(mtg::march::Notation::Ascii));
        (void)decomposition.run_and_backend(*state.engine, query);
    }
    decomposition.report(outcome);
}

}  // namespace

Outcome run_library_sweep(const RunConfig& config) {
    Outcome outcome;
    double setup_s = 0.0;
    const auto state =
        timed_setups([&] { return make_state(config.seed); }, setup_s);

    // Output check 1: a seeded sample of every op's faults re-evaluated on
    // the Scalar oracle. Check 2 (in the loop): every timed result equals
    // the warm-up result of the same op.
    mtg::SplitMix64 rng(config.seed ^ 0x5ca1ab1eULL);
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < state->queries.size(); ++i) {
        mismatches += scalar_mismatches(*state->engine, state->queries[i],
                                        state->reference[i], kScalarSample,
                                        rng);
        outcome.digest.add(result_text(state->reference[i]));
    }
    outcome.detail("scalar_checked_faults",
                   static_cast<double>(kScalarSample * state->queries.size()));
    outcome.detail("scalar_mismatches", static_cast<double>(mismatches));
    if (mismatches > 0) {
        ++outcome.wrong;
        ++outcome.failed;
    }
    outcome.digest.add(static_cast<std::uint64_t>(state->population_faults));

    double faults = 0.0;
    if (!config.trace) {
        const LoopStats loop =
            sweep_window(*state, config.seconds, nullptr, outcome, faults);
        closed_loop_metrics(loop, setup_s, faults, kLimitMs, outcome);
        return outcome;
    }

    const LoopStats untraced =
        sweep_window(*state, config.seconds / 2, nullptr, outcome, faults);
    SpanRecorder recorder;
    const auto before = state->engine->stats();
    const LoopStats traced =
        sweep_window(*state, config.seconds / 2, &recorder, outcome, faults);
    engine_metrics(before, state->engine->stats(), traced.ops, outcome);
    pool_metrics(traced, outcome);
    trace_overhead(untraced, traced, outcome);
    decompose(*state, recorder, outcome);
    outcome.metrics["fault.population_build_ms"] = state->population_build_ms;
    outcome.metrics["fault.population_faults"] =
        static_cast<double>(state->population_faults);
    add_self_times(recorder.spans(), outcome);
    if (!config.trace_out.empty()) recorder.write(config.trace_out);
    return outcome;
}

}  // namespace perfbench
