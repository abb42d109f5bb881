/// \file table3_generate.cpp
/// table3_generate: a closed loop, one caller. Each op is one
/// core::Generator::generate of a paper Table 3 fault list or an extended
/// fault list, in seeded order — the only workload where core, fsm, atsp
/// and setcover (the paper's own algorithm) do the work.

#include <algorithm>

#include "core/generator.hpp"
#include "inputs.hpp"
#include "setcover/coverage_matrix.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using mtg::engine::Want;

/// Far above the slowest list (CFst enumerates 256 class combinations).
constexpr double kLimitMs = 5000.0;

struct Reference {
    std::string text;
    int complexity{0};
    int combinations{0};
    long long nodes{0};
    long long ap_solves{0};
};

struct State {
    mtg::core::Generator generator;
    std::vector<GenerateOp> ops;
    std::vector<Reference> reference;
    std::vector<mtg::core::GenerationResult> results;  ///< warm-up results
    std::vector<std::size_t> faults;  ///< validation population per op
};

std::unique_ptr<State> make_state(std::uint64_t seed) {
    auto state = std::make_unique<State>();
    state->ops = table3_generate_inputs(seed);
    const mtg::sim::RunOptions opts = state->generator.options().sim;
    for (const GenerateOp& op : state->ops) {
        auto result = state->generator.generate(op.kinds);
        state->reference.push_back(Reference{
            result.test.str(mtg::march::Notation::Ascii), result.complexity,
            result.combinations_tried, result.atsp_stats.nodes_explored,
            result.atsp_stats.ap_solves});
        state->results.push_back(std::move(result));
        state->faults.push_back(mtg::engine::Engine::global()
                                    .bit_population(op.kinds, opts.memory_size)
                                    ->faults.size());
    }
    return state;
}

bool acceptable(const GenerateOp& op, const mtg::core::GenerationResult& result) {
    return result.valid && result.redundancy.complete &&
           (op.paper_complexity == 0 || result.complexity == op.paper_complexity);
}

struct Window {
    LoopStats loop;
    double faults{0.0};
    double combinations{0.0};
    double nodes{0.0};
    double ap_solves{0.0};
};

Window generate_window(const State& state, double seconds,
                       SpanRecorder* recorder, Outcome& outcome) {
    Window window;
    window.loop = closed_loop(seconds, state.ops.size(),
                              [&](std::size_t i, std::size_t op_number) {
        ScopedSpan op_span(recorder, "bench.op", op_number);
        double latency = 0.0;
        mtg::core::GenerationResult result;
        {
            ScopedSpan span(recorder, "core.generate", op_number, op_span.id());
            result = timed([&] { return state.generator.generate(state.ops[i].kinds); },
                           latency);
        }
        const Reference& ref = state.reference[i];
        window.faults += static_cast<double>(state.faults[i]);
        window.combinations += result.combinations_tried;
        window.nodes += static_cast<double>(result.atsp_stats.nodes_explored);
        window.ap_solves += static_cast<double>(result.atsp_stats.ap_solves);
        const bool ok = acceptable(state.ops[i], result) &&
                        result.test.str(mtg::march::Notation::Ascii) == ref.text &&
                        result.combinations_tried == ref.combinations &&
                        result.atsp_stats.nodes_explored == ref.nodes;
        if (!ok) {
            ++outcome.wrong;
            ++outcome.failed;
        }
        ++outcome.attempted;
        return latency;
    });
    return window;
}

/// Layer decomposition of every list's generated test: parse, the
/// simulator gate (DetectsAll over the full population), a Detects against
/// the bare backend call, the dictionary sweep the coverage matrix is built
/// from and the §6 set-covering analysis.
void decompose(const State& state, SpanRecorder& recorder, Outcome& outcome) {
    const auto& engine = mtg::engine::Engine::global();
    const mtg::sim::RunOptions opts = state.generator.options().sim;
    Decomposition decomposition(recorder);
    std::vector<double> redundancy_ms;
    for (std::size_t i = 0; i < state.ops.size(); ++i) {
        const GenerateOp& op = state.ops[i];
        const auto& result = state.results[i];
        decomposition.next_op(i);
        std::string list = op.name;
        std::replace(list.begin(), list.end(), '+', ',');
        decomposition.parse(list, state.reference[i].text);
        mtg::engine::Query query;
        query.test = result.test;
        query.universe = mtg::engine::BitUniverse{opts};
        query.kinds = op.kinds;
        query.want = Want::DetectsAll;
        (void)decomposition.run(engine, query);
        query.want = Want::Detects;
        (void)decomposition.run_and_backend(engine, query);
        query.want = Want::DictionarySweep;
        (void)decomposition.run(engine, query);
        redundancy_ms.push_back(1e3 * decomposition.time("setcover.analyse_redundancy", [&] {
            return mtg::setcover::analyse_redundancy(result.test, op.kinds, opts);
        }));
    }
    decomposition.report(outcome);
    outcome.metrics["setcover.analyse_redundancy_ms"] = median(redundancy_ms);
}

}  // namespace

Outcome run_table3_generate(const RunConfig& config) {
    Outcome outcome;
    double setup_s = 0.0;
    const auto state =
        timed_setups([&] { return make_state(config.seed); }, setup_s);

    std::size_t rejected = 0;
    for (std::size_t i = 0; i < state->ops.size(); ++i) {
        if (!acceptable(state->ops[i], state->results[i])) ++rejected;
        const Reference& ref = state->reference[i];
        outcome.digest.add(state->ops[i].name + "=" + ref.text);
        outcome.digest.add(static_cast<std::uint64_t>(ref.combinations));
        outcome.digest.add(static_cast<std::uint64_t>(ref.nodes));
        outcome.digest.add(static_cast<std::uint64_t>(ref.ap_solves));
    }
    outcome.detail("reference_rejected", static_cast<double>(rejected));
    if (rejected > 0) {
        outcome.wrong += rejected;
        outcome.failed += rejected;
    }

    if (!config.trace) {
        const Window window =
            generate_window(*state, config.seconds, nullptr, outcome);
        closed_loop_metrics(window.loop, setup_s, window.faults, kLimitMs,
                            outcome);
        return outcome;
    }

    const Window untraced =
        generate_window(*state, config.seconds / 2, nullptr, outcome);
    SpanRecorder recorder;
    const auto& engine = mtg::engine::Engine::global();
    const auto before = engine.stats();
    const Window traced =
        generate_window(*state, config.seconds / 2, &recorder, outcome);
    const double ops = static_cast<double>(traced.loop.ops);
    engine_metrics(before, engine.stats(), traced.loop.ops, outcome);
    pool_metrics(traced.loop, outcome);
    trace_overhead(untraced.loop, traced.loop, outcome);
    outcome.metrics["core.generate_ms"] = median(traced.loop.latency_ms);
    outcome.metrics["core.combinations_tried"] = traced.combinations / ops;
    outcome.metrics["atsp.nodes_explored"] = traced.nodes / ops;
    outcome.metrics["atsp.ap_solves"] = traced.ap_solves / ops;
    decompose(*state, recorder, outcome);
    add_self_times(recorder.spans(), outcome);
    if (!config.trace_out.empty()) recorder.write(config.trace_out);
    return outcome;
}

}  // namespace perfbench
