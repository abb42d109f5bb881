/// \file synth_search.cpp
/// synth_search: a closed loop, one caller. Each op is one BeamSearch::run
/// on a fresh Scorer over a warm Engine. Thousands of probes per search
/// run on dominance-pruned populations of a few faults, so per-query
/// Engine overhead and the pool's fork/join floor dominate.

#include <algorithm>
#include <map>

#include "fault/kinds.hpp"
#include "inputs.hpp"
#include "synth/beam_search.hpp"
#include "synth/scorer.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using mtg::engine::Want;

constexpr double kLimitMs = 500.0;

/// Shortest covering library test per kind list, ops per cell: a search
/// result longer than this is wrong (ROADMAP bar for the synthesiser).
int library_best(const std::string& kinds) {
    static const std::map<std::string, int> best{
        {"SAF,TF", 6}, {"SAF,TF,CFin", 6}, {"RDF,DRDF", 8}, {"SAF,TF,CFid", 10}};
    const auto it = best.find(kinds);
    return it == best.end() ? 0 : it->second;
}

struct Reference {
    std::string text;
    int complexity{0};
    mtg::synth::Scorer::Stats probes;
};

struct State {
    std::unique_ptr<mtg::engine::Engine> engine;
    std::vector<SynthOp> ops;
    std::vector<std::vector<mtg::fault::FaultKind>> kinds;
    std::vector<Reference> reference;
    std::vector<mtg::synth::SearchResult> results;  ///< warm-up results
    std::map<std::string, std::pair<std::size_t, std::size_t>> sizes;  ///< pruned, full
    double population_build_ms{0.0};
    std::size_t population_faults{0};
};

mtg::synth::SearchResult search(const mtg::engine::Engine& engine,
                                const std::vector<mtg::fault::FaultKind>& kinds,
                                std::uint64_t seed) {
    mtg::synth::ScorerConfig scorer_config;
    scorer_config.kinds = kinds;
    mtg::synth::Scorer scorer(engine, scorer_config);
    mtg::synth::SearchConfig config;
    config.seed = seed;
    config.include_delay =
        std::any_of(kinds.begin(), kinds.end(), mtg::fault::needs_wait);
    return mtg::synth::BeamSearch(scorer, config).run();
}

std::unique_ptr<State> make_state(std::uint64_t seed) {
    auto state = std::make_unique<State>();
    state->engine = std::make_unique<mtg::engine::Engine>();
    state->ops = synth_search_inputs(seed);
    for (const SynthOp& op : state->ops)
        state->kinds.push_back(mtg::fault::parse_fault_kinds(op.kinds));
    const int cells = mtg::sim::RunOptions{}.memory_size;
    const double start = now_s();
    for (std::size_t i = 0; i < state->ops.size(); ++i) {
        if (state->sizes.count(state->ops[i].kinds)) continue;
        const std::size_t pruned =
            state->engine->bit_population(state->kinds[i], cells, true)->faults.size();
        const std::size_t full =
            state->engine->bit_population(state->kinds[i], cells)->faults.size();
        state->sizes[state->ops[i].kinds] = {pruned, full};
    }
    state->population_build_ms = 1e3 * (now_s() - start);
    state->population_faults = state->engine->stats().cache.retained_faults;
    for (std::size_t i = 0; i < state->ops.size(); ++i) {
        auto result = search(*state->engine, state->kinds[i],
                             state->ops[i].search_seed);
        state->reference.push_back(
            Reference{result.test.str(mtg::march::Notation::Ascii),
                      result.test.complexity(), result.probe_stats});
        state->results.push_back(std::move(result));
    }
    return state;
}

struct Window {
    LoopStats loop;
    double faults{0.0};
    double probes{0.0};
    double cache_hits{0.0};
    double full_checks{0.0};
};

Window search_window(const State& state, double seconds,
                     SpanRecorder* recorder, Outcome& outcome) {
    Window window;
    window.loop = closed_loop(seconds, state.ops.size(),
                              [&](std::size_t i, std::size_t op_number) {
        ScopedSpan op_span(recorder, "bench.op", op_number);
        double latency = 0.0;
        mtg::synth::SearchResult result;
        {
            ScopedSpan span(recorder, "synth.search", op_number, op_span.id());
            result = timed([&] {
                return search(*state.engine, state.kinds[i],
                              state.ops[i].search_seed);
            }, latency);
        }
        const Reference& ref = state.reference[i];
        const auto& stats = result.probe_stats;
        const auto [pruned, full] = state.sizes.at(state.ops[i].kinds);
        window.faults += static_cast<double>((stats.probes - stats.cache_hits) * pruned +
                                             stats.full_checks * full);
        window.probes += static_cast<double>(stats.probes);
        window.cache_hits += static_cast<double>(stats.cache_hits);
        window.full_checks += static_cast<double>(stats.full_checks);
        const bool ok = result.found() &&
                        result.test.str(mtg::march::Notation::Ascii) == ref.text &&
                        stats.probes == ref.probes.probes &&
                        stats.full_checks == ref.probes.full_checks;
        if (!ok) {
            ++outcome.wrong;
            ++outcome.failed;
        }
        ++outcome.attempted;
        return latency;
    });
    return window;
}

/// Layer decomposition of every distinct op's accepted test: parse, a
/// probe-shaped pruned Detects against the bare backend call on the pruned
/// population, the full-universe DetectsAll gate and the Scorer's own
/// probe and acceptance calls.
void decompose(const State& state, SpanRecorder& recorder, Outcome& outcome) {
    const auto& engine = *state.engine;
    Decomposition decomposition(recorder);
    for (std::size_t i = 0; i < state.ops.size(); ++i) {
        const auto& result = state.results[i];
        decomposition.next_op(i);
        decomposition.parse(state.ops[i].kinds, state.reference[i].text);
        mtg::engine::Query query;
        query.test = result.test;
        query.universe = mtg::engine::BitUniverse{};
        query.kinds = state.kinds[i];
        query.want = Want::Detects;
        query.prune = true;
        (void)decomposition.run_and_backend(engine, query);
        query.want = Want::DetectsAll;
        query.prune = false;
        (void)decomposition.run(engine, query);
        mtg::synth::ScorerConfig scorer_config;
        scorer_config.kinds = state.kinds[i];
        mtg::synth::Scorer scorer(engine, scorer_config);
        (void)decomposition.time("synth.probe",
                                 [&] { return scorer.probe(*result.skeleton); });
        (void)decomposition.time("synth.accepts_full", [&] {
            return scorer.accepts_full(*result.skeleton);
        });
    }
    decomposition.report(outcome);
}

}  // namespace

Outcome run_synth_search(const RunConfig& config) {
    Outcome outcome;
    double setup_s = 0.0;
    const auto state =
        timed_setups([&] { return make_state(config.seed); }, setup_s);

    // Reference check: every warm-up result is accepted on the full
    // universe and no longer than the shortest covering library test;
    // timed results must then reproduce it exactly (determinism).
    std::size_t rejected = 0;
    for (std::size_t i = 0; i < state->ops.size(); ++i) {
        const auto& result = state->results[i];
        mtg::synth::ScorerConfig scorer_config;
        scorer_config.kinds = state->kinds[i];
        const mtg::synth::Scorer scorer(*state->engine, scorer_config);
        if (!result.found() || !scorer.accepts_full(result.test) ||
            result.test.complexity() > library_best(state->ops[i].kinds))
            ++rejected;
        const Reference& ref = state->reference[i];
        outcome.digest.add(ref.text);
        outcome.digest.add(static_cast<std::uint64_t>(ref.probes.probes));
        outcome.digest.add(static_cast<std::uint64_t>(ref.probes.cache_hits));
        outcome.digest.add(static_cast<std::uint64_t>(ref.probes.full_checks));
    }
    outcome.detail("reference_rejected", static_cast<double>(rejected));
    if (rejected > 0) {
        outcome.wrong += rejected;
        outcome.failed += rejected;
    }

    if (!config.trace) {
        const Window window =
            search_window(*state, config.seconds, nullptr, outcome);
        closed_loop_metrics(window.loop, setup_s, window.faults, kLimitMs,
                            outcome);
        return outcome;
    }

    const Window untraced =
        search_window(*state, config.seconds / 2, nullptr, outcome);
    SpanRecorder recorder;
    const auto before = state->engine->stats();
    const Window traced =
        search_window(*state, config.seconds / 2, &recorder, outcome);
    const double ops = static_cast<double>(traced.loop.ops);
    engine_metrics(before, state->engine->stats(), traced.loop.ops, outcome);
    pool_metrics(traced.loop, outcome);
    trace_overhead(untraced.loop, traced.loop, outcome);
    outcome.metrics["synth.search_ms"] = median(traced.loop.latency_ms);
    outcome.metrics["synth.probes_per_search"] = traced.probes / ops;
    outcome.metrics["synth.probe_cache_hit_ratio"] =
        traced.cache_hits / traced.probes;
    outcome.metrics["synth.full_checks_per_search"] = traced.full_checks / ops;
    outcome.metrics["synth.us_per_probe"] =
        1e6 * traced.loop.busy_s / traced.probes;
    decompose(*state, recorder, outcome);
    outcome.metrics["fault.population_build_ms"] = state->population_build_ms;
    outcome.metrics["fault.population_faults"] =
        static_cast<double>(state->population_faults);
    add_self_times(recorder.spans(), outcome);
    if (!config.trace_out.empty()) recorder.write(config.trace_out);
    return outcome;
}

}  // namespace perfbench
