#include "workloads.hpp"

#include <algorithm>
#include <string>

#include "fault/kinds.hpp"
#include "march/parser.hpp"

namespace perfbench {

std::vector<std::size_t> least_stolen_passes(
    const std::vector<double>& pass_steal_pct) {
    std::vector<std::size_t> order(pass_steal_pct.size());
    for (std::size_t p = 0; p < order.size(); ++p) order[p] = p;
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return pass_steal_pct[a] < pass_steal_pct[b];
    });
    order.resize((order.size() + 1) / 2);
    std::sort(order.begin(), order.end());
    return order;
}

void closed_loop_metrics(const LoopStats& loop, double setup_s, double faults,
                         double limit_ms, Outcome& outcome) {
    const std::size_t per_pass = loop.ops_per_pass;
    const double faults_per_pass =
        faults / static_cast<double>(loop.pass_busy_s.size());
    const std::vector<std::size_t> kept = least_stolen_passes(loop.pass_steal_pct);
    std::vector<double> kept_busy, within_rate, kept_latency;
    double kept_steal_max = 0.0;
    for (std::size_t p : kept) {
        kept_steal_max = std::max(kept_steal_max, loop.pass_steal_pct[p]);
        std::size_t within = 0;
        for (std::size_t i = 0; i < per_pass; ++i) {
            const double latency = loop.latency_ms[p * per_pass + i];
            within += latency <= limit_ms;
            kept_latency.push_back(latency);
        }
        kept_busy.push_back(loop.pass_busy_s[p]);
        within_rate.push_back(static_cast<double>(within) / loop.pass_busy_s[p]);
    }
    const double pass_s = median(kept_busy);
    const Tail tail = tail_of(kept_latency);
    outcome.metrics["setup_s"] = setup_s;
    outcome.metrics["faults_per_s"] = faults_per_pass / pass_s;
    outcome.metrics["ops_per_s"] = static_cast<double>(per_pass) / pass_s;
    outcome.metrics["sustained_qps"] = median(within_rate);
    outcome.metrics["latency_p50_ms"] = median(kept_latency);
    outcome.metrics["latency_tail_ms"] = tail.value;
    outcome.metrics["peak_rss_mb"] = usage_now().max_rss_mb;
    outcome.detail("loop", "closed, 1 caller");
    outcome.detail("latency_limit_ms", limit_ms);
    outcome.detail("latency_tail_percentile", tail.percentile);
    outcome.detail("latency_tail_samples_beyond",
                   static_cast<double>(tail.beyond));
    outcome.detail("latency_samples", static_cast<double>(tail.samples));
    outcome.detail("passes", static_cast<double>(loop.pass_busy_s.size()));
    outcome.detail("passes_kept", static_cast<double>(kept.size()));
    outcome.detail("ops_per_pass", static_cast<double>(per_pass));
    outcome.detail("kept_steal_pct_max", kept_steal_max);
    outcome.detail("all_passes_ops_per_s",
                   static_cast<double>(per_pass) / median(loop.pass_busy_s));
    outcome.detail("all_passes_latency_p50_ms", median(loop.latency_ms));
    outcome.detail("all_passes_latency_tail_ms", tail_of(loop.latency_ms).value);
    outcome.detail("window_busy_s", loop.busy_s);
    outcome.detail("window_wall_s", loop.after.wall_s - loop.before.wall_s);
    outcome.detail("host_steal_pct", steal_pct(loop.before, loop.after));
}

void pool_metrics(const LoopStats& loop, Outcome& outcome) {
    const double wall = loop.after.wall_s - loop.before.wall_s;
    const double ops = static_cast<double>(loop.ops);
    outcome.metrics["util.thread_pool.cpu_per_wall"] =
        (loop.after.cpu_s - loop.before.cpu_s) / wall;
    outcome.metrics["util.thread_pool.vcsw_per_op"] =
        static_cast<double>(loop.after.vcsw - loop.before.vcsw) / ops;
    outcome.metrics["util.thread_pool.ivcsw_per_op"] =
        static_cast<double>(loop.after.ivcsw - loop.before.ivcsw) / ops;
}

void engine_metrics(const mtg::engine::Engine::Stats& before,
                    const mtg::engine::Engine::Stats& after, std::size_t ops,
                    Outcome& outcome) {
    const double hits =
        static_cast<double>(after.cache.hits - before.cache.hits);
    const double misses =
        static_cast<double>(after.cache.misses - before.cache.misses);
    outcome.metrics["engine.queries_per_op"] =
        static_cast<double>(after.queries - before.queries) /
        static_cast<double>(ops);
    outcome.metrics["engine.cache_hit_ratio"] =
        hits + misses > 0 ? hits / (hits + misses) : 0.0;
    outcome.metrics["engine.cache_misses"] = misses;
    outcome.metrics["engine.cache_evictions"] = static_cast<double>(
        after.cache.evictions - before.cache.evictions);
}

void trace_overhead(const LoopStats& untraced, const LoopStats& traced,
                    Outcome& outcome) {
    const double base = median(untraced.latency_ms);
    const double with = median(traced.latency_ms);
    outcome.metrics["bench.trace_overhead_pct"] =
        base > 0 ? 100.0 * (with - base) / base : 0.0;
    outcome.detail("untraced_latency_p50_ms", base);
    outcome.detail("traced_latency_p50_ms", with);
}

// ---- Decomposition ---------------------------------------------------------

void Decomposition::next_op(std::uint64_t op) {
    if (root_ >= 0) recorder_.end(root_);
    op_ = op;
    root_ = recorder_.begin("bench.decompose", op);
}

Decomposition::~Decomposition() {
    if (root_ >= 0) recorder_.end(root_);
}

void Decomposition::parse(const std::string& kinds,
                          const std::string& test_text) {
    kinds_us_.push_back(1e6 * time("fault.parse_kinds", [&] {
        return mtg::fault::parse_fault_kinds(kinds);
    }));
    parse_us_.push_back(1e6 * time("march.parse", [&] {
        return mtg::march::parse_march(test_text);
    }));
}

double Decomposition::run(const mtg::engine::Engine& engine,
                          const mtg::engine::Query& query) {
    const double seconds = time("engine.run", [&] { return engine.run(query); });
    run_us_[query.want].push_back(1e6 * seconds);
    return seconds;
}

double Decomposition::run_and_backend(const mtg::engine::Engine& engine,
                                      const mtg::engine::Query& query) {
    using mtg::engine::Want;
    const double run_s = run(engine, query);
    const bool traces = query.want == Want::Traces;
    const bool all = query.want == Want::DetectsAll;
    const auto& backend = engine.backend();
    double backend_s = 0.0;
    std::size_t faults = 0;
    const bool word = !std::holds_alternative<mtg::engine::BitUniverse>(query.universe);
    const char* name = word ? (traces ? "word.traces" : all ? "word.detects_all" : "word.detects")
                            : (traces ? "sim.traces" : all ? "sim.detects_all" : "sim.detects");
    if (!word) {
        const auto& bit = std::get<mtg::engine::BitUniverse>(query.universe);
        const auto entry =
            engine.bit_population(query.kinds, bit.opts.memory_size, query.prune);
        const mtg::engine::BitContext ctx{query.test, bit.opts};
        const auto& population = entry->faults;
        backend_s = traces ? time(name, [&] { return backend.traces(ctx, population); })
                  : all    ? time(name, [&] { return backend.detects_all(ctx, population); })
                           : time(name, [&] { return backend.detects(ctx, population); });
        faults = population.size();
    } else {
        const auto& universe = std::get<mtg::engine::WordUniverse>(query.universe);
        const auto entry =
            engine.word_population(query.kinds, universe.opts, query.prune);
        const mtg::engine::WordContext ctx{query.test, universe.backgrounds,
                                           universe.opts};
        const auto& population = entry->faults;
        backend_s = traces ? time(name, [&] { return backend.traces(ctx, population); })
                  : all    ? time(name, [&] { return backend.detects_all(ctx, population); })
                           : time(name, [&] { return backend.detects(ctx, population); });
        faults = population.size();
    }
    overhead_us_.push_back(1e6 * (run_s - backend_s));
    if (!all) {
        backend_ns_[word][traces] += 1e9 * backend_s;
        backend_faults_[word][traces] += static_cast<double>(faults);
    }
    return run_s;
}

void Decomposition::report(Outcome& outcome) const {
    using mtg::engine::Want;
    auto put = [&](const char* name, const std::vector<double>& samples) {
        if (!samples.empty()) outcome.metrics[name] = median(samples);
    };
    put("march.parse_us", parse_us_);
    put("fault.parse_kinds_us", kinds_us_);
    put("engine.overhead_us", overhead_us_);
    const std::pair<Want, const char*> wants[] = {
        {Want::Detects, "engine.run_us.detects"},
        {Want::DetectsAll, "engine.run_us.detects_all"},
        {Want::Traces, "engine.run_us.traces"},
        {Want::DictionarySweep, "engine.run_us.sweep"}};
    for (const auto& [want, name] : wants) {
        const auto it = run_us_.find(want);
        if (it != run_us_.end()) put(name, it->second);
    }
    const char* per_fault[2][2] = {
        {"sim.detects_ns_per_fault", "sim.traces_ns_per_fault"},
        {"word.detects_ns_per_fault", "word.traces_ns_per_fault"}};
    for (int word = 0; word < 2; ++word)
        for (int traces = 0; traces < 2; ++traces)
            if (backend_faults_[word][traces] > 0)
                outcome.metrics[per_fault[word][traces]] =
                    backend_ns_[word][traces] / backend_faults_[word][traces];
}

}  // namespace perfbench
