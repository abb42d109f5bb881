/// \file query_mix.cpp
/// query_mix: an open loop into an in-process net::QueryServer over real
/// loopback TCP (listen() + connect, so the accept path runs). Requests
/// are sent on schedule at fixed rates over kConnections connections and
/// timed from when each was due; JSON, line framing, admission,
/// coalescing, the sweep cache and the socket dominate, kernel work is
/// small. The load uses two threads: this one sends, one reads.

#include <poll.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>

#include "check.hpp"
#include "inputs.hpp"
#include "net/framing.hpp"
#include "net/query_server.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using mtg::engine::Want;
using mtg::net::QueryOp;

constexpr int kConnections = 4;
/// Latency limit on the tail percentile of a rate step: an interactive
/// client's budget. It sits above the reply stalls the server shows today
/// (tens of ms at the deepest percentiles), so a step fails on a real
/// backlog, not on one stalled segment.
constexpr double kLimitMs = 100.0;
/// A reply later than this after its due time counts as timed out.
constexpr double kReplyTimeoutMs = 2000.0;
/// The base rate (latency_p50_ms, latency_tail_ms, ops_per_s) and the
/// rate ladder sustained_qps is searched on, in requests per second.
constexpr double kBaseRate = 1000.0;
constexpr double kLadder[] = {2000.0, 4000.0, 8000.0, 16000.0};
/// Share of the run spent at the base rate; the rest is split over the
/// ladder.
constexpr double kBaseShare = 0.6;
/// The base step is cut into windows of this many requests. Its tail is
/// taken per window (each by the ten-beyond rule) and reported as the
/// median over the kept windows, so one stalled segment moves one window,
/// not the run.
constexpr std::size_t kTailWindow = 250;

struct State {
    std::unique_ptr<mtg::net::QueryServer> server;
    std::vector<mtg::net::LineChannel> channels;
    std::unique_ptr<mtg::net::QueryClient> control;
    QueryMixInputs inputs;
    std::vector<mtg::engine::Query> queries;
    std::unique_ptr<mtg::engine::Engine> local;  ///< reference engine
    std::vector<mtg::engine::Result> reference;
    ReplyOracle oracle;
    std::size_t warmup_wrong{0};
    double population_build_ms{0.0};
    std::size_t population_faults{0};
};

std::unique_ptr<State> make_state(std::uint64_t seed, std::size_t requests) {
    auto state = std::make_unique<State>();
    state->inputs = query_mix_inputs(seed, requests);
    state->local = std::make_unique<mtg::engine::Engine>();
    const double start = now_s();
    for (const auto& request : state->inputs.templates) {
        state->queries.push_back(mtg::net::to_engine_query(request));
        const auto& query = state->queries.back();
        if (query.want == Want::DictionarySweep) continue;
        if (const auto* bit = std::get_if<mtg::engine::BitUniverse>(&query.universe))
            (void)state->local->bit_population(query.kinds, bit->opts.memory_size);
        else
            (void)state->local->word_population(
                query.kinds, std::get<mtg::engine::WordUniverse>(query.universe).opts);
    }
    state->population_build_ms = 1e3 * (now_s() - start);
    state->population_faults = state->local->stats().cache.retained_faults;
    for (std::size_t t = 0; t < state->queries.size(); ++t) {
        state->reference.push_back(state->local->run(state->queries[t]));
        state->oracle.expect(t, state->reference.back());
    }

    state->server = std::make_unique<mtg::net::QueryServer>();
    const std::uint16_t port = state->server->listen(0);
    for (int c = 0; c < kConnections; ++c)
        state->channels.emplace_back(mtg::net::tcp_connect("127.0.0.1", port, 5000));
    state->control = std::make_unique<mtg::net::QueryClient>("127.0.0.1", port);
    // Warm-up pass: every template once through the server, checked.
    for (std::size_t t = 0; t < state->inputs.templates.size(); ++t) {
        auto request = state->inputs.templates[t];
        request.id = static_cast<std::int64_t>(t) + 1;
        const auto reply = state->control->roundtrip(request, 10000);
        if (!reply || !state->oracle.matches(t, request.id, *reply))
            ++state->warmup_wrong;
    }
    return state;
}

/// Outcome of one fixed-rate step.
struct Step {
    double rate{0.0};
    std::size_t sent{0};
    std::size_t ok{0};
    std::size_t wrong{0};
    std::size_t errors{0};
    std::size_t timeouts{0};
    std::size_t over_limit{0};
    std::size_t sweeps{0};           ///< sweep requests sent
    std::vector<double> latency_ms;  ///< ok replies, from due time
    std::vector<double> lag_ms;      ///< send time - due time
    double completion_rate{0.0};     ///< ok replies / (last reply - start)
    double faults{0.0};
    double reply_bytes{0.0};
    bool backlog{false};
    Tail tail;
    /// Per window of kTailWindow consecutive requests: the tail and the
    /// latencies of its answered requests, and the host steal share while
    /// the window was being sent.
    std::vector<double> window_tails;
    std::vector<std::vector<double>> window_latency;
    std::vector<double> window_steal_pct;
    double window_percentile{0.0};
    double p50{0.0};
    Usage before;
    Usage after;

    [[nodiscard]] std::size_t failed() const { return wrong + errors + timeouts; }
    [[nodiscard]] bool passes() const {
        return failed() == 0 && !backlog && tail.value <= kLimitMs;
    }
};

Step run_step(State& state, double rate, double seconds, std::size_t& cursor,
              std::int64_t& next_id, SpanRecorder* recorder) {
    using Clock = std::chrono::steady_clock;
    Step step;
    step.rate = rate;
    const std::size_t n =
        std::max<std::size_t>(1, static_cast<std::size_t>(std::llround(rate * seconds)));
    const std::int64_t base_id = next_id;
    next_id += static_cast<std::int64_t>(n);

    std::vector<std::string> lines(n);
    std::vector<std::uint32_t> templ(n);
    std::vector<std::int64_t> due(n), sent_start(n), sent_end(n);
    const auto& schedule = state.inputs.schedule;
    double offset_ns = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
        const std::size_t slot = (cursor + k) % schedule.size();
        templ[k] = schedule[slot];
        auto request = state.inputs.templates[templ[k]];
        request.id = base_id + static_cast<std::int64_t>(k);
        lines[k] = mtg::net::render_request(request);
        offset_ns += 1e9 * state.inputs.gaps[slot] / rate;
        due[k] = static_cast<std::int64_t>(offset_ns);
    }
    cursor += n;

    std::vector<std::int64_t> received(n, 0);
    std::vector<std::uint8_t> status(n, 0);  // 1 ok, 2 wrong, 3 error
    std::atomic<std::size_t> answered{0};
    std::atomic<bool> sending_done{false};
    std::atomic<std::int64_t> last_due{0};

    step.before = usage_now();
    const std::int64_t start = SpanRecorder::now_ns() + 2'000'000;
    for (std::int64_t& when : due) when += start;

    std::thread reader([&] {
        std::vector<pollfd> fds;
        for (const auto& channel : state.channels)
            fds.push_back(pollfd{channel.fd(), POLLIN, 0});
        std::string line;
        const auto timeout_ns = static_cast<std::int64_t>(1e6 * kReplyTimeoutMs);
        while (answered.load() < n) {
            if (sending_done.load() &&
                SpanRecorder::now_ns() > last_due.load() + timeout_ns)
                break;
            for (auto& fd : fds) fd.revents = 0;
            if (::poll(fds.data(), fds.size(), 5) <= 0) continue;
            for (std::size_t c = 0; c < fds.size(); ++c) {
                if (fds[c].revents == 0) continue;
                for (;;) {
                    const auto read = state.channels[c].read_line(line, 0);
                    if (read != mtg::net::LineChannel::ReadStatus::Ok) {
                        // A dead connection stops being polled; its
                        // outstanding requests time out.
                        if (read != mtg::net::LineChannel::ReadStatus::Timeout)
                            fds[c].fd = -1;
                        break;
                    }
                    const std::int64_t now = SpanRecorder::now_ns();
                    const std::int64_t id = reply_id(line);
                    if (id < base_id || id >= base_id + static_cast<std::int64_t>(n))
                        continue;  // a straggler from an earlier step
                    const auto k = static_cast<std::size_t>(id - base_id);
                    if (status[k] != 0) continue;
                    received[k] = now;
                    if (state.oracle.matches(templ[k], id, line))
                        status[k] = 1;
                    else if (line.find("\"ok\":false") != std::string::npos)
                        status[k] = 3;
                    else
                        status[k] = 2;
                    answered.fetch_add(1);
                }
            }
        }
    });

    Usage window_start = step.before;
    for (std::size_t k = 0; k < n; ++k) {
        if (k > 0 && k % kTailWindow == 0) {
            const Usage now = usage_now();
            step.window_steal_pct.push_back(steal_pct(window_start, now));
            window_start = now;
        }
        const auto due_point = Clock::time_point(std::chrono::nanoseconds(due[k]));
        std::this_thread::sleep_until(due_point);
        sent_start[k] = SpanRecorder::now_ns();
        last_due.store(due[k]);
        if (!state.channels[k % kConnections].write_line(lines[k])) break;
        sent_end[k] = SpanRecorder::now_ns();
        ++step.sent;
        step.sweeps += state.inputs.templates[templ[k]].op == QueryOp::Sweep;
    }
    sending_done.store(true);
    reader.join();
    step.after = usage_now();
    // Spans are assembled once the reader has joined: the send times are
    // written by this thread and must not be read while it still writes.
    if (recorder) {
        for (std::size_t k = 0; k < step.sent; ++k) {
            if (status[k] == 0) continue;
            const auto op = static_cast<std::uint64_t>(base_id) + k;
            const int parent =
                recorder->add(Span{"net.request", due[k], received[k], -1, op});
            recorder->add(Span{"net.send", sent_start[k], sent_end[k], parent, op});
        }
    }

    std::int64_t last_reply = start;
    std::vector<double> first_quarter, last_quarter;
    step.window_latency.resize(n / kTailWindow);
    for (std::size_t k = 0; k < n; ++k) {
        if (k < step.sent)
            step.lag_ms.push_back(1e-6 * static_cast<double>(sent_start[k] - due[k]));
        switch (status[k]) {
            case 1: {
                const double latency = 1e-6 * static_cast<double>(received[k] - due[k]);
                if (latency > kReplyTimeoutMs) {
                    ++step.timeouts;
                    break;
                }
                ++step.ok;
                step.latency_ms.push_back(latency);
                if (k / kTailWindow < step.window_latency.size())
                    step.window_latency[k / kTailWindow].push_back(latency);
                step.over_limit += latency > kLimitMs;
                step.faults += static_cast<double>(state.oracle.faults(templ[k]));
                step.reply_bytes += static_cast<double>(state.oracle.reply_bytes(templ[k]));
                last_reply = std::max(last_reply, received[k]);
                if (k < n / 4) first_quarter.push_back(latency);
                if (k >= n - n / 4) last_quarter.push_back(latency);
                break;
            }
            case 2: ++step.wrong; break;
            case 3: ++step.errors; break;
            default: ++step.timeouts; break;
        }
    }
    step.tail = tail_of(step.latency_ms);
    step.p50 = median(step.latency_ms);
    step.completion_rate =
        static_cast<double>(step.ok) / (1e-9 * static_cast<double>(last_reply - start));
    // A growing backlog: requests late in the step wait longer than early
    // ones by more than half the latency budget, or some never came back
    // in time. (A flip between the fast and the stalled reply mode moves
    // the median by a few ms and is not a backlog.)
    step.backlog = step.timeouts > 0 ||
                   median(last_quarter) - median(first_quarter) > kLimitMs / 2;
    step.window_steal_pct.resize(step.window_latency.size());
    for (const auto& latencies : step.window_latency) {
        const Tail window = tail_of(latencies);
        step.window_tails.push_back(window.value);
        step.window_percentile = window.percentile;
    }
    return step;
}

void describe(const char* label, const Step& step, Outcome& outcome) {
    char text[320];
    std::snprintf(text, sizeof text,
                  "rate=%.0f sent=%zu ok=%zu wrong=%zu errors=%zu timeouts=%zu "
                  "p50_ms=%.3f tail_ms=%.3f tail_pct=%.2f beyond=%zu "
                  "over_limit=%zu completed_per_s=%.1f lag_p50_ms=%.3f "
                  "lag_max_ms=%.3f backlog=%d pass=%d",
                  step.rate, step.sent, step.ok, step.wrong, step.errors,
                  step.timeouts, step.p50, step.tail.value, step.tail.percentile,
                  step.tail.beyond, step.over_limit, step.completion_rate,
                  median(step.lag_ms), tail_of(step.lag_ms).value,
                  step.backlog ? 1 : 0, step.passes() ? 1 : 0);
    std::string line = text;
    std::vector<double> sorted = step.latency_ms;
    std::sort(sorted.begin(), sorted.end());
    for (double q : {0.9, 0.95, 0.98, 0.99, 0.995, 0.999}) {
        if (sorted.empty()) break;
        const auto rank = static_cast<std::size_t>(q * static_cast<double>(sorted.size() - 1));
        char quantile[48];
        std::snprintf(quantile, sizeof quantile, " p%g_ms=%.3f", 100 * q, sorted[rank]);
        line += quantile;
    }
    outcome.detail(label, line);
}

std::int64_t engine_queries(State& state) {
    mtg::net::QueryRequest request;
    request.op = QueryOp::Stats;
    request.id = -1;
    const auto reply = state.control->roundtrip(request, 10000);
    if (!reply) return 0;
    const auto json = mtg::net::Json::parse(*reply);
    const auto* stats = json.find("stats");
    const auto* field = stats ? stats->find("engine_queries") : nullptr;
    return field ? field->as_int() : 0;
}

/// Layer decomposition of every template: the client and server codec
/// calls, a direct Engine::run against the bare backend call, and a 1-deep
/// round trip of the same request through the idle server.
void decompose(State& state, SpanRecorder& recorder, Outcome& outcome) {
    std::vector<double> render_req, parse_req, to_query, render_res, tax;
    {
        Decomposition decomposition(recorder);
        constexpr int kRounds = 3;
        for (int round = 0; round < kRounds; ++round) {
            for (std::size_t t = 0; t < state.inputs.templates.size(); ++t) {
                const std::uint64_t op = round * state.inputs.templates.size() + t;
                auto request = state.inputs.templates[t];
                request.id = static_cast<std::int64_t>(op) + 1;
                decomposition.next_op(op);
                std::string line;
                render_req.push_back(1e6 * decomposition.time("net.render_request", [&] {
                    line = mtg::net::render_request(request);
                }));
                mtg::net::QueryRequest parsed;
                parse_req.push_back(1e6 * decomposition.time("net.parse_request", [&] {
                    parsed = mtg::net::parse_request(line);
                }));
                mtg::engine::Query query;
                to_query.push_back(1e6 * decomposition.time("net.to_engine_query", [&] {
                    query = mtg::net::to_engine_query(parsed);
                }));
                decomposition.parse(request.kinds,
                                    query.test.str(mtg::march::Notation::Ascii));
                const double run_s = query.want == Want::DictionarySweep
                                         ? decomposition.run(*state.local, query)
                                         : decomposition.run_and_backend(*state.local, query);
                render_res.push_back(1e6 * decomposition.time("net.render_result", [&] {
                    return mtg::net::render_result(request.id, state.reference[t]);
                }));
                const double roundtrip_s = decomposition.time("net.roundtrip", [&] {
                    return state.control->roundtrip(request, 10000);
                });
                tax.push_back(1e6 * (roundtrip_s - run_s));
            }
        }
        decomposition.report(outcome);
    }
    outcome.metrics["net.render_request_us"] = median(render_req);
    outcome.metrics["net.parse_request_us"] = median(parse_req);
    outcome.metrics["net.to_engine_query_us"] = median(to_query);
    outcome.metrics["net.render_result_us"] = median(render_res);
    outcome.metrics["net.server_tax_us"] = median(tax);

    std::vector<double> ping_us;
    mtg::net::QueryRequest ping;
    ping.op = QueryOp::Ping;
    for (int i = 0; i < 200; ++i) {
        ping.id = i + 1;
        double s = 0.0;
        ScopedSpan span(&recorder, "net.roundtrip_idle", static_cast<std::uint64_t>(i));
        (void)timed([&] { return state.control->roundtrip(ping, 10000); }, s);
        ping_us.push_back(1e6 * s);
    }
    outcome.metrics["net.roundtrip_idle_us"] = median(ping_us);
}

void count_failures(const Step& step, Outcome& outcome) {
    outcome.attempted += step.sent;
    outcome.failed += step.failed();
    outcome.wrong += step.wrong;
}

}  // namespace

Outcome run_query_mix(const RunConfig& config) {
    Outcome outcome;
    double setup_s = 0.0;
    double max_rate = kBaseRate;
    for (double rate : kLadder) max_rate = std::max(max_rate, rate);
    const auto requests =
        static_cast<std::size_t>(max_rate * config.seconds) + 1024;
    const auto state =
        timed_setups([&] { return make_state(config.seed, requests); }, setup_s);
    outcome.detail("warmup_wrong", static_cast<double>(state->warmup_wrong));
    if (state->warmup_wrong > 0) {
        outcome.wrong += state->warmup_wrong;
        outcome.failed += state->warmup_wrong;
    }
    for (const auto& result : state->reference)
        outcome.digest.add(result_text(result));
    outcome.detail("loop", "open, " + std::to_string(kConnections) +
                               " connections, 1 sender + 1 reader thread");
    outcome.detail("latency_limit_ms", kLimitMs);

    std::size_t cursor = 0;
    std::int64_t next_id = 1'000'000;
    const double base_seconds = config.seconds * kBaseShare;

    if (config.trace) {
        const Step untraced =
            run_step(*state, kBaseRate, base_seconds, cursor, next_id, nullptr);
        describe("step.base_untraced", untraced, outcome);
        count_failures(untraced, outcome);
        SpanRecorder recorder;
        const auto before = state->server->stats();
        const auto cache_before = state->server->population_cache()->stats();
        const std::int64_t queries_before = engine_queries(*state);
        const Step traced =
            run_step(*state, kBaseRate, base_seconds, cursor, next_id, &recorder);
        const std::int64_t queries_after = engine_queries(*state);
        const auto after = state->server->stats();
        const auto cache_after = state->server->population_cache()->stats();
        describe("step.base_traced", traced, outcome);
        count_failures(traced, outcome);

        const double requests_seen = static_cast<double>(after.requests - before.requests);
        outcome.metrics["net.backend_runs_per_request"] =
            static_cast<double>(after.backend_runs - before.backend_runs) / requests_seen;
        outcome.metrics["net.coalesced_ratio"] =
            static_cast<double>(after.coalesced - before.coalesced) / requests_seen;
        outcome.metrics["net.sweep_cache_hit_ratio"] =
            traced.sweeps == 0
                ? 0.0
                : static_cast<double>(after.sweep_cache_hits - before.sweep_cache_hits) /
                      static_cast<double>(traced.sweeps);
        outcome.metrics["net.errors"] = static_cast<double>(after.errors - before.errors);
        outcome.metrics["net.reply_bytes_per_op"] =
            traced.ok ? traced.reply_bytes / static_cast<double>(traced.ok) : 0.0;
        // The stats request itself is one of the requests between the two
        // snapshots but runs no engine query.
        outcome.metrics["engine.queries_per_op"] =
            static_cast<double>(queries_after - queries_before) / requests_seen;
        const double hits = static_cast<double>(cache_after.hits - cache_before.hits);
        const double misses = static_cast<double>(cache_after.misses - cache_before.misses);
        outcome.metrics["engine.cache_hit_ratio"] =
            hits + misses > 0 ? hits / (hits + misses) : 0.0;
        outcome.metrics["engine.cache_misses"] = misses;
        outcome.metrics["engine.cache_evictions"] =
            static_cast<double>(cache_after.evictions - cache_before.evictions);
        const double wall = traced.after.wall_s - traced.before.wall_s;
        const double ops = static_cast<double>(std::max<std::size_t>(traced.sent, 1));
        outcome.metrics["util.thread_pool.cpu_per_wall"] =
            (traced.after.cpu_s - traced.before.cpu_s) / wall;
        outcome.metrics["util.thread_pool.vcsw_per_op"] =
            static_cast<double>(traced.after.vcsw - traced.before.vcsw) / ops;
        outcome.metrics["util.thread_pool.ivcsw_per_op"] =
            static_cast<double>(traced.after.ivcsw - traced.before.ivcsw) / ops;
        outcome.metrics["bench.generator_lag_ms"] = tail_of(traced.lag_ms).value;
        outcome.metrics["bench.trace_overhead_pct"] =
            untraced.p50 > 0 ? 100.0 * (traced.p50 - untraced.p50) / untraced.p50 : 0.0;
        outcome.metrics["fault.population_build_ms"] = state->population_build_ms;
        outcome.metrics["fault.population_faults"] =
            static_cast<double>(state->population_faults);
        decompose(*state, recorder, outcome);
        add_self_times(recorder.spans(), outcome);
        if (!config.trace_out.empty()) recorder.write(config.trace_out);
        return outcome;
    }

    const Step base = run_step(*state, kBaseRate, base_seconds, cursor, next_id, nullptr);
    describe("step.base", base, outcome);
    outcome.detail("host_steal_pct", steal_pct(base.before, base.after));
    count_failures(base, outcome);
    // At the base rate a reply over the latency limit is a failed op.
    outcome.failed += base.over_limit;

    double sustained = base.passes() ? base.completion_rate : 0.0;
    const double rung_seconds =
        config.seconds * (1.0 - kBaseShare) / static_cast<double>(std::size(kLadder));
    for (double rate : kLadder) {
        const Step rung = run_step(*state, rate, rung_seconds, cursor, next_id, nullptr);
        describe(("step." + std::to_string(static_cast<int>(rate))).c_str(), rung, outcome);
        count_failures(rung, outcome);
        if (!rung.passes()) break;
        sustained = rung.completion_rate;
    }

    outcome.metrics["setup_s"] = setup_s;
    const double window_s = base.ok ? static_cast<double>(base.ok) / base.completion_rate : 1.0;
    outcome.metrics["faults_per_s"] = base.faults / window_s;
    outcome.metrics["ops_per_s"] = base.completion_rate;
    outcome.metrics["sustained_qps"] = sustained;
    // As for the closed loops, latencies come from the half of the windows
    // during which the host stole the least CPU time (steal counter only).
    std::vector<double> kept_latency, kept_tails;
    const auto kept = least_stolen_passes(base.window_steal_pct);
    for (std::size_t w : kept) {
        kept_latency.insert(kept_latency.end(), base.window_latency[w].begin(),
                            base.window_latency[w].end());
        kept_tails.push_back(base.window_tails[w]);
    }
    const bool windowed = !kept.empty();
    outcome.metrics["latency_p50_ms"] = windowed ? median(kept_latency) : base.p50;
    outcome.metrics["latency_tail_ms"] =
        windowed ? median(kept_tails) : base.tail.value;
    outcome.metrics["peak_rss_mb"] = usage_now().max_rss_mb;
    outcome.detail("latency_tail_rule",
                   windowed ? "median over the kept windows of " +
                                  std::to_string(kTailWindow) +
                                  " requests of each window's tail"
                            : std::string("whole step"));
    outcome.detail("latency_windows", static_cast<double>(base.window_tails.size()));
    outcome.detail("latency_windows_kept", static_cast<double>(kept.size()));
    outcome.detail("latency_tail_percentile",
                   windowed ? base.window_percentile : base.tail.percentile);
    outcome.detail("latency_tail_samples_beyond", static_cast<double>(kTailBeyond));
    outcome.detail("all_windows_latency_p50_ms", base.p50);
    outcome.detail("all_windows_latency_tail_ms",
                   windowed ? median(base.window_tails) : base.tail.value);
    outcome.detail("latency_samples", static_cast<double>(base.tail.samples));
    return outcome;
}

}  // namespace perfbench
