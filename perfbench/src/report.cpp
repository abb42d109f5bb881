#include "report.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "sim/lane_dispatch.hpp"
#include "util/thread_pool.hpp"

extern char** environ;

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

const std::vector<MetricSpec>& end_to_end_specs() {
    static const std::vector<MetricSpec> specs{
        {"setup_s", "s"},
        {"faults_per_s", "faults/s"},
        {"ops_per_s", "ops/s"},
        {"sustained_qps", "req/s"},
        {"latency_p50_ms", "ms"},
        {"latency_tail_ms", "ms"},
        {"peak_rss_mb", "MiB"},
    };
    return specs;
}

const std::vector<MetricSpec>& per_layer_specs() {
    static const std::vector<MetricSpec> specs{
        {"sim.detects_ns_per_fault", "ns"},
        {"sim.traces_ns_per_fault", "ns"},
        {"word.detects_ns_per_fault", "ns"},
        {"word.traces_ns_per_fault", "ns"},
        {"engine.run_us.detects", "us"},
        {"engine.run_us.detects_all", "us"},
        {"engine.run_us.traces", "us"},
        {"engine.run_us.sweep", "us"},
        {"engine.overhead_us", "us"},
        {"engine.queries_per_op", "count"},
        {"engine.cache_hit_ratio", "ratio"},
        {"engine.cache_misses", "count"},
        {"engine.cache_evictions", "count"},
        {"fault.population_build_ms", "ms"},
        {"fault.population_faults", "count"},
        {"util.thread_pool.cpu_per_wall", "ratio"},
        {"util.thread_pool.vcsw_per_op", "count"},
        {"util.thread_pool.ivcsw_per_op", "count"},
        {"march.parse_us", "us"},
        {"fault.parse_kinds_us", "us"},
        {"net.render_request_us", "us"},
        {"net.parse_request_us", "us"},
        {"net.to_engine_query_us", "us"},
        {"net.render_result_us", "us"},
        {"net.reply_bytes_per_op", "bytes"},
        {"net.roundtrip_idle_us", "us"},
        {"net.server_tax_us", "us"},
        {"net.backend_runs_per_request", "ratio"},
        {"net.coalesced_ratio", "ratio"},
        {"net.sweep_cache_hit_ratio", "ratio"},
        {"net.errors", "count"},
        {"synth.search_ms", "ms"},
        {"synth.probes_per_search", "count"},
        {"synth.probe_cache_hit_ratio", "ratio"},
        {"synth.full_checks_per_search", "count"},
        {"synth.us_per_probe", "us"},
        {"core.generate_ms", "ms"},
        {"core.combinations_tried", "count"},
        {"atsp.nodes_explored", "count"},
        {"atsp.ap_solves", "count"},
        {"setcover.analyse_redundancy_ms", "ms"},
        {"bench.generator_lag_ms", "ms"},
        {"bench.trace_overhead_pct", "%"},
        {"bench.self_us_per_op", "us"},
        {"engine.self_us_per_op", "us"},
        {"sim.self_us_per_op", "us"},
        {"word.self_us_per_op", "us"},
        {"fault.self_us_per_op", "us"},
        {"march.self_us_per_op", "us"},
        {"net.self_us_per_op", "us"},
        {"synth.self_us_per_op", "us"},
        {"core.self_us_per_op", "us"},
        {"setcover.self_us_per_op", "us"},
    };
    return specs;
}

// ---- Digest ----------------------------------------------------------------

void Digest::add(const std::string& text) {
    for (unsigned char c : text) {
        hash_ ^= c;
        hash_ *= 0x100000001b3ULL;
    }
    add(static_cast<std::uint64_t>(text.size()));
}

void Digest::add(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
        hash_ ^= (value >> (8 * i)) & 0xffu;
        hash_ *= 0x100000001b3ULL;
    }
}

std::string Digest::hex() const {
    char buffer[17];
    std::snprintf(buffer, sizeof buffer, "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buffer;
}

// ---- Outcome ---------------------------------------------------------------

void Outcome::detail(const std::string& key, const std::string& value) {
    details.push_back(key + " " + value);
}

void Outcome::detail(const std::string& key, double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.6g", value);
    detail(key, std::string(buffer));
}

// ---- usage -----------------------------------------------------------------

double now_s() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

Usage usage_now() {
    Usage usage;
    usage.wall_s = now_s();
    rusage ru{};
    if (getrusage(RUSAGE_SELF, &ru) == 0) {
        usage.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                      1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                                 ru.ru_stime.tv_usec);
        usage.vcsw = ru.ru_nvcsw;
        usage.ivcsw = ru.ru_nivcsw;
    }
    // Peak RSS from VmHWM, not ru_maxrss: the latter survives execve, so it
    // would include whatever the launching process had resident when it
    // forked this one.
    if (std::FILE* status = std::fopen("/proc/self/status", "r")) {
        char line[256];
        while (std::fgets(line, sizeof line, status))
            if (std::strncmp(line, "VmHWM:", 6) == 0)
                usage.max_rss_mb = std::strtod(line + 6, nullptr) / 1024.0;
        std::fclose(status);
    }
    // "cpu user nice system idle iowait irq softirq steal ..."
    if (std::FILE* stat = std::fopen("/proc/stat", "r")) {
        double fields[8] = {};
        if (std::fscanf(stat, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &fields[0],
                        &fields[1], &fields[2], &fields[3], &fields[4],
                        &fields[5], &fields[6], &fields[7]) == 8) {
            usage.host_steal = fields[7];
            for (double field : fields) usage.host_total += field;
        }
        std::fclose(stat);
    }
    return usage;
}

double steal_pct(const Usage& before, const Usage& after) {
    const double total = after.host_total - before.host_total;
    return total > 0 ? 100.0 * (after.host_steal - before.host_steal) / total
                     : 0.0;
}

// ---- stamp -----------------------------------------------------------------

namespace {

const char* isa_name(mtg::sim::LaneIsa isa) {
    switch (isa) {
        case mtg::sim::LaneIsa::Auto: return "auto";
        case mtg::sim::LaneIsa::Avx512: return "avx512";
        case mtg::sim::LaneIsa::Avx2: return "avx2";
        case mtg::sim::LaneIsa::Generic: return "generic";
    }
    return "?";
}

std::string quoted(const std::string& text) {
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) < 0x20) continue;
        out += c;
    }
    return out + "\"";
}

}  // namespace

std::string stamp(const RunConfig& config) {
    std::ostringstream out;
    out << "{\"workload\":" << quoted(config.workload)
        << ",\"seed\":" << config.seed << ",\"seconds\":" << config.seconds
        << ",\"trace\":" << (config.trace ? 1 : 0)
        << ",\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
        << ",\"lane_isa_requested\":"
        << quoted(isa_name(mtg::sim::requested_lane_isa()))
        << ",\"lane_isa_wide\":"
        << quoted(isa_name(mtg::sim::active_lane_isa(1u << 20)))
        << ",\"lane_width\":" << mtg::sim::active_lane_width()
        << ",\"avx2\":" << (mtg::sim::cpu_has_avx2() ? "true" : "false")
        << ",\"avx512f\":" << (mtg::sim::cpu_has_avx512f() ? "true" : "false")
        << ",\"pool_workers\":"
        << mtg::util::ThreadPool::global().worker_count() << ",\"mtg_env\":{";
    bool first = true;
    for (char** env = environ; env && *env; ++env) {
        if (std::strncmp(*env, "MTG_", 4) != 0) continue;
        const std::string entry = *env;
        const std::size_t eq = entry.find('=');
        out << (first ? "" : ",") << quoted(entry.substr(0, eq)) << ":"
            << quoted(eq == std::string::npos ? "" : entry.substr(eq + 1));
        first = false;
    }
    out << "},\"compiler\":" << quoted(PERFBENCH_COMPILER)
        << ",\"build_type\":" << quoted(PERFBENCH_BUILD_TYPE)
        << ",\"commit\":" << quoted(config.commit) << "}";
    return out.str();
}

// ---- result ----------------------------------------------------------------

namespace {

std::string number(double value) {
    if (!std::isfinite(value)) return "0";
    char buffer[40];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

}  // namespace

void print_result(const RunConfig& config, const Outcome& outcome) {
    const auto& specs = config.trace ? per_layer_specs() : end_to_end_specs();
    auto value_of = [&](const char* name) {
        const auto it = outcome.metrics.find(name);
        return number(it == outcome.metrics.end() ? 0.0 : it->second);
    };
    for (const std::string& line : outcome.details)
        std::printf("detail %s\n", line.c_str());
    for (const MetricSpec& spec : specs)
        std::printf("metric %-32s %s %s\n", spec.name,
                    value_of(spec.name).c_str(), spec.unit);
    const double failed_ratio =
        outcome.attempted == 0
            ? 1.0
            : static_cast<double>(outcome.failed) /
                  static_cast<double>(outcome.attempted);
    std::printf("metric %-32s %s ratio\n", "failed_ratio",
                number(failed_ratio).c_str());
    std::printf("digest %s\n", outcome.digest.hex().c_str());

    std::ostringstream json;
    json << "{\"correct\": "
         << (outcome.wrong == 0 && outcome.attempted > 0 ? "true" : "false")
         << ", \"attempted\": " << outcome.attempted
         << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
    const char* separator = "";
    for (const MetricSpec& spec : specs) {
        json << separator << '"' << spec.name << "\": {\"value\": "
             << value_of(spec.name) << ", \"unit\": \"" << spec.unit << "\"}";
        separator = ", ";
    }
    json << "}}";
    std::printf("%s\n", json.str().c_str());
    std::fflush(stdout);
}

void add_self_times(const std::vector<Span>& spans, Outcome& outcome) {
    std::size_t roots = 0;
    for (const Span& span : spans) roots += span.parent < 0;
    const double per_op = roots == 0 ? 0.0 : 1.0 / static_cast<double>(roots);
    for (const auto& [module, self_ns] : self_ns_by_module(spans)) {
        const std::string name = module + ".self_us_per_op";
        outcome.metrics[name] = 1e-3 * static_cast<double>(self_ns) * per_op;
    }
    for (const auto& [name, totals] : totals_by_name(spans)) {
        char line[160];
        std::snprintf(line, sizeof line,
                      "count=%zu total_ms=%.3f self_ms=%.3f", totals.count,
                      1e-6 * static_cast<double>(totals.total_ns),
                      1e-6 * static_cast<double>(totals.self_ns));
        outcome.detail("span." + name, std::string(line));
    }
}

}  // namespace perfbench
