/// \file main.cpp
/// The benchmark binary:
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             [--commit <id>] [--trace-out <path>]
///
/// Prints the host/config stamp, detail lines, every metric with its unit,
/// the output digest and, as the last line, one JSON object with the keys
/// correct, attempted, failed and metrics. Exits 0 when the run completed
/// (even with failed ops, which the result reports), 2 on bad arguments
/// and 1 when the workload itself threw.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "inputs.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace {

int usage() {
    std::fprintf(stderr,
                 "usage: perfbench --workload <library_sweep|query_mix|"
                 "synth_search|table3_generate> --seed <n> --seconds <s> "
                 "--trace <0|1> [--commit <id>] [--trace-out <path>]\n");
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    perfbench::RunConfig config;
    bool have_workload = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        char* end = nullptr;
        if (flag == "--workload") {
            config.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            config.seed = std::strtoull(value.c_str(), &end, 10);
            if (*end != '\0') return usage();
        } else if (flag == "--seconds") {
            config.seconds = std::strtod(value.c_str(), &end);
            if (*end != '\0' || !(config.seconds > 0) || config.seconds > 600)
                return usage();
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") return usage();
            config.trace = value == "1";
        } else if (flag == "--commit") {
            config.commit = value;
        } else if (flag == "--trace-out") {
            config.trace_out = value;
        } else {
            return usage();
        }
    }
    if (argc % 2 != 1 || !have_workload) return usage();

    std::printf("stamp %s\n", perfbench::stamp(config).c_str());
    std::fflush(stdout);
    try {
        perfbench::Outcome outcome;
        if (config.workload == "library_sweep")
            outcome = perfbench::run_library_sweep(config);
        else if (config.workload == "query_mix")
            outcome = perfbench::run_query_mix(config);
        else if (config.workload == "synth_search")
            outcome = perfbench::run_synth_search(config);
        else if (config.workload == "table3_generate")
            outcome = perfbench::run_table3_generate(config);
        else
            return usage();
        perfbench::print_result(config, outcome);
    } catch (const std::exception& error) {
        std::fprintf(stderr, "perfbench: %s\n", error.what());
        return 1;
    }
    return 0;
}
