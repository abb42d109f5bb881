#include "inputs.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "fault/fault_list.hpp"
#include "fault/kinds.hpp"
#include "march/library.hpp"
#include "util/rng.hpp"
#include "word/background.hpp"

namespace perfbench {

namespace {

using mtg::SplitMix64;

template <typename T>
void shuffle(std::vector<T>& items, SplitMix64& rng) {
    for (std::size_t i = items.size(); i > 1; --i)
        std::swap(items[i - 1], items[rng.below(i)]);
}

/// Seed streams are separated per workload so that adding a draw to one
/// workload never shifts another's inputs.
SplitMix64 stream(std::uint64_t seed, std::uint64_t salt) {
    SplitMix64 mix(seed ^ (salt * 0x9e3779b97f4a7c15ULL));
    return SplitMix64(mix.next());
}

const std::vector<std::string> kSingleCell{"SAF", "TF",   "WDF",
                                           "RDF", "DRDF", "IRF"};
const std::vector<std::string> kCoupling{"CFin", "CFid", "CFst"};

std::string join(const std::vector<std::string>& parts) {
    std::string out;
    for (const std::string& part : parts) {
        if (!out.empty()) out += ',';
        out += part;
    }
    return out;
}

const char* want_name(mtg::engine::Want want) {
    switch (want) {
        case mtg::engine::Want::Detects: return "detects";
        case mtg::engine::Want::DetectsAll: return "detects_all";
        case mtg::engine::Want::Traces: return "traces";
        case mtg::engine::Want::DictionarySweep: return "sweep";
    }
    return "?";
}

}  // namespace

// ---- library_sweep ---------------------------------------------------------

std::vector<LibraryOp> library_sweep_inputs(std::uint64_t seed) {
    SplitMix64 rng = stream(seed, 1);
    // A few seeded family sets, so the distinct populations stay well
    // inside the Engine's population cache budget: the sweep measures the
    // kernels, not cache evictions.
    std::vector<std::vector<std::string>> family_sets;
    for (int i = 0; i < kSweepKindLists; ++i) {
        std::vector<std::string> singles = kSingleCell;
        shuffle(singles, rng);
        std::vector<std::string> kinds(singles.begin(), singles.begin() + 3);
        kinds.insert(kinds.end(), kCoupling.begin(), kCoupling.end());
        family_sets.push_back(std::move(kinds));
    }
    std::vector<LibraryOp> ops;
    for (const auto& named : mtg::march::known_march_tests()) {
        for (bool word : {false, true}) {
            for (mtg::engine::Want want :
                 {mtg::engine::Want::Detects, mtg::engine::Want::Traces}) {
                std::vector<std::string> kinds =
                    family_sets[ops.size() % family_sets.size()];
                // Permuted, sometimes with a repeated family: the Engine
                // must resolve these to one canonical population.
                if (rng.below(4) == 0) kinds.push_back(kinds[rng.below(3)]);
                shuffle(kinds, rng);
                ops.push_back(LibraryOp{named.name, word, want, join(kinds)});
            }
        }
    }
    shuffle(ops, rng);
    return ops;
}

mtg::engine::Query to_query(const LibraryOp& op) {
    mtg::engine::Query query;
    query.test = mtg::march::find_march_test(op.test).test;
    query.want = op.want;
    query.kinds = mtg::fault::parse_fault_kinds(op.kinds);
    if (op.word) {
        mtg::engine::WordUniverse universe;
        universe.backgrounds = mtg::word::counting_backgrounds(kSweepWidth);
        universe.opts.words = kSweepWords;
        universe.opts.width = kSweepWidth;
        query.universe = universe;
    } else {
        mtg::engine::BitUniverse universe;
        universe.opts.memory_size = kSweepBitCells;
        query.universe = universe;
    }
    return query;
}

// ---- query_mix -------------------------------------------------------------

QueryMixInputs query_mix_inputs(std::uint64_t seed, std::size_t requests) {
    SplitMix64 rng = stream(seed, 2);
    std::vector<std::string> tests;
    for (const auto& named : mtg::march::known_march_tests())
        if (!named.test.has_wait()) tests.push_back(named.name);

    // Each template's shape (op, universe, how many single-cell families,
    // which coupling size class) is fixed by its index, so every seed
    // offers the same population sizes; the seed picks the test and the
    // family names within each class.
    auto kinds = [&](int singles_count, int coupling_class) {
        std::vector<std::string> singles = kSingleCell;
        shuffle(singles, rng);
        std::vector<std::string> picked(singles.begin(),
                                        singles.begin() + singles_count);
        if (coupling_class == 1) picked.push_back("CFin");
        if (coupling_class == 2) picked.push_back(rng.coin() ? "CFid" : "CFst");
        shuffle(picked, rng);
        return join(picked);
    };

    QueryMixInputs inputs;
    constexpr int kInteractive = 48;
    constexpr int kBulk = 8;
    for (int i = 0; i < kInteractive; ++i) {
        mtg::net::QueryRequest request;
        request.op = i % 2 == 0 ? mtg::net::QueryOp::Detects
                                : mtg::net::QueryOp::DetectsAll;
        request.test = tests[rng.below(tests.size())];
        request.kinds = kinds(1 + (i / 2) % 2, (i / 4) % 3);
        if (i % 12 >= 9) {
            request.word = true;
            request.words = 8;
            request.width = 8;
        } else {
            request.memory_size = 8 + 4 * (i % 3);
        }
        inputs.templates.push_back(std::move(request));
    }
    inputs.interactive_templates = inputs.templates.size();
    // Bulk requests sit in the latency tail, so their tests are one fixed
    // multiset in a seeded rotation: the tail does not hinge on whether a
    // seed happened to draw the longest library tests for them.
    static const std::vector<std::string> kBulkTests{
        "MATS++", "March X", "March Y", "March C-"};
    const std::size_t rotation = rng.below(kBulkTests.size());
    for (int i = 0; i < kBulk; ++i) {
        mtg::net::QueryRequest request;
        request.test = kBulkTests[(rotation + static_cast<std::size_t>(i) / 2) %
                                  kBulkTests.size()];
        if (i % 2 == 0) {
            request.op = mtg::net::QueryOp::Sweep;
            request.kinds = kinds(2, i % 4 == 0 ? 2 : 0);
            request.memory_size = 8;
        } else {
            request.op = mtg::net::QueryOp::Traces;
            request.kinds = kinds(2, 0);
            if (i % 4 == 1) {
                request.word = true;
                request.words = 4;
                request.width = 8;
            } else {
                request.memory_size = 8;
            }
        }
        inputs.templates.push_back(std::move(request));
    }

    inputs.schedule.reserve(requests);
    constexpr std::size_t kRepeatWindow = 8;
    const auto repeat_threshold =
        static_cast<std::uint64_t>(kRepeatShare * 1000.0);
    const auto bulk_threshold = static_cast<std::uint64_t>(kBulkShare * 1000.0);
    for (std::size_t i = 0; i < requests; ++i) {
        const std::size_t recent = std::min(i, kRepeatWindow);
        if (recent > 0 && rng.below(1000) < repeat_threshold) {
            inputs.schedule.push_back(
                inputs.schedule[i - 1 - rng.below(recent)]);
        } else if (rng.below(1000) < bulk_threshold) {
            inputs.schedule.push_back(static_cast<std::uint32_t>(
                inputs.interactive_templates + rng.below(kBulk)));
        } else {
            inputs.schedule.push_back(static_cast<std::uint32_t>(
                rng.below(inputs.interactive_templates)));
        }
        // Independent clients: exponential gaps (inverse-CDF of a 53-bit
        // uniform draw in (0, 1]).
        const double uniform =
            static_cast<double>((rng.next() >> 11) + 1) * 0x1.0p-53;
        inputs.gaps.push_back(-std::log(uniform));
    }
    return inputs;
}

// ---- synth_search ----------------------------------------------------------

const std::vector<std::string>& synth_kind_cycle() {
    static const std::vector<std::string> cycle{
        "SAF,TF", "SAF,TF,CFin", "SAF,TF,CFin", "RDF,DRDF", "SAF,TF,CFid"};
    return cycle;
}

std::vector<SynthOp> synth_search_inputs(std::uint64_t seed) {
    SplitMix64 rng = stream(seed, 3);
    std::vector<SynthOp> ops;
    for (const std::string& kinds : synth_kind_cycle())
        for (int i = 0; i < kSynthSeedsPerList; ++i)
            ops.push_back(SynthOp{kinds, rng.next() % 1000003});
    shuffle(ops, rng);
    return ops;
}

// ---- table3_generate -------------------------------------------------------

std::vector<GenerateOp> table3_generate_inputs(std::uint64_t seed) {
    SplitMix64 rng = stream(seed, 4);
    std::vector<GenerateOp> ops;
    for (const auto& row : mtg::fault::table3_fault_lists())
        ops.push_back(GenerateOp{row.name, row.kinds, row.paper_complexity});
    // CFst is left out: its 256 class combinations take about as long as
    // every other list together, so a run would hold too few of them for
    // a tail with ten samples beyond it.
    for (const auto& row : mtg::fault::extended_fault_lists())
        if (row.name != "CFst")
            ops.push_back(GenerateOp{row.name, row.kinds, 0});
    shuffle(ops, rng);
    return ops;
}

// ---- shared ----------------------------------------------------------------

const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> names{
        "library_sweep", "query_mix", "synth_search", "table3_generate"};
    return names;
}

std::string inputs_text(const std::string& workload, std::uint64_t seed) {
    std::ostringstream out;
    if (workload == "library_sweep") {
        for (const LibraryOp& op : library_sweep_inputs(seed))
            out << op.test << '|' << (op.word ? "word" : "bit") << '|'
                << want_name(op.want) << '|' << op.kinds << '\n';
    } else if (workload == "query_mix") {
        const QueryMixInputs inputs = query_mix_inputs(seed, 256);
        for (const auto& request : inputs.templates)
            out << mtg::net::render_request(request) << '\n';
        for (std::uint32_t index : inputs.schedule) out << index << ' ';
    } else if (workload == "synth_search") {
        for (const SynthOp& op : synth_search_inputs(seed))
            out << op.kinds << '|' << op.search_seed << '\n';
    } else if (workload == "table3_generate") {
        for (const GenerateOp& op : table3_generate_inputs(seed))
            out << op.name << '\n';
    } else {
        throw std::invalid_argument("unknown workload: " + workload);
    }
    return out.str();
}

}  // namespace perfbench
