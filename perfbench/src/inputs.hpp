#pragma once

/// \file inputs.hpp
/// Seeded input generation for the four workloads. The seed is the only
/// source of variation: the same seed yields byte-identical inputs, and
/// the program under test only ever sees the generated values. Each
/// workload fixes the *shape* of its mix (how many ops of each cost
/// class) and lets the seed choose the members, so runs on different
/// seeds measure the same distribution.

#include <cstdint>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "net/query_protocol.hpp"

namespace perfbench {

// ---- library_sweep ---------------------------------------------------------

inline constexpr int kSweepBitCells = 64;
inline constexpr int kSweepWords = 32;
inline constexpr int kSweepWidth = 8;

/// One Engine::run of a library March test on a seeded kind list.
struct LibraryOp {
    std::string test;   ///< march::known_march_tests() name
    bool word{false};   ///< word universe (words × width, counting bgs)
    mtg::engine::Want want{mtg::engine::Want::Detects};
    std::string kinds;  ///< CSV in seeded order, possibly with a repeat
};

/// Every library test × {bit, word} × {Detects, Traces}, in seeded order.
/// Each kind list is one of kSweepKindLists seeded sets of three single-cell
/// families plus CFin, CFid and CFst (about 40k faults at 64 cells), so the
/// population size is the same for every seed while the members differ.
inline constexpr int kSweepKindLists = 4;
[[nodiscard]] std::vector<LibraryOp> library_sweep_inputs(std::uint64_t seed);

/// The resolved Engine query of an op.
[[nodiscard]] mtg::engine::Query to_query(const LibraryOp& op);

// ---- query_mix -------------------------------------------------------------

struct QueryMixInputs {
    /// Distinct requests (id 0). Interactive templates first, then bulk.
    std::vector<mtg::net::QueryRequest> templates;
    std::size_t interactive_templates{0};
    /// Template index of every request, in send order.
    std::vector<std::uint32_t> schedule;
    /// Inter-arrival gap before every request, in units of the mean gap
    /// (exponential, mean 1): at rate r request k is due sum(gaps) / r
    /// after the step starts.
    std::vector<double> gaps;
};

/// Share of scheduled requests that repeat one of the last few sent
/// (coalescing and the sweep cache see these).
inline constexpr double kRepeatShare = 0.25;
/// Share of fresh draws that are bulk traces / sweep requests.
inline constexpr double kBulkShare = 0.10;

[[nodiscard]] QueryMixInputs query_mix_inputs(std::uint64_t seed,
                                              std::size_t requests);

// ---- synth_search ----------------------------------------------------------

struct SynthOp {
    std::string kinds;
    std::uint64_t search_seed{0};
};

/// Search kind lists, one cycle. SAF,TF,CFin appears twice so the median
/// search falls inside one list's band instead of on a boundary between
/// two.
[[nodiscard]] const std::vector<std::string>& synth_kind_cycle();

/// synth_kind_cycle() × kSynthSeedsPerList seeded search seeds, shuffled.
inline constexpr int kSynthSeedsPerList = 4;
[[nodiscard]] std::vector<SynthOp> synth_search_inputs(std::uint64_t seed);

// ---- table3_generate -------------------------------------------------------

struct GenerateOp {
    std::string name;
    std::vector<mtg::fault::FaultKind> kinds;
    int paper_complexity{0};  ///< 0 = not a Table 3 row
};

/// Every Table 3 row and every extended fault list but CFst, in seeded
/// order.
[[nodiscard]] std::vector<GenerateOp> table3_generate_inputs(
    std::uint64_t seed);

// ---- shared ----------------------------------------------------------------

/// Canonical text of a workload's generated inputs (for the determinism
/// tests and the digest line). Throws std::invalid_argument on an unknown
/// workload.
[[nodiscard]] std::string inputs_text(const std::string& workload,
                                      std::uint64_t seed);

/// Workload names in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

}  // namespace perfbench
