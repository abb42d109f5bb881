#pragma once

/// \file check.hpp
/// Output checks. Every workload compares what the program produced
/// against a reference the benchmark computes itself; a mismatch counts
/// as a failed op.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "engine/engine.hpp"
#include "util/rng.hpp"

namespace perfbench {

/// Expected query-server replies. The reference for a request template is
/// `net::render_result` of a local Engine run of the same request; a reply
/// must equal it byte for byte once the request's own id is put in.
class ReplyOracle {
public:
    /// Registers template `index`'s reference result. Throws
    /// std::logic_error if render_result does not start with the id field
    /// (the byte-equality shortcut below would then be unsound).
    void expect(std::size_t index, const mtg::engine::Result& result);

    /// True when `reply` is exactly render_result(id, reference[index]).
    [[nodiscard]] bool matches(std::size_t index, std::int64_t id,
                               std::string_view reply) const;

    /// Byte size of the reference reply of template `index` (id 0).
    [[nodiscard]] std::size_t reply_bytes(std::size_t index) const;

    /// Fault count the reference result answers for.
    [[nodiscard]] std::size_t faults(std::size_t index) const;

private:
    /// render_result(0, result) with the leading `{"id":0` cut off.
    std::vector<std::string> suffixes_;
    std::vector<std::size_t> faults_;
};

/// The `id` of a reply line, or -1 when the line does not start with one.
[[nodiscard]] std::int64_t reply_id(std::string_view reply);

/// Field-by-field equality of two Engine results (verdicts, traces and
/// instances).
[[nodiscard]] bool same_result(const mtg::engine::Result& a,
                               const mtg::engine::Result& b);

/// Digest text of a result: its rendered reply (deterministic).
[[nodiscard]] std::string result_text(const mtg::engine::Result& result);

/// Re-evaluates a seeded sample of `sample` faults of a kind-expanded
/// query's population on the Scalar backend (the ground-truth oracle) and
/// compares each against the packed `result`. `engine` supplies the cached
/// population. Returns the number of mismatching faults.
[[nodiscard]] std::size_t scalar_mismatches(
    const mtg::engine::Engine& engine, const mtg::engine::Query& query,
    const mtg::engine::Result& result, std::size_t sample,
    mtg::SplitMix64& rng);

}  // namespace perfbench
