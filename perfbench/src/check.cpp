#include "check.hpp"

#include <algorithm>
#include <charconv>
#include <stdexcept>

#include "net/query_protocol.hpp"

namespace perfbench {

namespace {

constexpr std::string_view kIdPrefix = "{\"id\":";

bool same_bit_trace(const mtg::sim::RunTrace& a, const mtg::sim::RunTrace& b) {
    return a.detected == b.detected && a.failing_reads == b.failing_reads &&
           a.failing_observations == b.failing_observations;
}

std::size_t result_faults(const mtg::engine::Result& result) {
    return std::max({result.detected.size(), result.traces.size(),
                     result.word_traces.size()});
}

}  // namespace

// ---- ReplyOracle -----------------------------------------------------------

void ReplyOracle::expect(std::size_t index, const mtg::engine::Result& result) {
    const std::string rendered = mtg::net::render_result(0, result);
    const std::string head = std::string(kIdPrefix) + "0";
    if (rendered.compare(0, head.size(), head) != 0 ||
        mtg::net::render_result(987654321, result) !=
            std::string(kIdPrefix) + "987654321" + rendered.substr(head.size()))
        throw std::logic_error("render_result does not lead with the id");
    if (suffixes_.size() <= index) {
        suffixes_.resize(index + 1);
        faults_.resize(index + 1);
    }
    suffixes_[index] = rendered.substr(head.size());
    faults_[index] = result_faults(result);
}

bool ReplyOracle::matches(std::size_t index, std::int64_t id,
                          std::string_view reply) const {
    if (index >= suffixes_.size() || !reply.starts_with(kIdPrefix))
        return false;
    reply.remove_prefix(kIdPrefix.size());
    char digits[24];
    const auto [end, ec] = std::to_chars(digits, digits + sizeof digits, id);
    const std::string_view id_text(digits, static_cast<std::size_t>(end - digits));
    if (ec != std::errc() || !reply.starts_with(id_text)) return false;
    reply.remove_prefix(id_text.size());
    return reply == suffixes_[index];
}

std::size_t ReplyOracle::reply_bytes(std::size_t index) const {
    return suffixes_.at(index).size() + kIdPrefix.size() + 1;
}

std::size_t ReplyOracle::faults(std::size_t index) const {
    return faults_.at(index);
}

std::int64_t reply_id(std::string_view reply) {
    if (!reply.starts_with(kIdPrefix)) return -1;
    reply.remove_prefix(kIdPrefix.size());
    std::int64_t id = -1;
    const auto [ptr, ec] =
        std::from_chars(reply.data(), reply.data() + reply.size(), id);
    if (ec != std::errc() || ptr == reply.data() + reply.size() ||
        (*ptr != ',' && *ptr != '}'))
        return -1;
    return id;
}

// ---- results ---------------------------------------------------------------

bool same_result(const mtg::engine::Result& a, const mtg::engine::Result& b) {
    if (a.want != b.want || a.all != b.all || a.detected != b.detected ||
        a.word_traces != b.word_traces || a.traces.size() != b.traces.size() ||
        a.instances.size() != b.instances.size())
        return false;
    for (std::size_t i = 0; i < a.traces.size(); ++i)
        if (!same_bit_trace(a.traces[i], b.traces[i])) return false;
    for (std::size_t i = 0; i < a.instances.size(); ++i)
        if (a.instances[i].name() != b.instances[i].name()) return false;
    return true;
}

std::string result_text(const mtg::engine::Result& result) {
    return mtg::net::render_result(0, result);
}

std::size_t scalar_mismatches(const mtg::engine::Engine& engine,
                              const mtg::engine::Query& query,
                              const mtg::engine::Result& result,
                              std::size_t sample, mtg::SplitMix64& rng) {
    using mtg::engine::Want;
    static const auto scalar = mtg::engine::make_scalar_backend();
    const bool traces = query.want == Want::Traces;
    std::size_t mismatches = 0;

    auto pick = [&](std::size_t total) {
        std::vector<std::size_t> indices;
        for (std::size_t i = 0; i < std::min(sample, total); ++i)
            indices.push_back(rng.below(total));
        return indices;
    };

    if (const auto* bit = std::get_if<mtg::engine::BitUniverse>(&query.universe)) {
        const auto entry = engine.bit_population(query.kinds,
                                                 bit->opts.memory_size,
                                                 query.prune);
        const auto indices = pick(entry->faults.size());
        std::vector<mtg::sim::InjectedFault> subset;
        for (std::size_t i : indices) subset.push_back(entry->faults[i]);
        const mtg::engine::BitContext ctx{query.test, bit->opts};
        if (traces) {
            const auto expected = scalar->traces(ctx, subset);
            for (std::size_t k = 0; k < indices.size(); ++k)
                if (indices[k] >= result.traces.size() ||
                    !same_bit_trace(expected[k], result.traces[indices[k]]))
                    ++mismatches;
        } else {
            const auto expected = scalar->detects(ctx, subset);
            for (std::size_t k = 0; k < indices.size(); ++k)
                if (indices[k] >= result.detected.size() ||
                    expected[k] != result.detected[indices[k]])
                    ++mismatches;
        }
    } else {
        const auto& word = std::get<mtg::engine::WordUniverse>(query.universe);
        const auto entry =
            engine.word_population(query.kinds, word.opts, query.prune);
        const auto indices = pick(entry->faults.size());
        std::vector<mtg::word::InjectedBitFault> subset;
        for (std::size_t i : indices) subset.push_back(entry->faults[i]);
        const mtg::engine::WordContext ctx{query.test, word.backgrounds,
                                           word.opts};
        if (traces) {
            const auto expected = scalar->traces(ctx, subset);
            for (std::size_t k = 0; k < indices.size(); ++k)
                if (indices[k] >= result.word_traces.size() ||
                    !(expected[k] == result.word_traces[indices[k]]))
                    ++mismatches;
        } else {
            const auto expected = scalar->detects(ctx, subset);
            for (std::size_t k = 0; k < indices.size(); ++k)
                if (indices[k] >= result.detected.size() ||
                    expected[k] != result.detected[indices[k]])
                    ++mismatches;
        }
    }
    return mismatches;
}

}  // namespace perfbench
