/// \file perfbench_test.cpp
/// The benchmark's own tests: the tail percentile rule, self-time
/// arithmetic, pass selection, seeded input determinism and the reply
/// check.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check.hpp"
#include "engine/engine.hpp"
#include "inputs.hpp"
#include "net/query_protocol.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
    std::vector<double> values;
    for (int i = n; i >= 1; --i) values.push_back(i);  // unsorted on purpose
    return values;
}

// ---- percentile rule -------------------------------------------------------

TEST(TailRule, LeavesExactlyTenSamplesBeyond) {
    const Tail tail = tail_of(one_to(100));
    EXPECT_TRUE(tail.defined);
    EXPECT_EQ(tail.value, 90.0);
    EXPECT_EQ(tail.beyond, 10u);
    EXPECT_EQ(tail.samples, 100u);
    EXPECT_DOUBLE_EQ(tail.percentile, 90.0);

    const Tail thousand = tail_of(one_to(1000));
    EXPECT_EQ(thousand.value, 990.0);
    EXPECT_DOUBLE_EQ(thousand.percentile, 99.0);
}

TEST(TailRule, SmallestDefinedSampleCountIsEleven) {
    const Tail eleven = tail_of(one_to(11));
    EXPECT_TRUE(eleven.defined);
    EXPECT_EQ(eleven.value, 1.0);
    EXPECT_DOUBLE_EQ(eleven.percentile, 100.0 / 11.0);

    const Tail ten = tail_of(one_to(10));
    EXPECT_FALSE(ten.defined);
    EXPECT_EQ(ten.value, 10.0);  // the maximum, flagged undefined
    EXPECT_EQ(ten.beyond, 0u);

    EXPECT_FALSE(tail_of({}).defined);
}

TEST(TailRule, RanksNotValuesDecideBeyond) {
    std::vector<double> ties(30, 5.0);
    ties.push_back(1.0);
    const Tail tail = tail_of(ties);
    EXPECT_EQ(tail.value, 5.0);
    EXPECT_EQ(tail.beyond, 10u);
}

TEST(Median, OddAndEven) {
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
    EXPECT_EQ(median({}), 0.0);
}

TEST(PassSelection, KeepsTheLeastStolenHalfInPassOrder) {
    EXPECT_EQ(least_stolen_passes({5.0, 1.0, 3.0, 1.0, 9.0}),
              (std::vector<std::size_t>{1, 2, 3}));
    EXPECT_EQ(least_stolen_passes({0.0, 0.0, 0.0, 0.0}),
              (std::vector<std::size_t>{0, 1}));  // ties: earlier first
    EXPECT_EQ(least_stolen_passes({7.0}), (std::vector<std::size_t>{0}));
    EXPECT_TRUE(least_stolen_passes({}).empty());
}

// ---- self time -------------------------------------------------------------

TEST(SelfTime, NestedChildrenAreSubtracted) {
    // root [0,100] > child [10,40] > grandchild [20,30]. The grandchild
    // is the child's business, not the root's.
    const std::vector<Span> spans{
        {"bench.op", 0, 100, -1, 1},
        {"engine.run", 10, 40, 0, 1},
        {"sim.detects", 20, 30, 1, 1},
    };
    EXPECT_EQ(self_time_ns(spans, 0), 70);
    EXPECT_EQ(self_time_ns(spans, 1), 20);
    EXPECT_EQ(self_time_ns(spans, 2), 10);
}

TEST(SelfTime, OverlappingChildrenCountOnceAndAreClipped) {
    // Children [10,30] and [20,50] overlap (union 40); [90,120] reaches
    // past the parent's end and only [90,100] is inside it.
    const std::vector<Span> spans{
        {"net.request", 0, 100, -1, 7},
        {"net.send", 10, 30, 0, 7},
        {"engine.run", 20, 50, 0, 7},
        {"net.reply", 90, 120, 0, 7},
    };
    EXPECT_EQ(self_time_ns(spans, 0), 100 - 40 - 10);

    const auto totals = totals_by_name(spans);
    EXPECT_EQ(totals.at("net.request").self_ns, 50);
    EXPECT_EQ(totals.at("net.request").total_ns, 100);
    EXPECT_EQ(totals.at("net.send").self_ns, 20);

    const auto modules = self_ns_by_module(spans);
    EXPECT_EQ(modules.at("net"), 50 + 20 + 30);
    EXPECT_EQ(modules.at("engine"), 30);
}

TEST(SelfTime, ChildContainedInAnotherChildIsNotDoubleCounted) {
    const std::vector<Span> spans{
        {"bench.op", 0, 100, -1, 1},
        {"engine.run", 0, 80, 0, 1},
        {"engine.population", 10, 20, 0, 1},
    };
    EXPECT_EQ(self_time_ns(spans, 0), 20);
}

TEST(SpanRecorder, RecordsParentsAndWritesOut) {
    SpanRecorder recorder;
    {
        ScopedSpan root(&recorder, "bench.op", 3);
        ScopedSpan child(&recorder, "engine.run", 3, root.id());
    }
    ScopedSpan off(nullptr, "bench.op", 4);  // tracing off: no span
    const auto spans = recorder.spans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[1].parent, 0);
    EXPECT_EQ(spans[1].op, 3u);
    EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
    EXPECT_LE(spans[1].end_ns, spans[0].end_ns);
    EXPECT_GE(self_time_ns(spans, 0), 0);
}

// ---- seeded inputs ---------------------------------------------------------

TEST(Inputs, SameSeedSameInputsOtherSeedOtherInputs) {
    for (const std::string& workload : workload_names()) {
        const std::string first = inputs_text(workload, 42);
        EXPECT_FALSE(first.empty()) << workload;
        EXPECT_EQ(first, inputs_text(workload, 42)) << workload;
        EXPECT_NE(first, inputs_text(workload, 43)) << workload;
    }
    EXPECT_THROW((void)inputs_text("no_such_workload", 1), std::invalid_argument);
}

TEST(Inputs, MixShapeIsTheSameForEverySeed) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        const auto ops = library_sweep_inputs(seed);
        std::size_t traces = 0, word = 0;
        for (const LibraryOp& op : ops) {
            traces += op.want == mtg::engine::Want::Traces;
            word += op.word;
        }
        EXPECT_EQ(traces * 2, ops.size());
        EXPECT_EQ(word * 2, ops.size());
        EXPECT_EQ(synth_search_inputs(seed).size(),
                  synth_kind_cycle().size() * kSynthSeedsPerList);
        const auto mix = query_mix_inputs(seed, 500);
        EXPECT_EQ(mix.schedule.size(), 500u);
        for (std::uint32_t index : mix.schedule)
            EXPECT_LT(index, mix.templates.size());
    }
}

// ---- reply check -----------------------------------------------------------

TEST(ReplyOracle, AcceptsTheReferenceAndRejectsCorruption) {
    mtg::net::QueryRequest request;
    request.op = mtg::net::QueryOp::Detects;
    request.test = "MATS+";
    request.kinds = "SAF,TF";
    mtg::engine::Engine engine;
    const auto result = engine.run(mtg::net::to_engine_query(request));
    ReplyOracle oracle;
    oracle.expect(0, result);

    const std::string good = mtg::net::render_result(77, result);
    EXPECT_TRUE(oracle.matches(0, 77, good));
    EXPECT_EQ(reply_id(good), 77);

    // One flipped verdict bit, injected here, not in the program.
    std::string corrupted = good;
    const std::size_t mask = corrupted.find("\"detected\":\"") + 12;
    corrupted[mask] = corrupted[mask] == '0' ? '1' : '0';
    EXPECT_FALSE(oracle.matches(0, 77, corrupted));

    EXPECT_FALSE(oracle.matches(0, 78, good));             // wrong id
    EXPECT_FALSE(oracle.matches(0, 7, good));              // id prefix only
    EXPECT_FALSE(oracle.matches(0, 77, good + " "));       // trailing byte
    EXPECT_FALSE(oracle.matches(1, 77, good));             // unknown template
    EXPECT_FALSE(oracle.matches(
        0, 77, mtg::net::render_error(77, "server stopped")));
}

TEST(ReplyOracle, ReplyIdParsing) {
    EXPECT_EQ(reply_id("{\"id\":12,\"ok\":true}"), 12);
    EXPECT_EQ(reply_id("{\"id\":-3}"), -3);
    EXPECT_EQ(reply_id("{\"id\":12x}"), -1);
    EXPECT_EQ(reply_id("{\"ok\":true}"), -1);
    EXPECT_EQ(reply_id(""), -1);
}

TEST(SameResult, DetectsAVerdictFlip) {
    mtg::engine::Engine engine;
    mtg::engine::Query query = to_query(library_sweep_inputs(1).front());
    query.universe = mtg::engine::BitUniverse{{.memory_size = 8}};
    const auto result = engine.run(query);
    auto flipped = result;
    ASSERT_FALSE(flipped.detected.empty());
    flipped.detected[0] = !flipped.detected[0];
    EXPECT_TRUE(same_result(result, engine.run(query)));
    EXPECT_FALSE(same_result(result, flipped));
}

}  // namespace
}  // namespace perfbench
