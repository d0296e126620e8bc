/**
 * @file
 * End-to-end test of the --stats-json pipeline the benches use: run a
 * real (small) accelerator workload through bench_common, write the
 * stats document to disk exactly as `fig9_speedup --stats-json` does,
 * parse it back, and sanity-check the per-component counters the
 * acceptance criteria name (cache hits/misses/writebacks/prefetches,
 * QPI bytes and busy cycles, per-queue and per-stage statistics).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench_common.hh"

namespace apir {
namespace bench {
namespace {

/** A stats document written and re-read through a temp file. */
JsonValue
writeAndParse(const Options &opt, const JsonValue &runs)
{
    maybeWriteStatsJson(opt, "test_bench", runs);
    std::ifstream is(opt.statsJson);
    EXPECT_TRUE(is.good());
    std::ostringstream text;
    text << is.rdbuf();
    return JsonValue::parse(text.str());
}

TEST(StatsJson, BenchRunDocumentRoundTrips)
{
    Options opt;
    opt.scale = 0.02; // a few hundred vertices; runs in milliseconds
    opt.statsJson =
        ::testing::TempDir() + "apir_stats_test.json";
    Workloads w = makeWorkloads(opt.scale);

    AccelRun run = runAccelerator(appNamed("SPEC-BFS", "test"), w,
                                  defaultAccelConfig(), true);
    JsonValue j = runToJson(run);
    j.set("benchmark", JsonValue::str("SPEC-BFS"));
    JsonValue runs = JsonValue::array();
    runs.push(std::move(j));

    JsonValue doc = writeAndParse(opt, runs);
    std::remove(opt.statsJson.c_str());

    EXPECT_EQ(doc.at("bench").asString(), "test_bench");
    EXPECT_DOUBLE_EQ(doc.at("scale").asNumber(), 0.02);
    ASSERT_EQ(doc.at("runs").size(), 1u);

    const JsonValue &r = doc.at("runs").at(0);
    EXPECT_EQ(r.at("benchmark").asString(), "SPEC-BFS");
    EXPECT_GT(r.at("cycles").asNumber(), 0.0);
    EXPECT_GT(r.at("seconds").asNumber(), 0.0);
    EXPECT_GT(r.at("tasks_executed").asNumber(), 0.0);
    EXPECT_EQ(r.at("cycles").asNumber(),
              static_cast<double>(run.rr.cycles));

    const JsonValue &stats = r.at("stats");

    // Memory system: the acceptance-criteria counters.
    const JsonValue &memg = stats.at("mem");
    EXPECT_GT(memg.at("cache_misses").asNumber(), 0.0);
    EXPECT_GT(memg.at("cache_hits").asNumber(), 0.0);
    EXPECT_TRUE(memg.has("writebacks"));
    EXPECT_TRUE(memg.has("prefetches"));
    EXPECT_TRUE(memg.has("mshr_rejects"));
    EXPECT_GT(memg.at("qpi_bytes").asNumber(), 0.0);
    EXPECT_GT(memg.at("qpi_busy_cycles").asNumber(), 0.0);
    EXPECT_GT(memg.at("reads").asNumber(), 0.0);

    // Every line transferred is accounted at line granularity.
    EXPECT_EQ(static_cast<uint64_t>(
                  memg.at("qpi_bytes").asNumber()) % 64,
              0u);

    // Queues: per-queue groups with matching push/pop totals.
    double pops = 0.0;
    bool saw_queue = false;
    for (const auto &[name, comp] : stats.members()) {
        if (name.rfind("queue.", 0) != 0)
            continue;
        saw_queue = true;
        EXPECT_GT(comp.at("pushes").asNumber(), 0.0) << name;
        pops += comp.at("pops").asNumber();
    }
    EXPECT_TRUE(saw_queue);
    EXPECT_EQ(pops, static_cast<double>(run.rr.tasksExecuted));

    // Rule engines and the per-stage-kind aggregates.
    bool saw_rule = false;
    for (const auto &[name, comp] : stats.members())
        saw_rule |= name.rfind("rule.", 0) == 0 && comp.has("events");
    EXPECT_TRUE(saw_rule);
    const JsonValue &stages = stats.at("stages");
    EXPECT_GT(stages.at("Load.tokens").asNumber(), 0.0);
    EXPECT_GT(stages.at("Source.tokens").asNumber(), 0.0);
}

TEST(StatsJson, FlagParsing)
{
    const char *argv[] = {"bench", "--scale", "0.5", "--stats-json",
                          "/tmp/x.json"};
    Options opt = parseOptions(5, const_cast<char **>(argv));
    EXPECT_DOUBLE_EQ(opt.scale, 0.5);
    EXPECT_EQ(opt.statsJson, "/tmp/x.json");
    Options none = parseOptions(1, const_cast<char **>(argv));
    EXPECT_TRUE(none.statsJson.empty());
}

} // namespace
} // namespace bench
} // namespace apir
