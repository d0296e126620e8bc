/**
 * @file
 * Connected-components tests (the generality extension): reference
 * against hand-built graphs, parallel agreement, accelerator
 * correctness across configurations, and AppSpec/executor
 * equivalence.
 */

#include <gtest/gtest.h>

#include "apps/cc.hh"
#include "core/parallel_executor.hh"
#include "core/seq_executor.hh"
#include "core/threaded_runtime.hh"
#include "graph/generators.hh"
#include "hw/accelerator.hh"
#include "support/logging.hh"

namespace apir {
namespace {

CsrGraph
twoTrianglesAndAnIsland()
{
    // Components: {0,1,2}, {3,4,5}, {6}.
    std::vector<EdgeTriple> edges;
    auto add = [&](VertexId a, VertexId b) {
        edges.push_back({a, b, 1});
        edges.push_back({b, a, 1});
    };
    add(0, 1);
    add(1, 2);
    add(2, 0);
    add(3, 4);
    add(4, 5);
    add(5, 3);
    return CsrGraph(7, edges);
}

TEST(CcAlgo, HandGraphComponents)
{
    auto labels = ccSequential(twoTrianglesAndAnIsland());
    EXPECT_EQ(labels[0], 0u);
    EXPECT_EQ(labels[1], 0u);
    EXPECT_EQ(labels[2], 0u);
    EXPECT_EQ(labels[3], 3u);
    EXPECT_EQ(labels[5], 3u);
    EXPECT_EQ(labels[6], 6u);
    EXPECT_EQ(countComponents(labels), 3u);
}

TEST(CcAlgo, ConnectedRoadNetworkHasOneComponent)
{
    CsrGraph g = roadNetwork(10, 12, 0.08, 0.05, 10, 3);
    auto labels = ccSequential(g);
    EXPECT_EQ(countComponents(labels), 1u);
    for (uint32_t l : labels)
        EXPECT_EQ(l, 0u);
}

TEST(CcAlgo, ThreadsMatchSequential)
{
    // Disconnected-ish random digraph made undirected by the CC
    // semantics? No: CC expects undirected input; use road pieces.
    CsrGraph g = twoTrianglesAndAnIsland();
    auto ref = ccSequential(g);
    EXPECT_EQ(ccParallelThreads(g, 4), ref);
}

class CcAccelSweep : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(CcAccelSweep, LabelsMatchSequential)
{
    setQuietLogging(true);
    CsrGraph g = roadNetwork(8, 9, 0.2, 0.05, 10, GetParam());
    auto ref = ccSequential(g);

    MemorySystem mem;
    auto app = buildSpecCc(g, mem);
    AccelConfig cfg;
    cfg.pipelinesPerSet = 1 + GetParam() % 4;
    Accelerator accel(app.spec, cfg, mem);
    RunResult rr = accel.run();
    EXPECT_GT(rr.tasksExecuted, 0u);
    EXPECT_EQ(readLabels(app.img, mem), ref);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CcAccelSweep,
                         ::testing::Values(1u, 2u, 3u, 4u));

TEST(CcAccel, MultiComponentGraph)
{
    setQuietLogging(true);
    CsrGraph g = twoTrianglesAndAnIsland();
    MemorySystem mem;
    auto app = buildSpecCc(g, mem);
    AccelConfig cfg;
    Accelerator accel(app.spec, cfg, mem);
    accel.run();
    auto labels = readLabels(app.img, mem);
    EXPECT_EQ(labels, ccSequential(g));
    EXPECT_EQ(countComponents(labels), 3u);
}

TEST(CcAppSpec, AllExecutorsMatchSequential)
{
    CsrGraph g = roadNetwork(7, 8, 0.15, 0.05, 10, 9);
    auto ref = ccSequential(g);

    auto l1 = std::make_shared<std::vector<uint32_t>>(g.numVertices());
    auto app1 = specCcAppSpec(g, l1);
    SequentialExecutor s(app1);
    s.run();
    EXPECT_EQ(*l1, ref);

    auto l2 = std::make_shared<std::vector<uint32_t>>(g.numVertices());
    auto app2 = specCcAppSpec(g, l2);
    ParallelExecutor p(app2, {5});
    p.run();
    EXPECT_EQ(*l2, ref);

    auto l3 = std::make_shared<std::vector<uint32_t>>(g.numVertices());
    auto app3 = specCcAppSpec(g, l3);
    ThreadedRuntime t(app3, {3});
    t.run();
    EXPECT_EQ(*l3, ref);
}

} // namespace
} // namespace apir
