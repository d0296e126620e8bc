/**
 * @file
 * LU benchmark tests: parallel wave implementations agree with the
 * sequential factorization bit-for-bit (same operation order within
 * rounding), and the COOR-LU accelerator factors correctly across
 * configurations and sparsity levels.
 */

#include <gtest/gtest.h>

#include "apps/lu.hh"
#include "core/parallel_executor.hh"
#include "core/seq_executor.hh"
#include "core/threaded_runtime.hh"
#include "hw/accelerator.hh"
#include "support/logging.hh"

namespace apir {
namespace {

TEST(LuAlgo, ThreadsMatchSequential)
{
    BlockSparseMatrix a = randomBlockSparse(6, 8, 0.3, 5);
    BlockSparseMatrix ref = a;
    LuOpCounts ref_ops = sparseLuSequential(ref);

    LuOpCounts ops = luParallelThreads(a, 4);
    EXPECT_EQ(ops.total(), ref_ops.total());
    EXPECT_LT(a.maxDiff(ref), 1e-10);
}

TEST(LuAlgo, FillInHappensOnSparseInputs)
{
    BlockSparseMatrix a = randomBlockSparse(8, 4, 0.25, 7);
    size_t before = a.numBlocks();
    sparseLuSequential(a);
    EXPECT_GT(a.numBlocks(), before); // gemm created fill blocks
}

class LuAccelSweep
    : public ::testing::TestWithParam<
          std::tuple<uint32_t, uint32_t, double, uint32_t>>
{
};

TEST_P(LuAccelSweep, FactorsCorrectlyUnderConfig)
{
    setQuietLogging(true);
    auto [n, bs, density, pipelines] = GetParam();
    BlockSparseMatrix a = randomBlockSparse(n, bs, density, 11);
    BlockSparseMatrix ref = a;
    LuOpCounts ref_ops = sparseLuSequential(ref);

    MemorySystem mem;
    auto app = buildCoorLu(std::move(a), mem);
    AccelConfig cfg;
    cfg.pipelinesPerSet = pipelines;
    Accelerator accel(app.spec, cfg, mem);
    accel.run();

    EXPECT_EQ(app.state->ops.factor, ref_ops.factor);
    EXPECT_EQ(app.state->ops.trsm, ref_ops.trsm);
    EXPECT_EQ(app.state->ops.gemm, ref_ops.gemm);
    EXPECT_LT(app.state->a.maxDiff(ref), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LuAccelSweep,
    ::testing::Values(std::make_tuple(2u, 4u, 0.5, 1u),
                      std::make_tuple(4u, 8u, 0.3, 2u),
                      std::make_tuple(6u, 4u, 0.2, 4u),
                      std::make_tuple(8u, 4u, 0.4, 2u),
                      std::make_tuple(5u, 8u, 1.0, 2u))); // dense

TEST(LuAccel, SingleBlockMatrix)
{
    setQuietLogging(true);
    BlockSparseMatrix a = randomBlockSparse(1, 8, 1.0, 3);
    BlockSparseMatrix ref = a;
    sparseLuSequential(ref);

    MemorySystem mem;
    auto app = buildCoorLu(std::move(a), mem);
    AccelConfig cfg;
    Accelerator accel(app.spec, cfg, mem);
    accel.run();
    EXPECT_EQ(app.state->ops.factor, 1u);
    EXPECT_EQ(app.state->ops.total(), 1u);
    EXPECT_LT(app.state->a.maxDiff(ref), 1e-12);
}

TEST(LuAccel, HostFedMatchesPreloaded)
{
    setQuietLogging(true);
    BlockSparseMatrix a = randomBlockSparse(5, 4, 0.4, 13);
    BlockSparseMatrix ref = a;
    sparseLuSequential(ref);

    MemorySystem mem;
    auto app = buildCoorLu(std::move(a), mem);
    AccelConfig cfg;
    cfg.hostBatch = 1;
    cfg.hostInterval = 128;
    Accelerator accel(app.spec, cfg, mem);
    accel.run();
    EXPECT_LT(app.state->a.maxDiff(ref), 1e-9);
}

TEST(LuAccel, CoordinationNeverSquashes)
{
    setQuietLogging(true);
    BlockSparseMatrix a = randomBlockSparse(6, 4, 0.35, 17);
    MemorySystem mem;
    auto app = buildCoorLu(std::move(a), mem);
    AccelConfig cfg;
    cfg.pipelinesPerSet = 2;
    Accelerator accel(app.spec, cfg, mem);
    RunResult rr = accel.run();
    // Coordinative execution admits only runnable tasks: no squashes.
    EXPECT_EQ(rr.squashed, 0u);
}


TEST(LuAppSpec, AllExecutorsMatchSequentialFactors)
{
    BlockSparseMatrix a = randomBlockSparse(5, 8, 0.35, 23);
    BlockSparseMatrix ref = a;
    LuOpCounts ref_ops = sparseLuSequential(ref);

    for (int mode = 0; mode < 3; ++mode) {
        auto st = std::make_shared<LuState>();
        st->a = a;
        AppSpec app = coorLuAppSpec(st);
        if (mode == 0) {
            SequentialExecutor exec(app);
            exec.run();
        } else if (mode == 1) {
            ParallelExecutor exec(app, {6});
            exec.run();
        } else {
            ThreadedRuntime exec(app, {4});
            exec.run();
        }
        EXPECT_EQ(st->ops.total(), ref_ops.total())
            << "executor mode " << mode;
        EXPECT_LT(st->a.maxDiff(ref), 1e-9) << "executor mode " << mode;
    }
}

} // namespace
} // namespace apir
