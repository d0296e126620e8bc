/**
 * @file
 * Registry-wide tests: every registered app is built, run and
 * verified, and served identically by apird's in-process service and
 * a fresh `apird --once` process; plus the registry's own lookup
 * contract (a located fatal naming every app, `apird --list-apps`).
 * The checkpoint round trip (test_checkpoint.cc) and the 1-vs-4
 * thread sweep (test_sweep.cc) iterate the same table.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "server/service.hh"
#include "support/logging.hh"

namespace apir {
namespace bench {
namespace {

constexpr double kScale = 0.02;
constexpr uint32_t kSeed = 3;

/** Test-name suffix of an app: its name without dashes. */
std::string
paramName(const ::testing::TestParamInfo<Bench> &info)
{
    std::string n;
    for (const char *p = benchName(info.param); *p; ++p)
        if (*p != '-')
            n += *p;
    return n;
}

/** Everything `cmd` printed on stdout. */
std::string
capture(const std::string &cmd)
{
    std::string out;
    FILE *p = ::popen(cmd.c_str(), "r");
    if (!p)
        return out;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, p)) > 0)
        out.append(buf, n);
    ::pclose(p);
    return out;
}

class Registry : public ::testing::TestWithParam<Bench>
{
};

TEST_P(Registry, BuildRunVerify)
{
    Workloads w = makeWorkloads(kScale, kSeed);
    AccelRun run = runAccelerator(GetParam(), w, defaultAccelConfig(),
                                  true);
    EXPECT_GT(run.rr.cycles, 0u);
    EXPECT_GT(run.rr.tasksExecuted, 0u);
    EXPECT_GT(xeonTime(run.work, XeonParams{}, 1), 0.0);
}

TEST_P(Registry, VerifyRejectsAMachineThatNeverRan)
{
    Workloads w = makeWorkloads(kScale, kSeed);
    MemorySystem mem;
    BuiltApp app = GetParam()->build(w, mem);
    EXPECT_FALSE(app.verify(mem));
}

TEST_P(Registry, ApirdOnceMatchesTheService)
{
    server::SimRequest req;
    req.app = benchName(GetParam());
    req.scale = kScale;
    req.seed = kSeed;
    req.verify = true;
    server::SimService svc(APIR_SCENARIO_DIR);
    std::string served = svc.handle(req);
    EXPECT_EQ(served.rfind("{\"status\":\"ok\"", 0), 0u) << served;

    std::string once =
        capture(std::string(APIR_APIRD) + " --once --scenario-dir " +
                APIR_SCENARIO_DIR + " --request '" +
                server::serializeRequest(req) + "'");
    EXPECT_EQ(once, served + "\n");
}

INSTANTIATE_TEST_SUITE_P(AllApps, Registry,
                         ::testing::ValuesIn(allApps()), paramName);

TEST(Registry, PaperFigureAppsLeadTheTableInPaperOrder)
{
    ASSERT_GT(allApps().size(), std::size(kAllBenches));
    for (size_t i = 0; i < std::size(kAllBenches); ++i)
        EXPECT_EQ(allApps()[i], kAllBenches[i]);
    for (Bench b : allApps())
        EXPECT_EQ(findApp(benchName(b)), b);
    EXPECT_FALSE(findApp("SPEC-FFT"));
}

TEST(Registry, ListAppsPrintsTheTable)
{
    std::string expected;
    for (Bench b : allApps())
        expected += std::string(benchName(b)) + "\n";
    EXPECT_EQ(capture(std::string(APIR_APIRD) + " --list-apps"),
              expected);
}

TEST(Registry, ServiceErrorForAnUnknownAppListsTheTable)
{
    server::SimRequest req;
    req.app = "SPEC-FFT";
    server::SimService svc(APIR_SCENARIO_DIR);
    std::string resp = svc.handle(req);
    EXPECT_EQ(resp.rfind("{\"status\":\"error\"", 0), 0u);
    EXPECT_NE(resp.find("unknown app 'SPEC-FFT'"), std::string::npos);
    EXPECT_NE(resp.find(appNameList()), std::string::npos) << resp;
}

TEST(RegistryDeath, UnknownAppIsALocatedFatalListingEveryName)
{
    std::string names;
    for (Bench b : allApps())
        names += (names.empty() ? "" : ", ") + std::string(benchName(b));
    EXPECT_EXIT(appNamed("SPEC-FFT", "--bench"),
                ::testing::ExitedWithCode(1),
                "fatal: --bench: unknown app 'SPEC-FFT'; registered "
                "apps: " + names);
}

/** The points of a mesh as one comparable list. */
std::vector<double>
coordinates(const Mesh &m)
{
    std::vector<double> xy;
    for (const Point &p : m.points()) {
        xy.push_back(p.x);
        xy.push_back(p.y);
    }
    return xy;
}

/**
 * fig9's native column and the simulated run must see one input. At a
 * seed other than 42 (the seed the native column once hard-coded),
 * the DMR mesh and LU matrix follow the workload's seed, and the
 * simulated runs are exactly runs on those inputs.
 */
TEST(Registry, NativeReferenceSeesTheSimulatedInput)
{
    setQuietLogging(true);
    Workloads w = makeWorkloads(0.05, 7);
    EXPECT_NE(coordinates(dmrInputMesh(w)),
              coordinates(randomDelaunayMesh(w.meshPoints, 42)));
    EXPECT_GT(luInputMatrix(w).maxDiff(randomBlockSparse(
                  w.luBlocks, w.luBlockSize, w.luDensity, 42)),
              0.0);

    AccelConfig cfg = defaultAccelConfig();
    cfg.hostBatch = 16;
    cfg.hostInterval = 64;
    {
        MemorySystem mem(cfg.mem);
        DmrAccel app = buildSpecDmr(dmrInputMesh(w), RefineParams{}, mem);
        Accelerator accel(app.spec, cfg, mem);
        RunResult direct = accel.run();
        AccelRun viaRegistry =
            runAccelerator(appNamed("SPEC-DMR", "test"), w, cfg, true);
        EXPECT_EQ(viaRegistry.rr.cycles, direct.cycles);
        EXPECT_EQ(viaRegistry.rr.tasksExecuted, direct.tasksExecuted);
    }
    {
        MemorySystem mem(cfg.mem);
        LuAccel app = buildCoorLu(luInputMatrix(w), mem);
        Accelerator accel(app.spec, cfg, mem);
        RunResult direct = accel.run();
        AccelRun viaRegistry =
            runAccelerator(appNamed("COOR-LU", "test"), w, cfg, true);
        EXPECT_EQ(viaRegistry.rr.cycles, direct.cycles);
        EXPECT_EQ(viaRegistry.rr.tasksExecuted, direct.tasksExecuted);
    }
}

} // namespace
} // namespace bench
} // namespace apir
