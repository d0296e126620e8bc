/**
 * @file
 * Checkpoint subsystem tests (docs/checkpointing.md): the binary
 * format's round-trip and rejection paths, and the end-to-end
 * property the subsystem exists for — a run restored from a
 * mid-flight checkpoint produces stats byte-identical to a run that
 * never stopped, across every benchmark, both fast-forward modes, a
 * scheduled save restored into the lock-step oracle, and multiple
 * workload seeds — and that the checkpoint files themselves are
 * deterministic.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "checkpoint/ckpt.hh"
#include "hw/rule_engine.hh"
#include "mem/image.hh"
#include "support/logging.hh"

namespace apir {
namespace bench {
namespace {

// ------------------------------------------------------------ file helpers

std::vector<uint8_t>
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                                std::istreambuf_iterator<char>());
}

void
spit(const std::string &path, const std::vector<uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good()) << path;
}

/** A minimal valid checkpoint: one section "a" holding a u32. */
std::string
writeValidFile(const std::string &name)
{
    std::string path = ::testing::TempDir() + name;
    ckpt::Writer w;
    uint32_t v = 0x12345678;
    w.begin("a");
    w(v);
    w.end();
    w.finish(path);
    return path;
}

/** Test-name suffix of a benchmark: its name without dashes. */
std::string
paramName(const ::testing::TestParamInfo<Bench> &info)
{
    std::string n;
    for (const char *p = benchName(info.param); *p; ++p)
        if (*p != '-')
            n += *p;
    return n;
}

/**
 * Offset of section `name`'s payload in a checkpoint file image (the
 * section header is `u32 nameLen | name | u64 payloadLen`).
 */
size_t
sectionPayload(const std::vector<uint8_t> &bytes, const std::string &name)
{
    std::string hay(bytes.begin(), bytes.end());
    size_t at = hay.find(name);
    EXPECT_NE(at, std::string::npos) << name;
    return at + name.size() + sizeof(uint64_t);
}

/** A padded record: visited field by field, never bit-copied. */
struct Pod
{
    uint32_t a = 0;
    double b = 0;

    void
    visitState(ckpt::Archive &ar)
    {
        ar(a, b);
    }
};

// ------------------------------------------------------------------ format

TEST(CkptFormat, ScalarStringPodVectorRoundTrip)
{
    std::string path = ::testing::TempDir() + "fmt_roundtrip.ckpt";
    uint8_t u8 = 7;
    uint32_t u32 = 0xdeadbeef;
    uint64_t u64 = uint64_t(1) << 40;
    double f64 = 3.25;
    bool yes = true, no = false;
    std::string str = "hello checkpoint";
    Pod pod{3, 2.5};
    std::vector<uint64_t> vec{1, 2, 3};
    ckpt::Writer w;
    w.section("alpha", u8, u32, u64, f64, yes, no, str);
    w.section("beta", pod, vec);
    w.finish(path);

    uint8_t u8r = 0;
    uint32_t u32r = 0;
    uint64_t u64r = 0;
    double f64r = 0;
    bool yesr = false, nor = true;
    std::string strr;
    Pod p;
    std::vector<uint64_t> vecr;
    ckpt::Reader r(path);
    r.begin("alpha");
    r(u8r, u32r, u64r, f64r, yesr, nor, strr);
    EXPECT_EQ(u8r, 7u);
    EXPECT_EQ(u32r, 0xdeadbeefu);
    EXPECT_EQ(u64r, uint64_t(1) << 40);
    EXPECT_EQ(f64r, 3.25);
    EXPECT_TRUE(yesr);
    EXPECT_FALSE(nor);
    EXPECT_EQ(strr, "hello checkpoint");
    r.end();
    r.begin("beta");
    r(p, vecr);
    EXPECT_EQ(p.a, 3u);
    EXPECT_EQ(p.b, 2.5);
    EXPECT_EQ(vecr, (std::vector<uint64_t>{1, 2, 3}));
    r.end();
    EXPECT_TRUE(r.atEnd());
}

TEST(CkptFormat, StatObjectsRoundTripBitExactly)
{
    // The stats helpers must preserve exact bits (incl. the observed
    // max a Histogram quantile reports for overflow ranks), or a
    // restored run's stats-json would differ in the last ulp.
    std::string path = ::testing::TempDir() + "fmt_stats.ckpt";
    Counter c;
    c += 41;
    Average a;
    a.sample(0.1);
    a.sample(0.3);
    Histogram h(4, 1.0);
    h.sample(0.5);
    h.sample(2.5);
    h.sample(97.25); // overflow; maxSeen must survive the trip

    ckpt::Writer w;
    w.begin("stats");
    w(c, a, h);
    w.end();
    w.finish(path);

    Counter c2;
    Average a2;
    Histogram h2(4, 1.0);
    ckpt::Reader r(path);
    r.begin("stats");
    r(c2, a2, h2);
    r.end();
    EXPECT_TRUE(r.atEnd());

    EXPECT_EQ(c2.value(), c.value());
    EXPECT_EQ(a2.sum(), a.sum());
    EXPECT_EQ(a2.count(), a.count());
    EXPECT_EQ(a2.rawMin(), a.rawMin());
    EXPECT_EQ(a2.rawMax(), a.rawMax());
    for (size_t i = 0; i < h.buckets(); ++i)
        EXPECT_EQ(h2.bucket(i), h.bucket(i));
    EXPECT_EQ(h2.overflow(), h.overflow());
    EXPECT_EQ(h2.total(), h.total());
    EXPECT_EQ(h2.maxSeen(), h.maxSeen());
    EXPECT_EQ(h2.quantile(1.0), h.quantile(1.0));
}

TEST(CkptFormat, MissingFileIsFatal)
{
    ScopedFatalThrows guard;
    EXPECT_THROW(
        ckpt::Reader r(::testing::TempDir() + "does_not_exist.ckpt"),
        FatalError);
}

TEST(CkptFormat, CorruptMagicIsFatal)
{
    std::string path = writeValidFile("bad_magic.ckpt");
    auto bytes = slurp(path);
    bytes[0] ^= 0xff;
    spit(path, bytes);
    ScopedFatalThrows guard;
    EXPECT_THROW(ckpt::Reader r(path), FatalError);
}

TEST(CkptFormat, VersionSkewIsFatal)
{
    std::string path = writeValidFile("bad_version.ckpt");
    auto bytes = slurp(path);
    // The version word sits right after the 8-byte magic.
    bytes[8] = 0x99;
    spit(path, bytes);
    ScopedFatalThrows guard;
    EXPECT_THROW(ckpt::Reader r(path), FatalError);
}

TEST(CkptFormat, TruncatedFileIsFatal)
{
    std::string path = writeValidFile("truncated.ckpt");
    auto bytes = slurp(path);
    bytes.resize(bytes.size() - 1);
    spit(path, bytes);
    ScopedFatalThrows guard;
    EXPECT_THROW(
        {
            ckpt::Reader r(path);
            uint32_t v;
            r.begin("a");
            r(v);
        },
        FatalError);
}

TEST(CkptFormat, WrongSectionNameIsFatal)
{
    std::string path = writeValidFile("wrong_section.ckpt");
    ScopedFatalThrows guard;
    EXPECT_THROW(
        {
            ckpt::Reader r(path);
            r.begin("b");
        },
        FatalError);
}

TEST(CkptFormat, LeftoverSectionPayloadIsFatal)
{
    std::string path = writeValidFile("leftover.ckpt");
    ScopedFatalThrows guard;
    EXPECT_THROW(
        {
            ckpt::Reader r(path);
            r.begin("a");
            r.end(); // the u32 payload was never consumed
        },
        FatalError);
}

TEST(CkptFormat, ReadPastSectionEndIsFatal)
{
    std::string path = writeValidFile("overrun.ckpt");
    ScopedFatalThrows guard;
    EXPECT_THROW(
        {
            ckpt::Reader r(path);
            uint64_t v;
            r.begin("a");
            r(v); // section holds only 4 bytes
        },
        FatalError);
}

TEST(CkptFormat, TrailingBytesAreVisible)
{
    // The Reader exposes trailing garbage via atEnd(); the bench
    // restore path turns that into a fatal (tested below e2e).
    std::string path = writeValidFile("trailing.ckpt");
    auto bytes = slurp(path);
    bytes.push_back(0xab);
    spit(path, bytes);
    ckpt::Reader r(path);
    uint32_t v;
    r.begin("a");
    r(v);
    r.end();
    EXPECT_FALSE(r.atEnd());
}

TEST(CkptFormat, Version1FileIsRejected)
{
    // v1 bit-copied padded records; its files must hit the version
    // skew fatal, never be misparsed as v2.
    std::string path = writeValidFile("v1.ckpt");
    auto bytes = slurp(path);
    bytes[8] = 1;
    spit(path, bytes);
    ScopedFatalThrows guard;
    EXPECT_THROW(ckpt::Reader r(path), FatalError);
}

TEST(CkptFormat, HugeVectorCountIsFatalNotAnAllocation)
{
    // 2^61 eight-byte elements wrap a byte-count check to 0; the
    // count must be checked against the remaining payload by division.
    for (uint64_t n : {uint64_t(1) << 61, ~uint64_t(0)}) {
        std::string path = ::testing::TempDir() + "huge_count.ckpt";
        ckpt::Writer w;
        w.section("v", n);
        w.finish(path);
        ScopedFatalThrows guard;
        ckpt::Reader r(path);
        r.begin("v");
        std::vector<uint64_t> bulk;
        EXPECT_THROW(r(bulk), FatalError) << n;
        ckpt::Reader r2(path);
        r2.begin("v");
        std::vector<Pod> records; // visited one by one
        EXPECT_THROW(r2(records), FatalError) << n;
    }
}

TEST(CkptFormat, ShortMemoryPageIsFatal)
{
    // A hand-written image section whose only page holds 10 words:
    // readWord indexes pages unchecked, so a page of any length but
    // the fixed page size must be refused at restore.
    std::string path = ::testing::TempDir() + "short_page.ckpt";
    uint64_t brk = 64, pages = 1, pageNo = 0;
    std::vector<uint64_t> shortPage(10, 7);
    ckpt::Writer w;
    w.section("image", brk, pages, pageNo, shortPage);
    w.finish(path);

    ScopedFatalThrows guard;
    MemoryImage img;
    ckpt::Reader r(path);
    r.begin("image");
    try {
        img.visitState(r);
        ADD_FAILURE() << "short page was accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("words in a memory page"),
                  std::string::npos)
            << e.what();
    }
}

// ------------------------------------------------------- end-to-end helper

std::string
statsOf(Bench b, const Workloads &w, const AccelConfig &cfg,
        const CheckpointOptions &ck = {})
{
    AccelRun run = runAccelerator(b, w, cfg, false, ck);
    return runToJson(run).dump();
}

/**
 * The round-trip property for one (bench, config) point: saving must
 * not perturb the run it snapshots, and a restored machine must be
 * indistinguishable from one that never stopped. `restore_cfg`, when
 * given, is the config the restored run uses instead of `cfg`.
 */
void
expectRoundTrip(Bench b, const Workloads &w, const AccelConfig &cfg,
                const std::string &prefix,
                const AccelConfig *restore_cfg = nullptr)
{
    AccelRun base = runAccelerator(b, w, cfg);
    std::string baseline = runToJson(base).dump();

    CheckpointOptions save;
    save.saveCycle = std::max<uint64_t>(1, base.rr.cycles / 2);
    save.savePrefix = prefix;
    EXPECT_EQ(statsOf(b, w, cfg, save), baseline)
        << benchName(b) << ": save run diverged";

    CheckpointOptions rest;
    rest.restorePrefix = prefix;
    EXPECT_EQ(statsOf(b, w, restore_cfg ? *restore_cfg : cfg, rest),
              baseline)
        << benchName(b) << ": restored run diverged";
}

// --------------------------------------------------------- e2e round trips

class CheckpointRoundTrip : public ::testing::TestWithParam<Bench>
{
};

TEST_P(CheckpointRoundTrip, ByteIdenticalAcrossModesAndSeeds)
{
    Bench b = GetParam();
    int combo = 0;
    // Scheduled, lock-step, and a scheduled save restored into the
    // lock-step oracle: the saved state must not depend on which
    // stages happened to be asleep.
    for (int mode = 0; mode < 3; ++mode) {
        for (uint32_t seed = 1; seed <= 5; ++seed) {
            Workloads w = makeWorkloads(0.02, seed);
            AccelConfig cfg = defaultAccelConfig();
            cfg.fastForward = mode != 1;
            AccelConfig oracle = cfg;
            oracle.fastForward = false;
            std::string prefix = ::testing::TempDir() + "rt_" +
                                 benchName(b) + "_" +
                                 std::to_string(combo++);
            expectRoundTrip(b, w, cfg, prefix,
                            mode == 2 ? &oracle : nullptr);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllBenches, CheckpointRoundTrip,
                         ::testing::ValuesIn(allApps()), paramName);

/** Offset of the first byte where `a` and `b` differ, as text. */
std::string
firstDiff(const std::vector<uint8_t> &a, const std::vector<uint8_t> &b)
{
    size_t n = std::min(a.size(), b.size());
    size_t i = 0;
    while (i < n && a[i] == b[i])
        ++i;
    return "first difference at byte " + std::to_string(i) + " of " +
           std::to_string(a.size()) + " vs " + std::to_string(b.size());
}

// -------------------------------------------------- file determinism

class CheckpointDeterminism : public ::testing::TestWithParam<Bench>
{
};

/**
 * A checkpoint file is a pure function of the machine state it
 * captures — full state, including fields that never reach
 * stats-json. (a) The same save made twice gives identical bytes;
 * (b) a save at C2 from a cold run is byte-identical to a save at C2
 * from a run restored at C1 < C2.
 */
TEST_P(CheckpointDeterminism, FileBytesArePureFunctionOfState)
{
    Bench b = GetParam();
    Workloads w = makeWorkloads(0.05, 3);
    for (bool ff : {true, false}) {
        AccelConfig cfg = defaultAccelConfig();
        cfg.fastForward = ff;
        uint64_t cycles = runAccelerator(b, w, cfg).rr.cycles;
        uint64_t c1 = std::max<uint64_t>(1, cycles / 3);
        uint64_t c2 = std::max<uint64_t>(c1 + 1, cycles / 3 * 2);
        std::string prefix = ::testing::TempDir() + "det_" +
                             benchName(b) + (ff ? "_ff" : "_noff");
        auto save = [&](uint64_t cycle, const std::string &tag,
                        const std::string &from) {
            CheckpointOptions ck;
            ck.saveCycle = cycle;
            ck.savePrefix = prefix + tag;
            ck.restorePrefix = from;
            runAccelerator(b, w, cfg, false, ck);
            return slurp(checkpointPath(ck.savePrefix, b));
        };
        std::vector<uint8_t> first = save(c1, "_a", "");
        std::vector<uint8_t> again = save(c1, "_b", "");
        EXPECT_TRUE(first == again)
            << benchName(b) << (ff ? " ff" : " noff") << ": two saves at "
            << c1 << " differ, " << firstDiff(first, again);
        std::vector<uint8_t> cold = save(c2, "_cold", "");
        std::vector<uint8_t> warm = save(c2, "_warm", prefix + "_a");
        EXPECT_TRUE(cold == warm)
            << benchName(b) << (ff ? " ff" : " noff") << ": save at "
            << c2 << " after a restore at " << c1
            << " differs from the cold one, " << firstDiff(cold, warm);
    }
}

INSTANTIATE_TEST_SUITE_P(AllBenches, CheckpointDeterminism,
                         ::testing::ValuesIn(allApps()), paramName);

TEST(CheckpointDeterminismExtra, SavesWhileMostStagesSleep)
{
    // On a starved link the scheduler keeps most stages asleep, so
    // the save cycles land on a machine whose stages are mostly
    // between ticks with uncharged cycles behind them. Saving settles
    // them; the restored run must match the uninterrupted one, and the
    // C2 file saved after a restore at C1 must equal the cold one
    // (determinism contract (b), docs/checkpointing.md).
    AccelConfig cfg = defaultAccelConfig();
    cfg.mem.bandwidthScale = 0.05;
    Workloads w = makeWorkloads(0.05, 2);
    for (Bench b : {appNamed("SPEC-BFS", "test"),
                    appNamed("SPEC-MST", "test"),
                    appNamed("COOR-LU", "test")}) {
        AccelRun base = runAccelerator(b, w, cfg);
        uint64_t stages = 0;
        for (const StatGroup &g : base.rr.groups)
            if (g.name() == "accel")
                stages = static_cast<uint64_t>(g.values().at("stages"));
        ASSERT_GT(stages, 0u);
        EXPECT_LE(base.rr.tickPerf.stageVisits,
                  base.rr.cycles * stages / 4)
            << benchName(b) << ": most stages should sleep";

        uint64_t c1 = base.rr.cycles / 3;
        uint64_t c2 = base.rr.cycles / 3 * 2;
        std::string prefix = ::testing::TempDir() + "sleep_" +
                             benchName(b);
        CheckpointOptions s1;
        s1.saveCycle = c1;
        s1.savePrefix = prefix + "_c1";
        EXPECT_EQ(statsOf(b, w, cfg, s1), runToJson(base).dump());
        CheckpointOptions warm;
        warm.restorePrefix = prefix + "_c1";
        warm.saveCycle = c2;
        warm.savePrefix = prefix + "_warm";
        EXPECT_EQ(statsOf(b, w, cfg, warm), runToJson(base).dump())
            << benchName(b) << ": restored run diverged";
        CheckpointOptions cold;
        cold.saveCycle = c2;
        cold.savePrefix = prefix + "_cold";
        runAccelerator(b, w, cfg, false, cold);
        std::vector<uint8_t> a = slurp(checkpointPath(cold.savePrefix, b));
        std::vector<uint8_t> c = slurp(checkpointPath(warm.savePrefix, b));
        EXPECT_TRUE(a == c) << benchName(b) << ": " << firstDiff(a, c);
    }
}

TEST(CheckpointRoundTripExtra, DegenerateMshr1MachineWithElasticLsu)
{
    // Regression: on the single-MSHR machine the liveness entry port
    // pushes LSU occupancy past nominal capacity, and an early
    // restore path wrongly rejected such checkpoints as structural
    // mismatches. Keep the worst machine in the in-process campaign.
    AccelConfig cfg = defaultAccelConfig();
    cfg.mem.cache.sizeBytes = 64;
    cfg.mem.cache.lineBytes = 64;
    cfg.mem.cache.mshrs = 1;
    cfg.mem.cache.prefetchNextLine = false;
    Workloads w = makeWorkloads(0.02, 1);
    for (Bench b :
         {appNamed("SPEC-BFS", "test"), appNamed("SPEC-SSSP", "test")})
        expectRoundTrip(b, w, cfg,
                        ::testing::TempDir() + "rt_mshr1_" +
                            benchName(b));
}

// ----------------------------------------------------- e2e rejection paths

TEST(CheckpointRestore, SaveCycleAfterDrainIsFatal)
{
    // A save that never fires must not silently produce no file.
    Workloads w = makeWorkloads(0.02, 1);
    CheckpointOptions save;
    save.saveCycle = 1u << 30;
    save.savePrefix = ::testing::TempDir() + "late_save";
    ScopedFatalThrows guard;
    EXPECT_THROW(
        runAccelerator(appNamed("COOR-BFS", "test"), w, defaultAccelConfig(),
                       false, save),
        FatalError);
}

TEST(CheckpointRestore, MissingCheckpointFileIsFatal)
{
    Workloads w = makeWorkloads(0.02, 1);
    CheckpointOptions rest;
    rest.restorePrefix = ::testing::TempDir() + "no_such_prefix";
    ScopedFatalThrows guard;
    EXPECT_THROW(
        runAccelerator(appNamed("COOR-BFS", "test"), w, defaultAccelConfig(),
                       false, rest),
        FatalError);
}

/** Save one COOR-BFS checkpoint and return its prefix. */
std::string
savedPrefix(const Workloads &w, const AccelConfig &cfg,
            const std::string &name)
{
    std::string prefix = ::testing::TempDir() + name;
    AccelRun base = runAccelerator(appNamed("COOR-BFS", "test"), w, cfg);
    CheckpointOptions save;
    save.saveCycle = std::max<uint64_t>(1, base.rr.cycles / 2);
    save.savePrefix = prefix;
    runAccelerator(appNamed("COOR-BFS", "test"), w, cfg, false, save);
    return prefix;
}

TEST(CheckpointRestore, StructuralConfigMismatchIsFatal)
{
    Workloads w = makeWorkloads(0.02, 1);
    AccelConfig cfg = defaultAccelConfig();
    std::string prefix = savedPrefix(w, cfg, "structural_mismatch");
    cfg.lsuEntries *= 2; // changes the machine's state shape
    CheckpointOptions rest;
    rest.restorePrefix = prefix;
    ScopedFatalThrows guard;
    EXPECT_THROW(runAccelerator(appNamed("COOR-BFS", "test"), w, cfg,
                                false, rest),
                 FatalError);
}

TEST(CheckpointRestore, WorkloadSeedMismatchIsFatal)
{
    AccelConfig cfg = defaultAccelConfig();
    std::string prefix = savedPrefix(makeWorkloads(0.02, 1), cfg,
                                     "seed_mismatch");
    Workloads other = makeWorkloads(0.02, 2);
    CheckpointOptions rest;
    rest.restorePrefix = prefix;
    ScopedFatalThrows guard;
    EXPECT_THROW(runAccelerator(appNamed("COOR-BFS", "test"), other, cfg,
                                false, rest),
                 FatalError);
}

TEST(CheckpointRestore, BenchmarkMismatchIsFatal)
{
    // A SPEC-SSSP restore must refuse a COOR-BFS checkpoint even
    // though the file exists under the right name for its own bench.
    Workloads w = makeWorkloads(0.02, 1);
    AccelConfig cfg = defaultAccelConfig();
    std::string prefix = savedPrefix(w, cfg, "bench_mismatch");
    std::string stolen = checkpointPath(prefix, appNamed("SPEC-SSSP", "test"));
    spit(stolen, slurp(checkpointPath(prefix, appNamed("COOR-BFS", "test"))));
    CheckpointOptions rest;
    rest.restorePrefix = prefix;
    ScopedFatalThrows guard;
    EXPECT_THROW(runAccelerator(appNamed("SPEC-SSSP", "test"), w, cfg,
                                false, rest),
                 FatalError);
}

TEST(CheckpointRestore, TrailingBytesInFileAreFatal)
{
    Workloads w = makeWorkloads(0.02, 1);
    AccelConfig cfg = defaultAccelConfig();
    std::string prefix = savedPrefix(w, cfg, "trailing_e2e");
    std::string path = checkpointPath(prefix, appNamed("COOR-BFS", "test"));
    auto bytes = slurp(path);
    bytes.push_back(0x00);
    spit(path, bytes);
    CheckpointOptions rest;
    rest.restorePrefix = prefix;
    ScopedFatalThrows guard;
    EXPECT_THROW(runAccelerator(appNamed("COOR-BFS", "test"), w, cfg,
                                false, rest),
                 FatalError);
}

TEST(CheckpointRestore, CraftedLaneCountIsFatal)
{
    // A file claiming 2^61 lanes for the first rule engine is refused
    // by the structural-size check with a located fatal, never an
    // attempted allocation.
    Workloads w = makeWorkloads(0.02, 1);
    AccelConfig cfg = defaultAccelConfig();
    AccelRun base = runAccelerator(appNamed("SPEC-BFS", "test"), w, cfg);
    CheckpointOptions save;
    save.saveCycle = std::max<uint64_t>(1, base.rr.cycles / 2);
    save.savePrefix = ::testing::TempDir() + "crafted_lanes";
    runAccelerator(appNamed("SPEC-BFS", "test"), w, cfg, false, save);
    std::string path =
        checkpointPath(save.savePrefix, appNamed("SPEC-BFS", "test"));
    auto bytes = slurp(path);
    // Payload: u64 engine count, then the first engine's lane count.
    size_t at = sectionPayload(bytes, "accel.engines");
    uint64_t engines;
    std::memcpy(&engines, &bytes[at], sizeof(engines));
    ASSERT_GT(engines, 0u);
    uint64_t lanes = uint64_t(1) << 61;
    std::memcpy(&bytes[at + sizeof(uint64_t)], &lanes, sizeof(lanes));
    spit(path, bytes);
    CheckpointOptions rest;
    rest.restorePrefix = save.savePrefix;
    ScopedFatalThrows guard;
    try {
        runAccelerator(appNamed("SPEC-BFS", "test"), w, cfg, false, rest);
        ADD_FAILURE() << "crafted lane count was accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("restore requires the same "
                                             "structural config"),
                  std::string::npos)
            << e.what();
    }
}

TEST(CheckpointRestore, LaneCountDisagreeingWithLanesIsFatal)
{
    // RuleEngine::alloc() trusts the in-use count to stop scanning a
    // full lane file, so a file whose count disagrees with its valid
    // lanes is refused with a located fatal instead of restored.
    RuleSpec spec;
    spec.name = "r";
    RuleEngine eng(spec, 2);
    ASSERT_NE(eng.alloc(RuleParams{}), kNoLane);
    std::string path = ::testing::TempDir() + "lane_count.ckpt";
    ckpt::Writer w;
    w.section("engine", eng);
    w.finish(path);
    auto bytes = slurp(path);
    // The payload ends with nextLane_, inUse_, maxInUse_ (u32 each)
    // and six u64 counters.
    size_t at = sectionPayload(bytes, "engine");
    uint64_t len;
    std::memcpy(&len, &bytes[at - sizeof(len)], sizeof(len));
    size_t in_use = at + len - 6 * sizeof(uint64_t) - 2 * sizeof(uint32_t);
    uint32_t count;
    std::memcpy(&count, &bytes[in_use], sizeof(count));
    ASSERT_EQ(count, 1u);
    count = 0;
    std::memcpy(&bytes[in_use], &count, sizeof(count));
    spit(path, bytes);

    ScopedFatalThrows guard;
    RuleEngine fresh(spec, 2);
    ckpt::Reader r(path);
    r.begin("engine");
    try {
        fresh.visitState(r);
        ADD_FAILURE() << "a lane count of 0 with one valid lane was accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("corrupt file"),
                  std::string::npos)
            << e.what();
    }
}

TEST(CheckpointRestore, TimingOnlyKnobsMayDiffer)
{
    // The fig10 warmup workflow: a checkpoint saved at stock
    // bandwidth restores into a machine with a different
    // bandwidthScale (structural key equal, canonical key not). The
    // run must complete; its timing legitimately differs.
    setQuietLogging(true); // the canonical-mismatch warn is expected
    Workloads w = makeWorkloads(0.02, 1);
    AccelConfig cfg = defaultAccelConfig();
    std::string prefix = savedPrefix(w, cfg, "timing_only");
    AccelConfig faster = cfg;
    faster.mem.bandwidthScale *= 4.0;
    CheckpointOptions rest;
    rest.restorePrefix = prefix;
    AccelRun run =
        runAccelerator(appNamed("COOR-BFS", "test"), w, faster, false, rest);
    setQuietLogging(false);
    EXPECT_GT(run.rr.cycles, 0u);
    EXPECT_GT(run.rr.tasksExecuted, 0u);
    // The restored run reports where it resumed, so warmup-reuse
    // sweeps can compare post-restore regions (fig10's speedup).
    EXPECT_GT(run.rr.startCycle, 0u);
    EXPECT_LT(run.rr.startCycle, run.rr.cycles);
}

TEST(CheckpointRestore, AutoSaveCalibratesToTheRunAndRoundTrips)
{
    // --checkpoint-save auto:PREFIX: the save cycle is 3/4 of the
    // run's own drain cycle (learned from a cold calibration run).
    // Neither the calibrating save run nor the restored run may
    // perturb the reported results.
    Workloads w = makeWorkloads(0.02, 1);
    AccelConfig cfg = defaultAccelConfig();
    std::string baseline = statsOf(appNamed("SPEC-BFS", "test"), w, cfg);
    std::string prefix = ::testing::TempDir() + "auto_save";

    CheckpointOptions save;
    save.saveAuto = true;
    save.savePrefix = prefix;
    EXPECT_EQ(statsOf(appNamed("SPEC-BFS", "test"), w, cfg, save), baseline)
        << "auto-calibrated save run diverged";

    CheckpointOptions rest;
    rest.restorePrefix = prefix;
    AccelRun restored =
        runAccelerator(appNamed("SPEC-BFS", "test"), w, cfg, false, rest);
    EXPECT_EQ(runToJson(restored).dump(), baseline)
        << "run restored from an auto checkpoint diverged";
    // The calibrated save point is 3/4 of the drain cycle, so the
    // restored run resumes in the run's final quarter.
    EXPECT_EQ(restored.rr.startCycle,
              std::max<uint64_t>(1, restored.rr.cycles / 4 * 3));
}

} // namespace
} // namespace bench
} // namespace apir
