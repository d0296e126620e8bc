/**
 * @file
 * Equivalence tests of the active-set stage scheduler: with
 * cfg.fastForward on or off (the lock-step oracle), every run must
 * produce bit-identical results — cycle counts, every statistic in
 * every component group, the firing trace, and the Chrome trace
 * stream — across pipeline shapes (memory-bound, host-fed,
 * rule-gated, expanding, priority queues), one design per wake source
 * and a fuzz sweep of random linear pipelines. Each design is
 * additionally run scheduled without trace hooks, pinning the path the
 * benches take to the oracle. Also covers the deadlockCycles watchdog
 * knob: validation, and the panic firing at the identical simulated
 * cycle in both modes.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <sstream>
#include <string>

#include "apps/mst.hh"
#include "bdfg/builder.hh"
#include "graph/generators.hh"
#include "hw/accelerator.hh"
#include "support/logging.hh"
#include "support/random.hh"
#include "support/trace.hh"

namespace apir {
namespace {

/** Builds the design under test against a fresh memory system. */
using SpecFactory = std::function<AcceleratorSpec(MemorySystem &)>;

/** Hex-float rendering: equal strings iff bit-identical doubles. */
std::string
bits(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

/**
 * Run the design once and fingerprint everything observable: the
 * summary scalars and every (component, statistic) pair of the final
 * snapshot. When `traces` is non-null, also run with the cycle trace
 * and the Chrome tracer attached and append both streams.
 */
std::string
runFingerprint(const SpecFactory &make, AccelConfig cfg, bool ff,
               std::string *traces = nullptr, RunResult *result = nullptr)
{
    setQuietLogging(true);
    MemorySystem mem(cfg.mem);
    AcceleratorSpec spec = make(mem);
    cfg.fastForward = ff;

    std::ostringstream fires;
    std::ostringstream chrome;
    std::unique_ptr<ChromeTracer> tracer;
    if (traces) {
        cfg.trace = &fires;
        tracer = std::make_unique<ChromeTracer>(chrome);
        cfg.tracer = tracer.get();
    }

    Accelerator accel(spec, cfg, mem);
    RunResult rr = accel.run();

    std::ostringstream os;
    os << rr.cycles << ' ' << rr.tasksExecuted << ' '
       << rr.tasksActivated << ' ' << rr.squashed << ' '
       << rr.fallbackFires << ' ' << bits(rr.seconds) << ' '
       << bits(rr.utilization) << '\n';
    for (const StatGroup &g : rr.groups) {
        for (const auto &[key, val] : g.values())
            os << g.name() << '.' << key << '=' << bits(val) << '\n';
    }
    if (traces) {
        tracer.reset(); // flush the JSON document
        *traces = fires.str() + "\x1e" + chrome.str();
    }
    if (result)
        *result = rr;
    return os.str();
}

/** Value of statistic `key` in group `group` of a run's snapshot. */
double
statOf(const RunResult &rr, const std::string &group, const std::string &key)
{
    for (const StatGroup &g : rr.groups)
        if (g.name() == group && g.values().count(key))
            return g.values().at(key);
    ADD_FAILURE() << "no statistic " << group << "." << key;
    return 0.0;
}

/**
 * Assert that the scheduled loop agrees byte-for-byte with the
 * lock-step oracle (every stage ticked every cycle), traces included,
 * and that the scheduled loop without trace hooks — the path every
 * bench takes — matches the oracle's statistics too.
 */
void
expectEquivalent(const SpecFactory &make, const AccelConfig &cfg)
{
    std::string trace_on, trace_off;
    std::string on = runFingerprint(make, cfg, true, &trace_on);
    std::string off = runFingerprint(make, cfg, false, &trace_off);
    EXPECT_EQ(on, off);
    EXPECT_EQ(trace_on, trace_off);
    EXPECT_FALSE(on.empty());

    std::string untraced = runFingerprint(make, cfg, true);
    EXPECT_EQ(untraced, off);
}

// ------------------------------------------------- hand-built designs

/** Load/double/store over n tasks: the memory-bound workhorse. */
SpecFactory
loadComputeStore(uint64_t n)
{
    return [n](MemorySystem &mem) {
        std::vector<uint64_t> in(n);
        for (uint64_t i = 0; i < n; ++i)
            in[i] = i * 3 + 1;
        uint64_t in_base = mem.image().mapArray(in);
        uint64_t out_base = mem.image().alloc(n);
        AcceleratorSpec spec;
        spec.name = "ffmem";
        spec.sets = {{"t", TaskSetKind::ForEach, 0, 2}};
        PipelineBuilder b("t", 0);
        b.load("ld",
               [in_base](const Token &t) {
                   return in_base + t.words[0] * kWordBytes;
               },
               1)
         .alu("dbl", [](Token &t) { t.words[1] *= 2; })
         .store("st",
                [out_base](const Token &t) {
                    return out_base + t.words[0] * kWordBytes;
                },
                [](const Token &t) { return t.words[1]; })
         .sink("done");
        spec.pipelines.push_back(b.build());
        for (uint64_t i = 0; i < n; ++i)
            spec.seed(0, {i});
        return spec;
    };
}

/** Alu/sink fed by the host in sparse batches: long idle gaps. */
SpecFactory
hostFedTrickle(uint64_t n)
{
    return [n](MemorySystem &) {
        AcceleratorSpec spec;
        spec.name = "fffeed";
        spec.sets = {{"t", TaskSetKind::ForEach, 0, 1}};
        PipelineBuilder b("t", 0);
        b.alu("nop", [](Token &) {}).sink("done");
        spec.pipelines.push_back(b.build());
        for (uint64_t i = 0; i < n; ++i)
            spec.seed(0, {i});
        return spec;
    };
}

/** Rule-gated rendezvous with a starved lane file. */
SpecFactory
ruleGate(uint64_t n)
{
    return [n](MemorySystem &mem) {
        uint64_t out_base = mem.image().alloc(64);
        AcceleratorSpec spec;
        spec.name = "ffgate";
        spec.sets = {{"t", TaskSetKind::ForEach, 0, 2}};
        RuleSpec rule;
        rule.name = "noop_gate";
        rule.otherwise = true;
        spec.rules.push_back(rule);
        PipelineBuilder b("t", 0);
        b.allocRule("mk", 0,
                    [](const Token &) {
                        return std::array<Word, kMaxPayloadWords>{};
                    })
         .rendezvous("rdv")
         .store("st",
                [out_base](const Token &t) {
                    return out_base + t.words[0] % 8 * kWordBytes;
                },
                [](const Token &) { return Word(1); })
         .sink("done");
        spec.pipelines.push_back(b.build());
        for (uint64_t i = 0; i < n; ++i)
            spec.seed(0, {i});
        return spec;
    };
}

/** Expansion fan-out into timing-only stores. */
SpecFactory
expandFan()
{
    return [](MemorySystem &mem) {
        uint64_t region = mem.image().alloc(256);
        AcceleratorSpec spec;
        spec.name = "fffan";
        spec.sets = {{"t", TaskSetKind::ForEach, 0, 2}};
        PipelineBuilder b("t", 0);
        b.expand("fan",
                 [](const Token &t) {
                     return std::pair<uint64_t, uint64_t>(
                         0, 1 + t.words[0] % 5);
                 },
                 2)
         .storeTiming("st",
                      [region](const Token &t) {
                          return region + t.words[1] % 32 * kWordBytes;
                      })
         .sink("done");
        spec.pipelines.push_back(b.build());
        for (uint64_t i = 0; i < 12; ++i)
            spec.seed(0, {i});
        return spec;
    };
}

/** Priority (heap) task queue feeding a load. */
SpecFactory
priorityQueueLoads(uint64_t n)
{
    return [n](MemorySystem &mem) {
        uint64_t region = mem.image().alloc(1024);
        AcceleratorSpec spec;
        spec.name = "ffheap";
        spec.sets = {{"t", TaskSetKind::ForEach, 0, 2, true}};
        PipelineBuilder b("t", 0);
        b.load("ld",
               [region](const Token &t) {
                   return region + t.words[0] % 128 * kWordBytes;
               },
               2)
         .sink("done");
        spec.pipelines.push_back(b.build());
        for (uint64_t i = 0; i < n; ++i)
            spec.seed(0, {(i * 37) % n});
        return spec;
    };
}

TEST(FastForward, MemoryBoundRunIsBitIdentical)
{
    AccelConfig cfg;
    cfg.pipelinesPerSet = 2;
    cfg.mem.bandwidthScale = 0.05; // fig10-style starved link
    expectEquivalent(loadComputeStore(48), cfg);
}

TEST(FastForward, PrefetchingCacheIsBitIdentical)
{
    AccelConfig cfg;
    cfg.pipelinesPerSet = 2;
    cfg.mem.cache.prefetchNextLine = true;
    cfg.mem.bandwidthScale = 0.25;
    expectEquivalent(loadComputeStore(48), cfg);
}

TEST(FastForward, TinyMshrFileIsBitIdentical)
{
    // Few MSHRs and a slow link: the LSUs spend most cycles retrying
    // into a full miss file, exercising the reject-replay accounting.
    AccelConfig cfg;
    cfg.pipelinesPerSet = 4;
    cfg.lsuEntries = 8;
    cfg.mem.cache.mshrs = 2;
    cfg.mem.bandwidthScale = 0.05;
    expectEquivalent(loadComputeStore(64), cfg);
}

TEST(FastForward, HostFedGapsAreBitIdentical)
{
    AccelConfig cfg;
    cfg.hostBatch = 2;
    cfg.hostInterval = 500; // pipeline drains long before each batch
    expectEquivalent(hostFedTrickle(30), cfg);
}

TEST(FastForward, RuleGateIsBitIdentical)
{
    AccelConfig cfg;
    cfg.ruleLanes = 2; // allocator must stall and recycle lanes
    expectEquivalent(ruleGate(16), cfg);
}

TEST(FastForward, ExpandFanOutIsBitIdentical)
{
    AccelConfig cfg;
    cfg.fifoDepth = 1;
    cfg.mem.bandwidthScale = 0.2;
    expectEquivalent(expandFan(), cfg);
}

TEST(FastForward, PriorityQueueIsBitIdentical)
{
    AccelConfig cfg;
    cfg.pipelinesPerSet = 2;
    cfg.mem.bandwidthScale = 0.1;
    expectEquivalent(priorityQueueLoads(40), cfg);
}

TEST(FastForward, InOrderLsuIsBitIdentical)
{
    AccelConfig cfg;
    cfg.lsuInOrder = true;
    cfg.mem.bandwidthScale = 0.1;
    expectEquivalent(loadComputeStore(32), cfg);
}

// ------------------------------------------------ one per wake source

/**
 * A fast producer behind a slow consumer: the Alu stalls on its full
 * output FIFO (depth 1) in front of a one-entry load unit on a starved
 * link, and only the load unit's pop of that FIFO releases it.
 */
SpecFactory
fullFifoChain(uint64_t n)
{
    return [n](MemorySystem &mem) {
        uint64_t region = mem.image().alloc(4096);
        AcceleratorSpec spec;
        spec.name = "fffull";
        spec.sets = {{"t", TaskSetKind::ForEach, 0, 1}};
        PipelineBuilder b("t", 0);
        b.alu("inc", [](Token &t) { t.words[1] = t.words[0] + 1; })
         .load("ld",
               [region](const Token &t) {
                   return region + t.words[0] * 64; // a line per task
               },
               1)
         .sink("done");
        spec.pipelines.push_back(b.build());
        for (uint64_t i = 0; i < n; ++i)
            spec.seed(0, {i});
        return spec;
    };
}

TEST(WakeSources, FifoPopReleasesStalledProducer)
{
    AccelConfig cfg;
    cfg.fifoDepth = 1;
    cfg.lsuEntries = 1;
    cfg.mem.bandwidthScale = 0.05;
    expectEquivalent(fullFifoChain(24), cfg);
    RunResult rr;
    runFingerprint(fullFifoChain(24), cfg, true, nullptr, &rr);
    EXPECT_GT(statOf(rr, "stages", "Alu.stall"), 100.0);
}

/**
 * One rule lane for the whole machine, held across a starved load:
 * the AllocRule stage stalls on a full lane file until the rendezvous
 * releases the lane, which is the only thing that unblocks it.
 */
SpecFactory
laneStarvedGate(uint64_t n)
{
    return [n](MemorySystem &mem) {
        uint64_t region = mem.image().alloc(4096);
        AcceleratorSpec spec;
        spec.name = "fflane";
        spec.sets = {{"t", TaskSetKind::ForEach, 0, 2}};
        RuleSpec rule;
        rule.name = "gate";
        rule.otherwise = true;
        spec.rules.push_back(rule);
        PipelineBuilder b("t", 0);
        b.allocRule("mk", 0,
                    [](const Token &) {
                        return std::array<Word, kMaxPayloadWords>{};
                    })
         .load("ld",
               [region](const Token &t) {
                   return region + t.words[0] * 64;
               },
               1)
         .rendezvous("rdv")
         .sink("done");
        spec.pipelines.push_back(b.build());
        for (uint64_t i = 0; i < n; ++i)
            spec.seed(0, {i});
        return spec;
    };
}

TEST(WakeSources, LaneReleaseUnblocksAllocRule)
{
    AccelConfig cfg;
    cfg.pipelinesPerSet = 2;
    cfg.ruleLanes = 1;
    cfg.mem.bandwidthScale = 0.05;
    expectEquivalent(laneStarvedGate(20), cfg);
    RunResult rr;
    runFingerprint(laneStarvedGate(20), cfg, true, nullptr, &rr);
    EXPECT_GT(statOf(rr, "rule.gate", "alloc_fails"), 100.0);
}

/**
 * Two load units on one MSHR, reading the same lines in lock step: a
 * miss rejected for the MSHR becomes a miss-under-fill once the other
 * unit's miss on that line is in flight. Here the rejected unit's own
 * MSHR timer already lands on the cycle the line is installed; the
 * grant hook is what catches an install that takes no regular MSHR
 * (the reserve pin MSHR, OwnerChangeAllowsElasticPush below).
 */
SpecFactory
sharedLineLoads(uint64_t n)
{
    return [n](MemorySystem &mem) {
        uint64_t region = mem.image().alloc(4096);
        AcceleratorSpec spec;
        spec.name = "ffshare";
        spec.sets = {{"t", TaskSetKind::ForEach, 0, 1}};
        PipelineBuilder b("t", 0);
        b.load("ld",
               [region](const Token &t) {
                   return region + t.words[0] / 2 * 64; // pairs share
               },
               1)
         .sink("done");
        spec.pipelines.push_back(b.build());
        for (uint64_t i = 0; i < n; ++i)
            spec.seed(0, {i});
        return spec;
    };
}

TEST(WakeSources, RejectedMissBecomesMissUnderFill)
{
    AccelConfig cfg;
    cfg.pipelinesPerSet = 2;
    cfg.queueBanks = 2;
    cfg.mem.cache.mshrs = 1;
    cfg.mem.bandwidthScale = 0.1;
    expectEquivalent(sharedLineLoads(40), cfg);
    RunResult rr;
    runFingerprint(sharedLineLoads(40), cfg, true, nullptr, &rr);
    EXPECT_GT(statOf(rr, "mem", "mshr_rejects"), 0.0);
    EXPECT_GT(statOf(rr, "mem", "miss_under_fills"), 0.0);
}

/**
 * SPEC-MST on the single-MSHR, single-line machine of
 * test_liveness.cc: squash retries engage the liveness owner, whose
 * tokens push elastically past full FIFOs and issue through the
 * reserve pin MSHR — moves only an owner change allows.
 */
SpecFactory
degenerateMst()
{
    return [](MemorySystem &mem) {
        CsrGraph g = roadNetwork(7, 9, 0.08, 0.05, 500, 3);
        return buildSpecMst(g, mem).spec;
    };
}

TEST(WakeSources, OwnerChangeAllowsElasticPush)
{
    AccelConfig cfg;
    cfg.mem.cache.mshrs = 1;
    cfg.mem.cache.sizeBytes = 64;
    cfg.mem.cache.lineBytes = 64;
    cfg.fifoDepth = 1;
    expectEquivalent(degenerateMst(), cfg);
    RunResult rr;
    runFingerprint(degenerateMst(), cfg, true, nullptr, &rr);
    EXPECT_GT(statOf(rr, "liveness", "owner_changes"), 0.0);
    EXPECT_GT(statOf(rr, "mem", "pin_slot_fills"), 0.0);
}

TEST(WakeSources, SleepingStagesCutVisits)
{
    // On one MSHR the memory-bound pipeline is parked almost always:
    // at most a third of the stage-cycles may be visited.
    AccelConfig cfg;
    cfg.mem.cache.mshrs = 1;
    RunResult rr;
    runFingerprint(loadComputeStore(64), cfg, true, nullptr, &rr);
    uint64_t stages = static_cast<uint64_t>(statOf(rr, "accel", "stages"));
    EXPECT_LE(rr.tickPerf.stageVisits, rr.cycles * stages / 3)
        << rr.cycles << " cycles, " << stages << " stages";
}

// ------------------------------------------------------- fuzz designs

/**
 * The test_fuzz random-pipeline generator, reproduced as a factory so
 * both modes build the identical design, plus a config drawn from the
 * same seed.
 */
SpecFactory
fuzzPipeline(uint64_t seed)
{
    return [seed](MemorySystem &mem) {
        Rng rng(seed);
        const uint64_t n_tasks = 8 + rng.below(40);
        const uint64_t region = mem.image().alloc(4096);
        AcceleratorSpec spec;
        spec.name = "fffuzz";
        spec.sets = {{"t", TaskSetKind::ForEach, 0, 4}};
        PipelineBuilder b("t", 0);
        uint64_t expansion = 1;
        const int n_ops = 2 + static_cast<int>(rng.below(8));
        for (int i = 0; i < n_ops; ++i) {
            switch (rng.below(4)) {
              case 0:
                b.alu("alu" + std::to_string(i),
                      [](Token &t) { t.words[1] += 1; },
                      1 + static_cast<uint32_t>(rng.below(4)));
                break;
              case 1:
                b.load("ld" + std::to_string(i),
                       [region](const Token &t) {
                           return region + t.words[0] % 512 * kWordBytes;
                       },
                       2);
                break;
              case 2:
                b.storeTiming(
                    "st" + std::to_string(i),
                    [region](const Token &t) {
                        return region + (t.words[0] + 7) % 512 * kWordBytes;
                    });
                break;
              default: {
                uint64_t fan = 1 + rng.below(3);
                if (expansion * fan > 8)
                    break;
                expansion *= fan;
                b.expand("ex" + std::to_string(i),
                         [fan](const Token &) {
                             return std::pair<uint64_t, uint64_t>(0, fan);
                         },
                         3);
                break;
              }
            }
        }
        b.sink("done");
        spec.pipelines.push_back(b.build());
        for (uint64_t i = 0; i < n_tasks; ++i)
            spec.seed(0, {i});
        return spec;
    };
}

AccelConfig
fuzzConfig(uint64_t seed)
{
    Rng rng(~seed * 0x9e3779b97f4a7c15ULL + 1);
    AccelConfig cfg;
    cfg.pipelinesPerSet = 1 + static_cast<uint32_t>(rng.below(4));
    cfg.queueBanks = 1 + static_cast<uint32_t>(rng.below(4));
    cfg.lsuEntries = 2 + static_cast<uint32_t>(rng.below(8));
    cfg.lsuInOrder = rng.chance(0.3);
    cfg.fifoDepth = 1 + static_cast<uint32_t>(rng.below(4));
    cfg.mem.cache.mshrs = 2 + static_cast<uint32_t>(rng.below(6));
    // Mostly memory-starved draws: those runs are dominated by idle
    // cycles, which is where the fast-forward actually engages.
    cfg.mem.bandwidthScale = rng.chance(0.75) ? 0.05 : 1.0;
    if (rng.chance(0.3)) {
        cfg.hostBatch = 1 + static_cast<uint32_t>(rng.below(8));
        cfg.hostInterval = 1 + rng.below(300);
    }
    return cfg;
}

class FastForwardFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(FastForwardFuzz, RandomPipelineIsBitIdentical)
{
    uint64_t seed = GetParam();
    expectEquivalent(fuzzPipeline(seed), fuzzConfig(seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastForwardFuzz,
                         ::testing::Range<uint64_t>(1, 17));

// ------------------------------------------------- watchdog behaviour

/** Minimal spec used by the watchdog tests. */
AcceleratorSpec
tinySpec(int seeds)
{
    AcceleratorSpec spec;
    spec.name = "wd";
    spec.sets = {{"t", TaskSetKind::ForEach, 0, 1}};
    PipelineBuilder b("t", 0);
    b.alu("nop", [](Token &) {}).sink("done");
    spec.pipelines.push_back(b.build());
    for (int i = 0; i < seeds; ++i)
        spec.seed(0, {Word(i)});
    return spec;
}

TEST(FastForwardDeath, DeadlockCyclesBelowOtherwiseTimeoutIsFatal)
{
    setQuietLogging(true);
    MemorySystem mem;
    AcceleratorSpec spec = tinySpec(1);
    AccelConfig cfg;
    cfg.otherwiseTimeout = 64;
    cfg.deadlockCycles = 64; // must be strictly greater
    EXPECT_EXIT(Accelerator(spec, cfg, mem),
                ::testing::ExitedWithCode(1), "deadlockCycles");
}

TEST(FastForwardDeath, WatchdogPanicsAtTheSameCycleInBothModes)
{
    setQuietLogging(true);
    // Reference: the same one-task pipeline, completing normally. Its
    // final progress cycle is rr.cycles - 1 (run() stops at the tick
    // that drains the tracker).
    uint64_t drained;
    {
        MemorySystem mem;
        AcceleratorSpec spec = tinySpec(1);
        AccelConfig cfg;
        cfg.hostBatch = 1;
        cfg.hostInterval = 1 << 20;
        drained = Accelerator(spec, cfg, mem).run().cycles - 1;
    }

    // Now keep a second task pending behind a host interval far past
    // the watchdog: after the first task drains, nothing can move, and
    // the watchdog must declare deadlock at exactly
    // lastProgress + deadlockCycles + 1 — fast-forwarded or not.
    AccelConfig cfg;
    cfg.hostBatch = 1;
    cfg.hostInterval = 1 << 20;
    cfg.deadlockCycles = 777;
    std::string expect =
        "deadlocked at cycle " + std::to_string(drained + 777 + 1) + " ";
    for (bool ff : {true, false}) {
        cfg.fastForward = ff;
        EXPECT_DEATH(
            {
                setQuietLogging(true);
                MemorySystem mem;
                AcceleratorSpec spec = tinySpec(2);
                Accelerator(spec, cfg, mem).run();
            },
            expect)
            << "fastForward=" << ff;
    }
}

TEST(FastForward, WatchdogCountsSimulatedCyclesNotTicks)
{
    // A host-fed gap much longer than deadlockCycles is fine as long
    // as injections keep arriving before the threshold: the wake-up
    // at each host interval resets nothing by itself, but the batch it
    // injects does. The run must complete without tripping the
    // watchdog in either mode.
    for (bool ff : {true, false}) {
        setQuietLogging(true);
        MemorySystem mem;
        AcceleratorSpec spec = tinySpec(6);
        AccelConfig cfg;
        cfg.hostBatch = 1;
        cfg.hostInterval = 700;
        cfg.deadlockCycles = 1000;
        cfg.fastForward = ff;
        RunResult rr = Accelerator(spec, cfg, mem).run();
        EXPECT_EQ(rr.tasksExecuted, 6u);
        EXPECT_GE(rr.cycles, 5u * 700u);
    }
}

} // namespace
} // namespace apir
