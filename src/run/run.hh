/**
 * @file
 * Running the apps: the standard workloads (scaled by --scale), one
 * accelerator run of any registered app (run/apps.hh) with optional
 * checkpoint save/restore, parallel sweeps of such runs, and the
 * stats-json object of a run. The benches, the DSE demo, apird and
 * the tests all run simulations through this one path, which is what
 * makes their payloads byte-identical to each other.
 */

#ifndef APIR_RUN_RUN_HH
#define APIR_RUN_RUN_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cpumodel/xeon_model.hh"
#include "graph/csr.hh"
#include "hw/accelerator.hh"
#include "support/json.hh"

namespace apir {
namespace bench {

struct AppDescriptor;

/** An app, by its position in the registry (run/apps.hh). */
struct Bench
{
    uint32_t id = 0;

    /** The app's registry entry. */
    const AppDescriptor *operator->() const;

    bool operator==(const Bench &) const = default;
};

/**
 * The paper's six figure apps, in paper order: the registry lists
 * them first.
 */
inline constexpr Bench kAllBenches[] = {{0}, {1}, {2}, {3}, {4}, {5}};

/** The app's paper name, e.g. "SPEC-BFS". */
const char *benchName(Bench b);

/**
 * Checkpoint save/restore directives for one accelerator run
 * (docs/checkpointing.md). Prefixes name files PREFIX.<BENCH>.ckpt so
 * a bench that runs several benchmarks per invocation writes one file
 * each. Empty prefixes disable the corresponding direction.
 */
struct CheckpointOptions
{
    uint64_t saveCycle = 0;    //!< cycle at which the save hook fires
    /**
     * --checkpoint-save auto:PREFIX — pick the save cycle per run
     * instead of globally: runAccelerator first runs the simulation
     * cold to learn its drain cycle, then re-runs it saving at 3/4 of
     * that. Costs one extra run per save, but yields a warmup point
     * proportional to each benchmark's own length — the property the
     * fig10 warmup-amortization sweep needs, where a single global
     * cycle is capped by the shortest benchmark.
     */
    bool saveAuto = false;
    std::string savePrefix;    //!< --checkpoint-save CYCLE:PREFIX
    std::string restorePrefix; //!< --checkpoint-restore PREFIX

    bool
    any() const
    {
        return !savePrefix.empty() || !restorePrefix.empty();
    }
};

/** Wall-clock seconds of fn (best of `reps`). */
double timeSeconds(const std::function<void()> &fn, int reps = 3);

/** The standard Figure 9/10 workloads at a given scale. */
struct Workloads
{
    CsrGraph road;            //!< BFS / SSSP / MST input (USA stand-in)
    uint32_t meshPoints = 0;  //!< DMR input size
    uint32_t luBlocks = 0;    //!< LU block rows
    uint32_t luBlockSize = 0;
    double luDensity = 0.0;
    /**
     * RNG seed the generators were (and, for the mesh / LU inputs
     * drawn inside runAccelerator, will be) fed. Workloads are pure
     * functions of (scale, seed) — the property the apird workload
     * cache is built on.
     */
    uint32_t seed = 42;
    /**
     * The scale the generators were fed, recorded so checkpoint
     * metadata can pin the exact (scale, seed) identity a restore must
     * rebuild from.
     */
    double scale = 1.0;
};

Workloads makeWorkloads(double scale, uint32_t seed = 42);

/** One simulated-accelerator run, generically. */
struct AccelRun
{
    double seconds = 0.0; //!< simulated time at 200 MHz
    RunResult rr;
    /** Work executed, for the Xeon timing model (Figure 9). */
    WorkCounts work;
};

/**
 * Build and run the accelerator for one app on the standard
 * workload, verifying the result against the app's sequential
 * reference when `verify` is set (a mismatch is fatal). Host-fed apps
 * get the paper's incremental host injection unless `cfg` sets a
 * host batch. When `ck` carries a restore prefix the machine is
 * rebuilt from (app, scale, seed, cfg), the serialized dynamic state
 * is overlaid, and the run resumes from the saved cycle; when it
 * carries a save prefix the full machine + host state is written to
 * PREFIX.<BENCH>.ckpt at the scheduled cycle.
 */
AccelRun runAccelerator(Bench b, const Workloads &w, AccelConfig cfg,
                        bool verify = false,
                        const CheckpointOptions &ck = {});

/** The checkpoint file a run of benchmark `b` reads or writes. */
std::string checkpointPath(const std::string &prefix, Bench b);

/** One independent simulation in a sweep. */
struct SweepJob
{
    Bench bench;
    AccelConfig cfg;
    bool verify = false;
    CheckpointOptions ckpt;
};

/**
 * Run every job (each an independent runAccelerator call owning its
 * own MemorySystem, Accelerator, and StatRegistry) on up to `threads`
 * workers (0 = hardware concurrency) and return results in submission
 * order. Results are bit-identical to a serial run regardless of the
 * thread count. Jobs may not carry trace hooks (cfg.trace /
 * cfg.tracer) when threads > 1: those sinks are not synchronized.
 */
std::vector<AccelRun> runSweep(const std::vector<SweepJob> &jobs,
                               const Workloads &w, unsigned threads);

/** Default accelerator configuration used by the benches. */
AccelConfig defaultAccelConfig();

/**
 * JSON for one accelerator run: summary scalars plus every
 * per-component statistic group (cache/QPI, queues, rule engines,
 * stage-kind breakdown) under "stats". Benches append identifying
 * labels (benchmark name, knob values) to the returned object.
 */
JsonValue runToJson(const AccelRun &run);

} // namespace bench
} // namespace apir

#endif // APIR_RUN_RUN_HH
