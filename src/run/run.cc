#include "run/run.hh"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "checkpoint/ckpt.hh"
#include "config/canonical.hh"
#include "graph/generators.hh"
#include "run/apps.hh"
#include "support/logging.hh"
#include "support/thread_pool.hh"

namespace apir {
namespace bench {

JsonValue
runToJson(const AccelRun &run)
{
    JsonValue j = JsonValue::object();
    j.set("cycles", JsonValue::number(
                        static_cast<double>(run.rr.cycles)));
    j.set("seconds", JsonValue::number(run.seconds));
    j.set("utilization", JsonValue::number(run.rr.utilization));
    j.set("tasks_executed",
          JsonValue::number(static_cast<double>(run.rr.tasksExecuted)));
    j.set("tasks_activated",
          JsonValue::number(static_cast<double>(run.rr.tasksActivated)));
    j.set("squashed",
          JsonValue::number(static_cast<double>(run.rr.squashed)));

    JsonValue stats = JsonValue::object();
    for (const StatGroup &g : run.rr.groups) {
        JsonValue comp = JsonValue::object();
        for (const auto &[key, val] : g.values())
            comp.set(key, JsonValue::number(val));
        stats.set(g.name(), std::move(comp));
    }
    j.set("stats", std::move(stats));
    return j;
}

double
timeSeconds(const std::function<void()> &fn, int reps)
{
    double best = 1e30;
    for (int r = 0; r < reps; ++r) {
        auto t0 = std::chrono::steady_clock::now();
        fn();
        auto t1 = std::chrono::steady_clock::now();
        best = std::min(best,
                        std::chrono::duration<double>(t1 - t0).count());
    }
    return best;
}

Workloads
makeWorkloads(double scale, uint32_t seed)
{
    Workloads w;
    w.seed = seed;
    w.scale = scale;
    // Sized so working sets exceed the 64 KB device cache by an
    // order of magnitude: the paper's evaluation is memory-bound.
    auto dim = static_cast<uint32_t>(96 * std::sqrt(scale));
    w.road = roadNetwork(dim, dim, 0.08, 0.05, 1000, seed);
    w.meshPoints = static_cast<uint32_t>(1200 * scale);
    w.luBlocks = static_cast<uint32_t>(24 * std::sqrt(scale));
    w.luBlockSize = 16;
    w.luDensity = 0.3;
    return w;
}

const char *
benchName(Bench b)
{
    return b->name;
}

AccelConfig
defaultAccelConfig()
{
    AccelConfig cfg;
    cfg.pipelinesPerSet = 4;
    cfg.ruleLanes = 32;
    cfg.queueBanks = 4;
    return cfg;
}

std::string
checkpointPath(const std::string &prefix, Bench b)
{
    return prefix + "." + benchName(b) + ".ckpt";
}

namespace {

/**
 * The whole checkpoint file as one visitor, run by the Writer at the
 * save cycle and by the Reader right after the deterministic rebuild.
 * The header sections pin the identity a restore must match: the
 * structural config key (fatal on mismatch — the serialized state
 * would not fit the machine), the full canonical key (warning only,
 * enabling warmup-once-sweep-many runs where timing knobs such as the
 * bandwidth scale differ), and the (benchmark, scale, seed) workload
 * identity (fatal — a different workload makes the state
 * meaningless). `host` visits the application's host-side state;
 * benchmarks whose state lives entirely in device memory pass none,
 * and their host.state section is empty so the layout stays uniform.
 */
void
visitCheckpoint(ckpt::Archive &ar, Accelerator &accel,
                const AccelConfig &cfg, Bench b, const Workloads &w,
                const std::function<void(ckpt::Archive &)> &host)
{
    std::string structural = configStructuralKey(cfg);
    std::string canonical = configCanonicalKey(cfg);
    ar.section("ckpt.config", structural, canonical);
    if (structural != configStructuralKey(cfg))
        fatal("checkpoint: ", ar.path(), " was saved on a structurally "
              "different machine; saved [", structural,
              "], this run builds [", configStructuralKey(cfg),
              "] — restore requires identical structural knobs");
    if (canonical != configCanonicalKey(cfg))
        warn("checkpoint: ", ar.path(), " was saved under different "
             "timing knobs; the restored run mixes the two regimes "
             "(expected for warmup-reuse bandwidth sweeps, wrong "
             "for byte-identity checks)");
    std::string bench = benchName(b);
    std::string scale = canonicalDouble(w.scale);
    uint32_t seed = w.seed;
    ar.section("ckpt.meta", bench, scale, seed);
    if (bench != benchName(b))
        fatal("checkpoint: ", ar.path(), " holds a ", bench,
              " run, not ", benchName(b));
    if (scale != canonicalDouble(w.scale) || seed != w.seed)
        fatal("checkpoint: ", ar.path(),
              " was saved at workload scale=", scale, " seed=", seed,
              "; this run generates scale=", canonicalDouble(w.scale),
              " seed=", w.seed,
              " — the rebuilt workload would not match the "
              "serialized state");
    accel.visitState(ar);
    ar.begin("host.state");
    if (host)
        host(ar);
    ar.end();
}

/**
 * Attach the checkpoint directives to a freshly built machine: restore
 * immediately (overlaying serialized state on the deterministic
 * rebuild), and/or schedule the save hook.
 */
void
wireCheckpoint(Accelerator &accel, const AccelConfig &cfg, Bench b,
               const Workloads &w, const CheckpointOptions &ck,
               const std::function<void(ckpt::Archive &)> &host)
{
    if (!ck.restorePrefix.empty()) {
        ckpt::Reader r(checkpointPath(ck.restorePrefix, b));
        visitCheckpoint(r, accel, cfg, b, w, host);
        if (!r.atEnd())
            fatal("checkpoint: ", r.path(),
                  " has trailing data after the host.state section");
    }
    if (!ck.savePrefix.empty()) {
        std::string path = checkpointPath(ck.savePrefix, b);
        accel.scheduleCheckpointSave(
            ck.saveCycle, [&accel, &cfg, b, &w, host, path] {
                ckpt::Writer wtr;
                visitCheckpoint(wtr, accel, cfg, b, w, host);
                wtr.finish(path);
            });
    }
}

} // namespace

AccelRun
runAccelerator(Bench b, const Workloads &w, AccelConfig cfg, bool verify,
               const CheckpointOptions &ck)
{
    if (ck.saveAuto && !ck.savePrefix.empty()) {
        // auto:PREFIX — calibrate the save cycle against this run's
        // own length: run cold (checkpoint-free, identical results by
        // the no-perturb contract), then re-run saving at 3/4 of the
        // measured drain cycle. The second run's results are returned,
        // so a saving invocation still reports the same numbers as a
        // plain one.
        CheckpointOptions calib;
        calib.restorePrefix = ck.restorePrefix;
        AccelRun cold = runAccelerator(b, w, cfg, false, calib);
        CheckpointOptions at = ck;
        at.saveAuto = false;
        at.saveCycle = std::max<uint64_t>(1, cold.rr.cycles / 4 * 3);
        return runAccelerator(b, w, cfg, verify, at);
    }
    setQuietLogging(true);
    if (b->hostFed && cfg.hostBatch == 0) {
        cfg.hostBatch = 16;
        cfg.hostInterval = 64;
    }
    MemorySystem mem(cfg.mem);
    BuiltApp app = b->build(w, mem);
    Accelerator accel(app.spec, cfg, mem);
    wireCheckpoint(accel, cfg, b, w, ck, app.hostState);
    AccelRun out;
    out.rr = accel.run();
    if (verify && !app.verify(mem))
        fatal(benchName(b), " verification failed");
    out.work = app.work(mem);
    out.seconds = out.rr.seconds;
    return out;
}

std::vector<AccelRun>
runSweep(const std::vector<SweepJob> &jobs, const Workloads &w,
         unsigned threads)
{
    if (threads == 0)
        threads = ThreadPool::hardwareThreads();
    if (threads > 1) {
        // Trace sinks are plain ostreams/tracers with no locking; a
        // shared sink across concurrent runs would interleave noise.
        for (const SweepJob &j : jobs)
            if (j.cfg.trace || j.cfg.tracer)
                fatal("runSweep: jobs with trace hooks require "
                      "--threads 1");
    }
    // Two jobs saving to the same checkpoint file would race (or, run
    // serially, silently clobber each other); the caller must give
    // each saving job a distinct (bench, prefix).
    for (size_t i = 0; i < jobs.size(); ++i) {
        if (jobs[i].ckpt.savePrefix.empty())
            continue;
        std::string pi = checkpointPath(jobs[i].ckpt.savePrefix,
                                        jobs[i].bench);
        for (size_t j = i + 1; j < jobs.size(); ++j) {
            if (jobs[j].ckpt.savePrefix.empty())
                continue;
            if (pi == checkpointPath(jobs[j].ckpt.savePrefix,
                                     jobs[j].bench))
                fatal("runSweep: jobs ", i, " and ", j,
                      " both save checkpoint ", pi);
        }
    }
    setQuietLogging(true);
    std::vector<AccelRun> results(jobs.size());
    parallelForEach(jobs.size(), threads, [&](size_t i) {
        results[i] = runAccelerator(jobs[i].bench, w, jobs[i].cfg,
                                    jobs[i].verify, jobs[i].ckpt);
    });
    return results;
}

} // namespace bench
} // namespace apir
