/**
 * @file
 * The repository benchmark's driver (README.md in this directory).
 *
 *   perfbench_driver --workload <fig9-default|fig10-starved-warm|
 *                    apird-mixed> --seed N --seconds S --trace 0|1
 *                    --root DIR --work DIR --apird PATH
 *
 * Runs one workload for S seconds and prints, as its last stdout line,
 * {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
 * metrics are the end-to-end ones; with --trace 1 they are the
 * per-layer ones, taken from spans the driver records around its calls
 * into each layer plus the counters the program already returns
 * (RunResult, TickPerf, the stat groups and apird's op:stats). The
 * program itself is not instrumented.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "config/loader.hh"
#include "geometry/mesh.hh"
#include "server/protocol.hh"
#include "server/service.hh"
#include "sparse/block_sparse.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/thread_pool.hh"

#include "measure.hh"

extern char **environ;

using namespace apir;
using namespace apir::bench;
using namespace perfbench;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double
now()
{
    return std::chrono::duration<double>(Clock::now().time_since_epoch())
        .count();
}

void
sleepUntil(double t)
{
    std::this_thread::sleep_until(Clock::time_point(
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(t))));
}

/** Sweep workers: the load may use at most four threads. */
constexpr unsigned kWorkers = 4;
/**
 * Set-ups per run; setup_s is their median. A figure run sets up this
 * many input sets, from seeds derived from --seed, and rotates its
 * timed job sets through them.
 */
constexpr int kSetups = 3;
/**
 * fig9's set-up is input generation alone, a few ms per input set, so
 * an untraced run repeats it this many times per set to give setup_s a
 * steady median.
 */
constexpr int kFig9SetupRepeats = 7;
/** The unit of simulated work figure latencies are given per. */
constexpr double kCostCycles = 1e5;

// apird-mixed traffic (README.md has the reasons for each number).
constexpr double kHitRatePerConn = 2000.0;
constexpr int kHitConns = 2;
constexpr double kHitScale = 0.3;
constexpr double kMissScale = 0.3;
/** Misses needed for a p90 with ten samples beyond it. */
constexpr size_t kMinMisses = 100;

// ---------------------------------------------------------------- output

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** The end-to-end metrics, measured on every workload. */
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},         {"peak_rss_mb", "MB"},
    {"ok_frac", "frac"},      {"sim_cycles_per_s", "1/s"},
    {"p50_ms", "ms"},         {"tail_ms", "ms"},
};

/**
 * The per-layer metrics. A workload that does not exercise a layer
 * reports 0 for it (README.md, "Per-layer metrics").
 */
constexpr MetricDef kPerLayer[] = {
    {"workload.gen_s", "s"},
    {"hw.run_s", "s"},
    {"hw.run_s.SPEC-BFS", "s"},
    {"hw.run_s.COOR-BFS", "s"},
    {"hw.run_s.SPEC-SSSP", "s"},
    {"hw.run_s.SPEC-MST", "s"},
    {"hw.run_s.SPEC-DMR", "s"},
    {"hw.run_s.COOR-LU", "s"},
    {"hw.ticks", "count"},
    {"hw.stage_visits", "count"},
    {"hw.visits_per_cycle", "1/cycle"},
    {"hw.ns_per_visit", "ns"},
    {"hw.ff_skips", "count"},
    {"hw.skipped_frac", "frac"},
    {"hw.wake_recomputes", "count"},
    {"hw.arena_allocs", "count"},
    {"hw.cycles", "cycles"},
    {"hw.utilization", "frac"},
    {"hw.squash_frac", "frac"},
    {"stages.busy", "cycles"},
    {"stages.stall", "cycles"},
    {"stages.idle", "cycles"},
    {"stages.Load.stall", "cycles"},
    {"queue.pops", "count"},
    {"queue.max_occupancy", "count"},
    {"queue.retry_overflows", "count"},
    {"rule.events", "count"},
    {"rule.alloc_fail_frac", "frac"},
    {"liveness.squash_retries", "count"},
    {"liveness.backoff_stall_cycles", "cycles"},
    {"mem.reads", "count"},
    {"mem.writes", "count"},
    {"mem.hit_frac", "frac"},
    {"mem.mshr_rejects", "count"},
    {"mem.qpi_bytes", "B"},
    {"mem.qpi_busy_frac", "frac"},
    {"apps.verify_s", "s"},
    {"cpumodel.s", "s"},
    {"checkpoint.save_s", "s"},
    {"checkpoint.bytes", "B"},
    {"server.parse_us", "us"},
    {"server.handle_hit_us", "us"},
    {"server.handle_miss_ms", "ms"},
    {"server.hit_wait_p99_ms", "ms"},
    {"server.queue_max_depth", "count"},
    {"server.result_hits", "count"},
    {"server.result_misses", "count"},
    {"server.workload_misses", "count"},
    {"server.self_p50_ms", "ms"},
    {"server.self_p99_ms", "ms"},
    {"client.hit_p50_ms", "ms"},
    {"client.hit_p99_ms", "ms"},
    {"client.late_p99_ms", "ms"},
    {"client.sims_per_s", "1/s"},
    {"trace.overhead_frac", "frac"},
};

/** What one run measured: tallies plus metric values by name. */
struct Result
{
    Tally tally;
    bool correct = true;
    std::map<std::string, double> values;
};

/** Print the result line: exactly the metrics of the chosen list. */
void
printResult(const Result &r, bool trace)
{
    JsonValue metrics = JsonValue::object();
    auto emit = [&](const MetricDef &m) {
        auto it = r.values.find(m.name);
        double v = it == r.values.end() ? 0.0 : it->second;
        JsonValue mv = JsonValue::object();
        mv.set("value", JsonValue::number(v));
        mv.set("unit", JsonValue::str(m.unit));
        metrics.set(m.name, std::move(mv));
    };
    if (trace)
        for (const MetricDef &m : kPerLayer)
            emit(m);
    else
        for (const MetricDef &m : kEndToEnd)
            emit(m);
    JsonValue doc = JsonValue::object();
    doc.set("correct", JsonValue::boolean(r.correct));
    doc.set("attempted",
            JsonValue::number(static_cast<double>(r.tally.attempted)));
    doc.set("failed",
            JsonValue::number(static_cast<double>(r.tally.failed)));
    doc.set("metrics", std::move(metrics));
    std::printf("%s\n", doc.dump().c_str());
    std::fflush(stdout);
}

double
peakRssMbSelf()
{
    struct rusage ru;
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ----------------------------------------------------------------- spans

/**
 * Spans the driver records around its calls into the program's layers,
 * kept in memory and written as a Chrome trace when the run ends.
 * Every recording site takes a Spans pointer; null means tracing off.
 */
class Spans
{
  public:
    struct Span
    {
        std::string layer;
        std::string fn;
        std::string label;
        uint64_t id = 0;
        uint64_t parent = 0;
        double t0 = 0.0;
        double t1 = 0.0;
        uint64_t tid = 0;
    };

    uint64_t nextId() { return ++ids_; }

    void
    add(Span s)
    {
        std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back(std::move(s));
    }

    size_t
    mark() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return spans_.size();
    }

    /** Durations of the spans recorded since `from` that match. */
    std::vector<double>
    durations(size_t from, const std::string &layer,
              const std::string &label = "") const
    {
        std::lock_guard<std::mutex> lock(mu_);
        std::vector<double> out;
        for (size_t i = from; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            if (s.layer == layer && (label.empty() || s.label == label))
                out.push_back(s.t1 - s.t0);
        }
        return out;
    }

    double
    sum(size_t from, const std::string &layer,
        const std::string &label = "") const
    {
        double t = 0.0;
        for (double d : durations(from, layer, label))
            t += d;
        return t;
    }

    /** Write the spans as Chrome trace events (chrome://tracing). */
    void
    write(const std::string &path) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        double base = spans_.empty() ? 0.0 : spans_.front().t0;
        for (const Span &s : spans_)
            base = std::min(base, s.t0);
        JsonValue events = JsonValue::array();
        for (const Span &s : spans_) {
            JsonValue e = JsonValue::object();
            e.set("name", JsonValue::str(s.layer + "." + s.fn));
            e.set("cat", JsonValue::str(s.layer));
            e.set("ph", JsonValue::str("X"));
            e.set("ts", JsonValue::number((s.t0 - base) * 1e6));
            e.set("dur", JsonValue::number((s.t1 - s.t0) * 1e6));
            e.set("pid", JsonValue::number(1));
            e.set("tid", JsonValue::number(static_cast<double>(s.tid)));
            JsonValue args = JsonValue::object();
            args.set("label", JsonValue::str(s.label));
            args.set("id", JsonValue::number(static_cast<double>(s.id)));
            args.set("parent",
                     JsonValue::number(static_cast<double>(s.parent)));
            e.set("args", std::move(args));
            events.push(std::move(e));
        }
        JsonValue doc = JsonValue::object();
        doc.set("traceEvents", std::move(events));
        std::ofstream os(path);
        if (!os)
            throw std::runtime_error("cannot write " + path);
        doc.write(os);
        os << "\n";
    }

  private:
    std::atomic<uint64_t> ids_{0};
    mutable std::mutex mu_;
    // A deque never moves what it holds, so recording a span never
    // stalls its thread on a reallocation.
    std::deque<Span> spans_;
};

uint64_t
threadIndex()
{
    static std::atomic<uint64_t> next{0};
    thread_local uint64_t mine = ++next;
    return mine;
}

/** One span around the enclosing scope; does nothing without Spans. */
class SpanScope
{
  public:
    SpanScope(Spans *spans, std::string layer, std::string fn,
              std::string label = "", uint64_t parent = 0)
        : spans_(spans)
    {
        if (!spans_)
            return;
        s_.layer = std::move(layer);
        s_.fn = std::move(fn);
        s_.label = std::move(label);
        s_.parent = parent;
        s_.id = spans_->nextId();
        s_.tid = threadIndex();
        s_.t0 = now();
    }

    ~SpanScope()
    {
        if (!spans_)
            return;
        s_.t1 = now();
        spans_->add(std::move(s_));
    }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    uint64_t id() const { return s_.id; }

  private:
    Spans *spans_;
    Spans::Span s_;
};

// ------------------------------------------------- counters of the runs

/**
 * Sums of the simulated-machine counters over a set of runs, read from
 * the stats-json object bench::runToJson builds (the same document the
 * digests cover and apird returns), plus the host-side TickPerf where
 * the run is in this process.
 */
struct Layers
{
    double cycles = 0;      //!< post-restore cycles
    double totalCycles = 0; //!< including any restored prefix
    double utilSum = 0;
    double runs = 0;
    double squashed = 0;
    double activated = 0;
    double busy = 0, stall = 0, idle = 0, loadStall = 0;
    double pops = 0, maxOcc = 0, retryOverflows = 0;
    double ruleEvents = 0, allocs = 0, allocFails = 0;
    double squashRetries = 0, backoff = 0;
    double reads = 0, writes = 0, hits = 0, misses = 0, mshr = 0;
    double qpiBytes = 0, qpiBusy = 0;
    TickPerf perf;

    static double
    num(const JsonValue &obj, const char *key)
    {
        const JsonValue *v = obj.find(key);
        return v && v->isNumber() ? v->asNumber() : 0.0;
    }

    static bool
    endsWith(const std::string &s, const std::string &suffix)
    {
        return s.size() >= suffix.size() &&
               s.compare(s.size() - suffix.size(), suffix.size(),
                         suffix) == 0;
    }

    void
    addRun(const JsonValue &run, uint64_t startCycle)
    {
        double c = num(run, "cycles");
        cycles += c - static_cast<double>(startCycle);
        totalCycles += c;
        utilSum += num(run, "utilization");
        runs += 1;
        squashed += num(run, "squashed");
        activated += num(run, "tasks_activated");
        const JsonValue *stats = run.find("stats");
        if (!stats)
            return;
        for (const auto &[group, g] : stats->members()) {
            if (group == "stages") {
                for (const auto &[k, v] : g.members()) {
                    if (endsWith(k, ".busy"))
                        busy += v.asNumber();
                    else if (endsWith(k, ".stall"))
                        stall += v.asNumber();
                    else if (endsWith(k, ".idle"))
                        idle += v.asNumber();
                }
                loadStall += num(g, "Load.stall");
            } else if (group.rfind("queue.", 0) == 0) {
                pops += num(g, "pops");
                maxOcc = std::max(maxOcc, num(g, "max_occupancy"));
                retryOverflows += num(g, "retry_overflows");
            } else if (group.rfind("rule.", 0) == 0) {
                ruleEvents += num(g, "events");
                allocs += num(g, "allocs");
                allocFails += num(g, "alloc_fails");
            } else if (group == "liveness") {
                squashRetries += num(g, "squash_retries");
                backoff += num(g, "backoff_stall_cycles");
            } else if (group == "mem") {
                reads += num(g, "reads");
                writes += num(g, "writes");
                hits += num(g, "cache_hits");
                misses += num(g, "cache_misses");
                mshr += num(g, "mshr_rejects");
                qpiBytes += num(g, "qpi_bytes");
                qpiBusy += num(g, "qpi_busy_cycles");
            }
        }
    }

    void
    addPerf(const TickPerf &p)
    {
        perf.ticks += p.ticks;
        perf.stageVisits += p.stageVisits;
        perf.ffSkips += p.ffSkips;
        perf.skippedCycles += p.skippedCycles;
        perf.wakeRecomputes += p.wakeRecomputes;
        perf.arenaAllocs += p.arenaAllocs;
    }

    static double
    ratio(double a, double b)
    {
        return b > 0 ? a / b : 0.0;
    }

    /** Fill the counter-derived per-layer metrics. */
    void
    report(std::map<std::string, double> &v, double hwRunS) const
    {
        auto d = [](uint64_t x) { return static_cast<double>(x); };
        v["hw.ticks"] = d(perf.ticks);
        v["hw.stage_visits"] = d(perf.stageVisits);
        v["hw.visits_per_cycle"] = ratio(d(perf.stageVisits), d(perf.ticks));
        v["hw.ns_per_visit"] = ratio(hwRunS * 1e9, d(perf.stageVisits));
        v["hw.ff_skips"] = d(perf.ffSkips);
        v["hw.skipped_frac"] =
            ratio(d(perf.skippedCycles),
                  d(perf.ticks) + d(perf.skippedCycles));
        v["hw.wake_recomputes"] = d(perf.wakeRecomputes);
        v["hw.arena_allocs"] = d(perf.arenaAllocs);
        v["hw.cycles"] = cycles;
        v["hw.utilization"] = ratio(utilSum, runs);
        v["hw.squash_frac"] = ratio(squashed, activated);
        v["stages.busy"] = busy;
        v["stages.stall"] = stall;
        v["stages.idle"] = idle;
        v["stages.Load.stall"] = loadStall;
        v["queue.pops"] = pops;
        v["queue.max_occupancy"] = maxOcc;
        v["queue.retry_overflows"] = retryOverflows;
        v["rule.events"] = ruleEvents;
        v["rule.alloc_fail_frac"] = ratio(allocFails, allocs + allocFails);
        v["liveness.squash_retries"] = squashRetries;
        v["liveness.backoff_stall_cycles"] = backoff;
        v["mem.reads"] = reads;
        v["mem.writes"] = writes;
        v["mem.hit_frac"] = ratio(hits, hits + misses);
        v["mem.mshr_rejects"] = mshr;
        v["mem.qpi_bytes"] = qpiBytes;
        v["mem.qpi_busy_frac"] = ratio(qpiBusy, totalCycles);
    }
};

// ------------------------------------------------------- figure workloads

struct Args
{
    std::string workload;
    uint32_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string root = ".";
    std::string work;
    std::string apird;
};

/**
 * Generate the job set's inputs at `scale`: the road graph through
 * makeWorkloads, and the mesh and LU matrix through the generators
 * runAccelerator calls for SPEC-DMR and COOR-LU.
 */
Workloads
generateInputs(Spans *sp, double scale, uint32_t seed)
{
    Workloads w;
    {
        SpanScope s(sp, "workload", "roadNetwork");
        w = makeWorkloads(scale, seed);
    }
    {
        SpanScope s(sp, "workload", "randomDelaunayMesh");
        Mesh m = randomDelaunayMesh(w.meshPoints, w.seed);
        if (m.triangles().empty())
            throw std::runtime_error("empty generated mesh");
    }
    {
        SpanScope s(sp, "workload", "randomBlockSparse");
        BlockSparseMatrix a = randomBlockSparse(
            w.luBlocks, w.luBlockSize, w.luDensity, w.seed);
        if (a.numBlockRows() == 0)
            throw std::runtime_error("empty generated LU matrix");
    }
    return w;
}

/**
 * Run `jobs` on kWorkers workers the way bench::runSweep does (one
 * runAccelerator call per job on parallelForEach), timing each job from
 * outside and, when traced, recording it as a span.
 */
std::vector<AccelRun>
runJobs(const std::vector<SweepJob> &jobs, const Workloads &w, Spans *sp,
        const char *layer, const char *fn, std::vector<double> &jobS,
        uint64_t parent)
{
    std::vector<AccelRun> runs(jobs.size());
    jobS.assign(jobs.size(), 0.0);
    parallelForEach(jobs.size(), kWorkers, [&](size_t i) {
        SpanScope s(sp, layer, fn, benchName(jobs[i].bench), parent);
        double t0 = now();
        runs[i] = runAccelerator(jobs[i].bench, w, jobs[i].cfg,
                                 jobs[i].verify, jobs[i].ckpt);
        jobS[i] = now() - t0;
    });
    return runs;
}

/** One job set: what a fig9_speedup / fig10_bandwidth run computes. */
struct JobSet
{
    double wallS = 0.0;
    std::vector<AccelRun> runs;
    std::vector<double> jobS;       //!< host seconds of each job
    std::vector<std::string> stats; //!< runToJson of each run
};

/**
 * Run the job set once; Fig. 9 then feeds every run to the Xeon model,
 * as the bench does, and every run is serialized to its stats-json.
 */
JobSet
runJobSet(const std::vector<SweepJob> &jobs, const Workloads &w, bool fig9,
          Spans *sp)
{
    JobSet r;
    SpanScope set(sp, "driver", "jobSet");
    double t0 = now();
    r.runs = runJobs(jobs, w, sp, "hw", "runAccelerator", r.jobS, set.id());
    double cpu = 0.0;
    if (fig9) {
        XeonParams xeon;
        for (size_t i = 0; i < jobs.size(); ++i) {
            SpanScope s(sp, "cpumodel", "xeonTime",
                        benchName(jobs[i].bench), set.id());
            cpu += xeonTime(r.runs[i].work, xeon, 1) +
                   xeonTime(r.runs[i].work, xeon, 10);
        }
    }
    for (const AccelRun &run : r.runs)
        r.stats.push_back(runToJson(run).dump());
    r.wallS = now() - t0;
    if (fig9 && !(cpu > 0.0))
        throw std::runtime_error("Xeon model returned no time");
    return r;
}

/**
 * Simulation speed of each app over a job set: its post-restore
 * simulated cycles over the host seconds of its jobs, in paper order.
 */
std::vector<double>
appRates(const std::vector<SweepJob> &jobs, const JobSet &r)
{
    std::vector<double> rates;
    for (Bench b : kAllBenches) {
        double cycles = 0.0, secs = 0.0;
        for (size_t i = 0; i < jobs.size(); ++i)
            if (jobs[i].bench == b) {
                const RunResult &rr = r.runs[i].rr;
                cycles += static_cast<double>(rr.cycles - rr.startCycle);
                secs += r.jobS[i];
            }
        rates.push_back(cycles / secs);
    }
    return rates;
}

/**
 * The sequential references runAccelerator's verify step runs, one per
 * job, timed apart from the sweep (inside it they sit within hw.run_s).
 */
double
timeReferences(Spans &spans, const Workloads &w)
{
    size_t mark = spans.mark();
    {
        SpanScope s(&spans, "apps", "bfsSequential", "SPEC-BFS");
        bfsSequential(w.road, 0);
    }
    {
        SpanScope s(&spans, "apps", "bfsSequential", "COOR-BFS");
        bfsSequential(w.road, 0);
    }
    {
        SpanScope s(&spans, "apps", "ssspSequential", "SPEC-SSSP");
        ssspSequential(w.road, 0);
    }
    {
        SpanScope s(&spans, "apps", "mstSequential", "SPEC-MST");
        mstSequential(w.road);
    }
    Mesh mesh = randomDelaunayMesh(w.meshPoints, w.seed);
    {
        SpanScope s(&spans, "apps", "summarizeMesh", "SPEC-DMR");
        summarizeMesh(mesh, RefineParams{}, 0);
    }
    BlockSparseMatrix lu = randomBlockSparse(w.luBlocks, w.luBlockSize,
                                             w.luDensity, w.seed);
    {
        SpanScope s(&spans, "apps", "sparseLuSequential", "COOR-LU");
        sparseLuSequential(lu);
    }
    return spans.sum(mark, "apps");
}

/** One of a figure run's input sets, with its job set. */
struct InputSet
{
    Workloads w;
    std::vector<SweepJob> jobs;
    std::vector<uint64_t> refDigest; //!< of the verified reference set
};

/** Input set j of a run: inputs from a seed derived from --seed. */
uint32_t
inputSeed(uint32_t seed, int j)
{
    return seed + static_cast<uint32_t>(j) * 0x9e3779b9u;
}

Result
runFigure(const Args &a, bool fig9)
{
    Result res;
    Spans spans;
    Spans *sp = a.trace ? &spans : nullptr;
    setQuietLogging(true);

    AccelConfig cfg =
        fig9 ? defaultAccelConfig()
             : loadScenarioFile(a.root + "/scenarios/bandwidth_starved.conf",
                                defaultAccelConfig(), {})
                   .accel;
    // Set-up, once per input set: generate the inputs; fig10 also saves
    // one warm-up checkpoint per app at 3/4 of its x1 run
    // (--checkpoint-save auto), which every sweep point restores.
    std::vector<InputSet> inputs(kSetups);
    std::vector<double> setups;
    size_t setupMark = spans.mark();
    const int repeats = fig9 && !sp ? kFig9SetupRepeats : 1;
    for (int j = 0; j < kSetups; ++j) {
        InputSet &in = inputs[j];
        const std::string prefix = a.work + "/warm" + std::to_string(j);
        for (int r = 1; r < repeats; ++r) {
            double t0 = now();
            generateInputs(sp, 1.0, inputSeed(a.seed, j));
            setups.push_back(now() - t0);
        }
        double t0 = now();
        in.w = generateInputs(sp, 1.0, inputSeed(a.seed, j));
        if (!fig9) {
            std::vector<SweepJob> saves;
            for (Bench b : kAllBenches) {
                CheckpointOptions ck;
                ck.saveAuto = true;
                ck.savePrefix = prefix;
                saves.push_back({b, cfg, false, ck});
            }
            std::vector<double> saveS;
            runJobs(saves, in.w, sp, "checkpoint", "save", saveS, 0);
        }
        setups.push_back(now() - t0);
        for (Bench b : kAllBenches) {
            if (fig9) {
                in.jobs.push_back({b, cfg, true, {}});
                continue;
            }
            for (double x : {1.0, 2.0, 4.0, 8.0}) {
                AccelConfig c = cfg;
                c.mem.bandwidthScale *= x;
                CheckpointOptions ck;
                ck.restorePrefix = prefix;
                in.jobs.push_back({b, c, false, ck});
            }
        }
    }
    double ckptBytes = 0.0;
    if (!fig9)
        for (int j = 0; j < kSetups; ++j)
            for (Bench b : kAllBenches)
                ckptBytes += static_cast<double>(fs::file_size(checkpointPath(
                    a.work + "/warm" + std::to_string(j), b)));

    // Reference sets, verified against the sequential references and
    // untimed: their stats digests are what every later set of the same
    // inputs must repeat, traced or not. Their counters are the run's
    // per-layer counts.
    Layers layers;
    for (InputSet &in : inputs) {
        std::vector<SweepJob> verified = in.jobs;
        for (SweepJob &j : verified)
            j.verify = true;
        JobSet ref = runJobSet(verified, in.w, fig9, nullptr);
        for (size_t i = 0; i < in.jobs.size(); ++i) {
            const RunResult &rr = ref.runs[i].rr;
            in.refDigest.push_back(digest(ref.stats[i]));
            bool restored = fig9 || rr.startCycle > 0;
            res.tally.add(restored && rr.cycles > rr.startCycle
                              ? Outcome::Ok
                              : Outcome::Error);
            layers.addRun(JsonValue::parse(ref.stats[i]), rr.startCycle);
            layers.addPerf(rr.tickPerf);
            std::printf("digest seed=%u %s", in.w.seed,
                        benchName(in.jobs[i].bench));
            if (!fig9)
                std::printf(" x%g", in.jobs[i].cfg.mem.bandwidthScale /
                                        cfg.mem.bandwidthScale);
            std::printf(" %016llx\n",
                        static_cast<unsigned long long>(in.refDigest[i]));
        }
    }

    // Timed sets rotate through the input sets. Traced runs alternate
    // untraced and traced sets, so the tracing overhead compares like
    // with like.
    std::vector<double> walls, geoRate;
    std::vector<std::vector<double>> plainWalls(kSetups);
    std::vector<std::vector<double>> perApp(std::size(kAllBenches));
    // Traced span sums per input set, by layer or app.
    std::vector<std::map<std::string, std::vector<double>>> traced(
        kSetups);
    const size_t enough = (sp ? 2 : 1) * kSetups;
    const double end = now() + a.seconds;
    for (size_t n = 0; now() < end || n < enough; ++n) {
        bool tracedSet = sp && n % 2 == 1;
        InputSet &in = inputs[n % kSetups];
        size_t mark = spans.mark();
        JobSet r = runJobSet(in.jobs, in.w, fig9, tracedSet ? sp : nullptr);
        for (size_t i = 0; i < in.jobs.size(); ++i)
            res.tally.add(digest(r.stats[i]) == in.refDigest[i]
                              ? Outcome::Ok
                              : Outcome::Mismatch);
        if (tracedSet) {
            auto &t = traced[n % kSetups];
            t["wall"].push_back(r.wallS);
            t["hw"].push_back(spans.sum(mark, "hw"));
            t["cpumodel"].push_back(spans.sum(mark, "cpumodel"));
            for (Bench b : kAllBenches)
                t[benchName(b)].push_back(
                    spans.sum(mark, "hw", benchName(b)));
            continue;
        }
        walls.push_back(r.wallS);
        plainWalls[n % kSetups].push_back(r.wallS);
        std::vector<double> rates = appRates(in.jobs, r);
        double logSum = 0.0;
        for (size_t k = 0; k < rates.size(); ++k) {
            logSum += std::log(rates[k]);
            perApp[k].push_back(kCostCycles / rates[k] * 1e3);
        }
        geoRate.push_back(std::exp(logSum / static_cast<double>(rates.size())));
    }
    res.correct = res.tally.failed == 0;
    std::printf("job sets: %zu timed of %zu jobs, wall median %.4f s\n",
                walls.size(), inputs[0].jobs.size(), median(walls));
    std::vector<double> appCost;
    for (size_t k = 0; k < perApp.size(); ++k) {
        appCost.push_back(median(perApp[k]));
        std::printf("host ms per %g simulated cycles, %s: %.3f\n",
                    kCostCycles, benchName(kAllBenches[k]), appCost.back());
    }

    auto &v = res.values;
    if (!a.trace) {
        v["setup_s"] = median(setups);
        v["peak_rss_mb"] = peakRssMbSelf();
        v["ok_frac"] = res.tally.okFrac();
        v["sim_cycles_per_s"] = median(geoRate);
        v["p50_ms"] = kCostCycles / median(geoRate) * 1e3;
        v["tail_ms"] = *std::max_element(appCost.begin(), appCost.end());
        return res;
    }

    // Per-layer figures cover one pass over the input sets: counts
    // summed over their reference sets, times as the sum over input
    // sets of each one's median traced time.
    auto perPass = [&](const std::string &key) {
        double t = 0.0;
        for (auto &byKey : traced)
            t += median(byKey[key]);
        return t;
    };
    double hwRunS = perPass("hw");
    layers.report(v, hwRunS);
    v["workload.gen_s"] = spans.sum(setupMark, "workload");
    v["hw.run_s"] = hwRunS;
    for (Bench b : kAllBenches)
        v[std::string("hw.run_s.") + benchName(b)] = perPass(benchName(b));
    if (fig9) {
        double verifyS = 0.0;
        for (const InputSet &in : inputs)
            verifyS += timeReferences(spans, in.w);
        v["apps.verify_s"] = verifyS;
        v["cpumodel.s"] = perPass("cpumodel");
    } else {
        v["checkpoint.save_s"] = spans.sum(setupMark, "checkpoint");
        v["checkpoint.bytes"] = ckptBytes;
    }
    std::vector<double> overhead;
    for (int j = 0; j < kSetups; ++j)
        overhead.push_back(median(traced[j]["wall"]) /
                           median(plainWalls[j]));
    v["trace.overhead_frac"] = median(overhead) - 1.0;
    spans.write(a.work + "/trace-" + a.workload + ".json");
    return res;
}

// ----------------------------------------------------------- apird-mixed

/** A daemon child process; stopped (SIGTERM, drained) and reaped. */
class Daemon
{
  public:
    Daemon(const std::string &bin, const std::string &scenarioDir)
    {
        int out[2];
        if (::pipe(out) != 0)
            throw std::runtime_error("pipe failed");
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_adddup2(&fa, out[1], 1);
        posix_spawn_file_actions_addclose(&fa, out[0]);
        posix_spawn_file_actions_addclose(&fa, out[1]);
        std::vector<std::string> argv = {bin,       "--port",  "0",
                                         "--threads", "2",
                                         "--scenario-dir", scenarioDir};
        std::vector<char *> cargv;
        for (std::string &s : argv)
            cargv.push_back(s.data());
        cargv.push_back(nullptr);
        int rc = posix_spawn(&pid_, bin.c_str(), &fa, nullptr,
                             cargv.data(), environ);
        posix_spawn_file_actions_destroy(&fa);
        ::close(out[1]);
        out_ = out[0];
        if (rc != 0) {
            pid_ = -1;
            throw std::runtime_error("cannot start " + bin);
        }
        // The startup handshake: {"event":"listening","port":N}.
        std::string line;
        double deadline = now() + 60.0;
        while (line.find('\n') == std::string::npos) {
            struct pollfd p = {out_, POLLIN, 0};
            int left = static_cast<int>((deadline - now()) * 1e3);
            if (left <= 0 || ::poll(&p, 1, left) <= 0)
                throw std::runtime_error("apird did not start");
            char c[256];
            ssize_t n = ::read(out_, c, sizeof(c));
            if (n <= 0)
                throw std::runtime_error("apird exited at start-up");
            line.append(c, static_cast<size_t>(n));
        }
        JsonValue hello = JsonValue::parse(line.substr(0, line.find('\n')));
        port_ = static_cast<uint16_t>(hello.at("port").asNumber());
    }

    ~Daemon()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
        }
        if (out_ >= 0)
            ::close(out_);
    }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    uint16_t port() const { return port_; }

    /** High-water resident set of the daemon, from /proc. */
    double
    peakRssMb() const
    {
        std::ifstream is("/proc/" + std::to_string(pid_) + "/status");
        std::string key;
        while (is >> key) {
            if (key == "VmHWM:") {
                double kb = 0;
                is >> kb;
                return kb / 1024.0;
            }
            is.ignore(1 << 16, '\n');
        }
        throw std::runtime_error("no VmHWM for the daemon");
    }

    /** Graceful drain; true when the daemon exited 0. */
    bool
    stop()
    {
        ::kill(pid_, SIGTERM);
        int status = 0;
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }

  private:
    pid_t pid_ = -1;
    int out_ = -1;
    uint16_t port_ = 0;
};

/** One client connection: a request line out, a response line back. */
class Conn
{
  public:
    explicit Conn(uint16_t port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (fd_ < 0 || ::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                                 sizeof(addr)) != 0)
            throw std::runtime_error("cannot connect to apird");
        int one = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        timeval tv{60, 0};
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    }

    ~Conn()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    Conn(const Conn &) = delete;
    Conn &operator=(const Conn &) = delete;

    /** Send one line; return the response line, "" on a broken link. */
    std::string
    rpc(const std::string &line)
    {
        std::string out = line + "\n";
        for (size_t off = 0; off < out.size();) {
            ssize_t n = ::send(fd_, out.data() + off, out.size() - off,
                               MSG_NOSIGNAL);
            if (n <= 0)
                return "";
            off += static_cast<size_t>(n);
        }
        for (;;) {
            size_t nl = buf_.find('\n');
            if (nl != std::string::npos) {
                std::string resp = buf_.substr(0, nl);
                buf_.erase(0, nl + 1);
                return resp;
            }
            char chunk[65536];
            ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return "";
            buf_.append(chunk, static_cast<size_t>(n));
        }
    }

  private:
    int fd_ = -1;
    std::string buf_;
};

std::string
simLine(const char *app, double scale, uint32_t seed)
{
    server::SimRequest r;
    r.app = app;
    r.scale = scale;
    r.seed = seed;
    r.verify = true;
    return server::serializeRequest(r);
}

/** The k-th closed-loop miss: a fresh seed, apps in paper order. */
std::pair<const char *, uint32_t>
missKey(uint32_t seed, uint64_t k)
{
    return {benchName(kAllBenches[k % 6]),
            static_cast<uint32_t>(seed + 1 + k)};
}

Result
runApird(const Args &a)
{
    Result res;
    Spans spans;
    Spans *sp = a.trace ? &spans : nullptr;
    const std::string scenarios = a.root + "/scenarios";

    // Set-up: start the daemon and warm the six hit keys. Repeated
    // with a fresh daemon each time; the last one serves the traffic.
    std::vector<std::string> hitLines, expected;
    std::vector<double> setups;
    std::unique_ptr<Daemon> d;
    for (int k = 0; k < kSetups; ++k) {
        if (d && !d->stop())
            res.tally.add(Outcome::Error);
        d.reset();
        hitLines.clear();
        expected.clear();
        double t0 = now();
        d = std::make_unique<Daemon>(a.apird, scenarios);
        Conn c(d->port());
        for (Bench b : kAllBenches) {
            hitLines.push_back(simLine(benchName(b), kHitScale, a.seed));
            expected.push_back(c.rpc(hitLines.back()));
            Outcome o = classify(expected.back(), nullptr);
            res.tally.add(o);
            if (o != Outcome::Ok)
                throw std::runtime_error("warming " +
                                         std::string(benchName(b)) +
                                         " failed: " + expected.back());
        }
        setups.push_back(now() - t0);
    }

    // Traffic: two open-loop hit streams and one closed-loop miss
    // stream, one thread and one connection each.
    struct HitStream
    {
        std::unique_ptr<OpenLoop> ol;
        Tally tally;
        double recordS = 0.0; //!< time spent recording spans
    };
    std::vector<HitStream> hs(kHitConns);
    Tally missTally;
    std::vector<double> missMs;
    // Misses' simulated cycles and round-trip seconds, by app.
    std::vector<double> missCycles(6), missOkS(6);
    Layers layers;
    std::atomic<bool> stop{false};
    // A client thread that fails stops the traffic and records why; the
    // error is rethrown after the join, so the daemon is still stopped.
    std::mutex errMu;
    std::string threadError;
    auto guarded = [&](auto body) {
        return [&, body] {
            try {
                body();
            } catch (const std::exception &e) {
                std::lock_guard<std::mutex> lock(errMu);
                threadError = e.what();
                stop.store(true);
            }
        };
    };
    const double t0 = now() + 0.05;
    double missEnd = t0;

    std::vector<std::thread> threads;
    for (int k = 0; k < kHitConns; ++k) {
        hs[k].ol = std::make_unique<OpenLoop>(
            t0 + static_cast<double>(k) / (kHitConns * kHitRatePerConn),
            kHitRatePerConn);
        threads.emplace_back(guarded([&, k] {
            HitStream &h = hs[k];
            Conn c(d->port());
            for (uint64_t i = 0; !stop.load(); ++i) {
                double due = h.ol->due(i);
                sleepUntil(due);
                size_t key = (i + 3 * static_cast<size_t>(k)) % 6;
                double send = now();
                std::string r = c.rpc(hitLines[key]);
                double recv = now();
                Outcome o = classify(r, &expected[key]);
                h.tally.add(o);
                h.ol->record(i, send, recv, o == Outcome::Ok);
                if (sp) {
                    double r0 = now();
                    Spans::Span s;
                    s.layer = "client";
                    s.fn = "hit";
                    s.label = benchName(kAllBenches[key]);
                    s.id = sp->nextId();
                    s.tid = threadIndex();
                    s.t0 = due;
                    s.t1 = recv;
                    sp->add(std::move(s));
                    h.recordS += now() - r0;
                }
            }
        }));
    }
    threads.emplace_back(guarded([&] {
        Conn c(d->port());
        sleepUntil(t0);
        double capAt = t0 + 3.0 * a.seconds;
        for (uint64_t i = 0;; ++i) {
            double s0 = now();
            if ((s0 >= t0 + a.seconds && missMs.size() >= kMinMisses) ||
                s0 >= capAt)
                break;
            auto [app, seed] = missKey(a.seed, i);
            std::string r;
            {
                SpanScope s(sp, "client", "miss", app);
                r = c.rpc(simLine(app, kMissScale, seed));
            }
            double s1 = now();
            Outcome o = classify(r, nullptr);
            missTally.add(o);
            missMs.push_back(o == Outcome::Ok
                                 ? (s1 - s0) * 1e3
                                 : std::numeric_limits<double>::infinity());
            if (o == Outcome::Ok) {
                JsonValue run = JsonValue::parse(r).at("run");
                missCycles[i % 6] += run.at("cycles").asNumber();
                missOkS[i % 6] += s1 - s0;
                if (sp)
                    layers.addRun(run, 0);
            }
        }
        missEnd = now();
        stop.store(true);
    }));
    for (std::thread &t : threads)
        t.join();
    if (!threadError.empty())
        throw std::runtime_error(threadError);

    std::vector<double> hitMs, lateMs;
    double recordS = 0.0;
    for (const HitStream &h : hs) {
        res.tally.merge(h.tally);
        for (const Sample &s : h.ol->samples()) {
            hitMs.push_back(s.latencyMs);
            lateMs.push_back(s.lateMs);
        }
        recordS += h.recordS;
    }
    res.tally.merge(missTally);

    JsonValue stats = JsonValue::parse(Conn(d->port()).rpc("{\"op\":\"stats\"}"))
                          .at("stats");
    double rss = d->peakRssMb();
    if (!d->stop())
        res.tally.add(Outcome::Error);
    d.reset();

    Tail hit = highestTail(hitMs);
    Tail miss = highestTail(missMs);
    std::printf("hits: %zu, highest supported p%g = %.4f ms; "
                "misses: %zu, highest supported p%g = %.3f ms\n",
                hit.n, hit.ptt / 100.0, hit.value, miss.n,
                miss.ptt / 100.0, miss.value);
    std::printf("failures: %llu busy, %llu error, %llu byte mismatch "
                "of %llu attempted\n",
                static_cast<unsigned long long>(res.tally.busy),
                static_cast<unsigned long long>(res.tally.errors),
                static_cast<unsigned long long>(res.tally.mismatches),
                static_cast<unsigned long long>(res.tally.attempted));
    if (!supports(missMs.size(), 9000))
        throw std::runtime_error("too few misses for a p90");
    res.correct = res.tally.errors == 0 && res.tally.mismatches == 0;

    // The latencies bounded end to end are the misses': each is a
    // workload generation and a simulation, so host CPU sets them. A
    // hit's 0.1 ms is mostly thread wake-ups, which a shared host
    // stretches several-fold from run to run; hit quantiles are per
    // layer.
    auto &v = res.values;
    double hitP99 = percentile(hitMs, 9900);
    if (!a.trace) {
        v["setup_s"] = median(setups);
        v["peak_rss_mb"] = rss;
        v["ok_frac"] = res.tally.okFrac();
        double logSum = 0.0;
        for (size_t k = 0; k < 6; ++k)
            logSum += std::log(missCycles[k] / missOkS[k]);
        v["sim_cycles_per_s"] = std::exp(logSum / 6.0);
        // The apps' miss costs lie apart, so the median of the mix sits
        // in a gap and flips between two apps; the typical miss is the
        // geometric mean of each app's median instead.
        double logP50 = 0.0;
        for (size_t k = 0; k < 6; ++k) {
            std::vector<double> app;
            for (size_t i = k; i < missMs.size(); i += 6)
                app.push_back(missMs[i]);
            logP50 += std::log(percentile(std::move(app), 5000));
        }
        v["p50_ms"] = std::exp(logP50 / 6.0);
        v["tail_ms"] = percentile(missMs, 9000);
        return res;
    }

    // Per-layer: the daemon's own view, then in-process spans around
    // the server layer's public calls on the same request lines.
    const JsonValue &svcMs = stats.at("service_ms");
    v["server.self_p50_ms"] = svcMs.at("p50_ms").asNumber();
    v["server.self_p99_ms"] = svcMs.at("p99_ms").asNumber();
    v["server.queue_max_depth"] = stats.at("queue").at("max_depth").asNumber();
    v["server.result_hits"] = stats.at("result_cache").at("hits").asNumber();
    v["server.result_misses"] =
        stats.at("result_cache").at("misses").asNumber();
    v["server.workload_misses"] =
        stats.at("workload_cache").at("misses").asNumber();
    v["client.hit_p50_ms"] = percentile(hitMs, 5000);
    v["client.hit_p99_ms"] = hitP99;
    v["client.late_p99_ms"] = percentile(lateMs, 9900);
    v["client.sims_per_s"] =
        static_cast<double>(missMs.size()) / (missEnd - t0);
    layers.report(v, 0.0);

    setQuietLogging(true);
    size_t mark = spans.mark();
    for (int i = 0; i < 2000; ++i) {
        SpanScope s(sp, "server", "parseRequest", "hit");
        server::parseRequest(hitLines[i % 6]);
    }
    v["server.parse_us"] = median(spans.durations(mark, "server")) * 1e6;

    server::SimService svc(scenarios);
    for (size_t k = 0; k < 6; ++k)
        if (svc.handle(server::parseRequest(hitLines[k]).sim) != expected[k])
            res.tally.add(Outcome::Mismatch);
    mark = spans.mark();
    for (int i = 0; i < 2000; ++i) {
        server::SimRequest req = server::parseRequest(hitLines[i % 6]).sim;
        SpanScope s(sp, "server", "handle", "hit");
        svc.handle(req);
    }
    double handleHitS = median(spans.durations(mark, "server", "hit"));
    v["server.handle_hit_us"] = handleHitS * 1e6;
    v["server.hit_wait_p99_ms"] = hitP99 - handleHitS * 1e3;

    mark = spans.mark();
    for (uint64_t k = 0; k < 6; ++k) {
        // Seeds past the traffic's, so these miss both caches too.
        auto [app, seed] = missKey(a.seed, (1ull << 20) + k);
        server::SimRequest req =
            server::parseRequest(simLine(app, kMissScale, seed)).sim;
        SpanScope s(sp, "server", "handle", "miss");
        res.tally.add(classify(svc.handle(req), nullptr));
    }
    v["server.handle_miss_ms"] =
        median(spans.durations(mark, "server", "miss")) * 1e3;

    mark = spans.mark();
    generateInputs(sp, kMissScale, a.seed);
    v["workload.gen_s"] = spans.sum(mark, "workload");
    v["trace.overhead_frac"] = recordS / (missEnd - t0) / kHitConns;
    res.correct = res.tally.errors == 0 && res.tally.mismatches == 0;
    spans.write(a.work + "/trace-" + a.workload + ".json");
    return res;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            throw std::runtime_error(flag + " requires a value");
        std::string v = argv[++i];
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = static_cast<uint32_t>(std::stoull(v));
        else if (flag == "--seconds")
            a.seconds = std::stod(v);
        else if (flag == "--trace")
            a.trace = v == "1";
        else if (flag == "--root")
            a.root = v;
        else if (flag == "--work")
            a.work = v;
        else if (flag == "--apird")
            a.apird = v;
        else
            throw std::runtime_error("unknown argument " + flag);
    }
    if (a.work.empty() || !(a.seconds > 0))
        throw std::runtime_error("--work and a positive --seconds are "
                                 "required");
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        Args a = parseArgs(argc, argv);
        fs::create_directories(a.work);
        Result r;
        if (a.workload == "fig9-default")
            r = runFigure(a, true);
        else if (a.workload == "fig10-starved-warm")
            r = runFigure(a, false);
        else if (a.workload == "apird-mixed")
            r = runApird(a);
        else
            throw std::runtime_error("unknown workload '" + a.workload +
                                     "'");
        printResult(r, a.trace);
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
        return 1;
    }
}
