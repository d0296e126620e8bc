/**
 * @file
 * Ablation B: number of banks in the multi-bank task queues. The
 * paper's wavefront allocator exists to feed several pipelines per
 * cycle; with one bank the queue serializes dispatch.
 */

#include <cstdio>

#include "bench_common.hh"
#include "support/str.hh"

using namespace apir;
using namespace apir::bench;

int
main(int argc, char **argv)
{
    Options opt = parseOptions(argc, argv);
    requireNoCheckpoint(opt, "ablation_queues");
    Workloads w = makeWorkloads(opt.scale);
    const uint32_t banks[] = {1, 2, 4, 8};

    std::printf("=== Ablation B: task-queue banks (wavefront allocator "
                "fan-out) ===\n\n");
    const Bench apps[] = {appNamed("SPEC-BFS", "ablation_queues"),
                          appNamed("SPEC-SSSP", "ablation_queues"),
                          appNamed("SPEC-DMR", "ablation_queues")};
    std::vector<SweepJob> jobs;
    for (Bench b : apps) {
        for (uint32_t nb : banks) {
            AccelConfig cfg = defaultAccelConfig(opt);
            cfg.queueBanks = nb;
            jobs.push_back({b, cfg, false, {}});
        }
    }
    std::vector<AccelRun> sweep = runSweep(jobs, w, opt.threads);

    JsonValue runs = JsonValue::array();
    size_t next = 0;
    for (Bench b : apps) {
        TextTable table({"banks", "sim(s)", "speedup vs 1 bank",
                         "utilization"});
        double base = 0.0;
        for (uint32_t nb : banks) {
            const AccelRun &run = sweep[next++];
            if (nb == 1)
                base = run.seconds;
            JsonValue j = runToJson(run);
            j.set("benchmark", JsonValue::str(benchName(b)));
            j.set("queue_banks",
                  JsonValue::number(static_cast<double>(nb)));
            runs.push(std::move(j));
            table.addRow({strprintf("%u", nb),
                          strprintf("%.4f", run.seconds),
                          strprintf("%.2fx", base / run.seconds),
                          strprintf("%.3f", run.rr.utilization)});
        }
        std::printf("--- %s ---\n%s\n", benchName(b),
                    table.render().c_str());
    }
    maybeWriteStatsJson(opt, "ablation_queues", runs);
    return 0;
}
