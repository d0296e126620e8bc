/**
 * @file
 * Ablation C: rule-engine lane count. Lanes bound the number of
 * rules under inspection; when the allocator has no free lane the
 * AllocRule stage stalls its pipeline (the liveness scenario of
 * Section 4.2.1). More lanes buy more speculation depth at the
 * register cost priced by the resource model.
 */

#include <cstdio>

#include "bench_common.hh"
#include "resource/resource.hh"
#include "support/str.hh"

using namespace apir;
using namespace apir::bench;

int
main(int argc, char **argv)
{
    Options opt = parseOptions(argc, argv);
    requireNoCheckpoint(opt, "ablation_rules");
    Workloads w = makeWorkloads(opt.scale);
    const uint32_t lanes[] = {2, 4, 8, 16, 32, 64};

    std::printf("=== Ablation C: rule-engine lanes (speculation depth) "
                "===\n\n");
    const Bench apps[] = {appNamed("SPEC-BFS", "ablation_rules"),
                          appNamed("SPEC-MST", "ablation_rules"),
                          appNamed("COOR-LU", "ablation_rules")};
    std::vector<SweepJob> jobs;
    for (Bench b : apps) {
        for (uint32_t nl : lanes) {
            AccelConfig cfg = defaultAccelConfig(opt);
            cfg.ruleLanes = nl;
            cfg.rendezvousEntries = nl;
            jobs.push_back({b, cfg, false, {}});
        }
    }
    std::vector<AccelRun> sweep = runSweep(jobs, w, opt.threads);

    JsonValue runs = JsonValue::array();
    size_t next = 0;
    for (Bench b : apps) {
        TextTable table({"lanes", "sim(s)", "speedup vs 2",
                         "alloc-fails", "squashed"});
        double base = 0.0;
        for (uint32_t nl : lanes) {
            const AccelRun &run = sweep[next++];
            if (nl == 2)
                base = run.seconds;
            double alloc_fails = 0.0;
            for (const StatGroup &g : run.rr.groups)
                if (g.name().rfind("rule.", 0) == 0)
                    alloc_fails += g.get("alloc_fails");
            JsonValue j = runToJson(run);
            j.set("benchmark", JsonValue::str(benchName(b)));
            j.set("rule_lanes",
                  JsonValue::number(static_cast<double>(nl)));
            runs.push(std::move(j));
            table.addRow({strprintf("%u", nl),
                          strprintf("%.4f", run.seconds),
                          strprintf("%.2fx", base / run.seconds),
                          strprintf("%.0f", alloc_fails),
                          strprintf("%llu",
                                    static_cast<unsigned long long>(
                                        run.rr.squashed))});
        }
        std::printf("--- %s ---\n%s\n", benchName(b),
                    table.render().c_str());
    }
    maybeWriteStatsJson(opt, "ablation_rules", runs);
    return 0;
}
