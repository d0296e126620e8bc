/**
 * @file
 * The paper-reproduction benches' command line: the shared flags
 * (--scale, --seed, --threads, --config, --checkpoint-*, ...), the
 * base configuration they select, and the stats-json document every
 * bench writes. Running the apps lives in run/run.hh and the app
 * table in run/apps.hh; both are included here for the benches.
 */

#ifndef APIR_BENCH_BENCH_COMMON_HH
#define APIR_BENCH_BENCH_COMMON_HH

#include <optional>
#include <string>
#include <vector>

#include "apps/bfs.hh"
#include "config/loader.hh"
#include "apps/dmr.hh"
#include "apps/lu.hh"
#include "apps/mst.hh"
#include "apps/sssp.hh"
#include "cpumodel/xeon_model.hh"
#include "graph/generators.hh"
#include "hw/accelerator.hh"
#include "run/apps.hh"
#include "run/run.hh"
#include "support/json.hh"
#include "support/str.hh"

namespace apir {
namespace bench {

/** Command-line options common to all benches. */
struct Options
{
    double scale = 1.0;    //!< workload size multiplier
    uint32_t seed = 42;    //!< --seed: workload generator seed
    std::string statsJson; //!< --stats-json: structured-results path
    unsigned threads = 0;  //!< --threads: sweep workers (0 = all cores)
    /**
     * --no-fast-forward: run the accelerator strictly one cycle at a
     * time. The event-driven fast-forward is bit-identical by
     * contract, so this is an escape hatch for validating that claim
     * (CI diffs the two stats outputs) and for debugging the wake
     * computation itself.
     */
    bool fastForward = true;
    /**
     * --bandwidth-scale: QPI bandwidth multiplier applied to the base
     * configuration. Benches that sweep bandwidth themselves (fig10)
     * multiply their sweep points by this base, so values < 1 shift
     * the whole sweep into the memory-bound regime.
     */
    double bandwidthScale = 1.0;
    /**
     * --config: declarative scenario file (see docs/configs.md).
     * Parsed and validated by parseOptions; the loaded machine knobs
     * become the base configuration defaultAccelConfig(opt) returns,
     * and a [workload] scale in the file applies unless --scale was
     * given explicitly on the command line.
     */
    std::string configFile;
    /** --set section.key=value overrides, applied after --config. */
    std::vector<std::string> sets;
    /** The loaded scenario when --config/--set were given. */
    std::optional<Scenario> scenario;
    /** --checkpoint-save / --checkpoint-restore directives. */
    CheckpointOptions ckpt;
};

/**
 * Parse the shared bench flags (--scale, --stats-json, --threads,
 * --no-fast-forward, --bandwidth-scale, --config, --set). Both
 * "--flag value" and "--flag=value" spellings are accepted. Unknown
 * flags are fatal — a typoed flag must not silently drop output —
 * and numeric values are parsed strictly: "--scale 2x" is a parse
 * error, not a silent 2.0.
 */
Options parseOptions(int argc, char **argv);

/**
 * Fatal unless `opt` carries no checkpoint directives: benches that
 * never forward opt.ckpt into runAccelerator call this right after
 * parseOptions so --checkpoint-* is rejected instead of silently
 * ignored (the same contract as unknown flags).
 */
void requireNoCheckpoint(const Options &opt, const char *bench);

/** Default configuration with the shared bench flags applied. */
AccelConfig defaultAccelConfig(const Options &opt);

/**
 * Write the standard stats document
 * {"bench": ..., "scale": ..., "runs": [...]} to opt.statsJson.
 * No-op when --stats-json was not given. When `w` is given a
 * "workload" object records the generated input sizes (road vertices
 * and edges, mesh points, LU blocks, seed) so downstream tools can
 * express budgets per unit of input instead of as fixed constants.
 */
void maybeWriteStatsJson(const Options &opt, const std::string &bench,
                         const JsonValue &runs,
                         const Workloads *w = nullptr);

} // namespace bench
} // namespace apir

#endif // APIR_BENCH_BENCH_COMMON_HH
