/**
 * @file
 * The app registry: one AppDescriptor per app, and the only place the
 * set of apps is spelled out. runAccelerator, the benches, the DSE
 * demo, apird (including `apird --list-apps`, which the tools read)
 * and the registry-wide tests all iterate or look up this table, so
 * adding an app is one descriptor plus one table entry
 * (docs/adding-an-app.md).
 */

#ifndef APIR_RUN_APPS_HH
#define APIR_RUN_APPS_HH

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "checkpoint/ckpt.hh"
#include "geometry/mesh.hh"
#include "run/run.hh"
#include "sparse/block_sparse.hh"

namespace apir {
namespace bench {

/**
 * One app built on a workload: the design to simulate, plus closures
 * over the host-side state the build created. They read the finished
 * run from device memory and that state, and may refer to the
 * workload the build read: call them while it lives.
 */
struct BuiltApp
{
    AcceleratorSpec spec;
    /**
     * Checkpoint visitor of the host-side state the app's commits
     * mutate; empty when all of it lives in device memory.
     */
    std::function<void(ckpt::Archive &)> hostState;
    /** Whether the finished run matches the sequential reference. */
    std::function<bool(const MemorySystem &)> verify;
    /** The work a CPU counterpart does, priced by xeon_model. */
    std::function<WorkCounts(const MemorySystem &)> work;
};

/** One registered app. */
struct AppDescriptor
{
    const char *name; //!< paper name, e.g. "SPEC-BFS"
    /**
     * Tasks are sent from the host in the paper's setup: a run whose
     * config sets no host batch gets 16 tasks every 64 cycles.
     */
    bool hostFed;
    /** Generate the app's input from `w` and build its design in `mem`. */
    BuiltApp (*build)(const Workloads &w, MemorySystem &mem);
    /**
     * Wall seconds of the native sequential algorithm on the input
     * the simulated run sees, generated outside the timed region
     * (fig9's transparency column).
     */
    double (*nativeSeconds)(const Workloads &w);
};

/** Every registered app: the paper's six in paper order, then the rest. */
const std::vector<Bench> &allApps();

/** The registered app called `name`, if any. */
std::optional<Bench> findApp(const std::string &name);

/**
 * The registered app called `name`; fatal when there is none, naming
 * `where` the name came from and listing every registered name.
 */
Bench appNamed(const std::string &name, const std::string &where);

/** Every registered name, comma-separated, in registry order. */
std::string appNameList();

/** SPEC-DMR's input mesh for `w` (simulated run and native reference). */
Mesh dmrInputMesh(const Workloads &w);

/** COOR-LU's input matrix for `w` (simulated run and native reference). */
BlockSparseMatrix luInputMatrix(const Workloads &w);

} // namespace bench
} // namespace apir

#endif // APIR_RUN_APPS_HH
