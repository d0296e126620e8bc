/**
 * @file
 * The simulation service behind apird: turns one SimRequest into one
 * response payload, with the two production caches in front of the
 * simulator —
 *
 *  - a content-addressed workload cache keyed by (seed, scale): road
 *    networks, meshes, and matrices are pure functions of their seed
 *    and scale, so a thousand sweep points share one generation. It
 *    holds the kWorkloadCacheEntries most recently used bundles: a
 *    sweep reuses a few, while fresh-seed traffic would otherwise keep
 *    every bundle for the daemon's lifetime;
 *  - a memoized result store keyed by the canonicalized knob tuple
 *    (app, scale, seed, verify, configCanonicalKey): the same machine
 *    simulating the same workload always produces the same stats
 *    payload, so it is computed once and replayed as bytes.
 *
 * Both are MemoStores (dse/memo.hh — the DSE explorer's memoizer
 * generalized), so concurrent identical requests collapse onto a
 * single computation. Each simulation owns its MemorySystem,
 * Accelerator, and StatRegistry (the sweep-runner isolation rule),
 * making handle() safe to call from any number of worker threads.
 *
 * handle() never throws and never exits: request-scoped fatal()s
 * (unknown scenario knob, malformed --set, failed verification) are
 * converted to {"status":"error"} responses via ScopedFatalThrows.
 */

#ifndef APIR_SERVER_SERVICE_HH
#define APIR_SERVER_SERVICE_HH

#include <memory>
#include <string>

#include "run/run.hh"
#include "dse/memo.hh"
#include "server/protocol.hh"

namespace apir {
namespace server {

/** Workload/result-cache counters for the self-metrics report. */
struct CacheStats
{
    uint64_t workloadHits = 0;
    uint64_t workloadMisses = 0;
    uint64_t workloadEntries = 0; //!< bundles held right now
    uint64_t resultHits = 0;
    uint64_t resultMisses = 0;
};

/** Stateless-per-request simulation service with shared caches. */
class SimService
{
  public:
    /**
     * `scenarioDir` resolves bare scenario names in requests
     * ("harp_default" -> scenarioDir + "/harp_default.conf");
     * `maxScale` > 0 rejects requests above it (an admission-control
     * valve so one request cannot occupy a worker for hours).
     */
    explicit SimService(std::string scenarioDir = "scenarios",
                        double maxScale = 0.0);

    /**
     * Serve one simulation request; returns the full response line
     * (without trailing newline). Success payloads are
     * {"status":"ok","app":...,"scale":...,"seed":...,"run":{...}}
     * with the run object built by the exact bench::runToJson path,
     * so they are byte-identical to a fresh single-process run.
     */
    std::string handle(const SimRequest &req);

    /**
     * The canonical identity of a request: what the result store is
     * keyed by. Exposed for tests (two spellings of one machine must
     * collide; any knob change must not).
     */
    std::string requestKey(const SimRequest &req) const;

    /**
     * The workload-cache identity of a (scale, seed) pair, spelled
     * with the same canonicalDouble the result key uses so "scale": 1
     * and "scale": 1.0 — or any two bit-equal doubles — share one
     * generated workload bundle. Exposed for tests, mirroring
     * requestKey.
     */
    static std::string workloadKey(double scale, uint32_t seed);

    CacheStats cacheStats() const;

    /** Workload bundles kept (least recently used leave first). */
    static constexpr size_t kWorkloadCacheEntries = 8;

  private:
    std::string compute(const SimRequest &req);
    AccelConfig configFor(const SimRequest &req) const;

    std::string scenarioDir_;
    double maxScale_;
    MemoStore<std::string, std::shared_ptr<const bench::Workloads>>
        workloads_{kWorkloadCacheEntries};
    MemoStore<std::string, std::string> results_;
};

} // namespace server
} // namespace apir

#endif // APIR_SERVER_SERVICE_HH
