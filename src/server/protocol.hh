/**
 * @file
 * The apird wire protocol (docs/apird.md): newline-delimited JSON
 * over TCP, reusing the repo's own JSON model as the wire format.
 * One request line produces exactly one response line, in order, per
 * connection — responses carry no correlation ids, so a simulation
 * response is byte-identical whether it was served from the result
 * cache, computed fresh, or produced by `apird --once` in a separate
 * process (the soak harness leans on that).
 *
 * Requests:
 *   {"op": "ping"}                      liveness probe
 *   {"op": "stats"}                     server self-metrics snapshot
 *   {"op": "shutdown"}                  begin a graceful drain
 *   {"app": "SPEC-BFS", ...}            simulation ("op" defaults to
 *                                       "sim"; see SimRequest). The
 *                                       valid app names are the
 *                                       registry's (run/apps.hh);
 *                                       `apird --list-apps` prints them
 *
 * Responses:
 *   {"status": "ok", ...}               op-specific payload
 *   {"status": "error", "error": msg}   malformed/unserviceable input
 *   {"status": "busy", "retry_after_ms": n}   queue full; retry
 *
 * Parsing is strict in the repo's config tradition: unknown keys,
 * wrong types, and out-of-range values are rejected with a message
 * naming the offender — a typo must not silently simulate defaults.
 */

#ifndef APIR_SERVER_PROTOCOL_HH
#define APIR_SERVER_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "support/json.hh"

namespace apir {
namespace server {

/** Scheduling class; lower values dispatch first. */
enum class Priority { High = 0, Normal = 1, Low = 2 };

constexpr int kNumPriorities = 3;

const char *priorityName(Priority p);

/** One simulation request (the "sim" op). */
struct SimRequest
{
    std::string app;      //!< registered app name, e.g. "SPEC-BFS"
    double scale = 1.0;   //!< workload size multiplier
    uint32_t seed = 42;   //!< workload generator seed
    Priority priority = Priority::Normal;
    /**
     * Scenario to base the machine on: a name resolved against the
     * server's --scenario-dir (e.g. "harp_default"), or an explicit
     * path when it contains '/'. Empty = the compiled-in bench
     * defaults, exactly like a bench run without --config.
     */
    std::string config;
    std::vector<std::string> sets; //!< "section.key=value" overrides
    bool fastForward = true;       //!< false = --no-fast-forward
    double bandwidthScale = 1.0;   //!< multiplies the base config's
    bool verify = false;           //!< check against sequential ref
    /**
     * "checkpoint_save": "<cycle>:<prefix>" writes the machine state
     * to <prefix>.<app>.ckpt at the given cycle (server-side path);
     * "auto" in place of the cycle calibrates the save point to 3/4
     * of the run's own length (at the cost of an extra cold run).
     * "checkpoint_restore": "<prefix>" resumes from such a file.
     * Requests carrying either bypass the result store: a save has
     * file-writing side effects, and a restore's result depends on
     * file contents the key cannot see (docs/checkpointing.md).
     */
    uint64_t checkpointSaveCycle = 0;
    bool checkpointSaveAuto = false;
    std::string checkpointSavePrefix;
    std::string checkpointRestorePrefix;

    bool
    hasCheckpoint() const
    {
        return !checkpointSavePrefix.empty() ||
               !checkpointRestorePrefix.empty();
    }
};

/** A parsed request line. */
struct Request
{
    enum class Op { Sim, Ping, Stats, Shutdown };
    Op op = Op::Sim;
    SimRequest sim; //!< valid when op == Sim
};

/**
 * Parse one request line. Throws std::runtime_error with a located,
 * human-readable message on any malformed input (bad JSON, unknown
 * key, wrong type, out-of-range value).
 */
Request parseRequest(const std::string &line);

/** Serialize `req` back to a request line (client-side of the wire;
 * used by tests and the --once path to round-trip requests). */
std::string serializeRequest(const SimRequest &req);

/** {"status":"error","error":msg} */
std::string errorResponse(const std::string &msg);

/** {"status":"busy","retry_after_ms":n} */
std::string busyResponse(unsigned retryAfterMs);

/** {"status":"ok","event":event} */
std::string eventResponse(const std::string &event);

} // namespace server
} // namespace apir

#endif // APIR_SERVER_PROTOCOL_HH
