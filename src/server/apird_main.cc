/**
 * @file
 * apird — the persistent simulation daemon (docs/apird.md).
 *
 * Serves the registered apps (run/apps.hh; `apird --list-apps` prints
 * their names, one per line) over newline-delimited JSON on a
 * TCP socket, with a content-addressed workload cache and a memoized
 * result store in front of the simulator. On startup it prints one
 * {"event":"listening","port":N} line to stdout (and the port to
 * --port-file if given) so harnesses can bind port 0 and discover
 * the result; on SIGTERM/SIGINT or a {"op":"shutdown"} request it
 * drains gracefully — stops accepting, answers everything admitted —
 * and exits 0 after printing a final {"event":"final_stats",...}
 * line.
 *
 * `apird --once --request '<json>'` answers a single request on
 * stdout with no socket and no caches warm — by construction the
 * same bytes the daemon would serve, which is how the soak harness
 * proves byte-identity against a fresh process.
 */

#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "run/apps.hh"
#include "server/server.hh"
#include "support/logging.hh"
#include "support/str.hh"

using namespace apir;
using namespace apir::server;

namespace {

constexpr const char *kUsage =
    "usage: apird [--port N] [--port-file PATH] [--threads N]\n"
    "             [--queue-depth N] [--retry-after-ms N]\n"
    "             [--scenario-dir DIR] [--max-scale X]\n"
    "       apird --once --request '<json>' [--scenario-dir DIR]\n"
    "       apird --list-apps";

ApirdServer *gServer = nullptr;

void
onSignal(int)
{
    if (gServer)
        gServer->requestDrain();
}

long
longFlag(const std::string &flag, const std::string &value, long lo,
         long hi)
{
    char *end = nullptr;
    long n = std::strtol(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0' || n < lo || n > hi)
        fatal(flag, " expects an integer in [", lo, ", ", hi,
              "], got '", value, "'");
    return n;
}

double
doubleFlag(const std::string &flag, const std::string &value)
{
    char *end = nullptr;
    double d = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0')
        fatal(flag, " expects a number, got '", value, "'");
    return d;
}

} // namespace

int
main(int argc, char **argv)
{
    ApirdOptions opt;
    std::string portFile;
    std::string onceRequest;
    bool once = false;

    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        std::string value;
        auto eq = flag.find('=');
        bool hasValue = false;
        if (eq != std::string::npos) {
            value = flag.substr(eq + 1);
            flag = flag.substr(0, eq);
            hasValue = true;
        }
        auto need = [&]() -> std::string {
            if (hasValue)
                return value;
            if (i + 1 >= argc)
                fatal(flag, " expects a value; ", kUsage);
            return argv[++i];
        };
        if (flag == "--port") {
            opt.port = static_cast<uint16_t>(
                longFlag(flag, need(), 0, 65535));
        } else if (flag == "--port-file") {
            portFile = need();
        } else if (flag == "--threads") {
            opt.workers =
                static_cast<unsigned>(longFlag(flag, need(), 1, 256));
        } else if (flag == "--queue-depth") {
            opt.queueDepth =
                static_cast<size_t>(longFlag(flag, need(), 1, 65536));
        } else if (flag == "--retry-after-ms") {
            opt.retryAfterMs = static_cast<unsigned>(
                longFlag(flag, need(), 0, 3600000));
        } else if (flag == "--scenario-dir") {
            opt.scenarioDir = need();
        } else if (flag == "--max-scale") {
            opt.maxScale = doubleFlag(flag, need());
            if (opt.maxScale <= 0.0)
                fatal("--max-scale must be positive");
        } else if (flag == "--once") {
            once = true;
        } else if (flag == "--request") {
            onceRequest = need();
        } else if (flag == "--list-apps") {
            for (bench::Bench b : bench::allApps())
                std::cout << bench::benchName(b) << "\n";
            return 0;
        } else if (flag == "--help" || flag == "-h") {
            std::cout << kUsage << "\n";
            return 0;
        } else {
            // A typoed flag must not silently start a daemon with
            // defaults (same contract as the benches).
            fatal("unknown argument '", flag, "'; ", kUsage);
        }
    }

    if (once) {
        // Fresh-process reference path: same parser, same service,
        // same payload bytes as the daemon — minus the socket.
        if (onceRequest.empty())
            fatal("--once requires --request '<json>'");
        SimService service(opt.scenarioDir, opt.maxScale);
        std::string response;
        try {
            Request req = parseRequest(onceRequest);
            if (req.op != Request::Op::Sim)
                fatal("--once only serves sim requests");
            response = service.handle(req.sim);
        } catch (const std::exception &e) {
            response = errorResponse(e.what());
        }
        std::cout << response << "\n";
        return 0;
    }
    if (!onceRequest.empty())
        fatal("--request requires --once");

    ApirdServer srv(opt);
    uint16_t port = srv.start();

    gServer = &srv;
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = onSignal;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
    ::signal(SIGPIPE, SIG_IGN);

    if (!portFile.empty()) {
        std::ofstream os(portFile);
        if (!os)
            fatal("cannot open ", portFile, " for writing");
        os << port << "\n";
    }
    // The startup handshake: harnesses bind --port 0 and read the
    // chosen port from this line. Flush before serving.
    std::cout << "{\"event\":\"listening\",\"port\":" << port << "}"
              << std::endl;

    srv.serve();

    // Graceful-drain contract: everything admitted was answered;
    // leave the flight recorder on stdout and exit cleanly.
    JsonValue statsDoc = JsonValue::parse(srv.statsJson());
    JsonValue finalDoc = JsonValue::object();
    finalDoc.set("event", JsonValue::str("final_stats"));
    finalDoc.set("stats", statsDoc.at("stats"));
    std::cout << finalDoc.dump() << std::endl;
    gServer = nullptr;
    return 0;
}
