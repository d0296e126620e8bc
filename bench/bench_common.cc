#include "bench_common.hh"

#include <fstream>

#include "config/strict_num.hh"
#include "support/logging.hh"

namespace apir {
namespace bench {

namespace {

const char kUsage[] =
    "supported flags: --scale <f>  --seed <n>  --stats-json <path>  "
    "--threads <n>  --no-fast-forward  --bandwidth-scale <f>  "
    "--config <file>  --set <section.key=value>  "
    "--checkpoint-save <cycle|auto>:<prefix>  "
    "--checkpoint-restore <prefix>";

/**
 * One command-line flag, normalized so "--flag value" and
 * "--flag=value" are interchangeable for every value-taking flag.
 */
class FlagCursor
{
  public:
    FlagCursor(int argc, char **argv) : argc_(argc), argv_(argv) {}

    bool
    next()
    {
        if (++i_ >= argc_)
            return false;
        std::string arg = argv_[i_];
        inline_.reset();
        name_ = arg;
        if (arg.rfind("--", 0) == 0) {
            size_t eq = arg.find('=');
            if (eq != std::string::npos) {
                name_ = arg.substr(0, eq);
                inline_ = arg.substr(eq + 1);
            }
        }
        return true;
    }

    /** The flag name, with any "=value" suffix stripped. */
    const std::string &name() const { return name_; }

    /** The flag's value; fatal when missing. */
    std::string
    value()
    {
        if (inline_)
            return *inline_;
        if (i_ + 1 >= argc_)
            fatal(name_, " requires a value; ", kUsage);
        return argv_[++i_];
    }

    /** Reject "--flag=value" spellings of valueless flags. */
    void
    noValue() const
    {
        if (inline_)
            fatal(name_, " does not take a value; ", kUsage);
    }

  private:
    int argc_;
    char **argv_;
    int i_ = 0;
    std::string name_;
    std::optional<std::string> inline_;
};

/** Strictly parse a numeric flag value; malformed input is fatal. */
double
doubleFlag(const std::string &flag, const std::string &v)
{
    auto d = parseStrictDouble(v);
    if (!d)
        fatal(flag, ": '", v, "' is not a number (strict parse: "
              "trailing junk such as '2x' is rejected)");
    return *d;
}

uint64_t
unsignedFlag(const std::string &flag, const std::string &v)
{
    auto n = parseStrictU64(v);
    if (!n)
        fatal(flag, ": '", v, "' is not an unsigned integer (strict "
              "parse: trailing junk is rejected)");
    return *n;
}

} // namespace

Options
parseOptions(int argc, char **argv)
{
    Options opt;
    bool scaleSet = false;
    FlagCursor cur(argc, argv);
    while (cur.next()) {
        const std::string &flag = cur.name();
        if (flag == "--scale") {
            opt.scale = doubleFlag(flag, cur.value());
            if (opt.scale <= 0.0)
                fatal("--scale must be positive");
            scaleSet = true;
        } else if (flag == "--seed") {
            uint64_t n = unsignedFlag(flag, cur.value());
            if (n > 0xffffffffull)
                fatal("--seed must fit in 32 bits");
            opt.seed = static_cast<uint32_t>(n);
        } else if (flag == "--stats-json") {
            opt.statsJson = cur.value();
        } else if (flag == "--checkpoint-save") {
            std::string v = cur.value();
            size_t colon = v.find(':');
            if (colon == std::string::npos || colon == 0 ||
                colon + 1 >= v.size())
                fatal("--checkpoint-save expects <cycle>:<prefix> or "
                      "auto:<prefix> (e.g. 50000:warm), got '", v, "'");
            std::string cyc = v.substr(0, colon);
            if (cyc == "auto")
                opt.ckpt.saveAuto = true;
            else
                opt.ckpt.saveCycle = unsignedFlag(flag, cyc);
            opt.ckpt.savePrefix = v.substr(colon + 1);
        } else if (flag == "--checkpoint-restore") {
            opt.ckpt.restorePrefix = cur.value();
        } else if (flag == "--threads") {
            uint64_t n = unsignedFlag(flag, cur.value());
            if (n < 1)
                fatal("--threads must be >= 1");
            opt.threads = static_cast<unsigned>(n);
        } else if (flag == "--no-fast-forward") {
            cur.noValue();
            opt.fastForward = false;
        } else if (flag == "--bandwidth-scale") {
            opt.bandwidthScale = doubleFlag(flag, cur.value());
            if (opt.bandwidthScale <= 0.0)
                fatal("--bandwidth-scale must be positive");
        } else if (flag == "--config") {
            opt.configFile = cur.value();
        } else if (flag == "--set") {
            opt.sets.push_back(cur.value());
        } else {
            // A typo like --stat-json must not silently drop output.
            fatal("unknown argument '", flag, "'; ", kUsage);
        }
    }

    if (!opt.configFile.empty() || !opt.sets.empty()) {
        // Load onto the compiled-in bench defaults so a scenario
        // only has to name the knobs it changes; the loader routes
        // the result through validateAccelConfig.
        opt.scenario = loadScenarioFile(opt.configFile,
                                        defaultAccelConfig(),
                                        opt.sets);
        // An explicit --scale beats the file's [workload] scale (CI
        // smoke-sweeps the corpus at tiny scale this way).
        if (opt.scenario->hasScale && !scaleSet)
            opt.scale = opt.scenario->scale;
    }
    return opt;
}

void
maybeWriteStatsJson(const Options &opt, const std::string &bench,
                    const JsonValue &runs, const Workloads *w)
{
    if (opt.statsJson.empty())
        return;
    JsonValue doc = JsonValue::object();
    doc.set("bench", JsonValue::str(bench));
    doc.set("scale", JsonValue::number(opt.scale));
    if (w) {
        JsonValue wl = JsonValue::object();
        wl.set("road_vertices",
               JsonValue::number(w->road.numVertices()));
        wl.set("road_edges", JsonValue::number(
                                 static_cast<double>(w->road.numEdges())));
        wl.set("mesh_points", JsonValue::number(w->meshPoints));
        wl.set("lu_blocks", JsonValue::number(w->luBlocks));
        wl.set("lu_block_size", JsonValue::number(w->luBlockSize));
        wl.set("seed", JsonValue::number(w->seed));
        doc.set("workload", std::move(wl));
    }
    doc.set("runs", runs);
    std::ofstream os(opt.statsJson);
    if (!os)
        fatal("cannot open ", opt.statsJson, " for writing");
    doc.write(os, 0);
    os << "\n";
}

AccelConfig
defaultAccelConfig(const Options &opt)
{
    // --config replaces the compiled-in base; the remaining flags
    // compose with whatever base is active (--no-fast-forward can
    // only disable, --bandwidth-scale multiplies the scenario's).
    AccelConfig cfg =
        opt.scenario ? opt.scenario->accel : defaultAccelConfig();
    cfg.fastForward = cfg.fastForward && opt.fastForward;
    cfg.mem.bandwidthScale *= opt.bandwidthScale;
    return cfg;
}

void
requireNoCheckpoint(const Options &opt, const char *bench)
{
    if (opt.ckpt.any())
        fatal(bench, " does not support --checkpoint-save / "
              "--checkpoint-restore (only fig9_speedup and "
              "fig10_bandwidth are checkpoint-aware)");
}

} // namespace bench
} // namespace apir
