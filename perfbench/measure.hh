/**
 * @file
 * The benchmark's own arithmetic, kept apart from the driver so the
 * self-test can check it: tail percentiles a sample can support,
 * open-loop timing from the due time, response classification and
 * failure accounting, and the stats digest.
 */

#ifndef APIR_PERFBENCH_MEASURE_HH
#define APIR_PERFBENCH_MEASURE_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace perfbench {

/** Percentiles in parts per ten thousand (9900 = p99). */
inline constexpr uint32_t kLadder[] = {5000, 9000, 9900, 9990, 9999};

/**
 * Does a sample of `n` leave at least ten samples beyond the
 * percentile `ptt` (parts per ten thousand)? Integer arithmetic, so
 * n = 1000 supports p99 exactly.
 */
inline bool
supports(size_t n, uint32_t ptt)
{
    return static_cast<uint64_t>(n) * (10000 - ptt) >= 10ull * 10000;
}

/** Nearest-rank percentile of an ascending sample; NaN when empty. */
inline double
percentileSorted(const std::vector<double> &sorted, uint32_t ptt)
{
    if (sorted.empty())
        return std::numeric_limits<double>::quiet_NaN();
    uint64_t n = sorted.size();
    uint64_t rank = (static_cast<uint64_t>(ptt) * n + 9999) / 10000;
    return sorted[rank == 0 ? 0 : rank - 1];
}

/** Percentile of an unsorted sample. */
inline double
percentile(std::vector<double> v, uint32_t ptt)
{
    std::sort(v.begin(), v.end());
    return percentileSorted(v, ptt);
}

inline double
median(std::vector<double> v)
{
    return percentile(std::move(v), 5000);
}

/** The highest ladder percentile a sample supports, and its value. */
struct Tail
{
    uint32_t ptt = 0; //!< 0 when not even the median is supported
    double value = std::numeric_limits<double>::quiet_NaN();
    size_t n = 0;
};

inline Tail
highestTail(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    Tail t;
    t.n = v.size();
    for (uint32_t p : kLadder)
        if (supports(v.size(), p)) {
            t.ptt = p;
            t.value = percentileSorted(v, p);
        }
    return t;
}

/** One open-loop request: its latency and its lateness. */
struct Sample
{
    double latencyMs = 0.0; //!< from the due time; +inf when failed
    double lateMs = 0.0;    //!< how late the generator sent it
};

/**
 * An open-loop request schedule: request i is due at start + i/rate
 * whether or not earlier requests have been answered, and its latency
 * runs from that due time, so a stall is charged to every request that
 * fell due during it.
 */
class OpenLoop
{
  public:
    OpenLoop(double start, double ratePerS) : start_(start), rate_(ratePerS)
    {
    }

    double due(uint64_t i) const
    {
        return start_ + static_cast<double>(i) / rate_;
    }

    /**
     * Record request i, sent at `send` and answered at `recv` (seconds).
     * A failed or refused request counts as missing every latency limit.
     */
    void
    record(uint64_t i, double send, double recv, bool ok)
    {
        samples_.push_back(
            {ok ? (recv - due(i)) * 1e3
                : std::numeric_limits<double>::infinity(),
             (send - due(i)) * 1e3});
    }

    const std::vector<Sample> &samples() const { return samples_; }

  private:
    double start_;
    double rate_;
    std::vector<Sample> samples_;
};

/** What one operation came to. */
enum class Outcome { Ok, Error, Busy, Mismatch };

/**
 * Classify an apird response line. With `expected` given, an ok
 * response must repeat those bytes exactly (a result-store hit
 * replays the first response).
 */
inline Outcome
classify(const std::string &response, const std::string *expected)
{
    if (response.rfind("{\"status\":\"busy\"", 0) == 0)
        return Outcome::Busy;
    if (response.rfind("{\"status\":\"ok\"", 0) != 0)
        return Outcome::Error;
    if (expected && response != *expected)
        return Outcome::Mismatch;
    return Outcome::Ok;
}

/** Attempts and failures; every outcome but Ok is a failure. */
struct Tally
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t errors = 0;
    uint64_t busy = 0;
    uint64_t mismatches = 0;

    void
    add(Outcome o)
    {
        ++attempted;
        if (o == Outcome::Ok)
            return;
        ++failed;
        if (o == Outcome::Error)
            ++errors;
        else if (o == Outcome::Busy)
            ++busy;
        else
            ++mismatches;
    }

    void
    merge(const Tally &t)
    {
        attempted += t.attempted;
        failed += t.failed;
        errors += t.errors;
        busy += t.busy;
        mismatches += t.mismatches;
    }

    /** Share of attempts that succeeded; 0 when nothing was tried. */
    double
    okFrac() const
    {
        return attempted ? 1.0 - static_cast<double>(failed) /
                                     static_cast<double>(attempted)
                         : 0.0;
    }
};

/** FNV-1a 64 of a stats-json document: equal runs, equal digests. */
inline uint64_t
digest(const std::string &s)
{
    uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

} // namespace perfbench

#endif // APIR_PERFBENCH_MEASURE_HH
