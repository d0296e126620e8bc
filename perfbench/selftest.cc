/**
 * @file
 * Self-test of the benchmark's arithmetic (measure.hh). Exits 1 on the
 * first failed check; run.py runs it before every measurement, and
 * `ctest` in the perfbench build runs it too.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "measure.hh"

using namespace perfbench;

namespace {

int failures = 0;

void
check(bool cond, const char *what)
{
    if (!cond) {
        std::fprintf(stderr, "selftest FAILED: %s\n", what);
        ++failures;
    }
}

std::vector<double>
iota(size_t n)
{
    std::vector<double> v(n);
    for (size_t i = 0; i < n; ++i)
        v[i] = static_cast<double>(i + 1);
    return v;
}

void
testPercentileChoice()
{
    // p99 needs ten samples beyond it: 1000 samples, not 999.
    check(supports(1000, 9900), "1000 samples support p99");
    check(!supports(999, 9900), "999 samples do not support p99");
    check(supports(100, 9000), "100 samples support p90");
    check(!supports(99, 9000), "99 samples do not support p90");
    check(supports(20, 5000) && !supports(19, 5000),
          "the median needs 20 samples");

    Tail t = highestTail(iota(1000));
    check(t.ptt == 9900 && t.n == 1000, "1000 samples report p99");
    check(t.value == 990.0, "nearest-rank p99 of 1..1000 is 990");
    check(highestTail(iota(10000)).ptt == 9990, "10000 report p99.9");
    check(highestTail(iota(150)).ptt == 9000, "150 samples report p90");
    check(highestTail(iota(5)).ptt == 0, "5 samples support nothing");
    check(median(iota(5)) == 3.0, "median of 1..5");
    check(std::isnan(percentile({}, 5000)), "empty sample is NaN");
}

void
testOpenLoopDueTime()
{
    // 1000 requests/s; request 0 stalls for 50 ms, every other one is
    // served in 0.1 ms. The client sends each request at its due time
    // or, when the connection is still busy, as soon as it frees up.
    OpenLoop ol(10.0, 1000.0);
    double prevRecv = 0.0;
    for (uint64_t i = 0; i < 100; ++i) {
        double send = std::max(ol.due(i), prevRecv);
        double recv = send + (i == 0 ? 0.050 : 0.0001);
        ol.record(i, send, recv, true);
        prevRecv = recv;
    }
    std::vector<double> lat, late;
    for (const Sample &s : ol.samples()) {
        lat.push_back(s.latencyMs);
        late.push_back(s.lateMs);
    }
    check(std::abs(ol.due(5) - 10.005) < 1e-12, "due time of request 5");
    check(std::abs(lat[0] - 50.0) < 1e-6, "the stalled request");
    // Request 1 was due at 1 ms, sent at 50 ms, answered at 50.1 ms.
    check(std::abs(lat[1] - 49.1) < 1e-6,
          "a request behind a stall is timed from its due time");
    check(std::abs(late[1] - 49.0) < 1e-6, "generator lateness");
    check(std::abs(lat[99] - 0.1) < 1e-6, "caught up by request 99");
    check(late[0] == 0.0, "request 0 was sent on time");

    OpenLoop failed(0.0, 100.0);
    failed.record(0, 0.0, 0.0001, false);
    check(std::isinf(failed.samples()[0].latencyMs),
          "a failed request misses every latency limit");
}

void
testAccounting()
{
    const std::string ok = "{\"status\":\"ok\",\"run\":{}}";
    const std::string other = "{\"status\":\"ok\",\"run\":{\"x\":1}}";
    check(classify(ok, nullptr) == Outcome::Ok, "ok response");
    check(classify(ok, &ok) == Outcome::Ok, "identical replay");
    check(classify(other, &ok) == Outcome::Mismatch, "byte mismatch");
    check(classify("{\"status\":\"busy\",\"retry_after_ms\":50}",
                   nullptr) == Outcome::Busy,
          "busy response");
    check(classify("{\"status\":\"error\",\"error\":\"x\"}", nullptr) ==
              Outcome::Error,
          "error response");
    check(classify("", nullptr) == Outcome::Error, "no response");

    Tally t;
    t.add(Outcome::Ok);
    t.add(Outcome::Ok);
    t.add(Outcome::Busy);
    t.add(Outcome::Error);
    t.add(Outcome::Mismatch);
    check(t.attempted == 5 && t.failed == 3, "failures against attempts");
    check(t.busy == 1 && t.errors == 1 && t.mismatches == 1,
          "failure kinds");
    check(std::abs(t.okFrac() - 0.4) < 1e-12, "ok share");
    Tally u;
    u.add(Outcome::Ok);
    t.merge(u);
    check(t.attempted == 6 && t.failed == 3, "merged tallies");
    check(Tally{}.okFrac() == 0.0, "nothing attempted is not success");
}

void
testDigest()
{
    check(digest("a") == digest("a"), "digest is deterministic");
    check(digest("a") != digest("b"), "digest separates documents");
    check(digest("") == 1469598103934665603ull, "FNV-1a offset basis");
}

} // namespace

int
main()
{
    testPercentileChoice();
    testOpenLoopDueTime();
    testAccounting();
    testDigest();
    if (failures)
        return EXIT_FAILURE;
    std::printf("perfbench selftest: ok\n");
    return EXIT_SUCCESS;
}
