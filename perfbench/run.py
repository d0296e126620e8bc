#!/usr/bin/env python3
"""Run one workload of the repository benchmark (see README.md here).

    python3 perfbench/run.py --workload fig9-default --seed 1 \
        --seconds 10 --trace 0

Run it from the root of a checkout. It builds this directory's CMake
package (the simulator's sources, the driver, apird and the self-test)
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that
variable is unset, runs the self-test, then runs the driver. The last
line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}, with the end-to-end metrics of BENCHMARK.json under
--trace 0 and its per-layer metrics under --trace 1.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# Every run must end within 180 s; the build may take the first one
# past that, so only the driver gets this budget.
DRIVER_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure once, then bring the targets up to date."""
    def run(cmd):
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        run(["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"])
    run(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)])


def check_result(line, bench, trace):
    """The driver's result must carry exactly the metrics promised."""
    try:
        res = json.loads(line)
    except ValueError:
        fail("driver printed no result line")
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail("result has keys %s" % sorted(res))
    want = bench["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in want}
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    if got != units:
        fail("metrics differ from BENCHMARK.json: %s"
             % sorted(set(got.items()) ^ set(units.items())))
    if res["attempted"] < 1:
        fail("nothing was attempted")
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1 or not 0 <= args.seed < 2 ** 32:
        fail("--seconds must be >= 1 and --seed fit in 32 bits")

    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail("unknown workload %r" % args.workload)

    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
        "perfbench")
    build(build_dir)
    if subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                      stdout=sys.stderr).returncode != 0:
        fail("self-test failed")

    cmd = [os.path.join(build_dir, "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", root,
           "--work", os.path.join(build_dir, "work-" + args.workload),
           "--apird", os.path.join(build_dir, "apird")]
    # Own session, so a timeout can stop the driver and its daemon.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        # Nothing the driver started may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if out is None:
        fail("driver ran past %d s" % DRIVER_TIMEOUT_S)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("driver exited with %d" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    res = check_result(lines[-1], bench, args.trace)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    t0 = time.time()
    rc = main()
    print("perfbench: %.1f s" % (time.time() - t0), file=sys.stderr)
    sys.exit(rc)
