#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload local-scan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke       # every workload, tiny and traced
    python3 perfbench/run.py --selftest    # the benchmark's own unit tests

Run from the root of a checkout. The benchmark and libsage are built
from the checkout's sources into .bench_build/ (Release); archives go
to a scratch directory under it that is removed afterwards, and traced
runs leave their spans in .bench_build/traces/. The last stdout line is
the JSON result; see perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(target):
    """Configure once, then build `target` (a no-op when up to date)."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail("no CMakeLists.txt at the checkout root; cannot build libsage")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", target,
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail("build step failed: %s" % err)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    binary = os.path.join(BUILD_DIR, target)
    if not os.path.isfile(binary):
        fail("build produced no " + target)
    return binary


def host_shape_line(host):
    """Compare the measured host block with perfbench/host.json."""
    try:
        with open(os.path.join(HERE, "host.json")) as f:
            reference = json.load(f)
    except (OSError, ValueError):
        return "host_shape unknown (no perfbench/host.json)"
    diffs = []
    for key in ("nproc", "compiler", "build_type", "kernel_tier",
                "force_scalar"):
        if host.get(key) != reference.get(key):
            diffs.append("%s %r vs reference %r"
                         % (key, host.get(key), reference.get(key)))
    # The spin probe is coarse; only a factor of two counts as a change.
    measured = host.get("effective_parallelism", 0.0)
    expected = reference.get("effective_parallelism", 0.0)
    if not expected / 2 <= measured <= expected * 2:
        diffs.append("effective_parallelism %.2f vs reference %.2f"
                     % (measured, expected))
    if not diffs:
        return "host_shape same as perfbench/host.json"
    return ("host_shape DIFFERENT (%s): figures are not comparable with "
            "runs on the reference host" % "; ".join(diffs))


def expected_metrics(trace):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run(args):
    binary = build("sage_perfbench")
    work = os.path.join(BUILD_ROOT, "work", str(os.getpid()))
    cmd = [binary, "--work-dir", work]
    if args.smoke:
        cmd.append("--smoke")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--trace-dir", os.path.join(BUILD_ROOT, "traces")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
                              universal_newlines=True)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S, 3)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = done.stdout.splitlines()
    if args.smoke:
        print("\n".join(lines))
        return done.returncode

    if not lines or not lines[-1].startswith("{"):
        print("\n".join(lines))
        fail("benchmark printed no result (exit %d)" % done.returncode, 3)
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
        if line.startswith("host "):
            print(host_shape_line(json.loads(line[5:])))
    names = expected_metrics(args.trace == 1)
    if names is not None and sorted(result["metrics"]) != sorted(names):
        print(lines[-1])
        fail("metrics %s do not match BENCHMARK.json %s"
             % (sorted(result["metrics"]), sorted(names)), 3)
    print(lines[-1], flush=True)
    return done.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["ingest", "local-scan",
                                               "remote-stream",
                                               "remote-lookup"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        binary = build("perfbench_selftest")
        return subprocess.run([binary], cwd=ROOT).returncode
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
