#!/usr/bin/env python3
"""The m2c benchmark.

Builds perfbench/ (and the m2c sources it links) with CMake, then runs one
workload and passes its report through; the last line of standard output
is the JSON result.  Run from the repository root:

    python3 perfbench/run.py --workload cold_suite --seed 1 --seconds 10 --trace 0

Workloads: cold_suite, edit_loop, run_compute, farm_edit.  The build goes to
$CARGO_TARGET_DIR (default .bench_build) under the repository root; the
workload runs in a scratch directory there, which holds its sockets and
the farm's workspace.  The workload prints metric names and values;
BENCHMARK.json alone declares which names a run must carry and their
units, and this script checks the one against the other.  Exits non-zero
if the build fails, if any output is wrong, if a metric is not declared,
or if the run exceeds its time limit.
"""

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
# A run's time limit: set-ups, references and checks, plus the timed loop
# with room for a slow host.
RUN_MARGIN_S = 60
RUN_SLOWDOWN = 5
PR_SET_CHILD_SUBREAPER = 36


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures once, then builds incrementally.  Output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no m2c sources under", os.path.join(ROOT, "src"))
        return False
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            return False
    cmd = ["cmake", "--build", build_dir, "--target", "m2c_perfbench",
           "--parallel", "4"]
    return subprocess.call(cmd, stdout=sys.stderr) == 0


def declared_metrics(trace):
    """The metrics BENCHMARK.json declares for a run: (name, unit) pairs."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    group = spec["per_layer" if trace == "1" else "end_to_end"]
    return [(m["name"], m["unit"]) for m in group]


def result_line(line, trace):
    """Turns the workload's last line into the benchmark's result line.

    Every end-to-end metric must be present.  A per-layer metric the
    workload does not report reads 0 (a layer it does not cross); a name
    BENCHMARK.json does not declare is an error.  Returns None on error.
    """
    try:
        result = json.loads(line)
    except ValueError:
        log("perfbench: the workload printed no result")
        return None
    declared = declared_metrics(trace)
    names = {name for name, _ in declared}
    values = result["metrics"]
    unknown = sorted(set(values) - names)
    missing = sorted(names - set(values)) if trace == "0" else []
    if unknown or missing:
        log("perfbench: metrics not declared in BENCHMARK.json:", unknown,
            "declared but not reported:", missing)
        return None
    if trace == "1":
        print("\n  per-layer ledger:")
        for name, unit in declared:
            print("  %-28s %14.6f  %s" % (name, values.get(name, 0), unit))
    result["metrics"] = {name: {"value": values.get(name, 0), "unit": unit}
                         for name, unit in declared}
    return json.dumps(result)


def reap_all():
    """Waits for every process left to us (orphaned farm workers)."""
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not build(build_dir):
        log("perfbench: build failed")
        return 1

    run_dir = os.path.join(ROOT, target, "perfbench-run")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)

    # Pin the configuration: m2c reads tiering, optimization and fault
    # plans from M2C_* variables, so none may leak in from the caller.
    env = {k: v for k, v in os.environ.items() if not k.startswith("M2C_")}
    env["M2C_M2CD"] = os.path.join(build_dir, "bin", "m2cd")

    # Farm workers are grandchildren; becoming their subreaper lets a
    # crashed run's workers be killed and waited for here.
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1)
    except (OSError, AttributeError):
        pass

    cmd = [os.path.join(build_dir, "bin", "m2c_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    child = subprocess.Popen(cmd, cwd=run_dir, env=env, stdout=subprocess.PIPE,
                             text=True, start_new_session=True)
    limit = RUN_MARGIN_S + RUN_SLOWDOWN * args.seconds
    out = ""
    try:
        out, _ = child.communicate(timeout=limit)
        code = child.returncode
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded", limit, "s")
        code = 1
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    reap_all()
    shutil.rmtree(run_dir, ignore_errors=True)
    if code != 0 and not out:
        return code
    lines = out.rstrip("\n").split("\n")
    result = result_line(lines[-1], args.trace)
    print("\n".join(lines[:-1]))
    if result is None:
        return 1
    print(result, flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
