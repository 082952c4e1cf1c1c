#!/usr/bin/env python3
"""Build and run the accelwall benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload table3_sweep|paper_regen|serve_mix \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

"all" runs the three workloads one after another, each in its own
process. The first call in a checkout configures and builds perfbench (the
library from src/ plus the perfbench binary) into .bench_build/perfbench;
later calls rebuild incrementally. The binary's human-readable lines
start with "# " and its last stdout line is the JSON result. A traced run
also writes a Chrome trace to .bench_build/.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
JOBS = "4"
WORKLOADS = ("table3_sweep", "paper_regen", "serve_mix")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no accelwall sources (src/CMakeLists.txt) in "
            + ROOT + "; run from the repository root")
        return False
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", JOBS])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("build step failed: " + " ".join(cmd))
            return False
    return True


def git_describe():
    try:
        done = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    out = done.stdout.strip()
    return out if done.returncode == 0 and out else "unknown"


def main(argv):
    if argv == ["--selftest"]:
        if not build():
            return 1
        return subprocess.run(
            [os.path.join(BUILD, "perfbench_test")]).returncode
    args = dict(zip(argv[0::2], argv[1::2]))
    needed = ("--workload", "--seed", "--seconds", "--trace")
    if len(argv) % 2 or any(k not in args for k in needed):
        log("usage: run.py --workload NAME --seed N --seconds S "
            "--trace 0|1")
        return 2
    if not build():
        return 1
    workloads = WORKLOADS if args["--workload"] == "all" else (
        args["--workload"],)
    rc = 0
    for workload in workloads:
        args["--workload"] = workload
        trace_out = os.path.join(
            ROOT, ".bench_build",
            f"trace-{workload}-seed{args['--seed']}.json")
        cmd = [os.path.join(BUILD, "perfbench")]
        for key, value in args.items():
            cmd += [key, value]
        cmd += ["--trace-out", trace_out, "--git", git_describe()]
        rc = max(rc, subprocess.run(cmd).returncode)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
