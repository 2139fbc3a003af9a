#!/usr/bin/env python3
"""Build and run the SimDC benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (which compiles the simdc library from src/) in Release
under .bench_build/perfbench, runs the helper self-tests, then runs one
workload in its own process. The last line of stdout is the benchmark's
JSON result; a fuller artifact with provenance is written next to the
build. Exits non-zero without a result when the build, the self-tests or
the run fail.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_build" / "perfbench-out"
WORKLOADS = ("cross_device_wide", "silo_dense_durable", "multi_tenant_faults")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_logged(command, log_name):
    """Runs a build step; on failure shows the tail of its log."""
    log_path = BUILD_DIR.parent / log_name
    with open(log_path, "w") as log:
        result = subprocess.run(command, cwd=ROOT, stdout=log,
                                stderr=subprocess.STDOUT)
    if result.returncode != 0:
        tail = log_path.read_text(errors="replace").splitlines()[-30:]
        print("\n".join(tail), file=sys.stderr)
        fail(f"step failed: {' '.join(command)}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("SimDC sources (src/) not found next to perfbench/")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                    "-DCMAKE_BUILD_TYPE=Release"], "configure.log")
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", str(BUILD_DIR), "-j", jobs], "build.log")
    run_logged([str(BUILD_DIR / "simdc_perfbench_selftest"),
                str(BUILD_DIR.parent / "selftest-scratch")], "selftest.log")


def commit_id():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    command = [str(BUILD_DIR / "simdc_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", str(OUT_DIR), "--commit", commit_id()]
    try:
        result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if result.returncode != 0:
        sys.stderr.write(result.stdout)
        fail(f"benchmark exited with code {result.returncode}")
    lines = result.stdout.rstrip("\n").splitlines()
    try:
        summary = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(result.stdout)
        fail("benchmark printed no JSON result")
    if set(summary) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys: {sorted(summary)}")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
