#!/usr/bin/env python3
"""Builds and runs the pipeline benchmark (see perfbench/README.md).

From the repository root:

    python3 perfbench/run.py --workload serve-uniform-heap --seed 1 \
        --seconds 16 --trace 0
    python3 perfbench/run.py --smoke

The first form configures and builds perfbench/ (CMake, Release) into
.bench_build/ (or $CARGO_TARGET_DIR), then runs one workload; the last
line of stdout is the benchmark's JSON result. --smoke runs every workload
at toy scale, traced and untraced, and checks that every metric named in
BENCHMARK.json prints with its unit and that no answer failed.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def run_logged(cmd, timeout):
    """Runs cmd with its output on stderr; returns the exit code."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False).returncode
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(cmd)}")
        return 124


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "serve",
                                       "query_service.hpp")):
        log(f"library sources not found under {ROOT}/src")
        return None
    out = build_dir()
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    configure = ["cmake", "-S", BENCH_DIR, "-B", out,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        if run_logged(configure, BUILD_TIMEOUT_S) != 0:
            # A cache from another source tree cannot be reused.
            shutil.rmtree(out, ignore_errors=True)
            if run_logged(configure, BUILD_TIMEOUT_S) != 0:
                return None
    if run_logged(["cmake", "--build", out, "--target", "pipebench",
                   "-j", jobs], BUILD_TIMEOUT_S) != 0:
        return None
    binary = os.path.join(out, "pipebench")
    return binary if os.path.isfile(binary) else None


def run_workload(binary, workload, seed, seconds, trace, scale="full"):
    """Runs one workload; returns (exit code, stdout)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scale", scale, "--work-dir", WORK_DIR]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"{workload} timed out after {RUN_TIMEOUT_S} s")
        return 124, ""
    return proc.returncode, out


def smoke(binary):
    """Toy-scale pass over every workload, traced and untraced."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            tag = f"{w['name']} trace={trace}"
            code, out = run_workload(binary, w["name"], 1, 1, trace, "smoke")
            lines = out.strip().splitlines()
            if code != 0 or not lines:
                problems.append(f"{tag}: exit {code}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
                continue
            if (result["correct"] is not True or result["failed"] != 0
                    or result["attempted"] < 1):
                problems.append(f"{tag}: correct={result['correct']} "
                                f"failed={result['failed']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{tag}: metrics/units differ from "
                                f"BENCHMARK.json: {sorted(set(got) ^ set(expected[trace]))}")
            for name, m in result["metrics"].items():
                if not isinstance(m["value"], (int, float)) or \
                        not math.isfinite(m["value"]):
                    problems.append(f"{tag}: {name} = {m['value']}")
            if trace == 0 and result["metrics"].get(
                    "correct_frac", {}).get("value") != 1:
                problems.append(f"{tag}: failed_frac is not 0")
            print(f"{tag}: ok ({len(result['metrics'])} metrics)")
    for p in problems:
        print(f"SMOKE FAILED: {p}")
    if not problems:
        print("smoke ok")
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and (args.workload is None or args.seed is None
                           or args.seconds is None):
        parser.error("--workload, --seed and --seconds are required")

    binary = build()
    if binary is None:
        log("build failed")
        return 2
    if args.smoke:
        return smoke(binary)
    code, out = run_workload(binary, args.workload, args.seed, args.seconds,
                             args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
