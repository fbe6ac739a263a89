#!/usr/bin/env python3
"""Build and run the vbr benchmark (see vbrbench/README.md).

    python3 vbrbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 vbrbench/run.py --self-check

Run from the root of a checkout. The first call configures and builds the
library and the benchmark binary from source into $CARGO_TARGET_DIR (default
.bench_build) under the checkout; later calls rebuild only what changed. The
benchmark's output goes to stdout, and its last line is one JSON object;
build output goes to stderr.

--self-check runs every workload once at a tiny size in both modes, checks
that each metric named in BENCHMARK.json is printed with its unit and that
the output parses, and that two runs of delta_m2_mixed with one seed print
the same plan digest and the same exact counter deltas.
"""

import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "vbrbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 1500


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "vbrbench")


def build():
    """Builds the benchmark binary; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("vbrbench: library sources (src/) not found next to vbrbench/",
              file=sys.stderr)
        return None
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "vbrbench"])
    for step in steps:
        try:
            code = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"vbrbench: build failed: {e}", file=sys.stderr)
            return None
        if code != 0:
            print(f"vbrbench: build step failed: {' '.join(step)}",
                  file=sys.stderr)
            return None
    return os.path.join(out, "vbrbench")


def run_binary(binary, args, capture):
    """Runs the binary to completion; returns (exit code, stdout or None)."""
    try:
        proc = subprocess.run([binary] + args, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        print("vbrbench: run timed out", file=sys.stderr)
        return 1, None
    return proc.returncode, proc.stdout


def self_check(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            args = ["--workload", workload, "--seed", "7", "--seconds", "1",
                    "--trace", str(trace), "--tiny"]
            code, out = run_binary(binary, args, capture=True)
            where = f"{workload} --trace {trace}"
            if code != 0 or not out:
                failures.append(f"{where}: exit {code}")
                continue
            try:
                result = json.loads(out.strip().splitlines()[-1])
            except ValueError:
                failures.append(f"{where}: last line is not JSON")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{where}: wrong top-level keys")
                continue
            if result["correct"] is not True or result["attempted"] < 1:
                failures.append(f"{where}: not correct or nothing attempted")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = result["metrics"]
            if set(got) != set(want):
                failures.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}")
            for name, unit in want.items():
                m = got.get(name)
                if m is None:
                    continue
                if m.get("unit") != unit:
                    failures.append(f"{where}: {name} unit {m.get('unit')}")
                value = m.get("value")
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    failures.append(f"{where}: {name} value {value!r}")
    # delta_m2_mixed has one caller and a fixed schedule: its digest and its
    # exact counter deltas must repeat for a seed.
    repeat = []
    for _ in range(2):
        code, out = run_binary(binary, ["--workload", "delta_m2_mixed",
                                        "--seed", "7", "--seconds", "1",
                                        "--trace", "0", "--tiny"], capture=True)
        lines = [l for l in (out or "").splitlines()
                 if " digest " in l or " exact-counts " in l]
        repeat.append((code, lines))
    if repeat[0] != repeat[1] or len(repeat[0][1]) != 2:
        failures.append(f"delta_m2_mixed does not repeat: {repeat}")
    for f in failures:
        print(f"self-check: FAIL {f}", file=sys.stderr)
    print("self-check: " + ("FAIL" if failures else "ok"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and not args.workload:
        parser.error("--workload is required")
    binary = build()
    if binary is None:
        return 2
    if args.self_check:
        return self_check(binary)
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, f"{args.workload}-seed{args.seed}.jsonl")]
    code, _ = run_binary(binary, cmd, capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
