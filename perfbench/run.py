#!/usr/bin/env python3
"""Builds and runs the QPPT benchmark (perfbench/main.cc).

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: ssb-kiss-serial, ssb-prefix-parallel, htap-mixed (README.md).
The first call configures and builds the engine library and the
benchmark binary (Release) under .bench_build/perfbench; later calls only
re-check the build. Each call runs the metric self-test, then one
workload. Build and diagnostic output goes to stderr; the last stdout line
is the result object {"correct", "attempted", "failed", "metrics"}.
--trace 1 also writes the run's spans to
.bench_build/perfbench/traces/<workload>-seed<n>.json.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("ssb-kiss-serial", "ssb-prefix-parallel", "htap-mixed")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"no engine sources under {root / 'src'}; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for cmd in steps:
        try:
            subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
            fail(f"build step failed: {' '.join(cmd)}: {e}")
    return build_dir / "qppt_perfbench"


def git_describe(root):
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def run(cmd):
    """Runs cmd to completion (killing it on timeout); returns (code, stdout)."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {RUN_TIMEOUT_S} s: {' '.join(cmd)}")
    return proc.returncode, proc.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        fail("--seconds must be >= 1 and --seed >= 0")

    root = Path(__file__).resolve().parent.parent
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    binary = build(root, build_dir)

    code, out = run([str(binary), "--self-test"])
    if code != 0:
        fail("metric self-test failed:\n" + out)
    print(out.strip(), file=sys.stderr)

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-describe", git_describe(root)]
    if args.trace:
        traces = build_dir / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.json")]
    code, out = run(cmd)
    lines = out.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            raise ValueError(f"unexpected keys {sorted(result)}")
    except (IndexError, ValueError) as e:
        sys.stderr.write(out)
        fail(f"no result line from the benchmark (exit {code}): {e}")
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
