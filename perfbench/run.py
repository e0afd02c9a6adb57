#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (the simulator library
from src/ plus the driver binary) into $CARGO_TARGET_DIR, or .bench_build
when that is unset, then runs one workload on one thread and prints the
driver's output. The last line is one JSON object with "correct",
"attempted", "failed" and "metrics": the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
A traced run also writes its host-time spans, as Chrome trace-event JSON,
to <build dir>/traces/. The exit status is non-zero when a check fails,
the build fails, or the simulator sources are missing.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configure once, then build incrementally; output goes to a log."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}", 2)
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "perfbench-build.log"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "perfbench", "--parallel", "4"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed, see {log_path}")
    return build_dir / "perfbench"


def declared_metrics(trace):
    """Names and units of the metrics BENCHMARK.json declares for the
    mode, or None when it is absent (all measured metrics are printed)."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative", 2)

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_dir)

    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace)]
    if args.trace:
        trace_dir = build_dir / "traces"
        trace_dir.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(trace_dir / f"{args.workload}-seed{args.seed}.json")]
    env = dict(os.environ, CCACHE_JOBS="1")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")

    lines = proc.stdout.splitlines()
    if not lines:
        fail(f"{args.workload} printed nothing (exit {proc.returncode})")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(lines[-1])
        fail(f"{args.workload} did not end with a result line")

    measured = result["metrics"]
    wanted = declared_metrics(args.trace)
    if wanted is not None:
        metrics = {}
        for name, unit in wanted.items():
            if name in measured:
                value = measured[name]["value"]
            elif args.trace:
                value = 0.0  # the layer takes no part in this workload
            else:
                fail(f"{args.workload} did not report {name}")
            metrics[name] = {"value": value, "unit": unit}
        result["metrics"] = metrics
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
