#!/usr/bin/env python3
"""Build and run the memcim benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first form builds the simulator's libraries and the benchmark from
the sources of this checkout into .bench_build/perfbench (incrementally),
runs one workload in its own process and prints the benchmark's report;
the last line of stdout is the JSON result.  --self-test builds and runs
the tests of the benchmark's output checkers.  The exit code is 0 only
when the build, every check and the report are good.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("serve_mix", "table2_batch", "crossbar_vmm")
RUN_TIMEOUT_S = 170


def available_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build(target):
    """Configure (once) and build `target`; the build log stays in BUILD."""
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(max(1, min(4, available_cores())))
    with open(log_path, "w") as log:
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD)])
        steps.append(["cmake", "--build", str(BUILD), "--target", target,
                      "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                sys.stderr.write("build failed:\n" + "\n".join(tail) + "\n")
                return False
    return True


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run(args):
    if not build("perfbench"):
        return 2
    # The binary sets its thread count and telemetry state itself.
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"{args.workload} did not finish in "
                         f"{RUN_TIMEOUT_S} s\n")
        return 3
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(f"{args.workload} printed no result "
                         f"(exit {proc.returncode})\n")
        return proc.returncode or 4
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        sys.stderr.write(f"metrics differ from BENCHMARK.json: got "
                         f"{sorted(got.items())}, want "
                         f"{sorted(want.items())}\n")
        return 5
    for line in lines[:-1]:
        print(line)
    for name, m in sorted(result["metrics"].items()):
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return proc.returncode


def self_test():
    if not build("perfbench_checks_test"):
        return 2
    return subprocess.run([str(BUILD / "perfbench_checks_test")],
                          cwd=ROOT).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
