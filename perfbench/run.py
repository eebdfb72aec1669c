#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first form builds the benchmark binary and the `pckptd` daemon in
release mode (into $CARGO_TARGET_DIR, default `.bench_build`), runs one
workload and passes its output through; the last stdout line is the
result object. `--self-test` runs every workload of BENCHMARK.json for
one second, traced and untraced, and checks that each declared metric
is reported with its declared unit.
"""

import json
import os
import signal
import subprocess
import sys

BENCH_DIR = "perfbench"
# Longest a single benchmark run may take before it is stopped.
RUN_TIMEOUT_S = 170


def build():
    """Builds both binaries; returns (perfbench, pckptd) paths or exits."""
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    builds = [
        ["--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")],
        ["--manifest-path", "Cargo.toml", "-p", "pckpt-cli", "--bin", "pckptd"],
    ]
    for extra in builds:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + extra
        # Build chatter goes to stderr: stdout carries only results.
        code = subprocess.run(cmd, env=env, stdout=sys.stderr).returncode
        if code != 0:
            sys.exit(code)
    release = os.path.join(target, "release")
    return os.path.join(release, "perfbench"), os.path.join(release, "pckptd")


def run(binary, pckptd, args, capture=False):
    cmd = [binary] + args + ["--pckptd", pckptd]
    stdout = subprocess.PIPE if capture else None
    # Its own process group, so a timeout also stops the daemons it spawned.
    proc = subprocess.Popen(cmd, stdout=stdout, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        sys.exit(1)
    return proc.returncode, out


def self_test(binary, pckptd):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    failures = []
    for workload in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            name = workload["name"]
            args = ["--workload", name, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
            code, out = run(binary, pckptd, args, capture=True)
            where = f"{name} --trace {trace}"
            if code != 0:
                failures.append(f"{where}: exit code {code}")
                continue
            result = json.loads(out.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                failures.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                failures.append(f"{where}: correct={result['correct']} "
                                f"attempted={result['attempted']} failed={result['failed']}")
            metrics = result["metrics"]
            expected = {m["name"]: m["unit"] for m in declared}
            if set(metrics) != set(expected):
                failures.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(metrics) ^ set(expected))}")
            for metric, unit in expected.items():
                got = metrics.get(metric, {})
                if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
                    failures.append(f"{where}: {metric} = {got}, want unit {unit}")
            print(f"self-test {where}: {len(metrics)} metrics", file=sys.stderr)
    for failure in failures:
        print(f"self-test FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


def main():
    binary, pckptd = build()
    if sys.argv[1:] == ["--self-test"]:
        sys.exit(self_test(binary, pckptd))
    code, _ = run(binary, pckptd, sys.argv[1:])
    sys.exit(code)


if __name__ == "__main__":
    main()
