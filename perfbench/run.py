#!/usr/bin/env python3
"""Build and run the engine benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` package (release,
offline) into $CARGO_TARGET_DIR (default `.bench_build`), runs it for the
one workload in its own process, checks the deterministic cost totals
against the pins in `expected.json`, and prints a human-readable summary
followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exits 1, after printing that line, when a correctness check fails, and
exits 1 without printing it when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("t05_ksplay_1m", "drift_lazy_64k", "boundary_reshard_2t")
PINNED = ("unit_cost", "links", "migrations", "rebuilds")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    target = os.path.join(ROOT, env["CARGO_TARGET_DIR"])
    return os.path.join(target, "release", "perfbench")


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def pin_problems(workload, seed, totals):
    with open(os.path.join(HERE, "expected.json")) as f:
        pins = json.load(f).get(workload, {}).get(str(seed))
    if pins is None:
        return [], False
    problems = [f"{key} = {totals[key]}, pinned {pins[key]}"
                for key in PINNED if totals[key] != pins[key]]
    return problems, True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    exe = build(env)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE, text=True)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"run failed: {e}")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"run failed with exit code {done.returncode}")
    raw = json.loads(lines[-1])

    pins, pinned = pin_problems(args.workload, args.seed, raw["totals"])
    problems = raw["problems"] + [f"pin: {p}" for p in pins]
    attempted, failed = raw["attempted"], raw["failed"]
    correct = not problems and failed == 0

    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": int(args.trace),
        "nproc": raw["nproc"],
        "profile": raw["profile"],
        "commit": git_commit(),
        "reps": raw["reps"],
    }
    print("stamp " + json.dumps(stamp))
    print("totals " + json.dumps(raw["totals"])
          + (" (pinned)" if pinned else " (no pin for this seed)"))
    for name, m in raw["metrics"].items():
        print(f"  {name:<28} {m['value']:>16.4f} {m['unit']}")
    print(f"  {'failed_frac':<28} {failed / max(attempted, 1):>16.4f} ratio")
    for p in problems:
        print(f"CHECK FAILED: {p}")

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": raw["metrics"]}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
