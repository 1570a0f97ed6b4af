#!/usr/bin/env python3
"""Same-host A/B comparison of two revisions on the engine benchmark.

    python3 tools/ab.py [--workload W ...] [--pairs N] [--seconds S]
                        [--seed N] [--trace 0|1] BASE CHANGE
    python3 tools/ab.py --bench NAME [--bench NAME ...] [--pairs N] BASE CHANGE
    python3 tools/ab.py --clean

Run from anywhere inside the repository. Checks BASE and CHANGE (any git
revision: a branch, a tag, a sha, or HEAD) out into detached git worktrees
under `.bench_build/ab/`, one per commit, and runs each worktree's own
`perfbench/run.py` unchanged, so each side builds and measures exactly its
own sources (into the worktree's `.bench_build`). Runs come in pairs, one
per side, and the side that runs first alternates from pair to pair, so
a drift in host speed lands on both sides alike.

After each pair it prints one `ab pair` line to stderr with both sides'
values of every end-to-end metric BENCHMARK.json gates, so the per-pair
values of any gated metric can be listed from one run. For each workload
and metric it then prints the median and quartiles of both
sides, the ratio of the medians (change / base), how many pairs the
change won (by the metric's direction in BENCHMARK.json, lower is better
where none is given), a two-sided sign-test p-value over the non-tied
pairs, and the host's core count, then one JSON line per workload:

    {"ab": {"workload": ..., "metrics": {name: {"ratio": ..., ...}}}}

`--bench NAME` compares a criterion bench of the `kst-bench` package
instead: each run is `cargo bench -p kst-bench --bench NAME` in the side's
worktree, writing a fresh `KSAN_BENCH_JSON` file, and every benchmark in
it is one metric (ns per iteration, lower is better). The JSON lines read
`{"ab": {"bench": ..., "metrics": {...}}}`. `KSAN_BENCH_MEASURE_MS` in
the environment sets each benchmark's measuring time, as for a plain
`cargo bench`.

Comparing a revision with itself (HEAD HEAD) is an A/A run: it measures
the noise floor of the host. Exits 1 when a run fails or a side reports
`"correct": false`. `--clean` removes the worktrees.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("t05_ksplay_1m", "drift_lazy_64k", "boundary_reshard_2t")
BUILD_TIMEOUT_S = 900
RUN_TIMEOUT_S = 900


def fail(msg):
    print(f"ab: {msg}", file=sys.stderr)
    sys.exit(1)


def git(root, *args):
    done = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        fail(f"git {' '.join(args)} failed: {done.stderr.strip()}")
    return done.stdout.strip()


def repo_root():
    return git(HERE, "rev-parse", "--show-toplevel")


def ab_dir(root):
    return os.path.join(root, ".bench_build", "ab")


def worktree(root, sha):
    """The detached worktree of `sha`, created on first use."""
    path = os.path.join(ab_dir(root), sha[:12])
    if os.path.isdir(path):
        if git(path, "rev-parse", "HEAD") != sha:
            fail(f"{path} is not at {sha}; run --clean")
        return path
    os.makedirs(ab_dir(root), exist_ok=True)
    git(root, "worktree", "add", "--detach", "--quiet", path, sha)
    return path


def clean(root):
    base = ab_dir(root)
    if os.path.isdir(base):
        for name in sorted(os.listdir(base)):
            path = os.path.join(base, name)
            if os.path.isdir(path):
                git(root, "worktree", "remove", "--force", path)
    git(root, "worktree", "prune")


def side_env():
    env = dict(os.environ)
    # Relative to each worktree, so the two sides never share a build.
    env["CARGO_TARGET_DIR"] = ".bench_build"
    return env


def build(path, benches=()):
    """Builds the benchmark once up front, so no pair pays for a build."""
    if benches:
        cmd = ["cargo", "bench", "--offline", "--quiet", "--no-run", "-p", "kst-bench"]
        for name in benches:
            cmd += ["--bench", name]
    else:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", os.path.join(path, "perfbench", "Cargo.toml")]
    done = subprocess.run(cmd, cwd=path, env=side_env(), timeout=BUILD_TIMEOUT_S)
    if done.returncode != 0:
        fail(f"build in {path} failed with exit code {done.returncode}")


def run_once(path, workload, args):
    """One perfbench run: (metric values, correct, nproc)."""
    cmd = [sys.executable, os.path.join(path, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    done = subprocess.run(cmd, cwd=path, env=side_env(), capture_output=True,
                          text=True, timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(done.stderr)
        fail(f"run of {workload} in {path} failed with exit code {done.returncode}")
    result = json.loads(lines[-1])
    nproc = None
    for line in lines:
        if line.startswith("stamp "):
            nproc = json.loads(line[len("stamp "):]).get("nproc")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return values, bool(result["correct"]) and result["failed"] == 0, nproc


def run_bench(path, name):
    """One criterion bench run: {benchmark: ns per iteration}."""
    out = os.path.join(path, ".bench_build", f"ab-{name}.jsonl")
    if os.path.exists(out):
        os.remove(out)
    env = side_env()
    # Absolute: cargo runs bench binaries from the package directory.
    env["KSAN_BENCH_JSON"] = out
    cmd = ["cargo", "bench", "--offline", "--quiet", "-p", "kst-bench", "--bench", name]
    done = subprocess.run(cmd, cwd=path, env=env, capture_output=True,
                          text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0 or not os.path.exists(out):
        sys.stderr.write(done.stderr)
        fail(f"bench {name} in {path} failed with exit code {done.returncode}")
    values = {}
    with open(out) as f:
        for line in f:
            rec = json.loads(line)
            values[rec["bench"]] = rec["ns_per_iter"]
    return values


def benchmark_spec(root):
    """BENCHMARK.json, or {} when it is missing or unreadable."""
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def directions(spec):
    """Metric name -> "lower" or "higher", from BENCHMARK.json."""
    return {m["name"]: m.get("better", "lower")
            for key in ("end_to_end", "per_layer") for m in spec.get(key, [])}


def gated(spec):
    """The end-to-end metric names BENCHMARK.json bounds, in its order."""
    return [m["name"] for m in spec.get("end_to_end", [])] or ["serve_cpu_ns_per_req"]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def sign_test(wins, losses):
    """Two-sided exact sign-test p-value; ties are dropped."""
    m = wins + losses
    if m == 0:
        return 1.0
    tail = sum(math.comb(m, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2.0 * tail / 2 ** m)


def summarize(base, change, better):
    """Per-metric statistics of paired runs (lists of metric dicts)."""
    out = {}
    for name in base[0]:
        b = [r[name] for r in base]
        c = [r[name] for r in change]
        sign = -1.0 if better.get(name, "lower") == "higher" else 1.0
        wins = sum(1 for x, y in zip(b, c) if sign * (y - x) < 0)
        losses = sum(1 for x, y in zip(b, c) if sign * (y - x) > 0)
        bq, cq = quartiles(b), quartiles(c)
        out[name] = {
            "base": {"median": bq[1], "q1": bq[0], "q3": bq[2]},
            "change": {"median": cq[1], "q1": cq[0], "q3": cq[2]},
            "ratio": cq[1] / bq[1] if bq[1] else None,
            "wins": wins,
            "losses": losses,
            "p": sign_test(wins, losses),
        }
    return out


def print_table(stats, pairs):
    width = max([24] + [len(name) for name in stats])
    print(f"  {'metric':<{width}} {'base median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'ratio':>7} {'wins':>6} {'p':>7}")
    for name, s in stats.items():
        b, c = s["base"], s["change"]
        ratio = f"{s['ratio']:.3f}" if s["ratio"] is not None else "-"
        print(f"  {name:<{width}} {b['median']:>12.4g} [{b['q1']:.4g}, {b['q3']:.4g}]"
              f"{'':>1} {c['median']:>12.4g} [{c['q1']:.4g}, {c['q3']:.4g}] "
              f"{ratio:>7} {s['wins']:>3}/{pairs:<2} {s['p']:>7.4f}")


def report_bench(bench, args, shas, nproc, stats):
    print(f"ab bench {bench}: {args.pairs} pairs, nproc {nproc}, "
          f"base {shas[0][:12]}, change {shas[1][:12]}")
    print_table(stats, args.pairs)
    print(json.dumps({"ab": {
        "bench": bench, "pairs": args.pairs, "nproc": nproc,
        "base": shas[0], "change": shas[1], "metrics": stats}}))


def report(workload, args, shas, nproc, correct, stats):
    pairs = args.pairs
    print(f"ab {workload}: seed {args.seed}, {pairs} pairs of {args.seconds:g} s runs, "
          f"nproc {nproc}, base {shas[0][:12]}, change {shas[1][:12]}, "
          f"correct {correct}")
    print_table(stats, pairs)
    print(json.dumps({"ab": {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "trace": int(args.trace), "pairs": pairs, "nproc": nproc,
        "base": shas[0], "change": shas[1], "correct": correct,
        "metrics": stats}}))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", nargs="?", help="base revision")
    ap.add_argument("change", nargs="?", help="changed revision")
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="workload to run (repeatable; default: all three)")
    ap.add_argument("--bench", action="append",
                    help="kst-bench criterion bench to run instead (repeatable)")
    ap.add_argument("--pairs", type=int, default=8)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--clean", action="store_true",
                    help="remove the worktrees under .bench_build/ab and exit")
    args = ap.parse_args()
    root = repo_root()
    if args.clean:
        clean(root)
        return
    if not args.base or not args.change:
        ap.error("BASE and CHANGE revisions are required")
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    if args.bench and args.workload:
        ap.error("--bench and --workload are exclusive")
    workloads = args.workload or list(WORKLOADS)

    shas = [git(root, "rev-parse", "--verify", f"{rev}^{{commit}}")
            for rev in (args.base, args.change)]
    paths = [worktree(root, sha) for sha in shas]
    for path in dict.fromkeys(paths):
        build(path, args.bench or ())
    if args.bench:
        compare_benches(args, shas, paths)
        return

    spec = benchmark_spec(root)
    shown = gated(spec)
    runs = {w: ([], []) for w in workloads}
    correct = {w: True for w in workloads}
    nproc = os.cpu_count()
    for i in range(args.pairs):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        for w in workloads:
            for side in order:
                values, ok, n = run_once(paths[side], w, args)
                runs[w][side].append(values)
                correct[w] = correct[w] and ok
                nproc = n or nproc
            b, c = runs[w][0][-1], runs[w][1][-1]
            values = [f"{key} base {b[key]:.4g}, change {c[key]:.4g}"
                      for key in shown if key in b and key in c]
            if values:
                print(f"ab pair {i + 1}/{args.pairs} {w}: " + "; ".join(values),
                      file=sys.stderr)

    better = directions(spec)
    for w in workloads:
        report(w, args, shas, nproc, correct[w],
               summarize(runs[w][0], runs[w][1], better))
    sys.exit(0 if all(correct.values()) else 1)


def compare_benches(args, shas, paths):
    runs = {b: ([], []) for b in args.bench}
    for i in range(args.pairs):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        for bench in args.bench:
            for side in order:
                runs[bench][side].append(run_bench(paths[side], bench))
            print(f"ab pair {i + 1}/{args.pairs} bench {bench} done", file=sys.stderr)
    for bench in args.bench:
        base, change = runs[bench]
        names = [n for n in base[0] if all(n in r for r in base + change)]
        if not names:
            fail(f"bench {bench} recorded no benchmark on both sides")
        stats = summarize([{n: r[n] for n in names} for r in base],
                          [{n: r[n] for n in names} for r in change], {})
        report_bench(bench, args, shas, os.cpu_count(), stats)


if __name__ == "__main__":
    main()
