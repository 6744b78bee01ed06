#!/usr/bin/env python3
"""A/B-runs the serving benchmark: a base revision against this checkout.

Usage, from the root of a checkout:

    python3 tools/perf_ab.py --base HEAD~1 --workload travel-durable \\
        [--pairs 10] [--seconds 20] [--trace 0] [--seed 1] [--json OUT]

The base revision is exported with `git archive` into
.bench_build/ab-<sha>/ (nothing in the repository's .git is touched) and
builds its own perfbench there; the change side is this working tree. Each
side first runs once for one second to build and warm up. Then pair i runs
perfbench/run.py on both sides with seed `--seed + i`, base first in even
pairs and change first in odd ones, so a drift in host load does not favour
one side.

For every metric it prints each side's median and quartiles and the
fraction of pairs the change won (direction from BENCHMARK.json; "-" where
the metric has no direction). It records the 1-minute load average from
/proc/loadavg before and after each run and warns when the two sides ran
under different load: loopback latencies on a busy host read much better
than on a quiet one, so such an A/B compares hosts, not programs.

Exits 1 if any run failed or reported "correct": false.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LOAD_SPREAD_WARNING = 0.5  # 1-minute load average difference between sides


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export_base(revision):
    sha = git("rev-parse", "--verify", revision + "^{commit}")
    path = os.path.join(ROOT, ".bench_build", "ab-" + sha[:12])
    marker = os.path.join(path, ".exported")
    if not os.path.exists(marker):
        os.makedirs(path, exist_ok=True)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", path], stdin=archive.stdout,
                       check=True)
        if archive.wait() != 0:
            sys.exit(f"perf_ab: git archive {sha} failed")
        open(marker, "w").close()
    return sha, path


def load_average():
    with open("/proc/loadavg") as f:
        return float(f.read().split()[0])


def run_side(root, args, seed, seconds):
    before = load_average()
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", args.workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(args.trace)],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    after = load_average()
    lines = proc.stdout.strip().splitlines()
    result = {}
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = {}
    ok = proc.returncode == 0 and result.get("correct") is True
    metrics = {name: entry["value"]
               for name, entry in result.get("metrics", {}).items()}
    return {"seed": seed, "ok": ok, "load_before": before,
            "load_after": after, "metrics": metrics}


def directions():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["better"]
            for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True,
                        help="base revision (any git commit-ish)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the first pair; pair i uses seed + i")
    parser.add_argument("--json", help="also write every run to this file")
    args = parser.parse_args()

    sha, base_root = export_base(args.base)
    sides = {"base": base_root, "change": ROOT}
    print(f"perf_ab: base {sha[:12]} vs working tree, {args.workload}, "
          f"{args.pairs} pairs of {args.seconds} s, trace {args.trace}",
          file=sys.stderr)
    for name, root in sides.items():
        warm = run_side(root, args, args.seed, 1)
        if not warm.get("ok"):
            sys.exit(f"perf_ab: {name} side failed its warm-up run")

    runs = {"base": [], "change": []}
    for i in range(args.pairs):
        order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
        for name in order:
            run = run_side(sides[name], args, args.seed + i, args.seconds)
            runs[name].append(run)
            print(f"  pair {i + 1}/{args.pairs} {name:6} seed "
                  f"{run['seed']} load {run['load_before']:.2f}->"
                  f"{run['load_after']:.2f} {'ok' if run['ok'] else 'FAILED'}",
                  file=sys.stderr)

    better = directions()
    names = sorted(set().union(*(r["metrics"] for side in runs.values()
                                 for r in side)))
    header = (f"{'metric':36} {'base median [q1, q3]':>34} "
              f"{'change median [q1, q3]':>34} {'wins':>6}")
    print(header)
    for metric in names:
        cells = []
        for name in ("base", "change"):
            values = [r["metrics"][metric] for r in runs[name]
                      if metric in r["metrics"]]
            if not values:
                cells.append("-")
                continue
            median, q1, q3 = summary(values)
            cells.append(f"{median:.6g} [{q1:.6g}, {q3:.6g}]")
        wins = "-"
        if metric in better:
            pairs = [(b["metrics"].get(metric), c["metrics"].get(metric))
                     for b, c in zip(runs["base"], runs["change"])]
            pairs = [(b, c) for b, c in pairs if b is not None and c is not None]
            won = sum(1 for b, c in pairs
                      if (c < b if better[metric] == "lower" else c > b))
            wins = f"{won}/{len(pairs)}"
        print(f"{metric:36} {cells[0]:>34} {cells[1]:>34} {wins:>6}")

    loads = {name: statistics.median(
        [(r["load_before"] + r["load_after"]) / 2 for r in side])
        for name, side in runs.items()}
    print(f"load (1-min average, median of before/after means): "
          f"base {loads['base']:.2f}, change {loads['change']:.2f}")
    if abs(loads["base"] - loads["change"]) > LOAD_SPREAD_WARNING:
        print("WARNING: the two sides ran under different host load; "
              "latency and throughput comparisons are not trustworthy",
              file=sys.stderr)

    if args.json:
        with open(args.json, "w") as f:
            json.dump({"base": sha, "workload": args.workload,
                       "seconds": args.seconds, "trace": args.trace,
                       "runs": runs}, f, indent=1)
    failed = [r for side in runs.values() for r in side if not r["ok"]]
    if failed:
        print(f"perf_ab: {len(failed)} run(s) failed or were incorrect",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
