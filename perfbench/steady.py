#!/usr/bin/env python3
"""Steadiness check: run a workload in two sets of seeded runs and compare.

    python3 perfbench/steady.py --workload kv-dynamic --runs 10
    python3 perfbench/steady.py                # every workload of BENCHMARK.json

Each run is `perfbench/run.py --workload W --seed S --seconds <run_seconds>
--trace 0`, with BENCHMARK.json's run_seconds, seeds 1..runs in the first
set and 1001..1000+runs in the second. For every end-to-end metric of
BENCHMARK.json the tool prints, per set, the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median, and
says whether the sets agree: every spread within the metric's bound, the
two medians within the bound of each other (|second - first| / first,
either direction), and the same share of failed operations. Exit status 1
when they do not. Run it from the root of a checkout.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("analyze-gen", "execute-corpus", "serve-edit", "kv-dynamic")
SET_SEEDS = (1, 1001)  # first seed of each set


def run_once(workload, seed, seconds):
    out = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                          "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", "0"],
                         capture_output=True, text=True, cwd=ROOT)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def drift(first, second):
    return abs(second - first) / first if first else float("inf")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, action="append",
                    help="default: the workloads of BENCHMARK.json")
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    args = ap.parse_args()
    seconds = bench["run_seconds"]

    agree = True
    for workload in args.workload or names:
        sets = [[run_once(workload, first + i, seconds) for i in range(args.runs)]
                for first in SET_SEEDS]
        print(f"== {workload}: {len(sets)} sets of {args.runs} runs, "
              f"{seconds:g} s each")
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in sets]
        correct = all(r["correct"] for runs in sets for r in runs)
        print(f"   failed share per set: {', '.join(f'{x:.6f}' for x in shares)}"
              f"  correct: {correct}")
        if len(set(shares)) > 1 or not correct:
            agree = False
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            rows = [summary([r["metrics"][name]["value"] for r in runs])
                    for runs in sets]
            cells = "  ".join(f"med {m:.5g} [{q1:.5g}, {q3:.5g}] spread {sp:.3f}"
                              for m, q1, q3, sp in rows)
            d = drift(rows[0][0], rows[1][0])
            ok = all(sp <= bound for _, _, _, sp in rows) and d <= bound
            agree = agree and ok
            print(f"   {name:18s} {cells}  medians differ by {d:.3f}"
                  f"  bound {bound}  {'ok' if ok else 'NOT STEADY'}")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
