#!/usr/bin/env python3
"""Spread report: run workloads repeatedly and print each metric's spread.

    python3 perfbench/spread.py [--workloads a,b] [--runs 10] [--seed-base 1]
                                [--seconds S] [--trace 0|1] [--json out.json]

Each run uses another seed (seed-base, seed-base+1, ...). For every metric
of every workload it prints the median, the first and third quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread, the
quartile distance as a share of the median. End-to-end metrics are set
against their bound in BENCHMARK.json: `ok` below a third of the bound,
`wide` below the bound, `FAIL` at or above it. Any `FAIL` makes the exit
code 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed ({out.returncode}):\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed} reported an incorrect result")
    return result


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--json", help="also write every run's metrics here")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    raw = {}
    worst = "ok"
    for workload in args.workloads.split(","):
        values = {}
        for i in range(args.runs):
            result = run_once(workload, args.seed_base + i, args.seconds, args.trace)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {args.seed_base + i}: done", file=sys.stderr)
        raw[workload] = values
        print(f"\n## {workload} ({args.runs} runs, seeds {args.seed_base}..{args.seed_base + args.runs - 1})")
        print(f"{'metric':<36} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}  verdict")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = bounds.get(name)
            verdict = ""
            if bound is not None and args.trace == 0:
                verdict = "ok" if spread < bound / 3 else "wide" if spread < bound else "FAIL"
                if verdict != "ok" and worst != "FAIL":
                    worst = verdict
            print(f"{name:<36} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} "
                  f"{bound if bound is not None else '':>6}  {verdict}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(raw, f, indent=1)
    print(f"\nworst verdict: {worst}")
    return 1 if worst == "FAIL" else 0


if __name__ == "__main__":
    sys.exit(main())
