#!/usr/bin/env python3
"""Steadiness check for perfbench.

Runs every workload repeatedly, each run a fresh process with its own
seed (1, 2, ... up to --runs), and prints for each end-to-end metric the
median, the quartiles and the spread (interquartile distance as a share
of the median), next to the bound BENCHMARK.json gives it. A spread over
a third of its bound is flagged, and so is any run that failed, gave a
wrong answer or counted a failed operation. Run from the repository
root:

    python3 perfbench/steady.py                 # 10 seeds per workload
    python3 perfbench/steady.py --runs 5 --workloads archive-read

README.md records the spreads measured this way and how the bounds were
set from them.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per workload")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for wl in args.workloads.split(","):
        values, shares = {}, []
        for seed in range(1, args.runs + 1):
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True)
            if out.returncode != 0:
                sys.stderr.write(out.stderr)
                print(f"{wl} seed {seed}: exit {out.returncode}")
                ok = False
                continue
            res = json.loads(out.stdout.strip().splitlines()[-1])
            if not res["correct"] or res["failed"]:
                ok = False
            shares.append(res["failed"] / res["attempted"])
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{wl} seed {seed}: " + " ".join(
                f"{n}={m['value']:.6g}" for n, m in sorted(res["metrics"].items())), flush=True)
        print(f"\n{wl}: {len(shares)} runs, failed shares {sorted(set(shares))}")
        print(f"  {'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name in sorted(values):
            v = values[name]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds[name]
            flag = "  over a third of the bound" if spread > bound / 3 else ""
            print(f"  {name:28} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bound:>6}{flag}")
        print()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
