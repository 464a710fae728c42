#!/usr/bin/env python3
"""Run the benchmark over several seeds and report medians and spreads.

    python3 perfbench/collect.py --seeds 1-10 [--workloads a,b] [--trace 1]
                                 [--out perfbench/baseline.json]

Runs ``perfbench/run.py`` once per workload and seed, one run at a time,
with ``run_seconds`` from BENCHMARK.json.  For every metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, (Q3 - Q1) / median, next to the metric's bound.  With ``--out`` the
summary and every run's values, with its line of raw (unscaled) times, are
written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    report = {"run_seconds": bench["run_seconds"], "trace": args.trace,
              "seeds": args.seeds, "workloads": {}}
    for wl in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", wl, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]),
                   "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            raw = next((line for line in lines
                        if line.startswith("raw (unscaled):")), "")
            runs.append({"seed": seed, "wall_s": wall, "raw": raw,
                         "correct": result["correct"],
                         "attempted": result["attempted"],
                         "failed": result["failed"],
                         "metrics": {k: v["value"]
                                     for k, v in result["metrics"].items()}})
            print(f"{wl} seed {seed}: wall {wall:.1f} s, "
                  f"{result['attempted']} ops, {result['failed']} failed",
                  flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) > 1 else (med, med, med))
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med if med else None}
            bound = bounds.get(name)
            spread = summary[name]["spread"]
            print(f"  {name:<40} median {med:<12.6g} spread "
                  f"{'-' if spread is None else f'{spread:.4f}'}"
                  f"{'' if bound is None else f'  bound {bound}'}")
        report["workloads"][wl] = {"summary": summary, "runs": runs}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
