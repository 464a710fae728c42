#!/usr/bin/env python3
"""Check that the traced run's counts repeat exactly.

    python3 perfbench/selftest.py [--workloads a,b] [--seed 1]

For each workload, runs ``run.py --trace 1`` three times: twice with
PYTHONHASHSEED=1 and once with PYTHONHASHSEED=2.  Every per-layer metric
with unit ``count`` (calls and size counts) must be identical across the
three runs; times are not compared.  Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("trace-moves", "twist-tower", "characters", "mf-pipelines")


def counts(workload: str, seed: int, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: traced run reported wrong results")
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] == "count"}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    ok = True
    for wl in args.workloads.split(","):
        runs = {label: counts(wl, args.seed, h)
                for label, h in (("hash1", "1"), ("hash1-again", "1"),
                                 ("hash2", "2"))}
        base = runs["hash1"]
        same = True
        for label, other in runs.items():
            diff = {k: (base[k], other.get(k)) for k in base
                    if base[k] != other.get(k)}
            if diff:
                same = False
                print(f"{wl}: hash1 vs {label} differ: {diff}")
        ok = ok and same
        nonzero = sum(1 for v in base.values() if v)
        print(f"{wl}: {len(base)} counts, {nonzero} nonzero, "
              f"{'identical' if same else 'DIFFERENT'} across 3 runs")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
