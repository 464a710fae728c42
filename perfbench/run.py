#!/usr/bin/env python3
"""knotmf benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload trace-moves --seed 1 --seconds 24 --trace 0

Run from the root of a checkout; knotmf is imported from ``src/`` there.
The run generates every input from ``--seed`` before timing, warms up on a
separate input stream, then runs a closed loop with one client and checks
every result outside the timed region.  A failed op (wrong result or raised
exception) is counted and the run goes on.

``--trace 0`` times ops for ``--seconds`` seconds of op time and reports
the end-to-end metrics.  ``--trace 1`` runs the workload's fixed number of
traced ops (``Workload.trace_ops``), first untraced and then traced, and
reports the per-layer metrics and the tracing overhead; it also writes the
spans to ``perfbench/out/``.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# What every `knotmf` command pays before doing any work.
SETUP_IMPORT = ("import knotmf, knotmf.mf, knotmf.localization, "
                "knotmf.verify, knotmf.cli")
SETUP_REPEATS = 11
HARD_STOP = 2.5

# Host-speed calibration.  On a shared host the same pure-Python work runs
# up to twice as slow from one second to the next, and 20-40 % slower for
# minutes at a time; that drift swamped every timing.  So a run samples a
# fixed calibration loop every CALIBRATION_EVERY_S of op time and scales
# its times by CALIBRATION_REF_S over the mean sample: times are reported
# in seconds of a host on which the loop takes CALIBRATION_REF_S, its time
# on the reference machine in a quiet phase.  Raw times are printed too.
CALIBRATION_REF_S = 0.005
CALIBRATION_EVERY_S = 0.25


def _calibration_loop():
    acc = {}
    for i in range(1, 1000):
        k = (i % 31, i % 7)
        acc[k] = acc.get(k, 0) + Fraction(i, 3) * Fraction(2, i + 1)
    return acc


def calibration_sample() -> float:
    """Best of three runs of the calibration loop, in seconds."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        _calibration_loop()
        best = min(best, time.perf_counter() - t0)
    return best


def import_knotmf():
    if not os.path.isfile(os.path.join(SRC, "knotmf", "__init__.py")):
        sys.exit(f"error: no knotmf sources under {SRC}; run from the root "
                 f"of a knotmf checkout")
    sys.path.insert(0, SRC)
    import knotmf
    if os.path.dirname(os.path.dirname(os.path.abspath(knotmf.__file__))) != SRC:
        sys.exit(f"error: knotmf imported from {knotmf.__file__}, not {SRC}")


def measure_setup() -> tuple[float, float]:
    """Median wall time of a fresh interpreter importing the CLI modules,
    scaled and raw."""
    env = dict(os.environ, PYTHONPATH=SRC)
    raw, samples = [], [calibration_sample()]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_IMPORT], cwd=ROOT,
                       env=env, check=True)
        raw.append(time.perf_counter() - t0)
        samples.append(calibration_sample())
    median = statistics.median(raw)
    return median * CALIBRATION_REF_S / statistics.fmean(samples), median


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks, as numpy's default."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Phase:
    """One closed-loop pass over the op stream.

    ``latencies`` are raw op times.  A calibration sample is taken at the
    start, after every CALIBRATION_EVERY_S of op time and at the end;
    ``factor`` scales raw times to the calibration reference.
    """

    def __init__(self):
        self.latencies: list[float] = []
        self.kinds: list[str] = []
        self.samples = [calibration_sample()]
        self.failed = 0
        self.busy = 0.0
        self._since = 0.0

    def add(self, latency: float, kind: str) -> None:
        self.latencies.append(latency)
        self.kinds.append(kind)
        self.busy += latency
        self._since += latency
        if self._since >= CALIBRATION_EVERY_S:
            self.calibrate()

    def calibrate(self) -> None:
        self.samples.append(calibration_sample())
        self._since = 0.0

    @property
    def factor(self) -> float:
        return CALIBRATION_REF_S / statistics.fmean(self.samples)

    def scaled(self) -> list[float]:
        factor = self.factor
        return [t * factor for t in self.latencies]

    def ops_per_s(self, latencies: list[float] | None = None) -> float:
        lat = self.scaled() if latencies is None else latencies
        return (len(lat) - self.failed) / sum(lat)


def run_phase(wl, rounds, *, seconds: float | None = None,
              count: int | None = None, tracer=None) -> Phase:
    """Run ``count`` ops, or whole rounds for about ``seconds`` of op time.

    With ``seconds`` the phase runs whole rounds, so every run has the
    workload's op mix exactly; it stops at the round boundary nearest to
    ``seconds``, judged by the mean round time so far.  A round that runs
    past HARD_STOP times ``seconds`` (a commit many times slower) is cut
    short, so that the run still ends in time.
    """
    phase = Phase()
    stream = (op for i in itertools.count() for op in rounds[i % len(rounds)])
    done = 0
    while True:
        if count is not None:
            if len(phase.latencies) >= count:
                phase.calibrate()
                return phase
            ops = [next(stream)]
        else:
            busy = phase.busy
            if done and busy + busy / done / 2 > seconds:
                phase.calibrate()
                return phase
            ops = rounds[done % len(rounds)]
            done += 1
        for op in ops:
            if count is None and phase.busy > HARD_STOP * seconds:
                phase.calibrate()
                return phase
            run_op(wl, op, phase, tracer)


def run_op(wl, op, phase: Phase, tracer) -> None:
    i = len(phase.latencies)
    if tracer is not None:
        tracer.begin_op(i, op[0])
    error = result = None
    t0 = time.perf_counter()
    try:
        result = wl.run(op)
    except Exception as exc:  # a failed op is counted, never fatal
        error = exc
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.end_op()
    if error is None:
        try:
            wl.check(op, result)
        except Exception as exc:
            error = exc
    if error is not None:
        phase.failed += 1
        print(f"op {i} ({op[0]}) failed:", file=sys.stderr)
        traceback.print_exception(error, file=sys.stderr)
    phase.add(t1 - t0, op[0])


def describe(phase: Phase, label: str) -> list[str]:
    scaled = phase.scaled()
    speed = [CALIBRATION_REF_S / t for t in phase.samples]
    lines = [f"{label}: {len(scaled)} ops, {phase.failed} failed, "
             f"{phase.busy:.3f} s of op time (raw), host speed factor "
             f"{phase.factor:.3f} from {len(speed)} samples "
             f"(min {min(speed):.3f}, max {max(speed):.3f})"]
    total = sum(scaled)
    for kind in sorted(set(phase.kinds)):
        lat = [t for t, k in zip(scaled, phase.kinds) if k == kind]
        lines.append(f"  kind {kind:<14} n={len(lat):<5} "
                     f"ops_share={len(lat) / len(scaled):.3f} "
                     f"time_share={sum(lat) / total:.3f} "
                     f"p50={statistics.median(lat):.4f}s")
    return lines


def end_to_end(wl, rounds, seconds: float):
    setup_s, setup_raw = measure_setup()
    phase = run_phase(wl, rounds, seconds=seconds)
    lat = phase.scaled()
    tail = percentile(lat, wl.tail_pct)
    beyond = sum(1 for t in lat if t > tail)
    tail_kind = sorted(zip(lat, phase.kinds))[
        min(len(lat) - 1, round((len(lat) - 1) * wl.tail_pct / 100))][1]
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (phase.ops_per_s(), "ops/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (tail, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    raw = phase.latencies
    notes = describe(phase, "timed phase")
    notes.append(f"op_tail_s is p{wl.tail_pct:g} of {len(lat)} ops, "
                 f"{beyond} ops beyond it, on a {tail_kind} op")
    notes.append(f"failed_frac {phase.failed / len(lat):.6f} 1")
    notes.append(f"raw (unscaled): setup_s {setup_raw:.6g} s, ops_per_s "
                 f"{phase.ops_per_s(raw):.6g} ops/s, op_p50_s "
                 f"{statistics.median(raw):.6g} s, op_tail_s "
                 f"{percentile(raw, wl.tail_pct):.6g} s")
    return phase.failed, len(lat), metrics, notes


def traced(wl, rounds, workload: str, seed: int):
    from tracer import Tracer
    plain = run_phase(wl, rounds, count=wl.trace_ops)
    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        phase = run_phase(wl, rounds, count=wl.trace_ops, tracer=tracer)
    finally:
        tracer.uninstall()
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{workload}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "fields": ["id", "name", "op", "parent", "start_s", "end_s"],
                   "spans": [[i, n, op, parent, s - start, e - start]
                             for i, n, op, parent, s, e in tracer.spans]}, fh)
    metrics = tracer.metrics()
    overhead = phase.ops_per_s() / plain.ops_per_s()
    metrics["trace.overhead_ratio"] = (overhead, "1")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    notes = describe(plain, "untraced pass") + describe(phase, "traced pass")
    notes.append(f"tracing overhead: traced ops_per_s / untraced ops_per_s "
                 f"= {overhead:.4f}")
    notes.append(f"spans written to {os.path.relpath(path, ROOT)}")
    for name in tracer.missing():
        notes.append(f"absent: {name} (its target or size count is gone)")
    failed = plain.failed + phase.failed
    attempted = len(plain.latencies) + len(phase.latencies)
    return failed, attempted, metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("trace-moves", "twist-tower", "characters",
                             "mf-pipelines"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    import_knotmf()
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload]
    rounds = wl.rounds(random.Random(args.seed))
    try:
        wl.warm(random.Random(f"warm-{args.seed}"))
        warm_ok = True
    except Exception as exc:  # reported, and the run goes on
        warm_ok = False
        print("warm-up failed:", file=sys.stderr)
        traceback.print_exception(exc, file=sys.stderr)

    if args.trace:
        failed, attempted, metrics, notes = traced(wl, rounds, args.workload,
                                                   args.seed)
    else:
        failed, attempted, metrics, notes = end_to_end(wl, rounds, args.seconds)

    print(f"workload {args.workload}  seed {args.seed}  seconds "
          f"{args.seconds}  trace {args.trace}")
    if not warm_ok:
        notes.append("warm-up failed: results are wrong, see stderr")
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and warm_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
