"""Orchestrated property suites behind `knotmf verify`."""

from __future__ import annotations

import random

from .braid import BraidWord
from .hecke import homflypt
from .localization import (homfly_crosscheck, partitions_of,
                           superpoly_jm, syt_enumerate)
from .ring import LaurentPoly
from .scalars import REG_QA, S_ATOM


def random_braid(rng: random.Random, max_strands: int = 4,
                 max_length: int = 8) -> BraidWord:
    n = rng.randint(2, max_strands)
    length = rng.randint(1, max_length)
    letters = []
    for _ in range(length):
        i = rng.randint(1, n - 1)
        letters.append(i if rng.random() < 0.5 else -i)
    return BraidWord(n, tuple(letters))


def markov_suite(samples: int = 50, seed: int = 7) -> dict:
    """Conjugation and both stabilizations preserve the closure invariant."""
    rng = random.Random(seed)
    failures = []
    for case in range(samples):
        b = random_braid(rng)
        p = homflypt(b)
        k = rng.randint(0, max(0, len(b) - 1))
        if homflypt(b.rotate(k)) != p:
            failures.append({"case": case, "move": "conjugation",
                             "braid": str(b), "k": k})
        for sign in (1, -1):
            if homflypt(b.stabilize(sign)) != p:
                failures.append({"case": case, "move": f"stabilize{sign:+d}",
                                 "braid": str(b)})
    return {"suite": "markov", "samples": samples, "seed": seed,
            "status": "pass" if not failures else "fail",
            "failures": failures}


def _skein_holds(plus, minus, zero) -> bool:
    """a P_+ - a^-1 P_- == s P_0, as numerators over one power of s."""
    top = max(plus.s_exp, minus.s_exp, zero.s_exp - 1)
    a = LaurentPoly.var(REG_QA, "a")
    lhs = (plus.num * a * S_ATOM ** (top - plus.s_exp)
           - minus.num * a ** -1 * S_ATOM ** (top - minus.s_exp))
    return lhs == zero.num * S_ATOM ** (top + 1 - zero.s_exp)


def skein_suite(samples: int = 50, seed: int = 11) -> dict:
    """a P_+ - a^-1 P_- = (q - q^-1) P_0 at random insertion points."""
    rng = random.Random(seed)
    failures = []
    for case in range(samples):
        b = random_braid(rng)
        pos = rng.randint(0, len(b))
        i = rng.randint(1, b.strands - 1)
        plus = BraidWord(b.strands,
                         b.letters[:pos] + (i,) + b.letters[pos:])
        minus = BraidWord(b.strands,
                          b.letters[:pos] + (-i,) + b.letters[pos:])
        if not _skein_holds(homflypt(plus), homflypt(minus), homflypt(b)):
            failures.append({"case": case, "braid": str(b),
                             "pos": pos, "gen": i})
    return {"suite": "skein", "samples": samples, "seed": seed,
            "status": "pass" if not failures else "fail",
            "failures": failures}


def localization_suite() -> dict:
    """Residue/tableau agreement, tableau counts, and the trace cross-check."""
    steps = []

    def record(step, fn):
        try:
            fn()
            steps.append({"step": step, "status": "pass"})
        except Exception as exc:
            steps.append({"step": step, "status": "fail", "witness": str(exc)})

    def hook_counts():
        for n in range(1, 9):
            for shape in partitions_of(n):
                if n <= 6:
                    if len(syt_enumerate(shape)) != shape.syt_count():
                        raise AssertionError(f"count mismatch at {shape}")
                else:
                    shape.syt_count()

    def mode_agreement():
        vectors = [[b] for b in range(1, 5)]
        vectors += [[i, j] for i in range(1, 5) for j in range(1, 5)]
        # four and five boxes; the 5-box pair is the tier-1 golden's
        vectors += [[1, 1, 1], [1, 2, 2], [2, 1, 2], [2, 2, 1],
                    [1, 1, 1, 1], [2, 1, 1, 2]]
        for vec in vectors:
            r = superpoly_jm(vec, mode="residue")
            s = superpoly_jm(vec, mode="syt")
            if r.reduced != s.reduced:
                raise AssertionError(f"modes disagree at {vec}")

    def trace_crosscheck():
        for b, n in [([], 1), ([1], 2), ([2], 2), ([3], 2), ([1, 1], 3),
                     ([1] * 5, 6)]:
            rep = homfly_crosscheck(b, n)
            if not rep["ok"]:
                raise AssertionError(f"cross-check failed at {b}: {rep}")

    record("hook_length_counts", hook_counts)
    record("residue_vs_tableau", mode_agreement)
    record("trace_crosscheck", trace_crosscheck)
    ok = all(s["status"] == "pass" for s in steps)
    return {"suite": "localization",
            "status": "pass" if ok else "fail", "steps": steps}


def run_suite(name: str, samples: int = 50, seed: int = 7) -> dict:
    if name == "markov":
        return markov_suite(samples, seed)
    if name == "skein":
        return skein_suite(samples, seed)
    if name == "localization":
        return localization_suite()
    if name == "mf-suite":
        from . import mf
        return mf.verify_suite()
    raise ValueError(f"unknown suite {name!r}")
