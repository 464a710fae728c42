"""Acceptance criteria, one test per criterion, each timed against its
stated budget and printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` (or scripts/run_acceptance.py)
to see the per-criterion lines.
"""

import time

import pytest

from knotmf.braid import BraidWord, jm_element
from knotmf.hecke import (HeckeElement, InvariantValue, from_braid, gen_image,
                          homflypt, qpoly)
from knotmf.ring import LaurentPoly, QQ, VarRegistry
from knotmf.scalars import qa_poly
from knotmf import mf
from knotmf.localization import (homfly_crosscheck, markov_example_sigma1,
                                 partitions_of, superpoly_jm, syt_enumerate)
from knotmf.verify import markov_suite, skein_suite


def _report(num, label, budget, start):
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed < budget else "SLOW"
    print(f"criterion {num:2d} ({label}): {status} "
          f"({elapsed:.3f}s < {budget:g}s)")
    assert elapsed < budget, f"criterion {num} exceeded {budget}s"


def test_criterion_01_normalization():
    homflypt(BraidWord(1, ()))          # warm the caches
    start = time.perf_counter()
    value = homflypt(BraidWord(1, ()))
    # (a - a^-1)/(q - q^-1)
    assert value == InvariantValue(qa_poly({(0, 1): QQ(1), (0, -1): QQ(-1)}), 1)
    _report(1, "unknot normalization", 0.001, start)


def test_criterion_02_markov_invariance():
    start = time.perf_counter()
    report = markov_suite(samples=50, seed=7)
    assert report["status"] == "pass", report["failures"][:3]
    _report(2, "Markov moves on 50 seeded braids", 60.0, start)


def test_criterion_03_skein():
    start = time.perf_counter()
    report = skein_suite(samples=50, seed=11)
    assert report["status"] == "pass", report["failures"][:3]
    _report(3, "skein relation on 50 seeded instances", 60.0, start)


def test_criterion_04_hecke_relations():
    start = time.perf_counter()
    import itertools
    for n in range(2, 5):
        s = qpoly({1: QQ(1), -1: QQ(-1)})
        for i in range(1, n):
            g = gen_image(i, n)
            assert g * g == HeckeElement.unit(n) + g.scale(s)
            assert g * gen_image(-i, n) == HeckeElement.unit(n)
        for i in range(1, n - 1):
            a = HeckeElement.unit(n).mul_gen(i).mul_gen(i + 1).mul_gen(i)
            b = HeckeElement.unit(n).mul_gen(i + 1).mul_gen(i).mul_gen(i + 1)
            assert a == b
        for i, j in itertools.combinations(range(1, n), 2):
            if abs(i - j) > 1:
                assert (HeckeElement.unit(n).mul_gen(i).mul_gen(j)
                        == HeckeElement.unit(n).mul_gen(j).mul_gen(i))
        jm = [from_braid(jm_element(i, n)) for i in range(1, n)]
        for x, y in itertools.combinations(jm, 2):
            assert x * y == y * x
    _report(4, "Hecke and JM relations, n <= 4", 10.0, start)


def test_criterion_05_mf_core():
    start = time.perf_counter()
    reg = VarRegistry.make([("x", 0, 0), ("y", 0, 0)])
    x, y = LaurentPoly.var(reg, "x"), LaurentPoly.var(reg, "y")
    for rows, pot in ([[(x ** 2, x ** 3)], x ** 5], [[(x, y)], x * y]):
        ok, witness = mf.koszul(rows, pot, reg).check_square()
        assert ok, witness
    for kind in ("C_par", "C_dot", "C_plus"):
        m = mf.standard_presentation(kind)
        ok, witness = m.check_square()
        assert ok, witness
        assert m.check_homogeneous()
    _report(5, "Koszul squares incl. rank-2 presentations", 5.0, start)


def test_criterion_06_convolution_replication():
    start = time.perf_counter()
    tw = mf.GradedTwist.of_chars((0, 0), mf.CHI1)
    res = mf.convolution_n2("C_dot", "C_dot", tw, tw)
    expected = mf._expected_display_rows()
    for key, rows in expected.items():
        assert res.displays[key] == rows, f"display {key}"
    got = {(k, t.left, t.right) for k, t in res.summands}
    assert got == {("C_dot", (1, 0), (1, 0)), ("C_dot", (0, 1), (1, 0))}
    shifts, _ = mf.blob_square_q_form()
    assert shifts == [4, 2]
    assert all("state" in e for e in res.audit)
    _report(6, "blob square pipeline replication", 60.0, start)


def test_criterion_07_ktheory_identities():
    start = time.perf_counter()
    assert mf.ktheory_identity()
    assert not mf.ktheory_identity(perturb=True)
    assert mf.ktheory_inverse_identity()
    _report(7, "decategorified crossing identities", 30.0, start)


def test_criterion_08_localization_crosscheck():
    start = time.perf_counter()
    vectors = [[b] for b in range(1, 5)] + \
        [[i, j] for i in range(1, 5) for j in range(1, 5)]
    for vec in vectors:
        assert (superpoly_jm(vec, mode="residue").reduced
                == superpoly_jm(vec, mode="syt").reduced), vec
    for b in ([1], [2], [3]):
        rep = homfly_crosscheck(b, 2)
        assert rep["ok"], rep
    _report(8, "residue/tableau agreement + trace cross-check", 120.0, start)


def test_criterion_09_markov_example():
    start = time.perf_counter()
    order = 12
    free = {k: QQ(1) for k in range(0, order + 1, 2)}
    plus = markov_example_sigma1(1, order)
    assert plus == {"H0": free, "H1": free, "H2": {}}
    minus = markov_example_sigma1(-1, order)
    assert minus == {"H0": {}, "H1": free, "H2": free}
    _report(9, "positive/negative crossing homology table", 1.0, start)


def test_criterion_10_tableau_combinatorics():
    start = time.perf_counter()
    for n in range(1, 9):
        for shape in partitions_of(n):
            count = shape.syt_count()
            if n <= 7:
                assert count == len(syt_enumerate(shape)), shape
    _report(10, "hook length formula, n <= 8", 5.0, start)
