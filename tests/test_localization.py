import itertools
import os
import pathlib
import random

import pytest

from knotmf.localization import (Partition, ResidueContext,
                                 braid_exponents_to_boxes,
                                 chain_box_values, chain_is_syt,
                                 full_twist_shift_check,
                                 homfly_crosscheck, markov_example_sigma1,
                                 p1_cohomology, partitions_of,
                                 residue_pushforward, superpoly_jm,
                                 syt_enumerate, syt_term, term_to_ratfunc)
from knotmf.ring import LaurentPoly, QQ, ResourceLimit
from knotmf.scalars import REG_QA, RatFunc


def test_partition_validity():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    p = Partition((3, 1))
    assert p.conjugate().parts == (2, 1, 1)
    assert p.conjugate().conjugate() == p


def test_syt_examples():
    assert len(syt_enumerate(Partition((2, 1)))) == 2
    assert len(syt_enumerate(Partition((5,)))) == 1
    total4 = sum(len(syt_enumerate(p)) for p in partitions_of(4))
    assert total4 == 10


def test_hook_length_consistency():
    for n in range(1, 9):
        for shape in partitions_of(n):
            count = shape.syt_count()
            if n <= 6:
                assert count == len(syt_enumerate(shape))
            assert count >= 1


def test_tableau_data():
    tabs = syt_enumerate(Partition((2, 1)))
    for t in tabs:
        assert t.coarm(1) == 0 and t.coleg(1) == 0


def test_zeta_atoms_structure():
    ctx = ResidueContext(2)
    from knotmf.localization import zeta_atoms
    atoms = zeta_atoms(ctx, 1, 2)
    assert len(atoms["num"]) == 2 and len(atoms["den"]) == 2
    # numerator vanishes at equal arguments: the x = 1 zero of (1 - x)
    first = atoms["num"][0]
    assert first.substitute({"z1": 1}).substitute({"z2": 1}) == 1


def test_residue_pushforward_examples():
    # one box: residue at z = 1 of z^b (1 + a/z) dz/((z-1) z) is (1 + a)
    for b in (0, 1, 5):
        rf = residue_pushforward(b)
        reg = rf.registry
        expected = LaurentPoly.const(reg, 1) + LaurentPoly.var(reg, "a")
        assert rf == RatFunc(expected)
    # no kernel-side pole enclosed: drop the kernel atom entirely
    ctx = ResidueContext(1)
    t = ctx.integrand([0])
    t.den_atoms.clear()
    assert ctx.residue_step(t, 0, {0}) == []


def test_two_box_chain_points():
    ctx = ResidueContext(2)
    terms = ctx.evaluate([0, 1])
    points = sorted(chain_box_values(ctx, t)[1] for t in terms)
    assert points == [(0, 1), (1, 0)]    # z2 in {T, Q}


def test_chain_validation():
    assert chain_is_syt([(0, 0), (1, 0), (0, 1)])
    assert not chain_is_syt([(0, 0), (0, 0)])
    assert not chain_is_syt([(0, 0), (2, 0)])
    assert not chain_is_syt([(1, 0)])


@pytest.mark.parametrize("vec", [[b] for b in range(1, 5)]
                         + [[i, j] for i in range(1, 5) for j in range(1, 5)])
def test_residue_equals_tableau_sum(vec):
    r = superpoly_jm(vec, mode="residue")
    s = superpoly_jm(vec, mode="syt")
    assert r.reduced == s.reduced


def test_chain_count_matches_tableaux():
    ctx = ResidueContext(3)
    terms = ctx.evaluate([0, 1, 1])
    kept = [t for t in terms if chain_is_syt(chain_box_values(ctx, t))]
    assert len(kept) == sum(p.syt_count() for p in partitions_of(3))
    for t in terms:
        if not chain_is_syt(chain_box_values(ctx, t)):
            assert term_to_ratfunc(ctx, t).num.is_zero()


def test_residue_order_independence():
    ctx = ResidueContext(3)

    def total(order):
        ts = ctx.evaluate([0, 2, 1], order)
        kept = [t for t in ts if chain_is_syt(chain_box_values(ctx, t))]
        return RatFunc.sum([term_to_ratfunc(ctx, t) for t in kept])

    base = total(None)
    for order in ([2, 1, 0], [1, 2, 0]):
        assert total(order) == base
    ctx2 = ResidueContext(2)

    def total2(order):
        ts = ctx2.evaluate([0, 3], order)
        kept = [t for t in ts if chain_is_syt(chain_box_values(ctx2, t))]
        return RatFunc.sum([term_to_ratfunc(ctx2, t) for t in kept])

    assert total2([1, 0]) == total2(None)


def test_unknot_character():
    ch = superpoly_jm([], mode="residue")
    reg = ch.registry()
    expected = LaurentPoly.const(reg, 1) + LaurentPoly.var(reg, "a")
    assert ch.reduced == RatFunc(expected)
    series = ch.series(6)
    iq = reg.index("Q")
    ia = reg.index("a")
    for e, c in series.sorted_terms():
        assert c == 1 and e[ia] in (0, 1)
    # (1 + a) / (1 - Q): every Q power up to the order, each grading once
    assert len(series.terms) == 14


def test_full_twist_shift():
    assert full_twist_shift_check([1], 1)
    assert full_twist_shift_check([2], 2)
    assert full_twist_shift_check([1], 0)
    assert not full_twist_shift_check([1], 1, wrong_character=True)


def test_p1_cohomology():
    assert p1_cohomology(0) == (1, 0)
    assert p1_cohomology(-1) == (0, 0)
    assert p1_cohomology(-2) == (0, 1)
    assert p1_cohomology(3) == (4, 0)


def test_markov_example_table():
    order = 12
    free = {k: QQ(1) for k in range(0, order + 1, 2)}
    plus = markov_example_sigma1(1, order)
    assert plus["H0"] == free and plus["H1"] == free and plus["H2"] == {}
    minus = markov_example_sigma1(-1, order)
    assert minus["H0"] == {} and minus["H1"] == free and minus["H2"] == free
    # the shift property: H^{k+1}(sigma^-1) matches H^k(sigma)
    assert minus["H1"] == plus["H0"] and minus["H2"] == plus["H1"]


def test_homfly_crosscheck_family():
    # the character is the residue sum at every size, 5 strands included
    for b, n in [([], 1), ([1], 2), ([2], 2), ([3], 2),
                 ([1, 1, 1, 1], 5), ([2, 1, 1, 2], 5)]:
        rep = homfly_crosscheck(b, n)
        assert rep["ok"] and rep["series_ok"], rep


def test_homfly_crosscheck_n3():
    rep = homfly_crosscheck([1, 1], 3)
    assert rep["ok"], rep
    rep = homfly_crosscheck([2, 1], 3)
    assert rep["ok"], rep


def test_homfly_crosscheck_negative_control(monkeypatch):
    """A wrong exponent-to-box map must fail every sample and the series."""
    import knotmf.localization as loc
    monkeypatch.setattr(loc, "braid_exponents_to_boxes", list)
    rep = homfly_crosscheck([1, 2], 3)
    assert not any(s["equal"] for s in rep["samples"]), rep
    assert not rep["series_ok"] and not rep["ok"]


def test_box_exponent_calibration():
    assert braid_exponents_to_boxes([2, 1]) == [1, 2]


def test_character_json():
    ch = superpoly_jm([1], order=4)
    data = ch.to_json()
    assert data["n"] == 2 and data["truncation_order"] == 4
    assert {c["a_exp"] for c in data["a_components"]} <= {0, 1, 2}


def test_guard_caps():
    for mode in ("residue", "syt"):
        with pytest.raises(ResourceLimit):
            superpoly_jm([1] * 7, mode=mode)


def test_series_by_a_with_a_in_the_denominator():
    q, a = LaurentPoly.var(REG_QA, "q"), LaurentPoly.var(REG_QA, "a")
    one = LaurentPoly.const(REG_QA, 1)
    # 1/(1 - a q) = sum a^k q^k: the a-exponents must not merge
    series = RatFunc(one, [one - a * q]).series_qt(3, "q")
    assert series.coefficients_in("a") == {k: q ** k for k in range(4)}
    # lowest q-degree part 1 - a is not one monomial
    with pytest.raises(ValueError):
        RatFunc(one, [one - a + q]).series_qt(3, "q")


def test_zeta_kernel():
    from knotmf.localization import zeta
    from knotmf.ring import VarRegistry
    reg = VarRegistry.make([("x", 0, 0), ("Q", 0, 0), ("T", 0, 0)])
    x = LaurentPoly.var(reg, "x")
    one = LaurentPoly.const(reg, 1)
    assert zeta(LaurentPoly.zero(reg)) == RatFunc(one)
    # numerator vanishes at equal arguments
    assert zeta(x).num.substitute({"x": one}).is_zero()
    # at the one-step column ratio x = 1/T the factor (1 - Tx) degenerates:
    # exactly the denominator atom the residue chains consume
    t_var = LaurentPoly.var(reg, "T")
    dens = [f.substitute({"x": LaurentPoly.var(reg, "T", -1)})
            for f in zeta(x).den]
    assert any(d.is_zero() for d in dens)


def test_four_box_residue_mode():
    """Beyond the n <= 3 criterion: the four-box pole chains include the
    square shape, whose double poles must resolve through matched
    numerator zeros, and still biject with tableaux."""
    r = superpoly_jm([1, 1, 1], mode="residue")
    s = superpoly_jm([1, 1, 1], mode="syt")
    assert r.reduced == s.reduced
    r2 = superpoly_jm([2, 1, 3], mode="residue")
    s2 = superpoly_jm([2, 1, 3], mode="syt")
    assert r2.reduced == s2.reduced


def test_residue_equals_tableau_at_five_boxes():
    """The two modes print the same reduced character on a seeded sample
    of 5-box vectors with entries 0-2.

    They share the atom-pair cancellation (``Term.cancel_pairs``), the
    conversion ``term_to_ratfunc`` and the tree ``RatFunc.sum``.  They
    differ in how the terms are made: residue chains, counted against the
    tableaux by ``_tableau_chains``, against direct substitution of each
    tableau (``syt_term``)."""
    grid = list(itertools.product(range(3), repeat=4))
    for vec in random.Random(5).sample(grid, 8):
        r = superpoly_jm(list(vec), mode="residue")
        s = superpoly_jm(list(vec), mode="syt")
        assert str(r.reduced) == str(s.reduced), vec


@pytest.mark.parametrize("n", [3, 4])
def test_syt_term_cancels_pairs(n):
    """Tableau terms leave no matched num/den pair and no vanishing atom."""
    ctx = ResidueContext(n)
    for shape in partitions_of(n):
        for tab in syt_enumerate(shape):
            t = syt_term(ctx, tab, [0] + [1] * (n - 1))
            assert not any(m in t.den_atoms for m in t.num_atoms)
            assert not any(m == 1 for m in t.num_atoms + t.den_atoms)


def test_five_box_tableau_mode():
    """Five boxes checked against oracles that need neither sum: a
    polynomial, symmetric under Q <-> T (tableau transposition), vanishing
    at a = -1 (box 1 carries 1 + a)."""
    ch = superpoly_jm([1, 1, 1, 1], mode="syt")
    rf = ch.reduced
    reg = rf.registry
    q_, t_ = LaurentPoly.var(reg, "Q"), LaurentPoly.var(reg, "T")
    assert rf.den == []
    assert rf.num.substitute({"Q": t_, "T": q_}) == rf.num
    assert rf.num.substitute({"a": LaurentPoly.const(reg, -1)}).is_zero()


GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_five_box_golden():
    """str() of the reduced 5-box tableau characters [1,1,1,1] and
    [2,1,1,2], pinned verbatim (the 6-box pair is checked in CI by
    scripts/check_syt_golden.py)."""
    out = "".join(f"syt {jm}\n{superpoly_jm(jm, mode='syt').reduced}\n"
                  for jm in ([1, 1, 1, 1], [2, 1, 1, 2]))
    path = GOLDEN / "syt5_reduced.txt"
    if os.environ.get("KNOTMF_REGOLD") == "1":
        path.write_text(out)
    assert path.read_text() == out, "golden mismatch for 5-box characters"
