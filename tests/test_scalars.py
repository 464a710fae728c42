import pytest
from hypothesis import given, settings, strategies as st

from knotmf.ring import LaurentPoly, QQ, VarRegistry
from knotmf.scalars import (REG_QA, RatFunc, S_ATOM, Scalar, _s_divides,
                            qa_poly)


def test_loop_value_times_z_is_a():
    # D z = a with z = s/(1 - a^-2), i.e. D s = a (1 - a^-2)
    d = Scalar.loop_value()
    a_u = qa_poly({(0, 1): QQ(1)}) * qa_poly({(0, 0): QQ(1), (0, -2): QQ(-1)})
    r = d * Scalar(S_ATOM)
    assert r.s_exp == 0 and r == Scalar(a_u)


def test_reduce_cancels_atoms():
    p = qa_poly({(2, 0): QQ(1), (0, 0): QQ(-3)})
    s = Scalar(p * S_ATOM, 1)
    r = s.reduce()
    assert r.s_exp == 0 and r.num == p
    assert Scalar(p * S_ATOM, 1) == Scalar(p)  # cross-multiplied equality


def test_normalizing_value():
    d = Scalar.loop_value()
    assert d.s_exp == 1
    assert d.num == qa_poly({(0, 1): QQ(1), (0, -1): QQ(-1)})


@settings(max_examples=100, deadline=None)
@given(st.integers(-5, 5), st.integers(-5, 5), st.integers(0, 4))
def test_reduce_preserves_value(c1, c2, i):
    num = qa_poly({(1, 0): QQ(c1), (0, 2): QQ(c2)})
    s = Scalar(num * S_ATOM ** i, i)
    assert s.reduce() == s
    assert s.reduce().reduce() == s.reduce()


@st.composite
def qa_polys(draw, max_terms=5):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        e = (draw(st.integers(-4, 4)), draw(st.integers(-4, 4)))
        terms[e] = QQ(draw(st.integers(-9, 9)), draw(st.integers(1, 4)))
    return qa_poly(terms)


@settings(max_examples=200, deadline=None)
@given(qa_polys(), st.integers(0, 6))
def test_reduce_is_canonical(p, i):
    r = Scalar(p * S_ATOM ** i, i).reduce()
    r0 = Scalar(p).reduce()
    assert r.num == r0.num
    assert r.s_exp == r0.s_exp == 0
    assert hash(r) == hash(Scalar(p))


# (factor, whether every multiple of it is a multiple of s)
Q_FACTORS = [(qa_poly({(0, 0): QQ(1)}), False), (S_ATOM, True),
             (S_ATOM ** 2, True),
             (qa_poly({(1, 0): QQ(1), (0, 0): QQ(-1)}), False),   # q - 1
             (qa_poly({(1, 0): QQ(1), (0, 0): QQ(1)}), False),    # q + 1
             (qa_poly({(1, 0): QQ(1), (0, 1): QQ(-1)}), False)]   # q - a


@settings(max_examples=300, deadline=None)
@given(qa_polys(), st.sampled_from(Q_FACTORS))
def test_s_divides_matches_exact_div(p, case):
    """The vanishing test at q = +-1 that ``Scalar.reduce`` uses agrees
    with exact division by s, on random polynomials and on multiples of
    s, q - 1 and q + 1."""
    factor, s_multiple = case
    f = p * factor
    assert _s_divides(f) == (f.exact_div(S_ATOM) is not None)
    if s_multiple:
        assert _s_divides(f)


def test_reduce_long_quotient():
    # q^1200 - 1 = (q^2 - 1)(q^1198 + ... + 1): a 600-term quotient
    s = Scalar(qa_poly({(1200, 0): QQ(1), (0, 0): QQ(-1)}), 1)
    r = s.reduce()
    assert r.s_exp == 0
    assert len(r.num.terms) == 600
    assert r == s and hash(r) == hash(s)


def test_hash_agrees_with_eq():
    one, zero = LaurentPoly.const(REG_QA, 1), LaurentPoly.zero(REG_QA)
    assert one == 1 and hash(one) == hash(1)
    assert zero == 0 and hash(zero) == hash(0)
    assert Scalar.one() == 1 and hash(Scalar.one()) == hash(1)
    f = qa_poly({(1, 0): QQ(1), (0, 0): QQ(1)})
    assert RatFunc(one * f, [f], cancel=False) == RatFunc(one)
    with pytest.raises(TypeError):
        hash(RatFunc(one))


REG_ZW = VarRegistry.make([("z", 0, 0), ("w", 0, 0)])
Z = LaurentPoly.var(REG_ZW, "z")
ONE = LaurentPoly.const(REG_ZW, 1)


def z_series(terms):
    return LaurentPoly(REG_ZW, {(k, 0): c for k, c in terms.items()})


def test_series_examples():
    assert RatFunc(ONE, [ONE - Z]).series_qt(3, "z") == z_series(
        {0: 1, 1: 1, 2: 1, 3: 1})
    assert RatFunc(ONE, [ONE - Z ** 2]).series_qt(4, "z") == z_series(
        {0: 1, 2: 1, 4: 1})


def test_simple_pole_residue():
    # the residue of z/(z-1) at z = 1 is the w^-1 coefficient at z = 1 + w
    w = LaurentPoly.var(REG_ZW, "w")
    f = RatFunc(Z, [Z - ONE]).substitute({"z": ONE + w})
    assert f.series_qt(0, "w").terms[(0, -1)] == 1


def test_series_of_product_matches():
    f = RatFunc(ONE, [ONE - 2 * Z])
    g = RatFunc(3 + Z, [ONE + 5 * Z ** 2])
    order = 6
    direct = f.series_qt(order, "z") * g.series_qt(order, "z")
    assert (f * g).series_qt(order, "z") == LaurentPoly(REG_ZW, {
        e: c for e, c in direct.terms.items() if e[0] <= order})


def test_series_laurent_mode():
    # 1/(z(1-z)) has a simple pole at 0
    assert RatFunc(ONE, [Z - Z ** 2]).series_qt(2, "z") == z_series(
        {-1: 1, 0: 1, 1: 1, 2: 1})


def test_series_numerator_of_negative_degree():
    reg = VarRegistry.make([("Q", 0, 0), ("T", 0, 0)])
    q = LaurentPoly.var(reg, "Q")
    one = LaurentPoly.const(reg, 1)
    got = RatFunc(q ** -1, [one - q]).series_qt(2, "Q", "T")
    assert got == q ** -1 + one + q + q ** 2


def test_series_needs_one_lowest_monomial():
    reg = VarRegistry.make([("Q", 0, 0), ("T", 0, 0)])
    q, t = LaurentPoly.var(reg, "Q"), LaurentPoly.var(reg, "T")
    one = LaurentPoly.const(reg, 1)
    # 1 - Q/T: both terms have total degree 0
    with pytest.raises(ValueError):
        RatFunc(one, [one - q * t ** -1]).series_qt(3, "Q", "T")
    # the same factor is fine when only Q is graded
    assert RatFunc(one, [one - q * t ** -1]).series_qt(2, "Q") == (
        one + q * t ** -1 + q ** 2 * t ** -2)


def test_ratfunc_sum_and_cancel():
    from knotmf.ring import VarRegistry
    reg = VarRegistry.make([("Q", 0, 0), ("T", 0, 0)])
    q = LaurentPoly.var(reg, "Q")
    t = LaurentPoly.var(reg, "T")
    one = LaurentPoly.const(reg, 1)
    f = RatFunc(one, [one - q])
    g = RatFunc(-1 * q, [one - q])
    total = RatFunc.sum([f, g])
    assert total == RatFunc(one)
    # a one-part sum is cancelled too
    single = RatFunc.sum([RatFunc(f.den[0] * g.num, f.den, cancel=False)])
    assert single.den == [] and single.num == g.num
    # symmetric pair whose cross denominators cancel
    h1 = RatFunc(one, [one - q * t])
    h2 = RatFunc(one, [one - q])
    s = h1 + h2
    assert s == RatFunc(2 * one - q - q * t, [one - q, one - q * t])


def test_scalar_evaluate():
    d = Scalar.loop_value()
    val = d.evaluate(QQ(2))
    # (a - 1/a)/(2 - 1/2) at q = 2
    expected = LaurentPoly(REG_QA, {(0, 1): QQ(2, 3), (0, -1): QQ(-2, 3)})
    assert val == expected
