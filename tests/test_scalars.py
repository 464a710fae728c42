import pytest
from hypothesis import given, settings, strategies as st

from knotmf.braid import BraidWord
from knotmf.hecke import InvariantValue, homflypt
from knotmf.ring import LaurentPoly, QQ, VarRegistry
from knotmf.scalars import (REG_QA, RatFunc, S_ATOM, _s_divides, qa_poly,
                            s_reduce)

# numerator of the loop value D = (a - a^-1)/(q - q^-1)
LOOP = qa_poly({(0, 1): QQ(1), (0, -1): QQ(-1)})


def test_loop_value_times_z_is_a():
    # D z = a with z = s/(1 - a^-2), i.e. D s = a (1 - a^-2)
    a_u = qa_poly({(0, 1): QQ(1)}) * qa_poly({(0, 0): QQ(1), (0, -2): QQ(-1)})
    r = InvariantValue(LOOP * S_ATOM, 1)
    assert r.s_exp == 0 and r == InvariantValue(a_u)


def test_reduce_cancels_atoms():
    p = qa_poly({(2, 0): QQ(1), (0, 0): QQ(-3)})
    num, k = s_reduce(p * S_ATOM, 1)
    assert k == 0 and num == p
    assert InvariantValue(p * S_ATOM, 1) == InvariantValue(p)


def test_normalizing_value():
    d = homflypt(BraidWord(1, ()))
    assert d.s_exp == 1
    assert d.num == LOOP


@settings(max_examples=100, deadline=None)
@given(st.integers(-5, 5), st.integers(-5, 5), st.integers(0, 4))
def test_reduce_preserves_value(c1, c2, i):
    num = qa_poly({(1, 0): QQ(c1), (0, 2): QQ(c2)})
    r = InvariantValue(num * S_ATOM ** i, i)
    # the same value, cross-multiplied, and already reduced
    assert r.num * S_ATOM ** i == num * S_ATOM ** i * S_ATOM ** r.s_exp
    assert s_reduce(r.num, r.s_exp) == (r.num, r.s_exp)


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
    r = InvariantValue(p * S_ATOM ** i, i)
    r0 = InvariantValue(p)
    assert r.num == r0.num == p
    assert r.s_exp == r0.s_exp == 0
    assert hash(r) == hash(r0)


# (factor, whether every multiple of it is a multiple of s)
Q_FACTORS = [(qa_poly({(0, 0): QQ(1)}), False), (S_ATOM, True),
             (S_ATOM ** 2, True),
             (qa_poly({(1, 0): QQ(1), (0, 0): QQ(-1)}), False),   # q - 1
             (qa_poly({(1, 0): QQ(1), (0, 0): QQ(1)}), False),    # q + 1
             (qa_poly({(1, 0): QQ(1), (0, 1): QQ(-1)}), False)]   # q - a


@settings(max_examples=300, deadline=None)
@given(qa_polys(), st.sampled_from(Q_FACTORS))
def test_s_divides_matches_exact_div(p, case):
    """The vanishing test at q = +-1 that ``s_reduce`` uses agrees
    with exact division by s, on random polynomials and on multiples of
    s, q - 1 and q + 1."""
    factor, s_multiple = case
    f = p * factor
    assert _s_divides(f) == (f.exact_div(S_ATOM) is not None)
    if s_multiple:
        assert _s_divides(f)


@settings(max_examples=200, deadline=None)
@given(qa_polys(), st.sampled_from([f for f, _ in Q_FACTORS]),
       st.integers(0, 4), st.integers(0, 6), qa_polys(), st.integers(0, 6))
def test_invariant_value_canonical_contract(p, factor, i, j, p2, k2):
    """InvariantValue(p s^i, i + j) is InvariantValue(p, j): the same pair
    and hash; and == agrees with cross-multiplied equality."""
    p = p * factor  # multiples of s, q - 1, q + 1, ... reduce differently
    x, y = InvariantValue(p * S_ATOM ** i, i + j), InvariantValue(p, j)
    assert (x.num, x.s_exp) == (y.num, y.s_exp)
    assert hash(x) == hash(y) and x == y
    z = InvariantValue(p2, k2)
    assert (y == z) == (p * S_ATOM ** k2 == p2 * S_ATOM ** j)
    assert y != z or hash(y) == hash(z)


def test_reduce_long_quotient():
    # q^1200 - 1 = (q^2 - 1)(q^1198 + ... + 1): a 600-term quotient
    f = qa_poly({(1200, 0): QQ(1), (0, 0): QQ(-1)})
    num, k = s_reduce(f, 1)
    assert k == 0
    assert len(num.terms) == 600 and num * S_ATOM == f
    r = InvariantValue(f, 1)
    assert (r.num, r.s_exp) == (num, 0)
    assert r == InvariantValue(num) and hash(r) == hash(InvariantValue(num))


def test_hash_agrees_with_eq():
    one, zero = LaurentPoly.const(REG_QA, 1), LaurentPoly.zero(REG_QA)
    assert one == 1 and hash(one) == hash(1)
    assert zero == 0 and hash(zero) == hash(0)
    v1 = InvariantValue(one)
    assert InvariantValue(S_ATOM, 1) == v1
    assert hash(InvariantValue(S_ATOM, 1)) == hash(v1)
    f = qa_poly({(1, 0): QQ(1), (0, 0): QQ(1)})
    assert RatFunc(one * f, [f]) == RatFunc(one)
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
    assert f.series_qt(0, "w").decoded()[(0, -1)] == 1


def test_series_of_product_matches():
    f = RatFunc(ONE, [ONE - 2 * Z])
    g = RatFunc(3 + Z, [ONE + 5 * Z ** 2])
    order = 6
    direct = f.series_qt(order, "z") * g.series_qt(order, "z")
    assert (f * g).series_qt(order, "z") == LaurentPoly(REG_ZW, {
        e: c for e, c in direct.decoded().items() if e[0] <= order})


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
    single = RatFunc.sum([RatFunc(f.den[0] * g.num, f.den)])
    assert single.den == [] and single.num == g.num
    # symmetric pair whose cross denominators cancel
    h1 = RatFunc(one, [one - q * t])
    h2 = RatFunc(one, [one - q])
    s = h1 + h2
    assert s == RatFunc(2 * one - q - q * t, [one - q, one - q * t])


def test_ratfunc_cancels_only_when_asked():
    """The constructor keeps its factors; ``cancelled``, ``+`` and
    ``sum`` divide out the ones that divide the numerator."""
    from knotmf.localization import Character
    reg = VarRegistry.make([("Q", 0, 0), ("T", 0, 0), ("a", 0, 0)])
    q = LaurentPoly.var(reg, "Q")
    t = LaurentPoly.var(reg, "T")
    one = LaurentPoly.const(reg, 1)
    f, g, h = one - q, one + t, one - q * t
    r = RatFunc(f * g, [f, h])
    assert r.den == [f, h] and r.num == f * g
    c = r.cancelled()
    assert c.den == [h] and c.num == g
    assert RatFunc(f * f * g, [f, f, f]).cancelled().den == [f]
    for total, num in ((r + 0, g),
                       (RatFunc.sum([r, RatFunc(f * h, [f, h])]), g + h)):
        assert total.den == [h] and total.num == num
    # unreduced() divides by (1 - Q)^n without cancelling, even where the
    # reduced numerator holds 1 - Q
    ch = Character(2, (1,), "residue", RatFunc(f * g, [h]))
    u = ch.unreduced()
    assert u.den == [h, f, f] and u.num == f * g
    assert u * f ** 2 == ch.reduced


def test_scalar_evaluate():
    d = InvariantValue(LOOP, 1)
    val = d.evaluate(QQ(2))
    # (a - 1/a)/(2 - 1/2) at q = 2
    expected = LaurentPoly(REG_QA, {(0, 1): QQ(2, 3), (0, -1): QQ(-2, 3)})
    assert val == expected
