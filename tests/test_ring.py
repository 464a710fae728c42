import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from knotmf.mf import REG_ACT, REG_CONV, _reducer_conv
from knotmf.ring import LaurentPoly, QuotientReducer, VarRegistry
from knotmf.scalars import REG_QA

REG = VarRegistry.make([("x", 0, 0), ("y", 0, 0), ("z", 0, 0)])
REG_A = VarRegistry.make([("a11", 0, 0), ("a12", 0, 0),
                          ("a21", 0, 0), ("a22", 0, 0)])


def v(name, p=1):
    return LaurentPoly.var(REG, name, p)


@st.composite
def polys(draw, reg=REG, max_terms=4):
    n = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n):
        e = tuple(draw(st.integers(-3, 3)) for _ in range(reg.nvars))
        c = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
        if c:
            terms[e] = c
    return LaurentPoly(reg, terms)


def test_add_examples():
    x = v("x")
    assert (x + (-x)).is_zero()
    q = v("x") + v("x", -1)
    assert q + v("x") == 2 * v("x") + v("x", -1)
    p = polys().example() if False else x
    assert p + LaurentPoly.zero(REG) == p


def test_mul_examples():
    x, y = v("x"), v("y")
    assert x ** 2 * x ** 3 == v("x", 5)
    assert x * y == LaurentPoly.monomial(REG, {"x": 1, "y": 1})
    s = v("x") - v("x", -1)
    assert s * (v("x") + v("x", -1)) == v("x", 2) - v("x", -2)


@settings(max_examples=400, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=150, deadline=None)
@given(polys(), polys())
def test_substitute_is_ring_hom(p, q):
    images = {"x": v("y") + 1, "y": v("z") ** 2, "z": LaurentPoly.const(REG, 3)}

    def clear(poly):
        # shift negative exponents away so every image is applicable
        return LaurentPoly(REG, {tuple(abs(i) for i in e): c
                                 for e, c in poly.terms.items()})

    p, q = clear(p), clear(q)
    lhs = (p * q).substitute(images)
    rhs = p.substitute(images) * q.substitute(images)
    assert lhs == rhs
    assert (p + q).substitute(images) == p.substitute(images) + q.substitute(images)


def test_substitute_examples():
    x, y = v("x"), v("y")
    assert (x * y).substitute({"x": LaurentPoly.zero(REG)}).is_zero()
    assert (x + y).substitute({}) == x + y
    with pytest.raises(ValueError):
        v("x", -1).substitute({"x": x + y})


def test_exact_division():
    x, y = v("x"), v("y")
    assert (x ** 2 - y ** 2).exact_div(x - y) == x + y
    assert (x ** 2 - y ** 2).exact_div(x + 1) is None
    big = (1 - v("x", 37))
    assert big.exact_div(1 - x) is not None
    # long exact quotients are found, not cut off by a step budget
    assert (x ** 600 - 1).exact_div(x - 1) == sum(
        (x ** k for k in range(1, 600)), LaurentPoly.const(REG, 1))
    assert (x ** 600 - 2).exact_div(x - 1) is None


def test_exact_div_long_quotient_by_u():
    # (a^1200 - 1) / (1 - a^-2) = a^2 (a^1198 + ... + 1): 600 terms
    a = LaurentPoly.var(REG_QA, "a")
    u = 1 - a ** -2
    quotient = (a ** 1200 - 1).exact_div(u)
    assert quotient == sum((a ** (2 * k) for k in range(1, 601)),
                           LaurentPoly.zero(REG_QA))
    assert len(quotient.terms) == 600


def test_weight_grading():
    reg = VarRegistry.make([
        ("X12", 2, 0, ((1, -1), (0, 0))),
        ("Y12", -2, -2, ((1, -1), (0, 0))),
    ])
    xw = LaurentPoly.var(reg, "X12").weight_of()
    assert xw[0] == 2 and xw[1] == 0
    yw = LaurentPoly.var(reg, "Y12").weight_of()
    assert yw[0] == -2 and yw[1] == -2
    mixed = LaurentPoly.var(reg, "X12") + LaurentPoly.var(reg, "Y12")
    assert mixed.weight_of() is None


def reducer():
    return QuotientReducer.det_one(REG_A)


def va(name, p=1):
    return LaurentPoly.var(REG_A, name, p)


def test_reducer_examples():
    red = reducer()
    lead = va("a11") * va("a22")
    rest = va("a12") * va("a21") + 1
    assert red.normal_form(lead) == rest
    det = lead - va("a12") * va("a21")
    assert red.normal_form(det) == LaurentPoly.const(REG_A, 1)
    assert red.normal_form(lead * va("a11")) == red.normal_form(rest * va("a11"))


@settings(max_examples=100, deadline=None)
@given(polys(REG_A, 3), polys(REG_A, 3))
def test_reducer_ring_map(p, q):
    red = reducer()

    def clear(poly):
        return LaurentPoly(REG_A, {tuple(abs(i) for i in e): c
                                   for e, c in poly.terms.items()})

    p, q = clear(p), clear(q)
    nf = red.normal_form
    assert nf(nf(p)) == nf(p)
    assert nf(p * q) == nf(nf(p) * nf(q))
    assert nf(p + q) == nf(nf(p) + nf(q))


def restart_normal_form(red, p):
    """Reference rewrite: the first term some rule reduces is rewritten by
    the first such rule, then the scan restarts from the first term."""
    reg = red.registry
    while True:
        for e, c in p.terms.items():
            for lead, rest in red.rules:
                k = min((e[i] // lead[i] for i in range(len(e)) if lead[i]),
                        default=0)
                if k >= 1:
                    base = tuple(a - k * b for a, b in zip(e, lead))
                    p = (p - LaurentPoly(reg, {e: c})
                         + LaurentPoly(reg, {base: c}) * rest ** k)
                    break
            else:
                continue
            break
        else:
            return p


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([
           _reducer_conv(), QuotientReducer.det_one(REG_ACT, "a", "c")]),
       st.data())
def test_normal_form_matches_restart_loop(red, data):
    """One pass per rule against the restart loop, on the two det rules of
    the convolution chart and on the triangular chart (a11*a22 -> 1 next to
    det c = 1), negative exponents included."""
    p = data.draw(mixed_polys(4, red.registry))
    lead_vars = [i for lead, _ in red.rules for i, x in enumerate(lead) if x]
    # lift some terms onto the leads so that most draws need rewriting
    p = p * LaurentPoly(red.registry, {tuple(
        data.draw(st.integers(0, 3)) if i in lead_vars else 0
        for i in range(red.registry.nvars)): 1})
    nf = red.normal_form(p)
    ref = restart_normal_form(red, p)
    assert_canonical(nf)
    assert nf.terms == ref.terms and str(nf) == str(ref)
    assert red.normal_form(nf) == nf


def test_reducer_rejects_rules_one_pass_cannot_finish():
    one = LaurentPoly.const(REG_A, 1)
    with pytest.raises(ValueError, match="rest contains a lead variable"):
        QuotientReducer(REG_A, [({"a11": 1, "a22": 1}, va("a11") + 1)])
    # a12 -> a11 would need the a11 rule again after its own pass
    with pytest.raises(ValueError, match="rest contains a lead variable"):
        QuotientReducer(REG_A, [({"a11": 1}, va("a22") + 1),
                                ({"a12": 1}, va("a11"))])
    with pytest.raises(ValueError, match="disjoint"):
        QuotientReducer(REG_A, [({"a11": 1, "a22": 1}, one),
                                ({"a11": 1, "a12": 1}, one)])


def test_large_power_normal_form():
    """(a11 + a22 + x0 + b11*b22)^16 on the convolution chart: lead-free,
    idempotent, and equal to the power on a point of det a = det b = 1."""
    red = _reducer_conv()
    v = lambda n: LaurentPoly.var(REG_CONV, n)
    p = (v("a11") + v("a22") + v("x0") + v("b11") * v("b22")) ** 16
    nf = red.normal_form(p)
    assert (len(p.terms), len(nf.terms)) == (969, 4845)
    for lead, _ in red.rules:
        assert not any(all(x >= l for x, l in zip(e, lead) if l)
                       for e in nf.terms)
    assert red.normal_form(nf) == nf
    point = {n: Fraction(k + 2, 3) for k, n in enumerate(REG_CONV.names)}
    for g in "ab":
        point[f"{g}22"] = ((1 + point[f"{g}12"] * point[f"{g}21"])
                           / point[f"{g}11"])

    def at(poly):
        total = Fraction(0)
        for e, c in poly.terms.items():
            term = Fraction(c)
            for name, k in zip(REG_CONV.names, e):
                term *= point[name] ** k
            total += term
        return total

    assert at(nf) == at(p)


def test_json_round_trip():
    p = v("x", -2) * 3 + v("y") * Fraction(5, 7) + 1
    assert LaurentPoly.from_json(REG, p.to_json()) == p


@st.composite
def mixed_coeffs(draw):
    """An int, a Fraction, or an integral value held as a Fraction."""
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return draw(st.integers(-9, 9))
    d = draw(st.integers(1, 9))
    n = draw(st.integers(-9, 9))
    return Fraction(n * d if kind == 1 else n, d)


@st.composite
def mixed_polys(draw, max_terms=4, reg=REG):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        e = tuple(draw(st.integers(-3, 3)) for _ in range(reg.nvars))
        terms[e] = draw(mixed_coeffs())
    return LaurentPoly(reg, terms)


def assert_canonical(p):
    """No float; integral coefficients are ints; equal and hash-equal to
    the same polynomial held with Fraction coefficients only."""
    for c in p.terms.values():
        assert type(c) in (int, Fraction)
        assert type(c) is int or c.denominator != 1
    as_fractions = LaurentPoly._raw(
        p.registry, {e: Fraction(c) for e, c in p.terms.items()})
    assert p == as_fractions
    assert hash(p) == hash(as_fractions)


def fraction_product(p, q):
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + Fraction(c1) * Fraction(c2)
    return {e: c for e, c in out.items() if c}


@settings(max_examples=300, deadline=None)
@given(mixed_polys(), mixed_polys(), mixed_coeffs(), st.integers(0, 3),
       st.integers(1, 3))
def test_coefficients_stay_exact(p, q, c, k, j):
    assert_canonical(p)
    product = p * q
    for r in (p + q, p - q, -p, product, p * c, c * p, p + c, p ** k):
        assert_canonical(r)
    assert product.terms == fraction_product(p, q)
    mono = LaurentPoly.monomial(REG, {"x": 1, "y": -2}, c or Fraction(2, 3))
    assert_canonical(mono ** -j)
    assert mono ** -j * mono ** j == LaurentPoly.const(REG, 1)
    if not q.is_zero():
        quotient = product.exact_div(q)
        assert_canonical(quotient)
        assert quotient == p
        assert_canonical(p.exact_div(mono))
    images = {"x": mono, "z": q if all(e[2] >= 0 for e in p.terms) else mono}
    assert_canonical(p.substitute(images))
    assert_canonical(p.evaluate({"y": c or Fraction(-3, 4)}))


def test_exact_division_non_monic():
    x = v("x")
    half = (x + 1).exact_div(2 * x + 2)
    assert half == LaurentPoly.const(REG, Fraction(1, 2))
    assert half.terms == {(0, 0, 0): Fraction(1, 2)}
    assert type(half.constant_value()) is Fraction
    three = (3 * x + 3).exact_div(x + 1)
    assert type(three.constant_value()) is int and three == 3
    assert (x * Fraction(4, 3)).exact_div(x * Fraction(2, 3)).terms == {
        (0, 0, 0): 2}


@st.composite
def binomial_division_cases(draw):
    """(dividend, binomial divisor, divisible) over (q, a) or (x, y, z)."""
    reg = draw(st.sampled_from([REG_QA, REG]))
    exps = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * reg.nvars),
                         min_size=2, max_size=2, unique=True))
    (e, c), (eg, cg) = sorted((e, draw(mixed_coeffs().filter(bool)))
                              for e in exps)
    divisor = LaurentPoly(reg, {e: c, eg: cg})
    # times the divisor, the geometric sum in -cg/c * x^(eg - e) leaves two
    # terms on one chain, and the quotient fills the gap between them
    ratio = LaurentPoly(reg, {tuple(a - b for a, b in zip(eg, e)):
                              Fraction(-cg) / c})
    p = draw(mixed_polys(6, reg)) + sum(
        (ratio ** i for i in range(draw(st.integers(0, 5)))),
        LaurentPoly(reg, {}))
    divisible = draw(st.booleans())
    if divisible:
        p = p * divisor
    return p, divisor, divisible


@settings(max_examples=400, deadline=None)
@given(binomial_division_cases())
def test_binomial_division_matches_lex(case):
    """The chain-sum path of exact_div against the lex reduction loop."""
    p, divisor, divisible = case
    fast = p.exact_div(divisor)
    if p.is_zero():
        assert fast == p
        return
    slow = p._div_lex(divisor)
    assert (fast is None) == (slow is None)
    if divisible:
        assert fast is not None and fast * divisor == p
    if fast is not None:
        assert_canonical(fast)
        assert fast.terms == slow.terms
