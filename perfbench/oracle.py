"""Exact polynomial arithmetic owned by the benchmark, for checking results.

The checks never call back into knotmf arithmetic: results are read through
the documented JSON form of a Laurent polynomial (``LaurentPoly.to_json``)
and compared with plain dicts ``exponent tuple -> Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb


def poly(lp, names) -> dict:
    """Dict form of a knotmf Laurent polynomial, exponents in ``names`` order."""
    out = {}
    for item in lp.to_json():
        num, den = item["coeff"].split("/")
        key = tuple(item["exponents"].get(n, 0) for n in names)
        out[key] = out.get(key, 0) + Fraction(int(num), int(den))
    return {k: v for k, v in out.items() if v}


def mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def add(p: dict, q: dict, sign: int = 1) -> dict:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + sign * c
    return {k: v for k, v in out.items() if v}


def shift(p: dict, delta: tuple) -> dict:
    """Multiply by the monomial with exponent vector ``delta``."""
    return {tuple(a + b for a, b in zip(e, delta)): c for e, c in p.items()}


def s_power(k: int) -> dict:
    """(q - q^-1)^k over the (q, a) exponent layout."""
    return {(k - 2 * j, 0): Fraction((-1) ** j * comb(k, j))
            for j in range(k + 1)}


def components(strands: int, letters) -> int:
    """Number of cycles of the closure permutation of a braid word."""
    images = list(range(strands))
    for a in letters:
        i = abs(a) - 1
        images[i], images[i + 1] = images[i + 1], images[i]
    seen, cycles = set(), 0
    for start in range(strands):
        if start in seen:
            continue
        cycles += 1
        i = start
        while i not in seen:
            seen.add(i)
            i = images[i]
    return cycles


def check_invariant(inv, strands: int, letters) -> tuple[dict, int]:
    """The two independent checks on every closure invariant
    num / ((q - q^-1)^s (1 - a^-2)^u); returns (num over (q, a), s).

    * exact denominator: the reduced form is num / (q - q^-1)^c with c the
      component count and no (1 - a^-2) left, so a non-canonical reduction
      shows up here;
    * sl(1) specialization: P|_{a=q} = 1, i.e. num(q, q) = (q - q^-1)^c.
    """
    value = inv.value
    num, s_exp, u_exp = poly(value.num, ("q", "a")), value.s_exp, value.u_exp
    c = components(strands, letters)
    if u_exp != 0 or s_exp != c:
        raise AssertionError(
            f"denominator s^{s_exp} u^{u_exp}, expected s^{c} for "
            f"{c} component(s)")
    at_q: dict = {}
    for (qe, ae), coeff in num.items():
        at_q[(qe + ae, 0)] = at_q.get((qe + ae, 0), 0) + coeff
    at_q = {k: v for k, v in at_q.items() if v}
    if at_q != s_power(c):
        raise AssertionError("sl(1) specialization P(a=q) != 1")
    return num, s_exp


def same_invariant(x: tuple[dict, int], y: tuple[dict, int]) -> bool:
    """Equality of two canonical (numerator, s exponent) pairs."""
    return x[1] == y[1] and x[0] == y[0]


def skein_holds(plus, minus, zero) -> bool:
    """a P(b+) - a^-1 P(b-) == (q - q^-1) P(b0), cleared of denominators."""
    (np_, kp), (nm, km), (n0, k0) = plus, minus, zero
    top = max(kp, km, k0 - 1)
    lhs = add(mul(shift(np_, (0, 1)), s_power(top - kp)),
              mul(shift(nm, (0, -1)), s_power(top - km)), sign=-1)
    rhs = mul(n0, s_power(top - k0 + 1))
    return lhs == rhs


def ratfunc_equal(x, y) -> bool:
    """num_x * prod(den_y) == num_y * prod(den_x) for two RatFuncs."""
    names = tuple(x.num.registry.names)
    lhs, rhs = poly(x.num, names), poly(y.num, names)
    for f in y.den:
        lhs = mul(lhs, poly(f, names))
    for f in x.den:
        rhs = mul(rhs, poly(f, names))
    return lhs == rhs


def vanishes_at_a_minus_one(lp) -> bool:
    """Every character carries the box-1 factor (1 + a), so its truncated
    series vanishes at a = -1 coefficient by coefficient."""
    names = tuple(lp.registry.names)
    ia = names.index("a")
    rest: dict = {}
    for e, c in poly(lp, names).items():
        key = e[:ia] + e[ia + 1:]
        rest[key] = rest.get(key, 0) + c * (-1) ** (e[ia] % 2)
    return not any(rest.values())
