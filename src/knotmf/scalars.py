"""Exact scalars of the trace computation and rational functions.

* ``s_reduce`` -- the reduction of a closure value num / s^k, num a Laurent
  polynomial in (q, a) and s = q - 1/q the atom.  The closure invariant
  (``hecke.InvariantValue``) never has any other denominator, so reduction
  is exact division by s, no general gcd.  Since s = q^-1 (q - 1)(q + 1),
  s divides a numerator iff it vanishes at q = 1 and q = -1 in every
  a-slice; ``_s_divides`` reads that from coefficient sums and
  ``s_reduce`` divides only when it holds, so the reduced form is
  canonical and no division fails.
* ``RatFunc`` -- multivariate rational functions with a factored denominator
  list, used by the localization formulas, with exact truncated series
  expansion (``series_qt``).
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Mapping, Sequence

from .ring import (KEY_BITS, KEY_HALF, KEY_MASK, LaurentPoly, VarRegistry, QQ,
                   coeff_div)

# Registry of every closure value: q carries the q-grading, a the a-grading.
REG_QA = VarRegistry.make([("q", 1, 0), ("a", 0, 0)])


def qa_poly(terms: Mapping[tuple[int, int], Fraction]) -> LaurentPoly:
    return LaurentPoly(REG_QA, dict(terms))


S_ATOM = qa_poly({(1, 0): QQ(1), (-1, 0): QQ(-1)})       # q - q^-1


# a (q, a) key is q * 2^16 + a, so key mod 2^17 is the (a exponent,
# q parity) class of the term
_CLASS_MASK = (1 << (KEY_BITS + 1)) - 1


def _s_divides(num: LaurentPoly) -> bool:
    """s | num: num vanishes at q = 1 and at q = -1 in each a-slice, i.e.
    the coefficients of each (a exponent, q parity) class sum to 0."""
    sums: dict = {}
    get = sums.get
    for k, c in num.terms.items():
        k &= _CLASS_MASK
        sums[k] = get(k, 0) + c
    return not any(sums.values())


def s_reduce(num: LaurentPoly, k: int) -> tuple[LaurentPoly, int]:
    """Cancel every power of s that divides num / s^k; returns the reduced
    (numerator, exponent).

    ``_s_divides`` decides each step from coefficient sums, and only then
    does ``exact_div`` divide, so the result is canonical (equal values
    reduce to the same pair) and no division fails.
    """
    while k and _s_divides(num):
        num = num.exact_div(S_ATOM)
        if num is None:
            raise AssertionError("s vanishes at q = +-1 but does not divide")
        k -= 1
    return num, k


class RatFunc:
    """Multivariate rational function: num / prod(den), factors as given.

    The constructor folds monomial factors into the numerator and rejects a
    zero factor; it never divides.  ``cancelled`` is the one division pass,
    and ``+`` and ``sum`` return cancelled results.  Cancellation only ever
    tries exact division of the numerator by single factors, which is all
    the localization sums need.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: Sequence[LaurentPoly] = ()):
        self.num = num
        self.den = []
        for f in den:
            if f.is_zero():
                raise ZeroDivisionError("zero denominator factor")
            if f.is_monomial():
                ((e, c),) = f.terms.items()
                self.num = self.num * LaurentPoly._raw(
                    num.registry, {-e: coeff_div(1, c)}, f.span)
            else:
                self.den.append(f)

    def cancelled(self) -> "RatFunc":
        """Divide out every factor that divides the numerator, shortest
        factors first; the rest stay, in that order."""
        num, den = self.num, []
        for f in sorted(self.den, key=lambda p: (len(p.terms), str(p))):
            q = num.exact_div(f)
            if q is None:
                den.append(f)
            else:
                num = q
        return RatFunc(num, den)

    @staticmethod
    def sum(parts: "Sequence[RatFunc]") -> "RatFunc":
        """Balanced pairwise tree of ``__add__``, starting from the first
        part cancelled, so every partial sum is cancelled as it goes.  A
        left fold would scale each partial sum up to a growing denominator
        union; the tree keeps both operands small."""
        if not parts:
            raise ValueError("empty sum")
        level = [parts[0].cancelled(), *parts[1:]]
        while len(level) > 1:
            level = [level[i] + level[i + 1] if i + 1 < len(level)
                     else level[i] for i in range(0, len(level), 2)]
        return level[0]

    @property
    def registry(self):
        return self.num.registry

    def _lift(self, other):
        """int, Fraction and LaurentPoly as RatFuncs; anything else as is."""
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(self.registry, other)
        return RatFunc(other) if isinstance(other, LaurentPoly) else other

    def __add__(self, other: "RatFunc") -> "RatFunc":
        other = self._lift(other)
        # common denominator: multiset union
        c1, c2 = Counter(self.den), Counter(other.den)
        union = c1 | c2
        n1, n2 = self.num, other.num
        for f, m in union.items():
            n1 = _scale(n1, f, m - c1[f])
            n2 = _scale(n2, f, m - c2[f])
        return RatFunc(n1 + n2, list(union.elements())).cancelled()

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        return self + -self._lift(other)

    def __mul__(self, other):
        if isinstance(other, RatFunc):
            return RatFunc(self.num * other.num, self.den + other.den)
        return RatFunc(self.num * other, self.den)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._lift(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        lhs = self.num
        for f in other.den:
            lhs = lhs * f
        rhs = other.num
        for f in self.den:
            rhs = rhs * f
        return lhs == rhs

    # __eq__ cross-multiplies, so equal values can have different factor
    # lists; no canonical form is cheap enough to hash.
    __hash__ = None

    def is_zero(self):
        return self.num.is_zero()

    def substitute(self, images, target=None) -> "RatFunc":
        return RatFunc(self.num.substitute(images, target),
                       [f.substitute(images, target) for f in self.den])

    def series_qt(self, order: int, *names: str) -> LaurentPoly:
        """Expansion up to total degree ``order`` in the variables ``names``.

        The other variables are coefficients.  The factors are multiplied
        into one denominator f, whose lowest-degree part (the product of
        theirs) must be one monomial c*m, of any degree; then
        f = c*m*(1 - g) with every term of g of positive degree, and
        1/f = (c*m)^-1 * sum_k g^k.  The geometric sum runs as far as the
        valuation of the rest requires, so a numerator of negative degree
        loses nothing below ``order``.
        """
        reg = self.registry
        shifts = [reg.shifts[reg.index(name)] for name in names]
        offset, base = reg.offset, KEY_HALF * len(shifts)

        def deg(e):
            e += offset
            return sum([(e >> s) & KEY_MASK for s in shifts]) - base

        def trunc(p: LaurentPoly, top: int) -> LaurentPoly:
            return LaurentPoly._raw(reg, {e: c for e, c in p.terms.items()
                                          if deg(e) <= top}, p.span)

        one = LaurentPoly.const(reg, 1)
        f = math.prod(self.den, start=one)
        low = min(map(deg, f.terms))
        lead = [(e, c) for e, c in f.terms.items() if deg(e) == low]
        if len(lead) != 1:
            raise ValueError(f"denominator {f} has no single lowest-degree "
                             f"monomial in {', '.join(names)}")
        minv = LaurentPoly._raw(reg, dict(lead), f.span) ** -1
        out = trunc(self.num * minv, order)
        if out.is_zero():
            return out
        # 1/(1 - g) has degree >= 0: it needs terms up to this degree
        top = order - min(map(deg, out.terms))
        g = one - f * minv
        inv = power = one
        for _ in range(top):
            power = trunc(power * g, top)
            if power.is_zero():
                break
            inv = inv + power
        return trunc(out * inv, order)

    def __str__(self):
        if not self.den:
            return str(self.num)
        return f"({self.num}) / ({' * '.join(f'({f})' for f in self.den)})"

    __repr__ = __str__


def _scale(num: LaurentPoly, f: LaurentPoly, k: int) -> LaurentPoly:
    for _ in range(k):
        num = num * f
    return num
