"""Scalar fields for the trace computation and rational functions.

Two classes:

* ``Scalar`` -- Laurent polynomials in (q, a) divided by a power of the atom
  s = q - 1/q.  The closure invariant never has any other denominator, so
  reduction is exact division by s, no general gcd.  Since
  s = q^-1 (q - 1)(q + 1), s divides a numerator iff it vanishes at q = 1
  and q = -1 in every a-slice; ``reduce`` reads that from coefficient sums
  and divides only when it holds, so the reduced form is canonical and no
  division fails.
* ``RatFunc`` -- multivariate rational functions with a factored denominator
  list, used by the localization formulas, with exact truncated series
  expansion (``series_qt``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .ring import LaurentPoly, VarRegistry, QQ

# Registry underlying every Scalar: q carries the q-grading, a the a-grading.
REG_QA = VarRegistry.make([("q", 1, 0), ("a", 0, 0)])


def qa_poly(terms: Mapping[tuple[int, int], Fraction]) -> LaurentPoly:
    return LaurentPoly(REG_QA, dict(terms))


S_ATOM = qa_poly({(1, 0): QQ(1), (-1, 0): QQ(-1)})       # q - q^-1


def _s_divides(num: LaurentPoly) -> bool:
    """s | num: num vanishes at q = 1 and at q = -1 in each a-slice, i.e.
    the coefficients of each (a exponent, q parity) class sum to 0."""
    sums: dict = {}
    get = sums.get
    for (qe, ae), c in num.terms.items():
        k = (ae, qe & 1)
        sums[k] = get(k, 0) + c
    return not any(sums.values())


class Scalar:
    """num / s^s_exp with num a Laurent polynomial in q, a."""

    __slots__ = ("num", "s_exp")

    # no u = 1 - a^-2 denominator exists; kept because perfbench/oracle.py
    # reads ``value.u_exp`` of every closure invariant
    u_exp = 0

    def __init__(self, num: LaurentPoly, s_exp: int = 0):
        if num.registry != REG_QA:
            raise ValueError("Scalar numerators live in the (q, a) registry")
        if s_exp < 0:
            raise ValueError("the s exponent is nonnegative")
        self.num = num
        self.s_exp = s_exp

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_int(c) -> "Scalar":
        return Scalar(LaurentPoly.const(REG_QA, c))

    @staticmethod
    def one() -> "Scalar":
        return Scalar.from_int(1)

    @staticmethod
    def loop_value() -> "Scalar":
        """(a - a^-1)/(q - q^-1), the unknot value."""
        return Scalar(qa_poly({(0, 1): QQ(1), (0, -1): QQ(-1)}), 1)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar.from_int(other)
        se = max(self.s_exp, other.s_exp)
        num = (self.num * S_ATOM ** (se - self.s_exp)
               + other.num * S_ATOM ** (se - other.s_exp))
        return Scalar(num, se).reduce()

    __radd__ = __add__

    def __neg__(self):
        return Scalar(-self.num, self.s_exp)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar.from_int(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Scalar(self.num * other, self.s_exp)
        if isinstance(other, LaurentPoly):
            other = Scalar(other)
        return Scalar(self.num * other.num, self.s_exp + other.s_exp).reduce()

    __rmul__ = __mul__

    def mul_monomial(self, q_exp: int = 0, a_exp: int = 0, coeff=1) -> "Scalar":
        return Scalar(self.num * qa_poly({(q_exp, a_exp): QQ(coeff)}),
                      self.s_exp)

    # -- normal form -------------------------------------------------------

    def reduce(self) -> "Scalar":
        """Cancel every power of s that divides the numerator.

        ``_s_divides`` decides each step from coefficient sums, and only
        then does ``exact_div`` divide, so the result is the canonical form
        (equal scalars reduce to the same numerator and exponent) and no
        division fails.
        """
        num, se = self.num, self.s_exp
        while se and _s_divides(num):
            num = num.exact_div(S_ATOM)
            if num is None:
                raise AssertionError("s vanishes at q = +-1 but does not "
                                     "divide")
            se -= 1
        return Scalar(num, se)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar.from_int(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        # cross-multiplied comparison, independent of reduction state
        return (self.num * S_ATOM ** other.s_exp
                == other.num * S_ATOM ** self.s_exp)

    def __hash__(self):
        r = self.reduce()
        if not r.s_exp:
            return hash(r.num)  # so constants hash as their value
        return hash((r.num, r.s_exp))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def evaluate(self, q_val: Fraction):
        """Specialize q; returns a LaurentPoly in a over Q."""
        q_val = QQ(q_val)
        s_val = q_val - 1 / q_val
        if s_val == 0:
            raise ZeroDivisionError("q sample is a zero of the s atom")
        num = self.num.evaluate({"q": q_val})
        if self.s_exp:
            num = num * (QQ(1) / s_val ** self.s_exp)
        return num

    def __str__(self):
        if not self.s_exp:
            return str(self.num)
        power = f"^{self.s_exp}" if self.s_exp > 1 else ""
        return f"({self.num}) / ((q-q^-1){power})"

    __repr__ = __str__


class RatFunc:
    """Multivariate rational function: numerator and factored denominator.

    The denominator is a multiset of polynomial factors; cancellation only
    ever tries exact division of the numerator by single factors, which is
    all the localization sums need.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: Sequence[LaurentPoly] = (),
                 cancel: bool = True):
        self.num = num
        self.den = [f for f in den if not (f.is_monomial())]
        for f in den:
            if f.is_zero():
                raise ZeroDivisionError("zero denominator factor")
            if f.is_monomial():
                e, c = f.monomial_parts()
                self.num = self.num * LaurentPoly(
                    num.registry, {tuple(-x for x in e): QQ(1) / c})
        if cancel:
            self._cancel()

    def _cancel(self):
        remaining = []
        for f in sorted(self.den, key=lambda p: (len(p.terms), str(p))):
            q = self.num.exact_div(f)
            if q is not None:
                self.num = q
            else:
                remaining.append(f)
        self.den = remaining

    @staticmethod
    def sum(parts: "Sequence[RatFunc]") -> "RatFunc":
        """Left fold of ``__add__``, starting from the first part rebuilt
        with cancellation, so every partial sum is cancelled as it goes."""
        if not parts:
            raise ValueError("empty sum")
        total = RatFunc(parts[0].num, parts[0].den)
        for p in parts[1:]:
            total = total + p
        return total

    @property
    def registry(self):
        return self.num.registry

    def __add__(self, other: "RatFunc") -> "RatFunc":
        if isinstance(other, (int, Fraction, LaurentPoly)):
            other = RatFunc(other if isinstance(other, LaurentPoly)
                            else LaurentPoly.const(self.registry, other))
        # common denominator: multiset union
        from collections import Counter
        c1, c2 = Counter(map(_key, self.den)), Counter(map(_key, other.den))
        lookup = {_key(f): f for f in self.den + other.den}
        union = c1 | c2
        n1, n2 = self.num, other.num
        for k, m in union.items():
            n1 = _scale(n1, lookup[k], m - c1.get(k, 0))
            n2 = _scale(n2, lookup[k], m - c2.get(k, 0))
        den = []
        for k, m in union.items():
            den.extend([lookup[k]] * m)
        return RatFunc(n1 + n2, den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, list(self.den))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, LaurentPoly)):
            other = RatFunc(other if isinstance(other, LaurentPoly)
                            else LaurentPoly.const(self.registry, other))
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RatFunc(self.num * other, list(self.den))
        if isinstance(other, LaurentPoly):
            return RatFunc(self.num * other, list(self.den))
        return RatFunc(self.num * other.num, list(self.den) + list(other.den))

    __rmul__ = __mul__

    def divide_by(self, factor: LaurentPoly) -> "RatFunc":
        return RatFunc(self.num, list(self.den) + [factor])

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, LaurentPoly)):
            other = RatFunc(other if isinstance(other, LaurentPoly)
                            else LaurentPoly.const(self.registry, other))
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

        The other variables are coefficients.  The lowest-degree part of
        every denominator factor f must be one monomial c*m, of any degree;
        then f = c*m*(1 - g) with every term of g of positive degree, and
        1/f = (c*m)^-1 * sum_k g^k.  Each geometric sum runs as far as the
        valuation of the rest of the product requires, so a numerator of
        negative degree loses nothing below ``order``.
        """
        reg = self.registry
        idx = [reg.index(name) for name in names]

        def deg(e):
            return sum(e[i] for i in idx)

        def trunc(p: LaurentPoly, top: int) -> LaurentPoly:
            return LaurentPoly._raw(reg, {e: c for e, c in p.terms.items()
                                          if deg(e) <= top})

        out, tails = self.num, []
        for f in self.den:
            low = min(map(deg, f.terms))
            lead = [(e, c) for e, c in f.terms.items() if deg(e) == low]
            if len(lead) != 1:
                raise ValueError(f"factor {f} has no single lowest-degree "
                                 f"monomial in {', '.join(names)}")
            minv = LaurentPoly._raw(reg, dict(lead)) ** -1
            out = out * minv
            tails.append(LaurentPoly.const(reg, 1) - f * minv)
        out = trunc(out, order)
        if out.is_zero():
            return out
        # the factors 1/(1 - g) have degree >= 0: they need terms up to this
        top = order - min(map(deg, out.terms))
        for g in tails:
            inv = power = LaurentPoly.const(reg, 1)
            for _ in range(top):
                power = trunc(power * g, top)
                if power.is_zero():
                    break
                inv = inv + power
            out = trunc(out * inv, order)
        return out

    def __str__(self):
        if not self.den:
            return str(self.num)
        return f"({self.num}) / ({' * '.join(f'({f})' for f in self.den)})"

    __repr__ = __str__


def _key(p: LaurentPoly):
    return tuple(sorted(p.terms.items()))


def _scale(num: LaurentPoly, f: LaurentPoly, k: int) -> LaurentPoly:
    for _ in range(k):
        num = num * f
    return num
