"""Scalar fields for the trace computation and series utilities.

Three layers:

* ``Scalar`` -- Laurent polynomials in (q, a) divided by powers of the two
  atoms s = q - 1/q and u = 1 - 1/a^2.  The Markov trace never produces any
  other denominator, so reduction is exact division by atoms, no general gcd.
  Both atoms are a unit times X - 1 with X = q^2 or a^2, so division by one
  is a slice-sum test plus synthetic division (``_div_atom``): linear in the
  terms and the quotient, never a guess, and the reduced form is canonical.
* ``RationalFunc1`` -- univariate rational functions with exact series
  expansion and simple-pole residues.
* ``RatFunc`` -- multivariate rational functions with a factored denominator
  list, used by the localization formulas.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .ring import LaurentPoly, VarRegistry, QQ, as_coeff

# Registry underlying every Scalar: q carries the q-grading, a the a-grading.
REG_QA = VarRegistry.make([("q", 1, 0), ("a", 0, 0)])


def qa_poly(terms: Mapping[tuple[int, int], Fraction]) -> LaurentPoly:
    return LaurentPoly(REG_QA, dict(terms))


S_ATOM = qa_poly({(1, 0): QQ(1), (-1, 0): QQ(-1)})       # q - q^-1
U_ATOM = qa_poly({(0, 0): QQ(1), (0, -2): QQ(-1)})       # 1 - a^-2


def _div_atom(terms: Mapping[tuple[int, int], Fraction], var: int,
              shift: int) -> dict[tuple[int, int], Fraction] | None:
    """Exact quotient of a (q, a) term dict by x^-shift * (x^2 - 1), or None.

    ``var`` is the index of x: s = q^-1 (q^2 - 1) is (0, 1) and
    u = a^-2 (a^2 - 1) is (1, 2).  Multiplying by X - 1, X = x^2, keeps the
    other variable's exponent and the parity of x's exponent, so the terms
    split into slices by that pair, each a Laurent polynomial in X alone.  A
    slice is divisible by X - 1 iff its coefficients sum to 0; then the
    quotient's coefficient at x^f is the sum of the slice's coefficients at
    exponents above f, times the unit x^shift.  None means the atom provably
    does not divide.
    """
    slices: dict[tuple[int, int], list] = {}
    for e, c in terms.items():
        slices.setdefault((e[1 - var], e[var] & 1), []).append((e[var], c))
    if any(sum(c for _, c in items) for items in slices.values()):
        return None
    out: dict[tuple[int, int], Fraction] = {}
    for (other, _), items in slices.items():
        items.sort(reverse=True)
        acc = 0
        for (e, c), (below, _) in zip(items, items[1:]):
            acc += c
            if acc:
                val = acc if type(acc) is int else as_coeff(acc)
                for f in range(e - 2 + shift, below - 1 + shift, -2):
                    out[(f, other) if var == 0 else (other, f)] = val
    return out


class Scalar:
    """num / (s^s_exp * u^u_exp) with num a Laurent polynomial in q, a."""

    __slots__ = ("num", "s_exp", "u_exp")

    def __init__(self, num: LaurentPoly, s_exp: int = 0, u_exp: int = 0):
        if num.registry != REG_QA:
            raise ValueError("Scalar numerators live in the (q, a) registry")
        if s_exp < 0 or u_exp < 0:
            raise ValueError("atom exponents are nonnegative")
        self.num = num
        self.s_exp = s_exp
        self.u_exp = u_exp

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_int(c) -> "Scalar":
        return Scalar(LaurentPoly.const(REG_QA, c))

    @staticmethod
    def one() -> "Scalar":
        return Scalar.from_int(1)

    @staticmethod
    def zero() -> "Scalar":
        return Scalar.from_int(0)

    @staticmethod
    def trace_z() -> "Scalar":
        """z = (q - q^-1)/(1 - a^-2), the Markov trace parameter."""
        return Scalar(S_ATOM, 0, 1)

    @staticmethod
    def loop_value() -> "Scalar":
        """(a - a^-1)/(q - q^-1), the unknot value."""
        return Scalar(qa_poly({(0, 1): QQ(1), (0, -1): QQ(-1)}), 1, 0)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar.from_int(other)
        se, ue = max(self.s_exp, other.s_exp), max(self.u_exp, other.u_exp)
        n1 = (self.num * S_ATOM ** (se - self.s_exp)
              * U_ATOM ** (ue - self.u_exp))
        n2 = (other.num * S_ATOM ** (se - other.s_exp)
              * U_ATOM ** (ue - other.u_exp))
        return Scalar(n1 + n2, se, ue).reduce()

    __radd__ = __add__

    def __neg__(self):
        return Scalar(-self.num, self.s_exp, self.u_exp)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar.from_int(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Scalar(self.num * other, self.s_exp, self.u_exp)
        if isinstance(other, LaurentPoly):
            other = Scalar(other)
        return Scalar(self.num * other.num, self.s_exp + other.s_exp,
                      self.u_exp + other.u_exp).reduce()

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("Scalar powers are nonnegative; divide by atoms")
        out = Scalar.one()
        for _ in range(n):
            out = out * self
        return out

    def mul_monomial(self, q_exp: int = 0, a_exp: int = 0, coeff=1) -> "Scalar":
        return Scalar(self.num * qa_poly({(q_exp, a_exp): QQ(coeff)}),
                      self.s_exp, self.u_exp)

    # -- normal form -------------------------------------------------------

    def reduce(self) -> "Scalar":
        """Cancel every atom power that divides the numerator.

        Each step is ``_div_atom``: the numerator's slices by (other
        exponent, parity) either all sum to 0 and the atom divides, or one
        does not and it provably does not.  So the result is the canonical
        form: equal scalars reduce to the same numerator and exponents.
        """
        terms, se, ue = self.num.terms, self.s_exp, self.u_exp
        if not terms:
            return Scalar(self.num, 0, 0)
        while se:
            t = _div_atom(terms, 0, 1)
            if t is None:
                break
            terms, se = t, se - 1
        while ue:
            t = _div_atom(terms, 1, 2)
            if t is None:
                break
            terms, ue = t, ue - 1
        return Scalar(LaurentPoly._raw(REG_QA, terms), se, ue)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar.from_int(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        # cross-multiplied comparison, independent of reduction state
        lhs = self.num * S_ATOM ** other.s_exp * U_ATOM ** other.u_exp
        rhs = other.num * S_ATOM ** self.s_exp * U_ATOM ** self.u_exp
        return lhs == rhs

    def __hash__(self):
        r = self.reduce()
        if not (r.s_exp or r.u_exp):
            return hash(r.num)  # so constants hash as their value
        return hash((r.num, r.s_exp, r.u_exp))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def evaluate(self, q_val: Fraction, a_formal: bool = True):
        """Specialize q; returns a LaurentPoly in a over Q divided exactly.

        Raises if an atom denominator does not cancel numerically.
        """
        q_val = QQ(q_val)
        s_val = q_val - 1 / q_val
        if s_val == 0:
            raise ZeroDivisionError("q sample is a zero of the s atom")
        num = self.num.evaluate({"q": q_val})
        if self.s_exp:
            num = num * (QQ(1) / s_val ** self.s_exp)
        terms = num.terms
        for _ in range(self.u_exp):
            terms = _div_atom(terms, 1, 2)
            if terms is None:
                raise ArithmeticError("u atom does not cancel")
        return LaurentPoly._raw(REG_QA, terms)

    def __str__(self):
        den = []
        if self.s_exp:
            den.append("(q-q^-1)" + (f"^{self.s_exp}" if self.s_exp > 1 else ""))
        if self.u_exp:
            den.append("(1-a^-2)" + (f"^{self.u_exp}" if self.u_exp > 1 else ""))
        if not den:
            return str(self.num)
        return f"({self.num}) / ({'*'.join(den)})"

    __repr__ = __str__


class RationalFunc1:
    """Univariate rational function num/den with Fraction coefficients.

    Polynomials are dicts exponent -> coefficient (Laurent allowed).
    """

    def __init__(self, num: Mapping[int, Fraction], den: Mapping[int, Fraction]):
        self.num = {int(k): QQ(v) for k, v in num.items() if QQ(v) != 0}
        self.den = {int(k): QQ(v) for k, v in den.items() if QQ(v) != 0}
        if not self.den:
            raise ZeroDivisionError("zero denominator")
        self._gcd_reduce()

    # polynomial helpers -------------------------------------------------

    @staticmethod
    def _shift_nonneg(p: dict[int, Fraction]) -> tuple[dict[int, Fraction], int]:
        if not p:
            return {}, 0
        m = min(p)
        if m < 0:
            return {k - m: v for k, v in p.items()}, m
        return dict(p), 0

    @staticmethod
    def _pmul(p, q):
        out: dict[int, Fraction] = {}
        for i, a in p.items():
            for j, b in q.items():
                out[i + j] = out.get(i + j, QQ(0)) + a * b
        return {k: v for k, v in out.items() if v != 0}

    @staticmethod
    def _padd(p, q):
        out = dict(p)
        for k, v in q.items():
            s = out.get(k, QQ(0)) + v
            if s == 0:
                out.pop(k, None)
            else:
                out[k] = s
        return out

    @staticmethod
    def _pdivmod(p, q):
        p = dict(p)
        out: dict[int, Fraction] = {}
        dq = max(q)
        lc = q[dq]
        while p and max(p) >= dq:
            dp = max(p)
            c = p[dp] / lc
            out[dp - dq] = c
            for k, v in q.items():
                nk = dp - dq + k
                s = p.get(nk, QQ(0)) - c * v
                if s == 0:
                    p.pop(nk, None)
                else:
                    p[nk] = s
        return out, p

    @classmethod
    def _pgcd(cls, p, q):
        p, _ = cls._shift_nonneg(p)
        q, _ = cls._shift_nonneg(q)
        while q:
            _, r = cls._pdivmod(p, q)
            p, q = q, r
            q, _ = cls._shift_nonneg(q)
        if not p:
            return {0: QQ(1)}
        lc = p[max(p)]
        return {k: v / lc for k, v in p.items()}

    def _gcd_reduce(self):
        g = self._pgcd(self.num, self.den)
        if max(g, default=0) > 0 or g.get(0) != 1:
            num_s, sn = self._shift_nonneg(self.num)
            den_s, sd = self._shift_nonneg(self.den)
            qn, rn = self._pdivmod(num_s, g)
            qd, rd = self._pdivmod(den_s, g)
            if not rn and not rd:
                self.num = {k + sn: v for k, v in qn.items()}
                self.den = {k + sd: v for k, v in qd.items()}

    # arithmetic -----------------------------------------------------------

    def __mul__(self, other: "RationalFunc1") -> "RationalFunc1":
        return RationalFunc1(self._pmul(self.num, other.num),
                             self._pmul(self.den, other.den))

    def __add__(self, other: "RationalFunc1") -> "RationalFunc1":
        num = self._padd(self._pmul(self.num, other.den),
                         self._pmul(other.num, self.den))
        return RationalFunc1(num, self._pmul(self.den, other.den))

    def __eq__(self, other):
        if not isinstance(other, RationalFunc1):
            return NotImplemented
        return self._pmul(self.num, other.den) == self._pmul(other.num, self.den)

    def __hash__(self):
        return hash((frozenset(self.num.items()), frozenset(self.den.items())))

    # series and residues ----------------------------------------------------

    def series(self, order: int) -> dict[int, Fraction]:
        """Exact expansion at 0 up to and including degree ``order``.

        Works in Laurent mode: the valuation of the denominator shifts the
        series; the lowest denominator coefficient must be invertible (it is,
        over Q, once nonzero).
        """
        num, den = dict(self.num), dict(self.den)
        vden = min(den)
        den = {k - vden: v for k, v in den.items()}
        num = {k - vden: v for k, v in num.items()}
        c0 = den[0]
        # inverse of den as a power series, to enough terms
        top = order - (min(num) if num else 0) + 1
        inv = {0: 1 / c0}
        for k in range(1, max(0, top) + 1):
            acc = QQ(0)
            for j, v in den.items():
                if 0 < j <= k:
                    acc += v * inv.get(k - j, QQ(0))
            inv[k] = -acc / c0
        out: dict[int, Fraction] = {}
        for i, a in num.items():
            for j, b in inv.items():
                if i + j <= order:
                    out[i + j] = out.get(i + j, QQ(0)) + a * b
        return {k: v for k, v in out.items() if v != 0}

    def residue_at(self, point: Fraction) -> Fraction:
        """Residue at a simple pole; raises on higher order poles."""
        point = QQ(point)

        def ev(p):
            return sum(c * point ** k for k, c in p.items())

        def dv(p):
            return sum(c * k * point ** (k - 1) for k, c in p.items() if k)

        if ev(self.den) != 0:
            raise ValueError("not a pole")
        if dv(self.den) == 0:
            raise ValueError("pole of order >= 2")
        return ev(self.num) / dv(self.den)

    def __str__(self):
        def fmt(p):
            return " + ".join(f"{c}*z^{k}" for k, c in sorted(p.items())) or "0"
        return f"({fmt(self.num)}) / ({fmt(self.den)})"


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

    def series_qt(self, order: int, q_name: str, t_name: str) -> LaurentPoly:
        """Truncated expansion inverting denominator factors as series.

        Every denominator factor must have an invertible 'constant' term
        relative to the total (q_name, t_name) valuation.
        """
        reg = self.registry
        qi, ti = reg.index(q_name), reg.index(t_name)

        def tot(e):
            return e[qi] + e[ti]

        def trunc(p: LaurentPoly) -> LaurentPoly:
            return LaurentPoly(reg, {e: c for e, c in p.terms.items()
                                     if tot(e) <= order})

        out = self.num
        for f in self.den:
            # split f = c*m0*(1 - g) with m0 the minimal-valuation monomial
            items = sorted(f.terms.items(), key=lambda ec: (tot(ec[0]), ec[0]))
            e0, c0 = items[0]
            if tot(e0) != 0 or any(tot(e) < 0 for e, _ in f.terms.items()):
                raise ValueError("factor not invertible as a (Q,T) series")
            minv = LaurentPoly(reg, {tuple(-x for x in e0): QQ(1) / c0})
            g = LaurentPoly.const(reg, 1) - f * minv
            inv = LaurentPoly.const(reg, 1)
            power = LaurentPoly.const(reg, 1)
            for _ in range(order + 1):
                power = trunc(power * g)
                if power.is_zero():
                    break
                inv = inv + power
            out = trunc(out * inv * minv)
        return trunc(out)

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
