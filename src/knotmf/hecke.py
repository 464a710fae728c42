"""Iwahori-Hecke algebra in the permutation basis and the Markov trace.

Conventions: generators g_i satisfy the braid relations and
g_i - g_i^{-1} = q - q^{-1}, equivalently g_i^2 = 1 + (q - q^{-1}) g_i.
The basis is T_w, products of generators along reduced words.  The trace is
normalized with tr(T_id) = 1 and Markov parameter z = (q - q^{-1})/(1 - a^{-2}).
It is computed with z formal: tr T_w is a polynomial in z with Z[q^+-1]
coefficients, and z is substituted once per trace.  The closure invariant
multiplies back the loop value D = (a - a^{-1})/(q - q^{-1}) per strand and
a^{-writhe}.
"""

from __future__ import annotations

from functools import lru_cache

from .braid import BraidWord, Permutation
from .ring import LaurentPoly, QQ
from .scalars import REG_QA, S_ATOM, U_ATOM, Scalar


def qpoly(terms: dict[int, QQ]) -> LaurentPoly:
    """Laurent polynomial in q alone, held in the (q, a) registry."""
    return LaurentPoly(REG_QA, {(k, 0): v for k, v in terms.items()})


Q_S = S_ATOM  # q - q^-1


class HeckeElement:
    """Finite sum of T_w with Laurent polynomial coefficients in q."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[tuple[int, ...], LaurentPoly] | None = None):
        self.n = n
        self.terms = {}
        if terms:
            for w, c in terms.items():
                if not c.is_zero():
                    self.terms[tuple(w)] = c

    @staticmethod
    def unit(n: int) -> "HeckeElement":
        return HeckeElement.basis(n, Permutation.identity(n))

    @staticmethod
    def basis(n: int, w: Permutation, coeff: LaurentPoly | None = None) -> "HeckeElement":
        c = coeff if coeff is not None else LaurentPoly.const(REG_QA, 1)
        return HeckeElement(n, {w.images: c})

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        if self.n != other.n:
            raise ValueError("strand mismatch")
        terms = dict(self.terms)
        for w, c in other.terms.items():
            s = terms.get(w, LaurentPoly.zero(REG_QA)) + c
            if s.is_zero():
                terms.pop(w, None)
            else:
                terms[w] = s
        return HeckeElement(self.n, terms)

    def __sub__(self, other):
        return self + other.scale(LaurentPoly.const(REG_QA, -1))

    def scale(self, c: LaurentPoly) -> "HeckeElement":
        return HeckeElement(self.n, {w: v * c for w, v in self.terms.items()})

    def mul_gen(self, i: int) -> "HeckeElement":
        """Right multiplication by g_i (positive generator)."""
        if not 1 <= i <= self.n - 1:
            raise ValueError("generator index out of range")
        out: dict[tuple[int, ...], LaurentPoly] = {}

        def acc(w, c):
            s = out.get(w, LaurentPoly.zero(REG_QA)) + c
            if s.is_zero():
                out.pop(w, None)
            else:
                out[w] = s

        for wim, c in self.terms.items():
            x, y = wim[i - 1], wim[i]
            acc(wim[:i - 1] + (y, x) + wim[i + 1:], c)  # w s_i
            # l(w s_i) < l(w) exactly when w(i) > w(i+1): quadratic relation
            if x > y:
                acc(wim, c * Q_S)
        return HeckeElement(self.n, out)

    def mul_gen_inv(self, i: int) -> "HeckeElement":
        """Right multiplication by g_i^{-1} = g_i - (q - q^{-1})."""
        return self.mul_gen(i) - self.scale(Q_S)

    def __mul__(self, other: "HeckeElement") -> "HeckeElement":
        if self.n != other.n:
            raise ValueError("strand mismatch")
        total = HeckeElement(self.n)
        for wim, c in other.terms.items():
            piece = self.scale(c)
            for i in Permutation(wim).reduced_word():
                piece = piece.mul_gen(i)
            total = total + piece
        return total

    def __eq__(self, other):
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms)))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for w, c in sorted(self.terms.items()):
            perm = "".join(str(v + 1) for v in w)
            parts.append(f"[{perm}]*({c})")
        return " + ".join(parts)

    __repr__ = __str__


def gen_image(i: int, n: int) -> HeckeElement:
    """Image of the braid generator sigma_i (or its inverse for i < 0)."""
    if i == 0 or abs(i) > n - 1:
        raise ValueError("generator index out of range")
    s = Permutation.transposition(n, abs(i))
    if i > 0:
        return HeckeElement.basis(n, s)
    return (HeckeElement.basis(n, s)
            + HeckeElement.unit(n).scale(-1 * Q_S))


def from_braid(b: BraidWord) -> HeckeElement:
    x = HeckeElement.unit(b.strands)
    for a in b.letters:
        x = x.mul_gen(a) if a > 0 else x.mul_gen_inv(-a)
    return x


# ---------------------------------------------------------------------------
# Ocneanu-Jones trace


def _coset_cycle(n: int, j: int) -> Permutation:
    """s_j s_{j+1} ... s_{n-1} composed left to right (word order)."""
    p = Permutation.identity(n)
    for i in range(j, n):
        p = p * Permutation.transposition(n, i)
    return p


@lru_cache(maxsize=None)
def _trace_basis(images: tuple[int, ...]) -> tuple[LaurentPoly, ...]:
    """z-expansion (P_0, ..., P_K) of tr T_w = sum_k P_k(q) z^k."""
    n = len(images)
    if n == 1:
        return (LaurentPoly.const(REG_QA, 1),)
    w = Permutation(images)
    if w.fixes(n):
        return _trace_basis(w.restrict(n - 1).images)
    j = w(n)
    c = _coset_cycle(n, j)
    v = c.inverse() * w
    if not v.fixes(n) or w.length() != (n - j) + v.length():
        raise AssertionError("coset decomposition failed")
    # T_w = (g_j ... g_{n-2}) g_{n-1} T_v, so tr T_w = z tr(g_j..g_{n-2} T_v)
    rest = HeckeElement.basis(n - 1, v.restrict(n - 1))
    prefix = HeckeElement.unit(n - 1)
    for i in range(j, n - 1):
        prefix = prefix.mul_gen(i)
    return (LaurentPoly.zero(REG_QA),) + tuple(_z_expansion(prefix * rest))


def _z_expansion(x: HeckeElement) -> list[LaurentPoly]:
    """Coefficients P_k of tr x = sum_k P_k(q) z^k, summed over the basis."""
    out: list[LaurentPoly] = []
    for w, c in x.terms.items():
        for k, p in enumerate(_trace_basis(w)):
            if k < len(out):
                out[k] = out[k] + c * p
            else:
                out.append(c * p)
    return out


def trace_ocneanu(x: HeckeElement) -> Scalar:
    """Normalized Markov trace, tr(T_id) = 1, as a reduced Scalar.

    With z = s/u the z-expansion sum_k P_k z^k of degree K is
    (sum_k P_k s^k u^(K-k)) / u^K, reduced once.
    """
    coeffs = _z_expansion(x)
    top = max(len(coeffs) - 1, 0)
    num = LaurentPoly.zero(REG_QA)
    for k, p in enumerate(coeffs):
        num = num + p * S_ATOM ** k * U_ATOM ** (top - k)
    return Scalar(num, 0, top).reduce()


# ---------------------------------------------------------------------------
# HOMFLYPT invariant of the closure


class InvariantValue:
    """Fully reduced closure invariant in Q(a, q).

    Internally a Scalar whose reduced form carries no (1 - a^-2) atom; the
    s-exponent is bounded by the closure's component count.
    """

    def __init__(self, value: Scalar):
        v = value.reduce()
        if v.u_exp != 0:
            raise AssertionError("u atom failed to cancel in an invariant")
        self.value = v

    def a_coefficients(self) -> list[dict]:
        split = self.value.num.coefficients_in("a")
        out = []
        for a_exp in sorted(split):
            coeff = Scalar(split[a_exp], self.value.s_exp).reduce()
            out.append({
                "a_exp": a_exp,
                "coeff_num": coeff.num.to_json(),
                "denom_s_exp": coeff.s_exp,
            })
        return out

    def __eq__(self, other):
        if isinstance(other, InvariantValue):
            return self.value == other.value
        if isinstance(other, Scalar):
            return self.value == other
        return NotImplemented

    def __hash__(self):
        return hash(self.value)

    def swap_inverse(self) -> "InvariantValue":
        """The invariant with (a, q) -> (a^-1, q^-1)."""
        num = self.value.num.substitute({
            "q": LaurentPoly.var(REG_QA, "q", -1),
            "a": LaurentPoly.var(REG_QA, "a", -1)})
        # s(1/q) = -s(q); u(1/a) = 1 - a^2 = -a^2 u(a)
        sign = (-1) ** self.value.s_exp
        num = num * sign
        return InvariantValue(Scalar(num, self.value.s_exp, 0))

    def __str__(self):
        return str(self.value)

    __repr__ = __str__


def homflypt(b: BraidWord) -> InvariantValue:
    """Closure invariant: D^n a^{-writhe} tr(image of b)."""
    tr = trace_ocneanu(from_braid(b))
    d = Scalar.loop_value()
    value = (d ** b.strands) * tr
    value = value.mul_monomial(a_exp=-b.writhe())
    return InvariantValue(value)


def ktheory_skein_check() -> bool:
    """Decategorified crossing relation from the rank-2 presentations.

    Delegates to the matrix factorization layer; see mf.ktheory_identity.
    """
    from . import mf
    return mf.ktheory_identity() and not mf.ktheory_identity(perturb=True)
