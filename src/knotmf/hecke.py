"""Iwahori-Hecke algebra in the permutation basis and the Markov trace.

Conventions: generators g_i satisfy the braid relations and
g_i - g_i^{-1} = q - q^{-1}, equivalently g_i^2 = 1 + (q - q^{-1}) g_i.
The basis is T_w, products of generators along reduced words.  Write
s = q - q^{-1} and u = 1 - a^{-2}.  The trace is normalized with
tr(T_id) = 1 and Markov parameter z = s/u.  It is computed with z formal:
``trace_ocneanu`` returns the z-expansion (P_0, ..., P_K) of
tr x = sum_k P_k(q) z^k, Z[q^+-1] coefficients of degree K <= n - 1 on n
strands (one z per coset step of ``_trace_basis``).  The closure invariant
multiplies back the loop value D = (a - a^{-1})/s per strand and
a^{-writhe}.

One kernel, ``_right_mul``, multiplies raw rows {permutation images:
{q exponent: int}} by g_i or g_i^{-1} in place; every product and the trace
cache go through it, and ``from_braid`` wraps ``LaurentPoly``s only once at
the end.  Since a - a^{-1} = a u, D = a u / s, so the closure value
D^n a^{-writhe} sum_k P_k z^k is a^{n - writhe} sum_k P_k s^k u^{n-k} / s^n:
K <= n - 1 keeps u out of the denominator.  ``homflypt`` builds that integer
numerator in one pass (``_closure_num``) and reduces by s only;
``Scalar`` has no u.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .braid import BraidWord, Permutation
from .ring import LaurentPoly, QQ, as_coeff
from .scalars import REG_QA, Scalar


def qpoly(terms: dict[int, QQ]) -> LaurentPoly:
    """Laurent polynomial in q alone, held in the (q, a) registry."""
    return LaurentPoly(REG_QA, {(k, 0): v for k, v in terms.items()})


class HeckeElement:
    """Finite sum of T_w with coefficients in Z[q^+-1], held in ``REG_QA``."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[tuple[int, ...], LaurentPoly] | None = None):
        self.n = n
        self.terms = {tuple(w): c for w, c in (terms or {}).items()
                      if not c.is_zero()}

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
        return self._mul_letter(i, False)

    def mul_gen_inv(self, i: int) -> "HeckeElement":
        """Right multiplication by g_i^{-1} = g_i - (q - q^{-1})."""
        return self._mul_letter(i, True)

    def _mul_letter(self, i: int, inverse: bool) -> "HeckeElement":
        if not 1 <= i <= self.n - 1:
            raise ValueError("generator index out of range")
        return _element(self.n, _right_mul(_rows(self), i, inverse))

    def __mul__(self, other: "HeckeElement") -> "HeckeElement":
        if self.n != other.n:
            raise ValueError("strand mismatch")
        total = HeckeElement(self.n)
        for wim, c in other.terms.items():
            rows = _rows(self.scale(c))
            for i in Permutation(wim).reduced_word():
                rows = _right_mul(rows, i, False)
            total = total + _element(self.n, rows)
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


# ---------------------------------------------------------------------------
# Raw rows {permutation images: {q exponent: coefficient}} and the kernel


def _rows(x: HeckeElement) -> dict:
    """Fresh raw rows of x; a coefficient holding a raises ``ValueError``."""
    rows = {}
    for w, c in x.terms.items():
        if c.registry != REG_QA or any(a for _, a in c.terms):
            raise ValueError(f"Hecke coefficient {c} is not in Z[q^+-1]")
        rows[w] = {e: v for (e, _), v in c.terms.items()}
    return rows


def _qpoly_raw(row: dict) -> LaurentPoly:
    return LaurentPoly._raw(REG_QA, {(e, 0): as_coeff(v)
                                     for e, v in row.items() if v})


def _element(n: int, rows: dict) -> HeckeElement:
    return HeckeElement(n, {w: _qpoly_raw(row) for w, row in rows.items()})


def _acc(row: dict, c: dict, shift: int, sign: int) -> None:
    """row += sign * q^shift * c in place, dropping zeros."""
    get = row.get
    for e, v in c.items():
        e += shift
        t = get(e, 0) + sign * v
        if t:
            row[e] = t
        else:
            del row[e]


def _right_mul(rows: dict, i: int, inverse: bool) -> dict:
    """rows * g_i, or rows * g_i^{-1} if ``inverse``; consumes ``rows``.

    g_i sends c T_w to c T_{w s_i}, plus c (q - q^-1) T_w on a descent
    w(i) > w(i+1); g_i^{-1} = g_i - (q - q^-1) instead subtracts
    c (q - q^-1) T_w on an ascent.  Input rows become output accumulators.
    """
    out: dict = {}
    get = out.get
    for w, c in rows.items():
        x, y = w[i - 1], w[i]
        if (x > y) is not inverse:
            row = get(w)
            if row is None:
                row = out[w] = {}
            _acc(row, c, 1, -1 if inverse else 1)
            _acc(row, c, -1, 1 if inverse else -1)
        ws = w[:i - 1] + (y, x) + w[i + 1:]
        row = get(ws)
        if row is None:
            out[ws] = c
        else:
            _acc(row, c, 0, 1)
    return {w: row for w, row in out.items() if row}


def _braid_rows(n: int, letters) -> dict:
    """Raw rows of the product of the signed generators ``letters``."""
    rows = {tuple(range(n)): {0: 1}}
    for a in letters:
        rows = _right_mul(rows, abs(a), a < 0)
    return rows


def gen_image(i: int, n: int) -> HeckeElement:
    """Image of the braid generator sigma_i (or its inverse for i < 0)."""
    return from_braid(BraidWord(n, (i,)))


def from_braid(b: BraidWord) -> HeckeElement:
    return _element(b.strands, _braid_rows(b.strands, b.letters))


# ---------------------------------------------------------------------------
# Ocneanu-Jones trace


def _coset_cycle(n: int, j: int) -> Permutation:
    """s_j s_{j+1} ... s_{n-1} composed left to right (word order)."""
    p = Permutation.identity(n)
    for i in range(j, n):
        p = p * Permutation.transposition(n, i)
    return p


@lru_cache(maxsize=None)
def _trace_basis(images: tuple[int, ...]) -> tuple[dict[int, int], ...]:
    """z-expansion (P_0, ..., P_K) of tr T_w = sum_k P_k(q) z^k, each P_k
    a raw {q exponent: int} dict that callers must not change.  Each coset
    step contributes one z, so K <= n - 1 on n strands."""
    n = len(images)
    if n == 1:
        return ({0: 1},)
    w = Permutation(images)
    if w.fixes(n):
        return _trace_basis(w.restrict(n - 1).images)
    j = w(n)
    c = _coset_cycle(n, j)
    v = c.inverse() * w
    if not v.fixes(n) or w.length() != (n - j) + v.length():
        raise AssertionError("coset decomposition failed")
    # T_w = (g_j ... g_{n-2}) g_{n-1} T_v, so tr T_w = z tr(g_j..g_{n-2} T_v)
    word = tuple(range(j, n - 1)) + v.restrict(n - 1).reduced_word()
    rest = _z_expansion(_braid_rows(n - 1, word), n - 1)
    return ({},) + tuple({e: t for e, t in p.items() if t} for p in rest)


def _z_expansion(rows: dict, n: int) -> list[dict[int, int]]:
    """Raw P_k of tr x = sum_k P_k(q) z^k, summed over the basis of the
    n-strand rows; entries may be zero.  Raises ``AssertionError`` past
    n coefficients, the bound the u-free closure relies on."""
    out: list[dict] = []
    for w, c in rows.items():
        for k, p in enumerate(_trace_basis(w)):
            if k == len(out):
                out.append({})
            acc = out[k]
            get = acc.get
            for e1, c1 in c.items():
                for e2, c2 in p.items():
                    e = e1 + e2
                    acc[e] = get(e, 0) + c1 * c2
    if len(out) > n:
        raise AssertionError(f"z-expansion of degree {len(out) - 1} "
                             f"on {n} strands")
    return out


@lru_cache(maxsize=None)
def _binomial_row(k: int) -> tuple[int, ...]:
    """(-1)^j C(k, j) for j = 0..k: s^k = sum_j row[j] q^(k-2j) and
    u^k = sum_j row[j] a^(-2j)."""
    return tuple((-1) ** j * comb(k, j) for j in range(k + 1))


def _closure_num(coeffs: list[dict[int, int]], m: int,
                 shift: int) -> LaurentPoly:
    """sum_k P_k s^k u^(m-k) a^shift as one (q, a) polynomial, for raw
    z-expansion rows P_k with k <= m; all arithmetic on ints."""
    out: dict = {}
    get = out.get
    for k, p in enumerate(coeffs):
        ps: dict = {}  # P_k s^k
        ps_get = ps.get
        for j, b in enumerate(_binomial_row(k)):
            d = k - 2 * j
            for e, c in p.items():
                e += d
                ps[e] = ps_get(e, 0) + b * c
        for j, b in enumerate(_binomial_row(m - k)):
            a = shift - 2 * j
            for e, c in ps.items():
                t = (e, a)
                out[t] = get(t, 0) + b * c
    return LaurentPoly._raw(REG_QA, {t: c for t, c in out.items() if c})


def trace_ocneanu(x: HeckeElement) -> tuple[LaurentPoly, ...]:
    """Normalized Markov trace, tr(T_id) = 1, as its z-expansion.

    Returns (P_0, ..., P_K) with tr x = sum_k P_k(q) z^k, each P_k a
    q-polynomial in ``REG_QA``; trailing zeros are trimmed, so equal traces
    give equal tuples and the trace of 0 is ().
    """
    coeffs = [_qpoly_raw(p) for p in _z_expansion(_rows(x), x.n)]
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# HOMFLYPT invariant of the closure


class InvariantValue:
    """Fully reduced closure invariant in Q(a, q).

    Internally a reduced Scalar num / s^c; for the closure of a braid, c is
    its component count.
    """

    def __init__(self, value: Scalar):
        self.value = value.reduce()

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
        # s(1/q) = -s(q)
        sign = (-1) ** self.value.s_exp
        num = num * sign
        return InvariantValue(Scalar(num, self.value.s_exp))

    def __str__(self):
        return str(self.value)

    __repr__ = __str__


def homflypt(b: BraidWord) -> InvariantValue:
    """Closure invariant: D^n a^{-writhe} tr(image of b), reduced once.

    D = (a - a^-1)/s = a u/s and z = s/u, and the z-expansion has degree
    K <= n - 1, so the value is a^(n - writhe) sum_k P_k s^k u^(n-k) / s^n
    with no u denominator: one integer numerator, reduced by s only.
    """
    n = b.strands
    coeffs = _z_expansion(_braid_rows(n, b.letters), n)
    return InvariantValue(Scalar(_closure_num(coeffs, n, n - b.writhe()), n))

