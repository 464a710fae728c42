"""Exact multivariate Laurent polynomial arithmetic over Q.

Everything downstream (Hecke traces, Koszul rows, residue sums) is built on
the two classes here: a variable registry carrying grading data, and a sparse
Laurent polynomial with exact rational coefficients: an integral coefficient
is a Python ``int``, any other a ``Fraction``.  No floats anywhere.

A polynomial keys its terms by one int per exponent vector: the registry
packs e as sum_i e_i * 2^(16 (n-1-i)), balanced base-2^16 digits with
variable 0 most significant.  Adding keys adds exponent vectors, and while
every |e_i| < 2^15 (the key width) int order is the lex order of the
vectors.  Every polynomial carries ``span``, an upper bound on its |e_i|;
an operation whose bound reaches the width takes exact exponent extremes
and raises ``ResourceLimit`` if an exponent would leave it, so a key never
wraps.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Mapping, Sequence

QQ = Fraction

KEY_BITS = 16  # VarRegistry.unpack reads digits as 16-bit struct fields
KEY_HALF = 1 << (KEY_BITS - 1)
KEY_MASK = (1 << KEY_BITS) - 1


class ResourceLimit(RuntimeError):
    """A computation refused because its input exceeds a size cap or bound."""


def checked_span(span: int) -> int:
    """``span`` if exponents up to that size fit the key width, else raise."""
    if span >= KEY_HALF:
        raise ResourceLimit(f"exponent of size {span} is outside the key "
                            f"width |e| < 2^{KEY_BITS - 1}")
    return span


def as_coeff(c):
    """Canonical coefficient: ``int`` when integral, else ``Fraction``."""
    t = type(c)
    if t is int:
        return c
    if t is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def coeff_div(a, b):
    """Exact quotient a / b of two coefficients, canonical as ``as_coeff``."""
    if type(a) is int and type(b) is int:
        quo, rem = divmod(a, b)
        if not rem:
            return quo
    return as_coeff(Fraction(a, b))

# A character weight is one integer vector per torus slot (e.g. left/right
# Borel factors for n=2).  Stored as nested tuples so registries are hashable.
CharWeight = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class VarRegistry:
    """Ordered list of variables with (q, t, character) grading weights.

    ``char_lines`` lists character directions that act trivially on the chart
    (e.g. the weight of det(g) on a det=1 chart); weights of polynomials are
    only well-defined modulo these lines and ``weight_of`` canonicalizes
    accordingly.  The registry also packs exponent vectors into keys.
    """

    names: tuple[str, ...]
    q_weights: tuple[int, ...]
    t_weights: tuple[int, ...]
    char_weights: tuple[CharWeight, ...]
    char_lines: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        if not (len(self.names) == len(self.q_weights) == len(self.t_weights)
                == len(self.char_weights)):
            raise ValueError("weight lists must match variable list")
        # digit i of a key sits at bit shifts[i]; adding offset makes every
        # balanced digit e_i + 2^15 nonnegative, so a digit is a shift and
        # a mask.  Flipping each digit's top bit then leaves e_i as a
        # 16-bit two's complement field, which struct reads in one call.
        n = len(self.names)
        shifts = tuple(KEY_BITS * i for i in reversed(range(n)))
        object.__setattr__(self, "shifts", shifts)
        object.__setattr__(self, "offset", sum(KEY_HALF << s for s in shifts))
        object.__setattr__(self, "_fields", struct.Struct(f">{n}h").unpack)

    def __reduce__(self):
        # rebuild through __init__: the key helpers are derived, and a
        # Struct method does not pickle
        return VarRegistry, (self.names, self.q_weights, self.t_weights,
                             self.char_weights, self.char_lines)

    @staticmethod
    def make(specs: Sequence[tuple], char_slots: int = 0,
             char_lines: Sequence[Sequence[int]] = ()) -> "VarRegistry":
        """Build a registry from (name, q, t[, char]) tuples.

        ``char`` is a tuple of per-slot integer vectors; omitted entries get
        zero character weight.
        """
        names, qs, ts, chars = [], [], [], []
        for spec in specs:
            name, qw, tw = spec[0], spec[1], spec[2]
            if len(spec) > 3:
                ch = tuple(tuple(v) for v in spec[3])
            else:
                ch = tuple((0, 0) for _ in range(char_slots))
            names.append(name)
            qs.append(qw)
            ts.append(tw)
            chars.append(ch)
        return VarRegistry(tuple(names), tuple(qs), tuple(ts), tuple(chars),
                           tuple(tuple(l) for l in char_lines))

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None

    @property
    def nvars(self) -> int:
        return len(self.names)

    def char_flat(self, i: int) -> tuple[int, ...]:
        return tuple(v for slot in self.char_weights[i] for v in slot)

    # -- exponent keys --------------------------------------------------

    def pack(self, e: Sequence[int]) -> int:
        """Key of an exponent vector; raises past the key width."""
        if len(e) != len(self.names):
            raise ValueError(f"exponent vector {tuple(e)} does not match "
                             f"{len(self.names)} variables")
        key = 0
        for x in e:
            if not -KEY_HALF < x < KEY_HALF:
                checked_span(abs(x))
            key = (key << KEY_BITS) + x
        return key

    def unpack(self, key: int) -> tuple[int, ...]:
        """Exponent vector of a key."""
        flipped = (key + self.offset) ^ self.offset
        return self._fields(flipped.to_bytes(2 * len(self.shifts), "big"))

    def digit(self, key: int, i: int) -> int:
        """Exponent of variable i in a key."""
        return (((key + self.offset) >> self.shifts[i]) & KEY_MASK) - KEY_HALF

    def unit(self, i: int) -> int:
        """Key of variable i to the first power."""
        return 1 << self.shifts[i]


def _extremes(reg: VarRegistry, terms) -> list[tuple[int, int]]:
    """Per-variable (min, max) exponent over the keys of a nonempty dict."""
    return [(min(col), max(col)) for col in zip(*map(reg.unpack, terms))]


def _exact_span(reg: VarRegistry, terms) -> int:
    return max((max(-lo, hi) for lo, hi in _extremes(reg, terms)), default=0)


def _times(reg: VarRegistry, t1: dict, s1: int, t2: dict, s2: int):
    """(product terms, span) of two term dicts with spans s1, s2.

    Past the width the exact extremes decide: in each variable they add
    under a product, since the product of the extreme parts is nonzero.
    """
    span = s1 + s2
    if span >= KEY_HALF:
        span = checked_span(max((
            max(-lo1 - lo2, hi1 + hi2) for (lo1, hi1), (lo2, hi2)
            in zip(_extremes(reg, t1), _extremes(reg, t2))), default=0))
    terms: dict = {}
    get = terms.get
    for e1, c1 in t1.items():
        for e2, c2 in t2.items():
            e = e1 + e2
            terms[e] = get(e, 0) + c1 * c2
    return {e: c if type(c) is int else as_coeff(c)
            for e, c in terms.items() if c}, span


class LaurentPoly:
    """Sparse Laurent polynomial: exponent key -> nonzero coefficient.

    ``terms`` is keyed by the registry's packed keys (see the module
    docstring); ``decoded`` gives the exponent tuples.  Every coefficient
    is canonical (see ``as_coeff``): operations that make a coefficient
    keep integral ones as ``int``, so an integer-only computation never
    builds a ``Fraction``.
    """

    __slots__ = ("registry", "terms", "span")

    def __init__(self, registry: VarRegistry,
                 terms: Mapping[tuple[int, ...], Fraction] | None = None):
        self.registry = registry
        cleaned = {}
        span = 0
        if terms:
            pack = registry.pack
            for e, c in terms.items():
                c = as_coeff(c)
                if c:
                    cleaned[pack(e)] = c
                    span = max(span, max(map(abs, e), default=0))
        self.terms = cleaned
        self.span = span

    @staticmethod
    def _raw(registry: VarRegistry, terms: dict, span: int) -> "LaurentPoly":
        """Internal constructor: canonical keyed terms, span < key width."""
        p = LaurentPoly.__new__(LaurentPoly)
        p.registry = registry
        p.terms = terms
        p.span = span
        return p

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(reg: VarRegistry) -> "LaurentPoly":
        return LaurentPoly._raw(reg, {}, 0)

    @staticmethod
    def const(reg: VarRegistry, c) -> "LaurentPoly":
        c = as_coeff(c)
        return LaurentPoly._raw(reg, {0: c} if c else {}, 0)

    @staticmethod
    def var(reg: VarRegistry, name: str, power: int = 1) -> "LaurentPoly":
        return LaurentPoly._raw(reg, {power * reg.unit(reg.index(name)): 1},
                                checked_span(abs(power)))

    @staticmethod
    def monomial(reg: VarRegistry, exps: Mapping[str, int], coeff=1) -> "LaurentPoly":
        e = [0] * reg.nvars
        for name, p in exps.items():
            e[reg.index(name)] = p
        return LaurentPoly(reg, {tuple(e): coeff})

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not any(self.terms)  # the zero vector's key is 0

    def constant_value(self) -> Fraction:
        for e in self.terms:
            if e:
                raise ValueError("not a constant")
        return self.terms.get(0, 0)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def monomial_parts(self) -> tuple[tuple[int, ...], Fraction]:
        if len(self.terms) != 1:
            raise ValueError("not a monomial")
        ((e, c),) = self.terms.items()
        return self.registry.unpack(e), c

    def decoded(self) -> dict[tuple[int, ...], Fraction]:
        """The terms keyed by exponent tuples, in term order."""
        unpack = self.registry.unpack
        return {unpack(e): c for e, c in self.terms.items()}

    def variables(self) -> set[str]:
        used = set()
        for e in self.decoded():
            for i, p in enumerate(e):
                if p:
                    used.add(self.registry.names[i])
        return used

    def coefficients_in(self, name: str) -> dict[int, "LaurentPoly"]:
        """Split into coefficient polynomials of powers of one variable."""
        reg = self.registry
        i = reg.index(name)
        unit = reg.unit(i)
        out: dict[int, dict] = {}
        for e, c in self.terms.items():
            k = reg.digit(e, i)
            out.setdefault(k, {})[e - k * unit] = c
        return {k: LaurentPoly._raw(reg, d, self.span) for k, d in out.items()}

    # -- arithmetic ---------------------------------------------------

    def _check(self, other: "LaurentPoly"):
        if self.registry is not other.registry and \
                self.registry != other.registry:
            raise ValueError("registry mismatch")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(self.registry, other)
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e)
            if s is None:
                terms[e] = c
            else:
                s += c
                if s:
                    terms[e] = s if type(s) is int else as_coeff(s)
                else:
                    del terms[e]
        return LaurentPoly._raw(self.registry, terms,
                                max(self.span, other.span))

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._raw(self.registry,
                                {e: -c for e, c in self.terms.items()},
                                self.span)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(self.registry, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = as_coeff(other)
            if c == 0:
                return LaurentPoly.zero(self.registry)
            return LaurentPoly._raw(self.registry, {
                e: as_coeff(c * v) for e, v in self.terms.items()}, self.span)
        self._check(other)
        terms, span = _times(self.registry, self.terms, self.span,
                             other.terms, other.span)
        return LaurentPoly._raw(self.registry, terms, span)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            if not self.is_monomial():
                raise ValueError("not a monomial")
            ((e, c),) = self.terms.items()
            inv = LaurentPoly._raw(self.registry, {-e: coeff_div(1, c)},
                                   self.span)
            return inv ** (-n)
        result = LaurentPoly.const(self.registry, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:  # no square past the top bit: it could leave the width
                base = base * base
        return result

    def __eq__(self, other):
        if type(other) is not LaurentPoly:  # skips Fraction's ABC check
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = LaurentPoly.const(self.registry, other)
        return self.terms == other.terms and (
            self.registry is other.registry or self.registry == other.registry)

    def __hash__(self):
        # constants compare equal to their Fraction value, so hash as it
        if len(self.terms) <= 1 and self.is_constant():
            return hash(self.constant_value())
        return hash(frozenset(self.terms.items()))

    # -- division and substitution ------------------------------------

    def exact_div(self, divisor: "LaurentPoly") -> "LaurentPoly | None":
        """Exact quotient self/divisor, or None if it does not divide.

        A monomial divisor is a unit.  A binomial divisor is written
        c*x^e*(1 - r*x^g) with x^e its lex-smaller term, so g is
        lex-positive.  The dividend's exponents fall into chains f0 + k*g,
        and along each chain the running sum acc <- r*acc + p_k is c times
        the quotient's coefficient at x^(f0 + k*g - e).  The division is
        exact iff every chain's sum ends at 0 at its top exponent: linear in
        the dividend and the quotient, with no budget and no guess.  The
        trace atom s = q - q^-1 and every localization denominator 1 - m
        are binomials.

        Other divisors go through lead-term reduction in lex order.  If the
        division is exact, exponent ranges add under the product, so every
        quotient exponent lies in the box [min_n - min_d, max_n - max_d] in
        each variable; the first lead quotient exponent outside it proves
        "does not divide".  The lead quotient exponents strictly decrease in
        lex order inside that finite box, so the box also bounds the loop.
        """
        self._check(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero(self.registry)
        if divisor.is_monomial():
            ((e0, c0),) = divisor.terms.items()
            span = self.span + divisor.span
            if span >= KEY_HALF:
                span = checked_span(max(
                    max(d - lo, hi - d) for (lo, hi), d in zip(
                        _extremes(self.registry, self.terms),
                        self.registry.unpack(e0))))
            return LaurentPoly._raw(self.registry, {
                e - e0: coeff_div(c, c0) for e, c in self.terms.items()}, span)
        if len(divisor.terms) == 2:
            return self._div_binomial(divisor)
        return self._div_lex(divisor)

    def _division_span(self, divisor: "LaurentPoly", gmax: int = 0) -> int:
        """Quotient span of an exact division, once its keys are known to
        fit the width: quotient and remainder exponents are at most
        span_n + span_d in size, binomial chain labels f - k*g at most
        span_n * (1 + gmax) with gmax the largest |g_i|."""
        sn, sd = self.span, divisor.span
        if sn * (1 + gmax) + sd >= KEY_HALF:
            reg = self.registry
            sn = _exact_span(reg, self.terms)
            sd = _exact_span(reg, divisor.terms)
            checked_span(sn * (1 + gmax) + sd)
        return sn + sd

    def _div_lex(self, divisor: "LaurentPoly") -> "LaurentPoly | None":
        """``exact_div`` by lead-term reduction, for any non-monomial divisor."""
        reg = self.registry
        span = self._division_span(divisor)
        box = []
        for (lo_n, hi_n), (lo_d, hi_d) in zip(_extremes(reg, self.terms),
                                              _extremes(reg, divisor.terms)):
            lo, hi = lo_n - lo_d, hi_n - hi_d
            if lo > hi:
                return None
            box.append((lo, hi))

        le = max(divisor.terms)  # lex leads are multiplicative
        lc = divisor.terms[le]
        rest = [(e, c) for e, c in divisor.terms.items() if e != le]
        remainder = dict(self.terms)
        q_terms: dict[int, Fraction] = {}
        unpack = reg.unpack
        while remainder:
            re = max(remainder)
            qe = re - le
            if any(not lo <= x <= hi for x, (lo, hi) in zip(unpack(qe), box)):
                return None
            qc = coeff_div(remainder.pop(re), lc)
            q_terms[qe] = qc
            for e, c in rest:
                k = qe + e
                s = remainder.get(k)
                s = -qc * c if s is None else s - qc * c
                if s == 0:
                    remainder.pop(k, None)
                else:
                    remainder[k] = s
        return LaurentPoly._raw(reg, q_terms, span)

    def _div_binomial(self, divisor: "LaurentPoly") -> "LaurentPoly | None":
        """``exact_div`` by a two-term divisor: chain running sums."""
        reg = self.registry
        (e, c), (eg, cg) = sorted(divisor.terms.items())
        g = [b - a for a, b in zip(reg.unpack(e), reg.unpack(eg))]
        span = self._division_span(divisor, max(map(abs, g)))
        j = 0
        while not g[j]:
            j += 1
        gj, shift, offset = g[j], reg.shifts[j], reg.offset
        gk = eg - e  # the key of g
        r = coeff_div(-cg, c)
        # chains keyed by their exponent at k = 0, with k from digit j
        chains: dict[int, list] = {}
        for f, p in self.terms.items():
            k = ((((f + offset) >> shift) & KEY_MASK) - KEY_HALF) // gj
            chains.setdefault(f - k * gk, []).append((k, f, p))
        acc_terms: dict[int, Fraction] = {}  # c * quotient
        for chain in chains.values():
            if len(chain) == 1:  # a lone term cannot cancel
                return None
            chain.sort()
            acc = prev = 0
            for k, f, p in chain:
                if acc:  # a nonzero acc runs on through the gap since prev
                    for _ in range(prev + 1, k):
                        acc = r * acc
                        x += gk
                        acc_terms[x] = acc
                acc = r * acc + p
                if acc:
                    x = f - e
                    acc_terms[x] = acc
                prev = k
            if acc:
                return None
        c_inv = coeff_div(1, c)
        return LaurentPoly._raw(reg, {
            x: as_coeff(a * c_inv) for x, a in acc_terms.items()}, span)

    def substitute(self, images: Mapping[str, "LaurentPoly"],
                   target: VarRegistry | None = None) -> "LaurentPoly":
        """Ring-homomorphism image; unspecified variables map to themselves.

        One pass over the terms: a kept variable moves its digit to its
        place in the target registry, a mapped one multiplies the term by a
        power of its image, computed once per call.  A variable occurring
        with negative exponent must have a monomial image (so the inverse
        exists).
        """
        src = self.registry
        reg = target if target is not None else src
        imgs: dict[int, LaurentPoly] = {}
        for name, p in images.items():
            i = src.index(name)
            if not isinstance(p, LaurentPoly):
                p = LaurentPoly.const(reg, p)
            if p.registry != reg:
                raise ValueError("image registry mismatch")
            imgs[i] = p
        # (variable, image or None, key change per unit exponent); a kept
        # variable missing from the target has change None
        moves = []
        for i, name in enumerate(src.names):
            img = imgs.get(i)
            if img is not None:
                moves.append((i, img, -src.unit(i)))
            elif reg is not src:
                delta = (reg.unit(reg.index(name)) - src.unit(i)
                         if name in reg.names else None)
                if delta != 0:
                    moves.append((i, None, delta))
        offset, shifts = src.offset, src.shifts
        powers: dict[tuple[int, int], LaurentPoly] = {}
        out: dict = {}
        get = out.get
        span = 0
        for key, c in self.terms.items():
            u = key + offset
            part, part_span = {0: c}, 0
            for i, img, delta in moves:
                p = ((u >> shifts[i]) & KEY_MASK) - KEY_HALF
                if not p:
                    continue
                if delta is None:
                    reg.index(src.names[i])  # raises KeyError
                key += p * delta
                if img is None:
                    continue
                pw = powers.get((i, p))
                if pw is None:
                    if p < 0 and not img.is_monomial():
                        raise ValueError(
                            f"non-invertible image for Laurent variable "
                            f"{src.names[i]!r}")
                    pw = powers[i, p] = img ** p
                part, part_span = _times(reg, part, part_span,
                                         pw.terms, pw.span)
            # key now holds the kept exponents, each at most self.span
            s = self.span + part_span
            if s >= KEY_HALF:
                s = _times(reg, {key: 1}, self.span, part, part_span)[1]
            span = max(span, s)
            for f, d in part.items():
                x = key + f
                t = get(x)
                if t is None:
                    out[x] = d
                else:
                    t += d
                    if t:
                        out[x] = t if type(t) is int else as_coeff(t)
                    else:
                        del out[x]
        return LaurentPoly._raw(reg, out, span)

    def evaluate(self, values: Mapping[str, Fraction]) -> "LaurentPoly":
        return self.substitute({k: LaurentPoly.const(self.registry, v)
                                for k, v in values.items()})

    # -- grading -------------------------------------------------------

    def weight_of(self) -> tuple[int, int, tuple[int, ...] | None] | None:
        """Common (q, t, char) weight of all monomials, or None.

        The character is the flat vector of ``VarRegistry.char_flat``
        weights, reduced modulo the registry's trivial lines; it is None on
        a registry without characters.  The zero polynomial has the trivial
        weight.
        """
        reg = self.registry
        width = len(reg.char_flat(0)) if reg.char_weights else 0
        seen = None
        for key in self.terms or (0,):
            e = reg.unpack(key)
            ch = None
            if width:
                acc = [0] * width
                for i, p in enumerate(e):
                    if p:
                        acc = [a + p * c
                               for a, c in zip(acc, reg.char_flat(i))]
                ch = _canonical_char(acc, reg.char_lines)
            w = (sum(map(mul, e, reg.q_weights)),
                 sum(map(mul, e, reg.t_weights)), ch)
            if seen is None:
                seen = w
            elif seen != w:
                return None
        return seen

    # -- output ---------------------------------------------------------

    def sorted_terms(self):
        """(exponent tuple, coefficient) pairs in lex order."""
        unpack = self.registry.unpack
        return [(unpack(e), c) for e, c in sorted(self.terms.items())]

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = []
            for name, p in zip(self.registry.names, e):
                if p == 1:
                    factors.append(name)
                elif p != 0:
                    factors.append(f"{name}^{p}")
            mono = "*".join(factors)
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        out = " + ".join(parts).replace("+ -", "- ")
        return out

    __repr__ = __str__

    def to_json(self) -> list[dict]:
        out = []
        for e, c in self.sorted_terms():
            exps = {n: p for n, p in zip(self.registry.names, e) if p}
            out.append({"exponents": exps,
                        "coeff": f"{c.numerator}/{c.denominator}"})
        return out

    @staticmethod
    def from_json(reg: VarRegistry, data: Iterable[dict]) -> "LaurentPoly":
        p = LaurentPoly(reg)
        for item in data:
            num, den = item["coeff"].split("/")
            p = p + LaurentPoly.monomial(reg, item["exponents"],
                                         QQ(int(num), int(den)))
        return p


def _canonical_char(flat: list[int],
                    lines: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Reduce a flat character vector modulo multiples of trivial lines.

    Greedy elimination: for each line pick its first nonzero coordinate and
    cancel that coordinate of the vector exactly when divisible.  The lines
    used in this package are det-weight lines with leading entry +-1, so
    the representative is unique.
    """
    for line in lines:
        pivot = next((i for i, v in enumerate(line) if v != 0), None)
        if pivot is None:
            continue
        k, rem = divmod(flat[pivot], line[pivot])
        if rem == 0 and k != 0:
            flat = [a - k * b for a, b in zip(flat, line)]
    return tuple(flat)


class QuotientReducer:
    """Normal form modulo relations lead -> rest with monomial leads.

    Each relation is (lead_monomial_exponents, rest_poly) meaning
    lead = rest in the quotient ring.  The leads use pairwise disjoint
    variables and no rest contains a lead variable, so one pass per rule
    is final: it rewrites each term x^e to x^(e - k*lead) * rest^k with
    k = min e_i // lead_i over the lead's variables, which leaves no term
    divisible by that lead, and no later pass brings a lead back.  The
    det = 1 charts used here satisfy both conditions; the constructor
    checks them.
    """

    def __init__(self, registry: VarRegistry,
                 relations: Sequence[tuple[Mapping[str, int], LaurentPoly]]):
        self.registry = registry
        self.rules = []
        lead_vars: set[int] = set()
        for lead, rest in relations:
            e = [0] * registry.nvars
            for name, p in lead.items():
                if p <= 0:
                    raise ValueError("lead exponents must be positive")
                e[registry.index(name)] = p
            vs = {i for i, p in enumerate(e) if p}
            if not vs:
                raise ValueError("a lead must contain a variable")
            if vs & lead_vars:
                raise ValueError("relation leads must use disjoint variables")
            lead_vars |= vs
            if rest.registry != registry:
                raise ValueError("registry mismatch")
            self.rules.append((tuple(e), rest))
        for _, rest in self.rules:
            if any(f[i] for f in rest.decoded() for i in lead_vars):
                raise ValueError("a relation rest contains a lead variable")
        # per rule: the lead's key and its (digit shift, exponent) pairs
        self._leads = [(registry.pack(lead),
                        [(registry.shifts[i], x) for i, x in enumerate(lead)
                         if x]) for lead, _ in self.rules]

    @staticmethod
    def det_one(registry: VarRegistry, *prefixes: str) -> "QuotientReducer":
        """The SL2 chart rules g11*g22 -> g12*g21 + 1, one per prefix g
        (default a).  A triangular chart has no g21 and the rule g11*g22 -> 1.
        """
        def rule(g):
            rest = LaurentPoly.const(registry, 1)
            if f"{g}21" in registry.names:
                rest = (LaurentPoly.var(registry, f"{g}12")
                        * LaurentPoly.var(registry, f"{g}21") + rest)
            return {f"{g}11": 1, f"{g}22": 1}, rest

        return QuotientReducer(registry, [rule(g) for g in prefixes or ("a",)])

    def normal_form(self, p: LaurentPoly) -> LaurentPoly:
        reg = self.registry
        if p.registry != reg:
            raise ValueError("registry mismatch")
        offset = reg.offset
        terms, span = p.terms, p.span
        for (lead_key, digits), (_, rest) in zip(self._leads, self.rules):
            hits = [(e, k) for e in terms if (k := min([
                ((((e + offset) >> s) & KEY_MASK) - KEY_HALF) // x
                for s, x in digits])) >= 1]
            if not hits:
                continue
            terms = dict(terms)
            powers: dict[int, LaurentPoly] = {}
            get = terms.get
            top = span
            for e, k in hits:
                # the new terms keep base's lead exponents, so none is a hit
                c = terms.pop(e)
                r = powers.get(k)
                if r is None:
                    r = powers[k] = rest ** k
                base = e - k * lead_key  # no exponent grows: span bounds it
                bound = span + r.span
                if bound >= KEY_HALF:
                    bound = _times(reg, {base: 1}, span, r.terms, r.span)[1]
                top = max(top, bound)
                for f, d in r.terms.items():
                    x = base + f
                    s = get(x, 0) + c * d
                    if s:
                        terms[x] = s if type(s) is int else as_coeff(s)
                    else:
                        del terms[x]
            span = top
        if terms is p.terms:
            return p
        return LaurentPoly._raw(reg, terms, span)
