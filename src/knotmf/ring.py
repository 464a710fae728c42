"""Exact multivariate Laurent polynomial arithmetic over Q.

Everything downstream (Hecke traces, Koszul rows, residue sums) is built on
the two classes here: a variable registry carrying grading data, and a sparse
Laurent polynomial with exact rational coefficients: an integral coefficient
is a Python ``int``, any other a ``Fraction``.  No floats anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul, sub
from typing import Iterable, Mapping, Sequence

QQ = Fraction


class ResourceLimit(RuntimeError):
    """A computation refused because its input exceeds a size cap or bound."""


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
    accordingly.
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


class LaurentPoly:
    """Sparse Laurent polynomial: exponent vector -> nonzero coefficient.

    Every coefficient is canonical (see ``as_coeff``): operations that make a
    coefficient keep integral ones as ``int``, so an integer-only
    computation never builds a ``Fraction``.
    """

    __slots__ = ("registry", "terms")

    def __init__(self, registry: VarRegistry,
                 terms: Mapping[tuple[int, ...], Fraction] | None = None):
        self.registry = registry
        cleaned = {}
        if terms:
            for e, c in terms.items():
                c = as_coeff(c)
                if c:
                    cleaned[tuple(e)] = c
        self.terms = cleaned

    @staticmethod
    def _raw(registry: VarRegistry, terms: dict) -> "LaurentPoly":
        """Internal constructor: terms are already clean canonical dicts."""
        p = LaurentPoly.__new__(LaurentPoly)
        p.registry = registry
        p.terms = terms
        return p

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(reg: VarRegistry) -> "LaurentPoly":
        return LaurentPoly(reg)

    @staticmethod
    def const(reg: VarRegistry, c) -> "LaurentPoly":
        c = as_coeff(c)
        if c == 0:
            return LaurentPoly(reg)
        return LaurentPoly(reg, {(0,) * reg.nvars: c})

    @staticmethod
    def var(reg: VarRegistry, name: str, power: int = 1) -> "LaurentPoly":
        e = [0] * reg.nvars
        e[reg.index(name)] = power
        return LaurentPoly(reg, {tuple(e): 1})

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
        z = (0,) * self.registry.nvars
        return all(e == z for e in self.terms)

    def constant_value(self) -> Fraction:
        z = (0,) * self.registry.nvars
        for e, c in self.terms.items():
            if e != z:
                raise ValueError("not a constant")
        return self.terms.get(z, 0)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def monomial_parts(self) -> tuple[tuple[int, ...], Fraction]:
        if len(self.terms) != 1:
            raise ValueError("not a monomial")
        ((e, c),) = self.terms.items()
        return e, c

    def variables(self) -> set[str]:
        used = set()
        for e in self.terms:
            for i, p in enumerate(e):
                if p:
                    used.add(self.registry.names[i])
        return used

    def coefficients_in(self, name: str) -> dict[int, "LaurentPoly"]:
        """Split into coefficient polynomials of powers of one variable."""
        i = self.registry.index(name)
        out: dict[int, dict] = {}
        for e, c in self.terms.items():
            k = e[i]
            rest = list(e)
            rest[i] = 0
            out.setdefault(k, {})[tuple(rest)] = c
        return {k: LaurentPoly(self.registry, d) for k, d in out.items()}

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
        return LaurentPoly._raw(self.registry, terms)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._raw(self.registry,
                                {e: -c for e, c in self.terms.items()})

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
                return LaurentPoly(self.registry)
            return LaurentPoly._raw(self.registry, {
                e: as_coeff(c * v) for e, v in self.terms.items()})
        self._check(other)
        terms: dict = {}
        get = terms.get
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                terms[e] = get(e, 0) + c1 * c2
        return LaurentPoly._raw(self.registry, {
            e: c if type(c) is int else as_coeff(c)
            for e, c in terms.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            e, c = self.monomial_parts()
            inv = LaurentPoly._raw(self.registry,
                                   {tuple(-x for x in e): coeff_div(1, c)})
            return inv ** (-n)
        result = LaurentPoly.const(self.registry, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(self.registry, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.registry == other.registry and self.terms == other.terms

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
        trace atoms s = q - q^-1, u = 1 - a^-2 and every localization
        denominator 1 - m are binomials.

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
            return LaurentPoly(self.registry)
        if divisor.is_monomial():
            e0, c0 = divisor.monomial_parts()
            return LaurentPoly._raw(self.registry, {
                tuple(a - b for a, b in zip(e, e0)): coeff_div(c, c0)
                for e, c in self.terms.items()})
        if len(divisor.terms) == 2:
            return self._div_binomial(divisor)
        return self._div_lex(divisor)

    def _div_lex(self, divisor: "LaurentPoly") -> "LaurentPoly | None":
        """``exact_div`` by lead-term reduction, for any non-monomial divisor."""
        box = []
        for i in range(self.registry.nvars):
            exps_n = [e[i] for e in self.terms]
            exps_d = [e[i] for e in divisor.terms]
            lo, hi = min(exps_n) - min(exps_d), max(exps_n) - max(exps_d)
            if lo > hi:
                return None
            box.append((lo, hi))

        le = max(divisor.terms)  # lex leads are multiplicative
        lc = divisor.terms[le]
        rest = [(e, c) for e, c in divisor.terms.items() if e != le]
        remainder = dict(self.terms)
        q_terms: dict[tuple[int, ...], Fraction] = {}
        while remainder:
            re = max(remainder)
            qe = tuple(a - b for a, b in zip(re, le))
            if any(not lo <= x <= hi for x, (lo, hi) in zip(qe, box)):
                return None
            qc = coeff_div(remainder.pop(re), lc)
            q_terms[qe] = qc
            for e, c in rest:
                k = tuple(a + b for a, b in zip(qe, e))
                s = remainder.get(k)
                s = -qc * c if s is None else s - qc * c
                if s == 0:
                    remainder.pop(k, None)
                else:
                    remainder[k] = s
        return LaurentPoly._raw(self.registry, q_terms)

    def _div_binomial(self, divisor: "LaurentPoly") -> "LaurentPoly | None":
        """``exact_div`` by a two-term divisor: chain running sums."""
        (e, c), (eg, cg) = sorted(divisor.terms.items())
        g = tuple(map(sub, eg, e))
        j = 0
        while not g[j]:
            j += 1
        gj = g[j]
        r = coeff_div(-cg, c)
        # chains keyed by their exponent at k = 0; kgs caches k -> k*g
        chains: dict[tuple[int, ...], list] = {}
        kgs: dict[int, tuple[int, ...]] = {}
        for f, p in self.terms.items():
            k = f[j] // gj
            kg = kgs.get(k)
            if kg is None:
                kg = kgs[k] = tuple([k * x for x in g])
            chains.setdefault(tuple(map(sub, f, kg)), []).append((k, f, p))
        acc_terms: dict[tuple[int, ...], Fraction] = {}  # c * quotient
        for chain in chains.values():
            if len(chain) == 1:  # a lone term cannot cancel
                return None
            chain.sort()
            acc = prev = 0
            for k, f, p in chain:
                if acc:  # a nonzero acc runs on through the gap since prev
                    for _ in range(prev + 1, k):
                        acc = r * acc
                        x = tuple(map(add, x, g))
                        acc_terms[x] = acc
                acc = r * acc + p
                if acc:
                    x = tuple(map(sub, f, e))
                    acc_terms[x] = acc
                prev = k
            if acc:
                return None
        c_inv = coeff_div(1, c)
        return LaurentPoly._raw(self.registry, {
            x: as_coeff(a * c_inv) for x, a in acc_terms.items()})

    def substitute(self, images: Mapping[str, "LaurentPoly"],
                   target: VarRegistry | None = None) -> "LaurentPoly":
        """Ring-homomorphism image; unspecified variables map to themselves.

        A variable occurring with negative exponent must have a monomial
        image (so the inverse exists).
        """
        reg = target if target is not None else self.registry
        imgs: dict[int, LaurentPoly] = {}
        for name, p in images.items():
            i = self.registry.index(name)
            if not isinstance(p, LaurentPoly):
                p = LaurentPoly.const(reg, p)
            if p.registry != reg:
                raise ValueError("image registry mismatch")
            imgs[i] = p
        out = LaurentPoly(reg)
        for e, c in self.terms.items():
            term = LaurentPoly.const(reg, c)
            for i, p in enumerate(e):
                if p == 0:
                    continue
                if i in imgs:
                    img = imgs[i]
                    if p < 0 and not img.is_monomial():
                        raise ValueError(
                            f"non-invertible image for Laurent variable "
                            f"{self.registry.names[i]!r}")
                    term = term * (img ** p)
                else:
                    name = self.registry.names[i]
                    term = term * LaurentPoly.var(reg, name, p)
            out = out + term
        return out

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
        for e in self.terms or ((0,) * reg.nvars,):
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
        return sorted(self.terms.items())

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
            if any(f[i] for f in rest.terms for i in lead_vars):
                raise ValueError("a relation rest contains a lead variable")

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
        if p.registry != self.registry:
            raise ValueError("registry mismatch")
        terms = p.terms
        for lead, rest in self.rules:
            idx = [i for i, x in enumerate(lead) if x]
            hits = [(e, k) for e in terms
                    if (k := min([e[i] // lead[i] for i in idx])) >= 1]
            if not hits:
                continue
            terms = dict(terms)
            powers: dict[int, dict] = {}
            get = terms.get
            for e, k in hits:
                # the new terms keep base's lead exponents, so none is a hit
                c = terms.pop(e)
                r = powers.get(k)
                if r is None:
                    r = powers[k] = (rest ** k).terms
                base = [a - k * b for a, b in zip(e, lead)]
                for f, d in r.items():
                    x = tuple(map(add, base, f))
                    s = get(x, 0) + c * d
                    if s:
                        terms[x] = s if type(s) is int else as_coeff(s)
                    else:
                        del terms[x]
        if terms is p.terms:
            return p
        return LaurentPoly._raw(self.registry, terms)
