"""Localization formulas: tableau sums, iterated residues, superpolynomials.

The fixed-point character of the commuting-stack braid closures is evaluated
two ways and cross-checked:

* residue mode (ground truth): iterated one-variable residues of
  prod_i z_i^{b_i} (1 + a/z_i)/(1 - 1/z_i) prod_{i<j} zeta(z_i/z_j) dz_i/z_i
  with zeta(x) = (1-x)(1-QTx)/((1-Qx)(1-Tx)), picking up kernel-side poles
  z = 1 and z = Q z_j, T z_j.  Surviving pole chains biject with standard
  Young tableaux.
* tableau mode: the same sum evaluated directly on standard tableaux with
  z_i = Q^{a'} T^{l'}, dropping the vanishing denominator the residue route
  consumes at each box; the rest cancels by the same ``Term.cancel_pairs``
  as the residue chains (matched numerator/denominator pairs).

Both modes run up to ``STRAND_CAP`` boxes.  The cross-check against the
Markov trace (``homfly_crosscheck``) always reads the residue sum.
Everything is exact: coefficients are big rationals, the assembled character
is a multivariate rational function in (Q, T, a).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .ring import LaurentPoly, ResourceLimit, VarRegistry, QQ
from .scalars import REG_QA, S_ATOM, RatFunc


# ---------------------------------------------------------------------------
# Partitions and standard Young tableaux


@dataclass(frozen=True)
class Partition:
    parts: tuple[int, ...]

    def __post_init__(self):
        if any(p <= 0 for p in self.parts):
            raise ValueError("parts must be positive")
        if any(self.parts[i] < self.parts[i + 1]
               for i in range(len(self.parts) - 1)):
            raise ValueError("parts must be weakly decreasing")

    @property
    def n(self) -> int:
        return sum(self.parts)

    def cells(self) -> list[tuple[int, int]]:
        """(row, col) cells, 0-indexed: col = co-arm a', row = co-leg l'."""
        return [(r, c) for r, p in enumerate(self.parts) for c in range(p)]

    def conjugate(self) -> "Partition":
        if not self.parts:
            return self
        cols = [sum(1 for p in self.parts if p > c)
                for c in range(self.parts[0])]
        return Partition(tuple(cols))

    def hook_lengths(self) -> list[int]:
        conj = self.conjugate().parts
        out = []
        for r, c in self.cells():
            arm = self.parts[r] - c - 1
            leg = conj[c] - r - 1
            out.append(arm + leg + 1)
        return out

    def syt_count(self) -> int:
        """Hook length formula n! / prod(hooks)."""
        total = math.factorial(self.n)
        for h in self.hook_lengths():
            total, rem = divmod(total, h)
            if rem:
                raise AssertionError("hook length formula denominators")
        return total


def partitions_of(n: int) -> list[Partition]:
    out = []

    def rec(remaining, largest, acc):
        if remaining == 0:
            out.append(Partition(tuple(acc)))
            return
        for p in range(min(remaining, largest), 0, -1):
            rec(remaining - p, p, acc + [p])

    rec(n, n, [])
    return out


@dataclass(frozen=True)
class StandardTableau:
    """Bijective increasing labeling; labels[i] = (row, col) of box i+1."""

    shape: Partition
    boxes: tuple[tuple[int, int], ...]

    def coarm(self, label: int) -> int:
        return self.boxes[label - 1][1]

    def coleg(self, label: int) -> int:
        return self.boxes[label - 1][0]

    def __str__(self):
        grid = {}
        for i, (r, c) in enumerate(self.boxes, start=1):
            grid[(r, c)] = i
        lines = []
        for r, p in enumerate(self.shape.parts):
            lines.append(" ".join(f"{grid[(r, c)]:2d}" for c in range(p)))
        return "\n".join(lines)


def syt_enumerate(shape: Partition) -> list[StandardTableau]:
    """All standard tableaux of the shape, in deterministic order."""
    cells = shape.cells()
    n = shape.n
    out = []

    def rec(placed: list[tuple[int, int]], used: set):
        if len(placed) == n:
            out.append(StandardTableau(shape, tuple(placed)))
            return
        for cell in cells:
            if cell in used:
                continue
            r, c = cell
            if (r > 0 and (r - 1, c) not in used) or \
               (c > 0 and (r, c - 1) not in used):
                continue
            used.add(cell)
            placed.append(cell)
            rec(placed, used)
            placed.pop()
            used.discard(cell)

    rec([], set())
    out.sort(key=lambda t: t.boxes)
    return out


# ---------------------------------------------------------------------------
# Residue terms.  Every monomial and atom is a one-term ``LaurentPoly`` over
# the context registry.


class PoleCollision(ArithmeticError):
    pass


@dataclass
class Term:
    """mono * prod (1 - m) over ``num_atoms`` / prod (1 - m) over
    ``den_atoms``; ``chain`` lists the (box, value) substitutions made."""

    mono: LaurentPoly
    num_atoms: list[LaurentPoly]
    den_atoms: list[LaurentPoly]
    chain: list[tuple[int, LaurentPoly]] = field(default_factory=list)

    def substitute(self, i: int, value: LaurentPoly) -> "Term":
        """z_i -> value in the monomial and in every atom."""
        reg = value.registry
        images = {reg.names[i]: value}

        def sub(m):  # most atoms lack z_i: read it off the packed key
            (key,) = m.terms
            return m.substitute(images) if reg.digit(key, i) else m

        return Term(sub(self.mono), [sub(m) for m in self.num_atoms],
                    [sub(m) for m in self.den_atoms],
                    list(self.chain) + [(i, value)])

    def cancel_pairs(self) -> "Term | None":
        """Drop equal num/den atom pairs; kill the term on a spare vanishing
        numerator; raise on an unmatched vanishing denominator."""
        num = list(self.num_atoms)
        den = []
        for m in self.den_atoms:
            if m in num:
                num.remove(m)
            else:
                den.append(m)
        for m in num:
            if m == 1:
                return None
        for m in den:
            if m == 1:
                raise PoleCollision(f"unmatched vanishing denominator {m}")
        return Term(self.mono, num, den, self.chain)


class ResidueContext:
    """One superpolynomial evaluation: registry, integrand, pole policy."""

    def __init__(self, n: int):
        self.n = n
        names = [f"z{i}" for i in range(1, n + 1)] + ["Q", "T", "a"]
        self.registry = VarRegistry.make([(nm, 0, 0) for nm in names])
        self.zi = list(range(n))
        self.iQ, self.iT, self.ia = n, n + 1, n + 2

    def mono(self, coeff=1, **exps) -> LaurentPoly:
        return LaurentPoly.monomial(self.registry, exps, coeff)

    def integrand(self, exponents: list[int]) -> Term:
        """The full multi-variable integrand for the box exponent vector.

        ``exponents`` has length n: the power of z_i per box label (box 1
        carries exponent 0 for the braid family; kept general here).
        """
        if len(exponents) != self.n:
            raise ValueError("need one exponent per box")
        mono = self.mono(**{f"z{i + 1}": b for i, b in enumerate(exponents)})
        num, den = [], []
        for i in range(self.n):
            z = f"z{i + 1}"
            num.append(self.mono(-1, a=1, **{z: -1}))     # (1 + a/z_i)
            den.append(self.mono(**{z: -1}))              # (1 - 1/z_i)
        for i in range(self.n):
            for j in range(i + 1, self.n):
                x = {f"z{i + 1}": 1, f"z{j + 1}": -1}
                num.append(self.mono(**x))                        # (1 - x)
                num.append(self.mono(Q=1, T=1, **x))              # (1 - QTx)
                den.append(self.mono(Q=1, **x))                   # (1 - Qx)
                den.append(self.mono(T=1, **x))                   # (1 - Tx)
        return Term(mono, num, den)

    # -- pole policy ------------------------------------------------------

    def allowed_pole(self, var_index: int, pole: LaurentPoly,
                     alive: set[int]) -> bool:
        """Kernel-side poles only: the contour prescription in the
        |Q|, |T| < 1 regime.

        Admissible poles sit one or more Q/T steps above an earlier box
        value (a still-alive box variable or an already fixed lattice
        point); the origin pole z = 1 lies inside the first box's contour
        only.  The matter factor's poles at 0 and infinity always stay on
        the other side.
        """
        exps, coeff = pole.monomial_parts()
        if coeff != 1:
            return False
        if exps[self.ia] != 0:
            return False
        zpart = [exps[i] for i in self.zi]
        qt = (exps[self.iQ], exps[self.iT])
        if qt[0] < 0 or qt[1] < 0:
            return False
        support = [i for i, e in enumerate(zpart) if e]
        if any(zpart[i] != 1 for i in support) or len(support) > 1:
            return False
        if support and (support[0] not in alive or support[0] == var_index):
            return False
        if qt == (0, 0):
            # no Q/T step: only the bare origin, enclosed for box 1 alone
            # (a coinciding-box pole z_k = z_j is never on the kernel side)
            return not support and var_index == 0
        return True

    def residue_step(self, term: Term, var_index: int,
                     alive: set[int]) -> list[Term]:
        """Sum of residues of ``term`` * dz/z over kernel-side poles."""
        out = []
        reg = self.registry
        name = reg.names[var_index]
        for k, atom in enumerate(term.den_atoms):
            (key,) = atom.terms
            e = reg.digit(key, var_index)
            if e == 0:
                continue
            if e != -1:
                # (1 - c z) style: pole at z = 1/c, outside the contour
                continue
            # atom = c * rest / z vanishes at the pole of 1/(1 - c rest/z),
            # namely z = c * rest: clear the z exponent to read it off
            pole = atom.substitute({name: 1})
            if not self.allowed_pole(var_index, pole, alive):
                continue
            remaining = Term(term.mono,
                             list(term.num_atoms),
                             term.den_atoms[:k] + term.den_atoms[k + 1:],
                             term.chain)
            res = remaining.substitute(var_index, pole)
            cleaned = res.cancel_pairs()
            if cleaned is not None:
                out.append(cleaned)
        return out

    def evaluate(self, exponents: list[int],
                 order: list[int] | None = None) -> list[Term]:
        """Iterate the residues; ``order`` lists 0-indexed variables and
        must end at box 1.

        The default is label order z_2, ..., z_n with z_1 last: every step
        then sees the intact pairing-kernel numerators of the not yet
        integrated boxes, so coinciding-box configurations die by their
        numerator zeros instead of surviving through matched denominator
        cancellations (visible from four boxes up).  For n <= 3 all
        admissible orders agree, which the property suite checks.
        """
        if order is None:
            order = list(range(1, self.n)) + [0]
        if sorted(order) != list(range(self.n)) or (order and order[-1] != 0):
            raise ValueError("order must cover every box and end at box 1")
        terms = [self.integrand(exponents)]
        alive = set(range(self.n))
        for var_index in order:
            nxt = []
            for t in terms:
                nxt.extend(self.residue_step(t, var_index, alive))
            terms = nxt
            alive.discard(var_index)
        return terms


# ---------------------------------------------------------------------------
# Chain validation and assembly


def chain_box_values(ctx: ResidueContext, term: Term):
    """Final (Q, T) lattice position of each box in a fully reduced chain."""
    values: dict[int, tuple[int, int]] = {}
    # each substituted value references only later-resolved variables, so
    # resolve in reverse substitution order
    for i, v in reversed(term.chain):
        exps, _ = v.monomial_parts()
        pos = [exps[ctx.iQ], exps[ctx.iT]]
        for j in ctx.zi:
            k = exps[j]
            if k:
                pos[0] += k * values[j][0]
                pos[1] += k * values[j][1]
        values[i] = (pos[0], pos[1])
    return [values[i] for i in range(ctx.n)]


def chain_is_syt(positions: list[tuple[int, int]]) -> bool:
    """Do the box positions grow like a standard tableau labeling?"""
    seen = set()
    for a_, l_ in positions:
        if a_ < 0 or l_ < 0 or (a_, l_) in seen:
            return False
        if a_ > 0 and (a_ - 1, l_) not in seen:
            return False
        if l_ > 0 and (a_, l_ - 1) not in seen:
            return False
        seen.add((a_, l_))
    return True


def term_to_ratfunc(ctx: ResidueContext, term: Term) -> RatFunc:
    one = LaurentPoly.const(ctx.registry, 1)
    num = term.mono
    for m in term.num_atoms:
        num = num * (one - m)
    return RatFunc(num, [one - m for m in term.den_atoms])


# ---------------------------------------------------------------------------
# Tableau-mode evaluation


def syt_term(ctx: ResidueContext, tab: StandardTableau,
             exponents: list[int]) -> Term:
    """Specialize the displayed summand on one tableau.

    One vanishing denominator per box is the residue the closed form
    consumes; what is left goes through ``Term.cancel_pairs``.  Fewer than
    n vanishing denominators, a spare vanishing numerator or an unmatched
    vanishing denominator is a regularization count mismatch.
    """
    values = {f"z{i}": ctx.mono(Q=tab.coarm(i), T=tab.coleg(i))
              for i in range(1, ctx.n + 1)}
    whole = ctx.integrand(exponents)
    num = [m.substitute(values) for m in whole.num_atoms]
    den = [m.substitute(values) for m in whole.den_atoms]
    try:
        for _ in range(ctx.n):
            den.remove(ctx.mono())
        term = Term(whole.mono.substitute(values), num, den).cancel_pairs()
    except (ValueError, PoleCollision):
        term = None
    if term is None:
        raise AssertionError(
            f"tableau regularization count mismatch on\n{tab}")
    return term


# ---------------------------------------------------------------------------
# Characters


STRAND_CAP = 7


@dataclass
class Character:
    """Exact superpolynomial character with its evaluation metadata."""

    n: int
    exponents: tuple[int, ...]
    mode: str
    reduced: RatFunc                 # residue sum, free factor not included
    truncation_order: int = 12

    def registry(self):
        return self.reduced.registry

    def unreduced(self) -> RatFunc:
        reg = self.registry()
        free = LaurentPoly.const(reg, 1) - LaurentPoly.var(reg, "Q")
        return RatFunc(self.reduced.num, self.reduced.den + [free] * self.n)

    def series(self, order: int | None = None) -> LaurentPoly:
        order = order if order is not None else self.truncation_order
        return self.unreduced().series_qt(order, "Q", "T")

    def to_json(self) -> dict:
        series = self.series()
        reg = self.registry()
        ia, iq, it = reg.index("a"), reg.index("Q"), reg.index("T")
        by_a: dict[int, list] = {}
        for e, c in series.sorted_terms():
            by_a.setdefault(e[ia], []).append(
                {"Q_exp": e[iq], "T_exp": e[it],
                 "coeff": f"{c.numerator}/{c.denominator}"})
        return {"n": self.n, "exponents": list(self.exponents),
                "mode": self.mode,
                "truncation_order": self.truncation_order,
                "a_components": [{"a_exp": k, "series": v}
                                 for k, v in sorted(by_a.items())]}


def _exponent_vector(jm_exponents: list[int], n: int) -> list[int]:
    """Box exponents: label 1 gets 0, labels 2..n the JM exponents in order."""
    if len(jm_exponents) != n - 1:
        raise ValueError("need n-1 exponents")
    return [0] + list(jm_exponents)


def _tableau_chains(ctx: ResidueContext, exponents: list[int]):
    """(term, box positions) of every surviving residue chain.

    ``cancel_pairs`` already killed every chain with a vanishing numerator
    atom, so a surviving chain has a nonzero residue: it must be a tableau,
    and the chains must be as many as the standard tableaux.
    """
    out = []
    for t in ctx.evaluate(exponents):
        positions = chain_box_values(ctx, t)
        if not chain_is_syt(positions):
            raise AssertionError(
                f"non-tableau chain with nonzero residue: {positions}")
        out.append((t, positions))
    total_syt = sum(p.syt_count() for p in partitions_of(ctx.n))
    if len(out) != total_syt:
        raise AssertionError(
            f"{len(out)} surviving chains vs {total_syt} tableaux")
    return out


def superpoly_jm(jm_exponents: list[int], mode: str = "residue",
                 order: int = 12) -> Character:
    """Character of the closure of the JM power braid delta^b.

    mode='residue' is the ground-truth iterated residue sum; mode='syt'
    evaluates the closed tableau sum.  Both stop at ``STRAND_CAP`` boxes
    (n <= 7).  The two agree exactly; `verify localization` asserts it.
    """
    n = len(jm_exponents) + 1
    if n > STRAND_CAP:
        raise ResourceLimit(f"{n} boxes exceeds the cap {STRAND_CAP}")
    ctx = ResidueContext(n)
    exps = _exponent_vector(jm_exponents, n)
    if mode == "residue":
        terms = [t for t, _ in _tableau_chains(ctx, exps)]
    elif mode == "syt":
        terms = [syt_term(ctx, tab, exps) for shape in partitions_of(n)
                 for tab in syt_enumerate(shape)]
    else:
        raise ValueError("mode must be 'residue' or 'syt'")

    total = RatFunc.sum([term_to_ratfunc(ctx, t) for t in terms])
    return Character(n, tuple(jm_exponents), mode, total, order)


def zeta(x: LaurentPoly) -> RatFunc:
    """The pairing kernel (1 - x)(1 - QTx) / ((1 - Qx)(1 - Tx)).

    ``x`` is any Laurent polynomial over a registry containing Q and T;
    the result is an exact rational function.  The numerator vanishes at
    x = 1 (equal arguments) and the denominator at the one-step ratios,
    which is what drives the pole-chain combinatorics.
    """
    reg = x.registry
    one = LaurentPoly.const(reg, 1)
    q_ = LaurentPoly.var(reg, "Q")
    t_ = LaurentPoly.var(reg, "T")
    num = (one - x) * (one - q_ * t_ * x)
    return RatFunc(num, [one - q_ * x, one - t_ * x])


def residue_pushforward(exponent: int) -> RatFunc:
    """Single-level push-forward of z^b (1 + a/z): the n = 1 character sum.

    Exposed for the one-variable examples; the full iteration is
    superpoly_jm.
    """
    ctx = ResidueContext(1)
    terms = ctx.evaluate([exponent])
    return RatFunc.sum([term_to_ratfunc(ctx, t) for t in terms])


def zeta_atoms(ctx: ResidueContext, i: int, j: int):
    """The four atoms of zeta(z_i/z_j), for inspection and tests."""
    x = {f"z{i}": 1, f"z{j}": -1}
    return {"num": [ctx.mono(**x), ctx.mono(Q=1, T=1, **x)],
            "den": [ctx.mono(Q=1, **x), ctx.mono(T=1, **x)]}


# ---------------------------------------------------------------------------
# Full twist shift and the projective line examples


def full_twist_shift_check(jm_exponents: list[int], power: int,
                           wrong_character: bool = False) -> bool:
    """delta^(b + M) equals delta^b tensored by the M-th determinant power.

    Checked summand by summand on the residue chains: each tableau term
    picks up prod_i z_i^M exactly.  ``wrong_character`` deliberately uses
    only the first box's character (negative control).
    """
    n = len(jm_exponents) + 1
    ctx = ResidueContext(n)
    shifted = superpoly_jm([b + power for b in jm_exponents], mode="residue")
    # det(B) acts on a tableau term by prod z_i = Q^{sum a'} T^{sum l'}
    parts = []
    exps = _exponent_vector(jm_exponents, n)
    for t, positions in _tableau_chains(ctx, exps):
        if wrong_character:
            qe, te = positions[0]
        else:
            qe = sum(p[0] for p in positions)
            te = sum(p[1] for p in positions)
        # box 1 sits at the origin so its z^M factor is trivial; boxes 2..n
        # supply the shift monomial of this summand
        mono = LaurentPoly.monomial(ctx.registry,
                                    {"Q": power * qe, "T": power * te})
        parts.append(term_to_ratfunc(ctx, t) * mono)
    return shifted.reduced == RatFunc.sum(parts)


def p1_cohomology(d: int) -> tuple[int, int]:
    """(h^0, h^1) of O(d) on the projective line."""
    return (max(0, d + 1), max(0, -d - 1))


def markov_example_sigma1(sign: int, order: int = 12) -> dict[str, dict[int, Fraction]]:
    """Graded dimensions of the three homology groups of the closure of
    sigma_1^{+-1}, assembled from projective-line cohomology.

    The underlying geometry: the free rank-2 flag space is P^1 x C^2, the
    crossing factorization restricts to the structure sheaf of P^1 x C
    (positive crossing) or its (-1) twist (negative), the tautological
    bundle splits as O + O(-1) and its determinant is O(-1).  Each group is
    a free module over one polynomial variable of weight q^2.
    """
    twist = 0 if sign > 0 else -1
    h = {}
    # a-degree 0: structure sheaf; 1: dual tautological bundle; 2: det
    bundles = {"H0": [0], "H1": [0, -1], "H2": [-1]}
    for name, degs in bundles.items():
        total = sum(sum(p1_cohomology(d + twist)) for d in degs)
        series: dict[int, Fraction] = {}
        if total:
            # times C[x11], deg x11 = q^2
            for k in range(0, order + 1, 2):
                series[k] = QQ(total)
        h[name] = series
    return h


# ---------------------------------------------------------------------------
# Cross-check against the Markov trace invariant
#
# Frozen calibration (fitted on the one-box closure, validated on the whole
# two- and three-box family without refitting):
#   * the braid exponent of delta_i feeds the box with label n + 1 - i,
#   * the anti-diagonal torus is Q = q^2, T = q^-2 with a |-> -a^-2,
#   * the invariant is (-q)^n a^{n - writhe} times the specialized character.


def braid_exponents_to_boxes(jm_exponents: list[int]) -> list[int]:
    """delta_i exponent -> box label n + 1 - i (labels 2..n, in order)."""
    return list(reversed(jm_exponents))


Q_SAMPLES = (QQ(3, 5), QQ(2, 7), QQ(5, 9), QQ(7, 4), QQ(4, 11))
SERIES_ORDER = 12


def homfly_crosscheck(jm_exponents: list[int], n: int) -> dict:
    """Criterion: the anti-diagonal character equals the closure invariant.

    The character is the residue sum at every size.  Exact at the rational
    q points ``Q_SAMPLES`` and as a q-series to degree ``SERIES_ORDER``,
    both sides one ``LaurentPoly`` in (q, a); returns a report dict with a
    boolean 'ok'.
    """
    from .braid import jm_power_braid
    from .hecke import homflypt

    braid = jm_power_braid(jm_exponents, n)
    w = braid.writhe()
    invariant = homflypt(braid)
    ch = superpoly_jm(braid_exponents_to_boxes(jm_exponents))
    reg = ch.registry()
    spec = ch.unreduced().substitute({
        "T": LaurentPoly.var(reg, "Q", -1),
        "a": LaurentPoly.var(reg, "a", -2) * (-1)})
    report = {"jm": list(jm_exponents), "n": n, "writhe": w,
              "samples": [], "ok": True}

    for q0 in Q_SAMPLES:
        at = spec.substitute({"Q": LaurentPoly.const(reg, q0 ** 2)})
        # the invariant at q0 is a polynomial in a alone
        lhs = invariant.evaluate(q0).substitute({}, reg)
        for f in at.den:
            lhs = lhs * f
        cal = LaurentPoly.monomial(reg, {"a": n - w}, QQ(-1) ** n * q0 ** n)
        same = lhs == at.num * cal
        report["samples"].append({"q": str(q0), "equal": same})
        report["ok"] = report["ok"] and same

    p_series = RatFunc(invariant.num, [S_ATOM ** invariant.s_exp]).series_qt(
        SERIES_ORDER, "q")
    # Q = q^2 and the calibration's q^n: Q-degree k lands on q-degree
    # 2k + n, so the Q-series stops where that passes SERIES_ORDER.
    c_series = spec.series_qt((SERIES_ORDER - n) // 2, "Q")
    c_series = c_series.substitute({"Q": LaurentPoly.var(REG_QA, "q", 2)},
                                   REG_QA)
    shift = LaurentPoly.monomial(REG_QA, {"q": n, "a": n - w}, QQ(-1) ** n)
    series_ok = p_series == c_series * shift
    report["series_ok"] = series_ok
    report["ok"] = report["ok"] and series_ok
    return report
