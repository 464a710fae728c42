"""The four benchmark workloads: seeded inputs, timed calls, result checks.

Every workload is a closed loop with one client: the next op starts when
the previous one has returned and been checked.  Inputs are generated from
the seed before timing, in rounds of a fixed op-kind mix, each round
shuffled by the seed, so that every run sees the same mix of op kinds.

``run(op)`` is the only code inside the timed region; it calls knotmf's
public functions through their modules, so that the tracer's wrappers are
seen.  ``check(op, result)`` raises on a wrong result and runs untimed.
"""

from __future__ import annotations

import itertools
import random

from knotmf import braid, hecke, localization, mf
from knotmf.braid import BraidWord, Permutation

import oracle


class Workload:
    name: str
    # Fixed per-op latency percentile reported as op_tail_s, chosen per
    # workload so that it falls on the intended op kind and, at the op
    # count of a run, has about ten ops beyond it.
    tail_pct: float
    # Ops in the traced run; fixed so that its counts repeat exactly.
    trace_ops: int
    # Rounds in the generated stream; a run cycles through them if it
    # needs more.
    stream_rounds: int

    def round(self, rng: random.Random) -> list:
        raise NotImplementedError

    def rounds(self, rng: random.Random) -> list:
        return [self.round(rng) for _ in range(self.stream_rounds)]

    def warm(self, rng: random.Random) -> None:
        """Untimed warm-up from a separate input stream."""
        for op in self.round(rng):
            self.check(op, self.run(op))

    def run(self, op):
        raise NotImplementedError

    def check(self, op, result) -> None:
        raise NotImplementedError


def _warm_trace_basis(max_strands: int, stabilized: bool) -> None:
    """Fill the trace cache for every permutation up to ``max_strands``.

    With ``stabilized`` also the (max_strands + 1)-strand permutations that
    a stabilized max_strands-strand braid can reach: w and w * s_n.
    """
    for n in range(1, max_strands + 1):
        for w in itertools.permutations(range(n)):
            hecke.trace_ocneanu(hecke.HeckeElement.basis(n, Permutation(w)))
    if stabilized:
        n = max_strands + 1
        for w in itertools.permutations(range(max_strands)):
            p = Permutation(w + (max_strands,))
            for v in (p, p.right_s(max_strands)):
                hecke.trace_ocneanu(hecke.HeckeElement.basis(n, v))


def _random_braid(rng: random.Random, strands: tuple[int, int],
                  length: tuple[int, int]) -> BraidWord:
    n = rng.randint(*strands)
    letters = tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                    for _ in range(rng.randint(*length)))
    return BraidWord(n, letters)


# ---------------------------------------------------------------------------


class TraceMoves(Workload):
    """Many small closures, warm trace cache; each op computes a braid and
    one Markov or skein partner and checks that they agree."""

    name = "trace-moves"
    tail_pct = 95.0
    trace_ops = 60
    stream_rounds = 8
    MOVES = ("rotate", "stabilize+", "stabilize-", "skein")
    # The braids and their moves are a fixed corpus (a quarter of the braids
    # per move) and a round runs each of them once.  Op cost varies tenfold
    # between random braids of the same size, so a corpus drawn per seed
    # would move ops_per_s by 10-20 % between seeds on its own.  The seed
    # draws the rest: the order, the rotation, and the skein crossing and
    # its position.
    CORPUS_SIZE = 240

    def __init__(self):
        rng = random.Random("trace-moves corpus")
        self.corpus = [(_random_braid(rng, (3, 5), (6, 14)),
                        self.MOVES[i % len(self.MOVES)])
                       for i in range(self.CORPUS_SIZE)]

    def round(self, rng):
        return [self.op(rng, *self.corpus[i])
                for i in rng.sample(range(len(self.corpus)), len(self.corpus))]

    @staticmethod
    def op(rng, b, move):
        if move == "rotate":
            partners = (b.rotate(rng.randrange(1, len(b))),)
        elif move == "stabilize+":
            partners = (b.stabilize(1),)
        elif move == "stabilize-":
            partners = (b.stabilize(-1),)
        else:
            pos = rng.randint(0, len(b))
            i = rng.randint(1, b.strands - 1)
            plus = BraidWord(b.strands, b.letters[:pos] + (i,) + b.letters[pos:])
            minus = BraidWord(b.strands, b.letters[:pos] + (-i,) + b.letters[pos:])
            partners = (plus, minus)
        return (move, (b,) + partners)

    def warm(self, rng):
        _warm_trace_basis(5, stabilized=True)
        for _ in range(8):
            op = self.op(rng, _random_braid(rng, (3, 5), (6, 14)),
                         rng.choice(self.MOVES))
            self.check(op, self.run(op))

    def run(self, op):
        return [hecke.homflypt(b) for b in op[1]]

    def check(self, op, result):
        move, braids = op
        parts = [oracle.check_invariant(inv, b.strands, b.letters)
                 for inv, b in zip(result, braids)]
        if move == "skein":
            zero, plus, minus = parts
            if not oracle.skein_holds(plus, minus, zero):
                raise AssertionError("skein relation fails")
        elif not oracle.same_invariant(parts[0], parts[1]):
            raise AssertionError(f"{move} changed the invariant")


class TwistTower(Workload):
    """Few huge closures: the 5-strand full twist and JM power braids whose
    Hecke images carry all 120 permutations."""

    name = "twist-tower"
    tail_pct = 100.0
    trace_ops = 4
    stream_rounds = 16
    # Exponent vectors of the JM power braids; (1, 1, 1, 1) is full_twist(5).
    # A round runs each once, 13-16 s, so a 24 s run holds two rounds (one
    # on a slow host).  Its median is always the mean of (1, 2, 1, 2) and
    # (2, 1, 2, 1) ops, which cost about the same, and its slowest op is a
    # (2, 2, 2, 2) op.  The set is fixed so the op mix is the same in every
    # run; the seed sets the order.
    TOWER = ((1, 1, 1, 1), (1, 2, 1, 2), (2, 1, 2, 1), (2, 2, 2, 2))

    def round(self, rng):
        out = []
        for e in rng.sample(self.TOWER, len(self.TOWER)):
            b = (braid.full_twist(5) if e == (1, 1, 1, 1)
                 else braid.jm_power_braid(list(e), 5))
            out.append(("jm" + "".join(map(str, e)), b))
        return out

    def warm(self, rng):
        _warm_trace_basis(5, stabilized=False)
        b = _random_braid(rng, (5, 5), (10, 10))
        self.check(("warm", b), self.run(("warm", b)))

    def run(self, op):
        return hecke.homflypt(op[1])

    def check(self, op, result):
        oracle.check_invariant(result, op[1].strands, op[1].letters)


class Characters(Workload):
    """The localization layer: residue vs tableau modes at 3 boxes, the
    4-box residue character with its series, and the trace cross-check."""

    name = "characters"
    # A round has 2 crosscheck, 4 modes and 4 residue4 ops.  Sorted by
    # latency the kinds occupy [0, .2), [.2, .6), [.6, 1], so the median is
    # a modes op and the 70th percentile a residue4 op.  Op cost depends
    # on the exponents, so the modes and residue4 inputs are fixed and
    # balanced: the modes pairs form a row of a Latin square, and rounds
    # alternate between the two halves of {1, 2}^3 in which every
    # coordinate takes each value twice.  The seed sets the order and the
    # crosscheck braids.
    MODES = ((1, 2), (2, 4), (3, 1), (4, 3))
    RESIDUE4_HALVES = (((1, 1, 1), (1, 2, 2), (2, 1, 2), (2, 2, 1)),
                       ((1, 1, 2), (1, 2, 1), (2, 1, 1), (2, 2, 2)))
    tail_pct = 70.0
    trace_ops = 10
    stream_rounds = 60

    def rounds(self, rng):
        return [self.round(rng, self.RESIDUE4_HALVES[i % 2])
                for i in range(self.stream_rounds)]

    def round(self, rng, residue4=RESIDUE4_HALVES[0]):
        out = [("modes", list(pair)) for pair in self.MODES]
        out += [("residue4", list(v)) for v in residue4]
        out.append(("crosscheck", ([rng.randint(1, 3)], 2)))
        out.append(("crosscheck", ([rng.randint(1, 2), rng.randint(1, 2)], 3)))
        rng.shuffle(out)
        return out

    def warm(self, rng):
        for kind in ("crosscheck", "modes"):
            op = next(o for o in self.round(rng) if o[0] == kind)
            self.check(op, self.run(op))

    def run(self, op):
        kind, arg = op
        if kind == "modes":
            return (localization.superpoly_jm(arg, mode="residue"),
                    localization.superpoly_jm(arg, mode="syt"))
        if kind == "residue4":
            ch = localization.superpoly_jm(arg, mode="residue")
            return ch, ch.series()
        return localization.homfly_crosscheck(*arg)

    def check(self, op, result):
        kind, arg = op
        if kind == "modes":
            r, s = result
            if not oracle.ratfunc_equal(r.reduced, s.reduced):
                raise AssertionError(f"residue and syt modes differ at {arg}")
        elif kind == "residue4":
            ch, series = result
            if ch.n != 4 or series.is_zero():
                raise AssertionError("empty 4-box character")
            if not oracle.vanishes_at_a_minus_one(series):
                raise AssertionError("series lost the (1 + a) factor")
        else:
            jm, n = arg
            writhe = sum(2 * (n - i) * e for i, e in enumerate(jm, start=1))
            if not (result["ok"] and result["series_ok"]
                    and result["writhe"] == writhe
                    and all(s["equal"] for s in result["samples"])):
                raise AssertionError(f"trace cross-check failed at {arg}")


def _twist(rng: random.Random) -> "mf.GradedTwist":
    return mf.GradedTwist.of_chars(
        tuple(rng.randint(-2, 2) for _ in range(2)),
        tuple(rng.randint(-2, 2) for _ in range(2)))


class MfPipelines(Workload):
    """The factorization layer on cases with fixed answers."""

    name = "mf-pipelines"
    # verify_suite is 1 op in 11, so the 95th percentile falls on it.
    MIX = (("suite",), ("blob_square",),
           ("unit", "C_par", "C_par"), ("unit", "C_par", "C_dot"),
           ("unit", "C_dot", "C_par"), ("unit", "C_par", "C_par"),
           ("twisted_unit",), ("twisted_unit",),
           ("kclass_twist",), ("kclass_twist",), ("ktheory",))
    tail_pct = 95.0
    trace_ops = 110
    stream_rounds = 400

    def round(self, rng):
        out = []
        for spec in rng.sample(self.MIX, len(self.MIX)):
            kind = spec[0]
            if kind == "unit":
                out.append((kind, spec[1:]))
            elif kind == "twisted_unit":
                out.append((kind, (rng.choice(("C_par", "C_dot")), _twist(rng))))
            elif kind == "kclass_twist":
                out.append((kind, (rng.choice(("C_par", "C_dot", "C_plus")),
                                   _twist(rng))))
            else:
                out.append((kind, None))
        return out

    def run(self, op):
        kind, arg = op
        if kind == "suite":
            return mf.verify_suite()
        if kind == "blob_square":
            return mf.blob_square_q_form()
        if kind == "unit":
            return mf.convolution_n2(*arg)
        if kind == "twisted_unit":
            k, tw = arg
            return mf.convolution_n2("C_par", k, None, tw)
        if kind == "kclass_twist":
            k, tw = arg
            return (mf.kclass(mf.standard_presentation(k, tw)),
                    mf.kclass(mf.standard_presentation(k)))
        return mf.ktheory_identity(), mf.ktheory_identity(perturb=True)

    def check(self, op, result):
        kind, arg = op
        if kind == "suite":
            if result["status"] != "pass" or not result["steps"] or \
                    any(s["status"] != "pass" for s in result["steps"]):
                raise AssertionError("verify_suite did not pass")
        elif kind == "blob_square":
            shifts, res = result
            if shifts != [4, 2] or len(res.summands) != 2:
                raise AssertionError(f"blob square q-form {shifts}")
            if not all(isinstance(e.get("state"), str) and e["state"]
                       for e in res.audit):
                raise AssertionError("audit entry without a state hash")
        elif kind == "unit":
            kept = arg[1] if arg[0] == "C_par" else arg[0]
            if result.summands != [(kept, mf.GradedTwist.zero(2))]:
                raise AssertionError(f"unit law {arg} -> {result.summands}")
        elif kind == "twisted_unit":
            k, tw = arg
            if result.summands != [(k, tw)]:
                raise AssertionError(f"twisted unit law {k}{tw}")
        elif kind == "kclass_twist":
            k, tw = arg
            twisted, plain = result
            names = tuple(twisted.registry.names)
            delta = dict(zip(("U1", "U2", "V1", "V2"),
                             (v for slot in tw.chars for v in slot)))
            delta.update(q=tw.q_shift, t=tw.t_shift)
            want = oracle.shift(oracle.poly(plain, names),
                                tuple(delta.get(n, 0) for n in names))
            if oracle.poly(twisted, names) != want:
                raise AssertionError(f"K-class twist law fails for {k}{tw}")
        else:
            if result != (True, False):
                raise AssertionError(f"K-theory identity / control {result}")


WORKLOADS = {w.name: w for w in (TraceMoves(), TwistTower(), Characters(),
                                 MfPipelines())}
