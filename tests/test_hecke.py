import functools
import itertools
import json
import math
import os
import pathlib
import random

import pytest

from knotmf.braid import (BraidWord, Permutation, full_twist, jm_element,
                          jm_power_braid, parse_braid)
from knotmf.hecke import (HeckeElement, InvariantValue, _trace_basis,
                          from_braid, gen_image, homflypt, qpoly,
                          trace_ocneanu)
from knotmf.ring import QQ, LaurentPoly
from knotmf.scalars import REG_QA, S_ATOM, qa_poly
from knotmf.verify import _skein_holds, random_braid

# numerator of the loop value D = (a - a^-1)/(q - q^-1)
LOOP = qa_poly({(0, 1): QQ(1), (0, -1): QQ(-1)})
A = LaurentPoly.var(REG_QA, "a")


def test_gen_image_examples():
    g = gen_image(1, 2)
    assert g.terms == {(1, 0): qpoly({0: QQ(1)})}
    gi = gen_image(-1, 2)
    assert gi.terms == {(1, 0): qpoly({0: QQ(1)}),
                        (0, 1): qpoly({1: QQ(-1), -1: QQ(1)})}
    assert g * gi == HeckeElement.unit(2)
    with pytest.raises(ValueError):
        gen_image(0, 2)
    with pytest.raises(ValueError):
        gen_image(2, 2)


def test_quadratic_relation():
    g = gen_image(1, 2)
    s = qpoly({1: QQ(1), -1: QQ(-1)})
    assert g * g == HeckeElement.unit(2) + g.scale(s)


def test_braid_relations_all_n():
    for n in range(3, 5):
        for i in range(1, n - 1):
            a = HeckeElement.unit(n).mul_gen(i).mul_gen(i + 1).mul_gen(i)
            b = HeckeElement.unit(n).mul_gen(i + 1).mul_gen(i).mul_gen(i + 1)
            assert a == b
        for i, j in itertools.combinations(range(1, n), 2):
            if abs(i - j) > 1:
                a = HeckeElement.unit(n).mul_gen(i).mul_gen(j)
                b = HeckeElement.unit(n).mul_gen(j).mul_gen(i)
                assert a == b


class BruteH2:
    """Independent 2x2 matrix model of H_2 in the basis (T_id, T_s)."""

    @staticmethod
    def mul(x, y):
        # x, y: dict basis -> coeff poly; relation T_s^2 = 1 + s T_s
        s = qpoly({1: QQ(1), -1: QQ(-1)})
        out = {0: qpoly({}), 1: qpoly({})}
        for bx, cx in x.items():
            for by, cy in y.items():
                c = cx * cy
                if bx == 0 or by == 0:
                    k = bx + by
                    out[k] = out[k] + c
                else:
                    out[0] = out[0] + c
                    out[1] = out[1] + c * s
        return {k: v for k, v in out.items() if not v.is_zero()}


def test_trefoil_image_against_brute_force():
    x = from_braid(parse_braid("1 1 1"))
    one = qpoly({0: QQ(1)})
    brute = {1: one}
    for _ in range(2):
        brute = BruteH2.mul(brute, {1: one})
    got = {0 if w == (0, 1) else 1: c for w, c in x.terms.items()}
    got = {(0 if k == 0 else 1): c for k, c in got.items()}
    mapped = {0: x.terms.get((0, 1)), 1: x.terms.get((1, 0))}
    assert mapped[0] == brute.get(0) and mapped[1] == brute.get(1)
    # hand expansion: g^3 = s + (1 + s^2) g
    s = qpoly({1: QQ(1), -1: QQ(-1)})
    assert mapped[0] == s
    assert mapped[1] == one + s * s


def test_from_braid_inverse_cancels():
    assert from_braid(parse_braid("1 -1", strands=2)) == HeckeElement.unit(2)


def _ref_mul_gen(x, i, inverse=False):
    """Reference right multiplication by g_i, accumulating ``LaurentPoly``
    coefficients term by term; g_i^-1 = g_i - (q - q^-1)."""
    out = {}

    def acc(w, c):
        s = out.get(w, LaurentPoly.zero(REG_QA)) + c
        if s.is_zero():
            out.pop(w, None)
        else:
            out[w] = s

    for wim, c in x.terms.items():
        a, b = wim[i - 1], wim[i]
        acc(wim[:i - 1] + (b, a) + wim[i + 1:], c)
        if a > b:
            acc(wim, c * S_ATOM)
    y = HeckeElement(x.n, out)
    return y - x.scale(S_ATOM) if inverse else y


def _int_coefficients(x):
    return all(type(c) is int for p in x.terms.values() for c in p.terms.values())


def test_kernel_matches_reference_multiplication():
    """from_braid, mul_gen and mul_gen_inv against the reference on 200
    seeded words with letters of both signs on 2-6 strands."""
    rng = random.Random("hecke kernel")
    for _ in range(200):
        n = rng.randint(2, 6)
        letters = tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                        for _ in range(rng.randint(0, 10)))
        ref = HeckeElement.unit(n)
        for a in letters:
            ref = _ref_mul_gen(ref, abs(a), a < 0)
        x = from_braid(BraidWord(n, letters))
        assert x == ref and _int_coefficients(x)
        i = rng.randint(1, n - 1)
        up, down = x.mul_gen(i), x.mul_gen_inv(i)
        assert up == _ref_mul_gen(ref, i) and _int_coefficients(up)
        assert down == _ref_mul_gen(ref, i, True) and _int_coefficients(down)
        assert x == ref  # the kernel works on copies of x's coefficients


# ---------------------------------------------------------------------------
# Reference trace: the dict kernel on rows {permutation images: {q exponent:
# int}}, with the Ocneanu trace by the coset recursion


def _ref_acc(row, c, shift, sign):
    """row += sign * q^shift * c in place, dropping zeros."""
    for e, v in c.items():
        t = row.get(e + shift, 0) + sign * v
        if t:
            row[e + shift] = t
        else:
            del row[e + shift]


def _ref_right_mul(rows, i, inverse):
    """rows * g_i, or rows * g_i^-1 if ``inverse``, on dict rows."""
    out = {}
    for w, c in rows.items():
        x, y = w[i - 1], w[i]
        if (x > y) is not inverse:
            row = out.setdefault(w, {})
            _ref_acc(row, c, 1, -1 if inverse else 1)
            _ref_acc(row, c, -1, 1 if inverse else -1)
        _ref_acc(out.setdefault(w[:i - 1] + (y, x) + w[i + 1:], {}), c, 0, 1)
    return {w: row for w, row in out.items() if row}


def _ref_braid_rows(n, letters):
    rows = {tuple(range(n)): {0: 1}}
    for a in letters:
        rows = _ref_right_mul(rows, abs(a), a < 0)
    return rows


@functools.lru_cache(maxsize=None)
def _ref_trace_basis(images):
    """z-expansion of tr T_w as dicts: w = c v with c = s_j ... s_{n-1},
    v fixing n and l(w) = (n - j) + l(v), so
    tr T_w = z tr(g_j ... g_{n-2} T_v)."""
    n = len(images)
    if n == 1:
        return ({0: 1},)
    j = images[-1] + 1
    if j == n:
        return _ref_trace_basis(images[:-1])
    c = Permutation.identity(n)
    for i in range(j, n):
        c = c * Permutation.transposition(n, i)
    c_inv = [0] * n
    for i, x in enumerate(c.images):
        c_inv[x] = i
    v = Permutation(tuple(c_inv[x] for x in images))
    assert v.images[-1] == n - 1
    assert Permutation(images).length() == (n - j) + v.length()
    word = tuple(range(j, n - 1)) + Permutation(v.images[:-1]).reduced_word()
    return ({},) + tuple(_ref_z_expansion(_ref_braid_rows(n - 1, word)))


def _ref_z_expansion(rows):
    out = []
    for w, c in rows.items():
        for k, p in enumerate(_ref_trace_basis(w)):
            if k == len(out):
                out.append({})
            for e1, c1 in c.items():
                for e2, c2 in p.items():
                    out[k][e1 + e2] = out[k].get(e1 + e2, 0) + c1 * c2
    return [{e: v for e, v in p.items() if v} for p in out]


def _ref_trace(rows):
    """The reference z-expansion as ``trace_ocneanu`` returns it."""
    coeffs = [qpoly(p) for p in _ref_z_expansion(rows)]
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return tuple(coeffs)


def _ref_homflypt(b):
    """D^n a^-writhe tr(b) from the reference trace, with D z = a."""
    n, num = b.strands, LaurentPoly.zero(REG_QA)
    for k, p in enumerate(_ref_trace(_ref_braid_rows(n, b.letters))):
        num = num + p * LOOP ** (n - k) * S_ATOM ** k * A ** (k - b.writhe())
    return InvariantValue(num, n)


def _differential_braids():
    for n in range(1, 7):
        yield full_twist(n)
    for e in ((1, 1, 1, 1), (1, 2, 1, 2), (2, 1, 2, 1), (2, 2, 2, 2)):
        yield jm_power_braid(list(e), 5)
    rng = random.Random("packed kernel against the dict kernel")
    for _ in range(300):
        n = rng.randint(1, 6)
        yield BraidWord(n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                                 for _ in range(rng.randint(0, 16) if n > 1
                                                else 0)))


def test_trace_basis_matches_reference():
    """The packed trace basis equals the dict coset recursion on every
    permutation of 1-6 strands."""
    for n in range(1, 7):
        for images in itertools.permutations(range(n)):
            got = tuple(dict(p) for p in _trace_basis(images))
            assert got == _ref_trace_basis(images)


def test_packed_trace_matches_reference():
    """trace_ocneanu(from_braid(b)) and homflypt(b) against the dict
    kernel on the full twists 1-6, the four 5-strand tower braids and 300
    seeded braids on 1-6 strands with 0-16 letters of both signs."""
    for b in _differential_braids():
        rows = _ref_braid_rows(b.strands, b.letters)
        assert trace_ocneanu(from_braid(b)) == _ref_trace(rows)
        p, ref = homflypt(b), _ref_homflypt(b)
        assert p == ref and str(p) == str(ref)


def _random_element(rng, n):
    terms = {}
    for w in rng.sample(list(itertools.permutations(range(n))),
                        rng.randint(1, min(8, math.factorial(n)))):
        terms[w] = qpoly({rng.randint(-6, 6): rng.randint(-2 ** 80, 2 ** 80)
                          for _ in range(rng.randint(1, 4))})
    return HeckeElement(n, terms)


def test_packed_kernel_on_wide_coefficients():
    """trace_ocneanu, mul_gen and products against the references on
    random elements of 2-5 strands with coefficients up to 2^80 and
    q-exponents in [-6, 6], so the width comes from the input norms."""
    rng = random.Random("wide coefficients")
    for _ in range(60):
        n = rng.randint(2, 5)
        x, y = _random_element(rng, n), _random_element(rng, n)
        rows = {w: {k[0]: v for k, v in c.decoded().items()}
                for w, c in x.terms.items()}
        assert trace_ocneanu(x) == _ref_trace(rows)
        i = rng.randint(1, n - 1)
        assert x.mul_gen(i) == _ref_mul_gen(x, i)
        assert x.mul_gen_inv(i) == _ref_mul_gen(x, i, True)
        ref = HeckeElement(n)
        for w, c in y.terms.items():
            part = x.scale(c)
            for j in Permutation(w).reduced_word():
                part = _ref_mul_gen(part, j)
            ref = ref + part
        assert x * y == ref


def test_powers_of_one_generator():
    """from_braid(sigma_1^k) for k = 0..120 against g^(k+1) =
    b_k + (a_k + s b_k) g, where g^k = a_k + b_k g: the width passes 64
    bits at k = 40, and at k = 120 a packed row holds about 240 digits of
    192 bits."""
    s = qpoly({1: QQ(1), -1: QQ(-1)})
    a, b = qpoly({0: QQ(1)}), qpoly({})
    for k in range(121):
        assert from_braid(BraidWord(2, (1,) * k)) == HeckeElement(
            2, {(0, 1): a, (1, 0): b})
        a, b = b, a + s * b


def test_trace_basis_degree_is_below_strand_count():
    """tr T_w has z-degree at most n - 1 on n strands, so the closure
    numerator of homflypt needs no u denominator."""
    for n in range(1, 7):
        for images in itertools.permutations(range(n)):
            assert len(_trace_basis(images)) <= n


def _homflypt_inputs():
    for n in range(1, 7):
        yield BraidWord(n, ())  # K = 0: the largest s exponent
    rng = random.Random("homflypt composition")
    for _ in range(40):
        yield random_braid(rng, max_strands=5, max_length=10)
    for _ in range(10):
        letters = tuple(rng.choice((1, -1)) * rng.randint(1, 5)
                        for _ in range(rng.randint(1, 10)))
        yield BraidWord(6, letters)


def test_homflypt_is_loop_values_times_trace():
    """The single-reduce homflypt equals D^n tr(b) a^-writhe built from the
    trace's z-expansion with D z = a (so D^n z^k = D^(n-k) a^k), down to
    the printed canonical form."""
    for b in _homflypt_inputs():
        # D^(n-k) = (a - a^-1)^(n-k) s^k / s^n
        n = b.strands
        num = LaurentPoly.zero(REG_QA)
        for k, p in enumerate(trace_ocneanu(from_braid(b))):
            num = num + (p * LOOP ** (n - k) * S_ATOM ** k
                         * A ** (k - b.writhe()))
        old = InvariantValue(num, n)
        p = homflypt(b)
        assert p == old
        assert str(p) == str(old)
        assert p.a_coefficients() == old.a_coefficients()


def test_coefficient_with_a_is_rejected():
    """A coefficient holding a, or a non-integer one (the packed rows hold
    Z[q^+-1] only), raises in every kernel entry point."""
    for c in (qa_poly({(1, 1): QQ(1)}), qpoly({0: QQ(1, 2)})):
        x = HeckeElement.basis(2, Permutation.identity(2), c)
        with pytest.raises(ValueError):
            x.mul_gen(1)
        with pytest.raises(ValueError):
            x.mul_gen_inv(1)
        with pytest.raises(ValueError):
            HeckeElement.unit(2) * x
        with pytest.raises(ValueError):
            trace_ocneanu(x)


def test_trace_normalization_and_markov():
    one = qpoly({0: QQ(1)})
    assert trace_ocneanu(HeckeElement.unit(1)) == (one,)
    assert trace_ocneanu(HeckeElement.unit(3)) == (one,)
    g = gen_image(1, 2)
    assert trace_ocneanu(g) == (0, one)  # z
    assert trace_ocneanu(HeckeElement(2)) == ()


def test_markov_property_of_the_trace():
    """tr(b g_n) = z tr(b) and tr(b g_n^-1) = (z - (q - q^-1)) tr(b) for a
    word b on n strands read on n + 1 strands, coefficient by coefficient
    in z."""
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(1, 5)
        letters = tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                        for _ in range(rng.randint(0, 8) if n > 1 else 0))
        tr_b = trace_ocneanu(from_braid(BraidWord(n, letters)))
        up = trace_ocneanu(from_braid(BraidWord(n + 1, letters + (n,))))
        down = trace_ocneanu(from_braid(BraidWord(n + 1, letters + (-n,))))
        assert up == (0,) + tr_b
        s_tr_b = tuple(S_ATOM * p for p in tr_b) + (0,)
        assert down == tuple(x - y for x, y in zip(up, s_tr_b))


def test_trace_is_central_on_h3():
    rng = random.Random(5)
    perms = [Permutation(p).images for p in
             itertools.permutations(range(3))]
    for _ in range(12):
        x = HeckeElement(3)
        y = HeckeElement(3)
        for w in perms:
            if rng.random() < 0.4:
                x = x + HeckeElement.basis(3, Permutation(w),
                                           qpoly({rng.randint(-2, 2): QQ(rng.randint(-3, 3))}))
            if rng.random() < 0.4:
                y = y + HeckeElement.basis(3, Permutation(w),
                                           qpoly({rng.randint(-2, 2): QQ(rng.randint(1, 3))}))
        assert trace_ocneanu(x * y) == trace_ocneanu(y * x)


def test_homflypt_golden_values():
    unknot = homflypt(BraidWord(1, ()))
    assert unknot == InvariantValue(LOOP, 1)
    unlink2 = homflypt(BraidWord(2, ()))
    assert unlink2 == InvariantValue(LOOP * LOOP, 2)
    # trefoil: hand computation D^2 a^-3 (s + (1 + s^2) z) reduced, with
    # D z = a: D^2 a^-3 s + D a^-2 (1 + s^2), over s^2
    trefoil = homflypt(parse_braid("1 1 1"))
    one = LaurentPoly.const(REG_QA, 1)
    byhand = (LOOP * LOOP * A ** -3 * S_ATOM
              + LOOP * A ** -2 * (one + S_ATOM * S_ATOM) * S_ATOM)
    assert trefoil == InvariantValue(byhand, 2)
    # equals D * (a^-2 q^2 + a^-2 q^-2 - a^-4)
    poly = qa_poly({(2, -2): QQ(1), (-2, -2): QQ(1), (0, -4): QQ(-1)})
    assert trefoil == InvariantValue(LOOP * poly, 1)


def test_invariant_reduction_contract():
    p = homflypt(parse_braid("1 1"))
    assert p.s_exp == parse_braid("1 1").component_count()
    coeffs = p.a_coefficients()
    assert all(set(c) == {"a_exp", "coeff_num", "denom_s_exp"}
               for c in coeffs)


def test_mirror_symmetry():
    rng = random.Random(3)
    for _ in range(10):
        b = random_braid(rng)
        assert homflypt(b.mirror()) == homflypt(b).swap_inverse()


def test_markov_moves_exact():
    rng = random.Random(1)
    for _ in range(10):
        b = random_braid(rng)
        p = homflypt(b)
        assert homflypt(b.rotate(rng.randint(0, max(0, len(b) - 1)))) == p
        assert homflypt(b.stabilize(1)) == p
        assert homflypt(b.stabilize(-1)) == p


def test_skein_relation_exact():
    rng = random.Random(2)
    for _ in range(10):
        b = random_braid(rng)
        pos = rng.randint(0, len(b))
        i = rng.randint(1, b.strands - 1)
        plus = BraidWord(b.strands, b.letters[:pos] + (i,) + b.letters[pos:])
        minus = BraidWord(b.strands, b.letters[:pos] + (-i,) + b.letters[pos:])
        p, m, z = homflypt(plus), homflypt(minus), homflypt(b)
        # a P_+ - a^-1 P_- = s P_0, cross-multiplied by s^(k_+ + k_- + k_0)
        k = p.s_exp + m.s_exp + z.s_exp
        lhs = (A * p.num * S_ATOM ** (k - p.s_exp)
               - A ** -1 * m.num * S_ATOM ** (k - m.s_exp))
        assert lhs == z.num * S_ATOM ** (k + 1 - z.s_exp)


def test_skein_holds_negative_control():
    """``verify._skein_holds`` accepts the real skein triple and rejects it
    with P_+ and P_- swapped, or with the factor s on P_0 dropped.  The
    swap leaves the relation intact exactly when P_+ = P_- (at a nugatory
    crossing, for instance), so it is checked on the other cases, which
    must be at least half of the sample."""
    rng = random.Random(13)
    swapped = 0
    for _ in range(20):
        b = random_braid(rng)
        pos = rng.randint(0, len(b))
        i = rng.randint(1, b.strands - 1)
        plus, minus = (homflypt(BraidWord(b.strands, b.letters[:pos] + (g,)
                                          + b.letters[pos:]))
                       for g in (i, -i))
        zero = homflypt(b)
        assert _skein_holds(plus, minus, zero)
        if plus != minus:
            swapped += 1
            assert not _skein_holds(minus, plus, zero)
        # P_0 / s in place of P_0: the helper then compares with P_0 itself
        assert not _skein_holds(plus, minus,
                                InvariantValue(zero.num, zero.s_exp + 1))
    assert swapped >= 10


def test_jm_images_commute():
    for n in range(2, 5):
        images = [from_braid(jm_element(i, n)) for i in range(1, n)]
        for x, y in itertools.combinations(images, 2):
            assert x * y == y * x


def test_torus_knot_alexander_specialization():
    """T(3,4) at a = 1 reproduces its Alexander polynomial exactly."""
    p = homflypt(parse_braid("1 2 1 2 1 2 1 2", strands=3))
    reduced = p.num.exact_div(LOOP)
    assert reduced is not None and p.s_exp == 1
    at_a1 = reduced.substitute({"a": qa_poly({(0, 0): QQ(1)})})
    expected = qa_poly({(6, 0): QQ(1), (4, 0): QQ(-1), (0, 0): QQ(1),
                        (-4, 0): QQ(-1), (-6, 0): QQ(1)})
    assert at_a1 == expected


def test_trefoil_jones_specialization():
    """The right trefoil at a = q^-2 is its Jones polynomial in t = q^-2."""
    p = homflypt(parse_braid("1 1 1"))
    reduced = p.num.exact_div(LOOP)
    assert reduced is not None
    at_jones = reduced.substitute({"a": qa_poly({(-2, 0): QQ(1)})})
    expected = qa_poly({(6, 0): QQ(1), (2, 0): QQ(1), (8, 0): QQ(-1)})
    assert at_jones == expected


def test_connected_sum_multiplicativity():
    def times(x, y_num, y_s_exp):
        return InvariantValue(x.num * y_num, x.s_exp + y_s_exp)

    t = homflypt(parse_braid("1 1 1"))
    granny = homflypt(parse_braid("1 1 1 2 2 2", strands=3))
    assert times(granny, LOOP, 1) == times(t, t.num, t.s_exp)
    square = homflypt(parse_braid("1 1 1 -2 -2 -2", strands=3))
    mirrored = homflypt(parse_braid("-1 -1 -1"))
    assert times(square, LOOP, 1) == times(t, mirrored.num, mirrored.s_exp)


GOLDEN = pathlib.Path(__file__).parent / "golden"


def _golden_braids():
    yield "full_twist(5)", full_twist(5)
    yield "full_twist(6)", full_twist(6)
    for e in ((1, 2, 1, 2), (2, 1, 2, 1), (2, 2, 2, 2)):
        yield f"jm_power_braid({list(e)}, 5)", jm_power_braid(list(e), 5)
    rng = random.Random("trace golden corpus")
    for _ in range(100):
        yield "random", random_braid(rng, max_strands=5, max_length=10)


def test_trace_invariants_golden():
    """str() and a_coefficients() of homflypt on the full twists, the
    5-strand JM power braids and a seeded corpus, pinned verbatim."""
    dump = []
    for name, b in _golden_braids():
        p = homflypt(b)
        dump.append({"name": name, "braid": b.to_json(), "homflypt": str(p),
                     "a_coefficients": p.a_coefficients()})
    out = json.dumps(dump, indent=1) + "\n"
    path = GOLDEN / "trace_invariants.json"
    if os.environ.get("KNOTMF_REGOLD") == "1":
        path.write_text(out)
    assert path.read_text() == out, "golden mismatch for trace invariants"


def test_full_twist7_golden():
    """str() and a_coefficients() of homflypt(full_twist(7)), pinned
    verbatim: 42 letters on 5,040 rows, one past the CLI strand cap."""
    b = full_twist(7)
    p = homflypt(b)
    out = json.dumps({"name": "full_twist(7)", "braid": b.to_json(),
                      "homflypt": str(p),
                      "a_coefficients": p.a_coefficients()}, indent=1) + "\n"
    path = GOLDEN / "full_twist7.json"
    if os.environ.get("KNOTMF_REGOLD") == "1":
        path.write_text(out)
    assert path.read_text() == out, "golden mismatch for full_twist(7)"
