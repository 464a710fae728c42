import itertools
import json
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
from knotmf.scalars import REG_QA, S_ATOM, Scalar, qa_poly
from knotmf.verify import random_braid


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
    d = Scalar.loop_value()
    for b in _homflypt_inputs():
        value = Scalar.from_int(0)
        for k, p in enumerate(trace_ocneanu(from_braid(b))):
            term = Scalar(p).mul_monomial(a_exp=k - b.writhe())
            for _ in range(b.strands - k):
                term = d * term
            value = value + term
        old = InvariantValue(value)
        p = homflypt(b)
        assert p == old
        assert str(p) == str(old)
        assert p.a_coefficients() == old.a_coefficients()


def test_coefficient_with_a_is_rejected():
    x = HeckeElement.basis(2, Permutation.identity(2), qa_poly({(1, 1): QQ(1)}))
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
    assert unknot.value == Scalar.loop_value()
    unlink2 = homflypt(BraidWord(2, ()))
    assert unlink2.value == Scalar.loop_value() * Scalar.loop_value()
    # trefoil: hand computation D^2 a^-3 (s + (1 + s^2) z) reduced, with
    # D z = a: D^2 a^-3 s + D a^-2 (1 + s^2)
    trefoil = homflypt(parse_braid("1 1 1"))
    d, s = Scalar.loop_value(), Scalar(S_ATOM)
    byhand = ((d * d * s).mul_monomial(a_exp=-3)
              + (d * (Scalar.one() + s * s)).mul_monomial(a_exp=-2))
    assert trefoil.value == byhand.reduce()
    # equals D * (a^-2 q^2 + a^-2 q^-2 - a^-4)
    poly = qa_poly({(2, -2): QQ(1), (-2, -2): QQ(1), (0, -4): QQ(-1)})
    assert trefoil.value == d * Scalar(poly)


def test_invariant_reduction_contract():
    p = homflypt(parse_braid("1 1"))
    assert p.value.s_exp == parse_braid("1 1").component_count()
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
        lhs = (homflypt(plus).value.mul_monomial(a_exp=1)
               - homflypt(minus).value.mul_monomial(a_exp=-1))
        assert lhs == homflypt(b).value * Scalar(S_ATOM)


def test_jm_images_commute():
    for n in range(2, 5):
        images = [from_braid(jm_element(i, n)) for i in range(1, n)]
        for x, y in itertools.combinations(images, 2):
            assert x * y == y * x


def test_torus_knot_alexander_specialization():
    """T(3,4) at a = 1 reproduces its Alexander polynomial exactly."""
    p = homflypt(parse_braid("1 2 1 2 1 2 1 2", strands=3))
    reduced = p.value.num.exact_div(Scalar.loop_value().num)
    assert reduced is not None and p.value.s_exp == 1
    at_a1 = reduced.substitute({"a": qa_poly({(0, 0): QQ(1)})})
    expected = qa_poly({(6, 0): QQ(1), (4, 0): QQ(-1), (0, 0): QQ(1),
                        (-4, 0): QQ(-1), (-6, 0): QQ(1)})
    assert at_a1 == expected


def test_trefoil_jones_specialization():
    """The right trefoil at a = q^-2 is its Jones polynomial in t = q^-2."""
    p = homflypt(parse_braid("1 1 1"))
    reduced = p.value.num.exact_div(Scalar.loop_value().num)
    assert reduced is not None
    at_jones = reduced.substitute({"a": qa_poly({(-2, 0): QQ(1)})})
    expected = qa_poly({(6, 0): QQ(1), (2, 0): QQ(1), (8, 0): QQ(-1)})
    assert at_jones == expected


def test_connected_sum_multiplicativity():
    d = Scalar.loop_value()
    t = homflypt(parse_braid("1 1 1")).value
    granny = homflypt(parse_braid("1 1 1 2 2 2", strands=3)).value
    assert granny * d == t * t
    square = homflypt(parse_braid("1 1 1 -2 -2 -2", strands=3)).value
    mirrored = homflypt(parse_braid("-1 -1 -1")).value
    assert square * d == t * mirrored


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
