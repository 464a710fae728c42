import json
import os
import pathlib
import subprocess
import sys

import pytest

from knotmf.mf import (CEPresentation, CHI1, CHI2, GradedTwist, KoszulMF,
                       Mat2, PotentialMismatch, REG_CONV, REG_K, REG_X2,
                       blob_square_q_form, ce_homology_rank2,
                       convolution_n2, extend_koszul,
                       extract_middle, kclass, koszul, kreduce,
                       ktheory_identity, ktheory_inverse_identity,
                       named_mf, standard_presentation, twisted_lower_entry,
                       verify_suite, _chart_full_a, _expected_display_rows,
                       _reducer_conv)
from knotmf.ring import (LaurentPoly, QuotientReducer, ResourceLimit,
                         VarRegistry, QQ)

GOLDEN = pathlib.Path(__file__).parent / "golden"

REG_XY = VarRegistry.make([("x", 0, 0), ("y", 0, 0)])
X = LaurentPoly.var(REG_XY, "x")
Y = LaurentPoly.var(REG_XY, "y")


def test_koszul_examples():
    k5 = koszul([(X ** 2, X ** 3)], X ** 5, REG_XY)
    ok, _ = k5.check_square()
    assert ok
    kxy = koszul([(X, Y)], X * Y, REG_XY)
    ok, _ = kxy.check_square()
    assert ok
    with pytest.raises(PotentialMismatch):
        koszul([(X, Y)], X + Y, REG_XY)


def test_check_square_witness():
    m = koszul([(X, Y)], X * Y, REG_XY).materialize()
    bad = m.perturb("d0", 0, 0)
    ok, witness = bad.check_square()
    assert not ok and witness is not None


def test_tensor():
    kxy = koszul([(X, Y)], X * Y, REG_XY, name="xy")
    k5 = koszul([(X ** 2, X ** 3)], X ** 5, REG_XY, name="x5")
    t = kxy.tensor(k5)
    assert t.potential == X * Y + X ** 5
    ok, _ = t.check_square()
    assert ok
    unit = KoszulMF(REG_XY, [], LaurentPoly.zero(REG_XY))
    t2 = kxy.tensor(unit)
    assert t2.rows == kxy.rows and t2.potential == kxy.potential


def test_extend_koszul():
    k = extend_koszul([X], [X ** 4], X ** 5, REG_XY)
    assert k.rows == [(X ** 4, X)]
    ok, _ = k.check_square()
    assert ok
    zero = LaurentPoly.zero(REG_XY)
    folded = extend_koszul([X, Y], [zero, zero], zero, REG_XY)
    assert folded.potential.is_zero()
    with pytest.raises(PotentialMismatch):
        extend_koszul([X, Y], [Y, Y], X * Y, REG_XY)


def test_row_transform_round_trip():
    m = koszul([(X, Y), (Y, X)], 2 * X * Y, REG_XY)
    p = X + 1
    there = m.row_transform(0, 1, p)
    assert there.potential == m.potential
    back = there.row_transform(0, 1, -1 * p)
    assert back.rows == m.rows
    ident = m.row_transform(0, 1, LaurentPoly.zero(REG_XY))
    assert ident.rows == m.rows
    with pytest.raises(ValueError):
        m.row_transform(0, 0, p)


def test_row_transform_grading_check():
    """With a_j = 0, theta_j is graded by b_j; p * a_i of another weight
    changes it.  Only the changed rows are graded: an inhomogeneous row
    elsewhere does not hide the change, an inhomogeneous p skips the check."""
    reg = VarRegistry.make([("x", 2, 0), ("y", -2, -2), ("w", 0, 0)])
    x, y, w = (LaurentPoly.var(reg, n) for n in "xyw")
    zero = LaurentPoly.zero(reg)
    for rows in ([(x, y), (zero, y)], [(x, y), (zero, y), (x + w, y)]):
        m = koszul(rows, sum((a * b for a, b in rows), zero), reg)
        with pytest.raises(AssertionError, match="changed theta weights"):
            m.row_transform(0, 1, x)
        out = m.row_transform(0, 1, x + 1)
        assert out.rows[1] == (x * x + x, y)


def test_eliminate_unit_row():
    one = LaurentPoly.const(REG_XY, 1)
    m = koszul([(one, X * Y), (X, Y)], X * Y + X * Y, REG_XY)
    out = m.eliminate_row(0, "unit")
    assert out.rows == [(X, Y)] and out.potential == X * Y
    assert out.audit[-1]["op"] == "eliminate_row"


def test_eliminate_coordinate_row():
    # the (0, y2)-shaped row: honest restriction
    reg = VarRegistry.make([("x", 0, 0), ("y", 0, 0), ("w", 0, 0)])
    x, y, w = (LaurentPoly.var(reg, n) for n in "xyw")
    m = koszul([(LaurentPoly.zero(reg), y), (x, w)], x * w, reg)
    out = m.eliminate_row(0, "coordinate", var="y")
    assert out.rows == [(x, w)]
    assert out.audit[-1]["params"]["flag"] == "restriction"


def test_knorrer_pair_elimination():
    # K[x, y] on Z0 x C^2 contracts to the base
    reg = VarRegistry.make([("x", 0, 0), ("y", 0, 0), ("u", 0, 0),
                            ("v", 0, 0)])
    x, y, u, v = (LaurentPoly.var(reg, n) for n in "xyuv")
    m = koszul([(u, v), (x, y)], u * v + x * y, reg)
    out = m.eliminate_row(1, "coordinate", var="x",
                          expect_zero_partner=False)
    assert out.rows == [(u, v)] and out.potential == u * v
    assert out.audit[-1]["params"]["flag"] == "pushforward_inverse"


def test_named_presentations_square_and_grading():
    for kind in ("C_par", "C_dot", "C_plus", "C_minus"):
        m = standard_presentation(kind)
        ok, witness = m.check_square()
        assert ok, witness
        assert m.check_homogeneous()


def test_c_minus_default_twist():
    m = standard_presentation("C_minus")
    assert m.twist.left == (-1, 0) and m.twist.right == (0, 1)


def test_conjugation_oracle():
    # Ad_{g^-1} X against the hand identity: (g^-1 X g)_{21} = -f(g, X)
    reg = REG_X2
    red = QuotientReducer.det_one(reg, "a")
    x = Mat2.traceless_x(reg)
    g = Mat2.group(reg, "a")
    xp = x.conjugate_by_inverse(g).map_entries(red.normal_form)
    f = twisted_lower_entry(reg, "a", x)
    assert red.normal_form(xp.e21 + f).is_zero()
    assert red.normal_form(g.det()) == LaurentPoly.const(reg, 1)


def test_row_transform_matches_display():
    """The first simplification of the blob square tensor product."""
    reg, red = REG_CONV, _reducer_conv()
    x = Mat2.traceless_x(reg)
    xp = x.conjugate_by_inverse(Mat2.group(reg, "a")).map_entries(red.normal_form)
    left = named_mf("C_dot", reg, x, "a", "y1", "y2", red)
    right = named_mf("C_dot", reg, xp, "b", "y2", "y3", red)
    big = left.tensor(right)
    v = lambda n: LaurentPoly.var(reg, n)
    s = big.row_transform(0, 1, -(v("a11") ** 2))
    s = s.row_transform(2, 3, -(v("b11") ** 2))
    expected = _expected_display_rows()["theta_cleared"]
    assert s.rows_repr() == expected


def test_ce_homology_rank2():
    reg = VarRegistry.make([("a11", 0, 0), ("a12", 0, 0),
                            ("a21", 0, 0), ("a22", 0, 0)])
    delta = CEPresentation(reg, ["a11", "a12", "a21", "a22"], {
        "a12": -LaurentPoly.var(reg, "a11"),
        "a22": -LaurentPoly.var(reg, "a21")})
    hom = ce_homology_rank2(delta, 3)
    # kernel = polynomials in a11, a21 together with det-multiples
    for d in range(4):
        h0, h1 = hom[d]
        col_dim = d + 1            # monomials a11^i a21^(d-i)
        det_dim = d - 1 if d >= 2 else 0
        assert len(h0) == col_dim + det_dim
        assert len(h1) == len(delta.monomial_basis(d)) - \
            (len(delta.monomial_basis(d)) - len(h1))
    # zero derivation: kernel and cokernel are everything
    triv = CEPresentation(reg, ["a11", "a12"], {})
    h = ce_homology_rank2(triv, 2)
    for d, (h0, h1) in h.items():
        full = len(triv.monomial_basis(d))
        assert len(h0) == full and len(h1) == full


def test_weight_one_invariant_part():
    """(H^0 x chi_1)^T = <a11, a21> in the full middle chart."""
    chart = _chart_full_a()
    hits = extract_middle(chart, (1, 0), None, degree_bound=4)
    monos = sorted(str(h) for h, _, _, _ in hits)
    assert monos == ["a11", "a21"]


def test_blob_square_pipeline():
    tw = GradedTwist.of_chars((0, 0), CHI1)
    res = convolution_n2("C_dot", "C_dot", tw, tw)
    got = {(k, t.left, t.right) for k, t in res.summands}
    assert got == {("C_dot", (1, 0), (1, 0)), ("C_dot", (0, 1), (1, 0))}
    # every displayed intermediate reproduced
    exp = _expected_display_rows()
    for key, rows in exp.items():
        assert res.displays[key] == rows, key
    # audit log replays the pipeline
    ops = [e["op"] for e in res.audit]
    assert "row_transform" in ops and "eliminate_row" in ops
    assert ops[-1] == "middle_contract"
    assert all("state" in e for e in res.audit)


def test_certifier_rejects_nontrivial_action():
    chart = _chart_full_a()
    v = lambda n: LaurentPoly.var(chart.registry, n)
    with pytest.raises(AssertionError, match="acts nontrivially"):
        extract_middle(chart, (1, 0), v("a11") * v("a22"), 4)


def test_middle_weight_too_deep_is_a_resource_limit():
    with pytest.raises(ResourceLimit, match="too deep"):
        extract_middle(_chart_full_a(), (3, 0), None, degree_bound=4)


def test_certifier_rejects_inexact_differential():
    chart = _chart_full_a()
    a12 = LaurentPoly.var(chart.registry, "a12")
    with pytest.raises(AssertionError, match="not exact"):
        extract_middle(chart, (1, 0), a12, 4)


def test_convolution_reports_golden():
    """Reports (audit state hashes included), base rows and displays of the
    supported pairs, untwisted and twisted, pinned verbatim."""
    tw = GradedTwist.of_chars((0, 0), CHI1)
    cases = [("C_dot", "C_dot", None, None), ("C_par", "C_dot", None, None),
             ("C_dot", "C_par", None, None), ("C_par", "C_par", None, None),
             ("C_dot", "C_dot", tw, tw),
             ("C_par", "C_dot", GradedTwist.zero(2), tw)]
    dump = []
    for case in cases:
        res = convolution_n2(*case)
        dump.append({"report": res.report(), "base_rows": res.base_rows,
                     "displays": res.displays})
    out = json.dumps(dump, indent=1) + "\n"
    path = GOLDEN / "convolution_reports.json"
    if os.environ.get("KNOTMF_REGOLD") == "1":
        path.write_text(out)
    assert path.read_text() == out, "golden mismatch for convolution reports"


def test_import_leaves_hashlib_unloaded():
    """hashlib (it loads OpenSSL) is imported by the first state_hash, not
    by importing the module."""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, knotmf.mf; print('hashlib' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "False"


def test_blob_square_q_form():
    shifts, _ = blob_square_q_form()
    assert shifts == [4, 2]


def test_unit_laws():
    for kind in ("C_par", "C_dot"):
        left = convolution_n2("C_par", kind)
        assert left.summands == [(kind, GradedTwist.zero(2))]
        right = convolution_n2(kind, "C_par")
        assert right.summands == [(kind, GradedTwist.zero(2))]


def test_unit_law_with_twist():
    tw = GradedTwist.of_chars((0, 0), CHI1)
    res = convolution_n2("C_par", "C_dot", GradedTwist.zero(2), tw)
    assert len(res.summands) == 1
    kind, t = res.summands[0]
    assert kind == "C_dot" and t.right == (1, 0)


def test_kclass_identities():
    assert ktheory_identity()
    assert not ktheory_identity(perturb=True)
    assert ktheory_inverse_identity()
    k = kclass(standard_presentation("C_par"))

    def mono(**e):
        return LaurentPoly.monomial(REG_K, e)

    assert kreduce(k) == (mono(U1=2, V1=-2) + mono(q=-2, U1=-1, V1=1)
                          + mono() + mono(q=-2, U1=1, V1=-1))


def test_kclass_additive_on_sums():
    k1 = kclass(standard_presentation("C_dot"))
    tw = GradedTwist.of_chars(CHI1, CHI2)
    k2 = kclass(standard_presentation("C_dot", tw))
    from knotmf.mf import twist_monomial
    assert k2 == twist_monomial(tw) * k1


def test_verify_suite_passes():
    report = verify_suite()
    assert report["status"] == "pass", report


def test_verify_suite_reports_failed_blob_square(monkeypatch):
    def broken(*args, **kwargs):
        raise ArithmeticError("broken convolution")

    monkeypatch.setattr("knotmf.mf.convolution_n2", broken)
    steps = {s["step"]: s for s in verify_suite()["steps"]}
    for name in ("blob_square_pipeline", "blob_square_q_form"):
        assert steps[name]["status"] == "fail"
        assert steps[name]["witness"] == "broken convolution"


def test_extend_koszul_degenerate_presentation():
    zero = LaurentPoly.zero(REG_XY)
    k = extend_koszul([X, Y], [Y, zero], X * Y, REG_XY)
    assert k.rows == [(Y, X), (zero, Y)]
    ok, _ = k.check_square()
    assert ok


def test_kclass_of_direct_sum_is_sum():
    pieces = [standard_presentation("C_dot"),
              standard_presentation("C_dot", GradedTwist.of_chars(CHI1, CHI1))]
    total = kclass(pieces[0]) + kclass(pieces[1])
    assert total == sum((kclass(p) for p in pieces[1:]), kclass(pieces[0]))
