import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from eddyfem.core import REFERENCE_INTEGRALS, Scheme
from eddyfem import fem1d, fem2d, ztransfer
from eddyfem.zpoly import Poly
from eddyfem.ztransfer import (Stability, UnsupportedStructureError, ZN, ZM, ZN_CIRCLE,
                               ZN_QUAD, ZN_SQUARE_PLUS, analyze, pole_certificates,
                               polys_2d, run_identity_checks, tf_1d, tf_2d,
                               transverse_denominator_poly)
from stencil_utils import GOLDEN_POLYS

GOLDEN_TERMS = {"S1": 9, "Q2": 6, "S2": 4, "S3": 9, "Q1": 6, "M1": 9, "R1": 6, "N1": 9}


def test_polys_match_reference_term_counts():
    p = polys_2d()
    for name, n in GOLDEN_TERMS.items():
        assert p[name].term_count() == n, name


def test_polys_2d_equals_the_golden_pin():
    # polys_2d reads the assembled patch; the coefficient lists are written
    # out only in the test helpers
    assert polys_2d() == GOLDEN_POLYS


def test_named_2d_factors_are_the_paper_polynomials():
    assert ZN_QUAD == Poly.univariate(ZN, [1, 4, 1])
    assert ZN_SQUARE_PLUS == Poly.univariate(ZN, [1, 2, 1])


def test_s1_and_q2_vanish_at_unit_point():
    p = polys_2d()
    assert p["S1"].eval(Z_n=1, Z_m=1) == 0
    assert p["Q2"].eval(Z_n=1, Z_m=1) == 0


def test_n1_is_the_squared_product():
    built = (Poly.univariate(ZN, [1, 2, 1]).map_variables((ZN, ZM), 0)
             * Poly.univariate(ZM, [1, 2, 1]).map_variables((ZN, ZM), 1))
    assert polys_2d()["N1"] == built


# ---------------------------------------------------------------------------
# 1D transfer function


def tf_1d_at(scheme, pe, dz=1):
    """The exact 1D transfer function at a finite Pe, (numerator,
    denominator): the load of fem1d.exact_stencil times dz over its row."""
    lhs, load = fem1d.exact_stencil(Fraction(pe), scheme)
    return Poly.univariate("Z", load) * Fraction(dz), Poly.univariate("Z", lhs)


def test_tf1d_galerkin_high_pe_limit():
    num, den = tf_1d(Scheme.GALERKIN)
    # (1/3)(Z^2 + 4Z + 1) / (Z^2 - 1)
    assert num == Poly.univariate("Z", [Fraction(1, 3), Fraction(4, 3), Fraction(1, 3)])
    assert den == Poly.univariate("Z", [-1, 0, 1])
    rep = analyze(num, den)
    zeros = sorted(z.location.real for z in rep.zeros)
    assert zeros[0] == pytest.approx(-2 - math.sqrt(3), abs=1e-12)
    assert zeros[1] == pytest.approx(-2 + math.sqrt(3), abs=1e-12)
    # two-decimal match with the conventional rounding of the limit zeros
    assert round(zeros[1], 2) == -0.27 and round(zeros[0], 2) == -3.73
    assert rep.classification is Stability.OSCILLATORY_MARGINAL


def test_tf1d_averaged_high_pe_limit_cancels_minus_one():
    num, den = tf_1d(Scheme.ELEMENT_AVERAGED)
    assert num == Poly.univariate("Z", [Fraction(1, 2), 1, Fraction(1, 2)])
    rep = analyze(num, den)
    assert any(c.exact and c.location == -1 for c in rep.cancelled_pairs)
    assert [p.location for p in rep.poles] == [1 + 0j]
    assert rep.classification is Stability.MARGINALLY_STABLE


def test_tf1d_averaged_pe2_denominator_root():
    _, den = tf_1d_at(Scheme.ELEMENT_AVERAGED, 2.0, 0.25)
    assert den.eval(Z=-3) == 0   # r = (-1-2)/(-1+2) = -3
    assert den.eval(Z=1) == 0


def test_tf1d_denominator_factors_as_unit_and_growth_root():
    for pe in (Fraction(3, 2), Fraction(7), Fraction(200)):
        _, den = tf_1d_at(Scheme.GALERKIN, pe)
        r = Fraction(-1 - pe, -1 + pe)
        assert den.eval(Z=1) == 0
        assert den.eval(Z=r) == 0


def test_tf1d_reads_the_fem1d_element_table(monkeypatch):
    # the finite-Pe numerator is dz * 2 Pe * (folded weights), the
    # denominator the folded stencil (-1-Pe, 2, -1+Pe)
    pe, dz = Fraction(7, 2), Fraction(1, 4)
    for scheme, shape in ((Scheme.GALERKIN, [1, 4, 1]), (Scheme.ELEMENT_AVERAGED, [1, 2, 1])):
        num, den = tf_1d_at(scheme, pe, dz)
        assert num == Poly.univariate("Z", shape) * (2 * pe * dz / sum(shape))
        assert den == Poly.univariate("Z", [-1 - pe, 2, -1 + pe])
    # an element mean that weighs the two nodes unequally, int N = (1/3, 2/3)
    # in the shared table, folds the averaged weights to (2, 5, 2)/9 and
    # loses the Z = -1 cancellation
    monkeypatch.setitem(REFERENCE_INTEGRALS, "integral", (Fraction(1, 3), Fraction(2, 3)))
    rep = analyze(*tf_1d(Scheme.ELEMENT_AVERAGED))
    assert rep.classification is Stability.OSCILLATORY_MARGINAL
    assert not rep.cancelled_pairs


def test_pole_certificates_count_exact_multiplicities():
    reports = pole_certificates()
    assert [r.name for r in reports] == [
        "galerkin high-Pe limit keeps Z = -1", "element-averaged high-Pe limit cancels Z = -1",
        "galerkin keeps the Z_n = -1 pole", "averaged cancels the Z_n = -1 pole"]
    assert all(r.ok for r in reports)
    assert [r.statements[1] for r in reports[:2]] == [
        "denominator (Z+1)^1 (Z-1)^1; numerator (Z+1)^0 (Z-1)^0",
        "denominator (Z+1)^1 (Z-1)^1; numerator (Z+1)^2 (Z-1)^0"]
    assert reports[3].statements[1] == ("averaged: det A ~ Pe^2 (Z_n+1)^2 (Z_n-1)^2; "
                                        "A_y numerator ~ Pe^1 (Z_n+1)^2 (Z_n-1)^2")


def test_pole_certificates_need_a_pole_to_cancel(monkeypatch):
    # an averaged 1D limit whose denominator has no (Z+1) factor cancels
    # nothing: its certificate fails instead of passing vacuously
    real = ztransfer.tf_1d

    def no_minus_one(scheme):
        num, den = real(scheme)
        if scheme is Scheme.ELEMENT_AVERAGED:
            return num, Poly.univariate("Z", [1, -2, 1])
        return num, den

    monkeypatch.setattr(ztransfer, "tf_1d", no_minus_one)
    reports = pole_certificates()
    assert [r.ok for r in reports] == [True, False, True, True]
    assert reports[1].statements[1] == "denominator (Z+1)^0 (Z-1)^2; numerator (Z+1)^2 (Z-1)^0"


@given(st.fractions(min_value=Fraction(11, 10), max_value=Fraction(500)))
def test_galerkin_pole_outside_circle_for_pe_above_one(pe):
    rep = analyze(*tf_1d_at(Scheme.GALERKIN, pe))
    r = Fraction(-1 - pe, -1 + pe)
    growth = [p for p in rep.poles if abs(p.location - complex(r)) < 1e-9]
    assert growth, "growth-ratio pole missing"
    assert abs(growth[0].location) > 1
    assert growth[0].location.real < 0
    assert rep.classification is Stability.UNSTABLE


@given(st.fractions(min_value=Fraction(11, 10), max_value=Fraction(500)))
def test_no_accidental_cancellation_at_finite_pe(pe):
    r = Fraction(-1 - pe, -1 + pe)
    g, _ = tf_1d_at(Scheme.GALERKIN, pe)
    assert g.eval(Z=r) != 0
    ea, _ = tf_1d_at(Scheme.ELEMENT_AVERAGED, pe)
    assert ea.eval(Z=r) != 0  # cancellation is only asymptotic


def test_averaged_cancellation_sharpens_with_pe():
    gaps = []
    for pe in (2, 10, 100, 1000):
        r = Fraction(-1 - pe, -1 + pe)
        gaps.append(abs(float(r) + 1.0))
    assert gaps == sorted(gaps, reverse=True)


def test_analyze_identity_ratio():
    p = Poly.univariate("Z", [Fraction(-1, 2), 1])
    rep = analyze(p, p)
    assert rep.poles == ()
    assert rep.zeros == ()
    assert any(abs(c.location - 0.5) < 1e-12 for c in rep.cancelled_pairs)


def test_analyze_rejects_non_separable():
    s1 = polys_2d()["S1"]
    with pytest.raises(UnsupportedStructureError):
        analyze(s1, s1 * 2 + s1 * s1)


# ---------------------------------------------------------------------------
# identities


def _identity(name):
    return {r.name: r for r in run_identity_checks()}[name]


def test_denominator_identity_exact():
    rep = _identity("denominator factorization")
    assert rep.ok
    assert rep.difference is None


def test_averaged_input_loses_the_pe2_numerator_term(monkeypatch):
    # the Pe^2 term of the averaged numerator is Q2 (S3*N1 - Q1*R1) / 288,
    # and S3*N1 and Q1*R1 coincide term for term, so the Pe^1 term leads
    p = polys_2d()
    assert p["S3"] * p["N1"] == p["Q1"] * p["R1"]
    g, a = tf_2d(Scheme.GALERKIN), tf_2d(Scheme.ELEMENT_AVERAGED)
    assert (g.denominator_pe_degree, g.numerator_pe_degree) == (2, 2)
    assert (a.denominator_pe_degree, a.numerator_pe_degree) == (2, 1)
    assert not a.numerator.is_zero()
    # doubling the phi-row input weight (R1) breaks the coincidence
    real = fem2d.exact_patch_rows

    def doubled_r1(pe, u, scheme):
        lhs, w = real(pe, u, scheme)
        return lhs, {0: {k: 2 * v for k, v in w[0].items()}, 1: w[1]}

    monkeypatch.setattr(fem2d, "exact_patch_rows", doubled_r1)
    t = tf_2d(Scheme.ELEMENT_AVERAGED)
    assert t.numerator_pe_degree == 2
    assert t.numerator == p["Q2"] * (p["S3"] * p["N1"] - p["Q1"] * p["R1"] * 2) * Fraction(1, 288)


def test_galerkin_numerator_identity_and_cofactor_equality():
    rep = _identity("consistent-mass numerator factorization")
    assert rep.ok
    assert rep.cofactor == transverse_denominator_poly()


def test_n1_factorization_check():
    assert _identity("N1 factorization").ok


def perturb_averaged_a_y_weight(monkeypatch):
    """Make fem2d.exact_patch_rows give the averaged A_y row (N1 = 8 w[1]
    at Pe = u = 1) one more unit of weight at the centre node."""
    real = fem2d.exact_patch_rows

    def perturbed(pe, u, scheme):
        lhs, w = real(pe, u, scheme)
        if scheme is Scheme.ELEMENT_AVERAGED:
            w = {**w, 1: {**w[1], (1, 1): w[1][(1, 1)] + Fraction(1, 8)}}
        return lhs, w

    monkeypatch.setattr(fem2d, "exact_patch_rows", perturbed)


def test_identity_negative_control_perturbed_n1(monkeypatch):
    perturb_averaged_a_y_weight(monkeypatch)
    assert polys_2d()["N1"] == GOLDEN_POLYS["N1"] + Poly((ZN, ZM), {(1, 1): 1})
    reports = run_identity_checks()
    assert [r.name for r in reports if not r.ok] == ["N1 factorization"]
    named = reports[-1]
    assert not named.ok and not named.difference.is_zero()


def test_identity_checks_extract_the_stencils_once(monkeypatch):
    calls = []
    real = fem2d.exact_patch_rows
    monkeypatch.setattr(fem2d, "exact_patch_rows",
                        lambda *a, **k: calls.append(a[2]) or real(*a, **k))
    assert all(r.ok for r in run_identity_checks())
    assert calls == [Scheme.GALERKIN, Scheme.ELEMENT_AVERAGED]   # one polys_2d


def test_denominator_identity_spot_values():
    p = polys_2d()
    lhs = p["S3"] * p["Q2"] * 2 - p["Q1"] * p["S2"] * 3
    # factor Z_n^2 - 1 forces zeros along Z_n = 1 regardless of Z_m
    for zm in (Fraction(0), Fraction(2), Fraction(-5, 3)):
        assert lhs.eval(Z_n=1, Z_m=zm) == 0
    rhs_spot = (Fraction(2) ** 2 + 4 * Fraction(2) + 1) * (Fraction(2) ** 2 - 1) \
        * transverse_denominator_poly().eval(Z_m=Fraction(3))
    assert lhs.eval(Z_n=2, Z_m=3) == rhs_spot


# ---------------------------------------------------------------------------
# 2D transfer functions


def _bivar(p):
    return p.map_variables((ZN, ZM), 0 if p.variables == (ZN,) else 1)


def _vanishes_at(q, a):
    # q with its first variable set to a is the zero polynomial (in the other
    # variable, if any)
    at_a = {}
    for k, c in q.coeffs.items():
        at_a[k[1:]] = at_a.get(k[1:], 0) + c * a ** k[0]
    return not any(at_a.values())


@given(st.integers(0, 4), st.sampled_from([-1, 1, Fraction(1, 2)]), st.booleans(),
       st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                       st.integers(-5, 5), min_size=1, max_size=6))
def test_multiplicity_counts_the_factors_put_in(k, a, bivariate, coeffs):
    # (v - a)^k q has multiplicity exactly k at a when q(a) != 0
    if bivariate:
        q = Poly((ZN, ZM), coeffs)
        v = Poly((ZN, ZM), {(1, 0): 1})
    else:
        q = Poly((ZN,), {(i,): c for (i, _), c in coeffs.items()})
        v = Poly.univariate(ZN, [0, 1])
    if q.is_zero() or _vanishes_at(q, a):
        return
    assert ztransfer._multiplicity((v - a) ** k * q, a) == k


def test_tf2d_galerkin_keeps_oscillatory_pole():
    t = tf_2d(Scheme.GALERKIN)
    assert t.zn_multiplicities == {-1: (2, 1), 1: (2, 1)}   # a pole at Z_n = -1 and at 1
    assert ztransfer._multiplicity(t.denominator, Fraction(1, 2)) == 0   # none at 1/2
    # the leading ratio is (Z_n^2+4Z_n+1) / (3 (Z_n^2-1)): the transverse
    # parts cancel
    assert t.numerator * _bivar(ZN_CIRCLE) * 3 == t.denominator * _bivar(ZN_QUAD)


def test_tf2d_averaged_cancels_oscillatory_pole():
    t = tf_2d(Scheme.ELEMENT_AVERAGED)
    assert t.zn_multiplicities == {-1: (2, 2), 1: (2, 2)}   # no pole at Z_n = -1 or 1
    # the matrix does not depend on the scheme
    assert t.denominator == tf_2d(Scheme.GALERKIN).denominator
    # the leading ratio is 3 (Z_m+1)^2 S1 / ((Z_m-1)^4 (Z_n^2+4Z_n+1)): no
    # Z_n = +-1 pole is left, and it does not separate
    zm_plus = _bivar(Poly.univariate(ZM, [1, 2, 1]))
    assert (t.numerator * _bivar(transverse_denominator_poly()) * _bivar(ZN_QUAD)
            == t.denominator * zm_plus * polys_2d()["S1"] * -3)


def test_tf2d_rejects_a_stencil_not_affine_in_pe(monkeypatch):
    # a Pe^2 term on the A_y-A_y centre entry would otherwise certify a
    # det A ~ Pe^3 with wrong multiplicities; the split checks it at Pe = 3
    real = fem2d.exact_patch_rows

    def bent(pe, u, scheme):
        lhs, w = real(pe, u, scheme)
        centre = lhs[1, 1]
        return {**lhs, (1, 1): {**centre, (1, 1): centre[1, 1] + Fraction(pe) ** 2}}, w

    monkeypatch.setattr(fem2d, "exact_patch_rows", bent)
    for scheme in Scheme:
        with pytest.raises(UnsupportedStructureError,
                           match="^the A_y-row A_y stencil is not affine in Pe$"):
            tf_2d(scheme)


def test_tf1d_limit_rejects_a_row_not_affine_in_pe(monkeypatch):
    real = fem1d.exact_stencil

    def bent(pe, scheme):
        (left, centre, right), load = real(pe, scheme)
        return (left, centre + Fraction(pe) ** 2, right), load

    monkeypatch.setattr(fem1d, "exact_stencil", bent)
    with pytest.raises(UnsupportedStructureError, match="^the row stencil is not affine in Pe$"):
        tf_1d(Scheme.GALERKIN)
    # a finite Pe reads the row as it is
    assert tf_1d_at(Scheme.GALERKIN, 3)[1] == Poly.univariate("Z", [-4, 11, 2])


def test_tf2d_zero_numerator_raises_instead_of_looping():
    t = tf_2d(Scheme.GALERKIN)
    with pytest.raises(UnsupportedStructureError):
        ztransfer._multiplicities(t.denominator, Poly.zero((ZN, ZM)))


def test_tf2d_galerkin_rational_is_separable_and_analyzable():
    t = tf_2d(Scheme.GALERKIN)
    rep = analyze(t.numerator, t.denominator)
    zn_poles = sorted(p.location.real for p in rep.poles if p.variable == ZN)
    assert zn_poles == pytest.approx([-1.0, 1.0])
    assert not [p for p in rep.poles if p.variable == ZM]  # transverse parts cancel


def test_transverse_numerator_galerkin_value_at_zero():
    from eddyfem.ztransfer import transverse_numerator_poly_galerkin
    # 2*1*1 - 3*1 = -1 at Z_m = 0
    assert transverse_numerator_poly_galerkin().eval(Z_m=0) == -1


def test_high_pe_limit_consistent_with_large_finite_pe():
    lim = analyze(*tf_1d(Scheme.GALERKIN))
    fin = analyze(*tf_1d_at(Scheme.GALERKIN, 10 ** 7))
    lim_zeros = sorted(z.location.real for z in lim.zeros)
    fin_zeros = sorted(z.location.real for z in fin.zeros)
    assert lim_zeros == pytest.approx(fin_zeros, abs=1e-5)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_tf2d_matches_a_sympy_derivation(scheme):
    # an independent route: sympy determinants of the stencil matrix with a
    # symbolic Pe, each entry fitted through two patches and checked at a
    # third (the entries must be affine in Pe)
    import sympy   # a test dependency: a missing sympy fails here instead of skipping
    pe, zn, zm = sympy.symbols("Pe Z_n Z_m")
    q = lambda f: sympy.Rational(f.numerator, f.denominator)
    samples = [(Fraction(p), fem2d.exact_patch_rows(p, 1, scheme))
               for p in (Fraction(3, 2), 11, 40)]

    def entry(pick):
        (p0, s0), (p1, s1), (p2, s2) = [(p, pick(s)) for p, s in samples]
        expr = 0
        for k in set(s0) | set(s1) | set(s2):
            e0, e1, e2 = (Fraction(s.get(k, 0)) for s in (s0, s1, s2))
            slope = (e1 - e0) / (p1 - p0)
            assert e2 == e0 + slope * (p2 - p0), "stencil entry not affine in Pe"
            expr += (q(e0) + q(slope) * (pe - q(p0))) * zn ** k[0] * zm ** k[1]
        return expr

    a = sympy.Matrix(3, 3, lambda r, c: entry(lambda s: s[0].get((r, c), {})))
    cramer = a.copy()
    cramer[:, 1] = sympy.Matrix([entry(lambda s: s[1].get(r, {})) for r in range(3)])
    den = sympy.Poly(a.det(method="berkowitz"), pe)
    num = sympy.Poly(cramer.det(method="berkowitz"), pe)

    def multiplicity(expr, root):
        p, f, k = sympy.Poly(expr, zn, zm), sympy.Poly(zn - root, zn, zm), 0
        while True:
            quo, rem = sympy.div(p, f)
            if not rem.is_zero:
                return k
            p, k = quo, k + 1

    t = tf_2d(scheme)
    assert (den.degree(), num.degree()) == (t.denominator_pe_degree, t.numerator_pe_degree)
    assert t.zn_multiplicities == {
        r: (multiplicity(den.LC(), r), multiplicity(num.LC(), r)) for r in (-1, 1)}
    as_expr = lambda p: sum(q(c) * zn ** i * zm ** j for (i, j), c in p.coeffs.items())
    assert sympy.expand(den.LC() - as_expr(t.denominator)) == 0
    assert sympy.expand(num.LC() - as_expr(t.numerator)) == 0
