import math
from fractions import Fraction

import numpy as np
import pytest

from eddyfem import oracle
from eddyfem.core import Scheme
from eddyfem.fem1d import (_fold, assemble_1d, element_weights, exact_stencil,
                           rect_pulse_case, solve_1d)
from eddyfem.oracle import (OutOfValidityError, _particulars, analytic_solve,
                            growth_ratio, peak_error, peak_error_from_solution)
from eddyfem.ztransfer import peak_error_certificate

FIG8_CASES = [
    (Scheme.GALERKIN, 200.0, 0.20, 38, 12, 38),
    (Scheme.ELEMENT_AVERAGED, 2.0, 0.25, 30, 9, 30),
    (Scheme.ELEMENT_AVERAGED, 400.0, 0.17, 46, 15, 46),
]


def weighted_input(sol, scheme):
    """Three-node weighted nodal input of the rectangular pulse."""
    n = sol.node_count
    lo, hi = sol.pulse_node_range()
    bn = np.zeros(n)
    bn[lo:hi + 1] = sol.params.amplitude
    w = [float(c) for c in _fold(element_weights(scheme))]
    bt = np.zeros(n)
    bt[1:-1] = w[0] * bn[:-2] + w[1] * bn[1:-1] + w[2] * bn[2:]
    return bt


@pytest.mark.parametrize("scheme,pe,dz,m_b,m_c,m_d", FIG8_CASES)
def test_difference_equation_residual(scheme, pe, dz, m_b, m_c, m_d):
    sol = analytic_solve(pe, dz, 1.0, m_b, m_c, m_d, scheme)
    y = sol.nodal_values()
    bt = weighted_input(sol, scheme)
    lam = sol.params.lam
    r = np.empty(len(y) - 2)
    for n in range(1, len(y) - 1):
        lhs = (-1 - pe) * y[n - 1] + 2 * y[n] + (-1 + pe) * y[n + 1]
        r[n - 1] = lhs - 2 * pe * dz * bt[n]
    assert np.max(np.abs(r)) <= 1e-9 * abs(lam)


def test_residual_holds_for_both_schemes_generic_config():
    for scheme in Scheme:
        sol = analytic_solve(7.5, 0.3, 2.0, 20, 11, 25, scheme)
        y = sol.nodal_values()
        bt = weighted_input(sol, scheme)
        res = [(-1 - 7.5) * y[n - 1] + 2 * y[n] + (-1 + 7.5) * y[n + 1]
               - 2 * 7.5 * 0.3 * bt[n] for n in range(1, len(y) - 1)]
        assert np.max(np.abs(res)) <= 1e-9 * sol.params.lam


@pytest.mark.parametrize("scheme,pe,dz,m_b,m_c,m_d", FIG8_CASES)
def test_matches_fem_solution(scheme, pe, dz, m_b, m_c, m_d):
    sol = analytic_solve(pe, dz, 1.0, m_b, m_c, m_d, scheme)
    mesh, pe, profile = rect_pulse_case(pe, dz, m_b, m_c, m_d)
    fem = solve_1d(assemble_1d(mesh, pe, profile, scheme))
    y = sol.nodal_values()
    assert len(fem.a_y) == len(y)
    assert np.max(np.abs(fem.a_y - y)) <= 1e-8 * np.max(np.abs(y))


def test_boundary_conditions_of_closed_form():
    sol = analytic_solve(5.0, 0.2, 1.0, 15, 9, 18, Scheme.GALERKIN)
    assert sol.y_b(0) == pytest.approx(0.0, abs=1e-14)
    # downstream run is constant: zero-gradient outlet condition
    assert sol.y_d(sol.params.m_d) == sol.y_d(sol.params.m_d + 1)
    assert sol.constants["d2"] == 0.0
    assert sol.constants["b1"] == -sol.constants["b2"]


def test_continuity_at_junctions():
    sol = analytic_solve(3.0, 0.25, 1.0, 12, 8, 14, Scheme.ELEMENT_AVERAGED)
    p = sol.params
    assert sol.y_b(p.m_b) == pytest.approx(sol.y_f(0), rel=1e-12)
    assert sol.y_f(3) == pytest.approx(sol.y_c(0), rel=1e-12)
    assert sol.y_c(p.m_c) == pytest.approx(sol.y_g(0), rel=1e-12)
    assert sol.y_g(3) == pytest.approx(sol.y_d(0), rel=1e-12)


def test_rejects_low_peclet():
    with pytest.raises(OutOfValidityError):
        analytic_solve(1.0, 0.2, 1.0, 10, 8, 10, Scheme.GALERKIN)
    with pytest.raises(OutOfValidityError):
        analytic_solve(0.5, 0.2, 1.0, 10, 8, 10, Scheme.GALERKIN)


def test_peak_error_closed_forms():
    B = 1.0
    assert peak_error(Scheme.ELEMENT_AVERAGED, 2.0, B) == pytest.approx(-B / 27, rel=1e-14)
    assert peak_error(Scheme.ELEMENT_AVERAGED, 1.0, B) == 0.0
    assert peak_error(Scheme.GALERKIN, 1e6, B) == pytest.approx(B / 3, rel=1e-5)
    with pytest.raises(OutOfValidityError):
        peak_error(Scheme.GALERKIN, 0.9, B)


def test_peak_error_is_exact_for_fractions_and_keeps_its_float_bits():
    assert peak_error(Scheme.ELEMENT_AVERAGED, Fraction(2), 1) == Fraction(-1, 27)
    assert peak_error(Scheme.GALERKIN, Fraction(3), 3) == Fraction(3, 16)
    for pe in list(np.geomspace(1.0, 1e4, 97)) + [2, 7.5]:
        p = float(pe)
        assert peak_error(Scheme.ELEMENT_AVERAGED, pe, 0.7) == 0.7 * (1.0 - p) / (1.0 + p) ** 3
        assert peak_error(Scheme.GALERKIN, pe, 0.7) == \
            0.7 * (p * p - 3.0) * (p - 1.0) / (3.0 * (1.0 + p) ** 3)


@pytest.mark.parametrize("pe", [5e102, 1e103, 1e200, 1e300])
@pytest.mark.parametrize("scheme", list(Scheme))
def test_peak_error_stays_finite_and_exact_to_a_few_ulps_at_any_float_pe(scheme, pe):
    # past Pe ~ 3.9e102 the written-out 3 (1 + Pe)^3 overflows (to 0.0 for
    # Galerkin, then an OverflowError from 5.6e102); the ratio form there is
    # within 4 eps of the exact value of the Fraction path, or within one
    # subnormal step where that value underflows
    for amplitude in (1.0, 0.7, 1e10):
        got = peak_error(scheme, pe, amplitude)
        exact = peak_error(scheme, Fraction(pe), Fraction(amplitude))
        bound = 4 * Fraction(np.finfo(float).eps) * abs(exact) + Fraction(5e-324)
        assert math.isfinite(got) and abs(Fraction(got) - exact) <= bound, amplitude


def test_peak_error_from_constants_matches_closed_form():
    for pe in (2.0, 10.0, 100.0, 1000.0):
        for scheme in Scheme:
            sol = analytic_solve(pe, 0.2, 1.0, 30, 12, 30, scheme)
            via_constants = peak_error_from_solution(sol)
            closed = peak_error(scheme, pe, 1.0)
            assert via_constants == pytest.approx(closed, rel=1e-9)


def _perturb_peak_error(monkeypatch, factor):
    real = oracle.peak_error
    monkeypatch.setattr(oracle, "peak_error",
                        lambda scheme, pe, b: real(scheme, pe, b) * factor(pe))


def test_error_extremum_averaged_is_at_pe_two(monkeypatch):
    # certified exactly: the only stationary point on Pe > 1 is Pe = 2 and
    # the value there is -B/27
    rep = peak_error_certificate(Scheme.ELEMENT_AVERAGED)
    assert rep.ok, rep.render()
    assert rep.statements[1:] == ["df/dPe vanishes on Pe > 1 only at Pe = 2: yes",
                                  "f(2) = -1/27 B, the bound -B/27: yes"]
    # a cubic whose extremum sits elsewhere fails both claims
    _perturb_peak_error(monkeypatch, lambda pe: 1 + pe / 100)
    rep = peak_error_certificate(Scheme.ELEMENT_AVERAGED)
    assert not rep.ok and rep.statements[0].endswith("yes")
    assert [s.endswith("NO") for s in rep.statements[1:]] == [True, True]


def test_error_extremum_galerkin_grows_toward_limit(monkeypatch):
    # certified exactly: no interior extremum past Pe = 2, |f| < B/3 on
    # Pe > 1 and f -> B/3
    rep = peak_error_certificate(Scheme.GALERKIN)
    assert rep.ok, rep.render()
    assert [s.rsplit(": ", 1)[0] for s in rep.statements[1:]] == [
        "|f| < B/3 for every Pe > 1", "f -> B/3 as Pe -> oo", "f increases for Pe >= 2"]
    _perturb_peak_error(monkeypatch, lambda pe: Fraction(101, 100))
    rep = peak_error_certificate(Scheme.GALERKIN)
    assert [s.endswith("yes") for s in rep.statements] == [True, False, False, True]
    # a value that is not a cubic over (1+Pe)^3 fails the fifth-sample check
    _perturb_peak_error(monkeypatch, lambda pe: 1 / (1 + pe))
    assert peak_error_certificate(Scheme.GALERKIN).statements[0].endswith("NO")


@pytest.mark.parametrize("scheme", list(Scheme))
def test_particulars_satisfy_the_table_stencil_exactly(scheme):
    # on the rising transition F the input is on from local node 2, on the
    # falling transition G up to local node 1; the interior transition nodes
    # 1 and 2 see the whole stencil inside the transition
    lam = Fraction(3, 10)
    rising, falling = (lambda n: n >= 2), (lambda n: n <= 1)

    def residuals(y_pf, y_pg, pe):
        lhs, load = exact_stencil(pe, scheme)
        return [sum(c * y(n - 1 + k) for k, c in enumerate(lhs))
                - lam * sum(c * on(n - 1 + k) for k, c in enumerate(load))
                for y, on in ((y_pf, rising), (y_pg, falling)) for n in (1, 2)]

    for pe in (Fraction(11, 10), Fraction(2), Fraction(7, 3), Fraction(50), Fraction(1001, 3)):
        r = Fraction(-1 - pe, -1 + pe)
        y_pf, y_pg = _particulars(scheme, r, lam)
        assert residuals(y_pf, y_pg, pe) == [0, 0, 0, 0]
        # a perturbed cubic coefficient leaves a nonzero residual
        bent = lambda n: y_pf(n) + Fraction(1, 10 ** 9) * n ** 3
        assert residuals(bent, y_pg, pe)[:2] != [0, 0]


def test_error_vanishes_just_above_one():
    for scheme in Scheme:
        assert abs(peak_error(scheme, 1.0 + 1e-9, 1.0)) < 1e-8


def test_stabilization_dominates_asymptotically():
    ratios = [abs(peak_error(Scheme.ELEMENT_AVERAGED, pe, 1.0)
                  / peak_error(Scheme.GALERKIN, pe, 1.0))
              for pe in (10.0, 100.0, 1e4, 1e6)]
    assert ratios == sorted(ratios, reverse=True)
    assert ratios[-1] < 1e-11


def test_anchored_evaluation_survives_long_domains():
    # |r| = 3 at Pe = 2; naive r^n would overflow well before n = 600
    sol = analytic_solve(2.0, 0.1, 1.0, 600, 200, 600, Scheme.ELEMENT_AVERAGED)
    y = sol.nodal_values()
    assert np.all(np.isfinite(y))
    assert growth_ratio(2.0) == -3.0


def loop_nodal_values(sol):
    """The closed form node by node, one sub-domain evaluator call each."""
    p, m = sol.params, oracle.TRANSITION_SPAN
    y = np.empty(sol.node_count)
    for g in range(sol.node_count):
        if g <= p.m_b:
            y[g] = sol.y_b(g)
        elif g <= p.m_b + m:
            y[g] = sol.y_f(g - p.m_b)
        elif g <= p.m_b + m + p.m_c:
            y[g] = sol.y_c(g - p.m_b - m)
        elif g <= p.m_b + 2 * m + p.m_c:
            y[g] = sol.y_g(g - p.m_b - m - p.m_c)
        else:
            y[g] = sol.y_d(g - p.m_b - 2 * m - p.m_c)
    return y


@pytest.mark.parametrize("scheme", list(Scheme))
def test_vector_nodal_values_match_the_node_loop(scheme):
    # numpy's power of |r| and Python's r ** n can differ in the last bit;
    # over the sweep's layout the gap stays below 0.04 eps of the largest
    # value, so one eps bounds it; the inlet value is exactly 0 and the
    # transitions and the downstream run keep their bits
    pes = list(np.geomspace(1.1, 1000.0, 60)) + [1 + 1e-9, 2.0, 1e6]
    layouts = [(0.2, 40, 30, 40), (0.1, 600, 200, 600), (0.2, 1, 1, 1)]
    layouts += [(dz, m_b, m_c, m_d) for _, _, dz, m_b, m_c, m_d in FIG8_CASES]
    eps = np.finfo(float).eps
    for pe in pes:
        for dz, m_b, m_c, m_d in layouts:
            sol = analytic_solve(pe, dz, 1.0, m_b, m_c, m_d, scheme)
            got, want = sol.nodal_values(), loop_nodal_values(sol)
            assert got[0] == want[0] == 0.0
            assert np.max(np.abs(got - want)) <= eps * np.max(np.abs(want)), (pe, m_b)
            exact = np.r_[m_b + 1:m_b + 4, m_b + m_c + 4:len(got)]
            assert got[exact].tobytes() == want[exact].tobytes(), (pe, m_b)
