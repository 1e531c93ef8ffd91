"""Acceptance suite: each test exercises one exit criterion end to end at
its stated tolerance and prints a single PASS/FAIL line.

Criterion 5 (2D stabilization) is qualitative by nature: the 2D fields have
no tabulated ground truth, so the spurious oscillation is isolated as the
deviation of the coarse centerline trace from a z-refined solve of the same
scheme, windowed upstream of the applied-field footprint (z < -2.5 R) where
the exact solution is smooth and any grid-scale structure is numerical
artifact. The raw second-difference of the trace cannot distinguish
oscillation from coarse-grid curvature of the legitimate field on any mesh
coarse enough for the instability to be excited at all, so the windowed
deviation is the faithful reading of the oscillation bounds.
"""
import math
import time
from fractions import Fraction

import numpy as np

from eddyfem.core import Scheme
from eddyfem.fem1d import assemble_1d, rect_pulse_case, solve_1d
from eddyfem.fem2d import exact_patch_rows, oscillation_metric
from eddyfem.oracle import analytic_solve, peak_error
from eddyfem.cli import measured_peak_error
from eddyfem.zpoly import InexactDivisionError
from eddyfem.ztransfer import (ZN, ZN_SQUARE_PLUS, Stability, analyze,
                               run_identity_checks, tf_1d, tf_2d)
from stencil_utils import expected_lhs_stencils, expected_rhs_stencils
from test_fem2d import spurious_deviation

B = 1.0


def _report(num: int, ok: bool, detail: str):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, detail


def test_criterion_1_oracle_equivalence():
    """Closed form and FEM agree node-exactly on the three tabulated
    configurations (relative error <= 1e-8, each under a second)."""
    cases = [
        (Scheme.GALERKIN, 200.0, 0.20, 38, 12, 38),
        (Scheme.ELEMENT_AVERAGED, 2.0, 0.25, 30, 9, 30),
        (Scheme.ELEMENT_AVERAGED, 400.0, 0.17, 46, 15, 46),
    ]
    results = []
    for scheme, pe, dz, m_b, m_c, m_d in cases:
        t0 = time.perf_counter()
        mesh, pe, profile = rect_pulse_case(pe, dz, m_b, m_c, m_d, B)
        fem = solve_1d(assemble_1d(mesh, pe, profile, scheme))
        y = analytic_solve(pe, dz, B, m_b, m_c, m_d, scheme).nodal_values()
        wall = time.perf_counter() - t0
        rel = float(np.max(np.abs(fem.a_y - y))) / float(np.max(np.abs(y)))
        results.append((scheme.value, pe, rel, wall))
    ok = all(rel <= 1e-8 and wall < 1.0 for _, _, rel, wall in results)
    detail = "oracle equivalence " + "; ".join(
        f"{s} Pe={pe:g}: rel={rel:.2e}, {wall * 1e3:.0f} ms" for s, pe, rel, wall in results)
    _report(1, ok, detail)


def test_criterion_2_peak_error_sweep():
    """Measured peak spurious error tracks the closed forms across
    Pe in [1.1, 1000]: averaged-input maximum at Pe = 2 with value B/27,
    Galerkin tracking its formula and approaching B/3."""
    t0 = time.perf_counter()
    grid = sorted(set(np.geomspace(1.1, 1000.0, 25)) | {2.0, 1000.0})
    dz, m_b, m_c, m_d = 0.2, 40, 30, 40
    rows = []
    for pe in grid:
        mg = measured_peak_error(pe, dz, m_b, m_c, m_d, Scheme.GALERKIN, B)
        ma = measured_peak_error(pe, dz, m_b, m_c, m_d, Scheme.ELEMENT_AVERAGED, B)
        rows.append((pe, mg, peak_error(Scheme.GALERKIN, pe, B),
                     ma, peak_error(Scheme.ELEMENT_AVERAGED, pe, B)))
    wall = time.perf_counter() - t0

    k_star = int(np.argmax([abs(r[3]) for r in rows]))
    k_two = grid.index(2.0)
    extremizer_ok = abs(k_star - k_two) <= 1
    value_ok = abs(abs(rows[k_two][3]) - B / 27) <= 1e-6
    track_g = max(abs(r[1] - r[2]) for r in rows)
    track_a = max(abs(r[3] - r[4]) for r in rows)
    k_end = grid.index(1000.0)
    end_ok = abs(abs(rows[k_end][1]) - B / 3) <= 0.005 * B / 3
    ok = (extremizer_ok and value_ok and track_g <= 1e-6 and track_a <= 1e-6
          and end_ok and wall < 30.0)
    _report(2, ok,
            f"peak-error sweep: extremizer at Pe={grid[k_star]:g} (target 2), "
            f"|value-B/27|={abs(abs(rows[k_two][3]) - B / 27):.2e}, "
            f"max measured-formula gap galerkin={track_g:.2e} averaged={track_a:.2e}, "
            f"galerkin(1000) off B/3 by {abs(abs(rows[k_end][1]) - B / 3) / (B / 3):.2%}, "
            f"{wall:.1f} s")


def test_criterion_3_symbolic_identities():
    """Exact factorization identities: zero difference polynomial for the
    eliminated denominator and the consistent-mass numerator, the N1
    product form, and certified divisibility by (Z_n+1)^2 of the nonzero
    leading numerator derived for the averaged input. No tolerance
    anywhere."""
    t0 = time.perf_counter()
    reports = run_identity_checks()
    by_name = {r.name: r for r in reports}
    num = tf_2d(Scheme.ELEMENT_AVERAGED).numerator
    try:
        num.exact_div(ZN_SQUARE_PLUS, ZN)
        divis_ok = not num.is_zero()
    except InexactDivisionError:
        divis_ok = False
    wall = time.perf_counter() - t0
    ok = (all(r.ok for r in reports) and divis_ok
          and by_name["N1 factorization"].ok
          and by_name["denominator factorization"].ok
          and wall < 1.0)
    _report(3, ok,
            f"symbolic identities: {', '.join(r.name for r in reports)} all exact; "
            f"derived averaged leading numerator has {num.term_count()} terms and "
            f"(Z_n+1)^2 divides it: {divis_ok}; {wall * 1e3:.0f} ms")


def test_criterion_4_pole_zero_certificates():
    """High-Pe pole-zero structure: Galerkin keeps poles {+1, -1} with zeros
    -2 +- sqrt(3); the averaged input cancels Z = -1 in 1D and has no
    Z_n = -1 pole in 2D while Galerkin does. The derived 2D (Z_n-1)
    multiplicities of the leading denominator and numerator are 2 and 1
    for Galerkin, 2 and 2 for the averaged input. All checks exact."""
    rep_g = analyze(*tf_1d(Scheme.GALERKIN))
    poles_g = sorted(p.location.real for p in rep_g.poles)
    zeros_g = sorted(z.location.real for z in rep_g.zeros)
    g_ok = (poles_g == [-1.0, 1.0] and all(p.exact for p in rep_g.poles)
            and abs(zeros_g[0] - (-2 - math.sqrt(3))) < 1e-12
            and abs(zeros_g[1] - (-2 + math.sqrt(3))) < 1e-12
            and round(zeros_g[0], 2) == -3.73 and round(zeros_g[1], 2) == -0.27
            and rep_g.classification is Stability.OSCILLATORY_MARGINAL)

    rep_a = analyze(*tf_1d(Scheme.ELEMENT_AVERAGED))
    a_ok = (any(c.exact and c.location == -1 for c in rep_a.cancelled_pairs)
            and [p.location for p in rep_a.poles] == [1 + 0j])

    t2g, t2a = tf_2d(Scheme.GALERKIN), tf_2d(Scheme.ELEMENT_AVERAGED)
    two_d_ok = (t2g.zn_multiplicities[-1] == (2, 1) and t2a.zn_multiplicities[-1] == (2, 2)
                and t2g.zn_multiplicities[1] == (2, 1)
                and t2a.zn_multiplicities[1] == (2, 2))
    ok = g_ok and a_ok and two_d_ok
    _report(4, ok,
            f"pole-zero certificates: galerkin 1D poles {poles_g}, zeros "
            f"[{zeros_g[0]:.4f}, {zeros_g[1]:.4f}]; averaged 1D cancels -1, "
            f"remaining {[p.location.real for p in rep_a.poles]}; 2D (Z_n+1), (Z_n-1) "
            f"multiplicities (denominator, numerator): galerkin "
            f"{t2g.zn_multiplicities[-1]}, {t2g.zn_multiplicities[1]}; averaged "
            f"{t2a.zn_multiplicities[-1]}, {t2a.zn_multiplicities[1]}")


def test_criterion_5_2d_stabilization():
    """Sheet scenario (thickness 1.3 m, sigma 7.21e6 S/m, smooth circular
    input, axial extent 6x the field width): at Pe = 60 the spurious
    oscillation of the averaged input is <= 0.01 while Galerkin is >= 0.1
    (ratio > 10); at Pe = 2 the averaged centerline overshoot outside the
    field footprint is <= 5% of B. See the module docstring for how the
    spurious part is isolated."""
    radius = 1.3
    walls = []

    t0 = time.perf_counter()
    z, dev_g = spurious_deviation(60.0, Scheme.GALERKIN)
    _, dev_a = spurious_deviation(60.0, Scheme.ELEMENT_AVERAGED)
    walls.append(time.perf_counter() - t0)
    window = z < -2.5 * radius
    m_g = oscillation_metric(dev_g[window], B)
    m_a = oscillation_metric(dev_a[window], B)

    t0 = time.perf_counter()
    z2, dev_a2 = spurious_deviation(2.0, Scheme.ELEMENT_AVERAGED)
    walls.append(time.perf_counter() - t0)
    outside = np.abs(z2) > 2 * radius
    overshoot = float(np.max(np.abs(dev_a2[outside]))) / B

    t0 = time.perf_counter()
    _, dev_a3 = spurious_deviation(2000.0, Scheme.ELEMENT_AVERAGED)
    walls.append(time.perf_counter() - t0)
    m_a_high = oscillation_metric(dev_a3[window], B)

    ok = (m_a <= 0.01 and m_g >= 0.1 and m_g / m_a > 10
          and overshoot <= 0.05 and m_a_high < 0.005
          and all(w < 120.0 for w in walls))
    _report(5, ok,
            f"2D stabilization: Pe=60 spurious metric galerkin={m_g:.4f} "
            f"averaged={m_a:.5f} (ratio {m_g / m_a:.0f}); Pe=2 averaged overshoot "
            f"{overshoot:.2%} of B; Pe=2000 averaged metric {m_a_high:.5f}; "
            f"solve+reference pairs took {', '.join(f'{w:.1f}' for w in walls)} s")


def test_criterion_6_stencil_consistency():
    """On uniform all-conductor patches the assembled interior rows equal
    the stencil polynomial coefficients exactly (rational comparison);
    constant input loads are scheme-independent; zero input solves to
    zero."""
    pe, u = Fraction(7, 2), Fraction(3)
    exact_ok = True
    for scheme in Scheme:
        lhs, rhs_w = exact_patch_rows(pe, u, scheme)
        exp_l = expected_lhs_stencils(pe, u)
        exp_r = expected_rhs_stencils(pe, u, scheme)
        exact_ok = exact_ok and lhs == exp_l and rhs_w == exp_r

    # constant input: weight sums agree exactly across schemes
    _, w_g = exact_patch_rows(pe, u, Scheme.GALERKIN)
    _, w_a = exact_patch_rows(pe, u, Scheme.ELEMENT_AVERAGED)
    sums_ok = (sum(w_g[1].values()) == sum(w_a[1].values()) == 2 * pe
               and sum(w_g[0].values()) == sum(w_a[0].values()) == 0)

    # zero input gives the zero solution
    from test_fem2d import uniform_conductor_case
    from eddyfem.fem2d import assemble_2d, solve_2d

    class Zero:
        def sample(self, zz, yy=0.0):
            return np.zeros(np.broadcast(np.asarray(zz), np.asarray(yy)).shape)

    mesh, material, regions, _, _ = uniform_conductor_case()
    sol = solve_2d(assemble_2d(mesh, material, regions, Zero(), Scheme.GALERKIN))
    zero_ok = max(float(np.max(np.abs(f))) for f in (sol.phi, sol.a_y, sol.a_z)) == 0.0

    ok = exact_ok and sums_ok and zero_ok
    _report(6, ok,
            f"stencil consistency: exact row equality both schemes={exact_ok}, "
            f"constant-input load sums equal (2*Pe={float(2 * pe):g})={sums_ok}, "
            f"zero-input solution identically zero={zero_ok}")
