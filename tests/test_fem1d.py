import math
import re
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eddyfem.core import InvalidArgumentError, Mesh1D, NumericalFailureError, RectPulse1D, Scheme
from eddyfem import core, fem1d
from eddyfem.fem1d import (RESIDUAL_RTOL, DiscreteSystem1D, assemble_1d, element_weights,
                           exact_stencil, rect_pulse_case, solve_1d)


def small_case(pe=2.0, dz=0.25, scheme=Scheme.GALERKIN, n=41, pulse=(3.875, 6.125)):
    mesh = Mesh1D(dz, n)
    profile = RectPulse1D(a=pulse[0], b=pulse[1], amplitude=1.0)
    return assemble_1d(mesh, pe, profile, scheme), mesh


def test_interior_row_coefficients():
    system, _ = small_case(pe=2.0, dz=0.25)
    k = 10
    assert system.lower[k - 1] == pytest.approx(-3.0)   # -1 - Pe
    assert system.diag[k] == pytest.approx(2.0)
    assert system.upper[k] == pytest.approx(1.0)        # -1 + Pe


def _written_out_assembly(mesh, pe, bn, scheme):
    """The hand-written element formulas the element table replaced."""
    n = mesh.node_count
    diag, lower, upper, rhs = np.zeros(n), np.zeros(n - 1), np.zeros(n - 1), np.zeros(n)
    diag[:-1] += 1.0 - pe
    upper[:] += -1.0 + pe
    lower[:] += -1.0 - pe
    diag[1:] += 1.0 + pe
    if scheme is Scheme.GALERKIN:
        f_left = 2.0 * pe * mesh.dz * (bn[:-1] / 3.0 + bn[1:] / 6.0)
        f_right = 2.0 * pe * mesh.dz * (bn[:-1] / 6.0 + bn[1:] / 3.0)
    else:
        f_left = pe * mesh.dz * (0.5 * (bn[:-1] + bn[1:]))
        f_right = f_left.copy()
    rhs[:-1] += f_left
    rhs[1:] += f_right
    diag[0], upper[0], rhs[0] = 1.0, 0.0, 0.0
    return lower, diag, upper, rhs


class _Table:
    """Nodal values looked up by node index."""

    def __init__(self, values, dz):
        self.values, self.dz = values, dz

    def sample(self, z):
        return self.values[np.rint(z / self.dz).astype(int)]


@pytest.mark.parametrize("scheme", list(Scheme))
def test_table_assembly_is_bit_identical_to_the_written_out_formulas(scheme):
    rng = np.random.default_rng(7)
    for pe in (1.0, 1.1, 2.0, 7.3, 60.0, 2000.0, 1e6):
        for dz in (0.17, 0.2, 0.25, 1.0, 3.3):
            mesh = Mesh1D(dz, 23)
            bn = rng.normal(size=23) * 10.0 ** rng.uniform(-6, 6)
            got = assemble_1d(mesh, pe, _Table(bn, dz), scheme)
            ref = _written_out_assembly(mesh, pe, bn, scheme)
            for name, want in zip(("lower", "diag", "upper", "rhs"), ref):
                assert getattr(got, name).tobytes() == want.tobytes(), (name, pe, dz)


def test_element_table_folds_to_the_interior_stencil():
    pe = Fraction(7, 3)
    for scheme, shape in ((Scheme.GALERKIN, (1, 4, 1)), (Scheme.ELEMENT_AVERAGED, (1, 2, 1))):
        lhs, load = exact_stencil(pe, scheme)
        assert lhs == (-1 - pe, 2, -1 + pe)
        assert load == tuple(2 * pe * Fraction(c, sum(shape)) for c in shape)
        weights = fem1d._fold(element_weights(scheme))
        assert [float(w) for w in weights] == [c / sum(shape) for c in shape]
        # assemble_1d divides by the denominators of these unit fractions
        assert {w.numerator for row in element_weights(scheme) for w in row} == {1}
        assert fem1d._DIVISORS[scheme] == [[w.denominator for w in row]
                                           for row in element_weights(scheme)]


def test_exact_stencil_and_matmul_read_one_fold(monkeypatch):
    # mirror the fold: the exact interior row and the float product both follow
    fold = fem1d._fold
    monkeypatch.setattr(fem1d, "_fold", lambda rows: fold(rows)[::-1])
    pe = Fraction(7, 3)
    assert exact_stencil(pe, Scheme.GALERKIN)[0] == (-1 + pe, 2, -1 - pe)
    system, _ = small_case(pe=7 / 3)
    (l00, l01), (l10, l11) = system.element
    x = np.arange(system.mesh.node_count, dtype=float) ** 2
    want = (l11 + l00) * x[1:-1] + l01 * x[:-2] + l10 * x[2:]
    assert system.matmul(x)[1:-1].tobytes() == want.tobytes()


def test_stencil_is_the_central_difference_form_of_the_continuous_model():
    # dz^2 times the central differences of -A'' + k A' = k B, k = 2 Pe/dz, at
    # nodes i-1, i, i+1: the model whose plateau flux -B is the level of
    # cli.measured_peak_errors
    for pe, dz in ((Fraction(7, 3), Fraction(1, 5)), (Fraction(11, 10), Fraction(3, 4)),
                   (Fraction(1000), Fraction(1, 5))):
        k = 2 * pe / dz
        second, first = (1, -2, 1), (-1, 0, 1)   # dz^2 A'' and 2 dz A'
        row = tuple(dz ** 2 * (-s / dz ** 2 + k * f / (2 * dz)) for s, f in zip(second, first))
        assert row == (-1 - pe, 2, -1 + pe)
        for scheme, shape in ((Scheme.GALERKIN, (1, 4, 1)), (Scheme.ELEMENT_AVERAGED, (1, 2, 1))):
            w = tuple(Fraction(c, sum(shape)) for c in shape)   # w.B is B for a constant B
            lhs, load = exact_stencil(pe, scheme)
            assert lhs == row
            assert tuple(dz * c for c in load) == tuple(dz ** 2 * k * v for v in w) \
                == tuple(2 * pe * dz * v for v in w)


def _array_matmul(system, x):
    """A x and ||A||inf by the array formulas on the built diagonals."""
    lower, diag, upper = system.lower, system.diag, system.upper
    y = diag * x
    y[1:] += lower * x[:-1]
    y[:-1] += upper * x[1:]
    rowsum = np.abs(diag)
    rowsum[1:] += np.abs(lower)
    rowsum[:-1] += np.abs(upper)
    return y, float(rowsum.max())


@pytest.mark.parametrize("pe", [1 + 1e-9, 2.0, 1e6])
@pytest.mark.parametrize("scheme", list(Scheme))
def test_matmul_and_inf_norm_match_the_diagonal_formulas_bit_for_bit(pe, scheme):
    # the system keeps four numbers; its product and norm must round as the
    # three full diagonals did, row by row: diagonal, then lower, then upper
    rng = np.random.default_rng(11)
    minimal = Mesh1D(0.5, 3), pe, RectPulse1D(0.25, 0.75, 1.0)
    for mesh, pe, profile in (minimal, rect_pulse_case(pe, 0.2, 40, 30, 40)):
        system = assemble_1d(mesh, pe, profile, scheme)
        n = mesh.node_count
        for _ in range(5):
            x = rng.normal(size=n) * 10.0 ** rng.uniform(-6, 6)
            want, norm = _array_matmul(system, x)
            assert system.matmul(x).tobytes() == want.tobytes()
            assert system.inf_norm() == norm


def test_inf_norm_of_a_nan_entry_is_nan():
    # the maximum over the built diagonals keeps a NaN; so must the norm of
    # the four numbers, wherever the NaN sits
    system, _ = small_case()
    rows = np.array(system.element)
    for k in range(4):
        bad = rows.copy()
        bad.flat[k] = np.nan
        assert math.isnan(replace(system, element=tuple(map(tuple, bad.tolist()))).inf_norm())


def refined_mesh(mesh, pe):
    """The pulse mesh with each element split until its Pe is at most 0.5:
    a Galerkin reference that resolves the layer of the continuous model."""
    refine = math.ceil(2 * pe)
    return Mesh1D(mesh.dz / refine, mesh.element_count * refine + 1)


def refined_pe(mesh, pe):
    """The element Pe of refined_mesh(mesh, pe) at the pulse mesh's velocity
    u = 2 Pe/dz: u times the refined dz, over 2."""
    return 2 * pe / mesh.dz * refined_mesh(mesh, pe).dz / 2


def test_galerkin_reference_peaks_below_three_and_a_half_node_arrays():
    # a sweep point at Pe 1000 holds less than 3.5 arrays of the 232,001
    # nodes a refined Galerkin reference would need: it solves its coarse mesh
    import tracemalloc
    from eddyfem.cli import measured_peak_errors
    mesh = rect_pulse_case(1000.0, 0.2, 40, 30, 40)[0]
    nodes = refined_mesh(mesh, 1000.0).node_count
    assert nodes == 232_001
    tracemalloc.start()
    try:
        measured_peak_errors(1000.0, 0.2, 40, 30, 40, tuple(Scheme))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 8 * nodes, peak / (8 * nodes)


def test_interior_row_sum_is_zero():
    system, _ = small_case(pe=7.3, dz=0.1)
    n = len(system.diag)
    rowsums = system.matmul(np.ones(n))
    assert np.max(np.abs(rowsums[1:-1])) == 0.0  # constants in the null space


def test_interior_row_sums_to_zero_at_every_shipped_pe_but_not_at_every_pe():
    # fl(1-Pe) + fl(1+Pe) need not be exactly 2: the interior fold is summed
    # in Fractions. Every Pe of the shipped configs gives 0; Pe
    # 1.0004394634841478 gives -2^-52, and its solve still passes the budget
    from eddyfem.cli import ScenarioConfig
    row_sum = lambda pe: sum(map(Fraction, fem1d._fold(fem1d._rows(pe))))
    configs = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))
    shipped = {pe for path in configs for pe in ScenarioConfig.load(path).pe_values}
    assert len(shipped) == 28 and all(row_sum(pe) == 0 for pe in shipped)
    assert row_sum(1.0004394634841478) == Fraction(-1, 2 ** 52)
    assert row_sum(0.9) == Fraction(1, 2 ** 53)
    mesh, pe, profile = rect_pulse_case(1.0004394634841478, 0.2, 40, 30, 40)
    for scheme in Scheme:
        solve_1d(assemble_1d(mesh, pe, profile, scheme))   # raises over budget


def test_constant_input_same_rhs_for_both_schemes():
    mesh = Mesh1D(0.25, 21)
    const = RectPulse1D(a=-1.0, b=100.0, amplitude=0.7)
    rg = assemble_1d(mesh, 3.0, const, Scheme.GALERKIN).rhs
    ra = assemble_1d(mesh, 3.0, const, Scheme.ELEMENT_AVERAGED).rhs
    assert np.allclose(rg[1:-1], 2 * 3.0 * 0.25 * 0.7, rtol=1e-14)
    assert np.allclose(rg, ra, rtol=1e-14)


def test_averaged_rhs_single_hot_node():
    # B = (0, 1, 0) around an interior node -> rhs = 2 Pe dz * 2/4 = 0.5
    mesh = Mesh1D(0.25, 7)
    hot = RectPulse1D(a=0.25 * 3 - 0.1, b=0.25 * 3 + 0.1, amplitude=1.0)
    system = assemble_1d(mesh, 2.0, hot, Scheme.ELEMENT_AVERAGED)
    assert system.rhs[3] == pytest.approx(0.5)
    assert system.rhs[2] == pytest.approx(0.25)   # neighbor weight 1/4
    system_g = assemble_1d(mesh, 2.0, hot, Scheme.GALERKIN)
    assert system_g.rhs[3] == pytest.approx(2 * 2.0 * 0.25 * 4 / 6)


def test_zero_rhs_gives_zero_solution():
    mesh = Mesh1D(0.2, 30)
    off = RectPulse1D(a=100.0, b=101.0, amplitude=1.0)  # pulse outside the mesh
    sol = solve_1d(assemble_1d(mesh, 5.0, off, Scheme.GALERKIN))
    assert np.max(np.abs(sol.a_y)) == 0.0
    assert np.max(np.abs(sol.b_x)) == 0.0


def _within_budget(system, sol) -> bool:
    resid = np.max(np.abs(system.matmul(sol.a_y) - system.rhs))
    budget = RESIDUAL_RTOL * (system.inf_norm() * np.max(np.abs(sol.a_y))
                              + np.max(np.abs(system.rhs)))
    return sol.residual == resid <= budget


def test_solve_residual_within_budget():
    system, _ = small_case(pe=2000.0, dz=0.2, n=51, pulse=(3.9, 6.1))
    assert _within_budget(system, solve_1d(system))


@pytest.mark.parametrize("scheme", list(Scheme))
def test_pulse_case_at_pe_1e300_solves_within_budget(scheme):
    # the matrix entries and the load both grow like Pe; at 1e300 neither
    # overflows, and the solve still meets its residual budget
    mesh, pe, profile = rect_pulse_case(1e300, 0.2, 40, 30, 40)
    system = assemble_1d(mesh, pe, profile, scheme)
    sol = solve_1d(system)
    assert np.all(np.isfinite(sol.b_x)) and _within_budget(system, sol)


@pytest.mark.parametrize("pe", [1 + 1e-9, 2.0, 1e6])
@pytest.mark.parametrize("scheme", list(Scheme))
def test_minimal_grid_solves(pe, scheme):
    # edge regimes (Pe -> 1+, huge Pe) on the smallest grid, 3 nodes: the
    # inlet, one interior node and the outlet. Each solve passes its
    # residual budget and agrees with a dense direct solve
    mesh = Mesh1D(0.5, 3)
    profile = RectPulse1D(a=0.25, b=0.75, amplitude=1.0)   # the interior node alone
    system = assemble_1d(mesh, pe, profile, scheme)
    sol = solve_1d(system)
    dense = np.diag(system.diag) + np.diag(system.lower, -1) + np.diag(system.upper, 1)
    x_ref = np.linalg.solve(dense, system.rhs)
    assert np.max(np.abs(sol.a_y - x_ref)) <= 1e-9 * np.max(np.abs(x_ref))
    assert _within_budget(system, sol)


def test_singular_system_raises():
    system, mesh = small_case()
    bad = replace(system, element=((0.0, 0.0), (0.0, 0.0)))
    with pytest.raises(NumericalFailureError, match="singular matrix"):
        solve_1d(bad)
    # non-finite entries are named before the solve, which reads the
    # interior diagonal only through the residual
    (l00, l01), (l10, l11) = system.element
    nan = replace(system, element=((np.nan, l01), (l10, l11)))
    with pytest.raises(NumericalFailureError, match="matrix has non-finite entries"):
        solve_1d(nan)
    rhs = system.rhs.copy()
    rhs[3] = np.inf
    inf = replace(system, rhs=rhs)
    with pytest.raises(NumericalFailureError, match="right-hand side has non-finite entries"):
        solve_1d(inf)


def test_nan_residual_fails_the_budget():
    # an overflow in A x would give a NaN residual, which no budget accepts,
    # also when the rows after the NaN are finite
    class NanProduct(DiscreteSystem1D):
        def matmul(self, x):
            y = super().matmul(x)
            y[20] = np.nan
            return y

    system, mesh = small_case()
    with pytest.raises(NumericalFailureError, match="residual nan exceeds budget"):
        solve_1d(NanProduct(element=system.element, rhs=system.rhs, mesh=mesh))


def _exact_thomas(system):
    """The system's exact solution, by a Thomas solve in Fraction arithmetic
    on the float entries as they are stored."""
    lower, diag, upper, rhs = ([Fraction(v) for v in a] for a in
                               (system.lower, system.diag, system.upper, system.rhs))
    n = len(diag)
    c, g = [Fraction(0)] * n, [Fraction(0)] * n
    c[0], g[0] = upper[0] / diag[0], rhs[0] / diag[0]
    for i in range(1, n):
        pivot = diag[i] - lower[i - 1] * c[i - 1]
        c[i] = upper[i] / pivot if i < n - 1 else Fraction(0)
        g[i] = (rhs[i] - lower[i - 1] * g[i - 1]) / pivot
    x = g[:]
    for i in range(n - 2, -1, -1):
        x[i] -= c[i] * x[i + 1]
    return x


@pytest.mark.parametrize("pe", [1 + 1e-9, 1.1, 2.0, 33.3, 1000.0, 2000.0, 1e6])
@pytest.mark.parametrize("scheme", list(Scheme))
def test_b_x_is_within_a_few_ulps_of_the_exact_solution(monkeypatch, pe, scheme):
    # the element-flux recurrence runs in plain floats, with no LAPACK. On the
    # pulse mesh and on 3 to 5 nodes of wide loads, a_y and b_x are within
    # 1e-14 of their column maximum of the exact solve of the same float rows.
    # On the pulse mesh b_x is within a few ulps: it is the solved element
    # difference itself, not a difference of two rounded nodal values, which
    # loses up to 2e-14 of the column maximum
    def refuse():
        raise AssertionError("the 1D solve loaded LAPACK")

    monkeypatch.setattr(core, "lapack", refuse)
    cases = [rect_pulse_case(pe, 0.2, 40, 30, 40)]
    cases += [(Mesh1D(0.2, n), pe, _table(n, n, 0.2)) for n in (3, 4, 5)]
    for k, (mesh, pe, profile) in enumerate(cases):
        system = assemble_1d(mesh, pe, profile, scheme)
        sol = solve_1d(system)
        x = _exact_thomas(system)
        dz = Fraction(mesh.dz)
        b_x = [(x[i] - x[i + 1]) / dz for i in range(len(x) - 1)]
        for got, exact, rtol in ((sol.a_y, x, 1e-14), (sol.b_x, b_x, 1e-14 if k else 2.5e-15)):
            error = max(abs(Fraction(float(v)) - w) for v, w in zip(got, exact))
            assert error <= Fraction(rtol) * max(map(abs, exact)), mesh.node_count


@pytest.mark.parametrize("pe", [1 + 1e-9, 1.07, 2.0, 1000.0, 1e8, 2.0 ** 53 - 1])
@pytest.mark.parametrize("scheme", list(Scheme))
def test_flux_rounding_floor_bounds_the_error_of_b_x(pe, scheme):
    # the floor under which sweep-error compares no formula value holds the
    # distance of every b_x from the exact solve of the same float rows, on
    # the shipped sweep's mesh and on a 28-node one, up to Pe 2^53 - 1
    for args in ((0.2, 40, 30, 40), (0.2, 3, 15, 3)):
        mesh, pe, profile = rect_pulse_case(pe, *args)
        system = assemble_1d(mesh, pe, profile, scheme)
        sol = solve_1d(system)
        x, dz = _exact_thomas(system), Fraction(mesh.dz)
        error = max(abs(Fraction(v) - (x[i] - x[i + 1]) / dz)
                    for i, v in enumerate(sol.b_x.tolist()))
        assert 0 < error <= Fraction(fem1d.flux_rounding_floor(system, sol)), mesh.node_count


def test_galerkin_reference_has_no_subnormal_tail():
    # upstream of the pulse the refined reference decays by (1-Pe)/(1+Pe),
    # about 1/3 per element at Pe 0.497; the solve must carry that decay on
    # to zero, not stall on thousands of subnormal values, each of which
    # costs the solve and every later pass over a_y a slow-path operation
    mesh, pe, profile = rect_pulse_case(33.3, 0.2, 40, 30, 40)
    fine = refined_mesh(mesh, pe)
    a_y = solve_1d(assemble_1d(fine, refined_pe(mesh, pe), profile, Scheme.GALERKIN)).a_y
    assert fine.node_count == 7773
    subnormal = (a_y != 0) & (np.abs(a_y) < np.finfo(float).tiny)
    assert np.count_nonzero(subnormal) <= 64


def test_a_row_that_does_not_sum_to_zero_fails_the_residual_budget():
    # the solve assumes rows 1..n-1 sum to zero; the full-row residual is
    # what checks that assumption
    mesh, pe, profile = rect_pulse_case(2.0, 0.2, 40, 30, 40)
    system = assemble_1d(mesh, pe, profile, Scheme.GALERKIN)
    (l00, l01), (l10, l11) = system.element
    system = replace(system, element=((l00 + 1.0, l01), (l10, l11)))
    assert system.matmul(np.ones(mesh.node_count))[1:].any()
    with pytest.raises(NumericalFailureError, match=r"residual .* exceeds budget"):
        solve_1d(system)


def test_matches_oracle_at_mid_peclet():
    from eddyfem.oracle import analytic_solve
    mesh, pe, profile = rect_pulse_case(2.0, 0.25, 30, 9, 30)
    fem = solve_1d(assemble_1d(mesh, pe, profile, Scheme.ELEMENT_AVERAGED))
    y = analytic_solve(2.0, 0.25, 1.0, 30, 9, 30, Scheme.ELEMENT_AVERAGED).nodal_values()
    assert np.max(np.abs(fem.a_y - y)) <= 1e-8 * np.max(np.abs(y))


def _alternation_run(values, threshold):
    """Longest run of consecutive sign alternations among entries whose
    magnitude exceeds the threshold."""
    best = run = 0
    for a, b in zip(values[:-1], values[1:]):
        if abs(a) > threshold and abs(b) > threshold and a * b < 0:
            run += 1
            best = max(best, run)
        else:
            run = 0
    return best


def test_galerkin_high_pe_oscillates_averaged_does_not():
    pe, dz, m_b, m_c, m_d = 2000.0, 0.2, 30, 12, 30
    mesh, pe, profile = rect_pulse_case(pe, dz, m_b, m_c, m_d)
    b_g = solve_1d(assemble_1d(mesh, pe, profile, Scheme.GALERKIN)).b_x
    b_a = solve_1d(assemble_1d(mesh, pe, profile, Scheme.ELEMENT_AVERAGED)).b_x
    # deviation from the ideal plateau level alternates sign element to
    # element through the downstream half of the pulse for Galerkin
    plateau = slice(m_b + 3, m_b + 3 + m_c)
    dev_g = b_g[plateau] + 1.0
    dev_a = b_a[plateau] + 1.0
    assert _alternation_run(dev_g, 0.05) >= 6
    assert _alternation_run(dev_a, 0.05) == 0
    assert np.max(np.abs(dev_a)) < 1e-3


def test_averaged_no_material_alternation_outside_pulse():
    for pe in (100.0, 2000.0):
        m_b, m_c, m_d = 30, 12, 30
        mesh, pe, profile = rect_pulse_case(pe, 0.25, m_b, m_c, m_d)
        sol = solve_1d(assemble_1d(mesh, pe, profile, Scheme.ELEMENT_AVERAGED))
        lo, hi = m_b + 2, m_b + m_c + 4
        outside = np.concatenate([sol.b_x[:lo - 1], sol.b_x[hi + 1:]])
        assert _alternation_run(outside, 1e-3) == 0


def test_schemes_agree_below_stability_threshold():
    # away from the input transitions both schemes resolve the same field
    pe, m_b, m_c, m_d = 0.5, 30, 12, 30
    mesh, pe, profile = rect_pulse_case(pe, 0.25, m_b, m_c, m_d)
    b_g = solve_1d(assemble_1d(mesh, pe, profile, Scheme.GALERKIN)).b_x
    b_a = solve_1d(assemble_1d(mesh, pe, profile, Scheme.ELEMENT_AVERAGED)).b_x
    mask = np.ones(len(b_g), dtype=bool)
    mask[m_b:m_b + 3] = False                        # rising transition band
    mask[m_b + 3 + m_c:m_b + 6 + m_c] = False        # falling transition band
    assert np.max(np.abs((b_g - b_a)[mask])) <= 0.02


def test_measured_error_examples():
    from eddyfem.cli import measured_peak_error
    got = measured_peak_error(2.0, 0.25, 30, 9, 30, Scheme.ELEMENT_AVERAGED)
    assert abs(got) == pytest.approx(1 / 27, abs=1e-9)   # about 3.7% of B
    big = measured_peak_error(1000.0, 0.2, 40, 30, 40, Scheme.GALERKIN)
    assert abs(big) == pytest.approx(1 / 3, rel=5e-3)    # limit of the formula


@pytest.mark.parametrize("pe", [1.1, 2.0, 33.3, 1000.0])
def test_refined_reference_plateau_level_is_minus_amplitude(pe):
    # a Galerkin reference that resolves the layer, averaged over the central
    # third of the shipped plateau, reads the level measured_peak_errors takes
    dz, m_b, m_c, m_d, amplitude = 0.2, 40, 30, 40, 1.0
    mesh, pe, profile = rect_pulse_case(pe, dz, m_b, m_c, m_d, amplitude)
    fine = refined_mesh(mesh, pe)
    b_x = solve_1d(assemble_1d(fine, refined_pe(mesh, pe), profile, Scheme.GALERKIN)).b_x
    z = fine.nodes()
    center = 0.5 * (z[:-1] + z[1:])
    z_lo, z_hi = (m_b + 3) * dz, (m_b + 3 + m_c) * dz
    span = z_hi - z_lo
    window = (center >= z_lo + span / 3) & (center <= z_hi - span / 3)
    assert np.count_nonzero(window) >= 10 * math.ceil(2 * pe)
    assert abs(np.mean(b_x[window]) + amplitude) <= 1e-12


@pytest.mark.parametrize("pe", [1 + 1e-9, 2.0, 33.3, 1000.0, 1e6])
@pytest.mark.parametrize("scheme", list(Scheme))
def test_kernel_solves_the_pulse_its_refined_reference_and_the_smallest_meshes(pe, scheme):
    # the pulse case, its refined Galerkin reference (232,001 nodes at Pe
    # 1000) and 3 to 5 nodes of wide loads: the rhs is the written-out
    # formulas' bit for bit, the residual is that of the three full diagonals,
    # and a_y is the pivoted banded LU's solution of the same rows
    from scipy.linalg import solve_banded
    mesh, pe, profile = rect_pulse_case(pe, 0.2, 40, 30, 40)
    cases = [(mesh, pe, profile)]
    if pe <= 1000.0:
        cases.append((refined_mesh(mesh, pe), refined_pe(mesh, pe), profile))
    cases += [(Mesh1D(0.2, n), pe, _table(n, n, 0.2)) for n in (3, 4, 5)]
    for mesh, pe, profile in cases:
        system = assemble_1d(mesh, pe, profile, scheme)
        bn = np.asarray(profile.sample(mesh.nodes()), dtype=float)
        lower, diag, upper, rhs = _written_out_assembly(mesh, pe, bn, scheme)
        assert system.rhs.tobytes() == rhs.tobytes()
        sol = solve_1d(system)
        product, norm = _array_matmul(system, sol.a_y)
        assert sol.residual == np.max(np.abs(product - rhs))
        assert sol.residual <= RESIDUAL_RTOL * (norm * np.max(np.abs(sol.a_y))
                                                + np.max(np.abs(rhs)))
        bands = np.zeros((3, mesh.node_count))
        bands[0, 1:], bands[1], bands[2, :-1] = upper, diag, lower
        want = solve_banded((1, 1), bands, rhs)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(sol.a_y - want)) <= 1e-12 * scale, mesh.node_count


def test_profile_mismatch_raises():
    mesh = Mesh1D(0.25, 11)
    with pytest.raises(InvalidArgumentError):
        assemble_1d(mesh, 2.0, object(), Scheme.GALERKIN)


@pytest.mark.parametrize("pe", [-1.0, -math.inf, math.nan, math.inf])
def test_assembly_rejects_a_negative_or_non_finite_pe(pe):
    # the check material_for_peclet makes too, named as pe
    with pytest.raises(InvalidArgumentError, match=f"pe must be finite and >= 0, got {pe}"):
        assemble_1d(Mesh1D(0.25, 11), pe, RectPulse1D(1.0, 2.0, 1.0), Scheme.GALERKIN)


def _table(seed, n, dz):
    # wide magnitudes, exact zeros of both signs and equal neighbours: a
    # zero load must keep the sign a zeroed array gave it
    rng = np.random.default_rng(seed)
    values = rng.normal(size=n) * 10.0 ** rng.uniform(-6, 6, size=n)
    values[rng.random(n) < 0.1] = 0.0
    values[rng.random(n) < 0.1] = -0.0
    values[rng.random(n) < 0.2] = -1.0
    return _Table(values, dz)


def _failing(system, mesh):
    (l00, l01), (l10, l11) = system.element
    n = mesh.node_count
    rhs_inf, rhs_nan, huge = system.rhs.copy(), system.rhs.copy(), system.rhs.copy()
    rhs_inf[3] = np.inf      # an interior row
    rhs_nan[0] = np.nan      # the unit row
    huge[n // 2:] = 1e308    # finite, but a_y overflows past the middle
    return {
        re.escape("1D system right-hand side has non-finite entries"):
            [replace(system, rhs=rhs_inf), replace(system, rhs=rhs_nan)],
        re.escape("1D system matrix has non-finite entries"):
            [replace(system, element=((np.nan, l01), (l10, l11)))],
        re.escape("element-flux solve failed: the pivot of row 1 is exactly zero "
                  "(singular matrix)"): [replace(system, element=((0.0, 0.0), (0.0, 0.0)))],
        re.escape("solution contains non-finite entries (matrix is singular or "
                  "near-singular)"): [replace(system, rhs=huge)],
        # every interior row misses zero
        r"residual \S+ exceeds budget \S+; matrix inf-norm \S+ suggests ill-conditioning":
            [replace(system, element=((l00 + 1.0, l01), (l10, l11)))],
    }


@pytest.mark.parametrize("scheme", list(Scheme))
def test_each_failure_reason_is_named(scheme):
    mesh, pe, profile = rect_pulse_case(2.0, 0.2, 40, 30, 40)
    system = assemble_1d(mesh, pe, profile, scheme)
    for reason, systems in _failing(system, mesh).items():
        for bad in systems:
            with pytest.raises(NumericalFailureError) as err, np.errstate(over="ignore"):
                solve_1d(bad)
            assert re.fullmatch(reason, str(err.value)), str(err.value)


# The weights of the written-out formulas: 2 Pe dz (B_0/3 + B_1/6) and its
# mirror (Galerkin), Pe dz (B_0 + B_1)/2 on both nodes (averaged)
WRITTEN_OUT_WEIGHTS = {
    Scheme.GALERKIN: ((Fraction(1, 3), Fraction(1, 6)), (Fraction(1, 6), Fraction(1, 3))),
    Scheme.ELEMENT_AVERAGED: ((Fraction(1, 4), Fraction(1, 4)),) * 2,
}


def _assert_within_subnormal_rounding(rhs, pe, dz, bn, scheme):
    """rhs against the exact value of the written-out load formula, the sum
    over the elements e of node i of L * F_e, with L = 2 Pe dz and F_e =
    sum_j w_ij B_j. Where Pe*dz is subnormal, the Galerkin formula rounds
    (2*Pe)*dz and the averaged one Pe*dz, at different points, so no one
    assembly order matches both bit for bit. With eta the least subnormal
    and eps = 2^-53, each rounding is x(1 + d) + e, |d| <= eps, |e| <= eta/2.
    The assembly rounds L once (off by eta/2 + eps L), F_e in three
    operations (off by about 3 eps A_e, A_e = sum_j |w_ij B_j|), the product
    L*F_e once (eta/2 + eps L A_e) and the sum of node i's two terms once
    more (eps L A_e each), so node i is off by less than
    sum_e (eta + 8 eps L) (A_e + 1)."""
    eta, eps = Fraction(2) ** -1074, Fraction(2) ** -53
    big_l = 2 * Fraction(pe) * Fraction(dz)
    b = [Fraction(v) for v in bn]
    exact, bound = [Fraction(0)] * len(b), [Fraction(0)] * len(b)
    for e in range(len(b) - 1):
        for i, row in zip((e, e + 1), WRITTEN_OUT_WEIGHTS[scheme]):
            exact[i] += big_l * (row[0] * b[e] + row[1] * b[e + 1])
            bound[i] += (eta + 8 * eps * big_l) * (row[0] * abs(b[e]) + row[1] * abs(b[e + 1]) + 1)
    assert rhs[0] == 0.0   # the Dirichlet row
    for i in range(1, len(b)):
        assert abs(Fraction(rhs[i]) - exact[i]) <= bound[i], i


@settings(max_examples=60, deadline=None)
@given(pe=st.one_of(st.floats(0.0, 1e6), st.floats(1 - 1e-6, 1 + 1e-6),
                    st.sampled_from([0.0, 1.0, 1e6])),
       nodes=st.integers(3, 5000),
       dz=st.sampled_from([0.2, 0.25, 3.3]),
       scheme=st.sampled_from(list(Scheme)), seed=st.integers(0, 2**32 - 1))
@example(pe=5e-324, nodes=3, dz=3.3, scheme=Scheme.ELEMENT_AVERAGED, seed=0)
def test_kernel_solves_within_budget_in_edge_regimes(pe, nodes, dz, scheme, seed):
    # Pe from 0 through 1 to 1e6 on 3 to 5,000 nodes of loads over twelve
    # decades: the rhs is the written-out formulas' bit for bit (within the
    # rounding bound below where Pe*dz is subnormal), and with an inlet
    # value in row 0 the solution takes it and meets the residual budget on
    # the three full diagonals
    mesh = Mesh1D(dz, nodes)
    table = _table(seed, nodes, dz)
    system = assemble_1d(mesh, pe, table, scheme)
    want = _written_out_assembly(mesh, pe, table.values, scheme)[3]
    if 0 < Fraction(pe) * Fraction(dz) < Fraction(sys.float_info.min):
        _assert_within_subnormal_rounding(system.rhs, pe, dz, table.values, scheme)
    else:
        assert system.rhs.tobytes() == want.tobytes()
    want[0] = table.values[1]
    system = replace(system, rhs=want)
    sol = solve_1d(system)
    assert sol.a_y[0] == want[0]
    product, norm = _array_matmul(system, sol.a_y)
    resid = np.max(np.abs(product - system.rhs))
    assert resid <= RESIDUAL_RTOL * (norm * np.max(np.abs(sol.a_y)) + np.max(np.abs(system.rhs)))
