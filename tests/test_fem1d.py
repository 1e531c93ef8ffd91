import numpy as np
import pytest

from eddyfem.core import (InvalidArgumentError, Mesh1D, NumericalFailureError,
                          RectPulse1D, Scheme, material_for_peclet)
from eddyfem.fem1d import (DiscreteSystem1D, Solution1D, assemble_1d,
                           peak_spurious_error, reaction_field,
                           rect_pulse_case, solve_1d)


def small_case(pe=2.0, dz=0.25, scheme=Scheme.GALERKIN, n=41, pulse=(3.875, 6.125)):
    mesh = Mesh1D.from_node_count(dz, n)
    material = material_for_peclet(pe, dz)
    profile = RectPulse1D(a=pulse[0], b=pulse[1], amplitude=1.0)
    return assemble_1d(mesh, material, profile, scheme), mesh


def test_interior_row_coefficients():
    system, _ = small_case(pe=2.0, dz=0.25)
    k = 10
    assert system.lower[k - 1] == pytest.approx(-3.0)   # -1 - Pe
    assert system.diag[k] == pytest.approx(2.0)
    assert system.upper[k] == pytest.approx(1.0)        # -1 + Pe


def test_interior_row_sum_is_zero():
    system, _ = small_case(pe=7.3, dz=0.1)
    n = len(system.diag)
    rowsums = system.matmul(np.ones(n))
    assert np.max(np.abs(rowsums[1:-1])) == 0.0  # constants in the null space


def test_constant_input_same_rhs_for_both_schemes():
    mesh = Mesh1D.from_node_count(0.25, 21)
    material = material_for_peclet(3.0, 0.25)
    const = RectPulse1D(a=-1.0, b=100.0, amplitude=0.7)
    rg = assemble_1d(mesh, material, const, Scheme.GALERKIN).rhs
    ra = assemble_1d(mesh, material, const, Scheme.ELEMENT_AVERAGED).rhs
    assert np.allclose(rg[1:-1], 2 * 3.0 * 0.25 * 0.7, rtol=1e-14)
    assert np.allclose(rg, ra, rtol=1e-14)


def test_averaged_rhs_single_hot_node():
    # B = (0, 1, 0) around an interior node -> rhs = 2 Pe dz * 2/4 = 0.5
    mesh = Mesh1D.from_node_count(0.25, 7)
    material = material_for_peclet(2.0, 0.25)
    hot = RectPulse1D(a=0.25 * 3 - 0.1, b=0.25 * 3 + 0.1, amplitude=1.0)
    system = assemble_1d(mesh, material, hot, Scheme.ELEMENT_AVERAGED)
    assert system.rhs[3] == pytest.approx(0.5)
    assert system.rhs[2] == pytest.approx(0.25)   # neighbor weight 1/4
    system_g = assemble_1d(mesh, material, hot, Scheme.GALERKIN)
    assert system_g.rhs[3] == pytest.approx(2 * 2.0 * 0.25 * 4 / 6)


def test_zero_rhs_gives_zero_solution():
    mesh = Mesh1D.from_node_count(0.2, 30)
    material = material_for_peclet(5.0, 0.2)
    off = RectPulse1D(a=100.0, b=101.0, amplitude=1.0)  # pulse outside the mesh
    sol = solve_1d(assemble_1d(mesh, material, off, Scheme.GALERKIN))
    assert np.max(np.abs(sol.a_y)) == 0.0
    assert np.max(np.abs(sol.b_x)) == 0.0


def test_solve_residual_within_budget():
    system, _ = small_case(pe=2000.0, dz=0.2, n=51, pulse=(3.9, 6.1))
    sol = solve_1d(system)
    resid = np.max(np.abs(system.matmul(sol.a_y) - system.rhs))
    budget = 1e-10 * (system.inf_norm() * np.max(np.abs(sol.a_y))
                      + np.max(np.abs(system.rhs)))
    assert resid <= budget
    assert sol.residual == resid


def test_singular_system_raises():
    system, mesh = small_case()
    bad = DiscreteSystem1D(lower=system.lower * 0, diag=system.diag * 0,
                           upper=system.upper * 0, rhs=system.rhs, mesh=mesh)
    with pytest.raises(NumericalFailureError):
        solve_1d(bad)


def test_matches_oracle_at_mid_peclet():
    from eddyfem.oracle import analytic_solve
    mesh, material, profile = rect_pulse_case(2.0, 0.25, 30, 9, 30)
    fem = solve_1d(assemble_1d(mesh, material, profile, Scheme.ELEMENT_AVERAGED))
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
    mesh, material, profile = rect_pulse_case(pe, dz, m_b, m_c, m_d)
    b_g = solve_1d(assemble_1d(mesh, material, profile, Scheme.GALERKIN)).b_x
    b_a = solve_1d(assemble_1d(mesh, material, profile, Scheme.ELEMENT_AVERAGED)).b_x
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
        mesh, material, profile = rect_pulse_case(pe, 0.25, m_b, m_c, m_d)
        sol = solve_1d(assemble_1d(mesh, material, profile, Scheme.ELEMENT_AVERAGED))
        lo, hi = m_b + 2, m_b + m_c + 4
        outside = np.concatenate([sol.b_x[:lo - 1], sol.b_x[hi + 1:]])
        assert _alternation_run(outside, 1e-3) == 0


def test_schemes_agree_below_stability_threshold():
    # away from the input transitions both schemes resolve the same field
    pe, m_b, m_c, m_d = 0.5, 30, 12, 30
    mesh, material, profile = rect_pulse_case(pe, 0.25, m_b, m_c, m_d)
    b_g = solve_1d(assemble_1d(mesh, material, profile, Scheme.GALERKIN)).b_x
    b_a = solve_1d(assemble_1d(mesh, material, profile, Scheme.ELEMENT_AVERAGED)).b_x
    mask = np.ones(len(b_g), dtype=bool)
    mask[m_b:m_b + 3] = False                        # rising transition band
    mask[m_b + 3 + m_c:m_b + 6 + m_c] = False        # falling transition band
    assert np.max(np.abs((b_g - b_a)[mask])) <= 0.02


def test_reaction_field_of_linear_and_constant():
    mesh = Mesh1D.from_node_count(0.5, 11)
    slope = 0.75
    linear = slope * mesh.nodes()
    assert np.allclose(reaction_field(linear, mesh), -slope, rtol=1e-13)
    assert np.allclose(reaction_field(np.full(11, 3.0), mesh), 0.0)
    with pytest.raises(InvalidArgumentError):
        reaction_field(np.zeros(5), mesh)


def test_peak_spurious_error_basics():
    sol = Solution1D(a_y=np.zeros(5), b_x=np.array([1.0, 2.0, 3.0]))
    same = Solution1D(a_y=np.zeros(5), b_x=np.array([1.0, 2.0, 3.0]))
    assert peak_spurious_error(sol, same, 2.0) == 0.0
    other = np.array([1.0, 2.5, 3.0])
    assert peak_spurious_error(sol, other, 2.0) == pytest.approx(0.25)
    with pytest.raises(InvalidArgumentError):
        peak_spurious_error(sol, np.array([1.0]), 2.0)
    with pytest.raises(InvalidArgumentError):
        peak_spurious_error(sol, same, 0.0)


def test_measured_error_examples():
    from eddyfem.cli import measured_peak_error
    got = measured_peak_error(2.0, 0.25, 30, 9, 30, Scheme.ELEMENT_AVERAGED)
    assert abs(got) == pytest.approx(1 / 27, abs=1e-9)   # about 3.7% of B
    big = measured_peak_error(1000.0, 0.2, 40, 30, 40, Scheme.GALERKIN)
    assert abs(big) == pytest.approx(1 / 3, rel=5e-3)    # limit of the formula


def test_profile_mismatch_raises():
    mesh = Mesh1D.from_node_count(0.25, 11)
    material = material_for_peclet(2.0, 0.25)
    with pytest.raises(InvalidArgumentError):
        assemble_1d(mesh, material, object(), Scheme.GALERKIN)
