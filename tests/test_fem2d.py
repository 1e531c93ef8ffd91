from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from eddyfem.core import (InvalidArgumentError, Material, Mesh2D,
                          NumericalFailureError, Scheme, SmoothCircle2D,
                          material_for_peclet)
from eddyfem.fem2d import (DiscreteSystem2D, RegionMap2D, assemble_2d,
                           axis_profile, elemental_blocks, exact_patch_rows,
                           oscillation_metric, solve_2d)
from stencil_utils import expected_lhs_stencils, expected_rhs_stencils

PE = Fraction(7, 2)
U = Fraction(3)


def uniform_conductor_case(nz=7, ny=7, scheme=Scheme.ELEMENT_AVERAGED,
                           profile=None, pe=3.5, u=3.0):
    mesh = Mesh2D.uniform(nz=nz, ny=ny, dz=1.0, dy=1.0, z0=0.0, y0=-(ny - 1) / 2)
    sigma = 2 * pe / u  # mu = 1, h = 1
    material = Material(sigma=sigma, mu=1.0, u_z=u)
    regions = RegionMap2D.all_conductor(mesh)
    profile = profile or SmoothCircle2D(radius=1.5, amplitude=1.0)
    return mesh, material, regions, profile, scheme


# ---------------------------------------------------------------------------
# exact stencil equivalence


@pytest.mark.parametrize("scheme", list(Scheme))
def test_interior_rows_equal_stencil_polynomials_exactly(scheme):
    lhs, rhs_w = exact_patch_rows(PE, U, scheme)
    exp_lhs = expected_lhs_stencils(PE, U)
    assert set(lhs) == set(exp_lhs)
    for key in exp_lhs:
        assert lhs[key] == exp_lhs[key], f"row block {key}"
    exp_rhs = expected_rhs_stencils(PE, U, scheme)
    for fieldno in exp_rhs:
        assert rhs_w[fieldno] == exp_rhs[fieldno], f"rhs field {fieldno}"


def test_phi_coupling_weights_on_transport_row():
    # transported-potential row couples to phi with (Pe/6u)(+-1, +-4, +-1)
    lhs, _ = exact_patch_rows(PE, U, Scheme.GALERKIN)
    c = PE / (6 * U)
    assert lhs[(2, 0)] == {(2, 2): c, (0, 2): -c, (2, 1): 4 * c, (0, 1): -4 * c,
                           (2, 0): c, (0, 0): -c}


def test_averaged_rhs_is_sixteenth_weighted_nine_point():
    _, rhs_w = exact_patch_rows(PE, U, Scheme.ELEMENT_AVERAGED)
    # (1,2,1; 2,4,2; 1,2,1)/16 scaled by 2*Pe*dz with dz = 1
    scale = 2 * PE / Fraction(16)
    expected = {(i, j): scale * w
                for (i, j), w in {(0, 0): 1, (1, 0): 2, (2, 0): 1,
                                  (0, 1): 2, (1, 1): 4, (2, 1): 2,
                                  (0, 2): 1, (1, 2): 2, (2, 2): 1}.items()}
    assert rhs_w[1] == expected


def test_float_assembly_matches_exact_patch():
    mesh, material, regions, profile, scheme = uniform_conductor_case(
        scheme=Scheme.GALERKIN)
    system = assemble_2d(mesh, material, regions, profile, scheme)
    a = system.matrix.tocsr()
    m_count = mesh.node_count
    center = (mesh.ny // 2) * mesh.nz + mesh.nz // 2
    lhs, _ = exact_patch_rows(PE, U, Scheme.GALERKIN)
    for rf in (0, 1, 2):
        row = a.getrow(rf * m_count + center)
        got = {}
        for idx, val in zip(row.indices, row.data):
            cf, node = divmod(idx, m_count)
            mm, nn = divmod(node, mesh.nz)
            off = (nn - mesh.nz // 2 + 1, mm - mesh.ny // 2 + 1)
            got.setdefault(cf, {})[off] = val
        for cf, stencil in got.items():
            exp = {k: float(v) for k, v in lhs[(rf, cf)].items()}
            assert set(stencil) == set(exp)
            for k in exp:
                assert stencil[k] == pytest.approx(exp[k], rel=1e-13), (rf, cf, k)


def test_constant_input_same_rhs_for_both_schemes():
    class Flat:
        def sample(self, z, y=0.0):
            return np.full(np.broadcast(np.asarray(z), np.asarray(y)).shape, 0.8)

    mesh, material, regions, _, _ = uniform_conductor_case()
    rg = assemble_2d(mesh, material, regions, Flat(), Scheme.GALERKIN).rhs
    ra = assemble_2d(mesh, material, regions, Flat(), Scheme.ELEMENT_AVERAGED).rhs
    assert np.allclose(rg, ra, rtol=1e-12, atol=1e-15)


def test_averaged_element_input_of_constant_is_that_constant():
    blk = elemental_blocks(1.0, 1.0)
    bq = np.full(4, 0.8)
    assert bq.mean() == pytest.approx(0.8)
    assert sum(blk["int_n"]) == pytest.approx(1.0)


def test_zero_input_gives_zero_solution():
    class Zero:
        def sample(self, z, y=0.0):
            return np.zeros(np.broadcast(np.asarray(z), np.asarray(y)).shape)

    mesh, material, regions, _, _ = uniform_conductor_case()
    sol = solve_2d(assemble_2d(mesh, material, regions, Zero(), Scheme.GALERKIN))
    assert np.max(np.abs(sol.phi)) == 0.0
    assert np.max(np.abs(sol.a_y)) == 0.0
    assert np.max(np.abs(sol.a_z)) == 0.0
    assert np.max(np.abs(sol.b_x)) == 0.0


# ---------------------------------------------------------------------------
# the sheet scenario


def sheet_system(pe, scheme, nz=33, refine_z=1):
    from eddyfem.cli import ScenarioConfig, build_2d_case
    raw = {
        "dimension": 2, "scheme": "both", "pe": [float(pe)],
        "sheet": {"thickness": 1.3, "sigma": 7.21e6, "mu_r": 1.0, "air_factor": 5.0},
        "field": {"kind": "smooth_circle", "radius": 1.3, "amplitude": 1.0},
        "grid": {"nz": (nz - 1) * refine_z + 1, "conductor_rows": 16,
                 "air_ratio": 1.3, "axial_factor": 6.0},
    }
    cfg = ScenarioConfig.from_dict(raw)
    mesh, material, regions, profile = build_2d_case(cfg, pe)
    if refine_z > 1:
        # keep the physical velocity of the unrefined grid
        base_dz = 6.0 * 2 * 1.3 / (nz - 1)
        material = material_for_peclet(pe, base_dz, sigma=material.sigma, mu=material.mu)
    return assemble_2d(mesh, material, regions, profile, scheme)


def sheet_case(pe, scheme, nz=33, refine_z=1):
    system = sheet_system(pe, scheme, nz, refine_z)
    return solve_2d(system), system.mesh


def spurious_deviation(pe, scheme, nz=33, refine=8):
    """Centerline deviation of the coarse solve from a z-refined solve of the
    same scheme, interpolated to the coarse element centers."""
    sol, mesh = sheet_case(pe, scheme, nz=nz)
    ref, mesh_r = sheet_case(pe, scheme, nz=nz, refine_z=refine)
    tr = axis_profile(sol, mesh)
    trr = axis_profile(ref, mesh_r)
    dev = tr[:, 1] - np.interp(tr[:, 0], trr[:, 0], trr[:, 1])
    return tr[:, 0], dev


def test_galerkin_oscillates_at_pe_60_averaged_does_not():
    z, dev_g = spurious_deviation(60.0, Scheme.GALERKIN)
    _, dev_a = spurious_deviation(60.0, Scheme.ELEMENT_AVERAGED)
    # Galerkin: a sustained run of node-to-node alternation in the spurious
    # part; the averaged input shows at most isolated derivative sign
    # changes from its smooth dip, never a run
    def alternation_run(dev, threshold=0.01):
        d = np.diff(dev)
        best = run = 0
        for a, b in zip(d[:-1], d[1:]):
            if a * b < 0 and abs(a) > threshold and abs(b) > threshold:
                run += 1
                best = max(best, run)
            else:
                run = 0
        return best

    assert alternation_run(dev_g) >= 6
    assert alternation_run(dev_a) <= 1
    # spurious-oscillation metric upstream of the field support
    window = z < -2.5 * 1.3
    mg = oscillation_metric(dev_g[window], 1.0)
    ma = oscillation_metric(dev_a[window], 1.0)
    assert mg > 10 * ma


def test_scheme_stability_contrast_persists_at_high_pe():
    z, dev_g = spurious_deviation(2000.0, Scheme.GALERKIN)
    _, dev_a = spurious_deviation(2000.0, Scheme.ELEMENT_AVERAGED)
    window = z < -2.5 * 1.3
    assert oscillation_metric(dev_g[window], 1.0) >= 0.1
    assert oscillation_metric(dev_a[window], 1.0) <= 0.01


@pytest.mark.parametrize("nz", [33, 65])   # ny = 41: both numbering orientations
@pytest.mark.parametrize("pe", [2.0, 2000.0])
@pytest.mark.parametrize("scheme", list(Scheme))
def test_banded_solve_agrees_with_sparse_reference(nz, pe, scheme):
    system = sheet_system(pe, scheme, nz=nz)
    sol = solve_2d(system)
    x = np.concatenate([sol.phi.ravel(), sol.a_y.ravel(), sol.a_z.ravel()])
    x_ref = spla.spsolve(system.matrix.tocsc(), system.rhs)
    assert np.max(np.abs(x - x_ref)) <= 1e-9 * np.max(np.abs(x_ref))
    assert sol.residual == np.max(np.abs(system.matrix @ x - system.rhs))


def test_mesh_symmetry_of_even_input():
    sol, mesh = sheet_case(60.0, Scheme.ELEMENT_AVERAGED)
    bx = sol.b_x
    mirrored = bx[::-1, :]
    assert np.max(np.abs(bx - mirrored)) <= 1e-7 * np.max(np.abs(bx))


def test_assembly_is_deterministic():
    mesh, material, regions, profile, scheme = uniform_conductor_case()
    s1 = assemble_2d(mesh, material, regions, profile, scheme)
    s2 = assemble_2d(mesh, material, regions, profile, scheme)
    assert (s1.matrix != s2.matrix).nnz == 0
    assert np.array_equal(s1.rhs, s2.rhs)


def test_axis_profile_requires_centerline_row():
    mesh = Mesh2D.uniform(nz=5, ny=4, dz=1.0, dy=0.5, y0=0.1)
    material = Material(sigma=1.0, mu=1.0, u_z=1.0)
    regions = RegionMap2D.all_conductor(mesh)
    sol = solve_2d(assemble_2d(mesh, material, regions,
                               SmoothCircle2D(1.0, 1.0), Scheme.GALERKIN))
    with pytest.raises(InvalidArgumentError):
        axis_profile(sol, mesh)


def test_axis_profile_zero_solution():
    class Zero:
        def sample(self, z, y=0.0):
            return np.zeros(np.broadcast(np.asarray(z), np.asarray(y)).shape)

    mesh, material, regions, _, _ = uniform_conductor_case()
    sol = solve_2d(assemble_2d(mesh, material, regions, Zero(), Scheme.GALERKIN))
    trace = axis_profile(sol, mesh)
    assert np.max(np.abs(trace[:, 1])) == 0.0


def test_oscillation_metric_values():
    lin = np.column_stack([np.arange(6.0), 2.0 * np.arange(6.0) + 1.0])
    assert oscillation_metric(lin, 1.0) == 0.0
    eps = 0.01
    alt = np.array([eps, -eps, eps, -eps, eps])
    assert oscillation_metric(alt, 1.0) == pytest.approx(2 * eps)
    assert oscillation_metric(alt, 2.0) == pytest.approx(eps)
    with pytest.raises(InvalidArgumentError):
        oscillation_metric(alt, 0.0)
    with pytest.raises(InvalidArgumentError):
        oscillation_metric(alt[:2], 1.0)


def test_region_map_validation():
    with pytest.raises(InvalidArgumentError):
        RegionMap2D((1.0, 0.0, 1.0))       # not contiguous
    with pytest.raises(InvalidArgumentError):
        RegionMap2D((0.0, 0.0))            # no conductor
    with pytest.raises(InvalidArgumentError):
        RegionMap2D((0.5, 1.0))            # not a 0/1 flag
    rm = RegionMap2D((0.0, 1.0, 1.0, 0.0))
    assert rm.row_multipliers == (0.0, 1.0, 1.0, 0.0)


def test_region_map_from_band():
    mesh = Mesh2D.uniform(nz=5, ny=7, dz=1.0, dy=0.5, y0=-1.5)
    rm = RegionMap2D.conducting_band(mesh, thickness=1.0)
    assert rm.row_multipliers == (0.0, 0.0, 1.0, 1.0, 0.0, 0.0)


def test_region_map_mesh_mismatch_raises():
    mesh, material, _, profile, scheme = uniform_conductor_case()
    with pytest.raises(InvalidArgumentError):
        assemble_2d(mesh, material, RegionMap2D((1.0, 1.0)), profile, scheme)


def test_singular_system_raises():
    mesh = Mesh2D.uniform(nz=3, ny=3, dz=1.0, dy=1.0)
    n = 3 * mesh.node_count
    singular = sp.csr_matrix((n, n))
    bad = DiscreteSystem2D(matrix=singular, rhs=np.ones(n), mesh=mesh)
    with pytest.raises(NumericalFailureError):
        solve_2d(bad)


def test_rank_deficient_system_raises():
    mesh, material, regions, profile, scheme = uniform_conductor_case()
    system = assemble_2d(mesh, material, regions, profile, scheme)
    a = system.matrix.tolil()
    rhs = system.rhs.copy()
    center = (mesh.ny // 2) * mesh.nz + mesh.nz // 2
    a[center + 1] = a[center]            # two identical phi rows
    rhs[center + 1] = rhs[center]
    bad = DiscreteSystem2D(matrix=a.tocsr(), rhs=rhs, mesh=mesh)
    with pytest.raises(NumericalFailureError):
        solve_2d(bad)
