import io
import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from eddyfem.core import (InvalidArgumentError, Material, Mesh2D,
                          NumericalFailureError, Scheme, SmoothCircle2D,
                          lapack, material_for_peclet)
from eddyfem import fem1d, fem2d
from eddyfem.fem2d import (BLOCK_TABLE, MIRROR_PARITY, DiscreteSystem2D,
                           RegionMap2D, assemble_2d, axis_profile,
                           elemental_blocks, exact_patch_rows,
                           oscillation_metric, rhs_2d, solve_2d)
from eddyfem.cli import graded_sheet_rows, verify
from eddyfem.ztransfer import tf_2d
from stencil_utils import (dict_fold_patch_rows, expected_lhs_stencils, expected_rhs_stencils,
                           neighbours, stencil_band, stencil_matvec, stencil_sector,
                           whole_grid_stencil, written_out_blocks)

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


class Impulse:
    """Unit input at one node, zero at every other."""

    def __init__(self, z, y):
        self.z, self.y = z, y

    def sample(self, z, y=0.0):
        return np.where((np.asarray(z) == self.z) & (np.asarray(y) == self.y), 1.0, 0.0)


def assert_rhs_reads_the_exact_input_weights(scheme):
    # an impulse at each neighbour of the centre node reads one weight of
    # the certified input stencil off the assembled centre rows
    _, rhs_w = exact_patch_rows(PE, U, scheme)
    mesh, material, regions, _, _ = uniform_conductor_case()
    zs, ys = mesh.node_z(), mesh.node_y()
    nc, mc = mesh.nz // 2, mesh.ny // 2
    center = mc * mesh.nz + nc
    for dn in (-1, 0, 1):
        for dm in (-1, 0, 1):
            impulse = Impulse(zs[nc + dn], ys[mc + dm])
            rhs = assemble_2d(mesh, material, regions, impulse, scheme).rhs
            for rf in (0, 1):
                exp = float(rhs_w[rf].get((dn + 1, dm + 1), 0))
                got = rhs[rf * mesh.node_count + center]
                assert got == pytest.approx(exp, rel=1e-13, abs=1e-14), (rf, dn, dm)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_float_rhs_matches_exact_input_weights(scheme):
    assert_rhs_reads_the_exact_input_weights(scheme)


class NodeTable:
    """Given values at the nodes of a mesh with unit spacing, looked up by
    node index; a sample at the mirrored y reads the mirrored node."""

    def __init__(self, values, mesh):
        self.values, self.mesh = values, mesh

    def sample(self, z, y=0.0):
        m = np.rint(np.asarray(y) - self.mesh.y0).astype(int)
        n = np.rint(np.asarray(z) - self.mesh.z0).astype(int)
        return self.values[m, n]


@pytest.mark.parametrize("scheme", list(Scheme))
def test_rhs_applies_the_exact_load_stencils_at_every_interior_node(scheme):
    # random samples on a uniform all-conductor sheet: at every interior node
    # the float right-hand side is the certified load stencil applied to the
    # samples, so every weight of the folded load is read
    mesh, material, regions, _, _ = uniform_conductor_case(nz=9, ny=7)
    ny, nz = mesh.ny, mesh.nz
    values = np.random.default_rng(25).normal(size=(ny, nz))
    rhs = rhs_2d(mesh, material, regions, NodeTable(values, mesh), scheme)
    rhs = rhs.reshape(3, ny, nz)[:, 1:-1, 1:-1]
    _, rhs_w = exact_patch_rows(PE, U, scheme)
    for field in range(3):
        stencil = rhs_w.get(field, {})   # the A_z row carries no load
        want = np.zeros((ny - 2, nz - 2))
        for (dz, dy), w in stencil.items():
            want += float(w) * values[dy:dy + ny - 2, dz:dz + nz - 2]
        bound = 1e-13 * sum(abs(float(w)) for w in stencil.values()) * np.abs(values).max()
        assert np.abs(rhs[field] - want).max() <= bound, field


def test_load_table_is_the_one_source_of_the_input_weights(monkeypatch):
    # give the averaged A_y row the consistent-mass load: the float rhs and
    # the exact stencils both follow, and the certificate then finds the
    # Galerkin Z_n = -1 pole in the averaged scheme
    table = [(f, sign, names, {**loads, Scheme.ELEMENT_AVERAGED: "mass"} if f == 1 else loads)
             for f, sign, names, loads in fem2d.LOAD_TABLE]
    monkeypatch.setattr(fem2d, "LOAD_TABLE", tuple(table))
    (_, w_g), (_, w_a) = (exact_patch_rows(PE, U, s) for s in Scheme)
    assert w_a[1] == w_g[1] and w_a[0] != w_g[0]
    assert_rhs_reads_the_exact_input_weights(Scheme.ELEMENT_AVERAGED)
    mesh, material, regions, profile, _ = uniform_conductor_case()
    rhs_g, rhs_a = (rhs_2d(mesh, material, regions, profile, s) for s in Scheme)
    a_y = slice(mesh.node_count, 2 * mesh.node_count)
    assert np.array_equal(rhs_a[a_y], rhs_g[a_y]) and not np.array_equal(rhs_a, rhs_g)
    den, num = tf_2d(Scheme.ELEMENT_AVERAGED).zn_multiplicities[-1]
    assert den > num   # the Z_n = -1 pole is back
    buf = io.StringIO()
    assert verify(stream=buf) == 4
    assert "[FAIL] averaged cancels the Z_n = -1 pole" in buf.getvalue()


@pytest.mark.parametrize("scheme", list(Scheme))
def test_exact_patch_rows_are_the_dict_fold_exactly(scheme):
    for pe, u in itertools.product((0, 1, 2, 3, Fraction(7, 2), 10**6), (1, Fraction(3, 2))):
        assert exact_patch_rows(pe, u, scheme) == dict_fold_patch_rows(pe, u, scheme), (pe, u)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_y_uniform_mode_of_the_patch_is_the_1d_element(scheme):
    # summed over the y offsets (Z_m = 1), the A_y row and its load are the
    # 1D interior row and load, and the A_y row's phi and A_z couplings
    # vanish at every z offset
    def at_zm_one(stencil):
        return tuple(sum(stencil.get((dz, dy), 0) for dy in range(3)) for dz in range(3))

    for pe in (Fraction(0), Fraction(1, 2), Fraction(2), Fraction(7, 3), Fraction(1000)):
        lhs, rhs_w = exact_patch_rows(pe, Fraction(3, 2), scheme)
        row, load = fem1d.exact_stencil(pe, scheme)
        assert at_zm_one(lhs[1, 1]) == row, pe
        assert at_zm_one(rhs_w[1]) == load, pe
        assert at_zm_one(lhs[1, 0]) == at_zm_one(lhs[1, 2]) == (0, 0, 0), pe


def test_elemental_blocks_are_the_written_out_blocks_bit_for_bit():
    # the tensor products of the reference integrals round as the
    # hand-written blocks did in floats, and equal them exactly, types
    # included, in Fractions
    heights = np.unique(graded_sheet_rows(1.3, 16, 5.0, 1.3)[0])   # the shipped grading
    sizes = (1.0, 0.17, 0.25, 1 / 3, 3.3, 1e-3, 7e5, *heights)
    for dz, dy in itertools.product(sizes, sizes):
        got, want = elemental_blocks(dz, dy), written_out_blocks(dz, dy)
        assert got.keys() == want.keys()
        for name, w in want.items():
            assert got[name].dtype == w.dtype == np.float64, name
            assert got[name].tobytes() == w.tobytes(), (dz, dy, name)
    sizes = (Fraction(1), Fraction(2, 3), Fraction(5, 7), Fraction(1, 10))
    for dz, dy in itertools.product(sizes, sizes):
        got, want = elemental_blocks(dz, dy), written_out_blocks(dz, dy)
        for name, w in want.items():
            assert got[name].shape == w.shape, name
            assert [(type(v), v) for v in got[name].flat] == [(type(v), v) for v in w.flat], name


def test_elemental_blocks_of_the_row_heights_are_the_scalar_calls_bit_for_bit():
    # _mesh_rows evaluates the element once, on the (rows, 1, 1) column of
    # the mesh's row heights; row r of every block is the scalar call's at
    # height r
    heights = np.array(graded_sheet_rows(1.3, 16, 5.0, 1.3)[0])   # the shipped grading
    for dz in (1.0, 0.17, 1 / 3, 7e5):
        stacked = elemental_blocks(dz, heights[:, None, None])
        for r, dy in enumerate(heights):
            single = elemental_blocks(dz, dy)
            assert stacked.keys() == single.keys()
            for name, block in single.items():
                assert stacked[name].shape == (len(heights), 4, 4), name
                assert stacked[name][r].tobytes() == block.tobytes(), (dz, r, name)


def drop_corner_0(rows):
    rows = rows.copy()
    rows[..., 0, :] = 0
    return rows


# broken folds of the element rows rows[..., i, j]: corner i = 2*iy + iz
# left out, the corners mirrored along z, and the corner pair (i, j) swapped
FOLD_MUTATIONS = {
    "drop_corner_0": drop_corner_0,
    "mirror_z": lambda rows: rows[..., [1, 0, 3, 2], :][..., [1, 0, 3, 2]],
    "swap_corner_pair": lambda rows: rows.swapaxes(-1, -2),
}


@pytest.mark.parametrize("mutation", list(FOLD_MUTATIONS))
def test_verify_certifies_the_production_fold(mutation, monkeypatch):
    # one patch of fem2d._fold moves the float interior column and the
    # exact certificates together, so verify fails; the float right-hand
    # side moves exactly when the exact load stencils do (the loads are even
    # in z, so mirroring z leaves them)
    parts = uniform_conductor_case()[:4]
    interior = assemble_2d(*parts, Scheme.GALERKIN).columns[..., 1]
    before = {s: (rhs_2d(*parts, s), exact_patch_rows(PE, U, s)[1]) for s in Scheme}
    fold, mutate = fem2d._fold, FOLD_MUTATIONS[mutation]
    monkeypatch.setattr(fem2d, "_fold", lambda rows, width: fold(mutate(rows), width))
    assert not np.array_equal(assemble_2d(*parts, Scheme.GALERKIN).columns[..., 1], interior)
    assert verify(stream=io.StringIO()) == 4
    for s, (rhs, loads) in before.items():
        moved = exact_patch_rows(PE, U, s)[1] != loads
        assert moved == (mutation != "mirror_z"), s
        assert (not np.array_equal(rhs_2d(*parts, s), rhs)) == moved, s


def test_constant_input_same_rhs_for_both_schemes():
    class Flat:
        def sample(self, z, y=0.0):
            return np.full(np.broadcast(np.asarray(z), np.asarray(y)).shape, 0.8)

    mesh, material, regions, _, _ = uniform_conductor_case()
    rg = assemble_2d(mesh, material, regions, Flat(), Scheme.GALERKIN).rhs
    ra = assemble_2d(mesh, material, regions, Flat(), Scheme.ELEMENT_AVERAGED).rhs
    assert np.allclose(rg, ra, rtol=1e-12, atol=1e-15)


def test_averaged_element_input_of_constant_is_that_constant():
    # the element mean of equal corner samples is the sample: row i of the
    # averaged load of a constant is that constant times int N_i
    blk = elemental_blocks(1.0, 1.0)
    bq = np.full(4, 0.8)
    assert blk["avg_mass"] @ bq == pytest.approx(0.8 * blk["avg_mass"].sum(axis=1))
    assert blk["avg_mass"].sum() == pytest.approx(1.0)


def test_averaged_load_is_the_1d_averaged_weight_squared():
    # one averaged weight for both dimensions: the 2D block is dz*dy times
    # the tensor product of the 1D weights int N_i int N_j, and its rows, and
    # those of its y-derivative partner, sum to int N_i and int dN_i/dy, the
    # row sums of the Galerkin mass and gy0 blocks
    w = fem1d.element_weights(Scheme.ELEMENT_AVERAGED)
    corners = [divmod(i, 2) for i in range(4)]   # (iy, iz) of corner 2*iy + iz
    for dz, dy in itertools.product((Fraction(1), Fraction(2, 3), Fraction(5, 7)), repeat=2):
        blk = elemental_blocks(dz, dy)
        assert blk["avg_mass"].tolist() == [[dz * dy * w[iy][jy] * w[iz][jz] for jy, jz in corners]
                                            for iy, iz in corners]
        int_n, int_ny = [dz * dy / 4] * 4, [-dz / 2, -dz / 2, dz / 2, dz / 2]
        assert blk["avg_mass"].sum(axis=1).tolist() == int_n == blk["mass"].sum(axis=1).tolist()
        assert blk["avg_gy0"].sum(axis=1).tolist() == int_ny == blk["gy0"].sum(axis=1).tolist()


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


# the inputs of the shipped sheet2d_circle and sheet2d_rect configs
CIRCLE = {"kind": "smooth_circle", "radius": 1.3, "amplitude": 1.0}
RECT = {"kind": "rect_pulse", "a": 1.3, "b_extent": 1.3, "amplitude": 1.0}


def sheet_parts(pe, nz=33, refine_z=1, field=CIRCLE):
    """(mesh, material, regions, profile) of the conducting-sheet scenario."""
    from eddyfem.cli import ScenarioConfig, build_2d_case
    raw = {
        "dimension": 2, "scheme": "both", "pe": [float(pe)],
        "sheet": {"thickness": 1.3, "sigma": 7.21e6, "mu_r": 1.0, "air_factor": 5.0},
        "field": field,
        "grid": {"nz": (nz - 1) * refine_z + 1, "conductor_rows": 16,
                 "air_ratio": 1.3, "axial_factor": 6.0},
    }
    cfg = ScenarioConfig.from_dict(raw)
    mesh, material, regions, profile = build_2d_case(cfg, pe)
    if refine_z > 1:
        # keep the physical velocity of the unrefined grid
        base_dz = 6.0 * 2 * 1.3 / (nz - 1)
        material = material_for_peclet(pe, base_dz, sigma=material.sigma, mu=material.mu)
    return mesh, material, regions, profile


def sheet_system(pe, scheme, nz=33, refine_z=1):
    return assemble_2d(*sheet_parts(pe, nz, refine_z), scheme)


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


# ---------------------------------------------------------------------------
# mirror-sector solve


def test_mirror_parity_follows_from_the_elemental_blocks():
    # reflecting an element in y swaps its node rows (local 2*iy + iz);
    # every elemental term of block (r, c) must pick up the sign
    # MIRROR_PARITY[r] * MIRROR_PARITY[c], and the input weights of row r
    # the sign MIRROR_PARITY[r]
    blk = elemental_blocks(Fraction(2, 3), Fraction(5, 7))
    flip = [2, 3, 0, 1]
    for rf, cf, terms in BLOCK_TABLE:
        for _, _, name in terms:
            b = blk[name]
            assert np.all(b[np.ix_(flip, flip)] == MIRROR_PARITY[rf] * MIRROR_PARITY[cf] * b), name
    for rf, names in ((0, ("gy0", "avg_gy0")), (1, ("mass", "avg_mass"))):
        for name in names:
            b = blk[name]
            assert np.all(b[np.ix_(flip, flip)] == MIRROR_PARITY[rf] * b), name


def uniform_band_case():
    """A uniform mesh whose two middle element rows conduct."""
    mesh = Mesh2D.uniform(nz=9, ny=9, dz=0.5, dy=0.5, z0=-2.0, y0=-2.0)
    regions = RegionMap2D.conducting_band(mesh, 1.0)
    assert regions.row_multipliers == (0.0,) * 3 + (1.0,) * 2 + (0.0,) * 3
    return mesh, Material(sigma=3.0, mu=1.2, u_z=2.5), regions, SmoothCircle2D(0.8, 1.0)


# meshes whose description mirrors about a centre node row at y = 0
MIRRORED = {
    "uniform": uniform_band_case,
    "graded_air": lambda: graded_air_case(),
    "all_conductor": lambda: uniform_conductor_case()[:4],
    "shipped_band": lambda: sheet_parts(60.0),
}


def assert_commutes_with_the_signed_mirror(system):
    a, mesh = system.matrix, system.mesh
    m_count, nz = mesh.node_count, mesh.nz
    dof = np.arange(3 * m_count)
    field, node = np.divmod(dof, m_count)
    mirror = field * m_count + (mesh.ny - 1 - node // nz) * nz + node % nz
    p = sp.csr_matrix((np.take(MIRROR_PARITY, field).astype(float), (dof, mirror)),
                      shape=a.shape)
    diff = p @ a @ p - a
    eps = np.finfo(float).eps
    assert np.max(np.abs(diff.data), initial=0.0) <= 4 * eps * np.max(np.abs(a.data))


@pytest.mark.parametrize("scheme", list(Scheme))
def test_sheet_matrix_commutes_with_the_signed_mirror(scheme):
    assert_commutes_with_the_signed_mirror(sheet_system(60.0, scheme))


@pytest.mark.parametrize("case", list(MIRRORED))
def test_mirrored_mesh_matrix_commutes_with_the_signed_mirror(case):
    assert_commutes_with_the_signed_mirror(assemble_2d(*MIRRORED[case](), Scheme.GALERKIN))


@pytest.mark.parametrize("case", list(MIRRORED))
def test_mirrored_meshes_take_the_sector_path(case, monkeypatch):
    # the split is read off the mesh description; a load with a part in
    # both sectors factors both half-height bands
    mesh, material, regions, profile = MIRRORED[case]()
    assert fem2d._mirrored_mesh(mesh, regions)
    system = assemble_2d(mesh, material, regions, profile, Scheme.GALERKIN)
    load = np.random.default_rng(5).standard_normal(system.rhs.shape)
    calls = counted_dgbtrf(monkeypatch)
    _, sol = solve_2d(system, more_rhs=[load])
    assert len(calls) == 2 and sol.band_kl == tuple(calls)
    assert max(calls) < 3 * (mesh.ny + 1) // 2 + 5


def counted_dgbtrf(monkeypatch):
    """Record the kl of every band LU factored from here on."""
    calls = []
    dgbtrf = lapack().dgbtrf

    def counting(ab, kl, ku, **kwargs):
        calls.append(kl)
        return dgbtrf(ab, kl, ku, **kwargs)

    monkeypatch.setattr(lapack(), "dgbtrf", counting)
    return calls


def flat(sol):
    return np.concatenate([sol.phi.ravel(), sol.a_y.ravel(), sol.a_z.ravel()])


@pytest.mark.parametrize("case", ["sheet", "off_centre_band", "even_ny"])
def test_solver_path_and_sparse_agreement(case, monkeypatch):
    # the symmetric sheet splits into two half-height sectors, and its even
    # input reaches only the even one; an off-centre band on the same mesh,
    # or an even ny (its gauge pin is off the midline), takes one band LU
    # over the whole grid
    mesh, material, regions, profile = sheet_parts(60.0)
    if case == "off_centre_band":
        regions = RegionMap2D.conducting_band(mesh, 1.3, center=0.3)
    elif case == "even_ny":
        mesh, material, regions, profile, _ = uniform_conductor_case(nz=15, ny=12)
    system = assemble_2d(mesh, material, regions, profile, Scheme.GALERKIN)
    calls = counted_dgbtrf(monkeypatch)
    sol = solve_2d(system)
    assert len(calls) == 1
    assert sol.band_kl == tuple(calls)
    if case == "sheet":   # ny = 41: the sector has half the bandwidth
        assert max(calls) < 3 * (mesh.ny + 1) // 2 + 5 < 3 * min(mesh.ny, mesh.nz)
    x_ref = spla.spsolve(system.matrix.tocsc(), system.rhs)
    assert np.max(np.abs(flat(sol) - x_ref)) <= 1e-9 * np.max(np.abs(x_ref))


def test_sector_solve_of_an_asymmetric_extra_rhs(monkeypatch):
    # a random load has a nonzero part in both sectors
    system = sheet_system(2000.0, Scheme.ELEMENT_AVERAGED)
    load = np.random.default_rng(7).standard_normal(system.rhs.shape)
    calls = counted_dgbtrf(monkeypatch)
    _, sol = solve_2d(system, more_rhs=[load])
    assert len(calls) == 2
    # the phi of this load is large and ill-conditioned: a plain sparse
    # solve lands about 1e-9 (relative) off the exact solution, so the
    # reference takes one step of iterative refinement
    a = system.matrix.tocsc()
    x_ref = spla.spsolve(a, load)
    x_ref += spla.spsolve(a, load - a @ x_ref)
    assert np.max(np.abs(flat(sol) - x_ref)) <= 1e-9 * np.max(np.abs(x_ref))


def reflected(v, mesh):
    """P v: the signed mirror reflection of a block-ordered vector."""
    f = v.reshape(3, mesh.ny, mesh.nz)
    return (np.array(MIRROR_PARITY, dtype=float)[:, None, None] * f[:, ::-1]).ravel()


def assert_exact_mirror_parity(sol):
    assert np.array_equal(sol.a_y, sol.a_y[::-1])
    assert np.array_equal(sol.phi, -sol.phi[::-1])
    assert np.array_equal(sol.a_z, -sol.a_z[::-1])


@pytest.mark.parametrize("field", [CIRCLE, RECT], ids=["circle", "rect"])
@pytest.mark.parametrize("scheme", list(Scheme))
def test_even_sheet_input_reaches_the_even_sector_alone(field, scheme, monkeypatch):
    # the load of a shipped sheet is even bit for bit, so its odd part is
    # exactly zero and one half-height band is factored
    parts = sheet_parts(60.0, field=field)
    system = assemble_2d(*parts, scheme)
    rhs, mesh = system.rhs, system.mesh
    assert np.any(rhs != 0.0)
    assert np.all((rhs - reflected(rhs, mesh)) / 2 == 0.0)
    calls = counted_dgbtrf(monkeypatch)
    sol = solve_2d(system)
    assert len(calls) == 1 and sol.band_kl == tuple(calls)
    x_ref = spla.spsolve(system.matrix.tocsc(), rhs)
    assert np.max(np.abs(flat(sol) - x_ref)) <= 1e-9 * np.max(np.abs(x_ref))
    assert_exact_mirror_parity(sol)


def test_sector_and_whole_grid_solves_agree(monkeypatch):
    # the same mirrored stencil and even load solved by the even sector
    # alone and by one band over the whole grid
    system = assemble_2d(*uniform_conductor_case())
    assert system.mirrored
    calls = counted_dgbtrf(monkeypatch)
    sectors = solve_2d(system)
    whole = solve_2d(DiscreteSystem2D(system.columns, system.column_of, system.rhs,
                                      system.mesh, False))
    assert sectors.band_kl == (15,) and whole.band_kl == (26,) and calls == [15, 26]
    assert np.max(np.abs(flat(sectors) - flat(whole))) <= 1e-12 * np.max(np.abs(flat(whole)))


def test_a_wrong_mirrored_flag_fails_the_residual_check():
    # a band off the centre line does not commute with the mirror: folding
    # its stencil into sectors solves another system, which the residual
    # on the full stencil catches
    mesh, material, _, profile, scheme = uniform_conductor_case()
    regions = RegionMap2D.conducting_band(mesh, 2.0, center=1.0)
    system = assemble_2d(mesh, material, regions, profile, scheme)
    assert not system.mirrored
    solve_2d(system)
    with pytest.raises(NumericalFailureError, match="2D residual .* exceeds budget"):
        solve_2d(DiscreteSystem2D(system.columns, system.column_of, system.rhs, mesh, True))


class OffAxis:
    """The smooth circle centred at y = 0.2: not even in y."""

    def sample(self, z, y=0.0):
        return SmoothCircle2D(radius=1.3, amplitude=1.0).sample(z, np.asarray(y) - 0.2)


NOT_EVEN = ["shifted_y0", "odd_profile", "off_centre_band", "uneven_rows", "even_ny"]


def not_even_case(case):
    """(mesh, material, regions, profile) of a sheet whose input is not even
    in y: the same palindromic mesh one row off centre (its phi pin moves
    off the centre row), a profile off the axis, a band off the centre
    line, rows that do not mirror about the y = 0 node row, and an even ny
    with a node row at y = 0."""
    mesh, material, regions, profile = sheet_parts(60.0)
    if case == "shifted_y0":
        mesh = Mesh2D(nz=mesh.nz, dz=mesh.dz, row_heights=mesh.row_heights,
                      z0=mesh.z0, y0=mesh.y0 + mesh.row_heights[mesh.ny // 2])
        assert mesh.node_y()[mesh.ny // 2] != 0.0
    elif case == "odd_profile":
        profile = OffAxis()
    elif case == "off_centre_band":
        regions = RegionMap2D.conducting_band(mesh, 1.3, center=0.3)
    elif case == "uneven_rows":
        heights = mesh.row_heights[:-1] + (2 * mesh.row_heights[-1],)
        mesh = Mesh2D(nz=mesh.nz, dz=mesh.dz, row_heights=heights, z0=mesh.z0, y0=mesh.y0)
        assert mesh.node_y()[mesh.ny // 2] == 0.0
    else:
        mesh = Mesh2D.uniform(nz=15, ny=12, dz=1.0, dy=1.0, y0=-6.0)
        assert mesh.node_y()[mesh.ny // 2] == 0.0
        regions = RegionMap2D.all_conductor(mesh)
    return mesh, material, regions, profile


@pytest.mark.parametrize("case", NOT_EVEN)
def test_inputs_that_are_not_even_keep_the_full_solve(case, monkeypatch):
    # an input that is not even in y reaches both mirror sectors; a mesh
    # description that does not mirror takes one whole-grid band
    mesh, material, regions, profile = not_even_case(case)
    system = assemble_2d(mesh, material, regions, profile, Scheme.GALERKIN)
    assert np.any(system.rhs != reflected(system.rhs, mesh))
    calls = counted_dgbtrf(monkeypatch)
    sol = solve_2d(system)
    if case == "odd_profile":
        assert len(calls) == 2
    else:
        assert len(calls) == 1 and calls[0] > 3 * (mesh.ny + 1) // 2 + 5
    assert sol.band_kl == tuple(calls)
    x_ref = spla.spsolve(system.matrix.tocsc(), system.rhs)
    assert np.max(np.abs(flat(sol) - x_ref)) <= 1e-9 * np.max(np.abs(x_ref))


@pytest.mark.parametrize("case", NOT_EVEN)
def test_structural_predicate_of_the_inputs_that_are_not_even(case):
    # only the off-axis profile sits on a mirrored mesh description (its
    # matrix splits, and its load reaches both sectors); every other case
    # is the whole grid
    mesh, _, regions, _ = not_even_case(case)
    assert fem2d._mirrored_mesh(mesh, regions) == (case == "odd_profile")


def csr_sector_fold(a, mesh, s):
    """An independent fold of mirror sector s from the CSR matrix, as the
    previous solver built it: the kept dofs (the lower half of the grid
    plus the centre-row dofs of field parity s), the injection q with
    x = q @ x_s, and the band position of every kept dof."""
    ny, nz, m_count = mesh.ny, mesh.nz, mesh.node_count
    dof = np.arange(3 * m_count)
    field, node = np.divmod(dof, m_count)
    row = node // nz
    mirror = dof + (ny - 1 - 2 * row) * nz
    parity = np.take(MIRROR_PARITY, field)
    half = (ny + 1) // 2
    keep = np.flatnonzero((row < half - 1) | ((row == half - 1) & (parity == s)))
    lower = row[keep] < half - 1
    k = np.arange(len(keep))
    q = sp.csr_matrix((np.concatenate([np.ones(len(keep)), s * parity[keep][lower]]),
                       (np.concatenate([keep, mirror[keep][lower]]),
                        np.concatenate([k, k[lower]]))),
                      shape=(len(dof), len(keep)))
    band = fem2d._node_interleaved(half, nz).ravel()
    perm = np.empty(len(keep), dtype=int)
    perm[np.argsort(band[field[keep] * (half * nz) + node[keep]])] = k
    return keep, q, perm


def band_of(a, perm, kl, ku):
    """LAPACK band storage (kl workspace rows on top) of a CSR matrix whose
    unknown i sits at band position perm[i]."""
    rows = np.repeat(perm, np.diff(a.indptr))
    cols = perm[a.indices]
    ab = np.zeros((2 * kl + ku + 1, len(perm)))
    ab[kl + ku + rows - cols, cols] = a.data
    return ab, int(np.max(rows - cols, initial=0)), int(np.max(cols - rows, initial=0))


SECTOR_CASES = dict(MIRRORED, odd_profile=lambda: not_even_case("odd_profile"))


@pytest.mark.parametrize("s", [1, -1])
@pytest.mark.parametrize("case", list(SECTOR_CASES))
def test_sector_band_matches_an_independent_fold(case, s):
    # the band filled straight from the stencil against the fold a[keep] @ q
    # of the CSR matrix, within 8 eps of the entry magnitudes |a[keep]| @ |q|
    system = assemble_2d(*SECTOR_CASES[case](), Scheme.GALERKIN)
    a, mesh = system.matrix, system.mesh
    keep, q, perm = csr_sector_fold(a, mesh, s)
    ab, kl, ku, norm = fem2d._band(*fem2d._sector(system.columns, system.column_of, s))
    ref, kl_ref, ku_ref = band_of(a[keep] @ q, perm, kl, ku)
    mag, _, _ = band_of(abs(a[keep]) @ abs(q), perm, kl, ku)
    assert (kl, ku) == (kl_ref, ku_ref)
    eps = np.finfo(float).eps
    assert np.all(np.abs(ab - ref) <= 8 * eps * mag) and np.any(ref != 0.0)
    norm_ref = np.max(abs(a[keep]) @ abs(q) @ np.ones(len(keep)))
    assert abs(norm - norm_ref) <= 8 * eps * norm_ref


@pytest.mark.parametrize("field", [CIRCLE, RECT], ids=["circle", "rect"])
@pytest.mark.parametrize("pe", [2.0, 60.0, 2000.0])
def test_skipped_odd_sector_clears_the_pivot_floor(field, pe, monkeypatch):
    # the check that skipping the odd sector leaves out would pass: its
    # band, filled from the stencil, factors with every pivot above
    # eps * ||A_odd||inf of the independent fold (the matrix does not
    # depend on the scheme)
    system = assemble_2d(*sheet_parts(pe, field=field), Scheme.GALERKIN)
    a, mesh = system.matrix, system.mesh
    keep, q, _ = csr_sector_fold(a, mesh, -1)
    a_odd = a[keep] @ q
    factored = []
    dgbtrf = lapack().dgbtrf

    def keeping(ab, kl, ku, **kwargs):
        lu, piv, info = dgbtrf(ab, kl, ku, **kwargs)
        factored.append((np.abs(lu[kl + ku]), info))
        return lu, piv, info

    monkeypatch.setattr(lapack(), "dgbtrf", keeping)
    half = (mesh.ny + 1) // 2
    load = np.zeros((3 * mesh.node_count, 1))
    load[keep] = np.random.default_rng(3).standard_normal((len(keep), 1))
    x = np.zeros((3, mesh.ny, mesh.nz, 1))
    x[:, :half], _ = fem2d._band_solve(*fem2d._sector(system.columns, system.column_of, -1),
                                        load.reshape(x.shape)[:, :half])
    (pivots, info), = factored
    floor = np.finfo(float).eps * float(np.max(np.abs(a_odd).sum(axis=1)))
    assert info == 0 and np.min(pivots) > floor
    x_odd = x.reshape(load.shape)[keep]
    assert np.max(np.abs(a_odd @ x_odd - load[keep])) <= 1e-8 * np.max(np.abs(load))


@pytest.mark.parametrize("pe", [1 + 1e-9, 2.0, 1e6])
@pytest.mark.parametrize("scheme", list(Scheme))
def test_minimal_symmetric_grids_solve_their_even_sector(pe, scheme, monkeypatch):
    # edge regimes (Pe -> 1+, huge Pe) on the smallest mirror-symmetric
    # grids: each solve passes its residual budget, agrees with a sparse
    # direct solve and factors the even sector alone
    calls = counted_dgbtrf(monkeypatch)
    for ny in (3, 5):
        for nz in (3, 5):
            calls.clear()
            system = assemble_2d(*uniform_conductor_case(nz=nz, ny=ny, scheme=scheme, pe=pe))
            sol = solve_2d(system)
            assert len(calls) == 1 and sol.band_kl == tuple(calls), (ny, nz)
            x = flat(sol)
            x_ref = spla.spsolve(system.matrix.tocsc(), system.rhs)
            assert np.max(np.abs(x - x_ref)) <= 1e-9 * np.max(np.abs(x_ref)), (ny, nz)
            norm_a = float(np.max(np.abs(system.matrix).sum(axis=1)))
            budget = fem2d.RESIDUAL_RTOL * (norm_a * np.max(np.abs(x))
                                            + np.max(np.abs(system.rhs)))
            assert sol.residual == np.max(np.abs(system.matrix @ x - system.rhs)) <= budget
            assert_exact_mirror_parity(sol)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_rhs_2d_is_the_assembled_rhs_bit_for_bit(scheme):
    for case in (sheet_parts(60.0), graded_air_case()):
        rhs = rhs_2d(*case, scheme)
        assert rhs.tobytes() == assemble_2d(*case, scheme).rhs.tobytes()


# ---------------------------------------------------------------------------
# whole-mesh assembly against an element-by-element reference


def graded_air_case():
    """Small graded mesh with two air rows at each y edge."""
    heights = tuple(0.4 * 1.3 ** abs(k - 3.5) for k in range(8))
    mesh = Mesh2D(nz=7, dz=0.5, row_heights=heights, z0=-1.5,
                  y0=-sum(heights[:4]))
    material = Material(sigma=3.0, mu=1.2, u_z=2.5)
    regions = RegionMap2D((0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0))
    return mesh, material, regions, SmoothCircle2D(radius=0.8, amplitude=1.0)


def dirichlet_dofs(mesh):
    """A_y and A_z on the inlet column and both y edges, plus the phi pin."""
    m_count, nz = mesh.node_count, mesh.nz
    edge = set(range(0, m_count, nz)) | set(range(nz)) | set(range(m_count - nz, m_count))
    pin = int(np.argmin(np.abs(mesh.node_y()))) * nz
    return sorted({m_count + g for g in edge} | {2 * m_count + g for g in edge} | {pin})


def loop_reference(mesh, material, regions, profile, scheme):
    """Dense element-by-element assembly with the blocks written out term by
    term. Also returns the sums of |contribution| per entry, which bound the
    rounding of any other summation order."""
    nz, m_count, u = mesh.nz, mesh.node_count, material.u_z
    n = 3 * m_count
    a, a_abs = np.zeros((n, n)), np.zeros((n, n))
    rhs, rhs_abs = np.zeros(n), np.zeros(n)
    bn = profile.sample(*np.meshgrid(mesh.node_z(), mesh.node_y())).ravel()
    for me, dy in enumerate(mesh.row_heights):
        flag = regions.row_multipliers[me]
        musig = material.mu * material.sigma * flag
        blk = {k: np.array(v, dtype=float) for k, v in elemental_blocks(mesh.dz, dy).items()}
        spec = {
            (0, 0): -blk["lap"],
            (0, 1): -flag * u * blk["gyz"],
            (0, 2): flag * u * blk["gyy"],
            (1, 0): musig * blk["cy"],
            (1, 1): blk["lap"] + musig * u * blk["cz"],
            (1, 2): -musig * u * blk["cy"],
            (2, 0): musig * blk["cz"],
            (2, 2): blk["lap"],
        }
        mass, gy0 = (blk[k] for k in (("mass", "gy0") if scheme is Scheme.GALERKIN
                                      else ("avg_mass", "avg_gy0")))
        for ne in range(nz - 1):
            nodes = [me * nz + ne, me * nz + ne + 1, (me + 1) * nz + ne, (me + 1) * nz + ne + 1]
            for (rf, cf), b in spec.items():
                for i in range(4):
                    for j in range(4):
                        a[rf * m_count + nodes[i], cf * m_count + nodes[j]] += b[i, j]
                        a_abs[rf * m_count + nodes[i], cf * m_count + nodes[j]] += abs(b[i, j])
            for i in range(4):
                for j in range(4):
                    ay = musig * u * mass[i, j] * bn[nodes[j]]
                    ph = -flag * u * gy0[i, j] * bn[nodes[j]]
                    for dof, w in ((m_count + nodes[i], ay), (nodes[i], ph)):
                        rhs[dof] += w
                        rhs_abs[dof] += abs(w)
    fixed = dirichlet_dofs(mesh)
    for arr in (a, a_abs):
        arr[fixed] = 0.0
    a[fixed, fixed] = 1.0
    rhs[fixed] = 0.0
    return a, a_abs, rhs, rhs_abs


@pytest.mark.parametrize("scheme", list(Scheme))
def test_assembly_matches_element_loop_reference(scheme):
    case = graded_air_case()
    system = assemble_2d(*case, scheme)
    a, a_abs, rhs, rhs_abs = loop_reference(*case, scheme)
    eps = np.finfo(float).eps
    # at most four element contributions meet in an entry; 8 eps covers
    # every summation order and product association
    assert np.all(np.abs(system.matrix.toarray() - a) <= 8 * eps * a_abs)
    assert np.all(np.abs(system.rhs - rhs) <= 8 * eps * rhs_abs)
    assert np.any(rhs != 0.0) and np.any(a_abs[: case[0].node_count] != 0.0)


@pytest.mark.parametrize("case", ["graded_air", "sheet"])
def test_assembled_matrix_is_canonical_with_unit_dirichlet_rows(case):
    if case == "sheet":
        system = sheet_system(60.0, Scheme.ELEMENT_AVERAGED)
    else:
        system = assemble_2d(*graded_air_case(), Scheme.GALERKIN)
    a = system.matrix
    assert a.format == "csr" and a.has_canonical_format
    for r in range(a.shape[0]):   # sorted, duplicate-free column indices
        assert np.all(np.diff(a.indices[a.indptr[r]:a.indptr[r + 1]]) > 0)
    assert np.all(a.data != 0.0)
    fixed = dirichlet_dofs(system.mesh)
    for f in fixed:
        assert list(a.indices[a.indptr[f]:a.indptr[f + 1]]) == [f]
        assert a.data[a.indptr[f]] == 1.0
    assert np.all(system.rhs[fixed] == 0.0)


@pytest.mark.parametrize("case", ["minimal_circle", "shifted_y0"])
def test_dirichlet_mask_is_the_inlet_column_the_y_edges_and_one_phi_pin(case):
    # whole_grid_stencil reads this mask too, so the band and product tests
    # cannot see an edge dropped from it: check it against the mesh alone
    parts = sheet_parts(60.0, nz=5) if case == "minimal_circle" else not_even_case(case)
    mesh = parts[0]
    fixed = fem2d._mesh_rows(*parts[:3], Scheme.GALERKIN)[1]
    y, z = mesh.node_y(), mesh.node_z()
    walls = {(m, n) for m in range(mesh.ny) for n in range(mesh.nz)
             if z[n] == z.min() or y[m] in (y.min(), y.max())}
    pin = (0, min(range(mesh.ny), key=lambda m: abs(y[m])), 0)
    want = {(f, m, n) for f in (1, 2) for m, n in walls} | {pin}
    assert len(want) == 2 * (mesh.ny + 2 * mesh.nz - 2) + 1
    assert fixed.shape == (3, mesh.ny, mesh.nz) and fixed.dtype == bool
    assert {tuple(int(i) for i in dof) for dof in np.argwhere(fixed)} == want


def test_multi_rhs_solve_equals_separate_solves():
    g = sheet_system(60.0, Scheme.GALERKIN)
    e = sheet_system(60.0, Scheme.ELEMENT_AVERAGED)
    assert (g.matrix != e.matrix).nnz == 0   # the scheme changes only the rhs
    more = [e.rhs, -3.0 * g.rhs]
    sols = solve_2d(g, more_rhs=more)
    assert len(sols) == 3
    for sol, rhs in zip(sols, [g.rhs] + more):
        ref = solve_2d(DiscreteSystem2D(g.columns, g.column_of, rhs, g.mesh, g.mirrored))
        for name in ("phi", "a_y", "a_z", "b_x"):
            assert np.array_equal(getattr(sol, name), getattr(ref, name)), name
        assert sol.residual == ref.residual
    only = solve_2d(g, more_rhs=[])
    assert len(only) == 1 and np.array_equal(only[0].a_y, sols[0].a_y)


def test_multi_rhs_solve_checks_every_rhs():
    g = sheet_system(2.0, Scheme.GALERKIN)
    with pytest.raises(NumericalFailureError):
        solve_2d(g, more_rhs=[np.full_like(g.rhs, np.nan)])
    with pytest.raises(InvalidArgumentError):
        solve_2d(g, more_rhs=[g.rhs[:-1]])


def test_a_nan_residual_fails_the_2d_solve():
    # the even sector of the circle sheet leaves the centre row's phi out of
    # its band, so a NaN in that row's stencil reaches the residual alone;
    # it used to pass a check that rejected only resid > budget
    system = sheet_system(60.0, Scheme.GALERKIN, nz=5)
    centre = system.mesh.ny // 2
    system.columns[0, 0, 1, 1, centre] = np.nan
    with pytest.raises(NumericalFailureError, match="2D residual nan"):
        solve_2d(system)


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
    stencil = np.zeros((3, 3, 3, 3, mesh.ny, mesh.nz))
    bad = DiscreteSystem2D(stencil, np.arange(mesh.nz), np.ones(3 * mesh.node_count), mesh, False)
    with pytest.raises(NumericalFailureError):
        solve_2d(bad)


def test_rank_deficient_system_raises():
    # the A_z row of the centre node repeats its phi row, with a consistent
    # right-hand side; the whole grid is factored
    mesh, material, regions, profile, scheme = uniform_conductor_case()
    system = assemble_2d(mesh, material, regions, profile, scheme)
    stencil, rhs = system._stencil, system.rhs.reshape(3, mesh.ny, mesh.nz).copy()
    m, n = mesh.ny // 2, mesh.nz // 2
    stencil[2, ..., m, n] = stencil[0, ..., m, n]
    rhs[2, m, n] = rhs[0, m, n]
    bad = DiscreteSystem2D(stencil, np.arange(mesh.nz), rhs.ravel(), mesh, False)
    with pytest.raises(NumericalFailureError, match="singular or too ill-conditioned"):
        solve_2d(bad)


# ---------------------------------------------------------------------------
# the z-column form against the whole-grid stencil


COLUMN_CASES = {
    **{f"{name}_{nz}": (lambda nz=nz, field=field: sheet_parts(60.0, nz=nz, field=field))
       for name, field in (("circle", CIRCLE), ("rect", RECT)) for nz in (33, 257)},
    "graded_air": graded_air_case,
    **{f"nz_{nz}": (lambda nz=nz: uniform_conductor_case(nz=nz)[:4]) for nz in (3, 4, 5, 6)},
}


@pytest.mark.parametrize("case", list(COLUMN_CASES))
def test_columns_are_the_whole_grid_stencil_bit_for_bit(case):
    # the grid is uniform along z, so the inlet, interior and outlet
    # columns hold every node column's sums in the whole grid's order
    parts = COLUMN_CASES[case]()
    system = assemble_2d(*parts, Scheme.GALERKIN)
    nz = system.mesh.nz
    assert system.columns.shape[-1] == 3
    assert system.column_of.tolist() == [0] + [1] * (nz - 2) + [2]
    assert system._stencil.tobytes() == whole_grid_stencil(*parts[:3]).tobytes()


def recorded_bands(monkeypatch):
    """Record (ab, kl, ku, norm) of every band filled from here on, before
    it is factored in place."""
    bands, band = [], fem2d._band

    def recording(*args):
        ab, kl, ku, norm = band(*args)
        bands.append((ab.copy(), kl, ku, norm))
        return ab, kl, ku, norm

    monkeypatch.setattr(fem2d, "_band", recording)
    return bands


# (mesh parts, solved by mirror sectors); the slow band axis is z for the
# shipped sector (half 21 <= nz 33), its refined grid and the even-ny grid
# (ny 12 <= nz 15), y for the coarse whole grid (ny 41 > nz 33) and the
# nz = 5 grid (half 21 > nz 5)
BAND_CASES = {
    "sheet_sectors": (lambda: sheet_parts(60.0), True),
    "sheet_whole": (lambda: sheet_parts(60.0), False),
    "minimal_sectors": (lambda: sheet_parts(60.0, nz=5), True),
    "minimal_whole": (lambda: sheet_parts(60.0, nz=5), False),
    "refined_sectors": (lambda: sheet_parts(60.0, nz=257), True),
    "even_ny_whole": (lambda: uniform_conductor_case(nz=15, ny=12)[:4], False),
}


@pytest.mark.parametrize("case", list(BAND_CASES))
def test_factored_band_is_the_whole_grid_scatter_bit_for_bit(case, monkeypatch):
    # both sectors (a random load reaches the odd one) or the whole grid:
    # each band factored is the node-by-node scatter of the materialised
    # stencil, and each residual is its product, bit for bit
    make, sectors = BAND_CASES[case]
    parts = make()
    system = assemble_2d(*parts, Scheme.GALERKIN)
    mesh = system.mesh
    system = DiscreteSystem2D(system.columns, system.column_of, system.rhs, mesh, sectors)
    load = np.random.default_rng(11).standard_normal(system.rhs.shape)
    bands = recorded_bands(monkeypatch)
    sols = solve_2d(system, more_rhs=[load])
    stencil = whole_grid_stencil(*parts[:3])
    if sectors:
        refs = [stencil_band(*stencil_sector(stencil, s)) for s in (1, -1)]
    else:
        refs = [stencil_band(fem2d._node_interleaved(mesh.ny, mesh.nz), [(stencil, 0)])]
    assert len(bands) == len(refs)
    for (ab, kl, ku, norm), (ab_r, kl_r, ku_r, norm_r) in zip(bands, refs):
        assert (kl, ku, norm) == (kl_r, ku_r, norm_r)
        assert ab.shape == ab_r.shape and ab.tobytes() == ab_r.tobytes()
    for sol, b in zip(sols, (system.rhs, load)):
        ax = stencil_matvec(stencil, np.stack([sol.phi, sol.a_y, sol.a_z]))
        assert sol.residual == np.max(np.abs(ax.ravel() - b))


def test_hand_built_columns_fill_every_block():
    # a stencil that is not invariant along z, one column per node column:
    # the edited node of test_rank_deficient_system_raises, whose band and
    # product are the whole-grid scatter's; and a solve of the same grid
    # with that node's rows scaled instead
    mesh, material, regions, profile, scheme = uniform_conductor_case()
    system = assemble_2d(mesh, material, regions, profile, scheme)
    m, n, every = mesh.ny // 2, mesh.nz // 2, np.arange(mesh.nz)
    stencil = system._stencil
    stencil[2, ..., m, n] = stencil[0, ..., m, n]
    pos = fem2d._node_interleaved(mesh.ny, mesh.nz)
    ab, kl, ku, norm = fem2d._band(pos, stencil, every)
    ab_r, kl_r, ku_r, norm_r = stencil_band(pos, [(stencil, 0)])
    assert (kl, ku, norm) == (kl_r, ku_r, norm_r) and ab.tobytes() == ab_r.tobytes()
    x = np.random.default_rng(2).standard_normal((3, mesh.ny, mesh.nz))
    assert fem2d._matvec(stencil, every, x).tobytes() == stencil_matvec(stencil, x).tobytes()
    stencil = system._stencil
    stencil[..., m, n] *= 1.5
    sol = solve_2d(DiscreteSystem2D(stencil, every, system.rhs, mesh, False))
    ax = stencil_matvec(stencil, np.stack([sol.phi, sol.a_y, sol.a_z]))
    assert sol.residual == np.max(np.abs(ax.ravel() - system.rhs))


def test_matvec_sums_each_row_from_its_first_term():
    # the product keeps the bits of a loop that starts at a row's first
    # term, signed zeros too: a row of -0.0 terms sums to -0.0, where a
    # reduction that starts at +0.0 would return +0.0
    system = assemble_2d(*uniform_conductor_case())
    mesh, rng = system.mesh, np.random.default_rng(5)
    x = -np.abs(rng.standard_normal((3, mesh.ny, mesh.nz)))
    x[:, 1:5, 1:5] = -0.0   # every term of the rows at (2..3, 2..3) is -0.0 below
    for columns in (system.columns, np.abs(system.columns)):
        terms = columns[..., system.column_of] * neighbours(x, 0.0)
        terms = terms.reshape(3, 27, mesh.ny, mesh.nz)
        want = terms[:, 0]
        for q in range(1, 27):
            want = want + terms[:, q]
        assert fem2d._matvec(columns, system.column_of, x).tobytes() == want.tobytes()
    assert np.any(np.signbit(want[want == 0.0]))


def test_in_place_edit_of_the_matrix_does_not_change_a_solve():
    # the assembled stencil is the one source the solve reads
    system = assemble_2d(*uniform_conductor_case())
    before = solve_2d(system)
    system.matrix.data[:] = 0.0
    after = solve_2d(system)
    assert np.array_equal(flat(before), flat(after)) and before.residual == after.residual


def test_assembly_and_solve_build_no_csr(monkeypatch):
    def no_csr(*args, **kwargs):
        raise AssertionError("a CSR matrix was built")

    monkeypatch.setattr(sp, "csr_matrix", no_csr)
    system = sheet_system(60.0, Scheme.ELEMENT_AVERAGED)
    sol = solve_2d(system, more_rhs=[np.random.default_rng(1).standard_normal(system.rhs.shape)])
    assert len(sol[1].band_kl) == 2
    with pytest.raises(AssertionError, match="CSR"):
        system.matrix


def test_assembly_and_solve_never_materialise_the_stencil(monkeypatch):
    def refuse(self):
        raise AssertionError("the per-node stencil was materialised")

    monkeypatch.setattr(DiscreteSystem2D, "_stencil", property(refuse))
    system = sheet_system(60.0, Scheme.ELEMENT_AVERAGED)
    load = np.random.default_rng(1).standard_normal(system.rhs.shape)
    assert len(solve_2d(system, more_rhs=[load])[1].band_kl) == 2
    solve_2d(DiscreteSystem2D(system.columns, system.column_of, system.rhs, system.mesh, False))
    with pytest.raises(AssertionError, match="materialised"):
        system.matrix


def test_refined_sheet_peaks_within_a_fifth_above_its_band(monkeypatch):
    # the band of the even sector is the one large array of assembly and
    # solve; the per-node stencil and whole-grid scatter indices used to
    # lift the peak to 1.46 times its size
    parts = sheet_parts(60.0, nz=257)
    solve_2d(assemble_2d(*parts, Scheme.GALERKIN))   # loads LAPACK
    sizes, dgbtrf = [], lapack().dgbtrf

    def sizing(ab, kl, ku, **kwargs):
        sizes.append(ab.nbytes)
        return dgbtrf(ab, kl, ku, **kwargs)

    monkeypatch.setattr(lapack(), "dgbtrf", sizing)
    tracemalloc.start()
    try:
        solve_2d(assemble_2d(*parts, Scheme.GALERKIN))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sizes) == 1 and sizes[0] > 20e6
    assert peak <= 1.2 * sizes[0]
