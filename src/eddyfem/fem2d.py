"""Assembly and solution of the coupled 2D system for (phi, A_y, A_z) on a
structured quadrilateral grid, with Galerkin or element-averaged input.

Sign conventions of the three equation blocks match the interior-stencil
polynomials in ztransfer term for term (the stencil-equivalence tests
compare them with exact rational arithmetic):

  phi row :  -Lap*phi - u*Gyz*A_y + u*Gyy*A_z      = -u*(d/dy load)
  A_y row :  mu*sig*Cy*phi + (Lap + mu*sig*u*Cz)*A_y - mu*sig*u*Cy*A_z
                                                    =  mu*sig*u*(mass load)
  A_z row :  mu*sig*Cz*phi + Lap*A_z               =  0

Air elements keep only the Laplacian blocks (sigma-bearing terms drop); the
phi row then reduces to a plain Laplace equation of matching scale.
Boundary conditions: A_y = A_z = 0 on the inlet column and on both y edges;
the outflow column keeps its natural rows; phi is pinned to zero at one
node on the y = 0 row to fix its additive constant.

The elemental blocks are computed in the arithmetic of their inputs, so the
same code produces exact Fraction-valued patches for the stencil tests and
float blocks for production assembly.

The block order (phi, A_y, A_z) of DiscreteSystem2D and Solution2D is the
public contract. solve_2d factors the system as a banded LU (LAPACK
dgbtrf/dgbtrs) under an internal node-interleaved numbering with the
shorter grid axis fastest, so the band width is set by min(ny, nz) and not
by the refined length of the longer axis.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack

from .core import (InvalidArgumentError, Material, Mesh2D, NumericalFailureError,
                   Scheme)

RESIDUAL_RTOL = 1e-8


# 1D reference integrals over [0,1] for the linear basis pair (1-t, t),
# in the arithmetic of the multiplicative unit passed in

def _mass(one):
    th, sx = one / 3, one / 6
    return ((th, sx), (sx, th))


def _stiff(one):
    return ((one, -one), (-one, one))


def _cross(one):
    h = one / 2
    return ((-h, h), (-h, h))


def elemental_blocks(dz, dy) -> Dict[str, object]:
    """4x4 elemental matrices (nested lists) for a dz-by-dy rectangle in
    tensor node order (local index 2*iy + iz).

    Works elementwise in the arithmetic of dz/dy: pass Fractions to get
    exact blocks, floats to get float blocks.
    """
    one = dz / dz  # multiplicative unit of the input arithmetic
    m, s, c = _mass(one), _stiff(one), _cross(one)
    ct = tuple(tuple(c[j][i] for j in range(2)) for i in range(2))

    def tens(Y, Zb, scale):
        out = [[None] * 4 for _ in range(4)]
        for iy in range(2):
            for iz in range(2):
                for jy in range(2):
                    for jz in range(2):
                        out[2 * iy + iz][2 * jy + jz] = scale * Y[iy][jy] * Zb[iz][jz]
        return out

    def add(A, B):
        return [[A[i][j] + B[i][j] for j in range(4)] for i in range(4)]

    return {
        "lap": add(tens(m, s, dy / dz), tens(s, m, dz / dy)),
        "cz": tens(m, c, dy),            # int N_i dN_j/dz
        "cy": tens(c, m, dz),            # int N_i dN_j/dy
        "gyz": tens(ct, c, one),         # int dN_i/dy dN_j/dz
        "gyy": tens(s, m, dz / dy),      # int dN_i/dy dN_j/dy
        "gy0": tens(ct, m, dz),          # int dN_i/dy N_j
        "mass": tens(m, m, dz * dy),
        "int_n": [dz * dy / 4] * 4,      # int N_i
        "int_ny": [-dz / 2, -dz / 2, dz / 2, dz / 2],   # int dN_i/dy
    }


@dataclass(frozen=True)
class RegionMap2D:
    """Per-element-row conductivity multiplier: 1 in the conducting band,
    0 in the air rows. The band must be contiguous."""

    row_multipliers: Tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.row_multipliers)
        if any(v not in (0.0, 1.0) for v in vals):
            raise InvalidArgumentError("multipliers must be 0 or 1")
        ones = [i for i, v in enumerate(vals) if v == 1.0]
        if not ones:
            raise InvalidArgumentError("region map needs at least one conducting row")
        if ones != list(range(ones[0], ones[-1] + 1)):
            raise InvalidArgumentError("conducting band must be contiguous")
        object.__setattr__(self, "row_multipliers", vals)

    @classmethod
    def conducting_band(cls, mesh: Mesh2D, thickness: float, center: float = 0.0) -> "RegionMap2D":
        """Rows whose centers lie within |y - center| < thickness/2 conduct."""
        y = mesh.node_y()
        centers = 0.5 * (y[:-1] + y[1:])
        return cls(tuple(1.0 if abs(c - center) < thickness / 2 else 0.0 for c in centers))

    @classmethod
    def all_conductor(cls, mesh: Mesh2D) -> "RegionMap2D":
        return cls((1.0,) * (mesh.ny - 1))


@dataclass(frozen=True)
class DiscreteSystem2D:
    """Sparse 3M x 3M system, block-ordered (phi, A_y, A_z), BCs applied."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    mesh: Mesh2D


@dataclass(frozen=True)
class Solution2D:
    """Nodal fields on the (ny, nz) grid plus the element-centroid reaction
    flux density b_x = dA_z/dy - dA_y/dz on the (ny-1, nz-1) elements, and
    the max-norm residual |A x - b| that the solver accepted."""

    phi: np.ndarray
    a_y: np.ndarray
    a_z: np.ndarray
    b_x: np.ndarray
    mesh: Mesh2D
    residual: float


def _pin_row(mesh: Mesh2D) -> int:
    """Row index used for the phi gauge pin: the node row nearest y = 0
    (keeps the pin on the symmetry line of symmetric meshes)."""
    return int(np.argmin(np.abs(mesh.node_y())))


def assemble_2d(mesh: Mesh2D, material: Material, regions: RegionMap2D,
                profile, scheme: Scheme) -> DiscreteSystem2D:
    """Assemble the coupled system, element row by element row.

    All elements in a mesh row share the same elemental blocks (uniform dz,
    per-row dy), so the scatter is vectorized across each row. The final
    matrix is a sum of per-element contributions and therefore independent
    of the row visit order.
    """
    if len(regions.row_multipliers) != mesh.ny - 1:
        raise InvalidArgumentError("region map does not match the mesh rows")
    ny, nz, dz = mesh.ny, mesh.nz, mesh.dz
    heights = mesh.row_heights
    if any(not h > 0 for h in heights) or not dz > 0:
        raise InvalidArgumentError("degenerate element (non-positive extent)")
    m_count = mesh.node_count
    u = material.u_z
    zs = mesh.node_z()
    ys = mesh.node_y()
    bn = np.asarray(profile.sample(*np.meshgrid(zs, ys)), dtype=float)
    if bn.shape != (ny, nz):
        raise InvalidArgumentError("profile samples do not match the mesh nodes")

    rows_idx, cols_idx, vals = [], [], []
    rhs = np.zeros(3 * m_count)
    ne = np.arange(nz - 1)
    for me in range(ny - 1):
        dy = heights[me]
        flag = regions.row_multipliers[me]
        musig = material.mu * material.sigma * flag
        blk = {k: np.array(v, dtype=float) for k, v in elemental_blocks(dz, dy).items()}
        nodes = np.stack([me * nz + ne, me * nz + ne + 1,
                          (me + 1) * nz + ne, (me + 1) * nz + ne + 1])
        bq = np.stack([bn[me, :-1], bn[me, 1:], bn[me + 1, :-1], bn[me + 1, 1:]])

        blockspec = (
            (0, 0, -blk["lap"]),
            (0, 1, -flag * u * blk["gyz"]),
            (0, 2, flag * u * blk["gyy"]),
            (1, 0, musig * blk["cy"]),
            (1, 1, blk["lap"] + musig * u * blk["cz"]),
            (1, 2, -musig * u * blk["cy"]),
            (2, 0, musig * blk["cz"]),
            (2, 2, blk["lap"]),
        )
        for rf, cf, b in blockspec:
            for i in range(4):
                for j in range(4):
                    if b[i, j] == 0.0:
                        continue
                    rows_idx.append(rf * m_count + nodes[i])
                    cols_idx.append(cf * m_count + nodes[j])
                    vals.append(np.full(nz - 1, b[i, j]))
        if scheme is Scheme.GALERKIN:
            for i in range(4):
                np.add.at(rhs, m_count + nodes[i], musig * u * (blk["mass"][i] @ bq))
                np.add.at(rhs, nodes[i], -flag * u * (blk["gy0"][i] @ bq))
        else:
            be = bq.mean(axis=0)
            for i in range(4):
                np.add.at(rhs, m_count + nodes[i], musig * u * blk["int_n"][i] * be)
                np.add.at(rhs, nodes[i], -flag * u * blk["int_ny"][i] * be)

    matrix = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows_idx), np.concatenate(cols_idx))),
        shape=(3 * m_count, 3 * m_count)).tocsr()

    # Dirichlet rows: A_y = A_z = 0 on inlet column and both y edges
    fixed = set()
    for m in range(ny):
        fixed.add(m * nz)
    for col in range(nz):
        fixed.add(col)                  # bottom row
        fixed.add((ny - 1) * nz + col)  # top row
    fixed_dofs = sorted([m_count + g for g in fixed] + [2 * m_count + g for g in fixed]
                        + [_pin_row(mesh) * nz])  # phi gauge pin at the inlet
    for f in fixed_dofs:
        matrix.data[matrix.indptr[f]:matrix.indptr[f + 1]] = 0.0
        rhs[f] = 0.0
    matrix = (matrix + sp.coo_matrix(
        (np.ones(len(fixed_dofs)), (fixed_dofs, fixed_dofs)),
        shape=matrix.shape).tocsr())
    matrix.eliminate_zeros()
    return DiscreteSystem2D(matrix=matrix, rhs=rhs, mesh=mesh)


def _node_interleaved(mesh: Mesh2D) -> np.ndarray:
    """Band position of every block-ordered unknown: the three fields of a
    node sit next to each other and the shorter grid axis varies fastest,
    so the bandwidth is about 3*min(ny, nz) whatever the longer axis."""
    m, n = np.divmod(np.arange(mesh.node_count), mesh.nz)
    node = n * mesh.ny + m if mesh.ny <= mesh.nz else m * mesh.nz + n
    return (3 * node + np.arange(3)[:, None]).ravel()


def solve_2d(system: DiscreteSystem2D) -> Solution2D:
    """Banded LU solve (LAPACK dgbtrf/dgbtrs) with a residual acceptance
    check on the original matrix.

    The matrix and right-hand side keep their block order (phi, A_y, A_z);
    the solver renumbers the unknowns node-interleaved with the shorter
    grid axis fastest, takes the band widths from the renumbered entries
    and scatters the solution back. Band storage is (2*kl + ku + 1) * 3M
    doubles with kl = ku = 3*min(ny, nz) + 5: about 97 MB for the refined
    sheet at nz = 257 and 194 MB at nz = 513.
    """
    a, rhs, mesh = system.matrix, system.rhs, system.mesh
    perm = _node_interleaved(mesh)
    coo = a.tocoo()
    coo.sum_duplicates()   # the band fill below assigns, so duplicates must be summed
    rows, cols = perm[coo.row], perm[coo.col]
    kl = int(np.max(rows - cols, initial=0))
    ku = int(np.max(cols - rows, initial=0))
    # LAPACK band layout: A[i, j] sits at ab[kl + ku + i - j, j]; the top
    # kl rows are workspace for the fill that row pivoting creates
    ab = np.zeros((2 * kl + ku + 1, len(perm)), order="F")
    ab[kl + ku + rows - cols, cols] = coo.data
    lu, piv, info = lapack.dgbtrf(ab, kl, ku, overwrite_ab=1)
    if info > 0:
        raise NumericalFailureError(f"2D band LU hit an exact zero pivot in band "
                                    f"column {info} (singular system)")
    xp, _ = lapack.dgbtrs(lu, kl, ku, rhs[np.argsort(perm)], piv)
    x = xp[perm]
    if not np.all(np.isfinite(x)):
        raise NumericalFailureError("2D solve produced non-finite values "
                                    "(singular or badly scaled system)")
    resid = float(np.max(np.abs(a @ x - rhs)))
    norm_a = float(np.max(np.abs(a).sum(axis=1)))
    budget = RESIDUAL_RTOL * (norm_a * float(np.max(np.abs(x))) + float(np.max(np.abs(rhs))))
    if resid > budget:
        raise NumericalFailureError(
            f"2D residual {resid:.3e} exceeds budget {budget:.3e} "
            f"(matrix inf-norm {norm_a:.3e})")
    m_count = mesh.node_count
    phi = x[:m_count].reshape(mesh.ny, mesh.nz)
    a_y = x[m_count:2 * m_count].reshape(mesh.ny, mesh.nz)
    a_z = x[2 * m_count:].reshape(mesh.ny, mesh.nz)
    return Solution2D(phi=phi, a_y=a_y, a_z=a_z,
                      b_x=reaction_field_2d(a_y, a_z, mesh), mesh=mesh,
                      residual=resid)


def reaction_field_2d(a_y: np.ndarray, a_z: np.ndarray, mesh: Mesh2D) -> np.ndarray:
    """b_x = dA_z/dy - dA_y/dz from bilinear gradients at element centroids.

    No nodal smoothing or recovery: element-constant output keeps any
    node-to-node oscillation visible.
    """
    dys = np.asarray(mesh.row_heights)[:, None]
    daz_dy = (a_z[1:, :-1] + a_z[1:, 1:] - a_z[:-1, :-1] - a_z[:-1, 1:]) / (2 * dys)
    day_dz = (a_y[:-1, 1:] + a_y[1:, 1:] - a_y[:-1, :-1] - a_y[1:, :-1]) / (2 * mesh.dz)
    return daz_dy - day_dz


def axis_profile(solution: Solution2D, mesh: Mesh2D) -> np.ndarray:
    """Centerline trace of b_x along z: rows adjacent to the y = 0 node row
    averaged, sampled at element centers. Returns an (nz-1, 2) array of
    (z, b_x) pairs."""
    ys = mesh.node_y()
    m0 = int(np.argmin(np.abs(ys)))
    tol = 1e-9 * max(float(np.max(np.abs(ys))), 1.0)
    if abs(ys[m0]) > tol or m0 == 0 or m0 == mesh.ny - 1:
        raise InvalidArgumentError("mesh has no interior node row at y = 0")
    trace = 0.5 * (solution.b_x[m0 - 1, :] + solution.b_x[m0, :])
    zc = 0.5 * (mesh.node_z()[:-1] + mesh.node_z()[1:])
    return np.column_stack([zc, trace])


def oscillation_metric(trace, amplitude: float) -> float:
    """Second-difference alternation detector:
    max |b[n] - (b[n-1] + b[n+1]) / 2| / amplitude over interior samples."""
    if not amplitude > 0:
        raise InvalidArgumentError("amplitude must be > 0")
    t = np.asarray(trace, dtype=float)
    if t.ndim == 2:
        t = t[:, 1]
    if len(t) < 3:
        raise InvalidArgumentError("trace needs at least 3 samples")
    return float(np.max(np.abs(t[1:-1] - 0.5 * (t[:-2] + t[2:])))) / amplitude


# ---------------------------------------------------------------------------
# exact interior-row extraction (stencil-equivalence checks)


def exact_patch_rows(pe, u, scheme: Scheme, nn: int = 5, nm: int = 5):
    """Assemble a uniform all-conductor nn x nm patch with unit spacing in
    exact rational arithmetic and return the interior-node row stencils.

    Returns (lhs, rhs_weights): lhs maps (row_field, col_field) to
    {(i+1, j+1): coeff} stencil dictionaries keyed like the Z_n/Z_m
    monomial exponents; rhs_weights maps row_field to the input-weight
    stencil of that row. mu = 1 and h = 1, so mu*sigma = 2*Pe/u.
    """
    from fractions import Fraction

    pe = Fraction(pe)
    u = Fraction(u)
    one = Fraction(1)
    musig = 2 * pe / u
    blk = elemental_blocks(one, one)

    n0 = (nn // 2, nm // 2)
    nid = lambda n, m: m * nn + n
    center = nid(*n0)
    lhs: Dict[Tuple[int, int], Dict[Tuple[int, int], Fraction]] = {}
    rhs_w: Dict[int, Dict[Tuple[int, int], Fraction]] = {0: {}, 1: {}}

    def put(stencil, gj, w):
        if w == 0:
            return
        m, n = divmod(gj, nn)
        off = (n - n0[0] + 1, m - n0[1] + 1)
        stencil[off] = stencil.get(off, Fraction(0)) + w

    for me in range(nm - 1):
        for ne in range(nn - 1):
            nodes = [nid(ne, me), nid(ne + 1, me), nid(ne, me + 1), nid(ne + 1, me + 1)]
            entries = (
                (0, 0, lambda i, j: -blk["lap"][i][j]),
                (0, 1, lambda i, j: -u * blk["gyz"][i][j]),
                (0, 2, lambda i, j: u * blk["gyy"][i][j]),
                (1, 0, lambda i, j: musig * blk["cy"][i][j]),
                (1, 1, lambda i, j: blk["lap"][i][j] + musig * u * blk["cz"][i][j]),
                (1, 2, lambda i, j: -musig * u * blk["cy"][i][j]),
                (2, 0, lambda i, j: musig * blk["cz"][i][j]),
                (2, 2, lambda i, j: blk["lap"][i][j]),
            )
            for i in range(4):
                if nodes[i] != center:
                    continue
                for rf, cf, f in entries:
                    for j in range(4):
                        put(lhs.setdefault((rf, cf), {}), nodes[j], f(i, j))
                for j in range(4):
                    if scheme is Scheme.GALERKIN:
                        put(rhs_w[1], nodes[j], musig * u * blk["mass"][i][j])
                        put(rhs_w[0], nodes[j], -u * blk["gy0"][i][j])
                    else:
                        put(rhs_w[1], nodes[j], musig * u * blk["int_n"][i] * Fraction(1, 4))
                        put(rhs_w[0], nodes[j], -u * blk["int_ny"][i] * Fraction(1, 4))
    lhs = {k: {o: w for o, w in d.items() if w != 0} for k, d in lhs.items()}
    rhs_w = {k: {o: w for o, w in d.items() if w != 0} for k, d in rhs_w.items()}
    return lhs, rhs_w
