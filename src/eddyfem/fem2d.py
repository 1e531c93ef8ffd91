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

The elemental blocks are 4x4 tensor products of core.REFERENCE_INTEGRALS,
the element fem1d reads too, in the arithmetic of their inputs, and two
tables say how they combine: BLOCK_TABLE into the coupled matrix blocks,
LOAD_TABLE into each scheme's 4x4 loads. One fold (_fold) places both: the
float assembly folds them on its mesh, and the right-hand side is the
folded load applied to the node samples of the input; exact_patch_rows
runs the same fold on one element in Fractions, to give the exact interior
stencils that the certificates read. The grid is uniform along the
motion, so the matrix is shift-invariant along z: assemble_2d writes it
once, as the 9-point stencils of its three distinct node columns (inlet,
interior and outlet), and the solve reads only those.

The block order (phi, A_y, A_z) of DiscreteSystem2D and Solution2D is the
public contract. solve_2d factors the system as a banded LU (LAPACK
dgbtrf/dgbtrs) of bandwidth about 3*min(ny, nz) (_node_interleaved). The
matrix does not depend on the scheme, so one factorization can serve both
schemes' right-hand sides, which rhs_2d assembles alone.

Every sheet the package builds is mirror-symmetric about its y = 0 node
row. The elemental blocks cy, gyz, gy0 and avg_gy0 carry one y derivative
and are odd in y, the rest are even, so the matrix of a mirrored mesh
commutes with the signed reflection (phi, A_y, A_z)(y) -> (-phi, +A_y,
-A_z)(-y) (MIRROR_PARITY). solve_2d then solves the even and the odd
sector apart, each on half the grid height with half the bandwidth. Every
shipped input is even in y too; rhs_2d returns the load's even part, even
bit for bit, so solve_2d factors the even sector alone.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .core import (REFERENCE_INTEGRALS, InvalidArgumentError, Material, Mesh2D,
                   NumericalFailureError, Scheme, lapack)

if TYPE_CHECKING:
    import scipy.sparse as sp

RESIDUAL_RTOL = 1e-8


def elemental_blocks(dz, dy) -> Dict[str, np.ndarray]:
    """4x4 elemental matrices for a dz-by-dy rectangle in tensor node order
    (local index 2*iy + iz): tensor products of the 1D reference integrals,
    core.REFERENCE_INTEGRALS.

    Works elementwise in the arithmetic of dz/dy: pass Fractions to get
    exact (object-array) blocks, floats to get float blocks.
    """
    one = dz / dz  # multiplicative unit of the input arithmetic
    dtype = object if isinstance(one, Fraction) else float
    m, s, c, n = (one * np.array(REFERENCE_INTEGRALS[name], dtype=dtype)
                  for name in ("mass", "stiffness", "convection", "integral"))
    w, wy = np.multiply.outer(n, n), np.multiply.outer(c.sum(axis=0), n)

    def tens(Y, Zb, scale):
        # entry [2*iy + iz, 2*jy + jz] = scale * Y[iy, jy] * Zb[iz, jz]
        return np.multiply.outer(scale * Y, Zb).transpose(0, 2, 1, 3).reshape(4, 4)

    return {
        "lap": tens(m, s, dy / dz) + tens(s, m, dz / dy),
        "cz": tens(m, c, dy),            # int N_i dN_j/dz
        "cy": tens(c, m, dz),            # int N_i dN_j/dy
        "gyz": tens(c.T, c, one),        # int dN_i/dy dN_j/dz
        "gyy": tens(s, m, dz / dy),      # int dN_i/dy dN_j/dy
        "gy0": tens(c.T, m, dz),         # int dN_i/dy N_j
        "mass": tens(m, m, dz * dy),
        "avg_mass": tens(w, w, dz * dy),   # int N_i int N_j: N_j's weight in the element mean
        "avg_gy0": tens(wy, w, dz),        # int dN_i/dy int N_j
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


class DiscreteSystem2D:
    """The 3M x 3M system, block-ordered (phi, A_y, A_z), BCs applied, held
    as its distinct z-columns. The grid is uniform along the motion, so the
    rows of node column n are those of stencil column k = column_of[n]:
    columns[row field, col field, dy, dz, m, k] is the coefficient in the
    row of (row field, m, n) of col field at the node's neighbour [dy, dz],
    which _neighbours alone locates. An assembled sheet has three columns:
    inlet, interior and outlet. ``mirrored`` says that the matrix commutes
    with the signed reflection about the centre node row (see solve_2d).
    solve_2d reads only the columns; ``_stencil``, the per-node stencil,
    is built on each read, and the CSR ``matrix`` from it on first read."""

    def __init__(self, columns: np.ndarray, column_of, rhs: np.ndarray, mesh: Mesh2D,
                 mirrored: bool):
        self.columns, self.column_of = columns, np.asarray(column_of)
        self.rhs, self.mesh, self.mirrored = rhs, mesh, mirrored
        self._matrix = None

    @property
    def _stencil(self) -> np.ndarray:
        """S[row field, col field, dy, dz, m, n], a fresh array."""
        return self.columns[..., self.column_of]

    @property
    def matrix(self) -> sp.spmatrix:
        if self._matrix is None:
            self._matrix = _stencil_to_csr(self._stencil)
        return self._matrix


@dataclass(frozen=True)
class Solution2D:
    """Nodal fields on the (ny, nz) grid plus the element-centroid reaction
    flux density b_x = dA_z/dy - dA_y/dz on the (ny-1, nz-1) elements, and
    the max-norm residual |A x - b| that the solver accepted and the lower
    bandwidth of each band LU it factored (one per mirror sector that a
    right-hand side reaches)."""

    phi: np.ndarray
    a_y: np.ndarray
    a_z: np.ndarray
    b_x: np.ndarray
    mesh: Mesh2D
    residual: float
    band_kl: Tuple[int, ...]


# The coupled element matrix, one entry per nonzero (row field, col field)
# block, fields 0 = phi, 1 = A_y, 2 = A_z. Each block is the sum of its
# terms sign * (product of the named factors) * elemental block, where flag
# is the row's conductivity multiplier, u the velocity and musig
# mu * sigma * flag. assemble_2d and exact_patch_rows both read this table.
BLOCK_TABLE = (
    (0, 0, ((-1, (), "lap"),)),
    (0, 1, ((-1, ("flag", "u"), "gyz"),)),
    (0, 2, ((1, ("flag", "u"), "gyy"),)),
    (1, 0, ((1, ("musig",), "cy"),)),
    (1, 1, ((1, (), "lap"), (1, ("musig", "u"), "cz"))),
    (1, 2, ((-1, ("musig", "u"), "cy"),)),
    (2, 0, ((1, ("musig",), "cz"),)),
    (2, 2, ((1, (), "lap"),)),
)


# The loaded rows of the element, one entry per row field: the load is
# sign * (product of the named factors, as in BLOCK_TABLE) * the scheme's
# 4x4 elemental load on the element's corner samples of the input (the
# averaged loads weigh their mean, which plants the (Z_n+1) factor).
# assemble_2d, rhs_2d and exact_patch_rows fold it like BLOCK_TABLE (_fold).
LOAD_TABLE = (
    (1, 1, ("musig", "u"), {Scheme.GALERKIN: "mass", Scheme.ELEMENT_AVERAGED: "avg_mass"}),
    (0, -1, ("flag", "u"), {Scheme.GALERKIN: "gy0", Scheme.ELEMENT_AVERAGED: "avg_gy0"}),
)


def _coef(sign, names, factors):
    return math.prod((factors[f] for f in names), start=sign)


def _element_rows(blocks, factors, scheme: Scheme):
    """The BLOCK_TABLE blocks, then the LOAD_TABLE loads of ``scheme``, in
    table order, from elemental blocks and factor values given as scalars
    or arrays that broadcast together."""
    def term(sign, names, block):
        return _coef(sign, names, factors) * blocks[block]
    return ([sum((term(*t) for t in terms[1:]), term(*terms[0])) for _, _, terms in BLOCK_TABLE]
            + [term(sign, names, loads[scheme]) for _, sign, names, loads in LOAD_TABLE])


def _mesh_rows(mesh: Mesh2D, material: Material, regions: RegionMap2D, scheme: Scheme):
    """What the matrix and the right-hand side share: the stacked
    _element_rows of every mesh row (the elemental blocks computed once per
    distinct row height) and the Dirichlet mask, fixed[field, m, n]."""
    if len(regions.row_multipliers) != mesh.ny - 1:
        raise InvalidArgumentError("region map does not match the mesh rows")
    ny, nz, dz = mesh.ny, mesh.nz, mesh.dz
    dys, row_kind = np.unique(mesh.row_heights, return_inverse=True)
    per_height = [elemental_blocks(dz, dy) for dy in dys]
    blk = {k: np.array([b[k] for b in per_height], dtype=float)[row_kind]
           for k in per_height[0]}
    flag = np.asarray(regions.row_multipliers)[:, None, None]
    factors = {"flag": flag, "u": material.u_z, "musig": material.mu * material.sigma * flag}

    # Dirichlet rows: A_y = A_z = 0 on the inlet column and both y edges,
    # and the phi gauge pin at the inlet node nearest y = 0 (on the
    # symmetry line of symmetric meshes); each keeps only its unit diagonal
    fixed = np.zeros((3, ny, nz), dtype=bool)
    fixed[1:, :, 0] = fixed[1:, [0, -1]] = True
    fixed[0, int(np.argmin(np.abs(mesh.node_y()))), 0] = True
    return np.stack(_element_rows(blk, factors, scheme)), fixed


def assemble_2d(mesh: Mesh2D, material: Material, regions: RegionMap2D,
                profile, scheme: Scheme) -> DiscreteSystem2D:
    """Assemble the coupled system in one pass over its distinct z-columns.

    All elements in a mesh row share the same elemental blocks (uniform dz,
    per-row dy), so the blocks are computed once per distinct row height,
    and each (block, i, j) entry is added along every mesh row at once.
    Every interior node column then receives the same sums in the same
    order, so the adds run on a window of three columns (inlet, interior,
    outlet) that holds the whole matrix, and the loads are folded with it.
    The matrix does not depend on the scheme; the right-hand side is
    rhs_2d's.
    """
    rows, fixed = _mesh_rows(mesh, material, regions, scheme)
    folded = _fold(rows, 2)
    rhs = _rhs(mesh, regions, profile, folded[len(BLOCK_TABLE):], fixed)
    ny, nz = mesh.ny, mesh.nz
    columns = np.zeros((3, 3, 3, 3, ny, 3))
    rf, cf, _ = zip(*BLOCK_TABLE)
    columns[rf, cf] = folded[:len(BLOCK_TABLE)]
    # a Dirichlet row keeps only its unit diagonal
    fixed = fixed[..., [0, 1, nz - 1]]
    np.copyto(columns, 0.0, where=fixed[:, None, None, None])
    columns[range(3), range(3), 1, 1] += fixed
    return DiscreteSystem2D(columns, _column_of(nz), rhs, mesh, _mirrored_mesh(mesh, regions))


def _column_of(nz: int) -> np.ndarray:
    """The stencil column each node column reads: inlet 0, interior 1, outlet 2."""
    return np.array([0] + [1] * (nz - 2) + [2])


def _fold(rows: np.ndarray, width: int) -> np.ndarray:
    """S[b, dy, dz, m, n], the coefficient in the row of node (m, n) of node
    (m + dy - 1, n + dz - 1), folded in the arithmetic of the element rows
    rows[b, r, i, j] (table entry b, mesh row r, corners i, j) on a strip of
    ``width`` elements along z. assemble_2d, rhs_2d and exact_patch_rows
    all read it."""
    count, height = rows.shape[:2]
    out = np.zeros((count, 3, 3, height + 1, width + 1), dtype=rows.dtype)
    # node (m, n) is corner i = 2*iy + iz of element (m - iy, n - iz), whose corner
    # j = 2*jy + jz is offset by (jy, jz) - (iy, iz); i downwards sums elements in order
    for i, j in itertools.product((3, 2, 1, 0), range(4)):
        (iy, iz), (jy, jz) = divmod(i, 2), divmod(j, 2)
        out[:, 1 + jy - iy, 1 + jz - iz, iy:iy + height, iz:iz + width] += rows[:, :, i, j, None]
    return out


def rhs_2d(mesh: Mesh2D, material: Material, regions: RegionMap2D,
           profile, scheme: Scheme) -> np.ndarray:
    """The right-hand side of assemble_2d alone, bit for bit: the only part
    of the system that depends on the scheme. The LOAD_TABLE rows are
    folded into load stencils like the matrix and applied to the node
    samples of the input like it (_matvec).

    When the load is even under MIRROR_PARITY in exact arithmetic (a
    mirrored mesh, and equal samples at (z, y) and (z, -y)), the result is
    its even part (b + P b) / 2, so that P b == b holds in floats too."""
    rows, fixed = _mesh_rows(mesh, material, regions, scheme)
    return _rhs(mesh, regions, profile, _fold(rows[len(BLOCK_TABLE):], 2), fixed)


def _rhs(mesh: Mesh2D, regions: RegionMap2D, profile, loads: np.ndarray, fixed) -> np.ndarray:
    """rhs_2d from the folded LOAD_TABLE rows and _mesh_rows' Dirichlet mask."""
    ny, nz = mesh.ny, mesh.nz
    z, y = np.meshgrid(mesh.node_z(), mesh.node_y())
    bn = np.asarray(profile.sample(z, y), dtype=float)
    if bn.shape != (ny, nz):
        raise InvalidArgumentError("profile samples do not match the mesh nodes")
    rhs = np.zeros((3, ny, nz))
    rhs[[spec[0] for spec in LOAD_TABLE]] = _matvec(loads[:, None], _column_of(nz), bn[None])
    rhs[fixed] = 0.0
    if (_mirrored_mesh(mesh, regions)
            and np.array_equal(np.asarray(profile.sample(z, -y), dtype=float), bn)):
        # keep the even part (P b + b) / 2; negation and halving are exact
        # and addition commutes, so it is even bit for bit and solve_2d
        # finds the odd sector's load exactly zero
        rhs = 0.5 * (rhs[:, ::-1] * np.asarray(MIRROR_PARITY, dtype=float)[:, None, None] + rhs)
    return rhs.ravel()


def _mirrored_mesh(mesh: Mesh2D, regions: RegionMap2D) -> bool:
    """Whether assemble_2d's matrix commutes with the signed reflection P by
    construction: ny odd, mirrored row heights and flags, centre row at y = 0."""
    heights, flags = mesh.row_heights, regions.row_multipliers
    return (mesh.ny % 2 == 1 and heights == heights[::-1] and flags == flags[::-1]
            and mesh.node_y()[mesh.ny // 2] == 0.0)


def _node_interleaved(ny: int, nz: int) -> np.ndarray:
    """Band position of every unknown (field, m, n) of an ny-by-nz grid:
    the three fields of a node sit next to each other and the shorter grid
    axis varies fastest, so the bandwidth is about 3*min(ny, nz)."""
    m, n = np.divmod(np.arange(ny * nz, dtype=np.int32), np.int32(nz))
    node = n * ny + m if ny <= nz else m * nz + n
    return 3 * node.reshape(ny, nz) + np.arange(3, dtype=np.int32)[:, None, None]


def _neighbours(v: np.ndarray, fill) -> np.ndarray:
    """[c, dy, dz, m, n] -> v[c, m + dy - 1, n + dz - 1], ``fill`` off the grid."""
    f, ny, nz = v.shape
    pad = np.full((f, ny + 2, nz + 2), fill, dtype=v.dtype)
    pad[:, 1:-1, 1:-1] = v
    return np.stack([pad[:, dy:dy + ny, dz:dz + nz] for dy in range(3) for dz in range(3)],
                    axis=1).reshape(f, 3, 3, ny, nz)


def _stencil_to_csr(stencil: np.ndarray) -> sp.csr_matrix:
    import scipy.sparse as sp

    ny, nz = stencil.shape[4:]
    entries = stencil.reshape(3, 27, ny * nz).transpose(0, 2, 1)   # (field, node, column)
    cols = _neighbours(np.arange(3 * ny * nz, dtype=np.int32).reshape(3, ny, nz), -1)
    cols = np.broadcast_to(cols.reshape(27, -1).T, entries.shape)
    nonzero = entries != 0
    indptr = np.concatenate([[0], np.cumsum(nonzero.sum(axis=2).ravel())])
    return sp.csr_matrix((entries[nonzero], cols[nonzero], indptr), shape=(3 * ny * nz,) * 2)


def _sector(columns: np.ndarray, column_of: np.ndarray, s: int):
    """Mirror sector s (+1 or -1), the vectors with P x = s x, on the lower
    half grid: the band position of each unknown (-1 for the centre-row
    dofs of field parity -s, which vanish) and the _band arguments of its
    rows, the lower half of the columns with the centre row's upper
    entries folded by s * MIRROR_PARITY."""
    half, parity = (columns.shape[4] + 1) // 2, np.asarray(MIRROR_PARITY)
    band = _node_interleaved(half, len(column_of))
    inside = np.ones(band.shape, dtype=bool)
    inside[parity != s, half - 1] = False
    # close the gaps the vanishing dofs leave in the band numbering
    gaps = np.searchsorted(np.sort(band[~inside]), band).astype(np.int32)
    folded = columns[..., :half, :].copy()
    centre = folded[..., half - 1:half, :]
    centre[:, :, 0] += (s * parity)[:, None, None, None] * centre[:, :, 2]
    centre[:, :, 2] = 0.0
    return np.where(inside, band - gaps, np.int32(-1)), folded, column_of


def _band(pos: np.ndarray, columns: np.ndarray, column_of: np.ndarray):
    """(ab, kl, ku, ||A||inf) of the rows of ``columns`` (node column n
    reads column column_of[n]), with unknown (c, m, n) at band position
    pos[c, m, n] (-1: none) and its neighbours' positions read off
    _neighbours. A[i, j] sits at ab[kl + ku + i - j, j], below kl rows of
    workspace for the fill that row pivoting creates.

    The band is a run of slabs along its slow axis (_node_interleaved):
    node columns when z is slow, node rows when y is. The band columns of
    slab t hold entries of the rows of slabs t - 1, t and t + 1 alone, so
    with z slow their block is set by the stencil columns those three
    slabs read. Each distinct block is scattered once and copied to the
    slabs that repeat it; node rows differ, so with y slow every block is
    scattered. A slab's rows repeat with its block, so ||A||inf is the
    largest row sum over the distinct slabs."""
    h, nz = pos.shape[1:]
    z_slow = h <= nz
    stops = np.max(pos, axis=(0, 1) if z_slow else (0, 2)) + 1
    starts = np.concatenate([[0], stops[:-1]])
    ident = np.pad(column_of if z_slow else np.arange(h), 1, constant_values=-1)
    first = {}
    keys = zip(ident[:-2], ident[1:-1], ident[2:])
    rep = [first.setdefault(key, t) for t, key in enumerate(keys)]   # first slab of each key
    near, found, row_sums = _neighbours(pos, -1), [], []
    for t in first.values():
        w = np.arange(max(t - 1, 0), min(t + 2, len(stops)))
        ms, ns = np.ix_(*((np.arange(h), w) if z_slow else (w, np.arange(nz))))
        v = columns[..., ms, column_of[ns]]
        i = pos[:, ms, ns][:, None, None, None]
        j = near[..., ms, ns]
        i, j = np.broadcast_to(i, v.shape), np.broadcast_to(j, v.shape)
        entry = (v != 0) & (i >= 0) & (j >= 0)
        rows = entry & (starts[t] <= i) & (i < stops[t])
        row_sums.append(np.max(np.bincount(i[rows] - starts[t], weights=np.abs(v[rows]),
                                           minlength=stops[t] - starts[t])))
        cols = entry & (starts[t] <= j) & (j < stops[t])
        found.append((i[cols], j[cols], v[cols]))
    norm = float(np.max(row_sums))
    kl = max(int(np.max(a - b, initial=0)) for a, b, _ in found)
    ku = max(int(np.max(b - a, initial=0)) for a, b, _ in found)
    height, n = 2 * kl + ku + 1, int(stops[-1])
    ab = np.empty(height * n)   # every slab is written once: zeroed and scattered, or copied
    for t, (i, j, v) in zip(first.values(), found):
        ab[starts[t] * height:stops[t] * height] = 0.0
        ab[j.astype(np.intp) * height + (i - j) + (kl + ku)] = v   # ab[kl + ku + i - j, j]
    for t, r in enumerate(rep):
        if r != t:
            ab[starts[t] * height:stops[t] * height] = ab[starts[r] * height:stops[r] * height]
    return ab.reshape(n, height).T, kl, ku, norm


def _band_solve(pos: np.ndarray, columns: np.ndarray, column_of: np.ndarray,
                rhs: np.ndarray) -> Tuple[np.ndarray, int]:
    """Solve the system of _band(pos, columns, column_of) for rhs (3, H, nz,
    right-hand sides) by a banded LU. A pivot |u_kk| <= eps * ||A||inf
    counts as singular, whether or not elimination produced an exact zero.
    Returns x (0 where pos is -1), kl."""
    flapack = lapack()
    ab, kl, ku, norm = _band(pos, columns, column_of)
    lu, piv, info = flapack.dgbtrf(ab, kl, ku, overwrite_ab=1)
    pivots = np.abs(lu[kl + ku])   # the diagonal of U
    floor = np.finfo(float).eps * norm
    k = int(np.argmin(pivots))
    if info > 0 or pivots[k] <= floor:
        raise NumericalFailureError(f"2D band LU pivot {pivots[k]:.3e} in band column {k + 1} "
                                    f"is at most eps*||A||inf = {floor:.3e} "
                                    "(singular or too ill-conditioned to factor)")
    unknown, b, x = pos >= 0, np.zeros((len(pivots), rhs.shape[-1])), np.zeros_like(rhs)
    b[pos[unknown]] = rhs[unknown]
    x[unknown] = flapack.dgbtrs(lu, kl, ku, b, piv)[0][pos[unknown]]
    return x, kl


# Sign of (phi, A_y, A_z) under the reflection y -> -y: the coupled block
# (r, c) has the y parity MIRROR_PARITY[r] * MIRROR_PARITY[c] of its
# elemental blocks (see the module docstring)
MIRROR_PARITY = (-1, 1, -1)


def solve_2d(system: DiscreteSystem2D, more_rhs: Optional[Sequence[np.ndarray]] = None
             ) -> Union[Solution2D, List[Solution2D]]:
    """Banded LU solve (LAPACK dgbtrf/dgbtrs) with a residual acceptance
    check on the full matrix for every right-hand side.

    The solve reads only the system's distinct z-columns. A mirrored
    system (assemble_2d reads it off the mesh description, _mirrored_mesh),
    as every sheet of the package is, splits exactly into an even and an
    odd sector on half the grid height, each folded from the columns
    (_sector), and each right-hand side into its sector parts
    (b + s P b) / 2. A sector that no right-hand side reaches is never
    touched, so its singularity is not tested. Other systems get one band
    LU over the whole grid. Each band is filled from the columns, one
    scatter per distinct block of band columns (_band). The residual and
    ||A||inf run over the runs of node columns that read one column
    (_matvec). ``mirrored`` set on a matrix that does not commute with P
    fails the residual check.
    Solution2D.band_kl records the kl of each band factored: (66,) for the
    refined sheet at nz = 257 (about 25 MB), (128,) for its whole grid (97
    MB). Given ``more_rhs``, further right-hand sides for the same matrix,
    the factorization is shared and a list of solutions is returned.
    """
    mesh, columns, column_of = system.mesh, system.columns, system.column_of
    ny, nz, n = mesh.ny, mesh.nz, 3 * mesh.node_count
    rhs_all = [system.rhs] + list(more_rhs or ())
    if any(np.shape(b) != (n,) for b in rhs_all):
        raise InvalidArgumentError("right-hand side does not match the matrix")
    rhs = np.stack(rhs_all, axis=-1).reshape(3, ny, nz, -1)
    if system.mirrored:
        half = (ny + 1) // 2
        parity = np.asarray(MIRROR_PARITY, dtype=float)[:, None, None, None]
        p_rhs, xs, band_kl = parity * rhs[:, ::-1], np.zeros_like(rhs), ()
        for s in (1, -1):
            part = ((rhs + s * p_rhs) / 2)[:, :half]
            if not np.any(part):
                continue   # no right-hand side reaches this sector: its x is 0
            x_s, kl = _band_solve(*_sector(columns, column_of, s), part)
            xs[:, :half] += x_s
            xs[:, half:] += s * parity * x_s[:, half - 2::-1]
            band_kl += (kl,)
    else:
        xs, kl = _band_solve(_node_interleaved(ny, nz), columns, column_of, rhs)
        band_kl = (kl,)
    # a row adds its 27 terms in column order, like a CSR product of system.matrix
    norm_a = float(np.max(np.abs(columns).reshape(3, 27, ny, -1).sum(axis=1)))
    sols = []
    for c, b in enumerate(rhs_all):
        x = xs[..., c]
        if not np.all(np.isfinite(x)):
            raise NumericalFailureError("2D solve produced non-finite values "
                                        "(singular or badly scaled system)")
        resid = float(np.max(np.abs(_matvec(columns, column_of, x).ravel() - b)))
        budget = RESIDUAL_RTOL * (norm_a * float(np.max(np.abs(x))) + float(np.max(np.abs(b))))
        if resid > budget:
            raise NumericalFailureError(
                f"2D residual {resid:.3e} exceeds budget {budget:.3e} "
                f"(matrix inf-norm {norm_a:.3e})")
        phi, a_y, a_z = x
        sols.append(Solution2D(phi=phi, a_y=a_y, a_z=a_z, b_x=reaction_field_2d(a_y, a_z, mesh),
                               mesh=mesh, residual=resid, band_kl=band_kl))
    return sols[0] if more_rhs is None else sols


def _matvec(columns: np.ndarray, column_of: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x on the grid, x of shape (fields, ny, nz): each run of node columns
    that read one stencil column multiplies the neighbours _neighbours
    gathers, and a row sums its 9 * fields terms in column order from -0.0,
    so its bits are those of a loop that starts at its first term."""
    f, ny, nz = x.shape
    near = _neighbours(x, 0.0).reshape(9 * f, ny, nz)
    ax = np.empty((len(columns), ny, nz))
    runs = np.flatnonzero(np.diff(column_of, prepend=-1, append=-1))
    for a, b in zip(runs[:-1], runs[1:]):
        col = columns[..., column_of[a], None].reshape(len(columns), 9 * f, ny, 1)
        ax[..., a:b] = np.sum(col * near[..., a:b], axis=1, initial=-0.0)
    return ax


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


def exact_patch_rows(pe, u, scheme: Scheme):
    """The interior-node row stencils of a uniform all-conductor mesh with
    unit spacing, in exact rational arithmetic: assemble_2d's own fold
    (_fold) of the BLOCK_TABLE and LOAD_TABLE rows of one element, summed
    over its four corner nodes, which take the node's place in the four
    elements around it.

    Returns (lhs, rhs_weights): lhs maps (row_field, col_field) to
    {(i+1, j+1): coeff} stencil dictionaries keyed like the Z_n/Z_m
    monomial exponents; rhs_weights maps row_field to the input-weight
    stencil of that row. mu = 1 and h = 1, so mu*sigma = 2*Pe/u.
    """
    pe, u, one = Fraction(pe), Fraction(u), Fraction(1)
    factors = {"flag": one, "u": u, "musig": 2 * pe / u}
    rows = _element_rows(elemental_blocks(one, one), factors, scheme)
    stencils = [{(dz, dy): w for (dy, dz), w in np.ndenumerate(stencil) if w != 0}
                for stencil in _fold(np.stack(rows)[:, None], 1).sum(axis=(3, 4))]
    return (dict(zip((spec[:2] for spec in BLOCK_TABLE), stencils)),
            dict(zip((spec[0] for spec in LOAD_TABLE), stencils[len(BLOCK_TABLE):])))
