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

The elemental blocks are computed in the arithmetic of their inputs, and
two tables say how they combine: BLOCK_TABLE into the coupled matrix
blocks, LOAD_TABLE into the loads of the right-hand side. The float
production assembly reads both, and exact_patch_rows folds the same element
rows into the exact Fraction-valued interior stencils that the certificates
read. assemble_2d builds every element's entries in one vectorized pass
over the whole mesh.

The block order (phi, A_y, A_z) of DiscreteSystem2D and Solution2D is the
public contract. solve_2d factors the system as a banded LU (LAPACK
dgbtrf/dgbtrs) under an internal node-interleaved numbering with the
shorter grid axis fastest, so the band width is set by min(ny, nz) and not
by the refined length of the longer axis. One factorization can serve
several right-hand sides, such as both schemes' inputs on one mesh; the
matrix does not depend on the scheme, and rhs_2d assembles a right-hand
side alone.

Every sheet the package builds is mirror-symmetric about its y = 0 node
row. The elemental blocks cy, gyz, gy0 and int_ny carry one y derivative
and are odd in y, the rest are even; so every coupled block of
BLOCK_TABLE is even or odd as its (row, col) fields demand, and the
matrix commutes with the signed reflection
(phi, A_y, A_z)(y) -> (-phi, +A_y, -A_z)(-y) (MIRROR_PARITY). solve_2d
checks this and then solves the even and the odd sector separately, each
on half the grid height with half the bandwidth; other systems get one
band LU over the whole grid. Every input the package ships is even in y
as well. For such an input rhs_2d returns the load's even part, which is
even bit for bit, so no right-hand side reaches the odd sector and
solve_2d factors the even sector alone.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack

from .core import (InvalidArgumentError, Material, Mesh2D, NumericalFailureError,
                   Scheme)

RESIDUAL_RTOL = 1e-8


def elemental_blocks(dz, dy) -> Dict[str, np.ndarray]:
    """4x4 elemental matrices for a dz-by-dy rectangle in tensor node order
    (local index 2*iy + iz).

    Works elementwise in the arithmetic of dz/dy: pass Fractions to get
    exact (object-array) blocks, floats to get float blocks.
    """
    one = dz / dz  # multiplicative unit of the input arithmetic
    # 1D reference integrals over [0,1] for the linear basis pair (1-t, t)
    h = one / 2
    m = np.array([[one / 3, one / 6], [one / 6, one / 3]])   # mass
    s = np.array([[one, -one], [-one, one]])                 # stiffness
    c = np.array([[-h, h], [-h, h]])                         # N_i dN_j/dt

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
        "int_n": np.array([dz * dy / 4] * 4),                    # int N_i
        "int_ny": np.array([-dz / 2, -dz / 2, dz / 2, dz / 2]),  # int dN_i/dy
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
    """Sparse 3M x 3M system, block-ordered (phi, A_y, A_z), BCs applied.

    ``assembled`` is set by assemble_2d alone: solve_2d skips a mirror
    sector that no right-hand side reaches only in such a system. A system
    built by hand, say from an edited copy of an assembled matrix, has
    every sector factored and tested for singularity."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    mesh: Mesh2D
    assembled: bool = dataclasses.field(default=False, init=False, repr=False, compare=False)


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
# elemental load. A 4x4 load weighs the element's corner samples of the
# input, a 4-vector load weighs their mean (the element-averaged input that
# plants the (Z_n+1) factor). rhs_2d and exact_patch_rows both read this table.
LOAD_TABLE = (
    (1, 1, ("musig", "u"), {Scheme.GALERKIN: "mass", Scheme.ELEMENT_AVERAGED: "int_n"}),
    (0, -1, ("flag", "u"), {Scheme.GALERKIN: "gy0", Scheme.ELEMENT_AVERAGED: "int_ny"}),
)


def _coef(sign, names, factors):
    return math.prod((factors[f] for f in names), start=sign)


def _coupled_blocks(blocks, factors):
    """The BLOCK_TABLE blocks, in table order, from elemental blocks and
    factor values given as scalars or arrays that broadcast together."""
    def term(sign, names, block):
        return _coef(sign, names, factors) * blocks[block]
    return [sum((term(*t) for t in terms[1:]), term(*terms[0])) for _, _, terms in BLOCK_TABLE]


def _mesh_rows(mesh: Mesh2D, material: Material, regions: RegionMap2D):
    """What the matrix and the right-hand side share: the elemental blocks
    of every mesh row (computed once per distinct row height), the table
    factors per row, the corner nodes of every element as (row, corner,
    element) and the Dirichlet mask over the block-ordered dofs."""
    if len(regions.row_multipliers) != mesh.ny - 1:
        raise InvalidArgumentError("region map does not match the mesh rows")
    ny, nz, dz = mesh.ny, mesh.nz, mesh.dz
    heights = np.asarray(mesh.row_heights, dtype=float)
    if not (np.all(heights > 0) and dz > 0):
        raise InvalidArgumentError("degenerate element (non-positive extent)")
    dys, row_kind = np.unique(heights, return_inverse=True)
    per_height = [elemental_blocks(dz, dy) for dy in dys]
    blk = {k: np.array([b[k] for b in per_height], dtype=float)[row_kind]
           for k in per_height[0]}
    flag = np.asarray(regions.row_multipliers)[:, None, None]
    factors = {"flag": flag, "u": material.u_z, "musig": material.mu * material.sigma * flag}
    # int32 indices: a mesh of 2**31 / 3 nodes could never be factored
    local = np.array([0, 1, nz, nz + 1], dtype=np.int32)   # element corner offsets
    nodes = ((np.arange(ny - 1, dtype=np.int32)[:, None] * nz + local)[..., None]
             + np.arange(nz - 1, dtype=np.int32))

    # Dirichlet rows: A_y = A_z = 0 on the inlet column and both y edges,
    # and the phi gauge pin at the inlet node nearest y = 0 (on the
    # symmetry line of symmetric meshes); each keeps only its unit diagonal
    m_count = mesh.node_count
    edge = np.concatenate([np.arange(ny) * nz, np.arange(nz), (ny - 1) * nz + np.arange(nz)])
    fixed = np.zeros(3 * m_count, dtype=bool)
    fixed[m_count + edge] = fixed[2 * m_count + edge] = True
    fixed[int(np.argmin(np.abs(mesh.node_y()))) * nz] = True
    return blk, factors, nodes, fixed


def assemble_2d(mesh: Mesh2D, material: Material, regions: RegionMap2D,
                profile, scheme: Scheme) -> DiscreteSystem2D:
    """Assemble the coupled system in one pass over the whole mesh.

    All elements in a mesh row share the same elemental blocks (uniform dz,
    per-row dy), so the blocks are computed once per distinct row height
    and the matrix entries of every element are scattered at once. The
    entries reach the sparse sum in (row, block, i, j, element) order, so
    duplicates round the same way on every run. The matrix does not depend
    on the scheme; the right-hand side is rhs_2d's.
    """
    rhs = rhs_2d(mesh, material, regions, profile, scheme)
    blk, factors, nodes, fixed = _mesh_rows(mesh, material, regions)
    nz, m_count = mesh.nz, mesh.node_count
    fixed_dofs = np.flatnonzero(fixed).astype(np.int32)

    # matrix entries: each nonzero (row, block, i, j) value runs along the
    # row's elements. A run lies on one node row, so its rows are either
    # all fixed (a y edge; its second entry is never on the inlet column)
    # or at most its first is (the inlet column)
    vals = np.stack(_coupled_blocks(blk, factors), axis=1)   # (row, block, i, j)
    ne = np.arange(nz - 1, dtype=np.int32)
    r, k, i, j = np.nonzero(vals)
    fields = np.array([spec[:2] for spec in BLOCK_TABLE], dtype=np.int32)
    row0 = fields[k, 0] * m_count + nodes[r, i, 0]
    col0 = fields[k, 1] * m_count + nodes[r, j, 0]
    run = ~fixed[row0 + 1]
    row0, col0 = row0[run], col0[run]
    data = np.repeat(vals[r, k, i, j][run], nz - 1).reshape(len(row0), nz - 1)
    data[fixed[row0], 0] = 0.0   # removed with the exact cancellations below
    matrix = sp.csr_matrix(
        (np.concatenate([data.ravel(), np.ones(len(fixed_dofs))]),
         (np.concatenate([(row0[:, None] + ne).ravel(), fixed_dofs]),
          np.concatenate([(col0[:, None] + ne).ravel(), fixed_dofs]))),
        shape=(3 * m_count, 3 * m_count))
    matrix.eliminate_zeros()
    system = DiscreteSystem2D(matrix=matrix, rhs=rhs, mesh=mesh)
    object.__setattr__(system, "assembled", True)
    return system


def rhs_2d(mesh: Mesh2D, material: Material, regions: RegionMap2D,
           profile, scheme: Scheme) -> np.ndarray:
    """The right-hand side of assemble_2d alone, bit for bit: the only part
    of the system that depends on the scheme. Summed per dof in (row,
    corner, element) order like the matrix entries.

    When the load is even under MIRROR_PARITY in exact arithmetic (see
    _even_input), the result is its even part (b + P b) / 2 with P the
    signed reflection, so that P b == b holds in floats too."""
    blk, factors, nodes, fixed = _mesh_rows(mesh, material, regions)
    z, y = np.meshgrid(mesh.node_z(), mesh.node_y())
    bn = np.asarray(profile.sample(z, y), dtype=float)
    if bn.shape != (mesh.ny, mesh.nz):
        raise InvalidArgumentError("profile samples do not match the mesh nodes")
    corners = np.stack([bn[:-1, :-1], bn[:-1, 1:], bn[1:, :-1], bn[1:, 1:]], axis=1)
    rhs = np.zeros(3 * mesh.node_count)
    for field, sign, names, loads in LOAD_TABLE:
        coef, w = _coef(sign, names, factors), blk[loads[scheme]]
        if w.ndim == 3:   # a 4x4 load per mesh row: weigh the corner samples
            load = coef * (w[:, :, None, :] @ corners[:, None])[:, :, 0]
        else:
            load = (coef * w[..., None]) * corners.mean(axis=1)[:, None]
        np.add.at(rhs, field * mesh.node_count + nodes, load)
    rhs[fixed] = 0.0
    if _even_input(mesh, regions, profile, z, y, bn):
        # keep the even part (P b + b) / 2; negation and halving are exact
        # and addition commutes, so it is even bit for bit and solve_2d
        # finds the odd sector's load exactly zero
        b = rhs.reshape(3, mesh.ny, mesh.nz)
        even = b[:, ::-1] * np.asarray(MIRROR_PARITY, dtype=float)[:, None, None]
        even += b
        even *= 0.5
        rhs = even.ravel()
    return rhs


def _even_input(mesh: Mesh2D, regions: RegionMap2D, profile, z, y, bn) -> bool:
    """Whether the load of rhs_2d is even under MIRROR_PARITY in exact
    arithmetic: ny odd, the row heights and conductivity flags mirror
    about the centre node row, that row lies at y = 0 exactly, and the
    profile's samples bn at the nodes (z, y) equal its samples at (z, -y)."""
    heights, flags = mesh.row_heights, regions.row_multipliers
    return (mesh.ny % 2 == 1 and heights == heights[::-1] and flags == flags[::-1]
            and mesh.node_y()[mesh.ny // 2] == 0.0
            and np.array_equal(np.asarray(profile.sample(z, -y), dtype=float), bn))


def _node_interleaved(ny: int, nz: int) -> np.ndarray:
    """Band position of every block-ordered unknown of an ny-by-nz grid:
    the three fields of a node sit next to each other and the shorter grid
    axis varies fastest, so the bandwidth is about 3*min(ny, nz) whatever
    the longer axis."""
    m, n = np.divmod(np.arange(ny * nz, dtype=np.int32), np.int32(nz))
    node = n * ny + m if ny <= nz else m * nz + n
    return (3 * node + np.arange(3, dtype=np.int32)[:, None]).ravel()


def _band_solve(a: sp.csr_matrix, perm: np.ndarray, rhs: np.ndarray) -> Tuple[np.ndarray, int]:
    """Solve a @ x = rhs (one column per right-hand side) by a banded LU
    (LAPACK dgbtrf/dgbtrs) with unknown i at band position perm[i].

    ``a`` must hold no duplicate entries: the band fill assigns. A pivot
    |u_kk| of at most eps * ||a||_inf counts as singular, so the verdict
    does not hang on whether the elimination order happens to produce an
    exact zero. Returns x in a's order and the lower bandwidth kl.
    """
    rows = np.repeat(perm, np.diff(a.indptr))
    cols = perm[a.indices]
    kl = int(np.max(rows - cols, initial=0))
    ku = int(np.max(cols - rows, initial=0))
    # LAPACK band layout: A[i, j] sits at ab[kl + ku + i - j, j]; the top
    # kl rows are workspace for the fill that row pivoting creates
    ab = np.zeros((2 * kl + ku + 1, len(perm)), order="F")
    ab[kl + ku + rows - cols, cols] = a.data
    del rows, cols
    lu, piv, info = lapack.dgbtrf(ab, kl, ku, overwrite_ab=1)
    pivots = np.abs(lu[kl + ku])   # the diagonal of U
    floor = np.finfo(float).eps * float(np.max(np.abs(a).sum(axis=1)))
    k = int(np.argmin(pivots))
    if info > 0 or pivots[k] <= floor:
        raise NumericalFailureError(f"2D band LU pivot {pivots[k]:.3e} in band column {k + 1} "
                                    f"is at most eps*||A||inf = {floor:.3e} (singular system)")
    xp, _ = lapack.dgbtrs(lu, kl, ku, rhs[np.argsort(perm)], piv)
    return xp[perm], kl


# Sign of (phi, A_y, A_z) under the reflection y -> -y: the coupled block
# (r, c) has the y parity MIRROR_PARITY[r] * MIRROR_PARITY[c] of its
# elemental blocks (see the module docstring)
MIRROR_PARITY = (-1, 1, -1)


def _mirror_sectors(a: sp.csr_matrix, mesh: Mesh2D):
    """The signed reflection P of the node rows and the two mirror sectors
    of ``a``, or None unless ny is odd and max|P a P - a| <= 1e-3 *
    RESIDUAL_RTOL * max|a| (a tolerance that cannot use up the residual
    budget).

    Sector s (+1 or -1) holds the vectors with P x = s x. Its unknowns are
    the dofs of the lower half of the grid plus those of the centre row
    whose field parity equals s (the others vanish there). Each sector is
    (s, keep, q, perm): the kept block-ordered dofs, the injection q
    (x = q @ x_s) and the band positions under _node_interleaved of the
    half-height grid.
    """
    ny, nz, m_count = mesh.ny, mesh.nz, mesh.node_count
    if ny % 2 == 0:
        return None
    dof = np.arange(3 * m_count, dtype=np.int32)
    field, node = np.divmod(dof, np.int32(m_count))
    row = node // nz
    mirror = dof + (ny - 1 - 2 * row) * nz
    parity = np.asarray(MIRROR_PARITY, dtype=float)[field]
    p = sp.csr_matrix((parity, (dof, mirror)), shape=a.shape)
    scale = float(np.max(np.abs(a.data), initial=0.0))
    if float(np.max(np.abs((p @ a @ p - a).data), initial=0.0)) > 1e-3 * RESIDUAL_RTOL * scale:
        return None
    half = (ny + 1) // 2
    band = _node_interleaved(half, nz)
    sectors = []
    for s in (1, -1):
        keep = np.flatnonzero((row < half - 1) | ((row == half - 1) & (parity == s)))
        lower = row[keep] < half - 1
        k = np.arange(len(keep))
        q = sp.csr_matrix((np.concatenate([np.ones(len(keep)), s * parity[keep][lower]]),
                           (np.concatenate([keep, mirror[keep][lower]]),
                            np.concatenate([k, k[lower]]))),
                          shape=(len(dof), len(keep)))
        perm = np.empty(len(keep), dtype=np.int32)
        perm[np.argsort(band[field[keep] * (half * nz) + node[keep]])] = k
        sectors.append((s, keep, q, perm))
    return p, sectors


def solve_2d(system: DiscreteSystem2D, more_rhs: Optional[Sequence[np.ndarray]] = None
             ) -> Union[Solution2D, List[Solution2D]]:
    """Banded LU solve (LAPACK dgbtrf/dgbtrs) with a residual acceptance
    check on the original matrix for every right-hand side.

    The matrix and right-hand side keep their block order (phi, A_y, A_z).
    When the matrix commutes with the signed mirror reflection about the
    centre node row (see MIRROR_PARITY and _mirror_sectors), as every
    sheet of the package does, the system splits exactly into an even and
    an odd sector on half the grid height. Each sector system is the
    lower-half rows (plus the centre rows of its parity) folded onto the
    sector unknowns, a[keep] @ q; each right-hand side is split into its
    sector parts (b + s P b) / 2. The sectors are band-factored one after
    the other and their solutions added. Otherwise (an off-centre band,
    even ny, a hand-built matrix) one band LU covers the whole grid.

    In a system from assemble_2d, a sector whose part of every right-hand
    side is exactly zero is not folded or factored, and its part of the
    solution is exactly zero: the even input of every shipped sheet
    (see rhs_2d) reaches the even sector alone. Such a sector is not
    factored, so its singularity is not tested; every factored band keeps
    its pivot floor, and every solution its residual check on the full
    matrix. A system built by hand has every sector factored.

    Either way the unknowns are renumbered node-interleaved with the
    shorter grid axis fastest, the band widths come from the renumbered
    entries, and band storage is (2*kl + ku + 1) doubles per unknown. For
    the refined sheet at nz = 257 (ny = 41) the whole grid has kl = ku =
    128, a 97 MB band; the sectors have kl 66 and 67 on about half the
    unknowns each, about 25 MB apiece, held one at a time.

    Returns the Solution2D of system.rhs; Solution2D.band_kl records the
    kl of each band factored: (66,) for that sheet's even input, (66, 67)
    for a load that reaches both sectors, (128,) for one whole-grid band. Given
    ``more_rhs``, a sequence of further right-hand sides for the same
    matrix (say, the other scheme's), the factorization is shared and the
    result is a list of solutions, system.rhs first.
    """
    a, mesh = system.matrix.tocsr(), system.mesh
    if a.shape != (3 * mesh.node_count,) * 2:
        raise InvalidArgumentError("matrix does not match the mesh")
    rhs_all = [system.rhs] + list(more_rhs or ())
    if any(np.shape(b) != (a.shape[0],) for b in rhs_all):
        raise InvalidArgumentError("right-hand side does not match the matrix")
    if not a.has_canonical_format:
        a = a.copy()
        a.sum_duplicates()   # the band fill assigns, so duplicates must be summed
    rhs = np.column_stack(rhs_all)
    mirror = _mirror_sectors(a, mesh)
    if mirror is None:
        xs, kl = _band_solve(a, _node_interleaved(mesh.ny, mesh.nz), rhs)
        band_kl = (kl,)
    else:
        p, sectors = mirror
        p_rhs, xs, band_kl = p @ rhs, np.zeros_like(rhs), ()
        for s, keep, q, perm in sectors:
            part = ((rhs + s * p_rhs) / 2)[keep]
            if system.assembled and not np.any(part):
                continue   # no right-hand side reaches this sector: its x is 0
            x_s, kl = _band_solve(a[keep] @ q, perm, part)
            xs += q @ x_s
            band_kl += (kl,)
    norm_a = float(np.max(np.abs(a).sum(axis=1)))
    sols = []
    for c, b in enumerate(rhs_all):
        x = xs[:, c]
        if not np.all(np.isfinite(x)):
            raise NumericalFailureError("2D solve produced non-finite values "
                                        "(singular or badly scaled system)")
        resid = float(np.max(np.abs(a @ x - b)))
        budget = RESIDUAL_RTOL * (norm_a * float(np.max(np.abs(x))) + float(np.max(np.abs(b))))
        if resid > budget:
            raise NumericalFailureError(
                f"2D residual {resid:.3e} exceeds budget {budget:.3e} "
                f"(matrix inf-norm {norm_a:.3e})")
        phi, a_y, a_z = x.reshape(3, mesh.ny, mesh.nz)
        sols.append(Solution2D(phi=phi, a_y=a_y, a_z=a_z, b_x=reaction_field_2d(a_y, a_z, mesh),
                               mesh=mesh, residual=resid, band_kl=band_kl))
    return sols[0] if more_rhs is None else sols


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
    unit spacing, in exact rational arithmetic, folded from the BLOCK_TABLE
    and LOAD_TABLE rows of the four elements around the node.

    Returns (lhs, rhs_weights): lhs maps (row_field, col_field) to
    {(i+1, j+1): coeff} stencil dictionaries keyed like the Z_n/Z_m
    monomial exponents; rhs_weights maps row_field to the input-weight
    stencil of that row. mu = 1 and h = 1, so mu*sigma = 2*Pe/u.
    """
    from fractions import Fraction

    pe, u, one = Fraction(pe), Fraction(u), Fraction(1)
    factors = {"flag": one, "u": u, "musig": 2 * pe / u}
    blk = elemental_blocks(one, one)
    lhs = dict(zip((spec[:2] for spec in BLOCK_TABLE), _coupled_blocks(blk, factors)))
    # a load that weighs the corner mean weighs each corner by a quarter
    corner_weights = lambda w: w if w.ndim == 2 else np.multiply.outer(w, np.full(4, one / 4))
    rhs_w = {field: _coef(sign, names, factors) * corner_weights(blk[loads[scheme]])
             for field, sign, names, loads in LOAD_TABLE}

    def fold(rows):
        # the node is corner i = 2*iy + iz of one element around it, whose
        # corner j = 2*jy + jz sits at stencil offset (1 + jz - iz, 1 + jy - iy)
        stencil = {}
        for (i, j), w in np.ndenumerate(rows):
            (iy, iz), (jy, jz) = divmod(i, 2), divmod(j, 2)
            off = (1 + jz - iz, 1 + jy - iy)
            stencil[off] = stencil.get(off, 0) + w
        return {o: w for o, w in stencil.items() if w != 0}

    return ({k: fold(b) for k, b in lhs.items()}, {k: fold(b) for k, b in rhs_w.items()})
