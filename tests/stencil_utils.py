"""Shared helpers: the hand-written elemental blocks, the bit-level
reference of fem2d.elemental_blocks; the golden pin of the eight named
interior-stencil polynomials of the coupled 2D system, and the expected interior-row
stencils built from it, for exact comparison against the assembled rows
(unit spacing and mu = 1, so mu*sigma = 2*Pe/u); an element-by-element
dict fold of the exact interior rows, the oracle of fem2d.exact_patch_rows;
and the per-node stencil with its band scatter and product over the whole
grid, the oracles of the z-column form that fem2d holds."""
import itertools
from fractions import Fraction

import numpy as np

from eddyfem import fem2d
from eddyfem.core import Scheme
from eddyfem.zpoly import Poly
from eddyfem.ztransfer import ZM, ZN


def written_out_blocks(dz, dy):
    """The elemental blocks with the 1D reference integrals written out by
    hand, in the arithmetic of dz/dy; fem2d.elemental_blocks builds them
    from core.REFERENCE_INTEGRALS and must match these bit for bit."""
    one = dz / dz
    h = one / 2
    m = np.array([[one / 3, one / 6], [one / 6, one / 3]])   # mass
    s = np.array([[one, -one], [-one, one]])                 # stiffness
    c = np.array([[-h, h], [-h, h]])                         # N_i dN_j/dt

    def tens(Y, Zb, scale):
        return np.multiply.outer(scale * Y, Zb).transpose(0, 2, 1, 3).reshape(4, 4)

    return {
        "lap": tens(m, s, dy / dz) + tens(s, m, dz / dy),
        "cz": tens(m, c, dy),
        "cy": tens(c, m, dz),
        "gyz": tens(c.T, c, one),
        "gyy": tens(s, m, dz / dy),
        "gy0": tens(c.T, m, dz),
        "mass": tens(m, m, dz * dy),
        "avg_mass": np.full((4, 4), dz * dy / 16),
        "avg_gy0": np.repeat([[-dz / 8], [-dz / 8], [dz / 8], [dz / 8]], 4, axis=1),
    }


def _p(d):
    return Poly((ZN, ZM), {k: Fraction(v) for k, v in d.items()})


# Exponent tuples are (power of Z_n, power of Z_m). polys_2d() extracts the
# same eight polynomials from the assembled patch and must equal these.
GOLDEN_POLYS = {
    # 9-point Laplacian stencil (row sums vanish at (1,1))
    "S1": _p({(2, 2): 1, (1, 2): 1, (0, 2): 1, (2, 1): 1, (1, 1): -8,
              (0, 1): 1, (2, 0): 1, (1, 0): 1, (0, 0): 1}),
    # z-derivative stencil, mass-weighted across y
    "Q2": _p({(2, 2): 1, (0, 2): -1, (2, 1): 4, (0, 1): -4, (2, 0): 1, (0, 0): -1}),
    # mixed yz cross-derivative stencil
    "S2": _p({(2, 2): 1, (0, 2): -1, (2, 0): -1, (0, 0): 1}),
    # y-stiffness stencil, mass-weighted across z
    "S3": _p({(2, 2): 1, (1, 2): 4, (0, 2): 1, (2, 1): -2, (1, 1): -8,
              (0, 1): -2, (2, 0): 1, (1, 0): 4, (0, 0): 1}),
    # y-derivative stencil, mass-weighted across z
    "Q1": _p({(2, 2): 1, (1, 2): 4, (0, 2): 1, (2, 0): -1, (1, 0): -4, (0, 0): -1}),
    # consistent-mass load stencil (nodal input)
    "M1": _p({(2, 2): 1, (1, 2): 4, (0, 2): 1, (2, 1): 4, (1, 1): 16,
              (0, 1): 4, (2, 0): 1, (1, 0): 4, (0, 0): 1}),
    # load stencils of the element-averaged input
    "R1": _p({(2, 2): 1, (1, 2): 2, (0, 2): 1, (2, 0): -1, (1, 0): -2, (0, 0): -1}),
    "N1": _p({(2, 2): 1, (1, 2): 2, (0, 2): 1, (2, 1): 2, (1, 1): 4,
              (0, 1): 2, (2, 0): 1, (1, 0): 2, (0, 0): 1}),
}


def poly_stencil(poly, scale):
    """{(zn_exp, zm_exp): scale * coeff} with zero entries dropped."""
    return {k: scale * v for k, v in poly.coeffs.items() if scale * v != 0}


def merged(poly_a, scale_a, poly_b, scale_b):
    out = {}
    for poly, scale in ((poly_a, scale_a), (poly_b, scale_b)):
        for k, v in poly.coeffs.items():
            out[k] = out.get(k, Fraction(0)) + scale * v
    return {k: v for k, v in out.items() if v != 0}


def expected_lhs_stencils(pe: Fraction, u: Fraction):
    """Map (row_field, col_field) -> expected stencil dict; fields are
    0 = phi, 1 = A_y, 2 = A_z."""
    p = GOLDEN_POLYS
    third = Fraction(1, 3)
    return {
        (2, 0): poly_stencil(p["Q2"], pe / (6 * u)),
        (2, 2): poly_stencil(p["S1"], -third),
        (1, 0): poly_stencil(p["Q1"], pe / (6 * u)),
        (1, 1): merged(p["S1"], -third, p["Q2"], pe / 6),
        (1, 2): poly_stencil(p["Q1"], -pe / 6),
        (0, 0): poly_stencil(p["S1"], third),
        (0, 1): poly_stencil(p["S2"], u / 4),
        (0, 2): poly_stencil(p["S3"], -u / 6),
    }


def expected_rhs_stencils(pe: Fraction, u: Fraction, scheme: Scheme):
    """Map row_field -> expected input-weight stencil (unit spacing)."""
    p = GOLDEN_POLYS
    if scheme is Scheme.GALERKIN:
        return {1: poly_stencil(p["M1"], pe / 18), 0: poly_stencil(p["Q1"], u / 12)}
    return {1: poly_stencil(p["N1"], pe / 8), 0: poly_stencil(p["R1"], u / 8)}


def dict_fold_patch_rows(pe, u, scheme):
    """exact_patch_rows folded entry by entry into dicts: the node is corner
    i = 2*iy + iz of one element around it, whose corner j = 2*jy + jz sits
    at stencil offset (1 + jz - iz, 1 + jy - iy)."""
    pe, u, one = Fraction(pe), Fraction(u), Fraction(1)
    factors = {"flag": one, "u": u, "musig": 2 * pe / u}
    rows = fem2d._element_rows(fem2d.elemental_blocks(one, one), factors, scheme)
    count = len(fem2d.BLOCK_TABLE)
    lhs = dict(zip((spec[:2] for spec in fem2d.BLOCK_TABLE), rows[:count]))
    rhs_w = dict(zip((spec[0] for spec in fem2d.LOAD_TABLE), rows[count:]))

    def fold(rows):
        stencil = {}
        for (i, j), w in np.ndenumerate(rows):
            (iy, iz), (jy, jz) = divmod(i, 2), divmod(j, 2)
            off = (1 + jz - iz, 1 + jy - iy)
            stencil[off] = stencil.get(off, 0) + w
        return {o: w for o, w in stencil.items() if w != 0}

    return ({k: fold(b) for k, b in lhs.items()}, {k: fold(b) for k, b in rhs_w.items()})


# ---------------------------------------------------------------------------
# the whole-grid stencil, node by node


def whole_grid_stencil(mesh, material, regions):
    """S[row field, col field, dy, dz, m, n] by slab adds over every node
    column of the grid."""
    rows, fixed = fem2d._mesh_rows(mesh, material, regions, Scheme.GALERKIN)
    ny, nz = mesh.ny, mesh.nz
    stencil = np.zeros((3, 3, 3, 3, ny, nz))
    for (rf, cf, _), vals in zip(fem2d.BLOCK_TABLE, rows):   # the loads are left out
        for i, j in itertools.product((3, 2, 1, 0), range(4)):
            (iy, iz), (jy, jz) = divmod(i, 2), divmod(j, 2)
            stencil[rf, cf, 1 + jy - iy, 1 + jz - iz,
                    iy:iy + ny - 1, iz:iz + nz - 1] += vals[:, i, j, None]
    fixed = fixed.reshape(3, ny, nz)
    np.copyto(stencil, 0.0, where=fixed[:, None, None, None])
    stencil[range(3), range(3), 1, 1] += fixed
    return stencil


def neighbours(v, fill):
    """[c, dy, dz, m, n] -> v[c, m + dy - 1, n + dz - 1], ``fill`` off the grid."""
    f, ny, nz = v.shape
    pad = np.full((f, ny + 2, nz + 2), fill, dtype=v.dtype)
    pad[:, 1:-1, 1:-1] = v
    return np.stack([pad[:, dy:dy + ny, dz:dz + nz] for dy in range(3) for dz in range(3)],
                    axis=1).reshape(f, 3, 3, ny, nz)


def stencil_sector(stencil, s):
    """Mirror sector s of a per-node stencil: the band position of each
    unknown and the (stencil, first grid row) parts of its rows."""
    half, parity = (stencil.shape[4] + 1) // 2, np.asarray(fem2d.MIRROR_PARITY)
    band = fem2d._node_interleaved(half, stencil.shape[5])
    inside = np.ones(band.shape, dtype=bool)
    inside[parity != s, half - 1] = False
    gaps = np.searchsorted(np.sort(band[~inside]), band).astype(np.int32)
    centre = stencil[..., half - 1:half, :].copy()
    centre[:, :, 0] += (s * parity)[:, None, None, None] * centre[:, :, 2]
    centre[:, :, 2] = 0.0
    return (np.where(inside, band - gaps, np.int32(-1)),
            [(stencil[..., :half - 1, :], 0), (centre, half - 1)])


def stencil_band(pos, parts):
    """(ab, kl, ku, ||A||inf) of the rows in parts, one scatter over every
    node of the grid."""
    cols, found = neighbours(pos, -1), []
    for stencil, m0 in parts:
        rows = slice(m0, m0 + stencil.shape[4])
        i, j = (np.broadcast_to(a, stencil.shape) for a in (pos[:, None, None, None, rows],
                                                             cols[..., rows, :]))
        entry = (stencil != 0) & (i >= 0) & (j >= 0)
        found.append((i[entry], j[entry], stencil[entry]))
    i, j, v = (np.concatenate(a) for a in zip(*found))
    n = int(np.max(pos)) + 1
    norm = float(np.max(np.bincount(i, weights=np.abs(v), minlength=n)))
    i -= j
    kl, ku = int(np.max(i, initial=0)), -int(np.min(i, initial=0))
    height = 2 * kl + ku + 1
    ab = np.zeros(height * n)
    ab[j.astype(np.intp) * height + i + (kl + ku)] = v
    return ab.reshape(n, height).T, kl, ku, norm


def stencil_matvec(stencil, x):
    """A x on the (3, ny, nz) grid; a row adds its 27 terms in column order."""
    ny, nz = x.shape[1:]
    return (stencil * neighbours(x, 0.0)).reshape(3, 27, ny, nz).sum(axis=1)
