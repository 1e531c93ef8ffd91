"""Shared helpers: the golden pin of the eight named interior-stencil
polynomials of the coupled 2D system, and the expected interior-row
stencils built from it, for exact comparison against the assembled rows.
Unit spacing and mu = 1 throughout (so mu*sigma = 2*Pe/u)."""
from fractions import Fraction

from eddyfem.core import Scheme
from eddyfem.zpoly import Poly
from eddyfem.ztransfer import ZM, ZN


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
