"""Assembly and solution of the 1D discrete system.

Rows are kept in the dz-scaled form; the element table below is the one
place where the stencil and the input weights are written down. The inlet
node is Dirichlet (potential pinned to zero, row replacement); the outlet
keeps the natural zero-gradient row produced by the assembly.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (InvalidArgumentError, Mesh1D, Material, NumericalFailureError,
                   RectPulse1D, Scheme, lapack, material_for_peclet, peclet_of)

RESIDUAL_RTOL = 1e-10

# The exact dz-scaled element. Row i (0 = left, 1 = right node) has a + b*Pe
# on node j, (a, b) = ELEMENT_LHS[i][j], and the load
# dz * LOAD_SCALE * sum_j ELEMENT_WEIGHTS[scheme][i][j] * B_j.
ELEMENT_LHS = (((1, -1), (-1, 1)), ((-1, -1), (1, 1)))
LOAD_SCALE = (0, 2)
ELEMENT_WEIGHTS = {
    Scheme.GALERKIN: ((Fraction(1, 3), Fraction(1, 6)), (Fraction(1, 6), Fraction(1, 3))),
    Scheme.ELEMENT_AVERAGED: ((Fraction(1, 4), Fraction(1, 4)),) * 2,
}


def _rows(pe):
    return [[a + b * pe for a, b in row] for row in ELEMENT_LHS]


def _fold(rows):
    """Interior-node stencil (nodes n-1, n, n+1) of 2x2 element rows."""
    return rows[1][0], rows[1][1] + rows[0][0], rows[0][1]


def exact_stencil(pe, scheme: Scheme):
    """The interior row, (-1-Pe, 2, -1+Pe), and its load per dz, 2*Pe times
    the input weights, in the arithmetic of pe."""
    scale = LOAD_SCALE[0] + LOAD_SCALE[1] * pe
    return _fold(_rows(pe)), tuple(scale * w for w in _fold(ELEMENT_WEIGHTS[scheme]))


def input_weights(scheme: Scheme) -> np.ndarray:
    """Three-node weights applied to the nodal input flux density: (1, 4, 1)/6
    (Galerkin) or (1, 2, 1)/4 (element-averaged)."""
    return np.array([float(w) for w in _fold(ELEMENT_WEIGHTS[scheme])])


@dataclass(frozen=True)
class DiscreteSystem1D:
    """Tridiagonal system stored by diagonals (lower, diag, upper) + rhs."""

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    rhs: np.ndarray
    mesh: Mesh1D

    def matmul(self, x: np.ndarray) -> np.ndarray:
        y = self.diag * x
        y[1:] += self.lower * x[:-1]
        y[:-1] += self.upper * x[1:]
        return y

    def inf_norm(self) -> float:
        rowsum = np.abs(self.diag).copy()
        rowsum[1:] += np.abs(self.lower)
        rowsum[:-1] += np.abs(self.upper)
        return float(rowsum.max())


@dataclass(frozen=True)
class Solution1D:
    """Nodal potential, the per-element reaction flux density and the
    max-norm residual |A x - b| that the solver accepted."""

    a_y: np.ndarray
    b_x: np.ndarray
    residual: float


def assemble_1d(mesh: Mesh1D, material: Material, profile, scheme: Scheme) -> DiscreteSystem1D:
    """Assemble the dz-scaled tridiagonal system element by element.

    The element-averaged scheme replaces the two nodal input values of each
    element by their mean before integrating the load, which is what folds
    the (Z+1) factor into the discrete input.
    """
    pe = peclet_of(material, mesh.dz)
    z = mesh.nodes()
    try:
        bn = np.asarray(profile.sample(z), dtype=float)
    except (AttributeError, TypeError) as err:
        raise InvalidArgumentError(f"profile cannot be sampled on the mesh: {err}")
    if bn.shape != z.shape:
        raise InvalidArgumentError("profile samples do not match the mesh nodes")

    n = mesh.node_count
    diag = np.zeros(n)
    lower = np.zeros(n - 1)
    upper = np.zeros(n - 1)
    rhs = np.zeros(n)

    (l00, l01), (l10, l11) = _rows(pe)
    diag[:-1] += l00
    upper[:] += l01
    lower[:] += l10
    diag[1:] += l11

    # the weights are unit fractions; dividing by their denominators keeps
    # the rounding of the written-out bn/3, bn/6 and bn/4 the CSVs were made with
    load = (LOAD_SCALE[0] + LOAD_SCALE[1] * pe) * mesh.dz
    f_left, f_right = [load * (bn[:-1] / w0.denominator + bn[1:] / w1.denominator)
                       for w0, w1 in ELEMENT_WEIGHTS[scheme]]
    rhs[:-1] += f_left
    rhs[1:] += f_right

    # inlet Dirichlet by row replacement; outlet row stays natural
    diag[0] = 1.0
    upper[0] = 0.0
    rhs[0] = 0.0
    return DiscreteSystem1D(lower=lower, diag=diag, upper=upper, rhs=rhs, mesh=mesh)


def _element_differences(lower: np.ndarray, upper: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """d = diff(a_y) from rows 1..n-1, solved from the outlet toward the inlet.

    Those rows sum to zero bit for bit (the diagonal is (1-Pe)+(1+Pe)), so in
    d they read -lower[i-1]*d[i-1] + upper[i]*d[i] = rhs[i], the outlet row
    without its upper term. Divided by the pivots -lower, that is a unit
    upper-bidiagonal system whose back-substitution multiplies by
    (-1+Pe)/(1+Pe), at most 1 in magnitude for Pe >= 0: no pivoting, and an
    upstream tail that decays to zero instead of sticking at a subnormal
    value. The band is freed on return, before the residual check.
    """
    # only the super-diagonal row is written: diag="U" reads no diagonal
    ab = np.empty((2, len(lower)), order="F")
    np.divide(upper[1:], lower[:-1], out=ab[0, 1:])
    np.negative(ab[0, 1:], out=ab[0, 1:])
    d = np.divide(rhs[1:], lower)
    np.negative(d, out=d)
    d, info = lapack().dtbtrs(ab, d, uplo="U", diag="U", overwrite_b=1)
    if info != 0:
        raise NumericalFailureError(f"element-flux solve failed: LAPACK dtbtrs info {info}")
    return d


def solve_1d(system: DiscreteSystem1D) -> Solution1D:
    """Element-flux solve of the assembled system with a residual acceptance
    check.

    The element differences d come from rows 1..n-1 alone
    (_element_differences), a_y is their running sum from the value the
    inlet row gives, and b_x = -d/dz without re-differencing a_y. The
    residual is taken on the full rows, so a system whose rows 1..n-1 do not
    sum to zero fails its budget rather than passing unnoticed.
    """
    lower, diag, upper, rhs = system.lower, system.diag, system.upper, system.rhs
    if not all(np.isfinite(v).all() for v in (lower, diag, upper)):
        raise NumericalFailureError("1D system matrix has non-finite entries")
    if not np.isfinite(rhs).all():
        raise NumericalFailureError("1D system right-hand side has non-finite entries")
    inlet = diag[0] + upper[0]
    if inlet == 0 or not lower.all():
        row = 0 if inlet == 0 else 1 + int(np.argmin(lower != 0))
        raise NumericalFailureError(f"element-flux solve failed: the pivot of row {row} is "
                                    "exactly zero (singular matrix)")
    d = _element_differences(lower, upper, rhs)
    a_y = np.empty(len(rhs))
    a_y[0] = (rhs[0] - upper[0] * d[0]) / inlet
    a_y[1:] = d
    np.cumsum(a_y, out=a_y)
    if not np.isfinite(a_y).all():
        raise NumericalFailureError("solution contains non-finite entries "
                                    "(matrix is singular or near-singular)")
    resid = float(np.max(np.abs(system.matmul(a_y) - rhs)))
    norm = system.inf_norm()
    budget = RESIDUAL_RTOL * (norm * float(np.max(np.abs(a_y))) + float(np.max(np.abs(rhs))))
    if not resid <= budget:
        raise NumericalFailureError(
            f"residual {resid:.3e} exceeds budget {budget:.3e}; "
            f"matrix inf-norm {norm:.3e} suggests ill-conditioning")
    return Solution1D(a_y=a_y, b_x=np.divide(d, -system.mesh.dz, out=d), residual=resid)


def rect_pulse_case(pe, dz: float, m_b: int, m_c: int, m_d: int,
                    amplitude: float = 1.0, sigma: float = 1.0, mu: float = 1.0):
    """Canonical validation scenario: mesh, material and pulse aligned with
    the closed-form sub-domain layout (upstream run m_b, plateau m_c,
    downstream run m_d, three-element transitions between).

    The nodal pulse support is node m_b+2 through node m_b+m_c+4; the pulse
    bounds are inset by half an element so node membership is immune to
    floating-point placement of the node coordinates.
    """
    n = m_b + m_c + m_d + 7
    mesh = Mesh1D(dz, n)
    material = material_for_peclet(float(pe), dz, sigma=sigma, mu=mu)
    lo, hi = m_b + 2, m_b + m_c + 4
    profile = RectPulse1D(a=(lo - 0.5) * dz, b=(hi + 0.5) * dz, amplitude=amplitude)
    return mesh, material, profile
