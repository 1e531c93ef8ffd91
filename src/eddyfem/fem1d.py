"""Assembly and solution of the 1D discrete system.

Rows are kept in the dz-scaled form, read with the input weights off
core.REFERENCE_INTEGRALS, whose tensor products are fem2d's elemental
blocks. The inlet node is Dirichlet (potential pinned to zero, row
replacement); the outlet keeps the natural zero-gradient row produced by
the assembly. The solve is a recurrence over plain Python floats from the
outlet: it loads no scipy, and its bits do not depend on the BLAS or LAPACK
build.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (REFERENCE_INTEGRALS, InvalidArgumentError, Mesh1D, NumericalFailureError,
                   RectPulse1D, Scheme, _check_pe)

RESIDUAL_RTOL = 1e-10


def element_weights(scheme: Scheme):
    """Row i of the element load weighs B_j by int N_i N_j (Galerkin), or by
    int N_i times int N_j, the weight of B_j in the element mean (averaged)."""
    mass, integral = REFERENCE_INTEGRALS["mass"], REFERENCE_INTEGRALS["integral"]
    return mass if scheme is Scheme.GALERKIN else [[i * j for j in integral] for i in integral]


# Row i (0 = left, 1 = right node) of the dz-scaled element has a + b*Pe on
# node j, the stiffness plus Pe times twice the convection, and the load
# 2 Pe dz * sum_j element_weights(scheme)[i][j] * B_j. The float path reads
# (a, b) once, as integers (b*pe is exact where (2*pe)*c would overflow),
# and the weights, unit fractions, as their denominators.
_ROW_COEFFS = [[(int(s), int(2 * c)) for s, c in zip(*rows)]
               for rows in zip(REFERENCE_INTEGRALS["stiffness"], REFERENCE_INTEGRALS["convection"])]
_DIVISORS = {s: [[w.denominator for w in row] for row in element_weights(s)] for s in Scheme}


def _rows(pe):
    return [[a + b * pe for a, b in row] for row in _ROW_COEFFS]


def _fold(rows):
    """Interior-node stencil (nodes n-1, n, n+1) of 2x2 element rows."""
    return rows[1][0], rows[1][1] + rows[0][0], rows[0][1]


def exact_stencil(pe, scheme: Scheme):
    """The interior row, (-1-Pe, 2, -1+Pe), and its load per dz, 2*Pe times
    the input weights, in the arithmetic of pe."""
    return _fold(_rows(pe)), tuple(2 * pe * w for w in _fold(element_weights(scheme)))


@dataclass(frozen=True)
class DiscreteSystem1D:
    """The dz-scaled system on the uniform mesh, held as its float element
    rows ((l00, l01), (l10, l11)) of _rows(Pe) plus the load rhs.

    Row 0 is the Dirichlet unit row, each interior row the fold
    _fold(element) = (l10, l11 + l00, l01), the one that exact_stencil reads,
    and the outlet row (l10, l11). No coefficient array is stored: lower,
    diag and upper build the diagonals on each read.
    """

    element: tuple
    rhs: np.ndarray
    mesh: Mesh1D

    def _coefficients(self):
        """(lower, interior diagonal, upper, outlet diagonal): the interior
        row's _fold of the element rows, then the outlet's own diagonal."""
        return (*_fold(self.element), self.element[1][1])

    @property
    def lower(self) -> np.ndarray:
        return np.full(self.mesh.node_count - 1, self._coefficients()[0])

    @property
    def diag(self) -> np.ndarray:
        _, mid, _, outlet = self._coefficients()
        diag = np.full(self.mesh.node_count, mid)
        diag[0], diag[-1] = 1.0, outlet
        return diag

    @property
    def upper(self) -> np.ndarray:
        upper = np.full(self.mesh.node_count - 1, self._coefficients()[2])
        upper[0] = 0.0
        return upper

    def matmul(self, x: np.ndarray) -> np.ndarray:
        """A x, each row summed diagonal term first, then lower, then upper."""
        lower, mid, upper, outlet = self._coefficients()
        y = np.multiply(x, mid)
        y[0], y[-1] = x[0], outlet * x[-1]
        term = np.multiply(x[:-1], lower)
        y[1:] += term
        np.multiply(x[1:], upper, out=term)
        term[0] = 0.0 * x[1]   # the unit row's upper entry is 0
        y[:-1] += term
        return y

    def inf_norm(self) -> float:
        lower, mid, upper, outlet = map(abs, self._coefficients())
        row, last = mid + lower + upper, outlet + lower
        # Python's max can drop a NaN; the sum of the two row sums keeps it
        return math.nan if math.isnan(row + last) else max(1.0, row, last)


@dataclass(frozen=True)
class Solution1D:
    """Nodal potential, the per-element reaction flux density and the
    max-norm residual |A x - b| that the solver accepted."""

    a_y: np.ndarray
    b_x: np.ndarray
    residual: float


def assemble_1d(mesh: Mesh1D, pe: float, profile, scheme: Scheme) -> DiscreteSystem1D:
    """Assemble the dz-scaled system at the element Peclet number ``pe``:
    the element rows and, element by element, the load.

    The profile is sampled pointwise at the nodes. The element-averaged
    scheme replaces the two nodal input values of each element by their mean
    before integrating the load, which is what folds the (Z+1) factor into
    the discrete input.
    """
    _check_pe(pe)
    try:
        bn = np.asarray(profile.sample(mesh.nodes()), dtype=float)
    except (AttributeError, TypeError) as err:
        raise InvalidArgumentError(f"profile cannot be sampled on the mesh: {err}")
    if bn.shape != (mesh.node_count,):
        raise InvalidArgumentError("profile samples do not match the mesh nodes")
    # dividing by the weights' denominators keeps the rounding of the
    # written-out bn/3, bn/6 and bn/4 the CSVs were made with
    load = 2 * pe * mesh.dz
    rhs = np.zeros(mesh.node_count)
    force = np.empty(mesh.element_count)
    term = np.empty(mesh.element_count)
    for rows, (d0, d1) in zip((rhs[:-1], rhs[1:]), _DIVISORS[scheme]):
        np.divide(bn[:-1], d0, out=force)
        force += np.divide(bn[1:], d1, out=term)
        force *= load
        rows += force

    # inlet Dirichlet by row replacement; outlet row stays natural
    rhs[0] = 0.0
    return DiscreteSystem1D(element=tuple(map(tuple, _rows(pe))), rhs=rhs, mesh=mesh)


def solve_1d(system: DiscreteSystem1D) -> Solution1D:
    """Element-flux solve of the assembled system with a residual acceptance
    check.

    Rows 1..n-1 sum to zero in exact arithmetic, and in floats at every
    shipped Pe. At some Pe their rounded entries do not: the sum is 2^-53 at
    Pe 0.9 and -2^-52 at Pe 1.0004394634841478. The solve reads the rows as
    summing to zero, so in d = diff(a_y) they read
    -lower*d[i-1] + upper*d[i] = rhs[i], the outlet row without its upper
    term. Divided by the pivot -lower, that is a unit upper-bidiagonal system,
    solved from the outlet as the recurrence d[i] = c[i] - step*d[i+1] in
    Python floats, with c the rows' rhs over -lower and step =
    (-1+Pe)/(1+Pe), at most 1 in magnitude for Pe >= 0: no pivoting, and an
    upstream tail that decays to zero instead of sticking at a subnormal
    value. a_y is the running sum of d from the inlet's unit row, and
    b_x = -d/dz. The residual is taken on the full rows: it is the guard on
    that reading, so a system whose rows 1..n-1 are further from summing to
    zero fails its budget rather than passing unnoticed.
    """
    lower, mid, upper, outlet = system._coefficients()
    rhs = system.rhs
    if not all(map(math.isfinite, (lower, mid, upper, outlet))):
        raise NumericalFailureError("1D system matrix has non-finite entries")
    if not np.isfinite(rhs).all():
        raise NumericalFailureError("1D system right-hand side has non-finite entries")
    if lower == 0:
        raise NumericalFailureError("element-flux solve failed: the pivot of row 1 is "
                                    "exactly zero (singular matrix)")
    step = -(upper / lower)
    d = np.divide(rhs[:0:-1], -lower).tolist()   # rows n-1 down to 1
    x = d[0]
    for i in range(1, len(d)):
        x = d[i] - x * step
        d[i] = x
    a_y = np.empty(len(rhs))
    a_y[0] = rhs[0]
    a_y[:0:-1] = d
    del d   # 32 bytes a node, dropped before the residual's arrays
    b_x = np.divide(a_y[1:], -system.mesh.dz)
    np.cumsum(a_y, out=a_y)
    if not np.isfinite(a_y).all():
        raise NumericalFailureError("solution contains non-finite entries "
                                    "(matrix is singular or near-singular)")
    r = system.matmul(a_y)
    r -= rhs
    resid = float(np.abs(r, out=r).max())   # a NaN stays NaN
    norm = system.inf_norm()
    budget = RESIDUAL_RTOL * (norm * float(np.abs(a_y).max()) + float(np.abs(rhs).max()))
    if not resid <= budget:
        raise NumericalFailureError(
            f"residual {resid:.3e} exceeds budget {budget:.3e}; "
            f"matrix inf-norm {norm:.3e} suggests ill-conditioning")
    return Solution1D(a_y=a_y, b_x=b_x, residual=resid)


def flux_rounding_floor(system: DiscreteSystem1D, solution: Solution1D) -> float:
    """The rounding floor of each b_x of solve_1d's ``solution``: the
    residual budget of solve_1d with eps in place of RESIDUAL_RTOL, taken
    on the element-flux rows that the solve reads (d = -dz * b_x, rows
    -lower*d[i-1] + upper*d[i], so ||A||inf * max|x| is
    (|lower| + |upper|) * dz * max|b_x|), carried to d through the inverse
    of their unit upper-bidiagonal form (entries at most 1 in magnitude, so
    at most one per element in a row) and divided by the pivot |lower| and
    by dz."""
    lower, _, upper, _ = system._coefficients()
    dz, count = system.mesh.dz, len(solution.b_x)
    rows = ((abs(lower) + abs(upper)) * dz * float(np.abs(solution.b_x).max())
            + float(np.abs(system.rhs).max()))
    return count * math.ulp(1.0) * rows / (abs(lower) * dz)


def rect_pulse_case(pe, dz: float, m_b: int, m_c: int, m_d: int, amplitude: float = 1.0):
    """Canonical validation scenario: mesh, Pe and pulse aligned with
    the closed-form sub-domain layout (upstream run m_b, plateau m_c,
    downstream run m_d, three-element transitions between).

    The nodal pulse support is node m_b+2 through node m_b+m_c+4; the pulse
    bounds are inset by half an element so node membership is immune to
    floating-point placement of the node coordinates.
    """
    n = m_b + m_c + m_d + 7
    mesh = Mesh1D(dz, n)
    lo, hi = m_b + 2, m_b + m_c + 4
    profile = RectPulse1D(a=(lo - 0.5) * dz, b=(hi + 0.5) * dz, amplitude=amplitude)
    return mesh, float(pe), profile
