"""Assembly and solution of the 1D discrete system.

Rows are kept in the dz-scaled form whose interior stencil is
(-1-Pe, 2, -1+Pe); the load side carries 2*Pe*dz times the weighted input.
The inlet node is Dirichlet (potential pinned to zero, row replacement);
the outlet keeps the natural zero-gradient row produced by the assembly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import (InvalidArgumentError, Mesh1D, Material, NumericalFailureError,
                   Peclet, RectPulse1D, Scheme, material_for_peclet, peclet_of)

RESIDUAL_RTOL = 1e-10


def input_weights(scheme: Scheme) -> np.ndarray:
    """Three-node weights applied to the nodal input flux density."""
    if scheme is Scheme.GALERKIN:
        return np.array([1.0, 4.0, 1.0]) / 6.0
    return np.array([1.0, 2.0, 1.0]) / 4.0


@dataclass(frozen=True)
class DiscreteSystem1D:
    """Tridiagonal system stored by diagonals (lower, diag, upper) + rhs."""

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    rhs: np.ndarray
    mesh: Mesh1D

    def dense(self) -> np.ndarray:
        n = len(self.diag)
        a = np.zeros((n, n))
        a[np.arange(n), np.arange(n)] = self.diag
        a[np.arange(1, n), np.arange(n - 1)] = self.lower
        a[np.arange(n - 1), np.arange(1, n)] = self.upper
        return a

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
    max-norm residual |A x - b| that the solver accepted (NaN when the
    solution was not produced by solve_1d)."""

    a_y: np.ndarray
    b_x: np.ndarray
    residual: float = float("nan")


def assemble_1d(mesh: Mesh1D, material: Material, profile, scheme: Scheme) -> DiscreteSystem1D:
    """Assemble the dz-scaled tridiagonal system element by element.

    The element-averaged scheme replaces the two nodal input values of each
    element by their mean before integrating the load, which is what folds
    the (Z+1) factor into the discrete input.
    """
    pe = peclet_of(material, mesh.dz).value
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

    # element matrix rows (left node, right node), dz-scaled
    diag[:-1] += 1.0 - pe
    upper[:] += -1.0 + pe
    lower[:] += -1.0 - pe
    diag[1:] += 1.0 + pe

    if scheme is Scheme.GALERKIN:
        f_left = 2.0 * pe * mesh.dz * (bn[:-1] / 3.0 + bn[1:] / 6.0)
        f_right = 2.0 * pe * mesh.dz * (bn[:-1] / 6.0 + bn[1:] / 3.0)
    else:
        b_elem = 0.5 * (bn[:-1] + bn[1:])
        f_left = pe * mesh.dz * b_elem
        f_right = f_left.copy()
    rhs[:-1] += f_left
    rhs[1:] += f_right

    # inlet Dirichlet by row replacement; outlet row stays natural
    diag[0] = 1.0
    upper[0] = 0.0
    rhs[0] = 0.0
    return DiscreteSystem1D(lower=lower, diag=diag, upper=upper, rhs=rhs, mesh=mesh)


def solve_1d(system: DiscreteSystem1D) -> Solution1D:
    """Direct banded solve with a residual acceptance check."""
    n = len(system.diag)
    ab = np.zeros((3, n))
    ab[0, 1:] = system.upper
    ab[1, :] = system.diag
    ab[2, :-1] = system.lower
    try:
        a_y = scipy.linalg.solve_banded((1, 1), ab, system.rhs)
    except scipy.linalg.LinAlgError as err:
        raise NumericalFailureError(f"banded solve failed: {err}")
    if not np.all(np.isfinite(a_y)):
        raise NumericalFailureError("solution contains non-finite entries "
                                    "(matrix is singular or near-singular)")
    resid = float(np.max(np.abs(system.matmul(a_y) - system.rhs)))
    budget = RESIDUAL_RTOL * (system.inf_norm() * float(np.max(np.abs(a_y)))
                              + float(np.max(np.abs(system.rhs))))
    if resid > budget:
        raise NumericalFailureError(
            f"residual {resid:.3e} exceeds budget {budget:.3e}; "
            f"matrix inf-norm {system.inf_norm():.3e} suggests ill-conditioning")
    return Solution1D(a_y=a_y, b_x=reaction_field(a_y, system.mesh), residual=resid)


def reaction_field(solution, mesh: Mesh1D) -> np.ndarray:
    """Per-element reaction flux density -(a_y[e+1] - a_y[e]) / dz."""
    a_y = solution.a_y if isinstance(solution, Solution1D) else np.asarray(solution, dtype=float)
    if len(a_y) != mesh.node_count:
        raise InvalidArgumentError("solution is not sized to the mesh")
    return -np.diff(a_y) / mesh.dz


def peak_spurious_error(solution, reference, amplitude: float) -> float:
    """Max |b_x - b_x,ref| / amplitude over a common sample set."""
    if not amplitude > 0:
        raise InvalidArgumentError("amplitude must be > 0")
    b = solution.b_x if isinstance(solution, Solution1D) else np.asarray(solution, dtype=float)
    b_ref = reference.b_x if isinstance(reference, Solution1D) else np.asarray(reference, dtype=float)
    if b.shape != b_ref.shape:
        raise InvalidArgumentError("solutions must live on a common sample set")
    return float(np.max(np.abs(b - b_ref))) / amplitude


def rect_pulse_case(pe, dz: float, m_b: int, m_c: int, m_d: int,
                    amplitude: float = 1.0, sigma: float = 1.0, mu: float = 1.0):
    """Canonical validation scenario: mesh, material and pulse aligned with
    the closed-form sub-domain layout (upstream run m_b, plateau m_c,
    downstream run m_d, three-element transitions between).

    The nodal pulse support is node m_b+2 through node m_b+m_c+4; the pulse
    bounds are inset by half an element so node membership is immune to
    floating-point placement of the node coordinates.
    """
    pe_v = pe.value if isinstance(pe, Peclet) else float(pe)
    n = m_b + m_c + m_d + 7
    mesh = Mesh1D.from_node_count(dz, n)
    material = material_for_peclet(pe_v, dz, sigma=sigma, mu=mu)
    lo, hi = m_b + 2, m_b + m_c + 4
    profile = RectPulse1D(a=(lo - 0.5) * dz, b=(hi + 0.5) * dz, amplitude=amplitude)
    return mesh, material, profile
