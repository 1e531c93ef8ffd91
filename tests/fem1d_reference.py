"""Whole-array reference for the blocked 1D kernel in eddyfem.fem1d.

These are the assembly, product and solve bodies that worked on every node
at once, with a full-length array for each temporary. The blocked kernel
must give the same rhs, a_y, b_x and residual bit for bit, and raise the
same reasons on the same systems."""
import numpy as np

from eddyfem.core import InvalidArgumentError, NumericalFailureError, lapack, peclet_of
from eddyfem.fem1d import (ELEMENT_WEIGHTS, LOAD_SCALE, RESIDUAL_RTOL, DiscreteSystem1D,
                           Solution1D, _rows)


def assemble_1d(mesh, material, profile, scheme):
    pe = peclet_of(material, mesh.dz)
    try:
        bn = np.asarray(profile.sample(mesh.nodes()), dtype=float)
    except (AttributeError, TypeError) as err:
        raise InvalidArgumentError(f"profile cannot be sampled on the mesh: {err}")
    if bn.shape != (mesh.node_count,):
        raise InvalidArgumentError("profile samples do not match the mesh nodes")
    load = (LOAD_SCALE[0] + LOAD_SCALE[1] * pe) * mesh.dz
    rhs = np.zeros(mesh.node_count)
    force = np.empty(mesh.element_count)
    term = np.empty(mesh.element_count)
    for rows, (w0, w1) in zip((rhs[:-1], rhs[1:]), ELEMENT_WEIGHTS[scheme]):
        np.divide(bn[:-1], w0.denominator, out=force)
        force += np.divide(bn[1:], w1.denominator, out=term)
        force *= load
        rows += force
    rhs[0] = 0.0
    return DiscreteSystem1D(element=tuple(map(tuple, _rows(pe))), rhs=rhs, mesh=mesh)


def matmul(system, x):
    """A x, each row summed diagonal term first, then lower, then upper."""
    lower, mid, upper, outlet = system._coefficients()
    y = np.multiply(x, mid)
    y[0], y[-1] = x[0], outlet * x[-1]
    term = np.multiply(x[:-1], lower)
    y[1:] += term
    np.multiply(x[1:], upper, out=term)
    term[0] = 0.0 * x[1]
    y[:-1] += term
    return y


def solve_1d(system):
    lower, mid, upper, outlet = system._coefficients()
    rhs = system.rhs
    if not np.isfinite((lower, mid, upper, outlet)).all():
        raise NumericalFailureError("1D system matrix has non-finite entries")
    if not np.isfinite(rhs).all():
        raise NumericalFailureError("1D system right-hand side has non-finite entries")
    if lower == 0:
        raise NumericalFailureError("element-flux solve failed: the pivot of row 1 is "
                                    "exactly zero (singular matrix)")
    ab = np.empty((2, len(rhs) - 1), order="F")
    ab[0, 1:] = -(upper / lower)
    d = np.divide(rhs[1:], -lower)
    d, info = lapack().dtbtrs(ab, d, uplo="U", diag="U", overwrite_b=1)
    if info != 0:
        raise NumericalFailureError(f"element-flux solve failed: LAPACK dtbtrs info {info}")
    a_y = np.empty(len(rhs))
    a_y[0] = rhs[0]
    a_y[1:] = d
    np.cumsum(a_y, out=a_y)
    if not np.isfinite(a_y).all():
        raise NumericalFailureError("solution contains non-finite entries "
                                    "(matrix is singular or near-singular)")
    r = matmul(system, a_y)
    r -= rhs
    resid = float(np.abs(r, out=r).max())
    norm = system.inf_norm()
    budget = RESIDUAL_RTOL * (norm * float(np.max(np.abs(a_y))) + float(np.max(np.abs(rhs))))
    if not resid <= budget:
        raise NumericalFailureError(
            f"residual {resid:.3e} exceeds budget {budget:.3e}; "
            f"matrix inf-norm {norm:.3e} suggests ill-conditioning")
    return Solution1D(a_y=a_y, b_x=np.divide(d, -system.mesh.dz, out=d), residual=resid)
