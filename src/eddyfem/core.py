"""Shared domain types: materials, meshes, applied-field profiles, the
checks of an element's Peclet number and length, the reference integrals of
the one element of both dimensions; and the LAPACK module the 2D solver calls.

The 1D solver takes the element Peclet number itself, the number that the
Z-domain analyzer and the closed forms read. The 2D rows read u_z and
mu*sigma apart, so the 2D solver takes a Material (material_for_peclet).
"""
from __future__ import annotations

import enum
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


class InvalidArgumentError(ValueError):
    """Raised when a domain object would violate its invariants."""


class NumericalFailureError(RuntimeError):
    """A linear solve produced an unusable result (singular system, NaNs,
    or a residual beyond the accepted budget)."""


_FLAPACK = "scipy.linalg._flapack"


def lapack():
    """scipy's compiled LAPACK module, loaded without the scipy.linalg package.

    Only the 2D solver calls it, for dgbtrf and dgbtrs, which
    scipy.linalg.lapack re-exports from this f2py module. Importing
    scipy.linalg would also run its array_api_compat clone of numpy, which
    loads numpy.testing and numpy.f2py. The extension is loaded under its
    own name, so a later ``import scipy.linalg`` reuses it, and both paths
    call the same objects.
    """
    module = sys.modules.get(_FLAPACK)
    if module is None:
        import importlib.machinery
        import importlib.util

        # find_spec of a top-level name locates scipy without importing it
        linalg = os.path.join(importlib.util.find_spec("scipy").submodule_search_locations[0],
                              "linalg")
        spec = importlib.machinery.FileFinder(
            linalg, (importlib.machinery.ExtensionFileLoader,
                     importlib.machinery.EXTENSION_SUFFIXES)).find_spec(_FLAPACK)
        module = importlib.util.module_from_spec(spec)
        sys.modules[_FLAPACK] = module
        spec.loader.exec_module(module)
    return module


# Exact integrals over [0, 1] of the linear pair N = (1 - t, t): [i][j] is
# int N_i N_j ("mass"), int N_i' N_j' ("stiffness") or int N_i N_j'
# ("convection"), and "integral"[i] is int N_i. fem1d's element rows and
# loads and every block of fem2d.elemental_blocks are read off them.
REFERENCE_INTEGRALS = {
    "mass": ((Fraction(1, 3), Fraction(1, 6)), (Fraction(1, 6), Fraction(1, 3))),
    "stiffness": ((Fraction(1), Fraction(-1)), (Fraction(-1), Fraction(1))),
    "convection": ((Fraction(-1, 2), Fraction(1, 2)),) * 2,
    "integral": (Fraction(1, 2),) * 2,
}


class Scheme(enum.Enum):
    """Input-restatement scheme used on the right-hand side of the assembly."""

    GALERKIN = "galerkin"
    ELEMENT_AVERAGED = "averaged"


@dataclass(frozen=True)
class Material:
    """Conductor properties and rectilinear velocity.

    sigma : electrical conductivity (S/m), finite and > 0
    mu    : magnetic permeability (H/m), finite and > 0
    u_z   : conductor velocity along z (m/s), finite and >= 0
    """

    sigma: float
    mu: float
    u_z: float

    def __post_init__(self):
        if not 0 < self.sigma < math.inf:
            raise InvalidArgumentError(f"sigma must be finite and > 0, got {self.sigma}")
        if not 0 < self.mu < math.inf:
            raise InvalidArgumentError(f"mu must be finite and > 0, got {self.mu}")
        if not 0 <= self.u_z < math.inf:
            raise InvalidArgumentError(f"u_z must be finite and >= 0, got {self.u_z}")


def _check_dz(dz: float) -> None:
    if not 0 < dz < math.inf:
        raise InvalidArgumentError(f"dz must be finite and > 0, got {dz}")


def _check_pe(pe: float) -> None:
    if not 0 <= pe < math.inf:
        raise InvalidArgumentError(f"pe must be finite and >= 0, got {pe}")


def material_for_peclet(pe: float, dz: float, sigma: float = 1.0, mu: float = 1.0) -> Material:
    """Material whose velocity realizes the requested Peclet number on dz."""
    _check_dz(dz)
    _check_pe(pe)
    musig_dz = mu * sigma * dz
    if not musig_dz < math.inf:   # an infinite product would give u_z = 0 and Pe = NaN
        raise InvalidArgumentError(f"mu*sigma*dz must be finite, got {mu}*{sigma}*{dz}")
    return Material(sigma=sigma, mu=mu, u_z=2.0 * pe / musig_dz)


@dataclass(frozen=True)
class Mesh1D:
    """Uniform 1D node line of node_count nodes dz apart."""

    dz: float
    node_count: int

    def __post_init__(self):
        if self.node_count < 3:
            raise InvalidArgumentError(f"node_count must be >= 3, got {self.node_count}")
        _check_dz(self.dz)

    @classmethod
    def from_length(cls, length: float, dz: float) -> "Mesh1D":
        return cls(dz=dz, node_count=int(round(length / dz)) + 1)

    def nodes(self) -> np.ndarray:
        # node indices stay exact in float64, so k*dz keeps its rounding
        z = np.arange(self.node_count, dtype=float)
        z *= self.dz
        return z

    @property
    def element_count(self) -> int:
        return self.node_count - 1


@dataclass(frozen=True)
class Mesh2D:
    """Structured quadrilateral grid: uniform spacing dz along the flow (z),
    per-row heights along y (grading allowed).

    nz : node columns along z; the ny = len(row_heights) + 1 node rows run along y.
    z0, y0 : coordinates of the first node column / row.
    """

    nz: int
    dz: float
    row_heights: tuple
    z0: float = 0.0
    y0: float = 0.0

    def __post_init__(self):
        if self.nz < 3 or self.ny < 3:
            raise InvalidArgumentError(f"nz and ny must be >= 3, got {self.nz}, {self.ny}")
        _check_dz(self.dz)
        if any(not h > 0 for h in self.row_heights):
            raise InvalidArgumentError("all row heights must be > 0")
        object.__setattr__(self, "row_heights", tuple(float(h) for h in self.row_heights))

    @classmethod
    def uniform(cls, nz: int, ny: int, dz: float, dy: float,
                z0: float = 0.0, y0: float = 0.0) -> "Mesh2D":
        return cls(nz=nz, dz=dz, row_heights=(dy,) * (ny - 1), z0=z0, y0=y0)

    @property
    def ny(self) -> int:
        return len(self.row_heights) + 1

    def node_z(self) -> np.ndarray:
        return self.z0 + np.arange(self.nz) * self.dz

    def node_y(self) -> np.ndarray:
        return self.y0 + np.concatenate([[0.0], np.cumsum(self.row_heights)])

    @property
    def node_count(self) -> int:
        return self.nz * self.ny


@dataclass(frozen=True)
class RectPulse1D:
    """B = amplitude for a <= z <= b, else 0."""

    a: float
    b: float
    amplitude: float

    def __post_init__(self):
        if not self.b > self.a:
            raise InvalidArgumentError(f"pulse needs b > a, got [{self.a}, {self.b}]")

    def sample(self, z, y=0.0):
        z = np.asarray(z, dtype=float)
        out = np.where((z >= self.a) & (z <= self.b), self.amplitude, 0.0)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class RectPulse2D:
    """B = amplitude for |z| <= a and |y| <= b_extent, else 0."""

    a: float
    b_extent: float
    amplitude: float

    def __post_init__(self):
        if not (self.a > 0 and self.b_extent > 0):
            raise InvalidArgumentError("pulse extents must be > 0")

    def sample(self, z, y=0.0):
        z = np.asarray(z, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.where((np.abs(z) <= self.a) & (np.abs(y) <= self.b_extent),
                       self.amplitude, 0.0)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class SmoothCircle2D:
    """B = amplitude inside radius, Gaussian falloff exp(-((r-R)/0.5R)^2) outside."""

    radius: float
    amplitude: float

    def __post_init__(self):
        if not self.radius > 0:
            raise InvalidArgumentError(f"radius must be > 0, got {self.radius}")

    def sample(self, z, y=0.0):
        z = np.asarray(z, dtype=float)
        y = np.asarray(y, dtype=float)
        r = np.sqrt(z * z + y * y)
        tail = self.amplitude * np.exp(-(((r - self.radius) / (0.5 * self.radius)) ** 2))
        out = np.where(r <= self.radius, self.amplitude, tail)
        return out if out.ndim else float(out)
