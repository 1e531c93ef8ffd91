"""Closed-form solution of the 1D interior difference equation for a
rectangular-pulse input, used as exact ground truth for the 1D solver.

The node line splits into five sub-domains: upstream of the pulse (B), the
three-element rising transition of the weighted input (F), the plateau (C),
the three-element falling transition (G) and the downstream run (D). Each
sub-domain solution is a constant plus a multiple of r^n (with
r = (-1-Pe)/(-1+Pe)) plus a particular part; the particular parts are a
linear ramp on the plateau and quartics on the transitions, with scheme-
specific coefficients. The constants follow from the boundary conditions
and from enforcing the difference equation at the junction nodes.

|r| > 1 for Pe > 1, so naive evaluation of c * r^n overflows for long
domains. All evaluators therefore anchor the growing mode at the downstream
end of its sub-domain and only ever form non-positive powers of r.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Tuple

import numpy as np

from .core import InvalidArgumentError, Scheme

TRANSITION_SPAN = 3  # elements spanned by each input transition


class OutOfValidityError(ValueError):
    """Closed form requires Pe > 1 (r well-defined with |r| > 1)."""


def _particulars(scheme: Scheme, r: float, lam: float) -> Tuple[Callable, Callable]:
    """Quartic particular solutions on the rising (F) and falling (G)
    transitions; scheme-specific because the input weights differ."""
    if scheme is Scheme.GALERKIN:
        c4 = lam / 24
        c3 = lam * (r - 2) / (6 * (r - 1))
        c2 = lam * (r * r - 5) / (8 * (r - 1) ** 2)
        c1f = -lam * (r ** 3 - 10 * r * r + 17 * r + 4) / (12 * (r - 1) ** 3)
        c1g = lam * (13 * r ** 3 - 46 * r * r + 53 * r - 8) / (12 * (r - 1) ** 3)
    else:
        c4 = lam / 48
        c3 = lam * (r - 2) / (12 * (r - 1))
        c2 = lam * (7 * r * r - 8 * r - 11) / (48 * (r - 1) ** 2)
        c1f = lam * (r ** 3 + 8 * r * r - 19 * r - 2) / (24 * (r - 1) ** 3)
        c1g = lam * (23 * r ** 3 - 80 * r * r + 91 * r - 22) / (24 * (r - 1) ** 3)

    def y_pf(n: float) -> float:
        return -c4 * n ** 4 + c3 * n ** 3 + c2 * n * n + c1f * n

    def y_pg(n: float) -> float:
        return c4 * n ** 4 - c3 * n ** 3 - c2 * n * n + c1g * n

    return y_pf, y_pg


@dataclass(frozen=True)
class AnalyticParams:
    """Inputs of the closed form: growth ratio r, load scale lam = B*dz,
    sub-domain node counts and the scheme."""

    r: float
    lam: float
    m_b: int
    m_c: int
    m_d: int
    scheme: Scheme
    amplitude: float
    dz: float


class AnalyticSolution:
    """Piecewise closed-form nodal solution with its junction constants."""

    def __init__(self, params: AnalyticParams):
        p = params
        if p.m_b < 1 or p.m_c < 1 or p.m_d < 1:
            raise InvalidArgumentError("sub-domain counts must be >= 1")
        self.params = p
        r, lam = p.r, p.lam
        y_pf, y_pg = _particulars(p.scheme, r, lam)
        self._y_pf, self._y_pg = y_pf, y_pg
        m = TRANSITION_SPAN

        g2 = r * (y_pg(2) - y_pg(3)) / (r ** m * (r - 1))
        # anchored amplitudes: K_c = c2 * r^m_c and K_b = b2 * r^m_b are the
        # values of the growing mode at the downstream end of their domains,
        # finite even when r^m overflows
        K_c = math.fsum([r * (-lam) / (r - 1), g2, y_pg(1) / (r - 1), lam])
        c2 = K_c * r ** (-p.m_c)
        f2 = math.fsum([r * (y_pf(2) - y_pf(3)) / (r - 1), c2,
                        y_pc(1, lam) / (r - 1), lam]) / r ** m
        K_b = f2 + y_pf(1) / (r - 1)
        b2 = K_b * r ** (-p.m_b)
        b1 = -b2
        f1 = b1 + K_b - f2
        c1 = f1 + f2 * r ** m + y_pf(m) - c2
        g1 = c1 + K_c + y_pc(p.m_c, lam) - g2
        d1 = g1 + g2 * r ** m + y_pg(m)

        self._K_b, self._K_c = K_b, K_c
        self.constants: Dict[str, float] = dict(
            b1=b1, b2=b2, f1=f1, f2=f2, c1=c1, c2=c2, g1=g1, g2=g2, d1=d1, d2=0.0)

    # -- piecewise evaluators (local sub-domain indices) ----------------
    def y_b(self, n: int) -> float:
        r = self.params.r
        return self._K_b * (r ** (n - self.params.m_b) - r ** (-self.params.m_b))

    def y_f(self, n: int) -> float:
        c = self.constants
        return c["f1"] + c["f2"] * self.params.r ** n + self._y_pf(n)

    def y_c(self, n: int) -> float:
        c = self.constants
        return c["c1"] + self._K_c * self.params.r ** (n - self.params.m_c) \
            + y_pc(n, self.params.lam)

    def y_g(self, n: int) -> float:
        c = self.constants
        return c["g1"] + c["g2"] * self.params.r ** n + self._y_pg(n)

    def y_d(self, n: int) -> float:
        return self.constants["d1"]

    # -- global view -----------------------------------------------------
    @property
    def node_count(self) -> int:
        p = self.params
        return p.m_b + p.m_c + p.m_d + 2 * TRANSITION_SPAN + 1

    def pulse_node_range(self) -> Tuple[int, int]:
        """Global node indices (inclusive) where the rectangular input is
        nonzero, consistent with the three-node input weighting."""
        p = self.params
        return p.m_b + 2, p.m_b + p.m_c + 4

    def nodal_values(self) -> np.ndarray:
        """y_b ... y_d in global node order. The upstream run, the plateau and
        the downstream run are one numpy expression each; the two
        transitions have TRANSITION_SPAN nodes, which their scalar
        evaluators fill faster than numpy's per-call overhead allows."""
        p, c, m = self.params, self.constants, TRANSITION_SPAN
        n_b, n_c = np.arange(-p.m_b, 1.0), np.arange(1.0, p.m_c + 1)
        r_b = _power(p.r, n_b)   # r_b[0] is r^(-m_b): the inlet value is exactly 0
        return np.concatenate([
            self._K_b * (r_b - r_b[0]),
            [self.y_f(n) for n in range(1, m + 1)],
            c["c1"] + self._K_c * _power(p.r, n_c - p.m_c) + y_pc(n_c, p.lam),
            [self.y_g(n) for n in range(1, m + 1)],
            np.full(p.m_d, c["d1"])])


def _power(r: float, k: np.ndarray) -> np.ndarray:
    """r ** k for integral k, as |r| ** k with the sign of r ** k: numpy's
    power of a negative base takes a scalar path about 8 times slower."""
    return np.where(k % 2, math.copysign(1.0, r), 1.0) * abs(r) ** k


def y_pc(n: float, lam: float) -> float:
    """Particular solution on the plateau: a linear ramp of slope lam."""
    return lam * n


def growth_ratio(pe: float) -> float:
    return (-1.0 - pe) / (-1.0 + pe)


def analytic_solve(pe, dz: float, amplitude: float, m_b: int, m_c: int, m_d: int,
                   scheme: Scheme) -> AnalyticSolution:
    """Closed-form nodal solution for the rectangular-pulse scenario."""
    pev = float(pe)
    if pev <= 1.0:
        raise OutOfValidityError(f"closed form requires Pe > 1, got {pev}")
    if not dz > 0:
        raise InvalidArgumentError(f"dz must be > 0, got {dz}")
    params = AnalyticParams(r=growth_ratio(pev), lam=amplitude * dz,
                            m_b=m_b, m_c=m_c, m_d=m_d,
                            scheme=scheme, amplitude=amplitude, dz=dz)
    return AnalyticSolution(params)


def peak_error(scheme: Scheme, pe, amplitude: float) -> float:
    """Closed-form peak spurious flux-density error at the plateau end.

    Element-averaged: B (1-Pe) / (1+Pe)^3.
    Galerkin:         B (Pe^2-3)(Pe-1) / (3 (Pe+1)^3).

    Both formulas vanish at Pe = 1, the edge of their validity range. An
    exact Fraction Pe gives an exact value; any other Pe is read as a float,
    and the written-out forms above give its bits wherever their numerator
    and denominator are finite. Past that (a float 3 (1 + Pe)^3 overflows
    above Pe ~ 3.9e102) the value is a product of ratios, each finite for
    every float Pe.
    """
    pev = pe if isinstance(pe, Fraction) else float(pe)
    if pev < 1:
        raise OutOfValidityError(f"peak-error formulas require Pe >= 1, got {pev}")
    averaged, q = scheme is Scheme.ELEMENT_AVERAGED, 1 + pev
    try:
        num, den = ((amplitude * (1 - pev), q ** 3) if averaged
                    else (amplitude * (pev * pev - 3) * (pev - 1), 3 * q ** 3))
    except OverflowError:   # a float q ** 3
        num = den = math.inf
    if abs(num) < math.inf and den < math.inf:
        return num / den
    if averaged:
        return amplitude * ((1 - pev) / q) / q / q
    return amplitude * ((pev - 3 / pev) / q) * (pev / q) * ((pev - 1) / q) / 3


def peak_error_from_solution(sol: AnalyticSolution) -> float:
    """The same peak error evaluated from the plateau constants:
    c2 (r^(m_c - 1) - r^(m_c)) / dz, anchored to avoid large powers."""
    p = sol.params
    return sol._K_c * (1.0 / p.r - 1.0) / p.dz
