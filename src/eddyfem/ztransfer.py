"""Z-domain machinery: discrete transfer functions of the 1D scheme, the
high-Pe 2D pole-cancellation certificate, pole-zero analysis with exact
cancellation detection, and the named 2D stencil polynomials with their
factorization identities.

tf_2d derives the 2D certificate by Cramer's rule from the exact stencils
of fem2d.exact_patch_rows, which reads the same block table as the float
assembly. polys_2d and the identities document the same stencils by name;
the stencil-equivalence tests tie them to the assembled rows.

Everything here is exact-rational (see zpoly); numeric root-finding happens
only after exact GCD reduction, so a reported cancellation can never be a
floating-point coincidence.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from . import fem2d
from .core import Peclet, Scheme
from .zpoly import (InexactDivisionError, Poly, RationalFunction,
                    gcd_univariate, roots_univariate, separate)

ZN = "Z_n"   # flow direction
ZM = "Z_m"   # transverse direction
Z1 = "Z"     # the single variable of the 1D analysis
_BIVAR = (ZN, ZM)


class SingularNormalizationError(ValueError):
    """Pe = 1 degenerates the denominator normalization; carries the
    unreduced rational function."""

    def __init__(self, message: str, unreduced: RationalFunction):
        super().__init__(message)
        self.unreduced = unreduced


class UnsupportedStructureError(ValueError):
    """Input the analysis cannot handle: a bivariate rational function that
    is not separable, or a 2D transfer function that vanishes for every Pe."""


def _pe_fraction(pe) -> Optional[Fraction]:
    """Exact rational Peclet value; None encodes the high-Pe limit."""
    if pe is None:
        return None
    if isinstance(pe, Peclet):
        pe = pe.value
    if isinstance(pe, float) and math.isinf(pe):
        return None
    return Fraction(pe)


# ---------------------------------------------------------------------------
# named stencil polynomials of the coupled 2D discrete system


def polys_2d() -> Dict[str, Poly]:
    """The eight interior-stencil polynomials of the coupled 2D system,
    keyed by their conventional short names.

    Exponent tuples are (power of Z_n, power of Z_m). These coefficient
    lists are cross-checked against the assembled finite-element rows by
    the stencil-equivalence tests.
    """
    def P(d):
        return Poly(_BIVAR, {k: Fraction(v) for k, v in d.items()})

    return {
        # 9-point Laplacian stencil (row sums vanish at (1,1))
        "S1": P({(2, 2): 1, (1, 2): 1, (0, 2): 1, (2, 1): 1, (1, 1): -8,
                 (0, 1): 1, (2, 0): 1, (1, 0): 1, (0, 0): 1}),
        # z-derivative stencil, mass-weighted across y
        "Q2": P({(2, 2): 1, (0, 2): -1, (2, 1): 4, (0, 1): -4, (2, 0): 1, (0, 0): -1}),
        # mixed yz cross-derivative stencil
        "S2": P({(2, 2): 1, (0, 2): -1, (2, 0): -1, (0, 0): 1}),
        # y-stiffness stencil, mass-weighted across z
        "S3": P({(2, 2): 1, (1, 2): 4, (0, 2): 1, (2, 1): -2, (1, 1): -8,
                 (0, 1): -2, (2, 0): 1, (1, 0): 4, (0, 0): 1}),
        # y-derivative stencil, mass-weighted across z
        "Q1": P({(2, 2): 1, (1, 2): 4, (0, 2): 1, (2, 0): -1, (1, 0): -4, (0, 0): -1}),
        # consistent-mass load stencil (nodal input)
        "M1": P({(2, 2): 1, (1, 2): 4, (0, 2): 1, (2, 1): 4, (1, 1): 16,
                 (0, 1): 4, (2, 0): 1, (1, 0): 4, (0, 0): 1}),
        # load stencils of the element-averaged input
        "R1": P({(2, 2): 1, (1, 2): 2, (0, 2): 1, (2, 0): -1, (1, 0): -2, (0, 0): -1}),
        "N1": P({(2, 2): 1, (1, 2): 2, (0, 2): 1, (2, 1): 2, (1, 1): 4,
                 (0, 1): 2, (2, 0): 1, (1, 0): 2, (0, 0): 1}),
    }


def _zn(coeffs_ascending) -> Poly:
    return Poly.univariate(ZN, coeffs_ascending)


def _zm(coeffs_ascending) -> Poly:
    return Poly.univariate(ZM, coeffs_ascending)


ZN_QUAD = _zn([1, 4, 1])          # Z_n^2 + 4 Z_n + 1
ZN_SQUARE_PLUS = _zn([1, 2, 1])   # (Z_n + 1)^2
ZN_CIRCLE = _zn([-1, 0, 1])       # (Z_n - 1)(Z_n + 1)


def transverse_denominator_poly() -> Poly:
    """-(Z_m - 1)^4, the transverse cofactor of the eliminated denominator."""
    return -((_zm([-1, 1])) ** 4)


def transverse_numerator_poly_galerkin() -> Poly:
    """2(Z_m^2-2Z_m+1)(Z_m^2+4Z_m+1) - 3(Z_m^2-1)^2, the transverse cofactor
    of the eliminated consistent-mass numerator (expands to -(Z_m-1)^4)."""
    return (_zm([1, -2, 1]) * _zm([1, 4, 1])) * 2 - (_zm([-1, 0, 1]) ** 2) * 3


# ---------------------------------------------------------------------------
# 1D transfer function


def tf_1d(scheme: Scheme, pe, dz) -> RationalFunction:
    """Exact 1D transfer function from input flux density to nodal potential.

    ``pe`` may be a Peclet, a number, ``math.inf`` or None; the last two
    select the high-Pe limit computed by degree dominance. The denominator
    is kept in the unnormalized form (Pe-1) Z^2 + 2 Z - (1+Pe), whose roots
    are 1 and (-1-Pe)/(-1+Pe).
    """
    pef = _pe_fraction(pe)
    dzf = Fraction(dz)
    if scheme is Scheme.GALERKIN:
        shape = Poly.univariate(Z1, [1, 4, 1])
        weight_scale = Fraction(1, 3)
    else:
        shape = Poly.univariate(Z1, [1, 2, 1])
        weight_scale = Fraction(1, 2)

    if pef is None:  # high-Pe limit: divide by Pe and drop vanishing terms
        num = shape * (dzf * weight_scale)
        den = Poly.univariate(Z1, [-1, 0, 1])
        return RationalFunction(num, den)

    num = shape * (pef * dzf * weight_scale)
    den = Poly.univariate(Z1, [-(1 + pef), 2, pef - 1])
    rf = RationalFunction(num, den)
    if pef == 1:
        raise SingularNormalizationError(
            "Pe = 1 makes the denominator normalization singular "
            "(leading coefficient Pe - 1 vanishes)", rf)
    return rf


# ---------------------------------------------------------------------------
# pole-zero analysis


class Stability(enum.Enum):
    STABLE = "stable"
    MARGINALLY_STABLE = "marginally-stable"
    OSCILLATORY_MARGINAL = "oscillatory-marginal"
    UNSTABLE = "unstable"


@dataclass(frozen=True)
class Root:
    variable: str
    location: complex
    multiplicity: int
    exact: bool = False


@dataclass(frozen=True)
class PoleZeroReport:
    poles: Tuple[Root, ...]
    zeros: Tuple[Root, ...]
    classification: Stability
    cancelled_pairs: Tuple[Root, ...]


_UNIT_TOL = 1e-9


def _classify(poles: List[Root]) -> Stability:
    if any(abs(p.location) > 1 + _UNIT_TOL for p in poles):
        return Stability.UNSTABLE
    on_circle = [p for p in poles if abs(abs(p.location) - 1) <= _UNIT_TOL]
    if any(p.exact and p.location == -1 for p in on_circle):
        return Stability.OSCILLATORY_MARGINAL
    if on_circle:
        return Stability.MARGINALLY_STABLE
    return Stability.STABLE


def _analyze_univariate(num: Poly, den: Poly, varname: str) -> Tuple[List[Root], List[Root], List[Root]]:
    var = num.variables[0]
    cancelled: List[Root] = []
    if num.is_zero():
        num_red, den_red = num, den
    else:
        g = gcd_univariate(num, den)
        if g.degree() > 0:
            cancelled = [Root(varname, loc, mult, exact)
                         for loc, mult, exact in roots_univariate(g)]
            num_red = num.exact_div(g, var)
            den_red = den.exact_div(g, var)
        else:
            num_red, den_red = num, den
    zeros = [Root(varname, loc, mult, exact) for loc, mult, exact in roots_univariate(num_red)]
    poles = [Root(varname, loc, mult, exact) for loc, mult, exact in roots_univariate(den_red)]
    return poles, zeros, cancelled


def analyze(rf: RationalFunction) -> PoleZeroReport:
    """Pole-zero report with exact cancellation detection.

    Univariate input is reduced by exact GCD first; bivariate input must be
    separable (numerator and denominator each a product of univariate
    parts), and each variable is analyzed on its own unit circle.
    """
    num, den = rf.numerator, rf.denominator
    if len(num.variables) == 1:
        poles, zeros, cancelled = _analyze_univariate(num, den, num.variables[0])
    else:
        dsep = separate(den)
        if dsep is None:
            raise UnsupportedStructureError("denominator is not separable")
        if num.is_zero():
            nsep = (Poly.zero((ZN,)), Poly.zero((ZM,)))
        else:
            nsep = separate(num)
            if nsep is None:
                raise UnsupportedStructureError("numerator is not separable")
        poles, zeros, cancelled = [], [], []
        for n_part, d_part, name in ((nsep[0], dsep[0], ZN), (nsep[1], dsep[1], ZM)):
            p, z, c = _analyze_univariate(n_part, d_part, name)
            poles += p
            zeros += z
            cancelled += c
    return PoleZeroReport(tuple(poles), tuple(zeros), _classify(poles), tuple(cancelled))


# ---------------------------------------------------------------------------
# exact factorization identities


@dataclass
class IdentityReport:
    """Outcome of one exact polynomial identity check."""

    name: str
    ok: bool
    statements: List[str] = field(default_factory=list)
    difference: Optional[Poly] = None
    cofactor: Optional[Poly] = None

    def render(self) -> str:
        head = f"[{'PASS' if self.ok else 'FAIL'}] {self.name}"
        body = "\n".join(f"    {s}" for s in self.statements)
        out = head + ("\n" + body if body else "")
        if self.difference is not None and not self.difference.is_zero():
            out += "\n    nonzero difference polynomial:\n" + self.difference.coeff_lines()
        if self.cofactor is not None:
            out += "\n    derived transverse cofactor:\n" + self.cofactor.coeff_lines()
        return out


def verify_identity_denominator(polys: Optional[Dict[str, Poly]] = None) -> IdentityReport:
    """Prove 2*S3*Q2 - 3*Q1*S2 == (Z_n^2+4Z_n+1)(Z_n^2-1) * (-(Z_m-1)^4)
    by exact expansion of the difference."""
    P = polys or polys_2d()
    lhs = P["S3"] * P["Q2"] * 2 - P["Q1"] * P["S2"] * 3
    rhs = (ZN_QUAD.map_variables(_BIVAR, 0) * ZN_CIRCLE.map_variables(_BIVAR, 0)
           * transverse_denominator_poly().map_variables(_BIVAR, 1))
    diff = lhs - rhs
    rep = IdentityReport("denominator factorization", diff.is_zero())
    rep.statements.append(f"lhs expansion: {lhs.term_count()} terms; "
                          f"rhs expansion: {rhs.term_count()} terms")
    spot = {ZN: Fraction(2), ZM: Fraction(3)}
    rep.statements.append(
        f"spot value at (Z_n, Z_m) = (2, 3): lhs = {lhs.eval(**spot)}, rhs = {rhs.eval(**spot)}")
    rep.statements.append(
        f"spot value at Z_n = 1: lhs = {lhs.eval(Z_n=1, Z_m=7)} (factor Z_n^2-1)")
    if diff.is_zero():
        rep.statements.append("difference expands to the zero polynomial (exact)")
    else:
        rep.difference = diff
    return rep


def verify_identity_galerkin_numerator(polys: Optional[Dict[str, Poly]] = None) -> IdentityReport:
    """Prove 2*S3*M1 - 3*Q1^2 == (Z_n^2+4Z_n+1)^2 * f1(Z_m) with
    f1 = 2(Z_m^2-2Z_m+1)(Z_m^2+4Z_m+1) - 3(Z_m^2-1)^2, and record that f1
    expands to -(Z_m-1)^4, i.e. it equals the denominator cofactor (the
    transverse parts cancel in the consistent-mass transfer ratio)."""
    P = polys or polys_2d()
    lhs = P["S3"] * P["M1"] * 2 - P["Q1"] * P["Q1"] * 3
    f1 = transverse_numerator_poly_galerkin()
    rhs = ((ZN_QUAD * ZN_QUAD).map_variables(_BIVAR, 0) * f1.map_variables(_BIVAR, 1))
    diff = lhs - rhs
    rep = IdentityReport("consistent-mass numerator factorization", diff.is_zero())
    rep.statements.append(f"lhs expansion: {lhs.term_count()} terms; "
                          f"rhs expansion: {rhs.term_count()} terms")
    rep.cofactor = f1
    agrees = f1 == transverse_denominator_poly()
    rep.statements.append("factored transverse cofactor expands to -(Z_m-1)^4: "
                          + ("yes (equals the denominator cofactor)" if agrees else "NO"))
    if not diff.is_zero():
        rep.difference = diff
    return rep


def verify_n1_factorization(polys: Optional[Dict[str, Poly]] = None) -> IdentityReport:
    """Confirm N1 == (Z_n+1)^2 (Z_m+1)^2 coefficient by coefficient."""
    P = polys or polys_2d()
    built = (ZN_SQUARE_PLUS.map_variables(_BIVAR, 0)
             * Poly.univariate(ZM, [1, 2, 1]).map_variables(_BIVAR, 1))
    diff = P["N1"] - built
    rep = IdentityReport("N1 factorization", diff.is_zero())
    if diff.is_zero():
        rep.statements.append("N1 equals (Z_n+1)^2 (Z_m+1)^2 exactly")
    else:
        rep.statements.append("N1 does NOT equal (Z_n+1)^2 (Z_m+1)^2")
        rep.difference = diff
    return rep


def run_identity_checks(polys: Optional[Dict[str, Poly]] = None) -> List[IdentityReport]:
    """All factorization identity checks; ``polys`` is an override hook used
    by negative-control tests."""
    return [
        verify_identity_denominator(polys),
        verify_identity_galerkin_numerator(polys),
        verify_n1_factorization(polys),
    ]


# ---------------------------------------------------------------------------
# 2D transfer function (high-Pe limit), derived from the assembled stencils


# Every stencil entry and input weight is affine in Pe (each BLOCK_TABLE term
# carries mu*sigma = 2 Pe / u at most once), so det A and its Cramer
# numerator have Pe-degree <= 3: four exact samples determine them.
_PE_SAMPLES = (2, 3, 5, 7)


def _pe_leading(samples: List[Poly]) -> Tuple[Poly, int]:
    """Leading nonzero Pe coefficient, and its degree, of the polynomial in
    Pe that takes the values ``samples`` at _PE_SAMPLES (exact Lagrange
    interpolation)."""
    bases = []   # ascending Pe coefficients of the Lagrange basis of each sample
    for xi in _PE_SAMPLES:
        basis = [Fraction(1)]
        for xj in _PE_SAMPLES:
            if xj != xi:
                basis = [(a - xj * b) / (xi - xj) for a, b in zip([0] + basis, basis + [0])]
        bases.append(basis)
    for degree in reversed(range(len(_PE_SAMPLES))):
        coeff = sum((y * b[degree] for y, b in zip(samples, bases)), Poly.zero(_BIVAR))
        if not coeff.is_zero():
            return coeff, degree
    raise UnsupportedStructureError("vanishes identically in Pe")


def _zn_multiplicity(p: Poly, location) -> int:
    """How many times (Z_n - location) divides the nonzero polynomial p,
    counted by repeated exact division."""
    if p.is_zero():
        raise UnsupportedStructureError("the zero polynomial has no finite multiplicity")
    factor, k = _zn([-Fraction(location), 1]), 0
    try:
        while True:
            p = p.exact_div(factor, ZN)
            k += 1
    except InexactDivisionError:
        return k


@dataclass(frozen=True)
class TransferFunction2D:
    """High-Pe limit of the transfer function from the input to A_y at an
    interior node: the leading Pe coefficients of det A (``denominator``)
    and of its Cramer numerator, their Pe-degrees, and the multiplicities
    (denominator, numerator) of the factors (Z_n + 1) and (Z_n - 1), keyed
    by the roots -1 and 1."""

    scheme: Scheme
    numerator: Poly
    denominator: Poly
    numerator_pe_degree: int
    denominator_pe_degree: int
    zn_multiplicities: Dict[int, Tuple[int, int]]

    def has_zn_pole(self, location) -> bool:
        """Exact test: (Z_n - location) divides the leading denominator more
        often than the leading numerator."""
        den, num = self.zn_multiplicities.get(location) or (
            _zn_multiplicity(self.denominator, location),
            _zn_multiplicity(self.numerator, location))
        return den > num


def tf_2d(scheme: Scheme) -> TransferFunction2D:
    """Derive the high-Pe transfer function by Cramer's rule on the exact
    3x3 interior-stencil matrix A of the coupled (phi, A_y, A_z) rows.

    A and the input weights come from fem2d.exact_patch_rows, which reads
    the BLOCK_TABLE of the production assembly (unit spacing, u = 1). The
    denominator is det A, the numerator det A with its A_y column replaced
    by the input-weight stencils. Galerkin keeps the oscillatory Z_n = -1
    pole; the element-averaged input cancels it.
    """
    dets, nums = [], []
    for pe in _PE_SAMPLES:
        lhs, weights = fem2d.exact_patch_rows(pe, 1, scheme, nn=3, nm=3)
        a = [[Poly(_BIVAR, lhs.get((r, c), {})) for c in range(3)] for r in range(3)]
        b = [Poly(_BIVAR, weights.get(r, {})) for r in range(3)]
        # cofactors of the A_y column, shared by det A and the numerator
        cof = [a[1][2] * a[2][0] - a[1][0] * a[2][2],
               a[0][0] * a[2][2] - a[0][2] * a[2][0],
               a[0][2] * a[1][0] - a[0][0] * a[1][2]]
        dets.append(a[0][1] * cof[0] + a[1][1] * cof[1] + a[2][1] * cof[2])
        nums.append(b[0] * cof[0] + b[1] * cof[1] + b[2] * cof[2])
    den, den_degree = _pe_leading(dets)
    num, num_degree = _pe_leading(nums)
    mults = {loc: (_zn_multiplicity(den, loc), _zn_multiplicity(num, loc)) for loc in (-1, 1)}
    return TransferFunction2D(scheme, num, den, num_degree, den_degree, mults)
