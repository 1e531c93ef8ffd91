"""Z-domain machinery: discrete transfer functions of the 1D scheme, the
high-Pe 1D and 2D pole-cancellation certificates (exact multiplicities of
the factors at -1 and +1), pole-zero analysis with exact cancellation
detection, the named 2D stencil polynomials with their factorization
identities, and the exact certificate of the paper's 1D peak-error bound.

Every stencil and input weight here is read from the tables the float
assembly reads, and both dimensions from one element,
core.REFERENCE_INTEGRALS: tf_1d from fem1d.exact_stencil, tf_2d and
polys_2d from fem2d.exact_patch_rows, which folds fem2d.BLOCK_TABLE and
fem2d.LOAD_TABLE exactly with the assembly's own fold, fem2d._fold.

Everything here is exact-rational (see zpoly); numeric root-finding happens
only after exact GCD reduction, so a reported cancellation can never be a
floating-point coincidence.
"""
from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from . import fem1d, fem2d, oracle
from .core import REFERENCE_INTEGRALS, Scheme
from .zpoly import Poly, RationalFunction, gcd_univariate, roots_univariate, separate

ZN = "Z_n"   # flow direction
ZM = "Z_m"   # transverse direction
Z1 = "Z"     # the single variable of the 1D analysis
_BIVAR = (ZN, ZM)
_FIELDS = ("phi", "A_y", "A_z")   # fem2d field order


class SingularNormalizationError(ValueError):
    """Pe = 1 degenerates the denominator normalization; carries the
    unreduced rational function."""

    def __init__(self, message: str, unreduced: RationalFunction):
        super().__init__(message)
        self.unreduced = unreduced


class UnsupportedStructureError(ValueError):
    """Input the analysis cannot handle: a bivariate rational function that
    is not separable, or a 2D transfer function that vanishes for every Pe."""


# ---------------------------------------------------------------------------
# named stencil polynomials of the coupled 2D discrete system


def polys_2d() -> Dict[str, Poly]:
    """The eight interior-stencil polynomials of the coupled 2D system, read
    with fixed scales from the exact assembled patch at Pe = 1, u = 1 (fields
    0 = phi, 1 = A_y, 2 = A_z): S1 Laplacian; Q2, Q1 z- and y-derivative; S2
    yz cross-derivative; S3 y-stiffness; M1 consistent-mass load; N1, R1
    element-averaged loads. Exponents are (power of Z_n, power of Z_m)."""
    (lhs, w_g), (_, w_a) = (fem2d.exact_patch_rows(1, 1, s)
                            for s in (Scheme.GALERKIN, Scheme.ELEMENT_AVERAGED))
    named = {"S1": (-3, lhs[2, 2]), "Q2": (6, lhs[2, 0]), "S2": (4, lhs[0, 1]),
             "S3": (-6, lhs[0, 2]), "Q1": (6, lhs[1, 0]),
             "M1": (18, w_g[1]), "N1": (8, w_a[1]), "R1": (8, w_a[0])}
    return {name: Poly(_BIVAR, stencil) * scale for name, (scale, stencil) in named.items()}


def _zn(coeffs_ascending) -> Poly:
    return Poly.univariate(ZN, coeffs_ascending)


def _zm(coeffs_ascending) -> Poly:
    return Poly.univariate(ZM, coeffs_ascending)


ZN_QUAD = _zn([2, 1]) ** 2 - 3      # Z_n^2 + 4 Z_n + 1, zeros -2 +- sqrt(3)
ZN_SQUARE_PLUS = _zn([1, 1]) ** 2   # (Z_n + 1)^2
ZN_CIRCLE = _zn([-1, 0, 1])         # (Z_n - 1)(Z_n + 1)


def transverse_denominator_poly() -> Poly:
    """-(Z_m - 1)^4, the transverse cofactor of the eliminated denominator."""
    return -((_zm([-1, 1])) ** 4)


def transverse_numerator_poly_galerkin() -> Poly:
    """2(Z_m^2-2Z_m+1)(Z_m^2+4Z_m+1) - 3(Z_m^2-1)^2, the transverse cofactor
    of the eliminated consistent-mass numerator (expands to -(Z_m-1)^4)."""
    return (_zm([-1, 1]) ** 2 * (_zm([2, 1]) ** 2 - 3)) * 2 - (_zm([-1, 0, 1]) ** 2) * 3


# ---------------------------------------------------------------------------
# 1D transfer function


def tf_1d(scheme: Scheme, pe, dz) -> RationalFunction:
    """Exact 1D transfer function from input flux density to nodal potential,
    built from the interior row and load of fem1d.exact_stencil.

    ``pe`` may be a number, or ``math.inf`` for the high-Pe limit: the ratio
    of the Pe coefficients of the load and the row, both affine in Pe
    (_pe_split checks it). The denominator is the unnormalized stencil
    polynomial, whose roots are 1 and the growth ratio r = (-1-Pe)/(-1+Pe).
    """
    def at(p):
        lhs, load = fem1d.exact_stencil(p, scheme)
        return {"load": Poly.univariate(Z1, load) * Fraction(dz), "row": Poly.univariate(Z1, lhs)}

    if pe == math.inf:
        _, slope = _pe_split(at)
        return RationalFunction(slope["load"], slope["row"])
    rf = RationalFunction(*at(Fraction(pe)).values())
    if pe == 1:
        raise SingularNormalizationError("Pe = 1 makes the denominator normalization "
                                         "singular (leading coefficient Pe - 1 vanishes)", rf)
    return rf


def _pe_split(read) -> Tuple[Dict[str, Poly], Dict[str, Poly]]:
    """A0 and A1, A = A0 + Pe*A1, of every named stencil A of read(pe), read
    at Pe = 1 and 2 and checked against the read at Pe = 3. (At Pe = 0
    mu*sigma vanishes, and the A_y-row load with it.)"""
    one, two, three = (read(Fraction(pe)) for pe in (1, 2, 3))
    slope = {name: two[name] - a for name, a in one.items()}
    bent = [name for name, a in three.items() if a - two[name] != slope[name]]
    if bent:
        raise UnsupportedStructureError(f"the {', '.join(bent)} stencil is not affine in Pe")
    return {name: a - slope[name] for name, a in one.items()}, slope


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
    roots = lambda p: [Root(varname, *root) for root in roots_univariate(p)]
    g = None if num.is_zero() else gcd_univariate(num, den)
    if g is None or g.degree() == 0:
        return roots(den), roots(num), []
    var = num.variables[0]
    return roots(den.exact_div(g, var)), roots(num.exact_div(g, var)), roots(g)


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
        nsep = (Poly.zero((ZN,)), Poly.zero((ZM,))) if num.is_zero() else separate(num)
        if nsep is None:
            raise UnsupportedStructureError("numerator is not separable")
        parts = [_analyze_univariate(*args) for args in zip(nsep, dsep, (ZN, ZM))]
        poles, zeros, cancelled = ([r for part in parts for r in part[k]] for k in range(3))
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


def run_identity_checks() -> List[IdentityReport]:
    """Prove three identities of one polys_2d extraction by exact expansion:
    2*S3*Q2 - 3*Q1*S2 == (Z_n^2+4Z_n+1)(Z_n^2-1) * (-(Z_m-1)^4);
    2*S3*M1 - 3*Q1^2 == (Z_n^2+4Z_n+1)^2 * f1(Z_m), where f1 expands to the
    same -(Z_m-1)^4 (the transverse parts cancel in the consistent-mass
    transfer ratio); and N1 == (Z_n+1)^2 (Z_m+1)^2."""
    p = polys_2d()
    quad, circle = (q.map_variables(_BIVAR, 0) for q in (ZN_QUAD, ZN_CIRCLE))
    f1 = transverse_numerator_poly_galerkin()
    identities = (
        ("denominator factorization", p["S3"] * p["Q2"] * 2 - p["Q1"] * p["S2"] * 3,
         quad * circle * transverse_denominator_poly().map_variables(_BIVAR, 1)),
        ("consistent-mass numerator factorization", p["S3"] * p["M1"] * 2 - p["Q1"] * p["Q1"] * 3,
         quad * quad * f1.map_variables(_BIVAR, 1)),
        ("N1 factorization", p["N1"],
         ZN_SQUARE_PLUS.map_variables(_BIVAR, 0) * (_zm([1, 1]) ** 2).map_variables(_BIVAR, 1)),
    )
    reports = []
    for name, lhs, rhs in identities:
        diff = lhs - rhs
        reports.append(IdentityReport(name, diff.is_zero(), [
            f"lhs expansion: {lhs.term_count()} terms; rhs expansion: {rhs.term_count()} terms; "
            f"the difference is {'' if diff.is_zero() else 'NOT '}the zero polynomial"],
            None if diff.is_zero() else diff))
    reports[1].cofactor = f1
    reports[1].statements.append("factored transverse cofactor expands to -(Z_m-1)^4: " + (
        "yes (equals the denominator cofactor)" if f1 == transverse_denominator_poly() else "NO"))
    return reports


# ---------------------------------------------------------------------------
# 2D transfer function (high-Pe limit), derived from the assembled stencils


def _det_pe_leading(m0, m1) -> Tuple[Poly, int]:
    """Leading nonzero Pe coefficient, and its Pe-degree, of det(m0 + Pe*m1)
    for 3x3 matrices of Polys. The determinant is linear in each row, so its
    Pe^k coefficient is the sum of the determinants that take k rows from m1
    and the others from m0 (none of them a zero row of m1)."""
    def det(m):
        (a, b, c), (d, e, f), (g, h, i) = m
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)

    live = [r for r in range(3) if not all(p.is_zero() for p in m1[r])]
    for k in range(len(live), -1, -1):
        coeff = sum((det([m1[r] if r in rows else m0[r] for r in range(3)])
                     for rows in itertools.combinations(live, k)), Poly.zero(_BIVAR))
        if not coeff.is_zero():
            return coeff, k
    raise UnsupportedStructureError("vanishes identically in Pe")


def _multiplicity(p: Poly, location) -> int:
    """How many times (v - location) divides the nonzero polynomial p, v its
    first variable (Z in 1D, Z_n in 2D): the number of its successive
    v-derivatives, p itself first, that vanish at v = location."""
    if p.is_zero():
        raise UnsupportedStructureError("the zero polynomial has no finite multiplicity")
    var, k = p.variables[0], 0
    while sum(c * location ** e for e, c in enumerate(p.as_univariate_in(var))).is_zero():
        p, k = p.derivative(var), k + 1
    return k


def _multiplicities(den: Poly, num: Poly) -> Dict[int, Tuple[int, int]]:
    """(denominator, numerator) multiplicities of (v + 1) and (v - 1),
    keyed by the roots -1 and 1."""
    return {loc: (_multiplicity(den, loc), _multiplicity(num, loc)) for loc in (-1, 1)}


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
        return _multiplicity(self.denominator, location) > _multiplicity(self.numerator, location)


def tf_2d(scheme: Scheme) -> TransferFunction2D:
    """Derive the high-Pe transfer function by Cramer's rule on the exact
    3x3 interior-stencil matrix A of the coupled (phi, A_y, A_z) rows.

    A and the input weights come from fem2d.exact_patch_rows, which runs
    the production assembly's fold of its BLOCK_TABLE and LOAD_TABLE (unit
    spacing, u = 1). The denominator is det A, the numerator det A with its
    A_y column replaced by the input-weight stencils; each is read off the
    split A = A0 + Pe*A1 by _det_pe_leading. Galerkin keeps the oscillatory
    Z_n = -1 pole; the element-averaged input cancels it.
    """
    def at(pe):
        lhs, weights = fem2d.exact_patch_rows(pe, 1, scheme)
        return {f"{row}-row {col}": Poly(_BIVAR, weights.get(r, {}) if col == "input"
                                         else lhs.get((r, c), {}))
                for r, row in enumerate(_FIELDS) for c, col in enumerate(_FIELDS + ("input",))}

    split = _pe_split(at)

    def matrices(columns):
        return ([[a[f"{row}-row {col}"] for col in columns] for row in _FIELDS] for a in split)

    den, den_degree = _det_pe_leading(*matrices(_FIELDS))
    num, num_degree = _det_pe_leading(*matrices(("phi", "input", "A_z")))
    return TransferFunction2D(scheme, num, den, num_degree, den_degree, _multiplicities(den, num))


def _float_element_report() -> IdentityReport:
    """fem1d's float path reads its element once, at import: its row
    coefficients (a, b) of a + b*Pe must be the stiffness and 2*convection
    of the element exact_stencil reads now, and each 1/divisor the weight of
    element_weights(scheme), so that every weight is a unit fraction."""
    stiffness, convection = REFERENCE_INTEGRALS["stiffness"], REFERENCE_INTEGRALS["convection"]
    rows = [[(s, 2 * c) for s, c in zip(*pair)] for pair in zip(stiffness, convection)]
    weights = all([[Fraction(1, d) for d in row] for row in fem1d._DIVISORS[s]]
                  == [list(row) for row in fem1d.element_weights(s)] for s in Scheme)
    return IdentityReport("fem1d float element: _ROW_COEFFS = (stiffness, 2*convection), "
                          "_DIVISORS = 1/element_weights", fem1d._ROW_COEFFS == rows and weights)


def pole_certificates() -> List[IdentityReport]:
    """The high-Pe pole-cancellation certificates, 1D (tf_1d) then 2D
    (tf_2d), each for both schemes: Galerkin keeps the oscillatory pole at
    v = -1 (v = Z in 1D, Z_n in 2D), the element-averaged input cancels it.
    Each is read off the exact multiplicities of (v + 1) and (v - 1) in the
    derived denominator and numerator; no root is located."""
    reports = []
    for dim, scheme in ((d, s) for d in (1, 2) for s in Scheme):
        keeps = scheme is Scheme.GALERKIN
        verb = "keeps" if keeps else "cancels"
        if dim == 1:
            rf = tf_1d(scheme, math.inf, 1)
            var, m = Z1, _multiplicities(rf.denominator, rf.numerator)
            name = f"{'galerkin' if keeps else 'element-averaged'} high-Pe limit {verb} Z = -1"
            source = f"core.REFERENCE_INTEGRALS element, high-Pe limit: {scheme.value}: {rf}"
            den_label, num_label = "denominator", "numerator"
        else:
            t = tf_2d(scheme)
            var, m = ZN, t.zn_multiplicities
            name = f"{scheme.value} {verb} the Z_n = -1 pole"
            source = "Cramer's rule on the assembled interior stencils, leading terms in Pe"
            den_label = f"{scheme.value}: det A ~ Pe^{t.denominator_pe_degree}"
            num_label = f"A_y numerator ~ Pe^{t.numerator_pe_degree}"
        den_f, num_f = (f"({var}+1)^{m[-1][i]} ({var}-1)^{m[1][i]}" for i in (0, 1))
        den, num = m[-1]
        reports.append(IdentityReport(name, den > num if keeps else 0 < den <= num,
                                      [source, f"{den_label} {den_f}; {num_label} {num_f}"]))
    return reports


# ---------------------------------------------------------------------------
# the paper's 1D peak-error bound, certified exactly


def peak_error_certificate(scheme: Scheme) -> IdentityReport:
    """Certify the paper's bound on f = oracle.peak_error(scheme, Pe, B) over
    Pe > 1 exactly, per unit B. g = (1+Pe)^3 f is the Lagrange cubic through
    four exact values, checked at a fifth; df/dPe has the sign of k = (1+Pe)
    g' - 3 g. p is positive on Pe >= s when p(t + s), composed exactly, has
    nonnegative coefficients in t and a positive constant term."""
    def f(pe):
        return (1 + pe) ** 3 * oracle.peak_error(scheme, Fraction(pe), 1)

    pe, nodes = Poly.univariate("Pe", [0, 1]), (2, 3, 5, 7)

    def positive_from(p, s):
        c = sum((v * (pe + s) ** e for (e,), v in p.coeffs.items()), Poly.zero(("Pe",))).dense_1d()
        return c[0] > 0 and min(c) >= 0

    g = sum((math.prod(((pe - xj) * Fraction(1, xi - xj) for xj in nodes if xj != xi), start=f(xi))
             for xi in nodes), Poly.zero(("Pe",)))
    k = g.derivative("Pe") * (pe + 1) - g * 3
    cube = (pe + 1) ** 3
    q, rem = k.divmod_in(pe - 2, "Pe")   # k = (Pe - 2) q + rem
    only_two = rem.is_zero() and positive_from(q, 1)
    checks = [(f"(1+Pe)^3 f/B is the cubic {g} (checked at Pe = 11)", g.eval(Pe=11) == f(11))]
    checks += ([("df/dPe vanishes on Pe > 1 only at Pe = 2", only_two),
                (f"f(2) = {g.eval(Pe=2) / 27} B, the bound -B/27", g.eval(Pe=2) == -1)]
               if scheme is Scheme.ELEMENT_AVERAGED else
               [("|f| < B/3 for every Pe > 1",
                 positive_from(cube - g * 3, 1) and positive_from(cube + g * 3, 1)),
                ("f -> B/3 as Pe -> oo", g.coeffs.get((3,), 0) * 3 == 1),
                ("f increases for Pe >= 2", positive_from(k, 2))])
    return IdentityReport(f"{scheme.value} peak-error bound", all(ok for _, ok in checks),
                          [f"{text}: {'yes' if ok else 'NO'}" for text, ok in checks])
