"""Exact-rational polynomial algebra in one or two named indeterminates.

All coefficients are ``fractions.Fraction``; add/mul/exact-divide are closed
and exact, so identity proofs built on this module admit no tolerance.
Degrees stay small here (<= 8 per variable), so a sparse dict keyed by the
exponent tuple is plenty.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np


class InexactDivisionError(ArithmeticError):
    """Polynomial division left a nonzero remainder; carries the remainder."""

    def __init__(self, message: str, remainder: "Poly"):
        super().__init__(message)
        self.remainder = remainder


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)  # exact binary value of the float
    raise TypeError(f"cannot coerce {type(x).__name__} to Fraction")


class Poly:
    """Polynomial with exact rational coefficients.

    ``variables`` is a 1- or 2-tuple of names; ``coeffs`` maps exponent
    tuples to nonzero Fractions (canonical form: no stored zeros).
    """

    __slots__ = ("variables", "coeffs")

    def __init__(self, variables: Tuple[str, ...], coeffs: Dict[Tuple[int, ...], Fraction]):
        variables = tuple(variables)
        if len(variables) not in (1, 2):
            raise ValueError("Poly supports 1 or 2 variables")
        clean = {}
        for k, v in coeffs.items():
            v = _frac(v)
            if v != 0:
                key = tuple(int(e) for e in k)
                if len(key) != len(variables) or any(e < 0 for e in key):
                    raise ValueError(f"bad exponent tuple {key}")
                clean[key] = v
        self.variables = variables
        self.coeffs = clean

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, variables: Tuple[str, ...]) -> "Poly":
        return cls(variables, {})

    @classmethod
    def const(cls, value, variables: Tuple[str, ...]) -> "Poly":
        return cls(variables, {(0,) * len(variables): _frac(value)})

    @classmethod
    def univariate(cls, name: str, coeffs_ascending: Iterable) -> "Poly":
        return cls((name,), {(i,): _frac(c) for i, c in enumerate(coeffs_ascending)})

    # -- basic queries ------------------------------------------------
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self, var: Optional[str] = None) -> int:
        """Max exponent of ``var`` (or total degree); zero poly -> -1."""
        if not self.coeffs:
            return -1
        if var is None:
            return max(sum(k) for k in self.coeffs)
        i = self.variables.index(var)
        return max(k[i] for k in self.coeffs)

    def term_count(self) -> int:
        return len(self.coeffs)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poly) and self.variables == other.variables
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.variables, tuple(sorted(self.coeffs.items()))))

    # -- arithmetic ---------------------------------------------------
    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.variables != self.variables:
                raise ValueError(f"variable mismatch: {self.variables} vs {other.variables}")
            return other
        return Poly.const(other, self.variables)

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, Fraction(0)) + v
        return Poly(self.variables, out)

    def __radd__(self, other) -> "Poly":
        return self.__add__(other)

    def __neg__(self) -> "Poly":
        return Poly(self.variables, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other) -> "Poly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Poly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            c = _frac(other)
            return Poly(self.variables, {k: v * c for k, v in self.coeffs.items()})
        other = self._coerce(other)
        out: Dict[Tuple[int, ...], Fraction] = {}
        for ka, va in self.coeffs.items():
            for kb, vb in other.coeffs.items():
                k = tuple(a + b for a, b in zip(ka, kb))
                out[k] = out.get(k, Fraction(0)) + va * vb
        return Poly(self.variables, out)

    def __rmul__(self, other) -> "Poly":
        return self.__mul__(other)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        out = Poly.const(1, self.variables)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- evaluation ---------------------------------------------------
    def eval(self, **values) -> Fraction:
        """Exact evaluation; every variable must be given a rational value."""
        vals = tuple(_frac(values[v]) for v in self.variables)
        total = Fraction(0)
        for k, c in self.coeffs.items():
            term = c
            for e, x in zip(k, vals):
                term *= x ** e
            total += term
        return total

    def eval_complex(self, **values) -> complex:
        vals = tuple(complex(values[v]) for v in self.variables)
        total = 0j
        for k, c in self.coeffs.items():
            term = complex(c)
            for e, x in zip(k, vals):
                term *= x ** e
            total += term
        return total

    # -- structure ----------------------------------------------------
    def dense_1d(self) -> List[Fraction]:
        """Ascending coefficient list; requires a univariate polynomial."""
        if len(self.variables) != 1:
            raise ValueError("dense_1d needs a univariate polynomial")
        d = self.degree()
        out = [Fraction(0)] * (d + 1) if d >= 0 else [Fraction(0)]
        for (e,), c in self.coeffs.items():
            out[e] = c
        return out

    def as_univariate_in(self, var: str) -> List["Poly"]:
        """Coefficients of powers of ``var``, each a Poly in the other variable."""
        if len(self.variables) == 1:
            return [Poly.const(c, self.variables) for c in self.dense_1d()]
        i = self.variables.index(var)
        j = 1 - i
        other = (self.variables[j],)
        d = self.degree(var)
        buckets: List[Dict[Tuple[int, ...], Fraction]] = [dict() for _ in range(max(d + 1, 1))]
        for k, c in self.coeffs.items():
            buckets[k[i]][(k[j],)] = c
        return [Poly(other, b) for b in buckets]

    def derivative(self, var: str) -> "Poly":
        i = self.variables.index(var)
        out = {}
        for k, c in self.coeffs.items():
            if k[i] == 0:
                continue
            nk = list(k)
            nk[i] -= 1
            out[tuple(nk)] = out.get(tuple(nk), Fraction(0)) + c * k[i]
        return Poly(self.variables, out)

    def map_variables(self, variables: Tuple[str, ...], position: int = 0) -> "Poly":
        """Embed a univariate polynomial into a larger variable tuple."""
        if len(self.variables) != 1:
            raise ValueError("map_variables needs a univariate polynomial")
        n = len(variables)
        out = {}
        for (e,), c in self.coeffs.items():
            k = [0] * n
            k[position] = e
            out[tuple(k)] = c
        return Poly(variables, out)

    # -- division -----------------------------------------------------
    def divmod_in(self, divisor: "Poly", var: str) -> Tuple["Poly", "Poly"]:
        """Long division by a univariate divisor (a polynomial in ``var``
        with rational coefficients), treating self as a polynomial in ``var``
        over the remaining variable; dense_1d rejects a bivariate divisor."""
        dcoef = divisor.dense_1d()
        while dcoef and dcoef[-1] == 0:
            dcoef.pop()
        if not dcoef:
            raise ZeroDivisionError("division by zero polynomial")
        dd = len(dcoef) - 1
        lead = dcoef[-1]

        rem = self.as_univariate_in(var)
        other = rem[0].variables if rem else (var,)
        quo: List[Poly] = []
        while len(rem) - 1 >= dd and any(not p.is_zero() for p in rem):
            top = len(rem) - 1
            if rem[top].is_zero():
                rem.pop()
                continue
            q = rem[top] * (Fraction(1) / lead)
            shift = top - dd
            for i, dc in enumerate(dcoef):
                rem[shift + i] = rem[shift + i] - q * dc
            while len(quo) <= shift:
                quo.append(Poly.zero(other))
            quo[shift] = quo[shift] + q
            rem.pop()

        def rebuild(coef_list: List[Poly]) -> Poly:
            # coefficient e of var, a Poly in the other variable (a constant
            # for univariate self), back into one polynomial
            i = self.variables.index(var)
            out = {}
            for e, p in enumerate(coef_list):
                for (eo,), c in p.coeffs.items():
                    k = [eo] * len(self.variables)
                    k[i] = e
                    out[tuple(k)] = c
            return Poly(self.variables, out)

        return rebuild(quo), rebuild(rem)

    def exact_div(self, divisor: "Poly", var: Optional[str] = None) -> "Poly":
        """Exact quotient; raises InexactDivisionError if a remainder is left."""
        q, r = self.divmod_in(divisor, var or divisor.variables[0])
        if not r.is_zero():
            raise InexactDivisionError(
                f"division by {divisor} not exact (remainder {r})", r)
        return q

    # -- display ------------------------------------------------------
    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs, reverse=True):
            c = self.coeffs[k]
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(self.variables, k) if e > 0)
            if mono:
                coef = "" if c == 1 else ("-" if c == -1 else f"{c}*")
                parts.append(f"{coef}{mono}")
            else:
                parts.append(f"{c}")
        s = " + ".join(parts).replace("+ -", "- ")
        return s

    def coeff_lines(self) -> str:
        """Full coefficient list, one monomial per line (for proof reports)."""
        if not self.coeffs:
            return "  (zero polynomial)"
        lines = []
        for k in sorted(self.coeffs, reverse=True):
            mono = " ".join(f"{v}^{e}" for v, e in zip(self.variables, k) if e > 0)
            lines.append(f"  {str(self.coeffs[k]):>8s}  {mono or '1'}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# univariate helpers


def gcd_univariate(p: Poly, q: Poly) -> Poly:
    """Monic GCD over Q by the Euclidean algorithm."""
    if p.variables != q.variables or len(p.variables) != 1:
        raise ValueError("gcd_univariate needs matching univariate polynomials")
    a, b = p, q
    while not b.is_zero():
        _, r = a.divmod_in(b, b.variables[0])
        a, b = b, r
    if a.is_zero():
        return a
    lead = a.dense_1d()[-1]
    return a * (Fraction(1) / lead)


def squarefree_factors(p: Poly) -> List[Tuple[Poly, int]]:
    """Squarefree decomposition p = prod f_i^i (f_i monic, pairwise coprime)."""
    if len(p.variables) != 1:
        raise ValueError("squarefree_factors needs a univariate polynomial")
    if p.degree() <= 0:
        return []
    var = p.variables[0]
    p = p * (Fraction(1) / p.dense_1d()[-1])
    g = gcd_univariate(p, p.derivative(var))
    if g.degree() <= 0:
        return [(p, 1)]
    out: List[Tuple[Poly, int]] = []
    w = p.exact_div(g, var)   # product of the distinct factors
    mult = 1
    while w.degree() > 0:
        y = gcd_univariate(w, g)
        f = w.exact_div(y, var)
        if f.degree() > 0:
            out.append((f, mult))
        w = y
        g = g.exact_div(y, var)
        mult += 1
    return out


def roots_univariate(p: Poly, residual_rtol: float = 1e-12) -> List[Tuple[complex, int, bool]]:
    """Roots of a univariate polynomial as (location, multiplicity, exact).

    Roots at exactly +/-1 are detected by exact evaluation and deflated
    before numeric rooting, so unit-circle classifications never rest on
    floating point. Each numeric root must satisfy the backward-error bound
    |p(z)| <= residual_rtol * sum |c_i| |z|^i.
    """
    if len(p.variables) != 1:
        raise ValueError("roots_univariate needs a univariate polynomial")
    if p.degree() <= 0:
        return []
    var = p.variables[0]
    roots: List[Tuple[complex, int, bool]] = []
    for f, mult in squarefree_factors(p):
        # exact deflation at the two stability-critical points
        for special in (Fraction(1), Fraction(-1)):
            if f.degree() > 0 and f.eval(**{var: special}) == 0:
                f = f.exact_div(Poly.univariate(var, [-special, 1]), var)
                roots.append((complex(special), mult, True))
        if f.degree() > 0:
            coef = [float(c) for c in reversed(f.dense_1d())]
            for z in np.roots(coef):
                z = complex(z)
                res = abs(f.eval_complex(**{var: z}))
                scale = sum(abs(float(c)) * abs(z) ** i for i, c in enumerate(f.dense_1d()))
                if res > residual_rtol * max(scale, 1e-300):
                    raise ArithmeticError(
                        f"root residual {res:.3e} exceeds budget for {p}")
                roots.append((z, mult, False))
    return roots


def separate(p: Poly) -> Optional[Tuple[Poly, Poly]]:
    """Split a bivariate polynomial into univariate factors (p1(v1), p2(v2))
    with p = p1 * p2, or return None if it is not separable.

    A polynomial is separable iff its coefficient matrix has rank 1; the
    check and the extracted factors are exact.
    """
    if len(p.variables) == 1:
        raise ValueError("separate needs a bivariate polynomial")
    if p.is_zero():
        return None
    v1, v2 = p.variables
    d1, d2 = p.degree(v1), p.degree(v2)
    C = [[p.coeffs.get((i, j), Fraction(0)) for j in range(d2 + 1)] for i in range(d1 + 1)]
    # pivot: any nonzero entry
    pi, pj = next((i, j) for i in range(d1 + 1) for j in range(d2 + 1) if C[i][j] != 0)
    piv = C[pi][pj]
    for i in range(d1 + 1):
        for j in range(d2 + 1):
            if C[i][j] * piv != C[i][pj] * C[pi][j]:
                return None
    p1 = Poly((v1,), {(i,): C[i][pj] for i in range(d1 + 1)})
    p2 = Poly((v2,), {(j,): C[pi][j] / piv for j in range(d2 + 1)})
    return p1, p2

