from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from eddyfem.zpoly import (InexactDivisionError, Poly,
                           gcd_univariate, roots_univariate, separate,
                           squarefree_factors)


def zp(*coeffs):
    return Poly.univariate("Z", coeffs)


small_polys = st.lists(st.integers(-9, 9), min_size=1, max_size=5).map(lambda c: zp(*c))


@given(small_polys, small_polys, small_polys)
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a - a).is_zero()
    assert a + Poly.zero(("Z",)) == a


@given(small_polys, small_polys)
def test_divmod_roundtrip(p, d):
    if d.is_zero():
        return
    q, r = p.divmod_in(d, "Z")
    assert q * d + r == p
    assert r.degree() < max(d.degree(), 0) or r.is_zero()


def test_exact_div_raises_with_remainder():
    p = zp(1, 0, 1)  # Z^2 + 1
    d = zp(1, 1)     # Z + 1
    with pytest.raises(InexactDivisionError) as err:
        p.exact_div(d)
    assert not err.value.remainder.is_zero()


def test_exact_div_bivariate_by_univariate_factor():
    zn = Poly(("Z_n", "Z_m"), {(1, 0): 1})
    zm = Poly(("Z_n", "Z_m"), {(0, 1): 1})
    p = (zn + 1) ** 2 * (zm * zm - 1)
    q = p.exact_div(Poly.univariate("Z_n", [1, 2, 1]), "Z_n")
    assert q == zm * zm - 1


def test_bivariate_divisor_is_rejected():
    # division is by a univariate factor only; a bivariate divisor raises,
    # with or without a named division variable
    zn = Poly(("Z_n", "Z_m"), {(1, 0): 1})
    zm = Poly(("Z_n", "Z_m"), {(0, 1): 1})
    for divisor in (zn + 1, zn * zm + 1):
        with pytest.raises(ValueError):
            (zn * zm).divmod_in(divisor, "Z_n")
        with pytest.raises(ValueError):
            (zn * zm).exact_div(divisor)


def test_gcd_univariate():
    a = zp(-1, 1) * zp(2, 1)   # (Z-1)(Z+2)
    b = zp(-1, 1) * zp(3, 1)   # (Z-1)(Z+3)
    assert gcd_univariate(a, b) == zp(-1, 1)
    assert gcd_univariate(a, zp(5)).degree() == 0


def test_squarefree_factors():
    p = zp(1, 1) ** 2 * zp(-1, 1)   # (Z+1)^2 (Z-1)
    factors = dict()
    for f, m in squarefree_factors(p):
        factors[m] = f
    assert factors[1] == zp(-1, 1)
    assert factors[2] == zp(1, 1)


def test_roots_exact_at_unit_points():
    p = zp(-1, 0, 1)  # Z^2 - 1
    roots = {(r.real, mult, exact) for r, mult, exact in roots_univariate(p)}
    assert (1.0, 1, True) in roots
    assert (-1.0, 1, True) in roots


def test_roots_multiplicity():
    p = zp(1, 1) ** 3 * zp(-3, 1)
    out = sorted(roots_univariate(p), key=lambda t: t[0].real)
    assert out[0][0] == pytest.approx(-1) and out[0][1] == 3 and out[0][2]
    assert out[1][0] == pytest.approx(3) and out[1][1] == 1


def test_separate_recovers_factors():
    zn = Poly.univariate("Z_n", [1, 4, 1]).map_variables(("Z_n", "Z_m"), 0)
    zm = Poly.univariate("Z_m", [-1, 0, 1]).map_variables(("Z_n", "Z_m"), 1)
    prod = zn * zm
    parts = separate(prod)
    assert parts is not None
    pn, pm = parts
    assert pn.map_variables(("Z_n", "Z_m"), 0) * pm.map_variables(("Z_n", "Z_m"), 1) == prod


def test_separate_rejects_coupled_poly():
    # the 9-point stencil polynomial is not a product of univariate parts
    from eddyfem.ztransfer import polys_2d
    assert separate(polys_2d()["S1"]) is None


def test_eval_exact_and_numeric():
    p = zp(1, -2, 3)  # 3Z^2 - 2Z + 1
    assert p.eval(Z=Fraction(1, 2)) == Fraction(3, 4)
    assert p.eval_complex(Z=0.5) == pytest.approx(0.75)


def test_float_coefficients_become_exact_binary_rationals():
    p = zp(0.25)
    assert p.coeffs[(0,)] == Fraction(1, 4)
