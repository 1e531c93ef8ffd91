import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from eddyfem.core import (InvalidArgumentError, Material, Mesh1D, Mesh2D,
                          RectPulse1D, RectPulse2D, SmoothCircle2D,
                          material_for_peclet)


def test_material_for_peclet_high_speed_case():
    # Pe = 2000 on dz = 0.2 with mu*sigma = 20000 per m: u = 1
    assert material_for_peclet(2000.0, 0.2, sigma=20000.0).u_z == pytest.approx(1.0, rel=1e-14)


def test_material_for_peclet_zero_pe():
    assert material_for_peclet(0.0, 0.7, sigma=5.0, mu=2.0).u_z == 0.0


def test_material_for_peclet_moderate_case():
    # Pe = 2 on dz = 0.25 with mu*sigma = 8 per m: u = 2
    assert material_for_peclet(2.0, 0.25, sigma=4.0, mu=2.0).u_z == pytest.approx(2.0, rel=1e-14)


def test_material_for_peclet_rejects_bad_dz():
    for dz in (0.0, -1.0, math.inf):
        with pytest.raises(InvalidArgumentError, match="dz must be finite"):
            material_for_peclet(2.0, dz)


@given(st.floats(0.1, 50), st.floats(0.1, 50), st.floats(0.0, 50), st.floats(0.01, 10),
       st.floats(0.5, 4))
def test_material_for_peclet_velocity_scales_with_each_input(sigma, mu, pe, dz, factor):
    # u = 2 Pe / (mu sigma dz): linear in Pe, inverse in mu, sigma and dz
    base = material_for_peclet(pe, dz, sigma, mu).u_z
    assert material_for_peclet(pe * factor, dz, sigma, mu).u_z == pytest.approx(
        base * factor, rel=1e-12)
    for args in ((pe, dz, sigma * factor, mu), (pe, dz, sigma, mu * factor),
                 (pe, dz * factor, sigma, mu)):
        assert material_for_peclet(*args).u_z == pytest.approx(base / factor, rel=1e-12)


def test_material_for_peclet_round_trips():
    mat = material_for_peclet(37.5, 0.2, sigma=7.21e6, mu=4e-7 * math.pi)
    assert mat.mu * mat.sigma * mat.u_z * 0.2 / 2 == pytest.approx(37.5, rel=1e-12)


def test_material_invariants():
    with pytest.raises(InvalidArgumentError):
        Material(sigma=0.0, mu=1.0, u_z=1.0)
    with pytest.raises(InvalidArgumentError):
        Material(sigma=1.0, mu=-1.0, u_z=1.0)
    with pytest.raises(InvalidArgumentError):
        Material(sigma=1.0, mu=1.0, u_z=-0.5)


@pytest.mark.parametrize("sigma, mu, u_z", [
    (1.0, 1.0, math.nan), (1.0, 1.0, math.inf), (math.inf, 1.0, 1.0), (1.0, math.inf, 1.0),
    (math.nan, 1.0, 1.0), (1.0, math.nan, 1.0), (-math.inf, 1.0, 1.0)])
def test_material_rejects_non_finite_values(sigma, mu, u_z):
    with pytest.raises(InvalidArgumentError):
        Material(sigma, mu, u_z)


def test_overflowing_velocity_is_an_invalid_argument():
    # 2 * Pe / (mu * sigma * dz) overflows to inf, which used to construct
    with pytest.raises(InvalidArgumentError, match="u_z must be finite"):
        material_for_peclet(1e300, 1e-10, sigma=1e-10)
    for pe in (math.nan, math.inf, -1.0):   # named as pe, not as the velocity it gives
        with pytest.raises(InvalidArgumentError, match=f"pe must be finite and >= 0, got {pe}"):
            material_for_peclet(pe, 0.2)
    # an infinite mu*sigma*dz used to give u_z = 0, then Pe = inf * 0 = NaN
    with pytest.raises(InvalidArgumentError, match=r"mu\*sigma\*dz must be finite"):
        material_for_peclet(2.0, 0.25, sigma=1e300, mu=1e300)


def test_mesh1d_invariants():
    m = Mesh1D(0.25, 41)
    assert m.nodes()[-1] == 10.0
    assert m.element_count == 40
    assert Mesh1D.from_length(10.0, 0.25) == m
    with pytest.raises(InvalidArgumentError):
        Mesh1D(0.25, 2)  # too few nodes
    for dz in (0.0, math.inf, math.nan):
        with pytest.raises(InvalidArgumentError):
            Mesh1D(dz, 41)


def test_mesh2d_invariants():
    m = Mesh2D.uniform(nz=5, ny=4, dz=1.0, dy=0.5)
    assert (m.ny, m.node_count) == (4, 20)
    assert np.allclose(m.node_y(), [0, 0.5, 1.0, 1.5])
    with pytest.raises(InvalidArgumentError):
        Mesh2D(nz=5, dz=1.0, row_heights=(0.5, -0.5, 0.5))
    with pytest.raises(InvalidArgumentError):
        Mesh2D(nz=5, dz=1.0, row_heights=(0.5,))  # ny = 2
    for dz in (0.0, math.inf, math.nan):
        with pytest.raises(InvalidArgumentError):
            Mesh2D(nz=5, dz=dz, row_heights=(0.5,) * 3)


def test_rect_pulse_inside():
    p = RectPulse1D(a=1.0, b=2.0, amplitude=1.0)
    assert p.sample(1.5) == 1.0
    assert p.sample(0.99) == 0.0
    assert p.sample(1.0) == 1.0  # inclusive bounds


def test_smooth_circle_plateau_edge_and_tail():
    p = SmoothCircle2D(radius=1.0, amplitude=1.0)
    assert p.sample(1.0, 0.0) == 1.0
    assert p.sample(1.5, 0.0) == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert p.sample(0.6, 0.8) == 1.0  # r = 1 exactly


def test_smooth_circle_continuous_at_plateau():
    p = SmoothCircle2D(radius=1.0, amplitude=2.0)
    eps = 1e-8
    assert p.sample(1.0 - eps, 0.0) == pytest.approx(p.sample(1.0 + eps, 0.0), abs=1e-7)


@given(st.floats(-5, 5), st.floats(-5, 5))
def test_profiles_bounded(z, y):
    amp = 1.7
    for p in (RectPulse1D(0.5, 1.5, amp), RectPulse2D(1.0, 1.0, amp),
              SmoothCircle2D(1.0, amp)):
        v = p.sample(z, y)
        assert 0.0 <= v <= amp


def test_rect_pulse_2d_window():
    p = RectPulse2D(a=1.0, b_extent=2.0, amplitude=3.0)
    assert p.sample(0.5, 1.5) == 3.0
    assert p.sample(1.5, 0.0) == 0.0
    assert p.sample(0.0, 2.5) == 0.0


def test_profile_vectorized_sampling():
    p = RectPulse1D(a=1.0, b=2.0, amplitude=1.0)
    z = np.array([0.0, 1.2, 3.0])
    assert np.array_equal(p.sample(z), [0.0, 1.0, 0.0])


def test_bare_import_loads_no_submodule_numpy_or_scipy():
    # the package namespace re-exports nothing: its names are imported from
    # the submodules, so a bare import stays cheap
    src = Path(__file__).resolve().parents[1] / "src"
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); import eddyfem; print(sorted("
            "m for m in sys.modules if m.startswith(('eddyfem.', 'numpy', 'scipy'))))")
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"


SAME_LAPACK = """\
import sys
sys.path.insert(0, {src!r})
from eddyfem.core import lapack
{load}
copies = [m for m in list(sys.modules.values()) if getattr(m, "__file__", None) == mod.__file__]
print(mod is scipy_lapack._flapack is sys.modules["scipy.linalg._flapack"], copies == [mod],
      [getattr(mod, f) is getattr(scipy_lapack, f) for f in ("dgbtrf", "dgbtrs")])
"""


@pytest.mark.parametrize("load", [
    "mod = lapack()\nimport scipy.linalg.lapack as scipy_lapack",
    "import scipy.linalg.lapack as scipy_lapack\nmod = lapack()"],
    ids=["accessor_first", "scipy_linalg_first"])
def test_lapack_accessor_and_scipy_linalg_share_one_module(load):
    # the solvers call the very routines scipy.linalg.lapack exports, in
    # either import order, so a solve keeps its bits whichever path loaded them
    src = Path(__file__).resolve().parents[1] / "src"
    code = SAME_LAPACK.format(src=str(src), load=load)
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "True True [True, True]"
