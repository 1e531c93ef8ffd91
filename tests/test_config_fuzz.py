"""Property tests of the 1D and 2D config validation: any JSON-like config
dict, run through ScenarioConfig.from_dict and build_1d_case or
build_2d_case with no assembly, either builds a case or raises ConfigError /
InvalidArgumentError."""
import math

from hypothesis import HealthCheck, given, settings, strategies as st

from eddyfem.cli import ConfigError, ScenarioConfig, build_1d_case, build_2d_case
from eddyfem.core import InvalidArgumentError

JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
    st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400, "2.0"]),
    st.lists(st.one_of(st.integers(), st.floats()), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


SIZES = st.floats(1e-3, 50)
PE = st.one_of(st.floats(0, 1e4), st.integers(0, 100))
# fields a corruption may replace; a missing parent leaves the config as is
PATHS = ["dimension", "scheme", "pe", "pe.0", "pe_sweep", "pe_sweep.lo", "pe_sweep.hi",
         "pe_sweep.points", "pe_sweep.include", "pe_sweep.include.0", "dz", "length",
         "pulse", "pulse.a", "pulse.b", "pulse.amplitude", "material", "material.sigma",
         "material.mu"]
PATHS_2D = ["dimension", "scheme", "pe", "pe.0", "sheet", "sheet.thickness", "sheet.sigma",
            "sheet.mu_r", "sheet.air_factor", "field", "field.kind", "field.amplitude",
            "field.radius", "field.a", "field.b_extent", "grid", "grid.nz",
            "grid.conductor_rows", "grid.air_ratio", "grid.axial_factor"]


def _put(raw, path, value):
    *parents, leaf = path.split(".")
    node = raw
    for part in parents:
        node = node.get(part) if isinstance(node, dict) else None
    if isinstance(node, dict):
        node[leaf] = value
    elif isinstance(node, list) and node and leaf.isdigit():
        node[int(leaf)] = value


@st.composite
def configs(draw):
    """A valid 1D config, with a length that is often not a whole number of
    dz, and up to two fields replaced by junk."""
    dz = draw(st.floats(1e-2, 2))
    length = draw(st.one_of(st.integers(3, 500).map(lambda n: n * dz), SIZES))
    raw = {"dimension": 1, "scheme": draw(st.sampled_from(["galerkin", "averaged", "both"])),
           "dz": dz, "length": length,
           "pulse": {"a": length * draw(st.floats(0.01, 0.5)),
                     "b": length * draw(st.floats(0.5, 0.99)), "amplitude": draw(st.floats(-1, 5))},
           "material": {"sigma": draw(SIZES), "mu": draw(SIZES)}}
    if draw(st.booleans()):
        raw["pe"] = draw(st.lists(PE, min_size=1, max_size=3))
    else:
        lo = draw(st.floats(0.5, 100))
        raw["pe_sweep"] = {"lo": lo, "hi": lo * draw(st.floats(1.1, 100)),
                           "points": draw(st.integers(2, 30)),
                           "include": draw(st.lists(PE, max_size=2))}
    for path in draw(st.lists(st.sampled_from(PATHS), max_size=2)):
        _put(raw, path, draw(JUNK))
    return raw


@st.composite
def configs_2d(draw):
    """A 2D sheet config, with grid sizes, row counts and grading that
    often reach past their caps, and up to two fields replaced by junk."""
    kind = draw(st.sampled_from(["smooth_circle", "rect_pulse"]))
    shape = ({"radius": draw(SIZES)} if kind == "smooth_circle"
             else {"a": draw(SIZES), "b_extent": draw(SIZES)})
    raw = {"dimension": 2, "scheme": draw(st.sampled_from(["galerkin", "averaged", "both"])),
           "pe": draw(st.lists(PE, min_size=1, max_size=3)),
           "sheet": {"thickness": draw(SIZES), "sigma": draw(st.floats(1e-3, 1e8)),
                     "mu_r": draw(SIZES), "air_factor": draw(st.floats(0, 20))},
           "field": {"kind": kind, "amplitude": draw(st.floats(0, 5)), **shape},
           "grid": {"nz": draw(st.one_of(st.integers(5, 100), st.integers(0, 6000))),
                    "conductor_rows": draw(st.one_of(st.integers(1, 10).map(lambda n: 2 * n),
                                                     st.integers(0, 1100))),
                    "air_ratio": draw(st.one_of(st.floats(1.05, 3), st.floats(0.5, 3))),
                    "axial_factor": draw(SIZES)}}
    for path in draw(st.lists(st.sampled_from(PATHS_2D), max_size=2)):
        _put(raw, path, draw(JUNK))
    return raw


def _build_or_raise(raw, build):
    try:
        cfg = ScenarioConfig.from_dict(raw)
        for pe in cfg.pe_values:
            build(cfg, pe)
    except (ConfigError, InvalidArgumentError):
        pass


@settings(max_examples=200, deadline=1000, suppress_health_check=[HealthCheck.too_slow])
@given(configs())
def test_1d_configs_build_or_raise_config_errors(raw):
    _build_or_raise(raw, build_1d_case)


@settings(max_examples=120, deadline=1000, suppress_health_check=[HealthCheck.too_slow])
@given(configs_2d())
def test_2d_configs_build_or_raise_config_errors(raw):
    _build_or_raise(raw, build_2d_case)
