"""Property tests of the config schema. Any JSON-like config dict, run
through ScenarioConfig.from_dict and build_1d_case or build_2d_case with no
assembly, either builds a case or raises ConfigError / InvalidArgumentError;
and any config, misspelt or unknown keys included, run through cli.main for
any subcommand ends with exit 0, 2 or 3, never with a traceback. The fields
a corruption replaces are drawn from the schema tables in eddyfem.cli. The
1D commands also run for real, unstubbed, on a tiny pulse over Pe up to
1e308."""
import json
import math
import re
import string
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

from eddyfem import cli, fem1d, fem2d
from eddyfem.cli import ConfigError, ScenarioConfig, build_1d_case, build_2d_case
from eddyfem.core import InvalidArgumentError, NumericalFailureError

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
    st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400, "2.0"]),
    st.lists(st.one_of(st.integers(), st.floats()), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


def table_paths(*tables, prefix=""):
    """Every dotted path that the schema tables name: the fields of every
    section and of every choice, and the first entry of every list."""
    paths = []
    for table in tables:
        for key, entry in table.items():
            typ, rule, _ = (dict, entry, {}) if isinstance(entry, dict) else entry
            paths.append(prefix + key)
            if typ is dict:
                paths += table_paths(rule, prefix=prefix + key + ".")
            elif isinstance(rule, dict):
                paths += table_paths(*rule.values(), prefix=prefix)
            if isinstance(typ, list):
                paths.append(prefix + key + ".0")
    return paths


PATHS_1D = table_paths(cli.SHARED, cli.RUN_1D)
PATHS_2D = table_paths(cli.SHARED, cli.RUN_2D)
SIZES = st.floats(1e-3, 50)
PE = st.one_of(st.floats(0, 1e4), st.integers(0, 100))


def test_table_paths_cover_every_field():
    # the fields the hand-kept path lists of the fuzzers used to miss
    for path in ("svg", "pe_sweep.include.0", "field.b_extent", "grid.axial_factor"):
        assert path in PATHS_2D
    assert set(table_paths(cli.SWEEP_ERROR)) == {
        "dz", "upstream_elements", "plateau_elements", "downstream_elements", "amplitude"}


def _get(raw, path):
    node = raw
    for part in path.split(".") if path else ():
        if isinstance(node, dict):
            node = node.get(part)
        elif isinstance(node, list) and part.isdigit() and int(part) < len(node):
            node = node[int(part)]
        else:
            return None
    return node


def _put(raw, path, value):
    """Replace the field at ``path``; a missing parent leaves ``raw`` as is."""
    parent, _, leaf = path.rpartition(".")
    node = _get(raw, parent)
    if isinstance(node, dict):
        node[leaf] = value
    elif isinstance(node, list) and node and leaf.isdigit():
        node[int(leaf)] = value


@st.composite
def pe_fields(draw):
    if draw(st.booleans()):
        return {"pe": draw(st.lists(PE, min_size=1, max_size=3))}
    lo = draw(st.floats(0.5, 100))
    return {"pe_sweep": {"lo": lo, "hi": lo * draw(st.floats(1.1, 100)),
                         "points": draw(st.integers(2, 30)),
                         "include": draw(st.lists(PE, max_size=2))}}


def _corrupt(draw, raw, paths):
    for path in draw(st.lists(st.sampled_from(paths), max_size=2)):
        _put(raw, path, draw(JUNK))
    return raw


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
           **draw(pe_fields())}
    return _corrupt(draw, raw, PATHS_1D)


@st.composite
def configs_2d(draw):
    """A 2D sheet config, with grid sizes, row counts and grading that
    often reach past their caps, and up to two fields replaced by junk."""
    kind = draw(st.sampled_from(["smooth_circle", "rect_pulse"]))
    shape = ({"radius": draw(SIZES)} if kind == "smooth_circle"
             else {"a": draw(SIZES), "b_extent": draw(SIZES)})
    raw = {"dimension": 2, "scheme": draw(st.sampled_from(["galerkin", "averaged", "both"])),
           **draw(pe_fields()),
           "sheet": {"thickness": draw(SIZES), "sigma": draw(st.floats(1e-3, 1e8)),
                     "mu_r": draw(SIZES), "air_factor": draw(st.floats(0, 20))},
           "field": {"kind": kind, "amplitude": draw(st.floats(0, 5)), **shape},
           "grid": {"nz": draw(st.one_of(st.integers(5, 100), st.integers(0, 6000))),
                    "conductor_rows": draw(st.one_of(st.integers(1, 10).map(lambda n: 2 * n),
                                                     st.integers(0, 1100))),
                    "air_ratio": draw(st.one_of(st.floats(1.05, 3), st.floats(0.5, 3))),
                    "axial_factor": draw(SIZES)}}
    return _corrupt(draw, raw, PATHS_2D)


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


# ---------------------------------------------------------------------------
# the whole CLI


BASES = {"run-1d": "fig_pulse1d_pe2.json", "run-2d": "sheet2d_circle.json",
         "sweep-error": "sweep_peak_error.json"}
KEYS = st.text(string.ascii_lowercase + "_", min_size=1, max_size=8)


def _misspellings(key):
    """Keys one edit away from ``key``: a letter dropped, doubled or
    swapped with its neighbour."""
    return st.sampled_from(sorted(
        {key[:i] + key[i + 1:] for i in range(len(key))}
        | {key[:i] + key[i] + key[i:] for i in range(len(key))}
        | {key[:i] + key[i + 1] + key[i] + key[i + 2:] for i in range(len(key) - 1)}))


@st.composite
def cli_cases(draw):
    """(subcommand, config, whether a key no table names was added): a
    shipped config for the subcommand, up to two of its fields replaced by
    junk and up to two keys added, each a misspelling of a field of its
    section, an arbitrary key or a '_' comment."""
    command = draw(st.sampled_from(sorted(BASES)))
    raw = json.loads((CONFIG_DIR / BASES[command]).read_text())
    raw["svg"] = draw(st.booleans())
    paths = table_paths(cli.SHARED, cli.COMMANDS[command][1])
    _corrupt(draw, raw, paths)
    unknown = False
    for _ in range(draw(st.integers(0, 2))):
        sections = [""] + [p for p in paths if isinstance(_get(raw, p), dict)]
        section = draw(st.sampled_from(sections))
        names = [p.rpartition(".")[2] for p in paths if p.rpartition(".")[0] == section]
        misspelt = [st.sampled_from(names).flatmap(_misspellings)] if names else []
        key = draw(st.one_of(*misspelt, KEYS, KEYS.map(lambda k: "_" + k)))
        if key not in _get(raw, section):
            _get(raw, section)[key] = draw(JUNK)
            unknown |= key not in names and not key.startswith("_")
    return command, raw, unknown


def _stubbed_solve(*args, **kwargs):
    raise NumericalFailureError("stubbed solve")


@settings(max_examples=300, deadline=2000,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(cli_cases())
def test_cli_ends_with_exit_0_2_or_3(monkeypatch, case):
    # every solve is stubbed: a config that validates exits 3 when it
    # reaches one, and a sweep with no Pe above 1 writes its CSV and exits 0
    for module, name in ((fem1d, "assemble_1d"), (fem2d, "assemble_2d")):
        monkeypatch.setattr(module, name, _stubbed_solve)
    command, raw, unknown = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(raw))
        code = cli.main([command, "--config", str(path), "--out", str(Path(tmp) / "out")])
        assert code in (0, 2, 3)
        assert code != 2 or not (Path(tmp) / "out").exists()
        assert code == 2 or not unknown


# ---------------------------------------------------------------------------
# the 1D commands, unstubbed


TINY_1D = {"run-1d": {"dimension": 1, "scheme": "both", "dz": 0.25, "length": 5.0,
                      "pulse": {"a": 1.875, "b": 3.125, "amplitude": 1.0}, "svg": True},
           "sweep-error": {"dimension": 1, "dz": 0.2, "upstream_elements": 3,
                           "plateau_elements": 15, "downstream_elements": 3, "svg": True}}


@settings(max_examples=60, deadline=2000)
@given(st.one_of(st.floats(-3, 308), st.floats(-3, 16)).map(lambda e: 10.0 ** e))
@example(0.0)
@example(2.0 ** 53 - 1)
@example(2.0 ** 53)
@example(1e103)   # the peak-error formula's (1 + Pe)^3 overflowed here
def test_1d_commands_end_with_exit_0_2_or_3_at_any_pe(pe):
    # Pe log-uniform in [1e-3, 1e308], half the draws below 1e16, where the
    # commands solve. A Pe the 1D rows cannot represent exits 2; a run at any
    # other Pe writes only finite chart points, and a sweep row it compares
    # (status ok, every formula value above the row's rounding floor) has
    # measured and formula columns of one sign
    for command, raw in TINY_1D.items():
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "config.json", Path(tmp) / "out"
            path.write_text(json.dumps({**raw, "pe": [pe]}))
            code = cli.main([command, "--config", str(path), "--out", str(out)])
            assert code in (0, 2, 3)
            assert code != 2 or not out.exists()
            if pe >= 2 ** 53:
                assert code == 2
            for svg in out.glob("*.svg") if code == 0 else ():
                points = re.findall(r'points="([^"]*)"', svg.read_text())
                assert points and all(math.isfinite(float(v)) for pts in points
                                      for pair in pts.split() for v in pair.split(","))
            for csv in out.glob("sweep_error.csv") if code == 0 else ():
                for row in csv.read_text().splitlines()[3:]:
                    _, *cells, status = row.split(",")
                    measured, formula = cells[0::2], cells[1::2]
                    assert status != "ok" or all(float(m) * float(f) > 0
                                                 for m, f in zip(measured, formula)), row
