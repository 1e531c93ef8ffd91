import hashlib
import io
import json
import math
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from eddyfem import cli, fem1d, fem2d, zpoly, ztransfer
from eddyfem.cli import (ConfigError, ScenarioConfig, build_1d_case,
                         build_2d_case, graded_sheet_rows, main,
                         measured_peak_error, measured_peak_errors, run_1d,
                         run_2d, sweep_error, verify)
from eddyfem.core import REFERENCE_INTEGRALS, NumericalFailureError, Scheme
from eddyfem.oracle import peak_error
from eddyfem.ztransfer import tf_2d
from test_fem1d import refined_mesh
from test_ztransfer import perturb_averaged_a_y_weight

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def load_cfg(name, **overrides):
    raw = json.loads((CONFIG_DIR / name).read_text())
    raw.update(overrides)
    return ScenarioConfig.from_dict(raw)


# ---------------------------------------------------------------------------
# config validation


def test_empty_pe_list_is_config_error():
    raw = json.loads((CONFIG_DIR / "fig_pulse1d_pe2.json").read_text())
    raw["pe"] = []
    with pytest.raises(ConfigError) as err:
        ScenarioConfig.from_dict(raw)
    assert err.value.path == "pe"


def test_missing_field_names_path():
    cfg = ScenarioConfig.from_dict({"dimension": 1, "pe": [2.0]})
    with pytest.raises(ConfigError) as err:
        build_1d_case(cfg, 2.0)
    assert err.value.path == "dz"
    with pytest.raises(ConfigError) as err2:
        ScenarioConfig.from_dict({"dimension": 3, "pe": [2.0]})
    assert err2.value.path == "dimension"


def test_bad_scheme_rejected():
    # scheme is a field of the run-1d and run-2d tables, read with them
    raw = json.loads((CONFIG_DIR / "fig_pulse1d_pe2.json").read_text())
    raw["scheme"] = "upwind"
    with pytest.raises(ConfigError) as err:
        build_1d_case(ScenarioConfig.from_dict(raw), 2.0)
    assert err.value.path == "scheme"


def _with(raw, path, value):
    *parents, leaf = path.split(".")
    node = raw
    for part in parents:
        node = node.setdefault(part, {})
    node[leaf] = value
    return raw


def _no_grading(*args):
    raise AssertionError("sheet grading reached with an invalid config")


BAD_2D_VALUES = [
    ("grid.air_ratio", 0.5), ("grid.air_ratio", -1.0), ("grid.air_ratio", math.nan),
    ("grid.air_ratio", math.inf), ("grid.axial_factor", 0.0), ("grid.axial_factor", -6.0),
    ("sheet.mu_r", 0.0), ("sheet.mu_r", math.nan), ("sheet.air_factor", math.nan),
    ("sheet.air_factor", -1.0), ("sheet.air_factor", math.inf), ("grid.air_ratio", "1.3"),
    ("sheet.thickness", math.inf), ("field.radius", math.inf), ("field.amplitude", math.inf),
    ("grid.conductor_rows", 2 * cli.MAX_ROWS_PER_SIDE + 2), ("grid.nz", cli.MAX_NZ + 1),
    ("grid.axial_factor", 1e308),   # times the field width 2.6 overflows dz
    ("grid.conductor_rows", 15),    # the rows mirror about y = 0 in pairs
]


@pytest.mark.parametrize("path, value", BAD_2D_VALUES)
def test_bad_2d_grading_and_sheet_values_are_config_errors(path, value, monkeypatch):
    # an air_ratio below 1 never reached the padding target; grading is
    # stubbed out so a missed check fails instead of hanging
    monkeypatch.setattr(cli, "graded_sheet_rows", _no_grading)
    raw = _with(json.loads((CONFIG_DIR / "sheet2d_circle.json").read_text()), path, value)
    with pytest.raises(ConfigError) as err:
        build_2d_case(ScenarioConfig.from_dict(raw), 2.0)
    assert err.value.path == path


def test_bad_2d_value_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "graded_sheet_rows", _no_grading)
    raw = _with(json.loads((CONFIG_DIR / "sheet2d_circle.json").read_text()),
                "grid.air_ratio", 0.5)
    code, err = _exit_code_and_err(tmp_path, capsys, raw, "run-2d")
    assert code == 2 and "grid.air_ratio" in err


def test_optional_2d_fields_default_to_the_shipped_values():
    raw = json.loads((CONFIG_DIR / "sheet2d_circle.json").read_text())
    mesh, material, regions, _ = build_2d_case(ScenarioConfig.from_dict(raw), 2.0)
    for section, key in (("grid", "air_ratio"), ("grid", "axial_factor"),
                         ("sheet", "mu_r"), ("sheet", "air_factor")):
        del raw[section][key]
    bare = build_2d_case(ScenarioConfig.from_dict(raw), 2.0)
    assert (bare[0], bare[1], bare[2]) == (mesh, material, regions)


@pytest.mark.parametrize("path, value", [
    ("length", math.inf), ("dz", math.inf), ("pulse.amplitude", math.inf), ("dz", 10 ** 400),
    ("scheme", ["both"]), ("svg", "no"), ("svg", 1)])
def test_bad_1d_values_are_config_errors(path, value):
    raw = _with(json.loads((CONFIG_DIR / "fig_pulse1d_pe2.json").read_text()), path, value)
    with pytest.raises(ConfigError) as err:
        build_1d_case(ScenarioConfig.from_dict(raw), 2.0)
    assert err.value.path == path


@pytest.mark.parametrize("key, value", [
    ("upstream_elements", 40.7), ("plateau_elements", "40"), ("downstream_elements", 0),
    ("upstream_elements", True),
    ("amplitude", 0.0), ("amplitude", math.nan), ("amplitude", "1")])
def test_bad_sweep_counts_and_amplitude_exit_2(tmp_path, key, value, capsys):
    raw = json.loads((CONFIG_DIR / "sweep_peak_error.json").read_text())
    raw.update({"pe_sweep": {"lo": 2.0, "hi": 3.0, "points": 2}, "svg": False, key: value})
    code, err = _exit_code_and_err(tmp_path, capsys, raw, "sweep-error")
    assert code == 2 and key in err


def _exit_code_and_err(tmp_path, capsys, raw, command="run-1d"):
    """Run ``command`` on the config ``raw``; a failed run must not have
    created its output directory."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    code = main([command, "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 0 or not (tmp_path / "o").exists()
    return code, capsys.readouterr().err


@pytest.mark.parametrize("key, value, path", [
    ("pe", ["x"], "pe.0"), ("pe", [2.0, [3.0]], "pe.1"), ("pe", [math.nan], "pe.0"),
    ("pe_sweep", {"lo": 2.0, "hi": 3.0, "points": 2, "include": ["x"]}, "pe_sweep.include.0"),
    ("pe_sweep", {"lo": 2.0, "hi": 3.0, "points": 2, "include": 5.0}, "pe_sweep.include"),
    ("pe_sweep", {"lo": 2.0, "hi": 3.0, "points": 10 ** 9}, "pe_sweep.points"),
    ("pe", [2.0, -1.0], "pe.1"),
    ("pe_sweep", {"lo": 2.0, "hi": 3.0, "points": 2, "include": [-1.0]}, "pe_sweep.include.0"),
    ("pe", [2.0, 2.0], "pe.1"), ("pe", [3.0, 2.0, 3.0], "pe.2"),
    # the only repeat is the last of 20,000 entries: a set of the values
    # seen finds it in linear time, where a scan of the earlier ones was quadratic
    ("pe", [2.0 + k for k in range(19_999)] + [2.0], "pe.19999")])
@pytest.mark.parametrize("command, config", [("run-1d", "fig_pulse1d_pe2.json"),
                                             ("run-2d", "sheet2d_circle.json")])
def test_pe_entries_go_through_the_validator(tmp_path, capsys, key, value, path, command, config):
    # the entries used to be read with a bare float(): "x" ended in a
    # traceback with exit 1. A negative Pe used to pass, so run-1d wrote the
    # Pe = 2 CSV and SVG before it failed on Pe = -1. A repeated Pe made
    # run-2d end in a KeyError traceback after it wrote the first case's CSV,
    # and run-1d solve and write each repeated case twice
    raw = json.loads((CONFIG_DIR / config).read_text())
    raw.pop("pe")
    raw[key] = value
    code, err = _exit_code_and_err(tmp_path, capsys, raw, command)
    assert code == 2 and f"'{path}'" in err


@pytest.mark.parametrize("path, value", [
    ("dimension", True), ("dz", True), ("length", False), ("pulse.amplitude", True),
    ("pe", [True])])
def test_json_booleans_are_not_numbers(tmp_path, capsys, path, value):
    # bool is a subclass of int: {"dimension": true} used to read as 1
    raw = _with(json.loads((CONFIG_DIR / "fig_pulse1d_pe2.json").read_text()), path, value)
    raw["svg"] = False
    code, err = _exit_code_and_err(tmp_path, capsys, raw)
    assert code == 2 and "got bool" in err and f"'{path}" in err


def test_length_must_be_a_whole_number_of_elements():
    raw = json.loads((CONFIG_DIR / "fig_pulse1d_pe2.json").read_text())
    with pytest.raises(ConfigError) as err:
        build_1d_case(ScenarioConfig.from_dict({**raw, "length": 10.1}), 2.0)
    assert err.value.path == "length"
    # the shipped 10.0 / 0.2 is 50 elements up to rounding
    raw = json.loads((CONFIG_DIR / "fig_pulse1d_pe2000.json").read_text())
    mesh, _, _ = build_1d_case(ScenarioConfig.from_dict(raw), 2000.0)
    assert mesh.node_count == 51


def _no_assembly(*args):
    raise AssertionError("assembly reached with an oversized mesh")


@pytest.mark.parametrize("config, path, value, field", [
    ("sheet2d_circle.json", "grid.nz", cli.MAX_NZ + 1, "grid.nz"),
    ("sheet2d_circle.json", "grid.nz", 814, "grid.nz"),   # 41 node rows: 100,122 dofs
    ("fig_pulse1d_pe2.json", "length", 1e9, "length"),    # 4e9 elements of dz = 0.25
    ("sweep_peak_error.json", "upstream_elements", cli.MAX_SWEEP_ELEMENTS + 1,
     "upstream_elements"),
    ("sweep_peak_error.json", "plateau_elements", cli.MAX_SWEEP_ELEMENTS + 1, "plateau_elements"),
    ("sweep_peak_error.json", "downstream_elements", 10 ** 12, "downstream_elements"),
    # 400 Pe values of the shipped sheet's 4,059 dofs: 1,623,600 dofs held by one run
    ("sheet2d_circle.json", "pe", [2.0 + k for k in range(400)], "pe"),
    # 48,781 Pe values of the shipped pulse's 41 nodes: 2,000,021 nodes held by one run
    ("fig_pulse1d_pe2.json", "pe", [2.0 + k for k in range(48_781)], "pe")])
def test_mesh_size_caps_exit_2_before_any_assembly(tmp_path, capsys, monkeypatch, config, path,
                                                   value, field):
    monkeypatch.setattr(fem1d, "assemble_1d", _no_assembly)
    monkeypatch.setattr(fem2d, "assemble_2d", _no_assembly)
    raw = _with(json.loads((CONFIG_DIR / config).read_text()), path, value)
    if path == "pe":   # ascending, so a cap checked per point would solve Pe = 2 first
        raw.pop("pe_sweep", None)
    raw["svg"] = False
    command = {"sheet2d_circle.json": "run-2d", "fig_pulse1d_pe2.json": "run-1d",
               "sweep_peak_error.json": "sweep-error"}[config]
    code, err = _exit_code_and_err(tmp_path, capsys, raw, command)
    assert code == 2 and f"'{field}'" in err


def test_mesh_size_caps_admit_the_shipped_and_benchmarked_sizes():
    sheet = lambda: json.loads((CONFIG_DIR / "sheet2d_circle.json").read_text())
    for nz, dofs in ((33, 4059), (257, 31_611), (813, 99_999)):   # 257: the refined sheet
        mesh = build_2d_case(ScenarioConfig.from_dict(_with(sheet(), "grid.nz", nz)), 2.0)[0]
        assert 3 * mesh.node_count == dofs
    # the shipped 3-Pe sheet, and 16 Pe values of the largest sheet: 1,599,984
    # dofs held by one run, just inside MAX_RUN_DOFS_2D
    shipped = ScenarioConfig.from_dict(sheet())
    assert len(shipped.pe_values) == 3 and build_2d_case(shipped, 2.0)[0].node_count == 1353
    widest = _with(_with(sheet(), "grid.nz", 813), "pe", [2.0 + k for k in range(16)])
    assert 3 * build_2d_case(ScenarioConfig.from_dict(widest), 2.0)[0].node_count * 16 == 1_599_984
    thin = _with(_with(sheet(), "grid.conductor_rows", 2), "sheet.air_factor", 0.0)
    mesh = build_2d_case(ScenarioConfig.from_dict(_with(thin, "grid.nz", cli.MAX_NZ)), 2.0)[0]
    assert mesh.ny == 3
    pulse = json.loads((CONFIG_DIR / "fig_pulse1d_pe2.json").read_text())
    longest = dict(pulse, length=pulse["dz"] * (cli.MAX_NODES_1D - 1))
    assert build_1d_case(ScenarioConfig.from_dict(longest), 2.0)[0].node_count == cli.MAX_NODES_1D
    with pytest.raises(ConfigError, match="at most"):
        build_1d_case(ScenarioConfig.from_dict(dict(pulse, length=pulse["dz"] * cli.MAX_NODES_1D)),
                      2.0)
    # 2 Pe values of the longest run: 2,000,000 nodes held by one run, at MAX_RUN_NODES_1D
    assert build_1d_case(ScenarioConfig.from_dict(dict(longest, pe=[2.0, 3.0])), 2.0)[0] \
        .node_count * 2 == cli.MAX_RUN_NODES_1D
    with pytest.raises(ConfigError, match="nodes in one run"):
        build_1d_case(ScenarioConfig.from_dict(dict(longest, pe=[2.0, 3.0, 4.0])), 2.0)
    # the tests' Galerkin reference of the shipped sweep at Pe = 1000
    coarse = fem1d.rect_pulse_case(1000.0, 0.2, 40, 30, 40)[0]
    assert refined_mesh(coarse, 1000.0).node_count == 232_001 <= cli.MAX_NODES_1D


def test_overflowing_velocity_exits_2(tmp_path, capsys, monkeypatch):
    # 2 * Pe / (mu * sigma * dz) overflows to an infinite velocity, which
    # used to reach the solver and end in a traceback. Every case is built
    # before any is solved or written: a Pe whose velocity overflows fails
    # the run before the good Pe = 2 is assembled. 1D has no velocity: there
    # the load 2 Pe dz overflows, and the error names the Pe list, in run-1d
    # and in sweep-error alike
    monkeypatch.setattr(fem1d, "assemble_1d", _no_assembly)
    for config, command in (("fig_pulse1d_pe2.json", "run-1d"),
                            ("sweep_peak_error.json", "sweep-error")):
        raw = json.loads((CONFIG_DIR / config).read_text())
        raw.pop("pe_sweep", None)
        code, err = _exit_code_and_err(tmp_path, capsys, _with(raw, "pe", [2.0, 1e308]), command)
        assert code == 2 and "'pe'" in err and "overflows the 1D load" in err
    # run-2d too: it used to assemble and solve Pe = 2 before it built Pe = 1e308,
    # and then it blamed sheet.sigma for the overflow of 2 Pe/dz
    monkeypatch.setattr(fem2d, "assemble_2d", _no_assembly)
    raw = _with(json.loads((CONFIG_DIR / "sheet2d_circle.json").read_text()), "pe", [2.0, 1e308])
    code, err = _exit_code_and_err(tmp_path, capsys, raw, "run-2d")
    assert code == 2 and "'pe'" in err and "overflows mu sigma u_z" in err


@pytest.mark.parametrize("pe", [2.0 ** 53, 2.0 ** 53 + 2, 1e16, 1e103])
def test_1d_pe_past_the_float_ceiling_exits_2(tmp_path, capsys, monkeypatch, pe):
    # from 2^53 on the rows 1 +- Pe round to the Pe -> oo limit (at 2^53 + 2
    # their interior diagonal sums to 4), so a run there solved another Pe;
    # sweep-error at 1e103 ended in the formula's OverflowError
    monkeypatch.setattr(fem1d, "assemble_1d", _no_assembly)
    for config, command in (("fig_pulse1d_pe2.json", "run-1d"),
                            ("sweep_peak_error.json", "sweep-error")):
        raw = json.loads((CONFIG_DIR / config).read_text())
        raw.pop("pe_sweep", None)
        code, err = _exit_code_and_err(tmp_path, capsys, _with(raw, "pe", [2.0, pe]), command)
        assert code == 2 and "'pe'" in err and "2^53 or more" in err
    raw = _with(json.loads((CONFIG_DIR / "sweep_peak_error.json").read_text()), "pe_sweep.hi", pe)
    code, err = _exit_code_and_err(tmp_path, capsys, raw, "sweep-error")
    assert code == 2 and "'pe_sweep'" in err
    # the largest Pe below the ceiling still runs
    assert build_1d_case(load_cfg("fig_pulse1d_pe2.json", pe=[2.0 ** 53 - 1]), 2.0 ** 53 - 1)


@pytest.mark.parametrize("config, overrides, field", [
    # lz = 2 * radius * axial_factor overflowed to dz = inf: exit 3, "pivot nan"
    ("sheet2d_circle.json", {"field.radius": 1e300, "grid.axial_factor": 1e10},
     "grid.axial_factor"),
    # mu * sigma overflowed: NaN in the coupled blocks and exit 3
    ("sheet2d_circle.json", {"sheet.sigma": 1e300, "sheet.mu_r": 1e300}, "sheet.sigma")])
def test_overflowing_configs_exit_2_naming_the_field(tmp_path, capsys, config, overrides, field):
    raw = json.loads((CONFIG_DIR / config).read_text())
    for path, value in overrides.items():
        _with(raw, path, value)
    code, err = _exit_code_and_err(tmp_path, capsys, raw, "run-2d")
    assert code == 2 and f"'{field}'" in err


def test_graded_sheet_rows_are_capped():
    # at air_ratio 1 an air_factor of 1e4 would plan 40,002 rows per side
    with pytest.raises(ConfigError) as err:
        graded_sheet_rows(1.3, 4, 1e4, 1.0)
    assert err.value.path == "sheet.air_factor"
    heights, mid = graded_sheet_rows(1.3, 16, 5.0, 1.3)   # the shipped grading
    assert mid == 20 and len(heights) == 40


def test_pe_sweep_expansion():
    cfg = ScenarioConfig.from_dict({
        "dimension": 1,
        "pe_sweep": {"lo": 2.0, "hi": 8.0, "points": 3, "include": [5.0]}})
    assert np.allclose(cfg.pe_values, (2.0, 4.0, 5.0, 8.0), rtol=1e-12)
    assert 5.0 in cfg.pe_values
    assert list(cfg.pe_values) == sorted(cfg.pe_values)


# ---------------------------------------------------------------------------
# keys that no schema table names


def test_misspelt_keys_exit_2_naming_every_unknown_key(tmp_path, capsys):
    # each of these used to be dropped, so run-2d wrote all 8 CSVs of the
    # default air_ratio 1.3 and exited 0
    raw = json.loads((CONFIG_DIR / "sheet2d_circle.json").read_text())
    raw["grid"]["air_ratoi"] = 0.9
    raw["sheet"]["mu"] = 1000
    raw["pee"] = [2.0]
    code, err = _exit_code_and_err(tmp_path, capsys, raw, "run-2d")
    assert code == 2 and "unknown key" in err
    assert all(f"{path}" in err for path in ("grid.air_ratoi", "sheet.mu", "pee"))


@pytest.mark.parametrize("config, command, path, value", [
    ("fig_pulse1d_pe2.json", "run-1d", "pulse.amplitdue", 2.0),
    ("fig_pulse1d_pe2.json", "run-1d", "upstream_elements", 40),   # a sweep-error field
    ("sweep_peak_error.json", "sweep-error", "upstream_element", 40),
    ("sweep_peak_error.json", "sweep-error", "pulse", {"a": 1.0}),   # a run-1d section
    ("sheet2d_circle.json", "run-2d", "field.a", 1.3),    # a rect_pulse field on a circle
    ("sheet2d_circle.json", "run-2d", "dz", 0.1),
    ("sheet2d_rect.json", "run-2d", "field.radius", 1.3),
    ("sheet2d_rect.json", "run-2d", "grid.air-ratio", 1.3),
    ("fig_pulse1d_pe2.json", "run-1d", "material", {"sigma": 1.0})])   # Pe alone sets 1D
def test_unknown_keys_of_each_subcommand_exit_2(tmp_path, capsys, config, command, path, value):
    raw = _with(json.loads((CONFIG_DIR / config).read_text()), path, value)
    raw["svg"] = False
    code, err = _exit_code_and_err(tmp_path, capsys, raw, command)
    assert code == 2 and f"'{path}': unknown key" in err


def test_a_dotted_or_empty_key_is_unknown():
    raw = json.loads((CONFIG_DIR / "sheet2d_circle.json").read_text())
    for key in ("grid.air_ratio", ""):   # not the air_ratio of the grid section
        cfg = ScenarioConfig.from_dict({**raw, key: 0.5})
        with pytest.raises(ConfigError, match="unknown key") as err:
            build_2d_case(cfg, 2.0)
        assert err.value.path == key


def test_underscore_keys_are_comments_at_any_depth():
    raw = json.loads((CONFIG_DIR / "sheet2d_circle.json").read_text())
    mesh = build_2d_case(ScenarioConfig.from_dict(raw), 2.0)[0]
    for section in ("grid", "sheet", "field"):
        raw[section]["_why"] = {"any": ["value"]}
    assert build_2d_case(ScenarioConfig.from_dict(raw), 2.0)[0] == mesh


def test_pe_excludes_pe_sweep(tmp_path, capsys):
    # the pe_sweep beside a pe list used to be ignored
    raw = json.loads((CONFIG_DIR / "fig_pulse1d_pe2.json").read_text())
    raw["pe_sweep"] = {"lo": 2.0, "hi": 3.0, "points": 2}
    code, err = _exit_code_and_err(tmp_path, capsys, raw)
    assert code == 2 and "'pe_sweep'" in err
    with pytest.raises(ConfigError) as err:
        ScenarioConfig.from_dict({"dimension": 1})
    assert err.value.path == "pe"


@pytest.mark.parametrize("config, command, section, value", [
    ("fig_pulse1d_pe2.json", "run-1d", "pulse", [1]),
    ("fig_pulse1d_pe2.json", "run-1d", "pulse", 3.9),
    ("sheet2d_circle.json", "run-2d", "grid", None),
    ("sweep_peak_error.json", "sweep-error", "pe_sweep", [1.1, 1000.0])])
def test_a_section_of_the_wrong_type_is_named(tmp_path, capsys, config, command, section, value):
    # a list section used to report its first field as missing
    raw = json.loads((CONFIG_DIR / config).read_text())
    raw[section] = value
    code, err = _exit_code_and_err(tmp_path, capsys, raw, command)
    assert code == 2 and f"'{section}': expected dict" in err
    with pytest.raises(ConfigError, match="'<file>': expected dict, got list"):
        ScenarioConfig.from_dict([raw])


def test_from_dict_reads_only_the_shared_fields():
    # the subcommand's table, and its unknown-key check, are read where the
    # subcommand is known: by build_1d_case, build_2d_case and sweep_error
    raw = json.loads((CONFIG_DIR / "sweep_peak_error.json").read_text())
    cfg = ScenarioConfig.from_dict({**raw, "dz": "not read here", "pee": 1})
    assert len(cfg.pe_values) == 26 and cfg.pe_key == "pe_sweep"
    with pytest.raises(ConfigError) as err:
        build_1d_case(cfg, 2.0)
    assert err.value.path == "dz"
    with pytest.raises(ConfigError) as err:
        cfg.fields("run-2d")
    assert err.value.path == "dimension"


# ---------------------------------------------------------------------------
# run-1d


def test_run_1d_outputs_and_determinism(tmp_path):
    cfg = load_cfg("fig_pulse1d_pe2.json", svg=True)
    rec = run_1d(cfg, tmp_path / "a")
    csvs = sorted(p for p in rec.outputs if p.endswith(".csv"))
    assert len(csvs) == 2  # both schemes, one Pe
    text = Path(csvs[0]).read_text()
    assert text.startswith("# eddyfem ")
    assert "# config" in text
    header = text.splitlines()[2]
    assert header == "z,a_y,b_x"
    # last node row has an empty b_x cell
    assert text.rstrip("\n").splitlines()[-1].endswith(",")
    svgs = [p for p in rec.outputs if p.endswith(".svg")]
    assert svgs and Path(svgs[0]).read_text().startswith("<svg")
    run_1d(cfg, tmp_path / "b")
    for p in csvs:
        q = str(Path(tmp_path / "b") / Path(p).name)
        assert Path(p).read_bytes() == Path(q).read_bytes()


# sha256 of every file of the two shipped run-1d configs and of the shipped
# sweep. The 1D solve is a recurrence over Python floats, so these bytes do
# not depend on the BLAS or LAPACK build. The sweep's Pe grid comes from
# decimal's correctly rounded ln and exp, not from numpy's per-CPU SIMD
# loops, so it does not depend on the CPU either. The 2D files are left
# unpinned: their bytes come from the LAPACK band LU of the build.
RUN_1D_SHA256 = {
    "fig_pulse1d_pe2.json": {
        "run1d_averaged_pe2.0.csv": "5999e302df4e8215ac4b8277101f147fe96c3d03392c10325814b6b79be38c10",
        "run1d_averaged_pe2.0.svg": "5dd5bd085350ded9c65068ee782ae149b6113fc7d4c433fdb67931cd90005945",
        "run1d_galerkin_pe2.0.csv": "bf3975b722d9e59001340324316200311610395c01a999d00ef3c8ccb704d8ce",
        "run1d_galerkin_pe2.0.svg": "fd156b3f5ff7c13cf4a92ab1db9d2b25674c99ac56c81d6b85bb4f31b64befae",
    },
    "fig_pulse1d_pe2000.json": {
        "run1d_averaged_pe2000.0.csv": "e5195465f29e815735d3ace25852b32d6e42b91d81bd3336456ab8da23872fc7",
        "run1d_averaged_pe2000.0.svg": "8999ceffda3dabcc09d1dc19ffa590d88f9bed064ae34c0ee288f1f5bec5bf3e",
        "run1d_galerkin_pe2000.0.csv": "6789c6392a57b5dc54132f4809ceff76af1856e03f0f9a640d00efad9150e30a",
        "run1d_galerkin_pe2000.0.svg": "cdefda24355aa53fc6cbfe65c4e7155aded147170186aa8a9959972a6d2c7b3a",
    },
}


SWEEP_SHA256 = {
    "sweep_error.csv": "5f806bb35a2c84f374d9eabbe577cefb9a62076a8414bbcceaf28591530ee1dc",
    "sweep_error.svg": "d8e4b45a166a3bb2ee60fab6b5fdf89bf86c7126396405ee7047f418a3581b83",
}


@pytest.mark.parametrize("config", sorted(RUN_1D_SHA256))
def test_shipped_run_1d_outputs_keep_their_bytes(tmp_path, config):
    assert main(["run-1d", "--config", str(CONFIG_DIR / config), "--out", str(tmp_path)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert got == RUN_1D_SHA256[config]


def test_shipped_sweep_outputs_keep_their_bytes(tmp_path):
    config = CONFIG_DIR / "sweep_peak_error.json"
    assert main(["sweep-error", "--config", str(config), "--out", str(tmp_path)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert got == SWEEP_SHA256


# numpy's AVX-512 loops off: with them, np.geomspace moved 3 of the shipped
# sweep's Pe by an ulp on an AVX-512 CPU. These are the AVX-512 targets that
# numpy 2.4 dispatches; a name it does not dispatch makes it warn on import
NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"


def test_the_sweep_grid_does_not_depend_on_numpys_cpu_dispatch():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (f"import sys; sys.path.insert(0, {str(src)!r})\n"
            "from eddyfem.cli import ScenarioConfig\n"
            f"print(repr(ScenarioConfig.load({str(CONFIG_DIR / 'sweep_peak_error.json')!r}).pe_values))")
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True,
                         check=True, timeout=120, env={"NPY_DISABLE_CPU_FEATURES": NO_AVX512})
    assert out.stdout.strip() == repr(load_cfg("sweep_peak_error.json").pe_values)


@pytest.mark.parametrize("command, config", [
    ("run-1d", "fig_pulse1d_pe2.json"), ("run-1d", "fig_pulse1d_pe2000.json"),
    ("run-2d", "sheet2d_circle.json"), ("run-2d", "sheet2d_rect.json"),
    ("sweep-error", "sweep_peak_error.json")])
def test_the_echoed_config_reproduces_the_run(tmp_path, command, config):
    # the config is the whole input of a run and every CSV echoes it: a
    # rerun from the '# config' line of one CSV writes every file again
    first, again, echoed = tmp_path / "first", tmp_path / "again", tmp_path / "echoed.json"
    assert main([command, "--config", str(CONFIG_DIR / config), "--out", str(first)]) == 0
    line = min(first.glob("*.csv")).read_text().splitlines()[1]
    assert line.startswith("# config ")
    echoed.write_text(line[len("# config "):])
    assert main([command, "--config", str(echoed), "--out", str(again)]) == 0
    files = lambda out: {p.name: p.read_bytes() for p in out.iterdir()}
    assert files(again) == files(first)


def test_run_1d_csv_round_trips_floats(tmp_path):
    cfg = load_cfg("fig_pulse1d_pe2.json", svg=False, scheme="averaged")
    rec = run_1d(cfg, tmp_path)
    rows = [ln.split(",") for ln in Path(rec.outputs[0]).read_text().splitlines()[3:]]
    z = np.array([float(r[0]) for r in rows])
    assert z[1] - z[0] == 0.25  # exact round trip of the node spacing


# ---------------------------------------------------------------------------
# run-2d


def small_2d_cfg(**overrides):
    raw = json.loads((CONFIG_DIR / "sheet2d_circle.json").read_text())
    raw.update({"pe": [2.0], "scheme": "averaged", "svg": False})
    raw["grid"] = dict(raw["grid"], nz=17, conductor_rows=8)
    raw.update(overrides)
    return ScenarioConfig.from_dict(raw)


def test_run_2d_outputs(tmp_path):
    cfg = small_2d_cfg()
    rec = run_2d(cfg, tmp_path)
    names = {Path(p).name for p in rec.outputs}
    assert "centerline_averaged.csv" in names
    assert "field2d_averaged_pe2.0.csv" in names
    field = Path(tmp_path / "field2d_averaged_pe2.0.csv").read_text().splitlines()
    assert field[2] == "y,z,b_x,a_y,a_z,phi"
    assert rec.stats[0]["dofs"] > 0


def test_field_csv_rows_are_the_element_centroids_y_major(tmp_path, monkeypatch):
    # the per-element loop the field CSV was written with before it was
    # written from columns: same values, same order, same text
    solved = []
    solve = fem2d.solve_2d
    monkeypatch.setattr(fem2d, "solve_2d",
                        lambda system, more_rhs=None: solved.append(solve(system, more_rhs))
                        or solved[-1])
    run_2d(small_2d_cfg(), tmp_path)
    (sol,) = solved[0]
    zc = 0.5 * (sol.mesh.node_z()[:-1] + sol.mesh.node_z()[1:])
    yc = 0.5 * (sol.mesh.node_y()[:-1] + sol.mesh.node_y()[1:])
    cent = lambda f: 0.25 * (f[:-1, :-1] + f[:-1, 1:] + f[1:, :-1] + f[1:, 1:])
    ay, az, phi = cent(sol.a_y), cent(sol.a_z), cent(sol.phi)
    rows = [",".join(repr(float(v)) for v in (yc[mi], zc[ni], sol.b_x[mi, ni], ay[mi, ni],
                                              az[mi, ni], phi[mi, ni]))
            for mi in range(len(yc)) for ni in range(len(zc))]
    assert (tmp_path / "field2d_averaged_pe2.0.csv").read_text().splitlines()[3:] == rows


def test_run_2d_zero_amplitude_gives_zero_files(tmp_path):
    raw = json.loads((CONFIG_DIR / "sheet2d_circle.json").read_text())
    raw.update({"pe": [2.0], "scheme": "averaged", "svg": False})
    raw["grid"] = dict(raw["grid"], nz=17, conductor_rows=8)
    raw["field"] = dict(raw["field"], amplitude=0.0)
    cfg = ScenarioConfig.from_dict(raw)
    rec = run_2d(cfg, tmp_path)
    rows = Path(tmp_path / "field2d_averaged_pe2.0.csv").read_text().splitlines()[3:]
    vals = np.array([[float(v) for v in r.split(",")[2:]] for r in rows])
    assert np.max(np.abs(vals)) == 0.0


def test_run_2d_rect_pulse_field(tmp_path):
    raw = json.loads((CONFIG_DIR / "sheet2d_rect.json").read_text())
    raw.update({"pe": [60.0], "scheme": "galerkin", "svg": False})
    raw["grid"] = dict(raw["grid"], nz=17, conductor_rows=8)
    rec = run_2d(ScenarioConfig.from_dict(raw), tmp_path)
    assert (tmp_path / "centerline_galerkin.csv").exists()
    assert (tmp_path / "field2d_galerkin_pe60.0.csv").exists()
    assert rec.stats[0]["residual"] < 1e-6


def test_run_2d_factors_once_per_pe_and_keeps_output_order(tmp_path, monkeypatch):
    calls = []
    solve = fem2d.solve_2d

    def counting_solve(system, more_rhs=None):
        calls.append(len(more_rhs or ()))
        return solve(system, more_rhs)

    monkeypatch.setattr(fem2d, "solve_2d", counting_solve)
    cfg = small_2d_cfg(scheme="both", pe=[2.0, 60.0])
    rec = run_2d(cfg, tmp_path / "both")
    assert calls == [1, 1]   # one factorization per Pe serves both schemes
    assert [(st["scheme"], st["pe"]) for st in rec.stats] == [
        ("galerkin", 2.0), ("galerkin", 60.0), ("averaged", 2.0), ("averaged", 60.0)]
    assert [Path(p).name for p in rec.outputs] == [
        "field2d_galerkin_pe2.0.csv", "field2d_galerkin_pe60.0.csv", "centerline_galerkin.csv",
        "field2d_averaged_pe2.0.csv", "field2d_averaged_pe60.0.csv", "centerline_averaged.csv"]
    # the shared solve writes the same data as a single-scheme run (the
    # '#' header lines echo the config, which differs)
    alone = run_2d(small_2d_cfg(pe=[2.0, 60.0]), tmp_path / "alone")
    body = lambda path: [ln for ln in Path(path).read_text().splitlines()
                         if not ln.startswith("#")]
    for path in alone.outputs:
        assert body(path) == body(tmp_path / "both" / Path(path).name), path


def test_run_2d_assembles_once_per_pe_and_prints_band_widths(tmp_path, monkeypatch, capsys):
    calls = []
    assemble = fem2d.assemble_2d

    def counting_assemble(*args):
        calls.append(args[-1])
        return assemble(*args)

    monkeypatch.setattr(fem2d, "assemble_2d", counting_assemble)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_2d_cfg(scheme="both", pe=[2.0, 60.0]).raw))
    assert main(["run-2d", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 2   # one matrix per Pe; the other scheme only needs rhs_2d
    stats = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("scheme=")]
    assert len(stats) == 4
    for line in stats:   # the even input of the symmetric sheet: one mirror sector
        fields = dict(kv.split("=") for kv in line.split())
        assert len(fields["band_kl"].split(",")) == 1


def test_run_2d_builds_no_csr(tmp_path, monkeypatch, capsys):
    # the stats lines read the dof count off the mesh, so the lazily built
    # CSR of the assembled system is never needed
    def no_csr(*args, **kwargs):
        raise AssertionError("a CSR matrix was built")

    monkeypatch.setattr("scipy.sparse.csr_matrix", no_csr)
    cfg = small_2d_cfg(scheme="both")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg.raw))
    assert main(["run-2d", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    stats = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("scheme=")]
    dofs = 3 * build_2d_case(cfg, 2.0)[0].node_count
    assert len(stats) == 2 and all(f" dofs={dofs} " in ln for ln in stats)


@pytest.mark.parametrize("grid, pe", [({}, 1e8), ({"nz": 5, "conductor_rows": 2}, 1e300)],
                         ids=["shipped", "minimal_grid"])
def test_shipped_sheet_exits_3_past_its_pe_ceiling(tmp_path, capsys, grid, pe):
    # the pivot floor eps*||A||inf grows like Pe while the smallest pivot
    # falls like 1/Pe; on the shipped circle sheet they cross near Pe = 8e7,
    # and a minimal grid fails the same way at Pe 1e300
    raw = _with(json.loads((CONFIG_DIR / "sheet2d_circle.json").read_text()), "pe", [pe])
    raw["grid"].update(grid)
    code, err = _exit_code_and_err(tmp_path, capsys, raw, "run-2d")
    assert code == 3 and "singular or too ill-conditioned to factor" in err


def test_1d_failure_leaves_no_output_directory(tmp_path, capsys, monkeypatch):
    # every (scheme, Pe) is solved before the output directory is made, so
    # a failure in the second solve leaves none (checked by _exit_code_and_err)
    calls = []
    solve_1d = fem1d.solve_1d

    def failing_second(system):
        calls.append(system)
        if len(calls) == 2:
            raise NumericalFailureError("forced failure")
        return solve_1d(system)

    monkeypatch.setattr(fem1d, "solve_1d", failing_second)
    raw = json.loads((CONFIG_DIR / "fig_pulse1d_pe2.json").read_text())
    code, err = _exit_code_and_err(tmp_path, capsys, raw)
    assert code == 3 and "averaged, Pe = 2: forced failure" in err and len(calls) == 2


def test_2d_failure_names_its_pe(tmp_path, capsys):
    # both schemes share one factorization, so the reason names the Pe alone
    raw = _with(json.loads((CONFIG_DIR / "sheet2d_circle.json").read_text()), "pe", [2.0, 1e9])
    code, err = _exit_code_and_err(tmp_path, capsys, raw, "run-2d")
    assert code == 3 and "numerical failure: Pe = 1e+09: 2D band LU pivot" in err


@pytest.mark.parametrize("failing_call, label", [(3, "galerkin, Pe = 5"),
                                                 (4, "averaged, Pe = 5")])
def test_sweep_failure_names_its_case(tmp_path, capsys, monkeypatch, failing_call, label):
    # each Pe solves each scheme on its pulse mesh
    calls = []
    solve_1d = fem1d.solve_1d

    def failing(system):
        calls.append(system)
        if len(calls) == failing_call:
            raise NumericalFailureError("forced failure")
        return solve_1d(system)

    monkeypatch.setattr(fem1d, "solve_1d", failing)
    raw = {"dimension": 1, "pe": [2.0, 5.0], "dz": 0.2, "upstream_elements": 4,
           "plateau_elements": 6, "downstream_elements": 4}
    code, err = _exit_code_and_err(tmp_path, capsys, raw, "sweep-error")
    assert code == 3 and f"numerical failure: {label}: forced failure" in err


@pytest.mark.parametrize("key, factor", [("sigma", 2.0), ("mu_r", 3.0)])
def test_sheet_sigma_and_mu_r_scale_phi_alone(key, factor):
    # at a fixed Pe every row reads mu*sigma*u = 2 Pe/dz, and phi' = mu*sigma*phi
    # takes up the rest: mu*sigma sets the scale of phi and moves no other
    # field (about 3e-13 of its maximum here, 8e-13 for phi). That is why
    # run-2d keeps sheet.sigma and mu_r, where run-1d has no material at all
    raw = json.loads((CONFIG_DIR / "sheet2d_circle.json").read_text())

    def solve(raw):
        mesh, material, regions, profile = build_2d_case(ScenarioConfig.from_dict(raw), 60.0)
        system = fem2d.assemble_2d(mesh, material, regions, profile, Scheme.GALERKIN)
        more = [fem2d.rhs_2d(mesh, material, regions, profile, Scheme.ELEMENT_AVERAGED)]
        return fem2d.solve_2d(system, more_rhs=more)

    base = solve(raw)
    raw["sheet"][key] *= factor
    for old, new in zip(base, solve(raw)):
        for name, scale in (("b_x", 1.0), ("a_y", 1.0), ("a_z", 1.0), ("phi", factor)):
            ref = getattr(old, name)
            assert np.max(np.abs(scale * getattr(new, name) - ref)) <= 1e-11 * np.max(np.abs(ref)), \
                name


def test_build_2d_case_grid_layout():
    cfg = small_2d_cfg()
    mesh, material, regions, profile = build_2d_case(cfg, 2.0)
    ys = mesh.node_y()
    assert ys[np.argmin(np.abs(ys))] == 0.0          # exact centerline node
    assert sum(regions.row_multipliers) == 8         # conductor rows
    assert mesh.node_z()[0] == pytest.approx(-7.8)   # 6x field width, centered
    pe = material.mu * material.sigma * material.u_z * mesh.dz / 2
    assert pe == pytest.approx(2.0, rel=1e-12)
    assert ys[-1] - ys[0] == pytest.approx(11 * 1.3, rel=1e-9)  # d + 2*5d


# ---------------------------------------------------------------------------
# sweep


def test_sweep_flags_out_of_validity_and_matches_formula(tmp_path):
    cfg = ScenarioConfig.from_dict({
        "dimension": 1, "pe": [1.0, 2.0, 10.0],
        "dz": 0.2, "upstream_elements": 40, "plateau_elements": 30,
        "downstream_elements": 40, "amplitude": 1.0})
    rec = sweep_error(cfg, tmp_path)
    lines = Path(rec.outputs[0]).read_text().splitlines()
    assert lines[2] == ("pe,measured_error_galerkin,formula_error_galerkin,"
                        "measured_error_averaged,formula_error_averaged,status")
    rows = [ln.split(",") for ln in lines[3:]]
    assert rows[0][0] == "1.0" and rows[0][5] == "out-of-validity"
    assert rows[0][1] == ""  # not silently dropped, flagged with empty cells
    for r in rows[1:]:
        assert r[5] == "ok"
        assert abs(float(r[1]) - float(r[2])) <= 1e-6
        assert abs(float(r[3]) - float(r[4])) <= 1e-6


def test_sweep_rows_under_the_rounding_floor_are_below_resolution(tmp_path):
    # at Pe 2^53 - 1 the Galerkin plateau deviation alternates between +1/3
    # and -1/3, with magnitudes closer than the rounding floor of b_x, so
    # rounding picks the measured peak's sign (-1/3 against the formula's
    # +1/3), and the averaged formula, -1.2e-32, lies under the floor. The
    # Pe 2 row is compared, and its columns agree
    cfg = ScenarioConfig.from_dict({
        "dimension": 1, "pe": [2.0, 2.0 ** 53 - 1], "dz": 0.2, "upstream_elements": 3,
        "plateau_elements": 15, "downstream_elements": 3})
    rec = sweep_error(cfg, tmp_path)
    rows = [ln.split(",") for ln in Path(rec.outputs[0]).read_text().splitlines()[3:]]
    assert [r[5] for r in rows] == ["ok", "below-resolution"]
    assert float(rows[1][1]) * float(rows[1][2]) < 0   # the signs the row does not compare
    for measured, formula in (rows[0][1:3], rows[0][3:5]):
        assert float(measured) == pytest.approx(float(formula), abs=1e-15)


def test_svg_line_chart_widens_a_zero_width_range_past_its_rounding(tmp_path):
    # a one-point series at 1e102 left the x range 1e102 + 1.0 == 1e102
    # wide, and the chart wrote NaN points with a RuntimeWarning; a range
    # near 0 keeps its unit width, as every shipped chart has it
    path = tmp_path / "chart.svg"
    for x, y, labels in ((1e102, 0.5, ["1e+102", "2e+102", "0.5", "1.5"]),
                         (-3.0, 1e102, ["-3", "0", "1e+102", "2e+102"]),
                         (0.25, 0.0, ["0.25", "1.25", "0", "1"])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cli.svg_line_chart(path, {"one point": (np.array([x]), np.array([y]))}, "t")
        text = path.read_text()
        assert re.findall(r'points="([^"]*)"', text) == ["48.00,352.00"]
        assert re.findall(r'font-size="10">([^<]*)<', text) == labels


def test_svg_line_chart_widens_a_range_downward_where_upward_overflows(tmp_path):
    # 1.7e308 + 1.7e308 is inf: the x axis was labelled 1.7e+308 to inf
    path = tmp_path / "chart.svg"
    cli.svg_line_chart(path, {"one point": (np.array([1.7e308]), np.array([-1.7e308]))}, "t")
    text = path.read_text()
    assert re.findall(r'points="([^"]*)"', text) == ["592.00,352.00"]
    assert re.findall(r'font-size="10">([^<]*)<', text) == ["0", "1.7e+308", "-1.7e+308", "0"]


def test_sweep_without_a_valid_pe_writes_no_chart(tmp_path, capsys):
    # with no Pe > 1 the chart has no points; it used to end in a numpy
    # traceback (exit 1) after the CSV was written
    raw = {"dimension": 1, "pe": [0.5, 1.0], "dz": 0.2, "svg": True}
    code, _ = _exit_code_and_err(tmp_path, capsys, raw, "sweep-error")
    assert code == 0
    assert [p.name for p in (tmp_path / "o").iterdir()] == ["sweep_error.csv"]


def test_measured_error_tracks_closed_form():
    for pe in (2.0, 50.0):
        got = measured_peak_error(pe, 0.2, 40, 30, 40, Scheme.ELEMENT_AVERAGED)
        assert got == pytest.approx(peak_error(Scheme.ELEMENT_AVERAGED, pe, 1.0), abs=1e-9)
    # the level is -amplitude, so the error scales with it
    got = measured_peak_error(2.0, 0.2, 40, 30, 40, Scheme.ELEMENT_AVERAGED, 3.0)
    assert got == pytest.approx(peak_error(Scheme.ELEMENT_AVERAGED, 2.0, 3.0), abs=3e-9)


@pytest.mark.parametrize("path, value, points", [
    (None, None, 26),
    # Pe values whose refined Galerkin reference would have 116 * ceil(2 Pe) + 1
    # nodes: 232,000,001 at Pe = 1e6, 1,160,001 at Pe = 5000
    ("pe_sweep.hi", 1e6, 27), ("pe_sweep.include", [5000.0], 26), ("pe", [2.0, 5000.0], 2)])
def test_sweep_solves_only_its_pulse_meshes(tmp_path, monkeypatch, path, value, points):
    # the measured level is the model's -amplitude: no refined mesh is built,
    # so no Pe makes a sweep point solve more than the 117-node pulse mesh
    nodes = []
    assemble_1d = fem1d.assemble_1d

    def recording(mesh, *args):
        nodes.append(mesh.node_count)
        return assemble_1d(mesh, *args)

    monkeypatch.setattr(fem1d, "assemble_1d", recording)
    raw = json.loads((CONFIG_DIR / "sweep_peak_error.json").read_text())
    if path is not None:
        raw = _with(raw, path, value)
    if path == "pe":
        raw.pop("pe_sweep")
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps(raw))
    assert main(["sweep-error", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
    assert len(nodes) == 2 * points and max(nodes) == 117


@pytest.mark.parametrize("plateau, pe, ok", [(1, [2.0], False), (3, [2.0], False),
                                             (5, [2.0], False), (6, [2.0], True),
                                             (3, [3.0, 2.0], False),
                                             (3, [0.5, 3.0], True), (1, [0.5, 1.0], True)])
def test_sweep_needs_a_plateau_whose_level_is_minus_amplitude(tmp_path, capsys, monkeypatch,
                                                              plateau, pe, ok):
    # the level -amplitude leaves out amplitude * e^{-2 Pe (m_c/3 + 1.5)}: over
    # 1e-6 of it at the smallest Pe > 1 (3.2e-6 for 5 elements at Pe 2, 8.3e-7
    # for 6), the config exits 2 before any solve; Pe <= 1 bounds nothing
    if not ok:
        _forbid_assembly(monkeypatch)
    raw = {"dimension": 1, "pe": pe, "dz": 0.2, "upstream_elements": 4,
           "plateau_elements": plateau, "downstream_elements": 4, "amplitude": 3.0}
    code, err = _exit_code_and_err(tmp_path, capsys, raw, "sweep-error")
    if ok:
        assert code == 0
    else:
        assert code == 2 and "'plateau_elements'" in err and not (tmp_path / "o").exists()


def test_the_sweep_solves_at_its_configured_pe(tmp_path, monkeypatch):
    # every sweep point is assembled at the Pe of the config, the one the
    # closed forms read: its element rows are the exact rows of that Pe,
    # rounded once. A velocity 2 Pe/dz and back moved some of them by an ulp
    systems = []
    assemble_1d = fem1d.assemble_1d

    def recording(mesh, pe, *args):
        systems.append((pe, assemble_1d(mesh, pe, *args)))
        return systems[-1][1]

    monkeypatch.setattr(fem1d, "assemble_1d", recording)
    cfg = load_cfg("sweep_peak_error.json")
    sweep_error(cfg, tmp_path)
    dz = cfg.raw["dz"]
    assert 241.8930976523018 in [pe for pe in cfg.pe_values if 2.0 * pe / dz * dz / 2.0 != pe]
    assert sorted({pe for pe, _ in systems}) == [pe for pe in cfg.pe_values if pe > 1.0]
    for pe, system in systems:
        exact = fem1d._rows(Fraction(pe))
        assert system.element == tuple(tuple(map(float, row)) for row in exact), pe


def test_shared_reference_gives_the_single_scheme_errors():
    both = measured_peak_errors(60.0, 0.2, 40, 30, 40, tuple(Scheme), 1.0)
    for scheme in Scheme:
        assert both[scheme] == measured_peak_error(60.0, 0.2, 40, 30, 40, scheme, 1.0)


# ---------------------------------------------------------------------------
# verify + entry point


VERIFY_TEXT = """\
[PASS] denominator factorization
    lhs expansion: 20 terms; rhs expansion: 20 terms; the difference is the zero polynomial
[PASS] consistent-mass numerator factorization
    lhs expansion: 25 terms; rhs expansion: 25 terms; the difference is the zero polynomial
    factored transverse cofactor expands to -(Z_m-1)^4: yes (equals the denominator cofactor)
    derived transverse cofactor:
        -1  Z_m^4
         4  Z_m^3
        -6  Z_m^2
         4  Z_m^1
        -1  1
[PASS] N1 factorization
    lhs expansion: 9 terms; rhs expansion: 9 terms; the difference is the zero polynomial
[PASS] galerkin peak-error bound
    (1+Pe)^3 f/B is the cubic 1/3*Pe^3 - 1/3*Pe^2 - Pe + 1 (checked at Pe = 11): yes
    |f| < B/3 for every Pe > 1: yes
    f -> B/3 as Pe -> oo: yes
    f increases for Pe >= 2: yes
[PASS] averaged peak-error bound
    (1+Pe)^3 f/B is the cubic -Pe + 1 (checked at Pe = 11): yes
    df/dPe vanishes on Pe > 1 only at Pe = 2: yes
    f(2) = -1/27 B, the bound -B/27: yes
[PASS] fem1d float element: _ROW_COEFFS = (stiffness, 2*convection), _DIVISORS = 1/element_weights
[PASS] galerkin high-Pe limit keeps Z = -1
    core.REFERENCE_INTEGRALS element, high-Pe limit: galerkin: (1/3*Z^2 + 4/3*Z + 1/3) / (Z^2 - 1)
    denominator (Z+1)^1 (Z-1)^1; numerator (Z+1)^0 (Z-1)^0
[PASS] element-averaged high-Pe limit cancels Z = -1
    core.REFERENCE_INTEGRALS element, high-Pe limit: averaged: (1/2*Z^2 + Z + 1/2) / (Z^2 - 1)
    denominator (Z+1)^1 (Z-1)^1; numerator (Z+1)^2 (Z-1)^0
[PASS] galerkin keeps the Z_n = -1 pole
    Cramer's rule on the assembled interior stencils, leading terms in Pe
    galerkin: det A ~ Pe^2 (Z_n+1)^2 (Z_n-1)^2; A_y numerator ~ Pe^2 (Z_n+1)^1 (Z_n-1)^1
[PASS] averaged cancels the Z_n = -1 pole
    Cramer's rule on the assembled interior stencils, leading terms in Pe
    averaged: det A ~ Pe^2 (Z_n+1)^2 (Z_n-1)^2; A_y numerator ~ Pe^1 (Z_n+1)^2 (Z_n-1)^2

verification PASSED
"""


def test_verify_passes():
    buf = io.StringIO()
    assert verify(stream=buf) == 0
    text = buf.getvalue()
    assert text == VERIFY_TEXT
    assert "derived transverse cofactor" in text
    assert "galerkin: (1/3*Z^2 + 4/3*Z + 1/3) / (Z^2 - 1)" in text
    assert "averaged: (1/2*Z^2 + Z + 1/2) / (Z^2 - 1)" in text
    assert "f(2) = -1/27 B, the bound -B/27: yes" in text
    assert "|f| < B/3 for every Pe > 1: yes" in text
    assert "galerkin: det A ~ Pe^2 (Z_n+1)^2 (Z_n-1)^2; A_y numerator ~ Pe^2 (Z_n+1)^1" in text
    assert "averaged: det A ~ Pe^2 (Z_n+1)^2 (Z_n-1)^2; A_y numerator ~ Pe^1 (Z_n+1)^2" in text
    assert "note:" not in text
    assert "verification PASSED" in text


def test_verify_takes_no_float_path(monkeypatch):
    # every certificate is exact: no numeric pole analysis or root finder runs
    def refuse(*args, **kwargs):
        raise AssertionError("float root path reached")

    for module, name in ((ztransfer, "analyze"), (ztransfer, "roots_univariate"),
                         (zpoly, "roots_univariate"), (np, "roots")):
        monkeypatch.setattr(module, name, refuse)
    buf = io.StringIO()
    assert verify(stream=buf) == 0
    assert "denominator (Z+1)^1 (Z-1)^1; numerator (Z+1)^2 (Z-1)^0" in buf.getvalue()


def test_verify_negative_control_names_n1(monkeypatch):
    perturb_averaged_a_y_weight(monkeypatch)
    buf = io.StringIO()
    assert verify(stream=buf) == 4
    text = buf.getvalue()
    assert "[FAIL] N1 factorization" in text


def test_verify_checks_the_1d_element_that_assemble_1d_caches(monkeypatch):
    # assemble_1d reads its load divisors once, at import: with the
    # Galerkin ones on the averaged scheme, the float path loads another
    # element than the certificates read, and only this line can tell
    galerkin = fem1d._DIVISORS[Scheme.GALERKIN]
    monkeypatch.setitem(fem1d._DIVISORS, Scheme.ELEMENT_AVERAGED, galerkin)
    buf = io.StringIO()
    assert verify(stream=buf) == 4
    assert [line for line in buf.getvalue().splitlines() if line.startswith("[FAIL]")] == [
        "[FAIL] fem1d float element: _ROW_COEFFS = (stiffness, 2*convection), "
        "_DIVISORS = 1/element_weights"]


def test_verify_reads_the_1d_element_table(monkeypatch):
    # the 1D averaged weights are int N_i int N_j of the shared table; an
    # unequal int N = (1/2, 1) breaks the 1D high-Pe cancellation
    monkeypatch.setitem(REFERENCE_INTEGRALS, "integral", (Fraction(1, 2), Fraction(1)))
    buf = io.StringIO()
    assert verify(stream=buf) == 4
    assert "[FAIL] element-averaged high-Pe limit cancels Z = -1" in buf.getvalue()


def test_one_mass_entry_reaches_both_certificates(monkeypatch):
    # the 1D Galerkin load and the 2D A_y load read the same mass: lumping
    # it moves both, and both the 1D and the 2D certificate fail
    pe, u = Fraction(7, 3), Fraction(3, 2)
    load_1d = fem1d.exact_stencil(pe, Scheme.GALERKIN)[1]
    load_2d = fem2d.exact_patch_rows(pe, u, Scheme.GALERKIN)[1][1]
    monkeypatch.setitem(REFERENCE_INTEGRALS, "mass", ((Fraction(1, 4), Fraction(1, 4)),) * 2)
    assert fem1d.exact_stencil(pe, Scheme.GALERKIN)[1] != load_1d
    assert fem2d.exact_patch_rows(pe, u, Scheme.GALERKIN)[1][1] != load_2d
    buf = io.StringIO()
    assert verify(stream=buf) == 4
    assert "[FAIL] galerkin high-Pe limit keeps Z = -1" in buf.getvalue()
    assert "[FAIL] galerkin keeps the Z_n = -1 pole" in buf.getvalue()


def test_verify_reads_the_assembly_stencils(monkeypatch):
    # give the averaged patch the Galerkin input weights: the certificate
    # must follow the stencils the assembly reads, not polys_2d
    real = fem2d.exact_patch_rows

    def galerkin_weights(pe, u, scheme):
        return real(pe, u, scheme)[0], real(pe, u, Scheme.GALERKIN)[1]

    monkeypatch.setattr(fem2d, "exact_patch_rows", galerkin_weights)
    den, num = tf_2d(Scheme.ELEMENT_AVERAGED).zn_multiplicities[-1]
    assert den > num   # the Z_n = -1 pole is back
    buf = io.StringIO()
    assert verify(stream=buf) == 4
    assert "[FAIL] averaged cancels the Z_n = -1 pole" in buf.getvalue()


COLD_START = """\
import json, sys
sys.path.insert(0, {src!r})
from eddyfem.cli import main
try:
    code = main({argv!r})
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(sys.modules)]))
"""


def cold_start(argv, prefixes):
    """Exit code and the loaded modules of ``main(argv)`` whose names start
    with one of ``prefixes``, in a fresh, isolated interpreter."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = COLD_START.format(src=str(src), argv=argv)
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True,
                         check=True, timeout=120)
    code, loaded = json.loads(out.stdout.splitlines()[-1])
    return [code, [m for m in loaded if m.startswith(prefixes)]]


def test_verify_help_and_bad_configs_load_no_scipy(tmp_path):
    # the exact certificates and the config checks need no scipy: only the
    # functions that call LAPACK or build a CSR matrix import it; nor does
    # any command load hashlib's OpenSSL digests
    raw = json.loads((CONFIG_DIR / "fig_pulse1d_pe2.json").read_text())
    raw["pee"] = 2.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    for argv, code in ((["verify"], 0), (["--help"], 0),
                       (["run-1d", "--config", str(bad), "--out", str(tmp_path / "o")], 2)):
        assert cold_start(argv, ("scipy", "_hashlib")) == [code, []]


@pytest.mark.parametrize("command, raw, scipy_modules", [
    ("run-1d", "fig_pulse1d_pe2.json", []),
    # one Pe on a 21-node pulse mesh
    ("sweep-error", {"dimension": 1, "pe": [2.0], "dz": 0.2, "upstream_elements": 4,
                     "plateau_elements": 6, "downstream_elements": 4, "svg": False}, []),
    ("run-2d", "sheet2d_circle.json", ["scipy.linalg._flapack"])],
    ids=["run-1d", "sweep-error", "run-2d"])
def test_each_command_loads_only_what_it_runs(tmp_path, command, raw, scipy_modules):
    if isinstance(raw, dict):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(raw))
    else:
        config = CONFIG_DIR / raw
    # a 1D solve is a plain float recurrence and loads no scipy; a 2D solve
    # loads only scipy's compiled LAPACK module, not the scipy.linalg package,
    # whose import clones numpy and so loads numpy.testing and numpy.f2py.
    # No solve loads hashlib's OpenSSL digests or the exact Z-domain modules
    # that only verify reads.
    code, loaded = cold_start([command, "--config", str(config), "--out", str(tmp_path / "o")],
                              ("scipy", "numpy.testing", "numpy.f2py", "_hashlib",
                               "eddyfem.ztransfer", "eddyfem.zpoly"))
    assert code == 0 and loaded == scipy_modules


def test_main_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dimension": 1, "pe": []}))
    assert main(["run-1d", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert main(["verify"]) == 0
    good = tmp_path / "good.json"
    raw = json.loads((CONFIG_DIR / "fig_pulse1d_pe2.json").read_text())
    raw["svg"] = False
    good.write_text(json.dumps(raw))
    assert main(["run-1d", "--config", str(good), "--out", str(tmp_path / "o")]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out


@pytest.mark.parametrize("content", [b'{"dimension": \xff}', b"[" * 100_000 + b"]" * 100_000],
                         ids=["not_utf8", "nested_100000_deep"])
def test_unreadable_config_files_exit_2(tmp_path, capsys, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert main(["run-1d", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "'<file>'" in capsys.readouterr().err and not (tmp_path / "o").exists()


def _forbid_assembly(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a case was assembled")

    monkeypatch.setattr(fem1d, "assemble_1d", refuse)


@pytest.mark.parametrize("out", ["file", "file/x"])
def test_out_under_a_file_exits_2_before_any_case_is_built(tmp_path, capsys, monkeypatch, out):
    _forbid_assembly(monkeypatch)
    (tmp_path / "file").write_text("kept")
    assert main(["run-1d", "--config", str(CONFIG_DIR / "fig_pulse1d_pe2.json"),
                 "--out", str(tmp_path / out)]) == 2
    assert "--out" in capsys.readouterr().err
    assert (tmp_path / "file").read_text() == "kept"


@pytest.mark.parametrize("command, config", [("run-1d", "fig_pulse1d_pe2.json"),
                                             ("run-2d", "sheet2d_circle.json"),
                                             ("sweep-error", "sweep_peak_error.json")])
def test_no_command_takes_a_scheme_option(tmp_path, capsys, monkeypatch, command, config):
    # the config's scheme is the one place that selects schemes, so the
    # '# config' line of every CSV names the schemes that were run
    _forbid_assembly(monkeypatch)
    with pytest.raises(SystemExit) as exit_:
        main([command, "--config", str(CONFIG_DIR / config), "--out", str(tmp_path / "o"),
              "--scheme", "averaged"])
    assert exit_.value.code == 2 and "--scheme" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_sweep_error_has_no_scheme_knob(tmp_path, capsys, monkeypatch):
    # the sweep measures both schemes: its table has no scheme, so a config
    # scheme, both included, is an unknown key, named before any output is made
    _forbid_assembly(monkeypatch)
    raw = json.loads((CONFIG_DIR / "sweep_peak_error.json").read_text())
    assert "scheme" not in raw
    for scheme in ("galerkin", "averaged", "both"):
        code, err = _exit_code_and_err(tmp_path, capsys, dict(raw, scheme=scheme), "sweep-error")
        assert code == 2 and "config field 'scheme': unknown key" in err
