"""Command-line front end: scenario configs, 1D/2D runs, the peak-error
sweep and the symbolic verification report.

Scenario geometry that the physics does not pin down (domain lengths, pulse
placement, mesh grading, counts) lives in the JSON configs shipped under
configs/; every output file echoes its full config and the package version
in '#' comment headers so runs are reproducible byte for byte.

Exit codes: 0 success, 2 config error, 3 numerical failure,
4 identity-verification failure.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .core import (InvalidArgumentError, Mesh1D, Mesh2D,
                   NumericalFailureError, RectPulse1D, RectPulse2D, Scheme,
                   SmoothCircle2D, material_for_peclet)
from . import fem1d, fem2d, oracle

MU0 = 4e-7 * math.pi
# Caps on what a config can make the program allocate, as multiples of the
# shipped or benchmarked sizes: 400x the 25 sweep points; 25x the 20 sheet rows
# per side; 16x the refined sheet's nz = 257 and 3x its 31,611 dofs; 250x the
# sweep's 40 elements per run; about 8,500x the sweep's 117-node mesh, where a
# 1D assembly and solve peak at 48 MB, 6 float arrays of the nodes.
# run-2d holds every solution of a run until it writes, about 33 bytes per dof
# per Pe for both schemes, so its Pe count times the dofs is capped at 16
# meshes of MAX_DOFS_2D (about 53 MB; 3 Pe at 4,059 dofs are shipped).
# run-1d holds every solution too, 16 bytes per node per Pe and scheme, so its
# Pe count times the nodes is capped at 2 meshes of MAX_NODES_1D (64 MB for
# both schemes; one Pe at 41 or 51 nodes is shipped).
MAX_SWEEP_POINTS = 10_000
MAX_ROWS_PER_SIDE = 500
MAX_NZ = 4097
MAX_DOFS_2D = 100_000
MAX_RUN_DOFS_2D = 16 * MAX_DOFS_2D
MAX_NODES_1D = 1_000_000
MAX_RUN_NODES_1D = 2 * MAX_NODES_1D
MAX_SWEEP_ELEMENTS = 10_000


class ConfigError(ValueError):
    """Invalid scenario configuration; ``path`` names the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"config field '{path}': {message}")
        self.path = path


POSITIVE = (lambda v: 0 < v < math.inf, "must be finite and > 0")
NONNEGATIVE = (lambda v: 0 <= v < math.inf, "must be finite and >= 0")
ELEMENTS = (lambda v: 1 <= v <= MAX_SWEEP_ELEMENTS, f"must be from 1 to {MAX_SWEEP_ELEMENTS}")
SCHEMES = {"galerkin": (Scheme.GALERKIN,), "averaged": (Scheme.ELEMENT_AVERAGED,),
           "both": (Scheme.GALERKIN, Scheme.ELEMENT_AVERAGED)}

# The config schema: a table of the fields that every subcommand reads and,
# in COMMANDS, one per subcommand with the dimension it runs. A field is
# (type, rule, default): a type [t] is a list of t, the default ... (Ellipsis)
# marks a required field, and a rule is None, a (predicate, message) pair or a
# choice {allowed value: the fields it adds beside it}. A section is a dict of
# fields, read as {} when absent, or (dict, its fields, None) if optional.
SHARED = {
    "dimension": (int, {1: {}, 2: {}}, ...),
    "scheme": (str, dict.fromkeys(SCHEMES, {}), "both"),
    "pe": ([float], NONNEGATIVE, None),
    "pe_sweep": (dict, {"lo": (float, POSITIVE, ...), "hi": (float, POSITIVE, ...),
                        "points": (int, (lambda v: 2 <= v <= MAX_SWEEP_POINTS,
                                         f"must be from 2 to {MAX_SWEEP_POINTS}"), ...),
                        "include": ([float], NONNEGATIVE, [])}, None),
    "svg": (bool, None, False),
}
RUN_1D = {
    "dz": (float, POSITIVE, ...), "length": (float, POSITIVE, ...),
    "pulse": {"a": (float, None, ...), "b": (float, None, ...),
              "amplitude": (float, NONNEGATIVE, ...)},
    "material": {"sigma": (float, POSITIVE, 1.0), "mu": (float, POSITIVE, 1.0)},
}
RUN_2D = {
    "sheet": {"thickness": (float, POSITIVE, ...), "sigma": (float, POSITIVE, ...),
              "mu_r": (float, POSITIVE, 1.0), "air_factor": (float, NONNEGATIVE, 5.0)},
    "field": {"kind": (str, {"smooth_circle": {"radius": (float, POSITIVE, ...)},
                             "rect_pulse": {"a": (float, POSITIVE, ...),
                                            "b_extent": (float, POSITIVE, ...)}}, ...),
              "amplitude": (float, NONNEGATIVE, ...)},
    "grid": {"nz": (int, (lambda v: 5 <= v <= MAX_NZ, f"must be from 5 to {MAX_NZ}"), ...),
             "conductor_rows": (int, (lambda v: 2 <= v <= 2 * MAX_ROWS_PER_SIDE and v % 2 == 0,
                                      f"must be even, from 2 to {2 * MAX_ROWS_PER_SIDE}"), ...),
             "air_ratio": (float, (lambda v: 1 <= v < math.inf, "must be finite and >= 1"), 1.3),
             "axial_factor": (float, POSITIVE, 6.0)},
}
SWEEP_ERROR = {
    "dz": (float, POSITIVE, ...), "amplitude": (float, POSITIVE, 1.0),
    "upstream_elements": (int, ELEMENTS, 40), "plateau_elements": (int, ELEMENTS, 30),
    "downstream_elements": (int, ELEMENTS, 40),
}
COMMANDS = {"run-1d": (1, RUN_1D), "run-2d": (2, RUN_2D), "sweep-error": (1, SWEEP_ERROR)}


def _check(path: str, value, typ, rule):
    if isinstance(typ, list):
        value = _check(path, value, list, None)
        return [_check(f"{path}.{i}", v, typ[0], rule) for i, v in enumerate(value)]
    if typ is float and type(value) is int:   # too large for a float: read as infinite
        value = float(value) if abs(value) <= sys.float_info.max else math.inf
    if not isinstance(value, typ) or (isinstance(value, bool) and typ is not bool):
        raise ConfigError(path, f"expected {typ.__name__}, got {type(value).__name__}")
    if isinstance(rule, dict):   # a choice
        rule = (rule.__contains__, "must be " + "|".join(map(str, rule)))
    if rule is not None and not rule[0](value):
        raise ConfigError(path, rule[1])
    return value


def _walk(node: dict, table: dict, values: dict, prefix: str = "") -> dict:
    """Check the config section ``node`` against ``table``; add each value to ``values``."""
    for key, entry in table.items():
        typ, rule, default = (dict, entry, {}) if isinstance(entry, dict) else entry
        path = prefix + key
        if key not in node and default is ...:
            raise ConfigError(path, "missing")
        value = values[path] = (_check(path, node[key], typ, None if typ is dict else rule)
                                if key in node else default)
        if typ is not dict and isinstance(rule, dict):   # a choice: its fields sit beside it
            _walk(node, rule[value], values, prefix)
        elif typ is dict and value is not None:
            _walk(value, rule, values, path + ".")
    return values


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario: the raw dict, its SHARED values and run parameters."""

    raw: dict
    values: dict
    schemes: Tuple[Scheme, ...]
    pe_values: Tuple[float, ...]

    @classmethod
    def load(cls, path, scheme_override: Optional[str] = None) -> "ScenarioConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, ValueError, RecursionError) as err:   # ValueError: not UTF-8 or JSON
            raise ConfigError("<file>", f"cannot read config: {err}")
        return cls.from_dict(raw, scheme_override)

    @classmethod
    def from_dict(cls, raw: dict, scheme_override: Optional[str] = None) -> "ScenarioConfig":
        v = _walk(_check("<file>", raw, dict, None), SHARED, {"": raw})
        if (v["pe"] is None) == (v["pe_sweep"] is None):
            raise ConfigError("pe_sweep" if v["pe_sweep"] else "pe", "give one of pe, pe_sweep")
        if v["pe"] == []:
            raise ConfigError("pe", "empty Pe list")
        for i, pe in enumerate(v["pe"] or ()):   # a repeat would solve and write a case twice
            if pe in v["pe"][:i]:
                raise ConfigError(f"pe.{i}", "repeats an earlier entry")
        if v["pe_sweep"] is not None and not v["pe_sweep.hi"] > v["pe_sweep.lo"]:
            raise ConfigError("pe_sweep.hi", "must exceed lo")
        pes = v["pe"] or sorted(set(list(np.geomspace(
            v["pe_sweep.lo"], v["pe_sweep.hi"], v["pe_sweep.points"])) + v["pe_sweep.include"]))
        return cls(raw, v, SCHEMES[scheme_override or v["scheme"]], tuple(pes))

    @property
    def pe_key(self) -> str:   # 'pe' or 'pe_sweep', whichever gave pe_values
        return "pe" if self.values["pe"] is not None else "pe_sweep"

    def fields(self, command: str) -> dict:
        """The subcommand's table values by dotted path. A scenario of another
        dimension is an error, as is any key that no table names ('_' keys aside)."""
        dim, table = COMMANDS[command]
        if self.values["dimension"] != dim:
            raise ConfigError("dimension", f"{command} needs a {dim}D scenario")
        values = _walk(self.raw, table, dict(self.values))
        unknown = [path for section, node in values.items() if isinstance(node, dict)
                   for key in node if not key.startswith("_")
                   for path in [f"{section}.{key}" if section else key]
                   if not key.isidentifier() or path not in values]
        if unknown:
            raise ConfigError(unknown[0], f"unknown key (unknown: {', '.join(unknown)})")
        return values


@dataclass
class RunRecord:
    """What a run produced: solver statistics and artifacts. The config
    itself is echoed in each CSV's header."""

    stats: List[dict] = field(default_factory=list)
    outputs: List[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# output helpers


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))  # shortest round-trip decimal form
    if isinstance(v, tuple):
        return ",".join(_fmt(x) for x in v)
    return str(v)


def write_csv(path: Path, config: ScenarioConfig, columns: List[str],
              rows: Sequence[Sequence]) -> None:
    lines = [f"# eddyfem {__version__}",
             f"# config {json.dumps(config.raw, sort_keys=True, separators=(',', ':'))}",
             ",".join(columns)]
    if isinstance(rows, np.ndarray):   # _fmt formats Python floats faster than numpy scalars
        rows = rows.tolist()
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def svg_line_chart(path: Path, series: Dict[str, Tuple[np.ndarray, np.ndarray]],
                   title: str) -> None:
    """Minimal SVG polyline rendering of (x, y) series; a convenience view
    of the CSV data with no extra semantics."""
    width, height, pad = 640, 400, 48
    xs = np.concatenate([x for x, _ in series.values()])
    ys = np.concatenate([y for _, y in series.values()])
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2"]
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<text x="{width // 2}" y="20" text-anchor="middle" '
             f'font-family="sans-serif" font-size="13">{title}</text>',
             f'<rect x="{pad}" y="{pad}" width="{width - 2 * pad}" '
             f'height="{height - 2 * pad}" fill="none" stroke="#333"/>']
    for k, (label, (x, y)) in enumerate(series.items()):
        sx = pad + (np.asarray(x, dtype=float) - x0) / (x1 - x0) * (width - 2 * pad)
        sy = height - pad - (np.asarray(y, dtype=float) - y0) / (y1 - y0) * (height - 2 * pad)
        pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(sx, sy))
        color = colors[k % len(colors)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{pad + 6}" y="{pad + 16 + 14 * k}" fill="{color}" '
                     f'font-family="sans-serif" font-size="11">{label}</text>')
    for (v, anchor, x, y) in [(x0, "start", pad, height - pad + 16),   # axis range labels
                              (x1, "end", width - pad, height - pad + 16),
                              (y0, "end", pad - 4, height - pad), (y1, "end", pad - 4, pad + 4)]:
        parts.append(f'<text x="{x}" y="{y}" text-anchor="{anchor}" '
                     f'font-family="sans-serif" font-size="10">{v:.4g}</text>')
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")


def _write_outputs(record: RunRecord, cfg: ScenarioConfig, path: Path, columns: List[str],
                   rows: Sequence[Sequence], chart: Optional[Tuple[dict, str]] = None) -> None:
    """Write the CSV ``path`` and, when cfg.svg is set and a (series, title)
    chart is given, its SVG beside it; record both paths."""
    write_csv(path, cfg, columns, rows)
    record.outputs.append(str(path))
    if cfg.values["svg"] and chart is not None:
        svg_line_chart(path.with_suffix(".svg"), *chart)
        record.outputs.append(str(path.with_suffix(".svg")))


# ---------------------------------------------------------------------------
# case builders


def _material(pe: float, dz: float, sigma: float, mu: float, sigma_path: str):
    """material_for_peclet, whose rejection (an overflowing mu*sigma*dz or
    velocity) is reported against the config field of sigma."""
    try:
        return material_for_peclet(pe, dz, sigma=sigma, mu=mu)
    except InvalidArgumentError as err:
        raise ConfigError(sigma_path, str(err))


def build_1d_case(cfg: ScenarioConfig, pe: float):
    f = cfg.fields("run-1d")
    dz, length, a, b = f["dz"], f["length"], f["pulse.a"], f["pulse.b"]
    n = length / dz
    if not (length > 2 * dz and n < MAX_NODES_1D and math.isclose(n, round(n), rel_tol=1e-9)):
        raise ConfigError("length", f"must be a whole number of dz elements, more than 2 and "
                          f"at most {MAX_NODES_1D - 1}, got {n:g}")
    if not (0 < a < b < length):
        raise ConfigError("pulse", f"need 0 < a < b < length, got [{a}, {b}] in {length}")
    mesh = Mesh1D.from_length(length, dz)
    if len(cfg.pe_values) * mesh.node_count > MAX_RUN_NODES_1D:
        raise ConfigError(cfg.pe_key, f"{len(cfg.pe_values)} Pe values of {mesh.node_count} "
                          f"nodes each: over {MAX_RUN_NODES_1D} nodes in one run")
    material = _material(pe, dz, f["material.sigma"], f["material.mu"], "material.sigma")
    profile = RectPulse1D(a=a, b=b, amplitude=f["pulse.amplitude"])
    return mesh, material, profile


def graded_sheet_rows(thickness: float, conductor_rows: int, air_factor: float,
                      air_ratio: float) -> Tuple[Tuple[float, ...], int]:
    """Row heights for the sheet scenario: uniform rows across the conductor,
    geometrically grown rows through the air padding, mirrored about y = 0.
    Returns (row_heights, index of the y = 0 node row)."""
    step = thickness / conductor_rows
    up = [step] * (conductor_rows // 2)
    acc, target = thickness / 2, thickness / 2 + air_factor * thickness
    while acc < target * (1 - 1e-12):
        if len(up) >= MAX_ROWS_PER_SIDE:
            raise ConfigError("sheet.air_factor", f"the grading needs more than "
                              f"{MAX_ROWS_PER_SIDE} rows per side; raise grid.air_ratio")
        step = min(step * air_ratio, target - acc)
        up.append(step)
        acc += step
    return tuple(reversed(up)) + tuple(up), len(up)


def build_2d_case(cfg: ScenarioConfig, pe: float):
    f = cfg.fields("run-2d")
    if f["field.kind"] == "smooth_circle":
        profile = SmoothCircle2D(radius=f["field.radius"], amplitude=f["field.amplitude"])
        axial_width = 2 * f["field.radius"]
    else:
        profile = RectPulse2D(a=f["field.a"], b_extent=f["field.b_extent"],
                              amplitude=f["field.amplitude"])
        axial_width = 2 * f["field.a"]
    nz, d = f["grid.nz"], f["sheet.thickness"]
    lz = f["grid.axial_factor"] * axial_width
    dz = lz / (nz - 1)
    if not 0 < dz < math.inf:
        raise ConfigError("grid.axial_factor", f"the axial extent {lz:g} over {nz - 1} "
                          f"elements gives dz = {dz:g}, not finite and > 0")
    heights, mid = graded_sheet_rows(d, f["grid.conductor_rows"], f["sheet.air_factor"],
                                     f["grid.air_ratio"])
    ny = len(heights) + 1
    if 3 * ny * nz > MAX_DOFS_2D:
        raise ConfigError("grid.nz", f"{ny} x {nz} nodes: {3 * ny * nz} dofs, over {MAX_DOFS_2D}")
    if len(cfg.pe_values) * 3 * ny * nz > MAX_RUN_DOFS_2D:
        raise ConfigError(cfg.pe_key, f"{len(cfg.pe_values)} Pe values "
                          f"of {3 * ny * nz} dofs each: over {MAX_RUN_DOFS_2D} dofs in one run")
    # place the y = 0 node exactly: y0 is minus the cumulative height below it
    y0 = -float(np.cumsum(heights)[mid - 1])
    mesh = Mesh2D(nz=nz, dz=dz, row_heights=heights, z0=-lz / 2, y0=y0)
    material = _material(pe, dz, f["sheet.sigma"], f["sheet.mu_r"] * MU0, "sheet.sigma")
    regions = fem2d.RegionMap2D.conducting_band(mesh, d)
    return mesh, material, regions, profile


# ---------------------------------------------------------------------------
# subcommands


@contextmanager
def _failing_case(label: str):
    """Prefix the reason of a numerical failure raised inside with the
    case ``label``, so an exit-3 message names the Pe (and scheme) that failed."""
    try:
        yield
    except NumericalFailureError as err:
        raise NumericalFailureError(f"{label}: {err}") from err


def run_1d(cfg: ScenarioConfig, out_dir: Path) -> RunRecord:
    cases = [(pe, build_1d_case(cfg, pe)) for pe in cfg.pe_values]
    solved = []
    for scheme in cfg.schemes:
        for pe, (mesh, material, profile) in cases:
            t0 = time.perf_counter()
            with _failing_case(f"{scheme.value}, Pe = {pe:g}"):
                sol = fem1d.solve_1d(fem1d.assemble_1d(mesh, material, profile, scheme))
            solved.append((scheme, pe, mesh, sol, time.perf_counter() - t0))
    out_dir.mkdir(parents=True, exist_ok=True)
    record = RunRecord()
    for scheme, pe, mesh, sol, wall in solved:
        z = mesh.nodes()
        rows = [(z[i], sol.a_y[i], sol.b_x[i] if i < len(sol.b_x) else None)
                for i in range(mesh.node_count)]
        _write_outputs(record, cfg, out_dir / f"run1d_{scheme.value}_pe{_fmt(float(pe))}.csv",
                       ["z", "a_y", "b_x"], rows,
                       ({f"b_x {scheme.value} Pe={pe:g}": (0.5 * (z[:-1] + z[1:]), sol.b_x)},
                        "reaction flux density along z"))
        record.stats.append({"scheme": scheme.value, "pe": pe, "n": mesh.node_count,
                             "residual": sol.residual, "wall_s": wall})
    return record


def run_2d(cfg: ScenarioConfig, out_dir: Path) -> RunRecord:
    cases = [(pe, build_2d_case(cfg, pe)) for pe in cfg.pe_values]
    record = RunRecord()
    # the left-hand side does not depend on the scheme: assemble and factor
    # it once per (mesh, Pe) and solve every scheme's right-hand side with
    # it; wall_s is the time of that joint assembly and solve
    solved = {}
    for pe, (mesh, material, regions, profile) in cases:
        t0 = time.perf_counter()
        system = fem2d.assemble_2d(mesh, material, regions, profile, cfg.schemes[0])
        more = [fem2d.rhs_2d(mesh, material, regions, profile, scheme)
                for scheme in cfg.schemes[1:]]
        with _failing_case(f"Pe = {pe:g}"):   # one factorization serves every scheme
            sols = fem2d.solve_2d(system, more_rhs=more)
        wall = time.perf_counter() - t0
        for scheme, sol in zip(cfg.schemes, sols):
            solved[scheme, pe] = (sol, 3 * mesh.node_count, wall)
    out_dir.mkdir(parents=True, exist_ok=True)
    for scheme in cfg.schemes:
        traces = []
        for pe in cfg.pe_values:
            sol, dofs, wall = solved.pop((scheme, pe))
            trace = fem2d.axis_profile(sol, sol.mesh)
            traces.append(trace[:, 1])
            # full field at element centroids, one row per element, y-major
            yc, zc = (0.5 * (v[:-1] + v[1:]) for v in (sol.mesh.node_y(), sol.mesh.node_z()))
            f = np.stack([sol.a_y, sol.a_z, sol.phi])
            centroid = 0.25 * (f[:, :-1, :-1] + f[:, :-1, 1:] + f[:, 1:, :-1] + f[:, 1:, 1:])
            rows = np.column_stack([*(v.ravel() for v in np.meshgrid(yc, zc, indexing="ij")),
                                    sol.b_x.ravel(), *centroid.reshape(3, -1)])
            _write_outputs(record, cfg, out_dir / f"field2d_{scheme.value}_pe{_fmt(float(pe))}.csv",
                           ["y", "z", "b_x", "a_y", "a_z", "phi"], rows)
            record.stats.append({"scheme": scheme.value, "pe": pe, "dofs": dofs, "band_kl":
                                 sol.band_kl, "residual": sol.residual, "wall_s": wall})
        _write_outputs(record, cfg, out_dir / f"centerline_{scheme.value}.csv",
                       ["z"] + [f"b_x_pe{_fmt(float(pe))}" for pe in cfg.pe_values],
                       np.column_stack([trace[:, 0]] + traces),
                       ({f"Pe={pe:g}": (trace[:, 0], t) for pe, t in zip(cfg.pe_values, traces)},
                        f"centerline b_x, {scheme.value} input"))
    return record


def measured_peak_errors(pe: float, dz: float, m_b: int, m_c: int, m_d: int,
                         schemes: Sequence[Scheme], amplitude: float = 1.0) -> Dict[Scheme, float]:
    """Spurious-oscillation amplitude of the pulse scenario for each scheme:
    the largest signed deviation of the coarse per-element reaction b_x from
    the plateau level -amplitude across the plateau elements, where the
    imperfect pole-zero cancellation shows up.

    That level is the deep-plateau flux of the continuous model. The 1D
    element rows, stiffness plus 2 Pe times convection of
    core.REFERENCE_INTEGRALS, fold to (-1-Pe, 2, -1+Pe), that is
    -(A[i+1] - 2 A[i] + A[i-1]) + Pe (A[i+1] - A[i-1]): dz^2 times the central
    differences of -A'' + k A' with k = 2 Pe/dz. The load, 2 Pe dz times input
    weights that sum to 1, is dz^2 k B. So -A'' + k A' = k B with A(0) = 0 and A'(L) = 0, which gives A' = 0
    downstream of the pulse [a, b] and b_x = -A' = -B (1 - e^{-k (b - z)}) on
    it. The central third of the plateau ends (m_c/3 + 1.5) dz before b, so
    there b_x is -B to within B e^{-2 Pe (m_c/3 + 1.5)}; sweep_error bounds it.
    """
    mesh, material, profile = fem1d.rect_pulse_case(pe, dz, m_b, m_c, m_d, amplitude)
    errors = {}
    for scheme in schemes:
        with _failing_case(f"{scheme.value}, Pe = {pe:g}"):
            sol = fem1d.solve_1d(fem1d.assemble_1d(mesh, material, profile, scheme))
        dev = sol.b_x[m_b + 3: m_b + 3 + m_c] + amplitude
        errors[scheme] = float(dev[np.argmax(np.abs(dev))])
    return errors


def measured_peak_error(pe: float, dz: float, m_b: int, m_c: int, m_d: int,
                        scheme: Scheme, amplitude: float = 1.0) -> float:
    """measured_peak_errors for a single scheme."""
    return measured_peak_errors(pe, dz, m_b, m_c, m_d, (scheme,), amplitude)[scheme]


def sweep_error(cfg: ScenarioConfig, out_dir: Path) -> RunRecord:
    f = cfg.fields("sweep-error")
    if f["scheme"] != "both":
        raise ConfigError("scheme", "must be both: sweep-error measures both schemes")
    dz, amp = f["dz"], f["amplitude"]
    m_b, m_c, m_d = f["upstream_elements"], f["plateau_elements"], f["downstream_elements"]
    # the measured level -amplitude leaves out the continuous flux's layer
    # term, at most amplitude * e^{-2 Pe (m_c/3 + 1.5)} (measured_peak_errors)
    low = min((pe for pe in cfg.pe_values if pe > 1.0), default=math.inf)
    layer = math.exp(-2 * low * (m_c / 3 + 1.5))
    if layer > 1e-6:
        raise ConfigError("plateau_elements", f"{m_c} elements leave the level -amplitude "
                          f"off the model by {layer:.1e} of it at Pe = {low:g}, over 1e-6")
    record = RunRecord()
    rows = []
    t0 = time.perf_counter()
    for pe in cfg.pe_values:
        if pe <= 1.0:
            rows.append((pe, None, None, None, None, "out-of-validity"))
            continue
        measured = measured_peak_errors(pe, dz, m_b, m_c, m_d, tuple(Scheme), amp)
        rows.append((pe, *(v for s in Scheme for v in (measured[s], oracle.peak_error(s, pe, amp))),
                     "ok"))   # measured, then formula error, for galerkin and then averaged
    valid = np.array([r[:4] for r in rows if r[5] == "ok"], dtype=float).reshape(-1, 4)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_outputs(record, cfg, out_dir / "sweep_error.csv",
                   ["pe", "measured_error_galerkin", "formula_error_galerkin",
                    "measured_error_averaged", "formula_error_averaged", "status"], rows,
                   ({"measured galerkin": (valid[:, 0], np.abs(valid[:, 1])),
                     "measured averaged": (valid[:, 0], np.abs(valid[:, 3]))},
                    "peak spurious error vs Pe") if len(valid) else None)   # no Pe > 1: no chart
    record.stats.append({"points": len(rows), "wall_s": time.perf_counter() - t0})
    return record


def verify(stream=None) -> int:
    """Run every exact identity check and certificate; print the proof
    reports; return 0 if all hold, 4 otherwise."""
    from . import ztransfer   # with zpoly, loaded by this command only
    out = stream or sys.stdout
    reports = (ztransfer.run_identity_checks()
               + [ztransfer.peak_error_certificate(s) for s in Scheme]
               + [ztransfer._float_element_report()] + ztransfer.pole_certificates())
    for rep in reports:
        print(rep.render(), file=out)
    ok = all(rep.ok for rep in reports)
    print(f"\nverification {'PASSED' if ok else 'FAILED'}", file=out)
    return 0 if ok else 4


# ---------------------------------------------------------------------------
# entry point


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="eddyfem",
        description="Moving-conductor magnetic induction on structured grids: "
                    "stabilized and standard schemes, plus Z-domain verification.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("run-1d", run_1d), ("run-2d", run_2d), ("sweep-error", sweep_error)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="scenario config JSON")
        p.add_argument("--out", default="out", help="output directory")
        if fn is not sweep_error:   # the sweep measures both schemes
            p.add_argument("--scheme", choices=SCHEMES,
                           help="override the config's scheme selection")
        p.set_defaults(fn=fn, scheme=None)
    sub.add_parser("verify")

    args = parser.parse_args(argv)
    if args.command == "verify":
        return verify()
    out = Path(args.out)   # written after every solve, so checked before any is built
    blocker = next(d for d in (out, *out.parents) if d.exists())
    if not blocker.is_dir():
        print(f"error: --out {out}: {blocker} is not a directory", file=sys.stderr)
        return 2
    try:
        cfg = ScenarioConfig.load(args.config, args.scheme)
        record = args.fn(cfg, out)
    except (ConfigError, InvalidArgumentError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except NumericalFailureError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    for st in record.stats:
        print(" ".join(f"{k}={_fmt(v)}" for k, v in st.items()))
    for out_path in record.outputs:
        print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
