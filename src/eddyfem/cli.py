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
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .core import (InvalidArgumentError, Mesh1D, Mesh2D,
                   NumericalFailureError, RectPulse1D, RectPulse2D, Scheme,
                   SmoothCircle2D, material_for_peclet)
from . import fem1d, fem2d, oracle, ztransfer

MU0 = 4e-7 * math.pi


class ConfigError(ValueError):
    """Invalid scenario configuration; ``path`` names the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"config field '{path}': {message}")
        self.path = path


def _require(cfg: dict, path: str, typ, predicate=None, what: str = ""):
    cur = cfg
    for part in path.split("."):
        if not isinstance(cur, dict) or part not in cur:
            raise ConfigError(path, "missing")
        cur = cur[part]
    if typ is float and isinstance(cur, int):
        cur = float(cur)
    if not isinstance(cur, typ):
        raise ConfigError(path, f"expected {typ.__name__}, got {type(cur).__name__}")
    if predicate is not None and not predicate(cur):
        raise ConfigError(path, what or "invalid value")
    return cur


def _schemes_of(cfg: dict, override: Optional[str] = None) -> List[Scheme]:
    name = override or cfg.get("scheme", "both")
    table = {"galerkin": [Scheme.GALERKIN], "averaged": [Scheme.ELEMENT_AVERAGED],
             "both": [Scheme.GALERKIN, Scheme.ELEMENT_AVERAGED]}
    if name not in table:
        raise ConfigError("scheme", f"must be galerkin|averaged|both, got {name!r}")
    return table[name]


def _pe_list(cfg: dict) -> List[float]:
    if "pe" in cfg:
        pes = _require(cfg, "pe", list, lambda v: len(v) > 0, "empty Pe list")
        return [float(p) for p in pes]
    if "pe_sweep" in cfg:
        lo = _require(cfg, "pe_sweep.lo", float, lambda v: v > 0)
        hi = _require(cfg, "pe_sweep.hi", float, lambda v: v > lo, "hi must exceed lo")
        n = _require(cfg, "pe_sweep.points", int, lambda v: v >= 2)
        grid = list(np.geomspace(lo, hi, n))
        for extra in cfg["pe_sweep"].get("include", []):
            grid.append(float(extra))
        return sorted(set(grid))
    raise ConfigError("pe", "missing (provide 'pe' or 'pe_sweep')")


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario: the raw dict plus derived run parameters."""

    raw: dict
    dimension: int
    schemes: Tuple[Scheme, ...]
    pe_values: Tuple[float, ...]

    @classmethod
    def load(cls, path, scheme_override: Optional[str] = None) -> "ScenarioConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as err:
            raise ConfigError("<file>", f"cannot read config: {err}")
        return cls.from_dict(raw, scheme_override)

    @classmethod
    def from_dict(cls, raw: dict, scheme_override: Optional[str] = None) -> "ScenarioConfig":
        dim = _require(raw, "dimension", int, lambda v: v in (1, 2), "must be 1 or 2")
        schemes = tuple(_schemes_of(raw, scheme_override))
        pes = tuple(_pe_list(raw))
        return cls(raw=raw, dimension=dim, schemes=schemes, pe_values=pes)

    def hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


@dataclass
class RunRecord:
    """What a run produced: config identity, solver statistics, artifacts."""

    config_hash: str
    stats: List[dict] = field(default_factory=list)
    outputs: List[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# output helpers


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))  # shortest round-trip decimal form
    if isinstance(v, np.integer):
        return str(int(v))
    return str(v)


def write_csv(path: Path, config: ScenarioConfig, columns: List[str],
              rows: Sequence[Sequence]) -> None:
    lines = [f"# eddyfem {__version__}",
             f"# config {json.dumps(config.raw, sort_keys=True, separators=(',', ':'))}",
             ",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def svg_line_chart(path: Path, series: Dict[str, Tuple[np.ndarray, np.ndarray]],
                   title: str, width: int = 640, height: int = 400) -> None:
    """Minimal SVG polyline rendering of (x, y) series; a convenience view
    of the CSV data with no extra semantics."""
    pad = 48
    xs = np.concatenate([x for x, _ in series.values()])
    ys = np.concatenate([y for _, y in series.values()])
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(x):
        return pad + (x - x0) / (x1 - x0) * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2"]
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<text x="{width // 2}" y="20" text-anchor="middle" '
             f'font-family="sans-serif" font-size="13">{title}</text>',
             f'<rect x="{pad}" y="{pad}" width="{width - 2 * pad}" '
             f'height="{height - 2 * pad}" fill="none" stroke="#333"/>']
    for k, (label, (x, y)) in enumerate(series.items()):
        pts = " ".join(f"{sx(float(a)):.2f},{sy(float(b)):.2f}" for a, b in zip(x, y))
        color = colors[k % len(colors)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{pad + 6}" y="{pad + 16 + 14 * k}" fill="{color}" '
                     f'font-family="sans-serif" font-size="11">{label}</text>')
    for (v, anchor, x, y) in [(x0, "start", pad, height - pad + 16),
                              (x1, "end", width - pad, height - pad + 16)]:
        parts.append(f'<text x="{x}" y="{y}" text-anchor="{anchor}" '
                     f'font-family="sans-serif" font-size="10">{v:.4g}</text>')
    for (v, y) in [(y0, height - pad), (y1, pad + 4)]:
        parts.append(f'<text x="{pad - 4}" y="{y}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="10">{v:.4g}</text>')
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# case builders


def build_1d_case(cfg: ScenarioConfig, pe: float):
    raw = cfg.raw
    dz = _require(raw, "dz", float, lambda v: v > 0, "must be > 0")
    length = _require(raw, "length", float, lambda v: v > 2 * dz, "domain too short")
    a = _require(raw, "pulse.a", float)
    b = _require(raw, "pulse.b", float)
    amp = _require(raw, "pulse.amplitude", float, lambda v: v >= 0, "must be >= 0")
    if not (0 < a < b < length):
        raise ConfigError("pulse", f"need 0 < a < b < length, got [{a}, {b}] in {length}")
    mat_cfg = raw.get("material", {})
    sigma = float(mat_cfg.get("sigma", 1.0))
    mu = float(mat_cfg.get("mu", 1.0))
    mesh = Mesh1D.from_length(length, dz)
    material = material_for_peclet(pe, dz, sigma=sigma, mu=mu)
    profile = RectPulse1D(a=a, b=b, amplitude=amp)
    return mesh, material, profile


def graded_sheet_rows(thickness: float, conductor_rows: int, air_factor: float,
                      air_ratio: float) -> Tuple[Tuple[float, ...], int]:
    """Row heights for the sheet scenario: uniform rows across the conductor,
    geometrically grown rows through the air padding, mirrored about y = 0.
    Returns (row_heights, index of the y = 0 node row)."""
    if conductor_rows < 2 or conductor_rows % 2:
        raise ConfigError("grid.conductor_rows", "must be even and >= 2")
    h = thickness / conductor_rows
    up = [h] * (conductor_rows // 2)
    acc, target = thickness / 2, thickness / 2 + air_factor * thickness
    step = h
    while acc < target * (1 - 1e-12):
        step = min(step * air_ratio, target - acc)
        up.append(step)
        acc += step
    heights = tuple(reversed(up)) + tuple(up)
    return heights, len(up)


def build_2d_case(cfg: ScenarioConfig, pe: float):
    raw = cfg.raw
    d = _require(raw, "sheet.thickness", float, lambda v: v > 0, "must be > 0")
    sigma = _require(raw, "sheet.sigma", float, lambda v: v > 0, "must be > 0")
    mu_r = float(raw["sheet"].get("mu_r", 1.0))
    air_factor = float(raw["sheet"].get("air_factor", 5.0))
    kind = _require(raw, "field.kind", str,
                    lambda v: v in ("smooth_circle", "rect_pulse"),
                    "must be smooth_circle or rect_pulse")
    amp = _require(raw, "field.amplitude", float, lambda v: v >= 0, "must be >= 0")
    if kind == "smooth_circle":
        radius = _require(raw, "field.radius", float, lambda v: v > 0, "must be > 0")
        profile = SmoothCircle2D(radius=radius, amplitude=amp)
        axial_width = 2 * radius
    else:
        a = _require(raw, "field.a", float, lambda v: v > 0, "must be > 0")
        b_ext = _require(raw, "field.b_extent", float, lambda v: v > 0, "must be > 0")
        profile = RectPulse2D(a=a, b_extent=b_ext, amplitude=amp)
        axial_width = 2 * a
    nz = _require(raw, "grid.nz", int, lambda v: v >= 5, "must be >= 5")
    rows = _require(raw, "grid.conductor_rows", int, lambda v: v >= 2)
    ratio = float(raw["grid"].get("air_ratio", 1.3))
    axial_factor = float(raw["grid"].get("axial_factor", 6.0))

    lz = axial_factor * axial_width
    dz = lz / (nz - 1)
    heights, mid = graded_sheet_rows(d, rows, air_factor, ratio)
    # place the y = 0 node exactly: y0 is minus the cumulative height below it
    y0 = -float(np.cumsum(heights)[mid - 1])
    mesh = Mesh2D(nz=nz, ny=len(heights) + 1, dz=dz, row_heights=heights,
                  z0=-lz / 2, y0=y0)
    material = material_for_peclet(pe, dz, sigma=sigma, mu=mu_r * MU0)
    regions = fem2d.RegionMap2D.conducting_band(mesh, d)
    return mesh, material, regions, profile


# ---------------------------------------------------------------------------
# subcommands


def _need_dimension(cfg: ScenarioConfig, dim: int):
    if cfg.dimension != dim:
        raise ConfigError("dimension", f"this subcommand needs a {dim}D scenario")


def run_1d(cfg: ScenarioConfig, out_dir: Path) -> RunRecord:
    _need_dimension(cfg, 1)
    out_dir.mkdir(parents=True, exist_ok=True)
    record = RunRecord(config_hash=cfg.hash())
    for scheme in cfg.schemes:
        for pe in cfg.pe_values:
            mesh, material, profile = build_1d_case(cfg, pe)
            t0 = time.perf_counter()
            system = fem1d.assemble_1d(mesh, material, profile, scheme)
            sol = fem1d.solve_1d(system)
            wall = time.perf_counter() - t0
            z = mesh.nodes()
            rows = [(z[i], sol.a_y[i], sol.b_x[i] if i < len(sol.b_x) else None)
                    for i in range(mesh.node_count)]
            name = f"run1d_{scheme.value}_pe{_fmt(float(pe))}.csv"
            write_csv(out_dir / name, cfg, ["z", "a_y", "b_x"], rows)
            record.outputs.append(str(out_dir / name))
            record.stats.append({"scheme": scheme.value, "pe": pe, "n": mesh.node_count,
                                 "residual": sol.residual, "wall_s": wall})
            if cfg.raw.get("svg"):
                zc = 0.5 * (z[:-1] + z[1:])
                svg = out_dir / name.replace(".csv", ".svg")
                svg_line_chart(svg, {f"b_x {scheme.value} Pe={pe:g}": (zc, sol.b_x)},
                               "reaction flux density along z")
                record.outputs.append(str(svg))
    return record


def run_2d(cfg: ScenarioConfig, out_dir: Path) -> RunRecord:
    _need_dimension(cfg, 2)
    out_dir.mkdir(parents=True, exist_ok=True)
    record = RunRecord(config_hash=cfg.hash())
    for scheme in cfg.schemes:
        traces = {}
        zc_ref = None
        for pe in cfg.pe_values:
            mesh, material, regions, profile = build_2d_case(cfg, pe)
            t0 = time.perf_counter()
            system = fem2d.assemble_2d(mesh, material, regions, profile, scheme)
            sol = fem2d.solve_2d(system)
            wall = time.perf_counter() - t0
            trace = fem2d.axis_profile(sol, mesh)
            zc_ref = trace[:, 0]
            traces[pe] = trace[:, 1]
            # full field at element centroids
            zc = 0.5 * (mesh.node_z()[:-1] + mesh.node_z()[1:])
            yc = 0.5 * (mesh.node_y()[:-1] + mesh.node_y()[1:])
            cent = lambda f: 0.25 * (f[:-1, :-1] + f[:-1, 1:] + f[1:, :-1] + f[1:, 1:])
            phi_c, ay_c, az_c = cent(sol.phi), cent(sol.a_y), cent(sol.a_z)
            rows = []
            for mi in range(len(yc)):
                for nib in range(len(zc)):
                    rows.append((yc[mi], zc[nib], sol.b_x[mi, nib],
                                 ay_c[mi, nib], az_c[mi, nib], phi_c[mi, nib]))
            name = f"field2d_{scheme.value}_pe{_fmt(float(pe))}.csv"
            write_csv(out_dir / name, cfg, ["y", "z", "b_x", "a_y", "a_z", "phi"], rows)
            record.outputs.append(str(out_dir / name))
            record.stats.append({"scheme": scheme.value, "pe": pe,
                                 "dofs": system.matrix.shape[0],
                                 "residual": sol.residual, "wall_s": wall})
        cols = ["z"] + [f"b_x_pe{_fmt(float(pe))}" for pe in cfg.pe_values]
        rows = [[zc_ref[i]] + [traces[pe][i] for pe in cfg.pe_values]
                for i in range(len(zc_ref))]
        name = f"centerline_{scheme.value}.csv"
        write_csv(out_dir / name, cfg, cols, rows)
        record.outputs.append(str(out_dir / name))
        if cfg.raw.get("svg"):
            svg = out_dir / name.replace(".csv", ".svg")
            svg_line_chart(svg, {f"Pe={pe:g}": (zc_ref, traces[pe]) for pe in cfg.pe_values},
                           f"centerline b_x, {scheme.value} input")
            record.outputs.append(str(svg))
    return record


def measured_peak_error(pe: float, dz: float, m_b: int, m_c: int, m_d: int,
                        scheme: Scheme, amplitude: float = 1.0,
                        reference_pe: float = 0.5) -> float:
    """Spurious-oscillation amplitude of the pulse scenario, measured
    against a refined Galerkin reference.

    The reference supplies the smooth plateau level (its deep-plateau
    reaction value, averaged over the central third); the measured error is
    the largest signed deviation of the coarse per-element reaction from
    that level across the plateau elements, which is where the imperfect
    pole-zero cancellation shows up.
    """
    mesh, material, profile = fem1d.rect_pulse_case(pe, dz, m_b, m_c, m_d, amplitude)
    sol = fem1d.solve_1d(fem1d.assemble_1d(mesh, material, profile, scheme))

    refine = max(1, math.ceil(pe / reference_pe))
    fine_mesh = Mesh1D.from_node_count(dz / refine, (mesh.node_count - 1) * refine + 1)
    fine = fem1d.solve_1d(fem1d.assemble_1d(fine_mesh, material, profile, Scheme.GALERKIN))

    z_lo, z_hi = (m_b + 3) * dz, (m_b + 3 + m_c) * dz
    span = z_hi - z_lo
    centers = 0.5 * (fine_mesh.nodes()[:-1] + fine_mesh.nodes()[1:])
    window = (centers >= z_lo + span / 3) & (centers <= z_hi - span / 3)
    ref_level = float(np.mean(fine.b_x[window]))

    plateau = sol.b_x[m_b + 3: m_b + 3 + m_c]
    dev = plateau - ref_level
    return float(dev[np.argmax(np.abs(dev))])


def sweep_error(cfg: ScenarioConfig, out_dir: Path) -> RunRecord:
    _need_dimension(cfg, 1)
    out_dir.mkdir(parents=True, exist_ok=True)
    raw = cfg.raw
    dz = _require(raw, "dz", float, lambda v: v > 0, "must be > 0")
    m_b = int(raw.get("upstream_elements", 40))
    m_c = int(raw.get("plateau_elements", 30))
    m_d = int(raw.get("downstream_elements", 40))
    amp = float(raw.get("amplitude", 1.0))
    record = RunRecord(config_hash=cfg.hash())
    rows = []
    t0 = time.perf_counter()
    for pe in cfg.pe_values:
        if pe <= 1.0:
            rows.append((pe, None, None, None, None, "out-of-validity"))
            continue
        mg = measured_peak_error(pe, dz, m_b, m_c, m_d, Scheme.GALERKIN, amp)
        ma = measured_peak_error(pe, dz, m_b, m_c, m_d, Scheme.ELEMENT_AVERAGED, amp)
        fg = oracle.peak_error(Scheme.GALERKIN, pe, amp)
        fa = oracle.peak_error(Scheme.ELEMENT_AVERAGED, pe, amp)
        rows.append((pe, mg, fg, ma, fa, "ok"))
    name = "sweep_error.csv"
    write_csv(out_dir / name, cfg,
              ["pe", "measured_error_galerkin", "formula_error_galerkin",
               "measured_error_averaged", "formula_error_averaged", "status"],
              rows)
    record.outputs.append(str(out_dir / name))
    record.stats.append({"points": len(rows), "wall_s": time.perf_counter() - t0})
    if raw.get("svg"):
        valid = [r for r in rows if r[5] == "ok"]
        pe_v = np.array([r[0] for r in valid])
        svg = out_dir / "sweep_error.svg"
        svg_line_chart(svg, {
            "measured galerkin": (pe_v, np.abs([r[1] for r in valid])),
            "measured averaged": (pe_v, np.abs([r[3] for r in valid]))},
            "peak spurious error vs Pe")
        record.outputs.append(str(svg))
    return record


def verify(stream=None, polys=None) -> int:
    """Run every exact identity check and the cancellation certificates;
    print the proof reports; return 0 if all hold, 4 otherwise.

    ``polys`` overrides the stencil polynomial set (negative-control hook
    for tests)."""
    out = stream or sys.stdout
    ok = True
    reports = ztransfer.run_identity_checks(polys)
    for rep in reports:
        print(rep.render(), file=out)
        ok = ok and rep.ok

    print("\n1D transfer-function certificates:", file=out)
    ga = ztransfer.analyze(ztransfer.tf_1d(Scheme.GALERKIN, math.inf, 1.0))
    ea = ztransfer.analyze(ztransfer.tf_1d(Scheme.ELEMENT_AVERAGED, math.inf, 1.0))
    g_keeps = any(p.exact and p.location == -1 for p in ga.poles)
    e_cancels = any(c.exact and c.location == -1 for c in ea.cancelled_pairs) \
        and not any(p.exact and p.location == -1 for p in ea.poles)
    print(f"    [{'PASS' if g_keeps else 'FAIL'}] galerkin high-Pe limit keeps the "
          f"Z = -1 pole (classification {ga.classification.value})", file=out)
    print(f"    [{'PASS' if e_cancels else 'FAIL'}] element-averaged high-Pe limit "
          f"cancels Z = -1; remaining poles "
          f"{sorted(p.location.real for p in ea.poles)}", file=out)
    ok = ok and g_keeps and e_cancels

    print("\n2D transfer-function certificates:", file=out)
    t2g = ztransfer.tf_2d(Scheme.GALERKIN)
    t2a = ztransfer.tf_2d(Scheme.ELEMENT_AVERAGED)
    g2 = t2g.has_zn_pole(-1)
    a2 = not t2a.has_zn_pole(-1)
    print(f"    [{'PASS' if g2 else 'FAIL'}] galerkin flow-direction denominator "
          f"{t2g.zn_denom} has the Z_n = -1 root", file=out)
    print(f"    [{'PASS' if a2 else 'FAIL'}] element-averaged flow-direction "
          f"denominator {t2a.zn_denom} does not; cancelled factors: "
          f"{', '.join(str(p) for p in t2a.cancelled_zn)}", file=out)
    if t2a.notes:
        print(f"    note: {t2a.notes}", file=out)
    ok = ok and g2 and a2
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
        p.add_argument("--scheme", choices=["galerkin", "averaged", "both"],
                       help="override the config's scheme selection")
        p.set_defaults(fn=fn)
    sub.add_parser("verify")

    args = parser.parse_args(argv)
    if args.command == "verify":
        return verify()
    try:
        cfg = ScenarioConfig.load(args.config, args.scheme)
        record = args.fn(cfg, Path(args.out))
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
