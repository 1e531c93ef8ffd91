"""The benchmark's three workloads.

Each workload builds its inputs from the seed in its constructor (set-up),
hands the runner one cycle of ops at a time (a seeded permutation of the
same op set, so every complete cycle does identical work), runs one op
(timed) and checks its result (untimed). An op fails on an exception, a
timeout or a failed check.

- sheet2d_contrast: one (Pe, scheme) pair of the 2D conducting-sheet
  scenario: a coarse nz=33 solve, a z-refined nz=257 solve at the coarse
  grid's physical velocity, the centerline deviation between them and its
  oscillation metric. Checked against the acceptance bounds of criterion 5
  and the fem2d residual budget.
- peak_error_sweep: one Pe, drawn log-uniformly (stratified) from
  [1.1, 1000]: the measured peak error of both schemes, the closed-form
  formulas, and the closed-form nodal solution against fem1d for both
  schemes. Checked against criteria 1 and 2 and the fem1d residual budget.
- cli_scenarios: one pass of the six shipped commands, each in a fresh
  interpreter. Checked by exit code, the verify verdict, the expected files
  and the CSV values recorded from the seed commit.
"""
from __future__ import annotations

import hashlib
import json
import lzma
import math
import os
import random
import resource
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from eddyfem import cli, fem1d, fem2d, oracle
from eddyfem.core import Scheme, material_for_peclet

BENCH_DIR = Path(__file__).resolve().parent
B = 1.0
# the --fault hang negative control uses a short timeout: the hanging mesh
# grading loop grows a list by about 70 MB per second
HANG_TIMEOUT_S = 2.0


def peak_rss_kb_self() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_child(argv, timeout_s, stdout_path=None, env=None):
    """Run a child process to completion or kill it after ``timeout_s``.

    Returns (exit code, peak RSS of that child in KiB, wall seconds,
    timed out). The child is reaped with wait4 so its own resource usage
    is read, not that of every child this process ever had.
    """
    out = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
    try:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=env)
        timer = threading.Timer(timeout_s, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        timed_out = proc.returncode < 0 and wall >= timeout_s
        return proc.returncode, usage.ru_maxrss, wall, timed_out
    finally:
        if stdout_path:
            out.close()


# ---------------------------------------------------------------------------
# sheet2d_contrast

SHEET = {
    "dimension": 2, "scheme": "both",
    "sheet": {"thickness": 1.3, "sigma": 7.21e6, "mu_r": 1.0, "air_factor": 5.0},
    "field": {"kind": "smooth_circle", "radius": 1.3, "amplitude": B},
    "grid": {"nz": 33, "conductor_rows": 16, "air_ratio": 1.3, "axial_factor": 6.0},
}
RADIUS = SHEET["field"]["radius"]
REFINE = 8


def _sheet_solve(pe, scheme, grid, dz_velocity=None):
    raw = dict(SHEET, pe=[pe], grid=grid)
    cfg = cli.ScenarioConfig.from_dict(raw)
    mesh, material, regions, profile = cli.build_2d_case(cfg, pe)
    if dz_velocity is not None:
        # keep the physical velocity of the coarse grid
        material = material_for_peclet(pe, dz_velocity, sigma=material.sigma, mu=material.mu)
    system = fem2d.assemble_2d(mesh, material, regions, profile, scheme)
    return system, fem2d.solve_2d(system), mesh


def _flat(sol) -> np.ndarray:
    return np.concatenate([sol.phi.ravel(), sol.a_y.ravel(), sol.a_z.ravel()])


def residual_ratio_2d(system, x) -> float:
    """max |A x - b| over fem2d's residual budget (<= 1 passes)."""
    a, rhs = system.matrix, system.rhs
    resid = float(np.max(np.abs(a @ x - rhs)))
    norm_a = float(np.max(np.abs(a).sum(axis=1)))
    budget = fem2d.RESIDUAL_RTOL * (norm_a * float(np.max(np.abs(x))) + float(np.max(np.abs(rhs))))
    return resid / budget


class Sheet2DContrast:
    name = "sheet2d_contrast"
    in_process = True
    op_timeout_s = 10.0
    scope = "cycle"   # both schemes of one Pe share a left-hand side
    faults = ("perturb", "hang")

    def __init__(self, seed: int, work: Path):
        self.rng = random.Random(seed)
        self.ops = [(pe, scheme) for pe in (2.0, 60.0, 2000.0)
                    for scheme in (Scheme.GALERKIN, Scheme.ELEMENT_AVERAGED)]

    def cycle(self):
        ops = list(self.ops)
        self.rng.shuffle(ops)
        return ops

    def describe(self, op) -> str:
        return f"Pe={op[0]:g} {op[1].value}"

    def run(self, op, hang=False, tracer=None):
        pe, scheme = op
        grid = dict(SHEET["grid"])
        if hang:
            grid["air_ratio"] = 0.5   # never reaches the padding target
        coarse, sol, mesh = _sheet_solve(pe, scheme, grid)
        fine_grid = dict(grid, nz=(grid["nz"] - 1) * REFINE + 1)
        fine, ref, mesh_r = _sheet_solve(pe, scheme, fine_grid, dz_velocity=mesh.dz)
        tr = fem2d.axis_profile(sol, mesh)
        trr = fem2d.axis_profile(ref, mesh_r)
        z = tr[:, 0]
        dev = tr[:, 1] - np.interp(z, trr[:, 0], trr[:, 1])
        metric = fem2d.oscillation_metric(dev[z < -2.5 * RADIUS], B)
        overshoot = float(np.max(np.abs(dev[np.abs(z) > 2 * RADIUS]))) / B
        return {"metric": metric, "overshoot": overshoot,
                "systems": (coarse, fine), "x": [_flat(sol), _flat(ref)]}

    def check(self, op, res):
        pe, scheme = op
        problems = []
        m = res["metric"]
        if scheme is Scheme.ELEMENT_AVERAGED:
            if pe == 60.0 and not m <= 0.01:
                problems.append(f"averaged metric {m:.4g} > 0.01")
            if pe == 2000.0 and not m < 0.005:
                problems.append(f"averaged metric {m:.4g} >= 0.005")
            if pe == 2.0 and not res["overshoot"] <= 0.05:
                problems.append(f"averaged overshoot {res['overshoot']:.2%} > 5%")
        elif pe >= 60.0 and not m >= 0.1:
            problems.append(f"galerkin metric {m:.4g} < 0.1")
        for label, system, x in zip(("coarse", "refined"), res["systems"], res["x"]):
            ratio = residual_ratio_2d(system, x)
            if not ratio <= 1.0:
                problems.append(f"{label} residual is {ratio:.3g}x the budget")
        return problems

    def damage(self, res, fault):
        res["x"][1] = res["x"][1] * 1.01

    def peak_rss_kb(self) -> int:
        return peak_rss_kb_self()


# ---------------------------------------------------------------------------
# peak_error_sweep

PULSE = (0.2, 40, 30, 40)   # dz, upstream, plateau and downstream elements
PE_RANGE = (1.1, 1000.0)
STRATA = 200


def residual_ratio_1d(system, a_y) -> float:
    """max |A x - b| over fem1d's residual budget (<= 1 passes)."""
    resid = float(np.max(np.abs(system.matmul(a_y) - system.rhs)))
    budget = fem1d.RESIDUAL_RTOL * (system.inf_norm() * float(np.max(np.abs(a_y)))
                                    + float(np.max(np.abs(system.rhs))))
    return resid / budget


class PeakErrorSweep:
    name = "peak_error_sweep"
    in_process = True
    op_timeout_s = 10.0
    scope = "op"
    faults = ("perturb",)

    def __init__(self, seed: int, work: Path):
        self.rng = random.Random(seed)
        lo, hi = (math.log(p) for p in PE_RANGE)
        width = (hi - lo) / STRATA
        self.ops = [math.exp(lo + (k + self.rng.random()) * width) for k in range(STRATA)]
        self.ops += [2.0, PE_RANGE[1]]

    def cycle(self):
        ops = list(self.ops)
        self.rng.shuffle(ops)
        return ops

    def describe(self, op) -> str:
        return f"Pe={op!r}"

    def run(self, pe, hang=False, tracer=None):
        dz, m_b, m_c, m_d = PULSE
        res = {"measured": {}, "formula": {}, "fem": {}}
        for scheme in Scheme:
            res["measured"][scheme] = cli.measured_peak_error(pe, dz, m_b, m_c, m_d, scheme, B)
            res["formula"][scheme] = oracle.peak_error(scheme, pe, B)
            mesh, material, profile = fem1d.rect_pulse_case(pe, dz, m_b, m_c, m_d, B)
            system = fem1d.assemble_1d(mesh, material, profile, scheme)
            res["fem"][scheme] = (system, fem1d.solve_1d(system).a_y,
                                  oracle.analytic_solve(pe, dz, B, m_b, m_c, m_d, scheme).nodal_values())
        return res

    def check(self, pe, res):
        problems = []
        for scheme in Scheme:
            gap = abs(res["measured"][scheme] - res["formula"][scheme])
            if not gap <= 1e-6:
                problems.append(f"{scheme.value} measured-formula gap {gap:.3g} > 1e-6")
            system, a_y, exact = res["fem"][scheme]
            rel = float(np.max(np.abs(a_y - exact))) / float(np.max(np.abs(exact)))
            if not rel <= 1e-8:
                problems.append(f"{scheme.value} oracle-vs-fem1d relative error {rel:.3g} > 1e-8")
            ratio = residual_ratio_1d(system, a_y)
            if not ratio <= 1.0:
                problems.append(f"{scheme.value} residual is {ratio:.3g}x the budget")
        return problems

    def damage(self, res, fault):
        system, a_y, exact = res["fem"][Scheme.ELEMENT_AVERAGED]
        res["fem"][Scheme.ELEMENT_AVERAGED] = (system, a_y * (1 + 1e-6), exact)

    def peak_rss_kb(self) -> int:
        return peak_rss_kb_self()


# ---------------------------------------------------------------------------
# cli_scenarios

COMMANDS = {
    "pe2": ("run-1d", "configs/fig_pulse1d_pe2.json"),
    "pe2000": ("run-1d", "configs/fig_pulse1d_pe2000.json"),
    "circle": ("run-2d", "configs/sheet2d_circle.json"),
    "rect": ("run-2d", "configs/sheet2d_rect.json"),
    "sweep": ("sweep-error", "configs/sweep_peak_error.json"),
    "verify": ("verify", None),
}
COMMAND_TIMEOUT_S = 10.0
REFERENCE = BENCH_DIR / "reference" / "cli_seed.json.xz"
# CSV values may differ from the seed by this share of their column's
# largest magnitude: a hundred times the largest change seen between
# SuperLU orderings and a dense LAPACK solve of the shipped 2D systems
REF_RTOL = 1e-6
REF_DIGITS = 9   # significant digits kept in the stored reference


def parse_csv(text: str):
    """(column names, rows) of an eddyfem CSV; numbers become floats,
    empty cells None, anything else stays a string."""
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]

    def cell(s):
        if s == "":
            return None
        try:
            return float(s)
        except ValueError:
            return s
    return lines[0].split(","), [[cell(c) for c in ln.split(",")] for ln in lines[1:]]


def compare_csv(columns, rows, ref) -> list:
    """Problems found comparing a parsed CSV with its reference entry."""
    if columns != ref["columns"]:
        return [f"columns {columns} != {ref['columns']}"]
    if len(rows) != len(ref["rows"]) or any(len(r) != len(columns) for r in rows):
        return [f"shape differs from the reference ({len(rows)} rows)"]
    problems = []
    for j, name in enumerate(columns):
        col, want = [r[j] for r in rows], [r[j] for r in ref["rows"]]
        scale = max((abs(w) for w in want if isinstance(w, float)), default=0.0)
        tol = REF_RTOL * scale
        for i, (got, exp) in enumerate(zip(col, want)):
            if isinstance(exp, float) and isinstance(got, float):
                ok = abs(got - exp) <= tol
            else:
                ok = got == exp
            if not ok:
                problems.append(f"column {name} row {i}: {got!r} vs reference {exp!r}")
                break
    return problems


def run_pass(out_dir: Path, order, hang=False, tracer=None):
    """Run the commands named in ``order`` into a fresh ``out_dir``, each in
    its own interpreter, stopping at the first failure. With a tracer the
    commands run under cli_child.py and their reports are absorbed.
    Returns ({label: exit code or 'timeout'}, largest child peak RSS in KiB).
    """
    root = BENCH_DIR.parent
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    commands = {label: COMMANDS[label] for label in order}
    if hang:
        cfg = json.loads((root / COMMANDS["circle"][1]).read_text())
        cfg["grid"]["air_ratio"] = 0.5   # never reaches the padding target
        (out_dir / "hang.json").write_text(json.dumps(cfg))
        commands = {"hang": ("run-2d", str(out_dir / "hang.json")), **commands}
    codes, max_rss = {}, 0
    for label, (sub, config) in commands.items():
        args = [sub] if config is None else [
            sub, "--config", str(root / config), "--out", str(out_dir / label)]
        if tracer is None:
            argv = [sys.executable, "-m", "eddyfem.cli"] + args
        else:
            report = out_dir / f"{label}.trace.json"
            argv = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(report)] + args
        timeout = HANG_TIMEOUT_S if label == "hang" else COMMAND_TIMEOUT_S
        code, rss, _, timed_out = run_child(argv, timeout, out_dir / f"{label}.log")
        max_rss = max(max_rss, rss)
        codes[label] = "timeout" if timed_out else code
        if code != 0:
            break
        if tracer is not None:
            tracer.absorb(json.loads(report.read_text()))
    return codes, max_rss


class CliScenarios:
    name = "cli_scenarios"
    in_process = False
    op_timeout_s = None   # each command has its own timeout
    scope = "op"
    faults = ("perturb", "missing", "hang")

    def __init__(self, seed: int, work: Path):
        self.rng = random.Random(seed)
        self.work = work
        self.reference = json.loads(lzma.decompress(REFERENCE.read_bytes()))
        self.max_rss_kb = 0

    def cycle(self):
        order = list(COMMANDS)
        self.rng.shuffle(order)
        return [tuple(order)]

    def describe(self, op) -> str:
        return "pass " + ",".join(op)

    def run(self, order, hang=False, tracer=None):
        out_dir = self.work / "pass"
        codes, rss = run_pass(out_dir, order, hang, tracer)
        self.max_rss_kb = max(self.max_rss_kb, rss)
        return {"dir": out_dir, "codes": codes}

    def check(self, order, res):
        problems = [f"{label} exited with {code}" for label, code in res["codes"].items() if code != 0]
        missing = [label for label in COMMANDS if label not in res["codes"]]
        if missing:
            problems.append(f"not run: {', '.join(missing)}")
        if problems:
            return problems
        out_dir = res["dir"]
        if "verification PASSED" not in (out_dir / "verify.log").read_text():
            problems.append("verify did not print 'verification PASSED'")
        identical = csvs = 0
        for rel, ref in self.reference["files"].items():
            path = out_dir / rel
            if not path.is_file():
                problems.append(f"missing output {rel}")
                continue
            if not rel.endswith(".csv"):
                continue
            data = path.read_bytes()
            csvs += 1
            identical += hashlib.sha256(data).hexdigest() == ref["sha256"]
            problems += [f"{rel}: {p}" for p in compare_csv(*parse_csv(data.decode()), ref)]
        res["csv_identical"], res["csv_files"] = identical, csvs
        return problems

    def damage(self, res, fault):
        if any(code != 0 for code in res["codes"].values()):
            return
        path = res["dir"] / "circle" / "centerline_galerkin.csv"
        if fault == "missing":
            path.unlink()
            return
        columns, rows = parse_csv(path.read_text())
        rows[len(rows) // 2][1] *= 1.001
        head = [ln for ln in path.read_text().splitlines() if ln.startswith("#")]
        body = [",".join(columns)] + [",".join(repr(v) for v in r) for r in rows]
        path.write_text("\n".join(head + body) + "\n")

    def peak_rss_kb(self) -> int:
        return self.max_rss_kb


WORKLOADS = {w.name: w for w in (Sheet2DContrast, PeakErrorSweep, CliScenarios)}
