"""eddyfem benchmark: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload sheet2d_contrast --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ./src. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones (setup_s, op_s, ops_per_s, peak_rss_mb); with --trace 1
they are the per-layer ones, from a run that alternates untraced and
traced executions of every op. Lines before it are informational and
start with '#'. See bench/README.md for what each number means.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

T_START = time.perf_counter()
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("sheet2d_contrast", "peak_error_sweep", "cli_scenarios")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout("op exceeded its wall timeout")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import and build the inputs, then exit (one set-up sample)")
    p.add_argument("--fault", choices=("perturb", "missing", "hang"),
                   help="negative control: damage the first op so it must fail")
    return p.parse_args(argv)


def quantile_beyond(values, at_least=10):
    """The highest percentile with at least ``at_least`` values above it,
    as (percentile, value), or None when there are too few values."""
    n = len(values)
    if n <= at_least:
        return None
    k = n - at_least - 1          # index of the order statistic
    return round(100.0 * (k + 1) / n, 1), sorted(values)[k]


def environment(args, nproc):
    import numpy as np
    import scipy

    def blas(cfg):
        info = cfg.get("Build Dependencies", {}).get("blas", {})
        return f"{info.get('name')} {info.get('version')}"
    git = None
    if shutil.which("git") and (ROOT / ".git").exists():
        import subprocess
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        git = out.stdout.strip() or None
    try:
        l3 = (Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip())
    except OSError:
        l3 = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "nproc": nproc, "l3_cache": l3,
    }


def setup_samples(args):
    """Wall seconds of fresh interpreters that only do this workload's
    set-up, from spawn to exit."""
    from workloads import run_child
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_SAMPLES):
        code, _, wall, _ = run_child(argv, 60.0)
        if code != 0:
            raise RuntimeError(f"set-up process exited with {code}")
        times.append(wall)
    return times


class Runner:
    """Closed loop over complete cycles of the workload's ops, ending at the
    cycle boundary nearest to --seconds."""

    def __init__(self, wl, args):
        from workloads import HANG_TIMEOUT_S
        self.wl, self.args = wl, args
        self.hang_timeout_s = HANG_TIMEOUT_S
        self.times = {False: [], True: []}     # op wall seconds by traced
        self.attempted = self.failed = 0
        self.fault = args.fault
        self.csv_identical = self.csv_files = 0
        if args.trace:
            import spans
            self.tracer = spans.Tracer()
            self.repeats = spans.RepeatCounter()
            self.instrument = spans.instrument

    def one(self, op, traced):
        fault, self.fault = self.fault, None
        tracer = self.tracer if traced else None
        undo = self.instrument(tracer) if traced and self.wl.in_process else None
        timeout = self.wl.op_timeout_s   # None: the workload times its own children
        if timeout and fault == "hang":
            timeout = self.hang_timeout_s
        if timeout:
            signal.setitimer(signal.ITIMER_REAL, timeout)
        t0 = time.perf_counter()
        try:
            res = self.wl.run(op, hang=fault == "hang", tracer=tracer)
            problems = None
        except Exception as err:  # any failure of the program is a failed op
            res, problems = None, [f"{type(err).__name__}: {err}"]
        finally:
            dt = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            if undo:
                undo()
        self.times[traced].append(dt)
        if problems is None:
            if fault in ("perturb", "missing"):
                self.wl.damage(res, fault)
            problems = self.wl.check(op, res)
            self.csv_identical += res.get("csv_identical", 0)
            self.csv_files += res.get("csv_files", 0)
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= 5:
                print(f"# FAILED {self.wl.describe(op)}: {'; '.join(problems)}", flush=True)

    def loop(self):
        seconds = self.args.seconds
        t0 = time.perf_counter()
        cycles = 0
        while True:
            for op in self.wl.cycle():
                if time.perf_counter() - t0 > 2 * seconds + 20:
                    return          # far over time: a hang or a slow regression
                if self.args.trace:
                    # alternate which of the pair runs first
                    order = (False, True) if self.attempted % 4 == 0 else (True, False)
                    for traced in order:
                        self.one(op, traced)
                else:
                    self.one(op, traced=False)
                if self.args.trace and self.wl.scope == "op":
                    self.repeats.add_scope(self.tracer.solves)
                    self.tracer.solves = []
            if self.args.trace and self.wl.scope == "cycle":
                self.repeats.add_scope(self.tracer.solves)
                self.tracer.solves = []
            cycles += 1
            elapsed = time.perf_counter() - t0
            if elapsed + 0.5 * elapsed / cycles > seconds:
                return      # this cycle boundary is the one nearest to --seconds

    def end_to_end(self, setup):
        t = self.times[False]
        return {
            "setup_s": (statistics.median(setup), "s"),
            "op_s": (statistics.median(t), "s"),
            "ops_per_s": (len(t) / sum(t), "1/s"),
            "peak_rss_mb": (self.wl.peak_rss_kb() / 1024.0, "MB"),
        }

    def per_layer(self, import_s):
        import spans
        ops = len(self.times[True])
        untraced_op_wall = sum(self.times[False]) / len(self.times[False])
        totals = self.tracer.layer_totals()
        out = {}
        covered = 0.0
        for name in spans.SPAN_NAMES:
            calls, self_s = totals.get(name, (0, 0.0))
            if name == "import" and self.wl.in_process:
                # in-process workloads import once per process, in set-up
                out["import.calls"], out["import.self_s"] = (1, "count"), (import_s, "s")
                continue
            out[f"{name}.calls"] = (calls / ops, "count")
            out[f"{name}.self_s"] = (self_s / ops, "s")
            covered += self_s / ops
        counts = self.tracer.counts
        out["cli.csv_bytes"] = (counts["cli.csv_bytes"] / ops, "bytes")
        out["cli.csv_identical_share"] = (
            self.csv_identical / self.csv_files if self.csv_files else 0.0, "share")
        out["fem2d.dofs"] = (counts["fem2d.dofs"] / ops, "count")
        out["fem2d.nnz"] = (counts["fem2d.nnz"] / ops, "count")
        out["fem2d.lhs_repeat_share"] = (self.repeats.share("fem2d"), "share")
        out["fem1d.nodes"] = (counts["fem1d.nodes"] / ops, "count")
        out["fem1d.repeat_share"] = (self.repeats.share("fem1d"), "share")
        out["trace.covered_share"] = (covered / untraced_op_wall, "share")
        out["trace.overhead_share"] = (
            statistics.median(self.times[True]) / statistics.median(self.times[False]) - 1.0,
            "share")
        out["fail_ratio"] = (self.failed / self.attempted, "share")
        return out


def prepare():
    """Cap BLAS threads at nproc, point this process and its children at
    ./src, and import the package. Returns the import wall seconds, or
    None when the checkout has no package to import."""
    if not (SRC / "eddyfem" / "__init__.py").is_file():
        print(f"error: no eddyfem package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return None
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    import eddyfem.cli  # noqa: F401
    import_s = time.perf_counter() - t0
    if Path(eddyfem.__file__).resolve().parent != SRC / "eddyfem":
        print(f"error: imported eddyfem from {eddyfem.__file__}, not {SRC}", file=sys.stderr)
        return None
    return import_s


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = prepare()
    if import_s is None:
        return 2
    nproc = len(os.sched_getaffinity(0))

    import workloads
    work = ROOT / ".bench_work" / args.workload
    wl = workloads.WORKLOADS[args.workload](args.seed, work)
    if args.fault and args.fault not in wl.faults:
        print(f"error: {args.workload} supports --fault {'|'.join(wl.faults)}", file=sys.stderr)
        return 2
    if args.setup_only:
        return 0
    signal.signal(signal.SIGALRM, _alarm)
    own_setup = time.perf_counter() - T_START
    setup = None if args.trace else setup_samples(args)

    runner = Runner(wl, args)
    runner.loop()

    print("# env " + json.dumps(environment(args, nproc)))
    t = runner.times[False]
    tail = quantile_beyond(t)
    q = statistics.quantiles(t, n=4) if len(t) > 1 else [t[0]] * 3
    print(f"# ops={len(t)} op_s q1={q[0]:.6g} median={statistics.median(t):.6g} q3={q[2]:.6g} "
          + (f"p{tail[0]}={tail[1]:.6g}" if tail else "(too few ops for a tail percentile)")
          + f" failed={runner.failed}/{runner.attempted} own_setup_s={own_setup:.4g}"
          + (f" setup_samples={[round(s, 4) for s in setup]}" if setup else ""))
    metrics = runner.per_layer(import_s) if args.trace else runner.end_to_end(setup)
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0, "attempted": runner.attempted, "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
