"""In-memory span recorder and the layer instrumentation of traced runs.

A traced run replaces public functions of the eddyfem modules with wrappers
that open a span named after the layer, so every layer is timed from
outside, at its module boundary. Spans are kept in memory; a layer's self
time is its span duration minus the part covered by its child spans.
Nothing is written until the run ends.
"""
from __future__ import annotations

import functools
import hashlib
import os
import time
from collections import defaultdict

# layer name -> (module or class path inside eddyfem, attribute) pairs; a
# layer that owns several entry points counts the outermost call only
LAYERS = (
    ("cli.config_load", (("cli.ScenarioConfig", "load"), ("cli.ScenarioConfig", "from_dict"))),
    ("cli.build_case", (("cli", "build_1d_case"), ("cli", "build_2d_case"))),
    ("cli.write_csv", (("cli", "write_csv"),)),
    ("cli.write_svg", (("cli", "svg_line_chart"),)),
    ("fem2d.assemble", (("fem2d", "assemble_2d"),)),
    ("fem2d.solve", (("fem2d", "solve_2d"),)),
    ("fem2d.post", (("fem2d", "axis_profile"), ("fem2d", "oscillation_metric"))),
    ("fem1d.assemble", (("fem1d", "assemble_1d"),)),
    ("fem1d.solve", (("fem1d", "solve_1d"),)),
    ("oracle.analytic", (("oracle", "analytic_solve"), ("oracle.AnalyticSolution", "nodal_values"))),
    ("oracle.formula", (("oracle", "peak_error"),)),
    ("ztransfer.identities", (("ztransfer", "run_identity_checks"),)),
    ("ztransfer.tf", (("ztransfer", "tf_1d"), ("ztransfer", "tf_2d"))),
    ("ztransfer.analyze", (("ztransfer", "analyze"),)),
    # the exact polynomial kernels, wrapped where ztransfer imports them
    ("zpoly.exact", (("ztransfer", "gcd_univariate"), ("ztransfer", "roots_univariate"),
                     ("ztransfer", "separate"))),
)
SPAN_NAMES = ("import",) + tuple(name for name, _ in LAYERS)


def _digest(*arrays) -> str:
    h = hashlib.sha1()   # content identity only; the fastest digest here
    for a in arrays:
        h.update(memoryview(a).cast("B"))
    return h.hexdigest()


def _after_solve_2d(tracer, system):
    a = system.matrix
    tracer.counts["fem2d.dofs"] += a.shape[0]
    tracer.counts["fem2d.nnz"] += a.nnz
    tracer.solves.append(("fem2d", _digest(a.indptr, a.indices, a.data), 1))


def _after_solve_1d(tracer, system):
    n = len(system.diag)
    tracer.counts["fem1d.nodes"] += n
    key = _digest(system.lower, system.diag, system.upper, system.rhs)
    tracer.solves.append(("fem1d", key, n))


def _after_write_csv(tracer, path):
    tracer.counts["cli.csv_bytes"] += os.path.getsize(path)


# counts taken from a layer call's first argument once the call returns
AFTER = {"fem2d.solve": _after_solve_2d, "fem1d.solve": _after_solve_1d,
         "cli.write_csv": _after_write_csv}


class Tracer:
    """Spans as [name, start, end, parent index]; counts by name; and the
    content keys of solved systems, in call order, for repeat shares."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.solves = []
        self._open = []
        self._absorbed = {}

    def begin(self, name: str) -> None:
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), None, parent])

    def end(self) -> None:
        self.spans[self._open.pop()][2] = time.perf_counter()

    def wrap(self, name, fn):
        after = AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._open and self.spans[self._open[-1]][0] == name:
                return fn(*args, **kwargs)
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if after is not None:
                after(self, args[0])
            return result
        return wrapper

    def layer_totals(self) -> dict:
        """{name: [calls, self seconds]} over the closed spans."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0 and end is not None:
                covered[parent] += end - start
        totals = {name: list(t) for name, t in self._absorbed.items()}
        for k, (name, start, end, _) in enumerate(self.spans):
            if end is None:
                continue
            t = totals.setdefault(name, [0, 0.0])
            t[0] += 1
            t[1] += end - start - covered[k]
        return totals

    def report(self) -> dict:
        """Everything a child process hands back to the benchmark."""
        return {"layers": self.layer_totals(), "counts": dict(self.counts),
                "solves": self.solves}

    def absorb(self, report: dict) -> None:
        """Add a child process's report to this tracer's totals."""
        for name, (calls, self_s) in report["layers"].items():
            t = self._absorbed.setdefault(name, [0, 0.0])
            t[0] += calls
            t[1] += self_s
        for name, value in report["counts"].items():
            self.counts[name] += value
        self.solves.extend(tuple(s) for s in report["solves"])


def _resolve(path: str):
    import eddyfem.cli  # noqa: F401  (the package does not import cli itself)
    obj = eddyfem
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def instrument(tracer: Tracer):
    """Wrap every layer entry point; returns a function that undoes it."""
    saved = []
    for name, entries in LAYERS:
        for owner_path, attr in entries:
            owner = _resolve(owner_path)
            orig = vars(owner)[attr]
            if isinstance(orig, classmethod):
                patched = classmethod(tracer.wrap(name, orig.__func__))
            else:
                patched = tracer.wrap(name, orig)
            setattr(owner, attr, patched)
            saved.append((owner, attr, orig))

    def undo():
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)
    return undo


class RepeatCounter:
    """Share of solve work whose system was already solved in the same
    scope: calls for fem2d (left-hand sides), unknowns for fem1d (whole
    systems)."""

    def __init__(self):
        self.repeat = defaultdict(float)
        self.total = defaultdict(float)

    def add_scope(self, solves) -> None:
        seen = set()
        for layer, key, size in solves:
            if (layer, key) in seen:
                self.repeat[layer] += size
            seen.add((layer, key))
            self.total[layer] += size

    def share(self, layer: str) -> float:
        return self.repeat[layer] / self.total[layer] if self.total[layer] else 0.0
