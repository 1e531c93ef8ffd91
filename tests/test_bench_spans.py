"""The benchmark's traced runs wrap package functions by module attribute
(bench/spans.py). Renaming or deleting one of them must fail here, not
only in a traced benchmark run."""
import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

from eddyfem import ztransfer
from eddyfem.core import Scheme

BENCH = Path(__file__).resolve().parents[1] / "bench"
SRC = BENCH.parent / "src"


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_exists_and_is_restored():
    spans = load("spans")
    before = {name: getattr(ztransfer, name) for name in ("tf_1d", "tf_2d", "analyze")}
    undo = spans.instrument(spans.Tracer())
    assert ztransfer.tf_2d is not before["tf_2d"]
    undo()
    assert {name: getattr(ztransfer, name) for name in before} == before


INSTRUMENT_AFTER_CLI = """\
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import eddyfem.cli
import spans
lazy = "eddyfem.ztransfer" not in sys.modules
undo = spans.instrument(spans.Tracer())
undo()
print(lazy)
"""


def test_instrument_resolves_the_modules_that_cli_imports_lazily():
    # a traced child imports eddyfem.cli alone, which leaves ztransfer to
    # verify; the package loads it when the tracer reads eddyfem.ztransfer
    code = INSTRUMENT_AFTER_CLI.format(src=str(SRC), bench=str(BENCH))
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "True"


def test_correctness_gate_reads_the_lazy_matrix():
    # the sheet2d_contrast check and the solve counts read system.matrix,
    # which an assembled system builds from its stencil on first read
    workloads, spans = load("workloads"), load("spans")
    system, sol, mesh = workloads._sheet_solve(60.0, Scheme.ELEMENT_AVERAGED,
                                               dict(workloads.SHEET["grid"]))
    assert system._matrix is None   # not built by the assembly or the solve
    assert workloads.residual_ratio_2d(system, workloads._flat(sol)) <= 1.0
    tracer = spans.Tracer()
    spans._after_solve_2d(tracer, system)
    assert tracer.counts["fem2d.dofs"] == 3 * mesh.node_count
    assert tracer.counts["fem2d.nnz"] == system.matrix.nnz == np.count_nonzero(system._stencil)
