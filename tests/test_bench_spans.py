"""The benchmark's traced runs wrap package functions by module attribute
(bench/spans.py). Renaming or deleting one of them must fail here, not
only in a traced benchmark run."""
import importlib.util
from pathlib import Path

from eddyfem import ztransfer

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_entry_point_exists_and_is_restored():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    before = {name: getattr(ztransfer, name) for name in ("tf_1d", "tf_2d", "analyze")}
    undo = spans.instrument(spans.Tracer())
    assert ztransfer.tf_2d is not before["tf_2d"]
    undo()
    assert {name: getattr(ztransfer, name) for name in before} == before
