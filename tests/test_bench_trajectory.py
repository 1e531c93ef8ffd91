"""tools/bench_trajectory.py reads Tier-1's pass count from pytest's last line."""
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_trajectory.py"


def load():
    spec = importlib.util.spec_from_file_location("bench_trajectory", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tier1_counts_reads_pytests_summary_line():
    counts = load().tier1_counts
    assert counts("500 passed in 24.98s") == {"passed": 500}
    assert counts("1 failed, 495 passed in 21.55s") == {"failed": 1, "passed": 495}
    assert counts("==== 2 failed, 3 passed, 1 error in 1.02s (0:00:01) ====") == {
        "failed": 2, "passed": 3, "error": 1}
