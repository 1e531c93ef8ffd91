"""tools/bench_trajectory.py reads Tier-1's counts from pytest's last line."""
import importlib.util
import subprocess
from pathlib import Path

import pytest

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
    assert counts("1 passed, 2 errors in 1.33s") == {"passed": 1, "errors": 2}


def tier1_record(monkeypatch, stdout):
    module = load()

    def run(args, **kwargs):
        return subprocess.CompletedProcess(args, 1, stdout=stdout, stderr="")

    monkeypatch.setattr(module.subprocess, "run", run)
    return module.run_tier1()


@pytest.mark.parametrize("summary, counts", [("1 passed, 2 errors in 1.33s", (1, 0, 2)),
                                             ("3 failed, 1 passed, 1 error in 0.50s", (1, 3, 1))])
def test_the_tier1_record_counts_errors_in_both_spellings(monkeypatch, summary, counts):
    record = tier1_record(monkeypatch, f"ERROR tests/test_x.py\n{summary}\n")
    assert (record["passed"], record["failed"], record["errors"]) == counts


@pytest.mark.parametrize("stdout", ["", "ImportError while loading conftest\n"])
def test_a_tier1_run_without_counts_exits_nonzero(monkeypatch, stdout):
    with pytest.raises(SystemExit) as stop:
        tier1_record(monkeypatch, stdout)
    assert stop.value.code not in (None, 0)
