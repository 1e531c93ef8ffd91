"""Write one point of the benchmark trajectory, ``BENCH_<n>.json``.

    python3 tools/bench_trajectory.py <n>

Run from anywhere; paths are taken relative to the repository root. For each
workload named in BENCHMARK.json it runs, for that file's ``run_seconds``,

    python3 bench/run.py --workload W --seed 1 --seconds 30 --trace 0

and keeps the JSON object on its last stdout line. It then runs the Tier-1
suite (``python -m pytest -q --continue-on-collection-errors`` with ``src``
on PYTHONPATH) and keeps its pass, fail and error counts and its wall time;
it exits nonzero, writing nothing, if pytest's last stdout line carries no
counts. The file records the checked-out commit and whether tracked files
differed from it, in which case the measured tree is that commit plus the
uncommitted change.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def tier1_counts(summary: str) -> dict:
    """Counts by outcome from pytest's last line, e.g. '1 failed, 495 passed in 21.55s'."""
    counts = summary.strip("= ").split(" in ")[0]
    return {outcome: int(n) for n, outcome in re.findall(r"(\d+) (\w+)", counts)}


def run_workload(name: str, seconds: float) -> dict:
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", name, "--seed", "1",
                          "--seconds", str(seconds), "--trace", "0"],
                         cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def run_tier1() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
                         cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    last = (out.stdout.strip().splitlines() or [""])[-1]
    counts = tier1_counts(last)
    if not counts:
        sys.exit(f"no Tier-1 counts on pytest's last stdout line: {last!r}")
    # pytest writes '1 error' but '2 errors'
    return {"passed": counts.get("passed", 0), "failed": counts.get("failed", 0),
            "errors": counts.get("error", 0) + counts.get("errors", 0),
            "wall_s": round(wall, 2)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("n", type=int, help="trajectory index: the file written is BENCH_<n>.json")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "workloads": {w["name"]: run_workload(w["name"], spec["run_seconds"]) for w in spec["workloads"]},
        "tier1": run_tier1(),
    }
    path = ROOT / f"BENCH_{args.n}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
