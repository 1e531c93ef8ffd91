"""Negative control: damaged results must count as failed ops.

    python3 bench/negative_control.py

Runs short benchmark runs with --fault, which damages the first op of the
run: 'perturb' scales a solution (or a CSV value) after the op and before
its check, 'missing' deletes an expected CLI output file, and 'hang' gives
the op a config whose mesh grading never terminates, so only the wall
timeout (shortened to workloads.HANG_TIMEOUT_S) ends it. Each run must
still print its result line, with correct false and at least one failed
op. Exits 0 when every case does.
"""
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
CASES = (
    ("peak_error_sweep", "perturb", 1),
    ("sheet2d_contrast", "perturb", 0),
    ("cli_scenarios", "perturb", 0),
    ("cli_scenarios", "missing", 0),
    ("sheet2d_contrast", "hang", 0),
    ("cli_scenarios", "hang", 0),
)


def main() -> int:
    ok = True
    for workload, fault, trace in CASES:
        argv = [sys.executable, str(RUN), "--workload", workload, "--seed", "1",
                "--seconds", "1", "--trace", str(trace), "--fault", fault]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=170)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        caught = (result is not None and not result["correct"] and result["failed"] >= 1
                  and (not trace or result["metrics"]["fail_ratio"]["value"] > 0))
        ok = ok and caught
        why = [ln for ln in lines if ln.startswith("# FAILED")][:1]
        summary = (f"failed {result['failed']}/{result['attempted']}" if result
                   else f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
        print(f"[{'caught' if caught else 'MISSED'}] {workload} --fault {fault}: {summary}"
              + (f" ({why[0][2:]})" if why else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
