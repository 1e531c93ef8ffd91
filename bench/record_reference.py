"""Record the cli_scenarios reference from the current tree.

    python3 bench/record_reference.py

Runs the six shipped commands once and stores, for every output file, its
sha256 and, for CSVs, the column names and the values rounded to
REF_DIGITS significant digits, in reference/cli_seed.json.xz. The stored
reference should come from the commit the benchmark was defined on;
re-record only when an intended change of the outputs lands.
"""
import hashlib
import json
import lzma
import sys

import run


def main() -> int:
    if run.prepare() is None:
        return 2
    import workloads

    def rounded(v):
        return float(f"{v:.{workloads.REF_DIGITS}g}") if isinstance(v, float) else v

    out_dir = run.ROOT / ".bench_work" / "reference"
    codes, _ = workloads.run_pass(out_dir, tuple(workloads.COMMANDS))
    if any(code != 0 for code in codes.values()):
        print(f"error: a command failed: {codes}", file=sys.stderr)
        return 1
    files = {}
    for path in sorted(p for p in out_dir.rglob("*") if p.suffix in (".csv", ".svg")):
        data = path.read_bytes()
        entry = {"sha256": hashlib.sha256(data).hexdigest()}
        if path.suffix == ".csv":
            columns, rows = workloads.parse_csv(data.decode())
            entry.update(columns=columns, rows=[[rounded(v) for v in r] for r in rows])
        files[str(path.relative_to(out_dir))] = entry
    blob = json.dumps({"files": files}, separators=(",", ":")).encode()
    workloads.REFERENCE.write_bytes(lzma.compress(blob, preset=9))
    print(f"wrote {workloads.REFERENCE} ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
