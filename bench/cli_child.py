"""Traced stand-in for ``python -m eddyfem.cli``, used by traced
cli_scenarios passes.

    python3 bench/cli_child.py <report.json> <eddyfem cli arguments...>

Times the package import, wraps the layer entry points (see spans.py),
runs the command, then writes the span totals, counts and solved-system
keys to <report.json> and exits with the command's exit code.
"""
import json
import sys

import spans


def main() -> int:
    report_path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    tracer.begin("import")
    import eddyfem.cli
    tracer.end()
    spans.instrument(tracer)
    try:
        return eddyfem.cli.main(argv)
    finally:
        with open(report_path, "w") as f:
            json.dump(tracer.report(), f)


if __name__ == "__main__":
    sys.exit(main())
