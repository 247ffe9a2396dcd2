"""Run one `metaweight` CLI command with the benchmark's clock or tracer.

Usage: python bench/cli_entry.py {clock,trace} SPANS.json <subcommand> [args...]

Behaves like `python -m metaweight <subcommand> [args...]` (same output,
same exit code) and afterwards writes the command's spans as JSON rows:
`clock` records only training runs and classifier updates, `trace` every
traced function.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from metaweight import cli  # noqa: E402
from tracing import CLOCK_TARGETS, TARGETS, Tracer  # noqa: E402


def main() -> int:
    mode, spans_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    with Tracer({"clock": CLOCK_TARGETS, "trace": TARGETS}[mode]) as tracer:
        code = cli.main(argv)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.rows(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
