"""Online bilevel sample reweighting with a learned loss-to-weight network.

A small classifier trains while an MLP learns to map each sample's loss
to a weight in [0, 1], guided by a small clean, balanced meta set. The
package root re-exports nothing; it holds the one fault hook, `_stage`,
and the one CSV and JSON dialects (`_write_csv` and `_csv_rows`, `_write_json`
and `_read_json`), and imports no package module, so every module can use them.
"""

import csv
import json


class _stage:
    """Name a fault by where it happened: a ValueError or ArithmeticError
    raised inside the block is raised again as `error`, its message after
    `context` (which carries its own separator, as in "virtual step: "). A
    callable context is called only when a fault passes."""

    def __init__(self, context, error: type[ValueError] = ValueError):
        self.context = context
        self.error = error

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, (ValueError, ArithmeticError)):
            context = self.context if isinstance(self.context, str) else self.context()
            raise self.error(f"{context}{exc}") from exc


def _write_csv(path, header, rows) -> None:
    """Write the header record, then `rows`: UTF-8 with "\\n" line ends."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _csv_rows(path):
    """Yield a UTF-8 CSV file's records; one the csv module rejects is a
    ValueError naming its line."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            yield from reader
        except csv.Error as exc:
            raise ValueError(f"line {reader.line_num}: {exc}") from None


def _write_json(path, payload) -> None:
    """Write UTF-8 JSON: sorted keys, two-space indent, "\\n" line ends, a final newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_json(path):
    """A UTF-8 JSON file's value; text that does not decode, too deep a nesting included, is a ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None
