"""Online bilevel sample reweighting with a learned loss-to-weight network.

The package trains a small classifier while simultaneously learning an
MLP that maps each sample's training loss to a weight in [0, 1], guided
by a small clean and balanced meta set. Companion modules generate
synthetically biased datasets (class imbalance, label noise) and run the
experiment harness that checks the method's qualitative behavior.

The public API is the modules (metaweight.config, metaweight.harness,
...); the package root re-exports nothing. It holds the package's one
fault hook, `_stage`, and its one CSV dialect, `_write_csv` and
`_csv_rows`; it imports no package module, so every module can use them.
"""

import csv


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
    """Yield a UTF-8 CSV file's records one at a time. A record the csv
    module rejects (a field past its limit) is a ValueError naming its line."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            yield from reader
        except csv.Error as exc:
            raise ValueError(f"line {reader.line_num}: {exc}") from None
