"""Tab-separated numeric tables with bitwise float round trip.

Layout: one `# col1<TAB>col2...` header line, then one row per line, every
value printed with 17 significant digits so parsing reproduces each double
exactly.  Rows are streamed to the file as the writer supplies them, one
fixed `%.17g` format per row and no copy of the whole table; row order is
whatever the writer supplies (deterministic callers give deterministic
files).
"""

from __future__ import annotations

import numpy as np

__all__ = ["write_table", "read_table"]

_NUMBER = "%.17g"


def _fmt(x: float) -> str:
    return _NUMBER % float(x)


def write_table(path: str, header: list[str], rows) -> None:
    """Write a header-plus-rows table; empty rows give a header-only file.

    Every row must hold exactly `len(header)` numbers: a row of any other
    length does not fit the fixed row format and raises TypeError, leaving
    the rows before it written.
    """
    row_format = "\t".join([_NUMBER] * len(header)) + "\n"
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# " + "\t".join(header) + "\n")
            fh.writelines(row_format % tuple(row) for row in rows)
    except OSError as err:
        raise OSError(f"cannot write table {path!r}: {err}") from err


def read_table(path: str) -> tuple[list[str], np.ndarray]:
    """Read a table back as (column names, float64 array of shape (rows, cols))."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as err:
        raise OSError(f"cannot read table {path!r}: {err}") from err
    if not lines or not lines[0].startswith("#"):
        raise ValueError(f"{path}: missing '# ...' header line")
    header = lines[0][1:].strip().split("\t")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != len(header):
            raise ValueError(
                f"{path}:{lineno}: expected {len(header)} columns, got {len(parts)}"
            )
        try:
            rows.append([float(p) for p in parts])
        except ValueError as err:
            raise ValueError(f"{path}:{lineno}: {err}") from None
    data = np.array(rows, dtype=np.float64) if rows else np.empty((0, len(header)))
    return header, data
