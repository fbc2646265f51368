"""Tab-separated numeric tables with bitwise float round trip.

Layout: one `# col1<TAB>col2...` header line, then one row per line, every
value printed with 17 significant digits so parsing reproduces each double
exactly.  Rows are streamed to the file as the writer supplies them, one
fixed `%.17g` format per row and no copy of the whole table; row order is
whatever the writer supplies (deterministic callers give deterministic
files).

`block_formatter` writes the same rows for tables made of blocks that share
one value of the first column and repeat a fixed second column, such as
`nlslab evolve`'s `snapshots.tsv` (t, then x over the grid): it formats the
fixed column once and each block's first value once, so only the four
columns that change are converted per row.  `open_table` opens such a table
and writes its header; its owner appends the blocks.  Neither is in
`__all__`: `nlslab evolve` is their one caller.  It opens the table before
the run and appends the blocks after it; on two cores one forked child
formats every other block.
"""

from __future__ import annotations

import contextlib

import numpy as np

__all__ = ["write_table", "read_table"]

_NUMBER = "%.17g"


def _fmt(x: float) -> str:
    return _NUMBER % float(x)


def _write_error(path: str, err) -> OSError:
    return OSError(f"cannot write table {path!r}: {err}")


def write_table(path: str, header: list[str], rows) -> None:
    """Write a header-plus-rows table; empty rows give a header-only file.

    Every row must hold exactly `len(header)` numbers: a row of any other
    length does not fit the fixed row format and raises TypeError, leaving
    the rows before it written.
    """
    row_format = "\t".join([_NUMBER] * len(header)) + "\n"
    fh = open_table(path, header)
    try:
        with fh:
            fh.writelines(row_format % tuple(row) for row in rows)
    except OSError as err:
        raise _write_error(path, err) from err


def open_table(path: str, header: list[str]):
    """Open a table for writing with its header line written; the caller closes it.

    The header is flushed here, so a path that cannot be written fails
    before any row is made.
    """
    try:
        fh = open(path, "w", encoding="utf-8")
    except OSError as err:
        raise _write_error(path, err) from err
    try:
        fh.write("# " + "\t".join(header) + "\n")
        fh.flush()
    except OSError as err:
        with contextlib.suppress(OSError):
            fh.close()
        raise _write_error(path, err) from err
    return fh


def block_formatter(x):
    """format_block(t, values) -> the rows (t, x[k], values[4k:4k+4]) as write_table writes them.

    The strings of x are made once here and t's once per block; one `%`
    call over the block's 4·len(x) values fills the rest.
    """
    tails = ["\t" + _NUMBER % xk + ("\t" + _NUMBER) * 4 + "\n" for xk in x.tolist()]

    def format_block(t: float, values) -> str:
        ts = _NUMBER % t
        return (ts + ts.join(tails)) % tuple(values.tolist())

    return format_block


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
