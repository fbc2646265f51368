"""Tab-separated numeric tables with bitwise float round trip.

Layout: one `# col1<TAB>col2...` header line, then one row per line, every
value printed as `"%.17g" % value` prints it, 17 significant digits, so
parsing reproduces each double exactly.  Row order is whatever the writer
supplies (deterministic callers give deterministic files).

Both writers, `write_table` and `block_formatter`, print through one
formatter, `nlslab._formatter`, at most 4096 values at a time, so the text
of a whole table is never held at once.  It prints a float64 array byte
for byte as `%` does, without a Python call per value: it computes the 17
digits in double-double arithmetic where it can be sure of them, and has
`%` print the rest (nan, ±inf, the extremes and the near-ties) one at a
time.  It is imported at the first table written, so `import nlslab` pays
nothing for it.

`open_table` is how every table is opened for writing, `write_table`'s
included: a table is left whole or not at all, so a write that fails, or a
run that aborts inside its block, removes the file.

`block_formatter` writes the same rows for tables made of blocks that share
one value of the first column and repeat a fixed second column, such as
`nlslab evolve`'s `snapshots.tsv` (t, then x over the grid): it formats the
fixed column once and each block's first value once, so only the four
columns that change are converted per row.  Neither it nor `open_table` is
in `__all__`.
"""

from __future__ import annotations

import contextlib
import os

import numpy as np

__all__ = ["write_table", "read_table"]

_NUMBER = "%.17g"


def _fmt(x: float) -> str:
    return _NUMBER % float(x)


def write_table(path: str, header: list[str], rows) -> None:
    """Write a header-plus-rows table; empty rows give a header-only file.

    `rows` is a 2-D numeric array or an iterable of rows of numbers.  Every
    row must hold exactly `len(header)` numbers, and every value must be a
    real number, as `%` requires: anything else raises TypeError.  A write
    that fails for any reason leaves no file.
    """
    from ._formatter import as_table, lines  # here, not at import, which every importer would pay for

    with open_table(path, header) as fh:
        fh.writelines(lines(as_table(rows, len(header))))


@contextlib.contextmanager
def open_table(path: str, header: list[str]):
    """Open a table for writing, write and flush its header line, and yield the file.

    A path that cannot be opened fails before the block runs.  Any
    exception inside the block, or in the header write, removes the file
    and is re-raised; an OSError as `cannot write table ...`.
    """
    try:
        fh = open(path, "w", encoding="utf-8")
        try:
            with fh:
                fh.write("# " + "\t".join(header) + "\n")
                fh.flush()
                yield fh
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(path)
            raise
    except OSError as err:
        raise OSError(f"cannot write table {path!r}: {err}") from err


def block_formatter(x):
    """format_block(t, values) -> the rows (t, x[k], values[4k:4k+4]) as write_table writes them.

    The cells of x are made once here and t's once per block; only the
    block's 4·len(x) values are printed per block.  It pickles as x, not as
    its cells.
    """
    return _BlockFormatter(x)


class _BlockFormatter:
    """`block_formatter`'s result."""

    def __init__(self, x):
        from ._formatter import column

        self.x = x
        self.cells = column(x)

    def __reduce__(self):
        return type(self), (self.x,)

    def __call__(self, t: float, values) -> str:
        from ._formatter import column, lines

        t_cells = column([t])
        t_cells = np.broadcast_to(t_cells, (len(self.cells), t_cells.shape[1]))
        return "".join(lines(np.asarray(values, dtype=np.float64).reshape(-1, 4), (t_cells, self.cells)))


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
