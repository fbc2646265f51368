"""The table formatter: float64 arrays printed byte for byte as `"%.17g" % value` prints each value.

`nlslab.tables` imports it at the first table written, so `import nlslab`
neither compiles it nor builds its tables.

It prints without a Python call per value.  For each finite value with
`1e-270 <= |v| <= 1e270` it takes `e = floor(log10|v|)`, multiplies `|v|`
by `10**(16 - e)`, held as a pair of doubles, with Dekker's exact product,
and rounds the result, accurate to about 1e-14, half to even to the
17-digit integer.  It keeps that integer only where it has 17 digits (so
`e` was right, and rounding did not carry into an 18th) and the fraction
lies more than 1e-9 from one half (so the rounding is sure).  Zeros are
laid out directly; every other value, nan, ±inf, the extremes and the
near-ties, is printed by `%` itself, one at a time.  The digits are laid
out by `%g`'s rules (fixed notation for exponents from -4 to 16, else
`d.ddde±XX`; trailing zeros and a bare point dropped) through a lookup
from sign, notation and count of significant digits to a byte template.
Plain IEEE double operations only, one per numpy call: no fused
multiply-add, no extended precision.  See Dekker, "A floating-point
technique for extending the available precision" (1971), and Loitsch,
"Printing floating-point numbers quickly and accurately with integers"
(PLDI 2010), for the fast path that knows when it cannot be sure.
"""

from __future__ import annotations

import numpy as np

from .tables import _NUMBER

# Each value is printed into a cell of _CELL bytes: its text, its separator
# (a tab, or a newline at the end of a row), then NUL padding, which is
# dropped when the cells are joined.  The cell's bytes are gathered from the
# value's pool of _POOL bytes, four 8-byte words:
#   bytes 0-15   digits 2 to 17 of its 17-digit significand
#   bytes 16-23  its first digit, '-', '.', '0', its separator, NUL
#   bytes 24-31  'e', the exponent's sign and its three digits
# by the template of its key: sign, notation and count of significant digits.
_POOL, _CELL = 32, 25  # the longest text, '-1.7976931348623157e+308', has 24 bytes
_DIGIT = (16, *range(16))  # the pool byte of each significand digit
_MINUS, _POINT, _ZERO, _SEP, _NUL, _EXP = 17, 18, 19, 20, 21, 24
_FORMS = 23  # fixed notation for exponents -4..16, then scientific with 2 and 3 exponent digits
_RAW = 2 * _FORMS * 17  # keys from here on lay out a `%`-printed text of each length
_RAW_BYTES = [b for b in range(_POOL) if b not in (_SEP, _NUL)]
_EXPONENTS = range(-270, 271)  # values printed by the fast path: 1e-270 <= |v| <= 1e270
# Digits are computed for up to _DIGITS values at once (about 120 bytes of
# temporaries per value) and laid out _LAYOUT values at a time (about 450:
# an 8-byte index per byte of text), so numpy's cost per call is spread over
# many values and the temporaries stay under about 0.5 MB.
_DIGITS, _LAYOUT = 4096, 512


def _split(x):
    """Veltkamp's split of x into a high and a low half of 26 bits each, x = high + low exactly."""
    c = x * 134217729.0  # 2**27 + 1
    high = c - (c - x)
    return high, x - high


def _scales():
    """(hi, lo) with hi + lo = 10**(16 - e) for each exponent e, to within 2**-106 of it.

    float(int) and int / int round correctly, and the remainder is exact.
    """
    hi, lo = [], []
    for e in _EXPONENTS:
        num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        h = num / den
        n, d = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * d - n * den) / (den * d))
    return np.array(hi), np.array(lo)


def _groups():
    """For each group 0..9999: its four digits as one 4-byte word, and its trailing zeros (4 for 0).

    Built in 16-bit integers: a run's first table is written on top of its peak memory.
    """
    g = np.arange(10000, dtype=np.uint16)[:, None]
    powers = np.array([1000, 100, 10, 1], np.uint16)
    digits = (g // powers % 10 + ord("0")).astype(np.uint8).view(np.uint32).ravel()
    return digits, (g % (10 * powers[::-1]) == 0).sum(axis=1, dtype=np.uint8)


def _template(key: int) -> list[int]:
    """A key's template: the pool bytes of its text and separator, then NUL to _CELL bytes.

    Below _RAW, `%g`'s layout of 17 digits with trailing zeros dropped; from
    _RAW on, the first key - _RAW bytes as they are.
    """
    if key >= _RAW:
        text = _RAW_BYTES[: key - _RAW] + [_SEP]
        return text + [_NUL] * (_CELL - len(text))
    rest, s = divmod(key, 17)
    negative, form = divmod(rest, _FORMS)
    s += 1
    digits = list(_DIGIT[:s])
    if form > 20:  # scientific
        text = digits[:1] + ([_POINT] + digits[1:] if s > 1 else []) + [_EXP, _EXP + 1]
        text += [_EXP + 3, _EXP + 4] if form == 21 else [_EXP + 2, _EXP + 3, _EXP + 4]
    elif form >= 4:  # fixed, e >= 0: integer digits, zeros included, then any fraction
        e = form - 4
        text = list(_DIGIT[: e + 1]) + ([_POINT] + digits[e + 1 :] if s > e + 1 else [])
    else:  # fixed, e < 0
        text = [_ZERO, _POINT] + [_ZERO] * (3 - form) + digits
    text = [_MINUS] * negative + text + [_SEP]
    return text + [_NUL] * (_CELL - len(text))


_HI, _LO = _scales()
_HI_H, _HI_L = _split(_HI)
# by exponent: the key of a positive value with 17 significant digits, and word 3
_KEY = np.array([17 * (e + 4 if -4 <= e <= 16 else 21 + (abs(e) >= 100)) + 16 for e in _EXPONENTS])
_EXPONENT = np.frombuffer(b"".join(b"e%c%03d\0\0\0" % (b"+-"[e < 0], abs(e)) for e in _EXPONENTS), np.uint64)
_DIGITS4, _ZEROS4 = _groups()
# word 2 by first digit, plus 10 for a newline separator
_WORD2 = np.frombuffer(b"".join(b"%d-.0%c\0\0\0" % (d, s) for s in b"\t\n" for d in range(10)), np.uint64)
_TEMPLATES = np.array([_template(key) for key in range(_RAW + _CELL)], np.intp)


def _significands(v: np.ndarray):
    """(i, d, sure) of a float64 array: each value's exponent e as i = e + 270, its 17-digit significand, and where that is sure.

    e = floor(log10|v|), and y = |v|·10**(16 - e) = p + r: Dekker's exact
    product of |v| and the scale's high part, plus |v| times its low part,
    accurate to about 1e-14.  d = round(y), half to even, is sure where
    1e-270 <= |v| <= 1e270, d has 17 digits (so e was right, and rounding
    did not carry into an 18th) and y's fraction lies more than 1e-9 from
    one half.  Elsewhere d is 0 and e is 0: zeros are laid out from that as
    they are, and the rest go to `%`.
    """
    a = np.abs(v)
    sure = (a >= 1e-270) & (a <= 1e270)
    a[~sure] = 5.0  # any value with e = 0
    i = np.floor(np.log10(a)).astype(np.intp)
    i += 270
    a_h, a_l = _split(a)
    p = a * _HI.take(i)
    r = a_h * _HI_H.take(i)
    r -= p
    r += a_h * _HI_L.take(i)
    r += a_l * _HI_H.take(i)
    r += a_l * _HI_L.take(i)
    r += a * _LO.take(i)
    floor = np.floor(r)
    r -= floor  # y's fraction
    d = p.astype(np.int64)
    d += floor.astype(np.int64)  # floor(y)
    sure &= (d - 10**16).view(np.uint64) < 9 * 10**16 - 1
    sure &= np.abs(r - 0.5) > 1e-9
    d += r > 0.5
    d *= sure
    return i, d, sure


def _digit_groups(d: np.ndarray):
    """(first, groups): each 17-digit d's first digit, and its other 16 digits as four groups of 4, shape (4, n)."""
    halves = np.empty((2, len(d)), np.int64)
    halves[0] = d // 10**8
    halves[1] = d - halves[0] * 10**8
    first = halves[0] // 10**8
    halves[0] -= first * 10**8
    quarters = halves // 10**4
    groups = np.empty((4, len(d)), np.intp)
    groups[0::2] = quarters
    groups[1::2] = halves - quarters * 10**4
    return first, groups


def _pool(values: np.ndarray, newline: np.ndarray):
    """(pool, key) of a (rows, k) float64 array: each value's pool bytes, shape (rows·k, _POOL), and its template's key."""
    v = values.ravel()
    i, d, fast = _significands(v)
    first, groups = _digit_groups(d)
    pool = np.empty((v.size, _POOL), np.uint8)
    words = pool.view(np.uint64)
    pool.view(np.uint32)[:, :4] = _DIGITS4.take(groups).T
    first = first.reshape(values.shape)
    first += newline
    words[:, 2] = _WORD2.take(first.ravel())
    words[:, 3] = _EXPONENT.take(i)
    # trailing zeros: the last group's, then each earlier group's while all after it are 0
    zeros = _ZEROS4.take(groups)
    after = groups[1:] == 0  # after[j]: every group after group j is 0
    after[1] &= after[2]
    after[0] &= after[1]
    key = _KEY.take(i)
    key -= zeros[3]
    key -= (after * zeros[:3]).sum(axis=0, dtype=np.uint8)
    key += np.signbit(v) * (_FORMS * 17)
    for j in np.flatnonzero(~fast & (v != 0)).tolist():
        text = (_NUMBER % v[j]).encode()
        pool[j, _RAW_BYTES[: len(text)]] = np.frombuffer(text, np.uint8)
        key[j] = _RAW + len(text)
    return pool, key


def _cells(table: np.ndarray, newline: np.ndarray):
    """Yield (first row, cells) for the rows of a (rows, k) float64 table; cells has shape (rows, k·_CELL).

    `newline` (k,) is 10 for the columns whose separator is a newline, else 0.
    """
    rows, k = table.shape
    step = max(1, _LAYOUT // k)  # rows laid out at once
    chunk = step * max(1, _DIGITS // (step * k))  # rows whose digits are computed at once
    offsets = np.arange(0, min(step, rows) * k * _POOL, _POOL).repeat(_CELL).reshape(-1, k * _CELL)
    for start in range(0, rows, chunk):
        block = table[start : start + chunk]
        pool, key = _pool(block, newline)
        key = key.reshape(block.shape)
        for first in range(0, len(block), step):
            flat = _TEMPLATES.take(key[first : first + step], axis=0).reshape(-1, k * _CELL)
            flat += offsets[: len(flat)]
            yield start + first, pool[first * k :].ravel().take(flat)


def as_table(rows, k: int) -> np.ndarray:
    """`rows` as a (rows, k) float64 array; a row of another length, or a value `%g` rejects, raises TypeError."""
    if k < 1:
        raise ValueError("a table needs at least one column")
    if isinstance(rows, np.ndarray) and rows.dtype.kind in "biuf":
        table = rows.astype(np.float64, copy=False)
    else:
        table = [[_real(x) for x in row] for row in rows]
        if any(len(row) != k for row in table):
            raise TypeError(f"every row must hold {k} numbers")
        table = np.array(table, dtype=np.float64).reshape(len(table), k)
    if table.ndim != 2 or table.shape[1] != k:
        raise TypeError(f"rows of shape {table.shape} are not rows of {k} numbers")
    return table


def _real(x) -> float:
    """The double `%` prints for x, or the TypeError `%` raises; `float` would also parse text."""
    return x if isinstance(x, float) else float(_NUMBER % x)


def lines(table: np.ndarray, lead=()):
    """Yield the text of a (rows, k) float64 table's rows, a chunk at a time.

    Each row is its values' `%.17g` texts, tab-separated and newline-ended,
    after its cells in each array of `lead`, shape (rows, width).
    """
    newline = np.zeros(table.shape[1], np.intp)
    newline[-1:] = 10
    for start, cells in _cells(table, newline):
        if lead:
            cells = np.concatenate([part[start : start + len(cells)] for part in lead] + [cells], axis=1)
        yield cells.tobytes().translate(None, b"\0").decode("ascii")


def column(values) -> np.ndarray:
    """The cells of n values, each followed by a tab, cut to the longest: a `lead` for `lines`, shape (n, width)."""
    table = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    cells = np.concatenate([cells for _, cells in _cells(table, np.zeros(1, np.intp))])
    return cells[:, : (cells != 0).sum(axis=1).max()]
