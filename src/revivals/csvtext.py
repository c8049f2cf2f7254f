"""CSV text of float64 columns, byte for byte that of ``'%.17g' % v``.

``format_rows`` makes the text of a chunk of rows with NumPy arithmetic
rather than one Python format call per value. A value x with
1e-22 <= |x| < 1e17 is written from its 17 significant digits, the integer
N = |x| * 10**(16 - e) rounded half-even, where e is x's decimal exponent:

- e is guessed as floor(log10|x|) and corrected by one where the guess is
  off (log10 rounds up next to a power of ten), by a test of the scaled
  value against 1e16 and 1e17;
- 10**k is exact in float64 for 0 <= k <= 22, so for e >= -6 |x| * 10**k
  is formed exactly as hi + lo (Dekker's product); hi is an even integer
  there, so rounding hi + lo half-even is rounding lo half-even;
- below 1e-6 (k > 22) |x| * 10**(k - 22) is formed exactly as hi + lo, and
  each of the two times 10**22 exactly again; the four terms, summed into
  hi + lo, are the scaled value up to 2**-47, so N is exact unless lo lies
  within 2**-40 of a half-integer; no scaled float lies that close to 1e16
  or 1e17 (the closest, the float nearest 1e-14, lies 0.012 from 1e16), so
  the test against them is exact too;
- no x rounds up to 10**17 but the float nearest 1e-14, which scales to
  1e17 - 0.12 at e = -15;
- N's digits come from multiply-shift splits of two 8-digit words, one
  byte per digit; trailing zeros (and a point with no fraction after it)
  become NUL, and each value's field is laid out by its exponent: fixed
  notation for -4 <= e < 17, ``d.ddde-XX`` below that. Rows of one
  exponent share a layout, so the fields are built in exponent order, in
  slices, then put back in row order;
- the NUL padding is removed in one ``bytes.translate``.

Every other value (±0, |x| < 1e-22, |x| >= 1e17, inf and nan, a scaled
value still outside [1e16, 1e17) after the correction, a near-tie below
1e-6 and a carry to 10**17) keeps Python's ``%.17g``, applied to the
finished text, whose only ``%`` are those values'.
"""

from __future__ import annotations

import numpy as np

#: Bytes of one value's field: sign, at most 22 of text, separator.
_FIELD = 24
#: Exponents written from exact digits: 10**(16 - e) is exact down to e = -6.
_E_MIN, _E_MAX = -22, 16
#: Layout classes: one per exponent in [_E_MIN, _E_MAX], then the fallback.
_FALLBACK = _E_MAX - _E_MIN + 1

_POW10 = np.array([float(10 ** k) for k in range(23)])


def _split(x):
    """Dekker's split of x into a high part of 26 bits and the rest."""
    t = x * 134217729.0  # 2**27 + 1
    high = t - (t - x)
    return high, x - high


_POW10_HI, _POW10_LO = _split(_POW10)

_U = np.uint64
_ZEROS = _U(int.from_bytes(b"0" * 8, "little"))


def _template(c: int) -> tuple[np.ndarray, list[tuple[int, int, int]], int | None]:
    """Class c's constant bytes, its digit copies (to, from, count) and its point's byte.

    Digits d0..d16 sit at bytes 7..23 of the digit buffer; byte 0 of a field
    takes the sign and its last byte the separator.
    """
    row = np.zeros(_FIELD, np.uint8)
    if c == _FALLBACK:
        row[1:6] = np.frombuffer(b"%.17g", np.uint8)
        return row, [], None
    e = c + _E_MIN
    if e >= 0:  # ddd.ddd
        return row, [(1, 7, e + 1), (e + 3, e + 8, 16 - e)], e + 2
    if e >= -4:  # 0.000ddd
        head = b"0." + b"0" * (-e - 1)
        row[1:1 + len(head)] = np.frombuffer(head, np.uint8)
        return row, [(1 + len(head), 7, 17)], None
    row[19:23] = np.frombuffer(b"e-%02d" % -e, np.uint8)  # d.ddde-XX
    return row, [(1, 7, 1), (3, 8, 16)], 2


_TEMPLATES = [_template(c) for c in range(_FALLBACK + 1)]


def _product(a, k):
    """a * 10**k as hi + lo exactly (Dekker's product), for 0 <= k <= 22."""
    hi = a * _POW10[k]
    a_hi, a_lo = _split(a)
    p_hi, p_lo = _POW10_HI[k], _POW10_LO[k]
    return hi, ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo


def _scaled(a, e):
    """|x| * 10**(16 - e) as hi + lo, and whether it lies in [1e16, 1e17).

    Exact for e >= -6. Below, only those rows are scaled by 10**22 once
    more: the four exact terms summed give hi + lo up to 2**-47.
    """
    k = 16 - e
    deep = np.flatnonzero(k > 22)
    k[deep] -= 22
    hi, lo = _product(a, k)
    if deep.size:
        h1, l1 = _product(hi[deep], 22)
        h2, l2 = _product(lo[deep], 22)
        rest = (l1 + h2) + l2
        hi[deep] = h1 + rest
        lo[deep] = (h1 - hi[deep]) + rest
    inside = (((hi > 1e16) | ((hi == 1e16) & (lo >= 0)))
              & ((hi < 1e17) | ((hi == 1e17) & (lo < 0))))
    return hi, lo, inside


def _digit_bytes(v):
    """The 8 decimal digits of each v < 10**8, one per byte, first digit lowest.

    Each step splits every lane of a word in two with a multiply and a
    shift that divide exactly in the lane's range: 4-digit halves in 32-bit
    lanes, then 2-digit quarters in 16-bit lanes, then digits in bytes.
    """
    high = v // 10000
    w = high | (v - high * 10000) << _U(32)
    q = (w * _U(10486)) >> _U(20) & _U(0x0000007F0000007F)  # lane // 100
    w = q | (w - q * _U(100)) << _U(16)
    q = (w * _U(103)) >> _U(10) & _U(0x000F000F000F000F)  # lane // 10
    return q | (w - q * _U(10)) << _U(8)


def _digits(n, e):
    """The 17 digits of each n as a (len(n), 24) buffer, and each value's point byte.

    Digit d_j sits at byte 7 + j. Trailing zeros are NUL, except digits
    before the point in fixed notation; the point byte is b"." where a
    fraction digit is left, else NUL.
    """
    n = n.astype(np.uint64)
    head = n // _U(10 ** 8)
    first = head // _U(10 ** 8)
    # digits d1..d8 of every n, then d9..d16 of every n
    tail = _digit_bytes(np.concatenate([head - first * _U(10 ** 8), n - head * _U(10 ** 8)]))
    # the last nonzero byte of each word of digits (the top one is at most 9,
    # so the float conversion cannot round it up a byte); -1 for none
    top = (np.frexp(tail.astype(np.float64))[1] - 1) >> 3
    top_mid, top_low = top[:len(n)], top[len(n):]
    significant = np.where(top_low >= 0, 10 + top_low, 2 + top_mid)
    # digits before the point: e + 1 in fixed notation, 1 in d.ddde-XX
    before = np.maximum(e + 1, 1)
    keep = np.maximum(significant, before)
    tail |= _ZEROS
    tail &= _first_bytes(np.concatenate([keep - 1, keep - 9]))
    words = np.empty((len(n), 3), np.uint64)
    words[:, 0] = (first | _U(48)) << _U(56)
    words[:, 1] = tail[:len(n)]
    words[:, 2] = tail[len(n):]
    point = np.where(significant > before, ord("."), 0).astype(np.uint8)
    return words.view(np.uint8), point


def _first_bytes(count):
    """Masks of the first count bytes of a word, count clipped to 0..8."""
    # two shifts, since a shift by 64 is undefined
    half = (4 * (8 - np.clip(count, 0, 8))).astype(np.uint64)
    return _U(2 ** 64 - 1) >> half >> half


def _decimal(x):
    """Each x's 17 significant digits as an integer in [10**16, 10**17), and its class.

    The class is e - _E_MIN for x's decimal exponent e, or _FALLBACK where
    x keeps ``%.17g``.
    """
    a = np.abs(x)
    with np.errstate(invalid="ignore"):  # nan compares false
        exact = (a >= 1e-22) & (a < 1e17)
    a = np.where(exact, a, 1.0)
    e = np.clip(np.floor(np.log10(a)), _E_MIN, _E_MAX).astype(np.int64)
    hi, lo, inside = _scaled(a, e)
    off = np.flatnonzero(~inside)
    if off.size:  # the guess was one off, or no e in range fits
        e[off] += np.where(hi[off] <= 1e16, -1, 1)
        fits = (e[off] >= _E_MIN) & (e[off] <= _E_MAX)
        e[off] = np.clip(e[off], _E_MIN, _E_MAX)
        hi[off], lo[off], again = _scaled(a[off], e[off])
        exact[off] &= fits & again
    # below each power of ten 10**j with -21 <= j <= 17 the nearest float
    # scales to 10**17 - 2 or less, but below 1e-14, to 10**17 - 0.12: a carry
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    exact &= n < 10 ** 17
    deep = np.flatnonzero(e < -6)  # where hi + lo is the scaled value up to 2**-47
    exact[deep] &= np.abs(lo[deep] - np.floor(lo[deep]) - 0.5) >= 2.0 ** -40
    return n, np.where(exact, e - _E_MIN, _FALLBACK).astype(np.int8)


def _fields(n, cls):
    """The (len(n), _FIELD) bytes of each value's field, sign and separator left NUL.

    The fields are built in class order, where each class is one slice,
    then put back in the order of n.
    """
    order = np.argsort(cls, kind="stable")  # a radix sort, for int8
    counts = np.bincount(cls, minlength=_FALLBACK + 1)
    starts = np.concatenate([[0], np.cumsum(counts)])
    digits, point = _digits(n[order], cls[order] + _E_MIN)
    fields = np.zeros((len(n), _FIELD), np.uint8)
    for c in np.flatnonzero(counts):
        rows = slice(starts[c], starts[c + 1])
        constant, copies, at = _TEMPLATES[c]
        if constant.any():
            fields[rows] = constant
        for to, src, count in copies:
            fields[rows, to:to + count] = digits[rows, src:src + count]
        if at is not None:
            fields[rows, at] = point[rows]
    text = np.empty_like(fields)
    text.view(f"V{_FIELD}")[order] = fields.view(f"V{_FIELD}")
    return text


def format_rows(columns) -> bytes:
    """The CSV lines of the rows of ``columns``: ``','.join('%.17g' % v ...)`` per row.

    ``columns`` are float64 arrays of one length; each row ends in ``\\n``.
    """
    x = np.column_stack(columns).astype(np.float64, copy=False).ravel()
    n, cls = _decimal(x)
    text = _fields(n, cls)
    exact = cls != _FALLBACK
    text[:, 0] = np.where(exact & np.signbit(x), ord("-"), 0)
    separators = np.frombuffer(b"," * (len(columns) - 1) + b"\n", np.uint8)
    text.reshape(-1, len(columns), _FIELD)[:, :, -1] = separators
    out = text.tobytes().translate(None, b"\0")
    if not exact.all():
        out %= tuple(x[~exact].tolist())
    return out
