"""Table blocks formatted in numpy into the bytes Python's own formatting writes.

A float64 column becomes the text of '%.15g' % x, or of json.dumps(x) (repr,
with NaN and Infinity), and an integer column or range that of str(n), with
no Python object per cell.  Each finite float is scaled to y = |x| 10^s in
[1e16, 1e17) as a double-double: Dekker's exact product of |x| with the high
part of 10^s plus |x| times the low part, good to about 2^-100 relative, so
y = N + f with N an integer and f a fraction wrong by under 1e-14.  Rounding
y to 15, 16 or 17 significant digits is then exact unless the dropped part
lies within 1e-9 of one half.

The shortest repr is the first of the 15-, 16- and 17-digit roundings of y
that lies within half an ulp of x, scaled by 10^s: the exact-decimal target of
shortest round-trip printing (Adams, "Ryu: fast float-to-string conversion",
PLDI 2018).  Two 15-digit decimals lie more than one ulp apart, so one that
reads back is the only one and, stripped of trailing zeros, the shortest; of
16 or 17 digits, the nearest is the one repr picks.  Cells these tests cannot
settle are formatted by Python, so their text is Python's by construction: a
near tie or near a round-trip boundary, |x| outside (1e-270, 1e270), NaN and
inf, and for repr the powers of two, whose rounding interval is lopsided.

Text is laid out in 4-byte words.  A cell is a row of words (sign, integer
digits, point, leading zeros, fraction digits, exponent), each looked up in a
table by an index computed for the whole column; the words of all fields and
of the row template's literals fill one uint32 matrix, a row per table row,
from which the pad byte 0xff, never part of UTF-8, is dropped.
"""

from __future__ import annotations

import json
import re

import numpy as np

from .model import _split

_PAD = 0xFF
_PAD_WORD = np.uint32(0xFFFFFFFF)
_S_MIN, _S_MAX = -280, 300   # exponents of the 10^s table; |x| in (1e-270, 1e270) needs [-254, 287]
_FRACTION_BITS = np.uint64(2 ** 52 - 1)
_DOUBT = 1e-9                 # rounding margin, in units of the last digit kept


def _powers_of_ten():
    """10^s for s in [_S_MIN, _S_MAX] as double-double (hi, lo), from exact integers."""
    hi, lo = [], []
    for s in range(_S_MIN, _S_MAX + 1):
        num, den = (10 ** s, 1) if s >= 0 else (1, 10 ** -s)
        h = num / den   # int true division rounds correctly
        n, d = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * d - n * den) / (den * d))
    return np.array(hi), np.array(lo)


_P10, _P10_LO = _powers_of_ten()
_P10_1, _P10_2 = _split(_P10)
_POW10 = 10 ** np.arange(19, dtype=np.int64)


def _words(texts) -> np.ndarray:
    """Each text, bytes of at most 4, as one uint32 word padded with 0xff."""
    return np.frombuffer(b"".join(t.ljust(4, b"\xff") for t in texts), np.uint32)


def _digit_words():
    """The words of 0-9999: in full; with leading zeros padded, 0 as "0"; with trailing
    zeros padded, 0 as nothing; and with leading zeros padded, 0 as nothing."""
    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    ascii = (digits + 48).astype(np.uint8)
    leading = np.cumsum(digits != 0, axis=1) == 0
    trailing = np.cumsum(digits[:, ::-1] != 0, axis=1)[:, ::-1] == 0
    blank_zero = np.where(leading, _PAD, ascii)
    one_zero = blank_zero.copy()
    one_zero[0, 3] = 48
    words = [ascii, one_zero, np.where(trailing, _PAD, ascii), blank_zero]
    return np.concatenate(words).view(np.uint32).ravel()


_DIGITS = _digit_words()
_LEADING, _TRAILING, _LEADING_BLANK = 10000, 20000, 30000   # offsets of the table's parts
_SIGNS = _words([b"", b"-"])
_POINTS = _words([b"", b".", b".0"])
# "0." is followed by -X - 1 zeros and the first digit d: word (-X - 1) * 10 + d; then a blank
_ZEROS = _words([b"0" * z + b"%d" % d for z in range(4) for d in range(10)] + [b""])
# the exponent X in [-300, 300) at X + 300 as two words, "e+05" "" or "e-12" "3"; then blanks
_EXPONENTS = _words([(b"e%+03d" % x)[i:i + 4] for x in range(-300, 300) for i in (0, 4)]
                    + [b"", b""]).reshape(-1, 2)


def _integer(v) -> list:
    """Word columns of the non-negative integers v, leading zeros padded and 0 as "0":
    only the columns some integer fills.  A chunk of 4 digits with none above it is
    written without its leading zeros."""
    q = v // 10000
    columns = [_DIGITS[(v - q * 10000).astype(np.int64, copy=False) + _LEADING * (q == 0)]]
    q = q.astype(np.int64, copy=False)
    while q.any():
        v, q = q, q // 10000
        columns.append(_DIGITS[v - q * 10000 + _LEADING_BLANK * (q == 0)])
    return columns[::-1]


def _fraction(v) -> list:
    """Word columns of the 16 digits of the integers v below 1e16, trailing zeros padded
    and 0 as nothing: only the columns some integer fills.  A chunk of 4 digits with
    none after it is written without its trailing zeros."""
    columns = []
    for scale in (10 ** 12, 10 ** 8, 10 ** 4, 1):
        if not v.any():
            break
        chunk = v // scale
        v = v - chunk * scale
        columns.append(_DIGITS[chunk + _TRAILING * (v == 0)])
    return columns


def _ragged(texts) -> np.ndarray:
    """The texts as rows of uint32 words, each padded to the longest."""
    data = [t.encode() for t in texts]
    lengths = np.fromiter(map(len, data), np.int64, len(data))
    width = -(-int(lengths.max(initial=1)) // 4) * 4
    out = np.full((len(data), width), _PAD, np.uint8)
    out[np.arange(width) < lengths[:, None]] = np.frombuffer(b"".join(data), np.uint8)
    return out.view(np.uint32)


def _scaled(a, s):
    """N (int64) and f in [0, 1) with N + f = a 10^s to about 1e-14, by Dekker's two-product."""
    i = s - _S_MIN
    h = _P10[i]
    p = a * h
    a1, a2 = _split(a)
    h1, h2 = _P10_1[i], _P10_2[i]
    whole = np.floor(p)
    t = (p - whole) + ((((a1 * h1 - p) + a1 * h2 + a2 * h1) + a2 * h2) + a * _P10_LO[i])
    carry = np.floor(t)
    return whole.astype(np.int64) + carry.astype(np.int64), t - carry


def _significand(x, shortest: bool):
    """The 17-digit significand D, the decimal exponent X and whether numpy settled each cell.

    |x| rounds to D 10^(X - 16), D in [1e16, 1e17), with repr's digits when
    shortest, else with 15.  Cells left to Python and zeros read D = X = 0.
    """
    a = np.abs(x)
    ok = (a > 1e-270) & (a < 1e270)   # False on 0 and NaN
    if shortest:
        ok &= (x.view(np.uint64) & _FRACTION_BITS) != 0   # not a power of two
    a[~ok] = 1.0
    s = 16 - np.floor(np.log10(a)).astype(np.int64)
    n, f = _scaled(a, s)
    off = (n >= 10 ** 17).astype(np.int64) - (n < 10 ** 16)   # log10 missed by one
    if off.any():
        redo = off != 0
        s[redo] -= off[redo]
        n[redo], f[redo] = _scaled(a[redo], s[redo])
        ok &= (n >= 10 ** 16) & (n < 10 ** 17)
    if shortest:   # half an ulp of x, times 10^s: 2^(biased exponent - 1023 - 53) 10^s
        half_ulp = ((a.view(np.uint64) >> 52) - 53 << 52).view(np.float64) * _P10[s - _S_MIN]
    digits = None
    for unit in (1, 10, 100) if shortest else (100,):   # 17, 16 and 15 digits
        q = n // unit
        frac = ((n - q * unit) + f) / unit
        rounded = (q + (frac > 0.5)) * unit
        ok &= np.abs(frac - 0.5) >= _DOUBT
        if shortest:
            dist, h = np.minimum(frac, 1 - frac), half_ulp / unit
            ok &= np.abs(dist - h) >= _DOUBT
            digits = rounded if digits is None else np.where(dist < h, rounded, digits)
        else:
            digits = rounded
    carry = digits == 10 ** 17
    digits[carry] = 10 ** 16
    digits[~ok] = 0
    return digits, np.where(ok, 16 - s + carry, 0), ok


def _floats(x, shortest: bool) -> np.ndarray:
    """Word rows of the float64 cells x: repr's text when shortest, else '%.15g''s."""
    digits, exp, ok = _significand(x, shortest)
    fixed = (exp >= 0) & (exp < (16 if shortest else 15))   # digits before the point
    small = (exp < 0) & (exp >= -4)                           # "0." and up to 3 zeros first
    head = digits // 10 ** 16
    tail = digits - head * 10 ** 16
    shift = _POW10[np.where(fixed, 16 - exp, 16)]
    whole = digits // shift
    integer = np.where(fixed, whole, np.where(small, 0, head))
    fraction = np.where(fixed, (digits - whole * shift) * _POW10[np.where(fixed, exp, 0)], tail)
    negative = np.signbit(x)
    columns = [_SIGNS[negative.view(np.uint8)]] if negative.any() else []
    columns += _integer(integer)
    columns.append(_POINTS[np.where((fraction != 0) | small, 1, 2 * (fixed & shortest))])
    if small.any():
        columns.append(_ZEROS[np.where(small, (-exp - 1) * 10 + head, 40)])
    columns += _fraction(fraction)
    if not (fixed | small).all():
        exponent = _EXPONENTS[np.where(fixed | small, 600, exp + 300)]
        columns += [exponent[:, 0], exponent[:, 1]] if (np.abs(exp) >= 100).any() else [exponent[:, 0]]
    out = np.column_stack(columns)
    rest = np.flatnonzero(~ok & (x != 0))
    if rest.size:
        text = _ragged(map(json.dumps if shortest else "%.15g".__mod__, x[rest].tolist()))
        if text.shape[1] > out.shape[1]:
            out = np.column_stack([out, np.full((len(x), text.shape[1] - out.shape[1]), _PAD_WORD)])
        out[rest] = _PAD_WORD
        out[rest, :text.shape[1]] = text
    return out


def _ints(x) -> np.ndarray:
    """Word rows of str(n) for the int64 cells x."""
    negative = x < 0
    mag = x.view(np.uint64)
    columns = _integer(np.where(negative, -mag, mag))   # uint64 negation: |x|, int64's minimum too
    if negative.any():
        columns.insert(0, _SIGNS[negative.view(np.uint8)])
    return np.column_stack(columns)


def _field(col, kind: str) -> np.ndarray:
    """Word rows of one column, a range or an int64 or float64 array: str of each
    integer, and '%.15g' of each float for kind 'g', else json.dumps."""
    if isinstance(col, range):
        col = np.arange(col.start, col.stop, col.step, dtype=np.int64)
    if col.dtype.kind == "i":
        return _ints(col)
    return _floats(col, shortest=kind != "g")


def block(row: str, sep: str = ""):
    """The block function that fills the %-template row once per row and joins the rows by sep.

    row holds fields %.15g and %s and literal %%; a %s cell is str of an
    integer, json.dumps of a float.  Columns are ranges and int64 or float64 arrays.
    """
    literals, kinds, text = [], [], ""
    for token in re.split(r"(%%|%\.15g|%s)", row):
        if token in ("%.15g", "%s"):
            literals.append(text)
            kinds.append(token[-1])
            text = ""
        else:
            text += "%" if token == "%%" else token
    literals = [_words([t[i:i + 4] for i in range(0, len(t), 4)])
                for t in (t.encode() for t in [*literals, text + sep])]
    cut = len(sep.encode())

    def fill(columns: list) -> str:
        n = len(columns[0])
        parts = [np.broadcast_to(literals[0], (n, len(literals[0])))]
        for col, kind, literal in zip(columns, kinds, literals[1:]):
            parts += [_field(col, kind), np.broadcast_to(literal, (n, len(literal)))]
        words = np.empty((n, sum(p.shape[1] for p in parts)), np.uint32)
        data = np.concatenate(parts, axis=1, out=words).tobytes().translate(None, b"\xff")
        return data[:len(data) - cut].decode()

    return fill
