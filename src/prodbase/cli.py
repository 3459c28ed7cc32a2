"""Command-line front end: verify, classify, generate, family, mub-check, partitions.

Bases travel as JSON files: ``{"dims": [2, n], "vectors": [[[re, im], ...],
...], "meta": {...}}`` with every number written as ``%.17g`` writes it (in bulk for 0
and 1e-10 <= |x| < 1, by ``%.17g`` itself otherwise), so every double but -0.0 survives
a save/load round trip; -0.0 is written as the JSON integer -0, which loads as +0.0.
Numbers are read with the bits that json.loads and complex(re, im) give them: a grid of
at least _GRID_MIN bytes by the vectorized `_number_grid`, anything else by json.
Exit codes are stable: 0 success or valid, 1 structurally invalid input basis, 2 usage
or parse error.

`main(argv)` may be called repeatedly in one process: the argument parser is
built once, and every call parses its own argv and reads the environment anew.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import itertools
import json
import json.decoder
import json.scanner
import os
import re
import sys
from pathlib import Path

import numpy as np

from .analyzer import (
    ProductBasis,
    check_groupable,
    check_pairwise_condition,
    classify,
    factorize_all,
    left_classify,
    mu_check,
    verify_orthonormal,
)
from .generator import FAMILY_TAGS, FamilyParams, TypeSpec, generate_from_type, named_family
from .numerics import DEFAULT_TOL, Tolerances, as_vector, check_tolerance
from .partitions import MAX_N, Partition, iter_partitions, partition_count, type_count_lower_bound

__all__ = ["main", "load_basis_file", "save_basis_file", "BasisFileError"]

ENV_TOL_ORTH = "PRODBASE_TOL_ORTH"
_PART_TEXT = tuple(map(str, range(MAX_N + 1)))  # the text of each part of a partition


class BasisFileError(Exception):
    """Raised when a basis file cannot be parsed or violates the schema."""


# `_g17` writes b"%.17g" % v for whole arrays.  For 1e-10 <= |v| < 1, v = m * 2**(b - 1075)
# and k = 16 - floor(log10 |v|) <= 27, the 17 digits d0 ... d16 are the round-half-even of
# the exact m * 5**k * 2**(b - 1075 + k), whose m * 5**k < 2**116 is held in two uint64 words.
_POW5 = np.array([5**k for k in range(28)], dtype=np.uint64)


def _words(texts, dtype) -> np.ndarray:
    return np.frombuffer(b"".join(t.ljust(np.dtype(dtype).itemsize, b"\0") for t in texts), dtype)


# the text before d1: by sign, by "0." and 0-3 zeros or the exponent form's "d0" or "d0.", by d0
_FORMS = (b"0.", b"0.0", b"0.00", b"0.000", b"", b".")
_HEADS = [(s, f, b"%d" % d) for s in (b"", b"-") for f in _FORMS for d in range(10)]
_HEADS = _words([s + (f + d if f[:1] == b"0" else d + f) for s, f, d in _HEADS], np.uint64)
_EXPONENTS = _words([b"e-%02d" % e if e > 4 else b"" for e in range(11)], np.uint32)  # by -E
_ZEROS = _words([b"0", b"-0"], np.uint32)
_SEPARATORS = _words([b", ", b"], [", b"]],\n    [[", b"]]"], "V12").view(np.uint32).reshape(4, 3)
# word q is "%04d" % q; word 10**4 + q is the same with its trailing "0"s as NUL
_QUADS = np.indices((10,) * 4, np.uint8).reshape(4, -1).T + np.uint8(48)
_QUADS = np.concatenate([_QUADS, _QUADS * (np.arange(10**4)[:, None] % [10**4, 1000, 100, 10] > 0)])
_QUADS = np.ascontiguousarray(_QUADS).view(np.uint32)[:, 0]


def _quotient(m, b, E):
    """2 * m * 2**(b - 1075) * 10**(16 - E) truncated, and whether a nonzero bit was cut."""
    f = _POW5[16 - E]
    fh, fl, mh, ml = f >> 32, f & 0xFFFFFFFF, m >> 32, m & 0xFFFFFFFF
    ll, mid = ml * fl, ml * fh + mh * fl  # mid < 2**64, as mh < 2**21 and fh < 2**31
    lo = ll + (mid << 32)
    hi = mh * fh + (mid >> 32) + (lo < ll)
    t = (1058 + E - b).astype(np.uint64)  # 34 <= t <= 60
    return (lo >> t) | (hi << (64 - t)), (lo << (64 - t)) != 0


def _g17_nonzero(x) -> np.ndarray:
    """(x.size, 7) uint32 words for nonzero x: row i is b"%.17g" % x[i] as an 8-byte head, the
    digits d1 ... d16 and a 4-byte exponent, each padded with NULs."""
    exact = (np.abs(x) >= 1e-10) & (np.abs(x) < 1.0)
    v = np.where(exact, np.abs(x), 0.5)
    b, m = v.view(np.int64) >> 52, (v.view(np.uint64) & 2**52 - 1) | 2**52
    E = np.floor(np.log10(v)).astype(np.int64)
    q1, cut = _quotient(m, b, E)
    # log10 can be one off next to a power of ten; the quotient's decade says which way
    off = (q1 >= 2 * 10**17).astype(np.int64) - (q1 < 2 * 10**16)
    fix = np.flatnonzero(off)
    E[fix] += off[fix]
    q1[fix], cut[fix] = _quotient(m[fix], b[fix], E[fix])
    q = q1 >> 1
    # round half to even; D < 10**17: no double in range is within 5e-18 below a power of 10
    D = q + (q1 & (cut | q) & 1)
    lead, rest = (D // 10**16).astype(np.int64), D % 10**16
    top, low = (rest // 10**8).astype(np.uint32), (rest % 10**8).astype(np.uint32)
    quads = [top // 10**4, top % 10**4, low // 10**4, low % 10**4]
    trim = True  # whether all later quads are zero, so that this one drops its trailing zeros
    for j in (3, 2, 1, 0):
        quads[j], trim = quads[j] + trim * np.uint32(10**4), trim & (quads[j] == 0)
    form = np.minimum(-1 - E, 4) + ((E < -4) & (rest != 0))
    out = np.empty((x.size, 7), np.uint32)
    out[:, :2] = _HEADS[(np.signbit(x) * 6 + form) * 10 + lead].view(np.uint32).reshape(-1, 2)
    out[:, 2:6] = _QUADS[np.stack(quads, axis=1)]
    out[:, 6] = _EXPONENTS[-E]
    for i in np.flatnonzero(~exact):  # |x| >= 1 or < 1e-10: a handful per basis at most
        text = b"%.17g" % x[i]
        out[i] = 0
        out.view(np.uint8)[i, : len(text)] = np.frombuffer(text, np.uint8)
    return out


def _g17(x, out) -> None:
    """Write b"%.17g" % x[i], NUL-padded, into the seven uint32 words of out[i]."""
    out[:, 0] = _ZEROS[np.signbit(x).view(np.int8)]
    nonzero = np.flatnonzero(x)
    for i in range(0, nonzero.size, 8192):  # small temporaries, which the allocator reuses
        part = nonzero[i : i + 8192]
        out[part] = _g17_nonzero(x[part])


def save_basis_file(path, basis: ProductBasis) -> None:
    """Write a basis as deterministic JSON, each number as `%.17g` writes it: in bulk for
    0 and for 1e-10 <= |x| < 1, by `%.17g` itself otherwise."""
    n = basis.n
    cells = np.zeros((2 * n, 4 * n, 10), np.uint32)  # a number, then the text after it
    _g17(basis.vectors.view(np.float64).ravel(), cells.reshape(-1, 10)[:, :7])
    cells[:, 0::2, 7:], cells[:, 1::2, 7:] = _SEPARATORS[0], _SEPARATORS[1]
    cells[:, -1, 7:], cells[-1, -1, 7:] = _SEPARATORS[2], _SEPARATORS[3]
    meta = json.dumps(basis.meta, sort_keys=True)
    with open(path, "wb") as f:
        f.write(f'{{\n  "dims": [2, {n}],\n  "vectors": [\n    [['.encode("ascii"))
        f.write(cells.tobytes().translate(None, b"\0"))
        f.write(f'\n  ],\n  "meta": {meta}\n}}\n'.encode("ascii"))


# `_number_grid` reads a JSON array of rows of [re, im] numbers into a float64 (rows, cols, 2)
# array with the bits that json.loads and complex(re, im) give, working on the text in 8-byte
# words.  Each token must have the JSON number grammar.  A token of at most 19 significant
# digits w and a power of ten |q| <= 64 (its value w * 10**q) is rounded by Clinger's fast
# path when w <= 2**53 and |q| <= 22, and otherwise from an estimate made of two doubles that
# lies within 2**-103 of the value.  Other tokens, and the rare estimates too near a midpoint
# between two doubles to round with certainty, go through float() one at a time.
# json's C scanner takes a time about proportional to the text, the kernel a fixed time (as
# much as json takes for about 20 KB) plus a time a number; json is as fast on shorter grids
_GRID_MIN = 24 * 1024  # bytes
_PAD = 32  # blank bytes around the text, so that every word read lies inside the buffer
_GRID_OPEN = re.compile(r"\[[ \t\n\r]*\[[ \t\n\r]*\[")
_BLANK = json.decoder.WHITESPACE.match
_SCAN = json.JSONDecoder().scan_once
# words with every byte set to one value
_ZERO_BYTES, _SIXES, _NIBBLES, _HIGHS, _TOPS, _SEVENS, _ABOVE_BLANK, _CASE, _ES = (
    np.uint64(0x0101010101010101 * b) for b in (48, 6, 15, 240, 128, 127, 95, 32, 101)
)
# _LOW[k + 32]: the low k bytes of a word, k clipped to [0, 8]; and of each of three words
_LOW = np.array([(1 << 8 * min(max(k - 32, 0), 8)) - 1 for k in range(72)], np.uint64)
_OFFSETS = np.array([[32], [24], [16]])
_TENS = np.array([10**k for k in range(20)], np.uint64)
_EXACT = np.array([float(10**k) for k in range(23)])  # the powers of ten that are doubles
# 10**q for |q| <= _Q as a sum hi + lo of doubles, each the nearest double to what it stands
# for; hi also split into two halves of 26 bits, whose products with the halves of another
# double are exact (Dekker)
_Q = 64
_SCALE_HI = np.array([float(10**q) if q >= 0 else 1 / 10**-q for q in range(-_Q, _Q + 1)])
_SCALE_LO = np.array([
    (10**q * d - m) / d if q >= 0 else (d - m * 10**-q) / (10**-q * d)
    for q, (m, d) in zip(range(-_Q, _Q + 1), map(float.as_integer_ratio, _SCALE_HI.tolist()))
])
_SPLIT = 134217729.0  # 2**27 + 1
_SCALE_TOP = _SCALE_HI * _SPLIT - (_SCALE_HI * _SPLIT - _SCALE_HI)
_SCALE_BOT = _SCALE_HI - _SCALE_TOP


def _byte_index(bits) -> np.ndarray:
    """Index of the byte that holds the highest set bit of each word whose set bits are bit 7
    of some bytes (a float64 holds the top bit of such a word exactly)."""
    return ((bits.astype(np.float64).view(np.int64) >> 52) - 1030) >> 3


def _digits(words, first):
    """The value of the ASCII digits in bytes first ... 23 of each column of three words, and
    whether there is at least one, all are digits and the value is below 10**19."""
    pad = _LOW[np.minimum(np.maximum(first, 0), 24) + _OFFSETS]
    words = (words & ~pad) | (_ZERO_BYTES & pad)
    bad = (words & _HIGHS ^ _ZERO_BYTES) | ((words + _SIXES) & _HIGHS ^ _ZERO_BYTES)
    # eight digits to a word, the first in the low byte, summed in pairs, fours and eights
    words = (words & _NIBBLES) * np.uint64(2561) >> np.uint64(8)
    words = (words & np.uint64(0x00FF00FF00FF00FF)) * np.uint64(6553601) >> np.uint64(16)
    words = (words & np.uint64(0x0000FFFF0000FFFF)) * np.uint64(42949672960001) >> np.uint64(32)
    value = (words[0] * np.uint64(10**8) + words[1]) * np.uint64(10**8) + words[2]
    ok = ~bad.any(axis=0) & (words[0] < 1000) & (first >= 0) & (first < 24)
    return value, ok


def _mantissa(words, head, ms, end):
    """Value, number of fraction digits and grammar check of each mantissa text[ms:end] of the
    form d.d+ or d+ without a leading zero; `words` holds its last 24 bytes and `head` its
    first eight."""
    one = (head & np.uint64(0xFF)) - np.uint64(48)  # the digit before a point
    dot = (head & np.uint64(0xFF00)) == np.uint64(0x2E00)
    frac = (end - ms - 2) * dot
    w, ok = _digits(words, ms + 2 * dot - end + 24)
    ok &= (one <= 9) & (dot | (end - ms == 1) | (one != 0)) & ((one == 0) | (frac <= 18))
    return w + one * _TENS[np.minimum(frac, 19)] * dot, frac, ok


def _scaled(w, q):
    """w * 10**q rounded to the nearest double, and whether that rounding is certain, for
    w < 10**19 and |q| <= _Q."""
    wh = w.astype(np.float64)
    wl = (w - wh.astype(np.uint64)).view(np.int64).astype(np.float64)
    c = wh * _SPLIT
    top = c - (c - wh)
    bot = wh - top
    k = q + _Q
    ph, pt, pb = _SCALE_HI[k], _SCALE_TOP[k], _SCALE_BOT[k]
    p = wh * ph
    err = (((top * pt - p) + top * pb + bot * pt) + bot * pb) + (wh * _SCALE_LO[k] + wl * ph)
    z = p + err
    r = err - (z - p)  # z + r == p + err exactly, and |r| is at most half a gap next to z
    # w * 10**q lies within 2**-103 of z + r, so it rounds to z unless r comes that near to
    # the midpoint between z and a neighbour
    gap = z - (z.view(np.int64) - 1).view(np.float64)  # the smaller of z's two gaps
    return z, (r == 0) | (gap - 2.0 * np.abs(r) > 2.0**-90 * z)


def _numbers(V8, V24, lo, hi):
    """The values of the tokens in the slots buf[lo:hi], whether each was read in bulk, and
    each token's span; None when a slot holds no token or more than five blanks before it."""
    head = V8[lo]
    opening = (head + _ABOVE_BLANK) & _TOPS  # the bytes above " "
    lead = _byte_index(opening & (~opening + np.uint64(1)))
    window = V24[hi - 24].view(np.uint64).reshape(-1, 3)
    closing = (window[:, 2] + _ABOVE_BLANK) & _TOPS
    trail = 7 - _byte_index(closing)
    if not (opening.all() and closing.all() and (lead <= 5).all()):
        return None
    s, t = lo + lead, hi - trail
    moved = np.flatnonzero(trail)
    window[moved] = V24[t[moved] - 24].view(np.uint64).reshape(-1, 3)
    window = np.ascontiguousarray(window.T)  # the last 24 bytes of each token, in 3 rows
    head >>= (8 * lead).astype(np.uint64)
    neg = (head & np.uint64(0xFF)) == 45
    head >>= (8 * neg).astype(np.uint64)
    ms = s + neg
    w, frac, ok = _mantissa(window, head, ms, t)
    q = -frac
    # an exponent: an e or E in the last eight bytes of the token
    e_bits = (window[2] | _CASE) ^ _ES
    e_bits = ~(((e_bits & _SEVENS) + _SEVENS) | e_bits | _SEVENS)
    e_bits &= ~_LOW[40 - np.minimum(t - s, 8)]
    exponent = np.flatnonzero(e_bits)
    if exponent.size:
        end, last = t[exponent], window[2, exponent]
        pe = end - 8 + _byte_index(e_bits[exponent])
        after = (last >> (8 * np.minimum(pe - end + 9, 7)).astype(np.uint64)) & np.uint64(0xFF)
        x0 = pe + 1 + ((after == 43) | (after == 45))  # the exponent's first digit
        value, ok_x = _digits(np.broadcast_to(last, (3, last.size)), x0 - end + 24)
        words = V24[pe - 24].view(np.uint64).reshape(-1, 3).T
        w[exponent], frac_x, ok_w = _mantissa(words, head[exponent], ms[exponent], pe)
        ok[exponent] = ok_x & ok_w
        q[exponent] = value.astype(np.int64) * np.where(after == 45, -1, 1) - frac_x
    ok &= (q >= -_Q) & (q <= _Q)
    # Clinger's fast path: w and 10**|q| are doubles, so one product or quotient rounds right
    fast = (w <= 2**53) & (q >= -22) & (q <= 22)
    z = w.astype(np.float64) * _EXACT[np.clip(q, 0, 22)] / _EXACT[np.clip(-q, 0, 22)]
    slow = np.flatnonzero(ok & ~fast)
    if slow.size:
        z[slow], ok[slow] = _scaled(w[slow], q[slow])
    # json reads an integer as an int, whose -0 is 0
    integer = ((head & np.uint64(0xFF00)) != np.uint64(0x2E00)) & (e_bits == 0)
    z *= 1.0 - 2.0 * (neg & ((w != 0) | ~integer))
    return z, ok, s, t


def _number_grid(buf, start):
    """The regular JSON array of rows of [re, im] number pairs at buf[start:], if its text
    takes at least _GRID_MIN bytes, as a float64 (rows, cols, 2) array, and the index just
    past it; None for any other text.  `buf` is ASCII with _PAD blank bytes at either end."""
    text = np.frombuffer(buf, np.uint8, offset=start)
    pos = np.flatnonzero((text == 44) | (text == 91) | (text == 93))  # , [ ]
    skeleton = text[pos].tobytes()
    size = skeleton.find(b"]]]") + 3
    cols = skeleton.find(b"]]") // 4
    rows = (size - 1) // (4 * cols + 2) if cols > 0 else 0
    end = int(pos[size - 1]) + 1 if rows else 0
    if end < _GRID_MIN:
        return None
    row = b"[" + b"[,]," * (cols - 1) + b"[,]]"
    if skeleton[:size] != b"[" + (row + b",") * (rows - 1) + row + b"]":
        return None
    pos += start
    V8 = np.ndarray((len(buf) - 7,), np.uint64, buf, 0, (1,))  # the word at each byte
    V24 = np.ndarray((len(buf) - 23,), "V24", buf, 0, (1,))
    out = np.empty(2 * rows * cols)
    width = 0
    for i in range(0, out.size, 8192):  # small temporaries, which the allocator reuses
        k = np.arange(i, min(i + 8192, out.size))
        # number k lies between skeleton bytes j and j + 1
        j = 2 + (4 * cols + 2) * (k // (2 * cols)) + 4 * (k % (2 * cols) // 2) + k % 2
        got = _numbers(V8, V24, pos[j] + 1, pos[j + 1])
        if got is None:
            return None
        out[k], ok, s, t = got
        width += int((t - s).sum())
        for m in np.flatnonzero(~ok):
            token = buf[s[m] : t[m]].decode("ascii")
            match = json.scanner.NUMBER_RE.fullmatch(token)
            if match is None:
                return None
            try:
                out[i + m] = float(token if match.group(2) or match.group(3) else int(token))
            except OverflowError:
                return None
    # every other byte must be JSON whitespace
    text = text[:end]
    blank = end - size - width
    if blank != np.count_nonzero(text == 32) + np.count_nonzero(text == 10):
        if blank != np.count_nonzero((text == 32) | (text == 10) | (text == 9) | (text == 13)):
            return None
    return out.reshape(rows, cols, 2), start + end


def _members(text, buf):
    """The top-level object of `text`, each member value other than "meta" that is a grid for
    `_number_grid` read by it, and the parts of `text` outside those grids; None when `text`
    is no such object or not valid JSON."""
    i = _BLANK(text, 0).end()
    if text[i : i + 1] != "{":
        return None
    data, outside, done = {}, [], 0
    i = _BLANK(text, i + 1).end()
    try:
        while text[i : i + 1] == '"':
            key, i = json.decoder.scanstring(text, i + 1)
            i = _BLANK(text, i).end()
            if text[i : i + 1] != ":":
                return None
            i = _BLANK(text, i + 1).end()
            grid = None
            if key != "meta" and _GRID_OPEN.match(text, i):
                grid = _number_grid(buf, i + _PAD)
            if grid is None:
                data[key], i = _SCAN(text, i)
            else:
                data[key], end = grid[0], grid[1] - _PAD
                outside.append(text[done:i])
                i = done = end
            i = _BLANK(text, i).end()
            if text[i : i + 1] == "}":
                if _BLANK(text, i + 1).end() == len(text):
                    outside.append(text[done:])
                    return data, outside
                return None
            if text[i : i + 1] != ",":
                return None
            i = _BLANK(text, i + 1).end()
    except (StopIteration, ValueError, RecursionError):
        return None
    return None


def _holds_bool(node) -> bool:
    """Whether a JSON true or false, which Python takes for 1 or 0, is in `node`
    outside a "meta" object."""
    if isinstance(node, dict):
        node = [value for key, value in node.items() if key != "meta"]
    return isinstance(node, bool) or isinstance(node, list) and any(map(_holds_bool, node))


def _read_json(path):
    """The content of a JSON file of numbers, each large grid of numbers in an object as a
    float64 (rows, cols, 2) array; BasisFileError when the file cannot be read, is not UTF-8
    JSON, nests too deeply, or has a true or false outside "meta"."""
    try:
        raw = Path(path).read_bytes()
        buf = b"".join((b" " * _PAD, raw, b" " * _PAD))
        del raw  # a large file is held twice at most: as buf and as text
        text = str(memoryview(buf)[_PAD:-_PAD], "utf-8")
        got = None
        if len(text) >= _GRID_MIN and text.isascii() and "\r" not in text:
            got = _members(text, buf)
        if got is None:  # json.loads, as read_text gives the text
            data = json.loads(text.replace("\r\n", "\n").replace("\r", "\n"))
            got = data, [text]
        data, outside = got
        # the text test spares a file of a few numbers the scan of them all
        bools = any("true" in part or "false" in part for part in outside) and _holds_bool(data)
    except OSError as exc:
        raise BasisFileError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or nesting too deep
        raise BasisFileError(f"{path} is not valid JSON: {exc}") from exc
    if bools:
        raise BasisFileError(f"{path}: true and false are not numbers")
    return data


def _complex_rows(raw, width: int, where):
    """The rows of `raw`, a float grid from `_read_json` or a list of rows of [re, im] pairs,
    as complex rows; BasisFileError names the first row whose length is not `width` or that
    holds an entry other than a pair of numbers or a non-finite one."""
    if isinstance(raw, np.ndarray):
        rows = raw.view(np.complex128)[..., 0]
        if rows.shape[1] != width:
            raise BasisFileError(f"{where}: vector 0 must have {width} entries")
        bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    else:
        rows, bad = [], []
        for k, row in enumerate(raw):
            if not isinstance(row, list) or len(row) != width:
                raise BasisFileError(f"{where}: vector {k} must have {width} entries")
            try:
                rows.append([complex(re, im) for re, im in row])
            except (TypeError, ValueError, OverflowError) as exc:
                raise BasisFileError(f"{where}: vector {k} has a malformed entry: {exc}") from exc
            if not all(map(cmath.isfinite, rows[-1])):
                bad = [k]
                break
    if len(bad):
        raise BasisFileError(f"{where}: vector {bad[0]} has non-finite entries")
    return rows


def load_basis_file(path, tol: Tolerances = DEFAULT_TOL) -> ProductBasis:
    """Read and validate a basis file; schema violations raise BasisFileError."""
    data = _read_json(path)
    if not isinstance(data, dict):
        raise BasisFileError(f"{path}: top level must be an object")
    dims = data.get("dims")
    if (
        not isinstance(dims, list)
        or len(dims) != 2
        or dims[0] != 2
        or not isinstance(dims[1], int)
        or dims[1] < 1
    ):
        raise BasisFileError(f"{path}: dims must be [2, n] with positive integer n")
    n = dims[1]
    raw = data.get("vectors")
    if not isinstance(raw, (list, np.ndarray)) or len(raw) != 2 * n:
        raise BasisFileError(f"{path}: expected {2 * n} vectors")
    vectors = _complex_rows(raw, 2 * n, path)
    meta = data.get("meta") or {}
    if not isinstance(meta, dict):
        raise BasisFileError(f"{path}: meta must be an object")
    # Unit-norm violations are a property of the basis, not of the file;
    # they surface as ValueError from ProductBasis (exit 1), not exit 2.
    return ProductBasis(n, vectors, tol=tol, meta=meta)


def _fmt_vec(v) -> str:
    v = np.ascontiguousarray(as_vector(v))
    return ("(" + ", ".join(["%.6g%+.6gj"] * v.size) + ")") % tuple(v.view(np.float64).tolist())


def _tolerance(text: str) -> float:
    """argparse type of a tolerance: a float inside the range Tolerances accepts."""
    try:
        return check_tolerance("tolerance", float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _tolerances(args) -> Tolerances:
    eps_orth = args.tol_orth
    if eps_orth is None:
        env = os.environ.get(ENV_TOL_ORTH)
        try:
            eps_orth = _tolerance(env) if env else DEFAULT_TOL.eps_orth
        except argparse.ArgumentTypeError as exc:
            raise argparse.ArgumentTypeError(f"{ENV_TOL_ORTH}: {exc}") from None
    return Tolerances(eps_orth=eps_orth, eps_rank=args.tol_rank)


def cmd_verify(args) -> int:
    tol = _tolerances(args)
    basis = load_basis_file(args.path, tol)
    ok_orth, residual = verify_orthonormal(basis, tol)
    results = factorize_all(basis, tol)
    n_products = sum(1 for r in results if r)
    print(f"file: {args.path}")
    print(f"dims: 2 x {basis.n} (d = {2 * basis.n})")
    print(f"orthonormal: {'yes' if ok_orth else 'no'} (Gram residual {residual:.6e})")
    print(f"product vectors: {n_products}/{len(results)}")
    for k, r in enumerate(results):
        if not r:
            print(f"  vector {k}: not a product (sigma2 {r.sigma2:.6e})")
    groupable = None
    if all(results):
        pairwise = check_pairwise_condition(basis, tol)
        groupable = check_groupable(basis, tol)
        print(f"pairwise factor orthogonality: {'yes' if pairwise else 'no'}")
        print(f"groupable into subsystem bases: {'yes' if groupable else 'no'}")
    if ok_orth and all(results):
        print("result: valid orthonormal product basis")
        return 0
    if groupable and not ok_orth:
        print("result: groupable but not orthonormal")
    elif not all(results):
        print("result: not a product basis")
    else:
        print("result: not an orthonormal basis")
    return 1


def cmd_classify(args) -> int:
    tol = _tolerances(args)
    basis = load_basis_file(args.path, tol)
    report = classify(basis, tol)
    print(f"file: {args.path}")
    print(f"valid: {'yes' if report.valid else 'no'} (Gram residual {report.gram_residual:.6e})")
    for line in report.diagnostics:
        print(f"  {line}")
    if not report.valid:
        return 1
    suffix = " (direct product)" if report.is_direct_product else ""
    print(f"right type: {report.right_type}{suffix}")
    left = left_classify(basis, tol)
    if basis.n == 2:
        print(f"left type: {left if left is not None else 'undefined'}")
    else:
        print("left type: undefined")
    print(f"blocks: r = {report.r}")
    for idx, blk in enumerate(report.blocks, start=1):
        print(
            f"  #{idx} multiplicity {blk.multiplicity}, qubit pair "
            f"{_fmt_vec(blk.a)} / {_fmt_vec(blk.a_perp)}, subspace dim {blk.subspace.dim}"
            f"{', groups coincide' if blk.groups_coincide else ''}"
        )
    row_fmt = "  (" + ", ".join(["%.6g%+.6gj"] * basis.n) + ")"
    for name, family in (("B1(n)", report.basis_B1n), ("B2(n)", report.basis_B2n)):
        print(f"{name}:")
        for row in np.array(family).view(np.float64).tolist():
            print(row_fmt % tuple(row))
    return 0


def cmd_generate(args) -> int:
    try:
        partition = Partition.from_string(args.partition)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        spec = TypeSpec(
            n=args.n,
            partition=partition,
            seed=args.seed,
            subspace_mode="identity-blocks" if args.subspaces == "identity" else "haar-random",
            pair_mode="equal-groups" if args.mode == "equal" else "independent-groups",
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    basis = generate_from_type(spec)
    save_basis_file(args.out, basis)
    print(f"wrote {args.out} (n={args.n}, right type {partition}, seed {args.seed})")
    return 0


def _family_out_paths(out: str, count: int) -> list[Path]:
    base = Path(out)
    if count == 1:
        return [base]
    stem, suffix = base.stem, base.suffix or ".json"
    return [base.with_name(f"{stem}_{i}{suffix}") for i in range(count)]


def cmd_family(args) -> int:
    params_kwargs = {}
    if args.alpha is not None or args.beta is not None:
        if args.alpha is None or args.beta is None:
            print("error: --alpha and --beta must be given together", file=sys.stderr)
            return 2
        params_kwargs["unitary_params"] = (complex(args.alpha), complex(args.beta))
    if args.g_file is not None:
        raw = _read_json(args.g_file)
        if not isinstance(raw, dict):
            print("error: g-bases file must hold a JSON object", file=sys.stderr)
            return 2
        g_bases = {}
        for key, fam in raw.items():  # each a basis of C^n: n vectors of n entries
            if not isinstance(fam, (list, np.ndarray)):
                print(f"error: g-bases entry {key!r} is not a list of vectors", file=sys.stderr)
                return 2
            g_bases[key] = _complex_rows(fam, len(fam), f"{args.g_file}: {key}")
        params_kwargs["g_bases"] = g_bases
    try:
        result = named_family(FamilyParams(family=args.tag, **params_kwargs))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    bases = result if isinstance(result, list) else [result]
    out = args.out or f"{args.tag}.json"
    for path, basis in zip(_family_out_paths(out, len(bases)), bases):
        save_basis_file(path, basis)
        print(f"wrote {path} (family {args.tag}, n={basis.n})")
    return 0


def cmd_mub_check(args) -> int:
    tol = _tolerances(args)
    bases = [load_basis_file(path, tol) for path in args.paths]
    dims = sorted({2 * basis.n for basis in bases})
    if len(dims) > 1:
        got = " and ".join(f"d = {d}" for d in dims)
        print(f"error: mub-check needs bases of one dimension, got {got}", file=sys.stderr)
        return 2
    names = [Path(p).stem for p in args.paths]
    all_ok = True
    print("pairwise max | |<a|b>|^2 - 1/d |:")
    for i in range(len(bases)):
        for j in range(i + 1, len(bases)):
            ok, dev = mu_check(bases[i].vectors, bases[j].vectors, tol)
            all_ok = all_ok and ok
            verdict = "unbiased" if ok else "NOT unbiased"
            print(f"  {names[i]} vs {names[j]}: {dev:.6e} ({verdict})")
    print(f"all pairs mutually unbiased: {'yes' if all_ok else 'no'}")
    return 0 if all_ok else 1


def cmd_partitions(args) -> int:
    try:
        partitions = iter_partitions(args.n)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    lines = ("+".join([_PART_TEXT[part] for part in parts]) for parts in partitions)
    while chunk := list(itertools.islice(lines, 4096)):  # few writes, in bounded memory
        sys.stdout.write("\n".join(chunk) + "\n")
    print(
        f"p({args.n})={partition_count(args.n)}, "
        f"type lower bound {type_count_lower_bound(args.n)}"
    )
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prodbase",
        description="Construct, verify and classify orthonormal product bases of C^2 (x) C^n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tol_flags(p):
        p.add_argument("--tol-orth", type=_tolerance, default=None, help="orthogonality tolerance")
        p.add_argument(
            "--tol-rank", type=_tolerance, default=DEFAULT_TOL.eps_rank, help="rank cutoff tolerance"
        )

    p_verify = sub.add_parser("verify", help="verify a basis file")
    p_verify.add_argument("path")
    add_tol_flags(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_classify = sub.add_parser("classify", help="classify the structure of a basis file")
    p_classify.add_argument("path")
    add_tol_flags(p_classify)
    p_classify.set_defaults(func=cmd_classify)

    p_generate = sub.add_parser("generate", help="generate a basis of a given partition type")
    p_generate.add_argument("n", type=int)
    p_generate.add_argument("partition", help="'+'-separated parts, e.g. 3+2+1")
    p_generate.add_argument("--seed", type=int, default=0)
    p_generate.add_argument("--mode", choices=("equal", "independent"), default="independent")
    p_generate.add_argument("--subspaces", choices=("identity", "random"), default="random")
    p_generate.add_argument("--out", default="basis.json")
    p_generate.set_defaults(func=cmd_generate)

    p_family = sub.add_parser("family", help="emit a named basis family")
    p_family.add_argument("tag", help=f"one of: {', '.join(FAMILY_TAGS)}")
    p_family.add_argument("--alpha", default=None, help="complex parameter, e.g. 0.6 or 0.6+0.8j")
    p_family.add_argument("--beta", default=None)
    p_family.add_argument("--g-file", default=None, help="JSON with keys z0,z1,x0,x1,y0,y1")
    p_family.add_argument("--out", default=None)
    p_family.set_defaults(func=cmd_family)

    p_mub = sub.add_parser("mub-check", help="pairwise unbiasedness of basis files")
    p_mub.add_argument("paths", nargs="+")
    add_tol_flags(p_mub)
    p_mub.set_defaults(func=cmd_mub_check)

    p_parts = sub.add_parser("partitions", help="list all partitions of n")
    p_parts.add_argument("n", type=int)
    p_parts.set_defaults(func=cmd_partitions)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (BasisFileError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # structurally invalid input (non-unit vectors, non-basis input, ...)
        print(f"invalid basis: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
