"""The basis-file reader's number kernel: `_number_grid` reads a JSON array of rows of
[re, im] numbers into a float64 (rows, cols, 2) array with the bits that json.loads and
complex(re, im) give, working on the text in 8-byte words.

`_read_json` imports this module only for a file of _GRID_MIN bytes or more, so that a
process that only writes basis files, or reads only short ones, never compiles it nor
builds its tables.  Each token must have the JSON number grammar.  A zero spelled 0, -0,
0.0 or -0.0 after at most one blank is read from a table in a block of numbers whose
slots are often that short.  Another token of at most 19 significant digits w and a power
of ten |q| <= 64 (its value w * 10**q) is rounded by Clinger's fast path when w <= 2**53
and |q| <= 22, and otherwise from an estimate made of two doubles that lies within 2**-103
of the value.  Other tokens, and the rare estimates too near a midpoint between two doubles
to round with certainty, are read by float() after one match of json's number grammar over
all of them in a block, each followed by a comma.
"""

import re

import numpy as np

from .basisfile import _GRID_MIN

_NUMBER_LIST = re.compile(rb"(?:-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?,)*")
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
# the zeros read from a table: each slot spelled 0, -0, 0.0 or -0.0 after at most one blank as
# a little-endian word, ascending, with its value and its token's width; then a key above every
# word of five bytes, where a slot that is not in the table may land
_ZERO_TOKENS = {b"0": 0.0, b"-0": 0.0, b"0.0": 0.0, b"-0.0": -0.0}  # json reads -0 as int 0
_ZERO_SLOTS = sorted(
    (int.from_bytes(blank + token, "little"), value, len(token))
    for token, value in _ZERO_TOKENS.items()
    for blank in (b"", b" ", b"\t", b"\n", b"\r")
)
_ZERO_KEYS = np.array([slot[0] for slot in _ZERO_SLOTS] + [2**64 - 1], np.uint64)
_ZERO_VALUES, _ZERO_WIDTHS = np.array([slot[1:] for slot in _ZERO_SLOTS]).T


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
    past it; None for any other text.  `buf` is ASCII with `basisfile._PAD` blank bytes at
    either end."""
    if buf.find(b'"', start, start + _GRID_MIN) >= 0:  # a grid holds no '"', and the key
        return None  # of a member after it opens with one: the grid is short, or no grid
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
        lo, hi = pos[j] + 1, pos[j + 1]
        short = np.flatnonzero(hi - lo <= 5)
        if short.size * 16 >= k.size:  # zeros from the table, which pays from some 300 a block
            word = V8[lo[short]] & _LOW[hi[short] - lo[short] + 32]
            at = np.searchsorted(_ZERO_KEYS, word)
            hit = _ZERO_KEYS[at] == word
            zero, at = short[hit], at[hit]
            out[k[zero]] = _ZERO_VALUES[at]
            width += int(_ZERO_WIDTHS[at].sum())
            keep = np.ones(k.size, bool)
            keep[zero] = False
            k, lo, hi = k[keep], lo[keep], hi[keep]
        got = _numbers(V8, V24, lo, hi)
        if got is None:
            return None
        out[k], ok, s, t = got
        width += int((t - s).sum())
        slow = np.flatnonzero(~ok)
        if slow.size:  # one grammar check for all, then float(), or int() as json reads integers
            tokens = [buf[a:b] for a, b in zip(s[slow].tolist(), t[slow].tolist())]
            if _NUMBER_LIST.fullmatch(b",".join(tokens) + b",") is None:
                return None
            try:
                out[k[slow]] = [float(x) if x.strip(b"-0123456789") else int(x) for x in tokens]
            except OverflowError:
                return None
    # every other byte must be JSON whitespace
    text = text[:end]
    blank = end - size - width
    if blank != np.count_nonzero(text == 32) + np.count_nonzero(text == 10):
        if blank != np.count_nonzero((text == 32) | (text == 10) | (text == 9) | (text == 13)):
            return None
    return out.reshape(rows, cols, 2), start + end