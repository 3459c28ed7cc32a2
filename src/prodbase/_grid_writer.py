"""The basis-file writer's number kernel: `_g17` writes b"%.17g" % v for whole arrays.

`save_basis_file` imports this module on its first call, so that a process that only reads
basis files never compiles it nor builds its tables.  The writer fills 32-byte cells, a
number's seven words and a separator word, 8,192 numbers at a time, drops their NULs and
restores each row's indent with one replace on the text.  Numbers with 1e-10 <= |x| < 1 get
their digits in bulk, 0 and -0.0 are written as "0" and "-0", and the other finite numbers
by %.17g itself.
"""

import numpy as np

# For 1e-10 <= |v| < 1, v = m * 2**(b - 1075) and k = 16 - floor(log10 |v|) <= 27, the 17
# digits d0 ... d16 are the round-half-even of the exact m * 5**k * 2**(b - 1075 + k), whose
# m * 5**k < 2**116 is held in two uint64 words.
_POW5 = np.array([5**k for k in range(28)], dtype=np.uint64)


def _words(texts, dtype) -> np.ndarray:
    return np.frombuffer(b"".join(t.ljust(np.dtype(dtype).itemsize, b"\0") for t in texts), dtype)


# the text before d1: by sign, by "0." and 0-3 zeros or the exponent form's "d0" or "d0.", by d0
_FORMS = (b"0.", b"0.0", b"0.00", b"0.000", b"", b".")
_HEADS = [(s, f, b"%d" % d) for s in (b"", b"-") for f in _FORMS for d in range(10)]
_HEADS = _words([s + (f + d if f[:1] == b"0" else d + f) for s, f, d in _HEADS], np.uint64)
_EXPONENTS = _words([b"e-%02d" % e if e > 4 else b"" for e in range(11)], np.uint32)  # by -E
_ZEROS = _words([b"0", b"-0"], np.uint32)
_SEPARATORS = _words([b", ", b"], [", b"]],\n", b"]]"], np.uint32)  # after re, im, a row, the file
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


def _g17_nonzero(x, out) -> None:
    """Write b"%.17g" % x[i] for nonzero x into the seven uint32 words of out[i]: an 8-byte
    head, the digits d1 ... d16 and a 4-byte exponent, each padded with NULs."""
    a = np.abs(x)
    exact = (a >= 1e-10) & (a < 1.0)
    v = np.where(exact, a, 0.5)
    b, m = v.view(np.int64) >> 52, (v.view(np.uint64) & 2**52 - 1) | 2**52
    E = np.floor(np.log10(v)).astype(np.int64)
    q1, cut = _quotient(m, b, E)
    # log10 can be one off next to a power of ten; the quotient's decade says which way
    off = (q1 >= 2 * 10**17).astype(np.int64) - (q1 < 2 * 10**16)
    fix = np.flatnonzero(off)
    if fix.size:
        E[fix] += off[fix]
        q1[fix], cut[fix] = _quotient(m[fix], b[fix], E[fix])
    q = q1 >> 1
    # round half to even; D < 10**17: no double in range is within 5e-18 below a power of 10
    D = (q + (q1 & (cut | q) & 1)).view(np.int64)
    c = [D // 10**k for k in (16, 12, 8, 4)] + [D]  # its first 1, 5, 9, 13 and 17 digits
    quads = [c[j + 1] - c[j] * 10**4 for j in range(4)]  # by //, as numpy's % is slower
    trim = True  # whether all later quads are zero, so that this one drops its trailing zeros
    for j in (3, 2, 1, 0):
        np.take(_QUADS, quads[j] + trim * 10**4, out=out[:, 2 + j], mode="clip")
        trim &= quads[j] == 0
    form = np.minimum(-1 - E, 4) + ((E < -4) & ~trim)
    head = (np.signbit(x) * 6 + form) * 10 + c[0]
    np.take(_HEADS, head, out=out[:, :2].view(np.uint64)[:, 0], mode="clip")
    np.take(_EXPONENTS, -E, out=out[:, 6], mode="clip")  # "clip" writes into out unbuffered
    for i in np.flatnonzero(~exact):  # |x| >= 1 or < 1e-10: a handful per basis at most
        text = b"%.17g" % x[i]
        out[i] = 0
        out.view(np.uint8)[i, : len(text)] = np.frombuffer(text, np.uint8)


def _g17(x, out) -> None:
    """Write b"%.17g" % x[i], NUL-padded, into the seven uint32 words of out[i], which may be
    the first seven of a wider cell; words after the text must be zero.  A block of 8,192
    numbers without a zero is written in place.  The other blocks' zeros are written as "0"
    or "-0", and their nonzero numbers 8,192 at a time through a temporary scattered into
    out, pooled across blocks as each `_g17_nonzero` call costs some 50 us."""
    sparse = x != 0  # the nonzero numbers of the blocks that hold a zero
    for i in range(0, x.size, 8192):
        block = slice(i, i + 8192)
        if sparse[block].all():
            _g17_nonzero(x[block], out[block])
            sparse[block] = False
        else:
            out[block, 0] = _ZEROS[np.signbit(x[block]).view(np.int8)]
    nonzero = np.flatnonzero(sparse)
    for i in range(0, nonzero.size, 8192):
        part = nonzero[i : i + 8192]
        words = np.empty((part.size, 7), np.uint32)
        _g17_nonzero(x[part], words)
        out[part] = words
