"""The basis-file format, written by `save_basis_file` and read by `load_basis_file`.

Bases travel as JSON files: ``{"dims": [2, n], "vectors": [[[re, im], ...],
...], "meta": {...}}`` with every number written as ``%.17g`` writes it, so every double
but -0.0 survives a save/load round trip; -0.0 is written as the JSON integer -0, which
loads as +0.0.  Numbers are read with the bits that json.loads and complex(re, im) give
them: json's object parser walks the top-level object and hands a member value opening
with [[[ (`vectors`, a g-file basis) to the grid kernel when its grid spans _GRID_MIN bytes
or more.  The two number kernels, `_grid_writer._g17` and `_grid_reader._number_grid`, live
in modules of their own, each imported by the function that first runs it, so that a process
compiles a kernel and builds its tables, most of their import cost where no bytecode is
cached, only if it runs that kernel.
"""

import cmath
import contextlib
import json
import json.decoder
import re
from pathlib import Path

import numpy as np

from .analyzer import ProductBasis
from .numerics import DEFAULT_TOL, Tolerances

__all__ = ["BasisFileError", "load_basis_file", "read_g_bases", "save_basis_file"]


class BasisFileError(Exception):
    """Raised when a basis file cannot be parsed or violates the schema."""


# json's C scanner takes a time about proportional to the text, the grid kernel a fixed time
# (as much as json takes for about 20 KB) plus a time a number; json is as fast on shorter grids
_GRID_MIN = 24 * 1024  # bytes
_PAD = 32  # blank bytes around the text, so that each word the grid kernel reads is in buf
_GRID_OPEN = re.compile(r"\[[ \t\n\r]*\[[ \t\n\r]*\[")
_BLANK = json.decoder.WHITESPACE.match
_SCAN = json.JSONDecoder().scan_once


def save_basis_file(path, basis: ProductBasis) -> None:
    """Write a basis as deterministic JSON, each number as `%.17g` writes it (see `_grid_writer`).
    A number and the text after it (", ", "], [", "]],\\n" at a row's end, "]]" at the file's)
    fill one zeroed 32-byte cell; the text without its NULs gets each row's "    [[" back
    after its "\\n".  BasisFileError when the file cannot be written."""
    from ._grid_writer import _SEPARATORS, _g17

    n = basis.n
    cells = np.zeros((2 * n, 4 * n, 8), np.uint32)  # a number, then the text after it
    _g17(basis.vectors.view(np.float64).ravel(), cells.reshape(-1, 8)[:, :7])
    cells[:, 0::2, 7], cells[:, 1::2, 7] = _SEPARATORS[0], _SEPARATORS[1]
    cells[:, -1, 7], cells[-1, -1, 7] = _SEPARATORS[2], _SEPARATORS[3]
    meta = json.dumps(basis.meta, sort_keys=True)
    try:
        with open(path, "wb") as f:
            f.write(f'{{\n  "dims": [2, {n}],\n  "vectors": [\n    [['.encode("ascii"))
            f.write(cells.tobytes().translate(None, b"\0").replace(b"\n", b"\n    [["))
            f.write(f'\n  ],\n  "meta": {meta}\n}}\n'.encode("ascii"))
    except OSError as exc:
        raise BasisFileError(f"cannot write {path}: {exc}") from exc


def _holds_bool(node) -> bool:
    """Whether a JSON true or false, which Python takes for 1 or 0, is in `node`
    outside a "meta" object."""
    if isinstance(node, dict):
        node = [value for key, value in node.items() if key != "meta"]
    return isinstance(node, bool) or isinstance(node, list) and any(map(_holds_bool, node))


def _read_json(path):
    """The content of a JSON file of numbers, each large grid of numbers that is a member of
    the top-level object as a float64 (rows, cols, 2) array; BasisFileError when the file
    cannot be read, is not UTF-8 JSON, nests too deeply, or has a true or false outside "meta"."""
    maybe_bools = []  # whether each text that json's scanner read may hold a true or false

    def scan(text, i):  # a member value: a grid for `_number_grid`, or anything for json
        grid = _number_grid(buf, i + _PAD) if _GRID_OPEN.match(text, i) else None
        if grid is not None:
            return grid[0], grid[1] - _PAD
        value, end = _SCAN(text, i)
        # no number holds a "t" or an "f", and a one-letter search is fast
        maybe_bools.append(text.find("t", i, end) >= 0 or text.find("f", i, end) >= 0)
        return value, end

    try:
        raw = Path(path).read_bytes()
        buf = b"".join((b" " * _PAD, raw, b" " * _PAD))
        del raw  # a large file is held twice at most: as buf and as text
        text = str(memoryview(buf)[_PAD:-_PAD], "utf-8")
        got, i = None, _BLANK(text, 0).end()
        # ASCII, so a byte a character: the walk's offsets in text and in buf differ by _PAD
        if len(text) >= _GRID_MIN and text.isascii() and text.startswith("{", i):
            from ._grid_reader import _number_grid

            with contextlib.suppress(ValueError, RecursionError):  # json.loads gives the message
                got = json.decoder.JSONObject((text, i + 1), True, scan, None, None)
        if got is not None and _BLANK(text, got[1]).end() == len(text):
            data = got[0]
        else:  # json.loads, as read_text gives the text, whose keys hold letters but no words
            data = json.loads(text.replace("\r\n", "\n").replace("\r", "\n"))
            maybe_bools = ["true" in text or "false" in text]
        # the text tests spare a file of a few numbers the walk of them all
        bools = any(maybe_bools) and _holds_bool(data)
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
        finite = np.vdot(rows, rows).real < np.inf  # else tested row by row
        bad = [] if finite else np.flatnonzero(~np.isfinite(rows).all(axis=1))
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
    two = isinstance(dims, list) and len(dims) == 2 and dims[0] == 2
    if not (two and isinstance(dims[1], int) and dims[1] >= 1):
        raise BasisFileError(f"{path}: dims must be [2, n] with positive integer n")
    n = dims[1]
    raw = data.get("vectors")
    if not isinstance(raw, (list, np.ndarray)) or len(raw) != 2 * n:
        raise BasisFileError(f"{path}: expected {2 * n} vectors")
    vectors = _complex_rows(raw, 2 * n, path)
    meta = data.get("meta", {})
    if not isinstance(meta, dict):
        raise BasisFileError(f"{path}: meta must be an object")
    # Unit-norm violations are a property of the basis, not of the file;
    # they surface as ValueError from ProductBasis (exit 1), not exit 2.
    return ProductBasis(n, vectors, tol=tol, meta=meta)


def read_g_bases(path) -> dict:
    """A g-file's object of bases of C^n, as complex rows; BasisFileError as for a basis file."""
    raw = _read_json(path)
    if not isinstance(raw, dict):
        raise BasisFileError("g-bases file must hold a JSON object")
    g_bases = {}
    for key, fam in raw.items():
        if not isinstance(fam, (list, np.ndarray)):
            raise BasisFileError(f"g-bases entry {key!r} is not a list of vectors")
        g_bases[key] = _complex_rows(fam, len(fam), f"{path}: {key}")
    return g_bases
