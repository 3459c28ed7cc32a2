"""The basis-file reader: `_number_grid` against json.loads, and `load_basis_file` and CLI
calls against the reader that the file format was first read by, kept below as the reference."""

import cmath
import contextlib
import io
import json
import random
import re
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prodbase.cli
from prodbase.analyzer import ProductBasis
from prodbase.cli import (
    _GRID_MIN,
    _PAD,
    BasisFileError,
    _number_grid,
    load_basis_file,
    main,
    save_basis_file,
)
from prodbase.generator import TypeSpec, generate_from_type
from prodbase.numerics import DEFAULT_TOL, Tolerances
from prodbase.partitions import Partition


# --- the reader before `_number_grid`, verbatim but for the names -----------------------------


def _holds_bool(node) -> bool:
    """Whether a JSON true or false, which Python takes for 1 or 0, is in `node`
    outside a "meta" object."""
    if isinstance(node, dict):
        node = [value for key, value in node.items() if key != "meta"]
    return isinstance(node, bool) or isinstance(node, list) and any(map(_holds_bool, node))


def reference_read_json(path):
    """The content of a JSON file of numbers; BasisFileError when the file cannot be
    read, is not UTF-8 JSON, nests too deeply, or has a true or false outside "meta"."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        data = json.loads(text)
        # the text test spares an n = 64 file the scan of its 16,384 numbers
        bools = ("true" in text or "false" in text) and _holds_bool(data)
    except OSError as exc:
        raise BasisFileError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or nesting too deep
        raise BasisFileError(f"{path} is not valid JSON: {exc}") from exc
    if bools:
        raise BasisFileError(f"{path}: true and false are not numbers")
    return data


def reference_load_basis_file(path, tol: Tolerances = DEFAULT_TOL) -> ProductBasis:
    """Read and validate a basis file; schema violations raise BasisFileError."""
    data = reference_read_json(path)
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
    if not isinstance(raw, list) or len(raw) != 2 * n:
        raise BasisFileError(f"{path}: expected {2 * n} vectors")
    vectors = []
    for k, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != 2 * n:
            raise BasisFileError(f"{path}: vector {k} must have {2 * n} entries")
        try:
            vectors.append([complex(re, im) for re, im in row])
        except (TypeError, ValueError, OverflowError) as exc:
            raise BasisFileError(f"{path}: vector {k} has a malformed entry: {exc}") from exc
        if not all(map(cmath.isfinite, vectors[-1])):
            raise BasisFileError(f"{path}: vector {k} has non-finite entries")
    meta = data.get("meta") or {}
    if not isinstance(meta, dict):
        raise BasisFileError(f"{path}: meta must be an object")
    # Unit-norm violations are a property of the basis, not of the file;
    # they surface as ValueError from ProductBasis (exit 1), not exit 2.
    return ProductBasis(n, vectors, tol=tol, meta=meta)


# --- helpers ------------------------------------------------------------------------------------


def grid_text(tokens, cols, sep=", ", row_sep=",\n "):
    """A JSON array of rows of `cols` [re, im] pairs of the number texts `tokens`."""
    pairs = [f"[{re}{sep}{im}]" for re, im in zip(tokens[0::2], tokens[1::2])]
    rows = ("[" + sep.join(pairs[k : k + cols]) + "]" for k in range(0, len(pairs), cols))
    return "[" + row_sep.join(rows) + "]"


def kernel_grid(text):
    """`_number_grid` on `text` alone, with the blank bytes it expects around it."""
    buf = b" " * _PAD + text.encode() + b" " * _PAD
    got = _number_grid(buf, _PAD)
    if got is None:
        return None
    grid, end = got
    assert end == len(buf) - _PAD
    return grid


def json_grid(text):
    """The grid as json.loads and complex(re, im) read it."""
    return np.array([[[float(x) for x in pair] for pair in row] for row in json.loads(text)])


def assert_kernel_reads_as_json(text):
    grid = kernel_grid(text)
    assert grid is not None
    want = json_grid(text)
    assert grid.shape == want.shape
    assert np.array_equal(grid.view(np.int64), want.view(np.int64))


def finite_doubles(rng, count):
    """Doubles from raw bit patterns, from (-1, 1) and over 60 decades, all finite."""
    bits = rng.integers(0, 2**64, count, dtype=np.uint64, endpoint=False).view(np.float64)
    unit = rng.uniform(-1.0, 1.0, count)
    wide = rng.uniform(-1.0, 1.0, count) * 10.0 ** rng.integers(-30, 31, count)
    values = np.concatenate([bits, unit, wide])
    return values[np.isfinite(values)]


def outcome(load, path):
    """(vector bits, n, meta) of a successful load, or (exception type, message)."""
    try:
        basis = load(path)
    except (BasisFileError, ValueError) as exc:
        return type(exc), str(exc)
    return basis.vectors.view(np.int64).tobytes(), basis.n, basis.meta


def unit_basis(n, seed):
    return generate_from_type(TypeSpec(n=n, partition=Partition((n,)), seed=seed))


# --- the grid kernel against json.loads ---------------------------------------------------------


@pytest.mark.parametrize("spell", [repr, "%.17g".__mod__], ids=["repr", "%.17g"])
def test_grid_kernel_reads_100000_random_doubles_as_json_does(spell):
    values = finite_doubles(np.random.default_rng(2024), 40_000)[:100_000]
    assert values.size == 100_000
    assert_kernel_reads_as_json(grid_text([spell(v) for v in values.tolist()], cols=100))


def test_grid_kernel_reads_every_number_spelling_as_json_does():
    tokens = """0 -0 0.0 -0.0 1 -1 10 123456789 1e5 1E5 1e+05 1E-5 2.5e0 -2.5E+000 1.0e-0027
        9007199254740993 9007199254740993.0 18446744073709551615 18446744073709551616
        1234567890123456789012345 0.1000000000000000055511151231257827 5e-324
        -2.2250738585072014e-308 1.7976931348623157e308 1e400 -1e400 1e-400
        0.000000000000000000000000001 0.30000000000000004 0.9999999999999999 0.99999999999999999
        1e22 1e23 123.456 0.5 2.5 4.35 8.6e-10 99999999999999999999e-20 1.5e-64 1.5e-65""".split()
    rng = random.Random(5)
    tokens = (tokens * 80)[: 80 * len(tokens) // 2 * 2]
    rng.shuffle(tokens)
    assert_kernel_reads_as_json(grid_text(tokens, cols=20))


def near_ties():
    """Tokens w * 10**-k, w < 10**19, within 2**-118 of a midpoint N * 2**-s between two
    doubles (N odd, 2**53 < N < 2**54): w * 2**(s - k) - N * 5**k = c for a small odd c."""
    tokens = []
    for k in range(24, 40):
        for s in range(k + 1, k + 200):
            if (2**53 * 10**k) >> s >= 10**19:
                continue
            if (2**54 * 10**k) >> s < 10**17:
                break
            inverse = pow(2 ** (s - k), -1, 5**k)
            for c in range(-301, 302, 2):
                w = c * inverse % 5**k
                n, rest = divmod(w * 2 ** (s - k) - c, 5**k)
                if 10**17 <= w < 10**19 and rest == 0 and 2**53 < n < 2**54:
                    tokens.append(f"{w}e-{k}")
    return tokens


def test_grid_kernel_rounds_ties_and_near_ties_as_json_does():
    # values halfway between two doubles: odd integers above 2**53, and odd multiples of
    # 1/2, 1/4 and 1/8 between 2**52 and 2**50, whose 10**q has no exact double
    ties = [f"{(2**53 + 2 * j + 1) * 10}e-1" for j in range(500)]
    ties += [f"{2**53 + 2 * j + 1}.0" for j in range(500)]
    ties += [f"{2**52 + j}.5" for j in range(500)]
    ties += [f"{2**51 + j // 2}.{25 + 50 * (j % 2)}" for j in range(500)]
    ties += [f"{2**50 + j // 4}.{125 + 250 * (j % 4)}" for j in range(1000)]
    # and values nearer to a midpoint than the two-double estimate can tell: it rounds
    # about a third of these the wrong way, so each must go through float()
    close = near_ties()
    assert len(close) == 901
    ties += close[:900]
    assert_kernel_reads_as_json(grid_text(ties, cols=25))


@pytest.mark.parametrize(
    "text",
    [
        "[[[1, 2], [3, 4]], [[5, 6]]]",  # ragged
        "[[[1, 2], [3]], [[5, 6], [7, 8]]]",
        "[[[1, 2, 3], [3, 4]]]",
        "[[[1 2, 3], [4, 5]]]",  # a blank inside a token
        "[[[1, , 3], [4, 5]]]",
        "[[[ , 2], [4, 5]]]",  # an empty slot
        "[[[1,], [4, 5]]]",
        "[[[true, 2], [4, 5]]]",
        "[[[NaN, 2], [4, 5]]]",
        '[[["1", 2], [4, 5]]]',
        "[[[01, 2], [4, 5]]]",
        "[[[+1, 2], [4, 5]]]",
        "[[[.5, 2], [4, 5]]]",
        "[[[5., 2], [4, 5]]]",
        "[[[1e, 2], [4, 5]]]",
        "[[[1e+, 2], [4, 5]]]",
        "[[[--1, 2], [4, 5]]]",
        "[[[1-2, 2], [4, 5]]]",
        "[[[1, 2] x, [4, 5]]]",
        "[[[1, 2],\x0b[4, 5]]]",  # not JSON whitespace
        "[[[1, 2], [4, 5]]",  # truncated
    ],
)
def test_grid_kernel_declines_what_is_not_a_regular_grid_of_numbers(monkeypatch, text):
    monkeypatch.setattr(prodbase.cli, "_GRID_MIN", 1)
    assert kernel_grid(text) is None


def test_grid_kernel_reads_short_tokens_exponents_and_blanks_in_bulk(monkeypatch):
    # a fallback to float() would be exact too; these must not need it
    oks = []
    real = prodbase.cli._numbers

    def counted(*args):
        got = real(*args)
        oks.append(got[1])
        return got

    monkeypatch.setattr(prodbase.cli, "_numbers", counted)
    tokens = ["1e5", "2", "-0", "1.5E-7", "0", "7", "-3.25e+2", "0.5"] * 400
    text = grid_text(tokens, cols=8, sep=" , ").replace("]", " ]")
    assert_kernel_reads_as_json(text)
    assert np.concatenate(oks).all()


def test_grid_kernel_reads_only_grids_of_at_least_the_break_even_length():
    def grid(rows):
        return grid_text(["0.5"] * 2 * rows, cols=1)

    step = len(grid(2)) - len(grid(1))  # a row longer
    rows = (_GRID_MIN - len(grid(1)) - 1) // step + 1
    assert len(grid(rows)) < _GRID_MIN <= len(grid(rows + 1))
    assert kernel_grid(grid(rows)) is None
    assert kernel_grid(grid(rows + 1)) is not None


@pytest.mark.parametrize("partition", [(64,), (32, 32), (1,) * 64])
@pytest.mark.parametrize("subspaces", ["haar-random", "identity-blocks"])
def test_n64_files_load_through_the_grid_kernel_as_the_reference_loads_them(
    tmp_path, monkeypatch, partition, subspaces
):
    path = tmp_path / "b.json"
    save_basis_file(path, generate_from_type(TypeSpec(64, Partition(partition), 3, subspaces)))
    grids = []
    real = prodbase.cli._number_grid
    counted = lambda *args: grids.append(real(*args)) or grids[-1]  # noqa: E731
    monkeypatch.setattr(prodbase.cli, "_number_grid", counted)
    assert outcome(load_basis_file, path) == outcome(reference_load_basis_file, path)
    assert len(grids) == 1 and grids[0] is not None


# --- load_basis_file against the reference ------------------------------------------------------

SPECIAL = ["1e400", "-1e-400", "5e-324", "NaN", "Infinity", "-Infinity", "true", "false", '"x"',
           "-0", "7", "1E+0000005", "0.0000000000000000000000000001", "12345678901234567890123",
           "00.5", "1.", ".5", "+1", "--1", "1e", "1e+", "[1]", "null", "1e-0000000000005"]


def _spelling(mode, rng):
    """A function writing a double as a JSON number in the manner `mode`."""
    digits = rng.randint(1, 25)
    return {
        "repr": repr,
        "g17": "%.17g".__mod__,
        "e": lambda x: "%.*e" % (digits - 1, x),
        "E": lambda x: ("%.*E" % (digits - 1, x)).replace("E-", "E-00").replace("E+", "E"),
        "f": lambda x: "%.*f" % (digits + 5, x),
        "int": lambda x: str(round(x)),
        "digits": lambda x: "%.*g" % (digits, x),
    }[mode]


@st.composite
def basis_texts(draw):
    """A basis file: a unit basis on either side of the grid kernel's break-even, each number
    spelled one of many ways, with blanks, key orders, duplicate keys and odd tokens."""
    n = draw(st.sampled_from([1, 2, 3, 14, 16]))
    seed = draw(st.integers(0, 2**16))
    rng = random.Random(seed)
    modes = st.sampled_from(["repr", "g17", "e", "E", "f", "int", "digits"])
    modes = draw(st.lists(modes, min_size=1, max_size=3))
    spellings = [_spelling(mode, rng) for mode in modes]
    values = unit_basis(n, seed).vectors.view(np.float64).ravel().tolist()
    tokens = [rng.choice(spellings)(x) for x in values]
    for _ in range(draw(st.integers(0, 2))):
        tokens[rng.randrange(len(tokens))] = draw(st.sampled_from(SPECIAL))
    sep = draw(st.sampled_from([", ", ",", " , ", ",\n      ", "\t,\r\n"]))
    row_sep = draw(st.sampled_from([",", ",\n    ", " ,  "]))
    members = {
        "dims": f"[2, {n}]",
        "vectors": grid_text(tokens, 2 * n, sep, row_sep),
        "meta": json.dumps({"seed": seed, "note": "[[[1, 2]]]"}),
    }
    order = draw(st.permutations(list(members)))
    items = [f'"{key}": {members[key]}' for key in order]
    early = [None, '"vectors": [[[1, 2]]]', '"dims": true', '"meta": 5', '"vectors": 3']
    early = draw(st.sampled_from(early))
    if early:
        items.insert(0, early)
    blank = draw(st.sampled_from(["", " ", "\n  "]))
    return "{" + blank + ("," + blank).join(items) + blank + "}\n"


@settings(max_examples=150, deadline=None)
@given(basis_texts())
def test_load_basis_file_matches_the_reference_loader(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("diff") / "b.json"
    path.write_text(text)
    assert outcome(load_basis_file, path) == outcome(reference_load_basis_file, path)


# --- fuzzing cli.main ---------------------------------------------------------------------------


def _repr_text(n):
    """A basis file as json.dumps writes it, each number by repr."""
    basis = unit_basis(n, 1)
    pairs = np.stack([basis.vectors.real, basis.vectors.imag], axis=-1).tolist()
    return json.dumps({"dims": [2, n], "vectors": pairs, "meta": {"n": n}}, sort_keys=True)


def _mutate(text, ops, rng):
    """`text` after the mutations `ops`, as bytes."""
    for op in ops:
        spans = [(m.start(), m.end()) for m in _NUMBER.finditer(text)]
        a, b = spans[rng.randrange(len(spans))]
        if op == "token":
            text = text[:a] + rng.choice(SPECIAL + ["-0", "1e-05", "1E+05", "2.5e000"]) + text[b:]
        elif op == "digits":
            x = float(text[a:b]) * 10.0 ** rng.choice([0, 300, -300])
            text = text[:a] + "%.*g" % (rng.randint(1, 25), x) + text[b:]
        elif op == "blank":
            cut = rng.randint(a, b)
            text = text[:cut] + rng.choice([" ", "\n", "\t", "\r\n"]) + text[cut:]
        elif op == "ragged":
            text = text[:a] + text[b:].lstrip(", ")
        elif op == "duplicate":
            early = rng.choice(['"vectors": [[[1, 2]]], ', '"dims": [2, 1], ', '"meta": 1, '])
            text = text.replace("{", "{" + early, 1)
        elif op == "meta":
            text = text.replace('"meta": {', '"meta": {"s": "[[[1, 2]]]", ', 1)
    data = text.encode()
    last = ops[-1] if ops else None
    if last == "truncate":
        data = data[: rng.randrange(len(data))]
    elif last == "nesting":
        data = b"[" * 100_000 + data
    elif last == "bytes":
        cut = rng.randrange(len(data))
        data = data[:cut] + b"\xff" + data[cut:]
    return data


_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
_OPS = ["token", "digits", "blank", "ragged", "duplicate", "meta", "truncate", "nesting", "bytes"]
_LIMIT_S = 5.0  # far above any call here; an exponential path would pass it


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert time.perf_counter() - start < _LIMIT_S
    assert rc in (0, 1, 2) and "Traceback" not in err.getvalue()
    return rc, err.getvalue()


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(["save2", "save16", "repr2", "repr16"]),
    st.lists(st.sampled_from(_OPS), max_size=3),
    st.integers(0, 2**32),
)
def test_fuzzed_basis_files_exit_0_1_or_2(tmp_path_factory, base, ops, seed):
    work = tmp_path_factory.mktemp("fuzz")
    path = work / "b.json"
    if base.startswith("save"):
        save_basis_file(path, unit_basis(int(base[4:]), 1))
        text = path.read_text()
    else:
        text = _repr_text(int(base[4:]))
    path.write_bytes(_mutate(text, ops, random.Random(seed)))
    try:
        reference_load_basis_file(path)
        rejected = False
    except BasisFileError:
        rejected = True
    except ValueError:  # a valid file whose vectors are not unit ones
        rejected = False
    for argv in (["verify", str(path)], ["classify", str(path)]):
        rc, _ = _call(argv)
        assert rc == 2 if rejected else rc in (0, 1)


def _g_file_text(n, random_family=False):
    """A g-bases file of six bases of C^n, the identity or a random one: at n = 26 each random
    family is a grid long enough for the kernel."""
    frame = np.eye(n, dtype=complex)
    if random_family:
        rng = np.random.default_rng(n)
        frame = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    family = np.stack([frame.real, frame.imag], axis=-1).tolist()
    return json.dumps({key: family for key in ("z0", "z1", "x0", "x1", "y0", "y1")})


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 26]), st.lists(st.sampled_from(_OPS), max_size=3), st.integers(0, 2**32))
def test_fuzzed_g_files_exit_0_1_or_2(tmp_path_factory, n, ops, seed):
    work = tmp_path_factory.mktemp("gfuzz")
    path = work / "g.json"
    path.write_bytes(_mutate(_g_file_text(n, n > 3), ops, random.Random(seed)))
    try:
        want = reference_read_json(path)
    except BasisFileError as exc:
        want = str(exc)
    try:
        got = prodbase.cli._read_json(path)
    except BasisFileError as exc:
        got = str(exc)
    # the same content, a grid read in bulk holding the floats of its [re, im] pairs
    if isinstance(got, dict):
        assert isinstance(want, dict) and list(got) == list(want)
        for key, value in got.items():
            if isinstance(value, np.ndarray):
                value, want[key] = value.view(np.int64), json_grid(json.dumps(want[key]))
                assert np.array_equal(value, want[key].view(np.int64))
            else:
                assert repr(value) == repr(want[key])
    else:
        assert got == want
    argv = ["family", "general_mupb_triple", "--g-file", str(path), "--out", str(work / "o")]
    rc, _ = _call(argv)
    assert rc == 2 if isinstance(want, str) else rc in (0, 1, 2)


def test_g_file_families_go_through_the_basis_row_reader(tmp_path, monkeypatch):
    calls = []
    real = prodbase.cli._complex_rows
    monkeypatch.setattr(prodbase.cli, "_complex_rows", lambda *a: calls.append(a[2]) or real(*a))
    path = tmp_path / "g.json"
    path.write_text(_g_file_text(23).replace("[1.0, 0.0]", "[NaN, 0.0]", 1))
    argv = ["family", "general_mupb_triple", "--g-file", str(path), "--out", str(tmp_path / "t")]
    rc, err = _call(argv)
    assert rc == 2 and err == f"error: {path}: z0: vector 0 has non-finite entries\n"
    assert calls == [f"{path}: z0"]
