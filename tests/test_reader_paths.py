"""Basis files that the grid kernel reads whole: files with CRLF line endings, tokens too long
for its bulk path, and zeros read from its table, each pinned by a count rather than a time."""

import json

import numpy as np
import pytest

import prodbase._grid_reader
from prodbase.analyzer import ProductBasis
from prodbase.basisfile import _GRID_MIN
from prodbase.cli import BasisFileError, load_basis_file, save_basis_file
from prodbase.generator import TypeSpec, generate_from_type
from prodbase.partitions import Partition
from test_reader import (
    assert_kernel_reads_as_json,
    grid_text,
    kernel_grid,
    outcome,
    reference_load_basis_file,
)


def _haar_basis(n=64):
    return generate_from_type(TypeSpec(n, Partition((n,)), 3, "haar-random"))


def _crlf_file(tmp_path):
    """A saved n = 64 Haar basis with every line break written as CR LF."""
    path = tmp_path / "crlf.json"
    save_basis_file(path, _haar_basis())
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    return path


def _grids(monkeypatch) -> list:
    """What each `_number_grid` call returns from here on."""
    grids, real = [], prodbase._grid_reader._number_grid
    counted = lambda *args: grids.append(real(*args)) or grids[-1]  # noqa: E731
    monkeypatch.setattr(prodbase._grid_reader, "_number_grid", counted)
    return grids


def test_a_crlf_file_loads_through_the_grid_kernel_as_the_reference_loads_it(tmp_path, monkeypatch):
    path = _crlf_file(tmp_path)
    text = path.read_bytes()
    assert text.count(b"\n") == text.count(b"\r\n") > 128  # a row a line
    grids = _grids(monkeypatch)
    assert outcome(load_basis_file, path) == outcome(reference_load_basis_file, path)
    assert len(grids) == 1 and grids[0] is not None


@pytest.mark.parametrize(
    "old, new",
    [
        (b"]],\r\n", b"]]\r\n"),  # in the grid, which the kernel declines
        (b", ", b",, "),
        (b'"meta": {', b'"meta": {,'),  # after the grid, where the walk stops
        (b"\r\n}", b"\r\n}\r\nx"),
    ],
    ids=["row comma", "entry comma", "meta", "after the object"],
)
def test_a_crlf_file_with_a_fault_keeps_the_message_of_json_loads(tmp_path, old, new):
    path = _crlf_file(tmp_path)
    text = path.read_bytes()
    at = text.index(old, text.index(b"vectors"))
    path.write_bytes(text[:at] + new + text[at + len(old) :])
    got = outcome(load_basis_file, path)
    assert got == outcome(reference_load_basis_file, path)
    assert got[0] is BasisFileError and "line" in got[1]  # json's place, with LF line ends


def test_tokens_too_long_for_the_bulk_path_take_one_grammar_match_a_block(tmp_path, monkeypatch):
    # %.22e writes 23 significant digits; the bulk path reads at most 19
    pairs = _haar_basis().vectors.view(np.float64).reshape(128, 128, 2).tolist()
    rows = ("[" + ", ".join("[%.22e, %.22e]" % tuple(pair) for pair in row) + "]" for row in pairs)
    path = tmp_path / "e22.json"
    path.write_text('{"dims": [2, 64],\n"vectors": [\n' + ",\n".join(rows) + "\n]}\n")
    matches, missed = [], []
    grammar, numbers = prodbase._grid_reader._NUMBER_LIST, prodbase._grid_reader._numbers

    class _Counted:
        def fullmatch(self, text):
            matches.append(len(text))
            return grammar.fullmatch(text)

    def counted(*args):
        got = numbers(*args)
        missed.append(int(np.count_nonzero(~got[1])))
        return got

    monkeypatch.setattr(prodbase._grid_reader, "_NUMBER_LIST", _Counted())
    monkeypatch.setattr(prodbase._grid_reader, "_numbers", counted)
    grids = _grids(monkeypatch)
    assert outcome(load_basis_file, path) == outcome(reference_load_basis_file, path)
    assert len(grids) == 1 and grids[0] is not None
    assert sum(missed) == 2 * 128 * 128  # every token
    assert len(matches) == len(missed) == 4  # one grammar match per block of 8,192 numbers


def _tokens_read(monkeypatch) -> list:
    """How many tokens each `_numbers` call reads from here on."""
    counts, real = [], prodbase._grid_reader._numbers
    counted = lambda V8, V24, lo, hi: counts.append(lo.size) or real(V8, V24, lo, hi)  # noqa: E731
    monkeypatch.setattr(prodbase._grid_reader, "_numbers", counted)
    return counts


def _zero_grid(slot):
    """A grid at least _GRID_MIN long whose every second number, as a real and as an imaginary
    part, is the text `slot`, with no blank added around it."""
    tokens = [slot, "0.5", "-3", "1.2345678901234567890123e-5", "7e-1", slot] * 1500
    return grid_text(tokens, cols=6, sep=",")


@pytest.mark.parametrize("blank", ["", " ", "\t", "\n", "\r"], ids=["", "SP", "HT", "LF", "CR"])
@pytest.mark.parametrize("token", ["0", "-0", "0.0", "-0.0"])
def test_zeros_read_from_the_table_get_json_loads_bits(monkeypatch, token, blank):
    counts = _tokens_read(monkeypatch)
    text = _zero_grid(blank + token)
    assert len(text) >= _GRID_MIN
    assert_kernel_reads_as_json(text)  # with a 23-digit token among them in each block
    assert sum(counts) == 4 * 1500  # the zeros, a third of the tokens, skip `_numbers`


@pytest.mark.parametrize("slot", ["0e0", "-0.00", "  -0", "0 ", " 0 ", "00.0", "1"])
def test_other_short_tokens_go_through_numbers_as_before(monkeypatch, slot):
    counts = _tokens_read(monkeypatch)
    text = _zero_grid(slot)
    if slot == "00.0":  # not JSON
        assert kernel_grid(text) is None
        return
    assert_kernel_reads_as_json(text)
    assert sum(counts) == 6 * 1500


@pytest.mark.parametrize("write", ["save_basis_file", "json.dumps"])
def test_an_identity_block_file_sends_only_its_nonzero_tokens_through_numbers(
    tmp_path, monkeypatch, write
):
    eye = ProductBasis(64, np.eye(128))  # one 1 in 256 numbers a row
    blocks = generate_from_type(TypeSpec(64, Partition((1,) * 64), 3, "identity-blocks"))
    for basis, share in ((eye, 0.01), (blocks, 0.02)):
        path = tmp_path / "b.json"
        if write == "save_basis_file":
            save_basis_file(path, basis)
        else:
            pairs = basis.vectors.view(np.float64).reshape(128, 128, 2).tolist()
            path.write_text(json.dumps({"dims": [2, 64], "vectors": pairs}))
        counts = _tokens_read(monkeypatch)
        assert outcome(load_basis_file, path) == outcome(reference_load_basis_file, path)
        nonzero = np.count_nonzero(basis.vectors.view(np.float64))
        assert sum(counts) == nonzero <= share * 2 * 128 * 128
        assert len(counts) <= 4  # at most one call per 8,192 numbers
        monkeypatch.undo()


def test_a_grid_of_zeros_alone_skips_numbers(monkeypatch):
    counts = _tokens_read(monkeypatch)
    assert_kernel_reads_as_json(grid_text(["0", "-0.0", "-0", "0.0"] * 3000, cols=50))
    assert sum(counts) == 0


def test_a_block_with_few_short_tokens_reads_them_all_through_numbers(monkeypatch):
    counts = _tokens_read(monkeypatch)
    tokens = (["0"] + ["0.12345678901234567"] * 31) * 300  # one zero in 32: below the table's share
    assert_kernel_reads_as_json(grid_text(tokens, cols=16))
    assert sum(counts) == len(tokens)
