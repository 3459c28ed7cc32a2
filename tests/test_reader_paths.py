"""Basis files that the grid kernel reads whole: files with CRLF line endings, and tokens too
long for its bulk path, each pinned by a count rather than a time."""

import numpy as np
import pytest

import prodbase.basisfile
from prodbase.cli import BasisFileError, load_basis_file, save_basis_file
from prodbase.generator import TypeSpec, generate_from_type
from prodbase.partitions import Partition
from test_reader import outcome, reference_load_basis_file


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
    grids, real = [], prodbase.basisfile._number_grid
    counted = lambda *args: grids.append(real(*args)) or grids[-1]  # noqa: E731
    monkeypatch.setattr(prodbase.basisfile, "_number_grid", counted)
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
    grammar, numbers = prodbase.basisfile._NUMBER_LIST, prodbase.basisfile._numbers

    class _Counted:
        def fullmatch(self, text):
            matches.append(len(text))
            return grammar.fullmatch(text)

    def counted(*args):
        got = numbers(*args)
        missed.append(int(np.count_nonzero(~got[1])))
        return got

    monkeypatch.setattr(prodbase.basisfile, "_NUMBER_LIST", _Counted())
    monkeypatch.setattr(prodbase.basisfile, "_numbers", counted)
    grids = _grids(monkeypatch)
    assert outcome(load_basis_file, path) == outcome(reference_load_basis_file, path)
    assert len(grids) == 1 and grids[0] is not None
    assert sum(missed) == 2 * 128 * 128  # every token
    assert len(matches) == len(missed) == 4  # one grammar match per block of 8,192 numbers
