import ast
import contextlib
import hashlib
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prodbase.analyzer
import prodbase.basisfile
import prodbase.cli
from prodbase.analyzer import ProductBasis
from prodbase._grid_writer import _g17
from prodbase.cli import BasisFileError, _build_parser, load_basis_file, main, save_basis_file
from prodbase.generator import FAMILY_TAGS, FamilyParams, TypeSpec, generate_from_type, named_family
from prodbase.numerics import DEFAULT_TOL
from prodbase.partitions import Partition, partition_count, partitions_of

RT2 = math.sqrt(2.0)


def computational_basis(n):
    eye = np.eye(2 * n, dtype=complex)
    return ProductBasis(n, [eye[:, k] for k in range(2 * n)])


def bell_completion_basis():
    vecs = [
        np.array([1, 0, 0, 1], dtype=complex) / RT2,
        np.array([1, 0, 0, -1], dtype=complex) / RT2,
        np.array([0, 1, 1, 0], dtype=complex) / RT2,
        np.array([0, 1, -1, 0], dtype=complex) / RT2,
    ]
    return ProductBasis(2, vecs)


def test_save_load_roundtrip_exact(tmp_path):
    basis = generate_from_type(TypeSpec(n=4, partition=Partition((2, 1, 1)), seed=5))
    path = tmp_path / "b.json"
    save_basis_file(path, basis)
    loaded = load_basis_file(path)
    assert loaded.n == 4
    for original, back in zip(basis.vectors, loaded.vectors):
        assert np.array_equal(original, back)
    assert loaded.meta["seed"] == 5


def test_verify_computational_c6(tmp_path, capsys):
    path = tmp_path / "comp.json"
    save_basis_file(path, computational_basis(3))
    rc = main(["verify", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "valid orthonormal product basis" in out


def test_verify_counterexample(tmp_path, capsys):
    path = tmp_path / "cx.json"
    save_basis_file(path, named_family(FamilyParams("counterexample_1_4")))
    rc = main(["verify", str(path)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "groupable but not orthonormal" in out


@pytest.mark.parametrize(
    "s, groupable, result",
    [(1e-6, "yes", "groupable but not orthonormal"), (1e-3, "no", "not an orthonormal basis")],
)
def test_verify_pairs_qubit_rays_near_orthogonal(tmp_path, capsys, s, groupable, result):
    """|0> and (s, sqrt(1 - s^2)) on e0, |+> and |-> on e1: the first two qubit rays are
    orthogonal partners when s^2 <= eps_ray * (2 - eps_ray), though the rows are not
    orthonormal."""
    qubits = [(1.0, 0.0), (s, math.sqrt(1.0 - s * s)), (1 / RT2, 1 / RT2), (1 / RT2, -1 / RT2)]
    qudits = [(1.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.0, 1.0)]
    path = tmp_path / "near.json"
    save_basis_file(path, ProductBasis(2, [np.kron(a, x) for a, x in zip(qubits, qudits)]))
    rc = main(["verify", str(path)])
    out = capsys.readouterr().out
    assert rc == 1
    assert f"\ngroupable into subsystem bases: {groupable}\nresult: {result}\n" in out


def test_verify_truncated_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    good = tmp_path / "good.json"
    save_basis_file(good, computational_basis(2))
    path.write_text(good.read_text()[:50])
    rc = main(["verify", str(path)])
    assert rc == 2


def test_verify_dimension_inconsistency(tmp_path):
    path = tmp_path / "bad_dims.json"
    path.write_text(json.dumps({"dims": [3, 2], "vectors": []}))
    assert main(["verify", str(path)]) == 2
    path.write_text(json.dumps({"dims": [2, 2], "vectors": [[[1, 0]] * 4] * 3}))
    assert main(["verify", str(path)]) == 2


def test_verify_non_unit_vectors_exit1(tmp_path, capsys):
    path = tmp_path / "non_unit.json"
    data = {
        "dims": [2, 1],
        "vectors": [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    }
    path.write_text(json.dumps(data))
    rc = main(["verify", str(path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "not-normalized" in err


def test_generate_then_classify_roundtrip(tmp_path, capsys):
    out = tmp_path / "gen.json"
    rc = main(["generate", "6", "3+2+1", "--seed", "1", "--out", str(out)])
    assert rc == 0
    rc = main(["classify", str(out)])
    text = capsys.readouterr().out
    assert rc == 0
    assert "right type: 3+2+1" in text


def test_classify_direct_product_text(tmp_path, capsys):
    out = tmp_path / "direct.json"
    rc = main(
        [
            "generate",
            "4",
            "4",
            "--seed",
            "2",
            "--mode",
            "equal",
            "--subspaces",
            "identity",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    rc = main(["classify", str(out)])
    text = capsys.readouterr().out
    assert rc == 0
    assert "right type: 4 (direct product)" in text


def test_classify_non_product_exit1(tmp_path, capsys):
    path = tmp_path / "bell.json"
    save_basis_file(path, bell_completion_basis())
    rc = main(["classify", str(path)])
    text = capsys.readouterr().out
    assert rc == 1
    assert "vector 0" in text


def test_generate_invalid_partition_string(tmp_path, capsys):
    rc = main(["generate", "6", "3+x", "--out", str(tmp_path / "x.json")])
    assert rc == 2
    rc = main(["generate", "6", "3+2", "--out", str(tmp_path / "x.json")])
    assert rc == 2


def test_family_triple_and_mub_check(tmp_path, capsys):
    out = tmp_path / "mub.json"
    rc = main(["family", "d6_mub_triple", "--out", str(out)])
    assert rc == 0
    paths = [str(tmp_path / f"mub_{i}.json") for i in range(3)]
    rc = main(["mub-check", *paths])
    text = capsys.readouterr().out
    assert rc == 0
    assert "all pairs mutually unbiased: yes" in text


def test_mub_check_detects_bias(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    save_basis_file(a, computational_basis(2))
    save_basis_file(b, computational_basis(2))
    rc = main(["mub-check", str(a), str(b)])
    text = capsys.readouterr().out
    assert rc == 1
    assert "all pairs mutually unbiased: no" in text


def test_mub_check_of_different_dimensions_is_a_usage_error(tmp_path, capsys):
    small, large = tmp_path / "small.json", tmp_path / "large.json"
    save_basis_file(small, computational_basis(2))
    save_basis_file(large, computational_basis(3))
    assert main(["mub-check", str(small), str(small), str(large)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "d = 4 and d = 6" in captured.err


# every exit-2 path that a command reports, not argparse: its command line and its stderr line
COMMAND_USAGE_ERRORS = {
    "malformed partition": ("generate 4 2+x", "invalid partition string '2+x'"),
    "partition with a digit separator": ("generate 30 3_0", "invalid partition string '3_0'"),
    "partition of non-ASCII digits": (
        "generate 5 \u0663+\u0662",
        "invalid partition string '\u0663+\u0662'",
    ),
    "negative seed": ("generate 4 2+2 --seed -1", "seed must be an unsigned 64-bit integer"),
    "n above MAX_N": ("generate 65 65", "n must be an integer in [1, 64], got 65"),
    "partition of another n": ("generate 4 3+2", "partition 3+2 does not sum to n = 4"),
    "partitions of 0": ("partitions 0", "n must be an integer in [1, 64], got 0"),
    "unknown tag": ("family nope", f"unknown family tag 'nope'; known: {FAMILY_TAGS}"),
    "alpha alone": ("family d6_B1 --alpha 1", "--alpha and --beta must be given together"),
    "malformed alpha": (
        "family d6_B1 --alpha abc --beta 1",
        "--alpha/--beta: complex() arg is a malformed string",
    ),
    "nan alpha": ("family d6_B1 --alpha nan --beta 0", "|alpha|^2 + |beta|^2 must be 1, got nan"),
    "ignored alpha": (
        "family d4_B0 --alpha 1 --beta 0",
        "family 'd4_B0' does not take unitary_params (--alpha/--beta)",
    ),
    "no g-file": (
        "family general_mupb_triple",
        "general_mupb_triple requires g_bases with keys z0,z1,x0,x1,y0,y1",
    ),
    "g-file of a list": (
        "family general_mupb_triple --g-file list.json",
        "g-bases file must hold a JSON object",
    ),
    "g-file entry of a number": (
        "family general_mupb_triple --g-file z0.json",
        "g-bases entry 'z0' is not a list of vectors",
    ),
    "second out path a directory": (
        "family d4_mupb_triple --out x.json",
        "cannot write x_1.json: is a directory",
    ),
    "out directory missing": (
        "family d4_B0 --out missing/b.json",
        "cannot write missing/b.json: no directory 'missing'",
    ),
    "mub-check of one file": ("mub-check d4.json", "mub-check needs at least two basis files"),
    "mub-check of two dimensions": (
        "mub-check d8.json d12.json",
        "mub-check needs bases of one dimension, got d = 8 and d = 12",
    ),
}


@pytest.mark.parametrize("line, message", COMMAND_USAGE_ERRORS.values(), ids=COMMAND_USAGE_ERRORS)
def test_a_command_usage_error_exits_2_with_one_line_and_no_file(
    tmp_path, monkeypatch, capsys, line, message
):
    monkeypatch.chdir(tmp_path)
    for n in (2, 4, 6):
        save_basis_file(f"d{2 * n}.json", computational_basis(n))
    Path("list.json").write_text("[1, 2]")
    Path("z0.json").write_text('{"z0": 3}')
    Path("x_1.json").mkdir()
    before = sorted(tmp_path.rglob("*"))
    assert main(line.split()) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert sorted(tmp_path.rglob("*")) == before


def test_no_command_reports_an_error_itself():
    # main alone turns a raised fault into a message and an exit code
    tree = ast.parse(Path(prodbase.cli.__file__).read_text())
    for func in tree.body:
        if isinstance(func, ast.FunctionDef) and func.name.startswith("cmd_"):
            for node in ast.walk(func):
                assert not (isinstance(node, ast.Attribute) and node.attr == "stderr"), func.name
                if isinstance(node, ast.Return) and isinstance(node.value, ast.Constant):
                    assert node.value.value != 2, func.name


def test_only_read_json_parses_json():
    # basis files and g-files share one reading path, in the format's module; no command parses
    for module, parsers in ((prodbase.basisfile, {"_read_json"}), (prodbase.cli, set())):
        tree = ast.parse(Path(module.__file__).read_text())
        readers = set()
        for func in tree.body:
            if isinstance(func, ast.FunctionDef):
                for node in ast.walk(func):
                    if isinstance(node, ast.Name) and node.id in ("_SCAN", "_number_grid"):
                        readers.add(func.name)
                    if isinstance(node, ast.Attribute) and node.attr in ("loads", "JSONObject"):
                        readers.add(func.name)
        assert readers == parsers, module.__name__


def test_family_unknown_tag(capsys):
    assert main(["family", "bogus"]) == 2


def test_family_d6_B1_params(tmp_path, capsys):
    out = tmp_path / "b1.json"
    rc = main(["family", "d6_B1", "--alpha", "0.6", "--beta", "0.8", "--out", str(out)])
    assert rc == 0
    rc = main(["family", "d6_B1", "--alpha", "1.0", "--beta", "1.0", "--out", str(out)])
    assert rc == 2


@pytest.mark.parametrize(
    "alpha, beta, message",
    [
        ("abc", "0.8", "error: --alpha/--beta: complex() arg is a malformed string"),
        ("0.6", "1+", "error: --alpha/--beta: complex() arg is a malformed string"),
        ("nan", "0", "error: |alpha|^2 + |beta|^2 must be 1, got nan"),
        ("1", "nan+1j", "error: |alpha|^2 + |beta|^2 must be 1, got nan"),
    ],
)
def test_family_bad_alpha_beta_is_a_usage_error(tmp_path, capsys, alpha, beta, message):
    out = tmp_path / "b1.json"
    assert main(["family", "d6_B1", "--alpha", alpha, "--beta", beta, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == message + "\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "tag, flags, field",
    [
        ("d4_B0", ["--alpha", "1", "--beta", "0"], "unitary_params (--alpha/--beta)"),
        ("d6_mub_triple", ["--alpha", "1", "--beta", "0"], "unitary_params (--alpha/--beta)"),
        ("d4_B1", ["--g-file", "G"], "g_bases (--g-file)"),
        ("d6_B1", ["--g-file", "G"], "g_bases (--g-file)"),
        ("counterexample_1_4", ["--g-file", "G"], "g_bases (--g-file)"),
    ],
)
def test_family_rejects_a_parameter_it_ignores(tmp_path, capsys, tag, flags, field):
    g_file = tmp_path / "g.json"
    g_file.write_text(_g_file_text())
    out = tmp_path / "b.json"
    argv = ["family", tag, *[str(g_file) if f == "G" else f for f in flags], "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: family {tag!r} does not take {field}\n"
    assert not list(tmp_path.glob("b*.json"))


@pytest.mark.parametrize(
    "command",
    [["generate", "4", "2+2"], ["family", "d4_B0"], ["family", "d4_mupb_triple"]],
    ids=["generate", "family", "family of three"],
)
@pytest.mark.parametrize(
    "out", ["missing/b.json", "dir", "", "."], ids=["missing directory", "directory", "empty", "dot"]
)
def test_an_unwritable_out_path_is_a_usage_error(tmp_path, monkeypatch, capsys, command, out):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dir").mkdir()
    (tmp_path / "dir_0.json").mkdir()  # the first file that d4_mupb_triple --out dir writes
    assert main([*command, "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: cannot write .*\n", captured.err)
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["dir", "dir_0.json"]


@pytest.mark.parametrize("taken", ["x_1.json", "x_2.json"])
def test_family_checks_each_out_path_before_writing_any(tmp_path, monkeypatch, capsys, taken):
    monkeypatch.chdir(tmp_path)
    (tmp_path / taken).mkdir()
    assert main(["family", "d4_mupb_triple", "--out", "x.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {taken}: is a directory\n"
    assert [p.name for p in tmp_path.iterdir()] == [taken]


def test_readme_family_tags_match_the_catalog():
    # README's table of tags: its tags, n and basis counts, and what each tag takes
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` \| (\w+) \| (\d+) \| (.*) \|$", readme, flags=re.M)
    assert sorted(tag for tag, *_ in rows) == list(FAMILY_TAGS)
    g_bases = {key: np.eye(2, dtype=complex) for key in ("z0", "z1", "x0", "x1", "y0", "y1")}
    given = {
        "`qubit_states`": {"qubit_states": ((1, 0),) * 3},
        "`--alpha/--beta`": {"unitary_params": (1, 0)},
        "`--g-file`": {"g_bases": g_bases},
    }
    for tag, n, count, takes in rows:
        if tag != "general_mupb_triple":
            result = named_family(FamilyParams(tag))
            bases = result if isinstance(result, list) else [result]
            assert (str(bases[0].n), len(bases)) == (n, int(count)), tag
        for name, kwargs in given.items():
            try:
                named_family(FamilyParams(tag, **kwargs))
            except ValueError as exc:
                rejected = "does not take" in str(exc)
            else:
                rejected = False
            assert rejected == (name not in takes), (tag, name)


def test_partitions_output(capsys):
    rc = main(["partitions", "6"])
    text = capsys.readouterr().out
    assert rc == 0
    lines = [ln for ln in text.splitlines() if ln]
    assert len(lines) == 12
    assert lines[0] == "6"
    assert "p(6)=11, type lower bound 12" in text


def test_cli_determinism_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["generate", "5", "3+2", "--seed", "7", "--out", str(a)]) == 0
    assert main(["generate", "5", "3+2", "--seed", "7", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_env_tolerance_override(tmp_path, capsys, monkeypatch):
    # perturb a direct-product basis inside one block: still product vectors,
    # orthogonality broken at ~1e-5
    basis = computational_basis(3)
    vecs = list(basis.vectors)
    theta = 1e-5
    vecs[0] = math.cos(theta) * vecs[0] + math.sin(theta) * vecs[1]
    path = tmp_path / "perturbed.json"
    save_basis_file(path, ProductBasis(3, vecs))
    monkeypatch.delenv("PRODBASE_TOL_ORTH", raising=False)
    assert main(["verify", str(path)]) == 1
    monkeypatch.setenv("PRODBASE_TOL_ORTH", "1e-4")
    assert main(["verify", str(path)]) == 0
    # explicit flag beats the environment
    assert main(["verify", str(path), "--tol-orth", "1e-9"]) == 1


def test_family_general_triple_via_g_file(tmp_path, capsys):
    from prodbase.generator import MUB6_FACTORS

    eye3 = np.eye(3, dtype=complex)
    fourier = MUB6_FACTORS[0][1]
    second = MUB6_FACTORS[1][1]

    def encode(mat):
        return [[[z.real, z.imag] for z in mat[:, k]] for k in range(3)]

    g = {
        "z0": encode(eye3),
        "z1": encode(eye3),
        "x0": encode(fourier),
        "x1": encode(fourier),
        "y0": encode(second),
        "y1": encode(second),
    }
    g_file = tmp_path / "g.json"
    g_file.write_text(json.dumps(g))
    out = tmp_path / "triple.json"
    rc = main(["family", "general_mupb_triple", "--g-file", str(g_file), "--out", str(out)])
    assert rc == 0
    paths = [str(tmp_path / f"triple_{i}.json") for i in range(3)]
    rc = main(["mub-check", *paths])
    text = capsys.readouterr().out
    assert rc == 0
    assert "all pairs mutually unbiased: yes" in text


@pytest.mark.parametrize("meta", [3, None, [], 0, "", False], ids=["3", "null", "[]", "0", '""', "false"])
def test_load_rejects_malformed_meta(tmp_path, capsys, meta):
    path = tmp_path / "meta.json"
    path.write_text(json.dumps({"dims": [2, 1], "vectors": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], "meta": meta}))
    with pytest.raises(BasisFileError):
        load_basis_file(path)
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: meta must be an object\n")


def test_load_rejects_bool_dimension(tmp_path, capsys):
    # a bool is an int in Python: [2, true] must not pass as n = 1
    path = tmp_path / "bool_dims.json"
    path.write_text(json.dumps({"dims": [2, True], "vectors": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}))
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("flag", ["--tol-orth", "--tol-rank"])
def test_out_of_range_tolerance_flag_is_usage_error(tmp_path, capsys, flag):
    path = tmp_path / "comp.json"
    save_basis_file(path, computational_basis(2))
    with pytest.raises(SystemExit) as exc:
        main(["verify", str(path), flag, "1"])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "1"])
def test_bad_tolerance_env_is_usage_error(tmp_path, capsys, monkeypatch, value):
    path = tmp_path / "comp.json"
    save_basis_file(path, computational_basis(2))
    monkeypatch.setenv("PRODBASE_TOL_ORTH", value)
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: PRODBASE_TOL_ORTH")


def _write_overflowing_basis(path):
    # a 400-digit integer is valid JSON but too large for a float
    path.write_text(
        '{"dims": [2, 1], "vectors": [[[1' + "0" * 400 + ', 0], [0, 0]], [[0, 0], [1, 0]]]}'
    )


@pytest.mark.parametrize("command", ["verify", "classify", "mub-check"])
def test_overflowing_entry_is_a_parse_error(tmp_path, capsys, command):
    path = tmp_path / "huge.json"
    _write_overflowing_basis(path)
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "malformed entry" in err


def test_family_g_file_overflowing_entry_is_a_parse_error(tmp_path, capsys):
    g_file = tmp_path / "g.json"
    g_file.write_text('{"z0": [[[1' + "0" * 400 + ", 0]]]}")
    out = tmp_path / "t.json"
    assert main(["family", "general_mupb_triple", "--g-file", str(g_file), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "malformed entry" in err


def test_generate_twenty_blocks(tmp_path, capsys):
    path = tmp_path / "ones.json"
    ones = "+".join(["1"] * 20)
    assert main(["generate", "20", ones, "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["classify", str(path)]) == 0
    assert f"right type: {ones}\n" in capsys.readouterr().out


@pytest.mark.parametrize("content", ["[1, 2]", '"z0"', "3", "null"])
def test_family_g_file_must_hold_an_object(tmp_path, capsys, content):
    g_file = tmp_path / "g.json"
    g_file.write_text(content)
    out = tmp_path / "t.json"
    assert main(["family", "general_mupb_triple", "--g-file", str(g_file), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: g-bases file")
    assert not out.exists()


def test_repeated_main_calls_are_independent(tmp_path, capsys, monkeypatch):
    # vector 1 leans 1e-7 toward vector 0: still product vectors, Gram residual ~1e-7
    vecs = list(computational_basis(2).vectors)
    vecs[1] = (vecs[1] + 1e-7 * vecs[0]) / math.hypot(1.0, 1e-7)
    path = str(tmp_path / "lean.json")
    save_basis_file(path, ProductBasis(2, vecs))
    monkeypatch.delenv("PRODBASE_TOL_ORTH", raising=False)
    assert _build_parser() is _build_parser()
    assert main(["verify", path, "--tol-orth", "1e-6"]) == 0
    assert main(["verify", path]) == 1  # the flag of the previous call does not carry over
    monkeypatch.setenv("PRODBASE_TOL_ORTH", "1e-6")
    assert main(["classify", path]) == 0  # the environment is read on every call
    monkeypatch.setenv("PRODBASE_TOL_ORTH", "1e-8")
    assert main(["classify", path]) == 1
    with pytest.raises(SystemExit) as exc:
        main(["verify", path, "--tol-orth"])
    assert exc.value.code == 2
    assert main(["verify", path, "--tol-orth", "1e-6"]) == 0  # a usage error leaves no state behind
    capsys.readouterr()
    monkeypatch.delenv("PRODBASE_TOL_ORTH")
    assert main(["verify", path]) == 1
    assert "orthonormal: no" in capsys.readouterr().out


# classify's text for `family d6_B2`, captured before vector formatting moved to
# one %-operation per vector; the Gram residual is roundoff and is matched by form
D6_B2_CLASSIFY = """\
right type: 3
left type: undefined
blocks: r = 1
  #1 multiplicity 3, qubit pair (1+0j, 0+0j) / (0+0j, 1+0j), subspace dim 3
B1(n):
  (1+0j, 0+0j, 0+0j)
  (0+0j, 1+0j, 0+0j)
  (0+0j, 0+0j, 1+0j)
B2(n):
  (0.57735+0j, 0.57735+0j, 0.57735+0j)
  (0.57735+0j, -0.288675+0.5j, -0.288675-0.5j)
  (0.57735+0j, -0.288675-0.5j, -0.288675+0.5j)
"""


def test_classify_text_is_pinned(tmp_path, capsys):
    path = tmp_path / "d6_B2.json"
    assert main(["family", "d6_B2", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["classify", str(path)]) == 0
    head, valid, rest = capsys.readouterr().out.split("\n", 2)
    assert head == f"file: {path}"
    assert re.fullmatch(r"valid: yes \(Gram residual \d\.\d{6}e-1[5-7]\)", valid)
    assert rest == D6_B2_CLASSIFY


def _reference_fmt_vec(v) -> str:
    v = np.ascontiguousarray(np.asarray(v, dtype=np.complex128))
    return ("(" + ", ".join(["%.6g%+.6gj"] * v.size) + ")") % tuple(v.view(np.float64).tolist())


def reference_classify_text(path, report, left) -> str:
    """The stdout of `classify` as the format was first printed: an f-string per block with
    one `%` per qubit vector, then one `%` per row of B1(n) and of B2(n)."""
    valid = "yes" if report.valid else "no"
    lines = [f"file: {path}", f"valid: {valid} (Gram residual {report.gram_residual:.6e})"]
    lines += [f"  {line}" for line in report.diagnostics]
    if report.valid:
        suffix = " (direct product)" if report.is_direct_product else ""
        lines.append(f"right type: {report.right_type}{suffix}")
        lines.append(f"left type: {left if left is not None else 'undefined'}")
        lines.append(f"blocks: r = {report.r}")
        for idx, blk in enumerate(report.blocks, start=1):
            lines.append(
                f"  #{idx} multiplicity {blk.multiplicity}, qubit pair "
                f"{_reference_fmt_vec(blk.a)} / {_reference_fmt_vec(blk.a_perp)}, "
                f"subspace dim {blk.subspace.dim}"
                f"{', groups coincide' if blk.groups_coincide else ''}"
            )
        row_fmt = "  (" + ", ".join(["%.6g%+.6gj"] * len(report.basis_B1n)) + ")"
        for name, family in (("B1(n)", report.basis_B1n), ("B2(n)", report.basis_B2n)):
            lines.append(f"{name}:")
            lines += [row_fmt % tuple(row) for row in np.array(family).view(np.float64).tolist()]
    return "".join(line + "\n" for line in lines)


def assert_classify_prints_the_reference_text(path):
    """Run CLI `classify` on `path` and compare its exit code and stdout with the reference
    rendering of the library's report; returns the report."""
    basis = load_basis_file(path)
    report = prodbase.analyzer.classify(basis)
    text = reference_classify_text(path, report, prodbase.analyzer.left_classify(basis))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(["classify", str(path)])
    assert rc == (0 if report.valid else 1)
    assert out.getvalue() == text
    return report


_MODE_PAIRS = [
    (subspaces, pairs)
    for subspaces in ("identity-blocks", "haar-random")
    for pairs in ("equal-groups", "independent-groups")
]


@pytest.mark.parametrize("modes", _MODE_PAIRS, ids=["-".join(m) for m in _MODE_PAIRS])
@pytest.mark.parametrize(
    "n, parts",
    [(1, (1,)), (64, (64,)), (64, (32, 32)), (64, (2,) * 32), (64, (1,) * 64)],
    ids=["n=1", "1 block", "2 blocks", "32 blocks", "64 blocks"],
)
def test_classify_prints_the_reference_text(tmp_path, n, parts, modes):
    basis = generate_from_type(TypeSpec(n, parts, 7, *modes))
    save_basis_file(tmp_path / "b.json", basis)
    report = assert_classify_prints_the_reference_text(tmp_path / "b.json")
    assert report.valid and report.r == len(parts)


@st.composite
def _small_specs(draw):
    n = draw(st.integers(1, 8))
    partition = draw(st.sampled_from(partitions_of(n)))
    return TypeSpec(n, partition, draw(st.integers(0, 2**64 - 1)), *draw(st.sampled_from(_MODE_PAIRS)))


@settings(max_examples=80, deadline=None)
@given(_small_specs(), st.sampled_from((0.0, 1e-12, 1e-10, 5e-10)), st.integers(0, 2**32 - 1))
def test_classify_prints_the_reference_text_for_any_small_basis(tmp_path_factory, spec, kick, seed):
    """Generated bases, and the same with every vector moved by `kick` in a random direction."""
    vectors = generate_from_type(spec).vectors
    rng = np.random.Generator(np.random.Philox(seed))
    noise = rng.standard_normal(vectors.shape) + 1j * rng.standard_normal(vectors.shape)
    moved = vectors + kick * noise / np.linalg.norm(noise, axis=1, keepdims=True)
    basis = ProductBasis(spec.n, moved / np.linalg.norm(moved, axis=1, keepdims=True))
    path = tmp_path_factory.getbasetemp() / "classify.json"
    save_basis_file(path, basis)
    report = assert_classify_prints_the_reference_text(path)
    assert report.valid or kick > 0.0


def _g_file_text():
    from prodbase.generator import MUB6_FACTORS

    def encode(mat):
        return [[[z.real, z.imag] for z in mat[:, k]] for k in range(3)]

    eye3, fourier, second = np.eye(3, dtype=complex), MUB6_FACTORS[0][1], MUB6_FACTORS[1][1]
    families = (eye3, eye3, fourier, fourier, second, second)
    keys = ("z0", "z1", "x0", "x1", "y0", "y1")
    return json.dumps({key: encode(m) for key, m in zip(keys, families)})


@pytest.mark.parametrize("fault", ["deep nesting", "not UTF-8", "true/false entry"])
@pytest.mark.parametrize("reader", ["basis", "g-file"])
def test_json_input_faults_are_usage_errors(tmp_path, capsys, reader, fault):
    path = tmp_path / "in.json"
    if reader == "basis":
        save_basis_file(path, computational_basis(2))
        text, number = path.read_text(), "[1, 0]"
        argv = ["verify", str(path)]
    else:
        text, number = _g_file_text(), "[1.0, 0.0]"
        out = str(tmp_path / "t.json")
        argv = ["family", "general_mupb_triple", "--g-file", str(path), "--out", out]
    # the untouched file is accepted
    path.write_text(text)
    assert main(argv) == 0
    capsys.readouterr()
    if fault == "deep nesting":
        path.write_text("[" * 100_000)
    elif fault == "not UTF-8":
        path.write_bytes(text.replace("{", '{"note": "\xff", ', 1).encode("latin-1"))
    else:
        path.write_text(text.replace(number, "[true, false]", 1))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


def test_load_accepts_true_and_false_in_meta(tmp_path):
    path = tmp_path / "meta.json"
    basis = computational_basis(1)
    basis.meta.update(checked=True, entangled=False)
    save_basis_file(path, basis)
    assert load_basis_file(path).meta == {"checked": True, "entangled": False}


def test_verify_factors_the_basis_once_and_not_when_a_row_is_entangled(tmp_path, monkeypatch):
    calls = []
    real = prodbase.analyzer.factor_arrays
    counted = lambda rows: calls.append(1) or real(rows)  # noqa: E731
    monkeypatch.setattr(prodbase.analyzer, "factor_arrays", counted)
    good, entangled = tmp_path / "good.json", tmp_path / "bell.json"
    save_basis_file(good, computational_basis(3))
    save_basis_file(entangled, bell_completion_basis())
    assert main(["verify", str(good)]) == 0
    assert calls == [1]  # shared by the pairwise and grouping checks
    assert main(["verify", str(entangled)]) == 1
    assert calls == [1]


@pytest.mark.parametrize("n", [1, 2, 7, 30])
def test_partitions_text(capsys, n):
    assert main(["partitions", str(n)]) == 0
    count = partition_count(n)
    expected = [str(p) for p in partitions_of(n)]
    expected.append(f"p({n})={count}, type lower bound {count + 1}")
    assert capsys.readouterr().out == "\n".join(expected) + "\n"


def test_partitions_out_of_range_prints_nothing_on_stdout(capsys):
    assert main(["partitions", "65"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: n must be an integer in [1, 64], got 65\n"


def _cli(*argv, **kwargs):
    """`python -m prodbase.cli *argv` as a child process on this tree's package, stderr piped,
    with stdout buffered as it is by default."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(prodbase.cli.__file__).parents[1])
    argv = [sys.executable, "-m", "prodbase.cli", *argv]
    return subprocess.Popen(argv, env=env, stderr=subprocess.PIPE, **kwargs)


def test_a_reader_that_stops_early_ends_partitions_with_141_and_no_message():
    child = _cli("partitions", "40", stdout=subprocess.PIPE)
    assert child.stdout.readline() == b"40\n"
    child.stdout.close()  # with most of the 37,338 lines unwritten
    assert child.wait(timeout=60) == 141
    assert child.stderr.read() == b""


def test_verify_into_a_closed_pipe_exits_141_with_no_message(tmp_path):
    save_basis_file(tmp_path / "b.json", computational_basis(2))
    read, write = os.pipe()
    os.close(read)
    child = _cli("verify", str(tmp_path / "b.json"), stdout=write)
    os.close(write)
    assert child.wait(timeout=60) == 141
    assert child.stderr.read() == b""


@pytest.mark.parametrize("argv", [["partitions", "40"], ["verify", "b.json"]])
def test_a_command_without_stdout_exits_as_with_it(tmp_path, argv):
    save_basis_file(tmp_path / "b.json", computational_basis(2))
    child = _cli(*argv, cwd=tmp_path, preexec_fn=lambda: os.close(1))
    assert child.wait(timeout=60) == 0
    assert child.stderr.read() == b""


def reference_save_basis_file(path, basis):
    """The writer the file format was defined by: one `%.17g` per number, row by row."""
    lines = ["{", f'  "dims": [2, {basis.n}],', '  "vectors": [']
    row_fmt = "    [" + ", ".join(["[%.17g, %.17g]"] * (2 * basis.n)) + "]"
    rows = basis.vectors.view(np.float64).tolist()
    lines.append(",\n".join(row_fmt % tuple(row) for row in rows))
    lines.append("  ],")
    lines.append(f'  "meta": {json.dumps(basis.meta, sort_keys=True)}')
    lines.append("}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def assert_g17_is_percent_g(values):
    x = np.asarray(values, dtype=np.float64)
    words = np.zeros((x.size, 7), np.uint32)
    _g17(x, words)
    got = [bytes(row[row != 0]) for row in words.view(np.uint8)]
    assert got == [b"%.17g" % v for v in x.tolist()]


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


_SIGN = st.sampled_from((1.0, -1.0))
_DOUBLES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(0, 2**64 - 1).map(_double).filter(math.isfinite),
    # the range written by integer arithmetic, [2**-34, 1), by bit pattern and by value
    st.builds(lambda s, bits: s * _double(bits), _SIGN, st.integers(989 << 52, (1023 << 52) - 1)),
    st.builds(lambda s, v: s * v, _SIGN, st.floats(1e-10, 1.0, exclude_max=True)),
)


def _two_block_numbers() -> np.ndarray:
    """8,712 numbers: a first block of 8,192 without a zero, all of them in the bulk range but
    a few on both sides of it, and a tail holding both zeros among numbers like those."""
    rng = np.random.default_rng(7)
    x = rng.choice([-1.0, 1.0], 8712) * 10.0 ** rng.uniform(-10, 0, 8712)
    x[[5, 700, 8191, 8200]] = [1e300, -2.5, 1e-11, -5e-324]
    x[8192 + rng.choice(520, 40, replace=False)] = [0.0, -0.0] * 20
    return x


def test_g17_on_blocks_with_and_without_zeros():
    x = _two_block_numbers()
    assert np.count_nonzero(x == 0) == 40
    assert_g17_is_percent_g(x.tolist())
    assert_g17_is_percent_g(np.concatenate([x[:8192], x[::-1]]).tolist())  # zeros in block 2 of 3


def test_g17_leaves_the_word_after_each_number_zero():
    # as save_basis_file calls it: on the first seven words of cells of eight
    small = [0.0, -0.0, 1e300, -2.5, 5e-324, 0.1, -0.123456789, 1e-10, 0.5]
    for x in (np.array(small), _two_block_numbers()):
        cells = np.zeros((x.size, 8), np.uint32)
        _g17(x, cells[:, :7])
        assert not cells[:, 7].any()
        assert [bytes(row[row != 0]) for row in cells.view(np.uint8)] == [b"%.17g" % v for v in x]


@settings(max_examples=300, deadline=None)
@given(st.lists(_DOUBLES, min_size=1, max_size=40))
def test_g17_writes_what_percent_g_writes_for_any_finite_double(values):
    assert_g17_is_percent_g(values)


def test_g17_on_zeros_subnormals_ones_and_both_sides_of_each_power_of_ten():
    values = [0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1.0, 1e-10]
    values += [np.nextafter(1.0, 0.0), np.nextafter(1e-10, 0.0), 0.5, 2.0**-34, 1e300]
    for e in range(1, 11):
        p = 10.0**-e
        values += [np.nextafter(np.nextafter(p, 0.0), 0.0), np.nextafter(p, 0.0), p]
        values += [np.nextafter(p, 1.0), np.nextafter(np.nextafter(p, 1.0), 1.0)]
    assert_g17_is_percent_g(values + [-v for v in values])


def test_g17_rounds_exact_17_digit_ties_half_to_even():
    # (2j + 1) / 2**(k + 1) times 10**k is (2j + 1) * 5**k / 2, a half: a tie at 17 digits
    # when it lies in [10**16, 10**17)
    ties = []
    for k in range(17, 25):
        odd = range(-(-2 * 10**16 // 5**k) | 1, 2 * 10**17 // 5**k, 2)
        ties += [math.ldexp(j, -k - 1) for j in (*odd[:24], *odd[-24:])]
    assert len(set(ties)) > 250
    for x in ties:
        assert (Fraction(x) * 10 ** (16 - math.floor(math.log10(x)))).denominator == 2
    assert_g17_is_percent_g(ties + [-x for x in ties])


@pytest.mark.parametrize(
    "basis",
    [
        generate_from_type(TypeSpec(n=16, partition=Partition((8, 4, 2, 1, 1)), seed=3)),
        generate_from_type(
            TypeSpec(n=7, partition=Partition((3, 3, 1)), seed=4, subspace_mode="identity-blocks")
        ),
        named_family(FamilyParams("d6_B2")),
        computational_basis(1),
        # save_basis_file reads n, vectors and meta only, so any numbers can be written
        SimpleNamespace(
            n=2,
            vectors=np.array([[1e300, -0.0, 5e-324, -1e-10, 2.5, 1e-11, 0.1, -1234.5]] * 4).view(complex),
            meta={"note": "not a basis", "seed": 1},
        ),
        # the writer works in blocks of 8,192 numbers; n = 33 has 8,712: a block and a tail
        generate_from_type(TypeSpec(n=33, partition=Partition((17, 8, 4, 2, 1, 1)), seed=5)),
        SimpleNamespace(n=33, vectors=_two_block_numbers().view(complex).reshape(66, 66), meta={}),
        generate_from_type(
            TypeSpec(n=64, partition=Partition((32, 32)), seed=6, subspace_mode="identity-blocks")
        ),
        # each row, and the file, ends in a number that %.17g writes alone, or in a zero
        SimpleNamespace(
            n=1,
            vectors=np.array([[0.5, 1e300, 0.25, -0.0], [-0.125, -0.75, 1e-3, 0.0]]).view(complex),
            meta={},
        ),
        SimpleNamespace(
            n=2,
            vectors=np.array([
                [0.5, -0.25, 0.125, 0.75, -0.375, 0.625, 1e-9, end]
                for end in (5e-324, -2.5, 1e300, -5e-324)
            ]).view(complex),
            meta={},
        ),
    ],
    ids=[
        "random", "identity", "family", "n=1", "arbitrary numbers",
        "n=33 random", "zeros in block 2", "n=64 identity", "row ends, n=1", "row ends, n=2",
    ],
)
def test_save_basis_file_writes_the_reference_writers_bytes(tmp_path, basis):
    save_basis_file(tmp_path / "new.json", basis)
    reference_save_basis_file(tmp_path / "reference.json", basis)
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "reference.json").read_bytes()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_save_basis_file_writes_the_reference_writers_bytes_for_any_numbers(tmp_path_factory, data):
    n = data.draw(st.integers(1, 4))
    numbers = data.draw(st.lists(_DOUBLES, min_size=8 * n * n, max_size=8 * n * n))
    basis = SimpleNamespace(n=n, vectors=np.array(numbers).view(complex).reshape(2 * n, 2 * n), meta={})
    new, reference = (tmp_path_factory.getbasetemp() / name for name in ("new.json", "ref.json"))
    save_basis_file(new, basis)
    reference_save_basis_file(reference, basis)
    assert new.read_bytes() == reference.read_bytes()


# The sha256 of every file that a grid of `generate` and `family` calls writes, taken
# before the writer computed its digits in bulk.  They pin the bytes of the writer and of
# the generator: a change to written files shows here and must be stated with the change.
_GOLDEN_PARTITIONS = {
    1: "1",
    2: "1+1",
    3: "2+1",
    7: "4+2+1",
    16: "8+4+2+1+1",
    64: "32+16+8+4+2+1+1",
}


def _grid_calls(tmp_path):
    """(label, argv without --out) of every call in the grid."""
    for n, parts in _GOLDEN_PARTITIONS.items():
        for subspaces in ("random", "identity"):
            for mode in ("equal", "independent"):
                for seed in (0, 11):
                    flags = ["--seed", str(seed), "--mode", mode, "--subspaces", subspaces]
                    argv = ["generate", str(n), parts, *flags]
                    yield " ".join(argv), argv
    g_file = tmp_path / "g.json"
    g_file.write_text(_g_file_text())
    for tag in FAMILY_TAGS:
        extra = ["--g-file", str(g_file)] if tag == "general_mupb_triple" else []
        yield f"family {tag}", ["family", tag, *extra]
    for alpha, beta in (("0.6", "0.8"), ("0.36+0.48j", "-0.8j")):
        flags = [f"--alpha={alpha}", f"--beta={beta}"]
        yield " ".join(["family d6_B1", *flags]), ["family", "d6_B1", *flags]


def _grid_digests(tmp_path) -> dict:
    """{label: sha256 hex} of each file written; a call writing k > 1 files labels
    them `label #i`."""
    digests = {}
    for i, (label, argv) in enumerate(_grid_calls(tmp_path)):
        out_dir = tmp_path / f"call{i}"
        out_dir.mkdir()
        assert main([*argv, "--out", str(out_dir / "b.json")]) == 0, label
        files = sorted(out_dir.iterdir())
        for k, path in enumerate(files):
            key = label if len(files) == 1 else f"{label} #{k}"
            digests[key] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


# sha256sum-style lines: digest, two spaces, the call (and file number) that wrote it
GOLDEN = """\
edf7bea165dbcb12d53c26685f9d8df510dab26286430bfa979af9659cbfda4b  generate 1 1 --seed 0 --mode equal --subspaces random
d23f3c812a8b55b9831a6793c2584043c60579a8f574d15799edcd18d1f07817  generate 1 1 --seed 11 --mode equal --subspaces random
999cd78f2f19c7782d80254f4f5f0765569b75bffce1129375efd7d416ee03d0  generate 1 1 --seed 0 --mode independent --subspaces random
93fcfa9e0ccce5e2e38d041b1157cbaf28a49f62ad08ec1afc1d1394fdbc6652  generate 1 1 --seed 11 --mode independent --subspaces random
8f613428f2f0a4120ae8c7f2f3d3194814abd0b39900cf1dda8a59587cf9f78d  generate 1 1 --seed 0 --mode equal --subspaces identity
e2f9e22dca29598a389255158b4dff110251753849bb1ddc4d888964de1e351e  generate 1 1 --seed 11 --mode equal --subspaces identity
88bb20041323ec466dc7f80dbb10fd9374d74cf7c0ee9d64a16be756dc35506e  generate 1 1 --seed 0 --mode independent --subspaces identity
c36a43e1886aecb42733d0cf93f7787bf24829109c0afe7b4627eb9dd13b5036  generate 1 1 --seed 11 --mode independent --subspaces identity
b5088c08b30c8d8d4273403db9019d8bb6130096dd6ccdae1d09b2ed332d3706  generate 2 1+1 --seed 0 --mode equal --subspaces random
e4ae509d8918df350ef825d9a2c5edc099ad82618e76c9690aa751d1dad5d0e1  generate 2 1+1 --seed 11 --mode equal --subspaces random
47b8641e786a1d78dda747805490a7d519aa154feba2c6d06f403b437933c2f3  generate 2 1+1 --seed 0 --mode independent --subspaces random
5c6283e3cc4534210f0d500e010849aedd7951bb5e2108ef53dee767daf9e43f  generate 2 1+1 --seed 11 --mode independent --subspaces random
cd250d4d7a0e786eebd96ed4dbc1debb7ed95d103605f371a70623520058f8e9  generate 2 1+1 --seed 0 --mode equal --subspaces identity
e0fc91ffc6821a3ff725224d01995bdf045513ab97124d90fbbe9af2f6c38d27  generate 2 1+1 --seed 11 --mode equal --subspaces identity
64724401afb68b27f03661ca7acd310e22449cc042d999e19aacaa190b6b4c6b  generate 2 1+1 --seed 0 --mode independent --subspaces identity
b053840720c871d4ad69f37675de772af5a992df15c63fa99621615d5b2b6f60  generate 2 1+1 --seed 11 --mode independent --subspaces identity
d7ca58aab737daf2c90f87940b3279065269e8cb5a3d0917c24a6461682ad7e5  generate 3 2+1 --seed 0 --mode equal --subspaces random
e9782019ade4f190cb0a24fca096bb556fad5f0e0dc51b955e53db68535358b7  generate 3 2+1 --seed 11 --mode equal --subspaces random
5c38cdc7d30f9c7ec960a55712b9b8d54edc0a931a9a3ece5da79be332b4c909  generate 3 2+1 --seed 0 --mode independent --subspaces random
c5a3c779b903ac52261906930d77d520e82452f4ba467727eb7138704f874815  generate 3 2+1 --seed 11 --mode independent --subspaces random
9e90be5215b4501b3c319fa5065f0dca40d54ddd0a4f6827e09e22e3823429fd  generate 3 2+1 --seed 0 --mode equal --subspaces identity
e7d358900d787b7ac3064c5cad5bb38acc0593d7bd14d7ba6105ab05853e9482  generate 3 2+1 --seed 11 --mode equal --subspaces identity
723dd778092040cc8567af541588ece7e50077318396d86732a9177ad7103ef2  generate 3 2+1 --seed 0 --mode independent --subspaces identity
81d7f96d8822af10611a3022148fd3ff9d55ba50fbd08cd9c02a7c4e58026b2f  generate 3 2+1 --seed 11 --mode independent --subspaces identity
3d90574f49def27e40975d62dc270592439ecfcbbca8b057f7d1d3aae897e679  generate 7 4+2+1 --seed 0 --mode equal --subspaces random
952b0097c494fb4a5fe417bbca49d2688950aec9c765689a311bffb64c8ca4e9  generate 7 4+2+1 --seed 11 --mode equal --subspaces random
4ebe3500489f033ddd1709fa941dd86e9178809d06ee9fb040b4325b125263b1  generate 7 4+2+1 --seed 0 --mode independent --subspaces random
a92e7fc74321ca0b80f44cbc0aabd0f86e16d40421c1f0d2db54142a8b9defee  generate 7 4+2+1 --seed 11 --mode independent --subspaces random
7f4a503e4bfe85cf5263eb28856c257506dd5f4a1d78f8cb1b58af27a8005d63  generate 7 4+2+1 --seed 0 --mode equal --subspaces identity
901a304b2602285f1587dfa5f539616dfe1611eed7434597a39eacd6c8a379d7  generate 7 4+2+1 --seed 11 --mode equal --subspaces identity
8db2d620e3af52b8e67505421e71d1a4f888e716fdc63be70ae894ac61331511  generate 7 4+2+1 --seed 0 --mode independent --subspaces identity
fa0189bc9bb4d545fa4602e12922e1bbf2aae0efe69f80375ab2f3cb68954527  generate 7 4+2+1 --seed 11 --mode independent --subspaces identity
e9663d652428640f4094454ecbeab83e9ebd4975773c5866db2da6496590aebf  generate 16 8+4+2+1+1 --seed 0 --mode equal --subspaces random
66c83e7756bfb14caccd32bffd08e0b552e5244d8e674acb53cd6f38f854189b  generate 16 8+4+2+1+1 --seed 11 --mode equal --subspaces random
4d061341ca46e05f024dd5a7c24e02cb6a606ead27cbbd3e38765d1eeb5b9187  generate 16 8+4+2+1+1 --seed 0 --mode independent --subspaces random
f73579dcd4261669d95df5c27ed92cad6a3e9a73e494c0d1041fcccfeaa1ddd6  generate 16 8+4+2+1+1 --seed 11 --mode independent --subspaces random
b001a757ed800c53ea214e81d2ed454615849df46eb465f9d0e1f007755252e4  generate 16 8+4+2+1+1 --seed 0 --mode equal --subspaces identity
d6a1aa2c0b39b97e3630ca4e1f50b2a48b5902f90f615bd9e6917c17d0e00bcd  generate 16 8+4+2+1+1 --seed 11 --mode equal --subspaces identity
1d60a9fb653e37a8fa2c5ca1d6566fd32c57be6f810abd067159c76ddf6a1dab  generate 16 8+4+2+1+1 --seed 0 --mode independent --subspaces identity
f12858093035859af9f3aae0100ac14b648c3fa31d3cc29e5ccaee9623f853f7  generate 16 8+4+2+1+1 --seed 11 --mode independent --subspaces identity
c98dbe3fbc3ed36ef53d0eefcd7351769d8d4345db6923f54a5b9a4b9ba4cfc4  generate 64 32+16+8+4+2+1+1 --seed 0 --mode equal --subspaces random
4226ddae233447e4d944174ff4bc3919b9a31168003676caa20ac98bf04d082e  generate 64 32+16+8+4+2+1+1 --seed 11 --mode equal --subspaces random
91d79ae11802fd18267694675e1ad3e3cd590c906aa1d799272cc238b9dbac9b  generate 64 32+16+8+4+2+1+1 --seed 0 --mode independent --subspaces random
0f0faaa97e8294630296495770b6430800328383685e18d3216cd04c0cc17bca  generate 64 32+16+8+4+2+1+1 --seed 11 --mode independent --subspaces random
e0560cd56ba70353d0bffe04f50eee220c129a170f0fb122dad20b27014b1ab1  generate 64 32+16+8+4+2+1+1 --seed 0 --mode equal --subspaces identity
0e4f25964f8fbd7038246e3ec9c861944e874aaebac015bdb90aa436833b2b81  generate 64 32+16+8+4+2+1+1 --seed 11 --mode equal --subspaces identity
82502a52b2e3e24aad3c3e93ce964e73398ab233fd02c41beb1ecaa1b84ef6b5  generate 64 32+16+8+4+2+1+1 --seed 0 --mode independent --subspaces identity
6589afbccc99776f5bf5f3bc84a9d7780312a0bc8871e9d2bf8b7bc4f8af03d5  generate 64 32+16+8+4+2+1+1 --seed 11 --mode independent --subspaces identity
def617e46c56eaeab1e88a36ecc90681d6be51d9ec4569f57c9755e5cda12145  family counterexample_1_4
326ebeca29f2900eada4faba5e0b170c305363a6cbc16195e593890fc2bad7e6  family d4_B0
5809fa4a26d5d8c8f86f7cc3e03c01b4408d1401279ca9428d5acbc317da2f4d  family d4_B1
0d6446f967cfa62f18d22cae8b3e5f2139f1c92fa10b6644c1835555ddb714a4  family d4_B2
3b774a8d8ef4b4de101264af4f2a2dff393bb88c2e1a25d3551ca2ff75ebb641  family d4_mupb_triple #0
f5465df3c17e88c265ccc800d136e7fc8b4e574c06b809ee95b7ae0db70cace7  family d4_mupb_triple #1
03aa616572e3f58fac84fc1f5e493159b3c6bfc8785ef889849e6a1a60498b9e  family d4_mupb_triple #2
b155c684c985a0ea579afa9f914fd6d708502817ce99e62657041ebb2bb19786  family d6_B0
8948a6026044a4e4b967492d296641e237061159614eb2df052f146c38d77510  family d6_B1
944c9aeb5eb7595f5605f0c18b98f560205bbf59760855e0dea3ee20f9458b17  family d6_B2
5474af4145a6bb6f03140ede775b32ac7c2263e88ba0b43d70a5c9f23b5b63a7  family d6_B3
9ef76ce38be016eb503b505354bd306422e822caae8532e8be05d8b6e6ff0983  family d6_mub_triple #0
6f3fa8ec8841917a2dc3d3dc8d163eedb8b11a3ff8d5a19d84bde7ad73601c54  family d6_mub_triple #1
c8083cb32fe83f261bf7915e1b026961ad58d970f88ac69c8db8d9e1df05a683  family d6_mub_triple #2
0d743619e252510ed62c1ab8c2c026bc3be43b6ec170053d2e1109aa42781741  family general_mupb_triple #0
dbb1527d8a5de07a918d35090e39cc298aa3dd02cafb1361b28534c37256a4e2  family general_mupb_triple #1
68ec6ece2e63a6f8848ab79b25fd630e287c6e7a565134ff76ecbd05c3241938  family general_mupb_triple #2
dcda8624741d14cea925e1e97652fbfa3ec8a48bfc59b8f70b6ea9b84e55f664  family d6_B1 --alpha=0.6 --beta=0.8
cb3272854a3d5b4cade87888e82654a82ab66be23245316d17f2bf45b6438791  family d6_B1 --alpha=0.36+0.48j --beta=-0.8j
"""


def test_written_files_match_golden_digests(tmp_path, capsys):
    want = {label: digest for digest, label in (ln.split("  ", 1) for ln in GOLDEN.splitlines())}
    got = _grid_digests(tmp_path)
    assert got.keys() == want.keys()
    assert [label for label in want if got[label] != want[label]] == []


def _turned(basis, i, j, theta):
    """`basis` with its rows i and j turned into each other by the angle theta."""
    rows, (x, y) = basis.vectors.copy(), basis.vectors[[i, j]]
    c, s = math.cos(theta), math.sin(theta)
    rows[i], rows[j] = c * x + s * y, c * y - s * x
    return ProductBasis(basis.n, rows, meta=basis.meta)


def _cutoff_pair(basis, i, j):
    """The two turns of rows i and j that bracket, to the last bit of the angle, the turn at
    which the shared sigma_2 of row i crosses eps_rank: at or below it, then above it."""
    def crosses(theta):
        return _turned(basis, i, j, theta)._factors.sigma2[i] > DEFAULT_TOL.eps_rank

    lo, hi = 0.0, 1e-6
    while not crosses(hi):
        lo, hi = hi, 2.0 * hi
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (lo, mid) if crosses(mid) else (mid, hi)
    return _turned(basis, i, j, lo), _turned(basis, i, j, hi)


def _verify_text(tmp_path, capsys, basis):
    path = tmp_path / "turned.json"
    save_basis_file(path, basis)
    rc = main(["verify", str(path)])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_verify_and_the_shared_factors_name_the_same_rows_at_the_rank_cutoff(tmp_path, capsys):
    # the one-row kernel behind verify and the batched one behind the shared factors used to
    # round differently, and so to disagree on rows whose sigma_2 sits at eps_rank
    split = []
    for seed in range(60):
        basis = generate_from_type(TypeSpec(n=6, partition=(3, 2, 1), seed=seed))
        for turned in _cutoff_pair(basis, 0, 11):
            marked = [k for k, r in enumerate(prodbase.analyzer.factorize_all(turned)) if not r]
            rc, out, err = _verify_text(tmp_path, capsys, turned)
            if marked != np.flatnonzero(turned._factors.sigma2 > DEFAULT_TOL.eps_rank).tolist():
                split.append((seed, "rows"))
            if err or "\nresult: " not in out:
                split.append((seed, "verify"))
    assert split == []


def test_verify_never_counts_a_row_as_a_product_that_the_checks_reject(tmp_path, capsys):
    # one of these two printed "product vectors: 12/12", then failed with "invalid basis:
    # vector 7 is not a product state" and no result line
    basis = generate_from_type(TypeSpec(n=6, partition=(3, 2, 1), seed=4))
    i, j = np.random.default_rng(4).choice(12, 2, replace=False).tolist()
    below, above = _cutoff_pair(basis, i, j)
    rc, out, err = _verify_text(tmp_path, capsys, below)
    assert (rc, err) == (0, "") and "product vectors: 12/12\n" in out
    rc, out, err = _verify_text(tmp_path, capsys, above)
    assert (rc, err) == (1, "")
    assert f"product vectors: 11/12\n  vector {i}: not a product (sigma2 1.0" in out
    assert out.endswith("result: not a product basis\n")
