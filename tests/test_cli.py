import json
import math
import re

import numpy as np
import pytest

from prodbase.analyzer import ProductBasis
from prodbase.cli import BasisFileError, _build_parser, load_basis_file, main, save_basis_file
from prodbase.generator import FamilyParams, TypeSpec, generate_from_type, named_family
from prodbase.partitions import Partition

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


def test_family_unknown_tag(capsys):
    assert main(["family", "bogus"]) == 2


def test_family_d6_B1_params(tmp_path, capsys):
    out = tmp_path / "b1.json"
    rc = main(["family", "d6_B1", "--alpha", "0.6", "--beta", "0.8", "--out", str(out)])
    assert rc == 0
    rc = main(["family", "d6_B1", "--alpha", "1.0", "--beta", "1.0", "--out", str(out)])
    assert rc == 2


def test_partitions_output(capsys):
    rc = main(["partitions", "6"])
    text = capsys.readouterr().out
    assert rc == 0
    lines = [ln for ln in text.splitlines() if ln]
    assert len(lines) == 12
    assert lines[0] == "6"
    assert "p(6)=11, type lower bound 12" in text


def test_partitions_out_of_range(capsys):
    assert main(["partitions", "0"]) == 2


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


def test_load_rejects_malformed_meta(tmp_path):
    path = tmp_path / "meta.json"
    path.write_text(json.dumps({"dims": [2, 1], "vectors": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], "meta": 3}))
    with pytest.raises(BasisFileError):
        load_basis_file(path)


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
