"""Each command compiles only the private modules that it runs, each imported on first use:
`save_basis_file` imports the writer's kernel, `_grid_writer`, and `_read_json` the reader's,
`_grid_reader`, for a file of at least _GRID_MIN bytes alone; `classify`,
`check_pairwise_condition` and `check_groupable` import the stage table, `_structure`; and
`named_family` imports the catalog's builders, `_families`.  Each case runs `main` in a fresh
interpreter and lists which of those four modules it left loaded.

perfbench's set-up drops every prodbase module from `sys.modules` and imports the package
again while its runner keeps the first `prodbase.cli`.  A private module imported on first
use then comes from the new package; the last test checks that the kept `main` still gives
the same exit codes, output and file bytes that way."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import prodbase.cli
from prodbase.basisfile import _GRID_MIN
from prodbase.cli import save_basis_file
from prodbase.generator import FamilyParams, TypeSpec, generate_from_type, named_family
from prodbase.partitions import Partition

PRIVATE = (
    "prodbase._families",
    "prodbase._grid_reader",
    "prodbase._grid_writer",
    "prodbase._structure",
)
PROBE = f"""
import sys
from prodbase.cli import main
code = main(sys.argv[1:])
print(code, *(name for name in {PRIVATE!r} if name in sys.modules))
"""


def _run(code: str, *argv, cwd) -> str:
    """The stdout of `code`, run with `argv` in a fresh interpreter that imports this prodbase."""
    env = dict(os.environ, PYTHONPATH=str(Path(prodbase.cli.__file__).parents[1]))
    argv = [sys.executable, "-c", code, *map(str, argv)]
    out = subprocess.run(argv, env=env, cwd=cwd, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


def _loaded_kernels(*argv, cwd):
    """The exit code of `main(argv)` in a fresh interpreter and the private modules that it
    left loaded, of the four imported on first use."""
    code, *modules = _run(PROBE, *argv, cwd=cwd).splitlines()[-1].split()
    return int(code), modules


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A basis file under _GRID_MIN bytes (n = 4), one over it (n = 64), and the three files
    of the unbiased triple d4_mupb_triple (n = 2)."""
    work = tmp_path_factory.mktemp("files")
    paths = {}
    for n in (4, 64):
        paths[n] = work / f"b{n}.json"
        save_basis_file(paths[n], generate_from_type(TypeSpec(n, Partition((n,)), 1)))
    assert paths[4].stat().st_size < _GRID_MIN <= paths[64].stat().st_size
    paths["triple"] = [work / f"t{k}.json" for k in range(3)]
    for path, basis in zip(paths["triple"], named_family(FamilyParams("d4_mupb_triple"))):
        save_basis_file(path, basis)
    return paths


def test_generate_loads_the_writer_alone(tmp_path):
    out = tmp_path / "g.json"
    assert _loaded_kernels("generate", 16, "10+4+2", "--seed", 5, "--out", out, cwd=tmp_path) == (
        0,
        ["prodbase._grid_writer"],
    )
    assert out.stat().st_size >= _GRID_MIN


def test_partitions_loads_neither_kernel(tmp_path):
    assert _loaded_kernels("partitions", 6, cwd=tmp_path) == (0, [])


def test_mub_check_loads_no_private_module(files, tmp_path):
    assert _loaded_kernels("mub-check", *files["triple"], cwd=tmp_path) == (0, [])


def test_verify_of_a_short_file_loads_neither_kernel(files, tmp_path):
    assert _loaded_kernels("verify", files[4], cwd=tmp_path) == (0, ["prodbase._structure"])


def test_classify_of_a_short_file_loads_the_stage_table_alone(files, tmp_path):
    assert _loaded_kernels("classify", files[4], cwd=tmp_path) == (0, ["prodbase._structure"])


@pytest.mark.parametrize("command", ["verify", "classify"])
def test_reading_an_n64_file_loads_the_reader_alone(files, tmp_path, command):
    assert _loaded_kernels(command, files[64], cwd=tmp_path) == (
        0,
        ["prodbase._grid_reader", "prodbase._structure"],
    )


def test_family_loads_the_catalog_and_the_writer(tmp_path):
    out = tmp_path / "m.json"
    assert _loaded_kernels("family", "d6_mub_triple", "--out", out, cwd=tmp_path) == (
        0,
        ["prodbase._families", "prodbase._grid_writer"],
    )


REIMPORT = """
import contextlib, importlib, io, json, sys
from pathlib import Path

kept = importlib.import_module("prodbase.cli")
calls = json.loads(sys.argv[1])


def run():
    seen = []
    for argv, outputs in calls:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = kept.main(argv)
        seen.append([code, out.getvalue(), [Path(p).read_bytes().hex() for p in outputs]])
    return seen


before, first = run(), {name: sys.modules.get(name) for name in %r}
for name in [k for k in sys.modules if k == "prodbase" or k.startswith("prodbase.")]:
    del sys.modules[name]
importlib.import_module("prodbase.cli")
after = run()
anew = [name for name, module in first.items() if sys.modules.get(name) not in (None, module)]
print(json.dumps([before == after, anew]))
""" % (PRIVATE,)


def test_kept_main_gives_the_same_results_after_the_package_is_imported_again(files, tmp_path):
    family = [tmp_path / f"m_{k}.json" for k in range(3)]
    calls = [
        (["classify", str(files[4])], []),
        (["classify", str(files[64])], []),
        (["verify", str(files[64])], []),
        (["generate", "16", "10+4+2", "--out", str(tmp_path / "g.json")], [tmp_path / "g.json"]),
        (["family", "d6_mub_triple", "--out", str(tmp_path / "m.json")], family),
    ]
    calls = json.dumps([(argv, list(map(str, outputs))) for argv, outputs in calls])
    same, anew = json.loads(_run(REIMPORT, calls, cwd=tmp_path).splitlines()[-1])
    assert same
    assert anew == list(PRIVATE)  # each imported again, into the new package
