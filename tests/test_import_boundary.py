"""Each command loads only the basis-file kernel that it runs: `save_basis_file` imports the
writer's, and `_read_json` the reader's for a file of at least _GRID_MIN bytes alone.  Each
case runs `main` in a fresh interpreter and lists the kernel modules it left loaded."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import prodbase.cli
from prodbase.basisfile import _GRID_MIN
from prodbase.cli import save_basis_file
from prodbase.generator import TypeSpec, generate_from_type
from prodbase.partitions import Partition

KERNELS = ("prodbase._grid_reader", "prodbase._grid_writer")
PROBE = f"""
import sys
from prodbase.cli import main
code = main(sys.argv[1:])
print(code, *(name for name in {KERNELS!r} if name in sys.modules))
"""


def _loaded_kernels(*argv, cwd):
    """The exit code of `main(argv)` in a fresh interpreter and the kernels it imported."""
    env = dict(os.environ, PYTHONPATH=str(Path(prodbase.cli.__file__).parents[1]))
    argv = [sys.executable, "-c", PROBE, *map(str, argv)]
    out = subprocess.run(argv, env=env, cwd=cwd, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    code, *kernels = out.stdout.splitlines()[-1].split()
    return int(code), kernels


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A basis file under _GRID_MIN bytes (n = 4) and one over it (n = 64)."""
    work = tmp_path_factory.mktemp("files")
    paths = {}
    for n in (4, 64):
        paths[n] = work / f"b{n}.json"
        save_basis_file(paths[n], generate_from_type(TypeSpec(n, Partition((n,)), 1)))
    assert paths[4].stat().st_size < _GRID_MIN <= paths[64].stat().st_size
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


def test_verify_of_a_short_file_loads_neither_kernel(files, tmp_path):
    assert _loaded_kernels("verify", files[4], cwd=tmp_path) == (0, [])


@pytest.mark.parametrize("command", ["verify", "classify"])
def test_reading_an_n64_file_loads_the_reader_alone(files, tmp_path, command):
    assert _loaded_kernels(command, files[64], cwd=tmp_path) == (0, ["prodbase._grid_reader"])
