"""Parity of two prodbase source trees on the benchmark's inputs.

    python tools/parity.py BASE NEW

BASE and NEW are source checkouts, each with `src/prodbase`.  The inputs are
the analyze_mixed and generate_sweep passes of seeds 1-3, built by BASE's
`perfbench/workloads.py`, so that both trees read the same files.  Each tree
runs in a fresh interpreter, in a work directory of its own, every operation
of those passes, `classify` of every analyze_mixed input file that no operation
classifies, and `verify` and `classify` of every analyze_mixed input file at
`--tol-orth` 1e-12 and 5e-4, so that verdicts on both sides of a threshold are
compared, through its `prodbase.cli.main` in process, as the benchmark calls
it.  Per call the two trees must agree on the exit code, stdout, stderr (with
the work directory masked) and the sha256 of every file the call wrote.  For each
analyze_mixed input file they must also agree on the sha256 of the bytes of numbers
the CLI never prints, computed through public library names: both singular values
of the file's rows from each 2xn kernel, the Gram residual of its rows (which the CLI
prints to 7 digits) and `canonical_phase` of each row alone, `factor_arrays` of the
loaded basis, every field of its `factorize_all`, and the subspace bases of its
`classify` blocks and each block's `a_indices`, `a_perp_indices`, `multiplicity` and
`groups_coincide`, so that the ray classes and partners are compared where no printed
line shows them.
Prints the call and digest counts, the first differences, each shown as the text
around its first differing character, and, when stdout differs, in how many lines
and up to what magnitude the numbers that differ on them go, so that a
roundoff-only change reads as one; then each tree's `src/` line count, in total
and per module.  Exits 1 on any difference, 2 on a usage error.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 2, 3)
TOL_ORTH = ("1e-12", "5e-4")  # a tight and a loose orthogonality tolerance
WORKLOADS = ("analyze_mixed", "generate_sweep")
MASK = "<work>"
SHOWN = 10
CONTEXT = 32  # characters shown on either side of a line's first difference
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _stamps(work: Path) -> dict[Path, int]:
    return {p: p.stat().st_mtime_ns for p in work.rglob("*") if p.is_file()}


def _masked(text: str, work: Path) -> str:
    return text.replace(str(work), MASK)


def _call(cli, argv: list[str], work: Path) -> dict:
    """One in-process call: its exit code, masked output and the digests of what it wrote."""
    before = _stamps(work)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # the program raised
        rc = f"raised {type(exc).__name__}: {exc}"
    written = {
        str(p.relative_to(work)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p, stamp in _stamps(work).items()
        if before.get(p) != stamp
    }
    return {
        "call": _masked(" ".join(argv), work),
        "rc": rc,
        "stdout": _masked(out.getvalue(), work),
        "stderr": _masked(err.getvalue(), work),
        "written": written,
    }


def _digest(compute, work: Path) -> str:
    """The sha256 of the dtype, shape and bytes of each array that `compute()` gives, or
    what it raised, with the work directory masked."""
    import numpy as np

    try:
        arrays = [np.asarray(x) for x in compute()]
    except Exception as exc:  # the library raised
        return _masked(f"raised {type(exc).__name__}: {exc}", work)
    sha = hashlib.sha256()
    for a in arrays:
        sha.update(f"{a.dtype} {a.shape};".encode())
        sha.update(np.ascontiguousarray(a).tobytes())
    return sha.hexdigest()


def numbers(path: Path, work: Path) -> dict[str, str]:
    """Digests of the library's numbers for one basis file, by name."""
    from bases import read_basis

    from prodbase.analyzer import classify, factorize_all
    from prodbase.basisfile import load_basis_file
    from prodbase.numerics import (
        canonical_phase,
        gram_residual,
        singular_values_2xn,
        singular_values_2xn_stack,
    )
    from prodbase.product_space import factor_arrays

    rows = read_basis(path)  # as written, so rows that the library rejects count too
    M = rows.reshape(len(rows), 2, -1)
    basis = functools.cache(lambda: load_basis_file(path))
    blocks = functools.cache(lambda: classify(basis()).blocks)
    computed = {
        "stack singular values": lambda: singular_values_2xn_stack(M),
        "one-row singular values": lambda: zip(*map(singular_values_2xn, M)),
        "gram_residual": lambda: [gram_residual(rows)],
        "one-row canonical_phase": lambda: map(canonical_phase, rows),
        "factor_arrays": lambda: factor_arrays(basis().vectors),
        "factorize_all": lambda: [field for f in factorize_all(basis()) for field in f],
        "classify subspaces": lambda: [b.subspace.basis for b in blocks()],
        "classify blocks": lambda: [
            field
            for b in blocks()
            for field in (b.a_indices, b.a_perp_indices, b.multiplicity, b.groups_coincide)
        ],
    }
    return {name: _digest(compute, work) for name, compute in computed.items()}


def worker(tree: str, perfbench: str, work: str) -> None:
    """Run every call against `tree`'s prodbase and print the records, and the digests of
    each analyze_mixed input's numbers, as JSON."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(Path(tree) / "src"), perfbench]
    import numpy as np

    import prodbase.cli as cli
    from workloads import WORKLOADS as BUILDERS

    if not Path(cli.__file__).resolve().is_relative_to((Path(tree) / "src").resolve()):
        raise SystemExit(f"prodbase was imported from {cli.__file__}, not from {tree}/src")
    root, records, digests = Path(work), [], {}
    for name in WORKLOADS:
        for seed in SEEDS:
            here = root / f"{name}-{seed}"
            here.mkdir(parents=True)
            ops = BUILDERS[name].build(here, np.random.default_rng(seed))
            argvs = [op.argv for op in ops]
            if name == "analyze_mixed":
                paths = [str(path) for path in sorted(here.glob("*.json"))]
                argvs += [argv for argv in (["classify", p] for p in paths) if argv not in argvs]
                for tol, kind in itertools.product(TOL_ORTH, ("verify", "classify")):
                    argvs += [[kind, p, "--tol-orth", tol] for p in paths]
                digests |= {_masked(p, root): numbers(Path(p), root) for p in paths}
            records += [_call(cli, argv, root) for argv in argvs]
    json.dump({"calls": records, "numbers": digests}, sys.stdout)


def run_tree(tree: Path, perfbench: Path, work: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # as the benchmark runs
    code = "import sys, parity; parity.worker(*sys.argv[1:])"
    argv = [sys.executable, "-c", code, str(tree), str(perfbench), str(work)]
    child = subprocess.run(argv, env=env, capture_output=True, text=True, check=False)
    if child.returncode != 0:
        raise RuntimeError(f"{tree}: the worker exited {child.returncode}:\n{child.stderr}")
    return json.loads(child.stdout)


def _first_change(a: str, b: str) -> str:
    for k, (x, y) in enumerate(zip(a.splitlines(), b.splitlines()), start=1):
        if x != y:
            i = len(os.path.commonprefix([x, y]))
            lo, hi = max(i - CONTEXT, 0), i + CONTEXT
            return f"line {k}, column {i + 1}: {x[lo:hi]!r} vs {y[lo:hi]!r}"
    return f"{len(a.splitlines())} vs {len(b.splitlines())} lines"


def _size(a: str, b: str) -> tuple[int, float]:
    """The number of lines in which two texts differ, and the largest magnitude among the
    numbers that differ on them: inf when the line counts or any other text differ."""
    old, new = a.splitlines(), b.splitlines()
    changed = [(x, y) for x, y in zip(old, new) if x != y]
    largest = 0.0 if len(old) == len(new) else math.inf
    for x, y in changed:
        if NUMBER.sub("#", x) != NUMBER.sub("#", y):
            largest = math.inf
        for p, q in zip(NUMBER.findall(x), NUMBER.findall(y)):
            if p != q:
                largest = max(largest, abs(float(p)), abs(float(q)))
    return len(changed) + abs(len(old) - len(new)), largest


def _says(lines: int, largest: float) -> str:
    if largest == math.inf:
        return f"{lines} lines differ, not only in numbers"
    return f"{lines} lines differ, in numbers up to {largest:.3g} in magnitude"


def differences(base: list[dict], new: list[dict]) -> list[str]:
    if [r["call"] for r in base] != [r["call"] for r in new]:
        return ["the two trees ran different calls"]
    found = []
    for old, cur in zip(base, new):
        for field in ("rc", "stdout", "stderr", "written"):
            if old[field] != cur[field]:
                detail = (
                    f"{_says(*_size(old[field], cur[field]))}, first "
                    f"{_first_change(old[field], cur[field])}"
                    if field in ("stdout", "stderr")
                    else f"{old[field]!r} vs {cur[field]!r}"
                )
                found.append(f"{old['call']}: {field} differs, {detail}")
    return found


def number_differences(base: dict, new: dict) -> list[str]:
    """The input files whose library numbers differ, each with the names of those numbers."""
    if base.keys() != new.keys():
        return ["the two trees read different files"]
    found = []
    for path, digests in base.items():
        if differ := [name for name, digest in digests.items() if new[path].get(name) != digest]:
            found.append(f"{path}: {', '.join(differ)} differ")
    return found


def stdout_size(base: list[dict], new: list[dict]) -> str | None:
    """How far the stdout of the calls differs across a whole run, or None where it is equal."""
    if [r["call"] for r in base] != [r["call"] for r in new]:
        return None
    sizes = [_size(old["stdout"], cur["stdout"]) for old, cur in zip(base, new)]
    sizes = [size for size in sizes if size[0]]
    if not sizes:
        return None
    lines, largest = sum(lines for lines, _ in sizes), max(largest for _, largest in sizes)
    return f"stdout of {len(sizes)} calls: {_says(lines, largest)}"


def line_counts(tree: Path) -> str:
    """The line count of `tree`'s `src/`, in total and per module."""
    src = tree / "src"
    counts = {p.relative_to(src).as_posix(): p.read_bytes().count(b"\n") for p in src.rglob("*.py")}
    modules = ", ".join(f"{name} {count}" for name, count in sorted(counts.items()))
    return f"{sum(counts.values())} lines in src/ ({modules})"


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python tools/parity.py BASE NEW", file=sys.stderr)
        return 2
    base, new = (Path(arg).resolve() for arg in args)
    with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
        runs = [
            run_tree(tree, base / "perfbench", Path(tmp) / side)
            for side, tree in (("base", base), ("new", new))
        ]
    calls = [run["calls"] for run in runs]
    found = differences(*calls) + number_differences(*(run["numbers"] for run in runs))
    written = sum(len(r["written"]) for r in calls[0])
    digests = sum(map(len, runs[0]["numbers"].values()))
    print(
        f"parity: {len(calls[0])} calls per tree, {written} files written, "
        f"{digests} digests of library numbers, {len(found)} differences"
    )
    for line in found[:SHOWN]:
        print(f"  {line}")
    if size := stdout_size(*calls):
        print(size)
    for side, tree in (("base", base), ("new", new)):
        print(f"{side}: {line_counts(tree)}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
