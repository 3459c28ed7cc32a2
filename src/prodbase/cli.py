"""Command-line front end: verify, classify, generate, family, mub-check, partitions.

Bases travel as files in the format of `prodbase.basisfile`, whose reader, writer and
error this module re-exports.
Exit codes are stable: 0 success or valid, 1 structurally invalid input basis, 2 usage
or parse error, 141 stdout closed by its reader.  Commands return 0 or 1 and raise every
fault, which `main` alone reports: BasisFileError and argparse.ArgumentTypeError as 2 and
"error: ...", a ValueError as 1 and "invalid basis: ..." from verify, classify and
mub-check and as 2 and "error: ..." otherwise.

`main(argv)` may be called repeatedly in one process: the argument parser is
built once, and every call parses its own argv and reads the environment anew.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import sys
from pathlib import Path

import numpy as np

from .analyzer import classify, left_classify, mu_check, verify_report
from .analyzer import verify_orthonormal  # noqa: F401  perfbench's self-tests patch it here
from .basisfile import BasisFileError, load_basis_file, read_g_bases, save_basis_file
from .generator import FAMILY_TAGS, FamilyParams, TypeSpec, generate_from_type, named_family
from .numerics import DEFAULT_TOL, Tolerances, check_tolerance
from .partitions import MAX_N, Partition, iter_partitions, partition_count, type_count_lower_bound

__all__ = ["main", "load_basis_file", "save_basis_file", "BasisFileError"]

ENV_TOL_ORTH = "PRODBASE_TOL_ORTH"
_PART_TEXT = tuple(map(str, range(MAX_N + 1)))  # the text of each part of a partition


def _tolerance(text: str) -> float:
    """argparse type of a tolerance: a float inside the range Tolerances accepts."""
    try:
        return check_tolerance("tolerance", float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _tolerances(args) -> Tolerances:
    eps_orth = args.tol_orth
    if eps_orth is None:
        env = os.environ.get(ENV_TOL_ORTH)
        try:
            eps_orth = _tolerance(env) if env else DEFAULT_TOL.eps_orth
        except argparse.ArgumentTypeError as exc:
            raise argparse.ArgumentTypeError(f"{ENV_TOL_ORTH}: {exc}") from None
    return Tolerances(eps_orth=eps_orth, eps_rank=args.tol_rank)


def cmd_verify(args) -> int:
    tol = _tolerances(args)
    basis = load_basis_file(args.path, tol)
    report = verify_report(basis, tol)
    rows, residual = report.factorizations, report.gram_residual
    print(f"file: {args.path}")
    print(f"dims: 2 x {basis.n} (d = {2 * basis.n})")
    print(f"orthonormal: {'yes' if report.orthonormal else 'no'} (Gram residual {residual:.6e})")
    print(f"product vectors: {sum(map(bool, rows))}/{len(rows)}")
    for k, r in enumerate(rows):
        if not r:
            print(f"  vector {k}: not a product (sigma2 {r.sigma2:.6e})")
    if report.pairwise is not None:
        print(f"pairwise factor orthogonality: {'yes' if report.pairwise else 'no'}")
        print(f"groupable into subsystem bases: {'yes' if report.groupable else 'no'}")
    print(f"result: {report.result}")
    return 0 if report.valid else 1


def cmd_classify(args) -> int:
    tol = _tolerances(args)
    basis = load_basis_file(args.path, tol)
    report = classify(basis, tol)
    print(f"file: {args.path}")
    print(f"valid: {'yes' if report.valid else 'no'} (Gram residual {report.gram_residual:.6e})")
    for line in report.diagnostics:
        print(f"  {line}")
    if not report.valid:
        return 1
    suffix = " (direct product)" if report.is_direct_product else ""
    print(f"right type: {report.right_type}{suffix}")
    left = left_classify(basis, tol)
    print(f"left type: {left if left is not None else 'undefined'}")
    print(f"blocks: r = {report.r}")
    z = "%.6g%+.6gj"
    line = f"  #%d multiplicity %d, qubit pair ({z}, {z}) / ({z}, {z}), subspace dim %d%s"
    pairs = np.array([(blk.a, blk.a_perp) for blk in report.blocks]).view(np.float64)
    for idx, (blk, pair) in enumerate(zip(report.blocks, pairs.reshape(-1, 8).tolist()), start=1):
        coincide = ", groups coincide" if blk.groups_coincide else ""
        print(line % (idx, blk.multiplicity, *pair, blk.subspace.dim, coincide))
    table = "\n".join(["  (" + ", ".join([z] * basis.n) + ")"] * basis.n)
    for name, family in (("B1(n)", report.basis_B1n), ("B2(n)", report.basis_B2n)):
        print(f"{name}:\n" + table % tuple(family.view(np.float64).ravel().tolist()))
    return 0


def cmd_generate(args) -> int:
    partition = Partition.from_string(args.partition)
    subspace_mode = "identity-blocks" if args.subspaces == "identity" else "haar-random"
    pair_mode = "equal-groups" if args.mode == "equal" else "independent-groups"
    spec = TypeSpec(args.n, partition, args.seed, subspace_mode=subspace_mode, pair_mode=pair_mode)
    save_basis_file(args.out, generate_from_type(spec))
    print(f"wrote {args.out} (n={args.n}, right type {partition}, seed {args.seed})")
    return 0


def _family_out_paths(out: str, count: int) -> list[Path]:
    base = Path(out)
    if not base.name:  # "", "." or "/": a directory or nothing, no file to write or number
        raise BasisFileError(f"cannot write {out!r}: the path names no file")
    stem, suffix = base.stem, base.suffix or ".json"
    paths = [base] if count == 1 else [base.with_name(f"{stem}_{i}{suffix}") for i in range(count)]
    for path in paths:  # each one before any file is written, so that a bad one writes none
        if path.is_dir() or not path.parent.is_dir():
            why = "is a directory" if path.is_dir() else f"no directory {str(path.parent)!r}"
            raise BasisFileError(f"cannot write {path}: {why}")
    return paths


def cmd_family(args) -> int:
    params_kwargs = {}
    if args.alpha is not None or args.beta is not None:
        if args.alpha is None or args.beta is None:
            raise argparse.ArgumentTypeError("--alpha and --beta must be given together")
        try:
            params_kwargs["unitary_params"] = (complex(args.alpha), complex(args.beta))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"--alpha/--beta: {exc}") from None
    if args.g_file is not None:
        params_kwargs["g_bases"] = read_g_bases(args.g_file)
    result = named_family(FamilyParams(family=args.tag, **params_kwargs))
    bases = result if isinstance(result, list) else [result]
    out = f"{args.tag}.json" if args.out is None else args.out
    for path, basis in zip(_family_out_paths(out, len(bases)), bases):
        save_basis_file(path, basis)
        print(f"wrote {path} (family {args.tag}, n={basis.n})")
    return 0


def cmd_mub_check(args) -> int:
    tol = _tolerances(args)
    bases = [load_basis_file(path, tol) for path in args.paths]
    if len(bases) < 2:  # after the files are read, so that a bad file is named first
        raise argparse.ArgumentTypeError("mub-check needs at least two basis files")
    dims = sorted({2 * basis.n for basis in bases})
    if len(dims) > 1:
        got = " and ".join(f"d = {d}" for d in dims)
        raise argparse.ArgumentTypeError(f"mub-check needs bases of one dimension, got {got}")
    names = [Path(p).stem for p in args.paths]
    all_ok = True
    print("pairwise max | |<a|b>|^2 - 1/d |:")
    for i, j in itertools.combinations(range(len(bases)), 2):
        ok, dev = mu_check(bases[i].vectors, bases[j].vectors, tol)
        all_ok = all_ok and ok
        verdict = "unbiased" if ok else "NOT unbiased"
        print(f"  {names[i]} vs {names[j]}: {dev:.6e} ({verdict})")
    print(f"all pairs mutually unbiased: {'yes' if all_ok else 'no'}")
    return 0 if all_ok else 1


def cmd_partitions(args) -> int:
    n = args.n
    partitions = iter_partitions(n)  # checks n before a line is printed
    lines = ("+".join([_PART_TEXT[part] for part in parts]) for parts in partitions)
    while chunk := list(itertools.islice(lines, 4096)):  # few writes, in bounded memory
        print("\n".join(chunk))
    print(f"p({n})={partition_count(n)}, type lower bound {type_count_lower_bound(n)}")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prodbase",
        description="Construct, verify and classify orthonormal product bases of C^2 (x) C^n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tol_flags(p):
        p.add_argument("--tol-orth", type=_tolerance, default=None, help="orthogonality tolerance")
        p.add_argument(
            "--tol-rank", type=_tolerance, default=DEFAULT_TOL.eps_rank, help="rank cutoff tolerance"
        )

    p_verify = sub.add_parser("verify", help="verify a basis file")
    p_verify.add_argument("path")
    add_tol_flags(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_classify = sub.add_parser("classify", help="classify the structure of a basis file")
    p_classify.add_argument("path")
    add_tol_flags(p_classify)
    p_classify.set_defaults(func=cmd_classify)

    p_generate = sub.add_parser("generate", help="generate a basis of a given partition type")
    p_generate.add_argument("n", type=int)
    p_generate.add_argument("partition", help="'+'-separated parts, e.g. 3+2+1")
    p_generate.add_argument("--seed", type=int, default=0)
    p_generate.add_argument("--mode", choices=("equal", "independent"), default="independent")
    p_generate.add_argument("--subspaces", choices=("identity", "random"), default="random")
    p_generate.add_argument("--out", default="basis.json")
    p_generate.set_defaults(func=cmd_generate)

    p_family = sub.add_parser("family", help="emit a named basis family")
    p_family.add_argument("tag", help=f"one of: {', '.join(FAMILY_TAGS)}")
    p_family.add_argument("--alpha", default=None, help="complex parameter, e.g. 0.6 or 0.6+0.8j")
    p_family.add_argument("--beta", default=None)
    p_family.add_argument("--g-file", default=None, help="JSON with keys z0,z1,x0,x1,y0,y1")
    p_family.add_argument("--out", default=None)
    p_family.set_defaults(func=cmd_family)

    p_mub = sub.add_parser("mub-check", help="pairwise unbiasedness of basis files")
    p_mub.add_argument("paths", nargs="+")
    add_tol_flags(p_mub)
    p_mub.set_defaults(func=cmd_mub_check)

    p_parts = sub.add_parser("partitions", help="list all partitions of n")
    p_parts.add_argument("n", type=int)
    p_parts.set_defaults(func=cmd_partitions)

    return parser


def main(argv=None) -> int:
    """Run one command and return its own exit code, 0 or 1, or report what it raised:
    BasisFileError, argparse.ArgumentTypeError and ValueError exit 2 with "error: ...", but a
    ValueError from verify, classify or mub-check exits 1 with "invalid basis: ...".  A
    reader that closes stdout early ends the command silently with 141, as SIGPIPE would."""
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        print(end="", flush=True)  # a closed pipe fails here, not at exit; no stdout, no-op
        return code
    except BrokenPipeError:
        # Python flushes stdout again at exit, which must not fail too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 128 + 13  # SIGPIPE
    except (BasisFileError, argparse.ArgumentTypeError, ValueError) as exc:
        if isinstance(exc, ValueError) and args.func in (cmd_verify, cmd_classify, cmd_mub_check):
            print(f"invalid basis: {exc}", file=sys.stderr)
            return 1
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
