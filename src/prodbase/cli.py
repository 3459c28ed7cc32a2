"""Command-line front end: verify, classify, generate, family, mub-check, partitions.

Bases travel as JSON files: ``{"dims": [2, n], "vectors": [[[re, im], ...],
...], "meta": {...}}`` with every number printed to 17 significant digits so
doubles survive a save/load round trip.  Exit codes are stable: 0 success or
valid, 1 structurally invalid input basis, 2 usage or parse error.

`main(argv)` may be called repeatedly in one process: the argument parser is
built once, and every call parses its own argv and reads the environment anew.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from .analyzer import (
    ProductBasis,
    check_groupable,
    check_pairwise_condition,
    classify,
    factorize_all,
    left_classify,
    mu_check,
    verify_orthonormal,
)
from .generator import FAMILY_TAGS, FamilyParams, TypeSpec, generate_from_type, named_family
from .numerics import DEFAULT_TOL, Tolerances, as_vector, check_tolerance
from .partitions import Partition, partition_count, partitions_of, type_count_lower_bound

__all__ = ["main", "load_basis_file", "save_basis_file", "BasisFileError"]

ENV_TOL_ORTH = "PRODBASE_TOL_ORTH"


class BasisFileError(Exception):
    """Raised when a basis file cannot be parsed or violates the schema."""


def save_basis_file(path, basis: ProductBasis) -> None:
    """Write a basis as deterministic JSON (17 significant digits per number)."""
    lines = ["{", f'  "dims": [2, {basis.n}],', '  "vectors": [']
    row_fmt = "    [" + ", ".join(["[%.17g, %.17g]"] * (2 * basis.n)) + "]"
    rows = basis.vectors.view(np.float64).tolist()
    lines.append(",\n".join(row_fmt % tuple(row) for row in rows))
    lines.append("  ],")
    lines.append(f'  "meta": {json.dumps(basis.meta, sort_keys=True)}')
    lines.append("}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def load_basis_file(path, tol: Tolerances = DEFAULT_TOL) -> ProductBasis:
    """Read and validate a basis file; schema violations raise BasisFileError."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise BasisFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise BasisFileError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise BasisFileError(f"{path}: top level must be an object")
    dims = data.get("dims")
    if (
        not isinstance(dims, list)
        or len(dims) != 2
        or dims[0] != 2
        or not isinstance(dims[1], int)
        or isinstance(dims[1], bool)
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


def _fmt_vec(v) -> str:
    v = np.ascontiguousarray(as_vector(v))
    return ("(" + ", ".join(["%.6g%+.6gj"] * v.size) + ")") % tuple(v.view(np.float64).tolist())


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
    ok_orth, residual = verify_orthonormal(basis, tol)
    results = factorize_all(basis, tol)
    n_products = sum(1 for r in results if r)
    print(f"file: {args.path}")
    print(f"dims: 2 x {basis.n} (d = {2 * basis.n})")
    print(f"orthonormal: {'yes' if ok_orth else 'no'} (Gram residual {residual:.6e})")
    print(f"product vectors: {n_products}/{len(results)}")
    for k, r in enumerate(results):
        if not r:
            print(f"  vector {k}: not a product (sigma2 {r.sigma2:.6e})")
    groupable = None
    if all(results):
        pairwise = check_pairwise_condition(basis, tol)
        groupable = check_groupable(basis, tol)
        print(f"pairwise factor orthogonality: {'yes' if pairwise else 'no'}")
        print(f"groupable into subsystem bases: {'yes' if groupable else 'no'}")
    if ok_orth and all(results):
        print("result: valid orthonormal product basis")
        return 0
    if groupable and not ok_orth:
        print("result: groupable but not orthonormal")
    elif not all(results):
        print("result: not a product basis")
    else:
        print("result: not an orthonormal basis")
    return 1


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
    if basis.n == 2:
        print(f"left type: {left if left is not None else 'undefined'}")
    else:
        print("left type: undefined")
    print(f"blocks: r = {report.r}")
    for idx, blk in enumerate(report.blocks, start=1):
        print(
            f"  #{idx} multiplicity {blk.multiplicity}, qubit pair "
            f"{_fmt_vec(blk.a)} / {_fmt_vec(blk.a_perp)}, subspace dim {blk.subspace.dim}"
            f"{', groups coincide' if blk.groups_coincide else ''}"
        )
    print("B1(n):")
    for v in report.basis_B1n:
        print(f"  {_fmt_vec(v)}")
    print("B2(n):")
    for v in report.basis_B2n:
        print(f"  {_fmt_vec(v)}")
    return 0


def cmd_generate(args) -> int:
    try:
        partition = Partition.from_string(args.partition)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        spec = TypeSpec(
            n=args.n,
            partition=partition,
            seed=args.seed,
            subspace_mode="identity-blocks" if args.subspaces == "identity" else "haar-random",
            pair_mode="equal-groups" if args.mode == "equal" else "independent-groups",
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    basis = generate_from_type(spec)
    save_basis_file(args.out, basis)
    print(f"wrote {args.out} (n={args.n}, right type {partition}, seed {args.seed})")
    return 0


def _family_out_paths(out: str, count: int) -> list[Path]:
    base = Path(out)
    if count == 1:
        return [base]
    stem, suffix = base.stem, base.suffix or ".json"
    return [base.with_name(f"{stem}_{i}{suffix}") for i in range(count)]


def cmd_family(args) -> int:
    params_kwargs = {}
    if args.alpha is not None or args.beta is not None:
        if args.alpha is None or args.beta is None:
            print("error: --alpha and --beta must be given together", file=sys.stderr)
            return 2
        params_kwargs["unitary_params"] = (complex(args.alpha), complex(args.beta))
    if args.g_file is not None:
        try:
            raw = json.loads(Path(args.g_file).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read g-bases file: {exc}", file=sys.stderr)
            return 2
        if not isinstance(raw, dict):
            print("error: g-bases file must hold a JSON object", file=sys.stderr)
            return 2
        try:
            params_kwargs["g_bases"] = {
                key: [np.array([complex(re, im) for re, im in vec]) for vec in fam]
                for key, fam in raw.items()
            }
        except (TypeError, ValueError, OverflowError) as exc:
            print(f"error: g-bases file has a malformed entry: {exc}", file=sys.stderr)
            return 2
    try:
        result = named_family(FamilyParams(family=args.tag, **params_kwargs))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    bases = result if isinstance(result, list) else [result]
    out = args.out or f"{args.tag}.json"
    for path, basis in zip(_family_out_paths(out, len(bases)), bases):
        save_basis_file(path, basis)
        print(f"wrote {path} (family {args.tag}, n={basis.n})")
    return 0


def cmd_mub_check(args) -> int:
    tol = _tolerances(args)
    bases = [load_basis_file(path, tol) for path in args.paths]
    dims = sorted({2 * basis.n for basis in bases})
    if len(dims) > 1:
        got = " and ".join(f"d = {d}" for d in dims)
        print(f"error: mub-check needs bases of one dimension, got {got}", file=sys.stderr)
        return 2
    names = [Path(p).stem for p in args.paths]
    all_ok = True
    print("pairwise max | |<a|b>|^2 - 1/d |:")
    for i in range(len(bases)):
        for j in range(i + 1, len(bases)):
            ok, dev = mu_check(bases[i].vectors, bases[j].vectors, tol)
            all_ok = all_ok and ok
            verdict = "unbiased" if ok else "NOT unbiased"
            print(f"  {names[i]} vs {names[j]}: {dev:.6e} ({verdict})")
    print(f"all pairs mutually unbiased: {'yes' if all_ok else 'no'}")
    return 0 if all_ok else 1


def cmd_partitions(args) -> int:
    try:
        plist = partitions_of(args.n)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for part in plist:
        print(part)
    print(
        f"p({args.n})={partition_count(args.n)}, "
        f"type lower bound {type_count_lower_bound(args.n)}"
    )
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
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (BasisFileError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # structurally invalid input (non-unit vectors, non-basis input, ...)
        print(f"invalid basis: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
