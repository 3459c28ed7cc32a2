"""The workloads: for one seed, the CLI operations to run and their answers.

Each builder writes its input files into a work directory and returns the
operations of one pass.  An operation is one user-level CLI call with a check
that compares the program's exit code and output against the answer the
benchmark knows from building the input (see bases.py).  The composition of a
pass is fixed per workload; the seed only chooses partitions, frames, phases
and generator seeds, so runs with different seeds measure comparable work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from bases import (
    EPS_ORTH,
    MARGIN,
    MUB_TOL,
    InputError,
    adversarial_grouping,
    catalog,
    check_generated,
    decided,
    entangled_swap,
    judge_basis,
    mub_deviation,
    mub_triples,
    perturbed,
    product_basis,
    random_partition,
    read_basis,
    type_string,
    unitary_near_identity,
    write_basis,
)

# Operations whose exit code 0/1 is a verdict; for the other kinds any
# non-zero exit is a failure, because their known answer is success.
VERDICT_KINDS = ("verify", "classify", "mub-check")

Check = Callable[[int, str, str], "str | None"]


@dataclass
class Op:
    """One CLI call: `argv` as given to `prodbase`, and the check of its result."""

    kind: str
    argv: list[str]
    check: Check
    outputs: tuple[Path, ...] = ()
    digests: list[str] | None = field(default=None, repr=False)


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def expect(
    rc: int,
    lines: tuple[str, ...] = (),
    prefixes: tuple[str, ...] = (),
    stderr_prefix: str | None = None,
    extra: Callable[[str], "str | None"] | None = None,
) -> Check:
    """A check requiring exit code rc, exact stdout lines and line prefixes."""

    def check(got_rc: int, out: str, err: str) -> str | None:
        if got_rc != rc:
            return f"exit {got_rc}, expected {rc}"
        have = out.splitlines()
        for line in lines:
            if line not in have:
                return f"missing line {line!r}"
        for prefix in prefixes:
            if not any(h.startswith(prefix) for h in have):
                return f"missing line starting {prefix!r}"
        if stderr_prefix is not None and not err.startswith(stderr_prefix):
            return f"stderr {err[:80]!r} does not start with {stderr_prefix!r}"
        return extra(out) if extra is not None else None

    return check


LOAD_ERROR = expect(1, stderr_prefix="invalid basis: not-normalized")


def expect_verify(vectors: np.ndarray, judged: dict) -> Check:
    if not judged["unit"]:
        return LOAD_ERROR
    d = vectors.shape[0]
    lines = [f"product vectors: {judged['products']}/{d}"]
    if judged["all_products"]:
        for label, key in (
            ("pairwise factor orthogonality", "pairwise"),
            ("groupable into subsystem bases", "groupable"),
        ):
            if judged[key] is not None:
                lines.append(f"{label}: {_yn(judged[key])}")
    valid = judged["orthonormal"] and judged["all_products"]
    if valid:
        result = "valid orthonormal product basis"
    elif not judged["all_products"]:
        result = "not a product basis"
    elif judged["groupable"] is None:
        result = None
    elif judged["groupable"]:
        result = "groupable but not orthonormal"
    else:
        result = "not an orthonormal basis"
    if result is not None:
        lines.append(f"result: {result}")
    prefix = f"orthonormal: {_yn(judged['orthonormal'])} ("
    return expect(0 if valid else 1, tuple(lines), (prefix,))


def expect_classify(judged: dict, right_type: str | None) -> Check:
    if not judged["unit"]:
        return LOAD_ERROR
    valid = judged["orthonormal"] and judged["all_products"]
    if not valid:
        return expect(1, prefixes=("valid: no (",))
    if right_type is None:
        raise InputError("an orthonormal product basis needs its right type")
    return expect(0, (f"right type: {right_type}",), ("valid: yes (",))


def expect_mub(unbiased: bool) -> Check:
    return expect(0 if unbiased else 1, (f"all pairs mutually unbiased: {_yn(unbiased)}",))


class Builder:
    """Writes input files into `work` and collects the operations that use them."""

    def __init__(self, work: Path, rng: np.random.Generator):
        self.work = work
        self.rng = rng
        self.ops: list[Op] = []

    def file(self, name: str, vectors: np.ndarray, meta: dict | None = None) -> Path:
        """Write `vectors` and return the path; the oracle reads the file back."""
        path = self.work / f"{name}.json"
        write_basis(path, vectors, meta or {"name": name})
        return path

    def analyze(
        self,
        name: str,
        vectors: np.ndarray,
        right_type: str | None,
        groupable: bool | None,
        kinds: tuple[str, ...] = ("verify", "classify"),
    ) -> None:
        path = self.file(name, vectors)
        back = read_basis(path)
        judged = judge_basis(back, groupable)
        for kind in kinds:
            if kind == "verify":
                self.ops.append(Op("verify", ["verify", str(path)], expect_verify(back, judged)))
            elif kind == "verify-tight":
                tight = judge_basis(back, groupable, eps_orth=EPS_ORTH / 10.0)
                argv = ["verify", str(path), "--tol-orth", repr(EPS_ORTH / 10.0)]
                self.ops.append(Op("verify", argv, expect_verify(back, tight)))
            else:
                self.ops.append(
                    Op("classify", ["classify", str(path)], expect_classify(judged, right_type))
                )

    def mub(self, paths: list[Path], vectors: list[np.ndarray]) -> None:
        devs = [
            mub_deviation(vectors[i], vectors[j])
            for i in range(len(vectors))
            for j in range(i + 1, len(vectors))
        ]
        unbiased = all(decided(dev, MUB_TOL, "unbiasedness deviation") for dev in devs)
        self.ops.append(Op("mub-check", ["mub-check", *map(str, paths)], expect_mub(unbiased)))


def _retrying(build: Callable[[], None], attempts: int = 5) -> None:
    """Run a seeded construction again with fresh draws if one lands near a tolerance."""
    for _ in range(attempts - 1):
        try:
            return build()
        except InputError:
            continue
    return build()


def log_uniform_strata(rng: np.random.Generator, lo: float, hi: float, count: int) -> list[float]:
    """`count` draws of a log-uniform variable on [lo, hi), one per equal stratum."""
    u = (np.arange(count) + rng.uniform(size=count)) / count
    return [float(lo * (hi / lo) ** x) for x in u]


# --------------------------------------------------------------------------
# analyze_mixed: n = 64 product bases, then mostly invalid small candidates


FRAMES = (("identity", "equal"), ("identity", "independent"), ("haar", "equal"), ("haar", "independent"))


def build_analyze64(work: Path, rng: np.random.Generator) -> list[Op]:
    """verify (default and tighter tolerance) and classify on n = 64 product bases.

    The block counts are 1 and 64 plus two log-uniform strata in between, so
    every pass spans partitions from `64` to `1+...+1`, and the four bases
    take the four frame and group choices.  Two verifies per classify keep
    the median inside the verify cluster instead of on the gap between the
    two kinds.
    """
    b = Builder(work, rng)
    rs = [1, *(min(63, max(2, int(x))) for x in log_uniform_strata(rng, 2.0, 64.0, 2)), 64]
    for i, r in enumerate(rs):
        frame, groups = FRAMES[i % len(FRAMES)]
        parts = random_partition(rng, 64, r)
        vectors = product_basis(rng, parts, frame, groups)
        direct = " (direct product)" if r == 1 and groups == "equal" else ""
        b.analyze(
            f"a64_{i}_r{r}",
            vectors,
            type_string(parts) + direct,
            True,
            kinds=("verify", "verify-tight", "classify"),
        )
    return b.ops


def build_screen_mixed(work: Path, rng: np.random.Generator) -> list[Op]:
    """Mostly invalid candidates at n = 2..14: the reject and early-exit paths."""
    b = Builder(work, rng)
    bases = catalog()
    for name, (vectors, right_type, groupable) in bases.items():
        b.analyze(name, vectors, right_type, groupable)

    triples = mub_triples()
    paths = {}
    for tag, triple in triples.items():
        paths[tag] = [b.file(f"{tag}_mub_{k}", v) for k, v in enumerate(triple)]
        b.mub(paths[tag], triple)
    d6 = triples["d6"]
    b.mub([paths["d6"][0], b.work / "d6_B2.json"], [d6[0], bases["d6_B2"][0]])
    for label, eps in (("below", 1e-13), ("above", 1e-4)):
        turned = d6[1] @ unitary_near_identity(rng, 6, eps).T
        path = b.file(f"d6_mub_1_turned_{label}", turned)
        b.mub([paths["d6"][0], path], [d6[0], read_basis(path)])

    sizes = [(2, 3), (4, 5), (6, 8), (9, 10), (11, 12), (13, 14)]
    for i, (lo, hi) in enumerate(sizes):
        frame, groups = FRAMES[i % len(FRAMES)]

        def one_base(i=i, lo=lo, hi=hi, frame=frame, groups=groups) -> None:
            n = int(rng.integers(lo, hi + 1))
            parts = random_partition(rng, n, int(rng.integers(1, n + 1)))
            vectors = product_basis(rng, parts, frame, groups)
            tstr = type_string(parts)
            direct = " (direct product)" if len(parts) == 1 and groups == "equal" else ""
            start = len(b.ops)
            try:
                tag = f"s{i}_n{n}"
                b.analyze(f"{tag}_kick_below", perturbed(rng, vectors, "kick", 1e-13), tstr + direct, True)
                b.analyze(f"{tag}_kick_above", perturbed(rng, vectors, "kick", 1e-5), None, None)
                b.analyze(f"{tag}_rotate_above", perturbed(rng, vectors, "rotate", 1e-4), None, None)
                b.analyze(f"{tag}_scale_above", perturbed(rng, vectors, "scale", 1e-6), None, None)
                b.analyze(
                    f"{tag}_scale_below",
                    perturbed(rng, vectors, "scale", 1e-13),
                    tstr + direct,
                    True,
                    kinds=("verify",),
                )
                # rows 0 and m + 1 carry orthogonal qudit factors on the two sides of
                # block 0; with all blocks of size 1, row 2 opens the next block
                partner = parts[0] + 1 if parts[0] > 1 else 2
                b.analyze(f"{tag}_entangled", entangled_swap(vectors, 0, partner), None, None)
            except InputError:
                del b.ops[start:]
                raise

        _retrying(one_base)

    for n in (12, 14):
        b.analyze(f"adversarial_n{n}", adversarial_grouping(n), None, False)
    return b.ops


# --------------------------------------------------------------------------
# generate_sweep


def _log_uniform_cdf(r: int, n: int) -> float:
    """P(block count <= r) when block counts 1..n are drawn log-uniformly."""
    return math.log(r + 1) / math.log(n + 1)


def stratified_block_counts(rng: np.random.Generator, n: int, count: int, split: int) -> list[int]:
    """`count` log-uniform block counts in 1..n, stratified on both sides of `split`.

    The share of counts above `split` is fixed at round(count * P(r > split)),
    so every seed fails the same number of draws where the generator fails
    above a block count.
    """
    f = _log_uniform_cdf(split, n)
    low = round(count * f)
    u_low = (np.arange(low) + rng.uniform(size=low)) / max(low, 1) * f
    u_high = f + (np.arange(count - low) + rng.uniform(size=count - low)) / max(count - low, 1) * (1 - f)
    return [min(n, max(1, int((n + 1) ** x))) for x in (*u_low, *u_high)]


# The generator places at most 12 pairwise-skew qubit rays; above that it fails.
GENERATOR_BLOCK_LIMIT = 12


def _generate_op(b: Builder, n: int, parts, seed: int, mode: str, subspaces: str, name: str) -> Op:
    out = b.work / f"{name}.json"
    argv = [
        "generate",
        str(n),
        "+".join(map(str, parts)),
        "--seed",
        str(seed),
        "--mode",
        mode,
        "--subspaces",
        subspaces,
        "--out",
        str(out),
    ]
    return Op("generate", argv, expect(0, extra=lambda _out: check_generated(out, parts)), (out,))


def _partition_lines_check(n: int) -> Callable[[str], "str | None"]:
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    count = table[n]

    def check(out: str) -> str | None:
        lines = out.splitlines()
        if not lines or lines[-1] != f"p({n})={count}, type lower bound {count + 1}":
            return f"last line {lines[-1:]!r}, expected p({n})={count}"
        body = lines[:-1]
        if len(body) != count or len(set(body)) != count:
            return f"{len(body)} partition lines ({len(set(body))} distinct), expected {count}"
        for line in body:
            parts = [int(p) for p in line.split("+")]
            if sum(parts) != n or parts != sorted(parts, reverse=True) or min(parts) < 1:
                return f"{line!r} is not a partition of {n}"
        return None

    return check


def _family_check(paths: list[Path]) -> Callable[[str], "str | None"]:
    def check(_out: str) -> str | None:
        try:
            bases = [read_basis(p) for p in paths]
        except (OSError, ValueError, KeyError, InputError) as exc:
            return f"unreadable family output: {exc}"
        for p in paths:
            problem = check_generated(p, (3,))
            if problem:
                return problem
        for i in range(3):
            for j in range(i + 1, 3):
                dev = mub_deviation(bases[i], bases[j])
                if dev > MUB_TOL / MARGIN:
                    return f"family bases {i} and {j} deviate from unbiased by {dev:.3e}"
        return None

    return check


def build_generate_sweep(work: Path, rng: np.random.Generator) -> list[Op]:
    """In-process generate to a file: four draws at n = 16 and twelve at n = 64,
    then `family d6_mub_triple` and `partitions 30`.

    Weighting n = 64 puts the median inside its seven successful draws,
    between the fast n = 16 draws and the five failing ones.  n = 16 takes
    coordinate subspaces and n = 64 Haar-random ones, so the successful
    n = 64 draws form one cluster of similar cost; both pair modes alternate
    at each n.
    """
    b = Builder(work, rng)
    for n, count, subspaces in ((16, 4, "identity"), (64, 12, "random")):
        for i, r in enumerate(stratified_block_counts(rng, n, count, GENERATOR_BLOCK_LIMIT)):
            mode = ("equal", "independent")[i % 2]
            parts = random_partition(rng, n, r)
            seed = int(rng.integers(0, 2**63))
            b.ops.append(_generate_op(b, n, parts, seed, mode, subspaces, f"g{n}_{i}_r{r}"))
    family = tuple(b.work / f"mub_{k}.json" for k in range(3))
    b.ops.append(
        Op(
            "family",
            ["family", "d6_mub_triple", "--out", str(b.work / "mub.json")],
            expect(0, extra=_family_check(list(family))),
            family,
        )
    )
    b.ops.append(Op("partitions", ["partitions", "30"], expect(0, extra=_partition_lines_check(30))))
    return b.ops


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[Path, np.random.Generator], list[Op]]
    tail_pct: float
    setup_repeats: int


def build_analyze_mixed(work: Path, rng: np.random.Generator) -> list[Op]:
    """build_analyze64's n = 64 bases followed by build_screen_mixed's candidates, in one pass."""
    return build_analyze64(work, rng) + build_screen_mixed(work, rng)


# tail_pct is the highest percentile that leaves at least ten samples beyond
# it in a run of BENCHMARK.json's length (see NOTES.md); it is fixed per
# workload so that a faster program, which fits more passes into a run,
# reports the same percentile.  setup_repeats makes the set-ups of a run add
# up to two to four seconds at the seed commit (0.75 s and 35 ms each).  It is
# a fixed count because every set-up imports prodbase afresh and leaves about
# 0.1 MB of heap behind, which peak_rss_mb would otherwise count by speed.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("analyze_mixed", build_analyze_mixed, 98.0, 5),
        Workload("generate_sweep", build_generate_sweep, 85.0, 50),
    )
}
