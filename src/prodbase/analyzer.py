"""Verification and structural classification of candidate product bases.

A candidate basis is 2n unit vectors in C^(2n).  When it really is an
orthonormal product basis, its qubit factors fall into ray classes that pair
up antipodally, the qudit factors attached to a paired class span equal
orthogonal subspaces, and the subspace dimensions form a partition of n.
`classify` computes that decomposition (or explains where it breaks down),
and the remaining functions check the individual conditions separately.
The checks work on three matrices: the Gram matrix of the vectors and the
overlap moduli of their qubit factors and of their qudit factors.

The stage table that `classify`, `check_pairwise_condition` and `check_groupable`
read, with its graph helpers, is the private module `_structure`, which each of them
imports on its first call.  Every command imports `analyzer` with the package, but
`generate`, `family`, `partitions` and `mub-check` run none of the three, and where no
bytecode is cached most of an import is compiling, so they never compile the table.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .numerics import DEFAULT_TOL, Subspace, Tolerances, _exponent, gram_residual, inner
from .partitions import Partition
from .product_space import factor_arrays, factorize

__all__ = [
    "ProductBasis",
    "PairBlock",
    "StructureReport",
    "VerifyReport",
    "factorize_all",
    "verify_orthonormal",
    "verify_product_basis",
    "verify_report",
    "check_pairwise_condition",
    "check_groupable",
    "classify",
    "left_classify",
    "mu_check",
    "swap_factors",
]


class ProductBasis:
    """An ordered set of 2n unit vectors in C^(2n) claimed to form a product basis.

    `vectors` is a read-only (2n, 2n) complex128 copy of the rows given, one
    row per vector.  The checks share one factorization of those rows, made on
    first use and read-only like `vectors`, so an instance can be shared freely.
    """

    def __init__(self, n: int, vectors, tol: Tolerances = DEFAULT_TOL, meta=None):
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValueError(f"n must be a positive integer, got {n!r}")
        rows = np.array(vectors, dtype=np.complex128, order="C")  # saved as a float64 view
        if rows.shape != (2 * n, 2 * n):
            raise ValueError(f"expected {2 * n} vectors of dim {2 * n}, got shape {rows.shape}")
        if _exponent(rows):  # squares past the float range: <v|v> from the scaled `inner`
            nrm2 = np.array([inner(r, r).real for r in rows])
        else:
            nrm2 = np.sum(np.abs(rows) ** 2, axis=1)
        off = np.flatnonzero(np.abs(nrm2 - 1.0) > tol.eps_unit)
        if off.size:
            k = int(off[0])
            raise ValueError(f"not-normalized: vector {k} has <v|v> = {float(nrm2[k])!r}")
        rows.flags.writeable = False
        self.n = n
        self.vectors = rows
        self.meta = dict(meta or {})

    def __len__(self):
        return len(self.vectors)

    def __repr__(self):
        return f"<ProductBasis 2x{self.n}, {len(self.vectors)} vectors>"

    @functools.cached_property
    def _factors(self) -> _Factors:
        qubits, qudits, sigma2 = factor_arrays(self.vectors)
        overlaps = (np.abs(f.conj() @ f.T) for f in (qubits, qudits))
        factors = _Factors(qubits, qudits, sigma2, *overlaps)
        for array in factors:
            array.flags.writeable = False
        return factors


class _Factors(NamedTuple):
    """`factor_arrays` of a basis' rows, and the overlap moduli |<r_i|r_j>| of its
    qubit and of its qudit factors; every array is read-only."""

    qubits: np.ndarray
    qudits: np.ndarray
    sigma2: np.ndarray
    qubit_overlaps: np.ndarray
    qudit_overlaps: np.ndarray


class PairBlock(NamedTuple):
    """One antipodal block of the decomposition.

    The qubit pair (a, a_perp) spans C^2; group_A and group_Aperp hold the
    qudit factors attached to each side as (multiplicity, n) arrays, their rows
    orthonormal bases of the same `subspace` of C^n.
    """

    a: np.ndarray
    a_perp: np.ndarray
    group_A: np.ndarray
    group_Aperp: np.ndarray
    subspace: Subspace
    multiplicity: int
    a_indices: tuple[int, ...] = ()
    a_perp_indices: tuple[int, ...] = ()
    groups_coincide: bool = False


class StructureReport(NamedTuple):
    """Outcome of `classify`: the block decomposition or the first failure."""

    valid: bool
    gram_residual: float
    blocks: tuple[PairBlock, ...] = ()
    right_type: Partition | None = None
    basis_B1n: np.ndarray | tuple = ()
    basis_B2n: np.ndarray | tuple = ()
    is_direct_product: bool = False
    diagnostics: tuple[str, ...] = ()

    @property
    def r(self) -> int:
        return len(self.blocks)


class VerifyReport(NamedTuple):
    """Outcome of `verify_report`: the verdict, its phrase, what it rests on and a ProductVector
    or NotAProduct per vector; `pairwise` and `groupable` are None unless all are products."""

    valid: bool
    result: str
    gram_residual: float
    orthonormal: bool
    factorizations: tuple = ()
    pairwise: bool | None = None
    groupable: bool | None = None


def factorize_all(basis: ProductBasis, tol: Tolerances = DEFAULT_TOL) -> list:
    """Factorize every basis vector, one `factorize` call each, into a ProductVector or a
    NotAProduct marker carrying the measured sigma_2; orthonormality is not required.  The
    checks below share the basis' one batched factorization instead."""
    return [factorize(v, tol) for v in basis.vectors]


def verify_orthonormal(basis: ProductBasis, tol: Tolerances = DEFAULT_TOL) -> tuple[bool, float]:
    """Whether the 2n vectors are orthonormal; also returns the Gram residual."""
    residual = gram_residual(basis.vectors)
    return (residual <= tol.eps_orth, residual)


def verify_product_basis(basis: ProductBasis, tol: Tolerances = DEFAULT_TOL):
    """`verify_report`'s verdict and its per-vector results, as (ok, [ProductVector or
    NotAProduct carrying the measured sigma_2, ...])."""
    report = verify_report(basis, tol)
    return (report.valid, list(report.factorizations))


def verify_report(basis: ProductBasis, tol: Tolerances = DEFAULT_TOL) -> VerifyReport:
    """Verify's verdict: valid when the vectors are orthonormal and every one is a product.
    The pairwise and grouping checks run only when every vector is one, and never decide it."""
    orthonormal, residual = verify_orthonormal(basis, tol)
    rows = tuple(factorize_all(basis, tol))
    if not all(rows):
        return VerifyReport(False, "not a product basis", residual, orthonormal, rows)
    pairwise, groupable = check_pairwise_condition(basis, tol), check_groupable(basis, tol)
    if orthonormal:
        result = "valid orthonormal product basis"
    else:
        result = "groupable but not orthonormal" if groupable else "not an orthonormal basis"
    return VerifyReport(orthonormal, result, residual, orthonormal, rows, pairwise, groupable)


def check_pairwise_condition(basis: ProductBasis, tol: Tolerances = DEFAULT_TOL) -> bool:
    """For every pair i != j, at least one factor overlap vanishes."""
    from ._structure import _measured, _passes

    _passes(basis, tol, 1)  # ValueError unless every vector is a product
    factors = basis._factors
    smaller = np.minimum(factors.qubit_overlaps, factors.qudit_overlaps)
    np.fill_diagonal(smaller, 0.0)
    return _measured("pairwise", smaller, tol.eps_orth).passed


def check_groupable(basis: ProductBasis, tol: Tolerances = DEFAULT_TOL) -> bool:
    """The grouping condition alone: qubit factors split into n orthonormal
    pairs and qudit factors into 2 orthonormal bases of C^n.

    This is strictly weaker than being a product basis; sets exist that group
    cleanly yet are not orthonormal in C^(2n).  In C^2 the rays orthogonal to
    a ray are one ray, so the qubit factors pair up exactly when each ray class
    has one partner class of equal size, which the ray test at eps_ray puts on
    that orthogonal ray (`_structure._ray_classes`).

    Non-orthogonal qudit factors must land in different groups, so a split
    is a 2-colouring of the graph of non-orthogonal pairs.  Any such
    colouring is balanced: n + 1 pairwise-orthogonal unit vectors in C^n
    would have a Gram matrix within n * eps_orth < 1 of the identity (for
    eps_orth < 1e-3 and n < 1000), hence nonsingular, which is impossible;
    so each colour holds at most n of the 2n vectors, that is exactly n.
    """
    from ._structure import _passes, _two_colourable

    return _passes(basis, tol, 3) and _two_colourable(basis._factors.qudit_overlaps > tol.eps_orth)


def classify(basis: ProductBasis, tol: Tolerances = DEFAULT_TOL) -> StructureReport:
    """Full structural decomposition of a candidate product basis.

    On a verified product basis this clusters the qubit factors into ray
    classes, pairs each class with its unique orthogonal partner, checks that
    paired classes carry equally many qudit factors spanning one common
    subspace, and reports the blocks sorted by decreasing multiplicity
    together with the induced partition of n.  Any violated condition yields
    valid=False with a diagnostic for the first failing step; the Gram
    residual is reported either way.
    """
    from ._structure import _PHRASES, _Stage, _stages

    orthonormal, residual = verify_orthonormal(basis, tol)
    stage, stages = _Stage("Gram", residual, tol.eps_orth, None, orthonormal), _stages(basis, tol)
    try:
        while stage.passed:
            stage = next(stages)
    except StopIteration as end:
        blocks, families = end.value
    else:
        diagnostic = _PHRASES[stage.name].format(**stage._asdict())
        return StructureReport(valid=False, gram_residual=residual, diagnostics=(diagnostic,))
    return StructureReport(
        valid=True,
        gram_residual=residual,
        blocks=blocks,
        right_type=Partition(tuple(blk.multiplicity for blk in blocks)),
        basis_B1n=families[0],
        basis_B2n=families[1],
        is_direct_product=(len(blocks) == 1 and blocks[0].groups_coincide),
    )


def swap_factors(basis: ProductBasis, tol: Tolerances = DEFAULT_TOL) -> ProductBasis:
    """The same vectors with qubit and qudit factors exchanged (n = 2 only)."""
    if basis.n != 2:
        raise ValueError("factor swap is only defined for 2 x 2")
    swapped = basis.vectors.reshape(4, 2, 2).transpose(0, 2, 1).reshape(4, 4)
    return ProductBasis(2, swapped, tol=tol)


def left_classify(basis: ProductBasis, tol: Tolerances = DEFAULT_TOL) -> Partition | None:
    """Partition type of the factor-swapped basis; None means undefined.

    Swapping the two factors only yields a space of the same 2 x n shape when
    n = 2, so the swapped-side type is computed there and is undefined for
    every other n.
    """
    if basis.n != 2:
        return None
    report = classify(swap_factors(basis, tol), tol)
    return report.right_type if report.valid else None


def mu_check(basis1, basis2, tol: Tolerances = DEFAULT_TOL) -> tuple[bool, float]:
    """Whether two orthonormal bases are mutually unbiased.

    Returns (ok, dev) with dev the max over all pairs of
    | |<a_i|b_j>|^2 - 1/d |; ok when dev <= 10 * eps_orth.
    """
    A, B = (np.asarray(family, dtype=np.complex128) for family in (basis1, basis2))
    d = len(A)
    if len(B) != d:
        raise ValueError("not-a-basis: the two families have different sizes")
    if d == 0:
        raise ValueError("not-a-basis: both families are empty")
    if A.shape != (d, d) or B.shape != (d, d):
        raise ValueError("not-a-basis: vector count must equal the dimension")
    for name, fam in (("first", A), ("second", B)):
        res = gram_residual(fam)
        if res > tol.eps_orth:
            raise ValueError(f"not-a-basis: {name} family has Gram residual {res:.6e}")
    overlaps = np.abs(A.conj() @ B.T) ** 2
    dev = float(np.max(np.abs(overlaps - 1.0 / d)))
    return (dev <= 10.0 * tol.eps_orth, dev)
