"""Verification and structural classification of candidate product bases.

A candidate basis is 2n unit vectors in C^(2n).  When it really is an
orthonormal product basis, its qubit factors fall into ray classes that pair
up antipodally, the qudit factors attached to a paired class span equal
orthogonal subspaces, and the subspace dimensions form a partition of n.
`classify` computes that decomposition (or explains where it breaks down),
and the remaining functions check the individual conditions separately.
The checks work on three matrices: the Gram matrix of the vectors and the
overlap moduli of their qubit factors and of their qudit factors.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .numerics import (
    DEFAULT_TOL,
    Subspace,
    Tolerances,
    canonical_phase,
    gram_residual,
    inner,  # noqa: F401  unused; perfbench's tracer self-test patches it here
)
from .partitions import Partition
from .product_space import factor_arrays, factorize

__all__ = [
    "ProductBasis",
    "PairBlock",
    "StructureReport",
    "factorize_all",
    "verify_orthonormal",
    "verify_product_basis",
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
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"n must be a positive integer, got {n!r}")
        rows = np.array(vectors, dtype=np.complex128, order="C")  # saved as a float64 view
        if rows.shape != (2 * n, 2 * n):
            raise ValueError(f"expected {2 * n} vectors of dim {2 * n}, got shape {rows.shape}")
        if not np.isfinite(rows).all():
            raise ValueError("vector has non-finite entries")
        with np.errstate(over="ignore"):  # an entry above ~1e154 gives inf, not a warning
            nrm2 = np.sum(np.abs(rows) ** 2, axis=1)
        off = np.flatnonzero(np.abs(nrm2 - 1.0) > tol.eps_unit)
        if off.size:
            k = int(off[0])
            raise ValueError(f"not-normalized: vector {k} has <v|v> = {float(nrm2[k])!r}")
        rows.flags.writeable = False
        self.n = n
        self.vectors = rows
        self.meta = dict(meta or {})

    @property
    def dims(self) -> tuple[int, int]:
        return (2, self.n)

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
    qubit and of its qudit factors; every array is read-only.  A named tuple, not a
    frozen dataclass, because building that class costs each import about 0.6 ms."""

    qubits: np.ndarray
    qudits: np.ndarray
    sigma2: np.ndarray
    qubit_overlaps: np.ndarray
    qudit_overlaps: np.ndarray


@dataclass(frozen=True, eq=False)
class PairBlock:
    """One antipodal block of the decomposition.

    The qubit pair (a, a_perp) spans C^2; group_A and group_Aperp are the
    qudit factors attached to each side, both orthonormal bases of the same
    `subspace` of C^n with `multiplicity` elements.
    """

    a: np.ndarray
    a_perp: np.ndarray
    group_A: tuple[np.ndarray, ...]
    group_Aperp: tuple[np.ndarray, ...]
    subspace: Subspace
    multiplicity: int
    a_indices: tuple[int, ...] = ()
    a_perp_indices: tuple[int, ...] = ()
    groups_coincide: bool = False


@dataclass(frozen=True, eq=False)
class StructureReport:
    """Outcome of `classify`: the block decomposition or the first failure."""

    valid: bool
    gram_residual: float
    blocks: tuple[PairBlock, ...] = ()
    right_type: Partition | None = None
    basis_B1n: tuple[np.ndarray, ...] = ()
    basis_B2n: tuple[np.ndarray, ...] = ()
    is_direct_product: bool = False
    diagnostics: tuple[str, ...] = ()

    @property
    def r(self) -> int:
        return len(self.blocks)


def factorize_all(basis: ProductBasis, tol: Tolerances = DEFAULT_TOL) -> list:
    """Factorize every basis vector, one `factorize` call each; the checks below
    share the basis' one batched factorization instead.

    Returns, per vector, a ProductVector or a NotAProduct marker carrying the
    measured sigma_2.  Orthonormality is not required.
    """
    return [factorize(v, tol) for v in basis.vectors]


def verify_orthonormal(basis: ProductBasis, tol: Tolerances = DEFAULT_TOL) -> tuple[bool, float]:
    """Whether the 2n vectors are orthonormal; also returns the Gram residual."""
    residual = gram_residual(basis.vectors)
    return (residual <= tol.eps_orth, residual)


def verify_product_basis(basis: ProductBasis, tol: Tolerances = DEFAULT_TOL):
    """Orthonormality plus product-ness of every vector.

    Returns (ok, per_vector_results) where each result is a ProductVector or
    a NotAProduct marker carrying the measured sigma_2.
    """
    ok_orth, _ = verify_orthonormal(basis, tol)
    results = factorize_all(basis, tol)
    return (ok_orth and all(results), results)


def _product_factors(basis: ProductBasis, tol: Tolerances) -> _Factors:
    """The basis' shared factors; ValueError names the first non-product vector."""
    factors = basis._factors
    entangled = np.flatnonzero(factors.sigma2 > tol.eps_rank)
    if entangled.size:
        k = int(entangled[0])
        raise ValueError(f"vector {k} is not a product state (sigma2 {factors.sigma2[k]:.6e})")
    return factors


def check_pairwise_condition(basis: ProductBasis, tol: Tolerances = DEFAULT_TOL) -> bool:
    """For every pair i != j, at least one factor overlap vanishes."""
    factors = _product_factors(basis, tol)
    smaller = np.minimum(factors.qubit_overlaps, factors.qudit_overlaps)
    np.fill_diagonal(smaller, 0.0)
    return bool(np.all(smaller <= tol.eps_orth))


def _ray_classes(overlap: np.ndarray, tol: Tolerances):
    """Ray classes of the qubit factors, from their overlap moduli, and each
    class's orthogonal partner.

    The classes are the connected components of the ray-equality graph
    (|overlap| >= 1 - eps_ray), as tuples of basis positions ordered by
    their first member; partner[c] is the one class orthogonal to class c
    within eps_orth.  Raises ValueError with a diagnostic when a class is
    internally inconsistent (transitivity degraded beyond 2*eps_ray) or the
    classes do not pair up one to one.
    """
    labels = _component_labels(overlap >= 1.0 - tol.eps_ray)
    firsts = np.flatnonzero(labels == np.arange(len(labels)))
    order = np.argsort(labels, kind="stable").tolist()
    ends = np.cumsum(np.bincount(labels)[firsts]).tolist()
    classes = [tuple(order[start:end]) for start, end in zip([0, *ends], ends)]
    loose = (labels[:, None] == labels) & (1.0 - overlap >= 2.0 * tol.eps_ray)
    if loose.any():
        u, v = (int(x) for x in np.argwhere(loose)[0])
        members = list(next(c for c in classes if u in c))
        raise ValueError(
            f"ray class {members} is internally inconsistent: "
            f"vectors {u} and {v} differ by more than 2*eps_ray"
        )
    orthogonal = overlap[firsts][:, firsts] <= tol.eps_orth
    counts = orthogonal.sum(axis=1)
    unpaired = np.flatnonzero(counts != 1)
    if unpaired.size:
        c = int(unpaired[0])
        if counts[c] == 0:
            raise ValueError(f"ray class {classes[c]} has no orthogonal partner class")
        raise ValueError(
            f"ambiguous partner for ray class {classes[c]}: "
            f"{counts[c]} classes are orthogonal within eps_orth"
        )
    partner = np.argmax(orthogonal, axis=1)
    if np.any(partner[partner] != np.arange(len(classes))):
        raise ValueError("partner assignment is not a perfect matching on ray classes")
    return classes, partner


def _component_labels(adjacent: np.ndarray) -> np.ndarray:
    """Each vertex's connected component, labelled by its first vertex: every vertex
    takes the smallest label among itself and its neighbours until nothing changes,
    all vertices at once."""
    labels = np.arange(len(adjacent))
    while True:
        smallest = np.minimum(labels, np.where(adjacent, labels, len(labels)).min(axis=1))
        if (smallest == labels).all():
            return labels
        labels = smallest


def _two_colourable(meets: np.ndarray) -> bool:
    """Whether the graph with adjacency matrix `meets` is bipartite.  In its double
    cover, where (u, 0) meets (v, 1) whenever u meets v, the two copies of a vertex
    are connected exactly when its component has an odd cycle."""
    d = len(meets)
    np.fill_diagonal(meets, False)
    cover = np.zeros((2 * d, 2 * d), dtype=bool)
    cover[:d, d:] = cover[d:, :d] = meets
    labels = _component_labels(cover)
    return not np.any(labels[:d] == labels[d:])


def check_groupable(basis: ProductBasis, tol: Tolerances = DEFAULT_TOL) -> bool:
    """The grouping condition alone: qubit factors split into n orthonormal
    pairs and qudit factors into 2 orthonormal bases of C^n.

    This is strictly weaker than being a product basis; sets exist that group
    cleanly yet are not orthonormal in C^(2n).  In C^2 every ray orthogonal
    to a given one is the same ray, so the qubit factors pair up exactly when
    each ray class has one orthogonal partner class of equal size.

    Non-orthogonal qudit factors must land in different groups, so a split
    is a 2-colouring of the graph of non-orthogonal pairs.  Any such
    colouring is balanced: n + 1 pairwise-orthogonal unit vectors in C^n
    would have a Gram matrix within n * eps_orth < 1 of the identity (for
    eps_orth < 1e-3 and n < 1000), hence nonsingular, which is impossible;
    so each colour holds at most n of the 2n vectors, that is exactly n.
    """
    factors = _product_factors(basis, tol)
    try:
        classes, partner = _ray_classes(factors.qubit_overlaps, tol)
    except ValueError:
        return False
    if any(len(classes[c]) != len(classes[e]) for c, e in enumerate(partner)):
        return False
    return _two_colourable(factors.qudit_overlaps > tol.eps_orth)


def _span_distance(q: np.ndarray, rows: np.ndarray):
    """sqrt(2) ||(I - Q Q^H) R^T||_F, per matrix of a stack: for orthonormal rows R, the
    Frobenius distance between the projectors onto span(Q) and span(R), with no n x n
    matrix formed."""
    cols = rows.swapaxes(-1, -2)
    outside = cols - q @ (q.conj().swapaxes(-1, -2) @ cols)
    return np.sqrt(2.0) * np.linalg.norm(outside, axis=(-2, -1))


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
    ok_orth, residual = verify_orthonormal(basis, tol)

    def failed(diagnostic: str) -> StructureReport:
        return StructureReport(valid=False, gram_residual=residual, diagnostics=(diagnostic,))

    if not ok_orth:
        return failed(f"not orthonormal: Gram residual {residual:.6e} exceeds eps_orth")
    try:
        factors = _product_factors(basis, tol)
        classes, partner = _ray_classes(factors.qubit_overlaps, tol)
    except ValueError as exc:
        return failed(str(exc))

    # The report names the first failing block in class order, at its first failing
    # check: cardinality, group A, group A-perp, span.  Blocks of one size are
    # checked together.
    pairs = [(classes[c], classes[e]) for c, e in enumerate(partner.tolist()) if c < e]
    faults, sizes, blocks, overlaps = {}, {}, [], factors.qudit_overlaps
    for j, (idx_a, idx_p) in enumerate(pairs):
        if len(idx_a) != len(idx_p):
            faults[j] = f"paired ray classes {idx_a} and {idx_p} have unequal cardinalities"
        else:
            sizes.setdefault(len(idx_a), []).append(j)
    for m, js in sizes.items():
        ia, ip = (np.array([pairs[j][side] for j in js]) for side in (0, 1))
        gram = (np.abs(overlaps[i[:, :, None], i[:, None]] - np.eye(m)) for i in (ia, ip))
        res_a, res_p = (g.max(axis=(1, 2)).tolist() for g in gram)
        group_a, group_p = factors.qudits[ia], factors.qudits[ip]
        # where group A passes its Gram check, QR's Q spans it with full rank
        q = np.linalg.qr(group_a.transpose(0, 2, 1))[0].transpose(0, 2, 1)
        q = canonical_phase(q.reshape(-1, basis.n)).reshape(q.shape).transpose(0, 2, 1)
        far = (_span_distance(q, group_p) > np.sqrt(2.0 * m) * tol.eps_orth).tolist()
        # the groups coincide as sets of rays when their near-parallel pairs form a permutation
        parallel = overlaps[ia[:, :, None], ip[:, None]] >= 1.0 - tol.eps_ray
        same = ((parallel.sum(axis=1) == 1) & (parallel.sum(axis=2) == 1)).all(axis=1).tolist()
        for t, j in enumerate(js):
            idx_a, idx_p = pairs[j]
            name, res = ("A", res_a[t]) if res_a[t] > tol.eps_orth else ("A-perp", res_p[t])
            if res > tol.eps_orth:
                faults[j] = (
                    f"qudit group {name} of block {idx_a} is not orthonormal (residual {res:.6e})"
                )
            elif far[t]:
                faults[j] = (
                    f"qudit groups of block {idx_a} do not span one "
                    f"common subspace of dimension {m}"
                )
            a, a_perp = factors.qubits[idx_a[0]], factors.qubits[idx_p[0]]
            groups, span = (tuple(group_a[t]), tuple(group_p[t])), Subspace(basis.n, q[t])
            blocks.append(PairBlock(a, a_perp, *groups, span, m, idx_a, idx_p, same[t]))
    if faults:
        return failed(faults[min(faults)])
    blocks.sort(key=lambda blk: (-blk.multiplicity, blk.a_indices[0]))
    if sum(blk.multiplicity for blk in blocks) != basis.n:
        return failed("block multiplicities do not sum to n")
    basis_b1 = tuple(v for blk in blocks for v in blk.group_A)
    basis_b2 = tuple(v for blk in blocks for v in blk.group_Aperp)
    b1 = [k for blk in blocks for k in blk.a_indices]
    sides = np.array([b1, [k for blk in blocks for k in blk.a_perp_indices]])
    gram = np.abs(overlaps[sides[:, :, None], sides[:, None]] - np.eye(basis.n)).max(axis=(1, 2))
    for name, res in zip(("B1(n)", "B2(n)"), gram.tolist()):
        if res > tol.eps_orth:
            return failed(f"{name} is not an orthonormal basis of C^n (residual {res:.6e})")
    return StructureReport(
        valid=True,
        gram_residual=residual,
        blocks=tuple(blocks),
        right_type=Partition(tuple(blk.multiplicity for blk in blocks)),
        basis_B1n=basis_b1,
        basis_B2n=basis_b2,
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
    if d == 0 or len(B) != d:
        raise ValueError("not-a-basis: the two families have different sizes")
    if A.shape != (d, d) or B.shape != (d, d):
        raise ValueError("not-a-basis: vector count must equal the dimension")
    for name, fam in (("first", A), ("second", B)):
        res = gram_residual(fam)
        if res > tol.eps_orth:
            raise ValueError(f"not-a-basis: {name} family has Gram residual {res:.6e}")
    overlaps = np.abs(A.conj() @ B.T) ** 2
    dev = float(np.max(np.abs(overlaps - 1.0 / d)))
    return (dev <= 10.0 * tol.eps_orth, dev)
