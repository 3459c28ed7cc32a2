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

from dataclasses import dataclass

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
    row per vector; nothing is cached, so an instance can be shared freely.
    """

    def __init__(self, n: int, vectors, tol: Tolerances = DEFAULT_TOL, meta=None):
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"n must be a positive integer, got {n!r}")
        rows = np.array(vectors, dtype=np.complex128, order="C")  # saved as a float64 view
        if rows.shape != (2 * n, 2 * n):
            raise ValueError(f"expected {2 * n} vectors of dim {2 * n}, got shape {rows.shape}")
        if not np.isfinite(rows).all():
            raise ValueError("vector has non-finite entries")
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
    """Factorize every basis vector; the checks below use `factor_arrays`.

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


def _product_factors(basis: ProductBasis, tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """Qubit (2n x 2) and qudit (2n x n) factor rows; ValueError names a non-product vector."""
    qubits, qudits, sigma2 = factor_arrays(basis.vectors)
    entangled = np.flatnonzero(sigma2 > tol.eps_rank)
    if entangled.size:
        k = int(entangled[0])
        raise ValueError(f"vector {k} is not a product state (sigma2 {sigma2[k]:.6e})")
    return qubits, qudits


def _overlaps(rows: np.ndarray) -> np.ndarray:
    """|<r_i|r_j>| for every pair of rows."""
    return np.abs(rows.conj() @ rows.T)


def check_pairwise_condition(basis: ProductBasis, tol: Tolerances = DEFAULT_TOL) -> bool:
    """For every pair i != j, at least one factor overlap vanishes."""
    qubits, qudits = _product_factors(basis, tol)
    smaller = np.minimum(_overlaps(qubits), _overlaps(qudits))
    np.fill_diagonal(smaller, 0.0)
    return bool(np.all(smaller <= tol.eps_orth))


def _ray_classes(qubits: np.ndarray, tol: Tolerances):
    """Ray classes of the qubit factors, and each class's orthogonal partner.

    The classes are the connected components of the ray-equality graph
    (|overlap| >= 1 - eps_ray), as tuples of basis positions ordered by
    their first member; partner[c] is the one class orthogonal to class c
    within eps_orth.  Raises ValueError with a diagnostic when a class is
    internally inconsistent (transitivity degraded beyond 2*eps_ray) or the
    classes do not pair up one to one.
    """
    overlap = _overlaps(qubits)
    same = overlap >= 1.0 - tol.eps_ray
    # Each position repeatedly takes the smallest label among its neighbours;
    # once nothing changes, every component carries its first member's label.
    positions = labels = np.arange(len(qubits))
    while True:
        smallest = np.min(np.where(same, labels, len(labels)), axis=1)
        if np.array_equal(smallest, labels):
            break
        labels = smallest
    firsts = np.flatnonzero(labels == positions)
    classes = [tuple(np.flatnonzero(labels == first).tolist()) for first in firsts]
    loose = (labels[:, None] == labels) & (1.0 - overlap >= 2.0 * tol.eps_ray)
    if loose.any():
        u, v = (int(x) for x in np.argwhere(loose)[0])
        members = list(next(c for c in classes if u in c))
        raise ValueError(
            f"ray class {members} is internally inconsistent: "
            f"vectors {u} and {v} differ by more than 2*eps_ray"
        )
    orthogonal = overlap[np.ix_(firsts, firsts)] <= tol.eps_orth
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


def _two_colourable(meets: np.ndarray) -> bool:
    """Whether the graph with adjacency matrix `meets` is bipartite: breadth-first
    layers alternate the colours, and the colouring found is proper exactly when any is."""
    d = len(meets)
    np.fill_diagonal(meets, False)
    colour = np.full(d, -1)
    for start in range(d):
        if colour[start] >= 0:
            continue
        layer = np.zeros(d, dtype=bool)
        layer[start] = True
        parity = 0
        while layer.any():
            colour[layer] = parity
            layer = meets[layer].any(axis=0) & (colour < 0)
            parity ^= 1
    return not np.any(meets & (colour[:, None] == colour))


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
    qubits, qudits = _product_factors(basis, tol)
    try:
        classes, partner = _ray_classes(qubits, tol)
    except ValueError:
        return False
    if any(len(classes[c]) != len(classes[e]) for c, e in enumerate(partner)):
        return False
    return _two_colourable(_overlaps(qudits) > tol.eps_orth)


def _same_ray_sets(group1: np.ndarray, group2: np.ndarray, tol: Tolerances) -> bool:
    """Whether two orthonormal families coincide as sets of rays: their
    near-parallel pairs form a permutation."""
    parallel = np.abs(group1.conj() @ group2.T) >= 1.0 - tol.eps_ray
    return bool(np.all(parallel.sum(axis=0) == 1) and np.all(parallel.sum(axis=1) == 1))


def _span_distance(q: np.ndarray, rows: np.ndarray) -> float:
    """sqrt(2) ||(I - Q Q^H) R^T||_F: for orthonormal rows R, the Frobenius distance
    between the projectors onto span(Q) and span(R), with no n x n matrix formed."""
    return float(np.sqrt(2.0) * np.linalg.norm(rows.T - q @ (q.conj().T @ rows.T)))


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
        qubits, qudits = _product_factors(basis, tol)
        classes, partner = _ray_classes(qubits, tol)
    except ValueError as exc:
        return failed(str(exc))

    blocks: list[PairBlock] = []
    for c, e in enumerate(partner):
        if c > e:
            continue
        idx_a, idx_p = classes[c], classes[e]
        if len(idx_a) != len(idx_p):
            return failed(f"paired ray classes {idx_a} and {idx_p} have unequal cardinalities")
        group_a = qudits[list(idx_a)]
        group_p = qudits[list(idx_p)]
        for name, group in (("A", group_a), ("A-perp", group_p)):
            res = gram_residual(group)
            if res > tol.eps_orth:
                return failed(
                    f"qudit group {name} of block {idx_a} is not orthonormal (residual {res:.6e})"
                )
        # group A passed its Gram check, so QR's Q spans it with full rank
        span_a = Subspace(basis.n, canonical_phase(np.linalg.qr(group_a.T)[0].T).T)
        if _span_distance(span_a.basis, group_p) > np.sqrt(2.0 * len(idx_a)) * tol.eps_orth:
            return failed(
                f"qudit groups of block {idx_a} do not span one "
                f"common subspace of dimension {len(idx_a)}"
            )
        blocks.append(
            PairBlock(
                a=qubits[idx_a[0]],
                a_perp=qubits[idx_p[0]],
                group_A=tuple(group_a),
                group_Aperp=tuple(group_p),
                subspace=span_a,
                multiplicity=len(idx_a),
                a_indices=idx_a,
                a_perp_indices=idx_p,
                groups_coincide=_same_ray_sets(group_a, group_p, tol),
            )
        )

    blocks.sort(key=lambda blk: (-blk.multiplicity, blk.a_indices[0]))
    if sum(blk.multiplicity for blk in blocks) != basis.n:
        return failed("block multiplicities do not sum to n")
    basis_b1 = tuple(v for blk in blocks for v in blk.group_A)
    basis_b2 = tuple(v for blk in blocks for v in blk.group_Aperp)
    for name, family in (("B1(n)", basis_b1), ("B2(n)", basis_b2)):
        res = gram_residual(family)
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
