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
import itertools
from typing import NamedTuple

import numpy as np

from .numerics import (
    DEFAULT_TOL,
    Subspace,
    Tolerances,
    _exponent,
    _Subspace,
    canonical_phase,
    gram_residual,
    inner,
)
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


class _Stage(NamedTuple):
    """A decision of `_stages` or of `classify`'s Gram check: whether `value`, measured at
    `index`, is within `threshold`.  A failing stage holds its first failure, the one its
    diagnostic names, and a passing stage its largest value."""

    name: str
    value: float | None
    threshold: float | None
    index: object
    passed: bool


_PHRASES = {  # the diagnostic of each stage that classify reads, from its failing record
    "Gram": "not orthonormal: Gram residual {value:.6e} exceeds eps_orth",
    "product": "vector {index} is not a product state (sigma2 {value:.6e})",
    "rays": "{index}",  # the message of _ray_classes
    "cardinality": "paired ray classes {index[0]} and {index[1]} have unequal cardinalities",
    "group A": "qudit {name} of block {index[0]} is not orthonormal (residual {value:.6e})",
    "group A-perp": "qudit {name} of block {index[0]} is not orthonormal (residual {value:.6e})",
    "span": "qudit groups of block {index[0]} do not span one "
    "common subspace of dimension {index[2]}",
    "B1(n)": "{name} is not an orthonormal basis of C^n (residual {value:.6e})",
    "B2(n)": "{name} is not an orthonormal basis of C^n (residual {value:.6e})",
}


def _measured(name: str, values, threshold) -> _Stage:
    """The stage of `values` against `threshold`, a number or one per value."""
    values = np.asarray(values)
    over = values > threshold
    k = int(over.argmax())
    if passed := not over.flat[k]:
        k = int(values.argmax())
    limit = threshold[k] if isinstance(threshold, np.ndarray) else threshold
    return _Stage(name, float(values.flat[k]), float(limit), k, passed)


def _stages(basis: ProductBasis, tol: Tolerances):
    """The checks after Gram as `_Stage` records in a fixed order, each run when its record
    is read: product (max sigma_2), ray classes and partners, cardinality when it passes,
    then group A, group A-perp and span, with a failing cardinality among them, B1(n) and
    B2(n).  A run is read up to its first failing record; one through B2(n) returns the
    blocks and the read-only rows of B1(n) and B2(n)."""
    factors, n = basis._factors, basis.n
    yield _measured("product", factors.sigma2, tol.eps_rank)
    try:
        classes, partner = _ray_classes(factors.qubit_overlaps, tol)
    except ValueError as exc:
        yield _Stage("rays", None, tol.eps_ray, str(exc), False)
        return
    yield _Stage("rays", None, tol.eps_ray, None, True)
    # each block as its A class, its A-perp class and the size of its A class
    pairs = [(classes[c], classes[e], len(classes[c])) for c, e in enumerate(partner) if c < e]
    cardinality = _measured("cardinality", [abs(m - len(p)) for _, p, m in pairs], 0)
    if cardinality.passed:  # read before any block is measured
        yield cardinality._replace(index=pairs[cardinality.index])

    # The report names the first failing block in class order, at its first failing stage,
    # so only the blocks before an unequal pair are measured, those of one size together on
    # the rows of B1(n) and B2(n): larger blocks first, then class order.
    sizes, overlaps = {}, factors.qudit_overlaps
    for j, (*_, m) in enumerate(pairs[: None if cardinality.passed else cardinality.index]):
        sizes.setdefault(m, []).append(j)
    runs = [(m, sizes[m]) for m in sorted(sizes, reverse=True)]
    sides = [[k for _, js in runs for j in js for k in pairs[j][side]] for side in (0, 1)]
    sides = np.array(sides, dtype=np.intp)
    families = factors.qudits[sides]
    families.flags.writeable = False
    measures, stacks, start = np.zeros((3, len(pairs))), [], 0
    for m, js in runs:
        stop = start + m * len(js)
        ia, ip = sides[:, start:stop].reshape(2, len(js), m)
        group_a, group_p = families[:, start:stop].reshape(2, len(js), m, n)
        gram = (np.abs(overlaps[i[:, :, None], i[:, None]] - np.eye(m)) for i in (ia, ip))
        measures[0, js], measures[1, js] = (g.max(axis=(1, 2)) for g in gram)
        # Q is orthonormal to roundoff (Householder), so its Subspace skips the public
        # check; where group A passes its Gram check, Q spans it with full rank
        q = np.linalg.qr(group_a.transpose(0, 2, 1))[0].transpose(0, 2, 1)
        q = canonical_phase(q.reshape(-1, n)).reshape(q.shape).transpose(0, 2, 1)
        q.flags.writeable = False
        measures[2, js] = _span_distance(q, group_p)
        # the groups coincide as sets of rays when their near-parallel pairs form a permutation
        parallel = _same_ray(overlaps[ia[:, :, None], ip[:, None]], tol)
        same = ((parallel.sum(axis=1) == 1) & (parallel.sum(axis=2) == 1)).all(axis=1).tolist()
        stacks.append((m, js, group_a, group_p, q, same))
        start = stop
    limits = (tol.eps_orth, tol.eps_orth, np.sqrt([2.0 * m for *_, m in pairs]) * tol.eps_orth)
    checks = [*map(_measured, ("group A", "group A-perp", "span"), measures, limits)]
    checks += [] if cardinality.passed else [cardinality]
    checks = [stage._replace(index=pairs[stage.index]) for stage in checks]
    yield from sorted(checks, key=lambda s: (s.passed, () if s.passed else s.index))
    gram = np.abs(overlaps[sides[:, :, None], sides[:, None]] - np.eye(n)).max(axis=(1, 2))
    yield from map(_measured, ("B1(n)", "B2(n)"), gram, (tol.eps_orth,) * 2)
    blocks = []
    for m, js, group_a, group_p, q, same in stacks:
        for t, (idx_a, idx_p, _) in enumerate(pairs[j] for j in js):
            a, a_perp = factors.qubits[idx_a[0]], factors.qubits[idx_p[0]]
            groups, span = (group_a[t], group_p[t]), _Subspace.__new__(Subspace, n, q[t])
            blocks.append(PairBlock(a, a_perp, *groups, span, m, idx_a, idx_p, same[t]))
    return tuple(blocks), families


def _passes(basis: ProductBasis, tol: Tolerances, count: int) -> bool:
    """Whether the first `count` stages pass; ValueError names the first vector that is not
    a product."""
    stages = itertools.islice(_stages(basis, tol), count)
    failed = next((stage for stage in stages if not stage.passed), None)
    if failed is not None and failed.name == "product":
        raise ValueError(_PHRASES["product"].format(**failed._asdict()))
    return failed is None


def check_pairwise_condition(basis: ProductBasis, tol: Tolerances = DEFAULT_TOL) -> bool:
    """For every pair i != j, at least one factor overlap vanishes."""
    _passes(basis, tol, 1)  # ValueError unless every vector is a product
    factors = basis._factors
    smaller = np.minimum(factors.qubit_overlaps, factors.qudit_overlaps)
    np.fill_diagonal(smaller, 0.0)
    return _measured("pairwise", smaller, tol.eps_orth).passed


def _same_ray(overlap: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Which overlap moduli |<x|y>| of unit vectors lie within eps_ray of 1: x and y one ray."""
    return overlap >= 1.0 - tol.eps_ray


def _ray_classes(overlap: np.ndarray, tol: Tolerances):
    """Ray classes of the qubit factors, from their overlap moduli, and each
    class's orthogonal partner.

    The classes are the connected components of the ray-equality graph
    (|overlap| >= 1 - eps_ray), as tuples of basis positions ordered by their
    first member, however wide.  In C^2, |<a_perp|b>|^2 = 1 - |<a|b>|^2, so b
    is one ray with a_perp exactly when |<a|b>|^2 <= eps_ray * (2 - eps_ray);
    partner[c] is the one other class with a member in that relation to one of
    class c.  Raises ValueError when a class has no partner or more than one.
    """
    labels = _component_labels(_same_ray(overlap, tol))
    firsts = np.flatnonzero(labels == np.arange(len(labels)))
    order = np.argsort(labels, kind="stable").tolist()
    ends = np.cumsum(np.bincount(labels)[firsts]).tolist()
    classes = [tuple(order[start:end]) for start, end in zip([0, *ends], ends)]
    # the lowest and the highest label of the other classes that each class meets, in a
    # relation made symmetric, so that the partners pair up one to one
    near_perp = overlap * overlap <= tol.eps_ray * (2.0 - tol.eps_ray)
    meets = (near_perp | near_perp.T) & (labels[:, None] != labels)
    size = len(labels)
    low, high = np.full(size, size), np.full(size, -1)
    np.minimum.at(low, labels, np.where(meets, labels, size).min(axis=1))
    np.maximum.at(high, labels, np.where(meets, labels, -1).max(axis=1))
    low, high = low[firsts], high[firsts]
    unpaired = np.flatnonzero(low != high)
    if unpaired.size:
        c = int(unpaired[0])
        if high[c] < 0:
            raise ValueError(f"ray class {classes[c]} has no orthogonal partner class")
        one, other = (classes[k] for k in np.searchsorted(firsts, (low[c], high[c])))
        raise ValueError(
            f"ambiguous partner for ray class {classes[c]}: classes {one} and {other} "
            "both meet it at |overlap|^2 <= eps_ray*(2 - eps_ray)"
        )
    return classes, np.searchsorted(firsts, low).tolist()


def _component_labels(adjacent: np.ndarray) -> np.ndarray:
    """Each vertex's connected component, labelled by its first vertex.  Each round, all
    vertices at once, a vertex takes the smallest label among itself and its neighbours;
    until that changes nothing, each vertex then passes its new label to the vertex its old
    label names, and takes the label of the vertex its new label names.  These two steps keep
    the rounds near log2 of the vertex count, where the first alone moves a label one edge
    per round."""
    labels = np.arange(len(adjacent))
    while True:
        smallest = np.minimum(labels, np.where(adjacent, labels, len(labels)).min(axis=1))
        if (smallest == labels).all():
            return labels
        np.minimum.at(smallest, labels, smallest)
        labels = smallest[smallest]


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
    cleanly yet are not orthonormal in C^(2n).  In C^2 the rays orthogonal to
    a ray are one ray, so the qubit factors pair up exactly when each ray class
    has one partner class of equal size, which the ray test at eps_ray puts on
    that orthogonal ray (`_ray_classes`).

    Non-orthogonal qudit factors must land in different groups, so a split
    is a 2-colouring of the graph of non-orthogonal pairs.  Any such
    colouring is balanced: n + 1 pairwise-orthogonal unit vectors in C^n
    would have a Gram matrix within n * eps_orth < 1 of the identity (for
    eps_orth < 1e-3 and n < 1000), hence nonsingular, which is impossible;
    so each colour holds at most n of the 2n vectors, that is exactly n.
    """
    return _passes(basis, tol, 3) and _two_colourable(basis._factors.qudit_overlaps > tol.eps_orth)


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
