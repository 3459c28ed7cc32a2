"""The stage table of `verify` and `classify`, and the graph helpers that it runs on.

`_stages` is one lazy run of `_Stage` records, from the product stage to B2(n), each
measured when its record is read; `_PHRASES` formats a failing record's diagnostic.
The ray classes of the qubit factors are the connected components of the ray test
(`_component_labels`), and the grouping check's two-colouring is one more labelling, on
a double cover.  `classify`, `check_pairwise_condition` and `check_groupable` import what
they run from here on their first call, so that a command that runs none of them, such as
`generate`, `family`, `partitions` or `mub-check`, never compiles this module.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from .analyzer import PairBlock, ProductBasis
from .numerics import Subspace, Tolerances, _Subspace, canonical_phase


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


def _span_distance(q: np.ndarray, rows: np.ndarray):
    """sqrt(2) ||(I - Q Q^H) R^T||_F, per matrix of a stack: for orthonormal rows R, the
    Frobenius distance between the projectors onto span(Q) and span(R), with no n x n
    matrix formed."""
    cols = rows.swapaxes(-1, -2)
    outside = cols - q @ (q.conj().swapaxes(-1, -2) @ cols)
    return np.sqrt(2.0) * np.linalg.norm(outside, axis=(-2, -1))
