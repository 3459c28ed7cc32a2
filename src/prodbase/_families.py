"""The builders of `named_family`'s catalog, imported by it on its first call.

`_table_family` assembles a basis of `generator._FAMILY_TABLE` from its row names,
`_assemble_triple` a triple of product bases on the Pauli eigenbases, and
`_general_mupb_triple` the unbiased triple from caller-supplied qudit bases, which it
checks.  Only `family` runs them, so `generate`, `verify`, `classify`, `mub-check` and
`partitions` never compile them; the tags, the table and the constants that the CLI's
parser and the package export stay in `generator`.
"""

from __future__ import annotations

import math

import numpy as np

from .analyzer import ProductBasis, mu_check
from .generator import _FAMILY_TABLE, MUB6_FACTORS, PAULI_EIGENBASES, FamilyParams
from .numerics import DEFAULT_TOL, Tolerances, gram_residual
from .product_space import kron, qubit_orthogonal


def _basis_from_factors(n: int, pairs, meta=None, tol: Tolerances = DEFAULT_TOL) -> ProductBasis:
    """Assemble a ProductBasis from (qubit, qudit) factor pairs."""
    return ProductBasis(n, [kron(a, b) for a, b in pairs], tol=tol, meta=meta)


def _table_family(params: FamilyParams, tol: Tolerances) -> ProductBasis:
    """Assemble a basis of _FAMILY_TABLE from its names, on params.qubit_states when
    given and otherwise on the +1 eigenvectors of the row's axes."""
    tag = params.family
    n, axes, rows = _FAMILY_TABLE[tag]
    states = params.qubit_states
    if states is None:
        states = [PAULI_EIGENBASES[axis][0] for axis in axes]
    if len(states) != len(axes):
        raise ValueError(f"family {tag!r} needs {len(axes)} qubit states, got {len(states)}")
    e = np.eye(n, dtype=np.complex128)
    vectors = {f"e{j}": e[:, j] for j in range(n)}
    for k, state in enumerate(states):
        a = np.asarray(state, dtype=np.complex128)
        if a.shape != (2,) or not abs(np.vdot(a, a).real - 1.0) <= tol.eps_unit:
            raise ValueError(f"family {tag!r}: qubit state {k} is not a unit vector of C^2")
        vectors[f"a{k}"], vectors[f"p{k}"] = a, qubit_orthogonal(a)
    if n == 2:
        vectors["x0"], vectors["x1"] = PAULI_EIGENBASES["x"]
    else:
        vectors.update((f"f{j}", MUB6_FACTORS[0][1][:, j]) for j in range(n))
    if tag == "d6_B1":  # e0 and e1 turned by (alpha, beta): the one computed qudit pair
        alpha = beta = complex(1.0 / math.sqrt(2.0))
        if params.unitary_params:
            if len(params.unitary_params) != 2:
                raise ValueError("d6_B1 takes exactly two unitary parameters (alpha, beta)")
            alpha, beta = (complex(x) for x in params.unitary_params)
        norm2 = abs(alpha) ** 2 + abs(beta) ** 2
        if not abs(norm2 - 1.0) <= 1e-12:  # NaN fails here too
            raise ValueError(f"|alpha|^2 + |beta|^2 must be 1, got {norm2!r}")
        vectors["u0"] = alpha * e[:, 0] + beta * e[:, 1]
        vectors["u1"] = np.conj(beta) * e[:, 0] - np.conj(alpha) * e[:, 1]
    pairs = [[vectors[name] for name in row.split()] for row in rows.split(", ")]
    return _basis_from_factors(n, pairs, meta={"family": tag}, tol=tol)


def _assemble_triple(sides, tag: str, key: str, labels, tol: Tolerances) -> list[ProductBasis]:
    """Per Pauli axis z, x, y: its plus state with each row of its first qudit basis in
    `sides`, its minus state with each row of its second, and meta {"family": tag, key: label}."""
    bases = []
    for axis, label, (g0, g1) in zip("zxy", labels, sides):
        plus, minus = PAULI_EIGENBASES[axis]
        pairs = [(plus, v) for v in g0] + [(minus, v) for v in g1]
        bases.append(_basis_from_factors(len(g0), pairs, meta={"family": tag, key: label}, tol=tol))
    return bases


def _general_mupb_triple(params: FamilyParams, tol: Tolerances) -> list[ProductBasis]:
    """Unbiased triple of product bases from user-supplied qudit bases.

    g_bases maps z0, z1, x0, x1, y0, y1 to orthonormal bases of C^n.  The
    construction is only assembled, never completed: the caller's bases must
    already make the three product bases pairwise unbiased, which is checked
    and enforced here.
    """
    if not params.g_bases:
        raise ValueError("general_mupb_triple requires g_bases with keys z0,z1,x0,x1,y0,y1")
    keys = ("z0", "z1", "x0", "x1", "y0", "y1")
    if set(params.g_bases) != set(keys):
        raise ValueError(f"g_bases must have exactly the keys {keys}")
    g = {key: np.asarray(params.g_bases[key], dtype=np.complex128) for key in keys}
    n = len(g["z0"])
    for key in keys:
        if g[key].shape != (n, n):
            raise ValueError(f"g_bases[{key!r}] must be n vectors of dim n")
        res = gram_residual(g[key])
        if res > tol.eps_orth:
            raise ValueError(f"g_bases[{key!r}] is not orthonormal (residual {res:.6e})")
    sides = [(g[f"{axis}0"], g[f"{axis}1"]) for axis in "zxy"]
    bases = _assemble_triple(sides, "general_mupb_triple", "axis", "zxy", tol)
    for i in range(3):
        for j in range(i + 1, 3):
            ok, dev = mu_check(bases[i].vectors, bases[j].vectors, tol)
            if not ok:
                raise ValueError(
                    f"supplied g_bases do not give unbiased product bases: "
                    f"pair ({i}, {j}) deviates by {dev:.6e}"
                )
    return bases
