"""Constructors for product bases of C^2 (x) C^n.

`generate_from_type` realizes every partition of n <= MAX_N as a product
basis in closed form: C^n is split into orthogonal subspaces of the
prescribed dimensions (coordinate blocks, or column blocks of a Haar unitary
drawn by QR), and each subspace gets a qubit ray pair from one great circle
on which all rays and their partners sit pi/(2r) apart.  Nothing searches or
retries.  `named_family` builds the small catalog
of fixed bases in d = 4 and d = 6 (including the mutually unbiased triples)
plus the four-vector set that groups cleanly without being a basis.

All randomness flows through counter-based Philox streams keyed by the caller
seed, so identical inputs reproduce identical bases bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analyzer import ProductBasis, mu_check
from .numerics import (
    DEFAULT_TOL,
    OMEGA,
    OMEGA2,
    Tolerances,
    as_vector,
    canonical_phase,
    gram_residual,
)
from .partitions import MAX_N, Partition
from .product_space import kron, qubit_orthogonal

__all__ = [
    "SKEW_MARGIN",
    "FIXED_QUBIT_STATES",
    "PAULI_EIGENBASES",
    "MUB6_FACTORS",
    "TypeSpec",
    "FamilyParams",
    "FAMILY_TAGS",
    "random_unitary",
    "generate_from_type",
    "named_family",
]

# The overlap moduli of FIXED_QUBIT_STATES lie inside [SKEW_MARGIN,
# 1 - SKEW_MARGIN]: never orthogonal, never parallel.
SKEW_MARGIN = 0.1

_SUBSPACE_MODES = ("identity-blocks", "haar-random")
_PAIR_MODES = ("equal-groups", "independent-groups")
_QUBIT_MODES = ("fixed-list", "random-skew")


def _bloch_state(theta_deg: float, phi_deg: float) -> np.ndarray:
    theta = math.radians(theta_deg)
    phi = math.radians(phi_deg)
    return np.array(
        [math.cos(theta / 2.0), np.exp(1j * phi) * math.sin(theta / 2.0)],
        dtype=np.complex128,
    )


# Deterministic pairwise-skew qubit states for the fixed-list mode (overlaps
# all inside [0.216, 0.820]); enough for seven blocks.
FIXED_QUBIT_STATES = tuple(
    _bloch_state(theta, phi)
    for theta, phi in ((0, 0), (70, 0), (70, 120), (70, 240), (135, 60), (135, 180), (135, 300))
)

# z/x/y eigenbases of C^2, each listed as (plus, minus).
PAULI_EIGENBASES = {
    "z": (
        np.array([1.0, 0.0], dtype=np.complex128),
        np.array([0.0, 1.0], dtype=np.complex128),
    ),
    "x": (
        np.array([1.0, 1.0], dtype=np.complex128) / math.sqrt(2.0),
        np.array([1.0, -1.0], dtype=np.complex128) / math.sqrt(2.0),
    ),
    "y": (
        np.array([1.0, 1.0j], dtype=np.complex128) / math.sqrt(2.0),
        np.array([1.0, -1.0j], dtype=np.complex128) / math.sqrt(2.0),
    ),
}

# The two 6-dimensional mutually unbiased partners of the identity basis,
# as pairs of factor matrices (qubit factor, qudit factor).
MUB6_FACTORS = (
    (
        np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2.0),
        np.array([[1, 1, 1], [1, OMEGA, OMEGA2], [1, OMEGA2, OMEGA]], dtype=np.complex128)
        / math.sqrt(3.0),
    ),
    (
        np.array([[1, 1], [1j, -1j]], dtype=np.complex128) / math.sqrt(2.0),
        np.array([[1, 1, 1], [OMEGA, OMEGA2, 1], [OMEGA, 1, OMEGA2]], dtype=np.complex128)
        / math.sqrt(3.0),
    ),
)


@dataclass(frozen=True)
class TypeSpec:
    """Recipe for `generate_from_type`."""

    n: int
    partition: Partition
    seed: int = 0
    subspace_mode: str = "haar-random"
    pair_mode: str = "independent-groups"
    qubit_mode: str = "random-skew"

    def __post_init__(self):
        if not isinstance(self.n, int) or not 1 <= self.n <= MAX_N:
            raise ValueError(f"n must be an integer in [1, {MAX_N}], got {self.n!r}")
        if self.partition.n != self.n:
            raise ValueError(f"partition {self.partition} does not sum to n = {self.n}")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        if self.subspace_mode not in _SUBSPACE_MODES:
            raise ValueError(f"subspace_mode must be one of {_SUBSPACE_MODES}")
        if self.pair_mode not in _PAIR_MODES:
            raise ValueError(f"pair_mode must be one of {_PAIR_MODES}")
        if self.qubit_mode not in _QUBIT_MODES:
            raise ValueError(f"qubit_mode must be one of {_QUBIT_MODES}")


@dataclass(frozen=True)
class FamilyParams:
    """Parameters for `named_family`.

    unitary_params supplies (alpha, beta) where the family rotates a block
    basis; qubit_states overrides the family's default qubit rays; g_bases
    supplies the six qudit bases of the general unbiased triple, keyed
    z0, z1, x0, x1, y0, y1.
    """

    family: str
    unitary_params: tuple[complex, ...] = ()
    qubit_states: tuple | None = None
    g_bases: dict | None = None


def _haar_from_rng(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar unitary: QR of iid standard complex Gaussians, with each column's
    phase fixed by the diagonal of R (Mezzadri, Notices AMS 54, 2007)."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def random_unitary(d: int, seed: int) -> np.ndarray:
    """A d x d Haar-distributed unitary, deterministic for a fixed seed."""
    if not isinstance(d, int) or d < 1:
        raise ValueError(f"dimension must be a positive integer, got {d!r}")
    rng = np.random.Generator(np.random.Philox(seed))
    return _haar_from_rng(d, rng)


def _skew_qubits(r: int, mode: str, rng: np.random.Generator) -> np.ndarray:
    """r qubit rays (rows of an r x 2 array), no two parallel or orthogonal.

    random-skew places them on one great circle at theta_k = k*pi/(2r), turned
    together by a seeded 2 x 2 Haar unitary.  With their orthogonal partners
    the rays then sit pi/(2r) apart, so distinct rays have 1 - |<a|b>| >=
    1 - cos(pi/(2r)) and a ray meets every non-partner with |overlap| >=
    sin(pi/(2r)): about 3e-4 and 0.025 at r = 64, far from the tolerances.
    """
    if mode == "fixed-list":
        if r > len(FIXED_QUBIT_STATES):
            raise ValueError(
                f"fixed-list supports at most {len(FIXED_QUBIT_STATES)} blocks, need {r}"
            )
        return np.array(FIXED_QUBIT_STATES[:r])
    theta = np.arange(r) * (math.pi / (2 * r))
    rays = np.stack([np.cos(theta), np.sin(theta)], axis=1) @ _haar_from_rng(2, rng).T
    return canonical_phase(rays)


def _block_rows(a: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Rows kron(a, c) for every column c of `cols`."""
    return np.einsum("i,kj->jik", a, cols).reshape(cols.shape[1], -1)


def generate_from_type(spec: TypeSpec, tol: Tolerances = DEFAULT_TOL) -> ProductBasis:
    """Product basis whose classification recovers exactly spec.partition.

    C^n is split into orthogonal subspaces with the partition's dimensions
    (coordinate blocks, or column blocks of one Haar unitary).  Each subspace
    gets an orthonormal basis for the qubit-a side and either the same basis
    or a Haar-rotated copy for the qubit-a-perp side.  The qubit rays of the
    blocks are great-circle rays (see `_skew_qubits`), so no two blocks can
    merge; every step is closed-form.
    """
    n, parts = spec.n, tuple(spec.partition)
    rng = np.random.Generator(np.random.Philox(spec.seed))

    if spec.subspace_mode == "identity-blocks":
        frame = np.eye(n, dtype=np.complex128)
    else:
        frame = _haar_from_rng(n, rng)
    qubit_a = _skew_qubits(len(parts), spec.qubit_mode, rng)
    qubit_p = canonical_phase(np.stack([-qubit_a[:, 1].conj(), qubit_a[:, 0].conj()], axis=1))

    rows = []
    offsets = np.cumsum((0,) + parts)
    for a, ap, off, m in zip(qubit_a, qubit_p, offsets, parts):
        base = frame[:, off : off + m]
        rows.append(_block_rows(a, base))
        if spec.pair_mode == "independent-groups":
            base = base @ _haar_from_rng(m, rng)
        rows.append(_block_rows(ap, base))

    meta = {
        "partition": str(spec.partition),
        "seed": spec.seed,
        "subspace_mode": spec.subspace_mode,
        "pair_mode": spec.pair_mode,
        "qubit_mode": spec.qubit_mode,
    }
    return ProductBasis(n, np.concatenate(rows), tol=tol, meta=meta)


def _basis_from_factors(n: int, pairs, meta=None, tol: Tolerances = DEFAULT_TOL) -> ProductBasis:
    """Assemble a ProductBasis from (qubit, qudit) factor pairs."""
    return ProductBasis(n, [kron(a, b) for a, b in pairs], tol=tol, meta=meta)


def _qubit_pair(state) -> tuple[np.ndarray, np.ndarray]:
    a = as_vector(state)
    return a, qubit_orthogonal(a)


def _default_qubits(params: FamilyParams, count: int, fallback) -> list[np.ndarray]:
    states = params.qubit_states if params.qubit_states is not None else fallback
    states = [as_vector(s) for s in states]
    if len(states) != count:
        raise ValueError(f"family {params.family!r} needs {count} qubit states, got {len(states)}")
    return states


_I2 = np.eye(2, dtype=np.complex128)
_I3 = np.eye(3, dtype=np.complex128)


def _family_d4_B0(params: FamilyParams, tol: Tolerances):
    a1, a2 = _default_qubits(params, 2, (PAULI_EIGENBASES["z"][0], PAULI_EIGENBASES["x"][0]))
    a1, a1p = _qubit_pair(a1)
    a2, a2p = _qubit_pair(a2)
    b1, b1p = _I2[:, 0], _I2[:, 1]
    pairs = [(a1, b1), (a1p, b1), (a2, b1p), (a2p, b1p)]
    return _basis_from_factors(2, pairs, meta={"family": "d4_B0"}, tol=tol)


def _family_d4_B1(params: FamilyParams, tol: Tolerances):
    (a,) = _default_qubits(params, 1, (PAULI_EIGENBASES["z"][0],))
    a, ap = _qubit_pair(a)
    b1, b1p = _I2[:, 0], _I2[:, 1]
    b2, b2p = PAULI_EIGENBASES["x"]
    pairs = [(a, b1), (a, b1p), (ap, b2), (ap, b2p)]
    return _basis_from_factors(2, pairs, meta={"family": "d4_B1"}, tol=tol)


def _family_d4_B2(params: FamilyParams, tol: Tolerances):
    (a,) = _default_qubits(params, 1, (PAULI_EIGENBASES["z"][0],))
    a, ap = _qubit_pair(a)
    b, bp = _I2[:, 0], _I2[:, 1]
    pairs = [(a, b), (a, bp), (ap, b), (ap, bp)]
    return _basis_from_factors(2, pairs, meta={"family": "d4_B2"}, tol=tol)


def _family_d6_B0(params: FamilyParams, tol: Tolerances):
    defaults = (PAULI_EIGENBASES["z"][0], PAULI_EIGENBASES["x"][0], PAULI_EIGENBASES["y"][0])
    qubits = _default_qubits(params, 3, defaults)
    pairs = []
    for k, state in enumerate(qubits):
        a, ap = _qubit_pair(state)
        pairs.append((a, _I3[:, k]))
        pairs.append((ap, _I3[:, k]))
    return _basis_from_factors(3, pairs, meta={"family": "d6_B0"}, tol=tol)


def _family_d6_B1(params: FamilyParams, tol: Tolerances):
    if params.unitary_params:
        if len(params.unitary_params) != 2:
            raise ValueError("d6_B1 takes exactly two unitary parameters (alpha, beta)")
        alpha, beta = (complex(x) for x in params.unitary_params)
    else:
        alpha = beta = complex(1.0 / math.sqrt(2.0))
    if abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) > 1e-12:
        raise ValueError(f"|alpha|^2 + |beta|^2 must be 1, got {abs(alpha)**2 + abs(beta)**2!r}")
    a1, a2 = _default_qubits(params, 2, (PAULI_EIGENBASES["z"][0], PAULI_EIGENBASES["x"][0]))
    a1, a1p = _qubit_pair(a1)
    a2, a2p = _qubit_pair(a2)
    b, bp, bpp = _I3[:, 0], _I3[:, 1], _I3[:, 2]
    vb = alpha * b + beta * bp
    vbp = np.conj(beta) * b - np.conj(alpha) * bp
    pairs = [(a1, b), (a1, bp), (a1p, vb), (a1p, vbp), (a2, bpp), (a2p, bpp)]
    return _basis_from_factors(3, pairs, meta={"family": "d6_B1"}, tol=tol)


def _family_d6_B2(params: FamilyParams, tol: Tolerances):
    (a,) = _default_qubits(params, 1, (PAULI_EIGENBASES["z"][0],))
    a, ap = _qubit_pair(a)
    fourier = MUB6_FACTORS[0][1]
    pairs = [(a, _I3[:, k]) for k in range(3)]
    pairs += [(ap, fourier[:, k]) for k in range(3)]
    return _basis_from_factors(3, pairs, meta={"family": "d6_B2"}, tol=tol)


def _family_d6_B3(params: FamilyParams, tol: Tolerances):
    (a,) = _default_qubits(params, 1, (PAULI_EIGENBASES["z"][0],))
    a, ap = _qubit_pair(a)
    pairs = [(a, _I3[:, k]) for k in range(3)]
    pairs += [(ap, _I3[:, k]) for k in range(3)]
    return _basis_from_factors(3, pairs, meta={"family": "d6_B3"}, tol=tol)


def _family_d4_mupb_triple(params: FamilyParams, tol: Tolerances):
    bases = []
    for label in ("z", "x", "y"):
        plus, minus = PAULI_EIGENBASES[label]
        pairs = [(u, v) for u in (plus, minus) for v in (plus, minus)]
        bases.append(
            _basis_from_factors(2, pairs, meta={"family": "d4_mupb_triple", "axis": label}, tol=tol)
        )
    return bases


def _family_d6_mub_triple(params: FamilyParams, tol: Tolerances):
    bases = [
        _basis_from_factors(
            3,
            [(_I2[:, j], _I3[:, k]) for j in range(2) for k in range(3)],
            meta={"family": "d6_mub_triple", "index": 0},
            tol=tol,
        )
    ]
    for idx, (f2, f3) in enumerate(MUB6_FACTORS, start=1):
        pairs = [(f2[:, j], f3[:, k]) for j in range(2) for k in range(3)]
        bases.append(
            _basis_from_factors(3, pairs, meta={"family": "d6_mub_triple", "index": idx}, tol=tol)
        )
    return bases


def _family_general_mupb_triple(params: FamilyParams, tol: Tolerances):
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
    bases = []
    for label in ("z", "x", "y"):
        plus, minus = PAULI_EIGENBASES[label]
        pairs = [(plus, v) for v in g[f"{label}0"]] + [(minus, v) for v in g[f"{label}1"]]
        bases.append(
            _basis_from_factors(
                n, pairs, meta={"family": "general_mupb_triple", "axis": label}, tol=tol
            )
        )
    for i in range(3):
        for j in range(i + 1, 3):
            ok, dev = mu_check(bases[i].vectors, bases[j].vectors, tol)
            if not ok:
                raise ValueError(
                    f"supplied g_bases do not give unbiased product bases: "
                    f"pair ({i}, {j}) deviates by {dev:.6e}"
                )
    return bases


def _family_counterexample(params: FamilyParams, tol: Tolerances):
    """Four product vectors that group cleanly yet are not orthonormal.

    Both factor multisets split into orthonormal pairs, but the cross terms
    between the skew pairs leave Gram off-diagonals of 1/2.
    """
    a1, b1 = PAULI_EIGENBASES["z"][0], PAULI_EIGENBASES["z"][0]
    a2, b2 = PAULI_EIGENBASES["x"][0], PAULI_EIGENBASES["x"][0]
    a1, a1p = _qubit_pair(a1)
    a2, a2p = _qubit_pair(a2)
    b1p = qubit_orthogonal(b1)
    b2p = qubit_orthogonal(b2)
    pairs = [(a1, b1), (a1p, b1p), (a2, b2), (a2p, b2p)]
    return _basis_from_factors(2, pairs, meta={"family": "counterexample_1_4"}, tol=tol)


_FAMILY_BUILDERS = {
    "d4_B0": _family_d4_B0,
    "d4_B1": _family_d4_B1,
    "d4_B2": _family_d4_B2,
    "d6_B0": _family_d6_B0,
    "d6_B1": _family_d6_B1,
    "d6_B2": _family_d6_B2,
    "d6_B3": _family_d6_B3,
    "d4_mupb_triple": _family_d4_mupb_triple,
    "d6_mub_triple": _family_d6_mub_triple,
    "general_mupb_triple": _family_general_mupb_triple,
    "counterexample_1_4": _family_counterexample,
}

FAMILY_TAGS = tuple(sorted(_FAMILY_BUILDERS))


def named_family(params: FamilyParams, tol: Tolerances = DEFAULT_TOL):
    """Build a catalog basis (or list of bases, for the unbiased triples)."""
    try:
        builder = _FAMILY_BUILDERS[params.family]
    except KeyError:
        raise ValueError(f"unknown family tag {params.family!r}; known: {FAMILY_TAGS}") from None
    return builder(params, tol)
