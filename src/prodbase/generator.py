"""Constructors for product bases of C^2 (x) C^n.

`generate_from_type` realizes every partition of n <= MAX_N as a product
basis in closed form: C^n is split into orthogonal subspaces of the
prescribed dimensions (coordinate blocks, or column blocks of a Haar unitary
drawn by QR), and each subspace gets a qubit ray pair from one great circle
on which all rays and their partners sit pi/(2r) apart.  With independent
groups each block's A-perp side is turned by its own Haar unitary; the turns
are drawn block by block in stream order and factored with one stacked QR per
block size.  Nothing searches or retries.  `named_family` builds the small
catalog of fixed bases in d = 4 and d = 6 (including the mutually unbiased
triples) plus the four-vector set that groups cleanly without being a basis.

All randomness flows through counter-based Philox streams keyed by the caller
seed, so identical inputs reproduce identical bases bit for bit.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .analyzer import ProductBasis, mu_check
from .numerics import (
    DEFAULT_TOL,
    OMEGA,
    OMEGA2,
    Tolerances,
    canonical_phase,
    gram_residual,
)
from .partitions import Partition, _check_range
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


def _check_seed(seed) -> None:
    """Philox's key range; a bool or None, which Philox would take, is refused."""
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
        raise ValueError("seed must be an unsigned 64-bit integer")


class _TypeSpec(NamedTuple):
    n: int
    partition: Partition
    seed: int = 0
    subspace_mode: str = "haar-random"
    pair_mode: str = "independent-groups"
    qubit_mode: str = "random-skew"


class TypeSpec(_TypeSpec):
    """Recipe for `generate_from_type`."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so that _replace checks too

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _check_range(self.n)
        partition = Partition(self.partition)  # a tuple of parts becomes a Partition
        if partition.n != self.n:
            raise ValueError(f"partition {partition} does not sum to n = {self.n}")
        _check_seed(self.seed)
        if self.subspace_mode not in _SUBSPACE_MODES:
            raise ValueError(f"subspace_mode must be one of {_SUBSPACE_MODES}")
        if self.pair_mode not in _PAIR_MODES:
            raise ValueError(f"pair_mode must be one of {_PAIR_MODES}")
        if self.qubit_mode not in _QUBIT_MODES:
            raise ValueError(f"qubit_mode must be one of {_QUBIT_MODES}")
        return self if type(self.partition) is Partition else self._replace(partition=partition)


class FamilyParams(NamedTuple):
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


def _haar_from_rng(d: int, rng: np.random.Generator, count: tuple = ()) -> np.ndarray:
    """A (*count, d, d) stack of Haar unitaries: QR of iid standard complex Gaussians,
    with each column's phase fixed by the diagonal of R (Mezzadri, Notices AMS 54,
    2007).  The normals fill one matrix after another, real part then imaginary part,
    so a stack draws the stream that its unitaries drawn one by one would."""
    z = rng.standard_normal((*count, 2, d, d))
    q, r = np.linalg.qr(z[..., 0, :, :] + 1j * z[..., 1, :, :])
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def random_unitary(d: int, seed: int) -> np.ndarray:
    """A d x d Haar-distributed unitary, deterministic for a fixed seed."""
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:
        raise ValueError(f"dimension must be a positive integer, got {d!r}")
    _check_seed(seed)
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


def generate_from_type(spec: TypeSpec, tol: Tolerances = DEFAULT_TOL) -> ProductBasis:
    """Product basis whose classification recovers exactly spec.partition.

    C^n is split into orthogonal subspaces with the partition's dimensions
    (coordinate blocks, or column blocks of one Haar unitary).  Each subspace
    gets an orthonormal basis for the qubit-a side and either the same basis
    or a Haar-rotated copy for the qubit-a-perp side.  The qubit rays of the
    blocks are great-circle rays (see `_skew_qubits`), so no two blocks can
    merge; every step is closed-form.  The blocks of one size are built in one
    batch, the sizes in partition order.
    """
    n, parts = spec.n, tuple(spec.partition)
    rng = np.random.Generator(np.random.Philox(spec.seed))

    if spec.subspace_mode == "identity-blocks":
        frame = np.eye(n, dtype=np.complex128)
    else:
        frame = _haar_from_rng(n, rng)
    qubit_a = _skew_qubits(len(parts), spec.qubit_mode, rng)
    qubit_p = canonical_phase(np.stack([-qubit_a[:, 1].conj(), qubit_a[:, 0].conj()], axis=1))

    # block k's m rows kron(a, c) for the columns c of its frame block, then its m rows
    # kron(a-perp, c) for the same columns, turned by the block's A-perp unitary or not
    rows = np.empty((2 * n, 2 * n), dtype=np.complex128)
    block = col = 0
    for m in dict.fromkeys(parts):  # weakly decreasing: equal parts sit together
        count = parts.count(m)
        cols = frame[:, col : col + count * m].reshape(n, count, m).transpose(1, 0, 2)
        turned = cols
        if spec.pair_mode == "independent-groups":
            turned = cols @ _haar_from_rng(m, rng, (count,))
        out = rows[2 * col : 2 * (col + count * m)].reshape(count, 2, m, 2, n)
        np.einsum("ci,ckm->cmik", qubit_a[block : block + count], cols, out=out[:, 0])
        np.einsum("ci,ckm->cmik", qubit_p[block : block + count], turned, out=out[:, 1])
        block, col = block + count, col + count * m

    meta = {
        "partition": str(spec.partition),
        "seed": spec.seed,
        "subspace_mode": spec.subspace_mode,
        "pair_mode": spec.pair_mode,
        "qubit_mode": spec.qubit_mode,
    }
    return ProductBasis(n, rows, tol=tol, meta=meta)


def _basis_from_factors(n: int, pairs, meta=None, tol: Tolerances = DEFAULT_TOL) -> ProductBasis:
    """Assemble a ProductBasis from (qubit, qudit) factor pairs."""
    return ProductBasis(n, [kron(a, b) for a, b in pairs], tol=tol, meta=meta)


# The single-basis catalog: n, the Pauli axes of the default qubit rays a0, a1, ...,
# and the basis rows in the paper's order as (qubit, qudit) names.  p<k> is the ray
# orthogonal to a<k>; e<j> is the j-th coordinate vector of C^n, x0/x1 the x
# eigenbasis of C^2, f<j> a column of the 3 x 3 Fourier matrix, and u0/u1 the
# (alpha, beta) rotation of e0/e1 (d6_B1 only).
_FAMILY_TABLE = {
    "d4_B0": (2, "zx", "a0 e0, p0 e0, a1 e1, p1 e1"),
    "d4_B1": (2, "z", "a0 e0, a0 e1, p0 x0, p0 x1"),
    "d4_B2": (2, "z", "a0 e0, a0 e1, p0 e0, p0 e1"),
    "d6_B0": (3, "zxy", "a0 e0, p0 e0, a1 e1, p1 e1, a2 e2, p2 e2"),
    "d6_B1": (3, "zx", "a0 e0, a0 e1, p0 u0, p0 u1, a1 e2, p1 e2"),
    "d6_B2": (3, "z", "a0 e0, a0 e1, a0 e2, p0 f0, p0 f1, p0 f2"),
    "d6_B3": (3, "z", "a0 e0, a0 e1, a0 e2, p0 e0, p0 e1, p0 e2"),
}

_CODED_FAMILIES = ("d4_mupb_triple", "d6_mub_triple", "general_mupb_triple", "counterexample_1_4")
FAMILY_TAGS = tuple(sorted([*_FAMILY_TABLE, *_CODED_FAMILIES]))


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


def named_family(params: FamilyParams, tol: Tolerances = DEFAULT_TOL):
    """Build a catalog basis (or list of bases, for the unbiased triples).

    A FamilyParams field that the family does not read is a ValueError.
    """
    tag = params.family
    if tag not in FAMILY_TAGS:
        raise ValueError(f"unknown family tag {tag!r}; known: {FAMILY_TAGS}")
    for field, given, takes in (
        ("unitary_params (--alpha/--beta)", bool(params.unitary_params), tag == "d6_B1"),
        ("qubit_states", params.qubit_states is not None, tag in _FAMILY_TABLE),
        ("g_bases (--g-file)", params.g_bases is not None, tag == "general_mupb_triple"),
    ):
        if given and not takes:
            raise ValueError(f"family {tag!r} does not take {field}")
    if tag in _FAMILY_TABLE:
        return _table_family(params, tol)
    if tag == "general_mupb_triple":
        return _general_mupb_triple(params, tol)
    if tag == "counterexample_1_4":
        # Four product vectors that group cleanly yet are not orthonormal: both factor
        # multisets split into orthonormal pairs, but the cross terms between the skew
        # pairs leave Gram off-diagonals of 1/2.
        z, x = PAULI_EIGENBASES["z"][0], PAULI_EIGENBASES["x"][0]
        zp, xp = qubit_orthogonal(z), qubit_orthogonal(x)
        pairs = [(z, z), (zp, zp), (x, x), (xp, xp)]
        return _basis_from_factors(2, pairs, meta={"family": tag}, tol=tol)
    # the general triple on the Pauli eigenbases, or on the identity and MUB6_FACTORS' qudits
    if tag == "d4_mupb_triple":
        qudits, key, labels = [np.array(PAULI_EIGENBASES[axis]) for axis in "zxy"], "axis", "zxy"
    else:
        qudits = [np.eye(3, dtype=np.complex128), *(f.T for _, f in MUB6_FACTORS)]
        key, labels = "index", (0, 1, 2)
    return _assemble_triple([(q, q) for q in qudits], tag, key, labels, tol)
