"""Dense complex vector arithmetic, orthonormalization and subspace algebra.

Everything here is plain ``numpy.complex128`` with explicit tolerances; all
functions are pure and all returned values should be treated as immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "OMEGA",
    "OMEGA2",
    "Tolerances",
    "DEFAULT_TOL",
    "check_tolerance",
    "Subspace",
    "as_vector",
    "inner",
    "norm",
    "canonical_phase",
    "gram_residual",
    "orthonormalize",
    "singular_values_2xn",
    "singular_values_2xn_stack",
    "subspace_equal",
]

# primitive cube root of unity, (-1 + i*sqrt(3)) / 2
OMEGA = complex(-0.5, math.sqrt(3.0) / 2.0)
OMEGA2 = OMEGA.conjugate()


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used throughout the package.

    eps_orth: max Gram deviation still counted as orthonormal
    eps_unit: max deviation of <v|v> from 1 still counted as unit
    eps_rank: singular-value cutoff for rank decisions
    eps_ray:  overlap-modulus threshold for ray (phase-class) equality
    """

    eps_orth: float = 1e-9
    eps_unit: float = 1e-9
    eps_rank: float = 1e-8
    eps_ray: float = 1e-8

    def __post_init__(self):
        for name in ("eps_orth", "eps_unit", "eps_rank", "eps_ray"):
            check_tolerance(name, getattr(self, name))


def check_tolerance(name: str, value: float) -> float:
    """`value` when it lies strictly inside (0, 1e-3); ValueError otherwise."""
    if not 0.0 < value < 1e-3:
        raise ValueError(f"{name} must lie strictly inside (0, 1e-3), got {value!r}")
    return value


DEFAULT_TOL = Tolerances()


def as_vector(v) -> np.ndarray:
    """Coerce to a finite 1-d complex128 array (no copy when already one)."""
    arr = np.asarray(v, dtype=np.complex128)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("empty vector")
    if not np.isfinite(arr).all():
        raise ValueError("vector has non-finite entries")
    return arr


def norm(v) -> float:
    return float(np.linalg.norm(as_vector(v)))


def inner(x, y) -> complex:
    """Inner product <x|y>, conjugate-linear in the first argument."""
    x = as_vector(x)
    y = as_vector(y)
    if x.size != y.size:
        raise ValueError(f"dim-mismatch: {x.size} vs {y.size}")
    return complex(np.vdot(x, y))


def canonical_phase(v) -> np.ndarray:
    """Multiply by the unit scalar making the largest-modulus entry real positive.

    Ties go to the lowest index, moduli within a relative 1e-12 of the largest
    counting as tied, so equivalent rays map to one deterministic
    representative whatever the roundoff.  A 2-d array is done row by row.
    """
    if np.ndim(v) != 2:
        v = as_vector(v)
        mod = np.abs(v)
        pivot = v[np.argmax(mod >= (1.0 - 1e-12) * mod.max())]
        if not pivot:
            raise ValueError("cannot phase-canonicalize the zero vector")
        return v * (np.abs(pivot) / pivot)
    rows = np.asarray(v, dtype=np.complex128)
    mod = np.abs(rows)
    first = np.argmax(mod >= (1.0 - 1e-12) * mod.max(axis=1, keepdims=True), axis=1)
    pivot = rows[np.arange(len(rows)), first]
    if not pivot.all():
        raise ValueError("cannot phase-canonicalize the zero vector")
    return rows * (np.abs(pivot) / pivot)[:, None]


def gram_residual(vectors) -> float:
    """Max absolute deviation from the identity of the Gram matrix of `vectors`,
    a (k, d) array or a sequence of k vectors, validated in one pass."""
    rows = np.asarray(vectors, dtype=np.complex128)
    if rows.ndim != 2 or rows.size == 0 or not np.isfinite(rows).all():
        raise ValueError(f"expected a (k, d) array of finite vectors, got shape {rows.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # entries above ~1e154
        residual = float(np.max(np.abs(rows.conj() @ rows.T - np.eye(len(rows)))))
    return residual if residual == residual else math.inf  # inf - inf is no pass


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace of C^ambient_dim given by a matrix with orthonormal columns."""

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=np.complex128)
        if b.ndim != 2 or b.shape[0] != self.ambient_dim:
            raise ValueError(f"basis shape {b.shape} does not match ambient dim {self.ambient_dim}")
        if not 1 <= b.shape[1] <= self.ambient_dim:
            raise ValueError(f"subspace dimension {b.shape[1]} out of range")
        if np.max(np.abs(b.conj().T @ b - np.eye(b.shape[1]))) > 1e-6:
            raise ValueError("basis columns are not orthonormal")
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T

    def __repr__(self):
        return f"<Subspace dim {self.dim} of C^{self.ambient_dim}>"


def orthonormalize(vectors, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Orthonormal basis of span(vectors): the phase-canonical left singular
    vectors whose singular values exceed eps_rank * max(1, largest input norm),
    so the result dimension is the numeric rank of the input."""
    cols = np.asarray(vectors, dtype=np.complex128).T
    if cols.ndim != 2 or cols.size == 0:
        raise ValueError("zero-span: no input vectors")
    if not np.isfinite(cols).all():
        raise ValueError("vector has non-finite entries")
    u, sv, _ = np.linalg.svd(cols, full_matrices=False)
    scale = max(1.0, float(np.linalg.norm(cols, axis=0).max()))
    rank = int(np.count_nonzero(sv > tol.eps_rank * scale))
    if rank == 0:
        raise ValueError("zero-span: input spans no direction")
    return Subspace(len(cols), canonical_phase(u[:, :rank].T).T)


def _gram_eigenvalue(n0, beta, gamma, sqrt):
    """Larger Gram eigenvalue of the row-triangular form [[n0, 0], [beta, gamma]], on floats
    or arrays; the discriminant is a sum of non-negative terms, so it never cancels."""
    p, b, c = n0 * n0, beta * beta, gamma * gamma
    return 0.5 * (p + b + c + sqrt((p - c) ** 2 + b * (b + 2.0 * (p + c))))


def singular_values_2xn(m) -> tuple[float, float]:
    """The two singular values (descending) of a finite matrix with 2 rows: the
    parameterization of `singular_values_2xn_stack` on scalars, by `vdot`."""
    M = np.asarray(m, dtype=np.complex128)
    if M.ndim != 2 or M.shape[0] != 2:
        raise ValueError(f"expected a matrix with 2 rows, got shape {M.shape}")
    p, s = float(np.vdot(M[0], M[0]).real), float(np.vdot(M[1], M[1]).real)
    if not p + s < 2.0**500:  # a NaN or inf entry, or squares of squares past the float range
        s1, s2 = singular_values_2xn_stack(M[None])
        return (float(s1[0]), float(s2[0]))
    r0, r1 = (M[1], M[0]) if s > p else (M[0], M[1])
    n0 = math.sqrt(max(p, s))
    u = r0 / (n0 or 1.0)
    c1 = complex(np.vdot(u, r1))
    w = r1 - c1 * u
    c2 = complex(np.vdot(u, w))
    w -= c2 * u
    gamma = math.sqrt(float(np.vdot(w, w).real))
    sigma1 = math.sqrt(_gram_eigenvalue(n0, abs(c1 + c2), gamma, math.sqrt))
    return (sigma1, n0 * gamma / sigma1 if sigma1 > 0.0 else 0.0)


def singular_values_2xn_stack(ms) -> tuple[np.ndarray, np.ndarray]:
    """Both singular values of every matrix in a finite (k, 2, n) stack, descending.

    Closed form from the 2x2 Gram quadratic, evaluated on the row-triangular
    parameterization (row norms plus the orthogonalized cross term) rather
    than on the raw trace/determinant.  The raw determinant cancels
    catastrophically for near-rank-1 input and would floor sigma_2 at
    ~sqrt(machine eps); this form keeps sigma_2 accurate down to ~1e-16.
    """
    M = np.asarray(ms, dtype=np.complex128)
    # squares past the float range come out inf or NaN, and such matrices are rescued below
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(M, axis=2)
        # the longer row goes first, so the cross term is taken against it
        M = np.where((norms[:, 1] > norms[:, 0])[:, None, None], M[:, ::-1], M)
        n0 = norms.max(axis=1)
        r0, r1 = M[:, 0], M[:, 1]
        u = r0 / np.where(n0 > 0.0, n0, 1.0)[:, None]
        c1 = (u.conj() * r1).sum(axis=1)
        w = r1 - c1[:, None] * u
        c2 = (u.conj() * w).sum(axis=1)
        w = w - c2[:, None] * u
        beta = np.abs(c1 + c2)
        gamma = np.linalg.norm(w, axis=1)
        sigma1 = np.sqrt(_gram_eigenvalue(n0, beta, gamma, np.sqrt))
        sigma2 = np.divide(n0 * gamma, sigma1, out=np.zeros(sigma1.shape), where=sigma1 > 0.0)
    if not np.isfinite(sigma1).all():  # a NaN or inf entry, or squares past the float range
        bad = ~np.isfinite(sigma1)
        if not np.isfinite(M[bad]).all():
            raise ValueError("vector has non-finite entries")
        # LAPACK's SVD of each such matrix over its largest modulus keeps a tiny sigma_2
        scale = np.max(np.abs([M[bad].real, M[bad].imag]), axis=(0, 2, 3))[:, None]
        sv = np.linalg.svd(M[bad] / scale[:, :, None], compute_uv=False) * scale
        sigma1[bad], sigma2[bad] = sv[:, 0], sv[:, 1] if sv.shape[1] > 1 else 0.0
    return (sigma1, sigma2)


def subspace_equal(s: Subspace, t: Subspace, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether two subspaces coincide: equal dims and close orthogonal projectors.

    The Frobenius distance between the two projectors is compared against
    sqrt(2*dim) * eps_orth, which makes the predicate symmetric and scale-aware.
    """
    if s.ambient_dim != t.ambient_dim:
        raise ValueError(f"dim-mismatch: ambient {s.ambient_dim} vs {t.ambient_dim}")
    if s.dim != t.dim:
        return False
    dist = float(np.linalg.norm(s.projector() - t.projector()))
    return dist <= math.sqrt(2.0 * s.dim) * tol.eps_orth
