"""Dense complex vector arithmetic, orthonormalization and subspace algebra.

Everything here is plain ``numpy.complex128`` with explicit tolerances; all
functions are pure and all returned values should be treated as immutable.
"""

from __future__ import annotations

import math
from typing import NamedTuple

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


class _Tolerances(NamedTuple):
    eps_orth: float = 1e-9
    eps_unit: float = 1e-9
    eps_rank: float = 1e-8
    eps_ray: float = 1e-8


class Tolerances(_Tolerances):
    """Numerical thresholds used throughout the package.

    eps_orth: max Gram deviation still counted as orthonormal
    eps_unit: max deviation of <v|v> from 1 still counted as unit
    eps_rank: singular-value cutoff for rank decisions
    eps_ray:  overlap-modulus threshold for ray (phase-class) equality
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so that _replace checks too

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            check_tolerance(name, value)
        return self


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
    return _finite_entries(arr)


def _finite_entries(arr: np.ndarray) -> np.ndarray:
    """`arr`, a vector or a 2-d array of row vectors, if its vectors are nonempty and finite."""
    if arr.shape[-1] == 0:
        raise ValueError("empty vector")
    if not _finite(arr):
        raise ValueError("vector has non-finite entries")
    return arr


def _finite(arr: np.ndarray):
    """Whether `arr` is finite: its sum of squared moduli is, or, if that overflows, each entry."""
    return np.vdot(arr, arr).real < math.inf or np.isfinite(arr).all()


def norm(v) -> float:
    return math.hypot(*np.abs(as_vector(v)).tolist())  # scaled: no square overflows


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
    representative whatever the roundoff.  A 2-d array is done row by row,
    each row checked as a vector is.
    """
    if np.ndim(v) != 2:
        return _canonical_phase_1d(as_vector(v))
    rows = _finite_entries(np.asarray(v, dtype=np.complex128))
    mod = np.abs(rows)
    first = np.argmax(mod >= (1.0 - 1e-12) * mod.max(axis=1, keepdims=True), axis=1)
    pivot = rows[np.arange(len(rows)), first]
    if not pivot.all():
        raise ValueError("cannot phase-canonicalize the zero vector")
    return rows * (np.abs(pivot) / pivot)[:, None]


def _canonical_phase_1d(v: np.ndarray) -> np.ndarray:
    """`canonical_phase` of `v`, a finite 1-d complex128 array, unchecked."""
    mod = np.abs(v)
    at = (mod >= (1.0 - 1e-12) * mod.max()).argmax()  # np.argmax adds 2 µs a call
    if not v[at]:
        raise ValueError("cannot phase-canonicalize the zero vector")
    return v * (mod[at] / v[at])


def gram_residual(vectors) -> float:
    """Max absolute deviation from the identity of the Gram matrix of `vectors`,
    a (k, d) array or a sequence of k vectors, validated in one pass."""
    rows = np.asarray(vectors, dtype=np.complex128)
    if rows.ndim != 2 or rows.size == 0 or not _finite(rows):
        raise ValueError(f"expected a (k, d) array of finite vectors, got shape {rows.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # entries above ~1e154
        residual = float(np.max(np.abs(rows.conj() @ rows.T - np.eye(len(rows)))))
    return residual if residual == residual else math.inf  # inf - inf is no pass


class _Subspace(NamedTuple):
    ambient_dim: int
    basis: np.ndarray


class Subspace(_Subspace):
    """A subspace of C^ambient_dim given by a matrix with orthonormal columns."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(cls, ambient_dim: int, basis):
        b = np.array(basis, dtype=np.complex128)  # a copy, read-only once checked
        if b.ndim != 2 or b.shape[0] != ambient_dim:
            raise ValueError(f"basis shape {b.shape} does not match ambient dim {ambient_dim}")
        if not 1 <= b.shape[1] <= ambient_dim:
            raise ValueError(f"subspace dimension {b.shape[1]} out of range")
        finite = np.isfinite(b).all()  # tested first: an inf warns in the Gram product
        if not (finite and np.max(np.abs(b.conj().T @ b - np.eye(b.shape[1]))) <= 1e-6):
            raise ValueError("basis columns are not orthonormal")
        b.flags.writeable = False
        return super().__new__(cls, ambient_dim, b)

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
    u, sv, _ = np.linalg.svd(_finite_entries(cols), full_matrices=False)
    scale = max(1.0, float(np.linalg.norm(cols, axis=0).max()))
    rank = int(np.count_nonzero(sv > tol.eps_rank * scale))
    if rank == 0:
        raise ValueError("zero-span: input spans no direction")
    return Subspace(len(cols), canonical_phase(u[:, :rank].T).T)


def _gram_eigenvalue(n0, beta, gamma, sqrt):
    """Larger Gram eigenvalue of the row-triangular form [[n0, 0], [beta, gamma]], on floats
    or arrays, bit for bit; the discriminant is a sum of non-negative terms, so never cancels."""
    p, b, c = n0 * n0, beta * beta, gamma * gamma
    return 0.5 * (p + b + c + sqrt((p - c) * (p - c) + b * (b + 2.0 * (p + c))))


def _row_dots(x, y):
    """<x|y> of the last axes as an axis of length 1, each by the BLAS dot of `np.vdot`."""
    return (x.conj()[..., None, :] @ y[..., :, None])[..., 0]


def _two_rows(m, ndim: int, what: str) -> np.ndarray:
    """`m` as complex128 when it has `ndim` axes and 2 rows; ValueError naming its shape else."""
    M = np.asarray(m, dtype=np.complex128)
    if M.ndim != ndim or M.shape[-2] != 2:
        raise ValueError(f"expected {what} with 2 rows, got shape {M.shape}")
    return M


def _sigmas(n0, u, r1, dot, sqrt):
    """sigma_1 and sigma_2 of the rows n0 * u and r1, |r1| <= n0 and u a unit row or 0, at
    either call shape: one row and `np.vdot`, or a stack and `_row_dots`, with its sqrt."""
    c1 = dot(u, r1)
    w = r1 - c1 * u
    c2 = dot(u, w)
    w -= c2 * u  # a second pass takes out what the first left by roundoff
    beta = np.abs(c1 + c2)  # the ufunc at both shapes: a scalar's abs() rounds differently
    gamma = sqrt(dot(w, w).real)
    sigma1 = sqrt(_gram_eigenvalue(n0, beta, gamma, sqrt))
    return sigma1, n0 * gamma / (sigma1 + (sigma1 == 0.0))  # 0 / 1 for the zero matrix


def singular_values_2xn(m) -> tuple[float, float]:
    """The two singular values (descending) of a finite matrix with 2 rows: the bits of
    `singular_values_2xn_stack`, from the same `_sigmas` on one row, a cheaper call for one."""
    M = _two_rows(m, 2, "a matrix")
    x, y = M[0], M[1]  # indexed: iterating over M costs 1 µs more
    p, s = float(np.vdot(x, x).real), float(np.vdot(y, y).real)
    if not p + s < 2.0**500:  # a NaN or inf entry, or squares of squares past the float range
        return tuple(float(s[0]) for s in singular_values_2xn_stack(M[None]))
    r0, r1 = (y, x) if s > p else (x, y)
    n0 = math.sqrt(max(p, s))
    return _sigmas(n0, r0 / (n0 or 1.0), r1, np.vdot, math.sqrt)


def singular_values_2xn_stack(ms) -> tuple[np.ndarray, np.ndarray]:
    """Both singular values of every matrix in a finite (k, 2, n) stack, descending.

    Closed form from the 2x2 Gram quadratic, evaluated on the row-triangular
    parameterization (row norms plus the orthogonalized cross term) rather
    than on the raw trace/determinant.  The raw determinant cancels
    catastrophically for near-rank-1 input and would floor sigma_2 at
    ~sqrt(machine eps); this form keeps sigma_2 accurate down to ~1e-16.
    Each matrix gets the bits that `singular_values_2xn` gives it alone.
    """
    M = _two_rows(ms, 3, "a stack of matrices")
    # squares past the float range come out inf or NaN, and such matrices are rescued below
    with np.errstate(over="ignore", invalid="ignore"):
        squares = _row_dots(M, M).real
        # the longer row goes first, so the cross term is taken against it
        M = np.where(squares[:, 1:] > squares[:, :1], M[:, ::-1], M)
        n0 = np.sqrt(squares.max(axis=1))
        u = M[:, 0] / np.where(n0 > 0.0, n0, 1.0)
        sigma1, sigma2 = (s[:, 0] for s in _sigmas(n0, u, M[:, 1], _row_dots, np.sqrt))
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
