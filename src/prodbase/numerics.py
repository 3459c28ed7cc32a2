"""Dense complex vector arithmetic, orthonormalization and subspace algebra.

Everything here is plain ``numpy.complex128`` with explicit tolerances; all
functions are pure and all returned values should be treated as immutable.
"""

from __future__ import annotations

import cmath
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
    _exponent(arr)
    return arr


def _exponent(arr: np.ndarray, error: str = "vector has non-finite entries") -> int:
    """The e for which 2**-e * `arr`, nonempty vectors, has squares in range, the scaling exact:
    0 when its squared moduli sum below 2**500, else the e taking its largest real or imaginary
    part into [1, 2).  ValueError(`error`) when an entry is a NaN or inf."""
    if arr.shape[-1] == 0:
        raise ValueError("empty vector")
    if np.vdot(arr, arr).real < 2.0**500:
        return 0
    if not np.isfinite(arr).all():
        raise ValueError(error)
    return math.frexp(np.max(np.abs([arr.real, arr.imag])))[1] - 1


def norm(v) -> float:
    return math.hypot(*np.abs(as_vector(v)).tolist())  # scaled: no square overflows


def inner(x, y) -> complex:
    """Inner product <x|y>, conjugate-linear in x; where BLAS overflows, on 2**-e x and 2**-f y."""
    x = as_vector(x)
    y = as_vector(y)
    if x.size != y.size:
        raise ValueError(f"dim-mismatch: {x.size} vs {y.size}")
    z = complex(np.vdot(x, y))
    if cmath.isfinite(z):
        return z
    e, f = _exponent(x), _exponent(y)  # BLAS overflowed, to inf or to inf - inf
    z = complex(np.vdot(x * 2.0**-e, y * 2.0**-f))  # back in Python floats: no warning
    return complex(z.real * 2.0**e * 2.0**f, z.imag * 2.0**e * 2.0**f)


def canonical_phase(v) -> np.ndarray:
    """Multiply by the unit scalar making the largest-modulus entry real positive.

    Ties go to the lowest index, moduli within a relative 1e-12 of the largest
    counting as tied, so equivalent rays map to one deterministic
    representative whatever the roundoff.  A 2-d array is done row by row,
    each row checked as a vector is.  Where squares pass the float range it is done
    on 2**-e times the input, scaled back in Python floats: past the range inf, no warning.
    """
    rows = np.asarray(v, dtype=np.complex128)
    if e := _exponent(rows if rows.ndim in (1, 2) else as_vector(rows)):  # as_vector raises
        parts = canonical_phase(rows * 2.0**-e).view(np.float64).ravel().tolist()
        return np.array([x * 2.0**e for x in parts]).view(np.complex128).reshape(rows.shape)
    mod = np.abs(rows)
    top = mod.max(axis=-1, keepdims=True)
    if not top.all():
        raise ValueError("cannot phase-canonicalize the zero vector")
    at = (mod >= (1.0 - 1e-12) * top).argmax(axis=-1)  # the first entry tied with the largest
    if rows.ndim == 2:  # one (row, entry) pair per row; a vector's index stays a scalar
        at = np.arange(len(rows))[:, None], at[:, None]
    return rows * (mod[at] / rows[at])


def gram_residual(vectors) -> float:
    """Max absolute deviation from the identity of the Gram matrix of `vectors`,
    a (k, d) array or a sequence of k vectors, validated in one pass."""
    rows = np.asarray(vectors, dtype=np.complex128)
    error = f"expected a (k, d) array of finite vectors, got shape {rows.shape}"
    if rows.ndim != 2 or rows.size == 0:
        raise ValueError(error)
    identity = np.eye(len(rows))
    if e := _exponent(rows, error):  # |G - I| is 4**e |G' - 4**-e I|, G' that of 2**-e rows
        rows, identity = rows * 2.0**-e, identity * 4.0**-e
    return float(np.max(np.abs(rows.conj() @ rows.T - identity))) * 2.0**e * 2.0**e


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
        in_range = np.vdot(b, b).real < 2.0**500  # else a NaN, inf or huge entry warns below
        if not (in_range and np.max(np.abs(b.conj().T @ b - np.eye(b.shape[1]))) <= 1e-6):
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
    if cols.size == 0:
        raise ValueError("zero-span: no input vectors")
    if cols.ndim != 2:
        raise ValueError(f"expected a (k, d) array of vectors, got shape {cols.T.shape}")
    scale = max(1.0, *map(norm, cols.T))  # each vector tested finite
    u, sv, _ = np.linalg.svd(cols, full_matrices=False)
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
        e = _exponent(M)  # the one rescue: 2**-e M alone still underflows a small row's squares
        sv = np.linalg.svd(M * 2.0**-e, compute_uv=False).tolist()
        return tuple(s * 2.0**e for s in [*sv, 0.0][:2])  # Python floats: no warning
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
    Each matrix gets the bits that `singular_values_2xn` gives it alone: a stack whose
    squared moduli do not sum below 2**500 is done by that kernel, matrix by matrix.
    """
    M = _two_rows(ms, 3, "a stack of matrices")
    if not np.vdot(M, M).real < 2.0**500:
        return tuple(np.array([singular_values_2xn(m) for m in M]).T)
    squares = _row_dots(M, M).real
    # the longer row goes first, so the cross term is taken against it
    M = np.where(squares[:, 1:] > squares[:, :1], M[:, ::-1], M)
    n0 = np.sqrt(squares.max(axis=1))
    u = M[:, 0] / np.where(n0 > 0.0, n0, 1.0)
    sigma1, sigma2 = (s[:, 0] for s in _sigmas(n0, u, M[:, 1], _row_dots, np.sqrt))
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
