"""Kronecker products of a qubit with a qudit, and the inverse factorization.

The coordinate convention is row-major with the qubit index major: the entry
of ``kron(a, b)`` at index ``k*n + j`` is ``a[k] * b[j]``, so reshaping a
vector of C^(2n) to a 2 x n matrix recovers the outer product of its factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import (
    DEFAULT_TOL,
    Tolerances,
    as_vector,
    canonical_phase,
    inner,
    singular_values_2xn,
    singular_values_2xn_stack,
)

__all__ = ["ProductVector", "NotAProduct", "kron", "factor_arrays", "factorize", "qubit_orthogonal"]


@dataclass(frozen=True, eq=False)
class ProductVector:
    """A pure product state: qubit factor `a`, qudit factor `b`, full = kron(a, b).

    `phase` records the residual global phase when the value came out of
    `factorize`: the factorized input equals ``phase * full``.
    """

    a: np.ndarray
    b: np.ndarray
    full: np.ndarray
    phase: complex = 1.0 + 0.0j


@dataclass(frozen=True)
class NotAProduct:
    """Marker for a vector rejected by `factorize`, carrying the measured sigma_2."""

    sigma2: float

    def __bool__(self) -> bool:
        return False


def kron(a, b) -> np.ndarray:
    """Kronecker product of a qubit state with a qudit state."""
    a = as_vector(a)
    b = as_vector(b)
    if a.size != 2:
        raise ValueError(f"first factor must live in C^2, got dim {a.size}")
    return np.kron(a, b)


def _dominant_factors(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Phase-canonicalized unit factors of the dominant singular pair of each
    matrix in a (k, 2, n) stack: qubit factors (k x 2), qudit factors (k x n)."""
    _, eigvecs = np.linalg.eigh(M @ M.conj().transpose(0, 2, 1))
    a = canonical_phase(eigvecs[:, :, 1])  # eigenvalues ascend: the last one is dominant
    b = np.einsum("ki,kij->kj", a.conj(), M)
    return a, canonical_phase(b / np.linalg.norm(b, axis=1, keepdims=True))


def factor_arrays(rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factorize every row of a (k, 2n) array in one batched call.

    Returns (A, B, sigma2): each row's qubit factor (k x 2) and qudit factor
    (k x n) as `factorize` would give them, and the second singular value of
    its 2 x n reshape.  A row is a product state exactly when its sigma_2 is
    negligible; for an entangled row A and B hold only its dominant pair.
    """
    rows = np.asarray(rows, dtype=np.complex128)
    k, dim = rows.shape
    M = rows.reshape(k, 2, dim // 2)
    _, sigma2 = singular_values_2xn_stack(M)
    a, b = _dominant_factors(M)
    return a, b, sigma2


def factorize(v, tol: Tolerances = DEFAULT_TOL):
    """Extract the C^2 (x) C^n factorization of a unit vector, if it has one.

    The vector is reshaped to 2 x n; if the second singular value exceeds
    eps_rank the vector is entangled and a `NotAProduct` marker holding the
    measured sigma_2 comes back.  Otherwise the dominant singular pair is
    returned as a `ProductVector` with both factors unit and
    phase-canonicalized, and the residual global phase recorded so that
    ``v == pv.phase * pv.full`` up to roundoff.  It runs the code of
    `factor_arrays` on one row.
    """
    v = as_vector(v)
    if v.size % 2 != 0:
        raise ValueError(f"odd dimension {v.size}: cannot split off a qubit factor")
    n = v.size // 2
    nrm2 = float(np.vdot(v, v).real)
    if abs(nrm2 - 1.0) > tol.eps_unit:
        raise ValueError(f"not-normalized: <v|v> = {nrm2!r}")
    M = v.reshape(2, n)
    _, sigma2 = singular_values_2xn(M)
    if sigma2 > tol.eps_rank:
        return NotAProduct(sigma2=sigma2)
    (a,), (b,) = _dominant_factors(M[None])
    full = np.outer(a, b).ravel()
    ph = inner(full, v)
    return ProductVector(a=a, b=b, full=full, phase=ph / abs(ph))


def qubit_orthogonal(a) -> np.ndarray:
    """The unique (up to phase) qubit state orthogonal to `a`, canonicalized.

    For a = (alpha, beta) the raw complement is (-conj(beta), conj(alpha)).
    """
    a = as_vector(a)
    if a.size != 2:
        raise ValueError(f"expected a qubit state, got dim {a.size}")
    nrm = float(np.linalg.norm(a))
    if nrm < 1e-12:
        raise ValueError("zero vector has no orthogonal complement")
    perp = np.array([-np.conj(a[1]), np.conj(a[0])], dtype=np.complex128) / nrm
    return canonical_phase(perp)
