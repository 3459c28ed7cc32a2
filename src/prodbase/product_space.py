"""Kronecker products of a qubit with a qudit, and the inverse factorization.

The coordinate convention is row-major with the qubit index major: the entry
of ``kron(a, b)`` at index ``k*n + j`` is ``a[k] * b[j]``, so reshaping a
vector of C^(2n) to a 2 x n matrix recovers the outer product of its factors.

`factorize` does one vector from its scalar Gram entries, `factor_arrays` a stack in one
batched call: numpy's fixed per-call cost makes each the cheaper one at its own size.
"""

from __future__ import annotations

import math
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


def factor_arrays(rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factorize every row of a (k, 2n) array in one batched call.

    Returns (A, B, sigma2): each row's qubit factor (k x 2) and qudit factor
    (k x n) as `factorize` would give them, and the second singular value of
    its 2 x n reshape.  A row is a product state exactly when its sigma_2 is
    negligible; for an entangled row A and B hold only its dominant pair.
    For the Gram [[p, q], [q*, s]] and lam = sigma1**2, the qubit factor is the
    longer of (q, lam - p) and (lam - s, q*), so no difference of nearly equal
    numbers decides it; (1, 0) when both vanish (sigma1 = sigma2).
    """
    rows = np.asarray(rows, dtype=np.complex128)
    M = rows.reshape(len(rows), 2, -1)
    sigma1, sigma2 = singular_values_2xn_stack(M)
    G = M @ M.conj().transpose(0, 2, 1)
    p, s = G[:, 0, 0].real.copy(), G[:, 1, 1].real.copy()
    G[:, 0, 0], G[:, 1, 1] = sigma1**2 - s, sigma1**2 - p  # columns (lam - s, q*), (q, lam - p)
    a = np.where((p < s)[:, None], G[:, :, 1], G[:, :, 0])
    a[~a.any(axis=1), 0] = 1.0
    a = canonical_phase(a) / np.linalg.norm(a, axis=1, keepdims=True)
    b = np.einsum("ki,kij->kj", a.conj(), M)
    return a, canonical_phase(b / np.linalg.norm(b, axis=1, keepdims=True)), sigma2


def factorize(v, tol: Tolerances = DEFAULT_TOL):
    """Extract the C^2 (x) C^n factorization of a unit vector, if it has one.

    The vector is reshaped to 2 x n; if the second singular value exceeds
    eps_rank the vector is entangled and a `NotAProduct` marker holding the
    measured sigma_2 comes back.  Otherwise the dominant singular pair is
    returned as a `ProductVector` with both factors unit and
    phase-canonicalized, and the residual global phase recorded so that
    ``v == pv.phase * pv.full`` up to roundoff.  It is `factor_arrays` on
    one row, computed from the Gram entries p, s, q as Python numbers.
    """
    v = as_vector(v)
    if v.size % 2 != 0:
        raise ValueError(f"odd dimension {v.size}: cannot split off a qubit factor")
    n = v.size // 2
    nrm2 = float(np.vdot(v, v).real)
    if abs(nrm2 - 1.0) > tol.eps_unit:
        raise ValueError(f"not-normalized: <v|v> = {nrm2!r}")
    M = v.reshape(2, n)
    sigma1, sigma2 = singular_values_2xn(M)
    if sigma2 > tol.eps_rank:
        return NotAProduct(sigma2=sigma2)
    G = M @ M.conj().T
    p, s, q = float(G[0, 0].real), float(G[1, 1].real), complex(G[0, 1])
    a0, a1 = (q, sigma1**2 - p) if p < s else (sigma1**2 - s, q.conjugate())
    a0 = 1.0 if a0 == 0 and a1 == 0 else a0
    pivot = a0 if abs(a0) >= (1.0 - 1e-12) * abs(a1) else a1  # canonical_phase's tie rule
    scale = abs(pivot) / pivot / math.hypot(abs(a0), abs(a1))
    a = np.array([a0 * scale, a1 * scale])
    b = a.conj() @ M
    b = canonical_phase(b / math.sqrt(float(np.vdot(b, b).real)))
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
