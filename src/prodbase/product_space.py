"""Kronecker products of a qubit with a qudit, and the inverse factorization.

The coordinate convention is row-major with the qubit index major: the entry of
``kron(a, b)`` at index ``k*n + j`` is ``a[k] * b[j]``, so `_qubit_split`, the one shape
rule of both factor kernels, reshapes a vector of C^(2n) to the outer product of its factors.

`factorize` does one vector from its scalar Gram entries, `factor_arrays` a stack in one
batched call, each the cheaper at its size for numpy's per-call cost; their sigma_2 is equal.
The factors are scale-free, so `factor_arrays` takes them from 2**-e times each row whose
largest real or imaginary part leaves [2**-240, 2**240], that part then in [1, 2).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .numerics import (
    DEFAULT_TOL,
    Tolerances,
    as_vector,
    canonical_phase,
    inner,
    norm,
    singular_values_2xn,
    singular_values_2xn_stack,
)

__all__ = ["ProductVector", "NotAProduct", "kron", "factor_arrays", "factorize", "qubit_orthogonal"]


class ProductVector(NamedTuple):
    """A pure product state: qubit factor `a`, qudit factor `b`, full = kron(a, b).

    `phase` records the residual global phase when the value came out of
    `factorize`: the factorized input equals ``phase * full``.
    """

    a: np.ndarray
    b: np.ndarray
    full: np.ndarray
    phase: complex = 1.0 + 0.0j


class NotAProduct(NamedTuple):
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


def _qubit_split(v: np.ndarray) -> np.ndarray:
    """Each vector of C^(2n) along the last axis of `v` as a 2 x n matrix, qubit index major."""
    if v.shape[-1] % 2:
        raise ValueError(f"odd dimension {v.shape[-1]}: cannot split off a qubit factor")
    return v.reshape(*v.shape[:-1], 2, v.shape[-1] // 2)


def factor_arrays(rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factorize every row of a (k, 2n) array in one batched call.

    Returns (A, B, sigma2): each row's qubit factor (k x 2) and qudit factor
    (k x n) as `factorize` would give them, and the second singular value of
    its 2 x n reshape.  A row is a product state exactly when its sigma_2 is
    negligible; for an entangled row A and B hold only its dominant pair.
    For the Gram [[p, q], [q*, s]] and lam = sigma1**2, the qubit factor is the
    longer of (q, lam - p) and (lam - s, q*), so no difference of nearly equal
    numbers decides it; (1, 0) when both vanish (sigma1 = sigma2); a zero row raises.
    """
    rows = np.asarray(rows, dtype=np.complex128, order="C")  # viewed as floats below
    if rows.ndim != 2 or rows.size == 0:
        raise ValueError(f"expected a (k, 2n) array of rows, got shape {rows.shape}")
    M = _qubit_split(rows)
    sigma1, sigma2 = singular_values_2xn_stack(M)  # also tests every entry finite
    big = np.abs(rows.view(np.float64)).max(axis=1)  # each row's largest real or imaginary part
    if (outside := (big < 2.0**-240) | (big > 2.0**240)).any():
        if not big.all():
            raise ValueError(f"zero row {big.argmin()}: a zero vector has no factors")
        e = (np.frexp(big)[1] - 1) * outside  # 0 in the window: those rows keep their bits
        M = np.ldexp(M.view(np.float64), -e[:, None, None]).view(np.complex128)  # subnormals too
        sigma1 = singular_values_2xn_stack(M)[0]
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
    ``v == pv.phase * pv.full`` up to roundoff.  It is `factor_arrays` on one row
    from the Gram entries as Python numbers: sigma_2 bit for bit, factors to roundoff.
    """
    v = as_vector(v)
    M = _qubit_split(v)
    nrm2 = float(np.vdot(v, v).real)  # NaN, not inf, where squares overflow inside BLAS
    if not abs(nrm2 - 1.0) <= tol.eps_unit:
        raise ValueError(f"not-normalized: <v|v> = {nrm2 if nrm2 == nrm2 else math.inf!r}")
    sigma1, sigma2 = singular_values_2xn(M)
    if sigma2 > tol.eps_rank:
        return NotAProduct(sigma2=sigma2)
    (p, q), (_, s) = (M @ M.conj().T).tolist()
    p, s = p.real, s.real
    # sigma2 <= eps_rank, so lam - min(p, s) is about max(p, s) >= 1/2: never (0, 0)
    a0, a1 = (q, sigma1**2 - p) if p < s else (sigma1**2 - s, q.conjugate())
    pivot = a0 if abs(a0) >= (1.0 - 1e-12) * abs(a1) else a1  # canonical_phase's tie rule
    scale = abs(pivot) / pivot / math.hypot(abs(a0), abs(a1))
    a = np.array([a0 * scale, a1 * scale])
    b = a.conj() @ M
    b = canonical_phase(b / math.sqrt(float(np.vdot(b, b).real)))  # finite, as v is
    full = (a[:, None] * b).ravel()
    ph = inner(full, v)
    return ProductVector(a=a, b=b, full=full, phase=ph / abs(ph))


def qubit_orthogonal(a) -> np.ndarray:
    """The unique (up to phase) qubit state orthogonal to `a`, canonicalized.

    For a = (alpha, beta) the raw complement is (-conj(beta), conj(alpha)).
    """
    a = as_vector(a)
    if a.size != 2:
        raise ValueError(f"expected a qubit state, got dim {a.size}")
    nrm = norm(a)
    if nrm < 1e-12:
        raise ValueError("zero vector has no orthogonal complement")
    perp = np.array([-np.conj(a[1]), np.conj(a[0])], dtype=np.complex128) / nrm
    return canonical_phase(perp)
