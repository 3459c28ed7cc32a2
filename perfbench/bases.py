"""Benchmark inputs built with numpy alone, and the oracle that judges them.

Nothing here imports prodbase.  Every input basis is written as a JSON file in
the program's basis-file format, and every expected answer comes either from
how the input was built (partition, groupability) or from numpy measurements
of the file's own numbers (singular values, Gram residual, overlaps).  The
tolerances below restate the program's documented defaults; an input whose
measurement lies within a factor MARGIN of the tolerance it tests is refused,
so a verdict never hinges on rounding.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

EPS_ORTH = 1e-9
EPS_UNIT = 1e-9
EPS_RANK = 1e-8
MUB_TOL = 10.0 * EPS_ORTH
MARGIN = 100.0


class InputError(Exception):
    """An input the benchmark built sits too close to a tolerance to judge."""


def decide(value: float, tol: float) -> bool | None:
    """True when value <= tol / MARGIN, False when value >= tol * MARGIN, else None."""
    if value <= tol / MARGIN:
        return True
    if value >= tol * MARGIN:
        return False
    return None


def decided(value: float, tol: float, what: str) -> bool:
    verdict = decide(value, tol)
    if verdict is None:
        raise InputError(f"{what}: {value:.3e} lies within {MARGIN:g}x of {tol:g}")
    return verdict


# --------------------------------------------------------------------------
# constructions


def haar(rng: np.random.Generator, m: int) -> np.ndarray:
    """Haar unitary by QR with the diagonal phase correction (Mezzadri 2007)."""
    z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def perp(a: np.ndarray) -> np.ndarray:
    return np.array([-np.conj(a[1]), np.conj(a[0])])


def circle_rays(r: int, phi: float) -> np.ndarray:
    """r qubit rays on one great circle at theta_k = k*pi/(2r), k = 0..r-1.

    Together with their orthogonal partners they sit pi/(2r) apart, so two
    distinct rays overlap by at most cos(pi/(4r)) and a ray meets any
    non-partner by at least sin(pi/(4r)): every partition of n <= 64 stays
    far from the 1e-8 tolerances.
    """
    theta = np.arange(r) * math.pi / (2 * r)
    return np.stack([np.cos(theta), np.exp(1j * phi) * np.sin(theta)], axis=1)


def from_factors(pairs) -> np.ndarray:
    """Rows kron(a, b) for (a, b) in pairs; index k*n + j holds a[k] * b[j]."""
    return np.array([np.kron(a, b) for a, b in pairs], dtype=np.complex128)


def random_partition(rng: np.random.Generator, n: int, r: int) -> tuple[int, ...]:
    """A partition of n into exactly r parts, from r - 1 random cut points."""
    cuts = np.sort(rng.choice(np.arange(1, n), size=r - 1, replace=False)) if r > 1 else []
    bounds = [0, *[int(c) for c in cuts], n]
    return tuple(sorted((b - a for a, b in zip(bounds, bounds[1:])), reverse=True))


def product_basis(
    rng: np.random.Generator, parts: tuple[int, ...], frame: str, groups: str
) -> np.ndarray:
    """An orthonormal product basis of C^2 (x) C^n of right type `parts`.

    frame 'identity' splits C^n into coordinate blocks, 'haar' into column
    blocks of one Haar unitary; groups 'equal' gives both sides of a block
    the same qudit basis, 'independent' rotates the a-perp side by a Haar
    unitary of the block.
    """
    n = sum(parts)
    f = np.eye(n, dtype=np.complex128) if frame == "identity" else haar(rng, n)
    rays = circle_rays(len(parts), float(rng.uniform(0.0, 2.0 * math.pi)))
    pairs = []
    off = 0
    for a, m in zip(rays, parts):
        block = f[:, off : off + m]
        other = block if groups == "equal" else block @ haar(rng, m)
        pairs += [(a, block[:, k]) for k in range(m)]
        pairs += [(perp(a), other[:, k]) for k in range(m)]
        off += m
    return from_factors(pairs)


def type_string(parts) -> str:
    return "+".join(str(p) for p in sorted(parts, reverse=True))


_S2 = 1.0 / math.sqrt(2.0)
_Z = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
_X = (np.array([_S2, _S2]), np.array([_S2, -_S2]))
_Y = (np.array([_S2, 1j * _S2]), np.array([_S2, -1j * _S2]))
_W = np.exp(2j * math.pi / 3.0)
_E3 = np.eye(3)
_F3 = np.array([[1, 1, 1], [1, _W, _W**2], [1, _W**2, _W]]) / math.sqrt(3.0)
_G3 = np.array([[1, 1, 1], [_W, _W**2, 1], [_W, 1, _W**2]]) / math.sqrt(3.0)
_H2 = np.array([[1, 1], [1, -1]]) / math.sqrt(2.0)
_K2 = np.array([[1, 1], [1j, -1j]]) / math.sqrt(2.0)


def catalog() -> dict[str, tuple[np.ndarray, str | None, bool]]:
    """The catalog bases as (vectors, right type or None, groupable).

    A right type of None marks a set that is not an orthonormal product
    basis; a trailing ' (direct product)' marks one block whose two qudit
    groups coincide.
    """
    z0, z1 = _Z
    x0, x1 = _X
    e3 = [_E3[:, k] for k in range(3)]
    f3 = [_F3[:, k] for k in range(3)]
    vb = _S2 * e3[0] + _S2 * e3[1]
    vbp = _S2 * e3[0] - _S2 * e3[1]
    return {
        "d4_B0": (from_factors([(z0, z0), (z1, z0), (x0, z1), (x1, z1)]), "1+1", True),
        "d4_B1": (from_factors([(z0, z0), (z0, z1), (z1, x0), (z1, x1)]), "2", True),
        "d4_B2": (
            from_factors([(z0, z0), (z0, z1), (z1, z0), (z1, z1)]),
            "2 (direct product)",
            True,
        ),
        "d6_B0": (
            from_factors([(a, e3[k]) for k, s in enumerate((_Z, _X, _Y)) for a in s]),
            "1+1+1",
            True,
        ),
        "d6_B1": (
            from_factors(
                [(z0, e3[0]), (z0, e3[1]), (z1, vb), (z1, vbp), (x0, e3[2]), (x1, e3[2])]
            ),
            "2+1",
            True,
        ),
        "d6_B2": (from_factors([(z0, b) for b in e3] + [(z1, b) for b in f3]), "3", True),
        "d6_B3": (
            from_factors([(z0, b) for b in e3] + [(z1, b) for b in e3]),
            "3 (direct product)",
            True,
        ),
        "counterexample_1_4": (
            from_factors([(z0, z0), (z1, z1), (x0, x0), (x1, x1)]),
            None,
            True,
        ),
    }


def mub_triples() -> dict[str, list[np.ndarray]]:
    """The pairwise unbiased product triples in d = 4 and d = 6."""
    d4 = [from_factors([(u, v) for u in s for v in s]) for s in (_Z, _X, _Y)]
    d6 = [
        from_factors([(f2[:, j], f3[:, k]) for j in range(2) for k in range(3)])
        for f2, f3 in ((np.eye(2), _E3), (_H2, _F3), (_K2, _G3))
    ]
    return {"d4": d4, "d6": d6}


def adversarial_grouping(n: int) -> np.ndarray:
    """Standard vectors, copies of all but the last, and a uniform vector,
    with qubit factors alternating |0> and |1>.

    The uniform vector meets every other qudit factor, so no grouping exists;
    a search over exact covers only learns that after exploring them all.
    """
    eye = np.eye(n)
    qudits = [eye[k] for k in range(n)] + [eye[k] for k in range(n - 1)]
    qudits.append(np.full(n, 1.0 / math.sqrt(n)))
    return from_factors([(_Z[k % 2], b) for k, b in enumerate(qudits)])


def perturbed(rng: np.random.Generator, vectors: np.ndarray, how: str, eps: float) -> np.ndarray:
    """A copy of `vectors` with vector 0 perturbed by size eps.

    'kick' adds a random direction and renormalizes (breaks product form and
    orthogonality); 'rotate' turns only its qudit factor (stays a product);
    'scale' multiplies it by 1 + eps (breaks unit norm).
    """
    out = vectors.copy()
    n = vectors.shape[0] // 2
    v = out[0]
    if how == "kick":
        w = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
        v = v + eps * w / np.linalg.norm(w)
        out[0] = v / np.linalg.norm(v)
    elif how == "rotate":
        u, s, vh = np.linalg.svd(v.reshape(2, n))
        a, b = u[:, 0] * s[0], vh[0]
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        c = c - np.vdot(b, c) * b
        b = b + eps * c / np.linalg.norm(c)
        out[0] = np.kron(a, b / np.linalg.norm(b))
    elif how == "scale":
        out[0] = v * (1.0 + eps)
    else:
        raise ValueError(how)
    return out


def entangled_swap(vectors: np.ndarray, i: int, j: int) -> np.ndarray:
    """Replace rows i and j by their two Bell-like mixtures.

    The basis stays orthonormal; the mixtures are entangled when the two rows
    differ in both their qubit and their qudit rays.
    """
    out = vectors.copy()
    out[i] = (vectors[i] + vectors[j]) * _S2
    out[j] = (vectors[i] - vectors[j]) * _S2
    return out


def unitary_near_identity(rng: np.random.Generator, d: int, eps: float) -> np.ndarray:
    """exp(i eps H) for a random Hermitian H of unit spectral norm."""
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = h + h.conj().T
    w, q = np.linalg.eigh(h)
    w = w / np.max(np.abs(w))
    return (q * np.exp(1j * eps * w)) @ q.conj().T


# --------------------------------------------------------------------------
# files


def write_basis(path: Path, vectors: np.ndarray, meta: dict) -> None:
    """Write rows of `vectors` in the program's basis-file format.

    json writes each float by repr, the shortest string that reads back to
    the same double, so the program sees exactly these numbers.
    """
    d = vectors.shape[0]
    pairs = np.stack([vectors.real, vectors.imag], axis=-1).tolist()
    text = json.dumps({"dims": [2, d // 2], "vectors": pairs, "meta": meta}, sort_keys=True)
    path.write_text(text + "\n", encoding="ascii")


def read_basis(path: Path) -> np.ndarray:
    data = json.loads(path.read_text(encoding="utf-8"))
    arr = np.array(data["vectors"], dtype=np.float64)
    n = data["dims"][1]
    if arr.shape != (2 * n, 2 * n, 2):
        raise InputError(f"{path}: vectors have shape {arr.shape}, expected {(2 * n, 2 * n, 2)}")
    return arr[..., 0] + 1j * arr[..., 1]


# --------------------------------------------------------------------------
# oracle


def gram_residual(vectors: np.ndarray) -> float:
    g = vectors.conj() @ vectors.T
    return float(np.max(np.abs(g - np.eye(len(vectors)))))


def factors(vectors: np.ndarray):
    """sigma_2 of each row's 2 x n reshape, with its dominant qubit and qudit factors."""
    d = vectors.shape[0]
    u, s, vh = np.linalg.svd(vectors.reshape(d, 2, d // 2))
    return s[:, 1], u[:, :, 0], vh[:, 0, :]


def _offdiag_max(m: np.ndarray) -> float:
    m = m.copy()
    np.fill_diagonal(m, 0.0)
    return float(np.max(m))


def lone_qudit(qudits: np.ndarray, eps_orth: float) -> bool:
    """Some qudit factor meets every other one: then no grouping exists."""
    ov = np.abs(qudits.conj() @ qudits.T)
    np.fill_diagonal(ov, np.inf)
    return bool(np.any(np.min(ov, axis=1) >= eps_orth * MARGIN))


def judge_basis(
    vectors: np.ndarray, groupable: bool | None = None, eps_orth: float = EPS_ORTH
) -> dict:
    """Expected verdicts of verify for one candidate, measured independently.

    Returns keys unit, orthonormal, products (count), all_products,
    pairwise and groupable (None where not decided).
    """
    norms = np.abs(np.sum(np.abs(vectors) ** 2, axis=1) - 1.0)
    unit = decided(float(np.max(norms)), EPS_UNIT, "norm deviation")
    out = {
        "unit": unit,
        "orthonormal": None,
        "products": None,
        "all_products": None,
        "pairwise": None,
        "groupable": groupable,
    }
    if not unit:
        return out
    out["orthonormal"] = decided(gram_residual(vectors), eps_orth, "Gram residual")
    sigma2, a, b = factors(vectors)
    is_product = [decided(float(s), EPS_RANK, f"sigma2 of vector {k}") for k, s in enumerate(sigma2)]
    out["products"] = sum(is_product)
    out["all_products"] = all(is_product)
    if out["all_products"]:
        oa = np.abs(a.conj() @ a.T)
        ob = np.abs(b.conj() @ b.T)
        out["pairwise"] = decide(_offdiag_max(np.minimum(oa, ob)), eps_orth)
        if groupable is None and lone_qudit(b, eps_orth):
            out["groupable"] = False
    return out


def mub_deviation(x: np.ndarray, y: np.ndarray) -> float:
    d = x.shape[0]
    return float(np.max(np.abs(np.abs(x.conj() @ y.T) ** 2 - 1.0 / d)))


def ray_class_sizes(vectors: np.ndarray) -> list[int]:
    """Sizes of the classes of equal qubit rays, largest first."""
    _, a, _ = factors(vectors)
    same = np.abs(a.conj() @ a.T) >= 1.0 - 1e-6
    seen = np.zeros(len(a), dtype=bool)
    sizes = []
    for k in range(len(a)):
        if not seen[k]:
            sizes.append(int(np.count_nonzero(same[k] & ~seen)))
            seen |= same[k]
    return sorted(sizes, reverse=True)


def check_generated(path: Path, parts) -> str | None:
    """Whether a generated file is an orthonormal product basis of type `parts`.

    Each part m shows up as two qubit ray classes of m vectors, one for a and
    one for a-perp, because the program keeps distinct blocks' rays skew.
    """
    try:
        v = read_basis(path)
    except (OSError, ValueError, KeyError, InputError) as exc:
        return f"unreadable output {path.name}: {exc}"
    if gram_residual(v) > EPS_ORTH:
        return f"{path.name}: Gram residual {gram_residual(v):.3e} exceeds {EPS_ORTH:g}"
    sigma2, _, _ = factors(v)
    if float(np.max(sigma2)) > EPS_RANK:
        return f"{path.name}: a vector is entangled (sigma2 {float(np.max(sigma2)):.3e})"
    want = sorted([p for p in parts for _ in range(2)], reverse=True)
    got = ray_class_sizes(v)
    if got != want:
        return f"{path.name}: qubit ray classes {got}, expected {want}"
    return None
