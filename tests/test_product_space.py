import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from prodbase.generator import TypeSpec, generate_from_type
from prodbase.numerics import (
    Tolerances,
    canonical_phase,
    inner,
    singular_values_2xn,
    singular_values_2xn_stack,
)
from prodbase.partitions import partitions_of
from prodbase.product_space import NotAProduct, factor_arrays, factorize, kron, qubit_orthogonal

RT2 = math.sqrt(2.0)


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def _random_unit(rng, d):
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return z / np.linalg.norm(z)


def test_kron_standard_basis():
    out = kron([1, 0], [0, 1, 0])
    assert np.array_equal(out, np.array([0, 1, 0, 0, 0, 0], dtype=complex))


def test_kron_superposition():
    out = kron(np.array([1, 1]) / RT2, [1, 0])
    assert np.allclose(out, np.array([1, 0, 1, 0]) / RT2)


def test_kron_index_layout():
    rng = _rng(1)
    a = _random_unit(rng, 2)
    b = _random_unit(rng, 5)
    out = kron(a, b)
    for k in range(2):
        for j in range(5):
            assert abs(out[k * 5 + j] - a[k] * b[j]) < 1e-15
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def test_kron_requires_qubit_first_factor():
    with pytest.raises(ValueError):
        kron([1, 0, 0], [1, 0])


def test_kron_outputs_are_rank_one():
    rng = _rng(2)
    for _ in range(50):
        v = kron(_random_unit(rng, 2), _random_unit(rng, 4))
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        assert singular_values_2xn(v.reshape(2, 4))[1] < 1e-12


def test_kron_bilinear():
    rng = _rng(3)
    a = _random_unit(rng, 2)
    b = _random_unit(rng, 3)
    alpha = 0.3 - 0.7j
    assert np.max(np.abs(kron(alpha * a, b) - alpha * kron(a, b))) < 1e-12


def test_kron_inner_multiplicative():
    rng = _rng(4)
    for _ in range(30):
        a, c = _random_unit(rng, 2), _random_unit(rng, 2)
        b, d = _random_unit(rng, 4), _random_unit(rng, 4)
        lhs = inner(kron(a, b), kron(c, d))
        rhs = inner(a, c) * inner(b, d)
        assert abs(lhs - rhs) < 1e-12


def test_factorize_standard_basis_vector():
    pv = factorize(np.array([0, 1, 0, 0, 0, 0], dtype=complex))
    assert pv
    assert np.allclose(pv.a, [1, 0])
    assert np.allclose(pv.b, [0, 1, 0])


def test_factorize_rejects_bell():
    bell = np.array([1, 0, 0, 1], dtype=complex) / RT2
    res = factorize(bell)
    assert isinstance(res, NotAProduct)
    assert not res
    assert abs(res.sigma2 - 1.0 / RT2) < 1e-12


def test_factorize_roundtrip_seeded():
    rng = _rng(5)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        a = _random_unit(rng, 2)
        b = _random_unit(rng, n)
        v = kron(a, b)
        pv = factorize(v)
        assert pv
        assert np.max(np.abs(pv.a - canonical_phase(a))) < 1e-10
        assert np.max(np.abs(pv.b - canonical_phase(b))) < 1e-10
        assert np.max(np.abs(pv.phase * pv.full - v)) < 1e-10
        assert abs(abs(pv.phase) - 1.0) < 1e-12


def test_factorize_requires_unit_norm():
    with pytest.raises(ValueError, match="not-normalized"):
        factorize(np.array([1, 0, 1, 0], dtype=complex))


def test_factorize_requires_even_dimension():
    with pytest.raises(ValueError):
        factorize(np.array([1, 0, 0], dtype=complex))


def test_factorize_decision_boundary_matches_sigma2():
    # v = cos(t)*kron(a, b) + sin(t)*kron(a_perp, b_perp) has sigma2 = sin(t);
    # the accept/reject decision must follow eps_rank exactly
    a = np.array([1, 0], dtype=complex)
    ap = np.array([0, 1], dtype=complex)
    b = np.array([1, 0], dtype=complex)
    bp = np.array([0, 1], dtype=complex)

    def mixed(s):
        c = math.sqrt(1.0 - s * s)
        return c * kron(a, b) + s * kron(ap, bp)

    eps = 1e-8
    accepted = factorize(mixed(0.5 * eps))
    assert accepted
    rejected = factorize(mixed(2.0 * eps))
    assert isinstance(rejected, NotAProduct)
    assert abs(rejected.sigma2 - 2.0 * eps) < 1e-12


def test_factorize_monotone_in_rank_tolerance():
    # loosening eps_rank never turns an accept into a reject
    rng = _rng(6)
    tight = Tolerances(eps_rank=1e-10)
    loose = Tolerances(eps_rank=1e-6)
    for _ in range(30):
        v = kron(_random_unit(rng, 2), _random_unit(rng, 3))
        noise = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        v = v + 1e-8 * noise
        v = v / np.linalg.norm(v)
        if factorize(v, tight):
            assert factorize(v, loose)


def test_qubit_orthogonal_standard():
    assert np.allclose(qubit_orthogonal([1, 0]), [0, 1])


def test_qubit_orthogonal_plus_minus():
    out = qubit_orthogonal(np.array([1, 1]) / RT2)
    assert np.allclose(out, np.array([1, -1]) / RT2)


def test_qubit_orthogonal_is_orthogonal():
    rng = _rng(7)
    for _ in range(100):
        a = _random_unit(rng, 2)
        assert abs(inner(a, qubit_orthogonal(a))) < 1e-12


def test_qubit_orthogonal_involution_up_to_phase():
    rng = _rng(8)
    for _ in range(100):
        a = _random_unit(rng, 2)
        back = qubit_orthogonal(qubit_orthogonal(a))
        assert abs(abs(inner(a, back)) - 1.0) < 1e-12


def test_qubit_orthogonal_zero_vector():
    with pytest.raises(ValueError):
        qubit_orthogonal(np.zeros(2))


def test_qubit_orthogonal_requires_a_qubit_state():
    with pytest.raises(ValueError, match="^expected a qubit state, got dim 3$"):
        qubit_orthogonal([1.0, 0.0, 0.0])


@st.composite
def products_and_near_products(draw):
    """A unit row of C^2 (x) C^n: a product, possibly kicked off the product set.

    The qubit factor is generic, has a component down to 1e-12, or has a
    zero half; the kick is small enough that the row still factorizes."""
    n = draw(st.integers(1, 64))
    rng = _rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("generic", "small", "zero-half")))
    if kind == "zero-half":
        a = np.eye(2, dtype=complex)[draw(st.integers(0, 1))]
    else:
        small = 10.0 ** draw(st.floats(-12.0, -1.0)) if kind == "small" else rng.uniform(0.0, 1.0)
        a = np.array([math.sqrt(1.0 - small**2), small]) * np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
        if draw(st.booleans()):
            a = a[::-1]
    v = kron(a, _random_unit(rng, n))
    kick = draw(st.sampled_from((0.0, 1e-14, 1e-12, 1e-10)))
    if kick:
        v = v + kick * _random_unit(rng, 2 * n)
        v /= np.linalg.norm(v)
    return v, kick == 0.0


@settings(max_examples=200, deadline=None)
@given(products_and_near_products())
def test_closed_form_factors_match_svd(case):
    v, exact = case
    n = v.size // 2
    (a,), (b,), (sigma2,) = factor_arrays(v[None])
    pv = factorize(v)
    assert pv
    assert np.max(np.abs(pv.a - a)) <= 1e-12 and np.max(np.abs(pv.b - b)) <= 1e-12
    u, _, vh = np.linalg.svd(v.reshape(2, n))
    assert np.max(np.abs(a - canonical_phase(u[:, 0]))) <= 1e-12
    assert np.max(np.abs(b - canonical_phase(vh[0]))) <= 1e-12
    if exact:
        assert sigma2 <= 1e-15


def test_factor_arrays_bell_row_is_finite():
    bell = np.array([1, 0, 0, 1], dtype=complex) / RT2
    A, B, sigma2 = factor_arrays(np.stack([bell, kron([1, 0], [0, 1])]))
    assert np.all(np.isfinite(A)) and np.all(np.isfinite(B))
    assert abs(sigma2[0] - 1.0 / RT2) < 1e-15 and sigma2[1] == 0.0
    assert np.allclose(np.linalg.norm(A, axis=1), 1.0) and np.allclose(np.linalg.norm(B, axis=1), 1.0)


@st.composite
def two_row_matrices(draw):
    """A 2 x n matrix of unit Frobenius norm (or zero) of a kind the one-row
    kernels branch on: a longer second row, equal row norms (Bell-like, both
    singular values equal), a zero row, the zero matrix, entangled rows, a
    product, or a product whose qubit factor has two equal moduli (a tie)."""
    n = draw(st.integers(1, 64))
    rng = _rng(draw(st.integers(0, 2**32 - 1)))
    kinds = ("longer-second", "bell", "zero-row", "zero", "entangled", "product", "tied-product")
    kind = draw(st.sampled_from(kinds))
    r0, r1 = _random_unit(rng, n), _random_unit(rng, n)
    if kind == "longer-second":
        m = np.stack([rng.uniform(0.0, 1.0) * r0, r1])
    elif kind == "bell":
        if n > 1:
            r1 = r1 - np.vdot(r0, r1) * r0
        m = np.stack([r0, r1 / np.linalg.norm(r1)])
    elif kind == "zero-row":
        m = np.stack([np.zeros(n), r1])
    elif kind == "zero":
        m = np.zeros((2, n), dtype=complex)
    elif kind == "entangled":
        m = np.stack([r0, r1])
    elif kind == "product":
        m = np.outer(_random_unit(rng, 2), r0)
    else:
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        m = np.outer([math.cos(math.pi / 4), phase * math.sin(math.pi / 4)], r0)
    if draw(st.booleans()):
        m = m[::-1]
    norm = np.linalg.norm(m)
    return m / norm if norm else m


@settings(max_examples=300, deadline=None)
@given(two_row_matrices())
def test_one_row_kernels_match_the_batched_ones(m):
    s1, s2 = singular_values_2xn(m)
    (t1,), (t2,) = singular_values_2xn_stack(m[None])
    assert abs(s1 - t1) <= 1e-15 and abs(s2 - t2) <= 1e-15
    if not m.any():
        return
    v = m.ravel()
    (a,), (b,), (sigma2,) = factor_arrays(v[None])
    result = factorize(v)
    if result:
        assert np.max(np.abs(result.a - a)) <= 1e-12 and np.max(np.abs(result.b - b)) <= 1e-12
    else:
        assert abs(result.sigma2 - sigma2) <= 1e-15


@pytest.mark.parametrize(
    "kernel, arg, message",
    [
        (factorize, np.ones(3) / math.sqrt(3.0), "odd dimension 3"),
        (factorize, np.array([1, 0, 1, 0], dtype=complex), "not-normalized"),
        (factorize, np.array([np.nan, 0, 0, 1]), "non-finite"),
        (factorize, np.eye(2), "expected a 1-d vector"),
        (singular_values_2xn, np.zeros((3, 4)), "expected a matrix with 2 rows"),
        (singular_values_2xn, np.zeros(4), "expected a matrix with 2 rows"),
    ],
    ids=["odd", "non-normalized", "non-finite", "matrix", "three-rows", "vector"],
)
def test_one_row_kernels_keep_their_input_errors(kernel, arg, message):
    with pytest.raises(ValueError, match=message):
        kernel(arg)


def test_qubit_orthogonal_of_a_huge_state():
    # np.linalg.norm of (1e200, 1e200) overflowed to inf, and the complement read as zero
    out = qubit_orthogonal([1e200, 1e200])
    assert out == pytest.approx(np.array([1.0, -1.0]) / RT2, rel=1e-15)


# One contract for both factor kernels: one shape rule, and factors from the whole float range.
# Every test below runs with warnings as errors.


@pytest.mark.parametrize(
    "row, qubit, qudit",
    [
        ([1e80, 0, 0, 0], [1, 0], [1, 0]),
        ([1e-100, 0, 0, 0], [1, 0], [1, 0]),
        ([0, 0, 3e200j, 4e200j], [0, 1], [0.6, 0.8]),
        ([5e-324, 0, 0, 0], [1, 0], [1, 0]),
    ],
    ids=["1e80", "1e-100", "huge-second-row", "subnormal"],
)
def test_factor_arrays_takes_rows_of_any_finite_scale(row, qubit, qudit):
    # the qubit factor used to take each entry's fourth power: 1e80 and 1e-100 warned
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (a,), (b,), (sigma2,) = factor_arrays(np.array([row]))
    assert a == pytest.approx(np.array(qubit), abs=1e-15)
    assert b == pytest.approx(np.array(qudit), abs=1e-15)
    assert sigma2 == 0.0


ROWS = "expected a (k, 2n) array of rows, got shape "
ODD = "odd dimension 3: cannot split off a qubit factor"
ZERO = ": a zero vector has no factors"


@pytest.mark.parametrize(
    "kernel, arg, message",
    [
        (factor_arrays, np.zeros((1, 4)), "zero row 0" + ZERO),
        (factor_arrays, np.eye(4)[[0, 3, 1]] * [[1], [1], [0]], "zero row 2" + ZERO),
        (factor_arrays, np.zeros((0, 4)), ROWS + "(0, 4)"),
        (factor_arrays, np.zeros((2, 0)), ROWS + "(2, 0)"),
        (factor_arrays, np.array([1.0, 0, 0, 0]), ROWS + "(4,)"),
        (factor_arrays, np.ones((1, 2, 4)), ROWS + "(1, 2, 4)"),
        (factor_arrays, np.ones((1, 3)), ODD),
        (factorize, np.ones(3) / math.sqrt(3.0), ODD),
    ],
    ids=["zero", "zero-third", "no-rows", "empty-rows", "one-row", "3-d", "odd", "odd-one-row"],
)
def test_factor_kernels_name_what_is_wrong_with_their_input(kernel, arg, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            kernel(arg)
    assert str(info.value) == message


def test_factor_arrays_takes_rows_in_any_memory_order():
    rows = np.array(generate_from_type(TypeSpec(n=3, partition=(2, 1), seed=2)).vectors)
    want = [x.tobytes() for x in factor_arrays(rows)]
    for view in (np.asfortranarray(rows), np.repeat(rows, 2, axis=1)[:, ::2]):
        assert [x.tobytes() for x in factor_arrays(view)] == want


def _parts(rows: np.ndarray) -> np.ndarray:
    """The moduli of the real and imaginary parts of `rows` that are not zero."""
    parts = np.abs(rows.view(np.float64))
    return parts[parts > 0.0]


@st.composite
def rows_at_any_scale(draw):
    """Rows of C^(2n): a generated basis (n <= 16, any partition), random entangled rows, or
    either with each row times its own power of two, 2**-900 to 2**900."""
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        n = draw(st.integers(1, 16))
        spec = TypeSpec(
            n=n,
            partition=draw(st.sampled_from(partitions_of(n))),
            seed=seed,
            subspace_mode=draw(st.sampled_from(("identity-blocks", "haar-random"))),
        )
        rows = np.array(generate_from_type(spec).vectors)
    else:
        rng = _rng(seed)
        rows = np.array([_random_unit(rng, 2 * draw(st.integers(1, 16)))])
        rows = np.concatenate([rows, [_random_unit(rng, rows.shape[1]) for _ in range(4)]])
    if draw(st.booleans()):
        shift = st.sampled_from((-900, -300, 0, 3, 300, 900))
        shifts = draw(st.lists(shift, min_size=len(rows), max_size=len(rows)))
        rows = np.ldexp(rows.view(np.float64), np.array(shifts)[:, None])
        rows = rows.view(np.complex128)
    return rows


@settings(max_examples=60, deadline=None)
@given(rows_at_any_scale(), st.data())
def test_factor_arrays_commutes_with_powers_of_two(rows, data):
    # every part stays a normal float at 2**k: 2**k rows has the factors of rows, bit for bit
    parts = _parts(rows)
    low = max(-1000, -1021 - math.frexp(float(parts.min()))[1])  # smallest part >= 2**-1022
    high = min(1000, 1024 - math.frexp(float(parts.max()))[1])  # largest part < 2**1024
    assume(low <= 0 <= high)
    k = data.draw(st.integers(low, high) | st.sampled_from((low, high)), label="k")
    scaled = np.ldexp(rows.view(np.float64), k).view(np.complex128)
    assert np.isfinite(scaled).all() and _parts(scaled).min() >= np.finfo(float).tiny
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a, b, _ = factor_arrays(rows)
        A, B, sigma2 = factor_arrays(scaled)
        stack = singular_values_2xn_stack(scaled.reshape(len(rows), 2, -1))[1]
    assert A.tobytes() == a.tobytes() and B.tobytes() == b.tobytes()
    assert sigma2.tobytes() == stack.tobytes()
