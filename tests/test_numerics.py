import cmath
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodbase.analyzer import ProductBasis
from prodbase.basisfile import BasisFileError, _complex_rows
from prodbase.numerics import (
    DEFAULT_TOL,
    Tolerances,
    _gram_eigenvalue,
    as_vector,
    canonical_phase,
    gram_residual,
    inner,
    norm,
    orthonormalize,
    singular_values_2xn,
    singular_values_2xn_stack,
    subspace_equal,
)
from prodbase.product_space import factorize

RT2 = math.sqrt(2.0)


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def _random_unit(rng, d):
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return z / np.linalg.norm(z)


def test_inner_standard_basis():
    assert inner([1, 0], [1, 0]) == 1
    assert inner([1, 0], [0, 1]) == 0


def test_inner_superposition():
    val = inner([1, 0], np.array([1, 1]) / RT2)
    assert abs(val - 0.7071067811865476) < 1e-15


def test_inner_dim_mismatch():
    with pytest.raises(ValueError, match="dim-mismatch"):
        inner([1, 0], [1, 0, 0])


def test_inner_conjugate_symmetry_exact():
    rng = _rng(1)
    for _ in range(50):
        x = _random_unit(rng, 5)
        y = _random_unit(rng, 5)
        assert inner(x, y) == np.conj(inner(y, x))


def test_inner_self_real_nonnegative():
    rng = _rng(2)
    for _ in range(50):
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        val = inner(x, x)
        assert val.imag == 0.0
        assert val.real >= 0.0
    z = np.zeros(4)
    assert inner(z, z) == 0


def test_canonical_phase_pivot_real_positive():
    v = canonical_phase(np.array([-1.0, 1.0]) / RT2)
    assert np.allclose(v, np.array([1.0, -1.0]) / RT2)
    w = canonical_phase(np.array([0.2j, -0.9]))
    assert w[1].real > 0 and abs(w[1].imag) < 1e-15


def test_canonical_phase_zero_vector():
    with pytest.raises(ValueError):
        canonical_phase(np.zeros(3))
    with pytest.raises(ValueError, match="^cannot phase-canonicalize the zero vector$"):
        canonical_phase([[1.0, 0.0], [0.0, 0.0]])


@pytest.mark.parametrize("value", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_canonical_phase_rejects_a_non_finite_vector_or_row_alike(value):
    v = np.array([0.6, 0.8j, 0.0])
    v[2] = value
    rows = np.stack([np.array([1.0, 0.0, 0.0]), v])
    for arg in (v, rows, rows.tolist()):
        with pytest.raises(ValueError, match="^vector has non-finite entries$"):
            canonical_phase(arg)


@pytest.mark.parametrize("shape", [(0,), (1, 0), (3, 0)])
def test_canonical_phase_rejects_an_empty_vector_or_row_alike(shape):
    with pytest.raises(ValueError, match="^empty vector$"):
        canonical_phase(np.zeros(shape, complex))


def test_orthonormalize_already_orthonormal():
    sub = orthonormalize([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    assert sub.dim == 2
    assert sub.ambient_dim == 2
    assert np.allclose(sub.projector(), np.eye(2))


def test_orthonormalize_dependent_inputs_collapse():
    sub = orthonormalize([np.array([1.0, 0.0]), np.array([2.0, 0.0])])
    assert sub.dim == 1
    assert np.allclose(np.abs(sub.basis[:, 0]), [1.0, 0.0])


def test_orthonormalize_seeded_gram_residual():
    rng = _rng(3)
    vecs = [rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(3)]
    sub = orthonormalize(vecs)
    assert sub.dim == 3
    assert gram_residual([sub.basis[:, k] for k in range(3)]) < 1e-12


def test_orthonormalize_zero_span():
    with pytest.raises(ValueError, match="zero-span"):
        orthonormalize([np.zeros(3), np.zeros(3)])
    with pytest.raises(ValueError, match="zero-span"):
        orthonormalize([])


@pytest.mark.parametrize("vectors", [[1.0, 0.0], np.ones((2, 2, 2))], ids=["one-vector", "3-d"])
def test_orthonormalize_names_a_shape_that_is_not_a_list_of_vectors(vectors):
    # a flat vector or a 3-d array used to read as "zero-span: no input vectors"
    shape = np.shape(vectors)
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
        orthonormalize(vectors)


@pytest.mark.parametrize("value", [math.nan, math.inf, complex(math.inf, math.nan)])
def test_orthonormalize_rejects_non_finite_vectors(value):
    with pytest.raises(ValueError, match="^vector has non-finite entries$"):
        orthonormalize([[1.0, 0.0], [value, 1.0]])


def test_norm_is_the_euclidean_length_of_a_finite_vector():
    assert norm([3.0, 4.0j]) == 5.0
    # entries whose squares overflow
    assert norm([1e200, 1e200j, 3e199 + 4e199j]) == pytest.approx(1.5e200, rel=1e-15)
    with pytest.raises(ValueError, match="^vector has non-finite entries$"):
        norm([1.0, math.nan])


def test_norm_agrees_with_numpy_on_random_vectors():
    rng = _rng(7)
    for _ in range(200):
        v = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        assert norm(v) == pytest.approx(np.linalg.norm(v), rel=1e-15)


def test_orthonormalize_idempotent_up_to_phase():
    rng = _rng(4)
    vecs = [rng.standard_normal(5) + 1j * rng.standard_normal(5) for _ in range(3)]
    sub = orthonormalize(vecs)
    again = orthonormalize([sub.basis[:, k] for k in range(sub.dim)])
    assert subspace_equal(sub, again)


def test_singular_values_identity():
    s1, s2 = singular_values_2xn(np.eye(2))
    assert abs(s1 - 1) < 1e-15 and abs(s2 - 1) < 1e-15


def test_singular_values_rank_one_unit():
    m = np.array([0, 1, 0, 0, 0, 0], dtype=complex).reshape(2, 3)
    s1, s2 = singular_values_2xn(m)
    assert abs(s1 - 1) < 1e-15
    assert s2 < 1e-15


def test_singular_values_zero_matrix():
    assert singular_values_2xn(np.zeros((2, 4))) == (0.0, 0.0)


def test_singular_values_shape_check():
    with pytest.raises(ValueError):
        singular_values_2xn(np.zeros((3, 4)))


@pytest.mark.parametrize("shape", [(2, 4), (1, 3, 4), (4, 3, 2), (2, 2, 2, 2), ()])
def test_singular_values_stack_shape_check(shape):
    # a stack used to read rows 0 and 1 of any matrix, and a matrix raised IndexError
    message = f"expected a stack of matrices with 2 rows, got shape {shape}"
    with pytest.raises(ValueError, match=re.escape(message)):
        singular_values_2xn_stack(np.ones(shape))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.inf)])
@pytest.mark.parametrize("row", [0, 1])
def test_singular_values_reject_non_finite_entries(bad, row):
    # a non-finite entry used to come back as sigma_2 = 0, a rank-one verdict
    m = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], dtype=complex)
    m[row, 2] = bad
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError, match="non-finite"):
            singular_values_2xn(m)
        with pytest.raises(ValueError, match="non-finite"):
            singular_values_2xn_stack(np.stack([np.eye(2, 3), m]))


def _both_kernels(m):
    """(sigma_1, sigma_2) of `m` from the scalar kernel and from the stack kernel."""
    s1, s2 = singular_values_2xn_stack(np.asarray(m, dtype=complex)[None])
    return singular_values_2xn(m), (float(s1[0]), float(s2[0]))


def test_singular_values_of_entries_whose_squares_overflow():
    # a finite entry above ~1e154 used to overflow the squared row norms and raise; one
    # above ~1e77 overflowed the squares of squares in the one-row kernel
    for big in (1e100, 1e200):
        for got in _both_kernels([[big, 0.0], [0.0, 1.0]]):
            assert got == pytest.approx((big, 1.0), rel=1e-14)
    rng = _rng(7)
    row = np.outer(_random_unit(rng, 2), _random_unit(rng, 5)) * 1e300
    for s1, s2 in _both_kernels(row):
        assert s1 == pytest.approx(1e300, rel=1e-14) and s2 <= 1e-14 * s1
    with np.errstate(over="ignore", invalid="ignore"):
        for bad in (math.nan, math.inf):
            for kernel in (singular_values_2xn, lambda m: singular_values_2xn_stack([m])):
                with pytest.raises(ValueError, match="non-finite"):
                    kernel(np.array([[1e200, bad], [0.0, 1.0]]))


def test_singular_values_stack_rescales_only_the_overflowing_matrices():
    ms = np.array([[[1e200, 0.0], [0.0, 1.0]], [[3.0, 0.0], [0.0, 2.0]], [[0.0, 0.0], [0.0, 0.0]]])
    s1, s2 = singular_values_2xn_stack(ms)
    assert s1.tolist() == pytest.approx([1e200, 3.0, 0.0], rel=1e-14)
    # the finite ones keep the closed form's values bit for bit
    assert s1[1:].tolist() == [3.0, 0.0]
    assert s2.tolist() == pytest.approx([1.0, 2.0, 0.0], rel=1e-14)


def test_singular_values_char_poly_oracle():
    # independent oracle: roots of the characteristic polynomial of the
    # 2x2 Gram, computed via numpy's companion-matrix solver
    rng = _rng(5)
    for _ in range(100):
        m = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
        g = m @ m.conj().T
        tr = g[0, 0].real + g[1, 1].real
        det = (g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]).real
        lams = sorted(np.roots([1.0, -tr, det]).real, reverse=True)
        expect = [math.sqrt(max(l, 0.0)) for l in lams]
        got = singular_values_2xn(m)
        assert abs(got[0] - expect[0]) < 1e-10
        assert abs(got[1] - expect[1]) < 1e-10
        assert abs(got[0] ** 2 + got[1] ** 2 - np.linalg.norm(m) ** 2) < 1e-12


def test_singular_values_outer_product_is_rank_one():
    rng = _rng(6)
    for _ in range(100):
        a = _random_unit(rng, 2)
        b = _random_unit(rng, 6)
        s1, s2 = singular_values_2xn(np.outer(a, b))
        assert 1 - 1e-10 <= s1 <= 1 + 1e-10
        assert s2 <= 1e-10


def test_subspace_equal_same_plane():
    s = orthonormalize([np.array([1, 0, 0.0]), np.array([0, 1, 0.0])])
    t = orthonormalize([np.array([1, 1, 0.0]) / RT2, np.array([1, -1, 0.0]) / RT2])
    assert subspace_equal(s, t)
    assert subspace_equal(t, s)


def test_subspace_equal_orthogonal_lines():
    s = orthonormalize([np.array([1, 0, 0.0])])
    t = orthonormalize([np.array([0, 0, 1.0])])
    assert not subspace_equal(s, t)


def test_subspace_equal_ambient_mismatch():
    s = orthonormalize([np.array([1, 0.0])])
    t = orthonormalize([np.array([1, 0, 0.0])])
    with pytest.raises(ValueError):
        subspace_equal(s, t)


def test_subspaces_of_unequal_dimension_are_not_equal():
    line = orthonormalize([np.array([1, 0, 0.0])])
    plane = orthonormalize([np.array([1, 0, 0.0]), np.array([0, 1, 0.0])])
    assert not subspace_equal(line, plane)
    assert not subspace_equal(plane, line)


def test_subspace_equal_transitive_within_triple_tolerance():
    # two sub-tolerance rotations compose to at most a 3x-tolerance difference
    base = orthonormalize([np.array([1, 0, 0, 0.0]), np.array([0, 1, 0, 0.0])])
    tol = Tolerances(eps_orth=1e-7)
    triple = Tolerances(eps_orth=3e-7)

    def rotated(sub, angle):
        c, s = math.cos(angle), math.sin(angle)
        col0 = c * sub.basis[:, 0] + s * np.array([0, 0, 1, 0.0])
        return orthonormalize([col0, sub.basis[:, 1]])

    tiny = 5e-8  # projector distance ~ sqrt(2)*sin(tiny) < sqrt(2*dim)*eps_orth
    t = rotated(base, tiny)
    u = rotated(t, tiny)
    assert subspace_equal(base, t, tol) and subspace_equal(t, u, tol)
    assert subspace_equal(base, u, triple)


def test_subspace_equal_reflexive_symmetric():
    rng = _rng(7)
    for _ in range(20):
        vecs = [rng.standard_normal(5) + 1j * rng.standard_normal(5) for _ in range(2)]
        s = orthonormalize(vecs)
        assert subspace_equal(s, s)
        mixed = [vecs[0] + vecs[1], vecs[0] - vecs[1]]
        t = orthonormalize(mixed)
        assert subspace_equal(s, t) and subspace_equal(t, s)


def test_tolerances_validated():
    with pytest.raises(ValueError):
        Tolerances(eps_orth=0.0)
    with pytest.raises(ValueError):
        Tolerances(eps_rank=1e-2)
    assert DEFAULT_TOL.eps_orth == 1e-9
    assert DEFAULT_TOL.eps_unit == 1e-9
    assert DEFAULT_TOL.eps_rank == 1e-8
    assert DEFAULT_TOL.eps_ray == 1e-8


@pytest.mark.parametrize("shape", [(4,), (0, 4), (3, 0)])
def test_gram_residual_names_a_shape_without_vectors(shape):
    want = f"expected a (k, d) array of finite vectors, got shape {shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        gram_residual(np.ones(shape))


def test_gram_residual_takes_an_array_or_its_rows():
    rng = _rng(7)
    rows = rng.standard_normal((5, 8)) + 1j * rng.standard_normal((5, 8))
    assert gram_residual(rows) == gram_residual(list(rows))
    for value in (np.nan, np.inf):
        bad = rows.copy()
        bad[2, 3] = value
        for arg in (bad, list(bad)):
            with pytest.raises(ValueError):
                gram_residual(arg)
    # finite entries whose products overflow: inf - inf used to give a NaN residual, which
    # passes every "residual > tolerance" test
    assert gram_residual([[1e300 + 1e300j, 1e300 - 1e300j], [1.0, 1.0]]) == math.inf


def test_canonical_phase_ties_within_roundoff_go_to_the_first_entry():
    # cos(pi/4) exceeds sin(pi/4) by one ulp: the ray is still (1, e^{i phi}) / sqrt(2)
    c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
    assert c != s
    phase = complex(math.cos(2.0), math.sin(2.0))
    for v in (np.array([c, phase * s]), np.array([phase * s, c])):
        for out in (canonical_phase(v), canonical_phase(v[None])[0]):
            assert abs(out[0].imag) < 1e-15 and out[0].real > 0.7


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 130), st.integers(0, 2**32 - 1), st.sampled_from(("generic", "tie", "real", "scaled")))
def test_canonical_phase_of_a_vector_is_bit_identical_to_the_row_path(n, seed, kind):
    rng = _rng(seed)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if kind == "tie":
        v[rng.integers(0, n)] = v[0] * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    elif kind == "real":
        v = v.real.astype(complex)
    elif kind == "scaled":
        v *= 10.0 ** rng.uniform(-300.0, 300.0)
    assert canonical_phase(v).tobytes() == canonical_phase(v[None])[0].tobytes()


def _two_row_matrix(rng, n, kind, log_sigma2):
    """A complex 2 x n matrix: near rank one with sigma_2 about 10**log_sigma2, with a
    zero row, zero, or near rank one with entries scaled by up to 1e200."""
    if kind == "zero":
        return np.zeros((2, n), dtype=complex)
    a = _random_unit(rng, 2)
    a_perp = np.array([-a[1].conjugate(), a[0].conjugate()])
    m = np.outer(a, _random_unit(rng, n))
    m += 10.0**log_sigma2 * np.outer(a_perp, _random_unit(rng, n))
    if rng.random() < 1.0 / 3.0:
        m[rng.integers(0, 2), rng.integers(0, n)] = 0.0
    if kind == "zero row":
        m[rng.integers(0, 2)] = 0.0
    elif kind == "scaled":
        m *= 10.0 ** rng.uniform(-150.0, 200.0)
    return m


_KINDS = st.sampled_from(("near rank one", "zero row", "zero", "scaled"))
_LOG_SIGMA2 = st.floats(-17.0, 0.0)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 64), st.integers(0, 2**32 - 1), _KINDS, _LOG_SIGMA2)
def test_the_one_row_kernel_has_the_bits_of_the_stack_kernel(n, seed, kind, log_sigma2):
    m = _two_row_matrix(_rng(seed), n, kind, log_sigma2)
    one_row, stacked = _both_kernels(m)
    assert one_row == stacked


def test_the_gram_eigenvalue_rounds_alike_on_floats_and_on_arrays():
    # Python's float ** 2 and numpy's square differ on about 1 in 1,000 inputs
    rng = _rng(0)
    n0, beta, gamma = rng.random((3, 20000)) * 10.0 ** rng.uniform(-8.0, 0.0, (3, 20000))
    on_arrays = _gram_eigenvalue(n0, beta, gamma, np.sqrt).tolist()
    triples = zip(n0.tolist(), beta.tolist(), gamma.tolist())
    assert [_gram_eigenvalue(*t, math.sqrt) for t in triples] == on_arrays


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 64), st.integers(1, 8), st.integers(0, 2**32 - 1), _KINDS, _LOG_SIGMA2)
def test_a_stack_has_the_bits_of_its_one_row_calls(n, k, seed, kind, log_sigma2):
    rng = _rng(seed)
    ms = np.stack([_two_row_matrix(rng, n, kind, log_sigma2) for _ in range(k)])
    s1, s2 = singular_values_2xn_stack(ms)
    assert [singular_values_2xn(m) for m in ms] == list(zip(s1.tolist(), s2.tolist()))


def _error(call):
    """The message of the ValueError or BasisFileError that `call()` raises, or None."""
    try:
        call()
    except (ValueError, BasisFileError) as exc:
        return str(exc)
    return None


_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf, complex(math.inf, math.nan)])


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(("vector", "rows", "basis")),
    st.integers(1, 8),
    st.integers(0, 2**32 - 1),
    st.one_of(_NON_FINITE, st.floats(155.0, 300.0)),
)
def test_the_one_pass_finiteness_test_raises_exactly_on_a_non_finite_entry(shape, n, seed, spoil):
    # an array is tested by the sum of its squared moduli, entry by entry only when that sum
    # is not finite: for a NaN or inf entry, or (spoil an exponent) a finite one from 1e155 up
    rng = _rng(seed)
    z = rng.standard_normal((2, 2 * n, 2 * n))
    unitary = np.linalg.qr(z[0] + 1j * z[1])[0]
    arr = {"vector": unitary[0], "rows": unitary[: rng.integers(1, 2 * n)], "basis": unitary}[shape]
    at = tuple(rng.integers(0, arr.shape))
    huge = bool(np.isfinite(spoil))
    arr[at] = arr[at] / abs(arr[at]) * 10.0**spoil if huge else spoil
    assert huge == np.isfinite(arr).all()
    rows = arr.reshape(-1, arr.shape[-1])
    row = rows[at[0] if arr.ndim == 2 else 0]
    non_finite = None if huge else "vector has non-finite entries"
    for call in (as_vector, lambda v: inner(v, v), canonical_phase):
        assert _error(lambda: call(row)) == non_finite
    assert _error(lambda: canonical_phase(rows)) == non_finite
    assert _error(lambda: factorize(row)) == ("not-normalized: <v|v> = inf" if huge else non_finite)
    if huge:
        assert gram_residual(rows) == math.inf
    else:
        want = f"expected a (k, d) array of finite vectors, got shape {rows.shape}"
        assert _error(lambda: gram_residual(rows)) == want
    if shape == "basis":
        unit = f"not-normalized: vector {at[0]} has <v|v> = inf"
        assert _error(lambda: ProductBasis(n, arr)) == (unit if huge else non_finite)
        grid = arr.view(np.float64).reshape(2 * n, 2 * n, 2)
        want = None if huge else f"f: vector {at[0]} has non-finite entries"
        assert _error(lambda: _complex_rows(grid, 2 * n, "f")) == want


# One overflow rule: arithmetic as it is where squared moduli sum in range, and on 2**-e times
# the input, scaled back, where they do not.  Every test below runs with warnings as errors.


def _quiet(call):
    """`call()` with every warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return call()


def test_inner_scales_where_the_blas_dot_overflows():
    # OpenBLAS's zdotc formed inf - inf here, so <v|v> of a finite row read (nan+nanj)
    v = np.array([1e155 * np.exp(0.3j), 0.0])
    assert _quiet(lambda: inner(v, v)) == complex(math.inf, 0.0)
    # products past the float range that cancel exactly, and that do not
    x, y = np.array([1.0, 1j]) * 2.0**600, np.array([1.0, -1j]) * 2.0**500
    assert _quiet(lambda: inner(x, y)) == 0.0
    got = _quiet(lambda: inner([1e200, 1e200], [1e120, 1e120j]))
    assert got == complex(math.inf, math.inf)


def test_canonical_phase_past_the_float_range_reads_inf_without_a_warning():
    # the pivot's modulus, 2.1e308, passes the float range: it used to read NaN, with two warnings
    v = [1.5e308 + 1.5e308j, 1.0]
    for out in (_quiet(lambda: canonical_phase(v)), _quiet(lambda: canonical_phase([v]))[0]):
        assert out[0].real == math.inf and not np.isnan(out).any()
        assert out[1] == pytest.approx((1.0 - 1.0j) / RT2, rel=1e-15)


def test_orthonormalize_takes_its_scale_from_norm():
    # np.linalg.norm of these columns overflowed, and the span read as empty
    sub = _quiet(lambda: orthonormalize([[1e200, 0.0], [0.0, 1e200]]))
    assert sub.dim == 2 and np.allclose(sub.projector(), np.eye(2))


def _top_exponent(m):
    """The t for which 2**t is the power of two just above every real and imaginary part of `m`."""
    return math.frexp(float(np.max(np.abs([m.real, m.imag]))))[1]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 64),
    st.integers(0, 2**32 - 1),
    st.sampled_from(("near rank one", "zero row", "zero")),
    _LOG_SIGMA2,
    st.integers(-1000, 1000),
    st.integers(0, 700),
)
def test_power_of_two_scales_read_no_nan_and_warn_nowhere(n, seed, kind, log_sigma2, k, wide):
    # rows 2**wide apart, as in [[1e200, 0], [0, 1]], scaled by 2**k short of the float range
    m = _two_row_matrix(_rng(seed), n, kind, log_sigma2)
    m[0] *= 2.0**wide
    m *= 2.0 ** min(k, 1023 - _top_exponent(m))
    assert np.isfinite(m).all()
    one_row, stacked = _quiet(lambda: _both_kernels(m))
    assert one_row == stacked and not np.isnan(one_row).any()
    assert one_row[0] >= one_row[1] >= 0.0
    assert one_row[0] > 0.0 or not (np.abs(m) > 1e-150).any()  # tiny entries are not scaled
    for x in (m[0], m[1]):
        for y in (m[0], m[1]):
            assert not cmath.isnan(_quiet(lambda: inner(x, y)))
        if x.any():
            assert not np.isnan(_quiet(lambda: canonical_phase(x))).any()
    if m.any(axis=1).all():
        assert not np.isnan(_quiet(lambda: canonical_phase(m))).any()


def _normal(z):
    """Whether every real and imaginary part of `z` is 0 or a finite normal float."""
    parts = np.abs(z.view(np.float64))
    return bool(np.all((parts == 0.0) | ((parts >= 2.0**-1022) & (parts < math.inf))))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 130), st.integers(0, 2**32 - 1), st.integers(-1000, 1000))
def test_canonical_phase_commutes_with_powers_of_two(n, seed, k):
    # on either side of the rule's threshold: 2**k v is done as v is, or scaled back to it
    rng = _rng(seed)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    scaled, want = v * 2.0**k, canonical_phase(v) * 2.0**k
    if _normal(scaled) and _normal(want):  # both exact: no part rounded below the normal range
        assert _quiet(lambda: canonical_phase(scaled)).tobytes() == want.tobytes()
        assert _quiet(lambda: canonical_phase(scaled[None]))[0].tobytes() == want.tobytes()


def test_singular_values_of_a_matrix_whose_squares_underflow():
    # its squared moduli, 1e-340, underflowed to 0, and both sigmas read 0
    for got in _quiet(lambda: _both_kernels([[1e-170, 0.0], [0.0, 1e-170]])):
        assert got == pytest.approx((1e-170, 1e-170), rel=1e-15, abs=0.0)
    for got in _quiet(lambda: _both_kernels([[5e-324, 0.0], [0.0, 5e-324j]])):
        assert got == (5e-324, 5e-324)  # subnormal entries, scaled exactly
    assert _both_kernels(np.zeros((2, 3))) == ((0.0, 0.0), (0.0, 0.0))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 64),
    st.integers(0, 2**32 - 1),
    st.sampled_from(("near rank one", "zero row", "zero")),
    _LOG_SIGMA2,
    st.integers(260, 1074),
)
def test_sigmas_of_a_matrix_whose_squares_underflow_scale_with_it(n, seed, kind, log_sigma2, k):
    # 2**-k m, its squares summing below 2**-500, has the sigmas of m times 2**-k, each rounded
    # once, where 2**-k m is exact
    m = _two_row_matrix(_rng(seed), n, kind, log_sigma2)
    tiny = np.ldexp(m.view(np.float64), -k).view(np.complex128)
    one_row, stacked = _quiet(lambda: _both_kernels(tiny))
    assert one_row == stacked
    if np.array_equal(np.ldexp(tiny.view(np.float64), k), m.view(np.float64)):
        assert one_row == tuple(np.ldexp(singular_values_2xn(m), -k).tolist())
