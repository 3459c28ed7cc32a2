import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodbase.numerics import (
    DEFAULT_TOL,
    Tolerances,
    canonical_phase,
    gram_residual,
    inner,
    orthonormalize,
    singular_values_2xn,
    singular_values_2xn_stack,
    subspace_equal,
)

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
