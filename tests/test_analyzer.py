import contextlib
import io
import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, target
from hypothesis import strategies as st

import prodbase.analyzer as analyzer
from prodbase.analyzer import (
    ProductBasis,
    StructureReport,
    _span_distance,
    check_groupable,
    check_pairwise_condition,
    classify,
    factorize_all,
    left_classify,
    mu_check,
    swap_factors,
    verify_orthonormal,
    verify_product_basis,
    verify_report,
)
from prodbase.cli import load_basis_file, main, save_basis_file
from prodbase.generator import FAMILY_TAGS, FamilyParams, TypeSpec, generate_from_type, named_family
from prodbase.numerics import (
    DEFAULT_TOL,
    Subspace,
    Tolerances,
    canonical_phase,
    gram_residual,
    inner,
    orthonormalize,
    subspace_equal,
)
from prodbase.partitions import Partition, partitions_of
from prodbase.product_space import NotAProduct, factor_arrays, kron, qubit_orthogonal

RT2 = math.sqrt(2.0)
KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / RT2
MINUS = np.array([1.0, -1.0], dtype=complex) / RT2


def computational_basis(n):
    eye = np.eye(2 * n, dtype=complex)
    return ProductBasis(n, [eye[:, k] for k in range(2 * n)])


def bell_completion_basis():
    """Orthonormal basis of C^4 containing one entangled vector."""
    vecs = [
        np.array([1, 0, 0, 1], dtype=complex) / RT2,
        np.array([1, 0, 0, -1], dtype=complex) / RT2,
        np.array([0, 1, 1, 0], dtype=complex) / RT2,
        np.array([0, 1, -1, 0], dtype=complex) / RT2,
    ]
    return ProductBasis(2, vecs)


def d4_two_pair_instance():
    """{|0>|0>, |1>|0>, |+>|1>, |->|1>}: two antipodal pairs, two line subspaces."""
    vecs = [kron(KET0, KET0), kron(KET1, KET0), kron(PLUS, KET1), kron(MINUS, KET1)]
    return ProductBasis(2, vecs)


def test_verify_orthonormal_computational():
    ok, residual = verify_orthonormal(computational_basis(2))
    assert ok
    assert residual == 0.0


def test_verify_orthonormal_duplicate_vector():
    eye = np.eye(4, dtype=complex)
    basis = ProductBasis(2, [eye[:, 0], eye[:, 0], eye[:, 2], eye[:, 3]])
    ok, residual = verify_orthonormal(basis)
    assert not ok
    assert abs(residual - 1.0) < 1e-15


def test_counterexample_residual_is_half():
    basis = named_family(FamilyParams("counterexample_1_4"))
    ok, residual = verify_orthonormal(basis)
    assert not ok
    assert abs(residual - 0.5) < 1e-12


def test_verify_product_basis_computational():
    basis = computational_basis(3)
    ok, results = verify_product_basis(basis)
    assert ok
    assert len(results) == 6
    assert all(results)
    # factorization is a pure function of the basis: a second call agrees
    again = factorize_all(basis)
    assert all(np.array_equal(p.full, q.full) for p, q in zip(results, again))


def test_verify_product_basis_bell_completion():
    basis = bell_completion_basis()
    ok, results = verify_product_basis(basis)
    assert not ok
    assert isinstance(results[0], NotAProduct)
    assert abs(results[0].sigma2 - 1.0 / RT2) < 1e-12


def test_check_pairwise_on_product_bases():
    for basis in (computational_basis(3), computational_basis(5)):
        verify_product_basis(basis)
        assert check_pairwise_condition(basis)


def test_check_pairwise_counterexample_false():
    basis = named_family(FamilyParams("counterexample_1_4"))
    assert not check_pairwise_condition(basis)
    # the violating pair: both overlaps 1/sqrt(2)
    f = factorize_all(basis)
    assert abs(abs(inner(f[0].a, f[3].a)) - 1 / RT2) < 1e-12
    assert abs(abs(inner(f[0].b, f[3].b)) - 1 / RT2) < 1e-12


def test_checks_run_on_fresh_basis():
    basis = computational_basis(2)
    assert check_pairwise_condition(basis) and check_groupable(basis)
    for check in (check_pairwise_condition, check_groupable):
        with pytest.raises(ValueError, match="vector 0 is not a product"):
            check(bell_completion_basis())


def test_check_groupable_valid_basis():
    basis = computational_basis(3)
    factorize_all(basis)
    assert check_groupable(basis)


def test_check_groupable_counterexample_true():
    # groupability does not imply basis
    basis = named_family(FamilyParams("counterexample_1_4"))
    ok_orth, _ = verify_orthonormal(basis)
    assert check_groupable(basis) and not ok_orth


def test_check_groupable_repeated_vector_false():
    v = kron(PLUS, KET0)
    basis = ProductBasis(2, [v.copy() for _ in range(4)])
    factorize_all(basis)
    assert not check_groupable(basis)


def test_groupable_follows_from_valid_basis():
    # necessity direction: every verified product basis also groups cleanly
    for n, parts, seed in ((4, (2, 1, 1), 0), (5, (3, 2), 1), (6, (2, 2, 2), 2)):
        basis = generate_from_type(TypeSpec(n=n, partition=Partition(parts), seed=seed))
        clean = ProductBasis(n, basis.vectors)
        ok, _ = verify_product_basis(clean)
        assert ok
        assert check_groupable(clean)


def test_classify_computational_2x3():
    report = classify(computational_basis(3))
    assert report.valid
    assert report.r == 1
    assert report.right_type == Partition((3,))
    assert report.is_direct_product


def test_classify_d4_two_pair_instance():
    basis = d4_two_pair_instance()
    # exhaustive oracle: every pair of distinct vectors orthogonal, all unit
    for i, j in itertools.combinations(range(4), 2):
        assert abs(inner(basis.vectors[i], basis.vectors[j])) < 1e-15
    for v in basis.vectors:
        assert abs(inner(v, v) - 1) < 1e-15
    report = classify(basis)
    assert report.valid
    assert report.right_type == Partition((1, 1))
    assert not report.is_direct_product


def test_classify_d6_B1_explicit():
    basis = named_family(FamilyParams("d6_B1", unitary_params=(1 / RT2, 1 / RT2)))
    # exhaustive Gram oracle
    for i, j in itertools.combinations(range(6), 2):
        assert abs(inner(basis.vectors[i], basis.vectors[j])) < 1e-15
    report = classify(basis)
    assert report.valid
    assert report.right_type == Partition((2, 1))


def test_classify_reports_not_orthonormal():
    basis = named_family(FamilyParams("counterexample_1_4"))
    report = classify(basis)
    assert not report.valid
    assert abs(report.gram_residual - 0.5) < 1e-12
    assert any("not orthonormal" in d for d in report.diagnostics)


def test_classify_reports_non_product_vector_index():
    report = classify(bell_completion_basis())
    assert not report.valid
    assert any("vector 0" in d and "not a product" in d for d in report.diagnostics)


def test_classify_blocks_satisfy_pairing_properties():
    spec = TypeSpec(n=6, partition=Partition((3, 2, 1)), seed=11)
    basis = generate_from_type(spec)
    report = classify(basis)
    assert report.valid
    assert sum(b.multiplicity for b in report.blocks) == 6
    for blk in report.blocks:
        assert abs(inner(blk.a, blk.a_perp)) <= 1e-9
        assert len(blk.group_A) == len(blk.group_Aperp) == blk.multiplicity
        assert blk.subspace.dim == blk.multiplicity
        span_a = orthonormalize(blk.group_A)
        span_p = orthonormalize(blk.group_Aperp)
        assert subspace_equal(span_a, span_p)
    # blocks' subspaces are mutually orthogonal
    for b1, b2 in itertools.combinations(report.blocks, 2):
        cross = b1.subspace.basis.conj().T @ b2.subspace.basis
        assert np.max(np.abs(cross)) < 1e-9


def test_classify_invariant_under_permutation_and_phase():
    rng = np.random.Generator(np.random.Philox(42))
    spec = TypeSpec(n=5, partition=Partition((2, 2, 1)), seed=3)
    base = generate_from_type(spec)
    ref = classify(ProductBasis(5, base.vectors))
    assert ref.valid
    for _ in range(5):
        perm = rng.permutation(10)
        phases = np.exp(2j * np.pi * rng.random(10))
        vecs = [phases[k] * base.vectors[perm[k]] for k in range(10)]
        report = classify(ProductBasis(5, vecs))
        assert report.valid
        assert report.right_type == ref.right_type
        for blk, blk_ref in zip(report.blocks, ref.blocks):
            assert blk.multiplicity == blk_ref.multiplicity
        # same multiset of block subspaces
        for blk in report.blocks:
            assert any(
                blk.multiplicity == other.multiplicity
                and subspace_equal(blk.subspace, other.subspace)
                for other in ref.blocks
            )


def test_left_classify_d4_families():
    b0 = named_family(FamilyParams("d4_B0"))
    assert left_classify(b0) == Partition((2,))
    b1 = named_family(FamilyParams("d4_B1"))
    assert left_classify(b1) == Partition((1, 1))


def test_left_classify_undefined_beyond_n2():
    assert left_classify(named_family(FamilyParams("d6_B0"))) is None
    assert left_classify(computational_basis(3)) is None


def test_swap_factors_roundtrip_preserves_right_type():
    basis = named_family(FamilyParams("d4_B1"))
    double = swap_factors(swap_factors(basis))
    assert classify(double).right_type == classify(basis).right_type


def test_mu_check_pauli_product_pair():
    triple = named_family(FamilyParams("d4_mupb_triple"))
    ok, dev = mu_check(list(triple[0].vectors), list(triple[1].vectors))
    assert ok
    assert dev < 1e-12


def test_mu_check_basis_against_itself():
    basis = computational_basis(2)
    ok, dev = mu_check(list(basis.vectors), list(basis.vectors))
    assert not ok
    assert abs(dev - (1 - 1 / 4)) < 1e-15


def test_mu_check_rejects_non_basis():
    eye = np.eye(3, dtype=complex)
    good = [eye[:, k] for k in range(3)]
    bad = [eye[:, 0], eye[:, 0], eye[:, 2]]
    with pytest.raises(ValueError, match="not-a-basis"):
        mu_check(good, bad)
    with pytest.raises(ValueError, match="not-a-basis"):
        mu_check(good[:2], good[:2])


def test_mu_check_names_empty_families():
    # two empty families used to read as "different sizes"
    with pytest.raises(ValueError, match="^not-a-basis: both families are empty$"):
        mu_check([], [])
    with pytest.raises(ValueError, match="^not-a-basis: the two families have different sizes$"):
        mu_check(list(np.eye(2)), [])


def test_product_basis_validation():
    eye = np.eye(4, dtype=complex)
    with pytest.raises(ValueError):
        ProductBasis(2, [eye[:, 0]])
    with pytest.raises(ValueError, match="not-normalized"):
        ProductBasis(2, [2 * eye[:, 0], eye[:, 1], eye[:, 2], eye[:, 3]])
    # an entry whose square overflows is not unit either, and raises no numpy warning
    with pytest.raises(ValueError, match="vector 0 has <v|v> = inf"):
        ProductBasis(2, [1e200 * eye[:, 0], eye[:, 1], eye[:, 2], eye[:, 3]])
    with pytest.raises(ValueError, match="^vector has non-finite entries$"):
        ProductBasis(2, [eye[:, 0], eye[:, 1], np.nan * eye[:, 2], eye[:, 3]])


def test_product_basis_vectors_are_one_read_only_array():
    basis = computational_basis(3)
    assert basis.vectors.shape == (6, 6) and basis.vectors.dtype == np.complex128
    with pytest.raises(ValueError):
        basis.vectors[0, 0] = 0.0


def test_check_groupable_adversarial_family_is_fast():
    # standard vectors, a copy of all but the last, and the uniform vector,
    # qubits alternating |0>/|1>: the uniform vector meets every other qudit
    # factor, so no grouping exists; the time bound catches any search that
    # has to try exact covers to learn that, whose cost doubles per unit of n
    n = 64
    eye = np.eye(n)
    qudits = [*eye, *eye[: n - 1], np.full(n, 1.0 / math.sqrt(n))]
    basis = ProductBasis(n, [kron((KET0, KET1)[k % 2], b) for k, b in enumerate(qudits)])
    start = time.perf_counter()
    assert not check_groupable(basis)
    assert time.perf_counter() - start < 1.0


def _unitary(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _qudit_pool(n):
    """Standard basis, Fourier basis and (e0 +- e1)/sqrt2: every overlap is 0 or >= 1/3."""
    fourier = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n) / math.sqrt(n)
    pool = [*np.eye(n, dtype=complex), *fourier]
    if n >= 2:
        pool += [(np.eye(n)[0] + s * np.eye(n)[1]) / RT2 for s in (1, -1)]
    return pool


QUBIT_POOL = (KET0, KET1, PLUS, MINUS, (KET0 + 1j * KET1) / RT2, (KET0 - 1j * KET1) / RT2)


@st.composite
def grouping_inputs(draw):
    """Qubit and qudit factors drawn from fixed pools, then turned by one
    random unitary per side, so every overlap is exactly 0, exactly 1 or far
    from both."""
    n = draw(st.integers(1, 4))
    d = 2 * n
    pool = _qudit_pool(n)
    qubit_ids = draw(
        st.one_of(
            st.permutations([0, 1] * n),
            st.permutations([0, 1, 2, 3] * (n // 2) + [0, 1] * (n % 2)),
            st.lists(st.integers(0, len(QUBIT_POOL) - 1), min_size=d, max_size=d),
        )
    )
    qudit_ids = draw(
        st.one_of(
            st.permutations(list(range(n)) * 2),
            st.permutations(list(range(2 * n))),
            st.lists(st.integers(0, len(pool) - 1), min_size=d, max_size=d),
        )
    )
    rng = np.random.Generator(np.random.Philox(draw(st.integers(0, 2**32 - 1))))
    u2, un = _unitary(rng, 2), _unitary(rng, n)
    qubits = np.array([u2 @ QUBIT_POOL[i] for i in qubit_ids])
    qudits = np.array([un @ pool[i] for i in qudit_ids])
    return n, qubits, qudits


def _groupable_by_brute_force(qubits, qudits, eps):
    """Reference for check_groupable: every pairing of the qubit factors and
    every n-subset of the qudit factors."""
    d = len(qubits)
    qubit_orth = np.abs(qubits.conj() @ qubits.T) <= eps
    qudit_orth = np.abs(qudits.conj() @ qudits.T) <= eps

    def pairable(rest):
        if not rest:
            return True
        first, others = rest[0], rest[1:]
        return any(
            qubit_orth[first, j] and pairable(others[:k] + others[k + 1 :])
            for k, j in enumerate(others)
        )

    def orthogonal(group):
        return all(qudit_orth[i, j] for i, j in itertools.combinations(group, 2))

    halves = any(
        orthogonal(half) and orthogonal([k for k in range(d) if k not in half])
        for half in itertools.combinations(range(d), d // 2)
    )
    return pairable(tuple(range(d))) and halves


@settings(max_examples=300, deadline=None)
@given(grouping_inputs())
def test_check_groupable_matches_brute_force(case):
    n, qubits, qudits = case
    tol = DEFAULT_TOL
    for factors in (qubits, qudits):
        ov = np.abs(factors.conj() @ factors.T)
        assert np.all((ov <= tol.eps_orth / 100) | (ov >= 100 * tol.eps_orth))
        assert np.all((ov >= 1 - tol.eps_ray / 100) | (ov <= 1 - 100 * tol.eps_ray))
    basis = ProductBasis(n, [kron(a, b) for a, b in zip(qubits, qudits)])
    assert check_groupable(basis) == _groupable_by_brute_force(qubits, qudits, tol.eps_orth)


@st.composite
def classify_inputs(draw):
    if draw(st.booleans()):
        tag = draw(st.sampled_from(("d4_B0", "d4_B1", "d4_B2", "d6_B1", "d6_B3", "counterexample_1_4")))
        return named_family(FamilyParams(tag))
    n = draw(st.integers(1, 6))
    spec = TypeSpec(
        n=n,
        partition=draw(st.sampled_from(partitions_of(n))),
        seed=draw(st.integers(0, 2**32 - 1)),
        pair_mode=draw(st.sampled_from(("equal-groups", "independent-groups"))),
    )
    return generate_from_type(spec)


@settings(max_examples=100, deadline=None)
@given(classify_inputs(), st.integers(0, 2**32 - 1))
def test_classify_stable_below_tolerance(basis, seed):
    # every vector moves by eps_orth / 100 in a random direction
    rng = np.random.Generator(np.random.Philox(seed))
    shape = basis.vectors.shape
    noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    noise *= DEFAULT_TOL.eps_orth / 100 / np.linalg.norm(noise, axis=1, keepdims=True)
    moved = basis.vectors + noise
    moved /= np.linalg.norm(moved, axis=1, keepdims=True)
    before = classify(basis)
    after = classify(ProductBasis(basis.n, moved))
    assert after.valid == before.valid
    assert after.right_type == before.right_type


def _turned_block_basis(theta: float) -> ProductBasis:
    """C^2 (x) C^9 as a 1-block ({|0>, |1>} on e0) and an 8-block ({|+>, |->} on
    e1..e8); the |1> vector's qudit factor turned by `theta` out of span(e0),
    toward the uniform vector w of e1..e8.  The turn costs the Gram matrix only
    sin(theta) * <+|1> * <w|e_j> = sin(theta) / 4, but moves the span of the
    1-block's A-perp group by the full sin(theta)."""
    eye = np.eye(9, dtype=complex)
    w = eye[1:].sum(axis=0) / math.sqrt(8.0)
    turned = math.cos(theta) * eye[0] + math.sin(theta) * w
    minus = np.array([1.0, -1.0], dtype=complex) / RT2
    vectors = [kron(KET0, eye[0]), kron(KET1, turned)]
    vectors += [kron(qubit, eye[j]) for qubit in (PLUS, minus) for j in range(1, 9)]
    return ProductBasis(9, vectors)


def test_classify_span_check_flips_between_tiny_and_large_turns():
    # eps_orth sits between the Gram cost (theta / 4) and the span distance
    # (sqrt(2) * theta, against sqrt(2) * eps_orth for a 1-vector block)
    tol = Tolerances(eps_orth=5e-7)
    assert classify(_turned_block_basis(1e-12), tol).valid
    report = classify(_turned_block_basis(1e-6), tol)
    assert not report.valid
    assert report.gram_residual <= tol.eps_orth
    assert report.diagnostics == (
        "qudit groups of block (0,) do not span one common subspace of dimension 1",
    )


def _tilted_b2_basis(delta: float) -> ProductBasis:
    """Blocks 16+16 on the qubit rays z and (0.2, sqrt(0.96)).  Block 1 pairs the
    Fourier basis of span(e0 .. e15) with e0 .. e15; block 2 is e16 .. e31 on both
    sides, but its first A-perp vector is tilted by `delta` toward e0."""
    m = 16
    e = np.eye(2 * m, dtype=complex)
    fourier = np.exp(2j * np.pi * np.outer(np.arange(m), np.arange(m)) / m) / math.sqrt(m)
    a = np.array([0.2, math.sqrt(0.96)], dtype=complex)
    tilted = math.cos(delta) * e[m] + math.sin(delta) * e[0]
    groups = [
        (KET0, (e[:, :m] @ fourier).T),
        (qubit_orthogonal(KET0), e[:m]),
        (a, e[m:]),
        (qubit_orthogonal(a), [tilted, *e[m + 1 :]]),
    ]
    return ProductBasis(2 * m, [kron(qubit, qudit) for qubit, rows in groups for qudit in rows])


def test_classify_b2_check_alone_rejects_a_tilted_block():
    # The tilt meets block 1's A group only through the Fourier spread, sin(delta) / 4,
    # so the whole basis stays orthonormal, and it stays inside block 2's span bound.
    # Only B2(n), where it meets e0 itself, sees sin(delta) = 3 eps_orth.
    eps = DEFAULT_TOL.eps_orth
    report = classify(_tilted_b2_basis(3.0 * eps))
    assert 0.7 * eps < report.gram_residual < 0.75 * eps
    assert report.diagnostics == (
        "B2(n) is not an orthonormal basis of C^n (residual 3.000000e-09)",
    )
    report = classify(_tilted_b2_basis(0.5 * eps))
    assert report.valid
    assert report.right_type == Partition((16, 16))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.floats(-7.0, 0.0), st.integers(0, 2**32 - 1))
def test_span_distance_matches_the_projector_distance(m, extra, log_turn, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    n = m + extra

    def frame(cols):
        return np.linalg.qr(cols)[0]

    q = frame(rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))
    kick = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    rows = frame(q + 10.0**log_turn * kick).T
    # rows within 1e-12 of orthonormal, as a group passing its Gram check is
    rows = rows + 1e-12 * (rng.standard_normal(rows.shape) + 1j * rng.standard_normal(rows.shape))
    projector_distance = float(
        np.linalg.norm(Subspace(n, q).projector() - Subspace(n, frame(rows.T)).projector())
    )
    assert abs(_span_distance(q, rows) - projector_distance) <= 1e-6 * projector_distance


def test_checks_share_one_read_only_factorization(monkeypatch):
    calls = []
    real = analyzer.factor_arrays
    counted = lambda rows: calls.append(len(rows)) or real(rows)  # noqa: E731
    monkeypatch.setattr(analyzer, "factor_arrays", counted)
    basis = generate_from_type(TypeSpec(n=6, partition=Partition((3, 2, 1)), seed=2))
    assert check_pairwise_condition(basis) and check_groupable(basis) and classify(basis).valid
    assert calls == [12]
    factors = basis._factors
    arrays = (factors.qubits, factors.qudits, factors.sigma2)
    arrays += (factors.qubit_overlaps, factors.qudit_overlaps)
    assert all(not array.flags.writeable for array in arrays)
    assert not classify(basis).blocks[0].a.flags.writeable
    # a classify that stops at the Gram check factors nothing
    repeated = ProductBasis(2, [kron(KET0, KET0)] * 4)
    assert not classify(repeated).valid
    assert calls == [12] and "_factors" not in vars(repeated)


def test_verify_report_leaves_the_factors_unbuilt_when_a_row_is_not_a_product():
    rows = generate_from_type(TypeSpec(n=6, partition=Partition((3, 2, 1)), seed=2)).vectors.copy()
    rows[0], rows[11] = (rows[0] + rows[11]) / RT2, (rows[0] - rows[11]) / RT2
    basis = ProductBasis(6, rows)
    report = analyzer.verify_report(basis)
    assert (report.valid, report.result, report.orthonormal) == (False, "not a product basis", True)
    assert not report.factorizations[0] and report.pairwise is None
    assert "_factors" not in vars(basis)


class _CountingNumpy:
    """numpy, with a count of `where` calls: `_component_labels` makes one per round."""

    def __init__(self):
        self.rounds = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def where(self, *args):
        self.rounds += 1
        return np.where(*args)


def _crafted_chain_basis(n: int) -> ProductBasis:
    """Qudit factors e_k and e_k + 1e-4 e_(k+1 mod n) (normalized), in reverse order, on
    qubit factors alternating |0> and |1>: not orthonormal, but every vector is a product,
    and the graph of the qudit factors' overlaps is one long chain of triangles."""
    eye = np.eye(n)
    qudits = [row for k in range(n) for row in (eye[k], eye[k] + 1e-4 * eye[(k + 1) % n])]
    qudits = [row / np.linalg.norm(row) for row in reversed(qudits)]
    return ProductBasis(n, [kron((KET0, KET1)[k % 2], row) for k, row in enumerate(qudits)])


def test_component_labels_take_a_logarithmic_number_of_rounds(monkeypatch):
    counting, real, seen = _CountingNumpy(), analyzer._component_labels, []

    def labels_of(adjacent):
        before = counting.rounds
        labels = real(adjacent)
        seen.append((len(adjacent), counting.rounds - before))
        return labels

    monkeypatch.setattr(analyzer, "np", counting)
    monkeypatch.setattr(analyzer, "_component_labels", labels_of)
    rng = np.random.Generator(np.random.Philox(10))
    for v in (128, 256, 512):
        path = np.eye(v, k=1, dtype=bool) | np.eye(v, k=-1, dtype=bool)  # least vertex at an end
        assert not analyzer._component_labels(path).any()
        order = rng.permutation(v)  # the least vertex anywhere along the path
        assert not analyzer._component_labels(path[order][:, order]).any()
    report = analyzer.verify_report(_crafted_chain_basis(64))
    assert (report.pairwise, report.groupable) == (False, False)
    assert [v for v, _ in seen[-2:]] == [128, 256]  # the ray classes, the two-colouring
    assert all(rounds <= math.ceil(math.log2(v)) + 2 for v, rounds in seen)


def _rounds_over_log2(call, *args) -> int:
    """The most rounds that a `_component_labels` call made by `call(*args)` takes beyond
    ceil(log2 V) for its V vertices, reported to Hypothesis, by the name of `call`, as the
    figure to drive up."""
    counting, real, excess = _CountingNumpy(), analyzer._component_labels, []

    def labels_of(adjacent):
        before = counting.rounds
        labels = real(adjacent)
        excess.append(counting.rounds - before - math.ceil(math.log2(len(adjacent))))
        return labels

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analyzer, "np", counting)
        patch.setattr(analyzer, "_component_labels", labels_of)
        call(*args)
    target(float(max(excess)), label=call.__name__)
    return max(excess)


@st.composite
def labelling_graphs(draw):
    """A graph of up to 256 vertices, the two-colouring's double cover at n = 64: a forest in
    which each vertex, in a drawn order, hangs from an earlier one or from none, plus a few
    drawn edges.  Offsets of 0 make one path, where a label has the farthest to go."""
    v = draw(st.integers(1, 256))
    order = np.array(draw(st.permutations(range(v))))
    offsets = np.array(draw(st.lists(st.integers(0, v), min_size=v, max_size=v)))
    k = np.arange(v)
    parent = k - 1 - offsets % (k + 1)
    tree = np.flatnonzero(parent >= 0)
    edges = [*zip(order[tree], order[parent[tree]])]
    edges += draw(st.lists(st.tuples(st.integers(0, v - 1), st.integers(0, v - 1)), max_size=8))
    adjacent = np.zeros((v, v), dtype=bool)
    for a, b in edges:
        adjacent[a, b] = adjacent[b, a] = True
    return adjacent


@settings(max_examples=200, deadline=None)
@given(labelling_graphs())
def test_search_finds_no_graph_that_takes_more_than_log2_rounds_plus_2(adjacent):
    assert _rounds_over_log2(lambda: analyzer._component_labels(adjacent)) <= 2


@st.composite
def chained_bases(draw):
    """Product bases at n <= 64 whose qudit factors overlap along one chain, as in
    `_crafted_chain_basis`, with rows in a drawn order.  Their qubit factors alternate |0>
    and |1>, so that the two-colouring runs, or turn by 1e-4 a row, so that the ray classes
    chain too."""
    n = draw(st.integers(1, 64))
    eye, step = np.eye(n), draw(st.sampled_from((1e-4, 1e-2)))
    qudits = [row for k in range(n) for row in (eye[k], eye[k] + step * eye[(k + 1) % n])]
    qudits = np.array(qudits) / np.linalg.norm(qudits, axis=1, keepdims=True)
    turn = np.arange(2 * n) * (1e-4 if draw(st.booleans()) else math.pi / 2)
    qubits = np.stack([np.cos(turn), np.sin(turn)], axis=1)
    order = draw(st.permutations(range(2 * n)))
    return ProductBasis(n, [kron(qubits[k], qudits[k]) for k in order])


@settings(max_examples=60, deadline=None)
@given(chained_bases())
def test_search_finds_no_basis_whose_labelling_takes_more_than_log2_rounds_plus_2(basis):
    assert _rounds_over_log2(analyzer.verify_report, basis) <= 2
    with pytest.MonkeyPatch.context() as patch:  # classify past the Gram check, to its rays
        patch.setattr(analyzer, "verify_orthonormal", lambda basis, tol: (True, 0.0))
        assert _rounds_over_log2(classify, ProductBasis(basis.n, basis.vectors)) <= 2


def _catalog_bases() -> list[ProductBasis]:
    """Every named family's bases, the general triple from the Pauli bases of C^2."""
    mubs = {"z": np.eye(2), "x": [PLUS, MINUS], "y": [[1 / RT2, 1j / RT2], [1 / RT2, -1j / RT2]]}
    g_bases = {key + side: np.array(mubs[key], dtype=complex) for key in mubs for side in "01"}
    bases = []
    for tag in FAMILY_TAGS:
        params = FamilyParams(tag, g_bases=g_bases if tag == "general_mupb_triple" else None)
        family = named_family(params)
        bases += family if isinstance(family, list) else [family]
    return bases


def _qr_calls(check, basis) -> int:
    """The np.linalg.qr calls that `check` makes on a fresh copy of `basis`."""
    calls, real = [], np.linalg.qr
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "qr", lambda *args: calls.append(args) or real(*args))
        check(ProductBasis(basis.n, basis.vectors))
    return len(calls)


def _measures_no_block(basis) -> None:
    for check in (check_pairwise_condition, check_groupable, analyzer.verify_report):
        assert _qr_calls(check, basis) == 0, check.__name__


def test_verify_checks_measure_no_block_of_a_catalog_basis():
    bases = _catalog_bases()
    for basis in bases:
        _measures_no_block(basis)
    assert any(_qr_calls(classify, basis) for basis in bases)  # the count sees classify's


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 16).flatmap(lambda n: st.sampled_from(partitions_of(n))),
    st.integers(0, 2**32 - 1),
    st.sampled_from(("identity-blocks", "haar-random")),
    st.sampled_from(("equal-groups", "independent-groups")),
)
def test_verify_checks_measure_no_block_of_a_generated_basis(partition, seed, frame, groups):
    basis = generate_from_type(TypeSpec(partition.n, partition, seed, frame, groups))
    _measures_no_block(basis)
    assert _qr_calls(classify, basis) == len(set(partition.parts))  # one QR per block size


@st.composite
def kicked_bases(draw):
    """Generated bases at n <= 8 in all four mode pairs, every qudit factor moved by up to
    0.9 eps_orth in a random direction."""
    n = draw(st.integers(1, 8))
    spec = TypeSpec(
        n,
        draw(st.sampled_from(partitions_of(n))),
        draw(st.integers(0, 2**32 - 1)),
        draw(st.sampled_from(("identity-blocks", "haar-random"))),
        draw(st.sampled_from(("equal-groups", "independent-groups"))),
    )
    factors = generate_from_type(spec)._factors
    rng = np.random.Generator(np.random.Philox(draw(st.integers(0, 2**32 - 1))))
    noise = rng.standard_normal((2 * n, n)) + 1j * rng.standard_normal((2 * n, n))
    kick = draw(st.sampled_from((0.0, 0.9))) * draw(st.floats(0.0, 1.0)) * DEFAULT_TOL.eps_orth
    qudits = factors.qudits + kick * noise / np.linalg.norm(noise, axis=1, keepdims=True)
    qudits /= np.linalg.norm(qudits, axis=1, keepdims=True)
    return ProductBasis(n, np.einsum("ki,kj->kij", factors.qubits, qudits).reshape(2 * n, 2 * n))


@settings(max_examples=150, deadline=None)
@given(kicked_bases())
def test_classify_builds_orthonormal_read_only_array_records(basis):
    report, n = classify(basis), basis.n
    if not report.valid:
        assert (report.blocks, report.basis_B1n, report.basis_B2n) == ((), (), ())
        return
    arrays = [report.basis_B1n, report.basis_B2n]
    assert report.basis_B1n.shape == report.basis_B2n.shape == (n, n)
    for blk in report.blocks:
        m, q = blk.multiplicity, blk.subspace.basis
        # the public Subspace check, 1e-6, with a wide margin
        assert q.shape == (n, m) and np.max(np.abs(q.conj().T @ q - np.eye(m))) <= 1e-12
        assert blk.group_A.shape == blk.group_Aperp.shape == (m, n)
        assert len(blk.group_A) == m and all(row.shape == (n,) for row in blk.group_Aperp)
        assert np.array_equal(blk.group_A[-1], list(blk.group_A)[-1])
        assert subspace_equal(orthonormalize(blk.group_A), blk.subspace)
        arrays += [q, blk.group_A, blk.group_Aperp]
    assert not any(array.flags.writeable for array in arrays)


def test_classify_records_cannot_be_written():
    spec = TypeSpec(n=64, partition=Partition((32, 16, 8, 4, 2, 1, 1)), seed=5)
    report = classify(generate_from_type(spec))
    blk = report.blocks[1]
    kept = [blk.subspace.basis.copy(), blk.group_A.copy(), report.basis_B1n.copy()]
    views = [blk.subspace.basis, blk.group_A[0], blk.group_Aperp, report.basis_B1n[3]]
    for array in [*views, report.basis_B2n]:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
    assert np.array_equal(blk.subspace.basis, kept[0]) and np.array_equal(blk.group_A, kept[1])
    assert np.array_equal(report.basis_B1n, kept[2])


@settings(max_examples=60, deadline=None)
@given(classify_inputs(), st.integers(0, 2**32 - 1))
def test_classify_is_invariant_under_local_unitaries_permutations_and_phases(basis, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    n = basis.n
    local = np.kron(_unitary(rng, 2), _unitary(rng, n))
    phases = np.exp(2j * np.pi * rng.random(2 * n))
    moved = (basis.vectors @ local.T)[rng.permutation(2 * n)] * phases[:, None]
    before, after = classify(basis), classify(ProductBasis(n, moved))
    assert after.valid == before.valid
    assert after.right_type == before.right_type
    assert after.is_direct_product == before.is_direct_product


def _classify_block_by_block(basis, tol=DEFAULT_TOL):
    """Reference for classify past its Gram check: every block's checks in turn,
    stopping at the first failure.  Returns (diagnostic, None) or (None, blocks)."""
    qubits, qudits, _ = factor_arrays(basis.vectors)
    try:
        classes, partner = analyzer._ray_classes(np.abs(qubits.conj() @ qubits.T), tol)
    except ValueError as exc:
        return str(exc), None
    blocks = []
    for c, e in enumerate(partner):
        if c > e:
            continue
        idx_a, idx_p = classes[c], classes[e]
        if len(idx_a) != len(idx_p):
            return f"paired ray classes {idx_a} and {idx_p} have unequal cardinalities", None
        group_a, group_p = qudits[list(idx_a)], qudits[list(idx_p)]
        for name, group in (("A", group_a), ("A-perp", group_p)):
            res = gram_residual(group)
            if res > tol.eps_orth:
                diagnostic = f"qudit group {name} of block {idx_a} is not orthonormal"
                return f"{diagnostic} (residual {res:.6e})", None
        q = canonical_phase(np.linalg.qr(group_a.T)[0].T).T
        distance = RT2 * np.linalg.norm(group_p.T - q @ (q.conj().T @ group_p.T))
        if distance > math.sqrt(2.0 * len(idx_a)) * tol.eps_orth:
            diagnostic = f"qudit groups of block {idx_a} do not span one common subspace"
            return f"{diagnostic} of dimension {len(idx_a)}", None
        parallel = np.abs(group_a.conj() @ group_p.T) >= 1.0 - tol.eps_ray
        coincide = bool(np.all(parallel.sum(axis=0) == 1) and np.all(parallel.sum(axis=1) == 1))
        blocks.append((idx_a, idx_p, q, group_a, group_p, coincide))
    blocks.sort(key=lambda blk: (-len(blk[0]), blk[0][0]))
    for name, side in (("B1(n)", 3), ("B2(n)", 4)):
        res = gram_residual(np.concatenate([blk[side] for blk in blocks]))
        if res > tol.eps_orth:
            return f"{name} is not an orthonormal basis of C^n (residual {res:.6e})", None
    return None, blocks


FAULTS = ("none", "cardinality", "group A", "group A-perp", "both groups", "span", "turn")


def _with_faults(basis, faults):
    """`basis` with the i-th fault of FAULTS applied to its i-th block in the order of
    the blocks' first members; a fault the block is too small for is skipped."""
    qubits, qudits, _ = factor_arrays(basis.vectors)
    blocks = sorted(classify(basis).blocks, key=lambda blk: blk.a_indices[0])
    for blk, fault in zip(blocks, faults):
        idx_a, idx_p = blk.a_indices, blk.a_perp_indices
        others = [k for k in range(2 * basis.n) if k not in idx_a + idx_p]
        if fault == "cardinality" and blk.multiplicity > 1:
            qubits[idx_p[0]] = qubits[idx_a[0]]  # one vector changes sides
        elif "group" in fault and blk.multiplicity > 1:
            for idx in {"group A": [idx_a], "group A-perp": [idx_p]}.get(fault, [idx_a, idx_p]):
                qudits[idx[1]] = (qudits[idx[0]] + qudits[idx[1]]) / RT2
        elif fault == "span" and others:
            # still orthogonal to the rest of its group, but outside the block's subspace
            qudits[idx_p[0]] = (qudits[idx_p[0]] + qudits[others[0]]) / RT2
        elif fault == "turn" and others:
            # the whole block turns toward another block: its own checks still hold,
            # but B1(n) and B2(n) are no longer orthonormal
            x = qudits[idx_a[0]]
            y = qudits[others[0]] - np.vdot(x, qudits[others[0]]) * x
            if np.linalg.norm(y) > 0.1:
                y = y / np.linalg.norm(y)
                plane = np.outer(x, x.conj()) + np.outer(y, y.conj())
                turn = np.eye(basis.n) + (math.cos(0.3) - 1.0) * plane
                turn = turn + math.sin(0.3) * (np.outer(y, x.conj()) - np.outer(x, y.conj()))
                qudits[list(idx_a + idx_p)] = qudits[list(idx_a + idx_p)] @ turn.T
    qudits /= np.linalg.norm(qudits, axis=1, keepdims=True)
    return ProductBasis(basis.n, np.einsum("ki,kj->kij", qubits, qudits).reshape(len(qubits), -1))


def _classify_matches_block_by_block(basis) -> StructureReport:
    """classify's report, asserted equal to the reference's; both start past the whole
    basis' Gram check, so that every block check can fail."""
    diagnostic, expected = _classify_block_by_block(basis)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analyzer, "verify_orthonormal", lambda basis, tol: (True, 0.0))
        report = classify(basis)
    if diagnostic is not None:
        assert report.diagnostics == (diagnostic,)
        return report
    assert report.valid and len(report.blocks) == len(expected)
    for blk, (idx_a, idx_p, q, group_a, group_p, coincide) in zip(report.blocks, expected):
        assert (blk.a_indices, blk.a_perp_indices, blk.groups_coincide) == (idx_a, idx_p, coincide)
        assert np.array_equal(blk.subspace.basis, q)
        assert np.array_equal(blk.group_A, group_a) and np.array_equal(blk.group_Aperp, group_p)
    return report


@st.composite
def faulty_bases(draw):
    n = draw(st.integers(2, 8))
    spec = TypeSpec(
        n=n,
        partition=draw(st.sampled_from(partitions_of(n))),
        seed=draw(st.integers(0, 2**32 - 1)),
        pair_mode=draw(st.sampled_from(("equal-groups", "independent-groups"))),
    )
    faults = draw(st.lists(st.sampled_from(FAULTS), max_size=8))
    return _with_faults(generate_from_type(spec), faults)


@settings(max_examples=150, deadline=None)
@given(faulty_bases())
def test_classify_matches_a_block_by_block_reference(basis):
    _classify_matches_block_by_block(basis)


@pytest.mark.parametrize(
    "faults, first",
    [
        (("span", "group A"), "qudit groups of block"),
        (("none", "group A-perp", "cardinality"), "qudit group A-perp of block"),
        (("cardinality", "span"), "paired ray classes"),
        (("none", "none", "group A"), "qudit group A of block"),
        (("both groups", "cardinality"), "qudit group A of block"),
    ],
)
def test_classify_reports_the_first_of_two_block_faults(faults, first):
    base = generate_from_type(TypeSpec(n=8, partition=Partition((3, 3, 2)), seed=4))
    report = _classify_matches_block_by_block(_with_faults(base, faults))
    assert report.diagnostics[0].startswith(first)


def test_ray_classes_are_ascending_tuples_in_first_member_order():
    rng = np.random.Generator(np.random.Philox(9))
    base = generate_from_type(TypeSpec(n=64, partition=Partition((8,) * 8), seed=1))
    basis = ProductBasis(64, base.vectors[rng.permutation(128)])
    classes, _ = analyzer._ray_classes(basis._factors.qubit_overlaps, DEFAULT_TOL)
    assert sorted(k for c in classes for k in c) == list(range(128))
    assert all(list(c) == sorted(c) for c in classes)
    assert [c[0] for c in classes] == sorted(c[0] for c in classes)


@pytest.mark.parametrize(
    "overlap, message",
    [
        (  # 0 ~ 1 ~ 2 as rays, though 0 and 2 differ by 2.5e-8 > 2 * eps_ray: one class, alone
            1.0 - np.array([[0.0, 1.0, 2.5], [1.0, 0.0, 1.0], [2.5, 1.0, 0.0]]) * 1e-8,
            "ray class (0, 1, 2) has no orthogonal partner class",
        ),
        (  # class 0 is orthogonal to both other classes
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.5], [0.0, 0.5, 1.0]],
            "ambiguous partner for ray class (0,): classes (1,) and (2,) "
            "both meet it at |overlap|^2 <= eps_ray*(2 - eps_ray)",
        ),
        (  # 0 ~ 1 ~ 2 as rays, and 0 is orthogonal to 2: a class is not its own partner
            [[1.0, 1.0 - 5e-9, 0.0], [1.0 - 5e-9, 1.0, 1.0 - 5e-9], [0.0, 1.0 - 5e-9, 1.0]],
            "ray class (0, 1, 2) has no orthogonal partner class",
        ),
    ],
    ids=["inconsistent class", "ambiguous partner", "class meets only itself"],
)
def test_ray_classes_reject_a_hand_built_overlap_matrix(overlap, message):
    tol = Tolerances(eps_ray=1.1e-8)
    with pytest.raises(ValueError) as exc:
        analyzer._ray_classes(np.array(overlap), tol)
    assert str(exc.value) == message


def _ray_chain(n: int, g: float) -> np.ndarray:
    """Rows a_k (x) e_k and a_k_perp (x) e_k, k < n, with a_k = (cos k phi, sin k phi) and
    cos phi = 1 - g: an exact orthonormal product basis whose neighbouring qubit rays have
    1 - |<a_k|a_(k+1)>| = g, so that at g < eps_ray its rays chain into one class."""
    turn = np.arange(n) * math.acos(1.0 - g)
    a = np.stack([np.cos(turn), np.sin(turn)], axis=1)
    a_perp = np.stack([-np.sin(turn), np.cos(turn)], axis=1)
    eye = np.eye(n)
    return np.array([np.kron(side[k], eye[k]) for k in range(n) for side in (a, a_perp)])


@pytest.mark.parametrize("n", [3, 8])
@pytest.mark.parametrize("g, chained", [(5e-9, True), (9e-9, True), (1.5e-8, False), (1e-6, False)])
def test_ray_chain_reads_one_verdict_in_every_row_order(n, g, chained):
    rows, expected = _ray_chain(n, g), Partition((n,) if chained else (1,) * n)
    for seed in range(50):
        order = np.random.Generator(np.random.Philox(seed)).permutation(2 * n)
        basis = ProductBasis(n, rows[order])
        report = classify(basis)
        assert verify_report(basis).valid
        assert (report.valid, report.right_type) == (True, expected), (seed, report.diagnostics)


# 1 - |overlap| of a drawn close pair of rays, in units of eps_ray: well inside one ray or
# well outside it.  Near eps_ray itself roundoff can join two rays while their two
# perpendiculars stay apart, and classify then reports an ambiguous partner.
CLOSE_BANDS = ((0.1, 0.5), (2.0, 10.0))


def _perp(ray: np.ndarray) -> np.ndarray:
    return np.array([-ray[1].conjugate(), ray[0].conjugate()])


@st.composite
def ray_bases(draw):
    """Exact orthonormal product bases at n <= 8 from arbitrary qubit rays, with the row
    positions of each drawn block.  Each block's ray is Haar random, or turned from an
    earlier block's ray or its perpendicular, by a 1 - |overlap| drawn from CLOSE_BANDS;
    turning from the block just before makes chains.  The qudit frame, and each group's
    basis of its block's subspace, are Haar random or the identity, and the rows come in a
    drawn order."""
    n = draw(st.integers(1, 8))
    parts = draw(st.sampled_from(partitions_of(n))).parts
    rng = np.random.Generator(np.random.Philox(draw(st.integers(0, 2**32 - 1))))
    haar_frame, haar_groups = draw(st.booleans()), draw(st.booleans())
    frame = _unitary(rng, n) if haar_frame else np.eye(n, dtype=complex)
    rays, rows, blocks = [], [], []
    for j, m in enumerate(parts):
        kind = draw(st.sampled_from(("haar", "turned", "turned from perp"))) if j else "haar"
        if kind == "haar":
            ray = _unitary(rng, 2)[0]
        else:
            ray = rays[draw(st.integers(0, j - 1))]
            ray = _perp(ray) if kind == "turned from perp" else ray
            low, high = draw(st.sampled_from(CLOSE_BANDS))
            delta = draw(st.floats(low, high)) * DEFAULT_TOL.eps_ray
            t, psi = 2.0 * math.asin(math.sqrt(delta / 2.0)), 2.0 * math.pi * rng.random()
            ray = math.cos(t) * ray + math.sin(t) * np.exp(1j * psi) * _perp(ray)
        rays.append(ray)
        span = frame[:, sum(parts[:j]) : sum(parts[: j + 1])]
        for side in (ray, _perp(ray)):
            group = span @ (_unitary(rng, m) if haar_groups else np.eye(m))
            rows += [np.kron(side, x) for x in group.T]
        blocks.append(range(len(rows) - 2 * m, len(rows)))
    order = draw(st.permutations(range(2 * n)))
    position = np.argsort(order)
    blocks = [frozenset(position[list(block)].tolist()) for block in blocks]
    return ProductBasis(n, np.array(rows)[order]), blocks


@settings(max_examples=150, deadline=None)
@given(ray_bases())
def test_classify_accepts_what_verify_accepts_on_bases_from_arbitrary_rays(case):
    basis, blocks = case
    report = classify(basis)
    assert verify_report(basis).valid
    assert report.valid, report.diagnostics
    # each reported block is a union of drawn blocks, so its type coarsens the drawn one
    drawn = {k: block for block in blocks for k in block}
    for blk in report.blocks:
        rows = set(blk.a_indices + blk.a_perp_indices)
        assert rows == set().union(*(drawn[k] for k in rows))


def test_swap_factors_needs_n_2():
    basis = generate_from_type(TypeSpec(n=3, partition=Partition((2, 1)), seed=1))
    with pytest.raises(ValueError) as exc:
        swap_factors(basis)
    assert str(exc.value) == "factor swap is only defined for 2 x 2"


def test_mu_check_rejects_families_of_different_sizes():
    with pytest.raises(ValueError) as exc:
        mu_check(np.eye(2), np.eye(3))
    assert str(exc.value) == "not-a-basis: the two families have different sizes"


def _verify_lines(report) -> list[str]:
    """What CLI `verify` prints after its `dims:` line, from a VerifyReport's fields alone."""
    yes, rows = ("no", "yes"), report.factorizations
    lines = [
        f"orthonormal: {yes[bool(report.orthonormal)]} (Gram residual {report.gram_residual:.6e})",
        f"product vectors: {sum(map(bool, rows))}/{len(rows)}",
    ]
    lines += [f"  vector {k}: not a product (sigma2 {r.sigma2:.6e})" for k, r in enumerate(rows) if not r]
    if report.pairwise is not None:
        lines.append(f"pairwise factor orthogonality: {yes[bool(report.pairwise)]}")
        lines.append(f"groupable into subsystem bases: {yes[bool(report.groupable)]}")
    return lines + [f"result: {report.result}"]


def _verify_renders_its_report(basis, work) -> str:
    """CLI `verify` of `basis` saved to a file prints `verify_report` of what it reads and
    exits by its `valid`; returns the result phrase."""
    path = work / "basis.json"
    save_basis_file(path, basis)
    report = analyzer.verify_report(load_basis_file(path))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["verify", str(path)])
    lines = out.getvalue().splitlines()
    assert (rc, err.getvalue()) == (0 if report.valid else 1, "")
    assert lines[:2] == [f"file: {path}", f"dims: 2 x {basis.n} (d = {2 * basis.n})"]
    assert lines[2:] == _verify_lines(report)
    # verify's rule: orthonormal and every vector a product; the other checks name the failure
    products = all(report.factorizations)
    assert report.valid == (report.orthonormal and products)
    assert (report.pairwise is None) == (report.groupable is None) == (not products)
    if not report.valid:
        why = "groupable but not orthonormal" if report.groupable else "not an orthonormal basis"
        assert report.result == (why if products else "not a product basis")
    assert verify_product_basis(basis)[0] == analyzer.verify_report(basis).valid
    return report.result


def test_cli_verify_renders_verify_report_on_the_catalog(tmp_path):
    # the three mutually unbiased bases of C^2, each for both of its keys
    mubs = {"z": np.eye(2), "x": [PLUS, MINUS], "y": [[1 / RT2, 1j / RT2], [1 / RT2, -1j / RT2]]}
    g_bases = {key + side: np.array(mubs[key], dtype=complex) for key in mubs for side in "01"}
    bases = [bell_completion_basis(), ProductBasis(2, [kron(PLUS, KET0)] * 4)]
    for tag in FAMILY_TAGS:
        params = FamilyParams(tag, g_bases=g_bases if tag == "general_mupb_triple" else None)
        family = named_family(params)
        bases += family if isinstance(family, list) else [family]
    phrases = [_verify_renders_its_report(basis, tmp_path) for basis in bases]
    assert phrases[:2] == ["not a product basis", "not an orthonormal basis"]
    assert phrases.count("groupable but not orthonormal") == 1  # counterexample_1_4
    assert set(phrases[2:]) == {"valid orthonormal product basis", "groupable but not orthonormal"}


@st.composite
def entangled_swaps(draw):
    """A kicked basis with two of its rows turned into each other by an angle from 1e-12 (a
    product, below the rank cutoff) to pi / 2 (a swap), through entangled rows."""
    basis = draw(kicked_bases())
    i, j = draw(st.permutations(range(2 * basis.n)))[:2]
    theta = math.pi / 2 * 10.0 ** draw(st.floats(-12.0, 0.0))
    rows, (x, y) = basis.vectors.copy(), basis.vectors[[i, j]]
    rows[i], rows[j] = math.cos(theta) * x + math.sin(theta) * y, math.cos(theta) * y - math.sin(theta) * x
    return ProductBasis(basis.n, rows)


def _grouping_basis(case) -> ProductBasis:
    n, qubits, qudits = case
    return ProductBasis(n, [kron(a, b) for a, b in zip(qubits, qudits)])


@settings(max_examples=150, deadline=None)
@given(st.one_of(kicked_bases(), entangled_swaps(), grouping_inputs().map(_grouping_basis)))
def test_cli_verify_renders_verify_report_on_drawn_bases(tmp_path_factory, basis):
    _verify_renders_its_report(basis, tmp_path_factory.mktemp("verify"))
