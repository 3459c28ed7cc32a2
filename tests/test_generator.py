import itertools
import math

import numpy as np
import pytest

from prodbase.analyzer import (
    ProductBasis,
    classify,
    factorize_all,
    mu_check,
    verify_orthonormal,
    verify_product_basis,
)
from prodbase.generator import (
    FIXED_QUBIT_STATES,
    MUB6_FACTORS,
    SKEW_MARGIN,
    FamilyParams,
    TypeSpec,
    generate_from_type,
    named_family,
    random_unitary,
)
from prodbase.numerics import gram_residual, inner
from prodbase.partitions import Partition, partitions_of

RT2 = math.sqrt(2.0)


def test_random_unitary_is_unitary():
    for d in (1, 2, 3, 5, 8):
        u = random_unitary(d, seed=d)
        assert np.max(np.abs(u.conj().T @ u - np.eye(d))) < 1e-12


def test_random_unitary_deterministic():
    a = random_unitary(4, seed=99)
    b = random_unitary(4, seed=99)
    assert np.array_equal(a, b)
    c = random_unitary(4, seed=100)
    assert not np.array_equal(a, c)


def test_random_unitary_scalar_case():
    u = random_unitary(1, seed=5)
    assert u.shape == (1, 1)
    assert abs(abs(u[0, 0]) - 1.0) < 1e-12


def test_random_unitary_rejects_bad_dim():
    with pytest.raises(ValueError):
        random_unitary(0, seed=1)


def test_fixed_qubit_states_are_pairwise_skew():
    for a, b in itertools.combinations(FIXED_QUBIT_STATES, 2):
        overlap = abs(inner(a, b))
        assert SKEW_MARGIN <= overlap <= 1.0 - SKEW_MARGIN


def test_generate_direct_product():
    spec = TypeSpec(
        n=4,
        partition=Partition((4,)),
        seed=0,
        subspace_mode="identity-blocks",
        pair_mode="equal-groups",
    )
    report = classify(generate_from_type(spec))
    assert report.valid
    assert report.right_type == Partition((4,))
    assert report.is_direct_product


def test_generate_111_seed7():
    spec = TypeSpec(n=3, partition=Partition((1, 1, 1)), seed=7)
    report = classify(generate_from_type(spec))
    assert report.valid
    assert report.right_type == Partition((1, 1, 1))


def test_generate_321_seed1_gram():
    spec = TypeSpec(n=6, partition=Partition((3, 2, 1)), seed=1)
    basis = generate_from_type(spec)
    ok, _ = verify_product_basis(ProductBasis(6, basis.vectors))
    assert ok
    assert gram_residual(basis.vectors) < 1e-12


def test_generate_all_modes_roundtrip():
    for subspace_mode in ("identity-blocks", "haar-random"):
        for pair_mode in ("equal-groups", "independent-groups"):
            for qubit_mode in ("fixed-list", "random-skew"):
                spec = TypeSpec(
                    n=5,
                    partition=Partition((2, 2, 1)),
                    seed=13,
                    subspace_mode=subspace_mode,
                    pair_mode=pair_mode,
                    qubit_mode=qubit_mode,
                )
                report = classify(generate_from_type(spec))
                assert report.valid
                assert report.right_type == Partition((2, 2, 1))


def test_generate_deterministic_bitwise():
    spec = TypeSpec(n=4, partition=Partition((2, 1, 1)), seed=21)
    v1 = generate_from_type(spec).vectors
    v2 = generate_from_type(spec).vectors
    assert all(np.array_equal(a, b) for a, b in zip(v1, v2))


def test_generate_distinct_seeds_differ():
    part = Partition((2, 1))
    a = generate_from_type(TypeSpec(n=3, partition=part, seed=1))
    b = generate_from_type(TypeSpec(n=3, partition=part, seed=2))
    assert any(not np.array_equal(x, y) for x, y in zip(a.vectors, b.vectors))


def test_generate_classified_factors_match_cache():
    spec = TypeSpec(n=4, partition=Partition((3, 1)), seed=8)
    basis = generate_from_type(spec)
    cached = classify(basis)
    fresh = classify(ProductBasis(4, basis.vectors))
    assert cached.valid and fresh.valid
    assert cached.right_type == fresh.right_type


def test_generate_partition_mismatch():
    with pytest.raises(ValueError):
        TypeSpec(n=4, partition=Partition((3, 2)), seed=0)


def test_generate_fixed_list_block_limit():
    parts = Partition((1,) * 8)
    with pytest.raises(ValueError, match="fixed-list"):
        generate_from_type(TypeSpec(n=8, partition=parts, seed=0, qubit_mode="fixed-list"))


def test_named_families_verify():
    for tag in ("d4_B0", "d4_B1", "d4_B2", "d6_B0", "d6_B1", "d6_B2", "d6_B3"):
        basis = named_family(FamilyParams(tag))
        clean = ProductBasis(basis.n, basis.vectors)
        ok, _ = verify_product_basis(clean)
        assert ok, tag
        assert gram_residual(basis.vectors) < 1e-12, tag


def test_triples_verify():
    for tag in ("d4_mupb_triple", "d6_mub_triple"):
        for basis in named_family(FamilyParams(tag)):
            ok, _ = verify_product_basis(ProductBasis(basis.n, basis.vectors))
            assert ok, tag
            assert gram_residual(basis.vectors) < 1e-12, tag


def test_counterexample_is_not_a_basis():
    basis = named_family(FamilyParams("counterexample_1_4"))
    ok, _ = verify_orthonormal(basis)
    assert not ok
    assert all(factorize_all(basis))


def test_d6_B1_rejects_non_unitary_params():
    with pytest.raises(ValueError):
        named_family(FamilyParams("d6_B1", unitary_params=(1.0, 1.0)))
    with pytest.raises(ValueError):
        named_family(FamilyParams("d6_B1", unitary_params=(1.0,)))


def test_d6_B1_degenerate_parameters():
    basis = named_family(FamilyParams("d6_B1", unitary_params=(1.0, 0.0)))
    report = classify(basis)
    assert report.valid
    assert report.right_type == Partition((2, 1))
    two_block = report.blocks[0]
    assert two_block.multiplicity == 2
    assert two_block.groups_coincide


def test_unknown_family_tag():
    with pytest.raises(ValueError, match="unknown family"):
        named_family(FamilyParams("no_such_family"))


def _ray_sets_equal(group1, group2):
    used = [False] * len(group2)
    for u in group1:
        hits = [j for j, v in enumerate(group2) if not used[j] and abs(inner(u, v)) > 1 - 1e-8]
        if len(hits) != 1:
            return False
        used[hits[0]] = True
    return True


def test_two_distinct_bases_of_full_type():
    # the one-part partition is realized by two structurally distinct bases
    part = Partition((5,))
    equal = generate_from_type(
        TypeSpec(n=5, partition=part, seed=3, pair_mode="equal-groups")
    )
    indep = generate_from_type(
        TypeSpec(n=5, partition=part, seed=3, pair_mode="independent-groups")
    )
    rep_eq = classify(equal)
    rep_in = classify(indep)
    assert rep_eq.valid and rep_in.valid
    assert rep_eq.right_type == rep_in.right_type == part
    assert rep_eq.is_direct_product
    assert not rep_in.is_direct_product
    assert _ray_sets_equal(rep_eq.basis_B1n, rep_eq.basis_B2n)
    assert not _ray_sets_equal(rep_in.basis_B1n, rep_in.basis_B2n)


def test_every_small_partition_is_realized():
    for n in range(1, 5):
        for part in partitions_of(n):
            report = classify(generate_from_type(TypeSpec(n=n, partition=part, seed=17)))
            assert report.valid
            assert report.right_type == part


def test_general_mupb_triple_from_catalog_factors():
    eye3 = np.eye(3, dtype=complex)
    fourier = MUB6_FACTORS[0][1]
    second = MUB6_FACTORS[1][1]
    g = {
        "z0": [eye3[:, k] for k in range(3)],
        "z1": [eye3[:, k] for k in range(3)],
        "x0": [fourier[:, k] for k in range(3)],
        "x1": [fourier[:, k] for k in range(3)],
        "y0": [second[:, k] for k in range(3)],
        "y1": [second[:, k] for k in range(3)],
    }
    triple = named_family(FamilyParams("general_mupb_triple", g_bases=g))
    assert len(triple) == 3
    for b1, b2 in itertools.combinations(triple, 2):
        ok, dev = mu_check(list(b1.vectors), list(b2.vectors))
        assert ok and dev < 1e-12


def test_general_mupb_triple_rejects_biased_input():
    eye3 = np.eye(3, dtype=complex)
    same = {key: [eye3[:, k] for k in range(3)] for key in ("z0", "z1", "x0", "x1", "y0", "y1")}
    with pytest.raises(ValueError, match="unbiased"):
        named_family(FamilyParams("general_mupb_triple", g_bases=same))
    with pytest.raises(ValueError):
        named_family(FamilyParams("general_mupb_triple"))
