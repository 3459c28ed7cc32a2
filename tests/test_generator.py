import hashlib
import itertools
import math
import time

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
    PAULI_EIGENBASES,
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


@pytest.mark.parametrize(
    "seed", [None, True, False, -1, 2**64, 1.0], ids=["None", "True", "False", "-1", "2^64", "1.0"]
)
def test_random_unitary_takes_the_seeds_that_type_spec_takes(seed):
    # Philox would take None (an unseeded, unreproducible draw), a bool or 2**64
    for make in (lambda: random_unitary(2, seed), lambda: TypeSpec(1, Partition((1,)), seed)):
        with pytest.raises(ValueError) as exc:
            make()
        assert str(exc.value) == "seed must be an unsigned 64-bit integer"


def test_random_unitary_takes_the_whole_seed_range():
    for seed in (0, 2**64 - 1):
        u = random_unitary(3, seed)
        assert np.array_equal(u, random_unitary(3, seed))
        assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < 1e-12


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


# Non-default qubit rays; a family of k rays takes the last k.  Their partners hold
# signed zeros, so the digests pin how each partner ray is computed.
QUBIT_STATES = ((0.6, 0.8j), (-0.28j, 0.96), (0.0, -1j))

# sha256 of `vectors.tobytes()` of each family built on QUBIT_STATES, taken before the
# families were written as a table.
QUBIT_STATES_DIGESTS = {
    "d4_B0": (2, "5ec43f1a92c1d78d07454e485f0a335cef4c7ff1a07bde4e62bd385af81df2e6"),
    "d4_B1": (1, "01c0d8e7460db50e8c70f9ad2dadb4a7701227d6f00e1e8e9a24b0d01fb063c7"),
    "d4_B2": (1, "1e230c66ca9d3b4403910433b65e8f71565c6a1bb58daaefd1ab00202e3b8224"),
    "d6_B0": (3, "62a5ad5a5d88257d2c55c13e93b8ffb6dbd94d2d7ff532105b1443f46441bc10"),
    "d6_B1": (2, "9eadc67f34db07bf8d7028729db4ac04988a8182028c452e361f3974ef2f6698"),
    "d6_B2": (1, "505c614982c488dd0bd0465365791902dbe6703c51c612cf8a0e48e17c1cd019"),
    "d6_B3": (1, "d6cfb93a2e060b6f35bdd9fdb14408bda135a4e084b7419e053f8fb6fcfa80d1"),
}


@pytest.mark.parametrize("tag", sorted(QUBIT_STATES_DIGESTS))
def test_qubit_states_override_is_bit_exact(tag):
    count, digest = QUBIT_STATES_DIGESTS[tag]
    basis = named_family(FamilyParams(tag, qubit_states=QUBIT_STATES[-count:]))
    assert hashlib.sha256(basis.vectors.tobytes()).hexdigest() == digest


def test_qubit_states_count_is_checked():
    with pytest.raises(ValueError, match=r"^family 'd4_B0' needs 2 qubit states, got 1$"):
        named_family(FamilyParams("d4_B0", qubit_states=QUBIT_STATES[:1]))


@pytest.mark.parametrize("state", [(0.6, 0.6), (1.0, 0.0, 0.0), ((1.0, 0.0),), (math.nan, 0.0)])
def test_qubit_states_entry_must_be_a_unit_qubit(state):
    expected = r"^family 'd4_B0': qubit state 1 is not a unit vector of C\^2$"
    with pytest.raises(ValueError, match=expected):
        named_family(FamilyParams("d4_B0", qubit_states=((1.0, 0.0), state)))


@pytest.mark.parametrize(
    "tag, field, value",
    [
        ("d4_B0", "unitary_params", (1.0, 0.0)),
        ("d6_B3", "unitary_params", (1.0, 0.0)),
        ("general_mupb_triple", "unitary_params", (1.0, 0.0)),
        ("d4_B1", "g_bases", {}),
        ("d6_mub_triple", "g_bases", {}),
        ("d4_mupb_triple", "qubit_states", ((1.0, 0.0),)),
        ("d6_mub_triple", "qubit_states", ()),
        ("general_mupb_triple", "qubit_states", ((1.0, 0.0),)),
        ("counterexample_1_4", "qubit_states", ((1.0, 0.0), (0.0, 1.0))),
    ],
)
def test_family_rejects_a_field_it_does_not_read(tag, field, value):
    with pytest.raises(ValueError, match=rf"^family '{tag}' does not take {field}\b"):
        named_family(FamilyParams(tag, **{field: value}))


def test_d6_B1_rejects_nan_parameters():
    for params in ((math.nan, 0.0), (1.0, complex(math.nan, 1.0))):
        with pytest.raises(ValueError, match=r"^\|alpha\|\^2 \+ \|beta\|\^2 must be 1, got nan$"):
            named_family(FamilyParams("d6_B1", unitary_params=params))


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


def test_every_partition_up_to_12_and_n64_extremes_round_trip():
    # closed-form generation: a sampler or retry loop would blow the time bound
    cases = [
        (part, subspace_mode, pair_mode)
        for n in range(1, 13)
        for part in partitions_of(n)
        for subspace_mode in ("identity-blocks", "haar-random")
        for pair_mode in ("equal-groups", "independent-groups")
    ]
    for parts in ((1,) * 64, (64,), (32, 32)):
        for pair_mode in ("equal-groups", "independent-groups"):
            cases.append((Partition(parts), "haar-random", pair_mode))
    assert len(cases) == 1090
    start = time.perf_counter()
    for seed, (part, subspace_mode, pair_mode) in enumerate(cases):
        spec = TypeSpec(
            n=part.n, partition=part, seed=seed, subspace_mode=subspace_mode, pair_mode=pair_mode
        )
        report = classify(generate_from_type(spec))
        assert report.valid, (str(part), subspace_mode, pair_mode)
        assert report.right_type == part, (str(part), subspace_mode, pair_mode)
    assert time.perf_counter() - start < 30.0


def test_random_skew_ray_margins():
    # distinct blocks' rays stay far from parallel, and every ray stays far
    # from orthogonal to each other block's partner ray, for every r <= 64
    for r in range(1, 65):
        report = classify(generate_from_type(TypeSpec(n=r, partition=Partition((1,) * r), seed=r)))
        assert report.valid and report.r == r
        rays = np.array([blk.a for blk in report.blocks])
        perps = np.array([blk.a_perp for blk in report.blocks])
        off = ~np.eye(r, dtype=bool)
        assert np.all(1.0 - np.abs(rays.conj() @ rays.T)[off] >= 1e-4), r
        assert np.all(np.abs(rays.conj() @ perps.T)[off] >= 1e-2), r


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


@pytest.mark.parametrize(
    "tag, qudits",
    [
        ("d4_mupb_triple", [np.array(PAULI_EIGENBASES[axis]) for axis in "zxy"]),
        ("d6_mub_triple", [np.eye(3, dtype=complex), MUB6_FACTORS[0][1].T, MUB6_FACTORS[1][1].T]),
    ],
)
def test_a_fixed_triple_is_the_general_triple_on_its_qudit_bases(tag, qudits):
    # the d = 6 triple's qubit sides are MUB6_FACTORS' columns, which are the Pauli states
    qubits = [np.array(PAULI_EIGENBASES[axis]).T for axis in "xy"]
    assert [q.tobytes() for q in qubits] == [f.tobytes() for f, _ in MUB6_FACTORS]
    g = {f"{axis}{side}": rows for axis, rows in zip("zxy", qudits) for side in "01"}
    general = named_family(FamilyParams("general_mupb_triple", g_bases=g))
    fixed = named_family(FamilyParams(tag))
    assert [b.vectors.tobytes() for b in fixed] == [b.vectors.tobytes() for b in general]
    assert [b.meta["family"] for b in fixed] == [tag] * 3


def test_general_mupb_triple_rejects_biased_input():
    eye3 = np.eye(3, dtype=complex)
    same = {key: [eye3[:, k] for k in range(3)] for key in ("z0", "z1", "x0", "x1", "y0", "y1")}
    with pytest.raises(ValueError, match="unbiased"):
        named_family(FamilyParams("general_mupb_triple", g_bases=same))
    with pytest.raises(ValueError):
        named_family(FamilyParams("general_mupb_triple"))


@pytest.mark.parametrize(
    "field, message",
    [
        ("subspace_mode", "subspace_mode must be one of ('identity-blocks', 'haar-random')"),
        ("pair_mode", "pair_mode must be one of ('equal-groups', 'independent-groups')"),
        ("qubit_mode", "qubit_mode must be one of ('fixed-list', 'random-skew')"),
    ],
)
def test_type_spec_rejects_an_unknown_mode(field, message):
    with pytest.raises(ValueError) as exc:
        TypeSpec(n=2, partition=Partition((2,)), **{field: "other"})
    assert str(exc.value) == message


@pytest.mark.parametrize("parts", [(2, 1), [2, 1]], ids=["tuple", "list"])
def test_type_spec_takes_the_parts_of_a_partition(parts):
    spec = TypeSpec(n=3, partition=parts)
    assert type(spec.partition) is Partition and spec == TypeSpec(3, Partition((2, 1)))
    assert type(spec._replace(partition=(3,)).partition) is Partition
    expected = generate_from_type(TypeSpec(3, Partition((2, 1))))
    assert np.array_equal(generate_from_type(spec).vectors, expected.vectors)


@pytest.mark.parametrize(
    "partition, message",
    [
        ("2+1", "parts must be positive integers, got '2+1'"),
        (None, "partition needs at least one part"),
        ((1, 2), "parts must be weakly decreasing, got (1, 2)"),
        ((2, 2), "partition 2+2 does not sum to n = 3"),
    ],
    ids=["a string", "None", "increasing parts", "another sum"],
)
def test_type_spec_rejects_what_is_not_a_partition_of_n(partition, message):
    with pytest.raises(ValueError) as exc:
        TypeSpec(n=3, partition=partition)
    assert str(exc.value) == message


KEYS = ("z0", "z1", "x0", "x1", "y0", "y1")


@pytest.mark.parametrize(
    "g_bases, message",
    [
        (
            {key: np.eye(2) for key in KEYS[:-1]},
            "g_bases must have exactly the keys ('z0', 'z1', 'x0', 'x1', 'y0', 'y1')",
        ),
        (
            {key: np.eye(3)[:2] if key == "x1" else np.eye(2) for key in KEYS},
            "g_bases['x1'] must be n vectors of dim n",
        ),
    ],
    ids=["a key missing", "a basis of another shape"],
)
def test_general_mupb_triple_rejects_malformed_g_bases(g_bases, message):
    with pytest.raises(ValueError) as exc:
        named_family(FamilyParams(family="general_mupb_triple", g_bases=g_bases))
    assert str(exc.value) == message


MODE_PAIRS = tuple(
    itertools.product(("identity-blocks", "haar-random"), ("equal-groups", "independent-groups"))
)


def _generated_digest(partitions):
    """sha256 over the vectors of every partition in every subspace/pair-mode pair."""
    digest = hashlib.sha256()
    for seed, (part, (subspace_mode, pair_mode)) in enumerate(
        itertools.product(partitions, MODE_PAIRS)
    ):
        spec = TypeSpec(part.n, part, seed, subspace_mode, pair_mode)
        digest.update(generate_from_type(spec).vectors.tobytes())
    return digest.hexdigest()


# Digests of the generator's output, taken while it still drew one block at a time.
def test_generated_bytes_are_pinned_for_every_partition_up_to_6():
    partitions = [part for n in range(1, 7) for part in partitions_of(n)]
    assert len(partitions) == 29
    assert (
        _generated_digest(partitions)
        == "4bc9539e3bf2f5217d2c08f934c8ff7ef15bdd073b81cd81734e9161b69396e6"
    )


def test_generated_bytes_are_pinned_at_n64():
    partitions = [
        Partition(parts)
        for parts in ((64,), (32, 32), (8,) * 8, (2, 2, 2, 2) + (1,) * 56, (1,) * 64)
    ]
    assert (
        _generated_digest(partitions)
        == "552559b3f01f5ddb9770a173dab479b760eb86d80fcdbe8580d09cff19c96519"
    )


def test_random_unitary_bytes_are_pinned():
    digest = hashlib.sha256()
    for d in (1, 2, 3, 64):
        digest.update(random_unitary(d, 11).tobytes())
    assert (
        digest.hexdigest() == "fae29f3862f1c999fd7891426be3609f105a2fd05d5235e5b3a019c5b4bdb9f0"
    )
