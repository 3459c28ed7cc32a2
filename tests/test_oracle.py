"""prodbase's verdicts against the benchmark's oracle, which never imports prodbase.

`perfbench/bases.py` builds its inputs with numpy alone and measures them with numpy's SVD
and Gram products.  It decides a quantity only when it lies a factor `bases.MARGIN` (100)
away from its tolerance, and raises `bases.InputError` otherwise.  Wherever it decides,
prodbase must agree: verify's orthonormal flag, product count, pairwise and grouping answers
and verdict; classify's verdict, right type and ray class sizes; and mu_check's verdict.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodbase.analyzer import ProductBasis, classify, mu_check, verify_report
from prodbase.cli import main
from prodbase.generator import TypeSpec, generate_from_type
from prodbase.partitions import Partition, partitions_of

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # the repository root
from perfbench import bases  # noqa: E402

FRAMES = [(frame, groups) for frame in ("identity", "haar") for groups in ("equal", "independent")]


def _right_type(parts, groups: str) -> str:
    direct = " (direct product)" if len(parts) == 1 and groups == "equal" else ""
    return bases.type_string(parts) + direct


def _agrees(vectors: np.ndarray, right_type: str | None, groupable: bool | None) -> None:
    """Every verdict of prodbase on `vectors` that the oracle decides is the oracle's."""
    try:
        judged = bases.judge_basis(vectors, groupable)
    except bases.InputError:
        return  # a measurement too near its tolerance for the oracle to decide
    n = len(vectors) // 2
    if not judged["unit"]:
        with pytest.raises(ValueError, match="not-normalized"):
            ProductBasis(n, vectors)
        return
    basis = ProductBasis(n, vectors)
    report = verify_report(basis)
    assert report.orthonormal == judged["orthonormal"]
    assert sum(map(bool, report.factorizations)) == judged["products"]
    valid = judged["orthonormal"] and judged["all_products"]
    assert report.valid == valid
    for key in ("pairwise", "groupable"):
        if judged["all_products"] and judged[key] is not None:
            assert getattr(report, key) == judged[key], key
    structure = classify(basis)
    assert structure.valid == valid
    if valid and right_type is not None:
        suffix = " (direct product)" if structure.is_direct_product else ""
        assert f"{structure.right_type}{suffix}" == right_type
        sizes = [len(c) for blk in structure.blocks for c in (blk.a_indices, blk.a_perp_indices)]
        assert sorted(sizes, reverse=True) == bases.ray_class_sizes(vectors)


@st.composite
def built_bases(draw):
    """An orthonormal product basis at 2 <= n <= 16, from the oracle's own construction or
    from prodbase's generator, in each frame and group mode, with its right type.  (The
    oracle's factors need n >= 2.)"""
    n = draw(st.integers(2, 16))
    frame, groups = draw(st.sampled_from(FRAMES))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        rng = np.random.Generator(np.random.Philox(seed))
        parts = bases.random_partition(rng, n, draw(st.integers(1, n)))
        return bases.product_basis(rng, parts, frame, groups), _right_type(parts, groups)
    parts = draw(st.sampled_from(partitions_of(n))).parts
    modes = ("identity-blocks" if frame == "identity" else "haar-random", f"{groups}-groups")
    built = generate_from_type(TypeSpec(n, Partition(parts), seed, *modes))
    return np.array(built.vectors), _right_type(parts, groups)


@settings(max_examples=300, deadline=None)
@given(built_bases())
def test_prodbase_agrees_with_the_oracle_on_built_bases(built):
    vectors, right_type = built
    _agrees(vectors, right_type, True)


@settings(max_examples=500, deadline=None)
@given(
    built_bases(),
    st.sampled_from(("kick", "rotate", "scale")),
    st.floats(-14.0, -4.0),
    st.integers(0, 2**32 - 1),
)
def test_prodbase_agrees_with_the_oracle_on_perturbed_bases(built, how, log_size, seed):
    vectors, right_type = built
    rng = np.random.Generator(np.random.Philox(seed))
    _agrees(bases.perturbed(rng, vectors, how, 10.0**log_size), right_type, None)


@settings(max_examples=150, deadline=None)
@given(built_bases(), st.data())
def test_prodbase_agrees_with_the_oracle_on_entangled_swaps(built, data):
    vectors, _ = built
    i, j = data.draw(st.permutations(range(len(vectors))))[:2]
    _agrees(bases.entangled_swap(vectors, i, j), None, None)


@pytest.mark.parametrize("n", [2, 5, 12, 16])
def test_prodbase_agrees_with_the_oracle_on_adversarial_grouping(n):
    _agrees(bases.adversarial_grouping(n), None, False)


@pytest.mark.parametrize("name", sorted(bases.catalog()))
def test_prodbase_agrees_with_the_oracle_on_the_catalog(name, tmp_path):
    vectors, right_type, groupable = bases.catalog()[name]
    _agrees(vectors, right_type, groupable)
    path = tmp_path / f"{name}.json"
    bases.write_basis(path, vectors, {})
    judged = bases.judge_basis(vectors, groupable)
    valid = judged["orthonormal"] and judged["all_products"]
    for command in ("verify", "classify"):
        assert main([command, str(path)]) == (0 if valid else 1)


def test_mu_check_agrees_with_the_oracle_on_the_mub_triples():
    rng = np.random.Generator(np.random.Philox(11))
    triples = bases.mub_triples()
    d6, catalog = triples["d6"], bases.catalog()
    pairs = [(t[i], t[j]) for t in triples.values() for i in range(3) for j in range(i + 1, 3)]
    pairs += [(d6[0], catalog["d6_B2"][0]), (d6[0], catalog["d6_B0"][0])]
    pairs += [(d6[0], d6[1] @ bases.unitary_near_identity(rng, 6, eps).T) for eps in (1e-13, 1e-4)]
    decided = 0
    for x, y in pairs:
        expected = bases.decide(bases.mub_deviation(x, y), bases.MUB_TOL)
        if expected is not None:
            decided += 1
            assert mu_check(x, y)[0] == expected
    assert decided == len(pairs)
    assert not all(mu_check(x, y)[0] for x, y in pairs)  # both verdicts are reached
