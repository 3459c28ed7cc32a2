"""The ten public record types: construction, repr, immutability, equality,
hashing, pickling and every validation message."""

import ast
import pickle
from pathlib import Path

import numpy as np
import pytest

import prodbase

from prodbase.analyzer import PairBlock, ProductBasis, StructureReport, VerifyReport
from prodbase.generator import FamilyParams, TypeSpec, generate_from_type, random_unitary
from prodbase.numerics import DEFAULT_TOL, Subspace, Tolerances
from prodbase.partitions import Partition, iter_partitions, partition_count, partitions_of
from prodbase.product_space import NotAProduct, ProductVector

E0 = np.array([1.0, 0.0], dtype=np.complex128)
E1 = np.array([0.0, 1.0], dtype=np.complex128)
LINE = Subspace(2, [[1.0], [0.0]])


def _records():
    """One instance of each record type, with its expected repr."""
    pv = ProductVector(E0, E1, np.kron(E0, E1))
    block = PairBlock(E0, E1, (E1,), (E1,), LINE, 1)
    report = StructureReport(False, 0.5, diagnostics=("x",))
    verdict = VerifyReport(False, "not a product basis", 0.5, False, (NotAProduct(0.25),))
    spec = TypeSpec(3, Partition((2, 1)))
    pv_repr = (
        "ProductVector(a=array([1.+0.j, 0.+0.j]), b=array([0.+0.j, 1.+0.j]), "
        "full=array([0.+0.j, 1.+0.j, 0.+0.j, 0.+0.j]), phase=(1+0j))"
    )
    block_repr = (
        "PairBlock(a=array([1.+0.j, 0.+0.j]), a_perp=array([0.+0.j, 1.+0.j]), "
        "group_A=(array([0.+0.j, 1.+0.j]),), group_Aperp=(array([0.+0.j, 1.+0.j]),), "
        "subspace=<Subspace dim 1 of C^2>, multiplicity=1, a_indices=(), "
        "a_perp_indices=(), groups_coincide=False)"
    )
    return [
        (Tolerances(), "Tolerances(eps_orth=1e-09, eps_unit=1e-09, eps_rank=1e-08, eps_ray=1e-08)"),
        (LINE, "<Subspace dim 1 of C^2>"),
        (Partition((3, 2, 1)), "Partition(parts=(3, 2, 1))"),
        (pv, pv_repr),
        (NotAProduct(0.25), "NotAProduct(sigma2=0.25)"),
        (block, block_repr),
        (
            report,
            "StructureReport(valid=False, gram_residual=0.5, blocks=(), right_type=None, "
            "basis_B1n=(), basis_B2n=(), is_direct_product=False, diagnostics=('x',))",
        ),
        (
            verdict,
            "VerifyReport(valid=False, result='not a product basis', gram_residual=0.5, "
            "orthonormal=False, factorizations=(NotAProduct(sigma2=0.25),), pairwise=None, "
            "groupable=None)",
        ),
        (
            spec,
            "TypeSpec(n=3, partition=Partition(parts=(2, 1)), seed=0, "
            "subspace_mode='haar-random', pair_mode='independent-groups', "
            "qubit_mode='random-skew')",
        ),
        (
            FamilyParams("d4_A"),
            "FamilyParams(family='d4_A', unitary_params=(), qubit_states=None, g_bases=None)",
        ),
    ]


RECORDS = _records()
IDS = [type(record).__name__ for record, _ in RECORDS]


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_repr(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record", [record for record, _ in RECORDS], ids=IDS)
def test_fields_and_new_attributes_cannot_be_assigned(record):
    fields = ("parts", "n") if type(record) is Partition else record._fields
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)


def test_construction_by_position_and_by_keyword_with_the_defaults():
    assert Tolerances(1e-7) == Tolerances(eps_orth=1e-7, eps_unit=1e-9, eps_rank=1e-8, eps_ray=1e-8)
    assert Tolerances(1e-7, 1e-6, 1e-5, 1e-4).eps_ray == 1e-4
    assert Tolerances() == DEFAULT_TOL
    s = Subspace(ambient_dim=2, basis=[[0.0], [1.0]])
    assert (s.ambient_dim, s.dim) == (2, 1) and s.basis.dtype == np.complex128
    assert np.array_equal(s.projector(), [[0, 0], [0, 1]])
    assert Partition(parts=[3, 1]).parts == (3, 1) and Partition((3, 1)).n == 4
    pv = ProductVector(a=E0, b=E1, full=np.kron(E0, E1))
    assert pv.phase == 1 and ProductVector(E0, E1, pv.full, 1j).phase == 1j
    assert NotAProduct(sigma2=0.5).sigma2 == 0.5
    block = PairBlock(
        a=E0, a_perp=E1, group_A=(E1,), group_Aperp=(E1,), subspace=LINE, multiplicity=1
    )
    assert (block.a_indices, block.a_perp_indices, block.groups_coincide) == ((), (), False)
    assert PairBlock(E0, E1, (), (), LINE, 1, (0,), (1,), True).groups_coincide
    report = StructureReport(valid=True, gram_residual=0.0)
    assert (report.blocks, report.right_type, report.basis_B1n, report.basis_B2n) == (
        (),
        None,
        (),
        (),
    )
    assert (report.is_direct_product, report.diagnostics, report.r) == (False, (), 0)
    assert StructureReport(True, 0.0, (block, block)).r == 2
    verdict = VerifyReport(valid=True, result="r", gram_residual=0.0, orthonormal=True)
    assert (verdict.factorizations, verdict.pairwise, verdict.groupable) == ((), None, None)
    rows = (NotAProduct(1.0),)
    assert VerifyReport(False, "r", 1.0, False, rows, True, False)[4:] == (rows, True, False)
    spec = TypeSpec(n=3, partition=Partition((2, 1)))
    assert (spec.seed, spec.subspace_mode, spec.pair_mode, spec.qubit_mode) == (
        0,
        "haar-random",
        "independent-groups",
        "random-skew",
    )
    assert TypeSpec(3, Partition((3,)), 5, "identity-blocks", "equal-groups", "fixed-list") == (
        TypeSpec(
            n=3,
            partition=Partition((3,)),
            seed=5,
            subspace_mode="identity-blocks",
            pair_mode="equal-groups",
            qubit_mode="fixed-list",
        )
    )
    params = FamilyParams(family="d6_B1", unitary_params=(1, 0))
    assert (params.unitary_params, params.qubit_states, params.g_bases) == ((1, 0), None, None)


@pytest.mark.parametrize(
    "make",
    [
        lambda: Tolerances(eps_ray=1e-5),
        lambda: Partition((4, 2, 2, 1)),
        lambda: NotAProduct(0.125),
        lambda: TypeSpec(4, Partition((2, 2)), seed=9, pair_mode="equal-groups"),
    ],
    ids=["Tolerances", "Partition", "NotAProduct", "TypeSpec"],
)
def test_value_equality_and_hash(make):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) and len({a, b}) == 1


def test_values_that_differ_are_unequal():
    assert Tolerances(eps_orth=1e-8) != Tolerances()
    assert Partition((2, 1)) != Partition((1, 1, 1))
    assert NotAProduct(0.5) != NotAProduct(0.25)
    assert TypeSpec(2, Partition((2,)), seed=1) != TypeSpec(2, Partition((2,)), seed=2)


def test_partition_order_iteration_len_and_str():
    p = Partition((3, 1, 1))
    assert list(p) == [3, 1, 1] and tuple(p) == (3, 1, 1) and len(p) == 3
    assert str(p) == "3+1+1" and p.n == 5
    assert Partition((2, 1)) < Partition((3,)) and Partition((1, 1)) < Partition((2,))
    assert Partition((2, 1)) <= Partition((2, 1)) and Partition((3,)) > Partition((2, 2))
    shuffled = [Partition((2, 2)), Partition((4,)), Partition((1, 1, 1, 1)), Partition((3, 1))]
    assert [str(q) for q in sorted(shuffled)] == ["1+1+1+1", "2+2", "3+1", "4"]
    assert [str(q) for q in sorted(shuffled, reverse=True)] == ["4", "3+1", "2+2", "1+1+1+1"]
    assert max(shuffled) == Partition((4,))
    assert Partition.from_string("2+1+1") == Partition((2, 1, 1))


def test_markers_truth_value():
    assert not NotAProduct(0.5) and bool(NotAProduct(0.0)) is False
    assert ProductVector(E0, E1, np.kron(E0, E1))
    assert all([ProductVector(E0, E1, np.kron(E0, E1))]) and not all([NotAProduct(1.0)])


@pytest.mark.parametrize(
    "value",
    [
        Tolerances(eps_orth=2e-9),
        Partition((3, 3, 1)),
        NotAProduct(0.75),
        TypeSpec(5, Partition((3, 2)), seed=2**64 - 1, qubit_mode="fixed-list"),
        FamilyParams("d6_B1", unitary_params=(0.6, 0.8j)),
        VerifyReport(False, "not a product basis", 0.5, True, (NotAProduct(0.75),), None, None),
    ],
    ids=["Tolerances", "Partition", "NotAProduct", "TypeSpec", "FamilyParams", "VerifyReport"],
)
@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip(value, protocol):
    back = pickle.loads(pickle.dumps(value, protocol))
    assert type(back) is type(value) and back == value and repr(back) == repr(value)


def test_pickle_round_trip_of_the_array_records():
    pv = pickle.loads(pickle.dumps(ProductVector(E0, E1, np.kron(E0, E1), 1j)))
    assert type(pv) is ProductVector and pv.phase == 1j
    assert np.array_equal(pv.full, [0, 1, 0, 0])
    s = pickle.loads(pickle.dumps(LINE))
    assert type(s) is Subspace and s.ambient_dim == 2 and np.array_equal(s.basis, LINE.basis)


@pytest.mark.parametrize("name", ["eps_orth", "eps_unit", "eps_rank", "eps_ray"])
@pytest.mark.parametrize("value", [0.0, -1e-9, 1e-3, 0.5, float("nan")])
def test_tolerances_messages(name, value):
    with pytest.raises(ValueError) as exc:
        Tolerances(**{name: value})
    assert str(exc.value) == f"{name} must lie strictly inside (0, 1e-3), got {value!r}"


@pytest.mark.parametrize(
    "ambient, basis, message",
    [
        (3, [[1.0], [0.0]], "basis shape (2, 1) does not match ambient dim 3"),
        (2, [1.0, 0.0], "basis shape (2,) does not match ambient dim 2"),
        (2, np.zeros((2, 0)), "subspace dimension 0 out of range"),
        (1, [[1.0, 0.0]], "subspace dimension 2 out of range"),
        (2, [[1.0], [1.0]], "basis columns are not orthonormal"),
        (2, [[1.0, 1.0], [0.0, 0.0]], "basis columns are not orthonormal"),
    ],
)
def test_subspace_messages(ambient, basis, message):
    with pytest.raises(ValueError) as exc:
        Subspace(ambient, basis)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "parts, message",
    [
        ((), "partition needs at least one part"),
        ([], "partition needs at least one part"),
        ((2, 0), "parts must be positive integers, got (2, 0)"),
        ([3, -1], "parts must be positive integers, got [3, -1]"),
        ((2.0,), "parts must be positive integers, got (2.0,)"),
        (("2",), "parts must be positive integers, got ('2',)"),
        ((1, 2), "parts must be weakly decreasing, got (1, 2)"),
        ([3, 1, 2], "parts must be weakly decreasing, got [3, 1, 2]"),
    ],
)
def test_partition_messages(parts, message):
    with pytest.raises(ValueError) as exc:
        Partition(parts)
    assert str(exc.value) == message


def test_partition_from_string_message():
    with pytest.raises(ValueError) as exc:
        Partition.from_string("3+x")
    assert str(exc.value) == "invalid partition string '3+x'"


@pytest.mark.parametrize("text", ["3_0", "\u0663+\u0662", "+3", "3+", "-3", "3 2"])
def test_partition_from_string_reads_only_ascii_digits(text):
    # int() reads '3_0' as 30 and '\u0663' as 3; a part is a run of ASCII digits
    with pytest.raises(ValueError) as exc:
        Partition.from_string(text)
    assert str(exc.value) == f"invalid partition string {text!r}"


def test_partition_from_string_allows_blanks_around_each_part():
    assert Partition.from_string(" 3 +\t2+1 ") == Partition((3, 2, 1))


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"n": 0, "partition": Partition((1,))}, "n must be an integer in [1, 64], got 0"),
        ({"n": 65, "partition": Partition((65,))}, "n must be an integer in [1, 64], got 65"),
        ({"n": 2.0, "partition": Partition((2,))}, "n must be an integer in [1, 64], got 2.0"),
        ({"n": 3, "partition": Partition((2,))}, "partition 2 does not sum to n = 3"),
        ({"seed": -1}, "seed must be an unsigned 64-bit integer"),
        ({"seed": 2**64}, "seed must be an unsigned 64-bit integer"),
        ({"seed": 1.0}, "seed must be an unsigned 64-bit integer"),
        (
            {"subspace_mode": "x"},
            "subspace_mode must be one of ('identity-blocks', 'haar-random')",
        ),
        ({"pair_mode": "x"}, "pair_mode must be one of ('equal-groups', 'independent-groups')"),
        ({"qubit_mode": "x"}, "qubit_mode must be one of ('fixed-list', 'random-skew')"),
    ],
)
def test_type_spec_messages(fields, message):
    with pytest.raises(ValueError) as exc:
        TypeSpec(**{"n": 2, "partition": Partition((1, 1)), **fields})
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Partition((True, True)), "parts must be positive integers, got (True, True)"),
        (lambda: Partition([2, False]), "parts must be positive integers, got [2, False]"),
        (
            lambda: TypeSpec(n=True, partition=Partition((1,))),
            "n must be an integer in [1, 64], got True",
        ),
        (
            lambda: TypeSpec(2, Partition((2,)), seed=True),
            "seed must be an unsigned 64-bit integer",
        ),
        (
            lambda: TypeSpec(2, Partition((2,)), seed=False),
            "seed must be an unsigned 64-bit integer",
        ),
    ],
    ids=["parts True", "a part False", "n True", "seed True", "seed False"],
)
def test_bools_are_not_integers(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message


@pytest.mark.parametrize("count", [partition_count, partitions_of, iter_partitions])
def test_bools_are_not_partition_sizes(count):
    with pytest.raises(ValueError) as exc:
        count(True)
    assert str(exc.value) == "n must be an integer in [1, 64], got True"


def test_bools_are_not_dimensions():
    with pytest.raises(ValueError) as exc:
        ProductBasis(True, np.eye(2))
    assert str(exc.value) == "n must be a positive integer, got True"
    with pytest.raises(ValueError) as exc:
        random_unitary(True, 0)
    assert str(exc.value) == "dimension must be a positive integer, got True"


def test_the_integers_that_bools_stood_for_still_generate():
    basis = generate_from_type(TypeSpec(2, Partition((1, 1)), seed=1))
    assert basis.meta["seed"] == 1 and basis.meta["partition"] == "1+1"
    assert generate_from_type(TypeSpec(1, Partition((1,)), seed=0)).n == 1


@pytest.mark.parametrize(
    "basis",
    [
        [[np.nan], [0.0]],
        [[1.0, 0.0], [0.0, np.nan]],
        [[np.nan + 1j], [0.0]],
        [[np.inf], [0.0]],
        [[1.0, np.inf], [0.0, 1.0]],
        [[-np.inf], [np.inf]],
    ],
    ids=["nan line", "nan in a plane", "nan real part", "inf line", "inf in a plane", "infs"],
)
def test_subspace_rejects_a_non_finite_basis(basis):
    with pytest.raises(ValueError) as exc:
        Subspace(len(basis), basis)
    assert str(exc.value) == "basis columns are not orthonormal"


def test_subspace_keeps_a_read_only_copy_of_its_basis():
    b = np.eye(3, 2, dtype=np.complex128)
    s = Subspace(3, b)
    b[:, 0] = 7
    assert np.array_equal(s.basis, np.eye(3, 2))
    for t in (s, s._replace(basis=b[:, 1:]), pickle.loads(pickle.dumps(s))):
        with pytest.raises(ValueError, match="read-only"):
            t.basis[:] = 0
    assert np.array_equal(s.basis, np.eye(3, 2))


@pytest.mark.parametrize(
    "record, field, bad, message",
    [
        (Tolerances(), "eps_rank", 0.1, "eps_rank must lie strictly inside (0, 1e-3), got 0.1"),
        (LINE, "basis", [[1.0], [1.0]], "basis columns are not orthonormal"),
        (
            TypeSpec(2, Partition((2,))),
            "partition",
            Partition((1,)),
            "partition 1 does not sum to n = 2",
        ),
    ],
    ids=["Tolerances", "Subspace", "TypeSpec"],
)
def test_replace_runs_the_checks(record, field, bad, message):
    with pytest.raises(ValueError) as exc:
        record._replace(**{field: bad})
    assert str(exc.value) == message


def test_replace_builds_the_same_type():
    tol = DEFAULT_TOL._replace(eps_orth=1e-7)
    assert type(tol) is Tolerances and tol == Tolerances(eps_orth=1e-7)
    plane = LINE._replace(basis=[[0.0], [1.0]])
    assert type(plane) is Subspace and plane.basis.dtype == np.complex128
    spec = TypeSpec(2, Partition((2,)))._replace(seed=4)
    assert type(spec) is TypeSpec and spec.seed == 4
    assert NotAProduct(0.5)._replace(sigma2=0.25) == NotAProduct(0.25)


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_no_module_imports_dataclasses():
    """A dataclass compiles its methods on every import of the package."""
    paths = sorted(Path(prodbase.__file__).parent.rglob("*.py"))
    assert len(paths) >= 7
    for path in paths:
        top_level = {name.partition(".")[0] for name in _imported_modules(path)}
        assert "dataclasses" not in top_level, path.name


def test_subspace_tests_huge_columns_before_the_gram_product():
    # the Gram product of these columns overflowed and warned before the error was raised
    with pytest.raises(ValueError) as exc:
        Subspace(2, [[1e200, 0.0], [0.0, 1.0]])
    assert str(exc.value) == "basis columns are not orthonormal"
