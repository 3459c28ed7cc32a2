import pytest

from prodbase.partitions import (
    MAX_N,
    Partition,
    iter_partitions,
    partition_count,
    partitions_of,
    type_count_lower_bound,
)


def pentagonal_counts(n_max):
    """Independent oracle: p(n) via the pentagonal-number recurrence."""
    p = [1]
    for m in range(1, n_max + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= m:
                total += sign * p[m - g1]
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p.append(total)
    return p


def ascending_enumeration(n):
    """Independent oracle: all partitions as ascending compositions."""
    out = []
    comp = [0] * (n + 1)
    k = 1
    comp[1] = n
    while k != 0:
        x = comp[k - 1] + 1
        y = comp[k] - 1
        k -= 1
        while x <= y:
            comp[k] = x
            y -= x
            k += 1
        comp[k] = x + y
        out.append(tuple(sorted(comp[: k + 1], reverse=True)))
    return set(out)


def test_partitions_of_one():
    assert partitions_of(1) == [Partition((1,))]


def test_partitions_of_three_reverse_lex():
    assert [p.parts for p in partitions_of(3)] == [(3,), (2, 1), (1, 1, 1)]


def test_partitions_of_four_count():
    assert len(partitions_of(4)) == 5


def test_enumeration_matches_ascending_oracle():
    for n in range(1, 13):
        plist = [p.parts for p in partitions_of(n)]
        assert len(plist) == len(set(plist)), "duplicates"
        assert set(plist) == ascending_enumeration(n)
        assert plist == sorted(plist, reverse=True), "not reverse lexicographic"


def test_partitions_are_canonical():
    for p in partitions_of(9):
        assert p.n == 9
        assert all(x >= 1 for x in p.parts)
        assert all(a >= b for a, b in zip(p.parts, p.parts[1:]))


def test_count_matches_enumeration_to_20():
    for n in range(1, 21):
        assert partition_count(n) == len(partitions_of(n))


def test_count_matches_pentagonal_recurrence_to_64():
    oracle = pentagonal_counts(MAX_N)
    for n in range(1, MAX_N + 1):
        assert partition_count(n) == oracle[n]


def test_known_counts():
    assert partition_count(1) == 1
    assert partition_count(6) == 11
    assert partition_count(20) == 627


def test_type_count_lower_bound():
    assert type_count_lower_bound(1) == 2
    assert type_count_lower_bound(4) == 6
    assert type_count_lower_bound(6) == 12


def test_out_of_range():
    for bad in (0, -1, MAX_N + 1):
        with pytest.raises(ValueError):
            partitions_of(bad)
        with pytest.raises(ValueError):
            partition_count(bad)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((0,))
    with pytest.raises(ValueError):
        Partition(())


def test_partition_string_roundtrip():
    p = Partition.from_string("3+2+1")
    assert p.parts == (3, 2, 1)
    assert str(p) == "3+2+1"
    with pytest.raises(ValueError):
        Partition.from_string("3+x")


def _reverse_lex(n, largest=None):
    """Reference: the partitions of n with parts at most `largest`, recursively."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in _reverse_lex(n - part, part):
            yield (part, *rest)


def test_iter_partitions_matches_the_recursive_order():
    for n in range(1, 31):
        assert list(iter_partitions(n)) == list(_reverse_lex(n))
    assert [p.parts for p in partitions_of(12)] == list(_reverse_lex(12))


def test_iter_partitions_streams_and_checks_its_range_at_the_call():
    stream = iter_partitions(MAX_N)
    assert next(stream) == (MAX_N,) and next(stream) == (MAX_N - 1, 1)
    for bad in (0, MAX_N + 1):
        with pytest.raises(ValueError, match="must be an integer"):
            iter_partitions(bad)
