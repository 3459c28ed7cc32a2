"""Integer partitions: enumeration, counting, and the basis-type lower bound.

A partition is kept in canonical form (weakly decreasing positive parts, no
zero padding) and doubles as the structural type of a product basis: each part
is the dimension of one orthogonal subspace in the qudit-side decomposition.
"""

from __future__ import annotations

__all__ = [
    "MAX_N",
    "Partition",
    "iter_partitions",
    "partitions_of",
    "partition_count",
    "type_count_lower_bound",
]

# p(64) = 1741630 fits comfortably in machine integers; C^(2*64) is still
# desk-scale, so 64 is where this library stops.
MAX_N = 64


class Partition(tuple):
    """A weakly decreasing tuple of positive integers; `n` is their sum."""

    __slots__ = ()

    def __new__(cls, parts):
        if not parts:
            raise ValueError("partition needs at least one part")
        self = super().__new__(cls, parts)
        if any(isinstance(p, bool) or not isinstance(p, int) or p < 1 for p in self):
            raise ValueError(f"parts must be positive integers, got {parts!r}")
        if any(a < b for a, b in zip(self, self[1:])):
            raise ValueError(f"parts must be weakly decreasing, got {parts!r}")
        return self

    @property
    def parts(self) -> tuple[int, ...]:
        return tuple(self)

    @property
    def n(self) -> int:
        return sum(self)

    def __repr__(self):
        return f"Partition(parts={self.parts!r})"

    def __str__(self):
        return "+".join(map(str, self))

    @classmethod
    def from_string(cls, text: str) -> "Partition":
        """Parse '+'-separated runs of ASCII digits, e.g. '3+2+1', each between optional blanks."""
        pieces = [piece.strip() for piece in text.split("+")]
        if not all(piece.isascii() and piece.isdigit() for piece in pieces):
            raise ValueError(f"invalid partition string {text!r}")
        return cls(tuple(map(int, pieces)))


def _check_range(n: int) -> None:
    if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= MAX_N:
        raise ValueError(f"n must be an integer in [1, {MAX_N}], got {n!r}")


def iter_partitions(n: int):
    """The parts of every partition of n as tuples, in reverse lexicographic order,
    one at a time: algorithm ZS1 of Zoghbi and Stojmenovic (1998).  The range of n
    is checked on the call, before the first partition is asked for."""
    _check_range(n)
    return _zs1(n)


def _zs1(n: int):
    # x[:m] holds the parts, x[h] is the last part above 1, and x[m:] is all ones
    x, m, h = [n] + [1] * (n - 1), 1, 0
    yield (n,)
    while x[0] != 1:
        if x[h] == 2:
            x[h] = 1
            m, h = m + 1, h - 1
        else:
            r, t = x[h] - 1, m - h  # t: the unit taken from x[h] plus the ones after it
            x[h] = r
            while t >= r:
                h, t = h + 1, t - r
                x[h] = r
            m = h + 1 if t == 0 else h + 2
            if t > 1:
                h += 1
                x[h] = t
        yield tuple(x[:m])


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n, in reverse lexicographic order."""
    return [Partition(parts) for parts in iter_partitions(n)]


def partition_count(n: int) -> int:
    """p(n), the number of partitions of n, by dynamic programming."""
    _check_range(n)
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


def type_count_lower_bound(n: int) -> int:
    """Lower bound p(n) + 1 on the number of structural types of product bases.

    One type per partition, plus one extra because the all-in-one-subspace
    partition is realized by two structurally distinct bases (coinciding vs
    differing qudit-side group bases).
    """
    return partition_count(n) + 1
