"""Enumeration of parts, bipartitions, Almosts, and set partitions.

A *part* is a joint variable built from a nonempty proper subset of the n
predictors; it is described here purely combinatorially by its (0-based)
predictor index set.  The enumerations are deterministic (lexicographic on
index tuples) so that argmax witnesses are reproducible run to run.

Counts, for n predictors:

* parts: ``2**n - 2``
* bipartitions: ``2**(n-1) - 1``
* Almosts: ``n`` (the i-th lacks predictor i)
* Almost pairs: ``n * (n-1) / 2``
* set partitions with >= 2 blocks: ``Bell(n) - 1``
"""

from __future__ import annotations

from functools import total_ordering
from itertools import combinations
from typing import Iterator, Sequence

from .distributions import _Value

__all__ = [
    "PartSpec",
    "PartitionSpec",
    "PartFamily",
    "all_parts",
    "all_bipartitions",
    "almosts",
    "almost_pairs",
    "all_partitions",
]

#: Set-partition enumeration is guarded; Bell numbers explode beyond this.
MAX_PARTITION_N = 10


@total_ordering
class PartSpec(_Value):
    """A nonempty proper subset of the 0-based predictor indices {0..n-1}.

    Parts order by their index tuples.
    """

    _fields = ("member_indices",)
    member_indices: tuple[int, ...]

    def __init__(self, member_indices):
        object.__setattr__(
            self, "member_indices", tuple(sorted(set(int(i) for i in member_indices)))
        )
        if not self.member_indices:
            raise ValueError("a part must contain at least one predictor")
        if any(i < 0 for i in self.member_indices):
            raise ValueError(f"negative predictor index in {self.member_indices}")

    def validate(self, n: int, allow_full: bool = False) -> None:
        """Check the part fits n predictors; proper subset unless allow_full."""
        if self.member_indices[-1] >= n:
            raise ValueError(f"part {self.member_indices} out of range for n={n}")
        if not allow_full and len(self.member_indices) >= n:
            raise ValueError(
                f"part {self.member_indices} is not a proper subset of {{0..{n - 1}}}"
            )

    def __len__(self) -> int:
        return len(self.member_indices)

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.member_indices < other.member_indices


class PartitionSpec(_Value):
    """Pairwise-disjoint parts whose union is the full predictor set."""

    _fields = ("blocks",)
    blocks: tuple[PartSpec, ...]

    def __init__(self, blocks: Sequence[PartSpec]):
        object.__setattr__(self, "blocks", tuple(sorted(blocks)))
        if len(self.blocks) < 2:
            raise ValueError("a partition needs at least 2 blocks")
        seen: set[int] = set()
        for b in self.blocks:
            if seen & set(b.member_indices):
                raise ValueError(f"blocks overlap in {self.blocks}")
            seen |= set(b.member_indices)
        if seen != set(range(len(seen))):
            raise ValueError(f"blocks do not cover a full index range: {self.blocks}")

    def family(self) -> "PartFamily":
        return PartFamily(self.blocks)


class PartFamily(_Value):
    """A set of m >= 1 distinct parts."""

    _fields = ("parts",)
    parts: tuple[PartSpec, ...]

    def __init__(self, parts: Sequence[PartSpec]):
        canon = tuple(sorted(parts))
        object.__setattr__(self, "parts", canon)
        if not canon:
            raise ValueError("a family needs at least one part")
        if len(set(canon)) != len(canon):
            raise ValueError(f"duplicate parts in family {canon}")

    def validate(self, n: int, allow_full: bool = False) -> None:
        for p in self.parts:
            p.validate(n, allow_full=allow_full)

    def __len__(self) -> int:
        return len(self.parts)


def all_parts(n: int) -> list[PartSpec]:
    """All 2**n - 2 parts, lexicographic on index tuples."""
    _require_n(n)
    out = [
        PartSpec(c)
        for size in range(1, n)
        for c in combinations(range(n), size)
    ]
    out.sort()
    return out


def all_bipartitions(n: int) -> list[PartitionSpec]:
    """All 2**(n-1) - 1 unordered bipartitions {S, complement}, each once.

    Deduplicated by keeping the side containing predictor 0; ordered
    lexicographically on that side.
    """
    _require_n(n)
    rest = list(range(1, n))
    sides = []
    for size in range(0, n - 1):
        for extra in combinations(rest, size):
            sides.append((0,) + extra)
    sides.sort()
    return [
        PartitionSpec(
            (PartSpec(side), PartSpec(tuple(i for i in range(n) if i not in side)))
        )
        for side in sides
    ]


def almosts(n: int) -> list[PartSpec]:
    """The n Almosts; the i-th lacks predictor i."""
    _require_n(n)
    return [PartSpec(tuple(j for j in range(n) if j != i)) for i in range(n)]


def almost_pairs(n: int) -> list[PartFamily]:
    """All n*(n-1)/2 unordered pairs of distinct Almosts."""
    _require_n(n)
    a = almosts(n)
    return [PartFamily((a[i], a[j])) for i, j in combinations(range(n), 2)]


def all_partitions(n: int) -> list[PartitionSpec]:
    """All set partitions of {0..n-1} with >= 2 blocks (Bell(n) - 1 items).

    Enumerated via restricted growth strings, so the order is deterministic.
    """
    _require_n(n)
    if n > MAX_PARTITION_N:
        raise ValueError(f"set-partition enumeration guarded at n <= {MAX_PARTITION_N}")
    out = []
    for rgs in _restricted_growth_strings(n):
        nblocks = max(rgs) + 1
        if nblocks < 2:
            continue
        blocks = [[] for _ in range(nblocks)]
        for i, b in enumerate(rgs):
            blocks[b].append(i)
        out.append(PartitionSpec(tuple(PartSpec(b) for b in blocks)))
    return out


def _restricted_growth_strings(n: int) -> Iterator[tuple[int, ...]]:
    """Yield all restricted growth strings of length n in lexicographic order."""
    rgs = [0] * n

    def rec(i: int, m: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(rgs)
            return
        for v in range(m + 2):
            rgs[i] = v
            yield from rec(i + 1, max(m, v))

    if n == 0:
        return
    yield from rec(1, 0)


def _require_n(n: int) -> None:
    if n < 2:
        raise ValueError(f"need at least 2 predictors, got n={n}")
