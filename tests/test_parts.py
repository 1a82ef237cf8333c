import re
from math import comb

import pytest
from hypothesis import given, strategies as st

from pidirr.parts import (
    PartFamily,
    PartSpec,
    PartitionSpec,
    all_bipartitions,
    all_partitions,
    all_parts,
    almost_pairs,
    almosts,
)

BELL = {2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877, 8: 4140}


def test_all_parts_small():
    assert [p.member_indices for p in all_parts(2)] == [(0,), (1,)]
    assert len(all_parts(3)) == 6
    assert len(all_parts(4)) == 14


def test_bipartitions_small():
    bips = all_bipartitions(3)
    assert len(bips) == 3
    sides = [tuple(b.member_indices for b in part.blocks) for part in bips]
    assert ((0,), (1, 2)) in sides
    assert ((0, 1), (2,)) in sides
    assert ((0, 2), (1,)) in sides
    assert len(all_bipartitions(2)) == 1
    assert len(all_bipartitions(4)) == 7


def test_almosts_small():
    assert [a.member_indices for a in almosts(3)] == [(1, 2), (0, 2), (0, 1)]
    assert [a.member_indices for a in almosts(2)] == [(1,), (0,)]
    assert all(len(a) == 4 for a in almosts(5))


def test_almost_pairs_small():
    assert len(almost_pairs(3)) == 3
    assert len(almost_pairs(2)) == 1
    assert len(almost_pairs(4)) == 6
    only = almost_pairs(2)[0]
    assert {p.member_indices for p in only.parts} == {(0,), (1,)}


def test_all_partitions_small():
    assert len(all_partitions(3)) == BELL[3] - 1
    assert len(all_partitions(2)) == 1
    assert len(all_partitions(4)) == BELL[4] - 1


@pytest.mark.parametrize("n", range(2, 9))
def test_counts_match_closed_forms(n):
    assert len(all_parts(n)) == 2**n - 2
    assert len(all_bipartitions(n)) == 2 ** (n - 1) - 1
    assert len(almosts(n)) == n
    assert len(almost_pairs(n)) == comb(n, 2)
    if n <= 6:
        assert len(all_partitions(n)) == BELL[n] - 1


@pytest.mark.parametrize("n", range(2, 7))
def test_partitions_cover_and_disjoint(n):
    for part in all_partitions(n):
        seen = set()
        for block in part.blocks:
            assert not (seen & set(block.member_indices))
            seen |= set(block.member_indices)
        assert seen == set(range(n))


@pytest.mark.parametrize("n", range(2, 7))
def test_almost_pairs_cover(n):
    for fam in almost_pairs(n):
        fam.validate(n)
        covered = set()
        for part in fam.parts:
            covered |= set(part.member_indices)
        assert covered == set(range(n))


def test_enumeration_order_is_deterministic():
    assert all_parts(4) == all_parts(4)
    a = [tuple(p.member_indices) for p in all_parts(3)]
    assert a == sorted(a)
    b = [p.blocks[0].member_indices for p in all_bipartitions(4)]
    assert b == sorted(b)
    assert all(side[0] == 0 for side in b)


def test_guards():
    with pytest.raises(ValueError):
        all_parts(1)
    with pytest.raises(ValueError):
        all_bipartitions(1)
    with pytest.raises(ValueError):
        all_partitions(11)
    with pytest.raises(ValueError):
        PartSpec(())
    with pytest.raises(ValueError):
        PartitionSpec((PartSpec((0,)),))
    with pytest.raises(ValueError):
        PartitionSpec((PartSpec((0, 1)), PartSpec((1, 2))))
    with pytest.raises(ValueError):
        PartFamily((PartSpec((0,)), PartSpec((0,))))
    with pytest.raises(ValueError):
        PartSpec((0, 1)).validate(2)  # not a proper subset
    PartSpec((0, 1)).validate(2, allow_full=True)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: PartSpec((0, -1)), "negative predictor index in (-1, 0)"),
        (lambda: PartitionSpec((PartSpec((1,)), PartSpec((2,)))),
         "blocks do not cover a full index range"),
    ],
)
def test_malformed_parts_name_their_fault(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


def test_family_canonical_order():
    fam = PartFamily((PartSpec((2,)), PartSpec((0, 1))))
    assert fam == PartFamily((PartSpec((0, 1)), PartSpec((2,))))
    assert fam.parts[0] < fam.parts[1]


@given(st.integers(min_value=2, max_value=7))
def test_parts_are_unique_and_proper(n):
    parts = all_parts(n)
    assert len(set(parts)) == len(parts)
    for p in parts:
        p.validate(n)
        assert 1 <= len(p) <= n - 1
