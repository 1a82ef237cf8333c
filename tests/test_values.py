"""The immutable value types compare, hash, show, refuse changes and copy
by their fields."""

import copy
import pickle

import pytest

from pidirr.distributions import VariableSelector
from pidirr.irreducibility import IrreducibilityReport
from pidirr.parts import PartFamily, PartitionSpec, PartSpec
from pidirr.union_info import MeasureKind, UnionMeasure


def _report():
    return IrreducibilityReport(
        predictor_names=("X1", "X2", "X3"),
        target_name="Y",
        whole_mi=1.5,
        ibe=1.0,
        ibdp=0.5,
        ib2p=0.25,
        ibap=0.0,
        witness_bipartition=PartitionSpec((PartSpec((1, 2)), PartSpec((0,)))),
        witness_almost_pair=PartFamily((PartSpec((1, 2)), PartSpec((0, 2)))),
        measure=UnionMeasure(tolerance=1e-8),
    )


# Each type's constructor of one instance, and that instance's repr.
VALUES = {
    "VariableSelector": (
        lambda: VariableSelector((2, 0, 2)),
        "VariableSelector(indices=(0, 2))",
    ),
    "PartSpec": (lambda: PartSpec((1, 0)), "PartSpec(member_indices=(0, 1))"),
    "PartitionSpec": (
        lambda: PartitionSpec((PartSpec((1, 2)), PartSpec((0,)))),
        "PartitionSpec(blocks=(PartSpec(member_indices=(0,)), "
        "PartSpec(member_indices=(1, 2))))",
    ),
    "PartFamily": (
        lambda: PartFamily((PartSpec((1, 2)), PartSpec((0, 2)))),
        "PartFamily(parts=(PartSpec(member_indices=(0, 2)), "
        "PartSpec(member_indices=(1, 2))))",
    ),
    "UnionMeasure": (
        lambda: UnionMeasure(kind=MeasureKind.MAX_SINGLE_MI, tolerance=1e-8),
        "UnionMeasure(kind=<MeasureKind.MAX_SINGLE_MI: 'maxmi'>, tolerance=1e-08)",
    ),
    "IrreducibilityReport": (
        _report,
        "IrreducibilityReport(predictor_names=('X1', 'X2', 'X3'), target_name='Y', "
        "whole_mi=1.5, ibe=1.0, ibdp=0.5, ib2p=0.25, ibap=0.0, "
        "witness_bipartition=PartitionSpec(blocks=(PartSpec(member_indices=(0,)), "
        "PartSpec(member_indices=(1, 2)))), "
        "witness_almost_pair=PartFamily(parts=(PartSpec(member_indices=(0, 2)), "
        "PartSpec(member_indices=(1, 2)))), "
        "measure=UnionMeasure(kind=<MeasureKind.MIN_SYNERGY: 'minsyn'>, tolerance=1e-08))",
    ),
}


@pytest.mark.parametrize("name", VALUES)
def test_equal_values_compare_and_hash_equal(name):
    make, _ = VALUES[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a.__eq__(object()) is NotImplemented
    assert a != tuple(vars(a).values())


@pytest.mark.parametrize("name", VALUES)
def test_repr_names_every_field(name):
    make, shown = VALUES[name]
    assert repr(make()) == shown


@pytest.mark.parametrize("name", VALUES)
def test_values_refuse_assignment_and_deletion(name):
    value = VALUES[name][0]()
    field = next(iter(vars(value)))
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, field) is before
    assert not hasattr(value, "extra")


@pytest.mark.parametrize("name", VALUES)
def test_pickle_and_deepcopy_round_trip(name):
    value = VALUES[name][0]()
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        loaded = pickle.loads(pickle.dumps(value, protocol))
        assert type(loaded) is type(value)
        assert loaded == value and hash(loaded) == hash(value)
        assert repr(loaded) == repr(value)
    copied = copy.deepcopy(value)
    assert copied == value and repr(copied) == repr(value)
    assert copy.copy(value) == value


def test_part_specs_sort_by_member_tuple():
    members = [(1, 2), (0,), (2,), (0, 1), (0, 2), (1,)]
    parts = [PartSpec(m) for m in members]
    assert [p.member_indices for p in sorted(parts)] == sorted(members)
    low, high = PartSpec((0,)), PartSpec((0, 1))
    assert low < high and low <= high and high > low and high >= low
    assert low <= PartSpec((0,)) and low >= PartSpec((0,))
    assert not (low < PartSpec((0,)))
    with pytest.raises(TypeError):
        low < (0, 1)


def test_only_part_specs_are_ordered():
    for name in ("VariableSelector", "PartitionSpec", "PartFamily", "UnionMeasure"):
        make = VALUES[name][0]
        with pytest.raises(TypeError):
            make() < make()
