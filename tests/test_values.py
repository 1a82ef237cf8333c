"""The immutable value types compare, hash, show, refuse changes and copy
by their fields."""

import copy
import multiprocessing
import os
import pickle
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import pidirr
from pidirr.axioms import AxiomReport, AxiomResult
from pidirr.corpus import (
    EXAMPLE_NAMES,
    CorpusVerification,
    NamedExample,
    VerificationRow,
    load_example,
)
from pidirr.distributions import JointDistribution, VariableSelector, random_distribution
from pidirr.irreducibility import IrreducibilityReport, full_report
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


def _distribution():
    return JointDistribution(("X1", "Y"), {("1", "1"): 0.5, ("0", "0"): 0.5})


def _row():
    return VerificationRow("xor", _report(), (1.5, 1.0, 0.5, 0.25, 0.0))


_REPORT_REPR = (
    "IrreducibilityReport(predictor_names=('X1', 'X2', 'X3'), target_name='Y', "
    "whole_mi=1.5, ibe=1.0, ibdp=0.5, ib2p=0.25, ibap=0.0, "
    "witness_bipartition=PartitionSpec(blocks=(PartSpec(member_indices=(0,)), "
    "PartSpec(member_indices=(1, 2)))), "
    "witness_almost_pair=PartFamily(parts=(PartSpec(member_indices=(0, 2)), "
    "PartSpec(member_indices=(1, 2)))), "
    "measure=UnionMeasure(kind=<MeasureKind.MIN_SYNERGY: 'minsyn'>, tolerance=1e-08))"
)
_DISTRIBUTION_REPR = "JointDistribution(variables=('X1', 'Y'), target='Y', support=2)"
_ROW_REPR = (
    f"VerificationRow(name='xor', report={_REPORT_REPR}, "
    "expected=(1.5, 1.0, 0.5, 0.25, 0.0))"
)


def _result():
    return AxiomResult("M0", 1e-6, ((0.0, "item 0: append sub-part"),))


_RESULT_REPR = (
    "AxiomResult(axiom='M0', tolerance=1e-06, cases=((0.0, 'item 0: append sub-part'),))"
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
    "IrreducibilityReport": (_report, _REPORT_REPR),
    "JointDistribution": (_distribution, _DISTRIBUTION_REPR),
    "NamedExample": (
        lambda: NamedExample("xor", _distribution(), (1.0, 1.0, 1.0, 1.0, 1.0)),
        f"NamedExample(name='xor', distribution={_DISTRIBUTION_REPR}, "
        "expected=(1.0, 1.0, 1.0, 1.0, 1.0))",
    ),
    "VerificationRow": (_row, _ROW_REPR),
    "CorpusVerification": (
        lambda: CorpusVerification((_row(),), 1e-8),
        f"CorpusVerification(rows=({_ROW_REPR},), tolerance=1e-08)",
    ),
    "AxiomResult": (_result, _RESULT_REPR),
    "AxiomReport": (
        lambda: AxiomReport(1e-6, (_result(),)),
        f"AxiomReport(tolerance=1e-06, results=({_RESULT_REPR},))",
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
    for name in VALUES:
        if name != "PartSpec":
            make = VALUES[name][0]
            with pytest.raises(TypeError):
                make() < make()


def test_fields_go_by_position_or_by_keyword():
    report = _report()
    assert IrreducibilityReport(*[getattr(report, f) for f in report._fields]) == report
    example = VALUES["NamedExample"][0]()
    assert NamedExample(name=example.name, distribution=example.distribution,
                        expected=example.expected) == example
    assert NamedExample(example.name, example.distribution, expected=example.expected) == example


@pytest.mark.parametrize(
    "args, kwargs",
    [
        (("xor", None), {}),
        ((), {"name": "xor", "expected": ()}),
        (("xor",), {"distribution": None}),
        (("xor", None, (), "extra"), {}),
        (("xor", None, ()), {"extra": 1}),
        (("xor", None), {"name": "xor", "expected": ()}),
    ],
    ids=["missing", "missing-keyword", "missing-last", "extra-position",
         "extra-keyword", "repeated"],
)
def test_constructor_refuses_a_missing_extra_or_repeated_field(args, kwargs):
    with pytest.raises(TypeError):
        NamedExample(*args, **kwargs)


def test_a_distribution_pmf_is_read_only_and_copies_as_one():
    d = random_distribution(np.random.default_rng(400), 3)
    outcome, before = next(iter(d.pmf.items()))
    for change in (
        lambda pmf: pmf.__setitem__(outcome, 0.5),
        lambda pmf: pmf.__delitem__(outcome),
        lambda pmf: pmf.__ior__({outcome: 0.5}),
        lambda pmf: pmf.update({outcome: 0.5}),
        lambda pmf: pmf.setdefault(("x",) * 4, 0.5),
        lambda pmf: pmf.pop(outcome),
        lambda pmf: pmf.popitem(),
        lambda pmf: pmf.clear(),
    ):
        with pytest.raises(TypeError, match="read-only"):
            change(d.pmf)
    assert d.pmf[outcome] == before and len(d.pmf) == 16
    copies = [pickle.loads(pickle.dumps(d, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for c in copies + [copy.copy(d), copy.deepcopy(d)]:
        assert c == d and hash(c) == hash(d) and list(c.pmf.items()) == list(d.pmf.items())
        with pytest.raises(TypeError, match="read-only"):
            c.pmf[outcome] = 0.5
    pmf = copy.deepcopy(d.pmf)
    assert type(pmf) is type(d.pmf) and pmf == d.pmf and pmf is not d.pmf


def test_a_pickled_distribution_reports_the_same():
    d = random_distribution(np.random.default_rng(400), 3)
    loaded = pickle.loads(pickle.dumps(d))
    assert loaded == d and list(loaded.pmf) == list(d.pmf)
    assert repr(full_report(loaded)) == repr(full_report(d))


def test_reports_run_in_worker_processes():
    # Each worker unpickles a distribution, read-only pmf and all, and
    # pickles its report back.
    dists = [load_example(name).distribution for name in EXAMPLE_NAMES]
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(2, mp_context=context) as pool:
        reports = list(pool.map(full_report, dists, timeout=120))
    assert [repr(r) for r in reports] == [repr(full_report(d)) for d in dists]


def test_corpus_loads_without_dataclasses():
    # The corpus records and the property report are values on the
    # package's one base, as the report's types are.
    code = (
        "import sys\n"
        "for module in ('pidirr.corpus', 'pidirr.axioms'):\n"
        "    __import__(module)\n"
        "    assert 'dataclasses' not in sys.modules, f'{module} loaded dataclasses'\n"
    )
    src = str(Path(pidirr.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
