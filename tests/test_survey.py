"""The exit gates of ``tests/survey.py``, fed synthetic outcomes, and the
line it writes per class, from a class of two reports."""

import re

import pytest

import survey
from conftest import Calls, make_random
from pidirr import union_info
from pidirr.irreducibility import OrderingViolationError, full_report
from pidirr.union_info import UnionConvergenceError, UnionMeasure
from survey import Tally, failures


def _stall():
    return "input", UnionConvergenceError("minimum-synergy barrier solver stalled", 1.0, 0.1)


def _error():
    return "input", OrderingViolationError("ib2p exceeds ibap")


def _passing():
    """Outcomes shaped like the survey's that pass: a stall and an error at
    1e-12, stalls in a digest class, and 371 sparse completions beside
    barrier stalls."""
    return [
        Tally("tol 1e-20", 12, 4, stalls=[_stall()] * 8),
        Tally("tight 1e-10", 600, 600),
        Tally("tight 1e-11", 600, 600),
        Tally("tight 1e-12", 600, 598, stalls=[_stall()], errors=[_error()]),
        Tally("Dirichlet(0.1)", 100, 76, stalls=[_stall()] * 24),
        Tally("Dirichlet(0.2)", 300, 295, stalls=[_stall()] * 5),
    ]


def _by_name(tallies):
    return {t.name: t for t in tallies}


def test_raises_at_1e_12_and_371_sparse_completions_pass():
    assert failures(_passing()) == []


@pytest.mark.parametrize("error", [
    UnionConvergenceError("maximal-support LP failed: its face misses the base support",
                          float("inf"), float("inf")),
    _error()[1],
])
def test_an_error_but_a_barrier_stall_in_a_sparse_class_fails(error):
    tallies = _passing()
    sparse = _by_name(tallies)["Dirichlet(0.2)"]
    sparse.stalls.pop()
    sparse.errors.append(("input", error))
    assert failures(tallies) == ["Dirichlet(0.2): 1 errors other than barrier stalls"]


def test_370_sparse_completions_fail():
    tallies = _passing()
    sparse = _by_name(tallies)["Dirichlet(0.1)"]
    sparse.completed -= 1
    sparse.stalls.append(_stall())
    assert failures(tallies) == ["370 sparse reports completed, fewer than 371"]


@pytest.mark.parametrize("name", ["tight 1e-10", "tight 1e-11"])
@pytest.mark.parametrize("raised, outcome", [("stalls", _stall()), ("errors", _error())])
def test_a_raise_at_1e_10_or_1e_11_fails(name, raised, outcome):
    tallies = _passing()
    tally = _by_name(tallies)[name]
    tally.completed -= 1
    getattr(tally, raised).append(outcome)
    assert failures(tallies) == [f"{name}: 1 of 600 reports raised"]


def test_each_class_names_the_input_that_took_the_most_newton_systems(monkeypatch, capsys):
    inputs = [("light", make_random(400, 3)), ("heavy", make_random(408, 3))]
    counts = []
    for _, d in inputs:
        with monkeypatch.context() as patch:
            systems = Calls(patch, union_info, "_newton_solve")
            full_report(d)
        counts.append(systems.count)
    assert counts[0] < counts[1]
    monkeypatch.setattr(survey, "classes", lambda: iter([("pair", UnionMeasure(), inputs)]))
    survey.main()  # fails on its sparse completions, as no sparse class runs
    out, err = capsys.readouterr()
    assert re.search(fr"^pair: [0-9.]+ s, most Newton systems {counts[1]}: heavy$", err, re.M)
    assert f" {sum(counts):>6} systems " in out
