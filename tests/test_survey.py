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
    """Outcomes shaped like the survey's that pass: every report of a
    class that must complete, a stall and an error at 1e-12, stalls in a
    digest class, and 427 sparse completions beside barrier stalls."""
    return [
        Tally("corpus", 5, 5),
        Tally("binary-n3", 10, 10),
        Tally("mixed", 12, 12),
        Tally("random", 88, 88),
        Tally("tol 1e-10", 12, 12),
        Tally("tol 1e-12", 12, 11, stalls=[_stall()]),
        Tally("tol 1e-20", 12, 4, stalls=[_stall()] * 8),
        Tally("tight 1e-10", 600, 600),
        Tally("tight 1e-11", 600, 600),
        Tally("tight 1e-12", 600, 598, stalls=[_stall()], errors=[_error()]),
        Tally("Dirichlet(0.1)", 100, 76, stalls=[_stall()] * 24),
        Tally("Dirichlet(0.2)", 300, 295, stalls=[_stall()] * 5),
        Tally("n=5 binary", 12, 12),
        Tally("alphabet 4", 6, 6),
        Tally("n=4 ternary", 3, 3),
        Tally("target first", 40, 40),
        Tally("Dir(1) 2342", 20, 20),
        Tally("Dir(0.1) 22222", 40, 27, stalls=[_stall()] * 13),
        Tally("Dir(0.1) 3224", 40, 29, stalls=[_stall()] * 11),
    ]


def _by_name(tallies):
    return {t.name: t for t in tallies}


def test_raises_at_1e_12_and_the_fewest_sparse_completions_pass():
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


def test_one_sparse_completion_too_few_fails():
    tallies = _passing()
    sparse = _by_name(tallies)["Dir(0.1) 3224"]
    sparse.completed -= 1
    sparse.stalls.append(_stall())
    assert failures(tallies) == ["426 sparse reports completed, fewer than 427"]


@pytest.mark.parametrize("name", ["tight 1e-10", "tight 1e-11"])
@pytest.mark.parametrize("raised, outcome", [("stalls", _stall()), ("errors", _error())])
def test_a_raise_at_1e_10_or_1e_11_fails(name, raised, outcome):
    tallies = _passing()
    tally = _by_name(tallies)[name]
    tally.completed -= 1
    getattr(tally, raised).append(outcome)
    assert failures(tallies) == [f"{name}: 1 of 600 reports raised"]


@pytest.mark.parametrize("name", [
    "corpus", "binary-n3", "mixed", "random", "tol 1e-10",
    "n=5 binary", "alphabet 4", "n=4 ternary", "target first", "Dir(1) 2342",
])
def test_a_raise_in_a_class_that_completes_today_fails(name):
    # Without this gate only the class's digest would show the raise, and CI
    # compares digests only between two runs of one commit.
    tallies = _passing()
    tally = _by_name(tallies)[name]
    tally.completed -= 1
    tally.stalls.append(_stall())
    assert failures(tallies) == [f"{name}: 1 of {tally.reports} reports raised"]


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
