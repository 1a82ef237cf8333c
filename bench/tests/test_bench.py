"""Self-tests of the benchmark harness: inputs, checks, counting and spans.

Run with ``python3 -m pytest -q bench/tests`` from the repository root.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import brackets  # noqa: E402
import run  # noqa: E402
from inputs import base_instances, pass_inputs, random_instance  # noqa: E402
from spans import Span, self_times  # noqa: E402

STORED = {w: {e["id"]: e for e in entries} for w, entries in brackets.load()["workloads"].items()}


def _midpoints(report_bracket):
    return tuple((lo + hi) / 2 for lo, hi in (report_bracket[k] for k in run.REPORT_KEYS))


@pytest.mark.parametrize("workload", ["binary-n3", "ternary-zeros"])
def test_generator_is_byte_identical_for_a_seed(workload):
    first = base_instances(workload)
    again = base_instances(workload)
    assert [i.tsv() for i in first] == [i.tsv() for i in again]
    for inst in first:
        assert inst.digest() == STORED[workload][inst.id]["digest"]
    shown = [p.tsv for p in pass_inputs(first, 7, 0)]
    assert shown == [p.tsv for p in pass_inputs(first, 7, 0)]
    assert shown != [p.tsv for p in pass_inputs(first, 8, 0)]
    assert set(shown).isdisjoint(p.tsv for p in pass_inputs(first, 7, 1))


def test_presentation_keeps_the_problem():
    from pidirr import parse_distribution

    inst = random_instance(404, 3)
    base = parse_distribution(inst.tsv())
    for p in pass_inputs([inst], 3, 0) + pass_inputs([inst], 3, 1):
        shown = parse_distribution(p.tsv)
        assert shown != base
        assert list(shown.pmf.values()) == list(base.pmf.values())


def test_value_shifted_by_1e5_bits_fails():
    entry = STORED["binary-n3"]["s400"]
    good = _midpoints(entry["report"])
    assert run.judge(good, entry["report"]) == 0.0
    for k in range(len(good)):
        shifted = list(good)
        shifted[k] += 1e-5
        o = run.Outcome("s400", 0.1, values=tuple(shifted))
        run.check([o], STORED["binary-n3"])
        assert o.failed, run.REPORT_KEYS[k]


def test_raising_report_is_failed_not_missing():
    instances = base_instances("binary-n3")
    shown = pass_inputs(instances, 1, 0)
    boom = shown[3].tsv

    def report(tsv):
        if tsv == boom:
            raise FloatingPointError("solver blew up")
        inst = next(p.instance for p in shown if p.tsv == tsv)
        return _midpoints(STORED["binary-n3"][inst.id]["report"])

    outcomes = run.timed_reports(shown, report)
    run.check(outcomes, STORED["binary-n3"])
    s = run.summary(outcomes)
    assert s["attempted"] == len(instances)
    assert s["failed"] == 1
    assert s["pass_frac"] == pytest.approx((len(instances) - 1) / len(instances))
    busy = sum(o.seconds for o in outcomes)
    assert s["reports_per_s"] == pytest.approx((len(instances) - 1) / busy)


def test_self_times_on_a_hand_built_tree():
    spans = [
        Span("report", "a", None, 0.0, 10.0),
        Span("build", "a", 0, 1.0, 3.0),
        Span("union", "a", 0, 2.0, 5.0),  # overlaps its sibling by 1
        Span("parse", "a", 1, 1.5, 2.5),
        Span("report", "b", None, 10.0, 12.0),
    ]
    assert self_times(spans) == pytest.approx([6.0, 1.0, 3.0, 1.0, 2.0])


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail_percentile(80) == pytest.approx(87.5)
    assert run.tail_percentile(10) == 100.0
    values = [float(v) for v in range(1, 81)]
    assert sum(v > run.percentile(values, run.tail_percentile(80)) for v in values) == 10


def test_stored_brackets_are_narrow_and_ordered():
    for entries in STORED.values():
        for entry in entries.values():
            for f in entry["families"]:
                assert 0.0 <= f["upper"] - f["lower"] <= brackets.MAX_WIDTH
            for lo, hi in entry["report"].values():
                assert lo <= hi


def test_dual_bound_is_below_the_minimum_for_any_multipliers():
    import numpy as np
    from pidirr import MarginalPolytope, PartSpec, parse_distribution

    inst = random_instance(100, 2, 3, 0.3)
    poly = MarginalPolytope(parse_distribution(inst.tsv()), [PartSpec((0,)), PartSpec((1,))])
    upper = STORED["ternary-zeros"]["s100"]["families"][0]["upper"]
    hy = brackets.mutual_information(inst, [2])  # I(Y;Y) = H(Y)
    rng = np.random.default_rng(0)
    for _ in range(20):
        lam = rng.standard_normal(len(poly.b))
        bound = hy + brackets.dual_value(lam, poly.A, poly.b, poly.xidx, poly.nx) / np.log(2.0)
        assert bound <= upper + 1e-12


def test_speedometer_removes_its_ticks_and_scales_by_them():
    import signal
    import time

    import speed

    before = signal.getsignal(signal.SIGALRM)
    with speed.Speedometer() as sp:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(sp.ticks) > 2 * speed.EDGE_TICKS  # ticks ran during the call
    assert sp.work == pytest.approx(sp.wall - sp.in_call)
    assert sp.factor == pytest.approx(sum(sp.ticks) / len(sp.ticks) / speed.TICK_REF_S)
    assert sp.scaled == pytest.approx(sp.work / sp.factor)

    with speed.Speedometer(child=True) as child:
        time.sleep(0.05)
    assert len(child.ticks) == 2  # one reference process before, one after
    assert child.work == child.wall
    assert child.factor == pytest.approx(sum(child.ticks) / 2 / speed.PROCESS_REF_S)
