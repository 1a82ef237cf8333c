import math

import pytest

from pidirr.distributions import JointDistribution
from pidirr.irreducibility import full_report, ib2p, ibap, ibdp, ibe
from pidirr.parts import (
    PartFamily,
    PartSpec,
    all_bipartitions,
    all_partitions,
    all_parts,
    almost_pairs,
    almosts,
)
from pidirr import irreducibility, union_info
from pidirr.union_info import MeasureKind, UnionMeasure, union_information

from conftest import Calls, make_random, unordered_unions

MINSYN = UnionMeasure()


def test_xor_all_measures_equal_one(xor):
    rep = full_report(xor, MINSYN)
    assert all(math.isclose(v, 1.0, abs_tol=1e-7) for v in rep.values())


def test_xor_unique_profile_and_witness(xor_unique):
    value, witness = ibdp(xor_unique, MINSYN)
    assert abs(value) <= 1e-7
    assert {b.member_indices for b in witness.blocks} == {(0, 1), (2,)}
    assert math.isclose(ibe(xor_unique, MINSYN), 1.0, abs_tol=1e-7)
    assert abs(ibap(xor_unique, MINSYN)) <= 1e-7


def test_double_xor_pair_witness(double_xor):
    value, witness = ib2p(double_xor, MINSYN)
    assert abs(value) <= 1e-7
    assert {p.member_indices for p in witness.parts} == {(0, 1), (1, 2)}
    dp, _ = ibdp(double_xor, MINSYN)
    assert math.isclose(dp, 1.0, abs_tol=1e-7)


def test_triple_xor_profile(triple_xor):
    rep = full_report(triple_xor, MINSYN)
    assert [round(v, 6) for v in rep.values()] == [3.0, 3.0, 2.0, 1.0, 0.0]


def test_triple_xor_bipartitions_tie_at_the_earliest(triple_xor):
    # Each bipartition conveys exactly one bit, the sum of its blocks' bounds,
    # so all three tie and the earliest is the witness.
    value, witness = ibdp(triple_xor, MINSYN)
    assert value == 2.0
    assert [b.member_indices for b in witness.blocks] == [(0,), (1, 2)]


def test_bipartition_values_lie_between_their_part_bounds(monkeypatch, corpus):
    # Given Y, independent blocks make a feasible point whose union is at most
    # the blocks' summed mutual information, so every bipartition's value a
    # report leaves, certified or not, lies between the part bound and that
    # sum.
    inputs = [example.distribution for example in corpus.values()]
    inputs += [make_random(*args) for args in [(400, 3), (401, 4), (1, 3, 2, 0.3), (102, 3, 3, 0.3),
                                               (0, 4, 2, 0.1), (0, 5)]]
    solves = Calls(monkeypatch, union_info, "_min_synergy_brackets")
    for d in inputs:
        solves.calls.clear()
        full_report(d)
        reported = {parts: b for (_, families, *_), out in solves.calls
                    for parts, b in zip(families, out)}
        for bipartition in all_bipartitions(d.n_predictors):
            # The solver's own part informations: it starts each value at most
            # at their sum, to the bit.
            mis = union_info._Tables(d).masses([bipartition.blocks])[3]
            value, _ = reported[bipartition.family().parts]
            assert max(mis) - 1e-12 <= value <= sum(mis)


@pytest.mark.parametrize("n, alphabet, zeros, seeds", [
    (3, 2, 0.0, 15), (3, 2, 0.3, 15), (4, 2, 0.0, 10), (3, 3, 0.0, 10), (3, 3, 0.2, 15),
    (2, 3, 0.3, 15),
])
def test_single_measures_match_the_full_report(n, alphabet, zeros, seeds):
    # Each measure asked for alone solves only its own scan's families, in a
    # stack of its own, so it may differ from the report's field in the last
    # bits (the stack's padded null width shapes the rounding); its witness
    # is the report's.
    for seed in range(seeds):
        d = make_random(seed, n, alphabet, zeros)
        report = full_report(d)
        value, bipartition = ibdp(d)
        assert value == pytest.approx(report.ibdp, abs=1e-12), seed
        assert bipartition == report.witness_bipartition, seed
        value, pair = ib2p(d)
        assert value == pytest.approx(report.ib2p, abs=1e-12), seed
        assert pair == report.witness_almost_pair, seed
        assert ibe(d) == pytest.approx(report.ibe, abs=1e-12), seed
        assert ibap(d) == pytest.approx(report.ibap, abs=1e-12), seed


def test_parity_utterly_irreducible(parity):
    rep = full_report(parity, MINSYN)
    assert all(math.isclose(v, 1.0, abs_tol=1e-7) for v in rep.values())


def test_n2_collapse():
    # With two predictors all four notions coincide.
    for seed in range(5):
        d = make_random(seed + 300, n_predictors=2)
        rep = full_report(d, MINSYN)
        assert abs(rep.ibe - rep.ibdp) <= 1e-6
        assert abs(rep.ibdp - rep.ib2p) <= 1e-6
        assert abs(rep.ib2p - rep.ibap) <= 1e-6


@pytest.mark.parametrize(
    "tolerance, seeds",
    # Certified values at the three looser tolerances break a link by more than 1e-6.
    [(1e-6, range(400, 410)), (1e-4, [48]), (1e-2, [26]), (0.1, [19])],
    ids=["tol1e-6", "tol1e-4", "tol1e-2", "tol0.1"],
)
def test_ordering_chain_on_randoms(tolerance, seeds):
    for seed in seeds:
        d = make_random(seed, n_predictors=3)
        rep = full_report(d, UnionMeasure(tolerance=tolerance))
        w, e, dp, p2, ap = rep.values()
        assert ap <= p2 + tolerance
        assert p2 <= dp + tolerance
        assert dp <= e + tolerance
        assert e <= w + tolerance
        assert ap >= -1e-12


def test_an_order_the_unions_break_is_a_typed_error(monkeypatch):
    unordered_unions(monkeypatch)
    with pytest.raises(irreducibility.OrderingViolationError, match="ibap=.* exceeds ib2p="):
        full_report(make_random(400), MINSYN)


def test_relabeling_leaves_measures_fixed(xor_unique):
    rep = full_report(xor_unique, MINSYN)
    swapped = xor_unique.relabeled("X2", {"0": "b", "1": "a"})
    rep2 = full_report(swapped, MINSYN)
    for a, b in zip(rep.values(), rep2.values()):
        assert abs(a - b) <= 1e-9


def test_constant_target_all_zero(xor_unique):
    const = xor_unique.with_constant_target()
    rep = full_report(const, MINSYN)
    assert rep.values() == (0.0, 0.0, 0.0, 0.0, 0.0)


def test_maxmi_profile_differs(xor_unique):
    maxmi = UnionMeasure(kind=MeasureKind.MAX_SINGLE_MI)
    value, _ = ibdp(xor_unique, maxmi)
    assert math.isclose(value, 1.0, abs_tol=1e-9)  # expected mismatch vs minsyn's 0


def _two_input_gate(y):
    """X1 and X2 independent uniform bits, and Y = y(X1, X2)."""
    return JointDistribution(
        ("X1", "X2", "Y"), {(a, b, y(a, b)): 0.25 for a in "01" for b in "01"}
    )


def test_and_gate_anchor():
    # The singleton union of AND is its BROJA union information,
    # 1.5 - 0.75 log2 3 bits, and every measure is H(Y) minus it.
    d = _two_input_gate(lambda a, b: str(int(a == b == "1")))
    m = UnionMeasure(tolerance=1e-9)
    union = union_information(m, d, [PartSpec((0,)), PartSpec((1,))])
    assert abs(union - (1.5 - 0.75 * math.log2(3))) <= 1e-9
    expected = (0.8112781245, 0.5, 0.5, 0.5, 0.5)
    assert full_report(d, m).values() == pytest.approx(expected, abs=1e-9)


def test_copy_gate_anchor():
    # Y = X1X2: each input alone determines its half of Y, so nothing is
    # irreducible.
    d = _two_input_gate(lambda a, b: a + b)
    assert full_report(d, MINSYN).values() == pytest.approx((2.0, 0.0, 0.0, 0.0, 0.0), abs=1e-9)


def test_needs_two_predictors():
    d = JointDistribution(("A", "Y"), {("0", "0"): 0.5, ("1", "1"): 0.5})
    with pytest.raises(ValueError):
        full_report(d, MINSYN)


def test_report_shape(xor_unique):
    rep = full_report(xor_unique, MINSYN)
    payload = rep.to_dict()
    assert list(payload) == [
        "whole_mi", "ibe", "ibdp", "ib2p", "ibap", "witnesses", "settings",
    ]
    assert payload["witnesses"]["ibdp_bipartition"] == [["X1", "X2"], ["X3"]]
    assert payload["settings"]["measure"] == "minsyn"
    assert rep.predictor_names == ("X1", "X2", "X3")


def test_default_measure_is_minsyn(xor):
    rep = full_report(xor)
    assert rep.measure.kind is MeasureKind.MIN_SYNERGY


@pytest.mark.parametrize(
    "seed, n", [(500, 3), (501, 3), (502, 3), (503, 4)]
)
def test_reduced_enumerations_match_full_ones(seed, n):
    # Each measure scans a reduced enumeration of families; the full one
    # can only add families with a smaller union, so both maxima agree.
    d = make_random(seed, n_predictors=n)

    def best(families):
        return max(union_information(MINSYN, d, fam) for fam in families)

    slack = 2 * MINSYN.tolerance
    parts = all_parts(n)
    assert abs(
        best(p.family() for p in all_partitions(n))
        - best(b.family() for b in all_bipartitions(n))
    ) <= slack
    all_pairs = [
        PartFamily((parts[i], parts[j]))
        for i in range(len(parts))
        for j in range(i + 1, len(parts))
    ]
    assert abs(best(all_pairs) - best(almost_pairs(n))) <= slack
    assert abs(
        best([PartFamily(tuple(parts))]) - best([PartFamily(tuple(almosts(n)))])
    ) <= slack


def _report_every_family_solved(monkeypatch, d, m):
    """The report with every family of every scan solved to the tolerance in
    one solve call that is given no scans."""
    solve = union_info._solve

    def every_family(m, d, families, scans):
        return solve(m, d, families)

    with monkeypatch.context() as patch:
        patch.setattr(irreducibility, "_solve", every_family)
        return full_report(d, m)


def _witnesses(report):
    return (
        [b.member_indices for b in report.witness_bipartition.blocks],
        [p.member_indices for p in report.witness_almost_pair.parts],
    )


# (seed, n, alphabet size, zero fraction); n = 4 ternary takes 0.5 s a report.
_EQUIVALENCE_INPUTS = [
    (seed, n, a, z)
    for n, a, seeds in [(2, 3, [600, 601]), (3, 2, [602, 603, 604]), (3, 3, [605]), (4, 2, [606]),
                        (5, 2, [607])]
    for seed in seeds
    for z in (0.0, 0.1, 0.3)
]


@pytest.mark.parametrize("tolerance", [1e-6, 1e-10])
def test_scans_solve_only_what_their_maxima_need(monkeypatch, corpus, tolerance):
    # The report path stops a family once it cannot be its scan's maximum;
    # its values and witnesses are those of solving every family.
    m = UnionMeasure(tolerance=tolerance)
    inputs = [make_random(*args) for args in _EQUIVALENCE_INPUTS]
    for d in inputs + [example.distribution for example in corpus.values()]:
        expected = _report_every_family_solved(monkeypatch, d, m)
        report = full_report(d, m)
        assert report.values() == pytest.approx(expected.values(), abs=1e-12)
        assert _witnesses(report) == _witnesses(expected)


@pytest.mark.parametrize("shift", [
    lambda i: i, lambda i: -i, lambda i: (-1) ** i * (i % 4), lambda i: (5 * i + 3) % 11 - 5,
], ids=["rising", "falling", "alternating", "scattered"])
def test_witnesses_are_the_earliest_of_their_tie_class(monkeypatch, corpus, shift):
    # Rounding moves a union by a few ulps, which can reorder families whose
    # unions tie exactly (triple_xor's Almost pairs, parity's everything).
    # Each union moved by a different multiple of 1e-15 leaves every witness
    # the earliest family of its scan within 1e-9 of the scan's largest.
    solve = union_info._solve
    for name, example in corpus.items():
        d = example.distribution
        families, ids, witnesses = irreducibility._scan_plan(
            d.n_predictors, irreducibility._MEASURES)
        seen = []

        def shifted(m, d, asked, scans):
            assert asked == families
            whole, unions = solve(m, d, asked, scans)
            seen.append(unions)
            return whole, [v + shift(i) * 1e-15 for i, v in enumerate(unions)]

        report = full_report(d, MINSYN)
        with monkeypatch.context() as patch:
            patch.setattr(irreducibility, "_solve", shifted)
            moved = full_report(d, MINSYN)
        [unions] = seen
        earliest = {}
        for scan, found, at in zip(irreducibility._MEASURES, witnesses, ids):
            values = [unions[i] for i in at]
            earliest[scan] = next(w for w, v in zip(found, values) if v >= max(values) - 1e-9)
        assert report.witness_bipartition == earliest["ibdp"], name
        assert report.witness_almost_pair == earliest["ib2p"], name
        assert _witnesses(moved) == _witnesses(report), name
        assert moved.values() == pytest.approx(report.values(), abs=1e-13)


def test_each_exit_point_retires_a_dominated_family(monkeypatch):
    # A dominated family stops inside the lockstep solve, at a Newton step;
    # before its build, with its whole or disjoint-part bound as its value;
    # or at its start, with the start's value.
    calls = []
    lockstep, solve = union_info._lockstep, union_info._min_synergy_brackets

    def recording_lockstep(stack, rows, start, ids, hy, brackets):
        lockstep(stack, rows, start, ids, hy, brackets)
        calls[-1]["newton"].update(ids)

    def recording_solve(tab, families, m, scans=()):
        calls.append({"tab": tab, "families": families, "newton": set()})
        calls[-1]["out"] = solve(tab, families, m, scans)
        return calls[-1]["out"]

    monkeypatch.setattr(union_info, "_lockstep", recording_lockstep)
    monkeypatch.setattr(union_info, "_min_synergy_brackets", recording_solve)
    for seed in (400, 401, 402):
        full_report(make_random(seed, 3))
    exits = {"newton": 0, "build": 0, "start": 0}
    for call in calls:
        tab = call["tab"]
        for i, (parts, bracket) in enumerate(zip(call["families"], call["out"])):
            value, lower = bracket
            if value - lower <= 0.1 * MINSYN.tolerance:  # certified, not dominated
                continue
            members = [j for p in parts for j in p.member_indices]
            built = tab.whole_mi
            if len(set(members)) == len(members):
                built = min(sum(tab.masses([parts])[3]), built)
            if i in call["newton"]:
                exits["newton"] += 1
            else:
                exits["build" if value == built else "start"] += 1
    assert min(exits.values()) >= 1, exits


def test_a_later_group_meets_the_certified_bounds_of_earlier_ones(monkeypatch):
    # This report's families fall into three live-cell groups.  Every group
    # is set up and started before any takes a Newton step, and each is
    # checked again before its steps.  A bipartition of the second group is
    # started, not done there, and then dominated by a lower bound that the
    # first group's steps certify, so it never takes a Newton step.
    started, stepped = [], []
    starts, lockstep = union_info._starts, union_info._lockstep

    def recording_starts(tab, stack, brackets, groups):
        rows, start = starts(tab, stack, brackets, groups)
        started.append([stack.group[k][0] for k in rows])
        return rows, start

    def recording_lockstep(stack, rows, start, ids, hy, brackets):
        stepped.append(list(ids))
        lockstep(stack, rows, start, ids, hy, brackets)

    d = make_random(11, 3, 2, 0.3)
    expected = _report_every_family_solved(monkeypatch, d, UnionMeasure())
    monkeypatch.setattr(union_info, "_starts", recording_starts)
    monkeypatch.setattr(union_info, "_lockstep", recording_lockstep)
    report = full_report(d)
    assert list(map(len, started)) == [2, 4, 2] and list(map(len, stepped)) == [2, 3, 1]
    assert stepped[0] == started[0] and set(stepped[1]) < set(started[1])
    assert report.values() == pytest.approx(expected.values(), abs=1e-12)
    assert _witnesses(report) == _witnesses(expected)


def test_scan_families_are_built_once_per_n_and_shared_read_only():
    names = irreducibility._MEASURES
    plan = irreducibility._scan_plan(4, names)
    assert irreducibility._scan_plan(4, names) is plan
    families, ids, witnesses = plan
    with pytest.raises(TypeError):
        ids[0] = ()
    for scan, found in zip(ids, witnesses):
        assert isinstance(found, tuple) and isinstance(scan, tuple)
    # The plan's families are the four scans' distinct families in first-seen
    # order, and each scan's indices give back its enumeration.
    for n in range(2, 6):
        families, ids, witnesses = irreducibility._scan_plan(n, names)
        scans = {
            "ibe": (PartFamily(tuple(PartSpec((i,)) for i in range(n))),),
            "ibdp": tuple(b.family() for b in all_bipartitions(n)),
            "ib2p": tuple(almost_pairs(n)),
            "ibap": (PartFamily(tuple(almosts(n))),),
        }
        assert isinstance(families, tuple) and len(set(families)) == len(families)
        assert families == tuple(dict.fromkeys(f.parts for s in scans.values() for f in s))
        for scanned, at in zip(scans.values(), ids):
            assert tuple(PartFamily(families[i]) for i in at) == scanned
        assert witnesses[names.index("ibdp")] == tuple(all_bipartitions(n))
        assert witnesses[names.index("ib2p")] == tuple(almost_pairs(n))
        # A plan of fewer measures enumerates only their scans, in the order
        # the names give.
        for some in [("ib2p",), ("ibap", "ibe"), ("ibdp", "ib2p")]:
            part, at, _ = irreducibility._scan_plan(n, some)
            assert part == tuple(dict.fromkeys(f.parts for name in some for f in scans[name]))
            assert [tuple(PartFamily(part[i]) for i in a) for a in at] == [scans[k] for k in some]
    # At n = 2 all four scans are one family.
    families, ids, _ = irreducibility._scan_plan(2, names)
    assert len(families) == 1 and all(scan == (0,) for scan in ids)
