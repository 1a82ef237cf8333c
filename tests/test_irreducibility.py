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
from pidirr.union_info import MeasureKind, UnionMeasure, union_information

from conftest import make_random

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
