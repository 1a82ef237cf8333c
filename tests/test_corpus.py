import math

import pytest

from pidirr.corpus import EXAMPLE_NAMES, load_example, verify_corpus
from pidirr.union_info import MeasureKind, UnionMeasure


def test_example_names_and_sizes():
    sizes = {"xor": 4, "xor_unique": 8, "double_xor": 16, "triple_xor": 64, "parity": 8}
    for name in EXAMPLE_NAMES:
        ex = load_example(name)
        assert len(ex.distribution.pmf) == sizes[name]
        mass = 1.0 / sizes[name]
        assert all(math.isclose(p, mass) for p in ex.distribution.pmf.values())


def test_unknown_example_rejected():
    with pytest.raises(ValueError):
        load_example("nope")


def test_xor_truth_table():
    d = load_example("xor").distribution
    for (a, b, y) in d.pmf:
        assert int(y) == int(a) ^ int(b)


def test_xor_unique_structure():
    d = load_example("xor_unique").distribution
    for (a, b, c, y) in d.pmf:
        assert y == f"{int(a) ^ int(b)}{c}"


def test_double_xor_structure():
    # Left target bit: X1 xor X2's high bit; right: X2's low bit xor X3.
    d = load_example("double_xor").distribution
    for (a, b, c, y) in d.pmf:
        left = int(a) ^ int(b[0])
        right = int(b[1]) ^ int(c)
        assert y[0] == ("L" if left else "l")
        assert y[1] == ("R" if right else "r")


def test_triple_xor_structure():
    # Triangle of XORs over six distinct input bits: each target bit reads
    # one fresh bit from each of two inputs.
    d = load_example("triple_xor").distribution
    for (a, b, c, y) in d.pmf:
        assert int(y[0]) == int(a[0]) ^ int(b[0])
        assert int(y[1]) == int(a[1]) ^ int(c[0])
        assert int(y[2]) == int(b[1]) ^ int(c[1])


def test_parity_structure():
    d = load_example("parity").distribution
    for (a, b, c, y) in d.pmf:
        assert int(y) == int(a) ^ int(b) ^ int(c)


def test_target_entropies():
    expected = {"xor": 1.0, "xor_unique": 2.0, "double_xor": 2.0, "triple_xor": 3.0, "parity": 1.0}
    for name, h in expected.items():
        d = load_example(name).distribution
        assert math.isclose(d.entropy(d.target_selector()), h, abs_tol=1e-12)


def test_per_part_mi_spot_checks():
    xu = load_example("xor_unique").distribution
    assert math.isclose(xu.mutual_information(xu.selector("X3"), xu.selector("Y")), 1.0)
    assert abs(xu.mutual_information(xu.selector("X1"), xu.selector("Y"))) <= 1e-12
    assert abs(xu.mutual_information(xu.selector("X2"), xu.selector("Y"))) <= 1e-12
    tx = load_example("triple_xor").distribution
    for name in ("X1", "X2", "X3"):
        assert abs(tx.mutual_information(tx.selector(name), tx.selector("Y"))) <= 1e-12


@pytest.mark.parametrize("tol", [1e-6, 1e-12])
def test_verify_corpus_minsyn_all_pass(tol):
    # A tight tolerance makes the solver's stop stricter; the circuits'
    # values must still match within it.
    report = verify_corpus(UnionMeasure(tolerance=tol))
    assert report.tolerance == tol
    assert report.all_ok
    assert not report.mismatches
    payload = report.to_dict()
    assert payload["all_ok"] is True
    assert set(payload["rows"]) == set(EXAMPLE_NAMES)


def test_verify_corpus_maxmi_expected_failures():
    # The single-part-maximum baseline satisfies the property list but not
    # the reference values: xor still passes (every part conveys nothing),
    # xor_unique must mismatch on the partition measure.
    report = verify_corpus(UnionMeasure(kind=MeasureKind.MAX_SINGLE_MI))
    by_name = {r.name: r for r in report.rows}
    assert by_name["xor"].ok(report.tolerance)
    xu = by_name["xor_unique"]
    assert not xu.ok(report.tolerance)
    assert math.isclose(xu.report.ibdp, 1.0, abs_tol=1e-9)
    assert xu in report.mismatches
