import hashlib
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pidirr.corpus import EXAMPLE_NAMES, load_example, verify_corpus, xor_circuit
from pidirr.irreducibility import full_report
from pidirr.union_info import MeasureKind, UnionMeasure

from conftest import reordered

BRACKETS = Path(__file__).resolve().parents[1] / "bench" / "brackets.json"


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


# The paper's (whole_mi, ibe, ibdp, ib2p, ibap) of each circuit, in bits,
# typed from the paper and not derived from the circuits' hypergraphs.
PAPER_ROWS = {
    "xor": (1.0, 1.0, 1.0, 1.0, 1.0),
    "xor_unique": (2.0, 1.0, 0.0, 0.0, 0.0),
    "double_xor": (2.0, 2.0, 1.0, 0.0, 0.0),
    "triple_xor": (3.0, 3.0, 2.0, 1.0, 0.0),
    "parity": (1.0, 1.0, 1.0, 1.0, 1.0),
}


@pytest.mark.parametrize("name", PAPER_ROWS)
def test_expected_rows_are_the_papers(name):
    assert load_example(name).expected == PAPER_ROWS[name]


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_corpus_tsv_bytes_match_the_benchmark_digests(name):
    # The benchmark stores the SHA-256 of each circuit's TSV; a changed
    # symbol, row order or mass rendering fails here, not only in the
    # benchmark's stale-input check.
    stored = json.loads(BRACKETS.read_text())["workloads"]["cli-corpus"]
    [digest] = [entry["digest"] for entry in stored if entry["id"] == name]
    tsv = load_example(name).distribution.to_tsv()
    assert hashlib.sha256(tsv.encode()).hexdigest() == digest


def test_xor_circuit_rejects_bad_edges():
    for edges in ([], [()], [(0, 3)], [(-1,)]):
        with pytest.raises(ValueError):
            xor_circuit(3, edges)


@st.composite
def _hypergraphs(draw):
    """n inputs and up to three edges, at most 9 fresh and target bits in
    all, so a circuit has at most 512 cells."""
    n = draw(st.integers(2, 5))
    m = draw(st.integers(1, 3))
    size = {1: 5, 2: 3, 3: 2}[m]
    edges = [draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=size)) for _ in range(m)]
    return n, edges, draw(st.permutations(range(n))), draw(st.integers(0, n - 1))


@settings(max_examples=150)
@given(_hypergraphs())
def test_xor_circuit_reports_match_their_closed_form(graph):
    # The certified report of a random circuit, with its predictors permuted
    # and the target moved off the end, is the closed form within the
    # tolerance.
    n, edges, order, at = graph
    circuit = xor_circuit(n, edges)
    d = circuit.distribution
    columns = list(order)
    columns.insert(at, n)
    permuted = reordered(d, columns)
    assert permuted.target_index == at < n
    measure = UnionMeasure()
    report = full_report(permuted, measure)
    assert report.values() == pytest.approx(circuit.expected, abs=measure.tolerance)
