import gc
import math
import os
import subprocess
import sys
import warnings
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pidirr.distributions import DistributionError, JointDistribution, VariableSelector
from pidirr.irreducibility import full_report
from pidirr.parts import PartFamily, PartSpec, all_bipartitions, almost_pairs, almosts
from pidirr import axioms, union_info
from pidirr.axioms import AxiomResult, check_axioms
from pidirr.oracle import brute_force_union_oracle
from pidirr.union_info import (
    MarginalPolytope,
    MeasureKind,
    UnionConvergenceError,
    UnionMeasure,
    union_information,
)

from conftest import (
    Calls, empty_support_face, fail_support_lp, make_random, make_sparse, zero_starts)

MINSYN = UnionMeasure()
MAXMI = UnionMeasure(kind=MeasureKind.MAX_SINGLE_MI)


def singletons(n):
    return PartFamily(tuple(PartSpec((i,)) for i in range(n)))


def _brackets(d, families, m):
    """Each family's ``(value, lower)`` bracket, from one solve over ``d``."""
    return union_info._min_synergy_brackets(union_info._Tables(d), families, m)


def _set_up(d, families):
    """What the solver hands ``_lockstep`` for the families, with no Newton
    step taken: per live-cell group that steps, its rows ``(i, cells, q,
    basis, xidx)``, each a family's index, cells, start, null basis and
    x-groups; and each family's ``(value, lower)`` bracket at its start."""
    batches = []

    def recording_lockstep(stack, rows, start, ids, hy, brackets):
        s = stack.structure
        batches.append([
            (i, s.cells[k], qk, s.basis[k, :, : s.width[k]], s.xidx[k])
            for i, k, qk in zip(ids, rows, start[0])
        ])

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(union_info, "_lockstep", recording_lockstep)
        brackets = _brackets(d, families, MINSYN)
    return batches, brackets


def part_mi(d, part):
    """``I(part; Y)`` in bits from the distribution's own entropies, which
    share no code with the solver."""
    sel = VariableSelector(d.predictor_indices[i] for i in part.member_indices)
    return d.mutual_information(sel, d.target_selector())


def whole_mi(d):
    """The whole's mutual information with the target, as :func:`part_mi`."""
    return d.mutual_information(d.whole_selector(), d.target_selector())


def _live(d, parts):
    """The live cells of ``parts`` on ``d``, as the solver finds them."""
    tab = union_info._Tables(d)
    return np.flatnonzero(tab.masses([parts])[2][0])


def test_measure_validation():
    for bad in (0.0, -1e-6, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="tolerance"):
            UnionMeasure(tolerance=bad)
    with pytest.raises(TypeError, match="tolerance"):
        UnionMeasure(tolerance=True)
    # A whole number of bits is stored, and printed, as the float it means.
    loose = UnionMeasure(tolerance=1)
    assert type(loose.tolerance) is float and loose == UnionMeasure(tolerance=1.0)
    assert loose.settings_dict() == {"measure": "minsyn", "tolerance": 1.0}
    assert MeasureKind("minsyn") is MeasureKind.MIN_SYNERGY
    assert MeasureKind("maxmi") is MeasureKind.MAX_SINGLE_MI
    with pytest.raises(ValueError):
        MeasureKind("imin")


def test_measure_kind_is_stored_as_its_member(xor_unique):
    # A kind given by its value is the member itself, so the solver takes
    # the measure asked for and the report names it.
    by_value = UnionMeasure(kind="maxmi")
    assert by_value.kind is MeasureKind.MAX_SINGLE_MI
    assert by_value == MAXMI
    assert UnionMeasure(kind="minsyn") == MINSYN
    report = full_report(xor_unique, by_value)
    assert report.values() == full_report(xor_unique, MAXMI).values() == (2.0, 1.0, 1.0, 1.0, 1.0)
    assert report.to_dict()["settings"]["measure"] == "maxmi"
    with pytest.raises(ValueError):
        UnionMeasure(kind="bogus")


def test_xor_separate_elements_convey_nothing(xor):
    assert union_information(MINSYN, xor, singletons(2)) <= 1e-9


def test_whole_as_single_part_is_whole_mi(xor_unique):
    fam = PartFamily((PartSpec((0, 1, 2)),))
    v = union_information(MINSYN, xor_unique, fam)
    assert math.isclose(v, whole_mi(xor_unique), abs_tol=1e-9)
    v2 = union_information(MAXMI, xor_unique, fam)
    assert math.isclose(v2, whole_mi(xor_unique), abs_tol=1e-12)


def test_xor_unique_bipartition_accounts_for_everything(xor_unique):
    fam = PartFamily((PartSpec((0, 1)), PartSpec((2,))))
    assert math.isclose(union_information(MINSYN, xor_unique, fam), 2.0, abs_tol=1e-7)


def test_double_xor_pair_accounts_for_everything(double_xor):
    fam = PartFamily((PartSpec((0, 1)), PartSpec((1, 2))))
    assert math.isclose(union_information(MINSYN, double_xor, fam), 2.0, abs_tol=1e-7)


def test_parity_almosts_convey_nothing(parity):
    fam = PartFamily(tuple(almosts(3)))
    assert union_information(MINSYN, parity, fam) <= 1e-9


def test_maxmi_on_xor_unique_bipartition(xor_unique):
    fam = PartFamily((PartSpec((0, 1)), PartSpec((2,))))
    assert math.isclose(union_information(MAXMI, xor_unique, fam), 1.0, abs_tol=1e-12)


def test_retargeting_by_name(xor):
    # Using X1 as the target of the XOR table: X2 and Y jointly determine it.
    retargeted = JointDistribution(xor.variables, xor.pmf, target="X1")
    v = union_information(MINSYN, retargeted, singletons(2))
    assert v <= 1e-9


def test_value_between_bounds_on_randoms():
    for seed in range(8):
        d = make_random(seed, n_predictors=3)
        fam = singletons(3)
        v = union_information(MINSYN, d, fam)
        lb = max(part_mi(d, p) for p in fam.parts)
        ub = whole_mi(d)
        assert lb - 1e-6 <= v <= ub + 1e-6


def test_adding_parts_never_decreases_value():
    for seed in range(6):
        d = make_random(seed + 50, n_predictors=3)
        base = singletons(3)
        grown = PartFamily(base.parts + (PartSpec((0, 1)),))
        v0 = union_information(MINSYN, d, base)
        v1 = union_information(MINSYN, d, grown)
        assert v1 >= v0 - 1e-6


def test_determinism_bit_identical():
    d = make_random(7, n_predictors=3)
    fam = almost_pairs(3)[0]
    a = _brackets(d, [fam.parts], MINSYN)[0]
    b = _brackets(d, [fam.parts], MINSYN)[0]
    assert a == b


def test_unclosed_gap_is_a_typed_error(monkeypatch):
    d = make_random(400, n_predictors=3)
    # Within 1e-10 bits above the minimum.
    tight = UnionMeasure(tolerance=1e-10)
    optimum, _ = _brackets(d, [singletons(3).parts], tight)[0]
    monkeypatch.setattr(union_info, "_MAX_NEWTON_STEPS", 2)
    with pytest.raises(UnionConvergenceError) as err:
        _brackets(d, [singletons(3).parts], MINSYN)[0]
    lower = max(part_mi(d, p) for p in singletons(3).parts)
    assert err.value.gap > 0.0
    assert err.value.value >= lower
    assert math.isfinite(err.value.gap)
    assert err.value.value - err.value.gap <= optimum


def test_unclosed_gap_in_a_batch_is_a_typed_error(monkeypatch):
    # A report steps its families in lockstep; when the rows run out of
    # steps, the whole report fails with the widest bracket of the rows
    # still stepping.
    d = make_random(401, n_predictors=3)
    stepping = []
    lockstep = union_info._lockstep

    def recording_lockstep(stack, rows, start, ids, hy, brackets):
        try:
            lockstep(stack, rows, start, ids, hy, brackets)
        except UnionConvergenceError:
            stepping.extend(
                (brackets.upper[i] - brackets.lower[i], brackets.upper[i])
                for i, done in zip(ids, brackets.done(ids)) if not done
            )
            raise

    monkeypatch.setattr(union_info, "_MAX_NEWTON_STEPS", 2)
    monkeypatch.setattr(union_info, "_lockstep", recording_lockstep)
    with pytest.raises(UnionConvergenceError) as err:
        full_report(d)
    assert 0.0 < err.value.gap < math.inf
    assert math.isfinite(err.value.value)
    assert len(stepping) > 1
    assert (err.value.gap, err.value.value) == max(stepping)


def test_report_solves_each_family_once(monkeypatch):
    solves = Calls(monkeypatch, union_info, "_min_synergy_brackets")
    d = make_random(402, n_predictors=3)
    first = full_report(d)
    calls = [list(families) for (_, families, *_), _ in solves.calls]
    assert len(calls) == 1 and len(calls[0]) == 8
    assert len(set(map(tuple, calls[0]))) == 8
    # A second report on an equal distribution solves its families again, to
    # the same bits.
    again = full_report(JointDistribution(d.variables, dict(d.pmf)))
    calls = [list(families) for (_, families, *_), _ in solves.calls]
    assert len(calls) == 2 and calls[1] == calls[0]
    assert again.values() == first.values()


def test_families_a_report_dominated_are_solved_when_asked_for(monkeypatch):
    # A report leaves a dominated family at an early-exit upper bound;
    # union_information solves it to the tolerance, as it does alone.
    d = make_random(400, n_predictors=3)
    with monkeypatch.context() as patch:
        solves = Calls(patch, union_info, "_min_synergy_brackets")
        full_report(d)
    reported = [pair for (_, families, *_), out in solves.calls for pair in zip(families, out)]
    dominated = {parts: b for parts, b in reported if b[0] - b[1] > MINSYN.tolerance}
    assert dominated
    for parts, (upper, _) in dominated.items():
        value = union_information(MINSYN, d, PartFamily(parts))
        alone, lower = _brackets(d, [parts], MINSYN)[0]
        assert lower <= value <= lower + MINSYN.tolerance
        assert value == alone != upper


def test_values_depend_on_their_arguments_alone():
    # Nothing a call solves is kept for the next.  On this input a report's
    # batch solve and a family solved alone differ in the last bits, and
    # each call gives its own whatever ran before it, as on a renamed copy
    # that nothing has seen.
    d = make_random(0, 3)
    family = PartFamily(tuple(almosts(3)))
    full_report(d)
    cold = _renamed(d, "_cold")
    assert union_information(MINSYN, d, family) == union_information(MINSYN, cold, family)
    warm = _renamed(d, "_warm")
    for fam in _report_families(3):
        union_information(MINSYN, warm, fam)
    assert _report_bits(warm) == _report_bits(_renamed(d, "_fresh"))


def test_polytope_base_is_feasible(triple_xor):
    poly = MarginalPolytope(triple_xor, tuple(almosts(3)))
    assert np.abs(poly.A @ poly.x0 - poly.b).max() <= 1e-12
    assert len(poly.cells) == 64  # three pinned target bits leave one y per x
    lower = max(part_mi(triple_xor, p) for p in almosts(3))
    assert whole_mi(triple_xor) >= lower


def test_polytope_rejects_empty_parts(xor):
    with pytest.raises(ValueError):
        MarginalPolytope(xor, ())


def test_union_information_rejects_a_part_out_of_range(xor):
    with pytest.raises(ValueError, match="out of range"):
        union_information(MINSYN, xor, [PartSpec((0,)), PartSpec((2,))])
    # The whole is a family of its own: a part may hold every predictor.
    assert union_information(MINSYN, xor, [PartSpec((0, 1))]) == pytest.approx(1.0)


def test_oracle_matches_on_known_cases(xor, double_xor):
    v = brute_force_union_oracle(xor, singletons(2))
    assert abs(v - 0.0) <= 1e-4
    fam = PartFamily((PartSpec((0, 1)), PartSpec((1, 2))))
    assert abs(brute_force_union_oracle(double_xor, fam) - 2.0) <= 1e-4
    whole = PartFamily((PartSpec((0, 1, 2)),))
    assert abs(
        brute_force_union_oracle(double_xor, whole)
        - whole_mi(double_xor)
    ) <= 1e-9


def test_oracle_guard_rejects_large_support():
    rng = np.random.default_rng(0)
    big = make_random(3, n_predictors=3, alphabet_size=3)  # 81 outcomes
    assert len(big.pmf) > 64
    with pytest.raises(ValueError):
        brute_force_union_oracle(big, singletons(3))


def test_oracle_takes_nothing_from_the_solver_module():
    # The oracle checks the solver's values, so none of its functions or
    # constants may be the solver module's own.
    from pidirr import oracle

    solver = {
        id(v) for name, v in vars(union_info).items()
        if not name.startswith("__") and not isinstance(v, type(union_info))
        and getattr(v, "__module__", union_info.__name__) == union_info.__name__
    }
    assert solver
    shared = [
        name for name, v in vars(oracle).items() if not name.startswith("__")
        and (id(v) in solver or getattr(v, "__module__", None) == union_info.__name__)
    ]
    assert not shared


def test_oracle_agreement_spot_checks():
    for seed in (11, 21, 31):
        d = make_random(seed, n_predictors=2)
        fam = singletons(2)
        v = union_information(MINSYN, d, fam)
        o = brute_force_union_oracle(d, fam, seed=seed)
        assert abs(v - o) <= 1e-4


@pytest.mark.parametrize("measure", [MINSYN, MAXMI], ids=["minsyn", "maxmi"])
def test_axioms_pass_on_small_suite(measure, xor, xor_unique):
    suite = [
        (xor, singletons(2)),
        (xor_unique, singletons(3)),
        (xor_unique, PartFamily((PartSpec((0, 1)), PartSpec((2,))))),
        (make_random(5, n_predictors=3), singletons(3)),
    ]
    report = check_axioms(measure, suite)
    assert [r.axiom for r in report.results] == ["GP", "Eq", "M0", "S0", "SR", "UB"]
    for result in report.results:
        assert result.tolerance == measure.tolerance
        assert result.passed, (
            f"{result.axiom} violated by {result.worst_violation} in {result.worst_case}"
        )
    assert report.all_passed
    payload = report.to_dict()
    assert payload["all_passed"] is True
    assert payload["axioms"]["SR"]["cases"] >= 4


def test_axiom_worst_case_is_the_earliest_within_the_tolerance_of_the_worst(xor_unique):
    # Violations within the tolerance of the worst are ties, as a report's
    # witnesses are: the label names the earliest of them, not the argmax of
    # rounding noise.
    cases = ((0.0, "a"), (3e-12, "b"), (0.0, "c"))
    result = AxiomResult("M0", 1e-6, cases)
    assert (result.worst_violation, result.worst_case) == (3e-12, "a")
    result = AxiomResult("M0", 1e-6, cases + ((2e-6, "d"), (2.5e-6, "e")))
    assert (result.worst_violation, result.worst_case) == (2.5e-6, "d")
    assert len(result.cases) == 5 and AxiomResult("UB", 1e-6, ()).worst_case == ""
    suite = [(xor_unique, singletons(3)), (make_random(5, n_predictors=3), singletons(3))]
    axioms = check_axioms(MINSYN, suite).to_dict()["axioms"]
    assert {a: r["worst_case"].split(":")[0] for a, r in axioms.items()} == dict.fromkeys(
        ("GP", "Eq", "M0", "S0", "SR", "UB"), "item 0")


def _axiom_suite(xor, xor_unique):
    return [
        (xor, singletons(2)),
        (xor_unique, PartFamily((PartSpec((0, 1)), PartSpec((2,))))),
        (make_random(5, n_predictors=3), almost_pairs(3)[0]),
    ]


def test_single_part_check_catches_shifted_part_informations(monkeypatch, xor, xor_unique):
    # SR takes its reference from the distribution's own entropies, not from
    # the solver's tables, so a solver whose part informations are 1e-3 bits
    # off fails it.
    masses = union_info._Tables.masses

    def shifted(self, families):
        layout, mass, live, mi = masses(self, families)
        return layout, mass, live, [v + 1e-3 for v in mi]

    monkeypatch.setattr(union_info._Tables, "masses", shifted)
    for m in (MINSYN, MAXMI):
        results = check_axioms(m, _axiom_suite(xor, xor_unique)).results
        [result] = (r for r in results if r.axiom == "SR")
        assert result.worst_violation == pytest.approx(1e-3, abs=1e-9)
        assert not result.passed


def test_order_check_catches_an_order_dependent_solver(monkeypatch, xor, xor_unique):
    # S0 solves each family again with its parts in reverse order, so a
    # solver whose value depends on that order fails it.
    solve = axioms._solve

    def order_dependent(m, d, families, scans=()):
        whole, unions = solve(m, d, families, scans)
        return whole, [u + 1e-3 * (list(parts) != sorted(parts))
                       for u, parts in zip(unions, families)]

    monkeypatch.setattr(axioms, "_solve", order_dependent)
    for m in (MINSYN, MAXMI):
        report = check_axioms(m, _axiom_suite(xor, xor_unique))
        [result] = (r for r in report.results if r.axiom == "S0")
        assert result.worst_violation == pytest.approx(1e-3, abs=1e-9)
        assert result.worst_case == "item 0: reorder"
        assert not report.all_passed


def test_a_distribution_without_a_target_is_a_typed_error(xor):
    # Every variable counts as a predictor here, so a family over all of them
    # passes validation; the error comes from the missing target.
    untargeted = JointDistribution(xor.variables, xor.pmf, target=None)
    for fam in (singletons(2), PartFamily((PartSpec((0, 1, 2)),))):
        for m in (MINSYN, MAXMI):
            with pytest.raises(DistributionError, match="target"):
                union_information(m, untargeted, fam)
    for m in (MINSYN, MAXMI):
        with pytest.raises(DistributionError, match="target"):
            full_report(untargeted, m)


def test_constant_target_gives_zero(xor_unique):
    const = xor_unique.with_constant_target()
    assert union_information(MINSYN, const, singletons(3)) == 0.0
    assert union_information(MAXMI, const, singletons(3)) == 0.0


def test_family_accepts_iterable(xor):
    v = union_information(MINSYN, xor, [PartSpec((0,)), PartSpec((1,))])
    assert v <= 1e-9


# Certified brackets (dual lower bound, oracle upper bound) from
# bench/brackets.json; each is narrower than 2e-10 bits.
@pytest.mark.parametrize(
    "seed, certified",
    [(100, 0.2548204452), (101, 0.5526604881), (107, 0.2406359708), (109, 0.3866663339)],
)
def test_ternary_structured_zeros_match_certified_values(seed, certified):
    d = make_random(seed, 2, 3, 0.3)
    assert abs(union_information(MINSYN, d, singletons(2)) - certified) <= 1e-6
    tight = UnionMeasure(tolerance=1e-10)
    assert abs(union_information(tight, d, singletons(2)) - certified) <= 1e-9


def test_ternary_almosts_with_forced_zero_cells():
    # Some live cells are zero at every feasible point here, so the solver
    # has to reduce to the face the feasible set lies on.  The oracle gives
    # 0.4132153698 and a dual bound 0.4132153678.
    d = make_random(102, 3, 3, 0.3)
    value = union_information(MINSYN, d, PartFamily(tuple(almosts(3))))
    assert abs(value - 0.4132153688) <= 1e-6


def _report_families(n):
    return (
        [singletons(n)]
        + [b.family() for b in all_bipartitions(n)]
        + almost_pairs(n)
        + [PartFamily(tuple(almosts(n)))]
    )


@pytest.mark.parametrize(
    "seed, n, zero_fraction, families",
    [
        (3, 3, 0.4, _report_families(3)),
        (10, 3, 0.4, _report_families(3)),
        (0, 4, 0.3, [PartFamily((PartSpec((0, 1, 2)), PartSpec((1, 2, 3))))]),
        (0, 4, 0.1, [PartFamily(tuple(almosts(4)))]),
        (207, 3, 0.2, [PartFamily(tuple(almosts(3)))]),
    ],
)
def test_binary_zeros_between_part_bound_and_oracle(seed, n, zero_fraction, families):
    # Inputs with single-cell x-groups, where a cancelling Hessian assembly
    # made the Newton system singular.  In the last two, the Almosts' maximum
    # entropy point has a tiny cell, and the one-sweep start, which leaves a
    # cell negative, is pulled from the base pmf.
    d = make_random(seed, n, 2, zero_fraction)
    for fam in families:
        value = union_information(MINSYN, d, fam)
        lower = max(part_mi(d, p) for p in fam.parts)
        assert value >= lower - 1e-12
        assert value <= brute_force_union_oracle(d, fam) + 1e-7
        certified = _brackets(d, [fam.parts], MINSYN)[0][1]
        assert certified <= value <= certified + MINSYN.tolerance


def test_default_path_never_imports_scipy_optimize():
    # scipy.optimize costs about 0.4 s and 47 MB at import; only the
    # forced-zero face search needs it, and the corpus and binary
    # full-support inputs never reach that.
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from pidirr import EXAMPLE_NAMES, full_report, load_example, random_distribution\n"
        "for name in EXAMPLE_NAMES:\n"
        "    full_report(load_example(name).distribution)\n"
        "full_report(random_distribution(np.random.default_rng(400), n_predictors=3))\n"
        "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize was imported'\n"
    )
    src = str(Path(union_info.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr


def test_import_loads_only_the_report_path():
    # A report needs distributions, parts, union_info and irreducibility;
    # the checker, the corpus, the lattice and the oracle load on first use,
    # and the value types are plain classes, not dataclasses.
    code = (
        "import sys\n"
        "import pidirr\n"
        "unwanted = ('pidirr.corpus', 'pidirr.lattice', 'pidirr.axioms', 'pidirr.oracle',\n"
        "            'fractions', 'scipy', 'dataclasses')\n"
        "loaded = [name for name in unwanted if name in sys.modules]\n"
        "assert not loaded, f'import pidirr loaded {loaded}'\n"
    )
    src = str(Path(union_info.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr


@settings(max_examples=30)
# Mixed live-cell groups: in the first, the 13-cell group holds one
# full-face row and one that goes to the support LP; in the second, the
# 78-cell group holds three full-face rows and one support-LP row.
@example(seed=1, n=3, alphabet_size=2, zero_fraction=0.3)
@example(seed=102, n=3, alphabet_size=3, zero_fraction=0.3)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 4),
    alphabet_size=st.integers(2, 3),
    zero_fraction=st.floats(0.0, 0.5),
)
def test_every_value_is_certified(seed, n, alphabet_size, zero_fraction):
    # Each family alone, and all of a report's families in one lockstep
    # batch: both certified, and equal within the tolerance.
    d = make_random(seed, n, alphabet_size if n < 4 else 2, zero_fraction)
    whole = whole_mi(d)
    families = _report_families(n)
    batch = _brackets(d, [fam.parts for fam in families], MINSYN)
    for fam, (batch_value, batch_lower) in zip(families, batch):
        value, lower = _brackets(d, [fam.parts], MINSYN)[0]
        assert lower <= value <= lower + MINSYN.tolerance
        assert value >= max(part_mi(d, p) for p in fam.parts) - 1e-12
        assert value <= whole + 1e-12
        assert batch_lower <= batch_value <= batch_lower + MINSYN.tolerance
        assert abs(batch_value - value) <= MINSYN.tolerance


# A fixed 1e-11-bit stop at the part-MI bound left {X1, X2X3} of the first
# input 3.9e-12 bits above its certified lower bound at tolerance 1e-12, and
# ib2p of the second 3.4e-12 bits above its ibdp, so its report raised
# OrderingViolationError.  In each of the next two a row's line search
# stalled with mu at its floor, a hair above a tenth of the tolerance, until
# the step limit; the fourth now stops there, its gap within the tolerance.
# The last stalled at gap 5.6e-12 bits while each stage ran until a Newton
# decrement of a tenth of mu; with the tangent predictor after each cut it
# certifies.
@pytest.mark.parametrize("args, tolerance", [
    ((0, 3), 1e-12),
    ((114889, 3, 2, 0.3), 1e-12),
    ((1010, 3, 3, 0.4), 1e-10),
    ((1851, 4, 2, 0.5), 1e-10),
    ((16, 3, 3, 0.0), 1e-12),
])
def test_report_families_are_certified_at_tight_tolerances(args, tolerance):
    d = make_random(*args)
    measure = UnionMeasure(tolerance=tolerance)
    full_report(d, measure)
    families = [fam.parts for fam in _report_families(args[1])]
    for value, lower in _brackets(d, families, measure):
        assert lower <= value <= lower + tolerance


@pytest.mark.parametrize("seed, alphabet_size, emptied", [(102, 3, False), (243, 3, True)])
def test_facial_reduction_raises_no_warning(seed, alphabet_size, emptied):
    # Both inputs take the facial-reduction path into the lockstep solve, and
    # on the second the face holds no cell of some x-group of the polytope.
    d = make_random(seed, 3, alphabet_size, 0.3)
    fam = PartFamily(tuple(almosts(3)))
    poly = MarginalPolytope(d, fam.parts)
    [[(_, cells, *_, xidx)]], _ = _set_up(d, [fam.parts])
    face = np.isin(_live(d, fam.parts), cells)
    assert not face.all() and face.sum() == len(cells)
    assert (np.bincount(poly.xidx[face], minlength=poly.nx) == 0).any() == emptied
    # The face's row numbers only the x-groups it holds.
    assert (np.bincount(xidx) > 0).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, certified = _brackets(d, [fam.parts], MINSYN)[0]
    assert certified <= value <= certified + MINSYN.tolerance


def test_face_without_free_direction_ends_before_the_solve(monkeypatch):
    # The support LP leaves this input's Almosts a face on which the base pmf
    # is the only feasible point, so the family ends there, at the whole's
    # mutual information, without a Newton step.
    def no_solve(*args):
        raise AssertionError("a face with no free direction entered the lockstep solve")

    monkeypatch.setattr(union_info, "_lockstep", no_solve)
    lps = Calls(monkeypatch, union_info, "_maximal_support")
    d = make_random(2, 3, 2, 0.3)
    [(value, lower)] = _brackets(d, [tuple(almosts(3))], MINSYN)
    assert len(lps.calls) == 1
    assert value == lower == union_info._Tables(d).whole_mi
    assert abs(value - 0.4097012568427534) <= 1e-12


@pytest.mark.parametrize("seed, pulled", [(400, True), (409, True), (401, False)])
def test_full_support_start_needs_no_face_search(monkeypatch, seed, pulled):
    # A strictly positive base pmf is itself a strictly positive feasible
    # point, so the face is every live cell and no support LP runs.  The start
    # is one projected IPF sweep; on the first two inputs that sweep leaves
    # the positive orthant for the Almosts, and the start is pulled from the
    # base pmf towards it.
    def no_face_search(a, b):
        raise AssertionError("support LP run on a full-support input")

    d = make_random(seed, 3)
    fam = PartFamily(tuple(almosts(3)))
    poly = MarginalPolytope(d, fam.parts)
    assert poly.x0.min() > 0.0
    monkeypatch.setattr(union_info, "_maximal_support", no_face_search)
    sweeps = Calls(monkeypatch, union_info, "_ipf_sweep")
    structures = Calls(monkeypatch, union_info, "_Structure")
    # The polytope above cached its structure; a cold set-up builds it again.
    union_info._structures.clear()
    [[(_, cells, q, basis, *_)]], _ = _set_up(d, [fam.parts])
    # No basis of a face is computed: the one structure built is on the
    # polytope's cells, and the start's basis is the polytope's.
    assert len(cells) == len(poly.cells) and len(structures.calls) == 1
    assert basis.shape == poly.null_basis.shape
    projector = poly.null_basis @ poly.null_basis.T
    assert np.abs(basis @ basis.T - projector).max() <= 1e-12
    assert q.min() > 0.0
    assert np.abs(poly.A @ q - poly.b).max() <= 1e-12
    [[start_sweep]] = sweeps.results
    sweep = poly.x0 + poly.null_basis @ (poly.null_basis.T @ (start_sweep - poly.x0))
    assert (not sweep.min() > 0.0) == pulled
    value, lower = _brackets(d, [fam.parts], MINSYN)[0]
    assert lower <= value <= lower + MINSYN.tolerance


@pytest.mark.parametrize(
    "seed, zero_fraction, parts, face, expected",
    [
        (0, 0.1, None, None, 0.3834888361),
        (0, 0.3, ((0,), (1, 2, 3)), None, 0.3498739171),
        (955071336, 0.052, None, "full", 0.1689744707),
        (1, 0.1, None, "smaller", 0.2810894763),
    ],
    ids=["no-lp", "proof-near-zero", "lp-full-face", "lp-smaller-face"],
)
def test_zero_cell_start_takes_one_sweep_per_face(
    monkeypatch, seed, zero_fraction, parts, face, expected
):
    # Almosts (or the bipartition given) on inputs with zero cells in the
    # base pmf.  On the first two the projected start sweep exceeds, on every
    # such cell, its misfit's bound on its distance to the polytope, which
    # proves the face full, so no support LP runs.  On the bipartition the
    # sweep is below 1e-4 of its largest cell there, yet the proof holds.  On
    # the other two the proof fails, and the LP keeps every live cell or
    # drops one.  The expected values are certified at tolerance 1e-10.
    faces = []
    support = union_info._maximal_support

    def checked_support(a, b):
        if face is None:
            raise AssertionError("support LP run although the start sweep proves the face")
        live, inner = support(a, b)
        faces.append(bool(live.all()))
        return live, inner

    ipf = Calls(monkeypatch, union_info, "_ipf_sweep")
    monkeypatch.setattr(union_info, "_maximal_support", checked_support)
    d = make_random(seed, 4, 2, zero_fraction)
    fam = PartFamily(tuple(almosts(4)) if parts is None else tuple(map(PartSpec, parts)))
    zero = MarginalPolytope(d, fam.parts).x0 == 0.0
    assert zero.any()
    value, lower = _brackets(d, [fam.parts], MINSYN)[0]
    sweeps = ipf.results
    # A face smaller than the live cells takes its own sweep.
    assert len(sweeps) == 1 + faces.count(False)
    if parts is not None:
        assert 0.0 < sweeps[0][0, zero].min() < 1e-4 * sweeps[0].max()
    assert faces == {None: [], "full": [True], "smaller": [False]}[face]
    assert lower <= value <= lower + MINSYN.tolerance
    assert abs(value - expected) <= 1e-6


def test_every_support_lp_shrinks_the_face_on_n4_zero_inputs(monkeypatch):
    # At n=4 the start sweep of each decomposable family (every report family
    # but the Almosts) proves its face full, and each Almosts face the proof
    # leaves to the LP on these inputs is smaller than the live cells: no LP
    # call is spent on a face a proof could have given.
    supports = Calls(monkeypatch, union_info, "_maximal_support")
    for seed in range(40):
        full_report(make_random(seed, 4, 2, 0.3), MINSYN)
    shrunk = [not live.all() for live, _ in supports.results]
    assert len(shrunk) == 10 and all(shrunk)


def _newton_steps(monkeypatch, inputs):
    """``union_info._newton_solve`` calls, one per lockstep Newton step, of
    one report on each of ``make_random(*args)`` for ``args`` in ``inputs``."""
    systems = Calls(monkeypatch, union_info, "_newton_solve")
    for args in inputs:
        full_report(make_random(*args))
    return systems.count


def test_binary_reports_keep_their_newton_step_budget(monkeypatch):
    # These ten reports took 217 steps when every family was solved to the
    # tolerance from the base pmf, 187 from the one-sweep start, 153 once
    # each scan's dominated families left the batch early, 104 with the
    # tangent predictor after each mu cut and stages that end at dec <= 5 mu,
    # and 89 once each line search started at 0.9 of the longest positive
    # step, not 0.99, and each row was judged where its step landed.
    # A start, exit or schedule rule that costs steps fails here.
    steps = _newton_steps(monkeypatch, [(seed, 3) for seed in range(400, 410)])
    assert 0 < steps <= 95


def test_mixed_reports_keep_their_newton_step_budget(monkeypatch):
    # Shapes and zero cells the benchmark does not list: n=4 binary and n=3
    # ternary, full support and zero fraction 0.2.  These twelve reports took
    # 341 steps with the tangent predictor (later 339), against 461 without it
    # and with stages that end at dec <= 0.1 mu, and 282 once each line search
    # started at 0.9 of the longest positive step, not 0.99, and each row was
    # judged where its step landed.
    inputs = [
        (seed, n, alphabet_size, zero_fraction)
        for n, alphabet_size in [(4, 2), (3, 3)]
        for zero_fraction in (0.0, 0.2)
        for seed in range(3)
    ]
    steps = _newton_steps(monkeypatch, inputs)
    assert 0 < steps <= 298


class _WriteLog(list):
    """A list that logs the index of each item it is assigned."""

    def __init__(self, values, log):
        super().__init__(values)
        self.log = log

    def __setitem__(self, i, value):
        self.log.append(i)
        super().__setitem__(i, value)


def _checked_report(monkeypatch, small_stack, d):
    """A report on ``d`` with ``_SMALL_STACK`` at ``small_stack``: its repr,
    each family's ``(value, lower)`` from ``_min_synergy_brackets``, and its
    ``union_info._newton_solve`` calls; and how many Newton systems a row
    done sat in.  On the way it checks, at each lockstep step, that a stack
    below ``small_stack`` keeps every row and a larger one only the rows not
    done, and that a row done leaves ``_Brackets.done``, writes no bracket
    and takes no step.  A row is judged where its line search lands, so the
    first system after its verdict is built there, and every later Newton
    gradient of the row equals that system's."""
    monkeypatch.setattr(union_info, "_SMALL_STACK", small_stack)
    solve, done = union_info._newton_solve, union_info._Brackets.done
    lockstep, min_synergy = union_info._lockstep, union_info._min_synergy_brackets
    brackets, solves, kept, call = [], 0, 0, None

    def recording_solve(hess, g):
        nonlocal solves
        solves += 1
        if call is not None:
            call["g"] = g.copy()
        return solve(hess, g)

    def checked_done(self, ids, stalled=()):
        nonlocal kept
        verdicts = done(self, ids, stalled)
        if call is None:
            return verdicts
        rows, g, finished = call["rows"], call["g"], call["finished"]
        assert not finished.keys() & (set(ids) | set(call["writes"]))
        call["writes"].clear()
        assert len(g) == (len(rows) if call["keeps"] else len(ids))
        if call["keeps"]:
            for i, first in finished.items():
                if first is None:  # the first system after the verdict
                    finished[i] = g[rows.index(i)].copy()
                else:
                    assert np.array_equal(g[rows.index(i)], first)
                    kept += 1
        for i, row_done in zip(ids, verdicts):
            if row_done:
                finished[i] = None
        return verdicts

    def checked_lockstep(stack, rows, start, ids, hy, brackets_):
        nonlocal call
        width = max(stack.structure.width[k] for k in rows.tolist())
        writes = []
        brackets_.lower = _WriteLog(brackets_.lower, writes)
        brackets_.upper = _WriteLog(brackets_.upper, writes)
        call = {"rows": list(ids), "keeps": start[0].shape[1] * width**2 < small_stack,
                "finished": {}, "writes": writes}
        try:
            lockstep(stack, rows, start, ids, hy, brackets_)
        finally:
            brackets_.lower, brackets_.upper = list(brackets_.lower), list(brackets_.upper)
            call = None

    def recording(tab, families, m, scans=()):
        out = min_synergy(tab, families, m, scans)
        brackets.extend(out)
        return out

    with monkeypatch.context() as patch:
        patch.setattr(union_info, "_newton_solve", recording_solve)
        patch.setattr(union_info._Brackets, "done", checked_done)
        patch.setattr(union_info, "_lockstep", checked_lockstep)
        patch.setattr(union_info, "_min_synergy_brackets", recording)
        report = full_report(d)
    return repr((report, brackets, solves)), kept


def test_rows_done_leave_or_stay_in_their_stack_with_the_same_bits(monkeypatch):
    # Small stacks keep their rows done instead of re-indexing; every stacked
    # operation is per row, so whether a stack re-indexes (0), decides by its
    # size (the module's bound) or keeps every row (inf), each report, every
    # family's bracket and the count of Newton systems are the same bits.
    bound = union_info._SMALL_STACK
    inputs = [make_random(seed, 3) for seed in range(400, 410)]
    inputs += [make_random(0, 4), make_random(0, 3, 3), make_random(1, 3, 2, 0.3)]
    kept = 0
    for d in inputs:
        reindexed, _ = _checked_report(monkeypatch, 0, d)
        sized, _ = _checked_report(monkeypatch, bound, d)
        everywhere, rows_kept = _checked_report(monkeypatch, math.inf, d)
        assert reindexed == sized == everywhere
        kept += rows_kept
    assert kept > 0


def test_a_familys_bracket_does_not_depend_on_the_order_of_the_families():
    # Every stacked operation is per row, and reversing the families keeps
    # each live-cell group's rows and so its padded widths: each family's
    # (value, lower) is the same bits in either order.
    inputs = [make_random(seed, 3) for seed in range(400, 410)]
    inputs += [make_random(seed, 3, 2, 0.3) for seed in range(10)]
    inputs += [make_random(seed, 4, 2, z) for z in (0.0, 0.3) for seed in range(5)]
    inputs += [make_random(seed, 3, 3) for seed in range(3)]
    for d in inputs:
        families = [f.parts for f in _report_families(d.n_predictors)]
        forward = _brackets(d, families, MINSYN)
        backward = _brackets(d, families[::-1], MINSYN)[::-1]
        assert repr(forward) == repr(backward), d


def test_a_stalled_row_with_an_open_gap_is_a_typed_error():
    # Row 0 is neither closed nor dominated (its scan's top lower bound is
    # 0.5, below its upper bound); row 1's gap is within the tolerance but
    # not a tenth of it, which closes it only once it cannot move.
    brackets = union_info._Brackets([[0, 1]], 2, 0.01)
    brackets.lower[:], brackets.upper[:] = [0.25, 0.5], [0.75, 0.505]
    assert brackets.done([0, 1]) == [False, False]
    assert brackets.done([1], [True]) == [True]
    with pytest.raises(UnionConvergenceError, match="stalled") as err:
        brackets.done([1, 0], [True, True])
    assert err.value.value == 0.75
    assert err.value.gap == 0.75 - 0.25


def _stall_at_1e20(monkeypatch, seed):
    """The stall error of the n=3 binary report ``make_random(seed, 3)`` at
    tolerance 1e-20, and the ``union_info._newton_solve`` calls it took."""
    systems = Calls(monkeypatch, union_info, "_newton_solve")
    with pytest.raises(UnionConvergenceError, match="stalled") as err:
        full_report(make_random(seed, 3), UnionMeasure(tolerance=1e-20))
    return err.value, systems.count


def test_a_row_that_cannot_move_stalls_out_of_the_lockstep(monkeypatch):
    # At 1e-20 bits a gap closes only by luck of rounding: a row whose line
    # search ends below a step of 1e-12 with mu at its floor must leave
    # through _lockstep's own stall flag, at a gap of rounding size, long
    # before the step limit (this report raises after 17 Newton systems).
    err, solves = _stall_at_1e20(monkeypatch, 400)
    assert 1e-20 < err.gap < 1e-12
    assert solves <= 50


def test_a_row_whose_gap_sits_at_rounding_stalls_out_of_the_lockstep(monkeypatch):
    # On this input a row reaches mu's floor with its gap at rounding size,
    # and its line search keeps taking steps above 1e-12: it must stall once
    # the gap is within the rounding of its value, not run to the step limit
    # (this report raises after 15 Newton systems, not 500).
    err, solves = _stall_at_1e20(monkeypatch, 401)
    assert 1e-20 < err.gap < 1e-12
    assert solves <= 50


def test_a_failed_support_lp_is_a_typed_error(monkeypatch):
    # This input's Almosts need the support LP (see
    # test_face_without_free_direction_ends_before_the_solve).
    fail_support_lp(monkeypatch)
    with pytest.raises(UnionConvergenceError, match="maximal-support LP failed: The problem") as err:
        full_report(make_random(2, 3, 2, 0.3))
    assert err.value.value == err.value.gap == math.inf


def test_a_support_lp_face_that_misses_the_base_support_is_a_typed_error(monkeypatch):
    # The base pmf is feasible, so its support lies inside the largest
    # feasible one: a face that misses one of its cells is a failed LP, not a
    # group to set up (an empty group has no cells to factor).
    empty_support_face(monkeypatch)
    with pytest.raises(UnionConvergenceError, match="face misses the base support") as err:
        full_report(make_random(2, 3, 2, 0.3))
    assert err.value.value == err.value.gap == math.inf


def test_sparse_inputs_end_in_a_report_or_a_typed_error():
    # Masses many orders apart.  Every one must end in a report or a typed
    # error, and an error of the barrier, not of the support LP: the LP runs
    # on the base support's image, whose entries are small integers.  On the
    # masses themselves, with scipy 1.17.1's HiGHS, the LP of seeds 25, 27,
    # 28, 33, 35, 38, 42 and 44 failed or gave an empty face.
    for seed in range(20, 45):
        try:
            full_report(make_sparse(seed))
        except UnionConvergenceError as err:
            assert "support LP" not in str(err)


@pytest.mark.parametrize("seed", [25, 28, 38, 44])
def test_a_sparse_input_whose_support_lp_failed_on_its_masses_completes(monkeypatch, seed):
    # On the masses, down to 1e-15, scipy 1.17.1's HiGHS gave these inputs'
    # support LPs an empty face (seeds 25, 28 and 38) or a solve error (44).
    # On the base support's image the LP finds the face, and the start's
    # origin moves the LP's point onto the true masses.
    supports = Calls(monkeypatch, union_info, "_maximal_support")
    full_report(make_sparse(seed))
    lps = [b for (_, b), _ in supports.calls]
    assert lps and all((b == np.round(b)).all() and b.min() >= 1.0 for b in lps)


@pytest.mark.xfail(strict=True, raises=UnionConvergenceError)
def test_a_sparse_input_with_a_positive_start_completes():
    # Its smallest mass is 5.7e-15.  The barrier stalls on the Almost pair
    # {X1 X2, X2 X3} at a gap of 0.0297 bits, from a start that is feasible
    # (misfit 2.8e-17) and positive: that decomposable family's one IPF
    # sweep, its maximum-entropy point, whose smallest cell is 2.3e-18.  A
    # solver that completes this report flips the test.
    full_report(make_sparse(16))


def test_gradient_matches_a_row_by_row_loop_on_uneven_x_groups():
    # Three rows of six cells over at most four x-groups: single-cell groups,
    # a group of three, and in row 1 a padded group that holds no cell.
    rng = np.random.default_rng(0)
    xidx = np.array([[0, 0, 1, 1, 2, 3], [0, 0, 0, 1, 1, 2], [0, 1, 2, 3, 3, 3]])
    k, n, nx = 3, 6, 4
    v = rng.uniform(0.01, 1.0, (k, n, 1))
    grad, vx = union_info._gradient(v, union_info._group_index(xidx, nx), nx)
    assert grad.shape == (k, n, 1) and vx.shape == (k, nx, 1)
    for row in range(k):
        cells = v[row, :, 0].tolist()
        mass = [sum(c for c, x in zip(cells, xidx[row]) if x == g) for g in range(nx)]
        expected = [math.log(c / mass[x]) for c, x in zip(cells, xidx[row])]
        np.testing.assert_allclose(vx[row, :, 0], mass, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(grad[row, :, 0], expected, rtol=1e-14, atol=0.0)
    assert vx[1, 3, 0] == 0.0  # the padded group
    assert (grad[0, 4:] == 0.0).all() and grad[2, 0:3].tolist() == [[0.0]] * 3


def test_a_start_that_is_not_strictly_positive_is_a_typed_error(monkeypatch):
    zero_starts(monkeypatch)
    with pytest.raises(UnionConvergenceError, match="no strictly positive start") as err:
        full_report(make_random(400))
    assert err.value.value == err.value.gap == math.inf


class _Sized:
    def __init__(self, nbytes):
        self.nbytes = nbytes


def test_cache_evicts_the_least_recently_used_within_its_bound():
    cache, built = union_info._Cache(10), []

    def get(key, nbytes):
        return cache.get(key, lambda: built.append(key) or _Sized(nbytes))

    a, _ = get("a", 4), get("b", 4)
    assert list(cache.values) == ["a", "b"] and cache.held == 8
    assert get("a", 4) is a and built == ["a", "b"]  # a hit builds nothing
    assert list(cache.values) == ["b", "a"]  # and makes its key the most recent
    get("c", 4)  # 12 bytes: the least recently used goes
    assert list(cache.values) == ["a", "c"] and cache.held == 8
    big = get("big", 11)  # above the bound: returned, not kept
    assert big.nbytes == 11 and list(cache.values) == ["a", "c"] and cache.held == 8
    assert get("big", 11) is not big and built == ["a", "b", "c", "big", "big"]
    get("d", 10)  # exactly the bound: every other entry goes
    assert list(cache.values) == ["d"] and cache.held == 10
    cache.clear()
    assert not cache.values and cache.held == 0


def test_singular_newton_systems_fall_back_to_least_squares(monkeypatch):
    # When _newton_solve refuses a stacked Newton system, each system is
    # solved by least squares instead, with the same values.
    d = make_random(400)
    families = [fam.parts for fam in _report_families(3)]
    expected = _brackets(d, families, MINSYN)
    report = full_report(d)
    refused = 0

    def singular(*args, **kwargs):
        nonlocal refused
        refused += 1
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(union_info, "_newton_solve", singular)
    brackets = _brackets(d, families, MINSYN)
    fallback_report = full_report(d)
    assert refused > 0
    for (value, lower), (expected_value, _) in zip(brackets, expected):
        assert lower <= value <= lower + MINSYN.tolerance
        assert abs(value - expected_value) <= 1e-12
    assert fallback_report.values() == pytest.approx(report.values(), abs=1e-12)


def test_newton_solve_refuses_a_singular_stack_and_solves_an_ill_conditioned_one():
    # The real LAPACK call, nothing patched: a stack holding one zero matrix
    # is refused as np.linalg.solve refuses it, and a regular stack, however
    # ill-conditioned, is solved to np.linalg.solve's bits; neither warns.
    rng = np.random.default_rng(0)
    g = rng.normal(size=(2, 3, 1))
    singular = np.stack([np.eye(3), np.zeros((3, 3))])
    u, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    ill = np.stack([np.eye(3), u @ np.diag([1.0, 1e-8, 1e-15]) @ u.T])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(singular, g)
        with pytest.raises(np.linalg.LinAlgError):
            union_info._newton_solve(singular, g)
        dz = union_info._newton_solve(ill, g)
        assert np.isfinite(dz).all()
        assert np.array_equal(dz, np.linalg.solve(ill, g))


@pytest.mark.parametrize("args", [(400, 3), (0, 4), (1, 3, 3, 0.3)])
def test_cached_shape_arrays_equal_a_row_by_row_reference(args):
    # The structure's pad (a mask of each row's padded directions), 1 -
    # multi and gidx, read by a lockstep step over all its rows, are
    # read-only and equal a reference built one row at a time.
    full_report(make_random(*args))
    groups = _groups()
    assert groups
    for s in groups:
        k, nx, r = len(s.width), max(s.nx), max(s.width)
        pad, single, gidx = np.zeros((k, r)), np.ones((k, nx, 1)), []
        for row, width in enumerate(s.width):
            pad[row, width:] = 1.0
            single[row, np.bincount(s.xidx[row], minlength=nx) > 1] = 0.0
            gidx.append(row * nx + s.xidx[row])
        reference = (pad, single, np.array(gidx)[:, :, None])
        for cached, ref in zip((s.pad, s.single, s.gidx), reference):
            assert not cached.flags.writeable
            assert np.array_equal(cached, ref)


def test_mixed_batches_with_facial_reduction_raise_no_warning():
    # This report's families fall into four batches by live-cell count; two
    # hold rows of different null dimensions, so their bases are padded, and
    # one family is solved on a face found by the support LP.
    d = make_random(1, 3, 2, 0.3)
    families = _report_families(3)
    batches = {}
    for batch in _set_up(d, [fam.parts for fam in families])[0]:
        for i, cells, q, basis, *_ in batch:
            live = _live(d, families[i].parts)
            batches.setdefault(q.size, []).append((basis.shape[1], live.size == len(cells)))
    assert len(batches) == 4
    assert sum(len({width for width, _ in rows}) > 1 for rows in batches.values()) == 2
    assert sum(not full for rows in batches.values() for _, full in rows) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = full_report(d)
        # The report leaves dominated families unsolved; a call without scans
        # solves every family to the tolerance.
        batch = union_info._solve(MINSYN, d, [f.parts for f in families])[1]
        brackets = _brackets(d, [f.parts for f in families], MINSYN)
    assert batch == [value for value, _ in brackets]
    for fam, (value, lower) in zip(families, brackets):
        assert lower <= value <= lower + MINSYN.tolerance
        alone = _brackets(d, [fam.parts], MINSYN)[0][0]
        assert union_information(MINSYN, d, fam) == alone
        assert abs(alone - value) <= MINSYN.tolerance
    assert report.ibe == pytest.approx(union_info._Tables(d).whole_mi - brackets[0][0], abs=1e-15)


def _loop_build(d, parts):
    """Live cells, and per part its positions and (part, target) marginal,
    by direct loops over the pmf and the alphabet product."""
    preds, t = d.predictor_indices, d.target_index
    positions = [[preds[i] for i in p.member_indices] + [t] for p in parts]
    marginals = []
    for pos in positions:
        marg = {}
        for outcome, p in d.pmf.items():
            key = tuple(outcome[i] for i in pos)
            marg[key] = marg.get(key, 0.0) + p
        marginals.append(marg)
    cells = [
        c for c in product(*d.alphabets)
        if all(tuple(c[i] for i in pos) in marg for pos, marg in zip(positions, marginals))
    ]
    return cells, positions, marginals


def _build_cases(corpus):
    for example in corpus.values():
        d = example.distribution
        for fam in _report_families(d.n_predictors):
            yield d, fam
    for seed in (100, 101, 102):
        yield make_random(seed, 2, 3, 0.3), singletons(2)
    # Full support, and an input whose Almosts face empties an x-group.
    for d in (make_random(400), make_random(2, 3, 2, 0.3)):
        for fam in _report_families(3):
            yield d, fam
    d = make_random(0, 4, 2, 0.3)
    for fam in _report_families(4):
        yield d, fam
    # A cyclic three-part family beside the four-part Almosts, on the same
    # cells: its stack row is padded with a fourth block, and, unlike a
    # decomposable family's, its sweep changes if that block is not its last.
    d = make_random(400, 4)
    yield d, PartFamily((PartSpec((0, 1)), PartSpec((1, 2)), PartSpec((0, 2))))
    yield d, PartFamily(tuple(almosts(4)))


def test_vectorized_build_matches_loops(corpus):
    for d, fam in _build_cases(corpus):
        poly = MarginalPolytope(d, fam.parts)
        cells, positions, marginals = _loop_build(d, fam.parts)
        assert poly.cells == cells
        index = {c: i for i, c in enumerate(cells)}
        a_loop = np.zeros((sum(len(m) for m in marginals), len(cells)))
        start = 0
        for block, pos, marg in zip(poly.blocks, positions, marginals):
            rows = poly.A[block]
            assert (rows.sum(axis=0) == 1.0).all()
            keys = []
            for row, mass in zip(rows, poly.b[block]):
                key = {tuple(poly.cells[c][i] for i in pos) for c in np.flatnonzero(row)}
                assert len(key) == 1
                keys.append(key.pop())
                # Sums of the same masses in another order.
                assert mass == pytest.approx(marg[keys[-1]], rel=1e-14, abs=1e-16)
            assert sorted(keys) == sorted(marg)
            row_of = {k: start + r for r, k in enumerate(marg)}
            for c, cell in enumerate(cells):
                a_loop[row_of[tuple(cell[i] for i in pos)], c] = 1.0
            start += len(marg)
        x0 = np.zeros(len(cells))
        for outcome, p in d.pmf.items():
            x0[index[outcome]] = p
        assert (poly.x0 == x0).all()
        assert np.abs(poly.A @ poly.x0 - poly.b).max() <= 1e-15
        xkeys = [tuple(c[i] for i in d.predictor_indices) for c in cells]
        assert len(set(zip(poly.xidx.tolist(), xkeys))) == len(set(xkeys)) == poly.nx
        assert set(poly.xidx.tolist()) == set(range(poly.nx))
        assert poly.null_basis.shape[1] == len(cells) - np.linalg.matrix_rank(a_loop)
        # The least singular value counted in the rank, which the face proof reads.
        layout, _, live, _ = union_info._Tables(d).masses([fam.parts])
        [sigma] = union_info._Structure(layout, [(0, np.flatnonzero(live[0]))]).sigma
        values = np.linalg.svd(a_loop, compute_uv=False)
        assert sigma == pytest.approx(values[np.linalg.matrix_rank(a_loop) - 1], rel=1e-12)


def test_part_entropies_are_summed_as_each_part_alone():
    # Each part's entropy is its own positive masses' sum, in their order,
    # to the bit: numpy sums fewer than 8 values in a row and 8 or more
    # pairwise, so segments of both lengths are checked, with zero masses
    # among and between them.
    rng = np.random.default_rng(0)
    for _ in range(300):
        sizes = rng.integers(1, 24, size=rng.integers(1, 7))
        v = rng.random(sizes.sum()) ** 3
        v[rng.random(v.size) < 0.3] = 0.0
        v[np.cumsum(sizes) - 1] += 1e-3  # every part keeps a positive mass
        part = np.repeat(np.arange(sizes.size), sizes)
        expected = [union_info._neg_plogp(v[part == j]) for j in range(sizes.size)]
        assert union_info._entropies(v, part) == expected
    # The solver's own layouts: every part's joint and alone entropies.
    for d in [make_random(400), make_random(0, 4, 2, 0.3), make_random(1, 3, 3, 0.2)]:
        tab = union_info._Tables(d)
        layout, mass, _, mi = tab.masses([f.parts for f in _report_families(d.n_predictors)])
        joint, parts = mass[:-1], len(layout.parts)
        alone = np.bincount(layout.alone, joint)
        part = layout.joint_part
        alone_part = layout.entropy_part[joint.size:] - parts
        assert mi == [
            union_info._neg_plogp(alone[alone_part == j]) + tab.hy
            - union_info._neg_plogp(joint[part == j])
            for j in range(parts)
        ]


def test_tables_follow_target_and_constant_target():
    d = make_random(7, n_predictors=2)
    retargeted = JointDistribution(d.variables, d.pmf, target="X1")
    const = d.with_constant_target()
    for dist in (d, retargeted, const):
        whole = dist.mutual_information(dist.whole_selector(), dist.target_selector())
        tab = union_info._Tables(dist)
        assert tab.whole_mi == pytest.approx(whole, abs=1e-14)
        for part in singletons(2).parts:
            sel = dist.selector(dist.variables[dist.predictor_indices[part.member_indices[0]]])
            mi = dist.mutual_information(sel, dist.target_selector())
            assert tab.masses([(part,)])[3][0] == pytest.approx(mi, abs=1e-14)
    assert abs(union_info._Tables(retargeted).whole_mi - union_info._Tables(d).whole_mi) > 1e-3
    assert union_info._Tables(const).whole_mi == 0.0
    # Retargeted again from d, as the CLI's --target does it: the same bits.
    again = JointDistribution(d.variables, dict(d.pmf), target="X1")
    assert union_information(MINSYN, again, singletons(2)) == union_information(
        MINSYN, retargeted, singletons(2))
    assert union_information(MINSYN, const, singletons(2)) == 0.0


def test_stacked_rows_match_their_families_alone(corpus):
    # Each input's families assembled the way the solver assembles them, one
    # group structure per live-cell count: every row, with its padding
    # stripped, is its family's polytope built alone, and the set-up of all
    # the families together ends or starts each one as it does alone.
    inputs = {}
    for d, fam in _build_cases(corpus):
        inputs.setdefault(d, []).append(fam.parts)
    for d, families in inputs.items():
        tab = union_info._Tables(d)
        product_cells = list(product(*d.alphabets))
        layout, mass, masks, _ = tab.masses(families)
        groups = {}
        for i, mask in enumerate(masks):
            groups.setdefault(mask.sum(), []).append((i, np.flatnonzero(mask)))
        for members in groups.values():
            stack = union_info._Stack(tab, layout, mass, [(i, masks[i], None) for i, _ in members])
            group = stack.structure
            width = stack.b.shape[1]
            for k, (i, live) in enumerate(members):
                parts = families[i]
                poly = MarginalPolytope(d, parts)
                alone = union_info._Structure(tab.masses([parts])[0], [(0, live)])
                m, blocks = alone.m[0], len(parts)
                assert [product_cells[c] for c in live] == poly.cells
                a = alone.constraints(0)
                assert (group.constraints(k) == a).all() and (poly.A == a).all()
                # The rebuilt matrix is the one whose null space the basis spans.
                assert np.abs(group.constraints(k) @ group.basis[k]).max(initial=0.0) <= 1e-12
                assert (group.sweep[:blocks, k] == alone.sweep[:blocks, 0] + width * k).all()
                # A row with fewer parts repeats its last block.
                assert (group.sweep[blocks:, k] == group.sweep[blocks - 1, k]).all()
                assert (stack.b[k, :m] == poly.b).all() and not stack.b[k, m:].any()
                assert (stack.x0[k] == poly.x0).all()
                assert (group.xidx[k] == alone.xidx[0]).all()
                assert group.nx[k] == alone.nx[0] == poly.nx
                rank = np.linalg.matrix_rank(a)
                assert len(poly.cells) - rank == poly.null_basis.shape[1] == alone.width[0]
                assert group.width[k] == alone.width[0] == alone.basis.shape[2]
                projector = alone.basis[0] @ alone.basis[0].T
                assert np.abs(group.basis[k] @ group.basis[k].T - projector).max() <= 1e-12
        batches, brackets = _set_up(d, families)
        rows = {row[0]: row[1:4] for batch in batches for row in batch}
        for i, parts in enumerate(families):
            alone_batches, alone = _set_up(d, [parts])
            assert brackets[i] == pytest.approx(alone[0], abs=1e-12)
            if not alone_batches:
                assert i not in rows
                continue
            [[(_, cells, q, basis, *_)]] = alone_batches
            row_cells, row_q, row_basis = rows[i]
            assert np.array_equal(row_cells, cells)
            assert np.abs(row_q - q).max() <= 1e-12
            assert row_basis.shape == basis.shape
            projector = basis @ basis.T
            assert np.abs(row_basis @ row_basis.T - projector).max() <= 1e-12


def test_stack_checks_each_row_base_pmf_against_its_masses():
    # The base pmf meets its own marginals; a mass off by more than 1e-9 in
    # any block of any row, here the last block of the second, is refused.
    # The input has full support, so both families live on all 16 cells.
    d = make_random(400, 3)
    tab = union_info._Tables(d)
    parts = tuple(almosts(3))
    layout, mass, live, _ = tab.masses([parts[:2], parts])
    rows = [(0, live[0], None), (1, live[1], None)]
    union_info._Stack(tab, layout, mass, rows)
    # The third Almost is only the second row's, and its last block.
    assert layout.families == [[0, 1], [0, 1, 2]]
    bad = mass * np.where(np.append(layout.joint_part, -1) == 2, 1.0 + 1e-6, 1.0)
    with pytest.raises(AssertionError, match="violates its own marginals"):
        union_info._Stack(tab, layout, bad, rows)


def _renamed(d, suffix):
    """``d`` under other variable names: a distribution of the same shape and
    live cells that no per-distribution cache holds."""
    return JointDistribution([v + suffix for v in d.variables], d.pmf, target=d.target + suffix)


def _report_bits(d):
    report = full_report(d)
    return report.values(), report.witness_bipartition, report.witness_almost_pair


def _groups():
    """The group structures the cache holds."""
    values = union_info._structures.values.values()
    return [v for v in values if not isinstance(v, union_info._Layout)]


@pytest.mark.parametrize("seed, zero_fraction", [(400, 0.0), (1, 0.3)])
def test_report_is_the_same_from_a_cold_or_warm_structure_cache(monkeypatch, seed, zero_fraction):
    # A full-support input, and one whose report solves a family on a face
    # that the support LP finds.  Other inputs of the same shape and cells
    # warm the cache; the report from it is bit for bit the cold one.  On the
    # first input the pre-build check drops two of the eight families of its
    # one live-cell group, so the group is built on the other six; the inputs
    # that warm the cache keep other rows, and each row set is an entry.
    d = make_random(seed, 3, 2, zero_fraction)
    structures = Calls(monkeypatch, union_info, "_Structure")
    lps = Calls(monkeypatch, union_info, "_maximal_support")
    union_info._structures.clear()
    cold = _report_bits(d)
    builds = [i for (_, rows), _ in structures.calls for i, _ in rows]
    sizes = [len(rows) for (_, rows), _ in structures.calls]
    # On the second input one family is built again on its face.
    faces = len(builds) - len(set(builds))
    assert builds and bool(lps.calls) == bool(faces) == (zero_fraction > 0.0)
    assert (sizes == [6]) == (zero_fraction == 0.0)
    union_info._structures.clear()
    warm_up = [make_random(s, 3) for s in (401, 402, 403)] if zero_fraction == 0.0 else []
    for other in warm_up + [_renamed(d, "'")]:
        _report_bits(other)
    if warm_up:
        # 401 keeps seven rows, 402 six other than d's, 403 all eight.
        assert [len(g.cells) for g in _groups()] == [7, 6, 8, 6]
    structures.calls.clear()
    assert _report_bits(_renamed(d, "''")) == cold
    assert _report_bits(d) == cold
    assert not structures.calls


def test_each_group_is_cached_under_the_rows_it_builds(monkeypatch):
    # Two full-support inputs of one shape whose pre-build checks keep
    # different rows of their one live-cell group: six of the eight on the
    # first, all eight on the second.  Each report builds the group on
    # exactly the rows it starts and keeps it under them, so the cache holds
    # one entry per row set; renamed copies build nothing and report the same.
    inputs = [make_random(400, 3), make_random(403, 3)]
    starts = Calls(monkeypatch, union_info, "_starts")
    builds = Calls(monkeypatch, union_info, "_Structure")
    union_info._structures.clear()
    cold = [_report_bits(d) for d in inputs]
    started = [len(rows) for rows, _ in starts.results]
    assert started == [6, 8] and len(builds.calls) == 2
    assert [len(g.cells) for g in _groups()] == started
    builds.calls.clear()
    assert [_report_bits(_renamed(d, "'")) for d in inputs] == cold
    assert not builds.calls


def test_structure_depends_on_shape_and_cells_alone():
    # Two distributions of one shape whose families live on the same cells
    # (full support, and the same zero cells) share each family's structure:
    # built for the one, it is what a fresh build for the other gives.
    rng = np.random.default_rng(0)
    pairs = []
    for d in (make_random(400), make_random(1, 3, 2, 0.3)):
        weights = rng.uniform(0.5, 2.0, len(d.pmf))
        other = {o: p * w for (o, p), w in zip(d.pmf.items(), weights)}
        total = sum(other.values())
        pairs.append((d, JointDistribution(d.variables, {o: p / total for o, p in other.items()})))
    for d, e in pairs:
        assert set(d.pmf) == set(e.pmf) and d.pmf != e.pmf
        for fam in _report_families(3):
            tab_d, tab_e = union_info._Tables(d), union_info._Tables(e)
            live = _live(d, fam.parts)
            assert np.array_equal(_live(e, fam.parts), live)
            union_info._structures.clear()
            layout, mass, live_d, _ = tab_d.masses([fam.parts])
            built = union_info._Stack(tab_d, layout, mass, [(0, live_d[0], None)]).structure
            union_info._structures.clear()
            layout, mass, live_e, _ = tab_e.masses([fam.parts])
            fresh = union_info._Stack(tab_e, layout, mass, [(0, live_e[0], None)]).structure
            assert fresh is not built
            assert (fresh.constraints(0) == built.constraints(0)).all()
            assert (fresh.sweep == built.sweep).all()
            assert (fresh.xidx == built.xidx).all() and fresh.nx == built.nx
            assert fresh.blocks == built.blocks
            projector = built.basis[0] @ built.basis[0].T
            assert np.abs(fresh.basis[0] @ fresh.basis[0].T - projector).max() <= 1e-12
            assert not fresh.sweep.flags.writeable and not fresh.basis.flags.writeable
            # The other distribution's masses fit the shared structure.
            poly = MarginalPolytope(e, fam.parts)
            assert (poly.A == fresh.constraints(0)).all()
            assert np.abs(poly.A @ poly.x0 - poly.b).max() <= 1e-15


def test_a_report_builds_its_tables_once_and_keeps_none(monkeypatch):
    # A report builds its distribution's tables once, for the whole's mutual
    # information and every family, under either measure; nothing holds them
    # once it returns.
    d = make_random(400, 3)
    built, init = [], union_info._Tables.__init__

    def counting_init(self, dist):
        built.append(dist)
        init(self, dist)

    monkeypatch.setattr(union_info._Tables, "__init__", counting_init)
    for m in (MINSYN, MAXMI):
        built.clear()
        full_report(d, m)
        assert built == [d]
    gc.collect()
    assert not [o for o in gc.get_objects() if isinstance(o, union_info._Tables)]


def test_a_maxmi_report_reads_every_part_from_one_layout():
    # maxmi takes every part's mutual information from its call's one pass
    # over the masses, so an n=3 report adds one layout and nothing else.
    d = make_random(400, 3)
    union_info._structures.clear()
    report = full_report(d, MAXMI)
    [layout] = union_info._structures.values.values()
    assert isinstance(layout, union_info._Layout) and len(layout.parts) == 6
    best = max(union_info._Tables(d).masses([singletons(3).parts])[3])
    assert report.ibe == min(max(report.whole_mi - best, 0.0), report.whole_mi)


def test_structure_cache_stays_within_its_bound(monkeypatch):
    # After an n=5 binary report the cache holds no more bytes than its
    # bound; with a smaller bound it evicts, and with one below every entry
    # it keeps nothing, and the report is the same each way.  Its entries are
    # the report's layout and its live-cell groups, each counted with every
    # array it holds; a group kept on other rows is an entry of its own.
    # Beside the null bases, no array of a group holds more entries than its
    # slot layout: rows times cells times blocks.
    cache = union_info._structures
    d = make_random(0, 5)
    cache.clear()
    expected = _report_bits(d)
    held = cache.held
    assert 0 < held == sum(v.nbytes for v in cache.values.values()) <= cache.bound
    assert len(_groups()) == len(cache.values) - 1 and max(len(g.cells) for g in _groups()) > 1
    for group in _groups():
        arrays = {key: v for key, v in vars(group).items() if isinstance(v, np.ndarray)}
        assert group.nbytes == sum(a.nbytes for a in arrays.values())
        budget = group.sweep.size  # depth * rows * cells
        assert group.sweep.shape[1:] == group.cells.shape
        for key, a in arrays.items():
            assert key in ("basis", "group_basis") or a.size <= budget, key
    cache.clear()
    _report_bits(make_random(400, 3))
    [group] = _groups()
    _report_bits(make_random(403, 3))
    assert _groups()[0] is group
    assert [len(g.cells) for g in _groups()] == [len(group.cells), len(group.cells) + 2] == [6, 8]
    assert cache.held == sum(v.nbytes for v in cache.values.values())
    for bound in (held // 4, 1):
        monkeypatch.setattr(cache, "bound", bound)
        cache.clear()
        assert _report_bits(d) == expected
        assert cache.held == sum(v.nbytes for v in cache.values.values()) <= bound
    assert not cache.values
