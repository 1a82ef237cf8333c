import math
import re

import pytest
from hypothesis import given, strategies as st

from pidirr.distributions import (
    DistributionError,
    JointDistribution,
    VariableSelector,
    parse_distribution,
)

from conftest import make_random

XOR_TSV = """\
# vars: X1 X2 Y  target: Y
0\t0\t0\t1/4
0\t1\t1\t1/4
1\t0\t1\t1/4
1\t1\t0\t1/4
"""


def test_parse_xor_fraction_table():
    d = parse_distribution(XOR_TSV)
    assert d.variables == ("X1", "X2", "Y")
    assert d.target == "Y"
    assert len(d.pmf) == 4
    assert math.isclose(sum(d.pmf.values()), 1.0, abs_tol=1e-12)
    assert d.pmf[("0", "1", "1")] == 0.25


def test_parse_point_mass():
    d = parse_distribution("# vars: A B\n0\t0\t1\n")
    assert len(d.pmf) == 1
    assert d.entropy() == 0.0
    assert d.target == "B"


def test_parse_triple_xor_table(triple_xor):
    text = triple_xor.to_tsv()
    d = parse_distribution(text)
    assert len(d.pmf) == 64
    assert all(math.isclose(p, 1 / 64) for p in d.pmf.values())
    assert d == triple_xor


def test_parse_sums_duplicate_rows():
    d = parse_distribution("# vars: A B\n0\t0\t0.25\n0\t0\t0.25\n1\t1\t0.5\n")
    assert d.pmf[("0", "0")] == 0.5


def test_parse_skips_comments_and_blank_lines():
    d = parse_distribution("# vars: A B\n\n# a comment\n0\t1\t1.0\n")
    assert d.support == (("0", "1"),)


def test_parse_default_target_is_last_column():
    d = parse_distribution("# vars: A B\n0\t1\t1.0\n")
    assert d.target == "B"


@pytest.mark.parametrize(
    "text",
    [
        "0\t0\t1.0\n",                               # data before header
        "# vars: A B\n0\t1.0\n",                     # arity mismatch
        "# vars: A B\n0\t0\tnope\n",                 # malformed probability
        "# vars: A B\n0\t0\t-0.5\n0\t1\t1.5\n",      # negative probability
        "# vars: A B\n0\t0\t0.4\n",                  # sums to 0.4
        "# vars: A B  target: C\n0\t0\t1.0\n",       # unknown target
    ],
)
def test_parse_rejects_bad_input(text):
    with pytest.raises(DistributionError):
        parse_distribution(text)


def test_no_variable_name_stands_for_the_default_target():
    # The default target, the last variable, is a private object, so a
    # variable named "__last__" is a target like any other.
    outcomes = {("0", "0", "0"): 0.5, ("1", "1", "1"): 0.5}
    names = ("__last__", "A", "B")
    assert JointDistribution(names, outcomes, target="__last__").target == "__last__"
    assert JointDistribution(names, outcomes).target == "B"
    text = "# vars: __last__ A B  target: __last__\n0\t0\t0\t0.5\n1\t1\t1\t0.5\n"
    assert parse_distribution(text).target == "__last__"
    assert parse_distribution(text.replace("  target: __last__", "")).target == "B"
    with pytest.raises(DistributionError, match="target '__last__' not among variables"):
        JointDistribution(("A", "B"), {("0", "0"): 1.0}, target="__last__")


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: VariableSelector([0, -1]), "negative variable position in"),
        (lambda: JointDistribution(("A", "A"), {("0", "0"): 1.0}), "duplicate variable names"),
        (lambda: JointDistribution((), {(): 1.0}), "needs at least one variable"),
        (lambda: JointDistribution(("A", "B"), {("0",): 1.0}), "has arity 1, expected 2"),
        (lambda: JointDistribution(("A", "B"), {("0", "0"): 1.0}, target="C"),
         "target 'C' not among variables"),
        (lambda: parse_distribution("# vars:\n0\t1.0\n"), "line 1: empty variable list"),
        (lambda: parse_distribution("# vars:  target: A\n"), "line 1: empty variable list"),
        (lambda: parse_distribution("# a comment\n\n"), "missing '# vars:' header line"),
        (lambda: parse_distribution(""), "missing '# vars:' header line"),
        (lambda: parse_distribution("# vars: A B\n# no rows\n"), "no outcome rows"),
    ],
)
def test_malformed_input_is_a_distribution_error_that_names_it(build, message):
    with pytest.raises(DistributionError, match=re.escape(message)):
        build()


def test_a_query_outside_the_variables_is_a_distribution_error(xor):
    with pytest.raises(DistributionError, match=re.escape("selector (0, 3) out of range for 3")):
        VariableSelector([0, 3]).validate(xor)
    with pytest.raises(DistributionError, match=re.escape("unknown variable in ('X1', 'Z')")):
        xor.selector("X1", "Z")


def test_random_distribution_keeps_one_outcome_when_every_one_is_knocked_out():
    d = make_random(0, n_predictors=2, zero_fraction=1.0)
    assert list(d.pmf.values()) == [1.0]
    assert d.variables == ("X1", "X2", "Y")


def test_parse_accepts_slack_then_normalizes():
    d = parse_distribution("# vars: A B\n0\t0\t0.5000001\n1\t1\t0.5\n")
    assert math.isclose(sum(d.pmf.values()), 1.0, abs_tol=1e-12)


def test_marginalize_xor_to_x1_y_is_uniform(xor):
    # Enumerating the four table rows: each (x1, y) combination is hit once.
    marg = xor.marginalize(xor.selector("X1", "Y"))
    assert marg.variables == ("X1", "Y")
    assert set(marg.pmf) == {("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")}
    assert all(math.isclose(p, 0.25) for p in marg.pmf.values())


def test_marginalize_to_all_variables_is_identity(xor):
    assert xor.marginalize(xor.selector(*xor.variables)) == xor


def test_marginalize_parity_to_x1_x2_y_is_uniform(parity):
    # Summing over X3 pairs up rows with both X3 symbols: 2 * 1/8 each.
    marg = parity.marginalize(parity.selector("X1", "X2", "Y"))
    assert len(marg.pmf) == 8
    assert all(math.isclose(p, 0.125) for p in marg.pmf.values())


def test_marginalize_empty_selector_rejected(xor):
    with pytest.raises(DistributionError):
        VariableSelector(())


def test_entropy_values(xor, triple_xor):
    assert math.isclose(xor.entropy(xor.selector("Y")), 1.0, abs_tol=1e-12)
    assert math.isclose(triple_xor.entropy(triple_xor.selector("Y")), 3.0, abs_tol=1e-12)
    point = parse_distribution("# vars: A B\n0\t0\t1\n")
    assert point.entropy(point.selector("A")) == 0.0


def test_conditional_entropy(xor, parity):
    sel_y = xor.selector("Y")
    sel_x = xor.selector("X1", "X2")
    assert abs(xor.conditional_entropy(sel_y, sel_x)) <= 1e-12
    assert abs(xor.conditional_entropy(sel_x, sel_x)) <= 1e-12
    # Parity: any two inputs leave the target as a fair coin.
    assert math.isclose(
        parity.conditional_entropy(parity.selector("Y"), parity.selector("X1", "X2")),
        1.0,
        abs_tol=1e-12,
    )


def test_mutual_information_values(xor, xor_unique):
    assert math.isclose(
        xor.mutual_information(xor.selector("X1", "X2"), xor.selector("Y")), 1.0
    )
    assert abs(xor.mutual_information(xor.selector("X1"), xor.selector("Y"))) <= 1e-12
    assert math.isclose(
        xor_unique.mutual_information(xor_unique.selector("X3"), xor_unique.selector("Y")),
        1.0,
    )


def test_mutual_information_of_product_is_zero():
    pmf = {}
    for a, pa in (("0", 0.3), ("1", 0.7)):
        for b, pb in (("x", 0.6), ("y", 0.4)):
            pmf[(a, b)] = pa * pb
    d = JointDistribution(("A", "B"), pmf)
    assert abs(d.mutual_information(d.selector("A"), d.selector("B"))) <= 1e-12


def test_mutual_information_rejects_overlap(xor):
    with pytest.raises(DistributionError):
        xor.mutual_information(xor.selector("X1", "Y"), xor.selector("Y"))


def test_relabeled_requires_injective(xor):
    with pytest.raises(DistributionError):
        xor.relabeled("X1", {"0": "z", "1": "z"})
    swapped = xor.relabeled("X1", {"0": "1", "1": "0"})
    assert swapped.pmf[("1", "0", "0")] == 0.25


def test_relabeled_checks_injectivity_on_the_stored_symbols(xor):
    # The constructor stores every symbol as str, so 1 and "1" are one symbol.
    with pytest.raises(DistributionError, match="not injective"):
        xor.relabeled("X1", {"0": 1, "1": "1"})
    numbered = xor.relabeled("X1", {"0": 1, "1": 2})
    assert numbered.alphabets[0] == ("1", "2")


def test_relabeled_names_an_unknown_variable(xor):
    with pytest.raises(DistributionError, match="unknown variable 'Z'"):
        xor.relabeled("Z", {"0": "1", "1": "0"})


def test_relabeled_names_the_symbols_its_mapping_misses(xor):
    with pytest.raises(DistributionError, match=r"'X1' misses symbols \['1'\]"):
        xor.relabeled("X1", {"0": "a"})


def test_constant_target_collapse(xor):
    const = xor.with_constant_target()
    assert const.alphabets[const.target_index] == ("*",)
    assert abs(const.mutual_information(const.whole_selector(), const.target_selector())) == 0.0


def test_immutability(xor):
    with pytest.raises(AttributeError):
        xor.target = "X1"


def test_hash_follows_content(xor):
    copy = parse_distribution(xor.to_tsv())
    assert copy is not xor and copy == xor
    assert hash(copy) == hash(xor)
    assert len({xor, copy}) == 1
    retargeted = JointDistribution(xor.variables, xor.pmf, target="X1")
    assert retargeted != xor
    assert len({xor, retargeted}) == 2
    assert hash(xor) == hash(xor) == hash(xor.key())


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

dist_params = st.tuples(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=2, max_value=3),
    st.sampled_from([0.0, 0.0, 0.4]),
)


def _draw_distribution(params):
    seed, n, k, zero = params
    return make_random(seed, n_predictors=n, alphabet_size=k, zero_fraction=zero)


@given(dist_params, st.randoms(use_true_random=False))
def test_normalization_and_chain_rule(params, pyrandom):
    d = _draw_distribution(params)
    assert math.isclose(sum(d.pmf.values()), 1.0, abs_tol=1e-9)
    indices = list(range(len(d.variables)))
    a = VariableSelector(pyrandom.sample(indices, pyrandom.randint(1, len(indices))))
    b = VariableSelector(pyrandom.sample(indices, pyrandom.randint(1, len(indices))))
    # Chain rule: H(A v B) = H(B) + H(A | B)
    joint = d.entropy(a.union(b))
    assert math.isclose(joint, d.entropy(b) + d.conditional_entropy(a, b), abs_tol=1e-9)
    assert d.entropy(a) >= -1e-12


@given(dist_params, st.randoms(use_true_random=False))
def test_mutual_information_symmetric_nonnegative(params, pyrandom):
    d = _draw_distribution(params)
    indices = list(range(len(d.variables)))
    pyrandom.shuffle(indices)
    cut = pyrandom.randint(1, len(indices) - 1)
    a, b = VariableSelector(indices[:cut]), VariableSelector(indices[cut:])
    iab = d.mutual_information(a, b)
    iba = d.mutual_information(b, a)
    assert math.isclose(iab, iba, abs_tol=1e-9)
    assert iab >= -1e-9
    assert iab <= min(d.entropy(a), d.entropy(b)) + 1e-9


@given(dist_params, st.randoms(use_true_random=False))
def test_marginalization_commutes(params, pyrandom):
    d = _draw_distribution(params)
    indices = list(range(len(d.variables)))
    s1 = pyrandom.sample(indices, pyrandom.randint(1, len(indices)))
    extra = pyrandom.sample(indices, pyrandom.randint(0, len(indices) - 1))
    union = VariableSelector(set(s1) | set(extra))
    once = d.marginalize(VariableSelector(s1))
    # Marginalizing through an intermediate union gives the same distribution.
    inter = d.marginalize(union)
    names = [inter.variables.index(d.variables[i]) for i in sorted(set(s1))]
    twice = inter.marginalize(VariableSelector(names))
    assert set(once.pmf) == set(twice.pmf)
    assert all(abs(once.pmf[k] - twice.pmf[k]) <= 1e-12 for k in once.pmf)


@given(dist_params)
def test_tsv_round_trip(params):
    d = _draw_distribution(params)
    again = parse_distribution(d.to_tsv())
    assert again.variables == d.variables
    assert set(again.pmf) == set(d.pmf)
    assert all(abs(again.pmf[k] - d.pmf[k]) <= 1e-12 for k in d.pmf)


def test_to_tsv_without_target_is_rejected(xor):
    # The format always names a target; writing "target: None" made a file
    # the parser rejects.
    marginal = xor.marginalize(xor.selector("X1", "X2"))
    assert marginal.target is None
    with pytest.raises(DistributionError, match="without a target"):
        marginal.to_tsv()


def test_to_tsv_without_target_never_picks_a_variable_named_none():
    # Written as "target: None", this marginal would parse back with its
    # variable "None" silently made the target.
    d = JointDistribution(
        ("None", "X", "Y"), {("0", "0", "0"): 0.5, ("1", "1", "1"): 0.5}, target="Y"
    )
    marginal = d.marginalize(d.selector("None", "X"))
    assert marginal.target is None
    with pytest.raises(DistributionError, match="without a target"):
        marginal.to_tsv()
    # With a target, a variable named "None" round-trips as a predictor.
    again = parse_distribution(d.to_tsv())
    assert again.target == "Y" and again.variables == d.variables


@pytest.mark.parametrize(
    "variables, outcome, offender",
    [
        (("A", "Y"), ("#x", "0"), "'#x'"),
        (("A", "Y"), ("", "0"), "''"),
        (("A", "Y"), ("a b", "0"), "'a b'"),
        (("A", "Y"), ("a", "0\t1"), "'0\\t1'"),
        (("my var", "Y"), ("a", "0"), "'my var'"),
        (("", "Y"), ("a", "0"), "''"),
        (("A", "Xtarget:"), ("a", "0"), "'Xtarget:'"),
    ],
    ids=["comment-symbol", "empty-symbol", "space-symbol", "tab-symbol", "space-name",
         "empty-name", "target-name"],
)
def test_to_tsv_refuses_what_the_parser_would_misread(variables, outcome, offender):
    # Each would write a file that the parser rejects or, for a first-column
    # symbol starting with "#", reads back without that outcome: here
    # {("c", "1"): 1.0}, with no error.
    d = JointDistribution(variables, {outcome: 1e-7, ("c", "1"): 1.0 - 1e-7})
    with pytest.raises(DistributionError, match=re.escape(offender)):
        d.to_tsv()


def test_to_tsv_writes_a_hash_outside_the_first_column():
    # Only a line's first symbol can start a comment.
    d = JointDistribution(["A", "Y"], {("x", "#0"): 0.5, ("c#", "1"): 0.5})
    assert parse_distribution(d.to_tsv()) == d
