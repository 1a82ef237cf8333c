import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pidirr.distributions import DistributionError, JointDistribution
from pidirr.lattice import (
    DerivedVariable,
    from_selector,
    is_equivalent,
    is_poorer,
    join,
    meet,
)

from conftest import make_random


def _coarsen(rng, var: DerivedVariable) -> DerivedVariable:
    """Random label-merging: the result is poorer than var by construction."""
    k = var.n_labels
    targets = rng.integers(0, max(k - 1, 1), size=k)
    return DerivedVariable(var.base, [int(targets[lab]) for lab in var.labels])


def _random_derived(rng, d: JointDistribution) -> DerivedVariable:
    sel = d.selector(*rng.choice(d.variables, size=rng.integers(1, len(d.variables) + 1), replace=False))
    var = from_selector(d, sel)
    if rng.random() < 0.5:
        var = _coarsen(rng, var)
    return var


def _given(u: DerivedVariable, v: DerivedVariable) -> float:
    """H(u | v) = H(u ∨ v) − H(v), in bits."""
    return join(u, v).entropy() - v.entropy()


def test_from_selector_label_counts(xor, xor_unique):
    assert from_selector(xor, xor.selector("X1", "X2")).n_labels == 4
    assert from_selector(xor_unique, xor_unique.selector("X3")).n_labels == 2
    const = xor.with_constant_target()
    assert from_selector(const, const.target_selector()).n_labels == 1


def test_poorer_basics(xor):
    const = DerivedVariable(xor, [0] * len(xor.pmf))
    x1 = from_selector(xor, xor.selector("X1"))
    y = from_selector(xor, xor.selector("Y"))
    whole = from_selector(xor, xor.selector("X1", "X2"))
    assert is_poorer(const, x1)
    assert is_poorer(const, const)
    assert is_poorer(y, whole)          # the whole determines the target
    assert not is_poorer(y, x1)         # X1=0 co-occurs with both target symbols


def test_equivalence_basics(xor):
    x1 = from_selector(xor, xor.selector("X1"))
    y = from_selector(xor, xor.selector("Y"))
    assert is_equivalent(x1, x1)
    flipped = DerivedVariable(xor, [1 - lab for lab in x1.labels])
    assert is_equivalent(x1, flipped)
    assert not is_equivalent(x1, y)


def test_join_basics(xor):
    x1 = from_selector(xor, xor.selector("X1"))
    x2 = from_selector(xor, xor.selector("X2"))
    y = from_selector(xor, xor.selector("Y"))
    assert is_equivalent(join(x1, x1), x1)
    pair = join(x1, x2)
    assert is_equivalent(pair, from_selector(xor, xor.selector("X1", "X2")))
    assert math.isclose(join(x1, y).entropy(), 2.0, abs_tol=1e-12)


def test_meet_basics(xor):
    x1 = from_selector(xor, xor.selector("X1"))
    x2 = from_selector(xor, xor.selector("X2"))
    assert is_equivalent(meet(x1, x1), x1)
    # All four cells positive: the bipartite graph is one component.
    assert meet(x1, x2).n_labels == 1


def test_meet_block_diagonal():
    d = JointDistribution(
        ("A", "B"),
        {("0", "0"): 0.25, ("0", "1"): 0.25, ("1", "2"): 0.25, ("1", "3"): 0.25},
    )
    a = from_selector(d, d.selector("A"))
    b = from_selector(d, d.selector("B"))
    common = meet(a, b)
    assert common.n_labels == 2
    assert is_equivalent(common, a)


def test_mismatched_bases_rejected(xor, parity):
    u = from_selector(xor, xor.selector("X1"))
    v = from_selector(parity, parity.selector("X1"))
    with pytest.raises(DistributionError):
        is_poorer(u, v)
    with pytest.raises(DistributionError):
        join(u, v)


def test_labeling_must_cover_support(xor):
    with pytest.raises(ValueError):
        DerivedVariable(xor, [0, 1])


@given(st.integers(min_value=0, max_value=5_000))
def test_order_entropy_coherence(seed):
    rng = np.random.default_rng(seed)
    d = make_random(seed, n_predictors=int(rng.integers(1, 4)), zero_fraction=0.3)
    u = _random_derived(rng, d)
    v = _random_derived(rng, d)
    w = _random_derived(rng, d)

    # (c) structural order agrees with the conditional-entropy test.
    assert is_poorer(u, v) == (_given(u, v) <= 1e-9)

    if is_poorer(u, v):
        # (b) monotonicity of entropy under the order.
        assert u.entropy() <= v.entropy() + 1e-9
        assert _given(u, w) <= _given(v, w) + 1e-9
        assert _given(w, u) >= _given(w, v) - 1e-9

    perm = list(rng.permutation(u.n_labels))
    ueq = DerivedVariable(d, [perm[lab] for lab in u.labels])
    # (a) equivalence leaves every entropy unchanged.
    assert is_equivalent(u, ueq)
    assert abs(u.entropy() - ueq.entropy()) <= 1e-12
    assert abs(_given(u, w) - _given(ueq, w)) <= 1e-12
    assert abs(_given(w, u) - _given(w, ueq)) <= 1e-12

    # Order is invariant within equivalence classes.
    if is_poorer(u, v):
        assert is_poorer(ueq, v)


@given(st.integers(min_value=0, max_value=5_000))
def test_lattice_bounds(seed):
    rng = np.random.default_rng(seed + 9)
    d = make_random(seed + 9, n_predictors=int(rng.integers(1, 4)), zero_fraction=0.2)
    u = _random_derived(rng, d)
    v = _random_derived(rng, d)
    lo = meet(u, v)
    hi = join(u, v)
    assert is_poorer(lo, u) and is_poorer(lo, v)
    assert is_poorer(u, hi) and is_poorer(v, hi)
    # Join is the least upper bound over the instances we can build: the
    # pair variable itself.
    assert is_equivalent(hi, join(v, u))
    # A coarsening of the meet is a common lower bound and stays below it.
    w = _coarsen(rng, lo)
    assert is_poorer(w, u) and is_poorer(w, v) and is_poorer(w, lo)

    # Relabeling the inputs does not move join or meet (up to equivalence).
    perm = rng.permutation(u.n_labels)
    uperm = DerivedVariable(d, [perm[lab] for lab in u.labels])
    assert is_equivalent(meet(uperm, v), lo)
    assert is_equivalent(join(uperm, v), hi)


def test_canonical_labels_first_occurrence_order(xor):
    var = DerivedVariable(xor, [7, 3, 3, 7])
    assert var.labels == (0, 1, 1, 0)


def test_labels_of_any_hashable_type_keep_their_classes(xor):
    assert DerivedVariable(xor, [1.2, 1.7, 1.7, 1.2]).labels == (0, 1, 1, 0)
    assert DerivedVariable(xor, ["a", ("a",), ("a",), "a"]).labels == (0, 1, 1, 0)
    assert DerivedVariable(xor, iter([5, 5, 6, 6])).labels == (0, 0, 1, 1)
