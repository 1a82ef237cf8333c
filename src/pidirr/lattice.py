"""Informational partial order, equivalence, join, and meet.

Variables derived from a fixed base distribution are represented by total
labelings of the base support: two support outcomes get the same label
exactly when the derived variable cannot distinguish them.  On finite
supports this makes the order relations exact set computations:

* ``u`` is *poorer* than ``v`` (``u ⪯ v``) iff ``u``'s labels are constant on
  every ``v``-label class, i.e. ``u`` is a function of ``v`` almost surely.
* ``u ≅ v`` iff the two labelings induce the same partition of the support.
* the join labels outcomes by the pair of input labels;
* the meet labels outcomes by connected components of the bipartite graph
  linking co-occurring input labels (the common-random-variable
  construction), found by union-find.

Zero-probability outcomes never constrain any relation: everything is
evaluated on the support only.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

from .distributions import DistributionError, JointDistribution, VariableSelector, _entropy_bits

__all__ = [
    "DerivedVariable",
    "from_selector",
    "is_poorer",
    "is_equivalent",
    "join",
    "meet",
]


class _UnionFind:
    """Path-compressing union-find over 0..n-1."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def _canonicalize(labels: Iterable[Hashable]) -> tuple[int, ...]:
    """Relabel so first occurrence in support order gets 0, next new value 1, ..."""
    seen: dict[Hashable, int] = {}
    out = []
    for lab in labels:
        if lab not in seen:
            seen[lab] = len(seen)
        out.append(seen[lab])
    return tuple(out)


class DerivedVariable:
    """A random variable given as a labeling of a base distribution's support.

    Any hashable labels will do, one per support outcome in support order;
    they are stored renumbered by first appearance.
    """

    __slots__ = ("base", "labels")

    def __init__(self, base: JointDistribution, labels: Iterable[Hashable]):
        self.labels = _canonicalize(labels)
        if len(self.labels) != len(base.pmf):
            raise ValueError(
                f"labeling has {len(self.labels)} entries for support of size {len(base.pmf)}"
            )
        self.base = base

    @property
    def n_labels(self) -> int:
        return (max(self.labels) + 1) if self.labels else 0

    def label_masses(self) -> list[float]:
        masses = [0.0] * self.n_labels
        for lab, p in zip(self.labels, self.base.pmf.values()):
            masses[lab] += p
        return masses

    def entropy(self) -> float:
        """H of the label distribution, in bits."""
        return _entropy_bits(self.label_masses())

    def conditional_entropy(self, other: "DerivedVariable") -> float:
        """H(self | other) = H(self ∨ other) − H(other), in bits."""
        return join(self, other).entropy() - other.entropy()

    def relabeled(self, permutation: Sequence[int]) -> "DerivedVariable":
        """Equivalent copy with labels mapped through an injective permutation."""
        if sorted(permutation) != list(range(self.n_labels)):
            raise ValueError("relabeling must permute 0..n_labels-1")
        return DerivedVariable(self.base, [permutation[lab] for lab in self.labels])

    def __repr__(self):
        return f"DerivedVariable(labels={self.n_labels}, support={len(self.labels)})"


def _require_same_base(u: DerivedVariable, v: DerivedVariable) -> None:
    if u.base is not v.base and u.base != v.base:
        raise DistributionError("derived variables live on different base distributions")


def from_selector(d: JointDistribution, sel: VariableSelector) -> DerivedVariable:
    """The variable reading off the selected coordinates of each outcome."""
    sel.validate(d)
    return DerivedVariable(d, [tuple(outcome[i] for i in sel.indices) for outcome in d.pmf])


def is_poorer(u: DerivedVariable, v: DerivedVariable) -> bool:
    """u ⪯ v: u is a function of v on the support."""
    _require_same_base(u, v)
    value_on_class: dict[int, int] = {}
    for ul, vl in zip(u.labels, v.labels):
        prev = value_on_class.setdefault(vl, ul)
        if prev != ul:
            return False
    return True


def is_equivalent(u: DerivedVariable, v: DerivedVariable) -> bool:
    """u ≅ v: the canonical labelings induce identical support partitions."""
    _require_same_base(u, v)
    return u.labels == v.labels


def join(u: DerivedVariable, v: DerivedVariable) -> DerivedVariable:
    """Least upper bound: the pair variable (u, v)."""
    _require_same_base(u, v)
    return DerivedVariable(u.base, zip(u.labels, v.labels))


def meet(u: DerivedVariable, v: DerivedVariable) -> DerivedVariable:
    """Greatest lower bound: the common random variable of u and v.

    Labels are the connected components of the bipartite graph on u-labels
    and v-labels with an edge wherever a support outcome carries both.
    """
    _require_same_base(u, v)
    nu = u.n_labels
    uf = _UnionFind(nu + v.n_labels)
    for ul, vl in zip(u.labels, v.labels):
        uf.union(ul, nu + vl)
    return DerivedVariable(u.base, [uf.find(ul) for ul in u.labels])
