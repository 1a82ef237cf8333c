"""The four irreducibility measures of a whole's information about a target.

Each measure subtracts from the whole-target mutual information the largest
union information obtainable from a family of parts, for four successively
richer notions of "parts":

* ``ibe``  - the n singleton elements (weakest);
* ``ibdp`` - the best partition into disjoint parts, which is always realized
  by a bipartition, so only the ``2**(n-1) - 1`` bipartitions are scanned;
* ``ib2p`` - the best pair of (possibly overlapping) parts, always realized
  by a pair of Almosts, so only the ``n(n-1)/2`` Almost pairs are scanned;
* ``ibap`` - all parts at once, equivalently the n Almosts (strongest).

The reduced enumerations (bipartitions instead of all partitions, Almost
pairs instead of all part pairs, Almosts instead of all parts) are exact;
the test suite re-derives them against the full enumerations on random
inputs.  Values are clamped to ``[0, whole_mi]`` after subtraction, which
only removes rounding: the true value lies there.

Every union value is certified to lie at most the measure's ``tolerance``
above its minimum, and richer parts have a larger minimum, so the computed
measures may break the weakest-to-strongest chain by at most ``tolerance``
per link; :func:`full_report` raises on any larger break.
"""

from __future__ import annotations

from dataclasses import dataclass

from .distributions import JointDistribution
from .parts import (
    PartFamily,
    PartitionSpec,
    PartSpec,
    all_bipartitions,
    almost_pairs,
    almosts,
)
from .union_info import UnionMeasure, union_information_batch, whole_mutual_information

__all__ = [
    "OrderingViolationError",
    "IrreducibilityReport",
    "ibe",
    "ibdp",
    "ib2p",
    "ibap",
    "full_report",
]


class OrderingViolationError(RuntimeError):
    """A measure exceeds the next weaker one by more than the measure's
    tolerance, which certified union values cannot do: the union-information
    solver is at fault, not the input."""


@dataclass(frozen=True)
class IrreducibilityReport:
    """All four measures plus their argmax witnesses."""

    predictor_names: tuple[str, ...]
    target_name: str
    whole_mi: float
    ibe: float
    ibdp: float
    ib2p: float
    ibap: float
    witness_bipartition: PartitionSpec
    witness_almost_pair: PartFamily
    measure: UnionMeasure

    def values(self) -> tuple[float, float, float, float, float]:
        return (self.whole_mi, self.ibe, self.ibdp, self.ib2p, self.ibap)

    def _part_names(self, part: PartSpec) -> list[str]:
        return [self.predictor_names[i] for i in part.member_indices]

    def to_dict(self) -> dict:
        return {
            "whole_mi": self.whole_mi,
            "ibe": self.ibe,
            "ibdp": self.ibdp,
            "ib2p": self.ib2p,
            "ibap": self.ibap,
            "witnesses": {
                "ibdp_bipartition": [
                    self._part_names(b) for b in self.witness_bipartition.blocks
                ],
                "ib2p_almost_pair": [
                    self._part_names(p) for p in self.witness_almost_pair.parts
                ],
            },
            "settings": dict(self.measure.settings_dict(), target=self.target_name),
        }


def _scan(
    d: JointDistribution, m: UnionMeasure | None, *names: str
) -> tuple[float, list[tuple[float, PartFamily | PartitionSpec]]]:
    """The whole's mutual information and, for each named measure, its value
    and witness, with the union informations of all the named scans' families
    asked for in one call.

    A measure's witnesses are its families in enumeration order: the
    singletons, the bipartitions, the Almost pairs or the Almosts.  The
    witness is the one with the largest union; ties go to the earliest.
    """
    n = d.n_predictors
    if n < 2:
        raise ValueError(f"irreducibility needs at least 2 predictors, got {n}")
    singletons = [PartFamily(tuple(PartSpec((i,)) for i in range(n)))]
    bipartitions = all_bipartitions(n)
    pairs = almost_pairs(n)
    all_almosts = [PartFamily(tuple(almosts(n)))]
    table = {
        "ibe": (singletons, singletons),
        "ibdp": (bipartitions, [b.family() for b in bipartitions]),
        "ib2p": (pairs, pairs),
        "ibap": (all_almosts, all_almosts),
    }
    families = [f for name in names for f in table[name][1]]
    unions = iter(union_information_batch(m or UnionMeasure(), d, families))
    whole = whole_mutual_information(d)
    results = []
    for name in names:
        witnesses, scanned = table[name]
        values = [next(unions) for _ in scanned]
        best = max(range(len(values)), key=values.__getitem__)
        results.append((min(max(whole - values[best], 0.0), whole), witnesses[best]))
    return whole, results


def ibe(d: JointDistribution, m: UnionMeasure | None = None) -> float:
    """Information beyond the elements: whole minus the singletons' union."""
    _, [(value, _)] = _scan(d, m, "ibe")
    return value


def ibdp(d: JointDistribution, m: UnionMeasure | None = None) -> tuple[float, PartitionSpec]:
    """Information beyond disjoint parts, with the maximizing bipartition."""
    _, [(value, bipartition)] = _scan(d, m, "ibdp")
    return value, bipartition


def ib2p(d: JointDistribution, m: UnionMeasure | None = None) -> tuple[float, PartFamily]:
    """Information beyond two parts, with the maximizing Almost pair."""
    _, [(value, pair)] = _scan(d, m, "ib2p")
    return value, pair


def ibap(d: JointDistribution, m: UnionMeasure | None = None) -> float:
    """Information beyond all parts: whole minus the Almosts' union."""
    _, [(value, _)] = _scan(d, m, "ibap")
    return value


def full_report(d: JointDistribution, m: UnionMeasure | None = None) -> IrreducibilityReport:
    """All four measures and their witnesses.

    The union informations of all four scans' families (8 at n = 3, 15 at
    n = 4) are asked for in one call, so the barrier solver steps them in
    lockstep; a family shared by two scans (every family at n = 2) is solved
    once.

    Raises :class:`OrderingViolationError` when a measure exceeds the next
    weaker one (``whole_mi`` last) by more than ``m.tolerance``, which
    certified union values cannot do.
    """
    m = m or UnionMeasure()
    whole, results = _scan(d, m, "ibe", "ibdp", "ib2p", "ibap")
    (v_ibe, _), (v_ibdp, bipartition), (v_ib2p, pair), (v_ibap, _) = results

    chain = [("ibap", v_ibap), ("ib2p", v_ib2p), ("ibdp", v_ibdp), ("ibe", v_ibe), ("whole_mi", whole)]
    for (lo_name, lo), (hi_name, hi) in zip(chain, chain[1:]):
        if lo > hi + m.tolerance:
            raise OrderingViolationError(
                f"{lo_name}={lo!r} exceeds {hi_name}={hi!r} by more than the "
                f"tolerance {m.tolerance!r}; a union value is not certified, "
                f"so the union-information solver is at fault"
            )

    return IrreducibilityReport(
        predictor_names=tuple(d.variables[i] for i in d.predictor_indices),
        target_name=d.target or "",
        whole_mi=whole,
        ibe=v_ibe,
        ibdp=v_ibdp,
        ib2p=v_ib2p,
        ibap=v_ibap,
        witness_bipartition=bipartition,
        witness_almost_pair=pair,
        measure=m,
    )
