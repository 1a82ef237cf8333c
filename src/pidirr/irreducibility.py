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
inputs.  Values are clamped to ``[0, whole_mi]`` after subtraction - the
measure properties guarantee the true value lies there - and the pre-clamp
residual is kept as an optimizer-noise diagnostic.
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
    "ORDERING_SLACK",
    "OrderingViolationError",
    "IrreducibilityReport",
    "ibe",
    "ibdp",
    "ib2p",
    "ibap",
    "full_report",
]

#: Allowed numerical slack in the weakest-to-strongest ordering chain.
ORDERING_SLACK = 1e-6


class OrderingViolationError(RuntimeError):
    """The measure ordering chain failed beyond tolerance (optimizer failure)."""


@dataclass(frozen=True)
class IrreducibilityReport:
    """All four measures plus argmax witnesses and diagnostics."""

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
    residuals: tuple[tuple[str, float], ...]

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
            "residuals": dict(self.residuals),
        }


def _require_predictors(d: JointDistribution) -> int:
    n = d.n_predictors
    if n < 2:
        raise ValueError(f"irreducibility needs at least 2 predictors, got {n}")
    return n


def _best(values: list[float], whole: float) -> tuple[float, float, int]:
    """Whole minus the largest of ``values``, the union informations of a
    scan's families.

    Returns the value clamped to ``[0, whole]``, the pre-clamp residual, and
    the index of the maximizing family; ties go to the earliest
    (enumeration order).
    """
    best = max(range(len(values)), key=values.__getitem__)
    raw = whole - values[best]
    clamped = min(max(raw, 0.0), whole)
    return clamped, raw - clamped, best


def _scan(
    m: UnionMeasure, d: JointDistribution, families: list[PartFamily], whole: float
) -> tuple[float, float, int]:
    """:func:`_best` over ``families``, all solved in one call."""
    return _best(union_information_batch(m, d, families), whole)


def _singletons(n: int) -> PartFamily:
    return PartFamily(tuple(PartSpec((i,)) for i in range(n)))


def ibe(d: JointDistribution, m: UnionMeasure | None = None) -> float:
    """Information beyond the elements: whole minus the singletons' union."""
    n = _require_predictors(d)
    value, _, _ = _scan(m or UnionMeasure(), d, [_singletons(n)], whole_mutual_information(d))
    return value


def ibdp(d: JointDistribution, m: UnionMeasure | None = None) -> tuple[float, PartitionSpec]:
    """Information beyond disjoint parts, with the maximizing bipartition."""
    bipartitions = all_bipartitions(_require_predictors(d))
    families = [b.family() for b in bipartitions]
    value, _, best = _scan(m or UnionMeasure(), d, families, whole_mutual_information(d))
    return value, bipartitions[best]


def ib2p(d: JointDistribution, m: UnionMeasure | None = None) -> tuple[float, PartFamily]:
    """Information beyond two parts, with the maximizing Almost pair."""
    pairs = almost_pairs(_require_predictors(d))
    value, _, best = _scan(m or UnionMeasure(), d, pairs, whole_mutual_information(d))
    return value, pairs[best]


def ibap(d: JointDistribution, m: UnionMeasure | None = None) -> float:
    """Information beyond all parts: whole minus the Almosts' union."""
    fam = PartFamily(tuple(almosts(_require_predictors(d))))
    value, _, _ = _scan(m or UnionMeasure(), d, [fam], whole_mutual_information(d))
    return value


def full_report(d: JointDistribution, m: UnionMeasure | None = None) -> IrreducibilityReport:
    """All four measures, their witnesses, and clamp residuals.

    The union informations of all four scans' families (8 at n = 3, 15 at
    n = 4) are asked for in one call, so the barrier solver steps them in
    lockstep; a family shared by two scans (every family at n = 2) is solved
    once.

    Raises :class:`OrderingViolationError` when the computed values break
    the weakest-to-strongest chain by more than :data:`ORDERING_SLACK`,
    which signals an optimizer failure rather than a property of the input.
    """
    n = _require_predictors(d)
    m = m or UnionMeasure()
    whole = whole_mutual_information(d)

    bipartitions = all_bipartitions(n)
    pairs = almost_pairs(n)
    scans = [
        [_singletons(n)],
        [b.family() for b in bipartitions],
        pairs,
        [PartFamily(tuple(almosts(n)))],
    ]
    values = iter(union_information_batch(m, d, [f for fams in scans for f in fams]))
    scanned = [_best([next(values) for _ in fams], whole) for fams in scans]
    (v_ibe, r_ibe, _), (v_ibdp, r_ibdp, bi_best), (v_ib2p, r_ib2p, pair_best), (v_ibap, r_ibap, _) = scanned

    chain = [("ibap", v_ibap), ("ib2p", v_ib2p), ("ibdp", v_ibdp), ("ibe", v_ibe), ("whole_mi", whole)]
    for (lo_name, lo), (hi_name, hi) in zip(chain, chain[1:]):
        if lo > hi + ORDERING_SLACK:
            raise OrderingViolationError(
                f"{lo_name}={lo!r} exceeds {hi_name}={hi!r} beyond {ORDERING_SLACK}; "
                f"the union-information optimizer likely failed to converge"
            )

    return IrreducibilityReport(
        predictor_names=tuple(d.variables[i] for i in d.predictor_indices),
        target_name=d.target or "",
        whole_mi=whole,
        ibe=v_ibe,
        ibdp=v_ibdp,
        ib2p=v_ib2p,
        ibap=v_ibap,
        witness_bipartition=bipartitions[bi_best],
        witness_almost_pair=pairs[pair_best],
        measure=m,
        residuals=(
            ("ibe", r_ibe),
            ("ibdp", r_ibdp),
            ("ib2p", r_ib2p),
            ("ibap", r_ibap),
        ),
    )
