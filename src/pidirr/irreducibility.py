"""The four irreducibility measures of a whole's information about a target.

Each measure subtracts from the whole-target mutual information the largest
union information obtainable from a family of parts, for four successively
richer notions of "parts".  All four, with their witnesses, are fields of
one :class:`IrreducibilityReport`, which :func:`full_report` computes in one
scan:

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

A measure's witness is the earliest family of its scan whose union lies
within the measure's ``tolerance`` of the scan's largest union; the value
is still the whole minus that largest union.  Certified unions are only
known to the tolerance, so families within it of the largest are ties, and
rounding cannot move the witness among them, as it could move an argmax
among unions that tie exactly in exact arithmetic.  A measure needs only
its scan's largest union and its witness, so a family stops unsolved once
it lies more than ``tolerance`` below the largest: once it is dominated, by
the rule of :class:`pidirr.union_info._Brackets`.  The values and
witnesses are therefore those of solving every family.

Every maximum is certified to lie at most the measure's ``tolerance`` above
its minimum, and richer parts have a larger minimum, so the computed
measures may break the weakest-to-strongest chain by at most ``tolerance``
per link; :func:`full_report` raises on any larger break.
"""

from __future__ import annotations

from functools import lru_cache

from .distributions import JointDistribution, _Value
from .parts import (
    PartFamily,
    PartitionSpec,
    PartSpec,
    all_bipartitions,
    almost_pairs,
    almosts,
)
from .union_info import UnionMeasure, _solve

__all__ = [
    "OrderingViolationError",
    "IrreducibilityReport",
    "full_report",
]


class OrderingViolationError(RuntimeError):
    """A measure exceeds the next weaker one by more than the measure's
    tolerance, which certified union values cannot do: the union-information
    solver is at fault, not the input."""


#: The four measures, weakest first, as :func:`full_report` computes them.
_MEASURES = ("ibe", "ibdp", "ib2p", "ibap")
#: A report's values, as :meth:`IrreducibilityReport.values` gives them and
#: as every payload names them: the whole's information, then the measures.
_VALUES = ("whole_mi", *_MEASURES)


class IrreducibilityReport(_Value):
    """All four measures plus their argmax witnesses."""

    _fields = (
        "predictor_names", "target_name", *_VALUES,
        "witness_bipartition", "witness_almost_pair", "measure",
    )

    def values(self) -> tuple[float, float, float, float, float]:
        return (self.whole_mi, self.ibe, self.ibdp, self.ib2p, self.ibap)

    def _part_names(self, part: PartSpec) -> list[str]:
        return [self.predictor_names[i] for i in part.member_indices]

    def to_dict(self) -> dict:
        return dict(
            zip(_VALUES, self.values()),
            witnesses={
                "ibdp_bipartition": [
                    self._part_names(b) for b in self.witness_bipartition.blocks
                ],
                "ib2p_almost_pair": [
                    self._part_names(p) for p in self.witness_almost_pair.parts
                ],
            },
            settings=dict(self.measure.settings_dict(), target=self.target_name),
        )


@lru_cache(maxsize=16)
def _scan_plan(n: int) -> tuple[tuple, tuple, tuple]:
    """The plan of a report's scan at ``n`` predictors: the distinct families
    of the four scans, each a tuple of parts, in first-seen order; each
    scan's indices into them; and each measure's witnesses, in enumeration
    order: the singletons, the bipartitions, the Almost pairs and the
    Almosts.  Built once per ``n`` and shared, so all of it is tuples;
    :func:`full_report` only reads it."""
    witnesses = (
        (PartFamily(tuple(PartSpec((i,)) for i in range(n))),),
        tuple(all_bipartitions(n)),
        tuple(almost_pairs(n)),
        (PartFamily(tuple(almosts(n))),),
    )
    scanned = [[(w.family() if isinstance(w, PartitionSpec) else w).parts for w in found]
               for found in witnesses]
    families = tuple(dict.fromkeys(parts for scan in scanned for parts in scan))
    index = {parts: i for i, parts in enumerate(families)}
    return families, tuple(tuple(map(index.__getitem__, scan)) for scan in scanned), witnesses


def full_report(d: JointDistribution, m: UnionMeasure | None = None) -> IrreducibilityReport:
    """All four measures and their witnesses, computed in one scan.

    The union informations of all four scans' families (8 at n = 3, 15 at
    n = 4) are asked for in one :func:`pidirr.union_info._solve` call, so the
    barrier solver steps them in lockstep; a family shared by two scans
    (every family at n = 2) is solved once.  A family stops, unsolved, once
    it is dominated (see :class:`pidirr.union_info._Brackets`); it is never
    a witness.

    Raises :class:`OrderingViolationError` when a measure exceeds the next
    weaker one (``whole_mi`` last) by more than ``m.tolerance``, which
    certified union values cannot do.
    """
    n = d.n_predictors
    if n < 2:
        raise ValueError(f"irreducibility needs at least 2 predictors, got {n}")
    m = m or UnionMeasure()
    families, scans, witnesses = _scan_plan(n)
    whole, unions = _solve(m, d, families, scans)
    values, found = [whole], []
    for scan, scanned in zip(scans, witnesses):
        scores = [unions[k] for k in scan]
        top = max(scores)
        values.append(min(max(whole - top, 0.0), whole))
        found.append(next(w for w, v in zip(scanned, scores) if v >= top - m.tolerance))
    _, bipartition, pair, _ = found

    chain = list(zip(_VALUES, values))[::-1]
    for (lo_name, lo), (hi_name, hi) in zip(chain, chain[1:]):
        if lo > hi + m.tolerance:
            raise OrderingViolationError(
                f"{lo_name}={lo!r} exceeds {hi_name}={hi!r} by more than the "
                f"tolerance {m.tolerance!r}; a union value is not certified, "
                f"so the union-information solver is at fault"
            )

    return IrreducibilityReport(
        predictor_names=tuple(d.variables[i] for i in d.predictor_indices),
        target_name=d.target,
        **dict(zip(_VALUES, values)),
        witness_bipartition=bipartition,
        witness_almost_pair=pair,
        measure=m,
    )
