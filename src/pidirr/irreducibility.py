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
def _scan_plan(n: int, names: tuple[str, ...]) -> tuple[tuple, tuple, tuple]:
    """The plan of a scan of the measures ``names`` at ``n`` predictors: the
    distinct families of the named scans, each a tuple of parts, in
    first-seen order; each named scan's indices into them; and each named
    measure's witnesses, in enumeration order.  Only the named scans are
    enumerated.  Built once per ``(n, names)`` and shared, so all of it is
    tuples; :func:`_scan` only reads it."""
    enumerations = {
        "ibe": lambda: (PartFamily(tuple(PartSpec((i,)) for i in range(n))),),
        "ibdp": lambda: tuple(all_bipartitions(n)),
        "ib2p": lambda: tuple(almost_pairs(n)),
        "ibap": lambda: (PartFamily(tuple(almosts(n))),),
    }
    witnesses = tuple(enumerations[name]() for name in names)
    scanned = [[(w.family() if isinstance(w, PartitionSpec) else w).parts for w in found]
               for found in witnesses]
    families = tuple(dict.fromkeys(parts for scan in scanned for parts in scan))
    index = {parts: i for i, parts in enumerate(families)}
    return families, tuple(tuple(map(index.__getitem__, scan)) for scan in scanned), witnesses


def _scan(
    d: JointDistribution, m: UnionMeasure | None, *names: str
) -> tuple[float, list[tuple[float, PartFamily | PartitionSpec]]]:
    """The whole's mutual information and, for each named measure, its value
    and witness, from one :func:`pidirr.union_info._solve` call on the
    families of the named scans, in the order of their :func:`_scan_plan`
    (all four scans', for a full report).

    A measure's witnesses are its families in enumeration order: the
    singletons, the bipartitions, the Almost pairs or the Almosts.  The
    witness is the earliest one whose union is within ``m.tolerance`` of the
    largest, and the value is the whole minus the largest.  Only the
    families that may be within the tolerance of a scan's maximum are solved
    to the tolerance; a dominated one stands at an upper bound on its union
    more than the tolerance below it, and is never the witness (see
    :class:`pidirr.union_info._Brackets`).
    """
    n = d.n_predictors
    if n < 2:
        raise ValueError(f"irreducibility needs at least 2 predictors, got {n}")
    m = m or UnionMeasure()
    asked, scans, witnesses = _scan_plan(n, names)
    whole, unions = _solve(m, d, asked, scans)
    results = []
    for scan, scanned in zip(scans, witnesses):
        values = [unions[k] for k in scan]
        top = max(values)
        best = next(k for k, v in enumerate(values) if v >= top - m.tolerance)
        results.append((min(max(whole - top, 0.0), whole), scanned[best]))
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
    once.  A family stops, unsolved, once it is dominated (see
    :class:`pidirr.union_info._Brackets`).

    Raises :class:`OrderingViolationError` when a measure exceeds the next
    weaker one (``whole_mi`` last) by more than ``m.tolerance``, which
    certified union values cannot do.
    """
    m = m or UnionMeasure()
    whole, results = _scan(d, m, *_MEASURES)
    (v_ibe, _), (v_ibdp, bipartition), (v_ib2p, pair), (v_ibap, _) = results

    chain = list(zip(_VALUES, (whole, v_ibe, v_ibdp, v_ib2p, v_ibap)))[::-1]
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
