"""Numerical check of the union-information property list.

:func:`check_axioms` evaluates a :class:`~pidirr.union_info.UnionMeasure` on a
suite of (distribution, part family) pairs and records, per property, the
worst violation in bits:

* ``GP`` - nonnegative, and zero when the target is constant;
* ``Eq`` - invariant under relabeling a member variable or the target;
* ``M0`` - appending a sub-part of a member changes nothing, and appending
  any part never lowers the value;
* ``S0`` - invariant under reordering the family;
* ``SR`` - a single part's union information is its mutual information;
* ``UB`` - never above the whole's mutual information.

A property passes when its worst violation is within the measure's
tolerance; its worst case is the earliest within that tolerance of the worst.
``pidirr axioms`` runs it; a report never does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .distributions import JointDistribution
from .parts import PartFamily, PartSpec, all_parts
from .union_info import (
    UnionMeasure,
    part_mutual_information,
    union_information,
    whole_mutual_information,
)

__all__ = ["AxiomResult", "AxiomReport", "check_axioms"]


@dataclass
class AxiomResult:
    """One property's ``cases``, ``(violation in bits, description)`` in the
    order checked.  Its ``worst_case`` is named as a report names its
    witness: the earliest case within ``tolerance`` of the worst violation.
    Violations that close to each other are ties, which rounding may order
    either way."""

    axiom: str
    tolerance: float = 0.0
    cases: list[tuple[float, str]] = field(default_factory=list)

    def record(self, violation: float, description: str) -> None:
        self.cases.append((violation, description))

    @property
    def n_cases(self) -> int:
        return len(self.cases)

    @property
    def worst_violation(self) -> float:
        return max((v for v, _ in self.cases), default=0.0)

    @property
    def worst_case(self) -> str:
        floor = self.worst_violation - self.tolerance
        return next((d for v, d in self.cases if v >= floor), "")

    def passed(self, tol: float) -> bool:
        return self.worst_violation <= tol


@dataclass
class AxiomReport:
    tolerance: float
    results: dict[str, AxiomResult] = field(default_factory=dict)

    AXIOMS = ("GP", "Eq", "M0", "S0", "SR", "UB")

    def result(self, axiom: str) -> AxiomResult:
        return self.results.setdefault(axiom, AxiomResult(axiom, self.tolerance))

    @property
    def all_passed(self) -> bool:
        return all(r.passed(self.tolerance) for r in self.results.values())

    def to_dict(self) -> dict:
        return {
            "tolerance": self.tolerance,
            "all_passed": self.all_passed,
            "axioms": {
                name: {
                    "passed": r.passed(self.tolerance),
                    "worst_violation": r.worst_violation,
                    "cases": r.n_cases,
                    "worst_case": r.worst_case,
                }
                for name, r in ((a, self.results[a]) for a in self.AXIOMS if a in self.results)
            },
        }


def _relabel_map(symbols: Sequence[str], salt: str) -> dict[str, str]:
    rotated = list(symbols[1:]) + [symbols[0]]
    return {s: f"{r}{salt}" for s, r in zip(symbols, rotated)}


def check_axioms(
    m: UnionMeasure, suite: Iterable[tuple[JointDistribution, PartFamily]]
) -> AxiomReport:
    """Numerically verify the union-information property list on a suite.

    Each suite entry is an input distribution paired with a part family.
    Violations are magnitudes in bits; an axiom passes when its worst
    violation over all applicable cases is within the measure tolerance.
    """
    report = AxiomReport(tolerance=m.tolerance)
    for item_no, (d, family) in enumerate(suite):
        n = d.n_predictors
        family.validate(n)
        label = f"item {item_no}"
        solved: dict[PartFamily, float] = {}

        def union(f: PartFamily) -> float:
            # S0's reversed family is the family itself, as PartFamily sorts
            # its parts, and M0's grown family may be the extended one: each
            # distinct family on d is solved once per item.
            if f not in solved:
                solved[f] = union_information(m, d, f)
            return solved[f]

        value = union(family)
        whole = whole_mutual_information(d)

        # GP: nonnegative, and zero when the target is constant.
        report.result("GP").record(max(0.0, -value), f"{label}: negative value")
        const_val = union_information(m, d.with_constant_target(), family)
        report.result("GP").record(abs(const_val), f"{label}: constant target")

        # Eq: invariance under relabeling a member variable and the target.
        preds = d.predictor_indices
        member_pos = preds[family.parts[0].member_indices[0]]
        member = d.variables[member_pos]
        relabeled = d.relabeled(member, _relabel_map(d.alphabets[member_pos], "~"))
        report.result("Eq").record(
            abs(union_information(m, relabeled, family) - value),
            f"{label}: relabel {member}",
        )
        tpos = d.target_index
        relabeled_y = d.relabeled(
            d.variables[tpos], _relabel_map(d.alphabets[tpos], "~")
        )
        report.result("Eq").record(
            abs(union_information(m, relabeled_y, family) - value),
            f"{label}: relabel target",
        )

        # M0 equality clause: appending W that is a sub-part of some member.
        wide = next((p for p in family.parts if len(p) >= 2), None)
        if wide is not None:
            w = PartSpec(wide.member_indices[:-1])
            if w not in family.parts:
                extended = PartFamily(family.parts + (w,))
                report.result("M0").record(
                    abs(union(extended) - value),
                    f"{label}: append sub-part",
                )
        # M0 monotonicity clause: appending any part never decreases the value.
        fresh = next((p for p in all_parts(n) if p not in family.parts), None)
        if fresh is not None:
            grown = PartFamily(family.parts + (fresh,))
            report.result("M0").record(
                max(0.0, value - union(grown)),
                f"{label}: append arbitrary part",
            )

        # S0: reordering the family.  PartFamily sorts its parts, so the
        # reversed family is the family itself and its value is read back
        # from `solved`: S0 holds by construction, with no solve of its own.
        reordered = PartFamily(tuple(reversed(family.parts)))
        report.result("S0").record(
            abs(union(reordered) - value), f"{label}: reorder"
        )

        # SR: a single part's union information is its mutual information.
        first = family.parts[0]
        report.result("SR").record(
            abs(
                union(PartFamily((first,)))
                - part_mutual_information(d, first)
            ),
            f"{label}: single part",
        )

        # UB: never exceeds the whole's mutual information.
        report.result("UB").record(
            max(0.0, value - whole), f"{label}: upper bound"
        )
    return report
