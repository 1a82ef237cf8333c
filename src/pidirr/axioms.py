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

S0 solves the family again with its parts in reverse order, which the
solver lays out and constrains in another order.  SR and UB take their
mutual informations from
:meth:`~pidirr.distributions.JointDistribution.mutual_information`, which
shares no code with the solver.

A property passes when its worst violation is within the measure's
tolerance; its worst case is the earliest within that tolerance of the worst.
``pidirr axioms`` runs it; a report never does.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .distributions import JointDistribution, VariableSelector, _Value
from .parts import PartFamily, PartSpec, all_parts
from .union_info import UnionMeasure, _solve

__all__ = ["AxiomResult", "AxiomReport", "check_axioms"]


class AxiomResult(_Value):
    """One property's ``cases``, ``(violation in bits, description)`` in the
    order checked.  Its ``worst_case`` is named as a report names its
    witness: the earliest case within ``tolerance`` of the worst violation.
    Violations that close to each other are ties, which rounding may order
    either way."""

    _fields = ("axiom", "tolerance", "cases")

    @property
    def worst_violation(self) -> float:
        return max((v for v, _ in self.cases), default=0.0)

    @property
    def worst_case(self) -> str:
        floor = self.worst_violation - self.tolerance
        return next((d for v, d in self.cases if v >= floor), "")

    @property
    def passed(self) -> bool:
        return self.worst_violation <= self.tolerance


class AxiomReport(_Value):
    """The :class:`AxiomResult` of each property that had a case, in the
    order GP, Eq, M0, S0, SR, UB."""

    _fields = ("tolerance", "results")

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_dict(self) -> dict:
        return {
            "tolerance": self.tolerance,
            "all_passed": self.all_passed,
            "axioms": {
                r.axiom: {
                    "passed": r.passed,
                    "worst_violation": r.worst_violation,
                    "cases": len(r.cases),
                    "worst_case": r.worst_case,
                }
                for r in self.results
            },
        }


def _relabel_map(symbols: Sequence[str], salt: str) -> dict[str, str]:
    rotated = list(symbols[1:]) + [symbols[0]]
    return {s: f"{r}{salt}" for s, r in zip(symbols, rotated)}


def _unions(
    m: UnionMeasure, d: JointDistribution, families: Sequence[tuple[PartSpec, ...]]
) -> list[float]:
    """The union information of each of ``families`` on ``d``, from one
    :func:`pidirr.union_info._solve` call on the distinct ones."""
    distinct = list(dict.fromkeys(families))
    unions = dict(zip(distinct, _solve(m, d, distinct)[1]))
    return [unions[f] for f in families]


def check_axioms(
    m: UnionMeasure, suite: Iterable[tuple[JointDistribution, PartFamily]]
) -> AxiomReport:
    """Numerically verify the union-information property list on a suite.

    Each suite entry is an input distribution paired with a part family.
    Violations are magnitudes in bits; an axiom passes when its worst
    violation over all applicable cases is within the measure tolerance.
    Each distribution's families are solved in one call: on ``d`` the
    family, its parts in reverse order, its first part alone and M0's
    extensions; on each constant-target or relabeled copy the family alone.
    """
    cases = {axiom: [] for axiom in ("GP", "Eq", "M0", "S0", "SR", "UB")}
    for item_no, (d, family) in enumerate(suite):
        n = d.n_predictors
        family.validate(n)
        label = f"item {item_no}"
        parts, preds, tpos = family.parts, d.predictor_indices, d.target_index

        # M0's extensions, (description, family, whether it keeps the value):
        # appending W that is a sub-part of some member, and any part.
        extensions = []
        wide = next((p for p in parts if len(p) >= 2), None)
        if wide is not None and (w := PartSpec(wide.member_indices[:-1])) not in parts:
            extensions.append(("append sub-part", PartFamily(parts + (w,)).parts, True))
        fresh = next((p for p in all_parts(n) if p not in parts), None)
        if fresh is not None:
            extensions.append(("append arbitrary part", PartFamily(parts + (fresh,)).parts, False))
        value, reordered, single, *extended = _unions(
            m, d, [parts, parts[::-1], parts[:1], *(f for _, f, _ in extensions)]
        )

        # GP: nonnegative, and zero when the target is constant.
        cases["GP"].append((max(0.0, -value), f"{label}: negative value"))
        [const_val] = _unions(m, d.with_constant_target(), [parts])
        cases["GP"].append((abs(const_val), f"{label}: constant target"))

        # Eq: invariance under relabeling a member variable and the target.
        member_pos = preds[parts[0].member_indices[0]]
        for pos, what in ((member_pos, d.variables[member_pos]), (tpos, "target")):
            relabeled = d.relabeled(d.variables[pos], _relabel_map(d.alphabets[pos], "~"))
            [moved] = _unions(m, relabeled, [parts])
            cases["Eq"].append((abs(moved - value), f"{label}: relabel {what}"))

        # M0: the sub-part leaves the value as it is; no part lowers it.
        for (what, _, keeps), v in zip(extensions, extended):
            cases["M0"].append(
                (abs(v - value) if keeps else max(0.0, value - v), f"{label}: {what}")
            )

        # S0: invariance under solving the parts in reverse order.
        cases["S0"].append((abs(reordered - value), f"{label}: reorder"))

        # SR: a single part's union information is its mutual information.
        # UB: never above the whole's mutual information.
        target = d.target_selector()
        first = VariableSelector(preds[i] for i in parts[0].member_indices)
        cases["SR"].append(
            (abs(single - d.mutual_information(first, target)), f"{label}: single part")
        )
        whole = d.mutual_information(d.whole_selector(), target)
        cases["UB"].append((max(0.0, value - whole), f"{label}: upper bound"))
    results = (AxiomResult(a, m.tolerance, tuple(found)) for a, found in cases.items() if found)
    return AxiomReport(m.tolerance, tuple(results))
