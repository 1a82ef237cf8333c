"""Built-in example circuits with known irreducibility profiles.

Five distributions over binary-built variables, each uniform over its truth
table, spanning the full spectrum from "reducible to singletons" to "utterly
irreducible":

* ``xor``        - two inputs, the target is their XOR.
* ``xor_unique`` - an XOR's digit bit paired with a third input copied into
  the target's letter bit; irreducible to singletons yet fully reducible to
  the disjoint parts {X1 X2, X3}.
* ``double_xor`` - X2 carries two bits; the target's left bit XORs X1 with
  X2's high bit and its right bit XORs X2's low bit with X3.  Irreducible to
  any partition yet fully reducible to the part pair {X1 X2, X2 X3}.
* ``triple_xor`` - each input carries two bits; each target bit XORs one
  fresh bit from each of two inputs, arranged in a triangle so every
  two-input doublet determines exactly one target bit.  Irreducible to any
  pair of parts yet fully reducible to the three Almosts together.
* ``parity``     - three inputs, the target is their parity; no proper part
  conveys anything, so every notion of irreducibility saturates.

Tables are embedded as static rows rather than regenerated from gate
formulas, so a transcription slip surfaces as a test failure instead of a
silent reinterpretation.

All five are XOR-hypergraph circuits, which :func:`xor_circuit` builds at
any size, together with their exact profile: ``xor`` is the edge set
``{12}``, ``xor_unique`` ``{12}, {3}``, ``double_xor`` ``{12}, {23}``,
``triple_xor`` ``{12}, {13}, {23}`` and ``parity`` ``{123}``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Sequence

from .distributions import JointDistribution, _Value
from .irreducibility import _MEASURES, _scan_plan, full_report
from .union_info import UnionMeasure

__all__ = [
    "EXAMPLE_NAMES",
    "NamedExample",
    "load_example",
    "xor_circuit",
    "CorpusVerification",
    "verify_corpus",
]

_XOR_VARS = ("X1", "X2", "Y")
_XOR_ROWS = (
    ("0", "0", "0"),
    ("0", "1", "1"),
    ("1", "0", "1"),
    ("1", "1", "0"),
)

_XOR_UNIQUE_VARS = ("X1", "X2", "X3", "Y")
_XOR_UNIQUE_ROWS = (
    ("0", "0", "a", "0a"),
    ("0", "1", "a", "1a"),
    ("1", "0", "a", "1a"),
    ("1", "1", "a", "0a"),
    ("0", "0", "A", "0A"),
    ("0", "1", "A", "1A"),
    ("1", "0", "A", "1A"),
    ("1", "1", "A", "0A"),
)

_DOUBLE_XOR_VARS = ("X1", "X2", "X3", "Y")
_DOUBLE_XOR_ROWS = (
    ("0", "00", "0", "lr"),
    ("0", "01", "0", "lR"),
    ("0", "10", "0", "Lr"),
    ("0", "11", "0", "LR"),
    ("0", "00", "1", "lR"),
    ("0", "01", "1", "lr"),
    ("0", "10", "1", "LR"),
    ("0", "11", "1", "Lr"),
    ("1", "00", "0", "Lr"),
    ("1", "01", "0", "LR"),
    ("1", "10", "0", "lr"),
    ("1", "11", "0", "lR"),
    ("1", "00", "1", "LR"),
    ("1", "01", "1", "Lr"),
    ("1", "10", "1", "lR"),
    ("1", "11", "1", "lr"),
)

_TRIPLE_XOR_VARS = ("X1", "X2", "X3", "Y")
_TRIPLE_XOR_ROWS = (
    ("00", "00", "00", "000"),
    ("00", "00", "01", "001"),
    ("00", "00", "10", "010"),
    ("00", "00", "11", "011"),
    ("00", "01", "00", "001"),
    ("00", "01", "01", "000"),
    ("00", "01", "10", "011"),
    ("00", "01", "11", "010"),
    ("00", "10", "00", "100"),
    ("00", "10", "01", "101"),
    ("00", "10", "10", "110"),
    ("00", "10", "11", "111"),
    ("00", "11", "00", "101"),
    ("00", "11", "01", "100"),
    ("00", "11", "10", "111"),
    ("00", "11", "11", "110"),
    ("01", "00", "00", "010"),
    ("01", "00", "01", "011"),
    ("01", "00", "10", "000"),
    ("01", "00", "11", "001"),
    ("01", "01", "00", "011"),
    ("01", "01", "01", "010"),
    ("01", "01", "10", "001"),
    ("01", "01", "11", "000"),
    ("01", "10", "00", "110"),
    ("01", "10", "01", "111"),
    ("01", "10", "10", "100"),
    ("01", "10", "11", "101"),
    ("01", "11", "00", "111"),
    ("01", "11", "01", "110"),
    ("01", "11", "10", "101"),
    ("01", "11", "11", "100"),
    ("10", "00", "00", "100"),
    ("10", "00", "01", "101"),
    ("10", "00", "10", "110"),
    ("10", "00", "11", "111"),
    ("10", "01", "00", "101"),
    ("10", "01", "01", "100"),
    ("10", "01", "10", "111"),
    ("10", "01", "11", "110"),
    ("10", "10", "00", "000"),
    ("10", "10", "01", "001"),
    ("10", "10", "10", "010"),
    ("10", "10", "11", "011"),
    ("10", "11", "00", "001"),
    ("10", "11", "01", "000"),
    ("10", "11", "10", "011"),
    ("10", "11", "11", "010"),
    ("11", "00", "00", "110"),
    ("11", "00", "01", "111"),
    ("11", "00", "10", "100"),
    ("11", "00", "11", "101"),
    ("11", "01", "00", "111"),
    ("11", "01", "01", "110"),
    ("11", "01", "10", "101"),
    ("11", "01", "11", "100"),
    ("11", "10", "00", "010"),
    ("11", "10", "01", "011"),
    ("11", "10", "10", "000"),
    ("11", "10", "11", "001"),
    ("11", "11", "00", "011"),
    ("11", "11", "01", "010"),
    ("11", "11", "10", "001"),
    ("11", "11", "11", "000"),
)

_PARITY_VARS = ("X1", "X2", "X3", "Y")
_PARITY_ROWS = (
    ("0", "0", "0", "0"),
    ("0", "0", "1", "1"),
    ("0", "1", "0", "1"),
    ("0", "1", "1", "0"),
    ("1", "0", "0", "1"),
    ("1", "0", "1", "0"),
    ("1", "1", "0", "0"),
    ("1", "1", "1", "1"),
)

#: Each circuit's variables, truth-table rows and expected
#: (whole_mi, ibe, ibdp, ib2p, ibap), in bits.
_CIRCUITS = {
    "xor": (_XOR_VARS, _XOR_ROWS, (1.0, 1.0, 1.0, 1.0, 1.0)),
    "xor_unique": (_XOR_UNIQUE_VARS, _XOR_UNIQUE_ROWS, (2.0, 1.0, 0.0, 0.0, 0.0)),
    "double_xor": (_DOUBLE_XOR_VARS, _DOUBLE_XOR_ROWS, (2.0, 2.0, 1.0, 0.0, 0.0)),
    "triple_xor": (_TRIPLE_XOR_VARS, _TRIPLE_XOR_ROWS, (3.0, 3.0, 2.0, 1.0, 0.0)),
    "parity": (_PARITY_VARS, _PARITY_ROWS, (1.0, 1.0, 1.0, 1.0, 1.0)),
}

EXAMPLE_NAMES = tuple(_CIRCUITS)


class NamedExample(_Value):
    """A circuit's name, its distribution and its expected
    ``(whole_mi, ibe, ibdp, ib2p, ibap)``, in bits."""

    _fields = ("name", "distribution", "expected")


@lru_cache(maxsize=None)
def load_example(name: str) -> NamedExample:
    """One of the built-in circuits, uniform over its embedded truth table."""
    try:
        variables, rows, expected = _CIRCUITS[name]
    except KeyError:
        raise ValueError(
            f"unknown example {name!r}; choose from {', '.join(EXAMPLE_NAMES)}"
        ) from None
    mass = 1.0 / len(rows)
    dist = JointDistribution(variables, [(row, mass) for row in rows])
    return NamedExample(name=name, distribution=dist, expected=expected)


def xor_circuit(n: int, edges: Sequence[Sequence[int]]) -> NamedExample:
    """The XOR-hypergraph circuit on inputs X1..Xn with hyperedges ``edges``
    (nonempty sets of 0-based input indices), and its exact profile.

    Target bit j is the XOR of one fresh uniform bit from each input in
    ``edges[j]``; each input is the string of its fresh bits in edge order
    (``-`` for an input in no edge), and the target the string of its bits.

    The ``minsyn`` union of a family of parts is the number of edges that
    lie inside one of its parts, in bits.  Every feasible q keeps each such
    target bit a function of its part, so the whole determines those bits;
    and ``p(X, Y_inside) * uniform(Y_rest)`` keeps every part-target
    marginal, since each other bit misses a fresh bit of every part.  So
    the whole's mutual information is the number of edges, and each
    measure is that number less the largest count over its families.
    """
    edges = [tuple(sorted(set(e))) for e in edges]
    if not edges or any(not e or e[0] < 0 or e[-1] >= n for e in edges):
        raise ValueError(f"edges {edges} must be nonempty subsets of 0..{n - 1}")
    slots = [(i, j) for j, e in enumerate(edges) for i in e]  # one fresh bit each
    rows = []
    for bits in product("01", repeat=len(slots)):
        own = dict(zip(slots, bits))
        inputs = ["".join(own[i, j] for j, e in enumerate(edges) if i in e) or "-"
                  for i in range(n)]
        target = "".join(str(sum(int(own[i, j]) for i in e) % 2) for j, e in enumerate(edges))
        rows.append((tuple(inputs) + (target,), 0.5 ** len(slots)))
    distribution = JointDistribution([f"X{i + 1}" for i in range(n)] + ["Y"], rows)

    families, scans, _ = _scan_plan(n, _MEASURES)
    unions = [float(sum(any(set(e) <= set(p.member_indices) for p in parts) for e in edges))
              for parts in families]
    whole = float(len(edges))
    profile = [whole - max(unions[i] for i in scan) for scan in scans]
    name = "xor_circuit(" + ", ".join("".join(str(i + 1) for i in e) for e in edges) + ")"
    return NamedExample(name, distribution, (whole, *profile))


class VerificationRow(_Value):
    """One example's report next to its expected row."""

    _fields = ("name", "report", "expected")

    @property
    def max_abs_error(self) -> float:
        return max(abs(g - e) for g, e in zip(self.report.values(), self.expected))

    def ok(self, tol: float) -> bool:
        return self.max_abs_error <= tol


class CorpusVerification(_Value):
    """The rows of :func:`verify_corpus` and the tolerance they are held to."""

    _fields = ("rows", "tolerance")

    @property
    def mismatches(self) -> tuple[VerificationRow, ...]:
        return tuple(r for r in self.rows if not r.ok(self.tolerance))

    @property
    def all_ok(self) -> bool:
        return not self.mismatches

    def to_dict(self) -> dict:
        return {
            "tolerance": self.tolerance,
            "all_ok": self.all_ok,
            "rows": {
                r.name: {
                    "got": dict(zip(("whole_mi", *_MEASURES), r.report.values())),
                    "expected": dict(zip(("whole_mi", *_MEASURES), r.expected)),
                    "max_abs_error": r.max_abs_error,
                    "ok": r.ok(self.tolerance),
                }
                for r in self.rows
            },
        }


def verify_corpus(
    measure: UnionMeasure | None = None,
    names: Sequence[str] = EXAMPLE_NAMES,
) -> CorpusVerification:
    """Run :func:`full_report` on each named example (all by default) and
    compare it to its expected row, within the measure's tolerance."""
    measure = measure or UnionMeasure()
    rows = []
    for name in names:
        ex = load_example(name)
        rows.append(
            VerificationRow(
                name=name,
                report=full_report(ex.distribution, measure),
                expected=ex.expected,
            )
        )
    return CorpusVerification(rows=tuple(rows), tolerance=measure.tolerance)
