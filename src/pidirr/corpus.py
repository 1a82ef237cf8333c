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

Each is an XOR-hypergraph circuit, built by :func:`xor_circuit` together
with its exact profile: ``xor`` is the edge set ``{12}``, ``xor_unique``
``{12}, {3}``, ``double_xor`` ``{12}, {23}``, ``triple_xor`` ``{12}, {13},
{23}`` and ``parity`` ``{123}``.  ``xor_unique`` and ``double_xor`` rename
some of the circuit's bit strings to letters.  A slip in an edge or a symbol
map fails a test: the gate formula each circuit's rows must satisfy, the
paper's row of values each expected profile must equal, and the SHA-256 of
each circuit's TSV stored with the benchmark's brackets.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Sequence

from .distributions import JointDistribution, _Value
from .irreducibility import _VALUES, _scan_plan, full_report
from .union_info import UnionMeasure

__all__ = [
    "EXAMPLE_NAMES",
    "NamedExample",
    "load_example",
    "xor_circuit",
    "CorpusVerification",
    "verify_corpus",
]

#: Each circuit's input count, hyperedges and symbol maps, one map of the
#: circuit's symbols per renamed variable.
_CIRCUITS = {
    "xor": (2, [(0, 1)], {}),
    "xor_unique": (3, [(0, 1), (2,)], {
        "X3": {"0": "a", "1": "A"},
        "Y": {"00": "0a", "10": "1a", "01": "0A", "11": "1A"},
    }),
    "double_xor": (3, [(0, 1), (1, 2)], {"Y": {"00": "lr", "01": "lR", "10": "Lr", "11": "LR"}}),
    "triple_xor": (3, [(0, 1), (0, 2), (1, 2)], {}),
    "parity": (3, [(0, 1, 2)], {}),
}

EXAMPLE_NAMES = tuple(_CIRCUITS)


class NamedExample(_Value):
    """A circuit's name, its distribution and its expected
    ``(whole_mi, ibe, ibdp, ib2p, ibap)``, in bits."""

    _fields = ("name", "distribution", "expected")


@lru_cache(maxsize=None)
def load_example(name: str) -> NamedExample:
    """One of the built-in circuits, built from its hypergraph by
    :func:`xor_circuit`, with its symbols renamed and its exact profile."""
    try:
        n, edges, symbols = _CIRCUITS[name]
    except KeyError:
        raise ValueError(
            f"unknown example {name!r}; choose from {', '.join(EXAMPLE_NAMES)}"
        ) from None
    circuit = xor_circuit(n, edges)
    dist = circuit.distribution
    for variable, mapping in symbols.items():
        dist = dist.relabeled(variable, mapping)
    return NamedExample(name=name, distribution=dist, expected=circuit.expected)


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

    families, scans, _ = _scan_plan(n)
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
                    "got": dict(zip(_VALUES, r.report.values())),
                    "expected": dict(zip(_VALUES, r.expected)),
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
