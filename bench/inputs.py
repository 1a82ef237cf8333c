"""Seeded inputs of the benchmark workloads.

Each workload is a fixed list of base instances:

* ``binary-n3``: ``random_distribution(rng, n_predictors=3)`` for
  ``rng = numpy.random.default_rng(s)``, s = 400..409;
* ``ternary-zeros``: ``n_predictors=2, alphabet_size=3, zero_fraction=0.3``,
  s = 100..109;
* ``cli-corpus``: the five built-in circuits, as ``to_tsv()`` writes them.

The random instances are regenerated here with the same algorithm as
``pidirr.random_distribution`` so that a change to the package cannot change
the inputs; ``brackets.json`` stores a digest of every base instance and the
benchmark refuses to run when a regenerated instance differs from it.

The run seed picks a *presentation* of every base instance for every pass:
fresh variable names, fresh symbol labels in the same sort order, a shuffled
row order, and the order in which the instances of a pass run.  A
presentation is a different distribution to the program, so a report on it
is cold, but it poses the same numerical problem, and every union value and
all five report values are invariant under it, so the certified brackets of
the base instance apply unchanged.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import product

import numpy as np

BINARY_SEEDS = tuple(range(400, 410))
TERNARY_SEEDS = tuple(range(100, 110))
CORPUS_NAMES = ("xor", "xor_unique", "double_xor", "triple_xor", "parity")

WORKLOADS = ("binary-n3", "ternary-zeros", "cli-corpus")


@dataclass(frozen=True)
class Instance:
    """One base distribution: names ``X1..Xn, Y``, the target last."""

    id: str
    spec: dict
    variables: tuple[str, ...]
    rows: tuple[tuple[tuple[str, ...], float], ...]

    @property
    def n_predictors(self) -> int:
        return len(self.variables) - 1

    def tsv(self) -> str:
        lines = [f"# vars: {' '.join(self.variables)}  target: {self.variables[-1]}"]
        lines += ["\t".join(o) + f"\t{p!r}" for o, p in self.rows]
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.tsv().encode()).hexdigest()


@dataclass(frozen=True)
class Presented:
    """An instance as one pass shows it to the program."""

    instance: Instance
    tsv: str


def random_instance(seed: int, n_predictors: int, alphabet_size: int = 2,
                    zero_fraction: float = 0.0) -> Instance:
    """The distribution ``pidirr.random_distribution`` draws from ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    names = tuple(f"X{i + 1}" for i in range(n_predictors)) + ("Y",)
    symbols = tuple(str(k) for k in range(alphabet_size))
    outcomes = list(product(*([symbols] * len(names))))
    masses = rng.dirichlet([1.0] * len(outcomes))
    if zero_fraction > 0.0:
        kill = rng.random(len(outcomes)) < zero_fraction
        if kill.all():
            kill[int(rng.integers(len(outcomes)))] = False
        masses = masses * ~kill
        masses = masses / masses.sum()
    rows = tuple((o, float(m)) for o, m in zip(outcomes, masses) if m > 0.0)
    spec = {"seed": seed, "n": n_predictors, "alphabet_size": alphabet_size,
            "zero_fraction": zero_fraction}
    return Instance(f"s{seed}", spec, names, rows)


def corpus_instance(name: str, tsv: str) -> Instance:
    """A corpus circuit from the TSV that ``to_tsv()`` writes for it."""
    lines = tsv.strip().splitlines()
    variables = tuple(lines[0].split("vars:")[1].split("target:")[0].split())
    rows = []
    for line in lines[1:]:
        fields = line.split()
        rows.append((tuple(fields[:-1]), float(fields[-1])))
    spec = {"circuit": name, "n": len(variables) - 1}
    return Instance(name, spec, variables, tuple(rows))


def base_instances(workload: str) -> list[Instance]:
    if workload == "binary-n3":
        return [random_instance(s, 3) for s in BINARY_SEEDS]
    if workload == "ternary-zeros":
        return [random_instance(s, 2, 3, 0.3) for s in TERNARY_SEEDS]
    if workload == "cli-corpus":
        from pidirr.corpus import load_example

        return [corpus_instance(n, load_example(n).distribution.to_tsv()) for n in CORPUS_NAMES]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def _sorted_labels(rng: np.random.Generator, k: int, pool: int) -> list[str]:
    labels = [f"{chr(97 + j % 26)}{j}" for j in rng.choice(pool, size=k, replace=False)]
    return sorted(labels)


def present(inst: Instance, rng: np.random.Generator) -> Presented:
    """Fresh variable names, order-preserving symbol labels, shuffled rows.

    Predictor order and the sort order of every alphabet are kept, so the
    program enumerates cells in the same order and does the same arithmetic
    as on the base instance.
    """
    names = _sorted_labels(rng, len(inst.variables), 1000)
    relabel = []
    for col in range(len(inst.variables)):
        symbols = sorted({o[col] for o, _ in inst.rows})
        relabel.append(dict(zip(symbols, _sorted_labels(rng, len(symbols), 100))))
    rows = [(tuple(relabel[c][s] for c, s in enumerate(o)), p) for o, p in inst.rows]
    lines = [f"# vars: {' '.join(names)}  target: {names[-1]}"]
    lines += ["\t".join(rows[i][0]) + f"\t{rows[i][1]!r}" for i in rng.permutation(len(rows))]
    return Presented(inst, "\n".join(lines) + "\n")


def pass_inputs(instances: list[Instance], seed: int, pass_index: int) -> list[Presented]:
    """The presented inputs of one pass, in the order they run."""
    rng = np.random.default_rng([seed, pass_index])
    shown = [present(inst, rng) for inst in instances]
    return [shown[i] for i in rng.permutation(len(shown))]
