from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from pidirr import irreducibility, union_info
from pidirr.distributions import JointDistribution, random_distribution
from pidirr.parts import PartSpec, PartitionSpec
from pidirr.corpus import EXAMPLE_NAMES, load_example

settings.register_profile(
    "pidirr",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("pidirr")


@pytest.fixture(scope="session")
def corpus():
    return {name: load_example(name) for name in EXAMPLE_NAMES}


@pytest.fixture(scope="session")
def xor(corpus):
    return corpus["xor"].distribution


@pytest.fixture(scope="session")
def xor_unique(corpus):
    return corpus["xor_unique"].distribution


@pytest.fixture(scope="session")
def double_xor(corpus):
    return corpus["double_xor"].distribution


@pytest.fixture(scope="session")
def triple_xor(corpus):
    return corpus["triple_xor"].distribution


@pytest.fixture(scope="session")
def parity(corpus):
    return corpus["parity"].distribution


def make_random(seed: int, n_predictors: int = 3, alphabet_size: int = 2, zero_fraction: float = 0.0):
    rng = np.random.default_rng(seed)
    return random_distribution(
        rng,
        n_predictors=n_predictors,
        alphabet_size=alphabet_size,
        zero_fraction=zero_fraction,
    )


#: ``all_partitions`` refuses more predictors: Bell(11) is 678570.
MAX_PARTITION_N = 10


def all_partitions(n: int) -> list[PartitionSpec]:
    """All set partitions of {0..n-1} with >= 2 blocks (Bell(n) - 1 items):
    the full enumeration that the reduced scans of the report are checked
    against.

    Enumerated via restricted growth strings, so the order is deterministic.
    """
    if n < 2:
        raise ValueError(f"need at least 2 predictors, got n={n}")
    if n > MAX_PARTITION_N:
        raise ValueError(f"set-partition enumeration guarded at n <= {MAX_PARTITION_N}")
    out = []
    for rgs in _restricted_growth_strings(n):
        nblocks = max(rgs) + 1
        if nblocks < 2:
            continue
        blocks = [[] for _ in range(nblocks)]
        for i, b in enumerate(rgs):
            blocks[b].append(i)
        out.append(PartitionSpec(tuple(PartSpec(b) for b in blocks)))
    return out


def _restricted_growth_strings(n: int):
    """Yield all restricted growth strings of length n in lexicographic order."""
    rgs = [0] * n

    def rec(i: int, m: int):
        if i == n:
            yield tuple(rgs)
            return
        for v in range(m + 2):
            rgs[i] = v
            yield from rec(i + 1, max(m, v))

    yield from rec(1, 0)


def make_sparse(seed: int, concentration: float = 0.1, alphabets=(2, 3, 3, 3)):
    """Predictors X1, X2, ... and a target Y last, over ``alphabets`` of
    symbols (X1 X2 X3 Y over 2, 3, 3 and 3 by default), with
    Dirichlet(``concentration``) masses over the cells in product order: at
    0.1 or 0.2 the smallest masses lie many orders below the rest."""
    cells = list(product(*([str(s) for s in range(a)] for a in alphabets)))
    masses = np.random.default_rng(seed).dirichlet([concentration] * len(cells))
    names = [f"X{i + 1}" for i in range(len(alphabets) - 1)] + ["Y"]
    return JointDistribution(names, list(zip(cells, masses)))


def reordered(d: JointDistribution, columns) -> JointDistribution:
    """``d`` with its variables in the order ``columns``, each a position in
    ``d.variables``; the target keeps its name, wherever it moves."""
    return JointDistribution(
        [d.variables[i] for i in columns],
        {tuple(outcome[i] for i in columns): p for outcome, p in d.pmf.items()},
        target=d.target,
    )


class Calls:
    """The calls of ``owner.name`` from the recorder's construction until
    ``monkeypatch`` is undone: ``count`` counts them, those that raised
    included, and ``calls`` holds each returned call's ``(args, result)`` in
    order.  ``Calls(monkeypatch, union_info, "_newton_solve").count`` is the
    number of Newton systems the solver hands to LAPACK."""

    def __init__(self, monkeypatch, owner, name):
        self.count, self.calls = 0, []
        function = getattr(owner, name)

        def recording(*args):
            self.count += 1
            result = function(*args)
            self.calls.append((args, result))
            return result

        monkeypatch.setattr(owner, name, recording)

    @property
    def results(self):
        return [result for _, result in self.calls]


class WriteLog(list):
    """A list that logs the index of each item it is assigned."""

    def __init__(self, values, log):
        super().__init__(values)
        self.log = log

    def __setitem__(self, i, value):
        self.log.append(i)
        super().__setitem__(i, value)


class Lockstep:
    """The calls of ``union_info._lockstep`` until ``monkeypatch`` is undone,
    each as ``(ids, done, written)``: the families it was handed, in order,
    the set of those ``_Brackets.done`` finds done at their starts, and the
    set of those whose bracket entries it assigned, through a
    :class:`WriteLog` on each end.  A call that raises is recorded too."""

    def __init__(self, monkeypatch):
        self.calls = []
        lockstep = union_info._lockstep

        def recording(stack, rows, start, ids, hy, brackets):
            done = {i for i, row_done in zip(ids, brackets.done(ids)) if row_done}
            writes = []
            brackets.lower = WriteLog(brackets.lower, writes)
            brackets.upper = WriteLog(brackets.upper, writes)
            try:
                lockstep(stack, rows, start, ids, hy, brackets)
            finally:
                brackets.lower, brackets.upper = list(brackets.lower), list(brackets.upper)
                self.calls.append((list(ids), done, set(writes)))

        monkeypatch.setattr(union_info, "_lockstep", recording)


def fail_support_lp(monkeypatch):
    """Make every support LP report failure, as ``linprog`` does on an
    infeasible program."""
    import scipy.optimize

    failed = SimpleNamespace(status=2, message="The problem is infeasible.")
    monkeypatch.setattr(scipy.optimize, "linprog", lambda *args, **kwargs: failed)


def empty_support_face(monkeypatch):
    """Make every support LP return an empty face, which misses the base
    support."""
    monkeypatch.setattr(union_info, "_maximal_support",
                        lambda a, b: (np.zeros(a.shape[1], dtype=bool), np.zeros(0)))


def zero_starts(monkeypatch):
    """Make every start the solver pulls zero."""
    monkeypatch.setattr(union_info, "_pull", lambda p, q: 0.0 * q)


def unordered_unions(monkeypatch):
    """Make each family's union the whole's mutual information over its
    number of parts, which puts IbAp (2/3 of the whole at n = 3, from the
    three Almosts) above Ib2p (1/2, from two-part pairs)."""
    solve = irreducibility._solve

    def unordered(m, d, families, scans=()):
        whole, _ = solve(m, d, families, scans)
        return whole, [whole / len(parts) for parts in families]

    monkeypatch.setattr(irreducibility, "_solve", unordered)
