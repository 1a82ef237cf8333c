from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from pidirr import irreducibility, union_info
from pidirr.distributions import JointDistribution, random_distribution
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


def make_sparse(seed: int):
    """X1 X2 X3 Y over alphabets of 2, 3, 3 and 3 symbols, with Dirichlet(0.1)
    masses over the cells in product order: the smallest masses lie many
    orders below the rest."""
    cells = list(product("01", "012", "012", "012"))
    masses = np.random.default_rng(seed).dirichlet([0.1] * len(cells))
    return JointDistribution(("X1", "X2", "X3", "Y"), list(zip(cells, masses)))


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
