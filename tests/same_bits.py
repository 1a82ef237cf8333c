"""Digests of full reports, for checking that a change keeps every bit.

Prints one line per input class: its name, the number of reports, the
Newton systems those reports solved (calls of ``union_info._newton_solve``)
and a SHA-256 of the ``repr`` of each report in order.  A report that raises
with a typed error contributes the error's ``repr`` and, for a convergence
error, its value and gap; any other error stops the script.  The classes:

* ``corpus``: the five corpus circuits;
* ``binary-n3``: n = 3 binary, seeds 400-409;
* ``mixed``: the twelve reports of the mixed Newton-step budget test (n = 4
  binary and n = 3 ternary, zero fractions 0 and 0.2, seeds 0-2);
* ``random``: 88 inputs, n = 3 binary seeds 0-29, n = 4 binary seeds 0-7
  and n = 3 ternary seeds 0-5, each at zero fractions 0 and 0.3;
* ``tol 1e-10``, ``tol 1e-12``, ``tol 1e-20``: n = 3 binary seeds 400-411
  at each of those tolerances (bits);
* ``sparse``: X1 X2 X3 Y over alphabets of 2, 3, 3 and 3 symbols, with
  Dirichlet(0.1) masses over the cells in product order, seeds 0-29: mixed
  alphabets, masses many orders apart, the support LP, and typed errors
  from the barrier.

A claim that a change keeps every report's bits is one diff of this
script's output before and after it.  Run it from the repository root, at
one BLAS thread (about two seconds on one core)::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/same_bits.py

The name has no ``test_`` prefix, so pytest does not collect it.
"""

import hashlib
import sys
from itertools import product

import numpy as np

from pidirr import union_info
from pidirr.corpus import EXAMPLE_NAMES, load_example
from pidirr.distributions import JointDistribution, random_distribution
from pidirr.irreducibility import OrderingViolationError, full_report
from pidirr.union_info import UnionConvergenceError, UnionMeasure


def make_random(seed, n=3, alphabet=2, zeros=0.0):
    return random_distribution(np.random.default_rng(seed), n, alphabet, zeros)


def make_sparse(seed, concentration=0.1):
    cells = list(product("01", "012", "012", "012"))
    masses = np.random.default_rng(seed).dirichlet([concentration] * len(cells))
    return JointDistribution(("X1", "X2", "X3", "Y"), list(zip(cells, masses)))


def classes():
    """``(name, measure, distributions)`` per input class."""
    default = UnionMeasure()
    yield "corpus", default, [load_example(name).distribution for name in EXAMPLE_NAMES]
    yield "binary-n3", default, [make_random(seed) for seed in range(400, 410)]
    yield "mixed", default, [
        make_random(seed, n, a, z)
        for n, a in [(4, 2), (3, 3)] for z in (0.0, 0.2) for seed in range(3)
    ]
    yield "random", default, [
        make_random(seed, n, a, z)
        for n, a, seeds in [(3, 2, 30), (4, 2, 8), (3, 3, 6)]
        for z in (0.0, 0.3) for seed in range(seeds)
    ]
    for tolerance in (1e-10, 1e-12, 1e-20):
        yield (f"tol {tolerance:g}", UnionMeasure(tolerance=tolerance),
               [make_random(seed) for seed in range(400, 412)])
    yield "sparse", default, [make_sparse(seed) for seed in range(30)]


def main() -> int:
    systems = 0
    solve = union_info._newton_solve

    def counting(hess, g):
        nonlocal systems
        systems += 1
        return solve(hess, g)

    union_info._newton_solve = counting
    for name, measure, dists in classes():
        systems, digest = 0, hashlib.sha256()
        for d in dists:
            try:
                out = repr(full_report(d, measure))
            except UnionConvergenceError as exc:
                out = repr((exc, exc.value, exc.gap))
            except OrderingViolationError as exc:
                out = repr(exc)
            digest.update(out.encode())
            digest.update(b"\n")
        print(f"{name:<10} {len(dists):>3} reports {systems:>6} systems {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
