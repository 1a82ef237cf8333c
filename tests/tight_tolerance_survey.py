"""Survey of full reports at tight tolerances.

Runs ``full_report`` on 600 random distributions: n = 3 at alphabets 2 and
3 and n = 4 binary, at zero fractions 0, 0.1, 0.2, 0.3 and 0.5, with seeds
0-39 of ``random_distribution(np.random.default_rng(seed), n, a, z)``.  For
each of the tolerances 1e-10, 1e-11 and 1e-12 bits it prints how many
reports raised, which ones, the Newton steps (``union_info._newton_solve``
calls) the 600 reports took, and its margin: the largest final gap
``(value - lower) / tolerance`` among the families that closed, those with
``value - lower <= tolerance``: a dominated family that stopped with a wider
gap is left out.  It
exits non-zero if any report raises at 1e-10 or 1e-11; at 1e-12 failures
are printed, not fatal.

Run it from the repository root, at one BLAS thread to match the quoted
times (about 40 s on one core)::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/tight_tolerance_survey.py

The name has no ``test_`` prefix, so pytest does not collect it.
"""

import sys
import time
import warnings

import numpy as np

from pidirr import union_info
from pidirr.distributions import random_distribution
from pidirr.irreducibility import OrderingViolationError, full_report
from pidirr.union_info import UnionConvergenceError, UnionMeasure

SHAPES = [(3, 2), (3, 3), (4, 2)]
ZERO_FRACTIONS = [0.0, 0.1, 0.2, 0.3, 0.5]
SEEDS = range(40)
#: Tolerance (bits) and whether a failure there fails the survey.
TOLERANCES = [(1e-10, True), (1e-11, True), (1e-12, False)]


def main() -> int:
    warnings.simplefilter("error", RuntimeWarning)
    inputs = [
        (seed, n, a, z)
        for n, a in SHAPES for z in ZERO_FRACTIONS for seed in SEEDS
    ]
    dists = [random_distribution(np.random.default_rng(s), n, a, z) for s, n, a, z in inputs]
    steps = 0
    solve = union_info._newton_solve

    def counting(*args, **kwargs):
        nonlocal steps
        steps += 1
        return solve(*args, **kwargs)

    union_info._newton_solve = counting
    gaps = []
    brackets = union_info._min_synergy_brackets

    def recording(*args, **kwargs):
        out = brackets(*args, **kwargs)
        gaps.extend(value - lower for value, lower in out)
        return out

    union_info._min_synergy_brackets = recording
    fatal = False
    for tolerance, required in TOLERANCES:
        measure = UnionMeasure(tolerance=tolerance)
        steps, failures, start = 0, [], time.perf_counter()
        gaps.clear()
        for args, d in zip(inputs, dists):
            try:
                full_report(d, measure)
            except (UnionConvergenceError, OrderingViolationError) as exc:
                failures.append((args, exc))
        seconds = time.perf_counter() - start
        margin = max(gap for gap in gaps if gap <= tolerance) / tolerance
        print(
            f"tol {tolerance:g}: {len(failures)} of {len(inputs)} reports raised, "
            f"{steps} Newton steps, {seconds:.1f} s, largest closed gap {margin:.3f} tol"
        )
        for (seed, n, a, z), exc in failures:
            print(f"  seed {seed}, n {n}, alphabet {a}, zero fraction {z}: {exc}")
        fatal |= required and bool(failures)
    return 1 if fatal else 0


if __name__ == "__main__":
    sys.exit(main())
