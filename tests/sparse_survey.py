"""Survey of full reports on sparse inputs: masses many orders apart.

Runs ``full_report`` on 400 distributions of X1 X2 X3 Y over alphabets of 2,
3, 3 and 3 symbols, with Dirichlet masses over the cells in product order, as
``make_sparse`` in ``tests/same_bits.py`` builds them: concentration 0.1 at
seeds 0-99 and 0.2 at seeds 0-299, whose smallest masses lie many orders
below the rest.  Numerical warnings are raised as errors.  It prints how
many reports completed, each barrier stall (a ``UnionConvergenceError`` of
the barrier solver) with its seed and gap, and each other typed error of the
solver, a support-LP failure say, with its seed; any other error stops it
with a traceback.  It exits non-zero on any error but a barrier stall, or on
fewer than ``COMPLETIONS`` completed reports: the count once the support LP
ran on the base support's image ``A 1_S``, whose entries are small integers,
instead of on the masses.

Run it from the repository root, at one BLAS thread (about 4 s on one
core)::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/sparse_survey.py

The name has no ``test_`` prefix, so pytest does not collect it.
"""

import sys
import time
import warnings

from pidirr.irreducibility import full_report
from pidirr.union_info import UnionConvergenceError
from same_bits import make_sparse

#: Dirichlet concentration and seeds of the inputs.
INPUTS = [(0.1, range(100)), (0.2, range(300))]
#: The fewest completed reports that pass.
COMPLETIONS = 371


def main() -> int:
    warnings.simplefilter("error", RuntimeWarning)
    completed, stalls, errors, start = 0, [], [], time.perf_counter()
    for concentration, seeds in INPUTS:
        for seed in seeds:
            try:
                full_report(make_sparse(seed, concentration))
                completed += 1
            except UnionConvergenceError as exc:
                if str(exc).startswith("minimum-synergy barrier solver"):
                    stalls.append((concentration, seed, exc))
                else:
                    errors.append((concentration, seed, exc))
    total = sum(len(seeds) for _, seeds in INPUTS)
    print(f"{completed} of {total} reports completed, {len(stalls)} barrier stalls, "
          f"{len(errors)} other errors, {time.perf_counter() - start:.1f} s")
    for concentration, seed, exc in stalls:
        print(f"  stall: Dirichlet({concentration}) seed {seed}: gap {exc.gap:.3g} bits")
    for concentration, seed, exc in errors:
        print(f"  error: Dirichlet({concentration}) seed {seed}: {exc}")
    return 1 if errors or completed < COMPLETIONS else 0


if __name__ == "__main__":
    sys.exit(main())
