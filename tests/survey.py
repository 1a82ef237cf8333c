"""Survey of full reports: digests of their bits and the solver's gates.

Runs ``full_report`` on every input of ``classes()`` with numerical warnings
raised as errors, and prints one line per input class: its reports, those
that completed, barrier stalls (a ``UnionConvergenceError`` of the barrier
solver), other typed errors (a support-LP failure or an ordering violation),
the Newton systems the reports solved (``union_info._newton_solve`` calls),
the largest closed gap and a SHA-256 of the reports in order.  The closed
gap is ``(value - lower) / tolerance`` over the families with ``value -
lower <= tolerance`` (a dominated family that stopped wider is left out),
``-`` when none closed.  A report adds its ``repr`` to the digest, a typed
error its ``repr`` and, for a convergence error, its value and gap.  One
more line names the input of each stall and error; any other error stops
the survey with a traceback.  The classes:

* ``corpus``: the five corpus circuits;
* ``binary-n3``: n = 3 binary, seeds 400-409;
* ``mixed``: n = 4 binary and n = 3 ternary, zero fractions 0 and 0.2,
  seeds 0-2;
* ``random``: n = 3 binary seeds 0-29, n = 4 binary seeds 0-7 and n = 3
  ternary seeds 0-5, each at zero fractions 0 and 0.3;
* ``tol 1e-10``, ``tol 1e-12``, ``tol 1e-20``: n = 3 binary seeds 400-411
  at each of those tolerances (bits);
* ``tight 1e-10``, ``tight 1e-11``, ``tight 1e-12``: n = 3 at alphabets 2
  and 3 and n = 4 binary, zero fractions 0, 0.1, 0.2, 0.3 and 0.5, seeds
  0-39, at each of those tolerances: 600 reports each;
* ``Dirichlet(0.1)``, ``Dirichlet(0.2)``: ``make_sparse`` at seeds 0-99 and
  0-299, masses many orders apart.

It exits non-zero if any report raises in a ``STRICT`` class, on any error
but a barrier stall in a ``SPARSE`` class, or on fewer than ``COMPLETIONS``
completed reports in those; ``failures`` says why on stderr.  Wall times go
to stderr too, so a claim that a change keeps every report's bits is one
diff of the stdout before and after it.  Run it from the repository root,
at one BLAS thread (about 17 s on a 2-core host: 1 s up to ``tol 1e-20``,
13 s for the tight classes and 3 s for the sparse ones)::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/survey.py

The name has no ``test_`` prefix, so pytest does not collect it.
"""

import hashlib
import sys
import time
import warnings
from dataclasses import dataclass, field

import pytest

from conftest import Calls, make_random, make_sparse
from pidirr import union_info
from pidirr.corpus import EXAMPLE_NAMES, load_example
from pidirr.irreducibility import OrderingViolationError, full_report
from pidirr.union_info import UnionConvergenceError, UnionMeasure

#: Classes in which any report that raises fails the survey.
STRICT = ("tight 1e-10", "tight 1e-11")
#: Classes in which any error but a barrier stall fails the survey.
SPARSE = ("Dirichlet(0.1)", "Dirichlet(0.2)")
#: The fewest completed reports in the ``SPARSE`` classes that pass: the
#: count once the support LP ran on the base support's image ``A 1_S``.
COMPLETIONS = 371


def _randoms(inputs):
    """``(label, make_random(*args))`` for each ``args`` in ``inputs``."""
    return [(f"make_random{args}", make_random(*args)) for args in inputs]


def classes():
    """``(name, measure, inputs)`` per input class, each input a
    ``(label, distribution)`` pair."""
    default = UnionMeasure()
    yield "corpus", default, [(name, load_example(name).distribution) for name in EXAMPLE_NAMES]
    binary = [(seed, 3, 2, 0.0) for seed in range(400, 412)]
    yield "binary-n3", default, _randoms(binary[:10])
    yield "mixed", default, _randoms(
        (seed, n, a, z) for n, a in [(4, 2), (3, 3)] for z in (0.0, 0.2) for seed in range(3))
    yield "random", default, _randoms(
        (seed, n, a, z)
        for n, a, seeds in [(3, 2, 30), (4, 2, 8), (3, 3, 6)]
        for z in (0.0, 0.3) for seed in range(seeds)
    )
    for tolerance in (1e-10, 1e-12, 1e-20):
        yield f"tol {tolerance:g}", UnionMeasure(tolerance=tolerance), _randoms(binary)
    tight = [
        (seed, n, a, z)
        for n, a in [(3, 2), (3, 3), (4, 2)]
        for z in (0.0, 0.1, 0.2, 0.3, 0.5) for seed in range(40)
    ]
    for tolerance in (1e-10, 1e-11, 1e-12):
        yield f"tight {tolerance:g}", UnionMeasure(tolerance=tolerance), _randoms(tight)
    for concentration, seeds in [(0.1, 100), (0.2, 300)]:
        yield f"Dirichlet({concentration})", default, [
            (f"make_sparse({seed}, {concentration})", make_sparse(seed, concentration))
            for seed in range(seeds)
        ]


@dataclass
class Tally:
    """What one class's reports came to; ``stalls`` and ``errors`` hold
    ``(label, error)`` pairs."""

    name: str
    reports: int
    completed: int
    stalls: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    systems: int = 0
    closed_gap: str = "-"
    digest: str = ""

    def lines(self):
        yield (f"{self.name:<14} {self.reports:>3} reports {self.completed:>3} completed "
               f"{len(self.stalls):>2} stalls {len(self.errors):>2} errors "
               f"{self.systems:>6} systems gap {self.closed_gap:>5} tol {self.digest}")
        for label, exc in self.stalls:
            yield f"  stall: {label}: gap {exc.gap:.3g} bits"
        for label, exc in self.errors:
            yield f"  error: {label}: {exc}"


def failures(tallies):
    """Why the survey fails, one line per reason; none when it passes."""
    reasons = [f"{t.name}: {len(t.stalls) + len(t.errors)} of {t.reports} reports raised"
               for t in tallies if t.name in STRICT and (t.stalls or t.errors)]
    reasons += [f"{t.name}: {len(t.errors)} errors other than barrier stalls"
                for t in tallies if t.name in SPARSE and t.errors]
    completed = sum(t.completed for t in tallies if t.name in SPARSE)
    if completed < COMPLETIONS:
        reasons.append(f"{completed} sparse reports completed, fewer than {COMPLETIONS}")
    return reasons


def main() -> int:
    warnings.simplefilter("error", RuntimeWarning)
    patch, gaps, tallies = pytest.MonkeyPatch(), [], []
    systems = Calls(patch, union_info, "_newton_solve")
    brackets = union_info._min_synergy_brackets

    def recording(*args):
        out = brackets(*args)
        gaps.extend(value - lower for value, lower in out)
        return out

    patch.setattr(union_info, "_min_synergy_brackets", recording)
    start = time.perf_counter()
    for name, measure, inputs in classes():
        tally, digest = Tally(name, len(inputs), 0), hashlib.sha256()
        systems.count = 0
        gaps.clear()
        for label, d in inputs:
            try:
                out = repr(full_report(d, measure))
                tally.completed += 1
            except UnionConvergenceError as exc:
                out = repr((exc, exc.value, exc.gap))
                barrier = str(exc).startswith("minimum-synergy barrier solver")
                (tally.stalls if barrier else tally.errors).append((label, exc))
            except OrderingViolationError as exc:
                out = repr(exc)
                tally.errors.append((label, exc))
            digest.update(out.encode())
            digest.update(b"\n")
            systems.calls.clear()  # only the count is read
        tolerance = measure.tolerance
        closed = [gap for gap in gaps if gap <= tolerance]
        if closed:
            tally.closed_gap = f"{max(closed) / tolerance:.3f}"
        tally.systems, tally.digest = systems.count, digest.hexdigest()
        tallies.append(tally)
        print(*tally.lines(), sep="\n", flush=True)
        print(f"{name}: {time.perf_counter() - start:.1f} s", file=sys.stderr)
        start = time.perf_counter()
    reasons = failures(tallies)
    for reason in reasons:
        print(f"survey fails: {reason}", file=sys.stderr)
    return 1 if reasons else 0


if __name__ == "__main__":
    sys.exit(main())
