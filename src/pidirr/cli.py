"""Command-line front end.

Subcommands: ``compute`` (the four irreducibility measures of a distribution
file), ``axioms`` (numerical verification of the union-measure property
list), ``examples`` (the built-in circuits against their expected rows),
``enumerate`` (part/bipartition/Almost families), and ``lattice`` (order,
join, and meet diagnostics for variable groups).  The corpus, the property
checker and the lattice are imported by the handlers that use them, so a
``compute`` process loads only the modules a report runs.

Exit status: 0 on success, 1 on domain errors (unparseable input,
non-convergence, failed verification), 2 on usage errors.  Data goes to
stdout or ``--out``; diagnostics go to stderr.  JSON output is byte-stable
for identical flags: floats are printed with 9 decimal places and key order
is fixed.  Each command builds one payload and its human-readable lines,
and one helper renders them in the ``--format`` asked for: the payload as
JSON or TSV, or the lines.  Only ``enumerate --format tsv``, one family per
line, and ``examples --emit-tsv`` print text of their own.

:func:`main` runs one command and returns its exit status; it changes
nothing for the rest of the process, so tests call it in-process.
:func:`run` is the process entry, used by ``python -m pidirr.cli`` and by
the installed ``pidirr`` script: it calls :func:`main`, then
``gc.freeze()``, then exits with the status.  Freezing moves every object
the process has tracked (numpy's and the package's, most of them) to the
permanent generation, so the collection that interpreter shutdown runs
skips them instead of walking each one; that walk took about 20 ms of a
``compute`` process.  ``atexit`` handlers, the flush of stdout and stderr
and module teardown all still run, and the OS reclaims the memory.

The ``pidirr --help`` epilog says why to run with one BLAS thread on a
shared host.
"""

from __future__ import annotations

import argparse
import gc
import sys
from itertools import combinations
from pathlib import Path

import numpy as np

from .distributions import (
    DistributionError,
    JointDistribution,
    parse_distribution,
    random_distribution,
)
from .irreducibility import OrderingViolationError, full_report
from .parts import (
    MAX_PARTITION_N,
    PartFamily,
    PartSpec,
    all_bipartitions,
    all_parts,
    almost_pairs,
    almosts,
)
from .union_info import UnionConvergenceError, UnionMeasure

__all__ = ["main", "run"]


class UsageError(Exception):
    """Bad invocation that argparse cannot catch on its own."""


# ---------------------------------------------------------------------------
# Deterministic rendering
# ---------------------------------------------------------------------------

#: Keys whose float values are settings, not results: each prints as the
#: value it was run with, which 9 decimals may round away (``--tol 1e-10``).
_EXACT_KEYS = frozenset({"tolerance"})


def _fmt_float(v: float, exact: bool = False) -> str:
    """``v`` to 9 decimals; with ``exact``, in its shortest round-trip form
    (such as ``1e-10``) when 9 decimals do not hold it exactly."""
    if not (v == v and abs(v) != float("inf")):
        raise ValueError(f"refusing to emit non-finite value {v!r}")
    rounded = round(v, 9)
    if rounded == 0.0:
        rounded = 0.0  # normalize -0.0
    text = f"{rounded:.9f}"
    return repr(v) if exact and float(text) != v else text


#: JSON's escape of each character a string may not hold as it is: the
#: quote, the backslash and every control character, the last as ``\u00XX``
#: (never ``\n`` or ``\t``).
_JSON_ESCAPES = {code: f"\\u{code:04x}" for code in range(0x20)} | {
    ord('"'): '\\"', ord("\\"): "\\\\"}


def _scalar(v, key=None) -> str:
    """A payload's leaf under ``key``, as TSV prints every leaf and JSON
    every boolean or number: a float by :func:`_fmt_float`, exactly when
    ``key`` is one of ``_EXACT_KEYS``; a boolean as ``true`` or ``false``; a
    list's items joined by spaces; and anything else by ``str``."""
    if isinstance(v, float):
        return _fmt_float(v, key in _EXACT_KEYS)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (list, tuple)):
        return " ".join(_scalar(x) for x in v)
    return str(v)


def render_json(value, indent: int = 0, key=None) -> str:
    """Minimal JSON writer with stable key order; ``key`` is the key that
    ``value`` is held under, and each boolean or number is printed by
    :func:`_scalar`."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f"{inner}{_json_string(str(k))}: {render_json(v, indent + 1, k)}"
            for k, v in value.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(render_json(v, indent + 1) for v in value) + "]"
    if isinstance(value, (bool, int, float)):
        return _scalar(value, key)
    return "null" if value is None else _json_string(str(value))


def _json_string(s: str) -> str:
    return '"' + s.translate(_JSON_ESCAPES) + '"'


def _flatten(value, prefix: str = "") -> list[tuple[str, str]]:
    if isinstance(value, (list, tuple)) and any(isinstance(v, dict) for v in value):
        value = dict(enumerate(value))  # records: a row per field, keyed by index
    if isinstance(value, dict):
        rows: list[tuple[str, str]] = []
        for k, v in value.items():
            key = f"{prefix}.{k}" if prefix else str(k)
            rows.extend(_flatten(v, key))
        return rows
    if isinstance(value, (list, tuple)):
        return [(prefix, " | ".join(_scalar(v) for v in value))]
    return [(prefix, _scalar(value, prefix.rpartition(".")[2]))]


def render_tsv(payload: dict) -> str:
    return "\n".join(f"{k}\t{v}" for k, v in _flatten(payload)) + "\n"


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------

def _render(args, payload: dict, lines: list[str], status: int = 0) -> tuple[str, int]:
    """A command's output in ``args.format``, ``payload`` as JSON or TSV or
    the human-readable ``lines``, and its exit status."""
    if args.format == "json":
        return render_json(payload) + "\n", status
    if args.format == "tsv":
        return render_tsv(payload), status
    return "\n".join(lines) + "\n", status


def _measure_from(args) -> UnionMeasure:
    return UnionMeasure(kind=args.measure, tolerance=args.tol)


def _load_input(path: str, target: str | None) -> JointDistribution:
    text = Path(path).read_text(encoding="utf-8")
    d = parse_distribution(text)
    if target is not None and target != d.target:
        d = JointDistribution(d.variables, d.pmf, target=target)
    return d


def _part_label(names, part) -> str:
    return " ".join(names[i] for i in part.member_indices)


def _cmd_compute(args) -> tuple[str, int]:
    d = _load_input(args.input, args.target)
    if d.n_predictors < 2:
        raise UsageError(
            f"compute needs at least 2 predictor variables, got {d.n_predictors}"
        )
    report = full_report(d, _measure_from(args))
    names = report.predictor_names
    whole = f"I(whole;{report.target_name})"
    return _render(args, report.to_dict(), [
        f"{'source':<16}{whole:>14}{'IbE':>14}{'IbDp':>14}{'Ib2p':>14}{'IbAp':>14}",
        f"{Path(args.input).name:<16}"
        + "".join(f"{_fmt_float(v):>14}" for v in report.values()),
        "ibdp witness: {"
        + " | ".join(_part_label(names, b) for b in report.witness_bipartition.blocks)
        + "}",
        "ib2p witness: {"
        + ", ".join(_part_label(names, p) for p in report.witness_almost_pair.parts)
        + "}",
    ])


def _axiom_suite(args):
    from .corpus import EXAMPLE_NAMES, load_example

    if args.trials < 0:
        raise UsageError(f"axioms needs --trials >= 0, got {args.trials}")
    suite = []
    if args.input:
        dists = [_load_input(args.input, args.target)]
    else:
        dists = [load_example(name).distribution for name in EXAMPLE_NAMES]
    rng = np.random.default_rng(args.seed)
    for _ in range(args.trials):
        n = int(rng.integers(2, 4))
        dists.append(random_distribution(rng, n_predictors=n))
    for d in dists:
        n = d.n_predictors
        if n < 2:
            raise UsageError("axioms needs at least 2 predictor variables")
        suite.append((d, PartFamily(tuple(PartSpec((i,)) for i in range(n)))))
        if n >= 3:
            suite.append((d, almost_pairs(n)[0]))
    return suite


def _cmd_axioms(args) -> tuple[str, int]:
    from .axioms import check_axioms

    report = check_axioms(_measure_from(args), _axiom_suite(args))
    lines = [f"{'axiom':<6}{'passed':<9}{'worst violation':>18}  cases"]
    for r in report.results:
        lines.append(
            f"{r.axiom:<6}{_scalar(r.passed):<9}"
            f"{_fmt_float(r.worst_violation):>18}  {len(r.cases)}"
        )
    lines.append(f"all passed: {_scalar(report.all_passed)}")
    return _render(args, report.to_dict(), lines, 0 if report.all_passed else 1)


def _cmd_examples(args) -> tuple[str, int]:
    from .corpus import EXAMPLE_NAMES, load_example, verify_corpus

    if args.name is not None:
        try:
            example = load_example(args.name)
        except ValueError as exc:  # an unknown name; the message lists them
            raise UsageError(str(exc)) from None
    if args.emit_tsv:
        if not args.name:
            raise UsageError("--emit-tsv needs --name")
        return example.distribution.to_tsv(), 0
    names = (args.name,) if args.name else EXAMPLE_NAMES
    verification = verify_corpus(_measure_from(args), names=names)
    lines = [
        f"{'example':<12}{'I(whole;Y)':>12}{'IbE':>8}{'IbDp':>8}{'Ib2p':>8}{'IbAp':>8}  status"
    ]

    def columns(values):
        return f"{values[0]:>12.3f}" + "".join(f"{v:>8.3f}" for v in values[1:])

    for r in verification.rows:
        ok = r.ok(verification.tolerance)
        lines.append(f"{r.name:<12}" + columns(r.report.values()) + ("  ok" if ok else "  MISMATCH"))
        if not ok:
            lines.append(f"{'expected':<12}" + columns(r.expected))
    return _render(args, verification.to_dict(), lines, 0 if verification.all_ok else 1)


#: Each ``enumerate --what`` choice's families of n predictors, each as its parts.
_FAMILIES = {
    "parts": lambda n: [(p,) for p in all_parts(n)],
    "bipartitions": lambda n: [b.blocks for b in all_bipartitions(n)],
    "almosts": lambda n: [(p,) for p in almosts(n)],
    "almost-pairs": lambda n: [f.parts for f in almost_pairs(n)],
}


def _cmd_enumerate(args) -> tuple[str, int]:
    n = args.n
    if not 2 <= n <= MAX_PARTITION_N:
        raise UsageError(f"enumerate needs 2 <= --n <= {MAX_PARTITION_N}, got {n}")
    names = [f"X{i + 1}" for i in range(n)]
    groups = [[_part_label(names, p) for p in parts] for parts in _FAMILIES[args.what](n)]
    if args.format == "tsv":  # one family per line, which no payload renders
        return "\n".join("\t".join(g) for g in groups) + "\n", 0
    payload = {"what": args.what, "n": n, "families": groups}
    return _render(args, payload, ["{" + " | ".join(g) + "}" for g in groups])


#: ``lattice``'s word for a relation, keyed by whether a is poorer than b
#: and whether b is poorer than a: each poorer than the other is equivalent.
_ORDER_WORDS = {
    (True, True): "equivalent to",
    (True, False): "poorer than",
    (False, True): "richer than",
    (False, False): "incomparable with",
}


def _cmd_lattice(args) -> tuple[str, int]:
    from .lattice import from_selector, is_equivalent, is_poorer, join, meet

    d = _load_input(args.input, args.target)
    if args.vars:
        groups = [(token, d.selector(*token.split(","))) for token in args.vars.split()]
    else:
        groups = [(name, d.selector(name)) for name in d.variables]
    derived = [(label, from_selector(d, sel)) for label, sel in groups]

    entropies = {label: var.entropy() for label, var in derived}
    relations = []
    pairs = []
    for (la, ua), (lb, ub) in combinations(derived, 2):
        relations.append(
            {
                "a": la,
                "b": lb,
                "a_poorer_b": is_poorer(ua, ub),
                "b_poorer_a": is_poorer(ub, ua),
                "equivalent": is_equivalent(ua, ub),
            }
        )
        pairs.append(
            {
                "a": la,
                "b": lb,
                "join_entropy": join(ua, ub).entropy(),
                "meet_entropy": meet(ua, ub).entropy(),
            }
        )
    payload = {
        "input": Path(args.input).name,
        "entropies": entropies,
        "relations": relations,
        "pairs": pairs,
    }
    lines = ["entropies (bits):"]
    for label, h in entropies.items():
        lines.append(f"  H({label}) = {_fmt_float(h)}")
    lines.append("order:")
    for rel in relations:
        mark = _ORDER_WORDS[rel["a_poorer_b"], rel["b_poorer_a"]]
        lines.append(f"  {rel['a']} {mark} {rel['b']}")
    lines.append("join/meet (bits):")
    for p in pairs:
        lines.append(
            f"  {p['a']} vs {p['b']}: H(join) = {_fmt_float(p['join_entropy'])}, "
            f"H(meet) = {_fmt_float(p['meet_entropy'])}"
        )
    return _render(args, payload, lines)


_HANDLERS = {
    "compute": _cmd_compute,
    "axioms": _cmd_axioms,
    "examples": _cmd_examples,
    "enumerate": _cmd_enumerate,
    "lattice": _cmd_lattice,
}


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(sub, input_required=False, with_measure=True):
    if with_measure:
        sub.add_argument("--measure", default="minsyn", choices=["minsyn", "maxmi"])
        sub.add_argument(
            "--tol", type=float, default=1e-6,
            help="each union value lies at most this many bits above its minimum "
            "(default: %(default)s)",
        )
    sub.add_argument("--out", default=None, help="write output here instead of stdout")
    sub.add_argument(
        "--format", default="json", choices=["json", "tsv", "human"]
    )
    if input_required is not None:
        sub.add_argument("--input", required=input_required, help="distribution TSV")
        sub.add_argument("--target", default=None, help="target variable name")


def build_parser() -> argparse.ArgumentParser:
    """The ``pidirr`` parser, with every command's options."""
    parser = argparse.ArgumentParser(
        prog="pidirr",
        description="Irreducibility measures of multivariate information.",
        epilog="On a host shared with other busy processes, run with "
        "OPENBLAS_NUM_THREADS=1 (or OMP_NUM_THREADS=1). The solves make many "
        "tiny BLAS calls, and BLAS worker threads competing for the cores slow "
        "them down: on a 2-core host running one other busy process, the "
        "triple_xor report took 6.7 s with the default thread count and 0.08 s "
        "with one thread.",
    )
    subs = parser.add_subparsers(dest="cmd", required=True)

    compute = subs.add_parser("compute", help="the four measures of one distribution")
    _add_common(compute, input_required=True)

    axioms = subs.add_parser("axioms", help="verify the union-measure property list")
    _add_common(axioms, input_required=False)
    axioms.add_argument("--trials", type=int, default=20, help="random distributions to add")
    axioms.add_argument("--seed", type=int, default=0, help="seed of the random distributions")

    examples = subs.add_parser("examples", help="built-in circuits vs expected values")
    _add_common(examples, input_required=None)
    examples.add_argument(
        "--name", default=None,
        help="only this built-in circuit (an unknown name lists them; default: all)",
    )
    examples.add_argument("--emit-tsv", action="store_true", help="dump the distribution instead")

    enum = subs.add_parser("enumerate", help="list part families")
    _add_common(enum, input_required=None, with_measure=False)
    enum.add_argument(
        "--what",
        required=True,
        choices=list(_FAMILIES),
    )
    enum.add_argument(
        "--n", type=int, required=True, help=f"number of predictors, 2 to {MAX_PARTITION_N}"
    )

    lattice = subs.add_parser("lattice", help="order/join/meet diagnostics")
    _add_common(lattice, input_required=True, with_measure=False)
    lattice.add_argument(
        "--vars",
        default=None,
        help="space-separated groups of comma-joined variable names",
    )
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        output, status = _HANDLERS[args.cmd](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (
        DistributionError,
        UnionConvergenceError,
        OrderingViolationError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        Path(args.out).write_text(output, encoding="utf-8")
    else:
        sys.stdout.write(output)
    return status


def run() -> None:
    """Run :func:`main` on ``sys.argv`` and exit the process with its status,
    after freezing every tracked object so that shutdown does not collect
    them (see the module docstring)."""
    status = main()
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":  # pragma: no cover
    run()
