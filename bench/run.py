"""Benchmark of ``pidirr``: cold ``full_report`` latency, throughput and
certified correctness, with per-layer timings from a separate traced run.

Usage, from the root of a checkout::

    python3 bench/run.py --workload binary-n3 --seed 1 --seconds 15 --trace 0

Workloads (see ``bench/README.md``): ``binary-n3``, ``ternary-zeros`` and
``cli-corpus``.  One client, closed loop, serial: each report starts when the
previous one has ended.  A run measures whole passes over the workload's
inputs until ``--seconds`` have passed, with a fresh presentation of every
input in every pass, so each timed report is cold.  Every report is
checked against certified brackets from ``bench/brackets.json``.  Timings
are scaled to a reference host speed (``bench/speed.py``); the raw wall
times go to the run record.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of one traced pass and the tracing overhead.  A JSON run
record precedes the result, which is the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

#: A report value may lie this far outside its certified bracket (bits); it
#: is ``UnionMeasure``'s default tolerance.
TOL = 1e-6

REPORT_KEYS = ("whole_mi", "ibe", "ibdp", "ib2p", "ibap")

#: Fresh interpreters timed for ``setup_s``, after one untimed warm-up.
SETUP_SAMPLES = 16

#: Per-process limit for a ``pidirr compute`` run, in seconds.
CLI_TIMEOUT = 120

THREAD_VARS = ("PID_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

#: Load comes from one thread.  On a shared 2-core host, BLAS worker threads
#: made one ``triple_xor`` process take anywhere from 0.25 s to 7 s.
ONE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


# -- checking ---------------------------------------------------------------

def outside(value: float, bracket) -> float:
    """How far ``value`` lies outside ``[lower, upper]`` (0 inside)."""
    lo, hi = bracket
    return max(lo - value, value - hi, 0.0)


def judge(values, report_bracket: dict) -> float:
    """Largest distance of the five report values from their brackets."""
    return max(outside(v, report_bracket[k]) for k, v in zip(REPORT_KEYS, values))


class Outcome:
    """One attempted report: its time at reference speed, its raw wall time,
    and its values or its error."""

    __slots__ = ("input_id", "seconds", "wall", "values", "error", "err_bits")

    def __init__(self, input_id, seconds, values=None, error=None, wall=None):
        self.input_id, self.seconds = input_id, seconds
        self.wall = seconds if wall is None else wall
        self.values, self.error = values, error
        self.err_bits = None

    @property
    def failed(self) -> bool:
        return self.error is not None or self.err_bits > TOL


def check(outcomes: list[Outcome], brackets: dict) -> None:
    for o in outcomes:
        if o.error is None:
            o.err_bits = judge(o.values, brackets[o.input_id]["report"])


def timed_reports(shown, report, between=lambda: None, child=False) -> list[Outcome]:
    """Call ``report(tsv) -> five values`` on each input; an exception is a
    failed report, not a missing one.  ``between`` runs untimed after each;
    ``child`` is true when ``report`` waits on a child process."""
    from speed import Speedometer

    out = []
    for p in shown:
        values = error = None
        with Speedometer(child=child) as sp:
            try:
                values = report(p.tsv)
            except Exception as exc:  # a failing report is a result to count
                error = repr(exc)
        out.append(Outcome(p.instance.id, sp.scaled, values, error, wall=sp.wall))
        between()
    return out


def summary(outcomes: list[Outcome]) -> dict:
    completed = sum(o.error is None for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    return {
        "attempted": len(outcomes),
        "failed": failed,
        "report_p50_s": statistics.median(o.seconds for o in outcomes),
        "reports_per_s": completed / sum(o.seconds for o in outcomes),
        "pass_frac": (len(outcomes) - failed) / len(outcomes),
    }


# -- the program under test -------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return env


def pin_one_cpu() -> int:
    """Run this process and every process it starts on one CPU, the one
    the speedometer's ticks measure."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def setup_sample() -> tuple[float, float]:
    """Time of ``import pidirr`` in a fresh interpreter: at reference speed, and raw.

    The child times its import itself; its time is scaled by the ticks
    around the child.
    """
    from speed import Speedometer

    code = "import time; t = time.perf_counter(); import pidirr; print(time.perf_counter() - t)"
    with Speedometer(child=True) as sp:
        done = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
    raw = float(done.stdout.strip().splitlines()[-1])
    return raw / sp.factor, raw


def warm_up() -> None:
    """One report on an AND gate, which no workload contains, so that lazy
    set-up in numpy and scipy is not timed; the measured inputs stay cold."""
    from pidirr import JointDistribution, full_report

    rows = {("0", "0", "0"): 0.25, ("0", "1", "0"): 0.25, ("1", "0", "0"): 0.25,
            ("1", "1", "1"): 0.25}
    full_report(JointDistribution(("A", "B", "AND"), rows))


def cli_report(path: Path):
    """One ``pidirr compute`` process, timed from spawn to exit."""
    cmd = [sys.executable, "-m", "pidirr.cli", "compute", "--input", str(path), "--format", "json"]
    done = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=CLI_TIMEOUT)
    if done.returncode != 0:
        raise RuntimeError(f"exit {done.returncode}: {done.stderr.strip()}")
    payload = json.loads(done.stdout)
    return tuple(payload[k] for k in REPORT_KEYS)


def run_passes(workload, instances, seed, seconds, brackets):
    """Whole passes until ``seconds`` have passed.

    Set-up samples are taken between reports, spread over the run, so that
    one burst of interference from other tenants of the host does not move
    all of them.  Returns the outcomes, the set-up samples and the peak RSS.
    """
    from inputs import pass_inputs
    from pidirr import full_report, parse_distribution

    setup_sample()  # warm-up: the first import may write bytecode caches
    if workload != "cli-corpus":
        warm_up()
    outcomes, setup, rss_mb = [], [], None
    start = perf_counter()

    def between():
        due = len(setup) * seconds / SETUP_SAMPLES
        if len(setup) < SETUP_SAMPLES and perf_counter() - start >= due:
            setup.append(setup_sample())

    k = 0
    while k == 0 or perf_counter() - start < seconds:
        shown = pass_inputs(instances, seed, k)
        if workload == "cli-corpus":
            OUT.mkdir(exist_ok=True)
            paths = {p.tsv: OUT / f"cli-{os.getpid()}-{i}.tsv" for i, p in enumerate(shown)}
            for tsv, path in paths.items():
                path.write_text(tsv)
            outcomes += timed_reports(shown, lambda tsv: cli_report(paths[tsv]), between,
                                      child=True)
            for path in paths.values():
                path.unlink()
        else:
            # Parse before timing: the timed report is full_report alone.
            parsed = {p.tsv: parse_distribution(p.tsv) for p in shown}
            outcomes += timed_reports(shown, lambda tsv: full_report(parsed[tsv]).values(), between)
        if rss_mb is None:
            # Peak over set-up and the first pass, so that the number of
            # passes a faster program fits in the run does not move it.
            who = resource.RUSAGE_CHILDREN if workload == "cli-corpus" else resource.RUSAGE_SELF
            rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
        k += 1
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample())
    check(outcomes, brackets)
    return outcomes, setup, rss_mb


# -- traced run -------------------------------------------------------------

def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten samples beyond it (100 if n <= 10)."""
    return 100.0 * (1.0 - 10.0 / n) if n > 10 else 100.0


def percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def traced_pass(shown, brackets, tracer):
    """parse -> (build, union) per family -> scan -> render, under spans."""
    from brackets import distinct_families
    from pidirr import (MarginalPolytope, PartFamily, PartSpec, UnionMeasure, full_report,
                        parse_distribution, union_information)
    from pidirr.cli import render_json

    m = UnionMeasure()
    solves = []  # (input id, family, build s, union s, cells, null dim, value)
    outcomes = []
    for p in shown:
        iid = p.instance.id
        with tracer.span("report", iid) as root:
            try:
                with tracer.span("parse", iid):
                    d = parse_distribution(p.tsv)
                for fam in distinct_families(p.instance.n_predictors):
                    parts = tuple(PartSpec(q) for q in fam)
                    with tracer.span("build", iid) as b:
                        poly = MarginalPolytope(d, parts)
                    with tracer.span("union", iid) as u:
                        value = union_information(m, d, PartFamily(parts))
                    solves.append((iid, fam, b.duration, u.duration, len(poly.cells),
                                   poly.null_basis.shape[1], value))
                with tracer.span("scan", iid):
                    report = full_report(d, m)
                with tracer.span("render", iid):
                    render_json(report.to_dict())
            except Exception as exc:  # counted as a failed report
                error = repr(exc)
            else:
                error = None
        outcomes.append(Outcome(iid, root.duration, values=None if error else report.values(),
                                error=error))
    check(outcomes, brackets)
    return outcomes, solves


def untraced_pass(shown):
    from pidirr import full_report, parse_distribution
    from pidirr.cli import render_json

    t0 = perf_counter()
    for p in shown:
        try:
            render_json(full_report(parse_distribution(p.tsv)).to_dict())
        except Exception:  # counted in the traced pass
            pass
    return perf_counter() - t0


def layer_metrics(tracer, solves, brackets, untraced_s) -> dict:
    from brackets import canonical
    from spans import self_times

    busy: dict[str, float] = {}
    for s, own in zip(tracer.spans, self_times(tracer.spans)):
        busy[s.name] = busy.get(s.name, 0.0) + own
    traced_s = sum(s.duration for s in tracer.spans if s.name == "report")
    solve_s = [u - b for _, _, b, u, *_ in solves] or [0.0]
    tail_pct = tail_percentile(len(solve_s))
    errs = []
    for iid, fam, *_, value in solves:
        by_family = {canonical(f["family"]): f for f in brackets[iid]["families"]}
        f = by_family[canonical(fam)]
        errs.append(outside(value, (f["lower"], f["upper"])))
    ms = 1000.0
    return {
        "distributions.parse_ms": (busy.get("parse", 0.0) * ms, "ms"),
        "union_info.build_ms": (busy.get("build", 0.0) * ms, "ms"),
        "union_info.solve_ms": (sum(solve_s) * ms, "ms"),
        "union_info.solve_p50_ms": (statistics.median(solve_s) * ms, "ms"),
        "union_info.solve_tail_ms": (percentile(solve_s, tail_pct) * ms, "ms"),
        "union_info.solve_tail_pct": (tail_pct, "percent"),
        "union_info.solves": (len(solves), "count"),
        "union_info.cells": (sum(s[4] for s in solves), "count"),
        "union_info.null_dim": (sum(s[5] for s in solves), "count"),
        "union_info.bad_solves": (sum(e > TOL for e in errs), "count"),
        "union_info.max_err_bits": (max(errs, default=0.0), "bits"),
        "irreducibility.scan_ms": (busy.get("scan", 0.0) * ms, "ms"),
        "cli.render_ms": (busy.get("render", 0.0) * ms, "ms"),
        "bench.untraced_pass_s": (untraced_s, "s"),
        "bench.traced_pass_s": (traced_s, "s"),
        "bench.trace_overhead_s": (traced_s - untraced_s, "s"),
    }


# -- run record -------------------------------------------------------------

def noise_probe() -> list[float]:
    """Wall times of a fixed numpy loop; their spread shows how noisy the host is."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((60, 60))
    times = []
    for _ in range(3):
        t0 = perf_counter()
        for _ in range(40):
            np.linalg.svd(a)
        times.append(perf_counter() - t0)
    return times


def run_record(args, instances, found, extra) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env_found": found,
        "thread_env_used": {k: os.environ.get(k) for k in THREAD_VARS},
        "inputs": [dict(inst.spec, id=inst.id) for inst in instances],
        "noise_probe_s": noise_probe(),
        "noise_note": ("shared 2-core host: other tenants slow the same work by up to "
                       "1.8x for seconds at a time (see noise_probe_s); end-to-end times "
                       "are scaled to a reference speed, per-layer times are raw"),
        **extra,
    }


def result_line(correct, attempted, failed, metrics) -> str:
    return json.dumps({
        "correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pidirr" / "__init__.py").is_file():
        print(f"error: no pidirr package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    found = {k: os.environ.get(k) for k in THREAD_VARS}
    os.environ.pop("PID_THREADS", None)  # the default serial path is measured
    os.environ.update(ONE_THREAD)  # before numpy is first imported
    cpu = pin_one_cpu()

    from speed import reference_loop

    for _ in range(100):  # lazy set-up of the reference loop is not a tick
        reference_loop()

    from brackets import load
    from inputs import WORKLOADS, base_instances

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    instances = base_instances(args.workload)
    stored = {e["id"]: e for e in load()["workloads"][args.workload]}
    stale = [i.id for i in instances if stored.get(i.id, {}).get("digest") != i.digest()]
    if stale:
        print(f"error: inputs {stale} differ from bench/brackets.json; "
              f"rerun python3 bench/brackets.py", file=sys.stderr)
        return 3

    if args.trace:
        from inputs import pass_inputs
        from spans import Tracer

        import pidirr.cli  # noqa: F401  (imported before timing, like the untraced pass)

        warm_up()
        untraced_s = untraced_pass(pass_inputs(instances, args.seed, 0))
        tracer = Tracer()
        outcomes, solves = traced_pass(pass_inputs(instances, args.seed, 1), stored, tracer)
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{args.workload}-{args.seed}.json")
        metrics = layer_metrics(tracer, solves, stored, untraced_s)
        failed = sum(o.failed for o in outcomes)
        record = run_record(args, instances, found, {"cpu": cpu})
        print(json.dumps({"record": record}))
        print(result_line(failed == 0, len(outcomes), failed, metrics))
        return 0

    outcomes, setup, rss_mb = run_passes(args.workload, instances, args.seed, args.seconds,
                                         stored)
    s = summary(outcomes)
    record = run_record(args, instances, found, {
        "cpu": cpu,
        "setup_samples_s": [scaled for scaled, _ in setup],
        "setup_samples_raw_s": [raw for _, raw in setup],
        "report_seconds": [[o.input_id, o.seconds] for o in outcomes],
        "report_wall_seconds": [[o.input_id, o.wall] for o in outcomes],
        "failures": [{"id": o.input_id, "error": o.error, "err_bits": o.err_bits}
                     for o in outcomes if o.failed],
    })
    print(json.dumps({"record": record}))
    metrics = {
        "setup_s": (statistics.median(scaled for scaled, _ in setup), "s"),
        "report_p50_s": (s["report_p50_s"], "s"),
        "reports_per_s": (s["reports_per_s"], "1/s"),
        "pass_frac": (s["pass_frac"], "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    print(result_line(s["failed"] == 0, s["attempted"], s["failed"], metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
