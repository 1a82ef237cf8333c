"""Certified ``[lower, upper]`` brackets of every union value the benchmark checks.

For each base instance and each family of parts that ``full_report`` scans,
the union information U (in bits) is bracketed by two independent means:

* lower: the Lagrange dual bound, valid for every multiplier vector λ,
  ``U >= H(Y) + [bᵀλ - max_x logsumexp_y (Aᵀλ)_xy] / ln 2``, with ``A``,
  ``b`` and ``xidx`` from the public ``MarginalPolytope``; λ maximises a
  smoothed max with L-BFGS under a falling temperature, and the exact bound
  is evaluated at every λ found.  The largest single-part mutual
  information is a lower bound too.
* upper: ``brute_force_union_oracle``, a separate search over feasible points.

A bracket wider than ``MAX_WIDTH`` is refused.  The corpus circuits also carry
their exact expected report rows.

Run ``python3 bench/brackets.py`` from the repository root to recompute
``bench/brackets.json``.
"""

from __future__ import annotations

import json
import math
import sys
from itertools import combinations
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from inputs import WORKLOADS, Instance, base_instances  # noqa: E402

BRACKETS_FILE = HERE / "brackets.json"

#: Widest bracket accepted, in bits.
MAX_WIDTH = 1e-7

#: A bound and the oracle may cross by rounding; more than this is an error.
CROSS_SLACK = 1e-9

REPORT_KEYS = ("whole_mi", "ibe", "ibdp", "ib2p", "ibap")

Family = tuple[tuple[int, ...], ...]


# -- families ---------------------------------------------------------------

def canonical(parts) -> Family:
    return tuple(sorted(tuple(sorted(p)) for p in parts))


def report_families(n: int) -> dict[str, list[Family]]:
    """The families ``full_report`` maximises over, per measure.

    The singletons, the bipartitions, the pairs of Almosts and all Almosts;
    the reductions to these from all partitions, all part pairs and all
    parts are theorems of the paper.
    """
    everyone = tuple(range(n))
    almosts = [tuple(j for j in everyone if j != i) for i in everyone]
    sides = [(0,) + rest for k in range(n - 1) for rest in combinations(everyone[1:], k)]
    return {
        "ibe": [canonical((i,) for i in everyone)],
        "ibdp": [canonical((s, tuple(j for j in everyone if j not in s))) for s in sides],
        "ib2p": [canonical(pair) for pair in combinations(almosts, 2)],
        "ibap": [canonical(almosts)],
    }


def distinct_families(n: int) -> list[Family]:
    seen: dict[Family, None] = {}
    for fams in report_families(n).values():
        for f in fams:
            seen.setdefault(f, None)
    return list(seen)


# -- information from the base rows (independent of the package) -------------

def _entropy(masses) -> float:
    m = np.asarray([v for v in masses if v > 0.0])
    return float(-(m * np.log2(m)).sum())


def _marginal(inst: Instance, cols) -> list[float]:
    acc: dict[tuple, float] = {}
    for o, p in inst.rows:
        k = tuple(o[c] for c in cols)
        acc[k] = acc.get(k, 0.0) + p
    return list(acc.values())


def mutual_information(inst: Instance, cols) -> float:
    y = inst.n_predictors
    return (_entropy(_marginal(inst, cols)) + _entropy(_marginal(inst, [y]))
            - _entropy(_marginal(inst, list(cols) + [y])))


# -- the dual bound ---------------------------------------------------------

def _group_lse(s: np.ndarray, xidx: np.ndarray, nx: int) -> np.ndarray:
    top = np.full(nx, -np.inf)
    np.maximum.at(top, xidx, s)
    sums = np.bincount(xidx, weights=np.exp(s - top[xidx]), minlength=nx)
    return top + np.log(sums)


def dual_value(lam, A, b, xidx, nx) -> float:
    """Exact dual objective in nats: a lower bound on min -H(Y|X)."""
    return float(b @ lam - _group_lse(A.T @ lam, xidx, nx).max())


def _smoothed(lam, A, b, xidx, nx, tau):
    s = A.T @ lam
    lse = _group_lse(s, xidx, nx)
    top = lse.max()
    wx = np.exp((lse - top) / tau)
    value = b @ lam - top - tau * math.log(wx.sum())
    wx /= wx.sum()
    p = wx[xidx] * np.exp(s - lse[xidx])
    return -value, -(b - A @ p)


def maximise_dual(A, b, xidx, nx, lam0) -> np.ndarray:
    from scipy.optimize import minimize

    best, best_val = lam0, dual_value(lam0, A, b, xidx, nx)
    lam = lam0
    for tau in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
        res = minimize(_smoothed, lam, args=(A, b, xidx, nx, tau), jac=True,
                       method="L-BFGS-B", options={"maxiter": 5000, "ftol": 1e-16, "gtol": 1e-13})
        lam = res.x
        val = dual_value(lam, A, b, xidx, nx)
        if val > best_val:
            best, best_val = lam, val
    return best


# -- brackets ---------------------------------------------------------------

def family_bracket(inst: Instance, family: Family) -> dict:
    from pidirr import (MarginalPolytope, PartFamily, PartSpec, brute_force_union_oracle,
                        parse_distribution)

    d = parse_distribution(inst.tsv())
    parts = [PartSpec(p) for p in family]
    upper = brute_force_union_oracle(d, PartFamily(tuple(parts)))
    part_mi = max(mutual_information(inst, p) for p in family)
    poly = MarginalPolytope(d, parts)
    A, b, xidx, nx = poly.A, poly.b, poly.xidx, poly.nx
    hy = _entropy(_marginal(inst, [inst.n_predictors]))
    lam = maximise_dual(A, b, xidx, nx, np.zeros(len(b)))
    dual = hy + dual_value(lam, A, b, xidx, nx) / math.log(2.0)
    lower = max(dual, part_mi)
    if lower > upper + CROSS_SLACK:
        raise ValueError(f"{inst.id} {family}: lower {lower!r} above upper {upper!r}")
    lower, upper = min(lower, upper), max(lower, upper)
    if upper - lower > MAX_WIDTH:
        raise ValueError(f"{inst.id} {family}: bracket [{lower!r}, {upper!r}] "
                         f"wider than {MAX_WIDTH}")
    return {"family": [list(p) for p in family], "lower": lower, "upper": upper,
            "dual": dual, "part_mi": part_mi}


def report_bracket(inst: Instance, families: list[dict]) -> dict[str, list[float]]:
    """Brackets of the five report values implied by the family brackets."""
    whole = mutual_information(inst, range(inst.n_predictors))
    by_family = {canonical(f["family"]): f for f in families}
    out = {"whole_mi": [whole, whole]}
    for key, fams in report_families(inst.n_predictors).items():
        lo = max(by_family[f]["lower"] for f in fams)
        hi = max(by_family[f]["upper"] for f in fams)
        out[key] = [min(max(whole - hi, 0.0), whole), min(max(whole - lo, 0.0), whole)]
    return out


def _check_generator(inst: Instance) -> None:
    """The regenerated rows equal what ``pidirr.random_distribution`` draws."""
    from pidirr import random_distribution

    spec = inst.spec
    d = random_distribution(np.random.default_rng(spec["seed"]), n_predictors=spec["n"],
                            alphabet_size=spec["alphabet_size"],
                            zero_fraction=spec["zero_fraction"])
    theirs = dict(d.pmf)
    ours = dict(inst.rows)
    if theirs.keys() != ours.keys() or max(abs(theirs[k] - ours[k]) for k in ours) > 1e-15:
        raise ValueError(f"{inst.id}: regenerated input differs from random_distribution")


def compute(workload: str) -> list[dict]:
    from pidirr.corpus import load_example

    entries = []
    for inst in base_instances(workload):
        if "seed" in inst.spec:
            _check_generator(inst)
        families = [family_bracket(inst, f) for f in distinct_families(inst.n_predictors)]
        if workload == "cli-corpus":
            expected = load_example(inst.id).expected
            report = {k: [v, v] for k, v in zip(REPORT_KEYS, expected)}
        else:
            report = report_bracket(inst, families)
        entries.append({"id": inst.id, "spec": inst.spec, "digest": inst.digest(),
                        "families": families, "report": report})
        print(f"{workload} {inst.id}: {len(families)} families, widest "
              f"{max(f['upper'] - f['lower'] for f in families):.2e} bits", file=sys.stderr)
    return entries


def load() -> dict:
    return json.loads(BRACKETS_FILE.read_text())


def main() -> int:
    data = {"max_width_bits": MAX_WIDTH, "workloads": {w: compute(w) for w in WORKLOADS}}
    BRACKETS_FILE.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
