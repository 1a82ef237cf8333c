"""Independent check on minimum-synergy values, for tests and benchmarks.

:func:`brute_force_union_oracle` searches feasible points of the marginal
polytope on a stack that shares nothing with the barrier solver, so a value
the solver reports can be checked from above.  It is slow (about a second
per three-predictor family), which is why the package imports this module
only on first use of the name.
"""

from __future__ import annotations

import math
from itertools import product as iter_product
from typing import Iterable

import numpy as np
import scipy.linalg
import scipy.optimize

from .distributions import JointDistribution
from .parts import PartFamily, PartSpec

__all__ = ["brute_force_union_oracle"]

_LN2 = math.log(2.0)

#: Seeded feasible points sampled per search.
_N_SAMPLES = 1000

#: Local descents per search: from the base pmf and the best samples.
_N_POLISH = 8


def brute_force_union_oracle(
    d: JointDistribution,
    family: PartFamily | Iterable[PartSpec],
    seed: int = 20240901,
) -> float:
    """Upper-bound check on the minimum-synergy value by brute search.

    Samples ``_N_SAMPLES`` seeded feasible points of the marginal polytope,
    runs local descent from the ``_N_POLISH - 1`` most promising ones (plus
    the base pmf itself), and returns the best objective value seen.
    Convexity of the objective makes this an effective two-sided check: the
    production optimizer can never beat the true minimum, and this search
    closes in on it from above.  Deliberately built on a separate stack from
    the production path: SciPy null-space sampling, alternating minimization
    against the product reference with iterative proportional fitting for
    the marginal constraints, and an SLSQP polish on small instances.

    Restricted to bases with at most 64 support outcomes.
    """
    if not isinstance(family, PartFamily):
        family = PartFamily(tuple(family))
    if len(d.pmf) > 64:
        raise ValueError(f"oracle guarded at support <= 64, got {len(d.pmf)}")
    family.validate(d.n_predictors, allow_full=True)

    preds = d.predictor_indices
    t = d.target_index
    cells = list(iter_product(*d.alphabets))

    # Marginal tables recomputed from scratch, including zero rows.
    part_positions = [[preds[i] for i in p.member_indices] for p in family.parts]
    keyfuncs = [
        (lambda combo, pos=pos: tuple(combo[i] for i in pos) + (combo[t],))
        for pos in part_positions
    ]
    rows = []
    rhs = []
    forced_zero = np.zeros(len(cells), dtype=bool)
    for kf in keyfuncs:
        table: dict[tuple, float] = {}
        for outcome, p in d.pmf.items():
            table[kf(outcome)] = table.get(kf(outcome), 0.0) + p
        keys = sorted({kf(c) for c in cells})
        row_of = {k: i for i, k in enumerate(keys)}
        block = np.zeros((len(keys), len(cells)))
        for c, combo in enumerate(cells):
            k = kf(combo)
            block[row_of[k], c] = 1.0
            if table.get(k, 0.0) == 0.0:
                forced_zero[c] = True
        rows.append(block)
        rhs.extend(table.get(k, 0.0) for k in keys)
    A_full = np.vstack(rows)
    b_full = np.asarray(rhs)

    live = ~forced_zero
    A = A_full[:, live]
    keep_rows = ~(b_full == 0.0)
    A = A[keep_rows]
    b = b_full[keep_rows]
    # Marginal blocks overlap, so rows are linearly dependent; SLSQP wants a
    # full-row-rank equality system.  Keep a maximal independent row subset.
    if A.shape[0] > 1:
        _, _, pivots = scipy.linalg.qr(A.T, pivoting=True, mode="economic")
        rank = np.linalg.matrix_rank(A)
        keep = np.sort(pivots[:rank])
        A = A[keep]
        b = b[keep]

    index_of_cell = {c: i for i, c in enumerate(cells)}
    x_full = np.zeros(len(cells))
    for outcome, p in d.pmf.items():
        x_full[index_of_cell[outcome]] = p
    x0 = x_full[live]

    xkeys: dict[tuple, int] = {}
    ykeys: dict[str, int] = {}
    xidx, yidx = [], []
    for combo, alive in zip(cells, live):
        if not alive:
            continue
        xk = tuple(combo[i] for i in preds)
        xidx.append(xkeys.setdefault(xk, len(xkeys)))
        yidx.append(ykeys.setdefault(combo[t], len(ykeys)))
    xidx = np.asarray(xidx, dtype=np.intp)
    yidx = np.asarray(yidx, dtype=np.intp)
    nx, ny = len(xkeys), len(ykeys)
    dim = x0.size

    def objective(q: np.ndarray) -> float:
        qc = np.maximum(q, 0.0)
        qx = np.bincount(xidx, weights=qc, minlength=nx)
        qy = np.bincount(yidx, weights=qc, minlength=ny)
        return _neg_plogp(qx) + _neg_plogp(qy) - _neg_plogp(qc)

    def objective_and_grad(q: np.ndarray):
        eps = 1e-18
        qc = np.maximum(q, eps)
        qx = np.bincount(xidx, weights=qc, minlength=nx)
        qy = np.bincount(yidx, weights=qc, minlength=ny)
        val = _neg_plogp(qx) + _neg_plogp(qy) - _neg_plogp(qc)
        grad = (
            np.log2(qc) - np.log2(np.maximum(qx, eps))[xidx]
            - np.log2(np.maximum(qy, eps))[yidx]
        ) - 1.0 / _LN2
        return val, grad

    # Constraint blocks in gather form for iterative proportional fitting.
    ipf_blocks = []
    for kf in keyfuncs:
        table: dict[tuple, float] = {}
        for outcome, p in d.pmf.items():
            table[kf(outcome)] = table.get(kf(outcome), 0.0) + p
        keys = sorted(k for k in table)
        row_of = {k: i for i, k in enumerate(keys)}
        rows_idx = []
        for combo, alive in zip(cells, live):
            if alive:
                rows_idx.append(row_of[kf(combo)])
        ipf_blocks.append(
            (np.asarray(rows_idx, dtype=np.intp), np.asarray([table[k] for k in keys]))
        )
    py_cell = np.asarray([d.project(d.target_selector())[(c[t],)] for c, a in zip(cells, live) if a])

    def alternating_descent(start: np.ndarray, max_outer: int = 400) -> np.ndarray:
        """Minimize the objective by alternating the product reference and
        an I-projection (iterative proportional fitting) onto the marginals."""
        q = np.maximum(start, 0.0) + 1e-13
        q /= q.sum()
        prev = math.inf
        for _ in range(max_outer):
            rx = np.bincount(xidx, weights=q, minlength=nx)
            qn = rx[xidx] * py_cell
            for _ in range(300):
                worst = 0.0
                for rows_idx, bvals in ipf_blocks:
                    marg = np.bincount(rows_idx, weights=qn, minlength=bvals.size)
                    qn *= (bvals / np.maximum(marg, 1e-300))[rows_idx]
                    worst = max(worst, float(np.abs(marg - bvals).max()))
                if worst < 1e-12:
                    break
            val = objective(qn)
            q = qn
            if prev - val < 1e-13:
                break
            prev = val
        return q

    nullity = scipy.linalg.null_space(A) if A.size else np.eye(dim)
    best = objective(x0)
    starts = [x0]

    if nullity.size and nullity.shape[1] > 0:
        rng = np.random.Generator(np.random.PCG64(seed))
        k = nullity.shape[1]
        z = rng.standard_normal((_N_SAMPLES, k)) * (0.5 / math.sqrt(k))
        raw = x0[None, :] + z @ nullity.T
        # Shrink each ray toward the feasible base point until nonnegative.
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(raw < 0.0, x0[None, :] / (x0[None, :] - raw), 1.0)
        tmax = np.clip(np.nanmin(ratios, axis=1), 0.0, 1.0) * 0.999
        samples = x0[None, :] + tmax[:, None] * (raw - x0[None, :])
        np.maximum(samples, 0.0, out=samples)

        sx = samples @ _group_matrix(xidx, nx)
        sy = samples @ _group_matrix(yidx, ny)
        vals = (
            _neg_plogp_rows(sx) + _neg_plogp_rows(sy) - _neg_plogp_rows(samples)
        )
        order = np.argsort(vals)
        starts.extend(samples[i] for i in order[: _N_POLISH - 1])
        best = min(best, float(vals.min()))

    descended = []
    for start in starts:
        q = alternating_descent(start)
        feas = max(
            float(np.abs(np.bincount(ri, weights=q, minlength=bv.size) - bv).max())
            for ri, bv in ipf_blocks
        )
        if feas < 1e-8:
            descended.append(q)
            best = min(best, objective(q))

    if dim <= 200:
        polish_starts = starts[:1] + descended[:2]
        for start in polish_starts:
            res = scipy.optimize.minimize(
                objective_and_grad,
                start,
                jac=True,
                method="SLSQP",
                constraints=[
                    {"type": "eq", "fun": lambda q: A @ q - b, "jac": lambda q: A}
                ],
                bounds=[(0.0, 1.0)] * dim,
                options={"ftol": 1e-14, "maxiter": 400},
            )
            if res.x is not None:
                feas = np.abs(A @ res.x - b).max() if A.size else 0.0
                if feas < 1e-8:
                    best = min(best, objective(res.x))
    return float(best)


def _group_matrix(idx: np.ndarray, n: int) -> np.ndarray:
    g = np.zeros((idx.size, n))
    g[np.arange(idx.size), idx] = 1.0
    return g


def _neg_plogp(v: np.ndarray) -> float:
    vv = v[v > 0.0]
    return float(-(vv * np.log2(vv)).sum())


def _neg_plogp_rows(m: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(m > 0.0, m * np.log2(np.maximum(m, 1e-300)), 0.0)
    return -terms.sum(axis=1)
