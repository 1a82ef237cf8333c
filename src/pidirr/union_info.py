"""Union information: what a family of parts conveys about the target in parallel.

Two measures are provided behind one configuration type:

* ``minsyn`` (default): the minimum, over all joint distributions q on the
  full outcome space that preserve every part-target marginal
  ``q(P_i, Y) = p(P_i, Y)``, of the whole-target mutual information
  ``I_q(X_all ; Y)``.  Every feasible q has the same ``H(Y)``, so this is a
  convex program in ``-H_q(Y | X_all)`` over a polytope.
* ``maxmi``: the largest single-part mutual information ``max_i I(P_i ; Y)``.
  A deliberately weak baseline kept to demonstrate that the irreducibility
  layer is measure-pluggable; it satisfies the same property list but does
  not reproduce the reference circuit values.

Both satisfy the six properties the irreducibility measures require
(nonnegativity and vanishing for constant targets, invariance under
equivalent relabelings, weak monotonicity under appending parts, order
invariance, single-part self-redundancy, and the whole-information upper
bound); :func:`check_axioms` verifies them numerically on a suite.

The minimization runs over the product of the declared alphabets, not the
base support, because the optimum generally moves mass onto outcomes the base
never produces; cells that a preserved marginal pins to zero are dropped.
The solver is a primal log-barrier method (Boyd & Vandenberghe, *Convex
Optimization*, ch. 11): damped Newton steps in the constraint null space on
``-H(Y|X) - mu * sum(ln q)``, from a strictly positive feasible point, with
``mu`` cut a hundredfold once a step starts near the centre.  Each Newton
system also gives multipliers ``z`` of the marginal constraints, and so the
Lagrange dual bound ``H(Y) + (z.x0 - max_x logsumexp_y z_xy) / ln 2`` on the
minimum.  The solver stops once its value is within a tenth of the tolerance
of that bound, or within 1e-11 bits of the largest single-part mutual
information, the other lower bound.

A barrier method needs only a strictly positive feasible start, and one rule
picks it: one sweep of iterative proportional fitting (IPF) over the live
cells, projected onto the constraints.  Where the base pmf is zero, that
sweep decides the face.  When it is not thin on any such cell (nowhere below
``_THIN_START`` of its largest cell), the face is every live cell.  The
start is then the sweep if it is strictly positive, else the point from the
base pmf towards it, half as far as positivity allows; that point is
positive where the base pmf is zero, since the sweep is, and elsewhere since
the base pmf is.  Otherwise some cells may be zero at every feasible point
without being pinned (cyclic families with structured zeros): one linear
program finds the largest feasible support and a positive point on it, and
the solver works on that face alone (facial reduction), from one IPF sweep
on the face pulled the same way from the LP's point.

The families asked for in one call (all of a report's, in
:func:`pidirr.irreducibility.full_report`) are solved in lockstep.
Polytopes with the same live-cell count become the rows of one batch, whose
Newton systems are assembled and solved by stacked numpy calls: on programs
this small a step's cost is numpy's per-call overhead, not arithmetic, so a
batch step costs about as much as one family's.  Each row keeps its own
iterates, ``mu`` schedule and certified stop, and leaves the batch when it
stops.  Values are memoized per measure and distribution, so no family is
solved twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from itertools import product as iter_product
from typing import Iterable, Sequence

import numpy as np

from .distributions import DistributionError, JointDistribution
from .parts import PartFamily, PartSpec, all_parts

__all__ = [
    "MeasureKind",
    "UnionMeasure",
    "MarginalPolytope",
    "UnionConvergenceError",
    "union_information",
    "union_information_batch",
    "AxiomReport",
    "check_axioms",
]

_LN2 = math.log(2.0)

#: Stop once the objective sits this close to the per-part lower bound (bits);
#: no feasible point can be better.
_CERTIFICATE_SLACK = 1e-11

#: A start sweep below this fraction of its largest cell on some cell where
#: the base pmf is zero may mark a cell that every feasible point leaves at
#: zero; the support LP then decides the face.
_THIN_START = 1e-4

#: Newton steps per solve before it is declared stuck.
_MAX_NEWTON_STEPS = 500


class MeasureKind(str, Enum):
    MIN_SYNERGY = "minsyn"
    MAX_SINGLE_MI = "maxmi"

    @classmethod
    def from_name(cls, name: str) -> "MeasureKind":
        aliases = {
            "minsyn": cls.MIN_SYNERGY,
            "minsynergy": cls.MIN_SYNERGY,
            "min_synergy": cls.MIN_SYNERGY,
            "maxmi": cls.MAX_SINGLE_MI,
            "maxsinglemi": cls.MAX_SINGLE_MI,
            "max_single_mi": cls.MAX_SINGLE_MI,
        }
        try:
            return aliases[name.strip().lower()]
        except KeyError:
            raise ValueError(f"unknown union measure {name!r}") from None


@dataclass(frozen=True)
class UnionMeasure:
    """Which union-information measure to compute, and how accurately.

    ``tolerance`` (bits) bounds how far a ``minsyn`` value may lie above the
    true minimum: the barrier solver stops once its value is within a tenth
    of it of a certified lower bound.  The solver is deterministic, so
    nothing else is tunable.  ``maxmi`` values are exact.
    """

    kind: MeasureKind = MeasureKind.MIN_SYNERGY
    tolerance: float = 1e-6

    def __post_init__(self):
        if not 0.0 < self.tolerance < math.inf:  # also refuses NaN
            raise ValueError(f"tolerance must be positive and finite, not {self.tolerance!r}")

    def settings_dict(self) -> dict:
        return {"measure": self.kind.value, "tolerance": self.tolerance}


class UnionConvergenceError(RuntimeError):
    """The barrier solver stopped before its certified gap closed.

    ``value`` (bits) is the objective at the last feasible iterate, an upper
    bound on the union information; ``value - gap`` is the last certified
    lower bound, so ``gap`` (bits) bounds how far above the minimum ``value``
    lies.  It is finite once one Newton step has been solved.
    """

    def __init__(self, message: str, value: float, gap: float):
        super().__init__(message)
        self.value = value
        self.gap = gap


class _Tables:
    """What every family's polytope over one distribution shares: the pmf on
    the product of the alphabets, the product's cells, ``H(Y)`` and the
    whole's mutual information (bits), plus one memoized entry per part."""

    def __init__(self, d: JointDistribution):
        index = [{s: i for i, s in enumerate(a)} for a in d.alphabets]
        self.pmf = np.zeros(tuple(len(a) for a in d.alphabets))
        for outcome, p in d.pmf.items():
            self.pmf[tuple(ix[s] for ix, s in zip(index, outcome))] = p
        # Cells in ``itertools.product`` order, which is the C order of
        # ``pmf``; column c of ``codes`` holds the symbol indices of cell c.
        self.cells = list(iter_product(*d.alphabets))
        self.codes = np.indices(self.pmf.shape).reshape(self.pmf.ndim, -1)
        t = self.target = d.target_index
        self.preds = list(d.predictor_indices)
        self.xcode = np.ravel_multi_index(np.delete(self.codes, t, 0), np.delete(self.pmf.shape, t))
        self.hy = _neg_plogp(self.pmf.sum(axis=tuple(self.preds)))
        self.whole_mi = self.hy + _neg_plogp(self.pmf.sum(axis=self.target)) - _neg_plogp(self.pmf)
        self._parts: dict[PartSpec, tuple] = {}

    def part(self, part: PartSpec) -> tuple[np.ndarray, np.ndarray, float]:
        """``(row, mass, mi)``: each cell's rank among the part-target symbol
        tuples of positive mass, in sorted order (-1 where its tuple has
        none), those tuples' masses, and ``I(part; Y)`` in bits."""
        if part not in self._parts:
            axes = sorted([self.preds[i] for i in part.member_indices] + [self.target])
            marg = self.pmf.sum(axis=tuple(set(range(self.pmf.ndim)) - set(axes)))
            key = np.ravel_multi_index(self.codes[axes], marg.shape)
            hp = _neg_plogp(marg.sum(axis=axes.index(self.target)))
            positive = marg.ravel() > 0.0
            row = np.where(positive, np.cumsum(positive) - 1, -1)[key]
            self._parts[part] = (row, marg.ravel()[positive], hp + self.hy - _neg_plogp(marg))
        return self._parts[part]


_tables = lru_cache(maxsize=256)(_Tables)


def part_mutual_information(d: JointDistribution, part: PartSpec) -> float:
    return _tables(d).part(part)[2]


def whole_mutual_information(d: JointDistribution) -> float:
    return _tables(d).whole_mi


def _null_basis(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space of ``a``, one column per direction."""
    _, s, vt = np.linalg.svd(a, full_matrices=True)
    tol = s[0] * max(a.shape) * np.finfo(float).eps
    rank = int((s > tol).sum())
    return vt[rank:].T.copy()


class MarginalPolytope:
    """Feasible set of the minimum-synergy program, reduced to live cells.

    Cells enumerate the product of the declared alphabets (not just the base
    support).  A cell is dropped when some preserved marginal forces it to
    zero; every feasible q vanishes there, so the reduction is exact.  The
    base pmf itself is feasible and anchors the affine projection.
    """

    def __init__(self, base: JointDistribution, parts: Sequence[PartSpec]):
        if not parts:
            raise ValueError("need at least one part")
        for p in parts:
            p.validate(base.n_predictors, allow_full=True)
        self.base = base
        self.parts = tuple(parts)
        tab = _tables(base)
        marginals = [tab.part(p) for p in self.parts]
        live = np.flatnonzero(np.logical_and.reduce([row >= 0 for row, _, _ in marginals]))
        self.cells: list[tuple] = [tab.cells[c] for c in live.tolist()]

        # The objective's groups: one per whole-predictor configuration that
        # holds a live cell, numbered in sorted order.
        xcode = tab.xcode[live]
        group = np.cumsum(np.bincount(xcode) > 0) - 1
        self.xidx, self.nx = group[xcode], int(group[-1]) + 1

        # One block of rows per part, one row per part-target symbol tuple of
        # positive mass; each cell sits in exactly one row of each block,
        # which is what iterative proportional fitting rescales.  Every such
        # tuple holds a cell of the base support, and those cells are live,
        # so each block's rows are its part's cached ranks as they stand.
        sizes = [mass.size for _, mass, _ in marginals]
        ends = np.cumsum(sizes)
        self.blocks = [slice(end - size, end) for size, end in zip(sizes, ends)]
        self.A = np.zeros((int(ends[-1]), live.size))
        for (row, _, _), rows in zip(marginals, self.blocks):
            self.A[rows.start + row[live], np.arange(live.size)] = 1.0
        self.b = np.concatenate([mass for _, mass, _ in marginals])

        self.x0 = tab.pmf.ravel()[live]
        residual = self.residual(self.x0)
        if residual > 1e-9:
            raise AssertionError(
                f"base distribution violates its own marginals by {residual}"
            )

        self.lower_bound = max(mi for _, _, mi in marginals)
        self.upper_bound = tab.whole_mi

        # Orthonormal basis of the constraint null space; movement inside it
        # preserves every marginal exactly.
        self.null_basis = _null_basis(self.A)

    def project_affine(self, v: np.ndarray) -> np.ndarray:
        w = v - self.x0
        return self.x0 + self.null_basis @ (self.null_basis.T @ w)

    def residual(self, q: np.ndarray) -> float:
        """Worst marginal-constraint violation."""
        return float(np.abs(self.A @ q - self.b).max())


def _ipf_sweep(poly: MarginalPolytope, live: np.ndarray) -> np.ndarray:
    """One sweep of iterative proportional fitting from uniform over the
    ``live`` cells.  For a decomposable family (every report family but the
    Almosts) it is the feasible point of largest entropy on them."""
    a = poly.A[:, live]
    q = np.full(a.shape[1], 1.0 / a.shape[1])
    for rows in poly.blocks:
        q *= (poly.b[rows] / (a[rows] @ q)) @ a[rows]
    return q


def _maximal_support(poly: MarginalPolytope) -> tuple[np.ndarray, np.ndarray]:
    """Mask of the cells some feasible point makes positive, and such a
    point on them, by one LP.

    Over the cone ``A y = s b``, ``y >= 0``, maximize ``sum(t)`` subject to
    ``0 <= t <= min(y, 1)``.  Scaling a feasible point up drives ``t`` to 1
    on its support, so the optimum has ``t = 1`` exactly on the largest
    support and 0 elsewhere, and ``y / s`` is feasible and positive there.
    """
    from scipy.optimize import linprog  # costly import, needed on this path only

    rows, n = poly.A.shape
    eye = np.eye(n)
    res = linprog(
        np.concatenate([np.zeros(n), -np.ones(n), [0.0]]),
        A_ub=np.hstack([-eye, eye, np.zeros((n, 1))]),
        b_ub=np.zeros(n),
        A_eq=np.hstack([poly.A, np.zeros((rows, n)), -poly.b[:, None]]),
        b_eq=np.zeros(rows),
        bounds=[(0.0, None)] * n + [(0.0, 1.0)] * n + [(0.0, None)],
    )
    if res.status != 0:
        raise UnionConvergenceError(f"maximal-support LP failed: {res.message}", math.inf, math.inf)
    live = res.x[n:2 * n] > 0.5
    return live, res.x[:n][live] / res.x[-1]


def _interior_start(poly: MarginalPolytope):
    """A strictly positive feasible start on the smallest face holding every
    feasible point: ``(live cell mask, start on them, null basis of them)``.

    The start is one IPF sweep projected onto the constraints, pulled from a
    strictly positive feasible point of the face when it is not positive
    itself.  When that sweep is at least ``_THIN_START`` of its largest cell
    on every cell where the base pmf is zero, the face is every live cell and
    the pull is from the base pmf: the result moves along the positive sweep
    where the base pmf is zero and stays positive where it is not.  Otherwise
    the support LP finds the face and a positive point on it, and the sweep
    is taken on that face and pulled from that point."""
    live = np.ones(len(poly.cells), dtype=bool)
    q = poly.project_affine(_ipf_sweep(poly, live))
    if q[poly.x0 == 0.0].min(initial=math.inf) >= _THIN_START * q.max():
        return live, _pull(poly.x0, q), poly.null_basis
    live, inner = _maximal_support(poly)
    basis = _null_basis(poly.A[:, live])
    x0 = poly.x0[live]  # the base pmf is feasible, so it lies on the face
    inner, q = (x0 + basis @ (basis.T @ (v - x0)) for v in (inner, _ipf_sweep(poly, live)))
    q = _pull(inner, q)
    if not q.min() > 0.0:
        raise UnionConvergenceError(
            "no strictly positive start on the feasible face", math.inf, math.inf
        )
    return live, q, basis


def _pull(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``q`` when it is strictly positive; else the point from ``p`` towards
    it, half as far as positivity allows.  That point is strictly positive
    when ``p >= 0`` and ``p`` is positive wherever ``q`` is not."""
    if q.min() > 0.0:
        return q
    dq = q - p
    falling = dq < 0.0  # not empty: some cell of q is not positive
    return p + 0.5 * float((p[falling] / -dq[falling]).min()) * dq


def _gradient(v: np.ndarray, gidx: np.ndarray, nx: int):
    """For a stack of columns ``v``, shape ``(rows, cells, 1)``: the gradient
    of ``f = -H(Y|X) = v.grad`` (nats), which is ``ln v(y|x)``, and the
    x-group masses, shape ``(rows, nx, 1)``.  ``gidx`` numbers each cell's
    x-group across rows: row k's groups are ``k * nx`` to ``k * nx + nx - 1``."""
    vx = np.bincount(gidx.ravel(), weights=v.ravel(), minlength=v.shape[0] * nx)
    return np.log(v / vx[gidx]), vx.reshape(-1, nx, 1)


def _stop_level(poly: MarginalPolytope) -> tuple[float, float]:
    """``H(Y)`` in bits, and the ``f = -H(Y|X)`` (nats) at which ``I_q(X;Y)``
    meets the part-MI bound: ``I_q(X;Y) = H(Y) + f / ln 2`` bits, since every
    feasible q has the same ``H(Y)``."""
    hy = _tables(poly.base).hy
    return hy, (poly.lower_bound + _CERTIFICATE_SLACK - hy) * _LN2


def _lockstep(rows: list, tolerance: float, out: list) -> None:
    """Damped Newton steps on every row ``(i, poly, live, q, basis)`` at
    once, all with ``q.size`` cells, until each row's gap closes; row i's
    ``(value, lower)`` goes to ``out[i]``.

    Each row takes the iterates, ``mu`` schedule and stop it would take
    alone, and leaves the batch when it stops.  Null bases are zero-padded
    to the widest, with ones on the padded Hessian diagonal, so the padded
    directions get zero steps.  Vectors are stacks of columns, so that
    ``matmul`` takes them as they are, and per-row control runs on one
    ``tolist`` per step: numpy calls on tiny arrays cost more than their
    arithmetic."""
    ids = [row[0] for row in rows]
    polys = [row[1] for row in rows]
    levels = [_stop_level(p) for p in polys]
    hy, f_stop = [h for h, _ in levels], [s for _, s in levels]
    q = np.array([row[3] for row in rows])[:, :, None]
    k, n, _ = q.shape
    nx = max(p.nx for p in polys)
    width = np.array([row[4].shape[1] for row in rows])
    r = int(width.max())
    basis = np.zeros((k, n, r))
    for b, row in zip(basis, rows):
        b[:, : row[4].shape[1]] = row[4]
    diag = np.arange(r)
    pad = np.zeros((k, r, r))
    pad[:, diag, diag] = diag >= width[:, None]
    xidx = np.array([p.xidx[live] for _, p, live, _, _ in rows])
    x0t = np.array([p.x0[live] for _, p, live, _, _ in rows])[:, None, :]
    gidx = (xidx + nx * np.arange(k)[:, None])[:, :, None]
    gflat = gidx.ravel()
    # Row sums of the basis over each x-group, and which groups hold more than
    # one live cell.
    # In an x-group with one live cell the Hessian block 1/q - 1/q_x is
    # exactly 0; assembling it from the two huge terms leaves only rounding.
    group_basis = np.bincount((gidx * r + diag).ravel(), basis.ravel(), k * nx * r)
    group_basis = group_basis.reshape(k, nx, r)
    multi = (np.bincount(gflat, minlength=k * nx) > 1).astype(float)
    shared = multi[gidx]
    multi = multi.reshape(k, nx, 1)
    single = 1.0 - multi  # keeps w finite on empty and padded groups
    basis_t = basis.transpose(0, 2, 1)
    group_t = group_basis.transpose(0, 2, 1)

    target = 0.1 * tolerance * _LN2
    mu_end = 0.1 * target / n  # centred gap < cells * mu; 0.1 leaves room for rounding
    grad, qx = _gradient(q, gidx, nx)
    f = (q.transpose(0, 2, 1) @ grad).ravel().tolist()
    mu = [max((fk - s) / n, mu_end) for fk, s in zip(f, f_stop)]
    m = np.array(mu).reshape(k, 1, 1)
    bound = [-math.inf] * k
    # Per row: f, z.x0, max z, the largest sum of exp(z - max z) over an
    # x-group, the Newton decrement, and the most negative dq / q, which
    # limits the step.
    ctl = np.empty((6, k, 1, 1))
    c_f, c_zx, c_top, c_sum, c_dec, c_fall = ctl
    for _ in range(_MAX_NEWTON_STEPS):
        inv = 1.0 / q
        mi = m * inv
        descent = mi - grad  # minus the barrier gradient
        g = basis_t @ descent
        w = multi / (qx + single)
        d = (shared + mi) * inv
        hess = basis_t @ (basis * d) - group_t @ (group_basis * w) + pad
        try:
            dz = np.linalg.solve(hess, g)
        except np.linalg.LinAlgError:
            dz = np.array([np.linalg.lstsq(h, gk, rcond=None)[0] for h, gk in zip(hess, g)])
        dq = basis @ dz
        # Multipliers of the marginal constraints: by the Newton system, the
        # barrier gradient plus its Hessian times dq lies in range(A^T).  For
        # such z every feasible q has z.q = z.x0, and -H(Y|X) - z.q is at
        # least -max_x logsumexp_y z_xy on the simplex (nats), at any iterate.
        # An x-group emptied by facial reduction, or padded, sums to 0 and
        # never wins.
        dqx = np.bincount(gflat, dq.ravel(), k * nx)
        z = d * dq - descent - (w.ravel() * dqx)[gidx]
        z -= basis @ (basis_t @ z)
        np.matmul(q.transpose(0, 2, 1), grad, out=c_f)
        np.matmul(x0t, z, out=c_zx)
        np.maximum.reduce(z, 1, keepdims=True, out=c_top)
        sums = np.bincount(gflat, np.exp(z - c_top).ravel(), k * nx)
        np.maximum.reduce(sums.reshape(k, nx, 1), 1, keepdims=True, out=c_sum)
        np.matmul(g.transpose(0, 2, 1), dz, out=c_dec)
        np.minimum.reduce(dq * inv, 1, keepdims=True, out=c_fall)
        f, zx, tops, smax, decs, falls = ctl.reshape(6, k).tolist()
        bound = [max(b, v - (t + math.log(s))) for b, v, t, s in zip(bound, zx, tops, smax)]
        keep = []
        for j in range(k):
            if f[j] <= f_stop[j]:
                out[ids[j]] = (hy[j] + f[j] / _LN2, polys[j].lower_bound)
            elif f[j] - bound[j] <= target:
                out[ids[j]] = (hy[j] + f[j] / _LN2, hy[j] + bound[j] / _LN2)
            else:
                keep.append(j)
        if not keep:
            return
        if len(keep) < k:
            k = len(keep)
            ids, polys, hy, f_stop, mu, bound, decs, falls = (
                [v[j] for j in keep] for v in (ids, polys, hy, f_stop, mu, bound, decs, falls)
            )
            (q, grad, qx, m, dq, basis, basis_t, group_basis, group_t, pad, x0t, xidx,
             shared, multi, single) = (
                v[keep] for v in (q, grad, qx, m, dq, basis, basis_t, group_basis, group_t,
                                  pad, x0t, xidx, shared, multi, single)
            )
            gidx = (xidx + nx * np.arange(k)[:, None])[:, :, None]
            gflat = gidx.ravel()
            ctl = np.empty((6, k, 1, 1))
            c_f, c_zx, c_top, c_sum, c_dec, c_fall = ctl
        # 0.99 of the longest step that keeps every cell positive, at most 1.
        steps = [1.0 if fall >= 0.0 else min(1.0, -0.99 / fall) for fall in falls]
        # Halve while the step overshoots the minimum along the line by more
        # than half the starting slope.  Slopes of a convex function need no
        # differences of rounded values, which vanish as mu gets small.
        while True:
            cand = q + np.array(steps).reshape(k, 1, 1) * dq
            gc, qxc = _gradient(cand, gidx, nx)
            slopes = ((gc - m / cand).transpose(0, 2, 1) @ dq).ravel().tolist()
            over = [j for j in range(k) if not (slopes[j] <= 0.5 * decs[j] or steps[j] < 1e-12)]
            if not over:
                break
            for j in over:
                steps[j] *= 0.5
        q, grad, qx = cand, gc, qxc
        # A step that began near the centre ends its row's stage.
        stage = [max(mk / 100.0, mu_end) if dk <= 0.1 * mk else mk for mk, dk in zip(mu, decs)]
        if stage != mu:
            mu, m = stage, np.array(stage).reshape(k, 1, 1)
    f0 = float(q[0].ravel() @ grad[0].ravel())
    gap = (f0 - bound[0]) / _LN2
    raise UnionConvergenceError(
        f"minimum-synergy barrier solver did not close its gap in "
        f"{_MAX_NEWTON_STEPS} Newton steps (gap {gap!r} bits)", hy[0] + f0 / _LN2, gap
    )


def _min_synergy_brackets(
    d: JointDistribution, families: Sequence[Sequence[PartSpec]], m: UnionMeasure
) -> list[tuple[float, float]]:
    """``(value, lower)`` in bits per family: the union information, and a
    certified lower bound on the minimum at most ``m.tolerance`` below it.

    A family is done at its polytope when that leaves no free direction or
    its bounds meet, and at its start when that meets the part-MI bound.  The
    others are solved in lockstep batches, one per live-cell count."""
    out: list = [None] * len(families)
    bounds = []
    batches: dict[int, list] = {}
    for i, parts in enumerate(families):
        poly = MarginalPolytope(d, parts)
        lower, upper = poly.lower_bound, poly.upper_bound
        bounds.append((lower, upper))
        if poly.null_basis.shape[1] == 0:
            out[i] = (upper, upper)  # with no free direction the base pmf is the only feasible q
        elif upper - lower <= _CERTIFICATE_SLACK:
            out[i] = (upper, min(lower, upper))
        else:
            live, q, basis = _interior_start(poly)
            hy, f_stop = _stop_level(poly)
            grad = _gradient(q[None, :, None], poly.xidx[live][None, :, None], poly.nx)[0]
            f = float(q @ grad.ravel())
            if f <= f_stop:
                out[i] = (hy + f / _LN2, lower)
            else:
                batches.setdefault(q.size, []).append((i, poly, live, q, basis))
    for rows in batches.values():
        _lockstep(rows, m.tolerance, out)
    # Both bounds hold for the minimum, so clamping only removes rounding.
    for i, (lower, upper) in enumerate(bounds):
        value = min(max(out[i][0], lower), upper)
        out[i] = (value, min(max(out[i][1], lower), value))
    return out


@lru_cache(maxsize=256)
def _memo(m: UnionMeasure, d: JointDistribution) -> dict[PartFamily, float]:
    """Union information of each family solved so far on ``d`` under ``m``."""
    return {}


def union_information_batch(
    m: UnionMeasure, d: JointDistribution, families: Sequence[PartFamily]
) -> list[float]:
    """Union information of each family, in bits, in the order given.

    The families not solved before on an equal distribution are solved in
    one lockstep batch.  Each value is certified as a single family's is; it
    may differ from the value of its family solved alone by rounding."""
    if d.target is None:
        raise DistributionError("union information needs a target variable")
    memo = _memo(m, d)
    todo = [f for f in dict.fromkeys(families) if f not in memo]
    for family in todo:
        family.validate(d.n_predictors, allow_full=True)
    if m.kind is MeasureKind.MAX_SINGLE_MI:
        memo.update((f, max(part_mutual_information(d, p) for p in f.parts)) for f in todo)
    elif todo:
        brackets = _min_synergy_brackets(d, [f.parts for f in todo], m)
        memo.update(zip(todo, (value for value, _ in brackets)))
    return [memo[f] for f in families]


def union_information(
    m: UnionMeasure,
    d: JointDistribution,
    family: PartFamily | Iterable[PartSpec],
    target: str | None = None,
) -> float:
    """Union information the family's parts convey about the target, in bits.

    ``target`` defaults to the distribution's own target variable; passing a
    different name re-targets the computation at that column.
    """
    if not isinstance(family, PartFamily):
        family = PartFamily(tuple(family))
    if target is not None and target != d.target:
        d = JointDistribution(d.variables, d.pmf, target=target)
    return union_information_batch(m, d, [family])[0]


def _neg_plogp(v: np.ndarray) -> float:
    vv = v[v > 0.0]
    return float(-(vv * np.log2(vv)).sum())


# ---------------------------------------------------------------------------
# Property checker
# ---------------------------------------------------------------------------

@dataclass
class AxiomResult:
    axiom: str
    worst_violation: float = 0.0
    n_cases: int = 0
    worst_case: str = ""

    def record(self, violation: float, description: str) -> None:
        self.n_cases += 1
        if violation > self.worst_violation:
            self.worst_violation = violation
            self.worst_case = description

    def passed(self, tol: float) -> bool:
        return self.worst_violation <= tol


@dataclass
class AxiomReport:
    tolerance: float
    results: dict[str, AxiomResult] = field(default_factory=dict)

    AXIOMS = ("GP", "Eq", "M0", "S0", "SR", "UB")

    def result(self, axiom: str) -> AxiomResult:
        return self.results.setdefault(axiom, AxiomResult(axiom))

    @property
    def all_passed(self) -> bool:
        return all(r.passed(self.tolerance) for r in self.results.values())

    def to_dict(self) -> dict:
        return {
            "tolerance": self.tolerance,
            "all_passed": self.all_passed,
            "axioms": {
                name: {
                    "passed": r.passed(self.tolerance),
                    "worst_violation": r.worst_violation,
                    "cases": r.n_cases,
                    "worst_case": r.worst_case,
                }
                for name, r in ((a, self.results[a]) for a in self.AXIOMS if a in self.results)
            },
        }


def _relabel_map(symbols: Sequence[str], salt: str) -> dict[str, str]:
    rotated = list(symbols[1:]) + [symbols[0]]
    return {s: f"{r}{salt}" for s, r in zip(symbols, rotated)}


def check_axioms(
    m: UnionMeasure, suite: Iterable[tuple[JointDistribution, PartFamily]]
) -> AxiomReport:
    """Numerically verify the union-information property list on a suite.

    Each suite entry is an input distribution paired with a part family.
    Violations are magnitudes in bits; an axiom passes when its worst
    violation over all applicable cases is within the measure tolerance.
    """
    report = AxiomReport(tolerance=m.tolerance)
    for item_no, (d, family) in enumerate(suite):
        n = d.n_predictors
        family.validate(n)
        label = f"item {item_no}"
        value = union_information(m, d, family)
        whole = whole_mutual_information(d)

        # GP: nonnegative, and zero when the target is constant.
        report.result("GP").record(max(0.0, -value), f"{label}: negative value")
        const_val = union_information(m, d.with_constant_target(), family)
        report.result("GP").record(abs(const_val), f"{label}: constant target")

        # Eq: invariance under relabeling a member variable and the target.
        preds = d.predictor_indices
        member_pos = preds[family.parts[0].member_indices[0]]
        member = d.variables[member_pos]
        relabeled = d.relabeled(member, _relabel_map(d.alphabets[member_pos], "~"))
        report.result("Eq").record(
            abs(union_information(m, relabeled, family) - value),
            f"{label}: relabel {member}",
        )
        tpos = d.target_index
        relabeled_y = d.relabeled(
            d.variables[tpos], _relabel_map(d.alphabets[tpos], "~")
        )
        report.result("Eq").record(
            abs(union_information(m, relabeled_y, family) - value),
            f"{label}: relabel target",
        )

        # M0 equality clause: appending W that is a sub-part of some member.
        wide = next((p for p in family.parts if len(p) >= 2), None)
        if wide is not None:
            w = PartSpec(wide.member_indices[:-1])
            if w not in family.parts:
                extended = PartFamily(family.parts + (w,))
                report.result("M0").record(
                    abs(union_information(m, d, extended) - value),
                    f"{label}: append sub-part",
                )
        # M0 monotonicity clause: appending any part never decreases the value.
        fresh = next((p for p in all_parts(n) if p not in family.parts), None)
        if fresh is not None:
            grown = PartFamily(family.parts + (fresh,))
            report.result("M0").record(
                max(0.0, value - union_information(m, d, grown)),
                f"{label}: append arbitrary part",
            )

        # S0: reordering the family (families are canonically ordered, so
        # this is exact by construction; check it anyway).
        reordered = PartFamily(tuple(reversed(family.parts)))
        report.result("S0").record(
            abs(union_information(m, d, reordered) - value), f"{label}: reorder"
        )

        # SR: a single part's union information is its mutual information.
        first = family.parts[0]
        report.result("SR").record(
            abs(
                union_information(m, d, PartFamily((first,)))
                - part_mutual_information(d, first)
            ),
            f"{label}: single part",
        )

        # UB: never exceeds the whole's mutual information.
        report.result("UB").record(
            max(0.0, value - whole), f"{label}: upper bound"
        )
    return report
