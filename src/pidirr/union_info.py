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
``-H(Y|X) - mu * sum(ln q)``, from the maximum-entropy feasible point, with
``mu`` cut a hundredfold once a step starts near the centre.  Each Newton
system also gives multipliers ``z`` of the marginal constraints, and so the
Lagrange dual bound ``H(Y) + (z.x0 - max_x logsumexp_y z_xy) / ln 2`` on the
minimum.  The solver stops once its value is within a tenth of the tolerance
of that bound, or within 1e-11 bits of the largest single-part mutual
information, the other lower bound.  Some cells are zero at every feasible
point without being pinned (cyclic families with structured zeros); a
barrier needs a strictly positive start, so when the maximum-entropy start
comes out thin, one linear program finds the largest feasible support and
the solver works on that face alone (facial reduction).
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
    "brute_force_union_oracle",
    "AxiomReport",
    "check_axioms",
]

_LN2 = math.log(2.0)

#: Stop once the objective sits this close to the per-part lower bound (bits);
#: no feasible point can be better.
_CERTIFICATE_SLACK = 1e-11

#: A maximum-entropy start whose smallest cell is below this fraction of its
#: largest may be converging onto a face; the support LP then decides.
_THIN_START = 1e-4

#: Sweeps of iterative proportional fitting, and the residual that ends them.
_IPF_SWEEPS = 1000
_IPF_RESIDUAL = 1e-14

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
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")

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
        """``(key, marginal, mi)``: each cell's index into the flattened
        part-target marginal, that marginal, and ``I(part; Y)`` in bits."""
        if part not in self._parts:
            axes = sorted([self.preds[i] for i in part.member_indices] + [self.target])
            marg = self.pmf.sum(axis=tuple(set(range(self.pmf.ndim)) - set(axes)))
            key = np.ravel_multi_index(self.codes[axes], marg.shape)
            hp = _neg_plogp(marg.sum(axis=axes.index(self.target)))
            self._parts[part] = (key, marg.ravel(), hp + self.hy - _neg_plogp(marg))
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
        positive = [marg[key] > 0.0 for key, marg, _ in marginals]
        live = np.flatnonzero(np.logical_and.reduce(positive))
        self.cells: list[tuple] = [tab.cells[c] for c in live]

        # The objective's groups: one per whole-predictor configuration.
        xkeys, self.xidx = np.unique(tab.xcode[live], return_inverse=True)
        self.nx = xkeys.size

        # One block of rows per part, one row per part-target symbol tuple of
        # positive mass; each cell sits in exactly one row of each block,
        # which is what iterative proportional fitting rescales.
        a, b, self.blocks = [], [], []
        for key, marg, _ in marginals:
            keys, row = np.unique(key[live], return_inverse=True)
            start = self.blocks[-1].stop if self.blocks else 0
            self.blocks.append(slice(start, start + keys.size))
            a.append(np.arange(keys.size)[:, None] == row)
            b.append(marg[keys])
        self.A, self.b = np.vstack(a).astype(float), np.concatenate(b)

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


def _max_entropy(poly: MarginalPolytope, live: np.ndarray) -> np.ndarray:
    """Iterative proportional fitting from uniform over the ``live`` cells;
    it converges to the feasible point of largest entropy on them."""
    a = poly.A[:, live]
    q = np.full(a.shape[1], 1.0 / a.shape[1])
    for _ in range(_IPF_SWEEPS):
        worst = 0.0
        for rows in poly.blocks:
            marg = a[rows] @ q
            worst = max(worst, float(np.abs(marg - poly.b[rows]).max()))
            q *= (poly.b[rows] / marg) @ a[rows]
        if worst < _IPF_RESIDUAL:
            break
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


def _step_inside(q: np.ndarray, dq: np.ndarray, share: float) -> float:
    """``share`` of the longest step along ``dq`` that keeps ``q`` positive, at most 1."""
    falling = dq < 0.0
    return min(1.0, share * float((q[falling] / -dq[falling]).min())) if falling.any() else 1.0


def _interior_start(poly: MarginalPolytope):
    """A strictly positive feasible start on the smallest face holding every
    feasible point: ``(live cell mask, start on them, null basis of them)``."""
    live = np.ones(len(poly.cells), dtype=bool)
    q = poly.project_affine(_max_entropy(poly, live))
    if q.min() >= _THIN_START * q.max():
        return live, q, poly.null_basis
    live, inner = _maximal_support(poly)
    basis = _null_basis(poly.A[:, live])
    x0 = poly.x0[live]  # the base pmf is feasible, so it lies on the face
    inner, q = (x0 + basis @ (basis.T @ (v - x0)) for v in (inner, _max_entropy(poly, live)))
    # IPF may near a tiny cell too slowly for its projection to stay positive:
    # go from the LP's point towards it at most half as far as positivity allows.
    q = inner + _step_inside(inner, q - inner, 0.5) * (q - inner)
    if not q.min() > 0.0:
        raise UnionConvergenceError(
            "no strictly positive start on the feasible face", math.inf, math.inf
        )
    return live, q, basis


def _barrier_newton(poly: MarginalPolytope, tolerance: float) -> tuple[float, float]:
    """``(value, lower)`` in bits: ``I_q(X;Y)`` at a feasible point, and a
    certified lower bound on its minimum at most ``0.1 * tolerance`` below."""
    live, q, basis = _interior_start(poly)
    xidx, nx, x0 = poly.xidx[live], poly.nx, poly.x0[live]
    hy = _tables(poly.base).hy
    counts = np.bincount(xidx, minlength=nx)
    # In an x-group with one live cell the Hessian block 1/q - 1/q_x is
    # exactly 0; assembling it from the two huge terms leaves only rounding.
    shared, multi = counts[xidx] > 1, counts > 1
    group_basis = np.zeros((nx, basis.shape[1]))
    np.add.at(group_basis, xidx, basis)

    def objective(v: np.ndarray):
        """``f = -H(Y|X)`` in nats, its gradient, and the x-group masses."""
        vx = np.bincount(xidx, weights=v, minlength=nx)
        grad = np.log(v / vx[xidx])
        return float(v @ grad), grad, vx

    # I_q(X;Y) = hy + f / ln 2 bits, since every feasible q has H(Y) = hy.
    f_stop = (poly.lower_bound + _CERTIFICATE_SLACK - hy) * _LN2
    target = 0.1 * tolerance * _LN2
    mu_end = 0.1 * target / q.size  # centred gap < cells * mu; 0.1 leaves room for rounding
    f, grad, qx = objective(q)
    mu = max((f - f_stop) / q.size, mu_end)
    bound = -math.inf
    for _ in range(_MAX_NEWTON_STEPS):
        if f <= f_stop:
            return hy + f / _LN2, poly.lower_bound
        inv = 1.0 / q
        g = basis.T @ (grad - mu * inv)
        w = np.zeros(nx)
        w[multi] = 1.0 / qx[multi]
        d = np.where(shared, inv, 0.0) + mu * inv * inv
        hess = (basis.T * d) @ basis - (group_basis.T * w) @ group_basis
        try:
            dz = np.linalg.solve(hess, -g)
        except np.linalg.LinAlgError:
            dz = np.linalg.lstsq(hess, -g, rcond=None)[0]
        decrement = -(g @ dz)
        dq = basis @ dz
        # Multipliers of the marginal constraints: by the Newton system, the
        # barrier gradient plus its Hessian times dq lies in range(A^T).  For
        # such z every feasible q has z.q = z.x0, and -H(Y|X) - z.q is at
        # least -max_x logsumexp_y z_xy on the simplex (nats), at any iterate.
        # An x-group emptied by facial reduction sums to 0 and never wins.
        z = grad - mu * inv + d * dq - (w * np.bincount(xidx, dq, nx))[xidx]
        z -= basis @ (basis.T @ z)
        top = z.max()
        lse = top + math.log(np.bincount(xidx, np.exp(z - top), nx).max())
        bound = max(bound, float(z @ x0 - lse))
        if f - bound <= target:
            return hy + f / _LN2, hy + bound / _LN2
        step = _step_inside(q, dq, 0.99)
        # Halve while the step overshoots the minimum along the line by more
        # than half the starting slope.  Slopes of a convex function need no
        # differences of rounded values, which vanish as mu gets small.
        while True:
            cand = q + step * dq
            fc, gc, qxc = objective(cand)
            if (gc - mu / cand) @ dq <= 0.5 * decrement or step < 1e-12:
                break
            step *= 0.5
        q, f, grad, qx = cand, fc, gc, qxc
        if decrement <= 0.1 * mu:  # the step began near the centre: end the stage
            mu = max(mu / 100.0, mu_end)
    gap = (f - bound) / _LN2
    raise UnionConvergenceError(
        f"minimum-synergy barrier solver did not close its gap in "
        f"{_MAX_NEWTON_STEPS} Newton steps (gap {gap!r} bits)", hy + f / _LN2, gap
    )


def _min_synergy_bracket(d: JointDistribution, parts: Sequence[PartSpec], m: UnionMeasure):
    """``(value, lower)`` in bits: the union information, and a certified
    lower bound on the minimum at most ``m.tolerance`` below it."""
    poly = MarginalPolytope(d, parts)
    lower, upper = poly.lower_bound, poly.upper_bound
    if poly.null_basis.shape[1] == 0:
        return upper, upper  # with no free direction the base pmf is the only feasible q
    if upper - lower <= _CERTIFICATE_SLACK:
        return upper, min(lower, upper)
    value, bound = _barrier_newton(poly, m.tolerance)
    # Both bounds hold for the minimum, so clamping only removes rounding.
    value = min(max(value, lower), upper)
    return value, min(max(bound, lower), value)


@lru_cache(maxsize=65536)
def _union_information_cached(
    m: UnionMeasure, d: JointDistribution, family: PartFamily
) -> float:
    family.validate(d.n_predictors, allow_full=True)
    if m.kind is MeasureKind.MAX_SINGLE_MI:
        return max(part_mutual_information(d, p) for p in family.parts)
    return _min_synergy_bracket(d, family.parts, m)[0]


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
    if d.target is None:
        raise DistributionError("union information needs a target variable")
    return _union_information_cached(m, d, family)


def union_information_uncached(
    m: UnionMeasure, d: JointDistribution, family: PartFamily
) -> float:
    """Cache-bypassing variant used by determinism tests."""
    return _union_information_cached.__wrapped__(m, d, family)


# ---------------------------------------------------------------------------
# Independent oracle (tests only)
# ---------------------------------------------------------------------------

def brute_force_union_oracle(
    d: JointDistribution,
    family: PartFamily | Iterable[PartSpec],
    target: str | None = None,
    n_samples: int = 1000,
    n_polish: int = 8,
    seed: int = 20240901,
) -> float:
    """Upper-bound check on the minimum-synergy value by brute search.

    Samples ``n_samples`` seeded feasible points of the marginal polytope,
    runs local descent from the most promising ones (plus the base pmf
    itself), and returns the best objective value seen.  Convexity of the
    objective makes this an effective two-sided check: the production
    optimizer can never beat the true minimum, and this search closes in
    on it from above.  Deliberately built on a separate stack from the
    production path: SciPy null-space sampling, alternating minimization
    against the product reference with iterative proportional fitting for
    the marginal constraints, and an SLSQP polish on small instances.

    Restricted to bases with at most 64 support outcomes.
    """
    import scipy.linalg
    import scipy.optimize

    if not isinstance(family, PartFamily):
        family = PartFamily(tuple(family))
    if target is not None and target != d.target:
        d = JointDistribution(d.variables, d.pmf, target=target)
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
        z = rng.standard_normal((n_samples, k)) * (0.5 / math.sqrt(k))
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
        starts.extend(samples[i] for i in order[: max(n_polish - 1, 1)])
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
