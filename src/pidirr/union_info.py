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
bound); :func:`pidirr.axioms.check_axioms` verifies them numerically on a
suite.

The minimization runs over the product of the declared alphabets, not the
base support, because the optimum generally moves mass onto outcomes the base
never produces; cells that a preserved marginal pins to zero are dropped.
The solver is a primal log-barrier method (Boyd & Vandenberghe, *Convex
Optimization*, ch. 11): damped Newton steps in the constraint null space on
``-H(Y|X) - mu * sum(ln q)``, from a strictly positive feasible point.  A
step's line search first tries 0.9 of the longest step that keeps every cell
positive (a fraction-to-the-boundary rule, Nocedal & Wright ch. 19), and
halves it while it overshoots the minimum along the line.  A
stage ends, and ``mu`` is cut a hundredfold, once a step starts with a
Newton decrement of at most ``5 * mu``.  The first Newton system after a cut
keeps the pre-cut ``mu`` in its Hessian, with the new one in its gradient:
from a centred point its step is the tangent of the central path (a
long-step path-following predictor, Nocedal & Wright ch. 14).  Each Newton
system also gives multipliers ``z`` of the marginal constraints, and so the
Lagrange dual bound ``H(Y) + (z.x0 - max_x logsumexp_y z_xy) / ln 2`` on the
minimum; ``z`` is projected onto the constraints' row space, so the bound
holds whatever Hessian the system used.  Each family's certified bracket on
its union, and the one rule that stops it at every exit, are
:class:`_Brackets`.

A barrier method needs only a strictly positive feasible start, and one rule
picks it: one sweep of iterative proportional fitting (IPF) over the live
cells, projected onto the constraints.  A feasible point lies within
``(|A q - b| + rounding) / sigma_min(A)`` of that sweep q; if q exceeds this
on every cell where the base pmf is zero, that point is positive there, and
the face is every live cell (a decomposable family's sweep is its
maximum-entropy point, positive on the largest feasible support: Csiszar
1975).  The start is then the sweep if it is strictly positive, else the
point from the base pmf towards it, half as far as positivity allows; that
point is positive where the base pmf is zero, since the sweep is, and
elsewhere since the base pmf is.  Otherwise some cells may be zero at every feasible point without being
pinned (cyclic families with structured zeros): one linear program finds the
largest feasible support.  That support is the smallest face of ``cone(A)``
that holds the columns of the base support S, so it depends on S alone, and
the LP runs on S's image ``A 1_S``, whose entries are small integers, not on
the masses ``b``, which may be as small as 1e-15.  The LP's point y, positive
on the face, meets ``A 1_S``; the point ``x0 + (min_S x0 / 2) (y - 1_S)``
meets ``b`` and is positive on the face, and the start is pulled from it
instead.  When the support is smaller than the live cells, the solver works
on it alone (facial reduction): the family is set up again on those cells,
like any other, with that point as the start's origin.  The base pmf is
feasible, so its support lies inside the largest one; an LP answer that
misses one of its cells is a failed LP, and raises as one.

Where a call's part marginals lie in one flat vector (:class:`_Layout`),
and the polytopes of the families of one live-cell group but for the
masses and base pmf (:class:`_Structure`, each family's built from its own
constraints alone), depend only on the shape, the target, the families and
their cells.  Both are kept in one least-recently-used cache bounded by the
bytes it holds, each group under exactly the rows it builds: a report of a
shape seen before takes its part masses from one stacked pass, and factors
nothing for a group that keeps the rows it kept then.  A structure holds
only what a start and a Newton step read, ``gidx``, ``single`` and ``pad``
among them; the support LP rebuilds a row's dense constraint matrix.

The families asked for in one call (all of a report's, in
:func:`pidirr.irreducibility.full_report`) are solved in lockstep.  Each
group of equal cell count, largest first, is checked, set up on its rows not
done, and started in one pass, so a family that facial reduction moves to
fewer cells joins a group not yet set up, and every start bounds the others
before any Newton step.  Once every start is known, each group's started
rows are stepped by stacked numpy calls until each stops; on programs this
small a step's cost is numpy's per-call overhead, so a step's Newton systems
skip ``np.linalg.solve``'s wrapper (:func:`_newton_solve`).  Each row keeps
its own iterates, ``mu`` schedule and stop, and is judged by one rule at its
start and then once per step, at the point its line search accepts, before
the next Newton system is built.  A row's iterates are those it takes in any
stack of the same padded null width, which sets the shapes, and so the
rounding, of its matrix products: a measure asked for alone, whose stack
holds only its own scan's families, can differ from the full report's in the
last bits.  The per-row control of a step is one Python pass over the rows
before the line search and one after it.  A row that stops leaves its stack,
which is re-indexed, unless the stack is small (``_SMALL_STACK``), where
re-indexing costs more than a step: there it stays, takes zero steps and
leaves its bracket alone.

:func:`union_information` solves the one family it is asked for to the
tolerance.  A report needs only each of its scans' largest union and the
earliest family within the tolerance of it, so on its path a family also
stops, unsolved, once it is dominated (see :class:`_Brackets`).
Both paths, and a report's whole mutual information, go through
:func:`_solve`, which builds the distribution's :class:`_Tables` once per
call.  Nothing a call solves is kept for the next, nor are the tables it
builds, so its values depend on its arguments alone; only what depends on
the shape alone is cached.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import product as iter_product
from typing import Iterable, Sequence

import numpy as np

from .distributions import JointDistribution, _Value
from .parts import PartFamily, PartSpec

__all__ = [
    "MeasureKind",
    "UnionMeasure",
    "MarginalPolytope",
    "UnionConvergenceError",
    "union_information",
]

_LN2 = math.log(2.0)

#: Newton steps per solve before it is declared stuck.
_MAX_NEWTON_STEPS = 500

#: A lockstep stack whose cells times padded null width squared (about a
#: Newton step's work per row) lie below this keeps its rows once they are
#: done, rather than re-indexing its arrays.  Every binary n=3 stack is at
#: most 16 * 8**2 = 1024, where keeping rows takes 12% off a report (bench
#: ``binary-n3`` ``report_p50_s`` 1.22 ms; 1.38 ms at 0, in all 6
#: alternating 8 s pairs on a 2-core host); binary n=4 stacks are 32 * 22**2
#: = 15488, where it cost 22-27% (n=5: 89-94%; n=3 ternary, 81 * 60**2:
#: 41-47%).  Any value between decides every measured input the same way:
#: the binary n=3 and n=2 ternary-with-zeros stacks (at most 27 * 12**2)
#: keep their rows, and the corpus's one stepped stack (triple_xor, 128 *
#: 32**2) re-indexes.
_SMALL_STACK = 2**12


class MeasureKind(str, Enum):
    MIN_SYNERGY = "minsyn"
    MAX_SINGLE_MI = "maxmi"


class UnionMeasure(_Value):
    """Which union-information measure to compute, and how accurately.

    ``kind`` is a :class:`MeasureKind` or its value.  ``tolerance`` (bits)
    bounds how far a ``minsyn`` value may lie above the true minimum: every
    exit of the barrier solver stops a family within a tenth of it of a
    certified lower bound (within all of it once the family cannot move), or
    raises.  The solver is deterministic, so nothing else is tunable.
    ``maxmi`` values are exact.
    """

    _fields = ("kind", "tolerance")

    def __init__(self, kind: MeasureKind = MeasureKind.MIN_SYNERGY, tolerance: float = 1e-6):
        if isinstance(tolerance, bool):
            raise TypeError(f"tolerance must be a number of bits, not {tolerance!r}")
        if not 0.0 < tolerance < math.inf:  # also refuses NaN
            raise ValueError(f"tolerance must be positive and finite, not {tolerance!r}")
        object.__setattr__(self, "kind", MeasureKind(kind))
        object.__setattr__(self, "tolerance", float(tolerance))

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
    the product of the alphabets, ``H(Y)`` and the whole's mutual information
    (bits)."""

    def __init__(self, d: JointDistribution):
        index = [{s: i for i, s in enumerate(a)} for a in d.alphabets]
        self.pmf = np.zeros(tuple(len(a) for a in d.alphabets))
        for outcome, p in d.pmf.items():
            self.pmf[tuple(map(dict.__getitem__, index, outcome))] = p
        self.target = d.target_index
        y, x = self.pmf.sum(axis=d.predictor_indices), self.pmf.sum(axis=self.target)
        self.hy, hx, hxy = _entropies(np.concatenate([y, x.ravel(), self.pmf.ravel()]),
                                      np.repeat([0, 1, 2], [y.size, x.size, self.pmf.size]))
        self.whole_mi = self.hy + hx - hxy

    def masses(self, families: Sequence[Sequence[PartSpec]]) -> tuple:
        """``(layout, mass, live, mi)``: the cached :class:`_Layout` of
        ``families``, its flat part-target marginals closed by a zero, each
        family's live cells (a mask: those whose tuple has positive mass in
        every part, off which every feasible q vanishes), and each part's
        ``I(part; Y)`` in bits."""
        families = tuple(tuple(p.member_indices for p in f) for f in families)
        layout = _structures.get(key := (self.pmf.shape, self.target, families),
                                 lambda: _Layout(*key))
        mass = np.bincount(layout.joint.ravel(), self.pmf.ravel()[layout.cell],
                           layout.joint_part.size + 1)
        joint = mass[:-1]  # without the closing zero
        h = _entropies(np.concatenate([joint, np.bincount(layout.alone, joint)]),
                       layout.entropy_part)
        mi = [hp + self.hy - hpy for hpy, hp in zip(h, h[len(layout.parts):])]
        return layout, mass, layout.members @ (mass == 0.0)[layout.joint] == 0.0, mi


def _entropies(v: np.ndarray, part: np.ndarray) -> list[float]:
    """Entropy in bits of each part's masses ``v[part == j]``, for ``part``
    ascending: the ``p log p`` of its positive masses, in order, summed by one
    ``np.add.reduce`` of that part's alone, so a part takes the same bits
    whatever segments lie beside it."""
    pos = v > 0.0
    vv = v[pos]
    plogp, ends = vv * np.log2(vv), np.cumsum(np.bincount(part[pos])).tolist()
    return [-float(np.add.reduce(plogp[a:b])) for a, b in zip([0] + ends, ends)]


class _Cache:
    """A least-recently-used cache bounded by the bytes its values hold
    (``value.nbytes``); a value larger than the bound is not kept."""

    def __init__(self, bound: int):
        self.bound, self.held, self.values = bound, 0, {}

    def get(self, key, build):
        """The value of ``key``; when none is held, ``build()`` makes it."""
        value = self.values.pop(key, None)
        if value is None:
            value = build()
            if value.nbytes > self.bound:
                return value
            self.held += value.nbytes
            while self.held > self.bound:
                self.held -= self.values.pop(next(iter(self.values))).nbytes
        self.values[key] = value  # last in the dict's order: the most recently used
        return value

    def clear(self) -> None:
        self.values.clear()
        self.held = 0


#: What depends on the shape of a distribution alone, not on its masses: each
#: call's :class:`_Layout` and each of its live-cell groups' :class:`_Structure`.
_structures = _Cache(64 << 20)


def _read_only(owner) -> int:
    """Make the arrays among ``owner``'s attributes read-only; return the
    bytes they hold."""
    arrays = [a for a in vars(owner).values() if isinstance(a, np.ndarray)]
    for a in arrays:
        a.flags.writeable = False
    return sum(a.nbytes for a in arrays)


def _ranks(keys: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Each key's rank among the distinct ``keys`` (all below ``size``), and
    those keys, in sorted order."""
    seen = np.zeros(size, dtype=bool)
    seen[keys] = True
    return (np.cumsum(seen) - 1)[keys], np.flatnonzero(seen)


class _Layout:
    """Where a call's part masses lie, a function of the shape, the target and
    the ``families`` (of parts, tuples of predictor indices) alone.  Part j
    has a segment of one flat vector of part-target marginals, ``joint[j]``
    each product cell's key there, and ``cell`` gathers the pmf's mass of
    each entry of ``joint``, ravelled; ``alone`` maps each entry to its part
    marginal's, ``joint_part`` numbers entries' parts, ``entropy_part``
    numbers the entries' parts and then the part marginals' entries' (past
    the last part), and ``whole`` is each cell's whole-predictor key.
    ``families[i]`` lists family i's parts, ``members[i, j]`` is 1 where it
    holds part j, and ``disjoint[i]`` if they are pairwise disjoint."""

    def __init__(self, shape: tuple, target: int, families: tuple):
        self.key = (shape, target, families)
        self.parts = list(dict.fromkeys(p for parts in families for p in parts))
        self.families = [[self.parts.index(p) for p in parts] for parts in families]
        self.members = np.array([[p in parts for p in self.parts] for parts in families], float)
        self.disjoint = [len(set(sum(parts, ()))) == len(sum(parts, ())) for parts in families]
        cells, ny = np.indices(shape).reshape(len(shape), -1), shape[target]

        def keys(axes):  # each cell's ravelled symbol tuple on axes
            return np.ravel_multi_index(cells[axes], [shape[a] for a in axes])
        preds, joint, alone, sizes = [i for i in range(len(shape)) if i != target], [], [], []
        for part in self.parts:
            axes = [preds[i] for i in part]
            joint.append(keys(sorted(axes + [target])))
            alone.append(np.empty(joint[-1].max() + 1, dtype=np.intp))
            alone[-1][joint[-1]] = keys(axes) + sum(sizes)
            joint[-1] += ny * sum(sizes)
            sizes.append(math.prod(shape[a] for a in axes))
        self.joint, self.alone, self.whole = np.array(joint), np.concatenate(alone), keys(preds)
        self.cell = np.tile(np.arange(cells.shape[1]), len(self.parts))
        self.joint_part, alone_part = (
            np.repeat(range(len(sizes)), np.multiply(sizes, y)) for y in (ny, 1))
        self.entropy_part = np.concatenate([self.joint_part, alone_part + len(sizes)])
        self.nbytes = _read_only(self)


def _constraints(slots: np.ndarray, m: int) -> np.ndarray:
    """The 0/1 matrix of ``m`` constraints, 1 at cell c's ``slots[j, c]``."""
    a = np.zeros((m, slots.shape[1]))
    a[slots, np.arange(slots.shape[1])] = 1.0
    return a


def _block(layout: _Layout, f: int, cells: np.ndarray) -> tuple:
    """Family f of ``layout`` on ``cells`` alone, as :class:`_Structure` holds it."""
    n, sizes, slots, gather = cells.size, [0], [], []
    for j in layout.families[f]:
        rank, keys = _ranks(layout.joint[j, cells], layout.joint_part.size)
        slots.append(sizes[-1] + rank)
        gather.append(keys)
        sizes.append(sizes[-1] + keys.size)
    a = _constraints(np.array(slots), sizes[-1])
    _, s, vt = np.linalg.svd(a, full_matrices=a.shape[0] < n)
    rank = (s > s[0] * max(a.shape) * np.finfo(float).eps).sum()
    xidx, keys = _ranks(layout.whole[cells], layout.whole.size)
    return (tuple(map(slice, sizes[:-1], sizes[1:])), slots, np.concatenate(gather), xidx,
            keys.size, vt[rank:].T.copy(), s[rank - 1])


def _group_index(xidx: np.ndarray, nx: int) -> np.ndarray:
    """Each cell's x-group across the rows of a stack of x-groups ``xidx``,
    shape ``(rows, cells, 1)``: row k's groups are ``k * nx`` to ``k * nx +
    nx - 1``."""
    return (xidx + nx * np.arange(len(xidx))[:, None])[:, :, None]


class _Structure:
    """The polytopes of a live-cell group's ``rows`` ``(i, cells)``, family
    i of ``layout`` on ``cells`` each, but for the masses and base pmf: a
    function of the :class:`_Layout` and the rows alone, so cached, with
    read-only arrays.  Row k, the k-th of ``rows``, has a block of
    constraints per part (``blocks[k]``; ``m[k]`` in all, which
    :meth:`constraints` builds as a matrix), one per part-target tuple of
    the cells in sorted order: those of positive mass,
    as each holds a base-support cell, live and in every face.  ``bidx[k]``
    gathers their masses from the layout's vector, zero-padded.  ``sweep[j,
    k, c]`` is the constraint of row k's block j holding cell c in the flat
    stack of those, block by block as :func:`_ipf_sweep` reads them; a row
    with fewer parts repeats its last block (``real`` marks the others),
    which a sweep has just fitted.
    ``xidx`` numbers each cell's x-group among ``nx[k]``.  ``basis[k]``,
    zero-padded from ``width[k]`` columns, spans the null space of row k's
    constraints alone, by one SVD of their matrix (counting singular values
    above ``s[0] * max(m[k], cells) * eps``), and ``sigma[k]`` is the least
    of those counted;
    ``group_basis`` sums the basis over each x-group.
    ``multi`` marks x-groups of more than one cell, ``shared`` each cell's:
    for one cell the Hessian block ``1/q - 1/q_x`` is exactly 0, and
    assembling it from two huge terms would leave rounding.
    Built once here, not per report: ``gidx``, each cell's x-group across
    rows; ``single = 1 - multi``; and ``pad``, shape ``(rows, r)``, 1 at
    each row's directions past its width, whose Hessian diagonal a step sets
    to 1 so that they get zero steps."""

    def __init__(self, layout: _Layout, rows: Sequence[tuple]):
        self.cells = np.array([cells for _, cells in rows])
        k, n = self.cells.shape
        self.blocks, slots, gathers, xidx, self.nx, bases, self.sigma = zip(
            *(_block(layout, *row) for row in rows))
        self.m, self.width = [g.size for g in gathers], [b.shape[1] for b in bases]
        width, depth, r, nx = max(self.m), max(map(len, slots)), max(self.width), max(self.nx)
        self.sweep = np.array([[sl[min(j, len(sl) - 1)] for sl in slots] for j in range(depth)])
        self.sweep += width * np.arange(k)[:, None]
        self.real = 1.0 * (np.arange(depth)[:, None, None] < [[len(b)] for b in self.blocks])
        self.bidx = np.full((k, width), layout.joint_part.size)  # the closing zero
        self.basis, self.xidx = np.zeros((k, n, r)), np.array(xidx)
        for row, (gather, basis) in enumerate(zip(gathers, bases)):
            self.bidx[row, : gather.size], self.basis[row, :, : basis.shape[1]] = gather, basis
        self.gidx = gidx = _group_index(self.xidx, nx)
        self.group_basis = np.bincount(
            (gidx * r + np.arange(r)).ravel(), self.basis.ravel(), k * nx * r).reshape(k, nx, r)
        self.multi = (np.bincount(gidx.ravel(), minlength=k * nx) > 1).reshape(k, nx, 1) * 1.0
        self.shared = self.multi.ravel()[gidx]
        self.single = 1.0 - self.multi
        self.pad = 1.0 * (np.arange(r) >= np.array(self.width)[:, None])
        self.nbytes = _read_only(self)

    def constraints(self, k: int) -> np.ndarray:
        """Row k's constraint matrix, ``m[k]`` by cells, rebuilt from ``sweep``."""
        return _constraints(self.sweep[:, k] - self.bidx.shape[1] * k, self.m[k])

    def misfit(self, v: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Each row's constraints on ``v``, less ``b``, for stacks as :class:`_Stack` holds them."""
        fit = np.bincount(self.sweep.ravel(), (v * self.real).ravel(), b.size)
        return fit.reshape(b.shape) - b


class _Stack:
    """A live-cell group of rows ``(i, live, inner)`` (family i of ``layout``
    on the cells of the mask ``live``) over one distribution: its cached
    :class:`_Structure`, keyed on exactly these rows; each row's base pmf
    ``x0`` and masses ``b`` from ``mass``, which the base pmf must meet at
    every constraint.  Row k of each is the k-th of ``group``."""

    def __init__(self, tab: _Tables, layout: _Layout, mass: np.ndarray, group: Sequence[tuple]):
        self.group = group
        s = self.structure = _structures.get(
            (layout.key, tuple((i, live.tobytes()) for i, live, _ in group)),
            lambda: _Structure(layout, [(i, np.flatnonzero(live)) for i, live, _ in group]))
        self.x0 = tab.pmf.ravel()[s.cells]
        self.b = mass[s.bidx]
        if (residual := np.abs(s.misfit(self.x0, self.b)).max()) > 1e-9:
            raise AssertionError(f"base distribution violates its own marginals by {residual}")


class MarginalPolytope:
    """Feasible set of the minimum-synergy program, reduced to live cells.

    Cells enumerate the product of the declared alphabets (not just the base
    support).  A cell is dropped when some preserved marginal forces it to
    zero; every feasible q vanishes there, so the reduction is exact.  The
    base pmf ``x0`` is feasible.  ``b`` and ``x0`` are the distribution's;
    ``blocks``, ``xidx``, ``nx`` and ``null_basis`` (an orthonormal basis of
    the constraint null space) are read-only views of the family's cached
    :class:`_Structure`, a group of one, and ``A``, the 0/1 constraint
    matrix, is built from it for each polytope."""

    def __init__(self, base: JointDistribution, parts: Sequence[PartSpec]):
        parts = tuple(parts)
        PartFamily(parts).validate(base.n_predictors, allow_full=True)
        tab = _Tables(base)
        layout, mass, live, _ = tab.masses([parts])
        stack = _Stack(tab, layout, mass, [(0, live[0], None)])
        s, cells = stack.structure, list(iter_product(*base.alphabets))
        self.cells: list[tuple] = [cells[c] for c in s.cells[0].tolist()]
        self.A, self.blocks, self.null_basis = s.constraints(0), s.blocks[0], s.basis[0]
        self.xidx, self.nx, self.b, self.x0 = s.xidx[0], s.nx[0], stack.b[0], stack.x0[0]


def _ipf_sweep(sweep: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One sweep of iterative proportional fitting from uniform, per row of a
    stack: block j rescales cell c of row k to the constraint ``sweep[j, k,
    c]`` of ``b``.  For a decomposable family (every report family but the
    Almosts) it is the feasible point of largest entropy on the cells."""
    _, k, n = sweep.shape
    q = np.full((k, n), 1.0 / n)
    for r in sweep:
        q *= b[r] / np.bincount(r.ravel(), q.ravel(), b.size)[r]
    return q


def _maximal_support(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mask of the cells some point of ``a q = b, q >= 0`` makes positive,
    and such a point on them, by one LP.

    Over the cone ``A y = s b``, ``y >= 0``, maximize ``sum(t)`` subject to
    ``0 <= t <= min(y, 1)``.  Scaling a feasible point up drives ``t`` to 1
    on its support, so the optimum has ``t = 1`` exactly on the largest
    support and 0 elsewhere, and ``y / s`` is feasible and positive there.
    """
    from scipy.optimize import linprog  # costly import, needed on this path only

    rows, n = a.shape
    eye = np.eye(n)
    res = linprog(
        np.concatenate([np.zeros(n), -np.ones(n), [0.0]]),
        A_ub=np.hstack([-eye, eye, np.zeros((n, 1))]),
        b_ub=np.zeros(n),
        A_eq=np.hstack([a, np.zeros((rows, n)), -b[:, None]]),
        b_eq=np.zeros(rows),
        bounds=[(0.0, None)] * n + [(0.0, 1.0)] * n + [(0.0, None)],
    )
    if res.status != 0:
        raise UnionConvergenceError(f"maximal-support LP failed: {res.message}", math.inf, math.inf)
    live = res.x[n:2 * n] > 0.5
    return live, res.x[:n][live] / res.x[-1]


def _pull(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per row of a stack: ``q`` when it is strictly positive; else the point
    from ``p`` towards it, half as far as positivity allows.  That point is
    strictly positive when ``p >= 0`` and ``p`` is positive wherever ``q`` is
    not."""
    pulled = ~(q.min(axis=1) > 0.0)
    if pulled.any():
        p, dq = p[pulled], q[pulled] - p[pulled]
        # Each falling cell's step to zero; some cell falls, as q is not positive.
        reach = np.divide(p, -dq, out=np.full_like(dq, np.inf), where=dq < 0.0)
        q = q.copy()
        q[pulled] = p + 0.5 * reach.min(axis=1, keepdims=True) * dq
    return q


def _gradient(v: np.ndarray, gidx: np.ndarray, nx: int):
    """At every point the solver visits, each start and each trial of a
    line search: for a stack of columns ``v``, shape ``(rows, cells, 1)``,
    the gradient of ``f = -H(Y|X) = v.grad`` (nats), which is ``ln
    v(y|x)``, and the x-group masses, shape ``(rows, nx, 1)``.  ``gidx``
    numbers each cell's x-group across rows: row k's groups are ``k * nx``
    to ``k * nx + nx - 1``."""
    vx = np.bincount(gidx.ravel(), v.ravel(), v.shape[0] * nx)
    return np.log(v / vx[gidx]), vx.reshape(-1, nx, 1)


def _newton_solve(hess: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``hess \\ g`` per matrix of a stack of float64 Newton systems; raises
    ``np.linalg.LinAlgError`` on a singular one.

    The private LAPACK gufunc and floating-point state of ``np.linalg.solve``,
    without its wrapping, type promotion and shape checks, which the stacks
    here do not need: 4.9 against 6.3 µs on a ``(7, 8, 8)`` stack (one core
    of a Xeon host, numpy 2.4), once per lockstep step.  A singular matrix
    is an invalid operation, raised here.  Checked on numpy 2.4; numpy
    1.24's ``np.linalg.solve`` calls the same gufunc, and the CI leg at
    numpy 1.24 runs this one."""
    try:
        with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
            return np.linalg._umath_linalg.solve(hess, g, signature="dd->d")
    except FloatingPointError:
        raise np.linalg.LinAlgError("Singular matrix") from None


class _Brackets:
    """Each family's certified bracket on its union, in bits, and the scans
    (lists of family indices) a report takes its maxima over.

    ``lower[i]`` starts at the largest single-part mutual information and
    only rises, to the Lagrange dual bounds of family i's Newton systems.
    ``upper[i]`` starts at the whole's mutual information and only falls, to
    the values of its start and of its Newton iterates, all feasible points.
    For pairwise disjoint parts ``P_k``, such as a bipartition, it starts at
    the smaller ``sum_k I(P_k; Y)``: the point ``p(Y) prod_k p(P_k | Y)`` is
    feasible, and under it ``I(X; Y)`` is at most that sum.  A family's
    value is ``upper[i]``.

    :meth:`done` is the one stop rule of every exit: before the build,
    before the steps and at each Newton step.  A family is done once its
    bracket is within a tenth of ``tolerance``, or once it is dominated: in
    every scan that lists it, some family j's ``lower[j]`` is more than
    ``tolerance`` above ``upper[i]``.  Solved, i would stop at most ``tolerance`` above its
    minimum, so ``V_i <= U_i + tolerance < L_j <= V_j``: it is never its
    scan's largest union.  Its value ``U_i`` is more than ``tolerance``
    below ``L_j``, so it is never within ``tolerance`` of the largest, which
    a witness is (see :mod:`pidirr.irreducibility`).  So a report's values
    (up to rounding) and witnesses are those of solving every family.  A
    family's own lower bound is below its upper bound, so it never dominates
    itself; one in no scan is never dominated.  A family that can no longer
    move is done once its bracket is within the whole ``tolerance``, and
    raises :class:`UnionConvergenceError` otherwise."""

    def __init__(self, scans: Sequence[Sequence[int]], count: int, tolerance: float):
        self.scans = [list(s) for s in scans if s]
        self.of = [[] for _ in range(count)]
        for k, s in enumerate(self.scans):
            for i in s:
                self.of[i].append(k)
        self.lower = [-math.inf] * count
        self.upper = [math.inf] * count
        self.tolerance = tolerance

    def done(self, ids: Sequence[int], stalled: Sequence[bool] = ()) -> list[bool]:
        """Whether each family of ``ids`` is done; ``stalled[k]`` says that
        ``ids[k]`` can no longer move."""
        close, tolerance, tops = 0.1 * self.tolerance, self.tolerance, None
        verdicts = []
        for i, stuck in zip(ids, stalled or [False] * len(ids)):
            upper, of = self.upper[i], self.of[i]
            gap = upper - self.lower[i]
            if gap <= (tolerance if stuck else close):
                verdicts.append(True)
                continue
            if of:  # each scan's top, once a row's own gap leaves it open
                tops = tops or [max(map(self.lower.__getitem__, s)) for s in self.scans]
                if min(map(tops.__getitem__, of)) > upper + tolerance:
                    verdicts.append(True)
                    continue
            if stuck:
                raise UnionConvergenceError(
                    f"minimum-synergy barrier solver stalled (gap {gap!r} bits)", upper, gap
                )
            verdicts.append(False)
        return verdicts


def _starts(tab: _Tables, stack: _Stack, brackets: _Brackets, groups: dict[int, list]):
    """Start every row of a live-cell group of rows ``(i, live, inner)`` in
    one pass, by the rule of the module docstring; return the indices of the
    rows started, and their starts ``(q, grad, qx, f)``: the points, and at
    them the gradient ``ln q(y|x)`` and the x-group masses, from one call
    of :func:`_gradient`, and the values ``-H(Y|X)`` in nats, a list.
    ``i`` indexes ``brackets``; ``inner`` is the start's origin from the
    support LP's point, feasible and positive on the face, or None.  A
    family with no free direction is done there, at the whole's mutual
    information.  A face smaller than the live cells joins ``groups`` at its
    size, not yet set up, with that origin and no further proof; one that
    misses a cell of the base support raises.  :func:`_lockstep` judges a
    started row, once every group's start is known."""
    s, x0 = stack.structure, stack.x0
    ids, inner = [row[0] for row in stack.group], [row[2] for row in stack.group]

    def project(v, at):  # v[j] onto the constraints of row at[j]
        dv = (v - x0[at])[:, :, None]
        return x0[at] + (s.basis[at] @ (s.basis[at].transpose(0, 2, 1) @ dv))[:, :, 0]

    q = project(_ipf_sweep(s.sweep, stack.b.ravel()), slice(None))
    zero, unproven = x0 == 0.0, [False] * len(ids)
    if zero.any():  # the face proof, on rows with a zero in the base pmf
        low = np.where(zero, q, np.inf).min(axis=1)
        # rounding: at most cells * eps * |q|_1 per block
        rounding = s.sweep[:, 0].size * np.finfo(float).eps * np.abs(q).sum(axis=1)
        bound = (np.linalg.norm(s.misfit(q, stack.b), axis=1) + rounding) / s.sigma
        unproven = ((low < np.inf) & (low <= bound)).tolist()
    keep = []
    for k, i in enumerate(ids):
        if not s.width[k]:  # no free direction: the base pmf is the only feasible q
            brackets.lower[i] = brackets.upper[i]
            continue
        if unproven[k] and inner[k] is None:
            a, support = s.constraints(k), x0[k] > 0.0
            face, y = _maximal_support(a, a @ support)
            if not face[support].all():  # the base pmf is feasible: its support is in the face
                raise UnionConvergenceError("maximal-support LP failed: its face misses the "
                                            "base support", math.inf, math.inf)
            inner[k] = x0[k][face] + 0.5 * x0[k][support].min() * (y - support[face])
            if not face.all():
                live = np.isin(np.arange(tab.pmf.size), s.cells[k, face])
                groups.setdefault(int(face.sum()), []).append((i, live, inner[k]))
                continue
        keep.append(k)
    lp = [j for j, k in enumerate(keep) if inner[k] is not None]
    keep = np.array(keep, dtype=np.intp)
    if lp or len(keep) < len(ids):
        origin, q = x0[keep], q[keep]
        if lp:
            origin[lp] = project(np.array([inner[keep[j]] for j in lp]), keep[lp])
    else:  # every row kept, none from the LP: no copies
        origin = x0
    q = _pull(origin, q)
    if not (q > 0.0).all():
        raise UnionConvergenceError(
            "no strictly positive start on the feasible face", math.inf, math.inf
        )
    v, nx, every = q[:, :, None], max(s.nx), len(keep) == len(ids)
    grad, qx = _gradient(v, s.gidx if every else _group_index(s.xidx[keep], nx), nx)
    f = (v.transpose(0, 2, 1) @ grad).ravel().tolist()  # -H(Y|X), nats
    for k, fk in zip(keep, f):
        brackets.upper[ids[k]] = min(brackets.upper[ids[k]], tab.hy + fk / _LN2)
    return keep, (q, grad, qx, f)


def _lockstep(
    stack: _Stack, rows: np.ndarray, start: tuple, ids: list[int], hy: float, brackets: _Brackets
) -> None:
    """Damped Newton steps on rows ``rows`` of ``stack`` at once, from their
    starts ``start``, as :func:`_starts` returns them, until ``brackets``
    has each row done; ``ids`` are the rows' families in ``brackets``, and
    ``hy`` is ``H(Y)`` in bits.  The starts' x-group masses are cut to the
    rows' widest x-group count.

    A row is judged by :meth:`_Brackets.done` at its start, before the first
    Newton system, and then once per step.  A step builds each row's Newton
    system at its point, whose dual bound goes to the row's bracket, and
    searches the line from 0.9 of the longest step that keeps every cell
    positive.  The value at the point the search accepts goes to the
    bracket, the row is judged there, and rows done leave before the next
    system is built, so a row whose start or step closes its bracket builds
    no further system.  A row whose line search ends below a step of 1e-12
    with ``mu`` at its floor cannot move again, nor can a row at that floor
    whose gap is within the rounding of its value, cells times eps times
    ``-f`` as bits, since ``-f = sum |q ln q(y|x)|``: about 1e-15 bits, read
    only by tolerances below 1e-14.  A row's iterates and ``mu`` schedule
    are those it takes in any stack of the same padded null width ``r``,
    which sets the shapes, and so the rounding, of its matrix products;
    alone, in a narrower stack, its last bits can differ.  Null bases are
    cut to the widest row, and the Hessian diagonal of the padded directions
    (``pad``), exactly 0, is set to 1 at flat indices found again when rows
    leave, so they get zero steps; a step's systems are one call of
    :func:`_newton_solve`.  When rows are done, a stack of cells times
    padded width squared at or above ``_SMALL_STACK`` re-indexes only what
    the next system reads.  A smaller stack keeps them: a row done takes
    zero steps and keeps its ``mu``, so after its first system, at the point
    it was judged at, its Newton system stays the same, and the brackets,
    :meth:`_Brackets.done`, step lengths and line search see only the rows
    not done.  Every stacked operation is per row, so either way a row takes
    the same bits.  Vectors are stacks of columns, so that ``matmul`` takes
    them as they are.  Per-row control reads a few ``tolist`` calls per
    step, in one pass over the rows not done before the line search (the
    dual bound, the first trial step) and one after it (the value, the stall
    flag, the stage cut and the arguments of the verdict); a bracket entry
    is written only when it tightens.  Every trial point of the line search
    is evaluated by :func:`_gradient`, as every start is; the values are
    taken once, at the point the search accepts, not at the trials it
    rejects."""
    s, lower, upper = stack.structure, brackets.lower, brackets.upper
    q, grad, qx, f = start
    q = q[:, :, None]
    k, n, _ = q.shape
    picked = rows.tolist()
    r, nx = max([s.width[j] for j in picked]), max([s.nx[j] for j in picked])
    qx = qx[:, :nx]
    reindex = n * r * r >= _SMALL_STACK
    at = slice(None) if len(rows) == len(stack.group) else rows  # every row: views, not copies
    basis, group_basis = s.basis[at, :, :r], s.group_basis[at, :nx, :r]
    multi, single, shared, xidx = s.multi[at, :nx], s.single[at, :nx], s.shared[at], s.xidx[at]
    pad, x0t = s.pad[at, :r], stack.x0[at][:, None, :]
    gidx = s.gidx if isinstance(at, slice) else _group_index(xidx, nx)

    # A centred gap is below cells * mu: mu ends at a tenth of the stop gap over
    # the cells, leaving room for rounding.
    mu_end = 0.1 * (0.1 * brackets.tolerance * _LN2) / n
    rounding = n * np.finfo(float).eps / _LN2  # times -f: a value's rounding, in bits
    # Each row's lower end, its part-MI bound so far, in f's terms: every
    # feasible q has H(Y) = hy.
    mu = [max((fk - (lower[i] - hy) * _LN2) / n, mu_end) for fk, i in zip(f, ids)]
    m = np.array(mu).reshape(k, 1, 1)
    mh = m  # the Hessian's mu: the previous step's, see the stage cut below
    live, judged, stalled = list(range(k)), ids, []  # every row is judged at its start
    for step in range(_MAX_NEWTON_STEPS + 1):
        keep = [j for j, done in zip(live, brackets.done(judged, stalled)) if not done]
        if not keep:
            return
        if step == _MAX_NEWTON_STEPS:
            break
        resized = not step  # derive what the rows set: at the first step, and when rows leave
        if reindex and len(keep) < k:
            # Only what the next system reads.
            k = len(keep)
            ids, mu = [ids[j] for j in keep], [mu[j] for j in keep]
            keep = np.array(keep)
            q, grad, qx, m, mh, basis, group_basis, pad, multi, single, shared, x0t, xidx = (
                v[keep] for v in
                (q, grad, qx, m, mh, basis, group_basis, pad, multi, single, shared, x0t, xidx)
            )
            gidx = _group_index(xidx, nx)
            keep, resized = list(range(k)), True
        live = keep
        if resized:
            basis_t, group_t = basis.transpose(0, 2, 1), group_basis.transpose(0, 2, 1)
            gflat, kx = gidx.ravel(), k * nx
            # Per row: z.x0, max z, the largest sum of exp(z - max z) over an
            # x-group, the Newton decrement, and the most negative dq / q,
            # which limits the step.
            c_zx, c_top, c_sum, c_dec, c_fall = ctl = np.empty((5, k, 1, 1))
            trial = np.empty((k, 1, 1))  # each row's trial step
            trials = trial.reshape(k)
            row, col = np.nonzero(pad)
            padded = row * (r * r) + col * (r + 1)  # the padded Hessian diagonal, flat
        inv = 1.0 / q
        descent = m * inv - grad  # minus the barrier gradient
        g = basis_t @ descent
        w = multi / (qx + single)  # single keeps w finite on padded groups
        d = (shared + mh * inv) * inv
        hess = basis_t @ (basis * d)
        hess -= group_t @ (group_basis * w)  # in place: one Hessian stack fewer at peak
        hess.ravel()[padded] = 1.0  # hess is C-contiguous, so ravel is a view
        try:
            dz = _newton_solve(hess, g)
        except np.linalg.LinAlgError:
            dz = np.array([np.linalg.lstsq(h, gk, rcond=None)[0] for h, gk in zip(hess, g)])
        dq = basis @ dz
        # Multipliers of the marginal constraints: by the Newton system, the
        # barrier gradient plus its Hessian times dq lies in range(A^T).  For
        # such z every feasible q has z.q = z.x0, and -H(Y|X) - z.q is at
        # least -max_x logsumexp_y z_xy on the simplex (nats), at any iterate.
        # A padded x-group sums to 0 and never wins.
        dqx = np.bincount(gflat, dq.ravel(), kx)
        z = d * dq - descent - (w.ravel() * dqx)[gidx]
        z -= basis @ (basis_t @ z)
        np.matmul(x0t, z, out=c_zx)
        np.maximum.reduce(z, 1, keepdims=True, out=c_top)
        sums = np.bincount(gflat, np.exp(z - c_top).ravel(), kx)
        np.maximum.reduce(sums.reshape(k, nx, 1), 1, keepdims=True, out=c_sum)
        np.matmul(g.transpose(0, 2, 1), dz, out=c_dec)
        np.minimum.reduce(dq * inv, 1, keepdims=True, out=c_fall)
        zx, tops, smax, decs, falls = ctl.reshape(5, k).tolist()
        # The first trial is 0.9 of the longest step that keeps every cell
        # positive, at most 1; a row done takes a zero step.  In a sweep of
        # this fraction from 0.75 to 0.99, 0.875-0.9 took the fewest Newton
        # systems on every input class tried (binary n=3 with and without
        # zeros, binary n=4, ternary n=3 with and without zeros, and at
        # tolerance 1e-10); 0.99, whose first trial mostly overshoots and is
        # halved, took 14-18% more.
        steps = [0.0] * k
        for j in live:
            i = ids[j]
            bound = hy + (zx[j] - (tops[j] + math.log(smax[j]))) / _LN2
            if bound > lower[i]:
                lower[i] = bound
            step = 1.0 if falls[j] >= 0.0 else -0.9 / falls[j]
            steps[j] = step if step < 1.0 else 1.0
        # Halve while the step overshoots the minimum along the line by more
        # than half the starting slope.  Slopes of a convex function need no
        # differences of rounded values, which vanish as mu gets small.
        while True:
            trials[:] = steps
            cand = q + trial * dq
            gc, vx = _gradient(cand, gidx, nx)
            slopes = ((gc - m / cand).transpose(0, 2, 1) @ dq).ravel().tolist()
            over = [j for j in live if not (slopes[j] <= 0.5 * decs[j] or steps[j] < 1e-12)]
            if not over:
                break
            for j in over:
                steps[j] *= 0.5
        q, grad, qx = cand, gc, vx
        f = (q.transpose(0, 2, 1) @ grad).ravel().tolist()
        # A step that began with a Newton decrement of at most 5 mu ends its
        # row's stage.  The next system keeps the stage's mu in its Hessian,
        # so its step is the tangent predictor; the dual bound holds for any
        # Hessian.  The system after it is built at the new mu.  A row done
        # keeps its mu.
        stage, judged, stalled = list(mu), [], []
        for j in live:
            i, mj = ids[j], mu[j]
            value = hy + f[j] / _LN2
            if value < upper[i]:
                upper[i] = value
            if decs[j] <= 5.0 * mj:
                cut = mj / 100.0
                stage[j] = mu_end if mu_end > cut else cut
            judged.append(i)
            stalled.append(mj == mu_end and (
                steps[j] < 1e-12 or upper[i] - lower[i] <= -f[j] * rounding))
        mh = m
        if stage != mu:
            mu, m = stage, np.array(stage).reshape(k, 1, 1)
    gaps = {i: upper[i] - lower[i] for i in (ids[j] for j in keep)}
    widest = max(gaps, key=gaps.__getitem__)
    raise UnionConvergenceError(
        f"minimum-synergy barrier solver did not close its gap in "
        f"{_MAX_NEWTON_STEPS} Newton steps (gap {gaps[widest]!r} bits)",
        upper[widest],
        gaps[widest],
    )


def _min_synergy_brackets(
    tab: _Tables,
    families: Sequence[Sequence[PartSpec]],
    m: UnionMeasure,
    scans: Sequence[Sequence[int]] = (),
) -> list[tuple[float, float]]:
    """``(value, lower)`` in bits per family over ``tab``'s distribution:
    the upper and lower ends of its bracket (see :class:`_Brackets`), with
    ``scans`` lists of indices into ``families``.  Each live-cell group,
    largest first, is checked and started by :func:`_starts`; then every
    row each started goes to :func:`_lockstep`, which judges it first.  A
    bracket only tightens, so a row done at its start is done there too."""
    layout, mass, live, mi = tab.masses(families)
    brackets = _Brackets(scans, len(families), m.tolerance)
    groups: dict[int, list] = {}
    for i, (parts, size) in enumerate(zip(layout.families, live.sum(axis=1).tolist())):
        mis = [mi[j] for j in parts]
        brackets.lower[i] = max(mis)
        brackets.upper[i] = min(tab.whole_mi, sum(mis)) if layout.disjoint[i] else tab.whole_mi
        groups.setdefault(size, []).append((i, live[i], None))
    started = []
    while groups:
        group = groups.pop(max(groups))
        verdicts = brackets.done([row[0] for row in group])
        group = [row for row, done in zip(group, verdicts) if not done]
        if group:
            stack = _Stack(tab, layout, mass, group)
            rows, start = _starts(tab, stack, brackets, groups)
            started.append((stack, rows, start, [group[k][0] for k in rows.tolist()]))
    for stack, rows, start, ids in started:
        if ids:
            _lockstep(stack, rows, start, ids, tab.hy, brackets)
    return [(u, min(l, u)) for l, u in zip(brackets.lower, brackets.upper)]


def _solve(
    m: UnionMeasure,
    d: JointDistribution,
    families: Sequence[Sequence[PartSpec]],
    scans: Sequence[Sequence[int]] = (),
) -> tuple[float, list[float]]:
    """The whole's mutual information and the union information of each of
    ``families`` (nonempty, distinct and valid, each a tuple of parts), in
    bits, from one :class:`_Tables`.  With ``scans``, lists of indices into
    ``families``, a dominated family (see :class:`_Brackets`) may stand at an
    upper bound on its union further than the tolerance above it.  ``maxmi``
    reads every part's mutual information from one pass over the masses."""
    tab = _Tables(d)
    if m.kind is MeasureKind.MAX_SINGLE_MI:
        layout, *_, mi = tab.masses(families)
        return tab.whole_mi, [max(mi[j] for j in parts) for parts in layout.families]
    return tab.whole_mi, [v for v, _ in _min_synergy_brackets(tab, families, m, scans)]


def union_information(
    m: UnionMeasure, d: JointDistribution, family: PartFamily | Iterable[PartSpec]
) -> float:
    """Union information the family's parts convey about the distribution's
    target, in bits."""
    if not isinstance(family, PartFamily):
        family = PartFamily(tuple(family))
    family.validate(d.n_predictors, allow_full=True)
    return _solve(m, d, [family.parts])[1][0]
