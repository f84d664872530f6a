"""Sweep engine: dual block minimization driven by a cycle plan.

Each sweep jointly minimizes the dual objective over its outer index set
(complement frozen) and, independently, over each inner block (block sum
frozen).  Each subproblem's solve tier is fixed once, when its sweep is
compiled: an outer set with at most one proximable index has an exact closed
form; an outer set with two or more, and a block with two or more term
members, run the one nested coordinate loop (_nested_rows) and are flagged
approximate.  All subproblems of a sweep read the same snapshot of the duals
and write disjoint rows, so they are independent; they run one after
another, and their order cannot change the result.

The blocks with a single term member are where a sweep is parallel: they are
grouped by term kind and each group is solved in one vectorized call of a
term stack (terms.stack_terms), the product-space schedule's r-1 blocks
included.  The dual objective reads its conjugates through the same stacks.
A stack's row results do not depend on the other rows, so a block solved on
its own (solve_inner_block) gives the same bits as inside its sweep.

check_level:
  "off"    objective at cycle ends only, no per-sweep snapshots,
  "sweep"  per-sweep ascent and gain margins, stationarity of exact outer
           sets, freeze equalities, per-cycle convergence certificates,
  "full"   additionally a sequential replay of each sweep with per-subproblem
           gain checks.
With checks on, the sweep loop only solves and writes the duals after each
sweep into a snapshot buffer; when the cycle ends, one pass compiled per
cycle pattern (_CCheck) evaluates every check of the cycle from the buffer
in a few vectorized calls.  Conjugates are evaluated only for the rows each
sweep writes, the per-sweep objective is bitwise equal to dual_objective on
each snapshot, and a failure raises the same error for the same sweep as a
check made sweep by sweep would, the sweeps before a non-finite one first.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import schedule as sched
from .state import DualState, dual_objective_from, dual_objective_z
# kept as an engine name for perfbench/tracer.py, which wraps it here; the
# cycle-end check pass evaluates the same residuals row-wise (_fenchel)
from .state import fenchel_residual  # noqa: F401
from .terms import DimensionMismatch, _dots, stack_terms, stacked_conjugates

ASCENT_TOL = 1e-10        # plain monotonicity slack
SWEEP_GAIN_TOL = 1e-8     # slack on the quadratic-margin ascent inequality
CLAIM_TOL = 1e-8          # stationarity residual after exact solves
CERT_SLACK = 1e-9         # slack on the certificate distance bound

_INF = float("inf")


class EngineInvariantError(RuntimeError):
    """A runtime check (ascent, freeze, certificate, replay) failed."""


class NonFiniteStateError(EngineInvariantError):
    """The dual state picked up a NaN or infinity."""


class InvalidScheduleError(ValueError):
    """The plan fails the touch-pattern conditions and override is off."""


class ScheduleGrowthWarning(UserWarning):
    """The plan does not meet the growth condition; the monitor is advisory."""


@dataclass
class SolveParams:
    max_iterations: int = 1000
    stop_gap: float | None = None
    nested_bcm_sweeps: int = 64
    nested_tol: float = 1e-12
    workers: int = 1          # deprecated and ignored: sweeps run serially
    check_level: str = "sweep"
    allow_invalid_schedule: bool = False
    per_sweep_trace: bool = False

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.stop_gap is not None and not self.stop_gap >= 0.0:
            raise ValueError("stop_gap must be nonnegative when set")
        if self.nested_bcm_sweeps < 1:
            raise ValueError("nested_bcm_sweeps must be at least 1")
        if not self.nested_tol > 0.0:
            raise ValueError("nested_tol must be positive")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.workers > 1:
            warnings.warn("workers is deprecated and ignored; sweeps run"
                          " serially", DeprecationWarning, stacklevel=3)
        if self.check_level not in ("off", "sweep", "full"):
            raise ValueError("check_level must be off, sweep, or full")


@dataclass
class TraceRow:
    n: int
    w: int
    F: float | None
    v_diff: float
    inner_diffs: dict
    gamma_n: float | None
    growth_monitor: float | None
    cert_max_residual: float | None
    approx: bool


@dataclass
class Certificate:
    index: int
    point: np.ndarray
    residual: float
    fenchel: float


@dataclass
class RunResult:
    state: DualState
    x: np.ndarray
    F: float
    F_initial: float
    stop_reason: str
    cycles_run: int
    cycle_rows: list
    sweep_rows: list | None
    gamma: np.ndarray
    growth: np.ndarray
    F_per_cycle: np.ndarray
    sq_diff_cumsum: np.ndarray
    cycle_start_duals: list
    certificates: list | None
    any_approx: bool
    analysis: sched.ScheduleAnalysis


# ---------------------------------------------------------------------------
# subproblem solvers (snapshot in, replacement rows written to out)
# ---------------------------------------------------------------------------
#
# Every solver has the signature (spec, z, arg, params, out) -> exact, where
# arg is what _CSweep fixed for it at compile time.  Each reads everything it
# needs from z before it writes out, so out may be z itself when the sweep
# has one subproblem.

def _prox_row(spec, z, i, params, out):
    """Outer set {i} with one term row: its dual prox against the rest."""
    u = spec.x0 - (z.sum(axis=0) - z[i])
    out[i] = u - spec.terms[i].prox(u, 1.0)
    return True


def _quad_rows(spec, z, quad0, params, out):
    """Outer set of quadratic-copy rows only: all share -rest / (k + 1)."""
    c = z.sum(axis=0) - z[quad0].sum(axis=0)
    out[quad0] = -c / (quad0.size + 1.0)
    return True


def _prox_quad_rows(spec, z, outer0, params, out):
    """Outer set of one term row outer0[0] plus the quadratic rows after it."""
    i, quad0 = int(outer0[0]), outer0[1:]
    c = z.sum(axis=0) - z[outer0].sum(axis=0)
    tau = quad0.size + 1.0
    # eliminate the copies: z_i minimizes h_i*(.) + ||. - u_bar||^2/(2 tau)
    u_bar = tau * spec.x0 - c
    x_hat = spec.terms[i].prox(u_bar / tau, 1.0 / tau)
    z_i = u_bar - tau * x_hat
    out[quad0] = -(z_i + c) / tau
    out[i] = z_i
    return True


def _stacked_blocks(spec, z, arg, params, out):
    """Blocks {I[k], J[k]} with one term member each, in one stacked call.

    Exact: the term row takes the dual prox at its block sum plus x0 and the
    governing row J[k] the rest of the frozen sum.
    """
    stack, I, J = arg
    bsum = z[I] + z[J]
    z_i = stack.moreau(bsum + spec.x0)
    out[I] = z_i
    out[J] = bsum - z_i
    return True


def _nested_rows(spec, z, arg, params, out):
    """Cyclic coordinate minimization over rows (0-based, sorted); approximate.

    Each row takes its dual prox (a quadratic row: -rest / 2) at x0 minus
    rest, where rest is a frozen offset plus the loop's other rows.  With
    j0 None, rows are an outer set and the offset is the frozen rows' sum.
    Otherwise rows are the term members of the block governed by j0: the
    offset is minus the block sum, and j0 gets the block sum minus the
    members.  Stops after params.nested_bcm_sweeps passes or once a pass
    moves no entry by params.nested_tol.
    """
    rows, j0 = arg
    work = z[rows]
    if j0 is None:
        offset = z.sum(axis=0) - work.sum(axis=0)
    else:
        bsum = work.sum(axis=0) + z[j0]
        offset = -bsum
    for _ in range(params.nested_bcm_sweeps):
        delta = 0.0
        for k, i in enumerate(rows.tolist()):
            rest = offset + (work.sum(axis=0) - work[k])
            if i < spec.r:
                u = spec.x0 - rest
                new = u - spec.terms[i].prox(u, 1.0)
            else:
                new = -0.5 * rest
            delta = max(delta, float(np.abs(new - work[k]).max()))
            work[k] = new
        if delta < params.nested_tol:
            break
    out[rows] = work
    if j0 is not None:
        out[j0] = bsum - work.sum(axis=0)
    return False


class _Step(NamedTuple):
    """One compiled subproblem group: solve(spec, z, arg, params, out).

    subs are its subproblems as (rows, margin row): the margin row is a
    block's governing row, or None for the outer set, whose margin is the
    move of the dual sum.  conj_groups are the stacks of the term rows it
    writes.
    """
    solve: Callable
    arg: object
    subs: list
    conj_groups: list


class _CSweep:
    """Compiled sweep: its subproblem steps plus the 1-based originals.

    steps (_Step, 0-based rows) run in this order: the blocks with one term
    member, one _stacked_blocks step per term kind (terms.stack_terms); each
    block with several term members (_nested_rows); the outer set.  The
    outer set's tier is exact for one term row (_prox_row), only quadratic
    rows (_quad_rows) or one term row plus quadratic rows (_prox_quad_rows),
    and _nested_rows for two or more term rows.  The sweep's conj_groups
    join the steps', the only cached conjugates it can change.  gov0 are the
    governing rows of the blocks in block_js order, and exact says that no
    step runs _nested_rows.
    """

    __slots__ = ("steps", "outer1", "block_js", "gov0", "conj_groups", "exact")

    def __init__(self, sweep, spec):
        terms = spec.terms
        self.outer1 = tuple(sorted(sweep.outer))
        self.block_js = tuple(sorted(sweep.inner))
        self.gov0 = np.array([j - 1 for j in self.block_js], dtype=np.intp)
        single = {}   # term row -> governing row, for one-member blocks
        nested = []
        for j in self.block_js:
            prox0 = sorted(i - 1 for i in sweep.inner[j] if i != j)
            if len(prox0) == 1:
                single[prox0[0]] = j - 1
                continue
            prox0 = np.array(prox0, dtype=np.intp)
            all0 = np.array(sorted(i - 1 for i in sweep.inner[j]), dtype=np.intp)
            nested.append(_Step(_nested_rows, (prox0, j - 1), [(all0, j - 1)],
                                stack_terms(terms, prox0)))
        self.steps = []
        for I, stack in stack_terms(terms, list(single)):
            J = np.array([single[i] for i in I.tolist()], dtype=np.intp)
            subs = [(np.array([i, j]), j)
                    for i, j in zip(I.tolist(), J.tolist())]
            self.steps.append(_Step(_stacked_blocks, (stack, I, J), subs,
                                    [(I, stack)]))
        self.steps.extend(nested)
        if self.outer1:
            outer0 = np.array([i - 1 for i in self.outer1], dtype=np.intp)
            prox0 = outer0[outer0 < spec.r]
            if prox0.size >= 2:
                solve, arg = _nested_rows, (outer0, None)
            elif prox0.size == 0:
                solve, arg = _quad_rows, outer0
            elif outer0.size == 1:
                solve, arg = _prox_row, int(prox0[0])
            else:
                solve, arg = _prox_quad_rows, outer0
            self.steps.append(_Step(solve, arg, [(outer0, None)],
                                    stack_terms(terms, prox0)))
        self.conj_groups = [g for step in self.steps for g in step.conj_groups]
        self.exact = all(step.solve is not _nested_rows for step in self.steps)


def _execute_sweep(spec, z, cs, params, out=None):
    """Run one sweep against the snapshot z; returns (z_new, exact).

    Every step reads z itself, never the rows an earlier step wrote.  z_new
    is a copy of z with the sweep's rows replaced, written into out when
    given (a snapshot buffer row) and else a new array, or z itself for an
    empty sweep.
    """
    if out is None:
        if not cs.steps:
            return z, True
        out = z.copy()
    else:
        out[...] = z
    exact = True
    for step in cs.steps:
        exact = step.solve(spec, z, step.arg, params, out) and exact
    return out, exact


def _movement(z_new, z_old, cs, v_new=None, v_old=None):
    """How far a sweep moved the dual sum and each block's governing row.

    v_new and v_old, when given, are the row sums of z_new and z_old.
    """
    if v_new is None:
        v_new = z_new.sum(axis=0)
    if v_old is None:
        v_old = z_old.sum(axis=0)
    v_diff = float(np.linalg.norm(v_new - v_old))
    if not cs.block_js:
        return v_diff, {}
    diff = z_new[cs.gov0] - z_old[cs.gov0]
    norms = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    return v_diff, dict(zip(cs.block_js, norms.tolist()))


# ---------------------------------------------------------------------------
# public single-step operations
# ---------------------------------------------------------------------------

def _check_indices(spec, indices):
    for i in indices:
        if not 1 <= i <= spec.n_duals:
            raise IndexError(f"dual index {i} out of range 1..{spec.n_duals}")


def _solve_in_place(spec, z, sweep, params):
    """Run a sweep of at most one subproblem directly on z; returns exact."""
    exact = True
    for step in _CSweep(sweep, spec).steps:
        exact = step.solve(spec, z, step.arg, params, z)
    return exact


def solve_outer(spec, state, S, params=None):
    """Exactly-or-approximately minimize over the 1-based index set S in place."""
    S = sorted(set(int(i) for i in S))
    _check_indices(spec, S)
    return _solve_in_place(spec, state.z, sched.SweepPlan(outer=S),
                           params or SolveParams())


def solve_inner_block(spec, state, j, members, params=None):
    """Minimize over block members with the block sum frozen, in place."""
    sweep = sched.SweepPlan(inner={int(j): frozenset(int(i) for i in members)})
    sched._check_ranges([sweep], spec.r, spec.m, "ad-hoc block")
    return _solve_in_place(spec, state.z, sweep, params or SolveParams())


def run_sweep(spec, state, sweep, params=None):
    """Execute one SweepPlan in place; returns movement diagnostics."""
    params = params or SolveParams()
    sched._check_ranges([sweep], spec.r, spec.m, "ad-hoc sweep")
    cs = _CSweep(sweep, spec)
    z_new, exact = _execute_sweep(spec, state.z, cs, params)
    v_diff, inner_diffs = _movement(z_new, state.z, cs)
    state.z = z_new
    state.w += 1
    return {"v_diff": v_diff, "inner_diffs": inner_diffs, "exact": exact}


# ---------------------------------------------------------------------------
# per-cycle checks
# ---------------------------------------------------------------------------
#
# With checks on, the sweep loop only solves: it writes the cycle start and
# the duals after each sweep w into row w of a snapshot buffer S.  When the
# cycle ends, _CCheck evaluates every check of the cycle from S in a few
# vectorized calls and raises the first failure in the order the checks
# come sweep by sweep.  Each sum is taken in the order of the scalar formula
# it stands for, so every per-sweep objective is bitwise equal to
# dual_objective_from on its snapshot.

def _quad_parts(spec, X, Z):
    """Rows of spec.quad_value at X and of spec.conjugate_quad at Z."""
    D = X - spec.x0
    E = Z + spec.x0
    return 0.5 * _dots(D, D), 0.5 * _dots(E, E) - 0.5 * spec._x0_sq


def _fenchel(H, C, X, Z):
    """Rows of fenchel_residual from h_i(x), h_i*(z) and the points.

    h and h* are never -inf, so an infinite one gives +inf, as there.
    """
    return np.maximum(H + C - _dots(X, Z), 0.0)


def _objectives(spec, S, V, total):
    """dual_objective_from on every snapshot S[w], w >= 1.

    V holds the row sums of S and total[w - 1] the sum(conjugates, 0.0) of
    S[w]; an infinite one gives -inf.
    """
    if spec.m:
        Q = S[1:, spec.r:] + spec.x0
        total = total + (0.5 * (Q * Q).reshape(len(Q), -1).sum(axis=1)
                         - spec.m * 0.5 * spec._x0_sq)
    D = spec.x0 - V[1:]
    return -(total + (0.5 * _dots(D, D) - 0.5 * spec._x0_sq))


def _pair_stacks(terms, rows, shared):
    """stack_terms over a list of term rows that may repeat.

    Returns [(positions in rows, stack), ...].  shared maps a tuple of term
    rows to their stack: a group of the same rows reuses it, and a new one
    is added.
    """
    out = []
    for pos, stack in stack_terms([terms[i] for i in rows], range(len(rows))):
        key = tuple(rows[k] for k in pos.tolist())
        out.append((pos, shared.setdefault(key, stack)))
    return out


def _freeze_masks(c_analysis, W, n):
    """What sweeps 1..W of a cycle must leave unchanged, as masks.

    Returns (after, pairs, cols, window).  after[w - 1, i] holds when sweep
    w comes after row i's last touch.  pairs are the (member i2, q, p) of
    every block member whose block has a protected window, in the order of
    the touch maps; cols are their rows and window[k, w - 1] holds when
    sweep w lies inside the window q+1..p-1 of pair k.
    """
    after = np.zeros((W, n), dtype=bool)
    for i1, p in c_analysis.p.items():
        after[p:, i1 - 1] = True
    pairs = [(i2, q, c_analysis.p[i1]) for i1, q in c_analysis.q.items()
             for i2 in c_analysis.block_members[i1]]
    window = np.zeros((len(pairs), W), dtype=bool)
    for k, (_, q, p) in enumerate(pairs):
        window[k, q:p - 1] = True
    cols = np.array([i2 - 1 for i2, _, _ in pairs], dtype=np.intp)
    return after, pairs, cols, window


def _assert_freeze(c_analysis, snaps, n, masks=None):
    """Bitwise freeze equalities implied by the touch pattern.

    snaps holds one cycle's snapshots 0..W, as a list or one array, and
    masks are their _freeze_masks.  moved[w - 1, row] says whether the row
    changed bitwise from snaps[w - 1] to snaps[w].  A row equals its value
    at sweep p in every later snapshot exactly when it never moves after p,
    and the first sweep that moves it is the first that differs from sweep
    p.
    """
    S = np.asarray(snaps)
    W = len(S) - 1
    moved = np.empty((W, S.shape[1]), dtype=bool)
    for k in range(0, W, 8):   # 8 sweeps at a time bound the temporary
        e = min(k + 8, W)
        moved[k:e] = (S[k + 1:e + 1] != S[k:e]).any(axis=2)
    after, pairs, cols, window = (masks or
                                  _freeze_masks(c_analysis, W, S.shape[1]))
    bad = moved & after
    if bad.any():
        for i1, p in c_analysis.p.items():
            col = bad[:, i1 - 1]
            if col.any():
                raise EngineInvariantError(
                    f"cycle {n}: z_{i1} moved after its last touch"
                    f" (sweep {p} vs {1 + int(col.argmax())})")
    if pairs:
        hit = (window & moved[:, cols].T).any(axis=1)
        if hit.any():
            i2, q, p = pairs[int(hit.argmax())]
            raise EngineInvariantError(
                f"cycle {n}: block member z_{i2} moved inside the"
                f" protected window ({q}..{p - 1})")


def _cert_layout(c_analysis, r):
    """Where each index's certificate point is read from, as index arrays.

    Returns ((rows, p), (rows, p), [(rows, p, q, parts), ...]): the indices
    last touched by an outer solve, the quadratic indices last touched in a
    block, and the term indices last touched in a block, these grouped by
    their number of term members (parts, 0-based and sorted).
    """
    outer, quad, blocks = [], [], {}
    for i1 in sorted(c_analysis.p):
        i0, p = i1 - 1, c_analysis.p[i1]
        j1 = c_analysis.via_block.get(i1)
        if j1 is None:
            outer.append((i0, p))
        elif i1 > r:
            quad.append((i0, p))
        else:
            parts = sorted(i2 - 1 for i2 in c_analysis.block_members[i1]
                           if i2 != j1)
            blocks.setdefault(len(parts), []).append(
                (i0, p, c_analysis.q[i1], parts))

    def columns(pairs):
        a = np.array(pairs, dtype=np.intp).reshape(len(pairs), 2)
        return a[:, 0], a[:, 1]

    return columns(outer), columns(quad), [
        (np.array([b[0] for b in group], dtype=np.intp),
         np.array([b[1] for b in group], dtype=np.intp),
         np.array([b[2] for b in group], dtype=np.intp),
         np.array([b[3] for b in group], dtype=np.intp))
        for group in blocks.values()]


def _certificates(spec, S, V, layout, groups, conjugates):
    """Certificate points, their distances to the iterate, Fenchel residuals.

    S holds one cycle's snapshots 0..W, V their row sums and conjugates the
    r term conjugates at S[-1]; groups are the stacks of all r terms.  For
    an index last touched by an outer solve at sweep p the point is x0 - v
    at that sweep; for a term index last touched inside a block the
    frozen-window mixed sum is used; for the governing quadratic index it is
    x0 + z_j at sweep p.
    """
    (o_rows, o_p), (q_rows, q_p), blocks = layout
    x0 = spec.x0
    X = np.empty(S.shape[1:])
    points = V[o_p]
    np.subtract(x0, points, out=points)
    X[o_rows] = points
    X[q_rows] = x0 + S[q_p, q_rows]
    for rows, p, q, parts in blocks:
        part_p = S[p[:, None], parts].sum(axis=1)
        part_q = S[q[:, None], parts].sum(axis=1)
        X[rows] = x0 - part_p - (V[q] - part_q)
    D = X - (x0 - V[-1])
    res = np.sqrt(_dots(D, D))
    del points, D   # before the term values add their own temporaries
    Z = S[-1]
    r = spec.r
    H = np.empty(len(X))
    C = np.empty(len(X))
    for rows, stack in groups:
        H[rows] = stack.value(X[:r] if rows.size == r else X[rows])
    C[:r] = conjugates
    H[r:], C[r:] = _quad_parts(spec, X[r:], Z[r:])
    return X, res, _fenchel(H, C, X, Z)


def _certificate_list(X, residuals, fenchels):
    return [Certificate(index=i + 1, point=x, residual=res, fenchel=fen)
            for i, (x, res, fen) in enumerate(
                zip(X, residuals.tolist(), fenchels.tolist()))]


def certificate_points(spec, snaps, c_analysis, conjugates=None):
    """Per-index primal certificates from one cycle's sweep snapshots.

    snaps[w] must be the duals after sweep w (snaps[0] the cycle start), as
    a list or one array, and the analysis must be valid for this cycle.
    conjugates, when given, are the r term conjugates at snaps[-1]; they
    are evaluated through the term stacks otherwise.  The engine computes
    its certificates through the same arrays.
    """
    S = np.asarray(snaps, dtype=float)
    groups = stack_terms(spec.terms, range(spec.r))
    if conjugates is None:
        conjugates = stacked_conjugates(groups, S[-1], np.empty(spec.r))
    return _certificate_list(*_certificates(
        spec, S, S.sum(axis=1), _cert_layout(c_analysis, spec.r), groups,
        conjugates))


class _CCheck:
    """The checks of one cycle's sweep list, compiled once like _CSweep.

    sweep_pass evaluates the per-sweep checks (ascent, margin, stationarity
    of exact outer sets, and the replay at check_level="full") and
    cycle_pass the freeze equalities and certificates, both from the
    cycle's snapshot buffer.  Compiled here:
      conj    one (sweeps, rows, positions, stack) gather per term kind over
              the (sweep, term row) pairs that the sweeps write, in sweep
              order; positions index the array of their new conjugates
      layers  (mask, positions) per k for the rows' k-th writes in the
              cycle: mask[w - 1, i] holds from the sweep of row i's k-th
              write on, and positions[i] is that write's pair
      stat_*  the (sweep, row) pairs of the exact outer sets in sweep and
              index order, with stacks for their term rows
      masks, layout   freeze masks and certificate layout (valid plans only)
    """

    def __init__(self, sweeps, spec, c_analysis, valid, shared):
        r = spec.r
        self.sweeps = sweeps
        self.exact = np.array([cs.exact for cs in sweeps], dtype=bool)
        pw, pi, sw, si = [], [], [], []
        for w, cs in enumerate(sweeps, start=1):
            for rows, _ in cs.conj_groups:
                pw += [w] * rows.size
                pi += rows.tolist()
            if cs.exact:
                sw += [w] * len(cs.outer1)
                si += [i1 - 1 for i1 in cs.outer1]
        self.n_pairs = len(pi)
        pw_a, pi_a = np.array(pw, dtype=np.intp), np.array(pi, dtype=np.intp)
        self.conj = [(pw_a[pos], pi_a[pos], pos, stack)
                     for pos, stack in _pair_stacks(spec.terms, pi, shared)]
        self.layers = []
        writes = [0] * r
        for k, (w, i) in enumerate(zip(pw, pi)):
            if writes[i] == len(self.layers):
                self.layers.append((np.zeros((len(sweeps), r), dtype=bool),
                                    np.zeros(r, dtype=np.intp)))
            mask, pos = self.layers[writes[i]]
            mask[w - 1:, i] = True
            pos[i] = k
            writes[i] += 1
        pair = {wi: k for k, wi in enumerate(zip(pw, pi))}

        self.stat_w = np.array(sw, dtype=np.intp)
        self.stat_i = np.array(si, dtype=np.intp)
        terms = np.flatnonzero(self.stat_i < r)
        self.stat_quads = np.flatnonzero(self.stat_i >= r)
        # an exact outer set writes its term rows: their pairs hold h*
        self.stat_terms = (terms, np.array(
            [pair[w, i] for w, i in zip(self.stat_w[terms].tolist(),
                                        self.stat_i[terms].tolist())],
            dtype=np.intp))
        self.stat_groups = [
            (terms[pos], stack) for pos, stack in _pair_stacks(
                spec.terms, self.stat_i[terms].tolist(), shared)]

        self.c_analysis = c_analysis
        if valid:
            self.masks = _freeze_masks(c_analysis, len(sweeps), spec.n_duals)
            self.layout = _cert_layout(c_analysis, r)

    def _stationarity(self, spec, S, V, new):
        """fenchel_residual of every stat pair at its sweep's x0 - v."""
        X = V[self.stat_w]
        np.subtract(spec.x0, X, out=X)
        H = np.empty(len(X))
        Cv = np.empty(len(X))
        for pos, stack in self.stat_groups:
            # a group of every pair holds them in order: no gather needed
            H[pos] = stack.value(X if pos.size == len(X) else X[pos])
        pos, at = self.stat_terms
        Cv[pos] = new[at]
        Z = S[self.stat_w, self.stat_i]
        q = self.stat_quads
        H[q], Cv[q] = _quad_parts(spec, X[q], Z[q])
        return _fenchel(H, Cv, X, Z)

    def sweep_pass(self, spec, S, V, conj0, F0, margins, n, params,
                   upto=None):
        """Per-sweep checks of sweeps 1..upto (default all) of the cycle in S.

        V holds the row sums of S, conj0 and F0 are the conjugates and
        objective at S[0], margins the sweeps' squared-movement margins.
        Returns (F, conj): the objective after each sweep and the
        conjugates at S[W].
        """
        W = len(self.sweeps)
        r = spec.r
        S = S[:W + 1]
        V = V[:W + 1]
        new = np.empty(self.n_pairs)
        for w, i, pos, stack in self.conj:
            new[pos] = stack.support(S[w, i])
        resid = (self._stationarity(spec, S, V, new) if self.stat_w.size
                 else np.empty(0))
        # row w - 1 of C: a leading 0.0 and the conjugates after sweep w
        C = np.empty((W, r + 1))
        C[:, 0] = 0.0
        C[:, 1:] = conj0
        for mask, pos in self.layers:
            np.copyto(C[:, 1:], new[pos], where=mask)
        conj = C[-1, 1:].copy()
        full = params.check_level == "full"
        if full:   # the replay reads C
            total = np.cumsum(C, axis=1)[:, -1]
        else:      # the running sums overwrite C, which is then let go
            total = np.cumsum(C, axis=1, out=C)[:, -1].copy()
            C = None
        F = _objectives(spec, S, V, total)
        F_prev = np.concatenate(([F0], F[:-1]))
        decreased = self.exact & (F < F_prev - ASCENT_TOL)
        short = self.exact & (F < F_prev + margins - SWEEP_GAIN_TOL)
        stat_bad = resid > CLAIM_TOL
        bad = decreased | short
        bad[self.stat_w[stat_bad] - 1] = True
        last = W if upto is None else upto
        first = int(bad[:last].argmax()) + 1 if bad[:last].any() else last + 1
        if full:
            for w in range(1, first):
                cs = self.sweeps[w - 1]
                if cs.exact and cs.steps:
                    conj_prev = (conj0 if w == 1 else C[w - 2, 1:]).copy()
                    _replay_check(spec, S[w - 1], S[w], cs, params, n, w,
                                  conj_prev, float(F_prev[w - 1]),
                                  C[w - 1, 1:])
        if first <= last:
            k = first - 1
            if decreased[k]:
                raise EngineInvariantError(
                    f"cycle {n} sweep {first}: dual objective"
                    f" decreased by {F_prev[k] - F[k]:.3e}")
            if short[k]:
                raise EngineInvariantError(
                    f"cycle {n} sweep {first}: ascent fell short of"
                    f" the quadratic margin")
            j = int(np.flatnonzero(stat_bad & (self.stat_w == first))[0])
            raise EngineInvariantError(
                f"cycle {n} sweep {first}: stationarity"
                f" residual {resid[j]:.3e} at index {self.stat_i[j] + 1}")
        return F, conj

    def cycle_pass(self, spec, S, V, conj, groups, gamma, approx, n):
        """Freeze equalities and certificates; for valid plans only.

        The certificate bounds are asserted unless the cycle is approximate.
        Returns the certificate points, distances and Fenchel residuals.
        """
        W = len(self.sweeps)
        S = S[:W + 1]
        V = V[:W + 1]
        _assert_freeze(self.c_analysis, S, n, self.masks)
        X, res, fen = _certificates(spec, S, V, self.layout, groups, conj)
        if not approx:
            bad = (res > gamma + CERT_SLACK) | (fen > CLAIM_TOL)
            if bad.any():
                i = int(bad.argmax())
                if res[i] > gamma + CERT_SLACK:
                    raise EngineInvariantError(
                        f"cycle {n}: certificate for index {i + 1}"
                        f" is {res[i]:.3e} from the iterate,"
                        f" beyond gamma {gamma:.3e}")
                raise EngineInvariantError(
                    f"cycle {n}: certificate for index {i + 1}"
                    f" has Fenchel residual {fen[i]:.3e}")
        return X, res, fen


def _replay_check(spec, z_prev, z_par, cs, params, n, w, conj, F_prev,
                  conj_par):
    """check_level=full: sequential re-execution with per-subproblem margins.

    conj holds the term conjugates at z_prev, conj_par those at z_par and
    F_prev the objective at z_prev; conj is updated in place as the replay
    writes rows.  A grouped step is solved in one call and then applied one
    block at a time, so every block is still checked against its own margin.
    The first step reads z_prev exactly as the snapshot execution did, so
    its rows are those of z_par and their conjugates are taken from
    conj_par; later steps read earlier steps' rows and are evaluated anew.
    """
    z_seq = z_prev.copy()
    conj_step = conj_par
    for k, step in enumerate(cs.steps):
        z_step = z_seq.copy()
        exact = step.solve(spec, z_seq, step.arg, params, z_step)
        if k:
            conj_step = stacked_conjugates(step.conj_groups, z_step,
                                           np.empty(spec.r))
        for rows, gov in step.subs:
            old = z_seq.sum(axis=0) if gov is None else z_seq[gov].copy()
            z_seq[rows] = z_step[rows]
            new = z_seq.sum(axis=0) if gov is None else z_seq[gov]
            margin = 0.5 * float(np.linalg.norm(new - old)) ** 2
            term_rows = rows[rows < spec.r]
            conj[term_rows] = conj_step[term_rows]
            F_new = dual_objective_from(spec, z_seq, conj)
            if exact and F_new < F_prev + margin - SWEEP_GAIN_TOL:
                label = "outer" if gov is None else "block"
                raise EngineInvariantError(
                    f"cycle {n} sweep {w}: a {label} subproblem gained less"
                    f" than its quadratic margin")
            F_prev = F_new
    scale = max(1.0, float(np.abs(z_par).max()))
    if float(np.abs(z_seq - z_par).max()) > 1e-9 * scale:
        raise EngineInvariantError(
            f"cycle {n} sweep {w}: sequential replay disagrees with the"
            f" snapshot execution")


# ---------------------------------------------------------------------------
# cycle loop
# ---------------------------------------------------------------------------

def _primal_value(spec, groups, x, hint=0):
    """(spec.primal_value(x), hint) through the term stacks of all r rows.

    The term values are summed in term order, and +inf when one is.  Term
    `hint` is tried alone first: when its value is +inf, so is the sum, and
    no stack is evaluated.  The hint returned is the first term at +inf, for
    the next call, whose point is usually outside the same set.
    """
    if spec.terms[hint].value(x) == _INF:
        return _INF, hint
    vals = np.empty(spec.r)
    for rows, stack in groups:
        vals[rows] = stack.value(x)
    vals = vals.tolist()
    total = sum(vals, 0.0)
    if total == _INF:
        return _INF, vals.index(_INF) if _INF in vals else hint
    return total + (spec.m + 1) * spec.quad_value(x), hint


def run(spec, plan, params=None, z_init=None):
    """Run the cycle plan until the gap rule or the iteration cap fires.

    Parameters
    ----------
    spec : ProblemSpec
    plan : CyclePlan
        Validated before any work; (A)/(B) failures raise
        InvalidScheduleError unless params.allow_invalid_schedule.
    params : SolveParams
    z_init : array (r+m, d), optional
        Starting duals, zeros when omitted.  Passing the final duals of a
        previous run continues it (per-cycle bookkeeping restarts).
    """
    params = params or SolveParams()
    analysis = sched.validate(plan, spec.r, spec.m)
    valid = analysis.valid_A and analysis.valid_B
    if not valid and not params.allow_invalid_schedule:
        head = "; ".join(v.message for v in analysis.violations[:3])
        raise InvalidScheduleError(f"schedule is invalid: {head}")
    if not analysis.sqrt_growth_ok:
        warnings.warn(
            "schedule exceeds one index per outer set or two per block;"
            " the sqrt-n growth monitor is advisory only",
            ScheduleGrowthWarning, stacklevel=2)

    if z_init is None:
        z = np.zeros((spec.n_duals, spec.d))
    else:
        z = np.array(z_init, dtype=float)
        if z.shape != (spec.n_duals, spec.d):
            raise DimensionMismatch(
                f"z_init has shape {z.shape}, expected {(spec.n_duals, spec.d)}")
        if not np.isfinite(z).all():
            raise ValueError("z_init must be finite")

    # analysis.cycles lists the pattern first, then the lead-in cycles
    compiled = [[_CSweep(sw, spec) for sw in c]
                for c in (plan.pattern,) + plan.lead_in]
    all_terms = stack_terms(spec.terms, range(spec.r))

    sweep_checks = params.check_level in ("sweep", "full")
    buf = None
    if sweep_checks:
        shared = {tuple(rows.tolist()): stack for rows, stack in all_terms}
        checks = [_CCheck(c, spec, ca, valid, shared)
                  for c, ca in zip(compiled, analysis.cycles)]
        # snapshot buffer: row 0 the cycle start, row w the duals after
        # sweep w; vbuf holds their row sums, taken once for each snapshot
        buf = np.empty((max(map(len, compiled)) + 1, spec.n_duals, spec.d))
        vbuf = np.empty(buf.shape[::2])
        v = z.sum(axis=0)
        # per-row conjugate cache, carried from one cycle's end to the next
        conj = stacked_conjugates(all_terms, z, np.empty(spec.r))
        F_state = dual_objective_from(spec, z, conj)
    else:
        F_state = dual_objective_z(spec, z, all_terms)
    F_initial = F_state

    cycle_rows = []
    sweep_rows = [] if params.per_sweep_trace else None
    gamma_list, growth_list, F_list, sq_list = [], [], [], []
    cycle_start_duals = [z.copy()]
    cert_arrays = None
    any_approx = False
    stop_reason = "max_iterations"
    cycles_run = 0
    hint = 0   # the term the gap rule tries first

    for n in range(1, params.max_iterations + 1):
        k = n if n <= len(plan.lead_in) else 0
        sweeps = compiled[k]
        if sweep_checks:
            chk = checks[k]
            margins = np.empty(len(sweeps))
            buf[0] = z
            z = buf[0]
            vbuf[0] = v
        gamma_acc = 0.0
        sq_acc = 0.0
        v_acc = 0.0
        cycle_approx = False

        for w, cs in enumerate(sweeps, start=1):
            z_prev = z
            z, exact = _execute_sweep(spec, z_prev, cs, params,
                                      None if buf is None else buf[w])
            if z is not z_prev and not np.isfinite(z).all():
                if sweep_checks:
                    # the sweeps before this one are checked first
                    buf[w:len(sweeps) + 1] = z_prev
                    vbuf[w:len(sweeps) + 1] = vbuf[w - 1]
                    chk.sweep_pass(spec, buf, vbuf, conj, F_state, margins,
                                   n, params, upto=w - 1)
                cycle_rows.append(TraceRow(
                    n=n, w=w, F=float("nan"), v_diff=float("nan"),
                    inner_diffs={}, gamma_n=None, growth_monitor=None,
                    cert_max_residual=None, approx=not exact))
                raise NonFiniteStateError(
                    f"non-finite duals after cycle {n} sweep {w}")
            if sweep_checks:
                v_diff, inner_diffs = _movement(
                    z, z_prev, cs, z.sum(axis=0, out=vbuf[w]), vbuf[w - 1])
            else:
                v_diff, inner_diffs = _movement(z, z_prev, cs)
            inner_sq = sum(d * d for d in inner_diffs.values())
            gamma_acc += v_diff + sum(inner_diffs.values())
            sq_acc += v_diff * v_diff + inner_sq
            v_acc += v_diff
            cycle_approx = cycle_approx or not exact
            if sweep_checks:
                margins[w - 1] = 0.5 * v_diff * v_diff + 0.5 * inner_sq

            if sweep_rows is not None:
                last = w == len(sweeps)
                sweep_rows.append(TraceRow(
                    n=n, w=w, F=None, v_diff=v_diff, inner_diffs=inner_diffs,
                    gamma_n=gamma_acc if last else None,
                    growth_monitor=None, cert_max_residual=None,
                    approx=not exact))

        if sweep_checks:
            v = vbuf[len(sweeps)]
            F_sweeps, conj = chk.sweep_pass(spec, buf, vbuf, conj, F_state,
                                            margins, n, params)
            F_sweeps = F_sweeps.tolist()
            F_state = F_sweeps[-1]
            if sweep_rows is not None:
                for row, F in zip(sweep_rows[-len(sweeps):], F_sweeps):
                    row.F = F
        else:
            F_state = dual_objective_z(spec, z, all_terms)
        F_cycle = F_state
        if not any_approx and not cycle_approx and F_list:
            if F_cycle < F_list[-1] - ASCENT_TOL:
                raise EngineInvariantError(
                    f"cycle {n}: end-of-cycle objective decreased")
        any_approx = any_approx or cycle_approx
        growth = float(np.linalg.norm(z)) / math.sqrt(n)

        cert_max = None
        if sweep_checks and valid:
            cert_arrays = chk.cycle_pass(spec, buf, vbuf, conj, all_terms,
                                         gamma_acc, cycle_approx, n)
            cert_max = float(cert_arrays[1].max())

        gamma_list.append(gamma_acc)
        growth_list.append(growth)
        F_list.append(F_cycle)
        sq_list.append((sq_list[-1] if sq_list else 0.0) + sq_acc)
        cycle_rows.append(TraceRow(
            n=n, w=len(sweeps), F=F_cycle, v_diff=v_acc, inner_diffs={},
            gamma_n=gamma_acc, growth_monitor=growth,
            cert_max_residual=cert_max, approx=cycle_approx))
        cycle_start_duals.append(z.copy())
        if sweep_rows is not None and sweep_rows:
            tail = sweep_rows[-1]
            tail.growth_monitor = growth
            tail.cert_max_residual = cert_max
        cycles_run = n

        if params.stop_gap is not None:
            x_hat = spec.x0 - z.sum(axis=0)
            primal, hint = _primal_value(spec, all_terms, x_hat, hint)
            if (np.isfinite(primal) and np.isfinite(F_cycle)
                    and primal - F_cycle <= params.stop_gap):
                stop_reason = "gap"
                break

    if buf is not None:
        z = z.copy()   # the last snapshot, out of the buffer
    state = DualState(z, n=cycles_run, w=len(plan.cycle(cycles_run)))
    return RunResult(
        state=state,
        x=spec.x0 - z.sum(axis=0),
        F=F_list[-1],
        F_initial=F_initial,
        stop_reason=stop_reason,
        cycles_run=cycles_run,
        cycle_rows=cycle_rows,
        sweep_rows=sweep_rows,
        gamma=np.array(gamma_list),
        growth=np.array(growth_list),
        F_per_cycle=np.array(F_list),
        sq_diff_cumsum=np.array(sq_list),
        cycle_start_duals=cycle_start_duals,
        certificates=(None if cert_arrays is None
                      else _certificate_list(*cert_arrays)),
        any_approx=any_approx,
        analysis=analysis)


# ---------------------------------------------------------------------------
# literal simultaneous-projection reference
# ---------------------------------------------------------------------------

def product_space_reference(spec, z_init=None, n_cycles=50):
    """Plain averaged-projection Dykstra loop, kept separate from the engine.

    Works on the r indicator terms only; returns the list [z^1, ..., z^{N+1}]
    of (r, d) dual arrays, where z^{n+1} is the state after n loop bodies.
    The primal iterate at step n is x0 - mean(z^n, axis=0).
    """
    r, d = spec.r, spec.d
    for k, t in enumerate(spec.terms):
        if not hasattr(t, "set"):
            raise ValueError(
                f"the reference loop needs indicator terms; term {k + 1} is"
                f" {type(t).__name__}")
    if z_init is None:
        z = np.zeros((r, d))
    else:
        z = np.array(z_init, dtype=float)
        if z.shape != (r, d):
            raise DimensionMismatch(
                f"z_init has shape {z.shape}, expected {(r, d)}")
    history = [z.copy()]
    x = spec.x0 - z.sum(axis=0) / r
    for _ in range(n_cycles):
        projections = np.empty((r, d))
        for i in range(r):
            u = x + z[i]
            projections[i] = spec.terms[i].prox(u, 1.0)
            z[i] = u - projections[i]
        x = projections.sum(axis=0) / r
        history.append(z.copy())
    return history
