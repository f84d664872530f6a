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
A stack's rows are bitwise the scalar oracles', so a block solved on its
own (solve_inner_block) gives the same bits as inside its sweep.

check_level:
  "off"    objective at cycle ends only, no per-sweep snapshots; the cycle
           ends are evaluated in batches of _OBJ_BATCH (run),
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
from .terms import (DimensionMismatch, _dots, _norm, all_finite, stack_terms,
                    stacked_conjugates)

ASCENT_TOL = 1e-10        # plain monotonicity slack
SWEEP_GAIN_TOL = 1e-8     # slack on the quadratic-margin ascent inequality
CLAIM_TOL = 1e-8          # stationarity residual after exact solves
CERT_SLACK = 1e-9         # slack on the certificate distance bound

_INF = float("inf")
# with checks off, how many cycle ends are priced together (run)
_OBJ_BATCH = 8


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


@dataclass(slots=True)
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
    cycle_start_duals: list | None   # run(..., keep_cycle_starts=True) only
    certificates: list | None
    any_approx: bool
    analysis: sched.ScheduleAnalysis


# ---------------------------------------------------------------------------
# subproblem solvers (snapshot in, replacement rows written to out)
# ---------------------------------------------------------------------------
#
# Every solver has the signature (spec, z, v, arg, params, out) -> exact,
# where v is z.sum(axis=0), taken once per snapshot by the caller, and arg is
# what _CSweep fixed for it at compile time, its row sets compiled by
# _rows_index.  Each reads everything it needs from z before it writes out,
# so out may be z itself when the sweep has one subproblem.

def _prox_row(spec, z, v, i, params, out):
    """Outer set {i} with one term row: its dual prox against the rest."""
    u = spec.x0 - (v - z[i])
    out[i] = u - spec.terms[i].prox(u, 1.0)
    return True


def _quad_rows(spec, z, v, rows, params, out):
    """Outer set of k quadratic-copy rows only: all share -rest / (k + 1)."""
    quads = z[rows]
    c = v - quads.sum(axis=0)
    out[rows] = -c / (len(quads) + 1.0)
    return True


def _prox_quad_rows(spec, z, v, arg, params, out):
    """Outer set of one term row i plus the k quadratic rows quads after it.

    arg is (i, outer, quads, tau): outer are all k + 1 rows and tau is
    k + 1.0.
    """
    i, outer, quads, tau = arg
    c = v - z[outer].sum(axis=0)
    # eliminate the copies: z_i minimizes h_i*(.) + ||. - u_bar||^2/(2 tau)
    u_bar = tau * spec.x0 - c
    x_hat = spec.terms[i].prox(u_bar / tau, 1.0 / tau)
    z_i = u_bar - tau * x_hat
    out[quads] = -(z_i + c) / tau
    out[i] = z_i
    return True


def _stacked_blocks(spec, z, v, arg, params, out):
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


def _nested_rows(spec, z, v, arg, params, out):
    """Cyclic coordinate minimization over rows (0-based, sorted); approximate.

    rows is an index array, never a slice: the loop works on the copy z[rows]
    and must not write into the snapshot z.

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
        offset = v - work.sum(axis=0)
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
    """One compiled subproblem group: solve(spec, z, v, arg, params, out).

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
    step runs _nested_rows.  written are the rows the sweep writes.  gov0,
    written and the row sets of every solver but _nested_rows go through
    _rows_index, so a contiguous run of rows is read as a view; subs and
    conj_groups stay index arrays for _CCheck.
    """

    __slots__ = ("steps", "outer1", "block_js", "gov0", "conj_groups", "exact",
                 "written")

    def __init__(self, sweep, spec):
        terms = spec.terms
        self.outer1 = tuple(sorted(sweep.outer))
        self.block_js = tuple(sorted(sweep.inner))
        self.gov0 = _rows_index([j - 1 for j in self.block_js])
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
            I0 = I.tolist()
            J0 = [single[i] for i in I0]
            subs = [(np.array([i, j]), j) for i, j in zip(I0, J0)]
            self.steps.append(_Step(
                _stacked_blocks, (stack, _rows_index(I0), _rows_index(J0)),
                subs, [(I, stack)]))
        self.steps.extend(nested)
        if self.outer1:
            outer0 = np.array([i - 1 for i in self.outer1], dtype=np.intp)
            prox0 = outer0[outer0 < spec.r]
            if prox0.size >= 2:
                solve, arg = _nested_rows, (outer0, None)
            elif prox0.size == 0:
                solve, arg = _quad_rows, _rows_index(outer0.tolist())
            elif outer0.size == 1:
                solve, arg = _prox_row, int(prox0[0])
            else:
                solve, arg = _prox_quad_rows, (
                    int(outer0[0]), _rows_index(outer0.tolist()),
                    _rows_index(outer0[1:].tolist()), float(outer0.size))
            self.steps.append(_Step(solve, arg, [(outer0, None)],
                                    stack_terms(terms, prox0)))
        self.conj_groups = [g for step in self.steps for g in step.conj_groups]
        self.exact = all(step.solve is not _nested_rows for step in self.steps)
        self.written = _rows_index(sorted(
            {i for step in self.steps for sub, _ in step.subs
             for i in sub.tolist()}))


def _rows_index(rows):
    """A list of 0-based rows as an index: a basic slice, read as a view,
    when the rows are an exact ascending contiguous run (an empty list
    included), else an array."""
    start = rows[0] if rows else 0
    if rows == list(range(start, start + len(rows))):
        return slice(start, start + len(rows))
    return np.array(rows, dtype=np.intp)


def _execute_sweep(spec, z, v, cs, params, out):
    """Run one sweep against the snapshot z, whose row sum is v; returns exact.

    out, another array of z's shape, receives a copy of z with the sweep's
    rows replaced.  Every step reads z itself, never the rows an earlier
    step wrote.
    """
    out[...] = z
    exact = True
    for step in cs.steps:
        exact = step.solve(spec, z, v, step.arg, params, out) and exact
    return exact


def _movement(z_new, z_old, cs, v_new, v_old):
    """How far a sweep moved the dual sum and each block's governing row.

    v_new and v_old are the row sums of z_new and z_old.  Returns v_diff and
    the governing rows' moves as a list in cs.block_js order.
    """
    dv = v_new - v_old
    v_diff = math.sqrt(dv.dot(dv))   # np.linalg.norm's formula and bits
    if not cs.block_js:
        return v_diff, []
    diff = z_new[cs.gov0] - z_old[cs.gov0]
    return v_diff, np.sqrt(_dots(diff, diff)).tolist()


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
        exact = step.solve(spec, z, z.sum(axis=0), step.arg, params, z)
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
    v_old = state.z.sum(axis=0)
    z_new = np.empty_like(state.z)
    exact = _execute_sweep(spec, state.z, v_old, cs, params, z_new)
    v_diff, norms = _movement(z_new, state.z, cs, z_new.sum(axis=0), v_old)
    state.z = z_new
    state.w += 1
    return {"v_diff": v_diff, "inner_diffs": dict(zip(cs.block_js, norms)),
            "exact": exact}


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


def _objectives(spec, Z, V, total):
    """dual_objective_from on every state Z[k].

    V holds the row sums of Z and total[k] the sum(conjugates, 0.0) of Z[k];
    an infinite one gives -inf.
    """
    if spec.m:
        Q = Z[:, spec.r:] + spec.x0
        total = total + (0.5 * (Q * Q).reshape(len(Q), -1).sum(axis=1)
                         - spec.m * 0.5 * spec._x0_sq)
    D = spec.x0 - V
    return -(total + (0.5 * _dots(D, D) - 0.5 * spec._x0_sq))


def _state_objectives(spec, groups, Z, V):
    """dual_objective_z on every state Z[k], whose row sum is V[k].

    groups are the term stacks of all r rows; each prices its rows of every
    state in one support call, and each state's conjugates are summed in row
    order, as in the check pass.
    """
    C = np.empty((len(Z), spec.r + 1))
    C[:, 0] = 0.0
    conj = C[:, 1:]
    for rows, stack in groups:
        conj[:, rows] = stack.support(Z[:, rows])
    return _objectives(spec, Z, V, np.cumsum(C, axis=1, out=C)[:, -1])


def _flush_cycle_ends(spec, groups, Z, V, pending, F_list):
    """Evaluate the pending checks-off cycle ends in cycle order.

    pending lists (n, row, ascent) for the states Z[k] with row sums V[k].
    Each objective goes into F_list and the cycle's trace row, and a cycle
    whose ascent flag is set must not fall below the cycle before it, as in
    a cycle-by-cycle check.  pending is emptied first, so that nothing is
    evaluated twice after an error.  When the batched call raises, the
    states are priced one at a time, so that the first cycle's error comes
    first.
    """
    batch = pending[:]
    pending.clear()
    k = len(batch)
    try:
        F = _state_objectives(spec, groups, Z[:k], V[:k]).tolist()
    except Exception:   # an oracle's, or a warning raised as an error
        F = None
    for j, (n, row, ascent) in enumerate(batch):
        F_n = (F[j] if F is not None else _state_objectives(
            spec, groups, Z[j:j + 1], V[j:j + 1]).tolist()[0])
        if ascent and F_list and F_n < F_list[-1] - ASCENT_TOL:
            raise EngineInvariantError(
                f"cycle {n}: end-of-cycle objective decreased")
        F_list.append(F_n)
        row.F = F_n


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


def certificate_points(spec, snaps, c_analysis):
    """Per-index primal certificates from one cycle's sweep snapshots.

    snaps[w] must be the duals after sweep w (snaps[0] the cycle start), as
    a list or one array, and the analysis must be valid for this cycle.
    The engine computes its certificates through the same arrays.
    """
    S = np.asarray(snaps, dtype=float)
    groups = stack_terms(spec.terms, range(spec.r))
    return _certificate_list(*_certificates(
        spec, S, S.sum(axis=1), _cert_layout(c_analysis, spec.r), groups,
        stacked_conjugates(groups, S[-1], np.empty(spec.r))))


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
      replays  with scratch, per exact sweep w its steps, each with its
               subproblems as (rows, a slice when contiguous; margin row;
               term rows)
    scratch are the replay's two z buffers at check_level="full", shared
    by the checks of all cycle patterns, and None otherwise.
    """

    def __init__(self, sweeps, spec, c_analysis, valid, shared, scratch):
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

        self.scratch = scratch
        self.replays = {} if scratch is None else {
            w: [(step, [(_rows_index(rows.tolist()), gov, rows[rows < r])
                        for rows, gov in step.subs]) for step in cs.steps]
            for w, cs in enumerate(sweeps, start=1) if cs.exact and cs.steps}

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
        F = _objectives(spec, S[1:], V[1:], total)
        F_prev = np.concatenate(([F0], F[:-1]))
        decreased = self.exact & (F < F_prev - ASCENT_TOL)
        short = self.exact & (F < F_prev + margins - SWEEP_GAIN_TOL)
        stat_bad = resid > CLAIM_TOL
        bad = decreased | short
        bad[self.stat_w[stat_bad] - 1] = True
        last = W if upto is None else upto
        first = int(bad[:last].argmax()) + 1 if bad[:last].any() else last + 1
        if full:
            FS = [F0] + F.tolist()   # the objective at each S[w]
            for w in self.replays:
                if w >= first:
                    break
                self._replay(spec, S, V, FS, C,
                             conj0 if w == 1 else C[w - 2, 1:], w, params, n)
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

    def _replay(self, spec, S, V, FS, C, conj_prev, w, params, n):
        """check_level=full: sweep w re-solved one subproblem at a time.

        Each step solves from the state its earlier steps left, starting at
        a copy of S[w - 1], and its subproblems are then applied one at a
        time, each checked against its own margin; the state must end
        within 1e-9 of S[w].  FS[w] is the pass's objective at S[w], C
        holds its conjugates after each sweep and conj_prev those at
        S[w - 1].  Each state is summed once.  The first step reads V[w - 1]
        and takes its rows' conjugates from C, since it solves from S[w - 1]
        as the sweep did.  When the last state is bitwise S[w], it takes
        V[w] and FS[w], which are bitwise its sum and dual_objective_from on
        it, and it agrees with S[w] exactly.
        """
        steps = self.replays[w]
        z_seq, z_step = self.scratch
        z_seq[...] = S[w - 1]
        v = V[w - 1]
        F_before = FS[w - 1]
        conj = None   # the conjugates at z_seq, copied at the first write
        conj_step = C[w - 1, 1:]
        final = steps[-1][1][-1]
        snapshot = False
        for k, (step, subs) in enumerate(steps):
            # a step writes only its own rows of z_step: nothing else is read
            step.solve(spec, z_seq, v, step.arg, params, z_step)
            if k:
                conj_step = stacked_conjugates(step.conj_groups, z_step,
                                               np.empty(spec.r))
            for sub in subs:
                rows, gov, term_rows = sub
                if gov is not None:
                    dv = z_step[gov] - z_seq[gov]
                z_seq[rows] = z_step[rows]
                # bitwise, so that the pass's values are this state's
                snapshot = sub is final and z_seq.tobytes() == S[w].tobytes()
                if snapshot:
                    v_new, F_new = V[w], FS[w]
                else:
                    v_new = z_seq.sum(axis=0)
                    if conj is None:
                        conj = conj_prev.copy()
                    conj[term_rows] = conj_step[term_rows]
                    F_new = dual_objective_from(spec, z_seq, conj, v_new)
                if gov is None:
                    dv = v_new - v
                margin = 0.5 * math.sqrt(dv.dot(dv)) ** 2
                if F_new < F_before + margin - SWEEP_GAIN_TOL:
                    label = "outer" if gov is None else "block"
                    raise EngineInvariantError(
                        f"cycle {n} sweep {w}: a {label} subproblem gained"
                        f" less than its quadratic margin")
                F_before, v = F_new, v_new
        if snapshot:
            return
        z_par = S[w]
        scale = max(1.0, float(np.abs(z_par).max()))
        if float(np.abs(z_seq - z_par).max()) > 1e-9 * scale:
            raise EngineInvariantError(
                f"cycle {n} sweep {w}: sequential replay disagrees with the"
                f" snapshot execution")

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


def run(spec, plan, params=None, z_init=None, keep_cycle_starts=False):
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
    keep_cycle_starts : bool
        Keep a copy of z at every cycle start and at the end in
        RunResult.cycle_start_duals, which is None otherwise; memory then
        grows with the cycle count.
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
        z = np.asarray(z_init, dtype=float)   # copied into buf below
        if z.shape != (spec.n_duals, spec.d):
            raise DimensionMismatch(
                f"z_init has shape {z.shape}, expected {(spec.n_duals, spec.d)}")
        if not np.isfinite(z).all():
            raise ValueError("z_init must be finite")

    # analysis.cycles lists the pattern first, then the lead-in cycles
    compiled = [[_CSweep(sw, spec) for sw in c]
                for c in (plan.pattern,) + plan.lead_in]
    all_terms = stack_terms(spec.terms, range(spec.r))

    # z and its row sum v live in preallocated buffers, v taken once for
    # each snapshot.  With checks on, buf is the snapshot buffer: row 0 the
    # cycle start, row w the duals after sweep w.  With checks off, the
    # sweeps alternate between two rows.
    sweep_checks = params.check_level in ("sweep", "full")
    n_slots = max(map(len, compiled)) + 1 if sweep_checks else 2
    buf = np.empty((n_slots, spec.n_duals, spec.d))
    vbuf = np.empty((n_slots, spec.d))
    buf[0] = z
    z = buf[0]
    v = z.sum(axis=0, out=vbuf[0])
    slot = 0
    if sweep_checks:
        shared = {tuple(rows.tolist()): stack for rows, stack in all_terms}
        scratch = ((np.empty_like(z), np.empty_like(z))
                   if params.check_level == "full" else None)
        checks = [_CCheck(c, spec, ca, valid, shared, scratch)
                  for c, ca in zip(compiled, analysis.cycles)]
        # per-row conjugate cache, carried from one cycle's end to the next
        conj = stacked_conjugates(all_terms, z, np.empty(spec.r))
        F_state = dual_objective_from(spec, z, conj, v)
    else:
        # only the objective and the stop rule read the groups: a contiguous
        # one is read as a view
        all_terms = [(_rows_index(rows.tolist()), stack)
                     for rows, stack in all_terms]
        F_state = dual_objective_z(spec, z, all_terms, v)
        # each cycle end is copied into a batch of states, which is priced
        # in one pass when it is full, when the gap rule needs an objective,
        # before an exception leaves the loop, and at the end of the run
        n_batch = min(_OBJ_BATCH, params.max_iterations)
        zb = np.empty((n_batch, spec.n_duals, spec.d))
        vb = np.empty((n_batch, spec.d))
    F_initial = F_state

    cycle_rows = []
    sweep_rows = [] if params.per_sweep_trace else None
    gamma_list, growth_list, F_list, sq_list = [], [], [], []
    pending = []   # the batched cycle ends as (n, trace row, ascent)
    cycle_start_duals = [z.copy()] if keep_cycle_starts else None
    cert_arrays = None
    any_approx = False
    stop_reason = "max_iterations"
    cycles_run = 0
    hint = 0   # the term the gap rule tries first

    try:
        for n in range(1, params.max_iterations + 1):
            k = n if n <= len(plan.lead_in) else 0
            sweeps = compiled[k]
            if sweep_checks:
                chk = checks[k]
                margins = np.empty(len(sweeps))
                buf[0] = z
                vbuf[0] = v
                z, v = buf[0], vbuf[0]
            gamma_acc = 0.0
            sq_acc = 0.0
            v_acc = 0.0
            cycle_approx = False

            for w, cs in enumerate(sweeps, start=1):
                z_prev, v_prev = z, v
                slot = w if sweep_checks else 1 - slot
                z = buf[slot]
                exact = _execute_sweep(spec, z_prev, v_prev, cs, params, z)
                # the rows the sweep did not write were scanned when written
                if not all_finite(z[cs.written]):
                    if sweep_checks:
                        # the sweeps before this one are checked first
                        buf[w:len(sweeps) + 1] = z_prev
                        vbuf[w:len(sweeps) + 1] = v_prev
                        chk.sweep_pass(spec, buf, vbuf, conj, F_state,
                                       margins, n, params, upto=w - 1)
                    cycle_rows.append(TraceRow(
                        n=n, w=w, F=float("nan"), v_diff=float("nan"),
                        inner_diffs={}, gamma_n=None, growth_monitor=None,
                        cert_max_residual=None, approx=not exact))
                    raise NonFiniteStateError(
                        f"non-finite duals after cycle {n} sweep {w}")
                v = z.sum(axis=0, out=vbuf[slot])
                v_diff, inner = _movement(z, z_prev, cs, v, v_prev)
                inner_sq = sum(d * d for d in inner)
                gamma_acc += v_diff + sum(inner)
                sq_acc += v_diff * v_diff + inner_sq
                v_acc += v_diff
                cycle_approx = cycle_approx or not exact
                if sweep_checks:
                    margins[w - 1] = 0.5 * v_diff * v_diff + 0.5 * inner_sq

                if sweep_rows is not None:
                    last = w == len(sweeps)
                    sweep_rows.append(TraceRow(
                        n=n, w=w, F=None, v_diff=v_diff,
                        inner_diffs=dict(zip(cs.block_js, inner)),
                        gamma_n=gamma_acc if last else None,
                        growth_monitor=None, cert_max_residual=None,
                        approx=not exact))

            ascent = not any_approx and not cycle_approx
            F_cycle = None   # with checks off, set when its batch is priced
            if sweep_checks:
                F_sweeps, conj = chk.sweep_pass(spec, buf, vbuf, conj,
                                                F_state, margins, n, params)
                F_sweeps = F_sweeps.tolist()
                F_state = F_cycle = F_sweeps[-1]
                if sweep_rows is not None:
                    for row, F in zip(sweep_rows[-len(sweeps):], F_sweeps):
                        row.F = F
                if ascent and F_list and F_cycle < F_list[-1] - ASCENT_TOL:
                    raise EngineInvariantError(
                        f"cycle {n}: end-of-cycle objective decreased")
            else:
                zb[len(pending)] = z
                vb[len(pending)] = v
            any_approx = any_approx or cycle_approx
            growth = _norm(z) / math.sqrt(n)

            cert_max = None
            if sweep_checks and valid:
                cert_arrays = chk.cycle_pass(spec, buf, vbuf, conj, all_terms,
                                             gamma_acc, cycle_approx, n)
                cert_max = float(cert_arrays[1].max())

            gamma_list.append(gamma_acc)
            growth_list.append(growth)
            sq_list.append((sq_list[-1] if sq_list else 0.0) + sq_acc)
            row = TraceRow(
                n=n, w=len(sweeps), F=F_cycle, v_diff=v_acc, inner_diffs={},
                gamma_n=gamma_acc, growth_monitor=growth,
                cert_max_residual=cert_max, approx=cycle_approx)
            cycle_rows.append(row)
            if sweep_checks:
                F_list.append(F_cycle)
            else:
                pending.append((n, row, ascent))
                if len(pending) == n_batch:
                    _flush_cycle_ends(spec, all_terms, zb, vb, pending,
                                      F_list)
            if keep_cycle_starts:
                cycle_start_duals.append(z.copy())
            if sweep_rows is not None and sweep_rows:
                tail = sweep_rows[-1]
                tail.growth_monitor = growth
                tail.cert_max_residual = cert_max
            cycles_run = n

            if params.stop_gap is not None:
                primal, hint = _primal_value(spec, all_terms, spec.x0 - v,
                                             hint)
                if np.isfinite(primal):
                    if pending:
                        _flush_cycle_ends(spec, all_terms, zb, vb, pending,
                                          F_list)
                    F_cycle = F_list[-1]
                    if (np.isfinite(F_cycle)
                            and primal - F_cycle <= params.stop_gap):
                        stop_reason = "gap"
                        break
    except Exception:
        # an earlier cycle's error comes first, as in a cycle-by-cycle check
        if pending:
            _flush_cycle_ends(spec, all_terms, zb, vb, pending, F_list)
        raise
    if pending:
        _flush_cycle_ends(spec, all_terms, zb, vb, pending, F_list)
    zb = vb = None   # the batch goes before the result is built

    state = DualState(z.copy(), n=cycles_run, w=len(plan.cycle(cycles_run)))
    return RunResult(
        state=state,
        x=spec.x0 - v,
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
