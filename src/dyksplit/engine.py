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
  "sweep"  per-sweep ascent and gain margins, freeze equalities, per-cycle
           convergence certificates; the objective behind the margins comes
           from a per-row cache of term conjugates, so each sweep evaluates
           conjugates only for the rows it writes, not all r, and the
           stationarity and certificate residuals read the cache too,
  "full"   additionally a sequential replay of each sweep with per-subproblem
           gain checks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import schedule as sched
from .state import (DualState, dual_objective_from, dual_objective_z,
                    fenchel_residual)
from .terms import DimensionMismatch, stack_terms, stacked_conjugates

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
    governing rows of the blocks in block_js order.
    """

    __slots__ = ("steps", "outer1", "block_js", "gov0", "conj_groups")

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


def _execute_sweep(spec, z, cs, params):
    """Run one sweep against the snapshot z; returns (z_new, exact).

    Every step reads z itself, never the rows an earlier step wrote.
    """
    if not cs.steps:
        return z, True
    z_new = z.copy()
    exact = True
    for step in cs.steps:
        exact = step.solve(spec, z, step.arg, params, z_new) and exact
    return z_new, exact


def _movement(z_new, z_old, cs):
    """How far a sweep moved the dual sum and each block's governing row."""
    v_diff = float(np.linalg.norm(z_new.sum(axis=0) - z_old.sum(axis=0)))
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

def _assert_freeze(c_analysis, snaps, n):
    """Bitwise freeze equalities implied by the touch pattern.

    moved[w, row] says whether the row changed bitwise from snaps[w - 1] to
    snaps[w].  A row equals its value at sweep p in every later snapshot
    exactly when it never moves after p, and the first sweep that moves it
    is the first that differs from sweep p.
    """
    moved = np.zeros((len(snaps), snaps[0].shape[0]), dtype=bool)
    for w in range(1, len(snaps)):
        if snaps[w] is not snaps[w - 1]:
            moved[w] = (snaps[w] != snaps[w - 1]).any(axis=1)
    for i1, p in c_analysis.p.items():
        after = moved[p + 1:, i1 - 1]
        if after.any():
            raise EngineInvariantError(
                f"cycle {n}: z_{i1} moved after its last touch"
                f" (sweep {p} vs {p + 1 + int(after.argmax())})")
    for i1, q in c_analysis.q.items():
        p = c_analysis.p[i1]
        for i2 in c_analysis.block_members[i1]:
            if moved[q + 1:p, i2 - 1].any():
                raise EngineInvariantError(
                    f"cycle {n}: block member z_{i2} moved inside the"
                    f" protected window ({q}..{p - 1})")


def certificate_points(spec, snaps, c_analysis, conjugates=None):
    """Per-index primal certificates from one cycle's sweep snapshots.

    snaps[w] must be the duals after sweep w (snaps[0] the cycle start) and
    the analysis must be valid for this cycle.  For an index last touched by
    an outer solve at sweep p the point is x0 - v at that sweep; for a term
    index last touched inside a block the frozen-window mixed sum is used;
    for the governing quadratic index it is x0 + z_j at sweep p.
    conjugates, when given, are the r term conjugates at snaps[-1] and are
    read by the Fenchel residuals instead of being evaluated again.
    """
    z_final = snaps[-1]
    x_final = spec.x0 - z_final.sum(axis=0)
    out = []
    for i1 in range(1, spec.n_duals + 1):
        p = c_analysis.p[i1]
        if i1 not in c_analysis.via_block:
            x_i = spec.x0 - snaps[p].sum(axis=0)
        elif i1 > spec.r:
            x_i = spec.x0 + snaps[p][i1 - 1]
        else:
            q = c_analysis.q[i1]
            members = c_analysis.block_members[i1]
            j1 = c_analysis.via_block[i1]
            part_rows = sorted(i2 - 1 for i2 in members if i2 != j1)
            part_p = snaps[p][part_rows].sum(axis=0)
            part_q = snaps[q][part_rows].sum(axis=0)
            x_i = spec.x0 - part_p - (snaps[q].sum(axis=0) - part_q)
        out.append(Certificate(
            index=i1,
            point=x_i,
            residual=float(np.linalg.norm(x_i - x_final)),
            fenchel=fenchel_residual(spec, z_final, i1, x_i, conjugates)))
    return out


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

    compiled_pattern = [_CSweep(sw, spec) for sw in plan.pattern]
    compiled_lead = [[_CSweep(sw, spec) for sw in c] for c in plan.lead_in]
    all_terms = stack_terms(spec.terms, range(spec.r))

    check = params.check_level
    sweep_checks = check in ("sweep", "full")
    if sweep_checks:
        # per-row conjugate cache: a sweep re-evaluates only the rows it wrote
        conj = stacked_conjugates(all_terms, z, np.empty(spec.r))
        F_state = dual_objective_from(spec, z, conj)
    else:
        F_state = dual_objective_z(spec, z, all_terms)
    F_initial = F_state

    cycle_rows = []
    sweep_rows = [] if params.per_sweep_trace else None
    gamma_list, growth_list, F_list, sq_list = [], [], [], []
    cycle_start_duals = [z.copy()]
    certificates = None
    any_approx = False
    stop_reason = "max_iterations"
    cycles_run = 0

    for n in range(1, params.max_iterations + 1):
        sweeps = (compiled_lead[n - 1] if n <= len(compiled_lead)
                  else compiled_pattern)
        c_analysis = analysis.for_cycle(plan, n)
        snaps = [z] if sweep_checks else None
        gamma_acc = 0.0
        sq_acc = 0.0
        v_acc = 0.0
        cycle_approx = False

        for w, cs in enumerate(sweeps, start=1):
            z_prev = z
            z, exact = _execute_sweep(spec, z_prev, cs, params)
            if z is not z_prev and not np.isfinite(z).all():
                cycle_rows.append(TraceRow(
                    n=n, w=w, F=float("nan"), v_diff=float("nan"),
                    inner_diffs={}, gamma_n=None, growth_monitor=None,
                    cert_max_residual=None, approx=not exact))
                raise NonFiniteStateError(
                    f"non-finite duals after cycle {n} sweep {w}")
            v_diff, inner_diffs = _movement(z, z_prev, cs)
            inner_sq = sum(d * d for d in inner_diffs.values())
            gamma_acc += v_diff + sum(inner_diffs.values())
            sq_acc += v_diff * v_diff + inner_sq
            v_acc += v_diff
            cycle_approx = cycle_approx or not exact

            if sweep_checks:
                replay = check == "full" and exact
                conj_prev = conj.copy() if replay else None
                stacked_conjugates(cs.conj_groups, z, conj)
                F_new = dual_objective_from(spec, z, conj)
                if exact:
                    if F_new < F_state - ASCENT_TOL:
                        raise EngineInvariantError(
                            f"cycle {n} sweep {w}: dual objective"
                            f" decreased by {F_state - F_new:.3e}")
                    margin = 0.5 * v_diff * v_diff + 0.5 * inner_sq
                    if F_new < F_state + margin - SWEEP_GAIN_TOL:
                        raise EngineInvariantError(
                            f"cycle {n} sweep {w}: ascent fell short of"
                            f" the quadratic margin")
                    if cs.outer1:
                        x_now = spec.x0 - z.sum(axis=0)
                        for i1 in cs.outer1:
                            resid = fenchel_residual(spec, z, i1, x_now,
                                                     conj)
                            if resid > CLAIM_TOL:
                                raise EngineInvariantError(
                                    f"cycle {n} sweep {w}: stationarity"
                                    f" residual {resid:.3e} at index {i1}")
                if replay:
                    _replay_check(spec, z_prev, z, cs, params, n, w,
                                  conj_prev, F_state, conj)
                F_state = F_new
                snaps.append(z)

            if sweep_rows is not None:
                last = w == len(sweeps)
                sweep_rows.append(TraceRow(
                    n=n, w=w, F=F_state if sweep_checks else None,
                    v_diff=v_diff, inner_diffs=inner_diffs,
                    gamma_n=gamma_acc if last else None,
                    growth_monitor=None, cert_max_residual=None,
                    approx=not exact))

        if not sweep_checks:
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
            _assert_freeze(c_analysis, snaps, n)
            certificates = certificate_points(spec, snaps, c_analysis, conj)
            cert_max = max(c.residual for c in certificates)
            if not cycle_approx:
                for c in certificates:
                    if c.residual > gamma_acc + CERT_SLACK:
                        raise EngineInvariantError(
                            f"cycle {n}: certificate for index {c.index}"
                            f" is {c.residual:.3e} from the iterate,"
                            f" beyond gamma {gamma_acc:.3e}")
                    if c.fenchel > CLAIM_TOL:
                        raise EngineInvariantError(
                            f"cycle {n}: certificate for index {c.index}"
                            f" has Fenchel residual {c.fenchel:.3e}")

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
            primal = spec.primal_value(x_hat)
            if (np.isfinite(primal) and np.isfinite(F_cycle)
                    and primal - F_cycle <= params.stop_gap):
                stop_reason = "gap"
                break

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
        certificates=certificates,
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
