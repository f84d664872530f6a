"""Sweep engine: dual block minimization driven by a cycle plan.

Each sweep jointly minimizes the dual objective over its outer index set
(complement frozen) and, independently, over each inner block (block sum
frozen).  Each subproblem's solve tier is fixed once, when its sweep is
compiled (_CSweep); what each tier solves, and whether exactly, is said
once, in the tier table _TIERS.  All subproblems of a sweep read the same
snapshot of the duals and write disjoint rows, so they are independent;
they run one after another, and their order cannot change the result.

The blocks with a single term member are where a sweep is parallel: they are
grouped by term kind and each group is solved in one vectorized call of a
term stack (terms.stack_terms), the product-space schedule's r-1 blocks
included.  An outer set of one term row of the last group's kind, after
which no block comes, joins that call: the product-space step solves all r
of its dual proxes in one.  The dual objective reads its conjugates
through the same stacks.  A stack's rows are bitwise the scalar oracles',
so a block solved on its own (run_sweep on a one-block SweepPlan) gives
the same bits as inside its sweep, and an outer set the bits of its own
prox step.

check_level:
  "off"    objective at cycle ends only, no per-sweep checks; the cycle
           ends are copied out and evaluated in batches of up to
           _OBJ_BATCH (run),
  "sweep"  per-sweep ascent and gain margins, stationarity of exact outer
           sets, per-cycle convergence certificates,
  "full"   additionally each subproblem's own margin in the exact sweeps
           of several, in closed form (_CCheck._gains), and a re-solve of
           each exact sweep, whose rows must agree with the logged ones.
           The sweeps of one step with one subproblem whose tier has a
           batched kernel are re-solved for a whole batch at once, a group
           of sweeps of one tier per kernel call (_CCheck._resolved), when
           it holds at least _RESOLVE_MIN of them over its cycles; one
           whose rows are bitwise its snapshot's passes there.  Every other
           sweep, and every sweep of a batch whose re-solve raises, is
           re-solved by itself, step by step, and nothing is priced
           (_CCheck._resolve_sweep).  A solver that answers a repeated call
           differently is caught only when its first answer differs from
           the batched re-solve.
A solver reads a read-only snapshot and writes only its sweep's declared
rows (_CSweep), so a valid plan keeps its freeze equalities when it declares
no frozen row, checked once per cycle pattern (_assert_unfrozen).
At every check level a sweep runs the same way: it solves its declared rows
into a buffer, which the one state then takes in place, and sums the state;
a still sweep, which keeps its rows' bytes, skips their finiteness scan and
takes its snapshot's sum.  Most still sweeps are not solved at all: the
sweep of one outer set or block of one or two halfspace or ball rows
whose duals are +0.0 is skipped while a safe screen, taken at a cycle
start from the sets' slacks and bounded by how far the dual sum, or the
block's governing row, has since moved, proves that its sets hold the
point its solver tests (_Screen); the bound cannot grow while sweeps are
skipped, so a run of outer sweeps is skipped in one step.  A skipped
sweep logs its rows and sum and records its trace as a still one does, so
the results are bitwise those of solving it; a plan with no such sweep
builds no screen.
A cycle's movements are taken at its end, from the differences its sweeps
made to the dual sum and to their governing rows (_movements), and kept,
one row per cycle, until its batch is checked or priced: then the batch's
margins, gamma_n and movement sums are taken in one vectorized call
(_cycle_sums), left to right from +0.0 as a scalar loop would add them.
With checks on, the sweep loop only
solves and logs: the buffer is the sweep's block of a log, which keeps a
batch of up to _OBJ_BATCH consecutive cycles of one pattern as its start
state and, per sweep, its dual sum and its declared rows.
A batch's log rows and sums, its check's conjugate table and the int32
entries of the indices its check reads (_CCheck.cycle_bytes per cycle)
take at most _CHECK_BATCH_BYTES, or one cycle's: 6 cycles of the
custom-cli pattern, one of classic (50, 20).  When the batch is checked, one
pass compiled per cycle pattern (_CCheck) evaluates every check of its
cycles from the log in a few vectorized calls, reading each row of a state
where it was last written.  Conjugates are evaluated only for the rows each
sweep writes, the per-sweep objective is bitwise equal to
dual_objective_from on each state, and a failure raises the same error for
the same cycle and sweep as a check made sweep by sweep would, the sweeps
before a non-finite one first.
The gap stop rule is tested in the same cycle-ordered pass that checks a
batch, or with checks off prices its cycle ends, at each cycle once its
own checks pass, with the objective the pass found.  One procedure
decides every cycle, whatever the batch's size (_GapRule.closes): a test
of one term at all the batch's cycle ends, then its primal values in one
stacked call per term kind.  The first cycle whose gap closes ends the
run, which is cut back to it: the cycles its batch ran after it are
discarded, and nothing they raise surfaces, so the result is bitwise
that of one-cycle batches.
"""

from __future__ import annotations

import math
import operator
import warnings
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from . import schedule as sched
from .state import (DualState, ProblemSpec, dual_objective_from,
                    dual_objective_z)
# kept as an engine name for perfbench/tracer.py, which wraps it here; the
# cycle-end check pass evaluates the same residuals row-wise (_fenchel)
from .state import fenchel_residual  # noqa: F401
from .terms import (BallStack, DimensionMismatch, Halfspace, HalfspaceStack,
                    Indicator, L2Ball, _as_count, _as_number, _dots, _norm,
                    all_finite, pair_constants, pair_duals, pair_holds,
                    pair_order, stack_kinds, stack_terms, stacked_conjugates)

ASCENT_TOL = 1e-10        # plain monotonicity slack
SWEEP_GAIN_TOL = 1e-8     # slack on the quadratic-margin ascent inequality
CLAIM_TOL = 1e-8          # stationarity residual after exact solves
CERT_SLACK = 1e-9         # slack on the certificate distance bound

_INF = float("inf")
_EPS = float(np.finfo(float).eps)
_NO_ROWS = slice(0, 0)   # the index of every empty list of rows (_rows_index)
# how many cycles are checked together, or with checks off how many cycle
# ends are priced together, at most (run)
_OBJ_BATCH = 8
# with checks off, a batch's cycle ends take at most this many bytes, unless
# one alone needs more (run)
_OFF_BATCH_BYTES = 262144
# with checks on, a batch of cycles holds at most this many bytes of log rows
# and sums, of its sweep pass's conjugate table and of the int32 entries of
# its check's indices, unless one cycle alone needs more (run,
# _CCheck.cycle_bytes): 6 cycles of 2212 bytes of the custom-cli pattern
# (r = 8, m = 2, d = 6, 9 sweeps) at check_level "full", and one cycle of
# about 37 KB of classic (50, 20)
_CHECK_BATCH_BYTES = 13312
# the sweep pass builds its conjugate table in chunks of sweeps of at most
# this many bytes, or one sweep's (_CCheck._sweep_pass)
_TABLE_CHUNK_BYTES = 65536
# at check_level="full", a batch's one-subproblem sweeps are re-solved at
# once only when it holds at least this many (cycle, sweep) pairs of them
# (_CCheck.check), else one by one: a threshold of 1, 4 or 8 measured
# alike on the (10, 8) grid, and 4 faster than 1 for product's batches of
# one cycle
_RESOLVE_MIN = 4


class EngineInvariantError(RuntimeError):
    """A runtime check (ascent, freeze, certificate, re-solve) failed."""


class NonFiniteStateError(EngineInvariantError):
    """The dual state picked up a NaN or infinity."""


class InvalidScheduleError(ValueError):
    """The plan fails the touch-pattern conditions (A) or (B)."""


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
    per_sweep_trace: bool = False

    def __post_init__(self):
        for name in ("max_iterations", "nested_bcm_sweeps", "workers"):
            setattr(self, name, _as_count(name, getattr(self, name), 1))
        # tolerances are floats and the flag a bool, as config takes them: a
        # bool tolerance or a string anywhere is an error
        if self.stop_gap is not None:
            self.stop_gap = _as_number("stop_gap", self.stop_gap)
        self.nested_tol = _as_number("nested_tol", self.nested_tol)
        if not isinstance(self.per_sweep_trace, (bool, np.bool_)):
            raise ValueError(f"per_sweep_trace must be True or False,"
                             f" not {self.per_sweep_trace!r}")
        self.per_sweep_trace = bool(self.per_sweep_trace)
        if self.stop_gap is not None and not self.stop_gap >= 0.0:
            raise ValueError("stop_gap must be nonnegative when set")
        if not self.nested_tol > 0.0:
            raise ValueError("nested_tol must be positive")
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


class _Trace:
    """A run's trace rows as typed columns, filled in by run (TraceRows).

    Per cycle: F, v_diff, gamma, growth and approx, and cert, the largest
    certificate distance, with checks on, else None.  Per sweep, with
    per-sweep rows: sweep_F (None with checks off, where no sweep has an
    objective), sweep_v_diff, sweep_approx, and moves, the block movements
    of every sweep in block_js order; without them all four are None.  Rows
    are numbered by position: keys lists, for each cycle the plan runs, the
    block_js of each of its sweeps, the pattern's first and then those of
    the lead-in cycles, as run compiles them.
    """

    __slots__ = ("keys", "F", "v_diff", "gamma", "growth", "approx", "cert",
                 "sweep_F", "sweep_v_diff", "sweep_approx", "moves")

    def __init__(self, keys, sweeps, checks):
        self.keys = keys
        self.F, self.v_diff, self.gamma, self.growth = (
            array("d"), array("d"), array("d"), array("d"))
        self.approx = array("b")
        self.cert = array("d") if checks else None
        self.sweep_F = array("d") if sweeps and checks else None
        self.sweep_v_diff, self.sweep_approx, self.moves = (
            (array("d"), array("b"), array("d")) if sweeps
            else (None, None, None))

    def _cycle_keys(self, n):
        return self.keys[n if n < len(self.keys) else 0]

    def cycle_fields(self, k):
        """The fields of the cycle rows from row k on (TraceRows)."""
        F, v_diff, gamma, growth, approx, cert = (
            self.F, self.v_diff, self.gamma, self.growth, self.approx,
            self.cert)
        for i in range(k, len(gamma)):
            yield (i + 1, len(self._cycle_keys(i + 1)), F[i], v_diff[i], (),
                   gamma[i], growth[i], None if cert is None else cert[i],
                   bool(approx[i]))

    def _locate(self, k):
        """Cycle n of sweep row k, the row's sweep w in the cycle and the
        place in moves of its first block movement."""
        n = 1
        m = 0
        for keys in self.keys[1:]:   # the lead-in cycles come first
            if k < len(keys):
                break
            k -= len(keys)
            m += sum(map(len, keys))
            n += 1
        else:
            keys = self.keys[0]
            q, k = divmod(k, len(keys))
            n += q
            m += q * sum(map(len, keys))
        return n, k + 1, m + sum(map(len, keys[:k]))

    def sweep_fields(self, k):
        """The fields of the sweep rows from row k on (TraceRows).

        The last sweep of a cycle carries the cycle's gamma_n,
        growth_monitor and cert_max_residual, the others None.
        """
        F, v_diff, approx, moves, cert = (
            self.sweep_F, self.sweep_v_diff, self.sweep_approx, self.moves,
            self.cert)
        n, w, m = self._locate(k)
        while k < len(v_diff):
            keys = self._cycle_keys(n)
            W = len(keys)
            gamma = growth = cert_n = None
            for w in range(w, W + 1):
                js = keys[w - 1]
                e = m + len(js)
                if w == W:
                    gamma, growth = self.gamma[n - 1], self.growth[n - 1]
                    cert_n = None if cert is None else cert[n - 1]
                yield (n, w, None if F is None else F[k], v_diff[k],
                       zip(js, moves[m:e]) if js else (), gamma, growth,
                       cert_n, approx[k] == 1)
                k += 1
                m = e
            n += 1
            w = 1


def _as_row(fields):
    n, w, F, v_diff, inner, gamma, growth, cert, approx = fields
    return TraceRow(n, w, F, v_diff, dict(inner), gamma, growth, cert, approx)


class TraceRows(Sequence):
    """A run's cycle rows or per-sweep rows, read-only.

    run keeps its trace in typed columns; each TraceRow is built when it is
    read, as a new object.  Supports len, int and slice indexing (a slice
    is a list), iteration and == against any sequence of TraceRow.
    """

    __slots__ = ("fields", "_column")

    def __init__(self, fields, column):
        # fields(k) yields the fields of the rows from row k on, one tuple
        # per row in TraceRow order, with inner_diffs as (j, movement)
        # pairs, without building the rows; column holds one value per row
        self.fields = fields
        self._column = column

    def __len__(self):
        return len(self._column)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        k = operator.index(k)
        if k < 0:
            k += len(self)
        if not 0 <= k < len(self):
            raise IndexError("trace row index out of range")
        return _as_row(next(self.fields(k)))

    def __iter__(self):
        return map(_as_row, self.fields(0))

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    __hash__ = None

    def __repr__(self):
        return f"TraceRows({list(self)!r})"


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
    cycle_rows: TraceRows
    sweep_rows: TraceRows | None
    gamma: np.ndarray
    growth: np.ndarray
    F_per_cycle: np.ndarray
    sq_diff_cumsum: np.ndarray
    cycle_start_duals: list | None   # run(..., keep_cycle_starts=True) only
    certificates: list | None
    any_approx: bool
    analysis: sched.ScheduleAnalysis
    skipped_sweeps: int   # sweeps a safe screen skipped as still (_Screen)
    # each round's working set as 1-based term indices (_working_set_run);
    # None for a run on the whole plan
    rounds: list | None = None


# ---------------------------------------------------------------------------
# the solve tiers: subproblem solvers (snapshot in, the sweep's rows written
# to out), their batched re-solves and screen keys, and their table _TIERS
# ---------------------------------------------------------------------------
#
# Every solver has the signature (spec, z, v, arg, params, out) -> exact,
# where z is the snapshot, read-only, v is z.sum(axis=0), taken once per
# snapshot by the caller, out is the sweep's buffer of the rows it writes
# (_CSweep.written), and arg is what _CSweep fixed for it at compile time:
# its row sets, compiled by _rows_index, and their places in out.

def _prox_row(spec, z, v, arg, params, out):
    """Outer set {i} with one term row: its dual prox against the rest."""
    i, at = arg
    u = spec.x0 - (v - z[i])
    out[at] = u - spec.terms[i].prox(u, 1.0)
    return True


def _quad_rows(spec, z, v, arg, params, out):
    """Outer set of k quadratic-copy rows only: all share -rest / (k + 1)."""
    rows, at = arg
    quads = z[rows]
    # numpy sums one row as 0.0 + row, which takes -0.0 to +0.0
    c = v - (quads[0] + 0.0 if len(quads) == 1 else np.add.reduce(quads, 0))
    out[at] = -c / (len(quads) + 1.0)
    return True


def _prox_quad_rows(spec, z, v, arg, params, out):
    """Outer set of one term row i plus the k quadratic rows quads after it.

    arg is (i, outer, quads, tau, i_at, quads_at): outer are all k + 1 rows,
    tau is k + 1.0, and i_at and quads_at are places in out.
    """
    i, outer, quads, tau, i_at, quads_at = arg
    c = v - z[outer].sum(axis=0)
    # eliminate the copies: z_i minimizes h_i*(.) + ||. - u_bar||^2/(2 tau)
    u_bar = tau * spec.x0 - c
    x_hat = spec.terms[i].prox(u_bar / tau, 1.0 / tau)
    z_i = u_bar - tau * x_hat
    out[quads_at] = -(z_i + c) / tau
    out[i_at] = z_i
    return True


def _stacked_blocks(spec, z, v, arg, params, out):
    """Blocks {I[k], J[k]} with one term member each, in one stacked call.

    Exact: the term row takes the dual prox at its block sum plus x0 and the
    governing row J[k] the rest of the frozen sum.  arg is (stack, I, J,
    I_at, J_at, outer): I_at are the places in out of the stack's rows and
    J_at those of J.  outer is None, or the _prox_row step of the sweep's
    outer set {i}, folded in (_CSweep): the stack's last row is term i's,
    which takes its dual prox at x0 - (v - z_i) in the same call, with
    _prox_row's bits.
    """
    stack, I, J, I_at, J_at, outer = arg
    bsum = z[I] + z[J]
    U = np.empty((len(bsum) + (outer is not None), spec.d))
    np.add(bsum, spec.x0, out=U[:len(bsum)])
    if outer is not None:
        np.subtract(spec.x0, v - z[outer.arg[0]], out=U[-1])
    out[I_at] = z_i = stack.moreau(U)
    out[J_at] = bsum - z_i[:len(bsum)]
    return True


def _pair_rows(spec, z, v, arg, params, out):
    """Outer set {i, j}, or the block of j0 with term members {i, j}, of two
    halfspace or ball indicators: their joint solve is the projection of u
    onto C_i ∩ C_j, exact in closed form (terms.pair_duals).

    arg is (pair, i, j, j0, i_at, j_at, j0_at, nested): pair_duals' sets,
    in pair order, and their constants, the places in out and nested
    _nested_rows' arg, which a pair with no closed form at u runs instead.
    j0 is None for an outer set, whose u is x0 - rest; a block's u is x0
    plus the block sum, the rest of which j0 gets.
    """
    pair, i, j, j0, i_at, j_at, j0_at, nested = arg
    if j0 is None:
        u = spec.x0 - (v - z[i] - z[j])
    else:
        bsum = z[i] + z[j] + z[j0]
        u = bsum + spec.x0
    duals = pair_duals(*pair, u)
    if duals is None:
        return _nested_rows(spec, z, v, nested, params, out)
    z_i, z_j = duals
    out[i_at] = z_i
    out[j_at] = z_j
    if j0 is not None:
        out[j0_at] = bsum - z_i - z_j
    return True


def _nested_rows(spec, z, v, arg, params, out):
    """Cyclic coordinate minimization over rows (0-based, sorted); approximate.

    arg is (rows, j0, rows_at, j0_at), the last two places in out; rows is
    an index array, and the loop works on the copy z[rows].

    Each row takes its dual prox (a quadratic row: -rest / 2) at x0 minus
    rest, where rest is a frozen offset plus the loop's other rows.  With
    j0 None, rows are an outer set and the offset is the frozen rows' sum.
    Otherwise rows are the term members of the block governed by j0: the
    offset is minus the block sum, and j0 gets the block sum minus the
    members.  Stops after params.nested_bcm_sweeps passes or once a pass
    moves no entry by params.nested_tol.
    """
    rows, j0, rows_at, j0_at = arg
    add = np.add.reduce
    work = z[rows]
    if j0 is None:
        offset = v - add(work, axis=0)
    else:
        bsum = add(work, axis=0) + z[j0]
        offset = -bsum
    for _ in range(params.nested_bcm_sweeps):
        start = work.copy()
        for k, i in enumerate(rows.tolist()):
            rest = offset + (add(work, axis=0) - work[k])
            if i < spec.r:
                u = spec.x0 - rest
                work[k] = u - spec.terms[i].prox(u, 1.0)
            else:
                work[k] = -0.5 * rest
        # the largest move; fmax passes over a NaN row, as max() would
        if np.fmax.reduce(np.abs(work - start).max(axis=1),
                          initial=0.0) < params.nested_tol:
            break
    out[rows_at] = work
    if j0 is not None:
        out[j0_at] = bsum - add(work, axis=0)
    return False


# Every batched re-solve kernel has the signature (spec, G, V, item) -> ok:
# G (k, count, size, d) holds, in k cycles, the rows of a group's count
# sweeps as they were before each (_Tier.group's rows), which it overwrites
# with the rows its solver writes; V (k, count, d) the dual sums before the
# sweeps of outer sets, None for blocks, which it may overwrite; item the
# group's.  ok (k, count) is False where the solver has no closed form, or
# None when it always has.

def _prox_kernel(spec, G, V, stack):
    """_prox_row's, with the stack of the group's term rows."""
    V -= G[:, :, 0]
    np.subtract(spec.x0, V, out=V)   # x0 - (v - z_i)
    G[:, :, 0] = stack.moreau(V)


def _quad_kernel(spec, G, V, item):
    """_quad_rows', for outer sets of size rows each; numpy sums one row as
    0.0 + row, as the solver does."""
    V -= G.sum(axis=2)
    G[...] = (-V / (G.shape[2] + 1.0))[:, :, None]


def _blocks_kernel(spec, G, V, stack):
    """_stacked_blocks' for blocks of one term member each, whose rows are
    the term row and then the governing row."""
    bsum = G[:, :, 0] + G[:, :, 1]
    G[:, :, 0] = stack.moreau(bsum + spec.x0)
    np.subtract(bsum, G[:, :, 0], out=G[:, :, 1])


def _pair_kernel(spec, G, V, pair):
    """_pair_rows' for one sweep (count 1), whose rows are i, j and a
    block's governing row, with pair its sets and constants: zeros where
    both sets hold u, found for all cycles at once (pair_holds), else
    pair_duals at u."""
    P = G[:, 0]
    if V is None:   # x0 plus the block sum
        bsum = P[:, 0] + P[:, 1] + P[:, 2]
        U = bsum + spec.x0
    else:   # x0 - (v - z_i - z_j)
        U = V[:, 0]
        U -= P[:, 0]
        U -= P[:, 1]
        np.subtract(spec.x0, U, out=U)
    held = pair_holds(*pair, U)
    P[held, :2] = 0.0
    ok = np.ones((len(P), 1), dtype=bool)
    for c in np.flatnonzero(~held).tolist():
        duals = pair_duals(*pair, U[c])
        if duals is None:   # the solver ran _nested_rows
            ok[c] = False
        else:
            P[c, 0], P[c, 1] = duals
    if V is None:
        bsum -= P[:, 0]
        np.subtract(bsum, P[:, 1], out=P[:, 2])
    return ok


# Every group rule has the signature (spec, steps, shared) -> groups: steps
# are compiled steps of its tier with one subproblem each, and each group is
# (positions in steps, rows per step, item), the rows in its kernel's order,
# as many for every step of the group.  shared maps term rows to their
# stacks (_pair_stacks).

def _moreau_groups(spec, steps, shared):
    """Prox or one-member block steps, one group per kind of stack their
    term rows take, with that stack."""
    rows = [step.subs[0][0].tolist() for step in steps]
    return [(pos.tolist(), [rows[p] for p in pos.tolist()], stack)
            for pos, stack in _pair_stacks(spec.terms,
                                           [r[0] for r in rows], shared)]


def _quad_groups(spec, steps, shared):
    """Outer sets of quadratic rows, one group per size."""
    sizes = {}
    for p, step in enumerate(steps):
        sizes.setdefault(step.subs[0][0].size, []).append(p)
    return [(pos, [steps[p].subs[0][0].tolist() for p in pos], None)
            for pos in sizes.values()]


def _pair_groups(spec, steps, shared):
    """Pairs, one group each, with the rows i, j and a block's j0."""
    return [([p], [[i, j] + ([] if j0 is None else [j0])], pair)
            for p, (pair, i, j, j0) in enumerate(
                step.arg[:4] for step in steps)]


# Every screen key has the signature (spec, step) -> key or None: the key
# that _Screen tests a sweep of this one step by (_screen_row).

def _prox_screen(spec, step):
    """Its row i, when its term is a halfspace or ball indicator."""
    i = step.arg[0]
    term = spec.terms[i]
    if type(term) is Indicator and type(term.set) in (Halfspace, L2Ball):
        return i
    return None


def _pair_screen(spec, step):
    """((i, j), None) for an outer set, ((i, j), j0) for a block."""
    return tuple(step.arg[1:3]), step.arg[3]


def _blocks_screen(spec, step):
    """((i,), j0) for one block of a halfspace or ball member i."""
    if (len(step.subs) == 1
            and type(step.arg[0]) in (HalfspaceStack, BallStack)):
        return (int(step.conj_rows[0]),), step.subs[0][1]
    return None


class _Tier(NamedTuple):
    """What one solver is (_TIERS): name, as sweep_tiers prints it; exact,
    whether its rows minimize its subproblem (a pair may still fall back at
    run time, _Pending.approx); screen, its screen key or None; and at
    check_level "full" the batched re-solve of its steps of one subproblem,
    group, its group rule, and kernel, which re-solves one group for all
    cycles of a batch (_CCheck._resolved), or None for both."""
    name: str
    exact: bool
    screen: Callable | None = None
    group: Callable | None = None
    kernel: Callable | None = None


# the solve tiers, one entry per solver; _CSweep._compile chooses them
_TIERS = {
    # an outer set of one term row: its dual prox against the rest
    _prox_row: _Tier("prox", True, _prox_screen, _moreau_groups,
                     _prox_kernel),
    # an outer set of quadratic rows only: all share -rest / (k + 1)
    _quad_rows: _Tier("quad", True, None, _quad_groups, _quad_kernel),
    # an outer set of one term row plus quadratic rows, which it eliminates
    _prox_quad_rows: _Tier("prox-quad", True),
    # the blocks of one term member each, one stacked call per term kind
    _stacked_blocks: _Tier("stacked", True, _blocks_screen, _moreau_groups,
                           _blocks_kernel),
    # an outer set, or a block's members, of two halfspace or ball
    # indicators: the projection onto their intersection in closed form, or
    # the nested loop where it has none
    _pair_rows: _Tier("pair", True, _pair_screen, _pair_groups,
                      _pair_kernel),
    # any other outer set of two or more term rows, or block of two or more
    # term members: the nested coordinate loop
    _nested_rows: _Tier("nested", False),
}


class _Step(NamedTuple):
    """One compiled subproblem group: solve(spec, z, v, arg, params, out).

    subs are its subproblems as (rows, margin row): the margin row is a
    block's governing row, or None for the outer set, whose margin is the
    move of the dual sum.  conj_rows are the term rows it writes, an index
    array.
    """
    solve: Callable
    arg: object
    subs: list
    conj_rows: np.ndarray


class _CSweep:
    """Compiled sweep: its subproblem steps plus the 1-based originals.

    _compile chooses each step's tier (_TIERS).  steps (_Step, 0-based rows)
    run in this order: the blocks with one term member, one _stacked_blocks
    step per term kind (terms.stack_terms); each block with several term
    members; the outer set.  An outer set of one term row i whose term is
    of the last stack's kind, with no block of several members, is folded
    into that _stacked_blocks step, whose stack's last row is i's and whose
    arg ends with i's _prox_row step (else None): the step writes row i too,
    with that step's bits.  The _prox_row step stays the last of steps,
    which the checks and sweep_tiers read, and solves, the steps a sweep
    runs (_execute_sweep), leave it out; else solves are steps.  gov0 are
    the governing rows of the blocks in block_js order, and exact whether
    every step's tier is exact (_Tier.exact).
    written are the rows the sweep declares, sorted, and size
    their number: a sweep writes them into a (size, d) buffer, each row at
    its place there, and gov_at are the places of gov0.  gov0, written, the
    places and the row sets of every solver but _nested_rows go through
    _rows_index, so a contiguous run of rows is read as a view (_pair_rows
    takes single rows); subs and conj_rows stay index arrays for _CCheck.
    Only a _stacked_blocks step holds a stack.
    """

    __slots__ = ("steps", "solves", "outer1", "block_js", "gov0", "gov_at",
                 "exact", "written", "size")

    def __init__(self, sweep, spec):
        if not sweep.inner and len(sweep.outer) == 1:
            (i1,) = sweep.outer
            if i1 <= spec.r:
                # one term row, as in every classic sweep, compiled on
                # every run: nothing to sort or place, one index array;
                # _compile gives the same (test_engine.py)
                i = i1 - 1
                rows = np.array([i], dtype=np.intp)
                self.outer1, self.block_js = (i1,), ()
                self.written, self.size = _rows_index([i]), 1
                self.gov0 = self.gov_at = _NO_ROWS
                self.steps = self.solves = [
                    _Step(_prox_row, (i, 0), [(rows, None)], rows)]
                self.exact = True
                return
        self._compile(sweep, spec)

    def _compile(self, sweep, spec):
        """Compile any sweep."""
        terms = spec.terms
        self.outer1 = tuple(sorted(sweep.outer))
        self.block_js = tuple(sorted(sweep.inner))
        declared = sorted(i - 1 for i in sweep.touched)
        self.written = _rows_index(declared)
        self.size = len(declared)
        place = {i: k for k, i in enumerate(declared)}

        def at(rows):
            return _rows_index([place[i] for i in rows])

        gov = [j - 1 for j in self.block_js]
        self.gov0, self.gov_at = _rows_index(gov), at(gov)

        def joint(rows, j0):
            """The step of the outer set rows (j0 None) or of the term
            members rows of the block of j0: _pair_rows, else
            _nested_rows."""
            members = np.array(rows, dtype=np.intp)
            arg = (members, j0, at(rows), None if j0 is None else place[j0])
            subs = [(members if j0 is None else np.array(
                sorted(rows + [j0]), dtype=np.intp), j0)]
            # a block's members are term rows (sched._check_ranges)
            prox = members if j0 is not None else members[members < spec.r]
            pair = (pair_order(terms, rows)
                    if len(rows) == 2 and prox.size == 2 else None)
            if pair is None:
                return _Step(_nested_rows, arg, subs, prox)
            i, j = pair
            sets = (terms[i].set, terms[j].set)
            return _Step(_pair_rows, (
                sets + (pair_constants(*sets),), i, j, j0, place[i],
                place[j], arg[3], arg), subs, prox)

        single = {}   # term row -> governing row, for one-member blocks
        nested = []
        for j in self.block_js:
            prox0 = sorted(i - 1 for i in sweep.inner[j] if i != j)
            if len(prox0) == 1:
                single[prox0[0]] = j - 1
            else:
                nested.append(joint(prox0, j - 1))
        outer = None
        if self.outer1:
            outer0 = np.array([i - 1 for i in self.outer1], dtype=np.intp)
            prox0 = outer0[outer0 < spec.r]
            rows = outer0.tolist()
            if prox0.size >= 2:
                outer = joint(rows, None)
            else:
                if prox0.size == 0:
                    solve, arg = _quad_rows, (_rows_index(rows), at(rows))
                elif outer0.size == 1:
                    solve, arg = _prox_row, (rows[0], place[rows[0]])
                else:
                    solve, arg = _prox_quad_rows, (
                        rows[0], _rows_index(rows), _rows_index(rows[1:]),
                        float(outer0.size), place[rows[0]], at(rows[1:]))
                outer = _Step(solve, arg, [(outer0, None)], prox0)
        # an outer set of one term row whose kind is the last stack's, after
        # which no step comes, joins that stack in solves; steps keep their
        # order, the blocks' and then the outer set's, as the checks read it
        fold = (outer and outer.solve is _prox_row and single and not nested
                and list(stack_kinds(terms, outer.conj_rows.tolist()))
                == list(stack_kinds(terms, single))[-1:])
        self.steps = []
        for I, stack in stack_terms(terms, list(single) + (
                [outer.arg[0]] if fold else [])):
            I0 = [i for i in I.tolist() if i in single]
            J0 = [single[i] for i in I0]
            subs = [(np.array([i, j]), j) for i, j in zip(I0, J0)]
            self.steps.append(_Step(
                _stacked_blocks, (stack, _rows_index(I0), _rows_index(J0),
                                  at(I.tolist()), at(J0),
                                  outer if len(I0) < len(I) else None),
                subs, I[:len(I0)]))
        self.steps += nested + ([outer] if outer else [])
        self.solves = self.steps[:-1] if fold else self.steps
        self.exact = all(_TIERS[step.solve].exact for step in self.steps)


def sweep_tiers(spec, sweep):
    """The solve tiers a SweepPlan compiles to, one "tier {i,j,...}" string
    per step in the order the sweep runs them, with the 1-based indices of
    each of its subproblems (a block's include its governing index), and
    " (approximate)" after an inexact tier's.  A pair falls back to the
    nested loop where it has no closed form (_pair_rows)."""
    out = []
    for step in _CSweep(sweep, spec).steps:
        tier = _TIERS[step.solve]
        out.append(" ".join([tier.name] + [
            "{" + ",".join(str(i + 1) for i in rows.tolist()) + "}"
            for rows, _ in step.subs]) + (
                "" if tier.exact else " (approximate)"))
    return out


def _screen_row(spec, steps):
    """What a sweep of these compiled steps screens (_Screen): its one
    step's screen key (_Tier.screen), or None for a sweep of several steps
    or a step that screens nothing."""
    if len(steps) != 1:
        return None
    screen = _TIERS[steps[0].solve].screen
    return None if screen is None else screen(spec, steps[0])


def _slack_kappa(d):
    """The rounding factor kappa of _slack_bounds for points of dimension d,
    8·(d + 8)·u with u = eps/2 (_Screen)."""
    return 4 * (d + 8) * _EPS


def _slack_bounds(stack, X, nx, kappa):
    """Lower bounds on the slacks of a halfspace or ball stack's sets at X,
    whose norms are nx (_Screen, _working_set_run): at one point (d,), or at
    each of n points (n, 1, d), with nx (n, 1), as (n, rows).  One that
    overflows is -inf or NaN, which screens nothing."""
    if isinstance(stack, HalfspaceStack):
        t = stack.b - _dots(stack.A, X)
        t /= np.sqrt(stack._nrm2)
        t *= 1.0 - kappa
        t -= kappa * nx
        if not all_finite(t):
            t[~np.isfinite(t)] = -_INF
        return t
    C, c2 = stack.C, _dots(stack.C, stack.C)
    q = c2 - 2.0 * _dots(C, X) + nx * nx
    q += kappa * (np.sqrt(c2) + nx) ** 2
    return (stack.radius * (1.0 - kappa) - np.sqrt(q) * (1.0 + kappa)
            - kappa * nx)


class _Screen:
    """Safe screening of the still sweeps of halfspace and ball rows (run).

    A sweep whose one step, of one subproblem, solves halfspace or ball
    indicator rows (_screen_row) is still when those rows are +0.0 and its
    sets hold the point its solver tests:
    - an outer set {i} (_prox_row) or {i, j} (_pair_rows), at x = x0 - v:
      u = x0 - (v - z_i) (- z_j) has the bits of x, and when its sets hold
      u, the set's project returns u.copy() and z_i gets u - u, or
      pair_duals takes its first branch, <a, u> - b <= 0 and ||u - c||^2
      <= rho^2 for each set, and z_i and z_j get 0.0: +0.0 again;
    - a block of j0 with term members {i} (_stacked_blocks) or {i, j}
      (_pair_rows), at x = x0 + z_j0: the block sum adds the members' +0.0
      to z_j0, which keeps its bits unless it holds a -0.0, which the sum
      turns into +0.0, so u = bsum + x0 has the bits of x; when its sets
      hold u, the members get u - u or 0.0, as above, and z_j0 gets bsum
      minus them, its own bits.  A block whose z_j0 holds a -0.0 is never
      still.
    A screen, taken at a cycle start (slacks), gives each screened sweep a
    lower bound s on the least slack of its sets at its point x_s, (b -
    <a, x>)/||a|| for a halfspace and rho - ||x - c|| for a ball, both
    1-Lipschitz in x, or -inf when one of its term rows' bytes are not all
    +0.0 (a -0.0 included) or a set is no halfspace or ball.  An outer
    sweep is skipped while s > m, a bound on ||v - v_s||: every sweep that
    moves grows m by the norm of its dual-sum difference.  A block sweep is
    skipped while s exceeds the norm of z_j0 - z_j0,s, how far its
    governing row has moved since the screen, taken when the sweep comes,
    and z_j0 holds no -0.0 then.  A sweep that moves marks -inf every other
    screened sweep that keeps a term row it writes, and a block sweep its
    own too; an outer sweep's own s, no more than m when it was solved,
    stays so until the next screen, as m only grows, while z_j0 may move
    back.  A skipped sweep's solve would have kept its rows:
    its sets hold its point, by at least the margin the solver's own test
    needs.  The screen holds until a screened sweep that is solved keeps
    +0.0 term rows, a skip it missed; the next cycle start then screens
    again, as does the first after a cycle that screens nothing.

    The rounding slack, with u = eps/2, g_n = n·u and kappa = 8·(d + 8)·u:
    - the move: still and skipped sweeps keep v's bits, so v - v_s is the
      sum of the dual-sum differences of the sweeps that moved since the
      screen, each within 1 + g_{d+4} of its rounded norm n; m takes each
      as m <- (m + n)·(1 + kappa), which rounded still gains at least (1 +
      g_{2d+6})·n, so (1 + g_d)·||u - x_s|| <= m + 4u·||x_s|| for the
      solver's point u = fl(x0 - v) and x_s = fl(x0 - v_s).  A block's
      bound is one such step, n·(1 + kappa) for the rounded norm n of z_j0
      - z_j0,s, so the same holds for u = fl(x0 + z_j0) and x_s = fl(x0 +
      z_j0,s);
    - the solver: Halfspace.project, the halfspace stack and pair_duals
      keep u when fl(<a, u>) <= b, which holds when the slack of u is at
      least g_d·||u||; L2Ball.project and the ball stack keep it when
      fl(||u - c||) <= rho, which holds when the slack is at least
      g_{d+3}·rho, and pair_duals when fl(||u - c||^2) <= fl(rho^2), which
      then holds too: fl(||u - c||^2) <= (1 + g_{d+2})·||u - c||^2 and (1 +
      g_{d+2})·(1 - g_{d+3})^2 <= 1 - u;
    - the screen: a halfspace's rounded slack s' is within g_{d+4}·|s'| +
      g_d·||x_s|| of the slack of x_s, and s = s'·(1 - kappa) -
      kappa·||x_s||; a ball's q = ||c||^2 - 2<c, x_s> + ||x_s||^2 is within
      g_{d+3}·(||c|| + ||x_s||)^2 of ||x_s - c||^2, so the root of q +
      kappa·(||c|| + ||x_s||)^2, times 1 + kappa, bounds ||x_s - c|| above,
      and s = rho·(1 - kappa) minus that bound minus kappa·||x_s||; a
      pair's s is the lesser of its sets'.
    Together s > m gives the solver's test, with (kappa - g_{d+4})·(|s'| +
    ||x_s||) to spare for a halfspace and (kappa - 6u)·rho + (kappa -
    4u)·||x_s|| for a ball: more than the few roundings of s itself and of
    ||x_s||, and the g_d·||x_s|| or g_{d+3}·rho that the test needs.  A
    slack that overflows is not finite and screens nothing.

    s holds r + 1 + P + B doubles: the bound of each term row i as the
    sweep {i} tests it, -inf at r, then those of the P screened pairs and
    of the B screened blocks.  rows[k] lists, for each sweep of compiled
    cycle k, the place in s of the bound it tests against m, r for a sweep
    that screens none or is a block, as a range when the places run up by
    one; blocks[k] lists each block sweep's (place in s, z_j0's row, places
    of its term rows in its buffer, block number) and None for the other
    sweeps; drops[k] lists the places in s that each sweep marks -inf when
    it moves.  Each is None when no sweep of cycle k needs it.  skipped
    counts the sweeps that run skipped.  A screen's arrays are O(B·r) and
    let go before it returns but for s and, with blocks, the (B, d) rows
    z_j0,s: the sets' data are read in place, from the stacks of all r
    terms.
    """

    __slots__ = ("rows", "blocks", "drops", "skipped", "_kappa", "_x0",
                 "_r", "_size", "_groups", "_pairs", "_members", "_Z")

    def __init__(self, spec, keys, compiled, groups):
        r = spec.r
        singles = {key for c in keys for key in c if type(key) is int}
        # the place in s of each pair, then of each block
        place = dict.fromkeys(key for c in keys for key in c
                              if type(key) is tuple)
        pairs = [key for key in place if key[1] is None]
        blocks = [key for key in place if key[1] is not None]
        base = r + 1 + len(pairs)
        readers = {}   # the places that keep a pair's or block's rows' +0.0
        for q, key in enumerate(pairs + blocks, start=r + 1):
            place[key] = q
            for i in key[0]:
                readers.setdefault(i, {i} if i in singles else set()).add(q)

        def kept(i):
            return readers.get(i, (i,) if i in singles else ())

        self.rows, self.blocks, self.drops = [], [], []
        for c, sweeps in zip(keys, compiled):
            own = [key if type(key) is not tuple else place[key] for key in c]
            drops, blks = [], []
            for key, q, cs in zip(c, own, sweeps):
                if type(key) is int and key not in readers:
                    # the sweep {i} writes only row i, no other's to drop;
                    # once it moves, its test fails until the next screen
                    drops.append(())
                    blks.append(None)
                    continue
                written = cs.written
                written = (range(written.start, written.stop)
                           if isinstance(written, slice) else written.tolist())
                # so does an outer pair's, but not a block's: its z_j0 may
                # move back, so it drops its own place too
                drops.append(tuple(sorted(
                    {x for i in written for x in kept(i)
                     if x != q or q >= base})))
                blks.append(None if q is None or q < base else (
                    q, key[1], _rows_index(
                        [p for p, i in enumerate(written) if i < r]),
                    q - base))
            self.drops.append(drops if any(drops) else None)
            self.blocks.append(blks if any(blks) else None)
            if all(q is None for q in own):
                self.rows.append(None)
                continue
            c = [r if q is None or q >= base else q for q in own]
            if c == list(range(c[0], c[0] + len(c))):
                c = range(c[0], c[0] + len(c))   # the classic schedule's
            self.rows.append(c)
        self._pairs = None if not pairs else np.array(
            [key[0] for key in pairs], dtype=np.intp).T
        # per block, its z_j0 row and the places of its first and last term
        # row in the (1 + B, r) table of the slacks at x and at the blocks'
        # points (slacks)
        self._members = None if not blocks else np.array(
            [(j0, b * r + rows[0], b * r + rows[-1])
             for b, (rows, j0) in enumerate(blocks, start=1)],
            dtype=np.intp).T
        self.skipped = 0
        self._kappa = _slack_kappa(spec.d)
        self._x0, self._r, self._groups = spec.x0, r, groups
        self._size = base + len(blocks)
        self._Z = None

    @classmethod
    def of(cls, spec, compiled, groups):
        """The screen of run's compiled cycles, or None when no sweep of
        theirs screens a row, which then costs nothing."""
        keys = [[_screen_row(spec, cs.steps) for cs in c] for c in compiled]
        if all(key is None for c in keys for key in c):
            return None
        return cls(spec, keys, compiled, groups)

    def slacks(self, z, v):
        """The screen s of the state z whose row sum is v, as an
        array("d"), whose items are read as floats; a NaN screens nothing.
        Keeps the blocks' rows z_j0,s."""
        r, kappa = self._r, self._kappa
        s = np.full(self._size, -_INF)
        x = self._x0 - v
        nonzero = np.logical_or.reduce(z[:r].view(np.uint64), axis=1)
        with np.errstate(all="ignore"):   # an overflow screens nothing
            if self._members is None:
                T = s[:r]   # the slacks at x, in place
                nx = math.sqrt(x.dot(x))
            else:
                # and those at the blocks' points x0 + z_j0, a row of T each
                self._Z = z[self._members[0]]
                x = np.concatenate(([x], self._x0 + self._Z))[:, None]
                T = np.full((len(x), r), -_INF)
                nx = np.sqrt(_dots(x, x))
            for rows, stack in self._groups:
                if isinstance(stack, (HalfspaceStack, BallStack)):
                    T[..., rows] = _slack_bounds(stack, x, nx, kappa)
            T[..., nonzero] = -_INF
            if self._members is not None:
                _, first, last = self._members
                s[:r] = T[0]
                T = T.ravel()
                np.minimum(T[first], T[last], out=s[-len(first):])
            if self._pairs is not None:
                i, j = self._pairs
                np.minimum(s[i], s[j], out=s[r + 1:r + 1 + len(i)])
        return array("d", s.tobytes())

    def moved(self, slack, k, w, bound, dv):
        """The bound m after sweep w (1-based) of cycle k moved the dual sum
        by dv; marks -inf in slack the places it drops."""
        drops = self.drops[k]
        if drops:
            for i in drops[w - 1]:
                slack[i] = -_INF
        return (bound + math.sqrt(dv.dot(dv))) * (1.0 + self._kappa)

    def holds(self, slack, block, z):
        """Whether a block sweep, with block its entry of blocks, is surely
        still at the state z: its s exceeds its bound, and its z_j0 holds
        no -0.0, which its block sum would turn into +0.0."""
        q, j0, _, b = block
        zj = z[j0]
        d = zj - self._Z[b]
        return (slack[q] > math.sqrt(d.dot(d)) * (1.0 + self._kappa)
                and (zj + 0.0).tobytes() == zj.tobytes())


def _rows_index(rows):
    """A list of 0-based rows as an index: a basic slice, read as a view,
    when the rows are an exact ascending contiguous run (an empty list
    included), else an array."""
    if not rows:
        return _NO_ROWS
    start = rows[0]
    if rows == list(range(start, start + len(rows))):
        return slice(start, start + len(rows))
    return np.array(rows, dtype=np.intp)


def _read_only(a):
    """A read-only view of a, for the solvers' snapshots; setflags, unlike
    the flags attribute, makes no name string that the type attribute cache
    keeps alive at a place chosen by its address, moving tracemalloc peaks."""
    view = a.view()
    view.setflags(write=False)
    return view


def _execute_sweep(spec, z, v, cs, params, out):
    """Run one sweep against the snapshot z, read-only, whose row sum is v;
    returns exact.

    out, a (cs.size, d) buffer, receives the new values of the rows the
    sweep declares, cs.written, each at its place.  Every step reads z
    itself, never the rows an earlier step wrote.
    """
    exact = True
    for step in cs.solves:
        exact = step.solve(spec, z, v, step.arg, params, out) and exact
    return exact


def _movements(D):
    """How far the sweeps of a cycle moved the dual sum and their blocks'
    governing rows, as one row: D holds the differences the W sweeps made
    to the dual sum, then the G they made to their governing rows, sweep
    by sweep in block_js order.  Each row's dot product has the bits of
    the 1-d one (terms._dots), and so each move those of np.linalg.norm of
    its difference.
    """
    return np.sqrt(_dots(D, D))


def _sum_layout(sweeps):
    """Where _cycle_sums places the G block movements of a cycle of these
    W compiled sweeps, as (W, B + 1, places, size): a table of W rows of
    B + 1 columns, B the most blocks of one sweep, size entries in all (0
    when no sweep has blocks), holds +0.0 in column 0 of each row, then
    the sweep's block movements at places (G,), flat in the table, and
    +0.0 in the padding after them.  places go through _rows_index: a
    contiguous run is read as a view."""
    nb = [len(cs.block_js) for cs in sweeps]
    B1 = 1 + max(nb)
    places = [w * B1 + c for w, b in enumerate(nb) for c in range(1, b + 1)]
    return len(nb), B1, _rows_index(places), len(nb) * B1 if places else 0


@np.errstate(over="ignore", invalid="ignore")
def _cycle_sums(M, layout, sq0, margins=False):
    """The movement sums of k cycles of one pattern (run), from their rows
    of _movements, M (k, W + G), and the pattern's _sum_layout: sums, three
    lists of k floats, per cycle its gamma_n, the running sum of squared
    movements, continued from sq0, and its sum of dual-sum moves, and with
    margins true the margins (k, W) of the sweeps, else None.

    Each sum has the bits of a scalar loop over every sweep, from +0.0
    (tests/test_trace.py): a sweep adds its dual-sum move v plus the sum
    of its block moves, v * v plus the sum of their squares, and gets the
    margin 0.5 * v * v + 0.5 times that sum.  np.add.accumulate takes the
    sums left to right: the block moves' along each table row, whose
    padding adds +0.0, and then the sweeps', from a column of +0.0.  A
    sweep that did not move adds zeros, which the loop skips: a sum from
    +0.0 is never -0.0, the one value that adding a zero can change.
    Python's floats overflow without a warning, and so do these.
    """
    (W, B1, places, size), k = layout, len(M)
    v = M[:, :W]
    T = np.zeros((3, k, W + 1))   # per cycle and sweep, its terms of the sums
    T[::2, :, 1:] = v
    np.multiply(v, v, out=T[1, :, 1:])
    if size:   # (2, k, W): each sweep's sum of block moves and of squares
        P = np.zeros((2, k, size))
        P[0][:, places] = M[:, W:]
        np.multiply(P[0], P[0], out=P[1])
        inner = np.add.accumulate(P.reshape(2, k, W, B1), axis=3)[..., -1]
        T[:2, :, 1:] += inner
    sums = np.add.accumulate(T, axis=2, out=T)[..., -1]   # gamma, sq, v_sum
    sums[1, 0] += sq0
    if k > 1:
        np.add.accumulate(sums[1], out=sums[1])
    if not margins:
        return sums.tolist(), None
    margins = 0.5 * v * v
    if size:
        margins += 0.5 * inner[1]
    return sums.tolist(), margins


# ---------------------------------------------------------------------------
# the public single-step helper
# ---------------------------------------------------------------------------

def run_sweep(spec, state, sweep, params=None):
    """Execute one SweepPlan in place; returns movement diagnostics.

    The one single-step helper: one outer solve or one inner block is a
    SweepPlan of its own, whose indices SweepPlan checks.  An index out of
    spec's ranges or a dual state of the wrong shape raises before the
    state is touched.
    """
    params = params or SolveParams()
    sched._check_ranges([sweep], spec.r, spec.m, "ad-hoc sweep")
    z = state.z
    if z.shape != (spec.n_duals, spec.d):
        raise DimensionMismatch(
            f"z has shape {z.shape}, expected {(spec.n_duals, spec.d)}")
    cs = _CSweep(sweep, spec)
    v_old = z.sum(axis=0)
    out = np.empty((cs.size, spec.d))
    exact = _execute_sweep(spec, _read_only(z), v_old, cs, params, out)
    z_new = z.copy()
    z_new[cs.written] = out
    v_diff, *norms = _movements(np.concatenate(
        ([z_new.sum(axis=0) - v_old], z_new[cs.gov0] - z[cs.gov0]))).tolist()
    state.z = z_new
    state.w += 1
    return {"v_diff": v_diff, "inner_diffs": dict(zip(cs.block_js, norms)),
            "exact": exact}


# ---------------------------------------------------------------------------
# per-cycle checks
# ---------------------------------------------------------------------------
#
# With checks on, the sweep loop only solves and logs: a batch of k
# consecutive cycles of one pattern, W sweeps each, is kept as a _Log, its
# start state and then per sweep the rows it declares and its dual sum.
# The states are numbered through the batch: state c * W + w is the duals
# after sweep w of cycle c, and state c * W starts cycle c.  When the batch
# is checked, _CCheck evaluates every check of its cycles from the log in a
# few vectorized calls, reading each row of a state where it was last
# written, and raises the first failure in the order the checks come cycle
# by cycle and sweep by sweep.  Each sum is taken in the order of the scalar
# formula it stands for, so every per-sweep objective is bitwise equal to
# dual_objective_from on its state.

def _quad_parts(spec, X, Z):
    """Rows of spec.quad_value at X and of spec.conjugate_quad at Z."""
    D = X - spec.x0
    values = 0.5 * _dots(D, D)
    D = np.add(Z, spec.x0, out=D)   # in X's differences' place
    return values, 0.5 * _dots(D, D) - 0.5 * spec._x0_sq


def _fenchel(H, C, XZ):
    """Rows of fenchel_residual from h_i(x), h_i*(z) and <x, z>, written
    into H.

    h and h* are never -inf, so an infinite one gives +inf, as there.
    """
    H += C
    H -= XZ
    return np.maximum(H, 0.0, out=H)


def _quad_conjugates(spec, Q):
    """The sum of the m quadratic conjugates of every state k, from Q[k],
    a copy of its quadratic rows, which is overwritten: x0 is added in
    place, with no temporary of Q's size but numpy's buffer of the
    broadcast x0."""
    Q += spec.x0
    Q *= Q
    return (0.5 * Q.reshape(len(Q), -1).sum(axis=1)
            - spec.m * 0.5 * spec._x0_sq)


def _objectives(spec, V, total):
    """dual_objective_from on every state k.

    V holds the row sums of the states and total[k] the _ordered_sum of
    the term conjugates of state k plus its _quad_conjugates; an infinite
    conjugate gives -inf.
    """
    D = spec.x0 - V
    return -(total + (0.5 * _dots(D, D) - 0.5 * spec._x0_sq))


def _state_objectives(spec, groups, Z, V):
    """dual_objective_z on every state Z[k], whose row sum is V[k].

    groups are the term stacks of all r rows; each prices its rows of every
    state in one support call, and each state's conjugates are summed in row
    order, as in the check pass.  No ufunc here broadcasts an operand over
    a (k, rows, d) array: numpy would hold an iteration buffer of up to
    np.getbufsize() doubles for it, as much as the batch's rows at the
    benchmark's sizes.  The quadratic rows are copied and x0 added in place
    (_quad_conjugates).
    """
    C = np.empty((len(Z), spec.r + 1))
    C[:, 0] = 0.0
    conj = C[:, 1:]
    for rows, stack in groups:
        conj[:, rows] = stack.support(Z[:, rows])
    total = np.add.accumulate(C, axis=1, out=C)[:, -1]
    if spec.m:
        total = total + _quad_conjugates(spec, Z[:, spec.r:].copy())
    return _objectives(spec, V, total)


class _Pending(NamedTuple):
    """A cycle whose checks or objective wait for its batch (run).

    n is its number; ascent says whether its end-of-cycle objective must
    not fall below the cycle before it and approx whether a sweep was
    approximate: a bool, or, when a compiled exact tier fell back to
    _nested_rows (_pair_rows), the tuple of those sweeps, 1-based, which
    is true (_CCheck._exact).  sweep_rows and moves are the lengths of the
    trace's per-sweep columns and of its moves at the cycle's end (0
    without per-sweep rows), and skipped the screen's count there: a run
    whose gap closes at this cycle is cut back to them.  Its gamma_n is
    in the trace, its movement sums taken with its batch's (run).
    """
    n: int
    ascent: bool
    approx: bool | tuple
    sweep_rows: int
    moves: int
    skipped: int


def _flush_cycle_ends(spec, groups, Z, V, batch, F_list, gap):
    """Evaluate a batch of checks-off cycle ends in cycle order; returns
    the place in batch of the first cycle whose gap closes, else None.

    batch lists the _Pending cycles whose ends are the states Z[k], with row
    sums V[k].  Each objective is appended to F_list, the trace's F column,
    and a cycle whose ascent flag is set must not fall below the cycle
    before it, as in a cycle-by-cycle check.  Then, unless gap is None,
    the gap rule (_GapRule) tests the cycle: the first whose gap closes
    ends the batch, and no later cycle is tested or priced.  When the
    batched call raises, the states are priced one at a time, so that the
    first cycle's error comes first.
    """
    k = len(batch)
    try:
        F = _state_objectives(spec, groups, Z[:k], V[:k]).tolist()
    except Exception:   # an oracle's, or a warning raised as an error
        F = None
    if gap is not None:   # once the objectives' temporaries are gone
        prices = gap.price(V[:k])
    for j, cyc in enumerate(batch):
        F_n = (F[j] if F is not None else _state_objectives(
            spec, groups, Z[j:j + 1], V[j:j + 1]).tolist()[0])
        if cyc.ascent and F_list and F_n < F_list[-1] - ASCENT_TOL:
            raise EngineInvariantError(
                f"cycle {cyc.n}: end-of-cycle objective decreased")
        F_list.append(F_n)
        if gap is not None and gap.closes(prices, j, F_n):
            return j
    return None


def _pair_stacks(terms, rows, shared):
    """stack_terms over a list of term rows that may repeat.

    Returns [(positions in rows, stack), ...].  shared maps a tuple of term
    rows to their stack: a group of the same rows takes it, and only a group
    that shared lacks is built, and added.
    """
    whole = shared.get(tuple(rows))
    if whole is not None:
        # rows that shared holds as one group, as every classic check's
        # are, skip the grouping pass: a fifth of _CCheck's compile there
        return [(np.arange(len(rows)), whole)]
    out = []
    for kind, pos in stack_kinds([terms[i] for i in rows],
                                 range(len(rows))).items():
        key = tuple([rows[k] for k in pos])
        stack = shared.get(key)
        if stack is None:
            stack = shared[key] = kind.of([terms[i] for i in key])
        out.append((np.array(pos, dtype=np.intp), stack))
    return out


def _assert_unfrozen(c_analysis, dw, di):
    """Raise EngineInvariantError when a sweep of a valid plan's cycle
    declares a row that a freeze equality holds fixed there: after its last
    touch p, or a block member inside the protected window q+1..p-1 of its
    block.  dw and di list the declared (sweep, 0-based row) pairs in sweep
    order.  A sweep writes only the rows it declares, so a cycle that
    passes keeps every freeze equality.
    """
    p = c_analysis.p
    windows = {}
    for i1, q in c_analysis.q.items():
        for i2 in c_analysis.block_members[i1]:
            windows.setdefault(i2, []).append((q, p[i1]))
    for w, i in zip(dw, di):
        i += 1
        if w > p[i]:
            raise EngineInvariantError(
                f"{c_analysis.label} sweep {w}: z_{i} is written after its"
                f" last touch (sweep {p[i]})")
        for q, last in windows.get(i, ()):
            if q < w < last:
                raise EngineInvariantError(
                    f"{c_analysis.label} sweep {w}: block member z_{i} is"
                    f" written inside the protected window ({q}..{last - 1})")


def _cert_layout(c_analysis, r):
    """Where each index's certificate point is read from, as index arrays.

    Returns ((rows, p), (rows, p), [(rows, p, q, parts), ...]): the indices
    last touched by an outer solve, the quadratic indices last touched in a
    block, and the term indices last touched in a block, these grouped by
    their number of term members (parts, 0-based and sorted).  The rows are
    int32, as the _Index that holds them; the sweeps and parts, from which
    _cert_index computes offsets, are intp.
    """
    outer, quad, blocks = ([], []), ([], []), {}
    for i1 in sorted(c_analysis.p):
        i0, p = i1 - 1, c_analysis.p[i1]
        j1 = c_analysis.via_block.get(i1)
        if j1 is None or i1 > r:   # an outer solve's, or a copy's
            rows, ps = outer if j1 is None else quad
            rows.append(i0)
            ps.append(p)
        else:
            parts = sorted(i2 - 1 for i2 in c_analysis.block_members[i1]
                           if i2 != j1)
            blocks.setdefault(len(parts), []).append(
                (i0, p, c_analysis.q[i1], parts))

    def columns(pairs):
        rows, ps = pairs
        return np.array(rows, dtype=np.int32), np.array(ps, dtype=np.intp)

    return columns(outer), columns(quad), [
        (np.array([b[0] for b in group], dtype=np.int32),
         np.array([b[1] for b in group], dtype=np.intp),
         np.array([b[2] for b in group], dtype=np.intp),
         np.array([b[3] for b in group], dtype=np.intp))
        for group in blocks.values()]


def _cert_pairs(c_analysis, stat_w, stat_i):
    """Per index, the place of the stationarity pair (sweep, 0-based row)
    in stat_w and stat_i that is its last touch, or None when an outer
    solve whose pair is not listed, or a block, touches it last."""
    place = {wi: j for j, wi in enumerate(zip(stat_w, stat_i))}
    return [None if i1 in c_analysis.via_block
            else place.get((c_analysis.p[i1], i1 - 1))
            for i1 in sorted(c_analysis.p)]


def _cert_index(layout, n, W, K, rows, sums):
    """The flat indices _certificates reads for K cycles of W sweeps.

    rows maps offsets w * n + i of one cycle's states, row i of state w, to
    flat row indices for each of the K cycles in turn, and sums maps state
    numbers w to flat indices of their sums likewise.  Returns (K, outer,
    quad, blocks, end sums, end rows): outer (rows, sums), quad (rows, row
    indices) and each of blocks (rows, parts per row, at p, at q, sums at q)
    for the groups of the layout (_cert_layout), and the sums and all rows
    of each cycle's last state.
    """
    (o_rows, o_p), (q_rows, q_p), blocks = layout
    return (K, (o_rows, sums(o_p)), (q_rows, rows(q_p * n + q_rows)),
            [(i, parts.shape[1], rows(p[:, None] * n + parts),
              rows(q[:, None] * n + parts), sums(q))
             for i, p, q, parts in blocks],
            sums(np.array([W])), rows(W * n + np.arange(n)))


def _certificates(spec, R, V, at, k, groups, conjugates):
    """Certificate points, their distances to the iterate, Fenchel residuals.

    The states of k cycles are read through the indices at (_cert_index):
    R holds their rows, V their row sums, each as one (rows, d) array, and
    conjugates[c] are the r term conjugates at cycle c's end; groups are
    the stacks of all r terms.  For an index last touched by an outer solve
    at sweep p the point is x0 - v at that sweep; for a term index last
    touched inside a block the frozen-window mixed sum is used; for the
    governing quadratic index it is x0 + z_j at sweep p.  Each array has a
    leading cycle axis.  Every index is computed here; the checks of a cycle
    whose every index is last touched by an exact outer solve take them
    from their sweep pass instead (_CCheck._certificates).
    """
    d, x0 = spec.d, spec.x0
    K, (o_rows, o_sums), (q_rows, q_at), blocks, end_sums, end = at

    def take(A, idx):
        return _gather(A, idx, k, K)

    X = np.empty((k, spec.n_duals, d))
    points = take(V, o_sums)
    np.subtract(x0, points, out=points)
    X[:, o_rows] = points
    del points
    X[:, q_rows] = x0 + take(R, q_at)
    for rows, size, p_at, q_at, q_sums in blocks:
        # summed over the parts of one block at a time, as for one cycle
        part_p = take(R, p_at).reshape(-1, size, d)
        part_q = take(R, q_at).reshape(-1, size, d)
        X[:, rows] = (x0 - part_p.sum(axis=1)
                      - (take(V, q_sums).reshape(-1, d) - part_q.sum(axis=1))
                      ).reshape(k, len(rows), d)
        del part_p, part_q
    r = spec.r
    # the end states give <x, z> and the quadratic parts, then their place
    # takes the differences to the end iterates; all go before the values
    # are laid out and the term values add their own temporaries
    Z = take(R, end)
    XZ = _dots(X, Z)
    if spec.m:
        quad = _quad_parts(spec, X[:, r:], Z[:, r:])
    D = np.subtract(X, x0 - take(V, end_sums), out=Z)
    res = np.sqrt(_dots(D, D))
    del Z, D
    H = np.empty(res.shape)
    C = np.empty(res.shape)
    if spec.m:
        H[:, r:], C[:, r:] = quad
        del quad
    for rows, stack in groups:
        H[:, rows] = stack.value(X[:, :r] if rows.size == r else X[:, rows])
    C[:, :r] = conjugates
    return X, res, _fenchel(H, C, XZ)


def _raise_certificates(res, fen, gamma, n):
    """Cycle n's certificate bounds: every distance res within gamma, every
    Fenchel residual fen within CLAIM_TOL."""
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


def _certificate_list(X, residuals, fenchels):
    return [Certificate(index=i + 1, point=x, residual=res, fenchel=fen)
            for i, (x, res, fen) in enumerate(
                zip(X, residuals.tolist(), fenchels.tolist()))]


def certificate_points(spec, snaps, c_analysis):
    """Per-index primal certificates from one cycle's sweep snapshots.

    snaps[w] must be the duals after sweep w (snaps[0] the cycle start), as
    a list or one array, and the analysis must be valid for this cycle.
    Every index is computed through the same arrays as the engine's checks
    compute a cycle's that has an index not last touched by an exact outer
    solve (_certificates).  A cycle whose every index is takes them from
    the checks' stationarity pass, which this function does not share: it
    stays a reference for both.
    """
    S = np.asarray(snaps, dtype=float)
    groups = stack_terms(spec.terms, range(spec.r))
    conj = stacked_conjugates(groups, S[-1], np.empty(spec.r))
    at = _cert_index(_cert_layout(c_analysis, spec.r), S.shape[1],
                     len(S) - 1, 1, np.ravel, np.ravel)
    X, res, fen = _certificates(spec, S.reshape(-1, spec.d), S.sum(axis=1),
                                at, 1, groups, conj[None])
    return _certificate_list(X[0], res[0], fen[0])


class _Pass(NamedTuple):
    """The per-sweep values of k cycles (_CCheck._sweep_pass).

    F and F_prev (k, W) are the objectives after and before each sweep of
    each cycle, bad (k, W) flags the sweeps that fail a check and decreased,
    short (k, W) and stat_bad (k, pairs) which check; resid (k, pairs) are
    the stationarity residuals, and stat_X (k, pairs, d) their points when
    the cycle's certificates are taken from them (_CCheck.cert_pairs), else
    None.  ends (k, r) are the conjugates at each cycle's end.  exact, (W,)
    or (k, W), flags the sweeps that ran exact tiers only, the ones that
    are checked (_CCheck._exact).  sub_short (k, S) flags the subproblems
    of _CCheck.gains that gained less than their own margins, or is None.
    """
    F: np.ndarray
    F_prev: np.ndarray
    bad: np.ndarray
    decreased: np.ndarray
    short: np.ndarray
    stat_bad: np.ndarray
    stat_X: np.ndarray | None
    resid: np.ndarray
    ends: np.ndarray
    exact: np.ndarray
    sub_short: np.ndarray | None


class _Resolve(NamedTuple):
    """The exact sweeps of one step with one subproblem that check
    re-solves for all cycles of a batch at once, at check_level="full"
    (_CCheck._compile_resolve), in groups of one tier each (_Tier.group).

    at maps a sweep w to its place b among the B sweeps.  Their written
    rows, Q in all, are laid out group by group and in a group sweep by
    sweep: rows (Q,) are their flat offsets (w - 1) * n + i in a cycle's
    states, w - 1 the state each sweep starts from, starts (B,) where each
    sweep's rows start, and vrows the w - 1 of the outer sets, whose sums
    their kernels read.  groups are (kernel, first place, count, first row,
    rows per sweep, first place in vrows or None, item).
    """
    at: dict
    rows: np.ndarray
    starts: np.ndarray
    vrows: np.ndarray
    groups: list


class _Gains(NamedTuple):
    """The S subproblems whose margins the sweep pass tests at "full"
    (_CCheck._compile_gains), in sweep, step and subproblem order: cols
    (S,) are their sweeps, 0-based, and bounds where each sweep's start,
    then S.  offsets (N,) are their rows' (w - 1) * n + i in a cycle's
    states, w the sweep: subproblem j's are offsets[subs[j]:subs[j + 1]].
    terms (3, T) are the term rows' places among the N, their pairs' in
    the pass and those of their conjugates before the sweep among the r at
    the cycle's start and the pairs.  blocks are the blocks' places, whose
    last rows govern them; the others are outer sets.
    """
    cols: np.ndarray
    bounds: np.ndarray
    offsets: np.ndarray
    subs: np.ndarray
    terms: np.ndarray
    blocks: np.ndarray


def _gather(A, at, k, K):
    """A.take of the flat indices at, which hold the same rows of K cycles
    in cycle-major order, for the first k cycles, as (k, rows, d)."""
    P = len(at) // K
    return A.take(at[:k * P], axis=0).reshape(k, P, A.shape[1])


class _Log(NamedTuple):
    """A checked batch of cycles of one pattern, as run writes it.

    rows[:n] are the batch's start state; then cycle c's sweeps fill P rows
    from n + c * P on, sweep w the new values of the rows it declares
    (_CSweep.written) from offs[w - 1] on (_CCheck).  sums[s] is the row
    sum of state s.
    """
    rows: np.ndarray
    sums: np.ndarray


class _Index(NamedTuple):
    """The flat indices a check pass reads for K cycles (_CCheck._build).

    Each is cycle-major, into the rows of the batch's log or into its sums,
    and int32: half what intp takes, for as long as the run holds them.
    conj per conjugate group, stat the sums and rows of the stat pairs, quad
    the quadratic rows of every state after a sweep (None at m = 0), resolve
    the rows before and after each resolve sweep and the sums before those
    that are outer sets, gains those of the gains' rows and sweeps (None
    without), and cert those of _cert_index, or, when the certificates are
    taken from the sweep pass (_CCheck.cert_pairs), only the sums of each
    cycle's last state.
    """
    K: int
    conj: list
    stat: tuple
    quad: np.ndarray
    resolve: tuple
    gains: tuple
    cert: tuple


class _CCheck:
    """The checks of one cycle's sweep list, compiled once like _CSweep.

    check evaluates them for a batch of k consecutive cycles of the pattern
    from its _Log: one sweep pass over all k cycles for the per-sweep checks
    (ascent, margin, stationarity of exact outer sets, and at
    check_level="full" each subproblem's own margin) and one cycle pass for
    the certificates, and at "full" a re-solve of each exact sweep.  A cycle's
    per-sweep checks cover the sweeps compiled exact (exact), but for those
    whose pair fell back to the nested loop in that cycle (_exact).  The
    freeze equalities of the plan, which run keeps valid, are checked here,
    once: a sweep writes only the rows it declares (_assert_unfrozen).
    Compiled here:
      written, offs, P   per sweep the rows it declares and where they
              start in a cycle's P log rows
      conj    one (positions, stack, offsets) gather per term kind over the
              (sweep w, term row i) pairs that the sweeps write, in sweep
              order; positions index the array of their new conjugates and
              offsets are the pairs' w * n + i
      layers  (mask, positions) per k for the rows' k-th writes in the
              cycle: mask[w - 1, i] holds from the sweep of row i's k-th
              write on, and positions[i] is that write's pair
      last    the pair of each term row's last write, which holds its
              conjugate at the cycle's end: a valid plan writes every term
              row in every cycle (condition (A))
      stat_*  the (sweep, row) pairs of the exact outer sets in sweep and
              index order, with stacks for their term rows
      layout  the certificate layout, None when cert_pairs is not
      cert_pairs  when every index is last touched by an exact outer
              solve, the places of those stat pairs in index order
              (_cert_pairs), a slice when they run up by one, from which
              the certificates are taken (_certificates); else None
      exact_sweeps  at check_level="full" the compiled exact sweeps w, which
               are re-solved, else {}; gains the subproblems of those with
               several, whose margins the sweep pass tests (_Gains), or None
      resolve  those that the batch re-solves at once (_Resolve), or None;
               any other, or one that does not match its state there, is
               re-solved by itself (_resolve_sweep)
      cycle_bytes  what a batch holds per cycle, which run fits into
               _CHECK_BATCH_BYTES: the cycle's log rows and sums, its rows
               of the conjugate table and the int32 entries it adds to the
               indices (_build)

    The passes read the batch's states through flat indices (_Index), each
    row where it was last written: a row that no sweep of the cycle has
    written yet is read where the cycle before wrote it last, or in the
    batch's start state.  They are built at the first check, for its k
    cycles, and again only when a later batch is larger (_index); a smaller
    batch reads their first rows.
    """

    def __init__(self, sweeps, spec, c_analysis, shared, full):
        # the index sets are gathered as lists, each made an array once:
        # most sweeps write one row, and the checks compile on every run
        r = spec.r
        self.W = W = len(sweeps)
        self.exact = np.array([cs.exact for cs in sweeps], dtype=bool)
        pw, pi, sw, si = [], [], [], []
        # the declared (sweep, row) pairs in log order
        dw, di = [], []
        self.offs = offs = [0]
        for w, cs in enumerate(sweeps, start=1):
            for step in cs.steps:
                rows = step.conj_rows.tolist()
                pw += [w] * len(rows)
                pi += rows
            if cs.exact:
                sw += [w] * len(cs.outer1)
                si += [i1 - 1 for i1 in cs.outer1]
            idx = cs.written
            rows = (range(idx.start, idx.stop) if isinstance(idx, slice)
                    else idx.tolist())
            dw += [w] * len(rows)
            di += rows
            offs.append(len(di))
        self.n_pairs = len(pi)
        self.n = n = spec.n_duals
        self.r = r
        self.written = [cs.written for cs in sweeps]
        self.P = offs[-1]
        _assert_unfrozen(c_analysis, dw, di)
        # the declared pairs sorted by row and sweep as keys i * (W + 1) + w,
        # with their log places (_locate)
        dw, di = np.array(dw, dtype=np.intp), np.array(di, dtype=np.intp)
        self.places = np.lexsort((dw, di))
        self.keys = (di * (W + 1) + dw)[self.places]
        offsets = np.array(pw, dtype=np.intp) * n + np.array(pi, dtype=np.intp)
        self.conj = [(pos, stack, offsets[pos])
                     for pos, stack in _pair_stacks(spec.terms, pi, shared)]
        # per layer k, the sweep of each row's k-th write (W for none, so
        # that the row's mask column stays False) and that write's pair
        layers = []
        writes = [0] * r
        last = [0] * r
        for k, (w, i) in enumerate(zip(pw, pi)):
            if writes[i] == len(layers):
                layers.append(([W] * r, [0] * r))
            first, pos = layers[writes[i]]
            first[i] = w - 1
            pos[i] = last[i] = k
            writes[i] += 1
        sweep = np.arange(W)[:, None]
        self.layers = [(sweep >= np.array(first, dtype=np.intp),
                        np.array(pos, dtype=np.intp)) for first, pos in layers]
        self.last = np.array(last, dtype=np.intp)
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
        # released first: with the share map's dict beside it, the compile
        # set the memory peak of a mixed-block (800, 50) run
        del pair
        places = _cert_pairs(c_analysis, sw, si)
        self.cert_pairs = None if None in places else _rows_index(places)
        self.stat_groups = [
            (terms[pos], stack) for pos, stack in _pair_stacks(
                spec.terms, self.stat_i[terms].tolist(), shared)]

        self.exact_sweeps = {} if not full else {
            w: cs for w, cs in enumerate(sweeps, start=1)
            if cs.exact and cs.steps}
        self.gains = self._compile_gains(spec, {
            w: cs for w, cs in self.exact_sweeps.items()
            if sum(len(step.subs) for step in cs.steps) > 1}, pw, pi)
        self.resolve = self._compile_resolve(spec, shared)
        self.K = 0   # the batch size the log's indices are built for
        # shared certificates read only the sums of each cycle's last state
        self.layout = (None if self.cert_pairs is not None
                       else _cert_layout(c_analysis, r))
        # what a batch holds per cycle (run): its log rows and sums, its
        # sweep pass's conjugate table and its movements, (P + W)·d + W·(r
        # + 1) + W + G doubles for G governing rows, and the int32 entries
        # of its indices (_build)
        entries = self.n_pairs + 2 * len(sw) + W * (n - r) + 1
        if self.resolve is not None:
            entries += 2 * self.resolve.rows.size + self.resolve.vrows.size
        if self.gains is not None:
            entries += 2 * self.gains.offsets.size + self.gains.cols.size
        if self.layout is not None:   # _cert_index's, but for its fixed rows
            (_, o_p), (_, q_p), blocks = self.layout
            entries += n + o_p.size + q_p.size + sum(
                p.size * (2 * parts.shape[1] + 1) for _, p, _, parts in blocks)
        self.cycle_bytes = 8 * ((self.P + W) * spec.d + W * (r + 2) + sum(
            len(cs.block_js) for cs in sweeps)) + 4 * entries

    def _compile_gains(self, spec, sweeps, pw, pi):
        """The _Gains of the exact sweeps {w: cs}, or None when there are
        none; pw and pi are the sweep pass's (sweep, term row) pairs."""
        if not sweeps:
            return None
        r, n = spec.r, self.n
        pair, before, last = {}, {}, list(range(r))
        for k, (w, i) in enumerate(zip(pw, pi)):
            pair[w, i], before[w, i], last[i] = k, last[i], r + k
        offsets, subs, cols, terms, blocks = [], [0], [], [], []
        for w, cs in sweeps.items():
            for rows, gov in [sub for step in cs.steps for sub in step.subs]:
                blocks.append(gov is not None)
                cols.append(w - 1)
                terms += [(len(offsets) + k, pair[w, i], before[w, i])
                          for k, i in enumerate(rows.tolist()) if i < r]
                offsets += ((w - 1) * n + rows).tolist()
                subs.append(len(offsets))
        cols = np.array(cols, dtype=np.intp)
        return _Gains(
            cols, np.flatnonzero(np.diff(cols, prepend=-1, append=-1)),
            np.array(offsets, dtype=np.intp), np.array(subs, dtype=np.intp),
            np.array(terms, dtype=np.intp).reshape(-1, 3).T,
            np.flatnonzero(blocks))

    def _compile_resolve(self, spec, shared):
        """The exact sweeps of one step with one subproblem whose tier has
        a batched re-solve, as a _Resolve, or None when there are none."""
        tiers = {}   # tier -> [(w, step), ...]
        for w, cs in self.exact_sweeps.items():
            step = cs.steps[0]
            tier = _TIERS[step.solve]
            if len(cs.steps) == 1 and len(step.subs) == 1 and tier.group:
                tiers.setdefault(tier, []).append((w, step))
        at, rows, starts, vrows, groups = {}, [], [], [], []
        for tier, sweeps in tiers.items():
            for pos, written, item in tier.group(
                    spec, [step for _, step in sweeps], shared):
                outer = sweeps[pos[0]][1].subs[0][1] is None
                groups.append((tier.kernel, len(at), len(pos), len(rows),
                               len(written[0]), len(vrows) if outer else None,
                               item))
                for p, sub in zip(pos, written):
                    w = sweeps[p][0]
                    at[w] = len(at)
                    starts.append(len(rows))
                    rows += [(w - 1) * self.n + i for i in sub]
                    if outer:
                        vrows.append(w - 1)
        if not at:
            return None
        return _Resolve(at, *(np.array(a, dtype=np.intp)
                              for a in (rows, starts, vrows)), groups)

    def _index(self, k):
        """The log's flat indices for batches of k cycles, built unless they
        are built for at least that many."""
        if k > self.K:
            self.K = k
            self.at = self._build(k)
        return self.at

    def _build(self, k):
        """The _Index of k cycles.

        Every index is first an offset w * n + i of one cycle's states, row
        i of state w; state w of cycle c is state c * W + w of the batch.
        """
        W, n = self.W, self.n
        c = np.arange(k, dtype=np.intp)[:, None]

        # stored as int32, half the bytes of intp, for as long as the run
        # holds them; take converts one at a time while it gathers
        def sums(w):
            return (c * W + w).astype(np.int32).ravel()

        def rows(o):
            return self._locate(c, o.ravel()).astype(np.int32).ravel()

        rs, g = self.resolve, self.gains
        quad = None
        if self.r < n:
            quad = rows(np.arange(1, W + 1)[:, None] * n
                        + np.arange(self.r, n))
        return _Index(
            k, [rows(offsets) for _, _, offsets in self.conj],
            (sums(self.stat_w), rows(self.stat_w * n + self.stat_i)), quad,
            None if rs is None else (rows(rs.rows), rows(rs.rows + n),
                                     sums(rs.vrows)),
            None if g is None else (rows(g.offsets), rows(g.offsets + n),
                                    sums(g.cols)),
            sums(np.array([W])) if self.layout is None
            else _cert_index(self.layout, n, W, k, rows, sums))

    def _locate(self, c, o):
        """The log rows of the offsets o, w * n + i for row i of state w of
        a cycle, in the cycles c, an int or a column: where each row was
        last written at or before state w, else last in the cycle before,
        else in the batch's start state."""
        n, W1 = self.n, self.W + 1
        w, i = np.divmod(o, n)
        keys = self.keys
        t = np.searchsorted(keys, i * W1 + w, side="right") - 1
        back = (t < 0) | (keys[t] // W1 != i)
        t = np.where(back, np.searchsorted(keys, (i + 1) * W1) - 1, t)
        written = (t >= 0) & (keys[t] // W1 == i)
        cc = c - back
        return np.where(written & (cc >= 0), n + cc * self.P + self.places[t],
                        i)

    def _state(self, log, s, out):
        """State s of the batch in log, rebuilt into out."""
        if not s:   # the batch's start
            out[...] = log.rows[:self.n]
            return out
        c, w = divmod(s, self.W)
        return log.rows.take(self._locate(c, w * self.n + np.arange(self.n)),
                             axis=0, out=out)

    def _cycle_log(self, log, c):
        """Cycle c of the batch in log as a log of its own."""
        s = c * self.W
        rows = np.empty((self.n + self.P, log.rows.shape[1]))
        self._state(log, s, rows[:self.n])
        start = self.n + c * self.P
        rows[self.n:] = log.rows[start:start + self.P]
        return _Log(rows, log.sums[s:])

    def _stationarity(self, spec, R, V, at, k, new):
        """The points x0 - v of every stat pair's sweep and their
        fenchel_residual there, in each of k cycles, as (k, pairs, d) and
        (k, pairs); R holds the log's rows, V their row sums."""
        X = _gather(V, at.stat[0], k, at.K)
        np.subtract(spec.x0, X, out=X)
        Z = _gather(R, at.stat[1], k, at.K)
        pos, idx = self.stat_terms
        if len(self.stat_groups) == 1 and pos.size == X.shape[1]:
            # one group of every pair holds them in order: nothing to place
            H = self.stat_groups[0][1].value(X)
            Cv = new[:, idx]
        else:
            H = np.empty(X.shape[:2])
            Cv = np.empty(X.shape[:2])
            for rows, stack in self.stat_groups:
                H[:, rows] = stack.value(X[:, rows])
            Cv[:, pos] = new[:, idx]
            q = self.stat_quads
            H[:, q], Cv[:, q] = _quad_parts(spec, X[:, q], Z[:, q])
        return X, _fenchel(H, Cv, _dots(X, Z))

    def _sweep_pass(self, spec, R, V, at, k, conj0, F0, margins, exact):
        """The per-sweep values of the first k cycles, as a _Pass.

        R and at are the log's rows and their indices (_index), V the row
        sums of the states, conj0 and F0 the conjugates and objective at the
        batch's start, margins[c] the squared-movement margins of cycle c's
        sweeps and exact (W,) or (k, W) the sweeps that ran exact tiers only
        (_exact).
        """
        W, r = self.W, spec.r
        if len(self.conj) == 1:   # one group of every pair, in order
            new = self.conj[0][1].support(_gather(R, at.conj[0], k, at.K))
        else:
            new = np.empty((k, self.n_pairs))
            for (pos, stack, _), idx in zip(self.conj, at.conj):
                new[:, pos] = stack.support(_gather(R, idx, k, at.K))
        stat_X, resid = (self._stationarity(spec, R, V, at, k, new)
                         if self.stat_w.size else (None, np.empty((k, 0))))
        if self.cert_pairs is None:
            stat_X = None   # let go: only shared certificates read it
        starts = np.empty((k, r))
        starts[0] = conj0
        if k > 1:   # each cycle starts with the last writes of the one before
            starts[1:] = new[:-1, self.last]
        # the conjugate table in chunks of sweeps: row (c, w - a - 1) holds
        # a leading 0.0 and the r conjugates after sweep w of cycle c.  The
        # running sums go along its rows, so each row's sum has the bits of
        # one table's
        total = np.empty((k, W))
        step = max(1, _TABLE_CHUNK_BYTES // (k * (r + 1) * 8))
        for a in range(0, W, step):
            b = min(W, a + step)
            C = np.empty((k, b - a, r + 1))
            C[..., 0] = 0.0
            C[..., 1:] = starts[:, None]
            for mask, pos in self.layers:
                np.copyto(C[..., 1:], new[:, pos][:, None], where=mask[a:b])
            if b == W:
                ends = C[:, -1, 1:].copy()
            # the running sums overwrite C, which is then let go
            total[:, a:b] = np.add.accumulate(C, axis=2, out=C)[..., -1]
            del C
        total = total.ravel()
        if spec.m:
            Q = _gather(R, at.quad, k, at.K).reshape(k * W, spec.m, spec.d)
            total = total + _quad_conjugates(spec, Q)
            del Q
        F = _objectives(spec, V[1:k * W + 1], total)
        F_prev = np.concatenate(([F0], F[:-1])).reshape(k, W)
        F = F.reshape(k, W)
        decreased = exact & (F < F_prev - ASCENT_TOL)
        short = exact & (F < F_prev + margins - SWEEP_GAIN_TOL)
        stat_bad = resid > CLAIM_TOL
        if exact.ndim > 1:
            stat_bad &= exact[:, self.stat_w - 1]
        bad = decreased | short
        c, j = np.nonzero(stat_bad)
        bad[c, self.stat_w[j] - 1] = True
        sub_short = None
        if self.gains is not None:
            gain, margin = self._gains(spec, R, V, at, k, new, starts)
            cols = self.gains.cols
            sub_short = (gain < margin - SWEEP_GAIN_TOL) & exact[..., cols]
            c, j = np.nonzero(sub_short)
            bad[c, cols[j]] = True
        return _Pass(F, F_prev, bad, decreased, short, stat_bad, stat_X,
                     resid, ends, exact, sub_short)

    def _gains(self, spec, R, V, at, k, new, starts):
        """check_level=full: the gain and margin (k, S) of each of gains'
        subproblems in k cycles, applied in order with their logged rows;
        R, V and at are _sweep_pass's, new (k, pairs) its pairs' conjugates
        and starts (k, r) those at each cycle's start.

        A row o that moves by D changes a copy's quadratic conjugate by <o +
        x0, D> + ||D||^2 / 2, and rows that move v by M from v' change
        ||x0 - v||^2 / 2 by ||M||^2 / 2 - <x0 - v', M>.  A subproblem gains
        minus these and its term rows' conjugates' changes; its margin is
        ||M||^2 / 2 for an outer set, ||D||^2 / 2 of the governing row for a
        block.  A gain that is not finite compares false, as an objective
        does in the pass, which flags that state.
        """
        g = self.gains
        x0 = spec.x0
        with np.errstate(all="ignore"):
            O = _gather(R, at.gains[0], k, at.K)
            D = _gather(R, at.gains[1], k, at.K)
            D -= O
            O += x0
            e = _dots(O, D) + 0.5 * _dots(D, D)   # as a copy row's
            del O
            pos, now, then = g.terms
            e[:, pos] = new[:, now] - np.concatenate((starts, new), 1)[:, then]
            M = np.add.reduceat(D, g.subs[:-1], axis=1)
            # x0 - v before each subproblem
            Y = x0 - _gather(V, at.gains[2], k, at.K)
            for s, t in zip(g.bounds[:-1], g.bounds[1:]):
                Y[:, s + 1:t] -= np.cumsum(M[:, s:t - 1], axis=1)
            margin = 0.5 * _dots(M, M)
            gain = _dots(Y, M) - margin - np.add.reduceat(e, g.subs[:-1], 1)
            D = D[:, g.subs[1:][g.blocks] - 1]   # governing rows
            margin[:, g.blocks] = 0.5 * _dots(D, D)
        return gain, margin

    def _exact(self, approx):
        """The sweeps that ran exact tiers only in each cycle of a batch, as
        (W,) when no compiled exact tier fell back, else (k, W); approx
        are the cycles' _Pending.approx, a tuple of the sweeps that fell
        back where any did."""
        if not any(type(a) is tuple for a in approx):
            return self.exact
        exact = np.tile(self.exact, (len(approx), 1))
        for c, ws in enumerate(approx):
            if type(ws) is tuple:
                exact[c, [w - 1 for w in ws]] = False
        return exact

    def _resolved(self, spec, R, V, at, k):
        """check_level=full: the batch's re-solve of the sweeps in resolve,
        for its first k cycles at once; returns matched (k, B).

        Each sweep solves from the state before it, as the sweep did: each
        group in one call of its tier's kernel.  Sweep b of cycle c matched
        when its solver had a closed form and every row it writes is
        bitwise its state's, which its re-solve by itself (_resolve_sweep)
        would then find too.  R, V and at are those of _sweep_pass.
        """
        rs = self.resolve
        before, after, sums_before = at.resolve
        # the rows before each sweep, re-solved in place once read
        X = _gather(R, before, k, at.K)
        V0 = _gather(V, sums_before, k, at.K)
        matched = np.ones((k, len(rs.starts)), dtype=bool)
        for kernel, b, count, row, size, place, item in rs.groups:
            ok = kernel(spec, X[:, row:row + count * size].reshape(
                k, count, size, spec.d),
                None if place is None else V0[:, place:place + count], item)
            if ok is not None:
                matched[:, b:b + count] = ok
        del V0
        X1 = _gather(R, after, k, at.K)   # the states after the sweeps
        differs = (X.view(np.int64) != X1.view(np.int64)).any(axis=2)
        # a sweep matched when none of its rows differs
        matched &= ~np.logical_or.reduceat(differs, rs.starts, axis=1)
        return matched

    def _raise_sweeps(self, spec, log, p, c, n, params, upto=None,
                      matched=None):
        """Raise the first failing sweep of cycle c of the pass p and of the
        batch in log, cycle n of the run, among its sweeps 1..upto (default
        all).

        At check_level="full" the exact sweeps before the failing one are
        re-solved first (_resolve_sweep), but those that matched in the
        batch's _resolved and those whose exact tier fell back in this
        cycle (p.exact).  A sweep's checks fail in this order: ascent,
        margin, stationarity, its subproblems' own margins.
        """
        bad = p.bad[c]
        exact = p.exact if p.exact.ndim == 1 else p.exact[c]
        last = self.W if upto is None else upto
        first = int(bad[:last].argmax()) + 1 if bad[:last].any() else last + 1
        z = at = None   # the state after the last sweep re-solved, state at
        for w in self.exact_sweeps:
            if w >= first:
                break
            b = None if matched is None else self.resolve.at.get(w)
            if b is not None and matched[c, b] or not exact[w - 1]:
                continue
            s = c * self.W + w
            if at != s - 1:
                z = self._state(log, s - 1, np.empty((self.n, spec.d)))
            self._resolve_sweep(spec, log, c, w, params, n, z)
            at = s
        if first > last:
            return
        j = first - 1
        stat = np.flatnonzero(p.stat_bad[c] & (self.stat_w == first))
        if p.decreased[c, j]:
            why = (f"dual objective decreased by"
                   f" {p.F_prev[c, j] - p.F[c, j]:.3e}")
        elif p.short[c, j]:
            why = "ascent fell short of the quadratic margin"
        elif stat.size:
            why = (f"stationarity residual {p.resid[c, stat[0]]:.3e} at index"
                   f" {self.stat_i[stat[0]] + 1}")
        else:   # a subproblem of the sweep fell short (_gains)
            sub = np.flatnonzero(p.sub_short[c] & (self.gains.cols == j))[0]
            why = (f"a {'block' if sub in self.gains.blocks else 'outer'}"
                   f" subproblem gained less than its quadratic margin")
        raise EngineInvariantError(f"cycle {n} sweep {first}: {why}")

    def _resolve_sweep(self, spec, log, c, w, params, n, z):
        """check_level=full: sweep w of cycle c of the batch in log, cycle
        n of the run, solved again from z, the state before it, which is
        left the state after it.  Each step solves from the state that the
        logged rows of the steps before it leave, with its sum; their rows
        must agree with the logged ones within 1e-9 of the largest entry of
        the state after the sweep, or of 1.  Nothing is priced (_gains).
        """
        cs = self.exact_sweeps[w]
        start = self.n + c * self.P
        logged = log.rows[start + self.offs[w - 1]:start + self.offs[w]]
        snap = _read_only(z)
        v = log.sums[c * self.W + w - 1]
        out = np.empty(logged.shape)
        declared = np.arange(self.n)[cs.written]   # sorted: rows to places
        for k, step in enumerate(cs.steps):
            if k:   # the state that the logged rows of the step before leave
                rows = np.concatenate([sub for sub, _ in
                                       cs.steps[k - 1].subs])
                z[rows] = logged[declared.searchsorted(rows)]
                v = z.sum(axis=0)
            step.solve(spec, snap, v, step.arg, params, out)
        out -= logged
        diff = float(np.abs(out, out=out).max())
        z[cs.written] = logged   # the state after the sweep
        # 1e-9 of at least 1: its largest entry is read only past that
        if diff > 1e-9 and diff > 1e-9 * max(1.0, float(np.abs(z).max())):
            raise EngineInvariantError(
                f"cycle {n} sweep {w}: sequential replay disagrees with the"
                f" snapshot execution")

    def check(self, spec, log, conj, F, margins, batch, params, groups,
              trace, gap):
        """Check the batch's cycles in cycle order; returns (conj, F, certs,
        stop).

        batch lists the _Pending cycles held in log; conj and F are the
        conjugates and objective at its start, margins[c] the
        squared-movement margins of cycle c's sweeps, groups the stacks of
        all r terms, trace the run's _Trace and gap the run's _GapRule, or
        None.  Each cycle fails as a check made cycle by cycle would: its
        sweeps first (each re-solved at check_level="full", in one re-solve
        of the batch where _resolved can, else one at a time), then its
        end-of-cycle objective against the last one in trace.F when its
        ascent flag is set, and, unless it is approximate, its certificate
        bounds.  Then the gap rule tests the cycle, with the objective the
        pass found: the first whose gap closes ends the batch, and stop is
        its place in batch, else None; no later cycle of the batch raises.
        When a pass over the whole batch raises, the cycles are checked one
        at a time, so that the first cycle's error comes first; when the
        batched re-solve raises, every sweep is re-solved by itself.  Each
        cycle's objectives and its largest certificate distance are
        appended to the trace's columns.  Returns the conjugates and
        objective at the end of the last cycle checked and its certificate
        arrays.
        """
        k = len(batch)
        V = log.sums
        certs = matched = None
        try:
            R, at = log.rows, self._index(k)
            # the re-solve first: the pass's points, which a shared cycle's
            # certificates keep, are then not held beside its temporaries
            if (self.resolve is not None
                    and k * len(self.resolve.at) >= _RESOLVE_MIN):
                try:
                    matched = self._resolved(spec, R, V, at, k)
                except Exception:   # the per-sweep re-solve raises it in order
                    pass
            p = self._sweep_pass(spec, R, V, at, k, conj, F,
                                 margins[:k, :self.W],
                                 self._exact([c.approx for c in batch]))
            if k > 1:
                certs = self._certificates(spec, R, V, at, k, groups, p)
        except Exception:   # an oracle's, or a warning raised as an error
            if k == 1:
                raise
            for c, cyc in enumerate(batch):
                conj, F, certs, stop = self.check(
                    spec, self._cycle_log(log, c), conj, F, margins[c:],
                    [cyc], params, groups, trace, gap)
                if stop is not None:
                    return conj, F, certs, c
            return conj, F, certs, None
        if gap is not None:   # the cycle ends' sums
            prices = gap.price(V[self.W:k * self.W + 1:self.W])
        # the cycles that no sweep check or re-solve can fail, found for the
        # whole batch; the others go through _raise_sweeps
        quiet = ~p.bad.any(axis=1)
        if self.exact_sweeps:
            if matched is None or matched.shape[1] < len(self.exact_sweeps):
                quiet[:] = False
            else:
                quiet &= matched.all(axis=1)
        # the objectives at the cycles' ends: the sweeps' go into the trace
        # as doubles, so that no float of theirs is alive at the gap test
        F_ends = p.F[:, -1].tolist()
        flagged = None
        F_list = trace.F
        for c, cyc in enumerate(batch):
            if not quiet[c]:
                self._raise_sweeps(spec, log, p, c, cyc.n, params,
                                   matched=matched)
            F = F_ends[c]
            if cyc.ascent and F_list and F < F_list[-1] - ASCENT_TOL:
                raise EngineInvariantError(
                    f"cycle {cyc.n}: end-of-cycle objective decreased")
            # one cycle alone: the certificates after the checks before
            if certs is None:
                certs = self._certificates(spec, R, V, at, k, groups, p)
            if flagged is None:
                X, res, fen = certs
                # _raise_certificates' test, for every cycle at once
                gamma = np.array([trace.gamma[cyc.n - 1] for cyc in batch])
                flagged = ((res > (gamma + CERT_SLACK)[:, None])
                           | (fen > CLAIM_TOL)).any(axis=1)
                res_max = res.max(axis=1).tolist()
            if flagged[c] and not cyc.approx:
                _raise_certificates(res[c], fen[c], gamma[c], cyc.n)
            trace.cert.append(res_max[c])
            F_list.append(F)
            if trace.sweep_F is not None:
                trace.sweep_F.frombytes(p.F[c].tobytes())
            if gap is not None and gap.closes(prices, c, F):
                return p.ends[c], F, (X[c], res[c], fen[c]), c
        # the last cycle's
        return p.ends[-1], F, (X[-1], res[-1], fen[-1]), None

    def _certificates(self, spec, R, V, at, k, groups, p):
        """The certificates of k cycles, as _certificates gives them, from
        the log's rows R and sums V and the sweep pass p.

        When every index is last touched by an exact outer solve (cert_pairs),
        each is the stationarity pair of that touch's: its point is the same
        x0 - v, and its row and conjugate at the cycle's end are the ones
        that touch wrote, so its Fenchel residual has the pair's bits too.
        Only the distances to each cycle's end iterate are computed then.
        """
        if self.cert_pairs is None:
            return _certificates(spec, R, V, at.cert, k, groups, p.ends)
        X = p.stat_X[:, self.cert_pairs]
        D = X - (spec.x0 - _gather(V, at.cert, k, at.K))
        return X, np.sqrt(_dots(D, D)), p.resid[:, self.cert_pairs]

    def check_sweeps(self, spec, log, c, z, v, conj, F, margins, n, params,
                     fallbacks, upto):
        """The per-sweep checks of sweeps 1..upto of cycle c of the batch in
        log, cycle n of the run; z and v are the state after sweep upto and
        its sum, which the cycle's later sweeps are taken to leave as they
        are, margins are its sweeps' squared-movement margins and fallbacks
        its sweeps whose exact tiers fell back (_Pending.approx)."""
        one = self._cycle_log(log, c)
        for w in range(upto + 1, self.W + 1):
            one.rows[self.n + self.offs[w - 1]:self.n + self.offs[w]] = z[
                self.written[w - 1]]
        one.sums[upto + 1:self.W + 1] = v
        p = self._sweep_pass(spec, one.rows, one.sums, self._index(1), 1,
                             conj, F, margins[None, :self.W],
                             self._exact([fallbacks]))
        self._raise_sweeps(spec, one, p, 0, n, params, upto)


# ---------------------------------------------------------------------------
# cycle loop
# ---------------------------------------------------------------------------

def _term_sums(spec, groups, V):
    """The sums of the term values at every x = x0 - V[k], as a list, and
    the values (k, r).

    Each stack takes every point in one call, and each point's values are
    summed in term order from +0.0, as spec.primal_value sums them: every
    sum is bitwise that of the scalar oracles.
    """
    H = np.empty((len(V), spec.r + 1))
    H[:, 0] = 0.0
    terms = H[:, 1:]
    P = (spec.x0 - V)[:, None]   # each point against every row of a stack
    for rows, stack in groups:
        terms[:, rows] = stack.value(P)
    return np.add.accumulate(H, axis=1)[:, -1].tolist(), terms


class _GapRule:
    """The gap stop rule, tested where a batch's cycle ends are priced: in
    the cycle loop of _CCheck.check with checks on, of _flush_cycle_ends
    with checks off.

    A cycle closes its gap when the primal value at its end's x = x0 - v
    and its objective are finite and differ by at most stop_gap.  closes
    tests each cycle, in cycle order, once its own checks have passed, by
    one procedure whatever the batch's size.  A cycle first asks the term
    hint, when there is one, and its value is +inf when that term's is
    (_outside); the hint does not change before the terms are evaluated, so
    it is asked at every cycle end of the batch at once.  At the first
    cycle that goes on, the term values of all the batch's cycle ends are
    taken in one stacked call per term kind (_term_sums), and the quadratic
    part is added only where the terms' sum is finite.  When a call over
    several cycle ends raises, this cycle and every later one of the batch
    take the same procedure on their own row, which raises what a batch of
    one would: so the first cycle's error comes first.  After a cycle
    outside a set the hint is a term at +inf there, itself when it is, else
    the first; after a feasible x it is None: the next point is usually
    feasible too, and the hint's value would be taken again in its stack.
    """

    __slots__ = ("spec", "groups", "stop_gap", "hint", "stack")

    def __init__(self, spec, groups, stop_gap):
        self.spec, self.groups, self.stop_gap = spec, groups, stop_gap
        self.hint = 0   # the term asked first; None after a feasible x
        self.stack = None   # (hint, a one-row stack of its term)

    def price(self, V):
        """closes' state for a batch whose cycle ends' sums are the rows of
        V, the caller's, so that it goes with the batch: [V, sums, terms,
        outside], the stacked call's sums and values (_term_sums) None
        until taken, sums False once each cycle takes its own row, and
        outside the hint's test at every cycle end (_outside), None until
        taken."""
        return [V, None, None, None]

    def _outside(self, V):
        """Whether the hint term's value is +inf at each x0 - V[c], as a
        list.  One cycle end asks the term's own value, which is cheaper
        than a stack's call; more ask a one-row stack of the term in one
        value call.  The stack is kept while the hint stays, which saves
        building it per batch, and dropped with the hint at a feasible x,
        so that a run near its stop does not hold it."""
        spec, hint = self.spec, self.hint
        if len(V) == 1:
            return [spec.terms[hint].value(spec.x0 - V[0]) == _INF]
        if self.stack is None or self.stack[0] != hint:
            self.stack = (hint, stack_terms(spec.terms, [hint])[0][1])
        P = (spec.x0 - V)[:, None]
        return (self.stack[1].value(P)[:, 0] == _INF).tolist()

    def closes(self, prices, c, F):
        """Whether the gap of the batch's cycle c, whose objective is F,
        closes; prices are price's for the batch."""
        spec, hint = self.spec, self.hint
        V, sums, terms, outside = prices
        if sums is None:
            try:
                if hint is not None:
                    if outside is None:   # the hint stays until _term_sums
                        outside = prices[3] = self._outside(V)
                    if outside[c]:
                        return False
                sums, terms = prices[1:3] = _term_sums(spec, self.groups, V)
            except Exception:   # an oracle's, or a warning raised as an error
                if len(V) == 1:
                    raise
                sums = prices[1] = False
        if sums is False:   # each cycle on its own row, in cycle order
            return self.closes(self.price(V[c:c + 1]), 0, F)
        if sums[c] == _INF:
            # the first term at +inf, unless the hint is
            row = terms[c]
            if hint is None or row[hint] != _INF:
                vals = row.tolist()
                if _INF in vals:
                    self.hint = vals.index(_INF)
            return False
        primal = sums[c] + (spec.m + 1) * spec.quad_value(spec.x0 - V[c])
        if not math.isfinite(primal):
            return False
        self.hint = self.stack = None
        return math.isfinite(F) and primal - F <= self.stop_gap


def _column(values):
    """A read-only array over the doubles of values, not a copy; setflags,
    as in _read_only."""
    out = np.frombuffer(values)
    out.setflags(write=False)
    return out


def run(spec, plan, params=None, z_init=None, keep_cycle_starts=False):
    """Run the cycle plan until the gap rule or the iteration cap fires.

    A cold, gap-stopped run of the product-space plan on halfspace and ball
    indicators is solved in rounds on a growing working set of its terms
    (_working_set_run); every other run runs the plan on the whole problem.

    Parameters
    ----------
    spec : ProblemSpec
    plan : CyclePlan
        Validated before any work; (A)/(B) failures raise
        InvalidScheduleError.
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
    if not (analysis.valid_A and analysis.valid_B):
        raise InvalidScheduleError("schedule is invalid: " + "; ".join(
            v.message for v in analysis.violations[:3]))
    if not analysis.sqrt_growth_ok:
        warnings.warn(
            "schedule exceeds one index per outer set or two per block;"
            " the sqrt-n growth monitor is advisory only",
            ScheduleGrowthWarning, stacklevel=2)
    if (params.stop_gap is not None and z_init is None
            and not keep_cycle_starts and spec.r >= 2
            and spec.m == spec.r - 1
            and stack_kinds(spec.terms, range(spec.r)).keys()
            <= {HalfspaceStack, BallStack}
            and plan == sched.product_space_schedule(spec.r)):
        return _working_set_run(spec, params, analysis)
    return _run(spec, plan, params, analysis, z_init, keep_cycle_starts)


def _run(spec, plan, params, analysis, z_init, keep_cycle_starts):
    """run's loop: the valid plan, whose analysis is given, on the whole
    problem."""
    if z_init is None:
        z = np.zeros((spec.n_duals, spec.d))
    else:
        z = np.asarray(z_init, dtype=float)   # copied below
        if z.shape != (spec.n_duals, spec.d):
            raise DimensionMismatch(
                f"z_init has shape {z.shape}, expected {(spec.n_duals, spec.d)}")
        if not np.isfinite(z).all():
            raise ValueError("z_init must be finite")

    # analysis.cycles lists the pattern first, then the lead-in cycles
    compiled = [[_CSweep(sw, spec) for sw in c]
                for c in (plan.pattern,) + plan.lead_in]
    n_lead = len(plan.lead_in)
    all_terms = stack_terms(spec.terms, range(spec.r))

    # z, the one state, and its row sum v live in preallocated buffers, v
    # taken once for each snapshot, which the sweeps read through a
    # read-only view of z made once.  A sweep solves into a (cs.size, d)
    # buffer.  Unless it is still, z takes the buffer in place and is summed
    # into the next row of sums, and the sweep records in diffs what it
    # changed in the dual sum and its governing rows, whose movements the
    # cycle takes at its end.
    # With checks on, a batch of up to n_batch cycles of one pattern is
    # logged (_Log): its start state, copied from z when it begins, then per
    # sweep its sum and its declared rows, the sweep's buffer.  With checks
    # off, the buffer is scratch, sums has two rows, and a batch's cycle
    # ends and their sums are copied into ends and ends_v to be priced.
    # A batch is checked, or priced, in one pass when it is full, when the
    # next cycle takes another pattern (checks on), before an exception
    # leaves the loop, and at the end of the run; the gap rule is tested
    # there, at each cycle whose checks have passed, and a cycle whose gap
    # closes ends the run, which is cut back to it (_GapRule).
    sweep_checks = params.check_level in ("sweep", "full")
    max_W = max(map(len, compiled))
    if sweep_checks:
        shared = {tuple(rows.tolist()): stack for rows, stack in all_terms}
        checks = [_CCheck(c, spec, ca, shared, params.check_level == "full")
                  for c, ca in zip(compiled, analysis.cycles)]
        del shared   # the checks hold their stacks
        chk = checks[0]
        n_batch = min(_OBJ_BATCH, params.max_iterations,
                      max(1, _CHECK_BATCH_BYTES // chk.cycle_bytes))
        log = _Log(
            np.empty((spec.n_duals + max(n_batch * chk.P,
                                         *(c.P for c in checks)),
                      spec.d)),
            np.empty((max(n_batch * chk.W, max_W) + 1, spec.d)))
        sums = log.sums
    else:
        n_batch = max(1, min(_OBJ_BATCH, params.max_iterations,
                             _OFF_BATCH_BYTES // (spec.n_duals * spec.d * 8)))
        ends = np.empty((n_batch, spec.n_duals, spec.d))
        ends_v = np.empty((n_batch, spec.d))
        sums = np.empty((2, spec.d))
        scratch = np.empty((max(cs.size for c in compiled for cs in c),
                            spec.d))
        # only the objective and the stop rule read the groups: a contiguous
        # one is read as a view
        all_terms = [(_rows_index(rows.tolist()), stack)
                     for rows, stack in all_terms]
    gap = (None if params.stop_gap is None
           else _GapRule(spec, all_terms, params.stop_gap))
    # how many governing rows the sweeps of a cycle of each pattern move
    n_gov_rows = [sum(len(cs.block_js) for cs in c) for c in compiled]
    # where each pattern's movement sums place them (_sum_layout); the
    # batch's movements, a row of W + n_gov_rows doubles per cycle, and its
    # pattern's layout are set at its first cycle and let go in flush
    layouts, movements, layout = [_sum_layout(c) for c in compiled], None, None
    z = z.copy()   # written in place
    # the screen of the sweeps that would surely be still (_Screen)
    screen = _Screen.of(spec, compiled, all_terms)
    stale = True   # whether the next screened cycle screens again
    snap = _read_only(z)
    slot = 0   # the row of sums that holds v
    v = np.add.reduce(z, axis=0, out=sums[0])
    if sweep_checks:
        # per-row conjugate cache, carried from one batch's end to the next
        conj = stacked_conjugates(all_terms, z, np.empty(spec.r))
        F_state = dual_objective_from(spec, z, conj, v)
    else:
        F_state = dual_objective_z(spec, z, all_terms, v)
    F_initial = F_state

    per_sweep = params.per_sweep_trace
    trace = _Trace([tuple(cs.block_js for cs in c) for c in compiled],
                   per_sweep, sweep_checks)
    F_list = trace.F
    sq_list = array("d")   # the running sums of squared movements
    pending = []   # the cycles that wait for their batch, as _Pending
    cycle_start_duals = [z.copy()] if keep_cycle_starts else None
    cert_arrays = None
    any_approx = False
    stop_reason = "max_iterations"
    stop = None   # (place in its batch, _Pending) of the cycle that stops

    def flush():
        """Sum the pending cycles' movements into the trace, then check
        them, or with checks off price their ends; returns the stop of the
        first whose gap closes, else None."""
        nonlocal conj, F_state, cert_arrays, movements
        batch = pending[:]
        pending.clear()   # so that nothing is evaluated twice after an error
        M = movements[:len(batch)]
        totals, margins = _cycle_sums(
            M, layout, sq_list[-1] if sq_list else 0.0, sweep_checks)
        for column, row in zip((trace.gamma, sq_list, trace.v_diff), totals):
            column.fromlist(row)
        if per_sweep:
            trace.sweep_v_diff.frombytes(M[:, :layout[0]].tobytes())
            trace.moves.frombytes(M[:, layout[0]:].tobytes())
        movements = M = None   # they go before the batch is priced
        if not sweep_checks:
            c = _flush_cycle_ends(spec, all_terms, ends, ends_v, batch,
                                  F_list, gap)
        else:
            cert_arrays = None   # the last batch's go before this one's come
            conj, F_state, cert_arrays, c = chk.check(
                spec, log, conj, F_state, margins, batch, params, all_terms,
                trace, gap)
        return None if c is None else (c, batch[c])

    try:
        for n in range(1, params.max_iterations + 1):
            k = n if n <= n_lead else 0
            sweeps = compiled[k]
            W = len(sweeps)
            c = len(pending)   # the cycle's place in its batch
            if sweep_checks:
                chk = checks[k]
                if not c:
                    slot = 0
                    sums[0] = v
                    v = sums[0]
                    log.rows[:spec.n_duals] = z
                start = spec.n_duals + c * chk.P
            # the differences the cycle's sweeps make to the dual sum, then
            # to their governing rows, zero where a sweep is still; let go at
            # the cycle's end, once their movements are taken
            diffs = np.zeros((W + n_gov_rows[k], spec.d))
            n_gov = W
            if not c:   # the batch's first cycle
                movements, layout = np.empty((n_batch, len(diffs))), layouts[k]
            cycle_approx = False
            fallbacks = ()
            rows = screen.rows[k] if screen else None
            if not rows:
                stale = True
                blocks = None
            else:
                blocks = screen.blocks[k]
                if stale:
                    slack = screen.slacks(z, v)
                    bound = 0.0   # on how far v has moved since the screen
                    stale = False

            w = 0
            while w < W:
                cs = sweeps[w]
                w += 1
                if rows and slack[rows[w - 1]] > bound:
                    # sweeps w..e are surely still (_Screen): each keeps its
                    # z_i's +0.0 bytes, and the bound stays while they are
                    # skipped
                    e = w
                    while e < W and slack[rows[e]] > bound:
                        e += 1
                    screen.skipped += e - w + 1
                    if sweep_checks:
                        # one log row each, consecutive; a checked batch
                        # never wraps slot
                        log.rows[start + chk.offs[w - 1]:
                                 start + chk.offs[e]] = 0.0
                        sums[slot + 1:slot + e - w + 2] = v
                        slot += e - w + 1
                        v = sums[slot]
                    if per_sweep:
                        trace.sweep_approx.frombytes(bytes(e - w + 1))
                    w = e
                    continue
                if blocks:
                    b = blocks[w - 1]
                    if (b is not None and slack[b[0]] > 0.0
                            and screen.holds(slack, b, z)):
                        # the block is surely still (_Screen): it keeps its
                        # rows' bytes, which it logs, and v
                        screen.skipped += 1
                        if sweep_checks:
                            log.rows[start + chk.offs[w - 1]:
                                     start + chk.offs[w]] = z[cs.written]
                            slot += 1
                            sums[slot] = v
                            v = sums[slot]
                        if per_sweep:
                            trace.sweep_approx.append(False)
                        n_gov += len(cs.block_js)
                        continue
                slot = (slot + 1) % len(sums)
                block = (log.rows[start + chk.offs[w - 1]:start + chk.offs[w]]
                         if sweep_checks else scratch[:cs.size])
                exact = _execute_sweep(spec, snap, v, cs, params, block)
                # a sweep that kept its rows' bytes has them in z, scanned
                # when written, as were the rows no sweep wrote
                moved = block.tobytes() != z[cs.written].tobytes()
                if moved and not all_finite(block):
                    if sweep_checks:
                        # the margins of this cycle's sweeps before this
                        # one; no later sweep has moved.  The batch's
                        # cycles before it are checked first, then, unless
                        # a gap closed there, its sweeps before this one
                        margins = _cycle_sums(_movements(diffs)[None],
                                              layouts[k], 0.0, True)[1][0]
                        if pending:
                            stop = flush()
                        if stop is None:
                            chk.check_sweeps(spec, log, c, z, v, conj,
                                             F_state, margins, n, params,
                                             fallbacks, upto=w - 1)
                    raise NonFiniteStateError(
                        f"non-finite duals after cycle {n} sweep {w}")
                if not exact:
                    cycle_approx = True
                    if cs.exact:   # an exact tier fell back (_pair_rows)
                        fallbacks += (w,)
                if per_sweep:
                    trace.sweep_approx.append(not exact)
                if moved:
                    if cs.block_js:
                        np.subtract(block[cs.gov_at], z[cs.gov0],
                                    out=diffs[n_gov:n_gov + len(cs.block_js)])
                    z[cs.written] = block
                    np.subtract(np.add.reduce(z, axis=0, out=sums[slot]), v,
                                out=diffs[w - 1])
                    if rows:
                        bound = screen.moved(slack, k, w, bound,
                                             diffs[w - 1])
                else:   # a still sweep: equal bytes give z.sum's bits
                    sums[slot] = v
                    # with +0.0 term rows, a skip the screen missed
                    if rows and rows[w - 1] != spec.r:
                        stale = stale or not block.any()
                    elif blocks and blocks[w - 1] is not None:
                        stale = stale or not block[blocks[w - 1][2]].any()
                v = sums[slot]
                n_gov += len(cs.block_js)

            movements[c] = _movements(diffs)
            del diffs
            if not sweep_checks:
                ends[c] = z
                ends_v[c] = v

            any_approx = any_approx or cycle_approx
            trace.growth.append(_norm(z) / math.sqrt(n))
            trace.approx.append(cycle_approx)
            # the movement sums, F, and with checks on the objectives of the
            # sweeps and the certificate distance, are appended when the
            # cycle's batch is summed and checked or priced (flush)
            # its ascent is checked when no cycle so far ran approximate
            pending.append(_Pending(
                n, not any_approx, fallbacks or cycle_approx,
                len(trace.sweep_approx) if per_sweep else 0,
                len(trace.moves) + (c + 1) * n_gov_rows[k] if per_sweep
                else 0, screen.skipped if screen else 0))
            if keep_cycle_starts:
                cycle_start_duals.append(z.copy())
            if len(pending) == n_batch or n <= n_lead:
                stop = flush()
                if stop is not None:
                    break
            if n == n_lead:
                # nothing reads the lead-in cycles' sweeps and checks again
                del compiled[1:]
                if sweep_checks:
                    del checks[1:]
    except Exception:
        # an earlier cycle's error, or its closed gap, comes first, as in a
        # cycle-by-cycle check
        if pending:
            stop = flush()
        if stop is None:
            raise
    if pending:
        stop = flush()
    if stop is not None:
        # the run ends at the cycle whose gap closed: its end state, from
        # the log or the batch's copy, and the trace as that cycle left it;
        # F, cert and the sweeps' F were appended up to it
        c, cyc = stop
        stop_reason = "gap"
        if cyc.n < n:   # later cycles ran; else z and v are its own
            if sweep_checks:
                s = (c + 1) * chk.W
                chk._state(log, s, z)
                v = log.sums[s]
            else:
                z, v = ends[c], ends_v[c]
        n = cyc.n
        for column, size in (
                (trace.v_diff, n), (trace.gamma, n), (trace.growth, n),
                (trace.approx, n), (sq_list, n), (cycle_start_duals, n + 1),
                (trace.sweep_v_diff, cyc.sweep_rows),
                (trace.sweep_approx, cyc.sweep_rows),
                (trace.moves, cyc.moves)):
            if column is not None:
                del column[size:]
        any_approx = not cyc.ascent
        if screen:
            screen.skipped = cyc.skipped

    # n is the last cycle run: max_iterations is at least 1
    state = DualState(z.copy(), n=n, w=len(plan.cycle(n)))
    x = spec.x0 - v
    # the buffers go before the result is built
    z = v = snap = sums = ends = ends_v = log = scratch = None
    return RunResult(
        state=state,
        x=x,
        F=F_list[-1],
        F_initial=F_initial,
        stop_reason=stop_reason,
        cycles_run=n,
        cycle_rows=TraceRows(trace.cycle_fields, trace.gamma),
        sweep_rows=(TraceRows(trace.sweep_fields, trace.sweep_v_diff)
                    if per_sweep else None),
        gamma=_column(trace.gamma),
        growth=_column(trace.growth),
        F_per_cycle=_column(F_list),
        sq_diff_cumsum=_column(sq_list),
        cycle_start_duals=cycle_start_duals,
        # a copy of the points, so that the batch's arrays are let go
        certificates=(None if cert_arrays is None else _certificate_list(
            cert_arrays[0].copy(), *cert_arrays[1:])),
        any_approx=any_approx,
        analysis=analysis,
        skipped_sweeps=screen.skipped if screen else 0)


class _Round(NamedTuple):
    """One round of a working-set run (_working_set_run)."""
    W: tuple   # its working set, as 1-based term indices
    result: RunResult   # the run on W's terms
    n0: int   # the cycles of the rounds before it


def _round_fields(rounds, name, alpha):
    """The fields(k) (TraceRows) of a working-set run's cycle or sweep rows,
    name, over those of its rounds: each row's cycle n counts on from the
    rounds before and its F is scaled by alpha."""
    def fields(k):
        for rnd in rounds:
            rows = getattr(rnd.result, name)
            if k >= len(rows):
                k -= len(rows)
                continue
            for n, w, F, *rest in rows.fields(k):
                yield (n + rnd.n0, w, None if F is None else F * alpha,
                       *rest)
            k = 0
    return fields


def _joined(arrays):
    """The arrays end to end, as one read-only array."""
    out = np.concatenate(arrays)
    out.setflags(write=False)
    return out


def _working_set_run(spec, params, analysis):
    """run's product-space plan, cold and stopped by the gap rule, solved
    in rounds on a working set W of its r halfspace and ball terms.

    The intersection C_W of W's sets contains C, so when the projection of
    x0 onto C_W lies in every set outside W, it is the projection x* onto
    C.  Each round runs the classic plan of W on the problem of W's terms
    alone, with no copies (m_W = 0: copies cost cycles), from zero duals,
    to the gap stop_gap/(m + 1): its x then lies within rho =
    sqrt(2·stop_gap/(m + 1)) of W's projection, the bound the whole plan
    promises.  The sets outside W whose slack at x is not surely at least
    rho, by the screen's lower bounds (_slack_bounds), join W and a new
    round starts; when none joins, every outside set holds W's projection,
    which is x*, and the run stops by the gap rule.  W starts as the set of
    the least slack at x0 and only grows, so there are at most r rounds,
    and max_iterations caps their cycles together.

    The result is the whole problem's: its trace rows and columns run over
    every round, each round's objectives scaled by alpha = m + 1, which
    makes them lower bounds on the optimum of the whole problem; x is the
    last round's; the state holds W's term rows times alpha, zeros for the
    other terms, and in each copy row -s/(m + 1) for the sum s of its term
    rows, so that P(x) - F is alpha times the last round's gap; the
    certificates are the last round's, each at its term's index in the
    whole problem; rounds lists each round's W.
    """
    r, m = spec.r, spec.m
    alpha = m + 1
    groups = stack_terms(spec.terms, range(r))
    kappa = _slack_kappa(spec.d)
    rho = math.sqrt(2.0 * params.stop_gap / alpha)

    def slacks(x):
        """Lower bounds on the slacks of the r sets at x, one stacked call
        per kind."""
        T = np.empty(r)
        nx = math.sqrt(x.dot(x))
        with np.errstate(all="ignore"):   # an overflow admits its set
            for rows, stack in groups:
                T[rows] = _slack_bounds(stack, x, nx, kappa)
        return T

    W = [int(np.argmin(slacks(spec.x0)))]   # 0-based, ascending
    rounds = []
    left = params.max_iterations
    stop_reason = "max_iterations"
    while True:
        plan = sched.classic_dykstra_schedule(len(W))
        sub = ProblemSpec(spec.x0, [spec.terms[i] for i in W])
        # replace validates anew; workers, ignored, is 1 to warn no more
        p = replace(params, max_iterations=left, workers=1,
                    stop_gap=params.stop_gap / alpha)
        res = _run(sub, plan, p, sched.validate(plan, len(W), 0), None, False)
        rounds.append(_Round(tuple(i + 1 for i in W), res,
                             params.max_iterations - left))
        left -= res.cycles_run
        if res.stop_reason != "gap":
            break
        T = slacks(res.x)
        T[W] = _INF
        join = np.flatnonzero(~(T >= rho)).tolist()   # NaN joins
        if not join:
            stop_reason = "gap"
            break
        if not left:
            break
        W = sorted(W + join)

    last = rounds[-1]
    z = np.zeros((spec.n_duals, spec.d))
    z[W] = alpha * last.result.state.z
    np.divide(z[:r].sum(axis=0), -alpha, out=z[r:])   # each copy row
    sq, total = [], 0.0   # the running sums go on from round to round
    for rnd in rounds:
        sq.append(rnd.result.sq_diff_cumsum + total)
        total = float(sq[-1][-1])
    results = [rnd.result for rnd in rounds]
    gamma = _joined([res.gamma for res in results])
    return RunResult(
        state=DualState(z, n=len(gamma), w=last.result.state.w),
        x=last.result.x,
        F=last.result.F * alpha,
        F_initial=rounds[0].result.F_initial * alpha,
        stop_reason=stop_reason,
        cycles_run=len(gamma),
        cycle_rows=TraceRows(_round_fields(rounds, "cycle_rows", alpha),
                             gamma),
        sweep_rows=(TraceRows(
            _round_fields(rounds, "sweep_rows", alpha),
            range(sum(len(res.sweep_rows) for res in results)))
            if params.per_sweep_trace else None),
        gamma=gamma,
        growth=_joined([res.growth for res in results]),
        F_per_cycle=_joined([res.F_per_cycle * alpha for res in results]),
        sq_diff_cumsum=_joined(sq),
        cycle_start_duals=None,
        certificates=(None if last.result.certificates is None else [
            replace(c, index=last.W[c.index - 1])
            for c in last.result.certificates]),
        any_approx=any(res.any_approx for res in results),
        analysis=analysis,
        skipped_sweeps=sum(res.skipped_sweeps for res in results),
        rounds=[rnd.W for rnd in rounds])


# ---------------------------------------------------------------------------
# literal simultaneous-projection reference
# ---------------------------------------------------------------------------

def product_space_reference(spec, z_init=None, n_cycles=50):
    """Plain averaged-projection Dykstra loop, kept separate from the engine.

    Works on the r indicator terms only; returns the list [z^1, ..., z^{N+1}]
    of (r, d) dual arrays, where z^{n+1} is the state after n loop bodies
    and N = n_cycles, a count of at least 0 (terms._as_count).  The primal
    iterate at step n is x0 - mean(z^n, axis=0).
    """
    n_cycles = _as_count("n_cycles", n_cycles, 0)
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
        if not np.isfinite(z).all():
            raise ValueError("z_init must be finite")
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
