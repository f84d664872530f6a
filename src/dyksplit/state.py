"""Problem data, dual state, and duality diagnostics.

The primal problem is the best-approximation form: r arbitrary supported terms
plus m+1 equally weighted quadratic pieces that together contribute
((m+1)/2)||x - x0||^2.  Its dual is a concave coupled objective over r+m
vectors, one per term plus one per extra quadratic copy.  Everything here is
written for that equal-weight splitting; m = 0 recovers the plain problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .terms import (DimensionMismatch, Indicator, _as_count, all_finite,
                    stack_terms, stacked_conjugates)

_INF = float("inf")
_EPS = float(np.finfo(float).eps)
# gap_report's rounding allowance, in units of eps times the sizes of what
# primal and dual add up: primal minus dual fell at most 1.04 units below
# the proven bound at the gap stops of product runs of random_halfspaces(s,
# 20, 10) and (s, 50, 20), random_mixed(s, 20, 10) and random_balls(s, 10,
# 5), s = 1..16, on the whole plan and on working sets
GAP_ROUNDING = 16


class ProblemSpec:
    """Immutable-by-convention problem container.

    Parameters
    ----------
    x0 : array, shape (d,)
        Anchor point of the quadratic coupling.
    terms : sequence of term objects
        The r proximable terms, each of ambient dimension d.
    m : int
        Number of extra quadratic copies (dual indices r+1 .. r+m), an
        integer (_as_count).  The copy weights are the derived lam = 1/(m+1)
        each, never stored.
    """

    def __init__(self, x0, terms, m=0):
        self.x0 = np.asarray(x0, dtype=float).ravel()
        self.d = self.x0.size
        if self.d == 0:
            raise ValueError("x0 must be a nonempty vector")
        self.terms = tuple(terms)
        if not self.terms:
            raise ValueError("need at least one term")
        for k, t in enumerate(self.terms):
            if t.dim != self.d:
                raise DimensionMismatch(
                    f"term {k + 1} has dimension {t.dim}, expected {self.d}")
        self.m = _as_count("m", m, 0)
        self.r = len(self.terms)
        # x0 @ x0, which warns on overflow
        self._x0_sq = float(np.vdot(self.x0, self.x0))
        if not math.isfinite(self._x0_sq):
            if not all_finite(self.x0):
                raise ValueError("x0 must be finite")
            raise ValueError("x0 is too large: its squared norm overflows")

    @property
    def lam(self):
        return 1.0 / (self.m + 1)

    @property
    def n_duals(self):
        return self.r + self.m

    def quad_value(self, x):
        """One quadratic copy evaluated at x, (1/2)||x - x0||^2."""
        d = np.asarray(x, dtype=float) - self.x0
        return 0.5 * float(d @ d)

    def conjugate_quad(self, z):
        """Conjugate of one equal-weight copy, (1/2)||z + x0||^2 - (1/2)||x0||^2."""
        s = np.asarray(z, dtype=float) + self.x0
        return 0.5 * float(s @ s) - 0.5 * self._x0_sq

    def primal_value(self, x):
        """Full primal objective at x, +inf when an indicator is violated."""
        x = np.asarray(x, dtype=float)
        total = 0.0
        for t in self.terms:
            val = t.value(x)
            if val == _INF:
                return _INF
            total += val
        return total + (self.m + 1) * self.quad_value(x)


class DualState:
    """Dual vectors z_1..z_{r+m} plus the (cycle, sweep) position counters.

    v and the primal estimate are always recomputed from z; nothing cached.
    """

    def __init__(self, z, n=0, w=0):
        self.z = np.asarray(z, dtype=float)
        if self.z.ndim != 2:
            raise ValueError("z must be a (r+m, d) array")
        self.n = _as_count("n", n, 0)
        self.w = _as_count("w", w, 0)

    @classmethod
    def zeros(cls, spec):
        return cls(np.zeros((spec.n_duals, spec.d)), n=0, w=0)

    @property
    def v(self):
        return self.z.sum(axis=0)

    def copy(self):
        return DualState(self.z.copy(), self.n, self.w)


def primal_estimate(spec, state):
    """The engine's primal iterate x = x0 - v."""
    return spec.x0 - state.z.sum(axis=0)


def _ordered_sum(values):
    """0.0 + values[0] + values[1] + ..., added left to right.

    The running sum of np.cumsum, as the engine sums its batches of states.
    Python's sum() gave the same bits up to 3.11; from 3.12 on it
    compensates a float sum, and so rounds differently.  The package calls
    np.add.accumulate, not ndarray.cumsum, which looks the ufunc's method
    up by a name string made at each call; the interpreter's type
    attribute cache keeps such strings alive in slots chosen by their
    addresses, so tracemalloc peaks would move with the memory layout.
    """
    acc = np.empty(len(values) + 1)
    acc[0] = 0.0
    acc[1:] = values
    return float(np.add.accumulate(acc, out=acc)[-1])


def dual_objective_from(spec, z, conjugates, v=None):
    """Dual objective on z given its r term conjugates h_i*(z_i), in order.

    conjugates is an array of all r values, evaluated up front and summed in
    row order (_ordered_sum); the result is -inf when any of them is +inf.
    Every dual value goes through this one formula with conjugates from the
    same stacked oracles, which keeps them bitwise equal; the engine
    evaluates it in the same order for all sweeps of a batch of cycles at
    once in its check pass, and for a batch of cycle ends with checks off
    (engine._objectives).  v, when given, is z.sum(axis=0).
    """
    total = _ordered_sum(conjugates)
    if total == _INF:
        return -_INF
    if spec.m:
        shifted = z[spec.r:] + spec.x0
        total += (0.5 * float((shifted * shifted).sum())
                  - spec.m * 0.5 * spec._x0_sq)
    if v is None:
        v = z.sum(axis=0)
    diff = spec.x0 - v
    total += 0.5 * float(diff @ diff) - 0.5 * spec._x0_sq
    return -total


def dual_objective_z(spec, z, groups=None, v=None):
    """Dual objective on a raw (r+m, d) array; -inf outside the domain.

    groups are the term stacks of all r rows (terms.stack_terms); they are
    built here when omitted.  v, when given, is z.sum(axis=0).
    """
    if groups is None:
        groups = stack_terms(spec.terms, range(spec.r))
    return dual_objective_from(
        spec, z, stacked_conjugates(groups, z, np.empty(spec.r)), v)


def dual_objective(spec, state):
    """Dual objective at a DualState (or raw z array)."""
    z = state.z if isinstance(state, DualState) else np.asarray(state, dtype=float)
    if z.shape != (spec.n_duals, spec.d):
        raise DimensionMismatch(
            f"z has shape {z.shape}, expected {(spec.n_duals, spec.d)}")
    return dual_objective_z(spec, z)


@dataclass
class GapReport:
    dual_value: float
    primal_value: float
    gap_lower_bound: float

    @property
    def gap(self):
        return self.primal_value - self.dual_value


class WeakDualityError(RuntimeError):
    """Primal minus dual fell below the certified lower bound."""


def gap_report(spec, state, x):
    """Duality-gap diagnostics for a candidate primal point x.

    Primal minus dual is the sum of the Fenchel-Young residuals h_i(x) +
    h_i*(z_i) - <x, z_i> of every term and copy, the last copy's being
    (1/2)||x0 - x - v||^2.  An indicator's value is 0 within FEAS_TOL of
    its set, where its residual is sigma(z_i) - <x, z_i> >= -||z_i||·dist_i(x)
    (sigma(z_i) >= <P(x), z_i>), not >= 0.  So the proven lower bound is
    (1/2)||x0 - x - v||^2 minus ||z_i||·dist_i(x) over the indicators; when
    both values are finite the report checks it, with a rounding allowance
    of GAP_ROUNDING·eps times the sizes of what the two values add up:
    |primal|, each |h_i*(z_i)|, and the dual's quadratic pieces, whose
    (m + 1)·(1/2)||x0||^2 can cancel to a value far smaller.
    """
    x = np.asarray(x, dtype=float)
    dual = dual_objective(spec, state)
    primal = spec.primal_value(x)
    z = state.z if isinstance(state, DualState) else np.asarray(state, dtype=float)
    v = z.sum(axis=0)
    resid = spec.x0 - x - v
    bound = 0.5 * float(resid @ resid)
    if np.isfinite(primal) and np.isfinite(dual):
        bound -= sum(math.sqrt(float(z[i] @ z[i])) * t.distance(x)
                     for i, t in enumerate(spec.terms)
                     if isinstance(t, Indicator))
        # the sizes of what primal and dual_objective_from add up
        conj = stacked_conjugates(stack_terms(spec.terms, range(spec.r)), z,
                                  np.empty(spec.r))
        diff, shifted = spec.x0 - v, z[spec.r:] + spec.x0
        summed = abs(primal) + float(np.abs(conj).sum()) + 0.5 * float(
            diff @ diff + (shifted * shifted).sum()
            + (spec.m + 1) * spec._x0_sq)
        if primal - dual < bound - GAP_ROUNDING * _EPS * summed:
            raise WeakDualityError(
                f"gap {primal - dual:.3e} below certified bound {bound:.3e}")
    return GapReport(dual_value=dual, primal_value=primal, gap_lower_bound=bound)


def fenchel_residual(spec, state, i, x):
    """Nonnegative Fenchel-Young residual h_i(x) + h_i*(z_i) - <x, z_i>.

    i follows the 1-based dual indexing used by schedules: 1..r are the terms,
    r+1..r+m the quadratic copies.  Returns +inf when either value is.
    """
    z = state.z if isinstance(state, DualState) else np.asarray(state, dtype=float)
    if not 1 <= i <= spec.n_duals:
        raise IndexError(f"dual index {i} out of range 1..{spec.n_duals}")
    x = np.asarray(x, dtype=float)
    i0 = i - 1
    if i0 < spec.r:
        hval = spec.terms[i0].value(x)
        cval = spec.terms[i0].conjugate(z[i0])
    else:
        hval = spec.quad_value(x)
        cval = spec.conjugate_quad(z[i0])
    if hval == _INF or cval == _INF:
        return _INF
    return max(hval + cval - float(x @ z[i0]), 0.0)

