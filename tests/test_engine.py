"""Subproblem solves, full runs, checks, and the product-space reference."""

import itertools
import math
import tracemalloc
import warnings
import zlib

import numpy as np
import pytest

import dyksplit as dk
from dyksplit import engine, fixtures
from dyksplit import terms as terms_module
from dyksplit.engine import EngineInvariantError, NonFiniteStateError
from dyksplit.terms import FEAS_TOL, HalfspaceStack, moreau_dual, stack_terms

from .support import (TERM_KINDS, invalid_deferred_plan, irrational_angle_spec,
                      patch_solver, run_until, sample_term, two_halfspace_spec,
                      unit, valid_deferred_plan)

HS = lambda a, b: dk.Indicator(dk.Halfspace(a, b))


def _stationarity(spec, z, S):
    """Max first-order residual of the joint outer minimization over S."""
    x = spec.x0 - z.sum(axis=0)
    worst = 0.0
    for i in S:
        if i <= spec.r:
            res = np.linalg.norm(x - spec.terms[i - 1].prox(x + z[i - 1], 1.0))
        else:
            res = np.linalg.norm(z[i - 1] + spec.x0 - x)
        worst = max(worst, float(res))
    return worst


# ---------------------------------------------------------------------------
# outer solves
# ---------------------------------------------------------------------------

def test_outer_empty_set_is_noop():
    spec = two_halfspace_spec()
    st = dk.DualState(np.array([[0.3, 0.0], [0.0, 0.7]]))
    before = st.z.copy()
    assert dk.run_sweep(spec, st, dk.SweepPlan(outer=[]))["exact"] is True
    assert np.array_equal(st.z, before)


def test_outer_single_prox_desk():
    spec = dk.ProblemSpec([1.0, 0.0], [HS([1.0, 0.0], 0.0)], m=0)
    st = dk.DualState.zeros(spec)
    assert dk.run_sweep(spec, st, dk.SweepPlan(outer=[1]))["exact"] is True
    assert np.allclose(st.z, [[1.0, 0.0]], atol=1e-15)


def test_outer_quadratic_rows_desk():
    spec = dk.ProblemSpec([0.0, 0.0], [HS([1.0, 0.0], 0.0)], m=1)
    st = dk.DualState(np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert dk.run_sweep(spec, st, dk.SweepPlan(outer=[2]))["exact"] is True
    assert np.allclose(st.z[1], [-0.5, 0.0], atol=1e-15)
    # three copies solved jointly each take -c / 4
    spec3 = dk.ProblemSpec([0.0, 0.0], [HS([1.0, 0.0], 0.0)], m=3)
    st3 = dk.DualState(np.zeros((4, 2)))
    st3.z[0] = [2.0, -1.0]
    out = dk.run_sweep(spec3, st3, dk.SweepPlan(outer=[2, 3, 4]))
    assert out["exact"] is True
    assert np.allclose(st3.z[1:], [[-0.5, 0.25]] * 3, atol=1e-15)


def test_outer_prox_plus_quads_desk():
    # one projection plus both copies: x lands exactly on the set
    spec = dk.ProblemSpec([1.0, 2.0], [HS([1.0, 0.0], 0.0)], m=2)
    st = dk.DualState.zeros(spec)
    assert dk.run_sweep(spec, st, dk.SweepPlan(outer=[1, 2, 3]))["exact"] is True
    assert np.allclose(st.z[0], [3.0, 0.0], atol=1e-14)
    assert np.allclose(st.z[1:], [[-1.0, 0.0]] * 2, atol=1e-14)
    assert np.allclose(dk.primal_estimate(spec, st), [0.0, 2.0], atol=1e-14)


def test_outer_exact_tiers_reach_stationarity():
    rng = np.random.default_rng(42)
    for _ in range(30):
        d = int(rng.integers(2, 5))
        m = int(rng.integers(1, 4))
        r = int(rng.integers(1, 4))
        terms = [HS(unit(rng, d), float(rng.uniform(-0.5, 0.5)))
                 for _ in range(r)]
        spec = dk.ProblemSpec(rng.standard_normal(d), terms, m=m)
        st = dk.DualState.zeros(spec)
        # start from a state already inside every conjugate domain
        for i in range(1, spec.n_duals + 1):
            dk.run_sweep(spec, st, dk.SweepPlan(outer=[i]))
        pick = int(rng.integers(1, r + 1))
        quads = list(range(r + 1, r + 1 + int(rng.integers(0, m + 1))))
        S = [pick] + quads
        assert dk.run_sweep(spec, st, dk.SweepPlan(outer=S))["exact"] is True
        assert _stationarity(spec, st.z, S) <= 1e-10


def test_outer_two_prox_matches_projection_oracle():
    # joint minimization over two projection rows equals one exact projection
    rng = np.random.default_rng(9)
    params = dk.SolveParams(nested_bcm_sweeps=4000, nested_tol=1e-15)
    for _ in range(10):
        d = int(rng.integers(2, 4))
        a1, a2 = unit(rng, d), unit(rng, d)
        b1, b2 = (float(rng.uniform(0.1, 0.6)) for _ in range(2))
        terms = [HS(a1, b1), HS(a2, b2), HS(unit(rng, d), 1.0)]
        spec = dk.ProblemSpec(rng.standard_normal(d), terms, m=0)
        st = dk.DualState.zeros(spec)
        st.z[2] = float(rng.uniform(0.0, 0.3)) * terms[2].set.a  # on the ray
        exact = dk.run_sweep(spec, st, dk.SweepPlan(outer=[1, 2]),
                             params)["exact"]
        assert exact is True   # two halfspaces: _pair_rows
        u = spec.x0 - st.z[2]
        inst = dk.PolyhedralInstance(
            [dk.LinearConstraint(a1, b1, "le"),
             dk.LinearConstraint(a2, b2, "le")], u)
        x_star = dk.qp_project(inst)
        assert x_star is not None
        x = spec.x0 - st.v
        assert np.linalg.norm(x - x_star) <= 1e-8
        assert _stationarity(spec, st.z, [1, 2]) <= 1e-6


@pytest.mark.parametrize("m", [1, 2])
def test_outer_two_prox_plus_quads_matches_projection_oracle(m):
    # with every copy in the set, the copies average the frozen row away:
    # x0 - v is the projection of x0 - z3 / (m + 1) onto both halfspaces
    rng = np.random.default_rng(10 + m)
    params = dk.SolveParams(nested_bcm_sweeps=20000, nested_tol=1e-15)
    for _ in range(10):
        d = int(rng.integers(2, 4))
        a1, a2 = unit(rng, d), unit(rng, d)
        b1, b2 = (float(rng.uniform(0.1, 0.6)) for _ in range(2))
        terms = [HS(a1, b1), HS(a2, b2), HS(unit(rng, d), 1.0)]
        spec = dk.ProblemSpec(rng.standard_normal(d), terms, m=m)
        st = dk.DualState.zeros(spec)
        z3 = float(rng.uniform(0.0, 0.3)) * terms[2].set.a  # on the ray
        st.z[2] = z3
        S = [1, 2] + list(range(4, 4 + m))
        out = dk.run_sweep(spec, st, dk.SweepPlan(outer=S), params)
        assert out["exact"] is False
        assert np.array_equal(st.z[2], z3)
        inst = dk.PolyhedralInstance(
            [dk.LinearConstraint(a1, b1, "le"),
             dk.LinearConstraint(a2, b2, "le")], spec.x0 - z3 / (m + 1))
        x_star = dk.qp_project(inst)
        assert x_star is not None
        assert np.linalg.norm(spec.x0 - st.v - x_star) <= 1e-8


# ---------------------------------------------------------------------------
# inner blocks
# ---------------------------------------------------------------------------

def test_inner_block_desk():
    spec = dk.ProblemSpec([1.0, 0.0], [HS([1.0, 0.0], 0.0)], m=1)
    st = dk.DualState(np.array([[0.0, 0.0], [0.4, 0.0]]))
    out = dk.run_sweep(spec, st, dk.SweepPlan(inner={2: [1, 2]}))
    assert out["exact"] is True
    assert np.allclose(st.z, [[1.4, 0.0], [-1.0, 0.0]], atol=1e-15)


def test_inner_block_empty_members_is_noop():
    # an empty block is dropped like in any SweepPlan; it must not zero the
    # governing row
    spec = dk.ProblemSpec([1.0, 0.0], [HS([1.0, 0.0], 0.0)], m=1)
    st = dk.DualState(np.array([[0.5, 0.1], [0.4, 0.2]]))
    before = st.z.copy()
    assert dk.run_sweep(spec, st, dk.SweepPlan(inner={2: []}))["exact"] is True
    assert np.array_equal(st.z, before)


def test_inner_block_preserves_block_sum():
    rng = np.random.default_rng(31)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        terms = [HS(unit(rng, d), float(rng.uniform(0.0, 0.5)))
                 for _ in range(3)]
        spec = dk.ProblemSpec(rng.standard_normal(d), terms, m=2)
        st = dk.DualState(rng.standard_normal((5, d)) * 0.5)
        members = [1, 4] if rng.random() < 0.5 else [1, 2, 5]
        j = members[-1]
        bsum = st.z[[i - 1 for i in members]].sum(axis=0)
        v = st.v.copy()
        dk.run_sweep(spec, st, dk.SweepPlan(inner={j: members}))
        after = st.z[[i - 1 for i in members]].sum(axis=0)
        assert np.allclose(after, bsum, atol=1e-12)
        assert np.allclose(st.v, v, atol=1e-12)


def test_inner_block_never_decreases_objective():
    rng = np.random.default_rng(8)
    for _ in range(20):
        d = int(rng.integers(2, 4))
        terms = [HS(unit(rng, d), float(rng.uniform(0.0, 0.4)))
                 for _ in range(2)]
        spec = dk.ProblemSpec(rng.standard_normal(d), terms, m=2)
        st = dk.DualState.zeros(spec)
        for i in (1, 2, 3, 4):
            dk.run_sweep(spec, st, dk.SweepPlan(outer=[i]))
        before = dk.dual_objective(spec, st)
        members = [1, 2, 3] if rng.random() < 0.5 else [2, 4]
        dk.run_sweep(spec, st, dk.SweepPlan(inner={members[-1]: members}))
        assert dk.dual_objective(spec, st) >= before - 1e-10


def test_inner_block_two_prox_matches_projection_oracle():
    # block holds two projections and its copy; the copy row plus x0 must land
    # on the projection of (block sum + x0) onto the intersection
    rng = np.random.default_rng(17)
    params = dk.SolveParams(nested_bcm_sweeps=4000, nested_tol=1e-15)
    for _ in range(8):
        d = 2
        a1, a2 = unit(rng, d), unit(rng, d)
        b1, b2 = (float(rng.uniform(0.1, 0.5)) for _ in range(2))
        spec = dk.ProblemSpec(rng.standard_normal(d),
                              [HS(a1, b1), HS(a2, b2)], m=1)
        st = dk.DualState(rng.standard_normal((3, d)) * 0.3)
        bsum = st.z.sum(axis=0)           # all three rows form the block
        exact = dk.run_sweep(spec, st, dk.SweepPlan(inner={3: [1, 2, 3]}),
                             params)["exact"]
        assert exact is True   # two halfspaces: _pair_rows
        inst = dk.PolyhedralInstance(
            [dk.LinearConstraint(a1, b1, "le"),
             dk.LinearConstraint(a2, b2, "le")],
            bsum + spec.x0)
        w_star = dk.qp_project(inst)
        assert w_star is not None
        assert np.linalg.norm(st.z[2] + spec.x0 - w_star) <= 1e-7


def test_single_step_ops_keep_their_error_types():
    # an index out of range is a ScheduleStructureError, whether SweepPlan
    # (0) or run_sweep (4, beyond r + m = 3) finds it
    spec = two_halfspace_spec(m=1)
    st = dk.DualState.zeros(spec)
    for S in ([0], [4], [1, 4]):
        with pytest.raises(dk.ScheduleStructureError):
            dk.run_sweep(spec, st, dk.SweepPlan(outer=S))
    for j, members in ((1, [1, 2]), (3, [1]), (3, [3, 4]), (3, [1, 2])):
        with pytest.raises(dk.ScheduleStructureError):
            dk.run_sweep(spec, st, dk.SweepPlan(inner={j: members}))
    assert np.array_equal(st.z, np.zeros((3, 2)))
    assert st.w == 0


def test_run_sweep_takes_no_index_that_is_not_an_integer():
    # int() would read this as block 3 with member 1
    spec = two_halfspace_spec(m=1)
    st = dk.DualState.zeros(spec)
    with pytest.raises(dk.ScheduleStructureError,
                       match="index must be an integer, not 3.7"):
        dk.run_sweep(spec, st, dk.SweepPlan(inner={3.7: [1.2, 3]}))
    with pytest.raises(dk.ScheduleStructureError,
                       match="index must be an integer, not 1.2"):
        dk.run_sweep(spec, st, dk.SweepPlan(inner={3: [1.2, 3]}))
    assert np.array_equal(st.z, np.zeros((3, 2)))


def test_run_sweep_diagnostics():
    spec = two_halfspace_spec()
    st = dk.DualState.zeros(spec)
    out = dk.run_sweep(spec, st, dk.SweepPlan(outer=[1]))
    assert out["exact"] is True
    assert out["v_diff"] == pytest.approx(np.linalg.norm(st.z[0]))
    assert out["inner_diffs"] == {}
    assert st.w == 1


@pytest.mark.parametrize("shape", [(5, 3), (3, 3), (4, 2)])
@pytest.mark.parametrize("sweep", [
    dk.SweepPlan(outer=[1]), dk.SweepPlan(inner={4: [1, 4]}),
    dk.SweepPlan(outer=[2], inner={4: [1, 4]})],
    ids=["outer", "block", "both"])
def test_single_step_ops_reject_a_state_of_the_wrong_shape(sweep, shape):
    # 4 duals in R^3: a state with a row too many or too few, or of the
    # wrong width, raises dual_objective's error and is left as it was
    spec = fixtures.random_halfspaces(1, 3, 3, m=1)
    st = dk.DualState(np.ones(shape))
    message = rf"z has shape \({shape[0]}, {shape[1]}\), expected \(4, 3\)"
    with pytest.raises(dk.DimensionMismatch, match=message):
        dk.dual_objective(spec, st)
    with pytest.raises(dk.DimensionMismatch, match=message):
        dk.run_sweep(spec, st, sweep)
    assert np.array_equal(st.z, np.ones(shape))
    assert st.w == 0


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

def test_run_two_halfspace_single_cycle():
    spec = two_halfspace_spec()
    res = dk.run(spec, dk.classic_dykstra_schedule(2),
                 dk.SolveParams(max_iterations=50, stop_gap=1e-10,
                                check_level="full"))
    assert res.stop_reason == "gap"
    assert res.cycles_run == 1
    assert np.allclose(res.x, [0.0, 0.0], atol=1e-12)
    assert res.F == pytest.approx(1.0, abs=1e-12)
    assert res.F_initial == 0.0
    assert not res.any_approx


def test_run_single_term_is_plain_projection():
    rng = np.random.default_rng(4)
    for _ in range(5):
        d = int(rng.integers(2, 6))
        ball = dk.Indicator(dk.L2Ball(rng.standard_normal(d),
                                      float(rng.uniform(0.5, 2.0))))
        spec = dk.ProblemSpec(rng.standard_normal(d) * 3.0, [ball], m=0)
        res = dk.run(spec, dk.classic_dykstra_schedule(1),
                     dk.SolveParams(max_iterations=5, stop_gap=1e-12,
                                    check_level="full"))
        assert res.stop_reason == "gap"
        assert np.allclose(res.x, ball.set.project(spec.x0), atol=1e-12)


def test_run_reaches_projection_oracle():
    spec = irrational_angle_spec()
    inst = dk.PolyhedralInstance.from_spec(spec)
    x_star = dk.qp_project(inst)
    assert x_star is not None
    for plan in (dk.classic_dykstra_schedule(3), None):
        if plan is None:
            spec2 = irrational_angle_spec(m=2)
            plan = dk.product_space_schedule(3)
            cycles, err, _ = run_until(spec2, plan, x_star, tol=1e-6,
                                       max_cycles=5000)
        else:
            cycles, err, _ = run_until(spec, plan, x_star, tol=1e-6,
                                       max_cycles=5000)
        assert err <= 1e-6, f"stalled at {err} after {cycles} cycles"


def test_run_deferred_plan_full_checks():
    # lead-in cycle plus rewritten pattern, every invariant checked
    rng = np.random.default_rng(3)
    a1, a2 = unit(rng, 2), unit(rng, 2)
    spec = dk.ProblemSpec([1.1, 0.7], [HS(a1, 0.2), HS(a2, 0.1)], m=2)
    plan = valid_deferred_plan()
    res = dk.run(spec, plan,
                 dk.SolveParams(max_iterations=400, stop_gap=1e-14,
                                check_level="full"))
    x_star = dk.qp_project(dk.PolyhedralInstance.from_spec(spec))
    assert np.linalg.norm(res.x - x_star) <= 1e-5
    assert res.certificates is not None
    assert not res.any_approx


def test_run_product_sweep_one_averages_prox_rows():
    spec = irrational_angle_spec(m=2)
    plan = dk.product_space_schedule(3)
    res = dk.run(spec, plan, dk.SolveParams(max_iterations=6,
                                            check_level="sweep"),
                 keep_cycle_starts=True)
    for z_start in res.cycle_start_duals[1:]:
        # reconstruct sweep 1 from the cycle-start snapshot
        st = dk.DualState(z_start.copy())
        dk.run_sweep(spec, st, plan.pattern[0])
        c = z_start[:3].sum(axis=0)
        assert np.allclose(st.z[3:], np.tile(-c / 3.0, (2, 1)), atol=1e-14)


def test_product_sweep_blocks_are_the_scalar_dual_prox():
    # sweep 2 solves its r - 1 two-point blocks in one stacked call per term
    # kind; each term row is moreau_dual of its own term at its block sum
    # plus x0, bitwise, and the copy row holds the rest of the block sum
    rng = np.random.default_rng(12)
    base = fixtures.random_mixed(9, 6, 4)
    spec = dk.ProblemSpec(base.x0, [*base.terms, sample_term("l1", rng, 4)],
                          m=6)
    z = rng.standard_normal((spec.n_duals, 4)) * 2.0
    st = dk.DualState(z.copy())
    dk.run_sweep(spec, st, dk.product_space_schedule(spec.r).pattern[1])
    for i in range(spec.r - 1):
        j = i + spec.r
        bsum = z[i] + z[j]
        z_i = moreau_dual(spec.terms[i], bsum + spec.x0)
        assert np.array_equal(st.z[i], z_i)
        assert np.array_equal(st.z[j], bsum - z_i)


def test_run_certificates_hold():
    spec = irrational_angle_spec(m=2)
    res = dk.run(spec, dk.product_space_schedule(3),
                 dk.SolveParams(max_iterations=40, check_level="full"))
    assert res.certificates is not None
    assert sorted(c.index for c in res.certificates) == [1, 2, 3, 4, 5]
    g_last = res.gamma[-1]
    for cert in res.certificates:
        assert np.all(np.isfinite(cert.point))
        assert cert.residual <= g_last + 1e-9
        assert cert.fenchel <= 1e-8


def test_run_workers_bitwise_identical():
    spec = irrational_angle_spec(m=2)
    plan = dk.product_space_schedule(3)
    runs = [dk.run(spec, plan, dk.SolveParams(max_iterations=25,
                                              check_level="sweep"))]
    for w in (2, 8):
        with pytest.warns(DeprecationWarning, match="workers"):
            params = dk.SolveParams(max_iterations=25, workers=w,
                                    check_level="sweep")
        runs.append(dk.run(spec, plan, params))
    base = runs[0]
    for other in runs[1:]:
        assert np.array_equal(base.state.z, other.state.z)
        assert np.array_equal(base.gamma, other.gamma)
        assert [r.F for r in base.cycle_rows] == [r.F for r in other.cycle_rows]


def test_run_per_sweep_margin_from_trace():
    spec = irrational_angle_spec()
    res = dk.run(spec, dk.classic_dykstra_schedule(3),
                 dk.SolveParams(max_iterations=30, per_sweep_trace=True,
                                check_level="sweep"))
    rows = res.sweep_rows
    assert rows is not None and len(rows) == res.cycles_run * 3
    f_prev = res.F_initial
    for row in rows:
        gain = 0.5 * row.v_diff ** 2 + sum(
            0.5 * d ** 2 for d in row.inner_diffs.values())
        assert row.F >= f_prev + gain - 1e-8
        f_prev = row.F


def _reference_objectives(spec, plan, n_cycles, z_init=None):
    """Per-sweep and per-cycle F from public run_sweep plus dual_objective."""
    z = np.zeros((spec.n_duals, spec.d)) if z_init is None else z_init.copy()
    st = dk.DualState(z)
    per_sweep, per_cycle = [], []
    for n in range(1, n_cycles + 1):
        for sweep in plan.cycle(n):
            dk.run_sweep(spec, st, sweep)
            per_sweep.append(dk.dual_objective(spec, st))
        per_cycle.append(per_sweep[-1])
    return per_sweep, per_cycle


def _outside_ray_start(spec):
    # term 3's halfspace conjugate is +inf off the ray through a_3
    z = np.zeros((spec.n_duals, spec.d))
    z[2] = -spec.terms[2].set.a
    return z


@pytest.mark.parametrize("case", ["classic", "product", "mixed_block",
                                  "deferred", "outside_domain"])
def test_run_cached_objective_is_bitwise_reference(case):
    # the engine's per-row conjugate cache must reproduce the full dual
    # objective exactly, sweep by sweep and cycle by cycle
    z_init = None
    check_level = "sweep"
    if case == "classic":
        spec = fixtures.random_halfspaces(5, 6, 4)
        plan = dk.classic_dykstra_schedule(6)
    elif case == "product":
        spec = fixtures.random_mixed(6, 4, 3, m=3)
        plan = dk.product_space_schedule(4)
    elif case == "mixed_block":
        spec = fixtures.random_mixed(7, 4, 3, m=1)
        plan = fixtures.mixed_block_schedule(4)
    elif case == "deferred":
        spec = fixtures.random_halfspaces(8, 2, 3, m=2)
        plan = dk.rewrite_deferred(invalid_deferred_plan(), 2, 2)
        assert plan.lead_in
        check_level = "full"
    else:
        spec = fixtures.random_halfspaces(9, 5, 3)
        plan = dk.classic_dykstra_schedule(5)
        z_init = _outside_ray_start(spec)
    n_cycles = 12
    res = dk.run(spec, plan,
                 dk.SolveParams(max_iterations=n_cycles, per_sweep_trace=True,
                                check_level=check_level),
                 z_init=z_init)
    per_sweep, per_cycle = _reference_objectives(spec, plan, n_cycles, z_init)
    assert [row.F for row in res.sweep_rows] == per_sweep
    assert res.F_per_cycle.tolist() == per_cycle
    if case == "outside_domain":
        # -inf until sweep 3 writes the offending row, finite from then on
        assert res.F_initial == -np.inf
        assert per_sweep[:2] == [-np.inf, -np.inf]
        assert np.isfinite(per_sweep[2:]).all()


def _dots_kernel(m, kernel):
    """terms._dots as built (np.vecdot on numpy 2) or its matmul form."""
    if kernel == "matmul":
        m.setattr(terms_module, "_dots", terms_module._dots_matmul)
        m.setattr(engine, "_dots", terms_module._dots_matmul)


def _margins_before_a_non_finite_sweep(monkeypatch, spec, plan, k, message):
    """The margins that the check of a cycle's sweeps before its first
    non-finite one receives, when the k-th sweep of a checked run writes
    NaN into its first row; the run raises message."""
    execute, check_sweeps = engine._execute_sweep, engine._CCheck.check_sweeps
    calls, seen = [0], []

    def poisoned(spec, z, v, cs, params, out):
        exact = execute(spec, z, v, cs, params, out)
        calls[0] += 1
        if calls[0] == k:
            out[0, 0] = np.nan
        return exact

    def recorded(self, spec, log, c, z, v, conj, F, margins, *rest, upto):
        seen.append(margins[:upto].tolist())
        return check_sweeps(self, spec, log, c, z, v, conj, F, margins,
                            *rest, upto=upto)

    with monkeypatch.context() as m:
        m.setattr(engine, "_execute_sweep", poisoned)
        m.setattr(engine._CCheck, "check_sweeps", recorded)
        _screen_off(m)   # the k-th sweep is the k-th solved
        with pytest.raises(NonFiniteStateError, match=f"^{message}$"):
            dk.run(spec, plan, dk.SolveParams(max_iterations=5))
    assert len(seen) == 1
    return seen[0]


def _assert_same_bits_at_every_check_level(monkeypatch, spec, plan, kernel,
                                           n_cycles=30):
    # every level writes each sweep's rows into the one state and takes a
    # cycle's movements at its end; "off" solves into a scratch buffer and
    # prices its cycle ends in batches, while "sweep" and "full" solve into
    # the log and take F from the per-row conjugate cache; all take each
    # dual sum once per snapshot.  The movements themselves are checked
    # against the states of a run_sweep loop in test_check_batches.py
    _dots_kernel(monkeypatch, kernel)
    off, sweep, full = (dk.run(spec, plan,
                               dk.SolveParams(max_iterations=n_cycles,
                                              check_level=level,
                                              per_sweep_trace=True))
                        for level in ("off", "sweep", "full"))
    moves = [(row.v_diff, row.inner_diffs) for row in off.sweep_rows]
    for checked in (sweep, full):
        assert np.array_equal(off.state.z, checked.state.z)
        assert np.array_equal(off.F_per_cycle, checked.F_per_cycle)
        assert np.array_equal(off.gamma, checked.gamma)
        assert np.array_equal(off.sq_diff_cumsum, checked.sq_diff_cumsum)
        assert [(row.v_diff, row.inner_diffs)
                for row in checked.sweep_rows] == moves
    assert np.isfinite(off.F_per_cycle).all()
    # a sweep of cycle 3 goes non-finite: the check of the sweeps before it
    # tests their margins, taken from the logged sums, against "off"'s
    k, row = next((k, row) for k, row in enumerate(off.sweep_rows, start=1)
                  if row.n == 3 and row.w == len(plan.cycle(3)) // 2 + 1)
    expected = []
    for before in off.sweep_rows[k - row.w:k - 1]:
        inner_sq = 0.0
        for move in before.inner_diffs.values():
            inner_sq += move * move
        expected.append(0.5 * before.v_diff * before.v_diff + 0.5 * inner_sq)
    assert _margins_before_a_non_finite_sweep(
        monkeypatch, spec, plan, k,
        f"non-finite duals after cycle 3 sweep {row.w}") == expected
    # the re-solve records nothing: "full" has the trace rows, per-sweep F
    # included, and the certificates of "sweep"
    assert full.sweep_rows == sweep.sweep_rows
    assert full.cycle_rows == sweep.cycle_rows
    assert (full.certificates is None) == (sweep.certificates is None)
    for a, b in zip(full.certificates or (), sweep.certificates or ()):
        assert a.index == b.index
        assert np.array_equal(a.point, b.point)
        assert (a.residual, a.fenchel) == (b.residual, b.fenchel)


@pytest.mark.parametrize("kernel", ["built", "matmul"])
@pytest.mark.parametrize("spec", [fixtures.random_halfspaces(5, 20, 10, m=19),
                                  fixtures.random_mixed(6, 6, 4, m=5)],
                         ids=["halfspaces", "mixed"])
def test_product_run_same_bits_with_and_without_sweep_checks(monkeypatch,
                                                             spec, kernel):
    _assert_same_bits_at_every_check_level(
        monkeypatch, spec, dk.product_space_schedule(spec.r), kernel)


def _custom_nested_plan():
    """A pattern with both nested fallbacks, deferred: r = 8, m = 2.

    Its joint subproblems have three term rows each, which no closed form
    solves; _custom_pair_plan has the same pattern with two.
    """
    S = dk.SweepPlan
    plan = dk.CyclePlan(pattern=(
        S(outer={9}), S(inner={9: {1, 2, 3, 9}}), S(outer={3, 4, 5}),
        S(outer={10}), S(outer={5}), S(outer={6}, inner={10: {5, 10}}),
        S(outer={7}), S(outer={8})))
    return dk.rewrite_deferred(plan, 8, 2)


def _revisiting_plan():
    """Four outer sets of one index out of index order, index 2 solved at
    sweeps 1 and 5: each index's last touch is an exact outer solve, but
    not at the sweep of its number."""
    S = dk.SweepPlan
    return dk.CyclePlan(pattern=(S(outer={2}), S(outer={1}), S(outer={4}),
                                 S(outer={3}), S(outer={2})))


def _custom_pair_plan():
    """The pattern of _custom_nested_plan with a halfspace and a ball in
    each joint subproblem of random_mixed (_pair_rows): the benchmark's."""
    S = dk.SweepPlan
    plan = dk.CyclePlan(pattern=(
        S(outer={9}), S(inner={9: {1, 2, 9}}), S(outer={3, 4}),
        S(outer={10}), S(outer={5}), S(outer={6}, inner={10: {5, 10}}),
        S(outer={7}), S(outer={8})))
    return dk.rewrite_deferred(plan, 8, 2)


@pytest.mark.parametrize("kernel", ["built", "matmul"])
@pytest.mark.parametrize("case", ["classic", "product", "mixed_block",
                                  "custom_nested", "custom_pair"])
def test_run_same_bits_at_every_check_level(monkeypatch, case, kernel):
    if case == "classic":
        spec = fixtures.random_mixed(5, 6, 4)
        plan = dk.classic_dykstra_schedule(6)
    elif case == "product":
        # sweep 2 writes all 2r - 1 rows, r - 1 of them governing rows
        spec = fixtures.random_mixed(9, 5, 3, m=4)
        plan = dk.product_space_schedule(5)
    elif case == "mixed_block":
        spec = fixtures.random_mixed(7, 4, 3, m=1)
        plan = fixtures.mixed_block_schedule(4)
    else:
        spec = fixtures.random_mixed(8, 8, 6, m=2)
        plan = (_custom_nested_plan() if case == "custom_nested"
                else _custom_pair_plan())
        assert plan.lead_in
    _assert_same_bits_at_every_check_level(monkeypatch, spec, plan, kernel)


@pytest.mark.parametrize("case", ["classic", "product", "mixed_block",
                                  "one_row", "one_outer_set"])
def test_batched_cycle_ends_give_the_bits_of_one_at_a_time(monkeypatch,
                                                          case):
    # with checks off the cycle ends are priced in batches: caps on both
    # sides of a full batch, gap stops inside one, and a zero gap that
    # prices every cycle once x is feasible give the bits of batches of
    # one, and those of "sweep".  Each cycle's end is copied from the one
    # state into the batch, which the next cycle goes on writing: with one
    # sweep a cycle, the copy and not the state must be priced
    nested = {}
    if case == "classic":
        spec = fixtures.random_mixed(5, 6, 4)
        plan = dk.classic_dykstra_schedule(6)
    elif case == "product":
        spec = fixtures.random_halfspaces(1, 4, 3, m=3)
        plan = dk.product_space_schedule(4)
    elif case == "mixed_block":
        spec = fixtures.random_mixed(7, 4, 3, m=1)
        plan = fixtures.mixed_block_schedule(4)
    elif case == "one_row":
        spec = fixtures.random_mixed(5, 1, 4)
        plan = dk.classic_dykstra_schedule(1)
    else:
        # one pass of the nested loop per cycle, so that every cycle moves
        spec = fixtures.random_mixed(4, 3, 4, m=2)
        plan = dk.CyclePlan(pattern=(dk.SweepPlan(outer={1, 2, 3, 4, 5}),))
        nested = {"nested_bcm_sweeps": 1}
    assert engine._OBJ_BATCH == 8
    mid_batch = False
    for cap, gap in [(1, None), (7, None), (8, None), (9, None), (17, None),
                     (26, None), (300, 1e-8), (26, 0.0)]:
        def solve(level):
            return dk.run(spec, plan, dk.SolveParams(
                max_iterations=cap, stop_gap=gap, check_level=level,
                **nested))

        batched = solve("off")
        with monkeypatch.context() as m:
            m.setattr(engine, "_OBJ_BATCH", 1)
            single = solve("off")
        checked = solve("sweep")
        mid_batch = mid_batch or (batched.stop_reason == "gap"
                                  and batched.cycles_run % 8 != 0)
        assert not hasattr(batched.cycle_rows[0], "__dict__")   # slotted
        assert batched.cycle_rows == single.cycle_rows
        assert ([row.F for row in batched.cycle_rows]
                == [row.F for row in checked.cycle_rows])
        for other in (single, checked):
            assert (batched.stop_reason, batched.cycles_run) == (
                other.stop_reason, other.cycles_run)
            for name in ("F_per_cycle", "gamma", "growth", "sq_diff_cumsum",
                         "x"):
                assert (getattr(batched, name).tobytes()
                        == getattr(other, name).tobytes())
            assert batched.state.z.tobytes() == other.state.z.tobytes()
            assert (batched.F, batched.F_initial) == (other.F,
                                                      other.F_initial)
    assert mid_batch


@pytest.mark.parametrize("r,d,product,n_batch", [
    (50, 20, False, 8), (20, 10, True, 8), (200, 50, False, 3),
    (800, 50, False, 1)])
def test_checks_off_batches_hold_at_most_their_bytes_of_cycle_ends(
        monkeypatch, r, d, product, n_batch):
    # a batch's cycle-end states take at most _OFF_BATCH_BYTES, or one
    # state: eight cycles at the benchmark's sizes, fewer of larger states
    sizes = []
    flush = engine._flush_cycle_ends

    def recorded(spec, groups, Z, V, batch, F_list, gap):
        sizes.append(len(batch))
        return flush(spec, groups, Z, V, batch, F_list, gap)

    monkeypatch.setattr(engine, "_flush_cycle_ends", recorded)
    spec = fixtures.random_halfspaces(1, r, d, m=r - 1 if product else 0)
    plan = (dk.product_space_schedule(r) if product
            else dk.classic_dykstra_schedule(r))
    dk.run(spec, plan, dk.SolveParams(max_iterations=n_batch + 1,
                                      check_level="off"))
    assert sizes == [n_batch, 1]


def test_rows_index_is_a_slice_only_for_an_ascending_run():
    assert engine._rows_index([3, 4, 5]) == slice(3, 6)
    assert engine._rows_index([7]) == slice(7, 8)
    assert engine._rows_index([]) == slice(0, 0)
    for rows in ([0, 2, 1, 3], [1, 0], [2, 2], [0, 2]):
        idx = engine._rows_index(rows)
        assert isinstance(idx, np.ndarray) and idx.dtype == np.intp
        assert idx.tolist() == rows


def _same_compiled(a, b):
    """Equal index sets, solvers and arguments, element by element: a slice
    equals a slice, an index array an array of the same dtype and rows."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.dtype == b.dtype and a.tolist() == b.tolist())
    if isinstance(a, (tuple, list)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(_same_compiled(x, y) for x, y in zip(a, b)))
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("rows", [slice(2, 3), np.array([2]),
                                  slice(1, 3), np.array([2, 1])])
def test_quad_rows_of_one_row_give_the_bits_of_the_sum(rows):
    # one copy row takes v - (z_j + 0.0), not the reduction: numpy sums one
    # row as 0.0 + row, which takes -0.0 to +0.0, and keeps a NaN's bits
    spec = fixtures.random_mixed(1, 1, 6, m=2)
    z = np.array([[1.0, -2.0, 0.5, 3.0, -0.0, 7.0],
                  [-0.0, 2.5, 0.0, -1.0, 4.0, -0.0],
                  [-0.0, 0.0, np.nan, -np.nan, -0.0, 1e-300]])
    k = len(z[rows])
    out = np.empty((k, 6))
    for v in (np.zeros(6), -np.zeros(6), z.sum(axis=0), np.full(6, 2.0)):
        assert engine._quad_rows(spec, z, v, (rows, slice(0, k)), None, out)
        c = v - z[rows].sum(axis=0)
        assert out.tobytes() == np.broadcast_to(-c / (k + 1.0),
                                                (k, 6)).tobytes()


def test_a_one_term_row_sweep_compiles_as_the_general_path_does():
    # every classic sweep takes _CSweep's short path; the general one must
    # give it the same slots and steps, so that the two cannot drift apart
    spec = fixtures.random_mixed(5, 6, 4, m=2)
    kinds = {type(t.set) for t in spec.terms}
    assert kinds == {dk.Halfspace, dk.L2Ball}
    for sweep in dk.classic_dykstra_schedule(spec.r).pattern:
        short = engine._CSweep(sweep, spec)
        general = object.__new__(engine._CSweep)
        general._compile(sweep, spec)
        for name in engine._CSweep.__slots__:
            if name != "steps":
                assert _same_compiled(getattr(short, name),
                                      getattr(general, name)), name
        assert len(short.steps) == len(general.steps) == 1
        for field in engine._Step._fields:
            a, b = getattr(short.steps[0], field), getattr(general.steps[0],
                                                         field)
            assert (a is b) if field == "solve" else _same_compiled(a, b), \
                field


@pytest.mark.parametrize("level", ["off", "sweep", "full"])
@pytest.mark.parametrize("case", ["classic", "product", "mixed_block",
                                  "custom_nested"])
def test_slices_and_index_arrays_give_the_same_bits(monkeypatch, case,
                                                    level):
    # the compiled row sets are read as views where they are contiguous;
    # as index arrays they are gathered, and every result must be the same
    if case == "classic":
        spec = fixtures.random_mixed(5, 6, 4)
        plan = dk.classic_dykstra_schedule(6)
    elif case == "product":
        spec = fixtures.random_halfspaces(5, 8, 5, m=7)
        plan = dk.product_space_schedule(8)
    elif case == "mixed_block":
        spec = fixtures.random_mixed(7, 4, 3, m=1)
        plan = fixtures.mixed_block_schedule(4)
    else:
        spec = fixtures.random_mixed(8, 8, 6, m=2)
        plan = _custom_nested_plan()
    params = dk.SolveParams(max_iterations=20, check_level=level,
                            per_sweep_trace=True)
    rows_index, kinds = engine._rows_index, []

    def recorded(rows):
        kinds.append(type(rows_index(rows)))
        return rows_index(rows)

    monkeypatch.setattr(engine, "_rows_index", recorded)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", dk.ScheduleGrowthWarning)
        views = dk.run(spec, plan, params)
        assert slice in kinds
        monkeypatch.setattr(engine, "_rows_index",
                            lambda rows: np.array(rows, dtype=np.intp))
        arrays = dk.run(spec, plan, params)
    for name in ("F_per_cycle", "gamma", "growth"):
        assert (getattr(views, name).tobytes()
                == getattr(arrays, name).tobytes())
    assert views.state.z.tobytes() == arrays.state.z.tobytes()
    assert views.sweep_rows == arrays.sweep_rows
    assert (views.certificates is None) == (level == "off")
    for a, b in zip(views.certificates or (), arrays.certificates or ()):
        assert a.index == b.index
        assert a.point.tobytes() == b.point.tobytes()
        assert (a.residual, a.fenchel) == (b.residual, b.fenchel)


def test_a_contiguous_nested_outer_set_leaves_its_snapshot_unchanged():
    # the nested loop works on a copy of its rows, not on the read-only
    # snapshot that every subproblem of the sweep reads
    spec = fixtures.random_mixed(8, 8, 6, m=2)
    sweep = dk.SweepPlan(outer={3, 4, 5})
    assert not engine._CSweep(sweep, spec).exact
    z = dk.run(spec, _custom_nested_plan(),
               dk.SolveParams(max_iterations=3)).state.z
    snapshot = z.copy()
    st = dk.DualState(z)
    dk.run_sweep(spec, st, sweep)
    assert z.tobytes() == snapshot.tobytes()
    assert st.z is not z and not np.array_equal(st.z[2:4], snapshot[2:4])


@pytest.mark.parametrize("level", ["off", "sweep", "full", "public"])
def test_a_solver_cannot_write_into_its_snapshot(monkeypatch, level):
    # every solver reads its snapshot through a read-only view, in a run at
    # every check level, in the re-solve at "full" (here every sweep's, after
    # the cycle's six sweeps) and in the public single steps
    spec = fixtures.random_halfspaces(1, 6, 4)
    plan = dk.classic_dykstra_schedule(6)
    solve = engine._prox_row
    calls = []

    def writing(spec, z, v, arg, params, out):
        exact = solve(spec, z, v, arg, params, out)
        calls.append(1)
        if level != "full" or len(calls) > 6:
            z[arg[0]] = out[arg[1]]
        return exact

    patch_solver(monkeypatch, "_prox_row", writing)
    monkeypatch.setattr(engine._CCheck, "_compile_resolve",
                        lambda self, spec, shared: None)
    with pytest.raises(ValueError, match="read-only"):
        if level == "public":
            dk.run_sweep(spec, dk.DualState.zeros(spec),
                         dk.SweepPlan(outer=[1]))
        else:
            dk.run(spec, plan, dk.SolveParams(max_iterations=1,
                                              check_level=level))
    assert len(calls) == (7 if level == "full" else 1)


@pytest.mark.parametrize("level", ["off", "sweep"])
@pytest.mark.parametrize("case", ["classic", "product", "custom_pair"])
def test_a_run_holds_one_state(monkeypatch, case, level):
    # at every check level each sweep reads a read-only view of the one
    # state, which then takes the sweep's rows in place: one array at one
    # address for the whole run, across batches and lead-in cycles, never a
    # state per sweep
    if case == "classic":
        spec = fixtures.random_halfspaces(1, 6, 4)
        plan = dk.classic_dykstra_schedule(6)
    elif case == "product":
        spec = fixtures.random_halfspaces(1, 4, 3, m=3)
        plan = dk.product_space_schedule(4)
    else:
        spec = fixtures.random_mixed(8, 8, 6, m=2)
        plan = _custom_pair_plan()
    execute = engine._execute_sweep
    seen = set()

    def recorded(spec, z, v, cs, params, out):
        assert not z.flags.writeable and z.shape == (spec.n_duals, spec.d)
        seen.add((id(z.base), z.__array_interface__["data"][0]))
        return execute(spec, z, v, cs, params, out)

    monkeypatch.setattr(engine, "_execute_sweep", recorded)
    res = dk.run(spec, plan, dk.SolveParams(max_iterations=20,
                                            check_level=level))
    assert res.cycles_run == 20
    assert len(seen) == 1


def _resolves_and_objectives(monkeypatch, spec, plan, n_cycles=20):
    """The per-sweep re-solves of a full run and its objective calls.

    Returns ([(n, w), ...] of every sweep re-solved by itself, in order,
    {w: cycles}, the dual_objective_from calls): the second counts, for
    each sweep the batched re-solve decides (_resolved), the cycles in
    which it matched its snapshot.
    """
    calls = []
    matched = {}
    priced = [0]
    objective = engine.dual_objective_from
    resolve, resolved = engine._CCheck._resolve_sweep, engine._CCheck._resolved

    def counted(*args, **kwargs):
        priced[0] += 1
        return objective(*args, **kwargs)

    def resolve_recorded(self, spec, log, c, w, params, n, z):
        calls.append((n, w))
        return resolve(self, spec, log, c, w, params, n, z)

    def resolved_counted(self, *args):
        out = resolved(self, *args)
        for w, b in self.resolve.at.items():
            matched[w] = matched.get(w, 0) + int(out[:, b].sum())
        return out

    monkeypatch.setattr(engine, "dual_objective_from", counted)
    monkeypatch.setattr(engine._CCheck, "_resolve_sweep", resolve_recorded)
    monkeypatch.setattr(engine._CCheck, "_resolved", resolved_counted)
    dk.run(spec, plan, dk.SolveParams(max_iterations=n_cycles,
                                      check_level="full"))
    return calls, matched, priced[0]


@pytest.mark.parametrize("case", ["classic", "custom_nested", "custom_pair"])
def test_replay_of_one_subproblem_reuses_the_pass_objective(monkeypatch,
                                                            case):
    # every exact sweep has one subproblem: the batched re-solve finds it
    # bitwise the snapshot in every cycle, and no sweep is re-solved by
    # itself; the objective is priced once, at the start of the run
    if case == "classic":
        spec = fixtures.random_mixed(5, 6, 4)
        plan = dk.classic_dykstra_schedule(6)
        matched = dict.fromkeys(range(1, 7), 20)
    elif case == "custom_nested":
        spec = fixtures.random_mixed(8, 8, 6, m=2)
        plan = _custom_nested_plan()
        # the nested sweeps 3 and 4 are approximate and not re-solved, and
        # the lead-in cycle's sweep 1 is empty
        matched = dict.fromkeys([1, 2, 5, 6, 7, 8, 9], 20)
        matched[1] = 19
    else:
        # the pair sweeps 3 and 4 are exact and re-solved with the others
        spec = fixtures.random_mixed(8, 8, 6, m=2)
        plan = _custom_pair_plan()
        matched = dict.fromkeys(range(1, 10), 20)
        matched[1] = 19
    assert _resolves_and_objectives(monkeypatch, spec, plan) == (
        [], matched, 1)


def test_a_full_product_run_prices_no_state_after_its_first(monkeypatch):
    # sweep 2, r - 1 blocks and an outer set, is re-solved by itself in
    # every cycle, and its subproblems' margins are taken in closed form
    # (_CCheck._gains): no state is priced but the run's first.  Sweep 1,
    # one outer set of the r - 1 copies, is decided by the batched re-solve
    r = 5
    spec = fixtures.random_mixed(6, r, 3, m=r - 1)
    calls, matched, priced = _resolves_and_objectives(
        monkeypatch, spec, dk.product_space_schedule(r))
    assert calls == [(n, 2) for n in range(1, 21)]
    assert matched == {1: 20}
    assert priced == 1


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_memory_does_not_grow_with_the_cycle_count():
    # with checks off a run keeps a batch of z buffers; per cycle it adds
    # only its trace columns, five doubles and a flag (41 B) plus the
    # arrays' spare room, well under the ~280 B of a TraceRow object with
    # its dict and boxed floats
    spec = fixtures.random_halfspaces(3, 50, 20, m=49)
    plan = dk.product_space_schedule(50)
    n = 20

    def solve(n_cycles):
        return lambda: dk.run(spec, plan, dk.SolveParams(
            max_iterations=n_cycles, check_level="off"))

    solve(2)()   # compiles and caches outside the measurement
    growth = (_peak_bytes(solve(4 * n)) - _peak_bytes(solve(n))) / (3 * n)
    assert growth < 128


def test_run_keeps_cycle_starts_only_on_request():
    spec = fixtures.random_halfspaces(3, 50, 20, m=49)
    plan = dk.product_space_schedule(50)
    n = 4
    params = dk.SolveParams(max_iterations=n, check_level="off")
    assert dk.run(spec, plan, params).cycle_start_duals is None
    starts = dk.run(spec, plan, params, keep_cycle_starts=True
                    ).cycle_start_duals
    assert len(starts) == n + 1
    assert not starts[0].any()
    for k in range(1, n + 1):
        ends = dk.run(spec, plan, dk.SolveParams(max_iterations=k,
                                                 check_level="off"))
        assert np.array_equal(starts[k], ends.state.z)


def _cycle_snapshots(plan, spec):
    """One real cycle's snapshots and analysis, from public run_sweep."""
    analysis = dk.validate(plan, spec.r, spec.m)
    st = dk.DualState.zeros(spec)
    snaps = [st.z.copy()]
    for sweep in plan.cycle(1):
        dk.run_sweep(spec, st, sweep)
        snaps.append(st.z.copy())
    return analysis.for_cycle(plan, 1), snaps


# ---------------------------------------------------------------------------
# fault injection: every check raises its own message at its own sweep
# ---------------------------------------------------------------------------
#
# Each fault is a pure function of a solver's input, so a re-solve at
# check_level="full" sees the same fault as the sweep it re-solves.  The
# messages are those of the sweep-by-sweep checks, which the cycle-end check
# pass must reproduce, first failure first.

def _after_prox_row(monkeypatch, spec, plan, *faults):
    """Apply each fault(spec, z, i, new) after every _prox_row solve of
    plan's sweeps, and after the solve of an outer set {i} that a
    _stacked_blocks call takes with its blocks (the product schedule's
    sweep 2): z is the snapshot and new the new value of term row i.

    A solver writes only the rows its sweep declares, into a buffer of
    them: one row per index the sweep touches.  The screen of still sweeps
    is off, so that every sweep reaches the faulty solver.
    """
    written = {}   # term row -> the rows of the sweep that solves it alone
    for sweep in [sw for c in (plan.pattern,) + plan.lead_in for sw in c]:
        if len(sweep.outer) == 1 and min(sweep.outer) <= spec.r:
            i = min(sweep.outer) - 1
            assert written.setdefault(i, sweep.touched) == sweep.touched
    orig, orig_blocks = engine._prox_row, engine._stacked_blocks

    def solver(spec, z, v, arg, params, out):
        i, at = arg
        assert out.shape == (len(written[i]), spec.d)
        exact = orig(spec, z, v, arg, params, out)
        for fault in faults:
            fault(spec, z, i, out[at])
        return exact

    def blocks(spec, z, v, arg, params, out):
        exact = orig_blocks(spec, z, v, arg, params, out)
        outer = arg[-1]   # the folded outer set's _prox_row step, or None
        if outer is not None:
            i, at = outer.arg
            assert out.shape == (len(written[i]), spec.d)
            for fault in faults:
                fault(spec, z, i, out[at])
        return exact

    patch_solver(monkeypatch, "_prox_row", solver)
    patch_solver(monkeypatch, "_stacked_blocks", blocks)
    _screen_off(monkeypatch)


def _screen_off(monkeypatch):
    """Switch off the screen of still sweeps (engine._Screen), so that every
    sweep runs its solver: a skipped sweep calls none."""
    monkeypatch.setattr(engine, "_screen_row", lambda spec, steps: None)


def _step(row, t, always=False):
    """Scale row's move by t, unless always only once it has moved before."""
    def fault(spec, z, i, new):
        if i == row and (always or z[i].any()):
            new[...] = z[i] + t * (new - z[i])
    return fault


def _non_finite(row, value=np.nan):
    """Write value into row's first entry once row has moved before."""
    def fault(spec, z, i, new):
        if i == row and z[i].any():
            new[0] = value
    return fault


def _shrink_on_repeat(row):
    """Shorten row's move the second time the same input is solved.

    The snapshot execution sees an input first and its re-solve second, so
    only the re-solved row differs.
    """
    seen = set()

    def fault(spec, z, i, new):
        key = (i, z.tobytes())
        if i == row and key in seen:
            new *= 1.0 - 1e-6
        seen.add(key)
    return fault


def _leak_sum(spec, z, i, new):
    """The last term's outer solve reads the copies, which a block moves."""
    if i == spec.r - 1:
        new += 1e-3 * z[spec.r:].sum(axis=0)


def _classic_faults(monkeypatch, *faults):
    spec, plan = (fixtures.random_halfspaces(1, 6, 4),
                  dk.classic_dykstra_schedule(6))
    _after_prox_row(monkeypatch, spec, plan, *faults)
    return spec, plan


_STAT_1 = "cycle 2 sweep 1: stationarity residual inf at index 1"
_NON_FINITE = "non-finite duals after cycle 2 sweep 5"


@pytest.mark.parametrize("level", ["sweep", "full"])
@pytest.mark.parametrize("t,message", [
    (0.5, _STAT_1),
    (1.5, "cycle 2 sweep 1: ascent fell short of the quadratic margin"),
    (-0.5, "cycle 2 sweep 1: dual objective decreased by 6.084e-02"),
], ids=["half-step", "overshoot", "backwards"])
def test_fault_in_outer_step_is_reported_at_its_sweep(monkeypatch, level,
                                                      t, message):
    spec, plan = _classic_faults(monkeypatch, _step(0, t))
    with pytest.raises(EngineInvariantError, match=f"^{message}$"):
        dk.run(spec, plan, dk.SolveParams(max_iterations=6,
                                          check_level=level))


@pytest.mark.parametrize("level", ["sweep", "full"])
def test_fault_within_each_sweeps_slack_is_reported_at_the_cycle_end(
        monkeypatch, level):
    # x0 is in every set, so every state has one objective; as read, each
    # state falls by 0.6 ASCENT_TOL, which every per-sweep check lets pass,
    # and cycle 2's three sweeps fall by 1.8 ASCENT_TOL from cycle 1's end
    # (cycle 1 has no cycle end before it)
    objectives = engine._objectives

    def falling(spec, V, total):
        F = objectives(spec, V, total)
        return F - 0.6 * engine.ASCENT_TOL * np.arange(1, F.size + 1)

    monkeypatch.setattr(engine, "_objectives", falling)
    spec = dk.ProblemSpec([-1.0, -1.0], [HS([1.0, 0.0], 0.0),
                                         HS([0.0, 1.0], 0.0),
                                         HS([1.0, 1.0], 0.0)])
    with pytest.raises(EngineInvariantError,
                       match="^cycle 2: end-of-cycle objective decreased$"):
        dk.run(spec, dk.classic_dykstra_schedule(3),
               dk.SolveParams(max_iterations=4, check_level=level))


def test_fault_off_checks_only_the_cycle_end(monkeypatch):
    spec, plan = _classic_faults(monkeypatch, _step(0, -0.5))
    with pytest.raises(EngineInvariantError,
                       match="^cycle 2: end-of-cycle objective decreased$"):
        dk.run(spec, plan, dk.SolveParams(max_iterations=6,
                                          check_level="off"))


@pytest.mark.parametrize("level", ["sweep", "full"])
def test_fault_certificate_distance(monkeypatch, level):
    # movements reported at a tenth shrink gamma below the true distances
    orig = engine._movements

    def short(*args):
        return 0.1 * orig(*args)

    monkeypatch.setattr(engine, "_movements", short)
    spec = fixtures.random_halfspaces(1, 6, 4)
    with pytest.raises(EngineInvariantError,
                       match=r"^cycle 1: certificate for index 1 is"
                             r" 3\.870e-01 from the iterate, beyond gamma"
                             r" 1\.386e-01$"):
        dk.run(spec, dk.classic_dykstra_schedule(6),
               dk.SolveParams(max_iterations=3, check_level=level))


@pytest.mark.parametrize("level", ["sweep", "full"])
def test_fault_certificate_fenchel(monkeypatch, level):
    # a half-step block solve is never checked for stationarity per sweep;
    # its term's certificate point misses the set
    orig = engine._stacked_blocks

    def half(spec, z, v, arg, params, out):
        exact = orig(spec, z, v, arg, params, out)
        _, I, J, I_at, J_at, _ = arg   # outer is None: sweep 2 is one block
        bsum = z[I] + z[J]
        out[I_at] = z[I] + 0.5 * (out[I_at] - z[I])
        out[J_at] = bsum - out[I_at]
        return exact

    patch_solver(monkeypatch, "_stacked_blocks", half)
    spec = fixtures.random_halfspaces(4, 4, 3, m=1)
    with pytest.raises(EngineInvariantError,
                       match="^cycle 1: certificate for index 1 has Fenchel"
                             " residual inf$"):
        dk.run(spec, fixtures.mixed_block_schedule(4),
               dk.SolveParams(max_iterations=3, check_level=level))


@pytest.mark.parametrize("level,message", [
    ("sweep", "cycle 2 sweep 2: dual objective decreased by inf"),
    ("full", "cycle 1 sweep 2: sequential replay disagrees with the snapshot"
             " execution"),
])
def test_fault_seen_only_by_the_replay(monkeypatch, level, message):
    # the outer solve of sweep 2 reads the copies, which its blocks move.
    # In cycle 1 they are zeros in its snapshot, so its logged row is exact
    # and every margin holds; its re-solve, from the state the blocks'
    # logged rows leave, disagrees
    spec = fixtures.random_halfspaces(1, 4, 3, m=3)
    plan = dk.product_space_schedule(4)
    _after_prox_row(monkeypatch, spec, plan, _leak_sum)
    with pytest.raises(EngineInvariantError, match=f"^{message}$"):
        dk.run(spec, plan, dk.SolveParams(max_iterations=4,
                                          check_level=level))


@pytest.mark.parametrize("level,message", [
    ("sweep", "cycle 1: certificate for index 1 has Fenchel residual"
              " 8.969e-03"),
    ("full", "cycle 1 sweep 2: a block subproblem gained less than its"
             " quadratic margin"),
])
def test_fault_block_short_of_its_own_margin(monkeypatch, level, message):
    # in sweep 2 of the product schedule, the block of term 1 moves 1.1
    # times its exact step, which no exact block gains its margin by, and
    # the block of term 2 half its step, which gains more than its margin.
    # The sweep's total gain passes its margin, so "sweep" first fails at
    # the cycle's end; "full" tests each block's own margin
    orig = engine._stacked_blocks
    scale = {0: 1.1, 1: 0.5}

    def uneven(spec, z, v, arg, params, out):
        exact = orig(spec, z, v, arg, params, out)
        # the outer set {r}, folded in, keeps the row orig wrote: the
        # stack's rows in out (I_at) are the blocks' term rows, then its
        _, I, J, I_at, J_at, _ = arg
        rows = np.arange(spec.n_duals)[I].tolist()
        places = np.arange(len(out))[I_at][:len(rows)]
        old, new = z[I], out[places]
        for k, i in enumerate(rows):
            if i in scale:
                new[k] = old[k] + scale[i] * (new[k] - old[k])
        out[places] = new
        out[J_at] = z[I] + z[J] - new
        return exact

    patch_solver(monkeypatch, "_stacked_blocks", uneven)
    spec = fixtures.random_halfspaces(4, 4, 3, m=3)
    with pytest.raises(EngineInvariantError, match=f"^{message}$"):
        dk.run(spec, dk.product_space_schedule(4),
               dk.SolveParams(max_iterations=4, check_level=level))


def _stacked_prox_off_by_one_ulp(monkeypatch):
    """The halfspace stacks' dual prox one ulp off.

    On a classic plan only the batched re-solve of check_level="full" calls
    it: every sweep it re-solves misses its snapshot and is re-solved by
    itself (_resolve_sweep).
    """
    moreau = HalfspaceStack.moreau

    def off(self, U):
        return np.nextafter(moreau(self, U), np.inf)

    monkeypatch.setattr(HalfspaceStack, "moreau", off)


@pytest.mark.parametrize("faults,message", [
    ((0, 4), "cycle 1 sweep 1: sequential replay disagrees with the snapshot"
             " execution"),
    ((4, 0), "cycle 1 sweep 1: stationarity residual inf at index 1"),
], ids=["replay-first", "stationarity-first"])
def test_fault_first_failing_sweep_wins(monkeypatch, faults, message):
    # one row's re-solve disagrees, the other's stationarity fails;
    # whichever sweep comes first in the cycle is reported.  The batched
    # re-solve misses every snapshot, so each sweep before the failing one
    # is re-solved by itself, and the repeated solve of the first row
    # disagrees
    replay_row, stat_row = faults
    _stacked_prox_off_by_one_ulp(monkeypatch)
    spec, plan = _classic_faults(monkeypatch, _shrink_on_repeat(replay_row),
                                 _step(stat_row, 0.5, always=True))
    with pytest.raises(EngineInvariantError, match=f"^{message}$"):
        dk.run(spec, plan, dk.SolveParams(max_iterations=4,
                                          check_level="full"))


_MARK = 1234.5


def _on_solve(row, call, act):
    """act(new) after the call-th solve of row only."""
    calls = [0]

    def fault(spec, z, i, new):
        if i == row:
            calls[0] += 1
            if calls[0] == call:
                act(new)
    return fault


def _write(value):
    def act(new):
        new[0] = value
    return act


def _raise_in_prox(new):
    raise ValueError("prox failed")


def _raise_on_mark(monkeypatch):
    """Halfspace conjugates fail on any state that holds _MARK."""
    support = HalfspaceStack.support

    def marked(self, Z):
        if (Z == _MARK).any():
            raise ValueError("conjugate failed")
        return support(self, Z)

    monkeypatch.setattr(HalfspaceStack, "support", marked)


@pytest.mark.parametrize("batch", [8, 1])
@pytest.mark.parametrize("later,error,message", [
    (_write(np.nan), NonFiniteStateError,
     "non-finite duals after cycle 4 sweep 5"),
    (_raise_in_prox, ValueError, "prox failed"),
    (_write(_MARK), ValueError, "conjugate failed"),
], ids=["non-finite", "prox-raises", "conjugate-raises"])
def test_fault_off_reports_the_first_cycle_end_of_its_batch(
        monkeypatch, batch, later, error, message):
    # cycle 2's objective falls, then cycle 4, in the same batch, fails:
    # the cycle-end check of cycle 2 is still the first error
    monkeypatch.setattr(engine, "_OBJ_BATCH", batch)
    _raise_on_mark(monkeypatch)
    params = dk.SolveParams(max_iterations=6, check_level="off")
    # alone, the later fault is the error
    spec, plan = _classic_faults(monkeypatch, _on_solve(4, 4, later))
    with pytest.raises(error, match=f"^{message}$"):
        dk.run(spec, plan, params)
    monkeypatch.undo()
    monkeypatch.setattr(engine, "_OBJ_BATCH", batch)
    _raise_on_mark(monkeypatch)
    spec, plan = _classic_faults(monkeypatch, _step(0, -0.5),
                                 _on_solve(4, 4, later))
    with pytest.raises(EngineInvariantError,
                       match="^cycle 2: end-of-cycle objective decreased$"):
        dk.run(spec, plan, params)


@pytest.mark.parametrize("level", ["off", "sweep", "full"])
def test_fault_before_a_non_finite_sweep_is_reported_first(monkeypatch,
                                                           level):
    spec, plan = _classic_faults(monkeypatch, _step(0, 0.5), _non_finite(4))
    # "off" has no stationarity check: the non-finite sweep fails first
    message = (_NON_FINITE if level == "off" else _STAT_1)
    with pytest.raises(EngineInvariantError, match=f"^{message}$"):
        dk.run(spec, plan, dk.SolveParams(max_iterations=4,
                                          check_level=level))
    # the written rows are scanned before any dual sum reads them, and
    # nothing is evaluated on the non-finite duals: no RuntimeWarning
    for value in (np.nan, np.inf):
        monkeypatch.undo()
        spec, plan = _classic_faults(monkeypatch, _non_finite(4, value))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonFiniteStateError,
                               match=f"^{_NON_FINITE}$"):
                dk.run(spec, plan, dk.SolveParams(max_iterations=4,
                                                  check_level=level))


@pytest.mark.parametrize("level", ["sweep", "full"])
@pytest.mark.parametrize("case", ["classic", "product", "mixed_block",
                                  "custom_pair", "revisits"])
def test_public_checks_match_the_engine(monkeypatch, case, level):
    # certificate_points takes the same states that the engine's cycle-end
    # pass reads from its sweep log, and computes every index itself, while
    # the engine takes the indices last touched by an exact outer solve from
    # its stationarity pass.  Over 12 cycles, checked in batches of several
    # cycles, each cycle's largest certificate distance and the last cycle's
    # certificates have the bits of certificate_points on the states of a
    # run_sweep loop
    if case == "classic":
        spec = fixtures.random_mixed(5, 6, 4)
        plan = dk.classic_dykstra_schedule(6)
    elif case == "product":
        spec = fixtures.random_mixed(6, 4, 3, m=3)
        plan = dk.product_space_schedule(4)
    elif case == "mixed_block":
        spec = fixtures.random_mixed(7, 4, 3, m=1)
        plan = fixtures.mixed_block_schedule(4)
    elif case == "revisits":   # every index shared, out of sweep order
        spec, plan = fixtures.random_mixed(5, 4, 3), _revisiting_plan()
    else:   # the benchmark's pattern, 7 of its 10 indices shared
        spec = fixtures.random_mixed(7, 8, 6, m=2)
        plan = _custom_pair_plan()
    n_cycles = 12
    sizes = []
    check = engine._CCheck.check

    def recorded(self, spec, log, conj, F, margins, batch, *rest):
        sizes.append(len(batch))
        return check(self, spec, log, conj, F, margins, batch, *rest)

    monkeypatch.setattr(engine._CCheck, "check", recorded)
    with warnings.catch_warnings():
        # the product schedule's growth monitor is advisory
        warnings.simplefilter("ignore", dk.ScheduleGrowthWarning)
        res = dk.run(spec, plan, dk.SolveParams(max_iterations=n_cycles,
                                                check_level=level))
    assert sum(sizes) == n_cycles and max(sizes) >= (
        4 if case == "custom_pair" else 2)
    analysis = dk.validate(plan, spec.r, spec.m)
    st = dk.DualState.zeros(spec)
    for n, row in enumerate(res.cycle_rows, start=1):
        snaps = [st.z.copy()]
        for sweep in plan.cycle(n):
            dk.run_sweep(spec, st, sweep)
            snaps.append(st.z.copy())
        public = dk.certificate_points(spec, snaps,
                                       analysis.for_cycle(plan, n))
        assert row.cert_max_residual == max(c.residual for c in public)
    assert [c.index for c in public] == [c.index for c in res.certificates]
    for a, b in zip(public, res.certificates):
        assert a.point.tobytes() == b.point.tobytes()
        assert a.residual == b.residual and a.fenchel == b.fenchel


def _certificate_point(spec, snaps, c_analysis, i1):
    """Index i1's certificate point, one snapshot sum at a time."""
    p = c_analysis.p[i1]
    if i1 not in c_analysis.via_block:
        return spec.x0 - snaps[p].sum(axis=0)
    if i1 > spec.r:
        return spec.x0 + snaps[p][i1 - 1]
    q = c_analysis.q[i1]
    j1 = c_analysis.via_block[i1]
    part = sorted(i2 - 1 for i2 in c_analysis.block_members[i1] if i2 != j1)
    return (spec.x0 - snaps[p][part].sum(axis=0)
            - (snaps[q].sum(axis=0) - snaps[q][part].sum(axis=0)))


@pytest.mark.parametrize("case", ["classic", "product", "mixed_block",
                                  "part_moves_at_q", "deferred"])
def test_certificate_points_follow_the_formula(case):
    if case == "classic":
        spec = fixtures.random_mixed(5, 6, 4)
        plan = dk.classic_dykstra_schedule(6)
    elif case == "product":
        spec = fixtures.random_mixed(6, 4, 3, m=3)
        plan = dk.product_space_schedule(4)
    elif case == "mixed_block":
        spec = fixtures.random_mixed(7, 4, 3, m=1)
        plan = fixtures.mixed_block_schedule(4)
    elif case == "part_moves_at_q":
        # term 1 is solved with its copy 3 at sweep 1, the matched outer
        # solve q of its block at sweep 3
        spec = fixtures.random_halfspaces(3, 2, 3, m=1)
        plan = dk.CyclePlan(pattern=(dk.SweepPlan(outer={1, 3}),
                                     dk.SweepPlan(outer={2}),
                                     dk.SweepPlan(inner={3: {1, 3}})))
    else:
        spec = fixtures.random_halfspaces(8, 2, 3, m=2)
        plan = dk.rewrite_deferred(invalid_deferred_plan(), 2, 2)
    res = dk.run(spec, plan, dk.SolveParams(max_iterations=1,
                                            check_level="full"))
    c_analysis, snaps = _cycle_snapshots(plan, spec)
    x_final = spec.x0 - snaps[-1].sum(axis=0)
    assert [c.index for c in res.certificates] == list(
        range(1, spec.n_duals + 1))
    for c in res.certificates:
        x = _certificate_point(spec, snaps, c_analysis, c.index)
        assert np.array_equal(c.point, x)
        assert c.residual == float(np.linalg.norm(x - x_final))
        fen = dk.fenchel_residual(spec, snaps[-1], c.index, x)
        assert c.fenchel == fen


def test_run_monotone_objective_and_growth():
    spec = irrational_angle_spec()
    res = dk.run(spec, dk.classic_dykstra_schedule(3),
                 dk.SolveParams(max_iterations=200, check_level="sweep"))
    diffs = np.diff(np.concatenate([[res.F_initial], res.F_per_cycle]))
    assert diffs.min() >= -1e-10
    assert res.growth.shape == (res.cycles_run,)
    # z stays bounded here, so the sqrt-scaled monitor must decay
    assert res.growth[-1] <= res.growth[0] + 1e-12


def test_run_stop_reasons():
    spec = two_halfspace_spec()
    res = dk.run(spec, dk.classic_dykstra_schedule(2),
                 dk.SolveParams(max_iterations=3))
    assert res.stop_reason == "max_iterations" and res.cycles_run == 3


def test_stop_rule_primal_value_matches_the_scalar_reference():
    # the gap rule sums the term values through the stacks; every term kind
    # and points on, inside and outside the sets, and at distance FEAS_TOL
    # up to rounding, give ProblemSpec.primal_value's value, each point
    # alone and all in one call.  From every hint, a cycle at such a point
    # closes exactly when the value is finite, and leaves a term at +inf
    # there as the next hint, the hint itself when it is, else None
    rng = np.random.default_rng(21)
    for kind in TERM_KINDS:
        terms = [sample_term(k, rng, 3)
                 for k in (kind, "l1", kind, "quadratic", kind)]
        # the two copies of the set are one, so its points satisfy both
        terms[2] = terms[4] = terms[0]
        spec = dk.ProblemSpec(rng.standard_normal(3), terms, m=2)
        groups = stack_terms(spec.terms, range(spec.r))
        points = [rng.standard_normal(3) * 3.0 for _ in range(10)]
        points += [terms[0].prox(x, 1.0) for x in points]
        for x in rng.standard_normal((10, 3)) * 30.0:
            p = terms[0].prox(x, 1.0)
            out = (x - p) / max(float(np.linalg.norm(x - p)), 1e-300)
            points += [p + FEAS_TOL * (1.0 + s) * out
                       for s in rng.uniform(-4e-6, 4e-6, 16)]
        V = spec.x0 - np.array(points)
        X = spec.x0 - V   # the points the rule takes
        values = [spec.primal_value(x) for x in X]
        assert np.isinf(values).any() or kind in ("l1", "quadratic")
        assert np.isfinite(values).any()
        sums, _ = engine._term_sums(spec, groups, V)
        for c, (x, value) in enumerate(zip(X, values)):
            one, _ = engine._term_sums(spec, groups, V[c:c + 1])
            for total in (sums[c], one[0]):
                assert (total == value == np.inf or total + (spec.m + 1)
                        * spec.quad_value(x) == value)
            for hint in range(spec.r):
                rule = engine._GapRule(spec, groups, np.inf)
                rule.hint = hint
                assert rule.closes(rule.price(V[c:c + 1]), 0, 0.0) == (
                    value < np.inf)
                if value < np.inf:
                    assert rule.hint is None
                elif spec.terms[hint].value(x) == np.inf:
                    assert rule.hint == hint
                else:
                    assert spec.terms[rule.hint].value(x) == np.inf


@pytest.mark.parametrize("level", ["off", "sweep"])
@pytest.mark.parametrize("make, seed, r, d", [
    (fixtures.random_halfspaces, 4, 10, 4), (fixtures.random_mixed, 2, 8, 6)])
def test_the_gap_rule_asks_its_hint_first_only_after_an_infeasible_cycle(
        monkeypatch, make, seed, r, d, level):
    # in batches of one cycle, the gap rule asks one term for its own value
    # before the stacks only at the first cycle and after a cycle whose
    # iterate lies outside some set: once the iterate is feasible, the next
    # cycle goes straight to the stacks, which hold that term's value too.
    # A batch of more cycles asks a one-row stack of it instead, once for
    # all its cycle ends, and never the term itself (_GapRule._outside).  The
    # halfspaces turn feasible at cycle 3 and stay so up to the gap stop;
    # the mixed sets leave the intersection at cycle 2 and come back at
    # cycle 4
    spec = make(seed, r, d)
    plan = dk.classic_dykstra_schedule(r)
    asked = [0]
    value = dk.Indicator.value

    def counted(self, x):
        asked[0] += 1
        return value(self, x)

    params = dk.SolveParams(max_iterations=500, stop_gap=1e-8,
                            check_level=level)
    monkeypatch.setattr(dk.Indicator, "value", counted)
    batched = dk.run(spec, plan, params)
    asked_batched, asked[0] = asked[0], 0
    monkeypatch.setattr(engine, "_OBJ_BATCH", 1)
    res = dk.run(spec, plan, params, keep_cycle_starts=True)
    monkeypatch.undo()
    assert res.stop_reason == "gap"
    feasible = [math.isfinite(spec.primal_value(spec.x0 - z.sum(axis=0)))
                for z in res.cycle_start_duals[1:]]
    assert feasible[-1] and sum(feasible) >= 3 and not all(feasible)
    assert asked[0] == 1 + feasible[:-1].count(False)
    assert asked_batched <= asked[0]
    # the same stop, cycle and iterate as batches of more cycles and as a
    # run that asks a term first at every cycle
    assert (batched.cycles_run, batched.x.tobytes()) == (res.cycles_run,
                                                         res.x.tobytes())
    closes = engine._GapRule.closes

    def asks_first(self, prices, c, F):
        if self.hint is None:
            self.hint = 0
        return closes(self, prices, c, F)

    monkeypatch.setattr(engine, "_OBJ_BATCH", 1)
    monkeypatch.setattr(engine._GapRule, "closes", asks_first)
    again = dk.run(spec, plan, params)
    assert (again.cycles_run, again.x.tobytes()) == (res.cycles_run,
                                                     res.x.tobytes())


def test_the_stacked_gap_rule_matches_one_point_at_a_time():
    # _GapRule over a batch of cycle ends: one stacked call per term kind
    # gives every primal value bitwise, with the quadratic part added where
    # the terms' sum is finite; closes decides every cycle as the rule of
    # one point at a time does, and the hint it leaves is that of batches
    # of one after the same points.  Every term kind, with points inside,
    # outside and on two sets, over batches of 1 to 5
    rng = np.random.default_rng(34)
    for kind in TERM_KINDS:
        terms = [sample_term(k, rng, 3)
                 for k in (kind, "l1", kind, "quadratic", kind)]
        # the copies of the set are one, so its points satisfy all three
        terms[2] = terms[4] = terms[0]
        spec = dk.ProblemSpec(rng.standard_normal(3), terms, m=1)
        groups = stack_terms(spec.terms, range(spec.r))
        points = [rng.standard_normal(3) * s for s in (0.1, 3.0, 30.0)
                  for _ in range(6)]
        points += [terms[0].prox(x, 1.0) for x in points[:6]]
        rng.shuffle(points)
        V = spec.x0 - np.array(points)
        F = rng.standard_normal(len(V)) - 5.0
        primal = [spec.primal_value(spec.x0 - v) for v in V]
        assert np.isfinite(primal).any()
        assert np.isinf(primal).any() or kind in ("l1", "quadratic")
        one = engine._GapRule(spec, groups, 10.0)
        stacked = engine._GapRule(spec, groups, 10.0)
        at = 0
        for k in (1, 2, 5, 3, 4, 1, 5, 3):
            batch = V[at:at + k]
            # the terms' sums, to which the quadratic part is added where
            # finite, as ProblemSpec.primal_value adds it
            sums, _ = engine._term_sums(spec, groups, batch)
            for v, total, value in zip(batch, sums, primal[at:at + k]):
                assert (total == value == np.inf or total + (spec.m + 1)
                        * spec.quad_value(spec.x0 - v) == value)
            prices = stacked.price(batch)
            for c in range(k):
                assert (stacked.closes(prices, c, F[at + c])
                        == one.closes(one.price(batch[c:c + 1]), 0,
                                      F[at + c]))
                assert stacked.hint == one.hint
            # the terms at all the batch's cycle ends, once taken
            assert prices[1] is None or len(prices[1]) == k
            at += k


class _PerCycleHint(engine._GapRule):
    """The gap rule that asks its hint term itself at each cycle end of a
    batch, as a batch of one does, not a one-row stack of it."""

    __slots__ = ()

    def _outside(self, V):
        term = self.spec.terms[self.hint]
        return [term.value(self.spec.x0 - v) == np.inf for v in V]


def _hint_case(kind):
    """A spec whose first term, the gap rule's first hint, is a set of the
    kind, and cycle ends x inside it, outside it and about at distance
    FEAS_TOL from it; the halfspace {x_1 <= 0} has ends at distance exactly
    FEAS_TOL and one ulp beyond."""
    rng = np.random.default_rng(zlib.crc32(kind.encode()))
    d = 3
    if kind == "halfspace":
        hint = HS(np.eye(d)[0], 0.0)
    else:
        hint = sample_term(kind, rng, d)
    terms = [hint, sample_term("halfspace", rng, d), sample_term("l1", rng, d),
             sample_term(kind, rng, d)]
    spec = dk.ProblemSpec(rng.standard_normal(d) * 0.3, terms, m=1)
    points = [rng.standard_normal(d) * s for s in (0.1, 1.0, 3.0)
              for _ in range(6)]
    for u in rng.standard_normal((6, d)) * 2.0:
        p = hint.prox(u, 1.0)
        out = (u - p) / max(float(np.linalg.norm(u - p)), 1e-300)
        points += [p + FEAS_TOL * (1.0 + s) * out
                   for s in rng.uniform(-4e-6, 4e-6, 4)]
    if kind == "halfspace":
        for x in rng.standard_normal((6, d)):
            x[0] = FEAS_TOL
            points.append(x.copy())
            x[0] = np.nextafter(FEAS_TOL, 1.0)
            points.append(x)
    points = [points[i] for i in rng.permutation(len(points))]
    return spec, np.array(points)


@pytest.mark.parametrize("kind", ["halfspace", "l2ball", "box"])
def test_the_batched_hint_decides_as_the_term_asked_cycle_by_cycle(
        monkeypatch, kind):
    # a batch asks its hint term at all its cycle ends in one value call of
    # a one-row stack of that term: every decision and every hint it leaves
    # are those of the same batches asking the term itself at each cycle,
    # and of batches of one cycle.  The ends lie inside, outside and at
    # distance FEAS_TOL from the hint's set; a box goes through TermStack.
    # A batch of more cycles with a closed-form stack never asks the scalar
    # Indicator.value
    spec, points = _hint_case(kind)
    hint_set = spec.terms[0]
    at_inf = [hint_set.value(x) == np.inf for x in points]
    assert any(at_inf) and not all(at_inf)
    if kind == "halfspace":
        on_edge = [x for x in points if x[0] == FEAS_TOL]
        assert on_edge and all(hint_set.value(x) == 0.0 for x in on_edge)
    groups = stack_terms(spec.terms, range(spec.r))
    V = spec.x0 - points
    F = np.random.default_rng(5).standard_normal(len(V)) - 5.0
    batched, per_cycle, one = (rule(spec, groups, 10.0) for rule in (
        engine._GapRule, _PerCycleHint, engine._GapRule))
    asked, outside = [0], []
    value, find = dk.Indicator.value, engine._GapRule._outside

    def counted(self, x):
        asked[0] += 1
        return value(self, x)

    def recorded(self, V):
        outside.append(find(self, V))
        return outside[-1]

    at = ones = 0
    for k in itertools.cycle((2, 5, 3, 8, 4, 7, 6)):
        if at == len(V):
            break
        batch = V[at:at + k]
        k = len(batch)
        ones += k == 1
        prices = [rule.price(batch) for rule in (batched, per_cycle)]
        for c in range(k):
            with monkeypatch.context() as m:
                m.setattr(dk.Indicator, "value", counted)
                m.setattr(engine._GapRule, "_outside", recorded)
                got = batched.closes(prices[0], c, F[at + c])
            assert got == per_cycle.closes(prices[1], c, F[at + c])
            assert got == one.closes(one.price(batch[c:c + 1]), 0, F[at + c])
            assert batched.hint == per_cycle.hint == one.hint
        at += k
    # outside and inside the hint's set in one call, and a batch that asks
    # it at more than one cycle end
    seen = [flag for flags in outside for flag in flags]
    assert True in seen and False in seen
    assert any(flags[:2] == [True, True] for flags in outside)
    # a batch of one cycle asks the term itself, in _outside
    assert asked[0] <= ones or kind == "box"


@pytest.mark.parametrize("hint", [0, None])
@pytest.mark.parametrize("bad", [0, 1])
def test_a_batched_hint_call_that_raises_falls_back_to_the_term_itself(
        bad, hint):
    # under RuntimeWarning as an error, a cycle end far out overflows the
    # one-row stack's call, or with no hint after a feasible x the stacked
    # call of every term; each cycle of the batch then takes its own row,
    # as batches of one do, asking the term itself once there is a hint: a
    # cycle before the bad one is decided, and the bad cycle's own error
    # comes first
    rng = np.random.default_rng(8)
    spec = dk.ProblemSpec(rng.standard_normal(3) * 0.1, [
        HS(np.array([1.0, 1.0, 0.0]), 0.5), HS(unit(rng, 3), 1.0)], m=1)
    groups = stack_terms(spec.terms, range(spec.r))
    points = np.array([[2.0, 0.0, 0.0]] * 4)
    points[bad] = 1e308
    V = spec.x0 - points
    rule, one = (engine._GapRule(spec, groups, 10.0) for _ in range(2))
    rule.hint = one.hint = hint
    prices = rule.price(V)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for c in range(bad):
            assert not rule.closes(prices, c, -1.0)
            assert not one.closes(one.price(V[c:c + 1]), 0, -1.0)
        with pytest.raises(RuntimeWarning) as want:
            one.closes(one.price(V[bad:bad + 1]), 0, -1.0)
        with pytest.raises(RuntimeWarning) as got:
            rule.closes(prices, bad, -1.0)
    assert "overflow" in str(want.value)
    assert str(got.value) == str(want.value)
    assert prices[1] is False   # the batched call raised
    # a cycle before the bad one lies outside the first set
    assert rule.hint == one.hint == (0 if bad or hint == 0 else None)


@pytest.mark.parametrize("make, seed", [(fixtures.random_halfspaces, 2),
                                        (fixtures.random_mixed, 1)])
def test_a_checks_off_product_run_asks_the_scalar_hint_once_a_batch_at_most(
        monkeypatch, make, seed):
    # with checks off, each batch of priced cycle ends asks its hint term in
    # one stacked call; only a batch of one cycle asks Indicator.value, once
    # at most.  Forcing each cycle of a batch onto its own row, as when a
    # stacked call raises, asks the term itself at each cycle and gives the
    # same run.  A z_init of zeros keeps the run on the whole plan: a cold
    # one would run on a working set (engine._working_set_run)
    spec, plan = make(seed, 8, 6, m=7), dk.product_space_schedule(8)
    params = dk.SolveParams(max_iterations=5000, stop_gap=1e-8,
                            check_level="off")
    z0 = np.zeros((spec.n_duals, spec.d))
    asked, batches = [0], []
    value, flush = dk.Indicator.value, engine._flush_cycle_ends

    def counted(self, x):
        asked[0] += 1
        return value(self, x)

    def counted_flush(spec, groups, Z, V, batch, F_list, gap):
        before = asked[0]
        j = flush(spec, groups, Z, V, batch, F_list, gap)
        batches.append((len(batch), asked[0] - before))
        return j

    monkeypatch.setattr(dk.Indicator, "value", counted)
    monkeypatch.setattr(engine, "_flush_cycle_ends", counted_flush)
    res = dk.run(spec, plan, params, z_init=z0)
    assert res.stop_reason == "gap" and len(batches) > 2
    assert all(n <= (k == 1) for k, n in batches)
    asked_batched, n_batches = asked[0], len(batches)
    asked[0] = 0
    outside = engine._GapRule._outside

    def refused(self, V):
        if len(V) > 1:
            raise FloatingPointError("refused")
        return outside(self, V)

    monkeypatch.setattr(engine._GapRule, "_outside", refused)
    again = dk.run(spec, plan, params, z_init=z0)
    assert asked[0] > 2 * n_batches > asked_batched
    assert (again.cycles_run, again.x.tobytes(), again.F_per_cycle.tobytes()
            ) == (res.cycles_run, res.x.tobytes(), res.F_per_cycle.tobytes())


def test_run_rejects_invalid_schedule():
    rng = np.random.default_rng(1)
    spec = dk.ProblemSpec([1.0, 0.5], [HS(unit(rng, 2), 0.2),
                                       HS(unit(rng, 2), 0.3)], m=2)
    plan = invalid_deferred_plan()
    assert not dk.validate(plan, spec.r, spec.m).valid_B
    for level in ("off", "sweep", "full"):
        with pytest.raises(dk.InvalidScheduleError, match=r"\(B\) violated"):
            dk.run(spec, plan, dk.SolveParams(max_iterations=5,
                                              check_level=level))
    # no setting runs an invalid plan
    with pytest.raises(TypeError, match="allow_invalid_schedule"):
        dk.SolveParams(allow_invalid_schedule=True)


def test_run_rejects_nonfinite_start():
    spec = two_halfspace_spec()
    z0 = np.zeros((2, 2))
    z0[1, 1] = np.nan
    with pytest.raises(ValueError):
        dk.run(spec, dk.classic_dykstra_schedule(2),
               dk.SolveParams(max_iterations=2), z_init=z0)


@pytest.mark.parametrize("shape", [(3, 2), (2, 3), (4,)])
def test_run_rejects_a_start_of_the_wrong_shape(shape):
    spec = two_halfspace_spec()
    message = rf"z_init has shape \({', '.join(map(str, shape))},?\)"
    with pytest.raises(dk.DimensionMismatch, match=message):
        dk.run(spec, dk.classic_dykstra_schedule(2),
               dk.SolveParams(max_iterations=2), z_init=np.zeros(shape))


def test_solve_params_validation():
    with pytest.raises(ValueError):
        dk.SolveParams(max_iterations=0)
    with pytest.raises(ValueError):
        dk.SolveParams(workers=0)
    with pytest.raises(ValueError, match="nested_bcm_sweeps must be at least"):
        dk.SolveParams(nested_bcm_sweeps=0)
    with pytest.raises(ValueError):
        dk.SolveParams(check_level="everything")


@pytest.mark.parametrize("field,value", [
    ("stop_gap", float("nan")), ("stop_gap", -1.0),
    ("nested_tol", float("nan")), ("nested_tol", 0.0)])
def test_solve_params_reject_bad_tolerances(field, value):
    with pytest.raises(ValueError, match=field):
        dk.SolveParams(**{field: value})


@pytest.mark.parametrize("field", ["stop_gap", "nested_tol"])
def test_solve_params_reject_an_integer_beyond_the_float_range(field):
    with pytest.raises(ValueError, match=f"^{field} is out of range$"):
        dk.SolveParams(**{field: 10 ** 400})


@pytest.mark.parametrize("value", ["no", 0, 1.0, None, np.int64(1)])
def test_solve_params_take_only_bools_as_flags(value):
    # "no" is truthy: it would keep per-sweep rows
    with pytest.raises(ValueError,
                       match="^per_sweep_trace must be True or False"):
        dk.SolveParams(per_sweep_trace=value)


def test_solve_params_take_numpy_bools_as_flags():
    params = dk.SolveParams(per_sweep_trace=np.bool_(True))
    assert params.per_sweep_trace is True


@pytest.mark.parametrize("field", ["stop_gap", "nested_tol"])
@pytest.mark.parametrize("value", [True, np.bool_(True), "1e-8", [1e-8]])
def test_solve_params_reject_tolerances_that_are_not_numbers(field, value):
    # a bool would run as 1.0, as config refuses to
    with pytest.raises(ValueError, match=f"^{field} must be a number"):
        dk.SolveParams(**{field: value})


def test_solve_params_take_tolerances_as_floats():
    params = dk.SolveParams(stop_gap=0, nested_tol=np.float32(1e-6))
    assert type(params.stop_gap) is float and params.stop_gap == 0.0
    assert type(params.nested_tol) is float
    assert dk.SolveParams().stop_gap is None


@pytest.mark.parametrize("field", ["max_iterations", "nested_bcm_sweeps",
                                   "workers"])
@pytest.mark.parametrize("value", [2.5, True, "3", float("inf")])
def test_solve_params_reject_counts_that_are_not_integers(field, value):
    with pytest.raises(ValueError, match=field):
        dk.SolveParams(**{field: value})


def test_solve_params_take_integral_counts_as_ints():
    params = dk.SolveParams(max_iterations=3.0, nested_bcm_sweeps=np.int64(2))
    assert type(params.max_iterations) is int
    assert type(params.nested_bcm_sweeps) is int
    res = dk.run(two_halfspace_spec(), dk.classic_dykstra_schedule(2), params)
    assert len(res.F_per_cycle) == 3


def test_workers_one_is_silent():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dk.SolveParams(workers=1)
        dk.SolveParams()


# ---------------------------------------------------------------------------
# product-space reference
# ---------------------------------------------------------------------------

def test_engine_matches_product_space_reference():
    rng = np.random.default_rng(12)
    for trial in range(4):
        d = int(rng.integers(2, 5))
        r = int(rng.integers(2, 5))
        terms = [HS(unit(rng, d), float(rng.uniform(0.1, 0.6)))
                 for _ in range(r)]
        spec = dk.ProblemSpec(rng.standard_normal(d) * 1.5, terms, m=r - 1)
        hist = dk.product_space_reference(spec, n_cycles=30)
        res = dk.run(spec, dk.product_space_schedule(r),
                     dk.SolveParams(max_iterations=30, check_level="full"),
                     keep_cycle_starts=True)
        assert len(res.cycle_start_duals) == 31 and len(hist) == 31
        for mine, ref in zip(res.cycle_start_duals, hist):
            assert np.allclose(mine[:r], ref, atol=1e-9)


@pytest.mark.parametrize("n_cycles,match", [
    (-3, "must be at least 0"), (2.5, "must be an integer"),
    (True, "must be an integer")])
def test_product_space_reference_takes_n_cycles_as_a_count(n_cycles, match):
    # n_cycles=-3 ran no loop body and returned one state
    spec = two_halfspace_spec()
    with pytest.raises(ValueError, match=f"^n_cycles {match}"):
        dk.product_space_reference(spec, n_cycles=n_cycles)
    assert len(dk.product_space_reference(spec, n_cycles=0)) == 1
    assert len(dk.product_space_reference(spec, n_cycles=2.0)) == 3


def test_product_space_reference_needs_indicators():
    spec = dk.ProblemSpec([0.0, 0.0], [dk.L1Norm(2)], m=1)
    with pytest.raises(ValueError):
        dk.product_space_reference(spec, n_cycles=2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_product_space_reference_rejects_a_nonfinite_start(bad):
    # as run rejects it, before any loop body
    spec = two_halfspace_spec()
    z0 = np.zeros((2, 2))
    z0[1, 0] = bad
    with pytest.raises(ValueError, match="^z_init must be finite$"):
        dk.product_space_reference(spec, z_init=z0, n_cycles=2)
    with pytest.raises(ValueError, match="^z_init must be finite$"):
        dk.run(spec, dk.classic_dykstra_schedule(2), z_init=np.vstack(
            [z0, np.zeros((spec.m, 2))]))


def test_product_space_reference_checks_the_start_shape():
    # r rows of d: the m quadratic rows that run takes are not part of it
    spec = two_halfspace_spec(m=1)
    for shape in [(spec.n_duals, 2), (2, 3), (2,)]:
        with pytest.raises(dk.DimensionMismatch,
                           match=rf"^z_init has shape \({shape[0]},"):
            dk.product_space_reference(spec, z_init=np.zeros(shape))
    hist = dk.product_space_reference(spec, z_init=np.ones((2, 2)),
                                      n_cycles=1)
    assert hist[0].tolist() == [[1.0, 1.0], [1.0, 1.0]]
