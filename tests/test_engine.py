"""Subproblem solves, full runs, checks, and the product-space reference."""

import warnings

import numpy as np
import pytest

import dyksplit as dk
from dyksplit import engine, fixtures
from dyksplit.engine import (EngineInvariantError, NonFiniteStateError,
                             _assert_freeze)
from dyksplit.terms import FEAS_TOL, stack_terms, stacked_conjugates

from .support import (TERM_KINDS, invalid_deferred_plan, irrational_angle_spec,
                      run_until, sample_term, two_halfspace_spec, unit,
                      valid_deferred_plan)

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
    assert dk.solve_outer(spec, st, []) is True
    assert np.array_equal(st.z, before)


def test_outer_single_prox_desk():
    spec = dk.ProblemSpec([1.0, 0.0], [HS([1.0, 0.0], 0.0)], m=0)
    st = dk.DualState.zeros(spec)
    assert dk.solve_outer(spec, st, [1]) is True
    assert np.allclose(st.z, [[1.0, 0.0]], atol=1e-15)


def test_outer_quadratic_rows_desk():
    spec = dk.ProblemSpec([0.0, 0.0], [HS([1.0, 0.0], 0.0)], m=1)
    st = dk.DualState(np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert dk.solve_outer(spec, st, [2]) is True
    assert np.allclose(st.z[1], [-0.5, 0.0], atol=1e-15)
    # three copies solved jointly each take -c / 4
    spec3 = dk.ProblemSpec([0.0, 0.0], [HS([1.0, 0.0], 0.0)], m=3)
    st3 = dk.DualState(np.zeros((4, 2)))
    st3.z[0] = [2.0, -1.0]
    assert dk.solve_outer(spec3, st3, [2, 3, 4]) is True
    assert np.allclose(st3.z[1:], [[-0.5, 0.25]] * 3, atol=1e-15)


def test_outer_prox_plus_quads_desk():
    # one projection plus both copies: x lands exactly on the set
    spec = dk.ProblemSpec([1.0, 2.0], [HS([1.0, 0.0], 0.0)], m=2)
    st = dk.DualState.zeros(spec)
    assert dk.solve_outer(spec, st, [1, 2, 3]) is True
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
            dk.solve_outer(spec, st, [i])
        pick = int(rng.integers(1, r + 1))
        quads = list(range(r + 1, r + 1 + int(rng.integers(0, m + 1))))
        S = [pick] + quads
        assert dk.solve_outer(spec, st, S) is True
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
        exact = dk.solve_outer(spec, st, [1, 2], params)
        assert exact is False
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
        assert dk.solve_outer(spec, st, S, params) is False
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
    assert dk.solve_inner_block(spec, st, 2, [1, 2]) is True
    assert np.allclose(st.z, [[1.4, 0.0], [-1.0, 0.0]], atol=1e-15)


def test_inner_block_empty_members_is_noop():
    # an empty block is dropped like in any SweepPlan; it must not zero the
    # governing row
    spec = dk.ProblemSpec([1.0, 0.0], [HS([1.0, 0.0], 0.0)], m=1)
    st = dk.DualState(np.array([[0.5, 0.1], [0.4, 0.2]]))
    before = st.z.copy()
    assert dk.solve_inner_block(spec, st, 2, []) is True
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
        dk.solve_inner_block(spec, st, j, members)
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
            dk.solve_outer(spec, st, [i])
        before = dk.dual_objective(spec, st)
        members = [1, 2, 3] if rng.random() < 0.5 else [2, 4]
        dk.solve_inner_block(spec, st, members[-1], members)
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
        exact = dk.solve_inner_block(spec, st, 3, [1, 2, 3], params)
        assert exact is False
        inst = dk.PolyhedralInstance(
            [dk.LinearConstraint(a1, b1, "le"),
             dk.LinearConstraint(a2, b2, "le")],
            bsum + spec.x0)
        w_star = dk.qp_project(inst)
        assert w_star is not None
        assert np.linalg.norm(st.z[2] + spec.x0 - w_star) <= 1e-7


def test_single_step_ops_keep_their_error_types():
    spec = two_halfspace_spec(m=1)
    st = dk.DualState.zeros(spec)
    for S in ([0], [4], [1, 4]):
        with pytest.raises(IndexError):
            dk.solve_outer(spec, st, S)
    for j, members in ((1, [1, 2]), (3, [1]), (3, [3, 4]), (3, [1, 2])):
        with pytest.raises(dk.ScheduleStructureError):
            dk.solve_inner_block(spec, st, j, members)
    assert np.array_equal(st.z, np.zeros((3, 2)))


def test_run_sweep_diagnostics():
    spec = two_halfspace_spec()
    st = dk.DualState.zeros(spec)
    out = dk.run_sweep(spec, st, dk.SweepPlan(outer=[1]))
    assert out["exact"] is True
    assert out["v_diff"] == pytest.approx(np.linalg.norm(st.z[0]))
    assert out["inner_diffs"] == {}
    assert st.w == 1


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
                                            check_level="sweep"))
    for z_start in res.cycle_start_duals[1:]:
        # reconstruct sweep 1 from the cycle-start snapshot
        st = dk.DualState(z_start.copy())
        dk.run_sweep(spec, st, plan.pattern[0])
        c = z_start[:3].sum(axis=0)
        assert np.allclose(st.z[3:], np.tile(-c / 3.0, (2, 1)), atol=1e-14)


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


@pytest.mark.parametrize("spec", [fixtures.random_halfspaces(5, 20, 10, m=19),
                                  fixtures.random_mixed(6, 6, 4, m=5)],
                         ids=["halfspaces", "mixed"])
def test_product_run_same_bits_with_and_without_sweep_checks(spec):
    # "off" takes F from dual_objective_z at cycle ends and "sweep" from the
    # per-row conjugate cache; both read the same stacked conjugates
    plan = dk.product_space_schedule(spec.r)
    off, checked = (dk.run(spec, plan, dk.SolveParams(max_iterations=30,
                                                      check_level=level))
                    for level in ("off", "sweep"))
    assert np.array_equal(off.state.z, checked.state.z)
    assert np.array_equal(off.F_per_cycle, checked.F_per_cycle)
    assert np.isfinite(off.F_per_cycle).all()


def _freeze_fixture(plan, spec):
    """One real cycle's snapshots and analysis, from public run_sweep."""
    analysis = dk.validate(plan, spec.r, spec.m)
    st = dk.DualState.zeros(spec)
    snaps = [st.z.copy()]
    for sweep in plan.cycle(1):
        dk.run_sweep(spec, st, sweep)
        snaps.append(st.z.copy())
    return analysis.for_cycle(plan, 1), snaps


def test_freeze_check_rejects_move_after_last_touch():
    spec = fixtures.random_halfspaces(2, 4, 3)
    c_analysis, snaps = _freeze_fixture(dk.classic_dykstra_schedule(4), spec)
    _assert_freeze(c_analysis, snaps, 1)
    # z_1 is last touched at sweep 1; drift it from sweep 3 on
    bad = [s.copy() for s in snaps]
    for s in bad[3:]:
        s[0, 1] = np.nextafter(s[0, 1], np.inf)
    with pytest.raises(EngineInvariantError,
                       match=r"^cycle 1: z_1 moved after its last touch"
                             r" \(sweep 1 vs 3\)$"):
        _assert_freeze(c_analysis, bad, 1)
    # a move that a later snapshot undoes is reported at the sweep it happened
    bad = [s.copy() for s in snaps]
    bad[2][0, 0] += 1.0
    with pytest.raises(EngineInvariantError,
                       match=r"z_1 moved after its last touch \(sweep 1 vs 2\)"):
        _assert_freeze(c_analysis, bad, 1)


def test_freeze_check_rejects_move_inside_protected_window():
    # index 3 is solved outer at sweep 1 and governs the block {1, 3} at
    # sweep 3, so both block rows are frozen during sweep 2
    spec = fixtures.random_halfspaces(3, 2, 3, m=1)
    plan = dk.CyclePlan(pattern=(dk.SweepPlan(outer={3}),
                                 dk.SweepPlan(outer={2}),
                                 dk.SweepPlan(inner={3: {1, 3}})))
    c_analysis, snaps = _freeze_fixture(plan, spec)
    assert c_analysis.q == {1: 1, 3: 1} and c_analysis.p[1] == 3
    _assert_freeze(c_analysis, snaps, 1)
    for row in (0, 2):
        bad = [s.copy() for s in snaps]
        bad[2][row, 2] += 1.0
        with pytest.raises(EngineInvariantError,
                           match=rf"^cycle 1: block member z_{row + 1} moved"
                                 r" inside the protected window \(1\.\.2\)$"):
            _assert_freeze(c_analysis, bad, 1)


def test_certificates_from_cached_conjugates_match_fresh_ones():
    # the engine passes its per-row conjugate cache; the public call
    # without it evaluates every h_i*(z_i) itself
    spec = fixtures.random_mixed(7, 4, 3, m=1)
    plan = fixtures.mixed_block_schedule(4)
    c_analysis, snaps = _freeze_fixture(plan, spec)
    groups = stack_terms(spec.terms, range(spec.r))
    conj = stacked_conjugates(groups, snaps[-1], np.empty(spec.r))
    fresh = dk.certificate_points(spec, snaps, c_analysis)
    cached = dk.certificate_points(spec, snaps, c_analysis, conj)
    assert [c.index for c in cached] == [c.index for c in fresh]
    for a, b in zip(fresh, cached):
        assert np.array_equal(a.point, b.point) and a.residual == b.residual
        assert abs(a.fenchel - b.fenchel) <= 1e-12
    assert max(c.fenchel for c in fresh) < 1e-8


# ---------------------------------------------------------------------------
# fault injection: every check raises its own message at its own sweep
# ---------------------------------------------------------------------------
#
# Each fault is a pure function of a solver's input, so a replay at
# check_level="full" sees the same fault as the sweep it replays.  The
# messages are those of the sweep-by-sweep checks, which the cycle-end check
# pass must reproduce, first failure first.

def _after_prox_row(monkeypatch, *faults):
    """Apply each fault(spec, z, i, out) after every _prox_row solve."""
    orig = engine._prox_row

    def solver(spec, z, i, params, out):
        exact = orig(spec, z, i, params, out)
        for fault in faults:
            fault(spec, z, i, out)
        return exact

    monkeypatch.setattr(engine, "_prox_row", solver)


def _step(row, t, always=False):
    """Scale row's move by t, unless always only once it has moved before."""
    def fault(spec, z, i, out):
        if i == row and (always or z[i].any()):
            out[i] = z[i] + t * (out[i] - z[i])
    return fault


def _nudge(at_row, row):
    """Move row by one ulp whenever at_row is solved."""
    def fault(spec, z, i, out):
        if i == at_row:
            out[row] = np.nextafter(z[row], np.inf)
    return fault


def _non_finite(row, value=np.nan):
    """Write value into row's first entry and minus value into z_1's.

    An infinite value then makes the first column of the dual sum inf - inf.
    """
    def fault(spec, z, i, out):
        if i == row and z[i].any():
            out[i, 0] = value
            out[0, 0] = -value
    return fault


def _shrink_on_repeat(row):
    """Shorten row's move the second time the same input is solved.

    The snapshot execution sees an input first and its replay second, so
    only the replay's row differs.
    """
    seen = set()

    def fault(spec, z, i, out):
        key = (i, z.tobytes())
        if i == row and key in seen:
            out[i] *= 1.0 - 1e-6
        seen.add(key)
    return fault


def _leak_sum(spec, z, i, out):
    """The last term's outer solve reads the copies, which a block moves."""
    if i == spec.r - 1:
        out[i] = out[i] + 1e-3 * z[spec.r:].sum(axis=0)


def _classic_faults(monkeypatch, *faults):
    _after_prox_row(monkeypatch, *faults)
    return fixtures.random_halfspaces(1, 6, 4), dk.classic_dykstra_schedule(6)


_STAT_1 = "cycle 2 sweep 1: stationarity residual inf at index 1"


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


def test_fault_off_checks_only_the_cycle_end(monkeypatch):
    spec, plan = _classic_faults(monkeypatch, _step(0, -0.5))
    with pytest.raises(EngineInvariantError,
                       match="^cycle 2: end-of-cycle objective decreased$"):
        dk.run(spec, plan, dk.SolveParams(max_iterations=6,
                                          check_level="off"))


@pytest.mark.parametrize("level", ["sweep", "full"])
@pytest.mark.parametrize("at_row", [1, 2, 5])
def test_fault_moving_frozen_rows_fails_freeze(monkeypatch, level, at_row):
    # z_1 is last touched at sweep 1; the sweep that solves at_row moves it,
    # from the first sweep after its last touch to the last of the cycle
    spec, plan = _classic_faults(monkeypatch, _nudge(at_row, 0))
    with pytest.raises(EngineInvariantError,
                       match=r"^cycle 1: z_1 moved after its last touch"
                             rf" \(sweep 1 vs {at_row + 1}\)$"):
        dk.run(spec, plan, dk.SolveParams(max_iterations=3,
                                          check_level=level))
    # the protected window: block member z_1 moves at sweep 2, before the
    # block {1, 3} runs at sweep 3
    monkeypatch.undo()
    _after_prox_row(monkeypatch, _nudge(1, 0))
    spec = fixtures.random_halfspaces(3, 2, 3, m=1)
    plan = dk.CyclePlan(pattern=(dk.SweepPlan(outer={3}),
                                 dk.SweepPlan(outer={2}),
                                 dk.SweepPlan(inner={3: {1, 3}})))
    with pytest.raises(EngineInvariantError,
                       match=r"^cycle 1: block member z_1 moved inside the"
                             r" protected window \(1\.\.2\)$"):
        dk.run(spec, plan, dk.SolveParams(max_iterations=3,
                                          check_level=level))


@pytest.mark.parametrize("level", ["sweep", "full"])
def test_fault_certificate_distance(monkeypatch, level):
    # movements reported at a tenth shrink gamma below the true distances
    orig = engine._movement

    def short(*args):
        v, inner = orig(*args)
        return 0.1 * v, {j: 0.1 * d for j, d in inner.items()}

    monkeypatch.setattr(engine, "_movement", short)
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

    def half(spec, z, arg, params, out):
        exact = orig(spec, z, arg, params, out)
        _, I, J = arg
        bsum = z[I] + z[J]
        out[I] = z[I] + 0.5 * (out[I] - z[I])
        out[J] = bsum - out[I]
        return exact

    monkeypatch.setattr(engine, "_stacked_blocks", half)
    spec = fixtures.random_halfspaces(4, 4, 3, m=1)
    with pytest.raises(EngineInvariantError,
                       match="^cycle 1: certificate for index 1 has Fenchel"
                             " residual inf$"):
        dk.run(spec, fixtures.mixed_block_schedule(4),
               dk.SolveParams(max_iterations=3, check_level=level))


@pytest.mark.parametrize("level,message", [
    ("sweep", "cycle 2 sweep 2: dual objective decreased by inf"),
    ("full", "cycle 1 sweep 2: a outer subproblem gained less than its"
             " quadratic margin"),
])
def test_fault_seen_only_by_the_replay(monkeypatch, level, message):
    _after_prox_row(monkeypatch, _leak_sum)
    spec = fixtures.random_halfspaces(1, 4, 3, m=3)
    with pytest.raises(EngineInvariantError, match=f"^{message}$"):
        dk.run(spec, dk.product_space_schedule(4),
               dk.SolveParams(max_iterations=4, check_level=level))


@pytest.mark.parametrize("faults,message", [
    ((0, 4), "cycle 1 sweep 1: sequential replay disagrees with the snapshot"
             " execution"),
    ((4, 0), "cycle 1 sweep 1: stationarity residual inf at index 1"),
], ids=["replay-first", "stationarity-first"])
def test_fault_first_failing_sweep_wins(monkeypatch, faults, message):
    # one row's replay disagrees, the other's stationarity fails; whichever
    # sweep comes first in the cycle is reported
    replay_row, stat_row = faults
    spec, plan = _classic_faults(monkeypatch, _shrink_on_repeat(replay_row),
                                 _step(stat_row, 0.5, always=True))
    with pytest.raises(EngineInvariantError, match=f"^{message}$"):
        dk.run(spec, plan, dk.SolveParams(max_iterations=4,
                                          check_level="full"))


@pytest.mark.parametrize("level", ["sweep", "full"])
def test_fault_before_a_non_finite_sweep_is_reported_first(monkeypatch,
                                                           level):
    spec, plan = _classic_faults(monkeypatch, _step(0, 0.5),
                                 _non_finite(4))
    with pytest.raises(EngineInvariantError, match=f"^{_STAT_1}$"):
        dk.run(spec, plan, dk.SolveParams(max_iterations=4,
                                          check_level=level))
    # nothing is evaluated on the non-finite duals: no RuntimeWarning
    for value in (np.nan, np.inf):
        monkeypatch.undo()
        spec, plan = _classic_faults(monkeypatch, _non_finite(4, value))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonFiniteStateError,
                               match="^non-finite duals after cycle 2"
                                     " sweep 5$"):
                dk.run(spec, plan, dk.SolveParams(max_iterations=4,
                                                  check_level=level))


@pytest.mark.parametrize("case", ["classic", "product", "mixed_block"])
def test_public_checks_match_the_engine(case):
    # certificate_points and the list form of _assert_freeze take the same
    # snapshots that the engine's cycle-end pass reads from its buffer
    if case == "classic":
        spec = fixtures.random_mixed(5, 6, 4)
        plan = dk.classic_dykstra_schedule(6)
    elif case == "product":
        spec = fixtures.random_mixed(6, 4, 3, m=3)
        plan = dk.product_space_schedule(4)
    else:
        spec = fixtures.random_mixed(7, 4, 3, m=1)
        plan = fixtures.mixed_block_schedule(4)
    res = dk.run(spec, plan, dk.SolveParams(max_iterations=1))
    c_analysis, snaps = _freeze_fixture(plan, spec)
    _assert_freeze(c_analysis, snaps, 1)
    public = dk.certificate_points(spec, snaps, c_analysis)
    assert [c.index for c in public] == [c.index for c in res.certificates]
    for a, b in zip(public, res.certificates):
        assert np.array_equal(a.point, b.point)
        assert abs(a.residual - b.residual) <= 1e-15
        assert abs(a.fenchel - b.fenchel) <= 1e-15


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
    c_analysis, snaps = _freeze_fixture(plan, spec)
    x_final = spec.x0 - snaps[-1].sum(axis=0)
    assert [c.index for c in res.certificates] == list(
        range(1, spec.n_duals + 1))
    for c in res.certificates:
        x = _certificate_point(spec, snaps, c_analysis, c.index)
        assert np.array_equal(c.point, x)
        assert c.residual == float(np.linalg.norm(x - x_final))
        fen = dk.fenchel_residual(spec, snaps[-1], c.index, x)
        assert c.fenchel == fen or abs(c.fenchel - fen) <= 1e-12


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
    # up to rounding, give the same value
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
        values = [spec.primal_value(x) for x in points]
        assert np.isinf(values).any() or kind in ("l1", "quadratic")
        assert np.isfinite(values).any()
        for x, value in zip(points, values):
            for hint in range(spec.r):
                got, first = engine._primal_value(spec, groups, x, hint)
                assert got == value
                # the next call's hint is a term at +inf, when there is one
                if got == np.inf:
                    assert spec.terms[first].value(x) == np.inf
                else:
                    assert first == hint


def test_run_rejects_invalid_schedule():
    rng = np.random.default_rng(1)
    spec = dk.ProblemSpec([1.0, 0.5], [HS(unit(rng, 2), 0.2),
                                       HS(unit(rng, 2), 0.3)], m=2)
    plan = invalid_deferred_plan()
    with pytest.raises(dk.InvalidScheduleError):
        dk.run(spec, plan, dk.SolveParams(max_iterations=5))
    res = dk.run(spec, plan, dk.SolveParams(max_iterations=5,
                                            allow_invalid_schedule=True))
    assert res.certificates is None
    assert not res.analysis.valid_B


def test_run_rejects_nonfinite_start():
    spec = two_halfspace_spec()
    z0 = np.zeros((2, 2))
    z0[1, 1] = np.nan
    with pytest.raises(ValueError):
        dk.run(spec, dk.classic_dykstra_schedule(2),
               dk.SolveParams(max_iterations=2), z_init=z0)


def test_solve_params_validation():
    with pytest.raises(ValueError):
        dk.SolveParams(max_iterations=0)
    with pytest.raises(ValueError):
        dk.SolveParams(workers=0)
    with pytest.raises(ValueError):
        dk.SolveParams(check_level="everything")


@pytest.mark.parametrize("field,value", [
    ("stop_gap", float("nan")), ("stop_gap", -1.0),
    ("nested_tol", float("nan")), ("nested_tol", 0.0)])
def test_solve_params_reject_bad_tolerances(field, value):
    with pytest.raises(ValueError, match=field):
        dk.SolveParams(**{field: value})


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
                     dk.SolveParams(max_iterations=30, check_level="full"))
        assert len(res.cycle_start_duals) == 31 and len(hist) == 31
        for mine, ref in zip(res.cycle_start_duals, hist):
            assert np.allclose(mine[:r], ref, atol=1e-9)


def test_product_space_reference_needs_indicators():
    spec = dk.ProblemSpec([0.0, 0.0], [dk.L1Norm(2)], m=1)
    with pytest.raises(ValueError):
        dk.product_space_reference(spec, n_cycles=2)
