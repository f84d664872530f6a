"""Cold, gap-stopped product-space runs on a working set of their terms
(engine._working_set_run), and the runs that stay on the whole plan."""

import math

import numpy as np
import pytest

import dyksplit as dk
from dyksplit import engine, fixtures, oracle
from dyksplit.state import dual_objective

from .test_engine import _custom_nested_plan, _custom_pair_plan

STOP_GAP = 1e-8
LEVELS = ("off", "sweep", "full")


def _bound(spec):
    """README's distance bound of a gap stop, sqrt(2·stop_gap/(m + 1))."""
    return math.sqrt(2.0 * STOP_GAP / (spec.m + 1))


def _product(spec, level, **kw):
    return dk.run(spec, dk.product_space_schedule(spec.r),
                  dk.SolveParams(stop_gap=STOP_GAP, max_iterations=20000,
                                 check_level=level, **kw))


def _assert_stops_at(spec, res, x_ref, slack=0.0):
    assert res.rounds is not None
    assert res.stop_reason == "gap"
    assert np.linalg.norm(res.x - x_ref) <= _bound(spec) + slack
    assert (spec.primal_value(res.x) - dual_objective(spec, res.state)
            <= STOP_GAP)
    dk.gap_report(spec, res.state, res.x)   # does not raise


# ---------------------------------------------------------------------------
# against independent references
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("seed, r, d", [(1, 12, 6), (2, 12, 6), (3, 12, 6),
                                        (4, 12, 6), (1, 24, 8), (3, 24, 8)])
def test_halfspace_runs_land_within_the_bound_of_qp_project(level, seed, r,
                                                            d):
    spec = fixtures.random_halfspaces(seed, r, d, m=r - 1)
    x_star = dk.qp_project(dk.PolyhedralInstance.from_spec(spec))
    res = _product(spec, level)
    _assert_stops_at(spec, res, x_star)
    assert len(res.rounds) > 1


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_mixed_runs_land_within_the_bound_of_reference_solve(level, seed):
    spec = fixtures.random_mixed(seed, 16, 6, m=15)
    x_ref = oracle.reference_solve(spec, tol=1e-10)
    res = _product(spec, level)
    _assert_stops_at(spec, res, x_ref, slack=1e-10)
    assert len(res.rounds) > 1


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("case", [("halfspaces", 1, 200, 50),
                                  ("halfspaces", 2, 200, 50),
                                  ("mixed", 1, 50, 20), ("mixed", 2, 50, 20),
                                  ("mixed", 3, 50, 20), ("mixed", 4, 50, 20)])
def test_larger_runs_land_within_the_bound_of_reference_solve(level, case):
    kind, seed, r, d = case
    make = (fixtures.random_halfspaces if kind == "halfspaces"
            else fixtures.random_mixed)
    spec = make(seed, r, d, m=r - 1)
    x_ref = oracle.reference_solve(spec, tol=1e-10)
    _assert_stops_at(spec, _product(spec, level), x_ref, slack=1e-10)


# ---------------------------------------------------------------------------
# the result is the whole problem's
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("level", LEVELS)
def test_every_round_runs_the_classic_plan_of_its_sets(level):
    # a round of W runs |W| sweeps a cycle, one a set, with no blocks: each
    # row's w is the size of its round's W, which only grows
    spec = fixtures.random_mixed(3, 50, 20, m=49)
    res = _product(spec, level, per_sweep_trace=True)
    assert len(res.rounds) == 3
    rows = list(res.cycle_rows)
    sizes = [row.w for row in rows]
    assert sizes == sorted(sizes)
    assert sorted(set(sizes)) == [len(W) for W in res.rounds]
    assert res.state.w == len(res.rounds[-1])
    assert not any(row.inner_diffs for row in rows)
    sweeps = list(res.sweep_rows)
    assert len(sweeps) == sum(sizes)
    assert not any(row.inner_diffs for row in sweeps)


@pytest.mark.parametrize("level", LEVELS)
def test_the_result_maps_every_round_onto_the_whole_problem(level):
    spec = fixtures.random_halfspaces(2, 12, 6, m=11)
    r, m = spec.r, spec.m
    res = _product(spec, level, per_sweep_trace=True)
    rounds = res.rounds
    assert len(rounds) == 3
    # W starts as the set of the least slack at x0 and only grows
    slack = [t.set.b - t.set.a @ spec.x0 for t in spec.terms]
    assert rounds[0] == (int(np.argmin(slack)) + 1,)
    for a, b in zip(rounds, rounds[1:]):
        assert set(a) < set(b) and list(b) == sorted(b)
    # the state: W's rows times alpha, zeros elsewhere, equal copy rows
    W = [i - 1 for i in rounds[-1]]
    alpha = m + 1
    z = res.state.z
    assert z.shape == (r + m, spec.d)
    assert not z[[i for i in range(r) if i not in W]].any()
    assert np.array_equal(z[r:], np.broadcast_to(
        z[:r].sum(axis=0) / -(m + 1), (m, spec.d)))
    # the last round, rerun with the classic plan on W's own problem, with
    # no copies (m = 0), has alpha times its gap
    sub = dk.ProblemSpec(spec.x0, [spec.terms[i] for i in W])
    plan = dk.classic_dykstra_schedule(len(W))
    last = dk.run(sub, plan, dk.SolveParams(
        stop_gap=STOP_GAP / (m + 1), max_iterations=20000,
        check_level=level), z_init=np.zeros((sub.n_duals, sub.d)))
    assert last.x.tobytes() == res.x.tobytes()
    assert np.array_equal(z[W], alpha * last.state.z)
    assert res.F == alpha * last.F
    assert spec.primal_value(res.x) - res.F == pytest.approx(
        alpha * (sub.primal_value(last.x) - last.F), rel=1e-6, abs=1e-15)
    # every row runs on from the rounds before and bounds the optimum, up
    # to the rounding of the objectives
    x_star = dk.qp_project(dk.PolyhedralInstance.from_spec(spec))
    optimum = (m + 1) * spec.quad_value(x_star)
    rows = list(res.cycle_rows)
    assert [row.n for row in rows] == list(range(1, res.cycles_run + 1))
    assert [row.F for row in rows] == res.F_per_cycle.tolist()
    assert max(res.F_per_cycle) <= optimum + 1e-12
    assert rows[0].w == 1 and rows[-1].w == len(W)
    assert len(res.gamma) == len(res.growth) == res.cycles_run
    assert np.all(np.diff(res.sq_diff_cumsum) >= 0.0)
    for name in ("gamma", "growth", "F_per_cycle", "sq_diff_cumsum"):
        assert not getattr(res, name).flags.writeable
    # per-sweep rows: one a set
    assert len(res.sweep_rows) == sum(row.w for row in rows)
    if level == "off":
        assert res.certificates is None
    else:
        assert sorted(c.index for c in res.certificates) == list(rounds[-1])


def test_max_iterations_caps_the_rounds_together():
    spec = fixtures.random_halfspaces(2, 12, 6, m=11)
    full = _product(spec, "off")
    assert len(full.rounds) == 3 and len(full.rounds[0]) == 1
    # a cap inside the second round stops it there: the first, of one set,
    # runs the classic plan, one sweep a cycle
    cap = sum(row.w == 1 for row in full.cycle_rows) + 5
    res = dk.run(spec, dk.product_space_schedule(spec.r),
                 dk.SolveParams(stop_gap=STOP_GAP, max_iterations=cap,
                                check_level="off"))
    assert res.stop_reason == "max_iterations"
    assert res.cycles_run == cap == len(res.cycle_rows)
    assert res.rounds == full.rounds[:2]


@pytest.mark.parametrize("level", LEVELS)
def test_an_infeasible_product_run_spends_its_cap_over_all_rounds(level):
    # x1 <= -1 and x1 >= 1 are disjoint; x2 <= 1 holds at both
    spec = dk.ProblemSpec([0.0, 0.0], [
        dk.Indicator(dk.Halfspace([1.0, 0.0], -1.0)),
        dk.Indicator(dk.Halfspace([-1.0, 0.0], -1.0)),
        dk.Indicator(dk.Halfspace([0.0, 1.0], 1.0))], m=2)
    res = dk.run(spec, dk.product_space_schedule(3),
                 dk.SolveParams(stop_gap=STOP_GAP, max_iterations=60,
                                check_level=level))
    assert res.stop_reason == "max_iterations"
    assert res.cycles_run == 60 == len(res.cycle_rows)
    assert res.rounds == [(1,), (1, 2)]


def test_a_set_that_x_holds_by_less_than_rho_joins():
    # W = {1, 2} stops near the corner (0, 0), W's projection; the third
    # set holds x by about 1e-6 / sqrt(2), less than rho: only a margin of
    # rho proves that it holds W's projection, so it joins, although here
    # it does hold it and the answer stays the corner
    H = lambda a, b: dk.Indicator(dk.Halfspace(a, b))
    spec = dk.ProblemSpec([2.0, 1.0], [
        H([1.0, 0.0], 0.0), H([0.0, 1.0], 0.0), H([-1.0, -1.0], 1e-6)], m=2)
    res = dk.run(spec, dk.product_space_schedule(3),
                 dk.SolveParams(stop_gap=STOP_GAP, max_iterations=2000,
                                check_level="off"))
    assert res.rounds == [(1,), (1, 2), (1, 2, 3)]
    _assert_stops_at(spec, res, np.zeros(2))


# ---------------------------------------------------------------------------
# every other run stays on the whole plan, bit for bit
# ---------------------------------------------------------------------------

def _whole_plan(spec, plan, params, z_init=None, keep_cycle_starts=False):
    return engine._run(spec, plan, params, dk.validate(plan, spec.r, spec.m),
                       z_init, keep_cycle_starts)


def _assert_same_run(a, b):
    assert a.rounds is None and b.rounds is None
    assert (a.stop_reason, a.cycles_run, a.F, a.F_initial) == (
        b.stop_reason, b.cycles_run, b.F, b.F_initial)
    for name in ("x", "gamma", "growth", "F_per_cycle", "sq_diff_cumsum"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    assert a.state.z.tobytes() == b.state.z.tobytes()
    assert a.cycle_rows == list(b.cycle_rows)
    assert (a.certificates is None) == (b.certificates is None)
    for p, q in zip(a.certificates or (), b.certificates or ()):
        assert p.index == q.index and p.point.tobytes() == q.point.tobytes()


@pytest.mark.parametrize("case", ["classic", "mixed_block", "custom",
                                  "custom_cli"])
def test_other_plans_stay_on_the_whole_plan(case):
    if case == "classic":
        spec, plan = (fixtures.random_mixed(3, 8, 6),
                      dk.classic_dykstra_schedule(8))
    elif case == "mixed_block":
        spec, plan = (fixtures.random_mixed(3, 8, 6, m=1),
                      fixtures.mixed_block_schedule(8))
    else:
        spec = fixtures.random_mixed(3, 8, 6, m=2)
        plan = (_custom_nested_plan() if case == "custom"
                else _custom_pair_plan())
    params = dk.SolveParams(stop_gap=STOP_GAP, max_iterations=3000,
                            check_level="sweep")
    _assert_same_run(dk.run(spec, plan, params),
                     _whole_plan(spec, plan, params))


def test_product_runs_without_the_four_conditions_stay_on_the_whole_plan():
    spec = fixtures.random_halfspaces(2, 8, 6, m=7)
    plan = dk.product_space_schedule(8)
    params = dk.SolveParams(stop_gap=STOP_GAP, max_iterations=400,
                            check_level="off")
    assert _product(spec, "off").rounds is not None
    # no stop rule
    free = dk.SolveParams(max_iterations=40, check_level="off")
    _assert_same_run(dk.run(spec, plan, free), _whole_plan(spec, plan, free))
    # a z_init, even of zeros
    z0 = np.zeros((spec.n_duals, spec.d))
    _assert_same_run(dk.run(spec, plan, params, z_init=z0),
                     _whole_plan(spec, plan, params, z_init=z0))
    # cycle starts kept
    kept = dk.run(spec, plan, params, keep_cycle_starts=True)
    whole = _whole_plan(spec, plan, params, keep_cycle_starts=True)
    _assert_same_run(kept, whole)
    assert len(kept.cycle_start_duals) == kept.cycles_run + 1
    # a term that is no halfspace or ball indicator
    for term in (dk.L1Norm(6, 0.5), dk.Indicator(dk.Box(-np.ones(6),
                                                        np.ones(6)))):
        other = dk.ProblemSpec(spec.x0, spec.terms[:-1] + (term,), m=7)
        _assert_same_run(dk.run(other, plan, params),
                         _whole_plan(other, plan, params))
