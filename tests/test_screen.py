"""The screen of still sweeps (engine._Screen): a sweep is skipped only when
its solve would surely keep its row's +0.0 bytes, and a run that skips
sweeps has the bits of one that solves them all."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import dyksplit as dk
from dyksplit import engine, fixtures

from . import test_engine

S = dk.SweepPlan
_LEVELS = ["off", "sweep", "full"]


def _load_hash_runs():
    """tools/hash_runs.py, whose digest hashes a RunResult by its bytes."""
    path = Path(__file__).resolve().parent.parent / "tools" / "hash_runs.py"
    spec = importlib.util.spec_from_file_location("hash_runs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_digest = _load_hash_runs().digest


def _runs(monkeypatch, spec, plan, z_init=None, **params):
    """The RunResults of plan with and without the screen."""
    params = dk.SolveParams(**params)
    on = dk.run(spec, plan, params, z_init=z_init, keep_cycle_starts=True)
    with monkeypatch.context() as m:
        test_engine._screen_off(m)
        off = dk.run(spec, plan, params, z_init=z_init, keep_cycle_starts=True)
    assert off.skipped_sweeps == 0
    return on, off


_DELTA = 1e-9   # how far inside or outside the bound, far above its slack


def _edge_spec(kind, inside):
    """Term 1, {x : x_1 >= 1} shifted by p, moves x from x0 = p to p + (1,
    0), a move of exactly 1; term 2 is a halfspace or ball whose slack at
    x0 is 1 plus or minus _DELTA, and x then lies _DELTA inside it or
    outside it.  The normals are not unit vectors.  The ball case outside
    leaves the two sets apart, which three cycles allow."""
    delta = _DELTA if inside else -_DELTA
    p = np.array([0.25, -0.75])
    first = dk.Indicator(dk.Halfspace([-2.0, 0.0], -2.0 - 2.0 * p[0]))
    if kind == "halfspace":
        second = dk.Halfspace([3.0, 0.0], 3.0 * (1.0 + delta + p[0]))
    else:
        second = dk.L2Ball(p + [-4.0 + delta, 0.0], 5.0)
    return dk.ProblemSpec(p, [first, dk.Indicator(second)])


@pytest.mark.parametrize("inside", [True, False], ids=["inside", "outside"])
@pytest.mark.parametrize("kind", ["halfspace", "ball"])
def test_a_set_just_inside_the_bound_is_skipped_and_one_outside_is_not(
        monkeypatch, kind, inside):
    spec = _edge_spec(kind, inside)
    plan = dk.classic_dykstra_schedule(2)
    # the first cycle screens at x0: sweep 1 is violated and moves by 1,
    # then sweep 2 is skipped only when its set holds (1, 0)
    first = dk.run(spec, plan, dk.SolveParams(max_iterations=1,
                                              check_level="off"))
    assert first.skipped_sweeps == (1 if inside else 0)
    assert np.array_equal(first.state.z[1], [0.0, 0.0]) == inside
    for level in _LEVELS:
        on, off = _runs(monkeypatch, spec, plan, max_iterations=3,
                        check_level=level, per_sweep_trace=True)
        assert _digest(on) == _digest(off)


def test_a_negative_zero_row_is_not_skipped(monkeypatch):
    # term 1 moves; terms 2 and 3 lie far inside, with z_2 = -0.0, whose
    # solve writes +0.0: only term 3 is skipped in the first cycle
    spec = dk.ProblemSpec([0.0, 0.0], [
        dk.Indicator(dk.Halfspace([-1.0, 0.0], -1.0)),
        dk.Indicator(dk.Halfspace([0.0, 1.0], 10.0)),
        dk.Indicator(dk.L2Ball([0.0, 0.0], 10.0))])
    plan = dk.classic_dykstra_schedule(3)
    z = np.zeros((3, 2))
    z[1] = -0.0
    first = dk.run(spec, plan, dk.SolveParams(max_iterations=1), z_init=z)
    assert first.skipped_sweeps == 1
    assert not np.signbit(first.state.z[1]).any()
    for level in _LEVELS:
        on, off = _runs(monkeypatch, spec, plan, z_init=z, max_iterations=3,
                        check_level=level, per_sweep_trace=True)
        assert _digest(on) == _digest(off)


def test_a_row_written_earlier_in_its_cycle_waits_for_the_next_screen(
        monkeypatch):
    # sweep 1 solves the pair {1, 2} and moves, writing row 2 (+0.0 again:
    # set 2 is inactive); sweep 2 screens row 2, which waits for the next
    # cycle's screen.  Set 3 lies far inside: sweep 4 is skipped at once
    spec = dk.ProblemSpec([0.0, 0.0], [
        dk.Indicator(dk.Halfspace([-1.0, 0.0], -1.0)),
        dk.Indicator(dk.Halfspace([0.0, 1.0], 10.0)),
        dk.Indicator(dk.Halfspace([0.0, -1.0], 10.0))])
    plan = dk.CyclePlan(pattern=(S(outer={1, 2}), S(outer={2}),
                                 S(outer={1}), S(outer={3})))
    assert engine.sweep_tiers(spec, plan.pattern[0]) == ["pair {1,2}"]
    skipped = [dk.run(spec, plan, dk.SolveParams(max_iterations=n))
               .skipped_sweeps for n in (1, 2)]
    assert skipped == [1, 3]
    for level in _LEVELS:
        on, off = _runs(monkeypatch, spec, plan, max_iterations=4,
                        check_level=level, per_sweep_trace=True)
        assert _digest(on) == _digest(off)


@pytest.mark.parametrize("level", _LEVELS)
def test_a_product_plan_never_screens(monkeypatch, level):
    # no product sweep is a single prox row: no screen is built, and no
    # stack's slack is taken
    built, slacks = [], []
    of, take = engine._Screen.of, engine._Screen.slacks

    def recorded_of(*args):
        built.append(of(*args))
        return built[-1]

    def recorded_slacks(self, *args):
        slacks.append(args)
        return take(self, *args)

    monkeypatch.setattr(engine._Screen, "of", recorded_of)
    monkeypatch.setattr(engine._Screen, "slacks", recorded_slacks)
    spec = fixtures.random_mixed(9, 5, 3, m=4)
    res = dk.run(spec, dk.product_space_schedule(5),
                 dk.SolveParams(max_iterations=10, check_level=level))
    assert built == [None] and slacks == []
    assert res.skipped_sweeps == 0


def _skip_runs(monkeypatch, spec, plan, params):
    """Whether some cycle of a classic run opens with two or more skipped
    sweeps, and whether some cycle closes with two or more: the sweeps
    solved, 1-based, fall into cycles where they stop rising."""
    solved, execute = [], engine._execute_sweep

    def recorded(spec, z, v, cs, *rest):
        solved.append(cs.outer1[0])
        return execute(spec, z, v, cs, *rest)

    with monkeypatch.context() as m:
        m.setattr(engine, "_execute_sweep", recorded)
        dk.run(spec, plan, params)
    starts = [w for k, w in enumerate(solved) if not k or w <= solved[k - 1]]
    ends = [w for k, w in enumerate(solved)
            if k == len(solved) - 1 or solved[k + 1] <= w]
    return (any(w >= 3 for w in starts),
            any(w <= len(plan.pattern) - 2 for w in ends))


@pytest.mark.parametrize("level", _LEVELS)
@pytest.mark.parametrize("case", ["classic", "classic_runs", "mixed",
                                  "custom_pair", "custom_nested"])
def test_screened_runs_hash_equal_to_unscreened_ones(monkeypatch, case,
                                                     level):
    if case == "classic":
        spec, plan = (fixtures.random_mixed(3, 12, 5),
                      dk.classic_dykstra_schedule(12))
    elif case == "classic_runs":
        # most sweeps are skipped, in runs of several that open and close
        # cycles, each run skipped in one step
        spec, plan = (fixtures.random_halfspaces(1, 40, 10),
                      dk.classic_dykstra_schedule(40))
    elif case == "mixed":
        spec, plan = (fixtures.random_halfspaces(4, 12, 5, m=1),
                      fixtures.mixed_block_schedule(12))
    else:
        spec = fixtures.random_mixed(8, 8, 6, m=2)
        plan = (test_engine._custom_nested_plan() if case == "custom_nested"
                else test_engine._custom_pair_plan())
    for gap in (None, 1e-8):
        for per_sweep in (False, True):
            on, off = _runs(monkeypatch, spec, plan, max_iterations=60,
                            stop_gap=gap, check_level=level,
                            per_sweep_trace=per_sweep)
            assert on.skipped_sweeps > 0
            assert _digest(on) == _digest(off)
            if case == "classic_runs":
                assert (on.skipped_sweeps
                        >= 0.6 * on.cycles_run * len(plan.pattern))
        if case == "classic_runs":
            assert _skip_runs(monkeypatch, spec, plan, dk.SolveParams(
                max_iterations=60, stop_gap=gap,
                check_level=level)) == (True, True)
