"""The screen of still sweeps (engine._Screen): a sweep is skipped only when
its solve would surely keep its rows' bytes, +0.0 term rows and a block's
governing row, and a run that skips sweeps has the bits of one that solves
them all."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import dyksplit as dk
from dyksplit import engine, fixtures
from dyksplit.engine import EngineInvariantError

from . import test_engine

try:
    from hypothesis import given
    from hypothesis import strategies as st

    from .test_check_batches import _random_plans, plans
except ImportError:   # the random-plan property needs hypothesis
    given = None

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


# the pair and block sweeps (engine._Screen's other kinds): an outer pair is
# tested at x0 - v, a block of j0 at x0 + z_j0

_P = np.array([0.25, -0.75])
_DIAGONAL = (1.0, 1.0) / np.sqrt(2.0)


def _far(kind):
    """A halfspace, its normal not a unit vector, or a ball, far from every
    iterate here."""
    if kind == "halfspace":
        return dk.Indicator(dk.Halfspace([0.0, 3.0], 60.0))
    return dk.Indicator(dk.L2Ball(_P, 50.0))


def _block_edge_set(kind, delta):
    """A halfspace or ball, the normal not a unit vector, whose slack at x0 +
    (0.5, 0.5) is delta; x0 is _P, so its slack at x0 is sqrt(0.5) plus
    delta."""
    point = _P + 0.5
    if kind == "halfspace":
        a = np.array([3.0, 3.0])
        return dk.Indicator(dk.Halfspace(
            a, float(a @ point) + float(np.linalg.norm(a)) * delta))
    return dk.Indicator(dk.L2Ball(point - (5.0 - delta) * _DIAGONAL, 5.0))


def _diagonal_mover():
    """{x : x_1 + x_2 >= 2 + the sum of x0's}, normal (-2, -2): its dual at
    x0 is (-1, -1), nonzero in both coordinates."""
    return dk.Indicator(dk.Halfspace([-2.0, -2.0], -2.0 * _P.sum() - 4.0))


def _block_plan(members, j0):
    """The copy j0's outer solve, then its block with the term rows
    members, then term 1's outer solve."""
    return dk.CyclePlan(pattern=(S(outer={j0}), S(inner={j0: set(members)
                                                          | {j0}}),
                                 S(outer={1})))


@pytest.mark.parametrize("inside", [True, False], ids=["inside", "outside"])
@pytest.mark.parametrize("kind", ["halfspace", "ball"])
@pytest.mark.parametrize("partner", [None, "halfspace", "ball"],
                         ids=["lone", "pair_halfspace", "pair_ball"])
def test_a_block_set_just_inside_its_bound_is_skipped_and_one_outside_is_not(
        monkeypatch, kind, inside, partner):
    # term 1's dual starts at (-1, -1): the copy's outer solve moves z_j0
    # from its screened +0.0 to (0.5, 0.5), a move of sqrt(0.5), and the
    # block of j0 with term 2 (and a far set 3 of the partner's kind, a
    # pair) is skipped only when its sets hold x0 + (0.5, 0.5); the ball
    # pair's test is pair_duals' ||u - c||^2 <= rho^2
    terms = [_diagonal_mover(),
             _block_edge_set(kind, _DELTA if inside else -_DELTA)]
    if partner is not None:
        terms.append(_far(partner))
    r = len(terms)
    spec = dk.ProblemSpec(_P, terms, m=1)
    plan = _block_plan(range(2, r + 1), r + 1)
    assert engine.sweep_tiers(spec, plan.pattern[1])[0].startswith(
        "stacked" if partner is None else "pair")
    z = np.zeros((r + 1, 2))
    z[0] = -1.0
    first = dk.run(spec, plan, dk.SolveParams(max_iterations=1,
                                              check_level="off"), z_init=z)
    assert first.skipped_sweeps == (1 if inside else 0)
    assert np.array_equal(first.state.z[1:r], np.zeros((r - 1, 2))) == inside
    for level in _LEVELS:
        on, off = _runs(monkeypatch, spec, plan, z_init=z, max_iterations=4,
                        check_level=level, per_sweep_trace=True)
        assert _digest(on) == _digest(off)


@pytest.mark.parametrize("inside", [True, False], ids=["inside", "outside"])
@pytest.mark.parametrize("kind", ["halfspace", "ball"])
@pytest.mark.parametrize("partner", ["halfspace", "ball"])
def test_an_outer_pair_just_inside_its_bound_is_skipped_and_one_outside_is_not(
        monkeypatch, kind, inside, partner):
    # _edge_spec's sets, with a far set of the partner's kind: the outer
    # pair {2, 3} is tested at x0 - v, which sweep 1 moves by exactly 1
    edge = _edge_spec(kind, inside)
    spec = dk.ProblemSpec(edge.x0, list(edge.terms) + [_far(partner)])
    plan = dk.CyclePlan(pattern=(S(outer={1}), S(outer={2, 3})))
    assert engine.sweep_tiers(spec, plan.pattern[1]) == ["pair {2,3}"]
    first = dk.run(spec, plan, dk.SolveParams(max_iterations=1,
                                              check_level="off"))
    assert first.skipped_sweeps == (1 if inside else 0)
    assert np.array_equal(first.state.z[1:], np.zeros((2, 2))) == inside
    for level in _LEVELS:
        on, off = _runs(monkeypatch, spec, plan, max_iterations=3,
                        check_level=level, per_sweep_trace=True)
        assert _digest(on) == _digest(off)


@pytest.mark.parametrize("case", ["clean", "at_the_screen",
                                  "after_the_screen"])
def test_a_negative_zero_in_a_governing_row_stops_the_skip(monkeypatch,
                                                          case):
    # the copy's outer solve keeps z_3 = (0.5, 0.5), or (0.5, -0.0) when
    # the rest of the sum is +0.0 in its second coordinate; from (0.5,
    # +0.0) it writes that -0.0 after the screen.  The block's sum turns a
    # -0.0 into +0.0, so the block with the far set 2 is solved then
    spec = dk.ProblemSpec(_P, [_diagonal_mover(), _far("ball")], m=1)
    plan = _block_plan([2], 3)
    z = np.zeros((3, 2))
    z[0] = (-1.0, -1.0) if case == "clean" else (-1.0, 0.0)
    z[2] = {"clean": (0.5, 0.5), "at_the_screen": (0.5, -0.0),
            "after_the_screen": (0.5, 0.0)}[case]
    first = dk.run(spec, plan, dk.SolveParams(max_iterations=1), z_init=z)
    assert first.skipped_sweeps == (case == "clean")
    assert not np.signbit(first.state.z[2]).any()
    for level in _LEVELS:
        on, off = _runs(monkeypatch, spec, plan, z_init=z, max_iterations=4,
                        check_level=level, per_sweep_trace=True)
        assert _digest(on) == _digest(off)


@pytest.mark.parametrize("written", [False, True])
def test_a_block_member_written_earlier_in_its_cycle_waits_for_the_next_screen(
        monkeypatch, written):
    # sets 1 and 2 lie far inside; the outer pair {1, 2} clears a nonzero
    # z_1, a move, and writes z_2, the block's member, +0.0 again: the
    # block waits for the next cycle's screen, which skips it and the pair
    spec = dk.ProblemSpec(_P, [_far("halfspace"), _far("ball"),
                               _diagonal_mover()], m=1)
    plan = dk.CyclePlan(pattern=(S(outer={1, 2}), S(outer={4}),
                                 S(inner={4: {2, 4}}), S(outer={3})))
    z = np.zeros((4, 2))
    z[0] = 0.25 if written else 0.0
    z[2] = -1.0
    skipped = [dk.run(spec, plan, dk.SolveParams(max_iterations=n),
                      z_init=z).skipped_sweeps for n in (1, 2, 3)]
    assert skipped == ([0, 2, 4] if written else [2, 4, 6])
    for level in _LEVELS:
        on, off = _runs(monkeypatch, spec, plan, z_init=z, max_iterations=4,
                        check_level=level, per_sweep_trace=True)
        assert _digest(on) == _digest(off)


def test_a_block_that_moved_waits_for_the_next_screen_though_z_j0_returns(
        monkeypatch):
    # the screen of cycle 1 is taken with z_3 at z, where set 2 holds x0 +
    # z_3; the copy's solve moves z_3 from z by more than that slack, so the
    # block is solved, and z_2 moves off +0.0.  In cycle 2 the copy's solve
    # brings z_3 back to z, within the bound, but z_2 is not +0.0: the
    # block, which drops itself when it moves, is solved again
    spec = dk.ProblemSpec(_P, [_diagonal_mover(), dk.Indicator(
        dk.Halfspace([-3.0, -3.0], -3.0 * _P.sum() - 3.0 - 0.6 * np.sqrt(
            2.0)))], m=1)
    plan = _block_plan([2], 3)
    z = np.zeros((3, 2))
    z[0] = -1.0
    one = dk.run(spec, plan, dk.SolveParams(max_iterations=1), z_init=z)
    z[2] = -0.5 * (one.state.z[0] + one.state.z[1])   # z_3 in cycle 2
    first = dk.run(spec, plan, dk.SolveParams(max_iterations=1), z_init=z)
    assert first.skipped_sweeps == 0 and first.state.z[1].all()
    for level in _LEVELS:
        on, off = _runs(monkeypatch, spec, plan, z_init=z, max_iterations=3,
                        check_level=level, per_sweep_trace=True)
        assert _digest(on) == _digest(off)


def _solved_kinds(monkeypatch, spec, plan, params):
    """How many times each screened kind of sweep (engine._screen_row) was
    solved in a run, and the run."""
    solved, execute = {}, engine._execute_sweep

    def recorded(spec, z, v, cs, *rest):
        key = engine._screen_row(spec, cs.steps)
        solved[key] = solved.get(key, 0) + 1
        return execute(spec, z, v, cs, *rest)

    with monkeypatch.context() as m:
        m.setattr(engine, "_execute_sweep", recorded)
        res = dk.run(spec, plan, params)
    return solved, res


@pytest.mark.parametrize("level", _LEVELS)
@pytest.mark.parametrize("case", ["mixed", "custom_pair", "custom_nested"])
def test_each_pair_and_block_kind_skips_with_the_bits_of_solving(
        monkeypatch, case, level):
    # mixed-block's sweep 2 is a lone block; the custom pair pattern has a
    # lone block, a block of two members and an outer pair, the nested one
    # only the lone block: each is skipped in some cycles, while its sweep
    # runs once a cycle, after the custom patterns' lead-in cycle
    if case == "mixed":
        spec, plan = (fixtures.random_halfspaces(4, 12, 5, m=1),
                      fixtures.mixed_block_schedule(12))
        kinds = [((0,), 12)]
    else:
        spec = fixtures.random_mixed(11, 8, 6, m=2)
        plan = (test_engine._custom_nested_plan() if case == "custom_nested"
                else test_engine._custom_pair_plan())
        kinds = [((4,), 9)]
        if case == "custom_pair":
            kinds += [((0, 1), 8), ((2, 3), None)]
    for per_sweep in (False, True):
        params = dk.SolveParams(max_iterations=60, check_level=level,
                                per_sweep_trace=per_sweep)
        solved, res = _solved_kinds(monkeypatch, spec, plan, params)
        for kind in kinds:
            runs = res.cycles_run - len(plan.lead_in) * (kind == ((4,), 9))
            assert solved.get(kind, 0) < runs
        on, off = _runs(monkeypatch, spec, plan, max_iterations=60,
                        check_level=level, per_sweep_trace=per_sweep)
        assert on.skipped_sweeps == res.skipped_sweeps
        assert _digest(on) == _digest(off)


@pytest.mark.skipif(given is None, reason="needs hypothesis")
def test_a_random_valid_plan_screened_hashes_equal_to_unscreened():
    # the plans of the convergence property, on halfspaces and balls with
    # a random start that holds -0.0 and +0.0 rows
    skipped = []

    @_random_plans(100)
    @given(plans(), st.integers(1, 10**6), st.sampled_from(_LEVELS),
           st.booleans())
    def check(case, seed, level, signed):
        r, m, plan = case
        spec = fixtures.random_mixed(seed, r, 2, m=m)
        z = np.zeros((spec.n_duals, 2))
        if signed:
            z[::2] = -0.0
        with pytest.MonkeyPatch.context() as mp:
            on, off = _runs(mp, spec, plan, z_init=z, max_iterations=30,
                            check_level=level, per_sweep_trace=True)
        assert _digest(on) == _digest(off)
        skipped.append(on.skipped_sweeps)

    check()
    assert len(skipped) >= 50 and sum(map(bool, skipped)) >= 10


@pytest.mark.parametrize("kind", ["outer_pair", "block_pair", "lone_block"])
def test_a_wrong_skip_of_each_kind_fails_the_full_check(monkeypatch, kind):
    # sweep 2's sets hold its first point but for one, 0.5 outside it:
    # with every slack raised by 1e3 the screen skips it, which the run
    # with checks off does not notice.  The full check's batched re-solve
    # re-solves each skipped sweep from its logged state, finds other rows,
    # and the re-solve of that sweep by itself raises.  Only pairs and blocks screen
    if kind == "outer_pair":
        # sweep 1 moves x0 by 1, into the ball's, 0.5 inside it at x0
        mover = _edge_spec("halfspace", True).terms[0]
        spec = dk.ProblemSpec(_P, [mover, dk.Indicator(dk.L2Ball(
            _P + [-4.5, 0.0], 5.0)), _far("halfspace")])
        plan = dk.CyclePlan(pattern=(S(outer={1}), S(outer={2, 3})))
        z = None
    else:
        terms = [_diagonal_mover(), _block_edge_set("ball", -0.5)]
        if kind == "block_pair":
            terms.append(_far("halfspace"))
        spec = dk.ProblemSpec(_P, terms, m=1)
        plan = _block_plan(range(2, len(terms) + 1), len(terms) + 1)
        z = np.zeros((spec.n_duals, 2))
        z[0] = -1.0
    screen_row, slack_bounds = engine._screen_row, engine._slack_bounds

    def paired(spec, steps):
        key = screen_row(spec, steps)
        return key if type(key) is tuple else None

    monkeypatch.setattr(engine, "_screen_row", paired)
    params = {"max_iterations": 3, "per_sweep_trace": True}
    right = dk.run(spec, plan, dk.SolveParams(check_level="off", **params),
                   z_init=z)
    assert right.skipped_sweeps == 0
    monkeypatch.setattr(engine, "_slack_bounds",
                        lambda *args: slack_bounds(*args) + 1e3)
    wrong = dk.run(spec, plan, dk.SolveParams(check_level="off", **params),
                   z_init=z)
    assert wrong.skipped_sweeps > 0 and _digest(wrong) != _digest(right)
    with pytest.raises(EngineInvariantError, match="^cycle 1 sweep 2: "):
        dk.run(spec, plan, dk.SolveParams(check_level="full", **params),
               z_init=z)
