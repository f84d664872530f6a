"""Checked cycles in batches: the bits, the flush points and the error order."""

import builtins
import contextlib
import math

import numpy as np
import pytest

import dyksplit as dk
from dyksplit import engine, fixtures
from dyksplit import terms as terms_module
from dyksplit.engine import EngineInvariantError, NonFiniteStateError
from dyksplit.terms import (DOM_TOL, BallStack, HalfspaceStack, moreau_dual,
                           stack_terms)

from . import test_engine
from .test_engine import _dots_kernel

try:
    from hypothesis import HealthCheck, assume, given, settings
    from hypothesis import strategies as st
except ImportError:   # only the random plans need it
    given = None


def _case(name):
    if name == "classic":
        return fixtures.random_mixed(5, 6, 4), dk.classic_dykstra_schedule(6)
    if name == "product":
        return (fixtures.random_halfspaces(1, 4, 3, m=3),
                dk.product_space_schedule(4))
    if name == "mixed_block":
        return (fixtures.random_mixed(7, 4, 3, m=1),
                fixtures.mixed_block_schedule(4))
    if name == "prox_quad":
        # sweep 1 is one term row and the copy after it (_prox_quad_rows)
        S = dk.SweepPlan
        return fixtures.random_mixed(3, 4, 3, m=1), dk.CyclePlan(pattern=(
            S(outer={1, 5}), S(outer={2}), S(outer={3}), S(outer={4})))
    if name == "revisits":
        return fixtures.random_mixed(5, 4, 3), test_engine._revisiting_plan()
    if name == "custom_pair":
        # a halfspace and a ball in each joint subproblem (_pair_rows)
        return (fixtures.random_mixed(7, 8, 6, m=2),
                test_engine._custom_pair_plan())
    # both nested fallbacks; the block {5, 10} is deferred to a lead-in
    return fixtures.random_mixed(7, 8, 6, m=2), test_engine._custom_nested_plan()


def _check(spec, plan, level):
    """The _CCheck of the plan's pattern, as run compiles it."""
    analysis = dk.validate(plan, spec.r, spec.m)
    return engine._CCheck([engine._CSweep(s, spec) for s in plan.pattern],
                          spec, analysis.cycles[0], {}, level == "full")


def _recording(sizes):
    """_CCheck.check, appending the number of cycles of each batch to sizes."""
    check = engine._CCheck.check

    def recorded(self, spec, log, conj, F, margins, batch, *rest):
        sizes.append(len(batch))
        return check(self, spec, log, conj, F, margins, batch, *rest)

    return recorded


def _batch_sizes(monkeypatch):
    """Record the number of cycles of every batch the checks take."""
    sizes = []
    monkeypatch.setattr(engine._CCheck, "check", _recording(sizes))
    return sizes


def _flush_sizes(monkeypatch):
    """Record the number of cycles of every checks-off pricing batch."""
    sizes = []
    flush = engine._flush_cycle_ends

    def recorded(spec, groups, Z, V, batch, F_list, gap):
        sizes.append(len(batch))
        return flush(spec, groups, Z, V, batch, F_list, gap)

    monkeypatch.setattr(engine, "_flush_cycle_ends", recorded)
    return sizes


def _one_cycle_batches(monkeypatch, level):
    """Make every batch of the level hold one cycle."""
    if level == "off":
        monkeypatch.setattr(engine, "_OBJ_BATCH", 1)
    else:
        monkeypatch.setattr(engine, "_CHECK_BATCH_BYTES", 0)


def _assert_same_result(a, b):
    for name in ("F_per_cycle", "gamma", "growth", "sq_diff_cumsum", "x"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    assert a.state.z.tobytes() == b.state.z.tobytes()
    assert (a.F, a.F_initial, a.stop_reason, a.cycles_run, a.any_approx,
            a.skipped_sweeps) == (b.F, b.F_initial, b.stop_reason,
                                  b.cycles_run, b.any_approx,
                                  b.skipped_sweeps)
    assert (a.cycle_start_duals is None) == (b.cycle_start_duals is None)
    assert len(a.cycle_start_duals or ()) == len(b.cycle_start_duals or ())
    for p, q in zip(a.cycle_start_duals or (), b.cycle_start_duals or ()):
        assert p.tobytes() == q.tobytes()
    assert a.cycle_rows == b.cycle_rows
    assert a.sweep_rows == b.sweep_rows
    assert (a.certificates is None) == (b.certificates is None)
    for p, q in zip(a.certificates or (), b.certificates or ()):
        assert p.index == q.index
        assert p.point.tobytes() == q.point.tobytes()
        assert (p.residual, p.fenchel) == (q.residual, q.fenchel)


@pytest.mark.parametrize("level", ["sweep", "full"])
@pytest.mark.parametrize("case", ["classic", "product", "mixed_block",
                                  "custom_nested", "custom_pair"])
def test_checked_batches_give_the_bits_of_one_cycle_at_a_time(
        monkeypatch, case, level):
    # caps on both sides of a full batch, gap stops inside one, and a zero
    # gap that tests every feasible cycle: every field, trace row and
    # certificate is that of batches of one, and "off" has the objectives
    # of the checked run.  The gap closes in one cycle, so a second gap stop
    # starts from the duals after two cycles: the custom cases then stop 2
    # cycles sooner, so that one of the two stops lies inside a batch of
    # any size from 2 to 8, not on its last cycle
    spec, plan = _case(case)
    sizes = _batch_sizes(monkeypatch)
    per_cycle = _check(spec, plan, level).cycle_bytes
    later = dk.run(spec, plan, dk.SolveParams(max_iterations=2,
                                              check_level="off")).state.z
    mid_batch = False
    for cap, gap, start in [
            (1, None, None), (3, None, None), (7, None, None),
            (8, None, None), (26, None, None), (400, 1e-8, None),
            (400, 1e-8, later), (26, 0.0, None)]:
        def solve(level):
            return dk.run(spec, plan, dk.SolveParams(
                max_iterations=cap, stop_gap=gap, check_level=level,
                per_sweep_trace=True), z_init=start)

        sizes.clear()
        batched = solve(level)
        batched_sizes = sizes[:]
        with monkeypatch.context() as m:
            m.setattr(engine, "_CHECK_BATCH_BYTES", 0)
            sizes.clear()
            single = solve(level)
            assert set(sizes) == {1}
        _assert_same_result(batched, single)
        off = solve("off")
        assert off.F_per_cycle.tobytes() == batched.F_per_cycle.tobytes()
        assert ([row.F for row in off.cycle_rows]
                == [row.F for row in batched.cycle_rows])
        assert (off.stop_reason, off.cycles_run) == (batched.stop_reason,
                                                     batched.cycles_run)
        # a stop's batch is checked whole: its cycles after the stop ran
        n_batch = min(engine._OBJ_BATCH, cap,
                      engine._CHECK_BATCH_BYTES // per_cycle)
        assert max(batched_sizes) == min(n_batch,
                                         max(1, cap - len(plan.lead_in)))
        assert sum(batched_sizes) >= batched.cycles_run
        if batched.stop_reason == "gap":
            mid_batch = mid_batch or (
                batched.cycles_run < sum(batched_sizes))
    assert mid_batch


def _arrays(x):
    """The arrays in the nested tuples and lists x, depth first."""
    if isinstance(x, np.ndarray):
        return [x]
    if isinstance(x, (tuple, list)):
        return [a for y in x for a in _arrays(y)]
    return []


@pytest.mark.parametrize("level", ["sweep", "full"])
@pytest.mark.parametrize("case", ["classic", "product", "mixed_block",
                                  "custom_nested", "custom_pair"])
def test_the_check_indices_take_four_bytes_an_entry(case, level):
    # every array of a check pass's _Index is int32, gathers the bits of an
    # intp take, and is counted in cycle_bytes at 4 bytes an entry per cycle
    spec, plan = _case(case)
    chk = _check(spec, plan, level)
    K = 3
    at = chk._build(K)
    arrays = _arrays(tuple(at)[1:])
    assert arrays and all(a.dtype == np.int32 for a in arrays)
    rng = np.random.default_rng(3)
    A = rng.standard_normal((max(int(a.max()) for a in arrays) + 1, spec.d))
    for a in arrays:
        wide = a.astype(np.intp)
        assert A.take(a, axis=0).tobytes() == A.take(wide, axis=0).tobytes()
        if len(a) % K == 0:   # a gather's: the same rows of each cycle
            for k in range(1, K + 1):
                assert (engine._gather(A, a, k, K).tobytes()
                        == engine._gather(A, wide, k, K).tobytes())
    # the entries a cycle adds; the certificate layout's rows are fixed
    per_cycle = (sum(a.size for a in arrays)
                 - sum(a.size for a in _arrays(tuple(chk._build(K - 1))[1:])))
    doubles = (chk.P + chk.W) * spec.d + chk.W * (spec.r + 1)
    assert chk.cycle_bytes == 8 * doubles + 4 * per_cycle


def test_the_batch_budget_holds_six_custom_cycles_and_one_classic(
        monkeypatch):
    # _CHECK_BATCH_BYTES against cycle_bytes: the benchmark's custom
    # pattern at (r, d) = (8, 6) batches 6 cycles after its lead-in cycle,
    # at either check level, and classic (50, 20) one, so that a change of
    # the budget, or of what it counts, that moves them is deliberate
    sizes = _batch_sizes(monkeypatch)
    spec, plan = _case("custom_pair")
    for level in ("sweep", "full"):
        sizes.clear()
        dk.run(spec, plan, dk.SolveParams(max_iterations=13,
                                          check_level=level))
        assert sizes == [1, 6, 6]
    sizes.clear()
    dk.run(fixtures.random_halfspaces(1, 50, 20),
           dk.classic_dykstra_schedule(50), dk.SolveParams(max_iterations=3))
    assert sizes == [1, 1, 1]


@pytest.mark.parametrize("level", ["off", "sweep", "full"])
def test_a_pattern_that_leaves_a_term_row_unwritten_is_refused(level):
    # condition (A): a cycle of a plan that runs writes every term row, so
    # its conjugates at a cycle's end never depend on those at its start
    spec = fixtures.random_halfspaces(3, 4, 3)
    S = dk.SweepPlan
    plan = dk.CyclePlan(pattern=(S(outer={1}), S(outer={2}), S(outer={4})))
    with pytest.raises(dk.InvalidScheduleError,
                       match=r"\(A\) violated: index 3 is never touched"):
        dk.run(spec, plan, dk.SolveParams(max_iterations=20,
                                          check_level=level))


@pytest.mark.parametrize("level", ["off", "sweep", "full"])
@pytest.mark.parametrize("case", ["classic", "custom_nested"])
def test_the_gap_rule_prices_no_cycle_twice(monkeypatch, case, level):
    # the gap rule reads each cycle's objective where its batch's check,
    # or with checks off its pricing, finds it: run calls dual_objective_z
    # only for F_initial with checks off, and _primal_value only for the
    # cycles checked or priced alone; a batch of more takes the term values
    # of its cycle ends in at most one stacked call per term kind.  x is
    # feasible at most cycle ends of these runs, and the gap never closes
    if case == "classic":
        spec = fixtures.random_halfspaces(2, 6, 4)
        plan = dk.classic_dykstra_schedule(6)
    else:
        spec = fixtures.random_mixed(3, 8, 6, m=2)
        plan = test_engine._custom_nested_plan()
    calls = {"dual_objective_z": 0, "_primal_value": 0}
    for name in calls:
        def counted(*args, _name=name, _f=getattr(engine, name)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(engine, name, counted)
    stacked = []
    term_sums = engine._term_sums

    def recorded(spec, groups, V):
        stacked.append(len(V))
        return term_sums(spec, groups, V)

    monkeypatch.setattr(engine, "_term_sums", recorded)
    sizes = (_flush_sizes(monkeypatch) if level == "off"
             else _batch_sizes(monkeypatch))
    res = dk.run(spec, plan, dk.SolveParams(
        max_iterations=100, stop_gap=0.0, check_level=level),
        keep_cycle_starts=True)
    assert res.stop_reason == "max_iterations"
    assert res.F_per_cycle.tolist() == [dk.dual_objective(spec, z)
                                        for z in res.cycle_start_duals[1:]]
    assert calls["dual_objective_z"] == (1 if level == "off" else 0)
    assert sum(sizes) == 100 and max(sizes) > 1
    assert calls["_primal_value"] == sizes.count(1)
    # at most one stacked call a batch of more cycles, over all of them
    assert stacked and all(k > 1 for k in stacked)
    assert len(stacked) <= len([k for k in sizes if k > 1])
    if level == "off":
        n_batch = min(engine._OBJ_BATCH, engine._OFF_BATCH_BYTES // (
            spec.n_duals * spec.d * 8))
        assert sizes == [n_batch] * (100 // n_batch) + (
            [100 % n_batch] if 100 % n_batch else [])


def _stop_problem(case):
    """The spec and plan of a gap stop test: the product schedule's, whose
    gap closes slowly, or a _case."""
    if case == "product":
        return (fixtures.random_halfspaces(3, 8, 6, m=7),
                dk.product_space_schedule(8))
    return _case(case)


@pytest.mark.parametrize("level", ["off", "sweep", "full"])
@pytest.mark.parametrize("case", ["product", "custom_pair"])
def test_a_gap_that_closes_anywhere_in_a_batch_gives_one_cycle_batches(
        monkeypatch, case, level):
    # the gap rule is tested in each batch's cycle-ordered pass, and the run
    # is cut back to the first cycle whose gap closes, whose batch ran the
    # cycles after it: at the first, a middle and the last cycle of a
    # batch, every field, skipped_sweeps, cycle start, certificate and
    # per-sweep row is that of one-cycle batches, which never ran them.
    # Starting from the duals after j cycles moves the stop through the
    # batches
    spec, plan = _stop_problem(case)
    sizes = (_flush_sizes(monkeypatch) if level == "off"
             else _batch_sizes(monkeypatch))
    places = set()
    for j in range(8):
        start = dk.run(spec, plan, dk.SolveParams(
            max_iterations=j, check_level="off")).state.z if j else None

        def solve():
            return dk.run(spec, plan, dk.SolveParams(
                max_iterations=400, stop_gap=1e-8, check_level=level,
                per_sweep_trace=True), z_init=start, keep_cycle_starts=True)

        sizes.clear()
        batched = solve()
        assert batched.stop_reason == "gap"
        # the stop's place in the last batch, which is full
        assert sizes[-1] == max(sizes) > 1
        place = batched.cycles_run - sum(sizes[:-1])
        places.add("first" if place == 1 else
                   "last" if place == sizes[-1] else "middle")
        with monkeypatch.context() as m:
            _one_cycle_batches(m, level)
            single = solve()
        _assert_same_result(batched, single)
    assert places == {"first", "middle", "last"}


def _write_in_cycle(monkeypatch, n, act):
    """act(out) on the rows of each sweep solved in cycle n: a checked or
    unchecked run takes each cycle's movements once, at its end."""
    ends = [0]
    movements = engine._movements
    execute = engine._execute_sweep

    def counted(*args):
        ends[0] += 1
        return movements(*args)

    def faulty(spec, z, v, cs, params, out):
        exact = execute(spec, z, v, cs, params, out)
        if ends[0] == n - 1:
            act(out)
        return exact

    monkeypatch.setattr(engine, "_movements", counted)
    monkeypatch.setattr(engine, "_execute_sweep", faulty)


def _add_one(out):
    out += 1.0


_NAN_79 = ("non-finite", NonFiniteStateError,
           "non-finite duals after cycle 79 sweep 2")
_CHECK_79 = ("check", EngineInvariantError, "cycle 79 sweep 2: .*")


@pytest.mark.parametrize("level,fault,error,message", [
    ("off",) + _NAN_79, ("sweep",) + _NAN_79, ("full",) + _NAN_79,
    ("sweep",) + _CHECK_79, ("full",) + _CHECK_79])
def test_nothing_of_a_cycle_after_the_stop_surfaces(monkeypatch, level,
                                                    fault, error, message):
    # custom_pair's gap closes at cycle 78, the 5th of its batch of six
    # (the 6th of eight with checks off): a NaN written in cycle 79, or
    # rows of cycle 79 moved off their solves, which fails its first
    # solved sweep's check (its sweep 1 is screened), is an error alone,
    # and after the stop in the same batch it does not surface, since a
    # cycle-by-cycle run never runs cycle 79
    spec, plan = _case("custom_pair")
    write = _write(np.nan) if fault == "non-finite" else _add_one
    hits = []

    def inject(monkeypatch, n):
        _write_in_cycle(monkeypatch, n, lambda out: hits.append(write(out)))

    def solve(cap, gap):
        return dk.run(spec, plan, dk.SolveParams(
            max_iterations=cap, stop_gap=gap, check_level=level,
            per_sweep_trace=True), keep_cycle_starts=True)

    with monkeypatch.context() as m:
        inject(m, 79)
        with pytest.raises(error, match=f"^{message}$"):
            solve(79, None)
    hits.clear()
    with monkeypatch.context() as m:
        inject(m, 79)
        batched = solve(400, 1e-8)
    assert (batched.stop_reason, batched.cycles_run) == ("gap", 78)
    assert hits   # cycle 79 ran, in the stop's batch
    with monkeypatch.context() as m:
        _one_cycle_batches(m, level)
        single = solve(400, 1e-8)
    _assert_same_result(batched, single)


@pytest.mark.parametrize("level", ["sweep", "full"])
@pytest.mark.parametrize("n", [77, 78])
def test_a_failing_check_up_to_the_stop_still_raises(monkeypatch, level, n):
    # custom_pair's gap closes at cycle 78: a cycle's checks are decided
    # before its gap test, so a failing check of cycle 77 or of the stop
    # cycle itself raises its error, batched or checked cycle by cycle
    spec, plan = _case("custom_pair")
    for one in (False, True):
        with monkeypatch.context() as m:
            if one:
                _one_cycle_batches(m, level)
            _write_in_cycle(m, n, _add_one)
            with pytest.raises(EngineInvariantError,
                               match=f"^cycle {n} sweep 2: "):
                dk.run(spec, plan, dk.SolveParams(
                    max_iterations=400, stop_gap=1e-8, check_level=level))


@pytest.mark.parametrize("level", ["off", "sweep", "full"])
@pytest.mark.parametrize("cap", [78, 79])
def test_a_stop_in_the_last_batch_before_the_cap(monkeypatch, level, cap):
    # custom_pair's gap closes at cycle 78: with a cap of 78 or 79 its
    # batch is the run's last, checked or priced when the loop ends (but
    # for cap 79 with checks on, which fills it), and the run stops by the
    # gap rule as one-cycle batches do
    spec, plan = _case("custom_pair")
    sizes = (_flush_sizes(monkeypatch) if level == "off"
             else _batch_sizes(monkeypatch))

    def solve():
        return dk.run(spec, plan, dk.SolveParams(
            max_iterations=cap, stop_gap=1e-8, check_level=level,
            per_sweep_trace=True), keep_cycle_starts=True)

    batched = solve()
    assert (batched.stop_reason, batched.cycles_run) == ("gap", 78)
    assert sum(sizes) == cap
    with monkeypatch.context() as m:
        _one_cycle_batches(m, level)
        single = solve()
    _assert_same_result(batched, single)


@pytest.mark.parametrize("level", ["off", "sweep", "full"])
@pytest.mark.parametrize("case,stops", [
    # stop_gap -> the cycle the run stops at.  classic and product are
    # feasible from cycle 1 on, at gaps that close slowly; the others first
    # enter every set within FEAS_TOL at a negative gap
    ("classic", {1e-8: 4, 0.05: 3, 0.2: 2}),
    ("product", {1e-8: 74, 0.5: 5}),
    ("mixed_block", {1e-8: 140, 0.0: 140}),
    ("custom_pair", {1e-8: 78, 0.0: 78})])
def test_the_gap_rule_stops_where_the_scalar_reference_first_closes(
        case, stops, level):
    # the run stops at the first cycle n whose end has
    # primal_value(x0 - v_n) - dual_objective(z_n) <= stop_gap, never
    # earlier, and F_per_cycle is dual_objective at every cycle end
    spec, plan = ((fixtures.random_halfspaces(3, 8, 6, m=7),
                   dk.product_space_schedule(8)) if case == "product"
                  else _case(case))
    for stop_gap, n_stop in stops.items():
        res = dk.run(spec, plan, dk.SolveParams(
            max_iterations=400, stop_gap=stop_gap, check_level=level),
            keep_cycle_starts=True)
        assert (res.stop_reason, res.cycles_run) == ("gap", n_stop)
        ends = res.cycle_start_duals[1:]
        assert res.F_per_cycle.tolist() == [dk.dual_objective(spec, z)
                                            for z in ends]
        closed = [spec.primal_value(spec.x0 - z.sum(axis=0))
                  - dk.dual_objective(spec, z) <= stop_gap for z in ends]
        assert closed.index(True) == n_stop - 1


def _distinct_input(row, call, act):
    """act(new) on the call-th distinct input state of row's solves.

    A re-solve at check_level="full" solves an input it has seen, and gets
    the same fault, whenever it runs.
    """
    seen = {}

    def fault(spec, z, i, new):
        if i == row:
            key = z.tobytes()
            if key not in seen:
                seen[key] = len(seen) + 1
            if seen[key] == call:
                act(new)
    return fault


def _half_step(new):
    new *= 0.5


def _write(value):
    def act(new):
        new[0] = value
    return act


def _raise_in_prox(new):
    raise ValueError("prox failed")


_MARK = 1234.5


def _raise_on_mark(monkeypatch):
    support = HalfspaceStack.support

    def marked(self, Z):
        if (Z == _MARK).any():
            raise ValueError("conjugate failed")
        return support(self, Z)

    monkeypatch.setattr(HalfspaceStack, "support", marked)


def _gamma_zero_in_cycle(monkeypatch, n):
    """Report no movement in cycle n: its certificates fail.  A checked
    run takes each cycle's movements in one call, at the cycle's end."""
    movements = engine._movements
    calls = [0]

    def short(*args):
        calls[0] += 1
        v, inner = movements(*args)
        if calls[0] == n:
            return 0.0 * v, 0.0 * inner
        return v, inner

    monkeypatch.setattr(engine, "_movements", short)


_CYCLE_2 = r"cycle 2 sweep 1: dual objective decreased by \d\.\d{3}e-\d\d"


@pytest.mark.parametrize("level", ["sweep", "full"])
@pytest.mark.parametrize("later,error,message", [
    ("non-finite", NonFiniteStateError,
     "non-finite duals after cycle 4 sweep 5"),
    ("prox-raises", ValueError, "prox failed"),
    ("conjugate-raises", ValueError, "conjugate failed"),
    ("certificate", EngineInvariantError,
     "cycle 4: certificate for index 1 is .* beyond gamma 0.000e\\+00"),
])
def test_fault_in_a_batch_reports_its_first_failing_cycle(
        monkeypatch, level, later, error, message):
    # cycle 2's sweep 1 fails its check, then cycle 4 of the same batch
    # fails: cycle 2's error comes first, as in a cycle-by-cycle check
    sizes = []

    def run_with(*faults):
        _raise_on_mark(monkeypatch)
        if later == "certificate":
            _gamma_zero_in_cycle(monkeypatch, 4)
        else:
            act = {"non-finite": _write(np.nan),
                   "prox-raises": _raise_in_prox,
                   "conjugate-raises": _write(_MARK)}[later]
            faults += (_distinct_input(4, 4, act),)
        spec, plan = test_engine._classic_faults(monkeypatch, *faults)
        sizes[:] = []
        monkeypatch.setattr(engine._CCheck, "check", _recording(sizes))
        try:
            dk.run(spec, plan, dk.SolveParams(max_iterations=6,
                                              check_level=level))
        finally:
            monkeypatch.undo()

    # alone, the later fault is the error
    with pytest.raises(error, match=f"^{message}$"):
        run_with()
    with pytest.raises(EngineInvariantError, match=f"^{_CYCLE_2}$"):
        run_with(_distinct_input(0, 2, _half_step))
    # cycles 1 to 3 at least were checked as one batch
    assert sizes[0] >= 3


def _neumaier_sum(iterable, /, start=0):
    """sum() as Python 3.12 adds floats: with Neumaier's compensation."""
    total, comp = start, 0.0
    for x in iterable:
        if type(total) is float and type(x) is float:
            t = total + x
            if abs(total) >= abs(x):
                comp += (total - t) + x
            else:
                comp += (x - t) + total
            total = t
        else:
            total = total + x
    if type(total) is float and comp and math.isfinite(comp):
        total += comp
    return total


def test_neumaier_sum_rounds_as_python_3_12_does():
    assert _neumaier_sum([0.1] * 10, 0.0) == 1.0
    assert sum([0.1] * 10, 0.0) in (1.0, 0.9999999999999999)
    assert _neumaier_sum([1, 2, 3]) == 6
    assert _neumaier_sum([1e100, 1.0, -1e100], 0.0) == 1.0


@pytest.mark.parametrize("case", ["classic", "product", "mixed_block",
                                  "deferred", "outside_domain"])
def test_objectives_keep_their_bits_under_a_compensated_sum(monkeypatch,
                                                           case):
    # the dual objective sums its conjugates in the engine's order whatever
    # sum() does, so the cached per-sweep objectives still equal it
    monkeypatch.setattr(builtins, "sum", _neumaier_sum)
    test_engine.test_run_cached_objective_is_bitwise_reference(case)


def test_full_builds_the_stacks_that_sweep_builds(monkeypatch):
    # a sweep builds stacks for its one-member blocks only.  At
    # check_level="full" the per-sweep re-solve calls each step's own
    # solver, and the subproblems' gains read the pass's conjugates: the
    # product schedule's outer set {r} of sweep 2, after its r - 1 blocks,
    # is stacked by neither
    spec, plan = _case("product")
    stack_terms = engine.stack_terms
    calls = {}
    for level in ("sweep", "full"):
        calls[level] = made = []

        def counted(terms, rows):
            rows = list(rows)
            if terms is spec.terms and 0 < len(rows) < spec.r:
                made.append(rows)
            return stack_terms(terms, rows)

        monkeypatch.setattr(engine, "stack_terms", counted)
        dk.run(spec, plan, dk.SolveParams(max_iterations=2,
                                          check_level=level))
    assert calls["sweep"] == [list(range(spec.r - 1))]
    assert calls["full"] == calls["sweep"]


@pytest.mark.parametrize("level", ["sweep", "full"])
@pytest.mark.parametrize("case", ["classic", "halfspaces", "custom_pair"])
def test_the_checks_build_no_stack_for_rows_shared_holds(monkeypatch, case,
                                                         level):
    # the checks of a run share their stacks by row set: a group of rows
    # that shared already holds takes that stack, and only a row set it
    # lacks is built, once (engine._pair_stacks)
    if case == "halfspaces":   # one kind: every group is all the rows
        spec, plan = (fixtures.random_halfspaces(2, 6, 4),
                      dk.classic_dykstra_schedule(6))
    else:
        spec, plan = _case(case)
    built = []
    for cls in (HalfspaceStack, terms_module.BallStack):
        def of(kind, terms, of=cls.of.__func__):
            built.append(tuple(map(id, terms)))
            return of(kind, terms)
        monkeypatch.setattr(cls, "of", classmethod(of))
    pair_stacks, calls = engine._pair_stacks, []

    def recorded(terms, rows, shared):
        held = {tuple(id(terms[i]) for i in key) for key in shared}
        start = len(built)
        out = pair_stacks(terms, rows, shared)
        calls.append((held, built[start:]))
        return out

    monkeypatch.setattr(engine, "_pair_stacks", recorded)
    dk.run(spec, plan, dk.SolveParams(max_iterations=3, check_level=level))
    assert calls
    for held, new in calls:
        assert not held.intersection(new)
        assert len(set(new)) == len(new)


# ---------------------------------------------------------------------------
# the batched re-solve of check_level="full" against the per-sweep re-solve
# ---------------------------------------------------------------------------

def _batched_replay_off(m, how):
    """Leave every exact sweep to the per-sweep re-solve: no batched
    re-solve is compiled, or it raises and its batch falls back."""
    if how == "not-compiled":
        m.setattr(engine._CCheck, "_compile_resolve",
                  lambda self, spec, shared: None)
    else:
        def raising(self, *args):
            raise ValueError("re-solve failed")
        m.setattr(engine._CCheck, "_resolved", raising)


def _replays(monkeypatch):
    """Record (n, w) of every per-sweep re-solve (_resolve_sweep)."""
    calls = []
    resolve = engine._CCheck._resolve_sweep

    def recorded(self, spec, log, c, w, params, n, z):
        calls.append((n, w))
        return resolve(self, spec, log, c, w, params, n, z)

    monkeypatch.setattr(engine._CCheck, "_resolve_sweep", recorded)
    return calls


@pytest.mark.parametrize("kernel", ["built", "matmul"])
@pytest.mark.parametrize("off", ["not-compiled", "raises"])
@pytest.mark.parametrize("case", ["classic", "product", "mixed_block",
                                  "custom_nested", "custom_pair",
                                  "prox_quad"])
def test_the_batched_replay_gives_the_bits_of_the_per_sweep_replay(
        monkeypatch, case, off, kernel):
    # caps on both sides of a full batch: every field, trace row and
    # certificate is that of the per-sweep re-solve.  With the batched
    # re-solve on, the product schedule re-solves by itself its sweep 2,
    # r - 1 blocks and an outer set, in every cycle, and its sweep 1, the
    # one the batch re-solves, in batches of fewer than _RESOLVE_MIN
    # cycles.  The prox-quad plan re-solves by itself its sweep 1, one term
    # row with a copy, in every cycle, and its sweeps 2-4 in batches of one
    # cycle
    spec, plan = _case(case)
    _dots_kernel(monkeypatch, kernel)
    calls = _replays(monkeypatch)
    sizes = _batch_sizes(monkeypatch)
    for cap in (1, 3, 7, 8, 26):
        params = dk.SolveParams(max_iterations=cap, check_level="full",
                                per_sweep_trace=True)
        calls.clear()
        sizes.clear()
        batched = dk.run(spec, plan, params)
        expected = set()
        first = 1
        for size in sizes:
            for n in range(first, first + size):
                if case == "product":
                    expected |= ({(n, 1), (n, 2)}
                                 if size < engine._RESOLVE_MIN else {(n, 2)})
                elif case == "prox_quad":   # sweeps 2-4 are re-solved
                    expected |= ({(n, w) for w in range(1, 5)}
                                 if 3 * size < engine._RESOLVE_MIN
                                 else {(n, 1)})
            first += size
        assert set(calls) == expected
        n_batched = len(calls)
        with monkeypatch.context() as m:
            _batched_replay_off(m, off)
            calls.clear()
            replayed = dk.run(spec, plan, params)
        _assert_same_result(batched, replayed)
        assert (len(calls) > n_batched or case == "product" and cap < 7
                or case == "prox_quad" and cap == 1)


def _faults_at_full(fn):
    """Every parameter set of the fault test fn that runs at
    check_level="full", as keyword arguments."""
    sets = [{}]
    for mark in getattr(fn, "pytestmark", ()):
        if mark.name != "parametrize":
            continue
        names, values = mark.args
        names = [n.strip() for n in names.split(",")]
        sets = [{**kw, **dict(zip(names, v if len(names) > 1 else (v,)))}
                for kw in sets for v in values]
    return [kw for kw in sets if kw.get("level", "full") == "full"]


_FAULT_TESTS = [
    (fn, kw)
    for fn in [getattr(test_engine, name) for name in dir(test_engine)
               if name.startswith("test_fault_")
               and not name.startswith("test_fault_off")]
    + [test_fault_in_a_batch_reports_its_first_failing_cycle]
    for kw in _faults_at_full(fn)]


def _fault_id(fn, kwargs):
    return "-".join([fn.__name__[len("test_fault_"):]] + [
        str(v) for k, v in kwargs.items()
        if k not in ("level", "error", "message")])


@pytest.mark.parametrize("fault,kwargs", _FAULT_TESTS, ids=[
    _fault_id(fn, kw) for fn, kw in _FAULT_TESTS])
def test_fault_messages_do_not_depend_on_the_batched_replay(
        monkeypatch, fault, kwargs):
    # each fault test asserts its exception and message with the batched
    # re-solve on; here it runs with every sweep re-solved by itself.
    # The patch has its own MonkeyPatch: some tests undo theirs midway
    with pytest.MonkeyPatch.context() as m:
        _batched_replay_off(m, "not-compiled")
        fault(monkeypatch, **kwargs)


def test_a_sweep_that_misses_its_snapshot_goes_to_the_per_sweep_replay(
        monkeypatch):
    # row 3's solve is one ulp off, every time.  The stacked re-solve of its
    # sweep misses the snapshot, and _resolve_sweep, which calls the same
    # solver, decides it alone; the result is that of the per-sweep re-solve
    def one_ulp_off(spec, z, i, new):
        if i == 2:
            new[...] = np.nextafter(new, np.inf)

    calls = _replays(monkeypatch)
    spec, plan = test_engine._classic_faults(monkeypatch, one_ulp_off)
    params = dk.SolveParams(max_iterations=10, check_level="full")
    batched = dk.run(spec, plan, params)
    assert calls == [(n, 3) for n in range(1, 11)]
    with monkeypatch.context() as m:
        _batched_replay_off(m, "not-compiled")
        replayed = dk.run(spec, plan, params)
    _assert_same_result(batched, replayed)


@pytest.mark.parametrize("kernel", ["built", "matmul"])
def test_a_matched_sweep_cannot_fall_short_in_its_replay(monkeypatch, kernel):
    # a sweep of one subproblem has no margin of its own to test at
    # check_level="full" (_CCheck._gains): its subproblem's margin, 0.5 *
    # s * s of its move s, is never more than the pass's, 0.5 * v * v +
    # 0.5 * (0.0 + g * g) for a block, v the move of the dual sum and g = s
    # the governing row's, and 0.5 * v * v + 0.5 * 0.0 for an outer set,
    # whose s is v.  The moves are taken from the same rows, with the same
    # bits
    _dots_kernel(monkeypatch, kernel)
    rng = np.random.default_rng(15)
    for d in (1, 2, 3, 5, 8, 20, 64, 257, 1000):
        D = rng.standard_normal((50, d)) * 10.0 ** rng.integers(
            -8, 9, size=(50, 1))
        # _movements' norms of the governing rows' moves, and math's
        assert np.sqrt(engine._dots(D, D)).tolist() == [
            math.sqrt(row.dot(row)) for row in D]
    v, g = rng.standard_normal((2, 20000)) * 10.0 ** rng.uniform(
        -150, 150, size=(2, 20000))
    for v_diff, move in zip(v.tolist(), g.tolist()):
        assert 0.5 * move * move <= (0.5 * v_diff * v_diff
                                     + 0.5 * (0.0 + move * move))
        assert 0.5 * move * move == 0.5 * move * move + 0.5 * 0.0
    for move in g[:100].tolist():   # a block that left the dual sum alone
        assert 0.5 * move * move == 0.5 * 0.0 * 0.0 + 0.5 * (0.0 + move * move)


# ---------------------------------------------------------------------------
# the sweep log against the states it stands for
# ---------------------------------------------------------------------------

def _logged_batches(monkeypatch):
    """Record (check, a copy of the log, the cycle numbers) of every batch
    the checks take."""
    batches = []
    check = engine._CCheck.check

    def recorded(self, spec, log, conj, F, margins, batch, *rest):
        copy = engine._Log(log.rows.copy(), log.sums.copy())
        batches.append((self, copy, [cyc.n for cyc in batch]))
        return check(self, spec, log, conj, F, margins, batch, *rest)

    monkeypatch.setattr(engine._CCheck, "check", recorded)
    return batches


def _run_sweep_cycles(spec, plan, n_cycles):
    """Each cycle's states 0..W from a public run_sweep loop."""
    st = dk.DualState.zeros(spec)
    cycles = []
    for n in range(1, n_cycles + 1):
        snaps = [st.z.copy()]
        for sweep in plan.cycle(n):
            dk.run_sweep(spec, st, sweep)
            snaps.append(st.z.copy())
        cycles.append(snaps)
    return cycles


@pytest.mark.parametrize("level", ["sweep", "full"])
@pytest.mark.parametrize("case", ["classic", "product", "mixed_block",
                                  "custom_nested"])
def test_the_log_rebuilds_the_states_of_a_run_sweep_loop(monkeypatch, case,
                                                         level):
    # every state rebuilt from a batch's log is bitwise the run_sweep
    # loop's, its sums are theirs, and the log's certificates are
    # certificate_points on those states
    spec, plan = _case(case)
    analysis = dk.validate(plan, spec.r, spec.m)
    groups = terms_module.stack_terms(spec.terms, range(spec.r))
    batches = _logged_batches(monkeypatch)
    for cap in (1, 3, 9, 26):
        batches.clear()
        res = dk.run(spec, plan, dk.SolveParams(
            max_iterations=cap, check_level=level))
        cycles = _run_sweep_cycles(spec, plan, cap)
        assert res.state.z.tobytes() == cycles[-1][-1].tobytes()
        assert sum(len(ns) for _, _, ns in batches) == cap
        for chk, log, ns in batches:
            k, W = len(ns), chk.W
            states = [cycles[ns[0] - 1][0]] + [
                cycles[n - 1][w] for n in ns for w in range(1, W + 1)]
            out = np.empty_like(states[0])
            for s, state in enumerate(states):
                assert chk._state(log, s, out).tobytes() == state.tobytes()
                assert (log.sums[s].tobytes()
                        == state.sum(axis=0).tobytes())
            ends = np.array([terms_module.stacked_conjugates(
                groups, cycles[n - 1][-1], np.empty(spec.r)) for n in ns])
            # the indices of every certificate, which the checks build only
            # when they do not take them from the sweep pass
            cycle = np.arange(k)[:, None]
            at = engine._cert_index(
                engine._cert_layout(analysis.for_cycle(plan, ns[0]), spec.r),
                chk.n, W, k, lambda o: chk._locate(cycle, o.ravel()).ravel(),
                lambda w: (cycle * W + w).ravel())
            X, res_c, fen = engine._certificates(
                spec, log.rows, log.sums, at, k, groups, ends)
            for c, n in enumerate(ns):
                public = dk.certificate_points(
                    spec, cycles[n - 1], analysis.for_cycle(plan, n))
                assert X[c].tobytes() == np.array(
                    [p.point for p in public]).tobytes()
                assert res_c[c].tolist() == [p.residual for p in public]
                assert fen[c].tolist() == [p.fenchel for p in public]


@pytest.mark.parametrize("case, shared", [
    ("classic", [1, 2, 3, 4, 5, 6]),
    ("product", [4]),
    ("mixed_block", [2, 3, 4, 5, 6, 7, 8]),
    ("custom_pair", [3, 4, 5, 6, 7, 8, 10]), ("revisits", [1, 2, 3, 4])])
def test_the_share_map_pairs_each_index_with_its_last_exact_outer_solve(
        monkeypatch, case, shared):
    # an index whose last touch (p, i) is an exact outer solve has the
    # certificate of the stationarity pair (p, i): every index on classic;
    # on product only r, the others last touched in blocks; on mixed-block
    # (r = 8, m = 1) all but term 1 and the copy, 7 of 9; on the benchmark's
    # pattern all but the block {1, 2, 9}, in the lead-in cycle too; on a
    # plan that solves index 2 twice, the second solve's.  The
    # checks take the certificates from the sweep pass only in a cycle whose
    # every index is shared
    if case == "mixed_block":
        spec = fixtures.random_mixed(7, 8, 6, m=1)
        plan = fixtures.mixed_block_schedule(8)
    else:
        spec, plan = _case(case)
    checks = []
    init = engine._CCheck.__init__

    def recorded(self, *args):
        init(self, *args)
        checks.append(self)

    monkeypatch.setattr(engine._CCheck, "__init__", recorded)
    dk.run(spec, plan, dk.SolveParams(max_iterations=2, check_level="sweep"))
    analysis = dk.validate(plan, spec.r, spec.m)
    assert len(checks) == len(analysis.cycles) == (
        2 if case == "custom_pair" else 1)
    for chk, c_analysis in zip(checks, analysis.cycles):
        pairs = list(zip(chk.stat_w.tolist(), chk.stat_i.tolist()))
        places = engine._cert_pairs(c_analysis, *zip(*pairs))
        assert [i + 1 for i, j in enumerate(places)
                if j is not None] == shared
        for i, j in enumerate(places):
            last = (c_analysis.p[i + 1], i)
            assert (j is None) == (i + 1 in c_analysis.via_block
                                   or last not in pairs)
            assert j is None or pairs[j] == last
        if case == "classic":   # sweep w's pair is index w's
            assert chk.cert_pairs == slice(0, spec.n_duals)
        elif case == "revisits":
            assert chk.cert_pairs.tolist() == [1, 4, 3, 2]
        else:
            assert chk.cert_pairs is None


@pytest.mark.parametrize("level", ["off", "sweep", "full"])
@pytest.mark.parametrize("case", ["classic", "product", "mixed_block",
                                  "custom_pair"])
def test_movements_are_the_norms_of_a_run_sweep_loops_moves(case, level):
    # each sweep's movements, taken by run at its cycle's end, are
    # np.linalg.norm of the change it made to the dual sum and to each of
    # its governing rows, read from the states of a run_sweep loop
    if case == "product":   # every block moves, each by its own amount
        spec = fixtures.random_mixed(6, 6, 4, m=5)
        plan = dk.product_space_schedule(6)
    else:
        spec, plan = _case(case)
    n_cycles = 12
    res = dk.run(spec, plan, dk.SolveParams(
        max_iterations=n_cycles, check_level=level, per_sweep_trace=True))
    expected = []
    for n, states in enumerate(_run_sweep_cycles(spec, plan, n_cycles),
                               start=1):
        for w, sweep in enumerate(plan.cycle(n), start=1):
            before, after = states[w - 1], states[w]
            expected.append((n, w, float(np.linalg.norm(
                after.sum(axis=0) - before.sum(axis=0))), {
                j: float(np.linalg.norm(after[j - 1] - before[j - 1]))
                for j in sorted(sweep.inner)}))
    assert [(row.n, row.w, row.v_diff, row.inner_diffs)
            for row in res.sweep_rows] == expected
    assert any(moves for *_, moves in expected) == (case != "classic")


# ---------------------------------------------------------------------------
# still sweeps: a checked sweep that leaves the state bytewise its snapshot
# reuses its sum
# ---------------------------------------------------------------------------

def _summed_sweeps(monkeypatch):
    """Count the sweeps whose rows run scans and whose state it sums: every
    sweep but a still one, with checks on."""
    calls = []
    all_finite = engine.all_finite

    def counted(a):
        calls.append(1)
        return all_finite(a)

    monkeypatch.setattr(engine, "all_finite", counted)
    return calls


@pytest.mark.parametrize("level", ["sweep", "full"])
def test_a_row_rewritten_as_the_other_zero_is_summed(monkeypatch, level):
    # x0 lies inside every halfspace, so every solve leaves its row zero,
    # and the solver writes it as the zero of the other sign: an equal
    # value in other bytes.  No sweep is still: each is summed, and each
    # state rebuilt from the log, and its sum, is bitwise the run_sweep
    # loop's.  A sweep taken as still by value would leave its snapshot
    # with the old zero
    def other_zero(spec, z, i, new):
        if not new.any():
            new[...] = np.where(np.signbit(z[i]), 0.0, -0.0)

    A = np.random.default_rng(3).standard_normal((4, 3))
    spec = dk.ProblemSpec(np.zeros(3), [dk.Indicator(dk.Halfspace(a, 1.0))
                                        for a in A])
    plan = dk.classic_dykstra_schedule(4)
    test_engine._after_prox_row(monkeypatch, spec, plan, other_zero)
    batches = _logged_batches(monkeypatch)
    summed = _summed_sweeps(monkeypatch)
    res = dk.run(spec, plan, dk.SolveParams(max_iterations=4,
                                            check_level=level))
    assert len(summed) == 4 * 4
    cycles = _run_sweep_cycles(spec, plan, 4)
    assert res.state.z.tobytes() == cycles[-1][-1].tobytes()
    assert np.signbit(cycles[0][-1]).all() and not cycles[1][-1].any()
    out = np.empty_like(cycles[0][0])
    for chk, log, ns in batches:
        states = [cycles[ns[0] - 1][0]] + [
            cycles[n - 1][w] for n in ns for w in range(1, chk.W + 1)]
        for s, state in enumerate(states):
            assert chk._state(log, s, out).tobytes() == state.tobytes()
            assert log.sums[s].tobytes() == state.sum(axis=0).tobytes()


@pytest.mark.parametrize("r,d,n_cycles", [(50, 20, 30), (200, 50, 2)],
                         ids=["whole", "sliced"])
def test_still_sweeps_give_the_bits_of_checks_off(monkeypatch, r, d,
                                                  n_cycles):
    # most classic sweeps on these halfspaces leave the state bytewise as
    # it was, and a checked run takes its sum from the sweep before; every
    # result has the bits of check_level="off", which sums each state.  At
    # (200, 50) a state is larger than 64 KiB
    spec = fixtures.random_halfspaces(1, r, d)
    plan = dk.classic_dykstra_schedule(r)
    assert (spec.n_duals * d > 8192) == (r == 200)
    summed = _summed_sweeps(monkeypatch)
    runs = []
    for level in ("off", "sweep", "full"):
        summed.clear()
        runs.append(dk.run(spec, plan, dk.SolveParams(
            max_iterations=n_cycles, check_level=level,
            per_sweep_trace=True)))
        assert 2 * len(summed) < n_cycles * r or level == "off"
    off, sweep, full = runs
    for checked in (sweep, full):
        assert checked.state.z.tobytes() == off.state.z.tobytes()
        for name in ("x", "gamma", "growth", "F_per_cycle", "sq_diff_cumsum"):
            assert (getattr(checked, name).tobytes()
                    == getattr(off, name).tobytes())
        assert [(row.v_diff, row.inner_diffs, row.approx)
                for row in checked.sweep_rows] == [
            (row.v_diff, row.inner_diffs, row.approx)
            for row in off.sweep_rows]
        assert [(row.F, row.v_diff, row.gamma_n, row.growth_monitor)
                for row in checked.cycle_rows] == [
            (row.F, row.v_diff, row.gamma_n, row.growth_monitor)
            for row in off.cycle_rows]


# ---------------------------------------------------------------------------
# the freeze equalities, checked once per cycle pattern when its checks are
# compiled
# ---------------------------------------------------------------------------

def _assert_no_written_row_is_frozen(spec, plan):
    """No row that a sweep of a cycle of plan writes (_CSweep.written) is
    one the freeze equalities hold fixed at that sweep: after its last
    touch, or inside a protected window."""
    analysis = dk.validate(plan, spec.r, spec.m)
    assert analysis.valid_A and analysis.valid_B
    for sweeps, c_analysis in zip((plan.pattern,) + plan.lead_in,
                                  analysis.cycles):
        W, n = len(sweeps), spec.n_duals
        # frozen[w - 1, i]: row i must keep its value through sweep w
        frozen = np.zeros((W, n), dtype=bool)
        for i1, p in c_analysis.p.items():
            frozen[p:, i1 - 1] = True
        for i1, q in c_analysis.q.items():
            for i2 in c_analysis.block_members[i1]:
                frozen[q:c_analysis.p[i1] - 1, i2 - 1] = True
        for w, sweep in enumerate(sweeps, start=1):
            rows = np.arange(n)[engine._CSweep(sweep, spec).written]
            assert not frozen[w - 1, rows].any()


@pytest.mark.parametrize("case", ["classic", "product", "mixed_block",
                                  "custom_nested", "custom_pair"])
def test_a_valid_plan_writes_no_frozen_row(case):
    _assert_no_written_row_is_frozen(*_case(case))


@pytest.mark.parametrize("level", ["sweep", "full"])
@pytest.mark.parametrize("case,w,message", [
    ("classic", 3, "pattern sweep 3: z_1 is written after its last touch"
                   r" \(sweep 1\)"),
    ("window", 2, "pattern sweep 2: block member z_1 is written inside the"
                  r" protected window \(1\.\.2\)"),
])
def test_a_declared_frozen_row_fails_when_its_checks_are_compiled(
        monkeypatch, case, w, message, level):
    # a sweep writes only the rows it declares (_CSweep.written), so the
    # freeze equalities are a property of those rows: a sweep compiled to
    # declare z_1 where it is frozen fails before any sweep runs.  In the
    # window case z_1 is a member of the block {1, 3} at sweep 3, whose
    # copy 3 is solved outer at sweep 1
    if case == "classic":
        spec, plan = (fixtures.random_halfspaces(1, 6, 4),
                      dk.classic_dykstra_schedule(6))
    else:
        spec = fixtures.random_halfspaces(3, 2, 3, m=1)
        plan = dk.CyclePlan(pattern=(dk.SweepPlan(outer={3}),
                                     dk.SweepPlan(outer={2}),
                                     dk.SweepPlan(inner={3: {1, 3}})))
    dk.run(spec, plan, dk.SolveParams(max_iterations=3, check_level=level))
    init, execute = engine._CSweep.__init__, engine._execute_sweep
    calls = []

    def declaring(self, sweep, spec):
        init(self, sweep, spec)
        if sweep == plan.pattern[w - 1]:
            self.written = np.union1d(
                np.arange(spec.n_duals)[self.written], [0])
            self.size = len(self.written)

    def counted(*args):
        calls.append(1)
        return execute(*args)

    monkeypatch.setattr(engine._CSweep, "__init__", declaring)
    monkeypatch.setattr(engine, "_execute_sweep", counted)
    with pytest.raises(EngineInvariantError, match=f"^{message}$"):
        dk.run(spec, plan, dk.SolveParams(max_iterations=3,
                                          check_level=level))
    assert not calls


@pytest.mark.parametrize("level", ["sweep", "full"])
@pytest.mark.parametrize("case", ["classic", "product", "mixed_block",
                                  "custom_nested"])
def test_a_clean_run_takes_no_freeze_work(monkeypatch, case, level):
    # the freeze equalities are checked once per cycle pattern when the
    # checks are compiled, before any sweep; no batch evaluates them
    check, execute = engine._assert_unfrozen, engine._execute_sweep
    events = []

    def checked(*args):
        events.append("freeze")
        return check(*args)

    def executed(*args):
        events.append("sweep")
        return execute(*args)

    monkeypatch.setattr(engine, "_assert_unfrozen", checked)
    monkeypatch.setattr(engine, "_execute_sweep", executed)
    test_engine._screen_off(monkeypatch)   # every sweep is solved
    spec, plan = _case(case)
    dk.run(spec, plan, dk.SolveParams(max_iterations=26, check_level=level))
    patterns = 1 + len(plan.lead_in)
    assert events[:patterns] == ["freeze"] * patterns
    assert events[patterns:].count("freeze") == 0
    assert events.count("sweep") >= 26 * len(plan.pattern)


@pytest.mark.parametrize("level", ["off", "sweep", "full"])
@pytest.mark.parametrize("solver,case", [
    ("_prox_row", "classic"), ("_quad_rows", "product"),
    ("_prox_quad_rows", "prox_quad"), ("_stacked_blocks", "mixed_block"),
    ("_pair_rows", "custom_pair"), ("_nested_rows", "custom_nested")])
def test_every_solver_writes_a_buffer_of_its_sweeps_rows(
        monkeypatch, solver, case, level):
    # each solver tier gets a (size, d) buffer of the declared rows of a
    # sweep that runs it and a snapshot it cannot write, in a run at every
    # check level and in the re-solve at "full"
    spec, plan = _case(case)
    orig = getattr(engine, solver)
    sizes = {cs.size for c in (plan.pattern,) + plan.lead_in for cs in
             (engine._CSweep(sw, spec) for sw in c)
             if any(step.solve is orig for step in cs.steps)}
    seen = []

    def solve(spec, z, v, arg, params, out):
        assert out.shape[0] in sizes and out.shape[1:] == (spec.d,)
        with pytest.raises(ValueError, match="read-only"):
            z[0] = 0.0
        seen.append(out.shape[0])
        return orig(spec, z, v, arg, params, out)

    monkeypatch.setattr(engine, solver, solve)
    monkeypatch.setattr(engine._CCheck, "_compile_resolve",
                        lambda self, spec, shared: None)
    res = dk.run(spec, plan, dk.SolveParams(max_iterations=3,
                                            check_level=level))
    monkeypatch.undo()
    ref = dk.run(spec, plan, dk.SolveParams(max_iterations=3,
                                            check_level=level))
    assert set(seen) == sizes
    assert res.state.z.tobytes() == ref.state.z.tobytes()


if given is not None:
    @st.composite
    def plans(draw):
        """(r, m, plan): random sweeps of outer sets and blocks, made valid
        by the deferral rewrite where it can be."""
        r, m = draw(st.integers(1, 5)), draw(st.integers(0, 3))
        sweeps = []
        for _ in range(draw(st.integers(1, 6))):
            keys = draw(st.sets(st.integers(r + 1, r + m))) if m else set()
            outer, inner = set(), {}
            for i in range(1, r + m + 1):
                if i in keys:
                    continue
                place = draw(st.sampled_from(
                    [None, 0] + (sorted(keys) if i <= r else [])))
                if place == 0:
                    outer.add(i)
                elif place:
                    inner.setdefault(place, {place}).add(i)
            sweeps.append(dk.SweepPlan(outer=outer, inner=inner))
        try:
            plan = dk.rewrite_deferred(dk.CyclePlan(pattern=tuple(sweeps)),
                                       r, m)
        except dk.UnresolvableDeferralError:
            plan = None
        assume(plan is not None)
        analysis = dk.validate(plan, r, m)
        assume(analysis.valid_A and analysis.valid_B)
        return r, m, plan


def _random_plans(n_examples):
    return settings(max_examples=n_examples, deadline=None, database=None,
                    derandomize=True,
                    suppress_health_check=[HealthCheck.filter_too_much,
                                           HealthCheck.too_slow])


@pytest.mark.skipif(given is None, reason="needs hypothesis")
def test_a_random_valid_plan_writes_no_frozen_row():
    seen = []

    @_random_plans(300)
    @given(plans())
    def check(case):
        r, m, plan = case
        _assert_no_written_row_is_frozen(fixtures.random_mixed(1, r, 2, m=m),
                                         plan)
        seen.append(bool(plan.lead_in))

    check()
    assert len(seen) >= 100 and any(seen)


@pytest.mark.skipif(given is None, reason="needs hypothesis")
def test_a_random_valid_plan_converges_to_the_projection():
    # every valid plan is one order of the same dual minimization: checked
    # in full, each run stops by the gap rule, and x is then within the
    # gap's bound of the exact projection (qp_project), approximate cycles
    # included
    stop_gap = 1e-12
    approx = []

    @_random_plans(150)
    @given(plans(), st.integers(1, 10**6), st.integers(2, 4))
    def check(case, seed, d):
        r, m, plan = case
        spec = fixtures.random_halfspaces(seed, r, d, m=m)
        res = dk.run(spec, plan, dk.SolveParams(
            max_iterations=20000, stop_gap=stop_gap, check_level="full"))
        assert res.stop_reason == "gap"
        x_star = dk.qp_project(dk.PolyhedralInstance.from_spec(spec))
        assert (np.linalg.norm(res.x - x_star)
                <= math.sqrt(2.0 * stop_gap / (m + 1)) + 1e-10)
        approx.append(res.any_approx)

    check()
    assert len(approx) >= 100 and any(approx)


@pytest.mark.parametrize("level", ["sweep", "full"])
@pytest.mark.parametrize("case", ["classic", "product", "mixed_block"])
def test_a_start_whose_sum_overflows_is_reported_at_its_first_sweep(
        case, level):
    # every row is finite and the dual sum is not: the batch is checked
    # from its log, and the sweep that goes non-finite is reported
    spec, plan = _case(case)
    z = np.zeros((spec.n_duals, spec.d))
    z[0, 0] = z[1, 0] = 1e308
    with pytest.warns(RuntimeWarning), pytest.raises(
            NonFiniteStateError,
            match="^non-finite duals after cycle 1 sweep 1$"):
        dk.run(spec, plan, dk.SolveParams(max_iterations=5,
                                          check_level=level), z_init=z)


def test_checked_memory_stays_within_three_times_unchecked():
    # a checked batch holds one state, its log and the pass's tables, not
    # a state per sweep: classic (200, 20) over two cycles
    spec = fixtures.random_halfspaces(1, 200, 20)
    plan = dk.classic_dykstra_schedule(200)

    def solve(level):
        return lambda: dk.run(spec, plan, dk.SolveParams(
            max_iterations=2, check_level=level))

    solve("full")()   # compiles and caches outside the measurement
    off = test_engine._peak_bytes(solve("off"))
    for level in ("sweep", "full"):
        assert test_engine._peak_bytes(solve(level)) <= 3 * off


@pytest.mark.parametrize("level", ["sweep", "full"])
@pytest.mark.parametrize("case", ["classic", "product", "custom_nested"])
def test_a_conjugate_table_in_chunks_gives_the_bits_of_one(monkeypatch,
                                                           case, level):
    # the sweep pass builds its conjugate table one sweep at a time, or two
    # for batches of one cycle: every field, trace row and certificate is
    # that of the whole table
    spec, plan = _case(case)
    params = dk.SolveParams(max_iterations=26, check_level=level,
                            per_sweep_trace=True)
    whole = dk.run(spec, plan, params)
    for chunk in (1, 2 * (spec.r + 1) * 8):
        monkeypatch.setattr(engine, "_TABLE_CHUNK_BYTES", chunk)
        _assert_same_result(dk.run(spec, plan, params), whole)


def _two_block_plan():
    """Sweep 2 holds the pair block {1, 2, 5} of a halfspace and a ball
    (_pair_rows), the block {3, 6} (_stacked_blocks) and the outer set {4}
    (_prox_row) of random_mixed's r = 4, m = 2."""
    S = dk.SweepPlan
    return dk.CyclePlan(pattern=(
        S(outer={5, 6}), S(outer={4}, inner={5: {1, 2, 5}, 6: {3, 6}})))


@pytest.mark.parametrize("case", ["product", "mixed_block", "two_blocks",
                                  "leaky_blocks"])
def test_closed_form_gains_are_the_objective_differences(monkeypatch, case):
    # each subproblem's gain, which the sweep pass takes in closed form
    # (_CCheck._gains), is the difference of dual_objective_from between
    # the states that the sweep's logged rows leave one subproblem at a
    # time, within 1e-12 of the objectives' size, and so is its margin,
    # 0.5 * ||dv||^2 of an outer set and 0.5 * ||dz_j0||^2 of a block.  The
    # gains here take every exact sweep, not only those of several
    # subproblems, so that mixed-block's one-subproblem sweeps count too.
    # Leaky blocks move the dual sum, which the subproblems after them in
    # their sweep then see moved; what the checks make of them is not
    # asked here
    if case == "two_blocks":
        spec, plan = fixtures.random_mixed(3, 4, 3, m=2), _two_block_plan()
    else:
        spec, plan = _case("product" if case == "leaky_blocks" else case)
    if case == "leaky_blocks":
        stacked = engine._stacked_blocks

        def leaky(spec, z, v, arg, params, out):
            exact = stacked(spec, z, v, arg, params, out)
            out[arg[4]] += 0.25   # the governing rows
            return exact

        monkeypatch.setattr(engine, "_stacked_blocks", leaky)
    groups = terms_module.stack_terms(spec.terms, range(spec.r))

    def objective(z):
        conj = terms_module.stacked_conjugates(groups, z, np.empty(spec.r))
        return engine.dual_objective_from(spec, z, conj, z.sum(axis=0))

    compile_gains, gains = engine._CCheck._compile_gains, engine._CCheck._gains
    kinds = []

    def every_exact_sweep(self, spec, sweeps, pw, pi):
        return compile_gains(self, spec, self.exact_sweeps, pw, pi)

    def compared(self, spec, R, V, at, k, new, starts):
        gain, margin = gains(self, spec, R, V, at, k, new, starts)
        g, n = self.gains, self.n
        ends = g.subs
        for c in range(k):
            sweep = None
            # w, 0-based, is also the number of the state before the sweep
            for s, w in enumerate(g.cols.tolist()):
                if w != sweep:   # the sweep's first subproblem
                    z = R.take(self._locate(c, w * n + np.arange(n)), axis=0)
                    F, v, sweep = objective(z), z.sum(axis=0), w
                rows = g.offsets[ends[s]:ends[s + 1]] - w * n
                before = z.copy()
                z[rows] = R.take(self._locate(c, rows + (w + 1) * n), axis=0)
                F_s, v_s = objective(z), z.sum(axis=0)
                block = s in g.blocks
                move = (z - before)[rows[-1]] if block else v_s - v
                tol = 1e-12 * max(1.0, abs(F), abs(F_s))
                assert abs(gain[c, s] - (F_s - F)) <= tol
                assert abs(margin[c, s] - 0.5 * move.dot(move)) <= tol
                kinds.append((block, F_s != F))
                F, v = F_s, v_s
        return gain, margin

    monkeypatch.setattr(engine._CCheck, "_compile_gains", every_exact_sweep)
    monkeypatch.setattr(engine._CCheck, "_gains", compared)
    with contextlib.suppress(EngineInvariantError):
        dk.run(spec, plan, dk.SolveParams(max_iterations=9,
                                          check_level="full"))
    # outer sets and blocks that moved the objective were compared
    assert (True, True) in kinds and (False, True) in kinds


# ---------------------------------------------------------------------------
# the pair tier: exact joint solves of two sets, and their fallback
# ---------------------------------------------------------------------------

def test_a_custom_pair_run_at_full_is_exact_and_replays_no_sweep(
        monkeypatch):
    # the benchmark's pattern: its outer set {3, 4} and block {1, 2, 9}
    # pair a halfspace with a ball; every run stops by the gap rule with no
    # approximate cycle, and the batched re-solve decides every exact sweep
    calls = _replays(monkeypatch)
    plan = test_engine._custom_pair_plan()
    for seed in range(1, 5):
        res = dk.run(fixtures.random_mixed(seed, 8, 6, m=2), plan,
                     dk.SolveParams(max_iterations=50000, stop_gap=1e-8,
                                    check_level="full"))
        assert res.stop_reason == "gap"
        assert not res.any_approx
    assert calls == []


def test_the_full_re_solve_calls_the_sweeps_pair_kernel(monkeypatch):
    # pair_duals is the one pair kernel: at full, each exact pair sweep
    # calls it twice, once as it runs and once in its batch's re-solve,
    # unless both its sets hold its point, which the re-solve finds for
    # the whole batch without it
    spec, plan = _case("custom_pair")
    test_engine._screen_off(monkeypatch)   # every pair sweep runs
    pair_duals = engine.pair_duals
    calls, held = {}, {}

    def counted(*args):
        calls[level] = calls.get(level, 0) + 1
        duals = pair_duals(*args)
        # only where both sets hold u does it return two floats
        if duals is not None and all(type(z) is float for z in duals):
            held[level] = held.get(level, 0) + 1
        return duals

    monkeypatch.setattr(engine, "pair_duals", counted)
    runs = {}
    for level in ("sweep", "full"):
        runs[level] = dk.run(spec, plan, dk.SolveParams(
            max_iterations=30, check_level=level))
        assert not runs[level].any_approx
    assert runs["full"].F_per_cycle.tobytes() == runs[
        "sweep"].F_per_cycle.tobytes()
    # two pair sweeps per cycle, each one call as it runs
    assert calls["sweep"] == 2 * 30
    assert 0 < held["sweep"] < calls["sweep"]
    assert held["full"] == held["sweep"]
    assert calls["full"] == 2 * calls["sweep"] - held["sweep"]


@pytest.mark.parametrize("level", ["sweep", "full"])
@pytest.mark.parametrize("case", ["classic", "custom_pair"])
def test_a_batch_whose_pass_raises_is_checked_a_cycle_at_a_time(
        monkeypatch, case, level):
    # the pass over a batch of several cycles raises, and each cycle alone
    # passes: the run has the bits of one whose batches pass
    spec, plan = _case(case)
    params = dk.SolveParams(max_iterations=20, per_sweep_trace=True,
                            check_level=level)
    clean = dk.run(spec, plan, params)
    sweep_pass = engine._CCheck._sweep_pass
    sizes = []

    def batched_fault(self, spec, R, V, at, k, *rest):
        sizes.append(k)
        if k > 1:
            raise FloatingPointError("batched pass")
        return sweep_pass(self, spec, R, V, at, k, *rest)

    monkeypatch.setattr(engine._CCheck, "_sweep_pass", batched_fault)
    res = dk.run(spec, plan, params)
    assert any(k > 1 for k in sizes)
    assert sizes.count(1) == res.cycles_run
    _assert_same_result(res, clean)


@pytest.mark.parametrize("level", ["sweep", "full"])
def test_a_pair_that_falls_back_is_approximate_and_unchecked(monkeypatch,
                                                             level):
    # two tangent balls: their outer set is compiled exact, and its every
    # solve falls back to the nested loop, approximate.  That sweep is not
    # checked as an exact one, and the run has the bits of checks off
    H, B = dk.Halfspace, dk.L2Ball
    spec = dk.ProblemSpec([1.0, 1.0], [
        dk.Indicator(B([0.0, 0.0], 1.0)), dk.Indicator(B([2.0, 0.0], 1.0)),
        dk.Indicator(H([0.0, 1.0], 0.5))])
    plan = dk.CyclePlan(pattern=(dk.SweepPlan(outer={1, 2}),
                                 dk.SweepPlan(outer={3})))
    assert engine._CSweep(plan.pattern[0], spec).exact
    passes = []
    sweep_pass = engine._CCheck._sweep_pass

    def recorded(self, *args):
        p = sweep_pass(self, *args)
        passes.append(p.exact.copy())
        return p

    monkeypatch.setattr(engine._CCheck, "_sweep_pass", recorded)
    calls = _replays(monkeypatch)
    params = dk.SolveParams(max_iterations=12, per_sweep_trace=True)
    params.check_level = level
    res = dk.run(spec, plan, params)
    params.check_level = "off"
    off = dk.run(spec, plan, params)
    for name in ("F_per_cycle", "gamma", "sq_diff_cumsum", "x"):
        assert getattr(res, name).tobytes() == getattr(off, name).tobytes()
    assert res.state.z.tobytes() == off.state.z.tobytes()
    assert res.any_approx
    assert [row.approx for row in res.sweep_rows] == [True, False] * 12
    assert all((p == [False, True]).all() for p in passes)
    assert all(w == 2 for _, w in calls)


# ---------------------------------------------------------------------------
# pricing a batch of checks-off cycle ends
# ---------------------------------------------------------------------------

def _priced_ends(seed, r, d, m, n_batch=8):
    """A mixed spec of halfspaces and balls and an (n_batch, r + m, d) array
    of states, as run holds its cycle ends with checks off.  Each term row
    is in its conjugate's domain, off a halfspace's ray by about DOM_TOL
    times its norm, just before the ray's start, or a random vector (+inf
    for a halfspace); the states cycle through the four, so some are
    finite everywhere.  Returns the spec, the states and the (state, row)
    pairs at the edge."""
    rng = np.random.default_rng(seed)
    spec = fixtures.random_mixed(seed, r, d, m=m)
    ends = rng.standard_normal((n_batch, r + m, d))
    edge = []
    for j in range(n_batch):
        for i, t in enumerate(spec.terms):
            case = (i + j) % 4 if j % 3 else 0
            if case == 0:
                ends[j, i] = moreau_dual(t, rng.standard_normal(d) * 2.0)
            elif case < 3 and isinstance(t.set, dk.Halfspace):
                edge.append((j, i))
                a, s = t.set.a, 1.0 + rng.uniform(-4e-6, 4e-6)
                if case == 1:
                    e = rng.standard_normal(d)
                    e -= (e @ a) / (a @ a) * a
                    z = rng.uniform(0.5, 3.0) * a
                    tol = DOM_TOL * max(1.0, float(np.linalg.norm(z)))
                    ends[j, i] = z + tol * s * e / np.linalg.norm(e)
                else:
                    ends[j, i] = -DOM_TOL * s * a
    return spec, ends, edge


@pytest.mark.parametrize("kernel", ["built", "matmul"])
@pytest.mark.parametrize("k", [1, 5, 8])
def test_priced_batches_have_the_bits_of_the_scalar_oracles(monkeypatch, k,
                                                            kernel):
    # the stacks' support over strided (k, rows, d) views of the cycle ends,
    # and _state_objectives over the batch, are bit for bit the scalar
    # conjugates and the per-state dual_objective_z, with rows at the edge
    # of a halfspace's support domain and at +inf
    _dots_kernel(monkeypatch, kernel)
    spec, ends, edge = _priced_ends(4, 9, 5, 4)
    Z = ends[:k]
    V = Z.sum(axis=1)
    groups = stack_terms(spec.terms, range(spec.r))
    for rows, stack in groups:
        terms = [spec.terms[i] for i in rows]
        want = [[t.conjugate(z) for t, z in zip(terms, Zj[rows])]
                for Zj in Z]
        assert type(stack) in (HalfspaceStack, BallStack)
        for index in (engine._rows_index(rows.tolist()), rows):
            got = stack.support(Z[:, index])
            assert np.array_equal(got, want)
    # the edge's rows fall on both sides of the domain test
    assert {spec.terms[i].conjugate(ends[j, i]) == math.inf
            for j, i in edge} == {False, True}
    views = [(engine._rows_index(rows.tolist()), stack)
             for rows, stack in groups]
    for g in (groups, views):
        got = engine._state_objectives(spec, g, Z, V)
        want = [dk.state.dual_objective_z(spec, Zj, groups, v)
                for Zj, v in zip(Z, V)]
        assert got.tobytes() == np.array(want).tobytes()
    F = engine._state_objectives(spec, views, ends, ends.sum(axis=1))
    assert -math.inf in F.tolist() and np.isfinite(F).any()


@pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.4.0",
                    reason="the iteration buffers bounded here were measured"
                           " on numpy 2.4")
def test_pricing_a_batch_holds_no_broadcast_buffer():
    # a ufunc that broadcasts an operand over a (k, rows, d) array holds an
    # iteration buffer for it, of up to np.getbufsize() doubles: as much as
    # the batch's term rows at the product benchmark's size.  The support
    # of contiguous rows holds one temporary of their size, s a_i, and its
    # (k, rows) vectors: 1.5 times the rows, where broadcasting held 3.2.
    # Pricing a batch of strided cycle ends (k = 8, r = 20, d = 10,
    # m = 19) holds 2.3 times the rows, where broadcasting held 3.3
    k, r, d = 8, 20, 10
    spec = fixtures.random_halfspaces(1, r, d, m=r - 1)
    ends = np.random.default_rng(2).standard_normal((k, spec.n_duals, d))
    V = ends.sum(axis=1)
    [(rows, stack)] = stack_terms(spec.terms, range(r))
    groups = [(engine._rows_index(rows.tolist()), stack)]
    rows_bytes = k * r * d * 8
    Zc = ends[:, :r].copy()
    for fn, bound in ((lambda: stack.support(Zc), 2.0),
                      (lambda: engine._state_objectives(spec, groups, ends,
                                                        V), 2.75)):
        fn()   # numpy's caches, outside the measurement
        assert test_engine._peak_bytes(fn) < bound * rows_bytes
