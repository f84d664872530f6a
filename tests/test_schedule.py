"""Sweep plans: structure checks, validity analysis, deferral rewriting."""

import numpy as np
import pytest

import dyksplit as dk

from .support import (invalid_deferred_plan, two_block_invalid_plan,
                      valid_deferred_plan)


def test_sweep_plan_normalization():
    s = dk.SweepPlan(outer=[4, 2], inner={3: [3, 1]})
    assert s.outer == frozenset({2, 4})
    assert s.inner == {3: frozenset({1, 3})}


def test_sweep_plan_structure_errors():
    with pytest.raises(dk.ScheduleStructureError):
        dk.SweepPlan(inner={3: [1, 2]})          # j not in its own block
    with pytest.raises(dk.ScheduleStructureError):
        dk.SweepPlan(inner={3: [3]})             # singleton block
    with pytest.raises(dk.ScheduleStructureError):
        dk.SweepPlan(outer=[1], inner={3: [1, 3]})   # overlap with outer
    with pytest.raises(dk.ScheduleStructureError):
        dk.SweepPlan(inner={2: [1, 2], 3: [1, 3]})   # blocks share index 1


@pytest.mark.parametrize("index", [True, 1.5, "2", float("nan")],
                         ids=["bool", "fraction", "string", "nan"])
def test_sweep_plan_indices_must_be_integers(index):
    # int() would take True and "2" as 1 and 2, and stop at nan
    for sweep in ({"outer": {index}}, {"outer": {1}, "inner": {3: {index, 3}}},
                  {"inner": {index: {1, 3}}}):
        with pytest.raises(dk.ScheduleStructureError,
                           match=r"index must be an integer, not "):
            dk.SweepPlan(**sweep)


def test_sweep_plan_takes_integral_indices_as_ints():
    s = dk.SweepPlan(outer=[2.0], inner={np.int64(4): [1, 4.0]})
    assert s.outer == {2} and s.inner == {4: {1, 4}}
    assert all(type(i) is int for i in (*s.outer, *s.inner, *s.inner[4]))
    with pytest.raises(dk.ScheduleStructureError, match="non-positive"):
        dk.SweepPlan(outer=[0])


def test_classic_schedule_valid():
    plan = dk.classic_dykstra_schedule(3)
    assert plan.w_bar == 3
    assert [s.outer for s in plan.pattern] == [frozenset({1}), frozenset({2}),
                                               frozenset({3})]
    a = dk.validate(plan, r=3, m=0)
    assert a.valid_A and a.valid_B and a.violations == []
    assert a.p == {1: 1, 2: 2, 3: 3}
    assert a.sqrt_growth_ok


def test_product_schedule_valid():
    plan = dk.product_space_schedule(3)
    assert plan.w_bar == 2
    a = dk.validate(plan, r=3, m=2)
    assert a.valid_A and a.valid_B
    # every index is last touched in sweep 2; block-touched ones have q = 1
    assert all(p == 2 for p in a.p.values())
    assert a.q == {1: 1, 2: 1, 4: 1, 5: 1}
    assert 3 not in a.q              # r is outer-touched last, no window needed
    # sweep 1 solves two copies jointly, so the growth bound does not apply
    assert not a.sqrt_growth_ok


def test_validate_rejects_out_of_range():
    plan = dk.CyclePlan(pattern=[dk.SweepPlan(outer=[4])])
    with pytest.raises(dk.ScheduleStructureError):
        dk.validate(plan, r=2, m=1)


def test_validate_requires_every_index_touched():
    plan = dk.CyclePlan(pattern=[dk.SweepPlan(outer=[1])])
    a = dk.validate(plan, r=2, m=0)
    assert not a.valid_A
    assert {v.index for v in a.violations if v.kind == "A"} == {2}


def test_known_invalid_pattern_violations():
    plan = invalid_deferred_plan()
    a = dk.validate(plan, r=2, m=2)
    assert a.valid_A and not a.valid_B
    bad = {v.index for v in a.violations if v.kind == "B"}
    # the copy inside the block trips the same window condition as its members
    assert bad == {1, 2, 3}
    assert all(v.cycle == "pattern" for v in a.violations)


def test_rewrite_produces_known_valid_plan():
    got = dk.rewrite_deferred(invalid_deferred_plan(), r=2, m=2)
    want = valid_deferred_plan()
    assert got.pattern == want.pattern
    assert got.lead_in == want.lead_in
    a = dk.validate(got, r=2, m=2)
    assert a.valid_A and a.valid_B
    lead = a.for_cycle(got, 1)
    assert lead.valid_A and lead.valid_B


def test_rewrite_is_identity_on_valid_plans():
    for plan, r, m in ((dk.classic_dykstra_schedule(4), 4, 0),
                       (dk.product_space_schedule(2), 2, 1),
                       (valid_deferred_plan(), 2, 2)):
        assert dk.rewrite_deferred(plan, r, m) is plan


def test_rewrite_two_independent_blocks():
    plan = two_block_invalid_plan()
    a = dk.validate(plan, r=3, m=3)
    assert not a.valid_B
    fixed = dk.rewrite_deferred(plan, r=3, m=3)
    af = dk.validate(fixed, r=3, m=3)
    assert af.valid_A and af.valid_B
    # one dedicated block sweep per deferred (sweep, j) pair, prepended
    assert len(fixed.pattern) == len(plan.pattern) + 2
    assert all(not s.outer for s in fixed.pattern[:2])
    lead = af.for_cycle(fixed, 1)
    assert lead.valid_A and lead.valid_B
    assert len(fixed.lead_in[0]) == len(fixed.pattern)


def test_rewrite_rejects_orphan_block():
    # the block's copy never gets an outer solve anywhere in the cycle
    plan = dk.CyclePlan(pattern=[
        dk.SweepPlan(inner={3: [1, 3]}),
        dk.SweepPlan(outer=[2]),
        dk.SweepPlan(outer=[1]),
        dk.SweepPlan(outer=[4]),
    ])
    with pytest.raises(dk.UnresolvableDeferralError):
        dk.rewrite_deferred(plan, r=2, m=2)


def test_rewrite_rejects_plans_with_lead_in():
    plan = invalid_deferred_plan()
    bad = dk.CyclePlan(pattern=plan.pattern, lead_in=[plan.pattern])
    with pytest.raises(dk.ScheduleStructureError):
        dk.rewrite_deferred(bad, r=2, m=2)


def test_cycle_selects_lead_in_then_pattern():
    plan = valid_deferred_plan()
    assert plan.cycle(1) == plan.lead_in[0]
    assert plan.cycle(2) == plan.pattern
    assert plan.cycle(100) == plan.pattern


def test_sqrt_growth_flag():
    ok = dk.validate(dk.product_space_schedule(2), r=2, m=1)
    assert ok.sqrt_growth_ok
    wide = dk.CyclePlan(pattern=[dk.SweepPlan(outer=[1, 2]),
                                 dk.SweepPlan(outer=[3])])
    a = dk.validate(wide, r=3, m=0)
    assert a.valid_A and a.valid_B and not a.sqrt_growth_ok
    big_block = dk.CyclePlan(pattern=[dk.SweepPlan(outer=[3]),
                                      dk.SweepPlan(inner={3: [1, 2, 3]}),
                                      dk.SweepPlan(outer=[1]),
                                      dk.SweepPlan(outer=[2]),
                                      dk.SweepPlan(outer=[4])])
    b = dk.validate(big_block, r=2, m=2)
    assert not b.sqrt_growth_ok
