"""The gap rule's skip: the hint's distance decides the cycles after it."""

import numpy as np
import pytest

import dyksplit as dk
from dyksplit import engine, fixtures
from dyksplit.terms import FEAS_TOL

from .support import SET_KINDS, sample_set
from .test_check_batches import _assert_same_result, _case

try:
    from hypothesis import HealthCheck, assume, given, settings
    from hypothesis import strategies as st
except ImportError:   # only the soundness property needs it
    given = None


def _counting(name, counts, monkeypatch):
    """Count engine.<name>'s calls, and its true answers, in counts."""
    fn = getattr(engine, name)

    def counted(*args):
        out = fn(*args)
        counts[0] += 1
        counts[1] += out is True
        return out

    monkeypatch.setattr(engine, name, counted)


@pytest.mark.parametrize("level", ["off", "sweep", "full"])
@pytest.mark.parametrize("case", ["classic", "product", "mixed_block",
                                  "custom_nested"])
def test_the_skip_keeps_the_bits_of_the_exact_test(monkeypatch, case, level):
    # a skipped cycle is one whose exact test finds +inf: stop cycles, F, x
    # and every trace row are those of a run that tests every cycle
    # _case's classic fixture stops in 4 cycles, before any skip
    spec, plan = ((fixtures.random_halfspaces(1, 6, 4),
                   dk.classic_dykstra_schedule(6)) if case == "classic"
                  else _case(case))
    skips = [0, 0]
    _counting("_stays_out", skips, monkeypatch)
    for per_sweep in (False, True):
        for cap in (7, 400):
            params = dk.SolveParams(max_iterations=cap, stop_gap=1e-8,
                                    check_level=level,
                                    per_sweep_trace=per_sweep)
            res = dk.run(spec, plan, params)
            with monkeypatch.context() as m:
                m.setattr(engine, "_stays_out", lambda *args: False)
                _assert_same_result(res, dk.run(spec, plan, params))
    assert skips[1] > 0


def test_a_product_run_takes_the_exact_test_on_few_cycles(monkeypatch):
    # the product-space fixtures of the benchmark's shape run hundreds of
    # cheap cycles outside some set; one distance decides most of them
    for seed in (1, 2, 3):
        tests = [0, 0]
        _counting("_primal_value", tests, monkeypatch)
        res = dk.run(fixtures.random_halfspaces(seed, 20, 10, m=19),
                     dk.product_space_schedule(20),
                     dk.SolveParams(max_iterations=5000, stop_gap=1e-8,
                                    check_level="off"))
        monkeypatch.undo()
        assert res.stop_reason == "gap" and res.cycles_run > 500
        assert tests[0] <= 0.2 * res.cycles_run


def _scaled(kind, rng, d, s):
    """sample_set(kind, rng, d) with its data scaled by s."""
    c = sample_set(kind, rng, d)
    if kind == "halfspace":
        return dk.Halfspace(c.a, s * c.b)
    if kind == "hyperplane":
        return dk.Hyperplane(c.a, s * c.b)
    if kind == "box":
        return dk.Box(s * c.lo, s * c.hi)
    if kind == "l2ball":
        return dk.L2Ball(s * c.center, s * c.radius)
    return dk.AffineSubspace(c.matrix, s * c.rhs)


@pytest.mark.skipif(given is None, reason="needs hypothesis")
def test_a_skip_is_taken_only_where_the_exact_test_finds_inf():
    # v moves from kept toward the projection of x0 - kept, to a distance
    # near FEAS_TOL: over (1e-20 .. 1e-6)·(1 + s) above it, or below it,
    # straight or with a sideways part; whenever _stays_out skips, the exact
    # test at x0 - v finds the point farther than FEAS_TOL
    seen = {"skip": 0, "near": 0, "test": 0}

    @settings(max_examples=600, deadline=None, database=None,
              derandomize=True,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(st.sampled_from(SET_KINDS), st.integers(2, 8),
           st.floats(-4.0, 5.0), st.integers(0, 2**32 - 1),
           st.floats(-20.0, -6.0), st.booleans(), st.floats(0.0, 1.0))
    def check(kind, d, e, seed, b, below, side):
        s = 10.0 ** e
        rng = np.random.default_rng(seed)
        term = dk.Indicator(_scaled(kind, rng, d, s))
        x0 = 3.0 * s * rng.standard_normal(d)
        kept = x0 - 3.0 * s * rng.standard_normal(d)
        x = x0 - kept
        c = term.distance(x)
        assume(c > 10.0 * FEAS_TOL)
        n = (x - term.set.project(x)) / c
        off = 10.0 ** b * (1.0 + s) * (-1.0 if below else 1.0)
        v = kept + (c - FEAS_TOL - off) * n
        if side:
            w = rng.standard_normal(d)
            w -= (w @ n) * n
            v += side * 10.0 ** b * (1.0 + s) * w / np.linalg.norm(w)
        scale = float(np.linalg.norm(x)) + getattr(term.set, "scale", 0.0)
        if engine._stays_out(v, kept, c, scale, np.empty(d)):
            seen["skip"] += 1
            seen["near"] += off < 1e-9 * (1.0 + s)
            assert term.distance(x0 - v) > FEAS_TOL
        else:
            seen["test"] += 1

    check()
    assert min(seen.values()) >= 20, seen
