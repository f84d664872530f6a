"""Acceptance battery.

Each test covers one advertised guarantee and prints a single
"PASS criterion N" line on success (run with -s to see them inline).
"""

import functools
import time
import zlib

import numpy as np
import pytest

import dyksplit as dk
from dyksplit import fixtures
from dyksplit.cli import _write_trace
from dyksplit.terms import moreau_dual

from .support import (SET_KINDS, TERM_KINDS, direct_d1_d2_minimizer,
                      invalid_deferred_plan, irrational_angle_spec, run_until,
                      sample_term, two_halfspace_spec, unit,
                      valid_deferred_plan)


def criterion(num, text):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nFAIL criterion {num}: {text}")
                raise
            print(f"\nPASS criterion {num}: {text}")
        return wrapper
    return deco


def _lift(spec, m):
    return dk.ProblemSpec(spec.x0, spec.terms, m=m)


def _deferred_instance():
    return dk.ProblemSpec([1.1, 0.7],
                          [dk.Indicator(dk.Halfspace([1.0, 0.0], 0.2)),
                           dk.Indicator(dk.Halfspace([0.6, 0.8], 0.1))],
                          m=2)


# ---------------------------------------------------------------------------
# 1. product-space equivalence
# ---------------------------------------------------------------------------

@criterion(1, "product-space runs match the averaged-projection loop to 1e-9")
def test_product_space_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for k in range(20):
        r = 2 + k % 3
        d = 2 + k % 5
        spec = fixtures.random_mixed(200 + k, r, d, m=r - 1)
        hist = dk.product_space_reference(spec, n_cycles=50)
        res = dk.run(spec, dk.product_space_schedule(r),
                     dk.SolveParams(max_iterations=50, check_level="sweep"),
                     keep_cycle_starts=True)
        for ref, mine in zip(hist, res.cycle_start_duals):
            diff = mine[:r] - ref
            worst = max(worst, float(np.sqrt((diff * diff).sum(axis=1)).max()))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9, f"worst per-row dual difference {worst}"
    assert elapsed < 5.0, f"equivalence battery took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. monotone ascent per sweep, with the strengthened margin
# ---------------------------------------------------------------------------

def _ascent_battery():
    rng = np.random.default_rng(77)
    box_spec = dk.ProblemSpec(
        rng.standard_normal(3) * 2.0,
        [dk.Indicator(dk.Box([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0])),
         dk.Indicator(dk.AffineSubspace([[1.0, 1.0, 1.0]], [0.5])),
         dk.Indicator(dk.Halfspace(unit(rng, 3), 0.3))], m=0)
    hs = fixtures.random_halfspaces(7, 3, 3, m=1)
    yield two_halfspace_spec(), dk.classic_dykstra_schedule(2), 20
    yield irrational_angle_spec(), dk.classic_dykstra_schedule(3), 300
    yield irrational_angle_spec(m=2), dk.product_space_schedule(3), 300
    yield _deferred_instance(), valid_deferred_plan(), 400
    yield hs, fixtures.mixed_block_schedule(3), 400
    yield box_spec, dk.classic_dykstra_schedule(3), 300


@criterion(2, "dual objective never drops per sweep; gain covers the"
              " squared-movement margin to 1e-8")
def test_monotone_ascent_with_margin():
    sweeps_checked = 0
    for spec, plan, cap in _ascent_battery():
        res = dk.run(spec, plan,
                     dk.SolveParams(max_iterations=cap, per_sweep_trace=True,
                                    check_level="sweep"))
        assert not res.any_approx
        f_prev = res.F_initial
        for row in res.sweep_rows:
            assert row.F - f_prev >= -1e-10
            margin = 0.5 * row.v_diff ** 2 + sum(
                0.5 * dv ** 2 for dv in row.inner_diffs.values())
            assert row.F - f_prev >= margin - 1e-8
            f_prev = row.F
            sweeps_checked += 1
    assert sweeps_checked > 3000


# ---------------------------------------------------------------------------
# 3. convergence to the independent projection oracle
# ---------------------------------------------------------------------------

@criterion(3, "classic, product, and a mixed block schedule all reach the"
              " oracle projection to 1e-6 within 1e4 cycles")
def test_convergence_to_oracle():
    start = time.perf_counter()
    instances = []
    for k in range(30):
        r = 2 + k % 5
        d = 2 + k % 5
        spec = fixtures.random_halfspaces(k, r, d)
        x_star = dk.qp_project(dk.PolyhedralInstance.from_spec(spec))
        assert x_star is not None
        instances.append((spec, x_star))
    for k in range(10):
        r = 2 + k % 2
        d = 2 + k % 3
        spec = fixtures.random_balls(100 + k, r, d)
        instances.append((spec, dk.reference_solve(spec, tol=1e-9)))

    for spec, x_star in instances:
        r = spec.r
        for lifted, plan in (
                (spec, dk.classic_dykstra_schedule(r)),
                (_lift(spec, r - 1), dk.product_space_schedule(r)),
                (_lift(spec, 1), fixtures.mixed_block_schedule(r))):
            cycles, err, _ = run_until(lifted, plan, x_star, tol=1e-6,
                                       max_cycles=10_000)
            assert err <= 1e-6, (
                f"error {err:.2e} after {cycles} cycles (r={r}, d={spec.d})")
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"convergence battery took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 4. certificates each cycle
# ---------------------------------------------------------------------------

@criterion(4, "per-index certificate points stay within gamma_n + 1e-9 of the"
              " iterate and pass the 1e-8 optimality residual")
def test_certificates():
    batteries = (
        (irrational_angle_spec(), dk.classic_dykstra_schedule(3), 200),
        (irrational_angle_spec(m=2), dk.product_space_schedule(3), 40),
        (_deferred_instance(), valid_deferred_plan(), 400),
        (fixtures.random_halfspaces(7, 3, 3, m=1),
         fixtures.mixed_block_schedule(3), 400),
    )
    for spec, plan, cap in batteries:
        # check_level="full" re-asserts the bounds inside every single cycle
        res = dk.run(spec, plan, dk.SolveParams(max_iterations=cap,
                                                check_level="full"))
        assert res.analysis.valid_A and res.analysis.valid_B
        assert res.certificates is not None
        assert sorted(c.index for c in res.certificates) == list(
            range(1, spec.n_duals + 1))
        for cert in res.certificates:
            assert np.all(np.isfinite(cert.point))
            assert cert.residual <= res.gamma[-1] + 1e-9
            assert cert.fenchel <= 1e-8


# ---------------------------------------------------------------------------
# 5. schedule validator fixtures and the deferral rewrite
# ---------------------------------------------------------------------------

@criterion(5, "validator rejects the known bad pattern naming index 3,"
              " accepts its rewrite, and the rewrite is exact and idempotent")
def test_schedule_fixture_pair():
    bad = invalid_deferred_plan()
    analysis = dk.validate(bad, r=2, m=2)
    assert not analysis.valid_B
    bad_idx = {v.index for v in analysis.violations if v.kind == "B"}
    assert 3 in bad_idx
    good = valid_deferred_plan()
    ga = dk.validate(good, r=2, m=2)
    assert ga.valid_A and ga.valid_B and ga.violations == []
    rewritten = dk.rewrite_deferred(bad, r=2, m=2)
    assert rewritten.pattern == good.pattern
    assert rewritten.lead_in == good.lead_in
    for plan, r, m in ((good, 2, 2), (dk.classic_dykstra_schedule(5), 5, 0),
                       (dk.product_space_schedule(3), 3, 2)):
        assert dk.rewrite_deferred(plan, r, m) is plan


# ---------------------------------------------------------------------------
# 6. closed-form elimination of the copy duals
# ---------------------------------------------------------------------------

@criterion(6, "copy-dual elimination reproduces the scaled-conjugate optimal"
              " value to 1e-10 on 100 random inputs")
def test_copy_elimination_identity():
    rng = np.random.default_rng(606)
    for _ in range(100):
        m = int(rng.integers(1, 7))
        d = int(rng.integers(1, 7))
        x0 = rng.standard_normal(d) * 2.0
        spec = dk.ProblemSpec(x0, [dk.Indicator(dk.Halfspace(unit(rng, d),
                                                             1.0))], m=m)
        zbar = rng.standard_normal(d) * 3.0
        lam = 1.0 / (m + 1)

        def gstar(y):
            return float(y @ x0) + float(y @ y) / (2.0 * (m + 1))

        rows = direct_d1_d2_minimizer(spec, zbar)
        assert rows.shape == (m, d)
        assert np.allclose(rows, -np.tile(zbar, (m, 1)) * lam, atol=1e-12)
        obj = lam * gstar(-(zbar + rows.sum(axis=0)) / lam)
        obj += sum(lam * gstar(rows[j] / lam) for j in range(m))
        assert abs(obj - gstar(-zbar)) <= 1e-10


# ---------------------------------------------------------------------------
# 7. summability of squared movements and the growth monitor
# ---------------------------------------------------------------------------

@criterion(7, "halved squared-movement sums stay below the duality-gap budget"
              " and the sqrt-n growth monitor stays bounded over 1e4 cycles")
def test_summability_and_growth():
    runs = (
        (two_halfspace_spec(), dk.classic_dykstra_schedule(2), 50),
        (irrational_angle_spec(), dk.classic_dykstra_schedule(3), 2000),
        (_deferred_instance(), valid_deferred_plan(), 600),
    )
    for spec, plan, cap in runs:
        x_star = dk.qp_project(dk.PolyhedralInstance.from_spec(spec))
        alpha = (spec.m + 1) * spec.quad_value(x_star)
        res = dk.run(spec, plan, dk.SolveParams(max_iterations=cap,
                                                check_level="sweep"))
        budget = alpha - res.F_initial + 1e-6
        assert 0.5 * res.sq_diff_cumsum.max() <= budget
        assert res.F_per_cycle.max() <= alpha + 1e-8

    growth_runs = (
        (irrational_angle_spec(), dk.classic_dykstra_schedule(3)),
        (fixtures.random_halfspaces(7, 3, 3, m=1),
         fixtures.mixed_block_schedule(3)),
    )
    for spec, plan in growth_runs:
        assert dk.validate(plan, spec.r, spec.m).sqrt_growth_ok
        res = dk.run(spec, plan, dk.SolveParams(max_iterations=10_000,
                                                check_level="off"))
        assert res.cycles_run == 10_000
        g = res.growth
        assert np.all(np.isfinite(g))
        assert g.max() <= 2.0 * (np.linalg.norm(res.state.z) + 1.0)
        assert g[-1] <= 0.2 * g.max()


# ---------------------------------------------------------------------------
# 8. determinism: worker counts and the snapshot semantics of a sweep
# ---------------------------------------------------------------------------

@criterion(8, "worker counts 1, 2, and 8 (deprecated, ignored) leave every"
              " trace byte identical")
def test_worker_determinism(tmp_path):
    spec = irrational_angle_spec(m=2)
    plan = dk.product_space_schedule(3)
    texts = []
    results = []
    for w in (1, 2, 8):
        params = dict(max_iterations=40, workers=w, per_sweep_trace=True,
                      check_level="sweep")
        if w == 1:
            res = dk.run(spec, plan, dk.SolveParams(**params))
        else:
            with pytest.warns(DeprecationWarning, match="workers"):
                res = dk.run(spec, plan, dk.SolveParams(**params))
        path = tmp_path / f"trace_{w}.csv"
        _write_trace(str(path), "csv", res.sweep_rows, {})
        texts.append(path.read_bytes())
        results.append(res)
    base = results[0]
    for other in results[1:]:
        assert np.array_equal(base.state.z, other.state.z)
        assert np.array_equal(base.gamma, other.gamma)
        assert np.array_equal(base.F_per_cycle, other.F_per_cycle)
    assert texts[0] == texts[1] == texts[2]


def _sweep_by_parts(spec, z, sweep):
    """A sweep as separate public solves, each on its own copy of z.

    The rows each solve writes are merged in reverse order, so nothing but
    the snapshot semantics can make this agree with run_sweep.
    """
    parts = []
    if sweep.outer:
        parts.append((sweep.outer, dk.SweepPlan(outer=sweep.outer)))
    for j, members in sorted(sweep.inner.items()):
        parts.append((members, dk.SweepPlan(inner={j: members})))
    merged = z.copy()
    for rows, part in reversed(parts):
        st = dk.DualState(z.copy())
        dk.run_sweep(spec, st, part)
        rows0 = sorted(i - 1 for i in rows)
        merged[rows0] = st.z[rows0]
    return merged


@criterion(8, "a sweep equals its subproblems solved separately on one"
              " snapshot and merged in any order, bitwise")
def test_sweep_equals_subproblems_on_one_snapshot():
    # product sweep 2 runs an outer solve and r-1 blocks in one sweep.  The
    # blocks keep their sums only up to rounding, so at r = 10 a solve that
    # read rows an earlier step wrote would differ in the last bits.
    cases = [(fixtures.random_mixed(2, 10, 5, m=9),
              dk.product_space_schedule(10)),
             (fixtures.random_mixed(11, 4, 3, m=1),
              fixtures.mixed_block_schedule(4))]
    for spec, plan in cases:
        st = dk.DualState.zeros(spec)
        for cycle in range(3):
            for w, sweep in enumerate(plan.pattern, start=1):
                expected = _sweep_by_parts(spec, st.z, sweep)
                dk.run_sweep(spec, st, sweep)
                assert np.array_equal(st.z, expected), (cycle, w)
        assert np.any(st.z != 0.0)


@criterion(8, "a product sweep's 19 halfspace blocks, solved as one stacked"
              " call, equal the blocks solved one at a time, bitwise")
def test_stacked_blocks_equal_subproblems_on_one_snapshot():
    # r = 20, d = 10 is the product-lean benchmark shape; every block of
    # sweep 2 has one halfspace member, so run_sweep solves them in one
    # HalfspaceStack call, and on a one-block SweepPlan a stack of one row
    spec = fixtures.random_halfspaces(4, 20, 10, m=19)
    plan = dk.product_space_schedule(20)
    st = dk.DualState.zeros(spec)
    for cycle in range(3):
        for w, sweep in enumerate(plan.pattern, start=1):
            expected = _sweep_by_parts(spec, st.z, sweep)
            dk.run_sweep(spec, st, sweep)
            assert np.array_equal(st.z, expected), (cycle, w)
    assert np.any(st.z[:19] != 0.0)


# ---------------------------------------------------------------------------
# 9. prox/conjugate property suite
# ---------------------------------------------------------------------------

@criterion(9, "Moreau split, conjugate-pair equality, idempotence, and firm"
              " nonexpansiveness hold for 100 samples of every term kind")
def test_term_property_suite():
    for kind in TERM_KINDS:
        rng = np.random.default_rng(zlib.crc32(kind.encode()))
        for _ in range(100):
            d = int(rng.integers(1, 9))
            if kind == "affine" and d < 2:
                d = 2
            term = sample_term(kind, rng, d)
            u = rng.standard_normal(d) * 2.0
            p = term.prox(u, 1.0)
            z = moreau_dual(term, u)
            assert np.abs(p + z - u).max() <= 1e-12
            hval, cval = term.value(p), term.conjugate(z)
            assert hval < np.inf and cval < np.inf
            assert abs(hval + cval - float(p @ z)) <= 1e-8
            if kind in SET_KINDS:
                assert np.abs(term.prox(p, 1.0) - p).max() <= 1e-12
            u2 = u + rng.standard_normal(d)
            p2 = term.prox(u2, 1.0)
            gap = float((p - p2) @ (u - u2)) - float((p - p2) @ (p - p2))
            assert gap >= -1e-10
