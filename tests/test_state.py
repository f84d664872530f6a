"""Problem spec, dual objective (two routes), gap reports, direct minimizer."""

import numpy as np
import pytest

import dyksplit as dk
from dyksplit import fixtures
from dyksplit.state import dual_objective_z
from dyksplit.terms import HalfspaceStack

from .support import (direct_d1_d2_minimizer, dual_objective_scaled_route,
                      sample_term, two_halfspace_spec, unit)

INF = float("inf")


def _mixed_spec(rng, d, m):
    terms = [sample_term(k, rng, d) for k in ("box", "l2ball", "quadratic", "l1")]
    return dk.ProblemSpec(rng.standard_normal(d), terms, m=m)


def _finite_state(spec, rng):
    # rows chosen inside every conjugate domain
    z = rng.standard_normal((spec.n_duals, spec.d))
    for i, t in enumerate(spec.terms):
        if isinstance(t, dk.L1Norm):
            z[i] = rng.uniform(-0.9, 0.9, spec.d) * t.weight
    return z


def test_spec_validation():
    hs = dk.Indicator(dk.Halfspace([1.0, 0.0], 0.0))
    with pytest.raises(ValueError):
        dk.ProblemSpec([1.0, 0.0], [], m=0)
    with pytest.raises(ValueError):
        dk.ProblemSpec([1.0, 0.0], [hs], m=-1)
    with pytest.raises(dk.DimensionMismatch):
        dk.ProblemSpec([1.0, 0.0, 0.0], [hs])
    spec = dk.ProblemSpec([1.0, 0.0], [hs], m=3)
    assert spec.r == 1 and spec.n_duals == 4 and spec.d == 2
    # lam is derived from the stored m, never stored on its own
    assert spec.lam == 1.0 / (spec.m + 1)
    assert not hasattr(spec, "_lam")


@pytest.mark.parametrize("m", [1.5, "1", True, np.bool_(True), None,
                               float("inf")])
def test_spec_rejects_m_that_is_not_an_integer(m):
    # a truncated m would leave an index untouched, and run would then
    # report the plan, not m
    hs = dk.Indicator(dk.Halfspace([1.0, 0.0], 0.0))
    with pytest.raises(ValueError, match="^m must be an integer"):
        dk.ProblemSpec([1.0, 0.0], [hs], m=m)


@pytest.mark.parametrize("field,value,match", [
    ("n", 1.5, "must be an integer"), ("w", True, "must be an integer"),
    ("n", "1", "must be an integer"), ("w", -1, "must be at least 0")])
def test_dual_state_takes_its_counters_as_counts(field, value, match):
    # int() truncated 1.5 to 1 and took True as 1
    with pytest.raises(ValueError, match=f"^{field} {match}"):
        dk.DualState(np.zeros((1, 2)), **{field: value})
    st = dk.DualState(np.zeros((1, 2)), n=2.0, w=np.int64(3))
    assert (type(st.n), type(st.w), st.n, st.w) == (int, int, 2, 3)


def test_spec_takes_an_integral_m_as_an_int():
    hs = dk.Indicator(dk.Halfspace([1.0, 0.0], 0.0))
    for m in (2.0, np.int64(2), 2):
        spec = dk.ProblemSpec([1.0, 0.0], [hs], m=m)
        assert type(spec.m) is int and spec.m == 2


def test_dual_objective_desk():
    # single halfspace {x1 <= 0}, x0 = (1, 0), z = x0: F = dist^2 / 2
    spec = dk.ProblemSpec([1.0, 0.0],
                          [dk.Indicator(dk.Halfspace([1.0, 0.0], 0.0))], m=0)
    st = dk.DualState(np.array([[1.0, 0.0]]))
    assert dk.dual_objective(spec, st) == pytest.approx(0.5, abs=1e-12)
    # zero duals always give F = 0
    spec2 = two_halfspace_spec(m=2)
    assert dk.dual_objective(spec2, dk.DualState.zeros(spec2)) == 0.0


def test_dual_objective_is_minus_inf_outside_domain():
    spec = two_halfspace_spec()
    st = dk.DualState(np.array([[-1.0, 0.0], [0.0, 0.0]]))  # wrong ray side
    assert dk.dual_objective(spec, st) == -INF


def test_dual_objective_two_routes_agree():
    rng = np.random.default_rng(11)
    for _ in range(50):
        d = int(rng.integers(2, 7))
        m = int(rng.integers(0, 4))
        spec = _mixed_spec(rng, d, m)
        z = _finite_state(spec, rng)
        a = dual_objective_z(spec, z)
        b = dual_objective_scaled_route(spec, z)
        assert a == pytest.approx(b, abs=1e-10)


def test_primal_value():
    spec = two_halfspace_spec(m=1)
    assert spec.primal_value([0.0, 0.0]) == pytest.approx(2.0)   # (m+1)/2 * 2
    assert spec.primal_value([0.5, 0.0]) == INF


def test_gap_report_desk():
    # z = 0 and x = x_star: gap and its lower bound coincide at dist^2 / 2
    spec = two_halfspace_spec()
    st = dk.DualState.zeros(spec)
    rep = dk.gap_report(spec, st, [0.0, 0.0])
    assert rep.dual_value == 0.0
    assert rep.primal_value == pytest.approx(1.0, abs=1e-12)
    assert rep.gap_lower_bound == pytest.approx(1.0, abs=1e-12)
    assert rep.gap == pytest.approx(rep.gap_lower_bound, abs=1e-12)


def test_gap_report_solved_pair():
    spec = two_halfspace_spec()
    res = dk.run(spec, dk.classic_dykstra_schedule(2),
                 dk.SolveParams(max_iterations=20, check_level="sweep"))
    rep = dk.gap_report(spec, res.state, res.x)
    assert rep.gap <= 1e-8
    assert rep.gap_lower_bound <= 1e-8


def _product_gap_stop(seed):
    """A checks-off product run of random_halfspaces(seed, 20, 10) to the
    gap stop on the whole plan, which a z_init keeps it on."""
    spec = fixtures.random_halfspaces(seed, 20, 10, m=19)
    res = dk.run(spec, dk.product_space_schedule(20),
                 dk.SolveParams(stop_gap=1e-8, max_iterations=50000,
                                check_level="off"),
                 z_init=np.zeros((spec.n_duals, spec.d)))
    assert res.stop_reason == "gap"
    return spec, res


@pytest.mark.parametrize("seed", [1, 2, 4, 5, 8])
def test_gap_report_allows_an_x_inside_feas_tol_of_its_sets(seed):
    # these stops' x lie outside some sets, within FEAS_TOL, where primal
    # minus dual falls below (1/2)||x0 - x - v||^2: by up to the indicators'
    # ||z_i||·dist_i(x), which the proven bound subtracts
    spec, res = _product_gap_stop(seed)
    rep = dk.gap_report(spec, res.state, res.x)
    assert rep.gap < 0.0


def _mapped_pair_stop():
    """The product plan of terms 17 and 20 of random_halfspaces(21, 20, 10)
    alone, from zero duals to the gap 1e-8·2/20, mapped onto the whole
    problem (m = 19) as a working-set round on its own product form would
    be: its term rows times alpha = 10, zeros for the other terms, and
    -s/20 in each copy row for the sum s of the term rows.  The dual
    value's quadratic pieces are about 45 each and cancel to 0.85."""
    spec = fixtures.random_halfspaces(21, 20, 10, m=19)
    r, W = spec.r, [16, 19]
    sub = dk.ProblemSpec(spec.x0, [spec.terms[i] for i in W], m=1)
    res = dk.run(sub, dk.product_space_schedule(2),
                 dk.SolveParams(stop_gap=1e-8 * 2 / 20, max_iterations=50000,
                                check_level="off"),
                 z_init=np.zeros((sub.n_duals, sub.d)))
    assert res.stop_reason == "gap"
    z = np.zeros((spec.n_duals, spec.d))
    z[W] = 10.0 * res.state.z[:2]
    z[r:] = z[:r].sum(axis=0) / -20
    return spec, dk.DualState(z), res.x


def _understate_the_first_support(monkeypatch):
    """Make HalfspaceStack.support understate the first halfspace's support
    by 1e-6, which overstates the dual value by 1e-6."""
    support = HalfspaceStack.support

    def understated(self, Z):
        out = support(self, Z)
        out[..., 0] -= 1e-6   # the first halfspace's
        return out

    monkeypatch.setattr(HalfspaceStack, "support", understated)


def test_gap_report_allows_the_rounding_of_cancelling_quadratic_pieces(
        monkeypatch):
    # primal minus dual falls 1.2e-14 below the proven bound: rounding of
    # the pieces of about 45, not of the values of about 0.85
    spec, state, x = _mapped_pair_stop()
    rep = dk.gap_report(spec, state, x)
    assert abs(rep.dual_value - 0.85) < 0.01
    assert rep.gap < rep.gap_lower_bound
    _understate_the_first_support(monkeypatch)
    with pytest.raises(dk.WeakDualityError, match="below certified bound"):
        dk.gap_report(spec, state, x)


def test_gap_report_still_catches_an_understated_support(monkeypatch):
    spec, res = _product_gap_stop(1)
    _understate_the_first_support(monkeypatch)
    with pytest.raises(dk.WeakDualityError, match="below certified bound"):
        dk.gap_report(spec, res.state, res.x)


def test_fenchel_residual_desk():
    spec = two_halfspace_spec()
    st = dk.DualState(np.array([[1.0, 0.0], [0.0, 0.0]]))
    x = np.array([0.0, 0.0])
    assert dk.fenchel_residual(spec, st, 1, x) == pytest.approx(0.0, abs=1e-12)
    assert dk.fenchel_residual(spec, st, 2, x) == pytest.approx(0.0, abs=1e-12)
    assert dk.fenchel_residual(spec, st, 1, [0.5, 0.0]) == INF
    with pytest.raises(IndexError):
        dk.fenchel_residual(spec, st, 3, x)


def test_fenchel_residual_nonnegative_random():
    rng = np.random.default_rng(5)
    for _ in range(40):
        spec = _mixed_spec(rng, 3, m=1)
        z = _finite_state(spec, rng)
        x = rng.standard_normal(3)
        # box/ball indicators make h(x) infinite for most x; use a feasible one
        x = spec.terms[0].prox(x, 1.0)
        x = spec.terms[1].prox(x, 1.0)
        for i in (3, 4, 5):   # quadratic, l1, copy: finite values
            val = dk.fenchel_residual(spec, z, i, x)
            assert val >= 0.0


def test_direct_minimizer_desk():
    hs = dk.Indicator(dk.Halfspace([1.0, 0.0], 0.0))
    spec3 = dk.ProblemSpec([0.0, 0.0], [hs], m=3)
    out = direct_d1_d2_minimizer(spec3, [4.0, 0.0])
    assert out.shape == (3, 2)
    assert np.allclose(out, [[-1.0, 0.0]] * 3, atol=1e-14)
    spec1 = dk.ProblemSpec([0.0, 0.0], [hs], m=1)
    assert np.allclose(direct_d1_d2_minimizer(spec1, [2.0, -2.0]),
                       [[-1.0, 1.0]], atol=1e-14)
    spec0 = dk.ProblemSpec([0.0, 0.0], [hs], m=0)
    assert direct_d1_d2_minimizer(spec0, [1.0, 1.0]).shape == (0, 2)


def test_direct_minimizer_matches_kron_system():
    # stationarity of the stacked quadratic: (I + ones @ ones.T kron I) y = -1 kron zbar
    rng = np.random.default_rng(77)
    hs = dk.Indicator(dk.Halfspace([1.0, 0.0, 0.0], 0.0))
    for _ in range(25):
        m = int(rng.integers(1, 5))
        d = int(rng.integers(1, 5))
        spec = dk.ProblemSpec(rng.standard_normal(d),
                              [dk.Indicator(dk.Halfspace(unit(rng, d), 0.0))],
                              m=m)
        zbar = rng.standard_normal(d)
        H = np.eye(m * d) + np.kron(np.ones((m, m)), np.eye(d))
        y = np.linalg.solve(H, -np.tile(zbar, m))
        out = direct_d1_d2_minimizer(spec, zbar)
        assert np.allclose(out.reshape(-1), y, atol=1e-10)


def test_weak_duality_against_oracle():
    # every engine state keeps F at or below the primal optimum
    rng = np.random.default_rng(23)
    for _ in range(5):
        d = int(rng.integers(2, 5))
        terms = [dk.Indicator(dk.Halfspace(unit(rng, d),
                                           float(rng.uniform(0.2, 0.8))))
                 for _ in range(3)]
        spec = dk.ProblemSpec(rng.standard_normal(d) * 2.0, terms, m=0)
        inst = dk.PolyhedralInstance.from_spec(spec)
        x_star = dk.qp_project(inst)
        alpha = (spec.m + 1) * spec.quad_value(x_star)
        res = dk.run(spec, dk.classic_dykstra_schedule(3),
                     dk.SolveParams(max_iterations=300, check_level="off"))
        assert res.F_per_cycle.max() <= alpha + 1e-8


def test_primal_estimate():
    spec = two_halfspace_spec()
    st = dk.DualState(np.array([[0.25, 0.0], [0.0, -0.5]]))
    assert np.allclose(dk.primal_estimate(spec, st), [0.75, 1.5])
