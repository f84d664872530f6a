"""Shared fixtures and independent verification routes for the test suite."""

import numpy as np

import dyksplit as dk
from dyksplit import engine
from dyksplit.engine import SolveParams, run
from dyksplit.schedule import CyclePlan, SweepPlan


# ---------------------------------------------------------------------------
# fault injection into the engine's solvers
# ---------------------------------------------------------------------------

def patch_solver(monkeypatch, name, fake):
    """Replace the engine solver called name with fake, which the sweeps
    compiled from then on run as their steps' solve, and give fake the
    original's entry of the tier table (engine._TIERS), under which the
    compiled sweeps look their steps up."""
    monkeypatch.setitem(engine._TIERS, fake,
                        engine._TIERS[getattr(engine, name)])
    monkeypatch.setattr(engine, name, fake)


# ---------------------------------------------------------------------------
# random term sampling
# ---------------------------------------------------------------------------

def unit(rng, d):
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


def sample_set(kind, rng, d):
    if kind == "halfspace":
        return dk.Halfspace(unit(rng, d), rng.uniform(-1.0, 1.0))
    if kind == "hyperplane":
        return dk.Hyperplane(unit(rng, d), rng.uniform(-1.0, 1.0))
    if kind == "box":
        a = rng.uniform(-1.5, 1.5, size=d)
        b = rng.uniform(-1.5, 1.5, size=d)
        return dk.Box(np.minimum(a, b), np.maximum(a, b))
    if kind == "l2ball":
        return dk.L2Ball(rng.uniform(-1, 1, size=d), rng.uniform(0.2, 2.0))
    if kind == "affine":
        k = int(rng.integers(1, d))
        while True:
            A = rng.standard_normal((k, d))
            if np.linalg.matrix_rank(A, tol=1e-10) == k:
                break
        return dk.AffineSubspace(A, rng.standard_normal(k))
    raise ValueError(kind)


SET_KINDS = ("halfspace", "hyperplane", "box", "l2ball", "affine")


def sample_term(kind, rng, d):
    if kind in SET_KINDS:
        return dk.Indicator(sample_set(kind, rng, d))
    if kind == "l1":
        return dk.L1Norm(d, rng.uniform(0.3, 3.0))
    if kind == "quadratic":
        return dk.Quadratic(rng.uniform(-1, 1, size=d), rng.uniform(0.3, 3.0))
    raise ValueError(kind)


TERM_KINDS = SET_KINDS + ("l1", "quadratic")


# ---------------------------------------------------------------------------
# independent dual-objective route (scaled conjugates of the unsplit coupling)
# ---------------------------------------------------------------------------

def dual_objective_scaled_route(spec, z):
    """Dual value via lam * g_conj(z / lam) pieces instead of the closed form."""
    mp1 = spec.m + 1

    def g_conj(y):
        return float(y @ spec.x0) + float(y @ y) / (2.0 * mp1)

    total = 0.0
    for i in range(spec.r):
        c = spec.terms[i].conjugate(z[i])
        if c == float("inf"):
            return float("-inf")
        total += c
    lam = 1.0 / mp1
    for j in range(spec.r, spec.r + spec.m):
        total += lam * g_conj(z[j] / lam)
    v = z.sum(axis=0)
    total += lam * g_conj(-v / lam)
    return -total


def direct_d1_d2_minimizer(spec, zbar_sum):
    """Exact joint minimizer over the m quadratic-copy duals, rows j=1..m.

    With the r term duals held fixed at total zbar_sum, every copy's optimal
    dual equals -zbar_sum/(m+1); returned as an (m, d) array.  The engine's
    all-quadratic tier computes the same rows; this is its reference.
    """
    zbar_sum = np.asarray(zbar_sum, dtype=float).ravel()
    if zbar_sum.size != spec.d:
        raise dk.DimensionMismatch(
            f"zbar_sum has length {zbar_sum.size}, expected {spec.d}")
    if spec.m == 0:
        return np.zeros((0, spec.d))
    row = -zbar_sum / (spec.m + 1)
    return np.tile(row, (spec.m, 1))


# ---------------------------------------------------------------------------
# worked schedule fixtures (hand-checked touch patterns)
# ---------------------------------------------------------------------------

def invalid_deferred_plan():
    """r=2, m=2 pattern whose two inner blocks break condition (B).

    Sweeps: outer {3}; outer {1}; outer {2} with block {1,3}; outer {4} with
    block {2,3}.  Indices 1, 2 and 3 all have their last touch inside a block
    with no clean window back to an outer solve of 3.
    """
    return CyclePlan(pattern=(
        SweepPlan(outer={3}),
        SweepPlan(outer={1}),
        SweepPlan(outer={2}, inner={3: {1, 3}}),
        SweepPlan(outer={4}, inner={3: {2, 3}}),
    ))


def valid_deferred_plan():
    """The repaired form: both blocks deferred to cycle starts, one lead-in."""
    stripped = (SweepPlan(outer={3}), SweepPlan(outer={1}),
                SweepPlan(outer={2}), SweepPlan(outer={4}))
    pattern = (SweepPlan(inner={3: {1, 3}}), SweepPlan(inner={3: {2, 3}})) + stripped
    lead = (SweepPlan(), SweepPlan()) + stripped
    return CyclePlan(pattern=pattern, lead_in=(lead,))


def two_block_invalid_plan():
    """r=3, m=3 pattern with two independently violating blocks (j=4 and j=5)."""
    return CyclePlan(pattern=(
        SweepPlan(outer={4}),
        SweepPlan(outer={5}),
        SweepPlan(outer={1}),
        SweepPlan(outer={2}, inner={4: {1, 4}}),
        SweepPlan(outer={3}, inner={5: {2, 5}}),
        SweepPlan(outer={6}),
    ))


# ---------------------------------------------------------------------------
# desk instances
# ---------------------------------------------------------------------------

def two_halfspace_spec(m=0):
    """x0=(1,1) against {x1<=0} and {x2<=0}; projection is the origin."""
    return dk.ProblemSpec(
        [1.0, 1.0],
        [dk.Indicator(dk.Halfspace([1.0, 0.0], 0.0)),
         dk.Indicator(dk.Halfspace([0.0, 1.0], 0.0))],
        m=m)


def irrational_angle_spec(m=0):
    """Three planar halfspaces with incommensurate normals; x0 outside two.

    The projection lands on the vertex of the first two constraints, so the
    classic cycle converges only asymptotically (linear rate).
    """
    angles = np.deg2rad([0.0, 100.0, 215.0])
    offsets = [0.05, 0.1, 0.08]
    terms = [dk.Indicator(dk.Halfspace([np.cos(t), np.sin(t)], b))
             for t, b in zip(angles, offsets)]
    return dk.ProblemSpec([1.2, 0.9], terms, m=m)


# ---------------------------------------------------------------------------
# chunked convergence driver
# ---------------------------------------------------------------------------

def run_until(spec, plan, x_star, tol=1e-6, max_cycles=10_000, chunk=128,
              check_level="off"):
    """Run in resumable chunks; returns (cycles_used, final_error, last_result)."""
    z = None
    used = 0
    result = None
    while used < max_cycles:
        budget = min(chunk, max_cycles - used)
        result = run(spec, plan,
                     SolveParams(max_iterations=budget, check_level=check_level),
                     z_init=z)
        z = result.state.z
        used += result.cycles_run
        err = float(np.linalg.norm(result.x - x_star))
        if err <= tol:
            return used, err, result
        chunk = min(2 * chunk, 2048)
    return used, float(np.linalg.norm(result.x - x_star)), result


# ---------------------------------------------------------------------------
# zooming grid minimizer (independent oracle for non-polyhedral instances)
# ---------------------------------------------------------------------------

def grid_project_2d(x0, feasible, center, width, levels=9, pts=33):
    """Minimize ||x - x0|| over a 2-d feasible set by window refinement."""
    x0 = np.asarray(x0, dtype=float)
    best = None
    best_val = float("inf")
    c = np.asarray(center, dtype=float)
    w = float(width)
    for _ in range(levels):
        xs = np.linspace(c[0] - w, c[0] + w, pts)
        ys = np.linspace(c[1] - w, c[1] + w, pts)
        for gx in xs:
            for gy in ys:
                p = np.array([gx, gy])
                if not feasible(p):
                    continue
                val = float(np.linalg.norm(p - x0))
                if val < best_val:
                    best_val = val
                    best = p
        if best is None:
            raise RuntimeError("no feasible grid point found")
        c = best
        w = 4.0 * (2.0 * w / (pts - 1))
    return best
