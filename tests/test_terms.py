"""Term oracles: desk values, conjugate domains, and the prox property suite."""

import zlib

import numpy as np
import pytest

import dyksplit as dk
from dyksplit.terms import (FEAS_TOL, BallStack, HalfspaceStack, TermStack,
                           moreau_dual, stack_terms, stacked_conjugates)

from .support import TERM_KINDS, sample_term

INF = float("inf")
MOREAU_TOL = 1e-12
FY_TOL = 1e-8
IDEM_TOL = 1e-12
FIRM_TOL = 1e-10
N_SAMPLES = 100


# ---------------------------------------------------------------------------
# desk values
# ---------------------------------------------------------------------------

def test_halfspace_desk():
    h = dk.Indicator(dk.Halfspace([1.0, 0.0], 0.0))
    assert np.allclose(h.prox([2.0, 3.0]), [0.0, 3.0])
    assert np.allclose(h.prox([-1.0, 3.0]), [-1.0, 3.0])
    assert h.value([-1.0, 5.0]) == 0.0
    assert h.value([0.1, 0.0]) == INF
    assert h.conjugate([2.0, 0.0]) == 0.0
    assert h.conjugate([-1.0, 0.0]) == INF       # wrong side of the ray
    assert h.conjugate([0.5, 0.5]) == INF        # off the ray
    g = dk.Indicator(dk.Halfspace([2.0, 0.0], 3.0))
    assert g.conjugate([4.0, 0.0]) == pytest.approx(6.0, abs=1e-12)


def test_hyperplane_desk():
    h = dk.Indicator(dk.Hyperplane([0.0, 1.0], 2.0))
    assert np.allclose(h.prox([5.0, 7.0]), [5.0, 2.0])
    assert h.value([3.0, 2.0]) == 0.0
    assert h.conjugate([0.0, -3.0]) == pytest.approx(-6.0, abs=1e-12)
    assert h.conjugate([1.0, 1.0]) == INF


def test_box_desk():
    b = dk.Indicator(dk.Box([-1.0, 0.0], [1.0, 2.0]))
    assert np.allclose(b.prox([3.0, -1.0]), [1.0, 0.0])
    assert b.conjugate([1.0, -1.0]) == pytest.approx(1.0, abs=1e-12)
    assert b.conjugate([-2.0, 3.0]) == pytest.approx(8.0, abs=1e-12)


def test_ball_desk():
    s = dk.Indicator(dk.L2Ball([1.0, 0.0], 2.0))
    assert np.allclose(s.prox([5.0, 0.0]), [3.0, 0.0])
    assert s.conjugate([3.0, 4.0]) == pytest.approx(3.0 + 2.0 * 5.0, abs=1e-12)


def test_affine_desk():
    a = dk.Indicator(dk.AffineSubspace([[1.0, 1.0, 0.0]], [1.0]))
    x = a.prox([2.0, 2.0, 5.0])
    assert np.allclose(x, [0.5, 0.5, 5.0])
    assert a.conjugate([3.0, 3.0, 0.0]) == pytest.approx(3.0, abs=1e-12)
    assert a.conjugate([1.0, 0.0, 0.0]) == INF


def test_l1_desk():
    f = dk.L1Norm(2, weight=2.0)
    assert f.value([1.0, -3.0]) == pytest.approx(8.0)
    assert np.allclose(f.prox([5.0, -1.0], t=1.0), [3.0, 0.0])
    assert np.allclose(f.prox([5.0, -1.0], t=0.25), [4.5, -0.5])
    assert f.conjugate([2.0, -2.0]) == 0.0
    assert f.conjugate([2.1, 0.0]) == INF


def test_quadratic_desk():
    f = dk.Quadratic([1.0, 1.0], weight=2.0)
    assert f.value([2.0, 1.0]) == pytest.approx(1.0)
    assert np.allclose(f.prox([4.0, 4.0], t=0.5), [2.5, 2.5])
    assert f.conjugate([2.0, 0.0]) == pytest.approx(2.0 + 1.0)


def test_construction_errors():
    with pytest.raises(ValueError):
        dk.Halfspace([0.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        dk.Box([1.0], [0.0])
    with pytest.raises(ValueError):
        dk.Box([0.0], [np.inf])
    with pytest.raises(ValueError):
        dk.L2Ball([0.0], -1.0)
    with pytest.raises(ValueError):
        dk.AffineSubspace([[1.0, 0.0], [2.0, 0.0]], [1.0, 2.0])  # rank deficient
    with pytest.raises(ValueError):
        dk.L1Norm(2, weight=0.0)
    with pytest.raises(ValueError):
        dk.Quadratic([0.0], weight=-1.0)
    with pytest.raises(dk.DimensionMismatch):
        dk.Indicator(dk.Halfspace([1.0, 0.0], 0.0)).prox([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        dk.L1Norm(2).prox([1.0, 2.0], t=0.0)


NAN = float("nan")


@pytest.mark.parametrize("make", [
    lambda: dk.Halfspace([NAN, 1.0], 0.0),
    lambda: dk.Halfspace([1.0, 0.0], INF),
    lambda: dk.Hyperplane([1.0, INF], 0.0),
    lambda: dk.Hyperplane([1.0, 0.0], NAN),
    lambda: dk.L2Ball([0.0, 0.0], NAN),
    lambda: dk.L2Ball([NAN, 0.0], 1.0),
    lambda: dk.L2Ball([0.0, 0.0], INF),
    lambda: dk.AffineSubspace([[1.0, NAN]], [0.0]),
    lambda: dk.AffineSubspace([[1.0, 0.0]], [INF]),
    lambda: dk.L1Norm(2, weight=NAN),
    lambda: dk.L1Norm(2, weight=INF),
    lambda: dk.Quadratic([NAN, 0.0]),
    lambda: dk.Quadratic([0.0, 0.0], weight=NAN),
    lambda: dk.ProblemSpec([NAN, 1.0], [dk.L1Norm(2)]),
    lambda: dk.ProblemSpec([INF, 1.0], [dk.L1Norm(2)]),
], ids=["halfspace-a", "halfspace-b", "hyperplane-a", "hyperplane-b",
        "ball-radius", "ball-center", "ball-radius-inf",
        "affine-matrix", "affine-rhs", "l1-weight", "l1-weight-inf",
        "quadratic-center", "quadratic-weight", "spec-x0-nan",
        "spec-x0-inf"])
def test_non_finite_input_rejected_at_construction(make):
    with pytest.raises(ValueError, match="finite"):
        make()


# ---------------------------------------------------------------------------
# property suite, seeded loops over every kind
# ---------------------------------------------------------------------------

def _iter_samples(kind, n=N_SAMPLES):
    rng = np.random.default_rng(zlib.crc32(kind.encode()))
    for k in range(n):
        d = int(rng.integers(1, 9))
        if kind == "affine" and d < 2:
            d = 2
        term = sample_term(kind, rng, d)
        u = rng.standard_normal(d) * rng.uniform(0.5, 3.0)
        yield term, u, rng


@pytest.mark.parametrize("kind", TERM_KINDS)
def test_moreau_identity(kind):
    for term, u, _ in _iter_samples(kind):
        p = term.prox(u, 1.0)
        md = moreau_dual(term, u)
        assert np.abs(p + md - u).max() <= MOREAU_TOL


@pytest.mark.parametrize("kind", TERM_KINDS)
def test_fenchel_young_equality_at_prox_pairs(kind):
    # (x, z) = (prox(u), u - prox(u)) attains equality up to roundoff
    for term, u, _ in _iter_samples(kind):
        x = term.prox(u, 1.0)
        z = u - x
        hval = term.value(x)
        cval = term.conjugate(z)
        assert hval < INF, f"prox output infeasible for {kind}"
        assert cval < INF, f"prox dual outside conjugate domain for {kind}"
        assert abs(hval + cval - float(x @ z)) <= FY_TOL


@pytest.mark.parametrize("kind", TERM_KINDS)
def test_fenchel_young_inequality_random_pairs(kind):
    # arbitrary (x, z) with finite values never go below zero
    for term, u, rng in _iter_samples(kind):
        x = term.prox(u, 1.0)
        z2 = moreau_dual(term, rng.standard_normal(u.size))
        cval = term.conjugate(z2)
        if cval == INF:
            continue
        assert term.value(x) + cval - float(x @ z2) >= -FY_TOL


@pytest.mark.parametrize("kind", TERM_KINDS[:5])
def test_projection_idempotent(kind):
    for term, u, _ in _iter_samples(kind):
        p1 = term.prox(u, 1.0)
        p2 = term.prox(p1, 1.0)
        assert np.abs(p2 - p1).max() <= IDEM_TOL


@pytest.mark.parametrize("kind", TERM_KINDS)
def test_prox_firmly_nonexpansive(kind):
    for term, u, rng in _iter_samples(kind):
        v = u + rng.standard_normal(u.size)
        pu = term.prox(u, 1.0)
        pv = term.prox(v, 1.0)
        lhs = float((pu - pv) @ (u - v))
        assert lhs >= float((pu - pv) @ (pu - pv)) - FIRM_TOL


@pytest.mark.parametrize("kind", TERM_KINDS[:5])
def test_indicator_eval_matches_projection_distance(kind):
    for term, u, _ in _iter_samples(kind):
        p = term.prox(u, 1.0)
        dist = float(np.linalg.norm(u - p))
        expected = 0.0 if dist <= 1e-9 else INF
        assert term.value(u) == expected


# ---------------------------------------------------------------------------
# stacked oracles
# ---------------------------------------------------------------------------

STACK_DIMS = (1, 2, 3, 5, 8, 10, 17)
STACK_HEIGHT = 12


def _stack_inputs(kind, d):
    """Terms of one kind and dimension, points U, and duals Z whose rows
    alternate between the conjugate's domain and random vectors (+inf rows
    for halfspaces, which are finite only on a ray)."""
    rng = np.random.default_rng(zlib.crc32(f"{kind}-{d}".encode()))
    terms = [sample_term(kind, rng, d) for _ in range(STACK_HEIGHT)]
    U = rng.standard_normal((STACK_HEIGHT, d)) * rng.uniform(0.5, 3.0)
    Z = np.array([moreau_dual(t, u) for t, u in zip(terms, U)])
    Z[1::2] = rng.standard_normal((STACK_HEIGHT // 2, d))
    return rng, terms, U, Z


def _value_points(terms, U):
    """Points at and around each term's set: u itself, its projection, and
    the projection moved out along u - P(u) by half of FEAS_TOL and by
    twice it."""
    X = U.copy()
    for k, (t, u) in enumerate(zip(terms, U)):
        p = t.prox(u, 1.0)
        out = u - p
        nrm = float(np.linalg.norm(out))
        if k % 4 == 1 or nrm == 0.0:
            X[k] = p
        elif k % 4 > 1:
            X[k] = p + (0.5 if k % 4 == 2 else 2.0) * 1e-9 * out / nrm
    return X


def _boundary_points(terms, U, rng):
    """Points at distance FEAS_TOL from each term's set, up to a relative
    offset of a few 1e-6: about where rounding decides the scalar test."""
    X, owner = [], []
    for i, (t, u) in enumerate(zip(terms, U)):
        p = t.prox(u, 1.0)
        out = u - p
        nrm = float(np.linalg.norm(out))
        if nrm == 0.0:
            continue
        for s in rng.uniform(-4e-6, 4e-6, 16):
            X.append(p + FEAS_TOL * (1.0 + s) * (out / nrm))
            owner.append(i)
    return np.array(X), np.array(owner)


def _one_stack(terms):
    [(rows, stack)] = stack_terms(terms, range(len(terms)))
    assert rows.tolist() == list(range(len(terms)))
    return stack


@pytest.mark.parametrize("kind", TERM_KINDS)
def test_stack_rows_independent_of_height_and_order(kind):
    for d in STACK_DIMS:
        if kind == "affine" and d < 2:
            continue
        rng, terms, U, Z = _stack_inputs(kind, d)
        full = _one_stack(terms)
        X = _value_points(terms, U)
        M, S, H = full.moreau(U), full.support(Z), full.value(X)
        if kind == "halfspace":
            assert np.isinf(S).any() and np.isfinite(S).any()
        perm = rng.permutation(STACK_HEIGHT)
        shuffled = _one_stack([terms[i] for i in perm])
        assert np.array_equal(shuffled.moreau(U[perm]), M[perm])
        assert np.array_equal(shuffled.support(Z[perm]), S[perm])
        assert np.array_equal(shuffled.value(X[perm]), H[perm])
        for k in range(1, STACK_HEIGHT):
            part = _one_stack(terms[:k])
            assert np.array_equal(part.moreau(U[:k]), M[:k])
            assert np.array_equal(part.support(Z[:k]), S[:k])
            assert np.array_equal(part.value(X[:k]), H[:k])
        for i in range(STACK_HEIGHT):
            single = _one_stack([terms[i]])
            assert np.array_equal(single.moreau(U[i:i + 1]), M[i:i + 1])
            assert np.array_equal(single.support(Z[i:i + 1]), S[i:i + 1])
            assert np.array_equal(single.value(X[i:i + 1]), H[i:i + 1])


@pytest.mark.parametrize("kind,stack_type", [("halfspace", HalfspaceStack),
                                             ("l2ball", BallStack)])
def test_stack_matches_scalar_oracles(kind, stack_type):
    both = set()
    for d in STACK_DIMS:
        rng, terms, U, Z = _stack_inputs(kind, d)
        stack = _one_stack(terms)
        assert type(stack) is stack_type
        for t, u, z, m, s in zip(terms, U, Z, stack.moreau(U),
                                 stack.support(Z)):
            assert np.abs(m - moreau_dual(t, u)).max() <= MOREAU_TOL * max(
                1.0, float(np.abs(u).max()))
            c = t.conjugate(z)
            if c == INF:
                assert s == INF
            else:
                assert abs(s - c) <= MOREAU_TOL * max(1.0, abs(c))
        # h_i(x_i) is 0 or +inf, with the same decision as the scalar term
        X = _value_points(terms, U)
        H = stack.value(X)
        assert H.tolist() == [t.value(x) for t, x in zip(terms, X)]
        assert 0.0 in H and INF in H
        # at distance FEAS_TOL rounding decides: the same decision, at the
        # rows and at one point for every row
        U = U + U * (rng.uniform(size=U.shape) < 0.5) * 40.0
        X, owner = _boundary_points(terms, U, rng)
        if len(X):
            want = [terms[i].value(x) for i, x in zip(owner, X)]
            assert _one_stack([terms[i] for i in owner]).value(
                X).tolist() == want
            both.update(want)
        for x in X:
            assert stack.value(x).tolist() == [t.value(x) for t in terms]
        # a NaN distance is +inf, as in the scalar test
        with np.errstate(invalid="ignore"):
            for x in (np.full(d, np.nan), np.full(d, INF)):
                assert stack.value(x).tolist() == [t.value(x) for t in terms]
    assert both == {0.0, INF}


def test_stack_terms_groups_by_kind():
    rng = np.random.default_rng(3)
    kinds = ["l1", "halfspace", "l2ball", "box", "halfspace", "l2ball"]
    terms = [sample_term(k, rng, 4) for k in kinds]
    groups = stack_terms(terms, [5, 4, 3, 2, 1, 0])
    assert [(type(s).__name__, rows.tolist()) for rows, s in groups] == [
        ("BallStack", [5, 2]), ("HalfspaceStack", [4, 1]),
        ("TermStack", [3, 0])]
    Z = np.array([moreau_dual(t, u)
                  for t, u in zip(terms, rng.standard_normal((6, 4)))])
    got = stacked_conjugates(groups, Z, np.full(6, np.nan))
    want = np.array([t.conjugate(z) for t, z in zip(terms, Z)])
    assert np.abs(got - want).max() <= MOREAU_TOL
    # the generic stack calls each term's own oracle
    assert np.array_equal(got[[3, 0]], want[[3, 0]])
