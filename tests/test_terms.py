"""Term oracles: desk values, conjugate domains, and the prox property suite."""

import math
import warnings
import zlib
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

import dyksplit as dk
from dyksplit import engine
from dyksplit import terms as terms_module
from dyksplit.terms import (DOM_TOL, FEAS_TOL, BallStack, HalfspaceStack,
                           TermStack, all_finite, moreau_dual, stack_terms,
                           stacked_conjugates)

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


@pytest.mark.parametrize("t", [0.0, -1.0, NAN, INF, -INF])
@pytest.mark.parametrize("kind", TERM_KINDS)
def test_prox_rejects_a_step_that_is_not_a_finite_positive_number(kind, t):
    # a NaN step passed a t <= 0.0 test: l1 and quadratic gave NaN, and an
    # indicator ignored the step
    term = sample_term(kind, np.random.default_rng(0), 3)
    with pytest.raises(ValueError,
                       match="^prox step must be a finite positive number"):
        term.prox(np.zeros(3), t)


@pytest.mark.parametrize("dim,match", [
    (2.7, "must be an integer"), (True, "must be an integer"),
    ("2", "must be an integer"), (0, "must be at least 1")])
def test_l1_takes_its_dim_as_a_count(dim, match):
    # int() truncated 2.7 to 2 and took True as 1
    with pytest.raises(ValueError, match=f"^l1 dim {match}"):
        dk.L1Norm(dim)
    for dim in (3, 3.0, np.int64(3)):
        assert type(dk.L1Norm(dim).dim) is int and dk.L1Norm(dim).dim == 3


@pytest.mark.parametrize("make,u,expected", [
    (lambda: dk.L2Ball([1e160, 0.0], 1.0).project, [1e160, 1.0],
     [1e160, 1.0]),
    (lambda: dk.Quadratic([1e160, 0.0]).prox, [1e160, 1.0], [1e160, 0.5]),
    (lambda: dk.AffineSubspace([[1.0, 0.0]], [1e160]).project, [0.0, 1.0],
     [1e160, 1.0]),
], ids=["ball-center", "quadratic-center", "affine-rhs"])
def test_finite_data_too_large_to_square_is_accepted(make, u, expected):
    # the sum of squares of the data overflows, but every entry is finite
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert make()(u).tolist() == expected


@pytest.mark.parametrize("make,match", [
    (lambda: dk.ProblemSpec([1e160, 0.0], [dk.L1Norm(2)]),
     "^x0 is too large: its squared norm overflows$"),
    (lambda: dk.Halfspace([1e160, 0.0], 0.0),
     "^halfspace data is too large: the squared norm of its normal"
     " overflows$"),
    (lambda: dk.Hyperplane([0.0, -1e160], 0.0),
     "^hyperplane data is too large: the squared norm of its normal"
     " overflows$"),
], ids=["spec-x0", "halfspace-a", "hyperplane-a"])
def test_data_whose_squared_norm_must_be_finite_is_too_large(make, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=match):
            make()


def test_all_finite_is_the_exact_scan():
    # rows of +-1e200 overflow the one sum of squares: the exact scan decides
    big = np.full((19, 10), 1e200)
    big[::2] *= -1.0
    cases = [(big, True), (big[3:9], True), (big[:, 0], True),
             (np.zeros((3, 4)), True), (np.zeros((0, 4)), True)]
    for base in (np.zeros((3, 4)), big):
        for value in (NAN, INF, -INF):
            a = base.copy()
            a[1, 2] = value
            cases.append((a, False))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for a, finite in cases:
            assert all_finite(a) is finite
            assert finite == np.isfinite(a).all()


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


@pytest.fixture(params=["built", "matmul"])
def dots(request, monkeypatch):
    """A stack test runs with terms._dots as built (np.vecdot on numpy 2)
    and with the matmul form that older numpy uses."""
    if request.param == "matmul":
        monkeypatch.setattr(terms_module, "_dots", terms_module._dots_matmul)
    return request.param


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


def _dual_boundary_points(terms, rng):
    """Duals about where rounding decides a halfspace's support domain test:
    off the ray through a by DOM_TOL times their norm, and on the line just
    before the ray's start, both up to a relative offset of a few 1e-6."""
    X, owner = [], []
    for i, t in enumerate(terms):
        a = t.set.a
        if a.size > 1:
            e = rng.standard_normal(a.size)
            e -= (e @ a) / (a @ a) * a
            z = rng.uniform(0.5, 3.0) * a
            tol = DOM_TOL * max(1.0, float(np.linalg.norm(z)))
            X += [z + tol * (1.0 + s) * e / np.linalg.norm(e)
                  for s in rng.uniform(-4e-6, 4e-6, 8)]
        X += [-DOM_TOL * (1.0 + s) * a for s in rng.uniform(-4e-6, 4e-6, 8)]
        owner += [i] * (len(X) - len(owner))
    return np.array(X), np.array(owner)


def _assert_scalar_rows(terms, X):
    """moreau, support and value of the stack of terms at the rows of X are
    those of moreau_dual, conjugate and value, row by row."""
    stack = _one_stack(terms)
    with np.errstate(invalid="ignore", over="ignore"):
        got = stack.moreau(X), stack.support(X), stack.value(X)
        want = (np.array([moreau_dual(t, x) for t, x in zip(terms, X)]),
                np.array([t.conjugate(x) for t, x in zip(terms, X)]),
                np.array([t.value(x) for t, x in zip(terms, X)]))
    for g, w in zip(got, want):
        assert np.array_equal(g, w, equal_nan=True)
    return want


@pytest.mark.parametrize("kind,stack_type", [("halfspace", HalfspaceStack),
                                             ("l2ball", BallStack)])
def test_stack_matches_scalar_oracles(kind, stack_type):
    values, supports = set(), set()
    for d in STACK_DIMS:
        rng, terms, U, Z = _stack_inputs(kind, d)
        assert type(_one_stack(terms)) is stack_type
        # h_i(x) is 0 or +inf, with the same decision as the scalar term
        _assert_scalar_rows(terms, U)
        _assert_scalar_rows(terms, Z)
        H = _assert_scalar_rows(terms, _value_points(terms, U))[2]
        assert 0.0 in H and INF in H
        # at distance FEAS_TOL from a set and at the edge of a support
        # function's domain rounding decides: the same decision
        U = U + U * (rng.uniform(size=U.shape) < 0.5) * 40.0
        X, owner = _boundary_points(terms, U, rng)
        if len(X):
            values.update(_assert_scalar_rows(
                [terms[i] for i in owner], X)[2].tolist())
        if kind == "halfspace":
            Xd, owner_d = _dual_boundary_points(terms, rng)
            supports.update(np.isinf(_assert_scalar_rows(
                [terms[i] for i in owner_d], Xd)[1]).tolist())
        # a NaN or infinite point gives NaN or +inf, as in the scalar oracle
        bad = U.copy()
        bad[0::3, 0] = np.nan
        bad[1::3] = INF
        bad[2::3, -1] = -INF
        _assert_scalar_rows(terms, bad)
        # one point x for every row
        with np.errstate(invalid="ignore"):
            for x in [*X, *bad]:
                assert (_one_stack(terms).value(x).tolist()
                        == [t.value(x) for t in terms])
    assert values == {0.0, INF}
    assert kind != "halfspace" or supports == {False, True}


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
    assert np.array_equal(got, [t.conjugate(z) for t, z in zip(terms, Z)])


@pytest.mark.parametrize("check,args", [
    *[(test_stack_rows_independent_of_height_and_order, (kind,))
      for kind in TERM_KINDS],
    (test_stack_matches_scalar_oracles, ("halfspace", HalfspaceStack)),
    (test_stack_matches_scalar_oracles, ("l2ball", BallStack)),
    (test_stack_terms_groups_by_kind, ()),
], ids=[*(f"rows-{kind}" for kind in TERM_KINDS), "scalar-halfspace",
        "scalar-l2ball", "groups"])
def test_stack_checks_hold_with_the_matmul_kernel(monkeypatch, check, args):
    # numpy 2 runs the checks above through np.vecdot; this repeats them
    # through the matmul form that older numpy uses
    monkeypatch.setattr(terms_module, "_dots", terms_module._dots_matmul)
    check(*args)


@pytest.mark.parametrize("kind", ["halfspace", "l2ball", "l1", "quadratic",
                                  "box"])
def test_support_over_a_batch_of_states_is_per_state_calls(kind, dots):
    # (k, rows, d) in, (k, rows) out: state j's row is the stack's support
    # at state j alone, and the scalar conjugate, bit for bit
    k = 5
    for d in STACK_DIMS:
        rng, terms, U, Z = _stack_inputs(kind, d)
        stack = _one_stack(terms)
        # state j scales the duals by a factor around 1: rows in and out of
        # the conjugate's domain in every state
        P = rng.standard_normal((k + 2, STACK_HEIGHT + 3, d))
        P[:k, 1:STACK_HEIGHT + 1] = (
            Z * rng.uniform(0.5, 1.5, size=(k, 1, 1)))
        rows = np.arange(1, STACK_HEIGHT + 1)
        for batch in (P[:k, 1:STACK_HEIGHT + 1],   # a strided view
                      P[:k, rows]):                # a gathered copy
            got = stack.support(batch)
            assert got.shape == (k, STACK_HEIGHT)
            assert np.array_equal(got, [stack.support(b) for b in batch])
            assert np.array_equal(got, [[t.conjugate(z)
                                         for t, z in zip(terms, b)]
                                        for b in batch])
        if kind == "halfspace":
            assert np.isinf(got).any() and np.isfinite(got).any()


@pytest.mark.parametrize("kind", ["halfspace", "l2ball", "hyperplane"])
def test_strided_input_gives_the_bits_of_contiguous_input(kind, dots):
    # a strided vector is taken as its contiguous copy: BLAS's strided dot
    # product would sum in another order
    for d in STACK_DIMS + (33, 60):
        rng, terms, U, Z = _stack_inputs(kind, d)
        stack = _one_stack(terms)
        for X in (U, Z, _value_points(terms, U)):
            # column 2 i of W is row i of X, strided
            W = np.zeros((d, 2 * STACK_HEIGHT))
            W[:, ::2] = X.T
            rows = zip(stack.moreau(X), stack.support(X), stack.value(X))
            for i, (t, row) in enumerate(zip(terms, rows)):
                x = W[:, 2 * i]
                assert d == 1 or not x.flags.c_contiguous
                got = moreau_dual(t, x), t.conjugate(x), t.value(x)
                want = moreau_dual(t, X[i]), t.conjugate(X[i]), t.value(X[i])
                assert np.array_equal(got[0], want[0])
                assert got[1:] == want[1:]
                # the stacked row of the same point
                assert np.array_equal(row[0], want[0])
                assert (row[1], row[2]) == want[1:]


@pytest.mark.parametrize("kind", TERM_KINDS)
def test_project_and_value_over_a_batch_of_states_are_per_state_calls(
        kind, dots):
    # (k, rows, d) in: state j's rows are the stack's project and value at
    # state j alone, bit for bit, for strided views and gathered copies
    k = 4
    for d in STACK_DIMS:
        if kind == "affine" and d < 2:
            continue
        rng, terms, U, Z = _stack_inputs(kind, d)
        stack = _one_stack(terms)
        P = rng.standard_normal((k + 1, STACK_HEIGHT + 2, d))
        # every state holds points at, near and off each set
        P[:k, 1:STACK_HEIGHT + 1] = [
            _value_points(terms, U * s) for s in rng.uniform(0.5, 1.5, k)]
        rows = np.arange(1, STACK_HEIGHT + 1)
        for batch in (P[:k, 1:STACK_HEIGHT + 1], P[:k, rows]):
            got = stack.value(batch)
            assert got.shape == (k, STACK_HEIGHT)
            assert np.array_equal(got, [stack.value(b) for b in batch])
            if hasattr(stack, "project"):
                moved = stack.project(batch)
                assert moved.shape == batch.shape
                assert np.array_equal(moved,
                                      [stack.project(b) for b in batch])
        if kind in ("halfspace", "l2ball"):
            assert np.isinf(got).any() and (got == 0.0).any()


@pytest.mark.parametrize("kind", TERM_KINDS)
def test_moreau_over_a_batch_of_states_is_per_state_calls(kind, dots):
    # (k, rows, d) in and out: state j's rows are the stack's moreau at
    # state j alone, and moreau_dual's, bit for bit
    k = 3
    for d in STACK_DIMS:
        if kind == "affine" and d < 2:
            continue
        rng, terms, U, Z = _stack_inputs(kind, d)
        stack = _one_stack(terms)
        batch = U * rng.uniform(0.5, 1.5, size=(k, 1, 1))
        got = stack.moreau(batch)
        assert got.shape == batch.shape
        assert np.array_equal(got, [stack.moreau(b) for b in batch])
        assert np.array_equal(got, [[moreau_dual(t, u)
                                     for t, u in zip(terms, b)]
                                    for b in batch])


# ---------------------------------------------------------------------------
# closed-form distances: halfspace and ball membership without a projection
# ---------------------------------------------------------------------------

CLOSED_FORM_KINDS = ("halfspace", "l2ball")
EPS = float(np.finfo(float).eps)


def _closed_form_distance(set_, x):
    """max(0, <a, x> - b) / ||a|| of a halfspace, max(0, ||x - c|| - rho) of
    a ball, written out from the sets' public data."""
    if type(set_) is dk.Halfspace:
        return (max(float(set_.a @ x) - set_.b, 0.0)
                / math.sqrt(float(np.vdot(set_.a, set_.a))))
    return max(float(np.linalg.norm(x - set_.center)) - set_.radius, 0.0)


@pytest.mark.parametrize("kind", CLOSED_FORM_KINDS)
def test_closed_form_stack_value_is_the_scalar_value(kind, dots):
    # at, near and about FEAS_TOL from each set, over one state and over a
    # leading batch axis of two: each stacked row is the term's own
    # Indicator.value, bit for bit
    decisions = set()
    for d in STACK_DIMS:
        rng, terms, U, _ = _stack_inputs(kind, d)
        Xb, owner = _boundary_points(terms, U, rng)
        for rows, X in ((range(STACK_HEIGHT), _value_points(terms, U)),
                        (owner, Xb)):
            rows = list(rows)
            stack = _one_stack([terms[i] for i in rows])
            want = [[terms[i].value(x) for i, x in zip(rows, Y)]
                    for Y in (X, X[::-1])]
            assert stack.value(X).tolist() == want[0]
            assert stack.value(np.stack([X, X[::-1]])).tolist() == want
            decisions.update(want[0] + want[1])
    assert decisions == {0.0, INF}


@pytest.mark.parametrize("kind", CLOSED_FORM_KINDS)
def test_indicator_distance_is_the_closed_form(kind):
    # the same bits as the written-out formula, and within rounding of the
    # projection form ||x - P(x)|| it replaces
    for d in STACK_DIMS:
        rng, terms, U, _ = _stack_inputs(kind, d)
        Xb, owner = _boundary_points(terms, U, rng)
        for t, x in [*zip(terms, U), *zip(terms, _value_points(terms, U)),
                     *((terms[i], x) for i, x in zip(owner, Xb))]:
            dist = t.distance(x)
            assert dist == _closed_form_distance(t.set, x)
            assert abs(dist - float(np.linalg.norm(x - t.prox(x)))) <= (
                1e-13 * (1.0 + float(np.linalg.norm(x))))


@pytest.mark.parametrize("kind", CLOSED_FORM_KINDS)
def test_value_and_distance_never_project(kind, dots, monkeypatch):
    # with every halfspace and ball projection raising, the scalar and
    # stacked values, the distance, ProblemSpec.primal_value and the gap
    # rule's primal value still answer, as they did before the patch
    for d in STACK_DIMS:
        rng, terms, U, _ = _stack_inputs(kind, d)
        X = _value_points(terms, U)
        spec = dk.ProblemSpec(U[0], terms)
        groups = stack_terms(terms, range(STACK_HEIGHT))

        def answers():
            stack = _one_stack(terms)
            return ([(t.value(x), t.distance(x)) for t, x in zip(terms, X)],
                    stack.value(X).tolist(), stack.value(X[0]).tolist(),
                    stack.value(np.stack([X, X[::-1]])).tolist(),
                    [spec.primal_value(x) for x in X],
                    [engine._primal_value(spec, groups, x, hint)
                     for x in X for hint in (0, STACK_HEIGHT - 1)])

        def refuse(*args):
            raise AssertionError("value or distance projected")

        want = answers()
        with monkeypatch.context() as m:
            for cls in (dk.Halfspace, dk.L2Ball, HalfspaceStack, BallStack):
                m.setattr(cls, "project", refuse)
            with pytest.raises(AssertionError, match="projected"):
                terms[0].prox(U[0])
            assert answers() == want


def _exact_distance(set_, x):
    """The distance of x to the halfspace or ball set_, from its float data
    taken exactly, as a 60-digit Decimal: <a, x> - b and ||x - c||^2 are
    exact Fractions, and only the square root rounds."""
    def dec(f):
        return Decimal(f.numerator) / Decimal(f.denominator)

    with localcontext() as ctx:
        ctx.prec = 60
        if type(set_) is dk.Halfspace:
            a = [Fraction(v) for v in set_.a.tolist()]
            t = sum(p * Fraction(v) for p, v in zip(a, x.tolist()))
            signed = (dec(t - Fraction(set_.b))
                      / dec(sum(p * p for p in a)).sqrt())
        else:
            q = sum((Fraction(v) - Fraction(c)) ** 2
                    for v, c in zip(x.tolist(), set_.center.tolist()))
            signed = dec(q).sqrt() - Decimal(set_.radius)
        return max(signed, Decimal(0))


@pytest.mark.parametrize("s", [1e-4, 1.0, 1e3, 1e5])
@pytest.mark.parametrize("kind", CLOSED_FORM_KINDS)
def test_closed_form_distance_is_within_its_rounding_bound(kind, s):
    # data and points at scale s, a distance out from 1e-12·s to s, with
    # <a, x> and b, or ||x - c|| and rho, cancelling to that: the rounded
    # distance c is within 2·d·eps·(c + ||x|| + s_set) of the exact one
    # (s_set: the norm of a ball's center, a halfspace's 0)
    rng = np.random.default_rng(zlib.crc32(f"{kind}-{s}".encode()))
    worst = 0.0
    for d in STACK_DIMS:
        for _ in range(24):
            x = 3.0 * s * rng.standard_normal(d)
            gap = s * 10.0 ** rng.uniform(-12.0, 0.0)
            if kind == "halfspace":
                a = rng.standard_normal(d) * 10.0 ** rng.uniform(-2.0, 2.0)
                set_ = dk.Halfspace(a, float(a @ x) - gap * np.linalg.norm(a))
                s_set = 0.0
            else:
                n = rng.standard_normal(d)
                rho = s * rng.uniform(0.2, 2.0)
                set_ = dk.L2Ball(x - (rho + gap) * n / np.linalg.norm(n),
                                 rho)
                s_set = float(np.linalg.norm(set_.center))
            got = dk.Indicator(set_).distance(x)
            exact = _exact_distance(set_, x)
            bound = 2 * d * EPS * (float(exact) + float(np.linalg.norm(x))
                                   + s_set)
            err = float(abs(Decimal(got) - exact))
            assert err <= bound, (d, got, exact)
            worst = max(worst, err / bound)
    # the reference resolves the rounding: some distances are off by it
    assert worst > 0.0


# ---------------------------------------------------------------------------
# pairs: the projection onto the intersection of two sets, with its duals
# ---------------------------------------------------------------------------

def _pair_instance(kind, case, rng, d):
    """(t1, t2, u, x*): two terms of the kind ("hh", "hb" or "bb", a
    halfspace first), a point u and its projection x* onto their
    intersection, built from the KKT conditions: x* lies on the boundary of
    each set that case makes active ("inside", "first", "second" or
    "both"), strictly inside the other, and u - x* is a positive
    combination of the active sets' normals there."""
    x = rng.standard_normal(d)
    active = {"inside": (), "first": (0,), "second": (1,),
              "both": (0, 1)}[case]
    terms, u = [], x.copy()
    for k, s in enumerate(kind):
        n = rng.standard_normal(d)
        n /= np.linalg.norm(n)
        slack = 0.0 if k in active else float(rng.uniform(0.3, 1.0))
        if s == "h":
            terms.append(dk.Indicator(dk.Halfspace(2.0 * n, 2.0 * n @ x
                                                   + slack)))
        else:
            rho = float(rng.uniform(0.5, 2.0))
            terms.append(dk.Indicator(dk.L2Ball(x - rho * n, rho + slack)))
        if k in active:
            u += float(rng.uniform(0.2, 1.0)) * n
    return terms[0], terms[1], u, x


@pytest.mark.parametrize("case", ["inside", "first", "second", "both"])
@pytest.mark.parametrize("kind", ["hh", "hb", "bb"])
def test_pair_duals_give_the_projection(kind, case):
    # u - z - z' is the known projection; each dual lies in its set's
    # normal cone there: a finite conjugate with h*(z) = <x, z>; an
    # inactive set's dual is 0
    rng = np.random.default_rng(zlib.crc32(f"{kind}{case}".encode()))
    for d in (2, 3, 5):
        for _ in range(10):
            t1, t2, u, x_star = _pair_instance(kind, case, rng, d)
            sets = (t1.set, t2.set)
            z1, z2 = (np.broadcast_to(z, (d,)) for z in terms_module.pair_duals(
                *sets, terms_module.pair_constants(*sets), u))
            x = u - z1 - z2
            assert np.linalg.norm(x - x_star) <= 1e-12 * (
                1.0 + np.linalg.norm(u))
            for t, z, on in ((t1, z1, case in ("first", "both")),
                             (t2, z2, case in ("second", "both"))):
                assert (np.linalg.norm(z) > 0.0) == on
                assert abs(t.conjugate(z) - x @ z) <= 1e-12 * (
                    1.0 + np.linalg.norm(z))


@pytest.mark.parametrize("kernel", ["built", "matmul"])
@pytest.mark.parametrize("kind", ["hh", "hb", "bb"])
def test_pair_holds_is_where_pair_duals_gives_its_zeros(monkeypatch, kind,
                                                         kernel):
    # pair_holds, for many points at once, is true exactly where pair_duals
    # returns (0.0, 0.0): at the points of every case, at their
    # projections, which lie on each active boundary, and at the floats
    # next to those, read from strided rows as the full re-solve reads them
    if kernel == "matmul":
        monkeypatch.setattr(terms_module, "_dots", terms_module._dots_matmul)
    rng = np.random.default_rng(zlib.crc32(f"holds{kind}".encode()))
    d = 5
    seen = set()
    for case in ("inside", "first", "second", "both"):
        for _ in range(10):
            t1, t2, u, x = _pair_instance(kind, case, rng, d)
            sets = (t1.set, t2.set)
            k = terms_module.pair_constants(*sets)
            points = [u, x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)]
            U = np.empty((len(points), 2, d))
            U[:, 0] = points
            held = terms_module.pair_holds(*sets, k, U[:, 0]).tolist()
            assert held == [
                all(type(z) is float
                    for z in terms_module.pair_duals(*sets, k, p) or [None])
                for p in points]
            seen.update(held)
    assert seen == {True, False}


@pytest.mark.parametrize("case", ["parallel", "tangent-hb", "tangent-bb"])
def test_a_pair_with_no_closed_form_gives_no_duals(case):
    # both sets active where their normals are parallel, or where the
    # sphere both boundaries share has radius 0
    H, B = dk.Halfspace, dk.L2Ball
    t1, t2, u = {
        "parallel": (H([1.0, 0.0], -1.0), H([-2.0, 0.0], -2.0), [0.0, 0.5]),
        "tangent-hb": (H([-1.0, 0.0], -1.0), B([0.0, 0.0], 1.0),
                       [0.5, 1.5]),
        "tangent-bb": (B([0.0, 0.0], 1.0), B([2.0, 0.0], 1.0), [1.0, 1.0]),
    }[case]
    u = np.array(u)
    assert terms_module.pair_duals(
        t1, t2, terms_module.pair_constants(t1, t2), u) is None
