"""Convex terms with exact value / conjugate / prox oracles.

Two families are supported: indicators of projectable convex sets (halfspace,
hyperplane, box, Euclidean ball, affine subspace) and two smooth-or-simple
regularizers (weighted l1 norm, quadratic distance).  Every term is proper,
closed and convex with a single-valued prox in closed form, which is what the
sweep engine relies on for its exact solve tiers.

Stacks evaluate the dual prox and the conjugate of many terms of one kind in
one vectorized call; the engine groups a sweep's single-term blocks and the
dual objective's conjugates into them.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import solve_triangular

# Membership slack for indicator evaluation, Euclidean distance to the set.
FEAS_TOL = 1e-9
# Conjugate-domain membership test, relative residual.
DOM_TOL = 1e-8

_INF = float("inf")


class DimensionMismatch(ValueError):
    """Input vector does not match the term's ambient dimension."""


def _finite(name, *values):
    """Reject NaN or infinity in the given floats and arrays.

    An array is tested through one dot product, its sum of squares, which is
    finite exactly when every entry is and the sum does not overflow.
    """
    for v in values:
        if not math.isfinite(v if isinstance(v, float) else np.vdot(v, v)):
            raise ValueError(f"{name} data must be finite")


def _vec(x, d, name="x"):
    x = np.asarray(x, dtype=float)
    if x.shape != (d,):
        raise DimensionMismatch(f"{name} has shape {x.shape}, expected ({d},)")
    return x


# ---------------------------------------------------------------------------
# projectable sets
# ---------------------------------------------------------------------------

class Halfspace:
    """{x : <a, x> <= b} with a nonzero."""

    def __init__(self, a, b):
        self.a = np.asarray(a, dtype=float).ravel()
        self.dim = self.a.size
        self.b = float(b)
        nrm2 = float(self.a @ self.a)   # finite exactly when a is, see _finite
        if not (math.isfinite(nrm2) and math.isfinite(self.b)):
            raise ValueError("halfspace data must be finite")
        if nrm2 == 0.0:
            raise ValueError("halfspace normal must be nonzero")
        self._nrm2 = nrm2

    def project(self, u):
        u = _vec(u, self.dim, "u")
        excess = (float(self.a @ u) - self.b) / self._nrm2
        if excess <= 0.0:
            return u.copy()
        return u - excess * self.a

    def support(self, z):
        # dom sigma = nonnegative ray through a
        z = _vec(z, self.dim, "z")
        s = float(self.a @ z) / self._nrm2
        resid = float(np.linalg.norm(z - s * self.a))
        if resid > DOM_TOL * max(1.0, float(np.linalg.norm(z))) or s < -DOM_TOL:
            return _INF
        return self.b * s


class Hyperplane:
    """{x : <a, x> = b} with a nonzero."""

    def __init__(self, a, b):
        self.a = np.asarray(a, dtype=float).ravel()
        self.dim = self.a.size
        self.b = float(b)
        nrm2 = float(self.a @ self.a)   # finite exactly when a is, see _finite
        if not (math.isfinite(nrm2) and math.isfinite(self.b)):
            raise ValueError("hyperplane data must be finite")
        if nrm2 == 0.0:
            raise ValueError("hyperplane normal must be nonzero")
        self._nrm2 = nrm2

    def project(self, u):
        u = _vec(u, self.dim, "u")
        return u - ((float(self.a @ u) - self.b) / self._nrm2) * self.a

    def support(self, z):
        # dom sigma = the line through a, any sign
        z = _vec(z, self.dim, "z")
        s = float(self.a @ z) / self._nrm2
        resid = float(np.linalg.norm(z - s * self.a))
        if resid > DOM_TOL * max(1.0, float(np.linalg.norm(z))):
            return _INF
        return self.b * s


class Box:
    """{x : lo <= x <= hi} componentwise, bounds finite."""

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=float).ravel()
        self.hi = np.asarray(hi, dtype=float).ravel()
        if self.lo.shape != self.hi.shape:
            raise DimensionMismatch("box bounds have different shapes")
        if not (np.isfinite(self.lo).all() and np.isfinite(self.hi).all()):
            raise ValueError("box bounds must be finite")
        if np.any(self.lo > self.hi):
            raise ValueError("box has lo > hi in some coordinate")
        self.dim = self.lo.size

    def project(self, u):
        u = _vec(u, self.dim, "u")
        return np.clip(u, self.lo, self.hi)

    def support(self, z):
        z = _vec(z, self.dim, "z")
        return float(np.sum(np.where(z > 0.0, z * self.hi, z * self.lo)))


class L2Ball:
    """{x : ||x - center|| <= radius}."""

    def __init__(self, center, radius):
        self.center = np.asarray(center, dtype=float).ravel()
        self.radius = float(radius)
        _finite("ball", self.center, self.radius)
        if self.radius < 0.0:
            raise ValueError("ball radius must be nonnegative")
        self.dim = self.center.size

    def project(self, u):
        u = _vec(u, self.dim, "u")
        diff = u - self.center
        nrm = float(np.linalg.norm(diff))
        if nrm <= self.radius:
            return u.copy()
        return self.center + (self.radius / nrm) * diff

    def support(self, z):
        z = _vec(z, self.dim, "z")
        return float(z @ self.center) + self.radius * float(np.linalg.norm(z))


class AffineSubspace:
    """{x : A x = c} with A full row rank (k x d, k <= d).

    A^T = Q R is QR-factored once.  The orthonormal basis Q of range(A^T) and
    t = R^{-T} c turn projections and support evaluations into O(k d)
    products without forming A A^T, whose condition number is the square of
    A's.
    """

    def __init__(self, matrix, rhs):
        A = np.asarray(matrix, dtype=float)
        if A.ndim != 2:
            raise ValueError("affine constraint matrix must be 2-d")
        c = np.asarray(rhs, dtype=float).ravel()
        if c.size != A.shape[0]:
            raise DimensionMismatch("affine rhs length does not match row count")
        _finite("affine", A, c)
        if np.linalg.matrix_rank(A, tol=1e-10) < A.shape[0]:
            raise ValueError("affine constraint matrix is row rank deficient")
        self.matrix = A
        self.rhs = c
        self.dim = A.shape[1]
        self._q, r = np.linalg.qr(A.T)
        # the set is {x : Q^T x = t}
        self._t = solve_triangular(r, c, trans="T")

    def project(self, u):
        u = _vec(u, self.dim, "u")
        return u - self._q @ (self._q.T @ u - self._t)

    def support(self, z):
        # dom sigma = range(A^T) = range(Q); value <s, t> for z = Q s
        z = _vec(z, self.dim, "z")
        s = self._q.T @ z
        resid = float(np.linalg.norm(z - self._q @ s))
        if resid > DOM_TOL * max(1.0, float(np.linalg.norm(z))):
            return _INF
        return float(s @ self._t)


# ---------------------------------------------------------------------------
# terms
# ---------------------------------------------------------------------------

class Indicator:
    """Indicator of a projectable set; prox is the projection for every step."""

    def __init__(self, set_):
        self.set = set_
        self.dim = set_.dim

    def value(self, x):
        x = _vec(x, self.dim)
        if float(np.linalg.norm(x - self.set.project(x))) <= FEAS_TOL:
            return 0.0
        return _INF

    def prox(self, u, t=1.0):
        if t <= 0.0:
            raise ValueError("prox step must be positive")
        return self.set.project(u)

    def conjugate(self, z):
        return self.set.support(z)


class L1Norm:
    """weight * ||x||_1; prox is soft thresholding."""

    def __init__(self, dim, weight=1.0):
        self.dim = int(dim)
        self.weight = float(weight)
        _finite("l1", self.weight)
        if self.weight <= 0.0:
            raise ValueError("l1 weight must be positive")

    def value(self, x):
        x = _vec(x, self.dim)
        return self.weight * float(np.abs(x).sum())

    def prox(self, u, t=1.0):
        if t <= 0.0:
            raise ValueError("prox step must be positive")
        u = _vec(u, self.dim, "u")
        return np.sign(u) * np.maximum(np.abs(u) - t * self.weight, 0.0)

    def conjugate(self, z):
        # indicator of the weight-radius sup-norm ball
        z = _vec(z, self.dim, "z")
        if float(np.abs(z).max()) <= self.weight + DOM_TOL * max(1.0, self.weight):
            return 0.0
        return _INF


class Quadratic:
    """(weight / 2) * ||x - center||^2."""

    def __init__(self, center, weight=1.0):
        self.center = np.asarray(center, dtype=float).ravel()
        self.weight = float(weight)
        _finite("quadratic", self.center, self.weight)
        if self.weight <= 0.0:
            raise ValueError("quadratic weight must be positive")
        self.dim = self.center.size

    def value(self, x):
        x = _vec(x, self.dim)
        d = x - self.center
        return 0.5 * self.weight * float(d @ d)

    def prox(self, u, t=1.0):
        if t <= 0.0:
            raise ValueError("prox step must be positive")
        u = _vec(u, self.dim, "u")
        tw = t * self.weight
        return (u + tw * self.center) / (1.0 + tw)

    def conjugate(self, z):
        z = _vec(z, self.dim, "z")
        return float(z @ self.center) + float(z @ z) / (2.0 * self.weight)


def moreau_dual(term, u):
    """Prox of the conjugate at u via the Moreau identity, u - prox(term, u, 1)."""
    u = np.asarray(u, dtype=float)
    return u - term.prox(u, 1.0)


# ---------------------------------------------------------------------------
# stacked oracles: k terms of one kind, one row each
# ---------------------------------------------------------------------------
#
# moreau(U) is U - prox(U) and support(Z) the conjugates h_i*(z_i), row by
# row over a (k, d) array.  A row's result depends only on that row, never
# on the stack's height or the row order (row-wise einsum has this property;
# a matrix-vector product does not), so a sweep's grouped block step, a
# single-block solve and every conjugate evaluation agree bitwise.
#
# value(X) gives the values h_i(x_i) at the rows of X, or h_i(x) at every
# row for one point x of shape (d,).  An indicator's value is 0 within
# FEAS_TOL of its set and +inf beyond.  The stacks take Indicator.value's
# steps row by row, the projection and then the norm of x - P(x), with every
# dot product through _dots, so each decision is bitwise the scalar one.

def _rowdot(X, Y):
    return np.einsum("ij,ij->i", X, Y)


def _dots(X, Y):
    """Row-wise <x_k, y_k>, each bitwise equal to the 1-d product x_k @ y_k.

    A stacked (1, d) @ (d, 1) matmul takes the same dot product as @ on two
    vectors; the row-wise einsum above sums in another order.  Y may be one
    vector of shape (d,), taken against every row of X.
    """
    return np.matmul(X[:, None, :], Y[..., None])[:, 0, 0]


def _indicator_value(D):
    """0 where the row of D (x - P(x)) has norm within FEAS_TOL, else +inf."""
    return np.where(np.sqrt(_dots(D, D)) <= FEAS_TOL, 0.0, _INF)


class HalfspaceStack:
    """Indicators of {x : <a_i, x> <= b_i} for the rows a_i of A."""

    __slots__ = ("A", "b", "_nrm2", "_nrm2_dot")

    def __init__(self, A, b):
        self.A = np.asarray(A, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self._nrm2 = _rowdot(self.A, self.A)
        self._nrm2_dot = _dots(self.A, self.A)   # Halfspace._nrm2, bitwise

    @classmethod
    def of(cls, terms):
        return cls([t.set.a for t in terms], [t.set.b for t in terms])

    def moreau(self, U):
        # U - P(U) is the positive part of the scaled excess along a_i
        excess = (_rowdot(self.A, U) - self.b) / self._nrm2
        return np.maximum(excess, 0.0)[:, None] * self.A

    def support(self, Z):
        # dom sigma = nonnegative ray through a_i, tested as in Halfspace
        s = _rowdot(self.A, Z) / self._nrm2
        R = Z - s[:, None] * self.A
        tol = DOM_TOL * np.maximum(1.0, np.sqrt(_rowdot(Z, Z)))
        out = self.b * s
        out[(np.sqrt(_rowdot(R, R)) > tol) | (s < -DOM_TOL)] = _INF
        return out

    def value(self, X):
        # Halfspace.project: no move when the scaled excess is <= 0 (a NaN
        # excess stays NaN, and so does the distance)
        excess = _dots(self.A, X)
        excess -= self.b
        excess /= self._nrm2_dot
        np.maximum(excess, 0.0, out=excess)
        return _indicator_value(X - (X - excess[:, None] * self.A))


class BallStack:
    """Indicators of {x : ||x - c_i|| <= radius_i} for the rows c_i of C."""

    __slots__ = ("C", "radius")

    def __init__(self, C, radius):
        self.C = np.asarray(C, dtype=float)
        self.radius = np.asarray(radius, dtype=float)

    @classmethod
    def of(cls, terms):
        return cls([t.set.center for t in terms], [t.set.radius for t in terms])

    def moreau(self, U):
        # U - P(U) = (1 - radius / ||U - C||) (U - C) outside the ball, else 0
        D = U - self.C
        nrm = np.sqrt(_rowdot(D, D))
        outside = nrm > self.radius
        scale = np.divide(nrm - self.radius, nrm, out=np.zeros_like(nrm),
                          where=outside)
        return scale[:, None] * D

    def support(self, Z):
        return _rowdot(Z, self.C) + self.radius * np.sqrt(_rowdot(Z, Z))

    def value(self, X):
        # L2Ball.project: no move when ||x - c_i|| <= radius_i
        D = X - self.C
        nrm = np.sqrt(_dots(D, D))
        outside = ~(nrm <= self.radius)
        scale = np.divide(self.radius, nrm, out=np.zeros_like(nrm),
                          where=outside)
        R = X - (self.C + scale[:, None] * D)
        R[~outside] = 0.0
        return _indicator_value(R)


class TermStack:
    """Any terms, through each row's own prox and conjugate."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = tuple(terms)

    @classmethod
    def of(cls, terms):
        return cls(terms)

    def moreau(self, U):
        return np.array([moreau_dual(t, u) for t, u in zip(self.terms, U)])

    def support(self, Z):
        return np.array([t.conjugate(z) for t, z in zip(self.terms, Z)],
                        dtype=float)

    def value(self, X):
        if X.ndim == 1:
            return np.array([t.value(X) for t in self.terms], dtype=float)
        return np.array([t.value(x) for t, x in zip(self.terms, X)],
                        dtype=float)


_SET_STACKS = {Halfspace: HalfspaceStack, L2Ball: BallStack}


def _stack_kind(term):
    if type(term) is Indicator:
        return _SET_STACKS.get(type(term.set), TermStack)
    return TermStack


def stack_terms(terms, rows):
    """The terms at the given rows, grouped into one stack per kind.

    Returns [(rows, stack), ...], each rows an index array in the order
    given; halfspace and ball indicators get closed-form stacks and every
    other term goes into one TermStack.
    """
    groups = {}
    for i in rows:
        groups.setdefault(_stack_kind(terms[i]), []).append(int(i))
    return [(np.array(idx, dtype=np.intp), kind.of([terms[i] for i in idx]))
            for kind, idx in groups.items()]


def stacked_conjugates(groups, z, out):
    """out[rows] = h_i*(z_i) for every (rows, stack) group; returns out."""
    for rows, stack in groups:
        out[rows] = stack.support(z[rows])
    return out
