"""Convex terms with exact value / conjugate / prox oracles.

Two families are supported: indicators of projectable convex sets (halfspace,
hyperplane, box, Euclidean ball, affine subspace) and two smooth-or-simple
regularizers (weighted l1 norm, quadratic distance).  Every term is proper,
closed and convex with a single-valued prox in closed form, which is what the
sweep engine relies on for its exact solve tiers.

Stacks evaluate the dual prox and the conjugate of many terms of one kind in
one vectorized call; the engine groups a sweep's single-term blocks and the
dual objective's conjugates into them.  Two halfspace or ball indicators
also have the projection onto their intersection, with its duals, in closed
form (pair_duals, one point at a time).
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


def all_finite(a):
    """Whether every entry of the float array a is finite.

    One dot product, a's sum of squares, is finite exactly when every entry
    is and the sum does not overflow; only when it is not are the entries
    tested one by one, so finite data too large to square still passes.
    Neither step warns.
    """
    return math.isfinite(np.vdot(a, a)) or bool(np.isfinite(a).all())


def _finite(name, *values):
    """Reject NaN or infinity in the given floats and arrays."""
    for v in values:
        if not (math.isfinite(v) if isinstance(v, float) else all_finite(v)):
            raise ValueError(f"{name} data must be finite")


def _as_count(name, value, low=None):
    """value as an int: an int or a numpy integer, or a float with an
    integral value; a bool, a string or any other value, or one below low
    when that is given, is a ValueError that names name.  The one integer
    rule of the package's counts and indices, config's included."""
    if isinstance(value, float):
        integral = value.is_integer()
    else:   # an int or a numpy integer, not a bool
        integral = (hasattr(value, "__index__")
                    and not isinstance(value, (bool, np.bool_)))
    if not integral:
        raise ValueError(f"{name} must be an integer, not {value!r}")
    value = int(value)
    if low is not None and value < low:
        raise ValueError(f"{name} must be at least {low}")
    return value


def _as_number(name, value):
    """value as a float: an int, a float or a numpy integer or float; a
    bool, a string or any other value, or an integer beyond the float range,
    is a ValueError that names name.  The one number rule of config and
    SolveParams."""
    if (isinstance(value, (bool, np.bool_)) or not isinstance(
            value, (int, float, np.integer, np.floating))):
        raise ValueError(f"{name} must be a number, not {value!r}")
    try:
        return float(value)
    except OverflowError:   # an integer beyond the float range
        raise ValueError(f"{name} is out of range") from None


def _check_step(t):
    """Reject a prox step that is not a finite positive number."""
    if not 0.0 < t < _INF:   # NaN fails both tests
        raise ValueError(f"prox step must be a finite positive number,"
                         f" not {t!r}")


def _norm(x):
    """np.linalg.norm(x) of a float array without its wrapper: numpy's own
    formula, the root of the raveled array's dot product with itself, and
    so its bits.  The ravel copies a strided vector, whose dot product would
    take another summation order."""
    x = x.ravel(order="K")
    return math.sqrt(x.dot(x))


def _vec(x, d, name="x"):
    # C order: BLAS takes a strided vector's dot product in another summation
    # order, so a strided x is copied (a contiguous one is not)
    x = np.asarray(x, dtype=float, order="C")
    if x.shape != (d,):
        raise DimensionMismatch(f"{name} has shape {x.shape}, expected ({d},)")
    return x


# ---------------------------------------------------------------------------
# projectable sets
# ---------------------------------------------------------------------------

class _LinearSet:
    """{x : <a, x> <= b} or {x : <a, x> = b} with a nonzero."""

    def __init__(self, a, b):
        self.a = np.asarray(a, dtype=float).ravel()
        self.dim = self.a.size
        self.b = float(b)
        # a @ a, which warns on overflow
        nrm2 = float(np.vdot(self.a, self.a))
        name = type(self).__name__.lower()
        if not (math.isfinite(nrm2) and math.isfinite(self.b)):
            _finite(name, self.a, self.b)
            raise ValueError(f"{name} data is too large: the squared norm of"
                             f" its normal overflows")
        if nrm2 == 0.0:
            raise ValueError(f"{name} normal must be nonzero")
        self._nrm2 = nrm2

    def _line(self, z):
        """(s, off): z's coordinate s along a, and whether z is off the line
        through a, the domain of the support function up to its sign."""
        z = _vec(z, self.dim, "z")
        s = float(self.a @ z) / self._nrm2
        resid = _norm(z - s * self.a)
        return s, resid > DOM_TOL * max(1.0, _norm(z))


class Halfspace(_LinearSet):
    """{x : <a, x> <= b} with a nonzero."""

    def project(self, u):
        u = _vec(u, self.dim, "u")
        excess = (float(self.a @ u) - self.b) / self._nrm2
        if excess <= 0.0:
            return u.copy()
        return u - excess * self.a

    def support(self, z):
        # dom sigma = nonnegative ray through a
        s, off = self._line(z)
        return _INF if off or s < -DOM_TOL else self.b * s

    def distance(self, x):
        """max(0, <a, x> - b) / ||a||, without projecting."""
        x = _vec(x, self.dim)
        return max(float(self.a @ x) - self.b, 0.0) / math.sqrt(self._nrm2)


class Hyperplane(_LinearSet):
    """{x : <a, x> = b} with a nonzero."""

    def project(self, u):
        u = _vec(u, self.dim, "u")
        return u - ((float(self.a @ u) - self.b) / self._nrm2) * self.a

    def support(self, z):
        # dom sigma = the line through a, any sign
        s, off = self._line(z)
        return _INF if off else self.b * s


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
        nrm = _norm(diff)
        if nrm <= self.radius:
            return u.copy()
        return self.center + (self.radius / nrm) * diff

    def support(self, z):
        z = _vec(z, self.dim, "z")
        return float(z @ self.center) + self.radius * _norm(z)

    def distance(self, x):
        """max(0, ||x - center|| - radius), without projecting."""
        x = _vec(x, self.dim)
        return max(_norm(x - self.center) - self.radius, 0.0)


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
        resid = _norm(z - self._q @ s)
        if resid > DOM_TOL * max(1.0, _norm(z)):
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

    def distance(self, x):
        """The distance to the set that value tests: the set's closed form
        where it has one (a halfspace or a ball), else ||x - P(x)||."""
        if hasattr(self.set, "distance"):
            return self.set.distance(x)
        x = _vec(x, self.dim)
        return _norm(x - self.set.project(x))

    def value(self, x):
        return 0.0 if self.distance(x) <= FEAS_TOL else _INF

    def prox(self, u, t=1.0):
        _check_step(t)
        return self.set.project(u)

    def conjugate(self, z):
        return self.set.support(z)


class L1Norm:
    """weight * ||x||_1; prox is soft thresholding."""

    def __init__(self, dim, weight=1.0):
        self.dim = _as_count("l1 dim", dim, 1)
        self.weight = float(weight)
        _finite("l1", self.weight)
        if self.weight <= 0.0:
            raise ValueError("l1 weight must be positive")

    def value(self, x):
        x = _vec(x, self.dim)
        return self.weight * float(np.abs(x).sum())

    def prox(self, u, t=1.0):
        _check_step(t)
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
        _check_step(t)
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
# moreau(U) gives U - prox(U), support(Z) the conjugates h_i*(z_i) and
# value(X) the values h_i(x_i), row by row over a (k, d) array; value also
# takes one point x of shape (d,) and gives h_i(x) at every row.  moreau,
# support, value and the set stacks' project take a leading batch axis,
# (b, k, d) to (b, k) or (b, k, d), so that one call evaluates the same rows
# of b states.  The closed-form stacks take the scalar oracles' steps row by
# row, with every dot product through _dots: moreau is derived from project
# as moreau_dual derives it, and value from the set's closed-form distance,
# with no projection, as Indicator.value takes it.  So each row is bitwise
# the scalar oracle's and never depends on the stack's height, its row
# order or the batch.

def _dots_matmul(X, Y):
    """Row-wise <x_k, y_k> over the last axis, broadcast over the leading
    ones, each bitwise equal to the 1-d product x_k @ y_k.

    A stacked (1, d) @ (d, 1) matmul takes the same dot product as @ on two
    vectors, whose summation order other row-wise reductions do not keep.
    Y may be one vector of shape (d,), taken against every row of X.
    """
    return np.matmul(X[..., None, :], Y[..., None])[..., 0, 0]


# numpy >= 2.0 has the same row-wise dot products as one gufunc, in about
# half the time of the matmul form
_dots = getattr(np, "vecdot", _dots_matmul)


class _SetStack:
    """Indicators of k sets of one kind; subclasses give project, support
    and value."""

    __slots__ = ()

    def moreau(self, U):
        return U - self.project(U)


class HalfspaceStack(_SetStack):
    """Indicators of {x : <a_i, x> <= b_i} for the rows a_i of A."""

    __slots__ = ("A", "b", "_nrm2")

    def __init__(self, A, b):
        self.A = np.asarray(A, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self._nrm2 = _dots(self.A, self.A)

    @classmethod
    def of(cls, terms):
        return cls([t.set.a for t in terms], [t.set.b for t in terms])

    def project(self, U):
        # Halfspace.project: no move where the scaled excess is <= 0
        excess = (_dots(self.A, U) - self.b) / self._nrm2
        return np.where((excess <= 0.0)[..., None], U,
                        U - excess[..., None] * self.A)

    def support(self, Z):
        """Halfspace.support at each row: dom sigma = nonnegative ray
        through a_i.

        Over more than one state's rows, s a_i is formed by einsum, whose
        products are s[..., None] * A's, without the two iteration buffers
        of up to np.getbufsize() doubles that numpy's broadcast multiply
        holds; over one state's rows the multiply is about 2 us faster.
        einsum gives +0.0 for a product -0.0, which no output depends on.
        The subtraction still buffers Z when Z is a strided view, as a
        batch of cycle ends is.
        """
        s = _dots(self.A, Z) / self._nrm2
        R = (np.einsum("...r,rd->...rd", s, self.A) if Z.size > self.A.size
             else s[..., None] * self.A)   # s a_i
        np.subtract(Z, R, out=R)   # Z - s a_i, in the temporary's place
        tol = DOM_TOL * np.maximum(1.0, np.sqrt(_dots(Z, Z)))
        out = self.b * s
        out[(np.sqrt(_dots(R, R)) > tol) | (s < -DOM_TOL)] = _INF
        return out

    def value(self, X):
        # Indicator.value's test of Halfspace.distance, whose max with 0
        # decides nothing.  E is scaled in place and released before
        # np.where: a third (k,) temporary alive at once would leave one
        # more block in numpy's cache of array shapes, 16 B on a peak
        E = _dots(self.A, X) - self.b
        E /= np.sqrt(self._nrm2)
        inside = E <= FEAS_TOL
        del E
        return np.where(inside, 0.0, _INF)


class BallStack(_SetStack):
    """Indicators of {x : ||x - c_i|| <= radius_i} for the rows c_i of C."""

    __slots__ = ("C", "radius")

    def __init__(self, C, radius):
        self.C = np.asarray(C, dtype=float)
        self.radius = np.asarray(radius, dtype=float)

    @classmethod
    def of(cls, terms):
        return cls([t.set.center for t in terms], [t.set.radius for t in terms])

    def project(self, U):
        # L2Ball.project: no move where ||u - c_i|| <= radius_i
        D = U - self.C
        nrm = np.sqrt(_dots(D, D))
        inside = nrm <= self.radius
        scale = np.divide(self.radius, nrm, out=np.zeros_like(nrm),
                          where=~inside)
        return np.where(inside[..., None], U, self.C + scale[..., None] * D)

    def support(self, Z):
        return _dots(Z, self.C) + self.radius * np.sqrt(_dots(Z, Z))

    def value(self, X):
        # Indicator.value's test of L2Ball.distance, as for halfspaces
        D = X - self.C
        return np.where(np.sqrt(_dots(D, D)) - self.radius <= FEAS_TOL, 0.0,
                        _INF)


class TermStack:
    """Any terms, through each row's own prox, conjugate and value."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = tuple(terms)

    @classmethod
    def of(cls, terms):
        return cls(terms)

    def moreau(self, U):
        if U.ndim > 2:
            return np.array([self.moreau(Ub) for Ub in U])
        return np.array([moreau_dual(t, u) for t, u in zip(self.terms, U)])

    def support(self, Z):
        if Z.ndim > 2:
            return np.array([self.support(Zb) for Zb in Z])
        return np.array([t.conjugate(z) for t, z in zip(self.terms, Z)],
                        dtype=float)

    def value(self, X):
        if X.ndim > 2:
            return np.array([self.value(Xb) for Xb in X])
        X = np.broadcast_to(X, (len(self.terms), X.shape[-1]))
        return np.array([t.value(x) for t, x in zip(self.terms, X)],
                        dtype=float)


_SET_STACKS = {Halfspace: HalfspaceStack, L2Ball: BallStack}


def _stack_kind(term):
    if type(term) is Indicator:
        return _SET_STACKS.get(type(term.set), TermStack)
    return TermStack


def stack_kinds(terms, rows):
    """The given rows grouped by the kind of stack their terms take, as
    {kind: [row, ...]} in the order given; no stack is built."""
    groups = {}
    for i in rows:
        groups.setdefault(_stack_kind(terms[i]), []).append(int(i))
    return groups


def stack_terms(terms, rows):
    """The terms at the given rows, grouped into one stack per kind.

    Returns [(rows, stack), ...], each rows an index array in the order
    given; halfspace and ball indicators get closed-form stacks and every
    other term goes into one TermStack.
    """
    return [(np.array(idx, dtype=np.intp), kind.of([terms[i] for i in idx]))
            for kind, idx in stack_kinds(terms, rows).items()]


def stacked_conjugates(groups, z, out):
    """out[rows] = h_i*(z_i) for every (rows, stack) group; returns out."""
    for rows, stack in groups:
        out[rows] = stack.support(z[rows])
    return out


# ---------------------------------------------------------------------------
# pairs of sets: the projection onto their intersection, with its duals
# ---------------------------------------------------------------------------
#
# For a point u and two sets C and C', each a halfspace or a ball, the
# projection x of u onto C ∩ C' comes with duals z and z', its KKT
# multipliers: u - x = z + z', with z in the normal cone of C at x and z' in
# that of C', each a multiplier times its set's normal there: l·a for a
# halfspace, mu·(x - c) for a ball.  The cases are tried in order: x = u
# when u lies in both sets; x = P(u), the projection onto C, when it lies
# in C' (z = u - P(u), z' = 0); x = P'(u) when it lies in C; else both
# sets are active and x lies on both boundaries:
#   two halfspaces       (l, l') solve the 2 x 2 Gram system of a and a';
#   a halfspace, a ball  x is the projection onto the sphere H ∩ ∂B, center
#                        c + h·a and radius sqrt(rho^2 - h^2 ||a||^2), with
#                        h = (b - <a, c>) / ||a||^2;
#   two balls            the same, H the radical hyperplane of the two
#                        spheres, <a, x - c> = h ||a||^2 with a = c' - c.
# Where that has no answer, for parallel normals, a sphere of radius 0 or a
# multiplier that rounds below 0, the pair gives no duals and the caller
# falls back to an iterative solve.  Each test is taken from u's products
# with the sets' data, <a, u> and ||u - c||^2, without forming P(u): a
# halfspace's dual is e·a for its scaled excess e, and a ball's
# (1 - rho / ||u - c||)·(u - c).  pair_duals tries the cases in order, one
# point at a time; it is the only form, which a sweep and the batched
# re-solve of check_level="full" both call.

def pair_order(terms, rows):
    """The two term rows in pair order, a halfspace before a ball, or None
    when a term is not a halfspace or ball indicator."""
    if not all(type(terms[i]) is Indicator
               and type(terms[i].set) in _SET_STACKS for i in rows):
        return None
    return sorted(rows, key=lambda i: type(terms[i].set) is L2Ball)


def pair_constants(s1, s2):
    """What pair_duals takes of the sets s1 and s2, in pair order, besides
    their data: <a, a'> of two halfspaces; <a, c> and rho^2 of a halfspace
    and a ball; of two balls a = c' - c, ||a||^2, <a, c>, rho^2 and
    rho'^2."""
    if type(s2) is Halfspace:
        return (float(s1.a @ s2.a),)
    if type(s1) is Halfspace:
        return float(s1.a @ s2.center), s2.radius * s2.radius
    A = s2.center - s1.center
    return (A, float(A @ A), float(A @ s1.center), s1.radius * s1.radius,
            s2.radius * s2.radius)


def pair_holds(s1, s2, k, U):
    """Whether both sets hold each row u of U, (rows, d), as pair_duals
    decides it at u before its first return of (0.0, 0.0): bitwise, since
    each _dots row is the 1-d product."""
    if type(s2) is Halfspace:
        return (_dots(U, s1.a) - s1.b <= 0.0) & (_dots(U, s2.a) - s2.b <= 0.0)
    if type(s1) is Halfspace:
        D = U - s2.center
        return (_dots(U, s1.a) - s1.b <= 0.0) & (_dots(D, D) <= k[1])
    D = U - s1.center
    held = _dots(D, D) <= k[3]
    D = U - s2.center
    return held & (_dots(D, D) <= k[4])


def pair_duals(s1, s2, k, u):
    """(z, z') at u, (d,), for the halfspace or ball s1 and s2 in pair
    order, with k their pair_constants: each an array or 0.0, or None
    where there is no closed form."""
    if type(s2) is Halfspace:
        (g,) = k
        a1, a2 = s1.a, s2.a
        t1, t2 = float(a1 @ u), float(a2 @ u)
        E1, E2 = t1 - s1.b, t2 - s2.b
        if E1 <= 0.0 and E2 <= 0.0:
            return 0.0, 0.0
        if E1 > 0.0:
            e1 = E1 / s1._nrm2
            if t2 - e1 * g - s2.b <= 0.0:
                return e1 * a1, 0.0
        if E2 > 0.0:
            e2 = E2 / s2._nrm2
            if t1 - e2 * g - s1.b <= 0.0:
                return 0.0, e2 * a2
        det = s1._nrm2 * s2._nrm2 - g * g
        if not det > 0.0:
            return None
        L1 = (s2._nrm2 * E1 - g * E2) / det
        L2 = (s1._nrm2 * E2 - g * E1) / det
        return (L1 * a1, L2 * a2) if L1 >= 0.0 and L2 >= 0.0 else None
    if type(s1) is Halfspace:
        ac, rho2 = k
        a, b, n = s1.a, s1.b, s1._nrm2
        t = float(a @ u)
        E = t - b
        D = u - s2.center
        q = float(D @ D)
        if E <= 0.0 and q <= rho2:
            return 0.0, 0.0
        aD = t - ac
        if E > 0.0:
            e = E / n
            if q - 2.0 * e * aD + e * e * n <= rho2:   # ||u - e a - c||^2
                return e * a, 0.0
        if q > rho2:
            s = s2.radius / math.sqrt(q)
            if ac + s * aD - b <= 0.0:   # <a, c + s (u - c)> - b
                return 0.0, (1.0 - s) * D
        return _sphere_duals(a, n, D, aD, (b - ac) / n, rho2, s1, s2)
    A, nA, Ac, r1, r2 = k
    D = u - s1.center
    q1 = float(D @ D)
    D2 = u - s2.center
    q2 = float(D2 @ D2)
    if q1 <= r1 and q2 <= r2:
        return 0.0, 0.0
    aD = float(A @ u) - Ac
    if q1 > r1:
        s = s1.radius / math.sqrt(q1)
        if s * s * q1 - 2.0 * s * aD + nA <= r2:   # ||s (u - c) - a||^2
            return (1.0 - s) * D, 0.0
    if q2 > r2:
        s = s2.radius / math.sqrt(q2)
        if s * s * q2 + 2.0 * s * (aD - nA) + nA <= r1:
            return 0.0, (1.0 - s) * D2
    if not nA > 0.0:
        return None
    return _sphere_duals(A, nA, D, aD, (r1 - r2 + nA) / (2.0 * nA), r1, s1,
                         s2)


def _sphere_duals(a, n, D, aD, h, rho2, s1, s2):
    """pair_duals with both sets active, from D = u - c of the ball s2 (s1
    for two balls, whose a is c' - c), aD = <a, D> and the plane's offset
    h; rho2 is that ball's rho^2.

    The plane's foot of u is c + h a + Dp with Dp = D - (aD / n) a, and x
    is c + h a + (rp / ||Dp||) Dp.  u - x = L a + K (x - c) with the ball's
    multiplier K = ||Dp|| / rp - 1 and L = aD / n - h - K h, the
    halfspace's multiplier, or for two balls minus the second ball's."""
    rr = rho2 - h * h * n
    if not rr > 0.0:
        return None
    rp = math.sqrt(rr)
    Dp = D - (aD / n) * a
    delta = math.sqrt(float(Dp @ Dp))
    if delta == 0.0:
        return None
    K = (delta - rp) / rp
    L = aD / n - h - K * h
    X = h * a + (rp / delta) * Dp   # x - c
    if type(s1) is Halfspace:
        return (L * a, K * X) if L >= 0.0 and K >= 0.0 else None
    M1, M2 = K + L, -L
    return (M1 * X, M2 * (X - a)) if M1 >= 0.0 and M2 >= 0.0 else None
