"""Small-scale exact convex geometry on vertex-represented polytopes.

Everything here works on the convex hull of an explicit, finite vertex list.
Least-norm points are computed with Wolfe's nearest-point algorithm (in
closed form for segments), and the linear programs behind maximin values and
polytope slicing are solved by a dense two-phase simplex with Bland's rule.
No external solver is used.  It holds only what the package itself calls;
README "Python API" lists the names of it that ``nsds`` exports.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, EmptySetError, ModelError, SolverError

# Default tolerance for geometric membership queries, reported in results.
MEMBERSHIP_TOL = 1e-9

_LP_TOL = 1e-10
# Wolfe's algorithm: relative optimality tolerance, cap on major and minor cycles.
_WOLFE_TOL = 1e-12
_WOLFE_MAX_ITER = 1000


@dataclass(frozen=True)
class Polytope:
    """Convex hull of finitely many points in R^d.

    A distinguished empty variant (zero vertices) represents the empty set.
    Repeated vertices and lower-dimensional hulls are legal; no reduction
    pass is performed.
    """

    vertices: np.ndarray  # shape (n, dim)
    dim: int

    def __init__(self, vertices, dim: int | None = None):
        # One C-ordered copy, at least 2-D: np.atleast_2d and a copy at a
        # fraction of their call overhead.
        verts = np.array(vertices, dtype=float, ndmin=2, order="C")
        if verts.size == 0:
            if dim is None:
                raise ValueError("empty polytope needs an explicit dimension")
            verts = verts.reshape(0, dim)
        if dim is None:
            dim = verts.shape[1]
        if verts.shape[1] != dim:
            raise DimensionMismatchError(
                f"vertices have dimension {verts.shape[1]}, expected {dim}"
            )
        verts.flags.writeable = False
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "dim", dim)

    @classmethod
    def empty(cls, dim: int) -> "Polytope":
        return cls(np.zeros((0, dim)), dim)

    @classmethod
    def interval(cls, lo: float, hi: float) -> "Polytope":
        return cls([[lo], [hi]])

    @property
    def is_empty(self) -> bool:
        return self.vertices.shape[0] == 0

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    def scaled(self, s: float) -> "Polytope":
        if self.is_empty:
            return self
        return Polytope(s * self.vertices, self.dim)

    def to_json_dict(self) -> dict:
        return {"dim": self.dim, "vertices": self.vertices.tolist()}

    @classmethod
    def from_json_dict(cls, d: dict) -> "Polytope":
        return cls(np.asarray(d["vertices"], dtype=float).reshape(-1, d["dim"]), d["dim"])


# ---------------------------------------------------------------------------
# Linear programming: dense two-phase simplex with Bland's rule.
# ---------------------------------------------------------------------------

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPResult:
    status: str
    x: np.ndarray | None
    value: float


def solve_lp(c, A, b, *, max_iter: int = 5000) -> LPResult:
    """Solve min c@x subject to A@x = b, x >= 0.

    Two-phase tableau simplex.  Bland's rule is used in both phases, so the
    method terminates on the degenerate problems this package produces
    (duplicated polytope vertices, redundant equality constraints).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float).ravel().copy()
    c = np.asarray(c, dtype=float).ravel()
    m, n = A.shape
    if b.shape[0] != m or c.shape[0] != n:
        raise DimensionMismatchError("inconsistent LP shapes")

    A = A.copy()
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0

    # Phase 1: minimize the sum of artificial variables.
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = b
    basis = list(range(n, n + m))
    T[m, :n] = -A.sum(axis=0)
    T[m, -1] = -b.sum()

    status = _simplex_iterate(T, basis, n + m, max_iter)
    if status == UNBOUNDED:  # pragma: no cover - phase 1 objective is bounded
        return LPResult(INFEASIBLE, None, np.inf)
    if -T[m, -1] > np.sqrt(_LP_TOL):
        return LPResult(INFEASIBLE, None, np.inf)

    # Drive lingering artificials out of the basis where possible.
    for i in range(m):
        if basis[i] >= n:
            piv = np.flatnonzero(np.abs(T[i, :n]) > _LP_TOL)
            if piv.size:
                _pivot(T, basis, i, int(piv[0]))

    keep_rows = [i for i in range(m) if basis[i] < n]
    T2 = np.zeros((len(keep_rows) + 1, n + 1))
    T2[:-1, :n] = T[keep_rows, :n]
    T2[:-1, -1] = T[keep_rows, -1]
    basis2 = [basis[i] for i in keep_rows]

    # Phase 2 cost row, canonicalized against the current basis.
    T2[-1, :n] = c
    T2[-1, -1] = 0.0
    for i, bi in enumerate(basis2):
        if abs(T2[-1, bi]) > 0:
            T2[-1, :] -= T2[-1, bi] * T2[i, :]

    status = _simplex_iterate(T2, basis2, n, max_iter)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, None, -np.inf)

    x = np.zeros(n)
    for i, bi in enumerate(basis2):
        x[bi] = T2[i, -1]
    return LPResult(OPTIMAL, x, float(c.dot(x)))


def _pivot(T: np.ndarray, basis: list[int], row: int, col: int) -> None:
    T[row, :] /= T[row, col]
    for r in range(T.shape[0]):
        if r != row and abs(T[r, col]) > 0:
            T[r, :] -= T[r, col] * T[row, :]
    basis[row] = col


def _simplex_iterate(T, basis, n_vars, max_iter) -> str:
    """Pivot until optimal or unbounded; more than max_iter pivots raise."""
    m = len(basis)
    pivots = 0
    while True:
        entering = -1
        for j in range(n_vars):  # Bland: smallest eligible index
            if T[m, j] < -_LP_TOL:
                entering = j
                break
        if entering < 0:
            return OPTIMAL
        ratios = []
        for i in range(m):
            if T[i, entering] > _LP_TOL:
                ratios.append((T[i, -1] / T[i, entering], basis[i], i))
        if not ratios:
            return UNBOUNDED
        best = min(r for r, _, _ in ratios)
        leaving = min(i for r, bi, i in ratios if r <= best + _LP_TOL)
        if pivots == max_iter:
            raise SolverError("simplex iteration limit reached")
        _pivot(T, basis, leaving, entering)
        pivots += 1


# ---------------------------------------------------------------------------
# Least-norm point (Wolfe's nearest-point algorithm).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LeastNormResult:
    point: np.ndarray
    coefficients: np.ndarray  # convex combination over the input vertices


def _affine_minimizer(V: np.ndarray) -> np.ndarray:
    """Coefficients of the min-norm point in the affine hull of the rows of V."""
    k = V.shape[0]
    G = V.dot(V.T)
    K = np.zeros((k + 1, k + 1))
    K[:k, :k] = G
    K[:k, k] = 1.0
    K[k, :k] = 1.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    sol, *_ = np.linalg.lstsq(K, rhs, rcond=None)
    return sol[:k]


def least_norm(P: Polytope) -> LeastNormResult:
    """Unique minimum-norm point of the hull, with its convex coefficients.

    The returned coefficients certify hull membership: they are nonnegative
    and sum to one up to 1e-9.

    Two vertices a, b are solved in closed form: the origin is projected onto
    the segment, ``t = clip(-a.(b-a) / |b-a|^2, 0, 1)`` with coefficients
    ``(1-t, t)``, and a zero-length segment takes ``t = 0``.  Three or more
    vertices go through Wolfe's algorithm.
    """
    if P.is_empty:
        raise EmptySetError("least_norm of the empty polytope")
    V = P.vertices
    if V.shape[0] == 1:
        return LeastNormResult(point=V[0].copy(), coefficients=np.ones(1))
    coeffs = _least_norm_coefficients(V)
    return LeastNormResult(point=coeffs.dot(V), coefficients=coeffs)


def _least_norm_point(rows: np.ndarray) -> np.ndarray:
    """The point of :func:`least_norm` for nonempty vertex rows, with no
    Polytope built; a single row is its own."""
    if rows.shape[0] == 1:
        return rows[0]
    return _least_norm_coefficients(rows).dot(rows)


def _least_norm_coefficients(V: np.ndarray) -> np.ndarray:
    """The convex coefficients of the least-norm point of two or more rows:
    the segment in closed form, more rows by Wolfe's algorithm."""
    n = V.shape[0]
    if n == 2:
        d = V[1] - V[0]
        dd = float(d.dot(d))
        t = 0.0 if dd == 0.0 else min(max(-float(V[0].dot(d)) / dd, 0.0), 1.0)
        return np.array([1.0 - t, t])
    scale = max(1.0, float(np.max(np.abs(V))))
    eps = _WOLFE_TOL * scale * scale

    start = int(np.argmin(np.einsum("ij,ij->i", V, V)))
    corral = [start]
    lam = np.array([1.0])

    for _ in range(_WOLFE_MAX_ITER):
        x = lam.dot(V[corral])
        xx = float(x.dot(x))
        scores = V.dot(x)
        j = int(np.argmin(scores))
        if scores[j] >= xx - eps or xx <= eps:
            break
        if j in corral:
            break
        corral.append(j)
        lam = np.append(lam, 0.0)
        # Minor cycle: pull the affine minimizer back into the convex hull.
        for _ in range(_WOLFE_MAX_ITER):
            alpha = _affine_minimizer(V[corral])
            if np.all(alpha > -1e-14):
                lam = np.clip(alpha, 0.0, None)
                s = lam.sum()
                if s > 0:
                    lam /= s
                break
            neg = alpha <= -1e-14
            with np.errstate(divide="ignore", invalid="ignore"):
                steps = np.where(neg, lam / (lam - alpha), np.inf)
            theta = float(np.min(steps[neg]))
            lam = theta * alpha + (1.0 - theta) * lam
            keep = lam > 1e-13
            if not np.any(keep):  # pragma: no cover - numerical guard
                keep[int(np.argmax(lam))] = True
            corral = [ci for ci, k in zip(corral, keep) if k]
            lam = lam[keep]
            s = lam.sum()
            if s > 0:
                lam /= s

    coeffs = np.zeros(n)
    for ci, li in zip(corral, lam):
        coeffs[ci] += li
    coeffs = np.clip(coeffs, 0.0, None)
    total = coeffs.sum()
    if total > 0:
        coeffs /= total
    return coeffs


def maximin_value(A: Polytope, B: Polytope) -> float:
    """sup over zeta in A of min over v in B of zeta . v.

    The inner minimum over the hull of B is attained at a vertex, so this is
    the value of the matrix game with payoff M[i, j] = a_i . b_j.  A side
    with one vertex leaves the other player a single choice, so the value is
    the least entry of M when A is one vertex and the largest when B is;
    otherwise a single LP on the vertex representations computes it.
    """
    if A.is_empty or B.is_empty:
        raise EmptySetError("maximin_value needs nonempty polytopes")
    if A.dim != B.dim:
        raise DimensionMismatchError("maximin_value dimension mismatch")
    return _maximin_rows(A.vertices, B.vertices)


def _maximin_rows(A: np.ndarray, B: np.ndarray) -> float:
    """maximin_value on nonempty vertex rows of one dimension."""
    M = A.dot(B.T)  # (na, nb)
    na, nb = M.shape
    if na == 1:
        return float(M.min())
    if nb == 1:
        return float(M.max())
    # Variables: lambda (na), t+, t-, slack (nb).
    # Rows: sum(lambda) = 1;  M^T lambda - t+ + t- - s_j = 0 for each j.
    n = na + 2 + nb
    Aeq = np.zeros((1 + nb, n))
    beq = np.zeros(1 + nb)
    Aeq[0, :na] = 1.0
    beq[0] = 1.0
    Aeq[1:, :na] = M.T
    Aeq[1:, na] = -1.0
    Aeq[1:, na + 1] = 1.0
    Aeq[1:, na + 2 :] = -np.eye(nb)
    c = np.zeros(n)
    c[na] = -1.0
    c[na + 1] = 1.0
    res = solve_lp(c, Aeq, beq)
    if res.status != OPTIMAL:  # pragma: no cover - game LPs are always solvable
        raise SolverError(f"maximin LP failed: {res.status}")
    return -res.value


def _minkowski_rows(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Every pairwise sum a_i + b_j of two vertex-row arrays, with i major;
    no row when either side has none."""
    if A.shape[0] == 1 or B.shape[0] == 1:
        return A + B
    return (A[:, None, :] + B[None, :, :]).reshape(-1, A.shape[1])


# ---------------------------------------------------------------------------
# Convex polygons in the plane (boundary-distance machinery).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvexPolygon:
    """Convex polygon with counterclockwise vertices, at least three of them.

    ``edge_offsets`` is the one point-to-edge distance kernel: the boundary
    distance, containment and the packing code all read it, or the cached
    ``edge_vectors``, ``inward_normals`` and ``line_offsets`` beside it.
    """

    vertices: np.ndarray  # (n, 2)

    def __init__(self, vertices):
        verts = np.atleast_2d(np.asarray(vertices, dtype=float))
        if verts.shape[0] < 3 or verts.shape[1] != 2:
            raise ValueError("a polygon needs at least three 2-D vertices")
        if not np.isfinite(verts).all():
            raise ValueError("polygon vertices must be finite")
        verts = verts.copy()
        verts.flags.writeable = False
        object.__setattr__(self, "vertices", verts)
        # Edge i must have length and turn left into edge i + 1; the first
        # edge that fails decides the error.  Collinear vertices turn by
        # zero and enclose no area, and a star polygon (a pentagram) turns
        # left at every vertex but through 4 pi, where a convex one turns
        # through 2 pi.
        t = self.edge_vectors
        u = np.roll(t, -1, axis=0)
        cross = t[:, 0] * u[:, 1] - t[:, 1] * u[:, 0]
        short = np.linalg.norm(t, axis=1) < 1e-12
        bad = np.flatnonzero(short | (cross < -1e-12))
        if bad.size and short[bad[0]]:
            raise ModelError("degenerate polygon: zero-length edge")
        if not bad.size and self.area <= 1e-12 * self._squared_lengths.sum():
            raise ModelError("degenerate polygon: zero area")
        if bad.size or np.arctan2(cross, (t * u).sum(axis=1)).sum() > 3 * math.pi:
            raise ValueError("polygon vertices must be counterclockwise and convex")

    @classmethod
    def square(cls, half_width: float = 1.0) -> "ConvexPolygon":
        h = half_width
        return cls([[-h, -h], [h, -h], [h, h], [-h, h]])

    @property
    def n_edges(self) -> int:
        return self.vertices.shape[0]

    @functools.cached_property
    def edge_vectors(self) -> np.ndarray:
        """Edge i as the vector from vertex i to vertex i + 1, shape (n_edges, 2)."""
        t = np.roll(self.vertices, -1, axis=0) - self.vertices
        t.flags.writeable = False
        return t

    @functools.cached_property
    def inward_normals(self) -> np.ndarray:
        """Unit inward normal of every edge, shape (n_edges, 2)."""
        t = self.edge_vectors
        n = np.stack([-t[:, 1], t[:, 0]], axis=1)  # ccw order makes these inward
        n /= np.linalg.norm(n, axis=1)[:, None]
        n.flags.writeable = False
        return n

    @functools.cached_property
    def line_offsets(self) -> np.ndarray:
        """n_i . v_i for the inward normal n_i and first vertex v_i of every
        edge, shape (n_edges,): a point p is beyond edge i's line exactly
        where n_i . p < n_i . v_i."""
        c = (self.inward_normals * self.vertices).sum(axis=1)
        c.flags.writeable = False
        return c

    @functools.cached_property
    def area(self) -> float:
        """The enclosed area, by the shoelace formula."""
        v, t = self.vertices, self.edge_vectors
        return 0.5 * float((v[:, 0] * t[:, 1] - v[:, 1] * t[:, 0]).sum())

    @functools.cached_property
    def _squared_lengths(self) -> np.ndarray:
        """Squared length of every edge, shape (n_edges,)."""
        t = self.edge_vectors
        return (t * t).sum(axis=1)

    def edge_offsets(self, points) -> np.ndarray:
        """Offsets p - q from the nearest point q of every edge segment to
        every point p, shape (n_points, n_edges, 2)."""
        pts = np.asarray(points, dtype=float).reshape(-1, 1, 2)
        t = self.edge_vectors
        q = (pts - self.vertices) * t
        s = (q[:, :, 0] + q[:, :, 1]) / self._squared_lengths
        # Clamp to [0, 1] as np.clip does, which keeps a -0.0 (np.maximum
        # may not) and a NaN, at a fraction of its call overhead.
        s[s < 0.0] = 0.0
        s[s > 1.0] = 1.0
        return pts - (self.vertices + s[:, :, None] * t)

    def contains_point(self, p, tol: float = 0.0) -> bool:
        p = np.asarray(p, dtype=float)
        return bool(np.all(((p - self.vertices) * self.inward_normals).sum(axis=1) >= -tol))

    def boundary_distance(self, p) -> float:
        """Distance to the boundary, negated outside the polygon."""
        d = float(np.linalg.norm(self.edge_offsets(p)[0], axis=1).min())
        return d if self.contains_point(p, tol=1e-12) else -d


def vector_norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-D float array: the sqrt(v . v) that
    ``np.linalg.norm`` computes, bit for bit, without its per-call overhead."""
    return math.sqrt(v.dot(v))


def _point(x, dim: int, what: str = "point") -> np.ndarray:
    """The one check of a point: x as a float vector of shape (dim,).  Any
    other shape, a scalar or a (1, dim) row included, raises
    DimensionMismatchError, and a coordinate that is not finite ModelError."""
    x = np.asarray(x, dtype=float)
    if x.shape != (dim,):
        raise DimensionMismatchError(f"{what} has shape {x.shape}, not ({dim},)")
    if not all(map(math.isfinite, x.tolist())):  # cheaper than np.isfinite on short x
        raise ModelError(f"{what} must be finite, got {x.tolist()}")
    return x


def as_point(value: Sequence[float] | float) -> np.ndarray:
    """Coerce scalars / sequences into a 1-D float vector."""
    arr = np.asarray(value, dtype=float)
    return arr.reshape(1) if arr.ndim == 0 else arr.ravel()
