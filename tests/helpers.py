"""Independent oracles used across the test suite.

These deliberately avoid the package's own solution paths: projections are
done by grid search over convex-combination weights, game values by an
external LP solver (HiGHS via scipy), Filippov sets by sampling field values
in a small ball, and gradients by finite differences.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.optimize

from nsds.errors import DimensionMismatchError, EmptySetError, ModelError
from nsds.geometry import MEMBERSHIP_TOL, ConvexPolygon, Polytope, least_norm
from nsds.integrate import Event, Trajectory
from nsds.nonsmooth import (
    ALL_SPACE,
    UNSUPPORTED,
    Dilation,
    GradientResult,
    MaxOf,
    MinOf,
    NsFunction,
    Product,
    Quotient,
    SmoothAtom,
    Sum,
)


def grid_projection_oracle(vertices: np.ndarray, resolution: float = 1e-4) -> np.ndarray:
    """Min-norm point of the hull by brute force over convex-combination
    weights: a coarse sweep followed by a local refinement to the target
    resolution."""
    V = np.asarray(vertices, dtype=float)
    n = V.shape[0]

    def sweep(center: np.ndarray, radius: float, steps: int) -> np.ndarray:
        axes = [
            np.clip(np.linspace(c - radius, c + radius, steps), 0.0, 1.0)
            for c in center
        ]
        best, best_val = None, np.inf
        for combo in itertools.product(*axes):
            w = np.array(combo)
            s = w.sum()
            if s <= 0:
                continue
            w = w / s
            p = w @ V
            val = p @ p
            if val < best_val:
                best, best_val = w, val
        return best

    w = sweep(np.full(n, 0.5), 0.5, 21)
    radius = 0.5 / 10
    while radius > resolution / 4:
        w = sweep(w, radius, 9)
        radius /= 4
    return w @ V


def least_norm_scipy_oracle(vertices: np.ndarray) -> np.ndarray:
    """Min-norm point of the hull by SLSQP over convex-combination weights."""
    V = np.asarray(vertices, dtype=float)
    n = V.shape[0]
    res = scipy.optimize.minimize(
        lambda w: float((w @ V) @ (w @ V)),
        np.full(n, 1.0 / n),
        jac=lambda w: 2.0 * V @ (w @ V),
        bounds=[(0.0, 1.0)] * n,
        constraints=[{"type": "eq", "fun": lambda w: w.sum() - 1.0,
                      "jac": lambda w: np.ones(n)}],
        method="SLSQP",
        options={"ftol": 1e-16, "maxiter": 500},
    )
    assert res.success, res.message
    return res.x @ V


def maximin_lp_oracle(A: Polytope, B: Polytope) -> float:
    """Game value sup_{zeta in A} min_{v in B} zeta . v via scipy's HiGGS LP:
    an implementation-independent route to the same optimum."""
    M = A.vertices @ B.vertices.T
    na, nb = M.shape
    # Variables: lambda (na), t.  max t  s.t.  t <= (lambda^T M)_j,  sum lambda = 1.
    c = np.zeros(na + 1)
    c[-1] = -1.0
    A_ub = np.hstack([-M.T, np.ones((nb, 1))])
    b_ub = np.zeros(nb)
    A_eq = np.zeros((1, na + 1))
    A_eq[0, :na] = 1.0
    b_eq = np.array([1.0])
    bounds = [(0, None)] * na + [(None, None)]
    res = scipy.optimize.linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                                 bounds=bounds, method="highs")
    assert res.success
    return float(res.x[-1])


def set_lie_lp_oracle(Fset: Polytope, grad: Polytope) -> tuple[float, float] | None:
    """Endpoints of the set-valued Lie derivative via scipy's HiGHS LP, or
    None when it is empty.  Variables: convex weights lambda over Fset's
    vertices and the common value a, with zeta . (V^T lambda) = a for every
    gradient vertex zeta; no gradient differences are formed."""
    M = grad.vertices @ Fset.vertices.T
    ng, nf = M.shape
    A_eq = np.zeros((ng + 1, nf + 1))
    A_eq[:ng, :nf] = M
    A_eq[:ng, -1] = -1.0
    A_eq[ng, :nf] = 1.0
    b_eq = np.zeros(ng + 1)
    b_eq[-1] = 1.0
    bounds = [(0, None)] * nf + [(None, None)]
    ends = []
    for sense in (1.0, -1.0):
        c = np.zeros(nf + 1)
        c[-1] = sense
        res = scipy.optimize.linprog(c, A_eq=A_eq, b_eq=b_eq, bounds=bounds, method="highs")
        if res.status == 2:  # infeasible
            return None
        assert res.success, res.message
        ends.append(float(res.x[-1]))
    return ends[0], ends[1]


def sign_cell_lp_oracle(L: np.ndarray, sigma) -> bool:
    """Whether {p : sigma_i (L p)_i > 0 for all i} is nonempty, via scipy's
    HiGHS LP on the scaled system sigma_i (L p)_i >= 1 with p free."""
    n = L.shape[0]
    A_ub = -np.asarray(sigma, dtype=float)[:, None] * L
    res = scipy.optimize.linprog(np.zeros(n), A_ub=A_ub, b_ub=-np.ones(n),
                                 bounds=[(None, None)] * n, method="highs")
    assert res.status in (0, 2), res.message
    return res.status == 0


def maximin_grid_search(A: Polytope, B: Polytope, per_dim: int = 200) -> float:
    """Literal grid search: axis-aligned grid over A's bounding box (plus A's
    vertices), feasibility by weight fitting, payoff min over B's vertices.

    A one-sided bound: grid values never exceed the true maximin value.
    """
    Bv = B.vertices
    candidates = [v for v in A.vertices]
    lo = A.vertices.min(axis=0)
    hi = A.vertices.max(axis=0)
    axes = [np.linspace(lo[k], hi[k], per_dim) for k in range(A.dim)]
    if A.dim <= 2:
        mesh = np.array(list(itertools.product(*axes)))
    else:
        mesh = np.array(list(itertools.product(*[ax[::4] for ax in axes])))
    inside = [p for p in mesh if _in_hull(A, p)]
    candidates.extend(inside)
    return max(float(np.min(Bv @ z)) for z in candidates)


def _in_hull(P: Polytope, y, tol: float = 1e-9) -> bool:
    """Membership via scipy linprog weight fitting (independent of the
    package's least-norm machinery)."""
    V = P.vertices
    n = V.shape[0]
    A_eq = np.vstack([V.T, np.ones(n)])
    b_eq = np.concatenate([np.asarray(y, dtype=float), [1.0]])
    res = scipy.optimize.linprog(np.zeros(n), A_eq=A_eq, b_eq=b_eq,
                                 bounds=[(0, None)] * n, method="highs")
    return bool(res.success)


def filippov_ball_oracle(field, x, delta: float = 1e-3, samples: int = 10_000,
                         surface_clearance: float = 1e-6, seed: int = 0) -> Polytope:
    """Hull of field values sampled in a ball around x, excluding points too
    close to any switching surface."""
    rng = np.random.default_rng(seed)
    x = np.asarray(x, dtype=float)
    values = []
    while len(values) < samples:
        y = x + delta * (2.0 * rng.random(field.dim) - 1.0)
        if np.linalg.norm(y - x) > delta:
            continue
        if any(abs(s.value(y)) <= surface_clearance for s in field.switches):
            continue
        values.append(field.value(y))
    return Polytope(np.array(values))


def central_difference_gradient(f, x, h: float = 1e-6) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for k in range(x.shape[0]):
        e = np.zeros_like(x)
        e[k] = h
        g[k] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def forward_directional_derivative(f, x, v, h: float = 1e-6) -> float:
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    return (f(x + h * v) - f(x)) / h


def random_polytope(rng, dim: int, max_vertices: int, scale: float = 1.0) -> Polytope:
    n = rng.integers(1, max_vertices + 1)
    return Polytope(scale * (2.0 * rng.random((n, dim)) - 1.0))


# ---------------------------------------------------------------------------
# Polytope queries that only the tests ask: membership, support values,
# affine images and Hausdorff distances of vertex-represented hulls.
# ---------------------------------------------------------------------------


def distance_to_hull(P: Polytope, y) -> float:
    """Euclidean distance from the point y to the hull of P."""
    y = np.asarray(y, dtype=float)
    if P.is_empty:
        raise EmptySetError("distance to the empty polytope")
    if y.shape[0] != P.dim:
        raise DimensionMismatchError("point dimension mismatch")
    return float(np.linalg.norm(least_norm(Polytope(P.vertices - y)).point))


def contains(P: Polytope, y, tol: float = MEMBERSHIP_TOL) -> bool:
    """True iff y is within Euclidean distance tol of the hull of P."""
    return distance_to_hull(P, y) <= tol


def support(P: Polytope, direction) -> float:
    """Support value max over the hull of direction . v (attained at a vertex)."""
    if P.is_empty:
        raise EmptySetError("support of the empty polytope")
    d = np.asarray(direction, dtype=float)
    if d.shape[0] != P.dim:
        raise DimensionMismatchError("direction dimension mismatch")
    return float(np.max(P.vertices @ d))


def affine_image(P: Polytope, M, b=None) -> Polytope:
    """Image hull {M v + b} of every vertex; exact because affine maps commute
    with convex hulls."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape[1] != P.dim:
        raise DimensionMismatchError(
            f"matrix has {M.shape[1]} columns, polytope dimension is {P.dim}"
        )
    out_dim = M.shape[0]
    if b is None:
        b = np.zeros(out_dim)
    b = np.asarray(b, dtype=float).ravel()
    if b.shape[0] != out_dim:
        raise DimensionMismatchError("offset dimension mismatch")
    if P.is_empty:
        return Polytope.empty(out_dim)
    return Polytope(P.vertices @ M.T + b, out_dim)


def hausdorff_distance(P: Polytope, Q: Polytope) -> float:
    """Hausdorff distance between two hulls.

    For convex sets the supremum of dist(., other) is attained at a vertex,
    so vertex-to-hull distances suffice.
    """
    if P.dim != Q.dim:
        raise DimensionMismatchError("hausdorff dimension mismatch")
    if P.is_empty and Q.is_empty:
        return 0.0
    if P.is_empty or Q.is_empty:
        return np.inf
    d1 = max(distance_to_hull(Q, v) for v in P.vertices)
    d2 = max(distance_to_hull(P, v) for v in Q.vertices)
    return max(d1, d2)


# ---------------------------------------------------------------------------
# Per-pair loop references for the vectorized packing code.
# ---------------------------------------------------------------------------


def hsp_loop(Q: ConvexPolygon, points) -> float:
    """Packing radius term by term: half of every pairwise distance and every
    point-to-edge distance, then the smallest."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    terms = []
    n = pts.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            terms.append(0.5 * float(np.linalg.norm(pts[i] - pts[j])))
        for e in range(Q.n_edges):
            terms.append(float(np.linalg.norm(_segment_offset(Q, e, pts[i]))))
    return min(terms)


def _segment_offset(polygon: ConvexPolygon, e: int, p) -> np.ndarray:
    """p minus its nearest point on edge e, from the vertex list alone."""
    a = polygon.vertices[e]
    t = polygon.vertices[(e + 1) % polygon.n_edges] - a
    s = float(np.clip((p - a) @ t / (t @ t), 0.0, 1.0))
    return p - (a + s * t)


def min_pairwise(p_flat) -> float:
    """Least distance between two planar agents at the flat positions
    p_flat, inf for fewer than two agents."""
    pts = np.asarray(p_flat, dtype=float).reshape(-1, 2)
    i, j = np.triu_indices(pts.shape[0], 1)
    return float(np.linalg.norm(pts[i] - pts[j], axis=1).min(initial=np.inf))


def move_away_direction_loop(polygon: ConvexPolygon, n: int, tie_band: float, p_flat,
                             tie_sizes: list | None = None) -> np.ndarray:
    """Move-away law agent by agent and entity by entity.  Ties go through
    the package's least_norm, so this pins the distances, the tie rule and
    the generator order (agents first, then edges).  With ``tie_sizes``,
    the number of tied generators of every agent is appended to it."""
    pts = np.asarray(p_flat, dtype=float).reshape(n, 2)
    out = np.zeros_like(pts)
    for i in range(n):
        dists, dirs = [], []
        for j in range(n):
            if j == i:
                continue
            diff = pts[i] - pts[j]
            r = float(np.linalg.norm(diff))
            if r <= 1e-12:
                raise ModelError("coincident agents")
            dists.append(0.5 * r)
            dirs.append(diff / r)
        for e in range(polygon.n_edges):
            diff = _segment_offset(polygon, e, pts[i])
            r = float(np.linalg.norm(diff))
            if r <= 1e-12:
                raise ModelError("agent sits on the boundary")
            dists.append(r)
            dirs.append(diff / r)
        dmin = min(dists)
        gens = [u for d, u in zip(dists, dirs) if d <= dmin + tie_band]
        if tie_sizes is not None:
            tie_sizes.append(len(gens))
        out[i] = gens[0] if len(gens) == 1 else least_norm(Polytope(np.array(gens))).point
    return out.ravel()



# ---------------------------------------------------------------------------
# List-based reference for the trajectory builder.
# ---------------------------------------------------------------------------


class _Rows(list):
    """Per-sample state arrays; a slice comes back stacked, as the stepping
    loops read a window of recent states."""

    def __getitem__(self, k):
        item = super().__getitem__(k)
        return np.array(item) if isinstance(k, slice) else item


class ListBuilder:
    """``integrate._Builder`` with one copied array per sample in a list and
    bulk writes (a block of steps, a stopped tail) appended sample by
    sample: the reference for the builder that keeps its states in one
    growing array."""

    def __init__(self, t0, x0, mode):
        self.times = [float(t0)]
        self.states = _Rows([np.array(x0, dtype=float)])
        self.modes = [mode]
        self.events = []

    @property
    def t(self):
        return self.times[-1]

    @property
    def x(self):
        return self.states[-1]

    def append(self, t, x, mode):
        if t <= self.times[-1]:
            t = np.nextafter(self.times[-1], math.inf)
        self.times.append(float(t))
        self.states.append(np.array(x, dtype=float))
        self.modes.append(mode)

    def extend(self, times, states, mode):
        rows = np.broadcast_to(np.array(states, dtype=float), (len(times), len(self.x)))
        for t, x in zip(times, rows):
            self.append(t, x, mode)

    def event(self, kind, detail=""):
        self.events.append(Event(self.times[-1], kind, detail))

    def check_finite(self, start):
        for k in range(start, len(self.times)):
            if not np.all(np.isfinite(self.states[k])):
                raise ModelError(f"state is not finite at t={self.times[k]}: "
                                 f"{self.states[k].tolist()}")

    def stalled(self, window, conv_tol):
        if len(self.times) <= window:
            return False
        dt = self.times[-1] - self.times[-1 - window]
        if dt <= 0:
            return False
        return all(float(np.linalg.norm(self.states[-1] - self.states[-1 - k])) <= conv_tol * dt
                   for k in range(1, window + 1))

    def finish(self):
        return Trajectory(self.times, list(self.states), self.modes, self.events)


# ---------------------------------------------------------------------------
# Polytope-chain reference for the expression-tree calculus.
# ---------------------------------------------------------------------------


def minkowski_sum(P: Polytope, Q: Polytope) -> Polytope:
    """Hull of all pairwise vertex sums, P's index major, written out here
    so the reference shares no row arithmetic with the package."""
    if P.dim != Q.dim:
        raise DimensionMismatchError("minkowski_sum dimension mismatch")
    if P.is_empty or Q.is_empty:
        return Polytope.empty(P.dim)
    sums = P.vertices[:, None, :] + Q.vertices[None, :, :]
    return Polytope(sums.reshape(-1, P.dim), P.dim)


def chain_gradient(f: NsFunction, x) -> GradientResult:
    """Generalized gradient with a Polytope at every node and a Minkowski
    chain for sums and products: the calculus rule by rule, for comparison
    with the vertex rows the package passes up the tree.  Leaves other than
    smooth atoms answer through their own public ``gradient``."""
    x = np.asarray(x, dtype=float).ravel()
    if isinstance(f, SmoothAtom):
        return GradientResult(Polytope([np.asarray(f._grad(x), dtype=float)]), exact=True)
    if isinstance(f, Dilation):
        child = chain_gradient(f.f, x)
        return GradientResult(child.polytope.scaled(f.s), exact=child.exact)
    if isinstance(f, Sum):
        acc = Polytope([np.zeros(f.dim)])
        exact = f.smooth or (all(g.regular for _, g in f.terms)
                             and all(c >= 0 for c, _ in f.terms))
        for c, g in f.terms:
            child = chain_gradient(g, x)
            exact = exact and child.exact
            acc = minkowski_sum(acc, child.polytope.scaled(c))
        return GradientResult(acc, exact=exact)
    if isinstance(f, Product):
        v1, v2 = f.f1.value(x), f.f2.value(x)
        g1, g2 = chain_gradient(f.f1, x), chain_gradient(f.f2, x)
        poly = minkowski_sum(g1.polytope.scaled(v2), g2.polytope.scaled(v1))
        exact = g1.exact and g2.exact and (
            f.smooth or (f.f1.regular and f.f2.regular and v1 >= 0 and v2 >= 0))
        return GradientResult(poly, exact=exact)
    if isinstance(f, Quotient):
        v1, v2 = f.f1.value(x), f.f2.value(x)
        g1, g2 = chain_gradient(f.f1, x), chain_gradient(f.f2, x)
        poly = minkowski_sum(g1.polytope.scaled(1.0 / v2), g2.polytope.scaled(-v1 / (v2 * v2)))
        exact = g1.exact and g2.exact and (
            f.smooth or (f.f1.regular and f.f2.smooth and v1 >= 0 and v2 > 0))
        return GradientResult(poly, exact=exact)
    if isinstance(f, (MaxOf, MinOf)):
        vals = [g.value(x) for g in f.children]
        if isinstance(f, MaxOf):
            top = max(vals)
            active = [i for i, v in enumerate(vals) if v >= top - 1e-9 * (1.0 + abs(top))]
        else:
            bottom = min(vals)
            active = [i for i, v in enumerate(vals) if v <= bottom + 1e-9 * (1.0 + abs(bottom))]
        results = [chain_gradient(f.children[i], x) for i in active]
        verts = np.vstack([r.polytope.vertices for r in results])
        exact = all(r.exact for r in results)
        if len(active) > 1:
            flag = "regular" if isinstance(f, MaxOf) else "smooth"
            exact = exact and all(getattr(f.children[i], flag) for i in active)
        return GradientResult(Polytope(verts), exact=exact)
    return f.gradient(x)


def _chain_bridge(f: NsFunction, x):
    if f.convex:
        gr = chain_gradient(f, x)
        if gr.exact:
            return gr.polytope
    return UNSUPPORTED


def chain_proximal(f: NsFunction, x):
    """Proximal subdifferential by the closed-form catalog with a Polytope at
    every node (see chain_gradient)."""
    x = np.asarray(x, dtype=float).ravel()
    if isinstance(f, SmoothAtom):
        if f.c2 or f.convex:
            return Polytope([np.asarray(f._grad(x), dtype=float)])
        return UNSUPPORTED
    if isinstance(f, Dilation):
        if f.s > 0:
            child = chain_proximal(f.f, x)
            if child is UNSUPPORTED or child is ALL_SPACE:
                return child
            return child.scaled(f.s)
        if f.s == 0:
            return Polytope([np.zeros(f.dim)])
        return _chain_bridge(f, x)
    if isinstance(f, Sum):
        if f.c2:
            return chain_gradient(f, x).polytope
        rough = [(c, g) for c, g in f.terms if not g.c2]
        if len(rough) == 1 and rough[0][0] > 0:
            c, g = rough[0]
            child = chain_proximal(g, x)
            if child is UNSUPPORTED:
                return _chain_bridge(f, x)
            smooth_grad = np.zeros(f.dim)
            for ci, gi in f.terms:
                if gi.c2:
                    smooth_grad += ci * chain_gradient(gi, x).polytope.vertices[0]
            if child is ALL_SPACE or child.is_empty:
                return child
            return Polytope(c * child.vertices + smooth_grad, child.dim)
        return _chain_bridge(f, x)
    if isinstance(f, (MaxOf, MinOf, Product, Quotient)):
        return _chain_bridge(f, x)
    return f.proximal(x)


def count_polytopes(monkeypatch) -> list:
    """Record one entry per Polytope constructed from now on."""
    built = []
    init = Polytope.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Polytope, "__init__", counted)
    return built
