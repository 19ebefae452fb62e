"""A closed class of nonsmooth functions with computable gradient sets.

Functions are expression trees over smooth atoms, closed under scalar
dilation, sums, products, quotients, max, min, and absolute value.  Each
node carries structural flags (smooth, twice differentiable, regular,
convex, affine, nonnegative) that are set only through sufficient
conditions, so a raised flag is always sound.

``gradient`` returns the generalized gradient as a polytope together with
an exactness bit: the bit is set only when every calculus rule applied on
the evaluation path carried its equality conditions.  ``proximal`` returns
the proximal subdifferential from a closed-form catalog (twice
differentiable nodes, convex nodes, positive dilations, sums with a twice
differentiable term, and a few special one-dimensional shapes); everything
else reports the unsupported sentinel rather than an outer bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    ModelError,
    SingularityError,
    UnsupportedError,
)
from .geometry import (
    MEMBERSHIP_TOL,
    ConvexPolygon,
    Polytope,
    least_norm,
    minkowski_sum,
)


class _AllSpace:
    """Sentinel: the proximal subdifferential is all of R^d."""

    def __repr__(self):
        return "AllSpace"


class _Unsupported:
    """Sentinel: no closed form for the proximal subdifferential here."""

    def __repr__(self):
        return "Unsupported"


ALL_SPACE = _AllSpace()
UNSUPPORTED = _Unsupported()


@dataclass(frozen=True)
class GradientResult:
    polytope: Polytope
    exact: bool


def tie_tolerance(reference: float) -> float:
    """Tolerance band for deciding active sets of max/min nodes."""
    return 1e-9 * (1.0 + abs(reference))


class NsFunction:
    """Base node of the expression tree.

    Structural flags (all sound, none complete):

    - ``smooth``: continuously differentiable everywhere it is evaluated.
    - ``c2``: twice continuously differentiable likewise.
    - ``regular``: right and generalized directional derivatives agree.
    - ``convex`` / ``affine`` / ``nonneg``: the usual meanings.
    """

    dim: int
    smooth = False
    c2 = False
    regular = False
    convex = False
    affine = False
    nonneg = False
    name = ""

    def value(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def gradient(self, x: np.ndarray) -> GradientResult:
        raise NotImplementedError

    def proximal(self, x: np.ndarray):
        """Default catalog entry: the convex bridge, else unsupported."""
        if self.convex:
            gr = self.gradient(x)
            if gr.exact:
                return gr.polytope
        return UNSUPPORTED

    def __call__(self, x) -> float:
        return self.value(np.asarray(x, dtype=float))

    def _check(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float).ravel()
        if x.shape[0] != self.dim:
            raise DimensionMismatchError(
                f"{self.name or type(self).__name__}: point has dimension "
                f"{x.shape[0]}, expected {self.dim}"
            )
        return x


class SmoothAtom(NsFunction):
    """Continuously differentiable leaf with an analytic gradient."""

    def __init__(self, dim, value_fn, grad_fn, *, c2=True, convex=False,
                 affine=False, nonneg=False, name=""):
        self.dim = dim
        self._value = value_fn
        self._grad = grad_fn
        self.smooth = True
        self.c2 = c2
        self.regular = True
        self.convex = convex or affine
        self.affine = affine
        self.nonneg = nonneg
        self.name = name

    def value(self, x):
        return float(self._value(self._check(x)))

    def gradient(self, x):
        x = self._check(x)
        return GradientResult(Polytope([np.asarray(self._grad(x), dtype=float)]), exact=True)

    def proximal(self, x):
        x = self._check(x)
        if self.c2 or self.convex:
            return Polytope([np.asarray(self._grad(x), dtype=float)])
        return UNSUPPORTED


def affine_atom(a, b: float = 0.0, name: str = "") -> SmoothAtom:
    a = np.asarray(a, dtype=float)
    return SmoothAtom(
        a.shape[0],
        lambda x: float(a @ x) + b,
        lambda x: a.copy(),
        c2=True,
        affine=True,
        name=name or "affine",
    )


def coordinate_atom(index: int, dim: int) -> SmoothAtom:
    a = np.zeros(dim)
    a[index] = 1.0
    return affine_atom(a, 0.0, name=f"x{index + 1}")


def half_square_atom(index: int, dim: int) -> SmoothAtom:
    """x -> x_i^2 / 2."""

    def grad(x):
        g = np.zeros(dim)
        g[index] = x[index]
        return g

    return SmoothAtom(
        dim,
        lambda x: 0.5 * x[index] ** 2,
        grad,
        c2=True,
        convex=True,
        nonneg=True,
        name=f"x{index + 1}^2/2",
    )


class Dilation(NsFunction):
    """s * f.  The gradient rule is an equality for every real s."""

    def __init__(self, s: float, f: NsFunction):
        self.s = float(s)
        self.f = f
        self.dim = f.dim
        self.smooth = f.smooth
        self.c2 = f.c2
        self.regular = f.smooth or (f.regular and self.s >= 0)
        self.affine = f.affine
        self.convex = f.affine or (f.convex and self.s >= 0)
        self.nonneg = f.nonneg and self.s >= 0
        self.name = f"{s}*{f.name}"

    def value(self, x):
        return self.s * self.f.value(x)

    def gradient(self, x):
        child = self.f.gradient(x)
        return GradientResult(child.polytope.scaled(self.s), exact=child.exact)

    def proximal(self, x):
        if self.s > 0:
            child = self.f.proximal(x)
            if child is UNSUPPORTED or child is ALL_SPACE:
                return child
            return child.scaled(self.s)
        if self.s == 0:
            return Polytope([np.zeros(self.dim)])
        return super().proximal(x)


class Sum(NsFunction):
    """Weighted sum of subtrees: sum_i c_i f_i."""

    def __init__(self, terms: Sequence[tuple[float, NsFunction]], name: str = ""):
        terms = [(float(c), f) for c, f in terms]
        if not terms:
            raise ValueError("sum needs at least one term")
        dims = {f.dim for _, f in terms}
        if len(dims) != 1:
            raise DimensionMismatchError("sum terms live in different dimensions")
        self.terms = terms
        self.dim = dims.pop()
        fs = [f for _, f in terms]
        cs = [c for c, _ in terms]
        self.smooth = all(f.smooth for f in fs)
        self.c2 = all(f.c2 for f in fs)
        self.regular = self.smooth or (all(f.regular for f in fs) and all(c >= 0 for c in cs))
        self.affine = all(f.affine for f in fs)
        self.convex = all(f.affine or (f.convex and c >= 0) for c, f in terms)
        self.nonneg = all(f.nonneg and c >= 0 for c, f in terms)
        self.name = name or " + ".join(f"{c}*{f.name}" for c, f in terms)

    def value(self, x):
        return sum(c * f.value(x) for c, f in self.terms)

    def gradient(self, x):
        acc = Polytope([np.zeros(self.dim)])
        exact = self.smooth or (
            all(f.regular for _, f in self.terms)
            and all(c >= 0 for c, _ in self.terms)
        )
        for c, f in self.terms:
            child = f.gradient(x)
            exact = exact and child.exact
            acc = minkowski_sum(acc, child.polytope.scaled(c))
        return GradientResult(acc, exact=exact)

    def proximal(self, x):
        if self.c2:
            return self.gradient(x).polytope
        rough = [(c, f) for c, f in self.terms if not f.c2]
        if len(rough) == 1:
            c, f = rough[0]
            if c > 0:
                child = f.proximal(x)
                if child is UNSUPPORTED:
                    return super().proximal(x)
                smooth_grad = np.zeros(self.dim)
                for ci, fi in self.terms:
                    if fi.c2:
                        smooth_grad += ci * fi.gradient(x).polytope.vertices[0]
                if child is ALL_SPACE:
                    return ALL_SPACE
                if child.is_empty:
                    return child
                return child.scaled(c).translated(smooth_grad)
        return super().proximal(x)


class Product(NsFunction):
    def __init__(self, f1: NsFunction, f2: NsFunction):
        if f1.dim != f2.dim:
            raise DimensionMismatchError("product terms live in different dimensions")
        self.f1, self.f2 = f1, f2
        self.dim = f1.dim
        self.smooth = f1.smooth and f2.smooth
        self.c2 = f1.c2 and f2.c2
        self.regular = self.smooth or (
            f1.regular and f2.regular and f1.nonneg and f2.nonneg
        )
        self.nonneg = f1.nonneg and f2.nonneg
        self.name = f"({f1.name})*({f2.name})"

    def value(self, x):
        return self.f1.value(x) * self.f2.value(x)

    def gradient(self, x):
        v1, v2 = self.f1.value(x), self.f2.value(x)
        g1, g2 = self.f1.gradient(x), self.f2.gradient(x)
        poly = minkowski_sum(g1.polytope.scaled(v2), g2.polytope.scaled(v1))
        exact = g1.exact and g2.exact and (
            self.smooth
            or (self.f1.regular and self.f2.regular and v1 >= 0 and v2 >= 0)
        )
        return GradientResult(poly, exact=exact)


class Quotient(NsFunction):
    def __init__(self, f1: NsFunction, f2: NsFunction):
        if f1.dim != f2.dim:
            raise DimensionMismatchError("quotient terms live in different dimensions")
        self.f1, self.f2 = f1, f2
        self.dim = f1.dim
        self.smooth = f1.smooth and f2.smooth
        self.c2 = f1.c2 and f2.c2
        self.regular = False
        self.name = f"({f1.name})/({f2.name})"

    def _denominator(self, x) -> float:
        v2 = self.f2.value(x)
        if abs(v2) <= 1e-12:
            raise SingularityError(f"denominator of {self.name} vanishes at {np.asarray(x).tolist()}")
        return v2

    def value(self, x):
        return self.f1.value(x) / self._denominator(x)

    def gradient(self, x):
        v2 = self._denominator(x)
        v1 = self.f1.value(x)
        g1, g2 = self.f1.gradient(x), self.f2.gradient(x)
        poly = minkowski_sum(
            g1.polytope.scaled(1.0 / v2), g2.polytope.scaled(-v1 / (v2 * v2))
        )
        exact = g1.exact and g2.exact and (
            self.smooth
            or (self.f1.regular and self.f2.smooth and v1 >= 0 and v2 > 0)
        )
        return GradientResult(poly, exact=exact)


def _require_active(f: NsFunction, x, active: list[int]) -> list[int]:
    """The active children of a max or min; none are active only when a
    child's value is NaN."""
    if not active:
        raise ModelError(f"no active child of {f.name} at {np.asarray(x).tolist()}")
    return active


class MaxOf(NsFunction):
    """Pointwise maximum; the gradient is the hull over the active children."""

    def __init__(self, children: Sequence[NsFunction], name: str = ""):
        children = list(children)
        if not children:
            raise ValueError("max needs at least one child")
        dims = {f.dim for f in children}
        if len(dims) != 1:
            raise DimensionMismatchError("max children live in different dimensions")
        self.children = children
        self.dim = dims.pop()
        self.regular = all(f.regular for f in children)
        self.convex = all(f.convex for f in children)
        self.nonneg = any(f.nonneg for f in children)
        self.name = name or "max(" + ", ".join(f.name for f in children) + ")"

    def _active(self, x):
        vals = [f.value(x) for f in self.children]
        top = max(vals)
        tol = tie_tolerance(top)
        return _require_active(self, x, [i for i, v in enumerate(vals) if v >= top - tol])

    def value(self, x):
        return max(f.value(x) for f in self.children)

    def gradient(self, x):
        active = self._active(x)
        results = [self.children[i].gradient(x) for i in active]
        verts = np.vstack([r.polytope.vertices for r in results])
        exact = all(r.exact for r in results)
        if len(active) > 1:
            exact = exact and all(self.children[i].regular for i in active)
        return GradientResult(Polytope(verts), exact=exact)


class MinOf(NsFunction):
    """Pointwise minimum.  Equality in the gradient rule needs the negatives
    of the active children to be regular; smooth children qualify."""

    def __init__(self, children: Sequence[NsFunction], name: str = ""):
        children = list(children)
        if not children:
            raise ValueError("min needs at least one child")
        dims = {f.dim for f in children}
        if len(dims) != 1:
            raise DimensionMismatchError("min children live in different dimensions")
        self.children = children
        self.dim = dims.pop()
        self.nonneg = all(f.nonneg for f in children)
        self.name = name or "min(" + ", ".join(f.name for f in children) + ")"

    def _active(self, x):
        vals = [f.value(x) for f in self.children]
        bottom = min(vals)
        tol = tie_tolerance(bottom)
        return _require_active(self, x, [i for i, v in enumerate(vals) if v <= bottom + tol])

    def value(self, x):
        return min(f.value(x) for f in self.children)

    def gradient(self, x):
        active = self._active(x)
        results = [self.children[i].gradient(x) for i in active]
        verts = np.vstack([r.polytope.vertices for r in results])
        exact = all(r.exact for r in results)
        if len(active) > 1:
            exact = exact and all(self.children[i].smooth for i in active)
        return GradientResult(Polytope(verts), exact=exact)


def abs_of(f: NsFunction, name: str = "") -> MaxOf:
    """|f| represented as max(f, -f)."""
    return MaxOf([f, Dilation(-1.0, f)], name=name or f"|{f.name}|")


# ---------------------------------------------------------------------------
# Special one-dimensional shapes with closed-form proximal subdifferentials.
# ---------------------------------------------------------------------------


class NegAbs(NsFunction):
    """-|x| on R: the standard example of an empty proximal subdifferential."""

    dim = 1
    name = "-|x|"

    def value(self, x):
        return -abs(float(self._check(x)[0]))

    def gradient(self, x):
        t = float(self._check(x)[0])
        if abs(t) <= tie_tolerance(0.0):
            return GradientResult(Polytope.interval(-1.0, 1.0), exact=True)
        return GradientResult(Polytope([[-np.sign(t)]]), exact=True)

    def proximal(self, x):
        t = float(self._check(x)[0])
        if abs(t) <= tie_tolerance(0.0):
            return Polytope.empty(1)
        return Polytope([[-np.sign(t)]])


class SqrtAbs(NsFunction):
    """sqrt(|x|) on R: not locally Lipschitz at 0, where the proximal
    subdifferential is the whole line."""

    dim = 1
    name = "sqrt|x|"

    def value(self, x):
        return float(np.sqrt(abs(self._check(x)[0])))

    def gradient(self, x):
        t = float(self._check(x)[0])
        if abs(t) <= 1e-12:
            raise UnsupportedError("sqrt|x| is not locally Lipschitz at 0")
        return GradientResult(
            Polytope([[np.sign(t) * 0.5 / np.sqrt(abs(t))]]), exact=True
        )

    def proximal(self, x):
        t = float(self._check(x)[0])
        if abs(t) <= 1e-12:
            return ALL_SPACE
        return Polytope([[np.sign(t) * 0.5 / np.sqrt(abs(t))]])


class CartLyapunov(NsFunction):
    """(x1^2 + x2^2) / (sqrt(x1^2 + x2^2) + |x1|), with 0 at the origin.

    Twice continuously differentiable on each open half-plane; on the
    dividing line the proximal subdifferential is empty.
    """

    dim = 2
    name = "cart_lyapunov"
    nonneg = True

    def value(self, x):
        x = self._check(x)
        s = float(np.hypot(x[0], x[1]))
        if s == 0.0:
            return 0.0
        return s * s / (s + abs(x[0]))

    def _smooth_grad(self, x) -> np.ndarray:
        s = float(np.hypot(x[0], x[1]))
        a = abs(x[0])
        z1 = np.sign(x[0]) * (2 * a - s) / (s + a)
        z2 = x[1] * (s + 2 * a) / (s + a) ** 2
        return np.array([z1, z2])

    def gradient(self, x):
        x = self._check(x)
        if abs(x[0]) > 1e-12:
            return GradientResult(Polytope([self._smooth_grad(x)]), exact=True)
        if abs(x[1]) > 1e-12:
            sg = np.sign(x[1])
            return GradientResult(Polytope([[-1.0, sg], [1.0, sg]]), exact=True)
        # Outer bound at the origin only.
        return GradientResult(
            Polytope([[-1, -1], [1, -1], [1, 1], [-1, 1]]), exact=False
        )

    def proximal(self, x):
        x = self._check(x)
        if abs(x[0]) > 1e-12:
            return Polytope([self._smooth_grad(x)])
        return Polytope.empty(2)


# ---------------------------------------------------------------------------
# Free operations on the gradient machinery.
# ---------------------------------------------------------------------------


def generalized_gradient(f: NsFunction, x) -> GradientResult:
    return f.gradient(np.asarray(x, dtype=float))


def proximal_subdifferential(f: NsFunction, x):
    return f.proximal(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class DescentDirection:
    direction: np.ndarray
    critical: bool


def descent_direction(f: NsFunction, x, tol: float = MEMBERSHIP_TOL) -> DescentDirection:
    """-LN(gradient set), or the zero vector with the critical flag raised.

    Requires a regular function and an exact gradient; anything weaker
    cannot certify descent.
    """
    gr = f.gradient(np.asarray(x, dtype=float))
    if not f.regular or not gr.exact:
        raise UnsupportedError("descent direction needs a regular function with exact gradient")
    # The norm of the least-norm point is the distance from 0 to the hull.
    ln = least_norm(gr.polytope).point
    if float(np.linalg.norm(ln)) <= tol:
        return DescentDirection(np.zeros(f.dim), critical=True)
    return DescentDirection(-ln, critical=False)


@dataclass(frozen=True)
class DescentCheck:
    ok: bool
    witness_t: float | None = None


def descent_inequality_check(f: NsFunction, x, steps) -> DescentCheck:
    """Check f(x - t*LN) <= f(x) - (t/2)*||LN||^2 at each supplied step."""
    x = np.asarray(x, dtype=float)
    ln = least_norm(f.gradient(x).polytope).point
    if float(np.linalg.norm(ln)) <= MEMBERSHIP_TOL:
        raise ValueError("descent inequality is only defined at noncritical points")
    fx = f.value(x)
    nn = float(ln @ ln)
    for t in steps:
        if f.value(x - t * ln) > fx - 0.5 * t * nn + 1e-12:
            return DescentCheck(False, witness_t=float(t))
    return DescentCheck(True)


# ---------------------------------------------------------------------------
# Boundary-distance function of a convex polygon and friends.
# ---------------------------------------------------------------------------


def smq(Q: ConvexPolygon, p) -> float:
    """Minimum distance from p to the polygon boundary, negated outside Q.

    Inside the polygon this is the radius of the largest inscribed disk
    centred at p.
    """
    return Q.boundary_distance(np.asarray(p, dtype=float))


def smq_gradient(Q: ConvexPolygon, p) -> Polytope:
    """Hull of the inward unit normals of the edges nearest to p."""
    dists = np.linalg.norm(Q.edge_offsets(p)[0], axis=1)
    low = float(dists.min())
    return Polytope(Q.inward_normals[dists <= low + tie_tolerance(low)])


def neg_smq_function(Q: ConvexPolygon) -> MaxOf:
    """-sm_Q as a max of affine edge-offset functions (convex, regular).

    Uses perpendicular distances to the edge lines, which agree with the
    boundary distance on the polygon itself.
    """
    offsets = (Q.inward_normals * Q.vertices).sum(axis=1)
    atoms = [affine_atom(-n, float(c), name=f"-edge{i}")
             for i, (n, c) in enumerate(zip(Q.inward_normals, offsets))]
    return MaxOf(atoms, name="-sm_Q")


def smq_function(Q: ConvexPolygon) -> Dilation:
    return Dilation(-1.0, neg_smq_function(Q))


# ---------------------------------------------------------------------------
# Graphs, disagreement, and packing radius.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen = set()
        for i, j in self.edges:
            if not (0 <= i < self.n and 0 <= j < self.n) or i == j:
                raise ValueError(f"bad edge ({i}, {j})")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValueError(f"duplicate edge ({i}, {j})")
            seen.add(key)

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls(n, tuple((i, i + 1) for i in range(n - 1)))

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))

    def laplacian(self) -> np.ndarray:
        L = np.zeros((self.n, self.n))
        for i, j in self.edges:
            L[i, i] += 1.0
            L[j, j] += 1.0
            L[i, j] -= 1.0
            L[j, i] -= 1.0
        return L

    def components(self) -> list[list[int]]:
        """Vertex lists of the connected components, in order of their
        smallest vertex."""
        adj = {i: [] for i in range(self.n)}
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        seen: set[int] = set()
        out = []
        for root in range(self.n):
            if root in seen:
                continue
            seen.add(root)
            comp, stack = [root], [root]
            while stack:
                for nb in adj[stack.pop()]:
                    if nb not in seen:
                        seen.add(nb)
                        comp.append(nb)
                        stack.append(nb)
            out.append(comp)
        return out

    def is_connected(self) -> bool:
        return len(self.components()) <= 1


def disagreement(G: Graph, p) -> float:
    """Half the sum of squared edge differences: the group disagreement."""
    p = np.asarray(p, dtype=float)
    return 0.5 * sum((p[j] - p[i]) ** 2 for i, j in G.edges)


def disagreement_function(G: Graph) -> SmoothAtom:
    L = G.laplacian()
    return SmoothAtom(
        G.n,
        lambda p: 0.5 * float(p @ L @ p),
        lambda p: L @ p,
        c2=True,
        convex=True,
        nonneg=True,
        name="disagreement",
    )


def hsp(Q: ConvexPolygon, points) -> float:
    """Largest common radius of non-overlapping disks centred at the points
    and contained in the polygon: min over half pairwise distances and
    point-to-edge distances."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] < 1:
        raise ValueError("hsp needs at least one point")
    i, j = np.triu_indices(pts.shape[0], 1)
    half = 0.5 * np.linalg.norm(pts[i] - pts[j], axis=1)
    edge = np.linalg.norm(Q.edge_offsets(pts), axis=2)
    return float(min(half.min(initial=np.inf), edge.min()))


def _half_pair_distance(n: int, i: int, j: int) -> SmoothAtom:
    """Half the distance between agents i and j of a stacked planar state;
    c2 away from coincidence, where the gradient raises."""

    def diff(x):
        return x[2 * i : 2 * i + 2] - x[2 * j : 2 * j + 2]

    def grad(x):
        d = diff(x)
        r = float(np.linalg.norm(d))
        if r <= 1e-12:
            raise UnsupportedError("pair distance is not smooth at coincident agents")
        g = np.zeros(2 * n)
        g[2 * i : 2 * i + 2] = 0.5 * d / r
        g[2 * j : 2 * j + 2] = -0.5 * d / r
        return g

    return SmoothAtom(2 * n, lambda x: 0.5 * float(np.linalg.norm(diff(x))), grad,
                      c2=True, convex=True, nonneg=True, name=f"|p{i + 1}-p{j + 1}|/2")


def hsp_function(Q: ConvexPolygon, n: int) -> MinOf:
    """Packing radius as a min node over pair and edge terms.

    Edge terms use perpendicular line distances, which agree with the
    segment distances for configurations inside the polygon.
    """
    children: list[NsFunction] = [
        _half_pair_distance(n, i, j) for i in range(n) for j in range(i + 1, n)
    ]
    offsets = (Q.inward_normals * Q.vertices).sum(axis=1)
    for i in range(n):
        for e, normal in enumerate(Q.inward_normals):
            coeff = np.zeros(2 * n)
            coeff[2 * i : 2 * i + 2] = normal
            children.append(affine_atom(coeff, -float(offsets[e]), name=f"p{i + 1}-edge{e}"))
    return MinOf(children, name="packing_radius")


# ---------------------------------------------------------------------------
# Named catalog used by the CLI and the scenario builders.
# ---------------------------------------------------------------------------


def make_function(name: str, dim: int | None = None) -> NsFunction:
    """Build a catalog function by name.

    ``dim`` is needed for size-generic entries (abs_sum, disagreement on the
    path graph, hsp); the polygon entries use the unit square.
    """
    poly = ConvexPolygon.square(1.0)
    if name == "abs":
        return abs_of(coordinate_atom(0, 1), name="|x|")
    if name == "neg_abs":
        return NegAbs()
    if name == "sqrt_abs":
        return SqrtAbs()
    if name == "abs_sum":
        d = dim or 2
        return Sum([(1.0, abs_of(coordinate_atom(i, d))) for i in range(d)], name="abs_sum")
    if name == "energy_oscillator":
        return Sum(
            [(1.0, abs_of(coordinate_atom(0, 2))), (1.0, half_square_atom(1, 2))],
            name="energy_oscillator",
        )
    if name == "smq":
        return smq_function(poly)
    if name == "neg_smq":
        return neg_smq_function(poly)
    if name == "disagreement":
        if dim is None:
            raise ValueError("disagreement needs a dimension")
        return disagreement_function(Graph.path(dim))
    if name == "cart_lyapunov":
        return CartLyapunov()
    if name == "hsp":
        if dim is None or dim % 2:
            raise ValueError("hsp needs an even dimension (stacked planar agents)")
        return hsp_function(poly, dim // 2)
    raise KeyError(f"unknown catalog function {name!r}")
