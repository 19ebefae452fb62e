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

Inside the tree, gradient sets travel as vertex rows, an array of shape
(k, dim): a sum adds its children's rows by broadcasting, a dilation scales
them, a max or min passes a single active child through and stacks rows at
a tie, and a smooth atom gives its one gradient row.  Max and min share
that rule, a min running it on negated values.  The public ``value``,
``gradient`` and ``proximal`` check the point once and build the one
``Polytope`` of the call at the root.
"""

from __future__ import annotations

import math
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
    _least_norm_point,
    _minkowski_rows,
    _point,
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


def _common_dim(children: Sequence[NsFunction], what: str) -> int:
    dims = {f.dim for f in children}
    if len(dims) != 1:
        raise DimensionMismatchError(f"{what} live in different dimensions")
    return dims.pop()


class NsFunction:
    """Base node of the expression tree.

    Structural flags (all sound, none complete):

    - ``smooth``: continuously differentiable everywhere it is evaluated.
    - ``c2``: twice continuously differentiable likewise.
    - ``regular``: right and generalized directional derivatives agree.
    - ``convex`` / ``affine`` / ``nonneg``: the usual meanings.

    Nodes implement ``_val(x)``, ``_rows(x) -> (rows, exact)`` and
    ``_prox(x) -> rows | ALL_SPACE | UNSUPPORTED`` on a point that is
    already checked.  A subclass that defines only the public ``value``,
    ``gradient`` (and ``proximal``) works as a node too: the row methods
    fall back to them.
    """

    dim: int
    smooth = False
    c2 = False
    regular = False
    convex = False
    affine = False
    nonneg = False
    name = ""

    def value(self, x) -> float:
        return self._val(self._check(x))

    def gradient(self, x) -> GradientResult:
        rows, exact = self._rows(self._check(x))
        return GradientResult(Polytope(rows, self.dim), exact=exact)

    def proximal(self, x):
        """A Polytope (possibly empty), ALL_SPACE or UNSUPPORTED."""
        x = self._check(x)
        if type(self).proximal is NsFunction.proximal:
            p = self._prox(x)
        else:  # reached through super() from an override: the default entry
            p = self._convex_bridge(x)
        return p if p is UNSUPPORTED or p is ALL_SPACE else Polytope(p, self.dim)

    def __call__(self, x) -> float:
        return self.value(x)

    def _check(self, x) -> np.ndarray:
        return _point(x, self.dim, f"{self.name or type(self).__name__}: point")

    def _val(self, x: np.ndarray) -> float:
        if type(self).value is NsFunction.value:
            raise NotImplementedError(f"{type(self).__name__} defines no value")
        return self.value(x)

    def _rows(self, x: np.ndarray) -> tuple[np.ndarray, bool]:
        if type(self).gradient is NsFunction.gradient:
            raise NotImplementedError(f"{type(self).__name__} defines no gradient")
        gr = self.gradient(x)
        return gr.polytope.vertices, gr.exact

    def _prox(self, x: np.ndarray):
        if type(self).proximal is NsFunction.proximal:
            return self._convex_bridge(x)
        p = self.proximal(x)
        return p if p is UNSUPPORTED or p is ALL_SPACE else p.vertices

    def _convex_bridge(self, x: np.ndarray):
        """Default catalog entry: the exact gradient of a convex node, else
        unsupported."""
        if self.convex:
            rows, exact = self._rows(x)
            if exact:
                return rows
        return UNSUPPORTED


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

    def _val(self, x):
        return float(self._value(x))

    def _row(self, x) -> np.ndarray:
        g = np.asarray(self._grad(x), dtype=float)
        if g.shape != (self.dim,):
            raise DimensionMismatchError(
                f"{self.name}: gradient of shape {g.shape}, expected ({self.dim},)")
        return g.reshape(1, self.dim)

    def _rows(self, x):
        return self._row(x), True

    def _prox(self, x):
        if self.c2 or self.convex:
            return self._row(x)
        return UNSUPPORTED


def affine_atom(a, b: float = 0.0, name: str = "") -> SmoothAtom:
    a = np.asarray(a, dtype=float)
    return SmoothAtom(
        a.shape[0],
        lambda x: float(a.dot(x)) + b,
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

    def _val(self, x):
        return self.s * self.f._val(x)

    def _rows(self, x):
        rows, exact = self.f._rows(x)
        return self.s * rows, exact

    def _prox(self, x):
        if self.s > 0:
            child = self.f._prox(x)
            if child is UNSUPPORTED or child is ALL_SPACE:
                return child
            return self.s * child
        if self.s == 0:
            return np.zeros((1, self.dim))
        return self._convex_bridge(x)


class Sum(NsFunction):
    """Weighted sum of subtrees: sum_i c_i f_i."""

    def __init__(self, terms: Sequence[tuple[float, NsFunction]], name: str = ""):
        terms = [(float(c), f) for c, f in terms]
        if not terms:
            raise ValueError("sum needs at least one term")
        fs = [f for _, f in terms]
        self.dim = _common_dim(fs, "sum terms")
        self.terms = terms
        cs = [c for c, _ in terms]
        self.smooth = all(f.smooth for f in fs)
        self.c2 = all(f.c2 for f in fs)
        self.regular = self.smooth or (all(f.regular for f in fs) and all(c >= 0 for c in cs))
        self.affine = all(f.affine for f in fs)
        self.convex = all(f.affine or (f.convex and c >= 0) for c, f in terms)
        self.nonneg = all(f.nonneg and c >= 0 for c, f in terms)
        self.name = name or " + ".join(f"{c}*{f.name}" for c, f in terms)

    def _val(self, x):
        return sum(c * f._val(x) for c, f in self.terms)

    def _rows(self, x):
        acc = np.zeros((1, self.dim))  # 0 + c * rows, so a -0.0 entry reads 0.0
        exact = self.regular  # smooth, or regular terms with c >= 0
        for c, f in self.terms:
            rows, child_exact = f._rows(x)
            exact = exact and child_exact
            acc = _minkowski_rows(acc, c * rows)
        return acc, exact

    def _prox(self, x):
        if self.c2:
            return self._rows(x)[0]
        rough = [(c, f) for c, f in self.terms if not f.c2]
        if len(rough) == 1:
            c, f = rough[0]
            if c > 0:
                child = f._prox(x)
                if child is UNSUPPORTED:
                    return self._convex_bridge(x)
                smooth_grad = np.zeros(self.dim)
                for ci, fi in self.terms:
                    if fi.c2:
                        smooth_grad += ci * fi._rows(x)[0][0]
                if child is ALL_SPACE or child.shape[0] == 0:
                    return child
                return c * child + smooth_grad
        return self._convex_bridge(x)


class Product(NsFunction):
    def __init__(self, f1: NsFunction, f2: NsFunction):
        self.dim = _common_dim((f1, f2), "product terms")
        self.f1, self.f2 = f1, f2
        self.smooth = f1.smooth and f2.smooth
        self.c2 = f1.c2 and f2.c2
        self.regular = self.smooth or (
            f1.regular and f2.regular and f1.nonneg and f2.nonneg
        )
        self.nonneg = f1.nonneg and f2.nonneg
        self.name = f"({f1.name})*({f2.name})"

    def _val(self, x):
        return self.f1._val(x) * self.f2._val(x)

    def _rows(self, x):
        v1, v2 = self.f1._val(x), self.f2._val(x)
        (g1, e1), (g2, e2) = self.f1._rows(x), self.f2._rows(x)
        exact = e1 and e2 and (
            self.smooth
            or (self.f1.regular and self.f2.regular and v1 >= 0 and v2 >= 0)
        )
        return _minkowski_rows(v2 * g1, v1 * g2), exact


class Quotient(NsFunction):
    def __init__(self, f1: NsFunction, f2: NsFunction):
        self.dim = _common_dim((f1, f2), "quotient terms")
        self.f1, self.f2 = f1, f2
        self.smooth = f1.smooth and f2.smooth
        self.c2 = f1.c2 and f2.c2
        self.regular = False
        self.name = f"({f1.name})/({f2.name})"

    def _denominator(self, x) -> float:
        v2 = self.f2._val(x)
        if abs(v2) <= 1e-12:
            raise SingularityError(f"denominator of {self.name} vanishes at {np.asarray(x).tolist()}")
        return v2

    def _val(self, x):
        return self.f1._val(x) / self._denominator(x)

    def _rows(self, x):
        v2 = self._denominator(x)
        v1 = self.f1._val(x)
        (g1, e1), (g2, e2) = self.f1._rows(x), self.f2._rows(x)
        exact = e1 and e2 and (
            self.smooth
            or (self.f1.regular and self.f2.smooth and v1 >= 0 and v2 > 0)
        )
        return _minkowski_rows((1.0 / v2) * g1, (-v1 / (v2 * v2)) * g2), exact


class _Extremum(NsFunction):
    """Max of the children, or min where ``_tops`` negates their values
    (exactly, so -v >= -bottom - tol and v <= bottom + tol agree).  A tie is
    exact only when every active child carries ``_tie_flag``."""

    _word = "max"
    _tie_flag = "regular"

    def __init__(self, children: Sequence[NsFunction], name: str = ""):
        children = list(children)
        if not children:
            raise ValueError(f"{self._word} needs at least one child")
        self.dim = _common_dim(children, f"{self._word} children")
        self.children = children
        self.name = name or f"{self._word}(" + ", ".join(f.name for f in children) + ")"

    def _tops(self, x) -> list[float]:
        return [f._val(x) for f in self.children]

    def _val(self, x):
        return max(self._tops(x))

    def _rows(self, x):
        vals = self._tops(x)
        top = max(vals)
        tol = tie_tolerance(top)
        active = [i for i, v in enumerate(vals) if v >= top - tol]
        if not active:  # only when a child's value is NaN
            raise ModelError(f"no active child of {self.name} at {np.asarray(x).tolist()}")
        if len(active) == 1:
            return self.children[active[0]]._rows(x)
        results = [self.children[i]._rows(x) for i in active]
        exact = all(e for _, e in results) and all(
            getattr(self.children[i], self._tie_flag) for i in active)
        return np.vstack([rows for rows, _ in results]), exact


class MaxOf(_Extremum):
    """Pointwise maximum; the gradient is the hull over the active children."""

    def __init__(self, children: Sequence[NsFunction], name: str = ""):
        super().__init__(children, name)
        self.regular = all(f.regular for f in self.children)
        self.convex = all(f.convex for f in self.children)
        self.nonneg = any(f.nonneg for f in self.children)


class MinOf(_Extremum):
    """Pointwise minimum.  Equality in the gradient rule needs the negatives
    of the active children to be regular; smooth children qualify."""

    _word = "min"
    _tie_flag = "smooth"

    def __init__(self, children: Sequence[NsFunction], name: str = ""):
        super().__init__(children, name)
        self.nonneg = all(f.nonneg for f in self.children)

    def _tops(self, x) -> list[float]:
        return [-f._val(x) for f in self.children]

    def _val(self, x):
        return -max(self._tops(x))


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

    def _val(self, x):
        return -abs(float(x[0]))

    def _rows(self, x):
        t = float(x[0])
        if abs(t) <= tie_tolerance(0.0):
            return np.array([[-1.0], [1.0]]), True
        return np.array([[-np.sign(t)]]), True

    def _prox(self, x):
        rows = self._rows(x)[0]  # two rows at the kink, where the set is empty
        return rows if rows.shape[0] == 1 else np.zeros((0, 1))


class SqrtAbs(NsFunction):
    """sqrt(|x|) on R: not locally Lipschitz at 0, where the proximal
    subdifferential is the whole line."""

    dim = 1
    name = "sqrt|x|"

    def _val(self, x):
        return float(np.sqrt(abs(x[0])))

    def _rows(self, x):
        t = float(x[0])
        if abs(t) <= 1e-12:
            raise UnsupportedError("sqrt|x| is not locally Lipschitz at 0")
        return np.array([[np.sign(t) * 0.5 / np.sqrt(abs(t))]]), True

    def _prox(self, x):
        if abs(float(x[0])) <= 1e-12:
            return ALL_SPACE
        return self._rows(x)[0]


class CartLyapunov(NsFunction):
    """(x1^2 + x2^2) / (sqrt(x1^2 + x2^2) + |x1|), with 0 at the origin.

    Twice continuously differentiable on each open half-plane; on the
    dividing line the proximal subdifferential is empty.
    """

    dim = 2
    name = "cart_lyapunov"
    nonneg = True

    def _val(self, x):
        s = float(np.hypot(x[0], x[1]))
        if s == 0.0:
            return 0.0
        return s * s / (s + abs(x[0]))

    def _smooth_grad(self, x) -> np.ndarray:
        s = float(np.hypot(x[0], x[1]))
        a = abs(x[0])
        z1 = np.sign(x[0]) * (2 * a - s) / (s + a)
        z2 = x[1] * (s + 2 * a) / (s + a) ** 2
        return np.array([[z1, z2]])

    def _rows(self, x):
        if abs(x[0]) > 1e-12:
            return self._smooth_grad(x), True
        if abs(x[1]) > 1e-12:
            sg = np.sign(x[1])
            return np.array([[-1.0, sg], [1.0, sg]]), True
        # Outer bound at the origin only.
        return np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]), False

    def _prox(self, x):
        if abs(x[0]) > 1e-12:
            return self._smooth_grad(x)
        return np.zeros((0, 2))


# ---------------------------------------------------------------------------
# Free operations on the gradient machinery.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DescentDirection:
    direction: np.ndarray
    critical: bool


def descent_direction(f: NsFunction, x) -> DescentDirection:
    """-LN(gradient set), or the zero vector with the critical flag raised.

    Requires a regular function and an exact gradient; anything weaker
    cannot certify descent.
    """
    rows, exact = f._rows(f._check(x))
    if not f.regular or not exact:
        raise UnsupportedError("descent direction needs a regular function with exact gradient")
    # The norm of the least-norm point is the distance from 0 to the hull.
    ln = _least_norm_point(rows)
    if float(np.linalg.norm(ln)) <= MEMBERSHIP_TOL:
        return DescentDirection(np.zeros(f.dim), critical=True)
    return DescentDirection(-ln, critical=False)


@dataclass(frozen=True)
class DescentCheck:
    ok: bool
    witness_t: float | None = None


def descent_inequality_check(f: NsFunction, x, steps) -> DescentCheck:
    """Check f(x - t*LN) <= f(x) - (t/2)*||LN||^2 at each supplied step."""
    steps = [float(t) for t in steps]
    if not all(0 < t < np.inf for t in steps):  # a NaN step passed every check
        raise ValueError(f"steps must be finite and positive, got {steps}")
    x = f._check(x)
    ln = _least_norm_point(f._rows(x)[0])
    if float(np.linalg.norm(ln)) <= MEMBERSHIP_TOL:
        raise ValueError("descent inequality is only defined at noncritical points")
    fx = f._val(x)
    nn = float(ln.dot(ln))
    for t in steps:
        if f._val(x - t * ln) > fx - 0.5 * t * nn + 1e-12:
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
    return Q.boundary_distance(_point(p, 2))


def smq_gradient(Q: ConvexPolygon, p) -> Polytope:
    """Hull of the inward unit normals of the edges nearest to p."""
    p = _point(p, 2)
    dists = np.linalg.norm(Q.edge_offsets(p)[0], axis=1)
    low = float(dists.min())
    return Polytope(Q.inward_normals[dists <= low + tie_tolerance(low)])


def neg_smq_function(Q: ConvexPolygon) -> MaxOf:
    """-sm_Q as a max of affine edge-offset functions (convex, regular).

    Uses perpendicular distances to the edge lines, which agree with the
    boundary distance on the polygon itself.
    """
    atoms = [affine_atom(-n, float(c), name=f"-edge{i}")
             for i, (n, c) in enumerate(zip(Q.inward_normals, Q.line_offsets))]
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
        lambda p: 0.5 * float(p.dot(L).dot(p)),
        lambda p: L.dot(p),
        c2=True,
        convex=True,
        nonneg=True,
        name="disagreement",
    )


def hsp(Q: ConvexPolygon, points) -> float:
    """Largest common radius of non-overlapping disks centred at the points
    and contained in the polygon: min over half pairwise distances and
    point-to-edge distances."""
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        raise ValueError("hsp needs at least one point")
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DimensionMismatchError(f"hsp points have shape {pts.shape}, not (n, 2)")
    if not all(map(math.isfinite, pts.ravel().tolist())):  # cheaper than np.isfinite on a few points
        raise ModelError(f"hsp points must be finite, got {pts.tolist()}")
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
    for i in range(n):
        for e, (normal, c) in enumerate(zip(Q.inward_normals, Q.line_offsets)):
            coeff = np.zeros(2 * n)
            coeff[2 * i : 2 * i + 2] = normal
            children.append(affine_atom(coeff, -float(c), name=f"p{i + 1}-edge{e}"))
    return MinOf(children, name="packing_radius")


# ---------------------------------------------------------------------------
# Named catalog used by the CLI and the scenario builders.
# ---------------------------------------------------------------------------


def make_function(name: str, dim: int | None = None) -> NsFunction:
    """Build a catalog function by name.

    ``dim`` is needed for size-generic entries (abs_sum, disagreement on the
    path graph, hsp) and must be at least 1 when given; the polygon entries
    use the unit square.
    """
    poly = ConvexPolygon.square(1.0)
    if dim is not None and dim < 1:
        raise ValueError(f"{name} needs a dimension of at least 1, got {dim}")
    if name == "abs":
        return abs_of(coordinate_atom(0, 1), name="|x|")
    if name == "neg_abs":
        return NegAbs()
    if name == "sqrt_abs":
        return SqrtAbs()
    if name == "abs_sum":
        d = 2 if dim is None else dim
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
