"""Piecewise-continuous vector fields and their set-valued convexifications.

A :class:`PiecewiseField` is a finite collection of smooth switching
functions ``g_1..g_m`` together with one smooth vector field per sign cell.
The convexified right-hand side at a point is the hull of the continuous
extensions of all adjacent cells; off the switching surfaces it collapses to
the single cell value.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from . import geometry
from .errors import (
    DegenerateSurfaceError,
    DimensionMismatchError,
    ModelError,
    NotSlidingError,
    UnsupportedError,
)
from .geometry import Polytope, vector_norm

SignVector = tuple[int, ...]
CellField = Callable[[np.ndarray], np.ndarray]

CONTINUITY = "continuity"
CROSSING = "crossing"
SLIDING = "sliding"
REPULSIVE = "repulsive"
TANGENT = "tangent"


@dataclass(frozen=True)
class SwitchingSurface:
    """Smooth scalar function with an analytic gradient; its zero set is one
    switching surface.  ``coefficients`` is (a, b) for the affine a . x + b."""

    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    name: str = ""
    coefficients: tuple[np.ndarray, float] | None = field(default=None, compare=False, repr=False)

    @classmethod
    def affine(cls, a, b: float = 0.0, name: str = "") -> "SwitchingSurface":
        a = np.asarray(a, dtype=float)
        if a.ndim != 1:  # a.dot(x) reads a 0-d a as a scale factor
            raise DimensionMismatchError(f"affine surface needs a vector a, got shape {a.shape}")
        return cls(
            value=lambda x: float(a.dot(x) + b),
            grad=lambda x: a.copy(),
            name=name or f"affine({a.tolist()},{b})",
            coefficients=(a, float(b)),
        )

    @classmethod
    def coordinate(cls, index: int, dim: int, name: str = "") -> "SwitchingSurface":
        if not 0 <= index < dim:
            raise DimensionMismatchError(f"coordinate switch index {index} outside 0..{dim - 1}")
        a = np.zeros(dim)
        a[index] = 1.0
        return cls.affine(a, 0.0, name=name or f"x{index + 1}")


# The activity band at the origin, and the floor of a switching gradient's norm.
_BAND_AT_ORIGIN = 1e-8


def default_active_tol(x: np.ndarray) -> float:
    """Surface-activity band; scales with the state so detection is stable."""
    return _BAND_AT_ORIGIN * (1.0 + vector_norm(np.asarray(x, dtype=float).ravel()))


def _active(g: float, tol: float) -> bool:
    """The one test of a point being on a surface: g within the band tol."""
    return abs(g) <= tol


class PiecewiseField:
    """Vector field that is smooth on each sign cell of the switching functions.

    ``cells`` maps sign vectors in {-1, +1}^m to callables x -> R^d, or is a
    rule ``sigma -> callable | None`` that returns None for an empty cell.
    Empty cells are simply not declared.  ``m = 0`` (no switches, one cell
    keyed by the empty tuple) models a globally smooth field.  ``cell`` is
    the one lookup, read by :meth:`adjacent_cells` and :meth:`_cell_fn`; an
    ``integrate`` step calls ``_cell_fn`` once, then steps a cell declared by
    :func:`affine_cell` by its exact RK4 map and calls any other callable
    once per RK4 stage.
    """

    def __init__(
        self,
        dim: int,
        switches: list[SwitchingSurface],
        cells: Mapping[SignVector, CellField] | Callable[[SignVector], CellField | None],
        name: str = "",
    ):
        self.dim = dim
        self.switches = list(switches)
        self.name = name
        if isinstance(cells, Mapping):
            m = len(self.switches)
            table = {tuple(k): v for k, v in cells.items()}
            for k in table:
                if len(k) != m or any(s not in (-1, 1) for s in k):
                    raise ModelError(f"bad sign vector {k} for {m} switching functions")
            if not table:
                raise ModelError("a piecewise field needs at least one declared cell")
            cells = table.get
        self.cell: Callable[[SignVector], CellField | None] = cells
        self._switch_matrix = None  # (G, offsets): G x + offsets, when every switch is affine
        coefficients = [s.coefficients for s in self.switches]
        if None not in coefficients:
            for i, (a, _) in enumerate(coefficients):
                if a.shape != (dim,):
                    raise DimensionMismatchError(f"switch {i} has shape {a.shape}, not ({dim},)")
            G, offsets = (np.array([a for a, _ in coefficients]).reshape(-1, dim),
                          np.array([b for _, b in coefficients]))
            self._switch_matrix = (G, offsets)
            # The rounding allowance of _clear_rows is scale (|a| (1 + |x|) + |b|).
            self._allowance = (4 * (dim + 1) * 2.0**-52, np.linalg.norm(G, axis=1),
                               np.abs(offsets))

    def _clear_rows(self, X: np.ndarray, face: np.ndarray, tol: float, floor) -> np.ndarray:
        """Whether each row x of X is finite and every switch value there, read
        by one product, lies as ``face`` says: on the side of its sign beyond
        twice the band at x (widened to tol) and ``floor``, or within tol where
        it is 0.  Each bound has 4 (d + 1) 2^-52 (|a| (1 + |x|) + |b|) to spare,
        four times any gap between this read and one of :meth:`_switch_list`."""
        G, offsets = self._switch_matrix
        scale, norms, abs_offsets = self._allowance
        norm = np.sqrt((X * X).sum(axis=1))[:, None]
        band = np.maximum(_BAND_AT_ORIGIN * (1.0 + norm), tol)
        gap = scale * (norms * (1.0 + norm) + abs_offsets)
        V = X.dot(G.T) + offsets
        side = V * face > np.maximum(2.0 * band, floor) + gap
        if not face.all():
            side = np.where(face == 0, np.abs(V) <= tol - gap, side)
        return np.isfinite(norm[:, 0]) & (side & np.isfinite(V)).all(axis=1)

    def _switch_list(self, x: np.ndarray) -> list[float]:
        """Every switching function at x; a non-finite value raises ModelError
        naming its surface, since no sign or activity can be read from it."""
        g = [s.value(x) for s in self.switches]
        if not all(map(math.isfinite, g)):  # cheaper than np.isfinite on a few values
            i = next(i for i, v in enumerate(g) if not math.isfinite(v))
            raise ModelError(f"switching function {self.switches[i].name or i} is "
                             f"{g[i]} at x={np.asarray(x).tolist()}")
        return g

    def switch_values(self, x: np.ndarray) -> np.ndarray:
        """Every switching function at x (see :meth:`_switch_list`)."""
        return np.array(self._switch_list(x))

    def sign_vector(self, x: np.ndarray) -> SignVector:
        """Signs of the switch values at x, 0 on the surfaces x lies on."""
        tol = default_active_tol(x)
        return tuple(0 if _active(v, tol) else (1 if v > 0 else -1)
                     for v in self._switch_list(x))

    def _cell_fn(self, sigma: SignVector) -> CellField:
        """The callable of declared cell sigma; ModelError if it is not declared."""
        fn = self.cell(tuple(sigma))
        if fn is None:
            raise ModelError(f"no declared cell for sign vector {sigma}")
        return fn

    def cell_value(self, sigma: SignVector, x: np.ndarray) -> np.ndarray:
        return np.asarray(self._cell_fn(sigma)(np.asarray(x, dtype=float)), dtype=float)

    def adjacent_cells(self, sigma: SignVector) -> list[SignVector]:
        """Declared cells that border the face ``sigma`` (0 on the active
        surfaces): its completions by -1/+1 in lexicographic order."""
        if 0 not in sigma:  # off every surface: the cell itself, if declared
            sigma = tuple(sigma)
            return [sigma] if self.cell(sigma) is not None else []
        sides = [(-1, 1) if s == 0 else (s,) for s in sigma]
        return [c for c in itertools.product(*sides) if self.cell(c) is not None]

    def value(self, x: np.ndarray) -> np.ndarray:
        """One-sided field value at x using the strict sign vector.

        Raises ModelError on a switching surface (no unique cell there).
        """
        sigma = self.sign_vector(x)
        if any(s == 0 for s in sigma):
            raise ModelError("field value queried on a switching surface")
        return self.cell_value(sigma, x)


class AffineField:
    """The field x -> A x + c of a declared cell, with A None for a constant
    cell, and the RK4 step map of the last step size asked for."""

    def __init__(self, A: np.ndarray | None, c: np.ndarray):
        self.A, self.c = A, c
        self._h, self._map = None, None

    def step_map(self, h: float) -> tuple[np.ndarray, np.ndarray]:
        """(M, k) with one RK4 step of size h from x equal to M x + k: with
        Z = hA and T = I + Z/2 + Z^2/6 + Z^3/24, M = I + T Z and k = h T c.
        One entry is kept, so the cache never grows."""
        if h != self._h:
            eye = np.eye(self.c.shape[0])
            Z = h * self.A
            T = eye + Z.dot(eye / 2.0 + Z.dot(eye / 6.0 + Z / 24.0))
            self._h, self._map = h, (eye + T.dot(Z), h * T.dot(self.c))
        return self._map


def affine_cell(A, c, fn: CellField | None = None) -> CellField:
    """Declare the cell field x -> A x + c (a constant c when A is None).
    Returns ``fn``, by default ``A.dot(x) + c`` or a copy of c, carrying
    ``.affine``, an :class:`AffineField`; ``fn`` must be a Python function
    and compute that same field, since queries at a point call it while
    integration steps by the declared map."""
    c = np.asarray(c, dtype=float)
    if A is not None:
        A = np.atleast_2d(np.asarray(A, dtype=float))
        if c.ndim != 1 or A.shape != (c.shape[0],) * 2:
            raise ModelError(f"affine cell needs a vector c and a square A of its length, "
                             f"got shapes {A.shape} and {c.shape}")
    if fn is None and A is None:
        fn = lambda x: c.copy()
    elif fn is None:
        def fn(x):
            if np.ndim(x) == 0:  # A.dot would scale A by it
                raise DimensionMismatchError(f"affine cell field needs a point of length "
                                             f"{c.shape[0]}, got a scalar")
            return A.dot(x) + c
    fn.affine = AffineField(A, c)
    return fn


@dataclass(frozen=True)
class SurfaceClassification:
    kind: str
    active_surfaces: tuple[int, ...]
    witness: Polytope
    alpha: float | None = None
    beta: float | None = None


def filippov_set(F: PiecewiseField, x) -> Polytope:
    """Convexified field value at x.

    Off the surfaces this is the singleton cell value.  On surfaces it is
    built entirely from the continuous extensions of the adjacent declared
    cells, so redefining the field on the surfaces themselves cannot change
    it.
    """
    x = _point(F, x)
    return Polytope(_hull_at(F, x, F.sign_vector(x)))


def _point(F: PiecewiseField, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[0] != F.dim:
        raise DimensionMismatchError("point dimension mismatch")
    if not all(map(math.isfinite, x.ravel().tolist())):  # cheaper than np.isfinite on short x
        raise ModelError(f"point must be finite, got {x.tolist()}")
    return x


def _hull_at(F: PiecewiseField, x: np.ndarray, face: SignVector) -> np.ndarray:
    """Vertex rows of the hull: the values at x of the declared cells
    adjacent to ``face``."""
    cells = F.adjacent_cells(face)
    if not cells:
        raise ModelError(f"no declared cell adjacent to x={x.tolist()}")
    return np.array([F.cell_value(sigma, x) for sigma in cells])


def _face(g, surfaces) -> tuple[int, ...]:
    """Strict signs of g with 0 on ``surfaces``, whose adjacent cells meet there."""
    return tuple(0 if j in surfaces else (1 if v > 0 else -1) for j, v in enumerate(g))


def _sides(F: PiecewiseField, x: np.ndarray, i: int, g):
    """Normal of surface i at x and the rows of the minus and plus cell
    values there, with the other surfaces' sides fixed by their values g.
    The normal's floor is fixed: a large state makes no surface degenerate."""
    n = F.switches[i].grad(x)
    if np.linalg.norm(n) <= _BAND_AT_ORIGIN:
        raise DegenerateSurfaceError(f"switching gradient vanishes on surface {i}")
    cells = F.adjacent_cells(_face(g, (i,)))
    if len(cells) != 2:
        raise ModelError(f"surface {i} does not separate two declared cells at {x.tolist()}")
    return n, np.array([F.cell_value(c, x) for c in cells])


def _normal_kind(n: np.ndarray, sides: np.ndarray) -> tuple[str, float, float]:
    """Kind of a point on one surface and the normal parts alpha, beta of its
    two side fields.  These are velocities, so the band they are compared
    with is the fixed _BAND_AT_ORIGIN: the state's size does not enter."""
    alpha, beta = float(sides[0].dot(n)), float(sides[1].dot(n))  # grad may return a list
    if abs(alpha) <= _BAND_AT_ORIGIN or abs(beta) <= _BAND_AT_ORIGIN:
        return TANGENT, alpha, beta
    if alpha * beta > 0:
        return CROSSING, alpha, beta
    return (SLIDING if alpha > 0 else REPULSIVE), alpha, beta


def classify_point(F: PiecewiseField, x) -> SurfaceClassification:
    """Classify the local solution behaviour at x.

    With one active surface the normal components alpha (minus-side field)
    and beta (plus-side field) decide the kind, with the convention that the
    surface gradient points from the minus cell toward the plus cell.  With
    two or more active surfaces the kind is ``tangent`` and the Filippov
    polytope is returned as witness.
    """
    x = _point(F, x)
    tol = default_active_tol(x)
    g = F._switch_list(x)
    active = tuple(j for j, v in enumerate(g) if _active(v, tol))
    witness = Polytope(_hull_at(F, x, _face(g, active)))
    if len(active) != 1:
        return SurfaceClassification(TANGENT if active else CONTINUITY, active, witness)
    kind, alpha, beta = _normal_kind(*_sides(F, x, active[0], g))
    return SurfaceClassification(kind, active, witness, alpha=alpha, beta=beta)


@dataclass(frozen=True)
class SlidingResult:
    vector: np.ndarray
    lam: float  # weight on the plus-side field (the cell the gradient points into)


def _cell_weights(lam, m: int = -1) -> np.ndarray:
    """Multilinear weights of the 2^k cells around k surfaces in
    ``adjacent_cells`` order, lam_l on the plus side of surface l and
    1 - lam_l on its minus side; or their derivative in lam_m."""
    w = np.ones(1)
    for l, lam_l in enumerate(lam):
        w = np.outer(w, (-1.0, 1.0) if l == m else (1.0 - lam_l, lam_l)).ravel()
    return w


def _tangent_pair(x_minus, x_plus, n: np.ndarray) -> tuple[np.ndarray, tuple[float]]:
    """(vector, (lam,)): :func:`_tangent_combination` on one surface with
    normal n, in the closed form lam = alpha / (alpha - beta) on the two side
    values themselves, clamped to [0, 1]."""
    alpha, beta = float(x_minus.dot(n)), float(x_plus.dot(n))  # grad may return a list
    scale = _BAND_AT_ORIGIN * (1.0 + abs(alpha) + abs(beta))
    if abs(alpha) <= scale and abs(beta) <= scale:
        # Both one-sided fields are already tangent; any weight works.
        return 0.5 * (x_plus + x_minus), (0.5,)
    if abs(alpha - beta) <= scale:
        raise NotSlidingError("equal nonzero normal components admit no tangent combination")
    lam = alpha / (alpha - beta)
    if lam < -1e-9 or lam > 1 + 1e-9:
        raise NotSlidingError(f"tangency coefficients {(lam,)} outside [0, 1]")
    lam = min(max(lam, 0.0), 1.0)
    return lam * x_plus + (1.0 - lam) * x_minus, (lam,)


def _tangent_combination(values: np.ndarray, normals: np.ndarray,
                         lam: np.ndarray | None = None) -> tuple[np.ndarray, Sequence[float]]:
    """(vector, lam): the combination of the 2^k cell ``values`` around k
    surfaces with weights lam in [0, 1]^k that is tangent to all of them.
    One surface has the closed form of :func:`_tangent_pair`; several the
    multilinear one of Dieci & Lopez (Numer. Math. 117, 2011), with lam
    by Newton from ``lam`` (default 1/2), where no surface may repel given
    the other weights.  Normal parts are compared with _BAND_AT_ORIGIN
    scaled by their own size, never with a band that grows with the state.
    Raises NotSlidingError when there is none."""
    k = normals.shape[0]
    if values.shape[0] != 2**k:
        raise NotSlidingError("a cell around the sliding surfaces is not declared")
    if k == 1:
        return _tangent_pair(values[0], values[1], normals[0])
    parts = normals.dot(values.T)
    scale = _BAND_AT_ORIGIN * (1.0 + float(np.max(np.abs(parts))))
    jac = lambda lam: parts.dot(np.transpose([_cell_weights(lam, m) for m in range(k)]))
    lam = np.full(k, 0.5) if lam is None else lam
    for _ in range(30):
        residual = parts.dot(_cell_weights(lam))
        if np.max(np.abs(residual)) <= 1e-6 * scale:
            break
        lam = lam - np.linalg.lstsq(jac(lam), residual, rcond=None)[0]
    repels = np.diag(jac(lam)) > scale  # surface m's own part grows from - to + side
    if not np.max(np.abs(parts.dot(_cell_weights(lam)))) <= scale or np.any(repels):
        raise NotSlidingError("no tangent combination that every surface attracts")
    if min(lam) < -1e-9 or max(lam) > 1 + 1e-9:
        raise NotSlidingError(f"tangency coefficients {lam} outside [0, 1]")
    lam = np.clip(lam, 0.0, 1.0)
    return _cell_weights(lam).dot(values), lam


def sliding_field(F: PiecewiseField, x, i: int) -> SlidingResult:
    """First-order sliding vector on surface i at x.

    Returns v = lam * X_plus + (1 - lam) * X_minus with lam in [0, 1] chosen
    so the result is tangent to the surface.  lam weights the plus-side cell.
    """
    x = _point(F, x)
    n, sides = _sides(F, x, i, F._switch_list(x))
    vector, lam = _tangent_pair(sides[0], sides[1], n)
    return SlidingResult(vector=vector, lam=float(lam[0]))


# ---------------------------------------------------------------------------
# Control systems and their direction inclusions.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ControlField:
    """Control system x' = X(x, u) with a polytopic input set."""

    dim: int
    control_dim: int
    dynamics: Callable[[np.ndarray, np.ndarray], np.ndarray]
    control_set: Polytope
    affine_in_control: bool = True
    name: str = ""

    def __post_init__(self):
        if self.control_set.is_empty:
            raise ModelError("control set must be nonempty")
        if self.control_set.dim != self.control_dim:
            raise DimensionMismatchError("control set dimension mismatch")

    def value(self, x, u) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        u = geometry.as_point(u)
        return np.asarray(self.dynamics(x, u), dtype=float)


def control_inclusion(C: ControlField, x) -> Polytope:
    """Hull of the directions reachable at x with inputs from the control set.

    Exact when the dynamics are affine in the input, because the image of a
    polytope under an affine map is the hull of its vertex images.
    """
    if not C.affine_in_control:
        raise UnsupportedError("control inclusion needs input-affine dynamics")
    x = np.asarray(x, dtype=float)
    if x.shape != (C.dim,):
        raise DimensionMismatchError(f"point has shape {x.shape}, not ({C.dim},)")
    verts = np.array([C.value(x, u) for u in C.control_set.vertices])
    return Polytope(verts)


# ---------------------------------------------------------------------------
# Uniqueness-condition checks.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OneSidedLipschitzVerdict:
    violated: bool
    witness: tuple[np.ndarray, np.ndarray] | None = None
    margin: float = 0.0


def one_sided_lipschitz_test(
    F: PiecewiseField,
    x,
    eps: float,
    L: float,
    samples: int,
    *,
    seed: int = 0,
    tol: float = 1e-12,
) -> OneSidedLipschitzVerdict:
    """Monte-Carlo falsifier for the one-sided Lipschitz growth bound.

    Draws sample pairs uniformly in the ball around x, keeping those that
    ``F.sign_vector`` puts off every surface (the band of ``F.value``), and
    reports a witness pair on the first violation.  A result that is not
    violated is only the absence of a counterexample, never a certificate:
    the bound is quantified over almost every pair.
    """
    if samples < 2:
        raise ValueError("samples must be at least 2")
    if not (0 < eps < math.inf and math.isfinite(L) and 0 <= tol < math.inf):  # NaN fails
        raise ValueError("eps must be finite and positive, L finite, tol finite and nonnegative")
    x = np.asarray(x, dtype=float)
    rng = np.random.default_rng(seed)

    def draw() -> tuple[np.ndarray, np.ndarray]:
        """A point off every surface and the field value of its cell there."""
        for _ in range(1000):
            u = rng.standard_normal(F.dim)  # uniform in the ball, in every dimension
            y = x + (eps * rng.random() ** (1.0 / F.dim) / np.linalg.norm(u)) * u
            sigma = F.sign_vector(y)
            if 0 not in sigma:
                return y, F.cell_value(sigma, y)
        raise ModelError("could not sample off the switching surfaces")

    for _ in range(samples):
        (y, fy), (yp, fyp) = draw(), draw()
        diff = y - yp
        lhs = float((fy - fyp).dot(diff))
        rhs = L * float(diff.dot(diff)) + tol
        if lhs > rhs:
            return OneSidedLipschitzVerdict(True, witness=(y, yp), margin=lhs - rhs)
    return OneSidedLipschitzVerdict(False)


# Normal speed a one-sided field needs to count as pushing across a surface.
_TRANSVERSAL_TOL = 1e-9


@dataclass(frozen=True)
class TransversalityResult:
    point: np.ndarray
    holds: bool
    alpha: float
    beta: float


def transversality_test(F: PiecewiseField, points) -> list[TransversalityResult]:
    """Check, point by point, that at least one one-sided field pushes
    strictly into the opposite cell (the transversality hypothesis that
    grants unique solutions through codimension-one surfaces)."""
    out = []
    for p in points:
        p = np.asarray(p, dtype=float)
        cls = classify_point(F, p)
        if len(cls.active_surfaces) != 1:
            raise ModelError(f"point {p.tolist()} is not on exactly one surface")
        holds = cls.alpha > _TRANSVERSAL_TOL or cls.beta < -_TRANSVERSAL_TOL
        out.append(TransversalityResult(p, holds, cls.alpha, cls.beta))
    return out


# ---------------------------------------------------------------------------
# Declarative field configs (JSON).
# ---------------------------------------------------------------------------

_SWITCH_FORMS = {
    "affine": lambda spec, dim: SwitchingSurface.affine(spec["a"], spec.get("b", 0.0)),
    "coordinate": lambda spec, dim: SwitchingSurface.coordinate(spec["index"], dim),
}


_CELL_FORMS = {
    "constant": lambda spec: affine_cell(None, spec["value"]),
    "affine": lambda spec: affine_cell(spec["A"], spec.get("b", np.zeros(len(spec["A"])))),
}


def _parse_sign_key(key: str, m: int) -> SignVector:
    key = key.strip()
    if len(key) != m or any(ch not in "+-" for ch in key):
        raise ModelError(f"cell key {key!r} must be {m} characters of '+'/'-'")
    return tuple(1 if ch == "+" else -1 for ch in key)


def field_from_config(config: dict | str) -> PiecewiseField:
    """Build a PiecewiseField from a declarative JSON config (dict or path).

    Schema::

        {"dim": 2,
         "switches": [{"form": "affine", "a": [1, 0], "b": 0.0}, ...],
         "cells": {"+-": {"form": "constant", "value": [0, 1]}, ...}}

    Switch forms: ``affine`` (a.x + b), ``coordinate`` (x_i).  Cell forms:
    ``constant``, ``affine`` (A x + b), both declared by :func:`affine_cell`.
    Cell keys are sign strings over the switches, most significant first.
    """
    if isinstance(config, str):
        with open(config, encoding="utf-8") as fh:
            config = json.load(fh)
    dim = int(config["dim"])
    switches = []
    for spec in config.get("switches", []):
        form = spec["form"]
        if form not in _SWITCH_FORMS:
            raise ModelError(f"unknown switch form {form!r}")
        switches.append(_SWITCH_FORMS[form](spec, dim))
    cells = {}
    for key, spec in config["cells"].items():
        form = spec["form"]
        if form not in _CELL_FORMS:
            raise ModelError(f"unknown cell form {form!r}")
        cell = _CELL_FORMS[form](spec)
        if cell.affine.c.shape != (dim,):
            raise DimensionMismatchError(f"cell {key!r}: shape {cell.affine.c.shape}, not ({dim},)")
        cells[_parse_sign_key(key, len(switches))] = cell
    return PiecewiseField(dim, switches, cells, name=config.get("name", ""))
