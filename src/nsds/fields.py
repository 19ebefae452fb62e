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
from dataclasses import dataclass
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
    switching surface."""

    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    name: str = ""

    @classmethod
    def affine(cls, a, b: float = 0.0, name: str = "") -> "SwitchingSurface":
        a = np.asarray(a, dtype=float)
        return cls(
            value=lambda x: float(a @ x + b),
            grad=lambda x: a.copy(),
            name=name or f"affine({a.tolist()},{b})",
        )

    @classmethod
    def coordinate(cls, index: int, dim: int, name: str = "") -> "SwitchingSurface":
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
    the one lookup; :meth:`cell_value` and :meth:`adjacent_cells` are its
    only readers.
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

    def switch_values(self, x: np.ndarray) -> np.ndarray:
        """Every switching function at x; a non-finite value raises ModelError
        naming its surface, since no sign or activity can be read from it."""
        g = [s.value(x) for s in self.switches]
        if not all(map(math.isfinite, g)):  # cheaper than np.isfinite on a few values
            i = next(i for i, v in enumerate(g) if not math.isfinite(v))
            raise ModelError(f"switching function {self.switches[i].name or i} is "
                             f"{g[i]} at x={np.asarray(x).tolist()}")
        return np.array(g)

    def sign_vector(self, x: np.ndarray) -> SignVector:
        """Signs of the switch values at x, 0 on the surfaces x lies on."""
        tol = default_active_tol(x)
        return tuple(0 if _active(v, tol) else (1 if v > 0 else -1)
                     for v in self.switch_values(x))

    def cell_value(self, sigma: SignVector, x: np.ndarray) -> np.ndarray:
        fn = self.cell(tuple(sigma))
        if fn is None:
            raise ModelError(f"no declared cell for sign vector {sigma}")
        return np.asarray(fn(np.asarray(x, dtype=float)), dtype=float)

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
    alpha, beta = float(n @ sides[0]), float(n @ sides[1])
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
    g = F.switch_values(x)
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


def _tangent_combination(values: np.ndarray, normals: np.ndarray,
                         lam: np.ndarray | None = None) -> tuple[np.ndarray, Sequence[float]]:
    """(vector, lam): the combination of the 2^k cell ``values`` around k
    surfaces with weights lam in [0, 1]^k that is tangent to all of them.
    One surface has the closed form lam = alpha / (alpha - beta); several
    the multilinear one of Dieci & Lopez (Numer. Math. 117, 2011), with lam
    by Newton from ``lam`` (default 1/2), where no surface may repel given
    the other weights.  Normal parts are compared with _BAND_AT_ORIGIN
    scaled by their own size, never with a band that grows with the state.
    Raises NotSlidingError when there is none."""
    k = normals.shape[0]
    if values.shape[0] != 2**k:
        raise NotSlidingError("a cell around the sliding surfaces is not declared")
    if k == 1:
        x_minus, x_plus = values
        alpha, beta = float(normals[0] @ x_minus), float(normals[0] @ x_plus)
        scale = _BAND_AT_ORIGIN * (1.0 + abs(alpha) + abs(beta))
        if abs(alpha) <= scale and abs(beta) <= scale:
            # Both one-sided fields are already tangent; any weight works.
            return 0.5 * (x_plus + x_minus), (0.5,)
        if abs(alpha - beta) <= scale:
            raise NotSlidingError("equal nonzero normal components admit no tangent combination")
        lam = (alpha / (alpha - beta),)
    else:
        parts = normals @ values.T
        scale = _BAND_AT_ORIGIN * (1.0 + float(np.max(np.abs(parts))))
        jac = lambda lam: parts @ np.transpose([_cell_weights(lam, m) for m in range(k)])
        lam = np.full(k, 0.5) if lam is None else lam
        for _ in range(30):
            residual = parts @ _cell_weights(lam)
            if np.max(np.abs(residual)) <= 1e-6 * scale:
                break
            lam = lam - np.linalg.lstsq(jac(lam), residual, rcond=None)[0]
        repels = np.diag(jac(lam)) > scale  # surface m's own part grows from - to + side
        if not np.max(np.abs(parts @ _cell_weights(lam))) <= scale or np.any(repels):
            raise NotSlidingError("no tangent combination that every surface attracts")
    if min(lam) < -1e-9 or max(lam) > 1 + 1e-9:
        raise NotSlidingError(f"tangency coefficients {lam} outside [0, 1]")
    if k == 1:
        lam = (min(max(lam[0], 0.0), 1.0),)
        return lam[0] * x_plus + (1.0 - lam[0]) * x_minus, lam
    lam = np.clip(lam, 0.0, 1.0)
    return _cell_weights(lam) @ values, lam


def sliding_field(F: PiecewiseField, x, i: int) -> SlidingResult:
    """First-order sliding vector on surface i at x.

    Returns v = lam * X_plus + (1 - lam) * X_minus with lam in [0, 1] chosen
    so the result is tangent to the surface.  lam weights the plus-side cell.
    """
    x = _point(F, x)
    n, sides = _sides(F, x, i, F.switch_values(x))
    vector, lam = _tangent_combination(sides, n[None, :])
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

    Draws sample pairs in the ball around x, keeping the points that
    ``F.sign_vector`` puts off every surface (the band of ``F.value``), and
    reports a witness pair on the first violation.  A result that is not
    violated is only the absence of a counterexample, never a certificate:
    the bound is quantified over almost every pair.
    """
    if samples < 2:
        raise ValueError("samples must be at least 2")
    x = np.asarray(x, dtype=float)
    rng = np.random.default_rng(seed)

    def draw() -> tuple[np.ndarray, np.ndarray]:
        """A point off every surface and the field value of its cell there."""
        for _ in range(1000):
            y = x + eps * (2.0 * rng.random(F.dim) - 1.0)
            if np.linalg.norm(y - x) <= eps:
                sigma = F.sign_vector(y)
                if 0 not in sigma:
                    return y, F.cell_value(sigma, y)
        raise ModelError("could not sample off the switching surfaces")

    for _ in range(samples):
        (y, fy), (yp, fyp) = draw(), draw()
        diff = y - yp
        lhs = float((fy - fyp) @ diff)
        rhs = L * float(diff @ diff) + tol
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


def _constant_field(v):
    v = np.asarray(v, dtype=float)
    return lambda x: v.copy()


def _affine_field(A, b):
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float)
    return lambda x: A @ x + b


_CELL_FORMS = {
    "constant": lambda spec: _constant_field(spec["value"]),
    "affine": lambda spec: _affine_field(spec["A"], spec.get("b", np.zeros(len(spec["A"])))),
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
    ``constant``, ``affine`` (A x + b).  Cell keys are sign strings over the
    switches, most significant first.
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
        cells[_parse_sign_key(key, len(switches))] = _CELL_FORMS[form](spec)
    return PiecewiseField(dim, switches, cells, name=config.get("name", ""))
