"""Packaged scenario catalog.

Each scenario bundles a builder for its dynamic model, its default constants
and, for a flow that is not a field, the runner that simulates it; README's
catalog table describes each one.  Builders validate through the underlying
module constructors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import ModelError, UnsupportedError
from .fields import ControlField, PiecewiseField, SwitchingSurface, affine_cell
from .geometry import ConvexPolygon, Polytope, _least_norm_point
from .integrate import (
    IntegratorConfig,
    Trajectory,
    _check_start,
    consensus_flow,
    integrate_filippov,
    integrate_pointwise,
)
from .nonsmooth import Graph, hsp


@dataclass(frozen=True)
class Scenario:
    name: str
    constants: dict
    builder: Callable[[dict], object]
    runner: Callable[..., Trajectory] | None = None

    def merged(self, overrides: dict | None) -> dict:
        merged = dict(self.constants)
        if overrides:
            unknown = set(overrides) - set(self.constants)
            if unknown:
                raise ModelError(f"unknown constants for {self.name}: {sorted(unknown)}")
            merged.update(overrides)
        return merged

    def build(self, overrides: dict | None = None):
        return self.builder(self.merged(overrides))

    def simulate(self, x0, t_end: float, cfg: IntegratorConfig | None = None,
                 overrides: dict | None = None) -> Trajectory:
        """Integrate the built model: a PiecewiseField through
        :func:`integrate_filippov`, any other model through the runner."""
        cfg = cfg or IntegratorConfig()
        model = self.build(overrides)
        if isinstance(model, PiecewiseField):
            return integrate_filippov(model, x0, t_end, cfg)
        if self.runner is None:
            raise UnsupportedError(
                f"scenario {self.name} has no autonomous dynamics to simulate"
            )
        return self.runner(model, np.asarray(x0, dtype=float), t_end, cfg)


# ---------------------------------------------------------------------------
# Piecewise scenarios.
# ---------------------------------------------------------------------------


def _brick_field(c: dict) -> PiecewiseField:
    g, theta, nu = c["g"], c["theta"], c["nu"]
    down = g * (math.sin(theta) + nu * math.cos(theta))
    up = g * (math.sin(theta) - nu * math.cos(theta))
    return PiecewiseField(
        1,
        [SwitchingSurface.coordinate(0, 1, name="v")],
        {(-1,): affine_cell(None, [down]), (1,): affine_cell(None, [up])},
        name="brick",
    )


def _oscillator_cell(force: float):
    """The cell x' = (x2, force), declared affine and evaluated by hand."""
    return affine_cell([[0.0, 1.0], [0.0, 0.0]], [0.0, force], lambda x: np.array([x[1], force]))


def _oscillator_field(c: dict) -> PiecewiseField:
    return PiecewiseField(
        2,
        [SwitchingSurface.coordinate(0, 2)],
        {(-1,): _oscillator_cell(1.0), (1,): _oscillator_cell(-1.0)},
        name="oscillator",
    )


def _oscillator_dissipative_field(c: dict) -> PiecewiseField:
    k = c["k"]
    cells = {(s1, s2): _oscillator_cell(-float(s1) - k * float(s2))
             for s1 in (-1, 1) for s2 in (-1, 1)}
    return PiecewiseField(
        2,
        [SwitchingSurface.coordinate(0, 2), SwitchingSurface.coordinate(1, 2)],
        cells,
        name="oscillator_dissipative",
    )


def move_away_square_field() -> PiecewiseField:
    """Single agent in the square [-1,1]^2 moving away from the nearest wall.

    Cells are the four triangles between the diagonals; the switching
    functions are the diagonal offsets x2 - x1 and x2 + x1.
    """
    consts = {
        (-1, 1): np.array([-1.0, 0.0]),  # right triangle
        (-1, -1): np.array([0.0, 1.0]),  # bottom
        (1, -1): np.array([1.0, 0.0]),  # left
        (1, 1): np.array([0.0, -1.0]),  # top
    }
    cells = {k: affine_cell(None, v) for k, v in consts.items()}
    return PiecewiseField(
        2,
        [
            SwitchingSurface.affine([-1.0, 1.0], name="x2-x1"),
            SwitchingSurface.affine([1.0, 1.0], name="x2+x1"),
        ],
        cells,
        name="move_away_1",
    )


# ---------------------------------------------------------------------------
# Multi-agent move-away law (sphere packing).
# ---------------------------------------------------------------------------


@dataclass
class MoveAwayLaw:
    """n planar agents, each moving away from its nearest entity.

    Nearness is measured consistently with the packing radius: agent pairs
    count at half separation, polygon edges at full distance.  Entities tied
    within the band contribute jointly through the least-norm selection of
    the hull of their away directions, which keeps each tied distance term
    nondecreasing.  :func:`move_away_flow` widens ``tie_band`` for its fixed
    steps.
    """

    polygon: ConvexPolygon
    n: int
    tie_band: float = 1e-6

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"the number of agents n must be nonnegative, got {self.n}")

    def direction(self, p_flat: np.ndarray) -> np.ndarray:
        n = self.n
        pts = np.asarray(p_flat, dtype=float).reshape(n, 2)
        if not all(map(math.isfinite, pts.ravel().tolist())):  # cheaper than np.isfinite
            raise ModelError("agent positions must be finite")
        # Away offsets per (agent, entity) in one array: the other agents
        # first, then the edges.  An agent's own column is at infinite
        # distance, so it never ties.
        off = np.concatenate([pts[:, None] - pts, self.polygon.edge_offsets(pts)], axis=1)
        # Outside is beyond an edge's line, decided on the positions, which
        # stay finite where the edge offsets overflow to NaN.
        outside = (pts.dot(self.polygon.inward_normals.T) < self.polygon.line_offsets).any()
        # The norm of the length-2 axis as np.linalg.norm computes it.
        if outside:  # far outside, the squares may overflow before the messages
            with np.errstate(over="ignore"):
                sq = off * off
        else:
            sq = off * off
        r = np.sqrt(sq[:, :, 0] + sq[:, :, 1])
        r.flat[::r.shape[1] + 1] = np.inf
        # One reduction for both distance checks.  fmin skips a NaN (an edge
        # offset of an overflowing position), as an elementwise <= test does.
        if np.fmin.reduce(r, axis=None, initial=np.inf) <= 1e-12:
            if np.fmin.reduce(r[:, :n], axis=None, initial=np.inf) <= 1e-12:
                raise ModelError("coincident agents: the law is undefined")
            raise ModelError("agent sits on the boundary")
        if outside:
            raise ModelError("agent outside the polygon")
        off /= r[:, :, None]
        r[:, :n] *= 0.5  # agents count at half separation
        tied = r <= r.min(axis=1, keepdims=True) + self.tie_band
        out = off[np.arange(n), r.argmin(axis=1)]
        for i in (tied.sum(axis=1) > 1).nonzero()[0]:
            out[i] = _least_norm_point(off[i, tied[i]])
        return out.ravel()

    def packing_radius(self, p_flat: np.ndarray) -> float:
        return hsp(self.polygon, p_flat.reshape(self.n, 2))

    def random_interior_points(self, seed: int, margin: float = 0.05) -> np.ndarray:
        """Seeded initial configuration, rejection-sampled to keep agents
        inside the polygon and away from exact ties.  Their disjoint discs of
        radius ``margin`` lie in it: more than fit its area are rejected."""
        v, area = self.polygon.vertices, self.polygon.area
        if self.n * math.pi * margin**2 > area:
            raise ModelError(f"{self.n} discs of radius {margin} exceed the area {area}")
        rng = np.random.default_rng(seed)
        lo, hi = v.min(axis=0), v.max(axis=0)
        pts = np.empty((self.n, 2))
        placed = guard = 0
        while placed < self.n:
            guard += 1
            if guard > 100_000:
                raise ModelError("could not place agents inside the polygon")
            cand = lo + (hi - lo) * rng.random(2)
            if (not self.polygon.contains_point(cand, tol=-margin)
                    or (np.linalg.norm(pts[:placed] - cand, axis=1) < 2 * margin).any()):
                continue
            pts[placed] = cand
            placed += 1
        flat = pts.ravel()
        # Nudge away from exact equidistance so the start is off the
        # discontinuity set.
        for _ in range(50):
            d = self.direction(flat)
            if np.linalg.norm(d) > 1e-9:
                return flat
            flat = flat + 1e-3 * (rng.random(flat.shape) - 0.5)
        return flat


def move_away_flow(law: MoveAwayLaw, x0, t_end: float, cfg: IntegratorConfig) -> Trajectory:
    """Fixed-step Euler run of the move-away law from the 2n-vector x0.

    The tie band is widened to ``max(4 * dt_max, 1e-6)``, a few steps'
    travel, so that fixed steps slide along a tie instead of chattering
    across it.
    """
    x0 = _check_start(x0, t_end, 2 * law.n)
    law = replace(law, tie_band=max(4.0 * cfg.dt_max, 1e-6))
    return integrate_pointwise(law.direction, x0, t_end, cfg, method="euler")


# ---------------------------------------------------------------------------
# Control scenarios.
# ---------------------------------------------------------------------------


def cart_input_field(x: np.ndarray) -> np.ndarray:
    x1, x2 = x.tolist()  # Python floats: ** is the same libm pow as numpy's scalar power
    return np.array([x1 ** 2 - x2 ** 2, 2.0 * x1 * x2])


def _cart_control(c: dict) -> ControlField:
    sigma = c["sigma"]
    return ControlField(
        dim=2,
        control_dim=1,
        dynamics=lambda x, u: u[0] * cart_input_field(x),
        control_set=Polytope.interval(-sigma, sigma),
        affine_in_control=True,
        name="cart",
    )


def cart_feedback(sigma: float = 1.0) -> Callable[[float, np.ndarray], np.ndarray]:
    """Move along the input field left of the vertical axis, against it on
    the right, and keep the positive choice on the axis itself."""

    def u(t: float, x: np.ndarray) -> np.ndarray:
        return np.array([-sigma if x[0] > 0 else sigma])

    return u


def _nonholonomic_control(c: dict) -> ControlField:
    return ControlField(
        dim=3,
        control_dim=2,
        dynamics=lambda x, u: np.array([u[0], u[1], x[0] * u[1] - x[1] * u[0]]),
        control_set=Polytope([[-1, -1], [1, -1], [1, 1], [-1, 1]]),
        affine_in_control=True,
        name="nonholonomic_integrator",
    )


# ---------------------------------------------------------------------------
# Registry.
# ---------------------------------------------------------------------------

SCENARIOS: dict[str, Scenario] = {s.name: s for s in (
    Scenario(
        name="brick",
        constants={"theta": math.pi / 6.0, "nu": 1.0, "g": 9.8},
        builder=_brick_field,
    ),
    Scenario(
        name="oscillator",
        constants={},
        builder=_oscillator_field,
    ),
    Scenario(
        name="oscillator_dissipative",
        constants={"k": 0.75},
        builder=_oscillator_dissipative_field,
    ),
    Scenario(
        name="move_away_1",
        constants={},
        builder=lambda c: move_away_square_field(),
    ),
    Scenario(
        name="sphere_packing",
        constants={"n": 5},
        builder=lambda c: MoveAwayLaw(ConvexPolygon.square(1.0), int(c["n"])),
        runner=move_away_flow,
    ),
    Scenario(
        name="consensus",
        constants={},
        builder=lambda c: Graph.path(3),
        # The built path is a 3-agent default; the runner sizes its path from
        # x0's size, and the run's start check rejects a start that is not 1-D.
        runner=lambda _, x0, t_end, cfg: consensus_flow(
            Graph.path(x0.size), "sign", x0, t_end, cfg).trajectory,
    ),
    Scenario(
        name="cart",
        constants={"sigma": 1.0},
        builder=_cart_control,
    ),
    Scenario(
        name="nonholonomic_integrator",
        constants={},
        builder=_nonholonomic_control,
    ),
)}

# Aliases: the descent flow of -sm_Q on the unit square is the move-away field.
SCENARIOS["move_away_n"] = SCENARIOS["sphere_packing"]
SCENARIOS["smq_flow"] = SCENARIOS["move_away_1"]


def get_scenario(name: str) -> Scenario:
    """The catalog entry for ``name``.  An alias returns the scenario it
    names, so its errors carry that scenario's name."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ModelError(f"unknown scenario {name!r}") from None
