"""Set-valued Lie derivatives and grid-level stability certification.

The Lie derivative of a nonsmooth function along a convexified right-hand
side is a closed real interval, possibly empty.  The empty set follows the
conventions max(empty) = sup(empty) = -inf, so monotonicity checks pass
vacuously exactly where the theory says they should.

Certification here is sample-based: a Certified verdict means at least one
grid point was checked and every one passed, never that a proof was
produced.  The grid parameters are recorded in the report for
reproducibility.  Everything in this module is a pure function of its
inputs, so grid sweeps may be fanned out concurrently by the caller.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable

import numpy as np

from .errors import DimensionMismatchError, EmptySetError, SolverError, UnsupportedError
from .geometry import (
    INFEASIBLE,
    OPTIMAL,
    Polytope,
    _maximin_rows,
    solve_lp,
    vector_norm,
)
from .nonsmooth import ALL_SPACE, UNSUPPORTED, NsFunction


@dataclass(frozen=True)
class LieInterval:
    """A closed interval value of a set-valued Lie derivative.  The empty
    set is (inf, -inf), so max(empty) = -inf and min(empty) = inf."""

    lo: float
    hi: float

    @classmethod
    def empty(cls) -> "LieInterval":
        return cls(math.inf, -math.inf)

    @classmethod
    def closed(cls, lo: float, hi: float) -> "LieInterval":
        return cls(float(min(lo, hi)), float(max(lo, hi)))

    @property
    def is_empty(self) -> bool:
        return self.lo > self.hi

    def max_value(self) -> float:
        return self.hi

    def min_value(self) -> float:
        return self.lo

    def contains(self, a: float, tol: float = 0.0) -> bool:
        return self.lo - tol <= a <= self.hi + tol


def _require_pair(V: np.ndarray, Z: np.ndarray) -> None:
    """Field rows V and gradient rows Z must be nonempty and share a dimension."""
    if V.shape[0] == 0 or Z.shape[0] == 0:
        raise EmptySetError("a Lie derivative needs nonempty field and gradient sets")
    if V.shape[1] != Z.shape[1]:
        raise DimensionMismatchError("field and gradient dimensions differ")


def _lie_extreme(V: np.ndarray, G: np.ndarray, sense: float) -> float:
    """Smallest (sense 1) or largest (sense -1) value zeta . v over the v in
    the hull of the field rows V with the same value for every zeta in the
    hull of the gradient rows G, with min(empty) = inf and max(empty) = -inf.

    The feasible v form the slice of the field set where all gradient
    differences are orthogonal.  A one-row gradient constrains nothing, so
    the slice is the whole field set and the extreme is the least or largest
    vertex value, in closed form.  Otherwise one LP over the slice in
    convex-combination coordinates gives the extreme; duplicated or
    dependent gradient rows give redundant equality rows, which the simplex
    drops.
    """
    _require_pair(V, G)
    zeta0 = G[0]
    if G.shape[0] == 1:
        values = V @ zeta0
        return 0.0 + float(values.min() if sense > 0 else values.max())
    A = np.vstack([np.ones(V.shape[0]), (G[1:] - zeta0) @ V.T])
    b = np.zeros(A.shape[0])
    b[0] = 1.0
    res = solve_lp(sense * (V @ zeta0), A, b)
    if res.status == INFEASIBLE:
        return sense * math.inf
    if res.status != OPTIMAL:  # pragma: no cover
        raise SolverError("Lie-derivative LP failed")
    return 0.0 + sense * res.value  # a zero extreme reads 0.0, not -0.0


def _lie_interval(V: np.ndarray, G: np.ndarray) -> LieInterval:
    lo = _lie_extreme(V, G, 1.0)
    if lo == math.inf:
        return LieInterval.empty()
    return LieInterval.closed(lo, _lie_extreme(V, G, -1.0))


def set_lie_derivative(Fset: Polytope, grad: Polytope) -> LieInterval:
    """Interval of values a for which some v in Fset has zeta . v = a for
    every zeta in the gradient polytope."""
    return _lie_interval(Fset.vertices, grad.vertices)


def lower_upper_lie(Fset: Polytope, prox) -> tuple[LieInterval, LieInterval]:
    """Interval hulls of the lower and upper set-valued Lie derivatives.

    The lower set collects min_{v in Fset} zeta . v per proximal subgradient
    zeta; the upper set collects the maxima.  Concavity (resp. convexity) in
    zeta puts every endpoint at a vertex or at the maximin value.  An empty
    proximal subdifferential yields two empty intervals.
    """
    if prox is ALL_SPACE:
        raise UnsupportedError("lower/upper Lie derivatives need a polytopal subdifferential")
    if prox is UNSUPPORTED:
        raise UnsupportedError("proximal subdifferential unavailable at this point")
    if prox.is_empty:
        return LieInterval.empty(), LieInterval.empty()
    if Fset.is_empty:
        raise EmptySetError("lower_upper_lie needs a nonempty inclusion set")
    if Fset.dim != prox.dim:
        raise DimensionMismatchError("dimension mismatch")

    P, V = prox.vertices, Fset.vertices
    M = P @ V.T
    lower = LieInterval.closed(float(M.min()), _maximin_rows(P, V))
    upper = LieInterval.closed(-_maximin_rows(P, -V), float(M.max()))
    return lower, upper


# ---------------------------------------------------------------------------
# Sampling grids.
# ---------------------------------------------------------------------------


MAX_GRID_POINTS = 1_000_000  # 100 times a 101 x 101 sweep; bounds a sweep's time and memory


@dataclass(frozen=True)
class GridSpec:
    """Rectangular sampling grid with an optional exclusion predicate."""

    lows: tuple[float, ...]
    highs: tuple[float, ...]
    counts: tuple[int, ...]
    exclude: Callable[[np.ndarray], bool] | None = None

    def __post_init__(self):
        if not self.lows or not len(self.lows) == len(self.highs) == len(self.counts):
            raise ValueError("a grid needs one low, high and count per axis, and at least one axis")
        for axis, (lo, hi, n) in enumerate(zip(self.lows, self.highs, self.counts)):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"grid axis {axis}: bounds {lo}, {hi} are not finite")
            if not isinstance(n, (int, np.integer)) or n < 1:
                raise ValueError(f"grid axis {axis}: count {n} is not a positive integer")
        size = math.prod(self.counts)
        if size > MAX_GRID_POINTS:
            raise ValueError(f"grid has {size} points, more than the {MAX_GRID_POINTS} allowed")

    @classmethod
    def parse(cls, text: str, exclude=None) -> "GridSpec":
        """Parse ``lo:hi:n,lo:hi:n,...``."""
        lows, highs, counts = [], [], []
        for axis, part in enumerate(text.split(",")):
            try:
                lo, hi, n = part.split(":")
                lows.append(float(lo))
                highs.append(float(hi))
                counts.append(int(n))
            except ValueError:
                raise ValueError(f"grid axis {axis}: {part!r} is not lo:hi:n") from None
        return cls(tuple(lows), tuple(highs), tuple(counts), exclude)

    @property
    def dim(self) -> int:
        return len(self.lows)

    def axes(self) -> list[np.ndarray]:
        return [
            np.linspace(lo, hi, n)
            for lo, hi, n in zip(self.lows, self.highs, self.counts)
        ]

    def points(self) -> Iterable[np.ndarray]:
        for combo in itertools.product(*self.axes()):
            p = np.array(combo)
            if self.exclude is not None and self.exclude(p):
                continue
            yield p

    def describe(self) -> dict:
        return {
            "lows": list(self.lows),
            "highs": list(self.highs),
            "counts": list(self.counts),
            "excluded": self.exclude is not None,
        }


def exclude_band(band: float, axes: tuple[int, ...] | None = None):
    """Predicate dropping points within ``band`` of any listed coordinate axis.
    A NaN band would drop no point: a negative or non-finite band is a ValueError."""
    if not 0.0 <= band < math.inf:
        raise ValueError(f"exclusion band must be finite and nonnegative, got {band}")

    def pred(p: np.ndarray) -> bool:
        idx = range(len(p)) if axes is None else axes
        return any(abs(p[i]) <= band for i in idx)

    return pred


# ---------------------------------------------------------------------------
# Certification reports.
# ---------------------------------------------------------------------------

CERTIFIED = "certified"
FALSIFIED = "falsified"
INCONCLUSIVE = "inconclusive"


@dataclass
class StabilityReport:
    verdict: str
    theorem: str
    checked_points: int
    witness: list[float] | None = None
    failed_clause: str | None = None
    grid: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {"schema": 1, **asdict(self)}


FieldSource = Callable[[np.ndarray], Polytope]

# Per theorem: the Lie set whose supremum is bounded (``gradient``: the
# set-valued Lie derivative of the generalized gradient; ``lower``/``upper``:
# the lower/upper Lie derivative of the proximal subdifferential), whether
# the positivity clause applies, whether the bound is strict off the
# equilibrium, and the clause a failed bound reports.
_CHECKS = {
    "thm1": ("gradient", True, False, "lie-bound"),
    "thm1p": ("gradient", True, True, "lie-bound"),
    "thm3": ("upper", True, False, "lie-bound"),
    "thm3p": ("upper", True, True, "lie-bound"),
    "prop13w": ("lower", False, False, "lie-positive"),
    "prop13s": ("upper", False, False, "lie-positive"),
}


def _grid_points(f: NsFunction, region: GridSpec) -> Iterable[np.ndarray]:
    """The grid's points, which the row methods of f take unchecked once the
    grid has f's dimension."""
    if region.dim != f.dim:
        raise DimensionMismatchError(
            f"grid has dimension {region.dim}, function {f.name or type(f).__name__} {f.dim}")
    return region.points()


def _lie_sup(lie_set: str, f: NsFunction, F: FieldSource, x: np.ndarray) -> float | str:
    """Supremum of the Lie set at x, or the name of the clause that blocks
    it.  An empty proximal subdifferential gives sup(empty) = -inf.  The
    gradient sets are read as vertex rows; the field set is the only
    polytope built here."""
    if lie_set == "gradient":
        G, exact = f._rows(x)
        if not exact:
            return "gradient-inexact"
        return _lie_extreme(F(x).vertices, G, -1.0)
    prox = f._prox(x)
    if prox is UNSUPPORTED or prox is ALL_SPACE:
        return "proximal-unavailable"
    if prox.shape[0] == 0:
        return -math.inf
    V = F(x).vertices
    _require_pair(V, prox)
    if lie_set == "lower":
        return _maximin_rows(prox, V)
    return max(float(np.max(V @ zeta)) for zeta in prox)


def _sweep(theorem: str, f: NsFunction, F: FieldSource, region: GridSpec, *,
           tol: float, margin: float = 0.0, x_e: np.ndarray | None = None,
           f0: float = 0.0, details: dict | None = None) -> StabilityReport:
    """Check one theorem's clauses point by point; the first point that
    fails or blocks a clause ends the sweep and is counted."""
    lie_set, positivity, strict, bound_clause = _CHECKS[theorem]
    if not (math.isfinite(tol) and math.isfinite(margin)):  # NaN compares false: nothing fails
        raise ValueError(f"tol={tol} and margin={margin} must be finite")
    details = details or {}
    grid = region.describe()
    checked = 0
    worst, worst_at = -math.inf, None

    def stop(verdict: str, clause: str, **extra) -> StabilityReport:
        return StabilityReport(verdict, theorem, checked, witness=x.tolist(),
                               failed_clause=clause, grid=grid, details={**details, **extra})

    for x in _grid_points(f, region):
        checked += 1
        at_equilibrium = x_e is not None and vector_norm(x - x_e) <= 1e-12
        if positivity and not at_equilibrium and f._val(x) - f0 <= 0:
            return stop(FALSIFIED, "positivity")
        val = _lie_sup(lie_set, f, F, x)
        if isinstance(val, str):
            return stop(INCONCLUSIVE, val)
        if not (val < -margin if strict and not at_equilibrium else val <= tol):
            return stop(FALSIFIED, bound_clause, value=val)
        if val > worst:
            worst, worst_at = val, x.tolist()
    if checked == 0:  # a sweep that checks nothing certifies nothing
        return StabilityReport(INCONCLUSIVE, theorem, 0, failed_clause="empty-grid",
                               grid=grid, details=details)
    return StabilityReport(CERTIFIED, theorem, checked, grid=grid, details={
        **details, "max_value": None if worst_at is None else worst, "max_point": worst_at})


def monotonicity_verdict(
    kind: str,
    f: NsFunction,
    F: FieldSource,
    region: GridSpec,
    *,
    tol: float = 1e-9,
    strong_hypotheses_ok: bool = True,
) -> StabilityReport:
    """Sample-based monotonicity check via lower/upper Lie derivatives.

    ``kind`` is ``"weak"`` (sup of the lower Lie derivative nonpositive at
    every sample) or ``"strong"`` (same for the upper one).  The strong form
    additionally needs regularity hypotheses on F and f that cannot be
    verified numerically; the caller asserts them with
    ``strong_hypotheses_ok``.
    """
    if kind not in ("weak", "strong"):
        raise ValueError("kind must be 'weak' or 'strong'")
    theorem = "prop13w" if kind == "weak" else "prop13s"
    if kind == "strong" and not strong_hypotheses_ok:
        return StabilityReport(INCONCLUSIVE, theorem, 0,
                               details={"note": "strong hypotheses not asserted"})
    return _sweep(theorem, f, F, region, tol=tol)


_THEOREMS = tuple(t for t in _CHECKS if t.startswith("thm"))


def lyapunov_certify(
    theorem: str,
    f: NsFunction,
    F: FieldSource,
    x_e,
    region: GridSpec,
    *,
    tol: float = 1e-9,
    margin: float = 1e-6,
) -> StabilityReport:
    """Check candidate-Lyapunov hypotheses on a sample grid.

    thm1 / thm1p use the generalized gradient and the set-valued Lie
    derivative (nonpositive, resp. below -margin off the equilibrium);
    thm3 / thm3p use the proximal subdifferential and the upper Lie
    derivative.  The value at the equilibrium is subtracted first, so clause
    one holds by normalization and is recorded.
    """
    if theorem not in _THEOREMS:
        raise ValueError(f"theorem must be one of {_THEOREMS}")
    x_e = np.asarray(x_e, dtype=float)
    if not np.all(np.isfinite(x_e)):  # f(x) - nan <= 0 is false: positivity never fails
        raise ValueError(f"equilibrium must be finite, got {x_e.tolist()}")
    f0 = f.value(x_e)
    details: dict = {"offset": f0, "tol": tol, "margin": margin}
    if _CHECKS[theorem][0] == "gradient" and not f.regular:
        return StabilityReport(
            INCONCLUSIVE, theorem, 0, failed_clause="regularity-not-established",
            grid=region.describe(), details=details,
        )
    return _sweep(theorem, f, F, region, tol=tol, margin=margin, x_e=x_e, f0=f0,
                  details=details)


def invariance_candidate_set(
    f: NsFunction,
    F: FieldSource,
    region: GridSpec,
    tol: float = 1e-8,
) -> np.ndarray:
    """Sampled points where 0 belongs to the set-valued Lie derivative.

    This is the candidate convergence locus of the invariance principle;
    trajectory limit sets should be intersected with it by the caller.
    """
    hits = []
    for x in _grid_points(f, region):
        G, exact = f._rows(x)
        if exact and _lie_interval(F(x).vertices, G).contains(0.0, tol):
            hits.append(x)
    if not hits:
        return np.zeros((0, region.dim))
    return np.array(hits)
