"""Set-valued Lie derivatives and grid-level stability certification.

The Lie derivative of a nonsmooth function along a convexified right-hand
side is a closed real interval, possibly empty.  The empty set follows the
conventions max(empty) = sup(empty) = -inf, so monotonicity checks pass
vacuously exactly where the theory says they should.

Certification here is sample-based: a Certified verdict means every grid
point passed, never that a proof was produced.  The grid parameters are
recorded in the report for reproducibility.  Everything in this module is a
pure function of its inputs, so grid sweeps may be fanned out concurrently
by the caller.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .errors import DimensionMismatchError, EmptySetError, SolverError, UnsupportedError
from .geometry import (
    INFEASIBLE,
    OPTIMAL,
    Polytope,
    maximin_value,
    solve_lp,
    support,
)
from .nonsmooth import ALL_SPACE, UNSUPPORTED, NsFunction

EMPTY = "empty"
INTERVAL = "interval"
UNBOUNDED_BELOW = "unbounded_below"


@dataclass(frozen=True)
class LieInterval:
    """A closed interval value of a set-valued Lie derivative."""

    kind: str
    lo: float = math.nan
    hi: float = math.nan

    @classmethod
    def empty(cls) -> "LieInterval":
        return cls(EMPTY)

    @classmethod
    def closed(cls, lo: float, hi: float) -> "LieInterval":
        lo, hi = float(min(lo, hi)), float(max(lo, hi))
        return cls(INTERVAL, lo, hi)

    @classmethod
    def point(cls, a: float) -> "LieInterval":
        return cls.closed(a, a)

    @classmethod
    def unbounded_below(cls, hi: float) -> "LieInterval":
        return cls(UNBOUNDED_BELOW, -math.inf, float(hi))

    @property
    def is_empty(self) -> bool:
        return self.kind == EMPTY

    def max_value(self) -> float:
        """Largest element, with max(empty) = -inf."""
        return -math.inf if self.is_empty else self.hi

    sup = max_value

    def min_value(self) -> float:
        return math.inf if self.is_empty else self.lo

    def contains(self, a: float, tol: float = 0.0) -> bool:
        if self.is_empty:
            return False
        return self.lo - tol <= a <= self.hi + tol


def set_lie_derivative(Fset: Polytope, grad: Polytope, *, pivot_tol: float = 1e-10) -> LieInterval:
    """Interval of values a for which some v in Fset has zeta . v = a for
    every zeta in the gradient polytope.

    The feasible v form the slice of Fset where all gradient differences are
    orthogonal; the interval endpoints come from two LPs over the slice in
    convex-combination coordinates.  Gradient vertex differences are reduced
    to an independent set first, so duplicated vertices are harmless.
    """
    if Fset.is_empty or grad.is_empty:
        raise EmptySetError("set_lie_derivative needs nonempty polytopes")
    if Fset.dim != grad.dim:
        raise DimensionMismatchError("field and gradient dimensions differ")
    zeta0 = grad.vertices[0]
    diffs = grad.vertices[1:] - zeta0
    rows = _independent_rows(diffs, pivot_tol)

    V = Fset.vertices
    k = V.shape[0]
    n_eq = 1 + len(rows)
    A = np.zeros((n_eq, k))
    b = np.zeros(n_eq)
    A[0, :] = 1.0
    b[0] = 1.0
    for r, row in enumerate(rows):
        A[1 + r, :] = V @ row
    w = V @ zeta0

    lo_res = solve_lp(w, A, b)
    if lo_res.status == INFEASIBLE:
        return LieInterval.empty()
    hi_res = solve_lp(-w, A, b)
    if lo_res.status != OPTIMAL or hi_res.status != OPTIMAL:  # pragma: no cover
        raise SolverError("Lie-derivative LP failed")
    return LieInterval.closed(lo_res.value, -hi_res.value)


def _independent_rows(M: np.ndarray, pivot_tol: float) -> list[np.ndarray]:
    """Row-reduce M and keep the numerically independent rows."""
    if M.size == 0:
        return []
    work = M.astype(float).copy()
    scale = max(1.0, float(np.max(np.abs(work))))
    out: list[np.ndarray] = []
    cols = work.shape[1]
    row_idx = 0
    for col in range(cols):
        if row_idx >= work.shape[0]:
            break
        pivots = np.abs(work[row_idx:, col])
        best = int(np.argmax(pivots)) + row_idx
        if np.abs(work[best, col]) <= pivot_tol * scale:
            continue
        work[[row_idx, best]] = work[[best, row_idx]]
        for r in range(work.shape[0]):
            if r != row_idx:
                work[r] -= work[r, col] / work[row_idx, col] * work[row_idx]
        out.append(M[0] * 0 + work[row_idx])  # copy of the reduced row
        row_idx += 1
    return out


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

    M = prox.vertices @ Fset.vertices.T
    lower = LieInterval.closed(float(M.min()), maximin_value(prox, Fset))
    upper = LieInterval.closed(-maximin_value(prox, Fset.scaled(-1.0)), float(M.max()))
    return lower, upper


# ---------------------------------------------------------------------------
# Sampling grids.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """Rectangular sampling grid with an optional exclusion predicate."""

    lows: tuple[float, ...]
    highs: tuple[float, ...]
    counts: tuple[int, ...]
    exclude: Callable[[np.ndarray], bool] | None = None

    @classmethod
    def parse(cls, text: str, exclude=None) -> "GridSpec":
        """Parse ``lo:hi:n,lo:hi:n,...``."""
        lows, highs, counts = [], [], []
        for part in text.split(","):
            lo, hi, n = part.split(":")
            lows.append(float(lo))
            highs.append(float(hi))
            counts.append(int(n))
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
    """Predicate dropping points within ``band`` of any listed coordinate axis."""

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
        return {
            "schema": 1,
            "verdict": self.verdict,
            "theorem": self.theorem,
            "checked_points": self.checked_points,
            "witness": self.witness,
            "failed_clause": self.failed_clause,
            "grid": self.grid,
            "details": self.details,
        }


FieldSource = Callable[[np.ndarray], Polytope]


def _upper_lie_sup(prox: Polytope, Fset: Polytope) -> float:
    """sup of the upper Lie set: support maximized over prox vertices."""
    return max(support(Fset, zeta) for zeta in prox.vertices)


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
    checked = 0
    for x in region.points():
        prox = f.proximal(x)
        if prox is UNSUPPORTED or prox is ALL_SPACE:
            return StabilityReport(
                INCONCLUSIVE, theorem, checked, witness=x.tolist(),
                failed_clause="proximal-unavailable", grid=region.describe(),
            )
        checked += 1
        if prox.is_empty:
            continue  # sup(empty) = -inf passes vacuously
        Fset = F(x)
        val = maximin_value(prox, Fset) if kind == "weak" else _upper_lie_sup(prox, Fset)
        if val > tol:
            return StabilityReport(
                FALSIFIED, theorem, checked, witness=x.tolist(),
                failed_clause="lie-positive", grid=region.describe(),
                details={"value": val},
            )
    return StabilityReport(CERTIFIED, theorem, checked, grid=region.describe())


_THEOREMS = ("thm1", "thm1p", "thm3", "thm3p")


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
    f0 = f.value(x_e)
    use_gradient = theorem.startswith("thm1")
    strict = theorem.endswith("p")
    details: dict = {"offset": f0, "tol": tol, "margin": margin}
    if use_gradient and not f.regular:
        return StabilityReport(
            INCONCLUSIVE, theorem, 0, failed_clause="regularity-not-established",
            grid=region.describe(), details=details,
        )
    checked = 0
    for x in region.points():
        checked += 1
        at_equilibrium = bool(np.linalg.norm(x - x_e) <= 1e-12)
        if not at_equilibrium and f.value(x) - f0 <= 0:
            return StabilityReport(
                FALSIFIED, theorem, checked, witness=x.tolist(),
                failed_clause="positivity", grid=region.describe(), details=details,
            )
        if use_gradient:
            gr = f.gradient(x)
            if not gr.exact:
                return StabilityReport(
                    INCONCLUSIVE, theorem, checked, witness=x.tolist(),
                    failed_clause="gradient-inexact", grid=region.describe(),
                    details=details,
                )
            val = set_lie_derivative(F(x), gr.polytope).max_value()
        else:
            prox = f.proximal(x)
            if prox is UNSUPPORTED or prox is ALL_SPACE:
                return StabilityReport(
                    INCONCLUSIVE, theorem, checked, witness=x.tolist(),
                    failed_clause="proximal-unavailable", grid=region.describe(),
                    details=details,
                )
            val = -math.inf if prox.is_empty else _upper_lie_sup(prox, F(x))
        bound_ok = (val <= tol) if (not strict or at_equilibrium) else (val < -margin)
        if not bound_ok:
            return StabilityReport(
                FALSIFIED, theorem, checked, witness=x.tolist(),
                failed_clause="lie-bound", grid=region.describe(),
                details={**details, "value": val},
            )
    return StabilityReport(CERTIFIED, theorem, checked, grid=region.describe(), details=details)


def invariance_candidate_set(
    f: NsFunction,
    F: FieldSource,
    region: GridSpec,
    tol: float = 1e-8,
    *,
    use_upper: bool = False,
) -> np.ndarray:
    """Sampled points where 0 belongs to the (upper) set-valued Lie derivative.

    This is the candidate convergence locus of the invariance principle;
    trajectory limit sets should be intersected with it by the caller.
    """
    hits = []
    for x in region.points():
        if use_upper:
            prox = f.proximal(x)
            if prox is UNSUPPORTED or prox is ALL_SPACE:
                continue
            if prox.is_empty:
                continue
            _, upper = lower_upper_lie(F(x), prox)
            interval = upper
        else:
            gr = f.gradient(x)
            if not gr.exact:
                continue
            interval = set_lie_derivative(F(x), gr.polytope)
        if interval.contains(0.0, tol):
            hits.append(x)
    if not hits:
        return np.zeros((0, region.dim))
    return np.array(hits)
