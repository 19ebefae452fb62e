"""Trajectory generation for discontinuous dynamics.

The Filippov, Caratheodory and pointwise integrators share one stepping loop,
``_drive``, which owns the end-time test, the ``max_steps`` budget (one
``StepLimit`` event), the no-progress watchdog (a ``NoProgress`` event after
``NO_PROGRESS_STEPS`` steps that append no sample) and the fill that carries
a stopped state to ``t_end``, whose samples count against the same budget.
Each integrator supplies one step function.

The Filippov step runs fixed-step RK4 inside cells, localizes surface hits by
bisection on the step fraction, classifies the hit, and then either crosses
or slides, with per-step projection, on the active set S of one surface or
of several that meet (the tangent multilinear combination of the 2^|S| cells
around S).  A point where the least-norm selection of the convexified field
vanishes stops the trajectory (an inclusion equilibrium).

The Filippov and Caratheodory steps read the switching functions once per
sample (:func:`_end_values`): a step reads them at the end of its full RK4
step for its crossing and landing checks, and again only where it is cut at
a crossing, and the read at the sample it appends serves the next step.
Each read checks its state first, and a blow-up (a state or a norm that is
not finite) raises ModelError naming its time, as in the pointwise and
sample-and-hold runs.

Determinism: one run is single-threaded and fully determined by its inputs
and config.
"""

from __future__ import annotations

import functools
import io
import itertools
import math
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatchError, ModelError, NotSlidingError
from .fields import (
    CROSSING,
    REPULSIVE,
    SLIDING,
    TANGENT,
    ControlField,
    PiecewiseField,
    SwitchingSurface,
    _active,
    _face,
    _hull_at,
    _normal_kind,
    _sides,
    _tangent_combination,
    _tangent_pair,
    affine_cell,
    default_active_tol,
)
from .geometry import _least_norm_point, as_point, vector_norm
from .nonsmooth import Graph, NsFunction, disagreement_function

SURFACE_HIT = "SurfaceHit"
SLIDE_ENTER = "SlideEnter"
SLIDE_EXIT = "SlideExit"
CONVERGED = "Converged"
STEP_LIMIT = "StepLimit"
NO_PROGRESS = "NoProgress"

# Consecutive steps without a new sample after which a run is abandoned: the
# state is not converging, only cycling between phases at one time.
NO_PROGRESS_STEPS = 100
# Stall detection: Converged is declared once the average speed over this
# many consecutive steps drops below conv_tol.
STALL_WINDOW = 20
# A slide on one surface ends once its weight comes this close to 0 or 1.
SLIDING_EXIT_MARGIN = 1e-6
# Time rounding: a span that exceeds n dt_max by at most this is covered by
# n steps (see _step_count), and a run within this of t_end has ended.  Times
# summed step by step drift by more than an ulp (7.3 s of 1e-4 steps end
# 3.7e-12 s off); this sits far above that drift, and IntegratorConfig
# rejects a dt_max below 1000 TIME_SLACK, so it stays within 0.1% of a step.
TIME_SLACK = 1e-9
# Intervals a partition may have, as many as a grid may have points
# (lie.MAX_GRID_POINTS); bounds a schedule's memory and a run's time.
MAX_PARTITION_INTERVALS = 1_000_000
# Steps per block (_affine_block); no option, as blocks change no result.
AFFINE_BLOCK = 64

MODE_STOP = "STOP"


@dataclass(frozen=True)
class Event:
    time: float
    kind: str
    detail: str = ""


@dataclass(frozen=True)
class IntegratorConfig:
    dt_max: float = 1e-3
    event_refine_tol: float = 1e-10
    max_steps: int = 2_000_000
    conv_tol: float = 1e-8

    def __post_init__(self):
        for name in ("dt_max", "event_refine_tol", "conv_tol"):
            if not 0.0 < getattr(self, name) < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be finite and positive")
        if 1e-3 * self.dt_max < TIME_SLACK:
            raise ValueError(f"dt_max must be at least {1e3 * TIME_SLACK:g} (1000 TIME_SLACK)")
        if self.max_steps <= 0:
            raise ValueError("bad step limits")


def sign_string(sigma: Sequence[int]) -> str:
    return "".join("+" if s > 0 else "-" for s in sigma)


@functools.cache
def regular_mode(sigma: tuple[int, ...]) -> str:
    return "R:" + sign_string(sigma)


def sliding_mode(active: Sequence[int]) -> str:
    return "S:" + ",".join(str(i) for i in active)


class Trajectory:
    """Timestamped states with per-sample mode labels and an event log."""

    def __init__(self, times, states, modes, events=()):
        self.times = np.asarray(times, dtype=float)
        self.states = np.atleast_2d(np.asarray(states, dtype=float))
        self.modes = list(modes)
        self.events = list(events)
        if self.times.ndim != 1 or self.states.shape[0] != self.times.shape[0]:
            raise ValueError("times and states disagree")
        if len(self.modes) != self.times.shape[0]:
            raise ValueError("one mode label per sample required")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    def at(self, t: float) -> np.ndarray:
        """Linear interpolation of the stored samples."""
        return np.array(
            [np.interp(t, self.times, self.states[:, k]) for k in range(self.dim)]
        )

    def first_time(self, predicate: Callable[[np.ndarray], bool]) -> float | None:
        for t, x in zip(self.times, self.states):
            if predicate(x):
                return float(t)
        return None

    # -- serialization ----------------------------------------------------

    def to_csv(self) -> str:
        cols = ["t"] + [f"x{k + 1}" for k in range(self.dim)] + ["mode", "event"]
        by_time: dict[float, list[str]] = {}
        for ev in self.events:
            by_time.setdefault(ev.time, []).append(ev.kind)
        buf = io.StringIO()
        buf.write(",".join(cols) + "\n")
        # tolist() hands back Python floats, whose repr is the CSV text.
        for t, x, mode in zip(self.times.tolist(), self.states.tolist(), self.modes):
            ev = ";".join(by_time.get(t, ()))
            buf.write(",".join([repr(t), *map(repr, x), mode, ev]) + "\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "Trajectory":
        lines = [(n, ln) for n, ln in enumerate(text.splitlines(), 1) if ln.strip()]
        if not lines or not lines[0][1].startswith("t,"):
            raise ValueError("trajectory CSV needs a header line t,x1,...,mode,event")
        d = len(lines[0][1].split(",")) - 3
        times, states, modes, events = [], [], [], []
        for n, ln in lines[1:]:
            parts = ln.split(",")  # a mode such as S:0,1 spans several fields
            if len(parts) < d + 3:
                raise ValueError(f"trajectory CSV line {n} needs {d + 3} or more fields: {ln!r}")
            t = float(parts[0])
            times.append(t)
            states.append([float(v) for v in parts[1 : 1 + d]])
            modes.append(",".join(parts[1 + d : -1]))
            if parts[-1]:
                for kind in parts[-1].split(";"):
                    events.append(Event(t, kind))
        return cls(times, states, modes, events)

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "times": self.times.tolist(),
            "states": self.states.tolist(),
            "modes": self.modes,
            "events": [asdict(ev) for ev in self.events],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Trajectory":
        events = [Event(e["time"], e["kind"], e.get("detail", "")) for e in d["events"]]
        return cls(d["times"], d["states"], d["modes"], events)


class _Builder:
    """A trajectory under construction.  States go into one (capacity, d)
    array that doubles when full; times, modes and events stay in lists.
    Rows are never written twice, so a row read through ``x`` or ``states``
    keeps its values while the run goes on."""

    INITIAL_ROWS = 64

    def __init__(self, t0: float, x0: np.ndarray, mode: str):
        x0 = np.asarray(x0, dtype=float)
        self._buf = np.empty((self.INITIAL_ROWS, *x0.shape))
        self._buf[0] = x0
        self.times = [float(t0)]
        self.modes = [mode]
        self.events: list[Event] = []

    @property
    def t(self) -> float:
        return self.times[-1]

    @property
    def x(self) -> np.ndarray:
        return self._buf[len(self.times) - 1]

    @property
    def states(self) -> np.ndarray:
        """The stored states, a view of the buffer."""
        return self._buf[:len(self.times)]

    def _grow(self, rows: int):
        """Move the states into a buffer of at least ``rows`` rows."""
        buf = np.empty((max(rows, 2 * len(self._buf)), *self._buf.shape[1:]))
        n = len(self.times)
        buf[:n] = self._buf[:n]
        self._buf = buf

    def append(self, t: float, x: np.ndarray, mode: str):
        times = self.times
        n = len(times)
        if t <= times[-1]:
            t = np.nextafter(times[-1], math.inf)
        if n == len(self._buf):
            self._grow(n + 1)
        self._buf[n] = x
        times.append(float(t))
        self.modes.append(mode)

    def extend(self, times: list[float], states: np.ndarray, mode: str):
        """Append a sample per time and row of ``states`` (or one state for all)."""
        n, k = len(self.times), len(times)
        if n + k > len(self._buf):
            self._grow(n + k)
        self._buf[n:n + k] = states
        self.times.extend(times)
        self.modes.extend([mode] * k)

    def event(self, kind: str, detail: str = ""):
        self.events.append(Event(self.times[-1], kind, detail))

    def check_finite(self, start: int):
        """Raise ModelError naming the first state from row ``start`` on that
        is not finite.  A step x + h k keeps such a state non-finite, so the
        last row decides."""
        n = len(self.times)
        if not all(map(math.isfinite, self._buf[n - 1].tolist())):  # cheaper than np.isfinite
            rows = self._buf[start:n]
            k = start + int(np.argmin(np.isfinite(rows).all(axis=1)))
            raise ModelError(f"state is not finite at t={self.times[k]}: {self._buf[k].tolist()}")

    def stalled(self, window: int, conv_tol: float) -> bool:
        n = len(self.times)
        if n <= window:
            return False
        # append and hold keep the times strictly increasing, so dt > 0.
        dt = self.times[-1] - self.times[-1 - window]
        # True iff every displacement over the window is within the bound;
        # the first one beyond it (or NaN) settles the answer.
        bound = conv_tol * dt
        last = self._buf[n - 1]
        for row in self._buf[n - 1 - window:n - 1][::-1]:
            if not vector_norm(last - row) <= bound:
                return False
        return True

    def finish(self) -> Trajectory:
        return Trajectory(self.times, self.states.copy(), self.modes, self.events)


def rk4_step(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray, h: float,
             k1: np.ndarray | None = None) -> np.ndarray:
    """One classical RK4 step; ``k1`` is f(x) when the caller already has it."""
    if k1 is None:
        k1 = f(x)
    k2 = f(x + 0.5 * h * k1)
    k3 = f(x + 0.5 * h * k2)
    k4 = f(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _check_start(x0, t_end: float, dim: int | None = None) -> np.ndarray:
    """x0 as a float array; reject a run that could only fail, produce NaN
    states or take no step."""
    x = np.asarray(x0, dtype=float)
    if dim is not None and x.shape != (dim,):
        raise DimensionMismatchError(f"initial state of shape {x.shape}, model dimension {dim}")
    if not np.all(np.isfinite(x)):
        raise ModelError("initial state must be finite")
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise ModelError(f"t_end must be finite and positive, got {t_end}")
    return x


def _step_count(span: float, dt_max: float) -> int:
    """The number of steps of at most dt_max that cover span, where a span
    that exceeds n dt_max by at most TIME_SLACK (time rounding) takes n."""
    return max(1, math.ceil((span - TIME_SLACK) / dt_max))


def _fill_stopped(b: _Builder, t_end: float, dt: float, budget: int) -> bool:
    """Hold the stopped state at steps of dt up to t_end, writing at most
    ``budget`` samples; True when the budget ran out first.  The last
    sample is at t_end: it absorbs a remainder that is only rounding."""
    times = []
    t, t_end, dt = b.t, float(t_end), float(dt)
    stop = t_end - TIME_SLACK
    last = stop - dt  # from here on, t_end is one step away (_step_count)
    while t < stop and len(times) < budget:
        t = t_end if t >= last else t + dt
        times.append(t)
    b.extend(times, b.x, MODE_STOP)
    return t < stop


def _drive(b: _Builder, t_end: float, cfg: IntegratorConfig,
           step: Callable[[float], bool], block=None) -> Trajectory:
    """The one stepping loop: call ``step(h)`` with h = dt_max until t_end,
    the step budget, a stop, or a stretch of NO_PROGRESS_STEPS steps that
    append no sample.  The last step takes all the time left, which is
    dt_max or less, up to the rounding that :func:`_step_count` allows, so
    a run whose last step is not cut ends at t_end without a sliver step.

    ``step`` advances ``b`` by at most h and returns True once the state has
    stopped; the rest of the horizon is then filled with that state, one
    sample per dt_max, each counted against the budget.  After each other
    step, block(t_end, budget) may take up to ``budget`` steps at once, and
    a block that took all AFFINE_BLOCK steps is followed by the next block:
    it ends on a sample from which the single step would compute that
    block's first row.
    """
    steps = idle = 0
    dt = cfg.dt_max
    # As in _step_count, a horizon within TIME_SLACK still takes one step.
    while b.t < t_end - TIME_SLACK or not steps:
        steps += 1
        if steps > cfg.max_steps:
            b.event(STEP_LIMIT, "max_steps exceeded")
            break
        n = len(b.times)
        left = t_end - b.t
        if step(left if _step_count(left, dt) == 1 else dt):
            if _fill_stopped(b, t_end, dt, cfg.max_steps - steps):
                b.event(STEP_LIMIT, "max_steps exceeded")
            break
        k = AFFINE_BLOCK if block is not None else 0
        while k == AFFINE_BLOCK:
            k = block(t_end, cfg.max_steps - steps)
            steps += k
        idle = 0 if len(b.times) > n else idle + 1
        if idle >= NO_PROGRESS_STEPS:
            b.event(NO_PROGRESS, f"{idle} steps without a new sample")
            break
    return b.finish()


def _end_values(F: PiecewiseField, t: float, x: np.ndarray,
                refine_tol: float) -> tuple[list[float], float]:
    """The read of a sample: the switch values at x, the state at time t, and
    the activity band there, widened to ``refine_tol``.  A blow-up raises
    ModelError naming t: a state whose norm is not finite has an infinite
    band, inside which every surface would read as active."""
    band = default_active_tol(x)
    if not math.isfinite(band):
        raise ModelError(f"state norm is not finite at t={t}: {x.tolist()}")
    return F._switch_list(x), max(band, refine_tol)


def _first_crossing(flow, switches, start_vals, end_vals, x_end, watched, refine_tol):
    """Earliest crossing of a surface in ``watched`` within one step, located
    by bisection on the step fraction.

    flow(s) must return the state after advancing a fraction s of the step,
    x_end = flow(1.0) is its end, and ``start_vals`` and ``end_vals`` are the
    switch values at the two ends.  Returns (s, index, state) for the first
    crossing, or (1.0, None, x_end) when no watched surface changes sign.
    """
    best = (1.0, None, x_end)
    for i in watched:
        g0, g1 = start_vals[i], end_vals[i]
        if g0 == 0.0 or g0 * g1 >= 0.0:
            continue
        g = switches[i].value
        lo, hi = 0.0, 1.0
        x_hi = x_end
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            x_mid = flow(mid)
            gm = g(x_mid)
            if abs(gm) <= refine_tol:
                lo = hi = mid
                x_hi = x_mid
                break
            if g0 * gm > 0:
                lo = mid
            else:
                hi = mid
                x_hi = x_mid
            if hi - lo < 1e-15:
                break
        if best[1] is None or hi < best[0]:
            best = (hi, i, x_hi)
    return best


def _cell_flow(fn, x: np.ndarray, h: float):
    """flow(s): the RK4 step of the cell callable fn from x over s h.  A cell
    declared by :func:`~nsds.fields.affine_cell` takes it exactly, with no
    call of its callable: flow(1.0) is the cached map M x + k, and a
    bisection trial the quartic x + s d1 + ... + s^4 d4 with
    d_j = (h^j / j!) A^(j-1) (A x + c), whose terms its first trial builds.
    For any other callable the field at x is evaluated once and shared by
    every fraction."""
    aff = getattr(fn, "affine", None)
    if aff is None:
        fcell = lambda y: np.asarray(fn(y), dtype=float)
        k1 = fcell(x)
        return lambda s: rk4_step(fcell, x, s * h, k1)
    if aff.A is None:
        return lambda s: x + (s * h) * aff.c
    M, k = aff.step_map(h)
    d = []

    def flow(s: float) -> np.ndarray:
        if s == 1.0:
            return M.dot(x) + k
        if not d:
            d.append(h * (aff.A.dot(x) + aff.c))
            for j in (2, 3, 4):
                d.append((h / j) * aff.A.dot(d[-1]))
        return x + s * (d[0] + s * (d[1] + s * (d[2] + s * d[3])))

    return flow


def _cut_step(F: PiecewiseField, b: _Builder, flow, h: float, g, watched,
              refine_tol: float, mode: str):
    """Take the full step flow(1.0) from the last sample of b, whose switch
    values are g, cut it at the first crossing of a surface in ``watched``
    (see :func:`_first_crossing`), and append the state reached with
    ``mode``.  Returns (crossed surface or None, the read of that sample)."""
    t = b.t
    x_end = flow(1.0)
    end = _end_values(F, t + h, x_end, refine_tol)
    s, i, x = _first_crossing(flow, F.switches, g, end[0], x_end, watched, refine_tol)
    b.append(t + s * h, x, mode)
    if i is not None:
        end = _end_values(F, t + s * h, x, refine_tol)
    return i, end


def _off_window(b: _Builder, X: np.ndarray, rows: np.ndarray, moves: float) -> np.ndarray:
    """Whether each row ``rows`` of X, whose row 0 is b's last sample, lies
    more than ``moves`` from the sample STALL_WINDOW steps before it, or has
    no such sample: either way :meth:`_Builder.stalled` fails there."""
    lead = b.states[max(0, len(b.times) - STALL_WINDOW):-1]
    Y = np.concatenate([lead, X])  # X[j] is Y[len(lead) + j]
    back = rows + (len(lead) - STALL_WINDOW)
    off = back < 0
    near = ~off
    d = Y[rows[near] + len(lead)] - Y[back[near]]
    off[near] = np.sqrt((d * d).sum(axis=1)) > moves
    return off


def _affine_block(F: PiecewiseField, b: _Builder, step, mode: str, read, t_end: float,
                  budget: int, cfg: IntegratorConfig, S=()):
    """(steps taken, last read): up to AFFINE_BLOCK and ``budget`` full dt_max
    steps from b's last sample, short of the horizon's last and computed bit for
    bit as single steps: in a cell declared ``step`` (an AffineField), or along
    S by ``step``, the sliding vector of constant cells.  It keeps the prefix
    that single steps take unchanged: finite states that fail the stall check,
    because their step moves over twice the stall bound or, where it does not,
    they lie over that bound from the sample STALL_WINDOW steps back (see
    :func:`_off_window`), read by one product (``F._clear_rows``) off the
    surfaces beyond twice the band on their start sides and, on a slide, within
    event_refine_tol of the surfaces in S (so _project moves none) and 2.5 steps
    short of any predicted crossing at each step's end (so no step is clamped).
    Before it builds any row, it declines when the first step cannot be kept:
    it is the horizon's last, it fails both stall tests, or it ends on the far
    side of a surface off S or, on a slide, within its 2.5-step floor."""
    h, t0, x = cfg.dt_max, b.t, b.x
    if (step is None or F._switch_matrix is None or budget < 1
            or not (t0 < t_end - TIME_SLACK and _step_count(t_end - t0, h) > 1)):
        return 0, read
    G, offsets = F._switch_matrix
    face = np.array(_face(read[0], S))
    moves = 2.0 * cfg.conv_tol * STALL_WINDOW * h
    with np.errstate(all="ignore"):  # states past a blow-up are never appended
        if S or step.A is None:  # as rk4_step with every stage v, or _cell_flow: x + h c
            D = (h / 6.0) * (step + 2.0 * step + 2.0 * step + step) if S else h * step.c
            x1 = x + D
        else:  # as _cell_flow: M x + k
            M, k = step.step_map(h)
            x1 = M.dot(x) + k
        d1 = x1 - x
        if not (math.sqrt((d1 * d1).sum()) > moves  # the read's stall tests of step 1
                or _off_window(b, np.array([x, x1]), np.array([1]), moves)[0]):
            return 0, read
        floor = 2.5 * np.maximum(-G.dot(D) * face, 0.0) if S else 0.0
        if ((G.dot(x1) + offsets) * face <= floor)[face != 0].any():
            return 0, read  # the read asks for more: the floor plus an allowance
        t = list(itertools.accumulate([t0] + [h] * min(AFFINE_BLOCK, budget)))  # as single steps
        n = len(t) - 1
        while not (t[n - 1] < t_end - TIME_SLACK and _step_count(t_end - t[n - 1], h) > 1):
            n -= 1  # step n is the horizon's last or past it, and so is every later step
        X = np.empty((n + 1, x.shape[0]))
        X[0] = x
        if S or step.A is None:  # x + D, x + D + D, ...: the sums single steps make
            X[1:] = D
            np.cumsum(X, axis=0, out=X)
        else:  # M x + k, step by step
            X[1] = x1
            rows = list(X)
            for y0, y in zip(rows[1:], rows[2:]):
                M.dot(y0, out=y)
                y += k
        d = np.diff(X, axis=0)
        moving = np.sqrt((d * d).sum(axis=1)) > moves
        if not moving.all():  # the window test, only for the rows that fail the step test
            slow = np.flatnonzero(~moving)
            moving[slow] = _off_window(b, X, slow + 1, moves)
        plain = F._clear_rows(X[1:], face, cfg.event_refine_tol, floor) & moving
    n = n if plain.all() else int(plain.argmin())
    b.extend(t[1:n + 1], X[1:n + 1], mode)
    return n, _end_values(F, b.t, b.x, cfg.event_refine_tol) if n else read


class _FilippovRun:
    """The step function of a Filippov run: one regular, surface, corner or
    sliding step per call, with ``S`` the surfaces slid along (empty off
    surfaces) and ``lam`` the weights of their tangent combination.

    ``read`` is the (switch values, band) at the last sample: x0's labels
    the run, and :func:`_cut_step`, which appends every later sample,
    returns its read."""

    def __init__(self, F: PiecewiseField, x0: np.ndarray, cfg: IntegratorConfig):
        self.F = F
        self.cfg = cfg
        self.read = _end_values(F, 0.0, x0, cfg.event_refine_tol)
        g, band = self.read
        active = [j for j, v in enumerate(g) if _active(v, band)]
        label = sliding_mode(active) if active else regular_mode(_face(g, ()))
        self.b = _Builder(0.0, x0, label)
        self.S: tuple[int, ...] = ()
        self.lam = np.empty(0)
        self.stepped = None  # (step, sigma or S) of the step just taken, for block

    def block(self, t_end: float, budget: int) -> int:
        """The steps :func:`_affine_block` takes after the step just taken,
        or after the full blocks that followed it: a regular step in cell
        sigma, declared by the AffineField ``step``, that ended on no surface,
        or a full, unclamped slide along S between constant cells, by the
        sliding vector ``step``."""
        if self.stepped is None:
            return 0
        (g, band), (step, key) = self.read, self.stepped
        if not self.S and (any(_active(v, band) for v in g) or key != _face(g, ())):
            return 0
        mode = sliding_mode(key) if self.S else regular_mode(key)
        k, self.read = _affine_block(self.F, self.b, step, mode, self.read, t_end, budget,
                                     self.cfg, self.S)
        return k

    def _cut(self, flow, h: float, g, watched, mode: str) -> int | None:
        """Append the step flow cut at its first watched crossing; return
        that surface, or else the first watched one the sample lies on."""
        i, self.read = _cut_step(self.F, self.b, flow, h, g, watched,
                                 self.cfg.event_refine_tol, mode)
        if i is None:
            end_vals, band = self.read
            i = next((j for j in watched if _active(end_vals[j], band)), None)
        return i

    def step(self, h: float) -> bool:
        g, band = self.read
        active = [j for j, v in enumerate(g) if _active(v, band)]
        stopped, self.stepped = False, None
        if self.S:
            stopped = self._slide_step(h, g)
        elif not active:
            self._regular_phase(h, g, _face(g, ()))
        elif len(active) == 1:
            stopped = self._surface_phase(active[0], h, g)
        else:
            stopped = self._corner_phase(active, h, g)
        if not stopped and self.b.stalled(STALL_WINDOW, self.cfg.conv_tol):
            self.b.event(CONVERGED, "sliding stall" if self.S else "stall window")
            stopped = True
        return stopped

    def _regular_phase(self, h: float, g, sigma, skip=()):
        """One step of cell sigma's field, not watching the surfaces in
        ``skip`` or within ``event_refine_tol`` (it cannot cross those)."""
        tol = self.cfg.event_refine_tol
        watched = [j for j, v in enumerate(g) if j not in skip and not _active(v, tol)]
        fn = self.F._cell_fn(sigma)
        self.stepped = (getattr(fn, "affine", None), sigma)
        i = self._cut(_cell_flow(fn, self.b.x, h), h, g, watched, regular_mode(sigma))
        if i is not None:
            self.b.event(SURFACE_HIT, f"surface {i}")

    def _surface_phase(self, i: int, h: float, g) -> bool:
        kind, alpha, _ = _normal_kind(*_sides(self.F, self.b.x, i, g))
        if kind == SLIDING:
            self.b.event(SLIDE_ENTER, f"surface {i}")
            self.S = (i,)
            return False
        if kind == TANGENT:  # no transversal information
            return self._corner_phase([i], h, g)
        sigma = list(_face(g, ()))
        sigma[i] = 1 if kind == CROSSING and alpha > 0 else -1
        if kind == REPULSIVE:  # both sides are declared and push away: take the minus side
            self.b.event(SURFACE_HIT, f"repulsive branch {sign_string(sigma)}")
        self._regular_phase(h, g, tuple(sigma), skip=(i,))
        return False

    def _corner_phase(self, active: list[int], h: float, g, slide: bool = True) -> bool:
        """On the surfaces ``active``: stop where the least-norm selection of
        the Filippov set vanishes; else, if ``slide``, slide on several that
        admit a tangent combination; else take one regular step into the
        cell that the selection points into."""
        x = self.b.x
        rows = _hull_at(self.F, x, _face(g, active))
        v = _least_norm_point(rows)
        if float(np.linalg.norm(v)) <= max(self.cfg.conv_tol, 1e-12):
            self.b.event(CONVERGED, "least-norm selection vanished")
            return True
        normals = np.array([self.F.switches[j].grad(x) for j in active])
        if slide and len(active) > 1:
            try:
                _, self.lam = _tangent_combination(rows, normals)
                self.S = tuple(active)
                self.b.event(SLIDE_ENTER, f"surface {','.join(map(str, active))}")
                return False
            except NotSlidingError:
                pass
        sigma = list(_face(g, ()))
        for j, rate in zip(active, normals.dot(v)):
            sigma[j] = 1 if rate > 0 else -1
        self._regular_phase(h, g, tuple(sigma), skip=active)
        return False

    def _project(self, y: np.ndarray) -> np.ndarray:
        """Gauss-Newton projection of y onto the intersection of S."""
        surfaces = [self.F.switches[j] for j in self.S]
        for _ in range(12):
            gv = [s.value(y) for s in surfaces]
            if max(map(abs, gv)) <= self.cfg.event_refine_tol:
                break
            if len(gv) == 1:
                grad = surfaces[0].grad(y)
                y = y - gv[0] * grad / float(grad.dot(grad))
            else:
                y = y - np.linalg.lstsq(np.array([s.grad(y) for s in surfaces]), gv,
                                        rcond=None)[0]
        return y

    def _slide_step(self, h: float, g) -> bool:
        """One RK4 step of the tangent combination on S, each stage projected
        onto S, cut at the first crossing of another surface."""
        cfg, S, x = self.cfg, self.S, self.b.x
        fns = [self.F._cell_fn(c) for c in self.F.adjacent_cells(_face(g, S))]
        def combination(y):  # Newton starts from the weights at x
            values = [np.asarray(fn(y), dtype=float) for fn in fns]
            if len(values) == 2 == 2 ** len(S):  # one surface: the closed form, no stacking
                return _tangent_pair(*values, self.F.switches[S[0]].grad(y))
            normals = np.array([self.F.switches[j].grad(y) for j in S])
            return _tangent_combination(np.array(values), normals, self.lam)
        try:
            lam0 = self.lam
            v, self.lam = combination(x)
            lam = self.lam[0]
            if len(S) == 1 and (lam <= SLIDING_EXIT_MARGIN or lam >= 1.0 - SLIDING_EXIT_MARGIN):
                self.b.event(SLIDE_EXIT, f"surface {S[0]}: lambda={lam:.3g}")
                self.S = ()
                sigma = list(_face(g, ()))
                sigma[S[0]] = -1 if lam <= SLIDING_EXIT_MARGIN else 1
                self._regular_phase(h, g, tuple(sigma), skip=S)
                return False
            # Clamp the step to land just before the first predicted crossing
            # of any other surface: the sliding vector jumps there, and an RK4
            # stage straddling the jump corrupts the step.
            for j, s in enumerate(self.F.switches):
                if j in S:
                    continue
                rate = float(v.dot(s.grad(x)))
                if abs(g[j]) > cfg.event_refine_tol and abs(rate) > 1e-14:
                    tau = -g[j] / rate
                    if 0.0 < tau < 1.5 * h:
                        h = min(h, max(0.9999 * tau, tau - 1e-12))
            h = max(h, 1e-15)
            slide_vec = lambda y: combination(y)[0]
            flow = lambda s: self._project(rk4_step(slide_vec, x, s * h, v))
            j = self._cut(flow, h, g, [j for j in range(len(g)) if j not in S], sliding_mode(S))
        except NotSlidingError:
            self.b.event(SLIDE_EXIT, f"surface {','.join(map(str, S))}: tangency lost")
            self.S = ()
            # Several surfaces: leave now, or the slide could re-enter here.
            return len(S) > 1 and self._corner_phase(list(S), h, g, slide=False)
        if j is not None:
            # The next step, on S and j, stops, slides on all, or leaves.
            self.b.event(SURFACE_HIT, f"surface {j} while sliding on {','.join(map(str, S))}")
            self.S = ()
        elif h == cfg.dt_max and (len(S) == 1 or np.array_equal(self.lam, lam0)) and all(
                getattr(getattr(fn, "affine", None), "A", 0) is None for fn in fns):
            # Constant cells, and on several surfaces weights that Newton left
            # as they were: every stage and step slides by v.
            self.stepped = (v, S)
        return False


def integrate_filippov(F: PiecewiseField, x0, t_end: float,
                       cfg: IntegratorConfig | None = None) -> Trajectory:
    """Event-driven integration of the convexified dynamics of F."""
    cfg = cfg or IntegratorConfig()
    x0 = _check_start(x0, t_end, F.dim)
    run = _FilippovRun(F, x0, cfg)
    return _drive(run.b, float(t_end), cfg, run.step, run.block)


# ---------------------------------------------------------------------------
# Caratheodory integration: one-sided field values, no sliding.
# ---------------------------------------------------------------------------


def integrate_caratheodory(F: PiecewiseField, x0, t_end: float,
                           cfg: IntegratorConfig | None = None,
                           branch: tuple[int, ...] | None = None) -> Trajectory:
    """RK4 that always uses the one-sided limit from the current cell.

    Points inside the surface band keep the cell the trajectory came from
    (or the declared ``branch`` when starting on a surface); crossings are
    localized and stepped through.  No sliding is attempted, matching the
    almost-everywhere semantics of the integral form.
    """
    cfg = cfg or IntegratorConfig()
    x = _check_start(x0, t_end, F.dim)

    # The start's read picks the cell and serves the first step, as in _FilippovRun.
    tol = cfg.event_refine_tol
    g, band = read = _end_values(F, 0.0, x, tol)
    base = _face(g, [j for j, v in enumerate(g) if _active(v, band)])
    cells = [branch] if branch is not None and 0 in base else F.adjacent_cells(base)
    if not cells:
        raise ModelError(f"no declared cell adjacent to {x.tolist()}")
    sigma = tuple(cells[0])
    fn = None  # the callable of sigma from the last step's lookups, read by the block
    b = _Builder(0.0, x, regular_mode(sigma))

    def step(h: float) -> bool:
        nonlocal sigma, read, fn
        fn = F._cell_fn(sigma)
        watched = [j for j, v in enumerate(read[0]) if not _active(v, tol)]
        i, read = _cut_step(F, b, _cell_flow(fn, b.x, h), h, read[0], watched,
                            tol, regular_mode(sigma))
        if i is not None:
            b.event(SURFACE_HIT, f"surface {i}")
            new_sigma = sigma[:i] + (-sigma[i],) + sigma[i + 1:]
            new_fn = F.cell(new_sigma)
            if new_fn is not None:
                sigma, fn = new_sigma, new_fn
        return False

    def block(t_end: float, budget: int) -> int:
        nonlocal read
        aff = getattr(fn, "affine", None)
        k, read = _affine_block(F, b, aff, regular_mode(sigma), read, t_end, budget, cfg)
        return k

    return _drive(b, t_end, cfg, step, block)


# ---------------------------------------------------------------------------
# Pointwise discontinuous flows (least-norm / normalized / signed descent).
# ---------------------------------------------------------------------------


def integrate_pointwise(v_fn: Callable[[np.ndarray], np.ndarray], x0, t_end: float,
                        cfg: IntegratorConfig, *, method: str = "euler") -> Trajectory:
    """Fixed-step integration of a pointwise-selected flow with oscillation
    detection: once the last ``STALL_WINDOW`` = 20 samples all lie within
    5 dt_max of their mean, the state is declared converged and frozen.  A
    window whose first and last samples are more than 10 dt_max apart fails
    without computing the mean.

    The field value at the end of each step serves both the convergence test
    and the first stage of the next step, so v_fn runs once per stage.  A
    state that is not finite raises ModelError naming its time.
    """
    if method not in ("euler", "rk4"):
        raise ValueError("method must be euler or rk4")
    x = _check_start(x0, t_end)
    b = _Builder(0.0, x, "R:")
    radius = 5.0 * cfg.dt_max
    ends = 2.0 * radius * (1.0 + 1e-6)
    v = v_fn(x)

    def step(h: float) -> bool:
        nonlocal v
        x = b.x
        if method == "rk4":
            x_new = rk4_step(v_fn, x, h, k1=v)
        else:
            n_sub = 10
            x_new = x + (h / n_sub) * v
            for _ in range(n_sub - 1):
                x_new = x_new + (h / n_sub) * v_fn(x_new)
        b.append(b.t + h, x_new, "R:")
        b.check_finite(len(b.times) - 1)
        v = v_fn(x_new)
        if vector_norm(v) <= max(cfg.conv_tol, 1e-12):
            b.event(CONVERGED, "flow direction vanished")
            return True
        if len(b.times) > STALL_WINDOW:
            states = b.states
            # A window whose samples lie within radius of one point has its
            # ends within 2 radius of each other, up to a few roundings, so
            # ends farther apart than 2 radius (1 + 1e-6) settle the test.
            if vector_norm(states[-1] - states[-STALL_WINDOW]) <= ends:
                recent = states[-STALL_WINDOW:]
                off = recent - recent.sum(axis=0) / STALL_WINDOW  # np.mean, bit for bit
                if float(np.sqrt((off * off).sum(axis=1)).max()) <= radius:
                    b.event(CONVERGED, "oscillation window")
                    return True
        return False

    return _drive(b, t_end, cfg, step)


def gradient_flow(f: NsFunction, variant: str, x0, t_end: float,
                  cfg: IntegratorConfig | None = None) -> Trajectory:
    """Descent flows of f: ``natural`` follows the negated least-norm element
    of the gradient set, ``normalized`` the unit-speed gradient direction,
    ``signed`` the componentwise sign quantization.

    The flow is evaluated pointwise with the least-norm fallback on ties.
    For exact sliding, pass a piecewise model of the same flow to
    :func:`integrate_filippov` instead.
    """
    cfg = cfg or IntegratorConfig()
    if variant not in ("natural", "normalized", "signed"):
        raise ValueError("variant must be natural, normalized, or signed")
    # The flow keeps x0's shape, so one check covers every state.
    x0 = _check_start(x0, t_end, f.dim)

    if variant == "natural":
        if not f.regular:
            raise ModelError("natural descent flow needs a regular function")

        def v_fn(x):
            rows, exact = f._rows(x)
            if not exact:
                raise ModelError("natural descent flow needs exact gradients")
            return -_least_norm_point(rows)

        return integrate_pointwise(v_fn, x0, t_end, cfg, method="euler")

    def grad_vec(x):
        return _least_norm_point(f._rows(x)[0])

    if variant == "normalized":

        def v_fn(x):
            g = grad_vec(x)
            nrm = vector_norm(g)
            if nrm <= cfg.conv_tol:
                return np.zeros_like(g)
            return -g / nrm

        return integrate_pointwise(v_fn, x0, t_end, cfg, method="rk4")

    def v_fn(x):
        g = grad_vec(x)
        out = -np.sign(g)
        out[np.abs(g) <= cfg.conv_tol] = 0.0
        return out

    return integrate_pointwise(v_fn, x0, t_end, cfg)


# ---------------------------------------------------------------------------
# Consensus flows on graphs.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConsensusResult:
    trajectory: Trajectory
    consensus_value: float | None
    consensus_time: float | None
    final_spread: float


def sign_consensus_field(G: Graph) -> PiecewiseField:
    """Piecewise model of the componentwise sign-quantized descent of the
    disagreement: switching surfaces are the Laplacian rows of the agents
    with a neighbour, and each nonempty sign cell carries the constant field
    -sigma on those agents.  An isolated agent has no surface and stays
    still."""
    n = G.n
    if n > 12:
        raise ModelError("sign consensus is limited to 12 agents: a single slide step on the "
                         "intersection of |S| switching surfaces evaluates its 2^|S| cells")
    L = G.laplacian()
    agents = [i for i in range(n) if L[i, i] > 0]
    groups = [[agents.index(a) for a in comp] for comp in G.components() if len(comp) >= 2]
    switches = [SwitchingSurface.affine(L[a], 0.0, name=f"(Lp){a + 1}") for a in agents]

    @functools.cache
    def rule(sigma):
        # L p sums to zero over each connected component and is otherwise
        # free, so {p : sigma_k (L p)_k > 0} is nonempty exactly when every
        # component with an edge takes both signs.
        if any({sigma[k] for k in group} != {-1, 1} for group in groups):
            return None
        v = np.zeros(n)
        v[agents] = -np.array(sigma, dtype=float)
        return affine_cell(None, v)

    return PiecewiseField(n, switches, rule, name="sign_consensus")


def consensus_flow(G: Graph, variant: str, p0, t_end: float,
                   cfg: IntegratorConfig | None = None,
                   spread_tol: float = 1e-3) -> ConsensusResult:
    """Run the chosen descent flow of the disagreement function and report
    the consensus value once the state spread falls below the tolerance."""
    cfg = cfg or IntegratorConfig()
    if variant not in ("smooth", "norm", "sign"):
        raise ValueError("variant must be smooth, norm, or sign")
    if not 0.0 <= spread_tol < math.inf:  # NaN fails too: no spread falls below it
        raise ValueError(f"spread_tol must be finite and nonnegative, got {spread_tol}")
    if G.n == 0:
        raise ModelError("consensus needs at least one agent")
    if variant == "smooth":
        L = G.laplacian()
        field = PiecewiseField(G.n, [], {(): affine_cell(-L, np.zeros(G.n))}, name="laplacian_flow")
        tr = integrate_filippov(field, p0, t_end, cfg)
    elif variant == "norm":
        tr = gradient_flow(disagreement_function(G), "normalized", p0, t_end, cfg)
    else:
        tr = integrate_filippov(sign_consensus_field(G), p0, t_end, cfg)
    spreads = tr.states.max(axis=1) - tr.states.min(axis=1)
    reached = spreads <= spread_tol
    t_star = float(tr.times[reached.argmax()]) if reached.any() else None
    value = float(np.mean(tr.final_state)) if t_star is not None else None
    return ConsensusResult(tr, value, t_star, float(spreads[-1]))


# ---------------------------------------------------------------------------
# Sample-and-hold solutions of control systems.
# ---------------------------------------------------------------------------


def _cap_intervals(count: float) -> None:
    if count > MAX_PARTITION_INTERVALS:  # checked before anything is allocated
        raise ValueError(f"{count:.6g} intervals are more than {MAX_PARTITION_INTERVALS} intervals")


@dataclass(frozen=True)
class PartitionSchedule:
    """Increasing breakpoints s_0 < s_1 < ... < s_N of a time interval."""

    breakpoints: np.ndarray

    def __init__(self, breakpoints):
        pts = np.asarray(breakpoints, dtype=float)
        if (pts.ndim != 1 or pts.shape[0] < 2 or not np.all(np.isfinite(pts))
                or np.any(np.diff(pts) <= 0)):
            raise ValueError("breakpoints must be finite, strictly increasing, length >= 2")
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "breakpoints", pts)

    @classmethod
    def uniform(cls, t0: float, t1: float, n_intervals: int) -> "PartitionSchedule":
        if not isinstance(n_intervals, (int, np.integer)) or n_intervals < 1:
            raise ValueError(f"n_intervals={n_intervals!r} is not a positive integer")
        _cap_intervals(n_intervals)
        return cls(np.linspace(t0, t1, n_intervals + 1))

    @classmethod
    def with_diameter(cls, t0: float, t1: float, diam: float) -> "PartitionSchedule":
        span = t1 - t0
        if not (0 < diam < math.inf and 0 < span < math.inf):
            raise ValueError(f"diam={diam} and time span={span} must be finite and positive")
        _cap_intervals(span / diam)  # before math.ceil, which overflows on inf
        return cls.uniform(t0, t1, max(1, math.ceil(span / diam)))

    @property
    def diameter(self) -> float:
        return float(np.max(np.diff(self.breakpoints)))


def sample_and_hold(C: ControlField, feedback: Callable[[float, np.ndarray], np.ndarray],
                    schedule: PartitionSchedule, x0,
                    cfg: IntegratorConfig | None = None) -> Trajectory:
    """Hold the feedback fixed over each partition interval and integrate the
    resulting smooth dynamics with RK4 substeps: an interval of span s takes
    the :func:`_step_count` of s, the fewest substeps of at most dt_max that
    cover it, where a span only TIME_SLACK above n dt_max (time rounding)
    takes n.  Each substep appends a sample, so a run of n substeps has
    n + 1.  A state that is not finite at the end of an interval raises
    ModelError naming the first such time.  A ``StepLimit`` event ends the
    run before an interval whose substeps would exceed ``max_steps``.  A
    feedback value of a shape other than (control_dim,) raises
    DimensionMismatchError before its interval's first substep."""
    cfg = cfg or IntegratorConfig()
    # The schedule's span is finite and positive by construction.
    x = _check_start(x0, float(np.ptp(schedule.breakpoints)), C.dim)
    bp = schedule.breakpoints.tolist()
    b = _Builder(bp[0], x, "R:")
    steps = 0
    for s_prev, s_next in zip(bp[:-1], bp[1:]):
        span = s_next - s_prev
        n_sub = _step_count(span, cfg.dt_max)
        steps += n_sub
        if steps > cfg.max_steps:
            b.event(STEP_LIMIT, "max_steps exceeded")
            break
        x = b.x
        u = as_point(feedback(s_prev, x))
        if u.shape != (C.control_dim,):
            raise DimensionMismatchError(f"feedback at t={s_prev} has shape {u.shape}, "
                                         f"not control_dim ({C.control_dim},)")
        frozen = lambda y: np.asarray(C.dynamics(y, u), dtype=float)
        start = len(b.times)
        h = span / n_sub
        t = s_prev
        for k in range(n_sub):
            x = rk4_step(frozen, x, h)
            t += h
            if k == n_sub - 1:
                t = s_next
            b.append(t, x, "R:")
        b.check_finite(start)
    return b.finish()


# ---------------------------------------------------------------------------
# Limit sets.
# ---------------------------------------------------------------------------


# Trailing samples kept (evenly thinned) for the pairwise limit-set clustering.
LIMIT_SET_POINTS = 400


def limit_set_estimate(tr: Trajectory, tail_fraction: float,
                       radius: float = 1e-4) -> np.ndarray:
    """Cluster representatives (single linkage) of the trailing samples: a
    numerical estimate of the positive limit set."""
    if not 0 < tail_fraction <= 1:
        raise ValueError("tail_fraction must lie in (0, 1]")
    if not 0 < radius < math.inf:  # a NaN radius joined no two samples
        raise ValueError(f"radius must be finite and positive, got {radius}")
    n = tr.times.shape[0]
    start = int(n * (1.0 - tail_fraction))
    tail = tr.states[start:]
    if tail.shape[0] < 10:
        raise ValueError("trajectory tail too short for a limit-set estimate")
    if tail.shape[0] > LIMIT_SET_POINTS:
        idx = np.linspace(0, tail.shape[0] - 1, LIMIT_SET_POINTS).astype(int)
        tail = tail[idx]
    near = np.array([np.linalg.norm(tail - p, axis=1) <= radius for p in tail])
    edges = tuple(zip(*np.nonzero(np.triu(near, 1))))
    clusters = Graph(tail.shape[0], edges).components()
    return np.array([tail[sorted(members)].mean(axis=0) for members in clusters])
