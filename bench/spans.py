"""Span tracing of ``nsds`` layers from the benchmark's own code.

:class:`Tracer` wraps the public functions listed in :data:`TARGETS`.  A
module-level function is rebound in every ``nsds`` module namespace that
holds it (so ``integrate.rk4_step`` and ``lie.solve_lp`` are both caught); a
method is wrapped on its class.  Wrappers are installed only around traced
rounds and removed afterwards, so untraced rounds run the original code.

Each span records its name, start, end, parent span and job.  Spans are
recorded only while a timed job runs and kept in memory in flat arrays.  At
the end of each traced round they are folded into per-name totals; the
first traced round's spans are kept and written out when the benchmark
ends.  A span's self time is its duration
minus the durations of its child spans; every job is itself a root span
named ``bench.job``, whose self time is the job time spent outside every
wrapped function.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np

import nsds.cli
import nsds.fields
import nsds.geometry
import nsds.integrate
import nsds.lie
import nsds.scenarios

JOB = "bench.job"
_MISSING = object()

# (span name, owner, attribute).  The owner is the defining module for a
# function and the class for a method.
TARGETS = [
    ("integrate.integrate_filippov", nsds.integrate, "integrate_filippov"),
    ("integrate.integrate_caratheodory", nsds.integrate, "integrate_caratheodory"),
    ("integrate.rk4_step", nsds.integrate, "rk4_step"),
    ("integrate.gradient_flow", nsds.integrate, "gradient_flow"),
    ("integrate.consensus_flow", nsds.integrate, "consensus_flow"),
    ("integrate.sample_and_hold", nsds.integrate, "sample_and_hold"),
    ("integrate.Trajectory.init", nsds.integrate.Trajectory, "__init__"),
    ("integrate.Trajectory.to_csv", nsds.integrate.Trajectory, "to_csv"),
    ("fields.PiecewiseField.cell_value", nsds.fields.PiecewiseField, "cell_value"),
    ("fields.PiecewiseField.switch_values", nsds.fields.PiecewiseField, "switch_values"),
    ("fields.sliding_field", nsds.fields, "sliding_field"),
    ("fields.filippov_set", nsds.fields, "filippov_set"),
    ("fields.classify_point", nsds.fields, "classify_point"),
    ("fields.control_inclusion", nsds.fields, "control_inclusion"),
    ("geometry.solve_lp", nsds.geometry, "solve_lp"),
    ("geometry.maximin_value", nsds.geometry, "maximin_value"),
    ("geometry.least_norm", nsds.geometry, "least_norm"),
    ("lie.set_lie_derivative", nsds.lie, "set_lie_derivative"),
    ("lie.lyapunov_certify", nsds.lie, "lyapunov_certify"),
    ("lie.monotonicity_verdict", nsds.lie, "monotonicity_verdict"),
    ("scenarios.MoveAwayLaw.direction", nsds.scenarios.MoveAwayLaw, "direction"),
    ("cli.main", nsds.cli, "main"),
]
# Wrapped on the NsFunction objects a job certifies, not on their classes,
# so the recursion inside an expression tree is one span.
FUNCTION_METHODS = [("nonsmooth.gradient", "gradient"), ("nonsmooth.proximal", "proximal")]

NAMES = [JOB] + [t[0] for t in TARGETS] + [n for n, _ in FUNCTION_METHODS]
MODULES = ["integrate", "fields", "geometry", "nonsmooth", "lie", "scenarios", "cli", "bench"]


class Tracer:
    def __init__(self):
        self._ids = {name: i for i, name in enumerate(NAMES)}
        self.name_id = array("i")
        self.parent = array("i")
        self.job_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self.round_calls: list[np.ndarray] = []  # per traced round, per span name
        self.round_self_s: list[np.ndarray] = []
        self._round_start = 0
        self._stack: list[int] = []
        self._job = -1
        self._undo: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._ids[name])
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job_id.append(self._job)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float):
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    def begin_round(self):
        self._round_start = len(self.start)

    def end_round(self):
        """Fold the round's spans into per-name totals.  Only the first
        traced round's spans are kept, to be written out at the end."""
        lo = self._round_start
        a = {key: value[lo:] for key, value in self.arrays().items()}
        dur = a["end"] - a["start"]
        covered = np.zeros_like(dur)
        child = a["parent"] >= 0
        np.add.at(covered, a["parent"][child] - lo, dur[child])
        self.round_calls.append(np.bincount(a["name"], minlength=len(NAMES)))
        self.round_self_s.append(np.bincount(a["name"], weights=dur - covered,
                                             minlength=len(NAMES)))
        if len(self.round_calls) > 1:
            for column in (self.name_id, self.parent, self.job_id, self.start, self.end):
                del column[lo:]

    def run_job(self, job_id: int, fn):
        """Run one timed job as a root span and return its result."""
        self._job = job_id
        idx = self._open(JOB)
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            self._close(idx, t0, time.perf_counter())
            self._job = -1

    def _wrap(self, name: str, fn, probe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._job < 0:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, t0, time.perf_counter())
            if probe is not None:
                probe(tracer.counters, args, result)
            return result

        return traced

    # -- installation -----------------------------------------------------

    def install(self, functions=()):
        """Wrap every target, and the gradient/proximal of ``functions``."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "nsds" or name.startswith("nsds."))]
        for name, owner, attr in TARGETS:
            original = owner.__dict__[attr]
            wrapped = self._wrap(name, original, PROBES.get(name))
            if isinstance(owner, type):
                self._rebind(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapped)
        for f in functions:
            for name, attr in FUNCTION_METHODS:
                self._rebind(f, attr, self._wrap(name, getattr(f, attr)))

    def _rebind(self, owner, attr: str, value):
        self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, previous = self._undo.pop()
            if previous is _MISSING:
                delattr(owner, attr)  # an instance attribute shadowing its class
            else:
                setattr(owner, attr, previous)

    # -- results ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "job": np.frombuffer(self.job_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path):
        np.savez(path, names=np.array(NAMES), **self.arrays())


# -- input-property probes ---------------------------------------------------


def _probe_least_norm(counters, args, result):
    k = args[0].n_vertices
    counters["share_1v" if k == 1 else "share_2v" if k == 2 else "share_3v_plus"] += 1


def _probe_lie(counters, args, result):
    fset, grad = args[0], args[1]
    if fset.n_vertices == 1 and grad.n_vertices == 1:
        counters["set_lie_derivative.singleton"] += 1


def _probe_lp(counters, args, result):
    if result.status == nsds.geometry.INFEASIBLE:
        counters["solve_lp.infeasible"] += 1


def _probe_trajectory(counters, args, result):
    trajectory = args[0]  # the instance __init__ has just filled
    counters["samples"] += len(trajectory.times)
    counters["events"] += len(trajectory.events)


PROBES = {
    "geometry.least_norm": _probe_least_norm,
    "lie.set_lie_derivative": _probe_lie,
    "geometry.solve_lp": _probe_lp,
    "integrate.Trajectory.init": _probe_trajectory,
}


def _share(part: float, whole: float) -> float:
    return float(part / whole) if whole else 0.0


def layer_metrics(tracer: Tracer, traced_wall: float,
                  untraced_wall: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced round, keyed by metric name.

    Calls and counters repeat exactly from round to round; each self time
    is the smallest over the traced rounds, like the end-to-end times.
    """
    n_rounds = len(tracer.round_calls)
    calls = np.min(tracer.round_calls, axis=0)
    self_s = np.min(tracer.round_self_s, axis=0)
    c = {k: v / n_rounds for k, v in tracer.counters.items()}
    out: dict[str, tuple[float, str]] = {}
    for i, name in enumerate(NAMES):
        out[f"{name}.calls"] = (float(calls[i]), "count")
        out[f"{name}.self_s"] = (float(self_s[i]), "s")
    rk4 = calls[NAMES.index("integrate.rk4_step")]
    samples = c.get("samples", 0.0)
    out["integrate.samples"] = (samples, "count")
    out["integrate.events"] = (c.get("events", 0.0), "count")
    out["integrate.rk4_per_sample"] = (_share(rk4, samples), "ratio")
    lp = calls[NAMES.index("geometry.solve_lp")]
    out["geometry.solve_lp.infeasible_share"] = (_share(c.get("solve_lp.infeasible", 0.0), lp),
                                                 "ratio")
    ln = calls[NAMES.index("geometry.least_norm")]
    for share in ("share_1v", "share_2v", "share_3v_plus"):
        out[f"geometry.least_norm.{share}"] = (_share(c.get(share, 0.0), ln), "ratio")
    lie_calls = calls[NAMES.index("lie.set_lie_derivative")]
    out["lie.set_lie_derivative.singleton_share"] = (
        _share(c.get("set_lie_derivative.singleton", 0.0), lie_calls), "ratio")
    total = float(self_s.sum())
    for module in MODULES:
        part = sum(float(self_s[i]) for i, name in enumerate(NAMES)
                   if name.split(".")[0] == module)
        out[f"{module}.self_share"] = (_share(part, total), "ratio")
    out["trace.overhead_ratio"] = (traced_wall / untraced_wall - 1.0, "ratio")
    return out
