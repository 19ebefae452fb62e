"""Seeded job lists for the benchmark workloads, with reference checks.

A job is one public ``nsds`` call.  Its inputs are drawn from the workload
seed in :func:`generate`; :func:`prepare` then builds the models, functions,
grids and schedules the calls need, so only the call itself is timed.

Every job has a reference check and an output fingerprint, both run outside
the timed region.  The checks reuse the invariants and tolerances of the
acceptance suite: energy drift <= 1e-4, slide tracking <= 1e-4, consensus
spread <= 1e-3, packing-radius dip <= 1e-6, cart Lyapunov increase <= 1e-6,
and the expected verdict per theorem and scenario.

Jobs call into ``nsds`` through module attributes looked up at call time
(``integrate.consensus_flow``, not a name bound at import), so the traced
run can rebind those names without rebuilding the jobs.
"""

from __future__ import annotations

import collections
import hashlib
import io
import json
import math
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import nsds.cli as cli
from nsds.geometry import ConvexPolygon
import nsds.fields as fields
import nsds.integrate as integrate
import nsds.lie as lie
import nsds.nonsmooth as nonsmooth
import nsds.scenarios as scenarios

WORKLOADS = ("filippov", "certify", "fixed_step")

# Brick on the default ramp (theta = pi/6, nu = 1, g = 9.8): constant
# deceleration while sliding down, so v(t) = v0 - BRICK_DECEL * t.
BRICK_DECEL = 9.8 * (math.cos(math.pi / 6) - math.sin(math.pi / 6))

# Agents closer than this to a wall or to each other are rejected when the
# packing configurations are sampled.  The move-away law ties an agent's
# nearest entities within a band of 4e-3 at the default step and then calls
# least_norm on the hull of their away directions.  A "free" start keeps
# every agent's two nearest distances PACK_TIE_MARGIN apart; a "tie" start
# has exactly one agent within PACK_TIE_GAP of a tie, so that agent slides
# along the tie from the first step, as agents do once packing nears
# equilibrium, while the others stay free.
PACK_MARGIN = 0.05
PACK_TIE_MARGIN = 0.02
PACK_TIE_GAP = 1e-3


@dataclass
class Job:
    kind: str
    params: dict
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when the output passes
    fingerprint: Callable[[object], tuple]
    functions: list = field(default_factory=list)  # NsFunction objects to trace


# ---------------------------------------------------------------------------
# Inputs.
# ---------------------------------------------------------------------------


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _level_point(rng, energy: float, lo: float = 0.2, hi: float = 0.9) -> list[float]:
    """Point on the oscillator level set |x1| + x2^2 / 2 = energy with
    |x1| / energy drawn from [lo, hi], mapped by a random point reflection."""
    u = rng.uniform(lo, hi)
    s = float(rng.choice([-1.0, 1.0]))
    return [s * energy * u, s * math.sqrt(2.0 * energy * (1.0 - u))]


def _square_symmetry(rng, p: list[float]) -> list[float]:
    """Image of p under a random symmetry of the square, which maps the
    move-away field to itself."""
    x, y = p if rng.random() < 0.5 else p[::-1]
    return [float(x * rng.choice([-1.0, 1.0])), float(y * rng.choice([-1.0, 1.0]))]


def _ring_point(rng, radius: float) -> list[float]:
    """Random point at sup-norm ``radius`` in the unit square."""
    return _square_symmetry(rng, [radius, rng.uniform(-radius, radius)])


def _path_profile(rng, n: int, spread: float) -> list[float]:
    """Agent values on a path graph: a monotone profile with range ``spread``
    whose inner values sit within 0.05 of even spacing, reversed and
    reflected at random (symmetries of the path flows), at a random offset."""
    inner = np.linspace(0.0, 1.0, n)[1:-1] + rng.uniform(-0.05, 0.05, n - 2)
    vals = np.concatenate([[0.0], inner, [1.0]])
    if rng.random() < 0.5:
        vals = vals[::-1]
    if rng.random() < 0.5:
        vals = 1.0 - vals
    return (rng.uniform(-1.0, 1.0) + spread * vals).tolist()


def _square_distances(pts: np.ndarray) -> np.ndarray:
    """Per agent: half distances to the other agents, then wall distances."""
    half = 0.5 * np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    np.fill_diagonal(half, np.inf)
    walls = np.concatenate([1.0 - pts, 1.0 + pts], axis=1)
    return np.concatenate([half, walls], axis=1)


def _packing_start(rng, n: int, tied: bool) -> list[float]:
    """Rejection-sample n agents in the unit square, away from the walls and
    from each other; with ``tied``, one agent starts at a tie between its
    nearest entities and the others away from ties, else all start away."""
    while True:
        pts = rng.uniform(-1.0 + PACK_MARGIN, 1.0 - PACK_MARGIN, (n, 2))
        d = np.sort(_square_distances(pts), axis=1)
        if d[:, 0].min() < PACK_MARGIN:
            continue
        gap = np.sort(d[:, 1] - d[:, 0])
        if tied and not (gap[0] < PACK_TIE_GAP and gap[1] >= PACK_TIE_MARGIN):
            continue
        if not tied and gap[0] < PACK_TIE_MARGIN:
            continue
        return pts.ravel().tolist()


def generate(workload: str, seed: int) -> list[tuple[str, dict]]:
    """The workload's job list: (kind, inputs) pairs drawn from the seed.

    The job kinds and sizes are fixed; the seed moves initial states and
    grid windows within bands, and through symmetries of each model, that
    leave the amount of work nearly unchanged, so that the timings of two
    seeds can be compared.
    """
    rng = _rng(workload, seed)
    jobs: list[tuple[str, dict]] = []
    if workload == "filippov":
        # At energy 0.02 the orbit's half period is 0.4, so each run crosses
        # the switching surface once.
        for _ in range(8):
            jobs.append(("oscillator", {"x0": _level_point(rng, 0.02), "t_end": 0.4}))
        for _ in range(3):
            jobs.append(("oscillator_dissipative",
                         {"x0": _level_point(rng, 0.01, 0.45, 0.55), "t_end": 0.7}))
        for _ in range(3):
            a = rng.uniform(0.05, 0.06) * float(rng.choice([-1.0, 1.0]))
            jobs.append(("move_away_1", {"a": a, "diagonal": float(rng.choice([-1.0, 1.0])),
                                         "t_end": 2.0 * abs(a) + 0.05}))
            start = [rng.uniform(0.12, 0.13), rng.uniform(0.05, 0.06)]
            jobs.append(("smq_flow", {"x0": _square_symmetry(rng, start), "t_end": 0.3}))
            jobs.append(("brick", {"v0": rng.uniform(0.4, 0.6), "t_end": 0.3}))
            jobs.append(("sign_consensus", {"p0": _path_profile(rng, 3, 0.1), "t_end": 0.3}))
        jobs.append(("caratheodory", {"x0": _level_point(rng, 0.02), "t_end": 0.4}))
        jobs.append(("cli_simulate", {"x0": _level_point(rng, 0.02), "t_end": 0.4}))
    elif workload == "certify":
        for _ in range(6):
            for kind in ("thm1", "prop13w", "thm3"):
                w = [rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)]
                jobs.append((kind, {"w": w, "n": [15, 15]}))
        for _ in range(2):
            jobs.append(("cli_lyapunov", {"w": rng.uniform(0.5, 1.5), "n": 11}))
    elif workload == "fixed_step":
        for n, tied in ((3, False), (4, False), (5, False), (4, False),
                        (3, True), (4, True), (5, True), (5, True)):
            jobs.append(("packing", {"n": n, "tied": tied, "x0": _packing_start(rng, n, tied),
                                     "t_end": 0.02}))
        for n in (3, 4, 3, 4):
            jobs.append(("norm_consensus", {"p0": _path_profile(rng, n, 0.1), "t_end": 0.3}))
        # One long run: consensus is reached early and the stopped fill
        # carries the trajectory to 20k samples, so trajectory storage
        # shows in peak_rss_mb.
        jobs.append(("norm_consensus", {"p0": _path_profile(rng, 3, 0.1), "t_end": 4.0}))
        for _ in range(8):
            jobs.append(("sample_hold", {"x0": _ring_point(rng, 0.6), "t_end": 0.3}))
        jobs.append(("cli_sample_hold", {"x0": _ring_point(rng, 0.6), "t_end": 0.3}))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    order = rng.permutation(len(jobs))
    return [jobs[i] for i in order]


def inputs_digest(specs: list[tuple[str, dict]]) -> str:
    return hashlib.sha256(json.dumps(specs, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Fingerprints and shared checks.
# ---------------------------------------------------------------------------


def _rounded(values) -> tuple[float, ...]:
    return tuple(round(float(v), 9) + 0.0 for v in np.ravel(values))


def _trajectory_fp(tr) -> tuple:
    events = collections.Counter(e.kind for e in tr.events)
    return (len(tr.times), tuple(sorted(events.items())), _rounded(tr.final_state))


def _energy_drift(states: np.ndarray) -> float:
    energy = np.abs(states[:, 0]) + 0.5 * states[:, 1] ** 2
    return float(np.max(np.abs(energy - energy[0])))


def _check_energy(tr) -> str | None:
    drift = _energy_drift(tr.states)
    return None if drift <= 1e-4 else f"energy drift {drift:.2e} > 1e-4"


def _converged(tr) -> bool:
    return any(e.kind == integrate.CONVERGED for e in tr.events)


def _cart_lyapunov(states) -> np.ndarray:
    f = nonsmooth.make_function("cart_lyapunov")
    return np.array([f.value(x) for x in states])


def _first_problem(*items: tuple[bool, str]) -> str | None:
    for ok, text in items:
        if not ok:
            return text
    return None


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _cli_summary(out: tuple[int, str]) -> dict:
    code, text = out
    if code != 0:
        raise RuntimeError(f"CLI exited with {code}")
    return json.loads(text)


def _fmt(values) -> str:
    return ",".join(repr(float(v)) for v in values)


# ---------------------------------------------------------------------------
# Job builders, one per kind.
# ---------------------------------------------------------------------------


def _oscillator(p, ctx) -> Job:
    sc = scenarios.get_scenario("oscillator")
    return Job("oscillator", p, lambda: sc.simulate(p["x0"], p["t_end"]),
               _check_energy, _trajectory_fp)


def _oscillator_dissipative(p, ctx) -> Job:
    sc = scenarios.get_scenario("oscillator_dissipative")

    def check(tr):
        final = float(np.linalg.norm(tr.final_state))
        return _first_problem(
            (final <= 1e-2, f"final |x| {final:.2e} > 1e-2"),
            (_converged(tr), "no Converged event"),
            (tr.modes[-1] == integrate.MODE_STOP, "trajectory does not end stopped"),
        )

    return Job("oscillator_dissipative", p, lambda: sc.simulate(p["x0"], p["t_end"]),
               check, _trajectory_fp)


def _move_away_1(p, ctx) -> Job:
    sc = scenarios.get_scenario("move_away_1")
    a, diag = p["a"], p["diagonal"]
    direction = np.array([1.0, diag])

    def check(tr):
        t_stop = 2.0 * abs(a)
        ts = np.linspace(0.0, t_stop, 400)
        expected = (a - 0.5 * np.sign(a) * ts)[:, None] * direction
        got = np.column_stack([np.interp(ts, tr.times, tr.states[:, k]) for k in range(2)])
        track = float(np.max(np.abs(got - expected)))
        rest = float(np.max(np.linalg.norm(tr.states[tr.times >= t_stop + 1e-9], axis=1)))
        return _first_problem((track <= 1e-4, f"slide error {track:.2e} > 1e-4"),
                              (rest <= 1e-6, f"rest norm {rest:.2e} > 1e-6"))

    return Job("move_away_1", p, lambda: sc.simulate([a, diag * a], p["t_end"]),
               check, _trajectory_fp)


def _smq_flow(p, ctx) -> Job:
    sc = scenarios.get_scenario("smq_flow")

    def check(tr):
        final = float(np.linalg.norm(tr.final_state))
        radius = 1.0 - np.max(np.abs(tr.states), axis=1)  # boundary distance
        dip = float(np.max(-np.diff(radius), initial=0.0))
        return _first_problem((final <= 1e-3, f"incenter distance {final:.2e} > 1e-3"),
                              (dip <= 1e-6, f"radius dip {dip:.2e} > 1e-6"),
                              (_converged(tr), "no finite-time stop"))

    return Job("smq_flow", p, lambda: sc.simulate(p["x0"], p["t_end"]), check, _trajectory_fp)


def _brick(p, ctx) -> Job:
    sc = scenarios.get_scenario("brick")
    v0 = p["v0"]

    def check(tr):
        t_hit = tr.first_time(lambda x: abs(x[0]) <= 1e-8)
        if t_hit is None:
            return "brick never stops"
        later = float(np.max(np.abs(tr.states[tr.times >= t_hit, 0])))
        t_star = v0 / BRICK_DECEL
        return _first_problem(
            (abs(t_hit - t_star) <= 1e-3, f"stop time {t_hit:.5f}, expected {t_star:.5f}"),
            (later <= 1e-8, f"later |v| {later:.1e} > 1e-8"))

    return Job("brick", p, lambda: sc.simulate([v0], p["t_end"]), check, _trajectory_fp)


def _consensus_fp(res) -> tuple:
    value = None if res.consensus_value is None else round(res.consensus_value, 9)
    return _trajectory_fp(res.trajectory) + (value,)


def _consensus_check(res, expected: float) -> str | None:
    if res.consensus_time is None:
        return "no consensus"
    return _first_problem(
        (res.final_spread <= 1e-3, f"final spread {res.final_spread:.2e} > 1e-3"),
        (abs(res.consensus_value - expected) <= 1e-3,
         f"consensus value {res.consensus_value:.6f}, expected {expected:.6f}"))


def _sign_consensus(p, ctx) -> Job:
    graph = nonsmooth.Graph.path(len(p["p0"]))
    # The sign flow on a path meets at the midrange of the initial values.
    midrange = 0.5 * (min(p["p0"]) + max(p["p0"]))
    return Job("sign_consensus", p,
               lambda: integrate.consensus_flow(graph, "sign", p["p0"], p["t_end"]),
               lambda res: _consensus_check(res, midrange), _consensus_fp)


def _caratheodory(p, ctx) -> Job:
    F = scenarios.get_scenario("oscillator").build()
    return Job("caratheodory", p,
               lambda: integrate.integrate_caratheodory(F, p["x0"], p["t_end"]),
               _check_energy, _trajectory_fp)


def _cli_simulate(p, ctx) -> Job:
    path = str(Path(ctx["tmpdir"]) / f"simulate-{ctx['index']}.csv")
    argv = ["simulate", "--scenario", "oscillator", f"--x0={_fmt(p['x0'])}",
            "--t-end", repr(p["t_end"]), "--out", path]

    def check(out):
        summary = _cli_summary(out)
        tr = integrate.Trajectory.from_csv(Path(path).read_text(encoding="utf-8"))
        if summary["samples"] != len(tr.times):
            return "CSV and summary disagree on samples"
        return _check_energy(tr)

    def fingerprint(out):
        s = _cli_summary(out)
        events = collections.Counter(e["kind"] for e in s["events"])
        return (s["samples"], tuple(sorted(events.items())), _rounded(s["final_state"]))

    return Job("cli_simulate", p, lambda: _run_cli(argv), check, fingerprint)


def _grid(p, exclude=None) -> lie.GridSpec:
    w = p["w"]
    return lie.GridSpec(tuple(-v for v in w), tuple(w), tuple(p["n"]), exclude)


def _report_fp(rep) -> tuple:
    witness = None if rep.witness is None else _rounded(rep.witness)
    return (rep.verdict, rep.checked_points, rep.failed_clause, witness)


def _oscillator_certify(theorem: str, p) -> tuple[Callable, list]:
    F = scenarios.get_scenario("oscillator").build()
    f = nonsmooth.make_function("energy_oscillator")
    source = lambda x: fields.filippov_set(F, x)  # noqa: E731
    grid = _grid(p)
    origin = np.zeros(2)
    return (lambda: lie.lyapunov_certify(theorem, f, source, origin, grid)), [f]


def _thm1(p, ctx) -> Job:
    run, fns = _oscillator_certify("thm1", p)
    expected = p["n"][0] * p["n"][1]

    def check(rep):
        return _first_problem((rep.verdict == lie.CERTIFIED, f"verdict {rep.verdict}"),
                              (rep.checked_points == expected,
                               f"checked {rep.checked_points} of {expected} points"))

    return Job("thm1", p, run, check, _report_fp, fns)


def _thm3(p, ctx) -> Job:
    # The upper Lie derivative is positive on the kink axis x1 = 0 away from
    # the origin, so the sweep stops at the first point of the middle column.
    run, fns = _oscillator_certify("thm3", p)
    first_kink = [0.0, -p["w"][1]]

    def check(rep):
        return _first_problem(
            (rep.verdict == lie.FALSIFIED, f"verdict {rep.verdict}"),
            (rep.failed_clause == "lie-bound", f"failed clause {rep.failed_clause}"),
            (rep.witness is not None
             and np.allclose(rep.witness, first_kink, rtol=0.0, atol=1e-9),
             f"witness {rep.witness}, expected {first_kink}"),
            (rep.checked_points == (p["n"][0] // 2) * p["n"][1] + 1,
             f"falsified after {rep.checked_points} points"))

    return Job("thm3", p, run, check, _report_fp, fns)


def _prop13w(p, ctx) -> Job:
    cart = scenarios.get_scenario("cart").build()
    f = nonsmooth.make_function("cart_lyapunov")
    source = lambda x: fields.control_inclusion(cart, x)  # noqa: E731
    grid = _grid(p, exclude=lie.exclude_band(1e-6, axes=(0,)))
    x1 = np.linspace(-p["w"][0], p["w"][0], p["n"][0])
    expected = int(np.sum(np.abs(x1) > 1e-6)) * p["n"][1]

    def check(rep):
        return _first_problem((rep.verdict == lie.CERTIFIED, f"verdict {rep.verdict}"),
                              (rep.checked_points == expected,
                               f"checked {rep.checked_points} of {expected} points"))

    return Job("prop13w", p, lambda: lie.monotonicity_verdict("weak", f, source, grid),
               check, _report_fp, [f])


def _cli_lyapunov(p, ctx) -> Job:
    w, n = p["w"], p["n"]
    axis = f"{-w!r}:{w!r}:{n}"
    argv = ["lyapunov", "--scenario", "oscillator", "--function", "energy_oscillator",
            "--theorem", "thm1", f"--grid={axis},{axis}"]

    def check(out):
        rep = _cli_summary(out)
        return _first_problem((rep["verdict"] == lie.CERTIFIED, f"verdict {rep['verdict']}"),
                              (rep["checked_points"] == n * n,
                               f"checked {rep['checked_points']} of {n * n} points"))

    def fingerprint(out):
        rep = _cli_summary(out)
        return (rep["verdict"], rep["checked_points"], rep["failed_clause"])

    return Job("cli_lyapunov", p, lambda: _run_cli(argv), check, fingerprint)


def _packing(p, ctx) -> Job:
    sc = scenarios.get_scenario("sphere_packing")
    n = p["n"]
    law = scenarios.MoveAwayLaw(ConvexPolygon.square(1.0), n)

    def check(tr):
        radius = np.array([law.packing_radius(x) for x in tr.states])
        dip = float(np.max(-np.diff(radius), initial=0.0))
        return _first_problem((dip <= 1e-6, f"packing-radius dip {dip:.2e} > 1e-6"),
                              (radius[-1] > radius[0], "packing radius did not grow"))

    return Job("packing", p, lambda: sc.simulate(p["x0"], p["t_end"], overrides={"n": n}),
               check, _trajectory_fp)


def _norm_consensus(p, ctx) -> Job:
    graph = nonsmooth.Graph.path(len(p["p0"]))
    cfg = integrate.IntegratorConfig(dt_max=2e-4)
    mean = float(np.mean(p["p0"]))  # the normalized flow keeps the average
    return Job("norm_consensus", p,
               lambda: integrate.consensus_flow(graph, "norm", p["p0"], p["t_end"], cfg),
               lambda res: _consensus_check(res, mean), _consensus_fp)


def _sample_hold(p, ctx) -> Job:
    cart = scenarios.get_scenario("cart").build()
    schedule = integrate.PartitionSchedule.with_diameter(0.0, p["t_end"], 1e-3)
    feedback = scenarios.cart_feedback(1.0)

    def check(tr):
        vals = _cart_lyapunov(tr.states)
        rise = float(np.max(np.diff(vals), initial=0.0))
        return _first_problem((rise <= 1e-6, f"Lyapunov increase {rise:.2e} > 1e-6"),
                              (vals[-1] < vals[0], "Lyapunov value did not decrease"))

    return Job("sample_hold", p,
               lambda: integrate.sample_and_hold(cart, feedback, schedule, p["x0"]),
               check, _trajectory_fp)


def _cli_sample_hold(p, ctx) -> Job:
    argv = ["sample-hold", "--scenario", "cart", f"--x0={_fmt(p['x0'])}",
            "--diam", "0.001", "--t-end", repr(p["t_end"])]
    start = float(_cart_lyapunov([p["x0"]])[0])

    def check(out):
        final = _cli_summary(out)["final_lyapunov"]
        return None if final < start else f"final Lyapunov {final} >= start {start}"

    def fingerprint(out):
        s = _cli_summary(out)
        return (_rounded(s["final_state"]), round(s["final_lyapunov"], 9))

    return Job("cli_sample_hold", p, lambda: _run_cli(argv), check, fingerprint)


BUILDERS = {
    "oscillator": _oscillator,
    "oscillator_dissipative": _oscillator_dissipative,
    "move_away_1": _move_away_1,
    "smq_flow": _smq_flow,
    "brick": _brick,
    "sign_consensus": _sign_consensus,
    "caratheodory": _caratheodory,
    "cli_simulate": _cli_simulate,
    "thm1": _thm1,
    "thm3": _thm3,
    "prop13w": _prop13w,
    "cli_lyapunov": _cli_lyapunov,
    "packing": _packing,
    "norm_consensus": _norm_consensus,
    "sample_hold": _sample_hold,
    "cli_sample_hold": _cli_sample_hold,
}


def prepare(specs: list[tuple[str, dict]], tmpdir: str) -> list[Job]:
    """Build every job of a generated list; ``tmpdir`` receives CLI output."""
    return [BUILDERS[kind](params, {"tmpdir": tmpdir, "index": i})
            for i, (kind, params) in enumerate(specs)]
