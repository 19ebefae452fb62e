"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is pinned in the assertions below.
"""

import json
import math
import time

import numpy as np
from nsds.fields import PiecewiseField, SwitchingSurface, filippov_set
from nsds.geometry import ConvexPolygon, Polytope
from nsds.integrate import (
    IntegratorConfig,
    PartitionSchedule,
    consensus_flow,
    sample_and_hold,
)
from nsds.lie import GridSpec, exclude_band, lower_upper_lie, monotonicity_verdict
from nsds.nonsmooth import Graph, MaxOf, affine_atom, make_function, smq
from nsds.scenarios import MoveAwayLaw, cart_feedback, cart_input_field, get_scenario

from helpers import (
    central_difference_gradient,
    hausdorff_distance,
    maximin_lp_oracle,
    min_pairwise,
)


def report(num: int, ok: bool, text: str):
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num} failed: {text}"


def run_cli(*argv):
    import io
    from contextlib import redirect_stdout

    from nsds.cli import main

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    assert code == 0
    return buf.getvalue()


def test_criterion_01_filippov_closed_forms():
    start = time.monotonic()
    # Sign-function set at the discontinuity: the unit interval.
    out = json.loads(run_cli("filippov-set", "--function", "abs", "--point", "0"))
    P = Polytope.from_json_dict(out)
    d1 = hausdorff_distance(P, Polytope([[-1.0], [1.0]]))
    # Move-away square at the center and on a diagonal.
    out = json.loads(run_cli("filippov-set", "--scenario", "move_away_1",
                             "--point", "0,0"))
    d2 = hausdorff_distance(
        Polytope.from_json_dict(out),
        Polytope([[-1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, -1.0]]),
    )
    out = json.loads(run_cli("filippov-set", "--scenario", "move_away_1",
                             "--point", "0.5,0.5"))
    d3 = hausdorff_distance(Polytope.from_json_dict(out),
                            Polytope([[-1.0, 0.0], [0.0, -1.0]]))
    # Brick interval at rest.
    out = json.loads(run_cli("filippov-set", "--scenario", "brick", "--point", "0"))
    g, th, nu = 9.8, math.pi / 6, 1.0
    lo = g * (math.sin(th) - nu * math.cos(th))
    hi = g * (math.sin(th) + nu * math.cos(th))
    d4 = hausdorff_distance(Polytope.from_json_dict(out), Polytope([[lo], [hi]]))
    elapsed = time.monotonic() - start
    worst = max(d1, d2, d3, d4)
    report(1, worst <= 1e-9 and elapsed < 1.0,
           f"closed-form sets within {worst:.2e} (runtime {elapsed:.2f}s)")


def test_criterion_02_diagonal_slide():
    start = time.monotonic()
    sc = get_scenario("move_away_1")
    worst_track, worst_rest = 0.0, 0.0
    for a in (0.3, 0.7, -0.5):
        t_stop = 2.0 * abs(a)
        tr = sc.simulate([a, a], t_stop + 1.0)
        for t in np.linspace(0.0, t_stop, 400):
            expected = (a - 0.5 * np.sign(a) * t) * np.ones(2)
            worst_track = max(worst_track, float(np.max(np.abs(tr.at(t) - expected))))
        rest = [np.linalg.norm(x) for t, x in zip(tr.times, tr.states)
                if t >= t_stop + 1e-9]
        worst_rest = max(worst_rest, max(rest))
    elapsed = time.monotonic() - start
    report(2, worst_track <= 1e-4 and worst_rest <= 1e-6 and elapsed < 5.0,
           f"slide error {worst_track:.2e}, rest norm {worst_rest:.2e} "
           f"(runtime {elapsed:.2f}s)")


def test_criterion_03_brick_stopping():
    sc = get_scenario("brick")
    tr = sc.simulate([1.0], 1.0)
    decel = 9.8 * (math.cos(math.pi / 6) - math.sin(math.pi / 6))
    t_star = 1.0 / decel  # 0.27878 s
    t_hit = tr.first_time(lambda x: abs(x[0]) <= 1e-8)
    later = max(abs(x[0]) for t, x in zip(tr.times, tr.states) if t >= t_hit)
    ok_stop = abs(t_hit - t_star) <= 1e-3 and later <= 1e-8
    # Low friction never stops: velocity keeps growing on [0, 2].
    tr2 = sc.simulate([1.0], 2.0, overrides={"nu": 0.3})
    v = tr2.states[:, 0]
    ok_grow = np.all(v >= -1e-12) and np.all(np.diff(v) >= -1e-12) and v[-1] > v[0]
    report(3, ok_stop and ok_grow,
           f"stop time {t_hit:.5f} (target {t_star:.5f}), later |v| {later:.1e}, "
           f"low-friction growth {v[-1]:.2f}")


def test_criterion_04_oscillator_conservation_and_stability():
    tr = get_scenario("oscillator").simulate([1.0, 0.0], 20.0)
    drift = max(abs(abs(x[0]) + 0.5 * x[1] ** 2 - 1.0) for x in tr.states)
    out = json.loads(run_cli(
        "lyapunov", "--scenario", "oscillator", "--function", "energy_oscillator",
        "--theorem", "thm1", "--grid=-1:1:101,-1:1:101"))
    certified = out["verdict"] == "certified" and out["checked_points"] == 101 * 101
    tr2 = get_scenario("oscillator_dissipative").simulate([1.0, 0.0], 40.0)
    final = float(np.linalg.norm(tr2.final_state))
    report(4, drift <= 1e-4 and certified and final <= 1e-2,
           f"energy drift {drift:.1e}, thm1 {out['verdict']}, "
           f"dissipative |x(40)| {final:.1e}")


def test_criterion_05_gradient_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(1, 4))
        k = int(rng.integers(2, 6))
        slopes = rng.standard_normal((k, d))
        offsets = rng.standard_normal(k)
        f = MaxOf([affine_atom(slopes[i], offsets[i]) for i in range(k)])
        for _ in range(10):
            x = 2 * rng.random(d) - 1
            vals = slopes @ x + offsets
            top = vals.max()
            active = [i for i in range(k) if vals[i] >= top - 1e-9 * (1 + abs(top))]
            oracle = Polytope(slopes[active])
            gr = f.gradient(x)
            assert gr.exact
            worst = max(worst, hausdorff_distance(gr.polytope, oracle))
    # Smooth trees agree with central differences.
    worst_fd = 0.0
    import nsds.nonsmooth as nsf

    smooth = nsf.Sum([(1.0, nsf.half_square_atom(0, 3)),
                      (0.5, nsf.half_square_atom(1, 3)),
                      (-1.5, nsf.half_square_atom(2, 3))])
    for _ in range(50):
        x = 2 * rng.random(3) - 1
        got = smooth.gradient(x).polytope.vertices[0]
        worst_fd = max(worst_fd, float(np.max(np.abs(
            got - central_difference_gradient(smooth, x)))))
    elapsed = time.monotonic() - start
    report(5, worst <= 1e-8 and worst_fd <= 1e-5 and elapsed < 10.0,
           f"active-hull distance {worst:.1e}, finite-diff {worst_fd:.1e} "
           f"(runtime {elapsed:.2f}s)")


def test_criterion_06_descent_field_identity():
    # The convexified descent field of |x1| + |x2| equals the negated
    # gradient set everywhere, including the axes and origin.
    f = make_function("abs_sum", 2)
    quadrant_field = PiecewiseField(
        2,
        [SwitchingSurface.coordinate(0, 2), SwitchingSurface.coordinate(1, 2)],
        {(s1, s2): (lambda a, b: (lambda x: np.array([-a, -b])))(s1, s2)
         for s1 in (-1, 1) for s2 in (-1, 1)},
    )
    pts = [[0.0, 0.0], [0.0, 0.7], [0.0, -0.2], [0.5, 0.0], [-1.1, 0.0]]
    rng = np.random.default_rng(7)
    while len(pts) < 20:
        pts.append((2 * rng.random(2) - 1).tolist())
    worst = 0.0
    for p in pts:
        lhs = filippov_set(quadrant_field, p)
        rhs = f.gradient(p).polytope.scaled(-1.0)
        worst = max(worst, hausdorff_distance(lhs, rhs))
    report(6, worst <= 1e-6, f"descent-field identity within {worst:.1e} at 20 points")


def test_criterion_07_finite_time_consensus():
    t0 = time.monotonic()
    sign = consensus_flow(Graph.path(3), "sign", [0.0, 1.0, 5.0], 10.0)
    t_sign = time.monotonic() - t0
    ok_sign = (sign.consensus_time is not None and sign.consensus_time <= 10.0
               and abs(sign.consensus_value - 2.5) <= 1e-3
               and sign.final_spread <= 1e-3 and t_sign < 5.0)
    t0 = time.monotonic()
    norm = consensus_flow(Graph.path(3), "norm", [0.0, 1.0, 5.0], 10.0,
                          IntegratorConfig(dt_max=2e-4))
    t_norm = time.monotonic() - t0
    ok_norm = (norm.consensus_time is not None and norm.consensus_time <= 10.0
               and abs(norm.consensus_value - 2.0) <= 1e-3
               and norm.final_spread <= 1e-3 and t_norm < 5.0)
    report(7, ok_sign and ok_norm,
           f"sign -> {sign.consensus_value:.4f} at t={sign.consensus_time:.2f} "
           f"({t_sign:.2f}s), norm -> {norm.consensus_value:.4f} at "
           f"t={norm.consensus_time:.2f} ({t_norm:.2f}s)")


def test_criterion_08_boundary_distance_flow():
    sc = get_scenario("smq_flow")
    square = ConvexPolygon.square(1.0)
    rng = np.random.default_rng(99)
    worst_final, worst_dip = 0.0, 0.0
    finite_time = True
    for _ in range(10):
        x0 = 0.9 * (2 * rng.random(2) - 1)
        tr = sc.simulate(x0, 6.0)
        worst_final = max(worst_final, float(np.linalg.norm(tr.final_state)))
        finite_time &= any(e.kind == "Converged" for e in tr.events)
        vals = np.array([smq(square, x) for x in tr.states])
        worst_dip = max(worst_dip, float(np.max(-np.diff(vals), initial=0.0)))
    report(8, worst_final <= 1e-3 and worst_dip <= 1e-6 and finite_time,
           f"incenter distance {worst_final:.1e}, worst radius dip {worst_dip:.1e}, "
           f"finite-time stop {finite_time}")


def test_criterion_09_sphere_packing():
    law = MoveAwayLaw(ConvexPolygon.square(1.0), 5, tie_band=4e-3)
    x0 = law.random_interior_points(seed=5)
    tr = get_scenario("sphere_packing").simulate(x0, 20.0)
    hs = np.array([law.packing_radius(x) for x in tr.states])
    monotone = float(np.max(-np.diff(hs), initial=0.0)) <= 1e-6
    stationary = any(e.kind == "Converged" for e in tr.events)
    m0 = min_pairwise(x0)
    collision_free = min(min_pairwise(x) for x in tr.states) >= m0 - 1e-6
    report(9, monotone and stationary and collision_free,
           f"radius {hs[0]:.3f} -> {hs[-1]:.3f}, monotone {monotone}, "
           f"stationary {stationary}, collision-free {collision_free}")


def test_criterion_10_cart():
    start = time.monotonic()
    # (a) weak monotonicity certified off the discontinuity band, plus spot
    # values of the lower Lie derivative against the closed form.
    f = make_function("cart_lyapunov")
    source = lambda x: Polytope([-cart_input_field(x), cart_input_field(x)])
    grid = GridSpec.parse("-1:1:41,-1:1:41", exclude=exclude_band(1e-6, axes=(0,)))
    repw = monotonicity_verdict("weak", f, source, grid)
    rng = np.random.default_rng(11)
    worst_spot = 0.0
    for _ in range(20):
        x = 2 * rng.random(2) - 1
        if abs(x[0]) <= 1e-3:
            x[0] = 0.5
        lower, _ = lower_upper_lie(source(x), f.proximal(x))
        s = math.hypot(x[0], x[1])
        expected = -(s ** 3) / (s + abs(x[0]))
        worst_spot = max(worst_spot, abs(lower.hi - expected), abs(lower.lo - expected))
    # (b) sample-and-hold feedback reaches the target ball, with the
    # candidate function nonincreasing across sample instants.
    cart = get_scenario("cart").build()
    schedule = PartitionSchedule.with_diameter(0.0, 30.0, 1e-3)
    tr = sample_and_hold(cart, cart_feedback(1.0), schedule, [0.6, 0.3])
    reach = tr.first_time(lambda x: np.linalg.norm(x) <= 0.05)
    vals = np.array([f(x) for x in tr.states])
    worst_inc = float(np.max(np.diff(vals), initial=0.0))
    elapsed = time.monotonic() - start
    ok = (repw.verdict == "certified" and worst_spot <= 1e-8
          and reach is not None and worst_inc <= 1e-6 and elapsed < 60.0)
    report(10, ok,
           f"prop13w {repw.verdict}, spot error {worst_spot:.1e}, reach t={reach}, "
           f"worst f increase {worst_inc:.1e} (runtime {elapsed:.1f}s)")


def test_criterion_11_sample_and_hold_arithmetic():
    from nsds.fields import ControlField

    C = ControlField(1, 1, lambda x, u: u.copy(), Polytope.interval(-10.0, 10.0))
    schedule = PartitionSchedule.uniform(0.0, 1.0, 4)
    tr = sample_and_hold(C, lambda t, x: x.copy(), schedule, [1.0])
    err = abs(tr.final_state[0] - 2.44140625)
    report(11, err <= 1e-9, f"pi-solution endpoint error {err:.1e}")


def test_criterion_12_maximin_vs_brute_force():
    rng = np.random.default_rng(31)
    worst_exact, worst_grid_gap = 0.0, 0.0
    from nsds.geometry import maximin_value

    for _ in range(100):
        d = int(rng.integers(1, 4))
        A = Polytope(2 * rng.random((int(rng.integers(1, 7)), d)) - 1)
        B = Polytope(2 * rng.random((int(rng.integers(1, 7)), d)) - 1)
        val = maximin_value(A, B)
        # Exact independent brute-force value (external LP on the same game).
        worst_exact = max(worst_exact, abs(val - maximin_lp_oracle(A, B)))
        # Dense hull sampling never exceeds the reported optimum.
        zs = _hull_grid(rng, A, 200)
        grid_val = float(np.max(np.min(zs @ B.vertices.T, axis=1)))
        assert grid_val <= val + 1e-9
        worst_grid_gap = max(worst_grid_gap, val - grid_val)
    report(12, worst_exact <= 1e-4,
           f"LP vs brute force {worst_exact:.1e} over 100 pairs "
           f"(grid lower-bound gap {worst_grid_gap:.1e})")


def _hull_grid(rng, P: Polytope, count: int) -> np.ndarray:
    pts = [v for v in P.vertices]
    n = P.n_vertices
    for i in range(n):
        for j in range(i + 1, n):
            for s in np.linspace(0.0, 1.0, 9)[1:-1]:
                pts.append((1 - s) * P.vertices[i] + s * P.vertices[j])
    while len(pts) < count:
        w = rng.random(n)
        w /= w.sum()
        pts.append(w @ P.vertices)
    return np.array(pts)
