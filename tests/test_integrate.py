import collections
import hashlib
import itertools
import math
import re

import numpy as np
import pytest

from nsds.errors import DimensionMismatchError, ModelError
from nsds.fields import PiecewiseField, SwitchingSurface, affine_cell, filippov_set
from nsds.geometry import ConvexPolygon, Polytope
from nsds.integrate import (
    Event,
    IntegratorConfig,
    PartitionSchedule,
    Trajectory,
    _Builder,
    consensus_flow,
    gradient_flow,
    integrate_caratheodory,
    integrate_filippov,
    integrate_pointwise,
    limit_set_estimate,
    rk4_step,
    sample_and_hold,
    sign_consensus_field,
)
from nsds.nonsmooth import Graph, disagreement, make_function, smq
from nsds.scenarios import (
    MoveAwayLaw,
    cart_feedback,
    get_scenario,
    move_away_flow,
    move_away_square_field,
)
from nsds.fields import ControlField

from helpers import (
    ListBuilder,
    contains,
    count_polytopes,
    min_pairwise,
    move_away_direction_loop,
    sign_cell_lp_oracle,
)


def neg_sign_field():
    return PiecewiseField(
        1,
        [SwitchingSurface.coordinate(0, 1)],
        {(-1,): lambda x: np.array([1.0]), (1,): lambda x: np.array([-1.0])},
    )


def energy(x):
    return abs(x[0]) + 0.5 * x[1] ** 2


class TestTrajectoryType:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            Trajectory([0.0, 0.0], [[1.0], [1.0]], ["R:", "R:"])
        with pytest.raises(ValueError):
            Trajectory([0.0, 1.0], [[1.0], [1.0]], ["R:"])

    def test_csv_roundtrip_is_byte_identical(self):
        # The corner start writes the mode S:0,1, whose comma the reader must
        # keep inside the mode, and a Converged event on that row.
        for tr in (integrate_filippov(neg_sign_field(), [2.0], 3.0),
                   get_scenario("move_away_1").simulate([0.0, 0.0], 0.01)):
            text = tr.to_csv()
            again = Trajectory.from_csv(text)
            assert again.to_csv() == text
            assert again.modes == tr.modes
            assert [e.kind for e in again.events] == [e.kind for e in tr.events]

    def test_csv_is_the_repr_of_every_value(self):
        def per_value_csv(tr):
            by_time = {}
            for ev in tr.events:
                by_time.setdefault(ev.time, []).append(ev.kind)
            lines = ["t," + ",".join(f"x{k + 1}" for k in range(tr.dim)) + ",mode,event"]
            for t, x, mode in zip(tr.times, tr.states, tr.modes):
                row = [repr(float(t))] + [repr(float(v)) for v in x]
                lines.append(",".join(row + [mode, ";".join(by_time.get(float(t), []))]))
            return "\n".join(lines) + "\n"

        runs = (get_scenario("move_away_1").simulate([0.0, 0.0], 0.01),
                get_scenario("oscillator").simulate([0.02, 0.1], 0.4))
        assert "S:0,1" in runs[0].modes and runs[0].events and runs[1].events
        for tr in runs:
            assert tr.to_csv() == per_value_csv(tr)

    def test_json_roundtrip(self):
        tr = integrate_filippov(neg_sign_field(), [0.5], 1.0)
        d = tr.to_json_dict()
        assert d["schema"] == 1
        tr2 = Trajectory.from_json_dict(d)
        assert np.array_equal(tr.times, tr2.times)
        assert np.array_equal(tr.states, tr2.states)
        assert tr.modes == tr2.modes
        assert [e.kind for e in tr.events] == [e.kind for e in tr2.events]

    def test_absolute_continuity_surrogate(self):
        tr = integrate_filippov(move_away_square_field(), [0.5, 0.5], 2.0)
        vmax = 1.0  # field norms are at most 1 for this model
        steps = np.diff(tr.times)
        moves = np.linalg.norm(np.diff(tr.states, axis=0), axis=1)
        assert np.all(moves <= vmax * steps + 1e-9)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            IntegratorConfig(dt_max=0.0)
        with pytest.raises(ValueError):
            IntegratorConfig(max_steps=0)

    def test_dt_max_floor_keeps_time_slack_within_a_step(self):
        # TIME_SLACK is absolute: a 1e-10 s dt_max once took 1e-9 s steps.
        with pytest.raises(ValueError, match="dt_max must be at least 1e-06"):
            integrate_pointwise(lambda x: np.array([1.0]), [0.0], 1e-8,
                                IntegratorConfig(dt_max=1e-10), method="rk4")
        # At the floor, a span 9e-10 s over ten steps still takes ten.
        tr = integrate_pointwise(lambda x: np.array([1.0]), [0.0], 1e-5 + 9e-10,
                                 IntegratorConfig(dt_max=1e-6), method="rk4")
        assert len(tr.times) == 11
        assert np.max(np.diff(tr.times)) <= 1e-6 * (1.0 + 1e-3)

    @pytest.mark.parametrize("name", ["dt_max", "event_refine_tol", "conv_tol"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_tolerance_is_rejected(self, name, value):
        # nan <= 0 is False, so a NaN step used to be accepted and a run
        # then failed with "state is not finite at t=nan".
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            IntegratorConfig(**{name: value})

    def test_partition_schedule(self):
        sched = PartitionSchedule.uniform(0.0, 1.0, 4)
        assert sched.diameter == pytest.approx(0.25)
        assert np.max(np.diff(sched.breakpoints)) == pytest.approx(sched.diameter)
        with pytest.raises(ValueError):
            PartitionSchedule([0.0, 0.0, 1.0])


class TestFilippovIntegrator:
    def test_sign_field_closed_form(self):
        tr = integrate_filippov(neg_sign_field(), [2.0], 3.0)
        for t in (1.0, 2.0, 3.0):
            expected = max(2.0 - t, 0.0)
            assert abs(tr.at(t)[0] - expected) <= 1e-6

    def test_move_away_diagonal_slide(self):
        tr = integrate_filippov(move_away_square_field(), [0.5, 0.5], 2.0)
        for t in np.linspace(0.0, 1.0, 11):
            expected = (0.5 - 0.5 * t) * np.ones(2)
            assert np.max(np.abs(tr.at(t) - expected)) <= 1e-5
        assert np.linalg.norm(tr.final_state) <= 1e-6

    @pytest.mark.parametrize("declared", [False, True])
    def test_slide_exits_by_the_weight_margin(self, declared):
        # A slide on x2 = 0 whose weight on the + side tends to 1 as x1 rises
        # slowly to 0: the run leaves by the SLIDING_EXIT_MARGIN test before
        # tangency is lost.  Hit at t_h = 2.004e-4, then x1' = e (1 - 10 x1) /
        # (1 - x1) up to x1 = 0, whose closed form gives the exit time.
        e, dt = 0.01, 1e-4
        if declared:
            cells = {(1,): affine_cell([[0.0, 0.0], [1.0, 0.0]], [e, 0.0]),
                     (-1,): affine_cell(None, [10 * e, 1.0])}
        else:
            cells = {(1,): lambda x: np.array([e, x[0]]),
                     (-1,): lambda x: np.array([10 * e, 1.0])}
        F = PiecewiseField(2, [SwitchingSurface.coordinate(1, 2)], cells)
        tr = integrate_filippov(F, [-5e-4, 1e-7], 0.075, IntegratorConfig(dt_max=dt))
        assert [ev.kind for ev in tr.events] == ["SurfaceHit", "SlideEnter", "SlideExit"]
        assert tr.events[2].detail.startswith("surface 0: lambda=")
        assert tr.final_time == 0.075
        t_hit = (5e-4 - math.sqrt(25e-8 - 2e-9)) / e
        u0 = -5e-4 + e * t_hit
        t_exit = t_hit + (-u0 / 10.0 + 0.09 * math.log(1.0 - 10.0 * u0)) / e
        assert abs(t_exit - 0.049889) <= 1e-6
        assert abs(tr.events[2].time - t_exit) <= 2 * dt

    def test_brick_stopping_and_free_sliding(self):
        brick = get_scenario("brick")
        tr = brick.simulate([1.0], 1.0)
        decel = 9.8 * (1.0 * math.cos(math.pi / 6) - math.sin(math.pi / 6))
        t_star = 1.0 / decel
        t_hit = tr.first_time(lambda x: abs(x[0]) <= 1e-8)
        assert abs(t_hit - t_star) <= 1e-4
        later = [x[0] for t, x in zip(tr.times, tr.states) if t >= t_hit]
        assert max(abs(v) for v in later) <= 1e-8
        # Low friction: the brick accelerates and never stops.
        tr = brick.simulate([1.0], 2.0, overrides={"nu": 0.3})
        assert np.all(tr.states[:, 0] >= 1.0 - 1e-12)
        assert np.all(np.diff(tr.states[:, 0]) >= -1e-12)
        assert tr.final_state[0] > 1.0

    @staticmethod
    def circle_slide():
        """Cells rot(x) + x inside the unit circle and rot(x) - x outside, so
        the slide on the circle is the rotation x' = rot(x)."""
        rot = lambda x: np.array([-x[1], x[0]])
        circle = SwitchingSurface(lambda x: float(x @ x - 1.0), lambda x: 2.0 * x)
        return PiecewiseField(2, [circle], {(-1,): lambda x: rot(x) + x,
                                            (1,): lambda x: rot(x) - x})

    @staticmethod
    def equator_slide():
        """Cells rot(x) - s1 x - s2 e3 around the unit sphere (s1) and the
        plane x3 = 0 (s2): the slide on the equator is the rotation."""
        rot = lambda x: np.array([-x[1], x[0], 0.0])
        e3 = np.array([0.0, 0.0, 1.0])
        sphere = SwitchingSurface(lambda x: float(x @ x - 1.0), lambda x: 2.0 * x)
        cell = lambda s1, s2: lambda x: rot(x) - s1 * x - s2 * e3
        return PiecewiseField(3, [sphere, SwitchingSurface.coordinate(2, 3)],
                              {(s1, s2): cell(s1, s2) for s1 in (-1, 1) for s2 in (-1, 1)})

    @pytest.mark.parametrize("build, x0, mode", [
        ("circle_slide", [1.0, 0.0], "S:0"),
        ("equator_slide", [1.0, 0.0, 0.0], "S:0,1"),
    ])
    def test_slide_on_a_curved_surface_is_projected(self, build, x0, mode):
        # The slide is the rotation from x0, so x(1) = (cos 1, sin 1[, 0]).
        F = getattr(self, build)()
        exact = np.array([math.cos(1.0), math.sin(1.0), 0.0])[:len(x0)]
        errors = []
        for dt in (0.1, 0.05):
            tr = integrate_filippov(F, x0, 1.0, IntegratorConfig(dt_max=dt))
            assert len(tr.times) == round(1.0 / dt) + 1
            assert [e.kind for e in tr.events] == ["SlideEnter"]
            assert set(tr.modes) == {mode}
            for x in tr.states:
                assert max(abs(s.value(x)) for s in F.switches) <= 1e-10, x
            errors.append(float(np.linalg.norm(tr.final_state - exact)))
        assert errors[0] <= 1e-6
        assert math.log2(errors[0] / errors[1]) >= 3.5

    @pytest.mark.parametrize("declared", [False, True], ids=["callable", "affine_cell"])
    def test_transversal_crossing_against_its_closed_form(self, declared):
        # x' = x + 2 below x = 1 and x' = 1 + x above it, from x0 = 0: the
        # hit is at t* = ln 1.5, and x(t) = 2 e^(t - t*) - 1 after it.
        if declared:
            cells = {(-1,): affine_cell([[1.0]], [2.0]), (1,): affine_cell([[1.0]], [1.0])}
        else:
            cells = {(-1,): lambda x: x + 2.0, (1,): lambda x: 1.0 + x}
        F = PiecewiseField(1, [SwitchingSurface.affine([1.0], -1.0)], cells)
        t_star = math.log(1.5)
        errors = []
        for dt in (0.2, 0.1, 0.05, 0.025):
            tr = integrate_filippov(F, [0.0], 1.0, IntegratorConfig(dt_max=dt))
            [hit] = tr.events
            assert hit.kind == "SurfaceHit" and tr.final_time == 1.0
            before = tr.times < hit.time
            assert np.max(np.abs(tr.states[before, 0] - 2.0 * np.expm1(tr.times[before]))) <= 5e-5
            errors.append(abs(tr.final_state[0] - (2.0 * math.exp(1.0 - t_star) - 1.0)))
        assert errors[0] <= 5e-5
        assert min(math.log2(a / b) for a, b in zip(errors, errors[1:])) >= 3.5
        assert abs(hit.time - t_star) <= 1e-8

    def test_corner_slide_against_its_closed_form(self):
        # Cells (-s1 (1 + s1/2), -s2 (2 - s2), x3 (1 + s1/2)(1 + s2/4)) around
        # x1 = 0 and x2 = 0.  The bilinear weights (0.25, 0.75) of the s = +1
        # sides zero the first two components, so from (0, 0, 1) the run
        # slides on the corner with x3' = 0.75 * 1.125 x3 = 0.84375 x3.
        cell = lambda s1, s2: lambda x: np.array(
            [-s1 * (1 + 0.5 * s1), -s2 * (2 - s2), x[2] * (1 + 0.5 * s1) * (1 + 0.25 * s2)])
        switches = [SwitchingSurface.coordinate(0, 3), SwitchingSurface.coordinate(1, 3)]
        F = PiecewiseField(3, switches,
                           {(s1, s2): cell(s1, s2) for s1 in (-1, 1) for s2 in (-1, 1)})
        errors = []
        for dt in (0.2, 0.1, 0.05, 0.025):
            tr = integrate_filippov(F, [0.0, 0.0, 1.0], 1.0, IntegratorConfig(dt_max=dt))
            assert [(e.kind, e.detail) for e in tr.events] == [("SlideEnter", "surface 0,1")]
            assert set(tr.modes) == {"S:0,1"} and tr.final_time == 1.0
            assert np.all(tr.states[:, :2] == 0.0)
            errors.append(abs(tr.final_state[2] - math.exp(0.84375)))
        assert errors[0] <= 2e-5
        assert min(math.log2(a / b) for a, b in zip(errors, errors[1:])) >= 3.5

    def test_an_unprojected_step_leaves_the_circle(self):
        # RK4 does not keep |x| = 1 under the rotation, so the slide above
        # stays on the circle only through its projection.
        x = rk4_step(lambda y: np.array([-y[1], y[0]]), np.array([1.0, 0.0]), 0.1)
        assert abs(x @ x - 1.0) > 1e-10

    def test_repulsive_branch_is_deterministic_and_logged(self):
        sign = PiecewiseField(
            1, [SwitchingSurface.coordinate(0, 1)],
            {(-1,): lambda x: np.array([-1.0]), (1,): lambda x: np.array([1.0])},
        )
        tr1 = integrate_filippov(sign, [0.0], 1.0)
        tr2 = integrate_filippov(sign, [0.0], 1.0)
        assert np.array_equal(tr1.states, tr2.states)
        assert tr1.final_state[0] == pytest.approx(-1.0, abs=1e-9)  # lexicographic branch
        assert any("repulsive" in e.detail for e in tr1.events)

    def test_oscillator_energy_conservation(self):
        tr = get_scenario("oscillator").simulate([1.0, 0.0], 20.0)
        drift = max(abs(energy(x) - 1.0) for x in tr.states)
        assert drift <= 1e-4

    def test_sliding_consistency_invariant(self):
        F = move_away_square_field()
        tr = integrate_filippov(F, [0.7, 0.7], 1.0)
        idx = [k for k, m in enumerate(tr.modes) if m.startswith("S:")]
        checked = 0
        for k in idx[1:]:
            dt = tr.times[k] - tr.times[k - 1]
            if dt <= 1e-9:
                continue
            vel = (tr.states[k] - tr.states[k - 1]) / dt
            mid = 0.5 * (tr.states[k] + tr.states[k - 1])
            assert contains(filippov_set(F, mid), vel, 1e-4)
            checked += 1
        assert checked > 100

    def test_sliding_keeps_surface_tolerance(self):
        F = move_away_square_field()
        cfg = IntegratorConfig()
        tr = integrate_filippov(F, [0.6, 0.6], 1.0, cfg)
        for x, m in zip(tr.states, tr.modes):
            if m == "S:0":
                assert abs(x[1] - x[0]) <= 1e-8

    def test_step_limit_event(self):
        cfg = IntegratorConfig(max_steps=10)
        tr = integrate_filippov(neg_sign_field(), [5.0], 4.0, cfg)
        assert any(e.kind == "StepLimit" for e in tr.events)
        assert tr.final_time < 4.0

    def test_halving_dt_halves_terminal_error_bound(self):
        # First-order behaviour at sliding events: with the event tolerances
        # tied to the step, the terminal error obeys a bound proportional to
        # dt, so halving the step halves the bound.  (The realized error is
        # where bisection happens to land inside the band, so only the bound
        # is monotone.)
        cases = [(get_scenario("brick").build(), [1.0], 0.5),
                 (neg_sign_field(), [1.0], 1.5)]
        for field, x0, t_end in cases:
            for dt in (0.08, 0.04, 0.02, 0.01):
                cfg = IntegratorConfig(dt_max=dt, event_refine_tol=dt * 1e-3,
                                       conv_tol=dt * 1e-2)
                tr = integrate_filippov(field, x0, t_end, cfg)
                err = abs(tr.final_state[0] - 0.0)
                assert err <= 1.05 * dt * 1e-3

    @staticmethod
    def quadrant_field(value):
        """Switches on x1 and x2 of a 3-D state; value(sigma, x) is the field
        of each of the four quadrant cells."""
        switches = [SwitchingSurface.coordinate(0, 3), SwitchingSurface.coordinate(1, 3)]
        cells = {s: (lambda s: lambda x: np.array(value(s, x), dtype=float))(s)
                 for s in itertools.product((-1, 1), repeat=2)}
        return PiecewiseField(3, switches, cells)

    def test_slide_on_two_surfaces_holds_them_and_ends_at_t_end(self):
        # Both surfaces attract; after the second is reached at t = 0.3 the
        # state slides along their intersection, drifting in x3 only.
        F = self.quadrant_field(lambda s, x: (-s[0], -s[1], 1.0))
        tr = integrate_filippov(F, [0.3, 0.2, 0.0], 1.0, IntegratorConfig(dt_max=0.01))
        assert tr.final_time == 1.0
        assert ("SlideEnter", "surface 0,1") in [(e.kind, e.detail) for e in tr.events]
        late = tr.times > 0.3 + 1e-6
        assert np.count_nonzero(late) >= 60
        assert {tr.modes[k] for k in np.flatnonzero(late)} == {"S:0,1"}
        assert np.max(np.abs(tr.states[late, :2])) <= 1e-10
        assert abs(tr.final_state[2] - 1.0) <= 1e-9

    def test_slide_on_two_surfaces_ends_when_one_repels(self):
        # x2 = 0 attracts until x3 = 1.5 and repels after it; the slide on
        # both surfaces ends there and the run slides on x1 = 0 alone, while
        # x2 grows as (t - 1.5)^2 / 2.
        F = self.quadrant_field(lambda s, x: (-s[0], x[2] - 0.5 - s[1], 1.0))
        tr = integrate_filippov(F, [0.1, 0.1, 0.0], 2.5, IntegratorConfig(dt_max=0.01))
        events = [(e.kind, e.detail) for e in tr.events]
        assert ("SlideEnter", "surface 0,1") in events
        exits = [e for e in tr.events if e.kind == "SlideExit"]
        assert len(exits) == 1 and exits[0].detail == "surface 0,1: tangency lost"
        assert abs(exits[0].time - 1.5) <= 0.01
        assert "NoProgress" not in [k for k, _ in events] and tr.final_time == 2.5
        assert tr.modes[-1] == "S:0" and abs(tr.final_state[0]) <= 1e-9
        assert abs(tr.final_state[1] - 0.5) <= 0.02

    def test_transversal_corner_is_crossed(self):
        F = PiecewiseField(2, [SwitchingSurface.coordinate(0, 2), SwitchingSurface.coordinate(1, 2)],
                           {s: (lambda x: np.array([1.0, 1.0]))
                            for s in itertools.product((-1, 1), repeat=2)})
        tr = integrate_filippov(F, [-0.5, -0.5], 1.0, IntegratorConfig(dt_max=0.01))
        assert "SlideEnter" not in [e.kind for e in tr.events]
        assert tr.final_time == 1.0
        assert np.max(np.abs(tr.final_state - [0.5, 0.5])) <= 1e-9


class TestCaratheodory:
    def test_smooth_linear_field(self):
        F = PiecewiseField(1, [], {(): lambda x: -x})
        tr = integrate_caratheodory(F, [1.0], 1.0)
        assert abs(tr.final_state[0] - math.exp(-1.0)) <= 1e-8

    def test_oscillator_closed_orbit(self):
        F = get_scenario("oscillator").build()
        period = 4.0 * math.sqrt(2.0)
        tr = integrate_caratheodory(F, [1.0, 0.0], period)
        assert abs(energy(tr.final_state) - 1.0) <= 1e-4
        assert np.linalg.norm(tr.final_state - [1.0, 0.0]) <= 1e-3

    def test_declared_branch_field(self):
        # Field value +1 right of zero, -1 left; from 0 the declared branch
        # picks the one-sided solution x(t) = t.
        F = PiecewiseField(
            1, [SwitchingSurface.coordinate(0, 1)],
            {(-1,): lambda x: np.array([-1.0]), (1,): lambda x: np.array([1.0])},
        )
        tr = integrate_caratheodory(F, [0.0], 1.0, branch=(1,))
        assert abs(tr.final_state[0] - 1.0) <= 1e-9
        tr = integrate_caratheodory(F, [0.0], 1.0)  # default branch: lexicographic
        assert abs(tr.final_state[0] + 1.0) <= 1e-9

    def test_branch_may_be_a_list(self):
        F = PiecewiseField(
            1, [SwitchingSurface.coordinate(0, 1)],
            {(-1,): lambda x: np.array([-1.0]), (1,): lambda x: np.array([1.0])},
        )
        tr = integrate_caratheodory(F, [0.0], 0.5, branch=[1])
        ref = integrate_caratheodory(F, [0.0], 0.5, branch=(1,))
        assert len(tr.times) == 501 and tr.modes[0] == "R:+"
        assert tr.times.tobytes() == ref.times.tobytes()
        assert tr.states.tobytes() == ref.states.tobytes()
        assert tr.modes == ref.modes and tr.events == ref.events


class TestGradientFlows:
    def test_natural_abs_finite_time(self):
        tr = gradient_flow(make_function("abs"), "natural", [1.0], 2.0)
        t_hit = tr.first_time(lambda x: abs(x[0]) <= 1e-6)
        assert abs(t_hit - 1.0) <= 2e-3
        assert abs(tr.final_state[0]) <= 1e-6

    def test_normalized_quadratic_unit_rate(self):
        import nsds.nonsmooth as nsf

        q = nsf.Sum([(1.0, nsf.half_square_atom(0, 2)), (1.0, nsf.half_square_atom(1, 2))])
        x0 = np.array([0.6, 0.8])
        tr = gradient_flow(q, "normalized", x0, 2.0, IntegratorConfig(dt_max=2e-4))
        t_hit = tr.first_time(lambda x: np.linalg.norm(x) <= 5e-4)
        assert abs(t_hit - 1.0) <= 1e-3

    def test_natural_neg_smq_square_reaches_incenter(self):
        sc = get_scenario("smq_flow")
        tr = sc.simulate([0.7, 0.2], 3.0)
        assert np.linalg.norm(tr.final_state) <= 1e-3
        assert any(e.kind == "Converged" for e in tr.events)

    def test_monotone_descent_along_natural_flows(self):
        for name, x0 in (("abs_sum", [0.8, -0.6]), ("neg_smq", [0.7, 0.2])):
            f = make_function(name, 2)
            if name == "neg_smq":
                tr = integrate_filippov(move_away_square_field(), x0, 2.0)
            else:
                tr = gradient_flow(f, "natural", x0, 2.0)
            vals = np.array([f(x) for x in tr.states])
            assert np.all(np.diff(vals) <= 1e-8)

    def test_signed_abs_sum_stops_at_the_origin(self):
        tr = gradient_flow(make_function("abs_sum", dim=2), "signed", [0.3, -0.2], 1.0,
                           IntegratorConfig(dt_max=1e-2))
        assert len(tr.times) == 101
        assert [(e.kind, e.detail) for e in tr.events] == [("Converged", "flow direction vanished")]
        assert abs(tr.events[0].time - 0.3) <= 1e-2
        assert np.linalg.norm(tr.final_state) <= 1e-12

    def test_irregular_rejected(self):
        from nsds.errors import ModelError

        with pytest.raises(ModelError):
            gradient_flow(make_function("smq"), "natural", [0.5, 0.5], 1.0)


class TestConsensus:
    def test_sign_variant_max_min_average(self):
        res = consensus_flow(Graph.path(3), "sign", [0.0, 1.0, 5.0], 10.0)
        assert res.consensus_time is not None and res.consensus_time <= 10.0
        assert res.consensus_value == pytest.approx(2.5, abs=1e-3)
        assert res.final_spread <= 1e-3

    def test_norm_variant_average(self):
        res = consensus_flow(Graph.path(3), "norm", [0.0, 1.0, 5.0], 10.0,
                             IntegratorConfig(dt_max=2e-4))
        assert res.consensus_time is not None and res.consensus_time <= 10.0
        assert res.consensus_value == pytest.approx(2.0, abs=1e-3)
        assert res.final_spread <= 1e-3

    def test_smooth_variant_asymptotic_average(self):
        res = consensus_flow(Graph.path(3), "smooth", [0.0, 1.0, 5.0], 20.0)
        assert res.consensus_value == pytest.approx(2.0, abs=1e-6)
        assert res.final_spread <= 1e-3
        # Laplacian-flow oracle: eigendecomposition of the path graph.
        L = Graph.path(3).laplacian()
        w, V = np.linalg.eigh(L)
        p0 = np.array([0.0, 1.0, 5.0])
        expected = V @ (np.exp(-20.0 * w) * (V.T @ p0))
        assert np.allclose(res.trajectory.final_state, expected, atol=1e-5)

    def test_disagreement_decreases_along_sign_flow(self):
        G = Graph.path(3)
        res = consensus_flow(G, "sign", [0.0, 1.0, 5.0], 10.0)
        vals = [disagreement(G, p) for p in res.trajectory.states]
        assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))

    def test_sign_field_cells_exclude_impossible_signs(self):
        F = sign_consensus_field(Graph.path(3))
        assert F.cell((1, 1, 1)) is None
        assert F.cell((-1, -1, -1)) is None
        assert len(F.adjacent_cells((0, 0, 0))) == 6

    def test_sign_cells_against_external_lp(self):
        # Every graph on at most 4 vertices, plus path, complete and
        # two-component graphs on 6.  An isolated agent has no switching
        # surface, so the oracle sees the rows of the other agents only.
        graphs = [Graph.path(6), Graph.complete(6), Graph(6, ((0, 1), (1, 2), (3, 4), (4, 5)))]
        for n in range(1, 5):
            pairs = list(itertools.combinations(range(n), 2))
            for mask in range(2 ** len(pairs)):
                graphs.append(Graph(n, tuple(e for k, e in enumerate(pairs) if mask >> k & 1)))
        for G in graphs:
            agents = [i for i in range(G.n) if any(i in e for e in G.edges)]
            L = G.laplacian()[np.ix_(agents, agents)]
            expected = {s for s in itertools.product((-1, 1), repeat=len(agents))
                        if not agents or sign_cell_lp_oracle(L, s)}
            F = sign_consensus_field(G)
            assert len(F.switches) == len(agents), G
            assert set(F.adjacent_cells((0,) * len(agents))) == expected, G

    @pytest.mark.parametrize("variant", ["smooth", "norm", "sign"])
    def test_zero_agents_is_a_model_error(self, variant):
        # Rejected before the run: the spread of a state with no agent has
        # no maximum.
        with pytest.raises(ModelError, match="at least one agent"):
            consensus_flow(Graph.path(0), variant, [], 1.0)

    def test_consensus_scenario_rejects_zero_agents(self):
        with pytest.raises(ModelError, match="at least one agent"):
            get_scenario("consensus").simulate([], 1.0)

    @pytest.mark.parametrize("variant", ["smooth", "norm", "sign"])
    @pytest.mark.parametrize("tol", [math.nan, -1e-3, math.inf])
    def test_spread_tol_must_be_finite_and_nonnegative(self, variant, tol):
        # A NaN tolerance ran to t_end and reported no consensus: no spread
        # falls below it.
        with pytest.raises(ValueError, match="spread_tol must be finite and nonnegative"):
            consensus_flow(Graph.path(2), variant, [0.0, 1.0], 0.1, spread_tol=tol)

    def test_a_zero_spread_tol_is_allowed(self):
        res = consensus_flow(Graph.path(2), "sign", [0.0, 1.0], 1.0, spread_tol=0.0)
        assert res.final_spread >= 0.0

    def test_isolated_agent_stays_still(self):
        res = consensus_flow(Graph(3, ((0, 1),)), "sign", [0.0, 1.0, 5.0], 1.0)
        tr = res.trajectory
        assert np.allclose(tr.final_state, [0.5, 0.5, 5.0], atol=1e-6)
        assert np.all(tr.states[:, 2] == 5.0)
        assert any(e.kind == "Converged" for e in tr.events)

    def test_norm_variant_builds_no_polytope(self, monkeypatch):
        # The disagreement gradient is one vertex row, so the flow skips
        # least_norm and never wraps it in a Polytope (1,929 were built
        # when every stage went through the Polytope gradient).
        built = count_polytopes(monkeypatch)
        res = consensus_flow(Graph.path(4), "norm", [0.0, 0.1, 0.02, 0.08], 0.3,
                             IntegratorConfig(dt_max=2e-4))
        assert res.consensus_value == pytest.approx(0.05, abs=1e-9)
        assert len(built) == 0

    @pytest.mark.parametrize("G, p0", [
        (Graph.path(6), (0.9554, 0.4047, 0.0615, 0.0248, 1.2199, 1.3691)),
        (Graph.path(8), tuple(np.random.default_rng(0).random(8))),
        (Graph.path(8), tuple(np.random.default_rng(1).random(8))),
        (Graph.complete(5), (0.0, 0.3, 0.35, 0.9, 1.0)),
    ], ids=["path6", "path8-seed0", "path8-seed1", "complete5"])
    def test_sign_flow_slides_on_intersections_to_consensus(self, G, p0):
        # Clusters of agents slide on the intersection of their surfaces
        # instead of chattering across them, so consensus comes in finite
        # time after a handful of surface hits.
        res = consensus_flow(G, "sign", p0, 2.0)
        kinds = [e.kind for e in res.trajectory.events]
        assert kinds.count("Converged") == 1
        assert next(e.time for e in res.trajectory.events if e.kind == "Converged") < 2.0
        assert kinds.count("SurfaceHit") <= 50
        assert res.final_spread <= 1e-8
        if G.n == 6:
            midrange = 0.5 * (min(p0) + max(p0))
            assert np.max(np.abs(res.trajectory.final_state - midrange)) <= 1e-8


class TestSampleAndHold:
    def test_linear_feedback_arithmetic(self):
        C = ControlField(1, 1, lambda x, u: u.copy(), Polytope.interval(-10, 10))
        sched = PartitionSchedule.uniform(0.0, 1.0, 4)
        tr = sample_and_hold(C, lambda t, x: x.copy(), sched, [1.0])
        assert abs(tr.final_state[0] - 1.25 ** 4) <= 1e-9

    def test_zero_feedback_constant(self):
        C = get_scenario("cart").build()
        sched = PartitionSchedule.uniform(0.0, 1.0, 10)
        tr = sample_and_hold(C, lambda t, x: np.array([0.0]), sched, [0.3, 0.4])
        assert np.allclose(tr.states, [0.3, 0.4])

    def test_substeps_count_against_max_steps(self):
        # Each of the 100 intervals takes 10 RK4 substeps at the default
        # dt_max.  The run used to write all samples whatever the budget,
        # with no event.
        C = get_scenario("cart").build()
        sched = PartitionSchedule.uniform(0.0, 1.0, 100)
        run = lambda cfg: sample_and_hold(C, cart_feedback(1.0), sched, [0.6, 0.3], cfg)
        full = run(IntegratorConfig())
        assert len(full.times) == 1001 and not full.events
        for max_steps in (10, 25, 500):
            tr = run(IntegratorConfig(max_steps=max_steps))
            n = len(tr.times)
            assert n <= 1 + max_steps < n + 10
            assert [e.kind for e in tr.events] == ["StepLimit"]
            # A prefix of the full run that ends on a breakpoint.
            assert np.array_equal(tr.times, full.times[:n])
            assert np.array_equal(tr.states, full.states[:n])
            assert tr.final_time in sched.breakpoints

    def test_feedback_of_the_wrong_length_rejected(self):
        # Two inputs for the one-input cart used to run to the end, the
        # second dropped.
        cart = get_scenario("cart").build()
        calls = []

        def dynamics(x, u):
            calls.append(u)
            return cart.dynamics(x, u)

        C = ControlField(2, 1, dynamics, cart.control_set)
        sched = PartitionSchedule.uniform(0.0, 1.0, 4)  # n_sub = ceil(0.25 / 0.1) = 3
        feedback = lambda t, x: [1.0] if t == 0.0 else [1.0, 2.0]
        message = "feedback at t=0.25 has shape (2,), not control_dim (1,)"
        with pytest.raises(DimensionMismatchError, match=f"^{re.escape(message)}$"):
            sample_and_hold(C, feedback, sched, [0.3, 0.4], IntegratorConfig(dt_max=0.1))
        assert len(calls) == 3 * 4  # the first interval's RK4 stages; none of the second's

    @staticmethod
    def _substeps(sched, cfg=None):
        C = ControlField(1, 1, lambda x, u: u.copy(), Polytope.interval(-1, 1))
        tr = sample_and_hold(C, lambda t, x: np.array([1.0]), sched, [0.0], cfg)
        assert not tr.events and tr.final_time == sched.breakpoints[-1]
        return len(tr.times) - 1

    @pytest.mark.parametrize("sched, substeps", [
        # Spans a few ulps above dt_max: 271 of the 300 intervals on [0, 0.3]
        # used to take 2 substeps, and 16,132 of the 30,000 on [0, 30].
        (PartitionSchedule.with_diameter(0.0, 0.3, 1e-3), 300),
        (PartitionSchedule.with_diameter(0.0, 30.0, 1e-3), 30_000),
        # Spans a few ulps above 10 dt_max used to take 11 substeps.
        (PartitionSchedule.uniform(0.0, 1.0, 100), 1_000),
    ])
    def test_time_rounding_takes_no_extra_substep(self, sched, substeps):
        assert self._substeps(sched) == substeps

    def test_a_span_above_dt_max_takes_two_substeps(self):
        cfg = IntegratorConfig(dt_max=1e-3)
        assert self._substeps(PartitionSchedule([0.0, 1.001e-3]), cfg) == 2
        assert self._substeps(PartitionSchedule([0.0, 1e-3]), cfg) == 1

    def test_cart_feedback_keeps_the_positive_choice_on_the_axis(self):
        u = cart_feedback(1.0)
        assert [u(0.0, np.array([x1, 0.3]))[0] for x1 in (-0.5, 0.0, 0.5)] == [1.0, 1.0, -1.0]

    def test_cart_feedback_decreases_lyapunov(self):
        C = get_scenario("cart").build()
        sched = PartitionSchedule.with_diameter(0.0, 5.0, 1e-3)
        tr = sample_and_hold(C, cart_feedback(1.0), sched, [0.6, 0.3])
        f = make_function("cart_lyapunov")
        vals = [f(x) for x in tr.states[:: len(tr.states) // 200]]
        assert all(b <= a + 1e-6 for a, b in zip(vals, vals[1:]))


class TestLimitSets:
    def test_stopped_state(self):
        tr = integrate_filippov(neg_sign_field(), [2.0], 4.0)
        reps = limit_set_estimate(tr, 0.25)
        assert reps.shape[0] == 1
        assert abs(reps[0, 0]) <= 1e-8

    def test_closed_orbit_level_set(self):
        tr = get_scenario("oscillator").simulate([1.0, 0.0], 20.0)
        reps = limit_set_estimate(tr, 0.5, radius=5e-3)
        assert reps.shape[0] > 1
        for r in reps:
            assert abs(energy(r) - 1.0) <= 1e-3

    def test_dissipative_origin(self):
        tr = get_scenario("oscillator_dissipative").simulate([1.0, 0.0], 40.0)
        reps = limit_set_estimate(tr, 0.2, radius=1e-2)
        assert reps.shape[0] == 1
        assert np.linalg.norm(reps[0]) <= 1e-2

    def test_short_tail_rejected(self):
        tr = integrate_filippov(neg_sign_field(), [0.5], 0.004)
        with pytest.raises(ValueError):
            limit_set_estimate(tr, 0.5)

    @pytest.mark.parametrize("radius", [math.nan, -1.0, 0.0, math.inf])
    def test_radius_must_be_finite_and_positive(self, radius):
        # A NaN or negative radius joined no two samples, and returned each
        # of the 400 tail samples as its own cluster.
        tr = get_scenario("oscillator").simulate([1.0, 0.0], 3.0)
        with pytest.raises(ValueError, match="radius must be finite and positive"):
            limit_set_estimate(tr, 0.5, radius=radius)


class TestMoveAwayAgents:
    def test_hsp_monotone_and_collision_free(self):
        law = MoveAwayLaw(ConvexPolygon.square(1.0), 3, tie_band=4e-3)
        x0 = law.random_interior_points(seed=12)
        tr = get_scenario("move_away_n").simulate(x0, 10.0, overrides={"n": 3})
        hs = [law.packing_radius(x) for x in tr.states]
        assert all(b >= a - 1e-6 for a, b in zip(hs, hs[1:]))
        assert hs[-1] > hs[0]
        m0 = min_pairwise(x0)
        assert min(min_pairwise(x) for x in tr.states) >= m0 - 1e-6

    POLYGONS = {
        "square": ConvexPolygon.square(1.0),
        "pentagon": ConvexPolygon([[-1.0, -0.8], [1.2, -1.0], [1.4, 0.5], [0.1, 1.3], [-1.1, 0.6]]),
    }

    @pytest.mark.parametrize("polygon", POLYGONS.values(), ids=POLYGONS.keys())
    def test_direction_matches_loop_reference(self, polygon):
        rng = np.random.default_rng(8)
        V = polygon.vertices
        sizes: list[int] = []
        for n in range(2, 9):
            for tie_band in (1e-6, 4e-3, 0.05, 0.3):
                for _ in range(6):
                    # Agent 0 starts on the bisector at a polygon corner,
                    # off the exact tie by less than the band.
                    k = int(rng.integers(V.shape[0]))
                    e0, e1 = V[k - 1] - V[k], V[(k + 1) % V.shape[0]] - V[k]
                    u = e0 / np.linalg.norm(e0) + e1 / np.linalg.norm(e1)
                    p0 = V[k] + rng.uniform(0.15, 0.3) * u / np.linalg.norm(u)
                    p0 = p0 + 0.25 * tie_band * (2 * rng.random(2) - 1)
                    law = MoveAwayLaw(polygon, n, tie_band=tie_band)
                    seed = int(rng.integers(1 << 30))
                    pts = law.random_interior_points(seed, margin=0.02).reshape(n, 2)
                    pts[0] = p0
                    if min(np.linalg.norm(pts[1:] - p0, axis=1)) < 0.04:
                        continue
                    ref = move_away_direction_loop(polygon, n, tie_band, pts.ravel(), sizes)
                    assert np.max(np.abs(law.direction(pts.ravel()) - ref)) <= 1e-12
        assert 2 in sizes and max(sizes) >= 3

    def test_direction_is_pinned_bit_for_bit(self):
        # The sha256 of every output's bytes, or error message, over 1,080
        # seeded configurations: n from 0 to 8 and 20 in both polygons, three
        # tie bands, every third configuration with agent 0 a hair off a
        # corner's bisector and every third rounded to 0.1, which makes
        # exact ties, coincident agents and agents on an edge.  The loop
        # reference above allows 1e-12; this sees rounding drift.
        rng = np.random.default_rng(24)
        digest, messages = hashlib.sha256(), collections.Counter()
        for polygon in self.POLYGONS.values():
            V = polygon.vertices
            lo, hi = V.min(axis=0), V.max(axis=0)
            for n in (*range(9), 20):
                for tie_band in (1e-6, 4e-3, 0.05):
                    law = MoveAwayLaw(polygon, n, tie_band=tie_band)
                    for k in range(18):
                        cand = lo + (hi - lo) * rng.random((10 * n + 10, 2))
                        pts = cand[(cand @ polygon.inward_normals.T
                                    > polygon.line_offsets).all(axis=1)][:n]
                        assert pts.shape == (n, 2)
                        if k % 3 == 1 and n:
                            j = k % V.shape[0]
                            e0, e1 = V[j - 1] - V[j], V[(j + 1) % V.shape[0]] - V[j]
                            u = e0 / np.linalg.norm(e0) + e1 / np.linalg.norm(e1)
                            pts[0] = (V[j] + (0.1 + 0.2 * rng.random()) * u / np.linalg.norm(u)
                                      + 0.25 * tie_band * (2 * rng.random(2) - 1))
                        elif k % 3 == 2:
                            pts = np.round(pts, 1)
                        try:
                            digest.update(law.direction(pts.ravel()).tobytes())
                            messages["ok"] += 1
                        except ModelError as exc:
                            digest.update(str(exc).encode())
                            messages[str(exc)] += 1
        assert sum(messages.values()) == 1080
        assert set(messages) == {"ok", "coincident agents: the law is undefined",
                                 "agent sits on the boundary", "agent outside the polygon"}
        # Recorded from the per-part form of MoveAwayLaw.direction, whose
        # ties in these configurations join 2 to 6 entities.
        assert digest.hexdigest() == (
            "e64faa1872c0f6e02a39f34230073e90c94bcbfdafbb029c1ff05fe284ab1ed9")

    def test_placement_beyond_the_area_bound_draws_nothing(self, monkeypatch):
        # n discs of radius margin must fit the polygon's area (4 for this
        # square); more are rejected before the first draw.  n = 300 used
        # to spend 16 s in its draws before it failed.
        draws, real = [], np.random.default_rng

        class Counted:
            def __init__(self, seed):
                self.rng = real(seed)

            def random(self, *args):
                draws.append(1)
                return self.rng.random(*args)

        monkeypatch.setattr(np.random, "default_rng", Counted)
        square = ConvexPolygon.square(1.0)
        for n, margin in ((510, 0.05), (15, 0.3)):
            with pytest.raises(ModelError, match="exceed the area 4.0"):
                MoveAwayLaw(square, n).random_interior_points(1, margin)
            assert draws == []
        pts = MoveAwayLaw(square, 14).random_interior_points(3, 0.05).reshape(14, 2)
        assert len(draws) >= 14
        gaps = np.linalg.norm(pts[:, None] - pts[None], axis=2) + np.eye(14)
        assert gaps.min() >= 0.1 and np.abs(pts).max() <= 0.95

    def test_direction_rejects_bad_positions(self):
        # Where several checks fail, the first of finite, coincident, on an
        # edge, outside decides the message.
        law = MoveAwayLaw(ConvexPolygon.square(1.0), 2)
        outside, finite = "agent outside the polygon", "agent positions must be finite"
        coincident, edge = "coincident agents: the law is undefined", "agent sits on the boundary"
        for p, message in (([2.0, 0.0, 0.0, 0.5], outside),  # first agent outside the square
                           ([0.0, 1.5, 0.0, 0.5], outside),
                           ([math.nan, 0.0, 0.0, 0.5], finite),
                           ([math.inf, 0.0, 0.0, 0.5], finite),
                           ([math.nan, 0.0, math.nan, 0.0], finite),  # and coincident
                           ([0.2, 0.1, 0.2, 0.1], coincident),
                           ([2.0, 0.0, 2.0, 0.0], coincident),  # and outside
                           ([1.0, 0.3, 1.0, 0.3], coincident),  # and on an edge
                           ([1.0, 0.3, 0.0, 0.5], edge),
                           ([2.0, 0.0, 1.0, 0.3], edge)):  # the other agent outside
            with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
                law.direction(np.array(p))

    def test_direction_rejects_a_far_outside_agent(self):
        # The first agent's edge offsets overflow to NaN; its position
        # still lies beyond an edge's line.
        polygon = ConvexPolygon([[-10, -10], [10, -12], [12, 10], [-9, 11]])
        law = MoveAwayLaw(polygon, 2)
        with np.errstate(all="ignore"), pytest.raises(ModelError,
                                                      match="^agent outside the polygon$"):
            law.direction(np.array([1e308, -1e308, 10.0, 0.0]))

    @pytest.mark.parametrize("p, message", [
        ([1e300, 0.0, 1e300, 0.0], "coincident agents: the law is undefined"),
        ([1e300, 0.0, 0.0, 0.0], "agent outside the polygon"),
    ])
    def test_direction_far_outside_raises_no_overflow_warning(self, p, message):
        # Squaring these offsets overflows; warnings are errors here, and
        # the overflow used to escape as a RuntimeWarning before the message.
        law = MoveAwayLaw(ConvexPolygon.square(1.0), 2)
        with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
            law.direction(np.array(p))

    def test_direction_with_no_agent_or_one(self):
        square = ConvexPolygon.square(1.0)
        none = MoveAwayLaw(square, 0).direction(np.array([]))
        assert none.shape == (0,) and none.dtype == float
        # One agent moves away from its nearest wall, or from a tied corner.
        one = MoveAwayLaw(square, 1)
        assert one.direction(np.array([0.2, -0.5])).tolist() == [1.1102230246251565e-16, 1.0]
        assert one.direction(np.array([0.5, 0.5])).tolist() == [-0.5, -0.5]

    def test_rk4_exact_on_polynomials(self):
        # Classical fourth-order scheme integrates cubic-in-time states
        # exactly; this pins the tableau.
        f = lambda x: np.array([x[1], 2.0])  # x1'' = 2
        x = np.array([0.0, 0.0])
        x = rk4_step(f, x, 0.5)
        assert np.allclose(x, [0.25, 1.0])


def test_events_are_recorded_with_times():
    tr = integrate_filippov(move_away_square_field(), [0.5, 0.5], 2.0)
    kinds = [e.kind for e in tr.events]
    assert "SlideEnter" in kinds
    assert "Converged" in kinds
    assert all(isinstance(e, Event) for e in tr.events)
    assert all(0.0 <= e.time <= 2.0 for e in tr.events)


class TestFixedStepLoops:
    @staticmethod
    def counting(v):
        calls = []

        def v_fn(x):
            calls.append(1)
            return np.array(v, dtype=float)

        return v_fn, calls

    @pytest.mark.parametrize("method, per_step", [("euler", 10), ("rk4", 4)])
    def test_one_field_evaluation_per_stage(self, method, per_step):
        v_fn, calls = self.counting([1.0, -0.5])
        cfg = IntegratorConfig(dt_max=0.125)
        tr = integrate_pointwise(v_fn, [0.0, 0.0], 1.25, cfg, method=method)
        assert len(tr.times) == 11 and not tr.events
        assert len(calls) == 10 * per_step + 1
        assert np.allclose(tr.final_state, [1.25, -0.625])

    @staticmethod
    def window_holds(states: np.ndarray, radius: float) -> bool:
        """The oscillation-window rule: every sample within radius of the mean."""
        off = states - states.mean(axis=0)
        return float(np.sqrt((off * off).sum(axis=1)).max()) <= radius

    def test_oscillation_window_fires_at_the_first_window_that_holds(self):
        # x' = -sign(x) reaches 0 from 0.05 in 50 steps of 1e-3 and then
        # chatters within one Euler substep of it.
        dt = 1e-3
        tr = integrate_pointwise(lambda x: -np.sign(x), [0.05], 0.2,
                                 IntegratorConfig(dt_max=dt), method="euler")
        assert [(e.kind, e.detail) for e in tr.events] == [("Converged", "oscillation window")]
        fired = tr.times.tolist().index(tr.events[0].time) + 1
        assert fired == 64 and tr.modes.count("STOP") == len(tr.times) - fired
        holds = [n for n in range(21, fired + 1) if self.window_holds(tr.states[n - 20:n], 5 * dt)]
        assert holds == [fired]

    def test_oscillation_window_with_close_ends_and_a_far_middle_does_not_hold(self):
        # A rotation of period 19 steps: every 20-sample window starts and
        # ends within 2 * 5 dt_max, while its middle samples lie a unit
        # away from the window mean.
        dt = 1e-3
        w = 2.0 * math.pi / (19 * dt)
        tr = integrate_pointwise(lambda x: w * np.array([-x[1], x[0]]), [1.0, 0.0], 0.1,
                                 IntegratorConfig(dt_max=dt), method="rk4")
        assert len(tr.times) == 101 and not tr.events
        windows = [tr.states[n - 20:n] for n in range(21, 102)]
        assert all(np.linalg.norm(s[0] - s[-1]) <= 2 * 5 * dt for s in windows)
        assert not any(self.window_holds(s, 5 * dt) for s in windows)

    @pytest.mark.parametrize("x0, t_end", [
        ([0.0, math.nan], 1.0),
        ([math.inf, 0.0], 1.0),
        ([0.0, 0.0], 0.0),
        ([0.0, 0.0], -1.0),
        ([0.0, 0.0], math.nan),
        ([0.0, 0.0], math.inf),
    ])
    def test_pointwise_rejects_bad_start(self, x0, t_end):
        # The event-driven integrators check their start the same way.
        v_fn, calls = self.counting([1.0, 0.0])
        F = PiecewiseField(2, [SwitchingSurface.coordinate(0, 2)],
                           {(-1,): v_fn, (1,): v_fn})
        for run in (lambda: integrate_pointwise(v_fn, x0, t_end, IntegratorConfig()),
                    lambda: integrate_filippov(F, x0, t_end),
                    lambda: integrate_caratheodory(F, x0, t_end)):
            with pytest.raises(ModelError):
                run()
        assert not calls

    @pytest.mark.parametrize("run", ["filippov", "caratheodory", "sample_and_hold",
                                     "gradient_flow", "consensus_smooth", "consensus_norm",
                                     "consensus_sign", "move_away_flow",
                                     "consensus_scenario_scalar", "consensus_scenario_matrix"])
    def test_start_of_wrong_length_is_rejected_before_any_field_call(self, run):
        calls = []

        def counted(*args):
            calls.append(1)
            return np.zeros(2)

        F = PiecewiseField(2, [SwitchingSurface.coordinate(0, 2)], {(-1,): counted, (1,): counted})
        C = ControlField(2, 1, counted, Polytope([[-1.0], [1.0]]))
        with pytest.raises(DimensionMismatchError):
            {"filippov": lambda: integrate_filippov(F, [1.0], 1.0),
             "caratheodory": lambda: integrate_caratheodory(F, [1.0, 0.0, 0.0], 1.0),
             "sample_and_hold": lambda: sample_and_hold(
                 C, lambda t, x: calls.append(1) or np.zeros(1),
                 PartitionSchedule.uniform(0.0, 1.0, 4), [1.0]),
             # A column of the right size is not a start either.
             "gradient_flow": lambda: gradient_flow(
                 make_function("abs_sum", dim=2), "signed", [[0.3], [-0.2]], 1.0),
             "consensus_smooth": lambda: consensus_flow(Graph.path(3), "smooth", [0.0, 1.0], 1.0),
             "consensus_norm": lambda: consensus_flow(Graph.path(3), "norm", [0.0, 1.0], 1.0),
             "consensus_sign": lambda: consensus_flow(Graph.path(3), "sign", [0.0, 1.0], 1.0),
             "move_away_flow": lambda: move_away_flow(
                 MoveAwayLaw(ConvexPolygon.square(1.0), 2), [0.1, 0.2], 1.0, IntegratorConfig()),
             # The scenario sizes its path from the start's size.
             "consensus_scenario_scalar": lambda: get_scenario("consensus").simulate(1.0, 1.0),
             "consensus_scenario_matrix": lambda: get_scenario("consensus").simulate(
                 np.ones((2, 2)), 1.0),
             }[run]()
        assert not calls

    @pytest.mark.parametrize("x0, message", [
        (1.0, "initial state of shape (), model dimension 1"),
        (np.ones((2, 2)), "initial state of shape (2, 2), model dimension 4"),
    ])
    def test_consensus_scenario_start_names_its_size(self, x0, message):
        with pytest.raises(DimensionMismatchError, match=re.escape(message)):
            get_scenario("consensus").simulate(x0, 1.0)

    def test_sample_and_hold_rejects_non_finite_start(self):
        calls = []
        C = ControlField(1, 1, lambda x, u: calls.append(1) or u.copy(),
                         Polytope.interval(-10, 10))
        feedback = lambda t, x: calls.append(1) or x.copy()
        with pytest.raises(ModelError):
            sample_and_hold(C, feedback, PartitionSchedule.uniform(0.0, 1.0, 4), [math.nan])
        assert not calls
        with pytest.raises(ValueError):
            PartitionSchedule([0.0, math.nan, 1.0])

    def test_sphere_packing_rejects_negative_horizon(self, monkeypatch):
        calls = []
        direction = MoveAwayLaw.direction
        monkeypatch.setattr(MoveAwayLaw, "direction",
                            lambda self, p: calls.append(1) or direction(self, p))
        x0 = [-0.5, -0.5, 0.5, -0.5, 0.0, 0.5]
        with pytest.raises(ModelError):
            get_scenario("sphere_packing").simulate(x0, -1.0, overrides={"n": 3})
        assert not calls

    def test_norm_consensus_rejects_nan_state(self, monkeypatch):
        import nsds.integrate as integrate

        calls = []
        solve = integrate._least_norm_point
        monkeypatch.setattr(integrate, "_least_norm_point",
                            lambda rows: calls.append(1) or solve(rows))
        with pytest.raises(ModelError):
            consensus_flow(Graph.path(3), "norm", [0.0, math.nan, 1.0], 0.01)
        assert not calls
        consensus_flow(Graph.path(3), "norm", [0.0, 0.5, 1.0], 0.01)
        assert calls

    def test_stall_check_matches_max_of_displacements(self):
        def reference(b, window, conv_tol):
            dt = b.times[-1] - b.times[-1 - window]
            moved = max(float(np.linalg.norm(b.states[-1] - b.states[-1 - k]))
                        for k in range(1, window + 1))
            return moved <= conv_tol * dt

        rng = np.random.default_rng(4)
        window = 20
        seen = set()
        for trial in range(400):
            d = int(rng.integers(1, 5))
            scale = 10.0 ** rng.uniform(-9, -6)
            states = [np.zeros(d)]
            for _ in range(window + int(rng.integers(0, 5))):
                states.append(states[-1] + scale * rng.standard_normal(d))
            b = _Builder(0.0, states[0], "R:")
            for k, x in enumerate(states[1:], start=1):
                b.append(k / window, x, "R:")
            conv_tol = 10.0 ** rng.uniform(-9, -6)
            if trial % 4 == 0:
                # Exactly at the bound: the window spans dt = 1.
                b.times[-1 - window] = b.times[-1] - 1.0
                conv_tol = max(float(np.linalg.norm(b.states[-1] - b.states[-1 - k]))
                               for k in range(1, window + 1))
                assert b.stalled(window, conv_tol)
                assert not b.stalled(window, float(np.nextafter(conv_tol, 0.0)))
            verdict = b.stalled(window, conv_tol)
            assert verdict == reference(b, window, conv_tol)
            seen.add(verdict)
        assert seen == {True, False}

    def test_blow_up_in_a_pointwise_run_raises(self):
        # x' = x^2 from 1 blows up at t = 1; the run used to carry inf states
        # to t_end and log no event.
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ModelError, match="not finite at t=") as err:
                integrate_pointwise(lambda x: x**2, [1.0], 3.0,
                                    IntegratorConfig(dt_max=1e-2), method="rk4")
        t = float(str(err.value).split("t=")[1].split(":")[0])
        assert 1.0 <= t <= 1.1

    def test_blow_up_in_sample_and_hold_names_the_first_bad_sample(self):
        C = ControlField(1, 1, lambda x, u: x**2 + u, Polytope.interval(-1, 1))
        sched = PartitionSchedule.uniform(0.0, 3.0, 6)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ModelError, match="not finite at t=") as err:
                sample_and_hold(C, lambda t, x: np.zeros(1), sched, [1.0],
                                IntegratorConfig(dt_max=1e-2))
        t = float(str(err.value).split("t=")[1].split(":")[0])
        assert 1.0 <= t <= 1.1


class TestTrajectoryBuffer:
    """``_Builder`` keeps the states in one growing array; ``ListBuilder``
    (tests/helpers.py) keeps one array per sample, as the builder used to."""

    RUNS = {
        "filippov_oscillator": lambda: get_scenario("oscillator").simulate([0.02, 0.1], 0.4),
        "sample_and_hold_cart": lambda: sample_and_hold(
            get_scenario("cart").build(), cart_feedback(1.0),
            PartitionSchedule.with_diameter(0.0, 0.3, 1e-3), [0.6, 0.3]),
        # Converges early; the stopped fill carries it to 20k samples.
        "norm_consensus_stopped": lambda: consensus_flow(
            Graph.path(3), "norm", [0.0, 0.06, 0.1], 4.0,
            IntegratorConfig(dt_max=2e-4)).trajectory,
    }

    @pytest.mark.parametrize("name", list(RUNS))
    def test_same_trajectory_as_list_reference(self, name, monkeypatch):
        import nsds.integrate as integrate

        tr = self.RUNS[name]()
        assert len(tr.times) > _Builder.INITIAL_ROWS
        monkeypatch.setattr(integrate, "_Builder", ListBuilder)
        ref = self.RUNS[name]()
        assert tr.times.tobytes() == ref.times.tobytes()
        assert tr.states.tobytes() == ref.states.tobytes()
        assert tr.modes == ref.modes
        assert tr.events == ref.events
        if name == "norm_consensus_stopped":
            assert len(tr.times) == 20_001 and tr.modes.count("STOP") > 19_000

    def test_states_are_owned_and_exactly_sized(self):
        tr = self.RUNS["filippov_oscillator"]()
        assert tr.states.flags.owndata and tr.states.base is None
        assert tr.states.shape == (len(tr.times), 2)

    def test_earlier_rows_survive_appends_and_growth(self):
        b = _Builder(0.0, [1.0, 2.0], "R:")
        x0 = b.x
        rows = [x0]
        for k in range(1, 3 * _Builder.INITIAL_ROWS):
            b.append(float(k), [k, -k], "R:")
            rows.append(b.x)
        assert x0.tolist() == [1.0, 2.0]
        assert [r.tolist() for r in rows] == [[k, -k] if k else [1.0, 2.0]
                                              for k in range(3 * _Builder.INITIAL_ROWS)]
        tr = b.finish()
        b.append(1e6, [0.0, 0.0], "R:")
        assert tr.states.shape == (3 * _Builder.INITIAL_ROWS, 2)
        assert tr.states[-1].tolist() == rows[-1].tolist()

    def test_sample_and_hold_holds_one_coerced_input_per_interval(self):
        seen = []

        def dynamics(x, u):
            seen.append(u)
            return -x * u

        C = ControlField(1, 1, dynamics, Polytope.interval(-10, 10))
        sched = PartitionSchedule.uniform(0.0, 1.0, 4)  # n_sub = ceil(0.25 / 0.1) = 3
        sample_and_hold(C, lambda t, x: [1.0 + t], sched, [1.0], IntegratorConfig(dt_max=0.1))
        assert len(seen) == 4 * 4 * 3
        blocks = [seen[k:k + 12] for k in range(0, len(seen), 12)]
        for t, block in zip(sched.breakpoints, blocks):
            assert all(u is block[0] for u in block)
            assert block[0].dtype == float and block[0].tolist() == [1.0 + t]
        assert len({id(block[0]) for block in blocks}) == 4

    def test_consensus_time_is_first_sample_within_the_spread(self):
        res = consensus_flow(Graph.path(4), "norm", [0.0, 0.1, 0.02, 0.08], 0.3,
                             IntegratorConfig(dt_max=2e-4))
        spread = lambda p: float(np.max(p) - np.min(p))
        assert res.consensus_time == res.trajectory.first_time(lambda p: spread(p) <= 1e-3)
        assert res.final_spread == spread(res.trajectory.final_state)
        never = consensus_flow(Graph.path(4), "norm", [0.0, 0.1, 0.02, 0.08], 0.01,
                               IntegratorConfig(dt_max=2e-4))
        assert never.consensus_time is None and never.consensus_value is None


# Sample count, event (kind, detail) sequence and final state of runs that
# cover each phase of the event-driven integrators and the fixed-step flows.
GOLDEN = {
    "oscillator_crossing": (
        lambda: get_scenario("oscillator").simulate([0.02, 0.1], 0.4),
        402, [("SurfaceHit", "surface 0")],
        [-0.014164078714466033, -0.14721359634399458]),
    "dissipative_corner_stop": (
        lambda: get_scenario("oscillator_dissipative").simulate([0.005, -0.1], 0.7),
        712, [("SurfaceHit", "surface 0"), ("SurfaceHit", "surface 1")] * 8
        + [("Converged", "least-norm selection vanished")],
        [4.324734798329077e-09, -5.960457005889895e-11]),
    "move_away_1_slide": (
        lambda: get_scenario("move_away_1").simulate([0.05, 0.05], 0.15),
        151, [("SlideEnter", "surface 0"), ("SurfaceHit", "surface 1 while sliding on 0"),
              ("Converged", "least-norm selection vanished")],
        [4.999999980020986e-13, 4.999999980020986e-13]),
    "smq_flow_least_norm_stop": (
        # 302 samples, the last 6e-11 s after the one before, until the
        # stopped fill's last sample absorbed that remainder.
        lambda: get_scenario("smq_flow").simulate([0.125, 0.055], 0.3),
        301, [("SurfaceHit", "surface 0"), ("SlideEnter", "surface 0"),
              ("SurfaceHit", "surface 1 while sliding on 0"),
              ("Converged", "least-norm selection vanished")],
        [5.960454005360383e-11, -4.5102810375396984e-17]),
    "brick": (
        lambda: get_scenario("brick").simulate([0.5], 0.3),
        302, [("SurfaceHit", "surface 0"), ("SlideEnter", "surface 0"),
              ("Converged", "sliding stall")],
        [8.243971371009455e-11]),
    "caratheodory_oscillator": (
        lambda: integrate_caratheodory(get_scenario("oscillator").build(), [0.02, 0.1], 0.4),
        402, [("SurfaceHit", "surface 0")],
        [-0.014164078714466033, -0.14721359634399458]),
    "sign_consensus_path3": (
        lambda: consensus_flow(Graph.path(3), "sign", [0.0, 0.05, 0.1], 0.3).trajectory,
        301, [("SlideEnter", "surface 1"), ("SurfaceHit", "surface 0 while sliding on 1"),
              ("Converged", "least-norm selection vanished")],
        [0.049999999999, 0.05, 0.050000000001]),
    # The fixed-step flows: pointwise RK4 and Euler steps with the
    # oscillation window, and sample-and-hold substeps.
    "norm_consensus_path3": (
        # Never settles before t_end: the window test runs at every step.
        lambda: consensus_flow(Graph.path(3), "norm", [0.0, 0.2, 0.5], 0.3,
                               IntegratorConfig(dt_max=2e-4)).trajectory,
        1501, [],
        [0.19258629999202867, 0.23318823433795738, 0.2742254656700147]),
    "norm_consensus_path3_stopped": (
        # The window holds at sample 372; the stopped fill covers the rest.
        lambda: consensus_flow(Graph.path(3), "norm", [0.0, 0.06, 0.1], 0.3,
                               IntegratorConfig(dt_max=2e-4)).trajectory,
        1501, [("Converged", "oscillation window")],
        [0.05332897552489252, 0.05334204895021465, 0.053328975524892755]),
    "packing_n4_tie_start": (
        # Agent 0 starts 0.1 from two walls, tied between them.
        lambda: get_scenario("sphere_packing").simulate(
            [0.9, 0.9, -0.5, 0.3, 0.1, -0.5, -0.4, -0.1], 0.3, overrides={"n": 4}),
        301, [],
        [0.7500000000000165, 0.7500000000000165, -0.5636603457799836, 0.5797663825693207,
         0.31465256866811575, -0.5879415557750866, -0.4433282760659325,
         -0.24692468547569027]),
    "cart_sample_and_hold": (
        lambda: sample_and_hold(get_scenario("cart").build(), cart_feedback(1.0),
                                PartitionSchedule.with_diameter(0.0, 0.3, 1e-3), [0.6, 0.3]),
        301, [], [0.5248125669403775, 0.21420921099607315]),
}


def livelock_field():
    """Switches on x2; the sliding solution leaves the surface near x1 = 0,
    where RK4 stages of a slide step overshoot the exit."""
    return PiecewiseField(2, [SwitchingSurface.coordinate(1, 2)],
                          {(1,): lambda x: np.array([1.0, x[0]]),
                           (-1,): lambda x: np.array([10.0, 1.0])})


class TestSteppingLoop:
    @pytest.mark.parametrize("name", list(GOLDEN))
    def test_golden_outputs(self, name):
        run, samples, events, final = GOLDEN[name]
        tr = run()
        assert len(tr.times) == samples
        assert [(e.kind, e.detail) for e in tr.events] == events
        assert np.max(np.abs(tr.final_state - final)) <= 1e-12

    @pytest.mark.parametrize("loop, samples", [
        ("slide", 20), ("regular", 21), ("caratheodory", 21), ("pointwise", 21),
    ])
    def test_one_step_limit_event(self, loop, samples):
        cfg = IntegratorConfig(max_steps=20)
        osc = get_scenario("oscillator")
        tr = {
            "slide": lambda: get_scenario("move_away_1").simulate([0.05, 0.05], 1.0, cfg),
            "regular": lambda: osc.simulate([0.02, 0.1], 1.0, cfg),
            "caratheodory": lambda: integrate_caratheodory(osc.build(), [0.02, 0.1], 1.0, cfg),
            "pointwise": lambda: gradient_flow(make_function("abs"), "natural", [1.0], 2.0, cfg),
        }[loop]()
        assert [e.kind for e in tr.events].count("StepLimit") == 1
        assert tr.events[-1].kind == "StepLimit"
        assert len(tr.times) == samples

    def test_no_progress_watchdog(self):
        cfg = IntegratorConfig(dt_max=1e-5, max_steps=20000)
        tr = integrate_filippov(livelock_field(), [-5e-4, 1e-7], 2e-3, cfg)
        kinds = [e.kind for e in tr.events]
        assert kinds[-1] == "NoProgress"
        assert "StepLimit" not in kinds
        assert kinds.count("SlideEnter") < 200
        # No stopped fill: the state did not converge.
        assert tr.final_time < 2e-3 and tr.modes[-1] != "STOP"

    @pytest.mark.parametrize("integrator", [integrate_filippov, integrate_caratheodory])
    def test_blow_up_in_an_event_driven_run_raises(self, integrator):
        # x' = x^2 from 1 blows up at t = 1.  With no switching surface these
        # runs used to return 301 samples ending at inf, with no event.
        F = PiecewiseField(1, [], {(): lambda x: x**2})
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ModelError, match="not finite at t=") as err:
                integrator(F, [1.0], 3.0, IntegratorConfig(dt_max=1e-2))
        t = float(str(err.value).split("t=")[1].split(":")[0])
        assert 1.0 <= t <= 1.1

    def test_blow_up_off_a_surface_raises_a_model_error(self):
        # x2 = x1 stays far from the surface x2 = 0 while both blow up.  The
        # state's norm overflows first, which made the activity band
        # 1e-8 (1 + |x|) infinite: the surface read as active and the run
        # raised DegenerateSurfaceError ("switching gradient vanishes").
        f = lambda x: np.array([x[0] ** 2, x[0] ** 2])
        F = PiecewiseField(2, [SwitchingSurface.coordinate(1, 2)], {(-1,): f, (1,): f})
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ModelError, match="not finite at t=") as err:
                integrate_filippov(F, [1.0, 1.0], 3.0, IntegratorConfig(dt_max=1e-2))
        assert type(err.value) is ModelError
        t = float(str(err.value).split("t=")[1].split(":")[0])
        assert 1.0 <= t <= 1.1

    def test_large_state_near_a_surface_is_not_a_degenerate_surface(self):
        # x1' = x1^2 blows up at t = 1 while g = x2 stays 1.  At t = 1.01 the
        # state (1.01e13, 1) puts the surface inside the band 1e-8 (1 + |x|),
        # and the unit gradient, compared with that band, used to raise
        # DegenerateSurfaceError.  The run now ends at the overflow.
        f = lambda x: np.array([x[0] ** 2, 0.0])
        F = PiecewiseField(2, [SwitchingSurface.coordinate(1, 2)], {(1,): f, (-1,): f})
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ModelError, match="state norm is not finite at t=") as err:
                integrate_filippov(F, [1.0, 1.0], 3.0, IntegratorConfig(dt_max=1e-2))
        assert type(err.value) is ModelError
        t = float(str(err.value).split("t=")[1].split(":")[0])
        assert 1.0 <= t <= 1.1

    @pytest.mark.parametrize("run", [
        lambda cfg: integrate_pointwise(lambda x: np.array([1.0]), [0.0], 7.3, cfg,
                                        method="rk4"),
        lambda cfg: integrate_filippov(PiecewiseField(1, [], {(): lambda x: np.array([1.0])}),
                                       [0.0], 7.3, cfg),
    ])
    def test_no_sliver_last_step(self, run):
        # 73,000 summed steps of 1e-4 end 3.7e-12 short of 7.3, more than
        # the old 1e-12 end slack, so the runs took a 73,001st step of
        # 3.7e-12 s.  The last step now absorbs that rounding.
        tr = run(IntegratorConfig(dt_max=1e-4))
        assert len(tr.times) == 73_001 and not tr.events
        assert np.diff(tr.times).min() >= 1e-9
        assert tr.final_time == 7.3

    @pytest.mark.parametrize("t_end", [5e-10, 1e-13])
    def test_a_horizon_within_the_time_slack_takes_one_step(self, t_end):
        tr = integrate_pointwise(lambda x: np.array([1.0]), [0.0], t_end,
                                 IntegratorConfig(), method="rk4")
        assert tr.times.tolist() == [0.0, t_end] and tr.final_state[0] == pytest.approx(t_end)

    def test_stopped_fill_has_no_sliver_sample(self):
        # The run stops at a crossing time found by bisection, 3e-11 s off
        # the dt_max grid, and its fill used to end with a 3e-11 s step
        # (302 samples).  The last fill sample now absorbs it.
        tr = consensus_flow(Graph.path(3), "sign", [0.02, 0.0, 0.1], 0.3).trajectory
        assert tr.modes[-1] == "STOP" and tr.final_time == 0.3
        assert len(tr.times) == 301 and np.diff(tr.times).min() >= 1e-9

    def test_pointwise_rejects_an_unknown_method(self):
        # "rk45" used to run the Euler substeps.
        with pytest.raises(ValueError, match="method must be euler or rk4"):
            integrate_pointwise(lambda x: -x, [1.0], 1.0, IntegratorConfig(), method="rk45")

    def test_stopped_fill_counts_against_max_steps(self):
        # The flow vanishes at the first step.  The fill to t_end then used
        # to write 100,000 samples whatever the step budget.
        v_fn = lambda x: 0 * x
        cfg = IntegratorConfig(dt_max=1e-3, max_steps=10)
        tr = integrate_pointwise(v_fn, [1.0], 100.0, cfg)
        assert len(tr.times) == 1 + 10
        assert [e.kind for e in tr.events] == ["Converged", "StepLimit"]
        assert tr.modes[2:] == ["STOP"] * 9 and tr.final_time < 100.0
        # A fill that fits in the budget reaches t_end with no StepLimit.
        tr = integrate_pointwise(v_fn, [1.0], 0.005, cfg)
        assert len(tr.times) == 1 + 5 and tr.final_time == 0.005
        assert [e.kind for e in tr.events] == ["Converged"]

    def test_regular_step_runs_the_cell_field_once_per_stage(self):
        calls = []

        def up(x):
            calls.append(1)
            return np.array([0.0, 1.0])

        F = PiecewiseField(2, [SwitchingSurface.coordinate(0, 2)], {(-1,): up, (1,): up})
        tr = integrate_filippov(F, [1.0, 0.0], 1.25, IntegratorConfig(dt_max=0.125))
        assert len(tr.times) == 11 and not tr.events
        assert len(calls) == 10 * 4

    def test_regular_step_reads_the_switches_once_per_end(self):
        # The run's label reads g at x0.  Each step then reads it once, at
        # its end: the crossing and landing checks there and the next step's
        # phase, sign vector and crossing search share that read.
        reads = []

        def g(x):
            reads.append(1)
            return float(x[0])

        up = lambda x: np.array([0.0, 1.0])
        F = PiecewiseField(2, [SwitchingSurface(g, lambda x: np.array([1.0, 0.0]))],
                           {(-1,): up, (1,): up})
        cfg = IntegratorConfig(dt_max=0.125)
        tr = integrate_filippov(F, [1.0, 0.0], 1.25, cfg)
        assert len(tr.times) == 11 and not tr.events
        assert len(reads) == 1 + 10
        reads.clear()
        # The start cell's read of g at x0 also serves the first step.
        tr = integrate_caratheodory(F, [1.0, 0.0], 1.25, cfg)
        assert len(tr.times) == 11 and not tr.events
        assert len(reads) == 1 + 10

    def test_slide_step_reads_the_switches_once_per_end(self):
        # move_away_1 has two surfaces and starts on surface 0.  The label
        # reads both at x0, and the surface step that enters the slide
        # appends no sample, so it reuses that read.  Each slide step reads
        # surface 0 once in its projection and both surfaces at its end.
        reads = []
        F = get_scenario("move_away_1").build()
        counted = [SwitchingSurface((lambda g: lambda x: reads.append(1) or g(x))(s.value),
                                    s.grad, s.name) for s in F.switches]
        tr = integrate_filippov(PiecewiseField(F.dim, counted, F.cell), [0.05, 0.05], 0.01)
        assert [e.kind for e in tr.events] == ["SlideEnter"]
        assert len(tr.times) == 11 and set(tr.modes) == {"S:0"}
        assert len(reads) == 2 + 10 * (1 + 2)

    def test_surface_step_classifies_from_its_own_switch_values(self):
        # The run's label reads g once at x0 and the surface step once more;
        # the crossing it takes does not watch the surface it starts on.
        reads = []

        def g(x):
            reads.append(1)
            return float(x[0])

        right = lambda x: np.array([1.0, 0.0])
        F = PiecewiseField(2, [SwitchingSurface(g, lambda x: np.array([1.0, 0.0]))],
                           {(-1,): right, (1,): right})
        tr = integrate_filippov(F, [0.0, 0.0], 0.125, IntegratorConfig(dt_max=0.125))
        assert tr.final_time == 0.125 and tr.modes[-1] == "R:+"
        assert len(reads) <= 2

    def test_crossing_step_evaluates_the_start_field_once(self, monkeypatch):
        # Every bisection midpoint reuses the field value at the step start,
        # so a step costs 1 + 3 evaluations per trial fraction.
        import nsds.integrate as integrate

        calls, trials = [], []
        monkeypatch.setattr(integrate, "rk4_step",
                            lambda *a, **k: trials.append(1) or rk4_step(*a, **k))

        def right(x):
            calls.append(1)
            return np.array([1.0, 0.0])

        F = PiecewiseField(2, [SwitchingSurface.coordinate(0, 2)], {(-1,): right, (1,): right})
        tr = integrate_caratheodory(F, [-0.3, 0.0], 1.0, IntegratorConfig(dt_max=1.0))
        assert [e.kind for e in tr.events] == ["SurfaceHit"]
        steps = len(tr.times) - 1
        assert steps == 2 and len(trials) > 10
        assert len(calls) == steps + 3 * len(trials)

    def test_slide_step_reuses_the_sliding_vector(self):
        # The surface step reads the two cells once to classify; the slide
        # step reads them once at its start, and that sliding vector serves
        # as RK4's k1, so its three later stages read them three more times.
        # The calls are counted through the field's own cell callables.
        F = get_scenario("move_away_1").build()
        calls, rule = [], F.cell

        def counting(sigma):
            fn = rule(sigma)
            return None if fn is None else (lambda x: calls.append(sigma) or fn(x))

        F.cell = counting
        tr = integrate_filippov(F, [0.05, 0.05], 1e-3)
        assert [e.kind for e in tr.events] == ["SlideEnter"]
        assert len(tr.times) == 2
        assert len(calls) == 2 + 2 * 4

    def test_regular_step_looks_up_its_cell_once(self):
        # A step with no crossing looks its cell up once and then calls the
        # callable directly at each of the four RK4 stages.
        lookups, calls = [], []

        def rotation(x):
            calls.append(1)
            return np.array([-x[1], x[0]])

        def rule(sigma):
            lookups.append(sigma)
            return rotation if sigma == (-1,) else None

        far = SwitchingSurface.affine([1.0, 0.0], -10.0)  # x1 = 10, never reached
        F = PiecewiseField(2, [far], rule)
        n = 7
        tr = integrate_filippov(F, [1.0, 0.0], n * 0.01, IntegratorConfig(dt_max=0.01))
        assert len(tr.times) == n + 1 and not tr.events
        assert lookups == [(-1,)] * n
        assert len(calls) == 4 * n
        assert tr.modes[1:] == ["R:-"] * n

    def test_caratheodory_step_looks_up_its_cell_once(self):
        # As above, plus the start's lookup: the block after each step reads
        # the callable that step looked up, not the rule again.
        lookups, calls = [], []

        def rotation(x):
            calls.append(1)
            return np.array([-x[1], x[0]])

        def rule(sigma):
            lookups.append(sigma)
            return rotation if sigma == (-1,) else None

        far = SwitchingSurface.affine([1.0, 0.0], -10.0)
        F = PiecewiseField(2, [far], rule)
        n = 7
        tr = integrate_caratheodory(F, [1.0, 0.0], n * 0.01, IntegratorConfig(dt_max=0.01))
        assert len(tr.times) == n + 1 and not tr.events
        assert lookups == [(-1,)] * (n + 1)
        assert len(calls) == 4 * n
        assert tr.modes[1:] == ["R:-"] * n


class TestDeclaredAffineCells:
    """A cell declared by affine_cell steps by its exact RK4 map; results
    agree with the same cells as plain callables up to rounding."""

    @staticmethod
    def random_model(rng, declared: bool) -> PiecewiseField:
        d, m = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        switches = [SwitchingSurface.affine(a / np.linalg.norm(a), float(b))
                    for a, b in zip(rng.standard_normal((m, d)), rng.uniform(-0.3, 0.3, m))]
        cells = {}
        for sigma in itertools.product((-1, 1), repeat=m):
            A = None if rng.random() < 0.3 else 0.8 * rng.standard_normal((d, d))
            c = rng.standard_normal(d)
            if A is None:
                plain = (lambda c: lambda x: c.copy())(c)
            else:
                plain = (lambda A, c: lambda x: A @ x + c)(A, c)
            cells[sigma] = affine_cell(A, c) if declared else plain
        return PiecewiseField(d, switches, cells)

    def test_declared_map_matches_the_callable_path(self):
        hits = 0
        for seed in range(16):
            x0 = 0.5 * np.random.default_rng([seed, 1]).standard_normal(4)
            for run in (integrate_filippov, integrate_caratheodory):
                trs = []
                for declared in (False, True):
                    F = self.random_model(np.random.default_rng(seed), declared)
                    trs.append(run(F, x0[:F.dim], 1.0, IntegratorConfig(dt_max=0.02)))
                plain, exact = trs
                assert len(plain.times) == len(exact.times), (seed, run)
                assert plain.modes == exact.modes
                assert ([(e.kind, e.detail) for e in plain.events]
                        == [(e.kind, e.detail) for e in exact.events])
                assert np.max(np.abs(plain.states - exact.states)) <= 1e-12
                if "SlideEnter" in [e.kind for e in plain.events]:
                    # A slide step ends just before a crossing predicted from
                    # its state, so its times carry the states' rounding.
                    assert np.max(np.abs(plain.times - exact.times)) <= 1e-12
                else:
                    assert plain.times.tobytes() == exact.times.tobytes()
                    assert [e.time for e in plain.events] == [e.time for e in exact.events]
                hits += [e.kind for e in exact.events].count("SurfaceHit")
        assert hits >= 20  # crossings, so the bisection trials ran

    @pytest.mark.parametrize("run", [integrate_filippov, integrate_caratheodory])
    def test_undeclared_nonlinear_runs_are_unchanged(self, run):
        # Pinned bit for bit from the RK4 stage path before affine cells
        # were declared: a nonlinear crossing, and the unit-circle slide.
        F = PiecewiseField(2, [SwitchingSurface.coordinate(0, 2)], {
            (-1,): lambda x: np.array([1.0 + x[1] ** 2, x[0]]),
            (1,): lambda x: np.array([np.cos(x[1]), -x[0] ** 2])})
        tr = run(F, [-0.3, 0.1], 0.6, IntegratorConfig(dt_max=0.1))
        assert [(e.time, e.kind) for e in tr.events] == [(0.29847656823694707, "SurfaceHit")]
        assert tr.modes == ["R:-"] * 4 + ["R:+"] * 4
        assert tr.final_state.tolist() == [0.3010990327684456, 0.04616609283543664]
        tr = integrate_filippov(TestFilippovIntegrator.circle_slide(), [1.0, 0.0], 1.0,
                                IntegratorConfig(dt_max=0.1))
        assert len(tr.times) == 11 and [e.kind for e in tr.events] == ["SlideEnter"]
        assert tr.final_state.tolist() == [0.5403030045910238, 0.8414705361626824]

    @pytest.mark.parametrize("A", [None, [[0.3, -1.2, 0.1], [0.9, -0.4, 0.0], [0.2, 0.5, -1.1]]])
    def test_flow_is_the_rk4_step(self, A):
        import nsds.integrate as integrate

        c = np.array([0.7, -0.2, 1.3])
        fn = affine_cell(A, c)
        x, h = np.array([0.4, -1.1, 0.25]), 0.05
        flow = integrate._cell_flow(fn, x, h)
        for s in (1.0, 0.5, 0.3125, 1e-3):
            assert np.allclose(flow(s), rk4_step(fn, x, s * h), rtol=0, atol=1e-15)

    def test_step_map_keeps_one_entry(self):
        fn = affine_cell([[0.0, 1.0], [-1.0, 0.0]], [0.0, 0.5])
        M = fn.affine.step_map(0.1)[0]
        assert fn.affine.step_map(0.1)[0] is M
        fn.affine.step_map(0.05)  # replaces the entry for 0.1
        assert fn.affine.step_map(0.1)[0] is not M

    def test_declared_steps_make_no_point_call(self):
        calls = []
        A, c = np.array([[0.0, 1.0], [-1.0, 0.0]]), np.array([0.0, 0.5])

        def counted(x):
            calls.append(1)
            return A @ x + c

        cell = affine_cell(A, c, counted)
        far = SwitchingSurface.affine([1.0, 0.0], -10.0)  # x1 = 10, never reached
        tr = integrate_filippov(PiecewiseField(2, [far], {(-1,): cell, (1,): cell}),
                                [1.0, 0.0], 0.5, IntegratorConfig(dt_max=0.01))
        assert len(tr.times) == 51 and not tr.events and calls == []
        # A Caratheodory crossing localizes on the declared map too.
        F = PiecewiseField(2, [SwitchingSurface.coordinate(0, 2)], {(-1,): cell, (1,): cell})
        tr = integrate_caratheodory(F, [-0.3, 1.0], 0.5, IntegratorConfig(dt_max=0.1))
        assert [e.kind for e in tr.events] == ["SurfaceHit"] and calls == []

    def test_affine_cell_rejects_mismatched_shapes(self):
        with pytest.raises(ModelError, match="square A"):
            affine_cell([[1.0, 0.0]], [0.0, 1.0])
        with pytest.raises(ModelError, match="square A"):
            affine_cell(np.eye(2), [0.0, 1.0, 2.0])


class TestAffineBlocks:
    """Regular steps in a declared affine cell, and slides on affine
    surfaces between constant cells, advance in blocks that must give
    the samples, times, modes and events of single steps bit for bit.
    The same switches wrapped as opaque ``SwitchingSurface(value, grad)``
    carry no coefficients, so their field has no switch matrix and takes
    single steps only: that run is the reference."""

    @staticmethod
    def outcome(run, F, x0, t_end, cfg):
        try:
            tr = run(F, x0, t_end, cfg)
        except ModelError as err:
            return str(err)
        return tr.times.tobytes(), tr.states.tobytes(), tr.modes, tr.events

    def both(self, run, F, x0, t_end, cfg, monkeypatch):
        """(outcome with blocks, outcome with single steps, block steps taken);
        ``self.slid`` maps each sliding mode to the block steps taken in it."""
        import nsds.integrate as integrate

        taken, block = collections.Counter(), integrate._affine_block

        def counted(*args):
            n, read = block(*args)
            taken[args[3]] += n  # keyed by the mode of its samples
            return n, read

        monkeypatch.setattr(integrate, "_affine_block", counted)
        opaque = PiecewiseField(F.dim, [SwitchingSurface(s.value, s.grad, s.name)
                                        for s in F.switches], F.cell)
        if not F.switches:  # nothing to wrap: drop the empty switch matrix
            opaque._switch_matrix = None
        single = self.outcome(run, opaque, x0, t_end, cfg)
        assert sum(taken.values()) == 0
        with_blocks = self.outcome(run, F, x0, t_end, cfg)
        self.slid = {mode: n for mode, n in taken.items() if mode.startswith("S:") and n}
        return with_blocks, single, sum(taken.values())

    @staticmethod
    def far_field(A, c) -> PiecewiseField:
        """One declared cell on both sides of x1 = 10, which no run reaches."""
        cell = affine_cell(A, c)
        return PiecewiseField(2, [SwitchingSurface.affine([1.0, 0.0], -10.0)],
                              {(-1,): cell, (1,): cell})

    @pytest.mark.parametrize("max_steps", [2_000_000, 37], ids=["horizon", "step_limit"])
    @pytest.mark.parametrize("run", [integrate_filippov, integrate_caratheodory])
    def test_random_models_take_the_single_steps(self, run, max_steps, monkeypatch):
        # 1.013 is not a multiple of dt_max, so the horizon's last step is
        # short; 37 steps end inside what would otherwise be a block.
        cfg = IntegratorConfig(dt_max=0.02, max_steps=max_steps)
        blocked = hits = 0
        for seed in range(16):
            F = TestDeclaredAffineCells.random_model(np.random.default_rng(seed), True)
            x0 = 0.5 * np.random.default_rng([seed, 1]).standard_normal(F.dim)
            with_blocks, single, taken = self.both(run, F, x0, 1.013, cfg, monkeypatch)
            assert with_blocks == single, seed
            kinds = [e.kind for e in single[3]]
            assert (kinds[-1:] == ["StepLimit"]) == (max_steps == 37)
            blocked += taken
            hits += kinds.count("SurfaceHit")
        assert blocked >= 200 and hits >= 5

    @pytest.mark.parametrize("run", [integrate_filippov, integrate_caratheodory])
    def test_decay_to_a_stall(self, run, monkeypatch):
        # x' = -3 x shrinks until a Filippov run declares a stall; blocks
        # take the steps that move more than twice the stall bound.
        F = self.far_field(-3.0 * np.eye(2), [0.0, 0.0])
        cfg = IntegratorConfig(dt_max=0.02, conv_tol=1e-3)
        with_blocks, single, taken = self.both(run, F, [1.0, 1.0], 4.0, cfg, monkeypatch)
        assert with_blocks == single and taken >= 60
        events = single[3]
        if run is integrate_filippov:
            assert [(e.kind, e.detail) for e in events] == [("Converged", "stall window")]
            assert single[2].count("STOP") > 40
        else:
            assert events == []

    @pytest.mark.parametrize("switches", [1, 0], ids=["far_switch", "no_switch"])
    @pytest.mark.parametrize("run", [integrate_filippov, integrate_caratheodory])
    def test_blow_up_names_the_same_time(self, run, switches, monkeypatch):
        F = self.far_field(50.0 * np.eye(2), [0.0, 0.0])  # grows 65x per step
        if not switches:
            F = PiecewiseField(2, [], {(): F.cell((1,))})
        with np.errstate(over="ignore", invalid="ignore"):  # single steps overflow
            with_blocks, single, taken = self.both(run, F, [-1.0, 0.5], 100.0,
                                                   IntegratorConfig(dt_max=0.1), monkeypatch)
        assert isinstance(single, str) and "not finite at t=" in single
        assert with_blocks == single and taken >= 60

    def test_a_zero_cell_stalls_after_a_block(self, monkeypatch):
        # Samples 2 to 19 have no sample STALL_WINDOW steps back, so a block
        # takes them; sample 20 is left to the single step that stalls.
        F = self.far_field(None, [0.0, 0.0])
        with_blocks, single, taken = self.both(integrate_filippov, F, [1.0, 1.0], 1.0,
                                               IntegratorConfig(dt_max=0.01), monkeypatch)
        assert with_blocks == single and taken == 18
        assert [(e.kind, e.detail) for e in single[3]] == [("Converged", "stall window")]

    @pytest.mark.parametrize("run", [integrate_filippov, integrate_caratheodory])
    def test_a_sample_within_the_band_is_left_to_single_steps(self, run, monkeypatch):
        # Steps of 0.01 from x1 = -0.5 - 1e-12 reach x1 = -1e-12, inside the
        # band of x1 = 0 without crossing it: a Filippov run records the
        # landing there, so no block may take that sample.
        cell = affine_cell(None, [1.0, 0.0])
        F = PiecewiseField(2, [SwitchingSurface.coordinate(0, 2)], {(-1,): cell, (1,): cell})
        with_blocks, single, taken = self.both(run, F, [-0.5 - 1e-12, 0.0], 1.0,
                                               IntegratorConfig(dt_max=0.01), monkeypatch)
        assert with_blocks == single and taken >= 80
        if run is integrate_filippov:
            [hit] = single[3]
            assert hit.kind == "SurfaceHit" and abs(hit.time - 0.5) < 1e-9

    def test_a_constant_cell_takes_blocks(self, monkeypatch):
        F = get_scenario("move_away_1").build()
        with_blocks, single, taken = self.both(integrate_filippov, F, [-0.5, 0.1], 0.6,
                                               IntegratorConfig(dt_max=1e-3), monkeypatch)
        assert with_blocks == single and taken >= 300

    @pytest.mark.parametrize("name", ["move_away_1", "smq_flow"])
    @pytest.mark.parametrize("x0", [[-0.5, 0.1], [0.3, -0.7], [0.9, 0.2]])
    def test_move_away_slides_take_blocks(self, name, x0, monkeypatch):
        F = get_scenario(name).build()
        with_blocks, single, _ = self.both(integrate_filippov, F, x0, 1.0, IntegratorConfig(),
                                           monkeypatch)
        assert with_blocks == single
        assert [e.kind for e in single[3]][:2] == ["SurfaceHit", "SlideEnter"]
        assert sum(self.slid.values()) >= 190

    def test_path_sign_consensus_slides_take_blocks(self, monkeypatch):
        # Agent values slide at |g| of about 7e-11, inside event_refine_tol.
        F = sign_consensus_field(Graph.path(3))
        with_blocks, single, _ = self.both(integrate_filippov, F, [0.0, 0.04, 0.1], 0.3,
                                           IntegratorConfig(), monkeypatch)
        assert with_blocks == single and self.slid == {"S:1": 36}
        assert single[3][-1].detail == "least-norm selection vanished"

    @staticmethod
    def random_slide_model(rng) -> PiecewiseField:
        """Constant cells around one to three affine switches, pushed toward
        switch 0 from both sides, so most runs slide on it."""
        d, m = int(rng.integers(2, 4)), int(rng.integers(1, 4))
        switches = [SwitchingSurface.affine(a / np.linalg.norm(a), float(b))
                    for a, b in zip(rng.standard_normal((m, d)), rng.uniform(-0.3, 0.3, m))]
        a = switches[0].coefficients[0]
        return PiecewiseField(d, switches, {
            sigma: affine_cell(None, rng.standard_normal(d) - 3.0 * sigma[0] * a)
            for sigma in itertools.product((-1, 1), repeat=m)})

    @pytest.mark.parametrize("max_steps", [2_000_000, 37], ids=["horizon", "step_limit"])
    def test_random_slide_models_take_the_single_steps(self, max_steps, monkeypatch):
        # 1.013 is not a multiple of dt_max, so the horizon's last step is
        # short; 37 steps end inside what would otherwise be a block.
        cfg = IntegratorConfig(dt_max=0.01, max_steps=max_steps)
        blocked = slides = 0
        for seed in range(16):
            F = self.random_slide_model(np.random.default_rng(seed))
            x0 = 0.5 * np.random.default_rng([seed, 1]).standard_normal(F.dim)
            with_blocks, single, _ = self.both(integrate_filippov, F, x0, 1.013, cfg, monkeypatch)
            assert with_blocks == single, seed
            kinds = [e.kind for e in single[3]]
            assert (kinds[-1:] == ["StepLimit"]) == (max_steps == 37)
            blocked += sum(n for mode, n in self.slid.items() if "," not in mode)
            slides += kinds.count("SlideEnter")
        assert slides >= 15 and blocked >= (300 if max_steps == 37 else 1000)

    @staticmethod
    def two_speed_slide() -> PiecewiseField:
        """Constant cells whose slide on x2 = 0 moves at speed 1 while
        x1 < 0.5 and at speed 2 beyond."""
        c = lambda *v: affine_cell(None, list(v))
        return PiecewiseField(2, [SwitchingSurface.coordinate(1, 2),
                                  SwitchingSurface.affine([1.0, 0.0], -0.5)],
                              {(-1, -1): c(1.0, 1.0), (1, -1): c(1.0, -1.0),
                               (-1, 1): c(2.0, 1.0), (1, 1): c(2.0, -1.0)})

    def test_a_second_surface_inside_a_block_is_left_to_single_steps(self, monkeypatch):
        # x1 reaches 0.5 at t = 0.4963, between samples: the slide steps
        # before it are clamped, and the hit is found by a single step.
        with_blocks, single, _ = self.both(integrate_filippov, self.two_speed_slide(),
                                           [0.0037, 0.0537], 0.6, IntegratorConfig(dt_max=0.01),
                                           monkeypatch)
        assert with_blocks == single and self.slid["S:0"] >= 35
        hit = next(e for e in single[3] if e.detail == "surface 1 while sliding on 0")
        assert abs(hit.time - 0.4963) <= 1e-9

    def test_a_slide_reentered_with_new_side_cells_moves_at_their_speed(self, monkeypatch):
        # The slide on x2 = 0 is left at x1 = 0.5 and entered again on the
        # same surface, now between the cells of speed 2.
        with_blocks, single, _ = self.both(integrate_filippov, self.two_speed_slide(),
                                           [0.0, 0.0537], 1.0, IntegratorConfig(dt_max=0.01),
                                           monkeypatch)
        assert with_blocks == single and self.slid["S:0"] >= 80
        times, states, modes, events = single
        assert [e.kind for e in events].count("SlideEnter") == 2
        t, x = np.frombuffer(times), np.frombuffer(states).reshape(-1, 2)
        assert x[-1, 0] == pytest.approx(0.5 + 2.0 * (1.0 - 0.5), abs=1e-9)
        late = t > 0.53
        assert np.allclose(np.diff(x[late, 0]), 2.0 * np.diff(t[late]), rtol=0.0, atol=1e-12)

    def test_a_slide_that_drifts_off_its_surface_is_left_to_single_steps(self, monkeypatch):
        # With normal parts of 3e6 and -2.1e6, the sliding vector is tangent
        # to a . x = 0 only up to rounding, and a slide step moves g by about
        # 1e-11; a single step projects back each time |g| passes
        # event_refine_tol, and no block may take such a step.
        a, tau = np.array([0.6, 0.8]), np.array([0.8, -0.6])
        F = PiecewiseField(2, [SwitchingSurface.affine(a, 0.0)],
                           {(-1,): affine_cell(None, tau + 3e6 * a),
                            (1,): affine_cell(None, tau - 2.1e6 * a)})
        with_blocks, single, _ = self.both(integrate_filippov, F, [0.1, -0.2], 5.0,
                                           IntegratorConfig(dt_max=0.01), monkeypatch)
        assert with_blocks == single and self.slid["S:0"] >= 300
        g = (np.frombuffer(single[1]).reshape(-1, 2) @ a)[np.array(single[2]) == "S:0"]
        assert (np.abs(np.diff(g)) > 5e-11).sum() >= 5  # the projections

    def test_the_brick_stalls_after_a_slide_block(self, monkeypatch):
        # The brick's sliding vector on v = 0 is -8.9e-16: a slide block
        # takes the samples whose window still reaches back to the moving
        # brick, and a single step declares the stall.
        with_blocks, single, _ = self.both(integrate_filippov, get_scenario("brick").build(),
                                           [0.5], 0.3, IntegratorConfig(), monkeypatch)
        assert with_blocks == single and self.slid == {"S:0": 18}
        assert (single[3][-1].kind, single[3][-1].detail) == ("Converged", "sliding stall")
        steps = self.single_steps(monkeypatch)
        get_scenario("brick").simulate([0.5], 0.3)
        assert steps[1] == 2  # single slide steps, 20 before the window test

    def test_callable_slides_take_single_steps(self, monkeypatch):
        plain = lambda v: (lambda x: np.array(v))
        F = PiecewiseField(1, [SwitchingSurface.coordinate(0, 1)],
                           {(-1,): plain([1.0]), (1,): plain([-2.0])})
        with_blocks, single, _ = self.both(integrate_filippov, F, [0.3], 1.0,
                                           IntegratorConfig(dt_max=0.01), monkeypatch)
        assert with_blocks == single and self.slid == {}
        assert "SlideEnter" in [e.kind for e in single[3]]

    def test_a_two_surface_slide_takes_blocks(self, monkeypatch):
        # Constant cells pushing onto x1 = x2 = 0 from all four sides slide
        # along x3 on both surfaces at once.
        c = lambda *v: affine_cell(None, list(v))
        F = PiecewiseField(3, [SwitchingSurface.coordinate(0, 3),
                               SwitchingSurface.coordinate(1, 3)],
                           {(s1, s2): c(-s1, -0.5 * s2, 1.0) for s1 in (-1, 1) for s2 in (-1, 1)})
        with_blocks, single, _ = self.both(integrate_filippov, F, [0.0, 0.0, 0.0], 1.0,
                                           IntegratorConfig(dt_max=0.01), monkeypatch)
        assert with_blocks == single and self.slid == {"S:0,1": 98}
        assert set(single[2]) == {"S:0,1"}

    @staticmethod
    def random_corner_model(rng) -> PiecewiseField:
        """Constant cells around two or three affine switches with
        orthonormal normals, each cell pushing toward every switch and all
        drifting alike, so most runs slide on several switches at once."""
        m = int(rng.integers(2, 4))
        d = m + int(rng.integers(1, 3))
        normals = np.linalg.qr(rng.standard_normal((d, d)))[0][:m]
        switches = [SwitchingSurface.affine(a, float(b))
                    for a, b in zip(normals, rng.uniform(-0.3, 0.3, m))]
        drift = 0.5 * rng.standard_normal(d)
        return PiecewiseField(d, switches, {
            sigma: affine_cell(None, drift - 2.0 * np.array(sigma, dtype=float) @ normals)
            for sigma in itertools.product((-1, 1), repeat=m)})

    @pytest.mark.parametrize("max_steps", [2_000_000, 37], ids=["horizon", "step_limit"])
    def test_random_multi_surface_slides_take_the_single_steps(self, max_steps, monkeypatch):
        cfg = IntegratorConfig(dt_max=0.01, max_steps=max_steps)
        blocked = slides = 0
        for seed in range(12):
            F = self.random_corner_model(np.random.default_rng([seed, 7]))
            x0 = 0.3 * np.random.default_rng([seed, 8]).standard_normal(F.dim)
            with_blocks, single, _ = self.both(integrate_filippov, F, x0, 1.013, cfg, monkeypatch)
            assert with_blocks == single, seed
            kinds = [e.kind for e in single[3]]
            assert (kinds[-1:] == ["StepLimit"]) == (max_steps == 37)
            blocked += sum(n for mode, n in self.slid.items() if "," in mode)
            slides += sum("," in mode for mode in set(single[2]))
        assert slides >= 10 and blocked >= (100 if max_steps == 37 else 500)

    @staticmethod
    def reads(monkeypatch) -> list:
        """The result of every ``_clear_rows`` read from now on: one bool
        per row, whether single steps would take it as a plain step."""
        results, clear = [], PiecewiseField._clear_rows

        def counted(self, X, *args):
            results.append(clear(self, X, *args))
            return results[-1]

        monkeypatch.setattr(PiecewiseField, "_clear_rows", counted)
        return results

    @staticmethod
    def single_steps(monkeypatch) -> collections.Counter:
        """The single steps of every Filippov run from now on, keyed by the
        number of surfaces each slides on (0 for a step off a slide)."""
        import nsds.integrate as integrate

        counts, step = collections.Counter(), integrate._FilippovRun.step

        def counted(self, h):
            counts[len(self.S)] += 1
            return step(self, h)

        monkeypatch.setattr(integrate._FilippovRun, "step", counted)
        return counts

    def test_the_brick_at_rest_reads_one_block(self, monkeypatch):
        # Its sliding vector is -8.9e-16, so a block's first step moves less
        # than twice the stall bound: only the slide block whose first
        # sample lies beyond that bound from the sample STALL_WINDOW steps
        # back is read, after three in R:+.
        results = self.reads(monkeypatch)
        get_scenario("brick").simulate([0.5], 0.3)
        assert len(results) == 4

    def test_no_block_is_read_at_the_horizon(self, monkeypatch):
        results = self.reads(monkeypatch)
        get_scenario("oscillator").simulate([0.012, 0.1549], 0.4)
        assert len(results) == 7 and all(len(plain) for plain in results)

    def test_a_full_block_hands_over_to_the_next_block(self, monkeypatch):
        steps = self.single_steps(monkeypatch)
        get_scenario("oscillator").simulate([0.012, 0.1549], 0.4)
        assert sum(steps.values()) == 4  # 9 with a single step after each full block

    def test_multi_surface_slides_hand_over_between_blocks(self, monkeypatch):
        # From 0.3 i, path-6 sign consensus slides on four surfaces at once
        # and path-12 on ten; a full slide block is followed by the next one.
        F, p0 = sign_consensus_field(Graph.path(6)), [0.3 * i for i in range(6)]
        with_blocks, single, _ = self.both(integrate_filippov, F, p0, 5.0, IntegratorConfig(),
                                           monkeypatch)
        assert with_blocks == single
        steps = self.single_steps(monkeypatch)
        integrate_filippov(F, p0, 5.0)
        assert {k: n for k, n in steps.items() if k} == {4: 4}  # 15 before
        steps.clear()
        consensus_flow(Graph.path(12), "sign", [0.3 * i for i in range(12)], 5.0)
        assert {k: n for k, n in steps.items() if k} == {10: 4}  # 29 before

    @pytest.mark.parametrize("name, x0, t_end", [
        ("oscillator_dissipative", [0.005, 0.1], 0.7),  # first steps that cross
        ("smq_flow", [0.125, 0.055], 0.3),  # first slide steps inside the floor
        ("move_away_1", [0.055, 0.055], 0.16),
    ])
    def test_every_block_read_keeps_its_first_step(self, name, x0, t_end, monkeypatch):
        # A block whose first step single steps must take declines before
        # it builds and reads any row.
        results = self.reads(monkeypatch)
        get_scenario(name).simulate(x0, t_end)
        assert results and all(plain[0] for plain in results)

    @pytest.mark.parametrize("name, x0, t_end, taken", [
        ("brick", [0.5], 0.3, {"R:+": 138, "S:0": 18}),
        ("oscillator", [0.012, 0.1549], 0.4, {"R:+": 372, "R:-": 25}),
        ("smq_flow", [0.125, 0.055], 0.3, {"R:-+": 68, "S:0": 106}),
    ])
    def test_no_block_the_read_would_keep_is_declined(self, name, x0, t_end, taken,
                                                      monkeypatch):
        import nsds.integrate as integrate

        counts, block = collections.Counter(), integrate._affine_block

        def counted(*args):
            n, read = block(*args)
            counts[args[3]] += n
            return n, read

        monkeypatch.setattr(integrate, "_affine_block", counted)
        get_scenario(name).simulate(x0, t_end)
        assert {mode: n for mode, n in counts.items() if n} == taken


class TestPartitionCap:
    @pytest.mark.parametrize("diam", [1e-300, 5e-324])
    def test_tiny_diameter_is_a_value_error_before_allocation(self, diam, monkeypatch):
        # 1e-300 used to reach np.linspace ("Maximum allowed size exceeded"),
        # and 5e-324 overflowed math.ceil.
        monkeypatch.setattr(PartitionSchedule, "uniform",
                            classmethod(lambda *a: pytest.fail("a schedule was allocated")))
        with pytest.raises(ValueError, match="more than 1000000 intervals"):
            PartitionSchedule.with_diameter(0.0, 0.3, diam)

    @pytest.mark.parametrize("n, message", [
        (10**12, "more than 1000000 intervals"),  # numpy's MemoryError for 7.28 TiB
        (1_000_001, "more than 1000000 intervals"),
        (2.5, "not a positive integer"),  # a TypeError
        (-3, "not a positive integer"),  # numpy's own ValueError
        (0, "not a positive integer"),
    ])
    def test_uniform_checks_its_count_before_allocation(self, n, message, monkeypatch):
        monkeypatch.setattr(np, "linspace",
                            lambda *a, **k: pytest.fail("a schedule was allocated"))
        with pytest.raises(ValueError, match=message):
            PartitionSchedule.uniform(0.0, 1.0, n)

    def test_a_partition_at_the_cap_is_built(self):
        sched = PartitionSchedule.with_diameter(0.0, 0.3, 0.3 / 999_999)
        assert len(sched.breakpoints) == 1_000_000 + 1
