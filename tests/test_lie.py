import math

import numpy as np
import pytest

from nsds.errors import EmptySetError, UnsupportedError
from nsds.fields import control_inclusion, filippov_set
from nsds.geometry import Polytope
from nsds.lie import (
    GridSpec,
    LieInterval,
    exclude_band,
    invariance_candidate_set,
    lower_upper_lie,
    lyapunov_certify,
    monotonicity_verdict,
    set_lie_derivative,
)
from nsds.integrate import IntegratorConfig, gradient_flow
from nsds.nonsmooth import (
    ALL_SPACE,
    UNSUPPORTED,
    Dilation,
    GradientResult,
    NsFunction,
    descent_direction,
    half_square_atom,
    make_function,
)
from nsds.scenarios import cart_input_field, get_scenario

from helpers import count_polytopes, maximin_lp_oracle, set_lie_lp_oracle


class TestLieInterval:
    def test_empty_conventions(self):
        e = LieInterval.empty()
        assert (e.lo, e.hi) == (math.inf, -math.inf)
        assert e.max_value() == -math.inf
        assert e.min_value() == math.inf
        assert not e.contains(0.0)
        assert not e.contains(math.inf) and not e.contains(-math.inf)
        # Nonpositivity checks pass vacuously on the empty set.
        assert e.max_value() <= 0.0

    def test_closed_and_point(self):
        iv = LieInterval.closed(2.0, -1.0)  # endpoints get ordered
        assert (iv.lo, iv.hi) == (-1.0, 2.0)
        assert iv.contains(0.0)
        assert LieInterval.closed(3.0, 3.0).max_value() == 3.0


class TestSetLieDerivative:
    def test_oscillator_on_axis_is_empty(self):
        Fset = Polytope([[0.7, -1.0], [0.7, 1.0]])
        grad = Polytope([[-1.0, 0.7], [1.0, 0.7]])
        assert set_lie_derivative(Fset, grad).is_empty

    def test_oscillator_off_axis_is_zero(self):
        iv = set_lie_derivative(Polytope([[0.7, -1.0]]), Polytope([[1.0, 0.7]]))
        assert iv.lo == pytest.approx(0.0, abs=1e-12)
        assert iv.hi == pytest.approx(0.0, abs=1e-12)

    def test_gradient_flow_of_abs_at_kink(self):
        seg = Polytope([[-1.0], [1.0]])
        iv = set_lie_derivative(seg, seg)
        # Brute force: v must satisfy zeta*v constant over zeta in [-1,1],
        # forcing v = 0 and the value 0.
        vs = np.linspace(-1, 1, 2001)
        feasible = [v for v in vs if abs((-1) * v - (1) * v) <= 1e-12]
        assert feasible == [0.0]
        assert iv.lo == pytest.approx(0.0, abs=1e-10)
        assert iv.hi == pytest.approx(0.0, abs=1e-10)

    def test_duplicated_gradient_vertices_are_harmless(self):
        Fset = Polytope([[0.5, -1.0], [0.5, 1.0]])
        grad = Polytope([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        iv = set_lie_derivative(Fset, grad)
        assert (iv.lo, iv.hi) == (pytest.approx(0.5), pytest.approx(0.5))

    def test_empty_inputs_rejected(self):
        with pytest.raises(EmptySetError):
            set_lie_derivative(Polytope.empty(1), Polytope([[1.0]]))

    def test_dependent_gradient_vertices_against_external_lp(self):
        # Gradient vertices on a lower-dimensional affine subspace, plus a
        # duplicate, give redundant equality rows that the simplex must drop.
        rng = np.random.default_rng(11)
        nonempty = 0
        for _ in range(300):
            d = int(rng.integers(1, 4))
            r = int(rng.integers(0, d))  # affine dimension of the gradient set
            m = int(rng.integers(r + 2, r + 5))  # more than r + 1 vertices
            rows = rng.uniform(-1, 1, d) + rng.uniform(-1, 1, (m, r)) @ rng.uniform(-1, 1, (r, d))
            rows = rng.permutation(np.vstack([rows, rows[rng.integers(m)]]))
            grad = Polytope(rows)
            Fset = Polytope(rng.uniform(-1, 1, (int(rng.integers(1, 6)), d)))
            iv = set_lie_derivative(Fset, grad)
            ref = set_lie_lp_oracle(Fset, grad)
            assert iv.is_empty == (ref is None)
            if ref is not None:
                nonempty += 1
                assert iv.lo == pytest.approx(ref[0], abs=1e-8)
                assert iv.hi == pytest.approx(ref[1], abs=1e-8)
        assert 50 <= nonempty <= 250  # both outcomes are exercised

    def test_one_vertex_gradient_closed_form_against_external_lp(self):
        # A one-vertex gradient leaves the whole field polytope feasible; the
        # closed form must match HiGHS on polytopes with duplicated and
        # affinely dependent vertices.
        rng = np.random.default_rng(21)
        for _ in range(300):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(1, 9))
            r = int(rng.integers(0, d + 1))  # affine dimension of the field set
            rows = rng.uniform(-1, 1, d) + rng.uniform(-1, 1, (n, r)) @ rng.uniform(-1, 1, (r, d))
            if rng.random() < 0.5:
                rows = rng.permutation(np.vstack([rows, rows[rng.integers(n)]]))
            Fset, grad = Polytope(rows), Polytope([rng.uniform(-1, 1, d)])
            iv = set_lie_derivative(Fset, grad)
            ref = set_lie_lp_oracle(Fset, grad)
            assert ref is not None and not iv.is_empty
            assert abs(iv.lo - ref[0]) <= 1e-12
            assert abs(iv.hi - ref[1]) <= 1e-12


class TestLowerUpperLie:
    def test_cart_spot_values(self):
        f = make_function("cart_lyapunov")
        for x in ([1.0, 0.0], [0.6, 0.3], [-0.4, 0.8], [0.2, -1.1]):
            x = np.array(x)
            g = cart_input_field(x)
            Fset = Polytope([-g, g])
            lower, upper = lower_upper_lie(Fset, f.proximal(x))
            s = math.hypot(x[0], x[1])
            expected = -(s ** 3) / (s + abs(x[0]))
            assert lower.hi == pytest.approx(expected, abs=1e-8)
            assert lower.lo == pytest.approx(expected, abs=1e-8)
            assert upper.hi == pytest.approx(-expected, abs=1e-8)

    def test_empty_prox_gives_empty_intervals(self):
        f = make_function("cart_lyapunov")
        lower, upper = lower_upper_lie(Polytope([[1.0, 0.0]]), f.proximal([0.0, 0.4]))
        assert lower.is_empty and upper.is_empty

    def test_vertex_enumeration_example(self):
        lower, upper = lower_upper_lie(Polytope([[-1.0, 0.0], [0.0, -1.0]]),
                                       Polytope([[1.0, 0.0]]))
        assert (lower.lo, lower.hi) == (pytest.approx(-1.0), pytest.approx(-1.0))
        assert (upper.lo, upper.hi) == (pytest.approx(0.0), pytest.approx(0.0))

    def test_endpoints_against_grid_and_external_lp(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            d = int(rng.integers(1, 4))
            prox = Polytope(2 * rng.random((int(rng.integers(1, 5)), d)) - 1)
            Fset = Polytope(2 * rng.random((int(rng.integers(1, 5)), d)) - 1)
            lower, upper = lower_upper_lie(Fset, prox)
            # Vertex-attained endpoints match the 200x200 sample grid exactly;
            # the two optimization endpoints match an external LP solver.
            zs = _sample_hull(rng, prox, 200)
            vs = _sample_hull(rng, Fset, 200)
            M = zs @ vs.T
            mins = M.min(axis=1)
            maxs = M.max(axis=1)
            assert lower.lo <= mins.min() + 1e-9
            assert abs(lower.lo - mins.min()) <= 1e-4
            assert upper.hi >= maxs.max() - 1e-9
            assert abs(upper.hi - maxs.max()) <= 1e-4
            # Sampled values stay inside the reported intervals.
            assert mins.max() <= lower.hi + 1e-9
            assert maxs.min() >= upper.lo - 1e-9
            assert lower.hi == pytest.approx(maximin_lp_oracle(prox, Fset), abs=1e-8)
            assert upper.lo == pytest.approx(-maximin_lp_oracle(prox, Fset.scaled(-1.0)),
                                             abs=1e-8)

    def test_all_space_unsupported(self):
        with pytest.raises(UnsupportedError):
            lower_upper_lie(Polytope([[1.0]]), ALL_SPACE)


def _sample_hull(rng, P: Polytope, count: int) -> np.ndarray:
    """Vertices plus random convex combinations: a hull sample grid."""
    pts = [v for v in P.vertices]
    while len(pts) < count:
        w = rng.random(P.n_vertices)
        w /= w.sum()
        pts.append(w @ P.vertices)
    return np.array(pts)


class TestGridSpec:
    def test_parse_and_points(self):
        grid = GridSpec.parse("-1:1:3,0:2:3")
        pts = list(grid.points())
        assert len(pts) == 9
        assert np.allclose(pts[0], [-1.0, 0.0])

    @pytest.mark.parametrize("lows, highs, counts, axis", [
        ((-1, -1), (1, 1), (0, 5), 0),
        ((-1, -1), (1, 1), (5, -2), 1),
        ((-1, -1), (1, 1), (5, 2.5), 1),
        ((-1, -1), (1, 1), (5.0, 5), 0),
        ((-1, -1), (1, 1), (5, math.nan), 1),
        ((-1, math.nan), (1, 1), (5, 5), 1),
        ((-math.inf, -1), (1, 1), (5, 5), 0),
        ((-1, -1), (1, math.inf), (5, 5), 1),
    ])
    def test_constructor_names_the_bad_axis(self, lows, highs, counts, axis):
        with pytest.raises(ValueError, match=f"grid axis {axis}:"):
            GridSpec(lows, highs, counts)

    @pytest.mark.parametrize("text", ["-1:1:1001,-1:1:1001", "-1:1:1000000000,-1:1:1000000000"])
    def test_point_count_is_capped(self, text):
        # A 1e9-point axis was accepted, and axes() would then allocate 8 GB.
        with pytest.raises(ValueError, match=r"grid has \d+ points, more than the 1000000"):
            GridSpec.parse(text)
        assert GridSpec.parse("-1:1:1000,-1:1:1000").counts == (1000, 1000)

    def test_constructor_rejects_ragged_or_axisless_grids(self):
        for lows, highs, counts in [((), (), ()), ((-1, -1), (1,), (3, 3))]:
            with pytest.raises(ValueError, match="per axis"):
                GridSpec(lows, highs, counts)

    @pytest.mark.parametrize("text, axis", [
        ("-1:1:0,-1:1:3", 0),
        ("-1:1:3,-1:1:-1", 1),
        ("-1:1:3,nan:1:3", 1),
        ("-1:inf:3", 0),
        ("-1:1,-1:1:3", 0),
        ("-1:1:3,-1:1:3:4", 1),
        ("-1:1:3,a:1:3", 1),
        ("-1:1:2.5", 0),
        ("", 0),
    ])
    def test_parse_names_the_bad_axis(self, text, axis):
        with pytest.raises(ValueError, match=f"grid axis {axis}:"):
            GridSpec.parse(text)

    def test_exclusion_band(self):
        grid = GridSpec.parse("-1:1:21,-1:1:21", exclude=exclude_band(1e-6, axes=(0,)))
        pts = np.array(list(grid.points()))
        assert np.all(np.abs(pts[:, 0]) > 1e-6)
        assert pts.shape[0] == 20 * 21

    @pytest.mark.parametrize("band", [math.nan, math.inf, -1e-6])
    def test_exclusion_band_must_be_finite_and_nonnegative(self, band):
        # A NaN band excluded no point, while the grid reported an exclusion.
        with pytest.raises(ValueError, match="exclusion band must be finite and nonnegative"):
            exclude_band(band, axes=(0,))
        assert exclude_band(0.0)(np.array([0.0, 1.0]))


class TestMonotonicity:
    def test_cart_weak_certified(self):
        f = make_function("cart_lyapunov")
        source = lambda x: Polytope([-cart_input_field(x), cart_input_field(x)])
        grid = GridSpec.parse("-1:1:21,-1:1:21")
        rep = monotonicity_verdict("weak", f, source, grid)
        assert rep.verdict == "certified"
        assert rep.checked_points == 441
        assert rep.details["max_value"] <= 1e-9
        assert len(rep.details["max_point"]) == 2

    def test_vacuous_sweep_has_no_worst_point(self):
        # The proximal subdifferential is empty on the whole line x1 = 0.
        f = make_function("cart_lyapunov")
        source = lambda x: Polytope([cart_input_field(x)])
        rep = monotonicity_verdict("weak", f, source, GridSpec.parse("0:0:1,-1:1:5"))
        assert (rep.verdict, rep.checked_points) == ("certified", 5)
        assert rep.details == {"max_value": None, "max_point": None}

    def test_fully_excluded_grid_is_inconclusive(self):
        f = make_function("cart_lyapunov")
        source = lambda x: Polytope([-cart_input_field(x), cart_input_field(x)])
        grid = GridSpec.parse("-1:1:5,-1:1:5", exclude=exclude_band(10))
        rep = monotonicity_verdict("weak", f, source, grid)
        assert (rep.verdict, rep.checked_points) == ("inconclusive", 0)
        assert (rep.failed_clause, rep.witness) == ("empty-grid", None)

    def test_oscillator_energy_strong_certified_off_axis(self):
        osc = get_scenario("oscillator").build()
        f = make_function("energy_oscillator")
        grid = GridSpec.parse("-1:1:20,-1:1:20", exclude=exclude_band(1e-9, axes=(0,)))
        rep = monotonicity_verdict("strong", f, lambda x: filippov_set(osc, x), grid)
        assert rep.verdict == "certified"

    def test_expansive_field_falsified(self):
        from nsds.fields import PiecewiseField, SwitchingSurface

        sign = PiecewiseField(
            1, [SwitchingSurface.coordinate(0, 1)],
            {(-1,): lambda x: np.array([-1.0]), (1,): lambda x: np.array([1.0])},
        )
        f = half_square_atom(0, 1)
        grid = GridSpec.parse("0.1:1:10")
        rep = monotonicity_verdict("weak", f, lambda x: filippov_set(sign, x), grid)
        assert rep.verdict == "falsified"
        assert rep.witness is not None
        assert rep.details["value"] > 0

    def test_strong_needs_asserted_hypotheses(self):
        f = make_function("cart_lyapunov")
        source = lambda x: Polytope([cart_input_field(x)])
        grid = GridSpec.parse("0.5:1:3,0:1:3")
        rep = monotonicity_verdict("strong", f, source, grid, strong_hypotheses_ok=False)
        assert rep.verdict == "inconclusive"


class TestLyapunovCertify:
    def test_oscillator_thm1(self):
        osc = get_scenario("oscillator").build()
        f = make_function("energy_oscillator")
        rep = lyapunov_certify("thm1", f, lambda x: filippov_set(osc, x),
                               [0.0, 0.0], GridSpec.parse("-1:1:21,-1:1:21"))
        assert rep.verdict == "certified"
        assert rep.checked_points == 441

    def test_certified_report_states_worst_margin(self):
        osc = get_scenario("oscillator").build()
        f = make_function("energy_oscillator")
        source = lambda x: filippov_set(osc, x)
        grid = GridSpec.parse("-1:1:21,-1:1:21")
        rep = lyapunov_certify("thm1", f, source, [0.0, 0.0], grid)
        worst, at = -math.inf, None
        for x in grid.points():
            val = set_lie_derivative(source(x), f.gradient(x).polytope).max_value()
            if val > worst:
                worst, at = val, x.tolist()
        assert rep.verdict == "certified"
        assert rep.details["max_value"] == worst <= rep.details["tol"]
        assert rep.details["max_point"] == at

    def test_grid_with_an_empty_axis_is_rejected(self):
        osc = get_scenario("oscillator").build()
        f = make_function("energy_oscillator")
        with pytest.raises(ValueError, match="grid axis 0:"):
            lyapunov_certify("thm1", f, lambda x: filippov_set(osc, x), [0.0, 0.0],
                             GridSpec((-1.0, -1.0), (1.0, 1.0), (0, 5)))

    def test_fully_excluded_grid_is_inconclusive(self):
        osc = get_scenario("oscillator").build()
        f = make_function("energy_oscillator")
        grid = GridSpec.parse("-1:1:5,-1:1:5", exclude=exclude_band(10))
        rep = lyapunov_certify("thm1", f, lambda x: filippov_set(osc, x), [0.0, 0.0], grid)
        assert (rep.verdict, rep.checked_points) == ("inconclusive", 0)
        assert (rep.failed_clause, rep.witness) == ("empty-grid", None)
        assert rep.grid == grid.describe()
        assert rep.details == {"offset": 0.0, "tol": 1e-9, "margin": 1e-6}

    @pytest.mark.parametrize("theorem,kw", [
        ("thm1", {"tol": math.nan}), ("thm1p", {"margin": math.nan}),
        ("thm3", {"tol": math.inf}), ("prop13w", {"tol": math.nan})])
    def test_a_tolerance_that_is_not_finite_is_rejected(self, theorem, kw):
        # A NaN tol falsified the oscillator's energy at its first point
        # (0.0 <= nan is false); a NaN margin did the same for thm1p.
        osc = get_scenario("oscillator").build()
        f = make_function("energy_oscillator")
        source = lambda x: filippov_set(osc, x)
        grid = GridSpec.parse("-1:1:3,-1:1:3")
        with pytest.raises(ValueError, match="must be finite"):
            if theorem == "prop13w":
                monotonicity_verdict("weak", f, source, grid, **kw)
            else:
                lyapunov_certify(theorem, f, source, [0.0, 0.0], grid, **kw)

    @pytest.mark.parametrize("x_e", [[math.nan, math.nan], [0.0, math.inf]])
    def test_an_equilibrium_that_is_not_finite_is_rejected(self, x_e):
        # A NaN equilibrium certified 9 of 9 points with offset NaN, since
        # f(x) - nan <= 0 is false and positivity never failed.
        osc = get_scenario("oscillator").build()
        with pytest.raises(ValueError, match="equilibrium must be finite"):
            lyapunov_certify("thm1", make_function("energy_oscillator"),
                             lambda x: filippov_set(osc, x), x_e, GridSpec.parse("-1:1:3,-1:1:3"))

    def test_dissipative_thm1p_off_axes(self):
        dis = get_scenario("oscillator_dissipative").build()
        f = make_function("energy_oscillator")
        grid = GridSpec.parse("-1:1:20,-1:1:20", exclude=exclude_band(0.01))
        rep = lyapunov_certify("thm1p", f, lambda x: filippov_set(dis, x),
                               [0.0, 0.0], grid)
        assert rep.verdict == "certified"

    def test_expansive_field_falsified(self):
        from nsds.fields import PiecewiseField, SwitchingSurface

        sign = PiecewiseField(
            1, [SwitchingSurface.coordinate(0, 1)],
            {(-1,): lambda x: np.array([-1.0]), (1,): lambda x: np.array([1.0])},
        )
        f = half_square_atom(0, 1)
        rep = lyapunov_certify("thm1", f, lambda x: filippov_set(sign, x),
                               [0.0], GridSpec.parse("-1:1:21"))
        assert rep.verdict == "falsified"
        assert rep.failed_clause == "lie-bound"

    def test_positivity_clause(self):
        f = half_square_atom(0, 2)  # vanishes on the whole x2-axis: not positive
        source = lambda x: Polytope([-x])  # contractive, so the Lie clause holds
        rep = lyapunov_certify("thm1", f, source,
                               [0.0, 0.0], GridSpec.parse("-1:1:5,-1:1:5"))
        assert rep.verdict == "falsified"
        assert rep.failed_clause == "positivity"
        assert abs(rep.witness[0]) <= 1e-12

    def test_thm3_route_uses_proximal(self):
        # Strongly shrinking smooth inclusion with a convex nonsmooth function.
        f = make_function("abs")
        source = lambda x: Polytope([[-x[0]]])
        grid = GridSpec.parse("-1:1:41")
        rep = lyapunov_certify("thm3", f, source, [0.0], grid)
        assert rep.verdict == "certified"

    def test_irregular_function_inconclusive_for_thm1(self):
        f = make_function("smq")
        rep = lyapunov_certify("thm1", f, lambda x: Polytope([[0.0, 0.0]]),
                               [0.0, 0.0], GridSpec.parse("-0.5:0.5:3,-0.5:0.5:3"))
        assert rep.verdict == "inconclusive"
        assert rep.failed_clause == "regularity-not-established"


class _Blocked(NsFunction):
    """Regular and positive off the origin, with neither an exact gradient
    nor a proximal subdifferential anywhere."""

    dim = 1
    regular = True

    def value(self, x):
        return float(x[0] ** 2)

    def gradient(self, x):
        return GradientResult(Polytope([[2.0 * x[0]], [-1.0]]), exact=False)

    def proximal(self, x):
        return UNSUPPORTED


@pytest.mark.parametrize("theorem, clause", [
    ("thm1", "gradient-inexact"),
    ("thm1p", "gradient-inexact"),
    ("thm3", "proximal-unavailable"),
    ("thm3p", "proximal-unavailable"),
    ("prop13w", "proximal-unavailable"),
    ("prop13s", "proximal-unavailable"),
])
def test_blocked_point_ends_the_sweep_and_is_counted(theorem, clause):
    f, source, grid = _Blocked(), lambda x: Polytope([-x]), GridSpec.parse("0.5:1:3")
    if theorem.startswith("prop13"):
        kind = "weak" if theorem == "prop13w" else "strong"
        rep = monotonicity_verdict(kind, f, source, grid)
    else:
        rep = lyapunov_certify(theorem, f, source, [0.0], grid)
    assert (rep.verdict, rep.theorem, rep.checked_points) == ("inconclusive", theorem, 1)
    assert (rep.failed_clause, rep.witness) == (clause, [0.5])


class TestDescentFlowNegativity:
    def test_lie_values_are_negated_squared_norms(self):
        # Along the convexified descent flow of a catalog function, every Lie
        # value at a noncritical point equals the negated squared norm of the
        # least-norm gradient element.
        from helpers import contains
        from nsds.geometry import least_norm

        rng = np.random.default_rng(8)
        cases = [
            (make_function("abs"), lambda r: np.array([r.uniform(0.1, 1.0) * r.choice([-1, 1])])),
            (make_function("abs_sum", 2), lambda r: 2 * r.random(2) - 1),
            (make_function("energy_oscillator"), lambda r: 2 * r.random(2) - 1),
            (make_function("neg_smq"), lambda r: 0.9 * (2 * r.random(2) - 1)),
        ]
        margin = 1e-6
        for f, draw in cases:
            checked = 0
            while checked < 15:
                x = draw(rng)
                gr = f.gradient(x)
                assert gr.exact and f.regular
                if contains(gr.polytope, np.zeros(f.dim), 1e-7):
                    continue
                ln = least_norm(gr.polytope).point
                expected = -float(ln @ ln)
                interval = set_lie_derivative(gr.polytope.scaled(-1.0), gr.polytope)
                assert not interval.is_empty
                assert interval.max_value() <= -margin
                assert interval.lo == pytest.approx(expected, abs=1e-9)
                assert interval.hi == pytest.approx(expected, abs=1e-9)
                checked += 1


class TestInvarianceCandidates:
    def test_abs_descent_flow_candidate_is_origin(self):
        f = make_function("abs")
        source = lambda x: f.gradient(x).polytope.scaled(-1.0)
        cand = invariance_candidate_set(f, source, GridSpec.parse("-1:1:21"), tol=1e-8)
        assert cand.shape == (1, 1)
        assert abs(cand[0, 0]) <= 1e-12

    def test_oscillator_candidates_everywhere_nonempty_lie(self):
        osc = get_scenario("oscillator").build()
        f = make_function("energy_oscillator")
        grid = GridSpec.parse("-1:1:11,-1:1:11", exclude=exclude_band(1e-9, axes=(0,)))
        cand = invariance_candidate_set(f, lambda x: filippov_set(osc, x), grid, tol=1e-8)
        assert cand.shape[0] == 10 * 11  # all sampled points: the value is {0}

    def test_norm_consensus_flow_candidates_on_consensus_line(self):
        G = __import__("nsds").Graph.path(3)
        f = make_function("disagreement", dim=3)
        L = G.laplacian()

        def source(p):
            g = L @ p
            n = np.linalg.norm(g)
            if n <= 1e-9:
                return Polytope([np.zeros(3)])
            return Polytope([-g / n])

        grid = GridSpec.parse("0:1:3,0:1:3,0:1:3")
        cand = invariance_candidate_set(f, source, grid, tol=1e-8)
        for p in cand:
            assert np.max(p) - np.min(p) <= 1e-9
        assert cand.shape[0] == 3  # the three diagonal grid points


class TestModelAsFieldSource:
    """The certifiers take the model itself, as every other public call
    does; given a PiecewiseField they used to raise a bare TypeError
    ('PiecewiseField' object is not callable)."""

    def test_a_piecewise_field_reads_as_its_filippov_set(self):
        osc = get_scenario("oscillator").build()
        f = make_function("energy_oscillator")
        grid = GridSpec.parse("-1:1:11,-1:1:11")
        source = lambda x: filippov_set(osc, x)
        for theorem in ("thm1", "thm3"):
            got = lyapunov_certify(theorem, f, osc, [0.0, 0.0], grid)
            assert got == lyapunov_certify(theorem, f, source, [0.0, 0.0], grid)
        got = monotonicity_verdict("strong", f, osc, grid)
        assert got == monotonicity_verdict("strong", f, source, grid)
        grid = GridSpec.parse("-1:1:11,-1:1:11", exclude=exclude_band(1e-9, axes=(0,)))
        got = invariance_candidate_set(f, osc, grid)
        assert np.array_equal(got, invariance_candidate_set(f, source, grid))

    def test_a_control_field_reads_as_its_inclusion(self):
        cart = get_scenario("cart").build()
        f = make_function("cart_lyapunov")
        grid = GridSpec.parse("-1:1:9,-1:1:9", exclude=exclude_band(1e-6, axes=(0,)))
        got = monotonicity_verdict("weak", f, cart, grid)
        assert got == monotonicity_verdict("weak", f, lambda x: control_inclusion(cart, x), grid)
        assert got.verdict == "certified"

    @pytest.mark.parametrize("call", [
        lambda F, f, grid: lyapunov_certify("thm1", f, F, [0.0, 0.0], grid),
        lambda F, f, grid: monotonicity_verdict("weak", f, F, grid),
        lambda F, f, grid: invariance_candidate_set(f, F, grid),
    ], ids=["lyapunov_certify", "monotonicity_verdict", "invariance_candidate_set"])
    def test_anything_else_is_unsupported(self, call):
        f = make_function("energy_oscillator")
        with pytest.raises(UnsupportedError, match="PiecewiseField, a ControlField or a callable"):
            call(Polytope([[0.0, 0.0]]), f, GridSpec.parse("-1:1:3,-1:1:3"))


def _count_lps(monkeypatch) -> list:
    """Count solve_lp calls under the names lie and geometry look it up by."""
    from nsds import geometry, lie

    calls = []
    real = geometry.solve_lp

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(lie, "solve_lp", counted)
    monkeypatch.setattr(geometry, "solve_lp", counted)
    return calls


class TestLpCounts:
    """One-vertex sides are answered in closed form; only the 2x2 shapes on
    the kink column x1 = 0 need a linear program."""

    def test_oscillator_thm1_solves_lps_only_on_the_kink_column(self, monkeypatch):
        calls = _count_lps(monkeypatch)
        osc = get_scenario("oscillator").build()
        f = make_function("energy_oscillator")
        rep = lyapunov_certify("thm1", f, lambda x: filippov_set(osc, x),
                               [0.0, 0.0], GridSpec.parse("-1:1:21,-1:1:21"))
        assert (rep.verdict, rep.checked_points) == ("certified", 441)
        assert len(calls) == 21

    def test_cart_prop13w_off_the_axis_solves_no_lp(self, monkeypatch):
        calls = _count_lps(monkeypatch)
        f = make_function("cart_lyapunov")
        source = lambda x: Polytope([-cart_input_field(x), cart_input_field(x)])
        grid = GridSpec.parse("-1:1:21,-1:1:21", exclude=exclude_band(1e-6, axes=(0,)))
        rep = monotonicity_verdict("weak", f, source, grid)
        assert (rep.verdict, rep.checked_points) == ("certified", 420)
        assert len(calls) == 0


class TestPolytopeCounts:
    """Gradient and proximal sets stay vertex rows inside a sweep, so the
    field set is the one polytope built per point (the Polytope-chain
    calculus built 4,221 for thm1 and 1,478 for thm3 on these grids)."""

    @pytest.mark.parametrize("theorem, verdict, checked", [
        ("thm1", "certified", 441),
        ("thm3", "falsified", 211),
    ])
    def test_oscillator_sweep_builds_one_field_set_per_point(self, monkeypatch, theorem,
                                                             verdict, checked):
        osc = get_scenario("oscillator").build()
        f = make_function("energy_oscillator")
        source = lambda x: filippov_set(osc, x)
        grid = GridSpec.parse("-1:1:21,-1:1:21")
        built = count_polytopes(monkeypatch)
        rep = lyapunov_certify(theorem, f, source, [0.0, 0.0], grid)
        assert (rep.verdict, rep.checked_points) == (verdict, checked)
        assert len(built) <= checked


class _UserEnergy(NsFunction):
    """|x1| + x2^2/2 written against the public interface only: the row
    methods of the tree fall back to value and gradient."""

    dim = 2
    regular = True
    nonneg = True

    def value(self, x):
        return abs(x[0]) + 0.5 * x[1] ** 2

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        if abs(x[0]) <= 1e-9:
            return GradientResult(Polytope([[1.0, x[1]], [-1.0, x[1]]]), exact=True)
        return GradientResult(Polytope([[np.sign(x[0]), x[1]]]), exact=True)


class TestUserSubclass:
    """A subclass that defines only value and gradient answers like the
    catalog function it re-implements, alone and inside a tree."""

    PAIRS = [
        (_UserEnergy(), make_function("energy_oscillator")),
        (Dilation(2.0, _UserEnergy()), Dilation(2.0, make_function("energy_oscillator"))),
    ]

    @pytest.mark.parametrize("user, builtin", PAIRS, ids=["alone", "dilated"])
    def test_thm1_report(self, user, builtin):
        osc = get_scenario("oscillator").build()
        source = lambda x: filippov_set(osc, x)
        grid = GridSpec.parse("-1:1:21,-1:1:21")
        got = lyapunov_certify("thm1", user, source, [0.0, 0.0], grid)
        want = lyapunov_certify("thm1", builtin, source, [0.0, 0.0], grid)
        assert got.to_json_dict() == want.to_json_dict()
        assert got.verdict == "certified"

    @pytest.mark.parametrize("user, builtin", PAIRS, ids=["alone", "dilated"])
    def test_normalized_flow_and_descent_direction(self, user, builtin):
        cfg = IntegratorConfig(dt_max=1e-2)
        got = gradient_flow(user, "normalized", [0.5, -0.3], 0.5, cfg)
        want = gradient_flow(builtin, "normalized", [0.5, -0.3], 0.5, cfg)
        assert np.array_equal(got.states, want.states)
        assert [e.kind for e in got.events] == [e.kind for e in want.events]
        for x in ([0.5, -0.3], [0.0, 0.4], [-0.2, 0.0]):
            a, b = descent_direction(user, x), descent_direction(builtin, x)
            assert np.array_equal(a.direction, b.direction) and a.critical == b.critical

    def test_proximal_override_may_defer_to_the_default(self):
        # super().proximal() from an override is the convex bridge, also when
        # the subclass sits inside a tree.
        class Deferring(_UserEnergy):
            convex = True

            def proximal(self, x):
                return super().proximal(x)

        f = Deferring()
        assert f.proximal([0.5, 0.2]).vertices.tolist() == [[1.0, 0.2]]
        assert Dilation(2.0, f).proximal([0.0, 0.2]).vertices.tolist() == [[2.0, 0.4], [-2.0, 0.4]]
