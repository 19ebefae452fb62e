import itertools
import json
import math

import numpy as np
import pytest

from nsds.errors import (
    DegenerateSurfaceError,
    DimensionMismatchError,
    ModelError,
    NotSlidingError,
    UnsupportedError,
)
from nsds.fields import (
    ControlField,
    PiecewiseField,
    SwitchingSurface,
    _tangent_combination,
    affine_cell,
    classify_point,
    control_inclusion,
    field_from_config,
    filippov_set,
    one_sided_lipschitz_test,
    sliding_field,
    transversality_test,
)
from nsds.geometry import Polytope
from nsds.integrate import sign_consensus_field
from nsds.lie import GridSpec, lyapunov_certify
from nsds.nonsmooth import Graph, make_function
from nsds.scenarios import get_scenario, move_away_square_field

from helpers import affine_image, filippov_ball_oracle, hausdorff_distance, minkowski_sum


def neg_sign_field():
    return PiecewiseField(
        1,
        [SwitchingSurface.coordinate(0, 1)],
        {(-1,): lambda x: np.array([1.0]), (1,): lambda x: np.array([-1.0])},
    )


def declared_cells(F):
    """Every declared cell of F with its field, looked up through the face
    on which all switches are active."""
    return {k: F.cell(k) for k in F.adjacent_cells((0,) * len(F.switches))}


def sign_field():
    return PiecewiseField(
        1,
        [SwitchingSurface.coordinate(0, 1)],
        {(-1,): lambda x: np.array([-1.0]), (1,): lambda x: np.array([1.0])},
    )


class TestFilippovSet:
    def test_sign_field_interval(self):
        P = filippov_set(neg_sign_field(), [0.0])
        assert hausdorff_distance(P, Polytope([[-1.0], [1.0]])) <= 1e-12

    def test_move_away_square_at_origin(self):
        P = filippov_set(move_away_square_field(), [0.0, 0.0])
        square = Polytope([[-1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, -1.0]])
        assert hausdorff_distance(P, square) <= 1e-12

    def test_brick_interval(self):
        g, theta, nu = 9.8, math.pi / 6, 1.0
        P = filippov_set(get_scenario("brick").build(), [0.0])
        lo = g * (math.sin(theta) - nu * math.cos(theta))
        hi = g * (math.sin(theta) + nu * math.cos(theta))
        assert hausdorff_distance(P, Polytope([[lo], [hi]])) <= 1e-12

    def test_consistency_off_surfaces(self):
        rng = np.random.default_rng(0)
        fields = [neg_sign_field(), move_away_square_field(),
                  get_scenario("oscillator").build()]
        checked = 0
        while checked < 1000:
            F = fields[checked % len(fields)]
            x = 2 * rng.random(F.dim) - 1
            if any(abs(s.value(x)) <= 1e-6 for s in F.switches):
                continue
            P = filippov_set(F, x)
            assert P.n_vertices == 1
            assert np.allclose(P.vertices[0], F.value(x))
            checked += 1

    def test_cells_cover_off_surface_points(self):
        # Sampling check of the cover invariant: every random point clear of
        # all surfaces lands in exactly one declared cell.
        rng = np.random.default_rng(4)
        for F in (get_scenario("brick").build(), get_scenario("oscillator").build(),
                  get_scenario("oscillator_dissipative").build(),
                  move_away_square_field()):
            checked = 0
            while checked < 200:
                x = 3 * (2 * rng.random(F.dim) - 1)
                if any(abs(s.value(x)) <= 1e-6 for s in F.switches):
                    continue
                sigma = F.sign_vector(x)
                assert 0 not in sigma
                assert F.cell(tuple(sigma)) is not None
                checked += 1

    def test_ball_sampling_oracle_one_dimensional(self):
        F = neg_sign_field()
        for x in ([0.0], [0.4]):
            got = filippov_set(F, x)
            oracle = filippov_ball_oracle(F, x, seed=5)
            assert hausdorff_distance(got, oracle) <= 1e-6

    def test_ball_sampling_oracle_piecewise_constant(self):
        rng = np.random.default_rng(1)
        for trial in range(5):
            a = rng.standard_normal(2)
            a /= np.linalg.norm(a)
            b = float(rng.standard_normal() * 0.1)
            vals = {s: rng.standard_normal(2) for s in (-1, 1)}
            F = PiecewiseField(
                2,
                [SwitchingSurface.affine(a, b)],
                {(s,): (lambda v: (lambda x: v.copy()))(v) for s, v in vals.items()},
            )
            # A point on the surface and one off it.
            x_on = -b * a
            x_off = x_on + 0.3 * np.array([-a[1], a[0]]) + 0.05 * a
            for x in (x_on, x_off):
                got = filippov_set(F, x)
                oracle = filippov_ball_oracle(F, x, seed=trial)
                assert hausdorff_distance(got, oracle) <= 1e-6

    def test_value_at_point_itself_is_ignored(self):
        # Declared cells fully determine the set on the surface; there is no
        # pointwise value to contribute.
        F = neg_sign_field()
        P = filippov_set(F, [0.0])
        assert sorted(P.vertices.ravel()) == [-1.0, 1.0]

    def test_uncovered_cell_raises(self):
        F = PiecewiseField(
            1,
            [SwitchingSurface.coordinate(0, 1)],
            {(1,): lambda x: np.array([-1.0])},
        )
        with pytest.raises(ModelError):
            filippov_set(F, [-0.5])

    def test_matrix_transformation_rule(self):
        F = move_away_square_field()
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = 2 * rng.random(2) - 1
            Z = rng.standard_normal((2, 2))
            composed = PiecewiseField(
                2, F.switches,
                {k: (lambda fn: (lambda y: Z @ fn(y)))(fn) for k, fn in declared_cells(F).items()},
            )
            lhs = filippov_set(composed, x)
            rhs = affine_image(filippov_set(F, x), Z)
            assert hausdorff_distance(lhs, rhs) <= 1e-9

    def test_sum_rule_equality_with_continuous_term(self):
        F = neg_sign_field()
        smooth = lambda x: np.array([0.5 * x[0] + 2.0])
        total = PiecewiseField(
            1, F.switches,
            {k: (lambda fn: (lambda y: fn(y) + smooth(y)))(fn)
             for k, fn in declared_cells(F).items()},
        )
        for x in ([0.0], [0.3], [-1.2]):
            lhs = filippov_set(total, x)
            rhs = minkowski_sum(filippov_set(F, x), Polytope([smooth(np.asarray(x))]))
            assert hausdorff_distance(lhs, rhs) <= 1e-9

    def test_sum_rule_strict_inclusion_when_both_jump(self):
        # sign(x) + (-sign(x)) is identically continuous; the Minkowski bound
        # is the fat interval.
        F1, F2 = sign_field(), neg_sign_field()
        total = PiecewiseField(
            1, F1.switches,
            {k: (lambda f, g: (lambda y: f(y) + g(y)))(F1.cell(k), F2.cell(k))
             for k in declared_cells(F1)},
        )
        lhs = filippov_set(total, [0.0])
        rhs = minkowski_sum(filippov_set(F1, [0.0]), filippov_set(F2, [0.0]))
        assert lhs.n_vertices >= 1
        assert max(abs(v) for v in lhs.vertices.ravel()) <= 1e-12
        assert sorted(set(rhs.vertices.ravel())) == [-2.0, 0.0, 2.0]


def brute_adjacent(declared, sigma):
    """Declared sign vectors that agree with sigma on its nonzero entries,
    sorted."""
    return sorted(s for s in declared if all(a == b for a, b in zip(s, sigma) if b != 0))


class TestAdjacentCells:
    def check(self, F, declared):
        for sigma in itertools.product((-1, 0, 1), repeat=len(F.switches)):
            assert F.adjacent_cells(sigma) == brute_adjacent(declared, sigma), sigma

    def test_catalog_fields(self):
        for F in (get_scenario("brick").build(), get_scenario("oscillator").build(),
                  get_scenario("oscillator_dissipative").build(), move_away_square_field(),
                  sign_consensus_field(Graph.path(3)),
                  sign_consensus_field(Graph(4, ((0, 1), (2, 3))))):
            m = len(F.switches)
            declared = [s for s in itertools.product((-1, 1), repeat=m) if F.cell(s) is not None]
            self.check(F, declared)

    def test_random_sparse_tables_as_mapping_and_rule(self):
        rng = np.random.default_rng(11)
        for m in range(1, 5):
            signs = list(itertools.product((-1, 1), repeat=m))
            for _ in range(8):
                keep = rng.random(len(signs)) < 0.4
                keep[rng.integers(len(signs))] = True
                table = {s: (lambda v: (lambda x: v.copy()))(rng.standard_normal(m))
                         for s, k in zip(signs, keep) if k}
                switches = [SwitchingSurface.coordinate(i, m) for i in range(m)]
                for cells in (table, table.get):
                    self.check(PiecewiseField(m, switches, cells), list(table))


class TestClassification:
    def test_brick_slides(self):
        cls = classify_point(get_scenario("brick").build(), [0.0])
        assert cls.kind == "sliding"

    def test_oscillator_crossing(self):
        cls = classify_point(get_scenario("oscillator").build(), [0.0, 1.0])
        assert cls.kind == "crossing"
        assert cls.alpha > 0 and cls.beta > 0

    def test_sign_repulsive(self):
        assert classify_point(sign_field(), [0.0]).kind == "repulsive"

    def test_continuity_off_surface(self):
        cls = classify_point(get_scenario("oscillator").build(), [0.5, 0.5])
        assert cls.kind == "continuity"
        assert cls.witness.n_vertices == 1

    def test_codimension_two_reports_tangent_with_witness(self):
        cls = classify_point(move_away_square_field(), [0.0, 0.0])
        assert cls.kind == "tangent"
        assert cls.active_surfaces == (0, 1)
        assert cls.witness.n_vertices == 4

    def test_degenerate_surface(self):
        F = PiecewiseField(
            1,
            [SwitchingSurface(lambda x: x[0] ** 2, lambda x: np.array([2 * x[0]]))],
            {(-1,): lambda x: np.array([1.0]), (1,): lambda x: np.array([-1.0])},
        )
        with pytest.raises(DegenerateSurfaceError):
            classify_point(F, [0.0])

    def test_large_state_does_not_make_a_surface_degenerate(self):
        # At x = (1e13, 0) the activity band 1e-8 (1 + |x|) is 1e5.  The
        # unit gradient of g = x2 used to be compared with that band.
        F = PiecewiseField(2, [SwitchingSurface.coordinate(1, 2)],
                           {(-1,): lambda x: np.array([0.0, 1e6]),
                            (1,): lambda x: np.array([0.0, -1e6])})
        cls = classify_point(F, [1e13, 0.0])
        assert (cls.kind, cls.active_surfaces, cls.alpha, cls.beta) == (
            "sliding", (0,), 1e6, -1e6)

    def test_large_state_does_not_make_a_slide_tangent(self):
        # At x = (1e13, 0) the normal parts alpha = 1 and beta = -3 used to
        # be compared with the state-scaled band 1e5 and read as tangent.
        cls = classify_point(slide_field_13(), [1e13, 0.0])
        assert (cls.kind, cls.alpha, cls.beta) == ("sliding", 1.0, -3.0)


def slide_field_13():
    """g = x2 with x' = (0, 1) below and (0, -3) above: a slide, lam = 1/4."""
    return PiecewiseField(2, [SwitchingSurface.coordinate(1, 2)],
                          {(-1,): lambda x: np.array([0.0, 1.0]),
                           (1,): lambda x: np.array([0.0, -3.0])})


class TestSlidingField:
    @pytest.mark.parametrize("x", [[1.0, 0.0], [1e13, 0.0]])
    def test_weight_does_not_depend_on_the_state_size(self, x):
        # At (1e13, 0) the band 1e5 used to read both normal parts as
        # tangent and return lam = 0.5 with v = (0, -1), not tangent.
        res = sliding_field(slide_field_13(), x, 0)
        assert res.lam == 0.25 and np.array_equal(res.vector, [0.0, 0.0])

    def test_move_away_diagonal(self):
        res = sliding_field(move_away_square_field(), [0.4, 0.4], 0)
        assert np.allclose(res.vector, [-0.5, -0.5], atol=1e-12)
        assert res.lam == pytest.approx(0.5)

    def test_brick_coefficient(self):
        g, theta, nu = 9.8, math.pi / 6, 1.0
        res = sliding_field(get_scenario("brick").build(), [0.0], 0)
        assert abs(res.vector[0]) <= 1e-12
        expected = (math.sin(theta) + nu * math.cos(theta)) / (2 * nu * math.cos(theta))
        assert res.lam == pytest.approx(expected, abs=1e-12)

    def test_continuous_tangent_case(self):
        F = PiecewiseField(
            2,
            [SwitchingSurface.coordinate(1, 2)],
            {(-1,): lambda x: np.array([1.0, 0.0]), (1,): lambda x: np.array([1.0, 0.0])},
        )
        res = sliding_field(F, [0.0, 0.0], 0)
        assert np.allclose(res.vector, [1.0, 0.0])
        assert res.lam == pytest.approx(0.5)

    def test_not_sliding(self):
        with pytest.raises(NotSlidingError):
            sliding_field(get_scenario("oscillator").build(), [0.0, 1.0], 0)

    def test_tangency_and_membership(self):
        F = move_away_square_field()
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = float(rng.uniform(0.05, 0.95)) * rng.choice([-1.0, 1.0])
            x = np.array([a, a])
            res = sliding_field(F, x, 0)
            n = F.switches[0].grad(x)
            assert abs(n @ res.vector) <= 1e-10
            from helpers import contains

            assert contains(filippov_set(F, x), res.vector, 1e-8)
            assert 0.0 <= res.lam <= 1.0


def _closed_form_slide(x_minus, x_plus, n):
    """The one-surface tangent combination written out: lam = alpha /
    (alpha - beta), clamped to [0, 1], with the band 1e-8 (1 + |alpha| +
    |beta|) for tangent sides and equal normal parts."""
    alpha, beta = float(n @ x_minus), float(n @ x_plus)
    scale = 1e-8 * (1.0 + abs(alpha) + abs(beta))
    if abs(alpha) <= scale and abs(beta) <= scale:
        return "tangent", 0.5 * (x_plus + x_minus), 0.5
    if abs(alpha - beta) <= scale:
        return "equal", None, None
    lam = alpha / (alpha - beta)
    if lam < -1e-9 or lam > 1 + 1e-9:
        return "outside", None, lam
    kind = "clamped" if not 0.0 <= lam <= 1.0 else "inside"
    lam = min(max(lam, 0.0), 1.0)
    return kind, lam * x_plus + (1.0 - lam) * x_minus, lam


class TestTangentCombination:
    def _triples(self):
        rng = np.random.default_rng(20)
        for k in range(1000):
            d = int(rng.integers(1, 5))
            n = rng.standard_normal(d)
            x_minus, x_plus = rng.standard_normal(d), rng.standard_normal(d)
            case = k % 5
            if case == 1:  # both sides tangent
                x_minus -= (n @ x_minus) / (n @ n) * n
                x_plus -= (n @ x_plus) / (n @ n) * n
            elif case == 2:  # equal normal parts
                t = rng.standard_normal(d)
                x_plus = x_minus + (t - (n @ t) / (n @ n) * n)
            elif case == 3:  # lam a hair outside [0, 1], within the clamp
                alpha = float(n @ x_minus)
                x_plus = x_plus - ((n @ x_plus) - alpha * (1e-10 / (1.0 + 1e-10))) / (n @ n) * n
                x_plus, x_minus = (x_minus, x_plus) if k % 2 else (x_plus, x_minus)
            yield x_minus, x_plus, n

    def test_one_surface_is_the_closed_form_bit_for_bit(self):
        kinds = set()
        for x_minus, x_plus, n in self._triples():
            kind, vector, lam = _closed_form_slide(x_minus, x_plus, n)
            kinds.add(kind)
            values, normals = np.array([x_minus, x_plus]), n[None, :]
            if vector is None:
                with pytest.raises(NotSlidingError) as err:
                    _tangent_combination(values, normals)
                expected = ("equal nonzero normal components admit no tangent combination"
                            if kind == "equal" else f"tangency coefficients {(lam,)} outside [0, 1]")
                assert str(err.value) == expected
                continue
            got, got_lam = _tangent_combination(values, normals)
            assert got_lam == (lam,)
            assert got.tobytes() == vector.tobytes()
        assert kinds == {"tangent", "equal", "outside", "clamped", "inside"}

    def test_undeclared_cell_message(self):
        with pytest.raises(NotSlidingError) as err:
            _tangent_combination(np.ones((1, 2)), np.ones((1, 2)))
        assert str(err.value) == "a cell around the sliding surfaces is not declared"

    def test_sliding_field_agrees_with_the_combination(self):
        F = move_away_square_field()
        x = np.array([0.3, 0.3])
        res = sliding_field(F, x, 0)
        sides = np.array([F.cell_value(c, x) for c in F.adjacent_cells((0, 1))])
        vector, lam = _tangent_combination(sides, F.switches[0].grad(x)[None, :])
        assert res.vector.tobytes() == vector.tobytes() and (res.lam,) == lam


class TestControlInclusion:
    def test_cart_segment(self):
        cart = get_scenario("cart").build()
        P = control_inclusion(cart, [1.0, 0.0])
        assert hausdorff_distance(P, Polytope([[-1.0, 0.0], [1.0, 0.0]])) <= 1e-12

    def test_trivial_equilibrium(self):
        C = ControlField(2, 1, lambda x, u: np.zeros(2), Polytope([[0.0]]))
        P = control_inclusion(C, [1.0, 2.0])
        assert P.n_vertices == 1
        assert np.allclose(P.vertices[0], 0.0)

    def test_nonholonomic_square(self):
        C = get_scenario("nonholonomic_integrator").build()
        P = control_inclusion(C, [0.0, 0.0, 0.0])
        expected = Polytope([[s1, s2, 0.0] for s1 in (-1, 1) for s2 in (-1, 1)])
        assert hausdorff_distance(P, expected) <= 1e-12

    def test_non_affine_rejected(self):
        C = ControlField(1, 1, lambda x, u: np.array([u[0] ** 2]),
                         Polytope.interval(-1, 1), affine_in_control=False)
        with pytest.raises(UnsupportedError):
            control_inclusion(C, [0.0])

    @pytest.mark.parametrize("x", [[1.0, 2.0, 3.0], [1.0]])
    def test_point_of_the_wrong_length_rejected(self, x):
        # Three coordinates used to be read as two; one raised a bare IndexError.
        cart = get_scenario("cart").build()
        with pytest.raises(DimensionMismatchError, match=rf"^point has shape \({len(x)},\), not \(2,\)$"):
            control_inclusion(cart, x)

    def test_nan_vertex_value_is_a_model_error(self):
        # The NaN used to come out as a vertex of the inclusion.
        C = ControlField(1, 1, lambda x, u: np.array([math.nan if u[0] < 0 else u[0]]),
                         Polytope.interval(-1.0, 1.0))
        with pytest.raises(ModelError, match=r"^dynamics at input \[-1\.0\] is \[nan\] at x=\[0\.5\]$"):
            control_inclusion(C, [0.5])


class TestControlField:
    @pytest.mark.parametrize("u, error, message", [
        # The input used to be read by as_point alone: 9.0 was dropped,
        # [[0.5]] read as [0.5], and NaN returned [nan, nan].
        ([0.5, 9.0], DimensionMismatchError, "input has shape (2,), not (1,)"),
        ([[0.5]], DimensionMismatchError, "input has shape (1, 1), not (1,)"),
        ([math.nan], ModelError, "input must be finite, got [nan]"),
    ])
    def test_value_checks_its_input(self, u, error, message):
        cart = get_scenario("cart").build()
        with pytest.raises(error) as info:
            cart.value([0.1, 0.2], u)
        assert str(info.value) == message

    @pytest.mark.parametrize("call", [
        lambda cart: cart.value([1e200, 0.0], [1.0]),
        lambda cart: control_inclusion(cart, [1e200, 0.0]),
    ], ids=["value", "control_inclusion"])
    def test_cart_overflow_is_a_model_error(self, call):
        # float ** raised a bare OverflowError at x1 = 1e200.
        with pytest.raises(ModelError, match=r"^cart input field overflows at x=\[1e\+200, 0\.0\]$"):
            call(get_scenario("cart").build())


class TestUniquenessChecks:
    def test_neg_sign_not_falsified(self):
        v = one_sided_lipschitz_test(neg_sign_field(), [0.0], 0.5, 0.0, 300, seed=1)
        assert not v.violated

    def test_sign_violated(self):
        v = one_sided_lipschitz_test(sign_field(), [0.0], 0.1, 10.0, 300, seed=1)
        assert v.violated
        y, yp = v.witness
        diff = (y - yp)[0]
        assert (np.sign(y[0]) - np.sign(yp[0])) * diff > 10.0 * diff ** 2

    def test_draws_inside_the_field_band_are_redrawn(self):
        # In a ball of radius 1e-7 many draws land within the field's band
        # 1e-8 (1 + |y|) of the surface; each is redrawn, never queried there.
        v = one_sided_lipschitz_test(neg_sign_field(), [0.0], 1e-7, 0.0, 200, seed=0)
        assert not v.violated and v.witness is None
        v = one_sided_lipschitz_test(sign_field(), [0.0], 1e-7, 0.0, 200, seed=0)
        assert v.violated
        y, yp = v.witness
        assert y[0] * yp[0] < 0.0
        assert min(abs(y[0]), abs(yp[0])) > 1e-8

    def test_sampling_failure_is_a_model_error(self):
        # A ball far thinner than the surface band has no point off the surface.
        with pytest.raises(ModelError):
            one_sided_lipschitz_test(neg_sign_field(), [0.0], 1e-20, 0.0, 2)

    @pytest.mark.parametrize("bad", [{"L": math.nan}, {"tol": math.nan}, {"eps": -0.1},
                                     {"eps": math.inf}, {"L": math.inf}, {"tol": -1.0}])
    def test_parameters_must_be_finite(self, bad):
        # A NaN L or tol reported no violation, since every comparison with
        # NaN is false, and a negative eps sampled as if it were positive.
        params = {"eps": 0.1, "L": 0.0, "tol": 1e-12, **bad}
        with pytest.raises(ValueError, match="must be finite"):
            one_sided_lipschitz_test(get_scenario("oscillator").build(), [0.0, 0.5],
                                     params["eps"], params["L"], 50, tol=params["tol"])

    def test_smooth_field_with_jacobian_bound(self):
        F = PiecewiseField(1, [], {(): lambda x: np.array([3.0 * x[0]])})
        v = one_sided_lipschitz_test(F, [0.0], 0.5, 3.0, 300, seed=2)
        assert not v.violated

    def test_transversality(self):
        osc = get_scenario("oscillator").build()
        res = transversality_test(osc, [[0.0, 0.5], [0.0, 2.0]])
        assert all(r.holds for r in res)
        res = transversality_test(move_away_square_field(), [[0.5, 0.5]])
        assert res[0].holds
        res = transversality_test(sign_field(), [[0.0]])
        assert not res[0].holds


class TestOneSidedLipschitzBallDraws:
    # The draws are uniform in the ball in every dimension, so a field with
    # no surfaces never runs out of accepted samples, however large d is.
    @pytest.mark.parametrize("d", [12, 32])
    def test_high_dimension_samples_the_ball(self, d):
        F = PiecewiseField(d, [], {(): lambda x: -x})
        v = one_sided_lipschitz_test(F, np.zeros(d), 0.5, 0.0, 200, seed=0)
        assert not v.violated

    @pytest.mark.parametrize("d", [12, 32])
    def test_witnesses_lie_in_the_ball(self, d):
        F = PiecewiseField(d, [], {(): lambda x: x})
        x = np.full(d, 0.25)
        v = one_sided_lipschitz_test(F, x, 0.5, 0.5, 10, seed=1)
        assert v.violated
        assert all(np.linalg.norm(y - x) <= 0.5 for y in v.witness)


class TestSwitchReads:
    """classify_point reads each switching function once per call, and
    transversality_test once per point, with unchanged classifications."""

    @staticmethod
    def counted_field():
        reads = [0, 0]

        def surface(k):
            def value(x):
                reads[k] += 1
                return float(x[k])
            grad = np.eye(2)[k]
            return SwitchingSurface(value, lambda x: grad.copy())

        cells = {s: (lambda x, s=s: np.array([-s[0], 1.0 + 0.5 * s[1]]))
                 for s in itertools.product((-1, 1), repeat=2)}
        return PiecewiseField(2, [surface(0), surface(1)], cells), reads

    @pytest.mark.parametrize("x, kind, active, alpha, beta, witness", [
        ([0.3, 0.4], "continuity", (), None, None, [[-1.0, 1.5]]),
        ([0.0, 0.4], "sliding", (0,), 1.0, -1.0, [[1.0, 1.5], [-1.0, 1.5]]),
        ([0.3, 0.0], "crossing", (1,), 0.5, 1.5, [[-1.0, 0.5], [-1.0, 1.5]]),
        ([0.0, 0.0], "tangent", (0, 1), None, None,
         [[1.0, 0.5], [1.0, 1.5], [-1.0, 0.5], [-1.0, 1.5]]),
    ])
    def test_classify_point_reads_each_switch_once(self, x, kind, active, alpha, beta, witness):
        F, reads = self.counted_field()
        cls = classify_point(F, x)
        assert reads == [1, 1]
        assert (cls.kind, cls.active_surfaces, cls.alpha, cls.beta) == (kind, active, alpha, beta)
        assert cls.witness.vertices.tolist() == witness

    def test_transversality_test_reads_each_switch_once_per_point(self):
        F, reads = self.counted_field()
        res = transversality_test(F, [[0.0, 0.4], [0.3, 0.0], [0.0, -2.0]])
        assert reads == [3, 3]
        assert [(r.holds, r.alpha, r.beta) for r in res] == [
            (True, 1.0, -1.0), (True, 0.5, 1.5), (True, 1.0, -1.0)]

    @pytest.mark.parametrize("x", [[0.3, 0.4], [0.0, 0.0]])
    def test_transversality_needs_exactly_one_surface(self, x):
        F, _ = self.counted_field()
        with pytest.raises(ModelError, match="not on exactly one surface"):
            transversality_test(F, [x])


def test_field_from_config_roundtrip(tmp_path):
    config = {
        "dim": 2,
        "switches": [{"form": "affine", "a": [-1.0, 1.0], "b": 0.0},
                     {"form": "coordinate", "index": 1}],
        "cells": {
            "--": {"form": "constant", "value": [0.0, 1.0]},
            "-+": {"form": "constant", "value": [-1.0, 0.0]},
            "+-": {"form": "affine", "A": [[0.0, 0.0], [0.0, 0.0]], "b": [1.0, 0.0]},
            "++": {"form": "constant", "value": [0.0, -1.0]},
        },
    }
    F = field_from_config(config)
    assert F.dim == 2 and len(F.switches) == 2
    assert np.allclose(F.value([1.0, 0.5]), [-1.0, 0.0])
    path = tmp_path / "field.json"
    path.write_text(json.dumps(config))
    F2 = field_from_config(str(path))
    assert np.allclose(F2.value([1.0, 0.5]), F.value([1.0, 0.5]))
    with pytest.raises(ModelError):
        field_from_config({"dim": 1, "switches": [], "cells": {"": {"form": "nope"}}})


def _config_2d(switches=None, **cells):
    cells = {"-": {"form": "constant", "value": [0.0, 1.0]},
             "+": {"form": "constant", "value": [1.0, 0.0]}, **cells}
    return {"dim": 2, "switches": switches or [{"form": "coordinate", "index": 0}],
            "cells": cells}


@pytest.mark.parametrize("config, error, message", [
    (_config_2d(**{"+": {"form": "constant", "value": [1.0, 0.0, 0.0]}}),
     DimensionMismatchError, r"cell '\+'"),
    (_config_2d([{"form": "affine", "a": [1.0, 0.0, 0.0]}]), DimensionMismatchError, "switch 0"),
    (_config_2d([{"form": "coordinate", "index": 5}]), DimensionMismatchError, "index 5"),
    (_config_2d(**{"-": {"form": "affine", "A": np.eye(3).tolist()}}),
     DimensionMismatchError, "cell '-'"),
    ({"dim": 2, "switches": [{"form": "affine", "a": [1.0, 0.0]},
                             {"form": "affine", "a": [1.0, 0.0, 2.0]}],
      "cells": {"--": {"form": "constant", "value": [0.0, 1.0]}}},
     DimensionMismatchError, "switch 1"),
], ids=["constant_of_length_3", "affine_switch_of_length_3", "coordinate_index_5",
        "3x3_A", "ragged_switches"])
def test_config_dimension_errors_are_typed_at_build(config, error, message):
    # Each of these used to build, then end a run in a bare numpy ValueError
    # or IndexError (the coordinate index in an IndexError at build).
    with pytest.raises(error, match=message):
        field_from_config(config)


def test_smooth_field_no_switches():
    F = PiecewiseField(1, [], {(): lambda x: np.array([-x[0]])})
    assert filippov_set(F, [2.0]).n_vertices == 1
    assert classify_point(F, [2.0]).kind == "continuity"


def test_non_finite_point_is_a_model_error():
    F = get_scenario("brick").build()
    for query in (filippov_set, classify_point, lambda F, x: sliding_field(F, x, 0)):
        with pytest.raises(ModelError):
            query(F, [math.nan])


def log_switch_field(cells):
    """One surface log(x1) = 0 whose switching function is NaN for x1 <= 0."""
    surface = SwitchingSurface(lambda x: math.log(x[0]) if x[0] > 0 else math.nan,
                               lambda x: np.array([1.0 / x[0]]), name="log")
    return PiecewiseField(1, [surface], cells)


@pytest.mark.parametrize("query", [filippov_set, classify_point],
                         ids=["filippov_set", "classify_point"])
def test_nan_switch_value_at_a_finite_point_is_a_model_error(query):
    # Mapping the NaN to "on the surface" used to give the two-cell hull
    # [[-1], [1]] and the kind "continuity".
    F = log_switch_field({(-1,): lambda x: np.array([1.0]), (1,): lambda x: np.array([-1.0])})
    with pytest.raises(ModelError, match="switching function log is nan"):
        query(F, [-1.0])


def test_run_that_reaches_a_nan_switch_value_raises():
    from nsds.integrate import IntegratorConfig, integrate_filippov

    # Both cells move left, so the state crosses x1 = 1 and then reaches
    # x1 <= 0, where the switching function is NaN.
    F = log_switch_field({(-1,): lambda x: np.array([-1.0]), (1,): lambda x: np.array([-1.0])})
    with pytest.raises(ModelError, match="switching function log is nan"):
        integrate_filippov(F, [2.0], 2.5, IntegratorConfig(dt_max=0.1))


@pytest.mark.parametrize("query, x", [
    (filippov_set, [-0.5]),
    (classify_point, [0.0]),
    (lambda F, x: sliding_field(F, x, 0), [0.0]),
    (lambda F, x: lyapunov_certify("thm1", make_function("abs_sum", 1), F, x,
                                   GridSpec.parse("-1:1:5")), [0.0]),
], ids=["filippov_set", "classify_point", "sliding_field", "lyapunov_certify"])
def test_nan_cell_value_at_a_finite_point_is_a_model_error(query, x):
    # The NaN used to come out as a hull [[nan]], a repulsive point with
    # alpha nan, a nan slide and a falsified certificate with value nan.
    F = PiecewiseField(1, [SwitchingSurface.coordinate(0, 1)],
                       {(-1,): lambda x: np.array([math.nan]), (1,): lambda x: np.array([-1.0])})
    with pytest.raises(ModelError, match=r"^cell \(-1,\) is \[nan\] at x="):
        query(F, x)


def _declared_cells(F):
    """The declared cells of F: every sign vector whose callable is not None."""
    for sigma in itertools.product((-1, 1), repeat=len(F.switches)):
        fn = F.cell(sigma)
        if fn is not None:
            yield sigma, fn


@pytest.mark.parametrize("build", [
    lambda: get_scenario("brick").build(),
    lambda: get_scenario("oscillator").build(),
    lambda: get_scenario("oscillator_dissipative").build(),
    move_away_square_field,
    lambda: sign_consensus_field(Graph.path(4)),
    lambda: field_from_config({"dim": 3, "switches": [{"form": "coordinate", "index": 0}],
                               "cells": {"-": {"form": "constant", "value": [0.5, -1.0, 2.0]},
                                         "+": {"form": "affine", "A": np.eye(3)[::-1].tolist(),
                                               "b": [0.1, 0.0, -0.3]}}}),
], ids=["brick", "oscillator", "oscillator_dissipative", "move_away_1", "sign_consensus",
        "config"])
def test_declared_cells_evaluate_their_affine_field(build):
    # The catalog keeps its hand-written point evaluations, which must be
    # the declared field to the bit: queries call them, steps use (A, c).
    F = build()
    cells = list(_declared_cells(F))
    assert cells and all(hasattr(fn, "affine") for _, fn in cells)
    points = np.random.default_rng(3).uniform(-2.0, 2.0, (100, F.dim))
    for sigma, fn in cells:
        A, c = fn.affine.A, fn.affine.c
        for x in points:
            want = c if A is None else A @ x + c
            assert fn(x).tobytes() == want.tobytes(), (sigma, x)


def test_affine_cell_default_evaluation_is_a_fresh_array():
    fn = affine_cell(None, [1.0, 2.0])
    v = fn(np.zeros(2))
    v[0] = 5.0
    assert fn(np.zeros(2)).tolist() == [1.0, 2.0]
    assert affine_cell([[2.0]], [1.0])(np.array([3.0])).tolist() == [7.0]


def test_affine_products_reject_a_scalar_operand():
    # ndarray.dot scales by a scalar where the matmul operator raised, so a
    # scalar point or normal would have returned a value.
    with pytest.raises(DimensionMismatchError, match=r"got a scalar"):
        affine_cell([[2.0]], [1.0])(3.0)
    with pytest.raises(DimensionMismatchError, match=r"got shape \(\)"):
        SwitchingSurface.affine(2.0)
    with pytest.raises(TypeError):
        SwitchingSurface.affine([2.0]).value(3.0)
