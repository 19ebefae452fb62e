import math

import numpy as np
import pytest

from nsds.errors import DimensionMismatchError, ModelError, SingularityError, UnsupportedError
from nsds.geometry import ConvexPolygon, Polytope, least_norm
from nsds.nonsmooth import (
    ALL_SPACE,
    UNSUPPORTED,
    CartLyapunov,
    Dilation,
    GradientResult,
    Graph,
    MaxOf,
    MinOf,
    Product,
    Quotient,
    SmoothAtom,
    Sum,
    abs_of,
    affine_atom,
    coordinate_atom,
    descent_direction,
    descent_inequality_check,
    disagreement,
    disagreement_function,
    half_square_atom,
    hsp,
    hsp_function,
    make_function,
    smq,
    smq_gradient,
)

from helpers import (
    central_difference_gradient,
    chain_gradient,
    chain_proximal,
    contains,
    forward_directional_derivative,
    hausdorff_distance,
    hsp_loop,
)


SQUARE = ConvexPolygon.square(1.0)


class TestGeneralizedGradient:
    def test_abs_at_zero(self):
        gr = make_function("abs").gradient([0.0])
        assert hausdorff_distance(gr.polytope, Polytope([[-1.0], [1.0]])) <= 1e-12
        assert gr.exact

    def test_minus_abs_via_dilation(self):
        f = Dilation(-1.0, make_function("abs"))
        gr = f.gradient([0.0])
        assert hausdorff_distance(gr.polytope, Polytope([[-1.0], [1.0]])) <= 1e-12
        assert gr.exact
        assert not f.regular

    def test_oscillator_energy_segment(self):
        gr = make_function("energy_oscillator").gradient([0.0, 0.7])
        seg = Polytope([[-1.0, 0.7], [1.0, 0.7]])
        assert hausdorff_distance(gr.polytope, seg) <= 1e-12
        assert gr.exact

    def test_smooth_consistency_against_finite_differences(self):
        rng = np.random.default_rng(0)
        d = 2
        trees = [
            Sum([(1.0, half_square_atom(0, d)), (-2.0, half_square_atom(1, d))]),
            Product(affine_atom([1.0, 2.0], 0.5), affine_atom([-1.0, 1.0], 2.0)),
            Quotient(half_square_atom(0, d), affine_atom([0.0, 1.0], 3.0)),
        ]
        for f in trees:
            assert f.smooth
            for _ in range(20):
                x = 2 * rng.random(d) - 1
                gr = f.gradient(x)
                assert gr.exact
                assert gr.polytope.n_vertices == 1
                fd = central_difference_gradient(f, x)
                assert np.allclose(gr.polytope.vertices[0], fd, atol=1e-5)

    def test_max_of_affine_active_hull_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
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
                assert hausdorff_distance(gr.polytope, oracle) <= 1e-8

    def test_directional_derivative_consistency_on_regular_nodes(self):
        from helpers import support

        rng = np.random.default_rng(2)
        funcs = [make_function("abs_sum", 2), make_function("energy_oscillator"),
                 make_function("neg_smq")]
        for f in funcs:
            assert f.regular
            for _ in range(20):
                x = 1.5 * (2 * rng.random(f.dim) - 1)
                v = rng.standard_normal(f.dim)
                gr = f.gradient(x)
                num = forward_directional_derivative(f, x, v)
                assert abs(num - support(gr.polytope, v)) <= 1e-3
            # Also at the kink itself.
            gr = f.gradient(np.zeros(f.dim))
            for _ in range(5):
                v = rng.standard_normal(f.dim)
                num = forward_directional_derivative(f, np.zeros(f.dim), v)
                assert abs(num - support(gr.polytope, v)) <= 1e-3

    def test_negation_flips_gradient_sets(self):
        rng = np.random.default_rng(3)
        for name in ("abs", "abs_sum", "energy_oscillator", "neg_smq"):
            f = make_function(name, 2 if name != "abs" else None)
            g = Dilation(-1.0, f)
            for _ in range(10):
                x = 2 * rng.random(f.dim) - 1
                hf = f.gradient(x).polytope
                hg = g.gradient(x).polytope
                assert hausdorff_distance(hg, hf.scaled(-1.0)) <= 1e-10

    def test_product_rule_exactness_needs_nonnegative_values(self):
        f = Product(abs_of(coordinate_atom(0, 1)), abs_of(coordinate_atom(0, 1)))
        assert f.gradient([0.5]).exact  # both factors nonnegative and regular
        g = Product(abs_of(coordinate_atom(0, 1)), affine_atom([1.0], -5.0))
        gr = g.gradient([0.0])
        assert not gr.exact  # second factor negative at 0: inclusion only

    def test_quotient_singularity(self):
        q = Quotient(affine_atom([1.0], 0.0), affine_atom([1.0], 0.0))
        with pytest.raises(SingularityError):
            q.gradient([0.0])

    def test_sqrt_abs_not_lipschitz_at_zero(self):
        with pytest.raises(UnsupportedError):
            make_function("sqrt_abs").gradient([0.0])


class TestProximal:
    def test_abs_closed_form(self):
        prox = make_function("abs").proximal([0.0])
        assert hausdorff_distance(prox, Polytope([[-1.0], [1.0]])) <= 1e-12

    def test_neg_abs_empty_at_zero(self):
        prox = make_function("neg_abs").proximal([0.0])
        assert prox.is_empty
        # Off the kink the function is smooth: slope -1 on the right branch.
        assert make_function("neg_abs").proximal([0.5]).vertices[0][0] == -1.0

    def test_sqrt_abs_all_space(self):
        assert make_function("sqrt_abs").proximal([0.0]) is ALL_SPACE
        prox = make_function("sqrt_abs").proximal([0.25])
        assert prox.vertices[0][0] == pytest.approx(1.0)

    def test_twice_differentiable_singleton(self):
        f = half_square_atom(0, 2)
        prox = f.proximal([0.7, 0.3])
        assert np.allclose(prox.vertices[0], [0.7, 0.0])

    def test_sum_with_smooth_term(self):
        f = make_function("energy_oscillator")
        prox = f.proximal([0.0, 0.7])
        assert hausdorff_distance(prox, Polytope([[-1.0, 0.7], [1.0, 0.7]])) <= 1e-12

    def test_positive_dilation(self):
        f = Dilation(2.0, make_function("abs"))
        prox = f.proximal([0.0])
        assert hausdorff_distance(prox, Polytope([[-2.0], [2.0]])) <= 1e-12

    def test_convex_bridge(self):
        rng = np.random.default_rng(4)
        for name in ("abs", "abs_sum", "energy_oscillator", "neg_smq"):
            f = make_function(name, 2 if name != "abs" else None)
            assert f.convex
            for _ in range(10):
                x = 2 * rng.random(f.dim) - 1
                prox = f.proximal(x)
                gr = f.gradient(x)
                assert hausdorff_distance(prox, gr.polytope) <= 1e-10

    def test_negation_identity_not_claimed_for_proximal(self):
        # The gradient sets of f and -f mirror each other; the proximal pair
        # for |x| at 0 demonstrably does not.
        f, g = make_function("abs"), make_function("neg_abs")
        pf = f.proximal([0.0])
        pg = g.proximal([0.0])
        assert not pf.is_empty and pg.is_empty

    def test_general_tree_unsupported(self):
        f = MinOf([affine_atom([1.0], 0.0), affine_atom([-1.0], 0.0)])
        assert f.proximal([0.0]) is UNSUPPORTED

    # x|x| is C^1 but neither C^2 nor convex: no closed form of its own.
    C1_ATOM = SmoothAtom(1, lambda x: x[0] * abs(x[0]), lambda x: np.array([2 * abs(x[0])]),
                         c2=False, name="x|x|")
    HALF_SQUARE = half_square_atom(0, 1)

    @pytest.mark.parametrize("f, x, expected", [
        (C1_ATOM, 0.0, UNSUPPORTED),
        (Dilation(2.0, make_function("sqrt_abs")), 0.0, ALL_SPACE),
        (Dilation(2.0, C1_ATOM), 0.0, UNSUPPORTED),
        (Sum([(1.0, HALF_SQUARE), (3.0, coordinate_atom(0, 1))]), 0.5, [[3.5]]),
        (Sum([(1.0, make_function("sqrt_abs")), (1.0, HALF_SQUARE)]), 0.0, ALL_SPACE),
        (Sum([(1.0, make_function("neg_abs")), (1.0, HALF_SQUARE)]), 0.0, []),
        (Sum([(1.0, make_function("neg_abs")), (1.0, HALF_SQUARE)]), 0.3, [[-0.7]]),
        (Sum([(1.0, C1_ATOM), (1.0, HALF_SQUARE)]), 0.0, UNSUPPORTED),
    ], ids=["c1-atom", "dilated-all-space", "dilated-c1-atom", "c2-sum", "sum-all-space",
            "sum-empty", "sum-shifted", "sum-c1-atom"])
    def test_catalog_passes_its_markers_through(self, f, x, expected):
        # Dilation and Sum hand a child's ALL_SPACE, UNSUPPORTED or empty set
        # on as it is, and shift a single row by the C^2 terms' gradient.
        prox = f.proximal([x])
        if expected is UNSUPPORTED or expected is ALL_SPACE:
            assert prox is expected
        else:
            assert prox.vertices.tolist() == expected


class TestCartLyapunov:
    def test_values_and_gradient(self):
        f = CartLyapunov()
        assert f([0.0, 0.0]) == 0.0
        assert f([1.0, 0.0]) == pytest.approx(0.5)
        fd = central_difference_gradient(f, [0.6, 0.3])
        assert np.allclose(f.gradient([0.6, 0.3]).polytope.vertices[0], fd, atol=1e-6)

    def test_axis_closed_forms(self):
        f = CartLyapunov()
        gr = f.gradient([0.0, 0.5])
        assert hausdorff_distance(gr.polytope, Polytope([[-1.0, 1.0], [1.0, 1.0]])) <= 1e-12
        assert f.proximal([0.0, 0.5]).is_empty
        assert f.proximal([1.0, 0.0]).n_vertices == 1


class TestDescent:
    def test_critical_at_minimizer(self):
        res = descent_direction(make_function("abs"), [0.0])
        assert res.critical
        assert np.allclose(res.direction, 0.0)

    def test_slope_away_from_minimizer(self):
        res = descent_direction(make_function("abs"), [2.0])
        assert not res.critical
        assert res.direction[0] == pytest.approx(-1.0)

    def test_neg_smq_bisector_direction(self):
        f = make_function("neg_smq")
        x = np.array([0.9, 0.9])  # equidistant from the right and top edges
        res = descent_direction(f, x)
        assert not res.critical
        assert np.allclose(res.direction, [-0.5, -0.5], atol=1e-10)
        chk = descent_inequality_check(f, x, [1e-3, 1e-2])
        assert chk.ok

    def test_irregular_function_rejected(self):
        with pytest.raises(UnsupportedError):
            descent_direction(make_function("smq"), [0.9, 0.9])

    def test_descent_inequality_examples(self):
        assert descent_inequality_check(make_function("abs"), [1.0], [0.5]).ok
        f = MaxOf([affine_atom([1.0], 0.0), affine_atom([2.0], 0.0)])
        assert descent_inequality_check(f, [-1.0], [0.1]).ok
        assert descent_inequality_check(make_function("abs_sum", 2), [1.0, 1.0], [0.2]).ok

    @pytest.mark.parametrize("steps", [[math.nan], [math.inf], [-0.1], [0.0], [0.1, math.nan]])
    def test_descent_inequality_steps_must_be_finite_and_positive(self, steps):
        # A NaN step passed, as f(x - nan * LN) > ... is false.
        with pytest.raises(ValueError, match="steps must be finite and positive"):
            descent_inequality_check(make_function("abs_sum", 2), [1.0, 0.5], steps)

    def test_descent_inequality_needs_noncritical_point(self):
        with pytest.raises(ValueError):
            descent_inequality_check(make_function("abs"), [0.0], [0.1])

    def test_one_least_norm_solve_per_call(self, monkeypatch):
        # Criticality is read from the norm of the one least-norm point.
        import nsds.nonsmooth as nonsmooth

        calls = []
        solve = nonsmooth._least_norm_point
        monkeypatch.setattr(nonsmooth, "_least_norm_point",
                            lambda rows: calls.append(1) or solve(rows))
        f = make_function("abs_sum", 2)
        assert descent_direction(f, [0.0, 0.0]).critical
        assert not descent_direction(f, [1.0, 0.0]).critical
        assert descent_inequality_check(f, [1.0, 0.0], [0.1]).ok
        assert len(calls) == 3


class TestBoundaryDistance:
    def test_center_values(self):
        assert smq(SQUARE, [0.0, 0.0]) == pytest.approx(1.0)
        assert smq(SQUARE, [0.5, 0.0]) == pytest.approx(0.5)
        assert smq(SQUARE, [1.5, 0.0]) == pytest.approx(-0.5)

    def test_gradients(self):
        g = smq_gradient(SQUARE, [0.5, 0.0])
        assert hausdorff_distance(g, Polytope([[-1.0, 0.0]])) <= 1e-12
        g = smq_gradient(SQUARE, [0.9, 0.9])
        assert hausdorff_distance(g, Polytope([[-1.0, 0.0], [0.0, -1.0]])) <= 1e-12
        ln = least_norm(g).point
        assert np.allclose(ln, [-0.5, -0.5], atol=1e-10)
        assert contains(smq_gradient(SQUARE, [0.0, 0.0]), [0.0, 0.0], 1e-9)

    def test_function_matches_free_operation_inside(self):
        f = make_function("smq")
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = 0.98 * (2 * rng.random(2) - 1)
            assert f(p) == pytest.approx(smq(SQUARE, p), abs=1e-12)

    def test_degenerate_polygon_rejected(self):
        from nsds.errors import ModelError

        with pytest.raises(ModelError):
            ConvexPolygon([[0, 0], [0, 0], [1, 0], [0, 1]])


class TestGraphsAndPacking:
    def test_disagreement_examples(self):
        assert disagreement(Graph.path(3), [0.0, 1.0, 2.0]) == pytest.approx(1.0)
        assert disagreement(Graph.path(4), [2.0, 2.0, 2.0, 2.0]) == 0.0
        assert disagreement(Graph.complete(3), [0.0, 0.0, 3.0]) == pytest.approx(9.0)

    def test_disagreement_gradient_is_laplacian_action(self):
        G = Graph.path(3)
        f = disagreement_function(G)
        p = np.array([0.0, 1.0, 5.0])
        assert np.allclose(f.gradient(p).polytope.vertices[0], G.laplacian() @ p)
        assert f.convex and f.c2

    def test_graph_validation(self):
        with pytest.raises(ValueError):
            Graph(3, ((0, 1), (1, 0)))  # duplicate edge
        with pytest.raises(ValueError):
            Graph(2, ((0, 2),))
        assert Graph.path(4).is_connected()
        assert not Graph(3, ((0, 1),)).is_connected()
        assert Graph(5, ((3, 4), (0, 1))).components() == [[0, 1], [2], [3, 4]]
        assert Graph(0, ()).components() == [] and Graph(0, ()).is_connected()

    def test_hsp_examples(self):
        assert hsp(SQUARE, [[0.0, 0.0]]) == pytest.approx(1.0)
        assert hsp(SQUARE, [[-0.5, 0.0], [0.5, 0.0]]) == pytest.approx(0.5)
        assert hsp(SQUARE, [[0.2, 0.1], [0.2, 0.1]]) == pytest.approx(0.0)
        with pytest.raises(ValueError):
            hsp(SQUARE, np.zeros((0, 2)))

    def test_hsp_points_must_be_finite_planar_rows(self):
        # Three-coordinate rows were read as pair distances in 3-D and as
        # three planar points for the edges (0.26); a NaN point gave inf.
        with pytest.raises(DimensionMismatchError, match=r"^hsp points have shape \(2, 3\), not \(n, 2\)$"):
            hsp(SQUARE, [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
        with pytest.raises(DimensionMismatchError, match=r"shape \(2,\)"):
            hsp(SQUARE, [0.1, 0.2])
        with pytest.raises(ModelError, match=r"^hsp points must be finite, got \[\[nan, 0\.0\]\]$"):
            hsp(SQUARE, [[math.nan, 0.0]])

    def test_hsp_matches_per_pair_loop(self):
        hexagon = ConvexPolygon([[math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)]
                                 for k in range(6)])
        rng = np.random.default_rng(21)
        for Q in (SQUARE, hexagon):
            for n in range(1, 9):
                for _ in range(10):
                    # Inside and outside points alike: both sides use the
                    # clipped segment distance.
                    pts = 1.2 * (2 * rng.random((n, 2)) - 1)
                    assert abs(hsp(Q, pts) - hsp_loop(Q, pts)) <= 1e-12

    def test_hsp_function_matches_inside(self):
        f = hsp_function(SQUARE, 2)
        rng = np.random.default_rng(6)
        for _ in range(30):
            pts = 0.9 * (2 * rng.random((2, 2)) - 1)
            assert f(pts.ravel()) == pytest.approx(hsp(SQUARE, pts), abs=1e-12)

    def test_hsp_gradient_active_terms(self):
        f = hsp_function(SQUARE, 2)
        x = np.array([-0.5, 0.0, 0.5, 0.0])  # pair term ties both edge terms
        gr = f.gradient(x)
        assert gr.exact
        assert gr.polytope.n_vertices == 3


@pytest.mark.parametrize("f, x", [
    (make_function("abs_sum", 2), [0.0, math.nan]),
    (make_function("abs"), [math.nan]),
    (MinOf([affine_atom([1.0], 0.0), affine_atom([-1.0], 0.0)]), [math.nan]),
], ids=["abs_sum", "abs", "min"])
def test_nan_point_leaves_no_active_child(f, x):
    with pytest.raises(ModelError, match=": point must be finite"):
        f.gradient(np.array(x))
    # A child whose value is NaN at a finite point still reaches the guard.
    g = MaxOf([SmoothAtom(1, lambda x: math.nan, lambda x: np.zeros(1)), affine_atom([1.0])])
    with pytest.raises(ModelError, match="no active child"):
        g.gradient(np.array([0.0]))


class TestFlags:
    def test_min_node_not_marked_regular(self):
        f = MinOf([affine_atom([1.0], 0.0), affine_atom([-1.0], 0.0)])
        assert not f.regular

    def test_convexity_propagation(self):
        assert make_function("abs_sum", 3).convex
        assert not Dilation(-1.0, make_function("abs")).convex
        assert Dilation(-1.0, coordinate_atom(0, 1)).convex  # affine stays convex

    @pytest.mark.parametrize("name", ["abs_sum", "disagreement", "hsp"])
    def test_catalog_dimension_below_one_rejected(self, name):
        # abs_sum read 0 as "not given" and built a 2-D function, disagreement
        # built a 0-D one, and hsp failed inside MinOf.
        with pytest.raises(ValueError, match=f"^{name} needs a dimension of at least 1, got 0$"):
            make_function(name, 0)
        assert make_function("abs_sum").dim == 2 and make_function("abs_sum", 1).dim == 1
        with pytest.raises(ValueError, match=r"^hsp needs an even dimension"):
            make_function("hsp", 3)

    def test_catalog_names_build(self):
        for name in ("abs", "neg_abs", "sqrt_abs", "abs_sum", "energy_oscillator",
                     "smq", "neg_smq", "disagreement", "cart_lyapunov", "hsp"):
            f = make_function(name, dim=4 if name in ("hsp",) else 3
                              if name in ("abs_sum", "disagreement") else None)
            assert f.dim >= 1


# Kink and tie points of the catalog: the kink line x1 = 0, the square's
# diagonals (several nearest edges), and agents whose half pair distance
# equals an edge distance.
_DIAGONALS = [[t, s * t] for t in (-0.7, -0.25, 0.0, 0.4, 0.9) for s in (-1.0, 1.0)]
_CATALOG = {
    "abs": (None, [[0.0], [1e-12], [-1e-10]]),
    "neg_abs": (None, [[0.0], [5e-10]]),
    "sqrt_abs": (None, [[0.0], [1e-13], [0.3]]),
    "abs_sum/2": (2, [[0.0, 0.3], [0.4, 0.0], [0.0, 0.0], [0.0, -0.8]]),
    "abs_sum/3": (3, [[0.0, 0.0, 0.5], [0.0, 0.0, 0.0], [0.2, 0.0, -0.2]]),
    "energy_oscillator": (None, [[0.0, y] for y in (-1.0, -0.3, 0.0, 0.6)]),
    "smq": (None, _DIAGONALS),
    "neg_smq": (None, _DIAGONALS),
    "disagreement/4": (4, [[1.0, 1.0, 1.0, 1.0], [0.0, 1.0, 0.0, 1.0]]),
    "cart_lyapunov": (None, [[0.0, 0.5], [0.0, -0.2], [0.0, 0.0], [1e-13, 0.4]]),
    "hsp/4": (4, [[-0.5, 0.0, 0.5, 0.0], [-0.5, 0.2, 0.5, 0.2], [-0.6, -0.6, 0.6, 0.6]]),
    "hsp/6": (6, [[-0.5, 0.0, 0.5, 0.0, 0.0, 0.5], [-0.6, -0.6, 0.0, 0.0, 0.6, 0.6]]),
}


def _outcome(call):
    """The result of call(), or the type of the package error it raised."""
    try:
        return call()
    except (ModelError, SingularityError, UnsupportedError) as exc:
        return type(exc)


def _assert_same(got, want):
    if isinstance(want, GradientResult):
        assert isinstance(got, GradientResult) and got.exact == want.exact
        got, want = got.polytope, want.polytope
    if isinstance(want, Polytope):
        assert isinstance(got, Polytope) and got.dim == want.dim
        assert got.vertices.shape == want.vertices.shape
        assert got.vertices.tobytes() == want.vertices.tobytes()  # bit for bit, same order
    else:  # a sentinel or an error type
        assert got is want


class TestRowsMatchPolytopeChain:
    """Gradient sets travel as vertex rows inside the tree; the public
    results must equal the Polytope-chain calculus bit for bit."""

    @pytest.mark.parametrize("entry", sorted(_CATALOG))
    def test_catalog_function(self, entry):
        name, _, _ = entry.partition("/")
        dim, kinks = _CATALOG[entry]
        f = make_function(name, dim)
        rng = np.random.default_rng(sorted(_CATALOG).index(entry))
        points = list(1.2 * (2.0 * rng.random((500, f.dim)) - 1.0)) + kinks
        for x in points:
            x = np.asarray(x, dtype=float)
            _assert_same(_outcome(lambda: f.gradient(x)), _outcome(lambda: chain_gradient(f, x)))
            _assert_same(_outcome(lambda: f.proximal(x)), _outcome(lambda: chain_proximal(f, x)))

    def test_atom_gradient_of_the_wrong_length_is_a_dimension_error(self):
        # A one-entry row would broadcast silently across a sum's rows.
        bad = SmoothAtom(2, lambda x: float(x[0]), lambda x: np.array([1.0]), name="bad")
        f = Sum([(1.0, bad), (1.0, half_square_atom(1, 2))])
        with pytest.raises(DimensionMismatchError, match="bad: gradient of shape"):
            f.gradient([0.5, 0.5])

    def test_composite_trees(self):
        # Products, quotients and dilations of trees with several gradient
        # rows, so sums of multi-row sets take the outer-sum branch.
        x1, x2 = coordinate_atom(0, 2), coordinate_atom(1, 2)
        osc = make_function("energy_oscillator")
        trees = [
            Product(abs_of(x1), Sum([(1.0, abs_of(x2)), (0.5, half_square_atom(0, 2))])),
            Quotient(make_function("abs_sum", 2), affine_atom([0.1, 0.0], 2.0)),
            Sum([(2.0, osc), (-1.0, abs_of(x2)), (0.5, make_function("neg_smq"))]),
            Dilation(2.0, osc),
            Dilation(0.0, osc),
            Dilation(-0.5, osc),
            MinOf([osc, make_function("abs_sum", 2)]),
            Sum([(1.0, make_function("neg_smq")), (3.0, half_square_atom(1, 2))]),
            # Nested extrema, and ties at |value| ~ 1e6, where tie_tolerance is
            # about 1e-3: a min selects its active set on negated values.
            MaxOf([MinOf([x1, x2]), Dilation(-1.0, x1), half_square_atom(1, 2)]),
            MinOf([MaxOf([x1, x2]), osc, Dilation(0.5, x2)]),
            MaxOf([affine_atom([1.0, 0.0], 1e6), affine_atom([0.0, 1.0], 1e6), abs_of(x1)]),
            MinOf([affine_atom([1.0, 0.0], -1e6), affine_atom([0.0, 1.0], -1e6),
                   MaxOf([affine_atom([-1.0, 0.0], 1e6), affine_atom([0.0, -1.0], 1e6)])]),
        ]
        rng = np.random.default_rng(11)
        near_ties = [[t, t + d] for t in (-0.4, 0.25) for d in (-2e-3, -9e-4, 4e-4, 1e-3, 3e-3)]
        points = list(2.0 * rng.random((100, 2)) - 1.0) + [[0.0, 0.0], [0.0, 0.5], [0.5, 0.0]] \
            + _DIAGONALS + near_ties
        for f in trees:
            for x in points:
                x = np.asarray(x, dtype=float)
                _assert_same(_outcome(lambda: f.gradient(x)), _outcome(lambda: chain_gradient(f, x)))
                _assert_same(_outcome(lambda: f.proximal(x)), _outcome(lambda: chain_proximal(f, x)))
