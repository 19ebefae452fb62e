import ast
import inspect
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nsds
from nsds.errors import DimensionMismatchError, EmptySetError, ModelError, SolverError
from nsds.fields import transversality_test
from nsds.geometry import (
    ConvexPolygon,
    Polytope,
    least_norm,
    maximin_value,
    solve_lp,
)
from nsds.nonsmooth import make_function

from helpers import (
    affine_image,
    contains,
    distance_to_hull,
    grid_projection_oracle,
    hausdorff_distance,
    least_norm_scipy_oracle,
    maximin_grid_search,
    maximin_lp_oracle,
    minkowski_sum,
    support,
)


class TestLeastNorm:
    def test_straddling_segment(self):
        res = least_norm(Polytope([[-1.0], [1.0]]))
        assert abs(res.point[0]) <= 1e-12

    def test_offset_segment_by_symmetry(self):
        res = least_norm(Polytope([[-1.0, 0.0], [0.0, -1.0]]))
        assert np.allclose(res.point, [-0.5, -0.5], atol=1e-10)

    def test_triangle_matches_grid_projection_oracle(self):
        verts = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        res = least_norm(Polytope(verts))
        oracle = grid_projection_oracle(verts, resolution=1e-4)
        # Frozen from the oracle: the segment midpoint (0.5, 0.5).
        assert np.allclose(res.point, [0.5, 0.5], atol=1e-9)
        assert np.linalg.norm(res.point - oracle) <= 2e-4

    def test_coefficients_certify_membership(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            d = rng.integers(1, 5)
            P = Polytope(2 * rng.random((rng.integers(1, 9), d)) - 1)
            res = least_norm(P)
            assert abs(res.coefficients.sum() - 1.0) <= 1e-9
            assert np.all(res.coefficients >= -1e-12)
            assert np.all(res.coefficients <= 1.0 + 1e-9)
            assert np.allclose(res.coefficients @ P.vertices, res.point, atol=1e-9)

    def test_minimizes_over_vertices_and_hull_points(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            d = rng.integers(1, 5)
            P = Polytope(2 * rng.random((rng.integers(1, 9), d)) - 1)
            res = least_norm(P)
            assert contains(P, res.point, 1e-8)
            nn = np.linalg.norm(res.point)
            assert all(nn <= np.linalg.norm(v) + 1e-9 for v in P.vertices)
            # 100 random hull points per polytope never beat the minimizer.
            W = rng.random((100, P.n_vertices))
            W /= W.sum(axis=1, keepdims=True)
            assert np.all(nn <= np.linalg.norm(W @ P.vertices, axis=1) + 1e-9)

    def test_empty_raises(self):
        with pytest.raises(EmptySetError):
            least_norm(Polytope.empty(2))

    @pytest.mark.parametrize("a, b, t_expected", [
        ([1.0, -1.0], [1.0, 1.0], 0.5),  # interior optimum
        ([0.5, 0.2], [2.0, 1.0], 0.0),  # optimum at the first vertex
        ([2.0, 1.0], [0.5, 0.2], 1.0),  # optimum at the second vertex
        ([0.3, -0.4], [0.3, -0.4], 0.0),  # equal vertices
        ([-1.0, -2.0], [2.0, 4.0], 1.0 / 3.0),  # segment through the origin
        ([-0.7, 0.1, 0.3], [0.9, -0.2, 0.5], None),
    ])
    def test_two_vertex_closed_form(self, a, b, t_expected):
        V = np.array([a, b])
        res = least_norm(Polytope(V))
        c = res.coefficients
        assert np.all(c >= 0.0) and abs(c.sum() - 1.0) <= 1e-15
        assert np.allclose(c @ V, res.point, atol=1e-15)
        if t_expected is not None:
            assert c[1] == pytest.approx(t_expected, abs=1e-15)
        # Wolfe's algorithm on the same hull, with the second vertex repeated.
        wolfe = least_norm(Polytope(np.array([a, b, b])))
        assert np.linalg.norm(res.point - wolfe.point) <= 1e-12
        assert np.linalg.norm(res.point - least_norm_scipy_oracle(V)) <= 1e-7

    def test_two_vertex_random_segments_match_wolfe(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            d = rng.integers(1, 5)
            V = 2 * rng.random((2, d)) - 1
            res = least_norm(Polytope(V))
            wolfe = least_norm(Polytope(V[[0, 1, 1]]))
            assert np.all(res.coefficients >= 0.0)
            assert abs(res.coefficients.sum() - 1.0) <= 1e-15
            assert np.linalg.norm(res.point - wolfe.point) <= 1e-12


class TestContains:
    def test_examples(self):
        assert contains(Polytope([[-1.0], [1.0]]), [0.0], 1e-9)
        assert not contains(Polytope([[1.0, 0.0], [0.0, 1.0]]), [0.0, 0.0], 1e-9)
        assert contains(Polytope([[1.0, 0.0], [0.0, 1.0]]), [0.5, 0.5], 1e-9)

    def test_distance_semantics(self):
        seg = Polytope([[1.0, 0.0], [0.0, 1.0]])
        d = distance_to_hull(seg, [0.0, 0.0])
        assert abs(d - np.sqrt(0.5)) <= 1e-10
        assert contains(seg, [0.0, 0.0], d + 1e-12)
        assert not contains(seg, [0.0, 0.0], d - 1e-6)


class TestSupport:
    def test_examples(self):
        assert support(Polytope([[-1.0], [1.0]]), [1.0]) == 1.0
        assert support(Polytope([[-1.0, 0.0], [0.0, -1.0]]), [1.0, 1.0]) == -1.0
        assert support(Polytope([[2.0, 0.0], [0.0, 3.0]]), [1.0, 1.0]) == 3.0

    def test_empty_raises(self):
        with pytest.raises(EmptySetError):
            support(Polytope.empty(1), [1.0])

    @given(st.floats(min_value=0.01, max_value=50.0), st.integers(0, 10 ** 6))
    @settings(max_examples=50, deadline=None)
    def test_positive_homogeneity(self, s, seed):
        rng = np.random.default_rng(seed)
        P = Polytope(2 * rng.random((4, 3)) - 1)
        d = rng.standard_normal(3)
        assert support(P, s * d) == pytest.approx(s * support(P, d), rel=1e-12)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=50, deadline=None)
    def test_minkowski_additivity(self, seed):
        rng = np.random.default_rng(seed)
        P = Polytope(2 * rng.random((4, 2)) - 1)
        Q = Polytope(2 * rng.random((3, 2)) - 1)
        d = rng.standard_normal(2)
        lhs = support(minkowski_sum(P, Q), d)
        assert lhs == pytest.approx(support(P, d) + support(Q, d), abs=1e-12)


class TestMaximin:
    def test_symmetric_interval_game(self):
        A = Polytope([[-1.0], [1.0]])
        # Brute force over a 1e-3 grid of zeta in [-1, 1].
        grid = np.linspace(-1.0, 1.0, 2001)
        oracle = max(min(z * -1.0, z * 1.0) for z in grid)
        val = maximin_value(A, A)
        assert abs(val - oracle) <= 1e-12
        assert abs(val - 0.0) <= 1e-12

    def test_singleton_side(self):
        val = maximin_value(Polytope([[1.0, 0.0]]), Polytope([[-1.0, 0.0], [0.0, -1.0]]))
        assert val == pytest.approx(-1.0, abs=1e-12)

    def test_linear_in_zeta(self):
        val = maximin_value(Polytope([[1.0, 0.0], [0.0, 1.0]]), Polytope([[2.0, 3.0]]))
        assert val == pytest.approx(3.0, abs=1e-12)

    def test_upper_bounded_by_vertex_supports(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            d = rng.integers(1, 4)
            A = Polytope(2 * rng.random((rng.integers(1, 7), d)) - 1)
            B = Polytope(2 * rng.random((rng.integers(1, 7), d)) - 1)
            val = maximin_value(A, B)
            assert all(val <= support(A, v) + 1e-9 for v in B.vertices)

    def test_lp_duality(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            d = rng.integers(1, 4)
            A = Polytope(2 * rng.random((rng.integers(1, 7), d)) - 1)
            B = Polytope(2 * rng.random((rng.integers(1, 7), d)) - 1)
            maximin = maximin_value(A, B)
            minimax = -maximin_value(B, A.scaled(-1.0))
            assert maximin <= minimax + 1e-8
            assert abs(maximin - minimax) <= 1e-8

    def test_against_external_solver(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            d = rng.integers(1, 4)
            A = Polytope(2 * rng.random((rng.integers(1, 7), d)) - 1)
            B = Polytope(2 * rng.random((rng.integers(1, 7), d)) - 1)
            assert maximin_value(A, B) == pytest.approx(maximin_lp_oracle(A, B), abs=1e-8)

    def test_one_vertex_sides_against_external_solver(self):
        # A 1 x n or n x 1 game has the value of its single row or column,
        # in closed form; duplicated and collinear vertices included.
        rng = np.random.default_rng(5)
        for _ in range(200):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(1, 9))
            many = rng.uniform(-1, 1, d) + np.outer(rng.uniform(-1, 1, n), rng.uniform(-1, 1, d))
            if rng.random() < 0.5:
                many = rng.uniform(-1, 1, (n, d))
            many = Polytope(np.vstack([many, many[rng.integers(n)]]))
            one = Polytope([rng.uniform(-1, 1, d)])
            for A, B in ((one, many), (many, one)):
                assert abs(maximin_value(A, B) - maximin_lp_oracle(A, B)) <= 1e-12

    def test_one_vertex_sides_solve_no_lp(self, monkeypatch):
        from nsds import geometry

        calls = []
        monkeypatch.setattr(geometry, "solve_lp", lambda *a, **k: calls.append(1))
        row, col = Polytope([[1.0, -2.0]]), Polytope([[0.5, 0.0], [0.0, 1.0], [-1.0, 1.0]])
        assert maximin_value(row, col) == -3.0
        assert maximin_value(col, row) == 0.5
        assert calls == []

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            maximin_value(Polytope([[1.0]]), Polytope([[1.0, 0.0]]))


class TestAffineImage:
    def test_identity(self):
        P = Polytope([[1.0, 2.0], [3.0, 4.0]])
        Q = affine_image(P, np.eye(2))
        assert np.array_equal(P.vertices, Q.vertices)

    def test_dilation(self):
        Q = affine_image(Polytope([[-1.0], [1.0]]), [[2.0]])
        assert sorted(Q.vertices.ravel()) == [-2.0, 2.0]

    def test_rotation(self):
        rot = [[0.0, -1.0], [1.0, 0.0]]
        Q = affine_image(Polytope([[1.0, 0.0], [0.0, 1.0]]), rot)
        assert np.allclose(Q.vertices, [[0.0, 1.0], [-1.0, 0.0]])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            affine_image(Polytope([[1.0, 0.0]]), [[1.0]])


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_duplicating_a_vertex_changes_no_query(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 4))
    V = 2 * rng.random((int(rng.integers(2, 6)), d)) - 1
    P = Polytope(V)
    dup = Polytope(np.vstack([V, V[rng.integers(0, V.shape[0])]]))
    y = 2 * rng.random(d) - 1
    direction = rng.standard_normal(d)
    assert contains(P, y, 1e-9) == contains(dup, y, 1e-9)
    assert support(P, direction) == pytest.approx(support(dup, direction), abs=1e-12)
    assert np.allclose(least_norm(P).point, least_norm(dup).point, atol=1e-8)
    B = Polytope(2 * rng.random((3, d)) - 1)
    assert maximin_value(P, B) == pytest.approx(maximin_value(dup, B), abs=1e-9)


def test_hausdorff_distance_basic():
    P = Polytope([[0.0, 0.0], [1.0, 0.0]])
    Q = Polytope([[0.0, 1.0], [1.0, 1.0]])
    assert hausdorff_distance(P, Q) == pytest.approx(1.0, abs=1e-10)
    assert hausdorff_distance(P, P) <= 1e-12


def test_polytope_json_roundtrip():
    P = Polytope([[1.0, 2.5], [-0.25, 0.0]])
    d = P.to_json_dict()
    assert json.loads(json.dumps(d)) == d
    Q = Polytope.from_json_dict(d)
    assert np.array_equal(P.vertices, Q.vertices)
    assert Q.dim == 2


def test_lp_solver_basics():
    # min -x1 - x2  s.t.  x1 + x2 + s = 1
    res = solve_lp([-1.0, -1.0, 0.0], [[1.0, 1.0, 1.0]], [1.0])
    assert res.status == "optimal"
    assert res.value == pytest.approx(-1.0)
    # Infeasible: x1 = -1 with x1 >= 0.
    res = solve_lp([0.0], [[1.0]], [-1.0])
    assert res.status == "infeasible"
    # Unbounded: the recession direction (1, 1) has negative cost.
    res = solve_lp([-1.0, -1.0], [[1.0, -1.0]], [0.0])
    assert res.status == "unbounded"


def test_lp_iteration_limit_raises_solver_error():
    # Phase 1 pivots each of the two artificial variables out of the basis.
    A, b = np.eye(2), [1.0, 1.0]
    assert solve_lp([1.0, 1.0], A, b).status == "optimal"
    with pytest.raises(SolverError):
        solve_lp([1.0, 1.0], A, b, max_iter=1)


def test_lp_iteration_limit_counts_pivots():
    # The two phase-1 pivots reach the optimum, so a limit of two suffices.
    res = solve_lp([1.0, 1.0], np.eye(2), [1.0, 1.0], max_iter=2)
    assert res.status == "optimal"
    assert res.value == pytest.approx(2.0)


def test_fixed_tolerances_are_not_keywords():
    # Only the simplex iteration limit stays settable; no caller set the rest.
    params = lambda fn: list(inspect.signature(fn).parameters)
    assert params(least_norm) == ["P"]
    assert params(solve_lp) == ["c", "A", "b", "max_iter"]
    assert params(transversality_test) == ["F", "points"]
    assert params(make_function) == ["name", "dim"]


def test_convex_polygon_validation():
    with pytest.raises(ValueError):
        ConvexPolygon([[0, 0], [1, 0]])
    with pytest.raises(ValueError):
        ConvexPolygon([[0, 0], [0, 1], [1, 0]])  # clockwise
    square = ConvexPolygon.square(1.0)
    assert square.contains_point([0.0, 0.0])
    assert not square.contains_point([1.5, 0.0])
    assert square.boundary_distance([0.5, 0.0]) == pytest.approx(0.5)
    assert square.boundary_distance([2.0, 0.0]) == pytest.approx(-1.0)


def test_convex_polygon_rejects_a_vertex_that_is_not_finite():
    # A NaN vertex used to be accepted, and placing agents then spent its
    # 100,000 draws before it failed.
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="^polygon vertices must be finite$"):
            ConvexPolygon([[0.0, 0.0], [1.0, 0.0], [bad, 1.0]])


def test_convex_polygon_rejects_collinear_vertices():
    # Collinear vertices turn by zero, and the segment they span used to
    # contain points such as (0.9, 0).
    for verts in ([[0, 0], [1, 0], [2, 0]], [[0, 0], [2, 0], [1, 0]],
                  [[0, 0], [1, 1], [3, 3], [2, 2]]):
        with pytest.raises(ModelError, match="^degenerate polygon: zero area$"):
            ConvexPolygon(verts)
    assert ConvexPolygon([[0, 0], [2, 0], [1, 1e-6]]).area == pytest.approx(1e-6)


def test_convex_polygon_rejects_a_pentagram():
    # A regular pentagon's vertices in pentagram order turn left at every
    # vertex, but their edges turn through 4 pi: packing used to run in the
    # inner pentagon.
    angles = 2 * np.pi * np.arange(0, 10, 2) / 5
    with pytest.raises(ValueError, match="^polygon vertices must be counterclockwise and convex$"):
        ConvexPolygon(np.stack([np.cos(angles), np.sin(angles)], axis=1))
    angles = 2 * np.pi * np.arange(5) / 5
    assert ConvexPolygon(np.stack([np.cos(angles), np.sin(angles)], axis=1)).area == (
        pytest.approx(2.5 * np.sin(2 * np.pi / 5)))


def test_maximin_grid_search_is_lower_bound():
    rng = np.random.default_rng(9)
    for _ in range(10):
        d = int(rng.integers(1, 4))
        A = Polytope(2 * rng.random((int(rng.integers(2, 7)), d)) - 1)
        B = Polytope(2 * rng.random((int(rng.integers(2, 7)), d)) - 1)
        grid_val = maximin_grid_search(A, B, per_dim=40)
        assert grid_val <= maximin_value(A, B) + 1e-9


class TestProducts:
    """Every product in the package calls ndarray.dot: the BLAS call of the
    matmul operator without its gufunc dispatch.  A numpy or BLAS build
    where the two differ fails here, not in scattered fingerprints."""

    def test_no_matmul_operator_in_the_package(self):
        found = [f"{path.name}:{node.lineno}"
                 for path in sorted(Path(nsds.__file__).parent.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, (ast.BinOp, ast.AugAssign))
                 and isinstance(node.op, ast.MatMult)]
        assert found == []

    def test_dot_is_matmul_bit_for_bit_on_the_package_layouts(self):
        def same(a, b):
            want = a @ b
            got = a.dot(b)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

        rng = np.random.default_rng(29)
        for d in range(1, 13):
            for _ in range(20):
                M, Z = rng.standard_normal((2, d, d))
                v, w = rng.standard_normal((2, d))
                same(M, v)  # the affine step map, A x, the switch matrix
                same(M, Z)  # step_map's powers
                same(v, w)  # a . x, |d|^2
                assert w.dot(v).tobytes() == (v @ w).tobytes()  # a cell value . a normal
                same(v, M)  # p L
                n, m = (int(k) for k in rng.integers(1, 66, 2))
                X = rng.standard_normal((n, d))  # a block's rows, vertex rows
                G = rng.standard_normal((m, d))
                same(X, G.T)  # _clear_rows, maximin payoffs
                same(X, X.T)  # the Gram matrix of Wolfe's corral
                same(X, v)  # vertex values
                same(rng.standard_normal(n), X)  # coefficients . rows
                for row in X[:3]:  # row views of one C buffer
                    same(M, row)
                    same(row, v)
                    y = np.empty((2, d))
                    np.matmul(M, row, out=y[0])
                    M.dot(row, out=y[1])  # the block loop writes its rows in place
                    assert y[0].tobytes() == y[1].tobytes()
                F = np.transpose([rng.standard_normal(n) for _ in range(d)])
                assert F.flags.f_contiguous  # as _tangent_combination's weights
                same(rng.standard_normal((m, n)), F)
                for j in range(min(d, 3)):  # Fortran column views, strided C columns
                    same(F[:, j], X)
                    same(X[:, j], F[:, j])


def _point_calls():
    """Every public call that reads a point through the one point check:
    (its dimension, or None where that is the input's size; the name it
    gives the point; the call)."""
    from nsds.fields import (classify_point, control_inclusion, filippov_set,
                             one_sided_lipschitz_test, sliding_field)
    from nsds.integrate import (IntegratorConfig, PartitionSchedule, gradient_flow,
                                integrate_caratheodory, integrate_filippov,
                                integrate_pointwise, sample_and_hold)
    from nsds.nonsmooth import descent_direction, descent_inequality_check, smq, smq_gradient
    from nsds.scenarios import MoveAwayLaw, cart_feedback, get_scenario, move_away_flow

    osc, cart = get_scenario("oscillator").build(), get_scenario("cart").build()
    f, Q, cfg = make_function("energy_oscillator"), ConvexPolygon.square(1.0), IntegratorConfig()
    fp = "energy_oscillator: point"
    return {
        "filippov_set": (2, "point", lambda x: filippov_set(osc, x)),
        "classify_point": (2, "point", lambda x: classify_point(osc, x)),
        "sliding_field": (2, "point", lambda x: sliding_field(osc, x, 0)),
        "PiecewiseField.value": (2, "point", osc.value),
        "control_inclusion": (2, "point", lambda x: control_inclusion(cart, x)),
        "ControlField.value": (2, "point", lambda x: cart.value(x, [0.0])),
        "one_sided_lipschitz_test": (2, "point",
                                     lambda x: one_sided_lipschitz_test(osc, x, 0.1, 1.0, 5)),
        "smq": (2, "point", lambda x: smq(Q, x)),
        "smq_gradient": (2, "point", lambda x: smq_gradient(Q, x)),
        "NsFunction.value": (2, fp, f.value),
        "NsFunction.gradient": (2, fp, f.gradient),
        "NsFunction.proximal": (2, fp, f.proximal),
        "NsFunction.__call__": (2, fp, f),
        "descent_direction": (2, fp, lambda x: descent_direction(f, x)),
        "descent_inequality_check": (2, fp, lambda x: descent_inequality_check(f, x, [0.1])),
        "integrate_filippov": (2, "initial state", lambda x: integrate_filippov(osc, x, 0.1)),
        "integrate_caratheodory": (2, "initial state",
                                   lambda x: integrate_caratheodory(osc, x, 0.1)),
        "integrate_pointwise": (None, "initial state",
                                lambda x: integrate_pointwise(lambda y: -y, x, 0.1, cfg)),
        "gradient_flow": (2, "initial state", lambda x: gradient_flow(f, "natural", x, 0.1)),
        "sample_and_hold": (2, "initial state", lambda x: sample_and_hold(
            cart, cart_feedback(), PartitionSchedule.uniform(0.0, 0.1, 2), x)),
        "move_away_flow": (2, "initial state",
                           lambda x: move_away_flow(MoveAwayLaw(Q, 1), x, 0.1, cfg)),
    }


_BAD_POINTS = {
    "scalar": 0.5,
    "wrong-length": [0.1, 0.2, 0.3],
    "row": [[0.1, 0.2]],
    "nan": [math.nan, 0.1],
    "inf": [0.1, math.inf],
}


class TestPointCheck:
    """One rule for a point of dimension d: a float vector of shape (d,)
    with finite coordinates, or DimensionMismatchError / ModelError with
    the shared message."""

    # A pointwise flow takes its dimension from its start, so no length is wrong.
    @pytest.mark.parametrize("call, bad", [
        pytest.param(call, bad, id=f"{call}-{bad}") for call in _point_calls()
        for bad in _BAD_POINTS if (call, bad) != ("integrate_pointwise", "wrong-length")])
    def test_every_point_call_shares_the_rule(self, call, bad):
        dim, what, run = _point_calls()[call]
        x = np.asarray(_BAD_POINTS[bad], dtype=float)
        dim = dim or x.size
        if x.shape == (dim,):
            error, message = ModelError, f"{what} must be finite, got {x.tolist()}"
        else:
            error, message = DimensionMismatchError, f"{what} has shape {x.shape}, not ({dim},)"
        with pytest.raises(error) as info:
            run(_BAD_POINTS[bad])
        assert str(info.value) == message

    def test_cli_point_of_the_wrong_length_exits_1(self, capsys):
        from nsds.cli import main

        assert main(["filippov-set", "--scenario", "oscillator", "--point", "1,2,3"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "DimensionMismatch: point has shape (3,), not (2,)\n"
