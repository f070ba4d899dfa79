import numpy as np
import pytest

from msgeom.errors import EmptySupportError
from msgeom.geometry import (
    AffinePlane,
    AtomicMeasure,
    Ball,
    SpatialIndex,
    grassmann_distance,
    hausdorff_distance,
    orthonormalize,
    plane_distance,
    project,
)
from msgeom.moments import second_moment_spectra


def sampled_unit_ball(plane, count=720):
    """Dense sample of (subspace intersect unit ball) for Hausdorff oracles."""
    rng = np.random.default_rng(7)
    k = plane.k
    raw = rng.normal(size=(count, k))
    radii = rng.random(count) ** (1.0 / max(k, 1))
    coords = raw / np.linalg.norm(raw, axis=1, keepdims=True) * radii[:, None]
    return plane.point_at(coords)


def brute_force_query(points, center, radius):
    d = np.linalg.norm(points - center, axis=1)
    return np.flatnonzero(d <= radius)


def brute_force_net(points, order, radius):
    """Candidates in order, each kept unless a kept point lies in its
    closed ball."""
    kept = []
    for j in order:
        if all(np.linalg.norm(points[j] - points[i]) > radius for i in kept):
            kept.append(j)
    return kept


def check_net(points, order, radius, net):
    """Kept points pairwise farther apart than the radius, and every
    candidate within the radius of a kept point."""
    kept = points[net]
    d = np.linalg.norm(kept[:, None, :] - kept[None, :, :], axis=2)
    assert np.all(d[~np.eye(len(net), dtype=bool)] > radius)
    cover = np.linalg.norm(points[order][:, None, :] - kept[None, :, :], axis=2)
    assert np.all(cover.min(axis=1) <= radius)


class TestProjection:
    def test_coordinate_projection(self):
        xaxis = AffinePlane.coordinate(2, [0])
        assert np.allclose(project([1.0, 1.0], xaxis), [1.0, 0.0])

    def test_idempotent_on_plane(self):
        rng = np.random.default_rng(1)
        plane = AffinePlane.from_spanning(rng.normal(size=4), rng.normal(size=(2, 4)))
        p = plane.point_at([0.3, -1.2])
        assert np.allclose(project(p, plane), p)

    def test_affine_offset_plane(self):
        # (3,4,5) onto z=1 plane; least-squares oracle: minimize |p - (a,b,1)|
        plane = AffinePlane([0.0, 0.0, 1.0], np.eye(3)[:2])
        got = project([3.0, 4.0, 5.0], plane)
        assert np.allclose(got, [3.0, 4.0, 1.0])

    def test_residual_orthogonal(self):
        rng = np.random.default_rng(2)
        plane = AffinePlane.from_spanning(rng.normal(size=5), rng.normal(size=(3, 5)))
        x = rng.normal(size=5)
        res = x - project(x, plane)
        assert np.allclose(plane.directions @ res, 0.0, atol=1e-10)


class TestPlaneDistance:
    def test_height_above_axis(self):
        xaxis = AffinePlane.coordinate(2, [0])
        assert plane_distance([0.0, 0.7], xaxis) == pytest.approx(0.7)

    def test_zero_on_plane(self):
        plane = AffinePlane.coordinate(3, [0, 2], base=[1.0, 0.0, -2.0])
        p = plane.point_at([5.0, 1.0])
        assert plane_distance(p, plane) == pytest.approx(0.0, abs=1e-13)

    def test_line_distance_oracle(self):
        # minimize |(1,1,1) - t e_1| over t -> sqrt(2) at t=1
        line = AffinePlane.coordinate(3, [0])
        ts = np.linspace(-3, 3, 200001)
        oracle = np.min(np.linalg.norm(np.array([1.0, 1.0, 1.0]) - np.outer(ts, [1, 0, 0]), axis=1))
        assert plane_distance([1.0, 1.0, 1.0], line) == pytest.approx(oracle, abs=1e-8)
        assert plane_distance([1.0, 1.0, 1.0], line) == pytest.approx(np.sqrt(2.0))


class TestGrassmann:
    def test_identical(self):
        v = AffinePlane.coordinate(2, [0])
        assert grassmann_distance(v, v) == 0.0

    def test_orthogonal_lines(self):
        assert grassmann_distance(
            AffinePlane.coordinate(2, [0]), AffinePlane.coordinate(2, [1])
        ) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        assert grassmann_distance(
            AffinePlane.coordinate(3, [0]), AffinePlane.coordinate(3, [0, 1])
        ) == 1.0

    def test_angle_line(self):
        theta = np.pi / 6
        tilted = AffinePlane.from_spanning(
            np.zeros(2), [[np.cos(theta), np.sin(theta)]]
        )
        got = grassmann_distance(AffinePlane.coordinate(2, [0]), tilted)
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_matches_sampled_hausdorff(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n, k = 4, 2
            V = AffinePlane.from_spanning(np.zeros(n), rng.normal(size=(k, n)))
            W = AffinePlane.from_spanning(np.zeros(n), rng.normal(size=(k, n)))
            oracle = hausdorff_distance(sampled_unit_ball(V, 2000), sampled_unit_ball(W, 2000))
            assert grassmann_distance(V, W) == pytest.approx(oracle, abs=0.05)

    def test_perp_duality(self):
        # d_G(V, W) = d_G(V_perp, W_perp)
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = rng.integers(2, 6)
            k = rng.integers(1, n)
            V = AffinePlane.from_spanning(np.zeros(n), rng.normal(size=(k, n)))
            W = AffinePlane.from_spanning(np.zeros(n), rng.normal(size=(k, n)))
            Vp = _orthogonal_complement(V)
            Wp = _orthogonal_complement(W)
            assert grassmann_distance(V, W) == pytest.approx(
                grassmann_distance(Vp, Wp), abs=1e-8
            )

    def test_projection_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = 4
            kv = rng.integers(1, n)
            kw = rng.integers(1, n)
            V = AffinePlane.from_spanning(np.zeros(n), rng.normal(size=(kv, n)))
            W = AffinePlane.from_spanning(np.zeros(n), rng.normal(size=(kw, n)))
            dG = grassmann_distance(V, W)
            x = rng.normal(size=n)
            lhs = np.linalg.norm(V.projection_matrix() @ x - W.projection_matrix() @ x)
            assert lhs <= 2 * dG * np.linalg.norm(x) + 1e-12
            opnorm = np.linalg.svd(
                V.projection_matrix() - W.projection_matrix(), compute_uv=False
            )[0]
            assert dG <= opnorm + 1e-12


def _orthogonal_complement(plane):
    n = plane.ambient_dim
    Q, _ = np.linalg.qr(np.hstack([plane.directions.T, np.eye(n)]))
    return AffinePlane(np.zeros(n), Q[:, plane.k :].T)


class TestTwoSidedContainment:
    def test_one_sided_implies_two_sided(self):
        # Equal-dimensional planes with one-sided delta-containment have
        # Hausdorff distance <= c * delta; measure c on random pairs.
        rng = np.random.default_rng(6)
        shape_constant = 40 * (2 + 1)  # affine-base argument, k = 2
        for _ in range(25):
            n, k = 4, 2
            V = AffinePlane.from_spanning(rng.normal(size=n) * 0.1, rng.normal(size=(k, n)))
            delta = 10.0 ** rng.uniform(-4, -2)
            # perturb directions and base by ~delta to get one-sided closeness
            W = AffinePlane.from_spanning(
                V.base + delta * rng.normal(size=n) * 0.3,
                V.directions + delta * rng.normal(size=(k, n)) * 0.3,
            )
            A = sampled_unit_ball(V, 1500)
            B = sampled_unit_ball(W, 1500)
            one_sided = np.max([np.min(np.linalg.norm(B - a, axis=1)) for a in A])
            dH = hausdorff_distance(A, B)
            assert dH <= shape_constant * max(one_sided, 1e-9)


class TestHausdorff:
    def test_equal_sets(self):
        A = np.array([[0.0, 0.0], [1.0, 2.0]])
        assert hausdorff_distance(A, A) == 0.0

    def test_two_points(self):
        assert hausdorff_distance([[0.0, 0.0]], [[1.0, 0.0]]) == pytest.approx(1.0)

    def test_parallel_segments(self):
        xs = np.linspace(0, 1, 101)
        A = np.stack([xs, np.zeros_like(xs)], axis=1)
        B = np.stack([xs, np.full_like(xs, 0.1)], axis=1)
        # exhaustive pairwise oracle
        d2 = np.sum((A[:, None] - B[None]) ** 2, axis=2)
        oracle = max(np.sqrt(d2).min(1).max(), np.sqrt(d2).min(0).max())
        assert hausdorff_distance(A, B) == pytest.approx(oracle)
        assert hausdorff_distance(A, B) == pytest.approx(0.1)

    def test_empty_raises(self):
        with pytest.raises(EmptySupportError):
            hausdorff_distance(np.zeros((0, 2)), [[0.0, 0.0]])

    def test_large_sets_without_quadratic_memory(self):
        # 1e5 points in [0, 1]^3 with the corner (1, 1, 1), plus one far
        # point whose nearest point of the cube is that corner: the distance
        # is |(3, 4, 12)| = 13 exactly; a pairwise array would hold 1e10 rows
        A = np.random.default_rng(12).random((100_000, 3))
        A[0] = 1.0
        B = np.vstack([A, [4.0, 5.0, 13.0]])
        assert hausdorff_distance(A, B) == 13.0
        assert hausdorff_distance(B, A) == 13.0


class TestSpatialIndex:
    @pytest.mark.parametrize("count", [5, 50, 300, 1200])
    def test_matches_brute_force(self, count):
        rng = np.random.default_rng(count)
        pts = rng.normal(size=(count, 3))
        index = SpatialIndex(pts)
        for _ in range(20):
            center = rng.normal(size=3)
            r = rng.random() * 2
            got = index.query(center, r)
            expected = brute_force_query(pts, center, r)
            assert np.array_equal(np.sort(got), expected)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_query_counts_match_neighbourhoods_and_spectra(self, n):
        # radius = a computed distance to another atom puts that atom on
        # the boundary, where the three counts must still agree
        rng = np.random.default_rng(50 + n)
        pts = rng.normal(size=(600, n))
        index, mu = SpatialIndex(pts), AtomicMeasure(pts)
        ci, other = rng.integers(0, 600, 30), rng.integers(0, 600, 30)
        centers = pts[ci]
        centers[1::2] += rng.normal(size=(15, n)) * 0.01
        radii = [r for r in np.linalg.norm(pts[other] - centers, axis=1) if r > 0.0]
        for r in radii + [0.05, 0.5, 2.0, 50.0]:
            counts = index.query_counts(centers, r)
            assert np.array_equal(counts, np.diff(index.neighborhoods(centers, r)[0]))
            assert np.array_equal(counts, second_moment_spectra(mu, centers, r)[0])
        assert index.query_counts(pts[0], 50.0).tolist() == [600]
        assert SpatialIndex(np.zeros((0, n))).query_counts(centers, 1.0).tolist() == [0] * 30

    def test_boundary_inclusive(self):
        index = SpatialIndex([[0.0, 0.0], [1.0, 0.0]])
        assert np.array_equal(index.query([0.0, 0.0], 1.0), [0, 1])

    def test_nearest_matches_brute_force_bitwise(self):
        rng = np.random.default_rng(13)
        pts = rng.normal(size=(700, 3))
        queries = rng.normal(size=(300, 3)) * 1.5
        expected = [np.linalg.norm(pts - q, axis=1).min() for q in queries]
        assert np.array_equal(SpatialIndex(pts).nearest(queries), expected)

    def test_knn_matches_brute_force_bitwise(self):
        rng = np.random.default_rng(16)
        pts = rng.normal(size=(700, 3))
        queries = rng.normal(size=(300, 3)) * 1.5
        d, idx = SpatialIndex(pts).knn(queries, 6)
        assert d.shape == idx.shape == (300, 6)
        for q, dq, iq in zip(queries, d, idx):
            dist = np.linalg.norm(pts - q, axis=1)
            order = np.argsort(dist, kind="stable")[:6]
            assert np.array_equal(dq, dist[order])
            assert np.array_equal(iq, order)

    def test_knn_at_exact_ties(self):
        # dyadic grid queried at grid points and cell centres: 4 or more
        # neighbours sit at exactly the same distance, and the tree may
        # order them differently from a stable sort, so the distances are
        # compared bitwise and the indices as valid nearest sets
        axis = np.arange(8) * 0.125
        pts = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        queries = np.vstack([pts[::5], pts[::7] + 0.0625])
        k = 9
        d, idx = SpatialIndex(pts).knn(queries, k)
        for q, dq, iq in zip(queries, d, idx):
            dist = np.linalg.norm(pts - q, axis=1)
            assert np.array_equal(dq, np.sort(dist)[:k])
            assert len(set(iq.tolist())) == k
            assert np.array_equal(dist[iq], dq)
            # every point strictly closer than the k-th is returned
            assert set(np.flatnonzero(dist < dq[-1])) <= set(iq.tolist())

    def test_knn_needs_enough_points(self):
        with pytest.raises(ValueError):
            SpatialIndex([[0.0, 0.0], [1.0, 0.0]]).knn([[0.0, 0.0]], 3)

    def test_nearest_of_empty_index_raises(self):
        with pytest.raises(EmptySupportError):
            SpatialIndex(np.zeros((0, 2))).nearest([[0.0, 0.0]])

    @pytest.mark.parametrize("radius", [0.05, 0.2, 0.7])
    def test_greedy_net_matches_brute_force(self, radius):
        rng = np.random.default_rng(14)
        pts = rng.random((600, 3))
        order = rng.permutation(600)[:400]
        net = SpatialIndex(pts).greedy_net(order, radius)
        assert net.tolist() == brute_force_net(pts, order, radius)
        check_net(pts, order, radius, net)

    def test_greedy_net_closed_at_exact_ties(self):
        # dyadic grid with spacing equal to the radius: axis neighbours are
        # exactly one radius apart, so the closed ball rejects them
        radius = 0.125
        axis = np.arange(16) * radius
        pts = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        order = np.random.default_rng(15).permutation(len(pts))
        net = SpatialIndex(pts).greedy_net(order, radius)
        assert net.tolist() == brute_force_net(pts, order, radius)
        check_net(pts, order, radius, net)
        in_order = SpatialIndex(pts).greedy_net(np.arange(len(pts)), radius)
        # a checkerboard: diagonal neighbours are sqrt(2) radii apart; an
        # open ball would keep all 256 points
        assert len(in_order) == 128

    def test_greedy_net_empty_order(self):
        net = SpatialIndex([[0.0, 0.0]]).greedy_net([], 1.0)
        assert net.shape == (0,)


class TestAtomicMeasure:
    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            AtomicMeasure([[0.0, 0.0]], [-1.0])

    def test_mass_and_restrict(self):
        mu = AtomicMeasure([[0.0, 0.0], [2.0, 0.0]], [1.0, 3.0])
        assert mu.total_mass == 4.0
        inner = mu.restrict(Ball([0.0, 0.0], 1.0))
        assert inner.count == 1 and inner.total_mass == 1.0

    def test_bounding_ball_contains_all(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(40, 3))
        mu = AtomicMeasure(pts)
        ball = mu.bounding_ball()
        assert ball.contains(pts).all()

    def test_immutable(self):
        mu = AtomicMeasure([[0.0, 0.0]])
        with pytest.raises((ValueError, RuntimeError)):
            mu.positions[0, 0] = 5.0


class TestOrthonormalize:
    def test_rejects_dependent(self):
        with pytest.raises(ValueError):
            orthonormalize([[1.0, 0.0], [1.0 + 1e-12, 0.0]])

    def test_orthonormal_output(self):
        rng = np.random.default_rng(9)
        V = orthonormalize(rng.normal(size=(3, 5)))
        assert np.allclose(V @ V.T, np.eye(3), atol=1e-12)

    def test_ball_radius_positive(self):
        with pytest.raises(ValueError):
            Ball([0.0], 0.0)
