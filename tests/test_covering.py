import numpy as np
import pytest

from msgeom import covering
from msgeom.covering import (
    BallFamily,
    CoverReport,
    classify_balls,
    discrete_reifenberg_verify,
    excess_set,
    inductive_cover,
    iterate_cover,
    separated_decomposition,
    union_ball_volume,
    vitali_subcover,
)
from msgeom.errors import DisjointnessError, EnergyInfiniteError
from msgeom.fixtures import (
    circle_ball_family,
    circle_cloud,
    dyadic_segment_family,
    koch_ball_family,
    plane_cloud,
)
from msgeom.geometry import AffinePlane, AtomicMeasure, Ball, SpatialIndex
from msgeom.harmonic import radial_projection, smooth_wave, smoothed_projection, theta
from msgeom.moments import (DisplacementConfig, ball_masses_many, best_affine_plane,
                            dyadic_displacement_sums, unit_ball_volume)


class TestClassify:
    def test_dense_planar_all_good(self):
        mu = plane_cloud(2, 1, count=500, extent=1.0, seed=0)
        cfg = DisplacementConfig.default(1)
        centers = mu.positions[::50]
        good, bad = classify_balls(mu, centers, 0.3, 1, cfg)
        assert len(bad) == 0 and len(good) == len(centers)

    def test_empty_balls_all_bad(self):
        cfg = DisplacementConfig.default(1)
        for mu in (AtomicMeasure([[10.0, 10.0]]),
                   AtomicMeasure([[10.0, 10.0], [11.0, 10.0]], [2.0, 3.0])):
            good, bad = classify_balls(mu, np.zeros((3, 2)), 0.5, 1, cfg)
            assert len(good) == 0 and len(bad) == 3
        # an empty ball between two nonempty ones carries no mass
        masses = ball_masses_many(mu, [[10.0, 10.0], [0.0, 0.0], [11.0, 10.0]], 0.5)
        assert list(masses) == [2.0, 0.0, 3.0]

    def test_constructed_masses_split_exactly(self):
        cfg = DisplacementConfig.default(1)
        r = 0.5
        target = cfg.gamma_good * r
        # one atom carrying 0.5x the threshold, another carrying 2x
        mu = AtomicMeasure([[0.0, 0.0], [5.0, 0.0]], [0.5 * target, 2.0 * target])
        good, bad = classify_balls(mu, np.array([[0.0, 0.0], [5.0, 0.0]]), r, 1, cfg)
        assert list(good) == [1] and list(bad) == [0]


class TestExcess:
    def test_planar_atoms_empty(self):
        mu = plane_cloud(2, 1, count=200, seed=1)
        plane = AffinePlane.coordinate(2, [0])
        out = excess_set(mu, Ball(np.zeros(2), 0.8), plane, 0.4)
        assert len(out) == 0

    def test_single_outlier_detected(self):
        r_next = 0.4
        pts = [[x, 0.0] for x in np.linspace(-0.5, 0.5, 11)]
        pts.append([0.0, r_next / 2.0])
        mu = AtomicMeasure(pts)
        plane = AffinePlane.coordinate(2, [0])
        out = excess_set(mu, Ball(np.zeros(2), 1.0), plane, r_next)
        assert list(out) == [11]

    def test_circle_excess_mass_bound(self):
        # excess mass times (r_next/5)^2 is controlled by r^{k+2} D(y, 2r)
        from msgeom.moments import displacement

        mu = circle_cloud(count=2000, noise=0.0, seed=2)
        cfg = DisplacementConfig.default(1)
        r_i = 0.25
        y = np.array([1.0, 0.0])
        ball = Ball(y, r_i)
        plane = best_affine_plane(mu, ball, 1)
        r_next = r_i / 2.0
        idx = excess_set(mu, ball, plane, r_next)
        excess_mass = float(mu.weights[idx].sum())
        lhs = excess_mass * (r_next / 5.0) ** 2
        rhs = r_i**3 * displacement(mu, y, 2 * r_i, 1, cfg)
        C = lhs / rhs if rhs > 0 else 0.0
        assert lhs <= 60.0 * rhs  # measured constant logged
        assert C < 60.0


class TestVitali:
    def test_disjoint_input_unchanged(self):
        balls = [Ball([0.0, 0.0], 1.0), Ball([3.0, 0.0], 1.0)]
        out, idx = vitali_subcover(balls)
        assert idx == [0, 1]

    def test_three_on_a_line(self):
        balls = [Ball([0.0], 1.0), Ball([1.5], 1.0), Ball([3.0], 1.0)]
        out, idx = vitali_subcover(balls)
        assert idx == [0, 2]
        # the dropped center is covered by a 5x dilation of a selected ball
        assert any(abs(1.5 - b.center[0]) <= 5 * b.radius for b in out)

    def test_random_family_properties(self):
        rng = np.random.default_rng(3)
        balls = [Ball(rng.uniform(-2, 2, size=2), 10 ** rng.uniform(-2, -0.5))
                 for _ in range(1000)]
        out, idx = vitali_subcover(balls)
        # brute-force disjointness
        for a in range(len(out)):
            for b in range(a + 1, len(out)):
                d = np.linalg.norm(out[a].center - out[b].center)
                assert d >= out[a].radius + out[b].radius - 1e-12
        # brute-force 5x coverage of every input center
        sel_centers = np.array([b.center for b in out])
        sel_radii = np.array([b.radius for b in out])
        for b in balls:
            d = np.linalg.norm(sel_centers - b.center, axis=1)
            assert np.any(d <= 5 * sel_radii + 1e-12)


class TestSeparatedDecomposition:
    def test_far_equal_balls_single_family(self):
        R = 3.0
        centers = np.array([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0]])
        fam = BallFamily(centers, np.ones(3))
        groups = separated_decomposition(fam, R)
        assert len(groups) == 1 and len(groups[0]) == 3

    def test_near_equal_balls_forced_apart(self):
        R = 3.0
        fam = BallFamily(np.array([[0.0, 0.0], [2.5, 0.0]]), np.ones(2))
        groups = separated_decomposition(fam, R)
        assert len(groups) == 2

    def test_dyadic_family_property_by_pair_scan(self):
        centers, radii = dyadic_segment_family(levels=6)
        fam = BallFamily(centers, radii)
        R = 2.5
        groups = separated_decomposition(fam, R)
        for g in groups:
            for i in g:
                for j in g:
                    if i == j:
                        continue
                    if np.linalg.norm(fam.centers[j] - fam.centers[i]) <= R * fam.radii[i]:
                        assert fam.radii[j] < fam.radii[i] / R**2
        assert len(groups) <= 40  # count bound recorded for the fixture

    def test_disjointness_precondition(self):
        fam = BallFamily(np.array([[0.0], [0.3]]), np.array([1.0, 1.0]),
                         require_disjoint=False)
        with pytest.raises(DisjointnessError):
            separated_decomposition(fam, 2.0)


def disjoint_by_pair_loop(centers, radii):
    """The O(m^2) pair loop the neighbourhood test replaced, as an oracle."""
    for i in range(len(radii)):
        d = np.linalg.norm(centers[i + 1 :] - centers[i], axis=1)
        if np.any(d < (radii[i + 1 :] + radii[i]) * (1 - 1e-12)):
            return False
    return True


class TestDisjointness:
    @pytest.mark.parametrize("shrink", [1.0, 0.2])
    @pytest.mark.parametrize("step", ["touch", "slack", "inside", "outside"])
    def test_pair_at_the_slack(self, shrink, step):
        # balls 2 and 5 of a spread-out family meet at distance d, which is
        # exactly r_2 + r_5, exactly the slacked sum, or 1 ulp either side
        rng = np.random.default_rng(3)
        radii = rng.uniform(0.01, 0.05, 8)
        centers = np.stack([np.arange(8.0), np.zeros(8)], axis=1)
        r = radii * shrink
        slack = (r[5] + r[2]) * (1 - 1e-12)
        d = {"touch": r[5] + r[2], "slack": slack, "inside": np.nextafter(slack, 0.0),
             "outside": np.nextafter(slack, 1.0)}[step]
        centers[5] = centers[2] + [0.0, d]
        fam = BallFamily(centers, radii, require_disjoint=False)
        got = fam._check_disjoint(shrink)
        assert got == disjoint_by_pair_loop(centers, r) == (step != "inside")
        assert (fam.fifth_disjoint() if shrink == 0.2 else fam.disjoint) == got

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_families_match_the_pair_loop(self, seed):
        rng = np.random.default_rng(seed)
        centers = rng.uniform(-1.0, 1.0, (300, 2))
        radii = rng.uniform(1e-4, 0.03, 300) * (1 + 20 * (np.arange(300) == 7))
        fam = BallFamily(centers, radii, require_disjoint=False)
        for shrink in (1.0, 0.2, 0.01):
            assert fam._check_disjoint(shrink) == disjoint_by_pair_loop(centers, radii * shrink)


class TestPackingVerifier:
    def test_tiny_coincident_balls_overlap(self):
        # the disjointness slack is relative, so it cannot swallow tiny radii
        fam = BallFamily([[0.0, 0.0], [0.0, 0.0]], [1e-13, 1e-13],
                         require_disjoint=False)
        assert not fam.disjoint
        with pytest.raises(DisjointnessError):
            BallFamily([[0.0, 0.0], [0.0, 0.0]], [1e-13, 1e-13])

    @pytest.mark.parametrize("centers, radii", [
        ([[0.0, 0.0], [np.nan, 1.0]], [0.1, 0.1]),
        ([[0.0, 0.0], [3.0, -np.inf]], [0.1, 0.1]),
        ([[0.0, 0.0], [3.0, 1.0]], [0.1, np.nan]),
        ([[0.0, 0.0], [3.0, 1.0]], [np.inf, 0.1]),
    ])
    def test_non_finite_balls_rejected(self, centers, radii):
        for require_disjoint in (True, False):
            with pytest.raises(ValueError, match="finite"):
                BallFamily(centers, radii, require_disjoint=require_disjoint)

    def test_one_walk_per_radius(self, monkeypatch):
        # the dyadic ladder walks once per scale, the scale that stops it
        # included, and each test radius once for the mu and nu masses
        centers, radii = circle_ball_family(ball_radius=1e-2, circle_radius=0.98)
        fam = BallFamily(centers, radii)
        mu = fam.measure(1)
        cfg = DisplacementConfig.default(1, delta=0.2)
        ladder = len(dyadic_displacement_sums(mu, mu.positions, 4.0, 1, cfg))
        walks = []
        walk = SpatialIndex.ball_items

        def counting(self, centers, radius):
            walks.append(radius)
            return walk(self, centers, radius)

        monkeypatch.setattr(SpatialIndex, "ball_items", counting)
        report = discrete_reifenberg_verify(fam, 1, cfg)
        assert len(walks) == ladder + len(report.values_by_scale)
        assert walks[ladder:] == list(report.values_by_scale)

    def test_planar_centers_pass(self):
        centers, radii = dyadic_segment_family(levels=5)
        fam = BallFamily(centers, radii)
        cfg = DisplacementConfig.default(1, delta=0.1)
        report = discrete_reifenberg_verify(fam, 1, cfg)
        assert report.hypothesis_ok  # collinear centers: every displacement is 0
        direct = float(radii[np.linalg.norm(centers, axis=1) <= 1.0].sum())
        assert report.packing_sum == pytest.approx(direct, rel=1e-12)

    def test_circle_family_packing_sum(self):
        centers, radii = circle_ball_family(ball_radius=1e-3, circle_radius=0.98)
        fam = BallFamily(centers, radii)
        cfg = DisplacementConfig.default(1, delta=0.2)
        report = discrete_reifenberg_verify(fam, 1, cfg)
        # curvature keeps the whole-circle balls far from any line, so the
        # hypothesis fails at coarse test radii and holds below 2^-2
        assert not report.hypothesis_ok
        assert report.failure_scale >= 0.5
        for r, v in report.values_by_scale.items():
            if r <= 0.25:
                assert v < cfg.delta**2
        direct = float(radii.sum())  # all centers inside the unit ball
        assert report.packing_sum == pytest.approx(direct, rel=1e-12)
        assert report.packing_sum == pytest.approx(2 * np.pi * 0.98 / 2.2, rel=0.05)

    def test_koch_family_fails_small_delta(self):
        centers, radii = koch_ball_family(levels=4)
        fam = BallFamily(centers, radii, require_disjoint=False)
        fam.disjoint = fam._check_disjoint()
        assert fam.disjoint
        cfg = DisplacementConfig.default(1, delta=0.05)
        report = discrete_reifenberg_verify(fam, 1, cfg)
        assert not report.hypothesis_ok
        assert report.failure_scale is not None
        assert report.worst_ball[2] > cfg.delta**2

    def test_monotone_under_deletion(self):
        centers, radii = dyadic_segment_family(levels=5)
        fam = BallFamily(centers, radii)
        sub = fam.subset(np.arange(0, fam.count, 2))
        assert (sub.radii.sum()) <= fam.radii.sum()
        cfg = DisplacementConfig.default(1, delta=0.1)
        full = discrete_reifenberg_verify(fam, 1, cfg)
        part = discrete_reifenberg_verify(sub, 1, cfg)
        assert part.packing_sum <= full.packing_sum + 1e-12


class TestInductiveCover:
    def test_smooth_field_everything_empty(self):
        f = smooth_wave(3)
        report = inductive_cover(f, Ball(np.zeros(3), 0.75), 0, 0.05, 2.0**-4, 1.0,
                                 grid_step=0.25)
        assert report.U_r == [] and report.U_plus == []

    def test_radial_projection_cover(self):
        f = radial_projection(3)
        report = inductive_cover(f, Ball(np.zeros(3), 0.5), 0, 0.3, 2.0**-5, 2.0,
                                 grid_step=2.0**-3)
        # stratum concentrates at the origin; theta is scale-free there, so
        # every sample lands at the floor scale and U_plus stays empty
        assert report.U_plus == []
        assert len(report.U_r) >= 1
        assert report.content <= 10.0
        for b in report.U_r:
            assert np.linalg.norm(b.center) <= 0.3

    def test_smoothed_core_creates_energy_drop(self):
        # below the smoothing core the energy drains away, so stratum samples
        # acquire a positive energy scale and populate U_plus
        f = smoothed_projection(3, core=0.02)
        report = inductive_cover(f, Ball(np.zeros(3), 0.5), 0, 0.25, 2.0**-4, 0.5,
                                 grid_step=2.0**-3)
        assert len(report.U_plus) >= 1
        for b, sup in report.U_plus:
            assert sup <= report.energy_sup - report.eta + 1e-3 * report.energy_sup

    def test_each_theta_evaluated_once(self, monkeypatch):
        # one driver call, all its levels and balls: no (x, r) twice
        f = smoothed_projection(3, core=0.02)
        calls = []

        def counted(field, x, r):
            calls.append((np.asarray(x).tobytes(), float(r)))
            return theta(field, x, r)

        monkeypatch.setattr(covering, "theta", counted)
        levels, _ = iterate_cover(f, Ball(np.zeros(3), 0.5), 0, 0.25, 2.0**-4, 0.5,
                                  grid_step=2.0**-3)
        assert len(levels) >= 2 and calls
        assert len(set(calls)) == len(calls)

    def test_iterated_cover_empties_u_plus(self):
        f = smoothed_projection(3, core=0.02)
        levels, floor_balls = iterate_cover(f, Ball(np.zeros(3), 0.5), 0, 0.25,
                                            2.0**-4, 0.5, grid_step=2.0**-3)
        E = levels[0][0].energy_sup
        assert len(levels) <= int(np.ceil(E / 0.5)) + 1
        assert all(not rep.U_plus for rep in levels[-1])
        assert len(levels) >= 2  # the drop machinery genuinely engaged

    def test_content_accounting(self):
        f = smoothed_projection(3, core=0.02)
        report = inductive_cover(f, Ball(np.zeros(3), 0.5), 0, 0.25, 2.0**-4, 0.5,
                                 grid_step=2.0**-3)
        total = unit_ball_volume(0) * report.packing_sum + report.vol_term
        assert total == pytest.approx(report.content)
        assert report.content <= 50.0  # fixture constant recorded

    def test_r_zero_returns_atoms(self):
        f = radial_projection(3)
        report = inductive_cover(f, Ball(np.zeros(3), 0.5), 0, 0.3, 0, 2.0,
                                 grid_step=2.0**-3)
        assert report.U_r == []
        assert report.U_0 is not None and report.U_0.count >= 1

    def test_every_theta_infinite_raises(self):
        # x/|x| in R^2: every unit ball about a sample meets the codimension-2
        # point, so no energy sup exists
        stratum = AtomicMeasure(np.array([[0.1, 0.0], [0.0, -0.5]]), np.ones(2))
        with pytest.raises(EnergyInfiniteError, match=r"every stratum sample .* \(2\)"):
            iterate_cover(radial_projection(2), Ball(np.zeros(2), 1.0), 0, 0.3, 0.25,
                          0.5, stratum=stratum)


class TestVolume:
    def test_single_ball_volume(self):
        got = union_ball_volume(np.zeros((1, 2)), 1.0, cell=1.0 / 64)
        assert got == pytest.approx(np.pi, rel=0.02)

    def test_disjoint_balls_add(self):
        centers = np.array([[0.0, 0.0], [5.0, 0.0]])
        got = union_ball_volume(centers, 1.0, cell=1.0 / 32)
        assert got == pytest.approx(2 * np.pi, rel=0.05)
