import tracemalloc

import numpy as np
import pytest

from msgeom import moments, reifenberg
from msgeom.errors import PlaneFitError, SeparationError
from msgeom.fixtures import circle_cloud, perturbed_plane_cloud, plane_cloud, sine_graph_cloud
from msgeom.geometry import AffinePlane, AtomicMeasure, Ball, SpatialIndex, sum_last
from msgeom.moments import DisplacementConfig, dyadic_profile
from msgeom.reifenberg import (
    PartitionOfUnity,
    SigmaMap,
    bilipschitz_distortion,
    build_partition,
    measure_estimate,
    reconstruct,
    sigma_apply,
)


def grid_points(low, high, count, dim, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(low, high, size=(count, dim))


class TestPartition:
    def test_single_center(self):
        pou = build_partition([[0.0, 0.0]], 1.0)
        inside = grid_points(-2, 2, 400, 2, seed=1)
        w = pou.weights(inside)
        near = np.linalg.norm(inside, axis=1) <= 2.0
        far = np.linalg.norm(inside, axis=1) >= 3.0
        assert np.allclose(w[near, 0], 1.0)
        assert np.allclose(w[far, 0], 0.0)

    def test_two_centers_sum_to_one(self):
        r = 0.8
        pou = build_partition([[0.0, 0.0], [r, 0.0]], r)
        pts = grid_points(-3, 3, 3000, 2, seed=2)
        w = pou.weights(pts)
        assert np.all(w >= 0) and np.all(w <= 1)
        d = np.minimum(
            np.linalg.norm(pts, axis=1), np.linalg.norm(pts - [r, 0.0], axis=1)
        )
        on_union = d <= 2 * r
        assert np.allclose(w[on_union].sum(axis=1), 1.0, atol=1e-8)

    def test_support_radius(self):
        pou = build_partition([[1.0, -1.0, 0.0]], 0.5)
        pts = grid_points(-3, 3, 2000, 3, seed=3)
        w = pou.weights(pts)
        outside = np.linalg.norm(pts - [1.0, -1.0, 0.0], axis=1) >= 1.5
        assert np.allclose(w[outside, 0], 0.0)

    def test_gradient_bound(self):
        # sampled |grad lambda| * r <= C(n); record C
        for r in (0.25, 1.0, 3.0):
            pou = build_partition([[0.0, 0.0], [1.5 * r, 0.0], [0.0, 1.7 * r]], r)
            pts = grid_points(-3 * r, 3 * r, 200, 2, seed=4)
            worst = 0.0
            for p in pts:
                g = pou.weight_gradients(p)
                worst = max(worst, np.abs(g).max())
            assert worst * r <= 8.0  # measured C(2) ~ 1.5 with normalization slack

    def test_separation_violation(self):
        with pytest.raises(SeparationError) as err:
            build_partition([[0.0, 0.0], [0.3, 0.0]], 1.0)
        assert err.value.pair == (0, 1)

    def test_separation_violation_reports_first_pair(self):
        # close pairs (1, 3), (1, 4), (3, 4) and (2, 5); the first is (1, 3)
        centers = [[0.0, 0.0], [5.0, 0.0], [20.0, 0.0], [5.3, 0.0], [4.6, 0.0],
                   [20.5, 0.0]]
        with pytest.raises(SeparationError) as err:
            build_partition(centers, 1.0)
        assert err.value.pair == (1, 3)

    def test_leftover(self):
        pou = build_partition([[0.0, 0.0]], 1.0)
        assert pou.leftover([[0.0, 0.0]])[0] == pytest.approx(0.0)
        assert pou.leftover([[10.0, 0.0]])[0] == pytest.approx(1.0)


class TestSigma:
    def test_exact_projection_when_planes_coincide(self):
        # all V_i equal, p_i on the plane: sigma is the affine projection
        plane = AffinePlane.coordinate(2, [0])
        centers = [[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
        planes = [AffinePlane([c[0], 0.0], [[1.0, 0.0]]) for c in centers]
        sig = SigmaMap(build_partition(centers, 1.0), planes)
        pts = grid_points(-1, 1, 100, 2, seed=5)
        pts[:, 1] *= 0.5
        full = np.abs(pts[:, 0]) <= 1.0  # within B_2r of some center
        got = sig.apply(pts)
        expected = np.stack([pts[:, 0], np.zeros(len(pts))], axis=1)
        assert np.allclose(got[full], expected[full], atol=1e-12)

    def test_identity_outside_support(self):
        plane = AffinePlane.coordinate(3, [0, 1])
        sig = SigmaMap(build_partition([[0.0, 0.0, 0.0]], 0.5), [plane])
        x = np.array([5.0, 0.0, 2.0])
        assert np.allclose(sigma_apply(sig, x), x)

    def test_identity_where_psi_one(self):
        plane = AffinePlane.coordinate(2, [0])
        sig = SigmaMap(build_partition([[0.0, 0.0]], 1.0), [plane])
        x = np.array([2.9, 0.1])  # outside B_2r... inside B_3r: moved
        y = np.array([3.5, 0.1])  # outside B_3r: fixed
        assert np.allclose(sig.apply(y), y)

    def test_near_projection_error_bound(self):
        # coherent planes (d_G <= delta, offsets <= delta r):
        # sigma = projection + e with |e| <= c delta / r * r = c delta,
        # and |grad e| <= c delta / r via finite differences.
        rng = np.random.default_rng(6)
        delta = 0.01
        r = 1.0
        base_plane = AffinePlane.coordinate(3, [0, 1])
        centers = np.array(
            [[x, y, 0.0] for x in (-1.0, 0.0, 1.0) for y in (-1.0, 0.0, 1.0)]
        )
        planes = []
        for c in centers:
            tilt = rng.normal(size=(2, 3)) * delta * 0.4
            dirs = base_plane.directions + tilt
            base = c + np.array([0.0, 0.0, rng.uniform(-delta, delta) * r * 0.5])
            planes.append(AffinePlane.from_spanning(base, dirs))
        sig = SigmaMap(build_partition(centers, r), planes)
        sup_e = 0.0
        sup_grad = 0.0
        pou = sig.partition
        for _ in range(300):
            x = rng.uniform(-0.8, 0.8, size=3)
            x[2] *= delta
            if pou.leftover([x])[0] > 1e-12:
                continue
            e = sig.apply(x) - base_plane.project(x)
            sup_e = max(sup_e, np.linalg.norm(e))
            J = sig.jacobian(x)
            Je = J - base_plane.projection_matrix()
            sup_grad = max(sup_grad, np.abs(Je).max())
        c = 30.0
        assert sup_e <= c * delta / r
        assert sup_grad <= c * delta / r

    def test_jacobian_finite(self):
        plane = AffinePlane.coordinate(2, [0])
        sig = SigmaMap(build_partition([[0.0, 0.0]], 1.0), [plane])
        for x in ([0.0, 0.0], [2.5, 0.3], [2.999, 0.0], [4.0, 4.0]):
            assert np.all(np.isfinite(sig.jacobian(np.array(x))))

    def test_graph_image_stays_graph(self):
        # the image of a sampled graph under sigma with delta-coherent data is
        # again a graph over the base plane, with norm <= c (delta + delta');
        # the measured constant must be stable and monotone across delta
        rng = np.random.default_rng(77)
        base = AffinePlane.coordinate(3, [0, 1])
        r = 1.0
        centers = np.array([[x, y, 0.0] for x in (-1.2, 0.0, 1.2)
                            for y in (-1.2, 0.0, 1.2)])
        norms = []
        for delta in (0.02, 0.01, 0.005):
            planes = []
            for c in centers:
                dirs = base.directions + delta * 0.4 * rng.normal(size=(2, 3))
                p = c + np.array([0.0, 0.0, delta * 0.4 * rng.uniform(-1, 1)])
                planes.append(AffinePlane.from_spanning(p, dirs))
            sig = SigmaMap(build_partition(centers, r), planes)
            delta_prime = delta  # input graph g(u) with |g|/r + Lip(g) ~ delta
            us = rng.uniform(-0.9, 0.9, size=(400, 2))
            g = delta_prime * np.sin(3.0 * us[:, :1]) * np.cos(2.0 * us[:, 1:])
            pts = np.concatenate([us, g], axis=1)
            out = sig.apply(pts)
            heights = np.abs(out[:, 2])
            norms.append(heights.max() / (delta + delta_prime))
        assert max(norms) <= 10.0  # measured c(n)/rho for this layout
        # larger delta never produces a relatively smaller graph by luck alone;
        # the normalized norms stay within one band
        assert max(norms) <= 4.0 * max(min(norms), 1e-6)


class TestReconstructFlat:
    @pytest.mark.parametrize("n,k,count", [(2, 1, 600), (3, 2, 3000)])
    def test_plane_reproduced_at_all_scales(self, n, k, count):
        mu = plane_cloud(n, k, count=count, extent=1.0, seed=7)
        cfg = DisplacementConfig.default(k)
        atlas = reconstruct(mu, k, cfg, max_scale_count=4)
        plane = AffinePlane.coordinate(n, list(range(k)))
        for rec, samples in zip(atlas.scales, atlas.samples_per_scale):
            assert np.max(plane.distance(samples)) <= 1e-10
            for patch in rec.patches:
                assert plane.distance(patch.plane.base) <= 1e-10
                assert np.max(plane.distance(patch.plane.base + patch.plane.directions)) <= 1e-10
        # phi = identity on samples
        moved = atlas.apply_phi(atlas.initial_samples)
        assert np.max(np.linalg.norm(moved - atlas.initial_samples, axis=1)) <= 1e-10
        for step in range(1, len(atlas.scales)):
            assert bilipschitz_distortion(atlas, step) == pytest.approx(1.0, abs=1e-9)

    def test_flat_measure_matches_disk(self):
        from msgeom.moments import unit_ball_volume

        for n, k in [(2, 1), (3, 2)]:
            mu = plane_cloud(n, k, count=800, extent=1.0, seed=8)
            cfg = DisplacementConfig.default(k)
            atlas = reconstruct(mu, k, cfg, max_scale_count=3)
            r = 0.4
            got = measure_estimate(atlas, Ball(np.zeros(n), r))
            assert got == pytest.approx(unit_ball_volume(k) * r**k, abs=1e-6)

    def test_coverage_of_atoms(self):
        mu = plane_cloud(2, 1, count=500, extent=1.0, seed=9)
        cfg = DisplacementConfig.default(1)
        atlas = reconstruct(mu, 1, cfg, max_scale_count=4)
        assert atlas.covered.all()
        assert atlas.summability_ok


class TestReconstructCircle:
    def test_circle_hausdorff_and_length(self):
        noise = 1e-3
        mu = circle_cloud(count=2000, noise=noise, seed=10)
        cfg = DisplacementConfig.default(1, delta=0.25)
        with pytest.warns(UserWarning, match="summed displacement"):
            atlas = reconstruct(mu, 1, cfg, max_scale_count=6, flat_tol=0.12)
        # distance from manifold samples to the true circle
        radial = np.abs(np.linalg.norm(atlas.final_samples, axis=1) - 1.0)
        assert radial.max() <= 10 * noise
        # every atom is close to the manifold
        assert atlas.atom_distances.max() <= 10 * noise + atlas.coverage_tol
        # total length ~ 2 pi
        length = measure_estimate(atlas, Ball(np.zeros(2), 1.3))
        assert length == pytest.approx(2 * np.pi, rel=0.02)

    def test_circle_arc_measure(self):
        # B_1 around a point on the circle cuts an arc of length 2 pi / 3
        mu = circle_cloud(count=2000, noise=0.0, seed=11)
        cfg = DisplacementConfig.default(1, delta=0.25)
        with pytest.warns(UserWarning, match="summed displacement"):
            atlas = reconstruct(mu, 1, cfg, max_scale_count=6, flat_tol=0.12)
        got = measure_estimate(atlas, Ball([1.0, 0.0], 1.0))
        # oracle: arc-length integral; chord <= 1 iff |theta| <= pi/3
        assert got == pytest.approx(2 * np.pi / 3, rel=0.02)

    def test_per_step_motion_bound(self):
        mu = circle_cloud(count=1500, noise=1e-3, seed=12)
        cfg = DisplacementConfig.default(1, delta=0.25)
        with pytest.warns(UserWarning, match="summed displacement"):
            atlas = reconstruct(mu, 1, cfg, max_scale_count=5, flat_tol=0.12)
        for rec in atlas.scales[1:]:
            if rec.sigma is None:
                continue
            # motion <= c * flatness * r with a measured constant
            bound = max(rec.flatness, 1e-3) * rec.radius
            assert rec.motion_max <= 25.0 * bound

    def test_total_distortion_accumulates(self):
        # circle: curvature-driven per-step terms; product stays bounded
        mu = circle_cloud(count=1500, noise=1e-3, seed=13)
        cfg = DisplacementConfig.default(1, delta=0.25)
        with pytest.warns(UserWarning, match="summed displacement"):
            atlas = reconstruct(mu, 1, cfg, max_scale_count=5, flat_tol=0.12)
        assert atlas.total_distortion_bound() <= 1.12
        # low-curvature graph: the quadratic accumulation keeps phi near isometric
        mu2 = sine_graph_cloud(count=6000, amplitude=0.05)
        atlas2 = reconstruct(mu2, 1, cfg, max_scale_count=5, check_summability=False)
        assert atlas2.total_distortion_bound() <= 1.01


class TestReconstructGraph:
    def test_sine_graph_patches_flat(self):
        mu = sine_graph_cloud(count=10_000, amplitude=0.05)
        cfg = DisplacementConfig.default(1, delta=0.25)
        atlas = reconstruct(mu, 1, cfg, max_scale_count=5, check_summability=False)
        # measured flatness from the displacement profile drives the bound
        prof = dyadic_profile(mu, np.zeros(2), 1, 1, 5, cfg)
        delta_measured = float(np.sqrt(np.maximum(prof.displacements, 0.0)).max())
        for rec in atlas.scales:
            for patch in rec.patches:
                assert patch.graph_lip <= 60.0 * max(delta_measured, 1e-4)

    def test_perturbed_plane_measure(self):
        mu = perturbed_plane_cloud(2, 1, delta=1e-3, count=4000, seed=14)
        cfg = DisplacementConfig.default(1, delta=0.25)
        atlas = reconstruct(mu, 1, cfg, max_scale_count=4)
        r = 0.5
        got = measure_estimate(atlas, Ball(np.zeros(2), r))
        assert got == pytest.approx(2 * r, rel=0.01)

    def test_perturbed_plane_area_k2(self):
        # a non-flat k = 2 atlas, so the graph integration runs instead of the
        # coplanar disk formula; the pinned values were computed one cell and
        # one lift at a time, and the batched lifts reproduce them to 1e-12
        mu = perturbed_plane_cloud(3, 2, delta=1e-3, count=3000, seed=14)
        cfg = DisplacementConfig.default(2)
        atlas = reconstruct(mu, 2, cfg, max_scale_count=3, check_summability=False)
        for center, r, pinned in [((0.0, 0.0, 0.0), 0.5, 0.7937861769745367),
                                  ((0.3, -0.2, 0.0), 0.25, 0.197799373961574)]:
            got = measure_estimate(atlas, Ball(center, r))
            assert got == pytest.approx(pinned, rel=1e-12)
            assert got == pytest.approx(np.pi * r**2, rel=0.02)

    def test_no_final_patches_measure_zero(self):
        # a final scale without good centers keeps no patches to integrate
        mu = perturbed_plane_cloud(3, 2, delta=1e-2, count=400, seed=5)
        cfg = DisplacementConfig.default(2)
        atlas = reconstruct(mu, 2, cfg, max_scale_count=2, check_summability=False)
        atlas.scales[-1].patches = []
        assert measure_estimate(atlas, Ball(np.zeros(3), 0.5)) == 0.0


def _brute_force_chain(samples, guard):
    """Nearest-unused walk over every sample per step (first minimum in index
    order), stopping past the guard."""
    used = np.zeros(len(samples), dtype=bool)
    order = [0]
    used[0] = True
    while True:
        d = np.linalg.norm(samples - samples[order[-1]], axis=1)
        d[used] = np.inf
        j = int(np.argmin(d))
        if not np.isfinite(d[j]) or d[j] > guard:
            break
        order.append(j)
        used[j] = True
    return order


class TestChain:
    @staticmethod
    def _guard(samples):
        m = len(samples)
        probe = samples[::max(1, m // 50)]
        d = np.linalg.norm(probe[:, None, :] - samples[None, :, :], axis=2)
        return 6.0 * np.median(np.sort(d, axis=1)[:, 1])

    @pytest.mark.parametrize("case", ["noisy_circle", "square_lattice", "two_arcs"])
    def test_matches_brute_force_walk(self, case):
        rng = np.random.default_rng(21)
        if case == "noisy_circle":
            ang = np.linspace(0.0, 2 * np.pi, 700, endpoint=False)
            samples = np.stack([np.cos(ang), np.sin(ang)], axis=1)
            samples += 1e-3 * rng.normal(size=samples.shape)
        elif case == "square_lattice":
            # unit steps on the boundary of a square: every step has exact ties
            t = np.arange(40.0)
            sides = [np.stack([t, 0 * t], 1), np.stack([40 + 0 * t, t], 1),
                     np.stack([40 - t, 40 + 0 * t], 1), np.stack([0 * t, 40 - t], 1)]
            samples = np.vstack(sides)
        else:
            ang = np.concatenate([np.linspace(0.0, 2.0, 300), np.linspace(3.0, 5.0, 300)])
            samples = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        samples = samples[rng.permutation(len(samples))]
        guard = self._guard(samples)
        want = _brute_force_chain(samples, guard)
        order, closes = reifenberg._chain_samples_1d(samples)
        assert order.tolist() == want
        assert closes == bool(np.linalg.norm(samples[want[0]] - samples[want[-1]]) <= guard)
        if case == "two_arcs":
            assert len(order) < len(samples) and not closes
        else:
            assert len(order) == len(samples) and closes


class TestFlatnessProbes:
    def test_each_scale_probed_once(self, monkeypatch):
        # the start-scale search probes every scale; the scale records
        # reuse those values
        calls = []
        probe = reifenberg._probe_flatness

        def counting(mu, r, *args, **kwargs):
            calls.append(r)
            return probe(mu, r, *args, **kwargs)

        monkeypatch.setattr(reifenberg, "_probe_flatness", counting)
        mu = plane_cloud(2, 1, count=400, seed=4)
        cfg = DisplacementConfig.default(1)
        atlas = reconstruct(mu, 1, cfg, max_scale_count=4)
        assert len(calls) == 4
        assert len(atlas.scales) == 4
        assert [rec.flatness for rec in atlas.scales] == [probe(mu, r, 1, cfg) for r in calls]


class TestCoverState:
    def test_per_scale_accounting(self):
        # every atom is near a good center, or near a recorded bad ball, or
        # ends up flagged uncovered at the end
        mu = circle_cloud(count=1200, noise=1e-3, seed=20)
        cfg = DisplacementConfig.default(1, delta=0.25)
        atlas = reconstruct(mu, 1, cfg, max_scale_count=5, flat_tol=0.12,
                            check_summability=False)
        for rec in atlas.scales[1:]:
            state = rec.cover_state
            if state is None or len(state.good_centers) == 0:
                continue
            r = rec.radius
            for a in mu.positions[::37]:
                d_good = np.linalg.norm(state.good_centers - a, axis=1).min()
                d_bad = (np.linalg.norm(state.bad_centers - a, axis=1).min()
                         if state.bad_centers.shape[0] else np.inf)
                assert d_good <= r or d_bad <= r


class TestInverse:
    def test_newton_inverse_round_trip(self):
        mu = circle_cloud(count=1500, noise=1e-3, seed=15)
        cfg = DisplacementConfig.default(1, delta=0.25)
        with pytest.warns(UserWarning, match="summed displacement"):
            atlas = reconstruct(mu, 1, cfg, max_scale_count=5, flat_tol=0.12)
        rng = np.random.default_rng(16)
        final = atlas.final_samples
        for j in rng.integers(0, len(final), size=10):
            y = final[j]
            x = atlas.invert(y)
            assert np.linalg.norm(atlas.apply_phi(x) - y) <= 1e-8

    def test_newton_steps_between_final_samples(self, monkeypatch):
        # y = phi(midpoint of two neighbouring start samples of one patch)
        # lies between their final samples, so no seed is exact
        mu = circle_cloud(count=1500, noise=1e-3, seed=15)
        cfg = DisplacementConfig.default(1, delta=0.25)
        with pytest.warns(UserWarning, match="summed displacement"):
            atlas = reconstruct(mu, 1, cfg, max_scale_count=5, flat_tol=0.12)
        steps, difference = [], reifenberg._central_difference
        monkeypatch.setattr(reifenberg, "_central_difference",
                            lambda *args: steps.append(1) or difference(*args))
        start, component = atlas.initial_samples, atlas.sample_component
        pairs = np.flatnonzero(component[1:] == component[:-1])[::50]
        for j in pairs:
            y = atlas.apply_phi(0.5 * (start[j] + start[j + 1]))
            x = atlas.invert(y)
            assert np.linalg.norm(atlas.apply_phi(x) - y) <= 1e-8
        assert len(pairs) >= 10 and len(steps) >= len(pairs)


class TestPlaneFits:
    def test_one_spectra_batch_per_scale(self, monkeypatch):
        spectra_calls, spectrum_calls = [], []
        batch = reifenberg.second_moment_spectra

        def counting_batch(mu, centers, r):
            spectra_calls.append(r)
            return batch(mu, centers, r)

        def counting_one(*args):
            spectrum_calls.append(args)

        monkeypatch.setattr(reifenberg, "second_moment_spectra", counting_batch)
        monkeypatch.setattr(moments, "second_moment_spectrum", counting_one)
        monkeypatch.setattr(reifenberg, "second_moment_spectrum", counting_one,
                            raising=False)
        mu = plane_cloud(2, 1, count=400, seed=4)
        atlas = reconstruct(mu, 1, DisplacementConfig.default(1), max_scale_count=4)
        assert spectrum_calls == []
        assert spectra_calls == [rec.radius for rec in atlas.scales if rec.patches]

    def test_first_failing_start_center_raises(self, monkeypatch):
        # the mass cutoff exceeds every ball's mass, so the first start-scale
        # center fails its plane fit
        found = []
        good = reifenberg._separated_good_centers

        def recording(*args):
            found.append(good(*args))
            return found[-1]

        monkeypatch.setattr(reifenberg, "_separated_good_centers", recording)
        mu = plane_cloud(2, 1, count=200, seed=3)
        cfg = DisplacementConfig(eps_mass=50, gamma_good=1e-3)
        with pytest.raises(PlaneFitError, match="plane fit impossible") as err:
            reconstruct(mu, 1, cfg, max_scale_count=4, check_summability=False)
        assert len(found) == 1 and len(found[0]) >= 2
        assert np.array_equal(err.value.center, found[0][0])
        assert str(err.value).startswith(
            f"plane fit impossible on the good ball at {np.round(found[0][0], 6).tolist()} "
            f"radius {err.value.radius:.6g}: ")

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_is_rejected(self, k):
        with pytest.raises(ValueError, match="k >= 1"):
            reconstruct(plane_cloud(3, 1, count=200), k, DisplacementConfig.default(1),
                        max_scale_count=3)


def _brute_force_members(samples, c, radius):
    """The samples in the closed ball B_radius(c), by a scan over every
    sample with the index's predicate: squared coordinates of x - c, added
    left to right, at most radius * radius."""
    diff = samples - c
    return np.flatnonzero(sum_last(diff * diff) <= radius * radius)


def _brute_force_patch_records(samples, centers, planes, r, parent_planes):
    """Patch records from a scan over every sample per centre."""
    records = []
    for c, pl, parent in zip(centers, planes, parent_planes):
        rel = _brute_force_members(samples, c, 1.5 * r)
        records.append(reifenberg._patch_stats(samples[rel], pl, 1.5 * r, parent))
    return records


class TestPatchScan:
    @staticmethod
    def _boundary_samples(centers, r, rng):
        """Samples at exactly 1.5 r from each centre along the axes (the
        offsets are exact in binary), 1 ulp to either side, and random ones
        within a few ulps of the sphere."""
        radius = 1.5 * r
        pieces = [rng.uniform(-1.0, 1.0, size=(400, 3))]
        for c in centers:
            for axis in range(3):
                for sign in (1.0, -1.0):
                    edge = c.copy()
                    edge[axis] += sign * radius
                    pieces.append(edge[None])
                    for toward in (np.inf, -np.inf):
                        step = edge.copy()
                        step[axis] = np.nextafter(edge[axis], toward)
                        pieces.append(step[None])
            dirs = rng.normal(size=(60, 3))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            stretch = 1.0 + rng.integers(-4, 5, size=(60, 1)) * np.finfo(float).eps
            pieces.append(c + radius * stretch * dirs)
        samples = np.vstack(pieces)
        return samples[rng.permutation(len(samples))]

    def test_matches_brute_force_scan_at_the_boundary(self):
        rng = np.random.default_rng(12)
        r = 0.25
        centers = np.array([[0.25, 0.5, -0.125], [-0.5, 0.0, 0.25], [0.0, -0.375, 0.0]])
        planes = [AffinePlane.from_spanning(c, rng.normal(size=(2, 3))) for c in centers]
        samples = self._boundary_samples(centers, r, rng)
        indptr, members = SpatialIndex(samples).neighborhoods(centers, 1.5 * r)
        for c, lo, hi in zip(centers, indptr[:-1], indptr[1:]):
            idx = np.sort(members[lo:hi])
            d = np.linalg.norm(samples - c, axis=1)
            assert idx.tolist() == _brute_force_members(samples, c, 1.5 * r).tolist()
            # the exact boundary samples are in, the ones 1 ulp outside are not
            assert (d == 1.5 * r).sum() >= 6 and (d[idx] == 1.5 * r).sum() >= 6
            assert ((d > 1.5 * r) & (d <= 1.5 * r * (1 + 1e-15))).any()
        # the third centre's nearest parent lies beyond the reach
        records = reifenberg._patch_records(SpatialIndex(samples), centers, planes, r,
                                            (centers[:2], planes[:2], 0.6))
        want = _brute_force_patch_records(samples, centers, planes, r,
                                          [planes[0], planes[1], None])
        for rec, (sup, lip, coh) in zip(records, want):
            assert (rec.graph_sup, rec.graph_lip, rec.coherence) == (sup, lip, coh)
            assert rec.radius == 1.5 * r

    def test_one_neighborhoods_call_per_scale(self, monkeypatch):
        calls, inside = [], []
        records = reifenberg._patch_records
        query = SpatialIndex.neighborhoods

        def counting_records(index, centers, planes, r, parents=None):
            inside.append(r)
            try:
                return records(index, centers, planes, r, parents)
            finally:
                inside.pop()

        def counting_query(index, centers, radius):
            if inside:
                calls.append((inside[-1], radius))
            return query(index, centers, radius)

        monkeypatch.setattr(reifenberg, "_patch_records", counting_records)
        monkeypatch.setattr(SpatialIndex, "neighborhoods", counting_query)
        mu = plane_cloud(2, 1, count=400, seed=4)
        atlas = reconstruct(mu, 1, DisplacementConfig.default(1), max_scale_count=4)
        assert calls == [(rec.radius, 1.5 * rec.radius)
                         for rec in atlas.scales if rec.patches]


class TestScaleWithoutGoodCenter:
    """A strip whose scales 4-6 have no good centre: gamma_good r^k outgrows
    the mass of every ball there, and the finer scales have good centres
    again."""

    @staticmethod
    def _strip_atlas():
        rng = np.random.default_rng(7)
        pts = np.column_stack([rng.uniform(-1.0, 1.0, 400), rng.uniform(-0.1, 0.1, 400)])
        mu = AtomicMeasure(pts, np.full(400, 2.0 / 400))
        cfg = DisplacementConfig(eps_mass=0.0, gamma_good=1.8)
        return reconstruct(mu, 1, cfg, max_scale_count=9, check_summability=False,
                           flat_tol=0.5), cfg

    def test_empty_scales_record_no_step(self):
        atlas, _ = self._strip_atlas()
        assert [len(rec.patches) for rec in atlas.scales] == [1, 2, 6, 7, 0, 0, 0, 6, 13]
        for i in (4, 5, 6):
            rec = atlas.scales[i]
            assert rec.sigma is None and rec.cover_state is None
            assert (rec.motion_max, rec.distortion) == (0.0, 1.0)
            assert np.array_equal(atlas.samples_per_scale[i], atlas.samples_per_scale[3])

    def test_parents_are_the_last_scale_with_patches(self):
        # scale 7 measures coherence against scale 3's planes, reached at
        # 3 r / rho of its own radius r
        atlas, cfg = self._strip_atlas()
        parents, rec = atlas.scales[3].patches, atlas.scales[7]
        parent_centers = np.array([p.center for p in parents])
        reach = 3.0 * rec.radius / cfg.rho
        parent_planes = []
        for patch in rec.patches:
            d = np.linalg.norm(parent_centers - patch.center, axis=1)
            j = int(np.argmin(d))
            parent_planes.append(parents[j].plane if d[j] <= reach else None)
        want = _brute_force_patch_records(atlas.samples_per_scale[7],
                                          [p.center for p in rec.patches],
                                          [p.plane for p in rec.patches], rec.radius,
                                          parent_planes)
        for patch, (sup, lip, coh) in zip(rec.patches, want):
            assert (patch.graph_sup, patch.graph_lip, patch.coherence) == (sup, lip, coh)


class TestScaleLadder:
    """reconstruct rejects a scale ladder it cannot lay out before any work:
    no scale, or a start-scale disk of over 2**20 grid points."""

    @pytest.mark.parametrize("k, scales", [(1, 0), (1, -1), (1, 40), (1, 70), (5, 1),
                                           (3, np.int64(21))],
                             ids=["scales-0", "scales-minus-1", "scales-40", "scales-70",
                                  "k5-disk", "k3-numpy-scales"])
    def test_bad_ladder_is_value_error(self, k, scales):
        pts = np.zeros((50, k + 1))
        pts[:, 0] = np.linspace(0.0, 1.0, 50)
        mu = AtomicMeasure(pts)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="scale"):
                reconstruct(mu, k, DisplacementConfig.default(k), max_scale_count=scales)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
