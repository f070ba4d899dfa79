import numpy as np
import pytest

from msgeom.errors import EmptySupportError
from msgeom.fixtures import circle_cloud
from msgeom.geometry import AffinePlane, AtomicMeasure, Ball, SpatialIndex, segment_sums
from msgeom.moments import (
    DisplacementConfig,
    _ball_moments,
    ball_masses_many,
    ball_sums_many,
    best_affine_plane,
    center_of_mass,
    displacement,
    displacement_profile_many,
    dyadic_displacement_sums,
    dyadic_profile,
    dyadic_profiles,
    effective_spanning_points,
    jacobi_eigh,
    second_moment_spectra,
    second_moment_spectrum,
    summability_check,
    unit_ball_volume,
)


def random_plane_residual(mu_pts, mu_w, k, n, count, rng):
    """Brute-force oracle: min weighted squared distance over random k-planes."""
    best = np.inf
    chunk = 20000
    done = 0
    while done < count:
        m = min(chunk, count - done)
        frames = rng.normal(size=(m, n, k))
        Q, _ = np.linalg.qr(frames)
        bases = mu_pts[rng.integers(0, len(mu_pts), size=m)]
        rel = mu_pts[None, :, :] - bases[:, None, :]
        coef = np.einsum("mjn,mnk->mjk", rel, Q)
        proj = np.einsum("mjk,mnk->mjn", coef, Q)
        d2 = np.sum((rel - proj) ** 2, axis=2)
        best = min(best, float((d2 @ mu_w).min()))
        done += m
    return best


def atom_kernel(mu, centers, r):
    """The atom-only kernel that node aggregates replaced, as an oracle:
    every (ball, atom) pair of the tree's CSR neighbourhoods, offsets from
    the ball's center, then two passes about the ball's mean.  Returns
    counts, masses, centers of mass and centred second-moment matrices."""
    m, n = centers.shape
    upper = np.triu_indices(n)
    indptr, idx = mu._index.neighborhoods(centers, r)
    w = mu.weights[idx]
    counts = np.diff(indptr)
    owner = np.repeat(np.arange(m), counts)
    rel = mu.positions.T[:, idx] - centers.T[:, owner]
    masses = segment_sums(w, indptr)
    mean = segment_sums((w * rel).T, indptr)
    np.divide(mean, masses[:, None], out=mean, where=masses[:, None] > 0.0)
    cen = rel - mean.T[:, owner]
    tri = segment_sums(((w * cen)[upper[0]] * cen[upper[1]]).T, indptr)
    mats = np.zeros((m, n, n))
    mats[:, upper[0], upper[1]] = tri
    mats[:, upper[1], upper[0]] = tri
    return counts, masses, centers + mean, mats


def item_kernel(mu, centers, r):
    """The kernel under test on a fresh walk of the balls B_r(c)."""
    return _ball_moments(mu, centers, mu._index.ball_items(centers, r))


def ball_atoms(index, centers, r):
    """Per ball, the atoms its items cover, in item order."""
    t = index.item_tree()
    out = []
    for lo, hi, indptr, items in index.ball_items(centers, r):
        for i in range(hi - lo):
            own = items[indptr[i]:indptr[i + 1]]
            out.append(np.concatenate([np.zeros(0, dtype=np.intp)] + [
                t.order[t.start[j]:t.start[j] + t.size[j]] for j in own]))
    return out


def absorbs_a_node(index, centers, r):
    nodes = index.item_tree().nodes
    flags = np.zeros(len(centers), dtype=bool)
    for lo, hi, indptr, items in index.ball_items(centers, r):
        owner = np.repeat(np.arange(lo, hi), np.diff(indptr))
        flags[owner[items < nodes]] = True
    return flags


def fitted_residual(mu, ball, k):
    plane = best_affine_plane(mu, ball, k)
    idx = mu.indices_in_ball(ball)
    d = plane.distance(mu.positions[idx])
    return float(np.dot(mu.weights[idx], d**2))


class TestJacobi:
    def test_against_numpy(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 3, 5, 9, 16):
            A = rng.normal(size=(n, n))
            A = A + A.T
            ev, vecs = jacobi_eigh(A)
            ref = np.sort(np.linalg.eigvalsh(A))[::-1]
            assert np.allclose(ev, ref, atol=1e-10 * max(1, np.abs(ref).max()))
            assert np.allclose(vecs @ vecs.T, np.eye(n), atol=1e-12)
            for lam, v in zip(ev, vecs):
                assert np.allclose(A @ v, lam * v, atol=1e-9 * max(1, np.abs(ref).max()))

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            jacobi_eigh(np.eye(17))


class TestCenterOfMass:
    def test_symmetric_pair(self):
        mu = AtomicMeasure([[0.5, 0.0], [-0.5, 0.0]])
        assert np.allclose(center_of_mass(mu, Ball([0, 0], 1.0)), [0.0, 0.0])

    def test_single_atom(self):
        mu = AtomicMeasure([[0.3, -0.2, 0.9]])
        assert np.allclose(center_of_mass(mu, Ball([0, 0, 0], 2.0)), [0.3, -0.2, 0.9])

    def test_weighted_mean(self):
        mu = AtomicMeasure([[0.0, 0.0], [1.0, 0.0]], [1.0, 3.0])
        assert np.allclose(center_of_mass(mu, Ball([0.5, 0], 2.0)), [0.75, 0.0])

    def test_empty_raises(self):
        mu = AtomicMeasure([[5.0, 5.0]])
        with pytest.raises(EmptySupportError):
            center_of_mass(mu, Ball([0, 0], 1.0))


class TestSpectrum:
    def test_two_atoms_closed_form(self):
        mu = AtomicMeasure([[0.5, 0.0], [-0.5, 0.0]])
        spec = second_moment_spectrum(mu, Ball([0, 0], 1.0))
        assert np.allclose(spec.eigenvalues, [0.5, 0.0], atol=1e-14)
        assert abs(spec.eigenvectors[0] @ [1, 0]) == pytest.approx(1.0)

    def test_isotropic_cross(self):
        mu = AtomicMeasure([[1, 0], [-1, 0], [0, 1], [0, -1]])
        spec = second_moment_spectrum(mu, Ball([0, 0], 1.5))
        assert np.allclose(spec.eigenvalues, [2.0, 2.0])

    def test_trace_identity(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(12, 4))
        w = rng.random(12)
        mu = AtomicMeasure(pts, w)
        spec = second_moment_spectrum(mu, Ball(np.zeros(4), 10.0))
        centered = pts - spec.x_cm
        trace = float(np.sum(w[:, None] * centered**2))
        assert spec.eigenvalues.sum() == pytest.approx(trace, rel=1e-10)

    def test_residual_vs_random_plane_oracle(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(10, 3))
        mu = AtomicMeasure(pts)
        ball = Ball(np.zeros(3), 20.0)
        spec = second_moment_spectrum(mu, ball)
        for k in (1, 2):
            oracle = random_plane_residual(pts, mu.weights, k, 3, 100_000, rng)
            assert spec.residual(k) <= oracle + 1e-9
            assert spec.residual(k) >= oracle - 0.3 * abs(oracle)  # probe sanity

    def test_euler_lagrange_residual(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(20, 5))
        w = rng.random(20)
        mu = AtomicMeasure(pts, w)
        spec = second_moment_spectrum(mu, Ball(np.zeros(5), 30.0))
        centered = pts - spec.x_cm
        M = (centered * w[:, None]).T @ centered
        norm = np.linalg.norm(M, 2)
        for lam, v in zip(spec.eigenvalues, spec.eigenvectors):
            assert np.linalg.norm(M @ v - lam * v) <= 1e-8 * norm
            # lambda_k = sum w <x - cm, v>^2
            assert lam == pytest.approx(float(w @ (centered @ v) ** 2), abs=1e-10 * max(1, norm))


class TestBestPlane:
    def test_atoms_on_axis(self):
        mu = AtomicMeasure([[x, 0.0] for x in np.linspace(-1, 1, 7)])
        plane = best_affine_plane(mu, Ball([0, 0], 2.0), 1)
        assert plane.distance([5.0, 0.0]) == pytest.approx(0.0, abs=1e-12)

    def test_full_dimension_zero_residual(self):
        rng = np.random.default_rng(4)
        mu = AtomicMeasure(rng.normal(size=(9, 3)))
        assert fitted_residual(mu, Ball(np.zeros(3), 10.0), 3) == pytest.approx(0.0, abs=1e-20)

    def test_rectangle_oracle(self):
        # 4 atoms (+-1, +-h): best line is the x-axis, residual 4h^2.
        # Oracle: grid search over line angle through the centroid.
        h = 0.1
        pts = np.array([[1, h], [1, -h], [-1, h], [-1, -h]], dtype=float)
        mu = AtomicMeasure(pts)
        angles = np.linspace(0, np.pi, 200001)
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        resid = ((pts @ dirs.T) ** 2).sum(axis=0)  # |p|^2 - proj^2 summed
        total = (pts**2).sum()
        oracle = float((total - resid).min())
        assert oracle == pytest.approx(4 * h * h, rel=1e-6)
        got = fitted_residual(mu, Ball([0, 0], 3.0), 1)
        assert got == pytest.approx(4 * h * h, rel=1e-12)
        plane = best_affine_plane(mu, Ball([0, 0], 3.0), 1)
        assert plane.distance([2.0, 0.0]) == pytest.approx(0.0, abs=1e-12)


class TestDisplacement:
    def test_zero_on_plane(self):
        rng = np.random.default_rng(5)
        coords = rng.normal(size=(30, 2))
        plane = AffinePlane.coordinate(4, [0, 2], base=[0.0, 1.0, 0.0, -1.0])
        mu = AtomicMeasure(plane.point_at(coords))
        cfg = DisplacementConfig.default(2)
        for _ in range(5):
            x = plane.point_at(rng.normal(size=2))
            assert displacement(mu, x, rng.random() + 0.5, 2, cfg) == pytest.approx(0.0, abs=1e-18)

    def test_strict_preset_paper_value(self):
        cfg = DisplacementConfig.strict(2, 1)
        assert cfg.eps_mass == pytest.approx(2000.0 ** (-28), rel=1e-12)

    @pytest.mark.parametrize("field", ["eps_mass", "gamma_good", "rho", "delta"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_coefficient_rejected(self, field, value):
        args = {"eps_mass": 1e-3, "gamma_good": 0.5, "rho": 0.5, "delta": 0.1, field: value}
        with pytest.raises(ValueError, match="finite"):
            DisplacementConfig(**args)

    def test_rectangle_value(self):
        # 4 unit atoms at (+-1/2, +-h) in B_1(0): D = 1^{-3} * 4h^2
        h = 0.05
        mu = AtomicMeasure([[0.5, h], [0.5, -h], [-0.5, h], [-0.5, -h]])
        cfg = DisplacementConfig.default(1)
        assert mu.mass_in_ball(Ball([0, 0], 1.0)) >= cfg.eps_mass
        got = displacement(mu, [0.0, 0.0], 1.0, 1, cfg)
        assert got == pytest.approx(4 * h * h, rel=1e-12)

    def test_mass_cutoff_gives_zero(self):
        mu = AtomicMeasure([[0.0, 0.3]], [1e-9])
        cfg = DisplacementConfig.default(1)
        assert displacement(mu, [0.0, 0.0], 1.0, 1, cfg) == 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        cfg = DisplacementConfig.default(1)
        for _ in range(20):
            pts = rng.normal(size=(25, 3)) * 0.3
            w = rng.random(25) + 0.1
            mu = AtomicMeasure(pts, w)
            x = rng.normal(size=3) * 0.1
            r = rng.random() * 0.8 + 0.2
            d1 = displacement(mu, x, r, 1, cfg)
            d2 = displacement(mu.translate_scale(x, r, 1), np.zeros(3), 1.0, 1, cfg)
            assert d2 == pytest.approx(d1, rel=1e-8, abs=1e-15)

    def test_deletion_monotonicity(self):
        rng = np.random.default_rng(7)
        cfg = DisplacementConfig(eps_mass=0.0, gamma_good=1.0)  # cutoff disabled
        for _ in range(20):
            pts = rng.normal(size=(30, 2))
            mu = AtomicMeasure(pts)
            keep = rng.random(30) > 0.3
            if keep.sum() == 0:
                continue
            sub = mu.subset(np.flatnonzero(keep))
            d_full = displacement(mu, np.zeros(2), 2.0, 1, cfg)
            d_sub = displacement(sub, np.zeros(2), 2.0, 1, cfg)
            assert d_sub <= d_full + 1e-12 * max(1.0, d_full)

    def test_doubling_bound(self):
        # if mu(B_r(x)) >= 2^k eps r^k then
        # D(x,r) <= 2^{k+2} avg_{B_r(x)} D(y, 2r) dmu
        rng = np.random.default_rng(8)
        cfg = DisplacementConfig.default(1)
        k = 1
        checked = 0
        for _ in range(60):
            pts = rng.normal(size=(25, 2)) * 0.5
            mu = AtomicMeasure(pts, rng.random(25) + 0.2)
            x = rng.normal(size=2) * 0.2
            r = rng.random() * 0.5 + 0.3
            idx = mu.indices_in_ball(Ball(x, r))
            mass = mu.weights[idx].sum()
            if mass < 2**k * cfg.eps_mass * r**k or len(idx) == 0:
                continue
            lhs = displacement(mu, x, r, k, cfg)
            vals = np.array([displacement(mu, y, 2 * r, k, cfg) for y in mu.positions[idx]])
            rhs = 2 ** (k + 2) * float(np.dot(mu.weights[idx], vals)) / mass
            assert lhs <= rhs + 1e-12
            checked += 1
        assert checked >= 30


    def test_exact_translation_invariance(self):
        # coordinates on the dyadic grid 2^-20 Z, so mu + t is an exact
        # translate for dyadic shifts with |t| <= 2^23
        rng = np.random.default_rng(12)
        x = rng.uniform(-0.5, 0.5, 4600)
        y = 1e-3 * rng.normal(size=4600)
        pts = np.round(np.stack([x, y], axis=1) * 2.0**20) / 2.0**20
        mu = AtomicMeasure(pts)
        cfg = DisplacementConfig.default(1)
        centers = pts[:8]
        base = displacement_profile_many(mu, centers, 2.0, 1, cfg)
        assert base.min() > 0.0
        for t in ([2.0**23, -2.0**22], [1e5, 0.0], [-3.0 * 2**20, 7.5]):
            t = np.array(t)
            shifted = AtomicMeasure(pts + t)
            assert np.array_equal(displacement_profile_many(shifted, centers + t, 2.0, 1, cfg), base)
            assert displacement(shifted, centers[0] + t, 2.0, 1, cfg) == base[0]

    def test_batch_spectra_equal_one_ball_spectra(self):
        # one batch holding an empty ball gives, ball by ball, the bits of
        # the one-ball path; the empty ball has mass 0 in the batch and
        # raises on its own
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(300, 3))
        mu = AtomicMeasure(pts, rng.random(300) + 0.1)
        centers = np.vstack([pts[:6], [[50.0, 50.0, 50.0]], pts[6:9]])
        counts, spectra = second_moment_spectra(mu, centers, 0.8)
        assert counts[6] == 0 and spectra[6].mass == 0.0
        for i, (c, spec) in enumerate(zip(centers, spectra)):
            ball = Ball(c, 0.8)
            assert counts[i] == len(mu.indices_in_ball(ball))
            if i == 6:
                with pytest.raises(EmptySupportError):
                    second_moment_spectrum(mu, ball)
                continue
            one = second_moment_spectrum(mu, ball)
            assert one.mass == spec.mass
            for name in ("x_cm", "eigenvalues", "eigenvectors"):
                assert np.array_equal(getattr(one, name), getattr(spec, name))

    @pytest.mark.parametrize("count, r", [(30, 0.5), (3000, 0.25)])
    def test_atom_permutation_and_rotation_invariance(self, count, r):
        # D, the second-moment spectra and the dyadic sums of a noisy arc:
        # permuting the atoms moves them by at most 1e-14 relative, and a
        # rotation about the origin (offset 0) by at most 1e-12
        rng = np.random.default_rng(count)
        t = rng.uniform(-1.0, 1.0, count)
        pts = np.stack([t, 0.3 * t**2, np.zeros(count)], axis=1)
        pts += 0.05 * rng.normal(size=(count, 3))
        w = rng.random(count) + 0.1
        cfg = DisplacementConfig.default(1)

        def quantities(points, weights, centers):
            mu = AtomicMeasure(points, weights)
            _, spectra = second_moment_spectra(mu, centers, r)
            return [displacement_profile_many(mu, centers, r, 1, cfg),
                    np.array([s.eigenvalues for s in spectra]),
                    dyadic_displacement_sums(mu, centers, r, 1, cfg)]

        centers = pts[:20]
        base = quantities(pts, w, centers)
        assert all(np.count_nonzero(q) >= 20 for q in base)
        perm = rng.permutation(count)
        Q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        for moved, rtol in [(quantities(pts[perm], w[perm], centers), 1e-14),
                            (quantities(pts @ Q.T, w, centers @ Q.T), 1e-12)]:
            for got, want in zip(moved, base):
                np.testing.assert_allclose(got, want, rtol=rtol, atol=0.0)

    @pytest.mark.parametrize("count", [200, 1200])
    def test_one_ball_equals_batch_at_boundary_radii(self, count):
        # radius = computed distance to another atom puts that atom on the
        # boundary, where two different closed-ball predicates disagree
        rng = np.random.default_rng(count)
        pts = rng.normal(size=(count, 2)) * 0.5
        mu = AtomicMeasure(pts, rng.random(count) + 0.1)
        cfg = DisplacementConfig.default(1)
        ci = rng.integers(0, count, 40)
        other = (ci + 1 + rng.integers(0, count - 1, 40)) % count
        centers = pts[ci]
        radii = np.linalg.norm(pts[other] - centers, axis=1)
        for i, r in enumerate(radii):
            assert mu.mass_in_ball(Ball(centers[i], r)) == ball_masses_many(mu, centers, r)[i]
            assert displacement(mu, centers[i], r, 1, cfg) == \
                displacement_profile_many(mu, centers, r, 1, cfg)[i]


class TestItemKernel:
    """Ball moments from kd-node aggregates against the atom-only oracle."""

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_item_atoms_are_the_neighbourhoods_at_boundary_radii(self, n, scale, offset):
        # radius = a computed distance to another atom puts that atom on the
        # boundary, where the tree's predicate decides
        rng = np.random.default_rng(n)
        pts = rng.normal(size=(900, n)) * scale + offset
        index = SpatialIndex(pts)
        ci, other = rng.integers(0, 900, 60), rng.integers(0, 900, 60)
        centers = pts[ci]
        centers[1::2] += rng.normal(size=(30, n)) * 0.01 * scale
        for c, o in zip(centers, other):
            for r in (np.linalg.norm(pts[o] - c), np.sqrt(np.sum((pts[o] - c) ** 2))):
                if r == 0.0:
                    continue
                (got,) = ball_atoms(index, c[None, :], r)
                assert np.array_equal(got, index.neighborhoods(c, r)[1])

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_moments_match_the_atom_kernel(self, n):
        rng = np.random.default_rng(20 + n)
        pts = rng.normal(size=(1500, n))
        pts[:, -1] *= 1e-2  # a flat cloud: small trailing eigenvalues
        pts[:, 0] += 1e6
        mu = AtomicMeasure(pts, rng.random(1500) + 0.1)
        centers = pts[rng.integers(0, 1500, 80)]
        seen = set()
        for r in (0.05, 0.3, 1.0, 4.0, 100.0):
            counts, masses, x_cm, mats = item_kernel(mu, centers, r)
            ref = atom_kernel(mu, centers, r)
            assert np.array_equal(counts, ref[0])
            whole = absorbs_a_node(mu._index, centers, r)
            for i in range(len(centers)):
                if whole[i]:
                    assert masses[i] == pytest.approx(ref[1][i], rel=1e-12)
                    assert np.linalg.norm((x_cm - ref[2])[i]) <= 1e-12 * r
                    assert np.linalg.norm(mats[i] - ref[3][i]) <= 1e-12 * np.linalg.norm(ref[3][i])
                else:
                    assert masses[i] == ref[1][i]
                    assert np.array_equal(x_cm[i], ref[2][i])
                    assert np.array_equal(mats[i], ref[3][i])
            seen.update(whole.tolist())
        assert seen == {False, True}  # both kinds of ball were compared

    def test_zero_weight_nodes(self):
        rng = np.random.default_rng(31)
        pts = rng.normal(size=(600, 2))
        w = np.where(pts[:, 0] < 0.0, 0.0, rng.random(600) + 0.1)
        mu = AtomicMeasure(pts, w)
        offset, scatter = mu.item_moments()
        nodes = mu._index.item_tree().nodes
        massless = mu._index.item_tree().totals(mu.weights)[:nodes] == 0.0
        assert massless.any()
        assert not np.isnan(offset).any() and not np.isnan(scatter).any()
        assert np.all(offset[:nodes][massless] == 0.0)
        centers = np.vstack([pts[:40], [[-3.0, 0.0]]])
        for r in (0.2, 1.0, 5.0):
            counts, masses, x_cm, mats = item_kernel(mu, centers, r)
            ref = atom_kernel(mu, centers, r)
            assert np.array_equal(counts, ref[0])
            assert np.allclose(masses, ref[1], rtol=1e-12, atol=0.0)
            assert np.allclose(x_cm, ref[2], rtol=0.0, atol=1e-12 * r)
            assert np.allclose(mats, ref[3], rtol=0.0, atol=1e-12 * np.abs(ref[3]).max())

    def test_duplicate_atoms(self):
        # 300 copies of one point make a leaf no split can divide
        rng = np.random.default_rng(32)
        pts = np.vstack([np.full((300, 3), 0.25), rng.normal(size=(200, 3))])
        mu = AtomicMeasure(pts, rng.random(500) + 0.1)
        centers = np.vstack([[[0.25, 0.25, 0.25]], pts[300:320]])
        for r in (1e-9, 0.5, 2.0, 10.0):
            counts, masses, x_cm, mats = item_kernel(mu, centers, r)
            ref = atom_kernel(mu, centers, r)
            assert np.array_equal(counts, ref[0])
            assert np.allclose(masses, ref[1], rtol=1e-12, atol=0.0)
            assert np.allclose(x_cm, ref[2], rtol=0.0, atol=1e-12 * r)
            assert np.allclose(mats, ref[3], rtol=0.0, atol=1e-12 * max(np.abs(ref[3]).max(), r * r))
        assert counts[0] >= 300

    def test_one_atom_and_empty_ball(self):
        mu = AtomicMeasure([[0.5, -2.0]], [3.0])
        centers = np.array([[0.5, -2.0], [0.0, 0.0], [40.0, 40.0]])
        counts, masses, x_cm, mats = item_kernel(mu, centers, 1.0)
        assert counts.tolist() == [1, 0, 0] and masses.tolist() == [3.0, 0.0, 0.0]
        assert np.array_equal(x_cm, [[0.5, -2.0], [0.0, 0.0], [40.0, 40.0]])
        assert not mats.any()
        empty = AtomicMeasure(np.zeros((0, 2)), np.zeros(0))
        assert ball_masses_many(empty, centers, 1.0).tolist() == [0.0, 0.0, 0.0]
        assert empty.mass_in_ball(Ball([0.0, 0.0], 1.0)) == 0.0

    def test_two_columns_sum_as_two_measures(self):
        # one walk over two per-atom columns gives, column by column, the
        # bits of the masses of two separately built measures
        rng = np.random.default_rng(33)
        pts = rng.normal(size=(400, 2))
        w = rng.random((400, 2))
        mu = AtomicMeasure(pts)
        centers = np.vstack([pts, rng.normal(size=(20, 2))])
        for r in (0.1, 0.7, 3.0):
            got = ball_sums_many(mu, centers, mu._index.ball_items(centers, r), w)
            assert got.shape == (420, 2)
            for j in range(2):
                want = ball_masses_many(AtomicMeasure(pts, w[:, j]), centers, r)
                assert np.array_equal(got[:, j], want)
        assert absorbs_a_node(mu._index, centers, 3.0).any()


class TestDyadicProfile:
    def test_collinear_all_zero(self):
        mu = AtomicMeasure([[x, 0.0] for x in np.linspace(-1, 1, 40)])
        cfg = DisplacementConfig.default(1)
        prof = dyadic_profile(mu, [0.0, 0.0], 1, 0, 6, cfg)
        assert np.allclose(prof.displacements, 0.0, atol=1e-18)
        assert np.all(np.diff(prof.scales) < 0)

    def test_circle_matches_arc_fit(self):
        # On the unit circle the best-line fit of the arc in B_r(x) has a
        # closed-form residual; D(x, r) ~ 0.0444 r^2 for small r.  Oracle:
        # dense deterministic arc fit per scale.
        theta = np.linspace(0, 2 * np.pi, 12000, endpoint=False)
        pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        w = np.full(len(theta), 2 * np.pi / len(theta))
        mu = AtomicMeasure(pts, w)
        cfg = DisplacementConfig.default(1)
        x = np.array([1.0, 0.0])
        prof = dyadic_profile(mu, x, 1, 2, 5, cfg)
        for r, d in zip(prof.scales, prof.displacements):
            phi = 2 * np.arcsin(min(1.0, r / 2))
            tt = np.linspace(-phi, phi, 20001)
            arc = np.stack([np.cos(tt), np.sin(tt)], axis=1)
            ww = np.full(len(tt), tt[1] - tt[0])
            inside = np.linalg.norm(arc - x, axis=1) <= r
            arc, ww = arc[inside], ww[inside]
            cm = (arc * ww[:, None]).sum(0) / ww.sum()
            M = ((arc - cm) * ww[:, None]).T @ (arc - cm)
            oracle = np.linalg.eigvalsh(M)[0] * r**-3
            assert d == pytest.approx(oracle, rel=0.04)
            assert d == pytest.approx(0.0444 * r**2, rel=0.1)

    def test_one_walk_per_scale(self, monkeypatch):
        # displacements and masses of a scale come from one kernel pass,
        # and the masses are the bits of ball_masses_many
        rng = np.random.default_rng(12)
        pts = rng.normal(size=(500, 3)) * [1.0, 1.0, 0.05]
        mu = AtomicMeasure(pts, rng.random(500) + 0.1)
        centers = np.vstack([pts[::7], rng.normal(size=(5, 3))])
        cfg = DisplacementConfig.default(2)
        walks = []
        walk = SpatialIndex.ball_items

        def counting(self, centers, radius):
            walks.append(radius)
            return walk(self, centers, radius)

        monkeypatch.setattr(SpatialIndex, "ball_items", counting)
        profiles = dyadic_profiles(mu, centers, 2, -1, 5, cfg)
        assert walks == list(profiles[0].scales)
        masses = np.array([prof.masses for prof in profiles])
        for a, r in enumerate(profiles[0].scales):
            assert np.array_equal(masses[:, a], ball_masses_many(mu, centers, r))
            assert np.array_equal([prof.displacements[a] for prof in profiles],
                                  displacement_profile_many(mu, centers, r, 2, cfg))

    def test_profile_doubling_control(self):
        # coarser-scale control: D(x, r) <= 2^{k+2} mean over B_r(x) of D(., 2r)
        rng = np.random.default_rng(9)
        cfg = DisplacementConfig.default(1)
        pts = rng.normal(size=(60, 2)) * 0.4
        mu = AtomicMeasure(pts)
        x = np.zeros(2)
        r = 0.5
        idx = mu.indices_in_ball(Ball(x, r))
        mass = mu.weights[idx].sum()
        assert mass >= 2 * cfg.eps_mass * r
        lhs = displacement(mu, x, r, 1, cfg)
        vals = np.array([displacement(mu, y, 2 * r, 1, cfg) for y in mu.positions[idx]])
        rhs = 2**3 * float(np.dot(mu.weights[idx], vals)) / mass
        assert lhs <= rhs + 1e-12


class TestSummability:
    def test_planar_holds_zero(self):
        mu = AtomicMeasure([[x, 0.0, 0.0] for x in np.linspace(-1, 1, 50)])
        cfg = DisplacementConfig.default(1)
        holds, value = summability_check(mu, Ball(np.zeros(3), 1.0), 1, cfg)
        assert holds and value == pytest.approx(0.0, abs=1e-18)

    def test_circle_against_double_sum_oracle(self):
        # 601 atoms: coprime to 6 so no atom sits exactly on a dyadic radius
        theta = np.linspace(0, 2 * np.pi, 601, endpoint=False)
        pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        w = np.full(len(theta), 2 * np.pi / len(theta))
        mu = AtomicMeasure(pts, w)
        cfg = DisplacementConfig.default(1, delta=0.1)
        ball = Ball(np.zeros(2), 1.0001)
        holds, value = summability_check(mu, ball, 1, cfg)

        # independent double loop re-implementation over the ball's own
        # ladder s = 2r 2^-alpha
        oracle = 0.0
        for alpha in range(41):
            s = 2.0 * ball.radius * 2.0**-alpha
            counts = []
            contrib = 0.0
            for p, wj in zip(pts, w):
                d = np.linalg.norm(pts - p, axis=1)
                sel = d <= s
                counts.append(sel.sum())
                mass = w[sel].sum()
                if mass < cfg.eps_mass * s:
                    continue
                sub = pts[sel]
                cm = (sub * w[sel, None]).sum(0) / mass
                M = ((sub - cm) * w[sel, None]).T @ (sub - cm)
                contrib += wj * np.linalg.eigvalsh(M)[0] * s**-3
            oracle += contrib
            if max(counts) <= 2:
                break
        oracle *= ball.radius ** -1  # r^-k normalization, k = 1
        assert value == pytest.approx(oracle, rel=1e-9)
        assert holds == (value < cfg.delta**2)

    @pytest.mark.parametrize("lam", [0.7, 1.5, 2.0, 3.0])
    def test_rescaling_invariance(self, lam):
        # positions by lam and weights by lam^k: the ladder 2r 2^-alpha is
        # the ball's own, so only rounding moves the value
        mu = circle_cloud(count=800, noise=2e-2, seed=0)
        cfg = DisplacementConfig.default(1)
        holds, want = summability_check(mu, Ball(np.zeros(2), 1.1), 1, cfg)
        scaled = AtomicMeasure(mu.positions * lam, mu.weights * lam)
        got = summability_check(scaled, Ball(np.zeros(2), 1.1 * lam), 1, cfg)
        assert got[0] is holds
        assert got[1] == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_truncation_reads_the_centers_own_balls(self):
        # every atom's ball of radius 1/2 holds one atom, but the ball around
        # the midpoint still holds both, so D(c, 1/2) = 1.62 must be summed
        mu = AtomicMeasure([[0.0, 0.0], [0.9, 0.0]])
        cfg = DisplacementConfig(eps_mass=0.0, gamma_good=1.0)
        sums = dyadic_displacement_sums(mu, [[0.45, 0.0]], 1.0, 0, cfg)
        assert sums.shape == (3, 1)
        assert sums[:, 0] == pytest.approx([2.025, 1.62, 0.0], rel=1e-12)

    def test_staircase_fails_for_small_delta(self):
        from msgeom.fixtures import koch_polyline_measure

        mu = koch_polyline_measure(levels=4, samples_per_edge=3)
        cfg = DisplacementConfig.default(1, delta=0.02)
        ball = mu.bounding_ball()
        holds, value = summability_check(mu, ball, 1, cfg)
        assert not holds
        assert value > cfg.delta**2


class TestEffectiveSpanning:
    def test_simplex_vertices(self):
        k = 3
        pts = np.vstack([np.zeros(k), np.eye(k)])
        mu = AtomicMeasure(pts)
        got = effective_spanning_points(mu, Ball(np.full(k, 0.25), 3.0), k, 0.5)
        assert got is not None and len(got) == k + 1

    def test_thin_slab_returns_none(self):
        rng = np.random.default_rng(10)
        alpha = 0.4
        pts = rng.uniform(-1, 1, size=(200, 2))
        pts[:, 1] *= alpha / 2  # within alpha/2 of the x-axis (a 1-plane)
        mu = AtomicMeasure(pts)
        got = effective_spanning_points(mu, Ball(np.zeros(2), 2.0), 2, alpha)
        assert got is None

    def test_disk_samples_span_disk_plane(self):
        rng = np.random.default_rng(11)
        raw = rng.normal(size=(1000, 2))
        radii = np.sqrt(rng.random(1000))
        coords = raw / np.linalg.norm(raw, axis=1, keepdims=True) * radii[:, None]
        pts = np.stack([coords[:, 0], coords[:, 1], np.zeros(1000)], axis=1)
        mu = AtomicMeasure(pts)
        got = effective_spanning_points(mu, Ball(np.zeros(3), 1.0), 2, 0.2)
        assert got is not None
        p0, p1, p2 = got
        from msgeom.geometry import grassmann_distance as dg

        hull = AffinePlane.from_spanning(np.zeros(3), [p1 - p0, p2 - p0])
        disk = AffinePlane.coordinate(3, [0, 1])
        assert dg(hull, disk) <= 0.05
