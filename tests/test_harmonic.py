import tracemalloc

import numpy as np
import pytest
from scipy.special import gamma, ndtri, roots_legendre

from msgeom import harmonic
from msgeom.errors import EnergyInfiniteError
from msgeom.geometry import AtomicMeasure, Ball
from msgeom.harmonic import (
    EnergyPoint,
    _sphere_rule,
    best_approx_check,
    energy_drop,
    energy_point,
    grassmann_candidates,
    k_symmetric_cone,
    linear_field,
    quantitative_stratum,
    radial_projection,
    regularity_scale,
    smooth_wave,
    smoothed_projection,
    symmetry_distance,
    theta,
    translation_invariant,
)

EIGHT_PI = 8.0 * np.pi

# one of each field builder, with the cones in every tested dimension
FIELD_MAKERS = {
    "radial_projection(2)": lambda: radial_projection(2),
    "radial_projection(3)": lambda: radial_projection(3),
    "radial_projection(4)": lambda: radial_projection(4),
    "smoothed_projection": lambda: smoothed_projection(3, core=0.3),
    "linear_field": lambda: linear_field(np.array([[1.0, 2.0, 0.0], [0.0, 1.0, -1.0]])),
    "smooth_wave": lambda: smooth_wave(3, freq=1.7),
    "k_symmetric_cone(3, 1)": lambda: k_symmetric_cone(3, 1),
    "k_symmetric_cone(4, 2)": lambda: k_symmetric_cone(4, 2),
    "translation_invariant": lambda: translation_invariant(4, 1),
}


def radial_theta_oracle(d, r):
    """1-d reduction of theta for x/|x| in R^3 via spherical shells about 0."""
    from scipy.integrate import quad

    def area(s):
        if d < 1e-15:
            return 4 * np.pi * s * s if s <= r else 0.0
        if s <= r - d:
            return 4 * np.pi * s * s
        if s >= r + d or s <= d - r:
            return 0.0
        cosa = (s * s + d * d - r * r) / (2 * s * d)
        return 2 * np.pi * s * s * (1.0 - cosa)

    val, _ = quad(lambda s: 2.0 / s**2 * area(s), max(1e-14, d - r), d + r, limit=800)
    return val / r


def theta_radial(d, r):
    """Closed form of theta_r(x) for x/|x| in R^3 at |x| = d > 0: the
    density 2/|y|^2 integrated over the spheres about 0 met by the ball."""
    def antiderivative(s):
        return 2 * np.pi / d * ((r * r - d * d) * np.log(s) + 2 * d * s - 0.5 * s * s)

    return (8 * np.pi * max(r - d, 0.0)
            + antiderivative(d + r) - antiderivative(abs(d - r))) / r


def cap_shell_oracle(n, d, r):
    """theta_r(x) of x/|x| in R^n at |x| = d by shells about 0: the shell of
    radius s carries (n-1) s^(n-3) |S^(n-2)| int_{z*(s)}^1 (1-z^2)^((n-3)/2) dz
    with z*(s) = (s^2 + d^2 - r^2) / (2 s d) clipped to [-1, 1]; the inner
    integral is taken in the angle, z = cos(phi), where it is smooth."""
    from scipy.integrate import quad

    sphere = 2 * np.pi ** ((n - 1) / 2) / gamma((n - 1) / 2)

    def cap(s):
        zstar = min(max((s * s + d * d - r * r) / (2 * s * d), -1.0), 1.0)
        return quad(lambda phi: np.sin(phi) ** (n - 2), 0.0, np.arccos(zstar))[0]

    val, _ = quad(lambda s: (n - 1) * s ** (n - 3) * sphere * cap(s),
                  max(d - r, 0.0), d + r, points=[abs(d - r)], limit=200)
    return val * r ** (2 - n)


class TestFields:
    @pytest.mark.parametrize("make", [radial_projection, lambda: k_symmetric_cone(4, 1)])
    def test_sphere_valued_unit_norm(self, make):
        field = make()
        rng = np.random.default_rng(0)
        X = rng.normal(size=(50, field.n))
        assert np.allclose(np.linalg.norm(field(X), axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize(
        "make",
        [radial_projection, smoothed_projection, lambda: linear_field(np.eye(3)),
         smooth_wave, lambda: k_symmetric_cone(3, 1), lambda: translation_invariant(3, 1)],
    )
    def test_gradient_matches_finite_differences(self, make):
        field = make()
        rng = np.random.default_rng(1)
        h = 1e-6
        checked = 0
        while checked < 20:
            x = rng.normal(size=field.n)
            if field.singular_distance(x)[0] < 0.2:
                continue
            G = field.gradient(x[None, :])[0]
            for j in range(field.n):
                e = np.zeros(field.n)
                e[j] = h
                fd = (field(x + e)[0] - field(x - e)[0]) / (2 * h)
                assert np.allclose(G[:, j], fd, rtol=1e-5, atol=1e-7)
            checked += 1


class TestEnergyDensity:
    @pytest.mark.parametrize("name", sorted(FIELD_MAKERS))
    def test_density_matches_jacobian(self, name):
        field = FIELD_MAKERS[name]()
        rng = np.random.default_rng(11)
        X = rng.normal(size=(400, field.n))
        X = X[field.singular_distance(X) > 0.05][:200]
        assert X.shape[0] == 200
        G = field.gradient(X)
        want = np.einsum("qmi,qmi->q", G, G)
        np.testing.assert_allclose(field.grad_sq(X), want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("name", [n for n in sorted(FIELD_MAKERS)
                                      if "radial" in n or "cone" in n])
    def test_density_zero_on_singular_set(self, name):
        field = FIELD_MAKERS[name]()
        plane = field.singular
        t = np.random.default_rng(12).normal(size=(5, plane.k))
        X = plane.base + t @ plane.directions
        assert np.all(field.singular_distance(X) == 0.0)
        assert np.all(field.grad_sq(X) == 0.0)
        # the Jacobian path gives the same 0
        G = field.gradient(X)
        assert np.all(np.einsum("qmi,qmi->q", G, G) == 0.0)


    def test_quadrature_never_builds_a_jacobian(self):
        def no_jacobian(X):
            raise AssertionError("a quadrature asked for the Jacobian")

        # the plain shell path, the cap-shell path for n = 3 and n = 2, and
        # the sampled gradient sup of the regularity scale
        for field, x, r in [(radial_projection(3), np.zeros(3), 0.5),
                            (radial_projection(3), np.array([0.3, 0.0, 0.0]), 0.5),
                            (radial_projection(2), np.array([0.6, 0.0]), 0.5),
                            (k_symmetric_cone(3, 1), np.array([0.0, 0.4, 0.3]), 0.2)]:
            field.grad = no_jacobian
            assert theta(field, x, r) > 0.0
            assert regularity_scale(field, x) >= 0.0


class TestCapShells:
    # off-centre balls of x/|x| with 0 < d <= 1.5 r take the shell path about
    # the singular point; for n = 2 the ball must miss 0 (r < d)
    @pytest.mark.parametrize("n, d, r, pinned", [
        (2, 0.6, 0.5, 3.7261299395313476),
        (2, 0.7, 0.5, 2.2432066118822824),
        (2, 0.35, 0.3, 4.169887116288396),
        (3, 0.3, 0.5, 21.856350366585534),
        (3, 0.6, 0.5, 7.0429950054829495),
        (4, 0.3, 0.5, 24.279984719995007),
        (4, 0.6, 0.5, 10.281218038793533),
        (4, 0.2, 1.0, 29.018125173333043),
    ])
    def test_radial_theta_matches_shell_oracle(self, n, d, r, pinned):
        u = np.arange(1.0, n + 1.0)
        x = d * u / np.linalg.norm(u)
        got = theta(radial_projection(n), x, r)
        assert got == pytest.approx(pinned, rel=1e-12)
        assert got == pytest.approx(cap_shell_oracle(n, d, r), rel=5e-4)


class TestPointSingularity:
    """A point singularity is the singular plane with k = 0, so x/|x| built
    as radial_projection(n) and as k_symmetric_cone(n, 0) is one field."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_zero_symmetric_cone_is_radial_projection(self, n):
        cone, radial = k_symmetric_cone(n, 0), radial_projection(n)
        u = np.arange(1.0, n + 1.0) / np.linalg.norm(np.arange(1.0, n + 1.0))
        # cap-shell balls (d <= 1.5 r), a plain-shell ball (d > 1.5 r), and
        # for n >= 3 balls holding the singular point
        balls = [(0.6, 0.5), (1.2, 1.0), (0.35, 0.3), (2.0, 0.25)]
        if n >= 3:
            balls += [(0.0, 0.5), (0.3, 0.5), (0.9, 1.0)]
        for d, r in balls:
            x = d * u
            assert theta(cone, x, r) == theta(radial, x, r)
            assert regularity_scale(cone, x) == regularity_scale(radial, x)
        X = np.random.default_rng(21).normal(size=(50, n))
        assert np.array_equal(cone.singular_distance(X), radial.singular_distance(X))

    @pytest.mark.parametrize("d", [0.5, 0.9])
    def test_zero_symmetric_cone_matches_closed_form(self, d):
        x = np.array([d, 0.0, 0.0])
        assert theta(k_symmetric_cone(3, 0), x, 1.0) == pytest.approx(theta_radial(d, 1.0),
                                                                      rel=1e-4)


class TestTheta:
    @pytest.mark.parametrize("x, r", [
        ([0.5, 0.0, 0.0], np.nan),
        ([0.5, 0.0, 0.0], np.inf),
        ([np.nan, 0.0, 0.0], 0.5),
        ([0.5, np.inf, 0.0], 0.5),
        ([-np.inf, 0.0, 0.0], 0.5),
    ], ids=["r-nan", "r-inf", "x-nan", "x-inf", "x-minus-inf"])
    def test_non_finite_ball_is_rejected(self, x, r):
        with pytest.raises(ValueError):
            theta(radial_projection(3), x, r)

    def test_constant_field_zero(self):
        f = linear_field(np.zeros((2, 3)))
        assert theta(f, np.zeros(3), 0.7) == pytest.approx(0.0, abs=1e-14)

    def test_radial_projection_eight_pi(self):
        f = radial_projection(3)
        for r in (0.25, 0.5, 1.0):
            assert theta(f, np.zeros(3), r) == pytest.approx(EIGHT_PI, rel=1e-3)

    def test_linear_field_closed_form(self):
        A = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, -1.0]])
        f = linear_field(A)
        want = float((A**2).sum()) * (4 * np.pi / 3)
        assert theta(f, np.zeros(3), 1.0) == pytest.approx(want, rel=2e-4)

    def test_off_center_matches_oracle(self):
        f = radial_projection(3)
        for d, r in [(0.5, 0.3), (0.5, 0.8), (0.2, 1.0), (0.45, 0.5)]:
            got = theta(f, np.array([d, 0.0, 0.0]), r)
            assert got == pytest.approx(radial_theta_oracle(d, r), rel=5e-4)

    def test_energy_infinite_in_the_plane(self):
        f = radial_projection(2)
        with pytest.raises(EnergyInfiniteError):
            theta(f, np.zeros(2), 0.5)

    def test_monotone_in_radius(self):
        f = radial_projection(3)
        rng = np.random.default_rng(2)
        for _ in range(40):
            x = rng.normal(size=3) * 0.4
            s, r = np.sort(rng.random(2) * 0.7 + 0.05)
            if r - s < 1e-3:
                continue
            ts, tr = theta(f, x, s), theta(f, x, r)
            assert ts <= tr + 1e-4 * tr

    def test_homogeneous_scale_free_at_origin(self):
        cone = k_symmetric_cone(4, 1)
        vals = [theta(cone, np.zeros(4), r) for r in (0.25, 0.5, 1.0)]
        assert np.ptp(vals) <= 2e-3 * vals[0]

    def test_pure_function_of_its_arguments(self):
        # repr catches a mutated container as well as a rebound attribute
        f = radial_projection(3)
        before = {key: repr(value) for key, value in vars(f).items()}
        x = np.array([0.3, -0.1, 0.2])
        first, second = theta(f, x, 0.5), theta(f, x, 0.5)
        assert first.hex() == second.hex()
        assert {key: repr(value) for key, value in vars(f).items()} == before

    def test_memory_bounded_in_r4(self):
        # the finest level of an R^4 theta has millions of nodes; their
        # gradients are evaluated a block of panels at a time
        cone = k_symmetric_cone(4, 1)
        tracemalloc.start()
        try:
            theta(cone, np.zeros(4), 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 2**20


class TestEnergyDrop:
    def test_zero_at_cone_point(self):
        f = radial_projection(3)
        for s, r in [(0.1, 0.4), (0.25, 1.0)]:
            assert energy_drop(f, np.zeros(3), s, r) == pytest.approx(0.0, abs=1e-3)

    def test_constant_zero(self):
        f = linear_field(np.zeros((2, 3)))
        assert energy_drop(f, np.zeros(3), 0.1, 0.9) == 0.0

    def test_positive_off_center_with_integral_oracle(self):
        # W_{s,r} equals the scale integral of the boundary radial energy
        f = radial_projection(3)
        x = np.array([0.5, 0.0, 0.0])
        s, r = 0.1, 0.3  # annulus strictly inside the regular region
        W = energy_drop(f, x, s, r)
        assert W > 1e-3
        omega, w_ang = _sphere_rule(3, 24)
        zn, zw = roots_legendre(24)

        def boundary(t):
            pts = x[None, :] + t * omega
            G = f.gradient(pts)
            rad = np.einsum("qmi,qi->qm", G, omega)
            return 2.0 * t * float(w_ang @ (rad**2).sum(axis=1))

        ts = 0.5 * (s + r) + 0.5 * (r - s) * zn
        integral = 0.5 * (r - s) * float(zw @ np.array([boundary(t) for t in ts]))
        assert W == pytest.approx(integral, rel=0.01)

    def test_energy_point_evaluates_each_radius_once(self, monkeypatch):
        f = radial_projection(3)
        x = np.array([0.2, 0.1, -0.3])
        calls = []

        def counted(field, y, r, *args, **kwargs):
            calls.append(r)
            return theta(field, y, r, *args, **kwargs)

        monkeypatch.setattr(harmonic, "theta", counted)
        ep = energy_point(f, x, 1.0, alpha_range=(3, 6))
        assert sorted(calls) == [2.0**-a for a in range(6, -1, -1)]
        assert ep.theta == theta(f, x, 1.0)
        for a, w in ep.drops:
            assert w == theta(f, x, 2.0 ** (3 - a)) - theta(f, x, 2.0**-a)

    def test_energy_point_drops(self):
        f = radial_projection(3)
        ep = energy_point(f, np.zeros(3), 0.5, alpha_range=(3, 5))
        assert isinstance(ep, EnergyPoint)
        for _, w in ep.drops:
            assert abs(w) <= 1e-3  # theta is scale-free at the cone point


class TestSymmetryDistance:
    def test_radial_projection_zero_symmetric(self):
        f = radial_projection(3)
        res = symmetry_distance(f, Ball(np.zeros(3), 1.0), 0)
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_cone_matching_plane_zero(self):
        cone = k_symmetric_cone(3, 1)
        res = symmetry_distance(cone, Ball(np.zeros(3), 1.0), 1,
                                plane_candidates=[np.eye(3)[:1]])
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_cone_orthogonal_plane_positive(self):
        cone = k_symmetric_cone(3, 1)
        res = symmetry_distance(cone, Ball(np.zeros(3), 1.0), 1,
                                plane_candidates=[np.eye(3)[2:3]])
        assert res.value > 0.3

    def test_radial_projection_never_one_symmetric(self):
        f = radial_projection(3)
        cands = grassmann_candidates(3, 1, 200)
        res = symmetry_distance(f, Ball(np.zeros(3), 0.5), 1, plane_candidates=cands)
        assert res.value > 0.3  # analytic infimum is 1 - pi^2/16 ~ 0.383

    def test_small_balls_keep_their_competitors(self):
        # x/|x| is 0-homogeneous, so every ball about 0 has one value; the
        # perpendicular-part cut is relative to the radius
        cands = grassmann_candidates(3, 1, 32)
        values = [symmetry_distance(radial_projection(3), Ball(np.zeros(3), 2.0**-a), 1,
                                    plane_candidates=cands, bins=16).value for a in range(61)]
        assert values[0] == pytest.approx(0.38698, abs=1e-5)
        assert np.allclose(values, values[0], rtol=1e-12, atol=0.0)

    def test_smooth_field_small_ball_symmetric(self):
        f = smooth_wave(3)
        res = symmetry_distance(f, Ball(np.array([0.3, 0.1, 0.0]), 0.02), 1)
        assert res.value < 1e-3


class TestStratum:
    def test_smooth_field_empty(self):
        f = smooth_wave(3)
        mu = quantitative_stratum(f, 0, 0.05, 2.0**-4, grid_step=0.25, radius=0.75)
        assert mu.count == 0

    def test_radial_projection_concentrates_at_origin(self):
        f = radial_projection(3)
        r = 2.0**-6
        mu = quantitative_stratum(f, 0, 0.3, r, grid_step=2.0**-3, radius=0.5)
        assert mu.count >= 1
        assert np.all(np.linalg.norm(mu.positions, axis=1) <= 8 * r)

    def test_stratum_nesting(self):
        # S^0 samples are contained in S^1 samples (same epsilon, r, grid)
        f = radial_projection(3)
        kwargs = dict(grid_step=0.25, radius=0.5, plane_count=32)
        s0 = quantitative_stratum(f, 0, 0.25, 2.0**-5, **kwargs)
        s1 = quantitative_stratum(f, 1, 0.25, 2.0**-5, **kwargs)
        set1 = {tuple(np.round(p, 9)) for p in s1.positions}
        for p in s0.positions:
            assert tuple(np.round(p, 9)) in set1

    @pytest.mark.parametrize("r", [0.0, -0.25])
    def test_scale_must_be_positive(self, r):
        # r = 0 used to test one scale of 1.5e-300, where every symmetry
        # distance is NaN and every grid point joined the stratum
        with pytest.raises(ValueError, match="r > 0"):
            quantitative_stratum(radial_projection(3), 0, 0.3, r, grid_step=0.5)

    @pytest.mark.parametrize("r", [2.0**-61, 1e-110, 1e-200, float("nan")])
    def test_scale_below_the_deepest_rung(self, r):
        # from about 1e-110 down the ball-rule weights underflow into NaN
        with pytest.raises(ValueError, match=r"r >= 2\*\*-60"):
            quantitative_stratum(radial_projection(3), 0, 0.3, r, grid_step=0.5)


def reference_stratum(field, k, epsilon, r, grid_step, center=None, radius=1.0,
                      plane_count=48, bins=16):
    """The per-point loop the batched stratum replaced: one symmetry_distance
    per (grid point, rung), finest rung first, until a ball is
    epsilon-symmetric."""
    n = field.n
    center = np.zeros(n) if center is None else np.asarray(center, dtype=float)
    axis = np.arange(-radius, radius + grid_step * 0.5, grid_step)
    pts = np.stack([m.ravel() for m in np.meshgrid(*[axis] * n, indexing="ij")], axis=1) + center
    pts = pts[np.linalg.norm(pts - center, axis=1) <= radius]
    candidates = grassmann_candidates(n, k + 1, plane_count) if k + 1 < n else None
    members = [p for p in pts if not any(
        symmetry_distance(field, Ball(p, s), k + 1, plane_candidates=candidates, bins=bins,
                          stop_below=epsilon).value < epsilon
        for s in harmonic._dyadic_scales_in(r, radius))]
    return np.array(members).reshape(-1, n)


class TestBatchedStratum:
    # (field, k, epsilon, r, options); each splits its grid into members and
    # non-members and sends balls on to the candidate planes
    CASES = {
        "radial_projection(2)": (lambda: radial_projection(2), 0, 0.1, 0.25,
                                 dict(grid_step=0.125, plane_count=8)),
        "radial_projection(3)": (lambda: radial_projection(3), 0, 0.1, 0.25,
                                 dict(grid_step=0.5, plane_count=8)),
        "radial_projection(3), fine": (lambda: radial_projection(3), 0, 0.3, 2.0**-4,
                                       dict(grid_step=0.25, plane_count=8)),
        "smoothed_projection(3)": (lambda: smoothed_projection(3), 0, 0.1, 0.25,
                                   dict(grid_step=0.5, plane_count=8)),
        "smooth_wave(3), k=1": (lambda: smooth_wave(3), 1, 0.01, 0.25,
                                dict(grid_step=0.5, plane_count=8)),
        "k_symmetric_cone(3, 1), k=0": (lambda: k_symmetric_cone(3, 1), 0, 0.1, 0.25,
                                        dict(grid_step=0.5, plane_count=8)),
        "k_symmetric_cone(3, 1), k=1": (lambda: k_symmetric_cone(3, 1), 1, 0.1, 0.25,
                                        dict(grid_step=0.5, plane_count=8)),
        "k_symmetric_cone(3, 1), center": (lambda: k_symmetric_cone(3, 1), 1, 0.1, 0.25,
                                           dict(grid_step=0.25, center=[0.125, 0.0, 0.0],
                                                radius=0.5, plane_count=8)),
        "radial_projection(3), center": (lambda: radial_projection(3), 0, 0.1, 0.25,
                                         dict(grid_step=0.5, center=[0.05, -0.1, 0.0],
                                              plane_count=8)),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_same_points_as_the_per_point_loop(self, case):
        make, k, epsilon, r, options = self.CASES[case]
        batched = quantitative_stratum(make(), k, epsilon, r, **options)
        reference = reference_stratum(make(), k, epsilon, r, **options)
        assert batched.count > 0
        assert np.array_equal(batched.positions, reference)

    @pytest.mark.parametrize("fine", [2.0**-6, 2.0**-50])
    def test_kept_frame_tables_change_only_the_work(self, monkeypatch, fine):
        # the origin's ball rule has the same shape at every rung, so its
        # frame tables are built once, down to 2^-50 too: the cut of
        # perpendicular parts is relative to the radius
        build = harmonic._frame_table

        def count_tables(kept):
            calls = []
            monkeypatch.setattr(harmonic, "_KEPT_TABLES", kept)
            monkeypatch.setattr(harmonic, "_frame_table",
                                lambda *args: calls.append(1) or build(*args))
            mu = quantitative_stratum(radial_projection(3), 0, 0.3, fine, grid_step=0.5,
                                      plane_count=8)
            return mu.positions, len(calls)

        kept_positions, kept_calls = count_tables(16)
        positions, calls = count_tables(0)
        assert np.array_equal(kept_positions, positions)
        assert kept_positions.tolist() == [[0.0, 0.0, 0.0]]
        assert kept_calls < calls

    def test_nan_residual_is_not_symmetric(self):
        # a field that is NaN everywhere has no symmetric ball at any rung
        nan_field = harmonic.EnergyField(3, lambda X: np.full((len(X), 2), np.nan),
                                         None, None)
        mu = quantitative_stratum(nan_field, 0, 0.3, 0.25, grid_step=0.5)
        assert mu.count == 33


class TestDyadicLadder:
    def test_every_rung_from_the_floor(self):
        assert harmonic._dyadic_scales_in(2.0**-6, 1.0) == [2.0**-a for a in range(6, 0, -1)]

    def test_top_is_exclusive(self):
        assert harmonic._dyadic_scales_in(0.125, 1.0) == [0.125, 0.25, 0.5]
        assert harmonic._dyadic_scales_in(0.125, 0.5) == [0.125, 0.25]
        assert harmonic._dyadic_scales_in(0.1, 0.5 + 1e-12) == [0.125, 0.25, 0.5]

    def test_deepest_rung(self):
        ladder = harmonic._dyadic_scales_in(2.0**-60, 1.0)
        assert len(ladder) == 60 and ladder[0] == 2.0**-60


class TestHalton:
    # the sequence the package drew from scipy.stats.qmc before; d = 240
    # needs primes beyond scipy's table of 168
    @pytest.mark.parametrize("d", [1, 2, 3, 6, 15, 240])
    def test_bitwise_equal_to_scipy(self, d):
        from scipy.stats import qmc

        for count in (1, 32, 48, 64, 200):
            expected = qmc.Halton(d=d, scramble=True, seed=0).random(count)
            assert np.array_equal(harmonic._scrambled_halton(d, count), expected)

    @pytest.mark.parametrize("n, k, count", [
        (2, 1, 64), (3, 1, 32), (3, 1, 48), (3, 1, 64), (3, 1, 200), (3, 2, 32),
        (3, 2, 48), (3, 2, 64), (4, 1, 48), (4, 2, 32), (4, 3, 48)])
    def test_frames_equal_the_scipy_frames(self, n, k, count):
        from scipy.stats import qmc

        raw = np.clip(qmc.Halton(d=n * k, scramble=True, seed=0).random(count),
                      1e-12, 1 - 1e-12)
        expected = [np.linalg.qr(G)[0].T for G in ndtri(raw).reshape(count, n, k)]
        frames = grassmann_candidates(n, k, count)
        assert len(frames) == count
        assert all(np.array_equal(a, b) for a, b in zip(frames, expected))


class TestRegularityScale:
    def test_constant_capped_at_one(self):
        f = linear_field(np.zeros((2, 3)))
        assert regularity_scale(f, np.zeros(3)) == 1.0

    def test_radial_projection_law(self):
        # solve sqrt(2)/(d - r) = 1/r -> r = d/(1 + sqrt(2)); root-finding oracle
        from scipy.optimize import brentq

        f = radial_projection(3)
        for d in (0.2, 0.45, 0.8):
            oracle = brentq(lambda rr: np.sqrt(2) / (d - rr) - 1.0 / rr, 1e-9, d - 1e-9)
            got = regularity_scale(f, np.array([d, 0.0, 0.0]))
            assert got == pytest.approx(oracle, rel=1e-6)
            assert got == pytest.approx(d / (1 + np.sqrt(2)), rel=1e-6)

    def test_zero_at_singular_point(self):
        f = radial_projection(3)
        assert regularity_scale(f, np.zeros(3)) == 0.0


class TestBestApprox:
    def test_single_atom_trivial(self):
        f = radial_projection(3)
        mu = AtomicMeasure(np.zeros((1, 3)))
        out = best_approx_check(f, mu, np.zeros(3), 0.5, 0, epsilon=0.3)
        assert out["lhs"] == pytest.approx(0.0, abs=1e-15)
        assert out["rhs"] >= 0.0

    def test_offcenter_atoms_inequality(self):
        f = radial_projection(3)
        rng = np.random.default_rng(4)
        shell = rng.normal(size=(12, 3))
        shell = 0.3 * shell / np.linalg.norm(shell, axis=1, keepdims=True)
        pts = np.vstack([np.zeros(3), shell])
        mu = AtomicMeasure(pts)
        out = best_approx_check(f, mu, np.zeros(3), 0.5, 0, epsilon=0.3)
        assert out["rhs"] > 0
        assert np.isfinite(out["ratio"])
        assert out["zero_symmetric_ok"]
        assert out["not_k1_symmetric_ok"]

    def test_invariant_field_atoms_on_axis(self):
        f = translation_invariant(3, 1)
        xs = np.linspace(-0.3, 0.3, 9)
        pts = np.stack([xs, np.zeros_like(xs), np.zeros_like(xs)], axis=1)
        mu = AtomicMeasure(pts)
        out = best_approx_check(f, mu, np.zeros(3), 0.5, 0, epsilon=0.05)
        assert out["lhs"] > 0  # atoms spread along the axis, k = 0 plane is a point
        assert out["rhs"] > 0
        assert np.isfinite(out["ratio"])
