import functools
import tracemalloc

import numpy as np
import pytest
from scipy.special import gamma, ndtri, roots_jacobi, roots_legendre

from msgeom import harmonic
from msgeom.errors import EnergyInfiniteError
from msgeom.geometry import AtomicMeasure, Ball, sum_last
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
    regularity_scales,
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


def broadcast_theta(field, x, r, panels=24, order=10):
    """theta's rule with its nodes built by plain broadcasting, x + s * omega
    on the plain shells and s sin(phi) u + (p + s cos(phi) e) on the caps, in
    blocks of whole shells of at most 2^16 nodes, each reduced with `@`."""
    x = np.asarray(x, dtype=float)
    n, kink = field.n, float(harmonic._kink(field.singular_distance(x)[0], r))
    panel_count, angular_order = panels // 2, order + 14

    def blocks(count, per_shell):
        per = max(1, 2**16 // per_shell)
        return [slice(lo, lo + per) for lo in range(0, count, per)]

    if kink < np.inf and field.singular.k == 0:
        p = field.singular.base
        e = (x - p) / kink
        s, w = harmonic._radial_rule(max(0.0, kink - r), kink + r, [abs(kink - r), kink],
                                     panel_count)
        zstar = np.clip((s * s + kink * kink - r * r) / (2.0 * s * kink), -1.0, 1.0)
        t, wt = harmonic._gauss_rule(max(8, angular_order))
        phi_star = np.arccos(zstar)[:, None]
        phi = 0.5 * phi_star * (1.0 + t)
        cos_t, sin_t = np.cos(phi), np.sin(phi)
        w_polar = 0.5 * phi_star * wt * sin_t ** (n - 2)
        sub_nodes, sub_w = _sphere_rule(n - 1, angular_order)
        ring = sub_nodes @ harmonic._perp_basis(e[None, :], n)
        axial, radial = p + (s[:, None] * cos_t)[:, :, None] * e, s[:, None] * sin_t
        shell = np.empty(len(s))
        for blk in blocks(len(s), cos_t.shape[1] * len(sub_w)):
            nodes = radial[blk, :, None, None] * ring + axial[blk, :, None, :]
            g2 = np.minimum(field.grad_sq(nodes.reshape(-1, n)), 1e30).reshape(nodes.shape[:3])
            shell[blk] = np.einsum("pq,pqs->ps", w_polar[blk], g2) @ sub_w
        return float((w * s ** (n - 1)) @ shell) * r ** (2 - n)
    s, w = harmonic._radial_rule(0.0, r, [kink], panel_count)
    omega, w_ang = _sphere_rule(n, angular_order)
    shell = np.empty(len(s))
    for blk in blocks(len(s), len(w_ang)):
        nodes = (x[None, None, :] + s[blk, None, None] * omega[None, :, :]).reshape(-1, n)
        g2 = np.minimum(field.grad_sq(nodes), 1e30)
        shell[blk] = g2.reshape(-1, len(w_ang)) @ w_ang
    return float(np.add.reduce(w * s ** (n - 1) * shell)) * r ** (2 - n)


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
    @pytest.mark.parametrize("d", range(1, 8))
    def test_squared_norm_sum_is_numpys_below_8_coordinates(self, d):
        # every field's squared norm is sum_last: below 8 coordinates it is
        # numpy's own sum and norm bit for bit, on random, tiny and huge rows
        # (squares that underflow, and squares that overflow to inf on both
        # sides) and zero rows
        rows = np.random.default_rng(d).normal(size=(300, d))
        for X in (rows, rows * 1e-160, rows * 1e150, rows * 1e160, np.zeros((4, d))):
            with np.errstate(over="ignore"):
                assert sum_last(X).tobytes() == X.sum(axis=-1).tobytes()
                assert (harmonic._norms(X).tobytes()
                        == np.linalg.norm(X, axis=-1, keepdims=True).tobytes())

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
        # the closed-form ball bound of the regularity scale
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
        (2, 0.6, 0.5, 3.7247465979527328),
        (2, 0.7, 0.5, 2.24236349150202),
        (2, 0.35, 0.3, 4.168487999405193),
        (3, 0.3, 0.5, 21.857405062663034),
        (3, 0.6, 0.5, 7.042016487419376),
        (4, 0.3, 0.5, 24.279233751060946),
        (4, 0.6, 0.5, 10.280837917804124),
        (4, 0.2, 1.0, 29.01663693921584),
        (5, 0.3, 0.5, 27.919292299541343),
    ])
    def test_radial_theta_matches_shell_oracle(self, n, d, r, pinned):
        # the radial square-root endpoints of the n = 2 caps need no branch:
        # the cosine map of `_radial_rule` smooths them
        u = np.arange(1.0, n + 1.0)
        x = d * u / np.linalg.norm(u)
        got = theta(radial_projection(n), x, r)
        assert got == pytest.approx(pinned, rel=1e-12)
        assert got == pytest.approx(cap_shell_oracle(n, d, r), rel=1e-6)

    def test_finest_rule_error_in_r3(self):
        # 12 panels of 6 nodes, cut at 0.2 and 0.3 on [0, 0.8]: 2.1e-8 off the closed form
        x = 0.3 * np.arange(1.0, 4.0) / np.linalg.norm(np.arange(1.0, 4.0))
        got = theta(radial_projection(3), x, 0.5)
        assert abs(got - theta_radial(0.3, 0.5)) <= 3e-8 * got

    def test_finest_rule_error_in_r4(self):
        # the polar rule in the angle is exact for x/|x|: 3.4e-13 off
        x = 0.2 * np.arange(1.0, 5.0) / np.linalg.norm(np.arange(1.0, 5.0))
        want = cap_shell_oracle(4, 0.2, 1.0)
        assert abs(theta(radial_projection(4), x, 1.0) - want) <= 1e-12 * want

    @pytest.mark.parametrize("seed", [3, 7])
    def test_energy_point_inputs_meet_one_in_a_million(self, seed):
        # the energy benchmark's points: 4 directions from the seed at the
        # midpoints of 4 equal strata of |x| in [0.02, 0.9], with every radius
        # energy_point(f, x, 1.0) reads
        dirs = np.random.default_rng(seed).normal(size=(4, 3))
        dist = 0.02 + (np.arange(4) + 0.5) * (0.9 - 0.02) / 4
        radii = {2.0**-a for a in range(7)} | {2.0 ** (3 - a) for a in range(3, 7)}
        f = radial_projection(3)
        for x in dirs / np.linalg.norm(dirs, axis=1, keepdims=True) * dist[:, None]:
            d = np.linalg.norm(x)
            for r in sorted(radii):
                assert theta(f, x, r) == pytest.approx(theta_radial(d, r), rel=1e-6)

    def test_r3_mix_meets_one_in_a_million(self):
        # 7.1e-8 worst, at d / r = 0.056
        rng, f = np.random.default_rng(107), radial_projection(3)
        for _ in range(200):
            d, u, r = rng.uniform(0.02, 0.9), rng.normal(size=3), 2.0 ** -rng.integers(0, 7)
            got = theta(f, d * u / np.linalg.norm(u), r)
            assert got == pytest.approx(theta_radial(d, r), rel=1e-6)

    @pytest.mark.parametrize("r, pinned", [(1.0, EIGHT_PI), (2.0**-7, 25.132741228718338)])
    def test_rounding_distance_is_no_kink(self, monkeypatch, r, pinned):
        # the stratify grid point nearest 0 on a 0.1 step lies 3.8e-16 from the
        # singular point, where the radial integrand 8 pi per unit radius is
        # smooth: one uncut segment; at r = 2^-7 the offset rounds 2 ulps off 8 pi
        axis = np.arange(-1.0, 1.05, 0.1)
        x = np.full(3, axis[np.argmin(np.abs(axis))])
        built, rule = [], harmonic._radial_rule
        monkeypatch.setattr(harmonic, "_radial_rule",
                            lambda *args: built.append(args) or rule(*args))
        assert theta(radial_projection(3), x, r, panels=24) == pinned
        assert built == [(0.0, r, [np.inf], 12)]

    @pytest.mark.parametrize("make, x, r", [
        (lambda: radial_projection(3), [0.3, 0.0, 0.0], 0.5),     # cap shells
        (lambda: radial_projection(3), [0.9, 0.0, 0.0], 0.5),     # plain shells
        (lambda: k_symmetric_cone(4, 1), [0.0, 0.3, 0.0, 0.0], 0.5),
        (lambda: smooth_wave(3), [0.1, 0.2, 0.3], 0.5),
    ], ids=["cap", "plain", "cone", "smooth"])
    def test_one_rule_per_call(self, monkeypatch, make, x, r):
        # one Gauss rule, and none of the stratum's dyadic panels
        built, rule = [], harmonic._radial_rule
        monkeypatch.setattr(harmonic, "_radial_rule",
                            lambda *args: built.append(args) or rule(*args))
        monkeypatch.setattr(harmonic, "_radial_panels", None)
        theta(make(), np.array(x), r)
        assert len(built) == 1


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


# (field, direction, ratios): each ratio q gives the ball B_r(q r direction)
# at every radius r tried, so the plain path (q > 1.5, or no kink) and the
# cap path (q <= 1.5 about a point) both run in every dimension
LAYOUT_CASES = {
    "radial_projection(2)": (lambda: radial_projection(2), [1.0, 2.0], [1.2, 2.5]),
    "radial_projection(3)": (lambda: radial_projection(3), [1.0, 2.0, 3.0], [0.0, 0.3, 1.2, 2.5]),
    "radial_projection(4)": (lambda: radial_projection(4), [1.0, 2.0, 3.0, 4.0], [0.6, 2.5]),
    "k_symmetric_cone(4, 1)": (lambda: k_symmetric_cone(4, 1), [0.5, 1.0, -1.0, 2.0], [0.0, 0.6]),
    "smooth_wave(3)": (lambda: smooth_wave(3), [0.1, 0.2, 0.3], [0.0, 2.5]),
}


def layout_balls(name, radii):
    make, u, ratios = LAYOUT_CASES[name]
    u = np.array(u) / np.linalg.norm(u)
    return make(), [(q * r * u, r) for q in ratios for r in radii]


class TestNodeLayout:
    """theta builds its nodes along the angular rule and evaluates them in
    blocks of whole shells; neither changes a bit of the value."""

    @pytest.mark.parametrize("name", sorted(LAYOUT_CASES))
    def test_bitwise_equal_to_broadcast_nodes(self, name):
        radii = [2.0**-a for a in range(7)] if "(4" not in name else [1.0, 0.25, 2.0**-6]
        field, balls = layout_balls(name, radii)
        for x, r in balls:
            assert theta(field, x, r).hex() == broadcast_theta(field, x, r).hex(), (x, r)

    def test_bitwise_equal_on_energy_point_inputs(self):
        # the energy benchmark's four points at seed 3, with every radius
        # energy_point(f, x, 1.0) reads: fixed centres, cap and plain shells
        dirs = np.random.default_rng(3).normal(size=(4, 3))
        dist = 0.02 + (np.arange(4) + 0.5) * (0.9 - 0.02) / 4
        f = radial_projection(3)
        for x in dirs / np.linalg.norm(dirs, axis=1, keepdims=True) * dist[:, None]:
            for r in [2.0**-a for a in range(7)] + [2.0, 4.0]:
                assert theta(f, x, r).hex() == broadcast_theta(f, x, r).hex(), (x, r)

    def test_bitwise_equal_with_other_rules(self):
        # more panels than one block holds in R^2, and a coarse angular rule
        for name, panels, order in [("radial_projection(2)", 400, 10),
                                    ("radial_projection(3)", 60, -6),
                                    ("smooth_wave(3)", 8, 2)]:
            field, balls = layout_balls(name, [1.0, 0.125])
            for x, r in balls:
                assert (theta(field, x, r, panels=panels, order=order).hex()
                        == broadcast_theta(field, x, r, panels, order).hex()), (name, x, r)

    @pytest.mark.parametrize("name, x, r, panels", [
        ("plain R^2", [2.5, 0.0], 1.0, 400),
        ("cap R^2", [0.6, 0.0], 0.5, 400),
        ("plain R^3", [0.9, 0.0, 0.0], 0.5, 24),
        ("cap R^3", [0.3, 0.0, 0.0], 0.5, 24),
        ("centred R^4", [0.0, 0.0, 0.0, 0.0], 0.5, 24),
    ])
    def test_blocks_hold_whole_shells_within_the_budget(self, monkeypatch, name, x, r, panels):
        x = np.array(x)
        n, cap = len(x), name.startswith("cap")
        field, rules = radial_projection(n), []
        rule = harmonic._radial_rule
        monkeypatch.setattr(harmonic, "_radial_rule",
                            lambda *args: rules.append(rule(*args)) or rules[-1])
        grad_sq, blocks = field.grad_sq, []
        # shell centre, nodes per shell
        if cap:
            centre = np.zeros(n)
            per = max(8, 24) * len(_sphere_rule(n - 1, 24)[1])
        else:
            centre, per = x, len(_sphere_rule(n, 24)[1])

        def spy(X):
            assert len(X) % per == 0
            dist = np.linalg.norm(X - centre, axis=1).reshape(-1, per)
            # the distance to x cancels up to an ulp of |x|
            assert np.all(np.ptp(dist, axis=1) <= 1e-12 * (dist[:, 0] + 1.0))
            blocks.append(dist[:, 0])
            return grad_sq(X)

        field.grad_sq = spy
        theta(field, x, r, panels=panels)
        budget, s = harmonic._THETA_NODE_BUDGET, rules[0][0]
        allowed = 1  # the most shells within the budget, a power of two
        while 2 * allowed * per <= budget:
            allowed *= 2
        assert allowed % 4 == 0 or allowed * 4 * per > budget
        counts = [len(b) for b in blocks]
        assert counts[:-1] == [allowed] * (len(counts) - 1) and 0 < counts[-1] <= allowed
        # whole shells, in the rule's order
        np.testing.assert_allclose(np.concatenate(blocks), s, rtol=1e-12, atol=1e-12)


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

    @pytest.mark.parametrize("panels, order", [
        (1, 10), (0, 10), (-2, 10), (2.5, 10), (24.0, 10), ("24", 10),
        (24, -14), (24, -20), (24, 0.5), (24, None),
    ])
    def test_rule_sizes_must_be_integers_in_range(self, panels, order):
        # unchecked, panels <= 1 or 2.5 would run one panel per segment, and
        # order = -14 an empty angular rule: NaN on the plain path, a value on the caps
        for x in ([0.5, 0.2, 0.1], [0.1, 0.2, 0.1]):
            with pytest.raises(ValueError, match="panels"):
                theta(radial_projection(3), x, 0.25, panels=panels, order=order)

    def test_smallest_rule_sizes_run(self):
        x = np.array([0.5, 0.2, 0.1])
        # one 6-node panel per segment, angular order 1: 12% off, but a value
        coarse = theta(radial_projection(3), x, 0.25, panels=2, order=-13)
        assert coarse == pytest.approx(theta_radial(np.linalg.norm(x), 0.25), rel=0.2)
        assert theta(radial_projection(3), x, 0.25, panels=np.int64(24),
                     order=np.int32(10)) == theta(radial_projection(3), x, 0.25)

    @pytest.mark.parametrize("panels, order", [(1, 10), (2.5, 10), (24, -14)])
    def test_best_approx_checks_its_rule_sizes(self, panels, order):
        mu = AtomicMeasure(np.array([[0.5, 0.2, 0.1], [0.4, 0.25, 0.1]]))
        with pytest.raises(ValueError, match="panels"):
            best_approx_check(radial_projection(3), mu, np.array([0.45, 0.2, 0.1]), 0.1, 0,
                              epsilon=0.3, quad_panels=panels, quad_order=order)

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
                                    plane_candidates=cands).value for a in range(61)]
        assert values[0] == pytest.approx(0.38555, abs=1e-5)
        assert np.allclose(values, values[0], rtol=1e-12, atol=0.0)

    def test_smooth_field_small_ball_symmetric(self):
        f = smooth_wave(3)
        res = symmetry_distance(f, Ball(np.array([0.3, 0.1, 0.0]), 0.02), 1)
        assert res.value < 1e-3

    @pytest.mark.parametrize("center, r", [([100.0, 0.0, 0.0], 0.5), ([63.8, 0.0, 0.0], 0.5)])
    def test_ball_outside_the_domain_is_rejected(self, center, r):
        with pytest.raises(ValueError, match="inside B_64"):
            symmetry_distance(radial_projection(3), Ball(center, r), 0)

    def test_non_finite_center_is_rejected(self):
        with pytest.raises(ValueError):
            symmetry_distance(radial_projection(3), Ball([np.nan, 0.0, 0.0], 0.5), 0)


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

    @pytest.mark.parametrize("grid_step", [0.0, -0.5, float("nan"), float("inf")])
    def test_grid_step_must_be_finite_and_positive(self, grid_step):
        # 0 divided by zero, -0.5 gave an empty stratum and NaN numpy's arange error
        with pytest.raises(ValueError, match="finite grid_step > 0"):
            quantitative_stratum(radial_projection(3), 0, 0.3, 0.25, grid_step=grid_step)

    @pytest.mark.parametrize("center, radius", [([100.0, 0.0, 0.0], 1.0),
                                                ([63.5, 0.0, 0.0], 1.0),
                                                ([0.0, 0.0, 0.0], 0.0)])
    def test_ball_outside_the_domain_is_rejected(self, center, radius):
        # B_1([100, 0, 0]) used to give an empty stratum; theta rejects the ball
        with pytest.raises(ValueError, match="inside B_64"):
            quantitative_stratum(radial_projection(3), 0, 0.3, 0.25, grid_step=0.5,
                                 center=center, radius=radius)


def reference_stratum(field, k, epsilon, r, grid_step, center=None, radius=1.0,
                      plane_count=48):
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
        symmetry_distance(field, Ball(p, s), k + 1, plane_candidates=candidates,
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

        # the standard library's normal quantile is within 2e-15 of scipy's
        # ndtri, not bitwise, so the frames are pinned to 1e-14
        raw = np.clip(qmc.Halton(d=n * k, scramble=True, seed=0).random(count),
                      1e-12, 1 - 1e-12)
        expected = [np.linalg.qr(G)[0].T for G in ndtri(raw).reshape(count, n, k)]
        frames = grassmann_candidates(n, k, count)
        assert len(frames) == count
        assert all(np.abs(a - b).max() <= 1e-14 for a, b in zip(frames, expected))


class TestGaussRule:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_matches_scipy(self, n):
        # scipy's Legendre weights are themselves off by up to 7.3e-15
        # (40-digit check) from order 10 on, so for n = 3 the weights are
        # pinned to 1e-14 here and to 1e-15 by the classical formula below
        a = (n - 3) / 2.0
        for order in range(1, 65):
            z, w = harmonic._gauss_rule(order, a)
            zs, ws = roots_legendre(order) if n == 3 else roots_jacobi(order, a, a)
            assert np.abs(z - zs).max() <= 1e-15
            assert np.abs(w - ws).max() <= (1e-14 if n == 3 else 1e-15)

    def test_legendre_weights_by_the_classical_formula(self):
        # w = 2 / ((1 - z^2) P_m'(z)^2), with P_m by its recurrence in
        # extended precision at the rule's own nodes
        for order in range(1, 65):
            z, w = harmonic._gauss_rule(order)
            x = z.astype(np.longdouble)
            p_prev, p = np.ones_like(x), x
            for j in range(2, order + 1):
                p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
            dp = order * (x * p - p_prev) / (x * x - 1)
            exact = (2 / ((1 - x * x) * dp * dp)).astype(float)
            assert np.abs(w - exact).max() <= 1e-15


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

    @pytest.mark.parametrize("n, k", [(3, 0), (3, 1), (4, 0), (4, 1)])
    def test_cone_closed_form(self, n, k):
        # r^2 (m - 1) / (d - r)^2 = 1 at r = d / (1 + sqrt(m - 1)), m = n - k
        X = np.random.default_rng(40 + n + k).uniform(-0.6, 0.6, size=(300, n))
        X = X[np.linalg.norm(X[:, k:], axis=1) > 0.02]
        want = np.linalg.norm(X[:, k:], axis=1) / (1.0 + np.sqrt(n - k - 1.0))
        got = regularity_scales(k_symmetric_cone(n, k), X)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        assert [regularity_scale(k_symmetric_cone(n, k), x) for x in X[:5]] == got[:5].tolist()

    def test_zero_on_the_singular_plane(self):
        X = np.array([[0.0, 0.0, 0.0], [0.7, 0.0, 0.0], [-0.2, 0.0, 0.0], [0.0, 0.3, 0.0]])
        got = regularity_scales(k_symmetric_cone(3, 1), X)
        assert got[:3].tolist() == [0.0, 0.0, 0.0] and got[3] == pytest.approx(0.15, rel=1e-12)

    @pytest.mark.parametrize("x", [[np.nan, 0.0, 0.0], [0.0, np.inf, 0.0],
                                   [100.0, 0.0, 0.0], [63.5, 0.0, 0.0]],
                             ids=["nan", "inf", "far", "ball-leaves-domain"])
    def test_non_finite_or_outside_the_domain_is_rejected(self, x):
        # the largest ball r_f reads is B_1(x), so |x| = 63.5 is already outside
        f = radial_projection(3)
        with pytest.raises(ValueError, match="inside B_64"):
            regularity_scale(f, x)
        with pytest.raises(ValueError, match="inside B_64"):
            regularity_scales(f, np.array([[0.5, 0.0, 0.0], x]))

    def test_field_without_a_bound_is_rejected(self):
        f = radial_projection(3)
        bare = harmonic.EnergyField(f.n, f.fn, f.grad, f.density, singular=f.singular)
        with pytest.raises(ValueError, match="density_sup"):
            regularity_scale(bare, np.array([0.5, 0.0, 0.0]))

    def test_point_of_another_dimension_is_rejected(self):
        # the ball bounds read coordinates by column, so a point of R^2 would
        # otherwise give a value for a field on R^3
        f, x = radial_projection(3), np.array([0.5, 0.0])
        for call in (lambda: regularity_scale(f, x), lambda: theta(f, x, 0.2),
                     lambda: symmetry_distance(f, Ball(x, 0.2), 0)):
            with pytest.raises(ValueError, match="centre in R\\^3"):
                call()


# every field maker, and the cones with a point and a line singularity in R^3 and R^4
BOUND_MAKERS = {**FIELD_MAKERS, **{f"k_symmetric_cone({n}, {k})": functools.partial(
    k_symmetric_cone, n, k) for n in (3, 4) for k in (0, 1)}}


def _balls(field, rng):
    """40 centres in [-1, 1]^n and radii in [0.01, 0.8]."""
    return rng.uniform(-1.0, 1.0, size=(40, field.n)), rng.uniform(0.01, 0.8, size=40)


class TestDensitySup:
    @pytest.mark.parametrize("name", sorted(BOUND_MAKERS))
    def test_bounds_the_density_on_the_ball(self, name):
        field = BOUND_MAKERS[name]()
        rng = np.random.default_rng(31)
        C, R = _balls(field, rng)
        sup = field.density_sup(C, R)
        assert sup.shape == (len(C),)
        for c, r, s in zip(C, R, sup):
            u = rng.normal(size=(300, field.n))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            # inside the ball and on its sphere
            pts = c + r * np.vstack([rng.random((300, 1)) ** (1.0 / field.n) * u, u])
            assert np.all(field.grad_sq(pts) <= s * (1.0 + 1e-12))
        # a scalar radius is the same bound as one radius per centre
        assert np.array_equal(field.density_sup(C, 0.3),
                              field.density_sup(C, np.full(len(C), 0.3)))

    @pytest.mark.parametrize("name", [n for n in sorted(BOUND_MAKERS)
                                      if "wave" not in n and "translation" not in n])
    def test_attained_at_the_nearest_ball_point(self, name):
        # the cones at the ball point nearest the singular plane, the smoothed
        # projection at the one nearest 0, the linear field anywhere; inf
        # exactly when the ball meets the singular set
        field = BOUND_MAKERS[name]()
        C, R = _balls(field, np.random.default_rng(32))
        sup = field.density_sup(C, R)
        base = np.zeros_like(C) if field.singular is None else field.singular.project(C)
        gap = np.linalg.norm(C - base, axis=1)
        near = np.where((gap > R)[:, None], C - (R / gap)[:, None] * (C - base), base)
        finite = np.isfinite(sup)
        assert np.array_equal(~finite, (gap <= R) & (field.singular is not None))
        assert finite.sum() >= 10
        np.testing.assert_allclose(field.grad_sq(near[finite]), sup[finite], rtol=1e-12, atol=0.0)


class TestStratumScreen:
    # the stratum decides a ball with s^2 * density_sup < epsilon without
    # evaluating the field: by the mean-value inequality its constant
    # residual is below epsilon, so the quadrature would have decided it too
    STRATA = {
        **TestBatchedStratum.CASES,
        "test_09 stratum": (lambda: radial_projection(3), 0, 0.3, 2.0**-6,
                            dict(grid_step=2.0**-4)),
        "test_09 cover stratum": (lambda: smoothed_projection(3, core=0.02), 0, 0.25, 2.0**-4,
                                  dict(grid_step=2.0**-3, radius=0.5, plane_count=32)),
        "smooth": (lambda: smooth_wave(3), 0, 0.3, 2.0**-6,
                   dict(grid_step=2.0**-3, plane_count=32)),
    }

    @pytest.mark.parametrize("name", sorted(BOUND_MAKERS))
    def test_screened_balls_have_a_constant_residual_below_epsilon(self, name, monkeypatch):
        # a ball the stratum asked the bound for and did not evaluate was
        # screened; the grid is off the singular sets, so that some balls come
        # within a few radii of them
        field = BOUND_MAKERS[name]()
        bound, residuals, asked, sent = field.density_sup, harmonic._symmetry_residuals, [], []
        field.density_sup = lambda C, r: asked.append((C.copy(), r)) or bound(C, r)
        monkeypatch.setattr(harmonic, "_symmetry_residuals", lambda f, C, r, *rest: (
            sent.append((C.copy(), r)) or residuals(f, C, r, *rest)))
        screened = 0
        for k, epsilon in [(0, 0.3), (1, 0.1), (1, 1.0), (0, 0.004)]:
            asked.clear()
            sent.clear()
            quantitative_stratum(field, k, epsilon, 2.0**-4, grid_step=0.5, plane_count=1,
                                 center=[0.05, 0.1, 0.15, 0.2][:field.n])
            no_frames = np.zeros((0, k + 1, field.n))
            for C, s in asked:  # one call per rung, on the balls still undecided
                evaluated = {c.tobytes() for B, r in sent if r == s for c in B}
                C = np.array([c for c in C if c.tobytes() not in evaluated]).reshape(-1, field.n)
                d_sing = field.singular_distance(C)
                rule = np.where(d_sing <= 1.5 * s, d_sing, np.inf)
                for d in np.unique(rule):
                    balls = C[rule == d]
                    const, _ = residuals(field, balls, s, d, no_frames, None)
                    assert np.all(const < epsilon)
                    assert np.all(const <= s * s * bound(balls, s))
                screened += len(C)
        assert screened > 0

    @pytest.mark.parametrize("case", list(STRATA))
    def test_same_stratum_as_the_unscreened_field(self, case):
        make, k, epsilon, r, options = self.STRATA[case]
        f = make()
        unscreened = harmonic.EnergyField(f.n, f.fn, f.grad, f.density, singular=f.singular)
        screened = quantitative_stratum(f, k, epsilon, r, **options)
        reference = quantitative_stratum(unscreened, k, epsilon, r, **options)
        assert np.array_equal(screened.positions, reference.positions)
        assert np.array_equal(screened.weights, reference.weights)

    def test_decided_balls_evaluate_no_node(self):
        # every ball of the finest rung has 2^-12 * density_sup <= 1200 / 4096
        # < 0.3, so the stratum needs no quadrature at all
        field = smoothed_projection(3)
        fn, rows = field.fn, []
        field.fn = lambda X: rows.append(len(X)) or fn(X)
        mu = quantitative_stratum(field, 0, 0.3, 2.0**-6, grid_step=0.125)
        assert mu.count == 0
        assert sum(rows) == 0

    def test_constant_residual_follows_the_bound_below_the_mean_floor(self):
        # below s^2 ~ 1e-28 the residual's rounding must scale with the
        # deviations over the ball, not with |f| near 1
        field, s = smooth_wave(3), 2.0**-52
        centers = np.random.default_rng(0).uniform(-0.5, 0.5, size=(20, 3))
        const, _ = harmonic._symmetry_residuals(field, centers, s, np.inf,
                                                np.zeros((0, 1, 3)), None)
        assert np.all(const <= s * s * field.density_sup(centers, s))

    def test_smooth_field_has_no_stratum_at_the_rounding_floor(self):
        # at r = 2^-60 the bound, 5.2e-36, decides every ball, as in exact
        # arithmetic, below the quadrature's rounding floor of about 1e-32
        mu = quantitative_stratum(smooth_wave(3), 0, 1e-33, 2.0**-60, grid_step=0.5, radius=0.5)
        assert mu.count == 0


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
