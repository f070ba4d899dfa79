"""Acceptance suite: end-to-end checks of the package's headline guarantees,
each at a fixed tolerance.

Every test prints one [ACCEPTANCE] pass line when it succeeds (run pytest
with -s to watch them).  Expected values were computed with the independent
oracles embedded here, never copied from the implementation under test.
"""

import numpy as np
import pytest

from msgeom.covering import (
    BallFamily,
    discrete_reifenberg_verify,
    inductive_cover,
    iterate_cover,
    union_ball_volume,
)
from msgeom.fixtures import (
    circle_cloud,
    dyadic_segment_family,
    koch_ball_family,
    plane_cloud,
)
from msgeom.geometry import (
    AffinePlane,
    AtomicMeasure,
    Ball,
    grassmann_distance,
    hausdorff_distance,
)
from msgeom.harmonic import (
    _sphere_rule,
    best_approx_check,
    quantitative_stratum,
    radial_projection,
    regularity_scale,
    regularity_scales,
    smoothed_projection,
    theta,
    translation_invariant,
)
from msgeom.moments import (
    DisplacementConfig,
    best_affine_plane,
    displacement,
    second_moment_spectrum,
    unit_ball_volume,
)
from msgeom.reifenberg import measure_estimate, reconstruct


def announce(number, name, detail):
    print(f"[ACCEPTANCE] #{number} {name}: PASS ({detail})")


# ---------------------------------------------------------------------------
# 1. eigen-fit vs brute force
# ---------------------------------------------------------------------------

def probe_min_residual(pts, w, k, planes, bases):
    """Min weighted squared distance over a batch of random affine planes."""
    best = np.inf
    chunk = 20_000
    for lo in range(0, planes.shape[0], chunk):
        Q = planes[lo : lo + chunk]
        b = bases[lo : lo + chunk]
        rel = pts[None, :, :] - b[:, None, :]
        coef = np.matmul(rel, Q)
        d2 = (rel**2).sum(axis=2) - (coef**2).sum(axis=2)
        best = min(best, float(np.maximum(d2, 0.0) @ w).min() if d2.ndim == 1
                   else float((np.maximum(d2, 0.0) @ w).min()))
    return best


def test_01_eigen_fit_vs_brute_force():
    rng = np.random.default_rng(101)
    probes = {}
    for trial in range(100):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, n))
        m = int(rng.integers(5, 51))
        pts = rng.normal(size=(m, n))
        w = rng.random(m) + 0.05
        mu = AtomicMeasure(pts, w)
        ball = Ball(np.zeros(n), 1e3)
        spec = second_moment_spectrum(mu, ball)
        plane = spec.plane(k)
        d = plane.distance(pts)
        residual = float(np.dot(w, d**2))
        # identical to the trailing eigenvalue sum to 1e-10 relative
        assert residual == pytest.approx(spec.residual(k), rel=1e-10, abs=1e-14)
        if (n, k) not in probes:
            frames = rng.normal(size=(100_000, n, k))
            Q, _ = np.linalg.qr(frames)
            probes[(n, k)] = Q
        Q = probes[(n, k)]
        bases = pts[rng.integers(0, m, size=Q.shape[0])]
        oracle = probe_min_residual(pts, w, k, Q, bases)
        assert residual <= oracle + 1e-9
    announce(1, "eigen-fit vs brute force",
             "100 clouds, 1e5-plane probe never beat the eigen fit")


# ---------------------------------------------------------------------------
# 2. displacement axioms
# ---------------------------------------------------------------------------

def test_02_displacement_axioms():
    rng = np.random.default_rng(102)
    cfg = DisplacementConfig.default(1)
    free = DisplacementConfig(eps_mass=0.0, gamma_good=1.0)
    doubling_checked = 0
    for _ in range(50):
        n = int(rng.integers(2, 4))
        pts = rng.normal(size=(30, n)) * 0.5
        w = rng.random(30) + 0.1
        mu = AtomicMeasure(pts, w)
        x = rng.normal(size=n) * 0.2
        r = rng.random() * 0.6 + 0.2
        k = 1
        # scale invariance
        d1 = displacement(mu, x, r, k, cfg)
        d2 = displacement(mu.translate_scale(x, r, k), np.zeros(n), 1.0, k, cfg)
        assert d2 == pytest.approx(d1, rel=1e-8, abs=1e-15)
        # deletion monotonicity (fitted infimum on both sides)
        keep = np.flatnonzero(rng.random(30) > 0.3)
        if len(keep):
            d_full = displacement(mu, x, r, k, free)
            d_sub = displacement(mu.subset(keep), x, r, k, free)
            assert d_sub <= d_full + 1e-12 * max(1.0, d_full)
        # doubling control
        idx = mu.indices_in_ball(Ball(x, r))
        mass = float(mu.weights[idx].sum())
        if mass >= 2**k * cfg.eps_mass * r**k and len(idx):
            lhs = displacement(mu, x, r, k, cfg)
            vals = np.array([displacement(mu, y, 2 * r, k, cfg)
                             for y in mu.positions[idx]])
            rhs = 2 ** (k + 2) * float(np.dot(mu.weights[idx], vals)) / mass
            assert lhs <= rhs + 1e-12
            doubling_checked += 1
    assert doubling_checked >= 30
    announce(2, "displacement axioms",
             f"scale invariance 1e-8, deletion exact, doubling x{doubling_checked}")


# ---------------------------------------------------------------------------
# 3. subspace-distance suite
# ---------------------------------------------------------------------------

def _complement(plane):
    n = plane.ambient_dim
    Q, _ = np.linalg.qr(np.hstack([plane.directions.T, np.eye(n)]))
    return AffinePlane(np.zeros(n), Q[:, plane.k :].T)


def _sampled_disk(plane, count, rng):
    raw = rng.normal(size=(count, plane.k))
    radii = rng.random(count) ** (1.0 / max(plane.k, 1))
    coords = raw / np.linalg.norm(raw, axis=1, keepdims=True) * radii[:, None]
    return plane.point_at(coords)


def test_03_subspace_distance_suite():
    rng = np.random.default_rng(103)
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        kv = int(rng.integers(1, n))
        kw = int(rng.integers(1, n))
        V = AffinePlane.from_spanning(np.zeros(n), rng.normal(size=(kv, n)))
        W = AffinePlane.from_spanning(np.zeros(n), rng.normal(size=(kw, n)))
        dG = grassmann_distance(V, W)
        if kv == kw:
            assert dG == pytest.approx(
                grassmann_distance(_complement(V), _complement(W)), abs=1e-8
            )
        x = rng.normal(size=n)
        lhs = np.linalg.norm((V.projection_matrix() - W.projection_matrix()) @ x)
        assert lhs <= 2 * dG * np.linalg.norm(x) + 1e-12

    # two-sidedness with a measured constant (affine-base shape argument)
    k = 2
    shape_constant = 40 * (k + 1)
    worst_c = 0.0
    for _ in range(25):
        n = 4
        V = AffinePlane.from_spanning(rng.normal(size=n) * 0.1, rng.normal(size=(k, n)))
        delta = 10.0 ** rng.uniform(-4, -2)
        W = AffinePlane.from_spanning(
            V.base + delta * 0.3 * rng.normal(size=n),
            V.directions + delta * 0.3 * rng.normal(size=(k, n)),
        )
        A = _sampled_disk(V, 1500, rng)
        B = _sampled_disk(W, 1500, rng)
        one_sided = max(np.min(np.linalg.norm(B - a, axis=1)) for a in A)
        dH = hausdorff_distance(A, B)
        c = dH / max(one_sided, 1e-12)
        worst_c = max(worst_c, c)
        assert dH <= 10 * shape_constant * max(one_sided, 1e-12)
    announce(3, "subspace distances",
             f"perp duality 1e-8, projection bound, two-sided c <= {worst_c:.2f}")


# ---------------------------------------------------------------------------
# 4. flat reconstruction
# ---------------------------------------------------------------------------

def test_04_flat_reconstruction():
    for n, k, count in [(2, 1, 600), (3, 2, 3000)]:
        mu = plane_cloud(n, k, count=count, extent=1.0, seed=104)
        cfg = DisplacementConfig.default(k)
        atlas = reconstruct(mu, k, cfg, max_scale_count=4)
        plane = AffinePlane.coordinate(n, list(range(k)))
        for rec, samples in zip(atlas.scales, atlas.samples_per_scale):
            assert float(np.max(plane.distance(samples))) <= 1e-10
            for patch in rec.patches:
                assert plane.distance(patch.plane.base) <= 1e-10
                lifted = patch.plane.base + patch.plane.directions
                assert float(np.max(plane.distance(np.atleast_2d(lifted)))) <= 1e-10
        moved = atlas.apply_phi(atlas.initial_samples)
        shift = float(np.max(np.linalg.norm(moved - atlas.initial_samples, axis=1)))
        assert shift <= 1e-10
        r = 0.4
        got = measure_estimate(atlas, Ball(np.zeros(n), r))
        assert got == pytest.approx(unit_ball_volume(k) * r**k, abs=1e-6)
    announce(4, "flat reconstruction",
             "planes reproduced to 1e-10, phi = id, measure within 1e-6")


# ---------------------------------------------------------------------------
# 5. circle reconstruction
# ---------------------------------------------------------------------------

def test_05_circle_reconstruction():
    cfg = DisplacementConfig.default(1, delta=0.25)
    noises = [1e-2, 10**-2.5, 1e-3]
    theta_truth = np.linspace(0, 2 * np.pi, 4000, endpoint=False)
    truth = np.stack([np.cos(theta_truth), np.sin(theta_truth)], axis=1)

    def run(noise, depth, seed):
        mu = circle_cloud(count=2000, noise=noise, seed=seed)
        return reconstruct(mu, 1, cfg, max_scale_count=depth, flat_tol=0.12,
                           check_summability=False)

    # geometry at moderate depth: Hausdorff and length
    lengths = []
    for noise in noises:
        atlas = run(noise, 6, seed=105)
        dh = hausdorff_distance(atlas.final_samples, truth)
        assert dh <= 10 * noise
        lengths.append(measure_estimate(atlas, Ball(np.zeros(2), 1.5)))
    for L in lengths:
        assert L == pytest.approx(2 * np.pi, rel=0.02)

    # distortion-noise scaling: sample the final sigma on one fixed reference
    # curve with one fixed pair set, subtract the noise-free baseline (the
    # curvature part, which is then identical by construction), and average
    # three fixed cloud draws per noise level
    ref_ang = np.linspace(0, 2 * np.pi, 3000, endpoint=False)
    ref = np.stack([np.cos(ref_ang), np.sin(ref_ang)], axis=1)
    prng = np.random.default_rng(42)
    ii = prng.integers(0, len(ref), 20000)
    jj = prng.integers(0, len(ref), 20000)
    d0 = np.linalg.norm(ref[ii] - ref[jj], axis=1)

    def last_sigma_stretch(noise, seed):
        atlas = run(noise, 7, seed)
        rec = [r for r in atlas.scales if r.sigma is not None][-1]
        keep = (d0 > 1e-9) & (d0 <= 1.5 * rec.radius)
        out = rec.sigma.apply(ref)
        d1 = np.linalg.norm(out[ii[keep]] - out[jj[keep]], axis=1)
        ratios = d1 / d0[keep]
        return float(max(ratios.max(), (1.0 / ratios[ratios > 0]).max())) - 1.0

    seeds = (105, 21, 7)
    excess = []
    for noise in noises:
        vals = []
        for seed in seeds:
            base = last_sigma_stretch(0.0, seed)
            vals.append(max(last_sigma_stretch(noise, seed) - base, 1e-12))
        excess.append(float(np.mean(vals)))
    slope = float(np.polyfit(np.log(noises), np.log(excess), 1)[0])
    assert 1.7 <= slope <= 2.3
    announce(5, "circle reconstruction",
             f"hausdorff <= 10 delta, length 2pi +-2%, distortion slope {slope:.2f}")


# ---------------------------------------------------------------------------
# 6. discrete packing
# ---------------------------------------------------------------------------

def test_06_discrete_packing():
    centers, radii = dyadic_segment_family(levels=6)
    fam = BallFamily(centers, radii)
    cfg = DisplacementConfig.default(1, delta=0.1)
    report = discrete_reifenberg_verify(fam, 1, cfg)
    assert report.hypothesis_ok
    # direct count oracle: plain loop over centers in the unit ball
    direct = 0.0
    for c, r in zip(centers, radii):
        if np.sqrt(c[0] ** 2 + c[1] ** 2) <= 1.0:
            direct += r
    assert report.packing_sum == pytest.approx(direct, rel=0.05)

    k_centers, k_radii = koch_ball_family(levels=4)
    koch = BallFamily(k_centers, k_radii)
    small = DisplacementConfig.default(1, delta=0.05)
    failing = discrete_reifenberg_verify(koch, 1, small)
    assert not failing.hypothesis_ok
    assert failing.failure_scale is not None
    announce(6, "discrete packing",
             f"dyadic passes (sum {report.packing_sum:.4f}), koch fails at "
             f"scale {failing.failure_scale:g}")


# ---------------------------------------------------------------------------
# 7. harmonic fixture energetics
# ---------------------------------------------------------------------------

def test_07_harmonic_energetics():
    f = radial_projection(3)
    for r in (0.25, 0.5, 1.0):
        assert theta(f, np.zeros(3), r) == pytest.approx(8 * np.pi, rel=1e-3)

    rng = np.random.default_rng(107)
    checked = 0
    while checked < 1000:
        x = rng.normal(size=3) * 0.5
        s, r = np.sort(rng.random(2) * 0.9 + 0.02)
        if r - s < 1e-3:
            continue
        ts, tr = theta(f, x, s), theta(f, x, r)
        assert ts <= tr + 1e-4 * tr
        checked += 1

    # derivative identity in integrated form, annuli off the singular shell
    from scipy.special import roots_legendre

    omega, w_ang = _sphere_rule(3, 24)
    zn, zw = roots_legendre(24)

    def boundary(x, t):
        pts = x[None, :] + t * omega
        G = f.gradient(pts)
        rad = np.einsum("qmi,qi->qm", G, omega)
        return 2.0 * t * float(w_ang @ (rad**2).sum(axis=1))

    count = 0
    while count < 100:
        x = rng.normal(size=3)
        d = float(np.linalg.norm(x))
        if not 0.2 <= d <= 0.7:
            continue
        if rng.random() < 0.5:
            s, r = np.sort(rng.uniform(1.25 * d, min(2.0, 3.0 * d), 2))
        else:
            s, r = np.sort(rng.uniform(0.05 * d, 0.7 * d, 2))
        if r - s < 0.02:
            continue
        W = theta(f, x, r) - theta(f, x, s)
        ts_nodes = 0.5 * (s + r) + 0.5 * (r - s) * zn
        integral = 0.5 * (r - s) * float(zw @ [boundary(x, t) for t in ts_nodes])
        assert abs(W - integral) <= 0.01 * abs(integral) + 2e-4 * theta(f, x, r)
        count += 1
    announce(7, "harmonic energetics",
             "theta = 8pi to 0.1%, monotone at 1000 triples, identity to 1%")


# ---------------------------------------------------------------------------
# 8. regularity scale law
# ---------------------------------------------------------------------------

def test_08_regularity_scale_law():
    f = radial_projection(3)
    rng = np.random.default_rng(108)
    golden = 1.0 + np.sqrt(2.0)
    for _ in range(50):
        x = rng.normal(size=3)
        x *= rng.uniform(0.1, 0.9) / np.linalg.norm(x)
        got = regularity_scale(f, x)
        want = np.linalg.norm(x) / golden
        assert got == pytest.approx(want, rel=0.01)

    # Vol({r_f < r} ∩ B_1) ~ r^3: per-radius grids; resolutions vary so the
    # counts are genuine measurements, not self-similar copies
    radii = [2.0**-a for a in range(3, 8)]
    vols = []
    for m, r in zip((14, 16, 18, 20, 22), radii):
        R = 1.2 * golden * r
        axes = [np.linspace(-R, R, 2 * m + 1)] * 3
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in mesh], axis=1)
        h = axes[0][1] - axes[0][0]
        # r_f(p) < r exactly when r^2 sup_{B_r(p)} |grad f|^2 > 1: the ball
        # bound is the true sup for the cone map
        count = np.count_nonzero(regularity_scales(f, pts[np.linalg.norm(pts, axis=1) <= 1.0]) < r)
        vols.append(count * h**3)
    slope = float(np.polyfit(np.log(radii), np.log(vols), 1)[0])
    assert 2.9 <= slope <= 3.1
    announce(8, "regularity scale law",
             f"r_f law to 1% at 50 points, volume slope {slope:.3f}")


# ---------------------------------------------------------------------------
# 9. stratification geometry
# ---------------------------------------------------------------------------

def test_09_stratification_geometry():
    f = radial_projection(3)
    r = 2.0**-6
    epsilon = 0.3
    stratum = quantitative_stratum(f, 0, epsilon, r, grid_step=2.0**-4, radius=1.0)
    assert stratum.count >= 1
    assert np.all(np.linalg.norm(stratum.positions, axis=1) <= 8 * r)

    rhos = [2.0**-2, 2.0**-1, 1.0, 2.0]
    cells = [rho / div for rho, div in zip(rhos, (8.0, 9.0, 10.0, 11.0))]
    vols = [union_ball_volume(stratum.positions, rho, cell=c)
            for rho, c in zip(rhos, cells)]
    slope = float(np.polyfit(np.log(rhos), np.log(vols), 1)[0])
    assert 2.8 <= slope <= 3.2

    # iterated cover drains the energy-drop balls within ceil(E / eta) levels
    g = smoothed_projection(3, core=0.02)
    eta = 0.5
    levels, _ = iterate_cover(g, Ball(np.zeros(3), 0.5), 0, 0.25, 2.0**-4, eta,
                              grid_step=2.0**-3)
    E = levels[0][0].energy_sup
    assert len(levels) >= 2
    assert len(levels) <= int(np.ceil(E / eta)) + 1
    assert all(not rep.U_plus for rep in levels[-1])
    announce(9, "stratification geometry",
             f"stratum in B(8r), minkowski slope {slope:.2f}, cover drains in "
             f"{len(levels)} levels (bound {int(np.ceil(E / eta)) + 1})")


# ---------------------------------------------------------------------------
# 10. best-approximation inequality
# ---------------------------------------------------------------------------

def test_10_best_approx_inequality():
    rng = np.random.default_rng(110)
    f = radial_projection(3)
    shell = rng.normal(size=(12, 3))
    shell = 0.3 * shell / np.linalg.norm(shell, axis=1, keepdims=True)
    mu1 = AtomicMeasure(np.vstack([np.zeros(3), shell]))

    g = translation_invariant(3, 1)
    xs = np.linspace(-0.3, 0.3, 9)
    mu2 = AtomicMeasure(np.stack([xs, np.zeros_like(xs), np.zeros_like(xs)], axis=1))

    for field, mu, k in [(f, mu1, 0), (g, mu2, 0)]:
        coarse = best_approx_check(field, mu, np.zeros(3), 0.5, k, epsilon=0.1)
        fine = best_approx_check(field, mu, np.zeros(3), 0.5, k, epsilon=0.1,
                                 quad_panels=48, quad_order=16)
        assert coarse["rhs"] > 0 and np.isfinite(coarse["ratio"])
        assert coarse["lhs"] <= coarse["ratio"] * coarse["rhs"] * (1 + 1e-12)
        # constant stability under halving the quadrature step
        assert fine["ratio"] == pytest.approx(coarse["ratio"], rel=0.2)
    announce(10, "best approximation",
             "both fixtures: finite ratio, stable within 20% under refinement")


# ---------------------------------------------------------------------------
# 11. determinism
# ---------------------------------------------------------------------------

def test_11_determinism(tmp_path):
    from msgeom.cli import main, write_cloud_csv

    mu = circle_cloud(count=300, noise=1e-3, seed=111)
    cloud = tmp_path / "cloud.csv"
    write_cloud_csv(str(cloud), mu)
    centers, radii = dyadic_segment_family(levels=4)
    balls = tmp_path / "balls.csv"
    with open(balls, "w") as fh:
        for c, r in zip(centers, radii):
            fh.write(f"{c[0]:.17g},{c[1]:.17g},{r:.17g}\n")

    commands = {
        "beta": ["beta", "--input", str(cloud), "--dim", "2", "--k", "1"],
        "fit-plane": ["fit-plane", "--input", str(cloud), "--dim", "2", "--k", "1"],
        "reconstruct": ["reconstruct", "--input", str(cloud), "--dim", "2",
                        "--k", "1", "--scales", "4", "--delta", "0.3"],
        "pack": ["pack", "--input", str(balls), "--dim", "2", "--k", "1"],
        "stratify": ["stratify", "--fixture", "smooth", "--dim", "3", "--k", "0",
                     "--epsilon", "0.05", "--r-min", "0.125", "--grid-step", "0.5"],
    }
    for name, argv in commands.items():
        outputs = []
        for threads in ("1", "4"):
            out = tmp_path / f"{name}-{threads}.json"
            code = main(argv + ["--seed", "9", "--threads", threads,
                                "--output", str(out)])
            assert code in (0, 4)
            blobs = [out.read_bytes()]
            side = out.with_name(out.name + ".summary.json")
            if side.exists():
                blobs.append(side.read_bytes())
            side_csv = out.with_name(out.name + ".csv")
            if side_csv.exists():
                blobs.append(side_csv.read_bytes())
            outputs.append(b"".join(blobs))
        assert outputs[0] == outputs[1], f"{name} report not byte-identical"
    announce(11, "determinism", "all five commands byte-identical across thread counts")
