"""Iterative near-flat set reconstruction.

Starting from the coarsest scale at which a weighted point set is flat (its
displacement profile is small), the construction maintains a sampled
k-manifold as a union of graph patches over local best-fit planes and pushes
it down scale by scale through interpolation maps

    sigma(x) = x + sum_i lambda_i(x) * proj_{V_i^perp}(p_i - x),

one per scale, built from a partition of unity at that scale's good centers.
The composed map phi, its per-step motion, sampled bi-Lipschitz distortion,
per-patch graph norms, and plane coherence are all measured and logged; the
final atlas supports k-measure estimation and inversion by per-patch Newton
iteration.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import PlaneFitError, SeparationError
from .geometry import AffinePlane, Ball
from .moments import (DisplacementConfig, ball_masses_many, displacement_profile_many,
                      second_moment_spectrum, summability_check, unit_ball_volume)


# ---------------------------------------------------------------------------
# partition of unity
# ---------------------------------------------------------------------------

def _chi(t):
    """C1 cubic taper: 1 on [0, 2], Hermite ramp on (2, 3), 0 beyond."""
    t = np.asarray(t, dtype=float)
    s = np.clip(t - 2.0, 0.0, 1.0)
    val = (1.0 - s) ** 2 * (1.0 + 2.0 * s)
    return np.where(t <= 2.0, 1.0, np.where(t >= 3.0, 0.0, val))


class PartitionOfUnity:
    """Normalized bump weights at r-separated centers.

    Raw bumps chi(|x - x_i| / r) are divided by max(sum, 1), which makes the
    weights sum to exactly 1 on the union of the B_2r(x_i) while keeping
    support inside the B_3r(x_i).
    """

    def __init__(self, centers, r):
        centers = np.atleast_2d(np.asarray(centers, dtype=float))
        if centers.shape[0] == 0:
            raise ValueError("partition needs at least one center")
        r = float(r)
        if r <= 0:
            raise ValueError("partition scale must be positive")
        m = centers.shape[0]
        for i in range(m):
            d = np.linalg.norm(centers[i + 1 :] - centers[i], axis=1)
            bad = np.flatnonzero(d < r * (1.0 - 1e-9))
            if len(bad):
                j = int(bad[0]) + i + 1
                raise SeparationError(
                    f"centers {i} and {j} are {d[bad[0]]:.6g} apart, "
                    f"closer than the scale {r:.6g}",
                    pair=(i, j),
                )
        self.centers = centers
        self.r = r

    @property
    def count(self):
        return self.centers.shape[0]

    def raw_weights(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        d = np.linalg.norm(pts[:, None, :] - self.centers[None, :, :], axis=2)
        return _chi(d / self.r)

    def weights(self, points):
        """(N, m) weight matrix lambda_i(x_j)."""
        raw = self.raw_weights(points)
        denom = np.maximum(raw.sum(axis=1), 1.0)
        return raw / denom[:, None]

    def leftover(self, points):
        """psi = 1 - sum_i lambda_i."""
        return 1.0 - self.weights(points).sum(axis=1)

    def weight_gradients(self, point, h=None):
        """(m, n) central-difference gradients of the weights at one point."""
        point = np.asarray(point, dtype=float)
        n = point.shape[0]
        h = h or 1e-6 * self.r
        grads = np.zeros((self.count, n))
        for a in range(n):
            e = np.zeros(n)
            e[a] = h
            grads[:, a] = (self.weights(point + e)[0] - self.weights(point - e)[0]) / (2 * h)
        return grads


def build_partition(centers, r):
    """Partition of unity with the package's taper; validates r-separation."""
    return PartitionOfUnity(centers, r)


# ---------------------------------------------------------------------------
# sigma maps
# ---------------------------------------------------------------------------

class SigmaMap:
    """One interpolation step: projections onto per-center planes, blended."""

    def __init__(self, partition, planes):
        if len(planes) != partition.count:
            raise ValueError("one plane per partition center required")
        self.partition = partition
        self.planes = list(planes)

    def apply(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        single = np.asarray(points).ndim == 1
        lam = self.partition.weights(pts)
        out = pts.copy()
        for i, plane in enumerate(self.planes):
            active = lam[:, i] > 0.0
            if not active.any():
                continue
            v = plane.base - pts[active]  # p_i - x
            perp = v - (v @ plane.directions.T) @ plane.directions
            out[active] += lam[active, i, None] * perp
        return out[0] if single else out

    def jacobian(self, point, h=None):
        """Central-difference Jacobian at one point."""
        point = np.asarray(point, dtype=float)
        n = point.shape[0]
        h = h or 1e-6 * self.partition.r
        J = np.zeros((n, n))
        for a in range(n):
            e = np.zeros(n)
            e[a] = h
            J[:, a] = (self.apply(point + e) - self.apply(point - e)) / (2 * h)
        return J


def sigma_apply(sigma, x):
    """sigma(x) = x + sum_i lambda_i(x) proj_{V_i^perp}(p_i - x)."""
    return sigma.apply(x)


# ---------------------------------------------------------------------------
# atlas records
# ---------------------------------------------------------------------------

@dataclass
class PatchRecord:
    center: np.ndarray
    radius: float
    plane: AffinePlane
    graph_sup: float      # max |g| over patch samples
    graph_lip: float      # sampled Lipschitz constant of g
    coherence: float      # sampled plane distance to the parent-scale plane


@dataclass
class ScaleRecord:
    index: int
    radius: float
    patches: list
    sigma: SigmaMap | None
    motion_max: float          # max |sigma(y) - y| over incoming samples
    distortion: float          # max sampled bi-Lipschitz ratio of this step
    flatness: float            # sqrt(max displacement) driving this scale
    cover_state: object = None # good/bad/remainder bookkeeping at this scale


@dataclass
class ManifoldAtlas:
    k: int
    root_ball: Ball
    cfg: DisplacementConfig
    scales: list                    # ScaleRecord, coarse to fine
    samples_per_scale: list         # sample arrays, aligned with `scales`
    sample_alive: np.ndarray        # holes variant: samples kept in T'
    sample_component: np.ndarray    # originating initial patch of each sample
    initial_samples: np.ndarray
    summability_ok: bool
    atom_distances: np.ndarray      # final distance of each atom to the manifold
    covered: np.ndarray             # atoms within the coverage tolerance
    coverage_tol: float

    @property
    def final_samples(self):
        return self.samples_per_scale[-1]

    @property
    def final_scale(self):
        return self.scales[-1]

    def apply_phi(self, points):
        """The composed map phi = sigma_I o ... o sigma_1 on arbitrary points."""
        out = np.atleast_2d(np.asarray(points, dtype=float))
        for rec in self.scales:
            if rec.sigma is not None:
                out = rec.sigma.apply(out)
        return out[0] if np.asarray(points).ndim == 1 else out

    def total_distortion_bound(self):
        """Product of the per-step sampled distortions."""
        prod = 1.0
        for rec in self.scales:
            prod *= max(rec.distortion, 1.0)
        return prod

    def invert(self, y, tol=1e-10, max_iter=20):
        """phi^{-1}(y) by Newton iteration in the seed's initial patch chart.

        The seed is the initial position of the tracer sample whose image is
        closest to y; Newton runs on the k in-plane coordinates.
        """
        y = np.asarray(y, dtype=float)
        final = self.final_samples
        j = int(np.argmin(np.linalg.norm(final - y, axis=1)))
        # chart: the initial patch plane nearest the seed's initial position
        x0 = self.initial_samples[j]
        best = None
        for patch in self.scales[0].patches:
            d = np.linalg.norm(patch.center - x0)
            if best is None or d < best[0]:
                best = (d, patch.plane)
        plane = best[1]
        u = plane.coordinates(x0)[0]
        for _ in range(max_iter):
            x = plane.point_at(u)
            fx = self.apply_phi(x)
            res = (fx - y) @ plane.directions.T
            if np.linalg.norm(res) < tol:
                break
            h = 1e-7 * max(1.0, np.linalg.norm(u))
            J = np.zeros((self.k, self.k))
            for a in range(self.k):
                e = np.zeros(self.k)
                e[a] = h
                fp = self.apply_phi(plane.point_at(u + e))
                fm = self.apply_phi(plane.point_at(u - e))
                J[:, a] = ((fp - fm) @ plane.directions.T) / (2 * h)
            try:
                step = np.linalg.solve(J, res)
            except np.linalg.LinAlgError:
                break
            u = u - step
        return plane.point_at(u)

    def export_json(self, path):
        doc = {"schema": 1, "k": self.k,
               "root": {"center": list(self.root_ball.center), "radius": self.root_ball.radius},
               "summability_ok": bool(self.summability_ok),
               "scales": []}
        for rec in self.scales:
            doc["scales"].append({
                "index": rec.index,
                "radius": rec.radius,
                "motion_max": rec.motion_max,
                "distortion": rec.distortion,
                "flatness": rec.flatness,
                "patches": [
                    {
                        "center": list(p.center),
                        "radius": p.radius,
                        "plane_base": list(p.plane.base),
                        "plane_basis": [list(row) for row in p.plane.directions],
                        "graph_sup": p.graph_sup,
                        "graph_lip": p.graph_lip,
                        "coherence": p.coherence,
                    }
                    for p in rec.patches
                ],
            })
        from .report import dump_json

        dump_json(doc, path)
        return doc


# ---------------------------------------------------------------------------
# reconstruction driver
# ---------------------------------------------------------------------------

def _greedy_separated(positions, candidates, r):
    """Greedy maximal r-separated subset (by candidate order)."""
    chosen = []
    for j in candidates:
        a = positions[j]
        if chosen and np.linalg.norm(positions[chosen] - a, axis=1).min() < r:
            continue
        chosen.append(j)
    return np.array(chosen, dtype=int)


def _separated_good_centers(mu, r, gamma, k, masses):
    """Greedy maximal r-separated subset of atoms whose r-ball is good;
    masses[j] is mu(B_r(x_j))."""
    cand = np.flatnonzero(masses >= gamma * r**k)
    idx = _greedy_separated(mu.positions, cand, r)
    return mu.positions[idx] if len(idx) else np.zeros((0, mu.ambient_dim))


def _bad_centers(mu, r, gamma, k, good_centers, masses):
    """Greedy r-separated centers among atoms with deficient local mass."""
    cand = np.flatnonzero(masses < gamma * r**k)
    if good_centers.shape[0]:
        keep = [j for j in cand
                if np.linalg.norm(good_centers - mu.positions[j], axis=1).min() >= r]
        cand = np.array(keep, dtype=int)
    idx = _greedy_separated(mu.positions, cand, r)
    return mu.positions[idx] if len(idx) else np.zeros((0, mu.ambient_dim))


def _fit_patch_plane(mu, center, r, k, cfg):
    ball = Ball(center, r)
    idx = mu.indices_in_ball(ball)
    mass = float(mu.weights[idx].sum())
    if len(idx) < k + 1 or mass < cfg.eps_mass * r**k:
        raise PlaneFitError(
            f"plane fit impossible on the good ball at {np.round(center, 6).tolist()} "
            f"radius {r:.6g}: {len(idx)} atoms, mass {mass:.3g}",
            center=center,
            radius=r,
        )
    return second_moment_spectrum(mu, ball).plane(k)


def _grid_disk(k, radius, spacing):
    """Grid coordinates covering the k-disk of the given radius."""
    axes = [np.arange(-radius, radius + spacing * 0.5, spacing)] * k
    mesh = np.meshgrid(*axes, indexing="ij")
    coords = np.stack([m.ravel() for m in mesh], axis=1)
    return coords[np.linalg.norm(coords, axis=1) <= radius]


def _probe_flatness(mu, r, k, cfg, probe_limit=400):
    """sqrt(max displacement at scale 2r over a deterministic atom probe)."""
    step = max(1, mu.count // probe_limit)
    probe = mu.positions[::step]
    vals = displacement_profile_many(mu, probe, 2.0 * r, k, cfg)
    return math.sqrt(vals.max()) if len(vals) else 0.0


def _patch_stats(samples, plane, center, radius, parent_plane):
    """Graph sup/Lip of samples over the plane, plus parent-plane coherence."""
    rel = np.linalg.norm(samples - center, axis=1) <= radius
    pts = samples[rel]
    if pts.shape[0] < 2:
        return 0.0, 0.0, 0.0
    u = plane.coordinates(pts)
    lift = plane.point_at(u)
    lift = np.atleast_2d(lift)
    v = pts - lift
    heights = np.linalg.norm(v, axis=1)
    sup = float(heights.max())
    cap = min(pts.shape[0], 300)
    sel = np.linspace(0, pts.shape[0] - 1, cap).astype(int)
    du = np.linalg.norm(u[sel][:, None, :] - u[sel][None, :, :], axis=2)
    dv = np.linalg.norm(v[sel][:, None, :] - v[sel][None, :, :], axis=2)
    finite = du[du > 1e-12]
    if finite.size == 0:
        return sup, 0.0, 0.0
    spacing = np.median(np.where(du > 1e-12, du, np.inf).min(axis=1))
    mask = du >= max(3.0 * spacing, 1e-12)
    lip = float((dv[mask] / du[mask]).max()) if mask.any() else 0.0
    if parent_plane is None:
        coh = 0.0
    else:
        probe = plane.point_at(_grid_disk(plane.k, radius, radius / 4.0))
        coh = float(np.max(parent_plane.distance(np.atleast_2d(probe))))
    return sup, lip, coh


def reconstruct(
    mu,
    k,
    cfg,
    max_scale_count,
    root_ball=None,
    flat_tol=0.2,
    sample_density=10,
    coverage_factor=4.0,
    seed=0,
    check_summability=True,
):
    """Run the multiscale flattening construction on a weighted point set.

    Scales shrink by cfg.rho per step starting from the coarsest scale whose
    probed displacement is below flat_tol**2.  At each scale, good centers
    get best-fit planes and a partition of unity, the resulting sigma map is
    applied to the tracked manifold samples, and graph/distortion statistics
    are recorded.  Balls failing the good-mass test are excised from the
    hole-tracking copy of the manifold at radius scale/6.
    """
    if mu.count == 0:
        raise PlaneFitError("cannot reconstruct from an empty measure")
    root = root_ball or mu.bounding_ball(margin=1e-9)
    if check_summability:
        ok, value = summability_check(mu, root, k, cfg)
        if not ok:
            warnings.warn(
                f"summed displacement {value:.4g} exceeds delta^2 = {cfg.delta**2:.4g} "
                "on the root ball; reconstructing anyway",
                stacklevel=2,
            )
    else:
        ok = True

    # coarsest flat scale
    radii = [root.radius * cfg.rho**i for i in range(max_scale_count)]
    flats = [_probe_flatness(mu, r, k, cfg) for r in radii]
    start = next((i for i, f in enumerate(flats) if f <= flat_tol), None)
    if start is None:
        warnings.warn("no scale within max_scale_count is flat; starting at the finest",
                      stacklevel=2)
        start = max_scale_count - 1
    scale_radii = radii[start:]
    r0 = scale_radii[0]
    r_final = scale_radii[-1]

    # initial manifold: union of best-plane disks at the start scale
    centers0 = _separated_good_centers(mu, r0, cfg.gamma_good, k,
                                       ball_masses_many(mu, mu.positions, r0))
    if centers0.shape[0] == 0:
        raise PlaneFitError("no good ball at the starting scale", radius=r0)
    planes0 = [_fit_patch_plane(mu, c, r0, k, cfg) for c in centers0]
    spacing = r_final / sample_density
    pieces = []
    for c, plane in zip(centers0, planes0):
        coords = _grid_disk(k, 1.5 * r0, spacing)
        # recenter the disk on the projection of the patch center
        coords = coords + plane.coordinates(c)[0]
        pts = np.atleast_2d(plane.point_at(coords))
        d_own = np.linalg.norm(pts - c, axis=1)
        d_all = np.min(
            np.linalg.norm(pts[:, None, :] - centers0[None, :, :], axis=2), axis=1
        )
        keep = d_own <= d_all + 1e-12  # Voronoi dedup across overlapping patches
        pieces.append(pts[keep])
    samples = np.vstack(pieces)
    component = np.concatenate(
        [np.full(len(piece), ci, dtype=int) for ci, piece in enumerate(pieces)]
    )
    initial_samples = samples.copy()
    alive = np.ones(samples.shape[0], dtype=bool)

    patches0 = []
    for c, pl in zip(centers0, planes0):
        sup, lip, coh = _patch_stats(samples, pl, c, 1.5 * r0, None)
        patches0.append(PatchRecord(center=c, radius=1.5 * r0, plane=pl,
                                    graph_sup=sup, graph_lip=lip, coherence=coh))
    scales = [ScaleRecord(index=start, radius=r0, patches=patches0, sigma=None,
                          motion_max=0.0, distortion=1.0, flatness=flats[start])]
    samples_per_scale = [samples.copy()]
    rng = np.random.default_rng(seed)

    prev_centers, prev_planes = centers0, planes0
    for step, r in enumerate(scale_radii[1:], start=1):
        masses = ball_masses_many(mu, mu.positions, r)
        centers = _separated_good_centers(mu, r, cfg.gamma_good, k, masses)
        if centers.shape[0] == 0:
            scales.append(ScaleRecord(index=start + step, radius=r, patches=[],
                                      sigma=None, motion_max=0.0, distortion=1.0,
                                      flatness=_probe_flatness(mu, r, k, cfg)))
            samples_per_scale.append(samples.copy())
            continue
        planes = [_fit_patch_plane(mu, c, r, k, cfg) for c in centers]
        sigma = SigmaMap(build_partition(centers, r), planes)

        moved = sigma.apply(samples)
        motion = float(np.linalg.norm(moved - samples, axis=1).max())
        distortion = _sampled_distortion(samples, moved, r, rng, component=component)

        # holes: excise around bad-mass centers at radius r/6
        bad = _bad_centers(mu, r, cfg.gamma_good, k, centers, masses)
        if bad.shape[0]:
            d_bad = np.min(
                np.linalg.norm(samples[:, None, :] - bad[None, :, :], axis=2), axis=1
            )
            alive &= d_bad > r / 6.0
        from .covering import CoverState  # deferred: covering imports harmonic

        state = CoverState(index=start + step, good_centers=centers,
                           bad_centers=bad, final_centers=np.zeros((0, mu.ambient_dim)),
                           remainder_count=int((~alive).sum()))

        samples = moved
        patch_records = []
        for c, pl in zip(centers, planes):
            d_parent = np.linalg.norm(prev_centers - c, axis=1)
            j = int(np.argmin(d_parent))
            parent = prev_planes[j] if d_parent[j] <= 3.0 * r / cfg.rho else None
            sup, lip, coh = _patch_stats(samples, pl, c, 1.5 * r, parent)
            patch_records.append(PatchRecord(center=c, radius=1.5 * r, plane=pl,
                                             graph_sup=sup, graph_lip=lip, coherence=coh))
        scales.append(ScaleRecord(index=start + step, radius=r, patches=patch_records,
                                  sigma=sigma, motion_max=motion, distortion=distortion,
                                  flatness=_probe_flatness(mu, r, k, cfg),
                                  cover_state=state))
        samples_per_scale.append(samples.copy())
        prev_centers, prev_planes = centers, planes

    # coverage accounting
    dists = np.array(
        [np.linalg.norm(samples - a, axis=1).min() for a in mu.positions]
    )
    tol = coverage_factor * max(spacing, cfg.delta * r_final)
    local_mass = ball_masses_many(mu, mu.positions, r_final)
    covered = (dists <= tol) | (local_mass < cfg.gamma_good * r_final**k)

    return ManifoldAtlas(
        k=k,
        root_ball=root,
        cfg=cfg,
        scales=scales,
        samples_per_scale=samples_per_scale,
        sample_alive=alive,
        sample_component=component,
        initial_samples=initial_samples,
        summability_ok=ok,
        atom_distances=dists,
        covered=covered,
        coverage_tol=tol,
    )


def _sampled_distortion(before, after, r, rng, pair_count=2000, component=None):
    """Max two-sided stretch ratio over random sample pairs at scale <= r.

    Pairs straddling two initial patches are excluded when component labels
    are given: the graph there has a seam-sized jump that measures initial
    patch mismatch, not the stretching of the map.
    """
    m = before.shape[0]
    if m < 2:
        return 1.0
    ii = rng.integers(0, m, size=pair_count * 6)
    jj = rng.integers(0, m, size=pair_count * 6)
    d0 = np.linalg.norm(before[ii] - before[jj], axis=1)
    keep = (d0 > 1e-12) & (d0 <= 1.5 * r)
    if component is not None:
        keep &= component[ii] == component[jj]
    ii, jj, d0 = ii[keep][:pair_count], jj[keep][:pair_count], d0[keep][:pair_count]
    if len(d0) == 0:
        return 1.0
    d1 = np.linalg.norm(after[ii] - after[jj], axis=1)
    ratios = d1 / d0
    ratios = ratios[ratios > 0]
    if len(ratios) == 0:
        return 1.0
    return float(max(ratios.max(), (1.0 / ratios).max()))


def bilipschitz_distortion(atlas, step, pair_count=4000, seed=1):
    """Recompute the sampled bi-Lipschitz constant of sigma_step on T_{step-1}.

    Pairs are drawn from the stored samples at the previous scale; coincident
    pairs are skipped.  Returns a scalar >= 1.
    """
    if not 1 <= step < len(atlas.scales):
        raise IndexError(f"step must be in [1, {len(atlas.scales) - 1}]")
    rec = atlas.scales[step]
    if rec.sigma is None:
        return 1.0
    before = atlas.samples_per_scale[step - 1]
    rng = np.random.default_rng(seed)
    after = rec.sigma.apply(before)
    return _sampled_distortion(before, after, rec.radius, rng, pair_count,
                               component=atlas.sample_component)


# ---------------------------------------------------------------------------
# measure estimation
# ---------------------------------------------------------------------------

def _chain_samples_1d(samples):
    """Order curve samples by nearest-neighbor walking; returns index order
    and whether the chain closes into a loop."""
    m = samples.shape[0]
    used = np.zeros(m, dtype=bool)
    order = [0]
    used[0] = True
    # median spacing guard
    d_nn = []
    for j in range(0, m, max(1, m // 50)):
        d = np.linalg.norm(samples - samples[j], axis=1)
        d[j] = np.inf
        d_nn.append(d.min())
    guard = 6.0 * np.median(d_nn)
    while True:
        cur = samples[order[-1]]
        d = np.linalg.norm(samples - cur, axis=1)
        d[used] = np.inf
        j = int(np.argmin(d))
        if not np.isfinite(d[j]) or d[j] > guard:
            break
        order.append(j)
        used[j] = True
    closes = np.linalg.norm(samples[order[0]] - samples[order[-1]]) <= guard
    return np.array(order, dtype=int), bool(closes)


def _clip_segment_to_ball(a, b, ball):
    """Length of [a, b] inside the closed ball (exact quadratic clipping)."""
    d = b - a
    f = a - ball.center
    A = float(d @ d)
    if A == 0.0:
        return 0.0
    B = 2.0 * float(f @ d)
    C = float(f @ f) - ball.radius**2
    disc = B * B - 4 * A * C
    if disc <= 0.0:
        return 0.0 if C > 0 else math.sqrt(A)
    sq = math.sqrt(disc)
    t0 = max(0.0, (-B - sq) / (2 * A))
    t1 = min(1.0, (-B + sq) / (2 * A))
    return max(0.0, t1 - t0) * math.sqrt(A)


def _coplanar_plane(atlas, tol=1e-10):
    """The common plane when every final patch is flat and coplanar, else None."""
    patches = atlas.final_scale.patches or atlas.scales[0].patches
    if not patches:
        return None
    ref = patches[0].plane
    scale = atlas.root_ball.radius
    from .geometry import grassmann_distance

    for p in patches:
        lin_ref = AffinePlane(np.zeros(ref.ambient_dim), ref.directions, _skip_checks=True)
        lin_p = AffinePlane(np.zeros(ref.ambient_dim), p.plane.directions, _skip_checks=True)
        if grassmann_distance(lin_ref, lin_p) > tol:
            return None
        if ref.distance(p.plane.base) > tol * scale:
            return None
        if p.graph_sup > tol * scale:
            return None
    return ref


def measure_estimate(atlas, ball):
    """k-dimensional measure of the final manifold inside a ball.

    Flat atlases use the exact disk formula.  k = 1 uses exact polyline
    clipping of the chained samples; k >= 2 integrates patch graphs over
    Voronoi-assigned plane cells with fractional boundary cells.
    """
    root = atlas.root_ball
    if np.linalg.norm(ball.center - root.center) > root.radius + ball.radius:
        raise ValueError("query ball lies outside the root ball")
    k = atlas.k

    plane = _coplanar_plane(atlas)
    if plane is not None:
        d = plane.distance(ball.center)
        if d >= ball.radius:
            return 0.0
        rho = math.sqrt(ball.radius**2 - d**2)
        return unit_ball_volume(k) * rho**k

    samples = atlas.final_samples[atlas.sample_alive]
    if k == 1:
        order, closes = _chain_samples_1d(samples)
        chain = samples[order]
        segs = list(zip(chain[:-1], chain[1:]))
        if closes and len(chain) > 2:
            segs.append((chain[-1], chain[0]))
        return float(sum(_clip_segment_to_ball(a, b, ball) for a, b in segs))

    # k >= 2: integrate over final patch graphs
    patches = atlas.final_scale.patches
    centers = np.array([p.center for p in patches])
    total = 0.0
    for pi, patch in enumerate(patches):
        plane = patch.plane
        h = patch.radius / 12.0
        coords = _grid_disk(k, patch.radius, h)
        rel = np.linalg.norm(samples - patch.center, axis=1) <= patch.radius * 1.2
        local = samples[rel]
        if local.shape[0] < k + 1:
            continue
        u_local = plane.coordinates(local)
        v_local = local - np.atleast_2d(plane.point_at(u_local))
        shift = plane.coordinates(patch.center)[0]
        for cell in coords:
            u = cell + shift
            x = _lift(plane, u, u_local, v_local)
            d_all = np.linalg.norm(centers - x, axis=1)
            if int(np.argmin(d_all)) != pi:
                continue
            # metric factor from neighboring lifts
            area = h**k * _graph_area_factor(plane, u, u_local, v_local, h)
            frac = _ball_fraction(plane, u, u_local, v_local, h, ball, k)
            total += area * frac
    return float(total)


def _lift(plane, u, u_local, v_local, neighbors=6):
    d = np.linalg.norm(u_local - u, axis=1)
    idx = np.argsort(d, kind="stable")[:neighbors]
    w = 1.0 / np.maximum(d[idx], 1e-12)
    v = (v_local[idx] * w[:, None]).sum(axis=0) / w.sum()
    return np.atleast_2d(plane.point_at(u[None, :]))[0] + v


def _graph_area_factor(plane, u, u_local, v_local, h):
    k = u.shape[0]
    grads = []
    for a in range(k):
        e = np.zeros(k)
        e[a] = h * 0.5
        gp = _lift(plane, u + e, u_local, v_local)
        gm = _lift(plane, u - e, u_local, v_local)
        grads.append((gp - gm) / h)
    G = np.array(grads)  # k x n tangent vectors of the lifted graph
    return math.sqrt(max(np.linalg.det(G @ G.T), 0.0)) if G.size else 1.0


def _ball_fraction(plane, u, u_local, v_local, h, ball, k, sub=4):
    """Fraction of the cell at u whose lift lies in the ball (subgrid count)."""
    corners_in = []
    offs = np.linspace(-0.5 * h + h / (2 * sub), 0.5 * h - h / (2 * sub), sub)
    mesh = np.meshgrid(*([offs] * k), indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    count = 0
    for off in pts:
        x = _lift(plane, u + off, u_local, v_local)
        if np.linalg.norm(x - ball.center) <= ball.radius:
            count += 1
    return count / len(pts)
