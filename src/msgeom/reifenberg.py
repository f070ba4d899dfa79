"""Iterative near-flat set reconstruction.

Starting from the coarsest scale at which a weighted point set is flat (its
displacement profile is small), the construction maintains a sampled
k-manifold as a union of graph patches over local best-fit planes and pushes
it down scale by scale through interpolation maps

    sigma(x) = x + sum_i lambda_i(x) * proj_{V_i^perp}(p_i - x),

one per scale, built from a partition of unity at that scale's good centers
(David & Toro, Reifenberg parameterizations, 2012).  One loop runs over the
scales: its first pass lays the start scale's best-plane disks T_0, and each
later pass applies one sigma step to the previous samples.  A scale's best-fit
planes come from one `second_moment_spectra` batch, and its patch samples from
one `neighborhoods` query; patch Lipschitz pairs and partition weights take
their distances from `pairwise_distances`.  The composed map phi, its per-step
motion, sampled bi-Lipschitz distortion, per-patch graph norms, and plane
coherence are all measured and logged; the final atlas supports k-measure
estimation (polyline clipping for curves, batched graph lifts through
`SpatialIndex.knn` for k >= 2) and inversion by per-patch Newton iteration.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.random import default_rng

from .errors import PlaneFitError, SeparationError
from .geometry import AffinePlane, Ball, SpatialIndex, grassmann_distance, pairwise_distances
from .moments import (ball_masses_many, displacement_profile_many, second_moment_spectra,
                      summability_check, unit_ball_volume)
from .report import dump_json

_SAMPLE_DENSITY = 10         # manifold samples per final radius
_COVERAGE_FACTOR = 4.0       # coverage tolerance in sample spacings (or delta r)
_PROBE_LIMIT = 400           # atoms probed per flatness test
_LIFT_NEIGHBORS = 6          # graph samples averaged by a lift
_COPLANAR_TOL = 1e-10        # relative tolerance of the flat-atlas test
_NEWTON_TOL = 1e-10
_NEWTON_STEPS = 20
_DISTORTION_PAIRS = 4000     # sample pairs of bilipschitz_distortion
_DISTORTION_SEED = 1


# ---------------------------------------------------------------------------
# partition of unity
# ---------------------------------------------------------------------------

def _central_difference(f, x, h):
    """Central-difference Jacobian of f at x: column a is
    (f(x + h e_a) - f(x - h e_a)) / (2h)."""
    x = np.asarray(x, dtype=float)
    cols = []
    for a in range(x.shape[0]):
        e = np.zeros(x.shape[0])
        e[a] = h
        cols.append((f(x + e) - f(x - e)) / (2 * h))
    return np.stack(cols, axis=-1)


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
        # the first close pair (i, j), i < j, in lexicographic order
        indptr, nbrs = SpatialIndex(centers).neighborhoods(centers, r * (1.0 - 1e-9))
        rows = np.repeat(np.arange(centers.shape[0]), np.diff(indptr))
        later = nbrs > rows
        if later.any():
            i = int(rows[later].min())
            j = int(nbrs[later & (rows == i)].min())
            raise SeparationError(
                f"centers {i} and {j} are {np.linalg.norm(centers[j] - centers[i]):.6g} "
                f"apart, closer than the scale {r:.6g}",
                pair=(i, j),
            )
        self.centers = centers
        self.r = r

    @property
    def count(self):
        return self.centers.shape[0]

    def weights(self, points):
        """(N, m) weight matrix lambda_i(x_j)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        raw = _chi(pairwise_distances(pts, self.centers) / self.r)
        denom = np.maximum(raw.sum(axis=1), 1.0)
        return raw / denom[:, None]

    def leftover(self, points):
        """psi = 1 - sum_i lambda_i."""
        return 1.0 - self.weights(points).sum(axis=1)

    def weight_gradients(self, point):
        """(m, n) central-difference gradients of the weights at one point."""
        return _central_difference(lambda p: self.weights(p)[0], point, 1e-6 * self.r)


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

    def jacobian(self, point):
        """Central-difference Jacobian at one point."""
        return _central_difference(self.apply, point, 1e-6 * self.partition.r)


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
class CoverState:
    """Centers of one scale that carried enough mass to continue (good) and
    the mass-deficient ones excised as holes (bad)."""

    good_centers: np.ndarray
    bad_centers: np.ndarray


@dataclass
class ScaleRecord:
    # the defaults are those of a scale without a sigma step
    index: int
    radius: float
    flatness: float            # sqrt(max displacement) driving this scale
    patches: list = field(default_factory=list)
    sigma: SigmaMap | None = None
    motion_max: float = 0.0    # max |sigma(y) - y| over incoming samples
    distortion: float = 1.0    # max sampled bi-Lipschitz ratio of this step
    cover_state: CoverState | None = None


@dataclass
class ManifoldAtlas:
    k: int
    root_ball: Ball
    scales: list                    # ScaleRecord, coarse to fine
    samples_per_scale: list         # sample arrays, aligned with `scales`
    sample_alive: np.ndarray        # holes variant: samples kept in T'
    sample_component: np.ndarray    # originating initial patch of each sample
    summability_ok: bool
    atom_distances: np.ndarray      # final distance of each atom to the manifold
    covered: np.ndarray             # atoms within the coverage tolerance
    coverage_tol: float

    @property
    def initial_samples(self):
        return self.samples_per_scale[0]

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
        return math.prod(max(rec.distortion, 1.0) for rec in self.scales)

    def invert(self, y):
        """phi^{-1}(y) by Newton iteration in the seed's initial patch chart.

        The seed is the initial position of the tracer sample whose image is
        closest to y; Newton runs on the k in-plane coordinates.
        """
        y = np.asarray(y, dtype=float)
        final = self.final_samples
        j = int(np.argmin(np.linalg.norm(final - y, axis=1)))
        # chart: the initial patch plane nearest the seed's initial position
        x0 = self.initial_samples[j]
        patches = self.scales[0].patches
        d = np.linalg.norm(np.array([p.center for p in patches]) - x0, axis=1)
        plane = patches[int(np.argmin(d))].plane
        u = plane.coordinates(x0)
        for _ in range(_NEWTON_STEPS):
            x = plane.point_at(u)
            fx = self.apply_phi(x)
            res = (fx - y) @ plane.directions.T
            if np.linalg.norm(res) < _NEWTON_TOL:
                break
            h = 1e-7 * max(1.0, np.linalg.norm(u))
            J = _central_difference(
                lambda v: self.apply_phi(plane.point_at(v)) @ plane.directions.T, u, h)
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
        dump_json(doc, path)
        return doc


# ---------------------------------------------------------------------------
# reconstruction driver
# ---------------------------------------------------------------------------

def _separated_good_centers(mu, r, good):
    """Greedy maximal r-separated subset of atoms whose r-ball is good;
    good[j] says whether B_r(x_j) is."""
    return mu.positions[mu._index.greedy_net(np.flatnonzero(good), r)]


def _bad_centers(mu, r, good, good_centers):
    """Greedy r-separated centers among atoms with deficient local mass
    at distance at least r from every good center."""
    cand = np.flatnonzero(~good)
    if good_centers.shape[0]:
        cand = cand[SpatialIndex(good_centers).nearest(mu.positions[cand]) >= r]
    return mu.positions[mu._index.greedy_net(cand, r)]


def _fit_patch_planes(mu, centers, r, k, cfg):
    """Best k-planes of the balls B_r(c), c in centers, from one batch;
    the first ball in center order with fewer than k+1 atoms or less mass
    than the cutoff raises PlaneFitError."""
    counts, spectra = second_moment_spectra(mu, centers, r)
    for center, count, spec in zip(centers, counts, spectra):
        if count < k + 1 or spec.mass < cfg.eps_mass * r**k:
            raise PlaneFitError(
                f"plane fit impossible on the good ball at {np.round(center, 6).tolist()} "
                f"radius {r:.6g}: {count} atoms, mass {spec.mass:.3g}",
                center=center,
                radius=r,
            )
    return [spec.plane(k) for spec in spectra]


def _grid_disk(k, radius, spacing):
    """Grid coordinates covering the k-disk of the given radius."""
    axes = [np.arange(-radius, radius + spacing * 0.5, spacing)] * k
    mesh = np.meshgrid(*axes, indexing="ij")
    coords = np.stack([m.ravel() for m in mesh], axis=1)
    return coords[Ball(np.zeros(k), radius).contains(coords)]


def _probe_flatness(mu, r, k, cfg):
    """sqrt(max displacement at scale 2r over a deterministic atom probe)."""
    step = max(1, mu.count // _PROBE_LIMIT)
    probe = mu.positions[::step]
    vals = displacement_profile_many(mu, probe, 2.0 * r, k, cfg)
    return math.sqrt(vals.max()) if len(vals) else 0.0


def _patch_stats(pts, plane, radius, parent_plane):
    """Graph sup/Lip over the plane of a patch's samples pts, plus
    parent-plane coherence."""
    if pts.shape[0] < 2:
        return 0.0, 0.0, 0.0
    u = plane.coordinates(pts)
    v = pts - plane.point_at(u)
    heights = np.linalg.norm(v, axis=1)
    sup = float(heights.max())
    cap = min(pts.shape[0], 300)
    sel = np.linspace(0, pts.shape[0] - 1, cap).astype(int)
    du = pairwise_distances(u[sel], u[sel])
    dv = pairwise_distances(v[sel], v[sel])
    apart = du > 1e-12
    if not apart.any():
        return sup, 0.0, 0.0
    spacing = np.median(np.where(apart, du, np.inf).min(axis=1))
    mask = du >= max(3.0 * spacing, 1e-12)
    lip = float((dv[mask] / du[mask]).max()) if mask.any() else 0.0
    if parent_plane is None:
        coh = 0.0
    else:
        probe = plane.point_at(_grid_disk(plane.k, radius, radius / 4.0))
        coh = float(np.max(parent_plane.distance(probe)))
    return sup, lip, coh


def _patch_records(index, centers, planes, r, parents=None):
    """Patch records of one scale over the samples of `index`.  `parents` is
    (centers, planes, reach) of the last scale with patches; coherence is
    measured against the plane of the nearest parent center if it lies
    within reach."""
    radius = 1.5 * r
    indptr, members = index.neighborhoods(centers, radius)
    if parents is not None:
        d_parent, j_parent = SpatialIndex(parents[0]).knn(centers, 1)
    records = []
    for i, (c, pl) in enumerate(zip(centers, planes)):
        parent = None
        if parents is not None and d_parent[i, 0] <= parents[2]:
            parent = parents[1][j_parent[i, 0]]
        # members in index order: `_patch_stats` subsamples by position
        pts = index.points[np.sort(members[indptr[i]:indptr[i + 1]])]
        records.append(PatchRecord(c, radius, pl, *_patch_stats(pts, pl, radius, parent)))
    return records


def _initial_samples(centers, planes, r, spacing):
    """T_0: on each plane, the disk of radius 1.5 r around the projected
    center sampled at `spacing`, keeping the samples nearest its own center
    (Voronoi dedup); returns the samples and the patch each came from."""
    disk = _grid_disk(planes[0].k, 1.5 * r, spacing)
    pts = np.stack([plane.point_at(disk + plane.coordinates(c))
                    for c, plane in zip(centers, planes)])
    nearest = SpatialIndex(centers).nearest(pts.reshape(-1, pts.shape[2])).reshape(pts.shape[:2])
    own = np.linalg.norm(pts - centers[:, None], axis=2) <= nearest + 1e-12
    return pts[own], np.nonzero(own)[0]


def check_scale_ladder(k, rho, scale_count):
    """Raise ValueError unless there is a scale and the start-scale disk of
    `reconstruct` (radius 1.5 r, spacing r_final / 10, so up to
    30 / rho**(scale_count - 1) + 1 points per axis, an integer as
    rho = 2**-q) has at most 2**20 grid points."""
    if scale_count < 1:
        raise ValueError(f"reconstruct needs at least one scale, got {scale_count}")
    shift = round(-math.log2(rho)) * int(scale_count - 1)  # a Python int cannot overflow
    if shift > 20 or (30 * 2**shift + 1) ** k > 2**20:
        raise ValueError(f"{scale_count} scales with rho = {rho:g} and k = {k} need a "
                         "start-scale disk of over 2**20 points")


def reconstruct(mu, k, cfg, max_scale_count, flat_tol=0.2, seed=0, check_summability=True):
    """Run the multiscale flattening construction on a weighted point set.

    Scales shrink by cfg.rho per step starting from the coarsest scale whose
    probed displacement is below flat_tol**2.  One loop gives each scale's
    good centers best-fit planes; its first pass samples disks on them, and
    each later pass applies a partition-of-unity sigma map to the samples,
    records motion and distortion, excises balls failing the good-mass test
    from the hole-tracking copy at radius scale/6, and measures coherence
    against the last scale with patches.  A later scale without a good
    center records no step.  The root ball is the bounding ball of mu; k
    must be at least 1, and the scales must pass `check_scale_ladder`.
    """
    if k < 1:
        raise ValueError(f"reconstruct needs k >= 1, got {k}")
    check_scale_ladder(k, cfg.rho, max_scale_count)
    if mu.count == 0:
        raise PlaneFitError("cannot reconstruct from an empty measure")
    root = mu.bounding_ball(margin=1e-9)
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
    r_final = radii[-1]
    spacing = r_final / _SAMPLE_DENSITY

    scales, samples_per_scale = [], []
    parents = None  # (centers, planes) of the last scale with patches
    rng = default_rng(seed)
    for i in range(start, max_scale_count):
        r = radii[i]
        rec = ScaleRecord(index=i, radius=r, flatness=flats[i])
        good = ball_masses_many(mu, mu.positions, r) >= cfg.gamma_good * r**k
        centers = _separated_good_centers(mu, r, good)
        if centers.shape[0] == 0 and parents is None:
            raise PlaneFitError("no good ball at the starting scale", radius=r)
        if centers.shape[0]:
            planes = _fit_patch_planes(mu, centers, r, k, cfg)
            if parents is None:
                samples, component = _initial_samples(centers, planes, r, spacing)
                alive = np.ones(samples.shape[0], dtype=bool)
            else:
                rec.sigma = SigmaMap(build_partition(centers, r), planes)
                moved = rec.sigma.apply(samples)
                rec.motion_max = float(np.linalg.norm(moved - samples, axis=1).max())
                rec.distortion = _sampled_distortion(samples, moved, r, rng, pair_count=2000,
                                                     component=component)
                # holes: excise around bad-mass centers at radius r/6
                bad = _bad_centers(mu, r, good, centers)
                if bad.shape[0]:
                    alive &= SpatialIndex(bad).nearest(samples) > r / 6.0
                rec.cover_state = CoverState(centers, bad)
                samples = moved
            # the last scale's index over the final samples also serves coverage
            index = SpatialIndex(samples)
            rec.patches = _patch_records(index, centers, planes, r, None if parents is None
                                         else (*parents, 3.0 * r / cfg.rho))
            parents = (centers, planes)
        scales.append(rec)
        samples_per_scale.append(samples)

    # coverage accounting
    dists = index.nearest(mu.positions)
    tol = _COVERAGE_FACTOR * max(spacing, cfg.delta * r_final)
    # good now marks the good balls of the final radius
    covered = (dists <= tol) | ~good

    return ManifoldAtlas(
        k=k,
        root_ball=root,
        scales=scales,
        samples_per_scale=samples_per_scale,
        sample_alive=alive,
        sample_component=component,
        summability_ok=ok,
        atom_distances=dists,
        covered=covered,
        coverage_tol=tol,
    )


def _sampled_distortion(before, after, r, rng, pair_count, component):
    """Max two-sided stretch ratio over random sample pairs at scale <= r.

    Pairs straddling two initial patches (by the component labels) are
    excluded: the graph there has a seam-sized jump that measures initial
    patch mismatch, not the stretching of the map.
    """
    m = before.shape[0]
    if m < 2:
        return 1.0
    ii = rng.integers(0, m, size=pair_count * 6)
    jj = rng.integers(0, m, size=pair_count * 6)
    d0 = np.linalg.norm(before[ii] - before[jj], axis=1)
    keep = (d0 > 1e-12) & (d0 <= 1.5 * r) & (component[ii] == component[jj])
    ii, jj, d0 = ii[keep][:pair_count], jj[keep][:pair_count], d0[keep][:pair_count]
    if len(d0) == 0:
        return 1.0
    d1 = np.linalg.norm(after[ii] - after[jj], axis=1)
    ratios = d1 / d0
    ratios = ratios[ratios > 0]
    if len(ratios) == 0:
        return 1.0
    return float(max(ratios.max(), (1.0 / ratios).max()))


def bilipschitz_distortion(atlas, step):
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
    after = rec.sigma.apply(before)
    return _sampled_distortion(before, after, rec.radius,
                               default_rng(_DISTORTION_SEED), _DISTORTION_PAIRS,
                               atlas.sample_component)


# ---------------------------------------------------------------------------
# measure estimation
# ---------------------------------------------------------------------------

def _chain_samples_1d(samples):
    """Order curve samples by nearest-neighbor walking; returns index order
    and whether the chain closes into a loop.  A step takes the nearest
    unused sample (first in index order among equals) within the guard, so
    it scans the current sample's closed ball of that radius, not every
    sample; one `neighborhoods` query gives every sample's ball."""
    m = samples.shape[0]
    order = [0]
    # median spacing guard: the second nearest sample of a probe is its
    # nearest other one
    guard = np.inf
    if m > 1:
        used = np.zeros(m, dtype=bool)
        used[0] = True
        index = SpatialIndex(samples)
        probe = samples[::max(1, m // 50)]
        guard = 6.0 * np.median(index.knn(probe, 2)[0][:, 1])
        indptr, nbrs = index.neighborhoods(samples, guard)
        while True:
            cand = np.sort(nbrs[indptr[order[-1]]:indptr[order[-1] + 1]])
            cand = cand[~used[cand]]
            if len(cand) == 0:
                break
            j = int(cand[np.argmin(np.linalg.norm(samples[cand] - samples[order[-1]], axis=1))])
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


def _coplanar_plane(atlas):
    """The common plane when every final patch is flat and coplanar, else None."""
    patches = atlas.final_scale.patches or atlas.scales[0].patches
    if not patches:
        return None
    ref = patches[0].plane
    scale = atlas.root_ball.radius
    for p in patches:
        # the subspace distance reads the directions only
        if grassmann_distance(ref, p.plane) > _COPLANAR_TOL:
            return None
        if ref.distance(p.plane.base) > _COPLANAR_TOL * scale:
            return None
        if p.graph_sup > _COPLANAR_TOL * scale:
            return None
    return ref


def measure_estimate(atlas, ball):
    """k-dimensional measure of the final manifold inside a ball.

    Flat atlases use the exact disk formula.  k = 1 uses exact polyline
    clipping of the chained samples.  k >= 2 integrates each final patch
    graph over the plane cells whose lifted centre is nearest its center:
    the cell centres of a patch are lifted in one batch and the other probes
    of its owned cells in a second, over one index per patch (see `_lift`),
    and a cell adds its graph area h^k sqrt(det(G G^T)) times the fraction
    of its 4^k sub-grid whose lift lies in the ball.
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

    # k >= 2: integrate the final patch graphs over Voronoi-owned plane cells
    patches = atlas.final_scale.patches
    if not patches:
        return 0.0
    centers = [p.center for p in patches]
    owners = SpatialIndex(centers)
    indptr, members = SpatialIndex(samples).neighborhoods(
        centers, patches[0].radius * 1.2)  # one radius a scale
    total = 0.0
    for pi, patch in enumerate(patches):
        plane = patch.plane
        local = samples[np.sort(members[indptr[pi]:indptr[pi + 1]])]
        if local.shape[0] < k + 1:
            continue
        # the probes of a cell of side h: its centre, the centre moved by
        # +-h/2 along each axis, and the centres of a 4^k sub-grid
        h = patch.radius / 12.0
        steps = h * 0.5 * np.eye(k)
        offs = np.linspace(-0.5 * h + h / 8, 0.5 * h - h / 8, 4)
        sub = np.stack([m.ravel() for m in np.meshgrid(*([offs] * k), indexing="ij")], axis=1)
        cells = _grid_disk(k, patch.radius, h) + plane.coordinates(patch.center)
        u_local = plane.coordinates(local)
        index, heights = SpatialIndex(u_local), local - plane.point_at(u_local)
        # the patch owns the cells whose lifted centre is nearest its center;
        # the other probes are lifted for those cells only
        owned = owners.knn(_lift(plane, index, heights, cells), 1)[1][:, 0] == pi
        if not owned.any():
            continue
        probes = cells[owned][:, None, :] + np.vstack([steps, -steps, sub])
        x = _lift(plane, index, heights, probes.reshape(-1, k)).reshape(probes.shape[:2] + (-1,))
        # G: the k x n central differences of the lift at each cell centre
        G = (x[:, :k] - x[:, k:2 * k]) / h
        area = h**k * np.sqrt(np.maximum(np.linalg.det(G @ G.swapaxes(1, 2)), 0.0))
        # fraction of the cell whose lift lies in the ball
        frac = ball.contains(x[:, 2 * k:]).sum(axis=1) / sub.shape[0]
        total += float((area * frac).sum())
    return total


def _lift(plane, index, heights, u):
    """Lift of the plane coordinates u (N, k) to the graph of samples whose
    plane coordinates `index` holds and whose offsets from the plane are
    `heights`: the inverse-distance average of the nearest samples' heights."""
    d, idx = index.knn(u, min(_LIFT_NEIGHBORS, len(index)))
    w = 1.0 / np.maximum(d, 1e-12)
    v = (heights[idx] * w[:, :, None]).sum(axis=1) / w.sum(axis=1)[:, None]
    return plane.point_at(u) + v
