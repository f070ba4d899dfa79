"""Covering machinery: good/bad ball classification, excess sets, Vitali
subcovers, the separated decomposition of a disjoint ball family, the
discrete packing verifier, and the inductive energy-drop covering driver.

The packing verifier takes a family of disjoint balls {B_{r_j}(x_j)}, forms
the associated measure mu = sum omega_k r_j^k delta_{x_j}, checks the summed
displacement hypothesis on every ball with enough mass, and reports the
packing sum over the unit ball.  The inductive driver covers a quantitative
stratum by balls whose energy sup has dropped by eta, plus a residual set at
the floor scale, tracking packing and volume content.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DisjointnessError, EnergyInfiniteError
from .geometry import AtomicMeasure, Ball, SpatialIndex
from .harmonic import quantitative_stratum, theta
from .moments import ball_masses_many, dyadic_displacement_sums, unit_ball_volume


# ---------------------------------------------------------------------------
# ball families
# ---------------------------------------------------------------------------

class BallFamily:
    """A finite family of balls with an associated discrete measure."""

    def __init__(self, centers, radii, require_disjoint=True):
        centers = np.atleast_2d(np.asarray(centers, dtype=float))
        radii = np.asarray(radii, dtype=float)
        if radii.shape != (centers.shape[0],):
            raise ValueError("one radius per center required")
        if np.any(radii <= 0):
            raise ValueError("radii must be positive")
        self.centers = centers
        self.radii = radii
        self.disjoint = self._check_disjoint()
        if require_disjoint and not self.disjoint:
            raise DisjointnessError("ball family is not pairwise disjoint")

    def _check_disjoint(self, shrink=1.0):
        c, r = self.centers, self.radii * shrink
        for i in range(len(r)):
            d = np.linalg.norm(c[i + 1 :] - c[i], axis=1)
            if np.any(d < r[i + 1 :] + r[i] - 1e-12):
                return False
        return True

    def fifth_disjoint(self):
        return self._check_disjoint(shrink=0.2)

    @property
    def count(self):
        return len(self.radii)

    def measure(self, k):
        """mu = sum omega_k r_j^k delta_{x_j}."""
        wk = unit_ball_volume(k)
        return AtomicMeasure(self.centers, wk * self.radii**k)

    def balls(self):
        return [Ball(c, r) for c, r in zip(self.centers, self.radii)]

    def subset(self, indices):
        return BallFamily(self.centers[indices], self.radii[indices],
                          require_disjoint=False)


@dataclass
class CoverState:
    """Per-scale bookkeeping of one covering step: which centers carried
    enough mass to continue (good), which were mass-deficient (bad), which
    terminated at their own scale (final), what was sent to the remainder,
    and the energy envelope when a field drives the covering."""

    index: int
    good_centers: np.ndarray
    bad_centers: np.ndarray
    final_centers: np.ndarray
    remainder_count: int
    energy_sup: float | None = None
    eta: float | None = None
    sup_theta: dict | None = None


# ---------------------------------------------------------------------------
# classification, excess, Vitali
# ---------------------------------------------------------------------------

def classify_balls(mu, centers, r, k, cfg):
    """Indices of (good, bad) centers by mu(B_r(c)) >= gamma_good * r^k."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    masses = ball_masses_many(mu, centers, r)
    good = np.flatnonzero(masses >= cfg.gamma_good * r**k)
    bad = np.flatnonzero(masses < cfg.gamma_good * r**k)
    return good, bad


def excess_set(mu, ball, plane, next_radius):
    """Atom indices in the ball farther than next_radius/4 from the plane."""
    idx = mu.indices_in_ball(ball)
    if len(idx) == 0:
        return idx
    d = plane.distance(mu.positions[idx])
    return idx[d > next_radius / 4.0]


def vitali_subcover(balls):
    """Greedy Vitali selection: disjoint balls whose 5x dilations cover all.

    Balls are taken in descending radius (ties by index); a ball is selected
    when it is disjoint from every previously selected ball.  Every input
    ball then intersects a selected ball of at least its radius, so its
    center lies in the 5x dilation of that selected ball.
    """
    balls = list(balls)
    order = sorted(range(len(balls)), key=lambda i: (-balls[i].radius, i))
    chosen = []
    for i in order:
        b = balls[i]
        ok = True
        for j in chosen:
            s = balls[j]
            if np.linalg.norm(b.center - s.center) < b.radius + s.radius:
                ok = False
                break
        if ok:
            chosen.append(i)
    chosen.sort()
    return [balls[i] for i in chosen], chosen


def separated_decomposition(family, R):
    """Split a family with {B_{r_i/5}} disjoint into subfamilies in which
    x_j in B_{R r_i}(x_i) forces r_j < R^-2 r_i.

    Balls are placed greedily in descending radius into the first subfamily
    without a conflict.  Returns a list of index arrays.
    """
    if R <= 1:
        raise ValueError("separation factor R must exceed 1")
    if not family.fifth_disjoint():
        raise DisjointnessError("the fifth-radius balls must be disjoint")
    order = sorted(range(family.count), key=lambda i: (-family.radii[i], i))
    groups = []
    for i in order:
        xi, ri = family.centers[i], family.radii[i]
        placed = False
        for g in groups:
            conflict = False
            for j in g:
                xj, rj = family.centers[j], family.radii[j]
                d = np.linalg.norm(xi - xj)
                # existing radii are >= ri by insertion order
                if d <= R * rj and ri >= rj / R**2:
                    conflict = True
                    break
                if d <= R * ri:  # rj >= ri >= R^-2 ri always violates
                    conflict = True
                    break
            if not conflict:
                g.append(i)
                placed = True
                break
        if not placed:
            groups.append([i])
    return [np.array(sorted(g), dtype=int) for g in groups]


# ---------------------------------------------------------------------------
# discrete packing verifier
# ---------------------------------------------------------------------------

@dataclass
class PackingReport:
    hypothesis_ok: bool
    worst_ball: tuple          # (center, radius, value)
    packing_sum: float
    bound_exceeded: bool
    failure_scale: float | None
    values_by_scale: dict      # test radius -> max value over centers


def discrete_reifenberg_verify(family, k, cfg, root_ball=None, packing_bound=None,
                               max_test_radius=2.0):
    """Check the summed-displacement hypothesis on a disjoint ball family and
    report the packing sum.

    For every dyadic test radius r and every family center x with
    mu(B_r(x)) >= eps_mass * r^k the quantity

        r^-k * sum_{r_alpha <= 2r} int_{B_r(x)} D(y, r_alpha) dmu(y)

    must stay below delta^2.  The packing sum is sum r_j^k over centers in
    the root ball (default: the unit ball at the origin).
    """
    if not family.disjoint:
        raise DisjointnessError("packing verifier needs disjoint balls")
    mu = family.measure(k)
    root = root_ball or Ball(np.zeros(family.centers.shape[1]), 1.0)

    r_min = float(family.radii.min())
    alpha = math.floor(-math.log2(max_test_radius))
    test_radii = [2.0**-a for a in range(alpha, alpha + 61) if 2.0**-a >= r_min]
    # row i: sum over r_alpha <= 2 * test_radii[i] of D(x_m, r_alpha), per atom
    sums = dyadic_displacement_sums(mu, mu.positions, 2.0 ** (1 - alpha), k, cfg)

    worst = (-np.inf, None, None)
    values_by_scale = {}
    for i, r in enumerate(test_radii):
        masses = ball_masses_many(mu, mu.positions, r)
        eligible = np.flatnonzero(masses >= cfg.eps_mass * r**k)
        if len(eligible) == 0:
            values_by_scale[r] = 0.0
            continue
        # the integral over B_r(x) is the mass of B_r(x) under nu = S mu
        nu = AtomicMeasure(mu.positions, mu.weights * sums[min(i, len(sums) - 1)])
        vals = ball_masses_many(nu, mu.positions[eligible], r) * r**-k
        values_by_scale[r] = float(vals.max())
        j = int(np.argmax(vals))
        if vals[j] > worst[0]:
            worst = (float(vals[j]), mu.positions[eligible[j]], r)

    hypothesis_ok = worst[0] < cfg.delta**2 if worst[1] is not None else True
    inside = root.contains(family.centers)
    packing_sum = float((family.radii[inside] ** k).sum())
    return PackingReport(
        hypothesis_ok=bool(hypothesis_ok),
        worst_ball=(worst[1], worst[2], worst[0]) if worst[1] is not None else None,
        packing_sum=packing_sum,
        bound_exceeded=bool(packing_bound is not None and packing_sum > packing_bound),
        failure_scale=None if hypothesis_ok else worst[2],
        values_by_scale=values_by_scale,
    )


# ---------------------------------------------------------------------------
# volumes by grid counting
# ---------------------------------------------------------------------------

def union_ball_volume(centers, radius, cell=None):
    """Volume of a union of equal balls by grid counting (cell = radius/8)."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    if centers.shape[0] == 0:
        return 0.0
    n = centers.shape[1]
    h = cell or radius / 8.0
    lo = centers.min(axis=0) - radius - h
    hi = centers.max(axis=0) + radius + h
    axes = [np.arange(lo[d], hi[d] + h * 0.5, h) for d in range(n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    count = 0
    chunk = max(1, 5_000_000 // max(centers.shape[0], 1))
    for i in range(0, pts.shape[0], chunk):
        block = pts[i : i + chunk]
        d = np.min(
            np.linalg.norm(block[:, None, :] - centers[None, :, :], axis=2), axis=1
        )
        count += int((d <= radius).sum())
    return count * h**n


# ---------------------------------------------------------------------------
# inductive covering driver
# ---------------------------------------------------------------------------

@dataclass
class CoverReport:
    root: Ball
    energy_sup: float          # E over stratum samples in the root
    eta: float
    U_r: list                  # floor-scale balls
    U_plus: list               # (Ball, sup_theta) with energy drop
    U_0: AtomicMeasure | None  # floor-scale atoms when r == 0 was requested
    packing_sum: float         # sum r_i^k over U_plus
    vol_term: float            # r^{k-n} Vol(B_r(U_r))
    content: float             # omega_k * packing_sum + vol_term
    skipped: int               # quadrature failures
    subdivision_counts: list


def _theta_safe(field, x, r, skipped):
    try:
        return theta(field, x, r)
    except (EnergyInfiniteError, ValueError):
        skipped[0] += 1
        return np.nan


def _cover_samples(field, samples, weights, root, k, r_floor, eta, ref_scale=None):
    """Energy-scale covering of the given stratum samples inside one ball."""
    skipped = [0]
    radius = ref_scale or root.radius
    inside = root.contains(samples)
    pts = samples[inside]
    w = weights[inside]
    n = field.n
    if pts.shape[0] == 0:
        return CoverReport(root=root, energy_sup=0.0, eta=eta, U_r=[], U_plus=[],
                           U_0=None, packing_sum=0.0, vol_term=0.0, content=0.0,
                           skipped=0, subdivision_counts=[])
    thetas_top = np.array([_theta_safe(field, p, radius, skipped) for p in pts])
    E = float(np.nanmax(thetas_top))

    scales = []
    s = r_floor
    while s < radius * (1 + 1e-12):
        scales.append(min(s, radius))
        s *= 2.0
    if not scales or scales[-1] < radius:
        scales.append(radius)

    tree = SpatialIndex(pts)
    # s_x: first dyadic rung at which the eta-scale energy sup recovers to
    # E - eta; capped at 2 * radius when the energy stays dropped throughout
    s_x = np.full(pts.shape[0], np.nan)
    for i, p in enumerate(pts):
        for s in scales:
            hood = tree.query(p, s)
            sup = -np.inf
            for j in hood:
                v = _theta_safe(field, pts[j], eta * s, skipped)
                if not np.isnan(v):
                    sup = max(sup, v)
            if sup >= E - eta:
                s_x[i] = s
                break
        if np.isnan(s_x[i]):
            s_x[i] = 2.0 * radius

    floor_idx = np.flatnonzero(s_x <= r_floor * (1 + 1e-12))
    # the drop ball radius is the rung below the crossing, where the failed
    # sup condition certifies sup theta_{eta r_i} <= E - eta exactly
    plus_idx = np.flatnonzero(s_x > r_floor * (1 + 1e-12))
    s_x = np.where(s_x > r_floor * (1 + 1e-12), s_x / 2.0, s_x)

    # floor-scale cover: maximal r/5-separated subset of the floor samples
    U_r = []
    chosen = []
    for i in floor_idx:
        p = pts[i]
        if all(np.linalg.norm(p - pts[j]) > r_floor / 5.0 for j in chosen):
            chosen.append(i)
            U_r.append(Ball(p, r_floor))

    # energy-drop cover: Vitali on the tenth-radius balls, then eta-subdivide
    U_plus = []
    sub_counts = []
    tenth = [Ball(pts[i], s_x[i] / 10.0) for i in plus_idx]
    _, sel = vitali_subcover(tenth)
    for pick in sel:
        i = plus_idx[pick]
        x_i, r_i = pts[i], float(s_x[i])
        inner = tree.query(x_i, r_i / 2.0)
        net = []
        for j in inner:
            if all(np.linalg.norm(pts[j] - pts[m]) > eta * r_i for m in net):
                net.append(j)
        sub_counts.append(len(net))
        for m in net:
            b = Ball(pts[m], eta * r_i)
            in_b = tree.query(pts[m], b.radius)
            sup = -np.inf
            for q in in_b:
                v = _theta_safe(field, pts[q], b.radius, skipped)
                if not np.isnan(v):
                    sup = max(sup, v)
            U_plus.append((b, float(sup)))

    packing = float(sum(b.radius**k for b, _ in U_plus))
    vol = union_ball_volume(np.array([b.center for b in U_r]), r_floor) if U_r else 0.0
    vol_term = r_floor ** (k - n) * vol
    content = unit_ball_volume(k) * packing + vol_term
    return CoverReport(root=root, energy_sup=E, eta=eta, U_r=U_r, U_plus=U_plus,
                       U_0=None, packing_sum=packing, vol_term=vol_term,
                       content=content, skipped=skipped[0],
                       subdivision_counts=sub_counts)


def inductive_cover(field, root_ball, k, epsilon, r, eta, grid_step=None,
                    plane_count=32, stratum=None):
    """Cover the quantitative stratum of the field inside the root ball.

    Returns a CoverReport whose U_plus balls each record the sup of theta at
    their own scale over contained stratum samples (at most E - eta up to
    quadrature slack), and whose floor set U_r (or atom set U_0 when r == 0
    was requested) carries the Minkowski-type content bound.  When r == 0
    the floor scale is the grid step (the discrete stand-in for scale zero).
    """
    want_atoms = r == 0
    grid_step = grid_step or (r if r > 0 else root_ball.radius / 16.0)
    r_floor = r if r > 0 else grid_step
    if stratum is None:
        stratum = quantitative_stratum(field, k, epsilon, r_floor, grid_step,
                                       center=root_ball.center,
                                       radius=root_ball.radius,
                                       plane_count=plane_count)
    report = _cover_samples(field, stratum.positions, stratum.weights,
                            root_ball, k, r_floor, eta)
    if want_atoms:
        centers = np.array([b.center for b in report.U_r])
        report.U_0 = AtomicMeasure(centers, np.full(len(centers), grid_step**k)) \
            if len(centers) else AtomicMeasure(np.zeros((0, field.n)), np.zeros(0))
        report.U_r = []
    return report


def cover_report_doc(levels):
    """Serializable cover report: per-level ball arrays with kind labels.

    Balls still carrying energy (subdivided at the next level) are "good";
    floor-scale balls and atoms are "final".  Bad (mass-deficient) balls do
    not arise in the energy driver; classify_balls covers that side.
    """
    doc = {"schema": 1, "levels": []}
    for reports in levels:
        balls = []
        packing = 0.0
        vol = 0.0
        for rep in reports:
            for b, sup in rep.U_plus:
                balls.append({"center": list(b.center), "radius": b.radius,
                              "kind": "good", "sup_theta": sup})
            for b in rep.U_r:
                balls.append({"center": list(b.center), "radius": b.radius,
                              "kind": "final", "sup_theta": None})
            if rep.U_0 is not None:
                for pnt in rep.U_0.positions:
                    balls.append({"center": list(pnt), "radius": 0.0,
                                  "kind": "final", "sup_theta": None})
            packing += rep.packing_sum
            vol += rep.vol_term
        doc["levels"].append({"balls": balls, "packing_sum": packing,
                              "vol_term": vol})
    return doc


def iterate_cover(field, root_ball, k, epsilon, r, eta, grid_step=None,
                  plane_count=32, max_levels=None, stratum=None):
    """Apply the covering inductively inside every energy-drop ball until
    none remains; the energy sup falls by eta per level, so at most
    ceil(E / eta) levels can occur.

    Returns (levels, final_floor_balls) where levels is a list of per-level
    CoverReport lists.  A precomputed stratum may be passed, as for
    inductive_cover.
    """
    grid_step = grid_step or (r if r > 0 else root_ball.radius / 16.0)
    r_floor = r if r > 0 else grid_step
    if stratum is None:
        stratum = quantitative_stratum(field, k, epsilon, r_floor, grid_step,
                                       center=root_ball.center,
                                       radius=root_ball.radius,
                                       plane_count=plane_count)
    first = _cover_samples(field, stratum.positions, stratum.weights,
                           root_ball, k, r_floor, eta)
    if max_levels is None:
        max_levels = max(1, math.ceil(max(first.energy_sup, eta) / eta)) + 1
    levels = [[first]]
    floor_balls = list(first.U_r)
    for _ in range(max_levels):
        active = [b for rep in levels[-1] for (b, _) in rep.U_plus]
        if not active:
            break
        reports = []
        for b in active:
            rep = _cover_samples(field, stratum.positions, stratum.weights,
                                 b, k, r_floor, eta, ref_scale=b.radius)
            reports.append(rep)
            floor_balls.extend(rep.U_r)
        levels.append(reports)
    return levels, floor_balls
