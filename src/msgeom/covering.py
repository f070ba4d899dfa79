"""Covering machinery: good/bad ball classification, excess sets, Vitali
subcovers, the separated decomposition of a disjoint ball family, the
discrete packing verifier, and the inductive energy-drop covering driver.

The packing verifier takes a family of disjoint balls {B_{r_j}(x_j)}, forms
the associated measure mu = sum omega_k r_j^k delta_{x_j}, checks the summed
displacement hypothesis on every ball with enough mass, and reports the
packing sum over the unit ball.  The inductive driver covers a quantitative
stratum by balls whose energy sup has dropped by eta, plus a residual set at
the floor scale, tracking packing and volume content.  Its sups of theta go
through one helper over CSR neighbourhoods and one table per driver call,
in which each (sample, radius) is evaluated once for all balls and levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DisjointnessError, EnergyInfiniteError
from .geometry import AtomicMeasure, Ball, SpatialIndex
from .harmonic import quantitative_stratum, theta
from .moments import ball_masses_many, ball_sums_many, dyadic_displacement_sums, unit_ball_volume


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
        if not (np.isfinite(centers).all() and np.all(np.isfinite(radii) & (radii > 0))):
            raise ValueError("ball centers must be finite and radii finite and positive")
        self.centers = centers
        self.radii = radii
        self.disjoint = self._check_disjoint()
        if require_disjoint and not self.disjoint:
            raise DisjointnessError("ball family is not pairwise disjoint")

    def _check_disjoint(self, shrink=1.0):
        """No two balls of radii shrink * r overlap: |c_j - c_i| >= (r_i + r_j)
        (1 - 1e-12) for i < j.  A pair can fail only within 2 max r of each
        other, so only the pairs of the index's neighbourhoods at that radius
        are tested."""
        c, r = self.centers, self.radii * shrink
        indptr, nbrs = SpatialIndex(c).neighborhoods(c, 2.0 * r.max(initial=0.0))
        i = np.repeat(np.arange(len(r)), np.diff(indptr))
        i, j = i[nbrs > i], nbrs[nbrs > i]
        return not np.any(np.linalg.norm(c[j] - c[i], axis=1) < (r[j] + r[i]) * (1 - 1e-12))

    def fifth_disjoint(self):
        return self._check_disjoint(shrink=0.2)

    @property
    def count(self):
        return len(self.radii)

    def measure(self, k):
        """mu = sum omega_k r_j^k delta_{x_j}."""
        wk = unit_ball_volume(k)
        return AtomicMeasure(self.centers, wk * self.radii**k)

    def subset(self, indices):
        return BallFamily(self.centers[indices], self.radii[indices],
                          require_disjoint=False)


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


def discrete_reifenberg_verify(family, k, cfg, packing_bound=None):
    """Check the summed-displacement hypothesis on a disjoint ball family and
    report the packing sum.

    For every dyadic test radius r and every family center x with
    mu(B_r(x)) >= eps_mass * r^k the quantity

        r^-k * sum_{r_alpha <= 2r} int_{B_r(x)} D(y, r_alpha) dmu(y)

    must stay below delta^2, for the dyadic r from 2 down to the smallest
    family radius.  The packing sum is sum r_j^k over centers in the unit
    ball at the origin.
    """
    if not family.disjoint:
        raise DisjointnessError("packing verifier needs disjoint balls")
    mu = family.measure(k)

    r_min = float(family.radii.min())
    test_radii = [2.0**-a for a in range(-1, 60) if 2.0**-a >= r_min]
    # row i: sum over r_alpha <= 2 * test_radii[i] of D(x_m, r_alpha), per atom
    sums = dyadic_displacement_sums(mu, mu.positions, 4.0, k, cfg)

    worst = (-np.inf, None, None)
    values_by_scale = {}
    for i, r in enumerate(test_radii):
        # the integral over B_r(x) is nu(B_r(x)), nu = S mu; one walk sums mu and nu
        weights = np.stack([mu.weights, mu.weights * sums[min(i, len(sums) - 1)]], axis=1)
        masses, nu_masses = ball_sums_many(mu, mu.positions, r, weights).T
        eligible = np.flatnonzero(masses >= cfg.eps_mass * r**k)
        if len(eligible) == 0:
            values_by_scale[r] = 0.0
            continue
        vals = nu_masses[eligible] * r**-k
        values_by_scale[r] = float(vals.max())
        j = int(np.argmax(vals))
        if vals[j] > worst[0]:
            worst = (float(vals[j]), mu.positions[eligible[j]], r)

    hypothesis_ok = worst[0] < cfg.delta**2 if worst[1] is not None else True
    inside = Ball(np.zeros(family.centers.shape[1]), 1.0).contains(family.centers)
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
    count = int((SpatialIndex(centers).nearest(pts) <= radius).sum())
    return count * h**n


# ---------------------------------------------------------------------------
# inductive covering driver
# ---------------------------------------------------------------------------

@dataclass
class CoverReport:
    energy_sup: float          # E over stratum samples in the root
    eta: float
    U_r: list                  # floor-scale balls
    U_plus: list               # (Ball, sup_theta) with energy drop
    U_0: AtomicMeasure | None  # floor-scale atoms when r == 0 was requested
    packing_sum: float         # sum r_i^k over U_plus
    vol_term: float            # r^{k-n} Vol(B_r(U_r))
    content: float             # omega_k * packing_sum + vol_term
    skipped: int               # failed theta values (NaN, left out of sups)


class _ThetaTable:
    """theta_r at the stratum samples by index, for one cover driver call:
    each (sample, r) is evaluated once, however many balls and levels ask
    for it.  NaN where the ball meets a singular set of codimension <= 2 or
    leaves the field domain."""

    def __init__(self, field, samples):
        self.field, self.samples, self._known = field, samples, {}

    def __call__(self, idx, r):
        known = self._known
        for j in idx:
            if (j, r) not in known:
                try:
                    known[j, r] = theta(self.field, self.samples[j], r)
                except ValueError:  # EnergyInfiniteError included
                    known[j, r] = np.nan
        return np.array([known[j, r] for j in idx])


def _ball_sups(thetas, inside, hoods, r):
    """Sup of theta_r over each CSR neighbourhood of the samples `inside` the
    covered ball (-inf where every value failed), and the count of failed
    values among its distinct samples.  Every centre is a sample, so no
    neighbourhood is empty and np.fmax.reduceat takes each ball's sup."""
    indptr, indices = hoods
    needed, at = np.unique(indices, return_inverse=True)
    vals = thetas(inside[needed], r)
    sups = np.fmax.reduceat(vals[at], indptr[:-1])
    return np.where(np.isnan(sups), -np.inf, sups), int(np.isnan(vals).sum())


def _cover_samples(thetas, root, k, r_floor, eta, ref_scale=None):
    """Energy-scale covering of the stratum samples of a _ThetaTable inside
    one ball.  Raises EnergyInfiniteError when theta fails at every sample
    of the ball at its top scale."""
    radius = ref_scale or root.radius
    inside = np.flatnonzero(root.contains(thetas.samples))
    pts = thetas.samples[inside]
    n = pts.shape[1]
    if pts.shape[0] == 0:
        return CoverReport(energy_sup=0.0, eta=eta, U_r=[], U_plus=[], U_0=None,
                           packing_sum=0.0, vol_term=0.0, content=0.0, skipped=0)
    thetas_top = thetas(inside, radius)
    skipped = int(np.isnan(thetas_top).sum())
    if skipped == len(inside):
        raise EnergyInfiniteError(
            f"theta fails at every stratum sample of the ball ({skipped})")
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
    s_x = np.full(pts.shape[0], 2.0 * radius)
    undecided = np.arange(pts.shape[0])
    for s in scales:
        if not len(undecided):
            break
        sups, failed = _ball_sups(thetas, inside, tree.neighborhoods(pts[undecided], s),
                                  eta * s)
        skipped += failed
        crossed = sups >= E - eta
        s_x[undecided[crossed]] = s
        undecided = undecided[~crossed]

    floor_idx = np.flatnonzero(s_x <= r_floor * (1 + 1e-12))
    # the drop ball radius is the rung below the crossing, where the failed
    # sup condition certifies sup theta_{eta r_i} <= E - eta exactly
    plus_idx = np.flatnonzero(s_x > r_floor * (1 + 1e-12))
    s_x = np.where(s_x > r_floor * (1 + 1e-12), s_x / 2.0, s_x)

    # floor-scale cover: maximal r/5-separated subset of the floor samples
    floor_net = tree.greedy_net(floor_idx, r_floor / 5.0)
    U_r = [Ball(pts[i], r_floor) for i in floor_net]

    # energy-drop cover: Vitali on the tenth-radius balls, then eta-subdivide
    # each selected ball by an (eta r_i)-net of its half-radius samples
    U_plus = []
    _, sel = vitali_subcover([Ball(pts[i], s_x[i] / 10.0) for i in plus_idx])
    for i in plus_idx[sel]:
        r_i = float(s_x[i])
        rad = eta * r_i
        net = tree.greedy_net(tree.query(pts[i], r_i / 2.0), rad)
        sups, failed = _ball_sups(thetas, inside, tree.neighborhoods(pts[net], rad), rad)
        skipped += failed
        U_plus += [(Ball(pts[m], rad), float(sup)) for m, sup in zip(net, sups)]

    packing = float(sum(b.radius**k for b, _ in U_plus))
    vol_term = r_floor ** (k - n) * union_ball_volume(pts[floor_net], r_floor)
    content = unit_ball_volume(k) * packing + vol_term
    return CoverReport(energy_sup=E, eta=eta, U_r=U_r, U_plus=U_plus, U_0=None,
                       packing_sum=packing, vol_term=vol_term, content=content,
                       skipped=skipped)


def _cover_setup(field, root_ball, k, epsilon, r, grid_step, stratum):
    """(grid_step, r_floor, thetas) of a cover driver call.  The grid step
    defaults to r, or to the root radius / 16 when r == 0; the floor scale is
    r, or the grid step when r == 0.  thetas is the call's _ThetaTable over
    the stratum, which is computed unless one is given."""
    grid_step = grid_step or (r if r > 0 else root_ball.radius / 16.0)
    r_floor = r if r > 0 else grid_step
    if stratum is None:
        stratum = quantitative_stratum(field, k, epsilon, r_floor, grid_step,
                                       center=root_ball.center,
                                       radius=root_ball.radius, plane_count=32)
    return grid_step, r_floor, _ThetaTable(field, stratum.positions)


def inductive_cover(field, root_ball, k, epsilon, r, eta, grid_step=None):
    """Cover the quantitative stratum of the field inside the root ball.

    Returns a CoverReport whose U_plus balls each record the sup of theta at
    their own scale over contained stratum samples (at most E - eta up to
    quadrature slack), and whose floor set U_r (or atom set U_0 when r == 0
    was requested) carries the Minkowski-type content bound.  When r == 0
    the floor scale is the grid step (the discrete stand-in for scale zero).
    """
    grid_step, r_floor, thetas = _cover_setup(field, root_ball, k, epsilon, r,
                                              grid_step, None)
    report = _cover_samples(thetas, root_ball, k, r_floor, eta)
    if r == 0:
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
                  stratum=None):
    """Apply the covering inductively inside every energy-drop ball until
    none remains; the energy sup falls by eta per level, so at most
    ceil(E / eta) levels can occur.

    Returns (levels, final_floor_balls) where levels is a list of per-level
    CoverReport lists.  A precomputed stratum may be passed; it is computed
    otherwise.
    """
    _, r_floor, thetas = _cover_setup(field, root_ball, k, epsilon, r, grid_step,
                                      stratum)
    first = _cover_samples(thetas, root_ball, k, r_floor, eta)
    levels = [[first]]
    floor_balls = list(first.U_r)
    for _ in range(max(1, math.ceil(max(first.energy_sup, eta) / eta)) + 1):
        active = [b for rep in levels[-1] for (b, _) in rep.U_plus]
        if not active:
            break
        reports = []
        for b in active:
            rep = _cover_samples(thetas, b, k, r_floor, eta, ref_scale=b.radius)
            reports.append(rep)
            floor_balls.extend(rep.U_r)
        levels.append(reports)
    return levels, floor_balls
