"""Covering machinery: good/bad ball classification, excess sets, Vitali
subcovers, the separated decomposition of a disjoint ball family, the
discrete packing verifier, and the inductive energy-drop covering driver.

The packing verifier takes a family of disjoint balls {B_{r_j}(x_j)}, forms
the associated measure mu = sum omega_k r_j^k delta_{x_j}, checks the summed
displacement hypothesis on every ball with enough mass, and reports the
packing sum over the unit ball.  The inductive driver covers a quantitative
stratum by balls whose energy sup has dropped by eta, plus a residual set at
the floor scale, tracking packing and volume content.  Each level hands
every stratum sample to exactly one ball (Vitali selection keeps a level's
balls of bounded overlap; Mattila 1995, Thm 2.1), so a level holds at most
one ball per sample.  One driver call keeps one SpatialIndex and one theta
table over its samples, in which each (sample, radius) is evaluated once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count, takewhile

import numpy as np

from .errors import DisjointnessError, EnergyInfiniteError
from .geometry import AtomicMeasure, Ball, SpatialIndex
from .harmonic import quantitative_stratum, theta
from .moments import _dyadic_ladder, ball_masses_many, ball_sums_many, unit_ball_volume


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
        self._index = SpatialIndex(centers)  # the disjointness test's and the measure's
        self.disjoint = self._check_disjoint()
        if require_disjoint and not self.disjoint:
            raise DisjointnessError("ball family is not pairwise disjoint")

    def _check_disjoint(self, shrink=1.0):
        """No two balls of radii shrink * r overlap: |c_j - c_i| >= (r_i + r_j)
        (1 - 1e-12) for i < j.  A pair can fail only within 2 max r of each
        other, so only the pairs of the index's neighbourhoods at that radius
        are tested."""
        c, r = self.centers, self.radii * shrink
        indptr, nbrs = self._index.neighborhoods(c, 2.0 * r.max(initial=0.0))
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
        return AtomicMeasure(self.centers, wk * self.radii**k, index=self._index)

    def subset(self, indices):
        return BallFamily(self.centers[indices], self.radii[indices],
                          require_disjoint=False)


# ---------------------------------------------------------------------------
# classification, excess, Vitali
# ---------------------------------------------------------------------------

def classify_balls(mu, centers, r, k, cfg):
    """Indices of (good, bad) centers by mu(B_r(c)) >= gamma_good * r^k."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    good = ball_masses_many(mu, centers, r) >= cfg.gamma_good * r**k
    return np.flatnonzero(good), np.flatnonzero(~good)


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
        if all(np.linalg.norm(b.center - balls[j].center) >= b.radius + balls[j].radius
               for j in chosen):
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
    x, r = family.centers, family.radii

    def conflict(i, j):
        # r[j] >= r[i] by insertion order, so r[j] >= r[i] >= R^-2 r[i]
        # always violates within R r[i]
        d = np.linalg.norm(x[i] - x[j])
        return (d <= R * r[j] and r[i] >= r[j] / R**2) or d <= R * r[i]

    groups = []
    for i in sorted(range(family.count), key=lambda i: (-r[i], i)):
        g = next((g for g in groups if not any(conflict(i, j) for j in g)), None)
        if g is None:
            groups.append([i])
        else:
            g.append(i)
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
    family radius (r_alpha = 2r 2^-alpha, as in `moments.summability_check`).
    The packing sum is sum r_j^k over centers in the unit ball at the origin.

    Each radius is walked once, coarsest first: the dyadic ladder of D
    (r_alpha = 4, 2, ...) keeps its walks of the test radii, and their
    masses, until the integral is summed on them; a test radius below the
    ladder's stopping radius is walked after it.
    """
    if not family.disjoint:
        raise DisjointnessError("packing verifier needs disjoint balls")
    mu = family.measure(k)
    x = mu.positions

    r_min = float(family.radii.min())
    test_radii = [2.0**-a for a in range(-1, 60) if 2.0**-a >= r_min]
    # row i: sum over r_alpha <= 2 * test_radii[i] of D(x_m, r_alpha), per atom
    sums, walks, _ = _dyadic_ladder(mu, x, 4.0, k, cfg, walked=set(test_radii))

    worst = (-np.inf, None, None)
    values_by_scale = {}
    for i, r in enumerate(test_radii):
        if r in walks:
            masses, walk = walks.pop(r)
        else:
            walk = list(mu._index.ball_items(x, r))
            masses = ball_sums_many(mu, x, walk, mu.weights)
        # the integral over B_r(x) is nu(B_r(x)), nu = S mu
        nu_masses = ball_sums_many(mu, x, walk, mu.weights * sums[min(i, len(sums) - 1)])
        eligible = np.flatnonzero(masses >= cfg.eps_mass * r**k)
        if len(eligible) == 0:
            values_by_scale[r] = 0.0
            continue
        vals = nu_masses[eligible] * r**-k
        values_by_scale[r] = float(vals.max())
        j = int(np.argmax(vals))
        if vals[j] > worst[0]:
            worst = (float(vals[j]), x[eligible[j]], r)

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
    pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    return int((SpatialIndex(centers).nearest(pts) <= radius).sum()) * h**n


# ---------------------------------------------------------------------------
# inductive covering driver
# ---------------------------------------------------------------------------

@dataclass
class CoverReport:
    energy_sup: float          # E over the covered ball's own samples
    eta: float
    U_r: list                  # floor-scale balls
    U_plus: list               # (Ball, sup_theta) with energy drop
    U_0: AtomicMeasure | None  # floor-scale atoms when r == 0 was requested
    packing_sum: float         # sum r_i^k over U_plus
    vol_term: float            # r^{k-n} Vol(B_r(U_r))
    content: float             # omega_k * packing_sum + vol_term
    skipped: int               # failed theta values (NaN, left out of sups)
    plus_owned: list           # sorted sample ids owned by each U_plus ball
    floor_owned: list          # sorted sample ids owned by each U_r ball


class _ThetaTable:
    """theta_r at the stratum samples by id, for one cover driver call: each
    (sample, r) is evaluated once, however many balls and levels ask for
    it; NaN where the ball meets a singular set of codimension <= 2 or
    leaves the field domain.  `index` is the call's one SpatialIndex over
    the samples."""

    def __init__(self, field, samples):
        self.field, self.index, self._known = field, SpatialIndex(samples), {}

    def __call__(self, idx, r):
        known, samples = self._known, self.index.points
        for j in idx:
            if (j, r) not in known:
                try:
                    known[j, r] = theta(self.field, samples[j], r)
                except ValueError:  # EnergyInfiniteError included
                    known[j, r] = np.nan
        return np.array([known[j, r] for j in idx])


def _ball_sups(thetas, hoods, r):
    """Sup of theta_r over each CSR neighbourhood of sample ids (-inf where
    every value failed), and the count of failed values among its distinct
    samples.  Every centre is a sample, so no neighbourhood is empty and
    np.fmax.reduceat takes each ball's sup."""
    indptr, indices = hoods
    needed, at = np.unique(indices, return_inverse=True)
    vals = thetas(needed, r)
    sups = np.fmax.reduceat(vals[at], indptr[:-1])
    return np.where(np.isnan(sups), -np.inf, sups), int(np.isnan(vals).sum())


def _claim(ids, hoods):
    """Split the sample ids among CSR balls, each id to the first ball that
    holds it; returns one sorted id array per ball."""
    indptr, indices = hoods
    ball = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    mine = np.isin(indices, ids)
    sample, first = np.unique(indices[mine], return_index=True)
    owner = ball[mine][first]
    return [sample[owner == b] for b in range(len(indptr) - 1)]


def _cover_samples(thetas, owned, radius, k, r_floor, eta):
    """Energy-scale covering of the sample ids `owned` by a ball of the given
    radius.  Raises EnergyInfiniteError when theta fails at every one of
    them at that scale.

    Each owned sample goes to one child ball, so a level holds at most one
    ball per sample.  A floor sample goes to the first floor ball that holds
    it.  Any other sample goes to the first selected Vitali ball, in sample
    order, whose half-radius holds it, and there to the first ball of the
    net drawn from that Vitali ball's samples.  The sups of theta still
    read every stratum sample of a neighbourhood, owned or not.
    """
    index, pts = thetas.index, thetas.index.points
    thetas_top = thetas(owned, radius)
    skipped = int(np.isnan(thetas_top).sum())
    if len(owned) and skipped == len(owned):
        raise EnergyInfiniteError(
            f"theta fails at every stratum sample of the ball ({skipped})")
    E = float(np.nanmax(thetas_top, initial=0.0))  # theta >= 0; 0 when no sample

    # the dyadic rungs r_floor 2^j below the radius, clipped to it, and the radius
    rungs = takewhile(lambda s: s < radius * (1 + 1e-12), (r_floor * 2.0**j for j in count()))
    scales = sorted({min(s, radius) for s in rungs} | {radius})

    # s_x: first dyadic rung at which the eta-scale energy sup recovers to
    # E - eta; capped at 2 * radius when the energy stays dropped throughout
    s_x = np.full(len(owned), 2.0 * radius)
    undecided = np.arange(len(owned))
    for s in scales:
        if not len(undecided):
            break
        sups, failed = _ball_sups(thetas, index.neighborhoods(pts[owned[undecided]], s),
                                  eta * s)
        skipped += failed
        crossed = sups >= E - eta
        s_x[undecided[crossed]] = s
        undecided = undecided[~crossed]

    at_floor = s_x <= r_floor * (1 + 1e-12)
    # the drop ball radius is the rung below the crossing, where the failed
    # sup condition certifies sup theta_{eta r_i} <= E - eta exactly
    plus_idx = np.flatnonzero(~at_floor)
    s_x = np.where(at_floor, s_x, s_x / 2.0)

    # floor-scale cover: maximal r/5-separated subset of the floor samples
    floor_net = index.greedy_net(owned[at_floor], r_floor / 5.0)
    U_r = [Ball(pts[i], r_floor) for i in floor_net]
    floor_owned = _claim(owned[at_floor], index.neighborhoods(pts[floor_net], r_floor))

    # energy-drop cover: Vitali on the tenth-radius balls, then eta-subdivide
    # each selected ball by an (eta r_i)-net of the free samples of its
    # half-radius; every drop sample lies within r_i / 5 of a selected ball
    U_plus, plus_owned = [], []
    free = np.zeros(len(index), dtype=bool)
    free[owned[plus_idx]] = True
    _, sel = vitali_subcover([Ball(pts[owned[i]], s_x[i] / 10.0) for i in plus_idx])
    for i in plus_idx[sel]:
        r_i = float(s_x[i])
        rad = eta * r_i
        mine = index.query(pts[owned[i]], r_i / 2.0)
        mine = mine[free[mine]]
        free[mine] = False
        net = index.greedy_net(mine, rad)
        hoods = index.neighborhoods(pts[net], rad)
        sups, failed = _ball_sups(thetas, hoods, rad)
        skipped += failed
        U_plus += [(Ball(pts[m], rad), float(sup)) for m, sup in zip(net, sups)]
        plus_owned += _claim(mine, hoods)

    packing = float(sum(b.radius**k for b, _ in U_plus))
    vol_term = r_floor ** (k - pts.shape[1]) * union_ball_volume(pts[floor_net], r_floor)
    content = unit_ball_volume(k) * packing + vol_term
    return CoverReport(energy_sup=E, eta=eta, U_r=U_r, U_plus=U_plus, U_0=None,
                       packing_sum=packing, vol_term=vol_term, content=content,
                       skipped=skipped, plus_owned=plus_owned, floor_owned=floor_owned)


def _root_cover(field, root_ball, k, epsilon, r, eta, grid_step, stratum):
    """(grid_step, r_floor, thetas, report) of a cover driver call: report
    covers every stratum sample in the root ball, and thetas is the call's
    _ThetaTable over them.  The grid step defaults to r, or to the root
    radius / 16 when r == 0; the floor scale is r, or the grid step when
    r == 0.  The stratum is computed unless one is given."""
    grid_step = grid_step or (r if r > 0 else root_ball.radius / 16.0)
    r_floor = r if r > 0 else grid_step
    if stratum is None:
        stratum = quantitative_stratum(field, k, epsilon, r_floor, grid_step,
                                       center=root_ball.center,
                                       radius=root_ball.radius, plane_count=32)
    thetas = _ThetaTable(field, stratum.positions[root_ball.contains(stratum.positions)])
    report = _cover_samples(thetas, np.arange(len(thetas.index)), root_ball.radius,
                            k, r_floor, eta)
    return grid_step, r_floor, thetas, report


def inductive_cover(field, root_ball, k, epsilon, r, eta, grid_step=None):
    """Cover the quantitative stratum of the field inside the root ball.

    Returns a CoverReport whose U_plus balls each record the sup of theta at
    their own scale over contained stratum samples (at most E - eta up to
    quadrature slack), and whose floor set U_r (or atom set U_0 when r == 0
    was requested) carries the Minkowski-type content bound.  When r == 0
    the floor scale is the grid step (the discrete stand-in for scale zero).
    Each stratum sample is owned by one ball of U_plus or U_r.
    """
    grid_step, _, _, report = _root_cover(field, root_ball, k, epsilon, r, eta,
                                          grid_step, None)
    if r == 0:
        centers = np.array([b.center for b in report.U_r])
        report.U_0 = AtomicMeasure(centers, np.full(len(centers), grid_step**k)) \
            if len(centers) else AtomicMeasure(np.zeros((0, field.n)), np.zeros(0))
        report.U_r = []
    return report


def cover_report_doc(levels):
    """Serializable report of `iterate_cover` levels: per-level balls by kind.

    Balls still carrying energy (subdivided at the next level) are "good";
    floor-scale balls are "final".  Bad (mass-deficient) balls do not arise
    in the energy driver; classify_balls covers that side.
    """
    def ball(b, kind, sup):
        return {"center": list(b.center), "radius": b.radius, "kind": kind, "sup_theta": sup}

    doc = {"schema": 1, "levels": []}
    for reports in levels:
        balls = []
        for rep in reports:
            balls += [ball(b, "good", sup) for b, sup in rep.U_plus]
            balls += [ball(b, "final", None) for b in rep.U_r]
        doc["levels"].append({"balls": balls,
                              "packing_sum": sum((rep.packing_sum for rep in reports), 0.0),
                              "vol_term": sum((rep.vol_term for rep in reports), 0.0)})
    return doc


def iterate_cover(field, root_ball, k, epsilon, r, eta, grid_step=None,
                  stratum=None):
    """Cover the stratum in the root ball (level 0, as `inductive_cover`),
    then cover the samples each drop ball owns, level by level, until no
    drop ball remains.  The energy sup falls by eta per level, so at most
    ceil(E / eta) + 1 levels occur.  Every sample is owned by one ball per
    level until it ends in a floor ball or a drop ball of the last level,
    so no level holds more balls than samples.  All balls share one
    SpatialIndex and one theta table over the samples.

    Returns (levels, final_floor_balls) where levels is a list of per-level
    CoverReport lists, one report per covered ball.  A precomputed stratum
    may be passed; it is computed otherwise.
    """
    _, r_floor, thetas, first = _root_cover(field, root_ball, k, epsilon, r, eta,
                                            grid_step, stratum)
    levels = [[first]]
    cap = max(1, math.ceil(max(first.energy_sup, eta) / eta)) + 1
    while len(levels) <= cap and any(rep.U_plus for rep in levels[-1]):
        levels.append([_cover_samples(thetas, ids, b.radius, k, r_floor, eta)
                       for rep in levels[-1]
                       for (b, _), ids in zip(rep.U_plus, rep.plus_owned)])
    return levels, [b for reports in levels for rep in reports for b in rep.U_r]
