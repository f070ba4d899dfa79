"""Analytic energy-field testbed: closed-form maps with known singular
structure, normalized Dirichlet energy by ball-adapted quadrature, energy
drops across scales, quantitative symmetry distance, quantitative strata,
and the regularity scale.

The normalized energy of a field f over B_r(x) is

    theta_r(x) = r^(2-n) * integral_{B_r(x)} |grad f|^2,

computed on a tensor grid of radial midpoint panels (dyadically refined
toward radii where the integrand is singular) times a high-order angular
rule, with a two-level refinement comparison enforcing the accuracy target.
Every field carries its energy density |grad f|^2 in closed form, so no
quadrature builds a Jacobian.  A singular set is an AffinePlane, the plane
of symmetry V^k of a k-symmetric cone; a point is the plane with k = 0, and
x/|x| is the 0-symmetric cone.  A ball near a point singularity is cut into
shells about that point, and every shell's cap is evaluated in stacked
blocks of whole panels.  `theta` is a pure function of its arguments and
stores nothing on the field; only the angular rules and the panel
rotations, which depend on small integers alone, are memoized.
Every field lives on B_64(0).  The symmetry distance uses one ball rule per
distance to the singular set and candidate planes from an in-repo scrambled
Halton sequence; a stratum walks the dyadic ladder once, finest rung first,
in one batch per rule and rung, down to a floor r >= 2^-60.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri, roots_jacobi, roots_legendre

from .errors import EmptySupportError, EnergyInfiniteError
from .geometry import AffinePlane, AtomicMeasure, Ball
from .moments import second_moment_spectrum

QUAD_REL_TOL = 1e-4
DOMAIN_RADIUS = 64.0          # every field is defined on B_64(0)
_NODE_BUDGET = 1 << 16       # quadrature nodes evaluated at once
_KEPT_TABLES = 16            # frame tables (of at most _NODE_BUDGET nodes) a stratum keeps


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

class EnergyField:
    """A map f: R^n -> R^m with closed-form gradient and energy density.

    `fn(X)` maps (N, n) -> (N, m); `grad(X)` maps (N, n) -> (N, m, n);
    `density(X)` maps (N, n) -> (N,), the closed form of |grad f|^2, and is
    0 at exactly singular points.  `singular` is None or the AffinePlane
    the field is singular on, a point being the plane with k = 0; the
    density is assumed to blow up like distance^-2 there.
    """

    def __init__(self, n, fn, grad, density, singular=None):
        self.n = n
        self.fn = fn
        self.grad = grad
        self.density = density
        self.singular = singular

    def __call__(self, X):
        return self.fn(np.atleast_2d(np.asarray(X, dtype=float)))

    def gradient(self, X):
        return self.grad(np.atleast_2d(np.asarray(X, dtype=float)))

    def grad_sq(self, X):
        """|grad f|^2 at each row of X."""
        return self.density(np.atleast_2d(np.asarray(X, dtype=float)))

    def singular_distance(self, X):
        """Distance of points to the singular set (inf when there is none)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.singular is None:
            return np.full(X.shape[0], np.inf)
        return self.singular.distance(X)


def _inverse_square(W, c):
    """c / |w|^2 for each row w of W, and 0 where w = 0."""
    sq = np.einsum("ij,ij->i", W, W)
    return np.divide(c, sq, out=np.zeros_like(sq), where=sq > 0.0)


def _sum_last(a):
    """a.sum(axis=-1) bit for bit, several times faster on a short axis:
    numpy adds fewer than 8 terms left to right, and so do these column adds."""
    if a.shape[-1] >= 8:
        return a.sum(axis=-1)
    out = a[..., 0].copy()
    for j in range(1, a.shape[-1]):
        out += a[..., j]
    return out


def _norms(X):
    """np.linalg.norm(X, axis=-1, keepdims=True), bit for bit."""
    return np.sqrt(_sum_last(X * X))[..., None]


def radial_projection(n=3):
    """f(x) = x/|x|, the degree-zero cone map onto the sphere: the 0-symmetric
    cone, singular at the point 0."""
    if n < 2:
        raise ValueError("needs n >= 2")
    return k_symmetric_cone(n, 0)


def smoothed_projection(n=3, core=0.05):
    """f(x) = x / sqrt(|x|^2 + core^2): conical far out, smooth at the origin."""

    def fn(X):
        return X / np.sqrt(_sum_last(X**2) + core**2)[:, None]

    def grad(X):
        g = np.sqrt((X**2).sum(axis=1) + core**2)
        eye = np.eye(n)
        return (eye[None, :, :] / g[:, None, None]
                - X[:, :, None] * X[:, None, :] / g[:, None, None] ** 3)

    def density(X):
        g2 = (X**2).sum(axis=1) + core**2
        return (n - 1) / g2 + core**4 / g2**3

    return EnergyField(n, fn, grad, density)


def linear_field(A):
    """f(x) = A x; theta_1(0) = |A|_F^2 * vol(B_1)."""
    A = np.asarray(A, dtype=float)
    m, n = A.shape

    def fn(X):
        return X @ A.T

    def grad(X):
        return np.broadcast_to(A[None, :, :], (X.shape[0], m, n)).copy()

    def density(X):
        return np.full(X.shape[0], float((A**2).sum()))

    return EnergyField(n, fn, grad, density)


def _wave(n, a, c, c_sq, phase):
    """f(x) = (sin t, cos(c t + phase)) with t = <a, x>; c_sq is c^2 as written
    in the density."""

    def fn(X):
        t = X @ a
        return np.stack([np.sin(t), np.cos(c * t + phase)], axis=1)

    def grad(X):
        t = X @ a
        return np.stack([np.cos(t)[:, None] * a[None, :],
                         (-c * np.sin(c * t + phase))[:, None] * a[None, :]], axis=1)

    def density(X):
        t = X @ a
        return (a @ a) * (np.cos(t) ** 2 + c_sq * np.sin(c * t + phase) ** 2)

    return EnergyField(n, fn, grad, density)


def smooth_wave(n=3, freq=1.0):
    """A bounded smooth field with no symmetry and no singular set."""
    return _wave(n, freq * np.arange(1, n + 1) / math.sqrt(n), 0.7, 0.49, 0.3)


def k_symmetric_cone(n, k):
    """f(x) = w/|w| with w the component orthogonal to span(e_1..e_k).

    Exactly k-symmetric: 0-homogeneous about the origin and invariant along
    the first k axes; singular on that subspace, the point 0 when k = 0.
    """
    if n - k < 2:
        raise ValueError("needs n - k >= 2 for a nonconstant cone")
    d = n - k

    def fn(X):
        W = X[:, k:]
        nrm = _norms(W)
        return W / np.where(nrm == 0.0, 1.0, nrm)

    def grad(X):
        W = X[:, k:]
        nrm = np.linalg.norm(W, axis=1)
        nrm = np.where(nrm == 0.0, np.inf, nrm)
        eye = np.eye(d)
        inner = (eye[None, :, :] / nrm[:, None, None]
                 - W[:, :, None] * W[:, None, :] / nrm[:, None, None] ** 3)
        out = np.zeros((X.shape[0], d, n))
        out[:, :, k:] = inner
        return out

    def density(X):
        return _inverse_square(X[:, k:], d - 1.0)

    return EnergyField(n, fn, grad, density, singular=AffinePlane.coordinate(n, list(range(k))))


def translation_invariant(n, k):
    """A smooth nonhomogeneous field invariant along the first k axes."""
    a = np.zeros(n)
    a[k:] = np.arange(1, n - k + 1, dtype=float)
    return _wave(n, a, 1.3, 1.69, 0.0)


FIELD_CATALOG = {
    "radial_projection": radial_projection,
    "smoothed_projection": smoothed_projection,
    "smooth": smooth_wave,
}


# ---------------------------------------------------------------------------
# ball quadrature
# ---------------------------------------------------------------------------

@functools.cache
def _sphere_rule(n, order):
    """Nodes/weights on S^{n-1}; exact for high angular polynomial degree.
    Memoized: the arguments are small integers, so the memo stays small."""
    if n == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if n == 2:
        m = max(8, 4 * order)
        ang = (np.arange(m) + 0.5) * (2 * np.pi / m)
        return np.stack([np.cos(ang), np.sin(ang)], axis=1), np.full(m, 2 * np.pi / m)
    # polar angle via Gauss-Jacobi in z = cos(theta), weight (1-z^2)^((n-3)/2)
    if n == 3:
        z, wz = roots_legendre(order)
    else:
        z, wz = roots_jacobi(order, (n - 3) / 2.0, (n - 3) / 2.0)
    sub_nodes, sub_w = _sphere_rule(n - 1, order)
    sin_t = np.sqrt(np.maximum(1.0 - z**2, 0.0))
    # one block of rows per polar node z: (z, sin * sub_nodes), weight wz * sub_w
    nodes = np.column_stack([np.repeat(z, len(sub_w)), np.kron(sin_t[:, None], sub_nodes)])
    return nodes, np.kron(wz, sub_w)


def _radial_panels(r, critical, base_count, min_width_factor=1e-10):
    """Midpoint panels on [0, r], dyadically split toward critical radii, as
    the arrays of their lower and upper edges."""
    edges = list(np.linspace(0.0, r, base_count + 1))
    out = []
    min_width = r * min_width_factor
    stack = list(zip(edges[:-1], edges[1:]))
    while stack:
        a, b = stack.pop()
        width = b - a
        near = any(a - width <= c <= b + width for c in critical)
        if near and width > min_width:
            mid = 0.5 * (a + b)
            stack += [(a, mid), (mid, b)]
        else:
            out.append((a, b))
    return np.array(sorted(out)).T


def _node_blocks(count, per_item):
    """Slices of whole items (panels, balls or frames) holding at most
    _NODE_BUDGET nodes, unless one item alone holds more."""
    per = max(1, _NODE_BUDGET // per_item)
    return [slice(lo, lo + per) for lo in range(0, count, per)]


def _theta_level(field, x, r, panel_count, angular_order):
    n = field.n
    d_sing = float(field.singular_distance(x)[0])
    if field.singular is not None and field.singular.k == 0 and 1e-14 < d_sing <= 1.5 * r:
        return _theta_cap_shells(field, x, r, d_sing, panel_count, angular_order)
    a, b = _radial_panels(r, [d_sing] if d_sing <= r * 1.5 else [], panel_count)
    omega, w_ang = _sphere_rule(n, angular_order)
    mids, widths = 0.5 * (a + b), b - a
    shell = np.empty(len(mids))
    for blk in _node_blocks(len(mids), len(w_ang)):
        ring = mids[blk]
        nodes = (x[None, None, :] + ring[:, None, None] * omega[None, :, :]).reshape(-1, n)
        g2 = np.minimum(field.grad_sq(nodes), 1e30)  # guard on near-singular nodes
        shell[blk] = g2.reshape(len(ring), len(w_ang)) @ w_ang
    integral = float(np.add.reduce(widths * mids ** (n - 1) * shell))
    return integral * r ** (2 - n)


def _theta_cap_shells(field, x, r, d, panel_count, angular_order):
    """Shells centered at the singular point p, clipped to B_r(x).

    The sphere of radius s about p meets the ball in the polar cap
    cos(angle to x - p) >= z* = (s^2 + d^2 - r^2) / (2 s d); the integrand is
    smooth on every such shell, so the angular rule converges fast and the
    only radial kinks sit at s = |d - r| and s = d + r.  Each cap is a polar
    rule in the angle to x - p times the sphere S^(n-2) of directions
    orthogonal to it; the caps of all panels are stacked and evaluated in
    blocks of whole panels.
    """
    n = field.n
    p = field.singular.base
    e = (x - p) / d
    lo = max(0.0, d - r)
    a, b = _radial_panels(d + r, [abs(d - r), d], panel_count)
    a, b = np.maximum(a[b > lo], lo), b[b > lo]
    s = 0.5 * (a + b)
    width = b - a
    zstar = (s * s + d * d - r * r) / (2.0 * s * d)
    keep = zstar < 1.0
    s, width, zstar = s[keep], width[keep], np.maximum(zstar[keep], -1.0)
    # polar rule per panel: cosine and sine of the angle to e, and weights
    if n == 2:
        # midpoints of [0, phi*] in 2 * order + 4 equal steps, mirrored by S^0
        half = 2 * angular_order + 4
        phi_star = np.arccos(zstar)
        phi = phi_star[:, None] * ((np.arange(half) + 0.5) / half)
        cos_t, sin_t = np.cos(phi), np.sin(phi)
        w_polar = np.repeat((phi_star / half)[:, None], half, axis=1)
    else:
        # Gauss-Legendre in z = cos on [z*, 1], weight (1 - z^2)^((n - 3) / 2)
        z_nodes, z_weights = roots_legendre(max(8, angular_order))
        cos_t = 0.5 * (zstar + 1.0)[:, None] + 0.5 * (1.0 - zstar)[:, None] * z_nodes
        w_polar = (0.5 * (1.0 - zstar)[:, None] * z_weights
                   * (1.0 - cos_t * cos_t) ** ((n - 3) / 2.0))
        sin_t = np.sqrt(np.maximum(1.0 - cos_t * cos_t, 0.0))
    sub_nodes, sub_w = _sphere_rule(n - 1, angular_order)
    ring = sub_nodes @ _perp_basis(e[None, :], n)  # rows: S^(n-2) orthogonal to e
    # nodes p + s cos(t) e + s sin(t) u: panel radius s, polar node t, u in ring
    axial = p + (s[:, None] * cos_t)[:, :, None] * e        # (panels, q, n)
    radial = s[:, None] * sin_t                             # (panels, q)
    shell = np.empty(len(s))
    for blk in _node_blocks(len(s), cos_t.shape[1] * len(sub_w)):
        nodes = radial[blk, :, None, None] * ring + axial[blk, :, None, :]
        g2 = np.minimum(field.grad_sq(nodes.reshape(-1, n)), 1e30).reshape(nodes.shape[:3])
        shell[blk] = np.einsum("pq,pqs->ps", w_polar[blk], g2) @ sub_w
    return float((width * s ** (n - 1)) @ shell) * r ** (2 - n)


def theta(field, x, r, panels=24, order=10):
    """Normalized energy theta_r(x), accurate to about 1e-4 relative.

    Two refinement levels are compared and a third is used when they
    disagree beyond the target.  `panels`/`order` set the base radial panel
    count and angular order (raise them to halve the quadrature step).

    Raises EnergyInfiniteError when the ball meets a singular set of
    codimension <= 2 (the dist^-2 integrand is not locally integrable).
    """
    x = np.asarray(x, dtype=float)
    if not r > 0:
        raise ValueError("theta needs r > 0")
    if not np.linalg.norm(x) + r <= DOMAIN_RADIUS:
        raise ValueError("ball exceeds the field domain")
    if field.singular is not None and field.n - field.singular.k <= 2:
        if float(field.singular_distance(x)[0]) <= r:
            raise EnergyInfiniteError(
                "energy infinite: singular set of codimension <= 2 meets the ball"
            )
    coarse = _theta_level(field, x, r, panels, order)
    fine = _theta_level(field, x, r, 2 * panels, order + 6)
    if abs(fine - coarse) > QUAD_REL_TOL * max(abs(fine), 1e-12):
        fine = _theta_level(field, x, r, 4 * panels, order + 14)
    return fine


def energy_drop(field, x, s, r):
    """W_{s,r}(x) = theta_r(x) - theta_s(x) >= 0 up to quadrature slack."""
    if s > r:
        raise ValueError("energy_drop needs s <= r")
    return theta(field, x, r) - theta(field, x, s)


@dataclass
class EnergyPoint:
    theta: float
    drops: list  # (alpha, W_alpha) with W_alpha = theta_{2^-(a-3)} - theta_{2^-a}


def energy_point(field, x, r, alpha_range=(3, 6)):
    """theta at (x, r) plus the standard three-scale dyadic drops; theta is
    evaluated once per distinct radius."""
    alphas = range(alpha_range[0], alpha_range[1] + 1)
    radii = {r} | {2.0 ** (3 - a) for a in alphas} | {2.0**-a for a in alphas}
    th = {s: theta(field, x, s) for s in radii}
    return EnergyPoint(theta=th[r],
                       drops=[(a, th[2.0 ** (3 - a)] - th[2.0**-a]) for a in alphas])


# ---------------------------------------------------------------------------
# symmetry distance
# ---------------------------------------------------------------------------

@dataclass
class SymmetryResult:
    value: float


def _primes(count):
    """The first `count` primes, by trial division."""
    return list(itertools.islice((p for p in itertools.count(2)
                                  if all(p % q for q in range(2, math.isqrt(p) + 1))), count))


def _scrambled_halton(d, count):
    """The first `count` points of the scrambled Halton sequence in [0, 1)^d
    (Owen, "A randomized Halton algorithm in R", 2017): coordinate j is the
    radical inverse in the j-th prime base b, each of its ceil(54 / log2 b) - 1
    leading digits sent through its own shuffle of 0..b-1, drawn from
    default_rng(0) in base order.  Bit for bit scipy.stats.qmc.Halton(d,
    scramble=True, seed=0), without importing scipy.stats."""
    rng, out = np.random.default_rng(0), np.zeros((count, d))
    for j, base in enumerate(_primes(d)):
        perms = np.repeat(np.arange(base)[None], math.ceil(54 / math.log2(base)) - 1, axis=0)
        for perm in perms:
            rng.shuffle(perm)
        q, scale = np.arange(count), 1.0 / base
        for perm in perms:
            out[:, j] += perm[q % base] * scale
            q, scale = q // base, scale / base
    return out


def grassmann_candidates(n, k, count):
    """Deterministic low-discrepancy sample of k-frames in R^n: scrambled
    Halton points through the normal quantile, orthonormalized."""
    if k == 0:
        return [np.zeros((0, n))]
    raw = np.clip(_scrambled_halton(n * k, count), 1e-12, 1 - 1e-12)
    return [np.linalg.qr(G)[0].T.copy() for G in ndtri(raw).reshape(count, n, k)]


@functools.cache
def _panel_rotation(n, index):
    return np.linalg.qr(np.random.default_rng(1000 + index).normal(size=(n, n)))[0]


def _ball_rule(n, r, d_sing):
    """Node offsets and weights over B_r: 10 base radial panels, split toward
    a singular set within 1.5 r, times the angular rule of order 8, rotated
    per shell so node directions do not repeat (repetition lets an adversarial
    plane overfit the binned competitor).  The centre enters only through its
    singular distance d_sing: every ball farther out shares one rule."""
    a, b = _radial_panels(r, [d_sing] if d_sing <= 1.5 * r else [], 10, min_width_factor=1e-6)
    omega, w_ang = _sphere_rule(n, 8)
    mids, widths = 0.5 * (a + b), b - a
    offsets = np.concatenate([s * omega @ _panel_rotation(n, i).T for i, s in enumerate(mids)])
    weights = (widths * mids ** (n - 1))[:, None] * w_ang[None, :]
    return offsets, weights.reshape(-1)


def _direction_bins(dirs, bin_spec):
    """Assign unit vectors to direction bins; returns integer labels."""
    d = dirs.shape[1]
    if d == 1:
        return (dirs[:, 0] < 0).astype(int)
    if d == 2:
        ang = np.arctan2(dirs[:, 1], dirs[:, 0])
        return np.floor((ang + np.pi) / (2 * np.pi) * bin_spec).astype(int) % bin_spec
    # d >= 3: latitude-longitude boxes on the first two angles
    lat = np.clip(dirs[:, 0], -1.0, 1.0)
    band = np.floor((lat + 1.0) / 2.0 * bin_spec).astype(int) % bin_spec
    ang = np.arctan2(dirs[:, 2], dirs[:, 1])
    sector = np.floor((ang + np.pi) / (2 * np.pi) * (2 * bin_spec)).astype(int) % (2 * bin_spec)
    return band * (2 * bin_spec) + sector


def _frame_table(offsets, frames, bins, r):
    """Per frame V of a block over a rule of radius r: the unit V-orthogonal
    parts of the offsets (frames, N, n), a part of norm at most 1e-14 r cut
    to 0, and all nodes sorted stably by (frame, direction bin of the part),
    with the start of each bin.  The cut is relative to r, so a rule scaled
    exactly by a power of two gives the same table."""
    count, k, n = frames.shape
    if k == 0:
        perp_unit = dirs = np.repeat((offsets / _norms(offsets))[None], count, axis=0)
    else:
        perp = np.empty((count, *offsets.shape))
        for i, frame in enumerate(frames):
            np.subtract(offsets, offsets @ frame.T @ frame, out=perp[i])
        nrm = _norms(perp)
        cut = nrm <= 1e-14 * r
        perp_unit = np.divide(perp, np.where(cut, 1.0, nrm), out=perp)
        perp_unit[cut[..., 0]] = 0.0
        dirs = perp_unit @ np.stack([_perp_basis(f, n) for f in frames]).transpose(0, 2, 1)
        renrm = _norms(dirs)
        dirs /= np.where(renrm == 0.0, 1.0, renrm)
    labels = _direction_bins(dirs.reshape(-1, dirs.shape[2]), bins).reshape(count, -1)
    keys = (labels + (labels.max() + 1) * np.arange(count)[:, None]).ravel()
    order = np.argsort(keys.astype(np.min_scalar_type(keys.max())), kind="stable")
    return perp_unit, order, np.flatnonzero(np.diff(keys[order], prepend=-1))


def _symmetry_residuals(field, centers, r, d_sing, frames, bins, stop_below, kept=None):
    """Constant-map residuals (balls,) and best-competitor residuals (balls,
    frames) of the balls B_r(c), c in centers, which share the rule for
    d_sing, in blocks of at most _NODE_BUDGET nodes.  Once a ball has a
    residual below stop_below, or a NaN constant residual, its remaining
    entries stay inf.  `kept` holds frame tables by rule shape offsets / r:
    at power-of-two r the shape fixes the tables, whose cut is relative."""
    offsets, weights = _ball_rule(field.n, r, d_sing)
    (N, n), total = offsets.shape, weights.sum()
    const = np.empty(len(centers))
    for blk in _node_blocks(len(centers), N):
        # node-major (node, ball, component): the mean adds whole node rows
        c = centers[blk]
        nodes = np.repeat(offsets, len(c), axis=0).reshape(N, len(c), n)
        nodes += c
        values = field(nodes.reshape(-1, n)).reshape(N, len(c), -1)
        mean = (weights[:, None, None] * values).sum(axis=0) / total
        dev = _sum_last((values - mean) ** 2).T.copy()
        const[blk] = (weights * dev).sum(axis=1) / total
    stop = -np.inf if stop_below is None else stop_below
    cand = np.full((len(centers), len(frames)), np.inf)
    done = (const < stop) | np.isnan(const)
    shape = (offsets / r).tobytes()
    for fs in _node_blocks(len(frames), N):
        table = (kept or {}).get((shape, fs.start))
        if table is None:
            table = _frame_table(offsets, frames[fs], bins, r)
            if kept is not None and len(kept) < _KEPT_TABLES:
                kept[shape, fs.start] = table
        perp_unit, order, starts = table
        src, count = order % N, perp_unit.shape[0]
        w, lengths = weights[src], np.diff(np.append(starts, count * N))
        w_sums = np.add.reduceat(w, starts)
        for i in np.flatnonzero(~(done | np.any(cand < stop, axis=1))):
            values = field(centers[i] + offsets)
            # competitor 1: conditional mean over direction bins
            v = values.take(src, axis=0)
            means = np.add.reduceat(w[:, None] * v, starts, axis=0) / w_sums[:, None]
            dev = _sum_last((v - np.repeat(means, lengths, axis=0)) ** 2)
            binned = (w * dev).reshape(count, N).sum(axis=1) / total
            # competitor 2: pullback through the orbit representative; exact
            # for fields that are k-symmetric with this plane
            rep = field((centers[i] + perp_unit).reshape(-1, n)).reshape(count, N, -1)
            pull = (weights * _sum_last((values - rep) ** 2)).sum(axis=1) / total
            cand[i, fs] = np.where(pull < binned, pull, binned)
    return const, cand


def _frame_stack(plane_candidates, k, n):
    """Candidate k-frames as one (frames, k, n) array; none when k >= n."""
    frames = [] if k >= n else [np.atleast_2d(f)[:k] for f in plane_candidates]
    return np.array(frames).reshape(len(frames), k, n)


def symmetry_distance(field, ball, k, plane_candidates=None, bins=24, stop_below=None):
    """Upper bound for the L2 distance of f on the ball from the nearest
    k-symmetric competitor.

    For each candidate plane V the competitor is the conditional mean of f
    over orbits {center + s * (v + V-shift)}: binned by the direction of the
    V-orthogonal component, which makes it exactly 0-homogeneous about the
    center and V-invariant.  The reported value is the minimum over the
    candidates, in order, stopping at the first below stop_below; it is an
    upper bound of the true infimum.  One ball is a batch of one.
    """
    n, center = field.n, ball.center
    if plane_candidates is None:
        plane_candidates = grassmann_candidates(n, k, 64) if k < n else []
    frames = _frame_stack(plane_candidates, k, n)
    const, cand = _symmetry_residuals(field, center[None, :], ball.radius,
                                      float(field.singular_distance(center)[0]),
                                      frames, bins, stop_below)
    best = float(const[0])  # the constant map is k-symmetric for every k
    for val in cand[0]:
        best = min(best, float(val))
        if stop_below is not None and best < stop_below:
            break
    return SymmetryResult(value=best)


def _perp_basis(frame, n):
    """Orthonormal rows spanning the orthogonal complement of a k-frame, k >= 1."""
    Q, _ = np.linalg.qr(np.hstack([frame.T, np.eye(n)]))
    return Q[:, frame.shape[0] :].T


# ---------------------------------------------------------------------------
# quantitative strata
# ---------------------------------------------------------------------------

FINEST_SCALE = 2.0**-60  # the deepest dyadic rung; ball rules underflow near 1e-110


def _dyadic_scales_in(r_min, r_max):
    """Dyadic radii 2^-a with r_min <= 2^-a < r_max and a <= 60, ascending."""
    lo = max(-60, math.floor(math.log2(r_min)))
    return [2.0**e for e in range(lo, math.ceil(math.log2(r_max)) + 1) if r_min <= 2.0**e < r_max]


def quantitative_stratum(field, k, epsilon, r, grid_step, center=None, radius=1.0,
                         plane_count=48, bins=16):
    """Grid points of B_radius(center) with no (k+1, epsilon)-symmetric ball
    at any dyadic scale in [r, radius).

    The ladder is walked once, finest rung first; at each rung the points
    not yet found symmetric form one batch per ball rule.  Membership uses
    the sampled upper bound of the symmetry distance (see module docs); a
    NaN residual counts as not symmetric.  Weights are the k-content
    grid_step^k of each grid cell.  Raises ValueError unless r >= 2^-60.
    """
    if not r >= FINEST_SCALE:
        raise ValueError("quantitative_stratum needs r > 0 and r >= 2**-60, the finest rung")
    n = field.n
    center = np.zeros(n) if center is None else np.asarray(center, dtype=float)
    axis = np.arange(-radius, radius + grid_step * 0.5, grid_step)
    pts = np.stack([m.ravel() for m in np.meshgrid(*[axis] * n, indexing="ij")], axis=1) + center
    pts = pts[np.linalg.norm(pts - center, axis=1) <= radius]
    frames = _frame_stack(grassmann_candidates(n, k + 1, plane_count), k + 1, n)
    d_sing, kept = field.singular_distance(pts), {}
    undecided = np.ones(len(pts), dtype=bool)
    for s in _dyadic_scales_in(r, radius):
        live = np.flatnonzero(undecided)
        rule = np.where(d_sing[live] <= 1.5 * s, d_sing[live], np.inf)
        for d in np.unique(rule):
            ids = live[rule == d]
            const, cand = _symmetry_residuals(field, pts[ids], s, d, frames, bins, epsilon, kept)
            undecided[ids[(const < epsilon) | np.any(cand < epsilon, axis=1)]] = False
    members = pts[undecided]
    return AtomicMeasure(members, np.full(len(members), grid_step**k))


# ---------------------------------------------------------------------------
# regularity scale
# ---------------------------------------------------------------------------

def _sampled_grad_sup(field, x, r, angular_order=6, radial_count=6):
    """Sampled sup of |grad f| over the closed ball, biased toward the
    nearest singular point (where the true sup is attained for cone maps)."""
    omega, _ = _sphere_rule(field.n, angular_order)
    samples = [x[None, :]] + [x[None, :] + frac * r * omega
                              for frac in np.linspace(1.0 / radial_count, 1.0, radial_count)]
    if field.singular is not None:
        target = field.singular.project(x)
        gap = np.linalg.norm(target - x)
        if gap == 0:
            return np.inf
        step = min(r, gap) * (target - x) / gap
        samples += [(x + step)[None, :], (x + step * (1.0 - 1e-9))[None, :]]
    pts = np.vstack(samples)
    d = field.singular_distance(pts)
    if np.any(d <= 1e-14):
        return np.inf
    return float(np.sqrt(field.grad_sq(pts)).max())


def regularity_scale(field, x):
    """Largest r <= 1 with sampled sup_{B_r(x)} |grad f| <= 1/r.

    Bisection keeps a monotone bracket; returns 0 at singular points.
    """
    x = np.asarray(x, dtype=float)

    def ok(r):
        return _sampled_grad_sup(field, x, r) <= 1.0 / r

    if ok(1.0):
        return 1.0
    if float(field.singular_distance(x)[0]) <= 1e-14 or not ok(1e-9):
        return 0.0
    lo, hi = 1e-9, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if ok(mid) else (lo, mid)
    return lo


# ---------------------------------------------------------------------------
# best-approximation inequality check
# ---------------------------------------------------------------------------

def best_approx_check(field, mu, p, r, k, epsilon, quad_panels=24, quad_order=10):
    """Evaluate both sides of the subspace-approximation inequality.

    lhs: displacement of mu at (p, r) with the mass cutoff disabled (the
    fitted infimum).  rhs: r^-k times the mu-integral of the three-octave
    energy drop theta_{8r} - theta_r.  Symmetry preconditions on B_{9r}(p)
    are evaluated and reported, not enforced: 0-symmetry below 0.1, and
    no (k+1)-symmetry better than epsilon over 48 candidate planes.
    """
    p = np.asarray(p, dtype=float)
    ball = Ball(p, r)
    idx = mu.indices_in_ball(ball)
    if len(idx) == 0:
        raise EmptySupportError("no atoms in the evaluation ball")
    sub = mu.subset(idx)
    lhs = second_moment_spectrum(sub, ball).residual(k) * r ** (-(k + 2))
    drops = np.array([
        theta(field, q, 8 * r, panels=quad_panels, order=quad_order)
        - theta(field, q, r, panels=quad_panels, order=quad_order)
        for q in sub.positions
    ])
    rhs = float(np.dot(sub.weights, np.maximum(drops, 0.0))) * r ** (-k)
    big = Ball(p, 9 * r)
    zero_sym = symmetry_distance(field, big, 0).value
    k1_sym = symmetry_distance(field, big, k + 1, plane_candidates=(
        grassmann_candidates(field.n, k + 1, 48) if k + 1 < field.n else None)).value
    return {
        "lhs": float(lhs),
        "rhs": rhs,
        "ratio": float(lhs / rhs) if rhs > 0 else math.inf,
        "zero_symmetric_ok": bool(zero_sym < 0.1),
        "zero_symmetry_value": float(zero_sym),
        "not_k1_symmetric_ok": bool(k1_sym > epsilon),
        "k1_symmetry_value": float(k1_sym),
    }
