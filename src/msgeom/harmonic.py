"""Analytic energy-field testbed: closed-form maps with known singular
structure, normalized Dirichlet energy by ball-adapted quadrature, energy
drops across scales, quantitative symmetry distance, quantitative strata,
and the regularity scale.

The normalized energy of a field f over B_r(x) is

    theta_r(x) = r^(2-n) * integral_{B_r(x)} |grad f|^2,

computed on one tensor grid of Gauss-Legendre radial panels cut exactly at
the kinks (`panels` // 2 of 6 nodes, `panels` an integer >= 2) times an
angular rule of order `order` + 14 (`order` an integer >= -13), with no
error estimate; the worst measured error for x/|x| is 7.1e-8 relative in R^3
and 2.6e-13, 2.9e-7 and 7.4e-7 on the caps of n = 2, 4, 5.  For theta and the
stratum alike, `_kink` makes a singular distance d a kink of B_r only where
1e-12 r < d <= 1.5 r.  Every field carries its energy density |grad f|^2 in
closed form, so no quadrature builds a Jacobian, and sums every squared norm
it takes (fn, grad, density, density_sup) by `geometry.sum_last`.  A singular
set is an AffinePlane, the plane of symmetry V^k of a k-symmetric cone; a
point is the plane with k = 0, and x/|x| is the 0-symmetric cone.  A ball
with a kink at a point singularity is cut into shells about that point; each
shell's cap takes one Gauss-Legendre rule in the polar angle with weight
sin^(n-2), for every n.  Both paths build a block's nodes as one product
along the flattened angular rule plus the tiled centre (bitwise the
broadcast x + s * omega) in `_theta_blocks`: a power of two of whole shells
within 2^14 nodes, to fit a core's L2, so a multiple of 4 from 4 shells up,
which keeps each shell's `@` sum bitwise (see `theta`).  `theta` is a
pure function of its arguments and stores nothing on the field; only the
Gauss rules, the angular rules and the panel rotations, which depend on
small integers alone, are memoized.  Every field lives on B_64(0): `theta`,
`symmetry_distance`, the stratum and `regularity_scales` reject a ball that
is not finite or not inside it.
Each catalog field carries `density_sup(centers, r)`, a closed-form upper
bound of |grad f|^2 over each closed ball B_r(c), inf when the ball meets
the singular set; r_f(x) is the largest r <= 1 with r^2 * density_sup(x, r)
<= 1.  The symmetry distance uses one ball rule per kink and candidate
planes from an in-repo scrambled Halton sequence through the standard
library's normal quantile.  A stratum walks the dyadic ladder once, finest
rung first, in one batch per rule and rung, down to r >= 2^-60; it decides a
ball B_s(x) with s^2 * density_sup(x, s) < epsilon without evaluating the
field: the constant map is symmetric for every k, and the mean-value
inequality puts the ball's constant residual below epsilon.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptySupportError, EnergyInfiniteError
from .geometry import AffinePlane, AtomicMeasure, Ball, sum_last
from .moments import second_moment_spectrum

DOMAIN_RADIUS = 64.0          # every field is defined on B_64(0)
_NODE_BUDGET = 1 << 16       # stratum quadrature nodes evaluated at once
# theta's block: 4 shells of the R^3 rule (9216 nodes) and the field's
# temporaries stay in a core's 2 MiB L2; energy-radial's 4 energy_point calls
# took 51.0-70.6, 55.5-66.8 and 69.4-86.9 ms at 2^14, 2^15 and 2^16 (warm
# medians of 15 in 6 alternations, one Xeon vCPU), every theta bitwise equal
_THETA_NODE_BUDGET = 1 << 14
_KEPT_TABLES = 16            # frame tables (of at most _NODE_BUDGET nodes) a stratum keeps
_BINS = 16                   # bins per direction angle of the binned competitor (2x in longitude)


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
    `density_sup(C, r)` gives (N,) upper bounds of the density over the
    closed balls B_r(c), c a row of C and r a scalar or (N,): inf where the
    ball meets the singular set, never decreasing in r.  r_f and the
    stratum read it.
    """

    def __init__(self, n, fn, grad, density, singular=None, density_sup=None):
        self.n = n
        self.fn = fn
        self.grad = grad
        self.density = density
        self.singular = singular
        self.density_sup = density_sup

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


def _norms(X):
    """Norms over the last axis, kept as an axis of length 1; below 8
    coordinates they equal np.linalg.norm(X, axis=-1, keepdims=True)."""
    return np.sqrt(sum_last(X * X))[..., None]


def radial_projection(n=3):
    """f(x) = x/|x|, the degree-zero cone map onto the sphere: the 0-symmetric
    cone, singular at the point 0."""
    if n < 2:
        raise ValueError("needs n >= 2")
    return k_symmetric_cone(n, 0)


def smoothed_projection(n=3, core=0.05):
    """f(x) = x / sqrt(|x|^2 + core^2): conical far out, smooth at the origin."""

    def fn(X):
        return X / np.sqrt(sum_last(X * X) + core**2)[:, None]

    def grad(X):
        g = np.sqrt(sum_last(X * X) + core**2)
        return (np.eye(n)[None, :, :] / g[:, None, None]
                - X[:, :, None] * X[:, None, :] / g[:, None, None] ** 3)

    def density(X):
        g2 = sum_last(X * X) + core**2
        return (n - 1) / g2 + core**4 / g2**3

    # the density falls in |x|: its sup over a ball is at |x| = max(0, |c| - r)
    return EnergyField(n, fn, grad, density, density_sup=lambda C, r: density(
        np.maximum(_norms(C)[:, 0] - r, 0.0)[:, None] * np.eye(n)[0]))


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

    return EnergyField(n, fn, grad, density, density_sup=lambda C, r: density(C))


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

    # cos^2 and sin^2 are at most 1: an upper bound, not the sup
    return EnergyField(n, fn, grad, density,
                       density_sup=lambda C, r: np.full(len(C), (a @ a) * (1.0 + c_sq)))


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
        nrm = _norms(W)[:, 0]
        nrm = np.where(nrm == 0.0, np.inf, nrm)
        inner = (np.eye(d)[None, :, :] / nrm[:, None, None]
                 - W[:, :, None] * W[:, None, :] / nrm[:, None, None] ** 3)
        out = np.zeros((X.shape[0], d, n))
        out[:, :, k:] = inner
        return out

    def density(X):  # 0 on the plane
        sq = sum_last(X[:, k:] * X[:, k:])
        return np.divide(d - 1.0, sq, out=np.zeros_like(sq), where=sq > 0.0)

    def density_sup(C, r):  # attained at the ball point nearest the plane
        gap = _norms(C[:, k:])[:, 0] - r
        return np.divide(d - 1.0, gap * gap, out=np.full(gap.shape, np.inf), where=gap > 0)

    return EnergyField(n, fn, grad, density, singular=AffinePlane.coordinate(n, list(range(k))),
                       density_sup=density_sup)


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
def _gauss_rule(order, a=0.0):
    """Gauss nodes and weights of `order` points for the weight
    (1 - z^2)^a on [-1, 1], a >= 0, by Golub & Welsch (Math. Comp., 1969):
    the eigenvalues of the Jacobi matrix of the orthonormal Gegenbauer
    polynomials p_j, one Newton step on p_order, and the Christoffel weights
    1 / sum_{j < order} p_j(z)^2 at the polished nodes, symmetrized about 0
    and scaled to the weight's integral.  Memoized like `_sphere_rule`."""
    lam = a + 0.5
    j = np.arange(1.0, order + 1)
    # p_{j+1} b_{j+1} = z p_j - b_j p_{j-1}
    b = np.sqrt(j * (j + 2 * lam - 1) / (4 * (j + lam) * (j + lam - 1)))
    mass = math.sqrt(math.pi) * math.gamma(a + 1.0) / math.gamma(a + 1.5)

    def recurrence(z):
        """p_order(z), its derivative, and sum_{j < order} p_j(z)^2."""
        p_prev, p = np.zeros_like(z), np.full_like(z, 1.0 / math.sqrt(mass))
        dp_prev, dp, squares = np.zeros_like(z), np.zeros_like(z), np.zeros_like(z)
        for i in range(order):
            squares = squares + p * p
            b_prev = b[i - 1] if i else 0.0
            p_prev, p, dp_prev, dp = (p, (z * p - b_prev * p_prev) / b[i],
                                      dp, (p + z * dp - b_prev * dp_prev) / b[i])
        return p, dp, squares

    z = np.linalg.eigvalsh(np.diag(b[:-1], 1) + np.diag(b[:-1], -1))
    p, dp, _ = recurrence(z)
    z = z - p / dp
    w = 1.0 / recurrence(z)[2]
    w, z = (w + w[::-1]) / 2, (z - z[::-1]) / 2
    return z, w * (mass / w.sum())


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
    z, wz = _gauss_rule(order, (n - 3) / 2.0)
    sub_nodes, sub_w = _sphere_rule(n - 1, order)
    sin_t = np.sqrt(np.maximum(1.0 - z**2, 0.0))
    # one block of rows per polar node z: (z, sin * sub_nodes), weight wz * sub_w
    nodes = np.column_stack([np.repeat(z, len(sub_w)), np.kron(sin_t[:, None], sub_nodes)])
    return nodes, np.kron(wz, sub_w)


def _radial_rule(lo, hi, cuts, panel_count):
    """Gauss-Legendre nodes and weights on [lo, hi], cut exactly at the `cuts`
    inside it (Trefethen, SIAM Review, 2008).  Each segment [a, b] is taken in
    u = log s if a > 0, which smooths a 1/s pole below a, else in u = s, then
    in t with u = mid - half cos t, which smooths square-root endpoints; t in
    [0, pi] takes the segment's share by length of `panel_count` 6-node panels."""
    edges, parts = sorted({lo, hi, *(c for c in cuts if lo < c < hi)}), []
    z, wz = _gauss_rule(6)
    for a, b in zip(edges[:-1], edges[1:]):
        m = max(1, round(panel_count * (b - a) / (hi - lo)))
        t = (np.arange(m)[:, None] + 0.5 * (1.0 + z)).ravel() * (math.pi / m)
        ua, ub = (math.log(a), math.log(b)) if a > 0 else (a, b)
        u = 0.5 * (ua + ub) - 0.5 * (ub - ua) * np.cos(t)
        du = (0.25 * (ub - ua) * math.pi / m) * np.sin(t) * np.tile(wz, m)
        s = np.exp(u) if a > 0 else u
        parts.append((s, s * du if a > 0 else du))  # ds = s du in log s
    return tuple(np.concatenate(p) for p in zip(*parts))


def _radial_panels(r, critical, base_count):
    """The stratum's midpoint panels on [0, r], dyadically split toward the
    critical radii down to width 1e-6 r, as arrays of lower and upper edges."""
    edges = list(np.linspace(0.0, r, base_count + 1))
    out = []
    min_width = r * 1e-6
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


def _kink(d_sing, r):
    """The critical radius of B_r(x) at singular distance d_sing: d_sing where
    1e-12 r < d_sing <= 1.5 r, else inf, which the radial rules ignore."""
    return np.where((1e-12 * r < d_sing) & (d_sing <= 1.5 * r), d_sing, np.inf)


def _check_domain(field, X, r):
    """Raise ValueError unless r > 0 and every ball B_r(x), x a row of X (or
    X itself), is a finite ball of R^n inside the field domain B_64(0)."""
    X = np.atleast_2d(X)
    if not (X.shape[-1] == field.n and r > 0
            and np.all(np.linalg.norm(X, axis=1) + r <= DOMAIN_RADIUS)):
        raise ValueError(f"a ball needs r > 0 and a finite centre in R^{field.n} inside B_64(0)")


def _node_blocks(count, per_item):
    """Slices of whole items (balls or frames) of the stratum holding at most
    _NODE_BUDGET nodes, unless one item alone holds more."""
    per = max(1, _NODE_BUDGET // per_item)
    return [slice(lo, lo + per) for lo in range(0, count, per)]


def _theta_blocks(count, per_shell):
    """Slices of whole shells holding at most _THETA_NODE_BUDGET nodes, unless
    one shell alone holds more: the largest power of two that fits, so a
    block of four or more shells is a multiple of 4 (see module docs)."""
    per = 1 << max(0, (_THETA_NODE_BUDGET // per_shell).bit_length() - 1)
    return [slice(lo, lo + per) for lo in range(0, count, per)]


def _theta_cap_shells(field, x, r, d, panel_count, angular_order):
    """Shells centered at the singular point p, clipped to B_r(x).

    The sphere of radius s about p meets the ball in the polar cap
    cos(angle to x - p) >= z* = (s^2 + d^2 - r^2) / (2 s d); the integrand is
    smooth on every such shell, so the angular rule converges fast and the
    radial rule runs to s = d + r, cut at |d - r| and d.  Each cap is a
    Gauss-Legendre rule in the angle phi to x - p on [0, arccos z*], weight
    sin^(n-2) phi, times the sphere S^(n-2) of directions orthogonal to it;
    the caps of all shells are stacked and evaluated in `_theta_blocks`, each
    polar node's ring built as one product along the flattened ring plus the
    tiled axial point.
    """
    n, p = field.n, field.singular.base
    e = (x - p) / d
    s, w = _radial_rule(max(0.0, d - r), d + r, [abs(d - r), d], panel_count)
    zstar = np.clip((s * s + d * d - r * r) / (2.0 * s * d), -1.0, 1.0)
    t, wt = _gauss_rule(max(8, angular_order))
    phi_star = np.arccos(zstar)[:, None]
    phi = 0.5 * phi_star * (1.0 + t)
    cos_t, sin_t = np.cos(phi), np.sin(phi)
    w_polar = 0.5 * phi_star * wt * sin_t ** (n - 2)
    sub_nodes, sub_w = _sphere_rule(n - 1, angular_order)
    ring = (sub_nodes @ _perp_basis(e[None, :], n)).ravel()  # S^(n-2) orthogonal to e
    # nodes p + s cos(t) e + s sin(t) u: shell radius s, polar node t, u in ring
    axial = p + (s[:, None] * cos_t)[:, :, None] * e        # (shells, q, n)
    radial = s[:, None] * sin_t                             # (shells, q)
    shell = np.empty(len(s))
    for blk in _theta_blocks(len(s), cos_t.shape[1] * len(sub_w)):
        nodes = radial[blk, :, None] * ring                 # (shells, q, ring * n)
        nodes += np.tile(axial[blk], len(sub_w))
        g2 = np.minimum(field.grad_sq(nodes.reshape(-1, n)), 1e30).reshape(*nodes.shape[:2], -1)
        shell[blk] = np.einsum("pq,pqs->ps", w_polar[blk], g2) @ sub_w
    return float((w * s ** (n - 1)) @ shell) * r ** (2 - n)


def theta(field, x, r, panels=24, order=10):
    """Normalized energy theta_r(x) from one rule: `_radial_rule` with
    `panels` // 2 panels of 6 Gauss nodes on [0, r] cut at the `_kink` (cap
    shells up to d + r cut at |d - r| and d at a point singularity), times angular
    order `order` + 14; raise either to refine.  No self-check; the worst
    measured error for x/|x| is 7.1e-8 relative in R^3, 2.6e-13 on the caps
    of n = 2, 2.9e-7 on those of n = 4 and 7.4e-7 on those of n = 5.

    A block's nodes are s * omega.ravel() + tile(x): one long product along
    the angular rule, the same multiply-then-add per coordinate as the
    broadcast x + s * omega, so the same bits.  Blocks are `_theta_blocks`:
    whole shells, at most 2^14 nodes, a power-of-two count, so a block of 4
    or more shells is a multiple of 4; OpenBLAS's `@` rounds a row by its
    place in a group of 4 rows, so each shell's sum keeps its bits.

    Raises ValueError unless `panels` is an integer >= 2 and `order` an
    integer >= -13, and EnergyInfiniteError when the ball meets a singular set of
    codimension <= 2 (the dist^-2 integrand is not locally integrable).
    """
    if not (isinstance(panels, (int, np.integer)) and isinstance(order, (int, np.integer))
            and panels >= 2 and order >= -13):
        raise ValueError("theta needs integers panels >= 2 and order >= -13")
    x = np.asarray(x, dtype=float)
    _check_domain(field, x, r)
    n, d_sing = field.n, float(field.singular_distance(x)[0])
    if field.singular is not None and n - field.singular.k <= 2 and d_sing <= r:
        raise EnergyInfiniteError(
            "energy infinite: singular set of codimension <= 2 meets the ball")
    panel_count, angular_order, kink = panels // 2, order + 14, float(_kink(d_sing, r))
    if kink < math.inf and field.singular.k == 0:  # a kink needs a singular set
        return _theta_cap_shells(field, x, r, kink, panel_count, angular_order)
    s, w = _radial_rule(0.0, r, [kink], panel_count)
    omega, w_ang = _sphere_rule(n, angular_order)
    omega, shift, shell = omega.reshape(-1), np.tile(x, len(w_ang)), np.empty(len(s))
    for blk in _theta_blocks(len(s), len(w_ang)):
        nodes = s[blk, None] * omega                        # (shells, nodes * n)
        nodes += shift
        g2 = np.minimum(field.grad_sq(nodes.reshape(-1, n)), 1e30)  # guard on near-singular nodes
        shell[blk] = g2.reshape(-1, len(w_ang)) @ w_ang
    return float(np.add.reduce(w * s ** (n - 1) * shell)) * r ** (2 - n)


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
    from numpy.random import default_rng  # not with the package: only a stratum draws

    rng, out = default_rng(0), np.zeros((count, d))
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
    Halton points through the standard normal quantile, orthonormalized."""
    if k == 0:
        return [np.zeros((0, n))]
    # statistics loads here, not with the package: only a stratum needs it
    from statistics import NormalDist

    raw = np.clip(_scrambled_halton(n * k, count), 1e-12, 1 - 1e-12)
    quantile = NormalDist().inv_cdf
    gauss = np.array([quantile(p) for p in raw.ravel().tolist()])
    return [np.linalg.qr(G)[0].T.copy() for G in gauss.reshape(count, n, k)]


@functools.cache
def _panel_rotation(n, index):
    from numpy.random import default_rng
    return np.linalg.qr(default_rng(1000 + index).normal(size=(n, n)))[0]


def _ball_rule(n, r, kink):
    """Node offsets and weights over B_r: 10 base radial panels, split toward
    the critical radius `kink` (see `_kink`), times the angular rule of order
    8, rotated per shell so node directions do not repeat (repetition lets an
    adversarial plane overfit the binned competitor).  The centre enters only
    through its kink: every ball without one shares one rule."""
    a, b = _radial_panels(r, [kink], 10)
    omega, w_ang = _sphere_rule(n, 8)
    mids, widths = 0.5 * (a + b), b - a
    offsets = np.concatenate([s * omega @ _panel_rotation(n, i).T for i, s in enumerate(mids)])
    weights = (widths * mids ** (n - 1))[:, None] * w_ang[None, :]
    return offsets, weights.reshape(-1)


def _direction_bins(dirs):
    """Assign unit vectors to direction bins; returns integer labels."""
    d = dirs.shape[1]
    if d == 1:
        return (dirs[:, 0] < 0).astype(int)
    if d == 2:
        ang = np.arctan2(dirs[:, 1], dirs[:, 0])
        return np.floor((ang + np.pi) / (2 * np.pi) * _BINS).astype(int) % _BINS
    # d >= 3: latitude-longitude boxes on the first two angles
    lat = np.clip(dirs[:, 0], -1.0, 1.0)
    band = np.floor((lat + 1.0) / 2.0 * _BINS).astype(int) % _BINS
    ang = np.arctan2(dirs[:, 2], dirs[:, 1])
    sector = np.floor((ang + np.pi) / (2 * np.pi) * (2 * _BINS)).astype(int) % (2 * _BINS)
    return band * (2 * _BINS) + sector


def _frame_table(offsets, frames, r):
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
    labels = _direction_bins(dirs.reshape(-1, dirs.shape[2])).reshape(count, -1)
    keys = (labels + (labels.max() + 1) * np.arange(count)[:, None]).ravel()
    order = np.argsort(keys.astype(np.min_scalar_type(keys.max())), kind="stable")
    return perp_unit, order, np.flatnonzero(np.diff(keys[order], prepend=-1))


def _symmetry_residuals(field, centers, r, kink, frames, stop_below, kept=None):
    """Constant-map residuals (balls,) and best-competitor residuals (balls,
    frames) of the balls B_r(c), c in centers, which share the rule for
    `kink`, in blocks of at most _NODE_BUDGET nodes.  Once a ball has a
    residual below stop_below, or a NaN constant residual, its remaining
    entries stay inf.  `kept` holds frame tables by rule shape offsets / r:
    at power-of-two r the shape fixes the tables, whose cut is relative."""
    offsets, weights = _ball_rule(field.n, r, kink)
    (N, n), total = offsets.shape, weights.sum()
    const = np.empty(len(centers))
    for blk in _node_blocks(len(centers), N):
        # node-major (node, ball, component): the mean adds whole node rows of
        # changes from each ball's first node, so rounding scales with them
        c = centers[blk]
        nodes = np.repeat(offsets, len(c), axis=0).reshape(N, len(c), n)
        nodes += c
        values = field(nodes.reshape(-1, n)).reshape(N, len(c), -1)
        values = values - values[0]
        mean = (weights[:, None, None] * values).sum(axis=0) / total
        dev = sum_last((values - mean) ** 2).T.copy()
        const[blk] = (weights * dev).sum(axis=1) / total
    stop = -np.inf if stop_below is None else stop_below
    cand = np.full((len(centers), len(frames)), np.inf)
    done = (const < stop) | np.isnan(const)
    shape = (offsets / r).tobytes()
    for fs in _node_blocks(len(frames), N):
        table = (kept or {}).get((shape, fs.start))
        if table is None:
            table = _frame_table(offsets, frames[fs], r)
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
            dev = sum_last((v - np.repeat(means, lengths, axis=0)) ** 2)
            binned = (w * dev).reshape(count, N).sum(axis=1) / total
            # competitor 2: pullback through the orbit representative; exact
            # for fields that are k-symmetric with this plane
            rep = field((centers[i] + perp_unit).reshape(-1, n)).reshape(count, N, -1)
            pull = (weights * sum_last((values - rep) ** 2)).sum(axis=1) / total
            cand[i, fs] = np.where(pull < binned, pull, binned)
    return const, cand


def _frame_stack(plane_candidates, k, n):
    """Candidate k-frames as one (frames, k, n) array; none when k >= n."""
    frames = [] if k >= n else [np.atleast_2d(f)[:k] for f in plane_candidates]
    return np.array(frames).reshape(len(frames), k, n)


def symmetry_distance(field, ball, k, plane_candidates=None, stop_below=None):
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
    _check_domain(field, center, ball.radius)
    if plane_candidates is None:
        plane_candidates = grassmann_candidates(n, k, 64) if k < n else []
    frames = _frame_stack(plane_candidates, k, n)
    const, cand = _symmetry_residuals(field, center[None, :], ball.radius,
                                      _kink(field.singular_distance(center)[0], ball.radius),
                                      frames, stop_below)
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
                         plane_count=48):
    """Grid points of B_radius(center) with no (k+1, epsilon)-symmetric ball
    at any dyadic scale in [r, radius).

    The ladder is walked once, finest rung first; at each rung the points
    not yet found symmetric form one batch per ball rule.  Membership uses
    the sampled upper bound of the symmetry distance; a NaN residual counts
    as not symmetric.  A ball with s^2 * density_sup(x, s) < epsilon is
    decided unevaluated (see module docs), as the quadrature decides it for
    epsilon above its rounding, about 1e-32 for |f| near 1.  Weights are the
    k-content grid_step^k.  Raises ValueError unless r >= 2^-60, grid_step
    is finite and positive and B_radius(center) lies in B_64(0)."""
    if not (r >= FINEST_SCALE and 0.0 < grid_step < math.inf):
        raise ValueError("quantitative_stratum needs r > 0 and r >= 2**-60, the finest rung,"
                         " and a finite grid_step > 0")
    n = field.n
    center = np.zeros(n) if center is None else np.asarray(center, dtype=float)
    _check_domain(field, center, radius)
    axis = np.arange(-radius, radius + grid_step * 0.5, grid_step)
    pts = np.stack([m.ravel() for m in np.meshgrid(*[axis] * n, indexing="ij")], axis=1) + center
    pts = pts[Ball(center, radius).contains(pts)]
    frames = _frame_stack(grassmann_candidates(n, k + 1, plane_count), k + 1, n)
    d_sing, kept = field.singular_distance(pts), {}
    undecided = np.ones(len(pts), dtype=bool)
    for s in _dyadic_scales_in(r, radius):
        live = np.flatnonzero(undecided)
        if field.density_sup is not None:
            # the constant residual is at most s^2 * density_sup; NaN screens nothing
            screened = s * s * field.density_sup(pts[live], s) < epsilon * (1 - 1e-9)
            undecided[live[screened]] = False
            live = live[~screened]
        rule = _kink(d_sing[live], s)
        # a handful of distances; np.unique would load numpy.ma on first use
        for d in sorted(set(rule.tolist())):
            ids = live[rule == d]
            const, cand = _symmetry_residuals(field, pts[ids], s, d, frames, epsilon, kept)
            undecided[ids[(const < epsilon) | np.any(cand < epsilon, axis=1)]] = False
    members = pts[undecided]
    return AtomicMeasure(members, np.full(len(members), grid_step**k))


# ---------------------------------------------------------------------------
# regularity scale
# ---------------------------------------------------------------------------

def regularity_scales(field, X):
    """r_f(x) for each row x of X: the largest r <= 1 with
    r^2 * density_sup(x, r) <= 1, to 2^-60 by 60 halvings of [0, 1] for all
    rows at once; 0 on the singular set, where the bound is inf.  Raises
    ValueError unless the field has a density_sup, each x is a finite point
    of R^n and B_1(x) lies in B_64(0)."""
    if field.density_sup is None:
        raise ValueError("regularity_scales needs a field with a density_sup bound")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    _check_domain(field, X, 1.0)
    lo, hi = np.zeros(len(X)), np.ones(len(X))
    for _ in range(60):  # a row that always fits reaches 1: 0.5 * (2 - 2^-53) rounds up
        mid = 0.5 * (lo + hi)
        ok = mid * mid * field.density_sup(X, mid) <= 1.0
        lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
    return lo


def regularity_scale(field, x):
    """r_f(x) of one point: the batch of one of `regularity_scales`."""
    return float(regularity_scales(field, x)[0])


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
