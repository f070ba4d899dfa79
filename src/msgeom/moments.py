"""Best-L2 affine subspace fitting via second directional moments, the
k-dimensional displacement of a weighted point set, dyadic displacement
profiles, summability checks, and effective-spanning detection.

The displacement of a measure mu at (x, r) is the scale-normalized residual
of the best k-plane fit over the ball B_r(x),

    D(x, r) = r^{-(k+2)} * min_L  sum_{x_j in B_r(x)} w_j d^2(x_j, L),

set to zero when the ball carries less than a configured mass cutoff.  The
minimizing plane passes through the center of mass and is spanned by the top
eigenvectors of the second-moment matrix; the minimum equals the sum of the
trailing eigenvalues.

Every ball statistic here comes from one kernel, on the items of each closed
ball (geometry.SpatialIndex.ball_items): the kd-nodes wholly inside it and
the atoms of the leaves its boundary cuts, found by walking the tree one
level at a time for a chunk of centers at once (Gray & Moore 2001).  Each
node carries its mass (ItemTree.totals, per walk), an anchor atom, its mean
offset from the anchor and its centred scatter, built once per measure from
coordinate differences (AtomicMeasure.item_moments); an atom is an item with
zero spread.  A ball's items, in tree-slot order, enter at their offsets
from the ball's own query center; their masses and mean offsets are summed,
then their spreads about that mean plus their own scatter (two passes; the
pairwise merge of Chan, Golub & LeVeque 1983).  A ball that takes no whole
node adds exact zeros to its atoms' sums.  Counts are node sizes plus atoms.
Each (center set, radius) is walked once: one pass gives the counts, masses
and displacements of its balls (the dyadic sum stops on the centers' own
counts), and per-atom value columns share one mass walk.  One batched
cyclic-Jacobi solve follows.  Every spectrum and plane fit is a
`second_moment_spectra` batch; a single ball is a batch of one, so one-ball
and batched results agree bitwise, and translating mu and the centers
together by an exact shift leaves every result bitwise unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptySupportError
from .geometry import AffinePlane, Ball, centred_sums, segment_sums

MAX_MOMENT_DIM = 16
_MAX_DYADIC_SCALES = 60
_JACOBI_TOL = 1e-14          # relative size of an off-diagonal entry left unrotated
_JACOBI_SWEEPS = 64


def unit_ball_volume(k):
    """Volume of the unit ball in R^k (omega_k); omega_0 = 1."""
    return math.pi ** (k / 2.0) / math.gamma(k / 2.0 + 1.0)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DisplacementConfig:
    """Coefficients steering the displacement machinery.

    eps_mass   : mass cutoff; D(x,r) = 0 when mu(B_r(x)) < eps_mass * r^k.
    gamma_good : good-ball threshold; a ball is good when its mass is at
                 least gamma_good * r^k.
    rho        : scale ratio between consecutive construction scales, a
                 power of 1/2.
    delta      : smallness threshold for summability-type hypotheses.
    """

    eps_mass: float
    gamma_good: float
    rho: float = 0.5
    delta: float = 0.1

    def __post_init__(self):
        if self.eps_mass < 0 or self.gamma_good <= 0 or self.delta <= 0:
            raise ValueError("displacement coefficients must be positive")
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        q = math.log2(1.0 / self.rho)
        if not (abs(q - round(q)) < 1e-12 and round(q) >= 1):
            raise ValueError("rho must be 2^-q for an integer q >= 1")

    @classmethod
    def default(cls, k, delta=0.1):
        """Desk-scale coefficients: non-vacuous cutoffs for small point sets."""
        wk = unit_ball_volume(k)
        return cls(eps_mass=1e-3 * wk, gamma_good=wk * 4.0 ** (-k), delta=delta)

    @classmethod
    def strict(cls, n, k):
        """Literal worst-case constants; vacuously small for numerical work.

        eps_mass = (1000 n)^(-7 n^2), gamma_good = omega_k 40^-k, and
        rho = 10^-10 (100 n)^(-3n) rounded down to a power of 1/2; delta
        keeps its default.  These underflow to zero for moderate n, which is
        a valid lower bound.
        """
        eps = math.exp(-7.0 * n * n * math.log(1000.0 * n))
        rho_raw = 1e-10 * (100.0 * n) ** (-3.0 * n)
        q = max(1, math.ceil(-math.log2(rho_raw)))
        return cls(
            eps_mass=eps,
            gamma_good=unit_ball_volume(k) * 40.0 ** (-k),
            rho=2.0 ** (-q),
        )


# ---------------------------------------------------------------------------
# eigensolver: cyclic Jacobi for stacks of small symmetric matrices
# ---------------------------------------------------------------------------

def jacobi_eigh(A):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps run in a fixed row-major order of the upper triangle so results
    are reproducible.  Supports n <= 16.  Returns eigenvalues in descending
    order with matching eigenvector rows.
    """
    A = np.array(A, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("matrix must be square")
    if n > MAX_MOMENT_DIM:
        raise ValueError(f"jacobi_eigh supports n <= {MAX_MOMENT_DIM}, got {n}")
    if not np.allclose(A, A.T, atol=1e-12 * max(1.0, np.abs(A).max())):
        raise ValueError("matrix must be symmetric")
    ev, vecs = _jacobi_stack(0.5 * (A + A.T)[None])
    return ev[0], vecs[0]


def _rotate(X, p, q, c, s):
    """Rotate rows p and q of every matrix in the stack X."""
    X[:, p], X[:, q] = c * X[:, p] - s * X[:, q], s * X[:, p] + c * X[:, q]


def _jacobi_stack(A):
    """Cyclic Jacobi on a stack of symmetric matrices, shape (m, n, n).

    A rotation at (p, q) is applied only to the matrices whose entry there
    exceeds _JACOBI_TOL times their largest entry, so each result is
    independent of the rest of the stack; at most _JACOBI_SWEEPS sweeps
    run.  Returns descending eigenvalues (m, n) and the matching
    eigenvector rows (m, n, n).
    """
    A = np.array(A, dtype=float)
    n = A.shape[1]
    V = np.broadcast_to(np.eye(n), A.shape).copy()
    cut = _JACOBI_TOL * np.abs(A).max(axis=(1, 2), initial=0.0)
    for _ in range(_JACOBI_SWEEPS):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                sel = np.flatnonzero(np.abs(A[:, p, q]) > cut)
                if sel.size == 0:
                    continue
                rotated = True
                a, v = A[sel], V[sel]
                theta = 0.5 * (a[:, q, q] - a[:, p, p]) / a[:, p, q]
                t = np.copysign(1.0, theta) / (np.abs(theta) + np.hypot(1.0, theta))
                c = 1.0 / np.hypot(1.0, t)
                c, s = c[:, None], (t * c)[:, None]
                _rotate(a, p, q, c, s)
                _rotate(a.swapaxes(1, 2), p, q, c, s)
                a[:, p, q] = a[:, q, p] = 0.0
                _rotate(v, p, q, c, s)
                A[sel], V[sel] = a, v
        if not rotated:
            break
    ev = np.diagonal(A, axis1=1, axis2=2)
    order = np.argsort(-ev, axis=1, kind="stable")
    return np.take_along_axis(ev, order, axis=1), np.take_along_axis(V, order[:, :, None], axis=1)


# ---------------------------------------------------------------------------
# the ball-item -> centred-moment kernel
# ---------------------------------------------------------------------------

def _ball_moments(mu, centers, r):
    """Atom counts, masses, centers of mass and centred second-moment
    matrices sum w_j (x_j - x_cm)(x_j - x_cm)^T of the balls B_r(c).

    Each item enters at its anchor's offset from the ball's own center plus
    its mean offset from the anchor; the second moments are the items'
    spreads about the ball's mean plus their own centred scatter."""
    m, n = centers.shape
    upper = np.triu_indices(n)
    t = mu._index.item_tree()
    mass = t.totals(mu.weights)
    offset, scatter = mu.item_moments()
    counts = np.zeros(m, dtype=np.intp)
    masses = np.zeros(m)
    means = np.zeros((m, n))
    mats = np.zeros((m, n, n))
    for lo, hi, indptr, items in mu._index.ball_items(centers, r):
        owner = np.repeat(np.arange(hi - lo), np.diff(indptr))
        # coordinate-major offsets from the ball's own center, so that no
        # coordinate offset enters the sums
        rel = (mu.positions.T[:, t.anchor[items]] - centers.T[:, lo:hi][:, owner]) \
            + offset.T[:, items]
        masses[lo:hi], means[lo:hi], tri = centred_sums(rel, mass[items], indptr, owner)
        tri += segment_sums(scatter[items], indptr)
        counts[lo:hi] = segment_sums(t.size[items], indptr)
        mats[lo:hi, upper[0], upper[1]] = tri
        mats[lo:hi, upper[1], upper[0]] = tri
    return counts, masses, centers + means, mats


def ball_sums_many(mu, centers, r, values):
    """Sums of per-atom values (atoms,) or (atoms, columns) over the balls
    B_r(c) for many centers, every column from one walk."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    per_item = mu._index.item_tree().totals(np.asarray(values, dtype=float))
    out = np.zeros(centers.shape[:1] + per_item.shape[1:])
    for lo, hi, indptr, items in mu._index.ball_items(centers, r):
        out[lo:hi] = segment_sums(per_item[items], indptr)
    return out


def ball_masses_many(mu, centers, r):
    """mu(B_r(center)) for many centers at once (the kernel's mass pass)."""
    return ball_sums_many(mu, centers, r, mu.weights)


# ---------------------------------------------------------------------------
# moment spectra and best planes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentSpectrum:
    """Center of mass, descending second-moment eigenvalues, eigenvector rows."""

    x_cm: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # row i is the eigenvector of eigenvalues[i]
    mass: float

    def residual(self, k):
        """lambda_{k+1} + ... + lambda_n: the optimal k-plane fitting residual."""
        return float(self.eigenvalues[k:].sum())

    def plane(self, k):
        """Best k-dimensional affine plane: through x_cm, top-k eigenvectors."""
        return AffinePlane(self.x_cm, self.eigenvectors[:k], _skip_checks=True)


def second_moment_spectra(mu, centers, r):
    """Atom counts and second-moment spectra of the balls B_r(c) for many
    centers: one kernel pass and one batched Jacobi solve.  An empty ball
    has mass 0, its center as x_cm and a zero spectrum."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    counts, masses, x_cm, mats = _ball_moments(mu, centers, r)
    ev, vecs = _jacobi_stack(mats)
    ev = np.maximum(ev, 0.0)  # clamp rounding noise on rank-deficient clouds
    return counts, [MomentSpectrum(x_cm=c, eigenvalues=e, eigenvectors=v, mass=float(m))
                    for c, e, v, m in zip(x_cm, ev, vecs, masses)]


def second_moment_spectrum(mu, ball):
    """Second directional moments of mu restricted to the ball.

    The eigenpairs (lambda_i, v_i) of M = sum w_j (x_j - x_cm)(x_j - x_cm)^T
    satisfy the stationarity identity sum w_j <x_j - x_cm, v_i>(x_j - x_cm)
    = lambda_i v_i, and lambda_i = sum w_j <x_j - x_cm, v_i>^2.
    """
    _, (spec,) = second_moment_spectra(mu, ball.center[None, :], ball.radius)
    if not spec.mass > 0.0:
        raise EmptySupportError("empty support: no mass in the requested ball")
    return spec


def center_of_mass(mu, ball):
    """Mass-weighted mean of the atoms inside the ball."""
    return second_moment_spectrum(mu, ball).x_cm


def best_affine_plane(mu, ball, k):
    """The k-plane minimizing sum w_j d^2(x_j, L) over atoms in the ball."""
    return second_moment_spectrum(mu, ball).plane(k)


def displacement(mu, x, r, k, cfg):
    """k-dimensional displacement D(x, r) of mu, with mass cutoff.

    Returns r^{-(k+2)} (lambda_{k+1} + ... + lambda_n) of mu restricted to
    B_r(x) when mu(B_r(x)) >= eps_mass * r^k, else exactly 0.  The value is
    invariant under the rescaling (x, r, mu) -> (0, 1, pushforward).
    """
    ball = Ball(x, r)
    return float(displacement_profile_many(mu, ball.center[None, :], r, k, cfg)[0])


def _displacements(mu, centers, r, k, cfg):
    """Atom counts, masses and displacements D(c, r) of B_r(c): one kernel pass."""
    counts, masses, _, mats = _ball_moments(mu, centers, r)
    fit = (counts > k + 1) & (masses >= cfg.eps_mass * r**k) & (masses > 0.0)
    ev, _ = _jacobi_stack(mats[fit])
    out = np.zeros(centers.shape[0])
    out[fit] = np.maximum(ev[:, k:], 0.0).sum(axis=1) * r ** (-(k + 2))
    return counts, masses, out


def displacement_profile_many(mu, centers, r, k, cfg):
    """Displacement at one scale for many centers in a single batch.

    Balls holding at most k+1 atoms (which fit a k-plane exactly) or less
    mass than the cutoff are exactly zero; the rest share one batched
    Jacobi solve.
    """
    return _displacements(mu, np.atleast_2d(np.asarray(centers, dtype=float)), r, k, cfg)[2]


# ---------------------------------------------------------------------------
# dyadic profiles and summability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DyadicProfile:
    """Displacement and mass of mu around one center across dyadic scales."""

    center: np.ndarray
    k: int
    scales: np.ndarray        # r_alpha = 2^-alpha, strictly decreasing
    displacements: np.ndarray
    masses: np.ndarray

    def entries(self):
        return list(zip(self.scales, self.displacements, self.masses))


def dyadic_profiles(mu, centers, k, alpha_min, alpha_max, cfg):
    """Profiles alpha -> D(x, 2^-alpha), alpha_min..alpha_max, for many
    centers; one kernel pass per scale gives displacements and masses."""
    if alpha_min > alpha_max:
        raise ValueError("alpha_min must not exceed alpha_max")
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    scales = 2.0 ** (-np.arange(alpha_min, alpha_max + 1).astype(float))
    rows = [_displacements(mu, centers, r, k, cfg)[1:] for r in scales]
    masses, disps = np.array(rows).transpose(1, 2, 0)
    return [DyadicProfile(center=c, k=k, scales=scales, displacements=d, masses=m)
            for c, d, m in zip(centers, disps, masses)]


def dyadic_profile(mu, x, k, alpha_min, alpha_max, cfg):
    """Displacement profile alpha -> D(x, 2^-alpha) for alpha_min..alpha_max."""
    x = np.asarray(x, dtype=float)
    return dyadic_profiles(mu, x[None, :], k, alpha_min, alpha_max, cfg)[0]


def dyadic_displacement_sums(mu, centers, r, k, cfg):
    """Summed displacement of every center over the dyadic scales <= r.

    D(., r_alpha) is computed once per dyadic r_alpha <= r, coarsest first,
    until that pass finds at most k+1 atoms in every center's ball (it and
    all finer displacements vanish: k+1 points fit a k-plane exactly).
    Returns the suffix sums: row i is sum_{b >= i} D(., r_{alpha_0 + b})
    where r_{alpha_0} is the largest dyadic radius <= r, and the last row,
    the sum past the truncation, is zero.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    alpha = math.ceil(-math.log2(r) - 1e-12)
    disps = []
    for a in range(alpha, alpha + _MAX_DYADIC_SCALES):
        counts, _, d = _displacements(mu, centers, 2.0 ** (-a), k, cfg)
        if counts.max(initial=0) <= k + 1:
            break
        disps.append(d)
    sums = np.zeros((len(disps) + 1, centers.shape[0]))
    if disps:
        sums[:-1] = np.cumsum(disps[::-1], axis=0)[::-1]
    return sums


def summability_check(mu, ball, k, cfg):
    """Discrete summed-displacement hypothesis on a ball.

    value = r^-k * sum_{r_alpha <= r} sum_{x_j in ball} w_j D(x_j, r_alpha);
    holds when value < delta^2.  The dyadic sum is truncated once all finer
    scales provably contribute zero.
    """
    idx = mu.indices_in_ball(ball)
    if len(idx) == 0:
        return True, 0.0
    sums = dyadic_displacement_sums(mu, mu.positions[idx], ball.radius, k, cfg)
    value = float(np.add.reduce(mu.weights[idx] * sums[0])) * ball.radius ** (-k)
    return value < cfg.delta ** 2, value


# ---------------------------------------------------------------------------
# effective spanning
# ---------------------------------------------------------------------------

def effective_spanning_points(mu, ball, k, alpha):
    """Greedy search for k+1 atoms that alpha-effectively span a k-plane.

    Returned points p_0..p_k satisfy |p_i - p_0| <= 1/alpha and each p_i lies
    farther than alpha from the affine span of its predecessors.  Returns
    None when the greedy search cannot complete the chain.
    """
    idx = mu.indices_in_ball(ball)
    idx = idx[mu.weights[idx] > 0]
    if len(idx) == 0:
        return None
    pts = mu.positions[idx]
    order = np.argsort(np.linalg.norm(pts - ball.center, axis=1), kind="stable")
    inv_alpha = 1.0 / alpha
    for start in order[: min(len(order), 8)]:
        p0 = pts[start]
        near = pts[np.linalg.norm(pts - p0, axis=1) <= inv_alpha]
        chosen = [p0]
        dirs = np.zeros((0, pts.shape[1]))
        ok = True
        for _ in range(k):
            rel = near - p0
            if dirs.shape[0]:
                rel = rel - rel @ dirs.T @ dirs
            dist = np.linalg.norm(rel, axis=1)
            j = int(np.argmax(dist))
            if dist[j] <= alpha:
                ok = False
                break
            chosen.append(near[j])
            dirs = np.vstack([dirs, rel[j] / dist[j]])
        if ok:
            return [np.array(p) for p in chosen]
    return None
