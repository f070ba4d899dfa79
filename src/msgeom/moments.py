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

Every ball statistic here comes from one kernel.  The closed-ball CSR
neighbourhoods of a batch of centers (geometry.SpatialIndex) are walked in
chunks of whole balls under a fixed pair budget; each ball's atoms are
taken relative to its own query center, their mass and mean offset are
summed, and the second moments are summed about that mean (two passes).  The
stack of moment matrices goes through one batched cyclic-Jacobi solve.  A
single ball is a batch of one, so one-ball and batched results agree
bitwise, and translating mu and the centers together by an exact shift
leaves every result bitwise unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptySupportError
from .geometry import AffinePlane, Ball, segment_sums

MAX_MOMENT_DIM = 16
_PAIR_BUDGET = 1 << 18       # (ball, atom) pairs held at once by the kernel
_MAX_DYADIC_SCALES = 60


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
    def strict(cls, n, k, delta=0.1):
        """Literal worst-case constants; vacuously small for numerical work.

        eps_mass = (1000 n)^(-7 n^2), gamma_good = omega_k 40^-k, and
        rho = 10^-10 (100 n)^(-3n) rounded down to a power of 1/2.  These
        underflow to zero for moderate n, which is a valid lower bound.
        """
        eps = math.exp(-7.0 * n * n * math.log(1000.0 * n))
        rho_raw = 1e-10 * (100.0 * n) ** (-3.0 * n)
        q = max(1, math.ceil(-math.log2(rho_raw)))
        return cls(
            eps_mass=eps,
            gamma_good=unit_ball_volume(k) * 40.0 ** (-k),
            rho=2.0 ** (-q),
            delta=delta,
        )


# ---------------------------------------------------------------------------
# eigensolver: cyclic Jacobi for stacks of small symmetric matrices
# ---------------------------------------------------------------------------

def jacobi_eigh(A, tol=1e-14, max_sweeps=64, check_symmetry=True):
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
    if check_symmetry:
        if not np.allclose(A, A.T, atol=1e-12 * max(1.0, np.abs(A).max())):
            raise ValueError("matrix must be symmetric")
        A = 0.5 * (A + A.T)
    ev, vecs = _jacobi_stack(A[None], tol, max_sweeps)
    return ev[0], vecs[0]


def _rotate(X, p, q, c, s):
    """Rotate rows p and q of every matrix in the stack X."""
    X[:, p], X[:, q] = c * X[:, p] - s * X[:, q], s * X[:, p] + c * X[:, q]


def _jacobi_stack(A, tol=1e-14, max_sweeps=64):
    """Cyclic Jacobi on a stack of symmetric matrices, shape (m, n, n).

    A rotation at (p, q) is applied only to the matrices whose entry there
    exceeds tol times their largest entry, so each result is independent
    of the rest of the stack.  Returns descending eigenvalues (m, n) and
    the matching eigenvector rows (m, n, n).
    """
    A = np.array(A, dtype=float)
    n = A.shape[1]
    V = np.broadcast_to(np.eye(n), A.shape).copy()
    cut = tol * np.abs(A).max(axis=(1, 2), initial=0.0)
    for _ in range(max_sweeps):
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
# the neighbourhood -> centred-moment kernel
# ---------------------------------------------------------------------------

def _neighbourhoods(mu, centers, r):
    """Chunks (lo, hi, indptr, indices) of the closed balls B_r(c) for
    c in centers[lo:hi], in CSR form; a chunk holds whole balls and at most
    _PAIR_BUDGET (ball, atom) pairs unless one ball alone holds more."""
    ends = np.cumsum(mu._index.query_counts(centers, r))
    lo = 0
    while lo < len(centers):
        start = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, start + _PAIR_BUDGET, side="right")))
        yield (lo, hi) + mu._index.neighborhoods(centers[lo:hi], r)
        lo = hi


def _ball_moments(mu, centers, r):
    """Atom counts, masses, centers of mass and centred second-moment
    matrices sum w_j (x_j - x_cm)(x_j - x_cm)^T of the balls B_r(c)."""
    m, n = centers.shape
    upper = np.triu_indices(n)
    counts = np.zeros(m, dtype=np.intp)
    masses = np.zeros(m)
    means = np.zeros((m, n))
    mats = np.zeros((m, n, n))
    for lo, hi, indptr, idx in _neighbourhoods(mu, centers, r):
        w = mu.weights[idx]
        counts[lo:hi] = np.diff(indptr)
        owner = np.repeat(np.arange(hi - lo), counts[lo:hi])
        # coordinate-major offsets from the ball's own center, so that no
        # coordinate offset enters the sums
        rel = mu.positions.T[:, idx] - centers.T[:, lo:hi][:, owner]
        masses[lo:hi] = segment_sums(w, indptr)
        mean = segment_sums((w * rel).T, indptr)
        np.divide(mean, masses[lo:hi, None], out=mean, where=masses[lo:hi, None] > 0.0)
        cen = rel - mean.T[:, owner]
        tri = segment_sums(((w * cen)[upper[0]] * cen[upper[1]]).T, indptr)
        means[lo:hi] = mean
        mats[lo:hi, upper[0], upper[1]] = tri
        mats[lo:hi, upper[1], upper[0]] = tri
    return counts, masses, centers + means, mats


def ball_masses_many(mu, centers, r):
    """mu(B_r(center)) for many centers at once (the kernel's mass pass)."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    masses = np.zeros(centers.shape[0])
    for lo, hi, indptr, idx in _neighbourhoods(mu, centers, r):
        masses[lo:hi] = segment_sums(mu.weights[idx], indptr)
    return masses


def _one_ball(mu, ball):
    """(mass, center of mass, centred second-moment matrix) of one ball."""
    _, mass, x_cm, mats = _ball_moments(mu, ball.center[None, :], ball.radius)
    if not mass[0] > 0.0:
        raise EmptySupportError("empty support: no mass in the requested ball")
    return float(mass[0]), x_cm[0], mats[0]


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


def center_of_mass(mu, ball):
    """Mass-weighted mean of the atoms inside the ball."""
    return _one_ball(mu, ball)[1]


def second_moment_spectrum(mu, ball):
    """Second directional moments of mu restricted to the ball.

    The eigenpairs (lambda_i, v_i) of M = sum w_j (x_j - x_cm)(x_j - x_cm)^T
    satisfy the stationarity identity sum w_j <x_j - x_cm, v_i>(x_j - x_cm)
    = lambda_i v_i, and lambda_i = sum w_j <x_j - x_cm, v_i>^2.
    """
    mass, x_cm, M = _one_ball(mu, ball)
    ev, vecs = jacobi_eigh(M)
    ev = np.maximum(ev, 0.0)  # clamp rounding noise on rank-deficient clouds
    return MomentSpectrum(x_cm=x_cm, eigenvalues=ev, eigenvectors=vecs, mass=mass)


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


def displacement_profile_many(mu, centers, r, k, cfg):
    """Displacement at one scale for many centers in a single batch.

    Balls holding at most k+1 atoms (which fit a k-plane exactly) or less
    mass than the cutoff are exactly zero; the rest share one batched
    Jacobi solve.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    counts, masses, _, mats = _ball_moments(mu, centers, r)
    fit = (counts > k + 1) & (masses >= cfg.eps_mass * r**k) & (masses > 0.0)
    ev, _ = _jacobi_stack(mats[fit])
    out = np.zeros(centers.shape[0])
    out[fit] = np.maximum(ev[:, k:], 0.0).sum(axis=1) * r ** (-(k + 2))
    return out


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
    centers; each scale is one batch over all centers."""
    if alpha_min > alpha_max:
        raise ValueError("alpha_min must not exceed alpha_max")
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    scales = 2.0 ** (-np.arange(alpha_min, alpha_max + 1).astype(float))
    disps = np.array([displacement_profile_many(mu, centers, r, k, cfg) for r in scales])
    masses = np.array([ball_masses_many(mu, centers, r) for r in scales])
    return [DyadicProfile(center=c, k=k, scales=scales, displacements=d, masses=m)
            for c, d, m in zip(centers, disps.T, masses.T)]


def dyadic_profile(mu, x, k, alpha_min, alpha_max, cfg):
    """Displacement profile alpha -> D(x, 2^-alpha) for alpha_min..alpha_max."""
    x = np.asarray(x, dtype=float)
    return dyadic_profiles(mu, x[None, :], k, alpha_min, alpha_max, cfg)[0]


def dyadic_displacement_sums(mu, centers, r, k, cfg):
    """Summed displacement of every center over the dyadic scales <= r.

    D(., r_alpha) is computed once per dyadic r_alpha <= r, coarsest first,
    until every r_alpha-ball around an atom holds at most k+1 atoms (all
    finer displacements vanish: k+1 points always fit a k-plane exactly).
    Returns the suffix sums: row i is sum_{b >= i} D(., r_{alpha_0 + b})
    where r_{alpha_0} is the largest dyadic radius <= r, and the last row,
    the sum past the truncation, is zero.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    alpha = math.ceil(-math.log2(r) - 1e-12)
    disps = []
    for a in range(alpha, alpha + _MAX_DYADIC_SCALES):
        s = 2.0 ** (-a)
        if mu._index.query_counts(mu.positions, s).max(initial=0) <= k + 1:
            break
        disps.append(displacement_profile_many(mu, centers, s, k, cfg))
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
