"""Core geometric types: affine planes, balls, weighted atomic measures,
subspace/set distances, and an exact fixed-radius spatial index with the
CSR neighbourhoods and segment sums every per-ball total goes through.

All types are immutable after construction and every operation is pure, so
instances can be shared freely across threads.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.spatial import cKDTree

from .errors import EmptySupportError

ORTHONORMALITY_TOL = 1e-10
_DEPENDENCE_TOL = 1e-8


def _as_point(p, dim=None):
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise ValueError(f"expected a point (1-d array), got shape {p.shape}")
    if dim is not None and p.shape[0] != dim:
        raise ValueError(f"point has dimension {p.shape[0]}, expected {dim}")
    return p


def orthonormalize(vectors):
    """Modified Gram-Schmidt with one re-orthogonalization pass.

    Parameters
    ----------
    vectors : array (k, n)
        Spanning vectors, need not be orthonormal.

    Returns
    -------
    array (k, n) with orthonormal rows spanning the same subspace.

    Raises
    ------
    ValueError if the input is numerically rank-deficient (residual below
    1e-8 of the original norm).
    """
    V = np.array(vectors, dtype=float)
    if V.ndim == 1:
        V = V[None, :]
    k, n = V.shape
    if k > n:
        raise ValueError(f"cannot span {k} directions in R^{n}")
    out = np.zeros_like(V)
    for i in range(k):
        v = V[i].copy()
        norm0 = np.linalg.norm(v)
        for _ in range(2):  # re-orthogonalize once for stability
            for j in range(i):
                v -= np.dot(v, out[j]) * out[j]
        norm = np.linalg.norm(v)
        if norm0 == 0.0 or norm <= _DEPENDENCE_TOL * norm0:
            raise ValueError(
                f"spanning vector {i} is numerically dependent on its "
                f"predecessors (residual {norm:.3e})"
            )
        out[i] = v / norm
    return out


class Ball:
    """Closed ball B_r(x). Radius must be positive."""

    __slots__ = ("center", "radius")

    def __init__(self, center, radius):
        center = _as_point(center)
        radius = float(radius)
        if not radius > 0:
            raise ValueError(f"ball radius must be positive, got {radius}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", radius)
        center.setflags(write=False)

    def __setattr__(self, name, value):
        raise AttributeError("Ball is immutable")

    @property
    def dim(self):
        return self.center.shape[0]

    def contains(self, points):
        """Boolean mask of points lying in the closed ball."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.linalg.norm(pts - self.center, axis=1) <= self.radius

    def scaled(self, factor):
        return Ball(self.center, self.radius * factor)

    def __repr__(self):
        return f"Ball(center={self.center.tolist()}, radius={self.radius})"


class AffinePlane:
    """A k-dimensional affine subspace of R^n.

    Stored as a base point plus k orthonormal direction rows; k = 0 encodes a
    single point.  Construction re-orthonormalizes, so inputs only need to
    span; near-dependent inputs are rejected.
    """

    __slots__ = ("base", "directions")

    def __init__(self, base, directions=None, *, _skip_checks=False):
        base = _as_point(base)
        n = base.shape[0]
        if directions is None or (hasattr(directions, "__len__") and len(directions) == 0):
            directions = np.zeros((0, n))
        else:
            directions = np.asarray(directions, dtype=float)
            if directions.ndim == 1:
                directions = directions[None, :]
            if directions.shape[1] != n:
                raise ValueError("direction dimension does not match base point")
            if not _skip_checks:
                G = directions @ directions.T
                if not np.allclose(G, np.eye(directions.shape[0]), atol=ORTHONORMALITY_TOL):
                    directions = orthonormalize(directions)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "directions", directions)
        base.setflags(write=False)
        directions.setflags(write=False)

    def __setattr__(self, name, value):
        raise AttributeError("AffinePlane is immutable")

    @classmethod
    def from_spanning(cls, base, vectors):
        """Plane through `base` spanned by (not necessarily orthonormal) vectors."""
        return cls(base, orthonormalize(vectors), _skip_checks=True)

    @classmethod
    def coordinate(cls, n, axes, base=None):
        """Axis-aligned plane spanned by the given coordinate axes."""
        D = np.zeros((len(axes), n))
        for i, a in enumerate(axes):
            D[i, a] = 1.0
        return cls(np.zeros(n) if base is None else base, D, _skip_checks=True)

    @property
    def k(self):
        return self.directions.shape[0]

    @property
    def ambient_dim(self):
        return self.base.shape[0]

    def project(self, points):
        """Orthogonal (affine) projection of one point or a stack of points."""
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        P = np.atleast_2d(pts) - self.base
        if self.k > 0:
            proj = P @ self.directions.T @ self.directions
        else:
            proj = np.zeros_like(P)
        out = proj + self.base
        return out[0] if single else out

    def distance(self, points):
        """Euclidean distance from point(s) to the plane."""
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        res = np.atleast_2d(pts) - self.project(pts)
        d = np.linalg.norm(res, axis=1)
        return float(d[0]) if single else d

    def coordinates(self, points):
        """In-plane coordinates <x - base, d_i> of point(s)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return (pts - self.base) @ self.directions.T

    def point_at(self, coords):
        """Inverse of `coordinates`: base + sum coords_i d_i."""
        coords = np.atleast_2d(np.asarray(coords, dtype=float))
        out = self.base + coords @ self.directions
        return out[0] if out.shape[0] == 1 else out

    def projection_matrix(self):
        """The n x n orthogonal projector onto the direction span."""
        if self.k == 0:
            return np.zeros((self.ambient_dim, self.ambient_dim))
        return self.directions.T @ self.directions

    def __repr__(self):
        return f"AffinePlane(k={self.k}, n={self.ambient_dim})"


def project(point, plane):
    """Affine projection pi_{p,V}(x) = p + pi_V(x - p)."""
    return plane.project(point)


def plane_distance(point, plane):
    """Distance d(x, L) = |x - project(x, L)|."""
    return plane.distance(point)


def grassmann_distance(V, W):
    """Distance between two linear subspaces.

    Equal dimensions: the largest singular value of (pi_V - pi_W), which is
    the sine of the largest principal angle and coincides with the Hausdorff
    distance between the two unit balls.  Different dimensions: 1.
    """
    if V.k != W.k:
        return 1.0
    if V.k == 0:
        return 0.0
    diff = V.projection_matrix() - W.projection_matrix()
    s = np.linalg.svd(diff, compute_uv=False)
    return float(min(1.0, s[0]))


def hausdorff_distance(A, B):
    """Hausdorff distance between two finite nonempty point sets."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[0] == 0 or B.shape[0] == 0:
        raise EmptySupportError("Hausdorff distance of an empty set is undefined")
    d2 = np.sum((A[:, None, :] - B[None, :, :]) ** 2, axis=2)
    d = np.sqrt(d2)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def segment_sums(values, indptr):
    """Sums of values over the CSR segments [indptr[i], indptr[i+1]).

    Empty segments sum to zero.  One ball and a batch of balls both total
    their atoms here, in the same order, so their results agree bitwise.
    """
    out = np.zeros((len(indptr) - 1,) + values.shape[1:])
    full = np.flatnonzero(np.diff(indptr))
    if full.size:
        # np.add.reduceat returns values[start] for an empty segment, so
        # only nonempty segments are reduced
        out[full] = np.add.reduceat(values, indptr[full], axis=0)
    return out


class SpatialIndex:
    """Immutable kd-tree index over points with exact closed-ball queries.

    Every query is cKDTree's, so all of them share one predicate: the
    closed ball |x_j - center| <= r as the tree evaluates it.
    """

    __slots__ = ("points", "_tree")

    def __init__(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float)).copy()
        object.__setattr__(self, "points", points)
        tree = cKDTree(points) if points.shape[0] else None
        object.__setattr__(self, "_tree", tree)
        points.setflags(write=False)

    def __setattr__(self, name, value):
        raise AttributeError("SpatialIndex is immutable")

    def query(self, center, radius):
        """Sorted indices of points within the closed ball B_radius(center)."""
        center = _as_point(center, self.points.shape[1])
        return np.sort(self.neighborhoods(center[None, :], radius)[1])

    def neighborhoods(self, centers, radius):
        """CSR neighbourhoods (indptr, indices) of the closed balls around
        the centers: indices[indptr[i]:indptr[i + 1]] are the indices of the
        points within radius of centers[i], in the tree's traversal order,
        which depends only on the center and the radius."""
        centers = np.atleast_2d(np.asarray(centers, dtype=float))
        indptr = np.zeros(centers.shape[0] + 1, dtype=np.intp)
        if self._tree is None:
            return indptr, np.zeros(0, dtype=np.intp)
        lists = self._tree.query_ball_point(centers, radius, return_sorted=False)
        np.cumsum([len(lst) for lst in lists], out=indptr[1:])
        indices = np.fromiter(itertools.chain.from_iterable(lists), dtype=np.intp,
                              count=int(indptr[-1]))
        return indptr, indices

    def query_counts(self, centers, radius):
        """Number of points in the closed ball around each center."""
        centers = np.atleast_2d(np.asarray(centers, dtype=float))
        if self._tree is None:
            return np.zeros(centers.shape[0], dtype=int)
        return self._tree.query_ball_point(centers, radius, return_length=True)

    def __len__(self):
        return self.points.shape[0]


class AtomicMeasure:
    """Finite weighted point set mu = sum_j w_j delta_{x_j}, w_j >= 0."""

    __slots__ = ("positions", "weights", "_index", "_bounding")

    def __init__(self, positions, weights=None):
        positions = np.atleast_2d(np.asarray(positions, dtype=float)).copy()
        m = positions.shape[0]
        if weights is None:
            weights = np.ones(m)
        else:
            weights = np.asarray(weights, dtype=float).copy()
            if weights.shape != (m,):
                raise ValueError("weights must be one scalar per atom")
            if np.any(weights < 0):
                raise ValueError("atom weights must be nonnegative")
        if not np.all(np.isfinite(positions)) or not np.all(np.isfinite(weights)):
            raise ValueError("atoms must be finite")
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_index", SpatialIndex(positions))
        if m:
            center = 0.5 * (positions.min(axis=0) + positions.max(axis=0))
            radius = float(np.linalg.norm(positions - center, axis=1).max())
        else:
            center, radius = None, 0.0
        object.__setattr__(self, "_bounding", (center, radius))
        positions.setflags(write=False)
        weights.setflags(write=False)

    def __setattr__(self, name, value):
        raise AttributeError("AtomicMeasure is immutable")

    @property
    def ambient_dim(self):
        return self.positions.shape[1]

    @property
    def count(self):
        return self.positions.shape[0]

    @property
    def total_mass(self):
        return float(self.weights.sum())

    def bounding_ball(self, margin=0.0):
        """Ball centered at the coordinate midrange containing all atoms."""
        center, radius = self._bounding
        if center is None:
            raise EmptySupportError("empty measure has no bounding ball")
        return Ball(center, max(radius, 1e-12) + margin)

    def indices_in_ball(self, ball):
        """Atom indices inside the closed ball."""
        return self._index.query(ball.center, ball.radius)

    def mass_in_ball(self, ball):
        indptr, idx = self._index.neighborhoods(ball.center, ball.radius)
        return float(segment_sums(self.weights[idx], indptr)[0])

    def restrict(self, ball):
        """New measure keeping only atoms in the closed ball."""
        idx = self.indices_in_ball(ball)
        return AtomicMeasure(self.positions[idx], self.weights[idx])

    def subset(self, indices):
        return AtomicMeasure(self.positions[indices], self.weights[indices])

    def translate_scale(self, x, r, k):
        """Pushforward under y -> (y - x)/r with weights scaled by r^{-k}.

        This is the normalization sending (x, r) to (0, 1) while keeping
        k-dimensional displacement invariant.
        """
        x = _as_point(x, self.ambient_dim)
        return AtomicMeasure((self.positions - x) / r, self.weights * r ** (-k))

    def __repr__(self):
        return f"AtomicMeasure(count={self.count}, dim={self.ambient_dim}, mass={self.total_mass:.6g})"
