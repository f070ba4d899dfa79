"""Core geometric types: affine planes, balls, weighted atomic measures,
subspace/set distances, and an exact kd-tree spatial index.  Every
neighbourhood, nearest-neighbour and greedy separated-net query goes
through the index.  Ball totals of a measure go through `ball_items`: the
kd-nodes wholly inside a ball, plus the atoms of its boundary leaves, each
item carrying its node's aggregates.

All types are immutable after construction and every operation is pure, so
instances can be shared freely across threads; the tables an index or a
measure builds on first use come out the same whichever thread builds them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import EmptySupportError

ORTHONORMALITY_TOL = 1e-10
_DEPENDENCE_TOL = 1e-8
_PAIR_BUDGET = 1 << 18       # (ball, item) pairs a `ball_items` chunk aims to hold
_BOX_SLACK = 1e-12           # relative margin of the whole-node tests of `ball_items`


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
        pts = np.asarray(points, dtype=float)
        out = (np.atleast_2d(pts) - self.base) @ self.directions.T
        return out[0] if pts.ndim == 1 else out

    def point_at(self, coords):
        """Inverse of `coordinates`: base + sum coords_i d_i."""
        coords = np.asarray(coords, dtype=float)
        out = self.base + np.atleast_2d(coords) @ self.directions
        return out[0] if coords.ndim == 1 else out

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
    return float(max(SpatialIndex(B).nearest(A).max(), SpatialIndex(A).nearest(B).max()))


def pairwise_distances(a, b):
    """(len(a), len(b)) Euclidean distances between the rows of a and b.

    Below 8 coordinates the squared differences are summed one coordinate
    at a time into one (len(a), len(b)) array, with no 3-D temporary; that
    is numpy's own summation order there, so the result equals
    `np.linalg.norm(a[:, None] - b[None], axis=2)` bit for bit.  From 8
    coordinates numpy sums in pairwise 8-lane blocks, and its norm is used.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[1] >= 8:
        return np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    out = np.zeros((a.shape[0], b.shape[0]))
    for j in range(a.shape[1]):
        diff = a[:, j, None] - b[None, :, j]
        diff *= diff
        out += diff
    return np.sqrt(out, out=out)


def segment_sums(values, indptr):
    """Sums of values over the CSR segments [indptr[i], indptr[i+1]), in the
    dtype of the values.

    Empty segments sum to zero.  One ball and a batch of balls both total
    their items here, in the same order, so their results agree bitwise.
    """
    out = np.zeros((len(indptr) - 1,) + values.shape[1:], dtype=values.dtype)
    full = np.flatnonzero(np.diff(indptr))
    if full.size:
        # np.add.reduceat returns values[start] for an empty segment, so
        # only nonempty segments are reduced
        out[full] = np.add.reduceat(values, indptr[full], axis=0)
    return out


def _ranges(start, size):
    """The concatenated ranges start[i], ..., start[i] + size[i] - 1."""
    return np.repeat(start - np.cumsum(size) + size, size) + np.arange(size.sum())


def _tree_sqdist(diff):
    """Squared norms of the rows of diff, summed as cKDTree sums them: four
    running sums over whole blocks of four coordinates, added in order,
    then the remaining coordinates one by one."""
    sq = diff * diff
    n = sq.shape[1]
    whole = n - n % 4
    if whole:
        acc = sq[:, :4]
        for j in range(4, whole, 4):
            acc = acc + sq[:, j:j + 4]
        out = ((acc[:, 0] + acc[:, 1]) + acc[:, 2]) + acc[:, 3]
    else:
        out, whole = sq[:, 0], 1  # 0 + sq[:, 0] is sq[:, 0]: squares are never -0
    for j in range(whole, n):
        out = out + sq[:, j]
    return out


def centred_sums(rel, w, indptr, owner):
    """Masses, mean offsets and centred scatter of weighted offsets in CSR
    segments, in two passes: rel (n, pairs) holds coordinate-major offsets
    and owner[p] is the segment of pair p.  Returns (mass, mean (segments,
    n), upper triangle of sum w (rel - mean)(rel - mean)^T (segments,
    n(n+1)/2), row-major); a massless segment has mean 0."""
    mass = segment_sums(w, indptr)
    mean = segment_sums((w * rel).T, indptr)
    np.divide(mean, mass[:, None], out=mean, where=mass[:, None] > 0.0)
    cen = rel - mean.T[:, owner]
    upper = np.triu_indices(rel.shape[0])
    return mass, mean, segment_sums(((w * cen)[upper[0]] * cen[upper[1]]).T, indptr)


@dataclass(frozen=True)
class ItemTree:
    """A kd-tree flattened into items.  Items 0..nodes-1 are the tree's
    nodes, depth first, lesser child first; item nodes + s is the atom in
    tree slot s.  Item i covers the atoms order[start[i]:start[i] + size[i]]
    and is anchored at the first of them."""

    order: np.ndarray       # tree slot -> point index (cKDTree.indices)
    start: np.ndarray       # (items,) first slot
    size: np.ndarray        # (items,) points covered
    anchor: np.ndarray      # (items,) point index of the first slot
    kids: np.ndarray        # (nodes, 2) lesser and greater child; -1 at a leaf
    lo: np.ndarray          # (nodes, n) bounding box of the node's points
    hi: np.ndarray
    member_ptr: np.ndarray  # points of node i: order[start[i]:...], concatenated
    members: np.ndarray     # in `members[member_ptr[i]:member_ptr[i + 1]]`

    @property
    def nodes(self):
        return self.kids.shape[0]

    @classmethod
    def flatten(cls, tree, points):
        """The item form of a cKDTree over points (None: no points)."""
        start, end, kids = [], [], []
        stack = [] if tree is None else [(tree.tree, -1, 0)]
        while stack:
            node, parent, side = stack.pop()
            if parent >= 0:
                kids[parent][side] = len(start)
            start.append(node.start_idx)
            end.append(node.end_idx)
            kids.append([-1, -1])
            if node.lesser is not None:
                stack += [(node.greater, len(start) - 1, 1), (node.lesser, len(start) - 1, 0)]
        order = np.zeros(0, dtype=np.intp) if tree is None else tree.indices.astype(np.intp)
        start = np.array(start, dtype=np.intp)
        size = np.array(end, dtype=np.intp) - start
        member_ptr = np.zeros(len(start) + 1, dtype=np.intp)
        np.cumsum(size, out=member_ptr[1:])
        members = order[_ranges(start, size)]
        boxed = points[members]
        start = np.concatenate([start, np.arange(len(order))])
        return cls(order=order, start=start,
                   size=np.concatenate([size, np.ones(len(order), dtype=np.intp)]),
                   anchor=order[start], kids=np.array(kids, dtype=np.intp).reshape(-1, 2),
                   lo=np.minimum.reduceat(boxed, member_ptr[:-1]),
                   hi=np.maximum.reduceat(boxed, member_ptr[:-1]),
                   member_ptr=member_ptr, members=members)

    def totals(self, values):
        """Per-item sums of per-atom values (atoms,) or (atoms, columns): a
        node sums its atoms in slot order, an atom item is its own value."""
        return np.concatenate([segment_sums(values[self.members], self.member_ptr),
                               values[self.order]])


class SpatialIndex:
    """Immutable kd-tree index over points with exact closed-ball queries.

    Every query is cKDTree's or follows its predicate: the closed ball
    |x_j - center| <= r as the tree evaluates it.  The tree's item form
    (`item_tree`) is built on first use.
    """

    __slots__ = ("points", "_tree", "_items")

    def __init__(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float)).copy()
        object.__setattr__(self, "points", points)
        tree = cKDTree(points) if points.shape[0] else None
        object.__setattr__(self, "_tree", tree)
        object.__setattr__(self, "_items", None)
        points.setflags(write=False)

    def item_tree(self):
        """The tree as an `ItemTree`, built on first use."""
        if self._items is None:
            object.__setattr__(self, "_items", ItemTree.flatten(self._tree, self.points))
        return self._items

    def ball_items(self, centers, radius):
        """Items of the closed balls B_radius(c), c in centers, in chunks
        (lo, hi, indptr, items): items[indptr[i]:indptr[i + 1]] are the
        items of the ball around centers[lo + i], in tree-slot order.

        A ball takes a node whole when the farthest corner of the node's
        bounding box lies inside the ball by the relative margin
        _BOX_SLACK, and skips it when the nearest box point lies outside by
        that margin.  Of the leaves left, it takes the atoms that pass the
        tree's own predicate, `_tree_sqdist(x - c) <= radius * radius`.  So
        the atoms covered are those of `neighborhoods`.  The tree is walked
        one level at a time for a chunk of centers at once.  The first chunk
        holds _PAIR_BUDGET // len(self) centers (a ball never holds more
        than len(self) items), and each later one is sized from the pairs
        its predecessor held, growing at most eightfold.
        """
        centers = np.atleast_2d(np.asarray(centers, dtype=float))
        m, t = centers.shape[0], self.item_tree()
        if self._tree is None:
            yield 0, m, np.zeros(m + 1, dtype=np.intp), np.zeros(0, dtype=np.intp)
            return
        lo, step = 0, max(1, _PAIR_BUDGET // len(self))
        while lo < m:
            hi = min(m, lo + step)
            indptr, items, held = self._walk(t, centers[lo:hi], radius * radius)
            yield lo, hi, indptr, items
            lo, step = hi, max(1, min(8 * step, step * _PAIR_BUDGET // max(held, 1)))

    def _walk(self, t, centers, r2):
        """CSR items of the balls of squared radius r2 around the centers,
        and the most (ball, node or atom) pairs held at once."""
        ball = np.arange(centers.shape[0])
        node = np.zeros(centers.shape[0], dtype=np.intp)
        owners, items, held = [], [], 0
        while ball.size:
            c = centers[ball]
            d_lo, d_hi = t.lo[node] - c, c - t.hi[node]
            far = _tree_sqdist(np.maximum(-d_lo, -d_hi))
            inside = far * (1.0 + _BOX_SLACK) < r2 * (1.0 - _BOX_SLACK)
            near = _tree_sqdist(np.maximum(np.maximum(d_lo, d_hi), 0.0))
            cut = ~inside & (near <= r2 * (1.0 + _BOX_SLACK))
            owners.append(ball[inside])
            items.append(node[inside])
            ball, node = ball[cut], node[cut]
            held = max(held, ball.size)
            leaf = t.kids[node, 0] < 0
            if leaf.any():
                size = t.size[node[leaf]]
                slots = _ranges(t.start[node[leaf]], size)
                owner = np.repeat(ball[leaf], size)
                hit = _tree_sqdist(self.points[t.order[slots]] - centers[owner]) <= r2
                owners.append(owner[hit])
                items.append(t.nodes + slots[hit])
                held = max(held, ball.size + slots.size)
                ball, node = ball[~leaf], node[~leaf]
            ball, node = np.repeat(ball, 2), t.kids[node].ravel()
        owner, item = np.concatenate(owners), np.concatenate(items)
        order = np.argsort(owner * len(self) + t.start[item], kind="stable")
        indptr = np.zeros(centers.shape[0] + 1, dtype=np.intp)
        np.cumsum(np.bincount(owner, minlength=centers.shape[0]), out=indptr[1:])
        return indptr, item[order], max(held, item.size)

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

    def knn(self, points, k):
        """The k nearest indexed points of each point: (distances, indices),
        two (N, k) arrays with the nearest first.  Points at equal distance
        come in the tree's order."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self._tree is None:
            raise EmptySupportError("an empty index has no nearest point")
        if not 1 <= k <= len(self):
            raise ValueError(f"cannot take {k} nearest of {len(self)} points")
        return self._tree.query(points, k=np.arange(1, k + 1))

    def nearest(self, points):
        """Distance from each point to the nearest indexed point."""
        return self.knn(points, 1)[0][:, 0]

    def greedy_net(self, order, radius):
        """Greedy maximal separated subset of the indices in `order`.

        An index is kept unless a kept index lies in its closed ball of the
        given radius, so kept points are pairwise farther apart than the
        radius and every candidate lies within the radius of a kept one.
        The closed-ball predicate is symmetric, so each kept index blocks
        its own neighbourhood.  Returns the kept indices in candidate order.
        """
        blocked = np.zeros(len(self), dtype=bool)
        kept = []
        for j in np.asarray(order, dtype=np.intp):
            if not blocked[j]:
                kept.append(j)
                blocked[self.neighborhoods(self.points[j], radius)[1]] = True
        return np.array(kept, dtype=np.intp)

    def query_counts(self, centers, radius):
        """Number of points in the closed ball around each center."""
        return np.diff(self.neighborhoods(centers, radius)[0])

    def __len__(self):
        return self.points.shape[0]


class AtomicMeasure:
    """Finite weighted point set mu = sum_j w_j delta_{x_j}, w_j >= 0."""

    __slots__ = ("positions", "weights", "_index", "_bounding", "_item_moments")

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
        object.__setattr__(self, "_item_moments", None)
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
        """mu(ball): the batch of one of `moments.ball_masses_many`."""
        from .moments import ball_masses_many  # moments imports this module

        return float(ball_masses_many(self, ball.center, ball.radius)[0])

    def item_moments(self):
        """Mean offset of every item from its anchor atom (items, n) and its
        centred scatter, the upper triangle of sum w (x - mean)(x - mean)^T
        (items, n(n+1)/2), row-major; built on first use from coordinate
        differences.  An atom item has zero offset and scatter, and so has a
        massless node."""
        if self._item_moments is None:
            t = self._index.item_tree()
            owner = np.repeat(np.arange(t.nodes), t.size[:t.nodes])
            rel = self.positions.T[:, t.members] - self.positions.T[:, t.anchor[owner]]
            _, offset, scatter = centred_sums(rel, self.weights[t.members], t.member_ptr, owner)
            atoms = len(t.order)
            object.__setattr__(self, "_item_moments", (
                np.concatenate([offset, np.zeros((atoms, offset.shape[1]))]),
                np.concatenate([scatter, np.zeros((atoms, scatter.shape[1]))])))
        return self._item_moments

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
