"""Core geometric types: affine planes, balls, weighted atomic measures,
subspace/set distances, and an exact kd-tree spatial index.  Every
neighbourhood, nearest-neighbour and greedy separated-net query goes
through the index, and every one of them is a walk of `ball_items`: the
kd-nodes wholly inside a ball, plus the atoms of its boundary leaves, each
item carrying its node's aggregates.  Per-item gathers read contiguous
coordinate-major (n, count) arrays by `np.take`.  A closed ball has one
membership predicate, the index's, which `Ball.contains` applies too: x
lies in B_r(c) when the squares of the coordinates of x - c, added left to
right (`sum_last`), total at most r * r.

All types are immutable after construction and every operation is pure, so
instances can be shared freely across threads; the tables an index or a
measure builds on first use come out the same whichever thread builds them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import EmptySupportError

ORTHONORMALITY_TOL = 1e-10
_DEPENDENCE_TOL = 1e-8
_PAIR_BUDGET = 1 << 18       # (ball, item) pairs a `ball_items` chunk aims to hold
_BOX_SLACK = 1e-12           # relative margin of the whole-node tests of `ball_items`
_LEAF_SIZE = 16              # most atoms a kd-tree leaf holds, unless they coincide
_NET_ITEMS = 1 << 12         # items a `greedy_net` batch aims to walk


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
    """Closed ball B_r(x). The centre must be finite, the radius positive and finite."""

    __slots__ = ("center", "radius")

    def __init__(self, center, radius):
        center = _as_point(center)
        radius = float(radius)
        if not np.isfinite(center).all():
            raise ValueError("ball center must be finite")
        if not 0 < radius < np.inf:
            raise ValueError(f"ball radius must be positive and finite, got {radius}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", radius)
        center.setflags(write=False)

    def __setattr__(self, name, value):
        raise AttributeError("Ball is immutable")

    @property
    def dim(self):
        return self.center.shape[0]

    def contains(self, points):
        """Boolean mask of the points (..., n) lying in the closed ball, by
        the index's predicate (see the module docs)."""
        diff = np.atleast_2d(np.asarray(points, dtype=float)) - self.center
        return sum_last(diff * diff) <= self.radius * self.radius

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


def sum_last(a):
    """The sums of a over its last axis, added left to right, one column at
    a time.  Below 8 terms this is numpy's own order, so it equals
    a.sum(axis=-1) bit for bit there, several times faster on a short axis.
    It is the one squared-norm sum, of the index's distances and of every
    `harmonic` field's value, gradient, density and density bound."""
    out = a[..., 0] + a[..., 1] if a.shape[-1] > 1 else a[..., 0].copy()
    for j in range(2, a.shape[-1]):
        out += a[..., j]
    return out


def _tree_sqdist(diff):
    """Squared norms of the columns of the coordinate-major diff (n, rows),
    the index's distance: `sum_last` of the squared coordinates."""
    return sum_last((diff * diff).T)


def centred_sums(rel, w, indptr, owner):
    """Masses, mean offsets and centred scatter of weighted offsets in CSR
    segments, in two passes: rel (n, pairs) holds coordinate-major offsets
    and owner[p] is the segment of pair p.  Returns (mass, mean (segments,
    n), upper triangle of sum w (rel - mean)(rel - mean)^T (segments,
    n(n+1)/2), row-major); a massless segment has mean 0."""
    mass = segment_sums(w, indptr)
    mean = segment_sums((w * rel).T, indptr)
    np.divide(mean, mass[:, None], out=mean, where=mass[:, None] > 0.0)
    cen = rel - np.take(np.ascontiguousarray(mean.T), owner, axis=1)
    wcen, upper = w * cen, np.triu_indices(rel.shape[0])
    prods = np.empty((upper[0].size, rel.shape[1]))
    for row, a, b in zip(prods, *upper):
        np.multiply(wcen[a], cen[b], out=row)
    return mass, mean, segment_sums(prods.T, indptr)


def _coordinate_orders(coords):
    """(n, count) array whose row e orders the points of the coordinate-major
    coords (n, count) by coordinate e, ties by index.  A stable sort is
    needed only where a coordinate repeats."""
    orders = np.empty(coords.shape, dtype=np.intp)
    for e, x in enumerate(coords):
        order = np.argsort(x)
        ordered = x[order]
        if (ordered[1:] == ordered[:-1]).any():
            order = np.argsort(x, kind="stable")
        orders[e] = order
    return orders


@dataclass(frozen=True)
class ItemTree:
    """A balanced kd-tree in item form.  Items 0..nodes-1 are the tree's
    nodes, depth first, lesser child first; item nodes + s is the atom in
    tree slot s.  Item i covers the atoms order[start[i]:start[i] + size[i]]
    and is anchored at the first of them, coords[:, start[i]].  Coordinates
    are stored coordinate-major, so that a walk gathers and sums whole rows."""

    order: np.ndarray       # tree slot -> point index
    coords: np.ndarray      # (n, atoms) coordinates of the atom in each slot
    start: np.ndarray       # (items,) first slot
    size: np.ndarray        # (items,) points covered
    greater: np.ndarray     # (nodes,) greater child, -1 at a leaf; the lesser is i + 1
    axis: np.ndarray        # (nodes,) coordinate an inner node splits
    lo: np.ndarray          # (n, nodes) bounding box of the node's points
    hi: np.ndarray

    @property
    def nodes(self):
        return self.greater.shape[0]

    @functools.cached_property
    def members(self):
        """The points of every node, order[start[i]:start[i] + size[i]],
        concatenated; node i's are members[member_ptr[i]:member_ptr[i + 1]].
        Built on first use: only node totals read them."""
        return self.order[self.slots(np.arange(self.nodes))]

    @functools.cached_property
    def member_ptr(self):
        ptr = np.zeros(self.nodes + 1, dtype=np.intp)
        np.cumsum(self.size[:self.nodes], out=ptr[1:])
        return ptr

    @classmethod
    def build(cls, points):
        """The balanced kd-tree of Friedman, Bentley & Finkel (ACM TOMS,
        1977) over finite points.  A node of more than _LEAF_SIZE atoms
        whose tight bounding box has positive width splits along its widest
        side, the first of equal ones: its size // 2 least atoms in that
        coordinate, ties by index, form the lesser child and the rest the
        greater.  Where no coordinate repeats, these are the nodes of
        scipy's balanced cKDTree.

        The tree grows a level at a time.  Every coordinate keeps its own
        order of the atoms, sorted within each node, so a node's box and
        split point are read off the orders, and a split partitions every
        order stably.  A leaf's slots hold its atoms by first coordinate."""
        count = points.shape[0]
        coords = np.ascontiguousarray(points.T)
        orders = _coordinate_orders(coords)
        start = np.zeros(min(count, 1), dtype=np.intp)
        size = np.full(start.shape, count)
        levels, lesser_side = [], np.zeros(count, dtype=bool)
        while True:
            lo = np.take_along_axis(coords, orders[:, start], axis=1)
            hi = np.take_along_axis(coords, orders[:, start + size - 1], axis=1)
            dim = np.argmax(hi - lo, axis=0)
            split = (size > _LEAF_SIZE) & ((hi - lo)[dim, np.arange(start.size)] > 0.0)
            levels.append((start, size, lo, hi, dim, split))
            if not split.any():
                break
            start, size, dim = start[split], size[split], dim[split]
            half = size // 2
            lesser, greater = _ranges(start, half), _ranges(start + half, size - half)
            slots = _ranges(start, size)
            lesser_side[orders[np.repeat(dim, half), lesser]] = True
            for row in orders:
                atoms = row[slots]
                side = lesser_side[atoms]
                row[lesser] = atoms[np.flatnonzero(side)]
                row[greater] = atoms[np.flatnonzero(~side)]
            lesser_side[:] = False
            start = np.column_stack([start, start + half]).ravel()
            size = np.column_stack([half, size - half]).ravel()

        # nodes numbered level by level: the children of the j-th split
        # node are nodes 2j + 1 and 2j + 2
        start, size, lo, hi, axis, split = (np.concatenate(f, axis=-1) for f in zip(*levels))
        depth = np.repeat(np.arange(len(levels)), [len(level[0]) for level in levels])
        greater = np.full(start.size, -1, dtype=np.intp)
        greater[split] = np.arange(2, 2 * split.sum() + 2, 2)
        # depth first: by first slot, a parent before its lesser child
        pre = np.lexsort((depth, start))
        rank = np.empty_like(pre)
        rank[pre] = np.arange(pre.size)
        greater = np.where(greater[pre] >= 0, rank[greater[pre]], -1)
        order = orders[0]
        start = np.concatenate([start[pre], np.arange(count)])
        return cls(order=order, coords=coords[:, order], start=start,
                   size=np.concatenate([size[pre], np.ones(count, dtype=np.intp)]),
                   greater=greater, axis=axis[pre], lo=lo[:, pre], hi=hi[:, pre])

    def slots(self, items):
        """The tree slots of the atoms the items cover, item by item."""
        return _ranges(self.start[items], self.size[items])

    def totals(self, values):
        """Per-item sums of per-atom values (atoms,) or (atoms, columns): a
        node sums its atoms in slot order, an atom item is its own value."""
        return np.concatenate([segment_sums(values[self.members], self.member_ptr),
                               values[self.order]])


class SpatialIndex:
    """Immutable kd-tree index over finite points with exact closed-ball
    queries: x_j lies in the ball B_r(c) when the squares of the coordinates
    of x_j - c, added left to right (`sum_last`), total at most r * r.  The
    tree (`item_tree`) is built on the first query."""

    __slots__ = ("points", "_items")

    def __init__(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float)).copy()
        if not np.isfinite(points).all():
            raise ValueError("indexed points must be finite")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "_items", None)
        points.setflags(write=False)

    def item_tree(self):
        """The tree as an `ItemTree`, built on first use."""
        if self._items is None:
            object.__setattr__(self, "_items", ItemTree.build(self.points))
        return self._items

    def ball_items(self, centers, radius):
        """Items of the closed balls B_radius(c), c in centers, in chunks
        (lo, hi, indptr, items): items[indptr[i]:indptr[i + 1]] are the
        items of the ball around centers[lo + i], in tree-slot order.

        A ball takes a node whole when the farthest corner of the node's
        bounding box lies inside the ball by the relative margin
        _BOX_SLACK, and skips it when the nearest box point lies outside by
        that margin.  Of the leaves left, it takes the atoms that pass the
        index's predicate: the squared coordinates of x - c, added left to
        right, total at most radius * radius.  The tree is walked one level
        at a time for a chunk of centers at once.  The first chunk holds
        _PAIR_BUDGET // len(self) centers (a ball never holds more than
        len(self) items), and each later one is sized from the pairs its
        predecessor held, growing at most eightfold.
        """
        centers = np.atleast_2d(np.asarray(centers, dtype=float))
        m, t = centers.shape[0], self.item_tree()
        if not len(self):
            yield 0, m, np.zeros(m + 1, dtype=np.intp), np.zeros(0, dtype=np.intp)
            return
        coords, r2 = np.ascontiguousarray(centers.T), np.full(m, radius * radius)
        lo, step = 0, max(1, _PAIR_BUDGET // len(self))
        while lo < m:
            hi = min(m, lo + step)
            indptr, items, held = self._walk(t, coords[:, lo:hi], r2[lo:hi])
            yield lo, hi, indptr, items
            lo, step = hi, max(1, min(8 * step, step * _PAIR_BUDGET // max(held, 1)))

    def _walk(self, t, centers, r2):
        """CSR items of the balls of squared radii r2 around the
        coordinate-major centers (n, m), and the most (ball, node or atom)
        pairs held at once."""
        m = centers.shape[1]
        ball, node = np.arange(m), np.zeros(m, dtype=np.intp)
        owners, items, held = [], [], 0
        while ball.size:
            c, rr = np.take(centers, ball, axis=1), r2[ball]
            d_lo, d_hi = np.take(t.lo, node, axis=1) - c, c - np.take(t.hi, node, axis=1)
            far = _tree_sqdist(np.maximum(-d_lo, -d_hi))
            inside = far * (1.0 + _BOX_SLACK) < rr * (1.0 - _BOX_SLACK)
            near = _tree_sqdist(np.maximum(np.maximum(d_lo, d_hi), 0.0))
            cut = ~inside & (near <= rr * (1.0 + _BOX_SLACK))
            owners.append(ball[inside])
            items.append(node[inside])
            ball, node = ball[cut], node[cut]
            held = max(held, ball.size)
            leaf = t.greater[node] < 0
            if leaf.any():
                size = t.size[node[leaf]]
                slots = _ranges(t.start[node[leaf]], size)
                owner = np.repeat(ball[leaf], size)
                hit = _tree_sqdist(np.take(t.coords, slots, axis=1)
                                   - np.take(centers, owner, axis=1)) <= r2[owner]
                owners.append(owner[hit])
                items.append(t.nodes + slots[hit])
                held = max(held, ball.size + slots.size)
                ball, node = ball[~leaf], node[~leaf]
            ball, node = np.repeat(ball, 2), np.column_stack([node + 1, t.greater[node]]).ravel()
        owner, item = np.concatenate(owners), np.concatenate(items)
        # the items of one ball do not overlap, so no two keys are equal, and
        # each level adds at most two sorted runs, which a stable sort merges
        order = np.argsort(owner * len(self) + t.start[item], kind="stable")
        indptr = np.zeros(m + 1, dtype=np.intp)
        np.cumsum(np.bincount(owner, minlength=m), out=indptr[1:])
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
        points within radius of centers[i], in tree-slot order."""
        t = self.item_tree()
        indptr, parts = [np.zeros(1, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
        for _, _, ptr, items in self.ball_items(centers, radius):
            indptr.append(segment_sums(t.size[items], ptr))
            parts.append(t.order[t.slots(items)])
        return np.cumsum(np.concatenate(indptr)), np.concatenate(parts)

    def knn(self, points, k):
        """The k nearest indexed points of each point: (distances, indices),
        two (N, k) arrays with the nearest first, and points at equal
        distance in slot order.

        Exact: each point descends to the deepest node holding k atoms
        (`_descend`) and measures the first w = 2 max(k, _LEAF_SIZE) of
        them.  An index of at most w points is measured whole, and the k
        least by (distance, slot) are taken.  Otherwise the k-th least
        squared distance bounds a walk, and the k least of the atoms it
        finds are taken.  Points are walked in the order of their nodes,
        so that a walk's gathers stay near each other."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if not len(self):
            raise EmptySupportError("an empty index has no nearest point")
        if not 1 <= k <= len(self):
            raise ValueError(f"cannot take {k} nearest of {len(self)} points")
        t, m = self.item_tree(), points.shape[0]
        coords = np.ascontiguousarray(points.T)
        cols = np.arange(min(len(self), 2 * max(k, _LEAF_SIZE)))
        whole = cols.size == len(self)
        node = np.zeros(m, dtype=np.intp) if whole else self._descend(t, coords, k)
        order = np.argsort(t.start[node], kind="stable")
        dist, index = np.empty((m, k)), np.empty((m, k), dtype=np.intp)
        block = max(1, _PAIR_BUDGET // cols.size)
        for lo in range(0, m, block):
            rows = order[lo:lo + block]
            queries = np.take(coords, rows, axis=1)
            slots = np.minimum(t.start[node[rows]][:, None] + cols, len(self) - 1)
            sq = _tree_sqdist(np.take(t.coords, slots.ravel(), axis=1)
                              - np.repeat(queries, cols.size, axis=1)).reshape(slots.shape)
            sq[cols >= t.size[node[rows]][:, None]] = np.inf
            if whole:
                d = np.sqrt(sq)
                pick = np.argsort(d, axis=1, kind="stable")[:, :k]
                dist[rows] = np.take_along_axis(d, pick, axis=1)
                index[rows] = t.order[np.take_along_axis(slots, pick, axis=1)]
                continue
            ptr, items, _ = self._walk(t, queries, np.partition(sq, k - 1, axis=1)[:, k - 1])
            slots = t.slots(items)
            counts = segment_sums(t.size[items], ptr)
            owner = np.repeat(np.arange(rows.size), counts)
            d = np.sqrt(_tree_sqdist(np.take(t.coords, slots, axis=1)
                                     - np.take(queries, owner, axis=1)))
            seg, pos = np.cumsum(counts) - counts, np.arange(d.size)
            for j in range(k):
                least = np.minimum.reduceat(d, seg)
                at = np.minimum.reduceat(np.where(d == least[owner], pos, d.size), seg)
                dist[rows, j], index[rows, j] = least, t.order[slots[at]]
                d[at] = np.inf
        return dist, index

    def _descend(self, t, queries, k):
        """The deepest node holding k atoms or more on the way of each of
        the coordinate-major queries (n, m) down the splits: to the lesser
        child where the query lies at or below its box along the split
        axis."""
        m = queries.shape[1]
        node, live = np.zeros(m, dtype=np.intp), np.arange(m)
        while live.size:
            live = live[t.greater[node[live]] >= 0]
            at = node[live]
            # flat indices into the coordinate-major queries and boxes
            lesser = (np.take(queries, t.axis[at] * m + live)
                      <= np.take(t.hi, t.axis[at] * t.nodes + at + 1))
            child = np.where(lesser, at + 1, t.greater[at])
            deeper = t.size[child] >= k
            live = live[deeper]
            node[live] = child[deeper]
        return node

    def nearest(self, points):
        """Distance from each point to the nearest indexed point."""
        return self.knn(points, 1)[0][:, 0]

    def greedy_net(self, order, radius):
        """Greedy maximal separated subset of the indices in `order`.

        An index is kept unless a kept index lies in its closed ball of the
        given radius, so kept points are pairwise farther apart than the
        radius and every candidate lies within the radius of a kept one.
        The closed-ball predicate is symmetric, so each kept index blocks
        its own neighbourhood.  The candidates still unblocked are walked
        in batches and scanned in order, and only a kept index's items are
        expanded to atoms.  A batch holds about _NET_ITEMS items, by the
        items per ball of the last one.  Returns the kept indices in
        candidate order.
        """
        todo = np.asarray(order, dtype=np.intp)
        blocked, kept = np.zeros(len(self), dtype=bool), []
        t, step = self.item_tree(), 1
        while todo.size:
            batch, todo, held = todo[:step], todo[step:], 0
            for lo, _, ptr, items in self.ball_items(self.points[batch], radius):
                held += items.size
                for j, a, b in zip(batch[lo:].tolist(), ptr[:-1], ptr[1:]):
                    if not blocked[j]:
                        kept.append(j)
                        blocked[t.order[t.slots(items[a:b])]] = True
            todo = todo[~blocked[todo]]
            step = max(1, _NET_ITEMS * batch.size // max(held, 1))
        return np.array(kept, dtype=np.intp)

    def query_counts(self, centers, radius):
        """Number of points in the closed ball around each center."""
        return np.diff(self.neighborhoods(centers, radius)[0])

    def __len__(self):
        return self.points.shape[0]


class AtomicMeasure:
    """Finite weighted point set mu = sum_j w_j delta_{x_j}, w_j >= 0.  An
    `index` given to the constructor must be a SpatialIndex over these very
    positions; it is shared in place of a new one."""

    __slots__ = ("positions", "weights", "_index", "_bounding", "_item_moments")

    def __init__(self, positions, weights=None, index=None):
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
        index = SpatialIndex(positions) if index is None else index
        object.__setattr__(self, "_index", index)
        if m:
            center = 0.5 * (positions.min(axis=0) + positions.max(axis=0))
            far = sum_last((positions - center) ** 2).max()
            # fl(sqrt(far))^2 can round below far; one ulp up then holds it
            radius = float(np.sqrt(far))
            radius = radius if radius * radius >= far else float(np.nextafter(radius, np.inf))
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
        """Ball centered at the coordinate midrange holding every atom by the
        index's predicate (r * r is at least each squared distance)."""
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
        """Mean offset of every item from its anchor atom, coordinate-major
        (n, items), and its centred scatter, the upper triangle of
        sum w (x - mean)(x - mean)^T (items, n(n+1)/2), row-major; built on
        first use from differences of the tree's coordinates.  An atom item
        has zero offset and scatter, and so has a massless node."""
        if self._item_moments is None:
            t = self._index.item_tree()
            owner = np.repeat(np.arange(t.nodes), t.size[:t.nodes])
            rel = (np.take(t.coords, t.slots(np.arange(t.nodes)), axis=1)
                   - np.take(t.coords, t.start[owner], axis=1))
            _, offset, scatter = centred_sums(rel, self.weights[t.members], t.member_ptr, owner)
            atoms = len(t.order)
            object.__setattr__(self, "_item_moments", (
                np.concatenate([offset.T, np.zeros((offset.shape[1], atoms))], axis=1),
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
