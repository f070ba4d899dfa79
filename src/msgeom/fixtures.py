"""Deterministic point-cloud and ball-family generators used by tests,
examples, and the command-line tools."""

from __future__ import annotations

import numpy as np

from .geometry import AtomicMeasure


def plane_cloud(n, k, count=400, extent=1.0, seed=0):
    """Atoms exactly on the coordinate k-plane {x_{k+1} = ... = x_n = 0},
    uniform in [-extent, extent]^k, with total mass (2 extent)^k."""
    rng = np.random.default_rng(seed)
    coords = rng.uniform(-extent, extent, size=(count, k))
    pts = np.zeros((count, n))
    pts[:, :k] = coords
    return AtomicMeasure(pts, np.full(count, (2.0 * extent) ** k / count))


def perturbed_plane_cloud(n, k, delta, count=400, seed=0):
    """Plane cloud over [-1, 1]^k displaced orthogonally by uniform noise of
    size <= delta."""
    rng = np.random.default_rng(seed)
    mu = plane_cloud(n, k, count, seed=seed)
    pts = mu.positions.copy()
    pts[:, k:] += rng.uniform(-delta, delta, size=(count, n - k))
    return AtomicMeasure(pts, mu.weights)


def circle_cloud(count=2000, noise=0.0, seed=0):
    """Samples of the unit circle, perturbed by uniform noise <= noise.

    Weights are arc-length cell sizes so the total mass is the circumference.
    """
    rng = np.random.default_rng(seed)
    theta = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
    pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    if noise > 0:
        ang = rng.uniform(0, 2 * np.pi, count)
        rad = noise * np.sqrt(rng.random(count))
        pts = pts + rad[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    w = np.full(count, 2.0 * np.pi / count)
    return AtomicMeasure(pts, w)


def sine_graph_cloud(count=10_000, amplitude=0.05):
    """Samples of the graph {(x, amplitude * sin(x))} over [-1, 1]."""
    xs = np.linspace(-1.0, 1.0, count)
    pts = np.stack([xs, amplitude * np.sin(xs)], axis=1)
    w = np.full(count, 2.0 / count)
    return AtomicMeasure(pts, w)


def _koch_refine(points):
    """One Koch refinement step: each segment becomes four with a 60-degree bump."""
    out = [points[0]]
    rot = np.array([[0.5, -np.sqrt(3) / 2], [np.sqrt(3) / 2, 0.5]])
    for a, b in zip(points[:-1], points[1:]):
        v = (b - a) / 3.0
        p1 = a + v
        p2 = p1 + rot @ v
        p3 = a + 2 * v
        out.extend([p1, p2, p3, b])
    return np.array(out)


def koch_polyline(levels=4):
    """Vertices of the Koch curve over [0, 1] after the given refinements."""
    pts = np.array([[0.0, 0.0], [1.0, 0.0]])
    for _ in range(levels):
        pts = _koch_refine(pts)
    return pts


def koch_polyline_measure(levels=4, samples_per_edge=2):
    """Arclength-weighted samples along the Koch polyline.

    The curve carries a definite best-line residual at every scale down to
    its refinement length, so summed displacements grow linearly in the
    scale count; it is the canonical summability-failing fixture.
    """
    verts = koch_polyline(levels)
    pts = []
    for a, b in zip(verts[:-1], verts[1:]):
        for t in range(samples_per_edge):
            pts.append(a + (b - a) * (t / samples_per_edge))
    pts.append(verts[-1])
    pts = np.array(pts)
    seg = (4.0 / 3.0) ** levels / (len(pts) - 1)  # total length / sample count
    return AtomicMeasure(pts, np.full(len(pts), seg))


def dyadic_segment_family(levels=6):
    """Disjoint dyadic-radius balls with centers on the segment [-1, 1] x {0}.

    Balls are laid left to right; level j contributes 2^j balls of radius
    0.05 * 2^-j, each separated from its neighbor by a gap of 5 percent of
    its radius.  All centers stay strictly inside the unit ball.  Returns
    (centers, radii).
    """
    sizes = [0.05 * 2.0**-j for j in range(levels) for _ in range(2**j)]
    centers, radii = [], []
    x = -0.95
    for r in sizes:
        x += r
        if x + r >= 0.98:
            break
        centers.append([x, 0.0])
        radii.append(r)
        x += r * 1.05
    return np.array(centers), np.array(radii)


def circle_ball_family(ball_radius=1e-3, circle_radius=0.98):
    """Disjoint equal balls centered along a circle inside the unit ball."""
    spacing = 2.2 * ball_radius
    count = int(np.floor(2 * np.pi * circle_radius / spacing))
    theta = np.linspace(0, 2 * np.pi, count, endpoint=False)
    centers = circle_radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return centers, np.full(count, ball_radius)


def koch_ball_family(levels=4):
    """Disjoint balls centered at Koch-curve vertices at the vertex scale."""
    verts = koch_polyline(levels)
    r = 3.0 ** (-levels) / 3.0
    return verts, np.full(len(verts), r)
