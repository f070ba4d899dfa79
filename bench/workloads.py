"""The benchmark's workloads: inputs made from the seed, the operation a
worker runs on them, and checks of the output against closed forms.

The inputs are generated here with numpy rather than by `msgeom.fixtures`,
so that a change to the program cannot change what the benchmark feeds it.
`circle_family` reproduces the package fixture
`circle_ball_family(ball_radius=2e-3)`; `plane_cloud` is a stratified
version of `plane_cloud(3, 2, count=1521)`.

Each operation is sized to take a few seconds, so that a run of the
benchmark times several of them and reports medians.

Checks compare with closed forms, never with stored report bytes, so that a
last-ulp drift in a report does not fail a run.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np


def _write_csv(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _close(got, want, rel):
    return got is not None and abs(got - want) <= rel * abs(want)


def _load_report(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as err:
        return {"_error": f"report unreadable: {err}"}


# ---------------------------------------------------------------------------
# pack-circle
# ---------------------------------------------------------------------------

BALL_RADIUS = 2e-3
CIRCLE_RADIUS = 0.98


def circle_family(seed):
    """1399 disjoint balls of radius 2e-3 on a circle, rotated by the seed."""
    count = int(np.floor(2 * np.pi * CIRCLE_RADIUS / (2.2 * BALL_RADIUS)))
    angles = np.linspace(0, 2 * np.pi, count, endpoint=False)
    angles = angles + np.random.default_rng(seed).uniform(0.0, 2 * np.pi)
    centers = CIRCLE_RADIUS * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return centers, np.full(count, BALL_RADIUS)


def pack_inputs(seed, workdir):
    centers, radii = circle_family(seed)
    path = os.path.join(workdir, "family.csv")
    _write_csv(path, np.column_stack([centers, radii]))
    return {"op": "cli", "count": len(radii),
            "argv": ["pack", "--input", path, "--dim", "2", "--k", "1"]}


def pack_check(spec, out):
    """Exit 4 (hypothesis violated) is the expected verdict on this family:
    every ball counted, packing sum 1399 * 2e-3, failure at the coarsest
    scale 2."""
    doc = _load_report(out["report"])
    if "_error" in doc:
        return [doc["_error"]]
    errors = []
    if out["exit"] != 4:
        errors.append(f"exit {out['exit']}, expected 4")
    if doc.get("count") != spec["count"]:
        errors.append(f"count {doc.get('count')}, expected {spec['count']}")
    if not _close(doc.get("packing_sum"), spec["count"] * BALL_RADIUS, 1e-9):
        errors.append(f"packing_sum {doc.get('packing_sum')}")
    if doc.get("hypothesis_ok") is not False or doc.get("failure_scale") != 2.0:
        errors.append(f"verdict {doc.get('hypothesis_ok')} at {doc.get('failure_scale')}, "
                      "expected a failure at scale 2")
    return errors


# ---------------------------------------------------------------------------
# reconstruct-plane3d
# ---------------------------------------------------------------------------

PLANE_SIDE = 39           # a 39 x 39 grid of cells, one atom in each
PLANE_COUNT = PLANE_SIDE**2
PLANE_SCALES = 3


def plane_cloud(seed):
    """1521 atoms on [-1, 1]^2 x {0} in R^3, mass 4 / 1521 each, one uniform
    in each cell of a 39 x 39 grid.  Independent uniform atoms make the work
    depend on the seed (two seeds differed by 17 percent in CPU time); one
    atom per cell gives every seed the same density and about the same work."""
    cell = 2.0 / PLANE_SIDE
    i, j = np.meshgrid(np.arange(PLANE_SIDE), np.arange(PLANE_SIDE), indexing="ij")
    corners = -1.0 + cell * np.stack([i.ravel(), j.ravel()], axis=1)
    coords = corners + cell * np.random.default_rng(seed).uniform(size=corners.shape)
    pts = np.zeros((PLANE_COUNT, 3))
    pts[:, :2] = coords
    return pts, np.full(PLANE_COUNT, 4.0 / PLANE_COUNT)


def reconstruct_inputs(seed, workdir):
    pts, weights = plane_cloud(seed)
    path = os.path.join(workdir, "plane.csv")
    _write_csv(path, np.column_stack([pts, weights]))
    # the CLI's root ball: coordinate midrange, farthest atom, 1e-9 margin
    center = 0.5 * (pts.min(axis=0) + pts.max(axis=0))
    root = float(np.linalg.norm(pts - center, axis=1).max()) + 1e-9
    return {"op": "cli", "root_radius": root, "report_suffix": ".summary.json",
            "argv": ["reconstruct", "--input", path, "--dim", "3", "--k", "2",
                     "--scales", str(PLANE_SCALES)]}


def reconstruct_check(spec, out):
    """A flat cloud reconstructs flat: summable, every scale kept, every atom
    covered, and the root-ball measure is the disk area pi * R_root^2."""
    doc = _load_report(out["report"])
    if "_error" in doc:
        return [doc["_error"]]
    errors = []
    if out["exit"] != 0:
        errors.append(f"exit {out['exit']}, expected 0")
    if doc.get("summability_ok") is not True:
        errors.append("summability_ok is not true")
    if doc.get("scale_count") != PLANE_SCALES:
        errors.append(f"scale_count {doc.get('scale_count')}, expected {PLANE_SCALES}")
    if doc.get("covered_fraction") != 1.0:
        errors.append(f"covered_fraction {doc.get('covered_fraction')}")
    if not _close(doc.get("measure_root"), math.pi * spec["root_radius"] ** 2, 1e-9):
        errors.append(f"measure_root {doc.get('measure_root')}, "
                      f"expected {math.pi * spec['root_radius'] ** 2}")
    return errors


# ---------------------------------------------------------------------------
# stratify-radial
# ---------------------------------------------------------------------------

def stratify_inputs(seed, workdir):
    # radial_projection is fixed, so the seed does not change this input.
    # The 0.1 grid holds about 8.3k (point, scale) balls, and its point
    # nearest the singularity at 0 lies within 1e-15 of it.
    return {"op": "cli",
            "argv": ["stratify", "--fixture", "radial_projection", "--dim", "3",
                     "--k", "0", "--grid-step", "0.1"]}


def stratify_check(spec, out):
    """x/|x| is singular only at 0: the 0-stratum sits in B(8 r_min), the
    energy sup is theta_1(0) = 8 pi, and the Minkowski slope is near n = 3."""
    doc = _load_report(out["report"])
    if "_error" in doc:
        return [doc["_error"]]
    errors = []
    if out["exit"] != 0:
        errors.append(f"exit {out['exit']}, expected 0")
    positions = np.asarray(doc.get("stratum_positions") or [], dtype=float)
    r_min = doc.get("r_min") or 0.0
    if positions.shape[0] == 0:
        errors.append("empty stratum")
    elif np.linalg.norm(positions, axis=1).max() > 8 * r_min * (1 + 1e-12):
        errors.append("stratum point outside B(8 r_min)")
    if not _close(doc.get("energy_sup"), 8 * math.pi, 1e-3):
        errors.append(f"energy_sup {doc.get('energy_sup')}, expected 8 pi")
    slope = doc.get("minkowski_slope")
    if slope is None or not 2.8 <= slope <= 3.2:
        errors.append(f"minkowski_slope {slope} outside [2.8, 3.2]")
    return errors


# ---------------------------------------------------------------------------
# energy-radial
# ---------------------------------------------------------------------------

ENERGY_POINTS = 4
ENERGY_DIST = (0.02, 0.9)
# energy_point(field, x, 1.0) evaluates theta at r = 1 and at the scales of
# its dyadic drops W_a = theta_{2^(3-a)} - theta_{2^-a}, a = 3..6
ENERGY_SCALES = [2.0**-a for a in range(0, 7)]


def energy_inputs(seed, workdir):
    """The seed sets the directions of the 4 points.  Their distances are
    the midpoints of 4 equal strata of [0.02, 0.9]: theta of x/|x| depends
    on |x| alone, and the quadrature's refinement work per point varies with
    |x| by up to 1.4x, so fixed distances give every seed the same work."""
    dirs = np.random.default_rng(seed).normal(size=(ENERGY_POINTS, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    lo, hi = ENERGY_DIST
    dist = lo + (np.arange(ENERGY_POINTS) + 0.5) * (hi - lo) / ENERGY_POINTS
    return {"op": "energy", "points": (dirs * dist[:, None]).tolist(),
            "scales": ENERGY_SCALES}


def theta_radial(d, r):
    """Closed form of theta_r(x) for f = x/|x| in R^3 with d = |x| > 0:
    r^-1 [8 pi (r - d)_+ + int_{|d-r|}^{d+r} 2 pi (r^2 - (s-d)^2) / (s d) ds],
    integrating the energy density 2/|y|^2 over spheres about the origin."""
    def antiderivative(s):
        return 2 * math.pi / d * ((r * r - d * d) * math.log(s) + 2 * d * s - 0.5 * s * s)

    return (8 * math.pi * max(r - d, 0.0)
            + antiderivative(d + r) - antiderivative(abs(d - r))) / r


def energy_check(spec, out):
    """Every theta and every dyadic drop within 1e-3 (relative to theta) of
    the closed form, and every drop nonnegative up to the quadrature slack
    1e-4 * theta."""
    errors = []
    points = spec["points"]
    if len(out.get("thetas", [])) != len(points) or len(out.get("drops", [])) != len(points):
        return ["missing energy results"]
    worst = 0.0
    for x, thetas, drops, theta_1 in zip(points, out["thetas"], out["drops"], out["theta_1"]):
        d = math.sqrt(sum(v * v for v in x))
        want = {r: theta_radial(d, r) for r in ENERGY_SCALES}
        for r, got in zip(ENERGY_SCALES, thetas):
            worst = max(worst, abs(got - want[r]) / want[r])
        worst = max(worst, abs(theta_1 - want[1.0]) / want[1.0])
        for a, w in drops:
            big, small = want[2.0 ** (3 - a)], want[2.0**-a]
            if w < -1e-4 * big:
                errors.append(f"negative drop W_{a} = {w} at |x| = {d}")
            if abs(w - (big - small)) > 1e-3 * big:
                errors.append(f"drop W_{a} = {w} at |x| = {d}, closed form {big - small}")
    if worst > 1e-3:
        errors.append(f"theta off the closed form by {worst:.3g} relative")
    out["theta_worst_rel_error"] = worst
    return errors


# ---------------------------------------------------------------------------

WORKLOADS = {
    "pack-circle": {"setup_module": "msgeom.cli", "inputs": pack_inputs,
                    "check": pack_check},
    "reconstruct-plane3d": {"setup_module": "msgeom.cli", "inputs": reconstruct_inputs,
                            "check": reconstruct_check},
    "stratify-radial": {"setup_module": "msgeom.cli", "inputs": stratify_inputs,
                        "check": stratify_check},
    "energy-radial": {"setup_module": "msgeom.harmonic", "inputs": energy_inputs,
                      "check": energy_check},
}
