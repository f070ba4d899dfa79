"""Command-line front end.

Commands
--------
beta         dyadic displacement profiles and the summability verdict
fit-plane    best k-plane of a weighted cloud with its moment spectrum
reconstruct  multiscale flattening; atlas JSON plus a summary
pack         discrete packing verifier on a ball family (coords + radius)
stratify     quantitative stratum of a catalog field, cover, Minkowski fit

Every command takes --output, --dim, --k, --seed and --threads; beta,
reconstruct and pack also take --delta and --eps-mass, and reconstruct
--rho and --gamma-good.

Input point clouds are CSV: one row per atom, n coordinate columns and an
optional trailing weight column; a header row is detected by a non-numeric
first token.  Values must be finite, coordinates and radii at most 1e150 in
magnitude, weights nonnegative and the radii of `pack` positive; a row
breaking this is a parse error.  Reports are deterministic JSON (schema 1,
17 significant digits).  Exit codes: 0 ok, 2 parse error, 3 dimension
mismatch, 4 hypothesis violated (including overlapping balls for `pack`),
5 numerical failure (including a `stratify` cover where every theta is
infinite).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import warnings

import numpy as np

from .covering import (BallFamily, cover_report_doc, discrete_reifenberg_verify,
                       iterate_cover, union_ball_volume)
from .errors import DisjointnessError, EmptySupportError, EnergyInfiniteError, PlaneFitError
from .geometry import AtomicMeasure, Ball, hausdorff_distance
from .harmonic import FIELD_CATALOG, FINEST_SCALE, quantitative_stratum
from .moments import (
    DisplacementConfig,
    dyadic_profiles,
    second_moment_spectrum,
    summability_check,
)
from .reifenberg import check_scale_ladder, measure_estimate, reconstruct
from .report import dump_json

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DIMENSION = 3
EXIT_HYPOTHESIS = 4
EXIT_NUMERICAL = 5
_MAX_COORD = 1e150  # squared differences of larger coordinates could overflow


class CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _is_number(token):
    try:
        float(token)
        return True
    except ValueError:
        return False


def read_cloud_csv(path, dim, extra_columns=0):
    """Parse a point-cloud CSV; returns (coords, extras, weights).

    Rows carry dim coordinates, `extra_columns` mandatory trailing columns
    (ball radii, so positive), and optionally one more weight column, which
    must be nonnegative.  Every value must be finite, and coordinates and
    radii at most _MAX_COORD in magnitude.
    """
    rows = []
    weights = []
    extras = []
    expected = None
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as err:
        raise CliError(EXIT_PARSE, f"cannot open input: {err}")
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            tokens = [t.strip() for t in line.split(",")]
            if lineno == 1 and not _is_number(tokens[0]):
                continue  # header row
            if not all(_is_number(t) for t in tokens):
                raise CliError(EXIT_PARSE, f"parse error on line {lineno}: non-numeric value")
            vals = [float(t) for t in tokens]
            if expected is None:
                base = dim + extra_columns
                if len(vals) == base:
                    expected = (len(vals), False)
                elif len(vals) == base + 1:
                    expected = (len(vals), True)
                else:
                    raise CliError(
                        EXIT_DIMENSION,
                        f"dimension mismatch on line {lineno}: {len(vals)} columns "
                        f"for ambient dimension {dim}",
                    )
            if len(vals) != expected[0]:
                raise CliError(EXIT_PARSE, f"parse error on line {lineno}: ragged row")
            if not all(math.isfinite(v) for v in vals):
                raise CliError(EXIT_PARSE, f"parse error on line {lineno}: non-finite value")
            if any(abs(v) > _MAX_COORD for v in vals[:dim + extra_columns]):
                raise CliError(EXIT_PARSE, f"parse error on line {lineno}: "
                               "coordinate or radius beyond 1e150 in magnitude")
            has_weight = expected[1]
            coord = vals[:dim]
            trail = vals[dim : dim + extra_columns]
            w = vals[-1] if has_weight else 1.0
            if w < 0:
                raise CliError(EXIT_PARSE, f"parse error on line {lineno}: negative weight")
            if not all(t > 0 for t in trail):
                raise CliError(EXIT_PARSE, f"parse error on line {lineno}: radius must be positive")
            rows.append(coord)
            extras.append(trail)
            weights.append(w)
    if not rows:
        raise CliError(EXIT_PARSE, "parse error: no data rows")
    return np.array(rows), np.array(extras), np.array(weights)


def write_cloud_csv(path, mu):
    with open(path, "w", encoding="utf-8") as fh:
        for p, w in zip(mu.positions, mu.weights):
            fields = [f"{v:.17g}" for v in p] + [f"{w:.17g}"]
            fh.write(",".join(fields))
            fh.write("\n")


def _config(args, k):
    """The displacement coefficients of the options; a value outside its
    range is a parse error."""
    given = {name: getattr(args, name) for name in ("eps_mass", "gamma_good", "rho")
             if getattr(args, name, None) is not None}
    try:
        return dataclasses.replace(DisplacementConfig.default(k, delta=args.delta), **given)
    except ValueError as err:
        raise CliError(EXIT_PARSE, f"bad option value: {err}")


def _check_options(args):
    """Reject option values outside their range before any work is done."""
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise CliError(EXIT_PARSE, f"--{name.replace('_', '-')} must be finite")
    if args.seed < 0:
        raise CliError(EXIT_PARSE, "--seed must be >= 0")
    if args.dim > 16:
        raise CliError(EXIT_DIMENSION, f"ambient dimension {args.dim} exceeds 16")
    if args.k >= args.dim:
        raise CliError(EXIT_DIMENSION,
                       f"intrinsic dimension {args.k} must be below {args.dim}")
    if args.k < 0:
        raise CliError(EXIT_PARSE, f"intrinsic dimension {args.k} must be >= 0")
    if args.command == "reconstruct" and args.k < 1:
        raise CliError(EXIT_PARSE, "reconstruct needs --k >= 1")
    for name in ("scales", "grid_step", "eta", "plane_count"):
        if getattr(args, name, 1) <= 0:
            raise CliError(EXIT_PARSE, f"--{name.replace('_', '-')} must be positive")
    if not getattr(args, "r_min", 1.0) >= FINEST_SCALE:  # the ladder's deepest rung
        raise CliError(EXIT_PARSE, "--r-min must be at least 2**-60")
    for name in ("alpha_min", "alpha_max"):
        if not -60 <= getattr(args, name, 0) <= 60:  # as --r-min >= 2**-60
            raise CliError(EXIT_PARSE, f"--{name.replace('_', '-')} must be in [-60, 60]")
    if getattr(args, "alpha_min", 0) > getattr(args, "alpha_max", 0):
        raise CliError(EXIT_PARSE, "--alpha-min must not exceed --alpha-max")
    if hasattr(args, "delta"):  # beta, reconstruct and pack
        _config(args, args.k)
    if args.command == "reconstruct":
        try:
            check_scale_ladder(args.k, args.rho, args.scales)
        except ValueError as err:
            raise CliError(EXIT_PARSE, f"bad --scales: {err}")


def cmd_beta(args):
    coords, _, weights = read_cloud_csv(args.input, args.dim)
    mu = AtomicMeasure(coords, weights)
    cfg = _config(args, args.k)
    ball = mu.bounding_ball(margin=1e-9)
    holds, value = summability_check(mu, ball, args.k, cfg)

    cap = 256
    step = max(1, mu.count // cap)
    profile_rows = []
    worst = (-1.0, None, None)
    profiles = dyadic_profiles(mu, mu.positions[::step], args.k,
                               args.alpha_min, args.alpha_max, cfg)
    for prof, w in zip(profiles, weights[::step]):
        for scale, disp, _ in prof.entries():
            if disp * w > worst[0]:
                worst = (disp * w, prof.center, scale)
        profile_rows.append({
            "center": list(prof.center),
            "scales": list(prof.scales),
            "displacements": list(prof.displacements),
            "masses": list(prof.masses),
        })
    doc = {
        "schema": 1,
        "command": "beta",
        "k": args.k,
        "delta": args.delta,
        "verdict": "holds" if holds else "fails",
        "value": value,
        "threshold": cfg.delta**2,
        "root": {"center": list(ball.center), "radius": ball.radius},
        "worst_ball": None if worst[1] is None else
            {"center": list(worst[1]), "scale": worst[2], "weighted_displacement": worst[0]},
        "profiles": profile_rows,
    }
    if args.output:
        dump_json(doc, args.output)
    return EXIT_OK if holds else EXIT_HYPOTHESIS, doc


def cmd_fit_plane(args):
    coords, _, weights = read_cloud_csv(args.input, args.dim)
    mu = AtomicMeasure(coords, weights)
    ball = mu.bounding_ball(margin=1e-9)
    spec = second_moment_spectrum(mu, ball)
    plane = spec.plane(args.k)
    doc = {
        "schema": 1,
        "command": "fit-plane",
        "k": args.k,
        "base": list(plane.base),
        "basis": [list(row) for row in plane.directions],
        "eigenvalues": list(spec.eigenvalues),
        "residual": spec.residual(args.k),
        "mass": spec.mass,
    }
    if args.output:
        dump_json(doc, args.output)
    return EXIT_OK, doc


def cmd_reconstruct(args):
    coords, _, weights = read_cloud_csv(args.input, args.dim)
    mu = AtomicMeasure(coords, weights)
    cfg = _config(args, args.k)
    # the summability warning and the no-flat-scale fallback go to the
    # summary, each distinct message once, in the order they were raised
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        atlas = reconstruct(mu, args.k, cfg, max_scale_count=args.scales,
                            seed=args.seed)
    summary = {
        "schema": 1,
        "command": "reconstruct",
        "k": args.k,
        "summability_ok": bool(atlas.summability_ok),
        "scale_count": len(atlas.scales),
        "final_radius": atlas.final_scale.radius,
        "total_distortion": atlas.total_distortion_bound(),
        "max_atom_distance": float(atlas.atom_distances.max()),
        "covered_fraction": float(atlas.covered.mean()),
        "measure_root": measure_estimate(atlas, atlas.root_ball),
        "diagnostics": list(dict.fromkeys(str(w.message) for w in caught)),
    }
    if args.truth:
        t_coords, _, _ = read_cloud_csv(args.truth, args.dim)
        summary["hausdorff_to_truth"] = hausdorff_distance(
            atlas.final_samples, t_coords
        )
    if args.output:
        atlas.export_json(args.output)
        dump_json(summary, args.output + ".summary.json")
    return (EXIT_OK if atlas.summability_ok else EXIT_HYPOTHESIS), summary


def cmd_pack(args):
    coords, extras, _ = read_cloud_csv(args.input, args.dim, extra_columns=1)
    radii = extras[:, 0]
    fam = BallFamily(coords, radii)
    cfg = _config(args, args.k)
    report = discrete_reifenberg_verify(fam, args.k, cfg,
                                        packing_bound=args.packing_bound)
    doc = {
        "schema": 1,
        "command": "pack",
        "k": args.k,
        "count": fam.count,
        "hypothesis_ok": report.hypothesis_ok,
        "packing_sum": report.packing_sum,
        "bound_exceeded": report.bound_exceeded,
        "failure_scale": report.failure_scale,
        "worst_ball": None if report.worst_ball is None else {
            "center": list(report.worst_ball[0]),
            "scale": report.worst_ball[1],
            "value": report.worst_ball[2],
        },
        "values_by_scale": {f"{r:.17g}": v for r, v in
                            sorted(report.values_by_scale.items(), reverse=True)},
    }
    if args.output:
        dump_json(doc, args.output)
    return (EXIT_OK if report.hypothesis_ok else EXIT_HYPOTHESIS), doc


def cmd_stratify(args):
    make = FIELD_CATALOG.get(args.fixture)
    if make is None:
        raise CliError(EXIT_PARSE,
                       f"unknown fixture {args.fixture!r}; "
                       f"choose from {sorted(FIELD_CATALOG)}")
    field = make(args.dim)
    r = args.r_min
    stratum = quantitative_stratum(field, args.k, args.epsilon, r,
                                   grid_step=args.grid_step, radius=1.0,
                                   plane_count=args.plane_count)
    root = Ball(np.zeros(args.dim), 1.0)
    levels, _ = iterate_cover(field, root, args.k, args.epsilon, r, args.eta,
                              grid_step=args.grid_step, stratum=stratum)
    cover = levels[0][0]
    rhos = [2.0**-a for a in range(-1, 3)]
    vols = [union_ball_volume(stratum.positions, rho, cell=rho / 8.0) for rho in rhos]
    slope = None
    if all(v > 0 for v in vols):
        slope = float(np.polyfit(np.log(rhos), np.log(vols), 1)[0])
    doc = {
        "schema": 1,
        "command": "stratify",
        "fixture": args.fixture,
        "k": args.k,
        "epsilon": args.epsilon,
        "r_min": r,
        "grid_step": args.grid_step,
        "stratum_count": stratum.count,
        "stratum_positions": [list(p) for p in stratum.positions],
        "energy_sup": cover.energy_sup,
        "u_r_count": len(cover.U_r),
        "u_plus_count": len(cover.U_plus),
        "packing_sum": cover.packing_sum,
        "content": cover.content,
        "minkowski_radii": rhos,
        "minkowski_volumes": vols,
        "minkowski_slope": slope,
        "cover_levels": cover_report_doc(levels)["levels"],
        "cover_skipped": sum(rep.skipped for reports in levels for rep in reports),
    }
    if args.output:
        dump_json(doc, args.output)
        write_cloud_csv(args.output + ".csv", stratum)
    return EXIT_OK, doc


def build_parser():
    p = argparse.ArgumentParser(prog="msgeom", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, needs_input=True):
        if needs_input:
            sp.add_argument("--input", required=True, help="point-cloud CSV")
        sp.add_argument("--output", default=None, help="JSON report path")
        sp.add_argument("--dim", type=int, required=True, help="ambient dimension n")
        sp.add_argument("--k", type=int, default=1, help="intrinsic dimension k")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--threads", type=int, default=1,
                        help="worker threads; results are identical for any count")

    def displacement(sp):
        sp.add_argument("--delta", type=float, default=0.1)
        sp.add_argument("--eps-mass", dest="eps_mass", type=float, default=None)

    sp = sub.add_parser("beta", help="dyadic displacement profiles + summability")
    common(sp)
    displacement(sp)
    sp.add_argument("--alpha-min", dest="alpha_min", type=int, default=0)
    sp.add_argument("--alpha-max", dest="alpha_max", type=int, default=8)
    sp.set_defaults(fn=cmd_beta)

    sp = sub.add_parser("fit-plane", help="best k-plane and moment spectrum")
    common(sp)
    sp.set_defaults(fn=cmd_fit_plane)

    sp = sub.add_parser("reconstruct", help="multiscale flattening")
    common(sp)
    displacement(sp)
    sp.add_argument("--rho", type=float, default=0.5, help="scale ratio, 2**-q")
    sp.add_argument("--gamma-good", dest="gamma_good", type=float, default=None)
    sp.add_argument("--scales", type=int, default=5, help="scale-ladder length")
    sp.add_argument("--truth", default=None, help="truth cloud CSV for Hausdorff")
    sp.set_defaults(fn=cmd_reconstruct)

    sp = sub.add_parser("pack", help="discrete packing verifier")
    common(sp)
    displacement(sp)
    sp.add_argument("--packing-bound", dest="packing_bound", type=float, default=None)
    sp.set_defaults(fn=cmd_pack)

    sp = sub.add_parser("stratify", help="quantitative stratum of a catalog field")
    common(sp, needs_input=False)
    sp.add_argument("--fixture", required=True, help="catalog field tag")
    sp.add_argument("--epsilon", type=float, default=0.3)
    sp.add_argument("--r-min", dest="r_min", type=float, default=2.0**-6,
                    help="floor scale, at least 2**-60")
    sp.add_argument("--grid-step", dest="grid_step", type=float, default=2.0**-3)
    sp.add_argument("--eta", type=float, default=0.5)
    sp.add_argument("--plane-count", dest="plane_count", type=int, default=32)
    sp.set_defaults(fn=cmd_stratify)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_options(args)
        code, _ = args.fn(args)
        return code
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code
    except DisjointnessError as err:
        print(f"hypothesis violated: {err}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (EnergyInfiniteError, PlaneFitError, EmptySupportError,
            np.linalg.LinAlgError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
