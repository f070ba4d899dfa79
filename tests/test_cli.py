import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from msgeom import covering
from msgeom.cli import (CliError, _check_options, build_parser, main, read_cloud_csv,
                        write_cloud_csv)
from msgeom.fixtures import circle_cloud, koch_polyline_measure, plane_cloud
from msgeom.geometry import AtomicMeasure, hausdorff_distance
from msgeom.harmonic import theta
from msgeom.moments import DisplacementConfig
from msgeom.reifenberg import reconstruct
from msgeom.report import dumps_json


def write_csv(path, mu, header=False):
    with open(path, "w") as fh:
        if header:
            cols = [f"x{i}" for i in range(mu.ambient_dim)] + ["w"]
            fh.write(",".join(cols) + "\n")
        for p, w in zip(mu.positions, mu.weights):
            fh.write(",".join(f"{v:.17g}" for v in p) + f",{w:.17g}\n")


def run_cli(args):
    return main(args)


class TestCsv:
    def test_header_detection_and_weights(self, tmp_path):
        mu = plane_cloud(2, 1, count=20, seed=0)
        path = tmp_path / "cloud.csv"
        write_csv(path, mu, header=True)
        coords, _, weights = read_cloud_csv(str(path), 2)
        assert coords.shape == (20, 2)
        assert np.allclose(weights, mu.weights)

    def test_weightless_rows_default_one(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("0.0,0.0\n1.0,0.5\n")
        coords, _, weights = read_cloud_csv(str(path), 2)
        assert np.allclose(weights, 1.0)

    def test_parse_error_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,0.0\nx,oops\n")
        code = run_cli(["beta", "--input", str(path), "--dim", "2", "--k", "1"])
        assert code == 2

    def test_dimension_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,0.0,0.0,0.0\n")
        code = run_cli(["beta", "--input", str(path), "--dim", "2", "--k", "1"])
        assert code == 3

    def test_round_trip(self, tmp_path):
        mu = circle_cloud(count=50, noise=1e-3, seed=1)
        path = tmp_path / "cloud.csv"
        write_cloud_csv(str(path), mu)
        coords, _, weights = read_cloud_csv(str(path), 2)
        back = AtomicMeasure(coords, weights)
        assert np.array_equal(back.positions, mu.positions)
        assert np.array_equal(back.weights, mu.weights)


class TestBadInput:
    @pytest.mark.parametrize("rows", ["x,y\n0,0\n1,nan\n2,0\n",
                                      "x,y\n0,0\ninf,0.5\n2,0\n",
                                      "x,y,w\n0,0,1\n1,0.5,-1\n2,0,1\n"])
    def test_bad_value_is_parse_error(self, tmp_path, capsys, rows):
        # a NaN or inf value, or a negative weight, on line 3
        path = tmp_path / "bad.csv"
        path.write_text(rows)
        code = run_cli(["beta", "--input", str(path), "--dim", "2", "--k", "1"])
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("radius", ["0.0", "-0.1"])
    def test_nonpositive_radius_is_parse_error(self, tmp_path, capsys, radius):
        path = tmp_path / "balls.csv"
        path.write_text(f"0.0,0.0,0.1\n1.0,0.0,{radius}\n")
        code = run_cli(["pack", "--input", str(path), "--dim", "2", "--k", "1"])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    HUGE = "1e300,0\n-1e300,0\n0,1e300\n"

    @pytest.mark.parametrize("command,rows", [
        ("beta", HUGE), ("reconstruct", HUGE), ("fit-plane", HUGE),
        ("pack", "0,0,1e200\n1e201,0,1e200\n"),
    ], ids=["beta", "reconstruct", "fit-plane", "pack"])
    def test_huge_value_is_parse_error(self, tmp_path, capsys, command, rows):
        # squared differences of these overflowed to inf in the tree queries
        # and the moment spectrum
        path = tmp_path / "huge.csv"
        path.write_text(rows)
        code = run_cli([command, "--input", str(path), "--dim", "2", "--k", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: parse error on line 1: ") and "Traceback" not in err

    @pytest.mark.parametrize("rows, line, fault", [
        ("0,0,1\n1,0,-1\n2,nan,1\n", 2, "negative weight"),
        ("0,0,1\n1,inf,-1\n2,0,1\n", 2, "non-finite value"),
        ("0,0\n1,nan\nx,0\n", 2, "non-finite value"),
        ("0,0\n1e151,0\n1,2,3,4\n", 2, "coordinate or radius beyond 1e150"),
        ("0,0\n0,1,2,3\n1,nan\n", 2, "ragged row"),
    ], ids=["weight-then-nan", "nan-before-weight", "then-non-numeric", "then-ragged",
            "ragged-first"])
    def test_first_failing_row_wins(self, tmp_path, capsys, rows, line, fault):
        path = tmp_path / "bad.csv"
        path.write_text(rows)
        code = run_cli(["beta", "--input", str(path), "--dim", "2", "--k", "1"])
        assert code == 2
        assert f"parse error on line {line}: {fault}" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["x,y\n", "x,y\n\n  \n", "", "\n"])
    def test_no_data_rows_is_parse_error(self, tmp_path, capsys, text):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        code = run_cli(["beta", "--input", str(path), "--dim", "2", "--k", "1"])
        assert code == 2
        assert "no data rows" in capsys.readouterr().err

    def test_values_up_to_1e150_parse(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("1e150,-1e150,1e150\n0,0,1e-300\n")
        coords, radii, _ = read_cloud_csv(str(path), 2, extra_columns=1)
        assert coords[0].tolist() == [1e150, -1e150] and radii[:, 0].tolist() == [1e150, 1e-300]

    def test_overlapping_balls_violate_hypothesis(self, tmp_path):
        path = tmp_path / "balls.csv"
        path.write_text("0.0,0.0,0.1\n0.05,0.0,0.1\n")
        code = run_cli(["pack", "--input", str(path), "--dim", "2", "--k", "1"])
        assert code == 4

    def test_tiny_overlapping_balls_violate_hypothesis(self, tmp_path):
        path = tmp_path / "balls.csv"
        path.write_text("0.0,0.0,1e-13\n0.0,0.0,1e-13\n")
        code = run_cli(["pack", "--input", str(path), "--dim", "2", "--k", "1"])
        assert code == 4

    def test_duplicate_atoms(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("".join(f"{i / 50},0.0\n{i / 50},0.0\n" for i in range(50)))
        for cmd in (["beta"], ["reconstruct", "--scales", "2"]):
            assert run_cli(cmd + ["--input", str(path), "--dim", "2", "--k", "1"]) == 0

    def test_exactly_k_plus_one_atoms(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("0.0,0.0\n1.0,0.0\n")
        args = ["--input", str(path), "--dim", "2", "--k", "1"]
        assert run_cli(["beta"] + args) == 0
        # no ball of the ladder holds k + 1 atoms to fit a plane to
        assert run_cli(["reconstruct", "--scales", "2"] + args) == 5


def _unread_option_cases():
    fit_plane = ["fit-plane", "--input", "{cloud}", "--dim", "2", "--k", "1"]
    stratify = ["stratify", "--fixture", "smooth", "--dim", "3", "--k", "0"]
    beta = ["beta", "--input", "{cloud}", "--dim", "2", "--k", "1"]
    pack = ["pack", "--input", "{cloud}", "--dim", "2", "--k", "1"]
    cases = [(option, command)
             for option in ("--rho", "--delta", "--eps-mass", "--gamma-good")
             for command in (fit_plane, stratify)]
    cases += [(option, command) for option in ("--rho", "--gamma-good") for command in (beta, pack)]
    return [pytest.param(option, command, id=f"{option}-{command[0]}")
            for option, command in cases]


class TestOptionRanges:
    CLOUD = ["--input", "{cloud}", "--dim", "2", "--k", "1"]

    @pytest.mark.parametrize("argv", [
        ["reconstruct", *CLOUD, "--rho", "0.3"],
        # a scale root * rho^i must be a rung of the root ball's ladder
        ["reconstruct", *CLOUD, "--rho", "0.5000000000000001"],
        ["beta", *CLOUD, "--delta", "0"],
        ["beta", *CLOUD, "--eps-mass", "-1"],
        ["reconstruct", *CLOUD, "--gamma-good", "0"],
        ["beta", *CLOUD, "--alpha-min", "5", "--alpha-max", "2"],
        ["beta", *CLOUD, "--alpha-min", "-1080", "--alpha-max", "0"],
        ["beta", *CLOUD, "--alpha-min", "1070", "--alpha-max", "1080"],
        ["beta", *CLOUD, "--alpha-max", "61"],
        ["reconstruct", *CLOUD, "--scales", "0"],
        ["reconstruct", *CLOUD, "--scales", "70"],
        ["reconstruct", *CLOUD, "--scales", "1100"],
        ["reconstruct", "--input", "{cloud}", "--dim", "6", "--k", "5", "--scales", "1"],
        ["reconstruct", "--input", "{cloud}", "--dim", "3", "--k", "2", "--rho", "0.25",
         "--scales", "4"],
        ["reconstruct", "--input", "{cloud}", "--dim", "2", "--k", "0"],
        ["fit-plane", "--input", "{cloud}", "--dim", "2", "--k", "-1"],
        ["stratify", "--fixture", "smooth", "--dim", "3", "--k", "0", "--grid-step", "0"],
        ["stratify", "--fixture", "smooth", "--dim", "3", "--k", "0", "--eta", "0"],
        ["stratify", "--fixture", "smooth", "--dim", "3", "--k", "0", "--r-min", "-1"],
        ["stratify", "--fixture", "smooth", "--dim", "3", "--k", "0", "--r-min", "0"],
        ["stratify", "--fixture", "smooth", "--dim", "3", "--k", "0", "--plane-count", "-1"],
        ["stratify", "--fixture", "radial_projection", "--dim", "3", "--k", "0",
         "--grid-step", "0.5", "--r-min", "1e-200"],
        ["stratify", "--fixture", "radial_projection", "--dim", "3", "--k", "0",
         "--grid-step", "0.5", "--r-min", "1e-110"],
    ], ids=["rho", "rho-inexact", "delta", "eps-mass", "gamma-good", "alpha-range",
            "alpha-min-1080", "alpha-min-1070", "alpha-max-61", "scales",
            "scales-70", "scales-1100", "k5-disk", "rho-quarter-disk",
            "reconstruct-k", "k",
            "grid-step", "eta", "r-min", "r-min-zero", "plane-count",
            "r-min-1e-200", "r-min-1e-110"])
    def test_bad_value_is_parse_error(self, tmp_path, capsys, argv):
        # rejected before any work, with a message and no traceback
        cloud = tmp_path / "cloud.csv"
        cloud.write_text("0,0\n1,0.1\n2,0\n3,0.2\n")
        code = run_cli([a.format(cloud=cloud) for a in argv])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["reconstruct", *CLOUD, "--scales", "16"],
        ["reconstruct", "--input", "{cloud}", "--dim", "3", "--k", "2", "--scales", "6"],
        ["reconstruct", "--input", "{cloud}", "--dim", "4", "--k", "3", "--scales", "2"],
    ], ids=["k1-scales-16", "k2-scales-6", "k3-scales-2"])
    def test_largest_start_disk_is_accepted(self, argv):
        # (30 * 2**15 + 1), 961**2 and 61**3 grid points are at most 2**20;
        # one more scale in each case exceeds it
        args = build_parser().parse_args(argv)
        assert _check_options(args) is None
        args.scales += 1
        with pytest.raises(CliError):
            _check_options(args)

    @pytest.mark.parametrize("option,command", _unread_option_cases())
    def test_displacement_options_only_where_read(self, tmp_path, command, option):
        # fit-plane and stratify read no displacement coefficient, and beta
        # and pack neither the scale ratio nor the good-ball threshold
        cloud = tmp_path / "cloud.csv"
        cloud.write_text("0,0\n1,0.1\n2,0\n")
        with pytest.raises(SystemExit) as exc:
            run_cli([a.format(cloud=cloud) for a in command] + [option, "0.5"])
        assert exc.value.code == 2

    def test_r_min_at_the_deepest_rung_runs(self, tmp_path):
        # 1e-200 used to overflow in the cover and 1e-110 to underflow the
        # ball rule into NaN; 2**-60, the ladder's deepest rung, still runs
        out = tmp_path / "report.json"
        code = run_cli(["stratify", "--fixture", "radial_projection", "--dim", "3",
                        "--k", "0", "--grid-step", "0.5", "--r-min", repr(2.0**-60),
                        "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["stratum_positions"] == [[0.0, 0.0, 0.0]]

    @pytest.mark.parametrize("dim,k", [(17, 1), (3, 3), (2, 5)])
    def test_dimension_out_of_range_is_exit_3(self, tmp_path, capsys, dim, k):
        # rejected before the input is read
        code = run_cli(["fit-plane", "--input", str(tmp_path / "absent.csv"),
                        "--dim", str(dim), "--k", str(k)])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_unknown_fixture_is_parse_error(self, capsys):
        code = run_cli(["stratify", "--fixture", "no_such_field", "--dim", "3", "--k", "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown fixture 'no_such_field'" in err and "radial_projection" in err

    def test_unreadable_input_is_parse_error(self, tmp_path, capsys):
        code = run_cli(["beta", "--input", str(tmp_path / "absent.csv"), "--dim", "2",
                        "--k", "1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: cannot open input: ")

    def test_stratify_where_every_theta_is_infinite(self, capsys):
        # x/|x| in R^2: the codimension-2 point lies in every top-scale ball
        code = run_cli(["stratify", "--fixture", "radial_projection", "--dim", "2",
                        "--k", "0", "--grid-step", "0.5", "--r-min", "0.25"])
        assert code == 5
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and "Traceback" not in err


def _subcommands():
    """(name, subparser) of every command of the CLI parser."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sorted(sub.choices.items())


def _required_argv(sp, cloud):
    """The required options of a subcommand, with values that parse."""
    values = {"input": str(cloud), "dim": "2", "fixture": "smooth"}
    argv = []
    for action in sp._actions:
        if action.required:
            argv += [action.option_strings[0], values[action.dest]]
    return argv


def _non_finite_cases():
    cases = [(name, ["--seed", "-1"]) for name, _ in _subcommands()]
    for name, sp in _subcommands():
        for action in sp._actions:
            if action.type is float:
                cases += [(name, [f"{action.option_strings[0]}={v}"])
                          for v in ("nan", "inf", "-inf")]
    return cases


class TestEveryFloatOption:
    @pytest.mark.parametrize("command,option", _non_finite_cases(),
                             ids=lambda v: v if isinstance(v, str) else " ".join(v))
    def test_non_finite_value_is_parse_error(self, tmp_path, capsys, command, option):
        # found by walking the parser, so a new float option is covered too
        cloud = tmp_path / "cloud.csv"
        cloud.write_text("0,0\n1,0.1\n2,0\n3,0.2\n")
        sp = dict(_subcommands())[command]
        code = run_cli([command, *_required_argv(sp, cloud), *option])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


class TestCommands:
    def test_beta_planar_holds(self, tmp_path):
        mu = plane_cloud(2, 1, count=100, seed=2)
        inp = tmp_path / "cloud.csv"
        out = tmp_path / "report.json"
        write_csv(inp, mu)
        code = run_cli(["beta", "--input", str(inp), "--dim", "2", "--k", "1",
                        "--output", str(out)])
        assert code == 0
        text = out.read_text()
        assert '"verdict":"holds"' in text
        assert '"value":0' in text

    def test_beta_koch_fails(self, tmp_path):
        mu = koch_polyline_measure(levels=3, samples_per_edge=2)
        inp = tmp_path / "koch.csv"
        out = tmp_path / "report.json"
        write_csv(inp, mu)
        code = run_cli(["beta", "--input", str(inp), "--dim", "2", "--k", "1",
                        "--delta", "0.05", "--output", str(out)])
        assert code == 4
        assert '"verdict":"fails"' in out.read_text()
        assert '"worst_ball"' in out.read_text()

    def test_fit_plane(self, tmp_path):
        mu = plane_cloud(3, 2, count=200, seed=3)
        inp = tmp_path / "cloud.csv"
        out = tmp_path / "plane.json"
        write_csv(inp, mu)
        code = run_cli(["fit-plane", "--input", str(inp), "--dim", "3", "--k", "2",
                        "--output", str(out)])
        assert code == 0
        assert '"residual":0' in out.read_text()

    def test_reconstruct_plane_identity(self, tmp_path):
        mu = plane_cloud(2, 1, count=400, seed=4)
        inp = tmp_path / "cloud.csv"
        out = tmp_path / "atlas.json"
        write_csv(inp, mu)
        code = run_cli(["reconstruct", "--input", str(inp), "--dim", "2", "--k", "1",
                        "--scales", "3", "--output", str(out)])
        assert code == 0
        summary = (tmp_path / "atlas.json.summary.json").read_text()
        assert '"total_distortion":1' in summary
        assert json.loads(summary)["diagnostics"] == []

    def test_reconstruct_hausdorff_to_truth(self, tmp_path):
        mu = plane_cloud(2, 1, count=400, seed=4)
        inp, truth, out = tmp_path / "cloud.csv", tmp_path / "truth.csv", tmp_path / "atlas.json"
        write_csv(inp, mu)
        line = np.linspace(-1.0, 1.0, 101)
        truth.write_text("".join(f"{x:.17g},0\n" for x in line))
        code = run_cli(["reconstruct", "--input", str(inp), "--dim", "2", "--k", "1",
                        "--scales", "3", "--truth", str(truth), "--output", str(out)])
        assert code == 0
        summary = json.loads((tmp_path / "atlas.json.summary.json").read_text())
        coords, _, weights = read_cloud_csv(str(inp), 2)
        atlas = reconstruct(AtomicMeasure(coords, weights), 1, DisplacementConfig.default(1),
                            max_scale_count=3)
        want = hausdorff_distance(atlas.final_samples, np.column_stack([line, 0 * line]))
        assert list(summary)[-1] == "hausdorff_to_truth"
        assert summary["hausdorff_to_truth"] == want > 0.0

    def _reconstruct_circle(self, tmp_path, *options):
        inp = tmp_path / "circle.csv"
        out = tmp_path / "atlas.json"
        write_csv(inp, circle_cloud(count=600, noise=1e-2, seed=1))
        code = run_cli(["reconstruct", "--input", str(inp), "--dim", "2", "--k", "1",
                        "--output", str(out), *options])
        summary = json.loads((tmp_path / "atlas.json.summary.json").read_text())
        return code, summary

    def test_reconstruct_reports_summability_warning(self, tmp_path):
        # a circle's summed displacement on its bounding ball is about 3.3:
        # its ladder's top rung 2R holds the whole circle
        code, summary = self._reconstruct_circle(tmp_path, "--scales", "3")
        assert code == 4 and summary["summability_ok"] is False
        assert summary["diagnostics"] == [
            "summed displacement 3.302 exceeds delta^2 = 0.01 on the root ball; "
            "reconstructing anyway"]

    def test_reconstruct_reports_no_flat_scale(self, tmp_path):
        # delta^2 = 3.61 admits the circle (3.302), but its one scale is not flat
        code, summary = self._reconstruct_circle(tmp_path, "--scales", "1",
                                                 "--delta", "1.9")
        assert code == 0 and summary["summability_ok"] is True
        assert summary["diagnostics"] == [
            "no scale within max_scale_count is flat; starting at the finest"]

    def test_reconstruct_exit_4_on_bad_cloud(self, tmp_path):
        mu = koch_polyline_measure(levels=3, samples_per_edge=2)
        inp = tmp_path / "koch.csv"
        write_csv(inp, mu)
        code = run_cli(["reconstruct", "--input", str(inp), "--dim", "2", "--k", "1",
                        "--delta", "0.05", "--scales", "3"])
        assert code == 4

    def test_pack_planar(self, tmp_path):
        from msgeom.fixtures import dyadic_segment_family

        centers, radii = dyadic_segment_family(levels=4)
        inp = tmp_path / "balls.csv"
        with open(inp, "w") as fh:
            for c, r in zip(centers, radii):
                fh.write(f"{c[0]:.17g},{c[1]:.17g},{r:.17g}\n")
        out = tmp_path / "pack.json"
        code = run_cli(["pack", "--input", str(inp), "--dim", "2", "--k", "1",
                        "--output", str(out)])
        assert code == 0
        assert '"hypothesis_ok":true' in out.read_text()

    def test_stratify_smooth_empty(self, tmp_path):
        out = tmp_path / "strat.json"
        code = run_cli(["stratify", "--fixture", "smooth", "--dim", "3", "--k", "0",
                        "--epsilon", "0.05", "--r-min", "0.0625",
                        "--grid-step", "0.5", "--output", str(out)])
        assert code == 0
        assert '"stratum_count":0' in out.read_text()

    def test_stratify_reports_skipped_theta(self, tmp_path, monkeypatch):
        # theta fails at one of the 24 samples at the root scale; the cover
        # still completes and the report counts the failure
        def failing(field, x, r):
            if r == 1.0 and np.array_equal(x, [1.0, 0.0, 0.0]):
                raise ValueError("ball exceeds the field domain")
            return theta(field, x, r)

        argv = ["stratify", "--fixture", "smooth", "--dim", "3", "--k", "0",
                "--grid-step", "0.5", "--r-min", "0.125", "--epsilon", "0.001"]
        out = tmp_path / "strat.json"
        monkeypatch.setattr(covering, "theta", failing)
        assert run_cli(argv + ["--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["stratum_count"] == 24 and doc["cover_skipped"] == 1
        assert list(doc)[-1] == "cover_skipped"


class TestReport:
    def test_non_finite_floats_are_strings(self):
        values = [float("nan"), float("inf"), float("-inf"), np.float64("nan"), -np.inf]
        assert dumps_json(values) == '["nan","inf","-inf","nan","-inf"]'


class TestDeterminism:
    @pytest.mark.parametrize("threads", ["1", "4"])
    def test_beta_byte_identical(self, tmp_path, threads):
        mu = circle_cloud(count=200, noise=1e-3, seed=5)
        inp = tmp_path / "cloud.csv"
        write_csv(inp, mu)
        out = tmp_path / f"r{threads}.json"
        code = run_cli(["beta", "--input", str(inp), "--dim", "2", "--k", "1",
                        "--seed", "7", "--threads", threads, "--output", str(out)])
        assert code in (0, 4)  # verdict is part of the byte-compared report
        ref = tmp_path / "ref.json"
        run_cli(["beta", "--input", str(inp), "--dim", "2", "--k", "1",
                 "--seed", "7", "--threads", "1", "--output", str(ref)])
        assert out.read_bytes() == ref.read_bytes()

    def test_subprocess_entry_point(self, tmp_path):
        mu = plane_cloud(2, 1, count=30, seed=6)
        inp = tmp_path / "cloud.csv"
        write_csv(inp, mu)
        # the child finds the package in src/ without an installed copy
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(Path(__file__).resolve().parents[1] / "src"),
                          os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "msgeom", "beta", "--input", str(inp),
             "--dim", "2", "--k", "1"],
            capture_output=True, env=env,
        )
        assert proc.returncode == 0
