"""msgeom benchmark: one workload per invocation, one client, closed loop.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation runs in a fresh worker process (bench/worker.py), one at a
time, single-threaded (OpenBLAS/OpenMP pools pinned to 1 thread), on one
vCPU and under an address-space cap.  Operations run back to back while the
next one still fits in S seconds; at least one always runs.  Two passes of
the reference kernel (bench/reference.py) run in this process before the
first operation and after each one, on the same vCPU, to read the host's
current speed.  Every output is checked against closed forms
(bench/workloads.py).  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics: wall_ref (median wall time of an
operation after import, cold module caches included, divided by the median
reference-kernel time of the same run: the operation's cost in units of the
reference kernel, in which the host's drift in speed largely cancels), setup_s
(median over the operations of the time from spawning the worker's fresh
interpreter to its workload module imported, scaled the same way and given
in seconds on a host where one reference pass takes REF_SPEED_S) and
peak_rss_mb (median worker peak resident memory).  The raw times are in the
record of the run and in the traced run's metrics.  --trace 1 runs an untraced and a
traced operation on the same input, in turn, and reports per-layer calls,
self time and work counts from the traced ones (bench/spans.py), the
reference time, and the tracing overhead against the untraced ones.

Inputs, reports, spans and a record of the run go under .bench_work/ in the
current directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# before numpy loads: the reference kernel runs here, single-threaded too
os.environ.update({name: "1" for name in PINNED_THREADS})

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = ".bench_work"
ADDRESS_SPACE_BYTES = 3 << 30
OP_DEADLINE_S = 150.0      # no operation may still run this long after start
REF_PASSES = 2             # reference kernel passes before and after each operation
REF_SPEED_S = 0.30         # setup_s is in seconds on a host where one pass takes this


class BenchError(Exception):
    """The benchmark cannot measure this checkout; no result is printed."""


def clock():
    # CLOCK_MONOTONIC is system-wide, so a child's reading compares with ours
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def worker_env(src):
    return dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")


def environment():
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": metadata.version("scipy"), "blas": blas,
            "nproc": len(os.sched_getaffinity(0)), "threads": 1}


def warm_up(module, env):
    """Import `module` once in a fresh interpreter: compiles its bytecode and
    fills the file cache, so the first operation's set-up is not the odd one."""
    proc = subprocess.run([sys.executable, "-c", f"import {module}"], env=env,
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise BenchError(f"cannot import {module}: {proc.stderr.strip()[-400:]}")


def run_op(index, spec, workload, workdir, env, deadline, traced):
    """One operation in a fresh worker; returns its record (error None if ok)."""
    base = os.path.join(workdir, f"op{index}")
    op = dict(spec, result=base + ".result.json",
              run_id=f"{os.path.basename(workdir)}/op{index}",
              address_space_bytes=ADDRESS_SPACE_BYTES,
              spans=base + ".spans.json" if traced else None)
    if op["op"] == "cli":
        op["argv"] = op["argv"] + ["--output", base + ".report.json"]
    with open(base + ".spec.json", "w", encoding="utf-8") as fh:
        json.dump(op, fh)
    record = {"index": index, "traced": traced, "error": None}
    with open(base + ".log", "w", encoding="utf-8") as log:
        spawned = clock()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "worker.py"), base + ".spec.json"],
                env=env, stdout=log, stderr=log, timeout=max(1.0, deadline - clock()))
        except subprocess.TimeoutExpired:
            record["error"] = "timeout"
            return record
    if proc.returncode != 0:
        with open(base + ".log", encoding="utf-8") as log:
            tail = log.read().strip().splitlines()[-1:]
        record["error"] = f"worker exit {proc.returncode}: {' '.join(tail)}"
        return record
    with open(op["result"], encoding="utf-8") as fh:
        out = json.load(fh)
    record.update(wall_s=out["wall_s"], cpu_s=out["cpu_s"],
                  setup_s=out["imported_at"] - spawned,
                  peak_rss_mb=out["maxrss_kib"] * 1024 / 1e6)
    if not os.path.realpath(out["msgeom_file"]).startswith(os.path.realpath(env["PYTHONPATH"])):
        record["error"] = f"imported msgeom from {out['msgeom_file']}"
        return record
    out["report"] = base + ".report.json" + spec.get("report_suffix", "")
    errors = workloads.WORKLOADS[workload]["check"](spec, out)
    if "theta_worst_rel_error" in out:
        record["theta_worst_rel_error"] = out["theta_worst_rel_error"]
    if errors:
        record["error"] = "; ".join(errors)
    if traced:
        record["layers"], record["trace"] = spans.layer_metrics(op["spans"])
    return record


def measure(args):
    start = clock()
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "msgeom", "__init__.py")):
        raise BenchError("no msgeom package under ./src; run from the repository root")
    workload = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(root, WORK_ROOT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = worker_env(src)
    spec = workload["inputs"](args.seed, workdir)
    host = environment()
    # one vCPU for this process and every worker (they inherit it), so the
    # reference kernel reads the speed of the vCPU the operations run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    warm_up(workload["setup_module"], env)

    deadline = start + OP_DEADLINE_S
    records = []
    refs = [reference.reference_seconds() for _ in range(REF_PASSES)]
    ops_start = clock()
    while True:
        began = clock()
        for traced in (False, True) if args.trace else (False,):
            records.append(run_op(len(records), spec, args.workload, workdir, env,
                                  deadline, traced))
            refs += [reference.reference_seconds() for _ in range(REF_PASSES)]
        took = clock() - began
        if clock() - ops_start + took > args.seconds or clock() + took > deadline:
            break
    return {"env": host, "ops": records, "ref_s": refs,
            "elapsed_s": clock() - start, "workdir": workdir}


def median_of(records, key):
    values = [r[key] for r in records if key in r]
    return statistics.median(values) if values else None


def end_to_end(run):
    plain = [r for r in run["ops"] if not r["traced"]]
    wall, setup = median_of(plain, "wall_s"), median_of(run["ops"], "setup_s")
    ref = statistics.median(run["ref_s"])
    return {"wall_ref": (wall and wall / ref, "ref"),
            "setup_s": (setup and setup * REF_SPEED_S / ref, "s"),
            "peak_rss_mb": (median_of(plain, "peak_rss_mb"), "MB")}


def per_layer(run):
    traced = [r for r in run["ops"] if r["traced"] and "layers" in r]
    base = median_of([r for r in run["ops"] if not r["traced"]], "wall_s")
    if not traced or base is None:
        return {}
    out = {name: (statistics.median(r["layers"][name] for r in traced),
                  "s" if name.endswith("_s") else "count")
           for name in spans.metric_names()}
    wall = median_of(traced, "wall_s")
    out["trace.ref_s"] = (statistics.median(run["ref_s"]), "s")
    out["trace.base_wall_s"] = (base, "s")
    out["trace.wall_s"] = (wall, "s")
    out["trace.overhead_s"] = (wall - base, "s")
    out["trace.overhead_ratio"] = ((wall - base) / base, "ratio")
    info = [r["trace"] for r in traced]
    out["trace.unwrapped_s"] = (wall - median_of(info, "covered_s"), "s")
    out["trace.spans"] = (median_of(info, "spans"), "count")
    out["trace.span_cost_s"] = (median_of(info, "span_cost_s"), "s")
    out["trace.absent"] = (len(info[0]["absent"]), "count")
    return out


def report(args, run):
    ops = run["ops"]
    failed = [r for r in ops if r["error"]]
    metrics = per_layer(run) if args.trace else end_to_end(run)
    if not metrics or any(value is None for value, _ in metrics.values()):
        raise BenchError("no operation finished; errors: "
                         + "; ".join(r["error"] for r in failed))
    env = run["env"]
    print(f"env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"{env['blas']}, nproc {env['nproc']}, threads pinned to {env['threads']}")
    for r in ops:
        state = "ok" if not r["error"] else f"FAILED ({r['error']})"
        wall = f"{r['wall_s']:.3f} s, set-up {r['setup_s']:.3f} s" if "wall_s" in r else "-"
        print(f"op {r['index']} {'traced' if r['traced'] else 'plain'}: {wall}, {state}")
    print(f"{args.workload}: error_rate {len(failed) / len(ops):.4g} "
          f"({len(failed)} of {len(ops)} operations failed)")
    traced = [r for r in ops if r["traced"] and "layers" in r]
    if traced:
        layers = traced[0]["layers"]
        top = sorted((n for n in layers if n.endswith(".self_s")),
                     key=lambda n: -layers[n])[:5]
        print("largest self time: " + ", ".join(
            f"{n[:-len('.self_s')]} {layers[n]:.3f} s" for n in top))
        if traced[0]["trace"]["absent"]:
            print("absent from the program: " + ", ".join(traced[0]["trace"]["absent"]))
    for name, (value, unit) in metrics.items():
        if not args.trace or name.startswith("trace."):
            print(f"  {name} = {value:.6g} {unit}")
    with open(os.path.join(run["workdir"], "record.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(run, args=vars(args)), fh, indent=1)
    result = {"correct": not failed, "attempted": len(ops), "failed": len(failed),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        report(args, measure(args))
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
