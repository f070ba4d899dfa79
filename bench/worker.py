"""Run one benchmark operation in a fresh, single-threaded process.

Usage: python3 bench/worker.py SPEC.json

SPEC names the operation ("cli" with an argv, or "energy" with points), the
file to write the result to, an address-space cap, and, for a traced run, the
span file.  The thread pools are pinned by the caller's environment.  The
result holds the clock reading when msgeom was imported, the wall time of the
operation after import, the peak resident memory of this process, and what
the checks need.  A crash leaves no result file; the caller counts that
operation as failed.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    cap = spec["address_space_bytes"]
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    import msgeom
    if spec["op"] == "cli":
        from msgeom import cli
    else:
        from msgeom import harmonic
    # the caller took the same system-wide clock just before it spawned us
    imported_at = time.clock_gettime(time.CLOCK_MONOTONIC)

    recorder = None
    if spec.get("spans"):
        from spans import Recorder

        recorder = Recorder(spec["run_id"])
        recorder.install()

    out = {"msgeom_file": msgeom.__file__, "imported_at": imported_at}
    cpu_start = time.process_time()
    if spec["op"] == "cli":
        start = time.perf_counter()
        out["exit"] = cli.main(spec["argv"])
        wall = time.perf_counter() - start
    else:
        points = spec["points"]
        start = time.perf_counter()
        field = harmonic.radial_projection(3)
        results = [harmonic.energy_point(field, x, 1.0) for x in points]
        wall = time.perf_counter() - start

    if recorder is not None:
        recorder.active = False
    out["wall_s"] = wall
    out["cpu_s"] = time.process_time() - cpu_start
    out["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if spec["op"] == "energy":
        # values at every scale energy_point used, read back outside the timing
        out["theta_1"] = [float(ep.theta) for ep in results]
        out["drops"] = [[[int(a), float(w)] for a, w in ep.drops] for ep in results]
        out["thetas"] = [[float(harmonic.theta(field, x, r)) for r in spec["scales"]]
                         for x in points]
    if recorder is not None:
        recorder.dump(spec["spans"])
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1])
