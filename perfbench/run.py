"""Run one vrlite benchmark workload and print its metrics.

    python3 perfbench/run.py --workload methods --seed 0 --seconds 30 --trace 0

Run from anywhere; the package is imported from the ``src/`` directory
next to this one, never from an installed copy. The workload runs whole
rounds until the next round would end after ``--seconds``. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of the traced run with
``--trace 1``. The line before it, starting with ``info``, carries the
per-round figures and any failed checks. See README.md for the method.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_RUNS = 7

# Runs in a fresh interpreter: import vrlite and build the workload's
# datasets. NumPy is imported first and timed on its own; that part is
# the drift reference of the whole.
SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
sys.path.insert(0, {src!r})
import vrlite.bench as bench
for name in {datasets!r}:
    bench.load_dataset(bench.ExperimentConfig(algo="vrlite", dataset=name, seed={seed}))
print(t1 - t0, time.perf_counter() - t0)
"""
NUMPY_IMPORT_S = 0.06  # NumPy's import at this machine's full speed


def measure_setup(datasets, seed: int) -> float:
    """Median drift-corrected set-up time over SETUP_RUNS fresh processes.

    Import work, most of it loading NumPy's shared libraries, does not
    follow the reference samples of the rounds. It follows NumPy's own
    import in the same process, so each set-up time is scaled by
    NUMPY_IMPORT_S over that process's NumPy import time."""
    code = SETUP_CHILD.format(src=SRC, datasets=tuple(datasets), seed=seed)
    values = []
    for _ in range(SETUP_RUNS):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                             capture_output=True, text=True, timeout=60)
        numpy_s, total_s = map(float, out.stdout.split()[-2:])
        values.append(total_s * NUMPY_IMPORT_S / numpy_s)
    return statistics.median(values)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("methods", "sweep-reg", "dist-socket"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "vrlite", "__init__.py")):
        print(f"run.py: no vrlite package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads
    from timing import DriftClock
    from tracing import Tracer

    outdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, outdir)
        setup_s = None if args.trace else measure_setup(wl.datasets, args.seed)
        rounds = []
        with DriftClock(wl.reference) as clock:
            tracer = Tracer(clock).install() if args.trace else None
            try:
                start = time.perf_counter()
                while True:
                    t0, first = time.perf_counter(), len(clock.samples)
                    r = workloads.Round(clock)
                    wl.round(r)
                    rounds.append((r, r.time * clock.scale(first)))
                    now = time.perf_counter()
                    if now - start + (now - t0) > args.seconds:
                        break
            finally:
                if tracer:
                    tracer.uninstall()
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    walls = [w for _, w in rounds]
    wall_s = statistics.median(walls)
    evals = rounds[0][0].evals
    if args.trace:
        metrics = tracer.metrics(len(rounds), clock.scale())
    else:
        rates = [r.evals / w for r, w in rounds]
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "grad_evals_per_s": {"value": statistics.median(rates), "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    problems = [p for r, _ in rounds for p in r.problems]
    for p in problems:
        print(f"run.py: {args.workload}: {p}", file=sys.stderr)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "rounds": len(rounds), "wall_s": wall_s, "wall_s_rounds": walls,
            "raw_s_rounds": [r.time for r, _ in rounds],
            "grad_evals_per_round": evals, "problems": problems}
    print("info " + json.dumps(info))
    print(json.dumps({
        "correct": all(r.wrong == 0 for r, _ in rounds),
        "attempted": sum(r.attempted for r, _ in rounds),
        "failed": sum(r.failed for r, _ in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
