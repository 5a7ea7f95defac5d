"""Per-layer tracing, done from the benchmark's side.

``Tracer.install`` replaces the public functions listed in ``TARGETS``
with timing wrappers, in every ``vrlite`` module that holds a reference
to them, and ``uninstall`` puts the originals back; the program's files
are not touched. Durations are read from the ``DriftClock`` and scaled to
full-speed seconds like the end-to-end figures.

Run as a command, it runs every workload once traced and once untraced
(``run.py`` in fresh processes) and writes the per-layer metrics and the
tracing overhead as JSON:

    python3 perfbench/tracing.py --seed 0 --seconds 10 --out perfbench-trace.json
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict

# layer -> (module, public functions)
TARGETS = {
    "optim": ("vrlite.optim", ("vrlite_init", "vrlite_epoch", "sgd_epoch",
                               "svrg_epoch", "saga_epoch", "saga_init")),
    "model": ("vrlite.model", ("objective", "full_gradient")),
    "data": ("vrlite.data", ("gen_gaussian_classification", "gen_linear_regression")),
    "bench": ("vrlite.bench", ("load_dataset", "run_experiment", "stepsize_sweep",
                               "write_csv")),
    "runtime": ("vrlite.distributed.runtime", (
        "worker_sync_epoch", "worker_async_epoch", "central_sync_aggregate",
        "central_async_apply", "adopt_global_state", "shard_dataset")),
    "protocol": ("vrlite.distributed.protocol", ("encode_message", "decode_message")),
    "engine": ("vrlite.distributed.engine", ("run_distributed",)),
}
EPOCH_FUNCS = {"vrlite_init", "vrlite_epoch", "sgd_epoch", "svrg_epoch", "saga_epoch",
               "worker_sync_epoch", "worker_async_epoch"}


def _steps(name, bound) -> int:
    """Per-sample steps one epoch call takes."""
    a = bound.arguments
    if name == "svrg_epoch":
        inner = a.get("inner_steps")
        return 2 * len(a["ds"]) if inner is None else inner
    if name.startswith("worker_"):
        return len(a["shard"].dataset)
    return len(a["ds"])


class _Stat:
    __slots__ = ("calls", "time", "steps")

    def __init__(self):
        self.calls = 0
        self.time = 0.0
        self.steps = 0


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.stats = defaultdict(_Stat)
        self.lock = threading.Lock()
        self.local = threading.local()
        self.patched = []
        self.run_experiment_self = 0.0
        self.sweep_epochs = 0
        self.frames = 0
        self.frame_bytes = 0
        self.round_trips = []
        self.worker_cpu = 0.0
        self.socket_wall = 0.0

    # -- installation ------------------------------------------------------

    def install(self) -> "Tracer":
        for layer, (modname, names) in TARGETS.items():
            home = sys.modules[modname]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(layer, name, original)
                for mod in [m for k, m in sys.modules.items()
                            if k == "vrlite" or k.startswith("vrlite.")]:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self.patched.append((mod, attr, original))
        return self

    def uninstall(self):
        for mod, attr, original in reversed(self.patched):
            setattr(mod, attr, original)
        self.patched.clear()

    # -- recording -----------------------------------------------------------

    def _thread(self):
        t = self.local
        if not hasattr(t, "om_depth"):
            t.om_depth = 0          # open optim/model spans
            t.om_time = 0.0         # time in outermost optim/model spans
            t.in_sweep = False
            t.reported_at = None    # when this worker thread's last report was built
        return t

    def _wrap(self, layer, name, fn):
        key = f"{layer}.{name}"
        sig = inspect.signature(fn)
        om = layer in ("optim", "model")
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t = self._thread()
            worker = threading.current_thread() is not threading.main_thread()
            steps = _steps(name, sig.bind(*args, **kwargs)) if name in EPOCH_FUNCS else 0
            socket_run = (name == "run_distributed"
                          and sig.bind(*args, **kwargs).arguments["cfg"].transport == "socket")
            if name == "stepsize_sweep":
                t.in_sweep = True
            if om:
                t.om_depth += 1
            om0, cpu0, t0 = t.om_time, time.thread_time(), clock.now()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock.now() - t0
                if om:
                    t.om_depth -= 1
                    if t.om_depth == 0:
                        t.om_time += dt
                if name == "stepsize_sweep":
                    t.in_sweep = False
                with self.lock:
                    st = self.stats[key]
                    st.calls += 1
                    st.time += dt
                    st.steps += steps
                    if name == "run_experiment":
                        self.run_experiment_self += dt - (t.om_time - om0)
                    elif name in EPOCH_FUNCS and t.in_sweep:
                        self.sweep_epochs += 1
                    elif socket_run:
                        self.socket_wall += dt
                    if worker and name.startswith("worker_"):
                        self.worker_cpu += time.thread_time() - cpu0
            if name == "decode_message":
                with self.lock:
                    self.frames += 1
                    self.frame_bytes += len(args[0])
            elif worker and name.startswith("worker_"):
                t.reported_at = clock.now()
            elif worker and name == "adopt_global_state" and t.reported_at is not None:
                with self.lock:
                    self.round_trips.append(clock.now() - t.reported_at)
                t.reported_at = None
            return out

        return traced

    # -- results -------------------------------------------------------------

    def metrics(self, rounds: int, scale: float) -> dict:
        """Per-layer metrics; counts are per round, times are in
        full-speed units (``scale`` from the DriftClock)."""
        s = self.stats
        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        def per_call(key, factor):
            st = s[key]
            return st.time * scale * factor / st.calls if st.calls else 0.0

        def per_step(key):
            st = s[key]
            return st.time * scale * 1e9 / st.steps if st.steps else 0.0

        for f in ("vrlite_init", "vrlite_epoch", "sgd_epoch", "svrg_epoch", "saga_epoch"):
            put(f"optim.{f}.ns_per_step", per_step(f"optim.{f}"), "ns")
            put(f"optim.{f}.calls", s[f"optim.{f}"].calls / rounds, "count")
        put("optim.saga_init.ms", per_call("optim.saga_init", 1e3), "ms")
        put("model.objective.us_per_call", per_call("model.objective", 1e6), "us")
        put("model.full_gradient.us_per_call", per_call("model.full_gradient", 1e6), "us")
        put("model.full_gradient.calls", s["model.full_gradient"].calls / rounds, "count")
        for f in ("gen_gaussian_classification", "gen_linear_regression"):
            put(f"data.{f}.ms", per_call(f"data.{f}", 1e3), "ms")
        put("bench.load_dataset.calls", s["bench.load_dataset"].calls / rounds, "count")
        put("bench.load_dataset.ms", per_call("bench.load_dataset", 1e3), "ms")
        put("bench.run_experiment.calls", s["bench.run_experiment"].calls / rounds, "count")
        put("bench.run_experiment.self_s", self.run_experiment_self * scale / rounds, "s")
        put("bench.stepsize_sweep.epochs", self.sweep_epochs / rounds, "count")
        put("bench.write_csv.ms", per_call("bench.write_csv", 1e3), "ms")
        for f in ("worker_sync_epoch", "worker_async_epoch"):
            put(f"runtime.{f}.ns_per_step", per_step(f"runtime.{f}"), "ns")
        for f in ("central_sync_aggregate", "central_async_apply", "adopt_global_state"):
            put(f"runtime.{f}.us_per_call", per_call(f"runtime.{f}", 1e6), "us")
        put("runtime.shard_dataset.ms", per_call("runtime.shard_dataset", 1e3), "ms")
        for f in ("encode_message", "decode_message"):
            put(f"protocol.{f}.us_per_frame", per_call(f"protocol.{f}", 1e6), "us")
        put("protocol.frames", self.frames / rounds, "count")
        put("protocol.bytes", self.frame_bytes / rounds, "B")
        put("engine.run_distributed.s", per_call("engine.run_distributed", 1.0), "s")
        rt = statistics.median(self.round_trips) * scale * 1e6 if self.round_trips else 0.0
        put("engine.round_trip_us", rt, "us")
        put("engine.worker_cpu_s", self.worker_cpu * scale / rounds, "s")
        put("engine.parallelism",
            self.worker_cpu / self.socket_wall if self.socket_wall else 0.0, "ratio")
        return out


# -- the trace command --------------------------------------------------------

def _run(workload, seed, seconds, trace):
    here = os.path.dirname(os.path.abspath(__file__))
    out = subprocess.run(
        [sys.executable, os.path.join(here, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        check=True, capture_output=True, text=True, timeout=600)
    lines = out.stdout.splitlines()
    info = json.loads(lines[-2].removeprefix("info "))
    return info, json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Trace every workload once and "
                                            "write the per-layer metrics as JSON.")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--out", default="perfbench-trace.json")
    args = p.parse_args(argv)
    import numpy
    report = {"seed": args.seed, "seconds": args.seconds,
              "machine": {"cores": os.cpu_count(), "python": platform.python_version(),
                          "numpy": numpy.__version__, "machine": platform.machine()},
              "workloads": {}}
    for wl in ("methods", "sweep-reg", "dist-socket"):
        plain, plain_res = _run(wl, args.seed, args.seconds, 0)
        traced, traced_res = _run(wl, args.seed, args.seconds, 1)
        report["workloads"][wl] = {
            "correct": plain_res["correct"] and traced_res["correct"],
            "untraced_wall_s": plain["wall_s"],
            "traced_wall_s": traced["wall_s"],
            "overhead": traced["wall_s"] / plain["wall_s"] - 1.0,
            "per_layer": {k: v["value"] for k, v in traced_res["metrics"].items()},
        }
        print(f"{wl}: wall_s {plain['wall_s']:.3f} untraced, {traced['wall_s']:.3f} "
              f"traced ({report['workloads'][wl]['overhead']:+.1%})", flush=True)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
