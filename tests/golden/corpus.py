"""The same-output corpus: `vrlite-bench` cases whose CSV, stdout, stderr
and exit code are pinned in `corpus.json` next to this file.

    PYTHONPATH=src python tests/golden/corpus.py --write

regenerates `corpus.json` from the vrlite package on PYTHONPATH; without
`--write` the outcomes are printed as JSON instead. Every regeneration
gets a CHANGES.md line that says why the pinned output moved.

All cases run through `vrlite.cli.main` in one child process, each
writing its own CSV in a scratch working directory. CSV bytes depend on the OpenBLAS core type, so
where the kernel runs four lanes (AVX2) the child forces the Haswell
core, which every such CPU can run; the forced core is part of the
environment fingerprint, with the NumPy version and the machine. Socket
runs are left out: their `wall_ms` is measured time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
from pathlib import Path

CORPUS = Path(__file__).with_name("corpus.json")

# The outcomes that do not depend on rounding: checked everywhere. The
# hashes are checked only where the fingerprint matches.
DISCRETE = ("exit", "rows", "best_eta", "target_epoch", "diverged", "sweep")


def _cases() -> list[list[str]]:
    toys = (("toy-class", "0.0032"), ("toy-reg", "0.0004"))
    algos = ("sgd", "svrg", "saga", "vrlite")
    cases = [["--algo", a, "--dataset", toy, "--eta", eta, "--epochs", e]
             for a in algos for toy, eta in toys for e in ("6", "30")]
    cases += [["--algo", a, "--dataset", toy, "--eta", "100", "--epochs", "6"]
              for a in algos for toy, _ in toys]
    cases += [["--algo", a, "--dataset", "toy-reg", "--sweep"] for a in algos]
    cases += [["--algo", "vrlite", "--dataset", "toy-class", "--sweep",
               "--seed", "2"]]
    cases += [["--algo", a, "--dataset", "toy-reg", "--sweep",
               "0.0001,0.0008,0.0032,50", "--seed", s]
              for a, s in (("svrg", "1"), ("vrlite", "3"))]
    sim = [("sync", "1", "0"), ("async", "1", "0"), ("sync", "3", "5"),
           ("async", "3", "5"), ("sync", "4", "2.5"), ("async", "4", "2.5"),
           ("sync", "3", "0.1"), ("async", "3", "0.1")]
    cases += [["--algo", "vrlite", "--dataset", toy, "--eta", eta,
               "--epochs", "12", "--mode", m, "--workers", p,
               "--latency-ms", lat] for m, p, lat in sim for toy, eta in toys]
    cases += [["--algo", "vrlite", "--dataset", "toy-reg", "--eta", "100",
               "--epochs", "6", "--mode", "sync", "--workers", "3"]]
    cases += [["--algo", "vrlite", "--dataset", toy, "--sweep", "--epochs",
               "20", "--mode", m, "--workers", p, "--latency-ms", lat]
              for toy, m, p, lat in (("toy-reg", "async", "2", "0"),
                                     ("toy-class", "async", "4", "5"),
                                     ("toy-reg", "sync", "2", "0.1"))]
    cases += [["--algo", "sgd", "--dataset", "toy-reg", "--eta", "0.001",
               "--mode", "sync", "--workers", "2"],
              ["--algo", "vrlite", "--dataset", "toy-reg", "--eta", "0.001",
               "--mode", "async", "--workers", "2", "--latency-ms", "nan"]]
    return cases


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_case(args: list[str], out: str) -> dict:
    from vrlite.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(args + ["--out", out])
    text = stdout.getvalue()
    csv = Path(out).read_bytes() if os.path.exists(out) else None
    best = re.search(r"^best eta: (\S+)$", text, re.M)
    target = re.search(r"target reached at epoch (\d+)", text)
    return {
        "exit": code,
        "csv": None if csv is None else _sha(csv),
        "stdout": _sha(text.encode()),
        "stderr": _sha(stderr.getvalue().encode()),
        "rows": None if csv is None else csv.count(b"\n") - 1,
        "best_eta": best and best.group(1),
        "target_epoch": target and int(target.group(1)),
        "diverged": "run diverged" in stderr.getvalue(),
        "sweep": re.findall(r"^eta=\S+  (\S+)$", text, re.M),
    }


def _run_all() -> dict:
    """Every case in this process, in one scratch working directory."""
    import numpy as np

    cases = {}
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for k, args in enumerate(_cases()):
            cases[" ".join(args)] = _run_case(args, f"case{k}.csv")
    return {"fingerprint": {"numpy": np.__version__,
                            "machine": platform.machine(),
                            "openblas_core": os.environ.get("OPENBLAS_CORETYPE")},
            "cases": cases}


def forced_core() -> str | None:
    """The OpenBLAS core the child runs with: Haswell where the kernel
    loaded with four lanes (an AVX2 CPU), else the detected one."""
    from vrlite import _kernel

    return ("Haswell" if _kernel.lib is not None and _kernel.lib.lane_width() == 4
            else None)


def collect() -> dict:
    """Run every case in one child process against the vrlite package this
    process imports, and return the outcomes."""
    import vrlite

    env = dict(os.environ, COLUMNS="80",
               PYTHONPATH=str(Path(vrlite.__file__).resolve().parents[1]))
    env.pop("OPENBLAS_CORETYPE", None)
    core = forced_core()
    if core is not None:
        env["OPENBLAS_CORETYPE"] = core
    proc = subprocess.run([sys.executable, __file__], env=env, check=True,
                          capture_output=True, text=True)
    return json.loads(proc.stdout)


def main(argv: list[str]) -> int:
    if argv == ["--write"]:
        CORPUS.write_text(json.dumps(collect(), indent=1, sort_keys=True) + "\n")
        return 0
    if argv:
        print(__doc__, file=sys.stderr)
        return 1
    json.dump(_run_all(), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
