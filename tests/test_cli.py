import csv
import importlib.util
import os
import shutil
import site
import subprocess
import sys
from pathlib import Path

import pytest

from vrlite.bench import CSV_HEADER, DEFAULT_GRID
from vrlite.cli import _parse_grid, main
from vrlite.data import format_libsvm

REPO = Path(__file__).resolve().parents[1]


def _run(tmp_path, *args):
    out = tmp_path / "metrics.csv"
    code = main(list(args) + ["--out", str(out)])
    return code, out


def test_successful_run_exits_zero(tmp_path, capsys):
    code, out = _run(tmp_path, "--algo", "vrlite", "--dataset", "toy-class",
                     "--eta", "0.05", "--epochs", "3")
    assert code == 0
    assert out.exists()
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5  # epoch 0 plus three epochs
    assert "wrote" in capsys.readouterr().out


def test_distributed_run_exits_zero(tmp_path):
    code, out = _run(tmp_path, "--algo", "vrlite", "--dataset", "toy-class",
                     "--eta", "0.05", "--epochs", "3", "--mode", "async",
                     "--workers", "2")
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    assert {r["mode"] for r in rows} == {"async"}
    assert {r["workers"] for r in rows} == {"2"}


def test_divergent_run_exits_two(tmp_path, capsys):
    code, out = _run(tmp_path, "--algo", "sgd", "--dataset", "toy-reg",
                     "--eta", "10.0", "--epochs", "5")
    assert code == 2
    assert "diverged" in capsys.readouterr().err
    assert out.exists()  # the finite prefix is still written


def test_usage_errors_exit_one(tmp_path, capsys):
    cases = [
        ["--algo", "adam", "--dataset", "toy-class", "--eta", "0.1"],
        ["--dataset", "toy-class", "--eta", "0.1"],          # missing --algo
        ["--algo", "sgd", "--dataset", "toy-class"],         # no eta/sweep
        ["--algo", "sgd", "--dataset", "toy-class",
         "--eta", "0.1", "--sweep"],                         # both
        ["--algo", "sgd", "--dataset", "toy-class",
         "--eta", "not-a-number"],
    ]
    for argv in cases:
        assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 1
        capsys.readouterr()


def test_config_errors_exit_one(tmp_path, capsys):
    code, _ = _run(tmp_path, "--algo", "sgd", "--dataset", "toy-class",
                   "--eta", "0.1", "--mode", "sync", "--workers", "2")
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("latency", ["nan", "inf"])
def test_non_finite_latency_exits_one(tmp_path, capsys, latency):
    code, out = _run(tmp_path, "--algo", "vrlite", "--dataset", "toy-class",
                     "--eta", "0.0032", "--mode", "sync", "--workers", "2",
                     "--epochs", "2", "--latency-ms", latency)
    assert code == 1
    assert "latency_ms must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("target", ["nan", "-1", "0", "inf"])
def test_bad_target_rel_exits_one(tmp_path, capsys, target):
    code, out = _run(tmp_path, "--algo", "vrlite", "--dataset", "toy-reg",
                     "--sweep", "0.0004", "--epochs", "3", "--target-rel", target)
    assert code == 1
    assert "target_rel must be finite and > 0" in capsys.readouterr().err
    assert not out.exists()


def test_out_path_that_is_a_directory_exits_one_and_leaves_no_temp_file(
        tmp_path, capsys):
    out = tmp_path / "taken"
    out.mkdir()
    (out / "keep.txt").write_text("kept")
    code = main(["--algo", "vrlite", "--dataset", "toy-class", "--eta", "0.0032",
                 "--epochs", "2", "--out", str(out)])
    assert code == 1
    assert "Is a directory" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert [p.name for p in out.iterdir()] == ["keep.txt"]
    assert (out / "keep.txt").read_text() == "kept"


def test_missing_libsvm_file_exits_one(tmp_path, capsys):
    code, _ = _run(tmp_path, "--algo", "vrlite",
                   "--dataset", f"libsvm:{tmp_path}/nope.txt",
                   "--eta", "0.05", "--epochs", "2")
    assert code == 1
    capsys.readouterr()


def test_libsvm_dataset_via_cli(tmp_path, tiny_class):
    data = tmp_path / "tiny.libsvm"
    data.write_text(format_libsvm(tiny_class[0]))
    code, out = _run(tmp_path, "--algo", "vrlite",
                     "--dataset", f"libsvm:{data}", "--eta", "0.05",
                     "--epochs", "4")
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 5


def test_sweep_selects_and_reruns_winner(tmp_path, capsys):
    code, out = _run(tmp_path, "--algo", "vrlite", "--dataset", "toy-class",
                     "--sweep", "0.0128,0.0256", "--epochs", "20",
                     "--target-rel", "1e-3")
    assert code == 0
    text = capsys.readouterr().out
    assert "best eta:" in text
    assert text.count("eta=") == 2  # one outcome line per grid point
    rows = list(csv.DictReader(out.open()))
    etas = {r["eta"] for r in rows}
    assert len(etas) == 1  # the CSV holds only the winner's full run
    assert float(etas.pop()) in (0.0128, 0.0256)
    assert len(rows) == 21  # winner re-run to the full budget


def test_sweep_with_no_qualifier_exits_two(tmp_path, capsys):
    code, _ = _run(tmp_path, "--algo", "sgd", "--dataset", "toy-reg",
                   "--sweep", "1e-9", "--epochs", "2",
                   "--target-rel", "1e-10")
    assert code == 2
    assert "no stepsize" in capsys.readouterr().err


def test_bad_sweep_grid_exits_one(tmp_path, capsys):
    code, _ = _run(tmp_path, "--algo", "sgd", "--dataset", "toy-class",
                   "--sweep", "0.1,spam")
    assert code == 1
    capsys.readouterr()


def test_parse_grid():
    assert _parse_grid("default") == DEFAULT_GRID
    assert _parse_grid("0.1,0.2") == (0.1, 0.2)
    assert _parse_grid("1e-3") == (1e-3,)
    with pytest.raises(ValueError):
        _parse_grid("a,b")
    with pytest.raises(ValueError):
        _parse_grid(",")


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "vrlite-bench" in capsys.readouterr().out


def _console_scripts(pyproject):
    """The ``[project.scripts]`` table of *pyproject* as ``{name: target}``.

    Read line by line rather than with ``tomllib``, which Python 3.10
    lacks; the table holds only ``name = "module:attr"`` lines.
    """
    scripts, in_table = {}, False
    for line in pyproject.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            in_table = line == "[project.scripts]"
        elif in_table and line:
            name, _, target = line.partition("=")
            scripts[name.strip().strip("\"'")] = target.strip().strip("\"'")
    return scripts


# What the console-script wrapper generated by pip runs.
_SCRIPT_WRAPPER = ("import sys\n"
                   "from vrlite.cli import main\n"
                   "sys.argv[0] = 'vrlite-bench'\n"
                   "sys.exit(main())")


def test_module_and_console_entry_points():
    run = subprocess.run([sys.executable, "-m", "vrlite.cli", "--help"],
                         capture_output=True, text=True)
    assert run.returncode == 0
    # The declared console script, checked from the source tree: no
    # install needs to have put it on PATH.
    target = _console_scripts(REPO / "pyproject.toml").get("vrlite-bench")
    assert target == "vrlite.cli:main"
    module, _, attr = target.partition(":")
    assert callable(getattr(importlib.import_module(module), attr))

    def script(*args):
        return subprocess.run([sys.executable, "-c", _SCRIPT_WRAPPER, *args],
                              capture_output=True, text=True)

    run = script("--help")
    assert run.returncode == 0
    assert "vrlite-bench" in run.stdout
    # 1 rather than argparse's 2: main()'s return value is the exit status.
    run = script("--algo", "adam", "--dataset", "toy-class", "--eta", "0.1")
    assert run.returncode == 1


def _importable(name):
    try:
        return importlib.util.find_spec(name) is not None
    except ImportError:  # a parent package is missing
        return False


# setuptools ships the bdist_wheel command from 70.1 on; older versions
# take it from the wheel package. A pip install builds a wheel first.
@pytest.mark.skipif(not (_importable("setuptools.command.bdist_wheel")
                         or _importable("wheel")),
                    reason="bdist_wheel unavailable: the wheel package is not "
                           "installed and setuptools is older than 70.1")
def test_offline_install_provides_console_script(tmp_path):
    source = tmp_path / "source"
    shutil.copytree(REPO / "src", source / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copy(REPO / "pyproject.toml", source)
    venv = tmp_path / "venv"
    subprocess.run([sys.executable, "-m", "venv", "--system-site-packages",
                    str(venv)], check=True)
    python = venv / "bin" / "python"
    # --system-site-packages exposes the base interpreter's packages; when
    # the tests run in a venv, its packages (the build tool among them)
    # are exposed too, through a .pth file.
    purelib = subprocess.run(
        [python, "-c", "import sysconfig; print(sysconfig.get_path('purelib'))"],
        capture_output=True, text=True, check=True).stdout.strip()
    Path(purelib, "outer-site.pth").write_text(
        "\n".join(site.getsitepackages()) + "\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    install = subprocess.run(
        [python, "-m", "pip", "install", "--no-index", "--no-deps",
         "--no-build-isolation", str(source)],
        capture_output=True, text=True, env=env)
    assert install.returncode == 0, install.stdout + install.stderr
    run = subprocess.run([venv / "bin" / "vrlite-bench", "--help"],
                         capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert "vrlite-bench" in run.stdout
