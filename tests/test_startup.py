"""One CLI launch: what it imports, and how the launched process exits.

Each case starts a fresh interpreter. The import cases run it with ``-X
importtime``, which writes one line per imported module to stderr, and read
the module names off it. The OpenSSL cases call the entry point ``run``
from a ``-c`` script and read, at exit and from inside the process, what it
holds: ``-X importtime`` would also list a blocked import attempt. The exit
cases run ``python -m dualfilter.cli``, whose entry point freezes the
garbage collector after ``main``, and check the exit-code contract, the
reports and ``atexit`` on that path.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import dualfilter
from dualfilter.cli import main
from conftest import make_model, random_model, write_model

SRC = Path(dualfilter.__file__).resolve().parent.parent


def launch(args, cwd):
    """A fresh ``python <args>`` run in ``cwd`` with the checkout's source on the path."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True)


def imported_modules(args, cwd):
    """Module names a fresh ``python -X importtime <args>`` imports; the run must exit 0."""
    proc = launch(["-X", "importtime", *args], cwd)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}


@pytest.fixture
def model_file(tmp_path, rng):
    return write_model(tmp_path / "model.json", random_model(rng, 2, 1, 3))


@pytest.mark.parametrize(
    "argv, absent",
    [
        (["oracle", "--path", "0.1"], ["numpy.random", "_hashlib", "dualfilter.dual", "dualfilter.fixedpoint",
                                       "dualfilter.predictor", "dualfilter.attention"]),
        (["represent"], ["numpy.random", "_hashlib", "dualfilter.dual", "dualfilter.fixedpoint",
                         "dualfilter.attention"]),
        (["fixedpoint", "--mode", "adapted", "--path", "0.1"], ["numpy.random", "_hashlib", "dualfilter.attention"]),
        (["attention-demo", "--path", "0.1"], ["dualfilter.dual", "dualfilter.fixedpoint", "dualfilter.predictor"]),
    ],
    ids=["oracle-path", "represent", "fixedpoint-adapted-path", "attention-demo-path"],
)
def test_command_imports_only_what_it_runs(model_file, tmp_path, argv, absent):
    loaded = imported_modules(["-m", "dualfilter.cli", *argv, "--model", str(model_file), "--out", "out"], tmp_path)
    assert "dualfilter.oracle" in loaded
    assert [name for name in absent if name in loaded] == []


def test_duality_loads_fixedpoint_which_it_does_not_run(model_file, tmp_path):
    """``duality`` imports ``fixedpoint`` so that it is loaded before a traced run patches the library.

    ``bench/tracing.py``'s ``Tracer.install`` wraps the bindings of the
    package modules already loaded. Without this import it loads
    ``fixedpoint`` itself on reaching the ``fixedpoint.*`` targets, after
    ``oracle.forward_filter``, ``dual.solve_optimal`` and
    ``dual.estimator_values`` are wrapped; ``fixedpoint`` then binds the
    wrappers, which ``undo`` never restores, and a later traced workload
    (``bench/run.py --trace 1``, tree-dense) records no calls on those
    layers and exits 3. The import can go once ``install`` loads every
    package module before it patches.
    """
    argv = ["duality", "--draws", "1", "--model", str(model_file), "--out", "out"]
    assert "dualfilter.fixedpoint" in imported_modules(["-m", "dualfilter.cli", *argv], tmp_path)


# At exit: is numpy.random loaded, is _hashlib absent, is libcrypto mapped, and hmac's
# HMAC-SHA256 of the published test vector, computed after the other three are read.
OPENSSL_PROBE = """\
import atexit, json, os, sys

def probe():
    maps = open("/proc/self/maps").read() if os.path.exists("/proc/self/maps") else ""
    state = ["numpy.random" in sys.modules, sys.modules.get("_hashlib") is None, "libcrypto" in maps]
    import hmac
    state.append(hmac.new(b"key", b"The quick brown fox jumps over the lazy dog", "sha256").hexdigest())
    print(json.dumps(state))

atexit.register(probe)
from dualfilter.cli import run
sys.argv = ["dualfilter", *sys.argv[1:]]
run()
"""

HMAC_SHA256_VECTOR = "f7bc83f430538424b13298e6aa6fb143ef4d59a14946175997479dbc2d1a3cd8"


@pytest.mark.parametrize(
    "argv",
    [["duality", "--draws", "1"], ["attention-demo", "--path", "0.1"], ["oracle"]],
    ids=["duality", "attention-demo-path", "oracle-sampled"],
)
def test_drawing_launch_loads_numpy_random_but_not_openssl(model_file, tmp_path, argv):
    proc = launch(["-c", OPENSSL_PROBE, *argv, "--model", str(model_file), "--out", "out"], tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1]) == [True, True, False, HMAC_SHA256_VECTOR]


def test_bare_package_import_loads_no_submodule(tmp_path):
    loaded = imported_modules(["-c", "import dualfilter"], tmp_path)
    assert "dualfilter" in loaded
    assert sorted(name for name in loaded if name.startswith("dualfilter.")) == []


def test_exported_names_resolve_to_the_current_binding(monkeypatch):
    from dualfilter import oracle

    def patched(*args, **kwargs):
        raise AssertionError("not called")

    monkeypatch.setattr(oracle, "forward_filter", patched)
    assert dualfilter.forward_filter is patched
    assert "forward_filter" not in vars(dualfilter)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        dualfilter.no_such_name  # noqa: B018


def test_every_exported_name_is_listed_by_dir():
    assert set(dualfilter.__all__) <= set(dir(dualfilter))


def reports(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize(
    "argv, stdout",
    [
        (["oracle", "--path", "0.1"], "wrote filter trajectory for path 0.1 to out\n"),
        (["attention-demo", "--seed", "3", "--path", "0.1.1"], None),
        (["duality", "--draws", "1"], None),
        (["oracle"], None),
        (["represent", "--z-query", "1"], None),
        (["fixedpoint", "--mode", "adapted", "--path", "1.0.1"], None),
    ],
    ids=["oracle-path", "attention-demo-seed3-path", "duality", "oracle-sampled", "represent", "fixedpoint-adapted"],
)
def test_launched_run_exits_0_with_the_reports_of_an_in_process_run(model_file, tmp_path, monkeypatch, argv, stdout):
    """A launch, where ``run`` blocks OpenSSL, draws and writes the same as ``main`` in-process, which keeps it."""
    args = [*argv, "--model", str(model_file), "--out", "out"]
    for sub in ("launched", "in-process"):
        (tmp_path / sub).mkdir()
    proc = launch(["-m", "dualfilter.cli", *args], tmp_path / "launched")
    monkeypatch.chdir(tmp_path / "in-process")
    res = CliRunner().invoke(main, args)
    assert (proc.returncode, res.exit_code) == (0, 0), proc.stderr
    assert proc.stdout == res.stdout == (stdout or res.stdout)
    assert proc.stderr == ""
    assert reports(tmp_path / "launched" / "out") == reports(tmp_path / "in-process" / "out")


@pytest.mark.parametrize(
    "model, args, code",
    [
        (None, ["--path", "1_0"], 2),
        # a click parse error, which click itself would print as a usage block
        (None, ["--seed", "abc"], 2),
        # state 0 surely emits token 1 and never leaves, so z_1 = 0 has probability 0
        (make_model([1.0, 0.0], np.eye(2), [[0.0, 1.0], [1.0, 0.0]], 2), ["--path", "0"], 3),
    ],
    ids=["bad-path-token", "str-seed", "impossible-observation"],
)
def test_launched_run_exits_with_one_error_line(model_file, tmp_path, model, args, code):
    if model is not None:
        write_model(model_file, model)
    proc = launch(["-m", "dualfilter.cli", "oracle", "--model", str(model_file), *args, "--out", "out"], tmp_path)
    assert proc.returncode == code, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    assert proc.stdout == ""


def test_launched_run_exits_4_on_an_invariant_violation(tmp_path):
    model = make_model([0.5, 0.5], [[0.9, 0.1], [0.1, 0.9]], [[0.2, 0.8], [0.7, 0.3]], 3)
    write_model(tmp_path / "model.json", model)
    # the tolerances are fixed, so the launched script tightens the one it checks before entering run
    script = (
        "import sys\n"
        "from dualfilter import cli\n"
        "cli.TOLERANCES['representation'] = 1e-300\n"
        "sys.argv = ['dualfilter', 'represent', '--model', 'model.json', '--out', 'out']\n"
        "cli.run()\n"
    )
    proc = launch(["-c", script], tmp_path)
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.startswith("error: reconstruction error") and proc.stderr.count("\n") == 1, proc.stderr
    # the error is rounding, 2.2e-16 on this model; a zero error could exceed no tolerance
    assert json.loads((tmp_path / "out" / "representation.json").read_text())["reconstruction_error"] > 0.0


def test_launched_run_still_runs_atexit_handlers(model_file, tmp_path):
    script = (
        "import atexit, runpy, sys\n"
        "atexit.register(print, 'atexit ran')\n"
        f"sys.argv = ['dualfilter', 'oracle', '--model', {str(model_file)!r}, '--path', '0', '--out', 'out']\n"
        "runpy.run_module('dualfilter.cli', run_name='__main__')\n"
    )
    proc = launch(["-c", script], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["wrote filter trajectory for path 0 to out", "atexit ran"]
