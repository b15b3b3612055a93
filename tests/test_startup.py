"""What one CLI launch imports: each command loads only the library modules it runs.

Each case starts a fresh interpreter with ``-X importtime``, which writes one
line per imported module to stderr, and reads the module names off it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dualfilter
from conftest import random_model

SRC = Path(dualfilter.__file__).resolve().parent.parent


def imported_modules(args, cwd):
    """Module names a fresh ``python -X importtime <args>`` imports; the run must exit 0."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], cwd=cwd, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}


@pytest.fixture
def model_file(tmp_path, rng):
    path = tmp_path / "model.json"
    path.write_text(random_model(rng, 2, 1, 3).to_json())
    return path


@pytest.mark.parametrize(
    "argv, absent",
    [
        (["oracle", "--path", "0.1"], ["numpy.random", "dualfilter.dual", "dualfilter.fixedpoint",
                                        "dualfilter.predictor", "dualfilter.attention"]),
        (["represent"], ["numpy.random", "dualfilter.dual", "dualfilter.fixedpoint", "dualfilter.attention"]),
    ],
    ids=["oracle-path", "represent"],
)
def test_command_imports_only_what_it_runs(model_file, tmp_path, argv, absent):
    loaded = imported_modules(["-m", "dualfilter.cli", *argv, "--model", str(model_file), "--out", "out"], tmp_path)
    assert "dualfilter.oracle" in loaded
    assert [name for name in absent if name in loaded] == []


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
