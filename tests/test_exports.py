"""Every exported name resolves, so a deleted function cannot leave a stale export,
and the presets run on the declared NumPy dependency alone."""

import dataclasses
import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import holosim

MODULES = ["holosim", *(f"holosim.{info.name}" for info in pkgutil.iter_modules(holosim.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [attr for attr in exported if not hasattr(module, attr)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)


@pytest.mark.parametrize("name", ["geometry", "spectrum", "channel", "precoding", "rate"])
def test_every_model_export_is_a_package_export(name):
    # A name removed from only one of the two lists fails here.
    exported = importlib.import_module(f"holosim.{name}").__all__
    assert [attr for attr in exported if attr not in holosim.__all__] == []


def test_the_public_surface_is_pinned():
    # The package stops at the Gram: no precoding matrix, draw or SINR of a
    # given V is exported.
    assert sorted(holosim.__all__) == sorted([
        "ArrayGeometry", "lattice_ellipse", "VarianceMap", "variance_map",
        "correlation_eigenvalues", "SingularChannelError", "SEResult", "SINR_CAP",
        "simulated_se", "mrt_theoretical_bound", "zf_theoretical", "ScenarioConfig",
        "parse_config", "run_preset", "__version__",
    ])


def test_an_estimate_holds_only_what_the_engine_measured():
    # The trial count, the grid and the scheme are the caller's own inputs;
    # an estimate does not echo them back.
    fields = [field.name for field in dataclasses.fields(holosim.SEResult)]
    assert fields == ["per_stream", "rejections", "per_stream_stderr"]


def test_presets_run_without_scipy(tmp_path):
    # pyproject.toml declares NumPy only; a fresh interpreter runs both
    # Monte Carlo presets, so modules the test session loaded do not count.
    # The engine draws on the calling thread: no thread is started while
    # both presets run, and no executor module is imported.  No preset reads
    # spacing text, so neither the runner nor the command loads the exact
    # fraction reader (`fractions`, and with it `decimal`).
    package_root = os.path.dirname(os.path.dirname(holosim.__file__))
    env = dict(os.environ, PYTHONPATH=package_root)
    probe = (
        "import sys, threading\n"
        "started = []\n"
        "start = threading.Thread.start\n"
        "threading.Thread.start = lambda self: (started.append(self), start(self))[1]\n"
        "from holosim.cli import main\n"
        "from holosim.harness import run_preset\n"
        "for name in ('fig4', 'fig8'):\n"
        f"    assert run_preset(name, scale=0.25, trials=2, out={str(tmp_path)!r}) == 0\n"
        f"assert main(['preset', 'fig8', '--trials', '2', '--out', {str(tmp_path)!r}]) == 0\n"
        "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))\n"
        "print(len(started), 'concurrent.futures' in sys.modules)\n"
        "print('fractions' in sys.modules, 'decimal' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.split() == ["False", "0", "False", "False", "False"]
