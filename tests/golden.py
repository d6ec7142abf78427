"""Golden CLI artifacts: what ``test_golden.py`` compares every run against.

``ARTIFACTS`` lists the commands: the six presets at a quarter of their size
and 20 trials, and one small run of every other subcommand, ``se-sim
--config`` with a JSON file included.  ``produce`` runs them in a fresh
interpreter with every BLAS library pinned to one thread, since the Gram
products round differently across thread counts.  ``golden.json`` holds each
file's SHA-256 and the NumPy and BLAS builds they were recorded with; where
the build differs, the fingerprints of ``perfbench/outputs.py`` (and, for the
variance map, its column sums) are compared at that module's ``RTOL``.

After a change that is meant to move bytes, re-record from the checkout root
and name the files that changed:

    python tests/golden.py
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden.json")
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_spec = importlib.util.spec_from_file_location("perfbench_outputs", ROOT / "perfbench" / "outputs.py")
outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(outputs)

SE_FLAGS = ["--ns", "144", "--nr", "36", "--snr=-10:30:10", "--trials", "20"]
CONFIG = {"ns": 400, "nr": 16, "delta_s": "1/6", "users": 3, "snr": [0, 10, 20],
          "trials": 20, "seed": 7, "scheme": ["mrt", "zf", "mmse"]}
# File names and "." (a preset's directory) are resolved in the output directory.
ARTIFACTS = [
    *(["preset", name, "--scale", "0.25", "--trials", "20", "--out", "."]
      for name in ("fig3", "fig4", "fig5", "fig6", "fig7", "fig8")),
    ["se-sim", *SE_FLAGS, "--users", "2", "--scheme", "mrt,zf,mmse,ns-zf", "--theory",
     "--out", "se-sim-theory.csv"],
    ["se-theory", *SE_FLAGS, "--users", "2", "--scheme", "mrt,zf", "--out", "se-theory.csv"],
    ["ns-compare", *SE_FLAGS, "--users", "1", "--iters", "2,3", "--out", "ns-compare.csv"],
    ["eigvals", "--ns", "144", "--nr", "36", "--out", "eigvals.csv"],
    ["variance-map", "--ns", "144", "--out", "variance-map.csv"],
    ["se-sim", "--config", "se-sim-config.json", "--out", "se-sim-config.csv"],
]


def _write(out: Path) -> None:
    """Run every command in this interpreter, writing into ``out``."""
    from holosim.cli import main

    (out / "se-sim-config.json").write_text(json.dumps(CONFIG), encoding="utf-8")
    for argv in ARTIFACTS:
        argv = [str(out / arg) if arg == "." or arg.endswith((".csv", ".json")) else arg
                for arg in argv]
        if main(argv) != 0:
            raise SystemExit(f"holosim {' '.join(argv)} failed")


def produce(out: Path) -> list[Path]:
    """Write every artifact into ``out`` from a fresh one-thread interpreter."""
    env = dict(os.environ, **dict.fromkeys(THREAD_VARIABLES, "1"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, __file__, "--write", str(out)], env=env, check=True)
    return sorted(out.glob("*.csv"))


def build() -> dict:
    """The NumPy and BLAS builds that decide the bytes at one thread."""
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def _column_sums(path: Path) -> list[list[float]]:
    """Each numeric column reduced as ``outputs`` reduces a group of SE values."""
    rows = path.read_text(encoding="utf-8").splitlines()[2:]
    table = np.array([row.split(",")[:-1] for row in rows], dtype=float)
    return [outputs._sums(column) for column in table.T]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def record(path: Path) -> dict:
    """Everything the golden test compares about one artifact."""
    if path.name == "variance-map.csv":
        head = path.read_text(encoding="utf-8").split("\n", 1)[0]
        return {"sha256": sha256(path), "config": head, "columns": _column_sums(path)}
    return outputs.fingerprint(path)


def differences(name: str, actual: dict, expected: dict) -> list[str]:
    """What differs beyond round-off, for a build other than the recorded one."""
    if "columns" not in expected:
        return outputs.compare(name, actual, expected)
    if actual["config"] != expected["config"]:
        return [f"{name}: config differs from the golden"]
    got, want = np.array(actual["columns"]), np.array(expected["columns"])
    if got.shape != want.shape or not np.all(np.abs(got - want) <= outputs.RTOL * np.abs(want)):
        return [f"{name}: column sums {got.tolist()} differ from the golden {want.tolist()}"]
    return []


def main() -> int:
    if sys.argv[1:2] == ["--write"]:
        _write(Path(sys.argv[2]))
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        files = {path.name: record(path) for path in produce(Path(tmp))}
    golden = {"build": build(), "files": files}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(files)} artifacts to {GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
