"""Record ``reference.json``: the expected CSV fingerprints of every workload.

Run once from the root of a checkout of the commit whose outputs are taken
as correct:

    python3 perfbench/record_reference.py

fig3 has no Monte Carlo and is recorded once; fig4 and fig8 are recorded for
every seed in ``run.REFERENCE_SEEDS``.  The children run exactly as in the
benchmark (same interpreter settings and BLAS thread pin).
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import outputs
import run


def record(root: Path, workload: str, seed: int, versions: dict) -> dict:
    rep_dir = run.HERE / "_work" / f"record-{workload}-{seed}"
    shutil.rmtree(rep_dir, ignore_errors=True)
    try:
        result = run.run_child(root, run.child_env(root), "plain", workload, seed, rep_dir)
        files = {path.stem: outputs.fingerprint(path)
                 for path in sorted((rep_dir / "out").glob("*.csv"))}
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)
    versions.update(result["versions"])
    print(f"{workload} seed {seed}: {len(files)} CSVs, {result['wall_ns'] / 1e9:.2f} s",
          file=sys.stderr)
    return files


def main() -> int:
    root = Path.cwd().resolve()
    versions: dict = {}
    reference = {
        "fig3": {"trials": run.WORKLOADS["fig3"],
                 "files": record(root, "fig3", run.REFERENCE_SEEDS[0], versions)},
    }
    for workload in ("fig4", "fig8"):
        reference[workload] = {
            "trials": run.WORKLOADS[workload],
            "seeds": {str(seed): record(root, workload, seed, versions)
                      for seed in run.REFERENCE_SEEDS},
        }
    reference["environment"] = run.environment(root, versions)
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
