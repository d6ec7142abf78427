"""Preset benchmark: fig3, fig4 and fig8 end to end, with a traced breakdown.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig4 --seed 42 --seconds 60 --trace 0

``BENCHMARK.json`` lists fig4 and fig8; fig3 can still be run by hand.

Every preset run happens in a fresh interpreter (``child.py``) that imports
``holosim`` from the checkout's ``src`` and calls
``holosim.cli.main(["preset", ...])``, one run after another from this single
process.  Each run writes into its own temporary directory under
``perfbench/_work``; its CSVs are checked against ``reference.json`` and the
directory is deleted.

With ``--trace 0`` the end-to-end metrics of ``BENCHMARK.json`` are
reported as medians over the runs that fit in ``--seconds``.  With
``--trace 1`` untraced and traced runs alternate; the per-layer metrics come
from the traced run with the median wall time, and ``trace.overhead_s`` is
its wall time minus the untraced median.  The last line of standard output
is the JSON result; the exit status is non-zero if any run failed or any
output check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import outputs
import tracer

HERE = Path(__file__).resolve().parent

# Trial counts per workload.  fig3 has no Monte Carlo, so its count only
# appears in the CSV config line.
WORKLOADS = {"fig3": 1, "fig4": 10, "fig8": 200}

# The preset seed is drawn from the seeds the reference was recorded for;
# the default benchmark seed 42 maps to preset seed 42.
REFERENCE_SEEDS = range(32, 48)

# OpenBLAS and OpenMP threads of every child.  One thread keeps the load on a
# single core; on a 2-core x86_64 VM one fig4 run took 4.7 s with one thread
# and 5.3 s with two.
BLAS_THREADS = 1

SETUP_PROBES = 3
# No child may run past this many seconds from the start of the benchmark,
# so a hung or very slow program still ends the benchmark within 180 s.
HARD_LIMIT_S = 160


class ChildError(RuntimeError):
    """A child interpreter failed or reported nothing."""


def preset_seed(seed: int) -> int:
    return REFERENCE_SEEDS[seed % len(REFERENCE_SEEDS)]


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(BLAS_THREADS)
    return env


def run_child(root: Path, env: dict, mode: str, workload: str, seed: int, rep_dir: Path,
              timeout: float = HARD_LIMIT_S) -> dict:
    """Start one child interpreter, wait for it, and return its measurements."""
    out_dir = rep_dir / "out"
    out_dir.mkdir(parents=True)
    result_path = rep_dir / "result.json"
    argv = [sys.executable, str(HERE / "child.py"), mode, workload,
            str(WORKLOADS[workload]), str(seed), str(out_dir), str(result_path),
            str(rep_dir / "spans.json")]
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(argv, env=env, cwd=root, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{mode} run timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0 or not result_path.is_file():
        tail = proc.stderr.strip().splitlines()[-3:]
        raise ChildError(f"{mode} run exited with {proc.returncode}: {' | '.join(tail)}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    source = Path(result["holosim_file"]).resolve()
    if root / "src" not in source.parents:
        raise ChildError(f"holosim was imported from {source}, not from the checkout")
    if result.get("status", 0) != 0:
        raise ChildError(f"cli.main returned {result['status']}: {proc.stderr.strip()[-300:]}")
    result["setup_s"] = result["setup_done"] - started
    result["rss_mb"] = result["maxrss_kb"] / 1024.0
    return result


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment(root: Path, versions: dict) -> dict:
    return {
        "git_sha": git_sha(root),
        "source_sha256": source_digest(root),
        **versions,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
    }


def load_reference(workload: str, seed: int) -> dict:
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    entry = reference[workload]
    if entry["trials"] != WORKLOADS[workload]:
        raise ValueError(f"reference for {workload} was recorded with {entry['trials']} trials")
    if "seeds" in entry:
        return entry["seeds"][str(seed)]
    # Recorded once for a workload without Monte Carlo: only the seed in the
    # config line depends on the seed.
    return {stem: {**fp, "config": {**fp["config"], "seed": seed}}
            for stem, fp in entry["files"].items()}


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


@dataclass
class Runs:
    """Everything measured in one benchmark invocation."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)
    plain: list[dict] = field(default_factory=list)
    traced: list[dict] = field(default_factory=list)
    csv_sha256: dict[str, str] | None = None
    fingerprints: dict[str, dict] = field(default_factory=dict)
    versions: dict = field(default_factory=dict)

    def fail(self, *problems: str) -> None:
        self.failed += 1
        self.problems.extend(problems)


def measure(root: Path, workload: str, seed: int, seconds: float, trace: bool,
            reference: dict, work: Path) -> Runs:
    """Run set-up probes, then preset runs until ``seconds`` are used up."""
    runs = Runs()
    env = child_env(root)
    start = time.monotonic()
    longest = began = 0.0
    for number in itertools.count():
        elapsed = time.monotonic() - start
        reps = number - SETUP_PROBES
        if reps > 0:
            longest = max(longest, elapsed - began)
        began = elapsed
        if reps >= (2 if trace else 1) and elapsed + longest > seconds:
            break
        if elapsed >= HARD_LIMIT_S:
            break
        if reps < 0:
            mode = "setup"
        elif trace and reps % 2 == 1:
            mode = "trace"
        else:
            mode = "plain"
        rep_dir = work / f"rep{number}"
        runs.attempted += 1
        try:
            result = run_child(root, env, mode, workload, seed, rep_dir,
                               timeout=HARD_LIMIT_S - elapsed)
        except ChildError as exc:
            runs.fail(str(exc))
            continue
        runs.setups.append(result["setup_s"])
        runs.versions = result["versions"]
        if mode == "setup":
            continue

        out_dir = rep_dir / "out"
        prints, problems = outputs.check_directory(out_dir, reference, runs.fingerprints)
        shas = {stem: fp["sha256"] for stem, fp in prints.items()}
        if runs.csv_sha256 is None:
            runs.csv_sha256 = shas
        elif shas != runs.csv_sha256:
            problems.append("CSV bytes differ between runs of the same configuration")
        result["bytes_written"] = sum(path.stat().st_size for path in out_dir.iterdir())
        result["rows_written"] = sum(fp["rows"] for fp in prints.values())
        shutil.rmtree(out_dir)
        if problems:
            runs.fail(*problems)
        elif mode == "plain":
            runs.plain.append(result)
        else:
            spans_path = rep_dir / "spans.json"
            payload = json.loads(spans_path.read_text(encoding="utf-8"))
            result["trace"] = tracer.summarize(payload, result["wall_ns"])
            result["absent"] = payload["absent"]
            result["spans_path"] = spans_path
            runs.traced.append(result)
    return runs


def end_to_end(runs: Runs) -> tuple[dict[str, float], dict[str, list[float]]]:
    """Medians of the untraced runs, and the samples they come from."""
    samples = {
        "wall_s": [r["wall_ns"] / 1e9 for r in runs.plain],
        "setup_s": runs.setups,
        "peak_rss_mb": [r["rss_mb"] for r in runs.plain],
    }
    return {name: statistics.median(values) for name, values in samples.items()}, samples


def per_layer(runs: Runs) -> tuple[dict[str, float], dict]:
    """Figures of the traced run with the median wall time, and that run."""
    traced = sorted(runs.traced, key=lambda r: r["wall_ns"])
    chosen = traced[(len(traced) - 1) // 2]
    figures = dict(chosen["trace"])
    if figures["trace.layer_self_ns"] + figures["trace.unattributed_ns"] != chosen["wall_ns"]:
        runs.fail("layer self times and unattributed time do not add up to the traced wall time")
    untraced = statistics.median(r["wall_ns"] for r in runs.plain)
    figures["trace.overhead_s"] = (chosen["wall_ns"] - untraced) / 1e9
    figures["harness.bytes_written"] = chosen["bytes_written"]
    figures["harness.rows_written"] = chosen["rows_written"]
    return figures, chosen


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn termination into an exception, so a running child is killed and
    # waited for by subprocess.run before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    root = Path.cwd().resolve()
    if not (root / "src" / "holosim" / "__init__.py").is_file():
        print(f"perfbench: no holosim sources under {root / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    seed = preset_seed(args.seed)
    reference = load_reference(args.workload, seed)
    name = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = HERE / "_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    report: dict = {"workload": args.workload, "seed": args.seed, "preset_seed": seed,
                    "trials": WORKLOADS[args.workload], "seconds": args.seconds}
    try:
        runs = measure(root, args.workload, seed, args.seconds, bool(args.trace),
                       reference, work)
        metrics: dict[str, float] = {}
        if not runs.plain or (args.trace and not runs.traced):
            runs.fail("no run completed")
        elif args.trace:
            figures, chosen = per_layer(runs)
            metrics = {m["name"]: figures[m["name"]] for m in spec["per_layer"]}
            report["absent"] = chosen["absent"]
            shutil.copyfile(chosen["spans_path"], HERE / "_work" / f"spans-{name}.json")
        else:
            medians, report["samples"] = end_to_end(runs)
            metrics = {m["name"]: medians[m["name"]] for m in spec["end_to_end"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    report.update(
        environment=environment(root, runs.versions),
        runs={"setup_probes": SETUP_PROBES, "plain": len(runs.plain),
              "traced": len(runs.traced)},
        attempted=runs.attempted, failed=runs.failed, problems=runs.problems,
        csv_sha256=runs.csv_sha256, metrics=metrics,
    )
    (HERE / "_work" / f"last-{name}.json").write_text(json.dumps(report, indent=1),
                                                      encoding="utf-8")

    print(f"perfbench {args.workload}: seed {args.seed} (preset seed {seed}), "
          f"{report['trials']} trials, {len(runs.plain)} plain + {len(runs.traced)} traced "
          f"runs, {SETUP_PROBES} set-up probes")
    print("environment " + json.dumps(report["environment"], sort_keys=True))
    for problem in runs.problems:
        print(f"FAILED {problem}")
    for metric, value in metrics.items():
        line = f"{metric:40s} {value:16.10g} {units[metric]}"
        if "samples" in report:
            q1, q3 = quartiles(report["samples"][metric])
            line += f"   (n={len(report['samples'][metric])}, q1 {q1:.6g}, q3 {q3:.6g})"
        print(line)
    print(f"{'error_ratio':40s} {runs.failed / runs.attempted:16.10g} ratio"
          f"   ({runs.failed}/{runs.attempted})")
    if report.get("absent"):
        print("absent wrappers: " + ", ".join(report["absent"]))
    print(json.dumps({
        "correct": runs.failed == 0,
        "attempted": runs.attempted,
        "failed": runs.failed,
        "metrics": {metric: {"value": value, "unit": units[metric]}
                    for metric, value in metrics.items()},
    }))
    return 0 if runs.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
