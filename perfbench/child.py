"""One preset run in a fresh interpreter; started by ``run.py``.

Usage: child.py MODE WORKLOAD TRIALS SEED OUT_DIR RESULT_JSON SPANS_JSON

MODE is ``setup`` (import and expand the workload, then stop), ``plain``
(also run the preset) or ``trace`` (run it with the span tracer installed,
writing the spans to SPANS_JSON).  The set-up end is reported on the
system-wide monotonic clock, so the parent can measure from the moment it
started this interpreter.
"""

import sys
import time


def main(argv: list[str]) -> None:
    from holosim import cli, harness

    mode, workload, trials, seed, out_dir, result_path, spans_path = argv
    harness.preset_jobs(workload, trials=int(trials), seed=int(seed))
    setup_done = time.clock_gettime(time.CLOCK_MONOTONIC)

    import json
    import platform
    import resource

    import numpy
    import scipy

    result = {"setup_done": setup_done, "holosim_file": cli.__file__}
    if mode != "setup":
        tracer = None
        if mode == "trace":
            import tracer as tracing

            tracer = tracing.Tracer(run_id=f"{workload}-{seed}-{out_dir}")
            tracer.install()
        start = time.perf_counter_ns()
        status = cli.main(["preset", workload, "--trials", trials, "--seed", seed,
                           "--out", out_dir])
        wall_ns = time.perf_counter_ns() - start
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(spans_path)
        result.update(status=status, wall_ns=wall_ns)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    result["versions"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1:])
