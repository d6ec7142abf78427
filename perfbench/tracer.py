"""Span tracer installed from outside the program, and its self-time analysis.

Wrappers are installed by module-qualified name, the way a caller looks the
function up: ``holosim.rate.zf`` wraps the ``zf`` that ``rate`` calls, and
``holosim.spectrum.quad`` the SciPy ``quad`` that ``spectrum`` calls.  A
target whose module or attribute no longer exists is reported as absent and
skipped, so the trace keeps working across refactors of the program.

Spans are kept in memory as ``[name, start_ns, end_ns, parent, run_id,
error]`` records and written out once, at the end of the run.  The analysis
half of this module is pure: it turns a span list into per-name and
per-layer self times, where a span's self time is its duration minus the
time covered by its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter_ns

SPAN = "span"
COUNT = "count"

# (target looked up by the caller, span or counter name, kind, options).
# ``key`` records the call arguments so repeated work can be counted;
# ``observe`` names a result hook in ``OBSERVERS``.
TARGETS = [
    ("holosim.cli.main", "cli.main", SPAN, {}),
    ("holosim.harness.run_preset", "harness.run_preset", SPAN, {}),
    ("holosim.harness.preset_jobs", "harness.preset_jobs", SPAN, {}),
    ("holosim.harness.run_eigvals", "harness.run_eigvals", SPAN, {}),
    ("holosim.harness.run_se_sim", "harness.run_se_sim", SPAN, {}),
    ("holosim.harness.run_ns_compare", "harness.run_ns_compare", SPAN, {}),
    ("holosim.harness.check_feasibility", "harness.check_feasibility", SPAN, {}),
    ("holosim.harness.lattice_ellipse", "geometry.lattice_ellipse", SPAN, {"key": True}),
    ("holosim.spectrum.lattice_ellipse", "geometry.lattice_ellipse", SPAN, {"key": True}),
    ("holosim.harness.variance_map", "spectrum.variance_map", SPAN, {"key": True}),
    ("holosim.harness.separable_sigma", "spectrum.separable_sigma", SPAN, {}),
    ("holosim.spectrum.hemisphere_total", "spectrum.hemisphere_total", SPAN, {}),
    ("holosim.spectrum.cell_variance", "spectrum.cell_variance_calls", COUNT, {}),
    ("holosim.spectrum.quad", "spectrum.quad", SPAN, {}),
    ("holosim.harness.correlation_eigenvalues", "channel.correlation_eigenvalues", SPAN, {}),
    ("holosim.rate.draw_wavenumber_channel", "channel.draw", SPAN, {}),
    ("holosim.rate.mrt", "precoding.mrt", SPAN, {}),
    ("holosim.rate.zf", "precoding.zf", SPAN, {}),
    ("holosim.rate.mmse", "precoding.mmse", SPAN, {}),
    ("holosim.rate.ns_zf", "precoding.ns_zf", SPAN, {}),
    ("holosim.precoding.neumann_inverse", "precoding.neumann_inverse", SPAN, {}),
    ("numpy.linalg.solve", "linalg.solve", SPAN, {}),
    ("numpy.linalg.cond", "linalg.cond", SPAN, {}),
    ("numpy.linalg.eigh", "linalg.eigh", SPAN, {}),
    ("numpy.linalg.svd", "linalg.svd", SPAN, {}),
    ("numpy.linalg.norm", "linalg.norm", SPAN, {}),
    ("holosim.harness.simulated_se", "rate.simulated_se", SPAN, {"observe": "se_result"}),
    ("holosim.harness.mrt_theoretical_bound", "rate.theory", SPAN, {}),
    ("holosim.harness.zf_theoretical", "rate.theory", SPAN, {}),
]


def _observe_se_result(result, counts: Counter) -> None:
    counts["rate.trials"] += getattr(result, "trials", 0)
    counts["rate.rejections"] += getattr(result, "rejections", 0)


OBSERVERS = {"se_result": _observe_se_result}
OBSERVED = ("rate.trials", "rate.rejections")


def _call_key(args, kwargs):
    key = (args, tuple(sorted(kwargs.items())))
    try:
        hash(key)
    except TypeError:
        return repr(key)
    return key


class Tracer:
    """Records spans and counters for one run of the program."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.call_keys: dict[str, list] = defaultdict(list)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def span(self, fn, name: str, *, key: bool = False, observe=None):
        """Wrap ``fn`` so each call records a span named ``name``."""
        spans, stack, run_id = self.spans, self._stack, self.run_id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if key:
                self.call_keys[name].append(_call_key(args, kwargs))
            record = [name, 0, 0, stack[-1] if stack else -1, run_id, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[5] = type(exc).__name__
                raise
            finally:
                record[2] = perf_counter_ns()
                stack.pop()
            if observe is not None:
                observe(result, self.counts)
            return result

        return wrapper

    def counter(self, fn, name: str):
        """Wrap ``fn`` so each call only increments the counter ``name``."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, targets=TARGETS) -> list[str]:
        """Replace each target by its wrapper; return the absent targets."""
        for target, name, kind, options in targets:
            module_name, _, attr = target.rpartition(".")
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(target)
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(target)
                continue
            if kind == COUNT:
                wrapper = self.counter(original, name)
            else:
                wrapper = self.span(
                    original,
                    name,
                    key=options.get("key", False),
                    observe=OBSERVERS.get(options.get("observe")),
                )
            setattr(module, attr, wrapper)
            self._installed.append((module, attr, original))
        return list(self.absent)

    def uninstall(self) -> None:
        """Put every wrapped attribute back."""
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def payload(self) -> dict:
        """Everything recorded, in the form ``summarize`` reads."""
        repeats = {
            name: [len(keys), len(set(keys))] for name, keys in self.call_keys.items()
        }
        return {
            "run_id": self.run_id,
            "spans": self.spans,
            "counts": dict(self.counts),
            "calls_distinct": repeats,
            "absent": self.absent,
        }

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.payload(), handle, separators=(",", ":"))


def self_times(spans: list) -> list[int]:
    """Self time of every span: its duration minus its direct children's."""
    own = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _zero_figures() -> dict[str, float]:
    """Every figure the targets can produce, as it reads before any call."""
    out: dict[str, float] = dict.fromkeys(OBSERVED, 0)
    for _, name, kind, options in TARGETS:
        if kind == COUNT:
            out[name] = 0
            continue
        out[f"{name}_s"] = 0.0
        out[f"{name}_calls"] = 0
        out[f"{name.split('.', 1)[0]}.self_s"] = 0.0
        if options.get("key"):
            out[f"{name}_repeat_ratio"] = 0.0
    return out


def summarize(payload: dict, wall_ns: int) -> dict[str, float]:
    """Aggregate one run's spans into per-name and per-layer figures.

    For every span name ``layer.fn`` this gives ``layer.fn_s`` (summed self
    time) and ``layer.fn_calls``; for every layer ``layer.self_s``.  The part
    of ``wall_ns`` that no root span covers is ``trace.unattributed_s``, so
    the layer self times plus it add up to ``wall_ns`` exactly.  Names of
    ``TARGETS`` that were never called read 0.
    """
    spans = payload["spans"]
    own = self_times(spans)
    by_name: dict[str, int] = defaultdict(int)
    calls: Counter = Counter()
    layer_ns: dict[str, int] = defaultdict(int)
    errors: Counter = Counter()
    covered = 0
    for span, self_ns in zip(spans, own):
        name, start, end, parent, _, error = span
        by_name[name] += self_ns
        calls[name] += 1
        layer_ns[name.split(".", 1)[0]] += self_ns
        if error is not None:
            errors[name.split(".", 1)[0], error] += 1
        if parent < 0:
            covered += end - start
    out = _zero_figures()
    for name, ns in by_name.items():
        out[f"{name}_s"] = ns / 1e9
        out[f"{name}_calls"] = calls[name]
    for layer, ns in layer_ns.items():
        out[f"{layer}.self_s"] = ns / 1e9
    for name, (total, distinct) in payload["calls_distinct"].items():
        out[f"{name}_repeat_ratio"] = (total - distinct) / total if total else 0.0
    for name, value in payload["counts"].items():
        out[name] = value
    out["precoding.singular_rejections"] = errors["precoding", "SingularChannelError"]
    draws = out["rate.trials"] + out["rate.rejections"]
    out["rate.accept_ratio"] = out["rate.trials"] / draws if draws else 0.0
    out["trace.unattributed_ns"] = wall_ns - covered
    out["trace.unattributed_s"] = (wall_ns - covered) / 1e9
    out["trace.layer_self_ns"] = sum(layer_ns.values())
    out["trace.wall_s"] = wall_ns / 1e9
    out["trace.absent_wrappers"] = len(payload["absent"])
    return out
