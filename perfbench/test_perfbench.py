"""Tests of the benchmark's own logic: self times, output checks, absent wrappers.

Run from the root of the repository:

    python3 -m pytest perfbench -q
"""

import hashlib
import json
import sys
import types

import pytest

import outputs
import tracer


def test_self_time_subtracts_direct_children_only():
    # root [0, 100] holds a [10, 40] (which holds g [15, 25]) and b [50, 90].
    spans = [
        ["cli.main", 0, 100, -1, "r", None],
        ["harness.a", 10, 40, 0, "r", None],
        ["spectrum.g", 15, 25, 1, "r", None],
        ["rate.b", 50, 90, 0, "r", None],
    ]
    assert tracer.self_times(spans) == [30, 20, 10, 40]

    payload = {"spans": spans, "counts": {}, "calls_distinct": {}, "absent": []}
    figures = tracer.summarize(payload, wall_ns=110)
    assert figures["trace.unattributed_ns"] == 10
    assert figures["harness.a_calls"] == 1
    layers = [figures[f"{layer}.self_s"] for layer in ("cli", "harness", "spectrum", "rate")]
    assert layers == pytest.approx([30e-9, 20e-9, 10e-9, 40e-9])
    assert figures["trace.layer_self_ns"] + figures["trace.unattributed_ns"] == 110


def test_traced_nested_calls_add_up_to_the_root():
    module = types.ModuleType("perfbench_fake_nested")

    def inner():
        return sum(range(1000))

    def outer():
        return module.inner() + module.inner()

    module.inner, module.outer = inner, outer
    sys.modules[module.__name__] = module
    trace = tracer.Tracer(run_id="nested")
    try:
        absent = trace.install([
            ("perfbench_fake_nested.outer", "harness.outer", tracer.SPAN, {}),
            ("perfbench_fake_nested.inner", "spectrum.inner", tracer.SPAN, {"key": True}),
        ])
        assert absent == []
        module.outer()
    finally:
        trace.uninstall()
        del sys.modules[module.__name__]
    assert module.outer is outer and module.inner is inner

    payload = trace.payload()
    root = payload["spans"][0]
    assert [s[0] for s in payload["spans"]] == ["harness.outer", "spectrum.inner", "spectrum.inner"]
    assert [s[3] for s in payload["spans"]] == [-1, 0, 0]
    assert {s[4] for s in payload["spans"]} == {"nested"}
    figures = tracer.summarize(payload, wall_ns=root[2] - root[1])
    assert figures["trace.unattributed_ns"] == 0
    assert figures["trace.layer_self_ns"] == root[2] - root[1]
    assert figures["spectrum.inner_calls"] == 2
    assert figures["spectrum.inner_repeat_ratio"] == 0.5


def test_a_missing_wrapped_attribute_is_reported_as_absent():
    module = types.ModuleType("perfbench_fake_present")
    module.kept = lambda: 7
    sys.modules[module.__name__] = module
    trace = tracer.Tracer(run_id="absent")
    try:
        absent = trace.install([
            ("perfbench_fake_present.renamed_away", "rate.gone", tracer.SPAN, {}),
            ("perfbench_no_such_module.fn", "rate.nowhere", tracer.SPAN, {}),
            ("perfbench_fake_present.kept", "rate.kept", tracer.SPAN, {}),
        ])
        assert module.kept() == 7
    finally:
        trace.uninstall()
        del sys.modules[module.__name__]
    assert absent == ["perfbench_fake_present.renamed_away", "perfbench_no_such_module.fn"]
    figures = tracer.summarize(trace.payload(), wall_ns=10**9)
    assert figures["trace.absent_wrappers"] == 2
    assert figures["rate.kept_calls"] == 1


def _write_se_csv(path, per_stream):
    """Write a CSV in the preset format: config line, header, rows, hash column."""
    canonical = json.dumps({"seed": 42, "trials": 10}, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha1(canonical.encode()).hexdigest()[:12]
    lines = [f"# config {canonical}", "snr_db,scheme,user,stream,se_bits,config_hash"]
    for snr, values in per_stream.items():
        for stream, value in enumerate(values, start=1):
            lines.append(f"{snr},ZF,1,{stream},{value:.12g},{digest}")
        lines.append(f"{snr},ZF,all,sum,{sum(values):.12g},{digest}")
        lines.append(f"{snr},ZF-THEORY,1,1,{values[0] * 1.1:.12g},{digest}")
    path.write_text("\n".join(lines) + "\n")


def test_one_perturbed_se_value_fails_the_check(tmp_path):
    values = {-10: [0.5, 0.25, 0.125], 0: [2.5, 1.75, 1.5]}
    _write_se_csv(tmp_path / "case.csv", values)
    reference = {"case": outputs.fingerprint(tmp_path / "case.csv")}
    assert outputs.check_directory(tmp_path, reference)[1] == []

    values[0][1] += 1e-6
    _write_se_csv(tmp_path / "case.csv", values)
    problems = outputs.check_directory(tmp_path, reference)[1]
    assert problems == ["case: ZF@0 spectral efficiencies differ from the reference"]


def test_closed_form_rows_are_only_counted(tmp_path):
    values = {-10: [0.5, 0.25, 0.125], 0: [2.5, 1.75, 1.5]}
    _write_se_csv(tmp_path / "case.csv", values)
    reference = {"case": outputs.fingerprint(tmp_path / "case.csv")}
    text = (tmp_path / "case.csv").read_text().replace(",ZF-THEORY,1,1,0.55,", ",ZF-THEORY,1,1,0.7,")
    (tmp_path / "case.csv").write_text(text)
    assert outputs.check_directory(tmp_path, reference)[1] == []


def test_a_sum_row_that_disagrees_with_its_streams_is_rejected(tmp_path):
    _write_se_csv(tmp_path / "case.csv", {0: [2.5, 1.75, 1.5]})
    reference = {"case": outputs.fingerprint(tmp_path / "case.csv")}
    text = (tmp_path / "case.csv").read_text().replace(",1,2,1.75,", ",1,2,1.76,")
    (tmp_path / "case.csv").write_text(text)
    problems = outputs.check_directory(tmp_path, reference)[1]
    assert len(problems) == 1 and "sum row ZF@0" in problems[0]


def test_a_wrong_config_hash_is_rejected(tmp_path):
    _write_se_csv(tmp_path / "case.csv", {0: [2.5, 1.75, 1.5]})
    reference = {"case": outputs.fingerprint(tmp_path / "case.csv")}
    text = (tmp_path / "case.csv").read_text().replace('"seed":42', '"seed":43')
    (tmp_path / "case.csv").write_text(text)
    problems = outputs.check_directory(tmp_path, reference)[1]
    assert problems == ["case.csv: a config_hash does not match the config line"]
