"""Every CLI artifact against the bytes recorded in ``golden.json``.

On the NumPy and BLAS builds the goldens were recorded with, each file's
SHA-256 must match.  On any other build the fingerprints must agree to
round-off; that path is never skipped, and it is itself checked here on
the recorded build.
"""

import json

import pytest

import golden

EXPECTED = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    return {path.name: path for path in golden.produce(tmp_path_factory.mktemp("golden"))}


def test_the_commands_write_exactly_the_golden_files(artifacts):
    assert sorted(artifacts) == sorted(EXPECTED["files"])


@pytest.mark.parametrize("name", sorted(EXPECTED["files"]))
def test_artifact_matches_its_golden(artifacts, name):
    expected = EXPECTED["files"][name]
    if EXPECTED["build"] == golden.build():
        assert golden.sha256(artifacts[name]) == expected["sha256"]
    else:
        assert golden.differences(name, golden.record(artifacts[name]), expected) == []


def test_the_round_off_comparison_accepts_the_goldens_and_catches_changes(
        artifacts, tmp_path):
    for name, path in artifacts.items():
        assert golden.differences(name, golden.record(path), EXPECTED["files"][name]) == []
    # fig8: two streams of one group swap values; the variance map: one raw
    # value moves by 1e-8 relative.
    for name, change in (("fig8.csv", _swap_first_two_values), ("variance-map.csv", _move_raw)):
        lines = artifacts[name].read_text(encoding="utf-8").split("\n")
        change(lines)
        changed = tmp_path / name
        changed.write_text("\n".join(lines), encoding="utf-8")
        assert golden.differences(name, golden.record(changed), EXPECTED["files"][name]) != []


def _swap_first_two_values(lines):
    first, second = lines[2].split(","), lines[3].split(",")
    assert first[4] != second[4] and "all" not in (first[2], second[2])
    first[4], second[4] = second[4], first[4]
    lines[2], lines[3] = ",".join(first), ",".join(second)


def _move_raw(lines):
    fields = lines[2].split(",")
    fields[2] = repr(float(fields[2]) * (1.0 + 1e-8))
    lines[2] = ",".join(fields)
