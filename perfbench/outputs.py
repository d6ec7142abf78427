"""Parse the preset CSVs, reduce them to fingerprints, and compare fingerprints.

A fingerprint holds what the correctness check needs from one CSV without
storing the CSV: its row count, SHA-256 and configuration, and for every
(scheme, SNR) group of Monte Carlo rows the count, sum, sum of squares and a
position-weighted sum of the per-stream spectral efficiencies.  Two runs of
the same computation agree on these to round-off; a single changed,
missing or reordered value moves at least one of them.  Closed-form rows
(``*-THEORY``, ``*-BOUND``) are only counted and checked to be finite, and
an eigenvalue CSV keeps sums plus a sample of ranks instead of groups.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

# Agreement required "to round-off": relative to the magnitude of the sum the
# value belongs to.  The CSVs print 12 significant digits.
RTOL = 1e-9
_EIGEN_HEAD = 16
_EIGEN_PROBES = 64
_CLOSED_FORM_SUFFIXES = ("-THEORY", "-BOUND")


class OutputError(ValueError):
    """A CSV is malformed or inconsistent with itself."""


def _read(path: Path) -> tuple[str, dict, list[str], list[str], str]:
    """Return SHA-256, config, columns and data lines with the hash column cut."""
    data = path.read_bytes()
    lines = data.decode("utf-8").split("\n")
    if lines[-1] != "":
        raise OutputError(f"{path.name}: missing final newline")
    lines.pop()
    if len(lines) < 2 or not lines[0].startswith("# config "):
        raise OutputError(f"{path.name}: missing config comment line")
    canonical = lines[0][len("# config "):]
    config = json.loads(canonical)
    digest = hashlib.sha1(canonical.encode("utf-8")).hexdigest()[:12]
    columns = lines[1].split(",")
    if columns[-1] != "config_hash":
        raise OutputError(f"{path.name}: last column is {columns[-1]!r}, not config_hash")
    suffix = "," + digest
    rows = lines[2:]
    if not all(line.endswith(suffix) for line in rows):
        raise OutputError(f"{path.name}: a config_hash does not match the config line")
    cut = len(suffix)
    return hashlib.sha256(data).hexdigest(), config, columns, [line[:-cut] for line in rows], digest


def _sums(values: np.ndarray) -> list[float]:
    weights = np.arange(1, values.size + 1, dtype=float) / max(values.size, 1)
    return [
        float(values.size),
        math.fsum(values),
        math.fsum(values * values),
        math.fsum(values * weights),
    ]


def _eigen_fingerprint(name: str, rows: list[str]) -> dict:
    flat = np.array(",".join(rows).split(",") if rows else [], dtype=float)
    if flat.size != 2 * len(rows):
        raise OutputError(f"{name}: rows do not all have two fields")
    ranks, values = flat.reshape(-1, 2).T
    if not np.array_equal(ranks, np.arange(1, len(rows) + 1)):
        raise OutputError(f"{name}: ranks are not 1..{len(rows)} in order")
    if not np.all(np.isfinite(values)) or np.any(values < 0.0):
        raise OutputError(f"{name}: eigenvalues must be finite and nonnegative")
    if np.any(np.diff(values) > 0.0):
        raise OutputError(f"{name}: eigenvalues are not in nonincreasing order")
    probes = np.linspace(0, values.size - 1, _EIGEN_PROBES).round().astype(int)
    return {
        "sums": _sums(values),
        "nonzero": int(np.count_nonzero(values)),
        "head": values[:_EIGEN_HEAD].tolist(),
        "probes": values[probes].tolist(),
    }


def _se_fingerprint(name: str, rows: list[str]) -> tuple[dict, dict]:
    groups: dict[str, list[float]] = {}
    sums: dict[str, float] = {}
    closed: dict[str, int] = {}
    for row in rows:
        fields = row.split(",")
        if len(fields) != 5:
            raise OutputError(f"{name}: row {row!r} does not have five fields")
        snr, scheme, user, _, value = fields
        se = float(value)
        if not math.isfinite(se):
            raise OutputError(f"{name}: non-finite value for {scheme} at {snr} dB")
        if scheme.endswith(_CLOSED_FORM_SUFFIXES):
            closed[scheme] = closed.get(scheme, 0) + 1
            continue
        if se < 0.0:
            raise OutputError(f"{name}: negative spectral efficiency for {scheme} at {snr} dB")
        key = f"{scheme}@{snr}"
        if user == "all":
            if key in sums:
                raise OutputError(f"{name}: two sum rows for {key}")
            sums[key] = se
        else:
            groups.setdefault(key, []).append(se)
    if set(sums) != set(groups):
        raise OutputError(f"{name}: sum rows and per-stream rows cover different groups")
    for key, values in groups.items():
        total = math.fsum(values)
        if abs(sums[key] - total) > 1e-9 * max(1.0, total):
            raise OutputError(f"{name}: sum row {key} is {sums[key]!r}, streams add to {total!r}")
    return {key: _sums(np.array(values)) for key, values in groups.items()}, closed


def fingerprint(path: Path) -> dict:
    """Reduce one preset CSV to the figures the correctness check compares.

    Raises:
        OutputError: If the CSV is inconsistent with itself.
    """
    sha, config, columns, rows, digest = _read(path)
    result = {"sha256": sha, "rows": len(rows), "config_hash": digest, "config": config}
    if columns[:2] == ["rank", "eigenvalue"]:
        result["eigen"] = _eigen_fingerprint(path.name, rows)
    elif columns[:5] == ["snr_db", "scheme", "user", "stream", "se_bits"]:
        result["groups"], result["closed_form"] = _se_fingerprint(path.name, rows)
    else:
        raise OutputError(f"{path.name}: unknown columns {columns}")
    return result


def _close(actual: float, expected: float, scale: float) -> bool:
    return abs(actual - expected) <= RTOL * max(abs(scale), 1e-300)


def compare(name: str, actual: dict, expected: dict) -> list[str]:
    """Differences between a fingerprint and its reference, as messages."""
    problems = []
    if actual["rows"] != expected["rows"]:
        problems.append(f"{name}: {actual['rows']} rows, reference has {expected['rows']}")
    if actual["config"] != expected["config"]:
        problems.append(f"{name}: config differs from the reference")
    if "eigen" in expected:
        got, want = actual.get("eigen"), expected["eigen"]
        if got is None:
            return problems + [f"{name}: not an eigenvalue CSV"]
        if got["nonzero"] != want["nonzero"]:
            problems.append(f"{name}: {got['nonzero']} nonzero eigenvalues, reference has {want['nonzero']}")
        for field in ("sums", "head", "probes"):
            for i, (a, b) in enumerate(zip(got[field], want[field])):
                if not _close(a, b, b):
                    problems.append(f"{name}: eigenvalue {field}[{i}] is {a!r}, reference {b!r}")
        return problems
    got_groups = actual.get("groups", {})
    if set(got_groups) != set(expected["groups"]):
        problems.append(f"{name}: Monte Carlo groups differ from the reference")
    for key, want in expected["groups"].items():
        got = got_groups.get(key)
        if got is None:
            continue
        if got[0] != want[0]:
            problems.append(f"{name}: {key} has {got[0]:.0f} streams, reference {want[0]:.0f}")
        elif not all(_close(a, b, b) for a, b in zip(got[1:], want[1:])):
            problems.append(f"{name}: {key} spectral efficiencies differ from the reference")
    if actual.get("closed_form") != expected["closed_form"]:
        problems.append(f"{name}: closed-form row counts {actual.get('closed_form')} "
                        f"differ from the reference {expected['closed_form']}")
    return problems


def check_directory(out_dir: Path, reference: dict, seen: dict | None = None
                    ) -> tuple[dict, list[str]]:
    """Fingerprint every CSV in ``out_dir`` and compare against ``reference``.

    Args:
        out_dir: Directory one preset run wrote into.
        reference: Expected fingerprints keyed by file stem.
        seen: Fingerprints already computed, keyed by SHA-256.  A file with
            the same bytes has the same fingerprint, so repeated runs only
            hash their CSVs; new fingerprints are added.

    Returns:
        The fingerprints keyed by stem, and the problems found.
    """
    seen = {} if seen is None else seen
    found = {path.stem: path for path in sorted(out_dir.glob("*.csv"))}
    problems = []
    if set(found) != set(reference):
        problems.append(f"CSV files {sorted(found)} differ from the reference {sorted(reference)}")
    prints = {}
    for stem, path in found.items():
        sha = hashlib.sha256(path.read_bytes()).hexdigest()
        if sha not in seen:
            try:
                seen[sha] = fingerprint(path)
            except (OutputError, ValueError, UnicodeDecodeError) as exc:
                problems.append(str(exc))
                continue
        prints[stem] = seen[sha]
        if stem in reference:
            problems.extend(compare(stem, prints[stem], reference[stem]))
    return prints, problems
