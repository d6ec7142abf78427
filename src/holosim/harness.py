"""Scenario configuration, experiment presets, and CSV emission.

A scenario bundles two surfaces, a user count, an SNR grid, and Monte Carlo
controls.  Named presets reproduce the experiment families of the reference
figures at native or scaled size and write one CSV per series.  Every CSV
starts with a comment line holding the fully resolved configuration as
canonical JSON; a short hash of that JSON is appended to every row so each
row is self-describing, and identical configurations produce byte-identical
files.  One column-wise writer serves every artifact: SE blocks (Monte Carlo
and the public closed forms alike) become four columns, and each float
column is formatted in one pass.  The presets are one table of series, each
a surface pair, a user count, its schemes and the runner that writes it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .channel import correlation_eigenvalues
from .geometry import ArrayGeometry
from .rate import (
    SEResult,
    _canonical_scheme,
    _simulate,
    mrt_theoretical_bound,
    zf_theoretical,
)
from .spectrum import VarianceMap, variance_map

__all__ = [
    "ScenarioConfig",
    "parse_config",
    "parse_ns_compare",
    "run_preset",
    "run_variance_map",
    "run_eigvals",
    "run_se_sim",
    "run_se_theory",
    "run_ns_compare",
    "PRESET_NAMES",
]

_DEFAULT_SNR = tuple(float(v) for v in range(-10, 31, 5))
_NS_ORDERS = (2, 3, 4, 7)
_SETTING_KEYS = ("ns", "nr", "delta_s", "delta_r", "users", "snr", "trials", "seed", "scheme",
                 "iters")
_THIRD, _SIXTH = 1.0 / 3.0, 1.0 / 6.0
_THEORY_TAGS = {"MRT": "MRT-BOUND", "ZF": "ZF-THEORY"}


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved description of one experiment run.

    The four counts must be plain ``int`` values: a ``bool``, a float or a
    NumPy integer fails with ``invalid value for <field>``.

    Attributes:
        tx: Transmit surface geometry.
        rx: Receive surface geometry (shared by all users).
        users: Number of served users.
        snr_grid_db: Strictly increasing SNR grid in dB.
        trials: Monte Carlo trials per estimate.
        seed: Root seed for the deterministic per-trial splits.
        schemes: Precoding schemes to evaluate.
        ns_iterations: Series order for the NS-ZF scheme.
    """

    tx: ArrayGeometry
    rx: ArrayGeometry
    users: int = 3
    snr_grid_db: tuple[float, ...] = _DEFAULT_SNR
    trials: int = 800
    seed: int = 42
    schemes: tuple[str, ...] = ("MRT", "ZF", "MMSE")
    ns_iterations: int = 3

    def __post_init__(self) -> None:
        for field, least in {"users": 1, "trials": 1, "seed": 0, "ns_iterations": 0}.items():
            value = getattr(self, field)
            if type(value) is not int or value < least:
                raise ValueError(f"invalid value for {field}: {value!r} (minimum {least})")
        grid = tuple(float(v) for v in self.snr_grid_db)
        if not grid:
            raise ValueError("snr grid must be nonempty")
        if not all(math.isfinite(v) for v in grid):
            raise ValueError(f"invalid value for snr: {grid!r} (must be finite)")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("snr grid must be strictly increasing")
        object.__setattr__(self, "snr_grid_db", grid)
        schemes = tuple(_canonical_scheme(s) for s in self.schemes)
        if not schemes or len(set(schemes)) < len(schemes):
            raise ValueError(f"invalid value for scheme: {self.schemes!r} (empty or repeated)")
        object.__setattr__(self, "schemes", schemes)


def _near_square(count: int) -> tuple[int, int]:
    """Factor a patch count into the most nearly square grid."""
    side = math.isqrt(count)
    while count % side:
        side -= 1
    return side, count // side


def _parse_spacing(value, field: str) -> float:
    """Parse a patch spacing given as a rational-of-wavelength literal."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        spacing = float(value)
    else:
        try:
            spacing = float(Fraction(str(value)))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"invalid value for {field}: {value!r}") from exc
    if spacing <= 0.0:
        raise ValueError(f"invalid value for {field}: {value!r} (must be positive)")
    return spacing


def _parse_snr(value, field: str = "snr") -> tuple[float, ...]:
    """Parse an SNR grid given as ``a:b:step``, a comma list or a sequence."""
    text = str(value).strip()
    try:
        if isinstance(value, (list, tuple, np.ndarray)):
            if any(isinstance(v, (bool, np.bool_)) for v in value):
                raise ValueError
            return tuple(float(v) for v in value)
        if ":" in text:
            lo_s, hi_s, step_s = text.split(":")
            lo, hi, step = float(lo_s), float(hi_s), float(step_s)
            if step <= 0.0:
                raise ValueError
            count = int(math.floor((hi - lo) / step + 1e-9)) + 1
            return tuple(lo + k * step for k in range(count))
        return tuple(float(v) for v in text.split(","))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"invalid value for {field}: {value!r}") from exc


def _parse_int(value, field: str) -> int:
    """Convert an integer literal or an integral float (JSON ``1e3``); never truncate."""
    try:
        parsed = int(value)
        if isinstance(value, bool) or isinstance(value, float) and parsed != value:
            raise ValueError
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"invalid value for {field}: {value!r}") from exc
    return parsed


def _parse_schemes(value) -> tuple[str, ...]:
    if isinstance(value, (list, tuple)):
        return tuple(str(v) for v in value)
    return tuple(part for part in str(value).split(",") if part.strip())


def _surface(count, spacing, count_key: str, spacing_key: str) -> ArrayGeometry:
    """Near-square surface of ``count`` patches ``spacing`` wavelengths apart."""
    patches = _parse_int(count, count_key)
    if patches < 1:
        raise ValueError(f"invalid value for {count_key}: {count!r} (minimum 1)")
    return ArrayGeometry(*_near_square(patches), _parse_spacing(spacing, spacing_key))


def _load_settings(path: str | None, flags: dict) -> dict:
    """Only the keys the JSON file and the non-``None`` flags give (flags win), unconverted."""
    settings = {}
    if path is not None:
        with open(path, encoding="utf-8") as handle:
            try:
                settings = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ValueError(f"invalid value for config file {path}: {exc}") from exc
        unknown = set(settings) - set(_SETTING_KEYS)
        if unknown:
            raise ValueError(f"invalid value for config file {path}: unknown "
                             f"fields {sorted(unknown)}")
    for key, value in flags.items():
        if key not in _SETTING_KEYS:
            raise ValueError(f"invalid value for flag {key!r}: unknown field")
        if value is not None:
            settings[key] = value
    return settings


def _scenario(settings: dict, **fields) -> ScenarioConfig:
    """Convert loaded settings; a run key left out keeps its ``ScenarioConfig`` default."""
    tx = _surface(settings.get("ns", 900), settings.get("delta_s", _THIRD), "ns", "delta-s")
    rx = _surface(settings.get("nr", 144), settings.get("delta_r", _THIRD), "nr", "delta-r")
    for key, field in (("users", "users"), ("trials", "trials"), ("seed", "seed"),
                       ("iters", "ns_iterations")):
        if key in settings:
            fields[field] = _parse_int(settings[key], key)
    if "snr" in settings:
        fields["snr_grid_db"] = _parse_snr(settings["snr"])
    if "scheme" in settings:
        fields["schemes"] = _parse_schemes(settings["scheme"])
    return ScenarioConfig(tx=tx, rx=rx, **fields)


def parse_config(path: str | None = None, **flags) -> ScenarioConfig:
    """Build a scenario from an optional JSON file plus flag overrides.

    The file and the flags are read the same way and share these keys:
    ``ns``, ``nr`` (patch counts, factored into near-square grids),
    ``delta_s``, ``delta_r`` (spacings as rational-of-wavelength literals
    such as ``"1/6"``), ``users``, ``snr`` (``a:b:step``, a comma list or a
    JSON list), ``trials``, ``seed``, ``scheme`` (comma or JSON list) and
    ``iters`` (one series order).  Flags override file values.  The surfaces
    default to 900 transmit and 144 receive patches at one-third wavelength;
    every other key left unset keeps its :class:`ScenarioConfig` default,
    which also checks every range.  Counts must be integral: ``2.7`` is an
    error, JSON ``1e3`` is 1000.

    Args:
        path: Optional JSON file of settings.
        **flags: Individual overrides; ``None`` values are ignored.

    Returns:
        The resolved scenario.

    Raises:
        ValueError: On a malformed or out-of-range value, naming the field.
    """
    return _scenario(_load_settings(path, flags))


def parse_ns_compare(path: str | None = None, **flags) -> tuple[ScenarioConfig, tuple]:
    """Read an exact-ZF-against-series scenario and its orders like :func:`parse_config`.

    ``iters`` holds the series orders, as a comma list or a JSON list
    (default 2, 3, 4 and 7, as in the ``fig8`` preset).  The run is always
    exact ZF, so a ``scheme`` from either source is an error, and the
    scenario keeps the default ``ns_iterations`` as the preset's does.
    """
    settings = _load_settings(path, flags)
    if "scheme" in settings:
        raise ValueError(f"invalid value for scheme: {settings['scheme']!r} (ns-compare "
                         "runs ZF and its series orders)")
    orders = settings.pop("iters", _NS_ORDERS)
    if not isinstance(orders, (list, tuple)):
        orders = orders.split(",") if isinstance(orders, str) else [orders]
    config = _scenario(settings, schemes=("ZF",))
    return config, tuple(_parse_int(order, "iters") for order in orders)


def _config_payload(config: ScenarioConfig, **extra) -> dict:
    payload = {
        "tx": [config.tx.n_h, config.tx.n_v, config.tx.spacing],
        "rx": [config.rx.n_h, config.rx.n_v, config.rx.spacing],
        "wavelength": 1.0,
        "users": config.users,
        "snr_grid_db": list(config.snr_grid_db),
        "trials": config.trials,
        "seed": config.seed,
        "schemes": list(config.schemes),
        "ns_iterations": config.ns_iterations,
    }
    payload.update(extra)
    return payload


def _write_csv(path: Path, payload: dict, header: list[str], columns: list) -> str:
    """Write columns with the config comment line and per-row hash column.

    Each column is either a NumPy array, whose floats are written as
    ``.12g`` and integers as ``str``, or a sequence of ready-made strings
    (one of which may span several header fields).
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha1(canonical.encode("utf-8")).hexdigest()[:12]
    fields = []
    for column in columns:
        if isinstance(column, np.ndarray) and column.dtype.kind == "f":
            column = [f"{v:.12g}" for v in column.tolist()]
        elif isinstance(column, np.ndarray):
            column = list(map(str, column.tolist()))
        fields.append(column)
    rows = map(",".join, zip(*fields, itertools.repeat(digest)))
    lines = [f"# config {canonical}", ",".join([*header, "config_hash"]), *rows]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(lines) + "\n")
    return digest


def run_variance_map(geometry: ArrayGeometry, out: Path) -> VarianceMap:
    """Write the per-cell variance profile of one surface as CSV."""
    vmap = variance_map(geometry)
    payload = {
        "surface": [geometry.n_h, geometry.n_v, geometry.spacing],
        "wavelength": 1.0,
    }
    columns = [*vmap.lattice.cells.T, vmap.raw, vmap.normalized_sigma]
    _write_csv(out, payload, ["lx", "ly", "raw", "sigma"], columns)
    return vmap


def run_eigvals(config: ScenarioConfig, out: Path) -> np.ndarray:
    """Write one user's correlation spectrum, normalized to its largest."""
    rx_map = variance_map(config.rx)
    tx_map = variance_map(config.tx)
    spectrum = correlation_eigenvalues(rx_map, tx_map)
    top = spectrum[0] if spectrum.size and spectrum[0] > 0.0 else 1.0
    normalized = spectrum / top
    payload = _config_payload(config, artifact="eigvals")
    ranks = np.arange(1, normalized.size + 1)
    _write_csv(out, payload, ["rank", "eigenvalue"], [ranks, normalized])
    return normalized


_SE_COLUMNS = ["snr_db", "scheme", "user", "stream", "se_bits"]


def _write_se(out: Path, config: ScenarioConfig, payload: dict, blocks: list) -> None:
    """Write ``(tag, per_stream)`` blocks on the config's SNR grid as one CSV.

    Each block writes, per SNR point, one row per stream and then their sum.
    """
    per_user = blocks[0][1].shape[0] // config.users
    labels = [f"{user + 1},{i + 1}" for user in range(config.users) for i in range(per_user)]
    labels.append("all,sum")
    grid = config.snr_grid_db
    rows = len(grid) * len(labels)
    columns = [
        np.tile(np.repeat(np.asarray(grid, dtype=float), len(labels)), len(blocks)),
        [tag for tag, _ in blocks for _ in range(rows)],
        labels * (len(grid) * len(blocks)),
        np.array([np.vstack([values, values.sum(axis=0)]).T for _, values in blocks]).ravel(),
    ]
    _write_csv(out, payload, _SE_COLUMNS, columns)


def _theory_block(config: ScenarioConfig, sigma: tuple, scheme: str) -> tuple:
    """Closed-form ``(tag, per_stream)`` block of one scheme at unit noise."""
    formula = {"MRT": mrt_theoretical_bound, "ZF": zf_theoretical}[scheme]
    p_u = [10.0 ** (snr_db / 10.0) for snr_db in config.snr_grid_db]
    return _THEORY_TAGS[scheme], formula(*sigma, p_u, 1.0)


def _sigma(config: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """Separable ``(rx_sigma, tx_sigma)`` of the configured users and transmitter.

    All users see the same statistics, so the receive factors are
    ``users`` copies of one map's; each lattice is built once, by its map.
    """
    rx_map, tx_map = variance_map(config.rx), variance_map(config.tx)
    return np.tile(rx_map.normalized_sigma, config.users), tx_map.normalized_sigma


def run_se_sim(
    config: ScenarioConfig, out: Path, *, include_theory: bool = False
) -> dict[str, SEResult]:
    """Run the configured Monte Carlo estimates and write one CSV.

    All schemes share each channel draw and its Gram matrix.

    Args:
        config: Scenario to run.
        out: CSV destination.
        include_theory: Also emit the closed-form curves for the schemes
            that have one (MRT bound, ZF approximation).

    Returns:
        The per-scheme estimates, keyed by scheme tag.
    """
    sigma = _sigma(config)
    specs = [(scheme, config.ns_iterations) for scheme in config.schemes]
    estimates = _simulate(*sigma, specs, config.snr_grid_db, config.trials, config.seed)
    blocks = []
    for scheme, result in zip(config.schemes, estimates):
        blocks.append((scheme, result.per_stream))
        if include_theory and scheme in _THEORY_TAGS:
            blocks.append(_theory_block(config, sigma, scheme))
    _write_se(out, config, _config_payload(config), blocks)
    return dict(zip(config.schemes, estimates))


def run_se_theory(config: ScenarioConfig, out: Path) -> None:
    """Write the closed-form SE curves for the configured schemes."""
    for scheme in config.schemes:
        if scheme not in _THEORY_TAGS:
            raise ValueError(f"no closed form available for scheme {scheme!r}")
    sigma = _sigma(config)
    blocks = [_theory_block(config, sigma, scheme) for scheme in config.schemes]
    _write_se(out, config, _config_payload(config), blocks)


def run_ns_compare(
    config: ScenarioConfig, iterations: tuple[int, ...], out: Path
) -> dict[str, SEResult]:
    """Compare exact ZF with the series scheme at several orders.

    All orders share each draw and one Horner pass; an empty list or a
    repeated or negative order raises ``ValueError`` before any trial runs.
    """
    if not iterations or len(set(iterations)) < len(iterations) or min(iterations) < 0:
        raise ValueError(f"invalid value for iters: {iterations!r} (empty, repeated or "
                         "negative)")
    sigma = _sigma(config)
    tags = ["ZF", *(f"NS-ZF-{order}" for order in iterations)]
    specs = [("ZF", None), *(("NS-ZF", order) for order in iterations)]
    estimates = _simulate(*sigma, specs, config.snr_grid_db, config.trials, config.seed)
    blocks = [(tag, result.per_stream) for tag, result in zip(tags, estimates)]
    payload = _config_payload(config, ns_orders=list(iterations))
    _write_se(out, config, payload, blocks)
    return dict(zip(tags, estimates))


def _spacing_tag(spacing: float) -> str:
    frac = Fraction(spacing).limit_denominator(1000)
    return f"{frac.numerator}_{frac.denominator}"


def _geometry_for(count: int, spacing: float, scale: float) -> ArrayGeometry:
    """Near-square grid of ``count`` patches, the count multiplied by ``scale``.

    Each side is scaled by the square root of ``scale`` and rounded, so the
    grid stays proper.
    """
    sides = _near_square(count)
    if scale != 1.0:
        sides = tuple(max(1, round(side * math.sqrt(scale))) for side in sides)
    return ArrayGeometry(*sides, spacing)


# Each job calls its runner by name when it runs, so a runner replaced on
# the module after import is the one that runs.
def _eigvals_job(config: ScenarioConfig, out: Path) -> None:
    run_eigvals(config, out)


def _se_job(config: ScenarioConfig, out: Path) -> None:
    run_se_sim(config, out, include_theory=True)


def _ns_job(config: ScenarioConfig, out: Path) -> None:
    run_ns_compare(config, _NS_ORDERS, out)


_ALL = ("MRT", "ZF", "MMSE")
# name -> [(stem, (ns, delta_s, nr, delta_r, users, schemes), job)]
_PRESETS = {
    "fig3": [(f"fig3_dr{_spacing_tag(dr)}", (900, _THIRD, 576, dr, 1, ("MRT",)), _eigvals_job)
             for dr in (_SIXTH, _THIRD, 0.5)],
    "fig4": [(f"fig4_ns{ns}", (ns, _THIRD, 144, _THIRD, 3, ("ZF", "MMSE")), _se_job)
             for ns in (576, 900, 3600)],
    "fig5": [(f"fig5_ns{ns}", (ns, _THIRD, 144, _THIRD, 3, ("MRT",)), _se_job)
             for ns in (144, 576, 900)],
    "fig6": [(f"fig6_nr{nr}", (900, _SIXTH, nr, _SIXTH, 3, _ALL), _se_job)
             for nr in (72, 144, 288)],
    "fig7": [(f"fig7_ds{_spacing_tag(ds)}", (3600, ds, 144, _THIRD, 1, _ALL), _se_job)
             for ds in (_SIXTH, 1.0 / 15.0)],
    "fig8": [("fig8", (729, _THIRD, 144, _THIRD, 1, ("ZF",)), _ns_job)],
}
PRESET_NAMES = tuple(_PRESETS)


def preset_jobs(
    name: str,
    *,
    scale: float = 1.0,
    trials: int | None = None,
    seed: int | None = None,
) -> list[tuple[str, ScenarioConfig, Callable[[ScenarioConfig, Path], None]]]:
    """Expand a preset name into ``(stem, config, job)`` triples.

    ``job(config, out)`` writes the series to ``out``: the correlation
    spectrum (``fig3``), the Monte Carlo estimates with the closed forms
    where available, or exact ZF against series orders 2, 3, 4 and 7
    (``fig8``).
    """
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")
    if not 0.0 < scale < math.inf:
        raise ValueError(f"scale must be positive and finite, got {scale!r}")
    overrides = {"trials": trials, "seed": seed}
    overrides = {key: value for key, value in overrides.items() if value is not None}
    jobs = []
    for stem, (ns, ds, nr, dr, users, schemes), job in _PRESETS[name]:
        tx, rx = _geometry_for(ns, ds, scale), _geometry_for(nr, dr, scale)
        config = ScenarioConfig(tx=tx, rx=rx, users=users, schemes=schemes, **overrides)
        jobs.append((stem, config, job))
    return jobs


def run_preset(
    name: str,
    *,
    scale: float = 1.0,
    trials: int | None = None,
    seed: int | None = None,
    out: str = ".",
) -> int:
    """Run one named preset and write its CSV artifacts.

    Args:
        name: Preset name (``fig3`` .. ``fig8``).
        scale: Patch-count multiplier applied to every surface (each side is
            scaled by its square root and rounded to keep a proper grid).
        trials: Optional trial-count override.
        seed: Optional seed override.
        out: Output directory.

    Returns:
        Process-style exit status: 0 on success, 1 on any failure (with a
        diagnostic on standard error).
    """
    try:
        for stem, config, job in preset_jobs(name, scale=scale, trials=trials, seed=seed):
            job(config, Path(out) / f"{stem}.csv")
    except Exception as exc:  # noqa: BLE001 - CLI boundary turns failures into status
        print(f"holosim preset {name}: {exc}", file=sys.stderr)
        return 1
    return 0
