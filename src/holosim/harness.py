"""Scenario configuration, experiment presets, and CSV emission.

A scenario bundles two surfaces, a user count, an SNR grid, and Monte Carlo
controls.  Named presets reproduce the experiment families of the reference
figures at native or scaled size and write one CSV per series.  Every CSV
starts with a comment line holding the fully resolved configuration as
canonical JSON; a short hash of that JSON is appended to every row so each
row is self-describing, and identical configurations produce byte-identical
files.  One column-wise writer serves every artifact, a block of rows at a
time: SE blocks (Monte Carlo and the public closed forms alike) become four
columns, and the correlation spectrum is padded here to its element-domain
dimension.  One runner, :func:`run_se_sim`, writes every Monte Carlo
artifact.  The presets are one table of series, each a surface pair, a user
count, its schemes and the runner that writes it, stems included.  Settings
from a file and from command-line text share their readers; only spacing
or scale text needs the exact fraction reader, and no preset table has any.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import _count, _real_vector, correlation_eigenvalues
from .geometry import ArrayGeometry
from .rate import SEResult, _canonical_scheme, _simulate, mrt_theoretical_bound, zf_theoretical
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
    "PRESET_NAMES",
]

_DEFAULT_SNR = tuple(float(v) for v in range(-10, 31, 5))
_MAX_SNR_POINTS = 10_001
_NS_ORDERS = (2, 3, 4, 7)
_SETTING_KEYS = ("ns", "nr", "delta_s", "delta_r", "users", "snr", "trials", "seed", "scheme",
                 "iters")
_THIRD, _SIXTH = 1.0 / 3.0, 1.0 / 6.0
_THEORY_TAGS = {"MRT": "MRT-BOUND", "ZF": "ZF-THEORY"}
_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved description of one experiment run.

    The four counts are read by :func:`holosim.channel._count` and stored as
    ``int``: a NumPy integer is the ``int`` it holds, while a ``bool``, a
    float, a string or ``None`` fails with ``invalid value for <field>``.

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
            object.__setattr__(self, field, _count(getattr(self, field), field, least))
        grid = tuple(_real_vector(self.snr_grid_db, "snr").tolist())
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


def _parse_rational(value, field: str) -> float:
    """A positive number; text is first read exactly as a fraction (``"1/6"``, ``"0.25"``)."""
    number = value
    if isinstance(value, str):
        from fractions import Fraction  # only text needs it; no preset gives any
        try:
            number = float(Fraction(value))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ValueError(f"invalid value for {field}: {value!r}") from exc
    number = _real_vector([number], field).item()
    if not number > 0.0:
        raise ValueError(f"invalid value for {field}: {value!r} (must be positive)")
    return number


def _parse_snr(value):
    """Parse an SNR grid given as ``a:b:step`` or a comma list; return any non-string as given.

    A range is counted before it is built: an empty one, or one of more than
    ``_MAX_SNR_POINTS`` points, is an error naming the input.
    """
    if not isinstance(value, str):
        return value
    try:
        if ":" not in value:
            return tuple(float(v) for v in value.split(","))
        lo, hi, step = (float(part) for part in value.split(":"))
        if not step > 0.0:
            raise ValueError
        count = math.floor((hi - lo) / step + 1e-9) + 1
        if not 1 <= count <= _MAX_SNR_POINTS:
            raise ValueError
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"invalid value for snr: {value!r}") from exc
    return tuple(lo + k * step for k in range(count))


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
    patches = _count(_parse_int(count, count_key), count_key, 1)
    return ArrayGeometry(*_near_square(patches), _parse_rational(spacing, spacing_key))


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

    The file and the flags are read the same way and share these keys: ``ns``,
    ``nr`` (patch counts, factored into near-square grids), ``delta_s``,
    ``delta_r`` (positive spacings in wavelengths; text is read exactly as a
    fraction such as ``"1/6"``), ``users``, ``snr`` (``a:b:step``, a comma list
    or a JSON list), ``trials``, ``seed``, ``scheme`` (comma or JSON list) and
    ``iters`` (one series order).  Flags override file values.  The surfaces
    default to 900 transmit and 144 receive patches at one-third wavelength;
    every other key left unset keeps its :class:`ScenarioConfig` default, which
    also checks every range.  Counts must be integral: ``2.7`` is an error,
    JSON ``1e3`` is 1000.

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
    scenario keeps the default ``ns_iterations`` as the preset's does.  An
    empty list is an error: to :func:`run_se_sim` no orders is a plain run.
    """
    settings = _load_settings(path, flags)
    if "scheme" in settings:
        raise ValueError(f"invalid value for scheme: {settings['scheme']!r} (ns-compare "
                         "runs ZF and its series orders)")
    orders = settings.pop("iters", _NS_ORDERS)
    if not isinstance(orders, (list, tuple)):
        orders = orders.split(",") if isinstance(orders, str) else [orders]
    if not orders:
        raise ValueError(f"invalid value for iters: {orders!r} (empty)")
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
    (one of which may span several header fields).  Rows are formatted and
    written ``_BLOCK_ROWS`` at a time, so no file is ever held whole as text.
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha1(canonical.encode("utf-8")).hexdigest()[:12]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(f"# config {canonical}\n{','.join([*header, 'config_hash'])}\n")
        for start in range(0, len(columns[0]), _BLOCK_ROWS):
            fields = []
            for column in columns:
                block = column[start : start + _BLOCK_ROWS]
                if isinstance(block, np.ndarray) and block.dtype.kind == "f":
                    block = [f"{v:.12g}" for v in block.tolist()]
                elif isinstance(block, np.ndarray):
                    block = map(str, block.tolist())
                fields.append(block)
            # The hash field carries each row's line break.
            rows = zip(*fields, itertools.repeat(f"{digest}\n"))
            handle.write("".join(map(",".join, rows)))
    return digest


def run_variance_map(geometry: ArrayGeometry, out: Path) -> VarianceMap:
    """Write the per-cell variance profile of one surface as CSV."""
    vmap = variance_map(geometry)
    payload = {
        "surface": [geometry.n_h, geometry.n_v, geometry.spacing],
        "wavelength": 1.0,
    }
    columns = [*vmap.lattice.T, vmap.raw, vmap.normalized_sigma]
    _write_csv(out, payload, ["lx", "ly", "raw", "sigma"], columns)
    return vmap


def run_eigvals(config: ScenarioConfig, out: Path) -> np.ndarray:
    """Write one user's correlation spectrum, normalized to its largest.

    It is padded with zeros to the element-domain dimension, the product of
    the two patch counts, and returned as written.
    """
    rx, tx = (variance_map(surface).normalized_sigma for surface in (config.rx, config.tx))
    products = correlation_eigenvalues(rx, tx)
    normalized = np.zeros(config.rx.num_patches * config.tx.num_patches)
    normalized[: products.size] = products / (products[0] if products[0] > 0.0 else 1.0)
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


def run_se_sim(config: ScenarioConfig, out: Path, *, include_theory: bool = False,
               ns_orders: tuple[int, ...] = ()) -> dict[str, SEResult]:
    """Run the configured Monte Carlo estimates and write one CSV.

    All schemes and series orders share each draw and its Gram matrix.

    Args:
        config: Scenario to run.
        out: CSV destination.
        include_theory: Also emit the closed-form curves for the schemes
            that have one (MRT bound, ZF approximation).
        ns_orders: Series orders to run besides ``config.schemes``, each
            tagged ``NS-ZF-<order>`` and listed in the config line; an
            order that is not an integer of at least 0, or a repeated one,
            raises ``ValueError`` (``invalid value for iters``) before any
            draw.

    Returns:
        The estimates, keyed by tag.
    """
    ns_orders = tuple(_count(order, "iters", 0) for order in ns_orders)
    if len(set(ns_orders)) < len(ns_orders):
        raise ValueError(f"invalid value for iters: {ns_orders!r} (repeated)")
    sigma = _sigma(config)
    tags = [*config.schemes, *(f"NS-ZF-{order}" for order in ns_orders)]
    specs = [(scheme, config.ns_iterations) for scheme in config.schemes]
    specs += [("NS-ZF", order) for order in ns_orders]
    estimates = _simulate(*sigma, specs, config.snr_grid_db, config.trials, config.seed)
    blocks = []
    for tag, result in zip(tags, estimates):
        blocks.append((tag, result.per_stream))
        if include_theory and tag in _THEORY_TAGS:
            blocks.append(_theory_block(config, sigma, tag))
    payload = _config_payload(config, **({"ns_orders": list(ns_orders)} if ns_orders else {}))
    _write_se(out, config, payload, blocks)
    return dict(zip(tags, estimates))


def run_se_theory(config: ScenarioConfig, out: Path) -> None:
    """Write the closed-form SE curves for the configured schemes."""
    for scheme in config.schemes:
        if scheme not in _THEORY_TAGS:
            raise ValueError(f"no closed form available for scheme {scheme!r}")
    sigma = _sigma(config)
    blocks = [_theory_block(config, sigma, scheme) for scheme in config.schemes]
    _write_se(out, config, _config_payload(config), blocks)


def _geometry_for(count: int, spacing: float, scale: float) -> ArrayGeometry:
    """Near-square grid of ``count`` patches, the count multiplied by ``scale``.

    Each side is scaled by the square root of ``scale`` and rounded, so the
    grid stays proper.
    """
    sides = (max(1, round(side * math.sqrt(scale))) for side in _near_square(count))
    return ArrayGeometry(*sides, spacing)


# Each job calls its runner by name when it runs, so a runner replaced on
# the module after import is the one that runs.
def _eigvals_job(config: ScenarioConfig, out: Path) -> None:
    run_eigvals(config, out)


def _se_job(config: ScenarioConfig, out: Path) -> None:
    run_se_sim(config, out, include_theory=True)


def _ns_job(config: ScenarioConfig, out: Path) -> None:
    run_se_sim(config, out, ns_orders=_NS_ORDERS)


_ALL = ("MRT", "ZF", "MMSE")
# name -> [(stem, (ns, delta_s, nr, delta_r, users, schemes), job)]
_PRESETS = {
    "fig3": [(f"fig3_dr{tag}", (900, _THIRD, 576, dr, 1, ("MRT",)), _eigvals_job)
             for tag, dr in (("1_6", _SIXTH), ("1_3", _THIRD), ("1_2", 0.5))],
    "fig4": [(f"fig4_ns{ns}", (ns, _THIRD, 144, _THIRD, 3, ("ZF", "MMSE")), _se_job)
             for ns in (576, 900, 3600)],
    "fig5": [(f"fig5_ns{ns}", (ns, _THIRD, 144, _THIRD, 3, ("MRT",)), _se_job)
             for ns in (144, 576, 900)],
    "fig6": [(f"fig6_nr{nr}", (900, _SIXTH, nr, _SIXTH, 3, _ALL), _se_job)
             for nr in (72, 144, 288)],
    "fig7": [(f"fig7_ds{tag}", (3600, ds, 144, _THIRD, 1, _ALL), _se_job)
             for tag, ds in (("1_6", _SIXTH), ("1_15", 1.0 / 15.0))],
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
    scale = _parse_rational(scale, "scale")
    overrides = {key: value for key, value in (("trials", trials), ("seed", seed))
                 if value is not None}
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
            scaled by its square root and rounded to keep a proper grid),
            read like a spacing: a positive number, or text such as ``"1/4"``.
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
