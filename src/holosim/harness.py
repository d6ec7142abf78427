"""Scenario configuration, experiment presets, and CSV emission.

A scenario bundles two surfaces, a user count, an SNR grid, and Monte Carlo
controls.  Named presets reproduce the experiment families of the reference
figures at native or scaled size and write one CSV per series.  Every CSV
starts with a comment line holding the fully resolved configuration as
canonical JSON; a short hash of that JSON is appended to every row so each
row is self-describing, and identical configurations produce byte-identical
files.  One column-wise writer serves every artifact: SE blocks (Monte Carlo
and closed-form alike) become four columns, and each float column is
formatted in one pass.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from .channel import correlation_eigenvalues
from .geometry import ArrayGeometry, lattice_ellipse
from .rate import SEResult, _canonical_scheme, _simulate, _theory_table
from .spectrum import SeparableSigma, VarianceMap, separable_sigma, variance_map

__all__ = [
    "ScenarioConfig",
    "parse_config",
    "check_feasibility",
    "run_preset",
    "run_variance_map",
    "run_eigvals",
    "run_se_sim",
    "run_se_theory",
    "run_ns_compare",
    "PRESET_NAMES",
]

_DEFAULT_SNR = tuple(float(v) for v in range(-10, 31, 5))
_THEORY_TAGS = {"MRT": "MRT-BOUND", "ZF": "ZF-THEORY"}

PRESET_NAMES = ("fig3", "fig4", "fig5", "fig6", "fig7", "fig8")


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved description of one experiment run.

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
        if self.users < 1:
            raise ValueError(f"users must be at least 1, got {self.users!r}")
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials!r}")
        grid = tuple(float(v) for v in self.snr_grid_db)
        if not grid:
            raise ValueError("snr grid must be nonempty")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("snr grid must be strictly increasing")
        object.__setattr__(self, "snr_grid_db", grid)
        schemes = tuple(_canonical_scheme(s) for s in self.schemes)
        if len(set(schemes)) < len(schemes):
            raise ValueError(f"invalid value for scheme: {self.schemes!r} (repeated)")
        object.__setattr__(self, "schemes", schemes)
        if self.ns_iterations < 0:
            raise ValueError(
                f"ns_iterations must be nonnegative, got {self.ns_iterations!r}"
            )


def _near_square(count: int) -> tuple[int, int]:
    """Factor a patch count into the most nearly square grid."""
    side = math.isqrt(count)
    while count % side:
        side -= 1
    return side, count // side


def _scaled_side(side: int, scale: float) -> int:
    return max(1, round(side * math.sqrt(scale)))


def _scaled_geometry(geometry: ArrayGeometry, scale: float) -> ArrayGeometry:
    """Multiply the patch count by ``scale``, keeping the grid near square."""
    if scale == 1.0:
        return geometry
    return ArrayGeometry(
        n_h=_scaled_side(geometry.n_h, scale),
        n_v=_scaled_side(geometry.n_v, scale),
        spacing=geometry.spacing,
        wavelength=geometry.wavelength,
    )


def _parse_spacing(value, field: str) -> float:
    """Parse a patch spacing given as a rational-of-wavelength literal."""
    if isinstance(value, (int, float)):
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
    """Parse an SNR grid given as ``a:b:step`` or a comma list."""
    if isinstance(value, (list, tuple, np.ndarray)):
        return tuple(float(v) for v in value)
    text = str(value).strip()
    try:
        if ":" in text:
            lo_s, hi_s, step_s = text.split(":")
            lo, hi, step = float(lo_s), float(hi_s), float(step_s)
            if step <= 0.0:
                raise ValueError
            count = int(math.floor((hi - lo) / step + 1e-9)) + 1
            return tuple(lo + k * step for k in range(count))
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ValueError(f"invalid value for {field}: {value!r}") from exc


def _parse_int(value, field: str, minimum: int) -> int:
    try:
        parsed = int(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"invalid value for {field}: {value!r}") from exc
    if parsed < minimum:
        raise ValueError(f"invalid value for {field}: {value!r} (minimum {minimum})")
    return parsed


def _parse_schemes(value) -> tuple[str, ...]:
    if isinstance(value, (list, tuple)):
        return tuple(str(v) for v in value)
    return tuple(part for part in str(value).split(",") if part.strip())


def parse_config(path: str | None = None, **flags) -> ScenarioConfig:
    """Build a scenario from an optional JSON file plus flag overrides.

    Recognized keys (file and flags alike): ``ns``, ``nr`` (patch counts,
    factored into near-square grids), ``delta_s``, ``delta_r`` (spacings as
    rational-of-wavelength literals such as ``"1/6"``), ``users``, ``snr``
    (``a:b:step`` or a comma list), ``trials``, ``seed``, ``scheme`` (comma
    list), and ``iters``.  Flags override file values; anything
    left unset falls back to the defaults (three users, 800 trials, series
    order 3, seed 42, SNR −10..30 dB in steps of 5, all of MRT/ZF/MMSE).

    Args:
        path: Optional JSON file of settings.
        **flags: Individual overrides; ``None`` values are ignored.

    Returns:
        The resolved scenario.

    Raises:
        ValueError: On a malformed value, naming the offending field.
    """
    settings: dict = {
        "ns": 900,
        "nr": 144,
        "delta_s": 1.0 / 3.0,
        "delta_r": 1.0 / 3.0,
        "users": 3,
        "snr": _DEFAULT_SNR,
        "trials": 800,
        "seed": 42,
        "scheme": ("MRT", "ZF", "MMSE"),
        "iters": 3,
    }
    if path is not None:
        with open(path, encoding="utf-8") as handle:
            try:
                loaded = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ValueError(f"invalid value for config file {path}: {exc}") from exc
        unknown = set(loaded) - set(settings)
        if unknown:
            raise ValueError(f"invalid value for config file {path}: unknown "
                             f"fields {sorted(unknown)}")
        settings.update(loaded)
    for key, value in flags.items():
        if key not in settings:
            raise ValueError(f"invalid value for flag {key!r}: unknown field")
        if value is not None:
            settings[key] = value

    tx_side = _near_square(_parse_int(settings["ns"], "ns", 1))
    rx_side = _near_square(_parse_int(settings["nr"], "nr", 1))
    tx = ArrayGeometry(tx_side[0], tx_side[1], _parse_spacing(settings["delta_s"], "delta-s"))
    rx = ArrayGeometry(rx_side[0], rx_side[1], _parse_spacing(settings["delta_r"], "delta-r"))
    return ScenarioConfig(
        tx=tx,
        rx=rx,
        users=_parse_int(settings["users"], "users", 1),
        snr_grid_db=_parse_snr(settings["snr"]),
        trials=_parse_int(settings["trials"], "trials", 1),
        seed=_parse_int(settings["seed"], "seed", 0),
        schemes=_parse_schemes(settings["scheme"]),
        ns_iterations=_parse_int(settings["iters"], "iters", 0),
    )


def check_feasibility(config: ScenarioConfig) -> tuple[int, int]:
    """Verify the stream count fits the transmit aperture for inversion.

    Args:
        config: Scenario whose lattices are constructed and counted.

    Returns:
        ``(rx_cells, tx_cells)`` per-user receive and transmit cell counts.

    Raises:
        ValueError: If ZF or NS-ZF is requested and the total stream count
            exceeds the transmit cell count.
    """
    rx_cells = lattice_ellipse(config.rx).cardinality
    tx_cells = lattice_ellipse(config.tx).cardinality
    needs_inversion = bool({"ZF", "NS-ZF"} & set(config.schemes))
    if needs_inversion and config.users * rx_cells > tx_cells:
        raise ValueError(
            f"zero-forcing requires total streams K = users x rx_cells "
            f"({config.users} x {rx_cells} = {config.users * rx_cells}) to be "
            f"at most the transmit cell count n_s = {tx_cells}"
        )
    return rx_cells, tx_cells


def _config_payload(config: ScenarioConfig, **extra) -> dict:
    payload = {
        "tx": [config.tx.n_h, config.tx.n_v, config.tx.spacing],
        "rx": [config.rx.n_h, config.rx.n_v, config.rx.spacing],
        "wavelength": config.tx.wavelength,
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
        "wavelength": geometry.wavelength,
        "hemisphere_total": vmap.hemisphere_total,
    }
    lx, ly = vmap.lattice.index_arrays()
    columns = [lx, ly, vmap.raw, vmap.normalized_sigma]
    _write_csv(out, payload, ["lx", "ly", "raw", "sigma"], columns)
    return vmap


def run_eigvals(config: ScenarioConfig, out: Path) -> np.ndarray:
    """Write one user's correlation spectrum, normalized to its largest."""
    rx_map = variance_map(config.rx)
    tx_map = variance_map(config.tx)
    spectrum = correlation_eigenvalues(rx_map, tx_map).eigenvalues
    top = spectrum[0] if spectrum.size and spectrum[0] > 0.0 else 1.0
    normalized = spectrum / top
    payload = _config_payload(config, artifact="eigvals")
    ranks = np.arange(1, normalized.size + 1)
    _write_csv(out, payload, ["rank", "eigenvalue"], [ranks, normalized])
    return normalized


def _se_columns(blocks: list[tuple], grid, sigma: SeparableSigma) -> list:
    """CSV columns of ``(tag, per_stream, sum_se)`` blocks sharing one SNR grid.

    Each block writes, per SNR point, one row per stream and then the sum.
    """
    per_user = sigma.per_user_rows
    labels = [f"{i // per_user + 1},{i % per_user + 1}" for i in range(sigma.rx_sigma.size)]
    labels.append("all,sum")
    rows = len(grid) * len(labels)
    return [
        np.tile(np.repeat(np.asarray(grid, dtype=float), len(labels)), len(blocks)),
        [tag for tag, _, _ in blocks for _ in range(rows)],
        labels * (len(grid) * len(blocks)),
        np.array([np.vstack([values, sums]).T for _, values, sums in blocks]).ravel(),
    ]


def _theory_block(config: ScenarioConfig, sigma: SeparableSigma, scheme: str) -> tuple:
    """Closed-form ``(tag, per_stream, sum_se)`` block of one scheme at unit noise."""
    p_u = [10.0 ** (snr_db / 10.0) for snr_db in config.snr_grid_db]
    table = _theory_table(scheme, sigma.rx_sigma, sigma.tx_sigma, p_u, 1.0)
    return _THEORY_TAGS[scheme], table, table.sum(axis=0)


_SE_COLUMNS = ["snr_db", "scheme", "user", "stream", "se_bits"]


def _sigma(config: ScenarioConfig) -> SeparableSigma:
    """Separable variance matrix of the configured users and transmitter."""
    return separable_sigma(variance_map(config.rx), variance_map(config.tx), config.users)


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
    check_feasibility(config)
    sigma = _sigma(config)
    specs = [(scheme, config.ns_iterations) for scheme in config.schemes]
    estimates = _simulate(sigma, specs, config.snr_grid_db, config.trials, config.seed)
    blocks = []
    for scheme, result in zip(config.schemes, estimates):
        blocks.append((scheme, result.per_stream, result.sum_se))
        if include_theory and scheme in _THEORY_TAGS:
            blocks.append(_theory_block(config, sigma, scheme))
    columns = _se_columns(blocks, config.snr_grid_db, sigma)
    _write_csv(out, _config_payload(config), _SE_COLUMNS, columns)
    return dict(zip(config.schemes, estimates))


def run_se_theory(config: ScenarioConfig, out: Path) -> None:
    """Write the closed-form SE curves for the configured schemes."""
    for scheme in config.schemes:
        if scheme not in _THEORY_TAGS:
            raise ValueError(f"no closed form available for scheme {scheme!r}")
    sigma = _sigma(config)
    blocks = [_theory_block(config, sigma, scheme) for scheme in config.schemes]
    columns = _se_columns(blocks, config.snr_grid_db, sigma)
    _write_csv(out, _config_payload(config), _SE_COLUMNS, columns)


def run_ns_compare(
    config: ScenarioConfig, iterations: tuple[int, ...], out: Path
) -> dict[str, SEResult]:
    """Compare exact ZF with the series scheme at several orders.

    All orders share each draw and one Horner pass; a repeated or negative
    order raises ``ValueError`` before any trial runs.
    """
    if len(set(iterations)) < len(iterations) or min(iterations, default=0) < 0:
        raise ValueError(f"invalid value for iters: {iterations!r} (repeated or negative)")
    base = replace(config, schemes=("ZF",))
    check_feasibility(base)
    sigma = _sigma(config)
    tags = ["ZF", *(f"NS-ZF-{order}" for order in iterations)]
    specs = [("ZF", None), *(("NS-ZF", order) for order in iterations)]
    estimates = _simulate(sigma, specs, config.snr_grid_db, config.trials, config.seed)
    blocks = [(tag, result.per_stream, result.sum_se) for tag, result in zip(tags, estimates)]
    columns = _se_columns(blocks, config.snr_grid_db, sigma)
    payload = _config_payload(config, ns_orders=list(iterations))
    _write_csv(out, payload, _SE_COLUMNS, columns)
    return dict(zip(tags, estimates))


def _spacing_tag(spacing: float) -> str:
    frac = Fraction(spacing).limit_denominator(1000)
    return f"{frac.numerator}_{frac.denominator}"


def _geometry_for(count: int, spacing: float, scale: float) -> ArrayGeometry:
    side_h, side_v = _near_square(count)
    return _scaled_geometry(ArrayGeometry(side_h, side_v, spacing), scale)


def preset_jobs(
    name: str,
    *,
    scale: float = 1.0,
    trials: int | None = None,
    seed: int | None = None,
) -> list[tuple[str, ScenarioConfig, str, tuple]]:
    """Expand a preset name into (stem, config, kind, detail) jobs.

    Kinds are ``"eigvals"``, ``"se"`` (Monte Carlo plus closed forms where
    available), and ``"ns"`` (exact-versus-series comparison whose detail
    carries the series orders).
    """
    if name not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")
    if scale <= 0.0:
        raise ValueError(f"scale must be positive, got {scale!r}")

    def cfg(ns, ds, nr, dr, users, schemes) -> ScenarioConfig:
        config = ScenarioConfig(
            tx=_geometry_for(ns, ds, scale),
            rx=_geometry_for(nr, dr, scale),
            users=users,
            schemes=schemes,
        )
        if trials is not None:
            config = replace(config, trials=trials)
        if seed is not None:
            config = replace(config, seed=seed)
        return config

    third = 1.0 / 3.0
    sixth = 1.0 / 6.0
    jobs: list[tuple[str, ScenarioConfig, str, tuple]] = []
    if name == "fig3":
        for dr in (sixth, third, 0.5):
            config = cfg(900, third, 576, dr, 1, ("MRT",))
            jobs.append((f"fig3_dr{_spacing_tag(dr)}", config, "eigvals", ()))
    elif name == "fig4":
        for ns in (576, 900, 3600):
            config = cfg(ns, third, 144, third, 3, ("ZF", "MMSE"))
            jobs.append((f"fig4_ns{ns}", config, "se", ()))
    elif name == "fig5":
        for ns in (144, 576, 900):
            config = cfg(ns, third, 144, third, 3, ("MRT",))
            jobs.append((f"fig5_ns{ns}", config, "se", ()))
    elif name == "fig6":
        for nr in (72, 144, 288):
            config = cfg(900, sixth, nr, sixth, 3, ("MRT", "ZF", "MMSE"))
            jobs.append((f"fig6_nr{nr}", config, "se", ()))
    elif name == "fig7":
        for ds in (sixth, 1.0 / 15.0):
            config = cfg(3600, ds, 144, third, 1, ("MRT", "ZF", "MMSE"))
            jobs.append((f"fig7_ds{_spacing_tag(ds)}", config, "se", ()))
    else:
        config = cfg(729, third, 144, third, 1, ("ZF",))
        jobs.append(("fig8", config, "ns", (2, 3, 4, 7)))
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
        jobs = preset_jobs(name, scale=scale, trials=trials, seed=seed)
        out_dir = Path(out)
        for stem, config, kind, detail in jobs:
            target = out_dir / f"{stem}.csv"
            if kind == "eigvals":
                run_eigvals(config, target)
            elif kind == "se":
                run_se_sim(config, target, include_theory=True)
            else:
                run_ns_compare(config, detail, target)
    except Exception as exc:  # noqa: BLE001 - CLI boundary turns failures into status
        print(f"holosim preset {name}: {exc}", file=sys.stderr)
        return 1
    return 0
