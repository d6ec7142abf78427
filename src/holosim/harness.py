"""Scenario configuration, experiment presets, and CSV emission.

A scenario bundles two surfaces, a user count, an SNR grid, and Monte Carlo
controls.  Named presets reproduce the experiment families of the reference
figures at native or scaled size and write one CSV per series.  Every CSV
starts with a comment line holding the fully resolved configuration as
canonical JSON; a short hash of that JSON is appended to every row so each
row is self-describing, and identical configurations produce byte-identical
files.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from .channel import correlation_eigenvalues
from .geometry import ArrayGeometry, lattice_ellipse
from .rate import (
    SEResult,
    _canonical_scheme,
    mrt_theoretical_bound,
    simulated_se,
    zf_theoretical,
)
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
        object.__setattr__(
            self, "schemes", tuple(_canonical_scheme(s) for s in self.schemes)
        )
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


def _format_field(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{value:.12g}"
    return str(value)


def _write_csv(path: Path, payload: dict, columns: list[str], rows: list[tuple]) -> str:
    """Write rows with the config comment line and per-row hash column."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha1(canonical.encode("utf-8")).hexdigest()[:12]
    lines = [f"# config {canonical}", ",".join([*columns, "config_hash"])]
    for row in rows:
        lines.append(",".join([*(_format_field(v) for v in row), digest]))
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
    rows = [
        (lx, ly, raw, sig)
        for (lx, ly), raw, sig in zip(
            vmap.lattice.cells, vmap.raw, vmap.normalized_sigma
        )
    ]
    _write_csv(out, payload, ["lx", "ly", "raw", "sigma"], rows)
    return vmap


def run_eigvals(config: ScenarioConfig, out: Path) -> np.ndarray:
    """Write one user's correlation spectrum, normalized to its largest."""
    rx_map = variance_map(config.rx)
    tx_map = variance_map(config.tx)
    spectrum = correlation_eigenvalues(rx_map, tx_map).eigenvalues
    top = spectrum[0] if spectrum.size and spectrum[0] > 0.0 else 1.0
    normalized = spectrum / top
    payload = _config_payload(config, artifact="eigvals")
    rows = [(rank + 1, value) for rank, value in enumerate(normalized)]
    _write_csv(out, payload, ["rank", "eigenvalue"], rows)
    return normalized


def _se_rows(result: SEResult, per_user_rows: int, tag: str | None = None) -> list[tuple]:
    scheme = tag if tag is not None else result.scheme
    rows = []
    for col, snr_db in enumerate(result.snr_grid_db):
        for idx in range(result.per_stream.shape[0]):
            rows.append(
                (
                    snr_db,
                    scheme,
                    idx // per_user_rows + 1,
                    idx % per_user_rows + 1,
                    result.per_stream[idx, col],
                )
            )
        rows.append((snr_db, scheme, "all", "sum", result.sum_se[col]))
    return rows


def _theory_rows(
    config: ScenarioConfig,
    rx_sigma: np.ndarray,
    tx_sigma: np.ndarray,
    scheme: str,
    per_user_rows: int,
) -> list[tuple]:
    tag = _THEORY_TAGS[scheme]
    fn = mrt_theoretical_bound if scheme == "MRT" else zf_theoretical
    rows = []
    for snr_db in config.snr_grid_db:
        p_u = 10.0 ** (snr_db / 10.0)
        values = [fn(rx_sigma, tx_sigma, p_u, 1.0, i) for i in range(rx_sigma.size)]
        for idx, value in enumerate(values):
            rows.append(
                (snr_db, tag, idx // per_user_rows + 1, idx % per_user_rows + 1, value)
            )
        rows.append((snr_db, tag, "all", "sum", sum(values)))
    return rows


_SE_COLUMNS = ["snr_db", "scheme", "user", "stream", "se_bits"]


def _sigma(config: ScenarioConfig) -> SeparableSigma:
    """Separable variance matrix of the configured users and transmitter."""
    return separable_sigma(variance_map(config.rx), variance_map(config.tx), config.users)


def run_se_sim(
    config: ScenarioConfig, out: Path, *, include_theory: bool = False
) -> dict[str, SEResult]:
    """Run the configured Monte Carlo estimates and write one CSV.

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
    rows: list[tuple] = []
    results: dict[str, SEResult] = {}
    for scheme in config.schemes:
        result = simulated_se(
            sigma,
            scheme,
            config.snr_grid_db,
            trials=config.trials,
            seed=config.seed,
            ns_iterations=config.ns_iterations,
        )
        results[scheme] = result
        rows.extend(_se_rows(result, sigma.per_user_rows))
        if include_theory and scheme in _THEORY_TAGS:
            rows.extend(
                _theory_rows(
                    config, sigma.rx_sigma, sigma.tx_sigma, scheme, sigma.per_user_rows
                )
            )
    _write_csv(out, _config_payload(config), _SE_COLUMNS, rows)
    return results


def run_se_theory(config: ScenarioConfig, out: Path) -> None:
    """Write the closed-form SE curves for the configured schemes."""
    for scheme in config.schemes:
        if scheme not in _THEORY_TAGS:
            raise ValueError(f"no closed form available for scheme {scheme!r}")
    sigma = _sigma(config)
    rows: list[tuple] = []
    for scheme in config.schemes:
        rows.extend(
            _theory_rows(
                config, sigma.rx_sigma, sigma.tx_sigma, scheme, sigma.per_user_rows
            )
        )
    _write_csv(out, _config_payload(config), _SE_COLUMNS, rows)


def run_ns_compare(
    config: ScenarioConfig, iterations: tuple[int, ...], out: Path
) -> dict[str, SEResult]:
    """Compare exact ZF with the series scheme at several orders."""
    base = replace(config, schemes=("ZF",))
    check_feasibility(base)
    sigma = _sigma(config)
    rows: list[tuple] = []
    results: dict[str, SEResult] = {}
    exact = simulated_se(
        sigma, "ZF", config.snr_grid_db, trials=config.trials, seed=config.seed
    )
    results["ZF"] = exact
    rows.extend(_se_rows(exact, sigma.per_user_rows))
    for order in iterations:
        result = simulated_se(
            sigma,
            "NS-ZF",
            config.snr_grid_db,
            trials=config.trials,
            seed=config.seed,
            ns_iterations=order,
        )
        tag = f"NS-ZF-{order}"
        results[tag] = result
        rows.extend(_se_rows(result, sigma.per_user_rows, tag=tag))
    payload = _config_payload(config, ns_orders=list(iterations))
    _write_csv(out, payload, _SE_COLUMNS, rows)
    return results


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
