"""Spectral-efficiency evaluation: Monte Carlo and closed forms.

Per-stream SINR treats every other stream, of every user, as interference:
all streams are precoded jointly, so the interference footprint seen in
simulation matches the one assumed by the closed-form expressions.  Monte
Carlo estimates average the per-stream rates over independent channel draws
with per-trial seeds split deterministically from one root seed, so results
are reproducible regardless of scheme or trial count.  One engine serves
every scheme and series order of a job, sharing each draw, its Gram, one
``eigh`` (ZF, MMSE) and one Neumann pass (NS-ZF); rates cover the SNR grid.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, draw_wavenumber_channel
from .precoding import (
    Precoder,
    SingularChannelError,
    _active_block,
    _inverse_core,
    _mmse_energy,
    _mrt_scale,
    _neumann_series,
    _require_cells,
    _zf_filter,
)
from .spectrum import SeparableSigma

__all__ = [
    "SEResult",
    "SINR_CAP",
    "per_stream_sinr",
    "simulated_se",
    "mrt_theoretical_bound",
    "zf_theoretical",
]

SINR_CAP = 1e12

_SCHEMES = ("MRT", "ZF", "MMSE", "NS-ZF")
_MAX_REDRAWS_PER_TRIAL = 64


@dataclass(frozen=True)
class SEResult:
    """Monte Carlo spectral-efficiency estimate over an SNR grid.

    Attributes:
        per_stream: Real matrix of shape ``(streams, snr_points)`` in
            bits/s/Hz.
        sum_se: Per-SNR column sums of ``per_stream``.
        trials: Number of accepted Monte Carlo trials averaged.
        snr_grid_db: SNR grid in dB, one entry per column.
        scheme: Precoder scheme tag the estimate belongs to.
        rejections: Channel draws discarded as numerically singular and
            redrawn.
        per_stream_stderr: Monte Carlo standard error of every ``per_stream``
            entry (zero when only one trial was run).
    """

    per_stream: np.ndarray
    sum_se: np.ndarray
    trials: int
    snr_grid_db: tuple[float, ...]
    scheme: str
    rejections: int = 0
    per_stream_stderr: np.ndarray | None = None

    def __post_init__(self) -> None:
        per_stream = np.asarray(self.per_stream, dtype=float)
        sum_se = np.asarray(self.sum_se, dtype=float)
        object.__setattr__(self, "per_stream", per_stream)
        object.__setattr__(self, "sum_se", sum_se)
        object.__setattr__(self, "snr_grid_db", tuple(float(v) for v in self.snr_grid_db))
        if per_stream.ndim != 2 or per_stream.shape[1] != len(self.snr_grid_db):
            raise ValueError("per_stream must be streams x snr_points")
        if np.any(per_stream < 0.0):
            raise ValueError("spectral efficiencies must be nonnegative")
        if not np.allclose(sum_se, per_stream.sum(axis=0), rtol=0.0, atol=1e-9):
            raise ValueError("sum_se must equal the column sums of per_stream")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")


def _canonical_scheme(scheme: str) -> str:
    tag = scheme.strip().upper().replace("_", "-")
    if tag not in _SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {_SCHEMES}")
    return tag


def _signal_and_interference(coupled: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-stream |desired|^2 and total |cross-talk|^2 of a K×K coupled matrix."""
    powers = np.abs(coupled) ** 2
    signal = np.diagonal(powers).copy()
    interference = powers.sum(axis=1) - signal
    return signal, interference


def _sinr(signal: np.ndarray, interference: np.ndarray, p_u, noise_var) -> np.ndarray:
    """Capped SINR, zero where the signal is zero; broadcasts over SNR columns."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = p_u * signal / (p_u * interference + noise_var)
    capped = np.minimum(np.nan_to_num(ratio, posinf=SINR_CAP), SINR_CAP)
    return np.where(signal > 0.0, capped, 0.0)


def per_stream_sinr(
    realization: ChannelRealization,
    precoder: Precoder,
    p_u: float,
    noise_var: float,
) -> np.ndarray:
    """SINR of every stream under joint precoding.

    Stream ``i`` receives its own precoded signal on the diagonal of the
    coupled matrix and the other ``K - 1`` columns, both of its own user and
    of all others, as interference.  SINRs are capped at ``SINR_CAP`` so
    that interference-free streams at zero noise stay finite.

    Args:
        realization: Channel draw.
        precoder: Precoder to evaluate.
        p_u: Transmit power, positive.
        noise_var: Receiver noise variance, nonnegative.

    Returns:
        Vector of per-stream SINRs.

    Raises:
        ValueError: On nonpositive power, negative noise variance, or
            mismatched dimensions.
    """
    if not p_u > 0.0:
        raise ValueError(f"p_u must be positive, got {p_u!r}")
    if noise_var < 0.0:
        raise ValueError(f"noise_var must be nonnegative, got {noise_var!r}")
    h_a, v = realization.h_a, precoder.v
    if h_a.shape[1] != v.shape[0] or h_a.shape[0] != v.shape[1]:
        raise ValueError(
            f"channel {h_a.shape} and precoder {v.shape} dimensions disagree"
        )
    signal, interference = _signal_and_interference(h_a @ v)
    return _sinr(signal, interference, p_u, noise_var)


def _draw_powers(gram: np.ndarray, specs: list, loading: np.ndarray) -> list:
    """Signal and interference of every spec on one draw; ``None`` if it rejects it."""
    tags = {tag for tag, _ in specs}
    if tags != {"MRT"}:
        active, g_aa = _active_block(gram)
    if tags & {"ZF", "MMSE"}:  # one eigh serves both; one Horner pass all NS-ZF orders
        eigenvalues, u = np.linalg.eigh(g_aa)
        w = np.abs(u) ** 2
    if "NS-ZF" in tags:
        series = _neumann_series(g_aa, [order for tag, order in specs if tag == "NS-ZF"])
    powers: list[tuple[np.ndarray, np.ndarray] | None] = []
    for tag, order in specs:
        try:
            if tag == "MRT":
                powers.append(_signal_and_interference(gram * _mrt_scale(gram)))
            elif tag == "NS-ZF":
                _, gx, scale = _inverse_core(gram, active, series[order])
                powers.append(_signal_and_interference(gx * scale))
            elif tag == "ZF":  # G X diag(s) = diag(s), s_i² = 1/(|A| (W/λ)_i), W = |U|²
                signal = np.zeros(gram.shape[0])
                signal[active] = 1.0 / (g_aa.shape[0] * (w @ _zf_filter(eigenvalues)))
                powers.append((signal, np.zeros_like(signal)))
            else:  # MMSE: G X diag(s) = U λ/(λ+a) Uᴴ / sqrt(Σ λ/(λ+a)²)
                gain = eigenvalues[:, None] / (eigenvalues[:, None] + loading)
                diagonal = w @ gain
                mmse = np.zeros((2, gram.shape[0], loading.size))
                mmse[0, active] = diagonal**2
                mmse[1, active] = w @ gain**2 - diagonal**2
                powers.append(tuple(mmse / _mmse_energy(eigenvalues, loading)))
        except SingularChannelError:
            powers.append(None)
    return powers


def _simulate(
    sigma: SeparableSigma, specs, snr_grid_db, trials: int, seed: int, noise_var=1.0
) -> list[SEResult]:
    """Monte Carlo engine shared by every ``(scheme, series order)`` of a job.

    Each ``(trial, attempt)`` draw goes to every spec still pending for the
    trial; one that rejects it waits for ``attempt + 1``, so each spec sees
    the draws, rejections and warning it would see alone.
    """
    specs = [(_canonical_scheme(scheme), order) for scheme, order in specs]
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials!r}")
    if any(tag in ("ZF", "NS-ZF") for tag, _ in specs):
        _require_cells(sigma.matrix)
    grid = tuple(float(v) for v in np.atleast_1d(np.asarray(snr_grid_db, dtype=float)))
    p_u = noise_var * 10.0 ** (np.asarray(grid) / 10.0)
    streams = sigma.matrix.shape[0]
    loading = streams / 10.0 ** (np.asarray(grid) / 10.0)

    accum = np.zeros((len(specs), streams, len(grid)))
    accum_sq = np.zeros_like(accum)
    rejections = [0] * len(specs)
    for trial in range(trials):
        pending = list(range(len(specs)))
        for attempt in range(_MAX_REDRAWS_PER_TRIAL):
            root = np.random.SeedSequence(entropy=seed, spawn_key=(trial, attempt))
            h_a = draw_wavenumber_channel(sigma, root).h_a
            powers = _draw_powers(h_a @ h_a.conj().T, [specs[i] for i in pending], loading)
            for index, power in zip(pending, powers):
                if power is None:
                    rejections[index] += 1
                    continue
                signal, interference = (np.reshape(p, (streams, -1)) for p in power)
                trial_se = np.log2(1.0 + _sinr(signal, interference, p_u, noise_var))
                accum[index] += trial_se
                accum_sq[index] += trial_se**2
            pending = [index for index, power in zip(pending, powers) if power is None]
            if not pending:
                break
        else:
            raise SingularChannelError(
                f"trial {trial} stayed singular after {_MAX_REDRAWS_PER_TRIAL} redraws"
            )

    results = []
    for (tag, _), count, total, total_sq in zip(specs, rejections, accum, accum_sq):
        if count > 0.01 * trials:
            message = f"{count} singular draws rejected over {trials} trials"
            warnings.warn(message, RuntimeWarning, stacklevel=3)
        per_stream = total / trials
        variance = np.clip(total_sq / trials - per_stream**2, 0.0, None)
        stderr = np.sqrt(variance / trials)
        results.append(
            SEResult(per_stream, per_stream.sum(axis=0), trials, grid, tag, count, stderr)
        )
    return results


def simulated_se(
    sigma: SeparableSigma,
    scheme: str,
    snr_grid_db,
    trials: int = 800,
    seed: int = 0,
    *,
    ns_iterations: int = 3,
    noise_var: float = 1.0,
) -> SEResult:
    """Monte Carlo per-stream spectral efficiency over an SNR grid.

    Each trial draws one channel from a seed split deterministically off the
    root seed by ``(trial, attempt)``, forms its Gram matrix once, applies
    the scheme's Gram-domain core (the one behind the public precoders) and
    accumulates ``log2(1 + SINR)`` per stream over the whole SNR grid at
    once; ZF and MMSE read every SNR point from one eigendecomposition of
    the active Gram block.  Draws rejected as singular by the inverting
    schemes are redrawn with the attempt counter bumped, so the output is
    reproducible even when rejections occur; a rejection rate above 1% of
    the trial count is reported as a warning.  The harness runs the same
    engine once for all schemes and series orders of a job, sharing each
    draw among them, with bit-identical results.

    Args:
        sigma: Stacked per-user scale matrix defining the ensemble.
        scheme: ``"mrt"``, ``"zf"``, ``"mmse"``, or ``"ns-zf"`` (any case).
        snr_grid_db: SNR grid in dB; transmit power is swept as
            ``noise_var * 10**(dB/10)``.
        trials: Monte Carlo trials to average, at least 1.
        seed: Root seed of the deterministic per-trial splits.
        ns_iterations: Series order for the ``"ns-zf"`` scheme.
        noise_var: Receiver noise variance.

    Returns:
        The averaged estimate.

    Raises:
        ValueError: On an unknown scheme, a nonpositive trial count, or, for
            ZF and NS-ZF, more active streams than transmit cells.
        SingularChannelError: If a single trial stays singular after many
            redraws (pathological ensembles only).
    """
    return _simulate(
        sigma, [(scheme, ns_iterations)], snr_grid_db, trials, seed, noise_var
    )[0]


def _validate_theory_args(
    rx_sigma: np.ndarray,
    tx_sigma: np.ndarray,
    p_u: float,
    noise_var: float,
    stream: int,
) -> tuple[np.ndarray, np.ndarray]:
    rx = np.asarray(rx_sigma, dtype=float)
    tx = np.asarray(tx_sigma, dtype=float)
    if rx.size == 0 or tx.size == 0:
        raise ValueError("sigma vectors must be nonempty")
    if not p_u > 0.0 or not noise_var > 0.0:
        raise ValueError("p_u and noise_var must be positive")
    if not 0 <= stream < rx.size:
        raise ValueError(f"stream {stream} out of range for {rx.size} streams")
    return rx, tx


def mrt_theoretical_bound(
    rx_sigma: np.ndarray,
    tx_sigma: np.ndarray,
    p_u: float,
    noise_var: float,
    stream: int,
) -> float:
    """Closed-form approximation of the MRT per-stream SE.

    Each power in the SINR of the unit-Frobenius matched precoder is
    replaced by its ensemble average (valid for many transmit cells), with
    ``s`` the receive and ``t`` the transmit scale factors:

    * signal ``(E||h_i||^2)^2 = s_i^4 (sum t^2)^2``;
    * cross-talk from every other stream ``k``, of every user,
      ``E|h_i h_k^H|^2 = s_i^2 s_k^2 sum t^4`` (the exact second moment of
      independent circular Gaussian entries);
    * precoder normalization ``E||H||_F^2 = sum s^2 sum t^2``.

    Despite its name this is an approximation, not a guaranteed lower
    bound: it ignores the fluctuation of the signal energy and the
    correlation between the powers and the joint normalization.  With three
    users at one-third wavelength and 800 trials, it exceeds the simulated
    per-stream SE by at most 1.6 standard errors for 6x6 users against
    14x14 transmit patches (seed 42), and by at most 1.8 to 3.8 standard
    errors for 12x12 users against 24x24 patches (seeds 0 to 4), while
    lying below the simulation on average.

    Args:
        rx_sigma: Stacked per-stream receive scale factors.
        tx_sigma: Transmit scale factors (more than two cells required).
        p_u: Transmit power.
        noise_var: Noise variance.
        stream: Stream index the value is computed for.

    Returns:
        Spectral efficiency in bits/s/Hz.

    Raises:
        ValueError: On empty vectors, invalid scalars, or too few transmit
            cells.
    """
    rx, tx = _validate_theory_args(rx_sigma, tx_sigma, p_u, noise_var, stream)
    if tx.size <= 2:
        raise ValueError("the closed form requires more than two transmit cells")
    rx_sq = rx**2
    own = rx_sq[stream]
    total_tx = float(np.sum(tx**2))
    cross_tx = float(np.sum(tx**4)) / total_tx
    others = float(np.sum(rx_sq)) - own
    numerator = p_u * total_tx * own**2
    denominator = p_u * cross_tx * own * others + noise_var * float(np.sum(rx_sq))
    return math.log2(1.0 + numerator / denominator)


def zf_theoretical(
    rx_sigma: np.ndarray,
    tx_sigma: np.ndarray,
    p_u: float,
    noise_var: float,
    stream: int,
) -> float:
    """Closed-form approximation of the ZF per-stream SE.

    Only streams and transmit cells with nonzero scale factors take part in
    zero-forcing, so the degrees-of-freedom factor and the power split count
    the active ones.

    Args:
        rx_sigma: Stacked per-stream receive scale factors.
        tx_sigma: Transmit scale factors.
        p_u: Transmit power.
        noise_var: Noise variance.
        stream: Stream index the value is computed for.

    Returns:
        Spectral efficiency in bits/s/Hz; zero for a stream with zero scale.

    Raises:
        ValueError: If more streams than transmit cells are active, or on
            invalid arguments.
    """
    rx, tx = _validate_theory_args(rx_sigma, tx_sigma, p_u, noise_var, stream)
    active_streams = int(np.count_nonzero(rx > 0.0))
    active_cells = int(np.count_nonzero(tx > 0.0))
    if active_streams > active_cells:
        raise ValueError(
            f"{active_streams} active streams exceed {active_cells} active "
            f"transmit cells"
        )
    if rx[stream] == 0.0:
        return 0.0
    avg_tx = float(np.sum(tx**2)) / active_cells
    gain = (
        (p_u / (active_streams * noise_var))
        * (active_cells - active_streams + 1)
        * rx[stream] ** 2
        * avg_tx
    )
    return math.log2(1.0 + gain)
