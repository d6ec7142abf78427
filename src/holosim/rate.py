"""Spectral-efficiency evaluation: Monte Carlo and closed forms.

Per-stream SINR treats every other stream, of every user, as interference:
all streams are precoded jointly, so the interference footprint seen in
simulation matches the one assumed by the closed-form expressions.  Monte
Carlo estimates average the per-stream rates over independent channel draws
with per-trial seeds split deterministically from one root seed, so results
are reproducible regardless of scheme or trial count.
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
    _mmse_core,
    _mrt_core,
    _require_cells,
    _zf_core,
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


def _sinr_from_powers(
    signal: np.ndarray, interference: np.ndarray, p_u: float, noise_var: float
) -> np.ndarray:
    sinr = np.zeros_like(signal)
    live = signal > 0.0
    den = p_u * interference[live] + noise_var
    with np.errstate(divide="ignore"):
        ratio = p_u * signal[live] / den
    sinr[live] = np.minimum(np.nan_to_num(ratio, posinf=SINR_CAP), SINR_CAP)
    return sinr


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
    return _sinr_from_powers(signal, interference, p_u, noise_var)


def _powers_per_snr(
    gram: np.ndarray, scheme: str, snr_values: np.ndarray, ns_iterations: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Signal and interference powers of ``G X diag(s)`` at every SNR point.

    Only MMSE depends on the SNR; the other schemes share one pair.
    """
    if scheme == "MMSE":
        cores = [_mmse_core(gram, snr) for snr in snr_values]
    elif scheme == "MRT":
        cores = [_mrt_core(gram)]
    else:
        cores = [_zf_core(gram, ns_iterations if scheme == "NS-ZF" else None)]
    powers = [_signal_and_interference(gx * scale) for _, gx, scale in cores]
    return powers * (len(snr_values) // len(powers))


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
    accumulates ``log2(1 + SINR)`` per stream.  Draws rejected as singular
    by the inverting schemes are redrawn with the attempt counter bumped, so
    the output is reproducible even when rejections occur; a rejection rate
    above 1% of the trial count is reported as a warning.

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
    tag = _canonical_scheme(scheme)
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials!r}")
    grid = tuple(float(v) for v in np.atleast_1d(np.asarray(snr_grid_db, dtype=float)))
    p_u_values = noise_var * 10.0 ** (np.asarray(grid) / 10.0)
    snr_values = 10.0 ** (np.asarray(grid) / 10.0)
    if tag in ("ZF", "NS-ZF"):
        _require_cells(sigma.matrix)

    streams = sigma.matrix.shape[0]
    accum = np.zeros((streams, len(grid)))
    accum_sq = np.zeros((streams, len(grid)))
    trial_se = np.zeros((streams, len(grid)))
    rejections = 0
    for trial in range(trials):
        for attempt in range(_MAX_REDRAWS_PER_TRIAL):
            root = np.random.SeedSequence(entropy=seed, spawn_key=(trial, attempt))
            h_a = draw_wavenumber_channel(sigma, root).h_a
            try:
                powers = _powers_per_snr(
                    h_a @ h_a.conj().T, tag, snr_values, ns_iterations
                )
            except SingularChannelError:
                rejections += 1
                continue
            break
        else:
            raise SingularChannelError(
                f"trial {trial} stayed singular after {_MAX_REDRAWS_PER_TRIAL} redraws"
            )
        for col, (p_u, (signal, interference)) in enumerate(zip(p_u_values, powers)):
            sinr = _sinr_from_powers(signal, interference, p_u, noise_var)
            trial_se[:, col] = np.log2(1.0 + sinr)
        accum += trial_se
        accum_sq += trial_se**2

    if rejections > 0.01 * trials:
        warnings.warn(
            f"{rejections} singular draws rejected over {trials} trials",
            RuntimeWarning,
            stacklevel=2,
        )
    per_stream = accum / trials
    variance = np.clip(accum_sq / trials - per_stream**2, 0.0, None)
    return SEResult(
        per_stream=per_stream,
        sum_se=per_stream.sum(axis=0),
        trials=trials,
        snr_grid_db=grid,
        scheme=tag,
        rejections=rejections,
        per_stream_stderr=np.sqrt(variance / trials),
    )


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
