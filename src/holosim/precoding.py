"""Linear precoders for stacked wavenumber-domain channels.

Every scheme is computed from the users' K×K Gram matrix ``G = H_a H_aᴴ``.
Its core maps ``G`` to a coefficient matrix ``X`` and a per-column scale
``s``, so that the transmit matrix is ``V = H_aᴴ X diag(s)`` and the
coupled matrix the receivers see is ``H_a V = G X diag(s)``.  ZF and MMSE
filter one eigendecomposition ``G_AA = U Λ Uᴴ`` of the active Gram block,
``X = U f(Λ) Uᴴ`` with ``f = 1/λ`` or ``1/(λ + a)``; NS-ZF takes every
series order, and its coupled matrix ``G X``, from one Horner pass.  The
public precoders and the Monte Carlo engine of :mod:`holosim.rate` share
these cores.  Every ``V`` has unit Frobenius norm, so that every Monte
Carlo trial satisfies the total power constraint on its own.  Streams
whose channel row is identically zero (cells on the edge of the
propagating disk can carry exactly zero power) are excluded from
inversions and get all-zero precoding columns; power is shared over the
streams that remain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization

__all__ = [
    "SingularChannelError",
    "Precoder",
    "mrt",
    "zf",
    "mmse",
    "neumann_inverse",
    "ns_zf",
]

_CONDITION_LIMIT = 1e12


class SingularChannelError(RuntimeError):
    """The channel Gram matrix is too ill-conditioned to invert."""


@dataclass(frozen=True)
class Precoder:
    """Transmit matrix with bookkeeping for rate evaluation.

    Attributes:
        v: Complex matrix of shape ``(tx_cells, streams)`` with unit
            Frobenius norm; column ``i`` precodes stream ``i``.
        scheme: One of ``"MRT"``, ``"ZF"``, ``"MMSE"``, ``"NS-ZF"``.
        ns_iterations: Series order used by the ``"NS-ZF"`` scheme, ``None``
            otherwise.
    """

    v: np.ndarray
    scheme: str
    ns_iterations: int | None = None


def _active_block(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mask of the active streams (``G_ii > 0``) and their Gram block ``G_AA``."""
    active = np.diagonal(gram).real > 0.0
    if active.all():
        return active, gram
    if not active.any():
        raise ValueError("cannot precode an all-zero channel")
    return active, gram[active][:, active]


def _zf_filter(eigenvalues: np.ndarray) -> np.ndarray:
    """ZF's filter ``1/λ``; singular if ``λ_min <= 0`` or ``λ_max/λ_min > 1e12``."""
    low, high = eigenvalues[0], eigenvalues[-1]  # eigh sorts ascending
    if not low > 0.0 or high / low > _CONDITION_LIMIT:
        raise SingularChannelError("channel Gram matrix is numerically singular")
    return 1.0 / eigenvalues


def _mmse_energy(eigenvalues: np.ndarray, loading) -> np.ndarray:
    """``tr Xᴴ G X = Σ λ/(λ+a)²`` of MMSE's ``X``, one entry per loading ``a``."""
    lam = eigenvalues[:, None]
    return (lam / (lam + loading) ** 2).sum(axis=0)


def _require_cells(live_streams: np.ndarray, live_cells: np.ndarray) -> tuple[int, int]:
    """Live stream and cell counts; raise if the streams outnumber the cells (ZF's rule)."""
    streams, cells = int(np.count_nonzero(live_streams)), int(np.count_nonzero(live_cells))
    if streams > cells:
        raise ValueError(f"{streams} active streams exceed {cells} active transmit cells")
    return streams, cells


def mrt(realization: ChannelRealization) -> Precoder:
    """Maximum-ratio transmission: match the channel, normalize total power.

    Args:
        realization: Channel draw to precode.

    Returns:
        The precoder with ``v`` equal to the conjugate transpose of the
        channel scaled to unit Frobenius norm.

    Raises:
        ValueError: If the channel is identically zero.
    """
    h_a = realization.h_a
    total = float(np.trace(h_a @ h_a.conj().T).real)
    if total == 0.0:
        raise ValueError("cannot match an all-zero channel")
    scale = 1.0 / np.sqrt(total)
    return Precoder(v=h_a.conj().T * scale, scheme="MRT")


def _zero_forcing(
    realization: ChannelRealization, scheme: str, iterations: int | None = None
) -> Precoder:
    """Package the ZF or NS-ZF core as a per-column normalized precoder."""
    h_a = realization.h_a
    nonzero = h_a != 0.0
    _require_cells(nonzero.any(axis=1), nonzero.any(axis=0))
    gram = h_a @ h_a.conj().T
    active, g_aa = _active_block(gram)
    if iterations is None:
        eigenvalues, u = np.linalg.eigh(g_aa)
        block = (u * _zf_filter(eigenvalues)) @ u.conj().T
    else:
        block = neumann_inverse(g_aa, iterations)
    # s_i = 1/(sqrt(|A|) sqrt(e_i)), e_i = (Xᴴ G X)_ii = ‖H_aᴴ X e_i‖²
    energy = np.einsum("ij,ij->j", block.conj(), g_aa @ block).real
    if np.any(energy <= 0.0):
        raise SingularChannelError("inversion produced a zero precoding column")
    scale = np.zeros(active.size)
    scale[active] = 1.0 / (np.sqrt(energy.size) * np.sqrt(energy))
    x = np.zeros_like(gram)
    x[np.ix_(active, active)] = block
    return Precoder(v=h_a.conj().T @ (x * scale), scheme=scheme, ns_iterations=iterations)


def zf(realization: ChannelRealization) -> Precoder:
    """Zero-forcing precoding with per-column (vector) normalization.

    The right pseudo-inverse is formed on the streams with nonzero channel
    rows as ``G_AA⁻¹ = U Λ⁻¹ Uᴴ``, the eigendecomposition that the Monte
    Carlo engine shares with MMSE; each of its columns is scaled to equal
    power so that interference is nulled exactly and the power constraint
    is met per realization.

    Args:
        realization: Channel draw; requires at least as many transmit cells
            as active streams.

    Returns:
        The precoder; each active stream's column has norm
        ``1/sqrt(active streams)``.

    Raises:
        SingularChannelError: If the Gram block of the active streams has
            condition number ``λ_max/λ_min`` above 1e12 or a nonpositive
            smallest eigenvalue.
        ValueError: If there are more active streams than transmit cells or
            no active streams at all.
    """
    return _zero_forcing(realization, "ZF")


def mmse(realization: ChannelRealization, snr: float) -> Precoder:
    """Regularized inversion with noise loading matched to the SNR.

    The Gram matrix is loaded with ``a = streams / snr`` on the diagonal
    (dead streams counted) and inverted as ``U (Λ + a)⁻¹ Uᴴ``, the
    eigendecomposition that gives the Monte Carlo engine every SNR point at
    once; the result is Frobenius-normalized.  The loading keeps the
    inversion well-posed at any draw, interpolating between matched
    transmission at low SNR and zero-forcing at high SNR.

    Args:
        realization: Channel draw.
        snr: Transmit power over noise variance; must be positive.

    Returns:
        The precoder.

    Raises:
        ValueError: If ``snr`` is not positive or the channel is all zero.
    """
    if not snr > 0.0:
        raise ValueError(f"snr must be positive, got {snr!r}")
    h_a = realization.h_a
    gram = h_a @ h_a.conj().T
    active, g_aa = _active_block(gram)
    eigenvalues, u = np.linalg.eigh(g_aa)
    loading = gram.shape[0] / snr
    x = np.zeros_like(gram)
    x[np.ix_(active, active)] = (u / (eigenvalues + loading)) @ u.conj().T
    scale = 1.0 / np.sqrt(_mmse_energy(eigenvalues, loading)[0])
    return Precoder(v=h_a.conj().T @ (x * scale), scheme="MMSE")


def neumann_inverse(w_tilde: np.ndarray, iterations: int) -> np.ndarray:
    """Truncated Neumann series approximation of a matrix inverse.

    Splitting ``w_tilde`` into its diagonal ``D`` and off-diagonal ``E``,
    the order-``iterations`` series is accumulated Horner style,
    ``X_k = D^{-1} - Q_k`` with ``Q_k = D^{-1} E X_{k-1}``, so each extra
    order costs one matrix-matrix product.  As ``D X_n = I - D Q_n`` and
    ``E X_n = D Q_{n+1}``, ``w_tilde X_n = I + D (Q_{n+1} - Q_n)``: one more
    step gives the coupled matrix without a product of its own.  The series
    converges to the true inverse only when the spectral radius of
    ``D^{-1} E`` is below one; otherwise the residual grows with the order.

    Args:
        w_tilde: Square matrix to invert approximately.
        iterations: Highest series order, at least 0 (order 0 returns
            ``D^{-1}``).

    Returns:
        The order-``iterations`` series value.

    Raises:
        ValueError: On a non-square input, a negative order, or a zero
            diagonal entry.
    """
    return _neumann_series(w_tilde, (iterations,))[iterations]


def _neumann_series(w_tilde: np.ndarray, orders) -> dict[int, np.ndarray]:
    """The series at each of ``orders``, as snapshots of one Horner pass."""
    w_tilde = np.asarray(w_tilde)
    if w_tilde.ndim != 2 or w_tilde.shape[0] != w_tilde.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {w_tilde.shape}")
    for order in orders:
        if not isinstance(order, (int, np.integer)) or order < 0:
            raise ValueError(f"iterations must be a nonnegative integer, got {order!r}")
    diag = np.diag(w_tilde)
    if np.any(diag == 0.0):
        raise ValueError("diagonal entries must be nonzero")
    inv_diag = 1.0 / diag
    off = w_tilde - np.diag(diag)
    scaled_off = inv_diag[:, None] * off
    base = result = np.diag(inv_diag)
    series, reached = {}, 0
    for order in sorted(set(orders)):
        for _ in range(order - reached):
            result = base - scaled_off @ result
        series[order], reached = result, order
    return series


def _neumann_coupled(w_tilde: np.ndarray, orders) -> list[tuple[np.ndarray, np.ndarray]]:
    """``(X_n, w_tilde X_n)`` for each ``n`` of ``orders``, from one Horner pass.

    The pass runs one order past each ``n``: ``w_tilde X_n = I + D (X_n - X_{n+1})``
    (see :func:`neumann_inverse`) needs no product of its own.
    """
    snapshots = _neumann_series(w_tilde, [*orders, *(order + 1 for order in orders)])
    diag = np.diag(w_tilde)
    pairs = []
    for order in orders:
        coupled = snapshots[order] - snapshots[order + 1]
        coupled *= diag[:, None]
        coupled.reshape(-1)[:: diag.size + 1] += 1.0
        pairs.append((snapshots[order], coupled))
    return pairs


def ns_zf(realization: ChannelRealization, iterations: int = 3) -> Precoder:
    """Zero-forcing with the Gram inverse replaced by a Neumann series.

    The series is the Jacobi splitting of the active streams' Gram block
    (see :func:`neumann_inverse`) and is applied like the exact
    zero-forcing inverse, including the per-column normalization.  It
    converges only when the spectral radius of ``D^{-1} E`` is below one,
    and diverges otherwise: for one 12x12 user against 27x27 transmit
    patches at one-third wavelength the radius lies between 1.02 and 1.32 on
    each of 50 draws, and the order-4, 7 and 20 sums fall further and
    further below exact zero-forcing.

    Args:
        realization: Channel draw.
        iterations: Highest series order; defaults to 3.

    Returns:
        The precoder, with ``ns_iterations`` set.

    Raises:
        ValueError: If there are more active streams than transmit cells,
            no active stream at all, or an invalid order.
    """
    return _zero_forcing(realization, "NS-ZF", iterations)
