"""Linear precoders for stacked wavenumber-domain channels.

Every scheme is computed from the users' K×K Gram matrix ``G = H_a H_aᴴ``.
Its core maps ``G`` to a coefficient matrix ``X`` and a per-column scale
``s``, so that the transmit matrix is ``V = H_aᴴ X diag(s)`` and the
coupled matrix the receivers see is ``H_a V = G X diag(s)``.  The public
precoders and the Monte Carlo loop of :mod:`holosim.rate` share these
cores.  Every ``V`` has unit Frobenius norm, so that every Monte Carlo
trial satisfies the total power constraint on its own.  Streams whose
channel row is identically zero (cells on the edge of the propagating disk
can carry exactly zero power) are excluded from inversions and get
all-zero precoding columns; power is shared over the streams that remain.
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
        alpha: Scalar normalization applied on top of any per-column
            scaling.
        ns_iterations: Series order used by the ``"NS-ZF"`` scheme, ``None``
            otherwise.
        column_gains: For the inverting schemes, the per-stream channel
            gains ``1/‖f_i‖`` of the unnormalized solution columns (zero for
            excluded streams); ``None`` for schemes that do not solve.
    """

    v: np.ndarray
    scheme: str
    alpha: float
    ns_iterations: int | None = None
    column_gains: np.ndarray | None = None


def _column_energy(x: np.ndarray, gx: np.ndarray) -> np.ndarray:
    """Diagonal of ``Xᴴ G X``: the squared column norms of ``H_aᴴ X``."""
    return np.einsum("ij,ij->j", x.conj(), gx).real


def _mrt_core(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """MRT core: ``X = I`` and ``s = 1/sqrt(tr G)``.

    Returns ``(X, G X, s)``, like every core.
    """
    total = float(np.trace(gram).real)
    if total == 0.0:
        raise ValueError("cannot match an all-zero channel")
    streams = gram.shape[0]
    return np.eye(streams), gram, np.full(streams, 1.0 / np.sqrt(total))


def _zf_core(
    gram: np.ndarray, iterations: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ZF core, or the NS-ZF core when a series order is given.

    ``X`` is the inverse of the Gram block of the active streams (those with
    ``G_ii > 0``), or its order-``iterations`` Neumann series, and zero
    elsewhere; ``s_i = 1/(sqrt(|A|) sqrt((Xᴴ G X)_ii))`` on active streams.
    """
    active = np.diagonal(gram).real > 0.0
    count = int(active.sum())
    if count == 0:
        raise ValueError("cannot zero-force an all-zero channel")
    block = np.ix_(active, active)
    g_aa = gram[block]
    if iterations is None:
        if np.linalg.cond(g_aa) > _CONDITION_LIMIT:
            raise SingularChannelError("channel Gram matrix is numerically singular")
        inverse = np.linalg.solve(g_aa, np.eye(count))
    else:
        inverse = neumann_inverse(g_aa, iterations)
    x = np.zeros_like(gram)
    x[block] = inverse
    gx = gram @ x
    energy = _column_energy(x, gx)[active]
    if np.any(energy <= 0.0):
        raise SingularChannelError("inversion produced a zero precoding column")
    scale = np.zeros(gram.shape[0])
    scale[active] = 1.0 / (np.sqrt(count) * np.sqrt(energy))
    return x, gx, scale


def _mmse_core(
    gram: np.ndarray, snr: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """MMSE core: ``X = (G + (K/snr) I)^-1`` and ``s = 1/sqrt(tr Xᴴ G X)``."""
    if not snr > 0.0:
        raise ValueError(f"snr must be positive, got {snr!r}")
    streams = gram.shape[0]
    x = np.linalg.solve(gram + (streams / snr) * np.eye(streams), np.eye(streams))
    gx = gram @ x
    return x, gx, np.full(streams, 1.0 / np.sqrt(_column_energy(x, gx).sum()))


def _require_cells(rows: np.ndarray) -> None:
    """Raise if more rows are nonzero than there are transmit cells."""
    active = int(np.count_nonzero(np.any(rows != 0.0, axis=1)))
    if active > rows.shape[1]:
        raise ValueError(f"{active} active streams exceed {rows.shape[1]} transmit cells")


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
    x, _, scale = _mrt_core(h_a @ h_a.conj().T)
    return Precoder(v=h_a.conj().T @ (x * scale), scheme="MRT", alpha=float(scale[0]))


def _zero_forcing(
    realization: ChannelRealization, scheme: str, iterations: int | None = None
) -> Precoder:
    """Package the ZF or NS-ZF core as a per-column normalized precoder."""
    h_a = realization.h_a
    _require_cells(h_a)
    x, _, scale = _zf_core(h_a @ h_a.conj().T, iterations)
    alpha = 1.0 / np.sqrt(np.count_nonzero(scale))
    return Precoder(
        v=h_a.conj().T @ (x * scale),
        scheme=scheme,
        alpha=alpha,
        ns_iterations=iterations,
        column_gains=scale / alpha,
    )


def zf(realization: ChannelRealization) -> Precoder:
    """Zero-forcing precoding with per-column (vector) normalization.

    The right pseudo-inverse is solved on the streams with nonzero channel
    rows; each of its columns is scaled to equal power so that interference
    is nulled exactly and the power constraint is met per realization.

    Args:
        realization: Channel draw; requires at least as many transmit cells
            as active streams.

    Returns:
        The precoder, with ``column_gains`` recording each stream's
        pseudo-inverse column gain.

    Raises:
        SingularChannelError: If the Gram matrix of the active streams has
            condition number above 1e12.
        ValueError: If there are more active streams than transmit cells or
            no active streams at all.
    """
    return _zero_forcing(realization, "ZF")


def mmse(realization: ChannelRealization, snr: float) -> Precoder:
    """Regularized inversion with noise loading matched to the SNR.

    The Gram matrix is loaded with ``streams / snr`` on the diagonal before
    inversion, then the result is Frobenius-normalized.  The loading keeps
    the solve well-posed at any draw, interpolating between matched
    transmission at low SNR and zero-forcing at high SNR.

    Args:
        realization: Channel draw.
        snr: Transmit power over noise variance; must be positive.

    Returns:
        The precoder.

    Raises:
        ValueError: If ``snr`` is not positive.
    """
    h_a = realization.h_a
    x, _, scale = _mmse_core(h_a @ h_a.conj().T, snr)
    return Precoder(v=h_a.conj().T @ (x * scale), scheme="MMSE", alpha=float(scale[0]))


def neumann_inverse(w_tilde: np.ndarray, iterations: int) -> np.ndarray:
    """Truncated Neumann series approximation of a matrix inverse.

    Splitting ``w_tilde`` into its diagonal ``D`` and off-diagonal ``E``,
    the order-``iterations`` series is accumulated Horner style,
    ``X <- D^{-1} - D^{-1} E X``, so each extra order costs one
    matrix-matrix product.  The series converges to the true inverse only
    when the spectral radius of ``D^{-1} E`` is below one; for dominant
    off-diagonal mass the residual grows with the order instead.

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
    w_tilde = np.asarray(w_tilde)
    if w_tilde.ndim != 2 or w_tilde.shape[0] != w_tilde.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {w_tilde.shape}")
    if not isinstance(iterations, (int, np.integer)) or iterations < 0:
        raise ValueError(f"iterations must be a nonnegative integer, got {iterations!r}")
    diag = np.diag(w_tilde)
    if np.any(diag == 0.0):
        raise ValueError("diagonal entries must be nonzero")
    inv_diag = 1.0 / diag
    off = w_tilde - np.diag(diag)
    scaled_off = inv_diag[:, None] * off
    base = np.diag(inv_diag)
    result = base
    for _ in range(iterations):
        result = base - scaled_off @ result
    return result


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
