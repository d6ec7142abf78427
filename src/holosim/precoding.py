"""Linear precoders for stacked wavenumber-domain channels.

Every scheme is computed by one core from the Gram block ``G_AA`` of the
active streams (rows of ``H_a`` that are not identically zero; the others
get all-zero columns).  A core returns ``X`` or its spectral factors
``(U, f(Λ))``, the squared column scales ``s²`` and the stacked signal and
interference powers of the coupled matrix ``H_a V = G X diag(s)``; a zero
row of ``s²`` marks a draw the scheme rejects as singular.  MRT has
``X = I``; ZF and MMSE filter one ``eigh`` of ``G_AA`` with ``f = 1/λ`` or
``1/(λ + a)`` at every SNR (a positive, finite SNR); NS-ZF's one core takes
every series order, its coupled matrix and its powers from one Horner loop,
and its callers read each order with :func:`holosim.channel._count` before a
Gram is formed or a channel drawn.  The public precoders take the numeric
``(K, N)`` channel matrix ``H_a`` (any other rank fails) and return the
unit-norm ``(N, K)`` matrix ``V = H_aᴴ X diag(s)`` formed from a core; the
Monte Carlo engine of :mod:`holosim.rate` reads only the core's powers.
"""

from __future__ import annotations

import numpy as np

from .channel import _count, _numeric, _real_vector

__all__ = [
    "SingularChannelError",
    "mrt",
    "zf",
    "mmse",
    "ns_zf",
]

_CONDITION_LIMIT = 1e12


class SingularChannelError(RuntimeError):
    """The channel Gram matrix is too ill-conditioned to invert."""


def _active_block(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mask of the active streams (``G_ii > 0``) and their Gram block ``G_AA``."""
    active = np.diagonal(gram).real > 0.0
    if active.all():  # MRT's |G|² s² rounds differently on the Fortran-ordered copy
        return active, gram
    if not active.any():
        raise ValueError("cannot precode an all-zero channel")
    return active, gram[active][:, active]


def _require_cells(live_streams: np.ndarray, live_cells: np.ndarray) -> tuple[int, int]:
    """Live stream and cell counts; raise if the streams outnumber the cells (ZF's rule)."""
    streams, cells = int(np.count_nonzero(live_streams)), int(np.count_nonzero(live_cells))
    if streams > cells:
        raise ValueError(f"{streams} active streams exceed {cells} active transmit cells")
    return streams, cells


def _coupled_powers(squares: np.ndarray, scale_sq: np.ndarray) -> np.ndarray:
    """Stacked per-stream |desired|² and |cross-talk|² of ``C diag(s)`` from |C|² and s²."""
    signal = np.diagonal(squares, axis1=-2, axis2=-1) * scale_sq
    return np.array([signal, (squares @ scale_sq[..., None])[..., 0] - signal])


def _spectrum(g_aa: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(Λ, U, |U|²)`` of ``G_AA = U Λ Uᴴ``, the factors ZF and MMSE share."""
    eigenvalues, u = np.linalg.eigh(g_aa)
    return eigenvalues, u, u.real**2 + u.imag**2


def _mrt_core(g_aa: np.ndarray) -> tuple:
    """MRT: ``X = I`` (returned as ``None``), ``s² = 1/tr G``, coupled matrix ``G s``."""
    scale_sq = np.full(g_aa.shape[0], 1.0 / np.trace(g_aa).real)
    return None, scale_sq, _coupled_powers(g_aa.real**2 + g_aa.imag**2, scale_sq)


def _zf_core(spectrum: tuple) -> tuple:
    """ZF: ``X = U Λ⁻¹ Uᴴ``, ``s_i² = 1/(|A| (|U|²/λ)_i)``, coupled matrix ``diag(s)``.

    Singular if ``λ_min <= 0`` or ``λ_max/λ_min > 1e12``.
    """
    eigenvalues, u, w = spectrum
    low, high = eigenvalues[0], eigenvalues[-1]  # eigh sorts ascending
    if not low > 0.0 or high / low > _CONDITION_LIMIT:
        return None, np.zeros(eigenvalues.size), np.zeros((2, eigenvalues.size))
    inverse = 1.0 / eigenvalues
    scale_sq = 1.0 / (eigenvalues.size * (w @ inverse))
    return (u, inverse), scale_sq, np.array([scale_sq, np.zeros_like(scale_sq)])


def _mmse_core(spectrum: tuple, snr, streams: int) -> tuple:
    """MMSE at every SNR: ``X = U (Λ + a)⁻¹ Uᴴ``, one filter row per SNR.

    The loading ``a = streams/snr`` counts dead streams; ``s² = 1/Σ λ/(λ+a)²``
    makes ``V`` unit-norm, and the coupled matrix is ``U λ/(λ+a) Uᴴ s``.
    """
    eigenvalues, u, w = spectrum
    lam = eigenvalues[:, None]
    shifted = lam + streams / snr
    gain = lam / shifted
    diagonal = w @ gain
    energy = (lam / shifted**2).sum(axis=0)
    powers = np.array([diagonal**2, w @ gain**2 - diagonal**2]) / energy
    return (u, 1.0 / shifted.T), 1.0 / energy, powers


def _ns_zf_core(g_aa: np.ndarray, orders) -> tuple:
    """NS-ZF at every order, one row each: the series ``X_n`` and ``s_j² = 1/(|A| e_j)``.

    One Horner pass over the Jacobi splitting ``G_AA = D + E`` gives
    ``X_0 = D⁻¹`` and ``X_k = D⁻¹ - D⁻¹E X_{k-1}``, one product per order;
    it converges only if the spectral radius of ``D⁻¹E`` is below one.  Run
    one order past each ``n``, it gives the coupled matrix
    ``G X_n = I + D (X_n - X_{n+1})`` without a product of its own, and
    ``e_j = (X_nᴴ G X_n)_jj`` is read from it; the order is singular if some
    ``e_j <= 0``.  The orders are checked by the callers.
    """
    diag = np.diag(g_aa)
    inv_diag = 1.0 / diag
    scaled_off = inv_diag[:, None] * (g_aa - np.diag(diag))
    base = np.diag(inv_diag)
    wanted = {*orders, *(order + 1 for order in orders)}
    snapshots = {}
    for k in range(max(wanted) + 1):
        x = base if k == 0 else base - scaled_off @ x
        if k in wanted:
            snapshots[k] = x
    squares = np.empty((len(orders), *g_aa.shape))
    energy = np.empty(squares.shape[:2])
    for row, order in enumerate(orders):
        series = snapshots[order]
        coupled = series - snapshots[order + 1]
        coupled *= diag[:, None]
        coupled.reshape(-1)[:: diag.size + 1] += 1.0
        energy[row] = (series.real * coupled.real + series.imag * coupled.imag).sum(axis=0)
        squares[row] = coupled.real**2 + coupled.imag**2
    singular = np.any(energy <= 0.0, axis=1)
    energy[singular] = np.inf
    scale_sq = 1.0 / (g_aa.shape[0] * energy)
    powers = _coupled_powers(squares, scale_sq)
    powers[:, singular] = 0.0
    return [snapshots[order] for order in orders], scale_sq, powers


def _precode(h_a: np.ndarray, core, nulling: bool = False) -> np.ndarray:
    """``V = H_aᴴ X diag(s)`` on the active streams, from ``(X, s²) = core(G_AA)``.

    A ``nulling`` scheme (ZF, NS-ZF) first checks that the live streams fit
    the live transmit cells.
    """
    h_a = _numeric(h_a, "h_a")
    if h_a.ndim != 2:
        raise ValueError(f"invalid value for h_a: shape {h_a.shape} (must be a (K, N) matrix)")
    if nulling:
        nonzero = h_a != 0.0
        _require_cells(nonzero.any(axis=1), nonzero.any(axis=0))
    active, g_aa = _active_block(h_a @ h_a.conj().T)
    x, scale_sq = core(g_aa)[:2]
    if not np.all(scale_sq > 0.0):
        raise SingularChannelError("channel Gram matrix is numerically singular")
    if isinstance(x, tuple):  # spectral factors (U, f(Λ))
        u, f = x
        x = (u * f) @ u.conj().T
    v = h_a[active].conj().T if x is None else h_a[active].conj().T @ x
    full = np.zeros(h_a.T.shape, dtype=complex)
    full[:, active] = v * np.sqrt(scale_sq)
    return full


def mrt(h_a: np.ndarray) -> np.ndarray:
    """Maximum-ratio transmission: match the channel, normalize total power.

    Args:
        h_a: Channel matrix of shape ``(K, N)``.

    Returns:
        The conjugate transpose of the channel scaled to unit Frobenius
        norm, shape ``(N, K)``.

    Raises:
        ValueError: If the channel is not a numeric matrix or is identically zero.
    """
    return _precode(h_a, _mrt_core)


def zf(h_a: np.ndarray) -> np.ndarray:
    """Zero-forcing precoding with per-column (vector) normalization.

    The right pseudo-inverse is formed on the streams with nonzero channel
    rows as ``G_AA⁻¹ = U Λ⁻¹ Uᴴ``, the eigendecomposition that the Monte
    Carlo engine shares with MMSE; each of its columns is scaled to equal
    power so that interference is nulled exactly and the power constraint
    is met per draw.

    Args:
        h_a: Channel matrix of shape ``(K, N)``; requires at least as many
            live transmit cells as active streams.

    Returns:
        The ``(N, K)`` precoder; each active stream's column has norm
        ``1/sqrt(active streams)``.

    Raises:
        SingularChannelError: If the Gram block of the active streams has
            condition number ``λ_max/λ_min`` above 1e12 or a nonpositive
            smallest eigenvalue.
        ValueError: If the channel is not a numeric matrix, or if there are more
            active streams than transmit cells or no active streams at all.
    """
    return _precode(h_a, lambda g_aa: _zf_core(_spectrum(g_aa)), nulling=True)


def mmse(h_a: np.ndarray, snr: float) -> np.ndarray:
    """Regularized inversion with noise loading matched to the SNR.

    The Gram matrix is loaded with ``a = streams / snr`` on the diagonal
    (dead streams counted) and inverted as ``U (Λ + a)⁻¹ Uᴴ``, the
    eigendecomposition that gives the Monte Carlo engine every SNR point at
    once; the result is Frobenius-normalized.  The loading keeps the
    inversion well-posed at any draw, interpolating between matched
    transmission at low SNR and zero-forcing at high SNR.

    Args:
        h_a: Channel matrix of shape ``(K, N)``.
        snr: Transmit power over noise variance; must be positive and
            finite.

    Returns:
        The unit-norm ``(N, K)`` precoder.

    Raises:
        ValueError: If ``snr`` is not a number, not positive and finite, or
            the channel is not a numeric matrix or all zero.
    """
    snr = _real_vector([snr], "snr").item()
    if not snr > 0.0:
        raise ValueError(f"snr must be positive and finite, got {snr!r}")
    return _precode(h_a, lambda g_aa: _mmse_core(_spectrum(g_aa), snr, len(h_a)))


def ns_zf(h_a: np.ndarray, iterations: int = 3) -> np.ndarray:
    """Zero-forcing with the Gram inverse replaced by a Neumann series.

    The series ``Σₖ (−D⁻¹E)ᵏ D⁻¹`` of the Jacobi splitting ``D + E`` of
    the active streams' Gram block is applied like the exact zero-forcing
    inverse, including the per-column normalization.  It converges only
    when the spectral radius of ``D⁻¹ E`` is below one, and diverges
    otherwise: for one 12x12 user against 27x27 transmit patches at
    one-third wavelength the radius lies between 1.02 and 1.32 on each of
    50 draws, and the order-4, 7 and 20 sums fall further and further below
    exact zero-forcing.

    Args:
        h_a: Channel matrix of shape ``(K, N)``.
        iterations: Highest series order, an integer of at least 0;
            defaults to 3.

    Returns:
        The unit-norm ``(N, K)`` precoder.

    Raises:
        SingularChannelError: If a precoding column has zero energy.
        ValueError: If the channel is not a numeric matrix, there are more active
            streams than transmit cells, no active stream at all, or the
            order is not a count (``invalid value for iterations``).
    """
    iterations = _count(iterations, "iterations", 0)

    def core(g_aa):
        series, scale_sq, _ = _ns_zf_core(g_aa, [iterations])
        return series[0], scale_sq[0]

    return _precode(h_a, core, nulling=True)
