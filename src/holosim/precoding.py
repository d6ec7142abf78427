"""Linear precoding schemes in the Gram domain.

Every scheme is one core on the Gram block ``G_AA`` of the active streams
(rows of ``H_a`` that are not identically zero; the others carry no power).
The precoder would be ``V = H_aᴴ X diag(s)``, unit-norm, but no core forms
it: each returns the stacked signal and interference powers of the coupled
matrix ``H_a V = G X diag(s)``, and ZF and NS-ZF also the squared column
scales ``s²``, whose zero row marks a draw they reject as singular.  MRT has
``X = I``; ZF and MMSE filter one ``eigh`` of ``G_AA`` with ``f = 1/λ`` or
``1/(λ + a)`` at every SNR; NS-ZF's one core takes every series order, its
coupled matrix and its powers from one Horner loop.  The Monte Carlo engine
of :mod:`holosim.rate` is the only caller, and reads every order with
:func:`holosim.channel._count` before a channel is drawn.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SingularChannelError"]

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


def _spectrum(g_aa: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(Λ, |U|²)`` of ``G_AA = U Λ Uᴴ``, all that ZF and MMSE read of it."""
    eigenvalues, u = np.linalg.eigh(g_aa)
    return eigenvalues, u.real**2 + u.imag**2


def _mrt_core(g_aa: np.ndarray) -> np.ndarray:
    """MRT's powers: ``X = I``, ``s² = 1/tr G``, coupled matrix ``G s``."""
    scale_sq = np.full(g_aa.shape[0], 1.0 / np.trace(g_aa).real)
    return _coupled_powers(g_aa.real**2 + g_aa.imag**2, scale_sq)


def _zf_core(spectrum: tuple) -> tuple:
    """ZF: ``X = U Λ⁻¹ Uᴴ``, ``s_i² = 1/(|A| (|U|²/λ)_i)``, coupled matrix ``diag(s)``.

    Singular if ``λ_min <= 0`` or ``λ_max/λ_min > 1e12``.
    """
    eigenvalues, w = spectrum
    low, high = eigenvalues[0], eigenvalues[-1]  # eigh sorts ascending
    if not low > 0.0 or high / low > _CONDITION_LIMIT:
        return np.zeros(eigenvalues.size), np.zeros((2, eigenvalues.size))
    scale_sq = 1.0 / (eigenvalues.size * (w @ (1.0 / eigenvalues)))
    return scale_sq, np.array([scale_sq, np.zeros_like(scale_sq)])


def _mmse_core(spectrum: tuple, snr, streams: int) -> np.ndarray:
    """MMSE's powers at every SNR: ``X = U (Λ + a)⁻¹ Uᴴ``, one filter row per SNR.

    The loading ``a = streams/snr`` counts dead streams; ``s² = 1/Σ λ/(λ+a)²``
    makes ``V`` unit-norm, and the coupled matrix is ``U λ/(λ+a) Uᴴ s``.
    """
    eigenvalues, w = spectrum
    lam = eigenvalues[:, None]
    with np.errstate(divide="ignore", over="ignore"):  # vanishing power: the energy is 0
        shifted = lam + streams / snr
        energy = (lam / shifted**2).sum(axis=0)
    gain = lam / shifted
    diagonal = w @ gain
    # At high SNR the interference cancels to zero, and can round below it.
    interference = np.maximum(w @ gain**2 - diagonal**2, 0.0)
    powers = np.array([diagonal**2, interference])
    return np.divide(powers, energy, out=np.zeros_like(powers), where=energy > 0.0)


def _ns_zf_core(g_aa: np.ndarray, orders) -> tuple:
    """NS-ZF at every order, one row each: ``s_j² = 1/(|A| e_j)`` and the powers.

    One Horner pass over the Jacobi splitting ``G_AA = D + E`` gives
    ``X_0 = D⁻¹`` and ``X_k = D⁻¹ - D⁻¹E X_{k-1}``, one product per order;
    it converges only if the spectral radius of ``D⁻¹E`` is below one.  Run
    one order past each ``n``, it gives the coupled matrix
    ``G X_n = I + D (X_n - X_{n+1})`` without a product of its own, and
    ``e_j = (X_nᴴ G X_n)_jj`` is read from it; the order is singular if some
    ``e_j <= 0``.  Each order's row is filled as soon as ``X_{n+1}`` exists,
    so only two complex iterates, ``X_{k-1}`` and ``X_k``, are alive at once.
    The orders are checked by the caller.
    """
    diag = np.diag(g_aa)
    inv_diag = 1.0 / diag
    scaled_off = inv_diag[:, None] * (g_aa - np.diag(diag))
    base = np.diag(inv_diag)
    squares = np.empty((len(orders), *g_aa.shape))
    energy = np.empty(squares.shape[:2])
    series = None
    for k in range(max(orders) + 2):
        x = base if k == 0 else base - scaled_off @ series
        for row, order in enumerate(orders):
            if order + 1 == k:
                coupled = series - x
                coupled *= diag[:, None]
                coupled.reshape(-1)[:: diag.size + 1] += 1.0
                energy[row] = (series.real * coupled.real + series.imag * coupled.imag).sum(axis=0)
                squares[row] = coupled.real**2 + coupled.imag**2
        series = x
    singular = np.any(energy <= 0.0, axis=1)
    energy[singular] = np.inf
    scale_sq = 1.0 / (g_aa.shape[0] * energy)
    powers = _coupled_powers(squares, scale_sq)
    powers[:, singular] = 0.0
    return scale_sq, powers
