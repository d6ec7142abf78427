"""Random wavenumber-domain channels and their correlation spectra.

The ensemble is two plain vectors, checked once by :func:`_factors`:
``rx_sigma``, one scale per stacked receive cell, and ``tx_sigma``, one per
transmit cell.  A channel draw is a complex ``(K, N)`` matrix in the
wavenumber domain whose entry ``(i, j)`` is drawn independently and scaled
by ``rx_sigma[i] * tx_sigma[j]``.  Users own contiguous row blocks, one row
per cell of their receive basis, and element-domain channels are recovered
by sandwiching each block between harmonic bases.  The Monte Carlo engine
reads each draw as its real and imaginary parts and forms the Gram matrix
from them in real arithmetic, never holding the complex matrix.  The
correlation structure is separable, which keeps its eigen-analysis
closed-form even for surfaces with hundreds of thousands of matrix entries.
"""

from __future__ import annotations

import numpy as np

from .spectrum import VarianceMap

__all__ = [
    "draw_wavenumber_channel",
    "assemble_element_channel",
    "correlation_eigenvalues",
]


def _factors(rx_sigma, tx_sigma) -> tuple[np.ndarray, np.ndarray]:
    """The two scale vectors as floats; each must be 1-D, nonempty, finite and nonnegative."""
    factors = np.asarray(rx_sigma, dtype=float), np.asarray(tx_sigma, dtype=float)
    for name, vector in zip(("rx_sigma", "tx_sigma"), factors):
        if vector.ndim != 1 or not vector.size or not 0.0 <= vector.min() <= vector.max() < np.inf:
            raise ValueError(f"{name} must be a nonempty vector of finite nonnegative values")
    return factors


def _draw_parts(rx: np.ndarray, tx: np.ndarray, seed) -> np.ndarray:
    """Real and imaginary parts, shape ``(2, K, N)``, of one scaled draw.

    One ``standard_normal((2, K, N))`` call consumes the stream in the same
    order as separate real and imaginary draws; the draw is then scaled in
    place, rows by ``rx_sigma / sqrt(2)`` and columns by ``tx_sigma``, so no
    K×N scale matrix is formed.  The factors are taken as checked.
    """
    parts = np.random.default_rng(seed).standard_normal((2, rx.size, tx.size))
    parts *= (rx / np.sqrt(2.0))[:, None]
    parts *= tx
    return parts


def _gram(parts: np.ndarray) -> np.ndarray:
    """Gram matrix ``H Hᴴ`` of ``H = parts[0] + 1j * parts[1]`` in real arithmetic.

    ``Re G = A Aᵀ + B Bᵀ`` (two symmetric rank-k products) and
    ``Im G = C − Cᵀ`` with ``C = B Aᵀ``: half the flops of the complex
    product, no complex K×N temporary, and an exactly Hermitian result.
    """
    real, imag = parts
    cross = imag @ real.T
    gram = np.empty(cross.shape, dtype=complex)
    gram.real = real @ real.T
    gram.real += imag @ imag.T
    gram.imag = cross - cross.T
    return gram


def draw_wavenumber_channel(rx_sigma, tx_sigma, seed) -> np.ndarray:
    """Draw one wavenumber-domain channel with the given per-cell scales.

    Every entry ``(i, j)`` is an independent circular complex Gaussian of
    unit variance (real and imaginary parts of variance one half each)
    multiplied by ``rx_sigma[i] * tx_sigma[j]``.  The draw is
    deterministic in the seed, and the Monte Carlo engine reads the same
    numbers as real parts without building the complex matrix.

    Args:
        rx_sigma: Stacked per-user receive scale factors, one per row.
        tx_sigma: Transmit scale factors, one per column.
        seed: Anything accepted by :func:`numpy.random.default_rng` — an
            integer for standalone use, or a spawned seed sequence when a
            caller manages streams itself.

    Returns:
        The complex channel matrix of shape ``(K, N)``: one row per stacked
        receive cell, one column per transmit cell.

    Raises:
        ValueError: Unless each factor is a nonempty, finite, nonnegative vector.
    """
    parts = _draw_parts(*_factors(rx_sigma, tx_sigma), seed)
    return parts[0] + 1j * parts[1]


def assemble_element_channel(
    h_a: np.ndarray,
    rx_bases: list[np.ndarray],
    tx_basis: np.ndarray,
) -> np.ndarray:
    """Map a wavenumber-domain draw to element-domain channels.

    User ``u`` owns the next ``rx_bases[u].shape[1]`` rows of ``h_a``; its
    block is expanded as ``U_rx @ block @ U_tx^H`` and the per-user results
    are stacked vertically.  Because the bases are semi-unitary, the mapping
    is an isometry in Frobenius norm; it exists for validation and
    inspection, while precoding itself stays in the wavenumber domain.

    Args:
        h_a: Stacked wavenumber-domain draw, shape ``(K, N)``.
        rx_bases: One receive basis matrix per user, in user order.
        tx_basis: Shared transmit basis matrix.

    Returns:
        Complex matrix with one block of receive-patch rows per user.

    Raises:
        ValueError: If the receive basis widths do not add up to ``K`` or
            the transmit basis does not span ``N`` cells.
    """
    widths = [basis.shape[1] for basis in rx_bases]
    spanned = (sum(widths), tx_basis.shape[1])
    if spanned != h_a.shape:
        raise ValueError(f"bases span {spanned} cells, draw has shape {h_a.shape}")
    blocks = np.split(h_a, np.cumsum(widths)[:-1])
    return np.vstack([u @ block @ tx_basis.conj().T for u, block in zip(rx_bases, blocks)])


def correlation_eigenvalues(rx_map: VarianceMap, tx_map: VarianceMap) -> np.ndarray:
    """Eigenvalues of one user's element-domain correlation matrix.

    The correlation matrix factors through semi-unitary bases acting on a
    diagonal of per-cell variances, so its nonzero eigenvalues are exactly
    the pairwise products of the squared receive and transmit scale factors.
    They are returned sorted, padded with zeros to the element-domain
    dimension, without ever forming the dense matrix.

    Args:
        rx_map: Variance map of one receive surface.
        tx_map: Variance map of the transmit surface.

    Returns:
        The nonincreasing, nonnegative spectrum, zero-padded.
    """
    products = np.outer(rx_map.normalized_sigma**2, tx_map.normalized_sigma**2).ravel()
    padded = np.zeros(rx_map.num_patches * tx_map.num_patches)
    padded[: products.size] = np.sort(products)[::-1]
    return padded
