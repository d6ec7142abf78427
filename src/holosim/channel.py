"""Random wavenumber-domain channels and their correlation spectra.

A channel realization lives in the wavenumber domain: one complex coupling
coefficient per (receive cell, transmit cell) pair, drawn independently and
scaled by the receive factor of its row and the transmit factor of its
column, both supplied by the variance maps.  Element-domain channels are
recovered by sandwiching the realization between harmonic bases.  The Monte
Carlo engine reads each draw as its real and imaginary parts and forms the
Gram matrix from them in real arithmetic, never holding the complex matrix.
The correlation structure is separable, which keeps its eigen-analysis
closed-form even for surfaces with hundreds of thousands of matrix entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectrum import SeparableSigma, VarianceMap

__all__ = [
    "ChannelRealization",
    "draw_wavenumber_channel",
    "assemble_element_channel",
    "correlation_eigenvalues",
]


@dataclass(frozen=True)
class ChannelRealization:
    """One random draw of the stacked wavenumber-domain channel.

    Attributes:
        h_a: Complex matrix of shape ``(users * per_user_rows, tx_cells)``;
            each user occupies a contiguous block of rows.
        per_user_rows: Receive-cell count of a single user block.
    """

    h_a: np.ndarray
    per_user_rows: int

    @property
    def num_users(self) -> int:
        return self.h_a.shape[0] // self.per_user_rows

    def user_block(self, user: int) -> np.ndarray:
        """Rows of ``h_a`` belonging to one user (0-based index)."""
        lo = user * self.per_user_rows
        return self.h_a[lo : lo + self.per_user_rows]


def _draw_parts(sigma: SeparableSigma, seed) -> np.ndarray:
    """Real and imaginary parts, shape ``(2, K, N)``, of one scaled draw.

    One ``standard_normal((2, K, N))`` call consumes the stream in the same
    order as separate real and imaginary draws; the draw is then scaled in
    place, rows by ``rx_sigma / sqrt(2)`` and columns by ``tx_sigma``, so no
    K×N scale matrix is formed.
    """
    rx, tx = sigma.rx_sigma, sigma.tx_sigma
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


def draw_wavenumber_channel(sigma: SeparableSigma, seed) -> ChannelRealization:
    """Draw one wavenumber-domain channel with the given per-cell scales.

    Every entry ``(i, j)`` is an independent circular complex Gaussian of
    unit variance (real and imaginary parts of variance one half each)
    multiplied by ``sigma.rx_sigma[i] * sigma.tx_sigma[j]``.  The draw is
    deterministic in the seed, and the Monte Carlo engine reads the same
    numbers as real parts without building the complex matrix.

    Args:
        sigma: Stacked per-user scale factors.
        seed: Anything accepted by :func:`numpy.random.default_rng` — an
            integer for standalone use, or a spawned seed sequence when a
            caller manages streams itself.

    Returns:
        The realization.
    """
    parts = _draw_parts(sigma, seed)
    return ChannelRealization(h_a=parts[0] + 1j * parts[1], per_user_rows=sigma.per_user_rows)


def assemble_element_channel(
    realization: ChannelRealization,
    rx_bases: list[np.ndarray],
    tx_basis: np.ndarray,
) -> np.ndarray:
    """Map a wavenumber-domain realization to element-domain channels.

    Each user block is expanded as ``U_rx @ block @ U_tx^H`` with that user's
    receive basis, and the per-user results are stacked vertically.  Because
    the bases are semi-unitary, the mapping is an isometry in Frobenius norm;
    it exists for validation and inspection, while precoding itself stays in
    the wavenumber domain.

    Args:
        realization: Stacked wavenumber-domain draw.
        rx_bases: One receive basis matrix per user, in user order.
        tx_basis: Shared transmit basis matrix.

    Returns:
        Complex matrix with one block of receive-patch rows per user.

    Raises:
        ValueError: If basis shapes do not match the realization blocks.
    """
    if len(rx_bases) != realization.num_users:
        raise ValueError(
            f"{len(rx_bases)} receive bases for {realization.num_users} users"
        )
    tx_cells = realization.h_a.shape[1]
    if tx_basis.shape[1] != tx_cells:
        raise ValueError(
            f"transmit basis spans {tx_basis.shape[1]} cells, "
            f"realization has {tx_cells}"
        )
    blocks = []
    for user, basis in enumerate(rx_bases):
        if basis.shape[1] != realization.per_user_rows:
            raise ValueError(
                f"receive basis {user} spans {basis.shape[1]} cells, "
                f"blocks have {realization.per_user_rows}"
            )
        blocks.append(basis @ realization.user_block(user) @ tx_basis.conj().T)
    return np.vstack(blocks)


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
