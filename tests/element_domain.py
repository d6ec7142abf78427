"""The element domain, kept as a test-side oracle for the wavenumber model.

holosim simulates in the wavenumber domain only.  This module maps a draw
back to the patches of the surfaces, so the tests can check the model in the
domain it describes: patch coordinates, the semi-unitary plane-wave harmonic
bases sampled at them, and the per-user sandwich of a draw between those
bases.  Nothing in the package calls it.
"""

from __future__ import annotations

import math

import numpy as np

from holosim import ArrayGeometry
from holosim.geometry import _membership


def patch_positions(geometry: ArrayGeometry) -> np.ndarray:
    """Return the coordinates of every patch on the surface, in wavelengths.

    Patches are numbered row-major along the horizontal axis first.  The
    returned array has shape ``(num_patches, 3)``; the first coordinate (the
    surface normal) is zero for every patch.

    Args:
        geometry: Surface description.

    Returns:
        Float array of patch coordinates in wavelengths.
    """
    idx = np.arange(geometry.num_patches)
    horiz = (idx % geometry.n_h) * geometry.spacing
    vert = (idx // geometry.n_h) * geometry.spacing
    return np.column_stack([np.zeros_like(horiz), horiz, vert])


def harmonic_basis(
    geometry: ArrayGeometry, lattice: np.ndarray, *, receive: bool = False
) -> np.ndarray:
    """Build the matrix of sampled plane-wave harmonics for a surface.

    Column ``c`` samples the harmonic of cell ``(lx, ly)`` at every patch:
    its in-plane phase advances by ``2*pi*lx/length_x`` per wavelength of
    horizontal position and ``2*pi*ly/length_y`` per wavelength of vertical
    position.  Every patch lies in the surface plane, so the longitudinal
    wavenumber adds no phase.  Transmit surfaces use a negative exponent and
    receive surfaces the positive one.  Each column is scaled by
    ``1/sqrt(num_patches)`` so that, on the cells produced by
    :func:`holosim.lattice_ellipse`, the basis is semi-unitary.

    Args:
        geometry: Surface the harmonics are sampled on.
        lattice: ``(cells, 2)`` integer array of ``(lx, ly)`` cells
            selecting the columns.
        receive: Use the receive-side sign convention for the exponent.

    Returns:
        Complex array of shape ``(num_patches, cells)`` whose columns are
        unit-norm sampled plane-wave harmonics.

    Raises:
        ValueError: If some lattice cell is not a propagating cell of this
            geometry, i.e. the lattice and geometry do not match.
    """
    lx, ly = lattice.T
    outside = ~_membership(lx, ly, geometry)
    if outside.any():
        bad_x, bad_y = lattice[np.argmax(outside)]
        raise ValueError(
            f"cell ({bad_x}, {bad_y}) lies outside the propagating disk of the "
            f"given geometry; lattice and geometry do not match"
        )
    _, horiz, vert = patch_positions(geometry).T
    phase = (
        2.0 * np.pi * np.outer(horiz, lx / geometry.length_x)
        + 2.0 * np.pi * np.outer(vert, ly / geometry.length_y)
    )
    sign = 1.0 if receive else -1.0
    return np.exp(sign * 1j * phase) / math.sqrt(geometry.num_patches)


def assemble_element_channel(
    h_a: np.ndarray,
    rx_bases: list[np.ndarray],
    tx_basis: np.ndarray,
) -> np.ndarray:
    """Map a wavenumber-domain draw to element-domain channels.

    User ``u`` owns the next ``rx_bases[u].shape[1]`` rows of ``h_a``; its
    block is expanded as ``U_rx @ block @ U_tx^H`` and the per-user results
    are stacked vertically.  Because the bases are semi-unitary, the mapping
    is an isometry in Frobenius norm.

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
