"""Planar array geometry and wavenumber-domain harmonic bases.

A dense planar surface of radiating patches is described by its grid shape
and its patch spacing.  The propagating field radiated or captured by such a
surface is carried by a finite set of integer-indexed Fourier modes: the
transverse wavenumber cells that fall inside the unit disk after scaling by
the aperture lengths.  This module builds patch coordinates, enumerates the
wavenumber cells, and assembles the semi-unitary harmonic basis matrices
that map between the element domain and the wavenumber domain.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ArrayGeometry",
    "WavenumberLattice",
    "patch_positions",
    "lattice_ellipse",
    "harmonic_basis",
]

_MEMBERSHIP_SLACK = 1e-12


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform planar grid of patches lying in a single plane.

    The surface normal is the first coordinate axis; patches are spaced on a
    regular grid along the remaining two axes.  Every length is in carrier
    wavelengths, the one unit of the model: the aperture lengths are
    ``n_h * spacing`` by ``n_v * spacing``.

    Attributes:
        n_h: Patch count along the horizontal in-plane axis.
        n_v: Patch count along the vertical in-plane axis.
        spacing: Patch pitch in wavelengths (e.g. ``1/3`` for a third of a
            wavelength).
    """

    n_h: int
    n_v: int
    spacing: float

    def __post_init__(self) -> None:
        for field in ("n_h", "n_v"):
            value = getattr(self, field)
            if type(value) is not int or value < 1:
                raise ValueError(f"{field} must be a positive integer, got {value!r}")
            if value > sys.float_info.max:
                raise ValueError(f"{field} is too large to convert to float")
        longest = max(self.length_x, self.length_y)
        if isinstance(self.spacing, bool) or not 0.0 < longest < math.inf:
            raise ValueError(f"spacing must be positive with finite lengths, got {self.spacing!r}")

    @property
    def num_patches(self) -> int:
        """Total patch count of the grid."""
        return self.n_h * self.n_v

    @property
    def length_x(self) -> float:
        """Horizontal aperture length in wavelengths."""
        return self.n_h * self.spacing

    @property
    def length_y(self) -> float:
        """Vertical aperture length in wavelengths."""
        return self.n_v * self.spacing


@dataclass(frozen=True)
class WavenumberLattice:
    """Finite set of integer wavenumber cells supported by an aperture.

    Attributes:
        cells: Read-only ``(cells, 2)`` int64 array of distinct ``(lx, ly)``
            cell indices, one row per cell.
    """

    cells: np.ndarray

    def __post_init__(self) -> None:
        cells = np.array(self.cells, dtype=np.int64).reshape(-1, 2)
        ordered = cells[np.lexsort(cells.T)]
        if np.any(np.all(ordered[1:] == ordered[:-1], axis=1)):
            raise ValueError("lattice cells must be distinct")
        cells.flags.writeable = False
        object.__setattr__(self, "cells", cells)


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


def _membership(lx, ly, geometry: ArrayGeometry):
    """Whether cells lie in the closed unit disk; integers or integer arrays."""
    ax = lx / geometry.length_x
    ay = ly / geometry.length_y
    return ax * ax + ay * ay <= 1.0 + _MEMBERSHIP_SLACK


def lattice_ellipse(geometry: ArrayGeometry) -> WavenumberLattice:
    """Enumerate the propagating wavenumber cells of a surface.

    A cell ``(lx, ly)`` is kept when the scaled point
    ``(lx / length_x, ly / length_y)`` lies inside the closed unit disk.
    Candidates are drawn from the symmetric integer
    rectangle that covers the disk.  When the patch grid is too coarse to
    resolve every such cell as a distinct spatial frequency (half-wavelength
    spacing is the edge case), cells that alias onto the same sampled
    harmonic are merged and the representative closest to broadside is kept
    (ties to the lower ``lx``, then ``ly``), so the basis built on the
    result stays semi-unitary.

    Args:
        geometry: Surface description.

    Returns:
        The cells sorted by vertical then horizontal index.
    """
    reach_x = math.ceil(geometry.length_x)
    reach_y = math.ceil(geometry.length_y)
    lx, ly = np.mgrid[-reach_x : reach_x + 1, -reach_y : reach_y + 1]
    inside = _membership(lx, ly, geometry)
    lx, ly = lx[inside], ly[inside]
    alias = (lx % geometry.n_h) * geometry.n_v + ly % geometry.n_v
    # Each alias group in a run, its representative first; keep the firsts.
    order = np.lexsort((ly, lx, lx * lx + ly * ly, alias))
    _, first = np.unique(alias[order], return_index=True)
    lx, ly = lx[order[first]], ly[order[first]]
    kept = np.lexsort((lx, ly))
    return WavenumberLattice(cells=np.column_stack([lx[kept], ly[kept]]))


def harmonic_basis(
    geometry: ArrayGeometry,
    lattice: WavenumberLattice,
    *,
    receive: bool = False,
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0),
) -> np.ndarray:
    """Build the matrix of sampled plane-wave harmonics for a surface.

    Column ``c`` samples the harmonic of cell ``(lx, ly)`` at every patch:
    its in-plane phase advances by ``2*pi*lx/length_x`` per wavelength of
    horizontal position and ``2*pi*ly/length_y`` per wavelength of vertical
    position, while displacement along the surface normal contributes the
    propagating longitudinal wavenumber of the cell.  Transmit surfaces use a
    negative exponent and receive surfaces the positive one.  Each column is
    scaled by ``1/sqrt(num_patches)`` so that, on the cells produced by
    :func:`lattice_ellipse`, the basis is semi-unitary.

    Args:
        geometry: Surface the harmonics are sampled on.
        lattice: Wavenumber cells selecting the columns.
        receive: Use the receive-side sign convention for the exponent.
        origin: Displacement of the surface's reference patch, in
            wavelengths, in the coordinate frame of :func:`patch_positions`.
            Offsets within the surface plane and along the normal only
            multiply each column by a unit-modulus phase.

    Returns:
        Complex array of shape ``(num_patches, cells)`` whose columns are
        unit-norm sampled plane-wave harmonics.

    Raises:
        ValueError: If some lattice cell is not a propagating cell of this
            geometry, i.e. the lattice and geometry do not match.
    """
    lx, ly = lattice.cells.T
    outside = ~_membership(lx, ly, geometry)
    if outside.any():
        bad_x, bad_y = lattice.cells[np.argmax(outside)]
        raise ValueError(
            f"cell ({bad_x}, {bad_y}) lies outside the propagating disk of the "
            f"given geometry; lattice and geometry do not match"
        )
    shift = np.asarray(origin, dtype=float)
    if shift.shape != (3,):
        raise ValueError(f"origin must be a 3-vector, got shape {shift.shape}")
    along_normal, horiz, vert = (patch_positions(geometry) + shift).T

    frac_x = lx / geometry.length_x
    frac_y = ly / geometry.length_y
    longitudinal = 2.0 * np.pi * np.sqrt(np.clip(1.0 - frac_x**2 - frac_y**2, 0.0, None))
    phase = (
        2.0 * np.pi * np.outer(horiz, frac_x)
        + 2.0 * np.pi * np.outer(vert, frac_y)
        + np.outer(along_normal, longitudinal)
    )
    sign = 1.0 if receive else -1.0
    return np.exp(sign * 1j * phase) / math.sqrt(geometry.num_patches)
