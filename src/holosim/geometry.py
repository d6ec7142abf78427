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
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ArrayGeometry",
    "WavenumberLattice",
    "HarmonicBasis",
    "patch_positions",
    "lattice_ellipse",
    "harmonic_basis",
]

_MEMBERSHIP_SLACK = 1e-12


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform planar grid of patches lying in a single plane.

    The surface normal is the first coordinate axis; patches are spaced on a
    regular grid along the remaining two axes.  ``spacing`` is expressed as a
    fraction of the carrier wavelength, so the physical aperture lengths are
    ``n_h * spacing * wavelength`` by ``n_v * spacing * wavelength``.

    Attributes:
        n_h: Patch count along the horizontal in-plane axis.
        n_v: Patch count along the vertical in-plane axis.
        spacing: Patch pitch in wavelengths (e.g. ``1/3`` for a third of a
            wavelength).
        wavelength: Carrier wavelength setting the physical scale.  Defaults
            to 1 so that lengths are read directly in wavelengths.
    """

    n_h: int
    n_v: int
    spacing: float
    wavelength: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.n_h, int) or self.n_h < 1:
            raise ValueError(f"n_h must be a positive integer, got {self.n_h!r}")
        if not isinstance(self.n_v, int) or self.n_v < 1:
            raise ValueError(f"n_v must be a positive integer, got {self.n_v!r}")
        if not self.spacing > 0.0:
            raise ValueError(f"spacing must be positive, got {self.spacing!r}")
        if not self.wavelength > 0.0:
            raise ValueError(f"wavelength must be positive, got {self.wavelength!r}")

    @property
    def num_patches(self) -> int:
        """Total patch count of the grid."""
        return self.n_h * self.n_v

    @property
    def length_x(self) -> float:
        """Horizontal aperture length in the same units as ``wavelength``."""
        return self.n_h * self.spacing * self.wavelength

    @property
    def length_y(self) -> float:
        """Vertical aperture length in the same units as ``wavelength``."""
        return self.n_v * self.spacing * self.wavelength


@dataclass(frozen=True)
class WavenumberLattice:
    """Finite set of integer wavenumber cells supported by an aperture.

    Attributes:
        cells: Ordered tuple of ``(lx, ly)`` integer cell indices.
    """

    cells: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        cells = tuple((int(lx), int(ly)) for lx, ly in self.cells)
        object.__setattr__(self, "cells", cells)
        if len(set(cells)) != len(cells):
            raise ValueError("lattice cells must be distinct")

    def index_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Return the cell indices as two integer arrays ``(lx, ly)``."""
        arr = np.asarray(self.cells, dtype=np.int64).reshape(-1, 2)
        return arr[:, 0], arr[:, 1]


@dataclass(frozen=True)
class HarmonicBasis:
    """Semi-unitary plane-wave basis for one surface.

    Attributes:
        matrix: Complex array of shape ``(num_patches, cells)`` whose
            columns are unit-norm sampled plane-wave harmonics.
        geometry: Surface the basis was built for.
        lattice: Wavenumber cells indexing the columns.
    """

    matrix: np.ndarray
    geometry: ArrayGeometry
    lattice: WavenumberLattice


def patch_positions(geometry: ArrayGeometry) -> np.ndarray:
    """Return the physical coordinates of every patch on the surface.

    Patches are numbered row-major along the horizontal axis first.  The
    returned array has shape ``(num_patches, 3)``; the first coordinate (the
    surface normal) is zero for every patch.

    Args:
        geometry: Surface description.

    Returns:
        Float array of patch coordinates in the units of ``wavelength``.
    """
    pitch = geometry.spacing * geometry.wavelength
    idx = np.arange(geometry.num_patches)
    horiz = (idx % geometry.n_h) * pitch
    vert = (idx // geometry.n_h) * pitch
    return np.column_stack([np.zeros_like(horiz), horiz, vert])


def _membership(lx, ly, geometry: ArrayGeometry):
    """Whether cells lie in the closed unit disk; integers or integer arrays."""
    ax = lx / (geometry.n_h * geometry.spacing)
    ay = ly / (geometry.n_v * geometry.spacing)
    return ax * ax + ay * ay <= 1.0 + _MEMBERSHIP_SLACK


def lattice_ellipse(geometry: ArrayGeometry) -> WavenumberLattice:
    """Enumerate the propagating wavenumber cells of a surface.

    A cell ``(lx, ly)`` is kept when the scaled point
    ``(lx * wavelength / length_x, ly * wavelength / length_y)`` lies inside
    the closed unit disk.  Candidates are drawn from the symmetric integer
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
    reach_x = math.ceil(geometry.n_h * geometry.spacing)
    reach_y = math.ceil(geometry.n_v * geometry.spacing)
    lx, ly = np.mgrid[-reach_x : reach_x + 1, -reach_y : reach_y + 1]
    inside = _membership(lx, ly, geometry)
    lx, ly = lx[inside], ly[inside]
    alias = (lx % geometry.n_h) * geometry.n_v + ly % geometry.n_v
    # Each alias group in a run, its representative first; keep the firsts.
    order = np.lexsort((ly, lx, lx * lx + ly * ly, alias))
    _, first = np.unique(alias[order], return_index=True)
    lx, ly = lx[order[first]], ly[order[first]]
    kept = np.lexsort((lx, ly))
    return WavenumberLattice(cells=tuple(zip(lx[kept].tolist(), ly[kept].tolist())))


def harmonic_basis(
    geometry: ArrayGeometry,
    lattice: WavenumberLattice,
    *,
    receive: bool = False,
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0),
) -> HarmonicBasis:
    """Build the matrix of sampled plane-wave harmonics for a surface.

    Column ``c`` samples the harmonic of cell ``(lx, ly)`` at every patch:
    its in-plane phase advances by ``2*pi*lx/length_x`` per unit of
    horizontal position and ``2*pi*ly/length_y`` per unit of vertical
    position, while displacement along the surface normal contributes the
    propagating longitudinal wavenumber of the cell.  Transmit surfaces use a
    negative exponent and receive surfaces the positive one.  Each column is
    scaled by ``1/sqrt(num_patches)`` so that, on the cells produced by
    :func:`lattice_ellipse`, the basis is semi-unitary.

    Args:
        geometry: Surface the harmonics are sampled on.
        lattice: Wavenumber cells selecting the columns.
        receive: Use the receive-side sign convention for the exponent.
        origin: Displacement of the surface's reference patch, in the same
            coordinate frame and units as :func:`patch_positions`.  Offsets
            within the surface plane and along the normal only multiply each
            column by a unit-modulus phase.

    Returns:
        The assembled basis.

    Raises:
        ValueError: If some lattice cell is not a propagating cell of this
            geometry, i.e. the lattice and geometry do not match.
    """
    for lx, ly in lattice.cells:
        if not _membership(lx, ly, geometry):
            raise ValueError(
                f"cell ({lx}, {ly}) lies outside the propagating disk of the "
                f"given geometry; lattice and geometry do not match"
            )
    shift = np.asarray(origin, dtype=float)
    if shift.shape != (3,):
        raise ValueError(f"origin must be a 3-vector, got shape {shift.shape}")
    pos = patch_positions(geometry) + shift
    along_normal = pos[:, 0]
    horiz = pos[:, 1]
    vert = pos[:, 2]

    lx, ly = lattice.index_arrays()
    wavenum = 2.0 * np.pi / geometry.wavelength
    frac_x = lx * geometry.wavelength / geometry.length_x
    frac_y = ly * geometry.wavelength / geometry.length_y
    longitudinal = wavenum * np.sqrt(
        np.clip(1.0 - frac_x**2 - frac_y**2, 0.0, None)
    )
    phase = (
        2.0 * np.pi * np.outer(horiz, lx / geometry.length_x)
        + 2.0 * np.pi * np.outer(vert, ly / geometry.length_y)
        + np.outer(along_normal, longitudinal)
    )
    sign = 1.0 if receive else -1.0
    matrix = np.exp(sign * 1j * phase) / math.sqrt(geometry.num_patches)
    return HarmonicBasis(matrix=matrix, geometry=geometry, lattice=lattice)
