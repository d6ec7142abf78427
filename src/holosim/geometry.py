"""Planar array geometry and the wavenumber cells it supports.

A dense planar surface of radiating patches is described by its grid shape
and its patch spacing.  The propagating field radiated or captured by such a
surface is carried by a finite set of integer-indexed Fourier modes: the
transverse wavenumber cells that fall inside the unit disk after scaling by
the aperture lengths.  This module checks surface descriptions and
enumerates their wavenumber cells, the index set of every later stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import _count, _real_vector

__all__ = [
    "ArrayGeometry",
    "lattice_ellipse",
]

_MEMBERSHIP_SLACK = 1e-12


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform planar grid of patches lying in a single plane.

    The surface normal is the first coordinate axis; patches are spaced on a
    regular grid along the remaining two axes.  Every length is in carrier
    wavelengths, the one unit of the model: the aperture lengths are
    ``n_h * spacing`` by ``n_v * spacing``.  The sides are read as counts
    of at least 1 and the spacing as one number, by the package's two
    readers in :mod:`holosim.channel`.

    Attributes:
        n_h: Patch count along the horizontal in-plane axis.
        n_v: Patch count along the vertical in-plane axis.
        spacing: Patch pitch in wavelengths (e.g. ``1/3`` for a third of a
            wavelength), stored as a ``float``.
    """

    n_h: int
    n_v: int
    spacing: float

    def __post_init__(self) -> None:
        for field in ("n_h", "n_v"):
            value = _count(getattr(self, field), field, 1)
            _real_vector([value], field)  # a side past the float range has no length
            object.__setattr__(self, field, value)
        object.__setattr__(self, "spacing", _real_vector([self.spacing], "spacing").item())
        if not 0.0 < max(self.length_x, self.length_y) < math.inf:
            raise ValueError(f"invalid value for spacing: {self.spacing!r} "
                             "(must be positive with finite lengths)")

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


def _membership(lx, ly, geometry: ArrayGeometry):
    """Whether cells lie in the closed unit disk; integers or integer arrays."""
    ax = lx / geometry.length_x
    ay = ly / geometry.length_y
    return ax * ax + ay * ay <= 1.0 + _MEMBERSHIP_SLACK


def lattice_ellipse(geometry: ArrayGeometry) -> np.ndarray:
    """Enumerate the propagating wavenumber cells of a surface.

    A cell ``(lx, ly)`` is kept when the scaled point
    ``(lx / length_x, ly / length_y)`` lies inside the closed unit disk.
    Candidates are drawn from the symmetric integer
    rectangle that covers the disk.  When the patch grid is too coarse to
    resolve every such cell as a distinct spatial frequency (half-wavelength
    spacing is the edge case), cells that alias onto the same sampled
    harmonic are merged and the representative closest to broadside is kept
    (ties to the lower ``lx``, then ``ly``), so the harmonics sampled on
    the kept cells stay orthogonal and every row is distinct.

    Args:
        geometry: Surface description.

    Returns:
        Read-only ``(cells, 2)`` int64 array of distinct ``(lx, ly)`` rows,
        sorted by vertical then horizontal index.
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
    cells = np.column_stack([lx[kept], ly[kept]]).astype(np.int64, copy=False)
    cells.flags.writeable = False
    return cells
