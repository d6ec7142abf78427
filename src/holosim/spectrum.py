"""Per-cell coupling variances for isotropic scattering.

Each wavenumber cell of a planar aperture captures the part of an isotropic
field whose transverse wavenumber falls in that cell's rectangle: the
hemisphere mass ``(1/4π)∬ dA/√(1 − r²)`` of the rectangle clipped to the
unit disk.  One closed-form corner antiderivative gives every rectangle's
mass by inclusion-exclusion.  This module evaluates it with NumPy over the
first-orthant quarter of the enumeration rectangle covering the disk (mirror
symmetry gives the other cells), checks that it sums to the hemisphere's
one half and assembles normalized variance maps; a map's ``normalized_sigma``
is the scale-factor vector of one surface, as ``channel`` and ``rate`` take it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import ArrayGeometry, lattice_ellipse

__all__ = [
    "VarianceMap",
    "variance_map",
]

@dataclass(frozen=True)
class VarianceMap:
    """Normalized per-cell variance profile of one surface, as :func:`variance_map` builds it.

    Attributes:
        lattice: Read-only ``(cells, 2)`` int64 array of the ``(lx, ly)``
            wavenumber cells the values are indexed by, as
            :func:`holosim.lattice_ellipse` returns it.
        raw: Per-cell solid-angle integrals including the hemisphere
            normalization prefactor.  Cells whose rectangle lies entirely
            outside the unit disk carry the value 0.
        normalized_sigma: Per-cell nonnegative scale factors, rescaled so
            that the sum of their squares equals the patch count of the
            surface.
    """

    lattice: np.ndarray
    raw: np.ndarray
    normalized_sigma: np.ndarray


def _corner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``F(x, y) = ∫₀ˣ∫₀ʸ du dv / √(1 − u² − v²)`` over the unit disk, for ``x, y ≥ 0``.

    Clamping at 1 is exact, since the disk ends there.  The rim needs no
    special root: ``∂F/∂R = −xyR²/((1−x²)(1−y²))`` vanishes with the root ``R``.
    """
    x = np.minimum(x, 1.0)
    y = np.minimum(y, 1.0)
    root = np.sqrt(np.maximum(0.0, 1.0 - x * x - y * y))
    return x * np.arctan2(y, root) + y * np.arctan2(x, root) - np.arctan2(x * y, root)


def _first_orthant_mass(mx, my, step_x: float, step_y: float) -> np.ndarray:
    """Hemisphere mass of the boxes ``[mx, mx+1] step_x × [my, my+1] step_y``.

    The indices are nonnegative and broadcast together.  The mass is the
    inclusion-exclusion of :func:`_corner` over the four corners, over ``4π``,
    clamped at 0 against round-off on rim slivers; a box whose inner corner
    is on or outside the unit circle is exactly 0.
    """
    a, b = mx * step_x, (mx + 1) * step_x
    c, d = my * step_y, (my + 1) * step_y
    mass = _corner(b, d) - _corner(a, d) - _corner(b, c) + _corner(a, c)
    return np.where(a * a + c * c < 1.0, np.maximum(mass, 0.0) / (4.0 * np.pi), 0.0)


def _fold(index: np.ndarray) -> np.ndarray:
    """First-orthant index of a cell: ``[l, l+1]`` mirrors ``[-l-1, -l]``."""
    return np.where(index < 0, -index - 1, index)


def _quarter(length_x: float, length_y: float) -> np.ndarray:
    """Cell variances of the first orthant ``0..reach`` of the enumeration rectangle.

    The rectangle spans ``-reach..reach`` on each axis, ``reach`` the
    aperture length in wavelengths rounded up, and covers the disk; mirror
    symmetry gives every other cell, so one vectorized pass over this
    quarter evaluates all of it.  The lengths are an ``ArrayGeometry``'s,
    positive and finite.
    """
    return _first_orthant_mass(
        np.arange(math.ceil(length_x) + 1)[:, None],
        np.arange(math.ceil(length_y) + 1)[None, :],
        1.0 / length_x,
        1.0 / length_y,
    )


def _rectangle_total(quarter: np.ndarray) -> float:
    reach_x, reach_y = (side - 1 for side in quarter.shape)
    fold_x = _fold(np.arange(-reach_x, reach_x + 1))
    fold_y = _fold(np.arange(-reach_y, reach_y + 1))
    return float(quarter[np.ix_(fold_x, fold_y)].sum())


def variance_map(geometry: ArrayGeometry) -> VarianceMap:
    """Per-cell variance profile of a surface, normalized for simulation.

    One vectorized pass evaluates the enumeration rectangle covering the
    disk; the surface's wavenumber cells are gathered from it, and the
    scale factors are normalized so their squares sum to the patch count.
    The rectangle's total, the hemisphere's one half up to round-off, is
    the integration sanity check (the kept cells alone sum to slightly less
    whenever boundary slivers of the disk fall outside every kept cell).

    Args:
        geometry: Surface description.

    Returns:
        The assembled map.

    Raises:
        ValueError: If the rectangle's total is not one half within 1e-6.
    """
    lattice = lattice_ellipse(geometry)
    quarter = _quarter(geometry.length_x, geometry.length_y)
    total = _rectangle_total(quarter)
    if abs(total - 0.5) > 1e-6:
        raise ValueError(f"hemisphere total {total!r} differs from 1/2")
    raw = quarter[_fold(lattice[:, 0]), _fold(lattice[:, 1])]
    sigma = np.sqrt(geometry.num_patches * raw / raw.sum())
    return VarianceMap(lattice=lattice, raw=raw, normalized_sigma=sigma)
