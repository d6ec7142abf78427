"""Per-cell coupling variances for isotropic scattering.

Each wavenumber cell of a planar aperture captures the part of an isotropic
field whose transverse wavenumber falls in that cell's rectangle.  The power
captured is a solid-angle integral over the cell-clipped upper hemisphere; in
polar form the radial integral is analytic and the azimuth integral has a
closed-form antiderivative that keeps full precision up to the rim of the
unit disk.  This module evaluates those integrals with NumPy over the
first-orthant quarter of the enumeration rectangle covering the disk (mirror
symmetry gives the other cells) and assembles normalized variance maps from
that one pass; a map's ``normalized_sigma`` is the scale-factor vector of
one surface, as the channel and rate modules take it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import ArrayGeometry, WavenumberLattice, lattice_ellipse

__all__ = [
    "VarianceMap",
    "cell_variance",
    "hemisphere_total",
    "variance_map",
]

@dataclass(frozen=True)
class VarianceMap:
    """Normalized per-cell variance profile of one surface.

    Attributes:
        lattice: Wavenumber cells the values are indexed by.
        raw: Per-cell solid-angle integrals including the hemisphere
            normalization prefactor.  Cells whose rectangle lies entirely
            outside the unit disk carry the value 0.
        normalized_sigma: Per-cell nonnegative scale factors, rescaled so
            that the sum of their squares equals the patch count of the
            surface.
        hemisphere_total: Sum of the raw integrals over the full enumeration
            rectangle covering the disk; equals one half (the hemisphere
            total) up to round-off.  The raw values restricted
            to the lattice cells sum to slightly less whenever boundary
            slivers of the disk fall outside every kept cell.
    """

    lattice: WavenumberLattice
    raw: np.ndarray
    normalized_sigma: np.ndarray
    hemisphere_total: float

    def __post_init__(self) -> None:
        raw = np.asarray(self.raw, dtype=float)
        sigma = np.asarray(self.normalized_sigma, dtype=float)
        object.__setattr__(self, "raw", raw)
        object.__setattr__(self, "normalized_sigma", sigma)
        if raw.shape != (len(self.lattice.cells),):
            raise ValueError("raw values must align with the lattice cells")
        if sigma.shape != raw.shape:
            raise ValueError("normalized_sigma must align with the lattice cells")
        if np.any(raw < 0.0):
            raise ValueError("raw variances must be nonnegative")
        if abs(self.hemisphere_total - 0.5) > 1e-6:
            raise ValueError(
                f"hemisphere total {self.hemisphere_total!r} differs from 1/2"
            )

    @property
    def num_patches(self) -> int:
        """Patch count implied by the normalization of ``normalized_sigma``."""
        return int(round(float(np.sum(self.normalized_sigma**2))))


def _offcircle_sin(level: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Antiderivative of sqrt(1 - level**2 / sin(phi)**2) where it is real.

    The root is formed as a product of differences, and both inverse
    tangents take it as their abscissa, so no digits are lost at the rim
    ``sin(phi) = level``: there the root is 0 and ``atan2(y, 0)`` is
    ``±pi/2``.
    """
    sin_p = np.sin(phi)
    cos_p = np.cos(phi)
    root = np.sqrt(np.maximum(0.0, (sin_p - level) * (sin_p + level)))
    return level * np.arctan2(level * cos_p, root) - np.arctan2(cos_p, root)


def _offcircle_cos(level: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Antiderivative of sqrt(1 - level**2 / cos(phi)**2) where it is real.

    The mirror image of :func:`_offcircle_sin`, with the same rim handling.
    """
    sin_p = np.sin(phi)
    cos_p = np.cos(phi)
    root = np.sqrt(np.maximum(0.0, (cos_p - level) * (cos_p + level)))
    return np.arctan2(sin_p, root) - level * np.arctan2(level * sin_p, root)


def _segment_sin(level: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Integrate sqrt(1 - level**2/sin**2) over [lo, hi] within the disk."""
    start = np.maximum(lo, np.arcsin(np.minimum(level, 1.0)))
    inside = _offcircle_sin(level, hi) - _offcircle_sin(level, start)
    value = np.where(level == 0.0, hi - lo, np.where(hi > start, inside, 0.0))
    return np.where((hi > lo) & (level < 1.0), value, 0.0)


def _segment_cos(level: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Integrate sqrt(1 - level**2/cos**2) over [lo, hi] within the disk."""
    end = np.minimum(hi, np.arccos(np.minimum(level, 1.0)))
    inside = _offcircle_cos(level, end) - _offcircle_cos(level, lo)
    value = np.where(level == 0.0, hi - lo, np.where(end > lo, inside, 0.0))
    return np.where((hi > lo) & (level < 1.0), value, 0.0)


def _first_orthant_mass(mx, my, step_x: float, step_y: float) -> np.ndarray:
    """Hemisphere mass of the boxes ``[mx, mx+1] step_x × [my, my+1] step_y``.

    The indices are nonnegative and broadcast together.  The azimuth sweep
    enters a box through the bottom edge until the ray through the inner
    corner, then through the left edge; it exits through the right edge
    until the ray through the outer corner, then through the top edge.  Each
    leg integrates one antiderivative between clipped limits.
    """
    a, b = mx * step_x, (mx + 1) * step_x
    c, d = my * step_y, (my + 1) * step_y
    phi_lo = np.arctan2(c, b)
    phi_hi = np.arctan2(d, a)
    corner_in = np.arctan2(c, a)
    corner_out = np.arctan2(d, b)
    entry = _segment_sin(c, phi_lo, corner_in) + _segment_cos(a, corner_in, phi_hi)
    exit_ = _segment_cos(b, phi_lo, corner_out) + _segment_sin(d, corner_out, phi_hi)
    return np.where(a * a + c * c < 1.0, (entry - exit_) / (4.0 * np.pi), 0.0)


def _fold(index: np.ndarray) -> np.ndarray:
    """First-orthant index of a cell: ``[l, l+1]`` mirrors ``[-l-1, -l]``."""
    return np.where(index < 0, -index - 1, index)


def _steps(length_x: float, length_y: float) -> tuple[float, float]:
    """Cell widths in direction-cosine units, after checking the lengths."""
    if not (length_x > 0.0 and length_y > 0.0):
        raise ValueError("lengths must be positive")
    return 1.0 / length_x, 1.0 / length_y


def _quarter(length_x: float, length_y: float) -> np.ndarray:
    """Cell variances of the first orthant ``0..reach`` of the enumeration rectangle.

    The rectangle spans ``-reach..reach`` on each axis, ``reach`` the
    aperture length in wavelengths rounded up, and covers the disk; mirror
    symmetry gives every other cell, so one vectorized pass over this
    quarter evaluates all of it.
    """
    steps = _steps(length_x, length_y)
    return _first_orthant_mass(
        np.arange(math.ceil(length_x) + 1)[:, None],
        np.arange(math.ceil(length_y) + 1)[None, :],
        *steps,
    )


def _rectangle_total(quarter: np.ndarray) -> float:
    reach_x, reach_y = (side - 1 for side in quarter.shape)
    fold_x = _fold(np.arange(-reach_x, reach_x + 1))
    fold_y = _fold(np.arange(-reach_y, reach_y + 1))
    return float(quarter[np.ix_(fold_x, fold_y)].sum())


def cell_variance(lx: int, ly: int, length_x: float, length_y: float) -> float:
    """Coupling variance captured by one wavenumber cell.

    The cell ``(lx, ly)`` covers the transverse-wavenumber rectangle
    ``[lx, lx+1] / length_x`` by the matching vertical interval.
    The returned value is the fraction of total hemisphere power whose
    transverse direction falls inside that rectangle, evaluated in polar
    coordinates: the radial integral is analytic and the azimuth integral is
    taken from closed-form antiderivatives, which hold for every cell,
    including cells on an axis or clipped by the unit circle.  It is the
    one-cell case of the vectorized pass behind :func:`variance_map`.

    Args:
        lx: Horizontal integer cell index.
        ly: Vertical integer cell index.
        length_x: Horizontal aperture length in wavelengths.
        length_y: Vertical aperture length in wavelengths.

    Returns:
        Nonnegative variance; exactly 0 for cells entirely outside the disk.

    Raises:
        ValueError: On invalid lengths.
    """
    steps = _steps(length_x, length_y)
    return float(_first_orthant_mass(_fold(np.asarray(lx)), _fold(np.asarray(ly)), *steps))


def hemisphere_total(length_x: float, length_y: float) -> float:
    """Sum of cell variances over the full rectangle covering the disk.

    The enumeration rectangle spans the symmetric integer range that covers
    the unit disk on both axes, so the sum recovers the hemisphere total of
    one half regardless of aperture shape.
    """
    return _rectangle_total(_quarter(length_x, length_y))


def variance_map(geometry: ArrayGeometry) -> VarianceMap:
    """Per-cell variance profile of a surface, normalized for simulation.

    One vectorized pass evaluates the enumeration rectangle covering the
    disk; the surface's wavenumber cells are gathered from it, and the
    scale factors are normalized so their squares sum to the patch count.
    The rectangle's total is recorded alongside as the integration sanity
    check.

    Args:
        geometry: Surface description.

    Returns:
        The assembled map.
    """
    lattice = lattice_ellipse(geometry)
    quarter = _quarter(geometry.length_x, geometry.length_y)
    raw = quarter[_fold(lattice.cells[:, 0]), _fold(lattice.cells[:, 1])]
    sigma = np.sqrt(geometry.num_patches * raw / raw.sum())
    return VarianceMap(
        lattice=lattice,
        raw=raw,
        normalized_sigma=sigma,
        hemisphere_total=_rectangle_total(quarter),
    )
