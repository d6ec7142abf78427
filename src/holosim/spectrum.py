"""Per-cell coupling variances for isotropic scattering.

Each wavenumber cell of a planar aperture captures the part of an isotropic
field whose transverse wavenumber falls in that cell's rectangle.  The power
captured is a solid-angle integral over the cell-clipped upper hemisphere; in
polar form the radial integral is analytic and the azimuth integral has a
closed-form antiderivative that keeps full precision up to the rim of the
unit disk.  This module evaluates those integrals, assembles normalized
variance maps, and builds the separable variance matrix shared by all users.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import ArrayGeometry, WavenumberLattice, lattice_ellipse

__all__ = [
    "VarianceMap",
    "SeparableSigma",
    "cell_variance",
    "hemisphere_total",
    "variance_map",
    "separable_sigma",
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
        if raw.shape != (self.lattice.cardinality,):
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


@dataclass(frozen=True)
class SeparableSigma:
    """Stacked per-user variance scale matrix under separable scattering.

    Attributes:
        matrix: Real array of shape ``(users * per_user_rows, tx_cells)``
            with entry ``(i, j)`` equal to ``rx_sigma[i] * tx_sigma[j]``.
        per_user_rows: Receive-cell count of a single user block.
        rx_sigma: Stacked receive-side scale factors, one entry per row.
        tx_sigma: Transmit-side scale factors, one entry per column.
    """

    matrix: np.ndarray
    per_user_rows: int
    rx_sigma: np.ndarray
    tx_sigma: np.ndarray


def _offcircle_sin(level: float, phi: float) -> float:
    """Antiderivative of sqrt(1 - level**2 / sin(phi)**2) where it is real.

    The root is formed as a product of differences, and both inverse
    tangents take it as their abscissa, so no digits are lost at the rim
    ``sin(phi) = level``: there the root is 0 and ``atan2(y, 0)`` is
    ``±pi/2``.
    """
    sin_p = math.sin(phi)
    cos_p = math.cos(phi)
    root = math.sqrt(max(0.0, (sin_p - level) * (sin_p + level)))
    return level * math.atan2(level * cos_p, root) - math.atan2(cos_p, root)


def _offcircle_cos(level: float, phi: float) -> float:
    """Antiderivative of sqrt(1 - level**2 / cos(phi)**2) where it is real.

    The mirror image of :func:`_offcircle_sin`, with the same rim handling.
    """
    sin_p = math.sin(phi)
    cos_p = math.cos(phi)
    root = math.sqrt(max(0.0, (cos_p - level) * (cos_p + level)))
    return math.atan2(sin_p, root) - level * math.atan2(level * sin_p, root)


def _segment_sin(level: float, lo: float, hi: float) -> float:
    """Integrate sqrt(1 - level**2/sin**2) over [lo, hi] within the disk."""
    if hi <= lo or level >= 1.0:
        return 0.0
    if level == 0.0:
        return hi - lo
    start = max(lo, math.asin(level))
    if hi <= start:
        return 0.0
    return _offcircle_sin(level, hi) - _offcircle_sin(level, start)


def _segment_cos(level: float, lo: float, hi: float) -> float:
    """Integrate sqrt(1 - level**2/cos**2) over [lo, hi] within the disk."""
    if hi <= lo or level >= 1.0:
        return 0.0
    if level == 0.0:
        return hi - lo
    end = min(hi, math.acos(level))
    if end <= lo:
        return 0.0
    return _offcircle_cos(level, end) - _offcircle_cos(level, lo)


def _quarter_closed(a: float, b: float, c: float, d: float) -> float:
    """Closed-form hemisphere mass of a first-orthant box [a,b] x [c,d].

    The azimuth sweep enters the box through the bottom edge until the ray
    through the inner corner, then through the left edge; it exits through
    the right edge until the ray through the outer corner, then through the
    top edge.  Each leg integrates one antiderivative between clipped limits.
    """
    phi_lo = math.atan2(c, b)
    phi_hi = math.atan2(d, a)
    corner_in = math.atan2(c, a)
    corner_out = math.atan2(d, b)
    entry = _segment_sin(c, phi_lo, corner_in) + _segment_cos(a, corner_in, phi_hi)
    exit_ = _segment_cos(b, phi_lo, corner_out) + _segment_sin(d, corner_out, phi_hi)
    return (entry - exit_) / (4.0 * math.pi)


def _box_mass(a: float, b: float, c: float, d: float) -> float:
    """Hemisphere mass of an arbitrary axis-aligned box, any orthant."""
    if a < 0.0 < b:
        return _box_mass(a, 0.0, c, d) + _box_mass(0.0, b, c, d)
    if c < 0.0 < d:
        return _box_mass(a, b, c, 0.0) + _box_mass(a, b, 0.0, d)
    if b <= 0.0:
        a, b = -b, -a
    if d <= 0.0:
        c, d = -d, -c
    # Reflections can leave IEEE negative zeros behind; atan2 treats -0.0 as
    # approaching from the second quadrant, which silently inflates the
    # angular window, so scrub the signs.
    a += 0.0
    c += 0.0
    if a * a + c * c >= 1.0:
        return 0.0
    return _quarter_closed(a, b, c, d)


def cell_variance(
    lx: int,
    ly: int,
    length_x: float,
    length_y: float,
    *,
    wavelength: float = 1.0,
) -> float:
    """Coupling variance captured by one wavenumber cell.

    The cell ``(lx, ly)`` covers the transverse-wavenumber rectangle
    ``[lx, lx+1] * wavelength / length_x`` by the matching vertical interval.
    The returned value is the fraction of total hemisphere power whose
    transverse direction falls inside that rectangle, evaluated in polar
    coordinates: the radial integral is analytic and the azimuth integral is
    taken from closed-form antiderivatives, which hold for every cell,
    including cells on an axis or clipped by the unit circle.

    Args:
        lx: Horizontal integer cell index.
        ly: Vertical integer cell index.
        length_x: Horizontal aperture length.
        length_y: Vertical aperture length.
        wavelength: Carrier wavelength in the same units as the lengths.

    Returns:
        Nonnegative variance; exactly 0 for cells entirely outside the disk.

    Raises:
        ValueError: On invalid lengths.
    """
    if not (length_x > 0.0 and length_y > 0.0 and wavelength > 0.0):
        raise ValueError("lengths and wavelength must be positive")
    step_x = wavelength / length_x
    step_y = wavelength / length_y
    return _box_mass(lx * step_x, (lx + 1) * step_x, ly * step_y, (ly + 1) * step_y)


def hemisphere_total(
    length_x: float,
    length_y: float,
    *,
    wavelength: float = 1.0,
) -> float:
    """Sum of cell variances over the full rectangle covering the disk.

    The enumeration rectangle spans the symmetric integer range that covers
    the unit disk on both axes, so the sum recovers the hemisphere total of
    one half regardless of aperture shape.
    """
    reach_x = math.ceil(length_x / wavelength)
    reach_y = math.ceil(length_y / wavelength)
    total = 0.0
    for lx in range(-reach_x, reach_x + 1):
        for ly in range(-reach_y, reach_y + 1):
            total += cell_variance(lx, ly, length_x, length_y, wavelength=wavelength)
    return total


def variance_map(geometry: ArrayGeometry) -> VarianceMap:
    """Per-cell variance profile of a surface, normalized for simulation.

    Raw variances are integrated over the surface's wavenumber cells, and
    the scale factors are normalized so their squares sum to the patch
    count.  The hemisphere total over the full enumeration rectangle is
    recorded alongside as the integration sanity check.

    Args:
        geometry: Surface description.

    Returns:
        The assembled map.
    """
    lattice = lattice_ellipse(geometry)
    raw = np.array(
        [
            cell_variance(
                lx,
                ly,
                geometry.length_x,
                geometry.length_y,
                wavelength=geometry.wavelength,
            )
            for lx, ly in lattice.cells
        ]
    )
    total = hemisphere_total(
        geometry.length_x, geometry.length_y, wavelength=geometry.wavelength
    )
    sigma = np.sqrt(geometry.num_patches * raw / raw.sum())
    return VarianceMap(
        lattice=lattice, raw=raw, normalized_sigma=sigma, hemisphere_total=total
    )


def separable_sigma(
    rx_map: VarianceMap, tx_map: VarianceMap, users: int
) -> SeparableSigma:
    """Stack per-user receive scale vectors against the shared transmit one.

    All users see the same isotropic statistics, so the stacked matrix is
    ``users`` identical rank-one blocks.

    Args:
        rx_map: Variance map of one receive surface.
        tx_map: Variance map of the transmit surface.
        users: Number of receive surfaces served, at least 1.

    Returns:
        The stacked scale matrix and its factor vectors.

    Raises:
        ValueError: If ``users`` is not a positive integer.
    """
    if not isinstance(users, int) or users < 1:
        raise ValueError(f"users must be a positive integer, got {users!r}")
    rx_stacked = np.tile(rx_map.normalized_sigma, users)
    tx_sigma = tx_map.normalized_sigma.copy()
    return SeparableSigma(
        matrix=np.outer(rx_stacked, tx_sigma),
        per_user_rows=rx_map.lattice.cardinality,
        rx_sigma=rx_stacked,
        tx_sigma=tx_sigma,
    )
