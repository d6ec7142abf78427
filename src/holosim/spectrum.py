"""Per-cell coupling variances for isotropic scattering.

Each wavenumber cell of a planar aperture captures the part of an isotropic
field whose transverse wavenumber falls in that cell's rectangle.  The power
captured is a solid-angle integral over the cell-clipped upper hemisphere; in
polar form the radial integral is analytic and the azimuth integral has a
closed-form antiderivative away from degenerate bounds.  This module
evaluates those integrals (closed form with an adaptive quadrature fallback
and cross-check), assembles normalized variance maps, and builds the
separable variance matrix shared by all users.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .geometry import ArrayGeometry, WavenumberLattice, lattice_ellipse

__all__ = [
    "IntegrationError",
    "VarianceMap",
    "SeparableSigma",
    "cell_variance",
    "hemisphere_total",
    "variance_map",
    "separable_sigma",
]

_QUAD_ABS_TOL = 1e-10
_QUAD_FAIL_TOL = 1e-9


class IntegrationError(RuntimeError):
    """Adaptive quadrature failed to reach the required absolute tolerance."""


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
            total) up to integration tolerance.  The raw values restricted
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
    """Antiderivative of sqrt(1 - level**2 / sin(phi)**2) where it is real."""
    sin_p = math.sin(phi)
    cos_p = math.cos(phi)
    root = math.sqrt(max(0.0, sin_p * sin_p - level * level))
    if root == 0.0:
        first = level * math.copysign(math.pi / 2.0, cos_p) if cos_p != 0.0 else 0.0
    else:
        first = level * math.atan(level * cos_p / root)
    ratio = cos_p / math.sqrt(1.0 - level * level)
    return first - math.asin(max(-1.0, min(1.0, ratio)))


def _offcircle_cos(level: float, phi: float) -> float:
    """Antiderivative of sqrt(1 - level**2 / cos(phi)**2) where it is real."""
    sin_p = math.sin(phi)
    cos_p = math.cos(phi)
    root = math.sqrt(max(0.0, cos_p * cos_p - level * level))
    if root == 0.0:
        first = -level * math.copysign(math.pi / 2.0, sin_p) if sin_p != 0.0 else 0.0
    else:
        first = -level * math.atan(level * sin_p / root)
    ratio = sin_p / math.sqrt(1.0 - level * level)
    return first + math.asin(max(-1.0, min(1.0, ratio)))


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


def _quarter_quad(a: float, b: float, c: float, d: float) -> float:
    """Adaptive-quadrature hemisphere mass of a first-orthant box."""

    def integrand(phi: float) -> float:
        cos_p = math.cos(phi)
        sin_p = math.sin(phi)
        enter = 0.0
        if a > 0.0:
            enter = a / cos_p if cos_p > 1e-300 else math.inf
        if c > 0.0:
            enter = max(enter, c / sin_p if sin_p > 1e-300 else math.inf)
        leave = min(
            b / cos_p if cos_p > 1e-300 else math.inf,
            d / sin_p if sin_p > 1e-300 else math.inf,
        )
        inner = math.sqrt(max(0.0, 1.0 - min(1.0, enter) ** 2))
        outer = math.sqrt(max(0.0, 1.0 - min(1.0, leave) ** 2))
        return max(0.0, inner - outer)

    phi_lo = math.atan2(c, b)
    phi_hi = math.atan2(d, a)
    if phi_hi <= phi_lo:
        return 0.0
    candidates = {math.atan2(c, a), math.atan2(d, b)}
    for level in (c, d):
        if 0.0 < level < 1.0:
            candidates.add(math.asin(level))
    for level in (a, b):
        if 0.0 < level < 1.0:
            candidates.add(math.acos(level))
    knots = sorted({phi_lo, phi_hi, *(p for p in candidates if phi_lo < p < phi_hi)})
    total = 0.0
    err_total = 0.0
    for lo, hi in zip(knots[:-1], knots[1:]):
        piece, err = quad(integrand, lo, hi, epsabs=_QUAD_ABS_TOL, limit=200)
        total += piece
        err_total += err
    if err_total > _QUAD_FAIL_TOL:
        raise IntegrationError(
            f"azimuth quadrature error estimate {err_total:.3e} exceeds "
            f"{_QUAD_FAIL_TOL:.0e}"
        )
    return total / (4.0 * math.pi)


def _is_degenerate(a: float, b: float, c: float, d: float) -> bool:
    """Detect bounds outside the closed antiderivatives' comfort zone."""
    return (
        a == 0.0
        or c == 0.0
        or b >= 1.0
        or d >= 1.0
        or b * b + d * d > 1.0
    )


def _box_mass(a: float, b: float, c: float, d: float, method: str) -> float:
    """Hemisphere mass of an arbitrary axis-aligned box, any orthant."""
    if a < 0.0 < b:
        return _box_mass(a, 0.0, c, d, method) + _box_mass(0.0, b, c, d, method)
    if c < 0.0 < d:
        return _box_mass(a, b, c, 0.0, method) + _box_mass(a, b, 0.0, d, method)
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
    if method == "closed":
        return _quarter_closed(a, b, c, d)
    if method == "quad":
        return _quarter_quad(a, b, c, d)
    if _is_degenerate(a, b, c, d):
        return _quarter_quad(a, b, c, d)
    return _quarter_closed(a, b, c, d)


def cell_variance(
    lx: int,
    ly: int,
    length_x: float,
    length_y: float,
    *,
    wavelength: float = 1.0,
    method: str = "auto",
) -> float:
    """Coupling variance captured by one wavenumber cell.

    The cell ``(lx, ly)`` covers the transverse-wavenumber rectangle
    ``[lx, lx+1] * wavelength / length_x`` by the matching vertical interval.
    The returned value is the fraction of total hemisphere power whose
    transverse direction falls inside that rectangle, evaluated in polar
    coordinates: the radial integral is analytic and the azimuth integral is
    taken either from closed-form antiderivatives or by adaptive quadrature.

    Args:
        lx: Horizontal integer cell index.
        ly: Vertical integer cell index.
        length_x: Horizontal aperture length.
        length_y: Vertical aperture length.
        wavelength: Carrier wavelength in the same units as the lengths.
        method: ``"closed"`` forces the antiderivative path, ``"quad"``
            forces adaptive quadrature, and ``"auto"`` (the default) uses the
            closed form except for degenerate bounds (zero bound, unit-or-
            larger coefficient, or a cell clipped by the unit circle), which
            fall back to quadrature.

    Returns:
        Nonnegative variance; exactly 0 for cells entirely outside the disk.

    Raises:
        ValueError: On invalid lengths or an unknown method.
        IntegrationError: If the quadrature path cannot certify its result.
    """
    if not (length_x > 0.0 and length_y > 0.0 and wavelength > 0.0):
        raise ValueError("lengths and wavelength must be positive")
    if method not in ("auto", "closed", "quad"):
        raise ValueError(f"unknown method {method!r}")
    step_x = wavelength / length_x
    step_y = wavelength / length_y
    return _box_mass(lx * step_x, (lx + 1) * step_x, ly * step_y, (ly + 1) * step_y, method)


def hemisphere_total(
    length_x: float,
    length_y: float,
    *,
    wavelength: float = 1.0,
    method: str = "auto",
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
            total += cell_variance(
                lx, ly, length_x, length_y, wavelength=wavelength, method=method
            )
    return total


def variance_map(geometry: ArrayGeometry, *, method: str = "auto") -> VarianceMap:
    """Per-cell variance profile of a surface, normalized for simulation.

    Raw variances are integrated over the surface's wavenumber cells, and
    the scale factors are normalized so their squares sum to the patch
    count.  The hemisphere total over the full enumeration rectangle is
    recorded alongside as the integration sanity check.

    Args:
        geometry: Surface description.
        method: Integration method forwarded to :func:`cell_variance`.

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
                method=method,
            )
            for lx, ly in lattice.cells
        ]
    )
    total = hemisphere_total(
        geometry.length_x,
        geometry.length_y,
        wavelength=geometry.wavelength,
        method=method,
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
