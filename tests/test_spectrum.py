"""Per-cell variance integrals and normalized variance maps."""

import functools
import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holosim
from holosim import (
    ArrayGeometry,
    VarianceMap,
    WavenumberLattice,
    cell_variance,
    hemisphere_total,
    lattice_ellipse,
    variance_map,
)

# Central-cell value for a 4-wavelength square aperture, pinned by the
# closed form and confirmed against the mpmath oracle below and a 1e7-sample
# spherical Monte Carlo run.
CENTER_CELL_L4 = 0.005082020815804469


@functools.lru_cache(maxsize=2)
def hemisphere_samples(samples=10**7, seed=0):
    """Area-uniform draws on the unit upper hemisphere, shared across tests."""
    rng = np.random.default_rng(seed)
    z = rng.uniform(0.0, 1.0, samples)
    phi = rng.uniform(0.0, 2.0 * np.pi, samples)
    radial = np.sqrt(1.0 - z**2)
    return radial * np.cos(phi), radial * np.sin(phi)


def spherical_estimate(lx, ly, length, samples=10**7, seed=0):
    """Monte Carlo value of one cell from the shared hemisphere draws."""
    kx, ky = hemisphere_samples(samples, seed)
    x0, x1 = lx / length, (lx + 1) / length
    y0, y1 = ly / length, (ly + 1) / length
    hit = (kx >= x0) & (kx < x1) & (ky >= y0) & (ky < y1)
    p = hit.mean()
    estimate = 0.5 * p
    stderr = 0.5 * math.sqrt(p * (1.0 - p) / samples)
    return estimate, stderr


@functools.lru_cache(maxsize=None)
def oracle_cell_variance(lx, ly, length_x, length_y):
    """High-precision reference for :func:`cell_variance`, by mpmath quadrature.

    After reflecting the cell's box (the same floating-point bounds the
    library forms) into the first orthant as ``[a, b] x [c, d]``, the
    hemisphere mass is integrated in Cartesian form at 30 digits:
    ``(1/4pi) int_a^min(b, sqrt(1-c^2)) [asin(min(d, r)/r) - asin(c/r)] dx``
    with ``r = sqrt(1 - x^2)``, split at the kink ``x = sqrt(1 - d^2)``; the
    arcsine arguments are clamped to 1 against round-off at the rim.
    """
    step_x = 1.0 / length_x
    step_y = 1.0 / length_y
    bounds = (lx * step_x, (lx + 1) * step_x, ly * step_y, (ly + 1) * step_y)
    with mpmath.workdps(30):
        a, b, c, d = (mpmath.mpf(v) for v in bounds)
        if b <= 0:
            a, b = -b, -a
        if d <= 0:
            c, d = -d, -c
        if a * a + c * c >= 1:
            return 0.0
        top = min(b, mpmath.sqrt(1 - c * c))

        def inner(x):
            r = mpmath.sqrt(1 - x * x)
            if r == 0:
                # Only the c = 0 edge reaches x = 1; the limit is asin(1).
                return mpmath.pi / 2
            return mpmath.asin(min(d, r) / r) - mpmath.asin(min(c, r) / r)

        knots = [a, top]
        if d < 1 and a < mpmath.sqrt(1 - d * d) < top:
            knots.insert(1, mpmath.sqrt(1 - d * d))
        return float(mpmath.quad(inner, knots) / (4 * mpmath.pi))


class TestCellVariance:
    def test_origin_quartet_is_exactly_symmetric(self):
        values = [
            cell_variance(0, 0, 4.0, 4.0),
            cell_variance(-1, 0, 4.0, 4.0),
            cell_variance(0, -1, 4.0, 4.0),
            cell_variance(-1, -1, 4.0, 4.0),
        ]
        assert values[0] == values[1] == values[2] == values[3]
        np.testing.assert_allclose(values[0], CENTER_CELL_L4, rtol=1e-12)

    @given(
        lx=st.integers(min_value=-4, max_value=3),
        ly=st.integers(min_value=-4, max_value=3),
        length=st.floats(min_value=4.5, max_value=8.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_four_fold_symmetry(self, lx, ly, length):
        base = cell_variance(lx, ly, length, length)
        assert abs(cell_variance(-lx - 1, ly, length, length) - base) < 1e-9
        assert abs(cell_variance(lx, -ly - 1, length, length) - base) < 1e-9
        assert abs(cell_variance(-lx - 1, -ly - 1, length, length) - base) < 1e-9

    def test_cell_fully_outside_disk_is_zero(self):
        assert cell_variance(4, 0, 4.0, 4.0) == 0.0
        assert cell_variance(3, 3, 4.0, 4.0) == 0.0

    def test_enumeration_rectangle_sums_to_half(self):
        for length in (2.0, 4.0, 10.0):
            assert hemisphere_total(length, length) == pytest.approx(0.5, abs=1e-9)

    def test_rectangular_aperture_also_sums_to_half(self):
        assert hemisphere_total(4 / 3, 3 / 2) == pytest.approx(0.5, abs=1e-9)

    def test_closed_form_agrees_with_oracle_on_every_cell(self):
        lattice = lattice_ellipse(ArrayGeometry(12, 12, 1 / 3))
        for lx, ly in lattice.cells:
            closed = cell_variance(lx, ly, 4.0, 4.0)
            assert abs(closed - oracle_cell_variance(lx, ly, 4.0, 4.0)) < 1e-15

    def test_rim_clipped_cells_agree_with_oracle(self):
        # Every first-quadrant cell of the enumeration rectangle (553 cells),
        # including the cells the unit circle clips and those on the axes,
        # where the antiderivatives' inverse tangents meet a zero root.
        for geometry in (
            ArrayGeometry(27, 27, 1 / 3),
            ArrayGeometry(60, 60, 1 / 3),
            ArrayGeometry(7, 5, 0.37),
        ):
            length_x, length_y = geometry.length_x, geometry.length_y
            for lx in range(math.ceil(length_x) + 1):
                for ly in range(math.ceil(length_y) + 1):
                    closed = cell_variance(lx, ly, length_x, length_y)
                    oracle = oracle_cell_variance(lx, ly, length_x, length_y)
                    assert abs(closed - oracle) < 1e-15, (geometry, lx, ly)

    def test_center_cell_matches_spherical_sampling(self):
        estimate, stderr = spherical_estimate(0, 0, 4.0)
        assert abs(cell_variance(0, 0, 4.0, 4.0) - estimate) < 3 * stderr

    def test_rejects_nonpositive_lengths(self):
        with pytest.raises(ValueError):
            cell_variance(0, 0, -4.0, 4.0)


class TestVarianceMap:
    def test_raw_values_nonnegative_with_unit_hemisphere(self, map_l4):
        assert np.all(map_l4.raw >= 0.0)
        assert map_l4.hemisphere_total == pytest.approx(0.5, abs=1e-9)

    def test_normalized_power_equals_patch_count(self, map_l4):
        assert np.sum(map_l4.normalized_sigma**2) == pytest.approx(144.0, abs=1e-9)
        assert map_l4.num_patches == 144

    def test_only_the_two_rim_cells_are_dead(self, map_l4):
        dead = {
            cell
            for cell, raw in zip(map(tuple, map_l4.lattice.cells.tolist()), map_l4.raw)
            if raw == 0.0
        }
        assert dead == {(4, 0), (0, 4)}

    def test_per_cell_values_match_spherical_sampling(self, map_l4):
        # Spot-check a straddling, an interior, and a clipped cell.
        for cell in [(0, 0), (2, 1), (3, 0)]:
            idx = map_l4.lattice.cells.tolist().index(list(cell))
            estimate, stderr = spherical_estimate(*cell, 4.0)
            assert abs(map_l4.raw[idx] - estimate) < 3 * stderr

    def test_every_lattice_cell_of_a_large_surface_matches_the_oracle(self):
        # The map gathers its cells from one vectorized pass over the
        # enumeration rectangle.  The oracle reflects a cell's box exactly,
        # so cell (l, .) and its mirror (-l-1, .) share one oracle value.
        geometry = ArrayGeometry(60, 60, 1 / 3)
        vmap = variance_map(geometry)
        assert vmap.raw.size == 1257
        length_x, length_y = geometry.length_x, geometry.length_y
        for (lx, ly), raw in zip(vmap.lattice.cells.tolist(), vmap.raw):
            mx, my = (index if index >= 0 else -index - 1 for index in (lx, ly))
            oracle = oracle_cell_variance(mx, my, length_x, length_y)
            assert abs(raw - oracle) <= 1e-15, (lx, ly)

    def test_profile_is_far_from_uniform(self, map_l4):
        positive = map_l4.raw[map_l4.raw > 0]
        assert positive.max() / positive.min() > 1.5

    def test_rim_cells_outweigh_the_center(self, map_l4):
        # The integrand diverges toward grazing angles, so cells whose
        # rectangle touches the rim of the unit disk collect more power
        # than the broadside cell, and the four on-axis rim cells are
        # mirror images of each other.
        cells = list(map(tuple, map_l4.lattice.cells.tolist()))
        center = map_l4.raw[cells.index((0, 0))]
        rim_values = [
            map_l4.raw[cells.index(rim)]
            for rim in [(3, 0), (0, 3), (-4, 0), (0, -4)]
        ]
        np.testing.assert_allclose(rim_values, rim_values[0], rtol=1e-12)
        assert rim_values[0] > 2 * center
        assert rim_values[0] == pytest.approx(0.014133341086036762, rel=1e-12)
        assert center == pytest.approx(0.005082020815804469, rel=1e-12)

    def test_rejects_negative_raw_values(self):
        lattice = WavenumberLattice(cells=((0, 0), (1, 0)))
        with pytest.raises(ValueError):
            VarianceMap(
                lattice=lattice,
                raw=np.array([0.5, -0.1]),
                normalized_sigma=np.array([1.0, 1.0]),
                hemisphere_total=0.5,
            )

    def test_rejects_wrong_hemisphere_total(self):
        lattice = WavenumberLattice(cells=((0, 0),))
        with pytest.raises(ValueError):
            VarianceMap(
                lattice=lattice,
                raw=np.array([0.5]),
                normalized_sigma=np.array([1.0]),
                hemisphere_total=0.4,
            )


def test_import_pulls_in_no_scipy():
    # A fresh interpreter, so modules the test session loaded do not count.
    package_root = os.path.dirname(os.path.dirname(holosim.__file__))
    env = dict(os.environ, PYTHONPATH=package_root)
    probe = "import sys, holosim; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"
