"""Surface geometry, wavenumber lattices, and harmonic bases."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holosim import (
    ArrayGeometry,
    WavenumberLattice,
    harmonic_basis,
    lattice_ellipse,
    patch_positions,
)

# Cardinalities pinned by brute-force enumeration of integer pairs inside
# the propagating disk (with half-wavelength aliasing folded in).
FROZEN_CARDINALITIES = [
    (3, 3, 1 / 3, 5),
    (6, 6, 1 / 3, 13),
    (14, 14, 1 / 6, 21),
    (16, 18, 1 / 6, 23),
    (12, 12, 1 / 3, 49),
    (14, 14, 1 / 3, 69),
    (30, 30, 1 / 6, 81),
    (24, 24, 1 / 3, 197),
    (27, 27, 1 / 3, 253),
    (30, 30, 1 / 3, 317),
    (24, 24, 1 / 2, 439),
    (60, 60, 1 / 3, 1257),
    (8, 9, 1 / 6, 5),
]


def loop_lattice(geometry):
    """Cell-by-cell enumeration with alias groups, the reference for the NumPy pass."""
    reach_x = math.ceil(geometry.n_h * geometry.spacing)
    reach_y = math.ceil(geometry.n_v * geometry.spacing)
    groups = {}
    for lx in range(-reach_x, reach_x + 1):
        for ly in range(-reach_y, reach_y + 1):
            ax = lx / (geometry.n_h * geometry.spacing)
            ay = ly / (geometry.n_v * geometry.spacing)
            if ax * ax + ay * ay <= 1.0 + 1e-12:
                key = (lx % geometry.n_h, ly % geometry.n_v)
                groups.setdefault(key, []).append((lx, ly))
    kept = [min(group, key=lambda c: (c[0] ** 2 + c[1] ** 2, c[0], c[1])) for group in groups.values()]
    return tuple(sorted(kept, key=lambda c: (c[1], c[0])))


def small_geometries():
    return [
        ArrayGeometry(3, 3, 1 / 3),
        ArrayGeometry(6, 6, 1 / 3),
        ArrayGeometry(12, 12, 1 / 3),
        ArrayGeometry(8, 9, 1 / 6),
        ArrayGeometry(24, 24, 1 / 2),
    ]


class TestArrayGeometry:
    def test_aperture_lengths(self):
        geometry = ArrayGeometry(12, 12, 1 / 3)
        assert geometry.length_x == pytest.approx(4.0)
        assert geometry.length_y == pytest.approx(4.0)
        assert geometry.num_patches == 144

    def test_rectangular_aperture(self):
        geometry = ArrayGeometry(8, 9, 1 / 6, wavelength=2.0)
        assert geometry.length_x == pytest.approx(8 / 6 * 2.0)
        assert geometry.length_y == pytest.approx(9 / 6 * 2.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_h": 0, "n_v": 2, "spacing": 0.5},
            {"n_h": 2, "n_v": -1, "spacing": 0.5},
            {"n_h": 2, "n_v": 2, "spacing": 0.0},
            {"n_h": 2, "n_v": 2, "spacing": 0.5, "wavelength": -1.0},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            ArrayGeometry(**kwargs)


class TestPatchPositions:
    def test_first_patch_sits_at_origin(self):
        pos = patch_positions(ArrayGeometry(2, 2, 0.5))
        np.testing.assert_allclose(pos[0], [0.0, 0.0, 0.0])

    def test_last_patch_of_square_grid(self):
        pos = patch_positions(ArrayGeometry(2, 2, 0.5))
        np.testing.assert_allclose(pos[3], [0.0, 0.5, 0.5])

    def test_row_major_ordering(self):
        pos = patch_positions(ArrayGeometry(3, 2, 1 / 3))
        np.testing.assert_allclose(pos[4], [0.0, 1 / 3, 1 / 3])

    def test_all_patches_lie_in_the_surface_plane(self):
        pos = patch_positions(ArrayGeometry(5, 4, 0.4))
        assert pos.shape == (20, 3)
        np.testing.assert_array_equal(pos[:, 0], 0.0)


class TestLatticeEllipse:
    def test_unit_aperture_members(self):
        lattice = lattice_ellipse(ArrayGeometry(3, 3, 1 / 3))
        assert set(lattice.cells) == {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}

    @pytest.mark.parametrize("n_h, n_v, spacing, expected", FROZEN_CARDINALITIES)
    def test_frozen_cardinalities(self, n_h, n_v, spacing, expected):
        lattice = lattice_ellipse(ArrayGeometry(n_h, n_v, spacing))
        assert len(lattice.cells) == expected

    def test_cardinality_tracks_disk_area(self):
        lattice = lattice_ellipse(ArrayGeometry(12, 12, 1 / 3))
        assert abs(len(lattice.cells) - math.floor(math.pi * 16)) <= 2

    def test_cardinality_quadruples_when_aperture_doubles(self):
        pairs = [((12, 1 / 3), (24, 1 / 3)), ((30, 1 / 3), (60, 1 / 3))]
        for (side_a, d), (side_b, _) in pairs:
            small = len(lattice_ellipse(ArrayGeometry(side_a, side_a, d)).cells)
            large = len(lattice_ellipse(ArrayGeometry(side_b, side_b, d)).cells)
            assert 3.5 <= large / small <= 4.5

    def test_patch_count_covers_cell_count(self):
        for geometry in small_geometries():
            lattice = lattice_ellipse(geometry)
            assert geometry.num_patches >= len(lattice.cells)

    def test_half_wavelength_aliases_keep_one_representative(self):
        # At half-wavelength pitch the two rim cells on each axis sample the
        # same harmonic, so only the lower-index one of each pair survives.
        lattice = lattice_ellipse(ArrayGeometry(24, 24, 1 / 2))
        cells = set(lattice.cells)
        assert (-12, 0) in cells and (12, 0) not in cells
        assert (0, -12) in cells and (0, 12) not in cells

    @given(
        n_h=st.integers(min_value=1, max_value=14),
        n_v=st.integers(min_value=1, max_value=14),
        spacing=st.floats(min_value=0.06, max_value=0.49),
    )
    @settings(max_examples=50, deadline=None)
    def test_reflection_symmetry_below_critical_pitch(self, n_h, n_v, spacing):
        cells = set(lattice_ellipse(ArrayGeometry(n_h, n_v, spacing)).cells)
        for lx, ly in cells:
            assert (-lx, ly) in cells
            assert (lx, -ly) in cells

    @given(
        n_h=st.integers(min_value=1, max_value=14),
        n_v=st.integers(min_value=1, max_value=14),
        spacing=st.floats(min_value=0.06, max_value=0.49),
    )
    @settings(max_examples=50, deadline=None)
    def test_members_match_disk_inequality(self, n_h, n_v, spacing):
        geometry = ArrayGeometry(n_h, n_v, spacing)
        cells = set(lattice_ellipse(geometry).cells)

        def level(lx, ly):
            return (lx / geometry.length_x) ** 2 + (ly / geometry.length_y) ** 2

        for lx, ly in cells:
            assert level(lx, ly) <= 1.0 + 1e-9
        span_x = math.ceil(geometry.length_x)
        span_y = math.ceil(geometry.length_y)
        for lx in range(-span_x, span_x + 1):
            for ly in range(-span_y, span_y + 1):
                if level(lx, ly) < 1.0 - 1e-9:
                    assert (lx, ly) in cells

    @pytest.mark.parametrize(
        "n_h, n_v, spacing",
        [(12, 12, 1 / 2), (7, 5, 0.37), (60, 60, 1 / 3), (2, 997, 1 / 3)],
        ids=["aliasing", "odd", "large", "strip"],
    )
    def test_cells_and_order_match_a_loop_enumeration(self, n_h, n_v, spacing):
        geometry = ArrayGeometry(n_h, n_v, spacing)
        assert lattice_ellipse(geometry).cells == loop_lattice(geometry)

    def test_rejects_duplicate_cells(self):
        with pytest.raises(ValueError):
            WavenumberLattice(cells=((0, 0), (0, 0)))


class TestHarmonicBasis:
    def test_center_cell_gives_constant_column(self):
        geometry = ArrayGeometry(5, 4, 0.3)
        basis = harmonic_basis(geometry, WavenumberLattice(cells=((0, 0),)))
        np.testing.assert_allclose(
            basis.matrix[:, 0], np.full(20, 1 / math.sqrt(20)), atol=1e-15
        )

    def test_distinct_cells_give_orthogonal_columns(self):
        geometry = ArrayGeometry(4, 4, 1 / 2)
        basis = harmonic_basis(geometry, WavenumberLattice(cells=((1, 0), (2, 0))))
        inner = np.vdot(basis.matrix[:, 0], basis.matrix[:, 1])
        assert abs(inner) < 1e-12
        np.testing.assert_allclose(
            np.linalg.norm(basis.matrix, axis=0), 1.0, atol=1e-12
        )

    @pytest.mark.parametrize("receive", [False, True])
    def test_semi_unitarity(self, receive):
        for geometry in small_geometries():
            lattice = lattice_ellipse(geometry)
            basis = harmonic_basis(geometry, lattice, receive=receive)
            gram = basis.matrix.conj().T @ basis.matrix
            deviation = np.abs(gram - np.eye(len(lattice.cells))).max()
            assert deviation < 1e-10

    def test_receive_basis_conjugates_the_transmit_one(self):
        geometry = ArrayGeometry(6, 6, 1 / 3)
        lattice = lattice_ellipse(geometry)
        tx = harmonic_basis(geometry, lattice)
        rx = harmonic_basis(geometry, lattice, receive=True)
        np.testing.assert_allclose(rx.matrix, tx.matrix.conj(), atol=1e-15)

    def test_origin_shift_only_rotates_column_phases(self):
        geometry = ArrayGeometry(6, 6, 1 / 3)
        lattice = lattice_ellipse(geometry)
        base = harmonic_basis(geometry, lattice).matrix
        shifted = harmonic_basis(
            geometry, lattice, origin=(25.0, 10.0, -3.5)
        ).matrix
        np.testing.assert_allclose(np.abs(shifted), np.abs(base), atol=1e-12)
        ratio = shifted / base
        np.testing.assert_allclose(np.abs(ratio), 1.0, atol=1e-10)
        np.testing.assert_allclose(
            ratio, np.broadcast_to(ratio[0:1, :], ratio.shape), atol=1e-9
        )  # one phase per column

    def test_rejects_cell_outside_propagating_disk(self):
        geometry = ArrayGeometry(12, 12, 1 / 3)
        with pytest.raises(ValueError, match="do not match"):
            harmonic_basis(geometry, WavenumberLattice(cells=((9, 0),)))
