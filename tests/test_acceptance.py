"""End-to-end acceptance gates.

Each class checks one contract of the finished library, at the full sizes
and trial counts the batch presets use.  One check documents a known
shortfall of the series inversion; it asserts the stated target anyway and
fails honestly rather than encode the shortfall:

* ``TestSeriesOrderAccuracy::test_order_four_matches_exact_nulling`` — the
  Jacobi splitting's iteration matrix has spectral radius 0.54 to 1.12
  (median 0.75) over the 800 draws, so at 10 dB the order-4 sum (78.4 bits)
  trails exact nulling (97.4 bits) by 19.5%; orders 7 and 20 give 88.5 and
  96.1 bits.
"""

import time

import numpy as np
import pytest

from element_domain import harmonic_basis
from test_spectrum import oracle_cell_variance, spherical_estimate
from vector_domain import complex_draw, zf

from holosim import (
    ArrayGeometry,
    correlation_eigenvalues,
    lattice_ellipse,
    mrt_theoretical_bound,
    simulated_se,
    variance_map,
    zf_theoretical,
)
from holosim.channel import _draw_parts, _gram
from holosim.harness import PRESET_NAMES, preset_jobs, run_preset
from holosim.rate import _draw_powers, _ensemble
from holosim.spectrum import _quarter, _rectangle_total

SNR_GRID = tuple(float(v) for v in range(-10, 31, 5))


class TestCellVarianceAccuracy:
    def test_every_cell_of_the_reference_surface(self, map_l4):
        start = time.monotonic()
        for (lx, ly), closed in zip(map_l4.lattice, map_l4.raw):
            assert abs(closed - oracle_cell_variance(lx, ly, 4.0, 4.0)) <= 1e-15
            estimate, stderr = spherical_estimate(lx, ly, 4.0)
            assert abs(closed - estimate) <= 3.0 * stderr
        assert time.monotonic() - start < 60.0


class TestHemisphereNormalization:
    @pytest.mark.parametrize("side", [6, 12, 30])
    def test_total_power_is_half(self, side):
        geometry = ArrayGeometry(side, side, 1 / 3)
        quarter = _quarter(geometry.length_x, geometry.length_y)
        assert abs(_rectangle_total(quarter) - 0.5) <= 1e-6


def preset_geometries():
    """Every distinct (surface, role) pair the presets run."""
    seen = {}
    for name in PRESET_NAMES:
        for _, config, _ in preset_jobs(name):
            for geometry, receive in ((config.tx, False), (config.rx, True)):
                key = (geometry.n_h, geometry.n_v, geometry.spacing, receive)
                seen[key] = (geometry, receive)
    return list(seen.values())


class TestBasisOrthonormality:
    def test_every_preset_surface_has_a_semi_unitary_basis(self):
        surfaces = preset_geometries()
        assert len(surfaces) >= 10
        for geometry, receive in surfaces:
            basis = harmonic_basis(
                geometry, lattice_ellipse(geometry), receive=receive
            )
            gram = basis.conj().T @ basis
            defect = np.max(np.abs(gram - np.eye(gram.shape[0])))
            assert defect < 1e-10, (geometry, receive, defect)


class TestModeCountGrowth:
    def test_spectrum_knees_grow_with_receive_spacing(self):
        start = time.monotonic()
        tx_map = variance_map(ArrayGeometry(30, 30, 1 / 3))
        counts = []
        for spacing in (1 / 6, 1 / 3, 1 / 2):
            rx_map = variance_map(ArrayGeometry(24, 24, spacing))
            spectrum = correlation_eigenvalues(rx_map.normalized_sigma, tx_map.normalized_sigma)
            counts.append(int(np.sum(spectrum >= 0.01 * spectrum[0])))
        assert counts == [14711, 61033, 137295]
        assert time.monotonic() - start < 30.0


class TestExactNulling:
    def test_cross_talk_vanishes_across_independent_draws(
        self, rx_map_small, tx_map_medium
    ):
        start = time.monotonic()
        sigma = np.tile(rx_map_small.normalized_sigma, 3), tx_map_medium.normalized_sigma
        active = _ensemble(*sigma, [0.0])[2]  # the engine's live streams
        for draw in range(100):
            h_a = complex_draw(*sigma, draw)
            v = zf(h_a)
            coupled = np.abs(h_a @ v)
            alive = np.any(v != 0.0, axis=0)
            off = coupled - np.diag(np.diagonal(coupled))
            leakage = np.max(off[np.ix_(alive, alive)])
            floor = np.min(np.diagonal(coupled)[alive])
            assert leakage / floor < 1e-9
            # The engine nulls by construction; its signal powers are the oracle's.
            gram = _gram(_draw_parts(*sigma, draw))
            power, rejected = _draw_powers(
                gram[active][:, active], [("ZF", 0)], np.ones(1), active.size
            )
            assert not rejected.any() and not power[1].any()
            assert np.array_equal(active, alive)
            np.testing.assert_allclose(
                power[0, 0, :, 0], np.diagonal(coupled)[alive] ** 2, rtol=1e-10
            )
        assert time.monotonic() - start < 300.0

    def test_closed_form_tracks_the_simulation(self, rx_map_small, tx_map_medium):
        start = time.monotonic()
        sigma = np.tile(rx_map_small.normalized_sigma, 3), tx_map_medium.normalized_sigma
        result = simulated_se(*sigma, "zf", [0.0, 20.0], trials=800, seed=42)
        limits = {0.0: 0.10, 20.0: 0.15}
        theory = zf_theoretical(*sigma, result.snr_grid_db).sum(axis=0)
        for col, snr_db in enumerate(result.snr_grid_db):
            gap = abs(theory[col] - result.sum_se[col]) / result.sum_se[col]
            assert gap < limits[snr_db]
        assert time.monotonic() - start < 300.0


class TestMatchedBoundCoverage:
    def test_simulation_meets_the_closed_form_within_three_sigma(
        self, rx_map_small, tx_map_medium
    ):
        start = time.monotonic()
        sigma = np.tile(rx_map_small.normalized_sigma, 3), tx_map_medium.normalized_sigma
        result = simulated_se(*sigma, "mrt", SNR_GRID, trials=800, seed=42)
        bound = mrt_theoretical_bound(*sigma, SNR_GRID)
        margins = result.per_stream + 3.0 * result.per_stream_stderr - bound
        assert time.monotonic() - start < 300.0
        assert float(margins.min()) >= 0.0


@pytest.fixture(scope="module")
def dense_sampling_sigma():
    rx_map = variance_map(ArrayGeometry(6, 6, 1 / 6))
    tx_map = variance_map(ArrayGeometry(14, 14, 1 / 6))
    return np.tile(rx_map.normalized_sigma, 3), tx_map.normalized_sigma


@pytest.fixture(scope="module")
def dense_sampling_sums(dense_sampling_sigma):
    return {
        scheme: simulated_se(
            *dense_sampling_sigma, scheme, SNR_GRID, trials=800, seed=42
        ).sum_se
        for scheme in ("mrt", "zf", "mmse")
    }


class TestDenseSamplingSchemeOrdering:
    def test_matching_wins_at_low_snr(self, dense_sampling_sigma):
        # The grid is transmit SNR, and a live stream's mean channel gain
        # s_i^2 * sum(t^2) lifts it by over 30 dB at the receiver.  Low SNR
        # is where the strongest stream's mean receive SNR is 0 dB.
        sigma = dense_sampling_sigma
        gain = np.max(sigma[0] ** 2) * np.sum(sigma[1] ** 2)
        low = [-10.0 * np.log10(gain)]
        mrt_sum, zf_sum = (
            simulated_se(*sigma, scheme, low, trials=800, seed=42).sum_se[0]
            for scheme in ("mrt", "zf")
        )
        assert mrt_sum > zf_sum

    def test_nulling_wins_at_high_snr(self, dense_sampling_sums):
        high = SNR_GRID.index(20.0)
        assert dense_sampling_sums["zf"][high] > dense_sampling_sums["mrt"][high]

    def test_regularization_tracks_the_best_scheme_everywhere(
        self, dense_sampling_sums
    ):
        best = np.maximum(dense_sampling_sums["mrt"], dense_sampling_sums["zf"])
        np.testing.assert_array_less(0.98 * best, dense_sampling_sums["mmse"])


@pytest.fixture(scope="module")
def series_order_sums(rx_map_small, tx_map_medium):
    start = time.monotonic()
    sigma = rx_map_small.normalized_sigma, tx_map_medium.normalized_sigma
    sums = {
        "exact": simulated_se(*sigma, "zf", [10.0], trials=800, seed=42).sum_se[0]
    }
    for order in (2, 3, 4):
        sums[order] = simulated_se(
            *sigma, "ns-zf", [10.0], trials=800, seed=42, ns_iterations=order
        ).sum_se[0]
    sums["elapsed"] = time.monotonic() - start
    return sums


class TestSeriesOrderAccuracy:
    def test_runs_inside_the_budget(self, series_order_sums):
        assert series_order_sums["elapsed"] < 600.0

    def test_extra_orders_improve_the_estimate(self, series_order_sums):
        assert series_order_sums[2] < series_order_sums[3]

    def test_order_four_matches_exact_nulling(self, series_order_sums):
        exact = series_order_sums["exact"]
        assert abs(series_order_sums[4] - exact) / exact < 0.01


class TestTransmitSamplingDensity:
    def test_oversampling_beats_sparse_sampling_at_equal_patch_count(
        self, rx_map_small
    ):
        sums = {}
        for spacing in (1 / 6, 1 / 15):
            tx_map = variance_map(ArrayGeometry(30, 30, spacing))
            sigma = rx_map_small.normalized_sigma, tx_map.normalized_sigma
            for scheme in ("zf", "mrt"):
                result = simulated_se(*sigma, scheme, [10.0], trials=800, seed=42)
                sums[scheme, spacing] = result.sum_se[0]
        assert sums["zf", 1 / 6] > sums["zf", 1 / 15]
        assert sums["mrt", 1 / 6] > sums["mrt", 1 / 15]


class TestReproducibleArtifacts:
    def test_preset_rerun_is_byte_identical(self, tmp_path):
        for directory in ("first", "second"):
            status = run_preset(
                "fig8", scale=0.25, trials=5, out=str(tmp_path / directory)
            )
            assert status == 0
        first = (tmp_path / "first" / "fig8.csv").read_bytes()
        second = (tmp_path / "second" / "fig8.csv").read_bytes()
        assert first == second
