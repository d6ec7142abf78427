"""Precoding cores against the vector-domain oracle, and the Neumann series."""

import math
import tracemalloc

import numpy as np
import pytest

from vector_domain import complex_draw, jacobi_series, ns_zf, powers

from holosim import ArrayGeometry, simulated_se, variance_map
from holosim.channel import _draw_parts, _gram
from holosim.precoding import _ns_zf_core, _spectrum, _zf_core
from holosim.rate import _ensemble


class TestNeumannInverse:
    # The oracle's Jacobi sum, which the engine's Horner pass is checked against.
    TOY = np.array([[2.0, 0.1], [0.1, 2.0]])

    def residual(self, iterations, matrix=None):
        matrix = self.TOY if matrix is None else matrix
        series = jacobi_series(matrix, iterations)
        return np.linalg.norm(series @ matrix - np.eye(matrix.shape[0]))

    def test_diagonal_matrix_is_exact_at_order_zero(self):
        series = jacobi_series(np.diag([2.0, 4.0]), 0)
        np.testing.assert_array_equal(series, np.diag([0.5, 0.25]))

    def test_order_zero_is_the_diagonal_inverse(self):
        series = jacobi_series(self.TOY, 0)
        np.testing.assert_array_equal(series, np.diag([0.5, 0.5]))

    def test_frozen_residual_of_the_dominant_diagonal_toy(self):
        # Off-to-diagonal ratio 0.05 on both rows: the order-3 remainder is
        # exactly ratio**4 on the diagonal, Frobenius norm 6.25e-6 * sqrt(2).
        assert self.residual(3) == pytest.approx(6.25e-6 * math.sqrt(2.0), rel=1e-9)

    def test_residual_beats_the_frobenius_ratio_bound(self):
        ratio = np.linalg.norm(np.array([[0.0, 0.05], [0.05, 0.0]]))
        assert self.residual(3) < ratio**4 + 1e-12

    def test_residual_decays_geometrically(self):
        residuals = np.array([self.residual(k) for k in range(6)])
        np.testing.assert_allclose(residuals[1:] / residuals[:-1], 0.05)

    def test_dominant_off_diagonal_diverges(self):
        matrix = np.array([[1.0, 1.2], [1.2, 1.0]])
        residuals = [self.residual(k, matrix) for k in (1, 3, 6, 9)]
        assert residuals == sorted(residuals)
        assert residuals[-1] > residuals[0] > 1.0

    @pytest.mark.parametrize("seed", range(5))
    def test_one_pass_gives_the_oracle_powers_at_every_order(self, seed):
        # One Horner pass, orders asked in any order, reads each coupled
        # matrix G X_n off the next order; the oracle forms H V from the
        # summed series.
        h = complex_draw(np.ones(6), np.ones(11), seed)
        orders = (7, 0, 2, 1, 4, 3, 6, 5)
        scale_sq, engine = _ns_zf_core(h @ h.conj().T, orders)
        assert scale_sq.shape == (len(orders), 6)
        for row, order in enumerate(orders):
            expected = powers(h, ns_zf(h, order))
            error = np.abs(engine[:, row] - expected).max() / np.abs(expected).max()
            assert error < 1e-12, order

    def test_the_pass_keeps_two_iterates_alive(self):
        # Each order's row is filled once X_{n+1} exists, so at fig8's K the
        # traced peak stays under nine complex K×K arrays (8.6 measured; a
        # pass that keeps every wanted iterate until the end reads 12.6).
        h = complex_draw(np.ones(47), np.ones(253), 0)
        gram = h @ h.conj().T
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            _ns_zf_core(gram, (2, 3, 4, 7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 9 * gram.nbytes


class TestNSZF:
    def test_long_series_recovers_exact_zero_forcing(self, rx_map_small, tx_map_medium):
        # On this draw the series converges: order 50 is exact nulling.
        sigma = rx_map_small.normalized_sigma, tx_map_medium.normalized_sigma
        live = _ensemble(*sigma, [0.0])[2]
        g_aa = _gram(_draw_parts(*sigma, 11))[live][:, live]
        scale_sq, series = _ns_zf_core(g_aa, [50])
        exact_scale_sq, exact = _zf_core(_spectrum(g_aa))
        np.testing.assert_allclose(scale_sq[0], exact_scale_sq, rtol=1e-6)
        np.testing.assert_allclose(series[0, 0], exact[0], rtol=1e-6)
        assert np.max(series[1, 0]) < 1e-12 * np.min(series[0, 0])


class TestSeriesOrderSufficiency:
    def test_order_four_matches_a_longer_series_at_native_size(self):
        # At the native surface sizes, consecutive practical series orders
        # should agree to within one percent if the truncation were already
        # converged.  Known shortfall: the rescaled Gram of a large surface
        # is not diagonally dominant enough, and the order-4 and order-7
        # sums still differ by tens of percent.
        rx_map = variance_map(ArrayGeometry(12, 12, 1 / 3))
        tx_map = variance_map(ArrayGeometry(27, 27, 1 / 3))
        sigma = rx_map.normalized_sigma, tx_map.normalized_sigma
        short = simulated_se(
            *sigma, "ns-zf", [10.0], trials=50, seed=42, ns_iterations=4
        ).sum_se[0]
        long = simulated_se(
            *sigma, "ns-zf", [10.0], trials=50, seed=42, ns_iterations=7
        ).sum_se[0]
        assert abs(short - long) / long < 0.01
