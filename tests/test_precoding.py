"""Precoding matrices: matched, zero-forcing, regularized, and series."""

import math

import numpy as np
import pytest

from holosim import (
    ArrayGeometry,
    SingularChannelError,
    draw_wavenumber_channel,
    mmse,
    mrt,
    ns_zf,
    simulated_se,
    variance_map,
    zf,
)
from holosim.precoding import _neumann_coupled, _neumann_series


def channel(matrix):
    return np.asarray(matrix, dtype=complex)


def random_channel(rows, cols, seed):
    return draw_wavenumber_channel(np.ones(rows), np.ones(cols), seed)


def series_at(matrix, order):
    """The order-``order`` Neumann series of ``matrix⁻¹``, from its own pass."""
    return _neumann_series(matrix, (order,))[order]


def jacobi_series(matrix, order):
    """``Σₖ (−D⁻¹E)ᵏ D⁻¹`` for ``k = 0..order``, summed term by term."""
    inv_diag = np.diag(1.0 / np.diag(matrix))
    step = -inv_diag @ (matrix - np.diag(np.diag(matrix)))
    return sum(np.linalg.matrix_power(step, k) @ inv_diag for k in range(order + 1))


def dead_stream_channel():
    """A 4-stream draw on 6 cells whose second stream is dead."""
    rx = np.array([1.0, 0.0, 2.0, 0.5])
    tx = np.array([1.0, 0.7, 1.3, 0.4, 0.9, 1.1])
    return draw_wavenumber_channel(rx, tx, 23)


def column_directions(v):
    norms = np.linalg.norm(v, axis=0)
    return v / np.where(norms > 0.0, norms, 1.0)


class TestMRT:
    def test_single_entry_channel(self):
        h_a = channel([[3.0 + 4.0j]])
        v = mrt(h_a)
        np.testing.assert_allclose(v, [[0.6 - 0.8j]])
        # |h|^2 / ||h||_F: the whole channel gain on the one stream.
        assert (h_a @ v)[0, 0] == pytest.approx(5.0)

    def test_matches_the_conjugated_channel(self):
        h_a = random_channel(3, 7, seed=2)
        expected = h_a.conj().T
        np.testing.assert_allclose(mrt(h_a), expected / np.linalg.norm(expected), atol=1e-12)

    def test_rejects_zero_channel(self):
        with pytest.raises(ValueError):
            mrt(np.zeros((2, 3)))


class TestZF:
    def test_identity_channel(self):
        h_a = channel(np.eye(3))
        v = zf(h_a)
        np.testing.assert_allclose(v, np.eye(3) / math.sqrt(3.0))
        np.testing.assert_allclose(h_a @ v, np.eye(3) / math.sqrt(3.0))

    def test_nulls_cross_talk(self):
        h_a = random_channel(4, 9, seed=3)
        coupled = h_a @ zf(h_a)
        off = coupled - np.diag(np.diagonal(coupled))
        assert np.max(np.abs(off)) < 1e-10

    def test_diagonal_matches_pseudo_inverse_column_gains(self):
        h_a = random_channel(4, 9, seed=3)
        v = zf(h_a)
        coupled = np.diagonal(h_a @ v).real
        reference = np.linalg.pinv(h_a)
        expected = 1.0 / (2.0 * np.linalg.norm(reference, axis=0))
        np.testing.assert_allclose(coupled, expected, atol=1e-10)
        # Every column carries an equal share of the unit power.
        np.testing.assert_allclose(np.linalg.norm(v, axis=0), 0.5, rtol=1e-10)

    def test_skips_dead_streams(self):
        h_a = channel([[1, 0, 0], [0, 0, 0], [0, 2, 0]])
        v = zf(h_a)
        np.testing.assert_allclose(v[:, 1], 0.0)
        # Two live streams share the power; each keeps its own channel gain.
        gains = np.diagonal(h_a @ v)
        np.testing.assert_allclose(gains, np.array([1.0, 0.0, 2.0]) / math.sqrt(2.0))
        assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_rejects_repeated_rows(self):
        with pytest.raises(SingularChannelError):
            zf(channel([[1.0, 2.0], [1.0, 2.0]]))
        # With a dead transmit cell the two streams share one live cell.
        with pytest.raises(ValueError, match="2 active streams exceed 1 active"):
            zf(channel([[1.0, 0.0], [1.0, 0.0]]))

    def test_rejects_more_streams_than_cells(self):
        h_a = channel(np.ones((3, 2)) + np.eye(3, 2))
        for precode in (zf, ns_zf):
            with pytest.raises(ValueError, match="exceed"):
                precode(h_a)

    def test_rejects_zero_channel(self):
        with pytest.raises(ValueError):
            zf(np.zeros((2, 3)))


class TestMMSE:
    def test_high_snr_limit_is_the_normalized_pseudo_inverse(self):
        h_a = random_channel(3, 6, seed=5)
        reference = np.linalg.pinv(h_a)
        reference = reference / np.linalg.norm(reference)
        np.testing.assert_allclose(mmse(h_a, snr=1e12), reference, atol=1e-6)

    def test_high_snr_column_directions_match_zero_forcing(self):
        h_a = random_channel(3, 6, seed=5)
        regularized = column_directions(mmse(h_a, snr=1e12))
        exact = column_directions(zf(h_a))
        np.testing.assert_allclose(regularized, exact, atol=1e-8)

    def test_low_snr_column_directions_match_matched_transmission(self):
        h_a = random_channel(3, 6, seed=5)
        regularized = column_directions(mmse(h_a, snr=1e-12))
        matched = column_directions(mrt(h_a))
        np.testing.assert_allclose(regularized, matched, atol=1e-8)

    def test_finite_snr_matches_the_regularized_solve(self):
        # Independent of the eigendecomposition: Hᴴ (G + aI)⁻¹ with the
        # loading a = K/snr counting the dead stream, Frobenius-normalized.
        h_a, snr = dead_stream_channel(), 10.0
        loaded = h_a @ h_a.conj().T + (h_a.shape[0] / snr) * np.eye(h_a.shape[0])
        reference = np.linalg.solve(loaded, h_a).conj().T
        v = mmse(h_a, snr)
        np.testing.assert_allclose(v, reference / np.linalg.norm(reference), rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(v[:, 1], 0.0)

    def test_rejects_nonpositive_snr(self):
        h_a = random_channel(2, 4, seed=1)
        with pytest.raises(ValueError):
            mmse(h_a, snr=0.0)
        with pytest.raises(ValueError):
            mmse(h_a, snr=-3.0)


class TestNeumannInverse:
    TOY = np.array([[2.0, 0.1], [0.1, 2.0]])

    def residual(self, iterations, matrix=None):
        matrix = self.TOY if matrix is None else matrix
        series = series_at(matrix, iterations)
        return np.linalg.norm(series @ matrix - np.eye(matrix.shape[0]))

    def test_diagonal_matrix_is_exact_at_order_zero(self):
        series = series_at(np.diag([2.0, 4.0]), 0)
        np.testing.assert_array_equal(series, np.diag([0.5, 0.25]))

    def test_order_zero_is_the_diagonal_inverse(self):
        series = series_at(self.TOY, 0)
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

    def test_horner_pass_equals_the_summed_jacobi_terms(self):
        h_a = random_channel(4, 9, seed=3)
        gram = h_a @ h_a.conj().T
        snapshots = _neumann_series(gram, range(6))
        for order, value in snapshots.items():
            expected = jacobi_series(gram, order)
            tolerance = 1e-12 * np.abs(expected).max()
            np.testing.assert_allclose(value, expected, rtol=0.0, atol=tolerance)

    def test_one_pass_snapshots_equal_separate_series(self):
        h_a = random_channel(4, 9, seed=3)
        gram = h_a @ h_a.conj().T
        snapshots = _neumann_series(gram, (7, 2, 4, 3))
        assert sorted(snapshots) == [2, 3, 4, 7]
        for order, value in snapshots.items():
            np.testing.assert_array_equal(value, series_at(gram, order))

    def test_coupled_matrices_from_the_pass_equal_the_products(self):
        for seed in range(5):
            h_a = random_channel(6, 11, seed=seed)
            gram = h_a @ h_a.conj().T
            orders = (7, 0, 2, 1, 4)
            pairs = _neumann_coupled(gram, orders)
            assert len(pairs) == len(orders)
            for order, (series, coupled) in zip(orders, pairs):
                np.testing.assert_array_equal(series, series_at(gram, order))
                product = gram @ series
                error = np.abs(coupled - product).max() / np.abs(product).max()
                assert error < 1e-13

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="square"):
            series_at(np.ones((2, 3)), 1)
        with pytest.raises(ValueError, match="nonnegative"):
            series_at(self.TOY, -1)
        with pytest.raises(ValueError, match="nonnegative"):
            series_at(self.TOY, 1.5)
        with pytest.raises(ValueError, match="nonnegative"):
            series_at(self.TOY, True)
        with pytest.raises(ValueError, match="diagonal"):
            series_at(np.array([[0.0, 1.0], [1.0, 1.0]]), 1)


class TestNSZF:
    @pytest.fixture()
    def h_a(self, rx_map_small, tx_map_medium):
        sigma = rx_map_small.normalized_sigma, tx_map_medium.normalized_sigma
        return draw_wavenumber_channel(*sigma, 11)

    def test_long_series_recovers_exact_zero_forcing(self, h_a):
        series = ns_zf(h_a, 50)
        exact = zf(h_a)
        np.testing.assert_allclose(series, exact, atol=1e-8)
        np.testing.assert_allclose(
            np.diagonal(h_a @ series), np.diagonal(h_a @ exact), rtol=1e-6
        )

    @pytest.mark.parametrize("order", [True, 2.0, -1])
    def test_rejects_an_order_that_is_not_a_nonnegative_int(self, h_a, order):
        with pytest.raises(ValueError, match="nonnegative integer"):
            ns_zf(h_a, order)

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_matches_the_explicit_jacobi_series(self, order):
        # Independent of the Horner pass: the summed series on the live
        # block, each column scaled to norm 1/sqrt(live streams).
        h_a = dead_stream_channel()
        live = np.flatnonzero(np.any(h_a != 0.0, axis=1))
        block = h_a[live] @ h_a[live].conj().T
        columns = h_a[live].conj().T @ jacobi_series(block, order)
        columns /= np.linalg.norm(columns, axis=0) * math.sqrt(live.size)
        expected = np.zeros(h_a.T.shape, dtype=complex)
        expected[:, live] = columns
        v = ns_zf(h_a, order)
        np.testing.assert_allclose(v, expected, rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(v[:, 1], 0.0)

    def test_zero_scale_on_a_dead_stream_is_fine(self):
        h_a = channel([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        v = ns_zf(h_a, 3)
        np.testing.assert_allclose(v[:, 1], 0.0)
        np.testing.assert_allclose(np.diagonal(h_a @ v), [1.0, 0.0])
        assert np.linalg.norm(v) == pytest.approx(1.0)


class TestPowerConstraint:
    def test_all_schemes_emit_unit_frobenius_norm(self, rx_map_small, tx_map_medium):
        sigma = np.tile(rx_map_small.normalized_sigma, 2), tx_map_medium.normalized_sigma
        h_a = draw_wavenumber_channel(*sigma, 4)
        for v in (mrt(h_a), zf(h_a), mmse(h_a, snr=10.0), ns_zf(h_a, 3)):
            assert isinstance(v, np.ndarray) and v.shape == h_a.T.shape
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


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
