"""Random channel draws, element-domain assembly, and correlation spectra."""

import math

import numpy as np
import pytest

from holosim import (
    ArrayGeometry,
    SeparableSigma,
    VarianceMap,
    WavenumberLattice,
    assemble_element_channel,
    correlation_eigenvalues,
    draw_wavenumber_channel,
    harmonic_basis,
    lattice_ellipse,
    separable_sigma,
    variance_map,
)
from holosim.channel import _draw_parts, _gram


def dead_cell_sigma(rx_map, tx_map, users):
    """Preset-like scales with one dead stream and one dead transmit cell."""
    rx = np.tile(rx_map.normalized_sigma, users)
    tx = tx_map.normalized_sigma.copy()
    rx[1] = 0.0
    tx[2] = 0.0
    return SeparableSigma(
        per_user_rows=len(rx_map.lattice.cells),
        rx_sigma=rx,
        tx_sigma=tx,
    )


def uniform_sigma(rows, cols, per_user_rows=None, scale=1.0):
    value = float(scale)
    return SeparableSigma(
        per_user_rows=per_user_rows or rows,
        rx_sigma=np.full(rows, value),
        tx_sigma=np.full(cols, 1.0),
    )


def synthetic_map(sigma_squared):
    """Variance map with prescribed per-cell powers on a made-up lattice."""
    values = np.asarray(sigma_squared, dtype=float)
    cells = tuple((i, 0) for i in range(values.size))
    return VarianceMap(
        lattice=WavenumberLattice(cells=cells),
        raw=values / values.sum() * 0.5,
        normalized_sigma=np.sqrt(values),
        hemisphere_total=0.5,
    )


class TestDrawWavenumberChannel:
    def test_same_seed_is_bit_identical(self):
        sigma = uniform_sigma(3, 4)
        first = draw_wavenumber_channel(sigma, 7)
        second = draw_wavenumber_channel(sigma, 7)
        np.testing.assert_array_equal(first.h_a, second.h_a)
        assert first.per_user_rows == 3

    def test_different_seeds_differ(self):
        sigma = uniform_sigma(3, 4)
        assert not np.array_equal(
            draw_wavenumber_channel(sigma, 0).h_a,
            draw_wavenumber_channel(sigma, 1).h_a,
        )

    def test_zero_scales_annihilate_the_draw(self):
        sigma = uniform_sigma(2, 3, scale=0.0)
        realization = draw_wavenumber_channel(sigma, 5)
        np.testing.assert_array_equal(realization.h_a, 0.0)

    def test_entry_variance_follows_the_scale(self):
        # One entry with scale 2 must show sample variance 4 over many draws.
        sigma = SeparableSigma(
            per_user_rows=2,
            rx_sigma=np.array([2.0, 1.0]),
            tx_sigma=np.array([1.0, 1.0, 1.0]),
        )
        draws = 10**5
        acc = 0.0
        for k in range(draws):
            acc += abs(draw_wavenumber_channel(sigma, k).h_a[0, 0]) ** 2
        assert acc / draws == pytest.approx(4.0, rel=0.05)

    def test_covariance_matches_scale_matrix_entrywise(self):
        sigma = SeparableSigma(
            per_user_rows=2,
            rx_sigma=np.array([1.0, 0.5]),
            tx_sigma=np.array([2.0, 3.0]),
        )
        draws = 3 * 10**4
        acc = np.zeros((2, 2))
        for k in range(draws):
            acc += np.abs(draw_wavenumber_channel(sigma, k).h_a) ** 2
        expected = np.outer(sigma.rx_sigma, sigma.tx_sigma) ** 2
        np.testing.assert_allclose(acc / draws, expected, rtol=0.05)

    def test_user_blocks_are_uncorrelated(self):
        sigma = uniform_sigma(4, 3, per_user_rows=2)
        draws = 2 * 10**4
        cross = 0.0 + 0.0j
        for k in range(draws):
            h = draw_wavenumber_channel(sigma, k).h_a
            cross += h[0, 0] * np.conj(h[2, 0])
        assert abs(cross / draws) < 0.05


class TestRealArithmeticKernel:
    def test_public_draw_is_the_real_parts_of_the_kernel_draw(
        self, rx_map_small, tx_map_medium
    ):
        sigma = dead_cell_sigma(rx_map_small, tx_map_medium, 3)
        seed = np.random.SeedSequence(entropy=5, spawn_key=(3, 1))
        h_a = draw_wavenumber_channel(sigma, seed).h_a
        parts = _draw_parts(sigma, seed)
        shape = (sigma.rx_sigma.size, sigma.tx_sigma.size)
        assert parts.shape == (2, *shape)
        assert np.array_equal(h_a, parts[0] + 1j * parts[1])
        # The two-call complex formula the kernel's single call replaces,
        # scaled rows by rx/sqrt(2) and then columns by tx.
        rng = np.random.default_rng(seed)
        noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        rows = (sigma.rx_sigma / np.sqrt(2.0))[:, None]
        assert np.array_equal(h_a, noise * rows * sigma.tx_sigma)

    def test_gram_matches_the_complex_product_and_is_exactly_hermitian(
        self, rx_map_small, tx_map_medium
    ):
        sigma = dead_cell_sigma(rx_map_small, tx_map_medium, 3)
        for seed in range(4):
            parts = _draw_parts(sigma, seed)
            h_a = parts[0] + 1j * parts[1]
            reference = h_a @ h_a.conj().T
            gram = _gram(parts)
            assert np.array_equal(gram, gram.conj().T)
            scale = np.max(np.abs(reference))
            assert np.max(np.abs(gram - reference)) <= 1e-13 * scale
            assert np.all(gram[1] == 0.0) and np.all(gram[:, 1] == 0.0)


class TestAssembleElementChannel:
    @pytest.fixture()
    def assembled(self, rx_map_small, tx_map_medium):
        rx_geometry = ArrayGeometry(6, 6, 1 / 3)
        tx_geometry = ArrayGeometry(14, 14, 1 / 3)
        rx_basis = harmonic_basis(
            rx_geometry, lattice_ellipse(rx_geometry), receive=True
        )
        tx_basis = harmonic_basis(tx_geometry, lattice_ellipse(tx_geometry))
        sigma = separable_sigma(rx_map_small, tx_map_medium, 2)
        realization = draw_wavenumber_channel(sigma, 13)
        element = assemble_element_channel(
            realization, [rx_basis, rx_basis], tx_basis
        )
        return realization, rx_basis, tx_basis, element

    def test_assembly_preserves_energy(self, assembled):
        realization, _, _, element = assembled
        assert np.linalg.norm(element) == pytest.approx(
            np.linalg.norm(realization.h_a), abs=1e-9
        )

    def test_bases_round_trip_the_draw(self, assembled):
        realization, rx_basis, tx_basis, element = assembled
        n_r = realization.per_user_rows
        patches = rx_basis.shape[0]
        for user in range(realization.num_users):
            block = element[user * patches : (user + 1) * patches]
            recovered = rx_basis.conj().T @ block @ tx_basis
            np.testing.assert_allclose(
                recovered,
                realization.h_a[user * n_r : (user + 1) * n_r],
                atol=1e-9,
            )

    def test_single_cell_draw_assembles_rank_one(self):
        geometry = ArrayGeometry(2, 2, 1 / 2)
        lattice = WavenumberLattice(cells=((0, 0),))
        rx_basis = harmonic_basis(geometry, lattice, receive=True)
        tx_basis = harmonic_basis(geometry, lattice)
        sigma = uniform_sigma(1, 1)
        realization = draw_wavenumber_channel(sigma, 0)
        scale = realization.h_a[0, 0]
        element = assemble_element_channel(realization, [rx_basis], tx_basis)
        np.testing.assert_allclose(element, scale * np.full((4, 4), 0.25), atol=1e-15)

    def test_rejects_mismatched_bases(self, assembled):
        realization, rx_basis, tx_basis, _ = assembled
        with pytest.raises(ValueError):
            assemble_element_channel(realization, [rx_basis], tx_basis)
        with pytest.raises(ValueError):
            assemble_element_channel(
                realization, [rx_basis, rx_basis], rx_basis
            )


class TestCorrelationEigenvalues:
    def test_two_by_two_toy_spectrum(self):
        rx_map = synthetic_map([1.0, 3.0])
        tx_map = synthetic_map([2.0, 4.0])
        spectrum = correlation_eigenvalues(rx_map, tx_map)
        # Padded with zeros to the full element-domain dimension 4 * 6.
        assert spectrum.size == 24
        np.testing.assert_allclose(spectrum[:4], [12.0, 6.0, 4.0, 2.0])
        np.testing.assert_array_equal(spectrum[4:], 0.0)

    def test_nonzero_count_is_the_cell_count_product(self):
        clean = variance_map(ArrayGeometry(14, 14, 1 / 6))  # no dead cells
        spectrum = correlation_eigenvalues(clean, clean)
        assert int(np.count_nonzero(spectrum)) == 21 * 21
        assert spectrum.size == 196 * 196

    def test_uniform_maps_give_a_flat_spectrum(self):
        rx_map = synthetic_map([2.0, 2.0, 2.0])
        tx_map = synthetic_map([1.0, 1.0])
        spectrum = correlation_eigenvalues(rx_map, tx_map)
        positive = spectrum[spectrum > 0]
        assert positive.size == 6
        np.testing.assert_allclose(positive, 2.0)

    def test_trace_equals_total_coupling_power(self, rx_map_small, tx_map_medium):
        spectrum = correlation_eigenvalues(rx_map_small, tx_map_medium)
        expected = np.sum(rx_map_small.normalized_sigma**2) * np.sum(
            tx_map_medium.normalized_sigma**2
        )
        assert np.sum(spectrum) == pytest.approx(expected, rel=1e-9)

    def test_spectrum_matches_brute_force_covariance(self):
        # Accumulate the sample covariance of the vectorized element-domain
        # channel and compare its eigenvalues with the analytic ones.
        geometry = ArrayGeometry(3, 3, 1 / 3)
        vmap = variance_map(geometry)
        lattice = lattice_ellipse(geometry)
        rx_basis = harmonic_basis(geometry, lattice, receive=True)
        tx_basis = harmonic_basis(geometry, lattice)
        sigma = separable_sigma(vmap, vmap, 1)
        draws = 3 * 10**4
        acc = np.zeros((81, 81), dtype=complex)
        for k in range(draws):
            realization = draw_wavenumber_channel(sigma, k)
            element = assemble_element_channel(realization, [rx_basis], tx_basis)
            flat = element.reshape(-1)
            acc += np.outer(flat, flat.conj())
        empirical = np.linalg.eigvalsh(acc / draws)[::-1]
        analytic = correlation_eigenvalues(vmap, vmap)
        positive = analytic > 1e-12
        np.testing.assert_allclose(
            empirical[positive], analytic[positive], rtol=0.04
        )
        assert np.sum(empirical) == pytest.approx(np.sum(analytic), rel=0.01)

    def test_effective_mode_count_grows_with_spacing(self):
        tx_map = variance_map(ArrayGeometry(30, 30, 1 / 3))
        counts = []
        for spacing in (1 / 6, 1 / 3, 1 / 2):
            rx_map = variance_map(ArrayGeometry(12, 12, spacing))
            spectrum = correlation_eigenvalues(rx_map, tx_map)
            counts.append(int(np.sum(spectrum >= 0.01 * spectrum[0])))
        assert counts == [3443, 14711, 34741]

    def test_half_wavelength_spacing_is_still_correlated(self):
        rx_map = variance_map(ArrayGeometry(24, 24, 1 / 2))
        tx_map = variance_map(ArrayGeometry(30, 30, 1 / 3))
        spectrum = correlation_eigenvalues(rx_map, tx_map)
        leading = spectrum[: 439 * 317]
        positive = leading[leading > 0]
        assert positive.max() / positive.min() > 2.0

    def test_spectrum_is_nonincreasing_and_nonnegative(self, rx_map_small, tx_map_medium):
        spectrum = correlation_eigenvalues(rx_map_small, tx_map_medium)
        assert spectrum.dtype == float and spectrum.ndim == 1
        assert np.all(np.diff(spectrum) <= 0.0)
        assert spectrum[-1] == 0.0 and np.all(spectrum >= 0.0)
