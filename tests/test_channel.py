"""Random channel draws, element-domain assembly, and correlation spectra."""

import math

import numpy as np
import pytest

from element_domain import assemble_element_channel, harmonic_basis

from holosim import (
    ArrayGeometry,
    ScenarioConfig,
    correlation_eigenvalues,
    draw_wavenumber_channel,
    lattice_ellipse,
    ns_zf,
    rate,
    simulated_se,
    variance_map,
)
from holosim.channel import _draw_parts, _gram
from holosim.harness import run_eigvals, run_se_sim, run_se_theory, run_variance_map


def dead_cell_sigma(rx_map, tx_map, users):
    """Preset-like scales with one dead stream and one dead transmit cell."""
    rx = np.tile(rx_map.normalized_sigma, users)
    tx = tx_map.normalized_sigma.copy()
    rx[1] = 0.0
    tx[2] = 0.0
    return rx, tx


def uniform_sigma(rows, cols, scale=1.0):
    return np.full(rows, float(scale)), np.full(cols, 1.0)


class TestDrawWavenumberChannel:
    def test_same_seed_is_bit_identical(self):
        sigma = uniform_sigma(3, 4)
        first = draw_wavenumber_channel(*sigma, 7)
        second = draw_wavenumber_channel(*sigma, 7)
        np.testing.assert_array_equal(first, second)
        assert first.shape == (3, 4) and first.dtype == complex

    def test_different_seeds_differ(self):
        sigma = uniform_sigma(3, 4)
        assert not np.array_equal(
            draw_wavenumber_channel(*sigma, 0),
            draw_wavenumber_channel(*sigma, 1),
        )

    def test_zero_scales_annihilate_the_draw(self):
        sigma = uniform_sigma(2, 3, scale=0.0)
        np.testing.assert_array_equal(draw_wavenumber_channel(*sigma, 5), 0.0)

    def test_entry_variance_follows_the_scale(self):
        # One entry with scale 2 must show sample variance 4 over many draws.
        sigma = np.array([2.0, 1.0]), np.array([1.0, 1.0, 1.0])
        draws = 10**5
        acc = 0.0
        for k in range(draws):
            acc += abs(draw_wavenumber_channel(*sigma, k)[0, 0]) ** 2
        assert acc / draws == pytest.approx(4.0, rel=0.05)

    def test_covariance_matches_scale_matrix_entrywise(self):
        sigma = np.array([1.0, 0.5]), np.array([2.0, 3.0])
        draws = 3 * 10**4
        acc = np.zeros((2, 2))
        for k in range(draws):
            acc += np.abs(draw_wavenumber_channel(*sigma, k)) ** 2
        expected = np.outer(*sigma) ** 2
        np.testing.assert_allclose(acc / draws, expected, rtol=0.05)

    def test_user_blocks_are_uncorrelated(self):
        sigma = uniform_sigma(4, 3)
        draws = 2 * 10**4
        cross = 0.0 + 0.0j
        for k in range(draws):
            h = draw_wavenumber_channel(*sigma, k)
            cross += h[0, 0] * np.conj(h[2, 0])
        assert abs(cross / draws) < 0.05


class TestRealArithmeticKernel:
    def test_public_draw_is_the_real_parts_of_the_kernel_draw(
        self, rx_map_small, tx_map_medium
    ):
        rx, tx = dead_cell_sigma(rx_map_small, tx_map_medium, 3)
        seed = np.random.SeedSequence(entropy=5, spawn_key=(3, 1))
        h_a = draw_wavenumber_channel(rx, tx, seed)
        parts = _draw_parts(rx, tx, seed)
        shape = (rx.size, tx.size)
        assert parts.shape == (2, *shape)
        assert np.array_equal(h_a, parts[0] + 1j * parts[1])
        # The two-call complex formula the kernel's single call replaces,
        # scaled rows by rx/sqrt(2) and then columns by tx.
        rng = np.random.default_rng(seed)
        noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        rows = (rx / np.sqrt(2.0))[:, None]
        assert np.array_equal(h_a, noise * rows * tx)

    def test_gram_matches_the_complex_product_and_is_exactly_hermitian(
        self, rx_map_small, tx_map_medium
    ):
        sigma = dead_cell_sigma(rx_map_small, tx_map_medium, 3)
        for seed in range(4):
            parts = _draw_parts(*sigma, seed)
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
        sigma = np.tile(rx_map_small.normalized_sigma, 2), tx_map_medium.normalized_sigma
        h_a = draw_wavenumber_channel(*sigma, 13)
        element = assemble_element_channel(h_a, [rx_basis, rx_basis], tx_basis)
        return h_a, rx_basis, tx_basis, element

    def test_assembly_preserves_energy(self, assembled):
        h_a, _, _, element = assembled
        assert np.linalg.norm(element) == pytest.approx(np.linalg.norm(h_a), abs=1e-9)

    def test_bases_round_trip_the_draw(self, assembled):
        h_a, rx_basis, tx_basis, element = assembled
        n_r = rx_basis.shape[1]
        patches = rx_basis.shape[0]
        for user in range(2):
            block = element[user * patches : (user + 1) * patches]
            recovered = rx_basis.conj().T @ block @ tx_basis
            np.testing.assert_allclose(
                recovered, h_a[user * n_r : (user + 1) * n_r], atol=1e-9
            )

    def test_each_user_takes_as_many_rows_as_its_basis_has_columns(self):
        # Users of different receive surfaces: 13 rows, then 5.
        geometries = [ArrayGeometry(6, 6, 1 / 3), ArrayGeometry(3, 3, 1 / 3)]
        rx_bases = [harmonic_basis(g, lattice_ellipse(g), receive=True) for g in geometries]
        tx_geometry = ArrayGeometry(8, 8, 1 / 3)
        tx_basis = harmonic_basis(tx_geometry, lattice_ellipse(tx_geometry))
        widths = [basis.shape[1] for basis in rx_bases]
        sigma = uniform_sigma(sum(widths), tx_basis.shape[1])
        h_a = draw_wavenumber_channel(*sigma, 2)
        element = assemble_element_channel(h_a, rx_bases, tx_basis)
        assert element.shape == (36 + 9, 64)
        np.testing.assert_allclose(
            rx_bases[1].conj().T @ element[36:] @ tx_basis, h_a[widths[0]:], atol=1e-9
        )

    def test_single_cell_draw_assembles_rank_one(self):
        geometry = ArrayGeometry(2, 2, 1 / 2)
        lattice = np.array([[0, 0]])
        rx_basis = harmonic_basis(geometry, lattice, receive=True)
        tx_basis = harmonic_basis(geometry, lattice)
        sigma = uniform_sigma(1, 1)
        h_a = draw_wavenumber_channel(*sigma, 0)
        scale = h_a[0, 0]
        element = assemble_element_channel(h_a, [rx_basis], tx_basis)
        np.testing.assert_allclose(element, scale * np.full((4, 4), 0.25), atol=1e-15)

    def test_rejects_mismatched_bases(self, assembled):
        h_a, rx_basis, tx_basis, _ = assembled
        rows, cols = h_a.shape
        with pytest.raises(ValueError, match=rf"\({rows // 2}, {cols}\) cells, draw has shape"):
            assemble_element_channel(h_a, [rx_basis], tx_basis)
        with pytest.raises(ValueError, match=rf"\({rows}, {rows // 2}\) cells"):
            assemble_element_channel(h_a, [rx_basis, rx_basis], rx_basis)


class TestCorrelationEigenvalues:
    def test_two_by_two_toy_spectrum(self):
        spectrum = correlation_eigenvalues(np.sqrt([1.0, 3.0]), np.sqrt([2.0, 4.0]))
        # The products only: no zeros of the element-domain dimension.
        assert spectrum.size == 4
        np.testing.assert_allclose(spectrum, [12.0, 6.0, 4.0, 2.0])

    def test_nonzero_count_is_the_cell_count_product(self, tmp_path):
        geometry = ArrayGeometry(14, 14, 1 / 6)
        clean = variance_map(geometry)  # no dead cells
        spectrum = correlation_eigenvalues(clean.normalized_sigma, clean.normalized_sigma)
        assert int(np.count_nonzero(spectrum)) == spectrum.size == 21 * 21
        # The artifact pads the same spectrum to the element-domain dimension.
        written = run_eigvals(ScenarioConfig(tx=geometry, rx=geometry), tmp_path / "eig.csv")
        assert written.size == 196 * 196
        assert int(np.count_nonzero(written)) == 21 * 21
        np.testing.assert_array_equal(written[: spectrum.size], spectrum / spectrum[0])

    def test_uniform_maps_give_a_flat_spectrum(self):
        spectrum = correlation_eigenvalues(np.full(3, np.sqrt(2.0)), np.ones(2))
        assert spectrum.size == 6
        np.testing.assert_allclose(spectrum, 2.0)

    def test_trace_equals_total_coupling_power(self, rx_map_small, tx_map_medium):
        spectrum = correlation_eigenvalues(
            rx_map_small.normalized_sigma, tx_map_medium.normalized_sigma
        )
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
        sigma = vmap.normalized_sigma, vmap.normalized_sigma
        draws = 3 * 10**4
        acc = np.zeros((81, 81), dtype=complex)
        for k in range(draws):
            h_a = draw_wavenumber_channel(*sigma, k)
            element = assemble_element_channel(h_a, [rx_basis], tx_basis)
            flat = element.reshape(-1)
            acc += np.outer(flat, flat.conj())
        empirical = np.linalg.eigvalsh(acc / draws)[::-1]
        analytic = correlation_eigenvalues(*sigma)
        positive = analytic > 1e-12
        np.testing.assert_allclose(
            empirical[: analytic.size][positive], analytic[positive], rtol=0.04
        )
        assert np.sum(empirical) == pytest.approx(np.sum(analytic), rel=0.01)

    def test_effective_mode_count_grows_with_spacing(self):
        tx_map = variance_map(ArrayGeometry(30, 30, 1 / 3))
        counts = []
        for spacing in (1 / 6, 1 / 3, 1 / 2):
            rx_map = variance_map(ArrayGeometry(12, 12, spacing))
            spectrum = correlation_eigenvalues(rx_map.normalized_sigma, tx_map.normalized_sigma)
            counts.append(int(np.sum(spectrum >= 0.01 * spectrum[0])))
        assert counts == [3443, 14711, 34741]

    def test_half_wavelength_spacing_is_still_correlated(self):
        rx_map = variance_map(ArrayGeometry(24, 24, 1 / 2))
        tx_map = variance_map(ArrayGeometry(30, 30, 1 / 3))
        spectrum = correlation_eigenvalues(rx_map.normalized_sigma, tx_map.normalized_sigma)
        assert spectrum.size == 439 * 317
        positive = spectrum[spectrum > 0]
        assert positive.max() / positive.min() > 2.0

    def test_spectrum_is_nonincreasing_and_nonnegative(
        self, rx_map_small, tx_map_medium, tmp_path
    ):
        spectrum = correlation_eigenvalues(
            rx_map_small.normalized_sigma, tx_map_medium.normalized_sigma
        )
        assert spectrum.dtype == float and spectrum.shape == (13 * 69,)
        assert np.all(np.diff(spectrum) <= 0.0) and np.all(spectrum >= 0.0)
        # The artifact keeps that order through its zero tail.
        config = ScenarioConfig(tx=ArrayGeometry(14, 14, 1 / 3), rx=ArrayGeometry(6, 6, 1 / 3))
        written = run_eigvals(config, tmp_path / "eig.csv")
        assert written.size == 36 * 196 and written[-1] == 0.0
        assert np.all(np.diff(written) <= 0.0) and np.all(written >= 0.0)


def _geometry(field):
    def run(count, out):
        sides = {"n_h": 3, "n_v": 3, field: count}
        run_variance_map(ArrayGeometry(**sides, spacing=1 / 3), out)
        return out.read_bytes()

    return run


def _scenario(field):
    def run(count, out):
        surfaces = {"tx": ArrayGeometry(6, 6, 1 / 3), "rx": ArrayGeometry(3, 3, 1 / 3)}
        run_se_theory(ScenarioConfig(**surfaces, schemes=("MRT",), **{field: count}), out)
        return out.read_bytes()

    return run


def _engine(field, scheme="ns-zf"):
    def run(count, out):
        counts = {"trials": 2, "seed": 0, "ns_iterations": 2, field: count}
        result = simulated_se(*uniform_sigma(2, 5), scheme, [0.0, 10.0], **counts)
        assert type(result.trials) is int
        return result.per_stream.tobytes() + result.per_stream_stderr.tobytes()

    return run


def _series(count, out):
    return ns_zf(draw_wavenumber_channel(*uniform_sigma(2, 5), 0), count).tobytes()


def _orders(count, out):
    config = ScenarioConfig(tx=ArrayGeometry(6, 6, 1 / 3), rx=ArrayGeometry(3, 3, 1 / 3),
                            users=1, snr_grid_db=(10.0,), trials=2, schemes=("ZF",))
    run_se_sim(config, out, ns_orders=(count,))
    return out.read_bytes()


# (name in the message, least count, a valid count, a run that returns what it produced)
COUNT_INPUTS = {
    "ArrayGeometry.n_h": ("n_h", 1, 3, _geometry("n_h")),
    "ArrayGeometry.n_v": ("n_v", 1, 3, _geometry("n_v")),
    "ScenarioConfig.users": ("users", 1, 2, _scenario("users")),
    "ScenarioConfig.trials": ("trials", 1, 2, _scenario("trials")),
    "ScenarioConfig.seed": ("seed", 0, 3, _scenario("seed")),
    "ScenarioConfig.ns_iterations": ("ns_iterations", 0, 2, _scenario("ns_iterations")),
    "simulated_se.trials": ("trials", 1, 2, _engine("trials")),
    "simulated_se.seed": ("seed", 0, 3, _engine("seed")),
    "simulated_se.ns_iterations": ("ns_iterations", 0, 2, _engine("ns_iterations")),
    "simulated_se[mrt].ns_iterations": (
        "ns_iterations", 0, 2, _engine("ns_iterations", "mrt")
    ),
    "simulated_se[zf].ns_iterations": (
        "ns_iterations", 0, 2, _engine("ns_iterations", "zf")
    ),
    "simulated_se[mmse].ns_iterations": (
        "ns_iterations", 0, 2, _engine("ns_iterations", "mmse")
    ),
    "ns_zf.iterations": ("iterations", 0, 2, _series),
    "run_se_sim.ns_orders": ("iters", 0, 2, _orders),
}


class TestCountRule:
    # Every count the package takes is read by one rule: an int or a NumPy
    # integer of at least the input's least value, and nothing else.
    @pytest.mark.parametrize("entry", COUNT_INPUTS.values(), ids=COUNT_INPUTS.keys())
    @pytest.mark.parametrize("bad", [True, 2.0, "2", None, "least - 1"],
                             ids=["bool", "float", "string", "none", "below-least"])
    def test_a_value_that_is_not_a_count_names_the_input(self, entry, bad, tmp_path):
        name, least, _, run = entry
        value = least - 1 if bad == "least - 1" else bad
        with pytest.raises(ValueError, match=f"^invalid value for {name}: "):
            run(value, tmp_path / "out.csv")

    @pytest.mark.parametrize("scheme", ["mrt", "zf", "mmse", "ns-zf"])
    def test_every_scheme_reads_its_series_order_before_any_draw(self, scheme, count_calls):
        # Unchecked, every scheme but NS-ZF ran with any order at all.
        draws = count_calls(rate, "_draw_parts")
        with pytest.raises(ValueError, match="^invalid value for ns_iterations: 'x'"):
            simulated_se(*uniform_sigma(2, 5), scheme, [0.0], trials=2, ns_iterations="x")
        assert draws == []

    @pytest.mark.parametrize("entry", COUNT_INPUTS.values(), ids=COUNT_INPUTS.keys())
    def test_a_numpy_integer_is_the_int_it_holds(self, entry, tmp_path):
        # What each run produced: a CSV with its config line, or the bits of a result.
        _, _, count, run = entry
        as_int = run(count, tmp_path / "int.csv")
        assert run(np.int64(count), tmp_path / "numpy.csv") == as_int
