"""Spectral-efficiency estimation: SINR accounting, Monte Carlo, closed forms."""

import inspect
import math
import warnings

import numpy as np
import pytest

from holosim import (
    ArrayGeometry,
    SEResult,
    SINR_CAP,
    draw_wavenumber_channel,
    mmse,
    mrt,
    mrt_theoretical_bound,
    ns_zf,
    per_stream_sinr,
    simulated_se,
    variance_map,
    zf,
    zf_theoretical,
)
from holosim import harness, rate
from holosim.harness import ScenarioConfig, run_se_sim


def channel(matrix):
    return np.asarray(matrix, dtype=complex)


def uniform_sigma(rows, cols):
    return np.ones(rows), np.ones(cols)


class TestPerStreamSINR:
    def test_zero_forcing_turns_gains_into_exact_sinr(self):
        h_a = channel([[1, 0, 0], [0, 0, 0], [0, 2, 0]])
        v = zf(h_a)
        sinr = per_stream_sinr(h_a, v, p_u=2.0, noise_var=0.5)
        gains = np.diagonal(h_a @ v)
        expected = 2.0 * np.abs(gains) ** 2 / 0.5
        np.testing.assert_allclose(sinr, expected, rtol=1e-12)
        assert sinr[1] == 0.0

    def test_interference_free_streams_cap_at_zero_noise(self):
        h_a = channel([[1, 0, 0], [0, 0, 0], [0, 2, 0]])
        sinr = per_stream_sinr(h_a, zf(h_a), p_u=1.0, noise_var=0.0)
        np.testing.assert_array_equal(sinr, [SINR_CAP, 0.0, SINR_CAP])

    def test_single_stream_matched_transmission(self):
        rng = np.random.default_rng(6)
        h = rng.standard_normal((1, 5)) + 1j * rng.standard_normal((1, 5))
        sinr = per_stream_sinr(h, mrt(h), p_u=3.0, noise_var=2.0)
        energy = np.linalg.norm(h) ** 2
        assert sinr[0] == pytest.approx(3.0 * energy / 2.0, rel=1e-12)

    def test_scales_cancel_between_power_and_noise(self):
        h_a = draw_wavenumber_channel(*uniform_sigma(3, 6), 8)
        v = mrt(h_a)
        base = per_stream_sinr(h_a, v, p_u=2.0, noise_var=0.5)
        scaled = per_stream_sinr(h_a, v, p_u=20.0, noise_var=5.0)
        np.testing.assert_allclose(scaled, base, rtol=1e-12)

    def test_transmit_phase_offsets_do_not_change_sinr(self):
        # A per-cell unit-modulus phase (a shifted transmit origin) must leave
        # every scheme's SINRs untouched.
        sigma = uniform_sigma(3, 6)
        h_a = draw_wavenumber_channel(*sigma, 12)
        phases = np.exp(2j * np.pi * np.random.default_rng(1).uniform(size=6))
        shifted = h_a * phases
        builders = [
            mrt,
            zf,
            lambda r: mmse(r, snr=10.0),
            lambda r: ns_zf(r, 3),
        ]
        for build in builders:
            base = per_stream_sinr(h_a, build(h_a), 2.0, 1.0)
            moved = per_stream_sinr(shifted, build(shifted), 2.0, 1.0)
            np.testing.assert_allclose(moved, base, rtol=1e-9)

    def test_rejects_bad_scalars_and_shapes(self):
        h_a = draw_wavenumber_channel(*uniform_sigma(2, 4), 0)
        v = mrt(h_a)
        with pytest.raises(ValueError):
            per_stream_sinr(h_a, v, p_u=0.0, noise_var=1.0)
        with pytest.raises(ValueError):
            per_stream_sinr(h_a, v, p_u=1.0, noise_var=-0.1)
        # Unchecked, a non-finite power or noise reads as SINR 0 on every stream.
        for p_u, noise_var, name in [(math.inf, 1.0, "p_u"), (1.0, math.inf, "noise_var"),
                                     (1.0, math.nan, "noise_var")]:
            with pytest.raises(ValueError, match=f"{name} must be"):
                per_stream_sinr(h_a, v, p_u, noise_var)
        other = draw_wavenumber_channel(*uniform_sigma(3, 4), 0)
        with pytest.raises(ValueError, match="disagree"):
            per_stream_sinr(other, v, p_u=1.0, noise_var=1.0)


class TestSEResult:
    def test_rejects_inconsistent_fields(self):
        with pytest.raises(ValueError):
            SEResult(
                per_stream=np.array([[-0.5]]),
                trials=1,
                snr_grid_db=(0.0,),
                scheme="MRT",
            )
        with pytest.raises(ValueError, match="trials"):
            SEResult(
                per_stream=np.array([[1.0]]),
                trials=0,
                snr_grid_db=(0.0,),
                scheme="MRT",
            )
        with pytest.raises(ValueError):
            SEResult(
                per_stream=np.array([1.0]),
                trials=1,
                snr_grid_db=(0.0,),
                scheme="MRT",
            )


class TestSimulatedSE:
    def test_default_trial_count(self):
        parameters = inspect.signature(simulated_se).parameters
        assert parameters["trials"].default == 800
        assert parameters["ns_iterations"].default == 3

    def test_repeat_runs_are_bit_identical(self):
        sigma = uniform_sigma(3, 6)
        first = simulated_se(*sigma, "zf", [0.0, 10.0], trials=8, seed=9)
        second = simulated_se(*sigma, "zf", [0.0, 10.0], trials=8, seed=9)
        np.testing.assert_array_equal(first.per_stream, second.per_stream)
        np.testing.assert_array_equal(
            first.per_stream_stderr, second.per_stream_stderr
        )
        assert first.snr_grid_db == (0.0, 10.0)
        assert first.scheme == "ZF"
        assert first.trials == 8

    def test_single_trial_has_zero_stderr(self):
        result = simulated_se(*uniform_sigma(2, 5), "mrt", [10.0], trials=1, seed=0)
        np.testing.assert_array_equal(result.per_stream_stderr, 0.0)

    def test_scheme_names_are_case_insensitive(self):
        sigma = uniform_sigma(2, 5)
        for name in ("mrt", " MRT ", "Mrt"):
            assert simulated_se(*sigma, name, [0.0], trials=1).scheme == "MRT"
        assert simulated_se(*sigma, "ns_zf", [0.0], trials=1).scheme == "NS-ZF"
        with pytest.raises(ValueError, match="unknown scheme"):
            simulated_se(*sigma, "svd", [0.0], trials=1)
        with pytest.raises(ValueError, match="trials"):
            simulated_se(*sigma, "mrt", [0.0], trials=0)

    @pytest.mark.parametrize(
        "scheme, build",
        [
            ("mrt", lambda r, snr: mrt(r)),
            ("zf", lambda r, snr: zf(r)),
            ("mmse", mmse),
            ("ns-zf", lambda r, snr: ns_zf(r, 2)),
        ],
    )
    def test_monte_carlo_matches_the_public_precoders(self, scheme, build):
        # One trial at attempt 0 gives the rate of the public precoder on the
        # same draw, dead stream included.
        rx = np.array([1.0, 0.0, 2.0, 0.5])
        tx = np.array([1.0, 0.7, 1.3, 0.4, 0.9, 1.1])
        grid = [-5.0, 10.0, 25.0]
        h_a = draw_wavenumber_channel(
            rx, tx, np.random.SeedSequence(17, spawn_key=(0, 0))
        )
        expected = []
        for snr_db in grid:
            snr = 10.0 ** (snr_db / 10.0)
            sinr = per_stream_sinr(h_a, build(h_a, snr), snr, 1.0)
            expected.append(np.log2(1.0 + sinr))
        result = simulated_se(rx, tx, scheme, grid, trials=1, seed=17, ns_iterations=2)
        assert result.rejections == 0
        np.testing.assert_allclose(
            result.per_stream, np.column_stack(expected), rtol=1e-10
        )
        np.testing.assert_array_equal(result.per_stream[1], 0.0)

    @pytest.mark.parametrize("order", [0, 1, 3, 7])
    def test_monte_carlo_matches_the_public_series_at_every_order(self, order):
        # The engine reads each order's coupled matrix from the Horner pass
        # instead of forming G X; one trial still gives the public rates.
        rx = np.array([1.0, 0.0, 2.0, 0.5])
        tx = np.array([1.0, 0.7, 1.3, 0.4, 0.9, 1.1])
        grid = [-5.0, 10.0, 25.0]
        h_a = draw_wavenumber_channel(
            rx, tx, np.random.SeedSequence(17, spawn_key=(0, 0))
        )
        v = ns_zf(h_a, order)
        expected = np.column_stack(
            [
                np.log2(1.0 + per_stream_sinr(h_a, v, snr, 1.0))
                for snr in 10.0 ** (np.asarray(grid) / 10.0)
            ]
        )
        result = simulated_se(
            rx, tx, "ns-zf", grid, trials=1, seed=17, ns_iterations=order
        )
        assert result.rejections == 0
        np.testing.assert_allclose(result.per_stream, expected, rtol=1e-10)
        np.testing.assert_array_equal(result.per_stream[1], 0.0)

    def test_zero_forcing_rejects_more_streams_than_cells(self):
        for scheme in ("zf", "ns-zf"):
            with pytest.raises(ValueError, match="exceed"):
                simulated_se(*uniform_sigma(5, 3), scheme, [10.0], trials=2, seed=0)

    def test_zero_forcing_counts_only_live_transmit_cells(self, count_calls):
        # Three streams on two live cells of three: every Gram has rank 2.
        tx = np.array([1.0, 1.0, 0.0])
        draws = count_calls(rate, "_draw_parts")
        h_a = channel([[1, 0, 0], [0, 1, 0], [1, 1, 0]])
        for precode in (zf, ns_zf):
            with pytest.raises(ValueError, match="exceed 2 active transmit cells"):
                precode(h_a)
        for scheme in ("zf", "ns-zf"):
            with pytest.raises(ValueError, match="exceed 2 active transmit cells"):
                simulated_se(np.ones(3), tx, scheme, [10.0], trials=2, seed=0)
        assert draws == []

    @pytest.mark.parametrize("trials", [True, 2.5, 2.0])
    def test_rejects_a_trial_count_that_is_not_a_positive_int(self, trials, count_calls):
        draws = count_calls(rate, "_draw_parts")
        with pytest.raises(ValueError, match="trials must be an integer"):
            simulated_se(*uniform_sigma(2, 5), "mrt", [0.0], trials=trials)
        assert draws == []

    @pytest.mark.parametrize("seed", [None, True, 1.5, -1])
    def test_rejects_a_seed_that_is_not_a_nonnegative_int(self, seed, count_calls):
        # None would draw from fresh OS entropy and True would run as seed 1.
        draws = count_calls(rate, "_draw_parts")
        with pytest.raises(ValueError, match="seed must be an integer"):
            simulated_se(*uniform_sigma(2, 5), "mrt", [0.0], trials=2, seed=seed)
        assert draws == []

    def test_a_numpy_integer_seed_is_that_seed(self):
        runs = [simulated_se(*uniform_sigma(2, 5), "mrt", [0.0], trials=2, seed=seed)
                for seed in (9, np.int64(9))]
        np.testing.assert_array_equal(runs[0].per_stream, runs[1].per_stream)

    @pytest.mark.parametrize("grid", [[], [0.0, math.nan], [math.inf]], ids=["empty", "nan", "inf"])
    def test_rejects_an_empty_or_non_finite_snr_grid(self, grid, count_calls):
        # Unchecked, each returns a result (SE 0 at a non-finite point).
        draws = count_calls(rate, "_draw_parts")
        with pytest.raises(ValueError, match="snr"):
            simulated_se(*uniform_sigma(2, 5), "mrt", grid, trials=2, seed=0)
        assert draws == []

    @pytest.mark.parametrize("order", [True, 1.5])
    def test_rejects_a_series_order_that_is_not_an_int(self, order):
        with pytest.raises(ValueError, match="nonnegative integer"):
            simulated_se(*uniform_sigma(2, 5), "ns-zf", [0.0], trials=1, ns_iterations=order)

    def test_sum_rows_match_per_stream_columns(self, rx_map_small, tx_map_medium):
        sigma = rx_map_small.normalized_sigma, tx_map_medium.normalized_sigma
        result = simulated_se(*sigma, "mrt", [0.0, 10.0], trials=5, seed=1)
        np.testing.assert_allclose(result.sum_se, result.per_stream.sum(axis=0))
        assert result.per_stream.shape == (13, 2)

    def test_se_grows_with_snr(self, rx_map_small, tx_map_medium):
        sigma = rx_map_small.normalized_sigma, tx_map_medium.normalized_sigma
        for scheme in ("mrt", "zf"):
            result = simulated_se(
                *sigma, scheme, [-10.0, 0.0, 10.0, 20.0, 30.0], trials=50, seed=5
            )
            assert np.all(np.diff(result.sum_se) > -1e-3)


class TestSharedEngine:
    def test_joint_job_matches_separate_estimates_through_redraws(
        self, tmp_path, monkeypatch, count_calls
    ):
        # The weak eighth stream leaves some 8-by-9 draws too ill-conditioned
        # for zero-forcing, so ZF redraws while MRT and MMSE keep attempt 0.
        rx = np.array([1.0] * 7 + [1e-5])
        tx = np.ones(9)
        monkeypatch.setattr(harness, "_sigma", lambda config: (rx, tx))
        draws = count_calls(rate, "_draw_parts")
        eighs = count_calls(np.linalg, "eigh")
        config = ScenarioConfig(
            tx=ArrayGeometry(6, 6, 1 / 3),
            rx=ArrayGeometry(2, 2, 1 / 3),
            users=1,
            snr_grid_db=(0.0, 20.0),
            trials=40,
            seed=3,
            schemes=("MRT", "ZF", "MMSE"),
        )
        with pytest.warns(RuntimeWarning, match="2 singular draws rejected over 40"):
            joint = run_se_sim(config, tmp_path / "se.csv")
        # One draw and one eigendecomposition per attempt, shared by all
        # schemes: 40 trials plus ZF's 2 redraws.
        assert len(draws) == 42
        assert len(eighs) == 42
        assert {tag: r.rejections for tag, r in joint.items()} == {
            "MRT": 0,
            "ZF": 2,
            "MMSE": 0,
        }
        for tag, result in joint.items():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                alone = simulated_se(rx, tx, tag, [0.0, 20.0], trials=40, seed=3)
            assert result.rejections == alone.rejections
            np.testing.assert_array_equal(result.per_stream, alone.per_stream)
            np.testing.assert_array_equal(
                result.per_stream_stderr, alone.per_stream_stderr
            )

    def test_every_scheme_and_series_order_matches_its_separate_run(self):
        # The forced-redraw ensemble above, with all four schemes and four
        # series orders in one job: one buffer, one SINR and one log2 per
        # draw must leave each spec's estimate bit for bit as it is alone.
        rx = np.array([1.0] * 7 + [1e-5])
        tx = np.ones(9)
        specs = [("MRT", None), ("ZF", None), ("MMSE", None)]
        specs += [("NS-ZF", order) for order in (0, 1, 2, 7)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            joint = rate._simulate(rx, tx, specs, [0.0, 20.0], 40, 3)
            alone = [
                simulated_se(rx, tx, tag, [0.0, 20.0], trials=40, seed=3, ns_iterations=order or 0)
                for tag, order in specs
            ]
        assert [r.rejections for r in joint][:3] == [0, 2, 0]
        for together, separate in zip(joint, alone):
            assert together.scheme == separate.scheme
            assert together.rejections == separate.rejections
            np.testing.assert_array_equal(together.per_stream, separate.per_stream)
            np.testing.assert_array_equal(
                together.per_stream_stderr, separate.per_stream_stderr
            )

    def test_matched_transmission_needs_no_eigendecomposition(self, count_calls):
        eighs = count_calls(np.linalg, "eigh")
        simulated_se(*uniform_sigma(3, 6), "mrt", [0.0, 10.0], trials=4, seed=1)
        assert eighs == []


@pytest.fixture(scope="module")
def three_user_sums(rx_map_small, tx_map_medium):
    sigma = np.tile(rx_map_small.normalized_sigma, 3), tx_map_medium.normalized_sigma
    return {
        scheme: simulated_se(*sigma, scheme, [10.0], trials=200, seed=42).sum_se[0]
        for scheme in ("mrt", "zf", "mmse")
    }


class TestSchemeOrdering:
    def test_frozen_multiuser_sums(self, three_user_sums):
        assert three_user_sums["mrt"] == pytest.approx(50.2072, abs=2e-4)
        assert three_user_sums["zf"] == pytest.approx(215.9033, abs=2e-4)
        assert three_user_sums["mmse"] == pytest.approx(213.6703, abs=2e-4)

    def test_regularized_tracks_the_best_scheme(self, three_user_sums):
        best = max(three_user_sums.values())
        assert three_user_sums["mmse"] >= 0.98 * best

    def test_nulling_beats_matching_at_high_snr(self, three_user_sums):
        assert three_user_sums["zf"] > three_user_sums["mrt"]

    def test_regularized_tracks_the_best_scheme_on_light_channels(self):
        sigma = uniform_sigma(3, 6)
        sums = {
            scheme: simulated_se(*sigma, scheme, [10.0], trials=800, seed=42).sum_se[0]
            for scheme in ("mrt", "zf", "mmse")
        }
        assert sums["mrt"] == pytest.approx(6.1085, abs=2e-4)
        assert sums["zf"] == pytest.approx(11.0945, abs=2e-4)
        assert sums["mmse"] == pytest.approx(11.0338, abs=2e-4)
        assert sums["mmse"] >= 0.98 * max(sums.values())

    def test_matched_transmission_plateaus_at_high_snr(
        self, rx_map_small, tx_map_medium
    ):
        sigma = np.tile(rx_map_small.normalized_sigma, 3), tx_map_medium.normalized_sigma
        result = simulated_se(*sigma, "mrt", [20.0, 30.0], trials=200, seed=42)
        assert abs(result.sum_se[1] - result.sum_se[0]) < 0.1

    def test_denser_transmit_sampling_beats_sparser_at_fixed_patch_count(
        self, rx_map_small
    ):
        sums = {}
        for spacing in (1 / 6, 1 / 15):
            tx_map = variance_map(ArrayGeometry(30, 30, spacing))
            sigma = rx_map_small.normalized_sigma, tx_map.normalized_sigma
            for scheme in ("zf", "mrt"):
                result = simulated_se(*sigma, scheme, [10.0], trials=100, seed=7)
                sums[scheme, spacing] = result.sum_se[0]
        assert sums["zf", 1 / 6] == pytest.approx(121.969, abs=2e-3)
        assert sums["zf", 1 / 15] == pytest.approx(74.053, abs=2e-3)
        assert sums["mrt", 1 / 6] == pytest.approx(32.498, abs=2e-3)
        assert sums["mrt", 1 / 15] == pytest.approx(11.412, abs=2e-3)
        assert sums["zf", 1 / 6] > sums["zf", 1 / 15]
        assert sums["mrt", 1 / 6] > sums["mrt", 1 / 15]


def scalar_mrt_bound(rx, tx, p_u, noise_var, stream):
    """Per-stream MRT closed form, one stream and one power at a time."""
    rx_sq = rx**2
    own = rx_sq[stream]
    total_tx = float(np.sum(tx**2))
    cross_tx = float(np.sum(tx**4)) / total_tx
    others = float(np.sum(rx_sq)) - own
    numerator = p_u * total_tx * own**2
    denominator = p_u * cross_tx * own * others + noise_var * float(np.sum(rx_sq))
    return math.log2(1.0 + numerator / denominator)


def scalar_zf(rx, tx, p_u, noise_var, stream):
    """Per-stream ZF closed form, one stream and one power at a time."""
    active_streams = int(np.count_nonzero(rx > 0.0))
    active_cells = int(np.count_nonzero(tx > 0.0))
    if rx[stream] == 0.0:
        return 0.0
    avg_tx = float(np.sum(tx**2)) / active_cells
    gain = (
        (p_u / (active_streams * noise_var))
        * (active_cells - active_streams + 1)
        * rx[stream] ** 2
        * avg_tx
    )
    return math.log2(1.0 + gain)


class TestTheoryTable:
    def test_table_equals_the_per_stream_formulas_bitwise(
        self, rx_map_small, tx_map_medium
    ):
        rx = np.tile(rx_map_small.normalized_sigma, 3)
        tx = tx_map_medium.normalized_sigma.copy()
        rx[4] = 0.0  # a dead stream
        tx[0] = 0.0  # and a dead transmit cell
        powers = [10.0 ** (snr / 10.0) for snr in range(-10, 31, 5)]
        for scheme, scalar, public in (
            ("MRT", scalar_mrt_bound, mrt_theoretical_bound),
            ("ZF", scalar_zf, zf_theoretical),
        ):
            table = public(rx, tx, powers, 0.7)
            expected = np.array(
                [[scalar(rx, tx, p_u, 0.7, k) for p_u in powers] for k in range(rx.size)]
            )
            assert table.shape == (rx.size, len(powers))
            assert np.array_equal(table, expected)
            # Column sums add the rows in order, like a running sum per power.
            running = [sum(expected[:, col].tolist()) for col in range(len(powers))]
            assert table.sum(axis=0).tolist() == running
            # A scalar power gives one column.
            assert np.array_equal(public(rx, tx, powers[3], 0.7), expected[:, 3:4])
        assert zf_theoretical(rx, tx, powers, 0.7)[4].tolist() == [0.0] * 9

    @pytest.mark.parametrize(
        "scheme, args, match",
        [
            ("MRT", (np.array([]), np.ones(3), 1.0, 1.0), "nonempty"),
            ("ZF", (np.ones(2), np.ones(4), 0.0, 1.0), "positive"),
            ("ZF", (np.ones(2), np.ones(4), 1.0, 0.0), "positive"),
            ("MRT", (np.ones(2), np.ones(2), 1.0, 1.0), "more than two"),
            ("ZF", (np.ones(5), np.ones(3), 1.0, 1.0), "exceed"),
            ("MRT", (np.ones(2), np.array([1.0, 0.0, 0.0]), 1.0, 1.0), "more than two"),
            ("ZF", (np.zeros(2), np.zeros(3), 1.0, 1.0), "rx_sigma has no live stream"),
            ("MRT", (np.zeros(2), np.ones(3), 1.0, 1.0), "rx_sigma has no live stream"),
            ("ZF", (np.ones(2), np.zeros(3), 1.0, 1.0), "tx_sigma has no live cell"),
            ("MRT", (np.ones(2), np.zeros(3), 1.0, 1.0), "tx_sigma has no live cell"),
            # Unchecked, an infinite power gives inf (ZF) or an invalid
            # divide (MRT), and an infinite noise variance gives SE 0.
            *(
                (scheme, (np.ones(2), np.ones(4), p_u, noise_var), "positive and finite")
                for scheme in ("MRT", "ZF")
                for p_u, noise_var in [(math.inf, 1.0), ([1.0, math.inf], 1.0),
                                       (1.0, math.inf), (1.0, math.nan)]
            ),
        ],
    )
    def test_table_raises_the_scalar_errors(self, scheme, args, match):
        public = {"MRT": mrt_theoretical_bound, "ZF": zf_theoretical}[scheme]
        with pytest.raises(ValueError, match=match):
            public(*args)


class TestTheoreticalExpressions:
    def test_single_stream_matched_bound_reduces_to_snr_formula(self):
        (value,) = mrt_theoretical_bound(np.array([2.0]), np.ones(3), p_u=4.0, noise_var=0.5)[0]
        assert value == pytest.approx(math.log2(1.0 + 4.0 * 3.0 * 4.0 / 0.5), rel=1e-12)

    def test_matched_cross_talk_uses_the_fourth_transmit_moment(self):
        # E|h_0 h_1^H|^2 = s_0^2 s_1^2 sum(t^4): with t = (1, 1, 2) the
        # cross-talk factor is sum(t^4) / sum(t^2) = 18 / 6 = 3, not the
        # mean power sum(t^2) / N = 2.  SINR = 6 / (3 * 1 * 4 + 5) = 6 / 17.
        value = mrt_theoretical_bound(np.array([1.0, 2.0]), np.array([1.0, 1.0, 2.0]), 1.0, 1.0)
        assert value[0, 0] == pytest.approx(math.log2(1.0 + 6.0 / 17.0), rel=1e-12)

    def test_matched_bound_shrinks_as_streams_are_added(self):
        lone = mrt_theoretical_bound(np.ones(1), np.ones(8), 2.0, 1.0)
        crowded = mrt_theoretical_bound(np.ones(3), np.ones(8), 2.0, 1.0)
        assert crowded[0, 0] < lone[0, 0]

    def test_classical_identity_nulling_formula(self):
        value = zf_theoretical(np.ones(4), np.ones(10), p_u=2.0, noise_var=1.0)
        assert value[0, 0] == pytest.approx(math.log2(1.0 + (2.0 / 4.0) * 7.0), rel=1e-12)

    def test_square_nulling_loses_all_array_gain(self):
        value = zf_theoretical(np.ones(5), np.ones(5), p_u=5.0, noise_var=1.0)
        assert value[2, 0] == pytest.approx(1.0, rel=1e-12)

    def test_nulling_skips_dead_streams(self):
        rx = np.array([1.0, 0.0, 2.0])
        value = zf_theoretical(rx, np.ones(4), 1.0, 1.0)
        assert value[1, 0] == 0.0
        # Only two live streams share the power and count against the cells.
        assert value[2, 0] == pytest.approx(math.log2(1.0 + 0.5 * 3.0 * 4.0), rel=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            mrt_theoretical_bound(np.array([]), np.ones(3), 1.0, 1.0)
        with pytest.raises(ValueError, match="more than two"):
            mrt_theoretical_bound(np.ones(2), np.ones(2), 1.0, 1.0)
        with pytest.raises(ValueError, match="exceed"):
            zf_theoretical(np.ones(5), np.ones(3), 1.0, 1.0)
        with pytest.raises(ValueError):
            zf_theoretical(np.ones(2), np.ones(4), 0.0, 1.0)
        with pytest.raises(ValueError):
            zf_theoretical(np.ones(2), np.ones(4), [1.0, -1.0], 1.0)
        with pytest.raises(ValueError):
            zf_theoretical(np.ones(2), np.ones(4), 1.0, 0.0)

    def test_nulling_formula_tracks_simulation(self, rx_map_small, tx_map_medium):
        sigma = np.tile(rx_map_small.normalized_sigma, 3), tx_map_medium.normalized_sigma
        result = simulated_se(*sigma, "zf", [0.0, 20.0], trials=300, seed=42)
        p_u = [10.0 ** (snr_db / 10.0) for snr_db in result.snr_grid_db]
        theory = zf_theoretical(*sigma, p_u, 1.0).sum(axis=0)
        for col, snr_db in enumerate(result.snr_grid_db):
            gap = abs(theory[col] - result.sum_se[col]) / result.sum_se[col]
            assert gap < (0.10 if snr_db == 0.0 else 0.15)

    def test_both_formulas_grow_with_more_transmit_cells(self, rx_map_small):
        simulated = []
        theory = []
        for patches in (24, 30, 60):
            tx_map = variance_map(ArrayGeometry(patches, patches, 1 / 3))
            sigma = rx_map_small.normalized_sigma, tx_map.normalized_sigma
            result = simulated_se(*sigma, "zf", [10.0], trials=100, seed=3)
            simulated.append(result.sum_se[0] / sigma[0].size)
            theory.append(zf_theoretical(*sigma, 10.0, 1.0)[0, 0])
        assert simulated == sorted(simulated)
        assert theory == sorted(theory)
        assert simulated[0] > 0.0 and theory[0] > 0.0


# The four entry points that take the ensemble; every one runs the shared
# factor check first.
ENSEMBLE_ENTRY_POINTS = {
    "draw": lambda rx, tx: draw_wavenumber_channel(rx, tx, 0),
    "simulated_se": lambda rx, tx: simulated_se(rx, tx, "zf", [0.0], trials=2, seed=0),
    "mrt_bound": lambda rx, tx: mrt_theoretical_bound(rx, tx, 1.0, 1.0),
    "zf_theory": lambda rx, tx: zf_theoretical(rx, tx, 1.0, 1.0),
}


class TestFactorCheck:
    @pytest.mark.parametrize("entry", ENSEMBLE_ENTRY_POINTS)
    @pytest.mark.parametrize(
        "rx, tx, name",
        [
            ([1.0, math.nan], np.ones(4), "rx_sigma"),
            ([math.inf, 1.0], np.ones(4), "rx_sigma"),
            (np.ones(2), [1.0, 1.0, 1.0, -0.5], "tx_sigma"),
            (np.ones((1, 2)), np.ones(4), "rx_sigma"),
            (np.ones(2), np.ones((4, 1)), "tx_sigma"),
            (np.ones(2), [], "tx_sigma"),
            ([], np.ones(4), "rx_sigma"),
        ],
        ids=["nan", "inf", "negative", "2-D-rx", "2-D-tx", "empty-tx", "empty-rx"],
    )
    def test_rejects_malformed_factors_before_any_draw(self, entry, rx, tx, name, count_calls):
        draws = count_calls(rate, "_draw_parts")
        with pytest.raises(ValueError, match=f"{name} must be a nonempty vector"):
            ENSEMBLE_ENTRY_POINTS[entry](rx, tx)
        assert draws == []

    @pytest.mark.parametrize("entry", ENSEMBLE_ENTRY_POINTS)
    def test_a_list_of_floats_is_its_array(self, entry):
        rx, tx = [1.0, 0.5], [1.0, 0.7, 1.3, 0.4]
        from_lists = ENSEMBLE_ENTRY_POINTS[entry](rx, tx)
        from_arrays = ENSEMBLE_ENTRY_POINTS[entry](np.array(rx), np.array(tx))
        if entry == "simulated_se":
            from_lists, from_arrays = from_lists.per_stream, from_arrays.per_stream
        np.testing.assert_array_equal(from_lists, from_arrays)
