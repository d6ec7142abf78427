"""Spectral-efficiency estimation: SINR accounting, Monte Carlo, closed forms."""

import inspect
import math
import numbers
import threading
import types
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import vector_domain as oracle

from holosim import (
    ArrayGeometry,
    SINR_CAP,
    SingularChannelError,
    correlation_eigenvalues,
    mrt_theoretical_bound,
    simulated_se,
    variance_map,
    zf_theoretical,
)
from holosim import harness, rate
from holosim.harness import ScenarioConfig, run_se_sim


def uniform_sigma(rows, cols):
    return np.ones(rows), np.ones(cols)


# Stream 1 of this ensemble is dead: its receive scale is zero.
DEAD_STREAM = np.array([1.0, 0.0, 2.0, 0.5]), np.array([1.0, 0.7, 1.3, 0.4, 0.9, 1.1])
# The dead stream again, with transmit cells 1 and 4 dead: 3 live streams on 4 live cells.
DEAD_CELLS = DEAD_STREAM[0], np.array([1.0, 0.0, 1.3, 0.4, 0.0, 1.1])
# One live stream beside a dead one: every scheme's Gram block is 1x1.
ONE_LIVE_STREAM = np.array([0.0, 2.0]), DEAD_STREAM[1]
ORACLE_SPECS = [("MRT", 0), ("ZF", 0), ("MMSE", 0), *(("NS-ZF", order) for order in (0, 1, 3, 7))]
ORACLE_IDS = [f"{tag}-{order}" if tag == "NS-ZF" else tag for tag, order in ORACLE_SPECS]
ORACLE_GRID = [-5.0, 10.0, 25.0]
# Nonzero factors whose squares, or all of whose products of squares,
# underflow, to 0 or to a subnormal float (10**-161.7 squares to 5e-324).
UNDERFLOWING_ENSEMBLES = [
    (np.array([1e-200]), np.ones(9), "rx_sigma has no live stream"),
    (np.ones(2), np.full(9, 1e-200), "tx_sigma has no live cell"),
    (np.full(2, 1e-100), np.full(9, 1e-100), "rx_sigma has no live stream"),
    (np.array([10**-161.7]), np.ones(3), "rx_sigma has no live stream"),
    (np.ones(2), np.full(3, 10**-161.7), "tx_sigma has no live cell"),
]
UNDERFLOWING_IDS = ["underflowing-streams", "underflowing-cells", "underflowing-products",
                    "subnormal-streams", "subnormal-cells"]


def first_draw(rx, tx, seed=17):
    """The complex draw of ``(trial, attempt) = (0, 0)``, which one trial reads."""
    return oracle.complex_draw(rx, tx, np.random.SeedSequence(seed, spawn_key=(0, 0)))


@pytest.fixture(params=["dead-stream", "three-users", "dead-cells", "one-live-stream"])
def ensemble(request):
    """A small ensemble with a dead stream, or three 6x6 users against 14x14 cells at λ/3."""
    small = {"dead-stream": DEAD_STREAM, "dead-cells": DEAD_CELLS,
             "one-live-stream": ONE_LIVE_STREAM}
    if request.param in small:
        return small[request.param]
    rx_map, tx_map = map(request.getfixturevalue, ("rx_map_small", "tx_map_medium"))
    return np.tile(rx_map.normalized_sigma, 3), tx_map.normalized_sigma


class TestVectorDomainOracle:
    # The engine reads only the Gram; tests/vector_domain.py forms V on the
    # complex draw with textbook formulas and reads the SINR off H V.
    @pytest.mark.parametrize("scheme, order", ORACLE_SPECS, ids=ORACLE_IDS)
    def test_one_trial_gives_the_oracle_rates(self, ensemble, scheme, order):
        rx, tx = ensemble
        result = simulated_se(rx, tx, scheme, ORACLE_GRID, trials=1, seed=17, ns_iterations=order)
        assert result.rejections == 0
        expected = oracle.rates(first_draw(rx, tx), scheme, ORACLE_GRID, order)
        np.testing.assert_allclose(result.per_stream, expected, rtol=1e-10)
        assert np.count_nonzero(rx == 0.0) > 0
        np.testing.assert_array_equal(result.per_stream[rx == 0.0], 0.0)

    @pytest.mark.parametrize("scheme, order", ORACLE_SPECS, ids=ORACLE_IDS)
    def test_transmit_phase_offsets_do_not_change_the_rates(self, ensemble, scheme, order):
        # A per-cell unit-modulus phase (a shifted transmit origin) leaves
        # the oracle's rates, and so the engine's, untouched.
        rx, tx = ensemble
        phases = np.exp(2j * np.pi * np.random.default_rng(1).uniform(size=tx.size))
        shifted = oracle.rates(first_draw(rx, tx) * phases, scheme, ORACLE_GRID, order)
        result = simulated_se(rx, tx, scheme, ORACLE_GRID, trials=1, seed=17, ns_iterations=order)
        np.testing.assert_allclose(shifted, result.per_stream, rtol=1e-9)

    def test_interference_free_streams_stop_at_the_sinr_cap(self):
        # At 200 dB every live ZF stream's SINR passes SINR_CAP.
        rx, tx = DEAD_STREAM
        result = simulated_se(rx, tx, "zf", [200.0], trials=1, seed=17)
        expected = np.where(rx > 0.0, np.log2(1.0 + SINR_CAP), 0.0)
        np.testing.assert_array_equal(result.per_stream[:, 0], expected)

    def test_single_stream_matched_transmission(self):
        # No interference, and the matched filter's norm cancels: SINR = p |h|^2.
        rx, tx = np.array([2.0]), np.ones(5)
        result = simulated_se(rx, tx, "mrt", [0.0, 10.0], trials=1, seed=6)
        energy = np.linalg.norm(first_draw(rx, tx, seed=6)) ** 2
        expected = np.log2(1.0 + np.array([1.0, 10.0]) * energy)
        np.testing.assert_allclose(result.per_stream[0], expected, rtol=1e-12)

    def test_loading_moves_from_matching_to_nulling(self):
        # The loading K/snr gives MRT's rates at -100 dB and those of the
        # Frobenius-normalized pseudo-inverse at 80 dB.
        rx, tx = DEAD_STREAM
        mmse, mrt = (simulated_se(rx, tx, scheme, [-100.0, 80.0], trials=1, seed=17).per_stream
                     for scheme in ("mmse", "mrt"))
        np.testing.assert_allclose(mmse[:, 0], mrt[:, 0], rtol=1e-9)
        h = first_draw(rx, tx)
        pinv = np.linalg.pinv(h)
        signal, interference = oracle.powers(h, pinv / np.linalg.norm(pinv))
        expected = np.log2(1.0 + 1e8 * signal / (1e8 * interference + 1.0))
        np.testing.assert_allclose(mmse[:, 1], expected, rtol=1e-6)

    @pytest.mark.parametrize("scheme", ["mrt", "zf", "mmse", "ns-zf"])
    @pytest.mark.parametrize("rx, tx, match", [
        (np.zeros(2), np.ones(3), "rx_sigma has no live stream"),
        (np.ones(2), np.zeros(3), "tx_sigma has no live cell"),
        *UNDERFLOWING_ENSEMBLES,
    ], ids=["dead-streams", "dead-cells", *UNDERFLOWING_IDS])
    def test_a_dead_ensemble_has_nothing_to_precode(self, scheme, rx, tx, match, count_calls):
        # The closed forms' two messages, from the one reader of every estimator.
        # Unchecked, squares that underflow to 0 failed only after a draw,
        # and so did squares whose every product underflows.  Counted live
        # while nonzero, subnormal squares failed mid-run with "cannot precode
        # an all-zero channel" or overflowed.
        draws = count_calls(rate, "_draw_parts")
        with pytest.raises(ValueError, match=match):
            simulated_se(rx, tx, scheme, [0.0], trials=1)
        assert draws == []


class TestBuiltResults:
    # VarianceMap and SEResult are results: their builders, not the types,
    # keep these invariants.
    @given(
        rx=st.tuples(st.integers(1, 4), st.integers(1, 4), st.sampled_from([1 / 3, 0.5])),
        tx=st.tuples(st.integers(2, 9), st.integers(2, 9), st.sampled_from([1 / 6, 1 / 3, 0.7])),
        users=st.integers(1, 3),
        schemes=st.lists(st.sampled_from(["MRT", "ZF", "MMSE", "NS-ZF"]), min_size=1,
                         unique=True),
        grid=st.lists(st.floats(-10.0, 30.0), min_size=1, max_size=3),
        trials=st.integers(1, 4),
    )
    @settings(max_examples=30, deadline=None)
    def test_maps_and_estimates_hold_their_documented_invariants(
        self, rx, tx, users, schemes, grid, trials
    ):
        maps = []
        for geometry in (ArrayGeometry(*rx), ArrayGeometry(*tx)):
            vmap = variance_map(geometry)
            assert vmap.raw.shape == vmap.normalized_sigma.shape == (len(vmap.lattice),)
            assert np.all(vmap.raw >= 0.0) and np.all(vmap.normalized_sigma >= 0.0)
            power = np.sum(vmap.normalized_sigma**2)
            assert power == pytest.approx(geometry.num_patches, rel=1e-12)
            maps.append(vmap.normalized_sigma)
        rx_sigma, tx_sigma = np.tile(maps[0], users), maps[1]
        if {"ZF", "NS-ZF"} & set(schemes):
            assume(np.count_nonzero(rx_sigma) <= np.count_nonzero(tx_sigma))
        specs = [(scheme, 2) for scheme in schemes]
        for result in rate._simulate(rx_sigma, tx_sigma, specs, grid, trials, seed=3):
            for values in (result.per_stream, result.per_stream_stderr):
                assert values.shape == (rx_sigma.size, len(grid))
                assert np.all(np.isfinite(values)) and np.all(values >= 0.0)
            assert result.trials == trials
            assert result.snr_grid_db == tuple(grid)


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

    @pytest.mark.parametrize("scheme", [3, None, b"zf"], ids=["int", "none", "bytes"])
    def test_rejects_a_scheme_name_that_is_not_text(self, scheme, count_calls):
        # Unchecked, 3 and None failed with a bare AttributeError and b"zf"
        # with a TypeError.
        draws = count_calls(rate, "_draw_parts")
        with pytest.raises(ValueError, match="unknown scheme"):
            simulated_se(*uniform_sigma(2, 5), scheme, [0.0], trials=1)
        assert draws == []

    def test_zero_forcing_rejects_more_streams_than_cells(self):
        for scheme in ("zf", "ns-zf"):
            with pytest.raises(ValueError, match="exceed"):
                simulated_se(*uniform_sigma(5, 3), scheme, [10.0], trials=2, seed=0)

    def test_zero_forcing_counts_only_live_transmit_cells(self, count_calls):
        # Three streams on two live cells of three: every Gram has rank 2.
        tx = np.array([1.0, 1.0, 0.0])
        draws = count_calls(rate, "_draw_parts")
        for scheme in ("zf", "ns-zf"):
            with pytest.raises(ValueError, match="exceed 2 active transmit cells"):
                simulated_se(np.ones(3), tx, scheme, [10.0], trials=2, seed=0)
        assert draws == []

    @pytest.mark.parametrize("trials", [True, 2.5, 2.0])
    def test_rejects_a_trial_count_that_is_not_a_positive_int(self, trials, count_calls):
        draws = count_calls(rate, "_draw_parts")
        with pytest.raises(ValueError, match="invalid value for trials"):
            simulated_se(*uniform_sigma(2, 5), "mrt", [0.0], trials=trials)
        assert draws == []

    @pytest.mark.parametrize("seed", [None, True, 1.5, -1])
    def test_rejects_a_seed_that_is_not_a_nonnegative_int(self, seed, count_calls):
        # None would draw from fresh OS entropy and True would run as seed 1.
        draws = count_calls(rate, "_draw_parts")
        with pytest.raises(ValueError, match="invalid value for seed"):
            simulated_se(*uniform_sigma(2, 5), "mrt", [0.0], trials=2, seed=seed)
        assert draws == []

    def test_a_numpy_integer_seed_is_that_seed(self):
        runs = [simulated_se(*uniform_sigma(2, 5), "mrt", [0.0], trials=2, seed=seed)
                for seed in (9, np.int64(9))]
        np.testing.assert_array_equal(runs[0].per_stream, runs[1].per_stream)

    @pytest.mark.parametrize(
        "grid", [[], [0.0, math.nan], [math.inf], [[0.0, 10.0]]], ids=["empty", "nan", "inf", "2-d"]
    )
    def test_rejects_an_empty_or_non_finite_snr_grid(self, grid, count_calls):
        # Unchecked, each returns a result (SE 0 at a non-finite point) or,
        # for a 2-D grid, a bare TypeError from the float conversion.
        draws = count_calls(rate, "_draw_parts")
        with pytest.raises(ValueError, match="snr"):
            simulated_se(*uniform_sigma(2, 5), "mrt", grid, trials=2, seed=0)
        assert draws == []

    @pytest.mark.parametrize("scheme", ["mrt", "zf", "mmse", "ns-zf"])
    def test_rejects_a_grid_whose_power_overflows(self, scheme, count_calls):
        # Unchecked, 10**(4000/10) overflowed to inf with a RuntimeWarning,
        # and every scheme wrote 0 bits at 4,000 dB.
        draws = count_calls(rate, "_draw_parts")
        with pytest.raises(ValueError, match=r"invalid value for snr: 4000 dB .*overflows"):
            simulated_se(np.ones(4), np.ones(9), scheme, [10.0, 3000.0, 4000.0], trials=2, seed=1)
        assert draws == []
        # 10*log10(float max) is about 3,082.5 dB: 3,000 and 3,082 dB are valid
        # points, with the same rates.  Unchecked, snr * signal overflowed at
        # 3,082 dB: MRT wrote 140.25 bits there (10.06 at 3,000 dB), NS-ZF 142.93 (33.10).
        grid = [10.0, 3000.0, 3082.0]
        result = simulated_se(np.ones(4), np.ones(9), scheme, grid, trials=2, seed=1)
        assert np.all(result.sum_se > 0.0) and np.isfinite(result.sum_se).all()
        np.testing.assert_array_equal(result.per_stream[:, 2], result.per_stream[:, 1])

    @pytest.mark.parametrize("scheme", ["mrt", "zf", "mmse", "ns-zf"])
    def test_vanishing_power_gives_zero_bits_without_a_warning(self, scheme):
        # Unchecked, MMSE's loading overflowed from about -1,540 dB and its
        # energy divided by zero, raising RuntimeWarnings (errors under pytest).
        grid = [-4000.0, -3300.0, -1600.0, -1540.0]
        result = simulated_se(np.ones(4), np.ones(9), scheme, grid, trials=2, seed=1)
        np.testing.assert_array_equal(result.per_stream, 0.0)

    def test_regularized_streams_stop_where_nulling_does(self):
        # From about 150 dB MMSE's interference cancels to zero; unclamped,
        # it rounded below zero and the SINR, and so the rate, came out NaN.
        grid = [80.0, 100.0, 120.0, 150.0, 200.0, 300.0]
        mmse, zf = (simulated_se(np.ones(4), np.ones(9), scheme, grid, trials=20, seed=1).sum_se
                    for scheme in ("mmse", "zf"))
        assert np.isfinite(mmse).all()
        assert mmse.tolist() == sorted(mmse.tolist())
        np.testing.assert_array_equal(mmse[3:], zf[3:])
        np.testing.assert_array_equal(zf[3:], 4 * np.log2(1.0 + SINR_CAP))

    @pytest.mark.parametrize("rx, tx", [(np.ones(2), np.ones(1)), (np.ones(4), np.ones(2))],
                             ids=["2-on-1", "4-on-2"])
    def test_regularized_streams_past_the_cell_count_level_off(self, rx, tx):
        # More live streams than cells leave G_AA rank-deficient.  Unchecked,
        # eigh's round-off eigenvalues (about 1e-16) on its null directions took
        # over the energy from about 80 dB and acted as signal from about 150 dB:
        # 200 trials of 2-on-1 gave 2.897, 1.667 and 32.76 bits at 60, 100 and 300 dB.
        grid = [60.0, 100.0, 150.0, 300.0, 3000.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sum_se = simulated_se(rx, tx, "mmse", grid, trials=20, seed=0).sum_se
        # The loading K/snr still moves the rates by a few parts in 1e6 at 60 dB.
        np.testing.assert_allclose(sum_se[0], sum_se[-1], rtol=1e-5)
        np.testing.assert_allclose(sum_se[1:], sum_se[-1], rtol=1e-9)

    @pytest.mark.parametrize(
        "grid",
        ["05", "10", [True, 10.0], np.array([True, False]), [[0.0], [5.0, 10.0]], ["0", "10"]],
        ids=["string", "one-point-string", "bool-entry", "bool-array", "ragged", "string-entries"],
    )
    def test_rejects_a_string_bool_or_nested_snr_grid(self, grid, count_calls):
        # Unchecked, "10" ran at 10 dB, "05" at 0 and 5 dB, and True at 1 dB.
        draws = count_calls(rate, "_draw_parts")
        with pytest.raises(ValueError, match="invalid value for snr"):
            simulated_se(*uniform_sigma(2, 5), "mrt", grid, trials=2, seed=0)
        assert draws == []

    @pytest.mark.parametrize("order", [True, 1.5, -1])
    def test_rejects_a_series_order_that_is_not_an_int(self, order, count_calls):
        draws = count_calls(rate, "_draw_parts")
        with pytest.raises(ValueError, match="invalid value for ns_iterations"):
            simulated_se(*uniform_sigma(2, 5), "ns-zf", [0.0], trials=1, ns_iterations=order)
        assert draws == []

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
        # schemes: 40 trials plus ZF's 2 redraws, none past the last trial.
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
        specs = [("MRT", 0), ("ZF", 0), ("MMSE", 0)]
        specs += [("NS-ZF", order) for order in (0, 1, 2, 7)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            joint = rate._simulate(rx, tx, specs, [0.0, 20.0], 40, 3)
            alone = [
                simulated_se(rx, tx, tag, [0.0, 20.0], trials=40, seed=3, ns_iterations=order)
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

    def test_a_repeated_row_is_rejected_by_zero_forcing_only(self):
        # Two equal rows make G_AA singular: ZF's condition check rejects the
        # draw and zeroes its powers.  MRT and MMSE keep it, and so does the
        # order-0 series D⁻¹, whose energies 1/G_jj are positive.
        h = oracle.complex_draw(np.ones(3), np.ones(5), 4)[[0, 1, 1]]
        specs = [("MRT", 0), ("ZF", 0), ("MMSE", 0), ("NS-ZF", 0)]
        power, rejected = rate._draw_powers(h @ h.conj().T, specs, np.array([10.0]), 3)
        assert rejected.tolist() == [False, True, False, False]
        np.testing.assert_array_equal(power[:, 1], 0.0)
        assert np.all(power[0, [0, 2, 3]] > 0.0)


class TestOneThreadEngine:
    # The redraw ensemble of TestSharedEngine: ZF rejects 2 of 40 draws.
    RX = np.array([1.0] * 7 + [1e-5])
    TX = np.ones(9)
    SPECS = [("MRT", 0), ("ZF", 0), ("MMSE", 0), ("NS-ZF", 2)]

    def run(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return rate._simulate(self.RX, self.TX, self.SPECS, [0.0, 20.0], 40, 3)

    def test_a_failing_draw_is_raised_on_the_calling_thread(self, monkeypatch):
        class DrawFailed(Exception):
            pass

        original = rate._draw_parts

        def draw(rx, tx, seed):
            if seed.spawn_key == (3, 0):
                raise DrawFailed("trial 3")
            return original(rx, tx, seed)

        monkeypatch.setattr(rate, "_draw_parts", draw)
        before = threading.active_count()
        with pytest.raises(DrawFailed, match="trial 3"):
            simulated_se(*uniform_sigma(2, 5), "mrt", [0.0], trials=6, seed=0)
        assert threading.active_count() == before

    def test_no_thread_is_left_after_a_run_or_a_singular_trial(self, monkeypatch):
        before = threading.active_count()
        simulated_se(*uniform_sigma(2, 5), "zf", [0.0], trials=3, seed=0)
        assert threading.active_count() == before
        original = rate._draw_parts

        def repeated_rows(rx, tx, seed):
            parts = original(rx, tx, seed)
            parts[:, 1] = parts[:, 0]
            return parts

        monkeypatch.setattr(rate, "_draw_parts", repeated_rows)
        with pytest.raises(SingularChannelError, match="trial 0 stayed singular"):
            simulated_se(*uniform_sigma(2, 5), "zf", [0.0], trials=3, seed=0)
        assert threading.active_count() == before

    def test_a_draw_is_freed_before_the_next_is_made(self, monkeypatch):
        # Each draw is dropped once its Gram exists, redraws included, so
        # no earlier draw is alive when any draw is made.
        made, alive, threads = [], [], set()
        original = rate._draw_parts

        def draw(rx, tx, seed):
            threads.add(threading.get_ident())
            alive.append(sum(ref() is not None for ref in made))
            parts = original(rx, tx, seed)
            made.append(weakref.ref(parts))
            return parts

        monkeypatch.setattr(rate, "_draw_parts", draw)
        self.run()
        assert alive == [0] * 42
        assert threads == {threading.get_ident()}


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


def scalar_mrt_bound(rx, tx, p_u, stream):
    """Per-stream MRT closed form at unit noise, one stream and one power at a time."""
    rx_sq = rx**2
    own = rx_sq[stream]
    total_rx = float(np.sum(rx_sq))
    total_tx = float(np.sum(tx**2))
    signal = total_tx * own**2 / total_rx
    interference = float(np.sum(tx**4)) / total_tx * own * (total_rx - own) / total_rx
    return np.log2(1.0 + min(signal / (interference + 1.0 / p_u), SINR_CAP))


def scalar_zf(rx, tx, p_u, stream):
    """Per-stream ZF closed form at unit noise, one stream and one power at a time."""
    active_streams = int(np.count_nonzero(rx > 0.0))
    active_cells = int(np.count_nonzero(tx > 0.0))
    avg_tx = float(np.sum(tx**2)) / active_cells
    signal = (active_cells - active_streams + 1) * rx[stream] ** 2 * avg_tx / active_streams
    interference = 0.0
    return np.log2(1.0 + min(signal / (interference + 1.0 / p_u), SINR_CAP))


class TestTheoryTable:
    def test_table_equals_the_per_stream_formulas_bitwise(
        self, rx_map_small, tx_map_medium
    ):
        rx = np.tile(rx_map_small.normalized_sigma, 3)
        tx = tx_map_medium.normalized_sigma.copy()
        rx[4] = 0.0  # a dead stream
        tx[0] = 0.0  # and a dead transmit cell
        grid = list(range(-10, 31, 5))
        *_, powers = rate._ensemble(rx, tx, grid)  # the engine's powers, 10**(dB/10)
        for scheme, scalar, public in (
            ("MRT", scalar_mrt_bound, mrt_theoretical_bound),
            ("ZF", scalar_zf, zf_theoretical),
        ):
            table = public(rx, tx, grid)
            expected = np.array(
                [[scalar(rx, tx, p_u, k) for p_u in powers] for k in range(rx.size)]
            )
            assert table.shape == (rx.size, len(powers))
            assert np.array_equal(table, expected)
            # Column sums add the rows in order, like a running sum per power.
            running = [sum(expected[:, col].tolist()) for col in range(len(powers))]
            assert table.sum(axis=0).tolist() == running
            # A scalar SNR gives one column.
            assert np.array_equal(public(rx, tx, grid[3]), expected[:, 3:4])
        assert zf_theoretical(rx, tx, grid)[4].tolist() == [0.0] * 9

    @given(
        rx=st.lists(st.just(0.0) | st.floats(0.01, 10.0), min_size=1, max_size=6),
        tx=st.lists(st.just(0.0) | st.floats(0.01, 10.0), min_size=3, max_size=12),
        tenths=st.lists(st.integers(-400, 800), min_size=1, max_size=6, unique=True),
    )
    @settings(max_examples=80, deadline=None)
    def test_tables_are_finite_monotone_and_pointwise(self, rx, tx, tenths):
        rx, tx = np.array(rx), np.array(tx)
        assume(rx.any() and np.count_nonzero(rx) <= np.count_nonzero(tx))
        assume(np.count_nonzero(tx) > 2)
        grid = [value / 10.0 for value in sorted(tenths)]  # -40 to 80 dB, 0.1 dB apart
        for public in (mrt_theoretical_bound, zf_theoretical):
            table = public(rx, tx, grid)
            assert table.shape == (rx.size, len(grid))
            assert np.isfinite(table).all()
            assert np.all(np.diff(table, axis=1) >= 0.0)
            # Each column is the table of its one point, bit for bit.
            for col, snr_db in enumerate(grid):
                assert np.array_equal(public(rx, tx, snr_db)[:, 0], table[:, col])
        assert not zf_theoretical(rx, tx, grid)[rx == 0.0].any()

    @given(
        rx=st.lists(st.just(0.0) | st.floats(0.01, 10.0), min_size=1, max_size=6),
        tx=st.lists(st.just(0.0) | st.floats(0.01, 10.0), min_size=3, max_size=12),
        grid=st.lists(st.floats(-4000.0, 3082.0), min_size=1, max_size=6).map(sorted),
    )
    @settings(max_examples=80, deadline=None)
    def test_tables_stay_capped_and_monotone_over_every_valid_power(self, rx, tx, grid):
        # Unchecked, the ZF form passed the engine's cap from about 118 dB
        # and the MRT form overflowed to inf, then NaN, near 3,080 dB.
        rx, tx = np.array(rx), np.array(tx)
        assume(rx.any() and np.count_nonzero(rx) <= np.count_nonzero(tx))
        assume(np.count_nonzero(tx) > 2)
        for public in (mrt_theoretical_bound, zf_theoretical):
            table = public(rx, tx, grid)
            assert np.isfinite(table).all()
            assert np.all(np.diff(table, axis=1) >= 0.0)
            assert table.max() <= np.log2(1.0 + SINR_CAP)

    def test_nulling_form_stops_at_the_engine_cap(self):
        # Unchecked, it gave 997.16 bits per stream at 3,000 dB.
        rx, tx = np.ones(4), np.ones(9)
        table = zf_theoretical(rx, tx, [3000.0])
        np.testing.assert_array_equal(table, np.log2(1.0 + SINR_CAP))
        simulated = simulated_se(rx, tx, "zf", [3000.0], trials=2, seed=1).per_stream
        np.testing.assert_array_equal(table, simulated)

    def test_matched_form_saturates_up_to_the_overflow_edge(self):
        # Unchecked, it gave inf at 3,075 dB and NaN at 3,082 dB.
        table = mrt_theoretical_bound(np.ones(4), np.ones(9), [3000.0, 3075.0, 3082.0])
        assert np.isfinite(table).all()
        np.testing.assert_array_equal(table[:, 1:], table[:, :1].repeat(2, axis=1))

    @pytest.mark.parametrize(
        "scheme, args, match",
        [
            ("MRT", (np.array([]), np.ones(3), 0.0), "nonempty"),
            # 10*log10(float max) is about 3,082.5 dB.
            ("ZF", (np.ones(2), np.ones(4), 4000.0), "4000 dB .*overflows"),
            ("MRT", (np.ones(2), np.ones(4), [0.0, 3083.0]), "3083 dB .*overflows"),
            ("MRT", (np.ones(2), np.ones(2), 0.0), "more than two"),
            ("ZF", (np.ones(5), np.ones(3), 0.0), "exceed"),
            ("MRT", (np.ones(2), np.array([1.0, 0.0, 0.0]), 0.0), "more than two"),
            ("ZF", (np.zeros(2), np.zeros(3), 0.0), "rx_sigma has no live stream"),
            ("MRT", (np.zeros(2), np.ones(3), 0.0), "rx_sigma has no live stream"),
            ("ZF", (np.ones(2), np.zeros(3), 0.0), "tx_sigma has no live cell"),
            ("MRT", (np.ones(2), np.zeros(3), 0.0), "tx_sigma has no live cell"),
            # Unchecked, an infinite power gives inf (ZF) or an invalid
            # divide (MRT), and one past the float range does too.
            *(
                (scheme, (np.ones(2), np.ones(4), grid), "invalid value for snr")
                for scheme in ("MRT", "ZF")
                for grid in [math.inf, [0.0, math.inf], -math.inf, math.nan, 1e308]
            ),
            # Unchecked, a string or a bool read as a float, a 2-D grid
            # gave stream i the power of point i, and an empty one an empty table.
            *(
                (scheme, (np.ones(2), np.ones(4), grid), "invalid value for snr")
                for scheme in ("MRT", "ZF")
                for grid in ["10", ["1", "10"], [[1.0], [2.0]], True, [], [True, 10.0],
                             None, [0.0, "1"]]
            ),
        ],
    )
    def test_table_raises_the_scalar_errors(self, scheme, args, match):
        public = {"MRT": mrt_theoretical_bound, "ZF": zf_theoretical}[scheme]
        with pytest.raises(ValueError, match=match):
            public(*args)


class TestTheoreticalExpressions:
    def test_single_stream_matched_bound_reduces_to_snr_formula(self):
        # p_u = 4 over a noise variance of 1/2: SNR 8.
        (value,) = mrt_theoretical_bound(np.array([2.0]), np.ones(3), 10.0 * math.log10(8.0))[0]
        assert value == pytest.approx(math.log2(1.0 + 4.0 * 3.0 * 4.0 / 0.5), rel=1e-12)

    def test_matched_cross_talk_uses_the_fourth_transmit_moment(self):
        # E|h_0 h_1^H|^2 = s_0^2 s_1^2 sum(t^4): with t = (1, 1, 2) the
        # cross-talk factor is sum(t^4) / sum(t^2) = 18 / 6 = 3, not the
        # mean power sum(t^2) / N = 2.  SINR = 6 / (3 * 1 * 4 + 5) = 6 / 17.
        value = mrt_theoretical_bound(np.array([1.0, 2.0]), np.array([1.0, 1.0, 2.0]), 0.0)
        assert value[0, 0] == pytest.approx(math.log2(1.0 + 6.0 / 17.0), rel=1e-12)

    def test_matched_bound_shrinks_as_streams_are_added(self):
        lone = mrt_theoretical_bound(np.ones(1), np.ones(8), 10.0 * math.log10(2.0))
        crowded = mrt_theoretical_bound(np.ones(3), np.ones(8), 10.0 * math.log10(2.0))
        assert crowded[0, 0] < lone[0, 0]

    def test_classical_identity_nulling_formula(self):
        value = zf_theoretical(np.ones(4), np.ones(10), 10.0 * math.log10(2.0))
        assert value[0, 0] == pytest.approx(math.log2(1.0 + (2.0 / 4.0) * 7.0), rel=1e-12)

    def test_square_nulling_loses_all_array_gain(self):
        value = zf_theoretical(np.ones(5), np.ones(5), 10.0 * math.log10(5.0))
        assert value[2, 0] == pytest.approx(1.0, rel=1e-12)

    def test_nulling_skips_dead_streams(self):
        rx = np.array([1.0, 0.0, 2.0])
        value = zf_theoretical(rx, np.ones(4), 0.0)
        assert value[1, 0] == 0.0
        # Only two live streams share the power and count against the cells.
        assert value[2, 0] == pytest.approx(math.log2(1.0 + 0.5 * 3.0 * 4.0), rel=1e-12)

    def test_nulling_gives_a_dead_stream_no_bits_at_any_power(self):
        # s_1² t² = 1e-310 is subnormal, so stream 1 is dead; its square was
        # still read into the signal, 1.4e-10 bits at 3,000 dB.
        tx = np.full(3, 1e-5)
        table = zf_theoretical(np.array([1.0, 1e-150]), tx, [3000.0])
        np.testing.assert_array_equal(table, zf_theoretical(np.array([1.0, 0.0]), tx, [3000.0]))
        assert table[1, 0] == 0.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            mrt_theoretical_bound(np.array([]), np.ones(3), 0.0)
        with pytest.raises(ValueError, match="more than two"):
            mrt_theoretical_bound(np.ones(2), np.ones(2), 0.0)
        with pytest.raises(ValueError, match="exceed"):
            zf_theoretical(np.ones(5), np.ones(3), 0.0)
        with pytest.raises(ValueError):
            zf_theoretical(np.ones(2), np.ones(4), 4000.0)
        with pytest.raises(ValueError):
            zf_theoretical(np.ones(2), np.ones(4), [0.0, math.nan])
        with pytest.raises(ValueError):
            zf_theoretical(np.ones(2), np.ones(4), "0")

    def test_nulling_formula_tracks_simulation(self, rx_map_small, tx_map_medium):
        sigma = np.tile(rx_map_small.normalized_sigma, 3), tx_map_medium.normalized_sigma
        result = simulated_se(*sigma, "zf", [0.0, 20.0], trials=300, seed=42)
        theory = zf_theoretical(*sigma, result.snr_grid_db).sum(axis=0)
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
            theory.append(zf_theoretical(*sigma, 10.0)[0, 0])
        assert simulated == sorted(simulated)
        assert theory == sorted(theory)
        assert simulated[0] > 0.0 and theory[0] > 0.0


# The four entry points that take the ensemble; every one runs the shared
# factor check first.
ENSEMBLE_ENTRY_POINTS = {
    "simulated_se": lambda rx, tx: simulated_se(rx, tx, "zf", [0.0], trials=2, seed=0),
    "mrt_bound": lambda rx, tx: mrt_theoretical_bound(rx, tx, 0.0),
    "zf_theory": lambda rx, tx: zf_theoretical(rx, tx, 0.0),
    "eigenvalues": correlation_eigenvalues,
}
# Every estimator of the rates as a function of the factors alone.
ESTIMATORS = {
    **{scheme: lambda rx, tx, scheme=scheme: simulated_se(rx, tx, scheme, ORACLE_GRID, trials=3,
                                                          seed=4).per_stream
       for scheme in ("mrt", "zf", "mmse", "ns-zf")},
    "mrt_bound": lambda rx, tx: mrt_theoretical_bound(rx, tx, ORACLE_GRID),
    "zf_theory": lambda rx, tx: zf_theoretical(rx, tx, ORACLE_GRID),
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
            # Unchecked, a bool read as 1 or 0 and a string as its float; a
            # None entry (read as NaN) and a scalar were already rejected.
            ([True, False], np.ones(4), "rx_sigma"),
            (np.ones(2), np.array([True, False, True, True]), "tx_sigma"),
            (["1", "0.5"], np.ones(4), "rx_sigma"),
            (np.ones(2), [1.0, None, 1.0, 1.0], "tx_sigma"),
            (1.0, np.ones(4), "rx_sigma"),
        ],
        ids=["nan", "inf", "negative", "2-D-rx", "2-D-tx", "empty-tx", "empty-rx", "bool-list",
             "bool-array", "string-entries", "none-entry", "scalar"],
    )
    def test_rejects_malformed_factors_before_any_draw(self, entry, rx, tx, name, count_calls):
        draws = count_calls(rate, "_draw_parts")
        with pytest.raises(ValueError, match=f"invalid value for {name}"):
            ENSEMBLE_ENTRY_POINTS[entry](rx, tx)
        assert draws == []

    @pytest.mark.parametrize("entry", ["mrt_bound", "zf_theory"])
    @pytest.mark.parametrize("rx, tx, match", UNDERFLOWING_ENSEMBLES, ids=UNDERFLOWING_IDS)
    def test_factors_whose_squares_underflow_are_dead(self, entry, rx, tx, match):
        # The engine's cases are in test_a_dead_ensemble_has_nothing_to_precode.
        # Unchecked, the MRT form gave NaN or a bare ZeroDivisionError, and
        # the ZF form gave 0 bits.
        with pytest.raises(ValueError, match=match):
            ENSEMBLE_ENTRY_POINTS[entry](rx, tx)

    @pytest.mark.parametrize("entry", ESTIMATORS)
    def test_a_stream_whose_square_underflows_is_dead(self, entry):
        # Unchecked, zf_theoretical counted it in K: 5.357552 bits on stream 1
        # at 10 dB, where an exact 0 gives 6.50779464.  Counted live while
        # nonzero, the subnormal square of 10**-161.7 overflowed ZF and NS-ZF.
        for rx, exact in [([1e-200, 1.0], [0.0, 1.0]), ([1.0, 10**-161.7], [1.0, 0.0])]:
            underflowing = ESTIMATORS[entry](np.array(rx), np.ones(9))
            assert np.array_equal(underflowing, ESTIMATORS[entry](np.array(exact), np.ones(9)))
            assert not underflowing[np.array(exact) == 0.0].any()

    @pytest.mark.parametrize("entry", ["zf", "ns-zf", "zf_theory"])
    def test_a_stream_whose_square_underflows_needs_no_cell(self, entry):
        # Unchecked, "2 active streams exceed 1 active transmit cells".
        underflowing = ESTIMATORS[entry](np.array([1e-200, 1.0]), np.ones(1))
        assert np.array_equal(underflowing, ESTIMATORS[entry](np.array([0.0, 1.0]), np.ones(1)))

    @pytest.mark.parametrize("entry", ["zf", "ns-zf", "zf_theory"])
    def test_a_cell_whose_every_product_underflows_is_dead(self, entry, count_calls):
        # t_1² = 1e-320 survives, but not times max s² = 1e-20. Unchecked, the
        # closed form counted it, and the engine redrew a rank-one Gram until it gave up.
        draws = count_calls(rate, "_draw_parts")
        with pytest.raises(ValueError, match="2 active streams exceed 1 active transmit cells"):
            ESTIMATORS[entry](np.full(2, 1e-10), np.array([1.0, 1e-160]))
        assert draws == []

    def test_a_numeric_array_is_read_on_its_dtype(self, monkeypatch):
        # Each entry of a list is checked in Python; an array's are not.
        checked = []

        class Counting(type):
            def __instancecheck__(cls, value):
                checked.append(value)
                return isinstance(value, numbers.Real)

        real = Counting("Real", (), {})
        monkeypatch.setattr("holosim.channel.numbers", types.SimpleNamespace(Real=real))
        from_arrays = correlation_eigenvalues(np.arange(1.0, 3.0), np.arange(1, 5))
        assert checked == []
        from_lists = correlation_eigenvalues([1.0, 2.0], np.arange(1, 5))
        assert checked == [1.0, 2.0]
        np.testing.assert_array_equal(from_arrays, from_lists)

    @pytest.mark.parametrize("entry", ENSEMBLE_ENTRY_POINTS)
    def test_a_list_of_floats_is_its_array(self, entry):
        rx, tx = [1.0, 0.5], [1.0, 0.7, 1.3, 0.4]
        from_lists = ENSEMBLE_ENTRY_POINTS[entry](rx, tx)
        from_arrays = ENSEMBLE_ENTRY_POINTS[entry](np.array(rx), np.array(tx))
        if entry == "simulated_se":
            from_lists, from_arrays = from_lists.per_stream, from_arrays.per_stream
        np.testing.assert_array_equal(from_lists, from_arrays)


class TestScale:
    # The rates read the scale of the factors only through the SNR, and
    # through the liveness floor: scaling the transmit factors by c = 2**k
    # scales every draw, and so every Gram, exactly.
    @given(
        rx=st.lists(st.just(0.0) | st.floats(0.1, 10.0), min_size=1, max_size=3),
        tx=st.lists(st.floats(0.1, 10.0), min_size=3, max_size=6),
        dead_cells=st.integers(0, 2),
        k=st.integers(-60, 60),
    )
    @settings(max_examples=25, deadline=None)
    def test_scaled_factors_give_the_rates_of_a_shifted_grid(self, rx, tx, dead_cells, k):
        rx, tx = np.array(rx), np.append(tx, np.zeros(dead_cells))
        assume(rx.any())
        c = 2.0**k
        # tx·c at dB gives the rates of tx at dB + 20·log10(c), here ORACLE_GRID.
        grid = [snr_db - 20.0 * math.log10(c) for snr_db in ORACLE_GRID]
        specs = [("MRT", 0), ("ZF", 0), ("MMSE", 0), ("NS-ZF", 3)]
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "singular draws rejected", RuntimeWarning)
            scaled = rate._simulate(rx, tx * c, specs, grid, 2, 5)
            expected = rate._simulate(rx, tx, specs, ORACLE_GRID, 2, 5)
        for result, reference in zip(scaled, expected):
            assert result.rejections == reference.rejections
            np.testing.assert_allclose(result.per_stream, reference.per_stream,
                                       rtol=1e-12, atol=1e-12)
        for public in (mrt_theoretical_bound, zf_theoretical):
            np.testing.assert_allclose(public(rx, tx * c, grid), public(rx, tx, ORACLE_GRID),
                                       rtol=1e-12, atol=1e-12)
