"""Scenario parsing, batch runners, CSV artifacts, and the CLI."""

import ast
import hashlib
import inspect
import itertools
import json
import math
import re

import numpy as np
import pytest

from holosim import (
    cli,
    harness,
    mrt_theoretical_bound,
    rate,
    variance_map,
    zf_theoretical,
)
from holosim.cli import main
from holosim.harness import (
    PRESET_NAMES,
    ScenarioConfig,
    _BLOCK_ROWS,
    _config_payload,
    _write_csv,
    parse_config,
    preset_jobs,
    run_eigvals,
    run_preset,
    run_se_sim,
    run_se_theory,
    run_variance_map,
)
from holosim import ArrayGeometry
from holosim.channel import _factors


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# config {")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


class TestParseConfig:
    def test_defaults(self):
        config = parse_config()
        assert (config.tx.n_h, config.tx.n_v) == (30, 30)
        assert (config.rx.n_h, config.rx.n_v) == (12, 12)
        assert config.tx.spacing == pytest.approx(1 / 3)
        assert config.rx.spacing == pytest.approx(1 / 3)
        assert config.users == 3
        assert config.snr_grid_db == tuple(float(v) for v in range(-10, 31, 5))
        assert config.trials == 800
        assert config.seed == 42
        assert config.schemes == ("MRT", "ZF", "MMSE")
        assert config.ns_iterations == 3

    def test_fractional_spacing_literals(self):
        config = parse_config(delta_s="1/6", delta_r="0.25")
        assert config.tx.spacing == pytest.approx(1 / 6)
        assert config.rx.spacing == pytest.approx(0.25)

    def test_patch_counts_factor_nearly_square(self):
        config = parse_config(ns=72, nr=13)
        assert (config.tx.n_h, config.tx.n_v) == (8, 9)
        assert (config.rx.n_h, config.rx.n_v) == (1, 13)

    def test_snr_range_and_list_forms(self):
        assert parse_config(snr="-10:30:5").snr_grid_db == tuple(
            float(v) for v in range(-10, 31, 5)
        )
        assert parse_config(snr="0,10,20").snr_grid_db == (0.0, 10.0, 20.0)
        assert parse_config(snr=[-5, 5]).snr_grid_db == (-5.0, 5.0)

    def test_snr_range_is_counted_before_it_is_built(self):
        # Unchecked, 0:10:1e-300 ran on building about 1e301 points, and
        # 10:0:5 failed naming the empty tuple instead of the input.
        cap = harness._MAX_SNR_POINTS
        assert len(parse_config(snr=f"0:{cap - 1}:1").snr_grid_db) == cap
        for snr in ["0:10:1e-300", f"0:{cap}:1", "10:0:5", "0:1e308:1e-308",
                    "0:10:0", "0:10:-5", "0:10:nan"]:
            with pytest.raises(ValueError, match=re.escape(f"invalid value for snr: {snr!r}")):
                parse_config(snr=snr)

    def test_scheme_lists(self):
        assert parse_config(scheme="mrt,zf").schemes == ("MRT", "ZF")
        assert parse_config(scheme="ns_zf").schemes == ("NS-ZF",)

    def test_error_messages_name_the_field(self):
        with pytest.raises(ValueError, match="invalid value for delta-s"):
            parse_config(delta_s="fast")
        with pytest.raises(ValueError, match="invalid value for delta-s: '1e400'"):
            parse_config(delta_s="1e400")  # exact, but past the float range
        with pytest.raises(ValueError, match="invalid value for snr"):
            parse_config(snr="0:10")
        with pytest.raises(ValueError, match="invalid value for trials"):
            parse_config(trials="many")
        with pytest.raises(ValueError, match="invalid value for trials"):
            parse_config(trials=0)
        with pytest.raises(ValueError, match="invalid value for flag"):
            parse_config(wavelength=2.0)

    def test_json_file_with_flag_overrides(self, tmp_path):
        settings = tmp_path / "scenario.json"
        settings.write_text(json.dumps({"ns": 144, "users": 2, "snr": "0,10"}))
        config = parse_config(str(settings))
        assert (config.tx.n_h, config.tx.n_v) == (12, 12)
        assert config.users == 2
        assert config.snr_grid_db == (0.0, 10.0)
        overridden = parse_config(str(settings), users=5)
        assert overridden.users == 5

    def test_rejects_bad_json_and_unknown_fields(self, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        with pytest.raises(ValueError, match="invalid value for config file"):
            parse_config(str(broken))
        stray = tmp_path / "stray.json"
        stray.write_text(json.dumps({"band": "mmwave"}))
        with pytest.raises(ValueError, match="unknown"):
            parse_config(str(stray))

    @pytest.mark.parametrize("key", ["users", "trials", "seed", "ns", "nr", "iters"])
    def test_fractional_counts_are_rejected_not_truncated(self, key):
        with pytest.raises(ValueError, match=f"invalid value for {key}: 2.5"):
            parse_config(**{key: 2.5})

    @pytest.mark.parametrize(
        "key", ["users", "trials", "seed", "iters", "ns", "nr", "delta_s", "delta_r"]
    )
    def test_json_booleans_are_not_numbers(self, tmp_path, key):
        settings = tmp_path / "scenario.json"
        settings.write_text(json.dumps({key: True}))
        field = key.replace("_", "-")
        # A spacing is one entry of the number reader, which names the entry list.
        shown = "[True]" if key.startswith("delta") else "True"
        with pytest.raises(ValueError, match=re.escape(f"invalid value for {field}: {shown}")):
            parse_config(str(settings))

    @pytest.mark.parametrize("orders", [True, [2, True]], ids=["scalar", "list"])
    def test_series_orders_reject_booleans(self, orders):
        with pytest.raises(ValueError, match="invalid value for iters: True"):
            harness.parse_ns_compare(iters=orders)

    def test_integral_floats_still_parse(self, tmp_path):
        settings = tmp_path / "scenario.json"
        settings.write_text('{"trials": 1e3, "users": 2.0}')
        config = parse_config(str(settings))
        assert (config.trials, config.users) == (1000, 2)

    def test_series_orders_are_whole_numbers(self):
        assert harness.parse_ns_compare(iters=4.0)[1] == (4,)
        assert harness.parse_ns_compare(iters=[2, 7.0])[1] == (2, 7)
        with pytest.raises(ValueError, match="invalid value for iters: 3.5"):
            harness.parse_ns_compare(iters=[2, 3.5])

    @pytest.mark.parametrize("snr", ["nan", "0,inf", "0:inf:5", [0.0, float("-inf")]],
                             ids=["nan", "inf", "inf-range", "minus-inf-list"])
    def test_non_finite_snr_points_are_rejected(self, snr):
        with pytest.raises(ValueError, match="invalid value for snr"):
            parse_config(snr=snr)

    @pytest.mark.parametrize("snr", [[True, 10], [0, None], ["0", "10"]],
                             ids=["boolean", "null", "strings"])
    def test_json_snr_list_holds_only_numbers(self, tmp_path, snr):
        settings = tmp_path / "scenario.json"
        settings.write_text(json.dumps({"snr": snr}))
        with pytest.raises(ValueError, match="invalid value for snr"):
            parse_config(str(settings))
        # The same list given as a flag; unchecked, strings read as floats.
        with pytest.raises(ValueError, match="invalid value for snr"):
            parse_config(snr=snr)

    def test_json_nan_snr_point_is_rejected(self, tmp_path):
        settings = tmp_path / "scenario.json"
        settings.write_text('{"snr": [0, NaN]}')
        with pytest.raises(ValueError, match="invalid value for snr"):
            parse_config(str(settings))

    def test_output_directory_is_not_a_config_field(self, tmp_path):
        settings = tmp_path / "scenario.json"
        settings.write_text(json.dumps({"ns": 144, "out": "results"}))
        with pytest.raises(ValueError, match=r"unknown fields \['out'\]"):
            parse_config(str(settings))


class TestScenarioConfig:
    GEOM = ArrayGeometry(6, 6, 1 / 3)

    def test_rejects_inconsistent_settings(self):
        with pytest.raises(ValueError, match="users"):
            ScenarioConfig(tx=self.GEOM, rx=self.GEOM, users=0)
        with pytest.raises(ValueError, match="trials"):
            ScenarioConfig(tx=self.GEOM, rx=self.GEOM, trials=0)
        with pytest.raises(ValueError, match="nonempty"):
            ScenarioConfig(tx=self.GEOM, rx=self.GEOM, snr_grid_db=())
        with pytest.raises(ValueError, match="increasing"):
            ScenarioConfig(tx=self.GEOM, rx=self.GEOM, snr_grid_db=(10.0, 10.0))
        with pytest.raises(ValueError, match="unknown scheme"):
            ScenarioConfig(tx=self.GEOM, rx=self.GEOM, schemes=("SVD",))
        with pytest.raises(ValueError, match="ns_iterations"):
            ScenarioConfig(tx=self.GEOM, rx=self.GEOM, ns_iterations=-1)
        with pytest.raises(ValueError, match="invalid value for seed"):
            ScenarioConfig(tx=self.GEOM, rx=self.GEOM, seed=-1)
        with pytest.raises(ValueError, match="invalid value for snr"):
            ScenarioConfig(tx=self.GEOM, rx=self.GEOM, snr_grid_db=(0.0, float("nan")))

    @pytest.mark.parametrize(
        "grid",
        ["05", [True, 10.0], np.array([False, True]), [[0.0, 10.0]], [[0.0], [5.0, 10.0]],
         ["0", "10"]],
        ids=["string", "bool-entry", "bool-array", "nested", "ragged", "string-entries"],
    )
    def test_rejects_a_string_bool_or_nested_snr_grid(self, grid):
        # Unchecked, "05" read as (0.0, 5.0), True as 1 dB, and a nested
        # grid failed with a bare TypeError.
        with pytest.raises(ValueError, match="invalid value for snr"):
            ScenarioConfig(tx=self.GEOM, rx=self.GEOM, snr_grid_db=grid)

    @pytest.mark.parametrize("field", ["users", "trials", "seed", "ns_iterations"])
    def test_rejects_booleans(self, field):
        with pytest.raises(ValueError, match=f"invalid value for {field}: True"):
            ScenarioConfig(tx=self.GEOM, rx=self.GEOM, **{field: True})

    @pytest.mark.parametrize("field", ["users", "trials", "seed", "ns_iterations"])
    @pytest.mark.parametrize("value", [1.5, 2.0, np.int64(2)], ids=["fraction", "float", "numpy"])
    def test_rejects_counts_that_are_not_ints(self, field, value):
        # A float is not a count, even an integral one; a NumPy integer is
        # the int it holds, stored as a plain int for the JSON config line.
        if isinstance(value, np.integer):
            config = ScenarioConfig(tx=self.GEOM, rx=self.GEOM, **{field: value})
            assert type(getattr(config, field)) is int and getattr(config, field) == value
            return
        with pytest.raises(ValueError, match=f"invalid value for {field}: "):
            ScenarioConfig(tx=self.GEOM, rx=self.GEOM, **{field: value})

    def test_rejects_a_scheme_repeated_after_canonicalization(self):
        with pytest.raises(ValueError, match="invalid value for scheme"):
            ScenarioConfig(tx=self.GEOM, rx=self.GEOM, schemes=("zf", "ZF"))
        with pytest.raises(ValueError, match="invalid value for scheme"):
            parse_config(scheme="mrt,ns_zf,NS-ZF")

    def test_canonicalizes_scheme_names(self):
        config = ScenarioConfig(
            tx=self.GEOM, rx=self.GEOM, schemes=("mrt", "ns_zf")
        )
        assert config.schemes == ("MRT", "NS-ZF")

    @pytest.mark.parametrize(
        "schemes, match",
        [("zf", "invalid value for scheme: 'zf'"), (None, "invalid value for scheme: None"),
         (3, "invalid value for scheme: 3"), ([3], "unknown scheme 3"),
         (["zf", None], "unknown scheme None")],
        ids=["string", "none", "int", "int-entry", "none-entry"],
    )
    def test_rejects_schemes_that_are_not_a_list_of_names(self, schemes, match):
        # Unchecked, "zf" was read letter by letter ("unknown scheme 'z'"),
        # None and 3 failed with a bare TypeError and a non-text entry with
        # an AttributeError.
        with pytest.raises(ValueError, match=re.escape(match)):
            ScenarioConfig(tx=self.GEOM, rx=self.GEOM, schemes=schemes)


class TestFeasibility:
    def test_overloaded_inversion_is_rejected_with_counts(self, tmp_path, count_calls):
        draws = count_calls(rate, "_draw_parts")
        out = tmp_path / "se.csv"
        config = parse_config(ns=144, nr=144, users=3, snr="10", trials=2)
        with pytest.raises(ValueError) as excinfo:
            run_se_sim(config, out)
        # 141 of the 147 streams and 47 of the 49 transmit cells are live.
        assert str(excinfo.value) == "141 active streams exceed 47 active transmit cells"
        assert draws == []
        assert not out.exists()

    def test_matching_only_runs_at_any_load(self, tmp_path):
        config = parse_config(ns=144, nr=144, users=3, snr="10", trials=2, scheme="mrt")
        results = run_se_sim(config, tmp_path / "se.csv")
        assert results["MRT"].per_stream.shape == (147, 1)

    def test_counts_for_the_default_scenario(self, tmp_path):
        # The default surfaces have 47 live receive cells (of 49) and 313
        # live transmit cells (of 317); a seventh user is the first that
        # overloads zero-forcing.
        config = parse_config(users=7, snr="10", trials=1, scheme="zf")
        with pytest.raises(ValueError) as excinfo:
            run_se_sim(config, tmp_path / "se.csv")
        assert str(excinfo.value) == "329 active streams exceed 313 active transmit cells"

    def test_live_cells_decide_as_in_the_closed_form(self, tmp_path):
        # 6 streams on 5 cells, of which 4 and 4 are live: se-theory and
        # se-sim both accept it.
        for command in ("se-theory", "se-sim"):
            out = tmp_path / f"{command}.csv"
            argv = [command, "--ns", "12", "--nr", "6", "--users", "2", "--snr", "10",
                    "--trials", "3", "--scheme", "zf", "--out", str(out)]
            assert main(argv) == 0
            assert out.exists()


class TestPresetJobs:
    def test_known_names_only(self):
        assert PRESET_NAMES == ("fig3", "fig4", "fig5", "fig6", "fig7", "fig8")
        with pytest.raises(ValueError, match="unknown preset"):
            preset_jobs("fig9")
        with pytest.raises(ValueError, match="invalid value for scale"):
            preset_jobs("fig3", scale=0.0)
        # Unchecked, True ran at native size; text is read like a spacing.
        with pytest.raises(ValueError, match="invalid value for scale"):
            preset_jobs("fig8", scale=True)
        assert preset_jobs("fig8", scale="1/2") == preset_jobs("fig8", scale=0.5)

    def test_spectrum_family_sweeps_receive_spacing(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "run_eigvals", lambda *args: calls.append(args))
        jobs = preset_jobs("fig3")
        assert [stem for stem, *_ in jobs] == [
            "fig3_dr1_6",
            "fig3_dr1_3",
            "fig3_dr1_2",
        ]
        for (_, config, job), spacing in zip(jobs, (1 / 6, 1 / 3, 0.5)):
            job(config, tmp_path / "x.csv")
            assert calls.pop() == (config, tmp_path / "x.csv")
            assert config.users == 1
            assert config.schemes == ("MRT",)
            assert (config.rx.n_h, config.rx.n_v) == (24, 24)
            assert config.rx.spacing == pytest.approx(spacing)
            assert (config.tx.n_h, config.tx.n_v) == (30, 30)

    def test_spacing_family_compares_dense_and_sparse_transmit(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "run_se_sim", lambda *args, **kw: calls.append((args, kw)))
        jobs = preset_jobs("fig7")
        assert [stem for stem, *_ in jobs] == ["fig7_ds1_6", "fig7_ds1_15"]
        for (_, config, job), spacing in zip(jobs, (1 / 6, 1 / 15)):
            job(config, tmp_path / "x.csv")
            assert calls.pop() == ((config, tmp_path / "x.csv"), {"include_theory": True})
            assert config.users == 1
            assert (config.tx.n_h, config.tx.n_v) == (60, 60)
            assert config.tx.spacing == pytest.approx(spacing)

    def test_series_family_carries_the_order_sweep(self, tmp_path, monkeypatch):
        ((stem, config, job),) = preset_jobs("fig8")
        assert stem == "fig8"
        calls = []
        monkeypatch.setattr(harness, "run_se_sim", lambda *args, **kw: calls.append((args, kw)))
        job(config, tmp_path / "fig8.csv")
        assert calls == [((config, tmp_path / "fig8.csv"), {"ns_orders": (2, 3, 4, 7)})]
        assert (config.tx.n_h, config.tx.n_v) == (27, 27)
        assert (config.rx.n_h, config.rx.n_v) == (12, 12)
        assert config.users == 1
        assert config.schemes == ("ZF",)

    def test_scale_shrinks_every_surface(self):
        ((_, config, _),) = preset_jobs("fig8", scale=0.25)
        assert (config.tx.n_h, config.tx.n_v) == (14, 14)
        assert (config.rx.n_h, config.rx.n_v) == (6, 6)
        assert config.tx.spacing == pytest.approx(1 / 3)

    def test_trial_and_seed_overrides(self):
        ((_, config, _),) = preset_jobs("fig8", trials=5, seed=7)
        assert config.trials == 5
        assert config.seed == 7
        # Read like the same keys of a --config file.
        assert preset_jobs("fig8", trials="5", seed=7.0) == preset_jobs("fig8", trials=5, seed=7)

    @pytest.mark.parametrize("value", [2.5, True, "1e3"])
    def test_an_override_is_read_like_its_flag(self, value):
        with pytest.raises(ValueError, match="^invalid value for trials: "):
            preset_jobs("fig8", trials=value)
        with pytest.raises(ValueError, match="^invalid value for seed: "):
            preset_jobs("fig8", seed=value)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_native_jobs_keep_their_stems_and_configurations(self, name):
        expected = [(stem, digest) for preset, stem, digest in NATIVE_JOB_HASHES
                    if preset == name]
        jobs = []
        for stem, config, _ in preset_jobs(name):
            canonical = json.dumps(_config_payload(config), sort_keys=True,
                                   separators=(",", ":"))
            jobs.append((stem, hashlib.sha1(canonical.encode("utf-8")).hexdigest()))
        assert jobs == expected


# Live cells (nonzero sigma) of every native preset surface, keyed by its
# aperture in wavelengths, against pi L_x L_y, the degrees of freedom of a
# continuous aperture (Pizzo, Marzetta & Sanguinetti, IEEE JSAC 2020).
LIVE_CELLS = {
    (4 / 3, 1.5): 5,  # fig6_nr72 receive
    (2.0, 2.0): 11,  # fig6_nr144 receive
    (8 / 3, 3.0): 22,  # fig6_nr288 receive
    (4.0, 4.0): 47,  # at λ/15, λ/6 and λ/3
    (5.0, 5.0): 77,  # fig6 transmit
    (8.0, 8.0): 195,
    (9.0, 9.0): 251,  # fig8 transmit
    (10.0, 10.0): 313,  # at λ/6 and λ/3
    # fig3_dr1_2 receive: at λ/2 the alias cells merge, so fewer cells than
    # the aperture's 452 are live.
    (12.0, 12.0): 439,
    (20.0, 20.0): 1253,  # fig4_ns3600 transmit
}


class TestPresetApertures:
    # At a fixed aperture, denser patches give the same lattice and only
    # scale sigma; the aperture sets the live-cell count.
    def test_the_same_aperture_gives_the_same_lattice(self):
        jobs = {stem: config for name in ("fig3", "fig4", "fig7")
                for stem, config, _ in preset_jobs(name)}
        base = variance_map(jobs["fig4_ns576"].rx)  # 12x12 at λ/3
        twice = variance_map(jobs["fig3_dr1_6"].rx)  # 24x24 at λ/6
        five = variance_map(jobs["fig7_ds1_15"].tx)  # 60x60 at λ/15
        np.testing.assert_array_equal(twice.lattice, base.lattice)
        np.testing.assert_array_equal(five.lattice, base.lattice)
        # The squares sum to the patch count: 4 and 25 times the base's.
        np.testing.assert_array_equal(twice.normalized_sigma, 2 * base.normalized_sigma)
        np.testing.assert_allclose(five.normalized_sigma, 5 * base.normalized_sigma,
                                   rtol=2.2e-16, atol=0.0)

    def test_live_cells_track_the_aperture(self):
        surfaces = [(stem, geometry) for name in PRESET_NAMES
                    for stem, config, _ in preset_jobs(name)
                    for geometry in (config.tx, config.rx)]
        for surface, geometry in surfaces:
            sides = geometry.n_h * geometry.spacing, geometry.n_v * geometry.spacing
            (expected,) = [count for aperture, count in LIVE_CELLS.items()
                           if np.allclose(aperture, sides, rtol=1e-12)]
            live = np.count_nonzero(variance_map(geometry).normalized_sigma)
            assert live == expected, surface
            assert live < math.pi * sides[0] * sides[1], surface


# SHA-1 of every native-scale job's canonical configuration: a change here
# rewrites the config line and every row's hash of that series.
NATIVE_JOB_HASHES = [
    ("fig3", "fig3_dr1_6", "503345bf39cf4275f4bfc94efd0529ca74af6f62"),
    ("fig3", "fig3_dr1_3", "8ca4dba863b0d56dc1f16c01a3c58bf101fe4498"),
    ("fig3", "fig3_dr1_2", "0e795f010ce6baaa1766e19f9eaacb798030e082"),
    ("fig4", "fig4_ns576", "fa512b29f76aca19c4a7bfc2a847add633513650"),
    ("fig4", "fig4_ns900", "5013bc00e1547692b0aaae3436cda8513bdde56d"),
    ("fig4", "fig4_ns3600", "2b09dfff0dd2aebce8db9d336a674e54e69c063b"),
    ("fig5", "fig5_ns144", "7b309a3ba504fd6f405687740b4993770e34d7b2"),
    ("fig5", "fig5_ns576", "1f7620d6115e53256df227b71891c65dd1020b2d"),
    ("fig5", "fig5_ns900", "659a24d42966bfb6a279d41f8d9b9644abd6af4e"),
    ("fig6", "fig6_nr72", "94b4470ca91827442973092739c61f5265f03486"),
    ("fig6", "fig6_nr144", "176a801825ba7390f96892e273fe696836fe67c4"),
    ("fig6", "fig6_nr288", "a4dbeb9045d3f44cf6110310906b2b2cff4238f1"),
    ("fig7", "fig7_ds1_6", "e6ee5ca478f407287fa23bc7901b153bf60bacfe"),
    ("fig7", "fig7_ds1_15", "3a42b3c8e739ca4293ce4eb08ab15036a6624a19"),
    ("fig8", "fig8", "a20c1dd3a8cc728f918b28bc751902243b17f420"),
]


def reference_csv(path, header, rows):
    """Bytes of ``rows`` written one field at a time under ``path``'s config line."""
    payload = json.loads(path.read_text(encoding="utf-8").splitlines()[0][len("# config "):])
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha1(canonical.encode("utf-8")).hexdigest()[:12]

    def field(value):
        return f"{value:.12g}" if isinstance(value, (float, np.floating)) else str(value)

    lines = [f"# config {canonical}", ",".join([*header, "config_hash"])]
    lines += [",".join([*(field(v) for v in row), digest]) for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


def factor_scenario(users):
    """The 6x6-against-14x14 pair of ``rx_map_small`` and ``tx_map_medium``."""
    return ScenarioConfig(tx=ArrayGeometry(14, 14, 1 / 3), rx=ArrayGeometry(6, 6, 1 / 3),
                          users=users)


class TestSeparableFactors:
    """A job's ensemble: ``users`` copies of the receive map's factors, then the transmit map's."""

    def test_uniform_factors_give_all_ones(self):
        rx, tx = _factors([1.0, 1.0], np.ones(3))
        np.testing.assert_array_equal(np.outer(rx, tx), np.ones((2, 3)))

    def test_user_blocks_are_identical(self, rx_map_small, tx_map_medium):
        rx, tx = harness._sigma(factor_scenario(3))
        n_r = len(rx_map_small.lattice)
        assert rx.shape == (3 * n_r,)
        assert tx.shape == (len(tx_map_medium.lattice),)
        np.testing.assert_array_equal(rx[:n_r], rx[n_r : 2 * n_r])
        np.testing.assert_array_equal(rx[:n_r], rx[2 * n_r :])

    def test_block_is_rank_one(self, rx_map_small, tx_map_medium):
        # The scale of coupling (i, j) is rx_sigma[i] * tx_sigma[j]: the
        # factors are the two surfaces' normalized maps, the receive one
        # repeated once per user.
        rx, tx = harness._sigma(factor_scenario(2))
        np.testing.assert_array_equal(rx, np.tile(rx_map_small.normalized_sigma, 2))
        np.testing.assert_array_equal(tx, tx_map_medium.normalized_sigma)

    def test_block_energy_is_the_patch_count_product(self):
        energy = np.linalg.norm(np.outer(*harness._sigma(factor_scenario(1)))) ** 2
        assert energy == pytest.approx(36 * 196, rel=1e-9)

    @pytest.mark.parametrize("users", [0, -2, 1.5])
    def test_rejects_bad_user_count(self, users):
        with pytest.raises(ValueError, match="invalid value for users"):
            factor_scenario(users)


class TestColumnWriter:
    SE_HEADER = ["snr_db", "scheme", "user", "stream", "se_bits"]

    def test_se_block_matches_a_per_field_formatter(self, tmp_path):
        out = tmp_path / "se.csv"
        config = parse_config(
            ns=144, nr=36, users=2, snr="-10:10:10", trials=3, scheme="mrt,zf"
        )
        results = run_se_sim(config, out, include_theory=True)
        rx_map = variance_map(config.rx)
        sigma = np.tile(rx_map.normalized_sigma, 2), variance_map(config.tx).normalized_sigma
        per_user = len(rx_map.lattice)
        rows = []
        for scheme, fn, tag in (
            ("MRT", mrt_theoretical_bound, "MRT-BOUND"),
            ("ZF", zf_theoretical, "ZF-THEORY"),
        ):
            result = results[scheme]
            for col, snr_db in enumerate(config.snr_grid_db):
                for k in range(sigma[0].size):
                    rows.append((snr_db, scheme, k // per_user + 1, k % per_user + 1,
                                 result.per_stream[k, col]))
                rows.append((snr_db, scheme, "all", "sum", result.sum_se[col]))
            for snr_db in config.snr_grid_db:
                values = fn(*sigma, snr_db)[:, 0].tolist()
                for k, value in enumerate(values):
                    rows.append((snr_db, tag, k // per_user + 1, k % per_user + 1, value))
                rows.append((snr_db, tag, "all", "sum", sum(values)))
        assert out.read_bytes() == reference_csv(out, self.SE_HEADER, rows)

    def test_eigvals_block_matches_a_per_field_formatter(self, tmp_path):
        out = tmp_path / "eig.csv"
        normalized = run_eigvals(parse_config(ns=144, nr=36), out)
        rows = [(rank + 1, value) for rank, value in enumerate(normalized)]
        assert out.read_bytes() == reference_csv(out, ["rank", "eigenvalue"], rows)

    def test_rows_spanning_several_blocks_match_a_per_field_formatter(self, tmp_path):
        out = tmp_path / "blocks.csv"
        count = 2 * _BLOCK_ROWS + 1
        index = np.arange(count)
        values = (index - count / 2) * 0.37  # negatives, then positives
        values[::3] = 0.0
        values[1::5] = np.round(values[1::5])  # integral floats
        labels = [f"{i % 3 + 1},{i % 5 + 1}" if i % 7 else "all,sum" for i in range(count)]
        header = ["value", "user", "stream", "index"]
        _write_csv(out, {"artifact": "blocks"}, header, [values, labels, index])
        rows = zip(values.tolist(), labels, index.tolist())
        assert out.read_bytes() == reference_csv(out, header, rows)

    def test_bytes_do_not_depend_on_the_block_size(self, tmp_path, monkeypatch):
        # SE rows mix floats with ready-made strings, eigvals rows ints with
        # floats; neither count (720 and 5,184) is a multiple of 7.
        written = []
        for block_rows in (1, 7, 10**6):
            monkeypatch.setattr(harness, "_BLOCK_ROWS", block_rows)
            se, eig = tmp_path / f"se-{block_rows}.csv", tmp_path / f"eig-{block_rows}.csv"
            run_se_theory(parse_config(ns=144, nr=36, scheme="mrt,zf"), se)
            run_eigvals(parse_config(ns=144, nr=36), eig)
            written.append((se.read_bytes(), eig.read_bytes()))
        assert [se.count(b"\n") - 2 for se, _ in written] == [720] * 3
        assert [eig.count(b"\n") - 2 for _, eig in written] == [5184] * 3
        assert written[0] == written[1] == written[2]


class TestRunners:
    def test_variance_map_artifact(self, tmp_path):
        out = tmp_path / "vmap.csv"
        vmap = run_variance_map(ArrayGeometry(6, 6, 1 / 3), out)
        header, rows = read_csv(out)
        assert header == ["lx", "ly", "raw", "sigma", "config_hash"]
        assert len(rows) == len(vmap.lattice) == 13
        hashes = {row[-1] for row in rows}
        assert len(hashes) == 1
        assert len(hashes.pop()) == 12

    def test_variance_map_config_line_holds_only_the_configuration(self, tmp_path):
        # A computed total in the hashed line would tie every row's hash to
        # round-off in the integration.
        out = tmp_path / "vmap.csv"
        run_variance_map(ArrayGeometry(6, 6, 1 / 3), out)
        line = out.read_text(encoding="utf-8").splitlines()[0]
        config = json.loads(line.removeprefix("# config "))
        assert config == {"surface": [6, 6, 1 / 3], "wavelength": 1.0}

    def test_eigvals_artifact_is_normalized(self, tmp_path):
        out = tmp_path / "eig.csv"
        config = parse_config(ns=144, nr=36)
        normalized = run_eigvals(config, out)
        assert normalized[0] == 1.0
        header, rows = read_csv(out)
        assert header == ["rank", "eigenvalue", "config_hash"]
        assert rows[0][:2] == ["1", "1"]
        assert int(rows[-1][0]) == normalized.size == 36 * 144

    def test_se_sim_rows_are_consistent(self, tmp_path):
        out = tmp_path / "se.csv"
        config = parse_config(
            ns=144, nr=36, users=1, snr="0,10", trials=4, scheme="mrt,zf"
        )
        results = run_se_sim(config, out)
        assert set(results) == {"MRT", "ZF"}
        header, rows = read_csv(out)
        assert header == ["snr_db", "scheme", "user", "stream", "se_bits", "config_hash"]
        for scheme in ("MRT", "ZF"):
            for snr in ("0", "10"):
                group = [r for r in rows if r[0] == snr and r[1] == scheme]
                streams = [float(r[4]) for r in group if r[2] != "all"]
                total = [float(r[4]) for r in group if r[2] == "all"]
                assert len(streams) == 13
                assert total[0] == pytest.approx(sum(streams), rel=1e-9)

    def test_se_sim_can_attach_closed_forms(self, tmp_path):
        out = tmp_path / "se-theory.csv"
        config = parse_config(
            ns=144, nr=36, users=1, snr="10", trials=2, scheme="mrt,zf"
        )
        run_se_sim(config, out, include_theory=True)
        _, rows = read_csv(out)
        tags = {row[1] for row in rows}
        assert tags == {"MRT", "ZF", "MRT-BOUND", "ZF-THEORY"}

    def test_se_theory_rejects_schemes_without_closed_form(self, tmp_path):
        config = parse_config(ns=144, nr=36, scheme="mmse")
        with pytest.raises(ValueError, match="no closed form"):
            run_se_theory(config, tmp_path / "x.csv")

    def test_ns_compare_tags_each_order(self, tmp_path):
        out = tmp_path / "ns.csv"
        config = parse_config(ns=144, nr=36, users=1, snr="10", trials=2, scheme="zf")
        results = run_se_sim(config, out, ns_orders=(2, 3))
        assert set(results) == {"ZF", "NS-ZF-2", "NS-ZF-3"}
        _, rows = read_csv(out)
        assert {row[1] for row in rows} == {"ZF", "NS-ZF-2", "NS-ZF-3"}

    def test_series_orders_get_no_closed_form(self, tmp_path):
        out = tmp_path / "ns.csv"
        config = parse_config(ns=144, nr=36, users=1, snr="10", trials=2, scheme="zf")
        results = run_se_sim(config, out, include_theory=True, ns_orders=(2,))
        assert set(results) == {"ZF", "NS-ZF-2"}
        _, rows = read_csv(out)
        blocks = [tag for tag, _ in itertools.groupby(row[1] for row in rows)]
        assert blocks == ["ZF", "ZF-THEORY", "NS-ZF-2"]
        line = out.read_text(encoding="utf-8").splitlines()[0]
        assert json.loads(line.removeprefix("# config "))["ns_orders"] == [2]

    def test_se_job_builds_each_lattice_once(self, tmp_path, count_calls):
        # The feasibility check reads the cell counts off the variance
        # matrix, so only the two variance maps enumerate a lattice.
        from holosim import spectrum

        assert not hasattr(harness, "lattice_ellipse")
        in_maps = count_calls(spectrum, "lattice_ellipse")
        config = parse_config(ns=144, nr=36, users=1, snr="10", trials=2, scheme="zf")
        run_se_sim(config, tmp_path / "se.csv", include_theory=True)
        assert len(in_maps) == 2

    def test_se_job_calls_the_public_closed_forms_by_name(self, tmp_path, count_calls):
        # Looked up on the module when the job runs, so a wrapper installed
        # after import sees one call per scheme and job.
        bounds = count_calls(harness, "mrt_theoretical_bound")
        nulling = count_calls(harness, "zf_theoretical")
        config = parse_config(ns=144, nr=36, users=1, snr="0,10", trials=2, scheme="mrt,zf")
        run_se_sim(config, tmp_path / "se.csv", include_theory=True)
        assert len(bounds) == len(nulling) == 1

    def test_a_numpy_integer_order_writes_the_bytes_of_an_int(self, tmp_path):
        # Unconverted, np.int64 reached the JSON config line after every
        # draw and raised a bare TypeError.
        config = parse_config(ns=144, nr=36, users=1, snr="10", trials=2, scheme="zf")
        for name, order in (("int", 2), ("numpy", np.int64(2))):
            run_se_sim(config, tmp_path / f"{name}.csv", ns_orders=(order,))
        assert (tmp_path / "int.csv").read_bytes() == (tmp_path / "numpy.csv").read_bytes()

    @pytest.mark.parametrize(
        "orders",
        [(3, 3), (3, -1), (), ("2",), (2.5,), (True,)],
        ids=["repeated", "negative", "empty", "string", "fraction", "bool"],
    )
    def test_ns_compare_rejects_repeated_or_negative_orders_before_any_trial(
        self, tmp_path, count_calls, orders
    ):
        # No orders is a plain se-sim run, so an empty list is the reader's
        # error.  Unchecked, "2" raised a bare TypeError from the sign check,
        # and 2.5 and True reached the engine's own order message.
        draws = count_calls(rate, "_draw_parts")
        out = tmp_path / "ns.csv"
        config = parse_config(ns=144, nr=36, users=1, snr="10", trials=2, scheme="zf")
        with pytest.raises(ValueError, match="invalid value for iters"):
            if orders:
                run_se_sim(config, out, ns_orders=orders)
            else:
                harness.parse_ns_compare(iters=list(orders))
        assert draws == []
        assert not out.exists()


class TestRunPreset:
    def test_unknown_preset_reports_failure(self, tmp_path, capsys):
        assert run_preset("fig9", out=str(tmp_path)) == 1
        assert "unknown preset" in capsys.readouterr().err

    def test_infeasible_preset_reports_failure(self, tmp_path, capsys):
        # Shrinking this family leaves 3 live streams on 1 live transmit
        # cell, which must surface as a diagnostic, not a traceback.
        assert run_preset("fig7", scale=0.05, trials=2, out=str(tmp_path)) == 1
        assert "exceed" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["fig4", "fig8"])
    def test_monte_carlo_presets_never_form_the_scale_matrix(self, tmp_path, capsys, name):
        # The ensemble is two factor vectors; the draws scale by them, so
        # no K x N scale matrix is formed.
        assert run_preset(name, scale=0.25, trials=2, out=str(tmp_path)) == 0, (
            capsys.readouterr().err
        )

    def test_scaled_series_preset_writes_reproducible_csv(self, tmp_path):
        first_dir = tmp_path / "first"
        second_dir = tmp_path / "second"
        assert run_preset("fig8", scale=0.25, trials=3, out=str(first_dir)) == 0
        assert run_preset("fig8", scale=0.25, trials=3, out=str(second_dir)) == 0
        first = (first_dir / "fig8.csv").read_bytes()
        second = (second_dir / "fig8.csv").read_bytes()
        assert first == second
        assert b"\r" not in first
        header, rows = read_csv(first_dir / "fig8.csv")
        tags = {row[1] for row in rows}
        assert tags == {"ZF", "NS-ZF-2", "NS-ZF-3", "NS-ZF-4", "NS-ZF-7"}
        for row in rows:
            float(row[4])  # every value is a parseable number

    def test_series_preset_draws_each_trial_once_for_every_order(
        self, tmp_path, count_calls
    ):
        # Exact ZF and the four series orders share every draw.
        draws = count_calls(rate, "_draw_parts")
        assert run_preset("fig8", scale=0.25, trials=3, out=str(tmp_path)) == 0
        assert len(draws) == 3


    def test_series_preset_makes_one_eigh_and_one_horner_pass_per_draw(
        self, tmp_path, count_calls
    ):
        # Exact ZF reads the eigendecomposition, the four series orders and
        # their coupled matrices one Horner pass.
        eighs = count_calls(np.linalg, "eigh")
        passes = count_calls(rate, "_ns_zf_core")
        assert run_preset("fig8", scale=0.25, trials=3, out=str(tmp_path)) == 0
        assert len(eighs) == 3
        assert len(passes) == 3

    def test_overrides_given_as_text_write_the_bytes_of_counts(self, tmp_path):
        # The preset command hands its --trials and --seed text straight on.
        for sub, trials, seed in (("text", "3", "7"), ("counts", 3, 7)):
            assert run_preset("fig8", scale=0.25, trials=trials, seed=seed,
                              out=str(tmp_path / sub)) == 0
        assert (tmp_path / "text" / "fig8.csv").read_bytes() == (
            tmp_path / "counts" / "fig8.csv"
        ).read_bytes()

    @pytest.mark.parametrize("value", [2.5, True, "1e3"])
    def test_a_bad_override_fails_before_any_csv(self, tmp_path, capsys, value):
        assert run_preset("fig4", scale=0.25, trials=value, out=str(tmp_path)) == 1
        assert "invalid value for trials" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", ["fig3", "fig8"])
    def test_negative_seed_fails_before_any_csv(self, tmp_path, capsys, name):
        assert run_preset(name, trials=1, seed=-1, out=str(tmp_path)) == 1
        assert "invalid value for seed" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


# Every se/ns preset series at --scale 0.25 and the command that writes it.
SCALED_SERIES = [
    ("fig4", "fig4_ns576", "se-sim --theory --ns 144 --nr 36 --scheme zf,mmse"),
    ("fig4", "fig4_ns900", "se-sim --theory --ns 225 --nr 36 --scheme zf,mmse"),
    ("fig4", "fig4_ns3600", "se-sim --theory --ns 900 --nr 36 --scheme zf,mmse"),
    ("fig5", "fig5_ns144", "se-sim --theory --ns 36 --nr 36 --scheme mrt"),
    ("fig5", "fig5_ns576", "se-sim --theory --ns 144 --nr 36 --scheme mrt"),
    ("fig5", "fig5_ns900", "se-sim --theory --ns 225 --nr 36 --scheme mrt"),
    ("fig6", "fig6_nr72", "se-sim --theory --ns 225 --delta-s 1/6 --nr 16 --delta-r 1/6"),
    ("fig6", "fig6_nr144", "se-sim --theory --ns 225 --delta-s 1/6 --nr 36 --delta-r 1/6"),
    ("fig6", "fig6_nr288", "se-sim --theory --ns 225 --delta-s 1/6 --nr 72 --delta-r 1/6"),
    ("fig7", "fig7_ds1_6", "se-sim --theory --ns 900 --delta-s 1/6 --nr 36 --users 1"),
    ("fig7", "fig7_ds1_15", "se-sim --theory --ns 900 --delta-s 1/15 --nr 36 --users 1"),
    ("fig8", "fig8", "ns-compare --ns 196 --nr 36 --users 1 --iters 2,3,4,7"),
]


# (command, flag, a bad value, the --config key its reader reads); a preset's
# scale is read by the spacing reader.
BAD_FLAGS = [
    ("se-sim", "--ns", "144.5", "ns"),
    ("se-sim", "--nr", "-36", "nr"),
    ("se-sim", "--users", "two", "users"),
    ("se-sim", "--trials", "2.5", "trials"),
    ("se-sim", "--seed", "1.0", "seed"),
    ("preset", "--trials", "2.5", "trials"),
    ("preset", "--seed", "1e3", "seed"),
    ("preset", "--scale", "1/0", "delta_s"),
]
COMMAND_ARGS = {"se-sim": ["--snr", "10", "--trials", "1"], "preset": ["fig8"]}


class TestCLI:
    @pytest.mark.parametrize(
        ("name", "stem", "command"), SCALED_SERIES, ids=[stem for _, stem, _ in SCALED_SERIES]
    )
    def test_command_reproduces_the_preset_series(self, tmp_path, name, stem, command):
        ((config, job),) = [
            (config, job)
            for series, config, job in preset_jobs(name, scale=0.25, trials=2, seed=5)
            if series == stem
        ]
        job(config, tmp_path / "preset.csv")
        out = tmp_path / "cli.csv"
        assert main([*command.split(), "--trials", "2", "--seed", "5", "--out", str(out)]) == 0
        assert out.read_bytes() == (tmp_path / "preset.csv").read_bytes()

    def test_ns_compare_reads_its_orders_from_a_file(self, tmp_path):
        settings = tmp_path / "ns.json"
        settings.write_text(json.dumps(
            {"ns": 144, "nr": 36, "users": 1, "snr": "10", "trials": 2, "iters": [2, 3, 4, 7]}
        ))
        from_file = tmp_path / "file.csv"
        assert main(["ns-compare", "--config", str(settings), "--out", str(from_file)]) == 0
        from_flags = tmp_path / "flags.csv"
        status = main(
            [
                "ns-compare", "--ns", "144", "--nr", "36", "--users", "1",
                "--snr", "10", "--trials", "2", "--iters", "2,3,4,7",
                "--out", str(from_flags),
            ]
        )
        assert status == 0
        assert from_file.read_bytes() == from_flags.read_bytes()

    def test_ns_compare_rejects_a_scheme_from_a_file(self, tmp_path, capsys):
        settings = tmp_path / "ns.json"
        settings.write_text(json.dumps({"scheme": "mmse"}))
        out = tmp_path / "ns.csv"
        status = main(
            [
                "ns-compare", "--config", str(settings), "--ns", "144", "--nr", "36",
                "--users", "1", "--snr", "10", "--trials", "2", "--iters", "2,3",
                "--out", str(out),
            ]
        )
        assert status == 1
        assert "invalid value for scheme" in capsys.readouterr().err
        assert not out.exists()

    def test_variance_map_command(self, tmp_path):
        out = tmp_path / "vmap.csv"
        assert main(["variance-map", "--ns", "36", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header[:2] == ["lx", "ly"]
        assert len(rows) == 13

    def test_se_sim_command_with_theory(self, tmp_path):
        out = tmp_path / "se.csv"
        status = main(
            [
                "se-sim", "--ns", "144", "--nr", "36", "--users", "1",
                "--snr", "10", "--trials", "2", "--scheme", "mrt,zf",
                "--theory", "--out", str(out),
            ]
        )
        assert status == 0
        _, rows = read_csv(out)
        assert {row[1] for row in rows} == {"MRT", "ZF", "MRT-BOUND", "ZF-THEORY"}

    def test_ns_compare_command_parses_order_lists(self, tmp_path):
        out = tmp_path / "ns.csv"
        status = main(
            [
                "ns-compare", "--ns", "144", "--nr", "36", "--users", "1",
                "--snr", "10", "--trials", "2", "--iters", "2,3",
                "--out", str(out),
            ]
        )
        assert status == 0
        _, rows = read_csv(out)
        assert {row[1] for row in rows} == {"ZF", "NS-ZF-2", "NS-ZF-3"}

    @pytest.mark.parametrize("orders", ["3,3", "3,-1"], ids=["repeated", "negative"])
    def test_ns_compare_command_rejects_repeated_or_negative_orders(
        self, tmp_path, capsys, orders
    ):
        out = tmp_path / "ns.csv"
        status = main(
            [
                "ns-compare", "--ns", "144", "--nr", "36", "--users", "1",
                "--snr", "10", "--trials", "2", "--iters", orders,
                "--out", str(out),
            ]
        )
        assert status == 1
        assert "invalid value for iters" in capsys.readouterr().err
        assert not out.exists()

    def test_ns_compare_command_rejects_a_scheme(self, tmp_path, capsys):
        # ns-compare always runs ZF and its series orders.
        out = tmp_path / "ns.csv"
        status = main(
            [
                "ns-compare", "--ns", "144", "--nr", "36", "--users", "1",
                "--snr", "10", "--trials", "2", "--scheme", "mmse",
                "--iters", "2,3", "--out", str(out),
            ]
        )
        assert status == 1
        assert "invalid value for scheme" in capsys.readouterr().err
        assert not out.exists()

    def test_se_sim_command_rejects_a_repeated_scheme(self, tmp_path, capsys):
        out = tmp_path / "se.csv"
        status = main(
            [
                "se-sim", "--ns", "144", "--nr", "36", "--users", "1",
                "--snr", "10", "--trials", "2", "--scheme", "zf,ZF",
                "--out", str(out),
            ]
        )
        assert status == 1
        assert "invalid value for scheme" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_se_sim_command_rejects_an_empty_scheme_list(self, tmp_path, capsys, source):
        settings = tmp_path / "se.json"
        settings.write_text(json.dumps({"scheme": []}))
        given = ["--scheme", ","] if source == "flag" else ["--config", str(settings)]
        out = tmp_path / "se.csv"
        status = main(
            [
                "se-sim", "--ns", "144", "--nr", "36", "--users", "1",
                "--snr", "10", "--trials", "1", *given, "--out", str(out),
            ]
        )
        assert status == 1
        assert "invalid value for scheme" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["se-sim", "se-theory"])
    def test_single_order_commands_reject_an_order_list(
        self, tmp_path, capsys, command
    ):
        out = tmp_path / "x.csv"
        status = main(
            [
                command, "--ns", "144", "--nr", "36", "--users", "1",
                "--snr", "10", "--trials", "2", "--scheme", "zf",
                "--iters", "2,3", "--out", str(out),
            ]
        )
        assert status == 1
        assert "invalid value for iters" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["se-sim", "se-theory"])
    def test_an_overflowing_snr_fails_before_any_csv(self, tmp_path, capsys, command):
        out = tmp_path / "x.csv"
        status = main(
            [
                command, "--ns", "36", "--nr", "16", "--users", "1",
                "--snr", "0,4000", "--trials", "2", "--scheme", "zf", "--out", str(out),
            ]
        )
        assert status == 1
        assert "invalid value for snr: 4000 dB" in capsys.readouterr().err
        assert not out.exists()

    def test_se_sim_writes_a_finite_regularized_rate_at_high_snr(self, tmp_path):
        out = tmp_path / "se.csv"
        status = main(
            [
                "se-sim", "--ns", "36", "--nr", "16", "--users", "1", "--snr", "0,200",
                "--trials", "4", "--scheme", "zf,mmse", "--out", str(out),
            ]
        )
        assert status == 0
        sums = {tuple(row.split(",")[:2]): row.split(",")[4]
                for row in out.read_text().splitlines() if ",all,sum," in row}
        assert "nan" not in sums.values()
        assert sums["200", "MMSE"] == sums["200", "ZF"]

    def test_se_theory_command_rejects_mmse(self, tmp_path, capsys):
        status = main(
            ["se-theory", "--scheme", "mmse", "--out", str(tmp_path / "x.csv")]
        )
        assert status == 1
        assert "holosim se-theory: no closed form" in capsys.readouterr().err

    def test_bad_spacing_is_a_clean_failure(self, tmp_path, capsys):
        status = main(
            ["eigvals", "--delta-s", "wide", "--out", str(tmp_path / "x.csv")]
        )
        assert status == 1
        assert "invalid value for delta-s" in capsys.readouterr().err

    def test_overflowing_aperture_is_a_clean_failure(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        status = main(["variance-map", "--ns", "100", "--delta-s", "1e308", "--out", str(out)])
        assert status == 1
        assert "invalid value for spacing" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scale", ["nan", "inf"])
    def test_preset_rejects_a_non_finite_scale_before_any_csv(self, tmp_path, capsys, scale):
        status = main(["preset", "fig8", "--scale", scale, "--trials", "2",
                       "--out", str(tmp_path)])
        assert status == 1
        assert f"invalid value for scale: '{scale}'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("scale", [0, -1, math.nan], ids=["0", "-1", "nan"])
    def test_a_bad_scale_fails_alike_from_python_and_the_command(
        self, tmp_path, capsys, scale
    ):
        # One reader serves both routes, and neither writes a CSV.
        assert run_preset("fig8", scale=scale, trials=2, out=str(tmp_path)) == 1
        argv = ["preset", "fig8", "--scale", str(scale), "--trials", "2", "--out", str(tmp_path)]
        assert main(argv) == 1
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 2
        assert all(": invalid value for scale: " in line for line in errors), errors
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        ("command", "flag", "value", "key"), BAD_FLAGS,
        ids=[f"{command}{flag}" for command, flag, _, _ in BAD_FLAGS],
    )
    def test_a_bad_flag_fails_like_the_same_value_in_a_file(
        self, tmp_path, capsys, command, flag, value, key
    ):
        # The command converts no flag: each reaches the reader of the same
        # key of a --config file, so a bad value exits 1 with that message
        # (argparse used to refuse some as usage errors, exit status 2).
        out = tmp_path / "out"
        assert main([command, *COMMAND_ARGS[command], flag, value, "--out", str(out)]) == 1
        from_flag = capsys.readouterr().err
        assert from_flag.startswith(f"holosim {command}")
        settings = tmp_path / "scenario.json"
        settings.write_text(json.dumps({key: value}))
        assert main(["se-sim", "--config", str(settings), "--out", str(out)]) == 1
        from_file = capsys.readouterr().err
        message = from_flag.split(": ", 1)[1]
        assert message.startswith(f"invalid value for {flag[2:]}: ")
        field = key.replace("_", "-")
        assert message == from_file.split(": ", 1)[1].replace(field, flag[2:], 1)
        assert not out.exists()

    def test_preset_scale_reads_a_fraction(self, tmp_path):
        for scale in ("1/4", "0.25"):
            status = main(["preset", "fig8", "--scale", scale, "--trials", "2",
                           "--out", str(tmp_path / scale.replace("/", "_"))])
            assert status == 0
        assert (tmp_path / "1_4" / "fig8.csv").read_bytes() == (
            tmp_path / "0.25" / "fig8.csv"
        ).read_bytes()

    def test_the_command_line_calls_only_public_harness_names(self):
        # Every run goes through a public runner or reader, so no private
        # conversion can drift from what a --config file gets.
        tree = ast.parse(inspect.getsource(cli))
        private = [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                   and isinstance(node.value, ast.Name) and node.value.id == "harness"
                   and node.attr.startswith("_")]
        assert private == []

    def test_unknown_preset_name_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["preset", "fig9", "--out", str(tmp_path)])

    def test_help_exits_cleanly(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0

    def test_preset_command_runs_the_scaled_series(self, tmp_path):
        status = main(
            [
                "preset", "fig8", "--scale", "0.25", "--trials", "2",
                "--out", str(tmp_path),
            ]
        )
        assert status == 0
        assert (tmp_path / "fig8.csv").exists()
