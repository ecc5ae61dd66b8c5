import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uplinksim
from uplinksim import cli, config
from uplinksim.cli import main
from uplinksim.config import (
    MAX_PASSES,
    SCHEMA,
    ConfigError,
    default_config_dict,
    load_campaign_config,
    load_calibration_targets,
)
from uplinksim.experiment import (
    CalibrationTargets,
    analytic_fidelities,
    analytic_mean_fidelity,
    campaign_exposure,
    default_config,
    default_schedule,
    error_budget,
    expected_signal_count,
)
from uplinksim.linkgeom import PassGeometry, loss_profile

# Every file key of every model section, and every calibration target.
SCHEMA_KEYS = [(section, key) for section, keys in SCHEMA.items() for key in keys] + [
    ("targets", f.name) for f in fields(CalibrationTargets)
]

# Every key that `write-config` writes, and the keys among them whose value
# may not pass 1.
WRITTEN_KEYS = [
    (section, key)
    for section, keys in default_config_dict().items()
    if section != "schema_version"
    for key in keys
]
CAPPED_AT_ONE = {
    "resource_fidelity", "double_pair_fraction", "mode_overlap", "zenith_transmittance",
    "receiver_efficiency", "photon3_ground_efficiency",
}

# (subcommand, flag) pairs the subcommand does not read.
UNREAD_FLAGS = [
    ("loss-profile", "--seed"),
    ("loss-profile", "--verbose"),
    ("error-budget", "--seed"),
    ("error-budget", "--verbose"),
    ("calibrate", "--seed"),
    ("calibrate", "--verbose"),
    ("classical-baseline", "--out"),
    ("classical-baseline", "--verbose"),
    ("fibre-compare", "--out"),
    ("fibre-compare", "--seed"),
    ("fibre-compare", "--verbose"),
    ("write-config", "--verbose"),
]


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(default_config_dict(), indent=2))
    return path


def read_outputs(out_dir):
    return {
        p.name: p.read_bytes()
        for p in sorted(out_dir.iterdir())
        if p.suffix in (".json", ".csv")
    }


# sha256 of every `simulate` output at the built-in defaults.  A change to
# these bytes is a change to the seeded Monte Carlo stream or to a model, and
# must be deliberate.
PINNED_DIGESTS = {
    "error_budget.csv": "8b28a8117a9dd758ada526d141e29aa6f01a88e4630a517dfb681263c840fd3f",
    "fig2_loss.csv": "d07a1988a74cd7dfce61333e7b96c04426072c0bb8fcc9b0c19f0896bbb2cec0",
}
PINNED_SEED_DIGESTS = {
    7: {
        "campaign_result.json": "9cc1db9cb885332a5c5179745701c77bf5d3a046a429e0a5d18d83c18c8d7095",
        "fig3_fidelities.csv": "8d7ae6e3c3e3ec9c706d281749fb38d23ef322d06eb50cde1ac4fb7870464068",
    },
    20160839: {
        "campaign_result.json": "9ce791d193fe036c25e43d290449a60046aafada8cace5a83bd203e4d75d9926",
        "fig3_fidelities.csv": "1798500cc10d590221e71a3282d7e65b380407d51e357d4b61cd105643ca1d97",
    },
}
# calibration.json of `calibrate --targets` on each targets section: the
# published targets (converged) and an infeasible polarization deficit.
PINNED_CALIBRATION_DIGESTS = {
    "{}": (0, "2e5b52b9fe8f8dd16c82e709be46e5f676332a50201b93a42c67a92c4e96d661"),
    '{"deficit_polarization": 0.5}': (
        4,
        "eb54771427ba1dcd29612b87a7392cd4b06ce2a01105e5fd440ea8f16a1db560",
    ),
}


class TestConfigParsing:
    def test_defaults_round_trip(self, config_file):
        cfg = load_campaign_config(config_file)
        assert cfg == default_config()

    def test_missing_orbit_duration_named(self, tmp_path):
        payload = default_config_dict()
        del payload["campaign"]["orbit_duration_s"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match="campaign.orbit_duration_s"):
            load_campaign_config(path)

    def test_unknown_field_rejected(self, tmp_path):
        payload = default_config_dict()
        payload["campaign"]["divergence"] = 1.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match="divergence"):
            load_campaign_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        payload = default_config_dict()
        payload["telescope"] = {}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match="telescope"):
            load_campaign_config(path)

    def test_missing_schema_version(self, tmp_path):
        payload = default_config_dict()
        del payload["schema_version"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match="schema_version"):
            load_campaign_config(path)

    def test_wrong_schema_version(self, tmp_path):
        payload = default_config_dict()
        payload["schema_version"] = 99
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match="schema_version"):
            load_campaign_config(path)

    def test_explicit_elevations_and_schedule(self, tmp_path):
        payload = default_config_dict()
        payload["campaign"]["max_elevations_deg"] = [76.0, 60.0, 45.0, 40.0, 30.0, 20.0]
        payload["campaign"]["orbits"] = 6
        payload["campaign"]["schedule"] = ["H", "V", "+", "-", "R", "L"]
        path = tmp_path / "six.json"
        path.write_text(json.dumps(payload))
        cfg = load_campaign_config(path)
        assert len(cfg.orbits) == 6
        assert cfg.input_schedule == ("H", "V", "+", "-", "R", "L")

    def test_schedule_must_cover_states(self, tmp_path):
        payload = default_config_dict()
        payload["campaign"]["orbits"] = 6
        payload["campaign"]["schedule"] = ["H"] * 6
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError):
            load_campaign_config(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("rep_rate_hz", 80e6),
            ("trigger_rate_hz", 5.7e5),
            ("pair_rate_hz", 1.0e6),
            ("entangled_fidelity", 0.933),
            ("num_modules", 2),
        ],
    )
    def test_removed_source_field_rejected(self, tmp_path, field, value):
        payload = default_config_dict()
        payload["source"][field] = value
        path = tmp_path / "old.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match=field):
            load_campaign_config(path)

    @pytest.mark.parametrize(
        "section, values, field",
        [
            ("campaign", {"min_elevation_deg": -5.0, "orbit_duration_s": 2000.0}, "min_elevation"),
            (
                "campaign",
                {"max_elevations_deg": [90.5] + [60.0] * 5, "orbits": 6, "schedule": list("HV+-RL")},
                "max_elevation",
            ),
            ("campaign", {"seed": -1}, "seed"),
            ("link", {"slew_rate_ref": 0.0}, "slew_rate_ref"),
            ("polarization", {"delta_rad": float("nan")}, "polarization.delta_rad"),
            ("link", {"divergence_x_urad": 0.0, "seeing_urad": 0.0}, "seeing_urad"),
            ("campaign", {"orbit_altitude_km": 1e-300}, "orbit_altitude_km"),
            ("campaign", {"orbit_altitude_km": 1e300}, "orbit_altitude_km"),
            ("link", {"seeing_urad": 1e300}, "seeing_urad"),
            # the schedule is checked by CampaignConfig alone, item by item
            ("campaign", {"orbits": 6, "schedule": list("HV+-R")}, "schedule"),
            ("campaign", {"orbits": 6, "schedule": list("HV+-RX")}, "schedule: ['X']"),
            ("campaign", {"orbits": 6, "schedule": [*"HV+-R", 1]}, "schedule: [1]"),
            ("campaign", {"orbits": 6, "schedule": ["H", [1], "+", "-", "R", "L"]}, "schedule: [[1]]"),
        ],
    )
    def test_unusable_values_exit_2_at_load(self, tmp_path, capsys, section, values, field):
        payload = default_config_dict()
        payload[section].update(values)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match=re.escape(field)):
            load_campaign_config(path)
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("configuration error:") and field in err and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "values",
        [
            {"orbit_altitude_km": 0.0},
            {"orbit_altitude_km": -1.0},
            {"orbit_altitude_km": float("nan")},
            {"orbit_altitude_km": 1e-12},
            {"orbit_altitude_km": 1e300},
            {"max_elevations_deg": [76.0, 60.0, 45.0, 30.0, 20.0, 14.5, 25.0], "orbits": 7},
            {"max_elevations_deg": [76.0, 60.0, 45.0, 30.0, 20.0, 90.5, 25.0], "orbits": 7},
        ],
        ids=["altitude 0", "altitude -1", "altitude nan", "altitude 1e-12", "altitude 1e300",
             "culmination at the tracking limit", "culmination above 90"],
    )
    def test_passless_campaign_exits_2_with_one_line(self, tmp_path, capsys, values):
        payload = default_config_dict()
        payload["campaign"].update(values)
        path = tmp_path / "passless.json"
        path.write_text(json.dumps(payload))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("configuration error:") and err.count("\n") == 1
        assert "Traceback" not in err
        altitude = values.get("orbit_altitude_km", 500.0)
        if not math.isnan(altitude):  # NaN is refused as not finite before any pass is built
            for e in values.get("max_elevations_deg", [76.0]):
                try:
                    PassGeometry(altitude, e, 14.5)
                except ValueError as expected:
                    assert err == f"configuration error: {expected}\n"
                    break
            else:
                raise AssertionError("no pass rejected")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "fourfold_hz, detection",
        [(1e300, {"photon3_ground_efficiency": 1e-300}), (1e300, {"background_rate_hz": 1e300})],
        ids=["infinite herald rate", "overflowing accidental rate"],
    )
    def test_unbounded_accidental_rate_exits_2(self, tmp_path, capsys, fourfold_hz, detection):
        # An infinite herald rate used to end in a traceback, and an
        # overflowing accidental rate in a NaN error budget.
        payload = default_config_dict()
        payload["source"]["fourfold_ground_rate_hz"] = fourfold_hz
        payload["detection"].update(detection)
        path = tmp_path / "rates.json"
        path.write_text(json.dumps(payload))
        for command in ("simulate", "error-budget", "loss-profile"):
            code = main([command, "--config", str(path), "--out", str(tmp_path / command)])
            err = capsys.readouterr().err
            assert code == 2, command
            assert err.startswith("configuration error: the accidental rate") and err.count("\n") == 1
            assert not (tmp_path / command).exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("divergence_x_urad", 1e300),
            ("tracking_error_urad", 1e300),
            ("slew_degradation_k", 1e300),
            ("zenith_transmittance", 1e-300),
            ("receiver_diameter_m", 1e-300),
            ("receiver_diameter_m", 1e300),
        ],
    )
    def test_extreme_link_values_saturate_without_warning(self, tmp_path, field, value):
        # The suite turns RuntimeWarnings into errors.  An overflow or a zero
        # transmittance saturates at no signal; a receiver past the float
        # range captures the whole spot, as a 1 km one does.
        def run(subcommand, link_value, out):
            payload = default_config_dict()
            payload["link"][field] = link_value
            path = tmp_path / f"{out}.json"
            path.write_text(json.dumps(payload))
            assert main([subcommand, "--config", str(path), "--out", str(tmp_path / out)]) == 0
            return tmp_path / out

        out = run("simulate", value, "o")
        orbits = json.loads((out / "campaign_result.json").read_text())["orbits"]
        if value > 1.0 and field == "receiver_diameter_m":
            full_capture = run("loss-profile", 1e3, "capture") / "fig2_loss.csv"
            assert (out / "fig2_loss.csv").read_bytes() == full_capture.read_bytes()
            assert all(o["n_signal_truth"] > 0 for o in orbits)
        else:
            assert all(o["n_signal_truth"] == 0 for o in orbits)

    @pytest.mark.parametrize("section, key", SCHEMA_KEYS)
    def test_every_schema_key_is_written_and_checked(self, tmp_path, section, key):
        if section == "targets":
            payload = {"schema_version": 1, "targets": {}}
            load = load_calibration_targets
        else:
            assert main(["write-config", "--out", str(tmp_path)]) == 0
            payload = json.loads((tmp_path / "campaign_config.json").read_text())
            assert key in payload[section]
            load = load_campaign_config
        bad = [float("nan"), float("inf"), -float("inf"), 10**400, "1.0", True]
        path = tmp_path / "bad.json"
        for value in bad:
            payload[section][key] = value
            path.write_text(json.dumps(payload))
            with pytest.raises(ConfigError, match=re.escape(f"{section}.{key}")):
                load(path)

    @pytest.mark.parametrize("section, key", WRITTEN_KEYS)
    def test_every_written_key_changes_the_result(self, tmp_path, section, key):
        # The other half of "every input changes the result or is rejected":
        # a value nudged inside its range must move what a run reports.
        def fingerprint(payload):
            path = tmp_path / "config.json"
            path.write_text(json.dumps(payload))
            cfg = load_campaign_config(path)
            passes = [(e.transmit_integral_s, e.live_time_s) for e in campaign_exposure(cfg)]
            profile = loss_profile(cfg.geometry(cfg.orbits[0]), cfg.link, cfg.orbit_duration_s)
            # the fidelities do not move when the fourfold and herald rates
            # scale together, as the fourfold rate scales them; the counts do
            counts = [expected_signal_count(cfg, orbit) for orbit in cfg.orbits]
            return analytic_fidelities(cfg), error_budget(cfg), passes, counts, profile.tobytes(), cfg.seed

        payload = default_config_dict()
        base = fingerprint(payload)
        value = payload[section][key]
        if key == "schedule":
            value = list(reversed(default_schedule(payload["campaign"]["orbits"])))
        elif key in ("seed", "orbits"):
            value += 1
        elif value == 0:
            value = 0.01
        else:
            value *= 0.99 if key in CAPPED_AT_ONE else 1.01
        payload[section][key] = value
        assert fingerprint(payload) != base

    @pytest.mark.parametrize("noise", [{}, {"background": False}, {"double_pair": True}])
    def test_noise_section_exits_2(self, tmp_path, capsys, noise):
        # Each error source is switched off by its own parameter; a file
        # carrying the old per-source switches must not load.
        payload = default_config_dict()
        payload["noise"] = noise
        path = tmp_path / "old.json"
        path.write_text(json.dumps(payload))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("configuration error:") and "noise" in err and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_type_errors_rejected(self, tmp_path):
        payload = default_config_dict()
        payload["bsm"]["mode_overlap"] = "high"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match="mode_overlap"):
            load_campaign_config(path)


class TestSimulate:
    def test_writes_four_files(self, tmp_path, config_file):
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(config_file), "--out", str(out)])
        assert code == 0
        names = set(read_outputs(out))
        assert names == {
            "campaign_result.json",
            "fig3_fidelities.csv",
            "fig2_loss.csv",
            "error_budget.csv",
        }

    def test_missing_field_exits_2(self, tmp_path, capsys):
        payload = default_config_dict()
        del payload["campaign"]["orbit_duration_s"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "orbit_duration_s" in capsys.readouterr().err

    def test_same_seed_byte_identical(self, tmp_path, config_file):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(config_file), "--out", str(out1), "--seed", "7"]) == 0
        assert main(["simulate", "--config", str(config_file), "--out", str(out2), "--seed", "7"]) == 0
        assert read_outputs(out1) == read_outputs(out2)

    def test_different_seed_differs(self, tmp_path, config_file):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(config_file), "--out", str(out1), "--seed", "7"])
        main(["simulate", "--config", str(config_file), "--out", str(out2), "--seed", "8"])
        a = read_outputs(out1)["campaign_result.json"]
        b = read_outputs(out2)["campaign_result.json"]
        assert a != b

    def test_bad_seed_rejected(self, tmp_path, config_file, capsys):
        code = main([
            "simulate", "--config", str(config_file),
            "--out", str(tmp_path / "o"), "--seed", str(2**64),
        ])
        assert code == 2

    def test_eventless_campaign_exits_5(self, tmp_path, capsys):
        # A 1 s pass collects well under one event, so some input state
        # ends the campaign with no fourfolds at all.
        payload = default_config_dict()
        payload["campaign"].update(orbit_duration_s=1.0, orbits=6)
        path = tmp_path / "short.json"
        path.write_text(json.dumps(payload))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 5
        assert err.startswith("simulation error: campaign accumulated no fourfold events")
        assert "Traceback" not in err

    def test_huge_jitter_runs_fully_dephased(self, tmp_path, capsys):
        payload = default_config_dict()
        payload["polarization"]["jitter_sigma_rad"] = 1e300
        path = tmp_path / "dephased.json"
        path.write_text(json.dumps(payload))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 0
        assert "Traceback" not in capsys.readouterr().err

    def test_undrawable_rate_exits_5_without_output(self, tmp_path, capsys):
        payload = default_config_dict()
        payload["source"]["fourfold_ground_rate_hz"] = 1e30
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(payload))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 5
        assert err.startswith("simulation error: orbit-01 expects") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "values",
        [
            {"orbits": 10**12},
            {"orbits": MAX_PASSES + 1},
            {"max_elevations_deg": [60.0] * (MAX_PASSES + 1)},
            {"schedule": ["H"] * (MAX_PASSES + 1)},
        ],
        ids=["orbits 1e12", "orbits over the limit", "elevations", "schedule"],
    )
    def test_too_many_passes_exit_2_before_any_is_built(self, tmp_path, capsys, monkeypatch, values):
        def build(*args):
            raise AssertionError("passes built before the count was checked")

        for name in ("orbit_plans", "default_orbit_plans"):
            monkeypatch.setattr(config, name, build)
        payload = default_config_dict()
        payload["campaign"].update(values)
        path = tmp_path / "many.json"
        path.write_text(json.dumps(payload))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        key = next(iter(values))
        assert err == f"configuration error: campaign.{key} gives more than {MAX_PASSES} passes\n"
        assert not (tmp_path / "o").exists()

    def test_pass_limit_admits_its_own_count(self, tmp_path, monkeypatch):
        class Built(Exception):
            pass

        def build(n_orbits):
            raise Built(n_orbits)

        monkeypatch.setattr(config, "default_orbit_plans", build)
        payload = default_config_dict()
        payload["campaign"]["orbits"] = MAX_PASSES
        path = tmp_path / "limit.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(Built, match=str(MAX_PASSES)):
            load_campaign_config(path)


class TestLossProfile:
    def test_design_pass_rows(self, tmp_path):
        out = tmp_path / "out"
        code = main(["loss-profile", "--out", str(out)])
        assert code == 0
        lines = (out / "fig2_loss.csv").read_text().strip().splitlines()
        assert lines[0] == "t_s,elevation_deg,range_km,loss_db"
        assert len(lines) - 1 == 351

    def test_loss_extremes_in_published_band(self, tmp_path):
        out = tmp_path / "out"
        main(["loss-profile", "--out", str(out)])
        lines = (out / "fig2_loss.csv").read_text().strip().splitlines()[1:]
        losses = [float(l.split(",")[3]) for l in lines]
        assert min(losses) >= 39.0
        assert max(losses) <= 54.0

    def test_degenerate_pass_rejected(self, tmp_path, capsys):
        payload = default_config_dict()
        payload["campaign"]["max_elevations_deg"] = [14.5] + [60.0] * 5
        payload["campaign"]["schedule"] = ["H", "V", "+", "-", "R", "L"]
        path = tmp_path / "deg.json"
        path.write_text(json.dumps(payload))
        code = main(["loss-profile", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2


class TestCalibrateCommand:
    def test_round_trip_targets(self, tmp_path):
        cfg = default_config()
        budget = error_budget(cfg)
        targets = {
            "schema_version": 1,
            "targets": {
                "loss_max_db": 52.0,
                "loss_min_db": 41.0,
                "total_fourfolds": 911.0,
                "deficit_double_pair": budget["double_pair"],
                "deficit_distinguishability": budget["distinguishability"],
                "deficit_polarization": budget["polarization"],
                "deficit_background": budget["background"],
            },
        }
        path = tmp_path / "targets.json"
        path.write_text(json.dumps(targets))
        out = tmp_path / "out"
        code = main(["calibrate", "--targets", str(path), "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "calibration.json").read_text())
        assert payload["converged"]
        assert all(abs(r) < 1e-6 for r in payload["residuals"].values())

    def test_published_targets_within_tolerance(self, tmp_path):
        targets = {
            "schema_version": 1,
            "targets": {},
        }
        path = tmp_path / "targets.json"
        path.write_text(json.dumps(targets))
        out = tmp_path / "out"
        code = main(["calibrate", "--targets", str(path), "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "calibration.json").read_text())
        for key in (
            "deficit_double_pair",
            "deficit_distinguishability",
            "deficit_polarization",
            "deficit_background",
        ):
            assert abs(payload["residuals"][key]) <= 0.02

    def test_absent_targets_file(self, tmp_path, capsys):
        code = main([
            "calibrate", "--targets", str(tmp_path / "nope.json"),
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2

    def test_infeasible_targets_exit_4(self, tmp_path):
        targets = {"schema_version": 1, "targets": {"deficit_polarization": 0.5}}
        path = tmp_path / "targets.json"
        path.write_text(json.dumps(targets))
        code = main(["calibrate", "--targets", str(path), "--out", str(tmp_path / "o")])
        assert code == 4

    @pytest.mark.parametrize("value", [3000, 5000, 1e12, 1e300])
    @pytest.mark.parametrize("target", ["loss_max_db", "loss_min_db"])
    def test_unreachable_loss_target_exits_4(self, tmp_path, capsys, target, value):
        path = tmp_path / "targets.json"
        path.write_text(json.dumps({"schema_version": 1, "targets": {target: value}}))
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["calibrate", "--targets", str(path), "--out", str(out)])
        assert code == 4
        payload = json.loads((out / "calibration.json").read_text())
        assert not payload["converged"]
        assert set(payload["residuals"]) == {f.name for f in fields(CalibrationTargets)}
        assert payload["residuals"]["loss_max_db"] > 1.0
        assert capsys.readouterr().err.startswith("calibration failed: ")

    def test_unknown_target_field_rejected(self, tmp_path):
        targets = {"schema_version": 1, "targets": {"loss_mean_db": 45.0}}
        path = tmp_path / "targets.json"
        path.write_text(json.dumps(targets))
        with pytest.raises(ConfigError, match="loss_mean_db"):
            load_calibration_targets(path)


class TestOtherCommands:
    def test_error_budget_output(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["error-budget", "--out", str(out)])
        assert code == 0
        lines = (out / "error_budget.csv").read_text().strip().splitlines()
        assert lines[0] == "source,deficit"
        assert len(lines) == 6  # four sources + combined

    def test_classical_baseline(self, capsys):
        code = main(["classical-baseline", "--samples", "200000", "--seed", "3"])
        assert code == 0
        text = capsys.readouterr().out
        value = float(text.split(":")[1].split("(")[0])
        assert abs(value - 2 / 3) < 0.01

    @pytest.mark.parametrize("samples, code", [(0, 2), (1, 0), (cli.MAX_SAMPLES, 0),
                                               (cli.MAX_SAMPLES + 1, 2), (10**12, 2)])
    def test_classical_baseline_sample_limit(self, capsys, monkeypatch, samples, code):
        drawn = []

        def baseline(n_samples, rng):
            drawn.append(n_samples)
            return 2 / 3

        monkeypatch.setattr(cli, "classical_baseline", baseline)
        assert main(["classical-baseline", "--samples", str(samples)]) == code
        err = capsys.readouterr().err
        if code == 2:
            assert err == f"configuration error: --samples must lie in [1, {cli.MAX_SAMPLES}]\n"
            assert drawn == []
        else:
            assert err == "" and drawn == [samples]

    def test_fibre_compare(self, capsys):
        code = main(["fibre-compare"])
        assert code == 0
        text = capsys.readouterr().out
        assert "240.0 dB" in text

    def test_fibre_compare_underflow_is_an_infinite_wait(self, capsys):
        code = main(["fibre-compare", "--distance-km", "20000"])
        assert code == 0
        assert "expected waiting time: inf s = inf years" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag, value",
        [("--rate-hz", "-1"), ("--distance-km", "-5"), ("--distance-km", "inf"), ("--db-per-km", "nan")],
    )
    def test_fibre_compare_bad_flag_exits_2(self, capsys, flag, value):
        code = main(["fibre-compare", flag, value])
        assert code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", UNREAD_FLAGS)
    def test_unread_flag_exits_2(self, tmp_path, capsys, command, flag):
        argv = [command, flag]
        if flag != "--verbose":
            argv.append("1" if flag == "--seed" else str(tmp_path / "o"))
        if command == "calibrate":
            argv += ["--targets", str(tmp_path / "targets.json")]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_internal_value_error_is_not_a_config_error(self, monkeypatch, tmp_path):
        def broken(config):
            raise ValueError("internal fault")

        monkeypatch.setattr(cli, "run_campaign", broken)
        with pytest.raises(ValueError, match="internal fault"):
            main(["simulate", "--out", str(tmp_path / "o")])

    def test_write_config_round_trips(self, tmp_path):
        out = tmp_path / "out"
        code = main(["write-config", "--out", str(out), "--seed", "11"])
        assert code == 0
        cfg = load_campaign_config(out / "campaign_config.json")
        assert cfg.seed == 11

    def test_written_resource_fidelity_acts(self, tmp_path):
        assert main(["write-config", "--out", str(tmp_path)]) == 0
        path = tmp_path / "campaign_config.json"
        payload = json.loads(path.read_text())
        assert payload["campaign"]["resource_fidelity"] == 1.0
        assert load_campaign_config(path).resource_fidelity == 1.0
        payload["campaign"]["resource_fidelity"] = 0.9
        path.write_text(json.dumps(payload))
        cfg = load_campaign_config(path)
        assert cfg.resource_fidelity == 0.9
        assert analytic_mean_fidelity(cfg) < analytic_mean_fidelity(default_config()) - 0.01

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["teleport-me"])
        assert err.value.code == 2


# A representative argv of each command, every flag given.
COMMAND_ARGV = {
    "simulate": ["--config", "c.json", "--out", "o", "--seed", "7", "--verbose"],
    "loss-profile": ["--config", "c.json", "--out", "o"],
    "calibrate": ["--targets", "t.json", "--out", "o"],
    "error-budget": ["--config", "c.json", "--out", "o"],
    "classical-baseline": ["--samples", "10", "--seed", "3"],
    "fibre-compare": ["--rate-hz", "1e3", "--distance-km", "50", "--db-per-km", "0.3"],
    "write-config": ["--out", "o", "--seed", "11"],
}


def documented_flags(rows) -> dict[str, list[str]]:
    """command -> flags of a command table given as (commands, flags) text
    pairs, one a row."""
    return {
        name: re.findall(r"--[a-z-]+", flags)
        for names, flags in rows
        for name in re.findall(r"[a-z]+(?:-[a-z]+)*", names)
    }


class TestParsers:
    def test_every_command_has_an_argv(self):
        assert list(COMMAND_ARGV) == list(cli.COMMANDS)

    @pytest.mark.parametrize("command", COMMAND_ARGV)
    def test_command_parser_matches_its_subparser(self, command):
        argv = COMMAND_ARGV[command]
        alone = cli.command_parser(command).parse_args(argv)
        tree = cli.build_parser().parse_args([command, *argv])
        assert vars(alone) == vars(tree)
        assert alone.command == command and alone.func is cli.COMMANDS[command][0]

    @pytest.mark.parametrize("command", COMMAND_ARGV)
    def test_command_help_exits_0(self, command, capsys):
        with pytest.raises(SystemExit) as err:
            main([command, "-h"])
        assert err.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: uplinksim {command} [-h]")

    @pytest.mark.parametrize("command", COMMAND_ARGV)
    def test_unknown_flag_usage_names_the_command(self, command, capsys):
        argv = [command, "--bogus"] + (["--targets", "t.json"] if command == "calibrate" else [])
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].startswith(f"usage: uplinksim {command} [-h]")
        assert lines[-1] == f"uplinksim {command}: error: unrecognized arguments: --bogus"

    def test_root_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["-h"])
        assert err.value.code == 0
        out = capsys.readouterr().out
        for command, (_, help, _) in cli.COMMANDS.items():
            assert re.search(rf"^    {command} +{help}$", out, re.MULTILINE), command

    def test_no_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2
        assert "the following arguments are required: command" in capsys.readouterr().err

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["teleport-me"])
        assert err.value.code == 2
        assert "invalid choice: 'teleport-me'" in capsys.readouterr().err

    def test_a_run_builds_only_its_command_parser(self, tmp_path, monkeypatch):
        # Counted per call, so that neither the subparser tree nor a parser
        # kept from an earlier call goes unnoticed.
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for run in ("a", "b"):
            assert main(["simulate", "--out", str(tmp_path / run)]) == 0
        assert built == ["uplinksim simulate"] * 2
        built.clear()
        cli.build_parser()
        assert len(built) == 1 + len(cli.COMMANDS)

    def test_docs_list_the_flags_of_commands(self):
        expected = {
            name: [flag for flag, _ in flags] for name, (_, _, flags) in cli.COMMANDS.items()
        }
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("| subcommand | flags |\n| --- | --- |\n")[1].split("\n\n")[0]
        doc_rows = re.findall(r"^  (\S+) +(--.*)$", cli.__doc__, re.MULTILINE)
        readme_rows = re.findall(r"^\| (.+) \| (.+) \|$", table, re.MULTILINE)
        assert len(doc_rows) == len(expected)
        assert documented_flags(doc_rows) == expected
        assert documented_flags(readme_rows) == expected
        assert len(readme_rows) == len(table.splitlines())


def fresh_python(probe: str) -> str:
    """What `probe` prints in a fresh interpreter, so that modules imported
    by other tests do not count."""
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.strip()


def test_import_loads_no_scipy():
    probe = (
        "import sys, uplinksim, uplinksim.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    assert fresh_python(probe) == "[]"


def test_package_import_loads_no_module():
    probe = "import sys, uplinksim; print(sorted(m for m in sys.modules if m.startswith('uplinksim.')))"
    assert fresh_python(probe) == "[]"


def test_cli_loads_neither_the_exact_tier_nor_the_tag_chain():
    probe = "import json, sys, uplinksim.cli; print(json.dumps([m for m in sys.modules if m.startswith('uplinksim.')]))"
    loaded = set(json.loads(fresh_python(probe)))
    assert "uplinksim.cli" in loaded
    assert not loaded & {f"uplinksim.{m}" for m in ("qstate", "bsm", "timesync")}


# The names `uplinksim` exports, pinned: each is read from its defining module
# on first access.
EXPORTS = [
    "BsmModel", "BsmOutcome", "CalibrationTargets", "CampaignConfig",
    "CampaignResult", "ClockModel", "DensityMatrix", "LinkModel", "PassGeometry", "PureState",
    "SimulationError", "SourceModel", "SyncConfig", "TimeTagStream", "accidental_rate",
    "analytic_mean_fidelity", "apply_unitary", "bsm_apply", "bsm_effects", "calibrate",
    "classical_baseline", "condition", "default_config", "effective_divergence", "error_budget",
    "estimate_fidelity", "feed_forward", "fibre_comparison", "fidelity", "fit_clock",
    "generate_streams", "link_loss_db", "loss_profile", "match_coincidences", "mub_states",
    "polarization_distortion", "run_campaign", "run_orbit", "slant_range", "teleport_expected",
    "tensor", "werner_pair",
]


def test_every_export_resolves_to_its_definition():
    probe = (
        "import importlib, json, uplinksim\n"
        f"names = {EXPORTS!r}\n"
        "homes = {n: getattr(uplinksim, n).__module__ for n in names}\n"
        "same = [n for n in names if getattr(importlib.import_module(homes[n]), n) is getattr(uplinksim, n)]\n"
        "try:\n"
        "    uplinksim.no_such_name\n"
        "    unknown = None\n"
        "except AttributeError as err:\n"
        "    unknown = str(err)\n"
        "from uplinksim import experiment\n"
        "print(json.dumps([uplinksim.__all__, homes, same, unknown, experiment.__name__]))"
    )
    exported, homes, same, unknown, submodule = json.loads(fresh_python(probe))
    assert len(EXPORTS) == 42
    assert exported == EXPORTS
    assert all(home.startswith("uplinksim.") for home in homes.values()), homes
    assert same == EXPORTS
    assert unknown == "module 'uplinksim' has no attribute 'no_such_name'"
    assert submodule == "uplinksim.experiment"


def test_default_outputs_match_pinned_digests(tmp_path):
    for seed, digests in PINNED_SEED_DIGESTS.items():
        out = tmp_path / str(seed)
        assert main(["simulate", "--seed", str(seed), "--out", str(out)]) == 0
        got = {name: hashlib.sha256(data).hexdigest() for name, data in read_outputs(out).items()}
        assert got == {**PINNED_DIGESTS, **digests}, f"seed {seed}"


def test_calibration_output_matches_pinned_digests(tmp_path):
    for i, (targets, (code, digest)) in enumerate(PINNED_CALIBRATION_DIGESTS.items()):
        path = tmp_path / f"targets{i}.json"
        path.write_text(f'{{"schema_version": 1, "targets": {targets}}}', encoding="ascii")
        out = tmp_path / f"cal{i}"
        assert main(["calibrate", "--targets", str(path), "--out", str(out)]) == code, targets
        got = hashlib.sha256((out / "calibration.json").read_bytes()).hexdigest()
        assert got == digest, targets


def test_package_version_matches_pyproject():
    # A version bump touches both; a regex, as Python 3.10 has no tomllib.
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    version = re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE)
    assert version is not None
    assert uplinksim.__version__ == version.group(1)


# Each numeric key of a campaign file and of a targets file, as (section,
# key), with its typical value: the calibrated defaults and the published
# targets.
_DEFAULTS = default_config_dict()
TYPICAL = {
    **{(section, key): _DEFAULTS[section][key] for section, keys in SCHEMA.items() for key in keys},
    **{
        ("campaign", key): _DEFAULTS["campaign"][key]
        for key, (types, _) in config._CAMPAIGN_FIELDS.items()
        if int in types
    },
    **{("targets", f.name): f.default for f in fields(CalibrationTargets)},
}
EDGE_VALUES = [0, -1, 1e-300, 1e300, math.nan, math.inf, -math.inf]


def _edge(section: str, key: str, value):
    """`value` as a file gives it for this key: an integral key takes 1e300
    as the integer, so that its type is right and its size is what counts."""
    integral = section == "campaign" and config._CAMPAIGN_FIELDS[key][0] == (int,)
    return int(value) if integral and value == 1e300 else value


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    st.dictionaries(
        st.sampled_from(sorted(TYPICAL)),
        st.sampled_from(["typical", *EDGE_VALUES]),
        min_size=1,
        max_size=3,
    )
)
def test_commands_fail_closed_at_edge_values(drawn):
    # Every command that draws no events, on a campaign file and a targets
    # file with the drawn keys set, exits with a documented code and one
    # message, raises no RuntimeWarning and leaves no output on a rejection.
    payload = default_config_dict()
    targets = {}
    for (section, key), value in drawn.items():
        value = TYPICAL[section, key] if value == "typical" else _edge(section, key, value)
        (targets if section == "targets" else payload[section])[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "campaign.json").write_text(json.dumps(payload))
        (tmp / "targets.json").write_text(json.dumps({"schema_version": 1, "targets": targets}))
        for command, source in (
            ("error-budget", ("--config", "campaign.json")),
            ("loss-profile", ("--config", "campaign.json")),
            ("calibrate", ("--targets", "targets.json")),
        ):
            out, err = StringIO(), StringIO()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with redirect_stdout(out), redirect_stderr(err):
                    code = main([command, source[0], str(tmp / source[1]), "--out", str(tmp / command)])
            assert code in (0, 2, 4, 5), (command, code)
            assert "Traceback" not in err.getvalue()
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], command
            if code in (2, 5):
                assert err.getvalue().count("\n") == 1, err.getvalue()
                assert not (tmp / command).exists(), command
