import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from uplinksim import cli
from uplinksim.cli import main
from uplinksim.config import (
    ConfigError,
    default_config_dict,
    load_campaign_config,
    load_calibration_targets,
)
from uplinksim.experiment import analytic_mean_fidelity, default_config, error_budget


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
        ],
    )
    def test_unusable_values_exit_2_at_load(self, tmp_path, capsys, section, values, field):
        payload = default_config_dict()
        payload[section].update(values)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match=field):
            load_campaign_config(path)
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("configuration error:") and field in err
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

    def test_classical_baseline(self, capsys, tmp_path):
        code = main(["classical-baseline", "--samples", "200000", "--seed", "3",
                     "--out", str(tmp_path / "o")])
        assert code == 0
        text = capsys.readouterr().out
        value = float(text.split(":")[1].split("(")[0])
        assert abs(value - 2 / 3) < 0.01

    def test_fibre_compare(self, capsys, tmp_path):
        code = main(["fibre-compare", "--out", str(tmp_path / "o")])
        assert code == 0
        text = capsys.readouterr().out
        assert "240.0 dB" in text

    @pytest.mark.parametrize(
        "flag, value",
        [("--rate-hz", "-1"), ("--distance-km", "-5"), ("--distance-km", "inf"), ("--db-per-km", "nan")],
    )
    def test_fibre_compare_bad_flag_exits_2(self, capsys, tmp_path, flag, value):
        code = main(["fibre-compare", flag, value, "--out", str(tmp_path / "o")])
        assert code == 2
        assert flag in capsys.readouterr().err

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


def test_import_loads_no_scipy():
    # A fresh interpreter, so that modules imported by other tests do not count.
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import sys, uplinksim, uplinksim.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
