"""The four benchmark workloads: inputs, the timed op and its check.

Each workload is a class with

- ``setup(seed, work)``: build the inputs from the seed (timed as part of
  ``setup_s``, together with ``import uplinksim``);
- ``prepare()``: compute the references the checks compare against.  It
  runs after set-up and before the first timed op, and is not timed;
- ``op(seed)``: the timed operation, returning its output;
- ``check(out)``: raise ``CheckFailed`` if the output is wrong, otherwise
  return the op's work counts (``events``, ``tags``, ``matched``,
  ``satellite_tags``);
- ``final_check(seed)``, where defined: a once-per-run check after the
  timed loop.

Why each workload exists is recorded in ``METRICS.md``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

import uplinksim
from uplinksim import experiment, timesync

N_SIGMA = 5.0


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _campaign_references(config) -> dict:
    """Expected fourfold total and analytic fidelity of each state."""
    expected_total = sum(
        experiment.expected_signal_count(config, orbit)
        + experiment.expected_accidental_count(config, orbit)
        for orbit in config.orbits
    )
    return {
        "expected_total": expected_total,
        "analytic": experiment.analytic_fidelities(config),
    }


def _check_campaign(refs: dict, total: int, per_state: dict[str, tuple[int, int]]) -> None:
    """Total fourfolds in the 5-sigma Poisson band around the expected
    count; each state's fidelity within 5 sigma (binomial, at the analytic
    value) of its analytic expectation."""
    mean = refs["expected_total"]
    _require(
        abs(total - mean) <= N_SIGMA * math.sqrt(mean),
        f"total fourfolds {total} outside {mean:.1f} +- {N_SIGMA:g} sigma",
    )
    for label, f_analytic in refs["analytic"].items():
        n_correct, n_wrong = per_state[label]
        n = n_correct + n_wrong
        _require(n > 0, f"state {label}: no events")
        sigma = math.sqrt(f_analytic * (1.0 - f_analytic) / n)
        f_mc = n_correct / n
        _require(
            abs(f_mc - f_analytic) <= N_SIGMA * sigma,
            f"state {label}: fidelity {f_mc:.4f} vs analytic {f_analytic:.4f} "
            f"(sigma {sigma:.4f}, n {n})",
        )


class Workload:
    """Defaults for the optional steps."""

    name = ""
    final_check = None  # or a method (seed) -> None that raises CheckFailed

    def setup(self, seed: int, work: Path) -> None:
        pass

    def prepare(self) -> None:
        pass


class CampaignDefault(Workload):
    """`uplinksim simulate --config F --out D --seed s`, in process."""

    name = "campaign-default"
    files = ("campaign_result.json", "fig3_fidelities.csv", "fig2_loss.csv", "error_budget.csv")

    def setup(self, seed: int, work: Path) -> None:
        from uplinksim import cli

        self.cli = cli
        self.out = work / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["write-config", "--out", str(work / "config")])
        if code != 0:
            raise RuntimeError(f"write-config exited with {code}")
        self.config_path = work / "config" / "campaign_config.json"
        self.first_output: dict[str, bytes] | None = None

    def prepare(self) -> None:
        from uplinksim.config import load_campaign_config
        from uplinksim.linkgeom import loss_profile

        config = load_campaign_config(self.config_path)
        self.refs = _campaign_references(config)
        self.loss_rows = len(
            loss_profile(config.geometry(config.orbits[0]), config.link, config.orbit_duration_s)
        )
        budget = experiment.error_budget(config)
        self.budget_csv = "source,deficit\n" + "".join(
            f"{k},{budget[k]:.6f}\n" for k in (*experiment.BUDGET_SOURCES, "combined")
        )

    def op(self, seed: int) -> int:
        argv = ["simulate", "--config", str(self.config_path), "--out", str(self.out), "--seed", str(seed)]
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(argv)

    def _read_output(self) -> dict[str, bytes]:
        out = {}
        for name in self.files:
            path = self.out / name
            _require(path.is_file(), f"{name} not written")
            out[name] = path.read_bytes()
        return out

    def check(self, code: int) -> dict:
        _require(code == 0, f"simulate exited with {code}")
        raw = self._read_output()
        if self.first_output is None:
            self.first_output = raw
        result = json.loads(raw["campaign_result.json"])
        fig3 = list(csv.DictReader(io.StringIO(raw["fig3_fidelities.csv"].decode("ascii"))))
        loss = list(csv.DictReader(io.StringIO(raw["fig2_loss.csv"].decode("ascii"))))
        _require(
            [r["state"] for r in fig3] == list(experiment.STATE_LABELS),
            "fig3_fidelities.csv does not list the six states",
        )
        for row in fig3:
            summary = result["per_state"][row["state"]]
            _require(
                abs(float(row["fidelity"]) - summary["fidelity"]) <= 5e-7,
                f"fig3_fidelities.csv disagrees with campaign_result.json for {row['state']}",
            )
        _require(len(loss) == self.loss_rows, f"fig2_loss.csv has {len(loss)} rows")
        _require(
            raw["error_budget.csv"].decode("ascii") == self.budget_csv,
            "error_budget.csv differs from the analytic error budget",
        )
        per_state = {k: (v["n_correct"], v["n_wrong"]) for k, v in result["per_state"].items()}
        _check_campaign(self.refs, result["total_fourfolds"], per_state)
        events = sum(o["n_signal_truth"] + o["n_accidental_truth"] for o in result["orbits"])
        return {"events": events}

    def final_check(self, seed: int) -> None:
        """The first op's seed, run again, must give byte-identical files."""
        first = self.first_output
        _require(self.op(seed) == 0, "repeat of the first op failed")
        again = self._read_output()
        for name in self.files:
            _require(again[name] == first[name], f"{name} differs between two runs of seed {seed}")


class CampaignDense(Workload):
    """`run_campaign` at 10x the fourfold rate with polarization jitter."""

    name = "campaign-dense"
    rate_factor = 10.0
    jitter_sigma_rad = 0.05

    def setup(self, seed: int, work: Path) -> None:
        base = experiment.default_config()
        self.config = replace(
            base,
            source=replace(base.source, fourfold_ground_rate=base.source.fourfold_ground_rate * self.rate_factor),
            polarization=replace(base.polarization, jitter_sigma_rad=self.jitter_sigma_rad),
        )

    def prepare(self) -> None:
        self.refs = _campaign_references(self.config)

    def op(self, seed: int):
        return experiment.run_campaign(replace(self.config, seed=seed))

    def check(self, result) -> dict:
        per_state = {k: (s.n_correct, s.n_wrong) for k, s in result.per_state.items()}
        _check_campaign(self.refs, result.total_fourfolds, per_state)
        return {"events": sum(o.n_signal_truth + o.n_accidental_truth for o in result.orbits)}


class Calibrate(Workload):
    """`calibrate()` at the default targets, then the error budget of the
    calibrated configuration."""

    name = "calibrate"
    budget_targets = {"double_pair": 0.06, "distinguishability": 0.10, "polarization": 0.03, "background": 0.04}
    budget_tolerance = 0.02
    param_rtol = 1e-9

    def op(self, seed: int):
        result = experiment.calibrate()
        return result, experiment.error_budget(result.apply(experiment.default_config()))

    def check(self, out) -> dict:
        result, budget = out
        _require(result.converged, "calibration did not converge")
        for key, expected in experiment.CALIBRATED.items():
            got = result.params[key]
            _require(
                abs(got - expected) <= self.param_rtol * abs(expected),
                f"{key} = {got!r}, expected {expected!r}",
            )
        for key, target in self.budget_targets.items():
            _require(
                abs(budget[key] - target) <= self.budget_tolerance,
                f"budget {key} = {budget[key]:.4f}, target {target} +- {self.budget_tolerance}",
            )
        return {}


class Tags(Workload):
    """Stream generation, clock recovery and coincidence matching on a 30 s
    slice around culmination of the 76 degree reference pass."""

    name = "tags"
    duration_s = 30.0
    clock = timesync.ClockModel(offset_ps=1_234_567.0, drift_ppm=3.2)
    jitter_ps = 150.0
    window_ps = 3000.0
    clock_tolerance_ps = 10.0
    event_channel = 1
    background_channel = 2

    def setup(self, seed: int, work: Path) -> None:
        config = experiment.default_config()
        rng = np.random.default_rng([seed, 0x7A65])
        geometry = config.geometry(experiment.OrbitPlan("reference", 76.0))
        loss = np.array([r[3] for r in uplinksim.loss_profile(geometry, config.link, self.duration_s)])
        signal_rate = (
            config.source.fourfold_ground_rate
            * config.detection.receiver_efficiency
            * 10.0 ** (-loss / 10.0)
        )
        expected_pairs = float(np.sum((signal_rate[1:] + signal_rate[:-1]) / 2.0))
        n_pairs = rng.poisson(expected_pairs)
        self.pair_times_ps = np.sort(rng.uniform(0.0, self.duration_s * 1e12, size=n_pairs))
        sync = timesync.SyncConfig()
        self.sync_ground_ps = timesync.sync_pulse_times_ps(sync, self.duration_s)
        self.sync_satellite_ps = np.round(
            self.clock.satellite_time(self.sync_ground_ps)
            + rng.normal(0.0, self.jitter_ps, size=self.sync_ground_ps.size)
        ).astype(np.int64)
        self.ground_rate_hz = config.threefold_herald_rate
        self.satellite_background_hz = config.detection.background_rate_hz

    def op(self, seed: int):
        ground, satellite = timesync.generate_streams(
            self.pair_times_ps,
            self.clock,
            self.jitter_ps,
            self.ground_rate_hz,
            self.satellite_background_hz,
            self.duration_s,
            np.random.default_rng(seed),
            event_channel=self.event_channel,
            background_channel=self.background_channel,
        )
        fit = timesync.fit_clock(self.sync_ground_ps, self.sync_satellite_ps)
        match = timesync.match_coincidences(ground, satellite, fit.clock, self.window_ps)
        return ground, satellite, fit, match

    def check(self, out) -> dict:
        ground, satellite, fit, match = out
        for t in (0.0, self.duration_s * 1e12):
            error = abs(fit.clock.satellite_time(t) - self.clock.satellite_time(t))
            _require(
                error <= self.clock_tolerance_ps,
                f"fitted clock off by {error:.3g} ps at t = {t:.3g} ps",
            )
        _require(
            match.n_matched + match.n_ground_unmatched == len(ground)
            and match.n_matched + match.n_satellite_unmatched == len(satellite),
            "pairs plus unmatched tags do not add up to the stream sizes",
        )
        half = self.window_ps / 2.0
        g = ground.times_ps.astype(float)
        s = fit.clock.ground_time(satellite.times_ps)
        pairs = np.array(match.pairs, dtype=np.int64).reshape(-1, 2)
        _require(
            np.unique(pairs[:, 0]).size == len(pairs) and np.unique(pairs[:, 1]).size == len(pairs),
            "a tag is used by two pairs",
        )
        _require(
            bool(np.all(np.abs(s[pairs[:, 1]] - g[pairs[:, 0]]) <= half)),
            "a pair lies outside the coincidence window",
        )
        true_ground = np.flatnonzero(ground.channels == self.event_channel)
        true_satellite = np.flatnonzero(satellite.channels == self.event_channel)
        _require(
            true_ground.size == true_satellite.size == self.pair_times_ps.size,
            "true pair tags missing from the streams",
        )
        # A true pair whose two tags have no other tag of the opposite
        # stream inside their window must be matched to each other; a
        # pair that shares its window with a background tag may lose its
        # partner to the greedy rule.
        ground_in_window = np.searchsorted(g, s[true_satellite] + half, "right") - np.searchsorted(
            g, s[true_satellite] - half, "left"
        )
        satellite_in_window = np.searchsorted(s, g[true_ground] + half, "right") - np.searchsorted(
            s, g[true_ground] - half, "left"
        )
        matched = set(map(tuple, pairs.tolist()))
        for gi, si, ng, ns in zip(true_ground, true_satellite, ground_in_window, satellite_in_window):
            if ng == 1 and ns == 1:
                _require((int(gi), int(si)) in matched, f"true pair ({gi}, {si}) not matched")
        return {
            "tags": len(ground) + len(satellite),
            "matched": match.n_matched,
            "satellite_tags": len(satellite),
        }


WORKLOADS = {w.name: w for w in (CampaignDefault, CampaignDense, Calibrate, Tags)}
