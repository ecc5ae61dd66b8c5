import itertools
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uplinksim import bsm, experiment, photonsrc, qstate
from uplinksim.bsm import ACCEPTED_OUTCOMES, BsmModel, BsmOutcome, bsm_apply, teleport_expected
from uplinksim.experiment import (
    BUDGET_SOURCES,
    CALIBRATED,
    CALIBRATION_BOUNDS,
    CORRECT_IS_SIGNAL,
    DEFAULT_SEED,
    CalibrationError,
    CalibrationResult,
    CalibrationTargets,
    CampaignConfig,
    DetectionModel,
    FIELD_MODEL,
    MODELS,
    NOISE_FREE,
    OrbitPlan,
    PolarizationNoise,
    SimulationError,
    analytic_fidelities,
    analytic_mean_fidelity,
    build_event_model,
    calibrate,
    campaign_exposure,
    classical_baseline,
    default_config,
    default_orbit_plans,
    default_schedule,
    error_budget,
    estimate_fidelity,
    expected_accidental_count,
    expected_signal_count,
    fibre_comparison,
    run_campaign,
    run_orbit,
    with_fields,
    STATE_BLOCH,
    STATE_LABELS,
    OrbitRecord,
)
from uplinksim.cli import main
from uplinksim.config import SCHEMA, SECTIONS
from uplinksim.linkgeom import (
    LinkModel,
    PassGeometry,
    link_loss_db,
    loss_profile,
    polarization_distortion,
    slant_range,
)
from uplinksim.photonsrc import SourceModel, werner_pair
from uplinksim.qstate import mub_states, tensor
from test_linkgeom import elevation_profile, polarization_channel

from dataclasses import fields, is_dataclass, replace


def quiet_config(**overrides) -> CampaignConfig:
    """Calibrated geometry and rates with every error source at its
    noise-free value."""
    noise_free = {key: value for values in NOISE_FREE.values() for key, value in values.items()}
    return replace(with_fields(default_config(), noise_free), **overrides)


def isolate_source(config: CampaignConfig, name: str) -> CampaignConfig:
    """Oracle for the quieting of the error budget and calibration: `config`
    with every error source but `name` at its noise-free value, built as a
    config."""
    if name not in NOISE_FREE:
        raise ValueError(f"unknown error source {name!r}")
    quiet = {
        key: value
        for source, values in NOISE_FREE.items()
        if source != name
        for key, value in values.items()
    }
    return with_fields(config, quiet)


def accepted_branches(resource_fidelity: float, mode_overlap: float, state_label: str) -> list:
    """Accepted analyzer branches of |chi> teleported on a Werner pair, from
    the 3-qubit density matrix."""
    chi = mub_states()[state_label]
    branches = bsm_apply(tensor(chi, werner_pair(resource_fidelity)), BsmModel(mode_overlap))
    return [b for b in branches if b.outcome in ACCEPTED_OUTCOMES]


def undistorted_conditionals(config: CampaignConfig, state_label: str) -> dict:
    """Accepted analyzer outcome -> conditional state before the uplink."""
    return {
        b.outcome: b.conditional.matrix
        for b in accepted_branches(config.resource_fidelity, config.bsm.mode_overlap, state_label)
    }


def density_matrix_event_model(
    resource_fidelity: float,
    mode_overlap: float,
    delta: float,
    jitter_sigma: float,
    state_label: str,
) -> tuple[np.ndarray, np.ndarray, tuple[bool, ...]]:
    """Oracle for `experiment._event_model`: the analyzer branches of the
    3-qubit density matrix, each distorted by the density-matrix channel.
    Returns the accepted outcomes' renormalized probabilities, which the
    closed form fixes at 1/2 each, their signal-port probabilities and
    whether their correct port is the signal port."""
    accepted = accepted_branches(resource_fidelity, mode_overlap, state_label)
    total_accepted = sum(b.probability for b in accepted)
    if total_accepted <= 0:
        raise SimulationError("no accepted analyzer outcomes for this input")

    # A phi- event is relabeled by a pi phase shift, which leaves the poles
    # in the |chi> port and sends the superpositions to the orthogonal one.
    psi = mub_states()[state_label].amplitudes
    z_fid = abs(np.vdot(psi, np.diag([1, -1]) @ psi)) ** 2
    if not (z_fid < 1e-9 or z_fid > 1 - 1e-9):
        raise ValueError(f"post-processing relabeling undefined for input {state_label!r}")

    out_p, port_p, correct = [], [], []
    for b in accepted:
        distorted = polarization_channel(b.conditional.matrix, delta, jitter_sigma)
        out_p.append(b.probability / total_accepted)
        port_p.append(float(np.real(psi.conj() @ distorted @ psi)))
        correct.append(b.outcome is BsmOutcome.PHI_PLUS or z_fid > 0.5)
    return np.array(out_p), np.array(port_p), tuple(correct)


def assert_closed_form_matches_density_matrix(keys) -> None:
    """`experiment._event_model` against `density_matrix_event_model` at
    each (resource fidelity, mode overlap, delta, jitter sigma, label) key."""
    for key in keys:
        closed = experiment._event_model(*key)
        outcome_probabilities, oracle_port_p, oracle_correct = density_matrix_event_model(*key)
        # The constant 1/2 split that run_orbit and the analytic tier use.
        assert outcome_probabilities.shape == (len(ACCEPTED_OUTCOMES),)
        assert np.abs(outcome_probabilities - 0.5).max() <= 1e-12, key
        got, expected = np.array(closed), oracle_port_p
        assert got.shape == expected.shape == (len(ACCEPTED_OUTCOMES),)
        assert np.abs(got - expected).max() <= 1e-12, key
        assert CORRECT_IS_SIGNAL[key[-1]] == oracle_correct, key


def quadrature_port_probabilities(config: CampaignConfig, state_label: str) -> dict:
    """Oracle for the jitter-averaged channel: 21-node Gauss-Hermite
    quadrature of the rotation over the Gaussian angle."""
    nodes, weights = np.polynomial.hermite.hermgauss(21)
    noise = config.polarization
    angles = noise.delta_rad + np.sqrt(2.0) * noise.jitter_sigma_rad * nodes
    units = np.stack([polarization_distortion(a) for a in angles])
    psi = mub_states()[state_label].amplitudes
    out = {}
    for outcome, rho in undistorted_conditionals(config, state_label).items():
        distorted = np.einsum("k,kij,jl,kml->im", weights / np.sqrt(np.pi), units, rho, units.conj())
        out[outcome] = float(np.real(psi.conj() @ distorted @ psi))
    return out


def run_orbit_per_event_jitter(
    config: CampaignConfig, orbit_index: int, rng: np.random.Generator
) -> OrbitRecord:
    """Oracle for `run_orbit` under polarization jitter: every event that is
    not a double pair draws its own rotation angle and distorts the
    undistorted analyzer conditional with it."""
    orbit = config.orbits[orbit_index]
    state_label = config.input_schedule[orbit_index]
    exposure = campaign_exposure(config)[orbit_index]
    n_signal = int(
        rng.poisson(
            config.source.fourfold_ground_rate
            * config.detection.receiver_efficiency
            * exposure.transmittance
        ).sum()
    )
    n_accidental = int(rng.poisson(expected_accidental_count(config, orbit)))
    branches = undistorted_conditionals(config, state_label)
    chi = mub_states()[state_label].amplitudes
    counts = np.zeros((2, 2), dtype=np.int64)  # [outcome, signal/orthogonal port]
    for _ in range(n_signal):
        index = rng.choice(2, p=(0.5, 0.5))
        if rng.random() < config.source.double_pair_fraction:
            p_signal_port = 0.5
        else:
            noise = config.polarization
            angle = noise.delta_rad + rng.normal(0.0, noise.jitter_sigma_rad)
            u = polarization_distortion(angle)
            rho = u @ branches[ACCEPTED_OUTCOMES[index]] @ u.conj().T
            p_signal_port = float(np.real(chi.conj() @ rho @ chi))
        counts[index, 0 if rng.random() < p_signal_port else 1] += 1
    for _ in range(n_accidental):
        index = rng.choice(2, p=(0.5, 0.5))
        counts[index, 0 if rng.random() < 0.5 else 1] += 1
    return OrbitRecord(
        label=orbit.label,
        state_label=state_label,
        max_elevation_deg=orbit.max_elevation_deg,
        live_time_s=exposure.live_time_s,
        counts=counts,
        n_signal_truth=n_signal,
        n_accidental_truth=n_accidental,
    )


def run_orbit_per_event_oracle(
    config: CampaignConfig, orbit_index: int, rng: np.random.Generator
) -> OrbitRecord:
    """Oracle for `run_orbit`'s block draws: the per-event loop they
    replaced, one `Generator.choice` and one or two `random()` calls per
    event."""
    orbit = config.orbits[orbit_index]
    state_label = config.input_schedule[orbit_index]
    exposure = campaign_exposure(config)[orbit_index]
    # The expected counts of the analytic tier, the signal drawn per second.
    signal_rate = config.source.fourfold_ground_rate * config.detection.receiver_efficiency
    n_signal = int(rng.poisson(signal_rate * exposure.transmittance).sum())
    n_accidental = int(rng.poisson(expected_accidental_count(config, orbit)))

    model = build_event_model(config, state_label)
    d = config.source.double_pair_fraction

    counts = np.zeros((2, 2), dtype=np.int64)  # [outcome, signal/orthogonal port]

    for _ in range(n_signal):
        index = rng.choice(2, p=(0.5, 0.5))
        if rng.random() < d:
            p_signal_port = 0.5
        else:
            p_signal_port = model[index]
        counts[index, 0 if rng.random() < p_signal_port else 1] += 1

    for _ in range(n_accidental):
        index = rng.choice(2, p=(0.5, 0.5))
        counts[index, 0 if rng.random() < 0.5 else 1] += 1

    return OrbitRecord(
        label=orbit.label,
        state_label=state_label,
        max_elevation_deg=orbit.max_elevation_deg,
        live_time_s=exposure.live_time_s,
        counts=counts,
        n_signal_truth=n_signal,
        n_accidental_truth=n_accidental,
    )


def per_orbit_sampler(oracle, calls: list):
    """A stand-in for `experiment._run_orbits` that draws each pass with
    `oracle(config, i, rng)` on the generator `run_campaign` gives it, so
    that the oracle's records meet the campaign's seeding and aggregation;
    each call's orbit index is appended to `calls`."""

    def run_orbits(config, orbit_indices, rngs):
        records = []
        for i, rng in zip(orbit_indices, rngs):
            calls.append(i)
            records.append(oracle(config, i, rng))
        return records

    return run_orbits


class NoDraws:
    """A generator stand-in that fails on any draw."""

    def __getattr__(self, name):
        raise AssertionError(f"generator method {name!r} used")


def scaled_rate(factor: float) -> CampaignConfig:
    """The calibrated campaign at `factor` times the fourfold rate."""
    base = default_config()
    return replace(
        base, source=replace(base.source, fourfold_ground_rate=base.source.fourfold_ground_rate * factor)
    )


def dense_config(**overrides) -> CampaignConfig:
    """Ten times the calibrated fourfold rate, with 0.05 rad polarization
    jitter: about 9k events over the campaign."""
    base = default_config(**overrides)
    return replace(
        base,
        source=replace(base.source, fourfold_ground_rate=base.source.fourfold_ground_rate * 10),
        polarization=replace(base.polarization, jitter_sigma_rad=0.05),
    )


def with_double_pairs(d: float) -> CampaignConfig:
    base = default_config()
    return replace(base, source=replace(base.source, double_pair_fraction=d))


def per_orbit_loss_table(config: CampaignConfig, orbit: OrbitPlan) -> np.ndarray:
    """The (t_s, elevation_deg, range_km, loss_db) table of one pass, built
    on its own: the oracle of the batched loss pass."""
    geometry = config.geometry(orbit)
    n = int(np.floor(min(config.orbit_duration_s / 2.0, geometry.half_duration_s())))
    times = np.arange(-n, n + 1, dtype=float)
    elev = elevation_profile(geometry, times)
    rng_km = slant_range(elev, geometry)
    loss = link_loss_db(elev, times, geometry, config.link)
    return np.column_stack((times, elev, rng_km, loss))


def per_orbit_analytic_fidelities(config: CampaignConfig) -> dict[str, float]:
    """Oracle for the analytic kernel: the per-orbit loop it replaced, each
    pass's expected counts added to its state's tally and each state's
    correct-port probability read off its event model."""
    signal = dict.fromkeys(STATE_LABELS, 0.0)
    accidental = dict.fromkeys(STATE_LABELS, 0.0)
    for orbit, label in zip(config.orbits, config.input_schedule):
        signal[label] += expected_signal_count(config, orbit)
        accidental[label] += expected_accidental_count(config, orbit)
    d = config.source.double_pair_fraction
    fidelities = {}
    for label in STATE_LABELS:
        model = build_event_model(config, label)
        f = 0.0
        for p_signal_port, is_signal in zip(model, CORRECT_IS_SIGNAL[label]):
            f += 0.5 * (p_signal_port if is_signal else 1.0 - p_signal_port)
        f_quantum = (1.0 - d) * f + d * 0.5
        total = signal[label] + accidental[label]
        b = 0.0 if total <= 0 else accidental[label] / total
        fidelities[label] = (1.0 - b) * f_quantum + b * 0.5
    return fidelities


def noise_draws(n: int, seed: int) -> list[CampaignConfig]:
    """Seeded draws of the resource fidelity and of every error source's
    parameters on the calibrated campaign."""
    rng = np.random.default_rng(seed)
    base = default_config()
    return [
        default_config(
            resource_fidelity=float(rng.uniform(0.25, 1.0)),
            source=replace(base.source, double_pair_fraction=float(rng.uniform(0.0, 0.5))),
            bsm=BsmModel(mode_overlap=float(rng.uniform(0.0, 1.0))),
            polarization=PolarizationNoise(
                delta_rad=float(rng.uniform(-0.8, 0.8)),
                jitter_sigma_rad=float(rng.uniform(0.0, 0.8)),
            ),
            detection=replace(base.detection, background_rate_hz=float(rng.uniform(0.0, 5000.0))),
        )
        for _ in range(n)
    ]


def campaign_of(*max_elevations_deg: float, **overrides) -> CampaignConfig:
    orbits = tuple(OrbitPlan(f"pass-{i}", e) for i, e in enumerate(max_elevations_deg))
    return default_config(
        orbits=orbits, input_schedule=default_schedule(len(orbits)), **overrides
    )


EXPOSURE_GRID = {
    "default": default_config(),
    "duration 123.4 s": default_config(orbit_duration_s=123.4),
    "duration 1 s": default_config(orbit_duration_s=1.0),
    "altitude 300 km": default_config(orbit_altitude_km=300.0),
    "altitude 1200 km": default_config(orbit_altitude_km=1200.0),
    "min elevation 5 deg": default_config(min_elevation_deg=5.0),
    "repeated culminations": campaign_of(60.0, 60.0, 45.0, 45.0, 30.0, 30.0, 60.0),
    "unequal sample counts": campaign_of(
        89.0, 70.0, 40.0, 22.0, 16.0, 15.0, orbit_duration_s=900.0
    ),
    # the kernel's time axis must span the longest pass, here neither first nor last
    "longest pass in the middle": campaign_of(
        16.0, 40.0, 89.0, 22.0, 30.0, 60.0, orbit_duration_s=900.0
    ),
    "slew gain 0": default_config(link=replace(default_config().link, slew_degradation_k=0.0)),
    "slew gain 3": default_config(link=replace(default_config().link, slew_degradation_k=3.0)),
    "zenith transmittance 0.5": default_config(
        link=replace(default_config().link, zenith_transmittance=0.5)
    ),
}


def _random_pass_configs(n: int, seed: int) -> dict[str, CampaignConfig]:
    """Seeded draws of altitude, tracking limit, duration and slew gain on
    the default 32 culminations (76 down to 20 degrees)."""
    rng = np.random.default_rng(seed)
    link = default_config().link
    return {
        f"draw {i}": default_config(
            orbit_altitude_km=float(rng.uniform(200.0, 2000.0)),
            min_elevation_deg=float(rng.uniform(1.0, 19.5)),
            orbit_duration_s=float(rng.uniform(1.0, 1200.0)),
            link=replace(link, slew_degradation_k=float(rng.uniform(0.0, 5.0))),
        )
        for i in range(n)
    }


EXPOSURE_GRID.update(_random_pass_configs(20, seed=14))
NOISE_DRAWS = noise_draws(20, seed=16)


def pull_configs(n: int, seed: int) -> list[CampaignConfig]:
    """Seeded draws of every noise source and of the receiver efficiency at
    30 times the calibrated fourfold rate (6e3 to 1.1e5 fourfolds per
    campaign), each campaign on its own seed: mode overlap in [0.5, 1],
    double-pair fraction in [0, 0.5], delta in [0, 0.6] rad, jitter in
    [0, 0.5] rad, background in [0, 3000] Hz and receiver efficiency in
    [0.05, 1], drawn in that order."""
    rng = np.random.default_rng(seed)
    ranges = {
        "mode_overlap": (0.5, 1.0),
        "double_pair_fraction": (0.0, 0.5),
        "delta_rad": (0.0, 0.6),
        "jitter_sigma_rad": (0.0, 0.5),
        "background_rate_hz": (0.0, 3000.0),
        "receiver_efficiency": (0.05, 1.0),
    }
    base = scaled_rate(30.0)
    return [
        with_fields(
            base,
            {name: float(rng.uniform(lo, hi)) for name, (lo, hi) in ranges.items()},
            seed=int(rng.integers(2**63)),
        )
        for _ in range(n)
    ]


PULL_CONFIGS = pull_configs(200, seed=23)


class TestExposure:
    @pytest.mark.parametrize("name", EXPOSURE_GRID)
    def test_batched_pass_matches_per_orbit_oracle(self, name):
        config = EXPOSURE_GRID[name]
        exposures = campaign_exposure(config)
        assert len(exposures) == len(config.orbits)
        sizes = set()
        for orbit, exposure in zip(config.orbits, exposures):
            table = per_orbit_loss_table(config, orbit)
            np.testing.assert_array_equal(
                loss_profile(config.geometry(orbit), config.link, config.orbit_duration_s), table
            )
            transmittance = 10.0 ** (-table[:, 3] / 10.0)
            assert np.array_equal(exposure.transmittance, transmittance)
            assert exposure.live_time_s == float(len(transmittance))
            assert exposure.transmit_integral_s == float(np.sum(transmittance))
            sizes.add(len(transmittance))
        if name == "unequal sample counts":
            assert len(sizes) == len(config.orbits)

    def test_cache_holds_one_campaign(self):
        # A process that reads campaign after campaign keeps the exposure of
        # the last one only: a 1e4-pass exposure holds about 29 MB.
        n = 2000
        base = default_config(orbits=default_orbit_plans(n), input_schedule=default_schedule(n))
        configs = [replace(base, orbit_duration_s=d) for d in (350.0, 340.0, 330.0)]
        experiment._exposure.cache_clear()
        tracemalloc.start()
        try:
            campaign_exposure(configs[0])
            one = tracemalloc.get_traced_memory()[0]
            for config in configs[1:]:
                campaign_exposure(config)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 2 * one, (retained, one)

    def test_transmittance_is_read_only(self):
        config = default_config()
        exposure = campaign_exposure(config)[0]
        with pytest.raises(ValueError):
            exposure.transmittance[0] = 1.0
        table = experiment._pass_table(*config._pass_key)  # shared by every cache hit too
        for column in (table.min_central_angle, table.half_duration_s):
            with pytest.raises(ValueError):
                column[0] = 1.0

    def test_calibration_and_budget_build_one_pass_table_and_loss_pass(self, monkeypatch):
        built = []
        post_init = PassGeometry.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(PassGeometry, "__post_init__", counted)
        for cache in (experiment._pass_table, experiment._exposure):
            cache.cache_clear()
        result = calibrate()
        error_budget(result.apply(default_config()))
        assert experiment._pass_table.cache_info().misses == 1
        assert experiment._exposure.cache_info().misses == 1
        # the 76 degree reference of the channel fit is the one pass built alone
        assert [g.max_elevation_deg for g in built] == [76.0]

    def test_simulate_builds_one_pass_table_and_loss_pass(self, tmp_path):
        for cache in (experiment._pass_table, experiment._exposure):
            cache.cache_clear()
        assert main(["simulate", "--seed", "7", "--out", str(tmp_path)]) == 0
        assert experiment._pass_table.cache_info().misses == 1
        assert experiment._exposure.cache_info().misses == 1


def calibrated_oracle(seed: int = DEFAULT_SEED, **overrides) -> CampaignConfig:
    """Oracle for `default_config`: the bare campaign, `CALIBRATED` set by
    `with_fields`, then `overrides` by `replace`, three configs built."""
    bare = CampaignConfig(
        orbits=default_orbit_plans(), input_schedule=default_schedule(), seed=seed
    )
    return replace(with_fields(bare, CALIBRATED), **overrides)


DEFAULT_OVERRIDES = {
    "none": {},
    "duration": {"orbit_duration_s": 123.4},
    "passes": {"orbit_altitude_km": 800.0, "min_elevation_deg": 10.0},
    "link": {"link": LinkModel()},
    "source": {"source": SourceModel(double_pair_fraction=0.3)},
    "noise": {
        "resource_fidelity": 0.9,
        "bsm": BsmModel(mode_overlap=0.8),
        "polarization": PolarizationNoise(delta_rad=0.1, jitter_sigma_rad=0.05),
    },
    "detection": {"detection": DetectionModel(background_rate_hz=10.0)},
    "orbits": {
        "orbits": tuple(OrbitPlan(f"pass-{i}", 30.0 + 5.0 * i) for i in range(7)),
        "input_schedule": default_schedule(7),
    },
}


class TestConfig:
    def test_field_map_reads_distinct_model_fields(self):
        cfg = default_config()
        models = [f.name for f in fields(CampaignConfig) if is_dataclass(getattr(cfg, f.name))]
        assert MODELS == tuple(models)
        assert SECTIONS is MODELS
        names = [f.name for attr in models for f in fields(getattr(cfg, attr))]
        assert len(names) == len(set(names)), sorted(n for n in names if names.count(n) > 1)
        assert FIELD_MODEL == {f.name: attr for attr in models for f in fields(getattr(cfg, attr))}

    def test_field_tables_name_model_fields(self):
        cfg = default_config()
        model_fields = {f.name for attr in MODELS for f in fields(getattr(cfg, attr))}
        tables = {
            "NOISE_FREE": {name for values in NOISE_FREE.values() for name in values},
            "_SETTINGS": set(experiment._SETTINGS),
        }
        for table, names in tables.items():
            assert names <= model_fields, (table, names - model_fields)

    def test_fitted_parameters_are_config_keys(self):
        # One name per fitted parameter: the model field it sets, which is
        # also its key in that model's config-file section.
        tables = {
            "CALIBRATED": CALIBRATED,
            "CALIBRATION_BOUNDS": CALIBRATION_BOUNDS,
            "calibrate().params": calibrate().params,
        }
        for table, names in tables.items():
            for name in names:
                assert name in FIELD_MODEL and name in SCHEMA[FIELD_MODEL[name]], (table, name)

    def test_default_config_builds_one_config(self, monkeypatch):
        built = []
        post_init = CampaignConfig.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(CampaignConfig, "__post_init__", counted)
        default_config()
        assert len(built) == 1
        default_config(3, orbit_duration_s=100.0, link=LinkModel())
        assert len(built) == 2

    @pytest.mark.parametrize("seed", [0, 7, DEFAULT_SEED, 2**63])
    @pytest.mark.parametrize("name", DEFAULT_OVERRIDES)
    def test_default_config_matches_with_params_oracle(self, seed, name):
        overrides = DEFAULT_OVERRIDES[name]
        assert default_config(seed, **overrides) == calibrated_oracle(seed, **overrides)

    @pytest.mark.parametrize(
        "overrides, error",
        [
            ({"orbit_duration_s": 0.0}, ValueError),
            ({"resource_fidelity": 0.1}, ValueError),
            ({"orbit_altitude_km": 1e300}, ValueError),
            ({"bogus": 1.0}, TypeError),
        ],
    )
    def test_default_config_rejects_as_oracle(self, overrides, error):
        with pytest.raises(error) as expected:
            calibrated_oracle(**overrides)
        with pytest.raises(error) as got:
            default_config(**overrides)
        if error is ValueError:
            assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize(
        "altitude, culminations",
        [
            (0.0, (76.0, 60.0, 45.0, 30.0, 20.0, 15.0)),
            (1e-12, (76.0, 60.0, 45.0, 30.0, 20.0, 15.0)),
            (1e300, (76.0, 60.0, 45.0, 30.0, 20.0, 15.0)),
            (500.0, (76.0, 60.0, 45.0, 14.5, 20.0, 15.0)),
            (500.0, (76.0, 60.0, 45.0, 30.0, 90.5, 15.0)),
        ],
    )
    def test_campaign_rejects_what_its_first_bad_pass_rejects(self, altitude, culminations):
        expected = None
        for e in culminations:
            try:
                PassGeometry(altitude, e, 14.5)
            except ValueError as err:
                expected = str(err)
                break
        assert expected is not None
        with pytest.raises(ValueError) as info:
            campaign_of(*culminations, orbit_altitude_km=altitude)
        assert str(info.value) == expected

    def test_default_is_valid_and_covers_states(self):
        cfg = default_config()
        assert len(cfg.orbits) == 32
        assert set(cfg.input_schedule) == set(STATE_LABELS)

    def test_schedule_must_cover_all_states(self):
        cfg = default_config()
        with pytest.raises(ValueError):
            replace(cfg, input_schedule=tuple("H" for _ in cfg.orbits))

    def test_bad_resource_fidelity_rejected(self):
        with pytest.raises(ValueError):
            default_config(resource_fidelity=0.1)

    @pytest.mark.parametrize(
        "attr, name, value",
        [
            *(
                (attr, name, np.nan)
                for attr, name in (
                    ("detection", "background_rate_hz"),
                    ("detection", "coincidence_window_s"),
                    ("polarization", "jitter_sigma_rad"),
                    ("polarization", "delta_rad"),
                    ("link", "divergence_x_urad"),
                    ("link", "divergence_y_urad"),
                    ("link", "seeing_urad"),
                    ("link", "tracking_error_urad"),
                    ("link", "receiver_diameter_m"),
                    ("link", "system_efficiency_db"),
                    ("link", "slew_degradation_k"),
                    ("source", "fourfold_ground_rate"),
                    (None, "orbit_duration_s"),
                )
            ),
            ("detection", "background_rate_hz", np.inf),
            ("detection", "coincidence_window_s", np.inf),
            ("polarization", "delta_rad", np.inf),
            ("polarization", "delta_rad", -np.inf),
            ("source", "fourfold_ground_rate", np.inf),
        ],
    )
    def test_non_finite_value_rejected(self, attr, name, value):
        cfg = default_config()
        with pytest.raises(ValueError):
            replace(cfg if attr is None else getattr(cfg, attr), **{name: value})

    def test_infinite_limits_accepted(self):
        cfg = default_config()
        dephased = replace(cfg, polarization=replace(cfg.polarization, jitter_sigma_rad=np.inf))
        full_pass = replace(cfg, orbit_duration_s=np.inf)
        for config in (dephased, full_pass):
            assert np.all(np.isfinite(list(analytic_fidelities(config).values())))
        assert analytic_fidelities(dephased)["+"] < analytic_fidelities(cfg)["+"]
        assert campaign_exposure(full_pass)[0].live_time_s > campaign_exposure(cfg)[0].live_time_s

    def test_isolate_source_quiets_the_other_three(self):
        cfg = default_config(
            polarization=replace(default_config().polarization, jitter_sigma_rad=0.1)
        )
        only = isolate_source(cfg, "polarization")
        assert only.polarization == cfg.polarization
        assert only.source.double_pair_fraction == 0.0
        assert only.bsm.mode_overlap == 1.0
        assert only.detection.background_rate_hz == 0.0
        assert only.detection.receiver_efficiency == cfg.detection.receiver_efficiency
        assert isolate_source(cfg, "background").polarization.jitter_sigma_rad == 0.0
        with pytest.raises(ValueError):
            isolate_source(cfg, "bogus")


class TestEstimateFidelity:
    def test_perfect_counts(self):
        assert estimate_fidelity(10, 0) == (1.0, 0.0)

    def test_eight_two(self):
        f, sigma = estimate_fidelity(8, 2)
        assert f == pytest.approx(0.8, abs=1e-15)
        assert sigma == pytest.approx(np.sqrt(16 / 1000), abs=1e-15)
        assert sigma == pytest.approx(0.1265, abs=5e-5)

    def test_published_scale(self):
        f, sigma = estimate_fidelity(121, 31)
        assert f == pytest.approx(0.796, abs=5e-4)
        assert sigma == pytest.approx(0.0327, abs=5e-5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            estimate_fidelity(0, 0)

    @pytest.mark.parametrize("count", [np.nan, np.inf, 2.5, -1])
    def test_non_count_rejected(self, count):
        # NaN and inf used to give (nan, nan), and 2.5 a ratio of fractions.
        for args in ((count, 1), (1, count)):
            with pytest.raises(ValueError, match="non-negative integers"):
                estimate_fidelity(*args)
        assert estimate_fidelity(np.int64(8), 2.0) == estimate_fidelity(8, 2)


class TestRunOrbit:
    def test_noise_free_events_all_correct(self):
        # Boosted source rate to push past 1e5 events across the six states;
        # every single one must land in its correct port.
        cfg = quiet_config(
            source=SourceModel(double_pair_fraction=0.0, fourfold_ground_rate=8210.0 * 500)
        )
        rng = np.random.default_rng(5)
        total = 0
        for index in range(6):
            rec = run_orbit(cfg, index, rng)
            total += rec.total_fourfolds
            assert not rec.counts.flags.writeable
            for (n_signal_port, n_orthogonal), is_signal in zip(
                rec.counts, CORRECT_IS_SIGNAL[rec.state_label]
            ):
                assert (n_orthogonal if is_signal else n_signal_port) == 0  # the wrong port
        assert total > 10**5

    def test_counts_track_expected_exposure(self):
        cfg = default_config()
        rng = np.random.default_rng(7)
        rec = run_orbit(cfg, 0, rng)  # the 76-degree pass
        expected = expected_signal_count(cfg, cfg.orbits[0]) + expected_accidental_count(
            cfg, cfg.orbits[0]
        )
        assert abs(rec.total_fourfolds - expected) < 4 * np.sqrt(expected)

    def test_extra_loss_scales_counts_tenfold(self):
        cfg = default_config()
        dimmed = replace(
            cfg, link=replace(cfg.link, system_efficiency_db=cfg.link.system_efficiency_db + 10.0)
        )
        bright = sum(expected_signal_count(cfg, o) for o in cfg.orbits)
        dim = sum(expected_signal_count(dimmed, o) for o in dimmed.orbits)
        assert bright / dim == pytest.approx(10.0, rel=1e-9)
        rng = np.random.default_rng(11)
        n_dim = sum(run_orbit(dimmed, i, rng).n_signal_truth for i in range(32))
        assert abs(n_dim - dim) < 4 * np.sqrt(dim)

    def test_low_pass_accumulates_less_time(self):
        cfg = default_config()
        rng = np.random.default_rng(13)
        rec = run_orbit(cfg, 31, rng)  # the 20-degree pass
        assert rec.max_elevation_deg == pytest.approx(20.0)
        assert rec.live_time_s < cfg.orbit_duration_s * 0.7


class TestRunCampaign:
    def test_deterministic_given_seed(self):
        cfg = default_config()
        a = run_campaign(cfg)
        b = run_campaign(cfg)
        assert a.to_json() == b.to_json()

    def test_noise_free_campaign_is_perfect(self):
        res = run_campaign(quiet_config())
        assert res.mean_fidelity == 1.0
        for s in res.per_state.values():
            assert s.n_wrong == 0

    def test_calibrated_campaign_vicinity(self):
        res = run_campaign(default_config())
        assert 700 <= res.total_fourfolds <= 1150
        assert abs(res.mean_fidelity - 0.80) < 0.03
        for s in res.per_state.values():
            assert s.fidelity > 2 / 3

    def test_monte_carlo_matches_analytic_within_3_sigma(self):
        cfg = default_config()
        expected = analytic_fidelities(cfg)
        res = run_campaign(cfg)
        for label, summary in res.per_state.items():
            assert abs(summary.fidelity - expected[label]) < 3 * summary.sigma

    def test_monte_carlo_pulls_over_drawn_configs(self):
        # Each state's pull, (Monte Carlo - analytic) / the run's sigma, over
        # 200 drawn campaigns: 1200 pulls, which a sampler that draws what
        # the analytic tier predicts spreads as a unit normal.  The standard
        # error of their SD is about 0.02, of their mean about 0.03.
        pulls = []
        for config in PULL_CONFIGS:
            expected = analytic_fidelities(config)
            for label, summary in run_campaign(config).per_state.items():
                pulls.append((summary.fidelity - expected[label]) / summary.sigma)
        pulls = np.array(pulls)
        assert pulls.shape == (len(PULL_CONFIGS) * len(STATE_LABELS),)
        assert np.abs(pulls).max() < 4.5
        assert 0.9 <= pulls.std() <= 1.1
        assert abs(pulls.mean()) <= 0.15

    def test_jittered_polarization_sampling_matches_quadrature(self, monkeypatch):
        # Per-event angle draws (the oracle sampler, run through the
        # campaign's seeding and aggregation) against the jitter-averaged
        # rotation channel of the analytic tier.
        calls = []
        monkeypatch.setattr(
            experiment, "_run_orbits", per_orbit_sampler(run_orbit_per_event_jitter, calls)
        )
        cfg = default_config(
            source=SourceModel(
                double_pair_fraction=0.12, fourfold_ground_rate=8210.0 * 50
            ),
            polarization=replace(
                default_config().polarization, delta_rad=0.2, jitter_sigma_rad=0.15
            ),
        )
        res = run_campaign(cfg)
        assert calls == list(range(len(cfg.orbits)))
        expected = analytic_fidelities(cfg)
        for label, summary in res.per_state.items():
            assert summary.sigma < 0.01  # enough statistics to be stringent
            assert abs(summary.fidelity - expected[label]) < 3.5 * summary.sigma

    @pytest.mark.parametrize(
        "config, block",
        [
            (default_config(seed=7), None),
            (default_config(seed=20160839), None),
            (default_config(seed=1000), None),
            (default_config(seed=90000), None),
            (dense_config(), None),
            (with_double_pairs(0.0), None),
            (with_double_pairs(0.5), None),
            # Block boundaries inside both the signal and the accidental
            # draws (about 400 and 24 events per orbit).
            (dense_config(), 7),
        ],
        ids=["seed7", "seed20160839", "seed1000", "seed90000", "dense", "d0", "d0.5", "dense-block7"],
    )
    def test_block_draws_match_per_event_oracle(self, monkeypatch, config, block):
        if block is not None:
            monkeypatch.setattr(experiment, "_DRAW_BLOCK", block)
        blocked = run_campaign(config).to_json()
        calls = []
        monkeypatch.setattr(
            experiment, "_run_orbits", per_orbit_sampler(run_orbit_per_event_oracle, calls)
        )
        assert run_campaign(config).to_json() == blocked
        assert calls == list(range(len(config.orbits)))

    def test_undrawable_event_count_raises_before_any_draw(self, monkeypatch):
        built = []

        def default_rng(seed):
            built.append(seed)
            return NoDraws()

        monkeypatch.setattr(np.random, "default_rng", default_rng)
        cfg = default_config(
            source=SourceModel(double_pair_fraction=0.12, fourfold_ground_rate=1e30)
        )
        with pytest.raises(SimulationError, match="orbit-01 expects"):
            run_campaign(cfg)
        assert len(built) == len(cfg.orbits)  # every generator built, none drew
        with pytest.raises(SimulationError, match="orbit-04 expects"):
            run_orbit(cfg, 3, NoDraws())

    def test_draw_memory_is_bounded_by_the_block(self, monkeypatch):
        # About 9e4 and 9e5 events, in blocks of 4096 rows that cross pass
        # boundaries (a pass holds about 2800 events at x100).
        block = 4096
        monkeypatch.setattr(experiment, "_DRAW_BLOCK", block)
        peaks = []
        for factor in (100, 1000):
            config = scaled_rate(factor)
            run_campaign(config)  # fills the exposure and event-model caches
            tracemalloc.start()
            try:
                result = run_campaign(config)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert result.total_fourfolds > 900 * factor
        row_bytes = 8 * block  # one float64 column of a block
        assert peaks[0] < 16 * row_bytes + 64 * 1024  # the block's arrays and the 32 generators
        assert peaks[1] - peaks[0] < row_bytes  # ten times the events, no more memory


class TestAnalyticPipeline:
    def test_all_off_is_exactly_one(self):
        assert analytic_mean_fidelity(quiet_config()) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("name", EXPOSURE_GRID)
    def test_kernel_matches_per_orbit_oracle(self, name):
        config = EXPOSURE_GRID[name]
        got = analytic_fidelities(config)
        expected = per_orbit_analytic_fidelities(config)
        assert list(got) == list(STATE_LABELS)
        for label in STATE_LABELS:
            assert abs(got[label] - expected[label]) <= 1e-12, label

    def test_monotone_in_each_noise_parameter(self):
        cfg = default_config()
        for grids, make in [
            (np.linspace(0.0, 0.4, 5), lambda v: replace(cfg, source=replace(cfg.source, double_pair_fraction=v))),
            (np.linspace(1.0, 0.2, 5), lambda v: replace(cfg, bsm=BsmModel(mode_overlap=v))),
            (np.linspace(0.0, 0.5, 5), lambda v: replace(cfg, polarization=replace(cfg.polarization, delta_rad=v))),
            (np.linspace(0.0, 0.6, 5), lambda v: replace(cfg, polarization=replace(cfg.polarization, jitter_sigma_rad=v))),
            (np.linspace(0.0, 2000.0, 5), lambda v: replace(cfg, detection=replace(cfg.detection, background_rate_hz=v))),
        ]:
            means = [analytic_mean_fidelity(make(v)) for v in grids]
            assert all(a >= b - 1e-12 for a, b in zip(means, means[1:]))

    @pytest.mark.parametrize("sigma", [0.05, 0.15, 0.5, 1.0])
    def test_jitter_channel_matches_quadrature_oracle(self, sigma):
        cfg = default_config(
            polarization=replace(default_config().polarization, jitter_sigma_rad=sigma)
        )
        for label in STATE_LABELS:
            closed = build_event_model(cfg, label)
            oracle = quadrature_port_probabilities(cfg, label)
            assert list(oracle) == list(ACCEPTED_OUTCOMES)
            assert len(closed) == len(oracle)
            for p_closed, p in zip(closed, oracle.values()):
                assert abs(p_closed - p) <= 1e-12

    def test_closed_form_matches_density_matrix_oracle(self):
        grid = list(
            itertools.product(
                (1.0, 0.933, 0.6, 0.25),
                (1.0, 0.73, 0.3, 0.0),
                (0.0, 0.2137, 0.6, -1.1),
                (0.0, 0.05, 0.7),
                STATE_LABELS,
            )
        )
        assert len(grid) == 1152
        assert_closed_form_matches_density_matrix(grid)
        paulis = (qstate.PAULI_X, qstate.PAULI_Y, qstate.PAULI_Z)
        for label, chi in mub_states().items():
            rho = chi.density().matrix
            assert STATE_BLOCH[label] == tuple(np.real(np.trace(rho @ p)) for p in paulis)

    def test_closed_form_matches_density_matrix_oracle_at_pull_configs(self):
        keys = [
            (c.resource_fidelity, c.bsm.mode_overlap, c.polarization.delta_rad,
             c.polarization.jitter_sigma_rad, label)
            for c in PULL_CONFIGS
            for label in STATE_LABELS
        ]
        assert_closed_form_matches_density_matrix(keys)

    def test_hot_path_skips_density_matrices(self, monkeypatch):
        # Every reference any package module holds to the density-matrix
        # functions raises, so a calibration and its budget that still run
        # never build a 3-qubit state.
        def forbidden(*args, **kwargs):
            raise AssertionError("density-matrix build on the hot path")

        for fn in (bsm.bsm_apply, qstate.condition, qstate.tensor, photonsrc.werner_pair):
            for name, module in list(sys.modules.items()):
                if name.startswith("uplinksim") and getattr(module, fn.__name__, None) is fn:
                    monkeypatch.setattr(module, fn.__name__, forbidden)
        experiment._event_model.cache_clear()
        result = calibrate()
        error_budget(result.apply(default_config()))
        assert experiment._event_model.cache_info().misses > 0

    def test_event_models_built_once_per_physical_key(self):
        # The campaign and the error budget need 24 distinct models: six
        # states under each of the four (mode overlap, delta, sigma) settings
        # of the given config and of its isolated sources.
        cfg = default_config()
        experiment._event_model.cache_clear()
        run_campaign(cfg)
        error_budget(cfg)
        assert experiment._event_model.cache_info().misses == 24
        model = build_event_model(cfg, "+")
        assert model is build_event_model(cfg, "+")
        for shared in (model, CORRECT_IS_SIGNAL["+"]):
            with pytest.raises(TypeError):
                shared[0] = shared[1]

    def test_analyzer_ports_realizable_with_waveplates(self):
        # The two analyzer projectors used by the pipeline are exactly what
        # a QWP + HWP + polarizing splitter realizes: with plate angles that
        # prepare |chi> from |H>, the transmitted-port projector is
        # U |H><H| U^dag = |chi><chi| and the reflected port its complement.
        from uplinksim.photonsrc import prepare_input
        from test_qstate import jones_hwp, jones_qwp

        for label, chi in mub_states().items():
            prep = prepare_input(chi.amplitudes[0], chi.amplitudes[1])
            u = jones_hwp(prep.hwp_angle) @ jones_qwp(prep.qwp_angle)
            transmitted = u @ np.diag([1.0, 0.0]) @ u.conj().T
            reflected = u @ np.diag([0.0, 1.0]) @ u.conj().T
            direct = np.outer(chi.amplitudes, chi.amplitudes.conj())
            np.testing.assert_allclose(transmitted, direct, atol=1e-9)
            np.testing.assert_allclose(transmitted + reflected, np.eye(2), atol=1e-12)

    def test_feed_forward_required_for_superpositions(self):
        # The - outcome leaves a superposition phase-flipped, so its correct
        # port is the orthogonal one; the poles keep the signal port.
        cfg = quiet_config()
        fidelities = analytic_fidelities(cfg)
        for label in STATE_LABELS:
            assert fidelities[label] == pytest.approx(1.0, abs=1e-12)
            correct_is_signal = CORRECT_IS_SIGNAL[label]
            assert correct_is_signal[ACCEPTED_OUTCOMES.index(BsmOutcome.PHI_PLUS)]
            phi_minus = ACCEPTED_OUTCOMES.index(BsmOutcome.PHI_MINUS)
            assert correct_is_signal[phi_minus] == (label in ("H", "V"))

    @pytest.mark.parametrize("mode_overlap", [1.0, 0.73, 0.3, 0.0])
    @pytest.mark.parametrize("resource_fidelity", [1.0, 0.933, 0.6, 0.25])
    def test_analytic_tier_matches_teleport_expected(self, resource_fidelity, mode_overlap):
        # With no channel, double pairs or background, the campaign's
        # analytic tier is the teleporter alone.
        cfg = quiet_config(resource_fidelity=resource_fidelity, bsm=BsmModel(mode_overlap))
        fidelities = analytic_fidelities(cfg)
        for label, chi in mub_states().items():
            expected = teleport_expected(chi, resource_fidelity, BsmModel(mode_overlap))
            assert abs(fidelities[label] - expected.average_fidelity) <= 1e-12


class TestErrorBudget:
    def test_calibrated_budget_near_published_split(self):
        budget = error_budget(default_config())
        published = {
            "double_pair": 0.06,
            "distinguishability": 0.10,
            "polarization": 0.03,
            "background": 0.04,
        }
        for source, target in published.items():
            assert abs(budget[source] - target) <= 0.02

    def test_combined_is_subadditive_and_consistent(self):
        cfg = default_config()
        budget = error_budget(cfg)
        individual = sum(budget[s] for s in ("double_pair", "distinguishability", "polarization", "background"))
        assert budget["combined"] <= individual
        assert budget["combined"] == pytest.approx(1 - analytic_mean_fidelity(cfg), abs=1e-12)
        assert abs(budget["combined"] - 0.20) < 0.04

    @pytest.mark.parametrize("draw", range(len(NOISE_DRAWS)))
    def test_budget_matches_isolated_configs(self, draw):
        # The budget sets each source's fields on the kernel; the oracle
        # builds each isolated config and runs the per-orbit loop on it.
        config = NOISE_DRAWS[draw]
        budget = error_budget(config)
        for source in BUDGET_SOURCES:
            isolated = isolate_source(config, source)
            oracle = 1.0 - np.mean(list(per_orbit_analytic_fidelities(isolated).values()))
            assert abs(budget[source] - oracle) <= 1e-12, source
            assert abs(budget[source] - (1.0 - analytic_mean_fidelity(isolated))) <= 1e-12
        oracle = 1.0 - np.mean(list(per_orbit_analytic_fidelities(config).values()))
        assert abs(budget["combined"] - oracle) <= 1e-12

    def test_calibration_and_budget_build_no_config_in_a_solve(self, monkeypatch):
        built = []

        def counted(obj, **changes):
            built.append(type(obj).__name__)
            return replace(obj, **changes)

        monkeypatch.setattr(experiment, "replace", counted)
        result = calibrate()
        # the channel probe (a link), then the fitted channel: its link and the one config built
        assert len(built) <= 15, built
        assert built.count("CampaignConfig") == 1, built
        config = result.apply(default_config())
        built.clear()
        error_budget(config)
        assert built == []

    def test_noise_free_budget_vanishes(self):
        cfg = default_config(
            source=SourceModel(double_pair_fraction=0.0),
            bsm=BsmModel(mode_overlap=1.0),
            polarization=replace(default_config().polarization, delta_rad=0.0),
            detection=replace(default_config().detection, background_rate_hz=0.0),
        )
        budget = error_budget(cfg)
        for source in ("double_pair", "distinguishability", "polarization", "background", "combined"):
            assert abs(budget[source]) < 1e-12


def damped_loop_background_stage(config: CampaignConfig, targets: CalibrationTargets) -> tuple:
    """Oracle for calibrate()'s background stage: the damped fixed-point loop
    on (receiver efficiency, background rate) that the monotone root
    replaced, run on the fitted channel `config`.  Returns the efficiency,
    the rate and the background deficit residual."""
    sums, settings = experiment._state_sums(config), experiment._settings(config)
    unit_signal, unit_accidental = experiment._state_counts(
        config, sums, {"receiver_efficiency": 1.0, "background_rate_hz": 1.0}
    )
    signal_per_eta, accidental_per_hz = sum(unit_signal), sum(unit_accidental)
    quiet = {**settings, **experiment._QUIET["background"]}

    def bg_deficit(eta: float, rate: float) -> float:
        return experiment._mean_deficit(
            config, sums, {**quiet, "receiver_efficiency": eta, "background_rate_hz": rate}
        )

    accidental_total = 2.0 * targets.deficit_background * targets.total_fourfolds
    eta = 0.5
    rate = 100.0
    for _ in range(24):
        signal_total = max(targets.total_fourfolds - accidental_total, 1e-9)
        # no signal reaches the receiver once the channel underflows
        eta = signal_total / signal_per_eta if signal_per_eta > 0 else math.inf
        eta = float(np.clip(eta, *CALIBRATION_BOUNDS["receiver_efficiency"]))
        rate = accidental_total / accidental_per_hz
        rate = float(np.clip(rate, *CALIBRATION_BOUNDS["background_rate_hz"]))
        deficit = bg_deficit(eta, rate)
        gap = targets.deficit_background - deficit
        if abs(gap) < 1e-12:
            break
        accidental_total *= 1.0 + np.clip(gap / max(targets.deficit_background, 1e-9), -0.5, 0.5)
    return eta, rate, bg_deficit(eta, rate) - targets.deficit_background


def calibrate_anyway(
    targets: CalibrationTargets, base: CampaignConfig | None = None
) -> CalibrationResult:
    """calibrate(targets, base), or the best-so-far result it raises with."""
    try:
        return calibrate(targets, base)
    except CalibrationError as err:
        return err.result


class TestCalibrate:
    def test_reproduces_frozen_defaults(self):
        result = calibrate()
        assert result.converged
        for key, frozen in CALIBRATED.items():
            assert result.params[key] == pytest.approx(frozen, rel=1e-6), key

    @pytest.mark.parametrize("name", [f.name for f in fields(CalibrationTargets)])
    def test_every_target_changes_the_fit(self, name):
        base = calibrate_anyway(CalibrationTargets())
        nudged = CalibrationTargets(**{name: getattr(CalibrationTargets(), name) * 1.01})
        result = calibrate_anyway(nudged)
        assert (result.params, result.residuals) != (base.params, base.residuals)

    def test_round_trip_known_parameters(self):
        known = dict(
            double_pair_fraction=0.10,
            mode_overlap=0.80,
            delta_rad=0.15,
            background_rate_hz=220.0,
            receiver_efficiency=0.30,
        )
        cfg = default_config(
            source=SourceModel(double_pair_fraction=known["double_pair_fraction"]),
            bsm=BsmModel(mode_overlap=known["mode_overlap"]),
            polarization=replace(
                default_config().polarization, delta_rad=known["delta_rad"]
            ),
            detection=replace(
                default_config().detection,
                background_rate_hz=known["background_rate_hz"],
                receiver_efficiency=known["receiver_efficiency"],
            ),
        )
        budget = error_budget(cfg)
        total = sum(
            expected_signal_count(cfg, o) + expected_accidental_count(cfg, o)
            for o in cfg.orbits
        )
        targets = CalibrationTargets(
            loss_max_db=52.0,
            loss_min_db=41.0,
            total_fourfolds=total,
            deficit_double_pair=budget["double_pair"],
            deficit_distinguishability=budget["distinguishability"],
            deficit_polarization=budget["polarization"],
            deficit_background=budget["background"],
        )
        result = calibrate(targets)
        for key, value in known.items():
            assert result.params[key] == pytest.approx(value, rel=0.01), key

    def test_published_targets_keep_overlap_plausible(self):
        result = calibrate()
        assert 0.7 < result.params["mode_overlap"] < 1.0
        assert abs(result.residuals["deficit_distinguishability"]) <= 0.02

    def test_infeasible_polarization_target_flagged(self):
        with pytest.raises(CalibrationError) as err:
            calibrate(CalibrationTargets(deficit_polarization=0.5))
        assert abs(err.value.result.residuals["deficit_polarization"]) > 0.02

    def test_applied_parameters_round_trip_through_config(self):
        result = calibrate()
        params = result.params
        # Every fitted field differs from the calibrated value before apply.
        base = default_config(
            source=SourceModel(double_pair_fraction=0.0, fourfold_ground_rate=9000.0),
            bsm=BsmModel(mode_overlap=1.0),
            link=LinkModel(zenith_transmittance=0.5, system_efficiency_db=1.0, slew_degradation_k=2.0),
            detection=DetectionModel(receiver_efficiency=0.5, background_rate_hz=0.0),
            polarization=PolarizationNoise(delta_rad=0.0, jitter_sigma_rad=0.1),
        )
        cfg = result.apply(base)
        assert cfg.link.zenith_transmittance == params["zenith_transmittance"]
        assert cfg.link.system_efficiency_db == params["system_efficiency_db"]
        assert cfg.link.slew_degradation_k == params["slew_degradation_k"]
        assert cfg.source.double_pair_fraction == params["double_pair_fraction"]
        assert cfg.bsm.mode_overlap == params["mode_overlap"]
        assert cfg.polarization.delta_rad == params["delta_rad"]
        assert cfg.detection.background_rate_hz == params["background_rate_hz"]
        assert cfg.detection.receiver_efficiency == params["receiver_efficiency"]
        # Fields that are not fitted parameters are left alone.
        assert cfg.source.fourfold_ground_rate == 9000.0
        assert cfg.polarization.jitter_sigma_rad == 0.1
        assert CalibrationResult(dict(CALIBRATED), {}, True).apply(default_config()) == default_config()


    @pytest.mark.parametrize("resource_fidelity", [1.0, 0.9])
    @pytest.mark.parametrize("sigma", [0.0, 0.1])
    @pytest.mark.parametrize(
        "source, key, vary, to_u",
        [
            (
                "double_pair",
                "double_pair_fraction",
                lambda cfg, v: replace(cfg, source=replace(cfg.source, double_pair_fraction=v)),
                lambda v: v,
            ),
            (
                "distinguishability",
                "mode_overlap",
                lambda cfg, v: replace(cfg, bsm=BsmModel(mode_overlap=v)),
                lambda v: v,
            ),
            (
                "polarization",
                "delta_rad",
                lambda cfg, v: replace(cfg, polarization=replace(cfg.polarization, delta_rad=v)),
                lambda v: np.cos(2.0 * v),
            ),
        ],
        ids=["double_pair", "distinguishability", "polarization"],
    )
    def test_deficit_is_affine_in_transformed_parameter(
        self, resource_fidelity, sigma, source, key, vary, to_u
    ):
        # calibrate() inverts the line through the deficits at the two box
        # bounds; the density-matrix pipeline must lie on that line.
        cfg = default_config(resource_fidelity=resource_fidelity)
        cfg = replace(cfg, polarization=replace(cfg.polarization, jitter_sigma_rad=sigma))
        base = isolate_source(cfg, source)

        def deficit(v):
            return 1.0 - analytic_mean_fidelity(vary(base, v))

        lo, hi = CALIBRATION_BOUNDS[key]
        d_lo, d_hi = deficit(lo), deficit(hi)
        assert abs(d_hi - d_lo) > 0.01
        slope = (d_hi - d_lo) / (to_u(hi) - to_u(lo))
        for v in np.linspace(lo, hi, 11):
            assert abs(d_lo + slope * (to_u(v) - to_u(lo)) - deficit(v)) <= 1e-12

    def test_closed_form_inversions_hit_targets(self, monkeypatch):
        noise_evaluations = []
        kernel = experiment._state_fidelities

        def counted(config, sums, settings):
            # every inversion but the background one runs with no background
            if settings["background_rate_hz"] == 0.0:
                noise_evaluations.append(dict(settings))
            return kernel(config, sums, settings)

        monkeypatch.setattr(experiment, "_state_fidelities", counted)
        result = calibrate()
        assert result.converged
        for key, frozen in CALIBRATED.items():
            assert result.params[key] == pytest.approx(frozen, rel=1e-12, abs=0.0), key
        assert abs(result.residuals["deficit_double_pair"]) <= 1e-14
        assert abs(result.residuals["deficit_polarization"]) <= 1e-14
        assert result.params["mode_overlap"] == CALIBRATION_BOUNDS["mode_overlap"][0]
        assert result.residuals["deficit_distinguishability"] == pytest.approx(-0.01, abs=1e-12)
        # Two bound evaluations per noise source, plus one at each root, plus
        # the background stage's read of the fidelities at no background.
        assert len(noise_evaluations) == 3 + 2 + 3 + 1

    @pytest.mark.parametrize(
        "resource_fidelity, deficit, total",
        [
            *itertools.product([1.0], [0.005, 0.02, 0.04, 0.1, 0.2, 0.3], [50.0, 911.0]),
            # at no background a resource of fidelity 0.9 leaves a deficit of
            # 1/15; nearer to it the loop stops short within its 24 steps
            *itertools.product([0.9], [0.2, 0.3], [50.0, 911.0]),
            (1.0, 0.04, 5000.0),  # the receiver efficiency pinned at its upper bound
        ],
    )
    def test_background_stage_matches_the_damped_loop(self, resource_fidelity, deficit, total):
        targets = CalibrationTargets(deficit_background=deficit, total_fourfolds=total)
        base = default_config(resource_fidelity=resource_fidelity)
        result = calibrate_anyway(targets, base)
        eta, rate, deficit_residual = damped_loop_background_stage(result.apply(base), targets)
        assert result.params["receiver_efficiency"] == pytest.approx(eta, rel=1e-9, abs=0.0)
        assert result.params["background_rate_hz"] == pytest.approx(rate, rel=1e-9, abs=0.0)
        assert abs(deficit_residual) <= 1e-12
        assert abs(result.residuals["deficit_background"]) <= 1e-12
        if total == 5000.0:  # the pinned efficiency falls short of the total
            assert eta == CALIBRATION_BOUNDS["receiver_efficiency"][1]
            assert result.residuals["total_fourfolds"] < -25.0
        else:
            assert result.residuals["total_fourfolds"] == 0.0

    def test_background_stage_pins_efficiency_then_rate(self):
        # The deficit asks for more than the box's rate at the largest
        # efficiency the total allows: both end at their upper bounds.
        result = calibrate_anyway(
            CalibrationTargets(deficit_background=0.3, total_fourfolds=20000.0)
        )
        assert result.params["receiver_efficiency"] == CALIBRATION_BOUNDS["receiver_efficiency"][1]
        assert result.params["background_rate_hz"] == CALIBRATION_BOUNDS["background_rate_hz"][1]
        assert result.residuals["deficit_background"] < 0.0

    def test_background_stage_adds_no_background_below_its_reach(self):
        # A resource of fidelity 0.9 leaves a deficit of 1/15 at no
        # background: a smaller target is met nearest with no background.
        result = calibrate_anyway(
            CalibrationTargets(deficit_background=0.04), default_config(resource_fidelity=0.9)
        )
        assert result.params["background_rate_hz"] == 0.0
        assert result.residuals["deficit_background"] == pytest.approx(1 / 15 - 0.04, abs=1e-12)
        assert result.residuals["total_fourfolds"] == 0.0

    @pytest.mark.parametrize("value", [3000.0, 5000.0, 1e12, 1e300])
    @pytest.mark.parametrize("target", ["loss_max_db", "loss_min_db"])
    def test_unreachable_loss_target_is_a_calibration_error(self, target, value):
        # The channel that would meet such a target transmits nothing: no
        # signal reaches the count model and the zenith transmittance
        # saturates at the smallest positive float.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CalibrationError, match="loss_max_db") as err:
                calibrate(CalibrationTargets(**{target: value}))
        result = err.value.result
        assert result.residuals["loss_max_db"] > 1.0
        assert abs(result.residuals["total_fourfolds"]) > 25.0
        assert 0.0 < result.params["zenith_transmittance"] <= 1.0
        assert result.params["receiver_efficiency"] == CALIBRATION_BOUNDS["receiver_efficiency"][1]
        result.apply(default_config())  # a valid config

    def test_flat_deficits_fall_back_to_lower_bounds(self):
        # A resource at fidelity 1/4 is fully mixed: no noise parameter moves
        # the deficit, so no pair of bounds brackets a target.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CalibrationError) as err:
                calibrate(base=default_config(resource_fidelity=0.25))
        params = err.value.result.params
        assert params["double_pair_fraction"] == 0.0
        assert params["mode_overlap"] == 0.73
        assert params["delta_rad"] == 0.0


class TestClassicalBaseline:
    def test_converges_to_two_thirds(self):
        rng = np.random.default_rng(97)
        value = classical_baseline(10**6, rng)
        assert abs(value - 2 / 3) < 0.002

    def test_aligned_measurement_is_perfect(self):
        # Degenerate check of the strategy arithmetic: measuring along the
        # input axis and resending returns the input exactly.
        cosine = 1.0
        p_plus = 0.5 * (1 + cosine)
        assert p_plus == 1.0
        assert 0.5 * (1 + 1.0 * cosine) == 1.0

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            classical_baseline(0, np.random.default_rng(1))


class TestFibreComparison:
    def test_attenuation_arithmetic(self):
        out = fibre_comparison(8210.0, 1200.0, 0.2)
        assert out.total_loss_db == pytest.approx(240.0, abs=1e-12)
        assert out.transmittance == pytest.approx(1e-24, rel=1e-12)

    def test_waiting_time_band(self):
        out = fibre_comparison(8210.0, 1200.0, 0.2)
        assert 1e11 < out.expected_wait_years < 1e13
        assert out.expected_wait_years == pytest.approx(3.86e12, rel=0.01)

    def test_lossless_is_inverse_rate(self):
        out = fibre_comparison(100.0, 0.0, 0.2)
        assert out.expected_wait_s == pytest.approx(0.01, abs=1e-15)

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError):
            fibre_comparison(0.0, 1200.0, 0.2)

    @pytest.mark.parametrize("index", range(3))
    @pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
    def test_non_finite_or_negative_argument_rejected(self, index, value):
        # NaN used to give a 240 dB loss or a NaN loss.
        args = [8210.0, 1200.0, 0.2]
        args[index] = value
        with pytest.raises(ValueError, match="finite"):
            fibre_comparison(*args)

    def test_underflow_is_an_infinite_wait(self):
        out = fibre_comparison(8210.0, 20000.0, 0.2)
        assert out.transmittance == 0.0
        assert out.expected_wait_s == np.inf
        assert out.expected_wait_years == np.inf


@settings(max_examples=200, deadline=None)
@given(
    weights=st.lists(st.just(0.0) | st.floats(1e-6, 1.0), min_size=1, max_size=8).filter(any),
    seed=st.integers(0, 2**64 - 1),
)
def test_choice_is_one_uniform_searched_in_the_cdf(weights, seed):
    # `run_orbit` reproduces the per-event stream on this numpy behaviour:
    # Generator.choice(k, p=p) reads exactly one double u and returns
    # cdf.searchsorted(u, side="right"), with cdf = p.cumsum() / its last.
    p = np.array(weights) / np.sum(weights)
    rng, rng2 = np.random.default_rng(seed), np.random.default_rng(seed)
    drawn = [int(rng.choice(len(p), p=p)) for _ in range(40)]
    cdf = p.cumsum()
    cdf /= cdf[-1]
    assert drawn == cdf.searchsorted(rng2.random(40), side="right").tolist()
    assert rng.random() == rng2.random()  # both streams consumed alike
