"""Campaign orchestration: compose source, analyzer, channel, and detection
models into per-orbit Monte Carlo runs and their analytic expectations.

Two tiers run side by side.  The analytic tier computes each event model
exactly, in closed form on Bloch vectors, and yields expected fidelities;
the Monte Carlo tier draws event counts and reproduces counting statistics.
Acceptance checks tie the two together.  All reported fidelities are raw
ratios, with no background subtraction.
"""

from __future__ import annotations

import enum
import functools
import json
import math
import operator
from collections.abc import Mapping, Sequence
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np

from .linkgeom import (
    LinkModel,
    PassGeometry,
    _channel_bloch,
    link_loss_db,
    loss_profiles,
    pass_table,
)

SECONDS_PER_YEAR = 365.25 * 86400.0

# Bloch vector of each input state |chi>, R being (H + iV)/sqrt(2).
STATE_BLOCH = {
    "+": (1.0, 0.0, 0.0),
    "-": (-1.0, 0.0, 0.0),
    "R": (0.0, 1.0, 0.0),
    "L": (0.0, -1.0, 0.0),
    "H": (0.0, 0.0, 1.0),
    "V": (0.0, 0.0, -1.0),
}

STATE_LABELS = tuple(STATE_BLOCH)


class SimulationError(RuntimeError):
    """A valid configuration the model cannot simulate (for example a
    campaign that collects no events for some input state)."""


@dataclass(frozen=True)
class SourceModel:
    """Measured operating point of the multiplexed four-photon source.

    `fourfold_ground_rate` is the bench fourfold count rate per second;
    `double_pair_fraction` is the fraction of heralded events caused by a
    same-crystal double pair.  The resource-pair fidelity is a campaign
    parameter (`CampaignConfig.resource_fidelity`).
    """

    double_pair_fraction: float = 0.0
    fourfold_ground_rate: float = 8210.0

    def __post_init__(self):
        if not 0.0 <= self.fourfold_ground_rate < np.inf:  # NaN fails too
            raise ValueError("fourfold_ground_rate must be finite and non-negative")
        if not 0.0 <= self.double_pair_fraction < 1.0:
            raise ValueError("double_pair_fraction must lie in [0, 1)")


@dataclass(frozen=True)
class BsmModel:
    """Analyzer parameters: `mode_overlap` is the two-photon interference
    visibility between the to-be-teleported photon and its partner."""

    mode_overlap: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.mode_overlap <= 1.0:
            raise ValueError("mode_overlap must lie in [0, 1]")


class BsmOutcome(enum.Enum):
    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"
    FAIL = "fail"


ACCEPTED_OUTCOMES = (BsmOutcome.PHI_PLUS, BsmOutcome.PHI_MINUS)


@dataclass(frozen=True)
class DetectionModel:
    """Receiver chain and background environment on the satellite.

    `receiver_efficiency` lumps the satellite optics and detector quantum
    efficiency; `photon3_ground_efficiency` is the bench detection
    probability of the uplinked photon, relating the bench fourfold rate
    to the in-flight threefold herald rate.
    """

    receiver_efficiency: float = 0.35
    background_rate_hz: float = 150.0
    photon3_ground_efficiency: float = 0.5
    coincidence_window_s: float = 3e-9

    def __post_init__(self):
        if not 0.0 < self.receiver_efficiency <= 1.0:
            raise ValueError("receiver efficiency must lie in (0, 1]")
        if not 0.0 < self.photon3_ground_efficiency <= 1.0:
            raise ValueError("ground photon-3 efficiency must lie in (0, 1]")
        # NaN fails too; an infinite rate or window would give inf/inf
        finite = math.isfinite(self.background_rate_hz) and math.isfinite(self.coincidence_window_s)
        if not (finite and self.background_rate_hz >= 0 and self.coincidence_window_s > 0):
            raise ValueError("background rate and window must be finite and physical")


@dataclass(frozen=True)
class PolarizationNoise:
    """Uplink polarization rotation: fixed angle plus per-event jitter."""

    delta_rad: float = 0.0
    jitter_sigma_rad: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.delta_rad):
            raise ValueError("polarization angle delta must be finite")
        # inf is the dephased limit; NaN fails
        if not self.jitter_sigma_rad >= 0:
            raise ValueError("jitter sigma must be non-negative")


@dataclass(frozen=True)
class OrbitPlan:
    label: str
    max_elevation_deg: float


@dataclass(frozen=True)
class CampaignConfig:
    """Everything needed to rerun the campaign deterministically."""

    orbits: tuple[OrbitPlan, ...]
    input_schedule: tuple[str, ...]
    orbit_duration_s: float = 350.0
    orbit_altitude_km: float = 500.0
    min_elevation_deg: float = 14.5
    resource_fidelity: float = 1.0
    source: SourceModel = field(default_factory=SourceModel)
    bsm: BsmModel = field(default_factory=BsmModel)
    link: LinkModel = field(default_factory=LinkModel)
    detection: DetectionModel = field(default_factory=DetectionModel)
    polarization: PolarizationNoise = field(default_factory=PolarizationNoise)
    seed: int = 0

    def __post_init__(self):
        if not self.orbit_duration_s > 0:  # inf is the full pass; NaN fails
            raise ValueError("orbit duration must be positive")
        if len(self.orbits) != len(self.input_schedule):
            raise ValueError("schedule must assign one input state per orbit")
        unknown = [s for s in self.input_schedule if s not in STATE_LABELS]  # hashable or not
        if unknown:
            raise ValueError(f"unknown input states in schedule: {unknown}")
        if set(self.input_schedule) != set(STATE_LABELS):
            raise ValueError("schedule must cover all six input states")
        if not 0.25 <= self.resource_fidelity <= 1.0:
            raise ValueError("resource fidelity must lie in [1/4, 1]")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        d = self.detection
        accidental = self.threefold_herald_rate * d.background_rate_hz * d.coincidence_window_s
        if not math.isfinite(accidental):  # an overflow gives inf, an infinite herald rate NaN
            raise ValueError("the accidental rate, fourfold_ground_rate / photon3_ground_efficiency"
                             " * background_rate_hz * coincidence_window_s, must be finite")
        # The campaign's passes as plain values: altitude, tracking limit and
        # the culmination elevation of each orbit.  Built once per instance
        # and read by `campaign_exposure`; `replace` builds a new instance,
        # so a changed pass never meets a stale key.
        pass_key = (
            self.orbit_altitude_km,
            self.min_elevation_deg,
            tuple(orbit.max_elevation_deg for orbit in self.orbits),
        )
        _pass_table(*pass_key)  # rejects elevations and altitudes that give no pass
        object.__setattr__(self, "_pass_key", pass_key)

    @property
    def threefold_herald_rate(self) -> float:
        """In-flight ground herald (trigger + analyzer double click) rate."""
        return self.source.fourfold_ground_rate / self.detection.photon3_ground_efficiency

    def geometry(self, orbit: OrbitPlan) -> PassGeometry:
        return PassGeometry(self.orbit_altitude_km, orbit.max_elevation_deg, self.min_elevation_deg)


# The model dataclasses of a CampaignConfig by attribute, in field order: the
# fields built by a default factory.
_MODEL_TYPES = {
    f.name: f.default_factory for f in fields(CampaignConfig) if f.default_factory is not MISSING
}
MODELS = tuple(_MODEL_TYPES)

# Model field -> the MODELS attribute that holds it.  No two models share a
# field name, so a field name alone says where a value goes.
FIELD_MODEL = {f.name: attr for attr, model in _MODEL_TYPES.items() for f in fields(model)}


# Every config build and exposure asks for the campaign's passes, so a
# `replace` that leaves them alone costs one lookup: (orbit_altitude_km,
# min_elevation_deg, max_elevations_deg) -> the campaign's `PassTable`.  A
# command reads one campaign, so the cache keeps the last one only.
_pass_table = functools.lru_cache(maxsize=1)(pass_table)


# Calibrated operating point.  The channel terms reproduce the published
# 52 dB / 41 dB endpoints; the noise terms reproduce the published error
# budget within its tolerance (the mode overlap sits at the lower edge of
# its plausibility box, see calibrate()); receiver efficiency and
# background rate anchor the campaign total near 911 fourfolds.
CALIBRATED = {
    "zenith_transmittance": 0.8182509823867667,
    "system_efficiency_db": 5.384083249044866,
    "slew_degradation_k": 1.0,
    "double_pair_fraction": 0.12,
    "mode_overlap": 0.73,
    "delta_rad": 0.21375613247241568,
    "background_rate_hz": 140.67052383843003,
    "receiver_efficiency": 0.37621805150703735,
}


def with_fields(
    config: CampaignConfig, changes: Mapping[str, float], **overrides
) -> CampaignConfig:
    """`config` with the model fields in `changes` set by field name, and
    `overrides` replacing whole fields, in one `replace`."""
    by_model: dict[str, dict[str, float]] = {}
    for name, value in changes.items():
        by_model.setdefault(FIELD_MODEL[name], {})[name] = value
    models = {attr: replace(getattr(config, attr), **c) for attr, c in by_model.items()}
    return replace(config, **models, **overrides)


DEFAULT_SEED = 20160839


def orbit_plans(max_elevations_deg: Sequence[float]) -> tuple[OrbitPlan, ...]:
    """One pass per culmination elevation (degrees), labelled orbit-01,
    orbit-02, ... in order."""
    return tuple(OrbitPlan(f"orbit-{i:02d}", float(e)) for i, e in enumerate(max_elevations_deg, 1))


def default_orbit_plans(n_orbits: int = 32) -> tuple[OrbitPlan, ...]:
    """Campaign passes with culminations evenly covering 76 down to 20
    degrees (per-pass elevations were not published; the span was)."""
    return orbit_plans(np.linspace(76.0, 20.0, n_orbits))


def default_schedule(n_orbits: int = 32) -> tuple[str, ...]:
    """Round-robin input states; the superposition states lead so they
    collect the spare passes of a non-multiple-of-six campaign."""
    return tuple(STATE_LABELS[i % 6] for i in range(n_orbits))


# The fields of `default_config` that no argument sets, built once at import:
# the 32 passes, their schedule and the default models with `CALIBRATED` set.
# All are immutable, so every default config shares them.
_DEFAULT_FIELDS = {
    "orbits": default_orbit_plans(),
    "input_schedule": default_schedule(),
    **{
        attr: model(**{k: v for k, v in CALIBRATED.items() if FIELD_MODEL[k] == attr})
        for attr, model in _MODEL_TYPES.items()
    },
}


def default_config(seed: int = DEFAULT_SEED, **overrides) -> CampaignConfig:
    """The calibrated 32-orbit campaign configuration: the default models
    with `CALIBRATED` set, and `overrides` replacing whole fields, built as
    one config from the parts made once at import."""
    return CampaignConfig(**{**_DEFAULT_FIELDS, "seed": seed, **overrides})


# ---------------------------------------------------------------------------
# Exposure: where the photons go, before any quantum state enters.


class OrbitExposure(NamedTuple):
    live_time_s: float
    transmit_integral_s: float  # integral of channel transmittance over the pass
    transmittance: np.ndarray  # per-second channel transmittance (read-only)


# Keyed by the link and the pass parameters as plain values, so that a
# lookup hashes no geometry.  One entry, the last campaign's: a command reads
# one campaign, and the exposure of 1e4 passes holds about 29 MB.
@functools.lru_cache(maxsize=1)
def _exposure(
    link: LinkModel,
    orbit_altitude_km: float,
    min_elevation_deg: float,
    max_elevations_deg: tuple[float, ...],
    duration_s: float,
) -> tuple[OrbitExposure, ...]:
    table = _pass_table(orbit_altitude_km, min_elevation_deg, max_elevations_deg)
    sizes, index, _, _, transmittance = loss_profiles(table, link, duration_s)
    transmittance = transmittance[index]
    transmittance.flags.writeable = False  # shared by every cache hit
    ends = np.cumsum(sizes).tolist()
    slices = [transmittance[start:end] for start, end in zip([0, *ends], ends)]
    return tuple(OrbitExposure(float(len(t)), float(t.sum()), t) for t in slices)


def campaign_exposure(config: CampaignConfig) -> tuple[OrbitExposure, ...]:
    """Exposure of every pass of the campaign, in orbit order."""
    return _exposure(config.link, *config._pass_key, config.orbit_duration_s)


# The model fields the analytic tier reads besides the exposure, the source
# rate and the resource fidelity: the settings that calibration fits and the
# error budget quiets.
_SETTINGS = (
    "receiver_efficiency", "background_rate_hz", "double_pair_fraction",
    "mode_overlap", "delta_rad", "jitter_sigma_rad",
)


def _settings(config: CampaignConfig) -> dict[str, float]:
    """The `_SETTINGS` fields of `config`, by name."""
    return {name: getattr(getattr(config, FIELD_MODEL[name]), name) for name in _SETTINGS}


def accidental_rate(trigger_rate_hz: float, background_rate_hz: float, window_s: float) -> float:
    """Rate of uncorrelated clicks falling inside a trigger's window.

    Raises ValueError when an input is negative or not finite, or when
    their product overflows the float range.
    """
    for value in (trigger_rate_hz, background_rate_hz, window_s):
        if not (value >= 0 and math.isfinite(value)):  # NaN fails `>= 0`
            raise ValueError("rates and window must be finite and non-negative")
    rate = trigger_rate_hz * background_rate_hz * window_s
    if not math.isfinite(rate):
        raise ValueError("the accidental rate, trigger rate * background rate * window, overflows")
    return rate


def _rates(config: CampaignConfig, settings: Mapping[str, float]) -> tuple[float, float]:
    """The count model: the signal fourfold rate at unit channel
    transmittance and the accidental rate of `config`, at the receiver
    efficiency and background rate in `settings`."""
    signal = config.source.fourfold_ground_rate * settings["receiver_efficiency"]
    accidental = accidental_rate(
        config.threefold_herald_rate,
        settings["background_rate_hz"],
        config.detection.coincidence_window_s,
    )
    return signal, accidental


def expected_signal_count(config: CampaignConfig, orbit: OrbitPlan) -> float:
    exposure = campaign_exposure(config)[config.orbits.index(orbit)]
    return _rates(config, _settings(config))[0] * exposure.transmit_integral_s


def expected_accidental_count(config: CampaignConfig, orbit: OrbitPlan) -> float:
    exposure = campaign_exposure(config)[config.orbits.index(orbit)]
    return _rates(config, _settings(config))[1] * exposure.live_time_s


def _state_sums(config: CampaignConfig) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Transmit integral and live time summed over each input state's
    passes, in `STATE_LABELS` order, from one read of the campaign's
    exposure: all the analytic tier needs of the passes."""
    transmit = dict.fromkeys(STATE_LABELS, 0.0)
    live = dict.fromkeys(STATE_LABELS, 0.0)
    for exposure, label in zip(campaign_exposure(config), config.input_schedule):
        transmit[label] += exposure.transmit_integral_s
        live[label] += exposure.live_time_s
    return tuple(transmit.values()), tuple(live.values())


def _state_counts(
    config: CampaignConfig, sums: tuple, settings: Mapping[str, float]
) -> tuple[list[float], list[float]]:
    """Expected signal and accidental fourfolds of each input state, from
    the per-state sums of `_state_sums` and the `_rates` of `config` at
    `settings`."""
    signal_rate, accidental = _rates(config, settings)
    transmit, live = sums
    return [signal_rate * x for x in transmit], [accidental * x for x in live]


# ---------------------------------------------------------------------------
# Quantum pipeline shared by the analytic tier and the Monte Carlo tier.


# Input state -> whether each accepted outcome's correct port, in
# `ACCEPTED_OUTCOMES` order, is the signal (|chi>) port.  Feed-forward alone
# decides it: a phi- event is relabeled by a pi phase shift, which leaves the
# poles in the |chi> port and sends the superpositions to the orthogonal one.
CORRECT_IS_SIGNAL = {label: (True, abs(r[2]) > 0.5) for label, r in STATE_BLOCH.items()}


def build_event_model(config: CampaignConfig, state_label: str) -> tuple[float, float]:
    """The signal (|chi>) port probability of each accepted analyzer
    outcome, in `ACCEPTED_OUTCOMES` order, for one input state under the
    configured noise.  Each outcome has probability exactly 1/2.

    The six states' models are built together, once per noise setting (the
    resource fidelity, the mode overlap, the polarization angle delta and
    jitter sigma), and shared; this returns the one of `state_label`.
    """
    models = _event_model(
        config.resource_fidelity,
        config.bsm.mode_overlap,
        config.polarization.delta_rad,
        config.polarization.jitter_sigma_rad,
    )
    return models[STATE_LABELS.index(state_label)]


@functools.lru_cache(maxsize=1024)
def _event_model(
    resource_fidelity: float, mode_overlap: float, delta: float, jitter_sigma: float
) -> tuple[tuple[float, float], ...]:
    """The `build_event_model` of each input state, in `STATE_LABELS`
    order, from one evaluation of the channel."""
    # Closed form on Bloch vectors.  The analyzer effects are
    # ((1 +- m)/2)|phi+><phi+| + ((1 -+ m)/2)|phi-><phi-|, so on a Werner
    # resource with p = (4F - 1)/3 each accepted outcome has probability 1/2
    # and outcome +- leaves p (+-m r_x, +-m r_y, r_z), r the Bloch vector of
    # |chi>; after the channel, the |chi> port fires with (1 + r.v')/2.
    # tests/test_experiment.py keeps the density-matrix build as the oracle.
    p = (4.0 * resource_fidelity - 1.0) / 3.0
    # [state, outcome], ACCEPTED_OUTCOMES order: phi+, phi-
    rows = [(r, sign) for r in STATE_BLOCH.values() for sign in (1.0, -1.0)]
    analyzed = [
        (sign * p * mode_overlap * r[0], sign * p * mode_overlap * r[1], p * r[2])
        for r, sign in rows
    ]
    received = _channel_bloch(analyzed, delta, jitter_sigma)
    port_p = [
        0.5 * (1.0 + (r[0] * v[0] + r[1] * v[1] + r[2] * v[2])) for (r, _), v in zip(rows, received)
    ]
    return tuple(zip(port_p[::2], port_p[1::2]))


def _state_fidelities(
    config: CampaignConfig, sums: tuple, settings: Mapping[str, float]
) -> tuple[float, ...]:
    """The analytic tier's kernel: the expected campaign fidelity of each
    input state, in `STATE_LABELS` order, of `config` with its
    `_SETTINGS` read from `settings`.

    A signal event lands in its correct port with the event model's
    probability, or at even odds when it is a double pair (fully mixed);
    each state's accidental fraction b dilutes that towards 1/2.  Scalars
    only: no config is built, so calibration and the error budget can vary
    `settings` freely.
    """
    d = settings["double_pair_fraction"]
    counts = _state_counts(config, sums, settings)
    models = _event_model(
        config.resource_fidelity,
        settings["mode_overlap"],
        settings["delta_rad"],
        settings["jitter_sigma_rad"],
    )
    fidelities = []
    for label, port_p, signal, accidental in zip(STATE_LABELS, models, *counts):
        f = 0.0
        for p_signal_port, is_signal in zip(port_p, CORRECT_IS_SIGNAL[label]):
            f += 0.5 * (p_signal_port if is_signal else 1.0 - p_signal_port)
        f_quantum = (1.0 - d) * f + d * 0.5
        total = signal + accidental
        b = 0.0 if total <= 0 else accidental / total
        fidelities.append((1.0 - b) * f_quantum + b * 0.5)
    return tuple(fidelities)


def _mean_deficit(config: CampaignConfig, sums: tuple, settings: Mapping[str, float]) -> float:
    """1 - the mean over the input states of `_state_fidelities`."""
    fidelities = _state_fidelities(config, sums, settings)
    return 1.0 - sum(fidelities) / len(fidelities)


def analytic_fidelities(config: CampaignConfig) -> dict[str, float]:
    """Expected campaign fidelity per input state: the quantum branch
    diluted by that state's accidental fraction across its assigned orbits."""
    return dict(
        zip(STATE_LABELS, _state_fidelities(config, _state_sums(config), _settings(config)))
    )


def analytic_mean_fidelity(config: CampaignConfig) -> float:
    values = analytic_fidelities(config)
    return float(np.mean(list(values.values())))


# ---------------------------------------------------------------------------
# Monte Carlo tier.

# Largest mean numpy's Generator.poisson accepts (its own bound on a C long).
POISSON_MEAN_MAX = float(np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10)

# Events drawn and classified at once, across pass boundaries; bounds memory, not the stream.
_DRAW_BLOCK = 1 << 12


class OrbitRecord(NamedTuple):
    """Raw fourfold counts of one pass.  `counts` is a read-only (2, 2) int
    tally indexed [analyzer outcome in `ACCEPTED_OUTCOMES` order, port], the
    port being 0 for the signal (|chi>) port and 1 for the orthogonal one."""

    label: str
    state_label: str
    max_elevation_deg: float
    live_time_s: float
    counts: np.ndarray
    n_signal_truth: int
    n_accidental_truth: int


def _uniform_blocks(rngs: Sequence[np.random.Generator], n_events: Sequence[int], width: int):
    """The `width` uniforms of each of `n_events[j]` events, drawn from
    `rngs[j]` for each j in turn, as (u, j of each row) blocks of at most
    `_DRAW_BLOCK` rows that cross pass boundaries; each block's arrays are
    reused by the next."""
    total = sum(n_events)
    if total == 0:
        return
    u = np.empty((min(_DRAW_BLOCK, total), width))
    owner = np.empty(len(u), dtype=np.intp)
    fill = 0
    for j, n in enumerate(n_events):
        while n:
            k = min(n, len(u) - fill)
            rngs[j].random(out=u[fill : fill + k])
            owner[fill : fill + k] = j
            fill, n = fill + k, n - k
            if fill == len(u):
                yield u, owner
                fill = 0
    if fill:
        yield u[:fill], owner[:fill]


def _run_orbits(
    config: CampaignConfig, orbit_indices: Sequence[int], rngs: Sequence[np.random.Generator]
) -> list[OrbitRecord]:
    """Simulate passes, `orbit_indices[j]` on `rngs[j]`: Poisson event
    arrivals thinned by the loss profile, analyzer outcomes, uplink
    distortion, and accidental coincidences, recorded as raw (outcome, port)
    fourfold counts.

    Each generator draws its pass's signal count of every second, its
    accidental count, then per event the uniforms (outcome, double pair,
    port) of a signal event or (outcome, port) of an accidental.  The
    outcomes split 1/2 : 1/2, and Generator.choice(2, p=(0.5, 0.5)) reads one
    double u and returns u >= 0.5.  An event lands in the signal port with
    the event model's probability: under polarization jitter the
    jitter-averaged channel, exact in distribution because every event draws
    its angle afresh.  The events of all passes are classified together.
    """
    exposures = campaign_exposure(config)
    signal_rate, accidental_rate = _rates(config, _settings(config))
    for i in orbit_indices:  # the expected counts of the analytic tier, before any draw
        e = exposures[i]
        expected = max(signal_rate * e.transmit_integral_s, accidental_rate * e.live_time_s)
        if expected > POISSON_MEAN_MAX:
            raise SimulationError(
                f"{config.orbits[i].label} expects {expected:.3g} events, more than a Poisson "
                f"draw accepts ({POISSON_MEAN_MAX:.3g}); lower the rates"
            )
    n_signal, n_accidental = [], []  # the signal drawn per second
    for i, rng in zip(orbit_indices, rngs):
        n_signal.append(int(rng.poisson(signal_rate * exposures[i].transmittance).sum()))
        n_accidental.append(int(rng.poisson(accidental_rate * exposures[i].live_time_s)))

    # [state, outcome] -> probability of the signal (|chi>) port
    p_port = np.array([build_event_model(config, s) for s in STATE_LABELS])
    state = np.array([STATE_LABELS.index(config.input_schedule[i]) for i in orbit_indices])
    d = config.source.double_pair_fraction
    tally = np.zeros(4 * len(orbit_indices), dtype=np.int64)  # [pass, outcome, port]
    for n_events, width in ((n_signal, 3), (n_accidental, 2)):
        for u, j in _uniform_blocks(rngs, n_events, width):
            outcome = (u[:, 0] >= 0.5).astype(np.intp)
            p_signal = np.where(u[:, 1] < d, 0.5, p_port[state[j], outcome]) if width == 3 else 0.5
            tally += np.bincount(4 * j + 2 * outcome + (u[:, -1] >= p_signal), minlength=tally.size)
    counts = tally.reshape(-1, 2, 2)
    counts.flags.writeable = False

    return [
        OrbitRecord(
            config.orbits[i].label, config.input_schedule[i], config.orbits[i].max_elevation_deg,
            exposures[i].live_time_s, counts[j], n_signal[j], n_accidental[j],
        )
        for j, i in enumerate(orbit_indices)
    ]


def run_orbit(config: CampaignConfig, orbit_index: int, rng: np.random.Generator) -> OrbitRecord:
    """Simulate one pass on `rng`, as `run_campaign` simulates each."""
    return _run_orbits(config, (orbit_index,), (rng,))[0]


def estimate_fidelity(n_correct: int, n_wrong: int) -> tuple[float, float]:
    """Raw fidelity ratio with the independent-Poisson propagated sigma:
    F = c/(c+w), sigma = sqrt(c*w/(c+w)^3)."""
    if not all(n >= 0 and n % 1 == 0 for n in (n_correct, n_wrong)):  # NaN and inf fail
        raise ValueError("counts must be non-negative integers")
    # Python ints: exact products, so neither total**3 of a huge float count
    # nor an int64 product can overflow
    n_correct, n_wrong = int(n_correct), int(n_wrong)
    total = n_correct + n_wrong
    if total < 1:
        raise ValueError("need at least one event")
    f = n_correct / total
    sigma = float(np.sqrt(n_correct * n_wrong / total**3))
    return float(f), sigma


class StateSummary(NamedTuple):
    state_label: str
    n_correct: int
    n_wrong: int
    fidelity: float
    sigma: float


# The templates of `CampaignResult.to_json`, laid out as json's indent
# encoder lays them out (a pure-Python path: CPython's C encoder runs only
# without an indent), keys in sorted order.  Strings take json's ASCII
# escape, floats float.__repr__ and ints int.__repr__, as json does.
_json_str = json.encoder.encode_basestring_ascii


def _json_number(x: float) -> str:
    """A number as json prints it: an int (an `OrbitPlan` built with an int
    culmination keeps it) without a decimal point."""
    return float.__repr__(x) if isinstance(x, float) else int.__repr__(x)


# Each count key, "<analyzer outcome>/<port>", sorted, and its position in
# an `OrbitRecord`'s counts.ravel().
_COUNT_KEYS, _COUNT_POSITIONS = zip(*sorted(
    (f"{outcome.value}/{port}", 2 * i + j)
    for i, outcome in enumerate(ACCEPTED_OUTCOMES)
    for j, port in enumerate(("signal", "orthogonal"))
))
_count_row = operator.itemgetter(*_COUNT_POSITIONS)

_RESULT_JSON = """{
  "mean_fidelity": %s,
  "mean_sigma": %s,
  "orbits": [
%s
  ],
  "per_state": {
%s
  },
  "total_fourfolds": %s
}"""

_ORBIT_JSON = (
    '    {\n      "counts": {\n'
    + ",\n".join(f"        {_json_str(key)}: %s" for key in _COUNT_KEYS)
    + """
      },
      "label": %s,
      "live_time_s": %s,
      "max_elevation_deg": %s,
      "n_accidental_truth": %s,
      "n_signal_truth": %s,
      "state": %s
    }"""
)

_STATE_JSON = """    %s: {
      "fidelity": %s,
      "n_correct": %s,
      "n_wrong": %s,
      "sigma": %s
    }"""


class CampaignResult(NamedTuple):
    orbits: tuple[OrbitRecord, ...]
    per_state: dict[str, StateSummary]
    total_fourfolds: int
    mean_fidelity: float
    mean_sigma: float

    def to_json(self) -> str:
        """The result as canonical JSON (ASCII, sorted keys, two-space
        indent): the bytes `json.dumps(..., indent=2, sort_keys=True)` gives
        for it, rendered from fixed templates.  `run_campaign` gives every
        result at least six orbits and the six states."""
        orbits = ",\n".join([
            _ORBIT_JSON % (
                *map(int.__repr__, _count_row(o.counts.ravel().tolist())),
                _json_str(o.label),
                float.__repr__(o.live_time_s),
                _json_number(o.max_elevation_deg),
                int.__repr__(o.n_accidental_truth),
                int.__repr__(o.n_signal_truth),
                _json_str(o.state_label),
            )
            for o in self.orbits
        ])
        states = ",\n".join([
            _STATE_JSON % (
                _json_str(label),
                float.__repr__(s.fidelity),
                int.__repr__(s.n_correct),
                int.__repr__(s.n_wrong),
                float.__repr__(s.sigma),
            )
            for label, s in sorted(self.per_state.items())
        ])
        return _RESULT_JSON % (
            float.__repr__(self.mean_fidelity),
            float.__repr__(self.mean_sigma),
            orbits,
            states,
            int.__repr__(self.total_fourfolds),
        )


def run_campaign(config: CampaignConfig) -> CampaignResult:
    """Run all passes on independent substreams of the campaign seed and
    aggregate raw counts into per-state fidelities."""
    children = np.random.SeedSequence(config.seed).spawn(len(config.orbits))
    rngs = [np.random.default_rng(child) for child in children]
    records = _run_orbits(config, range(len(config.orbits)), rngs)

    counts = np.array([rec.counts for rec in records])  # [orbit, outcome, port]
    states = np.array([rec.state_label for rec in records])
    per_state: dict[str, StateSummary] = {}
    for label in STATE_LABELS:
        tally = counts[states == label].sum(axis=0)  # [outcome, port]
        n_correct = sum(
            int(row[0 if is_signal else 1])
            for row, is_signal in zip(tally, CORRECT_IS_SIGNAL[label])
        )
        n_wrong = int(tally.sum()) - n_correct
        if n_correct + n_wrong == 0:
            raise SimulationError(
                f"campaign accumulated no fourfold events for input {label!r}; "
                "extend the schedule or raise the rates"
            )
        f, sigma = estimate_fidelity(n_correct, n_wrong)
        per_state[label] = StateSummary(label, n_correct, n_wrong, f, sigma)

    fidelities = [s.fidelity for s in per_state.values()]
    sigmas = [s.sigma for s in per_state.values()]
    return CampaignResult(
        orbits=tuple(records),
        per_state=per_state,
        total_fourfolds=int(counts.sum()),
        mean_fidelity=float(np.mean(fidelities)),
        mean_sigma=float(np.sqrt(np.sum(np.square(sigmas)))) / len(sigmas),
    )


# ---------------------------------------------------------------------------
# Error budget, calibration, baselines.

# Error source -> the noise-free values of its model fields.
NOISE_FREE = {
    "double_pair": {"double_pair_fraction": 0.0},
    "distinguishability": {"mode_overlap": 1.0},
    "polarization": {"delta_rad": 0.0, "jitter_sigma_rad": 0.0},
    "background": {"background_rate_hz": 0.0},
}

BUDGET_SOURCES = tuple(NOISE_FREE)

# Error source -> the noise-free values of every other source's fields.
_QUIET = {
    name: {
        key: value
        for source, values in NOISE_FREE.items()
        if source != name
        for key, value in values.items()
    }
    for name in NOISE_FREE
}


def error_budget(config: CampaignConfig) -> dict[str, float]:
    """Mean-fidelity deficit of each error source alone, the other three at
    their noise-free values, plus the deficit of `config` as given
    ("combined")."""
    sums, settings = _state_sums(config), _settings(config)
    budget = {
        source: _mean_deficit(config, sums, {**settings, **_QUIET[source]})
        for source in BUDGET_SOURCES
    }
    budget["combined"] = _mean_deficit(config, sums, settings)
    return budget


@dataclass(frozen=True)
class CalibrationTargets:
    """Published observables the model parameters are fitted to."""

    loss_max_db: float = 52.0
    loss_min_db: float = 41.0
    total_fourfolds: float = 911.0
    deficit_double_pair: float = 0.06
    deficit_distinguishability: float = 0.10
    deficit_polarization: float = 0.03
    deficit_background: float = 0.04


# Plausibility boxes for the fitted parameters.  The mode overlap box
# floor keeps the two-photon interference visibility inside the plausible
# (0.7, 1) band for independent filtered pair sources.
CALIBRATION_BOUNDS = {
    "double_pair_fraction": (0.0, 0.5),
    "mode_overlap": (0.73, 0.98),
    "delta_rad": (0.0, 0.6),
    "background_rate_hz": (0.0, 5000.0),
    "receiver_efficiency": (1e-4, 1.0),
}


class CalibrationResult(NamedTuple):
    params: dict[str, float]
    residuals: dict[str, float]
    converged: bool

    def apply(self, config: CampaignConfig) -> CampaignConfig:
        return with_fields(config, self.params)


class CalibrationError(RuntimeError):
    """Raised when calibration cannot reach the targets; carries the
    best-so-far result."""

    def __init__(self, message: str, result: CalibrationResult):
        super().__init__(message)
        self.result = result


def _invert_affine(
    residual, lo: float, hi: float, to_u=float, from_u=float
) -> tuple[float, float]:
    """Root on [lo, hi] of a target residual that is affine in u = to_u(x),
    and the residual there.

    The residuals at the two bounds fix the line; its root, clipped to the
    box, maps back through from_u and is evaluated once.  Without a sign
    change between the bounds the closer bound (lo on a tie) is returned
    with its residual.
    """
    r_lo, r_hi = residual(lo), residual(hi)
    if (r_lo < 0.0) == (r_hi < 0.0):
        return (lo, r_lo) if abs(r_lo) <= abs(r_hi) else (hi, r_hi)
    u_lo, u_hi = to_u(lo), to_u(hi)
    u = u_lo + (u_hi - u_lo) * r_lo / (r_lo - r_hi)
    x = float(from_u(np.clip(u, min(u_lo, u_hi), max(u_lo, u_hi))))
    return x, residual(x)


def calibrate(
    targets: CalibrationTargets | None = None,
    base: CampaignConfig | None = None,
) -> CalibrationResult:
    """Fit the free model parameters to the published observables.

    The structure is nearly separable, so the fit runs parameter by
    parameter: the channel pair (zenith transmittance, system dB) from the
    two loss endpoints by one linear solve; each noise parameter from its
    own budget deficit in closed form, because that deficit is affine in
    one transformed parameter (the double-pair fraction, the mode overlap,
    and cos 2 delta, the jitter factor exp(-2 sigma^2) being fixed by the
    base config), so the analytic pipeline at the two plausibility bounds
    fixes the line that is inverted; then the background rate over the
    receiver efficiency from the background deficit, which depends on that
    ratio alone and rises, concave, in it, by Newton's method from zero, and
    the receiver efficiency from the campaign total in closed form.  The
    fitted channel is the one config built; every later trial value is a
    setting of the analytic kernel (`_state_fidelities`) on that config's
    per-state sums, with the other error sources quiet at their `NOISE_FREE`
    values.  Each parameter is named after the model field it sets.
    Parameters pinned at a plausibility bound leave a reported residual.  A
    loss target no channel meets leaves a large or infinite loss residual:
    the zenith transmittance saturates at the smallest positive float and,
    with no signal, the receiver efficiency at its upper bound.  Raises
    CalibrationError when any residual exceeds its tolerance, carrying the
    best-so-far result.
    """
    targets = targets or CalibrationTargets()
    config = base or default_config()

    params: dict[str, float] = {"slew_degradation_k": config.link.slew_degradation_k}
    residuals: dict[str, float] = {}

    # Channel: linear in (dB per airmass, system dB) at the two anchors, the
    # tracking limit (loss_max_db) and culmination (loss_min_db).
    ref_geom = config.geometry(OrbitPlan("reference", 76.0))
    probe = replace(config.link, zenith_transmittance=1.0, system_efficiency_db=0.0)
    elev = np.array([config.min_elevation_deg, 76.0])
    t = np.array([ref_geom.half_duration_s(), 0.0])
    target = np.array([targets.loss_max_db, targets.loss_min_db])
    rows = np.column_stack((1.0 / np.sin(np.deg2rad(elev)), np.ones(2)))
    x_db, sys_db = np.linalg.solve(rows, target - link_loss_db(elev, t, ref_geom, probe))
    x_db = max(x_db, 0.0)
    sys_db = max(sys_db, 0.0)
    # past about 3230 dB per airmass 10 ** (-x / 10) underflows to 0, outside
    # the model's (0, 1]: saturate at the smallest positive float instead
    params["zenith_transmittance"] = max(float(10.0 ** (-x_db / 10.0)), math.ulp(0.0))
    params["system_efficiency_db"] = float(sys_db)
    config = with_fields(config, params)
    fitted = link_loss_db(elev, t, ref_geom, config.link) - target
    residuals["loss_max_db"], residuals["loss_min_db"] = fitted.tolist()
    sums, settings = _state_sums(config), _settings(config)

    # Noise sources, each deficit inverted in closed form.
    def deficit_residual(source: str, name: str, value: float) -> float:
        changes = {name: value, **_QUIET[source]}
        deficit = _mean_deficit(config, sums, {**settings, **changes})
        return deficit - getattr(targets, f"deficit_{source}")

    for source, name, to_u, from_u in (
        ("double_pair", "double_pair_fraction", float, float),
        ("distinguishability", "mode_overlap", float, float),
        (
            "polarization",
            "delta_rad",
            lambda v: np.cos(2.0 * v),
            lambda u: 0.5 * np.arccos(u),
        ),
    ):
        params[name], residuals[f"deficit_{source}"] = _invert_affine(
            functools.partial(deficit_residual, source, name),
            *CALIBRATION_BOUNDS[name],
            to_u=to_u,
            from_u=from_u,
        )

    # Counts and background.  The signal count is linear in the receiver
    # efficiency eta and the accidental count in the background rate, so the
    # count model at unit values gives each state's counts per unit, I_s and
    # L_s.  With the other sources quiet a state's fidelity is
    # (1 - b_s) q_s + b_s / 2, q_s its fidelity at no background and
    # b_s = x L_s / (I_s + x L_s), so the deficit depends on x = rate / eta
    # alone and rises, concave, in it (q_s >= 1/2).  Newton's method from
    # x = 0 climbs to the root without passing it, or stops at the nearer
    # end of x's box.  The total then fixes eta; a pinned eta keeps x.
    unit_signal, unit_accidental = _state_counts(
        config, sums, {"receiver_efficiency": 1.0, "background_rate_hz": 1.0}
    )
    quiet = {**settings, **_QUIET["background"]}
    noise_free = _state_fidelities(config, sums, {**quiet, "background_rate_hz": 0.0})
    weights = [(q - 0.5) / len(noise_free) for q in noise_free]
    eta_lo, eta_hi = CALIBRATION_BOUNDS["receiver_efficiency"]
    rate_hi = CALIBRATION_BOUNDS["background_rate_hz"][1]
    # the target less the deficit at no background
    headroom = targets.deficit_background - 1.0 + sum(noise_free) / len(noise_free)
    x = 0.0
    while True:
        gap, slope = headroom, 0.0
        for w, signal, accidental in zip(weights, unit_signal, unit_accidental):
            total = signal + x * accidental
            if total > 0.0:  # a state with no counts has no accidental share
                gap -= w * x * accidental / total
                slope += w * (signal / total) * (accidental / total)
        # a flat deficit, or one with no signal, gives no slope to step on
        step = min(x + gap / slope, rate_hi / eta_lo) if gap > 0.0 and slope > 0.0 else x
        if step <= x:
            break
        x = step
    signal_per_eta, accidental_per_hz = sum(unit_signal), sum(unit_accidental)
    total_per_eta = signal_per_eta + x * accidental_per_hz
    # no signal reaches the receiver once the channel underflows
    free_eta = targets.total_fourfolds / total_per_eta if total_per_eta > 0 else math.inf
    eta = min(max(free_eta, eta_lo), eta_hi)
    rate = min(x * eta, rate_hi)
    params["receiver_efficiency"] = eta
    params["background_rate_hz"] = rate
    fitted = {**quiet, "receiver_efficiency": eta, "background_rate_hz": rate}
    residuals["deficit_background"] = (
        _mean_deficit(config, sums, fitted) - targets.deficit_background
    )
    # a free eta meets the total exactly: only the pins leave a residual
    missed = 0.0 if eta == free_eta else eta * total_per_eta - targets.total_fourfolds
    residuals["total_fourfolds"] = missed + (rate - x * eta) * accidental_per_hz

    tolerances = {
        "loss_max_db": 1.0,
        "loss_min_db": 1.0,
        "total_fourfolds": 25.0,
        "deficit_double_pair": 0.02,
        "deficit_distinguishability": 0.02,
        "deficit_polarization": 0.02,
        "deficit_background": 0.02,
    }
    converged = all(abs(residuals[k]) <= tol for k, tol in tolerances.items())
    result = CalibrationResult(params=params, residuals=residuals, converged=converged)
    if not converged:
        worst = max(residuals, key=lambda k: abs(residuals[k]) / tolerances[k])
        raise CalibrationError(
            f"calibration did not reach target {worst!r} "
            f"(residual {residuals[worst]:+.4g})",
            result,
        )
    return result


def classical_baseline(n_samples: int, rng: np.random.Generator) -> float:
    """Monte Carlo fidelity of the best entanglement-free strategy: measure
    the single copy along a random axis and resend the eigenstate.

    Converges to 2/3 for inputs drawn uniformly over the sphere.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    inputs = rng.normal(size=(n_samples, 3))
    inputs /= np.linalg.norm(inputs, axis=1, keepdims=True)
    axes = rng.normal(size=(n_samples, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    cosine = np.sum(inputs * axes, axis=1)
    p_plus = 0.5 * (1.0 + cosine)
    sign = np.where(rng.random(n_samples) < p_plus, 1.0, -1.0)
    fidelities = 0.5 * (1.0 + sign * cosine)
    return float(fidelities.mean())


class FibreComparison(NamedTuple):
    total_loss_db: float
    transmittance: float
    expected_wait_s: float
    expected_wait_years: float


def fibre_comparison(
    fourfold_rate_hz: float, distance_km: float, loss_db_per_km: float
) -> FibreComparison:
    """Expected waiting time for one event through a long fibre of the
    given attenuation, at the given source rate."""
    if not 0 < fourfold_rate_hz < math.inf:  # NaN fails
        raise ValueError("source rate must be positive and finite")
    if not (0 <= distance_km < math.inf and 0 <= loss_db_per_km < math.inf):
        raise ValueError("distance and attenuation must be non-negative and finite")
    loss_db = distance_km * loss_db_per_km
    transmittance = 10.0 ** (-loss_db / 10.0)
    rate_hz = fourfold_rate_hz * transmittance
    wait_s = 1.0 / rate_hz if rate_hz > 0.0 else np.inf  # no event once the rate underflows
    return FibreComparison(
        total_loss_db=loss_db,
        transmittance=transmittance,
        expected_wait_s=wait_s,
        expected_wait_years=wait_s / SECONDS_PER_YEAR,
    )
