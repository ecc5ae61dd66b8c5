"""Campaign orchestration: compose source, analyzer, channel, and detection
models into per-orbit Monte Carlo runs and their analytic expectations.

Two tiers run side by side.  The analytic tier propagates density matrices
exactly and yields expected fidelities; the Monte Carlo tier draws event
counts and reproduces counting statistics.  Acceptance checks tie the two
together.  All reported fidelities are raw ratios, with no background
subtraction.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field, replace

import numpy as np

from .bsm import ACCEPTED_OUTCOMES, BsmModel, BsmOutcome, bsm_apply
from .linkgeom import (
    LinkModel,
    PassGeometry,
    link_loss_db,
    loss_profile,
    polarization_distortion,
)
from .photonsrc import SourceModel, werner_pair
from .qstate import PureState, mub_states, tensor
from .timesync import accidental_rate

SECONDS_PER_YEAR = 365.25 * 86400.0

STATE_LABELS = ("+", "-", "R", "L", "H", "V")

PORT_SIGNAL = "signal"
PORT_ORTHOGONAL = "orthogonal"


@dataclass(frozen=True)
class NoiseToggles:
    """Enable flags for the four modelled fidelity error sources."""

    double_pair: bool = True
    distinguishability: bool = True
    polarization: bool = True
    background: bool = True

    @classmethod
    def all_off(cls) -> "NoiseToggles":
        return cls(False, False, False, False)

    @classmethod
    def only(cls, name: str) -> "NoiseToggles":
        if name not in cls.__dataclass_fields__:
            raise ValueError(f"unknown noise source {name!r}")
        return replace(cls.all_off(), **{name: True})


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
        if self.background_rate_hz < 0 or self.coincidence_window_s <= 0:
            raise ValueError("background rate and window must be physical")


@dataclass(frozen=True)
class PolarizationNoise:
    """Uplink polarization rotation: fixed angle plus per-event jitter."""

    delta_rad: float = 0.0
    jitter_sigma_rad: float = 0.0

    def __post_init__(self):
        if self.jitter_sigma_rad < 0:
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
    toggles: NoiseToggles = field(default_factory=NoiseToggles)
    seed: int = 0

    def __post_init__(self):
        if self.orbit_duration_s <= 0:
            raise ValueError("orbit duration must be positive")
        if len(self.orbits) != len(self.input_schedule):
            raise ValueError("schedule must assign one input state per orbit")
        unknown = set(self.input_schedule) - set(STATE_LABELS)
        if unknown:
            raise ValueError(f"unknown input states in schedule: {sorted(unknown)}")
        if set(self.input_schedule) != set(STATE_LABELS):
            raise ValueError("schedule must cover all six input states")
        if not 0.25 <= self.resource_fidelity <= 1.0:
            raise ValueError("resource fidelity must lie in [1/4, 1]")

    # Effective parameters after the noise toggles.
    @property
    def double_pair_fraction_eff(self) -> float:
        return self.source.double_pair_fraction if self.toggles.double_pair else 0.0

    @property
    def mode_overlap_eff(self) -> float:
        return self.bsm.mode_overlap if self.toggles.distinguishability else 1.0

    @property
    def polarization_delta_eff(self) -> float:
        return self.polarization.delta_rad if self.toggles.polarization else 0.0

    @property
    def polarization_jitter_eff(self) -> float:
        return self.polarization.jitter_sigma_rad if self.toggles.polarization else 0.0

    @property
    def background_rate_eff(self) -> float:
        return self.detection.background_rate_hz if self.toggles.background else 0.0

    @property
    def threefold_herald_rate(self) -> float:
        """In-flight ground herald (trigger + analyzer double click) rate."""
        return self.source.fourfold_ground_rate / self.detection.photon3_ground_efficiency

    def geometry(self, orbit: OrbitPlan) -> PassGeometry:
        return PassGeometry(
            orbit_altitude_km=self.orbit_altitude_km,
            max_elevation_deg=orbit.max_elevation_deg,
            min_elevation_deg=self.min_elevation_deg,
        )


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
    "polarization_delta_rad": 0.21375613247241568,
    "background_rate_hz": 140.67052383843003,
    "receiver_efficiency": 0.37621805150703735,
}

DEFAULT_SEED = 20160839


def default_orbit_plans(n_orbits: int = 32) -> tuple[OrbitPlan, ...]:
    """Campaign passes with culminations evenly covering 76 down to 20
    degrees (per-pass elevations were not published; the span was)."""
    els = np.linspace(76.0, 20.0, n_orbits)
    return tuple(
        OrbitPlan(label=f"orbit-{i + 1:02d}", max_elevation_deg=float(e))
        for i, e in enumerate(els)
    )


def default_schedule(n_orbits: int = 32) -> tuple[str, ...]:
    """Round-robin input states; the superposition states lead so they
    collect the spare passes of a non-multiple-of-six campaign."""
    return tuple(STATE_LABELS[i % 6] for i in range(n_orbits))


def default_config(seed: int = DEFAULT_SEED, **overrides) -> CampaignConfig:
    """The calibrated 32-orbit campaign configuration."""
    cal = CALIBRATED
    base = dict(
        orbits=default_orbit_plans(),
        input_schedule=default_schedule(),
        source=SourceModel(double_pair_fraction=cal["double_pair_fraction"]),
        bsm=BsmModel(mode_overlap=cal["mode_overlap"]),
        link=LinkModel(
            zenith_transmittance=cal["zenith_transmittance"],
            system_efficiency_db=cal["system_efficiency_db"],
            slew_degradation_k=cal["slew_degradation_k"],
        ),
        detection=DetectionModel(
            receiver_efficiency=cal["receiver_efficiency"],
            background_rate_hz=cal["background_rate_hz"],
        ),
        polarization=PolarizationNoise(delta_rad=cal["polarization_delta_rad"]),
        seed=seed,
    )
    base.update(overrides)
    return CampaignConfig(**base)


# ---------------------------------------------------------------------------
# Exposure: where the photons go, before any quantum state enters.


@dataclass(frozen=True)
class OrbitExposure:
    live_time_s: float
    transmit_integral_s: float  # integral of channel transmittance over the pass


@functools.lru_cache(maxsize=4096)
def _exposure(
    link: LinkModel,
    altitude_km: float,
    max_elevation_deg: float,
    min_elevation_deg: float,
    duration_s: float,
) -> OrbitExposure:
    geometry = PassGeometry(
        orbit_altitude_km=altitude_km,
        max_elevation_deg=max_elevation_deg,
        min_elevation_deg=min_elevation_deg,
    )
    rows = loss_profile(geometry, link, duration_s)
    loss = np.array([r[3] for r in rows])
    return OrbitExposure(
        live_time_s=float(len(rows)),
        transmit_integral_s=float(np.sum(10.0 ** (-loss / 10.0))),
    )


def orbit_exposure(config: CampaignConfig, orbit: OrbitPlan) -> OrbitExposure:
    return _exposure(
        config.link,
        config.orbit_altitude_km,
        orbit.max_elevation_deg,
        config.min_elevation_deg,
        config.orbit_duration_s,
    )


def expected_signal_count(config: CampaignConfig, orbit: OrbitPlan) -> float:
    exp = orbit_exposure(config, orbit)
    return (
        config.source.fourfold_ground_rate
        * config.detection.receiver_efficiency
        * exp.transmit_integral_s
    )


def expected_accidental_count(config: CampaignConfig, orbit: OrbitPlan) -> float:
    exp = orbit_exposure(config, orbit)
    rate = accidental_rate(
        config.threefold_herald_rate,
        config.background_rate_eff,
        config.detection.coincidence_window_s,
    )
    return rate * exp.live_time_s


# ---------------------------------------------------------------------------
# Quantum pipeline shared by the analytic tier and the Monte Carlo tier.


def _distortion_unitaries(delta: float, jitter_sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes (weights, unitaries stacked) for the expected
    rotation channel; a single unit-weight node when jitter is zero."""
    if jitter_sigma == 0.0:
        return np.array([1.0]), np.stack([polarization_distortion(delta, 0.0)])
    nodes, weights = np.polynomial.hermite.hermgauss(21)
    angles = delta + np.sqrt(2.0) * jitter_sigma * nodes
    units = np.stack([polarization_distortion(a, 0.0) for a in angles])
    return weights / np.sqrt(np.pi), units


@dataclass(frozen=True)
class EventModel:
    """Per-event branch data for one scheduled input state."""

    state_label: str
    input_state: PureState
    outcome_probabilities: dict[BsmOutcome, float]  # renormalized over accepted
    signal_port_probability: dict[BsmOutcome, float]  # physical |chi> port
    correct_port: dict[BsmOutcome, str]


def build_event_model(
    config: CampaignConfig,
    state_label: str,
    feed_forward: bool = True,
    input_state: PureState | None = None,
) -> EventModel:
    """Resolve the analyzer branches, uplink distortion, and port identities
    for one input state under the configured noise.

    `input_state` overrides the label lookup (e.g. for a phase-shifted
    copy of the scheduled state); the label stays for bookkeeping.
    """
    chi = input_state if input_state is not None else mub_states()[state_label]
    resource = werner_pair(config.resource_fidelity)
    branches = bsm_apply(tensor(chi, resource), BsmModel(config.mode_overlap_eff))
    weights, units = _distortion_unitaries(
        config.polarization_delta_eff, config.polarization_jitter_eff
    )

    accepted = {b.outcome: b for b in branches if b.outcome in ACCEPTED_OUTCOMES}
    total_accepted = sum(b.probability for b in accepted.values())
    if total_accepted <= 0:
        raise RuntimeError("no accepted analyzer outcomes for this input")

    z_fid = abs(np.vdot(chi.amplitudes, np.diag([1, -1]) @ chi.amplitudes)) ** 2
    if z_fid > 1 - 1e-9:
        minus_port = PORT_SIGNAL  # pi shift acts trivially on poles
    elif z_fid < 1e-9:
        minus_port = PORT_ORTHOGONAL  # pi shift maps the state to its orthogonal
    else:
        raise ValueError(
            f"post-processing relabeling undefined for input {state_label!r}"
        )

    out_prob: dict[BsmOutcome, float] = {}
    port_prob: dict[BsmOutcome, float] = {}
    correct: dict[BsmOutcome, str] = {}
    psi = chi.amplitudes
    for outcome, branch in accepted.items():
        out_prob[outcome] = branch.probability / total_accepted
        rho = branch.conditional.matrix
        distorted = np.einsum("k,kij,jl,kml->im", weights, units, rho, units.conj())
        port_prob[outcome] = float(np.real(psi.conj() @ distorted @ psi))
        if outcome is BsmOutcome.PHI_PLUS or not feed_forward:
            correct[outcome] = PORT_SIGNAL
        else:
            correct[outcome] = minus_port
    return EventModel(
        state_label=state_label,
        input_state=chi,
        outcome_probabilities=out_prob,
        signal_port_probability=port_prob,
        correct_port=correct,
    )


def _quantum_event_fidelity(model: EventModel, config: CampaignConfig) -> float:
    """Probability a signal event lands in its correct port, including the
    double-pair branch (fully mixed, so even odds on the ports)."""
    d = config.double_pair_fraction_eff
    f = 0.0
    for outcome, w in model.outcome_probabilities.items():
        p_signal_port = model.signal_port_probability[outcome]
        p_correct = (
            p_signal_port
            if model.correct_port[outcome] == PORT_SIGNAL
            else 1.0 - p_signal_port
        )
        f += w * p_correct
    return (1.0 - d) * f + d * 0.5


def analytic_state_fidelity(
    config: CampaignConfig, state_label: str, feed_forward: bool = True
) -> float:
    """Expected campaign fidelity for one input state: the quantum branch
    diluted by that state's accidental fraction across its assigned orbits."""
    model = build_event_model(config, state_label, feed_forward)
    f_quantum = _quantum_event_fidelity(model, config)
    signal = 0.0
    accidental = 0.0
    for orbit, label in zip(config.orbits, config.input_schedule):
        if label != state_label:
            continue
        signal += expected_signal_count(config, orbit)
        accidental += expected_accidental_count(config, orbit)
    total = signal + accidental
    if total <= 0:
        return f_quantum
    b = accidental / total
    return (1.0 - b) * f_quantum + b * 0.5


def analytic_fidelities(config: CampaignConfig, feed_forward: bool = True) -> dict[str, float]:
    return {
        label: analytic_state_fidelity(config, label, feed_forward)
        for label in STATE_LABELS
    }


def analytic_mean_fidelity(config: CampaignConfig, feed_forward: bool = True) -> float:
    values = analytic_fidelities(config, feed_forward)
    return float(np.mean(list(values.values())))


# ---------------------------------------------------------------------------
# Monte Carlo tier.


@dataclass(frozen=True)
class OrbitRecord:
    label: str
    state_label: str
    max_elevation_deg: float
    live_time_s: float
    counts: dict[tuple[str, str], int]  # (analyzer outcome, port) -> fourfolds
    n_signal_truth: int
    n_accidental_truth: int

    @property
    def total_fourfolds(self) -> int:
        return sum(self.counts.values())


def run_orbit(config: CampaignConfig, orbit_index: int, rng: np.random.Generator) -> OrbitRecord:
    """Simulate one pass: Poisson event arrivals thinned by the loss
    profile, analyzer outcomes, uplink distortion, and accidental
    coincidences, recorded as raw (outcome, port) fourfold counts."""
    orbit = config.orbits[orbit_index]
    state_label = config.input_schedule[orbit_index]
    geometry = config.geometry(orbit)
    rows = loss_profile(geometry, config.link, config.orbit_duration_s)
    loss = np.array([r[3] for r in rows])
    live_time = float(len(rows))

    sig_means = (
        config.source.fourfold_ground_rate
        * config.detection.receiver_efficiency
        * 10.0 ** (-loss / 10.0)
    )
    n_signal = int(rng.poisson(sig_means).sum())
    acc_rate = accidental_rate(
        config.threefold_herald_rate,
        config.background_rate_eff,
        config.detection.coincidence_window_s,
    )
    n_accidental = int(rng.poisson(acc_rate * live_time))

    model = build_event_model(config, state_label)
    jitter = config.polarization_jitter_eff
    outcomes = list(model.outcome_probabilities)
    out_p = np.array([model.outcome_probabilities[o] for o in outcomes])
    d = config.double_pair_fraction_eff

    counts: dict[tuple[str, str], int] = {
        (o.value, port): 0
        for o in ACCEPTED_OUTCOMES
        for port in (PORT_SIGNAL, PORT_ORTHOGONAL)
    }
    chi = model.input_state.amplitudes

    if jitter > 0:
        # Re-derive undistorted conditionals once; distort per event below.
        branches = {
            b.outcome: b.conditional.matrix
            for b in bsm_apply(
                tensor(model.input_state, werner_pair(config.resource_fidelity)),
                BsmModel(config.mode_overlap_eff),
            )
            if b.outcome in ACCEPTED_OUTCOMES
        }

    for _ in range(n_signal):
        outcome = outcomes[rng.choice(len(outcomes), p=out_p)]
        if rng.random() < d:
            p_signal_port = 0.5
        elif jitter > 0:
            u = polarization_distortion(config.polarization_delta_eff, jitter, rng)
            rho = u @ branches[outcome] @ u.conj().T
            p_signal_port = float(np.real(chi.conj() @ rho @ chi))
        else:
            p_signal_port = model.signal_port_probability[outcome]
        port = PORT_SIGNAL if rng.random() < p_signal_port else PORT_ORTHOGONAL
        counts[(outcome.value, port)] += 1

    for _ in range(n_accidental):
        outcome = outcomes[rng.choice(len(outcomes), p=out_p)]
        port = PORT_SIGNAL if rng.random() < 0.5 else PORT_ORTHOGONAL
        counts[(outcome.value, port)] += 1

    return OrbitRecord(
        label=orbit.label,
        state_label=state_label,
        max_elevation_deg=orbit.max_elevation_deg,
        live_time_s=live_time,
        counts=counts,
        n_signal_truth=n_signal,
        n_accidental_truth=n_accidental,
    )


def estimate_fidelity(n_correct: int, n_wrong: int) -> tuple[float, float]:
    """Raw fidelity ratio with the independent-Poisson propagated sigma:
    F = c/(c+w), sigma = sqrt(c*w/(c+w)^3)."""
    if n_correct < 0 or n_wrong < 0:
        raise ValueError("counts must be non-negative")
    total = n_correct + n_wrong
    if total < 1:
        raise ValueError("need at least one event")
    f = n_correct / total
    sigma = float(np.sqrt(n_correct * n_wrong / total**3))
    return float(f), sigma


@dataclass(frozen=True)
class StateSummary:
    state_label: str
    n_correct: int
    n_wrong: int
    fidelity: float
    sigma: float


@dataclass(frozen=True)
class CampaignResult:
    orbits: tuple[OrbitRecord, ...]
    per_state: dict[str, StateSummary]
    total_fourfolds: int
    mean_fidelity: float
    mean_sigma: float

    def to_dict(self) -> dict:
        return {
            "total_fourfolds": self.total_fourfolds,
            "mean_fidelity": self.mean_fidelity,
            "mean_sigma": self.mean_sigma,
            "per_state": {
                label: {
                    "n_correct": s.n_correct,
                    "n_wrong": s.n_wrong,
                    "fidelity": s.fidelity,
                    "sigma": s.sigma,
                }
                for label, s in self.per_state.items()
            },
            "orbits": [
                {
                    "label": o.label,
                    "state": o.state_label,
                    "max_elevation_deg": o.max_elevation_deg,
                    "live_time_s": o.live_time_s,
                    "counts": {f"{k[0]}/{k[1]}": v for k, v in o.counts.items()},
                    "n_signal_truth": o.n_signal_truth,
                    "n_accidental_truth": o.n_accidental_truth,
                }
                for o in self.orbits
            ],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def run_campaign(config: CampaignConfig) -> CampaignResult:
    """Run all passes on independent substreams of the campaign seed and
    aggregate raw counts into per-state fidelities."""
    root = np.random.SeedSequence(config.seed)
    children = root.spawn(len(config.orbits))
    records = [
        run_orbit(config, i, np.random.default_rng(children[i]))
        for i in range(len(config.orbits))
    ]

    per_state: dict[str, StateSummary] = {}
    for label in STATE_LABELS:
        model = build_event_model(config, label)
        n_correct = 0
        n_wrong = 0
        for rec in records:
            if rec.state_label != label:
                continue
            for outcome in ACCEPTED_OUTCOMES:
                good_port = model.correct_port[outcome]
                for port in (PORT_SIGNAL, PORT_ORTHOGONAL):
                    n = rec.counts[(outcome.value, port)]
                    if port == good_port:
                        n_correct += n
                    else:
                        n_wrong += n
        if n_correct + n_wrong == 0:
            raise RuntimeError(
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
        total_fourfolds=sum(r.total_fourfolds for r in records),
        mean_fidelity=float(np.mean(fidelities)),
        mean_sigma=float(np.sqrt(np.sum(np.square(sigmas)))) / len(sigmas),
    )


# ---------------------------------------------------------------------------
# Error budget, calibration, baselines.

BUDGET_SOURCES = ("double_pair", "distinguishability", "polarization", "background")


def error_budget(config: CampaignConfig) -> dict[str, float]:
    """Mean-fidelity deficit of each noise source alone, against the
    otherwise-ideal pipeline, plus the all-sources-on deficit."""
    budget = {}
    for source in BUDGET_SOURCES:
        cfg = replace(config, toggles=NoiseToggles.only(source))
        budget[source] = 1.0 - analytic_mean_fidelity(cfg)
    budget["combined"] = 1.0 - analytic_mean_fidelity(
        replace(config, toggles=NoiseToggles())
    )
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
    "polarization_delta_rad": (0.0, 0.6),
    "background_rate_hz": (0.0, 5000.0),
    "receiver_efficiency": (1e-4, 1.0),
}


@dataclass(frozen=True)
class CalibrationResult:
    params: dict[str, float]
    residuals: dict[str, float]
    converged: bool

    def apply(self, config: CampaignConfig) -> CampaignConfig:
        p = self.params
        return replace(
            config,
            source=replace(config.source, double_pair_fraction=p["double_pair_fraction"]),
            bsm=BsmModel(mode_overlap=p["mode_overlap"]),
            link=replace(
                config.link,
                zenith_transmittance=p["zenith_transmittance"],
                system_efficiency_db=p["system_efficiency_db"],
                slew_degradation_k=p["slew_degradation_k"],
            ),
            detection=replace(
                config.detection,
                receiver_efficiency=p["receiver_efficiency"],
                background_rate_hz=p["background_rate_hz"],
            ),
            polarization=replace(config.polarization, delta_rad=p["polarization_delta_rad"]),
        )


class CalibrationError(RuntimeError):
    """Raised when calibration cannot reach the targets; carries the
    best-so-far result."""

    def __init__(self, message: str, result: CalibrationResult):
        super().__init__(message)
        self.result = result


def _solve_bounded(fun, lo: float, hi: float) -> tuple[float, float]:
    """Root of a monotone scalar target-residual on [lo, hi] and the residual
    there; falls back to the closer bound (returning the residual there)
    when no root exists.

    The root comes from Brent's method (Brent 1973, ch. 4) to an absolute
    tolerance of 1e-12, step for step the iteration of scipy's `brentq`:
    secant or inverse quadratic steps, and a bisection whenever such a step
    would not shrink the bracket fast enough.
    """
    x_pre, x_cur = lo, hi
    f_pre, f_cur = fun(lo), fun(hi)
    if f_pre == 0.0:
        return lo, 0.0
    if f_cur == 0.0:
        return hi, 0.0
    if (f_pre < 0.0) == (f_cur < 0.0):
        return (lo, f_pre) if abs(f_pre) <= abs(f_cur) else (hi, f_cur)
    # x_cur is the best estimate, x_blk the contrapoint that brackets the
    # root with it and x_pre the previous estimate; s_cur and s_pre are the
    # last two steps.
    xtol, rtol = 1e-12, 4.0 * np.finfo(float).eps
    for _ in range(100):
        if f_pre != 0.0 and f_cur != 0.0 and (f_pre < 0.0) != (f_cur < 0.0):
            # The last step crossed the root: the previous estimate becomes
            # the contrapoint.
            x_blk, f_blk = x_pre, f_pre
            s_pre = s_cur = x_cur - x_pre
        if abs(f_blk) < abs(f_cur):
            x_pre, x_cur, x_blk = x_cur, x_blk, x_cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        delta = (xtol + rtol * abs(x_cur)) / 2.0
        s_bis = (x_blk - x_cur) / 2.0
        if f_cur == 0.0 or abs(s_bis) < delta:
            return float(x_cur), float(f_cur)
        trial = None
        if abs(s_pre) > delta and abs(f_cur) < abs(f_pre):
            if x_pre == x_blk:
                trial = -f_cur * (x_cur - x_pre) / (f_cur - f_pre)
            else:
                d_pre = (f_pre - f_cur) / (x_pre - x_cur)
                d_blk = (f_blk - f_cur) / (x_blk - x_cur)
                trial = -f_cur * (f_blk * d_blk - f_pre * d_pre) / (
                    d_blk * d_pre * (f_blk - f_pre)
                )
        if trial is not None and 2.0 * abs(trial) < min(abs(s_pre), 3.0 * abs(s_bis) - delta):
            s_pre, s_cur = s_cur, trial
        else:
            s_pre = s_cur = s_bis
        x_pre, f_pre = x_cur, f_cur
        if abs(s_cur) > delta:
            x_cur += s_cur
        else:
            x_cur += delta if s_bis > 0.0 else -delta
        f_cur = fun(x_cur)
    raise RuntimeError("Brent iteration did not converge in 100 steps")


def calibrate(
    targets: CalibrationTargets | None = None,
    base: CampaignConfig | None = None,
) -> CalibrationResult:
    """Fit the free model parameters to the published observables.

    The structure is nearly separable, so the fit runs as bounded
    coordinate solves: the channel pair (zenith transmittance, system dB)
    from the two loss endpoints; each noise parameter from its own budget
    deficit through the analytic pipeline; then the receiver efficiency
    and background rate jointly from the campaign total and the background
    deficit.  Parameters pinned at a plausibility bound leave a reported
    residual.  Raises CalibrationError when any residual exceeds its
    tolerance, carrying the best-so-far result.
    """
    targets = targets or CalibrationTargets()
    config = base or default_config()

    params: dict[str, float] = {"slew_degradation_k": config.link.slew_degradation_k}
    residuals: dict[str, float] = {}

    # Channel: linear in (dB per airmass, system dB) at the two anchors.
    ref_geom = PassGeometry(
        orbit_altitude_km=config.orbit_altitude_km,
        max_elevation_deg=76.0,
        min_elevation_deg=config.min_elevation_deg,
    )
    probe = replace(config.link, zenith_transmittance=1.0, system_efficiency_db=0.0)
    anchors = [
        (config.min_elevation_deg, ref_geom.half_duration_s(), targets.loss_max_db),
        (76.0, 0.0, targets.loss_min_db),
    ]
    rows, rhs = [], []
    for elev, t, target in anchors:
        base_loss = link_loss_db(elev, t, ref_geom, probe)
        rows.append([1.0 / np.sin(np.deg2rad(elev)), 1.0])
        rhs.append(target - base_loss)
    x_db, sys_db = np.linalg.solve(np.array(rows), np.array(rhs))
    x_db = max(x_db, 0.0)
    sys_db = max(sys_db, 0.0)
    params["zenith_transmittance"] = float(10.0 ** (-x_db / 10.0))
    params["system_efficiency_db"] = float(sys_db)
    link = replace(
        config.link,
        zenith_transmittance=params["zenith_transmittance"],
        system_efficiency_db=params["system_efficiency_db"],
    )
    config = replace(config, link=link)
    residuals["loss_max_db"] = (
        link_loss_db(anchors[0][0], anchors[0][1], ref_geom, link) - targets.loss_max_db
    )
    residuals["loss_min_db"] = (
        link_loss_db(76.0, 0.0, ref_geom, link) - targets.loss_min_db
    )

    # Noise sources, one bounded scalar solve each.
    def deficit_with(noise_name: str, **kw) -> float:
        cfg = replace(config, toggles=NoiseToggles.only(noise_name), **kw)
        return 1.0 - analytic_mean_fidelity(cfg)

    lo, hi = CALIBRATION_BOUNDS["double_pair_fraction"]
    d, res = _solve_bounded(
        lambda v: deficit_with(
            "double_pair", source=replace(config.source, double_pair_fraction=v)
        )
        - targets.deficit_double_pair,
        lo,
        hi,
    )
    params["double_pair_fraction"] = d
    residuals["deficit_double_pair"] = res

    lo, hi = CALIBRATION_BOUNDS["mode_overlap"]
    m, res = _solve_bounded(
        lambda v: deficit_with("distinguishability", bsm=BsmModel(mode_overlap=v))
        - targets.deficit_distinguishability,
        lo,
        hi,
    )
    params["mode_overlap"] = m
    residuals["deficit_distinguishability"] = res

    lo, hi = CALIBRATION_BOUNDS["polarization_delta_rad"]
    delta, res = _solve_bounded(
        lambda v: deficit_with(
            "polarization", polarization=replace(config.polarization, delta_rad=v)
        )
        - targets.deficit_polarization,
        lo,
        hi,
    )
    params["polarization_delta_rad"] = delta
    residuals["deficit_polarization"] = res

    # Counts and background fraction: joint solve on (receiver efficiency,
    # background rate) through the exposure integrals.
    transmit = sum(orbit_exposure(config, o).transmit_integral_s for o in config.orbits)
    live = sum(orbit_exposure(config, o).live_time_s for o in config.orbits)
    window = config.detection.coincidence_window_s
    r4 = config.source.fourfold_ground_rate
    r3 = config.threefold_herald_rate

    def bg_deficit(eta: float, rate: float) -> float:
        cfg = replace(
            config,
            toggles=NoiseToggles.only("background"),
            detection=replace(
                config.detection, receiver_efficiency=eta, background_rate_hz=rate
            ),
        )
        return 1.0 - analytic_mean_fidelity(cfg)

    accidental_total = 2.0 * targets.deficit_background * targets.total_fourfolds
    eta = 0.5
    rate = 100.0
    for _ in range(24):
        signal_total = max(targets.total_fourfolds - accidental_total, 1e-9)
        eta = signal_total / (r4 * transmit)
        eta = float(np.clip(eta, *CALIBRATION_BOUNDS["receiver_efficiency"]))
        rate = accidental_total / (r3 * window * live)
        rate = float(np.clip(rate, *CALIBRATION_BOUNDS["background_rate_hz"]))
        deficit = bg_deficit(eta, rate)
        gap = targets.deficit_background - deficit
        if abs(gap) < 1e-12:
            break
        accidental_total *= 1.0 + np.clip(gap / max(targets.deficit_background, 1e-9), -0.5, 0.5)
    params["receiver_efficiency"] = eta
    params["background_rate_hz"] = rate
    residuals["deficit_background"] = bg_deficit(eta, rate) - targets.deficit_background
    residuals["total_fourfolds"] = (
        r4 * eta * transmit + r3 * rate * window * live - targets.total_fourfolds
    )

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


@dataclass(frozen=True)
class FibreComparison:
    total_loss_db: float
    transmittance: float
    expected_wait_s: float
    expected_wait_years: float


def fibre_comparison(
    fourfold_rate_hz: float, distance_km: float, loss_db_per_km: float
) -> FibreComparison:
    """Expected waiting time for one event through a long fibre of the
    given attenuation, at the given source rate."""
    if fourfold_rate_hz <= 0:
        raise ValueError("source rate must be positive")
    if distance_km < 0 or loss_db_per_km < 0:
        raise ValueError("distance and attenuation must be non-negative")
    loss_db = distance_km * loss_db_per_km
    transmittance = 10.0 ** (-loss_db / 10.0)
    wait_s = 1.0 / (fourfold_rate_hz * transmittance)
    return FibreComparison(
        total_loss_db=loss_db,
        transmittance=transmittance,
        expected_wait_s=wait_s,
        expected_wait_years=wait_s / SECONDS_PER_YEAR,
    )
