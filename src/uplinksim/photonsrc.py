"""Models of the two pulsed pair sources feeding the teleporter.

One collinear module heralds the single photon whose state gets prepared
with waveplates; one non-collinear module supplies the entangled resource
pair.  Emission is sampled at the event level from the measured count
rates rather than pulse by pulse: with tens of expected detections per
pass, simulating 2.8e10 pump pulses would be waste.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from .qstate import (
    KET_H,
    BellState,
    DensityMatrix,
    PureState,
    apply_unitary,
    fidelity,
    jones_hwp,
    jones_qwp,
)


@dataclass(frozen=True)
class SourceModel:
    """Measured operating point of the multiplexed four-photon source.

    Rates are counts per second on the ground bench; `double_pair_fraction`
    is the fraction of heralded events caused by a same-crystal double pair,
    and `entangled_fidelity` the bench fidelity of the resource pair.
    """

    rep_rate: float = 80e6
    trigger_rate: float = 5.7e5
    pair_rate: float = 1.0e6
    entangled_fidelity: float = 0.933
    double_pair_fraction: float = 0.0
    num_modules: int = 2
    fourfold_ground_rate: float = 8210.0

    def __post_init__(self):
        for name in ("rep_rate", "trigger_rate", "pair_rate", "fourfold_ground_rate"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not 0.25 <= self.entangled_fidelity <= 1.0:
            raise ValueError("entangled_fidelity must lie in [1/4, 1]")
        if not 0.0 <= self.double_pair_fraction < 1.0:
            raise ValueError("double_pair_fraction must lie in [0, 1)")
        if self.num_modules < 1:
            raise ValueError("num_modules must be >= 1")


class EmissionEvent(enum.Enum):
    NONE = "none"
    SINGLE_PAIR = "single_pair"
    DOUBLE_PAIR = "double_pair"


@dataclass(frozen=True)
class PreparedInput:
    """A prepared single-qubit state and one waveplate setting producing it.

    The physical order is quarter-wave plate first, then half-wave plate,
    both fed with horizontally polarized light.
    """

    state: PureState
    hwp_angle: float
    qwp_angle: float


def _waveplate_state(hwp_angle: float, qwp_angle: float) -> PureState:
    prepared = apply_unitary(KET_H, jones_qwp(qwp_angle))
    return apply_unitary(prepared, jones_hwp(hwp_angle))


def prepare_input(alpha: complex, beta: complex) -> PreparedInput:
    """Prepare alpha|H> + beta|V>, with the waveplate angles in closed form.

    On the Poincare sphere the target has Stokes azimuth
    psi = atan2(S2, S1)/2 and ellipticity chi = asin(S3)/2.  A quarter-wave
    plate at chi turns |H> into the ellipse of azimuth chi and ellipticity
    -chi; a half-wave plate at h mirrors it to azimuth 2h - chi and
    ellipticity chi, so h = (psi + chi)/2 (Hecht, Optics, ch. 8).

    The amplitudes are normalized (with a warning if they are off by more
    than 1e-10); both amplitudes zero is rejected.
    """
    norm_sq = abs(alpha) ** 2 + abs(beta) ** 2
    if norm_sq < 1e-24:
        raise ValueError("alpha and beta cannot both be zero")
    if abs(norm_sq - 1.0) > 1e-10:
        warnings.warn(
            f"|alpha|^2 + |beta|^2 = {norm_sq:.6g}, renormalizing", stacklevel=2
        )
    target = PureState([alpha, beta])
    a, b = target.amplitudes
    cross = np.conj(a) * b
    psi = 0.5 * np.arctan2(2.0 * cross.real, abs(a) ** 2 - abs(b) ** 2)
    # S3 of a normalized state can exceed 1 by rounding at the circular poles.
    chi = 0.5 * np.arcsin(np.clip(2.0 * cross.imag, -1.0, 1.0))
    # The second % maps a tiny negative angle, which one % rounds up to
    # exactly pi, to 0, so both angles lie in [0, pi).
    hwp = float(0.5 * (psi + chi) % np.pi % np.pi)
    qwp = float(chi % np.pi % np.pi)
    # Confirm through the full Jones pipeline.
    if fidelity(target, _waveplate_state(hwp, qwp).density()) < 1 - 1e-10:
        raise RuntimeError("closed-form waveplate angles do not reproduce the target")
    return PreparedInput(state=target, hwp_angle=hwp, qwp_angle=qwp)


def werner_pair(f_ent: float) -> DensityMatrix:
    """Entangled resource with white-noise admixture matching fidelity f_ent.

    Returns p |phi+><phi+| + (1-p) I/4 with p = (4 f_ent - 1)/3, the
    single-parameter model used for the bench-measured pair fidelity.
    """
    if not 0.25 <= f_ent <= 1.0:
        raise ValueError("entangled fidelity must lie in [1/4, 1]")
    p = (4.0 * f_ent - 1.0) / 3.0
    phi = BellState.PHI_PLUS.state.density().matrix
    return DensityMatrix(p * phi + (1.0 - p) * np.eye(4) / 4.0)


def sample_emission(source: SourceModel, rng: np.random.Generator) -> EmissionEvent:
    """Draw one pump-pulse emission outcome from the rate model.

    An emission happens with probability pair_rate/rep_rate; conditional on
    emitting, the double-pair branch is taken with double_pair_fraction.
    """
    p_emit = min(source.pair_rate / source.rep_rate, 1.0) if source.rep_rate > 0 else 0.0
    if rng.random() >= p_emit:
        return EmissionEvent.NONE
    if rng.random() < source.double_pair_fraction:
        return EmissionEvent.DOUBLE_PAIR
    return EmissionEvent.SINGLE_PAIR


def multiplex_rate(rates: list[float] | tuple[float, ...]) -> float:
    """Combined rate of independent source modules sharing one pump."""
    if any(r < 0 for r in rates):
        raise ValueError("rates must be non-negative")
    return float(sum(rates))
