"""Models of the two pulsed pair sources feeding the teleporter.

One collinear module heralds the single photon whose state gets prepared
with waveplates; one non-collinear module supplies the entangled resource
pair.  Only the measured operating point enters the campaign: events are
drawn from the fourfold rate, not pulse by pulse.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .qstate import BellState, DensityMatrix, PureState


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
class PreparedInput:
    """A prepared single-qubit state and one waveplate setting producing it.

    The physical order is quarter-wave plate first, then half-wave plate,
    both fed with horizontally polarized light.  Angles are fast axes in
    radians from horizontal; a quarter-wave plate at 0 is diag(1, i).
    """

    state: PureState
    hwp_angle: float
    qwp_angle: float


def prepare_input(alpha: complex, beta: complex) -> PreparedInput:
    """Prepare alpha|H> + beta|V>, with the waveplate angles in closed form.

    On the Poincare sphere the target has Stokes azimuth
    psi = atan2(S2, S1)/2 and ellipticity chi = asin(S3)/2.  A quarter-wave
    plate at chi turns |H> into the ellipse of azimuth chi and ellipticity
    -chi; a half-wave plate at h mirrors it to azimuth 2h - chi and
    ellipticity chi, so h = (psi + chi)/2 (Hecht, Optics, ch. 8).

    The amplitudes must be finite and not both zero; they are normalized,
    with a warning if they are off by more than 1e-10.
    """
    if not np.isfinite((alpha, beta)).all():
        raise ValueError("alpha and beta must be finite")
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
