"""Models of the two pulsed pair sources feeding the teleporter.

One collinear module heralds the single photon whose state gets prepared
with waveplates; one non-collinear module supplies the entangled resource
pair.  Only the measured operating point enters the campaign: events are
drawn from the fourfold rate, not pulse by pulse.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np

# The source's operating point is defined with the campaign models, which
# the counting tier reads without loading this module.
from .experiment import SourceModel
from .qstate import BellState, DensityMatrix, PureState


class PreparedInput(NamedTuple):
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
    # products, not float powers: a power raises OverflowError for a huge
    # amplitude, while the product goes to inf and is renormalized below
    norm_sq = abs(alpha) * abs(alpha) + abs(beta) * abs(beta)
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
