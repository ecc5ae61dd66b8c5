import warnings
from typing import NamedTuple

import numpy as np
import pytest

from uplinksim.bsm import werner_pair
from uplinksim.experiment import SourceModel
from uplinksim.qstate import (
    KET_H,
    KET_PLUS,
    KET_R,
    PureState,
    apply_unitary,
    fidelity,
)
from test_qstate import BellState, jones_hwp, jones_qwp


# The waveplate preparation of an input state: the check that each state the
# campaign sends can be made from |H> with one quarter- and one half-wave plate.
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


class TestSourceModel:
    def test_defaults_valid(self):
        src = SourceModel()
        assert src.fourfold_ground_rate == 8210.0

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            SourceModel(fourfold_ground_rate=-1.0)


class TestPrepareInput:
    def test_h_passthrough(self):
        prep = prepare_input(1.0, 0.0)
        assert fidelity(KET_H, prep.state.density()) > 1 - 1e-12

    def test_r_state(self):
        prep = prepare_input(1 / np.sqrt(2), 1j / np.sqrt(2))
        assert fidelity(KET_R, prep.state.density()) > 1 - 1e-12

    def test_plus_has_textbook_solution(self):
        # HWP at 22.5 deg with QWP at 0 is one valid plate setting for |+>.
        direct = apply_unitary(
            apply_unitary(KET_H, jones_qwp(0.0)), jones_hwp(np.deg2rad(22.5))
        )
        assert fidelity(KET_PLUS, direct.density()) > 1 - 1e-12

    def test_returned_angles_reproduce_state(self):
        # 1000 random points on the sphere, angles verified through the
        # full Jones pipeline.
        rng = np.random.default_rng(42)
        for _ in range(1000):
            amps = rng.normal(size=2) + 1j * rng.normal(size=2)
            amps /= np.linalg.norm(amps)
            prep = prepare_input(amps[0], amps[1])
            rebuilt = apply_unitary(
                apply_unitary(KET_H, jones_qwp(prep.qwp_angle)),
                jones_hwp(prep.hwp_angle),
            )
            assert fidelity(prep.state, rebuilt.density()) > 1 - 1e-10

    @pytest.mark.parametrize(
        "alpha, beta",
        [
            (1.0, 0.0),  # |H>, a pole
            (0.0, 1.0),  # |V>, the other pole
            (1 / np.sqrt(2), 1j / np.sqrt(2)),  # |R>, S3 = +1
            (1 / np.sqrt(2), -1j / np.sqrt(2)),  # |L>, S3 = -1
            (np.exp(0.7j) * 0.6, np.exp(0.7j) * 0.8j),  # global phase
            (0.0, 1j),  # beta only
            (1.0, -1e-17j),  # ellipticity a tiny negative angle
        ],
    )
    def test_edge_targets_give_reduced_angles(self, alpha, beta):
        prep = prepare_input(alpha, beta)
        for angle in (prep.hwp_angle, prep.qwp_angle):
            assert 0.0 <= angle < np.pi
        rebuilt = apply_unitary(
            apply_unitary(KET_H, jones_qwp(prep.qwp_angle)), jones_hwp(prep.hwp_angle)
        )
        assert fidelity(prep.state, rebuilt.density()) > 1 - 1e-10

    def test_unnormalized_warns(self):
        with pytest.warns(UserWarning):
            prep = prepare_input(1.0, 1.0)
        assert fidelity(KET_PLUS, prep.state.density()) > 1 - 1e-12

    def test_huge_amplitude_prepares_h(self):
        # |alpha|^2 overflows: the norm check must not raise OverflowError
        with pytest.warns(UserWarning, match="renormalizing"):
            prep = prepare_input(1e200, 0.0)
        assert prep.state.amplitudes.tolist() == [1, 0]
        assert (prep.hwp_angle, prep.qwp_angle) == (0.0, 0.0)

    @pytest.mark.parametrize("alpha, beta", [(np.nan, 0.0), (np.inf, 1.0), (1.0, complex(0, np.nan))])
    def test_non_finite_rejected(self, alpha, beta):
        # rejected before the renormalizing warning, and before NaN plate angles
        with pytest.raises(ValueError, match="alpha and beta must be finite"):
            prepare_input(alpha, beta)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            prepare_input(0.0, 0.0)


class TestWernerPair:
    def test_unit_fidelity_is_pure_bell(self):
        rho = werner_pair(1.0)
        np.testing.assert_allclose(
            rho.matrix, BellState.PHI_PLUS.state.density().matrix, atol=1e-15
        )

    def test_quarter_is_maximally_mixed(self):
        rho = werner_pair(0.25)
        np.testing.assert_allclose(rho.matrix, np.eye(4) / 4, atol=1e-15)

    def test_bench_value_mixing_weight(self):
        rho = werner_pair(0.933)
        p = (4 * 0.933 - 1) / 3
        assert p == pytest.approx(0.910667, abs=1e-6)
        phi = BellState.PHI_PLUS.state
        assert fidelity(phi, rho) == pytest.approx(0.933, abs=1e-12)

    def test_fidelity_reproduced_across_range(self):
        phi = BellState.PHI_PLUS.state
        for f in np.linspace(0.25, 1.0, 100):
            rho = werner_pair(f)  # constructor enforces PSD and trace
            assert fidelity(phi, rho) == pytest.approx(f, abs=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            werner_pair(0.2)
        with pytest.raises(ValueError):
            werner_pair(1.01)
