import numpy as np
import pytest

from uplinksim.linkgeom import (
    ROTATION_AXIS,
    LinkModel,
    PassGeometry,
    azimuth_rate,
    effective_divergence,
    elevation_profile,
    link_loss_db,
    loss_profile,
    loss_profiles,
    pointing_jitter_urad,
    polarization_channel,
    polarization_channel_bloch,
    polarization_distortion,
    slant_range,
)
from uplinksim.qstate import (
    KET_H,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PureState,
    apply_unitary,
    fidelity,
)


def calibrated_link(slew_k: float = 1.0) -> LinkModel:
    """Solve the two-endpoint attenuation anchors (52 dB at the 14.5 deg
    edge, 41 dB at culmination of a 76 deg pass) for the atmosphere and
    system terms, independently of the package calibration code."""
    g = PassGeometry()
    base = LinkModel(slew_degradation_k=slew_k)
    theta = effective_divergence(base)
    anchors = [(14.5, g.half_duration_s(), 52.0), (76.0, 0.0, 41.0)]
    rows, rhs = [], []
    for elev, t, target in anchors:
        spot = theta * 1e-6 * slant_range(elev, g) * 1e3
        geo = -10 * np.log10(min(1.0, (base.receiver_diameter_m / spot) ** 2))
        sig = pointing_jitter_urad(base, g, t)
        point = -10 * np.log10(1 / (1 + (2 * sig / theta) ** 2))
        rows.append([1 / np.sin(np.deg2rad(elev)), 1.0])
        rhs.append(target - geo - point)
    x, s = np.linalg.solve(np.array(rows), np.array(rhs))
    return LinkModel(
        zenith_transmittance=10 ** (-x / 10),
        system_efficiency_db=s,
        slew_degradation_k=slew_k,
    )


class TestSlantRange:
    def test_zenith_equals_altitude(self):
        g = PassGeometry(max_elevation_deg=90.0, min_elevation_deg=10.0)
        assert slant_range(90.0, g) == pytest.approx(500.0, abs=1e-9)

    def test_edge_of_tracking(self):
        assert slant_range(14.5, PassGeometry()) == pytest.approx(1432.298, abs=1e-3)

    def test_culmination_of_design_pass(self):
        # Closed form; consistent with the published ~500 km minimum.
        val = slant_range(76.0, PassGeometry())
        assert val == pytest.approx(514.146, abs=1e-3)
        assert abs(val - 500.0) / 500.0 < 0.03

    def test_against_law_of_cosines(self):
        g = PassGeometry()
        r, rs = g.earth_radius_km, g.earth_radius_km + g.orbit_altitude_km
        for elev in np.linspace(1.0, 90.0, 90):
            beta = g.central_angle(elev)
            oracle = np.sqrt(r**2 + rs**2 - 2 * r * rs * np.cos(beta))
            assert slant_range(elev, g) == pytest.approx(oracle, abs=1e-6)

    def test_strictly_decreasing_in_elevation(self):
        g = PassGeometry()
        grid = slant_range(np.linspace(1.0, 90.0, 200), g)
        assert np.all(np.diff(grid) < 0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            slant_range(0.0, PassGeometry())
        with pytest.raises(ValueError):
            slant_range(-5.0, PassGeometry())


class TestElevationProfile:
    def test_culmination_hits_max_elevation(self):
        g = PassGeometry()
        assert elevation_profile(g, 0.0) == pytest.approx(76.0, abs=1e-9)

    def test_symmetric_in_time(self):
        g = PassGeometry()
        t = np.linspace(0.0, 180.0, 50)
        np.testing.assert_allclose(
            elevation_profile(g, t), elevation_profile(g, -t), atol=1e-12
        )

    def test_design_pass_duration(self):
        # Two-body rate: sqrt(GM/(R+h)^3) = 1.1085e-3 rad/s, so the 76 deg
        # pass stays above the 14.5 deg tracking limit for about 365 s,
        # consistent with the published 350 s data window.
        g = PassGeometry()
        assert g.orbital_rate == pytest.approx(1.1085e-3, abs=2e-7)
        assert 2 * g.half_duration_s() == pytest.approx(365.2, abs=0.5)
        assert abs(2 * g.half_duration_s() - 350.0) <= 20.0

    def test_degenerate_geometry_rejected(self):
        with pytest.raises(ValueError):
            PassGeometry(max_elevation_deg=14.5, min_elevation_deg=14.5)
        with pytest.raises(ValueError):
            PassGeometry(max_elevation_deg=10.0, min_elevation_deg=20.0)

    def test_azimuth_rate_peaks_at_culmination(self):
        g = PassGeometry()
        t = np.linspace(-180, 180, 101)
        rates = azimuth_rate(g, t)
        assert np.argmax(rates) == 50
        assert azimuth_rate(g, 0.0) == pytest.approx(
            g.orbital_rate / np.sin(g.min_central_angle), rel=1e-12
        )


class TestEffectiveDivergence:
    def test_seeing_adds_in_quadrature(self):
        m = LinkModel(divergence_x_urad=14.0, divergence_y_urad=14.0, seeing_urad=5.0)
        assert effective_divergence(m) == pytest.approx(14.87, abs=0.01)

    def test_zero_seeing_passthrough(self):
        m = LinkModel(divergence_x_urad=14.0, divergence_y_urad=14.0, seeing_urad=0.0)
        assert effective_divergence(m) == pytest.approx(14.0, abs=1e-12)

    def test_elliptical_geometric_mean(self):
        m = LinkModel(divergence_x_urad=24.0, divergence_y_urad=35.0, seeing_urad=0.0)
        assert effective_divergence(m) == pytest.approx(28.98, abs=0.01)


class TestLinkLoss:
    def test_calibrated_endpoints(self):
        g = PassGeometry()
        m = calibrated_link()
        edge = link_loss_db(14.5, g.half_duration_s(), g, m)
        culm = link_loss_db(76.0, 0.0, g, m)
        assert abs(edge - 52.0) <= 2.0
        assert abs(culm - 41.0) <= 2.0

    def test_huge_receiver_caps_at_system_floor(self):
        g = PassGeometry()
        m = LinkModel(
            receiver_diameter_m=1e6,
            tracking_error_urad=0.0,
            zenith_transmittance=1.0,
            system_efficiency_db=5.0,
        )
        assert link_loss_db(45.0, 0.0, g, m) == pytest.approx(5.0, abs=1e-12)

    def test_increases_with_range_at_fixed_pointing(self):
        g = PassGeometry()
        m = calibrated_link()
        elev = np.linspace(90.0, 1.0, 120)
        loss = link_loss_db(elev, np.zeros_like(elev), g, m)
        assert np.all(np.diff(loss) > 0)

    def test_nonpositive_elevation_rejected(self):
        with pytest.raises(ValueError):
            link_loss_db(-1.0, 0.0, PassGeometry(), LinkModel())

    def test_profile_within_published_band(self):
        g = PassGeometry()
        m = calibrated_link()
        rows = loss_profile(g, m, duration_s=350.0)
        assert len(rows) == 351
        losses = np.array([r[3] for r in rows])
        assert losses.min() >= 41.0 - 2.0
        assert losses.max() <= 52.0 + 2.0
        # Extremes at the elevation extremes: the largest loss sits at the
        # window edges, the smallest near (not exactly at) culmination
        # because the slew-degradation bump lifts the middle.
        assert np.argmax(losses) in (0, len(rows) - 1)
        t_min = rows[int(np.argmin(losses))][0]
        assert abs(t_min) <= 60.0
        assert abs(t_min) > 1.0  # the bump pushes the minimum off culmination

    def test_batched_profiles_need_shared_passes(self):
        m = calibrated_link()
        with pytest.raises(ValueError, match="at least one pass"):
            loss_profiles((), m, 350.0)
        mixed = (PassGeometry(), PassGeometry(orbit_altitude_km=600.0))
        with pytest.raises(ValueError, match="share altitude"):
            loss_profiles(mixed, m, 350.0)
        for duration in (0.0, np.nan):
            with pytest.raises(ValueError, match="duration must be positive"):
                loss_profiles((PassGeometry(),), m, duration)

    def test_culmination_bump_from_slew_degradation(self):
        g = PassGeometry()
        m = calibrated_link()
        quiet = LinkModel(
            zenith_transmittance=m.zenith_transmittance,
            system_efficiency_db=m.system_efficiency_db,
            slew_degradation_k=0.0,
        )
        with_bump = link_loss_db(76.0, 0.0, g, m)
        without = link_loss_db(76.0, 0.0, g, quiet)
        assert with_bump - without > 0.2


class TestPolarizationDistortion:
    def test_identity_when_quiet(self):
        u = polarization_distortion(0.0)
        np.testing.assert_allclose(u, np.eye(2), atol=1e-15)

    @pytest.mark.parametrize("delta", [0.05, 0.2, 0.7])
    def test_h_fidelity_is_cos_squared(self, delta):
        u = polarization_distortion(delta)
        out = apply_unitary(KET_H, u)
        assert fidelity(KET_H, out.density()) == pytest.approx(
            np.cos(delta) ** 2, abs=1e-12
        )

    def test_unitary_with_jitter(self):
        rng = np.random.default_rng(5)
        for angle in 0.1 + rng.normal(0.0, 0.05, size=20):
            u = polarization_distortion(angle)
            np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)

    def test_superposition_families_degrade_alike(self):
        u = polarization_distortion(0.3)
        plus = apply_unitary(PureState([1, 1]), u)
        circ = apply_unitary(PureState([1, 1j]), u)
        f_plus = fidelity(PureState([1, 1]), plus.density())
        f_circ = fidelity(PureState([1, 1j]), circ.density())
        assert f_plus == pytest.approx(f_circ, abs=1e-12)
        assert f_plus == pytest.approx(1 - np.sin(0.3) ** 2 / 2, abs=1e-12)

    def test_huge_jitter_is_the_fully_dephased_limit(self):
        # exp(-2 sigma^2) underflows to 0 instead of overflowing sigma^2
        rho = PureState([1, 0.6 + 0.8j]).density().matrix
        dephased = (rho + ROTATION_AXIS @ rho @ ROTATION_AXIS) / 2.0
        np.testing.assert_allclose(polarization_channel(rho, 0.2, 1e300), dephased, atol=1e-15)
        # the Bloch form keeps (v.n)n, also at an angle whose double overflows
        assert polarization_channel_bloch((0.5, -0.25, 0.75), 1e308, 1e300) == (0.125, 0.125, 0.0)

    def test_bloch_channel_matches_density_matrix_channel(self):
        # Generic vectors pin the rotation sense, +2 delta about n: on the six
        # test states +2 delta and -2 delta give the same port probabilities.
        rng = np.random.default_rng(11)
        paulis = (PAULI_X, PAULI_Y, PAULI_Z)
        for _ in range(200):
            v = rng.normal(size=3)
            v *= rng.uniform(0.0, 1.0) / np.linalg.norm(v)
            delta, sigma = rng.uniform(-np.pi, np.pi), rng.uniform(0.0, 1.0)
            rho = (np.eye(2) + sum(c * p for c, p in zip(v, paulis))) / 2.0
            for angle in (delta, 1e300 * delta):  # a huge angle is reduced exactly
                out = polarization_channel(rho, angle, sigma)
                expected = [np.real(np.trace(out @ p)) for p in paulis]
                got = polarization_channel_bloch(tuple(v.tolist()), angle, sigma)
                np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12)
