import numpy as np
import pytest

from uplinksim.linkgeom import (
    EARTH_RADIUS_KM,
    GM_EARTH_KM3_S2,
    SLEW_RATE_REF,
    ROTATION_AXIS,
    LinkModel,
    PassGeometry,
    azimuth_rate,
    central_angle,
    effective_divergence,
    link_loss_db,
    loss_profile,
    loss_profiles,
    pass_table,
    _channel_bloch,
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


def polarization_channel(rho: np.ndarray, delta: float, jitter_sigma: float) -> np.ndarray:
    """Oracle for `_channel_bloch`: the distortion averaged over
    Gaussian angle jitter, on the density matrix, in closed form.

    A rotation by 2a with a ~ N(delta, sigma^2) leaves the Bloch component
    along the axis n alone and turns the rest by 2 delta while damping it by
    E[cos 2a]/cos 2delta = exp(-2 sigma^2), so the channel is
    lam U rho U^dag + (1 - lam) (rho + n rho n)/2 with lam = exp(-2 sigma^2).
    """
    u = polarization_distortion(delta)
    # a product, not sigma**2: a float power raises OverflowError for huge
    # sigma, while the product goes to inf and lam to the dephased limit 0
    lam = np.exp(-2.0 * jitter_sigma * jitter_sigma)
    dephased = (rho + ROTATION_AXIS @ rho @ ROTATION_AXIS) / 2.0
    return lam * (u @ rho @ u.conj().T) + (1.0 - lam) * dephased


def elevation_profile(geometry: PassGeometry, t_s):
    """Oracle for the elevation column of `loss_profiles`: the elevation in
    degrees at time t (s, relative to culmination) of one pass on its own.

    The central angle follows cos(beta(t)) = cos(beta_min) cos(w t); the
    profile is symmetric about t = 0 and peaks at max_elevation.
    """
    phase = geometry.orbital_rate * np.asarray(t_s, dtype=float)
    cos_beta = np.cos(geometry.min_central_angle) * np.cos(phase)
    beta = np.arccos(np.clip(cos_beta, -1.0, 1.0))
    elev = np.degrees(np.arctan2(cos_beta - geometry.table.radius_ratio, np.sin(beta)))
    return float(elev) if elev.ndim == 0 else elev


def pointing_jitter_urad(model: LinkModel, geometry: PassGeometry, t_s):
    """Tracking error inflated by the instantaneous slew demand."""
    rate = azimuth_rate(geometry, t_s)
    return model.tracking_error_urad * (1.0 + model.slew_degradation_k * rate / SLEW_RATE_REF)


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


def scalar_pass(
    orbit_altitude_km: float, max_elevation_deg: float, min_elevation_deg: float
) -> tuple[float, float, float, float]:
    """Oracle for `pass_table`: one pass checked and computed in scalars,
    as a pass was built on its own before the table.  Returns the orbital
    rate, the radius ratio, beta_min and the half duration."""
    if orbit_altitude_km <= 0:
        raise ValueError("orbit altitude must be positive")
    if not 0.0 < min_elevation_deg < max_elevation_deg <= 90.0:
        raise ValueError("need 0 < min_elevation < max_elevation <= 90 degrees")
    r = EARTH_RADIUS_KM + orbit_altitude_km
    rate = float(np.sqrt(GM_EARTH_KM3_S2 / (r * r * r)))
    if not 0.0 < rate < np.inf:
        raise ValueError(
            f"orbit_altitude_km = {orbit_altitude_km:g} gives no finite, positive orbital rate"
        )
    ratio = EARTH_RADIUS_KM / r

    def angle(elevation_deg):
        eps = np.deg2rad(elevation_deg)
        return float(np.arccos(ratio * np.cos(eps)) - eps)

    beta_min = angle(max_elevation_deg)
    cos_ratio = np.cos(angle(min_elevation_deg)) / np.cos(beta_min)
    half = float(np.arccos(np.clip(cos_ratio, -1.0, 1.0)) / rate)
    if not half > 0.0:
        raise ValueError(
            f"orbit_altitude_km = {orbit_altitude_km:g} gives a pass of 0 s "
            f"between {min_elevation_deg:g} and {max_elevation_deg:g} degrees"
        )
    return rate, ratio, beta_min, half


def first_pass_error(build, orbit_altitude_km, max_elevations_deg, min_elevation_deg=14.5):
    """The message of the first pass that `build(altitude, culmination,
    tracking limit)` rejects, building the passes one by one."""
    for e in max_elevations_deg:
        try:
            build(orbit_altitude_km, e, min_elevation_deg)
        except ValueError as err:
            return str(err)
    return None


# Campaign passes that give no pass, with the default culminations (76 down
# to 20 degrees) and the tracking limit of 14.5 degrees unless changed; a
# bad culmination sits at the sixth pass.
DEFAULT_CULMINATIONS = tuple(np.linspace(76.0, 20.0, 32).tolist())
NO_PASS = {
    "altitude 0": (0.0, DEFAULT_CULMINATIONS),
    "altitude -1": (-1.0, DEFAULT_CULMINATIONS),
    "altitude nan": (float("nan"), DEFAULT_CULMINATIONS),
    "altitude 1e-12 (a 0 s pass)": (1e-12, DEFAULT_CULMINATIONS),
    "altitude 1e300": (1e300, DEFAULT_CULMINATIONS),
    "culmination at the tracking limit": (500.0, (*DEFAULT_CULMINATIONS[:5], 14.5)),
    "culmination above 90": (500.0, (*DEFAULT_CULMINATIONS[:5], 90.5, 30.0)),
    "culmination above 90 and altitude 1e300": (1e300, (*DEFAULT_CULMINATIONS[:5], 90.5)),
    "first culmination above 90 and altitude 1e300": (1e300, (90.5, *DEFAULT_CULMINATIONS)),
    "culmination nan": (500.0, (*DEFAULT_CULMINATIONS[:5], float("nan"))),
    "culmination inf": (500.0, (*DEFAULT_CULMINATIONS[:5], float("inf"))),
}


class TestPassTable:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_scalar_oracle_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            altitude = float(rng.uniform(150.0, 3000.0))
            min_elevation = float(rng.uniform(0.5, 30.0))
            culminations = rng.uniform(min_elevation + 1e-6, 90.0, size=rng.integers(1, 40))
            table = pass_table(altitude, min_elevation, culminations)
            for k, e in enumerate(culminations.tolist()):
                rate, ratio, beta_min, half = scalar_pass(altitude, e, min_elevation)
                assert (table.orbital_rate, table.radius_ratio) == (rate, ratio)
                assert (table.min_central_angle[k], table.half_duration_s[k]) == (beta_min, half)
                g = PassGeometry(altitude, e, min_elevation)
                assert (g.orbital_rate, g.table.radius_ratio) == (rate, ratio)
                assert (g.min_central_angle, g.half_duration_s()) == (beta_min, half)

    @pytest.mark.parametrize("name", NO_PASS)
    def test_rejects_what_each_pass_rejects(self, name):
        altitude, culminations = NO_PASS[name]
        expected = first_pass_error(PassGeometry, altitude, culminations)
        assert expected is not None
        assert first_pass_error(scalar_pass, altitude, culminations) == expected
        with pytest.raises(ValueError) as info:
            pass_table(altitude, 14.5, culminations)
        assert str(info.value) == expected

    def test_earth_radius_is_a_constant(self):
        assert PassGeometry().earth_radius_km == PassGeometry.earth_radius_km == EARTH_RADIUS_KM
        assert EARTH_RADIUS_KM == 6371.0
        with pytest.raises(TypeError):
            PassGeometry(earth_radius_km=6000.0)
        with pytest.raises(TypeError):
            pass_table(500.0, 14.5, (76.0,), earth_radius_km=6000.0)
        assert "earth_radius_km" not in pass_table(500.0, 14.5, (76.0,))._fields

    def test_tracking_limit_edges_rejected(self):
        for limit in (0.0, -1.0, float("nan"), 80.0):
            expected = first_pass_error(scalar_pass, 500.0, DEFAULT_CULMINATIONS, limit)
            with pytest.raises(ValueError) as info:
                pass_table(500.0, limit, DEFAULT_CULMINATIONS)
            assert str(info.value) == expected


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
            beta = central_angle(g.table.radius_ratio, elev)
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

    @pytest.mark.parametrize("elevation", [np.nan, [45.0, np.nan], -30.0, 120.0])
    def test_elevation_outside_range_rejected(self, elevation):
        # NaN used to give a NaN range and loss where -30 and 120 raised.
        g, m = PassGeometry(), LinkModel()
        for call in (lambda: slant_range(elevation, g), lambda: link_loss_db(elevation, 0.0, g, m)):
            with pytest.raises(ValueError, match=r"elevation must lie in \(0, 90\] degrees"):
                call()

    @pytest.mark.parametrize("t_s", [np.nan, np.inf, -np.inf, [0.0, np.nan]])
    def test_time_not_finite_rejected(self, t_s):
        g, m = PassGeometry(), LinkModel()
        for call in (lambda: azimuth_rate(g, t_s), lambda: link_loss_db(45.0, t_s, g, m)):
            with pytest.raises(ValueError, match="time must be finite"):
                call()

    # the last factor rounds to a time one float or more past the limit
    @pytest.mark.parametrize("halves", [10.0, -10.0, [0.0, 1.5], 1.0 + 2.0**-52])
    def test_time_outside_pass_rejected(self, halves):
        # 76 degrees at ten half-durations read 40.52 dB, a loss no point of
        # the pass has.  The tracking limit itself, either side, is in the pass.
        g, m = PassGeometry(), LinkModel()
        half = g.half_duration_s()
        t_s = np.multiply(halves, half)
        assert np.max(np.abs(t_s)) > half
        with pytest.raises(ValueError, match="time must lie within the pass"):
            link_loss_db(76.0, t_s, g, m)
        assert np.isfinite(link_loss_db(14.5, [-half, half], g, m)).all()

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

    def test_batched_profiles_need_passes_and_a_positive_duration(self):
        # A `PassTable` cannot mix altitudes, so only the empty table and
        # the duration remain to reject.
        m = calibrated_link()
        with pytest.raises(ValueError, match="at least one pass"):
            loss_profiles(pass_table(500.0, 14.5, ()), m, 350.0)
        table = pass_table(500.0, 14.5, (76.0, 40.0))
        for duration in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError, match="duration must be positive"):
                loss_profiles(table, m, duration)
        # the full passes, each evaluated at t >= 0 and mirrored about culmination
        sizes, index, sin_e, range_km, transmittance = loss_profiles(table, m, np.inf)
        halves = [int(h) for h in table.half_duration_s]
        assert sizes.tolist() == [2 * h + 1 for h in halves]
        assert len(sin_e) == len(range_km) == len(transmittance) == sum(h + 1 for h in halves)
        assert len(index) == sizes.sum()
        first = sin_e[index[: sizes[0]]]
        assert np.array_equal(index[: sizes[0]], np.abs(np.arange(-halves[0], halves[0] + 1)))
        assert np.array_equal(first, first[::-1])

    def test_closed_form_matches_trig_oracle_over_drawn_passes(self):
        # Each kernel sample against the elevation, slant range and dB loss
        # of the trig path: seeded draws of altitude (300-1200 km), tracking
        # limit (5-30 deg), culminations (90 deg in every draw) and duration
        # (the full pass in every third draw).
        rng = np.random.default_rng(31)
        m = calibrated_link()
        for draw in range(12):
            altitude = float(rng.uniform(300.0, 1200.0))
            low = float(rng.uniform(5.0, 30.0))
            culminations = [*rng.uniform(low + 0.1, 90.0, size=5).tolist(), 90.0]
            duration = np.inf if draw % 3 == 0 else float(rng.uniform(1.0, 1200.0))
            table = pass_table(altitude, low, culminations)
            sizes, index, sin_e, range_km, transmittance = loss_profiles(table, m, duration)
            ends = np.cumsum(sizes)
            for culmination, start, end in zip(culminations, ends - sizes, ends):
                g = PassGeometry(altitude, culmination, low)
                half = (end - start - 1) // 2
                times = np.arange(-half, half + 1.0)
                elev = elevation_profile(g, times)
                rows = index[start:end]
                expected = (
                    np.sin(np.deg2rad(elev)),
                    slant_range(elev, g),
                    10.0 ** (-link_loss_db(elev, times, g, m) / 10.0),
                )
                for got, want in zip((sin_e, range_km, transmittance), expected):
                    np.testing.assert_allclose(got[rows], want, rtol=1e-12, atol=0.0)
                if culmination == 90.0:
                    assert sin_e[rows[half]] == 1.0

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

    @pytest.mark.parametrize("delta", [np.nan, np.inf, -np.inf])
    def test_angle_not_finite_rejected(self, delta):
        with pytest.raises(ValueError, match="polarization angle delta must be finite"):
            polarization_distortion(delta)

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
        assert _channel_bloch([(0.5, -0.25, 0.75)], 1e308, 1e300)[0] == (0.125, 0.125, 0.0)

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
                got = _channel_bloch([tuple(v.tolist())], angle, sigma)[0]
                np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12)
