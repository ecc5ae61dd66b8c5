"""Satellite pass geometry and uplink loss budget.

A circular two-body orbit over a spherical Earth is enough here: Earth
rotation and eccentricity shift a 350 s pass by well under the dB-level
accuracy of the loss model.  The loss budget combines a top-hat far-field
geometric factor, a Rayleigh pointing-jitter factor whose jitter grows
with the mount slew rate (alt-az mounts slew hardest through culmination),
and a plane-parallel atmosphere.  The signal wavelength is 780 nm
(degenerate down-conversion of the 390 nm pump).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qstate import PAULI_X, PAULI_Y

EARTH_RADIUS_KM = 6371.0
GM_EARTH_KM3_S2 = 398600.4418

# Fixed equatorial rotation axis of the uplink polarization distortion,
# midway between the diagonal and circular axes.
ROTATION_AXIS = (PAULI_X + PAULI_Y) / np.sqrt(2.0)


@dataclass(frozen=True)
class PassGeometry:
    """One overhead pass of a circular-orbit satellite.

    Elevations in degrees; `min_elevation` is where tracking starts and
    stops ("t" arguments everywhere are seconds relative to culmination).
    """

    orbit_altitude_km: float = 500.0
    max_elevation_deg: float = 76.0
    min_elevation_deg: float = 14.5
    earth_radius_km: float = EARTH_RADIUS_KM

    def __post_init__(self):
        if self.orbit_altitude_km <= 0:
            raise ValueError("orbit altitude must be positive")
        if not 0.0 < self.min_elevation_deg < self.max_elevation_deg <= 90.0:
            raise ValueError("need 0 < min_elevation < max_elevation <= 90 degrees")

    @property
    def orbital_rate(self) -> float:
        """Two-body angular rate in rad/s."""
        r = self.earth_radius_km + self.orbit_altitude_km
        return float(np.sqrt(GM_EARTH_KM3_S2 / r**3))

    @property
    def radius_ratio(self) -> float:
        return self.earth_radius_km / (self.earth_radius_km + self.orbit_altitude_km)

    def central_angle(self, elevation_deg: float) -> float:
        """Ground-to-satellite central angle (rad) at a given elevation."""
        eps = np.deg2rad(elevation_deg)
        return float(np.arccos(self.radius_ratio * np.cos(eps)) - eps)

    @property
    def min_central_angle(self) -> float:
        return self.central_angle(self.max_elevation_deg)

    def half_duration_s(self) -> float:
        """Seconds from culmination to the tracking limit."""
        beta_edge = self.central_angle(self.min_elevation_deg)
        ratio = np.cos(beta_edge) / np.cos(self.min_central_angle)
        return float(np.arccos(np.clip(ratio, -1.0, 1.0)) / self.orbital_rate)


@dataclass(frozen=True)
class LinkModel:
    """Uplink transmitter, pointing, and atmosphere parameters.

    Divergences and seeing are full angles in microradians; the two
    divergence axes describe the elliptical far-field spot.  The zenith
    transmittance, the lumped system efficiency and the slew degradation
    gain are calibration parameters; `slew_rate_ref` is the azimuth rate
    (rad/s) at which the tracking error doubles for unit gain.
    """

    divergence_x_urad: float = 24.0
    divergence_y_urad: float = 35.0
    seeing_urad: float = 5.0
    tracking_error_urad: float = 3.0
    receiver_diameter_m: float = 0.3
    zenith_transmittance: float = 0.8
    system_efficiency_db: float = 5.0
    slew_degradation_k: float = 1.0
    slew_rate_ref: float = 0.062

    def __post_init__(self):
        for name in (
            "divergence_x_urad",
            "divergence_y_urad",
            "seeing_urad",
            "tracking_error_urad",
            "receiver_diameter_m",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.receiver_diameter_m <= 0:
            raise ValueError("receiver diameter must be positive")
        if self.slew_rate_ref <= 0:
            raise ValueError("slew_rate_ref must be positive")
        if not 0.0 < self.zenith_transmittance <= 1.0:
            raise ValueError("zenith transmittance must lie in (0, 1]")
        if self.system_efficiency_db < 0:
            raise ValueError("system efficiency (dB) must be non-negative")
        if self.slew_degradation_k < 0:
            raise ValueError("slew degradation gain must be non-negative")


def slant_range(elevation_deg, geometry: PassGeometry):
    """Line-of-sight distance in km at the given elevation (degrees).

    Closed form: L = sqrt(R^2 sin^2(e) + 2 R h + h^2) - R sin(e).
    """
    elevation_deg = np.asarray(elevation_deg, dtype=float)
    if np.any(elevation_deg <= 0) or np.any(elevation_deg > 90):
        raise ValueError("elevation must lie in (0, 90] degrees")
    r = geometry.earth_radius_km
    h = geometry.orbit_altitude_km
    s = np.sin(np.deg2rad(elevation_deg))
    out = np.sqrt(r**2 * s**2 + 2 * r * h + h**2) - r * s
    return float(out) if out.ndim == 0 else out


def elevation_profile(geometry: PassGeometry, t_s):
    """Elevation in degrees at time t (s, relative to culmination).

    The central angle follows cos(beta(t)) = cos(beta_min) cos(w t); the
    profile is symmetric about t = 0 and peaks at max_elevation.
    """
    t_s = np.asarray(t_s, dtype=float)
    cos_beta = np.cos(geometry.min_central_angle) * np.cos(geometry.orbital_rate * t_s)
    beta = np.arccos(np.clip(cos_beta, -1.0, 1.0))
    elev = np.degrees(np.arctan2(cos_beta - geometry.radius_ratio, np.sin(beta)))
    return float(elev) if elev.ndim == 0 else elev


def azimuth_rate(geometry: PassGeometry, t_s):
    """Ground-mount azimuth rate (rad/s) along the pass.

    Peaks at culmination as w/sin(beta_min): near-overhead passes demand
    slews an alt-az mount can barely follow.
    """
    t_s = np.asarray(t_s, dtype=float)
    w = geometry.orbital_rate
    sin_b = max(np.sin(geometry.min_central_angle), 1e-6)
    phase = w * t_s
    rate = w * sin_b / (sin_b**2 * np.cos(phase) ** 2 + np.sin(phase) ** 2)
    return float(rate) if rate.ndim == 0 else rate


def effective_divergence(model: LinkModel) -> float:
    """Scalar far-field divergence in microradians.

    Seeing adds in quadrature on each axis; the elliptical result is
    collapsed to the geometric mean of the two axes.
    """
    ex = np.hypot(model.divergence_x_urad, model.seeing_urad)
    ey = np.hypot(model.divergence_y_urad, model.seeing_urad)
    return float(np.sqrt(ex * ey))


def pointing_jitter_urad(model: LinkModel, geometry: PassGeometry, t_s):
    """Tracking error inflated by the instantaneous slew demand."""
    rate = azimuth_rate(geometry, t_s)
    return model.tracking_error_urad * (
        1.0 + model.slew_degradation_k * rate / model.slew_rate_ref
    )


def link_loss_db(elevation_deg, t_s, geometry: PassGeometry, model: LinkModel):
    """Total uplink attenuation in dB at one instant of a pass.

    Combines the capped far-field geometric factor, the pointing factor
    1/(1 + (2 sigma_p / theta)^2), the plane-parallel atmosphere
    T_zenith^(1/sin e), and the lumped system efficiency.
    """
    elevation_deg = np.asarray(elevation_deg, dtype=float)
    if np.any(elevation_deg <= 0):
        raise ValueError("elevation must be positive")
    theta = effective_divergence(model)
    spot_m = theta * 1e-6 * slant_range(elevation_deg, geometry) * 1e3
    eta_geo = np.minimum(1.0, (model.receiver_diameter_m / spot_m) ** 2)
    sigma = pointing_jitter_urad(model, geometry, t_s)
    eta_point = 1.0 / (1.0 + (2.0 * sigma / theta) ** 2)
    airmass = 1.0 / np.sin(np.deg2rad(elevation_deg))
    eta_atm = model.zenith_transmittance**airmass
    loss = -10.0 * np.log10(eta_geo * eta_point * eta_atm) + model.system_efficiency_db
    return float(loss) if loss.ndim == 0 else loss


def polarization_distortion(
    delta: float, jitter_sigma: float, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Single-qubit unitary modelling uplink polarization distortion.

    Rotates the Bloch vector by twice the drawn angle about the fixed
    equatorial axis midway between the diagonal and circular axes, so both
    superposition families degrade alike while |H>/|V> see the full
    rotation; fidelity of |H> after a pure rotation by delta is cos^2(delta).
    """
    angle = float(delta)
    if jitter_sigma < 0:
        raise ValueError("jitter sigma must be non-negative")
    if jitter_sigma > 0:
        if rng is None:
            raise ValueError("jitter requires a random generator")
        angle += rng.normal(0.0, jitter_sigma)
    return np.cos(angle) * np.eye(2, dtype=complex) - 1j * np.sin(angle) * ROTATION_AXIS


def polarization_channel(rho: np.ndarray, delta: float, jitter_sigma: float) -> np.ndarray:
    """Average of the distortion over Gaussian angle jitter, in closed form.

    A rotation by 2a with a ~ N(delta, sigma^2) leaves the Bloch component
    along the axis n alone and turns the rest by 2 delta while damping it by
    E[cos 2a]/cos 2delta = exp(-2 sigma^2), so the channel is
    lam U rho U^dag + (1 - lam) (rho + n rho n)/2 with lam = exp(-2 sigma^2).
    """
    u = polarization_distortion(delta, 0.0)
    lam = np.exp(-2.0 * jitter_sigma**2)
    dephased = (rho + ROTATION_AXIS @ rho @ ROTATION_AXIS) / 2.0
    return lam * (u @ rho @ u.conj().T) + (1.0 - lam) * dephased


def loss_profile(
    geometry: PassGeometry, model: LinkModel, duration_s: float
) -> list[tuple[float, float, float, float]]:
    """Sampled pass table: (t_s, elevation_deg, range_km, loss_db).

    Samples a window of `duration_s` centred on culmination at 1 s steps,
    clipped to the tracking window, inclusive of both endpoints.
    """
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    half = min(duration_s / 2.0, geometry.half_duration_s())
    n = int(np.floor(half))
    times = np.arange(-n, n + 1, dtype=float)
    elev = elevation_profile(geometry, times)
    rng_km = slant_range(elev, geometry)
    loss = link_loss_db(elev, times, geometry, model)
    return [
        (float(t), float(e), float(r), float(l))
        for t, e, r, l in zip(times, elev, rng_km, loss)
    ]
