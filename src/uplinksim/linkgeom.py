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

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np

EARTH_RADIUS_KM = 6371.0
GM_EARTH_KM3_S2 = 398600.4418
SLEW_RATE_REF = 0.062  # azimuth rate (rad/s) that doubles the tracking error at unit slew gain

# Fixed equatorial rotation axis of the uplink polarization distortion,
# midway between the diagonal and circular axes: (X + Y)/sqrt(2) in Paulis.
ROTATION_AXIS = np.array([[0, 1 - 1j], [1 + 1j, 0]]) / np.sqrt(2.0)


class PassTable(NamedTuple):
    """Passes that share altitude and tracking limit: the shared scalars,
    then beta_min (rad) and the half duration (s, from culmination to the
    tracking limit) of each pass as arrays."""

    orbit_altitude_km: float
    orbital_rate: float  # two-body angular rate in rad/s
    radius_ratio: float
    min_central_angle: np.ndarray
    half_duration_s: np.ndarray


def central_angle(radius_ratio: float, elevation_deg):
    """Ground-to-satellite central angle (rad) at the given elevation(s)."""
    eps = np.deg2rad(elevation_deg)
    return np.arccos(radius_ratio * np.cos(eps)) - eps


def pass_table(
    orbit_altitude_km: float, min_elevation_deg: float, max_elevations_deg: Sequence[float]
) -> PassTable:
    """The passes with the given culmination elevations (degrees), in one
    ufunc chain over all of them.  The first pass that gives none raises
    the error that building its `PassGeometry` alone raises.
    """
    if orbit_altitude_km <= 0:
        raise ValueError("orbit altitude must be positive")
    max_el = np.asarray(max_elevations_deg, dtype=float)
    r = EARTH_RADIUS_KM + orbit_altitude_km
    # a product, not r**3: a float power raises OverflowError for huge r,
    # while the product goes to inf and the rate to 0
    rate = float(np.sqrt(GM_EARTH_KM3_S2 / (r * r * r)))
    ratio = EARTH_RADIUS_KM / r
    with np.errstate(all="ignore"):  # only a pass rejected below can warn here
        beta_min = central_angle(ratio, max_el)
        cos_ratio = np.cos(central_angle(ratio, min_elevation_deg)) / np.cos(beta_min)
        half = np.arccos(np.clip(cos_ratio, -1.0, 1.0)) / rate
    # An altitude can be positive and finite and still leave no pass: too
    # high, the orbital rate underflows to 0; too low, the pass rounds to 0 s.
    ordered = (0.0 < min_elevation_deg) & (min_elevation_deg < max_el) & (max_el <= 90.0)
    moving = 0.0 < rate < np.inf
    for i in np.flatnonzero(~(ordered & moving & (half > 0.0)))[:1]:
        if not ordered[i]:
            raise ValueError("need 0 < min_elevation < max_elevation <= 90 degrees")
        if not moving:
            raise ValueError(
                f"orbit_altitude_km = {orbit_altitude_km:g} gives no finite, positive orbital rate"
            )
        raise ValueError(
            f"orbit_altitude_km = {orbit_altitude_km:g} gives a pass of 0 s "
            f"between {min_elevation_deg:g} and {max_el[i]:g} degrees"
        )
    beta_min.flags.writeable = half.flags.writeable = False  # shared by every cache hit
    return PassTable(orbit_altitude_km, rate, ratio, beta_min, half)


@dataclass(frozen=True)
class PassGeometry:
    """One overhead pass of a circular-orbit satellite.

    Elevations in degrees; `min_elevation` is where tracking starts and
    stops ("t" arguments everywhere are seconds relative to culmination).
    The pass is checked and its scalars computed once per instance, as the
    one-pass `PassTable` in `table`.
    """

    orbit_altitude_km: float = 500.0
    max_elevation_deg: float = 76.0
    min_elevation_deg: float = 14.5
    earth_radius_km: ClassVar[float] = EARTH_RADIUS_KM

    def __post_init__(self):
        args = (self.orbit_altitude_km, self.min_elevation_deg, (self.max_elevation_deg,))
        object.__setattr__(self, "table", pass_table(*args))

    @property
    def orbital_rate(self) -> float:
        """Two-body angular rate in rad/s."""
        return self.table.orbital_rate

    @property
    def min_central_angle(self) -> float:
        return float(self.table.min_central_angle[0])

    def half_duration_s(self) -> float:
        """Seconds from culmination to the tracking limit."""
        return float(self.table.half_duration_s[0])


@dataclass(frozen=True)
class LinkModel:
    """Uplink transmitter, pointing, and atmosphere parameters.

    Divergences and seeing are full angles in microradians; the two
    divergence axes describe the elliptical far-field spot.  The zenith
    transmittance, the lumped system efficiency and the slew degradation
    gain are calibration parameters; the gain is counted per
    `SLEW_RATE_REF` of azimuth rate.
    """

    divergence_x_urad: float = 24.0
    divergence_y_urad: float = 35.0
    seeing_urad: float = 5.0
    tracking_error_urad: float = 3.0
    receiver_diameter_m: float = 0.3
    zenith_transmittance: float = 0.8
    system_efficiency_db: float = 5.0
    slew_degradation_k: float = 1.0

    def __post_init__(self):
        for name in (
            "divergence_x_urad",
            "divergence_y_urad",
            "seeing_urad",
            "tracking_error_urad",
            "receiver_diameter_m",
        ):
            if not getattr(self, name) >= 0:  # NaN fails every range check here
                raise ValueError(f"{name} must be non-negative")
        if not self.receiver_diameter_m > 0:
            raise ValueError("receiver diameter must be positive")
        theta = effective_divergence(self)
        if theta <= 0:
            raise ValueError(
                "effective divergence is 0: a zero divergence_x_urad or "
                "divergence_y_urad needs seeing_urad > 0"
            )
        # An infinite divergence meets an infinite pointing error as inf/inf.
        if theta == np.inf:
            raise ValueError(
                "effective divergence overflows: divergence_x_urad, "
                "divergence_y_urad and seeing_urad are too large"
            )
        if not 0.0 < self.zenith_transmittance <= 1.0:
            raise ValueError("zenith transmittance must lie in (0, 1]")
        if not self.system_efficiency_db >= 0:
            raise ValueError("system efficiency (dB) must be non-negative")
        if not self.slew_degradation_k >= 0:
            raise ValueError("slew degradation gain must be non-negative")


def _sin_elevation(elevation_deg):
    """sin of the elevation(s) in degrees, which must lie in (0, 90]."""
    elevation_deg = np.asarray(elevation_deg, dtype=float)
    if elevation_deg.size and not (elevation_deg.min() > 0 and elevation_deg.max() <= 90):  # NaN fails
        raise ValueError("elevation must lie in (0, 90] degrees")
    return np.sin(np.deg2rad(elevation_deg))


def _slant_range(geometry: PassGeometry, sin_e):
    """`slant_range` from the sine of the elevation."""
    r, h = EARTH_RADIUS_KM, geometry.orbit_altitude_km
    return np.sqrt(r**2 * sin_e**2 + 2 * r * h + h**2) - r * sin_e


def slant_range(elevation_deg, geometry: PassGeometry):
    """Line-of-sight distance in km at the given elevation (degrees).

    Closed form: L = sqrt(R^2 sin^2(e) + 2 R h + h^2) - R sin(e).
    """
    out = _slant_range(geometry, _sin_elevation(elevation_deg))
    return float(out) if out.ndim == 0 else out


def _azimuth_rate(geometry: PassGeometry | PassTable, sin_b, cos2_wt, sin2_wt):
    """`azimuth_rate` from max(sin(beta_min), 1e-6), cos^2(w t) and sin^2(w t)."""
    # a product, not sin_b**2: a numpy scalar squares through pow and an
    # array by a multiply, which can differ in the last bit
    return geometry.orbital_rate * sin_b / (sin_b * sin_b * cos2_wt + sin2_wt)


def azimuth_rate(geometry: PassGeometry, t_s):
    """Ground-mount azimuth rate (rad/s) along the pass.

    Peaks at culmination as w/sin(beta_min): near-overhead passes demand
    slews an alt-az mount can barely follow.
    """
    t_s = np.asarray(t_s, dtype=float)
    if not np.isfinite(t_s).all():
        raise ValueError("time must be finite")
    phase = geometry.orbital_rate * t_s
    sin_b = np.maximum(np.sin(geometry.min_central_angle), 1e-6)
    rate = _azimuth_rate(geometry, sin_b, np.cos(phase) ** 2, np.sin(phase) ** 2)
    return float(rate) if rate.ndim == 0 else rate


def effective_divergence(model: LinkModel) -> float:
    """Scalar far-field divergence in microradians.

    Seeing adds in quadrature on each axis; the elliptical result is
    collapsed to the geometric mean of the two axes.
    """
    ex = float(np.hypot(model.divergence_x_urad, model.seeing_urad))
    ey = float(np.hypot(model.divergence_y_urad, model.seeing_urad))
    # Python floats: a product past the float range is inf, with no warning
    return math.sqrt(ex * ey)


def _transmittance(model: LinkModel, range_km, sin_e, rate):
    """The three loss factors of `link_loss_db`, without the system
    efficiency: geometric capture, pointing and atmosphere at the given
    slant range (km), sine of the elevation and azimuth rate."""
    theta = effective_divergence(model)
    with np.errstate(over="ignore", divide="ignore"):  # the saturation of `link_loss_db`
        spot_m = theta * 1e-6 * range_km * 1e3
        eta_geo = np.minimum(1.0, (model.receiver_diameter_m / spot_m) ** 2)
        # the tracking error, inflated by the slew demand
        jitter = model.tracking_error_urad * (1.0 + model.slew_degradation_k * rate / SLEW_RATE_REF)
        eta_point = 1.0 / (1.0 + (2.0 * jitter / theta) ** 2)
        eta_atm = model.zenith_transmittance ** (1.0 / sin_e)  # the airmass is 1/sin e
        return eta_geo * eta_point * eta_atm


def link_loss_db(elevation_deg, t_s, geometry: PassGeometry, model: LinkModel):
    """Total uplink attenuation in dB at one instant of a pass.

    Combines the capped far-field geometric factor, the pointing factor
    1/(1 + (2 sigma_p / theta)^2), the plane-parallel atmosphere
    T_zenith^(1/sin e), and the lumped system efficiency.

    Extreme but valid parameters saturate at the physical limit: a factor
    that overflows or underflows to zero transmittance gives +inf dB, and a
    receiver-to-spot ratio past the float range caps at full capture.  A
    time past the tracking limit, |t| > `half_duration_s()`, is rejected.
    """
    sin_e = _sin_elevation(elevation_deg)
    t_s = np.asarray(t_s, dtype=float)
    rate = azimuth_rate(geometry, t_s)  # rejects a non-finite time first
    half = geometry.half_duration_s()
    if (np.abs(t_s) > half).any():
        raise ValueError(f"time must lie within the pass, |t| <= {half:.6g} s")
    eta = _transmittance(model, _slant_range(geometry, sin_e), sin_e, rate)
    with np.errstate(divide="ignore"):  # zero transmittance is +inf dB
        loss = -10.0 * np.log10(eta) + model.system_efficiency_db
    return float(loss) if loss.ndim == 0 else loss


def polarization_distortion(delta: float) -> np.ndarray:
    """Single-qubit unitary modelling uplink polarization distortion.

    Rotates the Bloch vector by twice the angle delta about the fixed
    equatorial axis midway between the diagonal and circular axes, so both
    superposition families degrade alike while |H>/|V> see the full
    rotation; fidelity of |H> after a pure rotation by delta is cos^2(delta).
    """
    if not math.isfinite(delta):
        raise ValueError("polarization angle delta must be finite")
    return np.cos(delta) * np.eye(2, dtype=complex) - 1j * np.sin(delta) * ROTATION_AXIS


def _channel_bloch(
    vectors: Sequence[tuple[float, float, float]], delta: float, jitter_sigma: float
) -> list[tuple[float, float, float]]:
    """The uplink polarization channel on each Bloch vector v of `vectors`,
    in scalar floats: `polarization_distortion` averaged over Gaussian angle
    jitter, in closed form.

    A rotation by 2a with a ~ N(delta, sigma^2) about n = (1, 1, 0)/sqrt(2)
    keeps (v.n)n and turns the rest by +2 delta (right-handed, as
    exp(-i delta n.sigma) does) while damping it by
    lam = E[cos 2a]/cos 2delta = exp(-2 sigma^2):
    v' = (v.n)n + lam [cos 2delta (v - (v.n)n) + sin 2delta (n x v)].
    The factors lam cos 2delta and lam sin 2delta / sqrt(2) are evaluated
    once for all of `vectors`.
    """
    # the double angle from cos delta and sin delta, as U carries it: 2 delta
    # itself would overflow for |delta| near the float maximum
    cos_d, sin_d = math.cos(delta), math.sin(delta)
    # a product, not sigma**2: a float power raises OverflowError for huge
    # sigma, while the product goes to inf and lam to the dephased limit 0
    lam = math.exp(-2.0 * jitter_sigma * jitter_sigma)
    c = lam * (cos_d * cos_d - sin_d * sin_d)
    s = lam * 2.0 * sin_d * cos_d / math.sqrt(2.0)  # n x v = (vz, -vz, vy - vx)/sqrt(2)
    out = []
    for vx, vy, vz in vectors:
        a = 0.5 * (vx + vy)  # (v.n)n = (a, a, 0)
        out.append((a + c * (vx - a) + s * vz, a + c * (vy - a) - s * vz, c * vz + s * (vy - vx)))
    return out


def loss_profiles(
    table: PassTable, model: LinkModel, duration_s: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The sampled passes of `table`, computed in one pass over the t >= 0
    samples of all of them, in linear units.

    Each pass is sampled over a window of `duration_s` centred on its
    culmination at 1 s steps, clipped to its tracking window, inclusive of
    both endpoints.  A pass is even in t about culmination (cos wt, cos^2
    and sin^2 are), so only t >= 0 is evaluated.  The trig of beta_min is
    evaluated once per pass and that of w t once per time step, then
    gathered to the samples.  With cos(beta) = cos(beta_min) cos(w t) and
    rho = R/(R + h), the law of cosines gives the slant range (R + h) q,
    q = sqrt((1 - rho)^2 + 2 rho (1 - cos beta)), and sin e =
    (cos beta - rho)/q; written about (1 - rho)^2, q is exact and sin e
    exactly 1 at the zenith.  The transmittance is the `link_loss_db`
    factors times 10^(-system dB / 10).  Returns (sizes, index, sin_e,
    range_km, transmittance): the sample count of each pass; for each
    sample of all passes in order, t from -half to half, its row in the
    other three, the t >= 0 columns.
    """
    if not duration_s > 0:  # inf is the full pass; NaN fails
        raise ValueError("duration must be positive")
    if not len(table.half_duration_s):
        raise ValueError("need at least one pass")
    halves = np.floor(np.minimum(duration_s / 2.0, table.half_duration_s)).astype(np.intp)
    counts, sizes = halves + 1, 2 * halves + 1
    starts = np.cumsum(counts) - counts
    step = np.arange(counts.sum()) - np.repeat(starts, counts)  # time step of each t >= 0 sample
    phase = table.orbital_rate * np.arange(halves.max() + 1.0)
    cos_wt, sin_wt = np.cos(phase), np.sin(phase)
    sin_b = np.repeat(np.maximum(np.sin(table.min_central_angle), 1e-6), counts)
    rate = _azimuth_rate(table, sin_b, (cos_wt**2)[step], (sin_wt**2)[step])
    # In place, so that few per-sample arrays live at once: sin_e holds
    # cos(beta) until q is known, and range_km holds q until sin e is.
    rho = table.radius_ratio
    sin_e = np.repeat(np.cos(table.min_central_angle), counts)
    sin_e *= cos_wt[step]
    range_km = 1.0 - sin_e
    range_km *= 2.0 * rho
    range_km += (1.0 - rho) * (1.0 - rho)  # a product: its square root is exactly 1 - rho
    np.sqrt(range_km, out=range_km)
    sin_e -= rho
    sin_e /= range_km
    range_km *= EARTH_RADIUS_KM + table.orbit_altitude_km
    transmittance = _transmittance(model, range_km, sin_e, rate)
    transmittance *= 10.0 ** (-model.system_efficiency_db / 10.0)
    index = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - counts, sizes)  # t of each sample
    np.abs(index, out=index)
    index += np.repeat(starts, sizes)
    return sizes, index, sin_e, range_km, transmittance


def loss_profile(geometry: PassGeometry, model: LinkModel, duration_s: float) -> np.ndarray:
    """Sampled pass table, an (n, 4) float64 array with one row
    (t_s, elevation_deg, range_km, loss_db) per sample: the one-pass dB
    view of `loss_profiles`.
    """
    _, index, sin_e, range_km, transmittance = loss_profiles(geometry.table, model, duration_s)
    half = len(sin_e) - 1
    with np.errstate(divide="ignore"):  # zero transmittance is +inf dB
        loss = -10.0 * np.log10(transmittance)
    columns = (np.degrees(np.arcsin(sin_e)), range_km, loss)
    return np.column_stack((np.arange(-half, half + 1.0), *(c[index] for c in columns)))
