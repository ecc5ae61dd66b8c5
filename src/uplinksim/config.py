"""Campaign configuration files: a versioned JSON schema, checked
fail-closed (unknown keys are rejected, not ignored)."""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

from .bsm import BsmModel
from .experiment import (
    CalibrationTargets,
    CampaignConfig,
    OrbitPlan,
    STATE_LABELS,
    default_config,
    default_schedule,
)

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Malformed configuration; the message names the offending field."""


# section -> field -> (type, required)
_CAMPAIGN_FIELDS = {
    "orbit_duration_s": ((int, float), True),
    "seed": (int, False),
    "orbits": (int, False),
    "max_elevations_deg": (list, False),
    "min_elevation_deg": ((int, float), False),
    "orbit_altitude_km": ((int, float), False),
    "schedule": ((str, list), False),
    "resource_fidelity": ((int, float), False),
}

_SECTION_FIELDS = {
    "source": {
        "double_pair_fraction": (int, float),
        "fourfold_ground_rate_hz": (int, float),
    },
    "bsm": {"mode_overlap": (int, float)},
    "link": {
        "divergence_x_urad": (int, float),
        "divergence_y_urad": (int, float),
        "seeing_urad": (int, float),
        "tracking_error_urad": (int, float),
        "receiver_diameter_m": (int, float),
        "zenith_transmittance": (int, float),
        "system_efficiency_db": (int, float),
        "slew_degradation_k": (int, float),
        "slew_rate_ref": (int, float),
    },
    "detection": {
        "receiver_efficiency": (int, float),
        "background_rate_hz": (int, float),
        "photon3_ground_efficiency": (int, float),
        "coincidence_window_ns": (int, float),
    },
    "polarization": {
        "delta_rad": (int, float),
        "jitter_sigma_rad": (int, float),
    },
    "noise": {
        "double_pair": (bool,),
        "distinguishability": (bool,),
        "polarization": (bool,),
        "background": (bool,),
    },
}

_FIELD_RENAMES = {"source": {"fourfold_ground_rate_hz": "fourfold_ground_rate"}}


def _read_json(path: str | Path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"configuration file not found: {path}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: invalid JSON at line {err.lineno}: {err.msg}") from err
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return data


def _check_section(name: str, payload: dict, fields: dict) -> None:
    if not isinstance(payload, dict):
        raise ConfigError(f"section {name!r} must be an object")
    unknown = set(payload) - set(fields)
    if unknown:
        raise ConfigError(f"unknown field(s) in {name!r}: {sorted(unknown)}")
    for key, value in payload.items():
        types = fields[key]
        # bool is an int subclass; keep boolean fields strict and numeric
        # fields free of booleans.
        if bool in types:
            if not isinstance(value, bool):
                raise ConfigError(f"{name}.{key} must be a boolean")
        elif isinstance(value, bool) or not isinstance(value, tuple(types)):
            raise ConfigError(f"{name}.{key} has the wrong type")


def _require_version(data: dict, path: str | Path) -> None:
    if "schema_version" not in data:
        raise ConfigError(f"{path}: missing required field 'schema_version'")
    if data["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(
            f"{path}: unsupported schema_version {data['schema_version']!r} "
            f"(expected {SCHEMA_VERSION})"
        )


def load_campaign_config(path: str | Path) -> CampaignConfig:
    """Parse and validate a campaign file into a CampaignConfig.

    Every omitted field falls back to the calibrated defaults; unknown
    fields and type mismatches are rejected with the field named.
    """
    data = _read_json(path)
    _require_version(data, path)

    known_sections = {"schema_version", "campaign"} | set(_SECTION_FIELDS)
    unknown = set(data) - known_sections
    if unknown:
        raise ConfigError(f"unknown section(s): {sorted(unknown)}")

    if "campaign" not in data:
        raise ConfigError("missing required section 'campaign'")
    campaign = data["campaign"]
    fields = {k: v[0] if isinstance(v[0], tuple) else (v[0],) for k, v in _CAMPAIGN_FIELDS.items()}
    _check_section("campaign", campaign, fields)
    for key, (_, required) in _CAMPAIGN_FIELDS.items():
        if required and key not in campaign:
            raise ConfigError(f"missing required field 'campaign.{key}'")

    for section, fields in _SECTION_FIELDS.items():
        if section in data:
            _check_section(section, data[section], fields)

    base = default_config()

    n_orbits = campaign.get("orbits")
    elevations = campaign.get("max_elevations_deg")
    if elevations is not None:
        if not all(isinstance(e, (int, float)) and not isinstance(e, bool) for e in elevations):
            raise ConfigError("campaign.max_elevations_deg must be a list of numbers")
        if n_orbits is not None and n_orbits != len(elevations):
            raise ConfigError("campaign.orbits disagrees with max_elevations_deg length")
        orbits = tuple(
            OrbitPlan(label=f"orbit-{i + 1:02d}", max_elevation_deg=float(e))
            for i, e in enumerate(elevations)
        )
    elif n_orbits is not None:
        from .experiment import default_orbit_plans

        if n_orbits < 6:
            raise ConfigError("campaign.orbits must be at least 6 to cover every state")
        orbits = default_orbit_plans(n_orbits)
    else:
        orbits = base.orbits

    schedule_spec = campaign.get("schedule", "round_robin")
    if isinstance(schedule_spec, str):
        if schedule_spec != "round_robin":
            raise ConfigError("campaign.schedule must be 'round_robin' or a list of states")
        schedule = default_schedule(len(orbits))
    else:
        if len(schedule_spec) != len(orbits):
            raise ConfigError("campaign.schedule length must match the number of orbits")
        bad = [s for s in schedule_spec if s not in STATE_LABELS]
        if bad:
            raise ConfigError(f"campaign.schedule contains unknown states: {bad}")
        schedule = tuple(schedule_spec)

    def section_kwargs(section: str) -> dict:
        payload = dict(data.get(section, {}))
        renames = _FIELD_RENAMES.get(section, {})
        out = {}
        for key, value in payload.items():
            out[renames.get(key, key)] = value
        return out

    detection_kwargs = section_kwargs("detection")
    if "coincidence_window_ns" in detection_kwargs:
        # division by the exact power of ten keeps "3" -> 3e-9 bit-exact
        detection_kwargs["coincidence_window_s"] = (
            detection_kwargs.pop("coincidence_window_ns") / 1e9
        )

    try:
        config = CampaignConfig(
            orbits=orbits,
            input_schedule=schedule,
            orbit_duration_s=float(campaign["orbit_duration_s"]),
            orbit_altitude_km=float(campaign.get("orbit_altitude_km", base.orbit_altitude_km)),
            min_elevation_deg=float(campaign.get("min_elevation_deg", base.min_elevation_deg)),
            resource_fidelity=float(campaign.get("resource_fidelity", base.resource_fidelity)),
            source=replace(base.source, **section_kwargs("source")),
            bsm=BsmModel(**{**{"mode_overlap": base.bsm.mode_overlap}, **section_kwargs("bsm")}),
            link=replace(base.link, **section_kwargs("link")),
            detection=replace(base.detection, **detection_kwargs),
            polarization=replace(base.polarization, **section_kwargs("polarization")),
            toggles=replace(base.toggles, **section_kwargs("noise")),
            seed=int(campaign.get("seed", base.seed)),
        )
    except (ValueError, TypeError) as err:
        raise ConfigError(str(err)) from err
    return config


_TARGET_FIELDS = {
    "loss_max_db": (int, float),
    "loss_min_db": (int, float),
    "total_fourfolds": (int, float),
    "deficit_double_pair": (int, float),
    "deficit_distinguishability": (int, float),
    "deficit_polarization": (int, float),
    "deficit_background": (int, float),
}


def load_calibration_targets(path: str | Path) -> CalibrationTargets:
    """Parse a calibration-targets file (same fail-closed discipline)."""
    data = _read_json(path)
    _require_version(data, path)
    unknown = set(data) - {"schema_version", "targets"}
    if unknown:
        raise ConfigError(f"unknown section(s): {sorted(unknown)}")
    if "targets" not in data:
        raise ConfigError("missing required section 'targets'")
    _check_section("targets", data["targets"], _TARGET_FIELDS)
    try:
        return CalibrationTargets(**data["targets"])
    except TypeError as err:
        raise ConfigError(str(err)) from err


def default_config_dict(seed: int | None = None) -> dict:
    """The calibrated defaults as a round-trippable configuration dict."""
    cfg = default_config() if seed is None else default_config(seed=seed)
    return {
        "schema_version": SCHEMA_VERSION,
        "campaign": {
            "orbit_duration_s": cfg.orbit_duration_s,
            "seed": cfg.seed,
            "orbits": len(cfg.orbits),
            "min_elevation_deg": cfg.min_elevation_deg,
            "orbit_altitude_km": cfg.orbit_altitude_km,
            "schedule": "round_robin",
            "resource_fidelity": cfg.resource_fidelity,
        },
        "source": {
            "double_pair_fraction": cfg.source.double_pair_fraction,
            "fourfold_ground_rate_hz": cfg.source.fourfold_ground_rate,
        },
        "bsm": {"mode_overlap": cfg.bsm.mode_overlap},
        "link": {
            "divergence_x_urad": cfg.link.divergence_x_urad,
            "divergence_y_urad": cfg.link.divergence_y_urad,
            "seeing_urad": cfg.link.seeing_urad,
            "tracking_error_urad": cfg.link.tracking_error_urad,
            "receiver_diameter_m": cfg.link.receiver_diameter_m,
            "zenith_transmittance": cfg.link.zenith_transmittance,
            "system_efficiency_db": cfg.link.system_efficiency_db,
            "slew_degradation_k": cfg.link.slew_degradation_k,
            "slew_rate_ref": cfg.link.slew_rate_ref,
        },
        "detection": {
            "receiver_efficiency": cfg.detection.receiver_efficiency,
            "background_rate_hz": cfg.detection.background_rate_hz,
            "photon3_ground_efficiency": cfg.detection.photon3_ground_efficiency,
            "coincidence_window_ns": round(cfg.detection.coincidence_window_s * 1e9, 12),
        },
        "polarization": {
            "delta_rad": cfg.polarization.delta_rad,
            "jitter_sigma_rad": cfg.polarization.jitter_sigma_rad,
        },
        "noise": {
            "double_pair": cfg.toggles.double_pair,
            "distinguishability": cfg.toggles.distinguishability,
            "polarization": cfg.toggles.polarization,
            "background": cfg.toggles.background,
        },
    }
