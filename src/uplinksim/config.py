"""Campaign configuration files: a versioned JSON schema, checked
fail-closed (unknown keys are rejected, not ignored).

The schema is read off the model.  Each section fills one parameter
dataclass of `CampaignConfig`, and its keys are that dataclass's fields,
each a finite number.  Only the keys in `UNIT_KEYS` carry a unit in their
name.
"""

from __future__ import annotations

import json
import sys
from dataclasses import fields
from pathlib import Path

from .experiment import (
    FIELD_MODEL,
    MODELS,
    CalibrationTargets,
    CampaignConfig,
    default_config,
    default_orbit_plans,
    default_schedule,
    orbit_plans,
    with_fields,
)

SCHEMA_VERSION = 1

_NUMBER = (int, float)

# file sections, each named after the CampaignConfig attribute whose
# dataclass it fills
SECTIONS = MODELS

# Most passes a campaign may give.  A fresh `simulate` of 1e4 passes took 1.2-1.6 s and
# 263 MB peak RSS (2-core Xeon); 1e5 was never run: scaled linearly, the exposure build
# alone needs about 2.1 GB.
MAX_PASSES = 10**5

# field -> (file key, file units per field unit), for keys named with a unit
UNIT_KEYS = {
    "fourfold_ground_rate": ("fourfold_ground_rate_hz", 1.0),
    "coincidence_window_s": ("coincidence_window_ns", 1e9),
}

# campaign key -> (types, required).  The `_STRUCTURAL` keys build the orbit
# and schedule tuples; each other key sets the CampaignConfig field of its name.
_CAMPAIGN_FIELDS = {
    "orbit_duration_s": (_NUMBER, True),
    "seed": ((int,), False),
    "orbits": ((int,), False),
    "max_elevations_deg": ((list,), False),
    "min_elevation_deg": (_NUMBER, False),
    "orbit_altitude_km": (_NUMBER, False),
    "schedule": ((str, list), False),
    "resource_fidelity": (_NUMBER, False),
}
_STRUCTURAL = ("orbits", "max_elevations_deg", "schedule")


def _schema(names) -> dict[str, tuple[tuple[type, ...], str]]:
    """File key -> (accepted types, field name) for numeric fields."""
    return {UNIT_KEYS.get(name, (name,))[0]: (_NUMBER, name) for name in names}


# file section -> its schema, read off the dataclass it fills
SCHEMA = {s: _schema(name for name, attr in FIELD_MODEL.items() if attr == s) for s in SECTIONS}


class ConfigError(ValueError):
    """Malformed configuration; the message names the offending field."""


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


def _check_section(name: str, payload: dict, spec: dict) -> None:
    """Check `payload` against `spec`, which maps each key to (types, ...)."""
    if not isinstance(payload, dict):
        raise ConfigError(f"section {name!r} must be an object")
    unknown = set(payload) - set(spec)
    if unknown:
        raise ConfigError(f"unknown field(s) in {name!r}: {sorted(unknown)}")
    for key, value in payload.items():
        # bool is an int subclass; keep it out of the numeric fields
        if isinstance(value, bool) or not isinstance(value, spec[key][0]):
            raise ConfigError(f"{name}.{key} has the wrong type")
        elif isinstance(value, _NUMBER) and not abs(value) <= sys.float_info.max:
            # NaN, +-inf, or an integer too large for a float
            raise ConfigError(f"{name}.{key} must be finite")


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

    unknown = set(data) - {"schema_version", "campaign", *SECTIONS}
    if unknown:
        raise ConfigError(f"unknown section(s): {sorted(unknown)}")

    if "campaign" not in data:
        raise ConfigError("missing required section 'campaign'")
    campaign = data["campaign"]
    _check_section("campaign", campaign, _CAMPAIGN_FIELDS)
    for key, (_, required) in _CAMPAIGN_FIELDS.items():
        if required and key not in campaign:
            raise ConfigError(f"missing required field 'campaign.{key}'")
    for key, value in campaign.items():  # count the passes before building any
        n_passes = len(value) if isinstance(value, list) else value if key == "orbits" else 0
        if n_passes > MAX_PASSES:
            raise ConfigError(f"campaign.{key} gives more than {MAX_PASSES} passes")

    for section, schema in SCHEMA.items():
        if section in data:
            _check_section(section, data[section], schema)

    base = default_config()

    n_orbits = campaign.get("orbits")
    elevations = campaign.get("max_elevations_deg")
    if elevations is not None:
        if not all(isinstance(e, _NUMBER) and not isinstance(e, bool) for e in elevations):
            raise ConfigError("campaign.max_elevations_deg must be a list of numbers")
        if n_orbits is not None and n_orbits != len(elevations):
            raise ConfigError("campaign.orbits disagrees with max_elevations_deg length")
        orbits = orbit_plans(elevations)
    elif n_orbits is not None:
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
    else:  # checked by CampaignConfig
        schedule = tuple(schedule_spec)

    scalars = {
        key: float(value) if float in _CAMPAIGN_FIELDS[key][0] else value
        for key, value in campaign.items()
        if key not in _STRUCTURAL
    }
    changes = {}
    for section, schema in SCHEMA.items():
        for key, value in data.get(section, {}).items():
            name = schema[key][1]
            # division by the exact power of ten keeps "3" ns -> 3e-9 s bit-exact
            changes[name] = value / UNIT_KEYS[name][1] if name in UNIT_KEYS else value
    try:
        config = with_fields(base, changes, orbits=orbits, input_schedule=schedule, **scalars)
    except (ValueError, TypeError) as err:
        raise ConfigError(str(err)) from err
    return config


def load_calibration_targets(path: str | Path) -> CalibrationTargets:
    """Parse a calibration-targets file (same fail-closed discipline)."""
    data = _read_json(path)
    _require_version(data, path)
    unknown = set(data) - {"schema_version", "targets"}
    if unknown:
        raise ConfigError(f"unknown section(s): {sorted(unknown)}")
    if "targets" not in data:
        raise ConfigError("missing required section 'targets'")
    _check_section("targets", data["targets"], _schema(f.name for f in fields(CalibrationTargets)))
    try:
        return CalibrationTargets(**data["targets"])
    except TypeError as err:
        raise ConfigError(str(err)) from err


def _file_value(model, name: str) -> float:
    value = getattr(model, name)
    # rounding drops a unit change's last-bit residue (1.1e-9 s -> 1.1 ns)
    return round(value * UNIT_KEYS[name][1], 12) if name in UNIT_KEYS else value


def default_config_dict(seed: int | None = None) -> dict:
    """The calibrated defaults as a round-trippable configuration dict."""
    cfg = default_config() if seed is None else default_config(seed=seed)
    scalars = {key: getattr(cfg, key) for key in _CAMPAIGN_FIELDS if key not in _STRUCTURAL}
    return {
        "schema_version": SCHEMA_VERSION,
        "campaign": {**scalars, "orbits": len(cfg.orbits), "schedule": "round_robin"},
        **{
            section: {key: _file_value(getattr(cfg, section), n) for key, (_, n) in schema.items()}
            for section, schema in SCHEMA.items()
        },
    }
