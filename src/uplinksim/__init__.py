"""uplinksim: desk-scale models of ground-to-satellite teleportation of
polarization qubits, from the four-photon source to the satellite receiver.

Importing the package loads none of its modules.  Each export is imported
from its defining module on first access, so a command that runs only the
counting tier (`experiment`, `linkgeom`, `config`, `cli`) never loads the
exact density-matrix tier (`qstate`, `bsm`) or the tag chain (`timesync`).
"""

import importlib

# defining module -> the names the package exports from it
_EXPORTS = {
    "qstate": (
        "DensityMatrix",
        "PureState",
        "apply_unitary",
        "condition",
        "fidelity",
        "mub_states",
        "tensor",
    ),
    "bsm": ("bsm_apply", "bsm_effects", "feed_forward", "teleport_expected", "werner_pair"),
    "linkgeom": (
        "LinkModel",
        "PassGeometry",
        "effective_divergence",
        "link_loss_db",
        "loss_profile",
        "polarization_distortion",
        "slant_range",
    ),
    "timesync": (
        "ClockModel",
        "SyncConfig",
        "TimeTagStream",
        "fit_clock",
        "generate_streams",
        "match_coincidences",
    ),
    "experiment": (
        "BsmModel",
        "BsmOutcome",
        "CalibrationTargets",
        "CampaignConfig",
        "CampaignResult",
        "SimulationError",
        "SourceModel",
        "accidental_rate",
        "analytic_mean_fidelity",
        "calibrate",
        "classical_baseline",
        "default_config",
        "error_budget",
        "estimate_fidelity",
        "fibre_comparison",
        "run_campaign",
        "run_orbit",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.10"


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this hook
    return value
