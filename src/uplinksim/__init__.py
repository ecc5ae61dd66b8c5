"""uplinksim: desk-scale models of ground-to-satellite teleportation of
polarization qubits, from the four-photon source to the satellite receiver."""

from .qstate import (
    BellState,
    DensityMatrix,
    PureState,
    apply_unitary,
    condition,
    fidelity,
    mub_states,
    tensor,
)
from .photonsrc import PreparedInput, SourceModel, prepare_input, werner_pair
from .bsm import (
    BsmModel,
    BsmOutcome,
    bsm_apply,
    bsm_effects,
    feed_forward,
    teleport_expected,
)
from .linkgeom import (
    LinkModel,
    PassGeometry,
    effective_divergence,
    link_loss_db,
    loss_profile,
    polarization_distortion,
    slant_range,
)
from .timesync import (
    ClockModel,
    SyncConfig,
    TimeTagStream,
    accidental_rate,
    fit_clock,
    generate_streams,
    match_coincidences,
)
from .experiment import (
    CalibrationTargets,
    CampaignConfig,
    CampaignResult,
    SimulationError,
    analytic_mean_fidelity,
    calibrate,
    classical_baseline,
    default_config,
    error_budget,
    estimate_fidelity,
    fibre_comparison,
    run_campaign,
    run_orbit,
)

__version__ = "0.1.9"
