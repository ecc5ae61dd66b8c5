"""Two-outcome Bell-state analyzer on a polarizing beam splitter.

Post-selecting on one photon per output port keeps only the same-
polarization amplitudes |HH> and |VV>, so the analyzer resolves the two
states (|HH> +/- |VV>)/sqrt(2) and discards the rest.  Imperfect overlap
between the two interfering photons scales only the |HH><VV| coherence:
same-polarization coincidences need no interference to be detected, but
telling the two resolved states apart in the diagonal bases does.  The
heralding photon never enters the analyzer and is treated as a classical
flag.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# The analyzer's parameters and outcomes are defined with the campaign
# models, which the counting tier reads without loading this module.
from .experiment import ACCEPTED_OUTCOMES, BsmModel, BsmOutcome
from .qstate import (
    PAULI_Z,
    DensityMatrix,
    PureState,
    apply_unitary,
    condition,
    fidelity,
    tensor,
)
from .photonsrc import werner_pair


class BsmEffects(NamedTuple):
    phi_plus: np.ndarray
    phi_minus: np.ndarray
    fail: np.ndarray


def bsm_effects(model: BsmModel) -> BsmEffects:
    """POVM effects of the analyzer on the two measured qubits.

    With m = mode_overlap:
      Pi_+/- = (|HH><HH| + |VV><VV|)/2 +/- m (|HH><VV| + |VV><HH|)/2
      Pi_fail = |HV><HV| + |VH><VH|
    The three effects are positive for any m in [0, 1] and sum to the
    identity exactly.
    """
    m = model.mode_overlap
    same = np.zeros((4, 4), dtype=complex)
    same[0, 0] = same[3, 3] = 0.5
    cross = np.zeros((4, 4), dtype=complex)
    cross[0, 3] = cross[3, 0] = 0.5 * m
    plus = same + cross
    minus = same - cross
    fail = np.eye(4, dtype=complex) - plus - minus
    return BsmEffects(phi_plus=plus, phi_minus=minus, fail=fail)


class BsmBranch(NamedTuple):
    outcome: BsmOutcome
    probability: float
    conditional: DensityMatrix | None


def bsm_apply(joint: DensityMatrix, model: BsmModel) -> list[BsmBranch]:
    """Measure qubits (0, 1) of a three-qubit state with the analyzer.

    Returns one branch per outcome with its probability and the conditional
    state left on qubit 2 (None when the branch has zero probability).
    """
    if joint.num_qubits != 3:
        raise ValueError("bsm_apply expects a three-qubit state")
    effects = bsm_effects(model)
    branches = []
    for outcome, effect in zip(BsmOutcome, effects):
        prob, conditional = condition(joint, effect, targets=[0, 1])
        branches.append(BsmBranch(outcome, prob, conditional))
    return branches


def feed_forward(outcome: BsmOutcome, rho: DensityMatrix) -> DensityMatrix:
    """Post-processing correction: identity for the + outcome, a pi phase
    flip (Pauli-Z) for the - outcome.  Failed events carry no state."""
    if outcome is BsmOutcome.PHI_PLUS:
        return rho
    if outcome is BsmOutcome.PHI_MINUS:
        return apply_unitary(rho, PAULI_Z)
    raise ValueError("no feed-forward correction exists for a failed analyzer event")


class TeleportExpectation(NamedTuple):
    """Expected teleporter output per analyzer outcome (before any channel).

    `corrected` holds the post-feed-forward state for each accepted
    outcome; probabilities refer to the full outcome distribution
    including failures.  `average_fidelity` weights the accepted outcomes
    by their renormalized probabilities.
    """

    input_state: PureState
    probabilities: dict[BsmOutcome, float]
    corrected: dict[BsmOutcome, DensityMatrix]
    average_fidelity: float


def teleport_expected(
    input_state: PureState, f_ent: float, model: BsmModel
) -> TeleportExpectation:
    """Analytic teleportation of one qubit through a noisy resource pair.

    Qubit 1 of a Werner pair is maximally mixed, so each accepted analyzer
    outcome has probability 1/4 for any input, resource and mode overlap.
    """
    if input_state.num_qubits != 1:
        raise ValueError("teleportation input must be a single qubit")
    joint = tensor(input_state, werner_pair(f_ent))
    probabilities: dict[BsmOutcome, float] = {}
    corrected: dict[BsmOutcome, DensityMatrix] = {}
    weighted = 0.0
    accepted = 0.0
    for branch in bsm_apply(joint, model):
        probabilities[branch.outcome] = branch.probability
        if branch.outcome is BsmOutcome.FAIL:
            continue
        fixed = feed_forward(branch.outcome, branch.conditional)
        corrected[branch.outcome] = fixed
        weighted += branch.probability * fidelity(input_state, fixed)
        accepted += branch.probability
    return TeleportExpectation(
        input_state=input_state,
        probabilities=probabilities,
        corrected=corrected,
        average_fidelity=weighted / accepted,
    )
