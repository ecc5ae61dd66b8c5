"""Models of the two pulsed pair sources feeding the teleporter.

One collinear module heralds the single photon whose state gets prepared
with waveplates; one non-collinear module supplies the entangled resource
pair.  Only the measured operating point enters the campaign: events are
drawn from the fourfold rate, not pulse by pulse.
"""

from __future__ import annotations

import numpy as np

# The source's operating point is defined with the campaign models, which
# the counting tier reads without loading this module.
from .experiment import SourceModel
from .qstate import BellState, DensityMatrix


def werner_pair(f_ent: float) -> DensityMatrix:
    """Entangled resource with white-noise admixture matching fidelity f_ent.

    Returns p |phi+><phi+| + (1-p) I/4 with p = (4 f_ent - 1)/3, the
    single-parameter model used for the bench-measured pair fidelity.
    """
    if not 0.25 <= f_ent <= 1.0:
        raise ValueError("entangled fidelity must lie in [1/4, 1]")
    p = (4.0 * f_ent - 1.0) / 3.0
    phi = BellState.PHI_PLUS.state.density().matrix
    return DensityMatrix(p * phi + (1.0 - p) * np.eye(4) / 4.0)
