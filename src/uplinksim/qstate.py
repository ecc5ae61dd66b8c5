"""Dense linear algebra for polarization qubits.

States live on at most four qubits (16-dimensional), which is all a
four-photon teleportation experiment needs.  Basis convention, fixed
throughout the package: qubit 0 is the most significant index, |H> maps
to 0 and |V> to 1, so for two qubits the basis order is
|HH>, |HV>, |VH>, |VV>.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence

import numpy as np

MAX_QUBITS = 4

PSD_TOL = -1e-10
UNITARY_TOL = 1e-10

_IMPOSSIBLE_PROB = 1e-15


def _num_qubits(dim: int) -> int:
    n = int(round(np.log2(dim)))
    if 2**n != dim or n < 1:
        raise ValueError(f"dimension {dim} is not a power of two >= 2")
    if n > MAX_QUBITS:
        raise ValueError(f"{n} qubits exceeds the {MAX_QUBITS}-qubit limit")
    return n


class PureState:
    """Normalized complex amplitude vector over 1..4 qubits; immutable."""

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes: Sequence[complex]):
        vec = np.asarray(amplitudes, dtype=complex).reshape(-1)
        _num_qubits(vec.size)
        if not np.isfinite(vec).all():
            raise ValueError("amplitudes must be finite")
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(vec)
        if not np.isfinite(norm):  # a huge amplitude: scale every real and imaginary part to <= 1
            vec = vec / max(np.abs(vec.real).max(), np.abs(vec.imag).max())
            norm = np.linalg.norm(vec)
        if norm < 1e-12:
            raise ValueError("cannot normalize a zero amplitude vector")
        vec = vec / norm
        vec.flags.writeable = False
        object.__setattr__(self, "amplitudes", vec)

    def __setattr__(self, name, value):
        raise AttributeError("PureState is immutable")

    @property
    def num_qubits(self) -> int:
        return _num_qubits(self.amplitudes.size)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def density(self) -> "DensityMatrix":
        """Return the rank-one projector |psi><psi|."""
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))

    def __repr__(self) -> str:
        return f"PureState({np.array2string(self.amplitudes, precision=4)})"


class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix over 1..4 qubits."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: np.ndarray):
        mat = np.asarray(matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"density matrix must be square, got {mat.shape}")
        _num_qubits(mat.shape[0])
        if not np.isfinite(mat).all():
            raise ValueError("density matrix entries must be finite")
        if np.max(np.abs(mat - mat.conj().T)) > 1e-9:
            raise ValueError("matrix is not Hermitian")
        mat = (mat + mat.conj().T) / 2.0
        tr = float(np.real(np.trace(mat)))
        if abs(tr - 1.0) > 1e-6:
            raise ValueError(f"trace {tr} is not 1")
        mat = mat / tr
        if np.linalg.eigvalsh(mat).min() < PSD_TOL:
            raise ValueError("matrix has a negative eigenvalue beyond tolerance")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    def __setattr__(self, name, value):
        raise AttributeError("DensityMatrix is immutable")

    @property
    def num_qubits(self) -> int:
        return _num_qubits(self.matrix.shape[0])

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"


QuantumState = PureState | DensityMatrix

# Single-qubit basis states.
KET_H = PureState([1, 0])
KET_V = PureState([0, 1])
KET_PLUS = PureState([1, 1])
KET_MINUS = PureState([1, -1])
KET_R = PureState([1, 1j])
KET_L = PureState([1, -1j])

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


class BellState(enum.Enum):
    """The four maximally entangled two-qubit states."""

    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"
    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"

    @property
    def state(self) -> PureState:
        s = 1.0 / np.sqrt(2.0)
        vectors = {
            BellState.PHI_PLUS: [s, 0, 0, s],
            BellState.PHI_MINUS: [s, 0, 0, -s],
            BellState.PSI_PLUS: [0, s, s, 0],
            BellState.PSI_MINUS: [0, s, -s, 0],
        }
        return PureState(vectors[self])


def mub_states() -> dict[str, PureState]:
    """The six test states, two from each of three mutually unbiased bases.

    H/V (analyzer basis), +/- (linear diagonal) and R/L (circular,
    R = (H + iV)/sqrt(2)).
    """
    return {
        "H": KET_H,
        "V": KET_V,
        "+": KET_PLUS,
        "-": KET_MINUS,
        "R": KET_R,
        "L": KET_L,
    }


def tensor(a: QuantumState, b: QuantumState) -> QuantumState:
    """Kronecker product of two states; qubits of `a` become the leading ones.

    Mixing a pure state with a density matrix promotes the result to a
    density matrix.  Rejects products beyond four qubits.
    """
    n = a.num_qubits + b.num_qubits
    if n > MAX_QUBITS:
        raise ValueError(f"tensor product would need {n} qubits (max {MAX_QUBITS})")
    if isinstance(a, PureState) and isinstance(b, PureState):
        return PureState(np.kron(a.amplitudes, b.amplitudes))
    am = a.density().matrix if isinstance(a, PureState) else a.matrix
    bm = b.density().matrix if isinstance(b, PureState) else b.matrix
    return DensityMatrix(np.kron(am, bm))


def _check_unitary(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("operator must be a square matrix")
    with np.errstate(all="ignore"):  # a non-finite entry gives NaN or inf, which fail the check
        err = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
    if not err <= UNITARY_TOL:
        raise ValueError("operator is not unitary within tolerance")
    return u


def _embed(op: np.ndarray, targets: Sequence[int], num_qubits: int) -> np.ndarray:
    """Lift an operator acting on `targets` to the full register."""
    targets = list(targets)
    k = len(targets)
    if op.shape != (2**k, 2**k):
        raise ValueError(f"operator shape {op.shape} does not match {k} target qubits")
    if len(set(targets)) != k:
        raise ValueError("duplicate target qubits")
    if any(t < 0 or t >= num_qubits for t in targets):
        raise ValueError("target qubit out of range")
    rest = [q for q in range(num_qubits) if q not in targets]
    # Permute target qubits to the front, apply kron(op, I), permute back.
    perm = targets + rest
    full = np.kron(op, np.eye(2 ** len(rest), dtype=complex))
    t = full.reshape((2,) * (2 * num_qubits))
    inv = np.argsort(perm)
    order = list(inv) + [num_qubits + i for i in inv]
    return t.transpose(order).reshape(2**num_qubits, 2**num_qubits)


def apply_unitary(state: QuantumState, u: np.ndarray, targets: Sequence[int] | None = None) -> QuantumState:
    """Apply a unitary to the listed qubits (all qubits when omitted); its
    qubit i acts on targets[i]."""
    if targets is None:
        targets = range(state.num_qubits)
    full = _embed(_check_unitary(u), targets, state.num_qubits)
    if isinstance(state, PureState):
        return PureState(full @ state.amplitudes)
    return DensityMatrix(full @ state.matrix @ full.conj().T)


def _trace_out(matrix: np.ndarray, n: int, keep: Sequence[int]) -> np.ndarray:
    """Trace the qubits not in `keep` out of an n-qubit operator."""
    t = matrix.reshape((2,) * (2 * n))
    traced = 0
    for q in range(n):
        if q in keep:
            continue
        axis = q - traced
        remaining = n - traced
        t = np.trace(t, axis1=axis, axis2=axis + remaining)
        traced += 1
    d = 2 ** len(keep)
    return t.reshape(d, d)


def condition(
    rho: DensityMatrix, effect: np.ndarray, targets: Sequence[int]
) -> tuple[float, DensityMatrix | None]:
    """Condition on a POVM effect measured destructively on `targets`; its
    qubit i is targets[i].

    Returns the outcome probability and the normalized post-measurement
    state of the remaining qubits.  The state is None when the outcome
    probability is below 1e-15 (outcome impossible) or when the effect
    covers the whole register, leaving nothing behind.
    """
    targets = list(targets)
    n = rho.num_qubits
    effect = np.asarray(effect, dtype=complex)
    with np.errstate(all="ignore"):  # a non-finite entry gives NaN or inf, which fail the check
        full = _embed(effect, targets, n)
        err = np.max(np.abs(effect - effect.conj().T))
    if not err <= UNITARY_TOL:
        raise ValueError("effect is not Hermitian")
    evals = np.linalg.eigvalsh(effect)
    if not (-UNITARY_TOL <= evals.min() and evals.max() <= 1.0 + UNITARY_TOL):
        raise ValueError("effect must satisfy 0 <= E <= I")

    prob = float(np.real(np.trace(full @ rho.matrix)))
    prob = min(max(prob, 0.0), 1.0)
    if prob < _IMPOSSIBLE_PROB or len(targets) == n:
        return prob, None

    keep = [q for q in range(n) if q not in targets]
    reduced = _trace_out(full @ rho.matrix, n, keep) / prob
    return prob, DensityMatrix(reduced)


def fidelity(ideal: PureState, rho: DensityMatrix | PureState) -> float:
    """Overlap Tr(rho |ideal><ideal|) of a delivered state with the ideal one."""
    if isinstance(rho, PureState):
        rho = rho.density()
    if ideal.dim != rho.dim:
        raise ValueError("dimension mismatch")
    psi = ideal.amplitudes
    value = float(np.real(psi.conj() @ rho.matrix @ psi))
    return min(max(value, 0.0), 1.0)
