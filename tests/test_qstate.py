import string

import numpy as np
import pytest

from uplinksim.qstate import (
    KET_H,
    KET_L,
    KET_MINUS,
    KET_PLUS,
    KET_R,
    KET_V,
    PAULI_Z,
    BellState,
    DensityMatrix,
    PureState,
    apply_unitary,
    condition,
    fidelity,
    mub_states,
    tensor,
)


def random_density(rng: np.random.Generator, n_qubits: int) -> DensityMatrix:
    """Ginibre-sampled full-rank density matrix."""
    d = 2**n_qubits
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m))


def random_pure(rng: np.random.Generator, n_qubits: int) -> PureState:
    d = 2**n_qubits
    return PureState(rng.normal(size=d) + 1j * rng.normal(size=d))


def jones_hwp(theta: float) -> np.ndarray:
    """Oracle: half-wave plate with fast axis at `theta` radians from
    horizontal, in closed form.  jones_hwp(0) = diag(1, -1); at pi/8 it acts
    as a Hadamard on H/V."""
    c, s = np.cos(2 * theta), np.sin(2 * theta)
    return np.array([[c, s], [s, -c]], dtype=complex)


def jones_qwp(theta: float) -> np.ndarray:
    """Oracle: quarter-wave plate with fast axis at `theta` radians from
    horizontal, in closed form.  jones_qwp(0) = diag(1, i), so a plate at 45
    degrees sends |H> to the left-circular state (1, -i)/sqrt(2) up to a
    global phase."""
    c, s = np.cos(theta), np.sin(theta)
    off = (1 - 1j) * s * c
    return np.array([[c * c + 1j * s * s, off], [off, s * s + 1j * c * c]])


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Oracle: trace every qubit not in `keep` out of `rho` with one einsum
    over its (2,) * 2n tensor; the kept qubits stay in ascending order."""
    keep = sorted(set(keep))
    n = rho.num_qubits
    rows, kept_cols = string.ascii_letters[:n], string.ascii_letters[n : 2 * n]
    # a traced qubit repeats its row index as its column index
    cols = "".join(kept_cols[q] if q in keep else rows[q] for q in range(n))
    out = "".join(rows[q] for q in keep) + "".join(kept_cols[q] for q in keep)
    d = 2 ** len(keep)
    t = np.einsum(f"{rows}{cols}->{out}", rho.matrix.reshape((2,) * (2 * n)))
    return DensityMatrix(t.reshape(d, d))


class TestConstruction:
    def test_pure_state_normalizes(self):
        psi = PureState([3, 4j])
        assert np.isclose(np.sum(np.abs(psi.amplitudes) ** 2), 1.0, atol=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            PureState([0, 0])

    def test_too_many_qubits_rejected(self):
        with pytest.raises(ValueError):
            PureState(np.ones(32))

    def test_density_requires_hermitian(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_density_requires_psd(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[1.5, 0.0], [0.0, -0.5]]))

    @pytest.mark.parametrize("amplitudes", [[np.nan, 0], [np.inf, 1], [1, complex(0, np.nan)]])
    def test_non_finite_amplitude_rejected(self, amplitudes):
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            PureState(amplitudes)

    @pytest.mark.parametrize(
        "matrix",
        [np.full((2, 2), np.nan), [[0.5, np.nan], [np.nan, 0.5]], [[0.5, np.inf], [np.inf, 0.5]]],
    )
    def test_non_finite_density_rejected(self, matrix):
        with pytest.raises(ValueError, match="density matrix entries must be finite"):
            DensityMatrix(np.array(matrix, dtype=complex))

    def test_states_immutable(self):
        with pytest.raises(AttributeError):
            KET_H.amplitudes = np.array([0, 1])
        with pytest.raises(ValueError):
            KET_H.amplitudes[0] = 2.0


class TestBellStates:
    def test_phi_plus_exact(self):
        s = 1 / np.sqrt(2)
        np.testing.assert_allclose(
            BellState.PHI_PLUS.state.amplitudes, [s, 0, 0, s], atol=0
        )

    def test_pairwise_orthonormal(self):
        states = [b.state for b in BellState]
        for i, a in enumerate(states):
            for j, b in enumerate(states):
                expected = 1.0 if i == j else 0.0
                assert abs(abs(np.vdot(a.amplitudes, b.amplitudes)) - expected) < 1e-14


class TestTensor:
    def test_h_tensor_v_is_basis_index_1(self):
        psi = tensor(KET_H, KET_V)
        np.testing.assert_allclose(psi.amplitudes, [0, 1, 0, 0], atol=1e-15)

    def test_plus_tensor_plus(self):
        psi = tensor(KET_PLUS, KET_PLUS)
        np.testing.assert_allclose(psi.amplitudes, [0.5] * 4, atol=1e-15)

    def test_mixed_identity_product(self):
        half = DensityMatrix(np.eye(2) / 2)
        rho = tensor(half, half)
        np.testing.assert_allclose(rho.matrix, np.eye(4) / 4, atol=1e-15)

    def test_rejects_overflow(self):
        two = tensor(KET_H, KET_H)
        four = tensor(two, two)
        with pytest.raises(ValueError):
            tensor(four, KET_H)

    def test_pure_times_mixed_promotes(self):
        rho = tensor(KET_H, DensityMatrix(np.eye(2) / 2))
        assert isinstance(rho, DensityMatrix)
        assert np.isclose(np.trace(rho.matrix).real, 1.0, atol=1e-12)


class TestApplyUnitary:
    def test_z_on_plus_gives_minus(self):
        out = apply_unitary(KET_PLUS, PAULI_Z)
        assert fidelity(KET_MINUS, out.density()) > 1 - 1e-12

    def test_z_is_involution(self):
        rng = np.random.default_rng(7)
        psi = random_pure(rng, 1)
        back = apply_unitary(apply_unitary(psi, PAULI_Z), PAULI_Z)
        assert abs(abs(np.vdot(psi.amplitudes, back.amplitudes)) - 1.0) < 1e-12

    def test_hwp_at_22p5_deg_maps_h_to_plus(self):
        # Oracle: evaluate R(-t) diag(1,-1) R(t) at t = pi/8 from scratch.
        t = np.pi / 8
        r = lambda a: np.array([[np.cos(a), np.sin(a)], [-np.sin(a), np.cos(a)]])
        oracle = r(-t) @ np.diag([1.0, -1.0]) @ r(t)
        np.testing.assert_allclose(jones_hwp(t), oracle, atol=1e-15)
        out = apply_unitary(KET_H, jones_hwp(t))
        assert fidelity(KET_PLUS, out.density()) > 1 - 1e-12

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            apply_unitary(KET_H, np.array([[1, 0], [0, 0.5]]))

    def test_embedded_target(self):
        # Z on qubit 1 of |++> flips only the second factor.
        psi = tensor(KET_PLUS, KET_PLUS)
        out = apply_unitary(psi, PAULI_Z, targets=[1])
        expected = tensor(KET_PLUS, KET_MINUS)
        assert abs(abs(np.vdot(out.amplitudes, expected.amplitudes)) - 1.0) < 1e-12

    def test_trace_preserved_on_density(self):
        rng = np.random.default_rng(11)
        rho = random_density(rng, 2)
        out = apply_unitary(rho, jones_qwp(0.3), targets=[0])
        assert np.isclose(np.trace(out.matrix).real, 1.0, atol=1e-12)

    @pytest.mark.parametrize(
        "targets,n", [([0, 2], 3), ([2, 0], 3), ([1, 0], 2), ([3, 1], 4), ([0, 1, 3], 4)]
    )
    def test_embedding_matches_elementwise_oracle(self, targets, n):
        # Independent oracle: build the lifted operator entry by entry from
        # the bit decomposition (qubit 0 most significant).
        from uplinksim.qstate import _embed

        rng = np.random.default_rng(sum(targets) * 17 + n)
        k = len(targets)
        g = rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))
        op, _ = np.linalg.qr(g)

        d = 2**n
        rest = [q for q in range(n) if q not in targets]
        want = np.zeros((d, d), dtype=complex)
        for i in range(d):
            for j in range(d):
                ib = [(i >> (n - 1 - q)) & 1 for q in range(n)]
                jb = [(j >> (n - 1 - q)) & 1 for q in range(n)]
                if any(ib[q] != jb[q] for q in rest):
                    continue
                row = sum(ib[t] << (k - 1 - m) for m, t in enumerate(targets))
                col = sum(jb[t] << (k - 1 - m) for m, t in enumerate(targets))
                want[i, j] = op[row, col]
        np.testing.assert_allclose(_embed(op, targets, n), want, atol=1e-12)


class TestJones:
    @pytest.mark.parametrize("theta", np.linspace(0, np.pi, 17))
    def test_closed_forms_match_rotated_retarders(self, theta):
        # R(-theta) diag(1, e^{i phi}) R(theta), with phi = pi for the
        # half-wave plate and pi/2 for the quarter-wave plate.
        c, s = np.cos(theta), np.sin(theta)
        r = np.array([[c, s], [-s, c]])
        for mat, retarder in ((jones_hwp(theta), [1, -1]), (jones_qwp(theta), [1, 1j])):
            np.testing.assert_allclose(mat, r.T @ np.diag(retarder) @ r, atol=1e-15)

    @pytest.mark.parametrize("theta", np.linspace(0, np.pi, 17))
    def test_waveplates_unitary(self, theta):
        for mat in (jones_hwp(theta), jones_qwp(theta)):
            np.testing.assert_allclose(
                mat.conj().T @ mat, np.eye(2), atol=1e-12
            )

    def test_hwp_zero_fixes_h(self):
        out = apply_unitary(KET_H, jones_hwp(0.0))
        assert fidelity(KET_H, out.density()) > 1 - 1e-12

    def test_qwp_zero_conventions(self):
        np.testing.assert_allclose(jones_qwp(0.0), np.diag([1, 1j]), atol=1e-15)

    def test_qwp_45_maps_h_to_left_circular(self):
        out = apply_unitary(KET_H, jones_qwp(np.pi / 4))
        assert fidelity(KET_L, out.density()) > 1 - 1e-12


class TestPartialTrace:
    def test_bell_reduces_to_mixed(self):
        rho = BellState.PHI_PLUS.state.density()
        red = partial_trace(rho, keep=[0])
        np.testing.assert_allclose(red.matrix, np.eye(2) / 2, atol=1e-12)

    def test_product_state_factor(self):
        rho = tensor(KET_H, KET_V).density()
        red = partial_trace(rho, keep=[0])
        np.testing.assert_allclose(red.matrix, KET_H.density().matrix, atol=1e-12)

    def test_keep_everything_is_identity_op(self):
        rng = np.random.default_rng(3)
        rho = random_density(rng, 2)
        np.testing.assert_allclose(
            partial_trace(rho, keep=[0, 1]).matrix, rho.matrix, atol=0
        )

    def test_three_qubit_middle(self):
        rho = tensor(tensor(KET_H, KET_PLUS), KET_V).density()
        red = partial_trace(rho, keep=[1])
        np.testing.assert_allclose(red.matrix, KET_PLUS.density().matrix, atol=1e-12)


class TestCondition:
    def test_hh_against_phi_plus_projector(self):
        rho = tensor(KET_H, KET_H).density()
        proj = BellState.PHI_PLUS.state.density().matrix
        prob, _ = condition(rho, proj, targets=[0, 1])
        assert np.isclose(prob, 0.5, atol=1e-12)

    def test_identity_effect_reduces_to_partial_trace(self):
        rng = np.random.default_rng(5)
        rho = random_density(rng, 3)
        prob, rest = condition(rho, np.eye(4), targets=[0, 1])
        assert np.isclose(prob, 1.0, atol=1e-10)
        np.testing.assert_allclose(
            rest.matrix, partial_trace(rho, keep=[2]).matrix, atol=1e-12
        )

    def test_orthogonal_outcome_impossible(self):
        rho = tensor(KET_H, KET_V).density()
        proj = BellState.PHI_PLUS.state.density().matrix
        prob, rest = condition(rho, proj, targets=[0, 1])
        assert prob < 1e-15
        assert rest is None

    def test_invalid_effect_rejected(self):
        rho = tensor(KET_H, KET_V).density()
        with pytest.raises(ValueError):
            condition(rho, 2.0 * np.eye(4), targets=[0, 1])

    def test_complete_effect_set_sums_to_one(self):
        # Effect set built from scratch: the two coherent same-polarization
        # projectors and their complement on qubits (0, 1).
        hh = np.zeros((4, 4), dtype=complex)
        hh[0, 0] = 1
        vv = np.zeros((4, 4), dtype=complex)
        vv[3, 3] = 1
        cross = np.zeros((4, 4), dtype=complex)
        cross[0, 3] = cross[3, 0] = 1
        m = 0.63
        plus = 0.5 * (hh + vv) + 0.5 * m * cross
        minus = 0.5 * (hh + vv) - 0.5 * m * cross
        fail = np.eye(4) - plus - minus
        rng = np.random.default_rng(17)
        for _ in range(1000):
            rho = random_density(rng, 3)
            total = sum(
                condition(rho, e, targets=[0, 1])[0] for e in (plus, minus, fail)
            )
            assert abs(total - 1.0) < 1e-10


class TestFidelity:
    def test_pure_match(self):
        assert fidelity(KET_H, KET_H.density()) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        rho = DensityMatrix(np.eye(2) / 2)
        assert fidelity(KET_H, rho) == pytest.approx(0.5, abs=1e-12)

    def test_linearity(self):
        rho = DensityMatrix(
            0.9 * KET_PLUS.density().matrix + 0.1 * np.eye(2) / 2
        )
        assert fidelity(KET_PLUS, rho) == pytest.approx(0.95, abs=1e-12)

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            psi = random_pure(rng, 1)
            rho = random_density(rng, 1)
            phased = PureState(np.exp(1j * rng.uniform(0, 2 * np.pi)) * psi.amplitudes)
            assert np.isclose(fidelity(psi, rho), fidelity(phased, rho), atol=1e-12)


class TestMubStates:
    def test_six_states(self):
        assert len(mub_states()) == 6

    def test_unbiased_across_bases(self):
        states = mub_states()
        bases = [("H", "V"), ("+", "-"), ("R", "L")]
        for bi, (a1, a2) in enumerate(bases):
            for bj, (b1, b2) in enumerate(bases):
                for x in (a1, a2):
                    for y in (b1, b2):
                        ov = abs(np.vdot(states[x].amplitudes, states[y].amplitudes)) ** 2
                        if bi == bj:
                            assert ov == pytest.approx(1.0 if x == y else 0.0, abs=1e-14)
                        else:
                            assert ov == pytest.approx(0.5, abs=1e-14)

    def test_r_is_h_plus_iv(self):
        np.testing.assert_allclose(
            mub_states()["R"].amplitudes, np.array([1, 1j]) / np.sqrt(2), atol=1e-15
        )
