import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uplinksim.bsm import (
    ACCEPTED_OUTCOMES,
    BsmBranch,
    BsmModel,
    BsmOutcome,
    bsm_apply,
    bsm_effects,
    feed_forward,
    teleport_expected,
)
from uplinksim.qstate import (
    KET_H,
    KET_MINUS,
    KET_PLUS,
    BellState,
    DensityMatrix,
    PureState,
    fidelity,
    mub_states,
    tensor,
)


def ideal_joint(input_state: PureState) -> DensityMatrix:
    return tensor(input_state, BellState.PHI_PLUS.state).density()


class TestEffects:
    def test_ideal_limit_matches_bell_projectors(self):
        eff = bsm_effects(BsmModel(mode_overlap=1.0))
        np.testing.assert_allclose(
            eff.phi_plus, BellState.PHI_PLUS.state.density().matrix, atol=1e-15
        )
        np.testing.assert_allclose(
            eff.phi_minus, BellState.PHI_MINUS.state.density().matrix, atol=1e-15
        )

    def test_fully_distinguishable_limit(self):
        eff = bsm_effects(BsmModel(mode_overlap=0.0))
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = 0.5
        np.testing.assert_allclose(eff.phi_plus, expected, atol=1e-15)
        np.testing.assert_allclose(eff.phi_minus, expected, atol=1e-15)

    @pytest.mark.parametrize("m", np.linspace(0.0, 1.0, 101))
    def test_complete_and_positive(self, m):
        eff = bsm_effects(BsmModel(mode_overlap=m))
        total = eff.phi_plus + eff.phi_minus + eff.fail
        np.testing.assert_allclose(total, np.eye(4), atol=1e-14)
        for e in eff:
            assert np.linalg.eigvalsh(e).min() > -1e-12

    def test_bad_overlap_rejected(self):
        with pytest.raises(ValueError):
            BsmModel(mode_overlap=1.5)


class TestBsmApply:
    def test_ideal_probabilities(self):
        branches = bsm_apply(ideal_joint(KET_PLUS), BsmModel(1.0))
        probs = {b.outcome: b.probability for b in branches}
        assert probs[BsmOutcome.PHI_PLUS] == pytest.approx(0.25, abs=1e-12)
        assert probs[BsmOutcome.PHI_MINUS] == pytest.approx(0.25, abs=1e-12)
        assert probs[BsmOutcome.FAIL] == pytest.approx(0.5, abs=1e-12)

    def test_plus_input_conditionals(self):
        branches = {b.outcome: b for b in bsm_apply(ideal_joint(KET_PLUS), BsmModel(1.0))}
        assert fidelity(KET_PLUS, branches[BsmOutcome.PHI_PLUS].conditional) > 1 - 1e-12
        assert fidelity(KET_MINUS, branches[BsmOutcome.PHI_MINUS].conditional) > 1 - 1e-12

    @pytest.mark.parametrize("m", [0.0, 0.37, 1.0])
    def test_h_input_immune_to_overlap(self, m):
        branches = {b.outcome: b for b in bsm_apply(ideal_joint(KET_H), BsmModel(m))}
        for outcome in ACCEPTED_OUTCOMES:
            assert fidelity(KET_H, branches[outcome].conditional) > 1 - 1e-12

    def test_plus_input_zero_overlap_fully_mixed(self):
        branches = {b.outcome: b for b in bsm_apply(ideal_joint(KET_PLUS), BsmModel(0.0))}
        for outcome in ACCEPTED_OUTCOMES:
            np.testing.assert_allclose(
                branches[outcome].conditional.matrix, np.eye(2) / 2, atol=1e-12
            )
            assert fidelity(KET_PLUS, branches[outcome].conditional) == pytest.approx(
                0.5, abs=1e-12
            )

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            amps = rng.normal(size=2) + 1j * rng.normal(size=2)
            joint = ideal_joint(PureState(amps))
            total = sum(b.probability for b in bsm_apply(joint, BsmModel(rng.random())))
            assert abs(total - 1.0) < 1e-10

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            bsm_apply(BellState.PHI_PLUS.state.density(), BsmModel(1.0))


class TestFeedForward:
    def test_plus_outcome_untouched(self):
        rho = KET_PLUS.density()
        assert feed_forward(BsmOutcome.PHI_PLUS, rho) is rho

    def test_minus_outcome_flips_diagonal(self):
        out = feed_forward(BsmOutcome.PHI_MINUS, KET_MINUS.density())
        assert fidelity(KET_PLUS, out) > 1 - 1e-12

    def test_minus_outcome_fixes_z_eigenstate(self):
        out = feed_forward(BsmOutcome.PHI_MINUS, KET_H.density())
        assert fidelity(KET_H, out) > 1 - 1e-12

    def test_fail_rejected(self):
        with pytest.raises(ValueError):
            feed_forward(BsmOutcome.FAIL, KET_H.density())

    def test_no_correction_gives_one_half_on_superpositions(self):
        # Without the correction the - outcome returns a superposition's
        # orthogonal state, and the two accepted outcomes are equally likely.
        for label, state in mub_states().items():
            branches = bsm_apply(ideal_joint(state), BsmModel(1.0))
            accepted = [b for b in branches if b.outcome in ACCEPTED_OUTCOMES]
            total = sum(b.probability for b in accepted)
            raw = sum(b.probability * fidelity(state, b.conditional) for b in accepted) / total
            fixed = sum(
                b.probability * fidelity(state, feed_forward(b.outcome, b.conditional))
                for b in accepted
            ) / total
            assert fixed == pytest.approx(1.0, abs=1e-12)
            assert raw == pytest.approx(1.0 if label in ("H", "V") else 0.5, abs=1e-12)


class TestTeleportExpected:
    def test_ideal_is_perfect_for_all_inputs(self):
        for state in mub_states().values():
            exp = teleport_expected(state, 1.0, BsmModel(1.0))
            assert exp.average_fidelity == pytest.approx(1.0, abs=1e-12)

    def test_werner_closed_form(self):
        # (1 + p)/2 with p = (4 f - 1)/3; at the bench value 0.933 the
        # expected fidelity is 0.9553333...
        p = (4 * 0.933 - 1) / 3
        expected = (1 + p) / 2
        assert expected == pytest.approx(0.955333, abs=1e-6)
        for state in mub_states().values():
            exp = teleport_expected(state, 0.933, BsmModel(1.0))
            assert exp.average_fidelity == pytest.approx(expected, abs=1e-9)

    def test_zero_overlap_split(self):
        assert teleport_expected(KET_PLUS, 1.0, BsmModel(0.0)).average_fidelity == (
            pytest.approx(0.5, abs=1e-12)
        )
        assert teleport_expected(KET_H, 1.0, BsmModel(0.0)).average_fidelity == (
            pytest.approx(1.0, abs=1e-12)
        )

    def test_basis_symmetry_at_full_overlap(self):
        values = [
            teleport_expected(s, 0.87, BsmModel(1.0)).average_fidelity
            for s in mub_states().values()
        ]
        assert max(values) - min(values) < 1e-10

    def test_overlap_asymmetry(self):
        for m in (0.2, 0.6, 0.9):
            f = {
                k: teleport_expected(s, 1.0, BsmModel(m)).average_fidelity
                for k, s in mub_states().items()
            }
            assert f["H"] > f["+"] + 1e-6
            assert f["H"] > f["R"] + 1e-6
        f1 = {
            k: teleport_expected(s, 1.0, BsmModel(1.0)).average_fidelity
            for k, s in mub_states().items()
        }
        assert abs(f1["H"] - f1["+"]) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        amplitudes=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
            lambda a: sum(x * x for x in a) > 1e-6
        ),
        f_ent=st.floats(0.25, 1.0),
        m=st.floats(0.0, 1.0),
    )
    def test_accepted_outcomes_have_probability_one_quarter(self, amplitudes, f_ent, m):
        # Qubit 1 of a Werner pair is maximally mixed, so no input, resource
        # or overlap can make an accepted outcome impossible.
        re_h, im_h, re_v, im_v = amplitudes
        state = PureState([complex(re_h, im_h), complex(re_v, im_v)])
        exp = teleport_expected(state, f_ent, BsmModel(m))
        for outcome in ACCEPTED_OUTCOMES:
            assert exp.probabilities[outcome] == pytest.approx(0.25, abs=1e-12)
            assert outcome in exp.corrected


# ---------------------------------------------------------------------------
# Brute-force oracle: a from-scratch density-matrix pipeline sharing no code
# with the package internals.


def _oracle_average_fidelity(amps: np.ndarray, f_ent: float, m: float) -> float:
    chi = amps / np.linalg.norm(amps)
    rho_in = np.outer(chi, chi.conj())

    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    p = (4 * f_ent - 1) / 3
    resource = p * np.outer(phi, phi.conj()) + (1 - p) * np.eye(4) / 4

    rho = np.kron(rho_in, resource)

    plus = np.zeros((4, 4), dtype=complex)
    plus[0, 0] = plus[3, 3] = 0.5
    plus[0, 3] = plus[3, 0] = 0.5 * m
    minus = plus.copy()
    minus[0, 3] = minus[3, 0] = -0.5 * m

    z = np.diag([1.0, -1.0]).astype(complex)
    weighted = 0.0
    total = 0.0
    for effect, correct in ((plus, False), (minus, True)):
        big = np.kron(effect, np.eye(2, dtype=complex))
        prob = float(np.real(np.trace(big @ rho)))
        numer = (big @ rho).reshape(2, 2, 2, 2, 2, 2)
        rho3 = np.einsum("ijkijm->km", numer) / prob
        if correct:
            rho3 = z @ rho3 @ z
        weighted += prob * float(np.real(chi.conj() @ rho3 @ chi))
        total += prob
    return weighted / total


def test_matches_brute_force_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        f_ent = rng.uniform(0.25, 1.0)
        m = rng.uniform(0.0, 1.0)
        expected = _oracle_average_fidelity(amps, f_ent, m)
        got = teleport_expected(PureState(amps), f_ent, BsmModel(m)).average_fidelity
        assert abs(got - expected) < 1e-10
