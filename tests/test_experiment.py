import math

import numpy as np
import pytest
from scipy import optimize

from uplinksim.bsm import BsmModel
from uplinksim.experiment import (
    CALIBRATED,
    CalibrationError,
    CalibrationTargets,
    CampaignConfig,
    NoiseToggles,
    analytic_fidelities,
    analytic_mean_fidelity,
    build_event_model,
    calibrate,
    classical_baseline,
    default_config,
    error_budget,
    estimate_fidelity,
    expected_accidental_count,
    expected_signal_count,
    fibre_comparison,
    run_campaign,
    run_orbit,
    STATE_LABELS,
    _solve_bounded,
)
from uplinksim.photonsrc import SourceModel
from uplinksim.qstate import PureState, mub_states

from dataclasses import replace


def quiet_config(**overrides) -> CampaignConfig:
    """Calibrated geometry and rates with every noise source disabled."""
    return default_config(toggles=NoiseToggles.all_off(), **overrides)


class TestConfig:
    def test_default_is_valid_and_covers_states(self):
        cfg = default_config()
        assert len(cfg.orbits) == 32
        assert set(cfg.input_schedule) == set(STATE_LABELS)

    def test_schedule_must_cover_all_states(self):
        cfg = default_config()
        with pytest.raises(ValueError):
            replace(cfg, input_schedule=tuple("H" for _ in cfg.orbits))

    def test_toggles_gate_parameters(self):
        cfg = quiet_config()
        assert cfg.double_pair_fraction_eff == 0.0
        assert cfg.mode_overlap_eff == 1.0
        assert cfg.polarization_delta_eff == 0.0
        assert cfg.background_rate_eff == 0.0

    def test_noise_toggle_only(self):
        t = NoiseToggles.only("polarization")
        assert t.polarization and not (t.double_pair or t.distinguishability or t.background)
        with pytest.raises(ValueError):
            NoiseToggles.only("bogus")


class TestEstimateFidelity:
    def test_perfect_counts(self):
        assert estimate_fidelity(10, 0) == (1.0, 0.0)

    def test_eight_two(self):
        f, sigma = estimate_fidelity(8, 2)
        assert f == pytest.approx(0.8, abs=1e-15)
        assert sigma == pytest.approx(np.sqrt(16 / 1000), abs=1e-15)
        assert sigma == pytest.approx(0.1265, abs=5e-5)

    def test_published_scale(self):
        f, sigma = estimate_fidelity(121, 31)
        assert f == pytest.approx(0.796, abs=5e-4)
        assert sigma == pytest.approx(0.0327, abs=5e-5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            estimate_fidelity(0, 0)


class TestRunOrbit:
    def test_noise_free_events_all_correct(self):
        # Boosted source rate to push past 1e5 events across the six states;
        # every single one must land in its correct port.
        cfg = quiet_config(
            source=SourceModel(double_pair_fraction=0.0, fourfold_ground_rate=8210.0 * 500)
        )
        rng = np.random.default_rng(5)
        total = 0
        for index in range(6):
            rec = run_orbit(cfg, index, rng)
            total += rec.total_fourfolds
            model = build_event_model(cfg, rec.state_label)
            for outcome, port in rec.counts:
                if rec.counts[(outcome, port)] == 0:
                    continue
                good = {m.value: p for m, p in model.correct_port.items()}[outcome]
                assert port == good
        assert total > 10**5

    def test_counts_track_expected_exposure(self):
        cfg = default_config()
        rng = np.random.default_rng(7)
        rec = run_orbit(cfg, 0, rng)  # the 76-degree pass
        expected = expected_signal_count(cfg, cfg.orbits[0]) + expected_accidental_count(
            cfg, cfg.orbits[0]
        )
        assert abs(rec.total_fourfolds - expected) < 4 * np.sqrt(expected)

    def test_extra_loss_scales_counts_tenfold(self):
        cfg = default_config()
        dimmed = replace(
            cfg, link=replace(cfg.link, system_efficiency_db=cfg.link.system_efficiency_db + 10.0)
        )
        bright = sum(expected_signal_count(cfg, o) for o in cfg.orbits)
        dim = sum(expected_signal_count(dimmed, o) for o in dimmed.orbits)
        assert bright / dim == pytest.approx(10.0, rel=1e-9)
        rng = np.random.default_rng(11)
        n_dim = sum(run_orbit(dimmed, i, rng).n_signal_truth for i in range(32))
        assert abs(n_dim - dim) < 4 * np.sqrt(dim)

    def test_low_pass_accumulates_less_time(self):
        cfg = default_config()
        rng = np.random.default_rng(13)
        rec = run_orbit(cfg, 31, rng)  # the 20-degree pass
        assert rec.max_elevation_deg == pytest.approx(20.0)
        assert rec.live_time_s < cfg.orbit_duration_s * 0.7


class TestRunCampaign:
    def test_deterministic_given_seed(self):
        cfg = default_config()
        a = run_campaign(cfg)
        b = run_campaign(cfg)
        assert a.to_json() == b.to_json()

    def test_noise_free_campaign_is_perfect(self):
        res = run_campaign(quiet_config())
        assert res.mean_fidelity == 1.0
        for s in res.per_state.values():
            assert s.n_wrong == 0

    def test_calibrated_campaign_vicinity(self):
        res = run_campaign(default_config())
        assert 700 <= res.total_fourfolds <= 1150
        assert abs(res.mean_fidelity - 0.80) < 0.03
        for s in res.per_state.values():
            assert s.fidelity > 2 / 3

    def test_monte_carlo_matches_analytic_within_3_sigma(self):
        cfg = default_config()
        expected = analytic_fidelities(cfg)
        res = run_campaign(cfg)
        for label, summary in res.per_state.items():
            assert abs(summary.fidelity - expected[label]) < 3 * summary.sigma

    def test_jittered_polarization_sampling_matches_quadrature(self):
        # Per-event angle draws (Monte Carlo) against the Gauss-Hermite
        # expectation of the rotation channel (analytic tier).
        cfg = default_config(
            source=SourceModel(
                double_pair_fraction=0.12, fourfold_ground_rate=8210.0 * 50
            ),
            polarization=replace(
                default_config().polarization, delta_rad=0.2, jitter_sigma_rad=0.15
            ),
        )
        res = run_campaign(cfg)
        expected = analytic_fidelities(cfg)
        for label, summary in res.per_state.items():
            assert summary.sigma < 0.01  # enough statistics to be stringent
            assert abs(summary.fidelity - expected[label]) < 3.5 * summary.sigma


class TestAnalyticPipeline:
    def test_all_off_is_exactly_one(self):
        assert analytic_mean_fidelity(quiet_config()) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_each_noise_parameter(self):
        cfg = default_config()
        for grids, make in [
            (np.linspace(0.0, 0.4, 5), lambda v: replace(cfg, source=replace(cfg.source, double_pair_fraction=v))),
            (np.linspace(1.0, 0.2, 5), lambda v: replace(cfg, bsm=BsmModel(mode_overlap=v))),
            (np.linspace(0.0, 0.5, 5), lambda v: replace(cfg, polarization=replace(cfg.polarization, delta_rad=v))),
            (np.linspace(0.0, 2000.0, 5), lambda v: replace(cfg, detection=replace(cfg.detection, background_rate_hz=v))),
        ]:
            means = [analytic_mean_fidelity(make(v)) for v in grids]
            assert all(a >= b - 1e-12 for a, b in zip(means, means[1:]))

    def test_port_choice_invariant_under_global_phase(self):
        cfg = default_config()
        for label, chi in mub_states().items():
            phased = PureState(np.exp(1j * 1.234) * chi.amplitudes)
            plain = build_event_model(cfg, label)
            shifted = build_event_model(cfg, label, input_state=phased)
            for outcome in plain.signal_port_probability:
                assert plain.signal_port_probability[outcome] == pytest.approx(
                    shifted.signal_port_probability[outcome], abs=1e-12
                )
                assert plain.correct_port[outcome] == shifted.correct_port[outcome]

    def test_analyzer_ports_realizable_with_waveplates(self):
        # The two analyzer projectors used by the pipeline are exactly what
        # a QWP + HWP + polarizing splitter realizes: with plate angles that
        # prepare |chi> from |H>, the transmitted-port projector is
        # U |H><H| U^dag = |chi><chi| and the reflected port its complement.
        from uplinksim.photonsrc import prepare_input
        from uplinksim.qstate import jones_hwp, jones_qwp

        for label, chi in mub_states().items():
            prep = prepare_input(chi.amplitudes[0], chi.amplitudes[1])
            u = jones_hwp(prep.hwp_angle) @ jones_qwp(prep.qwp_angle)
            transmitted = u @ np.diag([1.0, 0.0]) @ u.conj().T
            reflected = u @ np.diag([0.0, 1.0]) @ u.conj().T
            direct = np.outer(chi.amplitudes, chi.amplitudes.conj())
            np.testing.assert_allclose(transmitted, direct, atol=1e-9)
            np.testing.assert_allclose(transmitted + reflected, np.eye(2), atol=1e-12)

    def test_feed_forward_required_for_superpositions(self):
        cfg = quiet_config()
        with_ff = analytic_fidelities(cfg, feed_forward=True)
        without = analytic_fidelities(cfg, feed_forward=False)
        for label in ("+", "-", "R", "L"):
            assert with_ff[label] == pytest.approx(1.0, abs=1e-12)
            assert without[label] == pytest.approx(0.5, abs=1e-12)
        for label in ("H", "V"):
            assert without[label] == pytest.approx(with_ff[label], abs=1e-12)


class TestErrorBudget:
    def test_calibrated_budget_near_published_split(self):
        budget = error_budget(default_config())
        published = {
            "double_pair": 0.06,
            "distinguishability": 0.10,
            "polarization": 0.03,
            "background": 0.04,
        }
        for source, target in published.items():
            assert abs(budget[source] - target) <= 0.02

    def test_combined_is_subadditive_and_consistent(self):
        cfg = default_config()
        budget = error_budget(cfg)
        individual = sum(budget[s] for s in ("double_pair", "distinguishability", "polarization", "background"))
        assert budget["combined"] <= individual
        assert budget["combined"] == pytest.approx(1 - analytic_mean_fidelity(cfg), abs=1e-12)
        assert abs(budget["combined"] - 0.20) < 0.04

    def test_noise_free_budget_vanishes(self):
        cfg = default_config(
            source=SourceModel(double_pair_fraction=0.0),
            bsm=BsmModel(mode_overlap=1.0),
            polarization=replace(default_config().polarization, delta_rad=0.0),
            detection=replace(default_config().detection, background_rate_hz=0.0),
        )
        budget = error_budget(cfg)
        for source in ("double_pair", "distinguishability", "polarization", "background", "combined"):
            assert abs(budget[source]) < 1e-12


class TestCalibrate:
    def test_reproduces_frozen_defaults(self):
        result = calibrate()
        assert result.converged
        for key, frozen in CALIBRATED.items():
            assert result.params[key] == pytest.approx(frozen, rel=1e-6), key

    def test_round_trip_known_parameters(self):
        known = dict(
            double_pair_fraction=0.10,
            mode_overlap=0.80,
            polarization_delta_rad=0.15,
            background_rate_hz=220.0,
            receiver_efficiency=0.30,
        )
        cfg = default_config(
            source=SourceModel(double_pair_fraction=known["double_pair_fraction"]),
            bsm=BsmModel(mode_overlap=known["mode_overlap"]),
            polarization=replace(
                default_config().polarization, delta_rad=known["polarization_delta_rad"]
            ),
            detection=replace(
                default_config().detection,
                background_rate_hz=known["background_rate_hz"],
                receiver_efficiency=known["receiver_efficiency"],
            ),
        )
        budget = error_budget(cfg)
        total = sum(
            expected_signal_count(cfg, o) + expected_accidental_count(cfg, o)
            for o in cfg.orbits
        )
        targets = CalibrationTargets(
            loss_max_db=52.0,
            loss_min_db=41.0,
            total_fourfolds=total,
            deficit_double_pair=budget["double_pair"],
            deficit_distinguishability=budget["distinguishability"],
            deficit_polarization=budget["polarization"],
            deficit_background=budget["background"],
        )
        result = calibrate(targets)
        for key, value in known.items():
            assert result.params[key] == pytest.approx(value, rel=0.01), key

    def test_published_targets_keep_overlap_plausible(self):
        result = calibrate()
        assert 0.7 < result.params["mode_overlap"] < 1.0
        assert abs(result.residuals["deficit_distinguishability"]) <= 0.02

    def test_infeasible_polarization_target_flagged(self):
        with pytest.raises(CalibrationError) as err:
            calibrate(CalibrationTargets(deficit_polarization=0.5))
        assert abs(err.value.result.residuals["deficit_polarization"]) > 0.02

    def test_applied_parameters_round_trip_through_config(self):
        result = calibrate()
        cfg = result.apply(default_config())
        assert cfg.bsm.mode_overlap == result.params["mode_overlap"]
        assert cfg.link.zenith_transmittance == result.params["zenith_transmittance"]


class TestSolveBounded:
    @staticmethod
    def counted(fun):
        calls = []

        def wrapped(x):
            calls.append(x)
            return fun(x)

        return wrapped, calls

    @pytest.mark.parametrize(
        "fun, lo, hi",
        [
            (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),  # smooth
            (lambda x: math.tanh(200.0 * (x - 0.3)), 0.0, 1.0),  # steep
            (lambda x: x**2 - (1.0 - 5e-10) ** 2, 0.0, 1.0),  # root near hi
            (lambda x: x * (x + 1.0), 0.0, 1.0),  # exactly zero at lo
        ],
        ids=["smooth", "steep", "root-near-bound", "zero-at-lo"],
    )
    def test_matches_brentq_oracle(self, fun, lo, hi):
        wrapped, calls = self.counted(fun)
        root, residual = _solve_bounded(wrapped, lo, hi)
        expected, info = optimize.brentq(fun, lo, hi, xtol=1e-12, full_output=True)
        assert root == pytest.approx(expected, abs=1e-12)
        assert len(calls) <= info.function_calls + 1
        assert residual == fun(root)

    @pytest.mark.parametrize(
        "fun, expected", [(lambda x: x + 1.0, (0.0, 1.0)), (lambda x: x - 5.0, (1.0, -4.0))]
    )
    def test_no_sign_change_returns_closer_bound(self, fun, expected):
        wrapped, calls = self.counted(fun)
        assert _solve_bounded(wrapped, 0.0, 1.0) == expected
        assert calls == [0.0, 1.0]


class TestClassicalBaseline:
    def test_converges_to_two_thirds(self):
        rng = np.random.default_rng(97)
        value = classical_baseline(10**6, rng)
        assert abs(value - 2 / 3) < 0.002

    def test_aligned_measurement_is_perfect(self):
        # Degenerate check of the strategy arithmetic: measuring along the
        # input axis and resending returns the input exactly.
        cosine = 1.0
        p_plus = 0.5 * (1 + cosine)
        assert p_plus == 1.0
        assert 0.5 * (1 + 1.0 * cosine) == 1.0

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            classical_baseline(0, np.random.default_rng(1))


class TestFibreComparison:
    def test_attenuation_arithmetic(self):
        out = fibre_comparison(8210.0, 1200.0, 0.2)
        assert out.total_loss_db == pytest.approx(240.0, abs=1e-12)
        assert out.transmittance == pytest.approx(1e-24, rel=1e-12)

    def test_waiting_time_band(self):
        out = fibre_comparison(8210.0, 1200.0, 0.2)
        assert 1e11 < out.expected_wait_years < 1e13
        assert out.expected_wait_years == pytest.approx(3.86e12, rel=0.01)

    def test_lossless_is_inverse_rate(self):
        out = fibre_comparison(100.0, 0.0, 0.2)
        assert out.expected_wait_s == pytest.approx(0.01, abs=1e-15)

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError):
            fibre_comparison(0.0, 1200.0, 0.2)
