import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from uplinksim import experiment, timesync
from uplinksim.timesync import (
    ClockModel,
    MatchResult,
    SyncConfig,
    TimeTagStream,
    accidental_rate,
    fit_clock,
    generate_streams,
    match_coincidences,
    sync_pulse_times_ps,
)


def greedy_match_oracle(ground, satellite, clock, window_ps):
    """Reference matcher: one pass over every ground tag in time order,
    taking the nearest unused satellite tag in its window (the earlier one
    on an exact tie)."""
    half = window_ps / 2.0
    g = ground.times_ps.astype(float)
    s = clock.ground_time(satellite.times_ps)
    used = np.zeros(s.size, dtype=bool)
    pairs = []
    lo = 0
    for gi, t in enumerate(g):
        while lo < s.size and (s[lo] < t - half or used[lo]):
            lo += 1
        best = -1
        best_dist = np.inf
        j = lo
        while j < s.size and s[j] <= t + half:
            if not used[j]:
                dist = abs(s[j] - t)
                if dist < best_dist:
                    best = j
                    best_dist = dist
            j += 1
        if best >= 0:
            used[best] = True
            pairs.append((gi, best))
    return MatchResult(
        pairs=tuple(pairs),
        n_ground_unmatched=g.size - len(pairs),
        n_satellite_unmatched=s.size - len(pairs),
    )


def merge_sorted_oracle(events, event_channel, background, background_channel):
    """Reference merge: concatenate events then background, stable argsort."""
    all_t = np.concatenate([np.asarray(events, dtype=np.int64), np.asarray(background, dtype=np.int64)])
    all_c = np.concatenate(
        [np.full(len(events), event_channel, dtype=np.int16),
         np.full(len(background), background_channel, dtype=np.int16)]
    )
    order = np.argsort(all_t, kind="stable")
    return all_t[order], all_c[order]


def write_lines_oracle(stream, path):
    """Reference writer of the `channel,time_ps` format, one line at a time."""
    with open(path, "w", encoding="ascii") as fh:
        for ch, t in zip(stream.channels, stream.times_ps):
            fh.write(f"{int(ch)},{int(t)}\n")


class TestTypes:
    def test_stream_requires_sorted(self):
        with pytest.raises(ValueError):
            TimeTagStream([10, 5], [1, 1])

    def test_stream_immutable(self):
        stream = TimeTagStream([1, 2], [1, 1])
        with pytest.raises(AttributeError):
            stream.times_ps = np.array([])

    def test_drift_bound(self):
        with pytest.raises(ValueError):
            ClockModel(drift_ppm=150.0)

    def test_clock_roundtrip(self):
        clock = ClockModel(offset_ps=1e9, drift_ppm=12.0)
        t = np.array([0.0, 1e12, 3.5e14])
        np.testing.assert_allclose(clock.ground_time(clock.satellite_time(t)), t, rtol=1e-12)

    def test_satellite_time_accepts_list_array_and_scalar(self):
        clock = ClockModel(offset_ps=5.0, drift_ppm=12.0)
        t = [1.0, 2.0, 3.5e14]
        expected = clock.satellite_time(np.array(t))
        np.testing.assert_array_equal(clock.satellite_time(t), expected)
        assert [clock.satellite_time(v) for v in t] == list(expected)

    def test_sync_config_defaults_keep_window_wide(self):
        cfg = SyncConfig()
        assert cfg.window_ps >= 6 * cfg.detector_jitter_sigma_ps

    def test_dump_load_roundtrip(self, tmp_path):
        stream = TimeTagStream([5, 17, 17, 400], [1, 0, 2, 1])
        path = tmp_path / "tags.txt"
        stream.dump(path)
        back = TimeTagStream.load(path)
        np.testing.assert_array_equal(back.times_ps, stream.times_ps)
        np.testing.assert_array_equal(back.channels, stream.channels)

    def test_dump_load_roundtrip_large_with_ties(self, tmp_path):
        rng = np.random.default_rng(31)
        times = np.sort(rng.integers(-10**6, 3 * 10**14, size=100_000))
        times[1::7] = times[::7][: times[1::7].size]  # ties across channels
        times = np.sort(times)
        channels = rng.integers(-32768, 32768, size=times.size).astype(np.int16)
        stream = TimeTagStream(times, channels)
        path, reference = tmp_path / "tags.txt", tmp_path / "reference.txt"
        stream.dump(path)
        write_lines_oracle(stream, reference)
        assert path.read_bytes() == reference.read_bytes()
        back = TimeTagStream.load(path)
        np.testing.assert_array_equal(back.times_ps, stream.times_ps)
        np.testing.assert_array_equal(back.channels, stream.channels)

    def test_load_orders_by_time_stably(self, tmp_path):
        path = tmp_path / "tags.txt"
        path.write_text("3,40\n1,17\n\n0,17\n2,5\n1,40\n", encoding="ascii")
        back = TimeTagStream.load(path)
        np.testing.assert_array_equal(back.times_ps, [5, 17, 17, 40, 40])
        np.testing.assert_array_equal(back.channels, [2, 1, 0, 3, 1])

    def test_empty_file_loads_empty_stream_without_warning(self, tmp_path):
        path = tmp_path / "tags.txt"
        TimeTagStream([], []).dump(path)
        assert path.read_bytes() == b""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = TimeTagStream.load(path)
        assert len(back) == 0

    @pytest.mark.parametrize("line", ["1,x", "1", "1,2,3", "40000,5"])
    def test_malformed_line_rejected(self, tmp_path, line):
        path = tmp_path / "tags.txt"
        path.write_text(f"0,1\n{line}\n", encoding="ascii")
        with pytest.raises(ValueError):
            TimeTagStream.load(path)


class TestGenerateStreams:
    def test_no_input_no_output(self):
        rng = np.random.default_rng(0)
        g, s = generate_streams([], ClockModel(), 0.0, 0.0, 0.0, 350.0, rng)
        assert len(g) == 0 and len(s) == 0

    def test_pure_offset_displacement(self):
        rng = np.random.default_rng(1)
        clock = ClockModel(offset_ps=1_000_000.0)
        events = np.arange(10) * 10**10
        g, s = generate_streams(events, clock, 0.0, 0.0, 0.0, 1.0, rng)
        np.testing.assert_array_equal(s.times_ps - g.times_ps, 1_000_000)

    def test_dark_counts_poisson_mean(self):
        rng = np.random.default_rng(2)
        _, s = generate_streams([], ClockModel(), 0.0, 0.0, 150.0, 350.0, rng)
        mean = 150 * 350
        assert abs(len(s) - mean) < 3 * np.sqrt(mean)

    def test_background_counts_pass_chi_square(self):
        # 100 independent runs; sum of ((N - lam)/sqrt(lam))^2 should look
        # like a chi-square with 100 degrees of freedom at the 1% level.
        rng = np.random.default_rng(3)
        lam = 150.0 * 350.0
        stat = 0.0
        for _ in range(100):
            _, s = generate_streams([], ClockModel(), 0.0, 0.0, 150.0, 350.0, rng)
            stat += (len(s) - lam) ** 2 / lam
        p = stats.chi2.sf(stat, df=100)
        assert 0.01 < p < 0.99

    def test_drift_and_jitter_displacement(self):
        rng = np.random.default_rng(4)
        clock = ClockModel(offset_ps=5e8, drift_ppm=10.0)
        events = np.linspace(0, 3.5e14, 1000)
        g, s = generate_streams(events, clock, 100.0, 0.0, 0.0, 350.0, rng)
        predicted = clock.satellite_time(g.times_ps.astype(float))
        residual = s.times_ps.astype(float) - predicted
        assert abs(residual.mean()) < 20.0
        assert 80.0 < residual.std() < 120.0

    def test_merge_matches_argsort_oracle(self, monkeypatch):
        # A 2 ns slice with ~100 tags per stream forces ties between event
        # and background tags; jitter leaves the satellite events unsorted.
        kwargs = dict(event_channel=1, background_channel=2)
        clock = ClockModel(offset_ps=3.0, drift_ppm=50.0)
        ties = 0
        for seed in range(5):
            events = np.random.default_rng(seed).integers(0, 2000, size=40)
            args = (events, clock, 30.0, 5e10, 5e10, 2e-9)
            with monkeypatch.context() as patch:
                patch.setattr(timesync, "_merge_sorted", merge_sorted_oracle)
                expected = generate_streams(*args, np.random.default_rng(seed), **kwargs)
            streams = generate_streams(*args, np.random.default_rng(seed), **kwargs)
            for got, want in zip(streams, expected):
                np.testing.assert_array_equal(got.times_ps, want.times_ps)
                np.testing.assert_array_equal(got.channels, want.channels)
                ties += np.intersect1d(got.channel(1), got.channel(2)).size
        assert ties > 0

    def test_merge_puts_event_before_background_on_tie(self):
        events, background = np.array([10, 5]), np.array([10, 3, 10])
        times, channels = timesync._merge_sorted(events, 1, background, 2)
        np.testing.assert_array_equal(times, [3, 5, 10, 10, 10])
        np.testing.assert_array_equal(channels, [2, 1, 1, 2, 2])
        want_t, want_c = merge_sorted_oracle(events, 1, background, 2)
        np.testing.assert_array_equal(times, want_t)
        np.testing.assert_array_equal(channels, want_c)


class TestFitClock:
    def test_exact_offset_recovery(self):
        g = np.arange(0, 1000) * 10**8
        clock = ClockModel(offset_ps=1e9, drift_ppm=0.0)
        fit = fit_clock(g, clock.satellite_time(g))
        assert fit.clock.offset_ps == pytest.approx(1e9, abs=1.0)
        assert fit.clock.drift_ppm == pytest.approx(0.0, abs=1e-6)

    def test_drift_recovery_full_pass(self):
        # 10 kHz sync over 350 s: 3.5e6 pulses, 100 ps jitter.
        rng = np.random.default_rng(11)
        g = np.arange(3_500_000, dtype=float) * 1e8
        clock = ClockModel(offset_ps=2.5e9, drift_ppm=10.0)
        s = clock.satellite_time(g) + rng.normal(0, 100.0, size=g.size)
        fit = fit_clock(g, s)
        assert fit.clock.drift_ppm == pytest.approx(10.0, abs=0.01)
        assert fit.residual_rms_ps <= 3 * 100.0

    def test_end_to_end_sync_link_recovery(self):
        # Full chain: emit the 10 kHz sync grid, detect it on both clocks
        # with jitter, fit, and check the recovered relation.
        rng = np.random.default_rng(15)
        cfg = SyncConfig()
        pulses = sync_pulse_times_ps(cfg, duration_s=350.0)
        assert len(pulses) == 3_500_000
        clock = ClockModel(offset_ps=8.6e8, drift_ppm=-4.0)
        ground, sat = generate_streams(
            pulses, clock, cfg.detector_jitter_sigma_ps, 0.0, 0.0, 350.0, rng,
            event_channel=0,
        )
        fit = fit_clock(ground.channel(0), sat.channel(0))
        assert fit.clock.drift_ppm == pytest.approx(-4.0, abs=0.01)
        assert fit.clock.offset_ps == pytest.approx(8.6e8, abs=5.0)
        assert fit.residual_rms_ps <= 3 * cfg.detector_jitter_sigma_ps

    def test_too_few_pulses(self):
        with pytest.raises(ValueError):
            fit_clock([1e8], [1e8])

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            fit_clock([2e8, 1e8], [2e8, 3e8])


class TestMatchCoincidences:
    def test_single_event_matches(self):
        rng = np.random.default_rng(21)
        clock = ClockModel(offset_ps=7e8)
        g, s = generate_streams([1e10], clock, 100.0, 0.0, 0.0, 1.0, rng)
        res = match_coincidences(g, s, clock, window_ps=3000.0)
        assert res.n_matched == 1

    def test_nearest_wins_on_double_candidate(self):
        ground = TimeTagStream([10_000], [1])
        sat = TimeTagStream([10_200, 10_900], [1, 1])
        res = match_coincidences(ground, sat, ClockModel(), window_ps=3000.0)
        assert res.pairs == ((0, 0),)
        assert res.n_satellite_unmatched == 1

    def test_each_tag_used_once(self):
        ground = TimeTagStream([10_000, 10_100], [1, 1])
        sat = TimeTagStream([10_050], [1])
        res = match_coincidences(ground, sat, ClockModel(), window_ps=3000.0)
        assert res.n_matched == 1
        assert res.pairs[0] == (0, 0)

    def test_monotone_in_window(self):
        rng = np.random.default_rng(22)
        events = np.sort(rng.uniform(0, 1e12, size=200))
        clock = ClockModel(offset_ps=3e7, drift_ppm=5.0)
        g, s = generate_streams(events, clock, 400.0, 0.0, 2000.0, 1.0, rng)
        counts = [
            match_coincidences(g, s, clock, w).n_matched
            for w in (500.0, 1500.0, 3000.0, 9000.0)
        ]
        assert counts == sorted(counts)

    def test_symmetric_under_exchange(self):
        rng = np.random.default_rng(23)
        events = np.sort(rng.uniform(0, 1e12, size=300))
        clock = ClockModel()
        g, s = generate_streams(events, clock, 200.0, 100.0, 100.0, 1.0, rng)
        forward = match_coincidences(g, s, clock, 3000.0)
        backward = match_coincidences(s, g, clock, 3000.0)
        assert forward.n_matched == backward.n_matched

    def test_wide_window_catches_jittered_events(self):
        # w = 6 sigma keeps better than 99% of true pairs.
        rng = np.random.default_rng(24)
        sigma = 150.0
        events = np.sort(rng.uniform(0, 1e13, size=10_000))
        clock = ClockModel(offset_ps=1e9, drift_ppm=3.0)
        g, s = generate_streams(events, clock, sigma, 0.0, 0.0, 10.0, rng)
        res = match_coincidences(g, s, clock, window_ps=6 * sigma)
        assert res.n_matched >= 0.99 * len(events)

    def test_accidentals_scale_with_background(self):
        # Signal off: match probability per trigger is background * window.
        rng = np.random.default_rng(25)
        duration = 50.0
        trigger_rate, background = 2000.0, 20_000.0
        window_s = 1e-6
        n_trig = rng.poisson(trigger_rate * duration)
        g_times = np.sort(rng.uniform(0, duration * 1e12, size=n_trig)).astype(np.int64)
        ground = TimeTagStream(g_times, np.ones(n_trig, dtype=np.int16))
        _, sat = generate_streams([], ClockModel(), 0.0, 0.0, background, duration, rng)
        res = match_coincidences(ground, sat, ClockModel(), window_ps=window_s * 1e12)
        expected = accidental_rate(trigger_rate, background, window_s) * duration
        assert abs(res.n_matched - expected) < 3 * np.sqrt(expected)

    def test_edge_of_window_tie_takes_earlier_tag(self):
        # Both satellite tags sit exactly on the window edges, equidistant.
        ground = TimeTagStream([1_000, 1_000], [1, 1])
        sat = TimeTagStream([500, 3_500, 3_501], [1, 1, 1])  # ground clock: -500, 2500, 2501
        clock = ClockModel(offset_ps=1_000.0)
        res = match_coincidences(ground, sat, clock, window_ps=3000.0)
        assert res.pairs == ((0, 0), (1, 1))
        assert res == greedy_match_oracle(ground, sat, clock, 3000.0)

    def test_window_edge_rounding_across_power_of_two(self):
        # The satellite tag maps to ground time 256 + 1017.0159636...; the
        # loop's test `s <= t + half` passes, but `s - half` rounds above
        # 256 across the 256/512 binade, so an unpadded search from the
        # satellite side would miss the ground tag.
        ground = TimeTagStream([256], [1])
        sat = TimeTagStream([1279], [1])
        clock = ClockModel(offset_ps=6.0, drift_ppm=-12.54)
        window = 2034.0319272403674
        s = float(clock.ground_time(sat.times_ps)[0])
        assert s <= 256.0 + window / 2 and s - window / 2 > 256.0
        res = match_coincidences(ground, sat, clock, window)
        assert res.pairs == ((0, 0),)
        assert res == greedy_match_oracle(ground, sat, clock, window)

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_matches_greedy_oracle(self, data):
        window = data.draw(
            st.sampled_from([1.0, 2.0, 3.0, 3000.0, 10_000.0]) | st.floats(1.0, 10_000.0)
        )
        half = window / 2.0
        clock = data.draw(
            st.sampled_from([ClockModel(), ClockModel(offset_ps=-7.0)])
            | st.builds(
                ClockModel,
                offset_ps=st.floats(-1e9, 1e9),
                drift_ppm=st.floats(-99.0, 99.0),
            )
        )
        base = data.draw(st.sampled_from([0, 10**9, 3 * 10**14]))
        spread = max(int(3 * window), 3)
        offsets = st.lists(st.integers(0, spread), max_size=25)
        ground = np.sort(base + np.array(data.draw(offsets), dtype=np.int64))
        # Satellite tags: copies of ground tags moved onto, just inside and
        # just outside the window edges or anywhere nearby, plus free tags.
        shift = st.sampled_from([0.0, half, -half, half - 1, 1 - half, half + 1, -half - 1])
        near = data.draw(
            st.lists(st.tuples(st.integers(0, max(ground.size - 1, 0)), shift | st.floats(-window, window)))
        ) if ground.size else []
        sat = [clock.satellite_time(float(ground[i]) + d) for i, d in near]
        sat += [clock.satellite_time(float(base + x)) for x in data.draw(offsets)]
        sat = np.sort(np.round(np.array(sat, dtype=float)).astype(np.int64))
        g = TimeTagStream(ground, np.ones(ground.size))
        s = TimeTagStream(sat, np.ones(sat.size))
        assert match_coincidences(g, s, clock, window) == greedy_match_oracle(g, s, clock, window)
        assert match_coincidences(s, g, clock, window) == greedy_match_oracle(s, g, clock, window)


class TestAccidentalRate:
    def test_zero_window(self):
        assert accidental_rate(1000.0, 500.0, 0.0) == 0.0

    def test_published_style_numbers(self):
        assert accidental_rate(0.26, 500.0, 3e-9) == pytest.approx(3.9e-7, rel=1e-12)
        # per-trigger probability at 500 Hz background in a 3 ns window
        assert 500.0 * 3e-9 == pytest.approx(1.5e-6, rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            accidental_rate(-1.0, 500.0, 3e-9)

    def test_matched_accidentals_at_calibrated_herald_rate(self):
        # The campaign's accidental count is accidental_rate(herald rate,
        # satellite background, 3 ns) x live time.  Check that formula at
        # tag level: signal off, the calibrated ground herald stream against
        # a satellite background raised to give ~120 matches in 10 s.
        config = experiment.default_config()
        herald = config.threefold_herald_rate
        window_s = config.detection.coincidence_window_s
        background, duration = 2.5e5, 10.0
        clock = ClockModel(offset_ps=1_234_567.0, drift_ppm=3.2)
        rng = np.random.default_rng(41)
        ground, sat = generate_streams([], clock, 0.0, herald, background, duration, rng)
        res = match_coincidences(ground, sat, clock, window_ps=window_s * 1e12)
        expected = accidental_rate(herald, background, window_s) * duration
        assert expected >= 100.0
        assert abs(res.n_matched - expected) < 3 * np.sqrt(expected)
