import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uplinksim import experiment, timesync
from uplinksim.timesync import (
    ClockFit,
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


# Relative timing jitter of the detectors and the sync link, in ps.
LINK_JITTER_PS = 150.0


def chi2_sf_even_dof(x: float, dof: int) -> float:
    """Chi-square survival function for an even number of degrees of
    freedom, in closed form: exp(-x/2) * sum_{j < dof/2} (x/2)^j / j!."""
    assert dof % 2 == 0
    half = x / 2.0
    term, total = 1.0, 0.0
    for j in range(dof // 2):
        total += term
        term *= half / (j + 1)
    return math.exp(-half) * total


@pytest.mark.parametrize(
    "x, expected",
    # scipy 1.17.1 stats.chi2.sf(x, 100)
    [(70.0, 0.9901544975235914), (100.0, 0.48119168452795674), (140.0, 0.0051405024585059085)],
)
def test_chi2_sf_matches_reference_values(x, expected):
    assert chi2_sf_even_dof(x, 100) == pytest.approx(expected, rel=0.0, abs=1e-12)


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


def background_tags_oracle(rate_hz, duration_s, rng):
    """Reference background: a Poisson number of `rng.uniform` tags over
    the span, rounded to integer ps."""
    n = rng.poisson(rate_hz * duration_s)
    times = rng.uniform(0.0, duration_s * 1e12, size=n)
    return np.rint(times, out=times)


def merge_sorted_oracle(events, event_channel, background, background_channel):
    """Reference merge of two unsorted tag sets: both sorted, the events
    inserted at `searchsorted(background, events) + arange`, so that they
    come first on equal times, and the background scattered around them."""
    events.sort()
    background.sort()
    at = np.searchsorted(background, events, "left")
    at += np.arange(events.size)
    times = np.empty(events.size + background.size, dtype=np.int64)
    channels = np.full(times.size, background_channel, dtype=np.int16)
    channels[at] = event_channel
    is_background = np.ones(times.size, dtype=bool)
    is_background[at] = False
    times[is_background] = background
    times[at] = events
    return times, channels


def tag_stream_oracle(events, event_channel, rate_hz, duration_s, rng, background_channel):
    """Reference stream builder, with the draws of `timesync._tag_stream`:
    the background drawn into its own array, then merged with the events."""
    background = background_tags_oracle(rate_hz, duration_s, rng)
    return TimeTagStream(*merge_sorted_oracle(events, event_channel, background, background_channel))


def fit_clock_oracle(ground_sync_ps, satellite_sync_ps) -> ClockFit:
    """Reference clock fit, the whole-array implementation of version
    0.1.5: float copies of the pulses and BLAS dot products, whose sums
    depend on the BLAS thread count."""
    g = np.asarray(ground_sync_ps, dtype=float).reshape(-1)
    # The satellite tags as given, int64 from a tag stream; input that numpy
    # cannot subtract into a float buffer (Python ints past int64, say) is
    # cast once here.
    pulses = np.asarray(satellite_sync_ps).reshape(-1)
    if pulses.dtype.kind not in "iuf":
        pulses = pulses.astype(float)
    s = pulses.astype(float)  # a copy, centred in place below
    if g.size != s.size:
        raise ValueError("sync streams must be matched one-to-one")
    if g.size < 2:
        raise ValueError("clock fit is unrecoverable with fewer than 2 sync pulses")
    # In sorted times +-inf can only sit at the ends, and a NaN anywhere
    # fails the order test, so neither check adds a pass over the pulses.
    if any(math.isinf(t) for t in (g[0], g[-1], s[0], s[-1])):
        raise ValueError("sync times must be finite")
    if not (np.all(g[1:] >= g[:-1]) and np.all(s[1:] >= s[:-1])):
        raise ValueError("sync tags must be sorted ascending, with no NaN")
    if g[0] == g[-1]:
        raise ValueError("clock fit is unrecoverable when all ground sync times are equal")
    g_mean = g.mean()
    s_mean = s.mean()
    # s is the per-element cast of the pulses, so it is centred in place
    # and the pulses stand in for the uncentred satellite times below.
    s -= s_mean
    gc = g - g_mean
    slope = float(gc @ s / (gc @ gc))
    offset = s_mean - slope * g_mean
    # pulses - (offset + slope * g), squared, in the buffer of gc.
    residuals = np.multiply(slope, g, out=gc)
    residuals += offset
    np.subtract(pulses, residuals, out=residuals)
    residuals *= residuals
    rms = float(np.sqrt(np.mean(residuals)))
    clock = ClockModel(offset_ps=float(offset), drift_ppm=(slope - 1.0) * 1e6)
    return ClockFit(clock=clock, residual_rms_ps=rms, n_pulses=int(g.size))


def clock_fit_reference(ground, satellite, chunk=1 << 18):
    """The least-squares line in np.longdouble: (offset ps, drift ppm, rms
    ps).  Three passes over chunks of the pulses: the means, the slope from
    the times centred on them, and the residuals about that line."""
    ld = np.longdouble
    n = len(ground)
    spans = [(i, min(i + chunk, n)) for i in range(0, n, chunk)]

    def part(times, i, j):
        return np.asarray(times[i:j]).astype(ld)

    g_mean = sum(part(ground, i, j).sum() for i, j in spans) / n
    s_mean = sum(part(satellite, i, j).sum() for i, j in spans) / n
    sxx = sxy = ld(0)
    for i, j in spans:
        x = part(ground, i, j) - g_mean
        sxx += np.dot(x, x)
        sxy += np.dot(x, part(satellite, i, j) - s_mean)
    slope = sxy / sxx
    rss = ld(0)
    for i, j in spans:
        r = part(satellite, i, j) - s_mean - slope * (part(ground, i, j) - g_mean)
        rss += np.dot(r, r)
    return s_mean - slope * g_mean, (slope - 1) * ld(1e6), np.sqrt(rss / n)


def drifting_sync(n, seed):
    """n pulses of the 10 kHz sync grid and their int64 satellite tags
    under the tag chain's clock, with 150 ps jitter."""
    rng = np.random.default_rng([seed, n])
    clock = ClockModel(offset_ps=1_234_567.0, drift_ppm=3.2)
    ground = np.arange(n) * 1e8
    satellite = np.round(clock.satellite_time(ground) + rng.normal(0.0, 150.0, size=n))
    return ground, satellite.astype(np.int64)


def full_pass_sync():
    """The 350 s pass of `test_drift_recovery_full_pass`: 3.5e6 pulses,
    10 ppm drift and 100 ps jitter, float on both sides."""
    rng = np.random.default_rng(11)
    g = np.arange(3_500_000, dtype=float) * 1e8
    clock = ClockModel(offset_ps=2.5e9, drift_ppm=10.0)
    return g, clock.satellite_time(g) + rng.normal(0, 100.0, size=g.size)


def owns_its_buffer(array: np.ndarray) -> bool:
    """True when the array's memory is a buffer of exactly its own bytes:
    its own, or that of the one array it is a reshaped view of."""
    owner = array if array.base is None else array.base
    return owner.flags.owndata and owner.nbytes == array.nbytes


def tags_chain(seed):
    """The tag chain on a 30 s culmination slice: ~4.9e5 ground tags (a
    16.4 kHz herald background), ~4.2e3 satellite tags (141 Hz), eight
    true pairs, a drifting clock and the 10 kHz sync grid."""
    rng = np.random.default_rng([seed, 30])
    clock = ClockModel(offset_ps=1_234_567.0, drift_ppm=3.2)
    duration = 30.0
    pairs = np.sort(rng.uniform(0.0, duration * 1e12, size=8))
    sync_ground = sync_pulse_times_ps(SyncConfig(), duration)
    sync_satellite = np.round(
        clock.satellite_time(sync_ground) + rng.normal(0.0, 150.0, size=sync_ground.size)
    ).astype(np.int64)
    ground, satellite = generate_streams(
        pairs, clock, 150.0, 16_400.0, 141.0, duration, rng, event_channel=1, background_channel=2
    )
    fit = fit_clock(sync_ground, sync_satellite)
    match = match_coincidences(ground, satellite, fit.clock, 3000.0)
    return (ground, satellite), (sync_ground, sync_satellite), fit, match


def traced_peak(fn, *args, **kwargs):
    """fn's result and the peak bytes it held allocated during the call
    (numpy buffers included)."""
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def digest(array: np.ndarray) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


# The tag chain's output on `tags_chain`: sha256 of each stream's times
# and channels, as first computed with the straightforward copying
# implementation, the clock fit's repr, as fitted blockwise since version
# 0.1.6, and the matches.  Any change here is a change to the seeded streams
# or to the fit or matcher, and must be deliberate.
PINNED_CHAIN = {
    5: {
        "ground": (
            "27737a601d2b87924a62e91e6605c125e4e5510643e69aa44f92329dda510b8e",
            "667fb240d88b41503626b834e93866103448ca355ff00298a3196e876e3680fd",
        ),
        "satellite": (
            "0ad4070ea617ad83fd61d25cf53a715d572c96df9ba043e9a154dacd029bde2d",
            "0216f8a7e9757c31d2005401e01ffb10c53feade11d8db484b460f8e9f190a5a",
        ),
        "fit": (
            "ClockFit(clock=ClockModel(offset_ps=1234567.1953125, drift_ppm=3.19999996256648), "
            "residual_rms_ps=149.9590228354201, n_pulses=300000)"
        ),
        "pairs": (
            (15771, 152), (86941, 783), (174842, 1509), (217450, 1857),
            (233902, 1995), (253206, 2177), (311931, 2687), (446462, 3889),
        ),
        "unmatched": (491923, 4262),
    },
    6: {
        "ground": (
            "78d26ec80fef9028c77c025f1b644ecaf0ba6d4ddd873b319b844f9a45a8cba6",
            "d7eb7f85b3e02913f1678402bed71cf2999f0196ea622cd3cd8dd3b281f24642",
        ),
        "satellite": (
            "45ddb16cca2d67d9a5653a927ac8f0b8cb12d49ee0f025f0f39e4b5a2388620c",
            "27c9882767ced195dda4fb8379fe3b1c82ef2356f84f06eab83ee1fff34de174",
        ),
        "fit": (
            "ClockFit(clock=ClockModel(offset_ps=1234567.70703125, drift_ppm=3.1999999576814986), "
            "residual_rms_ps=149.77747760203198, n_pulses=300000)"
        ),
        "pairs": (
            (2100, 18), (72069, 623), (96655, 793), (100592, 827), (118563, 992),
            (223952, 1892), (296229, 2481), (480322, 4019), (488862, 4083),
        ),
        "unmatched": (491659, 4099),
    },
}


class TestTagChain:
    @pytest.mark.parametrize("seed", sorted(PINNED_CHAIN))
    def test_chain_output_matches_pinned_values(self, seed):
        pinned = PINNED_CHAIN[seed]
        (ground, satellite), _, fit, match = tags_chain(seed)
        assert (digest(ground.times_ps), digest(ground.channels)) == pinned["ground"]
        assert (digest(satellite.times_ps), digest(satellite.channels)) == pinned["satellite"]
        assert repr(fit) == pinned["fit"]
        assert match.pairs == pinned["pairs"]
        assert (match.n_ground_unmatched, match.n_satellite_unmatched) == pinned["unmatched"]

    def test_generate_streams_peak_allocation(self):
        # Each stream's times and channels, with its background drawn,
        # sorted and cast in the times' own buffer, plus the stream's order
        # check of one byte per tag: no background copy and no mask.
        clock = ClockModel(offset_ps=1_234_567.0, drift_ppm=3.2)
        pairs = np.linspace(1e9, 29e12, 8)
        rng = np.random.default_rng(5)
        streams, peak = traced_peak(
            generate_streams, pairs, clock, 150.0, 16_400.0, 141.0, 30.0, rng
        )
        returned = sum(s.times_ps.nbytes + s.channels.nbytes for s in streams)
        assert len(streams[0]) > 480_000
        assert peak <= 1.2 * returned, peak / returned

    def test_stream_order_check_allocates_one_byte_per_tag(self):
        # One byte per tag of one block, as the order is checked blockwise,
        # plus a few array headers.
        times = np.arange(500_000, dtype=np.int64) * 60_000_000
        stream, peak = traced_peak(TimeTagStream, times, np.ones(times.size, dtype=np.int16))
        assert np.shares_memory(stream.times_ps, times)
        assert peak <= timesync._BLOCK + 4096

    def test_match_coincidences_does_not_copy_ground_stream(self):
        (ground, satellite), _, fit, _ = tags_chain(5)
        match, peak = traced_peak(match_coincidences, ground, satellite, fit.clock, 3000.0)
        assert match.pairs == PINNED_CHAIN[5]["pairs"]
        assert ground.times_ps.nbytes > 3_900_000
        assert peak < 1_000_000

    def test_fit_clock_peak_allocation(self):
        # Three float blocks of scratch, whatever the number of pulses and
        # the dtype: int64 tags are cast a block at a time.
        _, (sync_ground, sync_satellite), fit, _ = tags_chain(5)
        for ground, satellite in ((sync_ground, sync_satellite), full_pass_sync()):
            fits = []
            for g in (ground, ground.astype(np.int64)):
                again, peak = traced_peak(fit_clock, g, satellite)
                assert peak <= 4 * 8 * timesync._BLOCK, (g.size, g.dtype, peak)
                fits.append(again)
            assert fits[0] == fits[1]
        assert fits[0].n_pulses == 3_500_000

    @pytest.mark.parametrize(
        "ground_dtype, satellite_dtype",
        [("float64", "float64"), ("float64", "int64"), ("int64", "float64"), ("int64", "int64")],
    )
    def test_fit_clock_leaves_its_inputs_unchanged(self, ground_dtype, satellite_dtype):
        # Either side may be int64 or float64 with the same bits out: each
        # block is read as float64, and no input is written.
        _, (sync_ground, sync_satellite), fit, _ = tags_chain(5)
        ground, satellite = sync_ground.astype(ground_dtype), sync_satellite.astype(satellite_dtype)
        assert fit_clock(ground, satellite) == fit
        assert np.array_equal(ground, sync_ground)
        assert np.array_equal(satellite, sync_satellite)

    def test_fit_clock_does_not_depend_on_blas_threads(self):
        # Fresh interpreters, as OpenBLAS reads its thread count at import.
        here = Path(__file__).resolve().parent
        path = os.pathsep.join([str(here.parent / "src"), str(here)])
        probe = "from test_timesync import tags_chain; print(repr(tags_chain(5)[2]))"
        fits = [
            subprocess.run(
                [sys.executable, "-c", probe],
                env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for threads in ("1", "2")
        ]
        assert fits[0].startswith("ClockFit(")
        assert fits[0] == fits[1]


class TestTypes:
    def test_stream_requires_sorted(self):
        with pytest.raises(ValueError):
            TimeTagStream([10, 5], [1, 1])

    @pytest.mark.parametrize(
        "times, channels",
        [
            ([1.7, 2.9], [1, 1]),
            (np.array([np.nan, 1.0]), [1, 1]),
            ([1.0, np.inf], [1, 1]),
            ([2.0**63], [1]),
            (np.array([2**63], dtype=np.uint64), [1]),
            ([2**70], [1]),
            (["1"], [1]),
            ([1, 2], np.array([70000, 1])),
            ([1, 2], [1, -32769]),
            ([1, 2], [1.5, 1]),
            ([1, 2], [1, 32768.0]),
            ([-(2.0**64)], [1]),
        ],
    )
    def test_stream_rejects_what_its_dtypes_cannot_hold(self, times, channels):
        # These used to be truncated, wrapped or cast to -2**63.
        with pytest.raises(ValueError, match="must be integers within the int(64|16) range"):
            TimeTagStream(times, channels)

    def test_stream_takes_integral_values_of_any_numeric_dtype(self):
        stream = TimeTagStream([1.0, 2**62, 2.0**63 - 1024], np.array([-32768.0, True, 32767]))
        assert stream.times_ps.tolist() == [1, 2**62, 2**63 - 1024]
        assert stream.channels.tolist() == [-32768, 1, 32767]
        times, channels = np.arange(3, dtype=np.int64), np.ones(3, dtype=np.int16)
        stream = TimeTagStream(times, channels)
        assert np.shares_memory(stream.times_ps, times)
        assert np.shares_memory(stream.channels, channels)

    def test_stream_immutable(self):
        stream = TimeTagStream([1, 2], [1, 1])
        with pytest.raises(AttributeError):
            stream.times_ps = np.array([])

    def test_drift_bound(self):
        with pytest.raises(ValueError):
            ClockModel(drift_ppm=150.0)

    @pytest.mark.parametrize("field", ["offset_ps", "drift_ppm"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_clock_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            ClockModel(**{field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_sync_rate_rejected(self, value):
        with pytest.raises(ValueError, match="sync rate must be finite"):
            SyncConfig(sync_rate_hz=value)

    @pytest.mark.parametrize("duration", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_bad_sync_duration_rejected(self, duration):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="duration must be finite and positive"):
                sync_pulse_times_ps(SyncConfig(), duration)

    @pytest.mark.parametrize(
        "clock, method, time",
        [
            (ClockModel(1e308, 99.0), "satellite_time", 1e308),
            (ClockModel(-1e308, 0.0), "ground_time", 1e308),
            (ClockModel(0.0, -50.0), "ground_time", [1.0, -1.7976931348623157e308]),
        ],
    )
    def test_overflowing_clock_map_rejected(self, clock, method, time):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="clock map overflows"):
                getattr(clock, method)(time)

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
        window_ps = experiment.DetectionModel().coincidence_window_s * 1e12
        assert window_ps == pytest.approx(3000.0)
        assert window_ps >= 6 * LINK_JITTER_PS


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
        p = chi2_sf_even_dof(stat, 100)
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

    # Positional arguments after the clock: jitter sigma, ground and
    # satellite background rates, duration.
    VALID = (0.0, 0.0, 0.0, 1.0)

    def _generate_with(self, index, value):
        args = list(self.VALID)
        args[index] = value
        rng = np.random.default_rng(0)
        return generate_streams([1e6], ClockModel(), *args, rng)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_jitter_rejected(self, value):
        # NaN used to pass `< 0` and then skip the jitter, silently.
        with pytest.raises(ValueError, match="jitter sigma must be finite"):
            self._generate_with(0, value)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_ground_background_rejected(self, value):
        with pytest.raises(ValueError, match="background rates must be finite"):
            self._generate_with(1, value)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_satellite_background_rejected(self, value):
        with pytest.raises(ValueError, match="background rates must be finite"):
            self._generate_with(2, value)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_duration_rejected(self, value):
        with pytest.raises(ValueError, match="duration must be finite"):
            self._generate_with(3, value)

    @pytest.mark.parametrize(
        "events, clock, duration, message",
        [
            ([math.nan], ClockModel(), 1.0, "event times"),
            ([math.inf], ClockModel(), 1.0, "event times"),
            ([1e30], ClockModel(), 1.0, "event times"),
            # The ground tag fits int64 picoseconds, its satellite copy not.
            ([9.2e18], ClockModel(offset_ps=1e17), 1.0, "event times"),
            ([1e6], ClockModel(), 1e7, "duration"),
        ],
    )
    def test_tags_outside_int64_rejected(self, events, clock, duration, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                generate_streams(events, clock, 0.0, 0.0, 0.0, duration, np.random.default_rng(0))

    def test_caller_event_times_left_unchanged(self):
        events = np.array([3e9, 0.4, 1e9 + 0.6])
        before = events.copy()
        rng = np.random.default_rng(0)
        generate_streams(events, ClockModel(offset_ps=5.5), 10.0, 1e3, 1e3, 4e-3, rng)
        np.testing.assert_array_equal(events, before)

    # Arguments after the events: clock, jitter sigma, ground and satellite
    # background rates, duration.  40 events and 100 background tags per
    # stream on a 200 ps span force ties between event and background tags.
    TOP = 2.0**63 - 1024.0
    BUILDER_CASES = {
        # Unsorted events; jitter leaves the satellite copies unsorted too.
        "ties": (
            np.random.default_rng(7).integers(0, 200, size=40),
            ClockModel(3.0, 50.0), 30.0, 5e11, 5e11, 2e-10,
        ),
        "duplicate events": ([700, 700, 300, 700, 300], ClockModel(), 0.0, 5e10, 5e10, 2e-9),
        "no events": ([], ClockModel(3.0, 50.0), 30.0, 5e10, 5e10, 2e-9),
        "no background": ([1500, 3, 1999, 700, 700], ClockModel(3.0, 50.0), 30.0, 0.0, 0.0, 2e-9),
        # The last tag of the span sits at the top of the int64 range.
        "int64 top": ([TOP, 0.0, TOP], ClockModel(), 0.0, 1e-5, 1e-5, math.nextafter(TOP / 1e12, 0)),
    }

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("case", sorted(BUILDER_CASES))
    def test_builder_matches_merge_oracle(self, monkeypatch, case, seed):
        events, *args = self.BUILDER_CASES[case]
        kwargs = dict(event_channel=1, background_channel=2)
        with monkeypatch.context() as patch:
            patch.setattr(timesync, "_tag_stream", tag_stream_oracle)
            expected = generate_streams(events, *args, np.random.default_rng(seed), **kwargs)
        streams = generate_streams(events, *args, np.random.default_rng(seed), **kwargs)
        for got, want in zip(streams, expected):
            np.testing.assert_array_equal(got.times_ps, want.times_ps)
            np.testing.assert_array_equal(got.channels, want.channels)
            for array in (got.times_ps, got.channels):
                assert owns_its_buffer(array)
                assert not array.flags.writeable
            assert np.count_nonzero(got.channels == 1) == len(events)
        if case == "int64 top":
            assert streams[0].times_ps[-1] == 2**63 - 1024
            assert len(streams[0]) > len(events)
        if case == "ties":
            for got in streams:
                events_at, background_at = (got.times_ps[got.channels == c] for c in (1, 2))
                assert np.intersect1d(events_at, background_at).size > 0

    def test_builder_puts_event_before_background_on_tie(self):
        # 60 background tags on the 13 integer ps of a 12 ps span.
        events = [10, 5, 10]
        rng = np.random.default_rng(0)
        ground, _ = generate_streams(
            events, ClockModel(), 0.0, 5e12, 0.0, 12e-12, rng, event_channel=1, background_channel=2
        )
        times, channels = ground.times_ps, ground.channels
        np.testing.assert_array_equal(times, np.sort(times))
        np.testing.assert_array_equal(np.sort(times[channels == 1]), [5, 10, 10])
        for t in (5, 10):
            at_t = channels[times == t]
            assert at_t.size > np.sum(np.equal(events, t))  # a tie with the background
            np.testing.assert_array_equal(at_t, np.sort(at_t))  # channel 1 first


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
            pulses, clock, LINK_JITTER_PS, 0.0, 0.0, 350.0, rng, event_channel=0
        )
        fit = fit_clock(ground.times_ps[ground.channels == 0], sat.times_ps[sat.channels == 0])
        assert fit.clock.drift_ppm == pytest.approx(-4.0, abs=0.01)
        assert fit.clock.offset_ps == pytest.approx(8.6e8, abs=5.0)
        assert fit.residual_rms_ps <= 3 * LINK_JITTER_PS

    @pytest.mark.skipif(
        np.finfo(np.longdouble).nmant < 63, reason="needs an extended-precision longdouble"
    )
    @pytest.mark.parametrize(
        "case", ["chain-5", "chain-6", "full-pass", "n-2", "block-1", "block", "block+1"]
    )
    def test_fit_is_within_bands_of_extended_reference(self, case):
        # Bands fixed before the first run: offset within 2 ulp of the
        # largest satellite time, drift within 1e-9 ppm, rms within 1e-7
        # relative (of at least one such ulp, as an exact two-pulse line
        # has none).  On the full pass the whole-array oracle misses all
        # three, and the blockwise fit is closer on each.
        block = timesync._BLOCK
        sizes = {"n-2": 2, "block-1": block - 1, "block": block, "block+1": block + 1}
        if case.startswith("chain-"):
            ground, satellite = tags_chain(int(case[-1]))[1]
        elif case == "full-pass":
            ground, satellite = full_pass_sync()
        else:
            ground, satellite = drifting_sync(sizes[case], seed=25)
        offset, drift, rms = clock_fit_reference(ground, satellite)
        ulp = np.spacing(float(max(abs(satellite[0]), abs(satellite[-1]))))

        def errors(fit):
            return (
                abs(fit.clock.offset_ps - offset) / ulp,
                abs(fit.clock.drift_ppm - drift),
                abs(fit.residual_rms_ps - rms) / max(rms, ulp),
            )

        got = errors(fit_clock(ground, satellite))
        assert all(e <= band for e, band in zip(got, (2.0, 1e-9, 1e-7))), got
        if case == "full-pass":
            old = errors(fit_clock_oracle(ground, satellite))
            assert all(e < o for e, o in zip(got, old)), (got, old)

    def test_equal_half_means_still_fit(self):
        # Distinct ground times whose two half-means round equal: the
        # provisional slope cannot come from them, and the fit still holds.
        t = 1e8
        ground = [t, t, t, t + np.spacing(t)]
        fit = fit_clock(ground, [g + 5.0 for g in ground])
        assert (fit.clock.offset_ps, fit.clock.drift_ppm, fit.residual_rms_ps) == (5.0, 0.0, 0.0)

    def test_too_few_pulses(self):
        with pytest.raises(ValueError):
            fit_clock([1e8], [1e8])

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            fit_clock([2e8, 1e8], [2e8, 3e8])

    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_infinite_sync_time_rejected(self, side, value):
        times = [[0.0, 1.0, 2.0], [0.0, 1.0, 2.0]]
        times[side][0 if value < 0 else -1] = value
        with pytest.raises(ValueError, match="sync times must be finite"):
            fit_clock(*times)

    @pytest.mark.parametrize("side", [0, 1])
    def test_nan_sync_time_rejected(self, side):
        times = [[0.0, 1.0, 2.0], [0.0, 1.0, 2.0]]
        times[side][1] = math.nan
        with pytest.raises(ValueError, match="no NaN"):
            fit_clock(*times)

    def test_adjacent_infinities_inside_unsorted_times_rejected(self):
        with pytest.raises(ValueError, match="sorted ascending"):
            fit_clock([0.0, math.inf, math.inf, 1.0], [0.0, 1.0, 2.0, 3.0])

    @pytest.mark.parametrize(
        "ground, satellite, message",
        [
            ([0.0, 1.0], [0.0, 1e308], "int64 picosecond range"),
            ([0.0, 1e308], [0.0, 1.0], "int64 picosecond range"),
            # the slope overflows, or the ground spread's square underflows to 0
            ([0.0, 1e-300], [0.0, 1e18], "overflows the float range"),
            ([0.0, 5e-324], [-9e18, 9e18], "overflows the float range"),
        ],
    )
    def test_overflowing_fit_rejected(self, ground, satellite, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                fit_clock(ground, satellite)

    def test_fit_at_int64_limits(self):
        tags = np.array([np.iinfo(np.int64).min, 0, np.iinfo(np.int64).max])
        fit = fit_clock(tags, tags)
        assert (fit.clock.offset_ps, fit.clock.drift_ppm) == (0.0, 0.0)

    def test_zero_ground_spread_rejected(self):
        # No line fits sync pulses that all arrive at one ground time; the
        # fit must say so instead of returning a NaN clock.
        with pytest.raises(ValueError, match="ground sync times are equal"):
            fit_clock([5.0, 5.0, 5.0], [7.0, 8.0, 9.0])


class TestMatchCoincidences:
    @pytest.mark.parametrize("window", [math.nan, math.inf, 0.0, -1.0])
    def test_window_must_be_finite_and_positive(self, window):
        stream = TimeTagStream([1, 2], [1, 1])
        with pytest.raises(ValueError, match="window must be finite and positive"):
            match_coincidences(stream, stream, ClockModel(), window)

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

    def test_tags_at_int64_limits_match(self):
        # Search keys are clipped to the int64 range; a clipped key must
        # still reach the tags at either end of it.
        top, bottom = np.iinfo(np.int64).max, np.iinfo(np.int64).min
        for t in (top, bottom):
            stream = TimeTagStream([t], [1])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = match_coincidences(stream, stream, ClockModel(), 3000.0)
            assert res.pairs == ((0, 0),)
            assert res == greedy_match_oracle(stream, stream, ClockModel(), 3000.0)

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_bad_value_rejected(self, bad, position):
        args = [0.26, 500.0, 3e-9]
        args[position] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="must be finite and non-negative"):
                accidental_rate(*args)

    def test_overflowing_product_rejected(self):
        # each input is finite, their product is not
        with pytest.raises(ValueError, match="overflows"):
            accidental_rate(1e200, 1e200, 1.0)

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
