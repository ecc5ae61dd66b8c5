"""Two-clock time tagging, clock recovery, and coincidence matching.

Timestamps are integer picoseconds: a 350 s pass spans 3.5e14 ps, where
float accumulation would already cost precision.  The satellite clock is
modelled as a linear offset + drift against the ground clock; relative
timing jitter between the streams is lumped into the satellite tags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple

import numpy as np

# Defined beside the count model that reads it, and importable from here
# too, beside the tag chain whose accidentals it predicts.
from .experiment import accidental_rate

MAX_DRIFT_PPM = 100.0
# Float bounds of the int64 picosecond range: -2**63 is exact, and the
# largest float below 2**63 is 2**63 - 1024.
_INT64_FLOOR = -(2.0**63)
_INT64_TOP = 2.0**63 - 1024.0
# Tags per block of the order checks and of the clock fit, whose scratch
# is a few blocks whatever the pass length.  2**14 was the fastest of
# 2**12 ... 2**16 in a loop of the `tags` benchmark op's three stages.
_BLOCK = 1 << 14


@dataclass(frozen=True)
class ClockModel:
    """Linear clock relation: satellite = ground + offset + drift * ground."""

    offset_ps: float = 0.0
    drift_ppm: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.offset_ps) and math.isfinite(self.drift_ppm)):
            raise ValueError("clock offset and drift must be finite")
        if abs(self.drift_ppm) >= MAX_DRIFT_PPM:
            raise ValueError(f"|drift| must stay below {MAX_DRIFT_PPM} ppm")

    def satellite_time(self, ground_ps):
        ground_ps = np.asarray(ground_ps, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            return _mapped(ground_ps, ground_ps + self.offset_ps + self.drift_ppm * 1e-6 * ground_ps)

    def ground_time(self, satellite_ps):
        satellite_ps = np.asarray(satellite_ps, dtype=float)
        with np.errstate(over="ignore"):
            return _mapped(satellite_ps, (satellite_ps - self.offset_ps) / (1.0 + self.drift_ppm * 1e-6))


def _mapped(times: np.ndarray, mapped):
    """`mapped`, the clock map of `times`, unless the map took a finite
    time out of the float range."""
    lost = ~np.isfinite(mapped)
    if lost.any() and np.isfinite(times[lost]).any():
        raise ValueError("the clock map overflows the float range")
    return mapped


@dataclass(frozen=True)
class SyncConfig:
    """Synchronization laser timing.  The coincidence window is the
    campaign's `DetectionModel.coincidence_window_s`, and the timing jitter
    is `generate_streams`' `jitter_sigma_ps`."""

    sync_rate_hz: float = 10e3

    def __post_init__(self):
        if not (math.isfinite(self.sync_rate_hz) and self.sync_rate_hz > 0):
            raise ValueError("sync rate must be finite and positive")


def _ascending(x: np.ndarray) -> bool:
    """True when no element of x is below the one before it; a NaN fails
    the comparison.  The mask covers one block at a time."""
    for start in range(0, x.size - 1, _BLOCK):
        stop = min(start + _BLOCK, x.size - 1)
        if not (x[start + 1 : stop + 1] >= x[start:stop]).all():
            return False
    return True


def _exact(values, dtype, what: str) -> np.ndarray:
    """`values` as a flat `dtype` array; another dtype must hold integers that fit it."""
    x = np.asarray(values).reshape(-1)
    lo = float(np.iinfo(dtype).min)  # -2**(bits - 1): [lo, -lo) is exact in float, and NaN fails it
    fits = x.dtype.kind in "biu" or x.dtype.kind == "f" and (x.size == 0 or lo <= x.min() and x.max() < -lo)
    cast = x.astype(dtype, copy=False) if fits else None  # no float is cast until it is known to fit
    if cast is None or not (cast is x or np.array_equal(cast, x)):
        raise ValueError(f"{what} must be integers within the {np.dtype(dtype).name} range")
    return cast


class TimeTagStream:
    """Sorted detection record: times in integer ps plus channel ids."""

    __slots__ = ("times_ps", "channels")

    def __init__(self, times_ps, channels):
        times, chans = _exact(times_ps, np.int64, "time tags"), _exact(channels, np.int16, "channels")
        if times.size != chans.size:
            raise ValueError("times and channels must have equal length")
        if not _ascending(times):
            raise ValueError("time tags must be sorted ascending")
        times.flags.writeable = False
        chans.flags.writeable = False
        object.__setattr__(self, "times_ps", times)
        object.__setattr__(self, "channels", chans)

    def __setattr__(self, name, value):
        raise AttributeError("TimeTagStream is immutable")

    def __len__(self) -> int:
        return self.times_ps.size


def sync_pulse_times_ps(config: SyncConfig, duration_s: float) -> np.ndarray:
    """Emission grid of the synchronization laser over a pass."""
    if not (math.isfinite(duration_s) and duration_s > 0):
        raise ValueError("duration must be finite and positive")
    period_ps = 1e12 / config.sync_rate_hz
    n = int(np.floor(duration_s * config.sync_rate_hz))
    return np.arange(n) * period_ps


def _event_tags(times: np.ndarray) -> np.ndarray:
    """Round float tag times to integer ps in place; reject any that an
    int64 cannot hold."""
    np.rint(times, out=times)
    if times.size and not (_INT64_FLOOR <= times.min() and times.max() <= _INT64_TOP):
        raise ValueError("event times must be finite and within the int64 picosecond range")
    return times


def _tag_stream(
    events: np.ndarray,
    event_channel: int,
    rate_hz: float,
    duration_s: float,
    rng: np.random.Generator,
    background_channel: int,
) -> TimeTagStream:
    """The rounded event tags plus a Poisson number of uniform background
    tags over the span, built in the stream's own int64 buffer; on equal
    times the event tags come first.

    The background is drawn into the float64 view of that buffer: `random`
    times the span is `uniform(0, span)` bit for bit.  Rounding is
    monotone, so sorting the rounded floats orders them as their int64
    values, and one in-place cast turns the sorted floats into the times.
    """
    n = rng.poisson(rate_hz * duration_s)
    times = np.empty(n + events.size, dtype=np.int64)
    buf = times.view(np.float64)
    background = rng.random(out=buf[:n])
    background *= duration_s * 1e12
    np.rint(background, out=background)
    buf[n:] = events
    buf.sort()
    # copyto casts element by element in place; np.rint(buf, out=times)
    # would first copy the whole buffer, as its input overlaps its output.
    np.copyto(times, buf, casting="unsafe")
    # Event i of the sorted events sits after every smaller tag and after
    # the events before it, which precede any equal background tag.
    ev = np.sort(events).astype(np.int64)
    at = np.searchsorted(times, ev) + (np.arange(ev.size) - np.searchsorted(ev, ev))
    channels = np.full(times.size, background_channel, dtype=np.int16)
    channels[at] = event_channel
    return TimeTagStream(times, channels)


def generate_streams(
    event_times_ps,
    clock: ClockModel,
    jitter_sigma_ps: float,
    ground_background_hz: float,
    satellite_background_hz: float,
    duration_s: float,
    rng: np.random.Generator,
    event_channel: int = 1,
    background_channel: int = 1,
) -> tuple[TimeTagStream, TimeTagStream]:
    """Simulate matched detection records on the two clocks.

    True events land on both streams; the satellite copy is displaced by
    the clock relation plus Gaussian jitter (the lumped relative jitter of
    detectors and sync link).  Each stream gains its own Poisson background.
    """
    if not (math.isfinite(duration_s) and duration_s > 0):
        raise ValueError("duration must be finite and positive")
    if not duration_s * 1e12 <= _INT64_TOP:
        raise ValueError("duration must span no more than 2**63 - 1024 ps")
    if not (math.isfinite(jitter_sigma_ps) and jitter_sigma_ps >= 0):
        raise ValueError("jitter sigma must be finite and non-negative")
    rates = (ground_background_hz, satellite_background_hz)
    if not all(math.isfinite(rate) and rate >= 0 for rate in rates):
        raise ValueError("background rates must be finite and non-negative")
    events = np.asarray(event_times_ps, dtype=float).reshape(-1)

    # Fresh arrays: the caller's event times are never rounded in place.
    ground_events = _event_tags(events.copy())
    sat_times = clock.satellite_time(events)
    if jitter_sigma_ps > 0 and events.size:
        sat_times += rng.normal(0.0, jitter_sigma_ps, size=events.size)
    sat_events = _event_tags(sat_times)

    ground, satellite = (
        _tag_stream(tags, event_channel, rate, duration_s, rng, background_channel)
        for tags, rate in zip((ground_events, sat_events), rates)
    )
    return ground, satellite


class ClockFit(NamedTuple):
    clock: ClockModel
    residual_rms_ps: float
    n_pulses: int


def _sync_times(times) -> np.ndarray:
    """The sync times as one flat numeric array, left as given: each block
    is cast to float64 where it is read.  Input that numpy cannot cast
    (Python ints past int64, say) is cast to float once here."""
    times = np.asarray(times).reshape(-1)
    return times if times.dtype.kind in "iuf" else times.astype(float)


def _float_block(times: np.ndarray, start: int, stop: int, buf: np.ndarray) -> np.ndarray:
    """times[start:stop] as float64: a view of float64 input, else a cast
    into the front of buf."""
    if times.dtype == np.float64:
        return times[start:stop]
    block = buf[: stop - start]
    np.copyto(block, times[start:stop])
    return block


def fit_clock(ground_sync_ps, satellite_sync_ps) -> ClockFit:
    """Least-squares line through matched sync-pulse arrival pairs.

    Needs at least two pulses at distinct ground times (unrecoverable
    otherwise); inputs must be finite and sorted ascending.  For full
    precision supply >= 100 matched pulses.

    Two sweeps over blocks of `_BLOCK` pulses, each read as float64 (int64
    tags are cast a block at a time, so either dtype gives the same bits).
    Sweep 1 checks the order and sums each half of the pulses.  Sweep 2
    centres both sides on their means and takes the residuals about a
    provisional slope from the two half-means; the slope's correction and
    the residual sum then follow from three dot products.  The scratch is
    three blocks, and the dots are `einsum`, not BLAS, whose threads would
    split the sums differently on each host.
    """
    g = _sync_times(ground_sync_ps)
    s = _sync_times(satellite_sync_ps)
    if g.size != s.size:
        raise ValueError("sync streams must be matched one-to-one")
    n = g.size
    if n < 2:
        raise ValueError("clock fit is unrecoverable with fewer than 2 sync pulses")
    # Sorted times are bounded by their ends, and a NaN anywhere fails the
    # order test, so neither check adds a pass over the pulses.  Within
    # +-2**63 ps, which holds every int64 tag, no sum of the fit overflows.
    if not all(_INT64_FLOOR <= t <= -_INT64_FLOOR for t in (g[0], g[-1], s[0], s[-1])):
        raise ValueError("sync times must be finite and within the int64 picosecond range")
    # Scratch: sweep 1 casts into x and r, sweep 2 fills all three.
    x, r, tmp = (np.empty(min(n, _BLOCK) + 1) for _ in range(3))
    half = n // 2
    # Block sums of the ground and the satellite times, per half.
    g_sums, s_sums = ([], []), ([], [])
    for h, (lo, hi) in enumerate(((0, half), (half, n))):
        for start in range(lo, hi, _BLOCK):
            stop = min(start + _BLOCK, hi)
            for times, buf, sums in ((g, x, g_sums), (s, r, s_sums)):
                # One pulse past the block, to check the order across its end.
                block = _float_block(times, start, min(stop + 1, n), buf)
                if not _ascending(block):
                    raise ValueError("sync tags must be sorted ascending, with no NaN")
                sums[h].append(np.add.reduce(block[: stop - start]))
    # Compared as the floats the fit reads: int64 times past 2**53 can
    # differ and still cast equal.
    if float(g[0]) == float(g[-1]):
        raise ValueError("clock fit is unrecoverable when all ground sync times are equal")
    g_mean, s_mean = (math.fsum(first + second) / n for first, second in (g_sums, s_sums))
    # Rounding can make the two ground half-means equal when the ground
    # times barely differ; any provisional slope is exact after correction.
    rise, climb = (
        math.fsum(second) / (n - half) - math.fsum(first) / half for first, second in (g_sums, s_sums)
    )
    slope0 = climb / rise if rise else 1.0

    sxx = sxr = srr = 0.0
    # Ground times that differ by next to nothing can overflow the slope or
    # underflow sxx to 0; the results are checked once instead.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for start in range(0, n, _BLOCK):
            stop = min(start + _BLOCK, n)
            xb = np.subtract(_float_block(g, start, stop, x), g_mean, out=x[: stop - start])
            rb = np.subtract(_float_block(s, start, stop, r), s_mean, out=r[: stop - start])
            rb -= np.multiply(xb, slope0, out=tmp[: stop - start])
            sxx += np.einsum("i,i", xb, xb)
            sxr += np.einsum("i,i", xb, rb)
            srr += np.einsum("i,i", rb, rb)
        slope = slope0 + sxr / sxx
        offset = s_mean - slope * g_mean
        drift = (slope - 1.0) * 1e6
        # The residual sum about the fitted line; it cannot be negative.
        rss = srr - sxr * sxr / sxx
    if not all(math.isfinite(v) for v in (offset, drift, rss)):
        raise ValueError("the clock fit overflows the float range")
    rms = math.sqrt(max(rss, 0.0) / n)
    clock = ClockModel(offset_ps=float(offset), drift_ppm=float(drift))
    return ClockFit(clock=clock, residual_rms_ps=rms, n_pulses=n)


class MatchResult(NamedTuple):
    pairs: tuple[tuple[int, int], ...]
    n_ground_unmatched: int
    n_satellite_unmatched: int

    @property
    def n_matched(self) -> int:
        return len(self.pairs)


def match_coincidences(
    ground: TimeTagStream,
    satellite: TimeTagStream,
    clock: ClockModel,
    window_ps: float,
) -> MatchResult:
    """Pair up tags within +/- window/2 after mapping the satellite stream
    onto the ground clock.

    Greedy in ground-time order: each ground tag takes the nearest still
    unused satellite tag inside its window (the earlier tag on an exact
    tie); every tag is used at most once.  Deterministic.

    Candidates are found from the satellite side: each mapped satellite
    tag binary-searches the ground times, and only the C candidate pairs
    so found go through the greedy rule, in ground order.  The cost is
    O((S + C) log G) for S satellite and G ground tags; the ground times
    are searched as int64, and only the candidates' are converted to float.
    """
    if not (math.isfinite(window_ps) and window_ps > 0):
        raise ValueError("window must be finite and positive")
    half = window_ps / 2.0
    g = ground.times_ps
    s = clock.ground_time(satellite.times_ps)
    if g.size == 0 or s.size == 0:
        return MatchResult(pairs=(), n_ground_unmatched=g.size, n_satellite_unmatched=s.size)

    # The search is padded by a few ulps of the largest magnitude, so that
    # no rounding of `t - half` or `t + half` can drop a candidate; the
    # exact window test below then decides which candidates are inside.
    scale = max(abs(float(g[0])), abs(float(g[-1]))) + max(abs(s[0]), abs(s[-1])) + window_ps
    reach = half + 8.0 * np.spacing(scale)
    # Integer keys, clipped so that their cast cannot overflow; a key
    # clipped at the top still reaches the last ground tag.
    low, high = np.ceil(s - reach), np.floor(s + reach)
    first = np.searchsorted(g, np.clip(low, _INT64_FLOOR, _INT64_TOP).astype(np.int64), "left")
    stop = np.searchsorted(g, np.clip(high, _INT64_FLOOR, _INT64_TOP).astype(np.int64), "right")
    stop[high > _INT64_TOP] = g.size
    count = stop - first
    # Candidate k of satellite tag j is ground tag first[j] + k.
    sat_idx = np.repeat(np.arange(s.size), count)
    gnd_idx = np.arange(sat_idx.size) - np.repeat(np.cumsum(count) - count - first, count)
    t = g[gnd_idx].astype(float)
    sj = s[sat_idx]
    inside = (t - half <= sj) & (sj <= t + half)
    gnd_idx, sat_idx = gnd_idx[inside], sat_idx[inside]
    dist = np.abs(sj[inside] - t[inside])
    order = np.lexsort((sat_idx, gnd_idx))

    used = set()
    pairs = []
    candidates = zip(gnd_idx[order].tolist(), sat_idx[order].tolist(), dist[order].tolist())
    for gi, group in groupby(candidates, key=itemgetter(0)):
        free = [(d, j) for _, j, d in group if j not in used]
        if free:
            j = min(free)[1]  # nearest, then the earlier tag
            used.add(j)
            pairs.append((gi, j))
    return MatchResult(
        pairs=tuple(pairs),
        n_ground_unmatched=g.size - len(pairs),
        n_satellite_unmatched=s.size - len(pairs),
    )
