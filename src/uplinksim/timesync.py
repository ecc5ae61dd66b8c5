"""Two-clock time tagging, clock recovery, and coincidence matching.

Timestamps are integer picoseconds: a 350 s pass spans 3.5e14 ps, where
float accumulation would already cost precision.  The satellite clock is
modelled as a linear offset + drift against the ground clock; relative
timing jitter between the streams is lumped into the satellite tags.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from pathlib import Path

import numpy as np

MAX_DRIFT_PPM = 100.0


@dataclass(frozen=True)
class ClockModel:
    """Linear clock relation: satellite = ground + offset + drift * ground."""

    offset_ps: float = 0.0
    drift_ppm: float = 0.0

    def __post_init__(self):
        if abs(self.drift_ppm) >= MAX_DRIFT_PPM:
            raise ValueError(f"|drift| must stay below {MAX_DRIFT_PPM} ppm")

    def satellite_time(self, ground_ps):
        ground_ps = np.asarray(ground_ps, dtype=float)
        return ground_ps + self.offset_ps + self.drift_ppm * 1e-6 * ground_ps

    def ground_time(self, satellite_ps):
        return (np.asarray(satellite_ps, dtype=float) - self.offset_ps) / (
            1.0 + self.drift_ppm * 1e-6
        )


@dataclass(frozen=True)
class SyncConfig:
    """Synchronization laser and coincidence parameters."""

    sync_rate_hz: float = 10e3
    window_ps: float = 3000.0
    detector_jitter_sigma_ps: float = 150.0

    def __post_init__(self):
        if self.sync_rate_hz <= 0 or self.window_ps <= 0:
            raise ValueError("sync rate and window must be positive")
        if self.detector_jitter_sigma_ps < 0:
            raise ValueError("jitter sigma must be non-negative")


class TimeTagStream:
    """Sorted detection record: times in integer ps plus channel ids.

    `clock` stores the generating clock model (identity for the ground
    stream); it is bookkeeping, not something a detector would know.
    """

    __slots__ = ("times_ps", "channels", "clock")

    def __init__(self, times_ps, channels, clock: ClockModel | None = None):
        times = np.asarray(times_ps, dtype=np.int64).reshape(-1)
        chans = np.asarray(channels, dtype=np.int16).reshape(-1)
        if times.size != chans.size:
            raise ValueError("times and channels must have equal length")
        if times.size > 1 and np.any(np.diff(times) < 0):
            raise ValueError("time tags must be sorted ascending")
        times.flags.writeable = False
        chans.flags.writeable = False
        object.__setattr__(self, "times_ps", times)
        object.__setattr__(self, "channels", chans)
        object.__setattr__(self, "clock", clock or ClockModel())

    def __setattr__(self, name, value):
        raise AttributeError("TimeTagStream is immutable")

    def __len__(self) -> int:
        return self.times_ps.size

    def channel(self, channel_id: int) -> np.ndarray:
        return self.times_ps[self.channels == channel_id]

    def dump(self, path: str | Path) -> None:
        """Write the line-oriented text format `channel,time_ps`."""
        lines = np.char.add(self.channels.astype(str), ",")
        lines = np.char.add(np.char.add(lines, self.times_ps.astype(str)), "\n")
        with open(path, "w", encoding="ascii") as fh:
            fh.write("".join(lines.tolist()))

    @classmethod
    def load(cls, path: str | Path) -> "TimeTagStream":
        """Read the `dump` format; tags come back in stable time order."""
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
        if not text.strip():
            return cls([], [])
        rows = np.loadtxt(
            io.StringIO(text),
            delimiter=",",
            dtype=[("channel", np.int16), ("time_ps", np.int64)],
            comments=None,
            ndmin=1,
        )
        order = np.argsort(rows["time_ps"], kind="stable")
        return cls(rows["time_ps"][order], rows["channel"][order])


def sync_pulse_times_ps(config: SyncConfig, duration_s: float) -> np.ndarray:
    """Emission grid of the synchronization laser over a pass."""
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    period_ps = 1e12 / config.sync_rate_hz
    n = int(np.floor(duration_s * config.sync_rate_hz))
    return np.arange(n) * period_ps


def _merge_sorted(
    events: np.ndarray, event_channel: int, background: np.ndarray, background_channel: int
) -> tuple[np.ndarray, np.ndarray]:
    """Time-ordered union of two unsorted tag sets; on equal times the
    event tags come first."""
    ev = np.sort(events)
    bg = np.sort(background)
    at = np.searchsorted(bg, ev, "left") + np.arange(ev.size)
    times = np.empty(ev.size + bg.size, dtype=np.int64)
    channels = np.full(times.size, background_channel, dtype=np.int16)
    is_background = np.ones(times.size, dtype=bool)
    is_background[at] = False
    times[at] = ev
    times[is_background] = bg
    channels[at] = event_channel
    return times, channels


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
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    if jitter_sigma_ps < 0:
        raise ValueError("jitter sigma must be non-negative")
    events = np.asarray(event_times_ps, dtype=float).reshape(-1)

    span_ps = duration_s * 1e12
    ground_events = np.round(events).astype(np.int64)
    sat_times = clock.satellite_time(events)
    if jitter_sigma_ps > 0 and events.size:
        sat_times = sat_times + rng.normal(0.0, jitter_sigma_ps, size=events.size)
    sat_events = np.round(sat_times).astype(np.int64)

    backgrounds = []
    for rate in (ground_background_hz, satellite_background_hz):
        if rate < 0:
            raise ValueError("background rate must be non-negative")
        n = rng.poisson(rate * duration_s)
        backgrounds.append(np.round(rng.uniform(0.0, span_ps, size=n)).astype(np.int64))

    g_t, g_c = _merge_sorted(ground_events, event_channel, backgrounds[0], background_channel)
    s_t, s_c = _merge_sorted(sat_events, event_channel, backgrounds[1], background_channel)
    return (
        TimeTagStream(g_t, g_c),
        TimeTagStream(s_t, s_c, clock=clock),
    )


@dataclass(frozen=True)
class ClockFit:
    clock: ClockModel
    residual_rms_ps: float
    n_pulses: int


def fit_clock(ground_sync_ps, satellite_sync_ps) -> ClockFit:
    """Least-squares line through matched sync-pulse arrival pairs.

    Needs at least two pulses (unrecoverable below that); inputs must be
    sorted ascending.  For full precision supply >= 100 matched pulses.
    """
    g = np.asarray(ground_sync_ps, dtype=float).reshape(-1)
    s = np.asarray(satellite_sync_ps, dtype=float).reshape(-1)
    if g.size != s.size:
        raise ValueError("sync streams must be matched one-to-one")
    if g.size < 2:
        raise ValueError("clock fit is unrecoverable with fewer than 2 sync pulses")
    if np.any(np.diff(g) < 0) or np.any(np.diff(s) < 0):
        raise ValueError("sync tags must be sorted ascending")
    g_mean = g.mean()
    s_mean = s.mean()
    gc = g - g_mean
    slope = float(gc @ (s - s_mean) / (gc @ gc))
    offset = s_mean - slope * g_mean
    residuals = s - (offset + slope * g)
    rms = float(np.sqrt(np.mean(residuals**2)))
    clock = ClockModel(offset_ps=float(offset), drift_ppm=(slope - 1.0) * 1e6)
    return ClockFit(clock=clock, residual_rms_ps=rms, n_pulses=int(g.size))


@dataclass(frozen=True)
class MatchResult:
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
    O((S + C) log G) for S satellite and G ground tags, and nothing is
    allocated per ground tag beyond the float copy of its times.
    """
    if window_ps <= 0:
        raise ValueError("window must be positive")
    half = window_ps / 2.0
    g = ground.times_ps.astype(float)
    s = clock.ground_time(satellite.times_ps)
    if g.size == 0 or s.size == 0:
        return MatchResult(pairs=(), n_ground_unmatched=g.size, n_satellite_unmatched=s.size)

    # The search is padded by a few ulps of the largest magnitude, so that
    # no rounding of `t - half` or `t + half` can drop a candidate; the
    # exact window test below then decides which candidates are inside.
    scale = max(abs(g[0]), abs(g[-1])) + max(abs(s[0]), abs(s[-1])) + window_ps
    reach = half + 8.0 * np.spacing(scale)
    first = np.searchsorted(g, s - reach, "left")
    count = np.searchsorted(g, s + reach, "right") - first
    # Candidate k of satellite tag j is ground tag first[j] + k.
    sat_idx = np.repeat(np.arange(s.size), count)
    gnd_idx = np.arange(sat_idx.size) - np.repeat(np.cumsum(count) - count - first, count)
    t = g[gnd_idx]
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


def accidental_rate(trigger_rate_hz: float, background_rate_hz: float, window_s: float) -> float:
    """Rate of uncorrelated clicks falling inside a trigger's window."""
    if trigger_rate_hz < 0 or background_rate_hz < 0 or window_s < 0:
        raise ValueError("rates and window must be non-negative")
    return trigger_rate_hz * background_rate_hz * window_s
