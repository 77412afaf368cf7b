"""Seeded Monte Carlo of phonon-number telegraph dynamics with noisy readout.

The phonon number performs a birth-death jump process.  Thermal coupling to
the bath moves n -> n+1 at rate (omega_m/Q) n_bar (n+1) and n -> n-1 at rate
(omega_m/Q) n (n_bar+1); summed they reproduce the total thermal decay rate
of state n, and their stationary law is Bose-Einstein with mean n_bar.  When
measurement channels are enabled, two extra clocks run from the ground state
only: a 0 -> 2 transition at the counter-rotating-channel rate and a 0 -> 1
transition at the residual-linear-coupling rate.  (The 0 -> 2 event is the
one exception to the birth-death step size; it is a genuine two-phonon
process.)

Sampling is exact event-driven simulation with competing exponential
clocks: no time discretization anywhere.  All randomness flows through
numpy's PCG64 generator (RNG_ALGORITHM), so runs are bit-for-bit
reproducible per seed and platform-independent.  The simulator draws its
waits and branch picks in blocks whose sizes grow from 64 to 4096 whatever
the duration, so a longer run of a seed starts with exactly the events of a
shorter one.  That layout is named by RNG_STREAM ("pcg64-blocks-v1"); the
CLI records both names.

Each block is walked in pieces whose sizes double from 8, in two phases.
Only the level update is sequential, so phase 1 is one list comprehension
over the picks that records the levels alone.  It reads the picks straight
from the block's array through a memoryview, which yields them as Python
floats with no list built first, and it reads per-level tables:
each level's exact climb threshold, the least double c with c * total >=
climb rate, which decides every pick as pick * total < climb rate does,
and the level a fall leads to (2 from the ground state, for the 0 -> 2
jump).  The tables start with 8 levels; a path that walks past them grows
them to 2 L + 2 levels and walks its piece again.  The walked levels join
the path's int64 record as one struct.pack per piece.  Phase 2 is numpy:
it looks up each event's total rate by the level before it and turns the
waits into times with one cumsum per piece, which adds in sequence: the
same bits as t += wait / total per event.  The path ends before its first
event at or past the duration, and the levels walked beyond it are dropped.
A level of total rate 0 (at T = 0 without the channels, or at Q = inf)
absorbs the path the same way: its wait is infinite.

What depends on the parameter set alone is computed once per set, not once
per trial: simulate_trajectory's rates and the first 8 rows of its
per-level tables (keyed on the parameter set and the channels flag), and
binned_readout's per-phonon shift and noise PSD (keyed on the parameter
set).  Each sits in a least-recently-used memo of at most
_MEMO_SETS = 32 parameter sets.  Sets equal under == share an entry; those
that differ only in the sign of a zero T or x0 give the same paths and
readouts anyway.  Entries are never changed: a path that walks past the
first tables grows copies of its own.  Errors are not stored, so a set that
fails raises on every call, and every path and readout has the bits it
would have without the memos.

The continuous readout is modeled per time bin: the estimate is the
per-phonon shift times (time-weighted mean occupation + 1/2), plus white
Gaussian frequency noise of variance S_omega / bin_width.
"""

from __future__ import annotations

import math
import struct
import sys
from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from . import qnd
from .errors import SingularityError, ValidationError
from .mechanics import thermal_occupation
from .params import ExperimentParams, require_positive

RNG_ALGORITHM = "PCG64"
# How simulate_trajectory lays its draws out on the stream (see _draw_blocks);
# renaming it marks per-seed trajectories that differ from earlier layouts.
RNG_STREAM = "pcg64-blocks-v1"
_FIRST_BLOCK = 64
_BLOCK_CAP = 4096
_FIRST_PIECE = 8
# ~89 % of row-2 trials never walk past 8 levels, and a smaller start costs
# those trials more restarts than the thresholds it saves
_FIRST_LEVELS = 8
_MEMO_SETS = 32   # an entry takes well under 1 kB
# Largest path simulate_trajectory builds, checked once per block of draws:
# it bounds a run's time and its event arrays, 16 bytes an event.
# tests/test_cli.py::test_command_at_its_caps_stays_bounded runs jump-stats
# into this cap and bounds its peak memory.
MAX_EVENTS = 5_000_000
# Most bins of a readout, checked by readout_bins before simulating: it bounds
# the readout's arrays and CSV rows.  The same test runs jump-sim at this cap.
MAX_BINS = 1_000_000
# Fewest readout bins for which mean_level_per_bin counts the events per bin
# rather than binary-searching every edge.  Counting costs O(events + bins)
# plus ~8 us of numpy calls, searching O(bins log events); measured, counting
# wins from ~1.5-2.5k bins on paths of up to 10^4 events and from about a
# quarter as many bins as events on longer paths, so it needs both.
_COUNT_FROM_BINS = 2000
# a non-negative double and its bit pattern, which orders such doubles as integers
_DOUBLE, _BITS = struct.Struct("d"), struct.Struct("q")


@dataclass(frozen=True)
class JumpTrajectory:
    """Event record of one phonon-number path starting from n = 0."""

    times: np.ndarray    # event times [s], strictly increasing
    levels: np.ndarray   # occupation after each event
    duration: float      # s
    seed: int
    measurement_channels: bool

    @cached_property
    def states(self) -> np.ndarray:
        """Occupation on each stretch between events: 0, then levels."""
        return np.concatenate(([0], self.levels))

    def state_at(self, t):
        """Occupation number at time(s) t (piecewise-constant lookup)."""
        t = np.asarray(t, dtype=float)
        out = self.states[np.searchsorted(self.times, t, side="right")]
        return int(out) if out.ndim == 0 else out

    def dwell_times(self, level: int) -> np.ndarray:
        """Durations of completed visits to a level (final censored visit excluded)."""
        # the trailing stretch up to `duration` never ends with an event, so
        # it has no span and is dropped by construction
        return np.diff(self.times, prepend=0.0)[self.states[:-1] == level]

    def mean_level_per_bin(self, bin_width: float) -> np.ndarray:
        """Time-weighted mean occupation over the readout_bins(duration, bin_width) bins."""
        n_bins = readout_bins(self.duration, bin_width)
        edges = np.arange(n_bins + 1, dtype=float)
        edges *= bin_width
        # k before breaks and cum, and breaks dropped once cum holds its steps,
        # which lowers the readout's peak memory by ~30 % on a long path
        # (tests/test_jumpsim.py::test_long_readout_peak_memory)
        if n_bins < max(_COUNT_FROM_BINS, len(self.times) // 4):
            k = np.searchsorted(self.times, edges, side="right")
        else:
            k = _events_through(self.times, edges, bin_width)
        # running integral at every edge, evaluated once and in place; stretch j
        # starts at breaks[j] and holds states[j], and cum[j] is the integral of
        # the occupation up to breaks[j]
        integral = edges   # the edges are not needed past here
        breaks = np.concatenate(([0.0], self.times))
        integral -= breaks[k]
        cum = np.empty_like(breaks)
        cum[0] = 0.0
        np.subtract(breaks[1:], breaks[:-1], out=cum[1:])
        del breaks
        cum[1:] *= self.states[:-1]
        np.cumsum(cum, out=cum)
        integral *= self.states[k]
        integral += cum[k]
        mean = integral[1:] - integral[:-1]   # np.diff's arithmetic, without its ~3 us of wrapping
        mean /= bin_width
        return mean


def _events_through(times: np.ndarray, edges: np.ndarray, bin_width: float) -> np.ndarray:
    """np.searchsorted(times, edges, side="right"), counted bin by bin.

    edges are the readout's sorted edges i * bin_width.  Each event's first
    edge at or after it, f (len(edges) past the last one), starts from
    ceil(t / bin_width) and moves one edge at a time while the edge before
    it is >= t or edge f is < t, the exact tests that define f.  The counts
    of the f at or before each edge are then searchsorted's, element for
    element, in O(events + bins) rather than O(bins log events).
    """
    n_edges = len(edges)
    first = times / bin_width
    np.ceil(first, out=first)
    np.minimum(first, n_edges, out=first)
    first = first.astype(np.intp)
    grid = np.concatenate(([-math.inf], edges, [math.inf]))
    below, above = grid[:-1], grid[1:]   # edges f - 1 and f, or -inf and inf past the ends
    while True:
        rise = above.take(first) < times
        fall = below.take(first) >= times
        if not (rise.any() or fall.any()):
            break
        first += rise
        first -= fall
    del grid, below, above   # so the counts do not sit beside the grid
    counts = np.bincount(first, minlength=n_edges + 1)
    np.cumsum(counts, out=counts)
    return counts[:-1]


def readout_bins(duration: float, bin_width: float) -> int:
    """Whole bins of bin_width in duration, which callers can check before simulating.

    Raises ValidationError for a duration that is not positive and finite,
    a bin width that is not positive, or a duration shorter than one bin
    or longer than MAX_BINS bins.
    """
    require_positive(duration=duration)
    if not bin_width > 0:  # NaN included
        raise ValidationError(f"bin_width must be positive (got {bin_width})")
    if duration / bin_width > MAX_BINS:   # inf included
        raise ValidationError(f"duration / bin_width gives more than {MAX_BINS} "
                              f"readout bins (got {duration} / {bin_width})")
    n_bins = int(math.floor(duration / bin_width + 1e-9))
    if n_bins < 1:
        raise ValidationError("duration shorter than one bin")
    return n_bins


def _draw_blocks(rng: np.random.Generator, duration: float):
    """Yield the (waits, picks) pieces of one trajectory, drawn block by block.

    Block k holds min(64 * 2**k, 4096) standard-exponential waits followed
    by as many uniform picks.  Each piece is an array of waits and a
    memoryview of as many picks.  Raises ValidationError in place of a
    block that would start at or past MAX_EVENTS pairs.
    """
    size, drawn, piece = _FIRST_BLOCK, 0, _FIRST_PIECE
    while True:
        # every pair handed out so far became an event, so drawn counts events
        if drawn >= MAX_EVENTS:
            raise ValidationError(
                f"trajectory exceeds {MAX_EVENTS} events before its duration "
                f"of {duration} s; shorten the duration")
        waits = rng.standard_exponential(size)
        picks = memoryview(rng.random(size))
        start = 0
        while start < size:
            stop = min(start + piece, size)
            yield waits[start:stop], picks[start:stop]
            start = stop
            piece = min(2 * piece, _BLOCK_CAP)
        drawn += size
        size = min(2 * size, _BLOCK_CAP)


def _channel_rates(p: ExperimentParams) -> tuple[float, float]:
    """Ground-state exit rates [1/s]: 0 -> 1 linear (0 at x0 = 0), 0 -> 2 counter-rotating."""
    out_of_range = "measurement-channel rates left the float range"
    try:
        rate01 = 1.0 / qnd.linear_lifetime(p)
        rate02 = 1.0 / qnd.rwa_lifetime(p)
    except SingularityError:  # a lifetime leaves the float range
        raise SingularityError(out_of_range) from None
    if not math.isfinite(rate01 + rate02):
        raise SingularityError(out_of_range)
    return rate01, rate02


def _climb_threshold(rate: float, total: float) -> float:
    """Least double c with c * total >= rate, for 0 <= rate <= total.

    c * total never decreases as c grows, so for every double pick,
    pick < c exactly when pick * total < rate: the walk's climb test
    without the multiply.  Returns 0.0 when total is 0.  An infinite
    total, where a high level's rates overflow, gives 0.0 or NaN, and no
    pick climbs, as no pick * total < rate holds there either.
    """
    if 0.0 < rate < sys.float_info.min:
        # products near a subnormal rate round to a fixed grid, so rate / total
        # may lie very many doubles from c: bisect the bit patterns of [0, 1]
        lo, hi = 0, _BITS.unpack(_DOUBLE.pack(1.0))[0]
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if _DOUBLE.unpack(_BITS.pack(mid))[0] * total >= rate:
                hi = mid
            else:
                lo = mid
        return _DOUBLE.unpack(_BITS.pack(hi))[0]
    c = rate / total if total else 0.0   # within a few doubles of c otherwise
    while c * total < rate:
        c = math.nextafter(c, math.inf)
    while c > 0.0 and math.nextafter(c, 0.0) * total >= rate:
        c = math.nextafter(c, 0.0)
    return c


class _WalkSetup(NamedTuple):
    """What simulate_trajectory derives from a parameter set before its walk."""

    heat: float        # n -> n+1 rate per n + 1
    cool: float        # n -> n-1 rate per n
    rates: np.ndarray  # per level: the total rate (read-only)
    climb: tuple       # per level: the exact climb threshold
    down: tuple        # per level: the level after a fall


def _level_rows(heat: float, cool: float, start: int, stop: int):
    """(totals, climb thresholds, falls) of the walk's levels start to stop - 1, start >= 1.

    A level m's total is heat (m + 1) + cool m, of which heat (m + 1) climbs,
    and a fall leads to m - 1.
    """
    totals, climbs = [], []
    for m in range(start, stop):
        rate = heat * (m + 1)
        total = rate + cool * m
        totals.append(total)
        climbs.append(_climb_threshold(rate, total))
    return totals, climbs, range(start - 1, stop - 1)


@lru_cache(maxsize=_MEMO_SETS)
def _walk_setup(p: ExperimentParams, include_measurement_channels: bool) -> _WalkSetup:
    """simulate_trajectory's rates and first _FIRST_LEVELS table rows for one parameter set.

    Raises SingularityError when a thermal or channel rate is not finite.
    """
    n_bar = thermal_occupation(p.T, p.omega_m)
    unit = p.omega_m / p.Q
    heat, cool = unit * n_bar, unit * (n_bar + 1.0)  # n -> n+1 per (n+1), n -> n-1 per n
    if not math.isfinite(heat + cool):   # else every wait is 0 and the path never advances
        raise SingularityError("thermal rates left the float range")
    rate01, rate02 = _channel_rates(p) if include_measurement_channels else (0.0, 0.0)
    total0 = heat + (rate01 + rate02)
    # at m = 0 the total takes the channels in, a pick climbs one level below
    # heat + rate01, and its "fall" is the 0 -> 2 jump
    totals, climbs, falls = _level_rows(heat, cool, 1, _FIRST_LEVELS)
    rates = np.array([total0, *totals])
    rates.flags.writeable = False
    return _WalkSetup(heat, cool, rates,
                      (_climb_threshold(heat + rate01, total0), *climbs), (2, *falls))


def simulate_trajectory(p: ExperimentParams, duration: float, seed: int,
                        include_measurement_channels: bool = False) -> JumpTrajectory:
    """Exact event-driven sampling of the phonon number over [0, duration].

    The membrane starts in its ground state (cooled, cooling laser off).
    T = 0 is accepted as the zero-temperature limit (no thermal events).
    Raises SingularityError when a thermal or channel rate is not finite.
    Raises ValidationError when the path has not reached its duration
    after MAX_EVENTS events (checked per block of draws, so at most one
    block later).
    """
    require_positive(duration=duration)
    heat, cool, rates, climb, down = _walk_setup(p, include_measurement_channels)
    t = 0.0
    n = 0
    # 8 bytes an event each, appended as bytes (the times from numpy, the levels
    # packed per piece) and viewed by numpy one statement at a time (an array
    # cannot grow while viewed); levels opens with the initial level
    times = array("d")
    levels = array("q", [n])
    # a total rate of 0 or below ~1e-290 can make a wait inf or NaN, which ends the path
    with np.errstate(all="ignore"):
        for waits, picks in _draw_blocks(np.random.default_rng(seed), duration):
            first = n
            while True:
                try:
                    walked = [n := (n + 1 if pick < climb[n] else down[n]) for pick in picks]
                    break
                except IndexError:
                    n = first
                    totals, climbs, falls = _level_rows(heat, cool, len(climb), 2 * len(climb) + 2)
                    rates = np.concatenate((rates, totals))
                    climb, down = (*climb, *climbs), (*down, *falls)
            k = len(walked)
            start = len(levels)
            levels.frombytes(struct.pack(f"{k}q", *walked))
            steps = waits / rates.take(levels[start - 1:-1])
            steps[0] += t
            steps = steps.cumsum()
            kept = int(steps.searchsorted(duration))  # events before the duration
            times.frombytes(steps[:kept].tobytes())
            if kept < k:
                del levels[kept - k:]
                break
            t = steps[-1]
    return JumpTrajectory(
        np.frombuffer(times, dtype=float), np.frombuffer(levels, dtype=np.int64, offset=8),
        float(duration), int(seed), include_measurement_channels,
    )


@dataclass(frozen=True)
class ReadoutTrace:
    """Binned noisy frequency readout of a trajectory."""

    bin_width: float            # s
    bin_centers: np.ndarray     # s
    freq_estimates: np.ndarray  # rad/s
    true_n_per_bin: np.ndarray  # time-weighted mean occupation
    delta_omega: float          # rad/s, per-phonon signal level spacing
    noise_sigma: float          # rad/s, per-bin readout noise
    bandwidth_ok: bool          # bin_width * omega_m >> 1 held
    seed: int

    def signal_level(self, n: int) -> float:
        """Noiseless readout level for occupation n."""
        return self.delta_omega * (n + 0.5)


@lru_cache(maxsize=_MEMO_SETS)
def _readout_scale(p: ExperimentParams) -> tuple[float, float]:
    """(delta_omega, S_omega) of a parameter set."""
    return qnd.detuning_per_phonon(p), qnd.pdh_noise_psd(p).s_omega


def binned_readout(traj: JumpTrajectory, p: ExperimentParams, bin_width: float,
                   seed: int) -> ReadoutTrace:
    """Per-bin frequency estimates with shot-noise-limited Gaussian noise.

    estimate = delta_omega * (mean n in bin + 1/2) + N(0, S_omega/bin_width).
    Deterministic per seed, independent of the trajectory's own seed.
    """
    mean_n = traj.mean_level_per_bin(bin_width)
    dw, s_omega = _readout_scale(p)
    sigma = math.sqrt(s_omega / bin_width)
    rng = np.random.default_rng(seed)
    estimates = mean_n + 0.5
    estimates *= dw
    estimates += rng.normal(0.0, sigma, len(mean_n))
    centers = np.arange(len(mean_n), dtype=float)
    centers += 0.5
    centers *= bin_width
    return ReadoutTrace(
        float(bin_width), centers, estimates, mean_n, dw, sigma,
        bandwidth_ok=bin_width * p.omega_m > 1.0, seed=int(seed),
    )


@dataclass(frozen=True)
class DetectionStats:
    detection_probability: float  # fraction of jumped bins flagged (nan if none)
    false_alarm_rate: float       # fraction of ground-state bins flagged (nan if none)
    n_jump_bins: int
    n_ground_bins: int
    threshold: float


def check_threshold(threshold: float, delta_omega: float) -> None:
    """A detection threshold must sit between the n = 0 and n = 1 signal levels.

    delta_omega is the per-phonon shift (qnd.detuning_per_phonon), so the
    check can run before anything is simulated.  Raises ValidationError.
    """
    lo, hi = delta_omega * 0.5, delta_omega * 1.5   # ReadoutTrace.signal_level(0), (1)
    if not lo < threshold < hi:
        raise ValidationError(
            f"threshold {threshold} outside the n=0..1 signal range ({lo}, {hi})"
        )


def jump_detection_stats(trace: ReadoutTrace, threshold: float) -> DetectionStats:
    """Per-bin threshold classification against the trajectory ground truth.

    A bin counts as "jumped" when its rounded true occupation is >= 1.  The
    threshold must pass check_threshold.
    """
    check_threshold(threshold, trace.delta_omega)
    truth = np.rint(trace.true_n_per_bin) >= 1
    flagged = trace.freq_estimates > threshold
    n_jump = int(np.count_nonzero(truth))
    n_ground = truth.size - n_jump
    hits = int(np.count_nonzero(flagged & truth))
    alarms = int(np.count_nonzero(flagged)) - hits
    detection = hits / n_jump if n_jump else math.nan
    false_alarm = alarms / n_ground if n_ground else math.nan
    return DetectionStats(detection, false_alarm, n_jump, n_ground, float(threshold))
