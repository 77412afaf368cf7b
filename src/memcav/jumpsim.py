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
numpy's PCG64 generator, so runs are bit-for-bit reproducible per seed and
platform-independent; the generator name is recorded on every result.  The
simulator draws its waits and branch picks in blocks whose sizes grow from
64 to 4096 whatever the duration, so a longer run of a seed starts with
exactly the events of a shorter one.  That layout is named by RNG_STREAM
("pcg64-blocks-v1"), which the CLI records next to the generator name.

Each block is walked in pieces whose sizes double from 8, in two phases.
Only the level update is sequential, so a Python walk over the picks
records each event's total rate and next level; numpy then turns the
waits into times with one cumsum per piece, which adds in sequence and so
gives the same bits as accumulating t += wait / total event by event.

The continuous readout is modeled per time bin: the estimate is the
per-phonon shift times (time-weighted mean occupation + 1/2), plus white
Gaussian frequency noise of variance S_omega / bin_width.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import qnd
from .errors import SingularityError, ValidationError
from .mechanics import thermal_occupation
from .params import ExperimentParams

RNG_ALGORITHM = "PCG64"
# How simulate_trajectory lays its draws out on the stream (see _draw_blocks);
# renaming it marks per-seed trajectories that differ from earlier layouts.
RNG_STREAM = "pcg64-blocks-v1"
_FIRST_BLOCK = 64
_BLOCK_CAP = 4096
# Size of the first walk piece; sizes double, within the block layout above.
_FIRST_PIECE = 8
# Largest path simulate_trajectory builds, checked once per block of draws:
# it bounds a run's time and its event arrays, 16 bytes an event.
# tests/test_cli.py::test_command_at_its_caps_stays_bounded runs jump-stats
# into this cap and bounds its peak memory.
MAX_EVENTS = 5_000_000


@dataclass(frozen=True)
class JumpTrajectory:
    """Event record of one phonon-number path starting from n = 0."""

    times: np.ndarray    # event times [s], strictly increasing
    levels: np.ndarray   # occupation after each event
    duration: float      # s
    seed: int
    measurement_channels: bool
    rng_algorithm: str = field(default=RNG_ALGORITHM)

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
        """Time-weighted mean occupation over consecutive bins of bin_width."""
        edges = np.arange(readout_bins(self.duration, bin_width) + 1) * bin_width
        # stretch j starts at breaks[j] and holds states[j]; cum[j] is the
        # integral of the occupation up to breaks[j]
        breaks = np.concatenate(([0.0], self.times))
        cum = np.empty_like(breaks)
        cum[0] = 0.0
        np.subtract(breaks[1:], breaks[:-1], out=cum[1:])
        cum[1:] *= self.states[:-1]
        np.cumsum(cum, out=cum)
        # running integral at every edge, evaluated once and in place
        k = np.searchsorted(self.times, edges, side="right")
        integral = edges - breaks[k]
        integral *= self.states[k]
        integral += cum[k]
        mean = np.diff(integral)
        mean /= bin_width
        return mean


def _check_duration(duration: float) -> None:
    if not 0.0 < duration < math.inf:
        raise ValidationError(f"duration must be positive and finite (got {duration})")


def readout_bins(duration: float, bin_width: float) -> int:
    """Whole bins of bin_width in duration, which callers can check before simulating.

    Raises ValidationError for a duration that is not positive and finite,
    a bin width that is not positive, or a duration shorter than one bin.
    """
    _check_duration(duration)
    if not bin_width > 0:  # NaN included
        raise ValidationError(f"bin_width must be positive (got {bin_width})")
    n_bins = int(math.floor(duration / bin_width + 1e-9))
    if n_bins < 1:
        raise ValidationError("duration shorter than one bin")
    return n_bins


def _draw_blocks(rng: np.random.Generator, duration: float):
    """Yield the (waits, picks) pieces of one trajectory, drawn block by block.

    Block k holds min(64 * 2**k, 4096) standard-exponential waits followed
    by as many uniform picks.  Block sizes depend on nothing else, so a run
    consumes its stream in the same order for every duration.  Each block
    is handed out as consecutive pieces, an array of waits and a list of
    picks, whose sizes double from 8 (cut at the block's end), so a path of
    a few events walks a few picks, not the whole first block.
    """
    size, drawn, piece = _FIRST_BLOCK, 0, _FIRST_PIECE
    while True:
        # every pair handed out so far became an event, so drawn counts events
        if drawn >= MAX_EVENTS:
            raise ValidationError(
                f"trajectory exceeds {MAX_EVENTS} events before its duration "
                f"of {duration} s; shorten the duration")
        waits = rng.standard_exponential(size)
        picks = rng.random(size).tolist()
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
    except (ZeroDivisionError, OverflowError):  # a lifetime underflows, a power overflows
        raise SingularityError(out_of_range) from None
    if not math.isfinite(rate01 + rate02):
        raise SingularityError(out_of_range)
    return rate01, rate02


def simulate_trajectory(p: ExperimentParams, duration: float, seed: int,
                        include_measurement_channels: bool = False) -> JumpTrajectory:
    """Exact event-driven sampling of the phonon number over [0, duration].

    The membrane starts in its ground state (cooled, cooling laser off).
    T = 0 is accepted as the zero-temperature limit (no thermal events).
    Raises ValidationError when the path has not reached its duration
    after MAX_EVENTS events (checked per block of draws, so at most one
    block later).

    Each piece of draws runs in two phases: a Python walk of the levels
    that records the total rate before each event and stops where no rate
    leaves the level, then the event times from one numpy cumsum, cut at
    the duration.  The levels walked past the cut are dropped.
    """
    _check_duration(duration)
    n_bar = thermal_occupation(p.T, p.omega_m)
    unit = p.omega_m / p.Q
    heat, cool = unit * n_bar, unit * (n_bar + 1.0)  # n -> n+1 per (n+1), n -> n-1 per n
    rate01, rate02 = _channel_rates(p) if include_measurement_channels else (0.0, 0.0)
    rate0 = rate01 + rate02

    # each level's rates, computed when the path first reaches it: ups[m] =
    # heat (m + 1) and totals[m] = ups[m] + cool m, or ups[0] + rate0 at m = 0
    ups = [heat]
    totals = [heat + rate0]
    ground_up = heat + rate01   # a ground-state pick below this climbs one level
    t = 0.0
    n = 0
    # 8 bytes an event each; numpy views them only once both are complete
    times = array("d")
    levels = array("q")
    push = levels.append
    for waits, picks in _draw_blocks(np.random.default_rng(seed), duration):
        # phase 1: the level walk, recording the total rate before each event
        before = array("d")
        record = before.append
        for pick in picks:
            try:
                total = totals[n]
            except IndexError:   # a new highest level; a 0 -> 2 jump adds two
                for m in range(len(totals), n + 1):
                    up = heat * (m + 1)
                    ups.append(up)
                    totals.append(up + cool * m)
                total = totals[n]
            if total <= 0.0:
                break
            record(total)
            u = pick * total
            if u < ups[n]:
                n += 1
            elif n:
                n -= 1
            elif u < ground_up:
                n += 1
            else:
                n += 2
            push(n)
        # phase 2: the times, t + wait / total summed in event order
        k = len(before)
        if k:
            steps = waits[:k] / np.frombuffer(before)
            steps[0] += t
            steps = steps.cumsum()
            kept = int(steps.searchsorted(duration))  # events before the duration
            times.frombytes(steps[:kept].tobytes())
            if kept < k:
                del levels[kept - k:]
                break
            t = steps[-1]
        if k < len(picks):   # no rate out of level n: the path is absorbed
            break
    return JumpTrajectory(
        np.frombuffer(times, dtype=float), np.frombuffer(levels, dtype=np.int64),
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
    rng_algorithm: str = field(default=RNG_ALGORITHM)

    def signal_level(self, n: int) -> float:
        """Noiseless readout level for occupation n."""
        return self.delta_omega * (n + 0.5)


def binned_readout(traj: JumpTrajectory, p: ExperimentParams, bin_width: float,
                   seed: int) -> ReadoutTrace:
    """Per-bin frequency estimates with shot-noise-limited Gaussian noise.

    estimate = delta_omega * (mean n in bin + 1/2) + N(0, S_omega/bin_width).
    Deterministic per seed, independent of the trajectory's own seed.
    """
    mean_n = traj.mean_level_per_bin(bin_width)
    dw = qnd.detuning_per_phonon(p)
    s_omega = qnd.pdh_noise_psd(p).s_omega
    sigma = math.sqrt(s_omega / bin_width)
    rng = np.random.default_rng(seed)
    estimates = mean_n + 0.5
    estimates *= dw
    estimates += rng.normal(0.0, sigma, len(mean_n))
    centers = (np.arange(len(mean_n)) + 0.5) * bin_width
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
