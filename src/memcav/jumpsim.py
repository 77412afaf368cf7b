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

The continuous readout is modeled per time bin: the estimate is the
per-phonon shift times (time-weighted mean occupation + 1/2), plus white
Gaussian frequency noise of variance S_omega / bin_width.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

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
# Largest path simulate_trajectory builds; checked once per block of draws.
MAX_EVENTS = 5_000_000


@dataclass(frozen=True)
class JumpTrajectory:
    """Event record of one phonon-number path starting from n = 0."""

    times: np.ndarray    # event times [s], strictly increasing
    levels: np.ndarray   # occupation after each event
    duration: float      # s
    seed: int
    measurement_channels: bool
    n_initial: int = 0
    rng_algorithm: str = field(default=RNG_ALGORITHM)

    @cached_property
    def states(self) -> np.ndarray:
        """Occupation on each stretch between events: n_initial, then levels."""
        return np.concatenate(([self.n_initial], self.levels))

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
        if not bin_width > 0:  # NaN included
            raise ValidationError(f"bin_width must be positive (got {bin_width})")
        n_bins = int(math.floor(self.duration / bin_width + 1e-9))
        if n_bins < 1:
            raise ValidationError("duration shorter than one bin")
        edges = np.arange(n_bins + 1) * bin_width
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


def _draw_blocks(rng: np.random.Generator, duration: float):
    """Yield the (wait, pick) pairs of one trajectory, drawn block by block.

    Block k holds min(64 * 2**k, 4096) standard-exponential waits followed
    by as many uniform picks.  Block sizes depend on nothing else, so a run
    consumes its stream in the same order for every duration.
    """
    size, drawn = _FIRST_BLOCK, 0
    while True:
        # every pair handed out so far became an event, so drawn counts events
        if drawn >= MAX_EVENTS:
            raise ValidationError(
                f"trajectory exceeds {MAX_EVENTS} events before its duration "
                f"of {duration} s; shorten the duration")
        waits = rng.standard_exponential(size).tolist()
        picks = rng.random(size).tolist()
        yield zip(waits, picks)
        drawn += size
        size = min(2 * size, _BLOCK_CAP)


def _channel_rates(p: ExperimentParams) -> tuple[float, float]:
    """Ground-state exit rates (0 -> 1 linear, 0 -> 2 counter-rotating) [1/s]."""
    try:
        rate02 = 1.0 / qnd.rwa_lifetime(p)
        tau_lin = qnd.linear_lifetime(p)
        rate01 = 0.0 if math.isinf(tau_lin) else 1.0 / tau_lin
    except (ZeroDivisionError, OverflowError) as exc:  # a lifetime underflows, a power overflows
        raise SingularityError(
            f"measurement-channel rates left the float range ({type(exc).__name__})") from None
    if not math.isfinite(rate01 + rate02):
        raise SingularityError("measurement-channel rates are not finite")
    return rate01, rate02


def simulate_trajectory(p: ExperimentParams, duration: float, seed: int,
                        include_measurement_channels: bool = False) -> JumpTrajectory:
    """Exact event-driven sampling of the phonon number over [0, duration].

    The membrane starts in its ground state (cooled, cooling laser off).
    T = 0 is accepted as the zero-temperature limit (no thermal events).
    Raises ValidationError when the path has not reached its duration
    after MAX_EVENTS events (checked per block of draws, so at most one
    block later).
    """
    if not 0.0 < duration < math.inf:
        raise ValidationError(f"duration must be positive and finite (got {duration})")
    n_bar = thermal_occupation(p.T, p.omega_m)
    unit = p.omega_m / p.Q
    heat, cool = unit * n_bar, unit * (n_bar + 1.0)  # n -> n+1 per (n+1), n -> n-1 per n
    rate01, rate02 = _channel_rates(p) if include_measurement_channels else (0.0, 0.0)
    rate0 = rate01 + rate02

    t = 0.0
    n = 0
    # 8 bytes an event each, and no float object outlives its event
    times = array("d")
    levels = array("q")
    for wait, pick in chain.from_iterable(_draw_blocks(np.random.default_rng(seed), duration)):
        up = heat * (n + 1)
        total = up + cool * n if n else up + rate0
        if total <= 0.0:
            break
        t += wait / total
        if t >= duration:
            break
        u = pick * total
        if u < up:
            n += 1
        elif n:
            n -= 1
        elif u < up + rate01:
            n += 1
        else:
            n += 2
        times.append(t)
        levels.append(n)
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


def jump_detection_stats(trace: ReadoutTrace, threshold: float) -> DetectionStats:
    """Per-bin threshold classification against the trajectory ground truth.

    A bin counts as "jumped" when its rounded true occupation is >= 1.  The
    threshold must sit between the n = 0 and n = 1 signal levels.
    """
    lo, hi = trace.signal_level(0), trace.signal_level(1)
    if not lo < threshold < hi:
        raise ValidationError(
            f"threshold {threshold} outside the n=0..1 signal range ({lo}, {hi})"
        )
    truth = np.rint(trace.true_n_per_bin) >= 1
    flagged = trace.freq_estimates > threshold
    n_jump = int(truth.sum())
    n_ground = int((~truth).sum())
    detection = float(np.mean(flagged[truth])) if n_jump else math.nan
    false_alarm = float(np.mean(flagged[~truth])) if n_ground else math.nan
    return DetectionStats(detection, false_alarm, n_jump, n_ground, float(threshold))
