"""Independent reference computations used as test oracles.

Everything here deliberately avoids the code paths under test: derivatives
come from finite differences, occupation statistics from the generator
matrix (linear algebra, no sampling), and spectra from adaptive quadrature.
The jump-budget cross-checks reach the closed-form lifetimes by a second
route (golden rule over the photon noise spectrum, good-cavity ratios).
The jump simulator is checked against its earlier one-loop form, the
optics' row-0 chain against the full matrix product, the detection
statistics against per-bin means, and the SNR refinement against its form
that reruns every line search.  The fits' solver is checked
against scipy's MINPACK curve_fit, given the exact complex-step Jacobian.
"""

import math
import warnings
from array import array
from dataclasses import dataclass, replace
from itertools import chain
from types import SimpleNamespace

import numpy as np
from scipy.linalg import expm
from scipy.optimize import OptimizeWarning, curve_fit

from memcav import jumpsim, mechanics, qnd, sweep
from memcav.cavity import (_interface_matrix, _sheet_matrix, _slab_matrix,
                           mirror_reflectivity_from_finesse, sheet_strength)
from memcav.errors import MemcavError, SingularityError, ValidationError
from memcav.mechanics import thermal_occupation
from memcav.params import C_LIGHT, ExperimentParams


def central_second_derivative(f, x0, h):
    return (f(x0 + h) - 2.0 * f(x0) + f(x0 - h)) / h**2


def central_first_derivative(f, x0, h):
    return (f(x0 + h) - f(x0 - h)) / (2.0 * h)


def curve_fit_params(model, x, y, p0, maxfev, jac=None):
    """model's parameters fitted to y from p0 by scipy's curve_fit (MINPACK).

    Without `jac`, MINPACK differences the Jacobian forward, as the fits did
    before they had their own solver.
    """
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore", OptimizeWarning)   # the covariance, not used
        params, _ = curve_fit(model, x, y, p0=p0, maxfev=maxfev, jac=jac)
    return params


def complex_step_jacobian(model):
    """jac(x, *params) of model, exact to rounding: Im f(p + ih) / h has no
    difference to cancel, so a step of 1e-20 |p_j| is safe."""
    def jac(x, *params):
        params = np.asarray(params, dtype=float)
        steps = 1e-20 * np.where(params == 0.0, 1.0, np.abs(params))
        return np.column_stack([model(x, *(params + 1j * h * unit)).imag / h
                                for h, unit in zip(steps, np.eye(params.size))])
    return jac


def birth_death_generator(p, n_max, include_measurement_channels=False,
                          rate01=0.0, rate02=0.0):
    """Generator matrix Q (columns = from-state) of the phonon jump process."""
    n_bar = thermal_occupation(p.T, p.omega_m)
    unit = p.omega_m / p.Q
    G = np.zeros((n_max + 1, n_max + 1))
    for n in range(n_max + 1):
        up = unit * n_bar * (n + 1)
        down = unit * n * (n_bar + 1.0)
        if n + 1 <= n_max:
            G[n + 1, n] += up + (rate01 if (include_measurement_channels and n == 0) else 0.0)
        if include_measurement_channels and n == 0 and n + 2 <= n_max:
            G[n + 2, n] += rate02
        if n > 0:
            G[n - 1, n] += down
    for n in range(n_max + 1):
        G[n, n] -= G[:, n].sum()
    return G


def bin_average_char_fn(G, bin_starts, bin_width, alphas):
    """E[exp(i alpha * mean level over a bin)] for a mixture of bin starts.

    Tilted-propagator identity: the expectation over paths of
    exp(i (alpha/bw) * integral of n dt) equals
    1^T expm((G + i (alpha/bw) diag(levels)) bw) p_start.

    The matrix exponentials of all alphas come from one batched
    eigendecomposition, expm(A) = V diag(exp(w)) V^-1;
    bin_average_char_fn_expm is the direct route, kept as its cross-check.
    """
    levels = np.diag(np.arange(G.shape[0], dtype=float))
    tilted = (G + 1j * (np.asarray(alphas)[:, None, None] / bin_width) * levels) * bin_width
    w, V = np.linalg.eig(tilted)
    # 1^T V diag(exp(w)) V^-1, one row per alpha
    v = np.linalg.solve(np.swapaxes(V, 1, 2), (V.sum(axis=1) * np.exp(w))[:, :, None])[:, :, 0]
    return (v @ np.array(bin_starts).T).mean(axis=1)


def bin_average_char_fn_expm(G, bin_starts, bin_width, alphas):
    """bin_average_char_fn through one scipy.linalg.expm per alpha."""
    n_states = G.shape[0]
    levels = np.diag(np.arange(n_states, dtype=float))
    ones = np.ones(n_states)
    out = np.empty(len(alphas), dtype=complex)
    for j, alpha in enumerate(alphas):
        tilted = expm((G + 1j * (alpha / bin_width) * levels) * bin_width)
        v = ones @ tilted
        out[j] = np.mean([v @ s for s in bin_starts])
    return out


def bose_einstein_pmf(n_bar, n_levels):
    """P(n) for n = 0..n_levels-1 plus the tail mass as the last entry."""
    q = n_bar / (1.0 + n_bar)
    probs = [(1.0 - q) * q**n for n in range(n_levels)]
    return np.array(probs + [q**n_levels])


def photon_psd(omega, detuning: float, kappa: float, n_bar_photons: float):
    """Intracavity photon-number noise spectrum [photons^2 s],

    S_NN(omega) = N_bar kappa / ((omega + Delta)^2 + (kappa/2)^2).
    """
    if kappa <= 0:
        raise ValidationError(f"kappa must be positive (got {kappa})")
    omega = np.asarray(omega, dtype=float)
    out = n_bar_photons * kappa / ((omega + detuning) ** 2 + (kappa / 2.0) ** 2)
    return float(out) if out.ndim == 0 else out


def rwa_rate_golden_rule(p: ExperimentParams) -> float:
    """0 -> 2 excitation rate via the photon noise spectrum [1/s]."""
    dw = qnd.detuning_per_phonon(p)
    _, kappa, n_bar = qnd.pdh_noise_psd(p)
    return 0.5 * dw**2 * photon_psd(-2.0 * p.omega_m, 0.0, kappa, n_bar)


def linear_rate_golden_rule(p: ExperimentParams) -> float:
    """0 -> 1 excitation rate via the photon noise spectrum [1/s]."""
    if p.x0 == 0.0:
        return 0.0
    dw = qnd.detuning_per_phonon(p)
    x_m = mechanics.zero_point_amplitude(p.m, p.omega_m)
    _, kappa, n_bar = qnd.pdh_noise_psd(p)
    # slope-times-zero-point coupling, written through the per-phonon shift so
    # both routes share the same near-unity-r_c curvature
    coupling = dw * p.x0 / x_m
    return coupling**2 * photon_psd(-p.omega_m, 0.0, kappa, n_bar)


def thermal_lifetime_n(n: int, p: ExperimentParams) -> float:
    """Lifetime of phonon state n against the thermal bath [s],

    tau_T = Q / (omega_m (n (n_bar+1) + n_bar (n+1))).

    For n = 0 this reduces exactly to qnd.thermal_lifetime, Q hbar / (k_B T).
    """
    if n == 0:
        return qnd.thermal_lifetime(p)
    n_bar = thermal_occupation(p.T, p.omega_m)
    return p.Q / (p.omega_m * (n * (n_bar + 1.0) + n_bar * (n + 1.0)))


def snr_general_n(n: int, p: ExperimentParams) -> float:
    """SNR for resolving a jump out of phonon state n.

    Uses the thermal lifetime only; the two-phonon and linear channels are
    derived for the ground state and are not extended to n > 0.
    """
    dw = qnd.detuning_per_phonon(p)
    s_omega = qnd.pdh_noise_psd(p).s_omega
    return dw**2 * thermal_lifetime_n(n, p) / s_omega


def budget_by_formulas(p) -> qnd.QndBudget:
    """qnd._budget as the five public formulas, each called on p.

    Each formula derives its own x_m^2, 1 - r_c and kappa and checks its own
    result's range: the reference for the budget that derives each once and
    leaves the range to the float-range rule, which must give the same bits,
    and raise the same error type where that rule fails a float budget.
    """
    try:
        dw = qnd.detuning_per_phonon(p)
        s_omega, kappa, n_bar_photons = qnd.pdh_noise_psd(p)
        tau_t = qnd.thermal_lifetime(p)
        tau_r = qnd.rwa_lifetime(p)
        tau_l = qnd.linear_lifetime(p)
        tau_total = 1.0 / (1.0 / tau_t + 1.0 / tau_r + 1.0 / tau_l)
        snr = dw**2 * tau_total / s_omega
        gap = qnd.near_unity_gap(p.r_c, p.L)
        n_bar = thermal_occupation(p.T, p.omega_m)
    except (ZeroDivisionError, OverflowError, SingularityError):
        raise SingularityError("jump budget left the float range") from None
    flags = qnd.QndFlags(tau_total * p.omega_m > 1.0, gap > p.omega_m,
                         mechanics.is_classical_bath(n_bar), p.omega_m > kappa)
    return qnd.QndBudget(dw, kappa, n_bar_photons, s_omega, tau_t, tau_r, tau_l, tau_total, snr,
                         gap, n_bar, flags)


def maximize_snr_reference(base: ExperimentParams, axes, refine_iters: int = 3,
                           grid: sweep.SweepResult | None = None) -> sweep.OptimizeResult:
    """sweep.maximize_snr as it was before it skipped repeated line searches.

    Every round searches every axis, so the refined point and its budget
    must be the same bits; only the evaluations may be fewer.
    """
    result = grid if grid is not None else sweep.grid_sweep(base, axes)
    best = result.best
    evals = math.prod(result.shape)
    if best is None:
        return sweep.OptimizeResult(False, None, None, evals)

    searches = [(attr, values, axis.scale)
                for (attr, values), axis in zip(result.samples.items(), result.axes)]
    current_p, current_b = best.params, best.budget
    for _ in range(refine_iters):
        start = current_p
        for attr, values, scale in searches:
            x_now = getattr(current_p, attr)
            idx = int(np.argmin(np.abs(values - x_now)))
            lo = values[max(idx - 1, 0)]
            hi = values[min(idx + 1, len(values) - 1)]
            if lo == hi:
                continue
            fwd, inv = (math.log, math.exp) if scale == "log" else (lambda v: v, lambda v: v)
            point = SimpleNamespace(**vars(current_p))   # current_p, but for attr
            budgets = {}

            def objective(u: float) -> float:
                setattr(point, attr, inv(u))
                try:
                    budget = qnd.jump_budget(point)
                except MemcavError:
                    return -math.inf
                if not all(budget.flags):
                    return -math.inf
                if budget.snr > current_b.snr:   # only these can replace the current point
                    budgets[u] = budget
                return budget.snr

            u, snr = sweep.golden_section(objective, fwd(lo), fwd(hi))
            if snr > current_b.snr:
                current_p, current_b = replace(current_p, **{attr: inv(u)}), budgets[u]
            evals += 4 + sweep._GOLDEN_STEPS
        if current_p is start:   # every later round would repeat this one
            break
    return sweep.OptimizeResult(True, current_p, current_b, evals)


@dataclass(frozen=True)
class ConsistencyReport:
    """Good-cavity cross-checks between lifetime ratios and closed forms.

    ratio_lin compares tau_total/tau_lin with (SNR/16)(x0/x_m)^2(kappa/omega_m)^2;
    ratio_rwa compares tau_lin/tau_rwa with (1/8)(x_m/x0)^2.  Residuals are
    relative and shrink as (kappa/omega_m)^2.  All None when x0 = 0.
    """

    lhs_lin: float | None
    rhs_lin: float | None
    residual_lin: float | None
    lhs_rwa: float | None
    rhs_rwa: float | None
    residual_rwa: float | None


def consistency_ratios(p: ExperimentParams) -> ConsistencyReport:
    if p.x0 == 0.0:
        return ConsistencyReport(None, None, None, None, None, None)
    budget = qnd.jump_budget(p)
    x_m = mechanics.zero_point_amplitude(p.m, p.omega_m)
    lhs_lin = budget.tau_total / budget.tau_lin
    rhs_lin = (budget.snr / 16.0) * (p.x0 / x_m) ** 2 * (budget.kappa / p.omega_m) ** 2
    lhs_rwa = budget.tau_lin / budget.tau_rwa
    rhs_rwa = 0.125 * (x_m / p.x0) ** 2
    return ConsistencyReport(
        lhs_lin, rhs_lin, abs(lhs_lin - rhs_lin) / rhs_lin,
        lhs_rwa, rhs_rwa, abs(lhs_rwa - rhs_rwa) / rhs_rwa,
    )


def slab_amplitudes(n: float, d: float, lam: float) -> tuple[complex, complex]:
    """(r, t) of the bare slab from its transfer matrix (left incidence).

    Checks the closed-form cavity.slab_reflection_amplitude by a second
    route: the interface and propagation matrices that cavity_transmission
    chains.
    """
    k = np.asarray(2.0 * np.pi / lam, dtype=float)
    M = _slab_matrix(n, d, k)
    return complex(M[2] / M[0]), complex(1.0 / M[0])


def _mat_mul(A, B):
    return (A[0] * B[0] + A[1] * B[2], A[0] * B[1] + A[1] * B[3],
            A[2] * B[0] + A[3] * B[2], A[2] * B[1] + A[3] * B[3])


def _full_prop_matrix(k, d):
    ph = np.exp(-1j * k * d)
    zero = np.zeros_like(ph)
    return (ph, zero, zero, 1.0 / ph)


def full_chain_transmission(omega, x, F: float, L: float, r_c: float | None = None,
                            membrane=None):
    """cavity.cavity_transmission as the full 2x2 product mirror P(d1) mid P(d2) mirror.

    Every matrix, the slab's too, is multiplied out whole, with a plane of
    zeros off the diagonal of each propagation matrix P, and only M[0] is
    read: the reference for the row-0 chain, which must give the same bits
    and raise the same errors.
    """
    k = np.asarray(omega, dtype=float) / C_LIGHT
    x = np.asarray(x, dtype=float)
    R = mirror_reflectivity_from_finesse(F)
    if R == 1.0:
        raise SingularityError(f"finesse {F} rounds the mirror reflectivity to 1")
    mirror = _sheet_matrix(math.sqrt(R / (1.0 - R)))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if membrane is None:
            mid = _sheet_matrix(sheet_strength(r_c))
            d1, d2 = L / 2.0 + x, L / 2.0 - x
        else:
            n, d = membrane.n_index, membrane.d
            mid = _mat_mul(_mat_mul(_interface_matrix(1.0, n), _full_prop_matrix(n * k, d)),
                           _interface_matrix(n, 1.0))
            d1, d2 = L / 2.0 + x - d / 2.0, L / 2.0 - x - d / 2.0
        M = _mat_mul(mirror, _full_prop_matrix(k, d1))
        M = _mat_mul(M, mid)
        M = _mat_mul(M, _full_prop_matrix(k, d2))
        M = _mat_mul(M, mirror)
        out = np.abs(1.0 / M[0]) ** 2
    if not np.all(np.isfinite(out)):
        raise SingularityError("cavity transmission left the float range")
    return float(out) if out.ndim == 0 else out


def _fused_draw_blocks(rng: np.random.Generator, duration: float):
    """Yield the (wait, pick) pairs of one trajectory, drawn block by block.

    Block k holds min(64 * 2**k, 4096) standard-exponential waits followed
    by as many uniform picks: the stream layout jumpsim.RNG_STREAM names.
    """
    size, drawn = jumpsim._FIRST_BLOCK, 0
    while True:
        # every pair handed out so far became an event, so drawn counts events
        if drawn >= jumpsim.MAX_EVENTS:
            raise ValidationError(
                f"trajectory exceeds {jumpsim.MAX_EVENTS} events before its duration "
                f"of {duration} s; shorten the duration")
        waits = rng.standard_exponential(size).tolist()
        picks = rng.random(size).tolist()
        yield zip(waits, picks)
        drawn += size
        size = min(2 * size, jumpsim._BLOCK_CAP)


def fused_trajectory(p: ExperimentParams, duration: float, seed: int,
                     include_measurement_channels: bool = False) -> jumpsim.JumpTrajectory:
    """jumpsim.simulate_trajectory as one loop that also sums the times.

    Each event takes t += wait / total in Python before its level update,
    so the times are built one float at a time, the reference for the
    simulator's numpy cumsum.
    """
    if not 0.0 < duration < math.inf:
        raise ValidationError(f"duration must be positive and finite (got {duration})")
    n_bar = thermal_occupation(p.T, p.omega_m)
    unit = p.omega_m / p.Q
    heat, cool = unit * n_bar, unit * (n_bar + 1.0)  # n -> n+1 per (n+1), n -> n-1 per n
    rate01, rate02 = (jumpsim._channel_rates(p) if include_measurement_channels
                      else (0.0, 0.0))
    rate0 = rate01 + rate02

    # each level's rates, computed when the path first reaches it: ups[m] =
    # heat (m + 1) and totals[m] = ups[m] + cool m, or ups[0] + rate0 at m = 0
    ups = [heat]
    totals = [heat + rate0]
    ground_up = heat + rate01   # a ground-state pick below this climbs one level
    t = 0.0
    n = 0
    # 8 bytes an event each, and no float object outlives its event
    times = array("d")
    levels = array("q")
    for wait, pick in chain.from_iterable(_fused_draw_blocks(np.random.default_rng(seed),
                                                             duration)):
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
        t += wait / total
        if t >= duration:
            break
        u = pick * total
        if u < ups[n]:
            n += 1
        elif n:
            n -= 1
        elif u < ground_up:
            n += 1
        else:
            n += 2
        times.append(t)
        levels.append(n)
    return jumpsim.JumpTrajectory(
        np.frombuffer(times, dtype=float), np.frombuffer(levels, dtype=np.int64),
        float(duration), int(seed), include_measurement_channels,
    )


def detection_stats_by_mean(trace: jumpsim.ReadoutTrace,
                            threshold: float) -> jumpsim.DetectionStats:
    """jump_detection_stats as the mean of the flags over each class of bins."""
    truth = np.rint(trace.true_n_per_bin) >= 1
    flagged = trace.freq_estimates > threshold
    n_jump = int(truth.sum())
    n_ground = int((~truth).sum())
    detection = float(np.mean(flagged[truth])) if n_jump else math.nan
    false_alarm = float(np.mean(flagged[~truth])) if n_ground else math.nan
    return jumpsim.DetectionStats(detection, false_alarm, n_jump, n_ground,
                                  float(threshold))
