"""Independent reference computations used as test oracles.

Everything here deliberately avoids the code paths under test: derivatives
come from finite differences, occupation statistics from the generator
matrix (linear algebra, no sampling), and spectra from adaptive quadrature.
The jump-budget cross-checks reach the closed-form lifetimes by a second
route (golden rule over the photon noise spectrum, good-cavity ratios).
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from memcav import mechanics, qnd
from memcav.cavity import _slab_matrix
from memcav.errors import ValidationError
from memcav.mechanics import thermal_occupation
from memcav.params import ExperimentParams


def central_second_derivative(f, x0, h):
    return (f(x0 + h) - 2.0 * f(x0) + f(x0 - h)) / h**2


def central_first_derivative(f, x0, h):
    return (f(x0 + h) - f(x0 - h)) / (2.0 * h)


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


def snr_general_n(n: int, p: ExperimentParams) -> float:
    """SNR for resolving a jump out of phonon state n.

    Uses the thermal lifetime only; the two-phonon and linear channels are
    derived for the ground state and are not extended to n > 0.
    """
    dw = qnd.detuning_per_phonon(p)
    s_omega = qnd.pdh_noise_psd(p).s_omega
    return dw**2 * qnd.thermal_lifetime(n, p) / s_omega


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
