"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import minimize
from scipy.stats import chisquare

from memcav import cavity, cooling, jumpsim, mechanics, qnd
from memcav.params import C_LIGHT, HBAR, K_B, with_value
from memcav.cooling import PsdTrace

from oracles import (bin_average_char_fn, birth_death_generator, bose_einstein_pmf,
                     consistency_ratios, linear_rate_golden_rule, rwa_rate_golden_rule,
                     slab_amplitudes)


def _report(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_scenario_one_budget(row1):
    b = qnd.jump_budget(row1)
    assert abs(b.snr - 1.0) <= 0.05
    assert abs(b.tau_total - 3.0e-4) <= 0.05 * 3.0e-4
    # frozen derived values
    assert math.isclose(b.snr, 0.9932, rel_tol=1e-3)
    assert math.isclose(b.tau_total, 2.898e-4, rel_tol=1e-3)
    _report(1, f"SNR={b.snr:.4f} (target 1.0 +/- 5%), "
               f"tau={b.tau_total*1e3:.4f} ms (target 0.3 +/- 5%)")


def test_criterion_2_scenario_two_budget(row2):
    b = qnd.jump_budget(row2)
    assert abs(b.snr - 4.0) <= 0.05 * 4.0
    assert math.isclose(b.snr, 3.972, rel_tol=1e-3)
    _report(2, f"SNR={b.snr:.4f} (target 4.0 +/- 5%)")


def test_criterion_3_mechanical_characterization():
    omega = 2 * np.pi * 1.34e5
    q = mechanics.q_from_ringdown(2.67, omega)
    # reference Q carries two significant figures; the computed value must
    # round to it and match the full-precision expectation
    assert math.isclose(q, 1.124e6, rel_tol=2e-3)
    assert float(f"{q:.2g}") == 1.1e6
    k = mechanics.spring_constant(4e-11, omega)
    assert abs(k - 28.0) <= 0.03 * 28.0
    assert math.isclose(k, 28.4, rel_tol=5e-3)
    _report(3, f"Q={q:.4e} (rounds to 1.1e6), k={k:.3f} N/m (target 28 +/- 3%)")


def test_criterion_4_cooling_factor():
    q_eff = 6.82e-3 * 1.1e6 / 294.0
    t_eff = cooling.teff_from_q(294.0, q_eff, 1.1e6)
    assert math.isclose(t_eff, 6.82e-3, rel_tol=1e-12)
    factor = 294.0 / t_eff
    assert abs(factor - 4.4e4) <= 0.05 * 4.4e4
    assert math.isclose(factor, 4.31e4, rel_tol=2e-3)
    _report(4, f"cooling factor {factor:.4g} (target 4.4e4 +/- 5%)")


def test_criterion_5_finesse_ringdown():
    L = 0.067
    tau = cavity.finesse_ringdown(16100.0, "finesse_to_tau", L)
    assert math.isclose(tau, 1.145e-6, rel_tol=1e-3)
    back = cavity.finesse_ringdown(tau, "tau_to_finesse", L)
    assert math.isclose(back, 16100.0, rel_tol=1e-12)
    _report(5, f"F=16100 <-> tau={tau*1e6:.4f} us, round trip exact to 1e-12")


def test_criterion_6_identity_suite(row1, row2):
    for p in (row1, row2):
        noise = qnd.pdh_noise_psd(p)
        assert math.isclose(noise.s_omega, noise.kappa / (16 * noise.n_bar_photons),
                            rel_tol=1e-12)
        dw = qnd.detuning_per_phonon(p)
        x_m = mechanics.zero_point_amplitude(p.m, p.omega_m)
        alt = 16 * np.pi**2 * C_LIGHT * x_m**2 / (
            p.L * p.lam**2 * math.sqrt(2 * (1 - p.r_c)))
        assert math.isclose(dw, alt, rel_tol=1e-12)
        assert math.isclose(qnd.rwa_lifetime(p),
                            1 / rwa_rate_golden_rule(p), rel_tol=1e-9)
        assert math.isclose(qnd.linear_lifetime(p),
                            1 / linear_rate_golden_rule(p), rel_tol=1e-9)

    rep = consistency_ratios(row1)  # kappa/omega_m = 0.075 here
    assert rep.residual_lin < 0.01 and rep.residual_rwa < 0.01

    targets = [0.3, 0.1, 0.03, 0.01]
    residuals = []
    for ratio in targets:
        F = np.pi * C_LIGHT / (row1.L * ratio * row1.omega_m)
        r = consistency_ratios(with_value(row1, "F", F))
        residuals.append((r.residual_lin, r.residual_rwa))
    for i in range(len(targets) - 1):
        scale = (targets[i + 1] / targets[i]) ** 2
        for k in range(2):
            assert abs(residuals[i + 1][k] / residuals[i][k] / scale - 1) < 0.2
    _report(6, "dual forms at 1e-12, route equivalences at 1e-9, "
               "good-cavity residuals <1% and O((kappa/omega_m)^2)")


def test_criterion_7_sheet_model_oracle_equivalence():
    rc, F, L, lam = 0.31, 1e5, 1.0, 532e-9
    fsr = cavity.omega_fsr(L)
    kappa = np.pi * C_LIGHT / (L * F)
    xs = np.linspace(0.0, lam / 2, 101)
    anchor, _ = cavity.locate_resonance(0.0, round(2 * L / lam) * fsr, 1.05 * fsr,
                                        F, L, r_c=rc, n_scan=3_000_001)
    slope_max = (C_LIGHT / L) * (4 * np.pi / lam) * rc
    track = np.empty(len(xs))
    track[0] = anchor
    for i in range(1, len(xs)):
        half = slope_max * (xs[i] - xs[i - 1]) * 1.3 + 10 * kappa
        track[i], _ = cavity.locate_resonance(float(xs[i]), track[i - 1], half,
                                              F, L, r_c=rc, n_scan=101)
    theta = np.arccos(rc * np.cos(4 * np.pi * xs / lam))
    best = np.inf
    for sign in (+1, -1):
        band = sign * (C_LIGHT / L) * theta
        resid = track - band - np.mean(track - band)
        best = min(best, float(np.max(np.abs(resid) / np.abs(band))))
    assert best < 1e-6

    # band periodicity at machine precision
    for rc_p in (0.31, 0.999):
        grid = np.linspace(-lam / 4, lam / 4, 101)
        a = cavity.dispersive_detuning(grid, rc_p, L, lam)
        b = cavity.dispersive_detuning(grid + lam / 2, rc_p, L, lam)
        assert np.allclose(a, b, rtol=1e-12, atol=0)
    _report(7, f"ridge vs analytic band max residual {best:.2e} (<1e-6), "
               "lambda/2 periodicity at 1e-12")


def test_criterion_8_round_trip_fitting():
    m, omega = 4e-11, 2 * np.pi * 1.34e5
    q_eff, t_true = 25.0, 10.0
    gamma = omega / q_eff
    lo = max(omega - 30 * gamma, 0.0)
    freq = np.linspace(lo, omega + 30 * gamma, 1500) / (2 * np.pi)
    clean = cooling.psd_model(2 * np.pi * freq, m, t_true, omega, gamma)
    floor = clean.max() * 1e-3
    ok = 0
    for seed in range(200):
        rng = np.random.default_rng(3_000 + seed)
        noisy = (clean + floor) * (1 + rng.normal(0, 0.05, len(freq)))
        trace = cooling.fit_psd(freq, noisy, m=m, omega_m=omega)
        good = (abs(trace.fit.omega_eff / omega - 1) < 0.05
                and abs(trace.fit.gamma_eff / gamma - 1) < 0.05
                and abs(trace.fit.t_eff_area / t_true - 1) < 0.05)
        ok += good
    assert ok >= 190

    # noiseless area recovery within 1%
    for q_eff_i, t_i in ((10.0, 300.0), (25.0, 6.82e-3), (1e6, 1.0)):
        g = omega / q_eff_i
        f_lo = max(omega - 60 * g, 0.0)
        f = np.linspace(f_lo, omega + 60 * g, 4001) / (2 * np.pi)
        psd = cooling.psd_model(2 * np.pi * f, m, t_i, omega, g)
        rec = cooling.teff_from_area(PsdTrace(f, psd), m, omega)
        assert abs(rec / t_i - 1) < 0.01
    _report(8, f"noisy fit recovery {ok}/200 trials within 5% (needs >=190), "
               "noiseless area recovery within 1%")


def test_criterion_9_monte_carlo_vs_analytic(row1, row2):
    # (a) ground-state dwell time against the analytic total lifetime
    tau0 = qnd.jump_budget(row1).tau_total
    dwells = []
    for seed in range(10_000):
        traj = jumpsim.simulate_trajectory(row1, 10 * tau0, seed=100_000 + seed,
                                           include_measurement_channels=True)
        if len(traj.times):
            dwells.append(traj.times[0])
    dwells = np.array(dwells)
    assert len(dwells) >= 10_000 - 5  # censoring at 10 tau is ~e^-10
    mean_rel = abs(dwells.mean() / tau0 - 1)
    assert mean_rel < 0.05

    # (b) stationary occupation is Bose-Einstein (channels off, small bath)
    T_small = 2.0 * HBAR * row1.omega_m / K_B   # n_bar = 2 exactly
    small = with_value(with_value(row1, "T", T_small), "Q", 50.0)
    relax = small.Q / small.omega_m
    traj = jumpsim.simulate_trajectory(small, 2.0, seed=4242)
    states = traj.state_at(np.arange(50 * relax, 2.0, 10 * relax))
    counts = np.array([(states == k).sum() for k in range(10)]
                      + [(states >= 10).sum()])
    probs = bose_einstein_pmf(2.0, 10)
    _, pvalue = chisquare(counts, probs * counts.sum())
    assert pvalue > 0.01

    # (c) readout histogram level spacing at the second scenario
    budget = qnd.jump_budget(row2)
    dw_true = budget.delta_omega
    bw = budget.tau_total / 4
    n_bins = 8
    rate01 = 1 / budget.tau_lin
    rate02 = 1 / budget.tau_rwa
    G = birth_death_generator(row2, 40, include_measurement_channels=True,
                              rate01=rate01, rate02=rate02)
    p0 = np.zeros(41)
    p0[0] = 1.0
    prop = expm(G * bw)
    starts = [p0]
    for _ in range(1, n_bins):
        starts.append(prop @ starts[-1])
    alphas = np.linspace(0.0, 12.0, 481)
    chi_grid = bin_average_char_fn(G, starts, bw, alphas)

    sigma = math.sqrt(budget.s_omega / bw)
    samples = []
    for seed in range(12_000):
        traj = jumpsim.simulate_trajectory(row2, n_bins * bw, seed=700_000 + seed,
                                           include_measurement_channels=True)
        trace = jumpsim.binned_readout(traj, row2, bw, seed=900_000 + seed)
        samples.append(trace.freq_estimates)
    samples = np.concatenate(samples)

    ts = np.linspace(0.05 / sigma, 4.5 / sigma, 80)
    ecf = np.exp(1j * np.outer(ts, samples)).mean(axis=1)

    def chi_y(a):
        return (np.interp(a, alphas, chi_grid.real)
                + 1j * np.interp(a, alphas, chi_grid.imag))

    def objective(p):
        c0, d = p
        if d <= 0:
            return 1e12
        model = np.exp(1j * c0 * ts) * chi_y(d * ts) * np.exp(-0.5 * (sigma * ts) ** 2)
        return float(np.sum(np.abs(ecf - model) ** 2))

    res = minimize(objective, x0=(0.4 * dw_true, 1.3 * dw_true),
                   method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 4000})
    c0_fit, d_fit = res.x
    assert abs(d_fit / dw_true - 1) < 0.05
    # the comb sits at half-integer multiples of the spacing
    assert abs(c0_fit / d_fit - 0.5) < 0.05
    # the occupancy model itself is two-peaked: levels 0 and 1 both carry mass
    occupancy = np.mean(starts, axis=0)
    assert occupancy[0] > 0.1 and occupancy[1] > 0.1
    _report(9, f"dwell mean within {mean_rel*100:.2f}% of tau ({len(dwells)} visits), "
               f"Bose-Einstein chi-square p={pvalue:.3f}, "
               f"readout level spacing within {abs(d_fit/dw_true-1)*100:.2f}% "
               f"of the per-phonon shift")


def test_criterion_10_exclusions_documented():
    # instrument-data reproduction and external cooling theory are out of
    # scope: no API models how power or detuning set Q_eff, and membrane
    # optical loss is carried only as a recorded upper limit
    assert not hasattr(cooling, "cooled_q_eff")
    assert not hasattr(cooling, "sideband_cooling_power")
    assert isinstance(cavity.MEMBRANE_LOSS_UPPER_LIMIT, float)
    # the lossless optics cannot represent absorption
    r, t = slab_amplitudes(2.0, 50e-9, 1064e-9)
    assert abs(abs(r) ** 2 + abs(t) ** 2 - 1) < 1e-12
    _report(10, "excluded functionality absent by design; optics strictly lossless")
