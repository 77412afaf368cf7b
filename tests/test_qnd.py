import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import quad

from memcav import cavity, cooling, mechanics, qnd, sweep
from memcav.errors import MemcavError, SingularityError, ValidationError
from memcav.params import C_LIGHT, HBAR, ExperimentParams, validate, with_value
from memcav.sweep import SweepAxis
from oracles import (budget_by_formulas, consistency_ratios, linear_rate_golden_rule, photon_psd,
                     rwa_rate_golden_rule, snr_general_n, thermal_lifetime_n)


# ---------------------------------------------------------------------------
# per-phonon shift
# ---------------------------------------------------------------------------

def test_detuning_per_phonon_values(row1, row2):
    assert math.isclose(qnd.detuning_per_phonon(row1), 9.37e-2, rel_tol=1e-3)
    assert math.isclose(qnd.detuning_per_phonon(row2), 2.963e-1, rel_tol=1e-3)


def test_detuning_per_phonon_reflectivity_scaling(row1, row2):
    # (1 - r_c)^(-1/2): row2 has ten times smaller 1-r_c
    ratio = qnd.detuning_per_phonon(row2) / qnd.detuning_per_phonon(row1)
    assert math.isclose(ratio, math.sqrt(10.0), rel_tol=1e-12)


def test_detuning_per_phonon_mass_scaling(row1):
    doubled = with_value(row1, "m", 2 * row1.m)
    assert math.isclose(qnd.detuning_per_phonon(doubled),
                        qnd.detuning_per_phonon(row1) / 2, rel_tol=1e-12)


def test_detuning_per_phonon_dual_forms(row1):
    # the zero-point-amplitude route and the direct hbar / (m omega_m) form
    dw = qnd.detuning_per_phonon(row1)
    x_m = mechanics.zero_point_amplitude(row1.m, row1.omega_m)
    via_xm = 16 * np.pi**2 * C_LIGHT * x_m**2 / (
        row1.L * row1.lam**2 * math.sqrt(2 * (1 - row1.r_c)))
    direct = 8 * np.pi**2 * C_LIGHT * HBAR / (
        row1.L * row1.lam**2 * math.sqrt(2 * (1 - row1.r_c)) * row1.m * row1.omega_m)
    assert math.isclose(dw, via_xm, rel_tol=1e-12)
    assert math.isclose(dw, direct, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# readout noise
# ---------------------------------------------------------------------------

def test_pdh_noise_values(row1):
    noise = qnd.pdh_noise_psd(row1)
    assert math.isclose(noise.s_omega, 2.562e-6, rel_tol=1e-3)
    assert math.isclose(noise.kappa, 4.686e4, rel_tol=1e-3)
    assert math.isclose(noise.n_bar_photons, 1.143e9, rel_tol=1e-3)


def test_pdh_noise_identity(row1, row2):
    for p in (row1, row2):
        noise = qnd.pdh_noise_psd(p)
        assert math.isclose(noise.s_omega, noise.kappa / (16 * noise.n_bar_photons),
                            rel_tol=1e-12)


def test_pdh_noise_scalings(row1):
    base = qnd.pdh_noise_psd(row1).s_omega
    half_f = qnd.pdh_noise_psd(with_value(row1, "F", row1.F / 2)).s_omega
    assert math.isclose(half_f, 4 * base, rel_tol=1e-12)
    double_p = qnd.pdh_noise_psd(with_value(row1, "P_in", 2 * row1.P_in)).s_omega
    assert math.isclose(double_p, base / 2, rel_tol=1e-12)


def test_photon_psd_peak(row1):
    noise = qnd.pdh_noise_psd(row1)
    detuning = 1e4
    peak = photon_psd(-detuning, detuning, noise.kappa, noise.n_bar_photons)
    assert math.isclose(peak, 4 * noise.n_bar_photons / noise.kappa, rel_tol=1e-12)


def test_photon_psd_at_twice_mechanical_frequency(row1):
    noise = qnd.pdh_noise_psd(row1)
    val = photon_psd(-2 * row1.omega_m, 0.0, noise.kappa, noise.n_bar_photons)
    direct = noise.n_bar_photons * noise.kappa / (4 * row1.omega_m**2 + noise.kappa**2 / 4)
    assert math.isclose(val, direct, rel_tol=1e-14)


def test_photon_psd_total_area(row1):
    noise = qnd.pdh_noise_psd(row1)
    f = lambda w: photon_psd(w, 0.0, noise.kappa, noise.n_bar_photons)
    area = 0.0
    cuts = [-np.inf, -10 * noise.kappa, 10 * noise.kappa, np.inf]
    for a, b in zip(cuts, cuts[1:]):
        area += quad(f, a, b, limit=400)[0]
    assert math.isclose(area / (2 * np.pi), noise.n_bar_photons, rel_tol=1e-4)


# ---------------------------------------------------------------------------
# lifetimes
# ---------------------------------------------------------------------------

def test_thermal_lifetime_ground_state(row1):
    tau = qnd.thermal_lifetime(row1)
    assert math.isclose(tau, 3.055e-4, rel_tol=1e-3)
    # closed form equals the general-n formula at n=0
    n_bar = mechanics.thermal_occupation(row1.T, row1.omega_m)
    assert math.isclose(tau, row1.Q / (row1.omega_m * n_bar), rel_tol=1e-12)


def test_thermal_lifetime_first_excited(row1):
    # out-rate n_bar (2n+1) + n: at n=1 that is 3 n_bar + 1
    tau0 = qnd.thermal_lifetime(row1)
    tau1 = thermal_lifetime_n(1, row1)
    assert abs(tau0 / tau1 - 3.0) < 1e-4


def test_thermal_lifetime_temperature_scaling(row1):
    tau = qnd.thermal_lifetime(row1)
    tau_hot = qnd.thermal_lifetime(with_value(row1, "T", 2 * row1.T))
    assert math.isclose(tau_hot, tau / 2, rel_tol=1e-12)


def test_rwa_lifetime_value_and_route(row1, row2):
    assert math.isclose(qnd.rwa_lifetime(row1), 6.72, rel_tol=1e-2)
    for p in (row1, row2):
        closed = qnd.rwa_lifetime(p)
        golden = 1.0 / rwa_rate_golden_rule(p)
        assert math.isclose(closed, golden, rel_tol=1e-9)


def test_rwa_lifetime_scalings(row1):
    base = qnd.rwa_lifetime(row1)
    assert math.isclose(qnd.rwa_lifetime(with_value(row1, "P_in", 2 * row1.P_in)),
                        base / 2, rel_tol=1e-12)
    closer = with_value(row1, "r_c", 1 - (1 - row1.r_c) / 10)
    assert math.isclose(qnd.rwa_lifetime(closer), base / 10, rel_tol=1e-12)


def test_linear_lifetime_value_and_route(row1, row2):
    assert math.isclose(qnd.linear_lifetime(row1), 5.644e-3, rel_tol=1e-3)
    for p in (row1, row2):
        closed = qnd.linear_lifetime(p)
        golden = 1.0 / linear_rate_golden_rule(p)
        assert math.isclose(closed, golden, rel_tol=1e-9)


def test_linear_lifetime_offset_scaling(row1):
    base = qnd.linear_lifetime(row1)
    quad_x0 = qnd.linear_lifetime(with_value(row1, "x0", 4 * row1.x0))
    assert math.isclose(quad_x0, base / 16, rel_tol=1e-12)


def test_linear_lifetime_zero_offset(row1):
    centered = with_value(row1, "x0", 0.0)
    assert math.isinf(qnd.linear_lifetime(centered))
    assert linear_rate_golden_rule(centered) == 0.0


# ---------------------------------------------------------------------------
# assembled budget
# ---------------------------------------------------------------------------

def test_jump_budget_row1(row1):
    b = qnd.jump_budget(row1)
    assert math.isclose(b.tau_total, 2.898e-4, rel_tol=1e-3)
    assert math.isclose(b.snr, 0.993, rel_tol=1e-3)
    assert b.flags.all_ok()
    assert b.tau_total * row1.omega_m > 180


def test_jump_budget_row2(row2):
    b = qnd.jump_budget(row2)
    assert math.isclose(b.snr, 3.972, rel_tol=1e-3)
    assert b.flags.all_ok()


def test_jump_budget_harmonic_bound(row1):
    b = qnd.jump_budget(row1)
    assert b.tau_total <= min(b.tau_thermal, b.tau_rwa, b.tau_lin)
    rate = 1 / b.tau_thermal + 1 / b.tau_rwa + 1 / b.tau_lin
    assert math.isclose(b.tau_total, 1 / rate, rel_tol=1e-12)


def test_jump_budget_zero_offset_channel_omitted(row1):
    b = qnd.jump_budget(with_value(row1, "x0", 0.0))
    assert math.isinf(b.tau_lin)
    assert qnd.budget_report(with_value(row1, "x0", 0.0))["tau_lin_s"] is None
    rate = 1 / b.tau_thermal + 1 / b.tau_rwa
    assert math.isclose(b.tau_total, 1 / rate, rel_tol=1e-12)


@pytest.mark.parametrize("changes", [
    {"omega_m": 1e-200},              # a lifetime underflows to 0
    {"omega_m": 1e200},               # a power overflows
    {"omega_m": 1e-300},              # hbar omega_m underflows in the thermal occupation
    {"x0": 0.0, "P_in": 1e300},       # the photon number is infinite
])
def test_jump_budget_outside_float_range_raises(row1, changes):
    p = row1
    for name, value in changes.items():
        p = with_value(p, name, value)
    with pytest.raises(SingularityError) as info:
        qnd.jump_budget(p)
    assert str(info.value) == "jump budget left the float range"


def test_jump_budget_rejects_invalid(row1):
    with pytest.raises(ValidationError):
        qnd.jump_budget(with_value(row1, "T", -1.0))


_ROW1 = dict(L=0.067, lam=5.32e-7, F=3e5, P_in=1e-5, T=0.3, m=5e-14,
             omega_m=6.2831853071795865e5, Q=1.2e7, r_c=0.999, x0=5e-13)


def _near(typical):
    return st.floats(min_value=typical / 100, max_value=typical * 100)


def _finite(typical):
    """Finite floats: rescaled by up to 1e+-300, arbitrary, or special."""
    return st.one_of(
        st.integers(-300, 300).map(lambda e: typical * 10.0**e),
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([0.0, -0.0, 5e-324, 1.0 - 2.0**-53]),
    ).filter(math.isfinite)


@st.composite
def _params(draw):
    # most fields within a factor 100 of the scenario's, so that most draws get a budget
    wild = draw(st.sets(st.sampled_from(sorted(_ROW1)), max_size=3))
    return ExperimentParams(**{name: draw(_finite(v) if name in wild else _near(v))
                               for name, v in _ROW1.items()})


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(_params())
def test_jump_budget_finite_or_memcav_error(p):
    try:
        b = qnd.jump_budget(p)
    except MemcavError:
        return
    numbers = b._asdict()
    del numbers["flags"]
    if p.x0 == 0.0:
        assert numbers.pop("tau_lin") == math.inf
    assert all(map(math.isfinite, numbers.values())), numbers
    assert b.tau_total > 0.0


_FORMULAS = (qnd.detuning_per_phonon, qnd.pdh_noise_psd, qnd.thermal_lifetime,
             qnd.rwa_lifetime, qnd.linear_lifetime, cooling.shot_thermal_ratio)


def _row1_with(name, value):
    return ExperimentParams(**{**_ROW1, name: value})


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_params().filter(lambda p: validate(p) == []))
# valid parameters on which a step of a formula leaves the float range
@example(_row1_with("L", 1e300))
@example(_row1_with("lam", 1e300))
@example(_row1_with("omega_m", 1e300))
@example(_row1_with("P_in", 1e-320))
@example(_row1_with("m", 1e300))
@example(_row1_with("x0", 1e-170))
@example(_row1_with("T", 1e-320))
@example(_row1_with("m", 1e-320))
@example(_row1_with("omega_m", 1e-300))
@example(_row1_with("F", 1e300))
# valid parameters on which a result, not a step, leaves the float range
@example(_row1_with("omega_m", 1e150))
@example(_row1_with("m", 1e-300))
@example(_row1_with("P_in", 1e300))
def test_formulas_give_floats_or_memcav_error(p):
    """Each formula gives positive finite floats or raises; only x0 = 0's tau_lin is inf."""
    assert validate(p) == []
    for formula in _FORMULAS:
        try:
            out = formula(p)
        except MemcavError:
            continue
        if formula is qnd.linear_lifetime and p.x0 == 0.0:
            assert out == math.inf
            continue
        assert all(isinstance(v, float) and 0.0 < v < math.inf
                   for v in (out if isinstance(out, tuple) else (out,))), (formula.__name__, out)


# (formula, input, what its error names); "step" where an operation raises on the
# way, "result" where only the result leaves the float range
@pytest.mark.parametrize("formula, arg, what", [
    (qnd.detuning_per_phonon, _row1_with("lam", 1e200), "per-phonon detuning"),       # step
    (qnd.detuning_per_phonon, _row1_with("m", 1e300), "per-phonon detuning"),         # result
    (qnd.pdh_noise_psd, _row1_with("L", 1e300), "readout noise floor"),               # step
    (qnd.pdh_noise_psd, _row1_with("P_in", 1e300), "readout noise floor"),            # result
    (qnd.thermal_lifetime, _row1_with("T", 1e-320), "thermal lifetime"),              # step
    (qnd.thermal_lifetime, ExperimentParams(**{**_ROW1, "Q": 1e300, "T": 1e-30}),
     "thermal lifetime"),                                                             # result
    (qnd.rwa_lifetime, _row1_with("L", 1e300), "counter-rotating lifetime"),          # step
    (qnd.rwa_lifetime, _row1_with("omega_m", 1e150), "counter-rotating lifetime"),    # result
    (qnd.linear_lifetime, _row1_with("L", 1e300), "linear-coupling lifetime"),        # step
    (qnd.linear_lifetime, _row1_with("omega_m", 1e150), "linear-coupling lifetime"),  # result
    (cooling.shot_thermal_ratio, _row1_with("F", 1e200), "shot/thermal noise ratio"),  # step
    (cooling.shot_thermal_ratio, _row1_with("T", 1e-320), "shot/thermal noise ratio"),  # step
    (cooling.shot_thermal_ratio, _row1_with("P_in", 1e300), "shot/thermal noise ratio"),  # result
    (lambda L_lam: cavity.detuning_derivatives(0.0, 0.5, *L_lam), (1e300, 1e-300),
     "omega2"),                                                                       # step
    (lambda L_lam: cavity.detuning_derivatives(0.0, 0.5, *L_lam), (1e-290, 1e-10),
     "omega2"),                                                                       # result
])
def test_formula_names_what_left_the_float_range(formula, arg, what):
    with pytest.raises(SingularityError) as info:
        formula(arg)
    assert str(info.value) == f"{what} left the float range"


@pytest.mark.parametrize("r_c", [1.0, 1.5])
@pytest.mark.parametrize("x0", [5e-13, 0.0])
@pytest.mark.parametrize("formula", [qnd.detuning_per_phonon, qnd.rwa_lifetime,
                                     qnd.linear_lifetime])
def test_near_unity_forms_reject_rc_at_or_above_one(formula, r_c, x0):
    """Unvalidated parameters with 1 - r_c <= 0 raise SingularityError, not a bare
    ValueError from the square root, and not an infinite tau_lin at x0 = 0."""
    p = ExperimentParams(**{**_ROW1, "r_c": r_c, "x0": x0})
    with pytest.raises(SingularityError) as info:
        formula(p)
    assert str(info.value) == "1 - r_c is not positive in a near-unity-reflectivity form"


def _bits(values):
    return [(type(v), np.asarray(v).tobytes()) for v in values]


def _outcome(budget, p):
    """budget(p) bit by bit, or the type of the error that it raises, or that the
    float-range rule raises for its budget."""
    try:
        b = budget(p)
    except MemcavError as exc:
        return type(exc)
    if qnd._left_float_range(b, p.x0):
        return SingularityError
    return _bits((*b[:-1], *b.flags))


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(_params().filter(lambda p: validate(p) == []))
# valid parameters on which a step or a result leaves the float range, as above
@example(_row1_with("L", 1e300))
@example(_row1_with("lam", 1e300))
@example(_row1_with("omega_m", 1e300))
@example(_row1_with("P_in", 1e-320))
@example(_row1_with("m", 1e300))
@example(_row1_with("x0", 1e-170))
@example(_row1_with("T", 1e-320))
@example(_row1_with("m", 1e-320))
@example(_row1_with("omega_m", 1e-300))
@example(_row1_with("F", 1e300))
@example(_row1_with("omega_m", 1e150))
@example(_row1_with("m", 1e-300))
@example(_row1_with("P_in", 1e300))
@example(_row1_with("x0", 0.0))
@example(_row1_with("r_c", 1.0 - 2.0**-53))
# the photon number underflows to 0 while every other number stays finite
@example(ExperimentParams(**{**_ROW1, "L": 1e50, "F": 1e50, "lam": 1e-100, "P_in": 1e-250,
                             "x0": 0.0}))
def test_budget_equals_formula_composition(p):
    """The budget that derives x_m^2, 1 - r_c and kappa once gives the bits of the
    five public formulas composed, or fails where they fail, with the same error."""
    assert _outcome(qnd._budget, p) == _outcome(budget_by_formulas, p)


@st.composite
def _grids(draw):
    """A drawn base swept along 1-3 SweepAxis, laid out as sweep.grid_sweep lays a grid."""
    base = draw(_params())
    names = draw(st.lists(st.sampled_from(sorted(_ROW1)), min_size=1, max_size=3, unique=True))
    ones = (1,) * len(names)
    fields = {name: np.full(ones, value) for name, value in vars(base).items()}
    for k, name in enumerate(names):
        lo, hi = sorted(draw(st.lists(_finite(_ROW1[name]), min_size=2, max_size=2)))
        assume(lo < hi and math.isfinite(hi - lo))
        scale = draw(st.sampled_from(["linear", "log"])) if lo > 0.0 else "linear"
        axis = SweepAxis(name, lo, hi, draw(st.integers(2, 4)), scale)
        with np.errstate(all="ignore"):   # samples of ends near the float range may overflow
            values = axis.values()
        fields[name] = values.reshape(ones[:k] + (-1,) + ones[k + 1:])
    return SimpleNamespace(**fields)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_grids())
def test_grid_budget_equals_formula_composition(grid):
    """At each valid point of a grid, budget_grid gives the bits of the five public
    formulas composed on the point's floats, and fails the float-range rule where
    they fail."""
    b = sweep.budget_grid(grid)
    shape = np.broadcast_shapes(*(v.shape for v in vars(grid).values()))
    fields = {name: np.broadcast_to(v, shape).ravel().tolist() for name, v in vars(grid).items()}
    for i, values in enumerate(zip(*fields.values())):
        p = ExperimentParams(**dict(zip(fields, values)))
        if validate(p):
            continue
        if b.failed[i]:
            assert b.errors[i] == "jump budget left the float range"
            at_point = SingularityError
        else:
            at_point = _bits([column[i].item() for column in (*b.values[:-1], *b.values.flags)])
        assert at_point == _outcome(budget_by_formulas, p)


def test_snr_nearly_linear_in_power_when_thermal_dominated(row1):
    # thermal channel carries ~95% of the decay rate here
    b1 = qnd.jump_budget(row1)
    b2 = qnd.jump_budget(with_value(row1, "P_in", 2 * row1.P_in))
    nonthermal = 1 - b1.tau_total / b1.tau_thermal
    assert abs(b2.snr / b1.snr - 2) / 2 <= nonthermal * 1.05


def test_budget_report_deterministic_order(row1):
    rep1 = qnd.budget_report(row1)
    rep2 = qnd.budget_report(row1)
    assert list(rep1) == list(rep2)
    assert list(rep1) == [
        "params", "delta_omega_rad_s", "kappa_rad_s", "n_bar_photons", "s_omega_rad2_s",
        "tau_thermal_s", "tau_rwa_s", "tau_lin_s", "tau_total_s", "snr", "gap_rad_s",
        "n_bar_thermal", "flags"]
    assert list(rep1["flags"]) == ["qnd_time_ok", "gap_ok", "classical_bath_ok", "good_cavity"]
    assert rep1["snr"] == rep2["snr"]


# ---------------------------------------------------------------------------
# general-n SNR
# ---------------------------------------------------------------------------

def test_snr_general_n_matches_thermal_only_budget(row1):
    # with the two-phonon and linear channels switched off, the budget SNR
    # reduces to the general-n estimator at n = 0
    b = qnd.jump_budget(row1)
    thermal_only_snr = b.delta_omega**2 * b.tau_thermal / b.s_omega
    assert math.isclose(snr_general_n(0, row1), thermal_only_snr, rel_tol=1e-12)


def test_snr_general_n_first_excited(row1):
    assert math.isclose(snr_general_n(1, row1),
                        snr_general_n(0, row1) / 3, rel_tol=1e-4)


def test_snr_general_n_monotone(row1):
    vals = [snr_general_n(n, row1) for n in range(6)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# consistency ratios
# ---------------------------------------------------------------------------

def test_consistency_ratios_row1(row1):
    rep = consistency_ratios(row1)
    assert math.isclose(rep.lhs_rwa, 8.40e-4, rel_tol=1e-2)
    assert rep.lhs_rwa < 1.0  # linear channel much faster than two-phonon
    assert rep.residual_lin < 0.01
    assert rep.residual_rwa < 0.01


def test_consistency_ratios_zero_offset(row1):
    rep = consistency_ratios(with_value(row1, "x0", 0.0))
    assert rep.lhs_lin is None and rep.residual_rwa is None


def test_consistency_residuals_shrink_quadratically(row1):
    # sweep kappa/omega_m by adjusting the finesse
    targets = [0.3, 0.1, 0.03, 0.01]
    residuals = []
    for ratio in targets:
        F = np.pi * C_LIGHT / (row1.L * ratio * row1.omega_m)
        rep = consistency_ratios(with_value(row1, "F", F))
        residuals.append((rep.residual_lin, rep.residual_rwa))
    for i in range(len(targets) - 1):
        scale = (targets[i + 1] / targets[i]) ** 2
        for k in range(2):
            measured = residuals[i + 1][k] / residuals[i][k]
            assert abs(measured / scale - 1) < 0.2
    # and both residuals are < 1% once kappa/omega_m <= 0.075
    rep075 = consistency_ratios(row1)
    assert rep075.residual_lin < 0.01 and rep075.residual_rwa < 0.01
