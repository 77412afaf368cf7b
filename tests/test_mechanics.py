import math

import numpy as np
import pytest

from memcav import mechanics
from memcav.errors import FitError, SingularityError, ValidationError
from memcav.params import HBAR


OMEGA_134K = 2 * np.pi * 1.34e5


def test_zero_point_amplitude_values():
    assert math.isclose(mechanics.zero_point_amplitude(5e-14, 6.2832e5),
                        4.10e-14, rel_tol=1e-3)
    assert math.isclose(mechanics.zero_point_amplitude(4e-11, OMEGA_134K),
                        1.251e-15, rel_tol=1e-3)


def test_zero_point_amplitude_mass_scaling():
    x1 = mechanics.zero_point_amplitude(1e-13, 1e6)
    x4 = mechanics.zero_point_amplitude(4e-13, 1e6)
    assert math.isclose(x4, x1 / 2, rel_tol=1e-14)


def test_zero_point_identity():
    m, om = 5e-14, 6.2832e5
    xm = mechanics.zero_point_amplitude(m, om)
    assert math.isclose(xm**2 * 2 * m * om, HBAR, rel_tol=1e-14)


def test_thermal_occupation_values():
    assert mechanics.thermal_occupation(0.0, 6.2832e5) == 0.0
    assert math.isclose(mechanics.thermal_occupation(0.3, 6.2832e5), 6.25e4, rel_tol=2e-3)
    n = mechanics.thermal_occupation(1e-3, OMEGA_134K)
    assert math.isclose(n, 155.5, rel_tol=1e-2)


def test_thermal_occupation_underflow_raises():
    with pytest.raises(SingularityError, match="underflowed"):
        mechanics.thermal_occupation(0.3, 1e-300)


@pytest.mark.parametrize("function", [mechanics.zero_point_amplitude,
                                      mechanics.thermal_occupation])
@pytest.mark.parametrize("args", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan),
                                  (1.0, math.inf)], ids=["nan-1", "inf-1", "1-nan", "1-inf"])
def test_checked_functions_reject_non_finite(function, args):
    """A NaN or infinite argument raises ValidationError, not a NaN, inf or 0 result."""
    with pytest.raises(ValidationError, match="finite"):
        function(*args)


def test_thermal_occupation_linear_in_t():
    n1 = mechanics.thermal_occupation(0.3, 6.2832e5)
    n2 = mechanics.thermal_occupation(0.6, 6.2832e5)
    assert math.isclose(n2, 2 * n1, rel_tol=1e-12)


def test_classical_bath_flag():
    assert mechanics.is_classical_bath(6.25e4)
    assert not mechanics.is_classical_bath(5.0)


def test_spring_constant_values():
    assert math.isclose(mechanics.spring_constant(4e-11, OMEGA_134K), 28.35, rel_tol=1e-3)
    assert math.isclose(mechanics.spring_constant(5e-14, 6.2832e5), 1.974e-2, rel_tol=1e-3)


def test_spring_constant_frequency_scaling():
    k1 = mechanics.spring_constant(1e-12, 1e5)
    k2 = mechanics.spring_constant(1e-12, 2e5)
    assert math.isclose(k2, 4 * k1, rel_tol=1e-14)


def test_spring_times_zero_point_identity():
    m, om = 4e-11, OMEGA_134K
    k = mechanics.spring_constant(m, om)
    xm = mechanics.zero_point_amplitude(m, om)
    assert math.isclose(k * xm**2, HBAR * om / 2, rel_tol=1e-14)


def test_q_from_ringdown():
    q = mechanics.q_from_ringdown(2.67, OMEGA_134K)
    assert math.isclose(q, 1.124e6, rel_tol=1e-3)


def test_q_from_ringdown_unit_case():
    om = 6.2832e5
    assert math.isclose(mechanics.q_from_ringdown(2.0 / om, om), 1.0, rel_tol=1e-14)


def test_q_tau_roundtrip():
    om = OMEGA_134K
    q = 1.1e6
    tau = mechanics.ringdown_time_from_q(q, om)
    assert math.isclose(mechanics.q_from_ringdown(tau, om), q, rel_tol=1e-12)


def test_fit_mech_ringdown_exact():
    tau = 2.67
    t = np.linspace(0, 10, 300)
    amp = 0.8 * np.exp(-t / tau)
    assert math.isclose(mechanics.fit_mech_ringdown(t, amp), tau, rel_tol=1e-9)


def test_fit_mech_ringdown_noise():
    tau = 2.67
    t = np.linspace(0, 6 * tau, 400)
    for seed in range(100):
        rng = np.random.default_rng(10_000 + seed)
        amp = np.exp(-t / tau) + rng.normal(0, 0.01, len(t))
        fitted = mechanics.fit_mech_ringdown(t, amp)
        assert abs(fitted / tau - 1) < 0.02


def test_fit_mech_ringdown_constant_errors():
    t = np.linspace(0, 1, 60)
    with pytest.raises(FitError):
        mechanics.fit_mech_ringdown(t, np.ones_like(t))
