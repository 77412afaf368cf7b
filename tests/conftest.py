import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import memcav
from memcav.params import K_B, ExperimentParams


def run_python(*args):
    """Run a fresh interpreter that imports memcav from this checkout."""
    src = str(Path(memcav.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


@pytest.fixture(scope="session")
def row1() -> ExperimentParams:
    """Feasibility scenario with moderate finesse and reflectivity."""
    return ExperimentParams(
        L=0.067, lam=5.32e-7, F=3e5, P_in=1e-5, T=0.3,
        m=5e-14, omega_m=2 * np.pi * 1e5, Q=1.2e7, r_c=0.999, x0=5e-13,
    )


@pytest.fixture(scope="session")
def row2() -> ExperimentParams:
    """Higher-finesse, higher-reflectivity scenario at lower power."""
    return ExperimentParams(
        L=0.067, lam=5.32e-7, F=6e5, P_in=1e-6, T=0.3,
        m=5e-14, omega_m=2 * np.pi * 1e5, Q=1.2e7, r_c=0.9999, x0=5e-13,
    )


ROW1_CONFIG = """\
# feasibility scenario, SI units
L = 0.067
lambda = 5.32e-7
F = 3e5
P_in = 1e-5
T = 0.3
m = 5e-14
omega_m = 6.2831853071795865e5
Q = 1.2e7
r_c = 0.999
x0 = 5e-13
"""

ROW2_CONFIG = ROW1_CONFIG.replace("F = 3e5", "F = 6e5") \
                         .replace("P_in = 1e-5", "P_in = 1e-6") \
                         .replace("r_c = 0.999", "r_c = 0.9999")


@pytest.fixture()
def row1_config(tmp_path):
    path = tmp_path / "row1.cfg"
    path.write_text(ROW1_CONFIG)
    return path


@pytest.fixture()
def row2_config(tmp_path):
    path = tmp_path / "row2.cfg"
    path.write_text(ROW2_CONFIG)
    return path


def _write_columns(path, names, *columns):
    lines = [",".join(names)] + [",".join(repr(float(v)) for v in row) for row in zip(*columns)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture(scope="session")
def fit_inputs(tmp_path_factory):
    """ringdown.csv, mech.csv and psd.csv in one directory, and the PSD spur band."""
    d = tmp_path_factory.mktemp("fit_inputs")
    rng = np.random.default_rng(20070218)

    t = np.linspace(0.0, 6e-6, 200)
    power = 1.7 * np.exp(-t / 1.2e-6) + 0.2 + rng.normal(0.0, 1e-3, t.size)
    _write_columns(d / "ringdown.csv", ["t_s", "power"], t, power)

    # amplitude envelope without offset, 0.1 % multiplicative noise
    t = np.linspace(0.0, 10.0, 300)
    amplitude = 0.8 * np.exp(-t / 2.6) * (1.0 + rng.normal(0.0, 1e-3, t.size))
    _write_columns(d / "mech.csv", ["t_s", "amplitude"], t, amplitude)

    # thermally driven oscillator (m = 4e-11 kg, Q_eff = 300, T_eff = 6.82 mK),
    # 1 % noise and a five-sample spur on the upper flank
    m, t_eff, omega0 = 4e-11, 6.82e-3, 8.42e5
    gamma = omega0 / 300.0
    omega = np.linspace(omega0 - 60 * gamma, omega0 + 60 * gamma, 1001)
    psd = (4.0 * K_B * t_eff * gamma / m) / ((omega0**2 - omega**2) ** 2 + (gamma * omega) ** 2)
    psd = psd * (1.0 + rng.normal(0.0, 0.01, omega.size)) + 1e-36
    spur = 790
    psd[spur - 2: spur + 3] *= 30.0
    freq = omega / (2 * np.pi)
    _write_columns(d / "psd.csv", ["freq_hz", "psd_m2_per_hz"], freq, psd)
    step = freq[1] - freq[0]
    return d, f"{float(freq[spur] - 4 * step)!r}:{float(freq[spur] + 4 * step)!r}"
