import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import memcav
from memcav.params import ExperimentParams


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
