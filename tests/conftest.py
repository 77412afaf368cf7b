import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import memcav
from memcav.params import K_B, ExperimentParams


def run_python(*args, stdout=subprocess.PIPE):
    """Run a fresh interpreter that imports memcav from this checkout.

    PYTHONUNBUFFERED is unset, so the child's stdout is buffered, as it is
    by default for a file or a pipe, and reaches `stdout` only when flushed.
    """
    src = str(Path(memcav.__file__).resolve().parents[1])
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=120)


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


# ---------------------------------------------------------------------------
# the README's commands and the sha256 of their outputs, pinned by
# test_outputs.py and run in one fresh process by test_cli.py
# ---------------------------------------------------------------------------

_COOL_ALL = ["--mass", "4e-11", "--omega-m", "8.42e5", "--t-bath", "294", "--q-intrinsic", "1.1e6"]

# (command and flags, sha256 of the JSON with the version blanked)
FIT_PINS = [
    (["ringdown-fit", "-i", "ringdown.csv"],
     "96d7bb3d70c16a2a3658c0699f8c766cc95b3b3eb90041eb9be95db66adb7cda"),
    (["ringdown-fit", "-i", "ringdown.csv", "--length", "0.067"],
     "588ce49e40b2f5b1c1e1ae0a56467e953347f5ee04c4d8a8fcf2fb9fe5149258"),
    (["mech-ringdown-fit", "-i", "mech.csv"],
     "f28467e096cec178d35abe64b8b02f95fb83c77373bc9a4f25aad74ecd60efb5"),
    (["mech-ringdown-fit", "-i", "mech.csv", "--omega-m", "8.42e5"],
     "8b83b78b2afc13785d882a28c22289823089509a82370c50740afb8e23d65ab1"),
    (["cool-fit", "-i", "psd.csv"],
     "59bc132f292878d2b9508f285824774288ff9b439915b137e4b1f751b655fb52"),
    (["cool-fit", "-i", "psd.csv", "--mass", "4e-11"],
     "55837ac5d938bcf63b98fe7b8e1ad8f567f99ab72ccc7402dff56800fa92ef39"),
    (["cool-fit", "-i", "psd.csv", *_COOL_ALL],
     "f53835bd001a93dd357460c73f5cc8f0d4b4db65c067278f2f1e94d7fe3979e8"),
    (["cool-fit", "-i", "psd.csv", *_COOL_ALL, "--exclude=SPUR"],
     "07c29960bd064b9b34e39e7129c9580ab167a254efe7bb8137843363672efe69"),
]


def fit_argv(argv, fit_inputs) -> list[str]:
    """A FIT_PINS command on the files of the fit_inputs fixture (no output flag)."""
    d, spur_band = fit_inputs
    return [str(d / a) if a.endswith(".csv") else a.replace("SPUR", spur_band) for a in argv]


# the README's scenario config, verbatim
README_CONFIG = """\
# jump-feasibility scenario, SI units
L = 0.067          # cavity length [m]
lambda = 5.32e-7   # laser wavelength [m]
F = 3e5            # finesse
P_in = 1e-5        # incident power [W]
T = 0.3            # bath temperature [K]
m = 5e-14          # motional mass [kg]
omega_m = 6.2832e5 # mechanical frequency [rad/s]
Q = 1.2e7          # mechanical quality factor
r_c = 0.999        # membrane field reflectivity
x0 = 5e-13         # residual offset from the detuning extremum [m]
"""

_MAP = ["--det-min=-1e9", "--det-max=1e9"]
_MAP_OPTICS = ["--finesse", "200", "--length", "1.0", "--wavelength", "5.32e-7", *_MAP]
_JUMP = ["--config", "scenario.cfg", "--seed", "42"]

# (id, command and flags, {output file: sha256 with the version blanked})
README_PINS = [
    ("qnd-budget", ["qnd-budget", "--config", "scenario.cfg", "-o", "budget.json"],
     {"budget.json":
         "8a8fe189cd24c8cd7bc7763b75c4eb890ad8d99e391037807b21b09447ef0c48"}),
    ("bandstructure", ["bandstructure", "--rc", "0.31", "--length", "0.067",
                       "--wavelength", "5.32e-7", "-o", "bands.csv"],
     {"bands.csv":
         "62e0eb4b9edd88ce61fc1b732d8418b982304c08f3b981dc1d6dcfb39ec90fc6"}),
    ("transmission-map sheet", ["transmission-map", "--rc", "0.31", *_MAP_OPTICS, "-o", "map.csv"],
     {"map.csv":
         "b0400062c36abc3fa51fd8abded9556ea2c4c2081370da814e41e997b2fe0862"}),
    ("transmission-map membrane", ["transmission-map", *_MAP_OPTICS, "--membrane-index", "2.0",
                                   "--membrane-thickness", "5e-8", "-o", "map.csv"],
     {"map.csv":
         "f4542a12d6d620434bfca5a99eff7f085f5a10a2e34f4481bef1e1ff0835e5fb"}),
    ("transmission-map config", ["transmission-map", "--config", "scenario.cfg", *_MAP,
                                 "-o", "map.csv"],
     {"map.csv":
         "2f6868376c3aef1c28fc2927168fa7b4272204e516ad8902c1b47861a7dd315e"}),
    ("jump-sim", ["jump-sim", *_JUMP, "--duration", "0.01", "--channels",
                  "--readout", "readout.csv", "--bin-width", "7e-5", "-o", "trajectory.csv"],
     {"trajectory.csv":
         "78ac370c9155ed7ff26bf87d12385e77a981d7b757c2817b1c64eae618ae26c3",
      "readout.csv":
         "84b1c49f00f02307c7f606816304318fbef87351b917a3a32605331a98340700"}),
    ("jump-stats", ["jump-stats", *_JUMP, "--duration", "0.002", "--bin-width", "1e-4",
                    "--threshold", "0.12", "-o", "stats.json"],
     {"stats.json":
         "86b3aaa6e69edab603c7b4a502ddb53930924262f8d8ce91d6c67b7c527b93ed"}),
    ("sweep", ["sweep", "--config", "scenario.cfg", "--axis", "F:3e5:6e5:2:log",
               "--axis", "P_in:1e-6:1e-5:2:log", "--best", "best.json", "-o", "sweep.csv"],
     {"sweep.csv":
         "3bddfb156837c185336f8848ef9d3f374057dd01189a7cb1a7cd8ddb9b10807a",
      "best.json":
         "b85bde4816ef606d28ab3912c06474981cb9726640855edb2130667925750088"}),
    # 9,261 rows, more than one write_csv batch; 3,087 points fail at x0 >= lambda/8
    ("sweep multi-batch", ["sweep", "--config", "scenario.cfg", "--axis", "F:1e4:1e6:21:log",
                           "--axis", "P_in:1e-8:1e-3:21:log", "--axis", "x0:0:1e-7:21",
                           "-o", "sweep.csv"],
     {"sweep.csv":
         "ed46a229dec0b70849ce14af178aca65f4a098f257c730fc11e3c44117f10385"}),
]


def blanked_digest(path) -> str:
    """sha256 of a JSON or CSV output whose version string, found once, is blanked."""
    text = path.read_text(encoding="utf-8")
    for version, blank in ((f'"version": "{memcav.__version__}"', '"version": ""'),
                           (f"# version = {memcav.__version__}\n", "# version = \n")):
        if version in text:
            assert text.count(version) == 1
            return hashlib.sha256(text.replace(version, blank).encode("utf-8")).hexdigest()
    raise AssertionError(f"{path.name} holds no version string")


def readme_argv(argv, directory) -> list[str]:
    """argv of a command on the README's scenario.cfg, its files put in `directory`.

    Writes README_CONFIG there as scenario.cfg; each .cfg, .csv or .json
    name becomes a path in `directory`.
    """
    (directory / "scenario.cfg").write_text(README_CONFIG, encoding="utf-8")
    return [str(directory / a) if a.endswith((".cfg", ".csv", ".json")) else a for a in argv]
