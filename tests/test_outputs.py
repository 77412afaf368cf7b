"""Output contract: the sha256 of each fit command's JSON on generated inputs.

The inputs come from one fixed seed and are written with repr floats, as
the bench writes its own.  The version string in the metadata is blanked
before hashing, so a version bump alone moves no pin.  A change that alters
any of these bytes updates its row and says why in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

import memcav
from memcav.cli import run
from memcav.params import K_B


def _write_columns(path, names, *columns):
    lines = [",".join(names)] + [",".join(repr(float(v)) for v in row) for row in zip(*columns)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
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


_COOL_ALL = ["--mass", "4e-11", "--omega-m", "8.42e5", "--t-bath", "294", "--q-intrinsic", "1.1e6"]

# (command and flags, sha256 of the JSON with the version blanked)
FIT_PINS = [
    (["ringdown-fit", "-i", "ringdown.csv"],
     "dbc5c586d2771e3e5bf1c5ab9a696882da37050583fc9726606e8a944d6581c2"),
    (["ringdown-fit", "-i", "ringdown.csv", "--length", "0.067"],
     "45c86dd5834fa1bd17262c53830c14ada46ee21baaef945e2966ca66814d9ff1"),
    (["mech-ringdown-fit", "-i", "mech.csv"],
     "f0f357c6dedabb102f0946e123a2b19181bc829e9e6ab37a3b18537758ae62eb"),
    (["mech-ringdown-fit", "-i", "mech.csv", "--omega-m", "8.42e5"],
     "dbdbbff5ded48eef654cd8bfae3db4b25edb2d9414c808140e18293aac6c5fcd"),
    (["cool-fit", "-i", "psd.csv"],
     "e053d8c8d75cd79e812e19f4f90c716f6104511e4a294c332bd8a4362e37e6fc"),
    (["cool-fit", "-i", "psd.csv", "--mass", "4e-11"],
     "6c06ae8652511dae05bca31621d622ccbb70d9e244e932029ba4dc3035a1c13c"),
    (["cool-fit", "-i", "psd.csv", *_COOL_ALL],
     "e0529e0d927697cf2c1ed0a12f38d125b0e383fd527ed9ea2379e9dff0e7f1f0"),
    (["cool-fit", "-i", "psd.csv", *_COOL_ALL, "--exclude=SPUR"],
     "8e0b1244e08d41aa5f0d8b0c5fdcdbc20918df6c50d0b5930ec01081dcfec840"),
]


@pytest.mark.parametrize("argv, digest", FIT_PINS,
                         ids=[" ".join(a for a in argv if a != "-i") for argv, _ in FIT_PINS])
def test_fit_json_pinned(fit_inputs, tmp_path, argv, digest):
    d, spur_band = fit_inputs
    argv = [str(d / a) if a.endswith(".csv") else a.replace("SPUR", spur_band) for a in argv]
    out = tmp_path / "fit.json"
    assert run([*argv, "-o", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    version = f'"version": "{memcav.__version__}"'
    assert text.count(version) == 1
    blanked = text.replace(version, '"version": ""').encode("utf-8")
    assert hashlib.sha256(blanked).hexdigest() == digest
