"""Output contract: the sha256 of each README command's outputs.

The fit inputs (conftest.fit_inputs) come from one fixed seed and are
written with repr floats, as the bench writes its own; the other commands
run on the README's scenario config and flags, plus one sweep longer than a
CSV write batch.
The version string in the metadata is blanked before hashing, so a version
bump alone moves no pin.  A change that alters any of these bytes updates
its row and says why in CHANGES.md.
"""

import hashlib

import pytest

import memcav
from memcav.cli import run


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


@pytest.mark.parametrize("argv, digest", FIT_PINS,
                         ids=[" ".join(a for a in argv if a != "-i") for argv, _ in FIT_PINS])
def test_fit_json_pinned(fit_inputs, tmp_path, argv, digest):
    d, spur_band = fit_inputs
    argv = [str(d / a) if a.endswith(".csv") else a.replace("SPUR", spur_band) for a in argv]
    out = tmp_path / "fit.json"
    assert run([*argv, "-o", str(out)]) == 0
    assert _blanked_digest(out) == digest


def _blanked_digest(path) -> str:
    """sha256 of a JSON or CSV output whose version string, found once, is blanked."""
    text = path.read_text(encoding="utf-8")
    for version, blank in ((f'"version": "{memcav.__version__}"', '"version": ""'),
                           (f"# version = {memcav.__version__}\n", "# version = \n")):
        if version in text:
            assert text.count(version) == 1
            return hashlib.sha256(text.replace(version, blank).encode("utf-8")).hexdigest()
    raise AssertionError(f"{path.name} holds no version string")


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


@pytest.mark.parametrize("argv, digests", [pin[1:] for pin in README_PINS],
                         ids=[pin[0] for pin in README_PINS])
def test_readme_outputs_pinned(tmp_path, argv, digests):
    (tmp_path / "scenario.cfg").write_text(README_CONFIG, encoding="utf-8")
    assert run([str(tmp_path / a) if a.endswith((".cfg", ".csv", ".json")) else a
                for a in argv]) == 0
    assert {name: _blanked_digest(tmp_path / name) for name in digests} == digests
