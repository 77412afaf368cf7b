import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from memcav import cli, cooling, jumpsim, sweep
from memcav.cli import run
from memcav.textio import read_csv

from conftest import FIT_PINS, README_PINS, ROW1_CONFIG, fit_argv, readme_argv, run_python


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "bandstructure" in capsys.readouterr().out


def test_unknown_flag_rejected(tmp_path, row1_config, capsys):
    code = run(["qnd-budget", "--config", str(row1_config),
                "--output", str(tmp_path / "o.json"), "--bogus"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_unknown_subcommand_rejected(capsys):
    assert run(["frobnicate"]) == 1


def test_qnd_budget_row1(tmp_path, row1_config):
    out = tmp_path / "budget.json"
    assert run(["qnd-budget", "--config", str(row1_config), "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert abs(doc["snr"] / 0.993 - 1) < 1e-2
    assert doc["flags"]["good_cavity"] is True
    assert doc["params"]["Q"] == 1.2e7
    assert doc["metadata"]["version"]


def test_qnd_budget_bad_config_exit_code(tmp_path, row1_config):
    bad = tmp_path / "bad.cfg"
    bad.write_text(row1_config.read_text().replace("r_c = 0.999", "r_c = 1.5"))
    code = run(["qnd-budget", "--config", str(bad), "-o", str(tmp_path / "o.json")])
    assert code == 1


def test_bandstructure_constant_for_rc_zero(tmp_path):
    out = tmp_path / "bands.csv"
    assert run(["bandstructure", "--rc", "0", "--length", "0.067",
                "--wavelength", "5.32e-7", "--samples", "11", "--bands", "2",
                "-o", str(out)]) == 0
    cols = read_csv(out)
    band = cols["band_1_-"]
    assert np.ptp(band) < 1e-6 * band[0]
    assert out.read_text().startswith("#")


def test_transmission_map_csv(tmp_path):
    out = tmp_path / "map.csv"
    assert run(["transmission-map", "--rc", "0.31", "--finesse", "200",
                "--length", "1.0", "--wavelength", "5.32e-7",
                "--det-min=-1e9", "--det-max=1e9",
                "--det-samples", "21", "--x-samples", "5", "-o", str(out)]) == 0
    cols = read_csv(out)
    assert len(cols["intensity"]) == 21 * 5
    assert cols["intensity"].max() <= 1.0 + 1e-12


def test_ringdown_fit_cli(tmp_path):
    t = np.linspace(0, 6e-6, 200)
    power = 1.7 * np.exp(-t / 1.145e-6) + 0.2
    data = tmp_path / "ring.csv"
    data.write_text("t_s,power\n" + "\n".join(f"{a},{b}" for a, b in zip(t, power)))
    out = tmp_path / "fit.json"
    assert run(["ringdown-fit", "-i", str(data), "--length", "0.067",
                "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert abs(doc["tau_s"] / 1.145e-6 - 1) < 1e-6
    assert abs(doc["finesse"] / 16100 - 1) < 1e-3


def test_ringdown_fit_flat_trace_exit_two(tmp_path):
    t = np.linspace(0, 1e-5, 60)
    data = tmp_path / "flat.csv"
    data.write_text("t_s,power\n" + "\n".join(f"{a},1.0" for a in t))
    code = run(["ringdown-fit", "-i", str(data), "-o", str(tmp_path / "o.json")])
    assert code == 2


def test_mech_ringdown_fit_cli(tmp_path):
    t = np.linspace(0, 10, 300)
    amp = 0.8 * np.exp(-t / 2.67)
    data = tmp_path / "mech.csv"
    data.write_text("t_s,amplitude\n" + "\n".join(f"{a},{b}" for a, b in zip(t, amp)))
    out = tmp_path / "fit.json"
    omega = 2 * np.pi * 1.34e5
    assert run(["mech-ringdown-fit", "-i", str(data), "--omega-m", str(omega),
                "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert abs(doc["Q"] / 1.124e6 - 1) < 1e-3


def test_cool_fit_cli(tmp_path):
    m, omega, q_eff, t_eff = 4e-11, 2 * np.pi * 1.34e5, 300.0, 6.82e-3
    gamma = omega / q_eff
    freq = np.linspace(omega - 60 * gamma, omega + 60 * gamma, 4001) / (2 * np.pi)
    psd = cooling.psd_model(2 * np.pi * freq, m, t_eff, omega, gamma) + 1e-36
    data = tmp_path / "psd.csv"
    data.write_text("freq_hz,psd_m2_per_hz\n"
                    + "\n".join(f"{a},{b}" for a, b in zip(freq, psd)))
    out = tmp_path / "fit.json"
    assert run(["cool-fit", "-i", str(data), "--mass", str(m),
                "--omega-m", str(omega), "--t-bath", "294", "--q-intrinsic", "1.1e6",
                "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    for key in ("omega_eff", "gamma_eff", "q_eff", "t_eff_area", "t_eff_q",
                "floor", "residual_rms"):
        assert key in doc
    assert abs(doc["q_eff"] / q_eff - 1) < 1e-3
    assert abs(doc["t_eff_area"] / t_eff - 1) < 0.01


def test_jump_sim_deterministic_bytes(tmp_path, row2_config):
    args = ["jump-sim", "--config", str(row2_config), "--seed", "42",
            "--duration", "0.01", "--channels",
            "--readout", "", "--bin-width", "1e-4", "--readout-seed", "9"]
    outs = []
    for tag in ("a", "b"):
        traj = tmp_path / f"traj_{tag}.csv"
        readout = tmp_path / f"read_{tag}.csv"
        argv = list(args)
        argv[argv.index("--readout") + 1] = str(readout)
        assert run(argv + ["-o", str(traj)]) == 0
        outs.append((traj.read_bytes(), readout.read_bytes()))
    assert outs[0] == outs[1]


def test_jump_sim_metadata_header(tmp_path, row1_config):
    out = tmp_path / "traj.csv"
    assert run(["jump-sim", "--config", str(row1_config), "--seed", "7",
                "--duration", "0.002", "-o", str(out)]) == 0
    head = out.read_text().splitlines()
    meta = [l for l in head if l.startswith("#")]
    assert any("seed = 7" in l for l in meta)
    assert any("rng = PCG64" in l for l in meta)
    assert "# rng_stream = pcg64-blocks-v1" in meta
    assert any("param_r_c" in l for l in meta)


@pytest.mark.parametrize("readout_args", [
    ["--bin-width", "1.0"],  # duration shorter than one bin
    [],                      # no bin width at all
])
def test_jump_sim_bad_readout_writes_nothing(tmp_path, row1_config, capsys, readout_args):
    traj, readout = tmp_path / "x.csv", tmp_path / "r.csv"
    assert run(["jump-sim", "--config", str(row1_config), "--seed", "1",
                "--duration", "0.001", "--readout", str(readout), *readout_args,
                "-o", str(traj)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    assert not traj.exists()
    assert not readout.exists()


@pytest.mark.parametrize("argv, message", [
    (["jump-stats", "--bin-width", "1e-4", "--threshold", "0.5"],
     "threshold 0.5 outside the n=0..1 signal range"),
    (["jump-stats", "--bin-width=-1", "--threshold", "0.12"],
     "bin_width must be positive (got -1.0)"),
    (["jump-sim", "--readout", "r.csv", "--bin-width=-1"], "bin_width must be positive (got -1.0)"),
    (["jump-sim", "--readout", "r.csv", "--bin-width", "1.0"], "duration shorter than one bin"),
])
def test_jump_flags_checked_before_simulating(tmp_path, row1_config, capsys, monkeypatch,
                                              argv, message):
    def simulate(*args, **kwargs):
        raise AssertionError("simulated before the flags were checked")

    monkeypatch.setattr(jumpsim, "simulate_trajectory", simulate)
    command, *flags = argv
    flags = [str(tmp_path / a) if a.endswith(".csv") else a for a in flags]
    assert run([command, "--config", str(row1_config), "--seed", "1", "--duration", "0.5",
                *flags, "-o", str(tmp_path / "out")]) == 1
    assert message in capsys.readouterr().err


def test_jump_stats_cli(tmp_path, row1_config):
    out = tmp_path / "stats.json"
    # zero-temperature config: pure noise, false alarms only
    frozen = tmp_path / "frozen.cfg"
    frozen.write_text(row1_config.read_text().replace("T = 0.3", "T = 1e-9"))
    dw = 0.0936965
    assert run(["jump-stats", "--config", str(frozen), "--seed", "3",
                "--duration", "1.0", "--bin-width", "1e-3",
                "--threshold", str(1.2 * dw), "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["metadata"]["rng_stream"] == "pcg64-blocks-v1"
    assert doc["metadata"]["measurement_channels"] is False
    assert doc["n_ground_bins"] == 1000
    assert doc["detection_probability"] is None  # no jumped bins: NaN written as null
    assert 0.0 <= doc["false_alarm_rate"] < 0.2


def test_sweep_cli(tmp_path, row1_config):
    out = tmp_path / "sweep.csv"
    best = tmp_path / "best.json"
    assert run(["sweep", "--config", str(row1_config),
                "--axis", "F:3e5:6e5:2:log", "--axis", "P_in:1e-6:1e-5:2:log",
                "--best", str(best), "-o", str(out)]) == 0
    cols = read_csv(out)
    assert len(cols["snr"]) == 4
    doc = json.loads(best.read_text())
    assert doc["feasible"] is True
    assert doc["best_params"]["F"] == 6e5
    assert doc["best_params"]["P_in"] == 1e-5


def test_sweep_cli_bad_axis(tmp_path, row1_config):
    code = run(["sweep", "--config", str(row1_config), "--axis", "F:bad",
                "-o", str(tmp_path / "s.csv")])
    assert code == 1


def test_transmission_map_membrane_requires_thickness(tmp_path):
    code = run(["transmission-map", "--finesse", "200", "--length", "1.0",
                "--wavelength", "5.32e-7", "--membrane-index", "2.0",
                "--det-min=0", "--det-max=1e9", "-o", str(tmp_path / "m.csv")])
    assert code == 1


def test_nonfinite_config_exit_one(tmp_path, row1_config, capsys):
    bad = tmp_path / "inf.cfg"
    bad.write_text(row1_config.read_text().replace("P_in = 1e-5", "P_in = inf"))
    code = run(["qnd-budget", "--config", str(bad), "-o", str(tmp_path / "o.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert "P_in must be finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("seed_args", [
    ["--seed", "-1"],
    ["--seed", "1", "--readout-seed", "-1"],
    ["--seed", "1.5"],
])
@pytest.mark.parametrize("command", ["jump-sim", "jump-stats"])
def test_bad_seed_exit_one(tmp_path, row1_config, capsys, command, seed_args):
    argv = [command, "--config", str(row1_config), "--duration", "0.001",
            "-o", str(tmp_path / "o.out")] + seed_args
    if command == "jump-stats":
        argv += ["--bin-width", "1e-4", "--threshold", "0.1"]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert "non-negative integer" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o.out").exists()


_OPTICS = ["--det-min=-1e9", "--det-max=1e9", "--det-samples", "5", "--x-samples", "3"]


def _csv(names, *columns) -> str:
    return ",".join(names) + "\n" + "".join(
        ",".join(map(repr, row)) + "\n" for row in zip(*(c.tolist() for c in columns)))


_T_RING = np.linspace(0, 6e-6, 200)
_T_MECH = np.linspace(0, 10, 300)
_F_PSD = np.linspace(1.30e5, 1.38e5, 1001)
# input files a row names, written into its directory on demand
_FILES = {
    "ring.csv": _csv(["t_s", "power"], _T_RING, 1.7 * np.exp(-_T_RING / 1.145e-6) + 0.2),
    "mech.csv": _csv(["t_s", "amplitude"], _T_MECH, 0.8 * np.exp(-_T_MECH / 2.67)),
    "psd.csv": _csv(["freq_hz", "psd_m2_per_hz"], _F_PSD,
                    cooling.psd_model(2 * np.pi * _F_PSD, 4e-11, 6.82e-3, 8.42e5, 8.42e5 / 300)
                    + 1e-36),
}
_FILES["ring_x.csv"] = _FILES["ring.csv"].replace("\n0.0,1.9\n", "\n0.0,x\n")
_FILES["mech_nan.csv"] = _FILES["mech.csv"].replace("\n0.0,0.8\n", "\n0.0,nan\n")
# a repeated column name, whose last column read alone once gave tau_s = 2e-06
_FILES["ring_dup.csv"] = _csv(["t_s", "power", "t_s"], _T_RING,
                              1.7 * np.exp(-_T_RING / 1.145e-6) + 0.2, 2 * _T_RING)
# not UTF-8: a 0xff byte, in a data cell and in a config comment
_FILES["ring_latin1.csv"] = b"t_s,power\n0.0,\xff\n"
_FILES["row1_latin1.cfg"] = b"# \xff\n" + ROW1_CONFIG.encode()


@pytest.mark.parametrize("argv, code", [
    # valid configs whose budget leaves the float range: numerical error
    (["qnd-budget", "omega_m = 1e-200"], 2),
    (["qnd-budget", "m = 1e200", "omega_m = 1e100"], 2),
    (["qnd-budget", "omega_m = 1e200"], 2),
    # optics flags taken straight from the command line
    (["bandstructure", "--rc", "0.31", "--length", "-1", "--wavelength", "5.32e-7"], 1),
    (["bandstructure", "--rc", "0.31", "--length", "0.067", "--wavelength", "0"], 1),
    (["bandstructure", "--rc", "0.31", "--length", "inf", "--wavelength", "5.32e-7"], 1),
    (["transmission-map", "--rc", "0.31", "--finesse", "200", "--length", "1.0",
      "--wavelength", "0", *_OPTICS], 1),
    (["transmission-map", "--rc", "0.31", "--finesse", "nan", "--length", "1.0",
      "--wavelength", "5.32e-7", *_OPTICS], 1),
    # membrane spec below the vacuum index
    (["transmission-map", "--finesse", "200", "--length", "1.0", "--wavelength", "5.32e-7",
      "--membrane-index", "0.5", "--membrane-thickness", "5e-8", *_OPTICS], 1),
    # valid configs whose measurement-channel rates leave the float range (the
    # threshold, checked first, sits between this config's n = 0 and 1 levels)
    (["jump-sim", "omega_m = 1e-200", "--seed", "1", "--duration", "0.001", "--channels"], 2),
    (["jump-stats", "omega_m = 1e-200", "--seed", "1", "--duration", "0.001",
      "--bin-width", "1e-4", "--threshold", "6e204", "--channels"], 2),
    # a duration or bin width the simulator cannot use
    (["jump-sim", "T = 0.3", "--seed", "1", "--duration", "inf"], 1),
    (["jump-stats", "T = 0.3", "--seed", "1", "--duration", "0.001",
      "--bin-width", "nan", "--threshold", "0.12"], 1),
    # an optics flag next to --config, which already sets it
    (["bandstructure", "T = 0.3", "--rc", "0.5"], 1),
    (["bandstructure", "T = 0.3", "--length", "0.067"], 1),
    (["bandstructure", "T = 0.3", "--wavelength", "5.32e-7"], 1),
    (["transmission-map", "T = 0.3", "--finesse", "200", *_OPTICS], 1),
    # optics grids without samples or with a non-finite end
    (["transmission-map", "--rc", "0.31", "--finesse", "200", "--length", "1.0",
      "--wavelength", "5.32e-7", *_OPTICS, "--det-samples=-1"], 1),
    (["transmission-map", "--rc", "0.31", "--finesse", "200", "--length", "1.0",
      "--wavelength", "5.32e-7", *_OPTICS, "--x-samples=-1"], 1),
    (["transmission-map", "--rc", "0.31", "--finesse", "200", "--length", "1.0",
      "--wavelength", "5.32e-7", *_OPTICS, "--det-min=nan"], 1),
    (["transmission-map", "--rc", "0.31", "--finesse", "200", "--length", "1.0",
      "--wavelength", "5.32e-7", *_OPTICS, "--det-max=inf"], 1),
    (["transmission-map", "--rc", "0.31", "--finesse", "200", "--length", "1.0",
      "--wavelength", "5.32e-7", *_OPTICS, "--xmin=-inf"], 1),
    (["transmission-map", "--rc", "0.31", "--finesse", "200", "--length", "1.0",
      "--wavelength", "5.32e-7", *_OPTICS, "--xmax=nan"], 1),
    (["bandstructure", "--rc", "0.31", "--length", "0.067", "--wavelength", "5.32e-7",
      "--xmin=nan"], 1),
    (["bandstructure", "--rc", "0.31", "--length", "0.067", "--wavelength", "5.32e-7",
      "--xmax=inf"], 1),
    # a membrane thickness without its index
    (["transmission-map", "--rc", "0.31", "--finesse", "200", "--length", "1.0",
      "--wavelength", "5.32e-7", "--membrane-thickness", "5e-8", *_OPTICS], 1),
    # sample counts above their caps, rejected before anything is allocated
    (["bandstructure", "--rc", "0.31", "--length", "0.067", "--wavelength", "5.32e-7",
      "--samples", "100000000"], 1),
    (["bandstructure", "--rc", "0.31", "--length", "0.067", "--wavelength", "5.32e-7",
      "--bands", "1000000000"], 1),
    (["transmission-map", "--rc", "0.31", "--finesse", "200", "--length", "1.0",
      "--wavelength", "5.32e-7", *_OPTICS, "--det-samples", "100000000"], 1),
    (["transmission-map", "--rc", "0.31", "--finesse", "200", "--length", "1.0",
      "--wavelength", "5.32e-7", *_OPTICS, "--x-samples", "100000000"], 1),
    (["sweep", "T = 0.3", "--axis", "F:1e5:1e6:1001:log", "--axis", "P_in:1e-6:1e-5:1000:log"], 1),
    # a non-finite sample in a fit's input
    (["ringdown-fit", "-i", "ring_x.csv"], 1),
    (["mech-ringdown-fit", "-i", "mech_nan.csv"], 1),
    # a scalar flag that enters a fit result and is not positive and finite
    (["mech-ringdown-fit", "-i", "mech.csv", "--omega-m", "nan"], 1),
    (["mech-ringdown-fit", "-i", "mech.csv", "--omega-m", "inf"], 1),
    (["ringdown-fit", "-i", "ring.csv", "--length", "nan"], 1),
    (["ringdown-fit", "-i", "ring.csv", "--length", "inf"], 1),
    (["cool-fit", "-i", "psd.csv", "--mass", "nan"], 1),
    (["cool-fit", "-i", "psd.csv", "--mass", "4e-11", "--omega-m", "nan"], 1),
    (["cool-fit", "-i", "psd.csv", "--t-bath", "nan", "--q-intrinsic", "1.1e6"], 1),
    # refinement rounds outside 0..MAX_REFINE_ITERS, rejected before the grid
    (["sweep", "T = 0.3", "--axis", "F:3e5:6e5:2:log", "--refine-iters", "100000000"], 1),
    (["sweep", "T = 0.3", "--axis", "F:3e5:6e5:2:log", "--refine-iters=-5"], 1),
    # a valid config whose budget has an infinite photon number (no linear channel)
    (["qnd-budget", "x0 = 0", "P_in = 1e300"], 2),
    # a fit flag without the partner it is read with
    (["cool-fit", "-i", "psd.csv", "--omega-m", "8.42e5"], 1),
    (["cool-fit", "-i", "psd.csv", "--q-intrinsic", "1.1e6"], 1),
    (["cool-fit", "-i", "psd.csv", "--t-bath", "294"], 1),
    (["cool-fit", "-i", "psd.csv", "--omega-m", "nan", "--q-intrinsic", "-5"], 1),
    # a fit input whose header names a column twice
    (["ringdown-fit", "-i", "ring_dup.csv"], 1),
    # a readout bin width without the readout it is read with
    (["jump-sim", "T = 0.3", "--seed", "1", "--duration", "0.001", "--bin-width", "1e-4"], 1),
    # --rc next to the membrane flags, which replace it
    (["transmission-map", "--rc", "0.31", "--finesse", "200", "--length", "1.0",
      "--wavelength", "5.32e-7", "--membrane-index", "2", "--membrane-thickness", "5e-8",
      *_OPTICS], 1),
    # --maximize without the --best file it refines
    (["sweep", "T = 0.3", "--axis", "F:3e5:6e5:2:log", "--maximize"], 1),
    # refinement rounds without the --maximize they set
    (["sweep", "T = 0.3", "--axis", "F:3e5:6e5:2:log", "--refine-iters", "7"], 1),
    # a cool-fit band that is reversed or has a NaN end
    (["cool-fit", "-i", "psd.csv", "--exclude", "1.4e5:1.3e5"], 1),
    (["cool-fit", "-i", "psd.csv", "--exclude", "nan:1.4e5"], 1),
    # an input that is missing, a directory or not UTF-8 ("{tmp}" is the test's directory)
    (["ringdown-fit", "-i", "{tmp}/missing.csv"], 1),
    (["ringdown-fit", "-i", "{tmp}"], 1),
    (["ringdown-fit", "-i", "ring_latin1.csv"], 1),
    (["qnd-budget", "--config", "row1_latin1.cfg"], 1),
    # an output in a missing directory or naming a directory
    (["qnd-budget", "T = 0.3", "-o", "{tmp}/missing/out.json"], 1),
    (["qnd-budget", "T = 0.3", "-o", "{tmp}"], 1),
    (["bandstructure", "T = 0.3", "-o", "{tmp}/missing/out.csv"], 1),
    (["bandstructure", "T = 0.3", "-o", "{tmp}"], 1),
    # the trajectory, written first, stays behind in t.csv
    (["jump-sim", "T = 0.3", "--seed", "1", "--duration", "0.001", "--bin-width", "1e-4",
      "--readout", "{tmp}/missing/r.csv", "-o", "{tmp}/t.csv"], 1),
    # a valid config whose per-phonon shift leaves the float range (x_m^2 = inf)
    (["jump-stats", "m = 1e-300", "omega_m = 1e-200", "--seed", "1", "--duration", "0.001",
      "--bin-width", "1e-4", "--threshold", "0.1"], 2),
    (["jump-sim", "m = 1e-300", "omega_m = 1e-200", "--seed", "1", "--duration", "0.001",
      "--bin-width", "1e-4", "--readout", "{tmp}/r.csv"], 2),
])
def test_bad_input_exits_without_traceback(tmp_path, row1_config, capsys, argv, code):
    command, *rest = argv
    for i, arg in enumerate(rest):  # input files, written on demand
        if arg in _FILES:
            rest[i] = str(tmp_path / arg)
            content = _FILES[arg]
            (tmp_path / arg).write_bytes(content if isinstance(content, bytes)
                                         else content.encode())
        rest[i] = rest[i].replace("{tmp}", str(tmp_path))
    overrides = [arg for arg in rest if " = " in arg]  # "key = value" lines for row 1
    if overrides:
        keys = {line.partition(" = ")[0] for line in overrides}
        lines = [line for line in row1_config.read_text().splitlines()
                 if line.partition(" = ")[0] not in keys]
        cfg = tmp_path / "extreme.cfg"
        cfg.write_text("\n".join(lines + overrides) + "\n")
        rest = ["--config", str(cfg)] + [arg for arg in rest if arg not in overrides]
    out = tmp_path / "out"
    if "-o" not in rest:
        rest += ["-o", str(out)]
    assert run([command, *rest]) == code
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["transmission-map", "--membrane-thickness", "5e-8"],
     "--membrane-thickness requires --membrane-index"),
    (["bandstructure", "--samples", "100001"], "--samples must be between 2 and 100000"),
    (["bandstructure", "--bands", "21"], "--bands must be between 1 and 20"),
    (["transmission-map", "--det-samples", "1001"], "--det-samples must be between 1 and 1000"),
    (["transmission-map", "--x-samples", "0"], "--x-samples must be between 1 and 1000"),
    (["bandstructure", "--samples", "1"], "--samples must be between 2 and 100000"),
    (["transmission-map", "--membrane-index", "2", "--membrane-thickness", "5e-8"],
     "--membrane-index excludes --rc"),
])
def test_optics_flag_errors_named(tmp_path, capsys, argv, message):
    command, *flags = argv
    optics = ["--rc", "0.31", "--length", "1.0", "--wavelength", "5.32e-7"]
    if command == "transmission-map":
        optics += ["--finesse", "200", "--det-min=-1e9", "--det-max=1e9"]
    assert run([command, *optics, *flags, "-o", str(tmp_path / "out")]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["ringdown-fit", "--length", "nan"], "--length must be positive and finite (got nan)"),
    (["mech-ringdown-fit", "--omega-m", "nan"], "--omega-m must be positive and finite (got nan)"),
    (["cool-fit", "--mass", "4e-11", "--omega-m", "-1"], "--omega-m must be positive and finite"),
    (["cool-fit", "--t-bath", "inf", "--q-intrinsic", "1.1e6"], "--t-bath must be positive"),
    (["cool-fit", "--omega-m", "8.42e5"], "--omega-m requires --mass"),
    (["cool-fit", "--q-intrinsic", "1.1e6"], "--q-intrinsic requires --t-bath"),
    (["cool-fit", "--t-bath", "294"], "--t-bath requires --q-intrinsic"),
])
def test_fit_flag_errors_named(tmp_path, capsys, argv, message):
    # the input does not exist: the flags are checked before it is read
    command, *flags = argv
    assert run([command, "-i", str(tmp_path / "missing.csv"), *flags,
                "-o", str(tmp_path / "out")]) == 1
    assert message in capsys.readouterr().err


def test_cool_fit_non_numeric_psd_exit_one(tmp_path, capsys):
    data = tmp_path / "psd.csv"
    data.write_text("freq_hz,psd_m2_per_hz\n"
                    + "".join(f"{1e5 + 10 * k},x\n" for k in range(60)))
    out = tmp_path / "fit.json"
    assert run(["cool-fit", "-i", str(data), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert "60 of 60 samples" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, x_name, y_name", [
    ("ringdown-fit", "t_s", "power"),
    ("mech-ringdown-fit", "t_s", "amplitude"),
    ("cool-fit", "freq_hz", "psd_m2_per_hz"),
])
def test_fit_non_finite_sample_names_columns(tmp_path, capsys, command, x_name, y_name):
    data = tmp_path / "in.csv"
    cells = [f"{1e5 + k},{1.0 / (k + 1)}" for k in range(60)]
    cells[7] = f"{1e5 + 7},x"
    data.write_text(f"{x_name},{y_name}\n" + "\n".join(cells) + "\n")
    out = tmp_path / "fit.json"
    assert run([command, "-i", str(data), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"1 of 60 samples have a non-finite {x_name} or {y_name}" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_ragged_csv_exit_one(tmp_path, capsys):
    data = tmp_path / "ragged.csv"
    data.write_text("t_s,power\n0,1.0\n1e-6,0.5,7\n")
    code = run(["ringdown-fit", "-i", str(data), "-o", str(tmp_path / "o.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{data}:3" in err
    assert "Traceback" not in err


def test_module_entry_point_runs_cli(tmp_path):
    out = tmp_path / "b.json"
    proc = run_python("-m", "memcav.cli", "qnd-budget",
                      "--config", str(tmp_path / "missing.cfg"), "-o", str(out))
    assert proc.returncode == 1
    assert "config file not found" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def _write_fit_input(path, header, x, y):
    path.write_text(header + "\n" + "\n".join(f"{a!r},{b!r}" for a, b in zip(map(float, x), map(float, y))))


_NO_SCIPY_SCRIPT = """
import json, sys
import memcav, memcav.cli
codes = [memcav.cli.run(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_readme_commands_do_not_import_scipy(tmp_path, fit_inputs):
    """No pinned command, the README's nine among them, loads scipy in a fresh process.

    scipy.optimize alone costs ~0.45 s a process.
    """
    commands = [readme_argv(argv, tmp_path) for _, argv, _ in README_PINS]
    commands += [[*fit_argv(argv, fit_inputs), "-o", str(tmp_path / "fit.json")]
                 for argv, _ in FIT_PINS]
    proc = run_python("-c", _NO_SCIPY_SCRIPT, json.dumps(commands))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * len(commands), proc.stderr
    assert result["scipy"] == []


# Runs `memcav` in a grandchild that prints its own peak RSS (ru_maxrss, in
# kB on Linux).  Linux carries the peak of the process that starts a child
# over into the child's ru_maxrss, so a fresh, small interpreter starts it,
# not the test process.
_MEASURED_RUN = """
import subprocess, sys
child = ("import resource, sys; from memcav.cli import run; code = run(sys.argv[1:]); "
         "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss); sys.exit(code)")
sys.exit(subprocess.run([sys.executable, "-c", child, *sys.argv[1:]]).returncode)
"""

_BANDS = ["bandstructure", "--rc", "0.31", "--length", "0.067", "--wavelength", "5.32e-7"]
_MAP_AT_CAPS = ["transmission-map", "--finesse", "200", "--length", "1.0",
                "--wavelength", "5.32e-7", "--det-min=-1e9", "--det-max=1e9",
                "--det-samples", str(cli.MAX_MAP_SAMPLES),
                "--x-samples", str(cli.MAX_MAP_SAMPLES)]
_SCENARIO = ["--config", "scenario.cfg"]

# One row per documented cap: the command at that cap, its exit code, the
# data rows of the outputs it is checked by (a failed run writes none), and
# the bound on its peak RSS [bytes].  The README's "Resource caps" table
# gives what each row costs.
_AT_CAPS = [
    ("bandstructure", [*_BANDS, "--samples", str(cli.MAX_SAMPLES),
                       "--bands", str(cli.MAX_BANDS), "-o", "bands.csv"],
     0, {"bands.csv": cli.MAX_SAMPLES}, 0.15e9),
    ("transmission-map sheet", [*_MAP_AT_CAPS, "--rc", "0.31", "-o", "map.csv"],
     0, {"map.csv": cli.MAX_MAP_SAMPLES**2}, 0.3e9),
    ("transmission-map slab", [*_MAP_AT_CAPS, "--membrane-index", "2.0",
                               "--membrane-thickness", "5e-8", "-o", "map.csv"],
     0, {"map.csv": cli.MAX_MAP_SAMPLES**2}, 0.3e9),
    ("jump-sim", ["jump-sim", *_SCENARIO, "--seed", "1", "--duration", "0.01",
                  "--bin-width", "1e-8", "--readout", "readout.csv", "-o", "trajectory.csv"],
     0, {"readout.csv": cli.MAX_BINS}, 0.15e9),
    # a 1.0 s path of the README scenario needs more than jumpsim.MAX_EVENTS events
    ("jump-stats", ["jump-stats", *_SCENARIO, "--seed", "42", "--duration", "1.0",
                    "--bin-width", "1e-4", "--threshold", "0.12", "-o", "stats.json"],
     1, {}, 0.2e9),
    ("sweep", ["sweep", *_SCENARIO, "--axis", "F:1e4:1e6:100:log",
               "--axis", "P_in:1e-8:1e-3:100:log", "--axis", "x0:0:1e-7:100", "-o", "sweep.csv"],
     0, {"sweep.csv": sweep.MAX_SWEEP_POINTS}, 0.25e9),
]


def _data_rows(path) -> int:
    with path.open() as lines:
        return sum(not line.startswith("#") for line in lines) - 1   # less the header


@pytest.mark.parametrize("argv, code, rows, peak_bound", [row[1:] for row in _AT_CAPS],
                         ids=[row[0] for row in _AT_CAPS])
def test_command_at_its_caps_stays_bounded(tmp_path, argv, code, rows, peak_bound):
    """Memory is bounded by the row's peak RSS bound, time by run_python's timeout."""
    proc = run_python("-c", _MEASURED_RUN, *readme_argv(argv, tmp_path))
    outputs = [path for path in tmp_path.iterdir() if path.name != "scenario.cfg"]
    counted = {path.name: _data_rows(path) for path in outputs if path.name in rows}
    for path in outputs:   # the sweep's CSV alone is ~0.35 GB, which kept tmp dirs would hold
        path.unlink()
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert counted == rows
    assert bool(outputs) == (code == 0)   # a failed run writes nothing
    assert int(proc.stdout) * 1024 < peak_bound


def test_fit_command_in_fresh_process(tmp_path):
    t = np.linspace(0, 6e-6, 200)
    power = 1.7 * np.exp(-t / 1.145e-6) + 0.2
    data = tmp_path / "ring.csv"
    data.write_text("t_s,power\n" + "\n".join(f"{a},{b}" for a, b in zip(t, power)))
    out = tmp_path / "fit.json"
    proc = run_python("-m", "memcav.cli", "ringdown-fit", "-i", str(data), "-o", str(out))
    assert proc.returncode == 0, proc.stderr
    assert abs(json.loads(out.read_text())["tau_s"] / 1.145e-6 - 1) < 1e-6


# ---------------------------------------------------------------------------
# fuzzed numeric flags: the non-fit commands exit 0, 1 or 2, never raise, and
# write finite numbers only
# ---------------------------------------------------------------------------

_SPECIAL = ["nan", "inf", "-inf", "0", "-0", "1e400", "-1e-400", "5e-324", "1e308", "x"]


@st.composite
def _value(draw, typical):
    """A flag's text: mostly its typical value, else a nearby, any or special one.

    Integer flags (an int `typical`) get small counts or counts past any cap.
    """
    kind = draw(st.sampled_from(["typical"] * 5 + ["near", "any", "special"]))
    if kind == "typical":
        return repr(typical)
    if kind == "special":
        return draw(st.sampled_from(_SPECIAL + ["1.5", "1000001", "10000000000"]))
    if isinstance(typical, int):
        return str(draw(st.integers(-2, 2 * typical + 2)))
    if kind == "near":
        return repr(typical * draw(st.floats(-3.0, 3.0)))
    return repr(draw(st.floats()))


def _short(duration: str) -> str:
    """A finite duration past 0.01 s becomes 0.01 s: row 1 heats by ~3e3 events/s."""
    try:
        return "0.01" if 0.01 < float(duration) < math.inf else duration
    except ValueError:
        return duration


@st.composite
def _commands(draw):
    """argv of one non-fit command; "{cfg}" and "{out}" are filled in later."""
    def flag(name, typical, often=True):
        taken = draw(st.sampled_from([True, True, True, False] if often else [True, False]))
        return [f"{name}={draw(_value(typical))}"] if taken else []

    command = draw(st.sampled_from(["bandstructure", "transmission-map", "qnd-budget",
                                    "jump-sim", "jump-stats", "sweep"]))
    if command in ("bandstructure", "transmission-map"):
        if draw(st.booleans()):
            argv = ["--config", "{cfg}"]
        else:
            argv = (flag("--rc", 0.31) + flag("--length", 0.067)
                    + flag("--wavelength", 5.32e-7))
        argv += flag("--xmin", 0.0, often=False) + flag("--xmax", 2e-7, often=False)
        if command == "bandstructure":
            argv += flag("--samples", 11) + flag("--bands", 4)
        else:
            if "--config" not in argv:
                argv += flag("--finesse", 200.0)
            if draw(st.booleans()):
                argv += flag("--membrane-index", 2.2) + flag("--membrane-thickness", 5e-8)
            argv += [f"--det-min={draw(_value(-1e9))}", f"--det-max={draw(_value(1e9))}"]
            argv += flag("--det-samples", 5) + flag("--x-samples", 3)
    elif command == "qnd-budget":
        argv = ["--config", "{cfg}"]
    elif command in ("jump-sim", "jump-stats"):
        argv = ["--config", "{cfg}", f"--seed={draw(_value(42))}",
                f"--duration={_short(draw(_value(0.002)))}"]
        argv += flag("--readout-seed", 7, often=False)
        argv += ["--channels"] if draw(st.booleans()) else []
        if command == "jump-sim":
            if draw(st.booleans()):
                argv += ["--readout", "{out}.readout"] + flag("--bin-width", 1e-4)
        else:
            argv += [f"--bin-width={draw(_value(1e-4))}",
                     f"--threshold={draw(_value(0.09))}"]
    else:
        axes = draw(st.lists(st.sampled_from([
            ("F", 3e5, 6e5, ":log"), ("P_in", 1e-6, 1e-4, ":log"), ("r_c", 0.99, 0.9999, ""),
            ("x0", 0.0, 1e-7, ":linear"), ("lambda", 5e-7, 6e-7, ""), ("T", 0.1, 1.0, ":cubic"),
            ("bogus", 0.0, 1.0, "")]), min_size=1, max_size=4))
        argv = ["--config", "{cfg}"]
        for name, lo, hi, scale in axes:
            argv.append(f"--axis={name}:{draw(_value(lo))}:{draw(_value(hi))}"
                        f":{draw(_value(3))}{scale}")
        argv += flag("--refine-iters", 2, often=False)
        if draw(st.booleans()):
            argv += ["--best", "{out}.best"] + (["--maximize"] if draw(st.booleans()) else [])
    return [command, *argv, "-o", "{out}"]


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def _assert_outputs_finite(command: str, paths) -> None:
    """Every numeric CSV cell and metadata value is finite or blank; JSON is strict."""
    for path in paths:
        text = path.read_text()
        if command in ("qnd-budget", "jump-stats") or path.suffix == ".best":
            json.loads(text, parse_constant=_reject_constant)
            continue
        lines = text.splitlines()
        for line in lines:
            if line.startswith("# "):
                try:
                    value = float(line.partition(" = ")[2])
                except ValueError:   # a name or version, not a number
                    continue
                assert math.isfinite(value), line
        header, *rows = [line.split(",") for line in lines if not line.startswith("#")]
        for row in rows:
            for name, cell in zip(header, row, strict=True):
                # the sweep's error column holds messages
                assert name == "error" or cell == "" or math.isfinite(float(cell)), (name, cell)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_commands())
@example(["bandstructure", "--rc=0.31", "--length=5e-324", "--wavelength=5.32e-7",
          "--samples=3", "-o", "{out}"])
@example(["bandstructure", "--rc=0.31", "--length=1.7e-300", "--wavelength=5.32e-7",
          "--samples=3", "--bands=20", "-o", "{out}"])
def test_cli_run_raises_only_memcav_errors(argv):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "row1.cfg"
        cfg.write_text(ROW1_CONFIG)
        out = Path(tmp) / "out"
        argv = [a.replace("{cfg}", str(cfg)).replace("{out}", str(out)) for a in argv]
        code = run(argv)
        assert code in (0, 1, 2)
        if code == 0:
            _assert_outputs_finite(argv[0], [p for p in Path(tmp).iterdir() if p != cfg])


# ---------------------------------------------------------------------------
# fuzzed fit inputs: the fits exit 0 with finite, strict JSON, or exit 1 or 2,
# with no traceback and no RuntimeWarning
# ---------------------------------------------------------------------------

_FIT_COLUMNS = {"ringdown-fit": "t_s,power", "mech-ringdown-fit": "t_s,amplitude",
                "cool-fit": "freq_hz,psd_m2_per_hz"}
_FIT_FLAGS = {"ringdown-fit": ["--length", "0.067"], "mech-ringdown-fit": ["--omega-m", "8.42e5"],
              "cool-fit": ["--mass", "4e-11", "--omega-m", "8.42e5", "--t-bath", "294",
                           "--q-intrinsic", "1.1e6"]}
_SCALES = [1.0, 1e-300, 1e-30, 1e30, 1e300, -1.0]


@st.composite
def _fit_cases(draw):
    """(command, flags, x, y): a fit on a decay, a Lorentzian or arbitrary samples."""
    command = draw(st.sampled_from(list(_FIT_COLUMNS)))
    flags = _FIT_FLAGS[command] if draw(st.booleans()) else []
    n = draw(st.integers(0, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    noise = draw(st.sampled_from([0.0, 1e-3, 0.1, 10.0]))
    shape = draw(st.sampled_from(["decay", "lorentzian", "samples"]))
    if shape == "samples":
        x = np.array(draw(st.lists(st.floats(), min_size=n, max_size=n)))
        y = np.array(draw(st.lists(st.floats(), min_size=n, max_size=n)))
        return command, flags, x, y
    scale = draw(st.sampled_from(_SCALES))
    width = 10.0 ** draw(st.floats(-8.0, 2.0))
    x = np.linspace(0.0, draw(st.floats(0.1, 20.0)) * width, n)
    with np.errstate(all="ignore"):
        if shape == "decay":
            y = np.exp(-x / width) + draw(st.floats(-1.0, 1.0))
        else:   # a resonance at x0, of linewidth `width`
            x0 = x.mean() if n else 0.0
            y = 1.0 / ((x0**2 - x**2) ** 2 + (width * x) ** 2 + 1e-300)
            y = y / y.max() if n else y
        y = scale * (y + noise * rng.normal(size=n))
    return command, flags, x, y


_T = np.linspace(0.0, 1e-5, 60)
_F = np.linspace(1.3e5, 1.4e5, 60)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_fit_cases())
@example(("ringdown-fit", [], _T, np.ones_like(_T)))                       # flat
@example(("cool-fit", [], _F, np.full_like(_F, 1e-30)))                     # flat: no peak
@example(("cool-fit", [], _F, np.linspace(1e-30, 2e-30, _F.size)))          # no peak inside
@example(("ringdown-fit", [], _T, np.where(np.arange(_T.size) == 7, 1.0, 0.0)))   # one spike
@example(("cool-fit", [], _F, np.where(np.arange(_F.size) == 30, 1e-20, 1e-30)))  # one spike
@example(("ringdown-fit", [], _T, 1e-300 * (np.exp(-_T / 2e-6) + 0.1)))     # 1e-300-scaled
@example(("mech-ringdown-fit", [], _T, 1e-300 * np.exp(-_T / 2e-6)))        # 1e-300-scaled
@example(("ringdown-fit", [], _T, np.exp(_T / 2e-6)))                        # growing
@example(("mech-ringdown-fit", [], _T, np.exp(_T / 2e-6)))                   # growing
def test_fit_commands_exit_cleanly(case):
    command, flags, x, y = case
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        data, out = Path(tmp) / "in.csv", Path(tmp) / "fit.json"
        _write_fit_input(data, _FIT_COLUMNS[command], x, y)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = run([command, "-i", str(data), *flags, "-o", str(out)])
        assert code in (0, 1, 2)
        assert "Traceback" not in stderr.getvalue()
        if code == 0:
            doc = json.loads(out.read_text(), parse_constant=_reject_constant)
            numbers = [v for part in doc.values() if isinstance(part, dict) for v in part.values()]
            numbers += [v for v in doc.values() if not isinstance(v, dict)]
            assert all(math.isfinite(v) for v in numbers if isinstance(v, float)), doc
        else:
            assert not out.exists()
