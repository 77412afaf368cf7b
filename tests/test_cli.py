import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import memcav
from memcav import cooling
from memcav.cli import run
from memcav.textio import read_csv


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
_FIT_CSV = {
    "ring.csv": _csv(["t_s", "power"], _T_RING, 1.7 * np.exp(-_T_RING / 1.145e-6) + 0.2),
    "mech.csv": _csv(["t_s", "amplitude"], _T_MECH, 0.8 * np.exp(-_T_MECH / 2.67)),
    "psd.csv": _csv(["freq_hz", "psd_m2_per_hz"], _F_PSD,
                    cooling.psd_model(2 * np.pi * _F_PSD, 4e-11, 6.82e-3, 8.42e5, 8.42e5 / 300)
                    + 1e-36),
}
_FIT_CSV["ring_x.csv"] = _FIT_CSV["ring.csv"].replace("\n0.0,1.9\n", "\n0.0,x\n")
_FIT_CSV["mech_nan.csv"] = _FIT_CSV["mech.csv"].replace("\n0.0,0.8\n", "\n0.0,nan\n")


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
    # valid configs whose measurement-channel rates leave the float range
    (["jump-sim", "omega_m = 1e-200", "--seed", "1", "--duration", "0.001", "--channels"], 2),
    (["jump-stats", "omega_m = 1e-200", "--seed", "1", "--duration", "0.001",
      "--bin-width", "1e-4", "--threshold", "0.1", "--channels"], 2),
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
])
def test_bad_input_exits_without_traceback(tmp_path, row1_config, capsys, argv, code):
    command, *rest = argv
    for i, arg in enumerate(rest):  # fit inputs, written on demand
        if arg in _FIT_CSV:
            rest[i] = str(tmp_path / arg)
            (tmp_path / arg).write_text(_FIT_CSV[arg])
    overrides = [arg for arg in rest if " = " in arg]  # "key = value" lines for row 1
    if overrides:
        keys = {line.partition(" = ")[0] for line in overrides}
        lines = [line for line in row1_config.read_text().splitlines()
                 if line.partition(" = ")[0] not in keys]
        cfg = tmp_path / "extreme.cfg"
        cfg.write_text("\n".join(lines + overrides) + "\n")
        rest = ["--config", str(cfg)] + [arg for arg in rest if arg not in overrides]
    out = tmp_path / "out"
    assert run([command, *rest, "-o", str(out)]) == code
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["transmission-map", "--membrane-thickness", "5e-8"],
     "--membrane-thickness requires --membrane-index"),
    (["bandstructure", "--samples", "100001"], "--samples must be between 1 and 100000"),
    (["bandstructure", "--bands", "21"], "--bands must be between 1 and 20"),
    (["transmission-map", "--det-samples", "1001"], "--det-samples must be between 1 and 1000"),
    (["transmission-map", "--x-samples", "0"], "--x-samples must be between 1 and 1000"),
])
def test_optics_flag_errors_named(tmp_path, capsys, argv, message):
    command, *flags = argv
    optics = ["--rc", "0.31", "--length", "1.0", "--wavelength", "5.32e-7"]
    if command == "transmission-map":
        optics += ["--finesse", "200", "--det-min=-1e9", "--det-max=1e9"]
    assert run([command, *optics, *flags, "-o", str(tmp_path / "out")]) == 1
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


def test_ragged_csv_exit_one(tmp_path, capsys):
    data = tmp_path / "ragged.csv"
    data.write_text("t_s,power\n0,1.0\n1e-6,0.5,7\n")
    code = run(["ringdown-fit", "-i", str(data), "-o", str(tmp_path / "o.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{data}:3" in err
    assert "Traceback" not in err


def _run_python(*args):
    """Run a fresh interpreter that imports memcav from this checkout."""
    src = str(Path(memcav.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def test_module_entry_point_runs_cli(tmp_path):
    out = tmp_path / "b.json"
    proc = _run_python("-m", "memcav.cli", "qnd-budget",
                       "--config", str(tmp_path / "missing.cfg"), "-o", str(out))
    assert proc.returncode == 1
    assert "config file not found" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


_NO_SCIPY_SCRIPT = """
import json, sys
import memcav, memcav.cli
codes = [memcav.cli.run(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_non_fit_commands_do_not_import_scipy(tmp_path, row1_config):
    """scipy.optimize costs ~0.45 s per process; only the fits may load it."""
    cfg = str(row1_config)
    commands = [
        ["qnd-budget", "--config", cfg, "-o", str(tmp_path / "b.json")],
        ["bandstructure", "--rc", "0.31", "--length", "0.067", "--wavelength", "5.32e-7",
         "--samples", "11", "-o", str(tmp_path / "bands.csv")],
        ["transmission-map", "--rc", "0.31", "--finesse", "200", "--length", "1.0",
         "--wavelength", "5.32e-7", "--det-min=-1e9", "--det-max=1e9",
         "--det-samples", "11", "--x-samples", "3", "-o", str(tmp_path / "map.csv")],
        ["jump-sim", "--config", cfg, "--seed", "42", "--duration", "0.002", "--channels",
         "--readout", str(tmp_path / "r.csv"), "--bin-width", "7e-5",
         "-o", str(tmp_path / "t.csv")],
        ["jump-stats", "--config", cfg, "--seed", "42", "--duration", "0.002",
         "--bin-width", "1e-4", "--threshold", "0.12", "-o", str(tmp_path / "s.json")],
        ["sweep", "--config", cfg, "--axis", "F:3e5:6e5:2:log", "--best",
         str(tmp_path / "best.json"), "--maximize", "-o", str(tmp_path / "sw.csv")],
    ]
    proc = _run_python("-c", _NO_SCIPY_SCRIPT, json.dumps(commands))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * len(commands), proc.stderr
    assert result["scipy"] == []


def test_fit_command_in_fresh_process(tmp_path):
    t = np.linspace(0, 6e-6, 200)
    power = 1.7 * np.exp(-t / 1.145e-6) + 0.2
    data = tmp_path / "ring.csv"
    data.write_text("t_s,power\n" + "\n".join(f"{a},{b}" for a, b in zip(t, power)))
    out = tmp_path / "fit.json"
    proc = _run_python("-m", "memcav.cli", "ringdown-fit", "-i", str(data), "-o", str(out))
    assert proc.returncode == 0, proc.stderr
    assert abs(json.loads(out.read_text())["tau_s"] / 1.145e-6 - 1) < 1e-6
