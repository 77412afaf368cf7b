"""Tests of the benchmark itself: its checks, its metric names, its contract.

    python3 -m pytest -q bench/tests
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import layers
import workloads as wl
from spans import NoTrace

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# --- every check passes on a correct result and fails on a perturbed one ---

def test_row1():
    assert checks.check_row1(0.993166722090506, 2.8982715811269827e-4) == []
    assert checks.check_row1(0.993166722090506 * 1.002, 2.8982715811269827e-4)
    assert checks.check_row1(0.993166722090506, 2.8982715811269827e-4 * 0.998)
    assert checks.check_row1(math.nan, 2.8982715811269827e-4)


def test_grid_counts():
    assert checks.check_grid_counts((80, 520, 400), (80, 520, 400)) == []
    assert checks.check_grid_counts((81, 519, 400), (80, 520, 400))
    assert checks.check_grid_counts((0, 600, 400), (0, 600, 400))


def test_maximize():
    assert checks.check_maximize(True, 10.8, 10.8) == []
    assert checks.check_maximize(True, 10.7, 10.8)
    assert checks.check_maximize(False, math.nan, 10.8)


def test_no_jump_fraction():
    n, p = 100_000, math.exp(-2.0)
    assert checks.check_no_jump_fraction(n, round(n * p), 2.0, 1.0) == []
    assert checks.check_no_jump_fraction(n, round(n * p * 1.1), 2.0, 1.0)
    assert checks.check_no_jump_fraction(0, 0, 2.0, 1.0)


def _readout(slope, intercept, n=200_000, seed=3):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 2.0, n)
    return x, intercept + slope * x + rng.normal(0.0, 0.3, n)


def test_level_spacing():
    dw = 0.3
    fit = checks.LineFit()
    fit.add(*_readout(dw, dw / 2))
    assert checks.check_level_spacing(fit, dw) == []
    wrong_slope = checks.LineFit()
    wrong_slope.add(*_readout(1.05 * dw, dw / 2))
    assert checks.check_level_spacing(wrong_slope, dw)
    wrong_level = checks.LineFit()
    wrong_level.add(*_readout(dw, 0.7 * dw))
    assert checks.check_level_spacing(wrong_level, dw)
    flat = checks.LineFit()
    flat.add(np.zeros(10), np.ones(10))
    assert checks.check_level_spacing(flat, dw)


def _bose_einstein_sample(n_bar, n, seed):
    q = n_bar / (1.0 + n_bar)
    return np.random.default_rng(seed).geometric(1.0 - q, n) - 1


def test_bose_einstein():
    groups = [checks.level_histogram(_bose_einstein_sample(2.0, 2500, s)) for s in (1, 2)]
    assert checks.check_bose_einstein(groups, 2.0) == []
    hotter = [checks.level_histogram(_bose_einstein_sample(2.5, 2500, s)) for s in (1, 2)]
    assert checks.check_bose_einstein(hotter, 2.0)
    shifted = [checks.level_histogram(_bose_einstein_sample(2.0, 2500, s) + 1) for s in (1, 2)]
    assert checks.check_bose_einstein(shifted, 2.0)
    assert checks.check_bose_einstein(groups[:1], 2.0)


def test_mean_occupation():
    states = _bose_einstein_sample(2.0, 100_000, 5)
    assert checks.check_mean_occupation(float(states.sum()), states.size, 2.0) == []
    assert checks.check_mean_occupation(float(states.sum()) * 1.05, states.size, 2.0)


def test_cli_checks():
    assert checks.check_exit("sweep", 0, "") == []
    assert checks.check_exit("sweep", 2, "numerical error: x\n")
    assert checks.check_identical("jump-sim", "t.csv", b"a,b\n", b"a,b\n") == []
    assert checks.check_identical("jump-sim", "t.csv", b"a,b\n", b"a,c\n")
    report = {"snr": 0.99, "tau_lin_s": None, "flags": {"gap_ok": True}}
    doc = {"metadata": {"tool": "memcav"}, **report}
    assert checks.check_budget_json(doc, report) == []
    assert checks.check_budget_json({**doc, "snr": 0.98}, report)
    assert checks.check_budget_json({**doc, "extra": 1}, report)


def test_workload_check_catches_changed_grid(tmp_path):
    work = wl.make("budget-sweep", wl.Inputs(tmp_path, 7), ROOT / "src")
    result = work.run(0, NoTrace())
    assert work.check(0, result)[1] == []
    grid, rows, opt = result
    assert work.check(1, (grid, rows[:-1], opt))[1]
    work.reference = (work.reference[0] + 1,) + work.reference[1:]
    assert work.check(2, result)[1]


# --- metric names and the BENCHMARK.json contract ---

def test_metric_names_and_counts():
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    assert 1 <= len(e2e) <= 16 and 1 <= len(per_layer) <= 128
    names = e2e + per_layer + [w["name"] for w in SPEC["workloads"]]
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")


def test_end_to_end_bounds():
    by_name = {m["name"]: m for m in SPEC["end_to_end"]}
    setup = by_name["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in by_name.values())
    assert setup["bound"] == max(m["bound"] for m in by_name.values())


def test_layer_metrics_cover_declared_names():
    declared = {m["name"] for m in SPEC["per_layer"]}
    computed = set(layers.TIME_METRICS) | {
        "qnd.calls", "sweep.points", "sweep.points_failed.ValidationError",
        "sweep.points_failed.NumericsError", "sweep.feasible_ratio", "sweep.maximize_evals",
        "jumpsim.trials", "jumpsim.trials_jumped_ratio", "jumpsim.events", "jumpsim.bins",
        "trace.overhead_ratio", "trace.spans", "bench.iterations",
        "cli.python_startup_s", "cli.import_s"}
    computed |= {f"cli.{n}.{k}" for n in wl.CLI_NAMES for k in ("wall_s", "peak_rss_mb")}
    assert computed == declared
    modules = {name.split(".")[0] for name in declared}
    assert {"params", "qnd", "sweep", "jumpsim", "cavity", "mechanics", "fitting",
            "cooling", "textio", "cli"} <= modules


def test_workloads_match_spec(tmp_path):
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert [name for name, _, _ in wl.cli_commands(wl.Inputs(tmp_path, 1))] == wl.CLI_NAMES


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_short_run_prints_contract_line():
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "jump-stationary",
                           "--seed", "3", "--seconds", "0.5", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "budget-sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    lines = proc.stdout.strip().splitlines()
    assert not lines or not lines[-1].startswith("{")


@pytest.mark.parametrize("seed", [0, 11])
def test_inputs_are_seeded(tmp_path, seed):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a, b = wl.Inputs(tmp_path / "a", seed), wl.Inputs(tmp_path / "b", seed)
    for name in ("row1.cfg", "ringdown.csv", "mech.csv", "psd.csv"):
        assert (a.workdir / name).read_bytes() == (b.workdir / name).read_bytes()
    assert a.grid_axes == b.grid_axes and a.trial_seed == b.trial_seed
