"""The four workloads: inputs made from the seed, the unit of work, its checks.

Each workload's ``run`` holds only calls into memcav (each through the
tracer, so the traced run spans them); ``check`` verifies one unit's
output outside the timed region; ``finish`` runs the whole-run checks.
memcav is imported here, so run.py puts the checkout's ``src`` on
``sys.path`` before importing this module.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Every in-process layer is imported here, so set-up (and setup_s) always
# includes its import cost, scipy.optimize included, whichever workload runs.
from memcav import cavity, cooling, fitting, jumpsim, mechanics, params, qnd, sweep, textio  # noqa: F401
from memcav.errors import NumericsError, ValidationError

import checks
from proc import run_child

# The two feasibility rows of the paper's table and criterion 9(b)'s small
# bath (n_bar = 2 exactly in the classical occupation, Q = 50).
ROW1 = {"L": 0.067, "lambda": 5.32e-7, "F": 3e5, "P_in": 1e-5, "T": 0.3, "m": 5e-14,
        "omega_m": 6.2831853071795865e5, "Q": 1.2e7, "r_c": 0.999, "x0": 5e-13}
ROW2 = {**ROW1, "F": 6e5, "P_in": 1e-6, "r_c": 0.9999}
SMALL_NBAR = 2.0
SMALL = {**ROW1, "T": SMALL_NBAR * params.HBAR * ROW1["omega_m"] / params.K_B, "Q": 50.0}

GRID_COUNT = 8           # budget-sweep: 8^3 grid points per iteration
MAX_COUNT = 8            # budget-sweep: 8^2 maximize_snr grid around row1
TRIAL_BINS = 8           # jump-trials: 8 bins of tau_total/4, as criterion 9(c)
STATIONARY_DURATION_S = 0.5   # jump-stationary: ~8e4 events per trajectory
STATIONARY_BINS = 100_000
# README's jump-stats example runs 1.0 s of the row-1 config: ~16 s, ~1 GB,
# and a degenerate result, since the path heats toward n_bar ~ 6e4.  The
# benchmark bounds both simulated durations to keep every command short.
CLI_JUMP_SIM_S = 0.01
CLI_JUMP_STATS_S = 0.02
CHILD_TIMEOUT_S = 60.0


def _write_config(path: Path, values: dict) -> Path:
    path.write_text("".join(f"{k} = {float(v)!r}\n" for k, v in values.items()), encoding="utf-8")
    return path


def _write_columns(path: Path, names, *columns) -> Path:
    lines = [",".join(names)] + [",".join(repr(float(v)) for v in row) for row in zip(*columns)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@dataclass
class Inputs:
    """Everything the program receives: configs, CSVs, grid ranges and seeds."""

    workdir: Path
    seed: int

    def __post_init__(self):
        rng = np.random.default_rng(self.seed)

        def jitter():
            return float(np.exp(rng.uniform(-0.1, 0.1)))

        d = self.workdir
        self.row1_cfg = _write_config(d / "row1.cfg", ROW1)
        self.row2_cfg = _write_config(d / "row2.cfg", ROW2)
        self.small_cfg = _write_config(d / "small.cfg", SMALL)

        # F x P_in x x0: x0 = 0 gives the feasible points, x0 >= lambda/8 the
        # ValidationError points, the rest fail a validity flag.
        self.grid_axes = [("F", 1e4 * jitter(), 1e6 * jitter(), GRID_COUNT, "log"),
                          ("P_in", 1e-8 * jitter(), 1e-3 * jitter(), GRID_COUNT, "log"),
                          ("x0", 0.0, 1e-7 * jitter(), GRID_COUNT, "linear")]
        self.max_axes = [("F", ROW1["F"] / 2 * jitter(), ROW1["F"] * 2 * jitter(), MAX_COUNT, "log"),
                         ("P_in", ROW1["P_in"] / 3 * jitter(), ROW1["P_in"] * 3 * jitter(),
                          MAX_COUNT, "log")]

        self.ring_t = np.linspace(0.0, 6e-6, 200)
        self.ring_y = (1.7 * np.exp(-self.ring_t / (1.145e-6 * jitter())) + 0.2
                       + rng.normal(0.0, 1e-3, self.ring_t.size))
        self.ringdown_csv = _write_columns(d / "ringdown.csv", ["t_s", "power"], self.ring_t, self.ring_y)

        self.mech_t = np.linspace(0.0, 10.0, 300)
        self.mech_y = (0.8 * np.exp(-self.mech_t / (2.67 * jitter()))
                       * (1.0 + rng.normal(0.0, 1e-3, self.mech_t.size)))
        self.mech_csv = _write_columns(d / "mech.csv", ["t_s", "amplitude"], self.mech_t, self.mech_y)

        # Thermally driven oscillator PSD (m = 4e-11 kg, Q_eff = 300, T_eff = 6.8 mK)
        # with 1 % noise and one spur that cool-fit masks with --exclude.
        m, t_eff, omega0 = 4e-11, 6.82e-3, 8.42e5 * jitter()
        gamma = omega0 / 300.0
        omega = np.linspace(omega0 - 60 * gamma, omega0 + 60 * gamma, 1001)
        psd = (4.0 * params.K_B * t_eff * gamma / m) / ((omega0**2 - omega**2) ** 2 + (gamma * omega) ** 2)
        psd = psd * (1.0 + rng.normal(0.0, 0.01, omega.size)) + 1e-36
        spur = 800 + int(rng.integers(-20, 20))
        psd[spur - 2: spur + 3] *= 30.0
        self.psd_f = omega / (2 * np.pi)
        self.psd_y = psd
        step = self.psd_f[1] - self.psd_f[0]
        self.psd_exclude = (float(self.psd_f[spur] - 4 * step), float(self.psd_f[spur] + 4 * step))
        self.psd_csv = _write_columns(d / "psd.csv", ["freq_hz", "psd_m2_per_hz"], self.psd_f, self.psd_y)

        self.trial_seed, self.readout_seed, self.stationary_seed, self.cli_seed = (
            int(s) for s in rng.integers(0, 2**40, 4))


def axes(specs):
    return [sweep.SweepAxis(*spec) for spec in specs]


class Workload:
    name = ""
    item = ""             # what items_per_s counts
    tail_q = 0.9          # tail percentile: at least ten samples beyond it at run_seconds
    warmup = 1            # untimed leading iterations (still checked)
    min_iterations = 3
    fresh_processes = False   # each unit runs in its own process
    speed_window = 2      # in-process kernel timings per speed estimate (see speed.py)

    def __init__(self, inputs: Inputs):
        self.inputs = inputs

    def at_boundary(self, i: int) -> bool:
        return True

    def finish(self) -> list[list[str]]:
        return []

    def peak_rss_kb(self) -> int | None:
        """Peak RSS of the work when it runs outside this process, else None."""
        return None

    def wall(self, result, outer: float) -> float:
        """Wall time of one unit; `outer` is what the loop measured around run()."""
        return outer


class BudgetSweep(Workload):
    name = "budget-sweep"
    item = "points"
    # units are identical, so the tail is host jitter: p90 had quartile
    # spreads of 0.05-0.10 over ten runs
    tail_q = 0.80

    def __init__(self, inputs):
        super().__init__(inputs)
        self.base = params.load_config(inputs.row1_cfg)
        self.axes = axes(inputs.grid_axes)
        self.max_axes = axes(inputs.max_axes)
        self.csv_path = inputs.workdir / "sweep.csv"
        self.meta = {"tool": "memcav-bench", "seed": inputs.seed}
        self.reference = None
        self.maximized = set()
        self.last_grid = None

    def run(self, i, tr):
        n = math.prod(a.count for a in self.axes)
        grid = tr.call("sweep.grid_sweep", n, sweep.grid_sweep, self.base, self.axes)
        header, rows = tr.call("sweep.sweep_rows", n, sweep.sweep_rows, grid)
        tr.call("textio.write_csv", len(rows), textio.write_csv, self.csv_path, header, rows, self.meta)
        opt = tr.call("sweep.maximize_snr", lambda o: o.evaluations,
                      sweep.maximize_snr, self.base, self.max_axes)
        return grid, rows, opt

    def check(self, i, result):
        grid, rows, opt = result
        self.last_grid = grid
        feasible = sum(e.feasible for e in grid.entries)
        failed = sum(e.budget is None for e in grid.entries)
        counts = (feasible, len(grid.entries) - feasible - failed, failed)
        if self.reference is None:
            self.reference = counts
        fails = checks.check_grid_counts(counts, self.reference)
        if len(rows) != len(grid.entries):
            fails.append(f"sweep_rows gave {len(rows)} rows for {len(grid.entries)} points")
        self.maximized.add((opt.feasible, opt.budget.snr if opt.feasible else math.nan))
        return len(grid.entries) + opt.evaluations, fails

    def finish(self):
        b = qnd.jump_budget(self.base)
        grid_best = sweep.grid_sweep(self.base, self.max_axes).best
        best_snr = grid_best.budget.snr if grid_best is not None else math.inf
        opt_fails = []
        for feasible, snr in sorted(self.maximized):
            opt_fails += checks.check_maximize(feasible, snr, best_snr)
        return [checks.check_row1(b.snr, b.tau_total), opt_fails]

    def failed_by_class(self):
        """Classify the last grid's failed points by re-running the budget on them."""
        out = {"ValidationError": 0, "NumericsError": 0}
        for entry in self.last_grid.entries:
            if entry.budget is None:
                try:
                    qnd.jump_budget(entry.params)
                except ValidationError:
                    out["ValidationError"] += 1
                except NumericsError:
                    out["NumericsError"] += 1
        return out


class JumpTrials(Workload):
    name = "jump-trials"
    item = "trials"
    # the tail of ~1e5 trials swung between runs: p99 by 13 %, and p95 had
    # quartile spreads of 0.08-0.12 over ten runs
    tail_q = 0.90
    min_iterations = 200
    # ~2000 trials share each kernel timing; 51 timings (~5 s) average out
    # the kernel's jitter (in one 140 s run, the medians of its 20 s
    # stretches varied by 2.5 % (sd over median) against 4 % with 2 timings)
    speed_window = 51
    CHUNK = 4096

    def __init__(self, inputs):
        super().__init__(inputs)
        self.p = params.load_config(inputs.row2_cfg)
        b = qnd.jump_budget(self.p)
        self.tau_total = b.tau_total
        self.delta_omega = b.delta_omega
        self.bin_width = b.tau_total / 4
        self.window = TRIAL_BINS * self.bin_width
        self.threshold = b.delta_omega            # midway between the n=0 and n=1 levels
        self.trials = self.quiet = 0
        self.fit = checks.LineFit()
        self._x = np.empty((self.CHUNK, TRIAL_BINS))
        self._y = np.empty((self.CHUNK, TRIAL_BINS))
        self._k = 0

    def run(self, i, tr):
        traj = tr.call("jumpsim.simulate_trajectory", lambda t: len(t.times),
                       jumpsim.simulate_trajectory, self.p, self.window,
                       self.inputs.trial_seed + i, include_measurement_channels=True)
        trace = tr.call("jumpsim.binned_readout", TRIAL_BINS, jumpsim.binned_readout,
                        traj, self.p, self.bin_width, self.inputs.readout_seed + i)
        stats = tr.call("jumpsim.jump_detection_stats", TRIAL_BINS,
                        jumpsim.jump_detection_stats, trace, self.threshold)
        return traj, trace, stats

    def check(self, i, result):
        traj, trace, stats = result
        fails = []
        if trace.delta_omega != self.delta_omega:
            fails.append(f"readout delta_omega {trace.delta_omega!r} != budget {self.delta_omega!r}")
        if len(trace.freq_estimates) != TRIAL_BINS or stats.n_jump_bins + stats.n_ground_bins != TRIAL_BINS:
            fails.append(f"trial {i}: expected {TRIAL_BINS} bins")
        else:
            self._x[self._k] = trace.true_n_per_bin
            self._y[self._k] = trace.freq_estimates
            self._k += 1
            if self._k == self.CHUNK:
                self._flush()
        self.trials += 1
        self.quiet += len(traj.times) == 0
        return 1, fails

    def _flush(self):
        self.fit.add(self._x[:self._k], self._y[:self._k])
        self._k = 0

    def finish(self):
        self._flush()
        return [checks.check_no_jump_fraction(self.trials, self.quiet, self.window, self.tau_total),
                checks.check_level_spacing(self.fit, self.delta_omega)]


class JumpStationary(Workload):
    name = "jump-stationary"
    item = "events"
    # ~110 units a run: p90 rests on ~11 of them and had quartile spreads
    # of 0.08-0.09 over ten runs; p80 rests on ~22
    tail_q = 0.80
    min_iterations = 8
    BE_GROUP = 4          # iterations per Bose-Einstein sample

    def __init__(self, inputs):
        super().__init__(inputs)
        self.p = params.load_config(inputs.small_cfg)
        b = qnd.jump_budget(self.p)
        self.threshold = b.delta_omega
        relax = self.p.Q / self.p.omega_m
        # as criterion 9(b): skip 50 relaxation times, then sample every 10
        self.query_t = np.arange(50 * relax, STATIONARY_DURATION_S, 10 * relax)
        self.bin_width = STATIONARY_DURATION_S / STATIONARY_BINS
        self.groups = [np.zeros(checks.BE_LEVELS + 1, dtype=np.int64) for _ in range(2)]
        self.n = 0
        self.total = 0.0

    def run(self, i, tr):
        traj = tr.call("jumpsim.simulate_trajectory", lambda t: len(t.times),
                       jumpsim.simulate_trajectory, self.p, STATIONARY_DURATION_S,
                       self.inputs.stationary_seed + i)
        states = tr.call("jumpsim.state_at", len(self.query_t), traj.state_at, self.query_t)
        trace = tr.call("jumpsim.binned_readout", STATIONARY_BINS, jumpsim.binned_readout,
                        traj, self.p, self.bin_width, self.inputs.readout_seed + i)
        stats = tr.call("jumpsim.jump_detection_stats", STATIONARY_BINS,
                        jumpsim.jump_detection_stats, trace, self.threshold)
        return traj, states, trace, stats

    def check(self, i, result):
        traj, states, trace, stats = result
        fails = []
        if len(traj.times) == 0 or np.any(np.diff(traj.times) <= 0):
            fails.append(f"iteration {i}: event times empty or not increasing")
        if len(trace.freq_estimates) != STATIONARY_BINS or \
                stats.n_jump_bins + stats.n_ground_bins != STATIONARY_BINS:
            fails.append(f"iteration {i}: expected {STATIONARY_BINS} readout bins")
        if np.any(states < 0):
            fails.append(f"iteration {i}: negative occupation")
        group = i // self.BE_GROUP
        if group < len(self.groups):
            self.groups[group] += checks.level_histogram(states)
        self.n += len(states)
        self.total += float(states.sum())
        return len(traj.times), fails

    def finish(self):
        return [checks.check_bose_einstein(self.groups, SMALL_NBAR),
                checks.check_mean_occupation(self.total, self.n, SMALL_NBAR)]


CLI_NAMES = ["qnd-budget", "bandstructure", "transmission-map", "ringdown-fit",
             "mech-ringdown-fit", "cool-fit", "jump-sim", "jump-stats", "sweep"]


def cli_commands(inputs: Inputs):
    """The README's nine commands on the generated inputs: (name, args, outputs)."""
    seed = str(inputs.cli_seed)
    lo, hi = inputs.psd_exclude
    return [
        ("qnd-budget", ["--config", "row1.cfg", "-o", "budget.json"], ["budget.json"]),
        ("bandstructure", ["--rc", "0.31", "--length", "0.067", "--wavelength", "5.32e-7",
                           "-o", "bands.csv"], ["bands.csv"]),
        ("transmission-map", ["--rc", "0.31", "--finesse", "200", "--length", "1.0",
                              "--wavelength", "5.32e-7", "--det-min=-1e9", "--det-max=1e9",
                              "-o", "map.csv"], ["map.csv"]),
        ("ringdown-fit", ["-i", "ringdown.csv", "--length", "0.067", "-o", "fit.json"], ["fit.json"]),
        ("mech-ringdown-fit", ["-i", "mech.csv", "--omega-m", "8.42e5", "-o", "mechfit.json"],
         ["mechfit.json"]),
        ("cool-fit", ["-i", "psd.csv", "--mass", "4e-11", "--omega-m", "8.42e5", "--t-bath", "294",
                      "--q-intrinsic", "1.1e6", f"--exclude={lo!r}:{hi!r}", "-o", "coolfit.json"],
         ["coolfit.json"]),
        ("jump-sim", ["--config", "row1.cfg", "--seed", seed, "--duration", str(CLI_JUMP_SIM_S),
                      "--channels", "--readout", "readout.csv", "--bin-width", "7e-5",
                      "-o", "trajectory.csv"], ["trajectory.csv", "readout.csv"]),
        ("jump-stats", ["--config", "row1.cfg", "--seed", seed, "--duration", str(CLI_JUMP_STATS_S),
                        "--bin-width", "1e-3", "--threshold", "0.12", "-o", "stats.json"],
         ["stats.json"]),
        ("sweep", ["--config", "row1.cfg", "--axis", "F:3e5:6e5:2:log",
                   "--axis", "P_in:1e-6:1e-5:2:log", "--best", "best.json", "-o", "sweep.csv"],
         ["sweep.csv", "best.json"]),
    ]


CLI_ENTRY = "import sys; from memcav.cli import main; main()"


def child_env(src: Path) -> dict:
    """This process's environment (thread caps included) with memcav on the path."""
    return dict(os.environ, PYTHONPATH=str(src))


def spawn_cli(workdir: Path, env: dict, name: str, args, outputs):
    """One memcav command as a fresh process, as the installed ``memcav`` script runs it."""
    for out in outputs:
        (workdir / out).unlink(missing_ok=True)
    return run_child([sys.executable, "-c", CLI_ENTRY, name, *args], workdir, env, CHILD_TIMEOUT_S)


class CliReadme(Workload):
    """Each README command as a fresh process, cycling through the nine."""

    name = "cli-readme"
    item = "commands"
    tail_q = 0.60
    warmup = 0
    fresh_processes = True
    # three whole cycles: every command at least twice for the byte-identity
    # check, and 27 samples, so the 60th percentile has ten beyond it
    min_iterations = 3 * len(CLI_NAMES)

    def __init__(self, inputs, src: Path):
        super().__init__(inputs)
        self.commands = cli_commands(inputs)
        self.env = child_env(src)
        self.first: dict[tuple, bytes] = {}
        self.children: dict[str, list] = {name: [] for name in CLI_NAMES}
        self.report = None

    def at_boundary(self, i):
        return i % len(self.commands) == 0

    def run(self, i, tr):
        name, args, outputs = self.commands[i % len(self.commands)]
        child = tr.call(f"cli.{name}", 1, spawn_cli, self.inputs.workdir, self.env, name, args, outputs)
        self.children[name].append(child)
        return name, outputs, child

    def wall(self, result, outer):
        return result[2].wall_s

    def check(self, i, result):
        name, outputs, child = result
        fails = checks.check_exit(name, child.code, child.stderr)
        if fails:
            return 1, fails
        for out in outputs:
            path = self.inputs.workdir / out
            if not path.is_file():
                fails.append(f"{name}: no {out} written")
                continue
            data = path.read_bytes()
            first = self.first.setdefault((name, out), data)
            fails += checks.check_identical(name, out, first, data)
            if name == "qnd-budget":
                if self.report is None:
                    report = qnd.budget_report(params.load_config(self.inputs.row1_cfg))
                    self.report = json.loads(json.dumps(report))
                fails += checks.check_budget_json(json.loads(data), self.report)
        return 1, fails

    def finish(self):
        once = [name for name, runs in self.children.items() if len(runs) < 2]
        if once:
            return [[f"commands run fewer than twice, byte-identity unchecked: {once}"]]
        return [[]]

    def peak_rss_kb(self):
        return max(c.rss_kb for runs in self.children.values() for c in runs)


WORKLOADS = {w.name: w for w in (BudgetSweep, JumpTrials, JumpStationary, CliReadme)}


def make(name: str, inputs: Inputs, src: Path) -> Workload:
    cls = WORKLOADS[name]
    return cls(inputs, src) if cls is CliReadme else cls(inputs)
