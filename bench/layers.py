"""Per-layer metrics of the traced run, from workload spans and probes.

A time metric comes from the workload's own spans when the workload calls
that function itself.  Otherwise the function is reached only through
another layer (``qnd`` under ``grid_sweep``) or not at all, and the traced
run calls it directly as a probe: on the workload's inputs where it has
them, else on the inputs the other workloads use.  Probe spans are marked
as such and never counted as a layer's self time.

Counts are totals over the traced phase.  A layer the workload does not
reach has count 0.
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np

from memcav import cavity, cooling, fitting, jumpsim, mechanics, params, qnd, sweep, textio
from memcav.errors import MemcavError

import workloads as wl
from proc import run_child

NS = {"ns": 1.0, "us": 1e-3, "ms": 1e-6, "s": 1e-9}

# metric -> (workload span, probe span, normaliser, unit); "call" divides
# self time by calls, "item" by the items the spans handled.  The cli.*
# metrics come from the children's own reports instead (see proc.py).
TIME_METRICS = {
    "params.load_config_us": ("params.load_config", "params.load_config", "call", "us"),
    "params.validate_us": ("params.validate", "params.validate", "call", "us"),
    "qnd.jump_budget_us": (None, "qnd.jump_budget", "call", "us"),
    "sweep.grid_us_per_point": ("sweep.grid_sweep", "sweep.grid_sweep", "item", "us"),
    "sweep.rows_us_per_point": ("sweep.sweep_rows", "sweep.sweep_rows", "item", "us"),
    "sweep.maximize_us_per_eval": ("sweep.maximize_snr", "sweep.maximize_snr", "item", "us"),
    "jumpsim.simulate_us_per_trial": ("jumpsim.simulate_trajectory", "jumpsim.simulate_trajectory",
                                      "call", "us"),
    "jumpsim.simulate_ns_per_event": ("jumpsim.simulate_trajectory", "jumpsim.simulate_long",
                                      "item", "ns"),
    "jumpsim.readout_ns_per_bin": ("jumpsim.binned_readout", "jumpsim.binned_readout", "item", "ns"),
    "jumpsim.state_at_ns_per_query": ("jumpsim.state_at", "jumpsim.state_at", "item", "ns"),
    "jumpsim.detect_us": ("jumpsim.jump_detection_stats", "jumpsim.jump_detection_stats",
                          "call", "us"),
    "cavity.transmission_map_ns_per_cell": (None, "cavity.transmission_map", "item", "ns"),
    "cavity.band_structure_us": (None, "cavity.band_structure", "call", "us"),
    "cavity.locate_resonance_ms": (None, "cavity.locate_resonance", "call", "ms"),
    "mechanics.fit_mech_ringdown_ms": (None, "mechanics.fit_mech_ringdown", "call", "ms"),
    "fitting.exp_decay_fit_ms": (None, "fitting.fit_exponential_decay", "call", "ms"),
    "cooling.fit_psd_ms": (None, "cooling.fit_psd", "call", "ms"),
    "textio.write_csv_ns_per_row": ("textio.write_csv", "textio.write_csv", "item", "ns"),
    "textio.read_csv_ns_per_row": (None, "textio.read_csv", "item", "ns"),
    "textio.write_json_us": (None, "textio.write_json", "call", "us"),
}

PROBE_MIN_S = 0.03      # repeat a probe until it has run this long ...
PROBE_MAX_CALLS = 2000  # ... or this many times
CLI_PROBE_REPEATS = 3


def _repeat(tr, name, items, fn, *args, **kwargs):
    t_end = time.perf_counter() + PROBE_MIN_S
    for k in range(PROBE_MAX_CALLS):
        result = tr.call(name, items, fn, *args, **kwargs)
        if k >= 2 and time.perf_counter() >= t_end:
            break
    return result


class Probes:
    """Direct calls into each layer, one method per probe span."""

    def __init__(self, tr, work: wl.Workload, src):
        self.tr = tr
        self.work = work
        self.inputs = work.inputs
        self.src = src
        self.p = getattr(work, "p", None) or getattr(work, "base", None) \
            or params.load_config(self.inputs.row1_cfg)
        self.cfg = {"budget-sweep": self.inputs.row1_cfg, "jump-trials": self.inputs.row2_cfg,
                    "jump-stationary": self.inputs.small_cfg}.get(work.name, self.inputs.row1_cfg)
        self.env = wl.child_env(src)
        self.failed_by_class = {"ValidationError": 0, "NumericsError": 0}
        self.children: dict[str, list] = {}

    def run(self, span: str) -> None:
        if span.startswith("cli.") and span[4:] in wl.CLI_NAMES:
            self.cli_command(span[4:])
        else:
            getattr(self, "probe_" + span.replace(".", "_"))()

    def probe_params_load_config(self):
        _repeat(self.tr, "params.load_config", 1, params.load_config, self.cfg)

    def probe_params_validate(self):
        _repeat(self.tr, "params.validate", 1, params.validate, self.p)

    def probe_qnd_jump_budget(self):
        grid = getattr(self.work, "last_grid", None)
        if grid is None:
            _repeat(self.tr, "qnd.jump_budget", 1, qnd.jump_budget, self.p)
            return
        # the points grid_sweep evaluated, failures included
        for entry in grid.entries:
            try:
                self.tr.call("qnd.jump_budget", 1, qnd.jump_budget, entry.params)
            except MemcavError:
                pass
        self.failed_by_class = self.work.failed_by_class()

    def _small_grid(self):
        axes = wl.axes([spec[:3] + (5,) + spec[4:] for spec in self.inputs.grid_axes])
        return params.load_config(self.inputs.row1_cfg), axes

    def probe_sweep_grid_sweep(self):
        base, axes = self._small_grid()
        _repeat(self.tr, "sweep.grid_sweep", 125, sweep.grid_sweep, base, axes)

    def probe_sweep_sweep_rows(self):
        base, axes = self._small_grid()
        grid = sweep.grid_sweep(base, axes)
        _repeat(self.tr, "sweep.sweep_rows", 125, sweep.sweep_rows, grid)

    def probe_sweep_maximize_snr(self):
        base = params.load_config(self.inputs.row1_cfg)
        _repeat(self.tr, "sweep.maximize_snr", lambda o: o.evaluations,
                sweep.maximize_snr, base, wl.axes(self.inputs.max_axes))

    def probe_textio_write_csv(self):
        base, axes = self._small_grid()
        header, rows = sweep.sweep_rows(sweep.grid_sweep(base, axes))
        _repeat(self.tr, "textio.write_csv", len(rows), textio.write_csv,
                self.inputs.workdir / "probe.csv", header, rows, {"tool": "memcav-bench"})

    def probe_textio_read_csv(self):
        _repeat(self.tr, "textio.read_csv", len(self.inputs.psd_f), textio.read_csv, self.inputs.psd_csv)

    def probe_textio_write_json(self):
        report = qnd.budget_report(params.load_config(self.inputs.row1_cfg))
        _repeat(self.tr, "textio.write_json", 1, textio.write_json,
                self.inputs.workdir / "probe.json", report, {"tool": "memcav-bench"})

    def probe_jumpsim_simulate_trajectory(self):
        row2 = params.load_config(self.inputs.row2_cfg)
        window = wl.TRIAL_BINS * qnd.jump_budget(row2).tau_total / 4
        for k in range(200):
            self.tr.call("jumpsim.simulate_trajectory", lambda t: len(t.times),
                         jumpsim.simulate_trajectory, row2, window, self.inputs.trial_seed + k,
                         include_measurement_channels=True)

    def _long(self):
        small = params.load_config(self.inputs.small_cfg)
        traj = jumpsim.simulate_trajectory(small, 0.1, self.inputs.stationary_seed)
        return small, traj

    def probe_jumpsim_simulate_long(self):
        small = params.load_config(self.inputs.small_cfg)
        self.tr.call("jumpsim.simulate_long", lambda t: len(t.times),
                     jumpsim.simulate_trajectory, small, 0.1, self.inputs.stationary_seed)

    def probe_jumpsim_binned_readout(self):
        small, traj = self._long()
        _repeat(self.tr, "jumpsim.binned_readout", 10_000, jumpsim.binned_readout,
                traj, small, 1e-5, self.inputs.readout_seed)

    def probe_jumpsim_state_at(self):
        small, traj = self._long()
        t = np.linspace(0.0, 0.1, 1000, endpoint=False)
        _repeat(self.tr, "jumpsim.state_at", len(t), traj.state_at, t)

    def probe_jumpsim_jump_detection_stats(self):
        small, traj = self._long()
        trace = jumpsim.binned_readout(traj, small, 1e-5, self.inputs.readout_seed)
        _repeat(self.tr, "jumpsim.jump_detection_stats", 1, jumpsim.jump_detection_stats,
                trace, qnd.jump_budget(small).delta_omega)

    # the README's optics commands, in-process on the same arguments
    def probe_cavity_transmission_map(self):
        lam = 5.32e-7
        det = np.linspace(-1e9, 1e9, 101)
        xs = np.linspace(0.0, lam / 2, 101)
        _repeat(self.tr, "cavity.transmission_map", det.size * xs.size, cavity.transmission_map,
                200.0, 1.0, lam, det, xs, r_c=0.31)

    def probe_cavity_band_structure(self):
        lam = 5.32e-7
        _repeat(self.tr, "cavity.band_structure", 1, cavity.band_structure,
                0.31, 0.067, lam, (0.0, lam / 2), 201, 4)

    def probe_cavity_locate_resonance(self):
        L, lam = 1.0, 5.32e-7
        fsr = cavity.omega_fsr(L)
        _repeat(self.tr, "cavity.locate_resonance", 1, cavity.locate_resonance,
                0.0, round(2 * L / lam) * fsr, 1.05 * fsr, 200.0, L, r_c=0.31)

    def probe_mechanics_fit_mech_ringdown(self):
        _repeat(self.tr, "mechanics.fit_mech_ringdown", 1, mechanics.fit_mech_ringdown,
                self.inputs.mech_t, self.inputs.mech_y)

    def probe_fitting_fit_exponential_decay(self):
        _repeat(self.tr, "fitting.fit_exponential_decay", 1, fitting.fit_exponential_decay,
                self.inputs.ring_t, self.inputs.ring_y)

    def probe_cooling_fit_psd(self):
        _repeat(self.tr, "cooling.fit_psd", 1, cooling.fit_psd, self.inputs.psd_f, self.inputs.psd_y,
                m=4e-11, omega_m=8.42e5, t_bath=294.0, q_intrinsic=1.1e6,
                exclude_bands=[self.inputs.psd_exclude])

    def _python(self, name, code):
        for _ in range(CLI_PROBE_REPEATS):
            child = self.tr.call(name, 1, run_child, [sys.executable, "-c", code],
                                 self.inputs.workdir, self.env, wl.CHILD_TIMEOUT_S)
            self.children.setdefault(name, []).append(child)

    def probe_cli_python_startup(self):
        self._python("python_startup", "pass")

    def probe_cli_import(self):
        self._python("import", "import memcav.cli")

    def cli_command(self, name):
        args, outputs = next((a, o) for n, a, o in wl.cli_commands(self.inputs) if n == name)
        child = self.tr.call(f"cli.{name}", 1, wl.spawn_cli, self.inputs.workdir, self.env,
                             name, args, outputs)
        self.children.setdefault(name, []).append(child)


def _time_value(row, per, unit):
    calls, self_ns, items = row
    return (self_ns / items if per == "item" else self_ns / calls) * NS[unit]


def layer_metrics(tr, work: wl.Workload, src, untraced_p50: float, traced_p50: float,
                  iterations: int) -> dict:
    """Every per-layer metric: name -> value, in the unit its BENCHMARK.json entry gives."""
    own = tr.totals(probe=False)
    tr.probing = True
    probes = Probes(tr, work, src)
    needed = ["qnd.jump_budget", "cli.python_startup", "cli.import"]
    for span, probe_span, _, _ in TIME_METRICS.values():
        if span not in own and probe_span not in needed:
            needed.append(probe_span)
    if not isinstance(work, wl.CliReadme):
        needed += [f"cli.{name}" for name in wl.CLI_NAMES]
    for span in needed:
        probes.run(span)
    tr.probing = False
    probed = tr.totals(probe=True)

    out = {}
    for metric, (span, probe_span, per, unit) in TIME_METRICS.items():
        out[metric] = _time_value(own.get(span) or probed[probe_span], per, unit)

    # fresh processes: wall time and peak RSS as each child reports them
    children = dict(probes.children, **getattr(work, "children", {}))
    startup = statistics.median(c.wall_s for c in children["python_startup"])
    out["cli.python_startup_s"] = startup
    out["cli.import_s"] = statistics.median(c.wall_s for c in children["import"]) - startup
    for name in wl.CLI_NAMES:
        out[f"cli.{name}.wall_s"] = statistics.median(c.wall_s for c in children[name])
        out[f"cli.{name}.peak_rss_mb"] = max(c.rss_kb for c in children[name]) / 1024.0

    def count(span, k):
        return own[span][k] if span in own else 0

    failed = probes.failed_by_class
    grids = count("sweep.grid_sweep", 0)
    reference = getattr(work, "reference", None)
    simulated = [s for s in tr.spans if s[0] == "jumpsim.simulate_trajectory" and not s[5]]
    out.update({
        "qnd.calls": sum(c.calls for c in tr.counters),
        "sweep.points": count("sweep.grid_sweep", 2),
        "sweep.points_failed.ValidationError": failed["ValidationError"] * grids,
        "sweep.points_failed.NumericsError": failed["NumericsError"] * grids,
        "sweep.feasible_ratio": reference[0] / sum(reference) if reference else 0.0,
        "sweep.maximize_evals": count("sweep.maximize_snr", 2),
        "jumpsim.trials": len(simulated),
        "jumpsim.trials_jumped_ratio":
            sum(s[6] > 0 for s in simulated) / len(simulated) if simulated else 0.0,
        "jumpsim.events": count("jumpsim.simulate_trajectory", 2),
        "jumpsim.bins": count("jumpsim.binned_readout", 2),
        "trace.overhead_ratio": traced_p50 / untraced_p50,
        "trace.spans": len(tr.spans),
        "bench.iterations": iterations,
    })
    return out
