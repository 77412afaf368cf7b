"""Command-line frontend.

Each subcommand reads plain files and returns its CSV/JSON outputs, with a
metadata echo (tool version, resolved parameters, seeds), as (writer, path,
*body) tuples.  run() alone writes them; on a failure it removes each file
the run created (a path that existed before stays).  Nothing is
time-dependent, so identical invocations give byte-identical outputs.
Exit codes: 0 success, 1 validation/config error, 2 numerical or fit error.
Each command imports the modules it runs inside its function, after it has
read its config, so that a fresh process loads no other: qnd-budget,
--help, --version, a usage error and a config error load no numpy.

main(), the `memcav` script, flushes stdout and stderr once run() returns
and then ends the process with os._exit: the interpreter's teardown, which
clears numpy's modules (~20 ms), and atexit hooks do not run.  Profilers,
coverage and other atexit users call run(argv), which returns the exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys

from . import __version__
from .errors import MemcavError, NumericsError, ValidationError
from .params import (MAX_SWEEP_POINTS, MembraneSpec, as_dict, attr_name, load_config,
                     require_positive)
from .textio import Table, read_csv, write_csv, write_json


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)

    def _print_message(self, message, file=None):
        try:   # argparse's own drops the OSError that an unbuffered stdout raises here
            print(message, end="", file=file or sys.stderr)   # a None stream (pythonw) drops it
        except OSError as exc:
            raise MemcavError(f"cannot write stdout: {exc}") from None


def _seed(text: str) -> int:
    """argparse type for RNG seeds: a non-negative integer."""
    try:
        value = int(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")


def _base_metadata(args, p=None) -> dict:
    meta = {"tool": "memcav", "version": __version__, "command": args.command}
    if p is not None:
        meta.update({f"param_{key}": val for key, val in as_dict(p).items()})
    return meta


# ExperimentParams attribute -> optics flag dest (the flag is "--" + dest)
_OPTICS_FLAGS = {"r_c": "rc", "F": "finesse", "L": "length", "lam": "wavelength"}


def _optics(args, required) -> tuple:
    """(r_c, F, L, lam) from --config or, without one, from the optics flags.

    The two sources exclude each other.  Without a config, each name in
    `required` must come from its flag; the others may be None.
    """
    flags = {name: getattr(args, dest, None) for name, dest in _OPTICS_FLAGS.items()}
    if args.config:
        given = [f"--{_OPTICS_FLAGS[name]}" for name, val in flags.items() if val is not None]
        if given:
            raise ValidationError(f"--config excludes {', '.join(given)}")
        p = load_config(args.config)
        return tuple(getattr(p, name) for name in flags)
    missing = [f"--{_OPTICS_FLAGS[name]}" for name in required if flags[name] is None]
    if missing:
        raise ValidationError(f"provide --config or {'/'.join(missing)}")
    return tuple(flags.values())


# The caps below bound the work, the memory and the output of each command.
# tests/test_cli.py::test_command_at_its_caps_stays_bounded runs the optics
# commands at their caps and bounds their peak memory; the README's
# "Resource caps" table lists what each cap costs.
#
# Largest sample counts of the optics commands, checked before anything is
# allocated: they bound the cells each command computes and writes.
MAX_SAMPLES = 100_000     # bandstructure --samples
MAX_BANDS = 20            # bandstructure --bands
MAX_MAP_SAMPLES = 1000    # transmission-map --det-samples and --x-samples
# Largest sweep --refine-iters, checked before the grid: it bounds the rounds
# of --maximize, each at most 44 budget evaluations per axis (a line search
# already run, on the same bracket and other coordinates, is skipped).
# Refinement stops after a round that moves nothing, so most runs end after
# one or two rounds and no test runs this many;
# test_bad_input_exits_without_traceback checks the flag's range.
MAX_REFINE_ITERS = 1000


def _count(count: int, cap: int, flag: str, lowest: int = 1) -> int:
    """A count flag: at least `lowest` and at most its cap."""
    if not lowest <= count <= cap:
        raise ValidationError(f"{flag} must be between {lowest} and {cap} (got {count})")
    return count


def _span(lo: float, hi: float, flags: str) -> tuple[float, float]:
    """The ends of a sampled interval from the command line, which must be finite."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValidationError(f"{flags} must be finite (got {lo} and {hi})")
    return lo, hi


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _requires(args, dest: str, partner: str) -> None:
    """The flag of `dest` is taken only together with that of `partner`."""
    if getattr(args, dest) is not None and getattr(args, partner) is None:
        raise ValidationError(f"{_flag(dest)} requires {_flag(partner)}")


def _positive(args, *dests: str) -> None:
    """The given scalar flags must be positive and finite; fits check before reading input."""
    require_positive(**{_flag(dest): getattr(args, dest) for dest in dests
                        if getattr(args, dest) is not None})


def _x_span(args, lam: float) -> tuple[float, float]:
    """--xmin/--xmax, the upper end defaulting to lambda/2."""
    xmax = args.xmax if args.xmax is not None else lam / 2.0
    return _span(args.xmin, xmax, "--xmin/--xmax")


def _cmd_bandstructure(args) -> list:
    samples = _count(args.samples, MAX_SAMPLES, "--samples", lowest=2)
    bands = _count(args.bands, MAX_BANDS, "--bands")
    r_c, _, L, lam = _optics(args, ("r_c", "L", "lam"))
    from . import cavity
    bs = cavity.band_structure(r_c, L, lam, _x_span(args, lam), samples, bands)
    header, rows = cavity.band_structure_rows(bs)
    meta = _base_metadata(args)
    meta.update({"r_c": r_c, "L": L, "lambda": lam, "omega_fsr_rad_s": bs.omega_fsr})
    return [(write_csv, args.output, header, rows, meta)]


def _cmd_transmission_map(args) -> list:
    det_samples = _count(args.det_samples, MAX_MAP_SAMPLES, "--det-samples")
    x_samples = _count(args.x_samples, MAX_MAP_SAMPLES, "--x-samples")
    _requires(args, "membrane_index", "membrane_thickness")
    _requires(args, "membrane_thickness", "membrane_index")
    if args.membrane_index is not None and args.rc is not None:
        raise ValidationError("--membrane-index excludes --rc")
    membrane = (None if args.membrane_index is None
                else MembraneSpec(args.membrane_index, args.membrane_thickness))
    r_c, F, L, lam = _optics(args, ("F", "L", "lam") if membrane else ("r_c", "F", "L", "lam"))
    if membrane:
        r_c = None
    import numpy as np
    from . import cavity
    det = np.linspace(*_span(args.det_min, args.det_max, "--det-min/--det-max"), det_samples)
    xs = np.linspace(*_x_span(args, lam), x_samples)
    tm = cavity.transmission_map(F, L, lam, det, xs, r_c=r_c, membrane=membrane)
    header, rows = cavity.transmission_rows(tm)
    meta = _base_metadata(args)
    meta.update({"finesse": F, "L": L, "lambda": lam,
                 "omega_base_rad_s": tm.omega_base})
    if r_c is not None:
        meta["r_c"] = r_c
    else:
        meta["membrane_index"] = membrane.n_index
        meta["membrane_thickness_m"] = membrane.d
    return [(write_csv, args.output, header, rows, meta)]


def _columns(path, x_name: str, y_name: str) -> tuple:
    """Two columns of a CSV, whose samples must be finite; errors name the columns."""
    from . import fitting
    cols = read_csv(path)
    if x_name not in cols or y_name not in cols:
        raise ValidationError(f"{path}: needs columns {x_name}, {y_name}")
    # each fit checks its own minimum sample count
    return fitting.check_samples(cols[x_name], cols[y_name], (x_name, y_name), 0)


def _cmd_ringdown_fit(args) -> list:
    from . import cavity, fitting
    _positive(args, "length")
    fit = fitting.fit_exponential_decay(*_columns(args.input, "t_s", "power"))
    payload = {"tau_s": fit.tau, "amplitude": fit.amplitude, "offset": fit.offset,
               "residual_rms": fit.residual_rms}
    if args.length is not None:
        payload["finesse"] = cavity.finesse_from_decay(fit.tau, args.length)
    return [(write_json, args.output, payload, _base_metadata(args))]


def _cmd_mech_ringdown_fit(args) -> list:
    from . import mechanics
    _positive(args, "omega_m")
    tau = mechanics.fit_mech_ringdown(*_columns(args.input, "t_s", "amplitude"))
    payload = {"tau_s": tau}
    if args.omega_m is not None:
        payload["Q"] = mechanics.q_from_ringdown(tau, args.omega_m)
    return [(write_json, args.output, payload, _base_metadata(args))]


def _cmd_cool_fit(args) -> list:
    from . import cooling
    _requires(args, "omega_m", "mass")
    _requires(args, "q_intrinsic", "t_bath")
    _requires(args, "t_bath", "q_intrinsic")
    _positive(args, "mass", "omega_m", "t_bath", "q_intrinsic")
    exclude = []
    for band in args.exclude or []:
        lo, _, hi = band.partition(":")
        try:
            exclude.append((float(lo), float(hi)))
        except ValueError:
            raise ValidationError(f"bad --exclude band '{band}', expected lo:hi") from None
    freq, psd = _columns(args.input, "freq_hz", "psd_m2_per_hz")
    trace = cooling.fit_psd(freq, psd, m=args.mass, omega_m=args.omega_m,
                            t_bath=args.t_bath, q_intrinsic=args.q_intrinsic,
                            exclude_bands=exclude)
    return [(write_json, args.output, vars(trace.fit), _base_metadata(args))]


def _cmd_qnd_budget(args) -> list:
    from . import qnd
    p = load_config(args.config)
    return [(write_json, args.output, qnd.budget_report(p), _base_metadata(args, p))]


def _simulate(args, threshold=None):
    """Simulate the configured trajectory and, given --bin-width, its readout.

    Returns (trajectory, readout, metadata, readout metadata); the readout
    and its metadata are None without a bin width.  The bin width and a
    detection threshold are checked before anything is simulated.
    """
    p = load_config(args.config)
    from . import jumpsim, qnd
    if args.bin_width is not None:
        jumpsim.readout_bins(args.duration, args.bin_width)
    if threshold is not None:
        jumpsim.check_threshold(threshold, qnd.detuning_per_phonon(p))
    traj = jumpsim.simulate_trajectory(p, args.duration, args.seed,
                                       include_measurement_channels=args.channels)
    meta = _base_metadata(args, p)
    meta.update({"seed": args.seed, "duration_s": args.duration,
                 "rng": jumpsim.RNG_ALGORITHM, "rng_stream": jumpsim.RNG_STREAM,
                 "measurement_channels": args.channels})
    if args.bin_width is None:
        return traj, None, meta, None
    trace = jumpsim.binned_readout(traj, p, args.bin_width, args.readout_seed)
    meta_r = {**meta, "bin_width_s": trace.bin_width, "readout_seed": args.readout_seed}
    return traj, trace, meta, meta_r


def _cmd_jump_sim(args) -> list:
    _requires(args, "readout", "bin_width")
    _requires(args, "bin_width", "readout")
    traj, trace, meta, meta_r = _simulate(args)
    outputs = [(write_csv, args.output, ["t_s", "n"], Table(traj.times, traj.levels), meta)]
    if trace is not None:
        meta_r.update({"delta_omega_rad_s": trace.delta_omega,
                       "noise_sigma_rad_s": trace.noise_sigma})
        outputs.append((write_csv, args.readout, ["t_s", "freq_estimate_rad_s", "true_n"],
                        Table(trace.bin_centers, trace.freq_estimates, trace.true_n_per_bin),
                        meta_r))
    return outputs


def _cmd_jump_stats(args) -> list:
    _, trace, _, meta_r = _simulate(args, args.threshold)
    from . import jumpsim
    stats = jumpsim.jump_detection_stats(trace, args.threshold)
    payload = {
        "detection_probability": stats.detection_probability,
        "false_alarm_rate": stats.false_alarm_rate,
        "n_jump_bins": stats.n_jump_bins,
        "n_ground_bins": stats.n_ground_bins,
        "threshold_rad_s": stats.threshold,
        "delta_omega_rad_s": trace.delta_omega,
        "noise_sigma_rad_s": trace.noise_sigma,
    }
    return [(write_json, args.output, payload, meta_r)]


def _parse_axis(text: str) -> sweep.SweepAxis:
    from . import sweep
    parts = text.split(":")
    if len(parts) not in (4, 5):
        raise ValidationError(
            f"bad --axis '{text}', expected name:min:max:count[:scale]")
    name, lo, hi, count = parts[:4]
    scale = parts[4] if len(parts) == 5 else "linear"
    try:
        lo, hi, count = float(lo), float(hi), int(count)
        attr_name(name)
    except (ValueError, ValidationError) as exc:
        raise ValidationError(f"bad --axis '{text}': {exc}") from None
    return sweep.SweepAxis(name, lo, hi, count, scale)


def _cmd_sweep(args) -> list:
    _requires(args, "maximize", "best")
    refine_iters = (3 if args.refine_iters is None else
                    _count(args.refine_iters, MAX_REFINE_ITERS, "--refine-iters", lowest=0))
    _requires(args, "refine_iters", "maximize")
    p = load_config(args.config)
    from . import sweep
    axes = [_parse_axis(a) for a in args.axis]
    result = sweep.grid_sweep(p, axes)
    meta = _base_metadata(args, p)
    for i, axis in enumerate(axes):
        meta[f"axis_{i}"] = (f"{axis.param_name}:{axis.minimum}:{axis.maximum}"
                             f":{axis.count}:{axis.scale}")
    outputs = []
    if args.best is not None:
        # an OptimizeResult, or the best SweepEntry (None if no grid point is feasible)
        best = (sweep.maximize_snr(p, axes, refine_iters=refine_iters, grid=result)
                if args.maximize else result.best)
        payload = {"feasible": False}
        if best is not None and best.feasible:
            payload = {"feasible": True, "best_params": as_dict(best.params),
                       "snr": best.budget.snr, "tau_total_s": best.budget.tau_total}
        outputs.append((write_json, args.best, payload, meta))
    return [(write_csv, args.output, *sweep.sweep_rows(result), meta), *outputs]


def build_parser() -> _Parser:
    parser = _Parser(prog="memcav",
                     description="Membrane-in-the-middle cavity optomechanics toolkit")
    parser.add_argument("--version", action="version", version=f"memcav {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", "-o", required=True, help="output file path")

    optics = argparse.ArgumentParser(add_help=False, parents=[output])
    optics.add_argument("--config", help="take the optics from this config, not from flags")
    optics.add_argument("--rc", type=float)
    optics.add_argument("--length", type=float, help="cavity length [m]")
    optics.add_argument("--wavelength", type=float, help="laser wavelength [m]")
    optics.add_argument("--xmin", type=float, default=0.0)
    optics.add_argument("--xmax", type=float, help="default lambda/2")

    config = argparse.ArgumentParser(add_help=False, parents=[output])
    config.add_argument("--config", required=True)

    jump = argparse.ArgumentParser(add_help=False, parents=[config])
    jump.add_argument("--seed", type=_seed, required=True)
    jump.add_argument("--duration", type=float, required=True, help="seconds")
    jump.add_argument("--channels", action="store_true",
                      help="include the ground-state measurement channels")
    jump.add_argument("--readout-seed", type=_seed, dest="readout_seed", default=0)

    sp = sub.add_parser("bandstructure", parents=[optics],
                        help="sample the dispersive band structure")
    sp.add_argument("--samples", type=int, default=201,
                    help=f"points along x (default 201, 2 to {MAX_SAMPLES})")
    sp.add_argument("--bands", type=int, default=4,
                    help=f"bands to sample (default 4, at most {MAX_BANDS})")
    sp.set_defaults(func=_cmd_bandstructure)

    sp = sub.add_parser("transmission-map", parents=[optics],
                        help="transfer-matrix transmission map")
    sp.add_argument("--finesse", type=float)
    sp.add_argument("--membrane-index", type=float)
    sp.add_argument("--membrane-thickness", type=float)
    sp.add_argument("--det-min", type=float, required=True)
    sp.add_argument("--det-max", type=float, required=True)
    sp.add_argument("--det-samples", type=int, default=101,
                    help=f"detunings (default 101, at most {MAX_MAP_SAMPLES})")
    sp.add_argument("--x-samples", type=int, default=101,
                    help=f"membrane positions (default 101, at most {MAX_MAP_SAMPLES})")
    sp.set_defaults(func=_cmd_transmission_map)

    sp = sub.add_parser("ringdown-fit", parents=[output], help="fit a cavity ringdown trace")
    sp.add_argument("--input", "-i", required=True, help="CSV with t_s,power")
    sp.add_argument("--length", type=float, help="cavity length for finesse [m]")
    sp.set_defaults(func=_cmd_ringdown_fit)

    sp = sub.add_parser("mech-ringdown-fit", parents=[output],
                        help="fit a mechanical ringdown envelope")
    sp.add_argument("--input", "-i", required=True, help="CSV with t_s,amplitude")
    sp.add_argument("--omega-m", type=float, dest="omega_m",
                    help="mechanical frequency for Q [rad/s]")
    sp.set_defaults(func=_cmd_mech_ringdown_fit)

    sp = sub.add_parser("cool-fit", parents=[output], help="fit a displacement PSD")
    sp.add_argument("--input", "-i", required=True, help="CSV with freq_hz,psd_m2_per_hz")
    sp.add_argument("--mass", type=float)
    sp.add_argument("--omega-m", type=float, dest="omega_m")
    sp.add_argument("--t-bath", type=float, dest="t_bath")
    sp.add_argument("--q-intrinsic", type=float, dest="q_intrinsic")
    sp.add_argument("--exclude", action="append", metavar="LO:HI",
                    help="frequency band [Hz] to mask, repeatable")
    sp.set_defaults(func=_cmd_cool_fit)

    sp = sub.add_parser("qnd-budget", parents=[config], help="analytic jump budget as JSON")
    sp.set_defaults(func=_cmd_qnd_budget)

    sp = sub.add_parser("jump-sim", parents=[jump], help="simulate a phonon jump trajectory")
    sp.add_argument("--readout", help="also write a binned readout CSV here")
    sp.add_argument("--bin-width", type=float, dest="bin_width")
    sp.set_defaults(func=_cmd_jump_sim)

    sp = sub.add_parser("jump-stats", parents=[jump], help="threshold detection statistics")
    sp.add_argument("--bin-width", type=float, dest="bin_width", required=True)
    sp.add_argument("--threshold", type=float, required=True, help="rad/s")
    sp.set_defaults(func=_cmd_jump_stats)

    sp = sub.add_parser("sweep", parents=[config], help="grid sweep of the jump budget")
    sp.add_argument("--axis", action="append", required=True,
                    metavar="NAME:MIN:MAX:COUNT[:SCALE]",
                    help=f"1-3 axes, at most {MAX_SWEEP_POINTS} points in all")
    sp.add_argument("--best", help="write the best feasible point as JSON here")
    sp.add_argument("--maximize", action="store_true", default=None,
                    help="refine the best point with golden-section search")
    sp.add_argument("--refine-iters", type=int, dest="refine_iters", default=None,
                    help=f"--maximize refinement rounds (default 3, 0 to {MAX_REFINE_ITERS})")
    sp.set_defaults(func=_cmd_sweep)

    return parser


def run(argv) -> int:
    created = []   # outputs that did not exist before this run, removed if it fails
    try:
        args = build_parser().parse_args(argv)
        for writer, path, *body in args.func(args):
            if not os.path.lexists(path):
                created.append(path)
            writer(path, *body)
        return 0
    except SystemExit as exc:  # --help / --version
        return 0 if (exc.code or 0) == 0 else 1
    except MemcavError as exc:
        for path in created:
            with contextlib.suppress(OSError):
                os.remove(path)
        numerical = isinstance(exc, NumericsError)
        print(f"{'numerical error' if numerical else 'error'}: {exc}", file=sys.stderr)
        return 2 if numerical else 1


def main() -> None:
    """The `memcav` script: run(sys.argv[1:]), flush, and end with os._exit.

    A flush that fails (a full disk, a closed pipe) prints one error line
    and exits 1.  An exception that escapes run() propagates, with the
    interpreter's usual shutdown.
    """
    code = run(sys.argv[1:])
    for name in ("stdout", "stderr"):
        stream = getattr(sys, name)
        if stream is None:   # no such stream, as under pythonw
            continue
        try:
            stream.flush()
        except (OSError, ValueError) as exc:   # ValueError: a closed stream
            code = code or 1
            if name == "stdout" and sys.stderr is not None:
                with contextlib.suppress(OSError, ValueError):
                    sys.stderr.write(f"error: cannot write stdout: {exc}\n")
    os._exit(code)


if __name__ == "__main__":
    main()
