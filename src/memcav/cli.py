"""Command-line frontend.

Every subcommand reads plain files, writes CSV/JSON with an embedded
metadata echo (tool version, resolved parameters, seeds), and never writes
anything time-dependent, so identical invocations produce byte-identical
outputs.  Exit codes: 0 success, 1 validation/config error, 2 numerical or
fit error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__, cavity, cooling, jumpsim, mechanics, qnd, sweep
from .errors import NumericsError, ValidationError
from .params import MembraneSpec, as_dict, load_config
from .textio import read_csv, write_csv, write_json


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


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
        for key, val in as_dict(p).items():
            meta[f"param_{key}"] = val
    return meta


def _cmd_bandstructure(args) -> int:
    if args.config:
        p = load_config(args.config)
        r_c, L, lam = p.r_c, p.L, p.lam
    else:
        if None in (args.rc, args.length, args.wavelength):
            raise ValidationError("provide --config or all of --rc/--length/--wavelength")
        r_c, L, lam = args.rc, args.length, args.wavelength
    x_max = args.xmax if args.xmax is not None else lam / 2.0
    bs = cavity.band_structure(r_c, L, lam, (args.xmin, x_max),
                               args.samples, args.bands)
    header, rows = cavity.band_structure_rows(bs)
    meta = _base_metadata(args)
    meta.update({"r_c": r_c, "L": L, "lambda": lam, "omega_fsr_rad_s": bs.omega_fsr})
    write_csv(args.output, header, rows, meta)
    return 0


def _cmd_transmission_map(args) -> int:
    if args.config:
        p = load_config(args.config)
        F, L, lam, r_c = p.F, p.L, p.lam, p.r_c
    else:
        needed = (args.finesse, args.length, args.wavelength)
        if None in needed:
            raise ValidationError("provide --config or --finesse/--length/--wavelength")
        F, L, lam, r_c = args.finesse, args.length, args.wavelength, args.rc
    membrane = None
    if args.membrane_index is not None:
        if args.membrane_thickness is None:
            raise ValidationError("--membrane-index requires --membrane-thickness")
        membrane = MembraneSpec(args.membrane_index, args.membrane_thickness)
        r_c = None
    elif r_c is None:
        raise ValidationError("provide --rc or a membrane spec")
    det = np.linspace(args.det_min, args.det_max, args.det_samples)
    xs = np.linspace(args.xmin, args.xmax if args.xmax is not None else lam / 2.0,
                     args.x_samples)
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
    write_csv(args.output, header, rows, meta)
    return 0


def _cmd_ringdown_fit(args) -> int:
    cols = read_csv(args.input)
    if "t_s" not in cols or "power" not in cols:
        raise ValidationError("ringdown CSV needs columns t_s, power")
    trace = cavity.fit_ringdown(cols["t_s"], cols["power"])
    payload = {
        "tau_s": trace.fitted_tau,
        "amplitude": trace.fitted_amplitude,
        "offset": trace.fitted_offset,
        "residual_rms": trace.residual_rms,
    }
    if args.length is not None:
        payload["finesse"] = cavity.finesse_ringdown(trace.fitted_tau,
                                                     "tau_to_finesse", args.length)
    write_json(args.output, payload, _base_metadata(args))
    return 0


def _cmd_mech_ringdown_fit(args) -> int:
    cols = read_csv(args.input)
    if "t_s" not in cols or "amplitude" not in cols:
        raise ValidationError("mechanical ringdown CSV needs columns t_s, amplitude")
    tau = mechanics.fit_mech_ringdown(cols["t_s"], cols["amplitude"])
    payload = {"tau_s": tau}
    if args.omega_m is not None:
        payload["Q"] = mechanics.q_from_ringdown(tau, args.omega_m)
    write_json(args.output, payload, _base_metadata(args))
    return 0


def _cmd_cool_fit(args) -> int:
    cols = read_csv(args.input)
    if "freq_hz" not in cols or "psd_m2_per_hz" not in cols:
        raise ValidationError("PSD CSV needs columns freq_hz, psd_m2_per_hz")
    exclude = []
    for band in args.exclude or []:
        lo, _, hi = band.partition(":")
        try:
            exclude.append((float(lo), float(hi)))
        except ValueError:
            raise ValidationError(f"bad --exclude band '{band}', expected lo:hi") from None
    trace = cooling.fit_psd(cols["freq_hz"], cols["psd_m2_per_hz"],
                            m=args.mass, omega_m=args.omega_m,
                            t_bath=args.t_bath, q_intrinsic=args.q_intrinsic,
                            exclude_bands=exclude)
    fit = trace.fit
    payload = {
        "omega_eff": fit.omega_eff,
        "gamma_eff": fit.gamma_eff,
        "q_eff": fit.q_eff,
        "t_eff_area": fit.t_eff_area,
        "t_eff_q": fit.t_eff_q,
        "floor": fit.floor,
        "residual_rms": fit.residual_rms,
    }
    write_json(args.output, payload, _base_metadata(args))
    return 0


def _cmd_qnd_budget(args) -> int:
    p = load_config(args.config)
    write_json(args.output, qnd.budget_report(p), _base_metadata(args, p))
    return 0


def _cmd_jump_sim(args) -> int:
    p = load_config(args.config)
    traj = jumpsim.simulate_trajectory(p, args.duration, args.seed,
                                       include_measurement_channels=args.channels)
    meta = _base_metadata(args, p)
    meta.update({"seed": args.seed, "duration_s": args.duration,
                 "rng": traj.rng_algorithm, "rng_stream": jumpsim.RNG_STREAM,
                 "measurement_channels": args.channels})
    # .tolist() hands write_csv Python scalars, which it formats fastest
    rows = list(zip(traj.times.tolist(), traj.levels.tolist()))
    write_csv(args.output, ["t_s", "n"], rows, meta)
    if args.readout is not None:
        if args.bin_width is None:
            raise ValidationError("--readout requires --bin-width")
        trace = jumpsim.binned_readout(traj, p, args.bin_width, args.readout_seed)
        meta_r = dict(meta)
        meta_r.update({"bin_width_s": trace.bin_width, "readout_seed": args.readout_seed,
                       "delta_omega_rad_s": trace.delta_omega,
                       "noise_sigma_rad_s": trace.noise_sigma})
        rows_r = list(zip(trace.bin_centers.tolist(), trace.freq_estimates.tolist(),
                          trace.true_n_per_bin.tolist()))
        write_csv(args.readout, ["t_s", "freq_estimate_rad_s", "true_n"], rows_r, meta_r)
    return 0


def _cmd_jump_stats(args) -> int:
    p = load_config(args.config)
    traj = jumpsim.simulate_trajectory(p, args.duration, args.seed,
                                       include_measurement_channels=args.channels)
    trace = jumpsim.binned_readout(traj, p, args.bin_width, args.readout_seed)
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
    meta = _base_metadata(args, p)
    meta.update({"seed": args.seed, "readout_seed": args.readout_seed,
                 "duration_s": args.duration, "bin_width_s": args.bin_width,
                 "rng": traj.rng_algorithm, "rng_stream": jumpsim.RNG_STREAM})
    write_json(args.output, payload, meta)
    return 0


def _parse_axis(text: str) -> sweep.SweepAxis:
    parts = text.split(":")
    if len(parts) not in (4, 5):
        raise ValidationError(
            f"bad --axis '{text}', expected name:min:max:count[:scale]")
    name, lo, hi, count = parts[:4]
    scale = parts[4] if len(parts) == 5 else "linear"
    try:
        return sweep.SweepAxis(name, float(lo), float(hi), int(count), scale)
    except ValueError as exc:
        raise ValidationError(f"bad --axis '{text}': {exc}") from None


def _cmd_sweep(args) -> int:
    p = load_config(args.config)
    axes = [_parse_axis(a) for a in args.axis]
    result = sweep.grid_sweep(p, axes)
    header, rows = sweep.sweep_rows(result)
    meta = _base_metadata(args, p)
    for i, axis in enumerate(axes):
        meta[f"axis_{i}"] = (f"{axis.param_name}:{axis.minimum}:{axis.maximum}"
                             f":{axis.count}:{axis.scale}")
    write_csv(args.output, header, rows, meta)
    if args.best is not None:
        if args.maximize:
            opt = sweep.maximize_snr(p, axes, refine_iters=args.refine_iters)
            feasible, params, budget = opt.feasible, opt.params, opt.budget
        else:
            entry = result.best
            feasible = entry is not None
            params, budget = (entry.params, entry.budget) if feasible else (None, None)
        if not feasible:
            write_json(args.best, {"feasible": False}, meta)
        else:
            payload = {"feasible": True, "best_params": as_dict(params),
                       "snr": budget.snr, "tau_total_s": budget.tau_total}
            write_json(args.best, payload, meta)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="memcav",
                     description="Membrane-in-the-middle cavity optomechanics toolkit")
    parser.add_argument("--version", action="version", version=f"memcav {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(sp):
        sp.add_argument("--output", "-o", required=True, help="output file path")

    sp = sub.add_parser("bandstructure", help="sample the dispersive band structure")
    sp.add_argument("--config")
    sp.add_argument("--rc", type=float)
    sp.add_argument("--length", type=float, help="cavity length [m]")
    sp.add_argument("--wavelength", type=float, help="laser wavelength [m]")
    sp.add_argument("--xmin", type=float, default=0.0)
    sp.add_argument("--xmax", type=float)
    sp.add_argument("--samples", type=int, default=201)
    sp.add_argument("--bands", type=int, default=4)
    add_output(sp)
    sp.set_defaults(func=_cmd_bandstructure)

    sp = sub.add_parser("transmission-map", help="transfer-matrix transmission map")
    sp.add_argument("--config")
    sp.add_argument("--rc", type=float)
    sp.add_argument("--finesse", type=float)
    sp.add_argument("--length", type=float)
    sp.add_argument("--wavelength", type=float)
    sp.add_argument("--membrane-index", type=float)
    sp.add_argument("--membrane-thickness", type=float)
    sp.add_argument("--det-min", type=float, required=True)
    sp.add_argument("--det-max", type=float, required=True)
    sp.add_argument("--det-samples", type=int, default=101)
    sp.add_argument("--xmin", type=float, default=0.0)
    sp.add_argument("--xmax", type=float)
    sp.add_argument("--x-samples", type=int, default=101)
    add_output(sp)
    sp.set_defaults(func=_cmd_transmission_map)

    sp = sub.add_parser("ringdown-fit", help="fit a cavity ringdown trace")
    sp.add_argument("--input", "-i", required=True, help="CSV with t_s,power")
    sp.add_argument("--length", type=float, help="cavity length for finesse [m]")
    add_output(sp)
    sp.set_defaults(func=_cmd_ringdown_fit)

    sp = sub.add_parser("mech-ringdown-fit", help="fit a mechanical ringdown envelope")
    sp.add_argument("--input", "-i", required=True, help="CSV with t_s,amplitude")
    sp.add_argument("--omega-m", type=float, dest="omega_m",
                    help="mechanical frequency for Q [rad/s]")
    add_output(sp)
    sp.set_defaults(func=_cmd_mech_ringdown_fit)

    sp = sub.add_parser("cool-fit", help="fit a displacement PSD")
    sp.add_argument("--input", "-i", required=True, help="CSV with freq_hz,psd_m2_per_hz")
    sp.add_argument("--mass", type=float)
    sp.add_argument("--omega-m", type=float, dest="omega_m")
    sp.add_argument("--t-bath", type=float, dest="t_bath")
    sp.add_argument("--q-intrinsic", type=float, dest="q_intrinsic")
    sp.add_argument("--exclude", action="append", metavar="LO:HI",
                    help="frequency band [Hz] to mask, repeatable")
    add_output(sp)
    sp.set_defaults(func=_cmd_cool_fit)

    sp = sub.add_parser("qnd-budget", help="analytic jump budget as JSON")
    sp.add_argument("--config", required=True)
    add_output(sp)
    sp.set_defaults(func=_cmd_qnd_budget)

    sp = sub.add_parser("jump-sim", help="simulate a phonon jump trajectory")
    sp.add_argument("--config", required=True)
    sp.add_argument("--seed", type=_seed, required=True)
    sp.add_argument("--duration", type=float, required=True, help="seconds")
    sp.add_argument("--channels", action="store_true",
                    help="include the ground-state measurement channels")
    sp.add_argument("--readout", help="also write a binned readout CSV here")
    sp.add_argument("--bin-width", type=float, dest="bin_width")
    sp.add_argument("--readout-seed", type=_seed, dest="readout_seed", default=0)
    add_output(sp)
    sp.set_defaults(func=_cmd_jump_sim)

    sp = sub.add_parser("jump-stats", help="threshold detection statistics")
    sp.add_argument("--config", required=True)
    sp.add_argument("--seed", type=_seed, required=True)
    sp.add_argument("--duration", type=float, required=True)
    sp.add_argument("--bin-width", type=float, dest="bin_width", required=True)
    sp.add_argument("--threshold", type=float, required=True, help="rad/s")
    sp.add_argument("--channels", action="store_true")
    sp.add_argument("--readout-seed", type=_seed, dest="readout_seed", default=0)
    add_output(sp)
    sp.set_defaults(func=_cmd_jump_stats)

    sp = sub.add_parser("sweep", help="grid sweep of the jump budget")
    sp.add_argument("--config", required=True)
    sp.add_argument("--axis", action="append", required=True,
                    metavar="NAME:MIN:MAX:COUNT[:SCALE]")
    sp.add_argument("--best", help="write the best feasible point as JSON here")
    sp.add_argument("--maximize", action="store_true",
                    help="refine the best point with golden-section search")
    sp.add_argument("--refine-iters", type=int, dest="refine_iters", default=3)
    add_output(sp)
    sp.set_defaults(func=_cmd_sweep)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help / --version
        return 0 if (exc.code or 0) == 0 else 1
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericsError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
