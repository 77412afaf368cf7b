import math
from dataclasses import replace

import numpy as np
import pytest

from memcav import qnd, sweep
from memcav.errors import ValidationError
from memcav.params import with_value


def test_axis_validation():
    sweep.SweepAxis("P_in", 1e-6, 1e-4, 5, "log")
    with pytest.raises(ValidationError):
        sweep.SweepAxis("P_in", 1e-4, 1e-6, 5)
    with pytest.raises(ValidationError):
        sweep.SweepAxis("P_in", 1e-6, 1e-4, 1)
    with pytest.raises(ValidationError):
        sweep.SweepAxis("P_in", -1.0, 1.0, 5, "log")
    with pytest.raises(ValueError):
        sweep.SweepAxis("bogus", 0.0, 1.0, 5)


def test_axis_values_scales():
    lin = sweep.SweepAxis("T", 0.1, 0.5, 5).values()
    assert np.allclose(lin, np.linspace(0.1, 0.5, 5))
    log = sweep.SweepAxis("F", 1e5, 1e7, 3, "log").values()
    assert np.allclose(log, [1e5, 1e6, 1e7])


def test_grid_reproduces_both_scenarios(row1):
    # co-varied two-point axes hitting both parameter sets exactly
    axes = [
        sweep.SweepAxis("F", 3e5, 6e5, 2),
        sweep.SweepAxis("P_in", 1e-6, 1e-5, 2),
        sweep.SweepAxis("r_c", 0.999, 0.9999, 2),
    ]
    result = sweep.grid_sweep(row1, axes)
    assert result.shape == (2, 2, 2)
    snrs = {}
    for entry in result.entries:
        key = (entry.params.F, entry.params.P_in, entry.params.r_c)
        snrs[key] = entry.budget.snr
    assert math.isclose(snrs[(3e5, 1e-5, 0.999)], 0.993, rel_tol=1e-3)
    assert math.isclose(snrs[(6e5, 1e-6, 0.9999)], 3.972, rel_tol=1e-3)


def test_degenerate_axis(row1):
    axes = [sweep.SweepAxis("T", 0.3, 0.3 * (1 + 1e-12), 2)]
    result = sweep.grid_sweep(row1, axes)
    snr0 = result.entries[0].budget.snr
    snr1 = result.entries[1].budget.snr
    assert abs(snr0 / snr1 - 1) < 1e-9


def test_singular_points_recorded_not_raised(row1):
    axes = [sweep.SweepAxis("r_c", 0.999, 1.0005, 4)]
    result = sweep.grid_sweep(row1, axes)
    errors = [e for e in result.entries if e.budget is None]
    valid = [e for e in result.entries if e.budget is not None]
    assert errors and valid
    for e in errors:
        assert "r_c" in e.error


def test_best_requires_feasibility(row1):
    # bad cavity regime: tiny finesse makes kappa > omega_m -> infeasible
    axes = [sweep.SweepAxis("F", 10.0, 100.0, 3)]
    result = sweep.grid_sweep(row1, axes)
    assert result.best is None
    opt = sweep.maximize_snr(row1, axes)
    assert not opt.feasible and opt.params is None


def test_too_many_axes(row1):
    axes = [sweep.SweepAxis(name, 1, 2, 2) for name in ("F", "T", "m", "Q")]
    with pytest.raises(ValidationError):
        sweep.grid_sweep(row1, axes)


def test_duplicate_axes_rejected(row1):
    axes = [sweep.SweepAxis("F", 1e5, 2e5, 2), sweep.SweepAxis("F", 3e5, 4e5, 2)]
    with pytest.raises(ValidationError):
        sweep.grid_sweep(row1, axes)
    # the config key and the attribute name set the same field
    axes = [sweep.SweepAxis("lambda", 5e-7, 6e-7, 2), sweep.SweepAxis("lam", 5e-7, 6e-7, 2)]
    with pytest.raises(ValidationError):
        sweep.grid_sweep(row1, axes)


def test_maximize_power_monotone_hits_upper_bound(row1):
    # thermal-dominated budget: SNR increases with power, maximizer at the top
    axes = [sweep.SweepAxis("P_in", 1e-6, 1e-5, 6, "log")]
    opt = sweep.maximize_snr(row1, axes, refine_iters=2)
    assert opt.feasible
    assert math.isclose(opt.params.P_in, 1e-5, rel_tol=1e-9)


def test_maximize_small_offset_wins(row1):
    axes = [sweep.SweepAxis("x0", 1e-13, 1e-12, 5)]
    opt = sweep.maximize_snr(row1, axes, refine_iters=2)
    assert opt.feasible
    assert math.isclose(opt.params.x0, 1e-13, rel_tol=1e-9)


def test_refinement_never_worse_than_grid(row1):
    axes = [sweep.SweepAxis("F", 2e5, 8e5, 4, "log"),
            sweep.SweepAxis("P_in", 1e-6, 2e-5, 4, "log")]
    grid_best = sweep.grid_sweep(row1, axes).best
    opt = sweep.maximize_snr(row1, axes, refine_iters=2)
    assert opt.budget.snr >= grid_best.budget.snr


def test_refinement_pinned_when_it_beats_grid(row1):
    # P_in refines off the log grid; r_c stays at the top of its linear grid
    axes = [sweep.SweepAxis("P_in", 1e-7, 1e-3, 4, "log"),
            sweep.SweepAxis("r_c", 0.99, 0.99999, 4)]
    grid_best = sweep.grid_sweep(row1, axes).best
    opt = sweep.maximize_snr(row1, axes, refine_iters=2)
    assert grid_best.budget.snr == 18.586155010792446
    assert opt.budget.snr == 19.224603346615275
    assert opt.evaluations == 16 + 2 * 2 * (4 + 40)
    assert opt.params == replace(row1, P_in=0.00035249598521233286, r_c=0.99999)


def test_constant_objective_tie_break(row1):
    # a range below float resolution makes every grid point identical
    axes = [sweep.SweepAxis("T", 0.3, 0.3 * (1 + 1e-15), 3)]
    result = sweep.grid_sweep(row1, axes)
    assert result.best is result.entries[0]


def test_sweep_rows_shape(row1):
    axes = [sweep.SweepAxis("F", 3e5, 6e5, 2)]
    header, rows = sweep.sweep_rows(sweep.grid_sweep(row1, axes))
    assert len(rows) == 2
    assert len(header) == len(rows[0])
    assert header == [
        "L", "lambda", "F", "P_in", "T", "m", "omega_m", "Q", "r_c", "x0",
        "delta_omega_rad_s", "kappa_rad_s", "n_bar_photons", "s_omega_rad2_s", "tau_thermal_s",
        "tau_rwa_s", "tau_lin_s", "tau_total_s", "snr", "gap_rad_s",
        "qnd_time_ok", "gap_ok", "classical_bath_ok", "good_cavity", "error"]


def test_sweep_rows_blank_cells(row1):
    # x0 = 0 has no linear channel; 1e-7 >= lambda/8 fails validation
    header, rows = sweep.sweep_rows(sweep.grid_sweep(row1, [sweep.SweepAxis("x0", 0.0, 1e-7, 2)]))
    centered, failed = (dict(zip(header, row)) for row in rows)
    assert centered["tau_lin_s"] == centered["error"] == "" and centered["gap_ok"] == 1
    assert set(header[10:-1]) == {k for k, v in failed.items() if v == ""}
    assert "lambda/8" in failed["error"]


def test_float_range_point_recorded_not_raised(row1):
    # omega_m = 1e-200 passes validate() but its two-phonon lifetime underflows
    result = sweep.grid_sweep(row1, [sweep.SweepAxis("omega_m", 1e-200, 1e5, 3, "log")])
    assert "float range" in result.entries[0].error
    assert result.entries[2].budget is not None


def test_results_independent_of_evaluation_order(row1):
    axes = [sweep.SweepAxis("F", 2e5, 8e5, 3), sweep.SweepAxis("T", 0.2, 0.4, 3)]
    result = sweep.grid_sweep(row1, axes)
    # re-evaluate each point independently; flattened order is row-major
    k = 0
    for F in axes[0].values():
        for T in axes[1].values():
            p = with_value(with_value(row1, "F", float(F)), "T", float(T))
            assert math.isclose(result.entries[k].budget.snr,
                                qnd.jump_budget(p).snr, rel_tol=1e-14)
            k += 1
