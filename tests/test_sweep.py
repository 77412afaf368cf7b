import hashlib
import itertools
import math
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from memcav import __version__, qnd, sweep
from memcav.cli import run
from memcav.errors import MemcavError, SingularityError, ValidationError
from memcav.params import ExperimentParams, as_dict, attr_name, with_value
from oracles import maximize_snr_reference


def test_axis_validation():
    sweep.SweepAxis("P_in", 1e-6, 1e-4, 5, "log")
    with pytest.raises(ValidationError):
        sweep.SweepAxis("P_in", 1e-4, 1e-6, 5)
    with pytest.raises(ValidationError):
        sweep.SweepAxis("P_in", 1e-6, 1e-4, 1)
    with pytest.raises(ValidationError):
        sweep.SweepAxis("P_in", -1.0, 1.0, 5, "log")
    with pytest.raises(ValidationError, match="unknown parameter 'bogus'"):
        sweep.SweepAxis("bogus", 0.0, 1.0, 5)


@pytest.mark.parametrize("lo, hi", [(-math.inf, 0.0), (0.0, math.nan), (-1e308, 1e308)])
def test_axis_rejects_ends_beyond_float_range(lo, hi):
    with pytest.raises(ValidationError, match="must be finite"):
        sweep.SweepAxis("x0", lo, hi, 3)


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
    # the second round repeats both of the first's line searches, so it runs neither
    assert opt.evaluations == 16 + 2 * (4 + 40)
    assert opt.params == replace(row1, P_in=0.00035249598521233286, r_c=0.99999)


@pytest.mark.parametrize("axes, rounds, snr_hex, moved", [
    # the grid's corner is best and refinement cannot beat it: one round
    ([sweep.SweepAxis("F", 1e5, 3e5, 4, "log"), sweep.SweepAxis("P_in", 1e-6, 1e-5, 4, "log")],
     1, "0x1.fc80593db55f8p-1", {}),
    # P_in refines off the interior of its log grid, r_c stays at the top
    ([sweep.SweepAxis("P_in", 1e-6, 1e-3, 6, "log"), sweep.SweepAxis("r_c", 0.999, 0.99999, 6)],
     2, "0x1.3397f9adcb4aap+4", {"P_in": 0.00035249598555733564, "r_c": 0.99999}),
    ([sweep.SweepAxis("F", 2e5, 6e5, 4, "log"), sweep.SweepAxis("P_in", 1e-5, 1e-3, 5, "log"),
      sweep.SweepAxis("r_c", 0.999, 0.99999, 4)],
     2, "0x1.33460754a66b1p+6", {"F": 600000.0, "P_in": 0.0003521291520359514, "r_c": 0.99999}),
])
def test_refinement_stops_when_a_round_moves_nothing(row1, axes, rounds, snr_hex, moved):
    # params and SNR as three full rounds give them; only the evaluations drop.
    # P_in is the one axis refinement moves, so a round after the first reruns
    # only the line searches before P_in's, whose other coordinates it moved
    opt = sweep.maximize_snr(row1, axes)
    grid_points = math.prod(a.count for a in axes)
    before_p_in = [a.param_name for a in axes].index("P_in")
    assert opt.evaluations == grid_points + (len(axes) + (rounds - 1) * before_p_in) * (4 + 40)
    assert opt.budget.snr.hex() == snr_hex
    assert opt.params == replace(row1, **moved)


def test_constant_objective_tie_break(row1):
    # a range below float resolution makes every grid point identical
    axes = [sweep.SweepAxis("T", 0.3, 0.3 * (1 + 1e-15), 3)]
    result = sweep.grid_sweep(row1, axes)
    assert result.best is result.entries[0]


def test_sweep_rows_shape(row1):
    axes = [sweep.SweepAxis("F", 3e5, 6e5, 2)]
    header, table = sweep.sweep_rows(sweep.grid_sweep(row1, axes))
    assert len(table) == 2
    assert len(header) == len(table.columns)
    assert header == [
        "L", "lambda", "F", "P_in", "T", "m", "omega_m", "Q", "r_c", "x0",
        "delta_omega_rad_s", "kappa_rad_s", "n_bar_photons", "s_omega_rad2_s", "tau_thermal_s",
        "tau_rwa_s", "tau_lin_s", "tau_total_s", "snr", "gap_rad_s",
        "qnd_time_ok", "gap_ok", "classical_bath_ok", "good_cavity", "error"]


def test_sweep_rows_blank_cells(row1):
    # x0 = 0 has no linear channel; 1e-7 >= lambda/8 fails validation
    # (a NaN cell is written blank)
    header, table = sweep.sweep_rows(sweep.grid_sweep(row1, [sweep.SweepAxis("x0", 0.0, 1e-7, 2)]))
    centered, failed = (dict(zip(header, row)) for row in zip(*table.columns))
    assert math.isnan(centered["tau_lin_s"]) and centered["error"] == ""
    assert centered["gap_ok"] == 1
    assert set(header[10:-1]) == {k for k, v in failed.items() if k != "error" and math.isnan(v)}
    assert "lambda/8" in failed["error"]


def test_float_range_point_recorded_not_raised(row1):
    # omega_m = 1e-200 passes validate() but its two-phonon lifetime underflows
    result = sweep.grid_sweep(row1, [sweep.SweepAxis("omega_m", 1e-200, 1e5, 3, "log")])
    assert "float range" in result.entries[0].error
    assert result.entries[2].budget is not None


def test_float_range_message_at_every_out_of_range_point(row1):
    # the float_range pin grid: every point that passes validate() but whose
    # budget leaves the float range carries jump_budget's message
    axes = [sweep.SweepAxis("omega_m", 1e-300, 1e300, 61, "log"),
            sweep.SweepAxis("m", 1e-250, 1e250, 11, "log")]
    errors = sweep.grid_sweep(row1, axes).budget.errors
    out_of_range = []
    for i, (omega_m, m) in enumerate(itertools.product(*(a.values() for a in axes))):
        p = replace(row1, omega_m=float(omega_m), m=float(m))
        try:
            qnd.jump_budget(p)
        except SingularityError as exc:
            assert errors[i] == str(exc) == "jump budget left the float range"
            out_of_range.append(i)
    assert len(out_of_range) == 445   # of 671 points
    assert np.flatnonzero(errors == "jump budget left the float range").tolist() == out_of_range


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


def test_sweep_point_cap_raises(row1, tmp_path, row1_config, monkeypatch):
    monkeypatch.setattr(sweep, "MAX_SWEEP_POINTS", 100)
    with pytest.raises(ValidationError, match="sweep of 110 points exceeds 100"):
        sweep.grid_sweep(row1, [sweep.SweepAxis("F", 1e5, 1e6, 10),
                                sweep.SweepAxis("T", 0.1, 0.3, 11)])
    assert sweep.grid_sweep(row1, [sweep.SweepAxis("F", 1e5, 1e6, 10),
                                   sweep.SweepAxis("T", 0.1, 0.3, 10)]).shape == (10, 10)
    out = tmp_path / "s.csv"
    assert run(["sweep", "--config", str(row1_config), "--axis", "F:1e5:1e6:101",
                "-o", str(out)]) == 1
    assert not out.exists()


def _old_rows(base, axes):
    """Sweep CSV rows built point by point through jump_budget, as grid_sweep once did."""
    attrs = [attr_name(a.param_name) for a in axes]
    for combo in itertools.product(*[a.values() for a in axes]):
        p = replace(base, **{attr: float(v) for attr, v in zip(attrs, combo)})
        row = list(as_dict(p).values())
        try:
            b = qnd.jump_budget(p)
        except MemcavError as exc:
            yield row + [""] * (len(qnd.BUDGET_NAMES) + len(qnd.FLAG_NAMES)) + [str(exc)]
            continue
        row += ["" if v is None else v for v in qnd.budget_fields(b).values()]
        yield row + [int(v) for v in b.flags] + [""]


def _assert_rows_match_jump_budget(base, axes):
    result = sweep.grid_sweep(base, axes)
    _, table = sweep.sweep_rows(result)
    expected = list(_old_rows(base, axes))
    # every float bit for bit, and a NaN (a blank cell) exactly where a row was blank
    *numbers, error = table.columns
    assert [["" if v != v else v.hex() for v in col.tolist()] for col in numbers] == \
        [["" if v == "" else float(v).hex() for v in col] for col in list(zip(*expected))[:-1]]
    assert list(error) == [row[-1] for row in expected]
    # the error column is the only record of failure, and an entry's error is None or a message
    assert np.array_equal(result.budget.failed, result.budget.errors != "")
    assert [e.error for e in result.entries] == [row[-1] or None for row in expected]
    # feasibility and the best point, as a scan over the per-point budgets would find them
    feasible = [not row[-1] and all(row[-5:-1]) for row in expected]
    assert result.budget.feasible.tolist() == feasible
    best = None
    for i, row in enumerate(expected):
        if feasible[i] and (best is None or row[18] > expected[best][18]):
            best = i
    assert (result.best is None) if best is None else (result.best is result.entries[best])


_ROW1 = dict(L=0.067, lam=5.32e-7, F=3e5, P_in=1e-5, T=0.3, m=5e-14,
             omega_m=6.2831853071795865e5, Q=1.2e7, r_c=0.999, x0=5e-13)


def _near(typical):
    """Floats within a factor 100 of the scenario's value, every mantissa bit drawn."""
    return st.floats(min_value=typical / 100, max_value=typical * 100)


def _field(typical):
    """Finite values: the scenario's rescaled by up to 1e+-300, arbitrary, or special."""
    return st.one_of(
        st.integers(-300, 300).map(lambda e: typical * 10.0**e),
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([0.0, -1.0, 5e-324, 1e-200, 1e200, 1.0 - 2.0**-53]),
    ).filter(math.isfinite)


@st.composite
def _axis(draw, name):
    count = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(["near", "log", "linear"]))
    if kind == "log":
        lo, hi = sorted(draw(st.lists(st.integers(-300, 300), min_size=2, max_size=2, unique=True)))
        return sweep.SweepAxis(name, 10.0**lo, 10.0**hi, count, "log")
    ends = _near(_ROW1[attr_name(name)]) if kind == "near" else \
        st.floats(allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300)
    lo, hi = sorted(draw(st.lists(ends, min_size=2, max_size=2, unique=True)))
    return sweep.SweepAxis(name, lo, hi, count, draw(st.sampled_from(["linear", "log"]))
                           if lo > 0 else "linear")


@st.composite
def _sweeps(draw):
    # most fields near the scenario, so that most points get a budget
    wild = draw(st.sets(st.sampled_from(sorted(_ROW1)), max_size=2))
    base = ExperimentParams(**{name: draw(_field(v) if name in wild else _near(v))
                               for name, v in _ROW1.items()})
    names = draw(st.lists(st.sampled_from(sorted(_ROW1)), min_size=1, max_size=3, unique=True))
    return base, [draw(_axis(name)) for name in names]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_sweeps())
# the photon number underflows to 0 while every other number of the budget stays finite
@example((ExperimentParams(**{**_ROW1, "L": 1e50, "F": 1e50, "lam": 1e-100, "P_in": 1e-250,
                                "x0": 0.0}), [sweep.SweepAxis("Q", 1e7, 2e7, 2)]))
def test_grid_rows_equal_jump_budget_bit_for_bit(case):
    _assert_rows_match_jump_budget(*case)


@st.composite
def _refinements(draw):
    """A base within a factor 3 of the scenario (r_c in [0.99, 0.9999]), 1-3 axes of
    2-5 points spanning up to a factor 10 either way, and 0-4 rounds."""
    base = ExperimentParams(**{name: draw(st.floats(0.99, 0.9999) if name == "r_c"
                                          else st.floats(v / 3, v * 3))
                               for name, v in _ROW1.items()})
    axes = []
    for name in draw(st.lists(st.sampled_from(sorted(_ROW1)), min_size=1, max_size=3,
                              unique=True)):
        v = _ROW1[name]
        ends = st.floats(0.99, 0.99999) if name == "r_c" else st.floats(v / 10, v * 10)
        lo, hi = sorted(draw(st.lists(ends, min_size=2, max_size=2, unique=True)))
        axes.append(sweep.SweepAxis(name, lo, hi, draw(st.integers(2, 5)),
                                    draw(st.sampled_from(["linear", "log"]))))
    return base, axes, draw(st.integers(0, 4))


def _bits(opt):
    """The bits of each float of a refined point and its budget, and the budget's flags."""
    if not opt.feasible:
        return None
    return [v.hex() for v in (*astuple(opt.params), *opt.budget[:-1])], opt.budget.flags


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_refinements())
# round one moves r_c into another grid interval, so round two searches it again in a
# new bracket, with the same other coordinates
@example((ExperimentParams(L=0.0625, lam=1.7733333333333336e-07, F=1e5, P_in=1.2e-05, T=0.5,
                           m=3.383668489782771e-14, omega_m=669063.0, Q=4e6, r_c=0.9921875,
                           x0=7.617254501691682e-13),
          [sweep.SweepAxis("T", 1.0, 2.0, 2), sweep.SweepAxis("r_c", 0.9921875, 0.99999, 3),
           sweep.SweepAxis("F", 3e4, 34705.0, 2)], 2))
def test_refinement_equals_rerunning_every_line_search(case):
    # a skipped line search would have rerun one already run, so the point and
    # its budget keep their bits and only the evaluations fall
    base, axes, rounds = case
    opt = sweep.maximize_snr(base, axes, rounds)
    reference = maximize_snr_reference(base, axes, rounds)
    assert opt.feasible == reference.feasible
    assert _bits(opt) == _bits(reference)
    assert opt.evaluations <= reference.evaluations


@pytest.mark.parametrize("axes", [
    # x0 = 0 (no linear channel) up to x0 >= lambda/8 (ValidationError)
    [("F", 1e4, 1e6, 8, "log"), ("P_in", 1e-8, 1e-3, 8, "log"), ("x0", 0.0, 1e-7, 8)],
    # ZeroDivisionError and OverflowError points, among finite ones
    [("omega_m", 1e-300, 1e300, 61, "log"), ("m", 1e-250, 1e250, 11, "log")],
    [("omega_m", 1e-200, 1e5, 4, "log"), ("x0", 0.0, 1e-200, 3)],
    [("Q", 1e-320, 1e300, 9, "log"), ("T", 1e-300, 1e300, 7, "log")],
    [("L", 1e-300, 1e300, 9, "log"), ("lambda", 1e-300, 1e300, 9, "log")],
    [("r_c", 0.0, 1.0 - 2.0**-53, 5), ("F", 1.0, 1e300, 7, "log"),
     ("P_in", 1e-300, 1e300, 5, "log")],
])
def test_grid_rows_equal_jump_budget_at_extremes(row1, axes):
    _assert_rows_match_jump_budget(row1, [sweep.SweepAxis(*a) for a in axes])


# sha256 of `memcav sweep` outputs (CSV, then --best JSON) with the version
# string blanked, generated before the sweep became one broadcast pass; the
# float_range CSV since its 81 points with an infinite cell fail
_PINNED_SWEEPS = {
    "bench_grid": (
        ["--axis", "F:1e4:1e6:8:log", "--axis", "P_in:1e-8:1e-3:8:log", "--axis", "x0:0:1e-7:8"],
        "3ccd2c5cd55447793da26b35161236e48ac88692b06bbb2da79206db5dd1d9e1",
        "2bb4943879190ed375ea3c044b64f38585ff5e2141b96b89dc1b7fad0aaa5e2b"),
    "float_range": (
        ["--axis", "omega_m:1e-300:1e300:61:log", "--axis", "m:1e-250:1e250:11:log"],
        "c83b75ae067ac6864a83e18168e5dfc23a6350dc959f2add772ec71b48e17544",
        "37412f63fc81ab6969f31ce83c6671303f7c441bb4ee020c1b87a51ad2700847"),
    "maximize_3axis": (
        ["--axis", "P_in:1e-7:1e-3:5:log", "--axis", "r_c:0.99:0.99999:4",
         "--axis", "T:0.1:0.5:3", "--maximize"],
        "e95f3cbc364292ac55520d994d0b6ea9ad3d8f13c7e54c4e850532c0911260eb",
        "aa6414b9090fe2ab37bff1d90a80ef04ff31b95969054455a4f84f3ed65c0b63"),
}


@pytest.mark.parametrize("name", sorted(_PINNED_SWEEPS))
def test_sweep_outputs_pinned(tmp_path, row1_config, name):
    axes, csv_sha, json_sha = _PINNED_SWEEPS[name]
    csv, best = tmp_path / "s.csv", tmp_path / "b.json"
    assert run(["sweep", "--config", str(row1_config), *axes,
                "-o", str(csv), "--best", str(best)]) == 0
    digests = [hashlib.sha256(path.read_bytes().replace(__version__.encode(), b"<version>"))
               .hexdigest() for path in (csv, best)]
    assert digests == [csv_sha, json_sha]
    # every budget cell is finite or blank
    cells = {cell for line in csv.read_text().splitlines() if not line.startswith("#")
             for cell in line.split(",")}
    assert not cells & {"inf", "-inf", "nan"}

