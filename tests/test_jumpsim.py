import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import erfc
from scipy.stats import chisquare, kstest

from memcav import jumpsim, qnd
from memcav.errors import SingularityError, ValidationError
from memcav.params import HBAR, K_B, with_value

from oracles import (bin_average_char_fn, bin_average_char_fn_expm, birth_death_generator,
                     bose_einstein_pmf, detection_stats_by_mean, fused_trajectory)


@pytest.fixture(scope="module")
def small_bath(row1):
    """Low-occupation, fast-relaxing variant for distribution tests.

    n_bar = 2 exactly and Q = 50 keep the event count manageable while the
    chain equilibrates thousands of times over a second.
    """
    T = 2.0 * HBAR * row1.omega_m / K_B
    return with_value(with_value(row1, "T", T), "Q", 50.0)


# ---------------------------------------------------------------------------
# trajectory basics
# ---------------------------------------------------------------------------

def test_zero_temperature_no_events(row1):
    """T = +-0 and Q = inf, channels off: the ground state absorbs the path."""
    for name, value in (("T", 0.0), ("T", -0.0), ("Q", math.inf)):
        frozen = with_value(row1, name, value)
        for duration in (1.0, 10.0):
            traj = jumpsim.simulate_trajectory(frozen, duration, seed=1)
            assert len(traj.times) == 0, (name, value, duration)
            assert traj.state_at(duration / 2) == 0


def test_reproducibility_bit_identical(row1):
    a = jumpsim.simulate_trajectory(row1, 0.01, seed=42, include_measurement_channels=True)
    b = jumpsim.simulate_trajectory(row1, 0.01, seed=42, include_measurement_channels=True)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.levels, b.levels)
    ra = jumpsim.binned_readout(a, row1, 1e-4, seed=7)
    rb = jumpsim.binned_readout(b, row1, 1e-4, seed=7)
    assert np.array_equal(ra.freq_estimates, rb.freq_estimates)


def test_different_seeds_differ(row1):
    a = jumpsim.simulate_trajectory(row1, 0.01, seed=1)
    b = jumpsim.simulate_trajectory(row1, 0.01, seed=2)
    assert not (len(a.times) == len(b.times) and np.array_equal(a.times, b.times))


def test_stream_layout_pinned(small_bath):
    """The first events of one seed under RNG_STREAM; a layout change breaks this."""
    assert jumpsim.RNG_STREAM == "pcg64-blocks-v1"
    traj = jumpsim.simulate_trajectory(small_bath, 0.002, seed=2024)
    assert jumpsim.RNG_ALGORITHM == "PCG64"
    head = [(float(t), int(n)) for t, n in zip(traj.times[:5], traj.levels[:5])]
    assert repr(head) == (
        "[(3.394688272058e-05, 1), (3.524897650065723e-05, 2), "
        "(3.6371115657165236e-05, 3), (4.2436547399601076e-05, 4), "
        "(5.0869052045370106e-05, 5)]")


def test_shorter_run_is_exact_prefix(small_bath):
    short = jumpsim.simulate_trajectory(small_bath, 0.002, seed=2024)
    long = jumpsim.simulate_trajectory(small_bath, 0.02, seed=2024)
    # 453 events: past the block boundaries after 64, 192 and 448 draws
    assert len(short.times) > 448
    k = len(short.times)
    assert np.array_equal(long.times[:k], short.times)
    assert np.array_equal(long.levels[:k], short.levels)
    assert long.times[k] >= 0.002


def test_event_cap_raises(small_bath, monkeypatch):
    monkeypatch.setattr(jumpsim, "MAX_EVENTS", 1000)
    with pytest.raises(ValidationError, match=r"exceeds 1000 events .* 0\.02 s"):
        jumpsim.simulate_trajectory(small_bath, 0.02, seed=2024)
    # a path that ends below the cap is unaffected
    assert len(jumpsim.simulate_trajectory(small_bath, 0.002, seed=2024).times) == 453


def test_readout_bin_cap():
    assert jumpsim.readout_bins(0.01, 1e-8) == jumpsim.MAX_BINS
    # 0.3 / 0.1 is 2.9999999999999996: three whole bins, not two
    assert jumpsim.readout_bins(0.3, 0.1) == 3
    # 1e-320 gives an infinite bin count, which int() cannot take
    for bin_width in (0.01 / (jumpsim.MAX_BINS + 1), 1e-320):
        with pytest.raises(ValidationError, match="more than 1000000 readout bins"):
            jumpsim.readout_bins(0.01, bin_width)


@pytest.mark.parametrize("duration", [0.0, -1.0, math.inf, math.nan])
def test_bad_duration_rejected(small_bath, duration):
    with pytest.raises(ValidationError, match="duration"):
        jumpsim.simulate_trajectory(small_bath, duration, seed=1)


@pytest.mark.parametrize("overrides", [
    {"omega_m": 1e-200},              # the RWA lifetime underflows to 0
    {"m": 1e200, "omega_m": 1e100},   # the zero-point amplitude squared underflows to 0
    {"omega_m": 2.5e-155},            # the RWA lifetime is subnormal: its rate is inf
    {"x0": 6e-8, "P_in": 1e295},      # the linear lifetime is subnormal, the RWA one normal
])
def test_channel_rates_out_of_float_range(row1, overrides):
    p = row1
    for key, value in overrides.items():
        p = with_value(p, key, value)
    messages = []
    for _ in range(2):   # errors are not memoized: a second call raises the same again
        with pytest.raises(SingularityError) as raised:
            jumpsim.simulate_trajectory(p, 1e-3, seed=1, include_measurement_channels=True)
        messages.append(str(raised.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("channels", [False, True])
def test_thermal_rates_out_of_float_range(row1, channels):
    """omega_m / Q = inf is raised before the walk, not after MAX_EVENTS waits of 0 s."""
    with pytest.raises(SingularityError, match="thermal rates"):
        jumpsim.simulate_trajectory(with_value(row1, "Q", 1e-300), 1e-3, seed=1,
                                    include_measurement_channels=channels)


@st.composite
def _rate_pairs(draw):
    """(rate, total) with 0 <= rate <= total, both finite."""
    total = draw(st.floats(0.0, 1e300))
    return draw(st.floats(0.0, total)), total


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_rate_pairs(), st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20))
@example((0.0, 3.0), [])                # rate 0: no pick climbs
@example((2.5, 2.5), [0.0, 0.999])      # rate == total: every pick climbs
@example((0.0, 0.0), [0.5])             # an absorbed level
@example((5e-324, 3.0), [5e-324])       # subnormal rate: rate / total rounds to 0
@example((1e-310, 3.7), [])             # subnormal rate, subnormal threshold
@example((3e-321, 1e-320), [0.3])       # subnormal total: ~1e13 doubles round alike
@example((0.7, 4.0), [0.175])           # power-of-two total: the quotient is exact
@example((1.0, 49.0), [1.0 / 49.0])     # rate / total * total rounds below rate
@example((0.09559526919644289, 3.0825498292055524), [])   # the quotient is above the least c
@example((1.0, math.inf), [0.0, 0.5])  # an overflowed total: no pick climbs
@example((math.inf, math.inf), [0.5])   # both overflowed: c is NaN
def test_climb_threshold_matches_multiply(pair, picks):
    """pick < c decides exactly as pick * total < rate, the climb test it replaces."""
    rate, total = pair
    c = jumpsim._climb_threshold(rate, total)
    for pick in [c, math.nextafter(c, 0.0), math.nextafter(c, 1.0), *picks]:
        assert (pick < c) == (pick * total < rate), (pick, c)


def test_trajectory_event_structure(small_bath):
    traj = jumpsim.simulate_trajectory(small_bath, 0.05, seed=3)
    assert np.all(np.diff(traj.times) > 0)
    steps = np.diff(np.concatenate([[0], traj.levels]))
    assert set(np.abs(steps)) <= {1}  # thermal-only runs are birth-death
    assert np.all(traj.levels >= 0)


def test_rwa_channel_allows_double_step(row1):
    # make the two-phonon channel dominate: T tiny (no thermal), x0 = 0
    p = with_value(with_value(row1, "T", 1e-12), "x0", 0.0)
    traj = jumpsim.simulate_trajectory(p, 100.0 * qnd.rwa_lifetime(p), seed=5,
                                       include_measurement_channels=True)
    steps = np.diff(np.concatenate([[0], traj.levels]))
    assert 2 in set(steps)  # ground state exits by a two-phonon event


def _path_sha256(traj) -> str:
    return hashlib.sha256(traj.times.tobytes() + traj.levels.tobytes()).hexdigest()


@pytest.mark.parametrize("case, n_events, top, digest", [
    # T tiny and x0 = 0: the ground state exits only by 0 -> 2 jumps
    ("two_phonon", 71, 2, "e2bf0bf14fda5b6b91cb08d3f6b97e79553ccf4bd941665746288b0cb62b6f85"),
    # T = 0: the linear channel climbs, cooling alone comes back down
    ("zero_temperature", 46, 1, "20ff39caf8d2dc8b7e86e008228fe35844bdfb35362a84d4092c47724ca4ad5a"),
    # channels off, climbing well past level 10
    ("small_bath", 8084, 25, "c318b9891e2b2079e94035fb58706bb8a9819dda81ef1db91501aca42eb7a9a1"),
    # Q = inf: no thermal rates, so the first channel event is absorbing
    ("absorbed", 1, 1, "a60fa8ef1b54338b8d08415867e30da50a804cb51a850f5bea1f7f1d814dffb0"),
])
def test_edge_paths_pinned(row1, small_bath, case, n_events, top, digest):
    """Exact event records of the loop's edge paths under RNG_STREAM."""
    if case == "two_phonon":
        p = with_value(with_value(row1, "T", 1e-12), "x0", 0.0)
        traj = jumpsim.simulate_trajectory(p, 100.0 * qnd.rwa_lifetime(p), seed=5,
                                           include_measurement_channels=True)
    elif case == "zero_temperature":
        traj = jumpsim.simulate_trajectory(with_value(small_bath, "T", 0.0), 0.1, seed=3,
                                           include_measurement_channels=True)
    elif case == "small_bath":
        traj = jumpsim.simulate_trajectory(small_bath, 0.05, seed=3)
    else:
        traj = jumpsim.simulate_trajectory(with_value(row1, "Q", math.inf), 1.0, seed=4,
                                           include_measurement_channels=True)
    assert (len(traj.times), int(traj.levels.max())) == (n_events, top)
    assert _path_sha256(traj) == digest


def test_long_stationary_path_pinned(small_bath):
    """A path shaped like the stationary bench unit: 0.5 s, channels off, 10^5 bins."""
    traj = jumpsim.simulate_trajectory(small_bath, 0.5, seed=22)
    assert (len(traj.times), int(traj.levels.max())) == (76444, 27)
    assert _path_sha256(traj) == (
        "ca34d5af79836445b897c43f78a4acae27557a33540f5353636160b5723acd7c")
    trace = jumpsim.binned_readout(traj, small_bath, 0.5 / 100_000, seed=23)
    assert len(trace.freq_estimates) == 100_000
    readout = trace.true_n_per_bin.tobytes() + trace.freq_estimates.tobytes()
    assert hashlib.sha256(readout).hexdigest() == (
        "1775c8fcbff8d9f57f7929bfe72ab5b1285f74906956b1aac5eb207044b331be")


def test_long_readout_peak_memory(small_bath):
    """A 10^5-bin readout of the bench-shaped path stays within its measured peak.

    tracemalloc read a 3.08 MB peak above the path and its states (4.39 MB
    while cum, breaks and the edge grid were all alive at the count per bin).
    """
    traj = jumpsim.simulate_trajectory(small_bath, 0.5, seed=22)
    traj.states   # cached before tracing: an input of the readout, not part of its peak
    tracemalloc.start()
    try:
        traj.mean_level_per_bin(0.5 / 100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.3e6


# event counts at which a cut meets the end of a walk piece (8, 24, 56) or of
# a block (64, 192, and 4032 = 64 + ... + 2048, after which every block holds
# 4096), and 16, inside the second piece
_BOUNDARIES = (8, 16, 24, 56, 64, 192, 4032)


@st.composite
def _paths(draw):
    """(scenario, channels, seed, kept): a path and where its cut falls.

    `kept` is the number of events before the cut, which sets the duration
    from the fused oracle's path, or None for the scenario's whole duration.
    """
    cut = draw(st.sampled_from(["first_piece", "boundary", "long"]))
    if cut == "first_piece":
        scenario = draw(st.sampled_from(["small_bath", "trial", "zero_temperature", "q_inf",
                                         "two_phonon"]))
        kept = draw(st.integers(0, 7))
    else:   # only these two run past the first blocks
        scenario = draw(st.sampled_from(["small_bath", "two_phonon"]))
        kept = (draw(st.sampled_from(_BOUNDARIES)) + draw(st.integers(-1, 1))
                if cut == "boundary" else None)
    channels = scenario in ("trial", "two_phonon") or draw(st.booleans())
    return scenario, channels, draw(st.integers(0, 2**32 - 1)), kept


def _scenario(name, row1, row2, small_bath):
    """Parameters and the longest duration drawn for one named scenario."""
    if name == "small_bath":   # ~1.6e5 events a second, climbing past level 10
        return small_bath, 0.1
    if name == "trial":        # row 2's eight-bin trial window of criterion 9(c)
        return row2, 2.0 * qnd.jump_budget(row2).tau_total
    if name == "hot_bath":     # n_bar ~ 1000: ~2.5e9 events a second, past level 255
        return with_value(small_bath, "T", 1000.0 * HBAR * small_bath.omega_m / K_B), 2e-5
    if name == "zero_temperature":   # no thermal events: the channels alone climb
        return with_value(small_bath, "T", 0.0), 0.1
    if name == "two_phonon":   # T tiny, x0 = 0: ~4.5k events, the ground state exits by 0 -> 2
        p = with_value(with_value(row1, "T", 1e-12), "x0", 0.0)
        return p, 8000.0 * qnd.rwa_lifetime(p)
    # Q = inf: no thermal rates, so the first channel event is absorbing
    return with_value(row1, "Q", math.inf), 1.0


# the explicit cases of the drawn paths, shared by the oracle and memo tests
_PATH_EXAMPLES = (
    ("small_bath", False, 2024, 8),
    ("small_bath", True, 2024, 16),
    ("small_bath", False, 2024, 64),
    ("small_bath", True, 2024, 192),
    ("small_bath", False, 2024, 4032 + 2 * 4096),
    ("small_bath", False, 2024, None),
    ("zero_temperature", False, 1, None),
    ("q_inf", True, 4, None),
    ("trial", True, 61, None),
    # outgrows the first 8-level table at pick 144 and its 18-level extension at
    # pick 710, each partway through a piece, so the walk restarts mid-piece twice
    ("small_bath", False, 3, 1000),
    # 50,495 events up to level 287: the tables grow five times (8 -> 18 -> ... -> 318
    # levels), and levels past one byte rule out any byte-wide record of the walk
    ("hot_bath", False, 7, None),
    ("two_phonon", True, 5, 4),
    ("two_phonon", True, 5, 4032),
    ("two_phonon", True, 5, None),
)


def _path_examples(test):
    for case in reversed(_PATH_EXAMPLES):
        test = example(case)(test)
    return test


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_paths())
@_path_examples
def test_simulate_matches_fused_oracle(row1, row2, small_bath, case):
    """The two-phase walk gives the fused loop's path bit for bit, wherever it is cut."""
    scenario, channels, seed, kept = case
    p, duration = _scenario(scenario, row1, row2, small_bath)
    full = fused_trajectory(p, duration, seed, channels)
    if kept is not None and kept < len(full.times):
        # the cut falls exactly on the time of event kept + 1
        duration = float(full.times[kept])
    else:
        kept = len(full.times)
    got = jumpsim.simulate_trajectory(p, duration, seed, channels)
    want = fused_trajectory(p, duration, seed, channels)
    assert len(got.times) == kept
    assert got.times.dtype == np.float64 and got.levels.dtype == np.int64
    assert got.times.tobytes() == want.times.tobytes()
    assert got.levels.tobytes() == want.levels.tobytes()


def _clear_memos():
    jumpsim._walk_setup.cache_clear()
    jumpsim._readout_scale.cache_clear()


def _path_and_readout(p, duration, seed, channels):
    """The bytes of a path and of its 16-bin readout, and the readout's scale."""
    traj = jumpsim.simulate_trajectory(p, duration, seed, channels)
    trace = jumpsim.binned_readout(traj, p, duration / 16, seed + 1)
    return (traj.times.tobytes(), traj.levels.tobytes(), trace.true_n_per_bin.tobytes(),
            trace.freq_estimates.tobytes(), repr((trace.delta_omega, trace.noise_sigma)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_paths())
@_path_examples
def test_memo_changes_no_bits(row1, row2, small_bath, case):
    """A path and its readout are the same from a cleared memo and one a hotter path warmed."""
    scenario, channels, seed, kept = case
    p, longest = _scenario(scenario, row1, row2, small_bath)
    _clear_memos()
    full = jumpsim.simulate_trajectory(p, longest, seed, channels)
    duration = float(full.times[kept]) if kept is not None and kept < len(full.times) else longest
    _clear_memos()
    cold = _path_and_readout(p, duration, seed, channels)
    # a path twice as long on the next seed, which mostly climbs higher and grows tables
    jumpsim.simulate_trajectory(p, 2.0 * longest, seed + 1, channels)
    assert _path_and_readout(p, duration, seed, channels) == cold


@pytest.mark.parametrize("field, scenario", [("T", "zero_temperature"), ("x0", "two_phonon")])
def test_memo_signed_zeros_keep_their_bits(row1, row2, small_bath, field, scenario):
    """Sets equal under == but for a zero's sign share a memo entry and keep their own bits."""
    p, duration = _scenario(scenario, row1, row2, small_bath)
    plus, minus = with_value(p, field, 0.0), with_value(p, field, -0.0)
    assert plus == minus
    for this, other in ((plus, minus), (minus, plus)):
        _clear_memos()
        cold = _path_and_readout(this, duration, 3, True)
        want = fused_trajectory(this, duration, 3, True)
        assert cold[:2] == (want.times.tobytes(), want.levels.tobytes())
        _clear_memos()
        _path_and_readout(other, duration, 3, True)
        assert _path_and_readout(this, duration, 3, True) == cold


def test_warm_trial_makes_no_qnd_call(row1, row2, small_bath, monkeypatch):
    """A warm trial and readout call no qnd formula; the memo stays bounded and unchanged."""
    duration = 2.0 * qnd.jump_budget(row2).tau_total
    calls = []
    names = ("detuning_per_phonon", "linear_lifetime", "pdh_noise_psd", "rwa_lifetime")
    for name in names:
        def counted(p, formula=getattr(qnd, name), name=name):
            calls.append(name)
            return formula(p)
        monkeypatch.setattr(qnd, name, counted)
    _clear_memos()
    _path_and_readout(row2, duration, 61, True)
    assert sorted(calls) == list(names)
    calls.clear()
    _path_and_readout(row2, duration, 61, True)
    assert calls == []

    for memo in (jumpsim._walk_setup, jumpsim._readout_scale):
        assert memo.cache_parameters()["maxsize"] == jumpsim._MEMO_SETS
    for i in range(jumpsim._MEMO_SETS + 1):
        _path_and_readout(with_value(small_bath, "Q", 50.0 + i), 1e-4, i, False)
    for memo in (jumpsim._walk_setup, jumpsim._readout_scale):
        assert memo.cache_info().currsize == jumpsim._MEMO_SETS

    # the level-287 path grows its own tables, not the memo's
    hot, duration = _scenario("hot_bath", row1, row2, small_bath)
    assert int(jumpsim.simulate_trajectory(hot, duration, 7).levels.max()) == 287
    setup = jumpsim._walk_setup(hot, False)
    assert len(setup.rates) == len(setup.climb) == len(setup.down) == jumpsim._FIRST_LEVELS
    assert not setup.rates.flags.writeable


@st.composite
def _traces(draw):
    """A readout trace with delta_omega = 1 (levels 0.5 and 1.5) and a threshold."""
    n_bins = draw(st.integers(1, 40))
    mix = draw(st.sampled_from(["all_ground", "all_jumped", "mixed"]))
    lo, hi = {"all_ground": (0.0, 0.49), "all_jumped": (0.51, 6.0), "mixed": (0.0, 6.0)}[mix]
    true_n = draw(st.lists(st.floats(lo, hi), min_size=n_bins, max_size=n_bins))
    estimates = draw(st.lists(st.floats(-3.0, 8.0), min_size=n_bins, max_size=n_bins))
    threshold = draw(st.floats(0.5, 1.5, exclude_min=True, exclude_max=True))
    if draw(st.booleans()):   # some estimates sit exactly on the threshold
        estimates = [threshold if i % 3 == 0 else x for i, x in enumerate(estimates)]
    trace = jumpsim.ReadoutTrace(
        1.0, np.arange(n_bins) + 0.5, np.array(estimates), np.array(true_n),
        delta_omega=1.0, noise_sigma=1.0, bandwidth_ok=True, seed=0)
    return trace, threshold


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_traces())
def test_detection_stats_match_mean_oracle(case):
    trace, threshold = case
    got = jumpsim.jump_detection_stats(trace, threshold)
    assert repr(got) == repr(detection_stats_by_mean(trace, threshold))


def test_state_at_and_dwells(small_bath):
    traj = jumpsim.simulate_trajectory(small_bath, 0.02, seed=11)
    mid = traj.state_at((traj.times[0] + traj.times[1]) / 2)
    assert mid == traj.levels[0]
    dwells = traj.dwell_times(0)
    assert len(dwells) >= 1
    assert math.isclose(dwells[0], traj.times[0], rel_tol=1e-12)


def test_mean_level_per_bin_time_weighting(row1):
    traj = jumpsim.JumpTrajectory(
        times=np.array([0.25, 0.75]), levels=np.array([1, 0]),
        duration=1.0, seed=0, measurement_channels=False)
    mean = traj.mean_level_per_bin(0.5)
    assert np.allclose(mean, [0.5, 0.5])
    mean4 = traj.mean_level_per_bin(0.25)
    assert np.allclose(mean4, [0.0, 1.0, 1.0, 0.0])


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 200_000), st.floats(1e-9, 1e3) | st.sampled_from([5e-6, 7e-5, 0.1]))
def test_bin_edges_match_product(n, bin_width):
    """mean_level_per_bin's edges are np.arange(n + 1) * bin_width bit for bit.

    Level 1 from t = 5e-324 on integrates to each edge itself, so the bin
    means are the edges' differences over bin_width.
    """
    traj = jumpsim.JumpTrajectory(np.array([5e-324]), np.array([1]), n * bin_width, 0, False)
    edges = np.arange(n + 1) * bin_width
    assert traj.mean_level_per_bin(bin_width).tobytes() == (np.diff(edges) / bin_width).tobytes()


@st.composite
def _readouts(draw):
    """(times, bin_width, n_bins): sorted event times on a readout's bin grid."""
    duration = draw(st.floats(1e-300, 1e300))
    bin_width = duration / draw(st.floats(1.0, 3000.0))
    n_bins = jumpsim.readout_bins(duration, bin_width)
    on_edges = st.integers(0, n_bins).map(lambda i: i * bin_width)
    times = draw(st.lists(st.floats(0.0, duration) | on_edges, max_size=60))
    return np.sort(np.array(times, dtype=float)), bin_width, n_bins


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_readouts())
# on edges, where t / bin_width may round up past the edge, and just past edge 9
# (0.9), where it rounds down onto it
@example((np.array([0.1, 0.2, 0.30000000000000004, 0.6000000000000001, 0.9000000000000001]),
          0.1, 10))
@example((np.array([0.0, 5e-324]), 1e-4, 10))       # t = 0, and the least positive time
@example((np.array([5e-324, 1.0, 1.05, 1.0999]), 0.25, 4))   # past the last edge at 1.0
@example((np.array([0.25, 0.5]), 1.0, 1))           # one bin
@example((np.array([0.5, 0.9999999999999999]), 1.0 + 4e-10, 1))  # the widest bin of 1 s
@example((np.array([0.0, 5e-7, 0.123456, 0.9999995]), 1.0 / jumpsim.MAX_BINS, jumpsim.MAX_BINS))
def test_events_through_matches_searchsorted(case):
    """The per-bin count of events at or before each edge is searchsorted's, element for element."""
    times, bin_width, n_bins = case
    edges = np.arange(n_bins + 1) * bin_width
    got = jumpsim._events_through(times, edges, bin_width)
    assert got.tolist() == np.searchsorted(times, edges, side="right").tolist()


# ---------------------------------------------------------------------------
# statistics against the analytic rates
# ---------------------------------------------------------------------------

def test_ground_state_dwells_match_total_rate(row1):
    dwells = []
    duration = 10 * qnd.jump_budget(row1).tau_total
    for seed in range(2000):
        traj = jumpsim.simulate_trajectory(row1, duration, seed=10_000 + seed,
                                           include_measurement_channels=True)
        if len(traj.times):
            dwells.append(traj.times[0])  # first exit from n = 0
    dwells = np.array(dwells)
    tau0 = qnd.jump_budget(row1).tau_total
    stderr = dwells.std(ddof=1) / math.sqrt(len(dwells))
    assert abs(dwells.mean() - tau0) < 3 * stderr


def test_dwell_times_exponential_ks(small_bath):
    traj = jumpsim.simulate_trajectory(small_bath, 1.2, seed=99)
    dwells = traj.dwell_times(1)[:10_000]
    assert len(dwells) == 10_000
    n_bar = 2.0
    rate = (small_bath.omega_m / small_bath.Q) * (1 * (n_bar + 1) + n_bar * 2)
    result = kstest(dwells, "expon", args=(0, 1 / rate))
    assert result.pvalue > 0.01


def test_stationary_distribution_bose_einstein(small_bath):
    relax = small_bath.Q / small_bath.omega_m
    traj = jumpsim.simulate_trajectory(small_bath, 2.0, seed=42)
    sample_times = np.arange(50 * relax, 2.0, 10 * relax)
    states = traj.state_at(sample_times)
    n_levels = 10
    counts = np.array([(states == k).sum() for k in range(n_levels)]
                      + [(states >= n_levels).sum()])
    probs = bose_einstein_pmf(2.0, n_levels)
    stat, pvalue = chisquare(counts, probs * counts.sum())
    assert pvalue > 0.01
    assert abs(states.mean() / 2.0 - 1) < 0.05


# ---------------------------------------------------------------------------
# binned readout
# ---------------------------------------------------------------------------

def test_readout_noiseless_levels(small_bath):
    traj = jumpsim.simulate_trajectory(small_bath, 0.02, seed=8)
    dw = qnd.detuning_per_phonon(small_bath)
    trace = jumpsim.binned_readout(traj, small_bath, 1e-3, seed=0)
    # subtracting the noise realization leaves exactly dw (mean_n + 1/2)
    rng = np.random.default_rng(0)
    noise = rng.normal(0.0, trace.noise_sigma, len(trace.freq_estimates))
    recovered = (trace.freq_estimates - noise) / dw - 0.5
    assert np.allclose(recovered, trace.true_n_per_bin, atol=1e-12)


def test_readout_noise_variance(row1):
    frozen = with_value(row1, "T", 0.0)
    duration = 1.0
    bw = 1e-4
    traj = jumpsim.simulate_trajectory(frozen, duration, seed=1)
    trace = jumpsim.binned_readout(traj, frozen, bw, seed=123)
    assert len(trace.freq_estimates) == 10_000
    s_omega = qnd.pdh_noise_psd(frozen).s_omega
    var = trace.freq_estimates.var(ddof=1)
    assert abs(var / (s_omega / bw) - 1) < 0.05
    assert np.allclose(trace.true_n_per_bin, 0.0)


def test_readout_bandwidth_flag(row1):
    traj = jumpsim.simulate_trajectory(with_value(row1, "T", 0.0), 1e-3, seed=1)
    wide = jumpsim.binned_readout(traj, row1, 1e-4, seed=1)
    assert wide.bandwidth_ok
    narrow = jumpsim.binned_readout(traj, row1, 1e-6, seed=1)
    assert not narrow.bandwidth_ok


# ---------------------------------------------------------------------------
# detection statistics
# ---------------------------------------------------------------------------

def _noiseless_like(trace):
    # rebuild the estimates without noise for threshold sanity tests
    return trace.delta_omega * (trace.true_n_per_bin + 0.5)


def test_detection_noiseless_perfect(small_bath):
    traj = jumpsim.simulate_trajectory(small_bath, 0.05, seed=21)
    trace = jumpsim.binned_readout(traj, small_bath, 2e-4, seed=0)
    clean = jumpsim.ReadoutTrace(
        trace.bin_width, trace.bin_centers, _noiseless_like(trace),
        trace.true_n_per_bin, trace.delta_omega, 0.0, True, 0)
    dw = trace.delta_omega
    stats = jumpsim.jump_detection_stats(clean, dw)
    assert stats.detection_probability == 1.0
    assert stats.false_alarm_rate == 0.0


def test_false_alarm_matches_gaussian_tail(row1):
    frozen = with_value(row1, "T", 0.0)
    traj = jumpsim.simulate_trajectory(frozen, 10.0, seed=2)
    bw = 1e-3  # wide enough that 1.5 sigma stays below the n=1 level
    trace = jumpsim.binned_readout(traj, frozen, bw, seed=77)
    z = 1.5
    threshold = trace.signal_level(0) + z * trace.noise_sigma
    assert threshold < trace.signal_level(1)
    stats = jumpsim.jump_detection_stats(trace, threshold)
    expected = 0.5 * erfc(z / math.sqrt(2))
    assert stats.n_ground_bins == 10_000
    assert abs(stats.false_alarm_rate / expected - 1) < 0.10


def test_roc_ordering_between_scenarios(row1, row2):
    """The higher-SNR scenario detects better at matched false-alarm level."""
    rates = {}
    for name, p in (("row1", row1), ("row2", row2)):
        budget = qnd.jump_budget(p)
        bw = budget.tau_total  # averaging window matched to the lifetime
        flagged = trials = 0
        for seed in range(1500):
            traj = jumpsim.simulate_trajectory(p, 4 * bw, seed=50_000 + seed,
                                               include_measurement_channels=True)
            trace = jumpsim.binned_readout(traj, p, bw, seed=90_000 + seed)
            jumped = np.rint(trace.true_n_per_bin) >= 1
            if not jumped.any():
                continue
            threshold = trace.signal_level(0) + 2.0 * trace.noise_sigma
            flagged += (trace.freq_estimates[jumped] > threshold).sum()
            trials += jumped.sum()
        rates[name] = flagged / trials
    assert rates["row2"] > rates["row1"]


def test_detection_threshold_validation(small_bath):
    traj = jumpsim.simulate_trajectory(small_bath, 0.01, seed=3)
    trace = jumpsim.binned_readout(traj, small_bath, 1e-3, seed=3)
    with pytest.raises(ValidationError):
        jumpsim.jump_detection_stats(trace, trace.signal_level(0) * 0.5)
    with pytest.raises(ValidationError):
        jumpsim.jump_detection_stats(trace, trace.signal_level(1) * 1.5)
    for level in (0, 1):   # the range is open at both signal levels
        with pytest.raises(ValidationError):
            jumpsim.jump_detection_stats(trace, trace.signal_level(level))


def test_char_fn_oracle_matches_expm(row2):
    # the batched eigendecomposition against one expm per alpha, on criterion
    # 9(c)'s measurement-channel generator, bin width and starting states
    b = qnd.jump_budget(row2)
    bw = b.tau_total / 4
    G = birth_death_generator(row2, 40, include_measurement_channels=True,
                              rate01=1 / b.tau_lin, rate02=1 / b.tau_rwa)
    starts = [np.eye(41)[0], np.eye(41)[1], np.full(41, 1 / 41)]
    alphas = [0.0, 0.7, 3.1, 12.0]
    batched = bin_average_char_fn(G, starts, bw, alphas)
    direct = bin_average_char_fn_expm(G, starts, bw, alphas)
    assert batched[0] == pytest.approx(1.0, abs=1e-12)
    assert np.abs(batched - direct).max() < 1e-12

