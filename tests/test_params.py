import math
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from memcav.errors import ConfigError, ValidationError
from memcav.sweep import grid_violations
from memcav.params import (
    CONST,
    ExperimentParams,
    MembraneSpec,
    PhysicalConstants,
    attr_name,
    load_config,
    save_config,
    validate,
    with_value,
)


def test_constants_pinned():
    assert CONST.hbar == 1.054571628e-34
    assert CONST.k_B == 1.3806504e-23
    assert CONST.c == 2.99792458e8


def test_constants_not_overridable():
    with pytest.raises(TypeError):
        PhysicalConstants(hbar=1.0)
    with pytest.raises(Exception):
        CONST.hbar = 2.0


def test_load_config_row1(row1_config, row1):
    p = load_config(row1_config)
    assert validate(p) == []
    assert p.Q == 1.2e7
    assert p.r_c == 0.999
    assert p.L == 0.067
    assert math.isclose(p.omega_m, row1.omega_m, rel_tol=1e-10)


def test_load_config_rejects_rc_one(tmp_path, row1_config):
    text = row1_config.read_text().replace("r_c = 0.999", "r_c = 1.0")
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    with pytest.raises(ConfigError, match="r_c must be < 1"):
        load_config(bad)


def test_load_config_rejects_negative_omega(tmp_path, row1_config):
    text = row1_config.read_text().replace("omega_m = 6.2831853071795865e5",
                                           "omega_m = -1")
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    with pytest.raises(ConfigError, match="omega_m"):
        load_config(bad)


@pytest.mark.parametrize("mutation, key", [
    ("L = 0.067\n", "missing"),           # dropped line -> missing key
    ("L = zero\n", "not a number"),
    ("extra = 1\n", "unknown key"),
    ("L 0.067\n", "no equals sign"),
    ("L = 0.067\n", "duplicate key"),
])
def test_load_config_malformed(tmp_path, row1_config, mutation, key):
    text = row1_config.read_text()
    if key == "missing":
        text = text.replace("L = 0.067\n", "")
    elif key in ("not a number", "no equals sign"):
        text = text.replace("L = 0.067\n", mutation)
    else:
        text += mutation
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    match = {"no equals sign": "expected 'key = value', got 'L 0.067'",
             "duplicate key": "duplicate key 'L'"}.get(key)
    with pytest.raises(ConfigError, match=match):
        load_config(bad)


def test_validate_ordering(row1):
    p = with_value(with_value(row1, "F", 0.5), "T", 0.0)
    violations = validate(p)
    assert len(violations) == 2
    assert violations[0].startswith("F ")
    assert violations[1].startswith("T ")


def test_validate_rc_boundary(row1):
    assert validate(with_value(row1, "r_c", 1.0)) == ["r_c must be < 1 (got 1.0)"]
    assert validate(with_value(row1, "r_c", 0.0)) == []


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("key", ["L", "lambda", "F", "P_in", "T", "m", "omega_m",
                                 "Q", "r_c", "x0"])
def test_validate_rejects_non_finite(row1, key, value):
    assert validate(with_value(row1, key, value)) == [f"{key} must be finite (got {value})"]


def test_load_config_rejects_inf(tmp_path, row1_config):
    bad = tmp_path / "bad.cfg"
    bad.write_text(row1_config.read_text().replace("P_in = 1e-5", "P_in = inf"))
    with pytest.raises(ConfigError, match="P_in must be finite"):
        load_config(bad)


def test_validate_x0_quarter_period(row1):
    assert validate(with_value(row1, "x0", row1.lam / 4)) != []
    assert validate(with_value(row1, "x0", row1.lam / 16)) == []


def test_save_load_roundtrip(tmp_path, row1):
    path = tmp_path / "out.cfg"
    save_config(row1, path)
    p = load_config(path)
    assert p == row1  # full float precision


def test_membrane_spec_invariants():
    MembraneSpec(2.0, 50e-9)
    with pytest.raises(ValidationError):
        MembraneSpec(0.9, 50e-9)
    with pytest.raises(ValidationError):
        MembraneSpec(2.0, 0.0)


@pytest.mark.parametrize("n_index, d", [(math.inf, 50e-9), (math.nan, 50e-9),
                                         (2.0, math.inf), (2.0, math.nan)])
def test_membrane_spec_rejects_non_finite(n_index, d):
    with pytest.raises(ValidationError, match="must be finite"):
        MembraneSpec(n_index, d)


def test_with_value_unknown_field(row1):
    with pytest.raises(ValidationError, match="unknown parameter 'nope'"):
        with_value(row1, "nope", 1.0)


def test_attr_name_accepts_attribute_or_config_key():
    assert attr_name("lambda") == attr_name("lam") == "lam" and attr_name("F") == "F"
    with pytest.raises(ValidationError):
        attr_name("Lambda")


_ROW1 = dict(L=0.067, lam=5.32e-7, F=3e5, P_in=1e-5, T=0.3, m=5e-14,
             omega_m=6.2831853071795865e5, Q=1.2e7, r_c=0.999, x0=5e-13)

# Each field's values at and next to the ends of its interval, and the
# non-finite ones; the properties below try each alone on row 1.
_EDGES = {name: [math.inf, -math.inf, math.nan] for name in _ROW1}
_EDGES["F"] += [1.0, math.nextafter(1.0, 0.0)]
_EDGES["r_c"] += [-0.0, math.nextafter(1.0, 0.0), 1.0]
_EDGES["x0"] += [_ROW1["lam"] / 8, math.nextafter(_ROW1["lam"] / 8, 0.0)]
for _name in ("L", "lam", "P_in", "Q", "T", "m", "omega_m"):
    _EDGES[_name].append(-0.0)


def _examples(cases):
    """One hypothesis @example per case."""
    def apply(test):
        for case in cases:
            test = example(case)(test)
        return test
    return apply


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.tuples(*[st.floats()] * 10))
@_examples([tuple({**_ROW1, name: v}.values()) for name, values in _EDGES.items() for v in values])
def test_validate_never_raises(values):
    violations = validate(ExperimentParams(*values))
    assert all(isinstance(v, str) for v in violations)
    assert any("must be finite" in v for v in violations) == (not all(map(math.isfinite, values)))


@st.composite
def _valid_params(draw):
    """Any ten floats that pass validate(), signed zeros and subnormals included."""
    def floats(lo, hi=None, exclude_min=True):
        return st.floats(lo, hi, exclude_min=exclude_min, allow_infinity=False)
    lam = draw(floats(8 * 5e-324))
    zero_or = lambda s: st.one_of(st.sampled_from([0.0, -0.0]), s)
    values = dict(
        L=draw(floats(0.0)), lam=lam, F=draw(floats(1.0, exclude_min=False)),
        P_in=draw(floats(0.0)), T=draw(floats(0.0)), m=draw(floats(0.0)),
        omega_m=draw(floats(0.0)), Q=draw(floats(0.0)),
        r_c=draw(zero_or(st.floats(0.0, 1.0, exclude_max=True))),
        x0=draw(zero_or(st.floats(0.0, lam / 8, exclude_max=True))))
    p = ExperimentParams(**values)
    assert validate(p) == []
    return p


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_valid_params())
def test_save_load_roundtrip_exact(p):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.cfg"
        save_config(p, path)
        loaded = load_config(path)
    # bit for bit, so -0.0 stays -0.0
    assert [v.hex() for v in vars(loaded).values()] == [v.hex() for v in vars(p).values()]


def _grid_values(typical):
    """A field's values: the scenario's, ones that fail a rule, and the non-finite."""
    return st.sampled_from([typical, typical, 2 * typical, 0.0, -0.0, -1.0, 1.0, 1e-7,
                            math.nan, math.inf, -math.inf])


@st.composite
def _grids(draw):
    """(fields as arrays with one dimension per axis, the shape) of a 1-3 axis grid."""
    names = draw(st.lists(st.sampled_from(sorted(_ROW1)), min_size=1, max_size=3, unique=True))
    ones = (1,) * len(names)
    fields = {name: np.full(ones, draw(_grid_values(v))) for name, v in _ROW1.items()}
    for k, name in enumerate(names):
        # repeated values along an axis are drawn often from these small pools
        values = draw(st.lists(_grid_values(_ROW1[name]), min_size=1, max_size=4))
        fields[name] = np.array(values).reshape(ones[:k] + (-1,) + ones[k + 1:])
    return fields, np.broadcast_shapes(*(v.shape for v in fields.values()))


def _axes_grid(*axes):
    """A grid like _grids' of row 1 whose axes, in order, are (name, values) pairs."""
    ones = (1,) * len(axes)
    fields = {name: np.full(ones, v) for name, v in _ROW1.items()}
    for k, (name, values) in enumerate(axes):
        fields[name] = np.array(values).reshape(ones[:k] + (-1,) + ones[k + 1:])
    return fields, np.broadcast_shapes(*(v.shape for v in fields.values()))


# x0's lambda/8 rule holds only where lambda > 0
_LAM_AXIS = ("lam", [_ROW1["lam"], 0.0, -0.0, -1.0, math.nan, math.inf])
_X0_AXIS = ("x0", [0.0, -0.0, _ROW1["lam"] / 8, 1e-7, 1.0, math.nan, math.inf])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_grids())
@_examples([_axes_grid((name, values)) for name, values in _EDGES.items()])
@_examples([_axes_grid(_LAM_AXIS, _X0_AXIS), _axes_grid(_X0_AXIS, _LAM_AXIS)])
def test_grid_violations_equal_validate_at_every_point(grid):
    fields, shape = grid
    expected = ["; ".join(validate(ExperimentParams(**{name: np.broadcast_to(v, shape)[at].item()
                                                       for name, v in fields.items()})))
                for at in np.ndindex(*shape)]
    found = grid_violations(SimpleNamespace(**fields), shape)
    assert found.dtype == object and found.shape == (math.prod(shape),)
    assert found.tolist() == expected   # "" at every valid point
