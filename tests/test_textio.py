import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from memcav import textio
from memcav.errors import NumericsError, ValidationError
from memcav.fitting import fit_exponential_decay
from memcav.textio import Table, format_value, read_csv, write_csv, write_json


@pytest.mark.parametrize("value", [1.0, -1.0, 0.067, 5.32e-7, 1.054571628e-34,
                                   2.99792458e8, 1e300, -3.7e-301])
def test_float_formatting_round_trips(value):
    assert float(format_value(value)) == value


def test_format_value_ints_and_bools():
    assert format_value(7) == "7"
    assert format_value(True) == "1"
    assert format_value(np.bool_(False)) == "0"


def test_csv_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    table = Table(np.array([1.5, 3.0]), np.array([-2.25e-7, 4.0e12]))
    write_csv(path, ["a", "b"], table, {"seed": 42, "note": "x"})
    text = path.read_text()
    assert text.startswith("# seed = 42\n# note = x\n")
    cols = read_csv(path)
    assert np.array_equal(cols["a"], [1.5, 3.0])
    assert np.array_equal(cols["b"], [-2.25e-7, 4.0e12])


def test_read_csv_skips_blank_and_comment_lines(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("# meta\n\na,b\n1,2\n# trailing comment\n3,4\n")
    cols = read_csv(path)
    assert list(cols["a"]) == [1.0, 3.0]


def _cell(v) -> str:
    """The CSV text of one cell: format_value's, blank for a NaN."""
    return "" if isinstance(v, float) and v != v else format_value(v)


def test_write_csv_matches_format_value_bytes(tmp_path):
    floats = np.array([1.5, -0.0, math.inf, math.nan, 5.32e-7, 0.1, -math.inf, 1e300])
    ints = np.array([7, -3, 0, 1, -12, 10**17, 2**63 - 1, -2**63])
    strs = ["x", "", "nan", "0", "1e17", "-0", "a b", "x"]
    meta = {"seed": 3, "flag": np.bool_(False)}
    path = tmp_path / "t.csv"
    write_csv(path, ["f", "i", "s"], Table(floats, ints, strs), meta)
    expected = ["# seed = 3", "# flag = 0", "f,i,s"]
    expected += [",".join(map(_cell, row)) for row in zip(floats.tolist(), ints.tolist(), strs)]
    assert path.read_bytes() == ("\n".join(expected) + "\n").encode("utf-8")


@pytest.mark.parametrize("text, lineno", [
    ("a,b\n1,2\n3,4,5\n", 3),
    ("# meta\na,b\n1\n", 3),
    ("a,b\n1,2\n\n3,4,\n", 4),
])
def test_read_csv_rejects_ragged_rows(tmp_path, text, lineno):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(ValidationError, match=f"t.csv:{lineno}: expected 2 cells"):
        read_csv(path)


def test_read_csv_rejects_repeated_column(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("# meta\nt_s,power,t_s\n1,2,2\n")
    with pytest.raises(ValidationError, match="t.csv:2: column 't_s' repeated in header"):
        read_csv(path)


def test_read_csv_without_header(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("# only metadata\n")
    with pytest.raises(ValidationError, match="no header row"):
        read_csv(path)


def test_write_json_metadata_first(tmp_path):
    import json
    path = tmp_path / "t.json"
    write_json(path, {"x": 1.0}, {"tool": "memcav"})
    doc = json.loads(path.read_text())
    assert list(doc) == ["metadata", "x"]


def test_write_json_nan_as_null(tmp_path):
    import json
    path = tmp_path / "t.json"
    nan = float("nan")
    write_json(path, {"x": nan, "nested": {"y": np.float64(nan), "z": [1.0, nan]}},
               {"tool": "memcav"})
    text = path.read_text()
    assert "NaN" not in text
    assert json.loads(text) == {"metadata": {"tool": "memcav"}, "x": None,
                                "nested": {"y": None, "z": [1.0, None]}}


@pytest.mark.parametrize("value", [float("inf"), -float("inf")])
def test_write_json_rejects_infinity(tmp_path, value):
    path = tmp_path / "t.json"
    with pytest.raises(NumericsError):
        write_json(path, {"tau": [1.0, value]})
    assert not path.exists()


def test_fit_rejects_non_increasing_time():
    t = np.array([0.0, 1.0, 1.0, 2.0] + list(np.linspace(3, 10, 20)))
    y = np.exp(-t)
    with pytest.raises(ValidationError):
        fit_exponential_decay(t, y)


# small pools, so that equal values of different bits (0.0 and -0.0, NaN
# payloads) and of different kinds (1e17 and 10**17) meet in one table
_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324,
                                     2.2250738585072e-308, 1e17, 1.0, -1.0, 0.1]),
                    st.floats())
_INTS = st.one_of(st.sampled_from([0, 1, -1, 10**17, 7, 2**63 - 1, -2**63]),
                  st.integers(-2**63, 2**63 - 1))
_STRS = st.sampled_from(["", "x", "0", "nan", "1e17"])


@st.composite
def _column(draw, rows):
    """(column, its cells) of one kind: floats, ints, strs or one repeated float."""
    kind = draw(st.sampled_from(["floats", "ints", "strs", "constant"]))
    if kind == "constant":   # a stride-0 view, as a sweep's fixed parameters are
        value = draw(_FLOATS)
        return np.broadcast_to(value, rows), [value] * rows
    cells = draw(st.lists({"floats": _FLOATS, "ints": _INTS, "strs": _STRS}[kind],
                          min_size=rows, max_size=rows))
    if kind == "strs":
        return cells, cells
    return np.array(cells, dtype=float if kind == "floats" else np.int64), cells


@st.composite
def _tables(draw):
    rows = draw(st.integers(1, 12))
    return draw(st.lists(_column(rows), min_size=1, max_size=5))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_tables(), st.integers(1, 5))
def test_write_csv_equals_format_value_join(tmp_path_factory, columns, batch):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    header = [f"c{k}" for k in range(len(columns))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(textio, "_BATCH", batch)   # several batches, each formatted on its own
        write_csv(path, header, Table(*(col for col, _ in columns)))
    expected = [",".join(header)]
    expected += [",".join(map(_cell, row)) for row in zip(*(cells for _, cells in columns))]
    assert path.read_bytes() == ("\n".join(expected) + "\n").encode("utf-8")


def _nans(*bits):
    """NaNs with the given bit patterns (sign and payload)."""
    return np.array(bits, dtype=np.uint64).view(np.float64)


_NAN_BITS = (0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001, 0xFFF80000DEADBEEF,
             0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF)


@pytest.mark.parametrize("column", [
    # a negative NaN sorts, by the int64 view, just below +0.0
    np.array([0.0, -0.0, -math.nan]),
    np.concatenate([_nans(*_NAN_BITS), [0.0, -0.0, 0.0], _nans(*_NAN_BITS[::-1]), [-0.0]]),
    np.array([math.inf, -math.inf, 5e-324, -5e-324, 0.0, math.inf, 5e-324]),
    np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0, -1, 1, np.iinfo(np.int64).min]),
    np.array([-0.0]),
    _nans(0xFFF80000DEADBEEF),
    np.array([np.iinfo(np.int64).max]),
    np.broadcast_to(-0.0, 5),
    np.broadcast_to(_nans(0xFFF8000000000001), 4),
    np.broadcast_to(np.int64(np.iinfo(np.int64).min), 3),
], ids=["zeros-and-nan", "nan-payloads", "infinities-subnormals", "int64-ends", "one-row",
        "one-row-nan", "one-row-int", "stride-0", "stride-0-nan", "stride-0-int"])
def test_csv_cells_of_special_values(tmp_path, column):
    """Each cell is its own element's text, and format_distinct formats each bit pattern once."""
    path = tmp_path / "t.csv"
    write_csv(path, ["c"], Table(column))
    expected = ["c", *map(_cell, column.tolist())]
    assert path.read_bytes() == ("\n".join(expected) + "\n").encode("utf-8")
    handed = []

    def bit_patterns(values):   # of the distinct values format_distinct hands over
        handed.append(len(values))
        return values.view(np.uint64).tolist()

    assert textio.format_distinct(column, bit_patterns) == column.view(np.uint64).tolist()
    assert handed == [len(set(column.view(np.int64).tolist()))]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.one_of(_FLOATS.map(np.float64), _INTS.map(np.int64)), st.integers(1, 12),
       st.integers(1, 5))
def test_constant_column_writes_as_materialized(tmp_path_factory, value, rows, batch):
    # a stride-0 column formats one cell and repeats it, in every batch
    constant = np.broadcast_to(value, rows)
    assert constant.strides == (0,)
    out = tmp_path_factory.mktemp("csv")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(textio, "_BATCH", batch)
        write_csv(out / "constant.csv", ["c", "i"], Table(constant, np.arange(rows)))
        write_csv(out / "copy.csv", ["c", "i"], Table(constant.copy(), np.arange(rows)))
    assert (out / "constant.csv").read_bytes() == (out / "copy.csv").read_bytes()


@pytest.mark.parametrize("write, body", [
    (write_csv, (["a", "b"], Table(np.array([1.5, -0.0]), np.array([3, 4])), {"seed": 1})),
    (write_json, ({"x": 1.0}, {"tool": "memcav"})),
])
@pytest.mark.parametrize("existing", ["longer file", "symlink to a longer file"])
def test_write_replaces_an_existing_file_whole(tmp_path, write, body, existing):
    write(tmp_path / "fresh", *body)
    target = tmp_path / "target"
    target.write_text("old line\n" * 1000)
    path = target
    if existing.startswith("symlink"):
        path = tmp_path / "link"
        path.symlink_to(target)
    write(path, *body)
    assert path.is_symlink() == existing.startswith("symlink")
    assert target.read_bytes() == (tmp_path / "fresh").read_bytes()


def test_failed_write_leaves_no_old_tail(tmp_path, monkeypatch):
    columns = Table(np.arange(6.0))
    write_csv(tmp_path / "fresh.csv", ["c"], columns)
    path = tmp_path / "t.csv"
    path.write_text("old line\n" * 1000)
    monkeypatch.setattr(textio, "_BATCH", 2)
    real, calls = textio.format_distinct, []

    def format_distinct(values, format_all):   # the disk fills in the third batch
        calls.append(values)
        if len(calls) == 3:
            raise OSError(28, "No space left on device")
        return real(values, format_all)

    monkeypatch.setattr(textio, "format_distinct", format_distinct)
    with pytest.raises(ValidationError, match="No space left on device"):
        write_csv(path, ["c"], columns)
    written = path.read_bytes()
    assert written and (tmp_path / "fresh.csv").read_bytes().startswith(written)


def test_write_csv_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError):
        Table(np.array([1.0, 2.0]), np.array([3.0]))
    with pytest.raises(ValueError):
        Table(np.array([1.0, 2.0]), ["a"])
    with pytest.raises(ValueError):   # the header names one column of two
        write_csv(tmp_path / "t.csv", ["a"], Table(np.array([1.0]), np.array([2.0])))


@pytest.mark.parametrize("array", [np.array([1.0, 2.0], dtype=np.float32),
                                   np.array([True, False]), np.zeros((2, 2))])
def test_table_rejects_other_arrays(array):
    with pytest.raises(ValueError, match="1-D float64 or int64"):
        Table(array)
