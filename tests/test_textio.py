import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from memcav import textio
from memcav.errors import NumericsError, ValidationError
from memcav.fitting import fit_exponential_decay
from memcav.textio import format_value, read_csv, write_csv, write_json


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
    rows = [(1.5, -2.25e-7), (3.0, 4.0e12)]
    write_csv(path, ["a", "b"], rows, {"seed": 42, "note": "x"})
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


def test_write_csv_matches_format_value_bytes(tmp_path):
    cells = [1.5, -0.0, float("inf"), float("nan"), 5.32e-7, 7, -3, True, False,
             np.float64(0.1), np.int64(-12), np.bool_(True), "x", ""]
    rows = [cells, list(reversed(cells))]
    table = np.array([[0.1, -0.0, 1e300], [float("nan"), -float("inf"), 2.99792458e8]])
    meta = {"seed": 3, "flag": np.bool_(False)}
    for name, data in (("rows", rows), ("table", table)):
        path = tmp_path / f"{name}.csv"
        write_csv(path, ["c"] * len(data[0]), data, meta)
        expected = ["# seed = 3", "# flag = 0", ",".join(["c"] * len(data[0]))]
        expected += [",".join(format_value(v) for v in row) for row in data]
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


# small pools, so that equal cells of different types (1e17 and 10**17,
# -0.0 and False, 1.0 and True) meet in one column and in neighbouring ones
_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324,
                                     2.2250738585072e-308, 1e17, 1.0, -1.0, 0.1]),
                    st.floats())
_INTS = st.sampled_from([0, 1, -1, 10**17, 7, True, False])
_STRS = st.sampled_from(["", "x", "0", "nan"])
_NUMPY = st.sampled_from([np.float64(-0.0), np.float64(0.1), np.int64(10**17), np.bool_(True),
                          np.float32(0.5)])
_COLUMNS = st.sampled_from([st.one_of(_FLOATS, _STRS), st.one_of(_INTS, _STRS), _STRS,
                            st.one_of(_FLOATS, _INTS, _STRS, _NUMPY)])


@st.composite
def _tables(draw):
    columns = draw(st.lists(_COLUMNS, min_size=1, max_size=5))
    return [[draw(cells) for cells in columns] for _ in range(draw(st.integers(1, 12)))]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_tables(), st.integers(1, 5))
def test_write_csv_equals_format_value_join(tmp_path_factory, rows, batch):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(textio, "_BATCH", batch)   # several batches, each with fresh memos
        write_csv(path, [f"c{k}" for k in range(len(rows[0]))], rows)
    expected = [",".join(f"c{k}" for k in range(len(rows[0])))]
    expected += [",".join(map(format_value, row)) for row in rows]
    assert path.read_bytes() == ("\n".join(expected) + "\n").encode("utf-8")


def test_write_csv_rejects_ragged_rows(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "t.csv", ["a", "b"], [(1.0, 2.0), (3.0,)])
