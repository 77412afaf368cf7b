"""CSV and JSON emission with embedded metadata.

A CSV file is written from a Table of equal-length columns: float64
arrays, int64 arrays or sequences of str.  It uses '.' decimals, ','
delimiters and '#'-prefixed metadata header lines.  Floats are printed
with 17 significant digits, so a value round-trips losslessly, and a
missing (NaN) float is a blank cell, which read_csv reads back as NaN.
Columns are written a batch of rows at a time, and within a batch each
distinct bit pattern of a column is formatted once.  JSON cannot carry
comments, so metadata goes into a leading "metadata" object instead; JSON
is written strictly, with a missing (NaN) value as null.  Nothing
time-dependent is ever written: identical inputs must give byte-identical
files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import NumericsError, ValidationError


def format_value(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


def metadata_lines(metadata: dict) -> list[str]:
    return [f"# {key} = {format_value(val)}" for key, val in metadata.items()]


def format_distinct(values, fmt) -> list[str]:
    """fmt of each element of a float64 or int64 array, called once per distinct bit pattern.

    Bit patterns tell -0.0 from 0.0 and match a NaN with itself, so neither
    needs a rule of its own.
    """
    values = np.asarray(values)
    bits, at = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.array(list(map(fmt, bits.view(values.dtype).tolist())), dtype=object)
    return texts[at].tolist()


def _float_text(v: float) -> str:
    return "%.17g" % v if v == v else ""   # NaN, a missing value, is a blank cell


_FORMATS = {np.dtype(np.float64): _float_text, np.dtype(np.int64): "%d".__mod__}
_BATCH = 8192   # rows formatted per write


class Table:
    """Equal-length CSV columns, each a float64 or int64 array or a sequence of str.

    len() is the row count.  Raises ValueError for columns of unequal
    length, or an array that is not 1-D float64 or int64.
    """

    def __init__(self, *columns):
        lengths = {len(col) for col in columns}
        if len(lengths) != 1:
            raise ValueError(f"table columns must share one length (got {sorted(lengths)})")
        if any(isinstance(col, np.ndarray) and (col.dtype not in _FORMATS or col.ndim != 1)
               for col in columns):
            raise ValueError("table arrays must be 1-D float64 or int64")
        self.columns = columns
        self.rows = lengths.pop()

    def __len__(self) -> int:
        return self.rows

    def __getitem__(self, rows: slice) -> Table:
        """The rows in a slice, as a Table of the columns' slices."""
        return Table(*(col[rows] for col in self.columns))


def _texts(column):
    """The cell texts of one column of a batch."""
    if isinstance(column, np.ndarray):
        return format_distinct(column, _FORMATS[column.dtype])
    return column   # str already


def write_csv(path, header, table: Table, metadata: dict | None = None) -> None:
    """Write a Table under its header and a metadata header, a batch of rows at a time.

    Raises ValueError if the header and the table differ in column count.
    """
    if len(header) != len(table.columns):
        raise ValueError(f"{len(header)} header names for {len(table.columns)} columns")
    with open(path, "w", encoding="utf-8") as out:
        out.write("\n".join([*metadata_lines(metadata or {}), ",".join(header)]) + "\n")
        for lo in range(0, len(table), _BATCH):
            cols = [_texts(col) for col in table[lo:lo + _BATCH].columns]
            out.write("\n".join(map(",".join, zip(*cols))) + "\n")


def read_csv(path) -> dict[str, np.ndarray]:
    """Read a metadata-headed CSV back as float columns (non-floats -> nan).

    Raises ValidationError if there is no header row, the header repeats a
    column name, or a data row's cell count differs from the header's.
    """
    header = None
    data: list[list[float]] = []
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = [c.strip() for c in line.split(",")]
            for i, name in enumerate(header):
                if name in header[:i]:
                    raise ValidationError(f"{path}:{lineno}: column '{name}' repeated in header")
            continue
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValidationError(
                f"{path}:{lineno}: expected {len(header)} cells, got {len(cells)}")
        row = []
        for cell in cells:
            try:
                row.append(float(cell))
            except ValueError:
                row.append(float("nan"))
        data.append(row)
    if header is None:
        raise ValidationError(f"{path}: no header row found")
    table = np.asarray(data, dtype=float) if data else np.empty((0, len(header)))
    return {name: table[:, i] for i, name in enumerate(header)}


def _nan_to_none(v):
    """v with every float NaN, also inside dicts and lists, replaced by None."""
    if isinstance(v, float):
        return None if v != v else v
    if isinstance(v, dict):
        return {key: _nan_to_none(val) for key, val in v.items()}
    if isinstance(v, (list, tuple)):
        return [_nan_to_none(val) for val in v]
    return v


def write_json(path, payload: dict, metadata: dict | None = None) -> None:
    """Write strict JSON: NaN becomes null, and an infinite value raises NumericsError."""
    doc = _nan_to_none({"metadata": metadata or {}, **payload})
    try:
        text = json.dumps(doc, indent=2, sort_keys=False, allow_nan=False)
    except ValueError as exc:
        raise NumericsError(f"cannot write {path}: {exc}") from None
    Path(path).write_text(text + "\n", encoding="utf-8")
