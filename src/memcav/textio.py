"""CSV and JSON emission with embedded metadata.

A CSV file is written from a Table of equal-length columns: float64
arrays, int64 arrays or sequences of str.  It uses '.' decimals, ','
delimiters and '#'-prefixed metadata header lines.  Floats are printed
with 17 significant digits, so a value round-trips losslessly, and a
missing (NaN) float is a blank cell, which read_csv reads back as NaN.
Columns are written a batch of rows at a time, and within a batch each
distinct bit pattern of a column is formatted once; a constant column (a
broadcast one, of stride 0) formats its one value once.  JSON cannot carry
comments, so metadata goes into a leading "metadata" object instead; JSON
is written strictly, with a missing (NaN) value as null.  Nothing
time-dependent is ever written: identical inputs must give byte-identical
files.

An existing file is rewritten in place, not truncated first, and a regular
file is then cut to the length written, also when the write fails, so no
old tail survives.  A file truncated to zero and rewritten is written back
at close on ext4 (its auto_da_alloc), which costs more than the write.
Only the CSV functions import numpy, so a config read or a JSON write loads none.
"""

from __future__ import annotations

import json
import os
import stat
from pathlib import Path

from .errors import NumericsError, ValidationError


_VALUE_TEXT = {bool: lambda v: "1" if v else "0", float: "{:.17g}".format}


def format_value(v) -> str:
    """A metadata value's text: a bool as 1 or 0, a float as %.17g, anything else as str."""
    if type(v).__module__ == "numpy":   # a numpy scalar, as the Python value it holds
        v = v.item()
    return _VALUE_TEXT.get(type(v), str)(v)


def format_distinct(values, format_all) -> list[str]:
    """The text of each element of a float64 or int64 array, each distinct bit pattern
    formatted once: format_all gets the distinct values, as an array, and returns
    their texts in order.

    The values are sorted once, by their int64 view.  Bit patterns tell -0.0
    from 0.0 and match a NaN with itself, so neither needs a rule of its own.
    """
    import numpy as np
    values = np.asarray(values)
    bits = values.view(np.int64)
    ascending = np.sort(bits)
    first = np.empty(ascending.size, dtype=bool)
    first[:1] = True
    np.not_equal(ascending[1:], ascending[:-1], out=first[1:])
    distinct = ascending[first]
    texts = np.asarray(format_all(distinct.view(values.dtype)), dtype=object)
    return texts[np.searchsorted(distinct, bits)].tolist()


def _float_cells(values):
    """%.17g of each float, in one % call, which round-trips; a NaN, a missing value, is blank."""
    import numpy as np
    texts = np.array((("%.17g\n" * values.size) % tuple(values.tolist())).split("\n"),
                     dtype=object)   # one more, "", after the last
    texts[:values.size][np.isnan(values)] = ""
    return texts


def _int_cells(values):
    return (("%d\n" * values.size) % tuple(values.tolist())).split("\n")


# keyed by dtype.type.__name__, which reads ~20x faster than dtype.name
_CELLS = {"float64": _float_cells, "int64": _int_cells}
_BATCH = 8192   # rows formatted per write


class Table:
    """Equal-length CSV columns, each a float64 or int64 array or a sequence of str.

    len() is the row count.  Raises ValueError for columns of unequal
    length, or an array that is not 1-D float64 or int64.
    """

    def __init__(self, *columns):
        import numpy as np
        lengths = {len(col) for col in columns}
        if len(lengths) != 1:
            raise ValueError(f"table columns must share one length (got {sorted(lengths)})")
        if any(isinstance(col, np.ndarray)
               and (col.dtype.type.__name__ not in _CELLS or col.ndim != 1) for col in columns):
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
    import numpy as np
    if not isinstance(column, np.ndarray):
        return column   # str already
    cells = _CELLS[column.dtype.type.__name__]
    if column.strides == (0,):   # one value, broadcast
        return format_distinct(column[:1], cells) * len(column)
    return format_distinct(column, cells)


def _write_text(path, write) -> None:
    """Open path as UTF-8 text without truncating it, call write(out), and cut a
    regular file to the length written (another file, such as /dev/null, cannot
    be cut).  Raises ValidationError, naming the path, if it cannot be written.
    """
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "w", encoding="utf-8") as out:
            regular = stat.S_ISREG(os.fstat(fd).st_mode)
            try:
                write(out)
                out.flush()
            finally:
                if regular:
                    os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror}") from None


def write_csv(path, header, table: Table, metadata: dict | None = None) -> None:
    """Write a Table under its header and a metadata header, a batch of rows at a time.

    Raises ValueError if the header and the table differ in column count,
    and ValidationError, naming the path, if the file cannot be written.
    """
    if len(header) != len(table.columns):
        raise ValueError(f"{len(header)} header names for {len(table.columns)} columns")

    def write(out):
        meta = [f"# {key} = {format_value(val)}" for key, val in (metadata or {}).items()]
        out.write("\n".join([*meta, ",".join(header)]) + "\n")
        for lo in range(0, len(table), _BATCH):
            cols = [_texts(col) for col in table[lo:lo + _BATCH].columns]
            out.write("\n".join(map(",".join, zip(*cols))) + "\n")

    _write_text(path, write)


def read_text(path, error=ValidationError) -> str:
    """The UTF-8 text of a file; raises `error`, naming the path, if it cannot be read."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise error(f"cannot read {path}: not UTF-8 text "
                    f"({exc.reason} at byte {exc.start})") from None


def read_csv(path) -> dict:
    """Read a metadata-headed CSV back as float columns (non-floats -> nan).

    Raises ValidationError if the file cannot be read as UTF-8 text, there
    is no header row, the header repeats a column name, or a data row's
    cell count differs from the header's.
    """
    header = None
    data: list[list[float]] = []
    for lineno, raw in enumerate(read_text(path).splitlines(), 1):
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
    import numpy as np
    table = np.asarray(data, dtype=float) if data else np.empty((0, len(header)))
    return {name: table[:, i] for i, name in enumerate(header)}


def _nan_to_none(v):
    """v with every NaN, also inside dicts and lists, replaced by None."""
    if isinstance(v, dict):
        return {key: _nan_to_none(val) for key, val in v.items()}
    if isinstance(v, (list, tuple)):
        return [_nan_to_none(val) for val in v]
    return None if v != v else v   # NaN alone is unequal to itself


def write_json(path, payload: dict, metadata: dict | None = None) -> None:
    """Write strict JSON: NaN becomes null, and an infinite value raises NumericsError.

    Raises ValidationError, naming the path, if the file cannot be written.
    """
    doc = _nan_to_none({"metadata": metadata or {}, **payload})
    try:
        text = json.dumps(doc, indent=2, sort_keys=False, allow_nan=False)
    except ValueError as exc:
        raise NumericsError(f"cannot write {path}: {exc}") from None
    _write_text(path, lambda out: out.write(text + "\n"))
