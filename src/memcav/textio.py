"""CSV and JSON emission with embedded metadata.

CSV files use '.' decimals, ',' delimiters, and '#'-prefixed metadata
header lines; floats are printed with 17 significant digits so a value
round-trips losslessly.  Rows are written a batch at a time, and a value
that repeats within a batch is formatted once.  JSON cannot carry
comments, so metadata goes into a leading "metadata" object instead; JSON
is written strictly, with a missing (NaN) value as null.  Nothing
time-dependent is ever written: identical inputs must give byte-identical
files.
"""

from __future__ import annotations

import json
from itertools import islice
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


# printf-style code per exact cell type, each giving the text format_value
# gives.  A column whose cell types all lie in one group is formatted through
# that group's memo; any other column goes through format_value per cell.
_CELL_CODES = {float: "%.17g", bool: "%d", int: "%d", str: "%s"}
# Within a group, cells that compare equal print alike, zeros aside (see
# _Memo).  Across groups they need not: 1e17 == 10**17 and -0.0 == False,
# so floats and ints never share a memo.
_GROUPS = (frozenset({float, str}), frozenset({int, bool, str}))
_BATCH = 8192   # rows formatted per write


class _Memo(dict):
    """cell -> text, formatting a cell the first time it is looked up."""

    def __missing__(self, v):
        text = _CELL_CODES[type(v)] % v
        if v != 0:   # 0.0 == -0.0, which print differently
            self[v] = text
        return text


def _column_texts(column: tuple, memos: list) -> list:
    """The texts of one column's cells, through the memo of its type group."""
    types = set(map(type, column))
    for group, memo in zip(_GROUPS, memos):
        if types <= group:
            return list(map(memo.__getitem__, column))
    return list(map(format_value, column))


def write_csv(path, columns, rows, metadata: dict | None = None) -> None:
    """Write rows (an iterable of sequences, or a 2-D ndarray) under a metadata header.

    Rows are formatted and written a batch at a time, so an iterator of
    rows is never held whole; the memos of repeated cells live for one
    batch.  Raises ValueError if the rows of a batch differ in length.
    """
    if isinstance(rows, np.ndarray):
        rows = rows.tolist()  # Python scalars hit the memos
    rows = iter(rows)
    with open(path, "w", encoding="utf-8") as out:
        out.write("\n".join([*metadata_lines(metadata or {}), ",".join(columns)]) + "\n")
        while batch := list(islice(rows, _BATCH)):
            memos = [_Memo() for _ in _GROUPS]
            cols = [_column_texts(col, memos) for col in zip(*batch, strict=True)]
            out.write("\n".join(map(",".join, zip(*cols))) + "\n")


def read_csv(path) -> dict[str, np.ndarray]:
    """Read a metadata-headed CSV back as float columns (non-floats -> nan).

    Raises ValidationError if there is no header row or a data row's cell
    count differs from the header's.
    """
    header = None
    data: list[list[float]] = []
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = [c.strip() for c in line.split(",")]
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
