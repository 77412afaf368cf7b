"""CSV and JSON emission with embedded metadata.

CSV files use '.' decimals, ',' delimiters, and '#'-prefixed metadata
header lines; floats are printed with 17 significant digits so a value
round-trips losslessly.  JSON cannot carry comments, so metadata goes into
a leading "metadata" object instead; JSON is written strictly, with a
missing (NaN) value as null.  Nothing time-dependent is ever written:
identical inputs must give byte-identical files.
"""

from __future__ import annotations

import functools
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


# printf-style code per exact cell type, each giving the text format_value
# gives; a row with a cell of any other type goes through format_value
_CELL_CODES = {float: "%.17g", bool: "%d", int: "%d", str: "%s"}
_BATCH = 8192   # rows formatted per write


@functools.lru_cache(maxsize=256)
def _row_format(types: tuple) -> str | None:
    """The format of a row whose cells have these exact types, or None."""
    codes = [_CELL_CODES.get(t) for t in types]
    return None if None in codes else ",".join(codes)


def write_csv(path, columns, rows, metadata: dict | None = None) -> None:
    """Write rows (an iterable of sequences, or a 2-D ndarray) under a metadata header.

    Rows are formatted and written a batch at a time, so an iterator of
    rows is never held whole.
    """
    if isinstance(rows, np.ndarray):
        rows = rows.tolist()  # Python scalars hit the fast path
    lines = [*metadata_lines(metadata or {}), ",".join(columns)]
    with open(path, "w", encoding="utf-8") as out:
        for row in rows:
            fmt = _row_format(tuple(map(type, row)))
            lines.append(fmt % tuple(row) if fmt else ",".join(map(format_value, row)))
            if len(lines) >= _BATCH:
                out.write("\n".join(lines) + "\n")
                lines.clear()
        if lines:
            out.write("\n".join(lines) + "\n")


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
