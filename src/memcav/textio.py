"""CSV and JSON emission with embedded metadata.

CSV files use '.' decimals, ',' delimiters, and '#'-prefixed metadata
header lines; floats are printed with 17 significant digits so a value
round-trips losslessly.  JSON cannot carry comments, so metadata goes into
a leading "metadata" object instead; JSON is written strictly, with a
missing (NaN) value as null.  Nothing time-dependent is ever written:
identical inputs must give byte-identical files.
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


# Exact-type fast path for the cells write_csv sees most; each entry formats
# its type exactly as format_value does, which handles every other type.
_CELL_FORMATTERS = {
    float: "{:.17g}".format,
    bool: lambda v: "1" if v else "0",
    int: str,
    str: str,
}


def write_csv(path, columns, rows, metadata: dict | None = None) -> None:
    """Write rows (an iterable of sequences, or a 2-D ndarray) under a metadata header."""
    lines = metadata_lines(metadata or {})
    lines.append(",".join(columns))
    if isinstance(rows, np.ndarray):
        rows = rows.tolist()  # Python scalars hit the fast path
    formatter = _CELL_FORMATTERS.get
    for row in rows:
        lines.append(",".join([formatter(type(v), format_value)(v) for v in row]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


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
