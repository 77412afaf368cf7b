"""Physical constants and experiment parameter sets.

All quantities are SI base units throughout the package: meters, watts,
kelvin, kilograms, rad/s.  Config files use the same convention, so no unit
conversion happens anywhere.

Constants are pinned to CODATA 2006 so that derived numbers reproduce
bit-for-bit across installations; they are deliberately not overridable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, ValidationError
from .textio import format_distinct, read_text


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA 2006 values, fixed."""

    hbar: float = field(default=1.054571628e-34, init=False)  # J s
    k_B: float = field(default=1.3806504e-23, init=False)     # J/K
    c: float = field(default=2.99792458e8, init=False)        # m/s


CONST = PhysicalConstants()
HBAR = CONST.hbar
K_B = CONST.k_B
C_LIGHT = CONST.c


@dataclass(frozen=True)
class ExperimentParams:
    """One full scenario: cavity, laser, membrane oscillator, and bath.

    Attributes
    ----------
    L : cavity length [m]
    lam : laser wavelength [m]
    F : cavity finesse
    P_in : incident laser power [W]
    T : bath temperature [K]
    m : motional mass [kg]
    omega_m : mechanical angular frequency [rad/s]
    Q : mechanical quality factor
    r_c : membrane field reflectivity, 0 <= r_c < 1
    x0 : residual membrane offset from the detuning extremum [m]
    """

    L: float
    lam: float
    F: float
    P_in: float
    T: float
    m: float
    omega_m: float
    Q: float
    r_c: float
    x0: float


# Config keys, in file order.  "lambda" is a Python keyword, hence the
# lam attribute; everything else matches 1:1.
CONFIG_KEYS = ("L", "lambda", "F", "P_in", "T", "m", "omega_m", "Q", "r_c", "x0")
_KEY_TO_ATTR = {k: ("lam" if k == "lambda" else k) for k in CONFIG_KEYS}
_ATTR_TO_KEY = {v: k for k, v in _KEY_TO_ATTR.items()}

# Most points one sweep.grid_sweep evaluates, which bounds the rows memcav sweep
# writes; here so that cli's --help need not import sweep.  test_cli.py's
# test_command_at_its_caps_stays_bounded runs memcav sweep at this cap.
MAX_SWEEP_POINTS = 1_000_000


@dataclass(frozen=True)
class MembraneSpec:
    """Lossless dielectric slab: refractive index and thickness [m]."""

    n_index: float
    d: float

    def __post_init__(self):
        if not 1.0 <= self.n_index < math.inf:
            raise ValidationError(f"n_index must be finite and >= 1 (got {self.n_index})")
        if not 0.0 < self.d < math.inf:
            raise ValidationError(f"d must be finite and > 0 (got {self.d})")


def _rules(p) -> tuple:
    """(config key, value, [(holds, message), ...]) per key, in report order.

    The fields of p are floats, or arrays that broadcast together (a sweep
    grid), in which case every `holds` is a bool array over the grid.
    """
    # x0 must stay well inside one quarter-period of the detuning curve;
    # the bound applies only once lambda itself is positive ("a <= b" is
    # "a implies b" for bools and bool arrays alike).
    x0_in_period = (p.lam > 0.0) <= (p.x0 < p.lam / 8.0)
    return (
        ("F", p.F, ((p.F >= 1.0, "must be >= 1"),)),
        ("L", p.L, ((p.L > 0.0, "must be > 0"),)),
        ("P_in", p.P_in, ((p.P_in > 0.0, "must be > 0"),)),
        ("Q", p.Q, ((p.Q > 0.0, "must be > 0"),)),
        ("T", p.T, ((p.T > 0.0, "must be > 0"),)),
        ("lambda", p.lam, ((p.lam > 0.0, "must be > 0"),)),
        ("m", p.m, ((p.m > 0.0, "must be > 0"),)),
        ("omega_m", p.omega_m, ((p.omega_m > 0.0, "must be > 0"),)),
        ("r_c", p.r_c, ((p.r_c >= 0.0, "must be >= 0"), (p.r_c < 1.0, "must be < 1"))),
        ("x0", p.x0, ((p.x0 >= 0.0, "must be >= 0"), (x0_in_period, "must be < lambda/8"))),
    )


def validate(p: ExperimentParams) -> list[str]:
    """Check every parameter invariant; return violations, empty if valid.

    Violations are data, not errors: each failed invariant produces one
    message, ordered deterministically by config-key name.  A non-finite
    value gives a single "must be finite" message for its key.
    """
    out = []
    for key, value, checks in _rules(p):
        if not math.isfinite(value):
            out.append(f"{key} must be finite (got {value})")
            continue
        for ok, msg in checks:
            if not ok:
                out.append(f"{key} {msg} (got {value})")
    return out


def grid_violations(p, shape: tuple) -> np.ndarray:
    """validate() at every point of a grid, as one row-major object column.

    p's fields are arrays that broadcast to `shape`.  Each point holds the
    messages validate gives there, joined by "; ", and "" where it gives
    none.  Each rule formats a message only for a failing point, and once
    per distinct value.
    """
    found = np.full(math.prod(shape), "", dtype=object)
    for key, value, checks in _rules(p):
        finite = np.isfinite(value)
        for bad, msg in [(~finite, "must be finite"),
                         *((finite & ~ok, msg) for ok, msg in checks)]:
            if bad.any():
                where = np.flatnonzero(np.broadcast_to(bad, shape))
                got = np.broadcast_to(value, shape).ravel()[where]
                texts = np.array(format_distinct(got, lambda v: f"{key} {msg} (got {v})"),
                                 dtype=object)
                prev = found[where]
                found[where] = np.where(prev == "", texts, prev + "; " + texts)
    return found


def load_config(path) -> ExperimentParams:
    """Read a ``key = value`` config file and return validated parameters.

    The file is UTF-8 text, one assignment per line, ``#`` starts a comment.
    All ten keys are required, unknown keys are rejected, values are plain
    or scientific-notation floats in SI base units.  Raises ConfigError,
    naming the path, for a file that is missing, unreadable or not UTF-8,
    or whose content breaks any of these rules.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    values: dict[str, float] = {}
    for lineno, raw in enumerate(read_text(path, ConfigError).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        if key not in _KEY_TO_ATTR:
            raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key '{key}'")
        try:
            values[key] = float(text.strip())
        except ValueError:
            raise ConfigError(
                f"{path}:{lineno}: value for '{key}' is not a number: {text.strip()!r}"
            ) from None
    missing = [k for k in CONFIG_KEYS if k not in values]
    if missing:
        raise ConfigError(f"{path}: missing key(s): {', '.join(missing)}")
    p = ExperimentParams(**{_KEY_TO_ATTR[k]: v for k, v in values.items()})
    violations = validate(p)
    if violations:
        raise ConfigError(f"{path}: " + "; ".join(violations))
    return p


def save_config(p: ExperimentParams, path) -> None:
    """Write parameters in the config format; round-trips exactly."""
    lines = [f"{key} = {getattr(p, _KEY_TO_ATTR[key]):.17e}" for key in CONFIG_KEYS]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def as_dict(p: ExperimentParams) -> dict[str, float]:
    """Parameters keyed by config-key name, in file order."""
    return {key: getattr(p, _KEY_TO_ATTR[key]) for key in CONFIG_KEYS}


def attr_name(name: str) -> str:
    """ExperimentParams attribute for an attribute or config-key name."""
    attr = _KEY_TO_ATTR.get(name, name)
    if attr not in _ATTR_TO_KEY:
        raise ValueError(f"unknown parameter '{name}'")
    return attr


def with_value(p: ExperimentParams, name: str, value: float) -> ExperimentParams:
    """Copy of p with one field replaced; accepts attribute or config key."""
    return replace(p, **{attr_name(name): value})
