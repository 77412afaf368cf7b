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

from .errors import ConfigError, SingularityError, ValidationError
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


# The parameters' intervals, in report order: (attributes, lower end, whether it
# is admitted, upper end, which never is; None for lambda/8 where lambda > 0).
_RULES = (
    (("F",), 1.0, True, math.inf),
    (("L", "P_in", "Q", "T", "lam", "m", "omega_m"), 0.0, False, math.inf),
    (("r_c",), 0.0, True, 1.0),
    (("x0",), 0.0, True, None),
)


def _failures(p, ends=None):
    """(config key, value, holds, message) per rule, on floats or a grid's arrays, in
    report order; past "must be finite", `finite <= ...` (implication) spares the rest.

    `ends`, a grid's least and greatest value of each field (see _ends),
    leaves out each rule that holds at them: every rule is an interval, so
    a field whose least value meets the lower end, or whose greatest meets
    the upper end, meets it at every point.  x0's upper end, lambda/8, is
    least at the least lambda.  Without ends, each is NaN, which meets none.
    """
    ends = ends or dict.fromkeys(_ATTR_TO_KEY, (math.nan, math.nan))
    for attrs, low, closed, high in _RULES:
        for attr in attrs:
            key, value = _ATTR_TO_KEY[attr], getattr(p, attr)
            least, greatest = ends[attr]
            if math.isfinite(least) and math.isfinite(greatest):
                finite = True
            else:
                finite = np.isfinite(value)
                yield key, value, finite, "must be finite"
            if not (low <= least if closed else low < least):
                above = value >= low if closed else value > low
                yield key, value, finite <= above, f"must be {'>=' if closed else '>'} {low:g}"
            if high != math.inf and not greatest < (ends["lam"][0] / 8.0 if high is None else high):
                below = (p.lam > 0.0) <= (value < p.lam / 8.0) if high is None else value < high
                yield key, value, finite <= below, \
                    "must be < " + ("lambda/8" if high is None else f"{high:g}")


def _valid(p) -> bool:
    """Whether p's fields, floats, pass every rule."""
    for attrs, low, closed, high in _RULES:
        high = p.lam / 8.0 if high is None else high   # lambda has passed its rule
        for attr in attrs:
            value = getattr(p, attr)
            # inf fails "< high" and NaN fails both ends, so a value that passes is finite
            if not (low <= value < high if closed else low < value < high):
                return False
    return True


def validate(p: ExperimentParams) -> list[str]:
    """Check every parameter invariant; return violations, empty if valid.

    Violations are data, not errors: each failed invariant produces one
    message, ordered deterministically by config-key name.  A non-finite
    value gives a single "must be finite" message for its key.
    """
    if _valid(p):
        return []
    return [f"{key} {msg} (got {got})" for key, got, holds, msg in _failures(p) if not holds]


def _ends(p) -> dict[str, tuple[float, float]]:
    """A grid's least and greatest value of each field; NaN propagates to both."""
    ends = {}
    for attr, value in vars(p).items():
        if value.size == 1:   # a field no axis sweeps
            ends[attr] = (value.item(),) * 2
        else:
            ends[attr] = value.min().item(), value.max().item()
    return ends


def grid_violations(p, shape: tuple) -> np.ndarray:
    """validate() at every point of a grid, as one row-major object column.

    p's fields are arrays that broadcast to `shape`.  Each point holds the
    messages validate gives there, joined by "; ", and "" where it gives
    none.  Only a rule that fails at an end of its field is checked point
    by point, and it formats a message only for a failing point, and once
    per distinct value.
    """
    found = np.full(math.prod(shape), "", dtype=object)
    for key, value, holds, msg in _failures(p, _ends(p)):
        if not holds.all():
            where = np.flatnonzero(np.broadcast_to(~holds, shape))
            got = np.broadcast_to(value, shape).ravel()[where]
            texts = np.array(format_distinct(
                got, lambda vs: [f"{key} {msg} (got {v})" for v in vs.tolist()]), dtype=object)
            prev = found[where]
            found[where] = np.where(prev == "", texts, prev + "; " + texts)
    return found


def require_positive(error: type = ValidationError, /, **values: float) -> None:
    """Raise `error` unless every value is positive and finite (NaN is not)."""
    bad = {name: value for name, value in values.items() if not 0.0 < value < math.inf}
    if bad:
        raise error(f"{', '.join(bad)} must be positive and finite "
                    f"(got {', '.join(map(str, bad.values()))})")


def in_float_range(value: float, what: str) -> float:
    """value, a float, or SingularityError("<what> left the float range") where it
    is not positive and finite; a grid's points fail by qnd.budget_grid's rule."""
    if not 0.0 < value < math.inf:
        raise SingularityError(f"{what} left the float range")
    return value


def float_result(what: str, formula) -> float:
    """in_float_range(formula(), what), where a step of formula that raises
    ZeroDivisionError or OverflowError (a divisor underflows to 0, a power
    overflows) leaves the float range too.
    """
    try:
        return in_float_range(formula(), what)
    except (ZeroDivisionError, OverflowError):
        raise SingularityError(f"{what} left the float range") from None


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
            raise ConfigError(f"{path}:{lineno}: value for '{key}' is not a number: "
                              f"{text.strip()!r}") from None
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
        raise ValidationError(f"unknown parameter '{name}'")
    return attr


def with_value(p: ExperimentParams, name: str, value: float) -> ExperimentParams:
    """Copy of p with one field replaced; accepts attribute or config key."""
    return replace(p, **{attr_name(name): value})
