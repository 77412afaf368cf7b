"""Grid sweeps and constrained maximization of the jump SNR.

Feasibility is hard: a point counts only if every budget validity flag
passes.  Singular or invalid grid points are recorded as failures and the
sweep continues.  Ties break toward the lowest flattened grid index, and
refinement never returns a point worse than the best feasible grid point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import qnd
from .errors import MemcavError, ValidationError
from .params import CONFIG_KEYS, ExperimentParams, as_dict, attr_name, with_value

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SweepAxis:
    """One swept parameter: name, range, sample count, and scale."""

    param_name: str
    minimum: float
    maximum: float
    count: int
    scale: str = "linear"   # "linear" | "log"

    def __post_init__(self):
        attr_name(self.param_name)
        if not self.minimum < self.maximum:
            raise ValidationError(f"axis {self.param_name}: min must be < max")
        if self.count < 2:
            raise ValidationError(f"axis {self.param_name}: count must be >= 2")
        if self.scale not in ("linear", "log"):
            raise ValidationError(f"axis {self.param_name}: scale must be linear or log")
        if self.scale == "log" and self.minimum <= 0:
            raise ValidationError(f"axis {self.param_name}: log scale needs min > 0")

    def values(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.minimum, self.maximum, self.count)
        return np.linspace(self.minimum, self.maximum, self.count)


@dataclass(frozen=True)
class SweepEntry:
    params: ExperimentParams
    budget: qnd.QndBudget | None
    error: str | None = None

    @property
    def feasible(self) -> bool:
        return self.budget is not None and self.budget.flags.all_ok()


@dataclass(frozen=True)
class SweepResult:
    axes: tuple
    entries: list            # flattened, row-major over the axis grids
    shape: tuple

    @property
    def best(self) -> SweepEntry | None:
        """Highest-SNR feasible entry; first one wins on ties."""
        best = None
        for entry in self.entries:
            if entry.feasible and (best is None or entry.budget.snr > best.budget.snr):
                best = entry
        return best


def _evaluate(p: ExperimentParams) -> SweepEntry:
    try:
        return SweepEntry(p, qnd.jump_budget(p))
    except MemcavError as exc:
        return SweepEntry(p, None, error=str(exc))


def grid_sweep(base: ExperimentParams, axes) -> SweepResult:
    """Evaluate the jump budget on the cartesian grid of 1-3 axes."""
    axes = tuple(axes)
    if not 1 <= len(axes) <= 3:
        raise ValidationError("grid_sweep supports 1 to 3 axes")
    attrs = [attr_name(a.param_name) for a in axes]
    if len(set(attrs)) != len(attrs):
        raise ValidationError("axes must reference distinct parameters")
    entries = [_evaluate(replace(base, **{attr: float(v) for attr, v in zip(attrs, combo)}))
               for combo in itertools.product(*[axis.values() for axis in axes])]
    return SweepResult(axes, entries, tuple(a.count for a in axes))


@dataclass(frozen=True)
class OptimizeResult:
    feasible: bool
    params: ExperimentParams | None
    budget: qnd.QndBudget | None
    evaluations: int = 0
    message: str = field(default="")


def maximize_snr(base: ExperimentParams, axes, refine_iters: int = 3,
                 golden_steps: int = 40) -> OptimizeResult:
    """Coarse grid then coordinate-wise golden-section refinement.

    The refinement searches each axis inside the grid interval bracketing
    the current best point (other coordinates held fixed), keeps a candidate
    only if it is feasible and strictly better, and is fully deterministic.
    """
    result = grid_sweep(base, axes)
    best = result.best
    evals = len(result.entries)
    if best is None:
        return OptimizeResult(False, None, None, evals, "no feasible grid point")

    axes = tuple(axes)
    current_p, current_b = best.params, best.budget
    for _ in range(refine_iters):
        for axis in axes:
            values = axis.values()
            x_now = getattr(current_p, attr_name(axis.param_name))
            idx = int(np.argmin(np.abs(values - x_now)))
            lo = values[max(idx - 1, 0)]
            hi = values[min(idx + 1, len(values) - 1)]
            if lo == hi:
                continue
            transform = (math.log, math.exp) if axis.scale == "log" else (lambda v: v, lambda v: v)
            fwd, inv = transform
            a, b = fwd(lo), fwd(hi)

            def objective(u: float) -> float:
                # every point differs from the current best only along this
                # axis, so taking a better one at once changes no later point
                nonlocal current_p, current_b
                entry = _evaluate(with_value(current_p, axis.param_name, inv(u)))
                if not entry.feasible:
                    return -math.inf
                if entry.budget.snr > current_b.snr:
                    current_p, current_b = entry.params, entry.budget
                return entry.budget.snr

            for u in (a, b):
                objective(u)
            c = b - _GOLDEN * (b - a)
            d = a + _GOLDEN * (b - a)
            fc, fd = objective(c), objective(d)
            for _ in range(golden_steps):
                if fc >= fd:
                    b, d, fd = d, c, fc
                    c = b - _GOLDEN * (b - a)
                    fc = objective(c)
                else:
                    a, c, fc = c, d, fd
                    d = a + _GOLDEN * (b - a)
                    fd = objective(d)
            evals += 4 + golden_steps
    return OptimizeResult(True, current_p, current_b, evals)


def sweep_rows(result: SweepResult):
    """CSV columns and rows: parameters, budget fields, flags, error."""
    header = [*CONFIG_KEYS, *qnd.BUDGET_NAMES, *qnd.FLAG_NAMES, "error"]
    blank = [""] * (len(qnd.BUDGET_NAMES) + len(qnd.FLAG_NAMES))
    rows = []
    for entry in result.entries:
        row = list(as_dict(entry.params).values())
        b = entry.budget
        if b is None:
            row += blank + [entry.error or "failed"]
        else:
            row += ["" if v is None else v for v in qnd.budget_fields(b).values()]
            row += [int(v) for v in vars(b.flags).values()] + [""]
        rows.append(row)
    return header, rows
