"""Grid sweeps and constrained maximization of the jump SNR.

Feasibility is hard: a point counts only if every budget validity flag
passes.  Singular or invalid grid points are recorded as failures and the
sweep continues.  Ties break toward the lowest flattened grid index, and
refinement never returns a point worse than the best feasible grid point.

A grid is evaluated in one broadcast pass (qnd.budget_grid) and kept as
columns; per-point objects are built only when asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np

from . import qnd
from .errors import MemcavError, ValidationError
from .params import CONFIG_KEYS, MAX_SWEEP_POINTS, ExperimentParams, attr_name
from .textio import Table

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_STEPS = 40   # golden-section steps per axis and refinement round


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
        if not math.isfinite(self.maximum - self.minimum):   # finite only if both ends are
            raise ValidationError(f"axis {self.param_name}: min, max and max - min "
                                  "must be finite")
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


@dataclass(frozen=True, eq=False)
class SweepResult:
    """A grid sweep as columns, flattened row-major over the axis grids."""

    axes: tuple
    shape: tuple
    base: ExperimentParams
    samples: dict            # swept attribute -> its axis values, in axis order
    budget: qnd.BudgetGrid
    _entries: dict = field(default_factory=dict, init=False, repr=False)  # flat index -> SweepEntry

    def entry(self, i: int) -> SweepEntry:
        """The point at flat index i, built once."""
        if i not in self._entries:
            at = np.unravel_index(i, self.shape)
            params = replace(self.base, **{attr: float(v[j])
                                           for (attr, v), j in zip(self.samples.items(), at)})
            error = self.budget.errors[i] or None
            cols = self.budget.values
            budget = None if error else qnd.QndBudget(
                *(col[i].item() for col in cols[:-1]),
                qnd.QndFlags(*(col[i].item() for col in cols.flags)))
            self._entries[i] = SweepEntry(params, budget, error)
        return self._entries[i]

    @property
    def entries(self) -> list:
        return [self.entry(i) for i in range(math.prod(self.shape))]

    @property
    def best(self) -> SweepEntry | None:
        """Highest-SNR feasible entry; first one wins on ties."""
        feasible = np.flatnonzero(self.budget.feasible)
        if not feasible.size:
            return None
        # a feasible point passed the float-range rule, so its SNR is finite and
        # argmax takes the first of equal maxima
        return self.entry(int(feasible[np.argmax(self.budget.values.snr[feasible])]))


def grid_sweep(base: ExperimentParams, axes) -> SweepResult:
    """Evaluate the jump budget on the cartesian grid of 1-3 axes.

    Raises ValidationError, before evaluating anything, for a grid of more
    than MAX_SWEEP_POINTS points.
    """
    axes = tuple(axes)
    if not 1 <= len(axes) <= 3:
        raise ValidationError("grid_sweep supports 1 to 3 axes")
    attrs = [attr_name(a.param_name) for a in axes]
    if len(set(attrs)) != len(attrs):
        raise ValidationError("axes must reference distinct parameters")
    shape = tuple(a.count for a in axes)
    if math.prod(shape) > MAX_SWEEP_POINTS:
        raise ValidationError(f"sweep of {math.prod(shape)} points exceeds {MAX_SWEEP_POINTS}; "
                              "use fewer or coarser axes")
    samples = {attr: axis.values() for attr, axis in zip(attrs, axes)}
    # every field an array with one dimension per axis, long only along its own
    ones = (1,) * len(axes)
    fields = {attr: np.full(ones, value, dtype=float) for attr, value in vars(base).items()}
    for k, attr in enumerate(attrs):
        fields[attr] = samples[attr].reshape(ones[:k] + (-1,) + ones[k + 1:])
    return SweepResult(axes, shape, base, samples, qnd.budget_grid(SimpleNamespace(**fields)))


def golden_section(f, a: float, b: float) -> tuple[float, float]:
    """Golden-section search for the maximum of f on [a, b] (Kiefer, 1953).

    f is evaluated at a, b, two interior points and then once in each of
    _GOLDEN_STEPS steps, which shrink the bracket by _GOLDEN each.  Returns
    the best point evaluated and f there; the first one evaluated wins a tie.
    """
    best = [a, f(a)]

    def evaluate(u: float) -> float:
        fu = f(u)
        if fu > best[1]:
            best[:] = u, fu
        return fu

    evaluate(b)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = evaluate(c), evaluate(d)
    for _ in range(_GOLDEN_STEPS):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = evaluate(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = evaluate(d)
    return best[0], best[1]


@dataclass(frozen=True)
class OptimizeResult:
    """The refined point and its budget (None where no grid point is feasible).

    `evaluations` counts the jump budgets computed: every grid point, and
    4 + _GOLDEN_STEPS for each line search run; a skipped search counts none.
    """

    feasible: bool
    params: ExperimentParams | None
    budget: qnd.QndBudget | None
    evaluations: int = 0


def maximize_snr(base: ExperimentParams, axes, refine_iters: int = 3,
                 grid: SweepResult | None = None) -> OptimizeResult:
    """Coarse grid then coordinate-wise golden-section refinement.

    The refinement searches each axis inside the grid interval bracketing
    the current best point (other coordinates held fixed), keeps a candidate
    only if it is feasible and strictly better, and is fully deterministic.
    A line search already run, on the same axis and bracket with the same
    other coordinates, is skipped: it would evaluate the same points again,
    none of them better than the current point, since SNR only rises.
    Refinement stops after a round that leaves the point where it was, since
    every later round would repeat that round exactly.
    `grid` is grid_sweep(base, axes) when the caller has it already; its
    points count as evaluations all the same.  `evaluations` counts the grid
    points and 4 + _GOLDEN_STEPS for each line search run.
    """
    result = grid if grid is not None else grid_sweep(base, axes)
    best = result.best
    evals = math.prod(result.shape)
    if best is None:
        return OptimizeResult(False, None, None, evals)

    searches = [(attr, values, axis.scale)
                for (attr, values), axis in zip(result.samples.items(), result.axes)]
    current_p, current_b = best.params, best.budget
    done = set()   # (axis, lo, hi, the other coordinates) of each line search run
    for _ in range(refine_iters):
        start = current_p
        for attr, values, scale in searches:
            x_now = getattr(current_p, attr)
            idx = int(np.argmin(np.abs(values - x_now)))
            lo = values[max(idx - 1, 0)]
            hi = values[min(idx + 1, len(values) - 1)]
            # the budget is even in x0 and reads r_c through 1 - r_c, and every
            # other field is invalid at 0, so keys that compare equal give one search
            key = (attr, lo, hi, *(v for a, v in vars(current_p).items() if a != attr))
            if lo == hi or key in done:
                continue
            done.add(key)
            fwd, inv = (math.log, math.exp) if scale == "log" else (lambda v: v, lambda v: v)
            point = SimpleNamespace(**vars(current_p))   # current_p, but for attr
            budgets = {}

            def objective(u: float) -> float:
                setattr(point, attr, inv(u))
                try:
                    budget = qnd.jump_budget(point)
                except MemcavError:
                    return -math.inf
                if not all(budget.flags):
                    return -math.inf
                if budget.snr > current_b.snr:   # only these can replace the current point
                    budgets[u] = budget
                return budget.snr

            u, snr = golden_section(objective, fwd(lo), fwd(hi))
            if snr > current_b.snr:
                current_p, current_b = replace(current_p, **{attr: inv(u)}), budgets[u]
            evals += 4 + _GOLDEN_STEPS
        if current_p is start:   # every later round would repeat this one
            break
    return OptimizeResult(True, current_p, current_b, evals)


HEADER = (*CONFIG_KEYS, *qnd.BUDGET_NAMES, *qnd.FLAG_NAMES, "error")


def sweep_rows(result: SweepResult):
    """The CSV header and Table: parameters, budget fields, flags (1 or 0), error.

    A failed point leaves its budget and flag cells blank, and x0 = 0 its
    tau_lin cell.  The other budget columns are the grid's own arrays.
    """
    g = result.budget
    n = math.prod(result.shape)
    grids = dict(zip(result.samples,
                     np.meshgrid(*result.samples.values(), indexing="ij", copy=False)))
    cols = [grids[attr].ravel() if attr in grids else np.broadcast_to(getattr(result.base, attr), n)
            for attr in map(attr_name, CONFIG_KEYS)]
    # an infinite tau_lin (x0 = 0) is blank, as qnd.budget_fields makes it None
    b = g.values._replace(tau_lin=np.where(np.isinf(g.values.tau_lin), np.nan, g.values.tau_lin))
    cols += b[:len(qnd.BUDGET_NAMES)]
    cols += [np.where(g.failed, np.nan, flag) for flag in b.flags]
    return list(HEADER), Table(*cols, g.errors.tolist())
