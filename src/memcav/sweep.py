"""Grid sweeps and constrained maximization of the jump SNR.

Feasibility is hard: a point counts only if every budget validity flag
passes.  Singular or invalid grid points are recorded as failures and the
sweep continues.  Ties break toward the lowest flattened grid index, and
refinement never returns a point worse than the best feasible grid point.

A grid is evaluated in one broadcast pass (budget_grid) and kept as
columns; per-point objects are built only when asked for.  The grid half of
the jump budget lives here alone: the columns' arithmetic (LibmArray),
validate's rules at every point (grid_violations) and the float-range rule
on columns (budget_grid).  params, qnd and mechanics take floats and import
no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import repeat
from types import SimpleNamespace

import numpy as np

from . import qnd
from .errors import MemcavError, ValidationError
from .params import (_ATTR_TO_KEY, _RULES, CONFIG_KEYS, MAX_SWEEP_POINTS, ExperimentParams,
                     _messages, attr_name)
from .textio import Table

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_STEPS = 40   # golden-section steps per axis and refinement round


class LibmArray(np.ndarray):
    """A grid's column, whose ``x**k`` rounds as a Python float's does.

    numpy's integer power need not: builds that vectorise pow (AVX-512 hosts)
    differ in the last bit from Python's float ``**``, which calls the C
    library's pow, for about 5 % of doubles cubed.  Every other operation is
    numpy's own and gives a LibmArray (np.where's does not), so the budget's
    formulas, written for floats, give the same bits on a grid.  Where a
    float's power would raise OverflowError, the element becomes inf, which
    the float-range rule reports as a failed point.  sqrt and inf_where_zero
    are the array half of the cores' two forks, mechanics.sqrt and qnd._tau_lin.
    """

    def __pow__(self, k):
        flat = self.ravel().tolist()
        out = np.fromiter(map(_pow_or_inf, flat, repeat(k)), float, len(flat))
        return out.reshape(self.shape).view(LibmArray)

    def sqrt(self):
        return np.sqrt(self)

    def inf_where_zero(self, values):
        """values, inf where this array is 0 (x0 = 0 has no linear-coupling channel)."""
        return np.where(self == 0.0, math.inf, values)


def _pow_or_inf(v: float, k) -> float:
    try:
        return v**k
    except OverflowError:
        return math.inf


def grid_violations(p, shape: tuple) -> np.ndarray:
    """params.validate() at every point of a grid, as one row-major object column.

    p's fields are arrays that broadcast to `shape`.  Each point holds the
    messages validate gives there, joined by "; ", and "" where it gives
    none.  validate's rules run on each field's own values (x0's broadcast
    against lambda's alone), and the field's messages are broadcast to the points.
    """
    found = np.full(math.prod(shape), "", dtype=object)
    for attrs, low, closed, high in _RULES:
        for attr in attrs:
            key, value = _ATTR_TO_KEY[attr], getattr(p, attr)
            lams = [math.nan] * value.size   # read by x0's rule alone
            if high is None:
                value, lams = np.broadcast_arrays(value, p.lam)
                lams = lams.ravel().tolist()
            texts = ["; ".join(_messages(key, v, low, closed, high, lam))
                     for v, lam in zip(value.ravel().tolist(), lams)]
            if any(texts):
                texts = np.array(texts, dtype=object).reshape(value.shape)
                where = np.flatnonzero(np.broadcast_to(texts != "", shape))
                texts = np.broadcast_to(texts, shape).ravel()[where]
                prev = found[where]
                found[where] = np.where(prev == "", texts, prev + "; " + texts)
    return found


@dataclass(frozen=True)
class BudgetGrid:
    """qnd.jump_budget at every point of a grid, as flat row-major columns.

    `values` is a QndBudget whose fields, and whose flags' fields, are the
    columns; they hold NaN and False at the `failed` points.  `errors` is
    an object column of the message jump_budget raises at each point, ""
    where it raises none; `failed` is where it is not "".
    """

    values: qnd.QndBudget
    errors: np.ndarray
    failed: np.ndarray
    feasible: np.ndarray


def budget_grid(p) -> BudgetGrid:
    """The budget of every point of p, whose fields are arrays that broadcast.

    One broadcast pass through qnd.jump_budget's formulas and float-range
    rule, so every point fails, or not, as jump_budget does there, and every
    value is bit-identical to jump_budget's.
    """
    shape = np.broadcast_shapes(*(v.shape for v in vars(p).values()))
    errors = grid_violations(p, shape)

    def columns(values, dtype):
        """Each of values broadcast to shape, as a flat row-major column of one new block."""
        out = np.empty((len(values), *shape), dtype)
        for column, v in zip(out, values):
            column[...] = v
        return out.reshape(len(values), -1)

    with np.errstate(all="ignore"):
        b = qnd._budget(SimpleNamespace(**{attr: v.view(LibmArray)
                                           for attr, v in vars(p).items()}))
        values, flags = columns(b[:-1], float), columns(b.flags, bool)
        out_of_range = qnd._left_float_range(qnd.QndBudget(*values, None),
                                             np.broadcast_to(p.x0, shape).ravel())
    invalid = errors != ""
    errors[out_of_range & ~invalid] = qnd._FLOAT_RANGE
    failed = invalid | out_of_range
    values[:, failed] = np.nan
    flags[:, failed] = False
    return BudgetGrid(qnd.QndBudget(*values, qnd.QndFlags(*flags)), errors, failed,
                      flags.all(axis=0))


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
    budget: BudgetGrid
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
    return SweepResult(axes, shape, base, samples, budget_grid(SimpleNamespace(**fields)))


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
