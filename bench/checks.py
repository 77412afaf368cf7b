"""Output checks.  Each returns a list of failure messages, empty when it passes.

The checks take plain numbers and arrays rather than memcav objects, so
the benchmark's tests can hand them deliberately perturbed results.
Statistical checks use a 5-sigma band, so a correct program fails one of
them on fewer than one seed in a million.
"""

from __future__ import annotations

import math

import numpy as np

ROW1_SNR = 0.9932
ROW1_TAU_TOTAL_S = 2.898e-4
ROW1_RTOL = 1e-3
Z_MAX = 5.0
BE_LEVELS = 10          # chi-square categories 0..9 plus the tail >= 10
BE_P_MIN = 0.01


def rel_close(value: float, ref: float, rtol: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= rtol * abs(ref)


def check_row1(snr: float, tau_total: float) -> list[str]:
    out = []
    if not rel_close(snr, ROW1_SNR, ROW1_RTOL):
        out.append(f"row1 SNR {snr!r} is not {ROW1_SNR} within {ROW1_RTOL:g}")
    if not rel_close(tau_total, ROW1_TAU_TOTAL_S, ROW1_RTOL):
        out.append(f"row1 tau_total {tau_total!r} s is not {ROW1_TAU_TOTAL_S} s within {ROW1_RTOL:g}")
    return out


def check_grid_counts(counts: tuple, reference: tuple) -> list[str]:
    """counts = (feasible, infeasible, failed); stable for the seed and all present."""
    out = []
    if counts != reference:
        out.append(f"grid counts {counts} differ from the first iteration's {reference}")
    if min(counts) <= 0:
        out.append(f"grid lacks feasible, infeasible or failed points: {counts}")
    return out


def check_maximize(feasible: bool, snr: float, grid_best_snr: float) -> list[str]:
    if not feasible:
        return ["maximize_snr found no feasible point"]
    if not snr >= grid_best_snr:
        return [f"maximize_snr SNR {snr!r} below the best grid SNR {grid_best_snr!r}"]
    return []


def check_no_jump_fraction(n_trials: int, n_quiet: int, window: float, tau_total: float) -> list[str]:
    """Share of trials with no event in the window against exp(-window/tau_total)."""
    if n_trials < 1:
        return ["no trials to check the no-jump fraction on"]
    p = math.exp(-window / tau_total)
    sigma = math.sqrt(p * (1.0 - p) / n_trials)
    z = (n_quiet / n_trials - p) / sigma
    if abs(z) > Z_MAX:
        return [f"no-jump fraction {n_quiet / n_trials:.5f} vs exp(-window/tau) {p:.5f} (z={z:.1f})"]
    return []


class LineFit:
    """Running least-squares fit of readout y against true occupation x."""

    def __init__(self):
        self.n = 0
        self.sx = self.sy = self.sxx = self.sxy = self.syy = 0.0

    def add(self, x, y) -> None:
        x = np.asarray(x, dtype=float).ravel()
        y = np.asarray(y, dtype=float).ravel()
        self.n += x.size
        self.sx += float(x.sum())
        self.sy += float(y.sum())
        self.sxx += float(x @ x)
        self.sxy += float(x @ y)
        self.syy += float(y @ y)

    def slope_intercept_se(self):
        n = self.n
        vxx = self.sxx - self.sx**2 / n
        vxy = self.sxy - self.sx * self.sy / n
        vyy = self.syy - self.sy**2 / n
        slope = vxy / vxx
        intercept = (self.sy - slope * self.sx) / n
        resid_var = max(vyy - slope * vxy, 0.0) / (n - 2)
        return slope, intercept, math.sqrt(resid_var / vxx)


def check_level_spacing(fit: LineFit, delta_omega: float) -> list[str]:
    """Readout rises by delta_omega per phonon, from delta_omega/2 at n = 0."""
    if fit.n < 3 or fit.sxx * fit.n - fit.sx**2 <= 0:
        return ["readout never left one occupation level; spacing not measurable"]
    slope, intercept, se = fit.slope_intercept_se()
    z = (slope - delta_omega) / se
    if abs(z) > Z_MAX:
        return [f"readout level spacing {slope!r} vs delta_omega {delta_omega!r} (z={z:.1f})"]
    if not rel_close(intercept / delta_omega, 0.5, 0.1):
        return [f"readout n=0 level {intercept!r} is not delta_omega/2 = {delta_omega / 2!r}"]
    return []


def bose_einstein_probs(n_bar: float, levels: int = BE_LEVELS) -> np.ndarray:
    q = n_bar / (1.0 + n_bar)
    return np.array([(1.0 - q) * q**k for k in range(levels)] + [q**levels])


def level_histogram(states, levels: int = BE_LEVELS) -> np.ndarray:
    states = np.asarray(states)
    return np.bincount(np.minimum(states, levels), minlength=levels + 1)


def chisquare_pvalue(counts, probs) -> float:
    from scipy.special import gammaincc

    counts = np.asarray(counts, dtype=float)
    expected = np.asarray(probs) * counts.sum()
    stat = float(np.sum((counts - expected) ** 2 / expected))
    return float(gammaincc((len(counts) - 1) / 2.0, stat / 2.0))


def check_bose_einstein(samples: list, n_bar: float) -> list[str]:
    """Chi-square of sampled occupation against Bose-Einstein(n_bar), p > 0.01.

    A single test at p > 0.01 rejects 1 % of correct seeds, so the check
    takes two independent samples and passes when either one passes.  A
    wrong distribution still fails both.
    """
    if len(samples) < 2:
        return ["fewer than two occupation samples for the Bose-Einstein test"]
    probs = bose_einstein_probs(n_bar)
    pvalues = [chisquare_pvalue(counts, probs) for counts in samples[:2]]
    if max(pvalues) <= BE_P_MIN:
        return [f"occupation is not Bose-Einstein(n_bar={n_bar:g}): p = {pvalues}"]
    return []


def check_mean_occupation(total: float, n: int, n_bar: float) -> list[str]:
    if n < 2:
        return ["too few occupation samples for the mean"]
    mean = total / n
    se = math.sqrt(n_bar * (n_bar + 1.0) / n)    # Bose-Einstein variance
    z = (mean - n_bar) / se
    if abs(z) > Z_MAX:
        return [f"mean occupation {mean:.4f} vs n_bar {n_bar:g} (z={z:.1f})"]
    return []


def check_exit(command: str, code: int, stderr: str) -> list[str]:
    if code != 0:
        first = stderr.strip().splitlines()[-1] if stderr.strip() else ""
        return [f"{command} exited {code}: {first}"]
    return []


def check_identical(command: str, name: str, first: bytes, again: bytes) -> list[str]:
    if first != again:
        return [f"{command}: {name} differs between identical invocations"]
    return []


def check_budget_json(doc: dict, report: dict) -> list[str]:
    """qnd-budget output, minus its metadata, equals budget_report()."""
    body = {k: v for k, v in doc.items() if k != "metadata"}
    if body != report:
        keys = sorted(k for k in set(body) | set(report) if body.get(k) != report.get(k))
        return [f"qnd-budget JSON differs from budget_report in {keys}"]
    return []
