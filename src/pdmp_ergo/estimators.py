"""Statistical functionals over semigroup outputs and empirical measures.

Everything here is either an exact computation on weighted atoms (entropy
functionals, the one-dimensional transport distance via the merged
quantile partition) or a nested Monte Carlo estimator with an explicit
inner-noise bias correction, so desk-scale runs stay honest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import Estimate, Model, _dot, default_bump, nested_grid_statistics
from .embedded import EmpiricalMeasure
from .rng import RandomStream

__all__ = [
    "TestFunction",
    "default_family",
    "family_by_labels",
    "column_ratio",
    "DecayFit",
    "entropy_p",
    "entropy_p_with_error",
    "wasserstein_1d",
    "variance_of_semigroup",
    "energy_W",
    "fit_decay_rate",
    "empirical_inequality_ratio",
    "inequality_details",
]


@dataclass(frozen=True)
class TestFunction:
    """A test function together with its exact derivative."""

    f: Callable
    df: Callable
    label: str

    def check_derivative(self, grid, h: float = 1e-6, tol: float = 1e-6) -> float:
        grid = np.asarray(grid, dtype=float)
        fd = (np.asarray(self.f(grid + h)) - np.asarray(self.f(grid - h))) / (2 * h)
        err = np.abs(fd - np.asarray(self.df(grid)))
        bound = tol * (1.0 + np.abs(np.asarray(self.df(grid))))
        if np.any(err > bound):
            raise ValueError(f"derivative of {self.label} fails the finite-difference check")
        return float(err.max())


def default_family() -> list[TestFunction]:
    """Slow and fast oscillation plus tail behaviour, with exact derivatives."""
    return [
        TestFunction(lambda x: x, lambda x: np.ones_like(np.asarray(x, dtype=float)), "x"),
        TestFunction(lambda x: x ** 2, lambda x: 2.0 * x, "x^2"),
        TestFunction(lambda x: np.exp(-x), lambda x: -np.exp(-x), "exp(-x)"),
        TestFunction(np.sin, np.cos, "sin(x)"),
        TestFunction(lambda x: np.sin(3 * x), lambda x: 3 * np.cos(3 * x), "sin(3x)"),
        TestFunction(np.log1p, lambda x: 1.0 / (1.0 + x), "log1p(x)"),
        TestFunction(lambda x: x * np.exp(-x), lambda x: (1.0 - x) * np.exp(-x), "x*exp(-x)"),
    ]


def family_by_labels(labels: Sequence[str]) -> list[TestFunction]:
    table = {tf.label: tf for tf in default_family()}
    out = []
    for lab in labels:
        if lab not in table:
            raise KeyError(f"unknown test function {lab!r}; known: {sorted(table)}")
        out.append(table[lab])
    return out


# ---------------------------------------------------------------------------
# ratio of sums over independent columns
# ---------------------------------------------------------------------------

def column_ratio(num, den) -> Estimate:
    """Ratio of sums sum(num) / sum(den) over a (slot, column) matrix.

    Columns must be independent (separate chains or paths); slots within a
    column may be correlated.  The standard error is the delta method over
    the column sums N_c, D_c: sqrt(sum_c (N_c - R D_c)^2 / (C (C-1))) /
    mean(D_c).  ``den`` broadcasts against ``num``, so ``1.0`` gives a
    plain mean.
    """
    num, den = np.broadcast_arrays(np.asarray(num, dtype=float), np.asarray(den, dtype=float))
    if num.ndim != 2 or num.shape[1] < 2:
        raise ValueError("need a (slot, column) matrix with at least two columns")
    num_c, den_c = num.sum(axis=0), den.sum(axis=0)
    ratio = num_c.sum() / den_c.sum()
    resid = num_c - ratio * den_c
    c = num_c.size
    se = np.sqrt(_dot(resid, resid) / (c * (c - 1))) / den_c.mean()
    return Estimate(float(ratio), float(se))


# ---------------------------------------------------------------------------
# entropies
# ---------------------------------------------------------------------------

def _atoms(values, weights):
    v = np.ravel(np.asarray(values, dtype=float))
    if weights is None:
        return v, np.full(v.size, 1.0 / v.size)
    w = np.ravel(np.asarray(weights, dtype=float))
    return v, w / w.sum()


def _xlogy(x, y):
    """x log y, and 0 where x == 0, so 0 log 0 = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x == 0, 0.0, x * np.log(y))


def _entropy_kernel(v, w, p):
    """p-entropy of f under the weighted atoms, given f-values ``v``, with
    its partial derivatives in the atom values and its influence values
    (delta method) at each atom."""
    if not 1.0 <= p <= 2.0:
        raise ValueError("p must lie in [1, 2]")
    s = v * v
    a = float(_dot(w, s))
    if p == 2.0:
        m = float(_dot(w, v))
        val = a - m * m
        return val, 2.0 * w * (v - m), (v - m) ** 2 - val
    if a < 0:
        raise ValueError("mean square is negative; invalid input")
    if p == 1.0:
        slogs = _xlogy(s, s)
        t1 = float(_dot(w, slogs))
        val = t1 - float(_xlogy(a, a))
        grad = 2.0 * w * (_xlogy(v, s) - _xlogy(v, max(a, 1e-300)))
        infl = slogs - t1 - (np.log(max(a, 1e-300)) + 1.0) * (s - a)
        return val, grad, infl
    if np.any(v < 0):
        raise ValueError("values must be nonnegative for 1 < p < 2")
    g = v ** (2.0 / p)
    b = float(_dot(w, g))
    val = (a - b ** p) / (p - 1.0)
    grad = 2.0 * w * (v - b ** (p - 1.0) * np.where(v > 0, v ** (2.0 / p - 1.0), 0.0)) / (p - 1.0)
    infl = ((s - a) - p * b ** (p - 1.0) * (g - b)) / (p - 1.0)
    return val, grad, infl


def entropy_p(values, p: float, weights=None) -> float:
    """Interpolation family of entropies of f under the weighted atoms.

    The caller passes f-values; the functional squares them internally.
    ``p=2`` is the variance of f, ``p=1`` the xlogx entropy of f^2 with
    the 0*log0 = 0 convention (both are even in f); for 1 < p < 2 the
    values must be nonnegative because fractional powers are taken.
    """
    return _entropy_kernel(*_atoms(values, weights), p)[0]


def entropy_p_with_error(values, p: float, weights=None, inner_variances=None,
                         inner_n: int = 1) -> Estimate:
    """Plug-in entropy with a delta-method standard error.

    When the values are themselves inner Monte Carlo means, pass their
    per-atom sample variances and the inner replication count so the
    propagated inner noise is included.
    """
    v, w = _atoms(values, weights)
    value, grad, infl = _entropy_kernel(v, w, p)
    se_sq = float(_dot(w ** 2, infl ** 2))
    if inner_variances is not None:
        iv = np.ravel(np.asarray(inner_variances, dtype=float))
        se_sq += float(_dot(grad ** 2, iv / max(int(inner_n), 1)))
    return Estimate(value, float(np.sqrt(se_sq)))


# ---------------------------------------------------------------------------
# one-dimensional transport distance
# ---------------------------------------------------------------------------

def wasserstein_1d(p: float, first: EmpiricalMeasure, second: EmpiricalMeasure) -> float:
    """Order-p transport distance between two weighted atom sets, exactly.

    Computed on the merged cumulative-weight partition (in one dimension
    the sorted coupling is optimal).  The distance is taken in the atoms'
    own coordinates; for another metric, map the atoms first.
    """
    if p < 1:
        raise ValueError("order must be at least one")
    if abs(first.weights.sum() - second.weights.sum()) > 1e-9:
        raise ValueError("total weights differ")
    va, ca = first.values, np.cumsum(first.weights)
    vb, cb = second.values, np.cumsum(second.weights)
    qs = np.sort(np.concatenate([ca, cb]))
    ia = np.clip(np.searchsorted(ca, qs, side="left"), 0, va.size - 1)
    ib = np.clip(np.searchsorted(cb, qs, side="left"), 0, vb.size - 1)
    deltas = np.diff(np.concatenate([[0.0], qs]))
    gaps = np.abs(va[ia] - vb[ib])
    if p == 1:
        return float(_dot(deltas, gaps))
    return float(_dot(deltas, gaps ** p) ** (1.0 / p))


# ---------------------------------------------------------------------------
# nested Monte Carlo functionals
# ---------------------------------------------------------------------------

def variance_of_semigroup(
    model: Model, f: TestFunction, mu_hat: EmpiricalMeasure, times,
    inner_n: int, stream: RandomStream, workers: int = 1,
) -> list[Estimate]:
    """Variance of the time-t conditional mean of f under the atom measure,
    one estimate per time of the grid (the points share inner paths).

    Nested Monte Carlo with the upward inner-noise bias removed: the
    squared spread of inner means overshoots by the mean inner sampling
    variance over the inner replication count.
    """
    times = np.asarray(times, dtype=float)
    w = mu_hat.weights
    means, ivars = nested_grid_statistics(model, [f.f], mu_hat.values, times[times > 0],
                                          inner_n, stream.spawn(), workers=workers)
    out = []
    if times[0] == 0:
        vals = np.asarray(f.f(mu_hat.values), dtype=float)
        out.append(Estimate(float(_dot(w, (vals - _dot(w, vals)) ** 2)), 0.0))
    for mt, vt in zip(means[0], ivars[0]):
        infl = (mt - _dot(w, mt)) ** 2 - vt / inner_n
        value = float(_dot(w, infl))
        out.append(Estimate(value, float(np.sqrt(_dot(w ** 2, (infl - value) ** 2)))))
    return out


def energy_W(
    model: Model, f: TestFunction, mu_hat: EmpiricalMeasure, t: float,
    inner_n: int, stream: RandomStream, h: Optional[float] = None,
) -> Estimate:
    """Weighted squared-gradient energy of the time-t conditional mean.

    At t=0 the exact derivative is used (no simulation).  Otherwise each
    atom contributes weight(x) times the squared coupled gradient
    estimate, debiased by the paired-difference variance over the inner
    replication count.  For t > 0 the model must be synchronously coupled
    (see ``core.nested_grid_statistics``); any other raises ValueError.
    """
    w = mu_hat.weights
    a_vals = np.asarray(model.weight(mu_hat.values), dtype=float)
    if t == 0:
        dv = np.asarray(f.df(mu_hat.values), dtype=float)
        return Estimate(float(_dot(w, a_vals * dv * dv)), 0.0)
    atoms = mu_hat.values
    bumps = default_bump(atoms) if h is None else np.full(atoms.shape, h, dtype=float)
    gmean, gvar = (a[0, 0] for a in nested_grid_statistics(
        model, [f.f], atoms, [t], inner_n, stream.spawn(), bumps=bumps))
    infl = a_vals * (gmean ** 2 - gvar / inner_n)
    value = float(_dot(w, infl))
    se = float(np.sqrt(_dot(w ** 2, (infl - value) ** 2)))
    return Estimate(value, se)


# ---------------------------------------------------------------------------
# decay-rate fit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayFit:
    times: np.ndarray
    log_values: np.ndarray
    fitted_rate: float
    fitted_intercept: float
    r_squared: float
    rate_std_error: float


def fit_decay_rate(series, rel_err_cap: float = 0.5) -> DecayFit:
    """Weighted least squares of log value against time.

    ``series`` is an iterable of (t, value, std_error) triples.  Points
    with nonpositive value or relative error above the cap are dropped;
    at least three must survive.  Weights follow the delta method
    (relative error of the value is the error of its log); the reported
    rate is the negated slope with its a-priori standard error.
    """
    rows = [(float(t), float(v), float(se)) for t, v, se in series]
    kept = [(t, v, se) for t, v, se in rows if v > 0 and se / v <= rel_err_cap]
    if len(kept) < 3:
        raise ValueError("fewer than three usable points for the decay fit")
    t = np.array([r[0] for r in kept])
    if np.any(np.diff(t) <= 0):
        raise ValueError("times must be strictly increasing")
    v = np.array([r[1] for r in kept])
    se = np.array([r[2] for r in kept])
    y = np.log(v)
    sy = np.maximum(se / v, 1e-15)
    wt = 1.0 / sy ** 2
    sw = wt.sum()
    tbar = _dot(wt, t) / sw
    ybar = _dot(wt, y) / sw
    stt = _dot(wt, (t - tbar) ** 2)
    slope = _dot(wt, (t - tbar) * (y - ybar)) / stt
    intercept = ybar - slope * tbar
    resid = y - (intercept + slope * t)
    sst = _dot(wt, (y - ybar) ** 2)
    r2 = 1.0 - _dot(wt, resid ** 2) / sst if sst > 0 else 1.0
    return DecayFit(
        times=t,
        log_values=y,
        fitted_rate=float(-slope),
        fitted_intercept=float(intercept),
        r_squared=float(r2),
        rate_std_error=float(np.sqrt(1.0 / stt)),
    )


# ---------------------------------------------------------------------------
# empirical functional-inequality ratios
# ---------------------------------------------------------------------------

def inequality_details(
    mu_hat: EmpiricalMeasure, family: Sequence[TestFunction],
    weight: Optional[Callable] = None, p: float = 2.0,
):
    """Per-function entropy/energy ratios with delta-method errors."""
    if not family:
        raise ValueError("family must be nonempty")
    w = mu_hat.weights
    x = mu_hat.values
    a_vals = np.ones_like(x) if weight is None else np.asarray(weight(x), dtype=float)
    out = []
    for tf in family:
        fv = np.asarray(tf.f(x), dtype=float)
        if 1.0 < p < 2.0 and np.any(fv < 0):
            raise ValueError(f"{tf.label}: negative values not allowed for 1 < p < 2")
        dv = np.asarray(tf.df(x), dtype=float)
        den_terms = a_vals * dv * dv
        den = float(_dot(w, den_terms))
        if den <= 1e-300:
            raise ValueError(f"degenerate gradient energy for test function {tf.label}")
        num, _, infl_n = _entropy_kernel(fv, w, p)
        ratio = num / den
        infl_r = (infl_n - ratio * (den_terms - den)) / den
        se = float(np.sqrt(_dot(w ** 2, infl_r ** 2)))
        out.append({"label": tf.label, "ratio": float(ratio), "entropy": float(num),
                    "energy": den, "std_error": se})
    return out


def empirical_inequality_ratio(
    mu_hat: EmpiricalMeasure, family: Sequence[TestFunction],
    weight: Optional[Callable] = None, p: float = 2.0,
) -> float:
    """Largest entropy-to-energy ratio over the family: an empirical lower
    bound on the optimal inequality constant."""
    details = inequality_details(mu_hat, family, weight, p)
    return max(d["ratio"] for d in details)
