"""Named experiments: simulate, certify, verify, inequality.

Each experiment builds the configured model, runs seeded Monte Carlo with
substreams allocated by task index (so worker count and scheduling cannot
change any output), writes CSV artifacts plus a human-readable report of
PASS/FAIL assertion lines, and returns a process exit status that is zero
exactly when every assertion passed.
"""

from __future__ import annotations

import csv
import os
import traceback

import numpy as np

from .config import RunConfig
from .core import Estimate, Model, nested_grid_statistics, run_tasks, simulate_ensemble
from .embedded import (EmpiricalMeasure, chain_invariant_sample, chain_sample_matrix,
                       reconstruct_mu, reweight_and_push, time_average_states)
from .estimators import (TestFunction, column_ratio, energy_W, entropy_p_with_error,
                         family_by_labels, fit_decay_rate, inequality_details,
                         variance_of_semigroup, wasserstein_1d)
from .registry import REGISTRY
from .rng import RandomStream

__all__ = ["run_experiment", "build_model", "Report", "entropy_decay_series"]


class Report:
    """Accumulates assertion lines; renders the report and final status."""

    def __init__(self, header: dict):
        self.header = dict(header)
        self.lines: list[tuple[bool, str, str]] = []

    def check(self, name: str, ok, detail: str = "") -> bool:
        ok = bool(ok)
        self.lines.append((ok, name, detail))
        return ok

    def info(self, name: str, detail: str):
        self.lines.append((None, name, detail))

    @property
    def passed(self) -> bool:
        return all(ok for ok, _, _ in self.lines if ok is not None)

    def render(self) -> str:
        out = [f"{k}: {v}" for k, v in self.header.items()]
        for ok, name, detail in self.lines:
            mark = "INFO" if ok is None else ("PASS" if ok else "FAIL")
            out.append(f"{mark} {name}" + (f": {detail}" if detail else ""))
        out.append(f"STATUS: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(out) + "\n"

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.render())


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def write_series_csv(path, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "value", "std_error"])
        for t, v, se in rows:
            writer.writerow([_fmt(t), _fmt(v), _fmt(se)])


def write_ledger_csv(path, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["quantity", "value", "provenance"])
        for name, value, provenance in rows:
            writer.writerow([name, _fmt(value), provenance])


def build_model(config: RunConfig) -> Model:
    return REGISTRY[config.model].build(config)


def certificate_ledger(config: RunConfig, model: Model):
    """Certificate ledger of the configured model."""
    return REGISTRY[config.model].certificate(config, model)


# ---------------------------------------------------------------------------
# experiment bodies
# ---------------------------------------------------------------------------

def _native(model: Model):
    """The model a run simulates, the map from its states to ``model``'s
    coordinates, and the chain and time-average start 1.0 of ``model``.
    A chart image runs its base natively and maps the returned states once."""
    if model.chart is None:
        return model, lambda x: x, 1.0
    return model.base, model.chart.psi, model.chart.psi_inv(1.0)


def _reconstructed(config: RunConfig, model: Model, n: int, master: RandomStream):
    """Invariant law reconstructed from n embedded-chain states."""
    run, to_model, x0 = _native(model)
    chain_mu = chain_invariant_sample(run, n, config.burn_in, config.thinning,
                                      master.substream(1), x0)
    mu = reconstruct_mu(run, chain_mu, master.substream(2))
    return EmpiricalMeasure(to_model(mu.values), mu.weights, mu.provenance)


def simulate_experiment(config: RunConfig, model: Model, master: RandomStream,
                        out_dir: str, report: Report):
    run, to_model, x0 = _native(model)

    def chain_task():
        matrix = chain_sample_matrix(
            run, config.chain_length, config.burn_in, config.thinning,
            master.substream(1), x0)
        hv, pushed = reweight_and_push(run, matrix.ravel(), master.substream(2))
        return to_model(matrix), hv, to_model(pushed)

    def ta_task():
        return to_model(time_average_states(
            run, x0=x0, t_burn=20.0, t_end=80.0,
            n_paths=max(2, min(512, config.n_outer)), n_times=64,
            stream=master.substream(3)))

    (matrix, hv, pushed), ta = run_tasks([chain_task, ta_task], config.workers)

    mu = EmpiricalMeasure.from_samples(pushed, hv, provenance="reweighted")
    mu.to_csv(os.path.join(out_dir, "measure.csv"))

    # every statistic is a ratio of sums over (slot, chain) or (time, path)
    # matrices, whose columns are independent
    hw = hv.reshape(matrix.shape)
    pw = pushed.reshape(matrix.shape)
    norm = column_ratio(hw, 1.0)
    rec_mean = column_ratio(hw * pw, hw)
    rec_m2 = column_ratio(hw * pw ** 2, hw)
    ta_mean = column_ratio(ta.T, 1.0)
    ta_m2 = column_ratio((ta ** 2).T, 1.0)

    tol1 = 3.0 * np.hypot(rec_mean.std_error, ta_mean.std_error)
    tol2 = 3.0 * np.hypot(rec_m2.std_error, ta_m2.std_error)
    report.check(
        "reconstructed_vs_time_average_mean", abs(rec_mean.value - ta_mean.value) <= tol1,
        f"reconstructed={rec_mean.value:.6g} time_average={ta_mean.value:.6g} tol={tol1:.3g}")
    report.check(
        "reconstructed_vs_time_average_second_moment", abs(rec_m2.value - ta_m2.value) <= tol2,
        f"reconstructed={rec_m2.value:.6g} time_average={ta_m2.value:.6g} tol={tol2:.3g}")
    # 12 digits match the tolerance, so a one-ulp move of the sum is not printed
    report.check(
        "measure_weights_normalised", abs(mu.weights.sum() - 1.0) <= 1e-12,
        f"sum={mu.weights.sum():.12g}")

    report.info("reconstruction_normaliser",
                f"value={norm.value:.10g} se={norm.std_error:.3g}")
    rows = [
        ("chain_mean", column_ratio(matrix, 1.0).value, "embedded-chain sample mean"),
        ("reconstruction_normaliser", norm.value,
         f"chain mean of the residual normaliser, between-chain se {norm.std_error:.3g}"),
        ("reconstructed_mean", rec_mean.value, "reweighted and pushed chain sample"),
        ("time_average_mean", ta_mean.value, "trajectory occupation average"),
        ("reconstructed_second_moment", rec_m2.value, "reweighted and pushed chain sample"),
        ("time_average_second_moment", ta_m2.value, "trajectory occupation average"),
    ]
    write_ledger_csv(os.path.join(out_dir, "ledger.csv"), rows)


def certify_experiment(config: RunConfig, model: Model, master: RandomStream,
                       out_dir: str, report: Report):
    ledger = certificate_ledger(config, model)
    write_ledger_csv(os.path.join(out_dir, "ledger.csv"), ledger)
    finite = all(np.isfinite(v) for _, v, _ in ledger)
    report.check("ledger_values_finite", finite, f"{len(ledger)} quantities")
    record = REGISTRY[config.model]
    for name in record.bounds:
        value = getattr(ledger, name)
        report.check(f"bound_{name}_positive", value > 0, f"{name}={value:.6g}")
    if record.check is not None:
        report.check(*record.check(config, ledger))


def _time_series(config: RunConfig, estimate):
    """(t, value, std error) rows of the Estimate estimate(j, t) over the time grid."""
    def task(j, t):
        est = estimate(j, t)
        return t, est.value, est.std_error

    return run_tasks([lambda j=j, t=t: task(j, t) for j, t in enumerate(config.time_grid)],
                     config.workers)


def _decay_fit(series, report: Report):
    fit = fit_decay_rate(series)
    report.info("decay_fit", f'{{"rate": {fit.fitted_rate:.10g}, "rate_se": '
                f'{fit.rate_std_error:.4g}, "r2": {fit.r_squared:.6f}}}')
    return fit


def entropy_decay_series(model: Model, tfs: list[TestFunction], mu_hat: EmpiricalMeasure,
                         times, inner_n: int, stream: RandomStream, workers: int = 1):
    """xlogx entropy of the time-t conditional means along a time grid: one
    list of (t, value, std error) rows per test function, all evaluated on
    one inner ensemble advanced once across the grid."""
    times = np.asarray(times, dtype=float)
    later = times[times > 0]
    means, ivars = nested_grid_statistics(model, [tf.f for tf in tfs], mu_hat.values,
                                          later, inner_n, stream, workers=workers)
    series = []
    for tf, tf_means, tf_ivars in zip(tfs, means, ivars):
        rows = []
        if times[0] == 0:
            rows.append((0.0, *entropy_p_with_error(tf.f(mu_hat.values), 1.0, mu_hat.weights)))
        rows += [(t, *entropy_p_with_error(m, 1.0, mu_hat.weights, v, inner_n))
                 for t, m, v in zip(later, tf_means, tf_ivars)]
        series.append(rows)
    return series


def _verify_w1(config, model, master, ledger, report):
    """Transport distance between coupled ensembles from two point starts."""
    n, n_blocks = config.n_outer, 20

    def w1(j, t):
        node = master.substream(10 + j)
        lo = simulate_ensemble(model, np.full(n, 0.0), t, node)
        hi = simulate_ensemble(model, np.full(n, 2.0), t, node)
        value = wasserstein_1d(
            1.0,
            EmpiricalMeasure.from_samples(lo, provenance="ensemble"),
            EmpiricalMeasure.from_samples(hi, provenance="ensemble"),
        )
        m = (n // n_blocks) * n_blocks
        blo = np.sort(lo[:m].reshape(n_blocks, -1), axis=1)
        bhi = np.sort(hi[:m].reshape(n_blocks, -1), axis=1)
        per_block = np.abs(blo - bhi).mean(axis=1)
        return Estimate(value, float(per_block.std(ddof=1) / np.sqrt(n_blocks)))

    series = _time_series(config, w1)
    fit = _decay_fit(series, report)
    target = ledger.optimal_w1_rate
    certified = ledger.wasserstein_rate
    report.check(
        "w1_rate_near_optimal", abs(fit.fitted_rate - target) <= 0.1 * target,
        f"fitted={fit.fitted_rate:.6g} optimal={target:.6g}")
    report.check(
        "w1_rate_above_certified",
        fit.fitted_rate >= certified - 3.0 * fit.rate_std_error,
        f"fitted={fit.fitted_rate:.6g} certified={certified:.6g} se={fit.rate_std_error:.3g}")
    return series


def _verify_energy(config, model, master, ledger, report):
    atoms = EmpiricalMeasure.from_samples([0.5, 1.0, 2.0], provenance="atoms")
    tf = family_by_labels(["x"])[0]
    series = _time_series(config, lambda j, t: energy_W(
        model, tf, atoms, t, config.n_inner, master.substream(20 + j)))
    fit = _decay_fit(series, report)
    report.check(
        "energy_rate_matches_flow_contraction", abs(fit.fitted_rate - 2.0) <= 1e-3,
        f"fitted={fit.fitted_rate:.10g} target=2")
    return series


def _verify_entropy(config, model, master, ledger, report):
    """xlogx entropy decay on the tcp_linear process (the base of a chart image)."""
    base = _native(model)[0]
    mu = _reconstructed(config, base, config.n_outer, master)
    tfs = family_by_labels(["x", "sin(x)"])
    all_rows = entropy_decay_series(base, tfs, mu, config.time_grid, config.n_inner,
                                    master.substream(30), config.workers)
    series = []
    for tf, rows in zip(tfs, all_rows):
        energy0 = mu.expectation(lambda x: np.asarray(tf.df(x)) ** 2)
        ok = True
        worst = ""
        for t, value, se in rows:
            bound = ledger.entropy_c * np.exp(-ledger.rate_r * t) * energy0 + 3.0 * se
            if not (np.isfinite(se) and value <= bound):
                ok = False
                worst = f" violated at t={t}: {value:.6g} > {bound:.6g}"
        report.check(f"entropy_decay_certified_{tf.label}", ok,
                     f"constant={ledger.entropy_c:.6g} rate={ledger.rate_r:.6g}{worst}")
        series += rows
    return series


def _verify_variance(config, model, master, ledger, report):
    mu = _reconstructed(config, model, config.n_outer, master)
    tf = family_by_labels(["x"])[0]
    estimates = variance_of_semigroup(model, tf, mu, config.time_grid, config.n_inner,
                                      master.substream(40), config.workers)
    series = [(t, *est) for t, est in zip(config.time_grid, estimates)]
    fit = _decay_fit(series, report)
    report.check(
        "variance_rate_above_certified",
        fit.fitted_rate >= ledger.decay_rate - 3.0 * fit.rate_std_error,
        f"fitted={fit.fitted_rate:.6g} certified={ledger.decay_rate:.6g}")
    return series


_VERIFY_ROUTES = {
    "w1": _verify_w1,
    "energy": _verify_energy,
    "entropy": _verify_entropy,
    "variance": _verify_variance,
}


def verify_experiment(config: RunConfig, model: Model, master: RandomStream,
                      out_dir: str, report: Report):
    ledger = certificate_ledger(config, model)
    write_ledger_csv(os.path.join(out_dir, "ledger.csv"), ledger)
    route = _VERIFY_ROUTES[REGISTRY[config.model].verify]
    series = route(config, model, master, ledger, report)
    write_series_csv(os.path.join(out_dir, "series.csv"), series)


def inequality_experiment(config: RunConfig, model: Model, master: RandomStream,
                          out_dir: str, report: Report):
    spec = REGISTRY[config.model].inequality
    ledger = certificate_ledger(config, model)
    mu = _reconstructed(config, model, config.chain_length, master)
    mu.to_csv(os.path.join(out_dir, "measure.csv"))

    weight = model.weight if spec.weighted else None
    bound = getattr(ledger, spec.bound)
    details = inequality_details(mu, family_by_labels(config.functions), weight, spec.p)
    ledger_rows = list(ledger)
    worst = max(details, key=lambda d: d["ratio"])
    for d in details:
        ledger_rows.append((f"ratio_{d['label']}", d["ratio"],
                            f"empirical entropy/energy ratio, std error {d['std_error']:.3g}"))
    write_ledger_csv(os.path.join(out_dir, "ledger.csv"), ledger_rows)
    report.check(
        "empirical_ratio_below_certificate",
        worst["ratio"] <= bound + 3.0 * worst["std_error"],
        f"max_ratio={worst['ratio']:.6g} ({worst['label']}) "
        f"{spec.bound}={bound:.6g} se={worst['std_error']:.3g}")


_BODIES = {
    "simulate": simulate_experiment,
    "certify": certify_experiment,
    "verify": verify_experiment,
    "inequality": inequality_experiment,
}


def run_experiment(config: RunConfig) -> int:
    """Run the configured experiment; 0 exit status iff every assertion passed."""
    out_dir = os.path.join(config.out_dir, config.experiment)
    os.makedirs(out_dir, exist_ok=True)
    report = Report({
        "experiment": config.experiment,
        "model": config.model,
        "seed": config.seed,
        "workers": config.workers,
    })
    master = RandomStream(config.seed)
    try:
        model = build_model(config)
        _BODIES[config.experiment](config, model, master, out_dir, report)
    except Exception as exc:  # noqa: BLE001 - report and signal failure
        report.check("experiment_completed", False, f"{type(exc).__name__}: {exc}")
        report.write(os.path.join(out_dir, "report.txt"))
        traceback.print_exc()
        return 1
    report.write(os.path.join(out_dir, "report.txt"))
    return 0 if report.passed else 1
