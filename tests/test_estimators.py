import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdmp_ergo.certificates import certify_tcp_constant
from pdmp_ergo.core import nested_grid_statistics
from pdmp_ergo.embedded import EmpiricalMeasure, chain_invariant_sample, reconstruct_mu
from pdmp_ergo.estimators import (TestFunction, _xlogy, default_family,
                                  empirical_inequality_ratio, energy_W,
                                  entropy_p, entropy_p_with_error,
                                  family_by_labels, fit_decay_rate,
                                  inequality_details, variance_of_semigroup,
                                  wasserstein_1d)
from pdmp_ergo.models import (StorageParams, TcpConstantParams,
                              exponential_increment, make_affine_rate_tcp,
                              make_storage, make_tcp_constant, make_tcp_linear)
from pdmp_ergo.rng import RandomStream

X_FN = TestFunction(lambda x: x, lambda x: np.ones_like(np.asarray(x, dtype=float)), "x")


def uniform_measure(values):
    return EmpiricalMeasure.from_samples(values, provenance="atoms")


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------

def test_default_family_derivatives_check_out():
    grid = np.linspace(0.05, 20.0, 257)
    for tf in default_family():
        tf.check_derivative(grid)


def test_family_selection():
    fam = family_by_labels(["x", "sin(x)"])
    assert [tf.label for tf in fam] == ["x", "sin(x)"]
    with pytest.raises(KeyError):
        family_by_labels(["cosh(x)"])


# ---------------------------------------------------------------------------
# entropies
# ---------------------------------------------------------------------------

def test_entropy_constant_function_is_zero():
    v = np.full(100, 3.3)
    for p in (1.0, 1.3, 2.0):
        assert abs(entropy_p(v, p)) <= 1e-12


def test_entropy_p2_equals_variance():
    rng = RandomStream(3)
    for _ in range(5):
        v = np.abs(rng.normal(500)) + 0.1
        w = rng.uniform(500) + 0.1
        w = w / w.sum()
        direct = float(np.dot(w, v * v) - np.dot(w, v) ** 2)
        assert abs(entropy_p(v, 2.0, w) - direct) <= 1e-12


def test_entropy_monotone_in_p():
    rng = RandomStream(8)
    ps = np.linspace(1.0, 2.0, 6)
    for _ in range(100):
        v = np.abs(rng.normal(200)) + 1e-3
        w = rng.uniform(200) + 0.05
        ents = [entropy_p(v, p, w) for p in ps]
        assert all(a >= b - 1e-10 for a, b in zip(ents, ents[1:]))


def test_entropy_permutation_invariant_and_homogeneous():
    rng = RandomStream(9)
    v = np.abs(rng.normal(300)) + 0.01
    w = rng.uniform(300) + 0.1
    perm = np.argsort(rng.normal(300))
    for p in (1.0, 1.5, 2.0):
        assert entropy_p(v, p, w) == pytest.approx(entropy_p(v[perm], p, w[perm]), rel=1e-12)
        assert entropy_p(3.0 * v, p, w) == pytest.approx(9.0 * entropy_p(v, p, w), rel=1e-10)


def test_entropy_p1_accepts_signed_values():
    v = np.array([-1.0, 0.0, 2.0, -3.0])
    direct = entropy_p(np.abs(v), 1.0)
    assert entropy_p(v, 1.0) == pytest.approx(direct, rel=1e-14)


def test_xlogy_form_matches_scipy():
    from scipy import special

    # signed x with y = x^2 is the gradient term of the p = 1 kernel, and
    # x = y = s the entropy term
    x = RandomStream(12).normal(200_000)
    assert np.sum(x < 0) > 90_000
    for got, want in ((_xlogy(x, x * x), special.xlogy(x, x * x)),
                      (_xlogy(x * x, x * x), special.xlogy(x * x, x * x))):
        assert np.all(np.abs(got - want) <= 2 * np.spacing(np.abs(want)))


def test_xlogy_form_is_exactly_zero_at_zero_x():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = _xlogy(np.array([0.0, -0.0, 0.0, 2.0]), np.array([0.0, 0.0, 5.0, 1.0]))
        assert np.array_equal(out, np.zeros(4))
        assert float(_xlogy(0.0, 0.0)) == 0.0
    assert float(_xlogy(2.0, 3.0)) == 2.0 * np.log(3.0)


def test_entropy_fractional_rejects_signed_values():
    with pytest.raises(ValueError):
        entropy_p(np.array([-1.0, 2.0]), 1.5)


def test_entropy_with_error_matches_plugin():
    rng = RandomStream(10)
    v = np.abs(rng.normal(5000))
    est = entropy_p_with_error(v, 1.0)
    assert est.value == pytest.approx(entropy_p(v, 1.0), rel=1e-14)
    assert est.std_error > 0
    # the error shrinks like one over root n
    est2 = entropy_p_with_error(np.concatenate([v] * 4), 1.0)
    assert est2.std_error == pytest.approx(est.std_error / 2.0, rel=0.05)


# ---------------------------------------------------------------------------
# transport distance
# ---------------------------------------------------------------------------

def test_w1_identical_measures():
    m = uniform_measure(RandomStream(1).normal(100))
    assert wasserstein_1d(1.0, m, m) == 0.0


def test_w1_two_atoms():
    a = uniform_measure([0.0])
    b = uniform_measure([3.0])
    for p in (1.0, 1.7, 2.0):
        assert wasserstein_1d(p, a, b) == pytest.approx(3.0, rel=1e-14)


def test_wasserstein_matches_brute_force_assignment():
    rng = RandomStream(44)
    for p in (1.0, 2.0):
        for trial in range(100):
            a = rng.normal(5) * 2.0
            b = rng.normal(5) * 2.0 + 1.0
            best = min(
                np.mean(np.abs(a - b[list(perm)]) ** p)
                for perm in itertools.permutations(range(5))
            ) ** (1.0 / p)
            got = wasserstein_1d(p, uniform_measure(a), uniform_measure(b))
            assert got == pytest.approx(best, rel=1e-12)


def test_wasserstein_weighted_partition():
    a = EmpiricalMeasure(np.array([0.0, 1.0]), np.array([0.25, 0.75]), "atoms")
    b = EmpiricalMeasure(np.array([0.0, 1.0]), np.array([0.75, 0.25]), "atoms")
    assert wasserstein_1d(1.0, a, b) == pytest.approx(0.5, rel=1e-14)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_wasserstein_triangle_and_scaling(seed):
    rng = np.random.default_rng(seed)
    a = uniform_measure(rng.normal(size=8))
    b = uniform_measure(rng.normal(size=8) + 1)
    c = uniform_measure(rng.normal(size=8) - 1)
    for p in (1.0, 2.0):
        ab = wasserstein_1d(p, a, b)
        bc = wasserstein_1d(p, b, c)
        ac = wasserstein_1d(p, a, c)
        assert ac <= ab + bc + 1e-12
        scale = 2.5
        sa = uniform_measure(scale * a.values)
        sb = uniform_measure(scale * b.values)
        assert wasserstein_1d(p, sa, sb) == pytest.approx(scale * ab, rel=1e-12)


# ---------------------------------------------------------------------------
# nested Monte Carlo functionals
# ---------------------------------------------------------------------------

def test_variance_constant_function_zero():
    model = make_tcp_constant(TcpConstantParams(rate=1.0, delta=0.5))
    mu = uniform_measure(np.linspace(0.1, 3.0, 64))
    tf = TestFunction(lambda x: np.full_like(np.asarray(x, dtype=float), 2.0),
                      lambda x: np.zeros_like(np.asarray(x, dtype=float)), "const")
    est, = variance_of_semigroup(model, tf, mu, [1.0], 16, RandomStream(3))
    assert abs(est.value) <= 1e-12


def test_variance_time_zero_is_sample_variance():
    model = make_tcp_constant(TcpConstantParams(rate=1.0, delta=0.5))
    vals = np.abs(RandomStream(5).normal(500))
    mu = uniform_measure(vals)
    est, = variance_of_semigroup(model, X_FN, mu, [0.0], 2, RandomStream(3))
    assert est.value == pytest.approx(float(vals.var()), rel=1e-12)
    assert est.std_error == 0.0


def test_variance_bias_correction_against_affine_truth():
    # the time-t conditional mean of the coordinate is affine in the start
    # with slope exp(-rate(1-delta)t), so on any atom set the true variance
    # is that slope squared times the atoms' variance, exactly
    model = make_tcp_constant(TcpConstantParams(rate=1.0, delta=0.5))
    mu = uniform_measure(RandomStream(71).exponential(2000) * 1.5)
    t = 1.0
    truth = np.exp(-2 * 0.5 * t) * float(mu.var())
    est, = variance_of_semigroup(model, X_FN, mu, [t], 96, RandomStream(72))
    assert abs(est.value - truth) <= 3 * est.std_error
    # without the correction the estimator overshoots by the mean inner
    # sampling variance over the inner count; the gap must be visible
    means, ivars = (a[0, 0] for a in nested_grid_statistics(
        model, [X_FN.f], mu.values, [t], 96, RandomStream(72).spawn()))
    naive = float(np.dot(mu.weights, (means - np.dot(mu.weights, means)) ** 2))
    assert naive - est.value >= 0.5 * float(ivars.mean()) / 96


def test_variance_decay_at_least_certified_rate():
    model = make_tcp_constant(TcpConstantParams(rate=1.0, delta=0.5))
    cert = certify_tcp_constant(1.0, 0.5)
    chain = chain_invariant_sample(model, 4096, stream=RandomStream(6))
    mu = reconstruct_mu(model, chain, RandomStream(7))
    times = [0.0, 0.75, 1.5, 2.25, 3.0]
    estimates = variance_of_semigroup(model, X_FN, mu, times, 128, RandomStream(8))
    series = [(t, *est) for t, est in zip(times, estimates)]
    fit = fit_decay_rate(series)
    assert fit.fitted_rate >= cert.l2_rate - 3 * fit.rate_std_error


def test_variance_series_rate_error_is_honest():
    # the grid points share inner paths, so they are correlated; the fitted
    # rate's spread across seeds must still match its reported error
    model = make_affine_rate_tcp(1.0, 1.0, 0.5)
    times = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    rates, errors = [], []
    for seed in range(12):
        master = RandomStream(seed)
        chain = chain_invariant_sample(model, 2000, 1000, 1, master.substream(1))
        mu = reconstruct_mu(model, chain, master.substream(2))
        estimates = variance_of_semigroup(model, X_FN, mu, times, 50, master.substream(3))
        fit = fit_decay_rate([(t, *est) for t, est in zip(times, estimates)])
        rates.append(fit.fitted_rate)
        errors.append(fit.rate_std_error)
    assert np.std(rates, ddof=1) <= 1.5 * np.median(errors)


def test_nested_routes_need_two_inner_replications():
    from pdmp_ergo.experiments import entropy_decay_series
    mu = uniform_measure(np.linspace(0.2, 3.0, 16))
    increasing = make_affine_rate_tcp(1.0, 1.0, 0.5)
    linear = make_tcp_linear(0.5)
    with pytest.raises(ValueError, match="two inner replications"):
        variance_of_semigroup(increasing, X_FN, mu, [0.0, 1.0], 1, RandomStream(0))
    with pytest.raises(ValueError, match="two inner replications"):
        entropy_decay_series(linear, [X_FN], mu, [0.0, 1.0], 1, RandomStream(0))
    with pytest.raises(ValueError, match="two inner replications"):
        energy_W(linear, X_FN, mu, 1.0, 1, RandomStream(0))


def test_energy_refuses_models_without_synchronous_coupling():
    from pdmp_ergo.models import make_twisted_tcp_linear
    mu = uniform_measure(np.linspace(0.2, 3.0, 16))
    for model in (make_tcp_linear(0.5), make_affine_rate_tcp(1.0, 1.0, 0.5),
                  make_twisted_tcp_linear(0.5)):
        with pytest.raises(ValueError, match="not synchronously coupled"):
            energy_W(model, X_FN, mu, 1.0, 16, RandomStream(0))


def test_energy_time_zero_exact():
    model = make_tcp_linear(0.5)
    mu = uniform_measure(np.linspace(0.2, 4.0, 32))
    est = energy_W(model, X_FN, mu, 0.0, 2, RandomStream(0))
    expect = float(np.mean(model.weight(mu.values)))
    assert est.value == pytest.approx(expect, rel=1e-14)


def test_energy_storage_exact_decay():
    model = make_storage(StorageParams(1.0, exponential_increment(1.0)))
    mu = uniform_measure([0.5, 1.0, 2.0])
    w0 = energy_W(model, X_FN, mu, 0.0, 2, RandomStream(1)).value
    for t in (0.5, 1.0, 2.0):
        est = energy_W(model, X_FN, mu, t, 64, RandomStream(2))
        assert est.value == pytest.approx(np.exp(-2 * t) * w0, rel=1e-9)


def test_energy_constant_function_zero():
    model = make_storage(StorageParams(1.0, exponential_increment(1.0)))
    mu = uniform_measure([0.5, 1.0])
    tf = TestFunction(lambda x: np.ones_like(np.asarray(x, dtype=float)),
                      lambda x: np.zeros_like(np.asarray(x, dtype=float)), "one")
    est = energy_W(model, tf, mu, 1.0, 32, RandomStream(3))
    assert abs(est.value) <= 1e-12


# ---------------------------------------------------------------------------
# decay fits
# ---------------------------------------------------------------------------

def test_fit_exact_series():
    ts = np.linspace(0.0, 3.0, 7)
    series = [(t, np.exp(-2.0 * t), 0.0) for t in ts]
    fit = fit_decay_rate(series)
    assert fit.fitted_rate == pytest.approx(2.0, abs=1e-12)
    assert fit.rate_std_error <= 1e-12
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_filters_zero_values():
    series = [(0.0, 1.0, 0.0), (1.0, np.exp(-1), 0.0), (2.0, 0.0, 0.0),
              (3.0, np.exp(-3), 0.0)]
    fit = fit_decay_rate(series)
    assert fit.times.size == 3
    assert fit.fitted_rate == pytest.approx(1.0, abs=1e-12)


def test_fit_needs_three_points():
    with pytest.raises(ValueError):
        fit_decay_rate([(0.0, 1.0, 0.0), (1.0, 0.5, 0.0)])


def test_fit_recovers_rate_within_reported_error():
    rng = RandomStream(123)
    ts = np.linspace(0.0, 4.0, 9)
    hits = 0
    for trial in range(50):
        noise = rng.substream(trial).normal(ts.size)
        vals = np.exp(-1.5 * ts) * (1.0 + 0.01 * noise)
        series = [(t, v, 0.01 * v) for t, v in zip(ts, vals)]
        fit = fit_decay_rate(series)
        if abs(fit.fitted_rate - 1.5) <= 3 * fit.rate_std_error:
            hits += 1
    assert hits >= 47  # three-sigma misses should be rare


# ---------------------------------------------------------------------------
# empirical inequality ratios
# ---------------------------------------------------------------------------

def test_ratio_exponential_sample_poincare():
    vals = RandomStream(77).exponential(200_000)
    mu = uniform_measure(vals)
    ratio = empirical_inequality_ratio(mu, [X_FN], p=2.0)
    assert ratio == pytest.approx(1.0, abs=0.05)
    assert ratio <= 4.0


def test_ratio_two_atoms():
    mu = uniform_measure([0.0, 1.0])
    assert empirical_inequality_ratio(mu, [X_FN], p=2.0) == pytest.approx(0.25, rel=1e-14)


def test_ratio_constants_degenerate():
    mu = uniform_measure([0.0, 1.0])
    tf = TestFunction(lambda x: np.ones_like(np.asarray(x, dtype=float)),
                      lambda x: np.zeros_like(np.asarray(x, dtype=float)), "one")
    with pytest.raises(ValueError):
        empirical_inequality_ratio(mu, [tf], p=2.0)


def test_inequality_details_errors_shrink():
    vals = RandomStream(5).exponential(10_000)
    d1 = inequality_details(uniform_measure(vals), [X_FN], p=2.0)[0]
    d2 = inequality_details(uniform_measure(np.concatenate([vals] * 4)), [X_FN], p=2.0)[0]
    assert d2["std_error"] == pytest.approx(d1["std_error"] / 2.0, rel=0.05)
