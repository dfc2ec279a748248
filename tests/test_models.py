import dataclasses
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy import integrate, special

from pdmp_ergo import certificates, models
from pdmp_ergo.core import ensemble_states_at, simulate_ensemble
from pdmp_ergo.embedded import chain_sample_matrix, reweight_and_push
from pdmp_ergo.experiments import _native
from pdmp_ergo.models import (PsiChart, StorageParams, TcpConstantParams,
                              exponential_increment, linear_weight,
                              make_affine_rate_tcp, make_storage,
                              make_tcp_constant, make_tcp_linear,
                              make_twisted_tcp_linear, psi_chart,
                              tcp_constant_invariant_moments,
                              tcp_constant_spectrum)
from pdmp_ergo.rng import RandomStream


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------

def test_constant_params_validate():
    with pytest.raises(ValueError):
        TcpConstantParams(rate=0.0, delta=0.5)
    with pytest.raises(ValueError):
        TcpConstantParams(rate=1.0, delta=1.0)
    with pytest.raises(ValueError):
        TcpConstantParams(rate=1.0)  # no factor information at all


def test_random_factor_needs_small_second_moment():
    with pytest.raises(ValueError):
        TcpConstantParams(rate=1.0, factor_sampler=lambda u: u,
                          factor_moment=lambda k: 1.0)


@pytest.mark.parametrize("factory,args", [
    (make_affine_rate_tcp, (1.0, 0.0, 0.5)), (make_affine_rate_tcp, (1.0, -1.0, 0.5)),
    (make_affine_rate_tcp, (0.0, 1.0, 0.5)), (make_affine_rate_tcp, (-1.0, 1.0, 0.5)),
    (make_affine_rate_tcp, (1.0, 1.0, 1.0)), (make_tcp_linear, (1.0,)),
    (make_tcp_linear, (-0.5,)),
], ids=lambda v: getattr(v, "__name__", None) or "-".join(map(repr, v)))
def test_tcp_factories_reject_invalid_parameters(factory, args):
    # a zero slope would make h_form and ktilde_sampler return nan
    with pytest.raises(ValueError):
        factory(*args)


def test_storage_params_reject_nonpositive_increments():
    with pytest.raises(ValueError):
        StorageParams(1.0, lambda u: np.asarray(u) - 2.0)


# ---------------------------------------------------------------------------
# constant-rate model
# ---------------------------------------------------------------------------

def test_constant_closed_forms():
    model = make_tcp_constant(TcpConstantParams(rate=1.0, delta=0.5))
    assert model.inv_cum_rate(3.0, 2.0) == pytest.approx(2.0, abs=0)
    assert float(model.jump(4.0, RandomStream(0))) == pytest.approx(2.0, abs=0)


def test_constant_moments_and_spectrum():
    params = TcpConstantParams(rate=1.0, delta=0.5)
    assert tcp_constant_invariant_moments(params, 0) == 1.0
    assert tcp_constant_invariant_moments(params, 1) == pytest.approx(1.0, rel=1e-14)
    assert tcp_constant_invariant_moments(params, 2) == pytest.approx(4.0 / 3.0, rel=1e-14)
    assert tcp_constant_spectrum(params, 0) == 0.0
    assert tcp_constant_spectrum(params, 1) == pytest.approx(-0.5, abs=0)
    assert tcp_constant_spectrum(params, 2) == pytest.approx(-0.75, abs=0)


def test_constant_second_moment_against_chain_recursion_oracle():
    # brute-force oracle: iterate the distributional fixed point Z -> d(Z + E)
    params = TcpConstantParams(rate=1.0, delta=0.5)
    rng = RandomStream(99)
    z = np.zeros(100_000)
    for j in range(60):
        z = 0.5 * (z + rng.substream(j).exponential(z.size))
    m2 = (z ** 2).mean()
    se = (z ** 2).std(ddof=1) / np.sqrt(z.size)
    assert abs(tcp_constant_invariant_moments(params, 2) - m2) <= 4 * se


def test_random_factor_model_simulates():
    params = TcpConstantParams(
        rate=1.0,
        factor_sampler=lambda u: 0.5 * np.asarray(u, dtype=float),
        factor_moment=lambda k: 0.5 ** k / (k + 1.0),  # moments of U(0, 1/2)
    )
    model = make_tcp_constant(params)
    out = model.jump(np.full(1000, 4.0), RandomStream(3))
    assert np.all((out >= 0) & (out < 2.0))


# ---------------------------------------------------------------------------
# linear-rate model
# ---------------------------------------------------------------------------

def test_linear_closed_forms():
    model = make_tcp_linear(0.5)
    assert model.inv_cum_rate(0.0, 2.0) == pytest.approx(2.0, abs=0)
    assert float(model.weight(np.log(2.0))) == pytest.approx(0.5, rel=1e-15)


def test_linear_rate_returns_its_argument():
    # no array pass of its own: the affine closed forms evaluate it every round
    x = np.linspace(0.0, 3.0, 7)
    assert make_tcp_linear(0.5).rate(x) is x


def test_linear_weight_concavity_consequence():
    delta = 0.5
    x = np.linspace(0.0, 40.0, 4001)
    assert np.all(linear_weight(delta * x) >= delta * linear_weight(x) - 1e-15)


def _ulps(got, want):
    return np.max(np.abs(got - want) / np.spacing(np.abs(want)))


def test_erfcx_matches_scipy_on_the_half_line():
    dense = np.linspace(0.0, 40.0, 400_001)
    wide = np.concatenate([np.logspace(-300, 300, 60_001), [1.7e308]])
    assert _ulps(models._erfcx(dense), special.erfcx(dense)) <= 16
    assert _ulps(models._erfcx(wide), special.erfcx(wide)) <= 16


def test_erfcx_at_zero_and_in_the_far_tail():
    assert models._erfcx(0.0) == 1.0
    assert models._erfcx(np.inf) == 0.0
    # erfcx(z) = (1 - 1/(2 z^2) + ...) / (sqrt(pi) z): the correction is
    # below one ulp from z = 1e8 on
    z = np.logspace(8, 300, 2921)
    assert _ulps(models._erfcx(z), 1.0 / (np.sqrt(np.pi) * z)) <= 4


def test_linear_h_is_the_scaled_erfc_form():
    x = np.concatenate([np.linspace(0.0, 60.0, 60_001), np.logspace(2, 300, 299)])
    want = np.sqrt(np.pi / 2.0) * special.erfcx(x / np.sqrt(2.0))
    assert _ulps(models.linear_h(x), want) <= 16
    assert isinstance(models.linear_h(1.5), float)


@pytest.mark.parametrize("x", [-1e-300, -1.0, [0.5, -np.inf]])
def test_linear_h_refuses_negative_input(x):
    with pytest.raises(ValueError, match="nonnegative"):
        models.linear_h(x)


def test_linear_mean_jump_time_from_invariant_exponential():
    # Monte Carlo of the inverse transform against the quadrature value
    oracle, _ = integrate.quad(lambda t: t * t * np.exp(-0.5 * t * t), 0, np.inf)
    model = make_tcp_linear(0.5)
    e = RandomStream(41).exponential(1_000_000)
    t = model.inv_cum_rate(np.zeros_like(e), e)
    assert abs(t.mean() - oracle) <= 3 * t.std(ddof=1) / np.sqrt(t.size)


# ---------------------------------------------------------------------------
# storage and nondecreasing-rate models
# ---------------------------------------------------------------------------

def test_storage_flow_and_bound():
    model = make_storage(StorageParams(1.0, exponential_increment(1.0)))
    assert float(model.flow(1.0, np.log(2.0))) == pytest.approx(0.5, rel=1e-15)


@pytest.mark.parametrize("lambda_star,slope", [(1.0, 1.0), (2.0, 1.0), (0.5, 3.0)])
def test_affine_closed_forms_match_exact_oracles(lambda_star, slope):
    # with c = lambda_star + slope*x the rate integral is c t + slope t^2/2,
    # its inverse (sqrt(c^2 + 2 slope u) - c)/slope and h the integral of
    # exp(-c s - slope s^2/2) over s > 0
    model = make_affine_rate_tcp(lambda_star, slope, 0.5)
    x = np.linspace(0.0, 20.0, 77)
    t = np.linspace(0.1, 5.0, 77)
    c = lambda_star + slope * x
    np.testing.assert_allclose(model.cum_rate(x, t), c * t + 0.5 * slope * t * t,
                               rtol=1e-13, atol=0)
    u = np.linspace(0.0, 30.0, 77)
    with localcontext() as ctx:
        ctx.prec = 40
        exact = [float(((Decimal(ci) ** 2 + 2 * Decimal(slope) * Decimal(ui)).sqrt()
                        - Decimal(ci)) / Decimal(slope))
                 for ci, ui in zip(c.tolist(), u.tolist())]
    np.testing.assert_allclose(model.inv_cum_rate(x, u), exact, rtol=1e-12, atol=0)
    for xv in (0.0, 0.5, 2.0, 10.0):
        cv = lambda_star + slope * xv
        oracle, _ = integrate.quad(lambda s: math.exp(-cv * s - 0.5 * slope * s * s),
                                   0.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=200)
        assert float(model.h_form(xv)) == pytest.approx(oracle, rel=1e-12, abs=0)


def test_chart_values_never_depend_on_the_batch():
    # the ensemble engine hands the chart the live paths of one chunk: a
    # point must get the same value alone, in a slice or in the whole batch
    chart = psi_chart()
    y = np.random.default_rng(5).uniform(0.0, 20.0, 1001)
    for f in (chart.psi, chart.psi_inv):
        whole = f(y)
        sliced = np.concatenate([f(y[i:i + 7]) for i in range(0, y.size, 7)])
        assert np.array_equal(sliced, whole)
        assert np.array_equal(f(y[::-1]), whole[::-1])
        assert all(f(y[i:i + 1])[0] == whole[i] for i in range(0, y.size, 97))


# ---------------------------------------------------------------------------
# the Gauss-Legendre rule of the certificates and the adaptive quadrature
# built on it
# ---------------------------------------------------------------------------

def test_rule_is_the_scipy_16_point_rule_to_the_bit():
    nodes, weights = special.roots_legendre(16)
    assert np.array_equal(certificates._GL_X, nodes)
    assert np.array_equal(certificates._GL_W, weights)


@pytest.mark.parametrize("fn, a, b", [
    (lambda x: math.exp(-x), 0.0, np.inf),
    (lambda x: math.exp(-0.5 * x * x), 0.0, np.inf),
    (lambda x: math.exp(-0.5 * x * x), -1.0, 2.5),
    (lambda x: math.exp(-x), 7.0, np.inf),
    (lambda x: 1.0 / (1.0 + x * x), 0.0, np.inf),
    (lambda x: math.exp(0.5 * x * x), 0.5, 27.0),
    (math.sqrt, 0.0, 2.0),
], ids=["exp", "half_gauss", "gauss_window", "exp_tail", "cauchy", "steep", "sqrt"])
def test_quad_matches_scipy(fn, a, b):
    ref, _ = integrate.quad(fn, a, b, epsabs=0.0, epsrel=1e-13, limit=500)
    assert certificates.quad(fn, a, b, 1e-12) == pytest.approx(ref, rel=1e-11, abs=0)


@pytest.mark.parametrize("p", [0.5, 0.9])
def test_quad_on_an_integrable_end_singularity(p):
    # the end panel's error shrinks by 2^-(1-p) a bisection, and the halving
    # estimate undercounts the remaining error by about 1/(2^(1-p) - 1)
    got = certificates.quad(lambda x: x ** -p, 0.0, 1.0, 1e-11)
    assert abs(got * (1.0 - p) - 1.0) <= 1.5e-11 / (2.0 ** (1.0 - p) - 1.0)


@pytest.mark.parametrize("fn, a, exact", [
    (lambda x: 1e-9 * math.exp(-1e-9 * x), 0.0, 1.0),
    (lambda x: 1e-12 * math.exp(-1e-12 * x), 1e12, math.exp(-1.0)),
    (lambda x: x ** -3, 1e6, 5e-13),
], ids=["exp", "exp_tail", "power_tail"])
def test_quad_on_a_far_tail(fn, a, exact):
    # the tail map x = a + (1-t)/t keeps t exact where the mass sits; under
    # x = a + t/(1-t) the mass would sit within 1e-9 of t = 1
    assert certificates.quad(fn, a, np.inf, 1e-11) == pytest.approx(exact, rel=1e-11, abs=0)


def test_quad_raises_on_a_divergent_integral():
    # scipy's quad only warns here and returns a number
    with pytest.raises(ValueError, match="did not converge"):
        certificates.quad(lambda x: 1.0 / x, 0.0, 1.0, 1e-11)


# ---------------------------------------------------------------------------
# flattening chart and twisted model
# ---------------------------------------------------------------------------

def test_chart_basics():
    chart = psi_chart()
    assert chart.psi(0.0) == 0.0
    xs = np.linspace(0.0, 50.0, 2001)
    vals = chart.psi(xs)
    assert np.all(np.diff(vals) > 0)
    assert np.max(np.abs(chart.psi_inv(vals) - xs)) <= 1e-9


@pytest.mark.parametrize("x", np.concatenate([np.geomspace(1e-12, 1.0, 8),
                                               np.linspace(2.0, 60.0, 12)]).tolist())
def test_chart_matches_quadrature_oracle(x):
    # oracle: integral of weight^{-1/2} from 0 to x
    oracle, _ = integrate.quad(lambda y: 1.0 / math.sqrt(-math.expm1(-y)), 0.0, x,
                               epsabs=0.0, epsrel=2e-14, limit=200)
    assert psi_chart().psi(x) == pytest.approx(oracle, rel=1e-13, abs=0)


def test_chart_minus_identity_rises_to_log_four():
    # psi(x) - x = 2 log(1 + sqrt(1 - e^-x)) increases to the integral of
    # weight^{-1/2} - 1 over the half-line, which is log 4
    x = np.geomspace(1e-3, 1e3, 200)
    gap = psi_chart().psi(x) - x
    assert np.all(np.diff(gap) >= -4.0 * np.spacing(x[1:]))
    assert np.all(gap <= math.log(4.0) + 2.0 * np.spacing(x))
    assert abs(gap[-1] - math.log(4.0)) <= 2.0 * np.spacing(x[-1])


def test_chart_slope_is_weight_to_the_minus_half():
    chart = psi_chart()
    x = np.geomspace(1e-2, 40.0, 300)
    h = 1e-5 * x
    slope = (chart.psi(x + h) - chart.psi(x - h)) / (2.0 * h)
    np.testing.assert_allclose(slope, 1.0 / np.sqrt(linear_weight(x)), rtol=1e-8, atol=0)


def test_chart_monotone_and_continuous_across_the_inverse_switch():
    # psi_inv changes formula at PsiChart._SWITCH; neither the inverse nor
    # the chart near its image may step back or jump there
    chart = psi_chart()
    s = PsiChart._SWITCH
    z = s + np.arange(-2000, 2000) * np.spacing(s)
    x = chart.psi_inv(z)
    assert np.all(np.diff(x) >= 0.0)
    assert chart.psi_inv(s) - chart.psi_inv(np.nextafter(s, 0.0)) <= 2.0 * np.spacing(x[2000])
    xs = x[2000] + np.arange(-2000, 2000) * np.spacing(x[2000])
    assert np.all(np.diff(chart.psi(xs)) > 0.0)
    assert np.all(np.abs(chart.psi(x) - z) <= 2.0 * np.spacing(z))


def test_chart_rejects_negative_input():
    chart = psi_chart()
    with pytest.raises(ValueError, match="nonnegative"):
        chart.psi(np.array([1.0, -1e-300]))
    with pytest.raises(ValueError, match="nonnegative"):
        chart.psi_inv(-1.0)


def test_twisted_jump_gradient_subcommutation():
    # |d/dz of the twisted jump of g| <= sqrt(delta) * |g'(jump)| for g(z)=z
    delta = 0.5
    model = make_twisted_tcp_linear(delta)
    chart = psi_chart()
    z = chart.psi(np.linspace(0.05, 25.0, 400))
    h = 1e-5
    slope = (model.jump(z + h, None) - model.jump(z - h, None)) / (2 * h)
    assert np.all(np.abs(slope) <= np.sqrt(delta) + 1e-5)


def test_twisted_rate_and_flow():
    model = make_twisted_tcp_linear(0.5)
    chart = psi_chart()
    z = chart.psi(3.0)
    assert float(model.rate(z)) == pytest.approx(3.0, rel=1e-11)
    assert float(model.flow(z, 2.0)) == pytest.approx(float(chart.psi(5.0)), rel=1e-11)


def test_chart_inverse_converges_on_dense_sweep():
    # z near 0, across the inverse's switch point and far out
    chart = psi_chart()
    s = PsiChart._SWITCH
    near_switch = s + np.arange(-200, 200) * np.spacing(s)
    z = np.concatenate([np.geomspace(1e-300, 1e-2, 400), np.linspace(0.0, 80.0, 20001),
                        near_switch, np.geomspace(80.0, 1e6, 200)])
    back = chart.psi(chart.psi_inv(z))
    assert np.all(np.abs(back - z) <= 1e-12 * np.maximum(1.0, z))
    x = np.concatenate([np.geomspace(1e-300, 1e-2, 400), np.linspace(0.0, 80.0, 20001),
                        chart.psi_inv(near_switch), np.geomspace(80.0, 1e6, 200)])
    assert np.all(np.abs(chart.psi_inv(chart.psi(x)) - x) <= 1e-12 * np.maximum(1.0, x))


def test_twisted_native_route_matches_chart_coordinates():
    # the experiments run the base natively and map its states through the
    # chart; the image's own callables take chart coordinates throughout
    model = make_twisted_tcp_linear(0.5)
    run, to_model, start = _native(model)
    assert run.name == "tcp_linear" and _native(dataclasses.replace(model, name="copy"))[0] is run
    x0 = np.linspace(0.0, 8.0, 500)
    z0 = to_model(x0)

    def same(native, image):
        np.testing.assert_allclose(native, image, rtol=1e-12, atol=0)

    same(to_model(simulate_ensemble(run, x0, 2.5, RandomStream(5))),
         simulate_ensemble(model, z0, 2.5, RandomStream(5)))
    same(to_model(ensemble_states_at(run, x0, [0.5, 1.0, 3.0], RandomStream(6))),
         ensemble_states_at(model, z0, [0.5, 1.0, 3.0], RandomStream(6)))
    same(to_model(chain_sample_matrix(run, 3000, burn_in=0, stream=RandomStream(7),
                                      x0=start, n_chains=300)),
         chain_sample_matrix(model, 3000, burn_in=0, stream=RandomStream(7), n_chains=300))
    hv, pushed = reweight_and_push(run, x0, RandomStream(8))
    hz, pushed_z = reweight_and_push(model, z0, RandomStream(8))
    same(hv, hz)
    same(to_model(pushed), pushed_z)
