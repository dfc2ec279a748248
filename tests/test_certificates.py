import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize

from pdmp_ergo.certificates import (BalanceSpec, ConfiningProfile, balance_eta,
                                    balance_spec_storage,
                                    balance_spec_tcp_constant,
                                    balance_spec_tcp_linear,
                                    certify_tcp_constant,
                                    certify_tcp_increasing, certify_tcp_linear,
                                    confining_compose, confining_fixed_point,
                                    generalized_poincare_alpha,
                                    minimize_bounded, muckenhoupt_bound,
                                    perturb_logsob,
                                    perturb_logsob_grid, perturb_poincare,
                                    push_through, tcp_linear_balance_envelope,
                                    theta_constant)
from pdmp_ergo.embedded import chain_invariant_sample
from pdmp_ergo.models import linear_h, make_tcp_linear
from pdmp_ergo.rng import RandomStream


# ---------------------------------------------------------------------------
# balance condition
# ---------------------------------------------------------------------------

def test_balance_constant_rate_example():
    assert balance_eta(balance_spec_tcp_constant(1.0, 0.25)) == pytest.approx(0.75, abs=1e-12)


def test_balance_storage_example():
    assert balance_eta(balance_spec_storage(1.0)) == pytest.approx(2.0, abs=1e-12)


def test_balance_requires_constant_rate_without_beta():
    with pytest.raises(ValueError):
        balance_eta(balance_spec_tcp_linear(0.5))


def test_balance_rejects_vanishing_rate_with_beta():
    spec = balance_spec_tcp_linear(0.5)
    grid = np.concatenate([[0.0], spec.grid])
    with pytest.raises(ValueError):
        balance_eta(BalanceSpec(
            spec.drift_jacobian, spec.rate, spec.rate_deriv,
            spec.jump_gradient_bound, spec.weight, spec.weight_deriv,
            spec.drift, grid), beta=2.0)


def test_linear_envelope_matches_closed_form():
    theta = theta_constant()
    for delta, beta in [(0.5, 2.0), (0.2, 5.0), (0.8, 10.0)]:
        closed = (1.0 - delta) * theta - 1.0 / beta
        assert abs(tcp_linear_balance_envelope(delta, beta) - closed) <= 1e-6


def test_raw_linear_balance_dominates_envelope():
    for delta in (0.2, 0.5, 0.8):
        for beta in (2.0, 8.0):
            raw = balance_eta(balance_spec_tcp_linear(delta), beta=beta)
            assert raw >= tcp_linear_balance_envelope(delta, beta) - 1e-12


# ---------------------------------------------------------------------------
# the contraction minimum constant
# ---------------------------------------------------------------------------

def test_theta_value():
    assert theta_constant() == pytest.approx(1.5804, abs=1e-4)


def test_theta_matches_golden_section_oracle():
    g = lambda x: 1.0 / math.expm1(x) + x
    res = optimize.minimize_scalar(g, bounds=(1e-9, 20.0), method="bounded",
                                   options={"xatol": 1e-13})
    assert abs(res.fun - theta_constant()) <= 1e-9


def test_theta_argmin_is_interior_minimum():
    x_star = math.log((3.0 + math.sqrt(5.0)) / 2.0)
    g = lambda x: 1.0 / math.expm1(x) + x
    h = 1e-4
    second = (g(x_star + h) - 2 * g(x_star) + g(x_star - h)) / h ** 2
    assert second > 0


# ---------------------------------------------------------------------------
# profile algebra
# ---------------------------------------------------------------------------

def test_compose_example():
    out = confining_compose(ConfiningProfile(4.0, 1.0, 2.0), ConfiningProfile(0.0, 0.25, 2.0))
    assert (out.c, out.gamma, out.p) == (1.0, 0.25, 2.0)


def test_compose_identity_neutral():
    ident = ConfiningProfile(0.0, 1.0, 2.0)
    x = ConfiningProfile(3.0, 0.5, 2.0)
    assert confining_compose(ident, x) == x
    left = confining_compose(x, ident)
    assert (left.c, left.gamma) == (x.c, x.gamma)


def test_compose_p_mismatch():
    with pytest.raises(ValueError):
        confining_compose(ConfiningProfile(1.0, 0.5, 2.0), ConfiningProfile(1.0, 0.5, 1.0))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.0, 5.0), min_size=6, max_size=6))
def test_compose_associative(vals):
    a = ConfiningProfile(vals[0], vals[1], 2.0)
    b = ConfiningProfile(vals[2], vals[3], 2.0)
    c = ConfiningProfile(vals[4], vals[5], 2.0)
    left = confining_compose(confining_compose(a, b), c)
    right = confining_compose(a, confining_compose(b, c))
    assert abs(left.c - right.c) <= 1e-15 * max(1.0, abs(left.c))
    assert abs(left.gamma - right.gamma) <= 1e-15 * max(1.0, abs(left.gamma))


def test_fixed_point_examples():
    assert confining_fixed_point(ConfiningProfile(1.0, 0.25, 2.0)) == pytest.approx(4.0 / 3.0)
    assert confining_fixed_point(ConfiningProfile(0.0, 0.5, 2.0)) == 0.0
    assert confining_fixed_point(ConfiningProfile(3.0, 0.0, 2.0)) == 3.0
    with pytest.raises(ValueError):
        confining_fixed_point(ConfiningProfile(1.0, 1.0, 2.0))


def test_push_through_examples():
    k = ConfiningProfile(4.0, 1.0, 2.0)
    assert push_through(k, 4.0 / 3.0) == pytest.approx(16.0 / 3.0, rel=1e-15)
    assert push_through(ConfiningProfile(0.0, 0.7, 2.0), 0.0) == 0.0
    assert push_through(ConfiningProfile(2.0, 0.0, 2.0), 123.0) == 2.0


# ---------------------------------------------------------------------------
# the half-line integral criterion
# ---------------------------------------------------------------------------

def test_muckenhoupt_standard_exponential():
    b, lo, hi = muckenhoupt_bound(lambda x: math.exp(-x), math.log(2.0), quad_tol=1e-8)
    assert abs(b - 1.0) <= 1e-6
    assert lo <= 4.0 <= hi + 4e-6  # optimal constant sits at the upper edge


def test_muckenhoupt_rate_two_scaling():
    b, _, _ = muckenhoupt_bound(lambda x: 2.0 * math.exp(-2.0 * x), 0.5 * math.log(2.0),
                                quad_tol=1e-8)
    assert abs(b - 0.25) <= 1e-6


def test_muckenhoupt_half_normal_finite():
    b, lo, hi = muckenhoupt_bound(
        lambda x: math.sqrt(2.0 / math.pi) * math.exp(-0.5 * x * x),
        0.6744897501960817)
    assert np.isfinite(b) and 0 < lo < hi


@pytest.mark.parametrize("fn, lo, hi, at", [
    (lambda x: (x - math.log(2.0)) ** 2 * (1.0 + x), 0.0, 1.0, math.log(2.0)),
    (lambda x: abs(x - 0.3), -2.0, 7.0, 0.3),
    (lambda x: (x - 4.9) ** 2, 4.5, 5.0, 4.9),
])
def test_minimize_bounded_finds_an_interior_minimum(fn, lo, hi, at):
    x, fx = minimize_bounded(fn, lo, hi, 1e-10)
    assert abs(x - at) <= 1e-9 and fx == fn(x)


@pytest.mark.parametrize("at", [6e5, 1e7, 3.3e9])
@pytest.mark.parametrize("shape", [lambda u: u * u, abs], ids=["square", "abs"])
def test_minimize_bounded_stops_where_float_steps_exceed_xatol(at, shape):
    # above about 5e5 adjacent floats lie more than 1e-10 apart, so a bracket
    # cannot shrink to xatol; a budget of calls turns a hang into a failure
    calls = []

    def fn(x):
        calls.append(x)
        assert len(calls) < 1000, "golden-section search does not stop"
        return shape(x - at)

    x, fx = minimize_bounded(fn, at - 3.0, at + 5.0, 1e-10)
    assert abs(x - at) <= 8 * math.ulp(at) and fx == fn(x)


def test_muckenhoupt_median_near_a_million():
    # the exponential law of median 1e6: B = 1/rate^2; the polish runs at
    # points whose float steps exceed its xatol, and a budget of density
    # calls turns a search that does not stop into a failure
    rate = math.log(2.0) / 1e6
    calls = []

    def density(x):
        calls.append(x)
        assert len(calls) < 2_000_000, "muckenhoupt_bound does not stop"
        return rate * math.exp(-rate * x)

    b, _, _ = muckenhoupt_bound(density, 1e6, quad_tol=1e-9 / rate ** 2)
    assert abs(b * rate ** 2 - 1.0) <= 1e-6


def test_muckenhoupt_refuses_a_density_that_underflows():
    # with no growth tolerance the right branch doubles until the density is
    # subnormal and its reciprocal overflows: that counts as vanishing
    with pytest.raises(ValueError, match="density vanished"):
        muckenhoupt_bound(lambda x: math.exp(-x), math.log(2.0), quad_tol=0.0)


@pytest.mark.parametrize("p", [0.5, 0.9, 0.95])
def test_muckenhoupt_density_with_a_power_singularity_at_zero(p):
    # c x^-p on (0, 1], c e^(1-x) beyond: the right branch tends to 1 and wins
    c = (1.0 - p) / (2.0 - p)
    median = (0.5 * (2.0 - p)) ** (1.0 / (1.0 - p))
    b, _, _ = muckenhoupt_bound(lambda x: c * x ** -p if x <= 1.0 else c * math.exp(1.0 - x),
                                median)
    assert abs(b - 1.0) <= 1e-6


# ---------------------------------------------------------------------------
# perturbation formulas
# ---------------------------------------------------------------------------

def test_perturb_poincare():
    assert perturb_poincare(4.0, 2.0) == 64.0
    assert perturb_poincare(3.0, 1.0) == 24.0
    rng = np.random.default_rng(0)
    for _ in range(20):
        c1, r = rng.uniform(0.1, 5.0), rng.uniform(1.0, 4.0)
        assert perturb_poincare(2 * c1, r) == pytest.approx(2 * perturb_poincare(c1, r))
    with pytest.raises(ValueError):
        perturb_poincare(1.0, 0.5)


def test_perturb_logsob_plug_in():
    assert perturb_logsob(1.0, 0.0, 0.5, 1.0, 1.0) == pytest.approx(20.0, rel=1e-15)


def test_perturb_logsob_monotone_in_kappa():
    rng = np.random.default_rng(1)
    for _ in range(20):
        c1 = rng.uniform(0.5, 5.0)
        ratio = rng.uniform(1.0, 3.0)
        nu = rng.uniform(1.0, 4.0)
        k1, k2 = sorted(rng.uniform(0.0, 3.0, 2))
        assert perturb_logsob(c1, k1, 0.5, ratio, nu) <= \
            perturb_logsob(c1, k2, 0.5, ratio, nu) + 1e-12


def test_perturb_logsob_grid_no_worse_than_half():
    nu_fn = lambda eps: math.exp(0.3 * (1.0 / eps - 1.0))
    best, eps = perturb_logsob_grid(2.0, 0.7, 1.5, nu_fn)
    assert best <= perturb_logsob(2.0, 0.7, 0.5, 1.5, nu_fn(0.5)) + 1e-12
    assert 0.0 < eps < 1.0


def test_perturb_logsob_validates_power_mean():
    with pytest.raises(ValueError):
        perturb_logsob(1.0, 1.0, 0.5, 1.5, 0.5)


# ---------------------------------------------------------------------------
# model certificates
# ---------------------------------------------------------------------------

def test_certify_constant_rate_chain():
    cert = certify_tcp_constant(1.0, 0.5)
    assert (cert.chain_profile_c, cert.chain_profile_gamma) == (1.0, 0.25)
    assert cert.chain_poincare_c == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert cert.poincare_c == pytest.approx(16.0 / 3.0, rel=1e-13)
    assert cert.gradient_rate == pytest.approx(0.75, abs=1e-15)


def test_certify_constant_matches_closed_form_randomised():
    rng = np.random.default_rng(3)
    for _ in range(100):
        rate = rng.uniform(0.2, 5.0)
        delta = rng.uniform(0.0, 0.95)
        cert = certify_tcp_constant(rate, delta)
        closed = 4.0 / (rate ** 2 * (1.0 - delta ** 2))
        assert abs(cert.poincare_c - closed) <= 1e-12 * closed


def test_certify_constant_delta_zero_and_divergence():
    assert certify_tcp_constant(2.0, 0.0).poincare_c == pytest.approx(1.0, rel=1e-15)
    deltas = np.linspace(0.5, 0.99999, 50)
    consts = [certify_tcp_constant(1.0, d).poincare_c for d in deltas]
    assert all(b > a for a, b in zip(consts, consts[1:]))
    assert consts[-1] > 1e4


def test_certify_increasing_subvalues():
    h_at = lambda x: integrate.quad(
        lambda t: math.exp(-(1.0 + x) * t - 0.5 * t * t), 0, np.inf)[0]
    cert = certify_tcp_increasing(1.0, 0.5, 0.5, h_at)
    assert cert.beta == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert cert.eta == pytest.approx(0.375, abs=1e-15)
    assert cert.median_bound == pytest.approx(2.0, abs=1e-15)
    assert cert.chain_poincare_c == pytest.approx(4.0 / 3.0, rel=1e-15)
    # frozen from the quadrature value of the normaliser at the median bound
    # (rate 1 + x flowed from the bound 2, so the survival exponent is 3t + t^2/2)
    h2 = h_at(2.0)
    assert h2 == pytest.approx(0.3045902987101037, rel=1e-10)
    expect_cprime = 8.0 * (1.0 / h2) * (4.0 / 3.0)
    assert cert.reweighted_poincare_c == pytest.approx(expect_cprime, rel=1e-12)
    assert cert.poincare_c == pytest.approx(4.0 + expect_cprime, rel=1e-12)
    assert abs(cert.decay_rate * cert.prefactor - cert.eta) <= 1e-12


def test_certify_increasing_rejects_zero_kappa():
    with pytest.raises(ValueError):
        certify_tcp_increasing(1.0, 0.5, 0.0, lambda x: 1.0)


def test_certify_linear_frozen_values():
    cert = certify_tcp_linear(0.5)
    assert cert.chain_logsob_c == pytest.approx(9.65685424949238, rel=1e-12)
    assert cert.g_ratio_bound == pytest.approx(4.732050807568877, rel=1e-12)
    assert cert.kappa_g == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-15)
    assert np.isfinite(cert.entropy_c) and cert.entropy_c > 0
    upper = (1.0 - 0.5) * cert.theta
    assert 0.0 < cert.rate_r < upper
    assert cert.weighted_logsob_c == pytest.approx(cert.perturbed_logsob_c + 4.0, rel=1e-15)


def test_certify_linear_limits():
    rates = [certify_tcp_linear(d).rate_r for d in (0.5, 0.8, 0.95, 0.99)]
    assert all(b < a for a, b in zip(rates, rates[1:]))
    small = certify_tcp_linear(1e-4)
    assert small.chain_logsob_c < 0.05  # bottleneck vanishes with the jump size
    assert np.isfinite(small.entropy_c)


LINEAR_DELTAS = [0.0, 1e-6, 0.5, 0.9, 0.99, 0.999, 0.9995, 0.999999]


@pytest.mark.parametrize("delta", LINEAR_DELTAS)
def test_certify_linear_beta_zeroes_the_exponent_derivative(delta):
    # d/dbeta of (a - 1/beta)/(1 + beta c) times beta^2 (1 + beta c)^2 is
    # 1 + 2 c beta - a c beta^2; evaluated exactly in rationals
    cert = certify_tcp_linear(delta)
    a = Fraction((1.0 - delta) * cert.theta)
    c, b = Fraction(cert.weighted_poincare_c), Fraction(cert.beta_opt)
    terms = (1, 2 * c * b, -a * c * b * b)
    assert abs(sum(terms)) <= 1e-10 * sum(abs(t) for t in terms)


@pytest.mark.parametrize("delta", LINEAR_DELTAS)
def test_certify_linear_rate_beats_a_dense_beta_grid(delta):
    cert = certify_tcp_linear(delta)
    a, c = (1.0 - delta) * cert.theta, cert.weighted_poincare_c
    beta = np.geomspace(1.01 / a, 10.0 * cert.beta_opt, 200_001)
    rates = (a - 1.0 / beta) / (1.0 + beta * c)
    assert rates.max() <= cert.rate_r * (1.0 + 8.0 * np.finfo(float).eps)
    assert cert.rate_r == pytest.approx((a - 1.0 / cert.beta_opt) / (1.0 + cert.beta_opt * c),
                                        rel=4e-16)
    assert 0.0 < cert.rate_r < a


def test_certify_linear_at_zero_delta():
    # the chain law is the point mass at zero: its constant vanishes and the
    # process constant is the length-biased kernel's alone
    cert = certify_tcp_linear(0.0)
    assert cert.chain_logsob_c == 0.0 and cert.perturbed_logsob_c == 0.0
    assert cert.weighted_logsob_c == 4.0
    assert all(math.isfinite(v) for _, v, _ in cert)
    with pytest.raises(ValueError, match="delta"):
        certify_tcp_linear(-1e-300)


def test_certify_linear_names_the_closed_form():
    derivation = {k: d for k, _, d in certify_tcp_linear(0.5)}
    assert derivation["beta_opt"].startswith("closed-form maximiser")
    assert "golden" not in derivation["beta_opt"]


def test_certify_linear_audit_lines():
    cert = certify_tcp_linear(0.5)
    chain = chain_invariant_sample(make_tcp_linear(0.5), 20_000,
                                   stream=RandomStream(3))
    normaliser = chain.expectation(linear_h)
    assert 1.0 / cert.g_ratio_bound <= normaliser <= math.sqrt(math.pi / 2.0)
    assert chain.expectation(lambda x: 1.0 / linear_h(x)) <= cert.g_ratio_bound


def test_generalized_alpha():
    assert generalized_poincare_alpha(0.0) == 0.0
    assert generalized_poincare_alpha(1.0) == 1.0
    assert generalized_poincare_alpha(1.0 / 3.0) == pytest.approx(0.5, rel=1e-15)
    with pytest.raises(ValueError):
        generalized_poincare_alpha(1.5)
