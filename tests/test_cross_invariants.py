"""Cross-module invariants: every shipped certificate dominates the
empirical entropy/energy ratio of its reconstructed invariant law."""

import numpy as np

from pdmp_ergo.certificates import (certify_tcp_constant,
                                    certify_tcp_increasing, certify_tcp_linear)
from pdmp_ergo.embedded import chain_invariant_sample, h_function, reconstruct_mu
from pdmp_ergo.estimators import default_family, inequality_details
from pdmp_ergo.models import (TcpConstantParams, linear_weight,
                              make_affine_rate_tcp, make_tcp_constant,
                              make_tcp_linear, make_twisted_tcp_linear)
from pdmp_ergo.rng import RandomStream


def reconstructed(model, n, seed):
    chain = chain_invariant_sample(model, n, stream=RandomStream(seed))
    return reconstruct_mu(model, chain, RandomStream(seed + 1))


def worst_ratio(mu, weight, p):
    details = inequality_details(mu, default_family(), weight, p)
    return max(details, key=lambda d: d["ratio"])


def test_constant_certificate_dominates_ratio():
    model = make_tcp_constant(TcpConstantParams(rate=1.0, delta=0.5))
    mu = reconstructed(model, 100_000, 601)
    cert = certify_tcp_constant(1.0, 0.5)
    d = worst_ratio(mu, None, 2.0)
    assert d["ratio"] <= cert.poincare_c + 3 * d["std_error"]


def test_linear_certificate_dominates_weighted_ratio():
    model = make_tcp_linear(0.5)
    mu = reconstructed(model, 100_000, 603)
    cert = certify_tcp_linear(0.5)
    d = worst_ratio(mu, linear_weight, 1.0)
    assert d["ratio"] <= cert.weighted_logsob_c + 3 * d["std_error"]


def test_increasing_certificate_dominates_ratio():
    model = make_affine_rate_tcp(1.0, 1.0, 0.5)
    mu = reconstructed(model, 50_000, 605)
    cert = certify_tcp_increasing(1.0, 0.5, 1.0, h_at=lambda x: h_function(model, x))
    d = worst_ratio(mu, None, 2.0)
    assert d["ratio"] <= cert.poincare_c + 3 * d["std_error"]


def test_twisted_certificate_dominates_flat_ratio():
    model = make_twisted_tcp_linear(0.5)
    mu = reconstructed(model, 4000, 607)
    cert = certify_tcp_linear(0.5)
    d = worst_ratio(mu, None, 1.0)
    assert d["ratio"] <= cert.weighted_logsob_c + 3 * d["std_error"]


def test_twisted_law_is_image_of_base_law():
    # two routes to the invariant law of the image process: push the base
    # reconstruction through the chart, or reconstruct the image process
    from pdmp_ergo.models import psi_chart
    chart = psi_chart()
    base_mu = reconstructed(make_tcp_linear(0.5), 50_000, 609)
    twisted_mu = reconstructed(make_twisted_tcp_linear(0.5), 4000, 611)
    pushed_mean = base_mu.expectation(chart.psi)
    direct_mean = twisted_mu.mean()
    tol = 4 * np.hypot(base_mu.mean_std_error(), twisted_mu.mean_std_error()) + 0.02
    assert abs(pushed_mean - direct_mean) <= tol
