import math
from dataclasses import replace
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from pdmp_ergo.embedded import (_CSV_BLOCK, EmpiricalMeasure, _csv_rows,
                                chain_invariant_sample,
                                chain_sample_matrix, chain_step, h_function,
                                kernel_K_sample, kernel_Ktilde_sample, reconstruct_mu,
                                reweight_and_push, time_average_states)
from pdmp_ergo.estimators import column_ratio
from pdmp_ergo.models import (TcpConstantParams, linear_ktilde_times, make_tcp_constant,
                              make_tcp_linear)
from pdmp_ergo.rng import RandomStream


def constant_model(rate=1.0, delta=0.5):
    return make_tcp_constant(TcpConstantParams(rate=rate, delta=delta))


def linear_model(delta=0.5):
    return make_tcp_linear(delta)


# ---------------------------------------------------------------------------
# EmpiricalMeasure
# ---------------------------------------------------------------------------

def test_measure_invariants():
    m = EmpiricalMeasure.from_samples([3.0, 1.0, 2.0], provenance="atoms")
    assert np.all(np.diff(m.values) >= 0)
    assert m.weights.sum() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        EmpiricalMeasure(np.array([2.0, 1.0]), np.array([0.5, 0.5]), "atoms")
    with pytest.raises(ValueError):
        EmpiricalMeasure(np.array([1.0, 2.0]), np.array([0.5, 0.4]), "atoms")


def test_measure_csv_roundtrip(tmp_path):
    m = EmpiricalMeasure.from_samples(
        np.exp(RandomStream(1).normal(257)), provenance="chain")
    path = tmp_path / "measure.csv"
    m.to_csv(path)
    back = EmpiricalMeasure.read_csv(path, "chain")
    assert np.array_equal(back.values, m.values)
    assert np.allclose(back.weights, m.weights, atol=1e-15)
    header = path.read_text().splitlines()[0]
    assert header == "value,weight"


@pytest.mark.parametrize("n", [1, _CSV_BLOCK, 2 * _CSV_BLOCK + 1])
def test_measure_csv_matches_row_by_row_text(tmp_path, n):
    rng = np.random.default_rng(n)
    values = np.exp(30.0 * rng.normal(size=n))
    values[0] = 0.0
    m = EmpiricalMeasure.from_samples(values, rng.random(n) + 0.01, provenance="reweighted")
    path = tmp_path / "measure.csv"
    m.to_csv(path)
    rows = "".join(f"{v:.17g},{w:.17g}\n" for v, w in zip(m.values, m.weights))
    assert path.read_text(encoding="utf-8") == "value,weight\n" + rows


def assert_csv_text(values):
    # each value in both columns, against a different partner in each
    v = np.asarray(values, dtype=float).ravel()
    rows = np.column_stack((v, v[::-1]))
    text = "".join("%.17g,%.17g\n" % (a, b) for a, b in rows.tolist()).encode()
    assert _csv_rows(rows) == text


def test_csv_text_rounds_dyadic_ties_half_to_even():
    # m / 2**j with m odd (and below 2**53, so the quotient is exact) has
    # the digits of m * 5**j, the last a 5: 18 of them make a tie at 17
    ties = [26215 / 2 ** 18]
    for j in range(2, 26):
        first = -(-10 ** 17 // 5 ** j) | 1
        last = (min(-(-10 ** 18 // 5 ** j), 2 ** 53) - 2) | 1
        ties += [m / 2 ** j for m in {first, first + 2, first + 4, last - 2, last}
                 if first <= m <= last]
    for v in ties:
        digits = Decimal(v).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5
    assert "%.17g" % ties[0] == "0.10000228881835938"
    assert_csv_text(ties)
    assert_csv_text(-np.array(ties))


def test_csv_text_at_powers_of_ten_and_their_neighbours():
    powers = 10.0 ** np.arange(-10, 21)
    assert_csv_text(np.concatenate([np.nextafter(powers, 0.0), powers,
                                    np.nextafter(powers, np.inf)]))
    assert "%.17g" % 1e-6 == "9.9999999999999995e-07"


def test_csv_text_at_the_edges_of_the_exact_range():
    # the integer route covers decimal exponents -9 to 16; one step past
    # each edge goes through "%.17g" itself.  Below 1e-6 (exponent -7) the
    # power of ten is no longer a double
    low, high = 1e-9, np.nextafter(1e17, 0.0)
    edges = [low, np.nextafter(low, 0.0), np.nextafter(1e-6, np.inf), 1e-6,
             np.nextafter(1e-5, 0.0), 1e-5,
             high, np.nextafter(high, np.inf), 1e16, np.nextafter(1e16, 0.0)]
    assert ["%.17g" % v for v in edges[:4]] == ["1.0000000000000001e-09", "9.9999999999999986e-10",
                                                 "1.0000000000000002e-06", "9.9999999999999995e-07"]
    assert ["%.17g" % v for v in edges[6:8]] == ["99999999999999984", "1e+17"]
    assert_csv_text(edges)
    assert_csv_text(-np.array(edges))


def test_csv_text_next_to_an_integer_or_a_tie_below_1e_minus_6():
    # v = m * 2**(e - 52) times 10**k has the fractional part
    # (m * 5**k mod 2**s) / 2**s with s = 52 - e - k: solve for m to put it
    # within a few 2**-s of 0, 1/2 and 1, where the rounded tail of 10**k
    # would pick the wrong digits
    hard = []
    for e in range(-30, -22):
        for k in (23, 24, 25):
            s = 52 - e - k
            for target in [d % 2 ** s for d in range(-8, 9)] + [2 ** (s - 1) + d for d in range(-8, 9)]:
                m = target * pow(5 ** k, -1, 2 ** s) % 2 ** s
                m += -(-(2 ** 52 - m) // 2 ** s) * 2 ** s if m < 2 ** 52 else 0
                v = math.ldexp(m, e - 52)
                if m < 2 ** 53 and 10 ** 16 <= Decimal(v) * 10 ** k < 10 ** 17:
                    hard.append(v)
    assert len(hard) > 100
    assert_csv_text(hard)
    assert_csv_text(-np.array(hard))


def test_csv_text_of_zeros_subnormals_and_non_finite_values():
    assert_csv_text([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, np.inf,
                     -np.inf, np.nan, -1.5, -0.1, -123456.789, -1e300, 1.7976931348623157e308])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False)
                | st.floats(-1e18, 1e18), min_size=1, max_size=64))
def test_csv_text_matches_percent_format(values):
    assert_csv_text(values)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def test_pre_jump_kernel_constant_rate_is_shifted_exponential():
    model = constant_model()
    x = np.full(1_000_000, 2.0)
    out = kernel_K_sample(model, x, RandomStream(5))
    assert np.all(out > 2.0)  # stochastic domination for increasing flow
    se = out.std(ddof=1) / np.sqrt(out.size)
    assert abs(out.mean() - 3.0) <= 3 * se


def test_pre_jump_kernel_linear_origin_mean():
    oracle, _ = integrate.quad(lambda t: t * t * np.exp(-0.5 * t * t), 0, np.inf)
    out = kernel_K_sample(linear_model(), np.zeros(1_000_000), RandomStream(6))
    se = out.std(ddof=1) / np.sqrt(out.size)
    assert abs(out.mean() - oracle) <= 3 * se


def test_length_biased_kernel_constant_rate():
    model = constant_model(rate=2.0)
    out = kernel_Ktilde_sample(model, np.zeros(500_000), RandomStream(7))
    se = out.std(ddof=1) / np.sqrt(out.size)
    assert abs(out.mean() - 0.5) <= 3 * se
    # distributional agreement with a direct exponential sampler at the 1% level
    direct = RandomStream(8).exponential(100_000) / 2.0
    stat = stats.ks_2samp(out[:100_000], direct).statistic
    assert stat < 1.6276 * np.sqrt(2.0 / 100_000)


def test_length_biased_kernel_linear_origin_is_half_normal():
    out = kernel_Ktilde_sample(linear_model(), np.zeros(1_000_000), RandomStream(9))
    se = out.std(ddof=1) / np.sqrt(out.size)
    assert abs(out.mean() - np.sqrt(2.0 / np.pi)) <= 3 * se
    stat = stats.kstest(out[:200_000], lambda t: special.erf(t / np.sqrt(2.0))).statistic
    assert stat < 1.6276 / np.sqrt(200_000)


def _acceptance(x):
    """Acceptance probability of the hybrid proposal of linear_ktilde_times."""
    h = np.sqrt(np.pi / 2.0) * special.erfcx(x / np.sqrt(2.0))
    return np.where(x < 1.0, np.sqrt(2.0 / np.pi) * h, x * h)


class CountingStream:
    """Hands draws through and counts the proposals (one normal each)."""

    def __init__(self, stream):
        self.stream = stream
        self.proposals = 0

    def normal(self, n):
        self.proposals += n
        return self.stream.normal(n)

    def exponential(self, n):
        return self.stream.exponential(n)

    def uniform(self, n):
        return self.stream.uniform(n)


def test_length_biased_rejection_acceptance_rate():
    # analytic acceptance of the hybrid proposal stays above one half
    x = np.linspace(0.0, 50.0, 501)
    assert np.all(_acceptance(x) >= 0.5 - 1e-12)
    # and the sampler accepts at that rate: n samples took n / acc
    # proposals in expectation, a sum of n geometric counts
    n = 20_000
    for i, x0 in enumerate([0.0, 0.5, 0.99, 1.0, 2.0, 10.0, 50.0]):
        stream = CountingStream(RandomStream(61).substream(i))
        linear_ktilde_times(np.full(n, x0), stream)
        acc, p = n / stream.proposals, _acceptance(x0)
        se = p * np.sqrt((1.0 - p) / n)
        assert acc >= 0.5
        # at x = 0 every proposal is accepted; allow the formula's rounding
        assert abs(acc - p) <= 4.0 * se + 1e-12, (x0, acc, p, se)


# ---------------------------------------------------------------------------
# chain
# ---------------------------------------------------------------------------

def test_chain_step_identities_per_draw():
    # the step reuses the draws of the stream, so replaying the stream
    # reproduces the closed-form update exactly
    model = constant_model()
    node_a = RandomStream(3).substream(1)
    node_b = RandomStream(3).substream(1)
    x = np.array([0.7, 1.3, 4.0])
    stepped = chain_step(model, x, node_a)
    e = node_b.exponential(3)
    assert np.array_equal(stepped, 0.5 * (x + e))

    lin = linear_model()
    node_a = RandomStream(4).substream(2)
    node_b = RandomStream(4).substream(2)
    stepped = chain_step(lin, x, node_a)
    e = node_b.exponential(3)
    assert np.allclose(stepped, 0.5 * np.sqrt(x * x + 2 * e), rtol=1e-14)


def test_chain_step_full_collapse():
    model = constant_model(delta=0.0)
    out = chain_step(model, np.linspace(0, 5, 11), RandomStream(1))
    assert np.all(out == 0.0)


def test_single_sample_chain():
    m = chain_invariant_sample(constant_model(), 1, burn_in=0, stream=RandomStream(2))
    assert m.size == 1 and m.provenance == "chain"


def test_constant_chain_mean():
    m = chain_invariant_sample(constant_model(), 100_000, stream=RandomStream(12))
    assert abs(m.mean() - 1.0) <= 0.02


def test_linear_chain_second_moment_identity():
    m = chain_invariant_sample(linear_model(), 100_000, stream=RandomStream(13))
    assert abs(0.75 * m.moment(2) - 0.5) <= 0.02 * 0.5 * 5  # 10% at this n; 2% at 1e6 in acceptance


# ---------------------------------------------------------------------------
# the mean residual normaliser
# ---------------------------------------------------------------------------

def test_h_constant_rate():
    assert h_function(constant_model(rate=2.0), 1.7) == pytest.approx(0.5, abs=0)


def test_h_linear_origin_matches_quadrature():
    oracle, _ = integrate.quad(lambda t: np.exp(-0.5 * t * t), 0, np.inf)
    assert h_function(linear_model(), 0.0) == pytest.approx(oracle, rel=1e-12)


def test_h_nonincreasing_for_nondecreasing_rates():
    model = linear_model()
    xs = np.linspace(0.0, 30.0, 301)
    hv = model.h_form(xs)
    assert np.all(np.diff(hv) <= 0)


def test_h_divergence_detected():
    # a divergent, undefined or vanishing normaliser at a single atom stops
    # the reconstruction before any weight is formed
    model = linear_model()
    xs = np.linspace(0.0, 5.0, 11)
    for bad in (np.inf, np.nan, 0.0):
        def h_form(x, bad=bad):
            out = np.array(model.h_form(x), dtype=float)
            out[3] = bad
            return out

        with pytest.raises(ValueError, match="positive and finite"):
            reweight_and_push(replace(model, h_form=h_form), xs, RandomStream(0))


# ---------------------------------------------------------------------------
# reconstruction of the process law
# ---------------------------------------------------------------------------

def test_reconstruct_requires_chain_tag():
    for tag in ("reweighted", "ensemble", "atoms"):
        m = EmpiricalMeasure.from_samples([1.0, 2.0], provenance=tag)
        with pytest.raises(ValueError):
            reconstruct_mu(constant_model(), m, RandomStream(0))


def test_reconstruct_constant_rate_weights_unchanged():
    model = constant_model()
    chain = chain_invariant_sample(model, 20_000, stream=RandomStream(21))
    mu = reconstruct_mu(model, chain, RandomStream(22))
    assert mu.provenance == "reweighted"
    assert abs(mu.weights.sum() - 1.0) <= 1e-12
    assert np.allclose(mu.weights, np.full(mu.size, 1.0 / mu.size), atol=1e-15)


def test_two_estimator_consistency_constant_rate():
    model = constant_model()
    matrix = chain_sample_matrix(model, 200_000, stream=RandomStream(30))
    flat = matrix.ravel()
    pushed = kernel_Ktilde_sample(model, flat, RandomStream(31))
    cols = pushed.reshape(matrix.shape)
    col_means = cols.mean(axis=0)
    rec_mean = col_means.mean()
    rec_se = col_means.std(ddof=1) / np.sqrt(col_means.size)

    ta = time_average_states(model, 1.0, 20.0, 120.0, 256, 64, RandomStream(32))
    ta_means = ta.mean(axis=1)
    ta_mean = ta_means.mean()
    ta_se = ta_means.std(ddof=1) / np.sqrt(ta_means.size)

    assert abs(rec_mean - ta_mean) <= 3 * np.hypot(rec_se, ta_se)
    # generator identity for the stationary mean
    assert abs(rec_mean - 2.0) <= 4 * rec_se


def test_normaliser_constant_rate_exact():
    model = constant_model(rate=2.0)
    matrix = chain_sample_matrix(model, 5000, stream=RandomStream(40))
    est = column_ratio(h_function(model, matrix), 1.0)
    assert est.value == pytest.approx(0.5, rel=1e-12)
    assert est.std_error == 0.0


def test_normaliser_linear_rate_bootstrap():
    model = linear_model()
    matrix = chain_sample_matrix(model, 50_000, stream=RandomStream(42))
    est = column_ratio(h_function(model, matrix), 1.0)
    # mean of a positive decreasing function bounded by its value at zero
    assert 0.0 < est.value < np.sqrt(np.pi / 2.0)
    assert 0.0 < est.std_error < 0.01


def test_normaliser_error_is_honest_for_correlated_chains():
    # delta = 0.9 makes consecutive chain states strongly correlated, so an
    # error that treats the atoms as independent is about 3x too small
    model = linear_model(delta=0.9)
    ests = [column_ratio(h_function(model, chain_sample_matrix(
        model, 64 * 64, burn_in=200, stream=RandomStream(seed), n_chains=64)), 1.0)
        for seed in range(60)]
    spread = np.std([e.value for e in ests], ddof=1)
    assert 1.0 / 1.5 <= spread / np.median([e.std_error for e in ests]) <= 1.5


def tcp_linear_moments(delta):
    """Exact E X and E X^2 under the invariant law of the linear-rate process."""
    mean = math.sqrt(2.0 / math.pi) * math.prod(
        (1.0 - delta ** (2 * n)) / (1.0 - delta ** (2 * n - 1)) for n in range(1, 200))
    return mean, 1.0 / (1.0 - delta)


def test_reconstructed_moments_are_unbiased_over_many_short_chains():
    # 4 slots per chain: a mean of per-chain ratios carries a bias of
    # order 1/4 that more chains do not remove; the pooled ratio does not
    model = linear_model(delta=0.5)
    z = []
    for seed in range(60):
        stream = RandomStream(seed)
        matrix = chain_sample_matrix(model, 1024 * 4, burn_in=200, stream=stream.substream(1))
        hv, pushed = reweight_and_push(model, matrix.ravel(), stream.substream(2))
        hw, pw = hv.reshape(matrix.shape), pushed.reshape(matrix.shape)
        z.append([(est.value - exact) / est.std_error for est, exact in zip(
            (column_ratio(hw * pw, hw), column_ratio(hw * pw ** 2, hw)),
            tcp_linear_moments(0.5))])
    z = np.array(z)
    assert np.all(np.abs(z.mean(axis=0)) <= 3.0 * z.std(axis=0, ddof=1) / np.sqrt(len(z)))


def test_two_estimator_consistency_linear_rate():
    model = linear_model()
    matrix = chain_sample_matrix(model, 200_000, stream=RandomStream(33))
    flat = matrix.ravel()
    hv = model.h_form(flat).reshape(matrix.shape)
    pushed = kernel_Ktilde_sample(model, flat, RandomStream(34)).reshape(matrix.shape)
    col_means = (hv * pushed).sum(axis=0) / hv.sum(axis=0)
    rec_mean = col_means.mean()
    rec_se = col_means.std(ddof=1) / np.sqrt(col_means.size)

    ta = time_average_states(model, 1.0, 20.0, 120.0, 256, 64, RandomStream(35))
    ta_means = ta.mean(axis=1)
    ta_se = ta_means.std(ddof=1) / np.sqrt(ta_means.size)
    assert abs(rec_mean - ta_means.mean()) <= 3 * np.hypot(rec_se, ta_se)
