"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line with the measured quantities at the stated tolerance."""

import filecmp
import itertools
import math
import os

import numpy as np
import pytest

from pdmp_ergo.certificates import (ConfiningProfile, certify_tcp_constant,
                                    certify_tcp_linear, confining_compose,
                                    confining_fixed_point, muckenhoupt_bound,
                                    push_through, theta_constant)
from pdmp_ergo.cli import main
from pdmp_ergo.core import gradient_semigroup_estimate, semigroup_estimate, simulate_ensemble
from pdmp_ergo.embedded import (EmpiricalMeasure, chain_invariant_sample,
                                reconstruct_mu)
from pdmp_ergo.estimators import (TestFunction, default_family, energy_W,
                                  entropy_p, fit_decay_rate,
                                  inequality_details, wasserstein_1d)
from pdmp_ergo.experiments import entropy_decay_series
from pdmp_ergo.models import (StorageParams, TcpConstantParams,
                              exponential_increment, linear_weight,
                              make_storage, make_tcp_constant, make_tcp_linear)
from pdmp_ergo.rng import RandomStream

SEED = 20260808
X_FN = TestFunction(lambda x: x, lambda x: np.ones_like(np.asarray(x, dtype=float)), "x")


def conclude(name, ok, detail):
    print(f"{name}: {detail} -> {'PASS' if ok else 'FAIL'}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def constant_model():
    return make_tcp_constant(TcpConstantParams(rate=1.0, delta=0.5))


@pytest.fixture(scope="module")
def linear_model():
    return make_tcp_linear(0.5)


@pytest.fixture(scope="module")
def constant_chain(constant_model):
    return chain_invariant_sample(constant_model, 1_000_000,
                                  stream=RandomStream(SEED).substream(1))


@pytest.fixture(scope="module")
def constant_mu(constant_model, constant_chain):
    return reconstruct_mu(constant_model, constant_chain, RandomStream(SEED).substream(2))


@pytest.fixture(scope="module")
def linear_chain(linear_model):
    return chain_invariant_sample(linear_model, 1_000_000,
                                  stream=RandomStream(SEED).substream(3))


@pytest.fixture(scope="module")
def linear_mu(linear_model, linear_chain):
    return reconstruct_mu(linear_model, linear_chain, RandomStream(SEED).substream(4))


# ---------------------------------------------------------------------------
# 1. certificate algebra exactness
# ---------------------------------------------------------------------------

def test_c1_certificate_algebra():
    cert = certify_tcp_constant(1.0, 0.5)
    chain = confining_compose(ConfiningProfile(4.0, 1.0, 2.0),
                              ConfiningProfile(0.0, 0.25, 2.0))
    step_ok = (chain.c, chain.gamma) == (1.0, 0.25)
    fix = confining_fixed_point(chain)
    fix_ok = abs(fix - 4.0 / 3.0) <= 1e-12
    final = push_through(ConfiningProfile(4.0, 1.0, 2.0), fix)
    final_ok = abs(final - 16.0 / 3.0) <= 1e-12
    cert_ok = (abs(cert.poincare_c - 16.0 / 3.0) <= 1e-12
               and abs(cert.gradient_rate - 0.75) <= 1e-12)
    conclude(
        "C1 certificate algebra", step_ok and fix_ok and final_ok and cert_ok,
        f"chain=({chain.c:g},{chain.gamma:g}) fixed={fix:.15g} "
        f"pushed={final:.15g} poincare_c={cert.poincare_c:.15g} "
        f"gradient_rate={cert.gradient_rate:g}")


# ---------------------------------------------------------------------------
# 2. invariant-moment oracles at one million samples
# ---------------------------------------------------------------------------

def test_c2_invariant_moments(constant_chain, constant_mu, linear_chain):
    chain_mean = constant_chain.mean()
    chain_ok = abs(chain_mean - 1.0) <= 0.02
    # reconstruction adds an independent mean-1/rate excursion on top of the
    # chain state, giving the stationary first moment 1/(rate*(1-delta)) = 2
    rec_mean = constant_mu.mean()
    rec_ok = abs(rec_mean - 2.0) <= 0.04
    y2 = linear_chain.moment(2)
    identity = (1.0 - 0.25) * y2
    lin_ok = abs(identity - 0.5) <= 0.01
    conclude(
        "C2 invariant moments", chain_ok and rec_ok and lin_ok,
        f"chain_mean={chain_mean:.5f} (target 1 +/- 2%) "
        f"reconstructed_mean={rec_mean:.5f} (target 2 +/- 2%) "
        f"(1-d^2)E[Y^2]={identity:.5f} (target 0.5 +/- 2%)")


# ---------------------------------------------------------------------------
# 3. transport-distance decay for the constant-rate model
# ---------------------------------------------------------------------------

def test_c3_wasserstein_decay(constant_model):
    master = RandomStream(SEED).substream(5)
    n = 100_000
    series = []
    for j, t in enumerate(range(0, 7)):
        node = master.substream(j)
        lo = simulate_ensemble(constant_model, np.zeros(n), float(t), node)
        hi = simulate_ensemble(constant_model, np.full(n, 2.0), float(t), node)
        value = wasserstein_1d(1.0,
                               EmpiricalMeasure.from_samples(lo, provenance="ensemble"),
                               EmpiricalMeasure.from_samples(hi, provenance="ensemble"))
        blocks = 20
        blo = np.sort(lo.reshape(blocks, -1), axis=1)
        bhi = np.sort(hi.reshape(blocks, -1), axis=1)
        per_block = np.abs(blo - bhi).mean(axis=1)
        series.append((float(t), value, float(per_block.std(ddof=1) / np.sqrt(blocks))))
    fit = fit_decay_rate(series)
    optimal = 0.5
    certified = 0.375
    near_ok = abs(fit.fitted_rate - optimal) <= 0.1 * optimal
    above_ok = fit.fitted_rate >= certified - 3 * fit.rate_std_error
    conclude(
        "C3 wasserstein decay", near_ok and above_ok,
        f"fitted={fit.fitted_rate:.5f} optimal={optimal} certified>={certified} "
        f"se={fit.rate_std_error:.2g}")


# ---------------------------------------------------------------------------
# 4. storage-model exactness
# ---------------------------------------------------------------------------

def test_c4_storage_exactness():
    model = make_storage(StorageParams(1.0, exponential_increment(1.0)))
    master = RandomStream(SEED).substream(6)
    coupling_ok = True
    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        est = gradient_semigroup_estimate(model, lambda x: x, 1.0, t, 256, master)
        err = abs(est.value - math.exp(-t))
        worst = max(worst, err, est.std_error)
        coupling_ok &= err <= 1e-11 and est.std_error <= 1e-11
    atoms = EmpiricalMeasure.from_samples([0.5, 1.0, 2.0], provenance="atoms")
    series = []
    for j, t in enumerate(np.arange(0.0, 3.1, 0.5)):
        est = energy_W(model, X_FN, atoms, float(t), 64, master.substream(j))
        series.append((float(t), est.value, est.std_error))
    fit = fit_decay_rate(series)
    fit_ok = abs(fit.fitted_rate - 2.0) <= 1e-3
    conclude(
        "C4 storage exactness", coupling_ok and fit_ok,
        f"coupling_error<={worst:.2e} fitted_rate={fit.fitted_rate:.8f} (target 2 +/- 1e-3)")


# ---------------------------------------------------------------------------
# 5. gradient sub-commutation for the constant-rate model
# ---------------------------------------------------------------------------

def test_c5_gradient_subcommutation(constant_model):
    master = RandomStream(SEED).substream(7)
    ok = True
    lines = []
    for x in (0.5, 1.0, 2.0):
        for t in (1.0, 2.0):
            grad = gradient_semigroup_estimate(
                constant_model, lambda v: v, x, t, 1_000_000, master)
            level = semigroup_estimate(
                constant_model, lambda v: np.ones_like(v), x, t, 1000, master)
            bound = math.exp(-0.75 * t) * level.value
            combined = np.hypot(2 * abs(grad.value) * grad.std_error,
                                math.exp(-0.75 * t) * level.std_error)
            this = grad.value ** 2 <= bound + 3 * combined
            ok &= this
            lines.append(f"x={x:g},t={t:g}: {grad.value ** 2:.4f}<={bound:.4f}")
    conclude("C5 gradient sub-commutation", ok, "; ".join(lines))


# ---------------------------------------------------------------------------
# 6. half-line integral criterion bracket
# ---------------------------------------------------------------------------

def test_c6_integral_criterion_bracket():
    b1, lo1, hi1 = muckenhoupt_bound(lambda x: math.exp(-x), math.log(2.0), quad_tol=1e-8)
    b2, _, _ = muckenhoupt_bound(lambda x: 2.0 * math.exp(-2.0 * x),
                                 0.5 * math.log(2.0), quad_tol=1e-8)
    ok1 = abs(b1 - 1.0) <= 1e-6
    ok_bracket = lo1 <= 4.0 <= hi1 + 4e-6
    ok2 = abs(b2 - 0.25) <= 1e-6
    conclude(
        "C6 integral-criterion bracket", ok1 and ok_bracket and ok2,
        f"B(exp1)={b1:.9f} bracket=[{lo1:.6f},{hi1:.6f}] contains 4; B(exp2)={b2:.9f}")


# ---------------------------------------------------------------------------
# 7. empirical inequality ratios against the certificates
# ---------------------------------------------------------------------------

def test_c7_empirical_vs_certificate(constant_mu, linear_mu):
    cert_const = certify_tcp_constant(1.0, 0.5)
    details = inequality_details(constant_mu, default_family(), None, 2.0)
    worst = max(details, key=lambda d: d["ratio"])
    const_ok = worst["ratio"] <= cert_const.poincare_c + 3 * worst["std_error"]

    cert_lin = certify_tcp_linear(0.5)
    wdetails = inequality_details(linear_mu, default_family(), linear_weight, 1.0)
    wworst = max(wdetails, key=lambda d: d["ratio"])
    lin_ok = wworst["ratio"] <= cert_lin.weighted_logsob_c + 3 * wworst["std_error"]
    conclude(
        "C7 empirical vs certified", const_ok and lin_ok,
        f"poincare ratio={worst['ratio']:.4f} ({worst['label']}) <= {cert_const.poincare_c:.4f}; "
        f"weighted xlogx ratio={wworst['ratio']:.4f} ({wworst['label']}) "
        f"<= {cert_lin.weighted_logsob_c:.4f}")


# ---------------------------------------------------------------------------
# 8. entropy-decay pipeline end to end
# ---------------------------------------------------------------------------

def test_c8_entropy_decay_pipeline(linear_model, linear_chain):
    cert = certify_tcp_linear(0.5)
    theta = theta_constant()
    theta_ok = abs(theta - 1.5804) <= 1e-4
    upper = (1.0 - 0.5) * theta
    cert_ok = np.isfinite(cert.entropy_c) and cert.entropy_c > 0 and 0.0 < cert.rate_r < upper

    master = RandomStream(SEED).substream(8)
    atoms = EmpiricalMeasure.from_samples(
        linear_chain.values[:: linear_chain.size // 10_000][:10_000], provenance="chain")
    mu = reconstruct_mu(linear_model, atoms, master.substream(0))
    times = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    empirical_ok = True
    detail = []
    tfs = [X_FN, TestFunction(np.sin, np.cos, "sin(x)")]
    all_series = entropy_decay_series(linear_model, tfs, mu, times, 1000, master.substream(1))
    for tf, series in zip(tfs, all_series):
        energy0 = mu.expectation(lambda x: np.asarray(tf.df(x), dtype=float) ** 2)
        for t, value, se in series:
            bound = cert.entropy_c * math.exp(-cert.rate_r * t) * energy0 + 3 * se
            if not value <= bound:
                empirical_ok = False
        detail.append(f"{tf.label}: max_ent={max(v for _, v, _ in series):.4f}")
    conclude(
        "C8 entropy-decay pipeline", theta_ok and cert_ok and empirical_ok,
        f"theta={theta:.5f} c={cert.entropy_c:.4g} r={cert.rate_r:.4g} in (0,{upper:.4f}); "
        + "; ".join(detail))


# ---------------------------------------------------------------------------
# 9. property suites
# ---------------------------------------------------------------------------

def test_c9_property_suites(tmp_path):
    rng = np.random.default_rng(909)
    # exact sorted coupling against brute-force assignment on 5-atom instances
    w1_ok = True
    for _ in range(200):
        a = rng.normal(size=5) * 2.0
        b = rng.normal(size=5) + 0.5
        best = min(np.mean(np.abs(a - b[list(p)])) for p in itertools.permutations(range(5)))
        got = wasserstein_1d(1.0, EmpiricalMeasure.from_samples(a, provenance="atoms"),
                             EmpiricalMeasure.from_samples(b, provenance="atoms"))
        w1_ok &= abs(got - best) <= 1e-12 * max(1.0, best)

    ent_ok = True
    ps = np.linspace(1.0, 2.0, 5)
    for _ in range(100):
        v = np.abs(rng.normal(size=150)) + 1e-3
        w = rng.uniform(0.05, 1.0, size=150)
        ents = [entropy_p(v, p, w) for p in ps]
        ent_ok &= all(x >= y - 1e-10 for x, y in zip(ents, ents[1:]))

    assoc_ok = True
    for _ in range(200):
        c1, g1, c2, g2, c3, g3 = rng.uniform(0.0, 4.0, size=6)
        a, b, c = (ConfiningProfile(c1, g1, 2.0), ConfiningProfile(c2, g2, 2.0),
                   ConfiningProfile(c3, g3, 2.0))
        left = confining_compose(confining_compose(a, b), c)
        right = confining_compose(a, confining_compose(b, c))
        assoc_ok &= abs(left.c - right.c) <= 1e-15 * max(1.0, left.c)
        assoc_ok &= abs(left.gamma - right.gamma) <= 1e-15 * max(1.0, left.gamma)

    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "model = tcp_constant\nlambda = 1\ndelta = 0.5\nseed = 31\n"
        "n_outer = 3000\nn_inner = 24\nchain_length = 12000\nburn_in = 200\n"
        "time_grid = 0,1,2,3\n")
    out_a, out_b, out_c = (str(tmp_path / d) for d in ("a", "b", "c"))
    assert main(["simulate", "--config", str(cfg), "--out", out_a]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", out_b]) == 0
    seed_ok = filecmp.cmp(os.path.join(out_a, "simulate", "measure.csv"),
                          os.path.join(out_b, "simulate", "measure.csv"), shallow=False)
    assert main(["verify", "--config", str(cfg), "--out", out_c, "--workers", "1"]) == 0
    series_one = open(os.path.join(out_c, "verify", "series.csv")).read()
    out_d = str(tmp_path / "d")
    assert main(["verify", "--config", str(cfg), "--out", out_d, "--workers", "4"]) == 0
    series_four = open(os.path.join(out_d, "verify", "series.csv")).read()
    workers_ok = series_one == series_four

    conclude(
        "C9 property suites", w1_ok and ent_ok and assoc_ok and seed_ok and workers_ok,
        f"sorted-coupling exact x200={w1_ok} entropy-monotone x100={ent_ok} "
        f"compose-associative x200={assoc_ok} seed-replay-bytes={seed_ok} "
        f"worker-invariance={workers_ok}")
