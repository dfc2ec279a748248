"""Explicit convergence-rate and functional-inequality constants.

Mechanises the full constant calculus: drift/jump balance infima, the
confining-kernel composition algebra for spectral-gap style constants of
invariant laws, the half-line integral criterion bracketing an optimal
constant, perturbation formulas for reweighted measures, and the
end-to-end pipelines for the shipped models.  A certificate is its
ledger: every ``certify_*`` pipeline returns a ``Ledger`` of ordered
(quantity, value, derivation) rows, and ``ledger.name`` reads the value
of the row of that quantity.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "BalanceSpec",
    "ConfiningProfile",
    "Ledger",
    "balance_eta",
    "balance_spec_tcp_constant",
    "balance_spec_storage",
    "balance_spec_tcp_linear",
    "tcp_linear_balance_envelope",
    "theta_constant",
    "confining_compose",
    "confining_fixed_point",
    "push_through",
    "muckenhoupt_bound",
    "perturb_poincare",
    "perturb_logsob",
    "perturb_logsob_grid",
    "certify_tcp_constant",
    "certify_tcp_increasing",
    "certify_tcp_linear",
    "certify_storage",
    "generalized_poincare_alpha",
]


def default_balance_grid(low: float = 1e-6, high: float = 50.0, n: int = 512,
                         extra=()) -> np.ndarray:
    """Log-spaced evaluation grid with optional analytic anchor points."""
    g = np.geomspace(low, high, n)
    if len(extra):
        g = np.sort(np.concatenate([g, np.asarray(extra, dtype=float)]))
    return g


# ---------------------------------------------------------------------------
# balance condition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BalanceSpec:
    """Scalar fields entering the drift/jump balance bound, with a grid."""

    drift_jacobian: Callable
    rate: Callable
    rate_deriv: Callable
    jump_gradient_bound: Callable
    weight: Callable
    weight_deriv: Callable
    drift: Callable
    grid: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        if g.ndim != 1 or g.size == 0:
            raise ValueError("grid must be a nonempty 1-d array")
        object.__setattr__(self, "grid", g)


def balance_eta(spec: BalanceSpec, beta: Optional[float] = None) -> float:
    """Largest decay exponent compatible with the balance bound on the grid.

    Evaluates the infimum over the grid of
    ``-(2 J_b + a rate'^2/(beta rate) + rate (M - 1) - drift a'/a)``;
    without ``beta`` the rate must be constant and the middle term drops.
    May be negative, in which case no contraction is certified.
    """
    g = spec.grid
    jb = np.asarray(spec.drift_jacobian(g), dtype=float)
    lam = np.asarray(spec.rate(g), dtype=float)
    m = np.asarray(spec.jump_gradient_bound(g), dtype=float)
    a = np.asarray(spec.weight(g), dtype=float)
    da = np.asarray(spec.weight_deriv(g), dtype=float)
    b = np.asarray(spec.drift(g), dtype=float)
    if np.any(~np.isfinite(jb)) or np.any(~np.isfinite(lam)) or np.any(a <= 0):
        raise ValueError("balance fields must be finite with positive weight")
    expr = 2.0 * jb + lam * (m - 1.0) - b * da / a
    if beta is None:
        if np.ptp(lam) > 1e-12 * max(1.0, float(np.abs(lam).max())):
            raise ValueError("without beta the rate must be constant")
    else:
        if beta <= 0:
            raise ValueError("beta must be positive")
        if np.any(lam <= 0):
            raise ValueError("rate vanishes on the grid; the beta term blows up")
        dlam = np.asarray(spec.rate_deriv(g), dtype=float)
        expr = expr + a * dlam * dlam / (beta * lam)
    return float(-np.max(expr))


def _zero(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def _one(x):
    return np.ones_like(np.asarray(x, dtype=float))


def balance_spec_tcp_constant(rate: float, factor_m2: float, grid=None) -> BalanceSpec:
    g = default_balance_grid() if grid is None else np.asarray(grid, dtype=float)
    return BalanceSpec(
        drift_jacobian=_zero,
        rate=lambda x: np.full_like(np.asarray(x, dtype=float), rate),
        rate_deriv=_zero,
        jump_gradient_bound=lambda x: np.full_like(np.asarray(x, dtype=float), factor_m2),
        weight=_one,
        weight_deriv=_zero,
        drift=_one,
        grid=g,
    )


def balance_spec_storage(rate: float, grid=None) -> BalanceSpec:
    g = default_balance_grid() if grid is None else np.asarray(grid, dtype=float)
    return BalanceSpec(
        drift_jacobian=lambda x: -np.ones_like(np.asarray(x, dtype=float)),
        rate=lambda x: np.full_like(np.asarray(x, dtype=float), rate),
        rate_deriv=_zero,
        jump_gradient_bound=_one,
        weight=_one,
        weight_deriv=_zero,
        drift=lambda x: -np.asarray(x, dtype=float),
        grid=g,
    )


def balance_spec_tcp_linear(delta: float, grid=None) -> BalanceSpec:
    """Raw balance fields of the linear-rate model with its native weight."""
    g = default_balance_grid() if grid is None else np.asarray(grid, dtype=float)
    return BalanceSpec(
        drift_jacobian=_zero,
        rate=lambda x: np.asarray(x, dtype=float),
        rate_deriv=_one,
        jump_gradient_bound=lambda x: np.full_like(np.asarray(x, dtype=float), delta),
        weight=lambda x: -np.expm1(-np.asarray(x, dtype=float)),
        weight_deriv=lambda x: np.exp(-np.asarray(x, dtype=float)),
        drift=_one,
        grid=g,
    )


def theta_constant() -> float:
    """Minimum over the half-line of 1/(e^x - 1) + x, in closed form.

    The minimiser is log((3 + sqrt 5)/2); the value drives the contraction
    exponent of the linear-rate model in its flattening weight.
    """
    s = (3.0 + math.sqrt(5.0)) / 2.0
    return 1.0 / (s - 1.0) + math.log(s)


def tcp_linear_balance_envelope(delta: float, beta: float, grid=None) -> float:
    """Grid infimum of the certified envelope (1-delta)(x + 1/(e^x-1)) - 1/beta.

    This is the pointwise lower bound of the raw linear-rate balance
    expression used to certify the contraction exponent; its infimum is
    (1-delta) * theta - 1/beta, which the grid value cross-validates.
    """
    if not 0.0 <= delta < 1.0:
        raise ValueError("delta must lie in [0,1)")
    if beta <= 0:
        raise ValueError("beta must be positive")
    s = (3.0 + math.sqrt(5.0)) / 2.0
    g = default_balance_grid(extra=[math.log(s)]) if grid is None else np.asarray(grid, dtype=float)
    vals = (1.0 - delta) * (g + 1.0 / np.expm1(g)) - 1.0 / beta
    return float(vals.min())


# ---------------------------------------------------------------------------
# confining-profile algebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConfiningProfile:
    """(local constant, gradient factor, entropy order) of a Markov kernel."""

    c: float
    gamma: float
    p: float

    def __post_init__(self):
        if self.c < 0 or self.gamma < 0:
            raise ValueError("c and gamma must be nonnegative")
        if not 1.0 <= self.p <= 2.0:
            raise ValueError("p must lie in [1, 2]")


def confining_compose(first: ConfiningProfile, second: ConfiningProfile) -> ConfiningProfile:
    """Profile of the operator composition first*second.

    ``first`` acts on the outside, so the composed kernel inherits the
    local constant of ``second`` plus its gradient factor times the local
    constant of ``first``, and the product of the gradient factors.
    """
    if first.p != second.p:
        raise ValueError("profiles must share the entropy order p")
    return ConfiningProfile(
        c=second.c + second.gamma * first.c,
        gamma=first.gamma * second.gamma,
        p=first.p,
    )


def confining_fixed_point(profile: ConfiningProfile) -> float:
    """Inequality constant of the invariant law of a contractive kernel."""
    if profile.gamma >= 1.0:
        raise ValueError("fixed point requires gamma < 1")
    return profile.c / (1.0 - profile.gamma)


def push_through(profile: ConfiningProfile, input_c: float) -> float:
    """Constant after pushing a measure with constant input_c through the kernel."""
    return profile.c + profile.gamma * float(input_c)


# ---------------------------------------------------------------------------
# half-line integral criterion
# ---------------------------------------------------------------------------

def _panel_quads(fn, knots):
    """Integral of fn over each panel between consecutive knots.

    Callers sum them forward, or backward from a tail so that small
    survival masses keep their relative accuracy (a forward running sum
    would cancel catastrophically).
    """
    return np.array([quad(fn, lo, hi, 1e-11) for lo, hi in zip(knots[:-1], knots[1:])])


def _branch_sup(prods, knots, product_fn):
    """Grid supremum with a bounded polish when the argmax is interior."""
    j = int(np.argmax(prods))
    best = float(prods[j])
    if 0 < j < knots.size - 1:
        _, low = minimize_bounded(lambda x: -product_fn(x), knots[j - 1], knots[j + 1], 1e-10)
        best = max(best, -low)
    return best


def minimize_bounded(fn, lo: float, hi: float, xatol: float):
    """Golden-section search for a minimum of a scalar fn on [lo, hi]: (x, fn(x))
    at the better inner point once the bracket is within xatol + 8 ulps."""
    g = 0.5 * (math.sqrt(5.0) - 1.0)
    c, d = hi - g * (hi - lo), lo + g * (hi - lo)
    fc, fd = fn(c), fn(d)
    while hi - lo > xatol + 8.0 * math.ulp(max(abs(lo), abs(hi))):
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - g * (hi - lo)
            fc = fn(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + g * (hi - lo)
            fd = fn(d)
    return (c, fc) if fc < fd else (d, fd)


# the 16-point Gauss-Legendre rule on [-1, 1] as literal tables; a test pins
# them to the bit against a reference implementation of the rule
_GL_X = np.array([
    -0.9894009349916499, -0.9445750230732326, -0.8656312023878318, -0.755404408355003,
    -0.6178762444026438, -0.4580167776572274, -0.2816035507792589, -0.09501250983763745,
    0.09501250983763745, 0.2816035507792589, 0.4580167776572274, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499])
_GL_W = np.array([
    0.027152459411756466, 0.06225352393864763, 0.09515851168249231, 0.12462897125553363,
    0.14959598881657638, 0.16915651939500212, 0.18260341504492328, 0.1894506104550681,
    0.1894506104550681, 0.18260341504492328, 0.16915651939500212, 0.14959598881657638,
    0.12462897125553363, 0.09515851168249231, 0.06225352393864763, 0.027152459411756466])

_QUAD_PANELS = 1000  # bisection budget of quad


def quad(fn, a: float, b: float, epsrel: float) -> float:
    """Integral of a scalar fn over [a, b]; ``b`` may be ``inf``.

    Adaptive bisection of 16-point panels, largest error first, where a
    panel's error is |I(a,b) - I(a,m) - I(m,b)|; b = inf maps to (0, 1] by
    x = a + (1-t)/t, which keeps far points exact in t.  Raises ValueError
    when ``_QUAD_PANELS`` bisections leave the summed error above ``epsrel``
    times the integral.  An end singularity |x - a|^-p needs about
    log2(1/epsrel)/(1-p) bisections (p up to about 0.96 at epsrel 1e-11),
    and there the estimate undercounts the error by about 1/(2^(1-p) - 1).
    """
    a, b = float(a), float(b)
    if b == np.inf:
        f, a0 = fn, a
        fn = lambda t: f(a0 + (1.0 - t) / t) / t / t  # noqa: E731
        a, b = 0.0, 1.0
    pairs = tuple(zip(_GL_X.tolist(), _GL_W.tolist()))

    def rule(lo, hi):
        h, c = 0.5 * (hi - lo), 0.5 * (hi + lo)
        return h * sum(w * float(fn(c + h * x)) for x, w in pairs)

    def split(lo, hi, whole):
        m = 0.5 * (lo + hi)
        left, right = rule(lo, m), rule(m, hi)
        return -abs(whole - left - right), lo, m, hi, left, right

    heap = [split(a, b, rule(a, b))]
    for _ in range(_QUAD_PANELS):
        total = sum(p[4] + p[5] for p in heap)
        if -sum(p[0] for p in heap) <= epsrel * abs(total):
            return total
        _, lo, m, hi, left, right = heapq.heappop(heap)
        heapq.heappush(heap, split(lo, m, left))
        heapq.heappush(heap, split(m, hi, right))
    raise ValueError(f"integral did not converge to rtol {epsrel:g} in {_QUAD_PANELS} bisections")


def muckenhoupt_bound(density: Callable, median: float, quad_tol: float = 1e-9):
    """Integral criterion value at the median, with its two-sided bracket.

    For a positive density on the half-line, computes the maximum over the
    two branch suprema of (tail mass) x (reciprocal-density mass between
    the split point and the median); half of it lower-bounds and four
    times it upper-bounds the optimal variance/gradient-energy constant.
    Returns (B, B/2, 4B).
    """
    m = float(median)
    if m <= 0:
        raise ValueError("median must be positive")
    rho = lambda x: float(density(x))

    def inv_rho(x):
        d = float(density(x))
        if not d > 0.0 or math.isinf(1.0 / d):
            raise ValueError("density vanished; reciprocal-density integral diverges")
        return 1.0 / d

    def right_sup(x_high):
        knots = np.unique(np.concatenate([
            np.linspace(m, x_high, 129), np.geomspace(m, x_high, 129)]))
        tail = quad(rho, x_high, np.inf, 1e-11)
        surv = np.cumsum(np.append(tail, _panel_quads(rho, knots)[::-1]))[::-1]
        recip = np.cumsum(np.append(0.0, _panel_quads(inv_rho, knots)))
        prods = surv * recip

        def product(x):
            s = quad(rho, x, x_high, 1e-11) + tail
            r = quad(inv_rho, m, x, 1e-11)
            return s * r

        return _branch_sup(prods, knots, product)

    x_high = m + 1.0
    b_right = right_sup(x_high)
    for _ in range(60):
        x_high *= 2.0
        nxt = right_sup(x_high)
        grew = nxt - b_right
        b_right = max(b_right, nxt)
        if abs(grew) <= quad_tol / 8.0:
            break

    lo = m * 1e-8
    knots = np.unique(np.concatenate([
        np.linspace(lo, m, 129), np.geomspace(lo, m, 129)]))
    head = quad(rho, 0.0, knots[0], 1e-11)
    mass = head + np.cumsum(np.append(0.0, _panel_quads(rho, knots)))
    recip = np.cumsum(np.append(0.0, _panel_quads(inv_rho, knots)[::-1]))[::-1]
    prods = mass * recip

    def left_product(x):
        p = head + quad(rho, knots[0], x, 1e-11)
        r = quad(inv_rho, x, m, 1e-11)
        return p * r

    b_left = _branch_sup(prods, knots, left_product)
    b = max(b_right, b_left)
    return b, 0.5 * b, 4.0 * b


# ---------------------------------------------------------------------------
# perturbation of a measure by a monotone density
# ---------------------------------------------------------------------------

def perturb_poincare(c1: float, g_ratio: float) -> float:
    """Variance-inequality constant after reweighting by a nonincreasing
    density with sup/at-median ratio g_ratio: eight times the ratio times
    the input constant."""
    if g_ratio < 1.0:
        raise ValueError("the ratio g(0)/g(median) must be at least one")
    if c1 < 0:
        raise ValueError("input constant must be nonnegative")
    return 8.0 * g_ratio * c1


def perturb_logsob(c1: float, kappa: float, epsilon: float, g_ratio: float,
                   nu_g_power_mean: float) -> float:
    """xlogx-inequality constant after reweighting by a log-Lipschitz,
    nonincreasing density.

    ``nu_g_power_mean`` is the mean of g^(1 - 1/epsilon) under the base
    measure (at least one by convexity for a normalised g; validated).
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0,1)")
    if g_ratio < 1.0:
        raise ValueError("the ratio g(0)/g(median) must be at least one")
    if nu_g_power_mean < 1.0 - 1e-12:
        raise ValueError("the power mean of a normalised density is at least one")
    if kappa < 0 or c1 < 0:
        raise ValueError("kappa and c1 must be nonnegative")
    inner = (0.5 * c1 * kappa ** 2 + epsilon * math.log(nu_g_power_mean)) / (1.0 - epsilon)
    return (2.0 / (1.0 - epsilon) + 8.0 * g_ratio * (2.0 + inner)) * c1


def perturb_logsob_grid(c1: float, kappa: float, g_ratio: float,
                        nu_power_mean_fn: Callable, eps_grid=None):
    """Minimise the perturbation constant over an epsilon grid.

    ``nu_power_mean_fn`` maps epsilon to the mean of g^(1 - 1/epsilon).
    Returns (best constant, best epsilon).
    """
    grid = np.arange(0.1, 0.95, 0.1) if eps_grid is None else np.asarray(eps_grid, dtype=float)
    best = (math.inf, math.nan)
    for eps in grid:
        c2 = perturb_logsob(c1, kappa, float(eps), g_ratio, float(nu_power_mean_fn(float(eps))))
        if c2 < best[0]:
            best = (c2, float(eps))
    return best


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

class Ledger(tuple):
    """Ordered (quantity, value, derivation) rows of one certificate.

    ``ledger.name`` is the value of the row of that quantity; a name with
    no row raises AttributeError.
    """

    __slots__ = ()

    def __getattr__(self, name):
        for quantity, value, _ in self:
            if quantity == name:
                return value
        raise AttributeError(f"ledger has no quantity {name!r}")


def certify_tcp_constant(rate: float, delta: float) -> Ledger:
    """Spectral-gap style certificate for the constant-rate model.

    Composes the pre-jump profile (4/rate^2, 1, 2) with the deterministic
    jump profile (0, delta^2, 2), takes the invariant fixed point of the
    chain, and pushes it back through the pre-jump kernel.
    """
    if not rate > 0:
        raise ValueError("rate must be positive")
    if not 0.0 <= delta < 1.0:
        raise ValueError("delta must lie in [0,1)")
    prof_k = ConfiningProfile(4.0 / rate ** 2, 1.0, 2.0)
    prof_q = ConfiningProfile(0.0, delta ** 2, 2.0)
    chain = confining_compose(prof_k, prof_q)
    chain_c = confining_fixed_point(chain)
    mu_c = push_through(prof_k, chain_c)
    grad_rate = rate * (1.0 - delta ** 2)
    return Ledger([
        ("pre_jump_profile_c", prof_k.c, "1/rate-Lipschitz image of a unit exponential: 4/rate^2"),
        ("jump_profile_gamma", prof_q.gamma, "deterministic contraction by delta: gamma = delta^2"),
        ("chain_profile_c", chain.c, "composition: c_Q + gamma_Q * c_K"),
        ("chain_profile_gamma", chain.gamma, "composition: gamma_K * gamma_Q"),
        ("chain_poincare_c", chain_c, "fixed point c/(1-gamma) of the chain profile"),
        ("poincare_c", mu_c, "push chain constant through the pre-jump kernel"),
        ("gradient_rate", grad_rate, "balance exponent rate*(1-delta^2)"),
        ("l2_rate", grad_rate, "variance decays at the gradient exponent via the inequality"),
        ("l2_prefactor", mu_c, "inequality constant in front of the decaying energy"),
        ("wasserstein_rate", 0.5 * grad_rate,
         "half the gradient exponent bounds the transport decay"),
        ("optimal_w1_rate", rate * (1.0 - delta),
         "synchronous coupling: rate*(1-delta) for first moments"),
    ])


def certify_tcp_increasing(lambda_star: float, delta: float, kappa: float,
                           h_at: Callable) -> Ledger:
    """Decay certificate for a nondecreasing rate with log-Lipschitz constant.

    ``h_at`` evaluates the model's mean residual normaliser (used at the
    certified median bound of the chain law).  A vanishing kappa is
    rejected: the mixed-energy route needs beta > 0, and a constant rate
    should use the dedicated constant-rate certificate.
    """
    if not lambda_star > 0:
        raise ValueError("lambda_star must be positive")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0,1)")
    if not kappa > 0:
        raise ValueError("kappa must be positive (constant rate has its own certificate)")
    beta = 2.0 * kappa ** 2 / (1.0 - delta ** 2)
    eta = 0.5 * lambda_star * (1.0 - delta ** 2)
    chain_c = 4.0 * delta ** 2 / (lambda_star ** 2 * (1.0 - delta ** 2))
    median_bound = 2.0 * delta / (lambda_star * (1.0 - delta))
    h_m = float(h_at(median_bound))
    if not (np.isfinite(h_m) and h_m > 0):
        raise ValueError("mean residual normaliser must be positive at the median bound")
    ratio_bound = (1.0 / lambda_star) / h_m
    c_prime = perturb_poincare(chain_c, ratio_bound)
    ktilde_c = 4.0 / lambda_star ** 2
    poincare_c = ktilde_c + c_prime
    prefactor = 1.0 + beta * poincare_c
    return Ledger([
        ("beta", beta, "2 kappa^2/(1-delta^2)"),
        ("eta", eta, "lambda_*(1-delta^2)/2 from the log-slope balance"),
        ("chain_poincare_c", chain_c, "4 delta^2/(lambda_*^2 (1-delta^2)) chain fixed point"),
        ("median_bound", median_bound, "tail bound of the dominating constant-rate chain"),
        ("h_at_median_bound", h_m, "mean residual normaliser at the median bound"),
        ("reweighted_poincare_c", c_prime, "8 * ratio * chain constant perturbation"),
        ("ktilde_c", ktilde_c, "length-biased kernel local constant 4/lambda_*^2"),
        ("poincare_c", poincare_c, "push reweighted constant through the length-biased kernel"),
        ("decay_rate", eta / prefactor, "eta over one plus beta times the constant"),
        ("prefactor", prefactor, "one plus beta times the constant"),
    ])


def certify_tcp_linear(delta: float) -> Ledger:
    """End-to-end entropy-decay certificate for the linear-rate model.

    Pipeline: xlogx constant of the twisted chain's invariant law, the
    log-Lipschitz perturbation by the normalised mean-residual density
    (epsilon fixed at one half, where the reciprocal mean has an analytic
    bound), push through the length-biased kernel to the weighted xlogx
    constant for the process law, then maximise the energy/variance decay
    exponent over the mixing parameter, in closed form.  All bounds are
    analytic.  At delta = 0 the chain law is the point mass at zero and
    its constant vanishes.
    """
    if not 0.0 <= delta < 1.0:
        raise ValueError("delta must lie in [0,1)")
    theta = theta_constant()
    sq = math.sqrt(delta)
    c_nu = 4.0 * sq / (1.0 - sq)
    kappa_g = math.sqrt(2.0 / math.pi)
    g0 = math.sqrt(math.pi / 2.0)
    ratio_bound = 3.0 * (1.0 + delta / math.sqrt(1.0 - delta ** 2))
    norm_bound = g0
    nu_term = norm_bound * ratio_bound
    c2 = perturb_logsob(c_nu, kappa_g, 0.5, ratio_bound, nu_term)
    wls_c = push_through(ConfiningProfile(4.0, 1.0, 1.0), c2)
    c1w = wls_c
    a_rate = (1.0 - delta) * theta
    # with u = 1/beta the exponent is u (a - u)/(u + c1), whose derivative
    # vanishes where u^2 + 2 c1 u = a c1: the positive root, free of cancellation
    u = a_rate * c1w / (c1w + math.sqrt(c1w * (c1w + a_rate)))
    beta_opt = 1.0 / u
    rate_r = (a_rate - u) / (1.0 + beta_opt * c1w)
    if not (0.0 < rate_r < a_rate):
        raise RuntimeError("optimised rate left its certified interval")
    return Ledger([
        ("theta", theta, "minimum of x + 1/(e^x - 1) on the half-line"),
        ("chain_logsob_c", c_nu, "twisted chain invariant law: 4 sqrt(delta)/(1-sqrt(delta))"),
        ("kappa_g", kappa_g, "log-Lipschitz constant of the mean residual density"),
        ("g_ratio_bound", ratio_bound, "3(1 + delta/sqrt(1-delta^2)) bounds sup/median ratio"),
        ("normaliser_upper", norm_bound, "mean of g is at most its supremum sqrt(pi/2)"),
        ("normaliser_lower", 1.0 / ratio_bound, "Jensen: mean of g at least 1/mean of 1/g"),
        ("nu_power_mean_bound", nu_term, "reciprocal mean of normalised g: product of bounds"),
        ("perturbed_logsob_c", c2, "log-Lipschitz perturbation at epsilon = 1/2"),
        ("weighted_logsob_c", wls_c, "push through the (4,1,1) length-biased kernel"),
        ("weighted_poincare_c", c1w, "entropy-order monotonicity: same constant works"),
        ("beta_opt", beta_opt,
         "closed-form maximiser 1/u: u = a c1/(c1 + sqrt(c1^2 + a c1)) with a = (1-delta) theta"),
        ("rate_r", rate_r, "((1-delta) theta - 1/beta)/(1 + beta c1)"),
        ("entropy_c", wls_c * (1.0 + beta_opt * c1w),
         "weighted xlogx constant times the mixing prefactor"),
    ])


def certify_storage(rate: float) -> Ledger:
    """Gradient and transport exponents of the storage model from its
    balance infimum."""
    eta = balance_eta(balance_spec_storage(rate))
    return Ledger([
        ("gradient_rate", eta, "balance infimum: flow contraction 2, neutral jumps"),
        ("wasserstein_rate", 0.5 * eta, "half the gradient exponent"),
    ])


def generalized_poincare_alpha(q: float) -> float:
    """Interpolation exponent 2q/(q+1) for rates growing like (1+x)^q."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0,1]")
    return 2.0 * q / (q + 1.0)
