"""Concrete processes on the half-line with exact closed forms.

Four families are shipped: the additive-growth multiplicative-collapse
process with constant jump rate, the same with linearly growing rate, the
same with an affine rate lambda_star + slope*x, and the storage process
(exponential decay between upward jumps).  A fifth model is the
linear-rate process conjugated by the concave chart that flattens its
gradient weight, psi(x) = 2 artanh sqrt(1 - exp(-x)), which is inverted
in closed form too.

Every factory returns a :class:`~pdmp_ergo.core.Model` whose callables
accept arrays, so the vectorised engine can drive them directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import Model

__all__ = [
    "TcpConstantParams",
    "StorageParams",
    "exponential_increment",
    "make_tcp_constant",
    "make_tcp_linear",
    "make_affine_rate_tcp",
    "make_storage",
    "make_twisted_tcp_linear",
    "conjugate",
    "tcp_constant_invariant_moments",
    "tcp_constant_spectrum",
    "linear_weight",
    "linear_h",
    "linear_ktilde_times",
    "PsiChart",
    "psi_chart",
]

_SQRT_HALF_PI = math.sqrt(math.pi / 2.0)


def _draws(rng, x):
    u = rng.uniform(np.size(x))
    return np.reshape(u, np.shape(x))


def _const(value):
    def fn(x):
        return np.full_like(np.asarray(x, dtype=float), value)
    return fn


# ---------------------------------------------------------------------------
# parameter records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TcpConstantParams:
    """Constant jump rate, multiplicative jump x -> R x with R in [0, 1).

    ``delta`` gives a deterministic factor.  Alternatively supply
    ``factor_sampler`` (mapping iid uniforms to samples of R) together
    with ``factor_moment`` (k -> E[R^k]); the second moment must be < 1.
    """

    rate: float
    delta: Optional[float] = None
    factor_sampler: Optional[Callable] = None
    factor_moment: Optional[Callable] = None

    def __post_init__(self):
        if not self.rate > 0:
            raise ValueError("rate must be positive")
        if self.delta is None:
            if self.factor_sampler is None or self.factor_moment is None:
                raise ValueError("give delta, or factor_sampler with factor_moment")
        elif not 0.0 <= self.delta < 1.0:
            raise ValueError("delta must lie in [0,1)")
        if not self.moment(2) < 1.0:
            raise ValueError("second moment of the jump factor must be < 1")

    def moment(self, k: int) -> float:
        if self.delta is not None:
            return float(self.delta) ** k
        return float(self.factor_moment(k))

    @property
    def deterministic(self) -> bool:
        return self.delta is not None


@dataclass(frozen=True)
class StorageParams:
    """Constant-rate upward jumps x -> x + U against exponential decay."""

    rate: float
    increment_sampler: Callable

    def __post_init__(self):
        if not self.rate > 0:
            raise ValueError("rate must be positive")
        probe = self.increment_sampler(np.linspace(1e-6, 1 - 1e-6, 101))
        if np.any(np.asarray(probe) <= 0):
            raise ValueError("jump increments must be positive")


def exponential_increment(scale: float = 1.0) -> Callable:
    if not scale > 0:
        raise ValueError("scale must be positive")

    def sampler(u):
        return -scale * np.log1p(-np.asarray(u, dtype=float))

    return sampler


# ---------------------------------------------------------------------------
# constant-rate model
# ---------------------------------------------------------------------------

def _constant_rate_forms(lam: float) -> dict:
    """Closed forms of a constant jump rate ``lam``: the rate, its integral
    along the flow and the inverse, the mean residual normaliser 1/lam and
    the length-biased inter-jump time, which is Exp(lam)."""
    def ktilde(x, stream):
        t = stream.exponential(np.size(x)) / lam
        return np.reshape(t, np.shape(x))

    return dict(
        rate=_const(lam),
        cum_rate=lambda x, t: lam * np.asarray(t, dtype=float) + 0.0 * np.asarray(x, dtype=float),
        inv_cum_rate=lambda x, u: np.asarray(u, dtype=float) / lam + 0.0 * np.asarray(x, dtype=float),
        h_form=_const(1.0 / lam),
        ktilde_sampler=ktilde,
    )


def _tcp(name: str, delta: Optional[float], jump: Optional[Callable] = None,
         **fields) -> Model:
    """A model of the additive-growth multiplicative-collapse family: the
    flow x + t on [0, inf) and, unless a random ``jump`` is given, the
    collapse x -> delta x with delta in [0, 1)."""
    if jump is None:
        if not 0.0 <= delta < 1.0:
            raise ValueError("delta must lie in [0,1)")
        delta = float(delta)
        jump = lambda x, rng: delta * np.asarray(x, dtype=float)  # noqa: E731
    return Model(name=name, domain_low=0.0, domain_high=np.inf,
                 flow=lambda x, t: np.asarray(x, dtype=float) + t, jump=jump, **fields)


def make_tcp_constant(params: TcpConstantParams) -> Model:
    jump = None
    if not params.deterministic:
        sampler = params.factor_sampler

        def jump(x, rng):
            r = np.asarray(sampler(_draws(rng, x)), dtype=float)
            return r * np.asarray(x, dtype=float)

    return _tcp("tcp_constant", params.delta, jump, **_constant_rate_forms(float(params.rate)))


def tcp_constant_invariant_moments(params: TcpConstantParams, k: int) -> float:
    """Moments of the post-jump chain fixed point Z = delta (Z + E/rate).

    Closed recursion in the order; requires a deterministic jump factor.
    """
    if not params.deterministic:
        raise ValueError("moment recursion requires a deterministic jump factor")
    if k < 0:
        raise ValueError("order must be nonnegative")
    d, lam = float(params.delta), float(params.rate)
    moments = [1.0]
    for kk in range(1, k + 1):
        s = sum(
            math.comb(kk, i) * moments[i] * math.factorial(kk - i) / lam ** (kk - i)
            for i in range(kk)
        )
        moments.append(d ** kk * s / (1.0 - d ** kk))
    return moments[k]


def tcp_constant_spectrum(params: TcpConstantParams, k: int) -> float:
    """k-th generator eigenvalue rate*(E[R^k] - 1) (polynomial eigenfunctions)."""
    if k < 0:
        raise ValueError("order must be nonnegative")
    return float(params.rate) * (params.moment(k) - 1.0)


# ---------------------------------------------------------------------------
# linear- and affine-rate models
# ---------------------------------------------------------------------------

def linear_weight(x):
    """Gradient weight 1 - exp(-x): linear near zero, one at infinity."""
    return -np.expm1(-np.asarray(x, dtype=float))


# erfcx(z) = t exp(P(u)) on z >= 0, with t = 2.5/(2.5+z) and u = 2t - 1 in
# (-1, 1]: P is the degree-25 Chebyshev truncation of log(erfcx(z)/t),
# computed in 50-digit arithmetic and expanded into powers of u.  The
# sum of |coefficient| is 1.8, so Horner loses no more than the Chebyshev
# form; exp(z^2) is never formed, so nothing overflows up to z = inf.
_ERFCX_SCALE = 2.5
_ERFCX_POLY = np.array([
    -0.863668092167319, 0.7634037549319552, 0.1392529069645442,
    -0.01798380987801496, -0.023787984321988608, -0.0019463315872206878,
    0.004720977021531552, 0.0011575351791752503, -0.0010479622955922587,
    -0.00039519670690824543, 0.0002545209631229283, 0.0001172957609604683,
    -6.631380973940525e-05, -3.1820269461311456e-05, 1.7919019263733518e-05,
    7.851324521082295e-06, -4.771521901917913e-06, -1.72107654668849e-06,
    1.171809892219114e-06, 3.250753313165076e-07, -2.429886939337567e-07,
    -5.12152434049936e-08, 3.6933782124873894e-08, 6.343213867862375e-09,
    -3.0063291762271916e-09, -4.82334355460585e-10])


def _erfcx(z):
    """Scaled complementary error function exp(z^2) erfc(z) for z >= 0,
    within a few ulp."""
    t = _ERFCX_SCALE / (_ERFCX_SCALE + z)
    u = 2.0 * t - 1.0
    p = np.full_like(u, _ERFCX_POLY[-1])
    for a in _ERFCX_POLY[-2::-1]:
        p *= u
        p += a
    return t * np.exp(p)


def linear_h(x):
    """Mean residual normaliser for rate(x)=x, in stable scaled-erfc form.

    Defined on the half-line: negative input raises ValueError."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("normaliser argument must be nonnegative")
    return _SQRT_HALF_PI * _erfcx(x / np.sqrt(2.0))


def linear_ktilde_times(x, stream):
    """Length-biased inter-jump times for rate(x)=x: density ~ exp(-xt - t^2/2).

    Hybrid rejection: for x < 1 propose the half-normal and thin by
    exp(-x t); for x >= 1 propose Exp(x) and thin by exp(-t^2/2).  The
    acceptance probability stays above one half on the whole half-line.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x < 0):
        raise ValueError("states must be nonnegative")
    out = np.empty_like(x)
    todo = np.arange(x.size)
    while todo.size:
        xa = x[todo]
        n = todo.size
        z = np.abs(stream.normal(n))
        e = stream.exponential(n)
        u = stream.uniform(n)
        small = xa < 1.0
        prop = np.where(small, z, e / np.maximum(xa, 1.0))
        logacc = np.where(small, -xa * prop, -0.5 * prop * prop)
        acc = np.log(u) < logacc
        out[todo[acc]] = prop[acc]
        todo = todo[~acc]
    return out


def _affine_rate_forms(rate: Callable, slope: float) -> dict:
    """Closed forms of an affine ``rate`` (lambda_star + slope*x) along the
    unit-speed flow: its integral is quadratic in time, the inverse a square
    root, and the mean residual normaliser and the length-biased sampler
    reduce to the linear-rate ones after rescaling time by sqrt(slope).
    Every form evaluates ``rate`` itself, so the linear rate x -> x costs
    no extra array pass in the ensemble engine."""
    rs = math.sqrt(slope)

    def inv_cum_rate(x, u):
        c = rate(x)
        u = np.asarray(u, dtype=float)
        root = np.sqrt(c * c + 2.0 * slope * u)
        with np.errstate(invalid="ignore"):
            t = 2.0 * u / (root + c)
        return np.where(u == 0.0, 0.0, t)

    def h_form(x):
        return linear_h(rate(x) / rs) / rs

    def ktilde(x, stream):
        shape = np.shape(x)
        t = linear_ktilde_times(np.ravel(rate(x) / rs), stream) / rs
        return np.reshape(t, shape) if shape else float(t[0])

    return dict(
        rate=rate,
        cum_rate=lambda x, t: rate(x) * np.asarray(t, dtype=float)
        + 0.5 * slope * np.asarray(t, dtype=float) ** 2,
        inv_cum_rate=inv_cum_rate,
        h_form=h_form,
        ktilde_sampler=ktilde,
    )


def make_tcp_linear(delta: float) -> Model:
    # the identity rate, not 0 + 1*x: it hands a float array back unchanged,
    # so the affine forms cost no extra array pass per engine round
    return _tcp("tcp_linear", delta, weight=linear_weight,
                **_affine_rate_forms(lambda x: np.asarray(x, dtype=float), 1.0))


def make_affine_rate_tcp(lambda_star: float, slope: float, delta: float) -> Model:
    """Nondecreasing-rate model with rate(x) = lambda_star + slope*x and
    the closed forms of :func:`_affine_rate_forms` throughout.  Its
    log-Lipschitz constant is slope/lambda_star, reached at x = 0.
    """
    if not (lambda_star > 0 and slope > 0):
        raise ValueError("lambda_star and slope must be positive")
    return _tcp("tcp_increasing", delta, **_affine_rate_forms(
        lambda x: lambda_star + slope * np.asarray(x, dtype=float), slope))


# ---------------------------------------------------------------------------
# storage model
# ---------------------------------------------------------------------------

def make_storage(params: StorageParams) -> Model:
    lam = float(params.rate)
    sampler = params.increment_sampler

    def jump(x, rng):
        u = np.asarray(sampler(_draws(rng, x)), dtype=float)
        return np.asarray(x, dtype=float) + u

    return Model(
        name="storage",
        domain_low=0.0,
        domain_high=np.inf,
        flow=lambda x, t: np.asarray(x, dtype=float) * np.exp(-np.asarray(t, dtype=float)),
        jump=jump,
        **_constant_rate_forms(lam),
    )


# ---------------------------------------------------------------------------
# twisted linear-rate model: image under the flattening chart
# ---------------------------------------------------------------------------

class PsiChart:
    """The concave chart psi(x) = integral of weight^{-1/2} from 0 to x.

    With weight 1 - exp(-x) the integral is 2 artanh sqrt(1 - exp(-x)),
    evaluated as x + 2 log1p(sqrt(-expm1(-x))), so psi(x) - x rises to
    log 4.  The inverse is 2 log cosh(z/2): 2 log1p(2 sinh^2(z/4)) below
    ``_SWITCH``, and from there on z - log 4 + 2 log1p(exp(-z)), which
    never overflows (sinh^2(z/4) does past z of about 2840).  Both agree
    with the exact values to about one ulp, point by point.
    """

    name = "twisted"
    _SWITCH = 40.0

    def psi(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x < 0):
            raise ValueError("chart argument must be nonnegative")
        out = x + 2.0 * np.log1p(np.sqrt(-np.expm1(-x)))
        return out if out.ndim else float(out)

    def psi_inv(self, z):
        z = np.asarray(z, dtype=float)
        if np.any(z < 0):
            raise ValueError("chart value must be nonnegative")
        near = 2.0 * np.log1p(2.0 * np.sinh(0.25 * np.minimum(z, self._SWITCH)) ** 2)
        far = z - math.log(4.0) + 2.0 * np.log1p(np.exp(-z))
        out = np.where(z < self._SWITCH, near, far)
        return out if out.ndim else float(out)


_CHART = PsiChart()


def psi_chart() -> PsiChart:
    return _CHART


def conjugate(base: Model, chart) -> Model:
    """``base`` seen through the chart that flattens its gradient weight.

    ``chart.psi`` maps native states to chart coordinates, ``chart.psi_inv``
    maps back, and the chart's slope is weight^{-1/2}: the image has unit
    weight.  Its callables take chart coordinates, and every library
    function runs them as they are; the experiments run ``base`` natively
    and map its states through the chart.  The image is
    ``<chart.name>_<base.name>``.
    """
    psi, psi_inv = chart.psi, chart.psi_inv

    def on_base(fn):
        return lambda z, *rest: fn(psi_inv(z), *rest)

    return Model(
        name=f"{chart.name}_{base.name}",
        domain_low=base.domain_low,
        domain_high=base.domain_high,
        flow=lambda z, t: psi(base.flow(psi_inv(z), t)),
        rate=on_base(base.rate),
        cum_rate=on_base(base.cum_rate),
        inv_cum_rate=on_base(base.inv_cum_rate),
        jump=lambda z, rng: psi(base.jump(psi_inv(z), rng)),
        h_form=on_base(base.h_form),
        ktilde_sampler=on_base(base.ktilde_sampler),
        base=base,
        chart=chart,
    )


def make_twisted_tcp_linear(delta: float) -> Model:
    return conjugate(make_tcp_linear(delta), psi_chart())
