"""One record per model id: everything the config parser and the
experiments know about a model.

Callables are reached through their modules at call time, so wrappers
installed on those modules see every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from . import certificates as cert
from . import embedded, models

if TYPE_CHECKING:
    from .config import RunConfig
    from .core import Model

__all__ = ["InequalitySpec", "ModelRecord", "REGISTRY"]


@dataclass(frozen=True)
class InequalitySpec:
    """Empirical inequality check: p-entropy over (weighted) energy against
    the bound of that name."""

    p: float
    bound: str
    weighted: bool = False


@dataclass(frozen=True)
class ModelRecord:
    """``certificate`` returns the model's certificate ledger, and ``bounds``
    names the ledger quantities ``certify`` reports as positive; ``verify``
    names the decay measurement of the verify experiment (w1, energy,
    entropy or variance); ``check`` returns one more (name, ok, detail)
    certify assertion from the ledger; ``params`` holds (field, rule) pairs
    the config parser enforces for this model on top of the field's own
    rule."""

    build: Callable[[RunConfig], Model]
    certificate: Callable[[RunConfig, Model], cert.Ledger]
    bounds: tuple
    verify: str
    inequality: Optional[InequalitySpec] = None
    check: Optional[Callable[[RunConfig, cert.Ledger], tuple]] = None
    params: tuple = ()

    def supports(self, experiment: str) -> bool:
        return experiment != "inequality" or self.inequality is not None


def _closed_form_check(config, ledger):
    closed = 4.0 / (config.rate ** 2 * (1.0 - config.delta ** 2))
    got = ledger.poincare_c
    return ("profile_route_matches_closed_form", abs(got - closed) <= 1e-12 * closed,
            f"algebra={got:.17g} closed={closed:.17g}")


def _rate_interval_check(config, ledger):
    a_rate = (1.0 - config.delta) * cert.theta_constant()
    return ("rate_inside_certified_interval", 0.0 < ledger.rate_r < a_rate,
            f"rate={ledger.rate_r:.6g} upper={a_rate:.6g}")


REGISTRY = {
    "tcp_constant": ModelRecord(
        build=lambda c: models.make_tcp_constant(
            models.TcpConstantParams(rate=c.rate, delta=c.delta)),
        certificate=lambda c, m: cert.certify_tcp_constant(c.rate, c.delta),
        bounds=("poincare_c", "gradient_rate", "wasserstein_rate", "optimal_w1_rate"),
        verify="w1",
        inequality=InequalitySpec(2.0, "poincare_c"),
        check=_closed_form_check,
    ),
    "tcp_linear": ModelRecord(
        build=lambda c: models.make_tcp_linear(c.delta),
        certificate=lambda c, m: cert.certify_tcp_linear(c.delta),
        bounds=("entropy_c", "rate_r", "weighted_logsob_c"),
        verify="entropy",
        inequality=InequalitySpec(1.0, "weighted_logsob_c", weighted=True),
        check=_rate_interval_check,
    ),
    "tcp_increasing": ModelRecord(
        build=lambda c: models.make_affine_rate_tcp(c.lambda_star, c.rate_slope, c.delta),
        # kappa is the affine rate's largest log slope, rate_slope/lambda_star at x = 0
        certificate=lambda c, m: cert.certify_tcp_increasing(
            c.lambda_star, c.delta, c.rate_slope / c.lambda_star,
            h_at=lambda x: embedded.h_function(m, x)),
        bounds=("poincare_c", "decay_rate", "eta", "beta"),
        verify="variance",
        inequality=InequalitySpec(2.0, "poincare_c"),
        # the certificate needs a contracting jump
        params=(("delta", "be positive"),),
    ),
    # no inequality certificate: the pre-jump kernel spreads mass
    "storage": ModelRecord(
        build=lambda c: models.make_storage(
            models.StorageParams(c.rate, models.exponential_increment(c.u_scale))),
        certificate=lambda c, m: cert.certify_storage(c.rate),
        bounds=("gradient_rate", "wasserstein_rate"),
        verify="energy",
    ),
    "twisted_tcp_linear": ModelRecord(
        build=lambda c: models.make_twisted_tcp_linear(c.delta),
        certificate=lambda c, m: cert.certify_tcp_linear(c.delta),
        bounds=("weighted_logsob_c", "rate_r"),
        verify="entropy",
        inequality=InequalitySpec(1.0, "weighted_logsob_c"),
        check=_rate_interval_check,
    ),
}
