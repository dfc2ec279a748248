"""Exact simulation and rate certification for piecewise deterministic
Markov processes on the half-line."""

from .certificates import (BalanceSpec, ConfiningProfile, Ledger, balance_eta,
                           certify_tcp_constant, certify_tcp_increasing,
                           certify_tcp_linear, confining_compose,
                           confining_fixed_point, generalized_poincare_alpha,
                           muckenhoupt_bound, perturb_logsob, perturb_poincare,
                           push_through, theta_constant)
from .config import RunConfig, parse_config, serialize
from .core import (Estimate, Model, Trajectory, gradient_semigroup_estimate,
                   sample_jump_time, semigroup_estimate, simulate_ensemble,
                   simulate_path)
from .embedded import (EmpiricalMeasure, chain_invariant_sample, chain_step,
                       h_function, kernel_K_sample, kernel_Ktilde_sample,
                       reconstruct_mu)
from .estimators import (DecayFit, TestFunction, default_family,
                         empirical_inequality_ratio, energy_W, entropy_p,
                         fit_decay_rate, variance_of_semigroup, wasserstein_1d)
from .experiments import run_experiment
from .models import (StorageParams, TcpConstantParams, make_storage,
                     make_tcp_constant, make_tcp_linear, make_twisted_tcp_linear,
                     tcp_constant_invariant_moments, tcp_constant_spectrum)
from .rng import RandomStream

__version__ = "0.1.0"
