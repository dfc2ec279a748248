"""Strict flat key=value run configuration.

One experiment is one flat parameter set; the parser rejects unknown keys
and reports the offending key and line, so a config file pins a run
exactly.  ``serialize`` emits a canonical form whose reparse equals the
original config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from .estimators import default_family
from .registry import REGISTRY

__all__ = ["RunConfig", "ConfigError", "parse_config", "parse_config_text", "serialize"]

EXPERIMENTS = ("simulate", "certify", "verify", "inequality")
MODELS = tuple(REGISTRY)
DEFAULT_FUNCTIONS = tuple(tf.label for tf in default_family())


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    model: str
    experiment: str = "simulate"
    rate: float = 1.0
    delta: float = 0.5
    lambda_star: float = 1.0
    rate_slope: float = 1.0
    u_scale: float = 1.0
    seed: int = 0
    n_outer: int = 10_000
    n_inner: int = 200
    chain_length: int = 100_000
    burn_in: int = 1000
    thinning: int = 1
    time_grid: tuple = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
    functions: tuple = DEFAULT_FUNCTIONS
    workers: int = 1
    out_dir: str = "runs"

    def __post_init__(self):
        # numbers set in code (CLI flags, library callers) obey the same
        # rules as numbers read from a file
        for attr, parse in _KEYS.values():
            if isinstance(getattr(self, attr), (int, float)):
                parse(getattr(self, attr))
        record = REGISTRY.get(self.model)
        if record is None:
            raise ConfigError(f"unknown model {self.model!r}")
        if not record.supports(self.experiment):
            supported = [e for e in EXPERIMENTS if record.supports(e)]
            raise ConfigError(
                f"model {self.model} has no {self.experiment} experiment; "
                f"it supports {', '.join(supported)}")
        for key, rule in record.params:
            if not _RULES[rule](getattr(self, key)):
                raise ConfigError(f"model {self.model}: {key} must {rule}")
        if self.experiment == "simulate" and self.chain_length < 2:
            # one chain state gives one column: no between-chain error
            raise ConfigError("simulate needs chain_length at least 2")


_RULES = {
    "be positive": lambda v: v > 0,
    "be nonnegative": lambda v: v >= 0,
    "be at least 2": lambda v: v >= 2,
    "lie in [0,1)": lambda v: 0.0 <= v < 1.0,
}


def number_parser(key, kind, rule):
    """Parser of one finite ``kind`` (int or float) token obeying ``rule``."""
    noun = "an integer" if kind is int else "a number"

    def parse(tok):
        try:
            v = kind(tok)
        except ValueError:
            raise ConfigError(f"{key} must be {noun}") from None
        if kind is float and not math.isfinite(v):
            raise ConfigError(f"{key} must be finite")
        if not _RULES[rule](v):
            raise ConfigError(f"{key} must {rule}")
        return v
    return parse


def _choice(key, choices):
    def parse(tok):
        if tok not in choices:
            raise ConfigError(f"{key} must be one of {', '.join(choices)}")
        return tok
    return parse


def _time_grid(tok):
    try:
        grid = tuple(float(p) for p in tok.split(",") if p.strip() != "")
    except ValueError:
        raise ConfigError("time_grid must be a comma-separated list of numbers")
    if len(grid) < 1:
        raise ConfigError("time_grid must be nonempty")
    if not all(map(math.isfinite, grid)):
        raise ConfigError("time_grid must be finite")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError("time_grid must be strictly increasing")
    if grid[0] < 0:
        raise ConfigError("time_grid must be nonnegative")
    return grid


def _functions(tok):
    labels = tuple(p.strip() for p in tok.split(",") if p.strip() != "")
    if not labels:
        raise ConfigError("functions must name at least one test function")
    unknown = [lab for lab in labels if lab not in DEFAULT_FUNCTIONS]
    if unknown:
        raise ConfigError(
            f"unknown test function {unknown[0]!r}; known: {', '.join(DEFAULT_FUNCTIONS)}")
    return labels


_KEYS = {
    "experiment": ("experiment", _choice("experiment", EXPERIMENTS)),
    "model": ("model", _choice("model", MODELS)),
    "lambda": ("rate", number_parser("lambda", float, "be positive")),
    "delta": ("delta", number_parser("delta", float, "lie in [0,1)")),
    "lambda_star": ("lambda_star", number_parser("lambda_star", float, "be positive")),
    "rate_slope": ("rate_slope", number_parser("rate_slope", float, "be positive")),
    "u_scale": ("u_scale", number_parser("u_scale", float, "be positive")),
    "seed": ("seed", number_parser("seed", int, "be nonnegative")),
    "n_outer": ("n_outer", number_parser("n_outer", int, "be positive")),
    "n_inner": ("n_inner", number_parser("n_inner", int, "be at least 2")),
    "chain_length": ("chain_length", number_parser("chain_length", int, "be positive")),
    "burn_in": ("burn_in", number_parser("burn_in", int, "be nonnegative")),
    "thinning": ("thinning", number_parser("thinning", int, "be positive")),
    "time_grid": ("time_grid", _time_grid),
    "functions": ("functions", _functions),
    "workers": ("workers", number_parser("workers", int, "be positive")),
    "out_dir": ("out_dir", lambda tok: tok),
}


def parse_config_text(text: str, origin: str = "<config>",
                      experiment: Optional[str] = None) -> RunConfig:
    """Config from ``key = value`` text; ``experiment``, when given, replaces
    the text's experiment before any rule is checked."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, tok = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"{origin}:{lineno}: unknown key {key!r}")
        attr, parser = _KEYS[key]
        if attr in values:
            raise ConfigError(f"{origin}:{lineno}: duplicate key {key!r}")
        try:
            values[attr] = parser(tok)
        except ConfigError as exc:
            raise ConfigError(f"{origin}:{lineno}: {exc}") from None
    if "model" not in values:
        raise ConfigError(f"{origin}: missing required key 'model'")
    if experiment is not None:
        values["experiment"] = experiment
    try:
        return RunConfig(**values)
    except ConfigError as exc:
        raise ConfigError(f"{origin}: {exc}") from None


def parse_config(path, experiment: Optional[str] = None) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    return parse_config_text(text, origin=str(path), experiment=experiment)


def _text(value) -> str:
    if isinstance(value, tuple):
        return ",".join(map(_text, value))
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def serialize(config: RunConfig) -> str:
    """Canonical text form, one line per key in parser order; reparsing
    gives back an equal config."""
    return "".join(f"{key} = {_text(getattr(config, attr))}\n" for key, (attr, _) in _KEYS.items())


def with_overrides(config: RunConfig, **kwargs) -> RunConfig:
    kwargs = {k: v for k, v in kwargs.items() if v is not None}
    return replace(config, **kwargs)
