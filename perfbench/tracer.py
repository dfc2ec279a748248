"""Layer spans and exact counts for the traced run, installed from outside.

Nothing under ``src/`` is edited.  ``install`` rebinds the package's public
functions in every module namespace that holds them (``experiments``,
``estimators`` and ``embedded`` import names directly, so patching only the
defining module would miss those call sites), wraps ``EventMarks``,
``MarkView``, ``RandomStream``, ``PsiChart``, ``EmpiricalMeasure`` and
``Report`` methods at class level, and wraps the public ``models.make_*``
factories so every model they return carries wrapped callables.

A span is (name, layer, start, end, parent span, operation).  A layer's
self time is the sum over its spans of the span's duration minus the
durations of its direct children; calls are sequential (one worker), so
children never overlap.  The self times of all layers therefore add up to
the summed duration of the operation root spans.

Counts are derived from call arguments only, so they repeat exactly for a
fixed seed:

- ``core.ensemble.paths`` / ``path_time``: replications and replications
  times horizon passed to ``simulate_ensemble``;
- ``core.ensemble.path_rounds``: elements of slot-0
  ``EventMarks.exponential`` calls (the engine draws one clock mark per
  alive path per round; jump kernels use slots 1..63);
- ``estimators.nested.inner_paths`` and ``resim_ratio``: atoms times inner
  replications of each nested-MC call (twice for the bump pair of
  ``energy_W``), and the path-time they simulate over the path-time needed
  to advance the widest (atom x inner) ensemble of the operation once to
  the last time of the configured grid.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import time
from collections import defaultdict

import numpy as np

_WRAPPED = "__perfbench_wrapped__"

# (module, function) -> layer; every module namespace holding the same
# function object gets the wrapper.
FUNCTION_LAYERS = {
    "core": {
        "simulate_ensemble": "core.ensemble",
        "simulate_path": "core.ensemble",
        "sample_jump_time": "core.ensemble",
        "semigroup_estimate": "core.ensemble",
        "gradient_semigroup_estimate": "core.ensemble",
        # only time_average_states drives the segment loop
        "ensemble_states_at": "embedded.time_average",
    },
    "embedded": {
        "chain_step": "embedded.chain",
        "kernel_K_sample": "embedded.chain",
        "chain_sample_matrix": "embedded.chain",
        "chain_invariant_sample": "embedded.chain",
        "reconstruct_mu": "embedded.reconstruct",
        "kernel_Ktilde_sample": "embedded.reconstruct",
        "h_function": "embedded.reconstruct",
        "normaliser_estimate": "embedded.bootstrap",
        "time_average_states": "embedded.time_average",
        "time_average_measure": "embedded.time_average",
    },
    "estimators": {
        "semigroup_inner_statistics": "estimators.nested",
        "variance_of_semigroup": "estimators.nested",
        "energy_W": "estimators.nested",
        "entropy_p": "estimators.entropy",
        "entropy_p_with_error": "estimators.entropy",
        "inequality_details": "estimators.entropy",
        "empirical_inequality_ratio": "estimators.entropy",
        "wasserstein_1d": "estimators.w1",
        "fit_decay_rate": "estimators.fit",
    },
    "models": {
        "linear_weight": "models.fns",
        "linear_h": "models.fns",
        "linear_ktilde_times": "models.fns",
        "exponential_increment": "models.fns",
        "tcp_constant_invariant_moments": "models.fns",
        "tcp_constant_spectrum": "models.fns",
        "psi_chart": "models.chart",
    },
    "experiments": {
        "run_experiment": "experiments",
        "build_model": "experiments",
        "entropy_decay_series": "experiments",
        "certificate_ledger": "certificates",
        "write_series_csv": "io",
        "write_ledger_csv": "io",
    },
}

# (module, class) -> (layer, wrapped methods)
METHOD_LAYERS = {
    ("rng", "EventMarks"): ("rng.marks", ("uniform", "exponential", "normal")),
    ("rng", "MarkView"): ("rng.marks", ("uniform", "exponential", "normal")),
    ("rng", "RandomStream"): ("rng.streams", ("__init__", "substream", "spawn", "uniform",
                                              "exponential", "normal", "key64")),
    ("models", "PsiChart"): ("models.chart", ("__init__", "psi", "psi_inv")),
    ("embedded", "EmpiricalMeasure"): ("io", ("to_csv",)),
    ("experiments", "Report"): ("io", ("write",)),
}

MODEL_FIELDS = ("drift", "flow", "rate", "cum_rate", "inv_cum_rate", "jump",
                "jump_gradient_bound", "weight", "h_form", "ktilde_sampler")

LAYERS = ("experiments", "certificates", "io", "core.ensemble", "rng.marks", "rng.streams",
          "models.fns", "models.chart", "embedded.chain", "embedded.reconstruct",
          "embedded.bootstrap", "embedded.time_average", "estimators.nested",
          "estimators.entropy", "estimators.w1", "estimators.fit")

# count -> unit
COUNTS = {
    "core.ensemble.calls": "count", "core.ensemble.paths": "count",
    "core.ensemble.path_rounds": "count", "core.ensemble.path_time": "path-time",
    "rng.marks.draws": "count", "rng.streams.substreams": "count",
    "estimators.nested.inner_paths": "count", "estimators.nested.path_time": "path-time",
    "models.chart.points": "count", "embedded.chain.steps": "count",
    "embedded.chain.states": "count", "embedded.bootstrap.resamples": "count",
    "io.bytes": "bytes",
}


class Recorder:
    """In-memory spans, per-layer self time and counts."""

    def __init__(self):
        self.spans = []
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.op = -1
        self.op_widest = defaultdict(int)  # op -> widest nested-MC ensemble
        self._stack = []  # [span index, start, child time]

    def enter(self, name, layer):
        start = time.perf_counter()
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, layer, start, None, parent, self.op])
        self._stack.append([len(self.spans) - 1, start, 0.0])

    def leave(self):
        end = time.perf_counter()
        idx, start, child = self._stack.pop()
        span = self.spans[idx]
        span[3] = end
        self.self_s[span[1]] += (end - start) - child
        if self._stack:
            self._stack[-1][2] += end - start

    def count(self, name, value):
        self.counts[name] += value

    def write(self, path):
        """Spans as tab-separated lines: name layer start end parent op."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tlayer\tstart\tend\tparent\top\n")
            for name, layer, start, end, parent, op in self.spans:
                fh.write(f"{name}\t{layer}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")


def _size(x):
    return int(np.size(x)) if x is not None else 0


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


# count hooks, called with (recorder, args, kwargs): BEFORE ones ahead of the
# call, AFTER ones once it has returned
def _count_ensemble(rec, args, kwargs):
    x0 = np.asarray(_arg(args, kwargs, 1, "x0"), dtype=float)
    t = np.asarray(_arg(args, kwargs, 2, "t_end"), dtype=float)
    horizons = np.broadcast_to(t, np.broadcast_shapes(x0.shape, t.shape))
    rec.count("core.ensemble.calls", 1)
    rec.count("core.ensemble.paths", horizons.size)
    rec.count("core.ensemble.path_time", float(horizons.sum()))


def _count_marks_uniform(rec, args, kwargs):
    rec.count("rng.marks.draws", _size(_arg(args, kwargs, 1, "reps")))


def _count_marks_exponential(rec, args, kwargs):
    if _arg(args, kwargs, 3, "slot", 0) == 0:
        rec.count("core.ensemble.path_rounds", _size(_arg(args, kwargs, 1, "reps")))


def _nested(rec, n, t):
    if t > 0:
        rec.count("estimators.nested.inner_paths", n)
        rec.count("estimators.nested.path_time", n * float(t))
        rec.op_widest[rec.op] = max(rec.op_widest[rec.op], n)


def _count_inner_statistics(rec, args, kwargs):
    atoms = _arg(args, kwargs, 2, "atoms")
    inner = int(_arg(args, kwargs, 4, "inner_n"))
    _nested(rec, _size(atoms) * inner, _arg(args, kwargs, 3, "t"))


def _count_energy(rec, args, kwargs):
    mu = _arg(args, kwargs, 2, "mu_hat")
    inner = int(_arg(args, kwargs, 4, "inner_n"))
    # the bump pair simulates two ensembles of atoms x inner paths
    _nested(rec, 2 * mu.size * inner, _arg(args, kwargs, 3, "t"))


def _count_substream(rec, args, kwargs):
    rec.count("rng.streams.substreams", 1)


def _count_chart(rec, args, kwargs):
    rec.count("models.chart.points", _size(args[1]))


def _count_chain_step(rec, args, kwargs):
    rec.count("embedded.chain.steps", 1)
    rec.count("embedded.chain.states", _size(_arg(args, kwargs, 1, "x")))


def _count_bootstrap(rec, args, kwargs):
    rec.count("embedded.bootstrap.resamples", int(_arg(args, kwargs, 3, "n_boot", 64)))


def _bytes_after(pos):
    def hook(rec, args, kwargs):
        rec.count("io.bytes", os.path.getsize(_arg(args, kwargs, pos, "path")))
    return hook


BEFORE = {
    "core.simulate_ensemble": _count_ensemble,
    "rng.EventMarks.uniform": _count_marks_uniform,
    "rng.EventMarks.exponential": _count_marks_exponential,
    "rng.RandomStream.substream": _count_substream,
    "models.PsiChart.psi": _count_chart,
    "models.PsiChart.psi_inv": _count_chart,
    "embedded.chain_step": _count_chain_step,
    "embedded.normaliser_estimate": _count_bootstrap,
    "estimators.semigroup_inner_statistics": _count_inner_statistics,
    "estimators.energy_W": _count_energy,
}

AFTER = {
    "embedded.EmpiricalMeasure.to_csv": _bytes_after(1),
    "experiments.Report.write": _bytes_after(1),
    "experiments.write_series_csv": _bytes_after(0),
    "experiments.write_ledger_csv": _bytes_after(0),
}


def wrap(fn, name, layer, rec):
    if getattr(fn, _WRAPPED, False):
        return fn
    before = BEFORE.get(name)
    after = AFTER.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(rec, args, kwargs)
        rec.enter(name, layer)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.leave()
        if after is not None:
            after(rec, args, kwargs)
        return out

    setattr(wrapper, _WRAPPED, True)
    return wrapper


def _rebind(modules, original, wrapped):
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapped)


def _wrap_factory(factory, name, rec):
    made = wrap(factory, name, "models.fns", rec)

    @functools.wraps(factory)
    def build(*args, **kwargs):
        model = made(*args, **kwargs)
        fields = {f: wrap(getattr(model, f), f"models.{model.name}.{f}", "models.fns", rec)
                  for f in MODEL_FIELDS if getattr(model, f, None) is not None}
        return dataclasses.replace(model, **fields)

    setattr(build, _WRAPPED, True)
    return build


def install(package, rec: Recorder):
    """Wrap the package's layer boundaries.

    Returns the listed names the package no longer has; a missing name
    leaves its time with the enclosing layer instead of stopping the traced
    run.
    """
    import importlib

    names = ("rng", "core", "models", "embedded", "estimators", "certificates",
             "experiments", "config", "cli")
    mods = {n: importlib.import_module(f"{package.__name__}.{n}") for n in names}
    namespaces = [package] + list(mods.values())
    missing = []

    certs = mods["certificates"]
    table = {m: dict(fns) for m, fns in FUNCTION_LAYERS.items()}
    table["certificates"] = {f: "certificates" for f in certs.__all__
                             if callable(getattr(certs, f))
                             and not isinstance(getattr(certs, f), type)}
    for mod_name, fns in table.items():
        for fn_name, layer in fns.items():
            name = f"{mod_name}.{fn_name}"
            original = getattr(mods[mod_name], fn_name, None)
            if original is None:
                missing.append(name)
                continue
            _rebind(namespaces, original, wrap(original, name, layer, rec))

    for (mod_name, cls_name), (layer, methods) in METHOD_LAYERS.items():
        cls = getattr(mods[mod_name], cls_name, None)
        for meth in methods:
            name = f"{mod_name}.{cls_name}.{meth}"
            if cls is None or not hasattr(cls, meth):
                missing.append(name)
                continue
            setattr(cls, meth, wrap(getattr(cls, meth), name, layer, rec))

    models = mods["models"]
    for fn_name in models.__all__:
        if fn_name.startswith("make_"):
            original = getattr(models, fn_name)
            _rebind(namespaces, original, _wrap_factory(original, f"models.{fn_name}", rec))
    return missing
