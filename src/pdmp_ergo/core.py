"""Piecewise deterministic Markov process abstraction and exact simulation.

A process is described by a deterministic flow, a state-dependent jump
intensity with its accumulated integral along the flow and the inverse of
that integral, and a jump kernel.  Jump times are produced by inverse
transform: the accumulated intensity evaluated at the jump time is a
standard exponential variable, so models with closed-form inverses are
simulated exactly (no discretisation anywhere).

Two engines are provided: ``simulate_path`` produces one trajectory with
its full event log, ``simulate_ensemble`` advances many replications at
once using counter-indexed marks so that replication ``k`` consumes the
same draw sequence regardless of batching, and coupled ensembles can
share those draws (common random numbers).  It works through the ensemble
in cache-sized chunks of 65,536 paths keyed by their global replication
index, so neither the chunking nor the ``workers`` threads that run the
chunks change a value.  Within a chunk the paths still alive are kept as a
compacted set (indices, states, remaining times) that shrinks each round by
integer gathers, which cost a fraction of a boolean-mask selection.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from .rng import EventMarks, MarkView, RandomStream

__all__ = [
    "Model",
    "Trajectory",
    "Estimate",
    "DomainError",
    "ExplosionError",
    "sample_jump_time",
    "simulate_path",
    "simulate_ensemble",
    "ensemble_states_at",
    "nested_grid_statistics",
    "semigroup_estimate",
    "gradient_semigroup_estimate",
    "default_bump",
]

MAX_EVENTS_DEFAULT = 10_000_000
# paths advanced together by the ensemble engine: a chunk's working set
# stays in a core's cache
_CHUNK = 65_536
# paths advanced at once by one atom block of nested_grid_statistics
_ATOM_BLOCK = 2_000_000


class DomainError(ValueError):
    """A state or start point fell outside the model domain."""


class ExplosionError(RuntimeError):
    """Event count exceeded the guard; the model violates non-explosiveness."""


def _ones_like(x):
    return np.ones_like(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class Model:
    """A PDMP on an open interval of the real line.

    Core fields follow the jump-time construction: ``flow(x, t)`` is the
    deterministic motion, ``rate(x)`` the jump intensity, ``cum_rate(x, t)``
    its integral along the flow started at ``x``, ``inv_cum_rate(x, u)``
    the inverse of that integral in ``t``, and ``jump(x, rng)`` a sample
    of the post-jump state.  All callables must accept numpy arrays.

    ``h_form(x)`` and ``ktilde_sampler(x, stream)`` are the closed forms
    the embedded-chain module runs: the mean residual normaliser and a
    sample of the length-biased inter-jump time.

    ``weight`` is the gradient weight used by weighted energies (constantly
    one unless the model says otherwise).

    A chart image carries its ``base`` model and the ``chart`` (``psi`` to
    chart coordinates, ``psi_inv`` back).  Library functions run the
    callables of the model they are given, so an image runs in chart
    coordinates; only the experiments run the base natively and map its
    states through the chart.
    """

    name: str
    domain_low: float
    domain_high: float
    flow: Callable
    rate: Callable
    cum_rate: Callable
    inv_cum_rate: Callable
    jump: Callable
    h_form: Callable
    ktilde_sampler: Callable
    weight: Callable = _ones_like
    base: Optional[Model] = None
    chart: Optional[Any] = None

    def contains(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return (x >= self.domain_low) & (x <= self.domain_high)

    def require_in_domain(self, x, what: str = "state"):
        if not np.all(self.contains(x)):
            raise DomainError(
                f"{what} outside [{self.domain_low}, {self.domain_high}] for model {self.name}"
            )


@dataclass(frozen=True)
class Trajectory:
    """Event log of one path: (jump time, pre-jump state, post-jump state)."""

    initial_state: float
    events: tuple
    end_time: float
    end_state: float

    @property
    def jump_times(self):
        return np.array([e[0] for e in self.events])

    @property
    def n_events(self) -> int:
        return len(self.events)


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo estimate with its standard error."""

    value: float
    std_error: float

    def __iter__(self):
        return iter((self.value, self.std_error))


def _dot(a, b):
    """Sum of a*b in numpy's fixed-order pairwise summation.  ``np.dot``
    would call BLAS, whose partial sums depend on its thread count."""
    return np.add.reduce(np.multiply(a, b), axis=None)


def sample_jump_time(model: Model, x, rng) -> float:
    """Draw the first jump time from state ``x`` by inverse transform."""
    model.require_in_domain(x, "start state")
    e = rng.exponential()
    return float(model.inv_cum_rate(x, e))


def simulate_path(
    model: Model, x0: float, t_end: float, rng: RandomStream,
    max_events: int = MAX_EVENTS_DEFAULT,
) -> Trajectory:
    """Simulate one exact trajectory on [0, t_end] with its event log."""
    model.require_in_domain(x0, "start state")
    if t_end < 0:
        raise ValueError("t_end must be nonnegative")
    x = float(x0)
    t = 0.0
    events = []
    while True:
        e = rng.exponential()
        remaining = t_end - t
        if model.cum_rate(x, remaining) <= e:
            end_state = float(model.flow(x, remaining))
            break
        if len(events) >= max_events:
            raise ExplosionError(f"more than {max_events} events before t={t_end}")
        tau = float(model.inv_cum_rate(x, e))
        pre = float(model.flow(x, tau))
        post = float(model.jump(pre, rng))
        model.require_in_domain(post, "post-jump state")
        t += tau
        events.append((t, pre, post))
        x = post
    return Trajectory(float(x0), tuple(events), float(t_end), end_state)


def simulate_ensemble(
    model: Model, x0, t_end, stream: RandomStream,
    max_events: int = MAX_EVENTS_DEFAULT, workers: int = 1,
):
    """End states at ``t_end`` for a whole ensemble of start states.

    ``x0`` is a 1-d array of starts (scalars are broadcast against
    ``t_end``), ``t_end`` a scalar or per-replication horizon; inputs that
    broadcast to more than one dimension are rejected.  Marks are keyed by
    ``stream``'s identity: calling twice with streams derived from the same
    node replays identical per-replication draws, which is exactly the
    coupling used by the gradient and transport-distance estimators.

    The ensemble is advanced in contiguous chunks of ``_CHUNK`` paths, each
    keyed by the global replication index, so the chunking never changes a
    value; the chunks run on ``workers`` threads.
    """
    x0b, tb = np.broadcast_arrays(np.asarray(x0, dtype=float),
                                  np.asarray(t_end, dtype=float))
    if x0b.ndim > 1:
        raise ValueError(f"x0 and t_end must broadcast to a 1-d ensemble, got shape {x0b.shape}")
    x = np.atleast_1d(x0b).astype(float, copy=True)
    t = np.atleast_1d(tb)
    if np.any(t < 0):
        raise ValueError("t_end must be nonnegative")
    model.require_in_domain(x, "start state")
    marks = EventMarks(stream)
    run_tasks([lambda lo=lo: _advance(model, x[lo:lo + _CHUNK], t[lo:lo + _CHUNK], lo,
                                      marks, max_events)
               for lo in range(0, x.size, _CHUNK)], workers)
    return x


def _advance(model: Model, x, t, lo: int, marks: EventMarks, max_events: int):
    """Advance the slice of an ensemble whose first replication is ``lo``
    to its horizons ``t`` (only read), writing end states into ``x``.  The
    alive paths are compacted arrays that shrink by integer gathers."""
    alive = np.flatnonzero(t > 0)
    reps, xa, ta = alive + lo, x[alive], t[alive]
    event = 0
    while alive.size:
        if event >= max_events:
            raise ExplosionError(f"more than {max_events} events in ensemble")
        e = marks.exponential(reps, event, slot=0)
        done = model.cum_rate(xa, ta) <= e
        fin = np.flatnonzero(done)
        x[alive[fin]] = model.flow(xa[fin], ta[fin])
        keep = np.flatnonzero(~done)
        alive, reps, xa, ta, e = (a[keep] for a in (alive, reps, xa, ta, e))
        if alive.size:
            tau = model.inv_cum_rate(xa, e)
            xa = model.jump(model.flow(xa, tau), MarkView(marks, reps, event))
            ta -= tau
        event += 1


def ensemble_states_at(
    model: Model, x0, times, stream: RandomStream,
    max_events: int = MAX_EVENTS_DEFAULT,
):
    """States of an ensemble sampled at a grid of times.

    Returns an array of shape (n_paths, n_times).  The grid must be
    nondecreasing; the ensemble is advanced segment by segment, so the
    samples along a row belong to one path.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a nonempty 1-d array")
    if np.any(np.diff(times) < 0) or times[0] < 0:
        raise ValueError("times must be nondecreasing and nonnegative")
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    out = np.empty((x.size, times.size))
    for j, step in enumerate(np.diff(times, prepend=0.0)):
        x = simulate_ensemble(model, x, step, stream.substream(j), max_events)
        out[:, j] = x
    return out


def run_tasks(tasks, workers: int):
    """Run thunks, possibly in a thread pool; results in submission order."""
    if workers <= 1 or len(tasks) <= 1:
        return [task() for task in tasks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(task) for task in tasks]
        return [f.result() for f in futures]


def nested_grid_statistics(model: Model, fs, atoms, times, inner_n: int,
                           stream: RandomStream, bumps=None, workers: int = 1):
    """Per-atom inner means and ddof-1 variances of every f along a time grid.

    Each atom is repeated ``inner_n`` times and that ensemble is advanced
    once across the nondecreasing grid, segment j of atom block b on
    ``stream.substream(b, j)``; every f is evaluated on the shared states.
    With ``bumps`` the statistics are those of the central difference
    (f(up) - f(down)) / (2 bump) between twins started at atom +/- bump,
    which replay the same node on every segment (common random numbers);
    past time zero that needs a synchronously coupled model (a jump clock
    independent of the state), and any other model raises ValueError.
    Blocks run one after another; each ensemble's chunks run on ``workers``
    threads without changing any value.
    Returns (means, variances), each of shape (len(fs), len(times), atoms).
    """
    if inner_n < 2:
        raise ValueError("need at least two inner replications")
    atoms = np.atleast_1d(np.asarray(atoms, dtype=float))
    steps = np.diff(np.asarray(times, dtype=float), prepend=0.0)
    # twins share every mark, so they jump together exactly when the
    # accumulated rate along the flow does not depend on the start state
    probe = np.clip([0.5, 1.0, 2.0, 4.0], model.domain_low, model.domain_high)
    if bumps is not None and np.any(steps > 0) and np.ptp(model.cum_rate(probe, 1.0)) > 0:
        raise ValueError(f"{model.name} is not synchronously coupled: bumped twins can "
                         "jump apart, so the central difference has no honest error")
    means = np.empty((len(fs), steps.size, atoms.size))
    ivars = np.empty_like(means)
    twins = 1 if bumps is None else 2
    per_block = max(1, _ATOM_BLOCK // (twins * int(inner_n)))

    for b, lo in enumerate(range(0, atoms.size, per_block)):
        hi = min(atoms.size, lo + per_block)
        xs = [np.repeat(atoms[lo:hi], inner_n)] if bumps is None else \
            [np.repeat(atoms[lo:hi] + s * bumps[lo:hi], inner_n) for s in (1.0, -1.0)]
        for j, step in enumerate(steps):
            node = stream.substream(b, j)
            xs = [simulate_ensemble(model, x, step, node, workers=workers) for x in xs]
            for i, f in enumerate(fs):
                vals = [np.asarray(f(x), dtype=float).reshape(hi - lo, inner_n) for x in xs]
                if bumps is not None:
                    vals = [(vals[0] - vals[1]) / (2.0 * bumps[lo:hi, None])]
                means[i, j, lo:hi] = vals[0].mean(axis=1)
                ivars[i, j, lo:hi] = vals[0].var(axis=1, ddof=1)
    return means, ivars


def semigroup_estimate(model: Model, f: Callable, x: float, t: float, n: int,
                       rng: RandomStream) -> Estimate:
    """Estimate the conditional mean of f at time t started from x."""
    means, ivars = nested_grid_statistics(model, [f], [x], [t], n, rng.spawn())
    return Estimate(float(means[0, 0, 0]), float(np.sqrt(ivars[0, 0, 0] / n)))


def default_bump(x):
    return 1e-4 * np.maximum(1.0, np.abs(np.asarray(x, dtype=float)))


def gradient_semigroup_estimate(
    model: Model, f: Callable, x: float, t: float, n: int, rng: RandomStream,
    h: Optional[float] = None,
) -> Estimate:
    """Central-difference estimate of d/dx of the time-t conditional mean.

    Both bump ensembles replay identical per-replication exponential marks
    and jump draws (they share one stream node), so for synchronously
    coupled models the difference is exact and the variance collapses.
    For t > 0 any other model raises ValueError, as its twins can jump
    apart and the reported standard error would not be honest.
    """
    h = float(default_bump(x) if h is None else h)
    if h <= 0:
        raise ValueError("bump size must be positive")
    means, ivars = nested_grid_statistics(model, [f], [x], [t], n, rng.spawn(), bumps=np.array([h]))
    return Estimate(float(means[0, 0, 0]), float(np.sqrt(ivars[0, 0, 0] / n)))
