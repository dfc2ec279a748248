"""Piecewise deterministic Markov process abstraction and exact simulation.

A process is described by a deterministic flow, a state-dependent jump
intensity with its accumulated integral along the flow and the inverse of
that integral, and a jump kernel.  Jump times are produced by inverse
transform: the accumulated intensity evaluated at the jump time is a
standard exponential variable, so models with closed-form inverses are
simulated exactly (no discretisation anywhere).

Two engines are provided: ``simulate_path`` produces one trajectory with
its full event log, and ``_advance`` moves one chunk of an ensemble across
a whole grid of segments using counter-indexed marks, so that replication
``k`` consumes the same draw sequence regardless of batching, and coupled
ensembles can share those draws (common random numbers).  Each path
carries its state and a pending jump time, drawn once per jump: at a grid
time a path whose jump lies beyond the segment only flows, with no mark
and no accumulated-rate evaluation.  The paths that do jump inside a
segment are kept as a compacted set that shrinks each round by integer
gathers, which cost a fraction of a boolean-mask selection.

The initial clock of replication ``k`` is mark (k, 0, slot 0) of the node
of segment 0; the i-th jump inside segment j uses kernel slots
(k, i, 1..63) of node j, and the clock drawn after it is (k, i + 1, slot 0)
of node j.  ``simulate_ensemble`` is the one-segment case; the ensemble
goes through the engine in chunks of 65,536 paths keyed by their global
replication index, so neither the chunking nor the ``workers`` threads
that run the chunks change a value.  ``nested_grid_statistics`` runs one
chunk of whole atoms per task across the grid, segment j on node
``stream.substream(0, j)``, and reduces every test function to per-atom
statistics at each grid time while the chunk is still in cache.
``ensemble_states_at`` (the ``simulate`` time average) still restarts
``simulate_ensemble`` at each sampling time with a fresh clock: both
routes give the law of the process at each time, and moving the time
average onto pending clocks would re-draw every ``simulate`` output.
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

    The ensemble is advanced as one segment in contiguous chunks of
    ``_CHUNK`` paths, each keyed by the global replication index, so the
    chunking never changes a value; the chunks run on ``workers`` threads.
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
    marks = [EventMarks(stream)]

    def chunk(lo):
        # a path with a zero horizon draws nothing and keeps its state
        xs, ts = x[lo:lo + _CHUNK], t[lo:lo + _CHUNK]
        live = np.flatnonzero(ts > 0)
        moved = xs[live]
        _advance(model, moved, live + lo, [ts[live]], marks, max_events)
        xs[live] = moved

    run_tasks([lambda lo=lo: chunk(lo) for lo in range(0, x.size, _CHUNK)], workers)
    return x


def _advance(model: Model, x, reps, steps, marks, max_events: int, visit=None):
    """Advance a chunk of paths with replication indices ``reps`` across
    consecutive segments, writing the states into ``x`` in place.

    Segment j lasts ``steps[j]``, a nonnegative scalar or one positive
    length per path, and draws from ``marks[j]``; ``visit(j, x)``, if
    given, sees the states at its end.  Each path carries a pending jump
    time ``r``, drawn once per jump; the initial one comes from node 0
    whichever segment moves first.
    """
    r = None
    for j, (seg, m) in enumerate(zip(steps, marks)):
        if np.any(seg > 0):
            if r is None:
                r = model.inv_cum_rate(x, marks[0].exponential(reps, 0, slot=0))
            _segment(model, x, r, reps, seg, m, max_events)
        if visit is not None:
            visit(j, x)


def _segment(model: Model, x, r, reps, seg, marks: EventMarks, max_events: int):
    """Carry states ``x`` and pending jump times ``r`` across a segment of
    length ``seg``, in place.  Every path flows across it; the paths whose
    jump falls inside it are redone as compacted arrays that shrink each
    round by integer gathers."""
    alive = np.flatnonzero(r < seg)
    ids, xa, ra = reps[alive], x[alive], r[alive]
    ta = np.broadcast_to(seg, x.shape)[alive]
    x[:] = model.flow(x, seg)
    r -= seg
    event = 0
    while alive.size:
        # as in a one-segment run, at most max_events - 1 jumps a segment
        if event + 1 >= max_events:
            raise ExplosionError(f"more than {max_events} events in ensemble")
        xa = model.jump(model.flow(xa, ra), MarkView(marks, ids, event))
        ta -= ra
        event += 1
        ra = model.inv_cum_rate(xa, marks.exponential(ids, event, slot=0))
        done = ra >= ta
        fin = np.flatnonzero(done)
        x[alive[fin]] = model.flow(xa[fin], ta[fin])
        r[alive[fin]] = ra[fin] - ta[fin]
        keep = np.flatnonzero(~done)
        alive, ids, xa, ra, ta = (a[keep] for a in (alive, ids, xa, ra, ta))


def ensemble_states_at(
    model: Model, x0, times, stream: RandomStream,
    max_events: int = MAX_EVENTS_DEFAULT,
):
    """States of an ensemble sampled at a grid of times.

    Returns an array of shape (n_paths, n_times).  The grid must be
    nondecreasing; the ensemble is advanced segment by segment, so the
    samples along a row belong to one path.  Each segment is its own
    ``simulate_ensemble`` call on ``stream.substream(j)``, with a fresh
    jump clock at its start (valid by the Markov property), not the
    pending clocks of ``nested_grid_statistics``.
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


def _row_stats(v):
    """Per-row mean and ddof-1 variance of a (rows, n) array from one row
    sum, by ``np.var``'s own steps, so both equal ``v.mean(axis=1)`` and
    ``v.var(axis=1, ddof=1)`` to the bit."""
    n = v.shape[1]
    mean = np.add.reduce(v, axis=1, keepdims=True)
    mean /= n
    d = np.subtract(v, mean)
    np.square(d, out=d)
    return mean[:, 0], np.add.reduce(d, axis=1) / (n - 1)


def nested_grid_statistics(model: Model, fs, atoms, times, inner_n: int,
                           stream: RandomStream, bumps=None, workers: int = 1):
    """Per-atom inner means and ddof-1 variances of every f along a time grid.

    Each atom is repeated ``inner_n`` times, replication a * inner_n + i
    for inner path i of atom a, and the paths are advanced once across the
    nondecreasing grid with pending jump clocks, segment j on node
    ``stream.substream(0, j)``.  One task takes a run of whole atoms of at
    most ``_CHUNK`` paths, builds its own repeated starts and, at each grid
    time, reduces every f on its states to per-atom statistics while the
    chunk is still in cache; the tasks run on ``workers`` threads without
    changing any value.
    With ``bumps`` the statistics are those of the central difference
    (f(up) - f(down)) / (2 bump) between twins started at atom +/- bump,
    which share every mark (common random numbers); past time zero that
    needs a synchronously coupled model (a jump clock independent of the
    state), and any other model raises ValueError.
    Returns (means, variances), each of shape (len(fs), len(times), atoms).
    """
    if inner_n < 2:
        raise ValueError("need at least two inner replications")
    atoms = np.atleast_1d(np.asarray(atoms, dtype=float))
    steps = np.diff(np.asarray(times, dtype=float), prepend=0.0)
    if np.any(steps < 0):
        raise ValueError("times must be nondecreasing and nonnegative")
    # twins share every mark, so they jump together exactly when the
    # accumulated rate along the flow does not depend on the start state
    probe = np.clip([0.5, 1.0, 2.0, 4.0], model.domain_low, model.domain_high)
    if bumps is not None and np.any(steps > 0) and np.ptp(model.cum_rate(probe, 1.0)) > 0:
        raise ValueError(f"{model.name} is not synchronously coupled: bumped twins can "
                         "jump apart, so the central difference has no honest error")
    means = np.empty((len(fs), steps.size, atoms.size))
    ivars = np.empty_like(means)
    marks = [EventMarks(stream.substream(0, j)) for j in range(steps.size)]
    twins = 1 if bumps is None else 2
    per_task = max(1, _CHUNK // (twins * int(inner_n)))

    def task(lo, hi):
        starts = atoms[lo:hi] if bumps is None else \
            np.concatenate([atoms[lo:hi] + s * bumps[lo:hi] for s in (1.0, -1.0)])
        model.require_in_domain(starts, "start state")
        x = np.repeat(starts, inner_n)
        reps = np.tile(np.arange(lo * inner_n, hi * inner_n), twins)

        def visit(j, x):
            for i, f in enumerate(fs):
                v = np.asarray(f(x), dtype=float).reshape(twins, hi - lo, inner_n)
                v = v[0] if bumps is None else (v[0] - v[1]) / (2.0 * bumps[lo:hi, None])
                means[i, j, lo:hi], ivars[i, j, lo:hi] = _row_stats(v)

        _advance(model, x, reps, steps, marks, MAX_EVENTS_DEFAULT, visit)

    run_tasks([lambda lo=lo: task(lo, min(atoms.size, lo + per_task))
               for lo in range(0, atoms.size, per_task)], workers)
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
