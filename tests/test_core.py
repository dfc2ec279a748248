import hashlib
import math
import sys

import numpy as np
import pytest
from scipy import integrate, stats

from pdmp_ergo import core
from pdmp_ergo.core import (DomainError, ensemble_states_at, gradient_semigroup_estimate,
                            nested_grid_statistics, sample_jump_time,
                            semigroup_estimate, simulate_ensemble, simulate_path)
from pdmp_ergo.models import (StorageParams, TcpConstantParams, exponential_increment,
                              make_affine_rate_tcp, make_storage, make_tcp_constant,
                              make_tcp_linear, make_twisted_tcp_linear)
from pdmp_ergo.rng import RandomStream

# No engine call in this module needs more than 43 rounds of the event loop.
# Capping them turns an engine that stops spending the remaining time into
# an ExplosionError within seconds instead of a hang.
ROUNDS = 1000


@pytest.fixture(autouse=True)
def bounded_rounds(monkeypatch):
    advance = core._advance
    monkeypatch.setattr(core, "_advance",
                        lambda model, x, reps, steps, marks, max_events, visit=None: advance(
                            model, x, reps, steps, marks, min(max_events, ROUNDS), visit))


class FixedExponential:
    def __init__(self, value):
        self.value = value

    def exponential(self, size=None):
        return self.value if size is None else np.full(size, self.value)


def shipped_models():
    return [
        make_tcp_constant(TcpConstantParams(rate=1.0, delta=0.5)),
        make_tcp_linear(0.5),
        make_storage(StorageParams(1.0, exponential_increment(1.0))),
        make_affine_rate_tcp(1.0, 1.0, 0.5),
        make_twisted_tcp_linear(0.5),
    ]


# ---------------------------------------------------------------------------
# model invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model", shipped_models(), ids=lambda m: m.name)
def test_flow_semigroup_and_cum_rate_roundtrip(model):
    rng = np.random.default_rng(31)
    n = 10_000
    x = rng.uniform(0.01, 25.0, n)
    s = rng.uniform(0.0, 4.0, n)
    t = rng.uniform(1e-3, 4.0, n)

    two_step = model.flow(model.flow(x, s), t)
    one_step = model.flow(x, s + t)
    assert np.all(np.abs(two_step - one_step) <= 1e-10 * np.maximum(1.0, np.abs(one_step)))

    assert np.all(np.abs(model.cum_rate(x, 0.0)) <= 1e-12)
    level = model.cum_rate(x, t)
    back = model.inv_cum_rate(x, level)
    assert np.all(np.abs(back - t) <= 1e-10 * np.maximum(1.0, t))


@pytest.mark.parametrize("model", shipped_models(), ids=lambda m: m.name)
def test_cum_rate_nondecreasing(model):
    ts = np.linspace(0.0, 6.0, 61)
    for x in (0.0, 0.3, 2.0, 11.0):
        vals = model.cum_rate(np.full(ts.shape, x), ts)
        assert np.all(np.diff(vals) >= -1e-12)


# ---------------------------------------------------------------------------
# jump times
# ---------------------------------------------------------------------------

def test_jump_time_constant_rate_forced_draw():
    model = make_tcp_constant(TcpConstantParams(rate=2.0, delta=0.5))
    assert sample_jump_time(model, 3.7, FixedExponential(1.0)) == pytest.approx(0.5, abs=0)


def test_jump_time_linear_rate_forced_draw():
    model = make_tcp_linear(0.5)
    assert sample_jump_time(model, 0.0, FixedExponential(2.0)) == pytest.approx(2.0, abs=0)


def test_jump_time_linear_matches_closed_form_per_draw():
    model = make_tcp_linear(0.5)
    rng = RandomStream(3)
    e = rng.exponential(1000)
    x = np.abs(rng.normal(1000)) * 3
    assert np.array_equal(model.inv_cum_rate(x, e), np.sqrt(x * x + 2 * e) - x) or \
        np.allclose(model.inv_cum_rate(x, e), np.sqrt(x * x + 2 * e) - x, rtol=1e-14)


def test_jump_time_linear_mean_matches_quadrature():
    # independent oracle: E[T] from the density t * exp(-t^2/2) at the origin
    oracle, _ = integrate.quad(lambda t: t * t * np.exp(-0.5 * t * t), 0, np.inf)
    model = make_tcp_linear(0.5)
    e = RandomStream(17).exponential(1_000_000)
    times = model.inv_cum_rate(np.zeros_like(e), e)
    se = times.std(ddof=1) / np.sqrt(times.size)
    assert abs(times.mean() - oracle) <= 3 * se


def test_constant_rate_interjump_times_are_exponential():
    model = make_tcp_constant(TcpConstantParams(rate=1.0, delta=0.5))
    path = simulate_path(model, 0.0, 100_000.0, RandomStream(11))
    times = np.diff(np.concatenate([[0.0], path.jump_times]))
    assert times.size > 90_000
    stat = stats.kstest(times, "expon").statistic
    assert stat < 1.6276 / np.sqrt(times.size)  # 1% critical value


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

def test_empty_trajectory():
    model = make_tcp_constant(TcpConstantParams(rate=1.0, delta=0.5))
    path = simulate_path(model, 3.0, 0.0, RandomStream(0))
    assert path.n_events == 0 and path.end_state == 3.0


def test_pure_flow_with_silent_rate_stub():
    from dataclasses import replace
    storage = make_storage(StorageParams(1.0, exponential_increment(1.0)))
    silent = replace(
        storage,
        rate=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        cum_rate=lambda x, t: np.zeros_like(np.asarray(x, dtype=float) + t),
    )
    path = simulate_path(silent, 1.0, 1.0, RandomStream(1))
    assert path.n_events == 0
    assert path.end_state == pytest.approx(np.exp(-1.0), rel=1e-14)


def test_trajectory_invariants_hold():
    model = make_tcp_linear(0.5)
    path = simulate_path(model, 0.5, 50.0, RandomStream(23))
    assert path.n_events > 10
    times = path.jump_times
    assert np.all(np.diff(times) > 0)
    prev_state, prev_time = path.initial_state, 0.0
    for when, pre, post in path.events:
        expect = model.flow(prev_state, when - prev_time)
        assert abs(pre - expect) <= 1e-10 * max(1.0, abs(expect))
        prev_state, prev_time = post, when
    tail = model.flow(prev_state, path.end_time - prev_time)
    assert abs(path.end_state - tail) <= 1e-10 * max(1.0, abs(tail))


def test_trajectories_bit_identical_on_same_seed():
    model = make_storage(StorageParams(2.0, exponential_increment(0.7)))
    a = simulate_path(model, 1.0, 25.0, RandomStream(77))
    b = simulate_path(model, 1.0, 25.0, RandomStream(77))
    assert a.events == b.events and a.end_state == b.end_state


def test_constant_rate_event_count_is_renewal():
    model = make_tcp_constant(TcpConstantParams(rate=1.0, delta=0.5))
    path = simulate_path(model, 0.0, 10_000.0, RandomStream(5))
    assert abs(path.n_events / 10_000.0 - 1.0) <= 0.02


def test_ensemble_broadcasts_scalar_start_over_horizons():
    model = make_storage(StorageParams(1.0, exponential_increment(1.0)))
    from dataclasses import replace
    silent = replace(
        model,
        rate=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        cum_rate=lambda x, t: np.zeros_like(np.asarray(x, dtype=float) + t),
        # the engine reads the jump time from the inverse: never
        inv_cum_rate=lambda x, u: np.full_like(np.asarray(x, dtype=float) + u, np.inf),
    )
    horizons = np.array([0.0, 1.0, 2.0])
    ends = simulate_ensemble(silent, 1.0, horizons, RandomStream(1))
    assert np.allclose(ends, np.exp(-horizons), rtol=1e-14)


def test_ensemble_matches_marks_reuse():
    model = make_tcp_linear(0.5)
    node = RandomStream(9).substream(1)
    a = simulate_ensemble(model, np.full(512, 1.0), 3.0, node)
    b = simulate_ensemble(model, np.full(512, 1.0), 3.0, node)
    assert np.array_equal(a, b)


def test_ensemble_rejects_a_start_of_more_than_one_dimension():
    model = make_tcp_linear(0.5)
    with pytest.raises(ValueError, match=r"1-d ensemble, got shape \(3, 4\)"):
        simulate_ensemble(model, np.ones((3, 4)), 1.0, RandomStream(0))
    with pytest.raises(ValueError, match=r"got shape \(3, 2\)"):
        simulate_ensemble(model, np.ones((3, 1)), np.ones(2), RandomStream(0))
    assert simulate_ensemble(model, 1.0, 1.0, RandomStream(0)).shape == (1,)
    assert simulate_ensemble(model, np.ones(3), 1.0, RandomStream(0)).shape == (3,)


def _mixed_ensemble(n=101):
    # zero horizons are scattered and fill two whole 7-path chunks, so some
    # chunks start with dead paths and some never advance at all
    rng = np.random.default_rng(21)
    horizons = rng.uniform(0.5, 3.0, n)
    horizons[::5] = 0.0
    horizons[14:28] = 0.0
    return rng.uniform(0.1, 3.0, n), horizons


@pytest.mark.parametrize("model", shipped_models(), ids=lambda m: m.name)
def test_ensemble_chunking_never_changes_a_value(monkeypatch, model):
    x0, horizons = _mixed_ensemble()
    node = RandomStream(13).substream(2)
    whole = simulate_ensemble(model, x0, horizons, node)
    monkeypatch.setattr(core, "_CHUNK", 7)
    chunked = simulate_ensemble(model, x0, horizons, node)
    assert np.array_equal(chunked, whole)
    assert not np.array_equal(whole, model.flow(x0, horizons))


@pytest.mark.parametrize("model", shipped_models(), ids=lambda m: m.name)
def test_ensemble_chunks_on_threads_match_serial(monkeypatch, model):
    # fifteen chunks on more threads than cores write disjoint slices of
    # one array; a lost or misplaced write changes the result
    monkeypatch.setattr(core, "_CHUNK", 7)
    x0, horizons = _mixed_ensemble()
    node = RandomStream(14).substream(3)
    serial = simulate_ensemble(model, x0, horizons, node)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = simulate_ensemble(model, x0, horizons, node, workers=4)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(threaded, serial)


def test_explosion_guard_trips_in_the_last_chunk(monkeypatch):
    from pdmp_ergo.core import ExplosionError
    monkeypatch.setattr(core, "_CHUNK", 7)
    model = make_tcp_constant(TcpConstantParams(rate=50.0, delta=0.5))
    horizons = np.zeros(20)
    horizons[-1] = 100.0
    with pytest.raises(ExplosionError, match="more than 20 events in ensemble"):
        simulate_ensemble(model, np.zeros(20), horizons, RandomStream(2), max_events=20)
    horizons[-1] = 0.01
    simulate_ensemble(model, np.zeros(20), horizons, RandomStream(2), max_events=20)


def test_ensemble_reads_its_inputs_and_never_writes_them(monkeypatch):
    # the horizons may be a read-only array: the engine only reads them
    monkeypatch.setattr(core, "_CHUNK", 7)
    model = make_storage(StorageParams(1.0, exponential_increment(1.0)))
    x0, horizons = _mixed_ensemble()
    horizons.flags.writeable = False
    x0_copy, horizons_copy = x0.copy(), horizons.copy()
    node = RandomStream(15).substream(4)
    serial = simulate_ensemble(model, x0, horizons, node)
    assert np.array_equal(simulate_ensemble(model, x0, horizons, node, workers=2), serial)
    assert np.array_equal(x0, x0_copy) and np.array_equal(horizons, horizons_copy)
    dead = horizons == 0
    assert np.array_equal(serial[dead], x0[dead]) and not np.array_equal(serial, x0)
    still = simulate_ensemble(model, x0, np.zeros_like(x0), node)
    assert still is not x0 and np.array_equal(still, x0)


def test_explosion_guard_trips_when_few_paths_survive():
    # most paths finish in the first rounds; the three long ones must still
    # trip the guard after the alive set has shrunk to them
    from pdmp_ergo.core import ExplosionError
    model = make_tcp_constant(TcpConstantParams(rate=50.0, delta=0.5))
    horizons = np.full(200, 1e-3)
    horizons[[3, 97, 150]] = 100.0
    with pytest.raises(ExplosionError, match="more than 20 events in ensemble"):
        simulate_ensemble(model, np.ones(200), horizons, RandomStream(3), max_events=20)


# ---------------------------------------------------------------------------
# semigroup estimates
# ---------------------------------------------------------------------------

def test_semigroup_constant_function():
    model = make_tcp_constant(TcpConstantParams(rate=1.0, delta=0.5))
    est = semigroup_estimate(model, lambda x: np.ones_like(x), 0.0, 5.0, 100, RandomStream(1))
    assert est.value == pytest.approx(1.0, abs=0) and est.std_error == 0.0


def test_semigroup_time_zero_exact():
    model = make_tcp_constant(TcpConstantParams(rate=1.0, delta=0.5))
    est = semigroup_estimate(model, lambda x: x ** 2, 3.0, 0.0, 50, RandomStream(1))
    assert est.value == pytest.approx(9.0, abs=0)


def test_semigroup_long_run_reaches_invariant_mean():
    # generator identity: the stationary first moment is 1/(rate*(1-delta))
    model = make_tcp_constant(TcpConstantParams(rate=1.0, delta=0.5))
    est = semigroup_estimate(model, lambda x: x, 0.0, 20.0, 100_000, RandomStream(4))
    assert abs(est.value - 2.0) <= 3 * est.std_error


def test_nested_grid_means_match_independent_runs():
    # the grid core advances one ensemble across the grid; at every time its
    # atom-averaged means must agree with a fresh ensemble run from time 0
    model = make_tcp_linear(0.5)
    atoms = np.linspace(0.2, 4.0, 200)
    times = [0.5, 1.0, 2.0, 3.0]
    fs = [lambda x: x, np.sin]
    inner = 64
    means, ivars = nested_grid_statistics(model, fs, atoms, times, inner, RandomStream(11))
    assert means.shape == ivars.shape == (2, 4, 200)
    for j, t in enumerate(times):
        ends = simulate_ensemble(model, np.repeat(atoms, inner), t, RandomStream(12).substream(j))
        for i, f in enumerate(fs):
            vals = f(ends).reshape(atoms.size, inner)
            se = np.sqrt(ivars[i, j].sum() + vals.var(axis=1, ddof=1).sum()) \
                / (atoms.size * np.sqrt(inner))
            assert abs(means[i, j].mean() - vals.mean()) <= 3 * se


def test_nested_grid_refuses_a_decreasing_or_negative_grid():
    model = make_tcp_linear(0.5)
    for times in ([1.0, 0.5], [-0.5, 1.0]):
        with pytest.raises(ValueError, match="nondecreasing and nonnegative"):
            nested_grid_statistics(model, [np.sin], [1.0], times, 4, RandomStream(0))
    with pytest.raises(ValueError, match="nondecreasing and nonnegative"):
        semigroup_estimate(model, np.sin, 1.0, -1.0, 4, RandomStream(0))


def test_nested_grid_twins_replay_one_node():
    # storage twins jump together, so the difference quotient is exact
    model = make_storage(StorageParams(1.0, exponential_increment(1.0)))
    atoms = np.array([0.5, 1.0, 2.0])
    means, ivars = nested_grid_statistics(model, [lambda x: x], atoms, [0.5, 1.0, 2.0], 32,
                                          RandomStream(3), bumps=np.full(3, 1e-4))
    expect = np.exp(-np.array([0.5, 1.0, 2.0]))[:, None] * np.ones(atoms.size)
    np.testing.assert_allclose(means[0], expect, rtol=1e-9)
    assert np.all(ivars <= 1e-18)


def test_nested_grid_threads_match_serial(monkeypatch):
    # eight atom chunks on more threads than cores write disjoint slices
    # of shared arrays; a lost or misplaced write changes the result
    monkeypatch.setattr(core, "_CHUNK", 80)
    model = make_tcp_linear(0.5)
    atoms = np.linspace(0.1, 3.0, 80)
    args = (model, [lambda x: x, np.sin], atoms, [0.5, 1.0], 8, RandomStream(4))
    serial = nested_grid_statistics(*args)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = nested_grid_statistics(*args, workers=4)
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(serial, threaded):
        np.testing.assert_array_equal(a, b)


# sha256 of the end states of the ensemble below, computed before the
# engine carried pending jump clocks across segments; a one-segment run
# must still draw exactly these marks and do exactly this arithmetic
GOLDEN_ENDS = {
    "tcp_constant": "24f06087c9fadd3dddd07d5275545bff2b3c743e0d535a80b454eac3d46e204a",
    "tcp_linear": "7ce3c261ef4ccba7490dc20a665ad93bd2969dacf64fcd0eb94a8523b04f8203",
    "storage": "6429bf4855da86a79ba410f06c4d44ed0eeb273d7a69bda72b57518be4b21daf",
    "tcp_increasing": "aa74deeb6309c5403a241829d8e2559c693d50d515a480a43f0b47c52a391060",
    "twisted_tcp_linear": "0a714836b1d2d35740336912c413ed55e2044d1840597fbf82592982f5da593a",
}


@pytest.mark.parametrize("model", shipped_models(), ids=lambda m: m.name)
def test_ensemble_end_states_match_their_golden_digest(model):
    rng = np.random.default_rng(2024)
    x0 = rng.uniform(0.1, 4.0, 3000)
    horizons = rng.uniform(0.0, 5.0, 3000)
    horizons[::7] = 0.0
    ends = simulate_ensemble(model, x0, horizons, RandomStream(19).substream(3))
    assert hashlib.sha256(ends.tobytes()).hexdigest() == GOLDEN_ENDS[model.name]


def _grid_states(model, atoms, times, inner, stream):
    """Statistics of f = x along the grid and the states the core saw."""
    seen = []

    def record(x):
        seen.append(x.copy())
        return x

    means, ivars = nested_grid_statistics(model, [record], atoms, times, inner, stream)
    return means[0], ivars[0], seen


@pytest.mark.parametrize("model", shipped_models(), ids=lambda m: m.name)
def test_grid_segment_zero_is_the_one_segment_ensemble(model):
    # one chunk of 40 atoms x 16 paths; segment 0 draws on node (0, 0)
    atoms = np.linspace(0.2, 3.0, 40)
    stream = RandomStream(23)
    ends = simulate_ensemble(model, np.repeat(atoms, 16), 0.5, stream.substream(0, 0))
    vals = ends.reshape(atoms.size, 16)
    for times in ([0.5], [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]):
        means, ivars, seen = _grid_states(model, atoms, times, 16, stream)
        assert len(seen) == len(times)
        assert np.array_equal(seen[0], ends)
        assert np.array_equal(means[0], vals.mean(axis=1))
        assert np.array_equal(ivars[0], vals.var(axis=1, ddof=1))


@pytest.mark.parametrize("bumped", [False, True])
def test_nested_grid_values_never_depend_on_chunks_or_workers(monkeypatch, bumped):
    # twins need a synchronously coupled model; without them the clocks
    # depend on the state, so pending clocks carry real information
    model = make_storage(StorageParams(1.0, exponential_increment(1.0))) if bumped \
        else make_tcp_linear(0.5)
    atoms = np.linspace(0.1, 3.0, 300)
    bumps = core.default_bump(atoms) if bumped else None
    args = (model, [lambda x: x, np.sin], atoms, [0.5, 1.0, 1.5, 2.0, 2.5, 3.0], 8,
            RandomStream(31))
    whole = nested_grid_statistics(*args, bumps=bumps)
    for chunk in (7, 1000, core._CHUNK):
        monkeypatch.setattr(core, "_CHUNK", chunk)
        for workers in (1, 2):
            got = nested_grid_statistics(*args, bumps=bumps, workers=workers)
            for a, b in zip(whole, got):
                np.testing.assert_array_equal(a, b)


def _assert_within(means, ivars, inner, exact, k):
    se = np.sqrt(ivars / inner)
    z = (means - exact) / se
    assert np.all(np.abs(z) <= k), z


GRID = np.array([0.5, 1.0, 1.5, 2.0, 2.5, 3.0])


def test_grid_tcp_constant_mean_follows_its_exact_law():
    # d/dt E[X] = 1 - lam (1 - delta) E[X]
    lam, delta = 1.5, 0.4
    model = make_tcp_constant(TcpConstantParams(rate=lam, delta=delta))
    atoms, inner = np.array([0.0, 0.7, 3.0]), 4000
    means, ivars, _ = _grid_states(model, atoms, GRID, inner, RandomStream(41))
    m = 1.0 / (lam * (1.0 - delta))
    exact = m + (atoms - m) * np.exp(-lam * (1.0 - delta) * GRID)[:, None]
    _assert_within(means, ivars, inner, exact, 4.0)


def test_grid_storage_mean_follows_its_exact_law():
    # d/dt E[X] = -E[X] + lam E[U]
    lam, scale = 2.0, 0.7
    model = make_storage(StorageParams(lam, exponential_increment(scale)))
    atoms, inner = np.array([0.0, 1.4, 4.0]), 4000
    means, ivars, _ = _grid_states(model, atoms, GRID, inner, RandomStream(42))
    exact = lam * scale + (atoms - lam * scale) * np.exp(-GRID)[:, None]
    _assert_within(means, ivars, inner, exact, 4.0)


@pytest.mark.parametrize("seed", range(10))
def test_grid_tcp_linear_agrees_with_the_restart_route(seed):
    # the restart route draws a fresh clock at every grid time; by the
    # Markov property both give the law of the process at each time
    model = make_tcp_linear(0.5)
    atoms, inner = np.linspace(0.1, 3.0, 50), 400
    means, ivars, _ = _grid_states(model, atoms, GRID, inner, RandomStream(seed).substream(1))
    restart = ensemble_states_at(model, np.repeat(atoms, inner), GRID,
                                 RandomStream(seed).substream(2))
    n = atoms.size * inner
    grid_se = np.sqrt(ivars.sum(axis=1) / inner) / atoms.size
    restart_se = restart.std(axis=0, ddof=1) / np.sqrt(n)
    z = (means.mean(axis=1) - restart.mean(axis=0)) / np.hypot(grid_se, restart_se)
    assert np.all(np.abs(z) <= 3.0), z


@pytest.mark.parametrize("shape", [(1, 2), (9, 2), (5, 3), (327, 200), (3, 1000), (17, 7)])
def test_row_stats_are_mean_and_var_to_the_bit(shape):
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    for v in (rng.normal(size=shape), 1e6 + rng.exponential(size=shape),
              rng.standard_cauchy(size=shape)):
        mean, var = core._row_stats(v)
        assert np.array_equal(mean, v.mean(axis=1))
        assert np.array_equal(var, v.var(axis=1, ddof=1))


@pytest.mark.parametrize("inner", [2, 64])
def test_row_stats_of_bump_quotients_are_mean_and_var_to_the_bit(inner):
    # difference quotients of storage twins, as nested_grid_statistics forms them
    model = make_storage(StorageParams(1.0, exponential_increment(1.0)))
    atoms = np.linspace(0.2, 3.0, 25)
    bumps = core.default_bump(atoms)
    node = RandomStream(43).substream(0, 0)
    up, down = (simulate_ensemble(model, np.repeat(atoms + s * bumps, inner), 1.0, node)
                for s in (1.0, -1.0))
    v = (np.sin(up) - np.sin(down)).reshape(atoms.size, inner) / (2.0 * bumps[:, None])
    mean, var = core._row_stats(v)
    assert np.array_equal(mean, v.mean(axis=1))
    assert np.array_equal(var, v.var(axis=1, ddof=1))


def test_gradient_affine_exact_at_time_zero():
    model = make_tcp_constant(TcpConstantParams(rate=1.0, delta=0.5))
    est = gradient_semigroup_estimate(model, lambda x: 2.5 * x + 1.0, 1.0, 0.0,
                                      64, RandomStream(2))
    assert est.value == pytest.approx(2.5, rel=1e-12)
    assert est.std_error <= 1e-12


def test_gradient_storage_synchronous_coupling_exact():
    model = make_storage(StorageParams(1.0, exponential_increment(1.0)))
    for t in (0.5, 1.0, 3.0):
        est = gradient_semigroup_estimate(model, lambda x: x, 1.0, t, 200, RandomStream(6))
        assert est.value == pytest.approx(np.exp(-t), rel=1e-11)
        assert est.std_error <= 1e-11


def test_gradient_constant_rate_sub_commutation():
    model = make_tcp_constant(TcpConstantParams(rate=1.0, delta=0.5))
    est = gradient_semigroup_estimate(model, lambda x: x, 1.0, 2.0, 100_000, RandomStream(8))
    bound = np.exp(-0.75 * 2.0)
    assert est.value ** 2 <= bound + 3 * (2 * abs(est.value) * est.std_error)


@pytest.mark.parametrize("model", [
    make_tcp_linear(0.5),
    make_affine_rate_tcp(1.0, 1.0, 0.5),
    make_twisted_tcp_linear(0.5),
], ids=lambda m: m.name)
def test_gradient_refuses_models_without_synchronous_coupling(model):
    # the twins' jump clocks depend on the start state, so they can jump
    # apart and the central difference has no honest standard error
    f = lambda x: x  # noqa: E731
    with pytest.raises(ValueError, match="not synchronously coupled"):
        gradient_semigroup_estimate(model, f, 1.0, 0.5, 16, RandomStream(0))
    with pytest.raises(ValueError, match="two inner replications"):
        gradient_semigroup_estimate(model, f, 1.0, 0.5, 1, RandomStream(0))
    est = gradient_semigroup_estimate(model, f, 1.0, 0.0, 16, RandomStream(0))
    assert est.value == pytest.approx(1.0, rel=1e-9)


def test_gradient_domain_violation():
    model = make_tcp_constant(TcpConstantParams(rate=1.0, delta=0.5))
    with pytest.raises(DomainError):
        gradient_semigroup_estimate(model, lambda x: x, 0.0, 1.0, 10,
                                    RandomStream(0), h=0.1)


def test_explosion_guard_trips():
    from pdmp_ergo.core import ExplosionError
    model = make_tcp_constant(TcpConstantParams(rate=50.0, delta=0.5))
    with pytest.raises(ExplosionError):
        simulate_path(model, 0.0, 100.0, RandomStream(1), max_events=20)
    with pytest.raises(ExplosionError):
        simulate_ensemble(model, np.zeros(16), 100.0, RandomStream(2), max_events=20)


# ---------------------------------------------------------------------------
# sums
# ---------------------------------------------------------------------------

def test_dot_is_within_rounding_of_the_exact_sum():
    # numpy's pairwise sum against the exactly rounded sum of the same products
    a, b = RandomStream(7).uniform(100_000), RandomStream(8).uniform(100_000)
    assert core._dot(a, b) == pytest.approx(math.fsum(a * b), rel=1e-14, abs=0)
    assert core._dot(a[:1], b[:1]) == a[0] * b[0]
