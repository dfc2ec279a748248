import itertools

import numpy as np
import pytest
from scipy import stats

from pdmp_ergo.rng import EventMarks, MarkView, RandomStream


def test_same_seed_same_draws():
    a = RandomStream(123)
    b = RandomStream(123)
    assert np.array_equal(a.uniform(100), b.uniform(100))
    assert np.array_equal(a.exponential(100), b.exponential(100))
    assert np.array_equal(a.normal(100), b.normal(100))


def test_substream_is_pure_and_indexed():
    r = RandomStream(9)
    x = r.substream(4, 7).uniform(16)
    y = r.substream(4, 7).uniform(16)
    z = r.substream(4, 8).uniform(16)
    assert np.array_equal(x, y)
    assert not np.array_equal(x, z)


def test_spawn_sequence_is_reproducible_and_distinct():
    r1, r2 = RandomStream(5), RandomStream(5)
    a1, a2 = r1.spawn().uniform(8), r1.spawn().uniform(8)
    b1, b2 = r2.spawn().uniform(8), r2.spawn().uniform(8)
    assert np.array_equal(a1, b1)
    assert np.array_equal(a2, b2)
    assert not np.array_equal(a1, a2)


def test_marks_depend_only_on_counters():
    marks = EventMarks(RandomStream(7))
    full = marks.uniform(np.arange(1000), event=3, slot=0)
    subset = marks.uniform(np.array([10, 500, 999]), event=3, slot=0)
    assert np.array_equal(full[[10, 500, 999]], subset)


def test_marks_distributions():
    marks = EventMarks(RandomStream(2024))
    reps = np.arange(100_000)
    u = marks.uniform(reps, 0)
    e = marks.exponential(reps, 1)
    assert stats.kstest(u, "uniform").pvalue > 1e-3
    assert stats.kstest(e, "expon").pvalue > 1e-3
    assert 0.0 < u.min() and u.max() < 1.0


def test_mark_view_slots_and_size_check():
    marks = EventMarks(RandomStream(1))
    view = MarkView(marks, np.arange(5), event=0)
    a = view.uniform(5)
    b = view.uniform(5)
    assert not np.array_equal(a, b)  # consecutive requests use fresh slots
    with pytest.raises(ValueError):
        view.uniform(4)


_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(z):
    z &= _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _reference_uniform(key, reps, event, slot):
    # the replay contract in python integers: a mark is the SplitMix64 of
    # subkey + golden*(rep+1) mod 2**64, whose top 53 bits, shifted off zero,
    # give the uniform ((h >> 11) + 0.5) * 2**-53
    subkey = _splitmix64(key + _GOLDEN * (event * 64 + slot + 1))
    hashes = [_splitmix64(subkey + _GOLDEN * (int(r) + 1)) for r in reps]
    return np.array([((h >> 11) + 0.5) * 2.0 ** -53 for h in hashes])


def _same_bits(a, b):
    np.testing.assert_array_equal(np.asarray(a, dtype=np.float64).view(np.uint64),
                                  np.asarray(b, dtype=np.float64).view(np.uint64))


@pytest.mark.parametrize("as_list", [False, True], ids=["int64", "list"])
def test_marks_match_the_reference_hash_bit_for_bit(as_list):
    stream = RandomStream(2014).substream(9)
    key = int(stream.key64())
    marks = EventMarks(stream)
    reps = [0, 1, 2 ** 32 + 7, 2 ** 53 + 1]
    arg = reps if as_list else np.array(reps, dtype=np.int64)
    for event, slot in itertools.product((0, 10 ** 6), (0, 63)):
        u = _reference_uniform(key, reps, event, slot)
        _same_bits(marks.uniform(arg, event, slot), u)
        _same_bits(marks.exponential(arg, event, slot), -np.log1p(-u))
    # a jump kernel's draws take slots 1, 2, 3 of their event in order; the
    # last slot is 63 and one more draw has no slot left
    view = MarkView(marks, arg, 10 ** 6)
    _same_bits(view.uniform(4), _reference_uniform(key, reps, 10 ** 6, 1))
    _same_bits(view.exponential(4), -np.log1p(-_reference_uniform(key, reps, 10 ** 6, 2)))
    _same_bits(view.uniform(4), _reference_uniform(key, reps, 10 ** 6, 3))
    last = MarkView(marks, arg, 0, first_slot=63)
    _same_bits(last.uniform(), _reference_uniform(key, reps, 0, 63))
    with pytest.raises(RuntimeError, match="draw slots"):
        last.uniform()


def test_marks_golden_values():
    # absolute bits for one stream, so the key derivation is pinned as well
    marks = EventMarks(RandomStream(2014).substream(9))
    u = marks.uniform([0, 1, 2 ** 32 + 7, 2 ** 53 + 1], 10 ** 6, 63)
    assert [float(v).hex() for v in u] == [
        "0x1.a087f36c8498cp-4", "0x1.639fa98fc65cdp-2",
        "0x1.bee46f3060914p-1", "0x1.e3364b03b48f0p-1"]
