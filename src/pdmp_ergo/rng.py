"""Reproducible random streams with deterministic substream derivation.

Two layers are provided.  ``RandomStream`` wraps a counter-based numpy
generator (Philox) keyed by a ``SeedSequence``; substreams are derived by
integer index through the spawn-key mechanism, so any (seed, index path)
names the same stream on every run, machine and worker layout.

``EventMarks`` serves the vectorised path engine: it hashes
(replication index, event number, draw slot) counters into uniform and
exponential marks.  A mark depends only on the stream key and its
counters, never on which other replications happen to be active, so
coupled ensembles that reuse one key see identical per-replication draw
sequences.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RandomStream", "EventMarks", "MarkView"]

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)
# draw slots reserved per event: slot 0 is the exponential clock mark,
# slots 1..63 belong to the jump kernel
_SLOTS_PER_EVENT = 64


_MASK64 = (1 << 64) - 1


def _mix64_int(z: int) -> int:
    """SplitMix64 finalizer on a python int (numpy warns on scalar overflow)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class RandomStream:
    """Seeded random source; equal seed and draw sequence give equal bits.

    ``substream(i, j, ...)`` is a pure function of the stream identity and
    the indices.  ``spawn()`` is the stateful variant: successive calls
    return the children ``substream(0), substream(1), ...`` under a
    reserved branch, for callers that just need fresh independent streams
    in a reproducible order.
    """

    def __init__(self, seed=0, _seq=None):
        self._seq = np.random.SeedSequence(seed) if _seq is None else _seq
        self._gen = np.random.Generator(np.random.Philox(self._seq))
        self._spawned = 0

    def substream(self, *indices: int) -> "RandomStream":
        if not indices:
            raise ValueError("substream needs at least one index")
        child = np.random.SeedSequence(
            entropy=self._seq.entropy,
            spawn_key=tuple(self._seq.spawn_key) + tuple(int(i) for i in indices),
        )
        return RandomStream(_seq=child)

    def spawn(self) -> "RandomStream":
        child = self.substream(0x5AF3, self._spawned)
        self._spawned += 1
        return child

    def uniform(self, size=None):
        return self._gen.random(size)

    def exponential(self, size=None):
        return self._gen.standard_exponential(size)

    def normal(self, size=None):
        return self._gen.standard_normal(size)

    def key64(self) -> np.uint64:
        """64-bit key identifying this stream node (for counter hashing)."""
        return _U64(self._seq.generate_state(1, np.uint64)[0])


class EventMarks:
    """Counter-derived random marks, indexed by (replication, event, slot)."""

    def __init__(self, stream: RandomStream):
        self._key = int(stream.key64())

    def _hash(self, reps, event: int, slot: int):
        # SplitMix64 of subkey + golden*(reps+1) mod 2**64, in place on one
        # fresh buffer with one scratch array for the shifts
        ctr = int(event) * _SLOTS_PER_EVENT + int(slot)
        subkey = _mix64_int(self._key + 0x9E3779B97F4A7C15 * (ctr + 1))
        z = np.array(reps, dtype=np.uint64)
        z *= _GOLDEN
        z += _U64((subkey + 0x9E3779B97F4A7C15) & _MASK64)
        s = np.empty_like(z)
        for shift, mul in ((_U64(30), _MIX1), (_U64(27), _MIX2)):
            z ^= np.right_shift(z, shift, out=s)
            z *= mul
        z ^= np.right_shift(z, _U64(31), out=s)
        return z

    def uniform(self, reps, event: int, slot: int = 0):
        # 53-bit mantissa shifted off zero, so u lies in (0, 1); u reuses h's buffer
        h = self._hash(reps, event, slot)
        h >>= _U64(11)
        u = np.add(h, 0.5, out=h.view(np.float64))
        return np.multiply(u, 2.0 ** -53, out=u)

    def exponential(self, reps, event: int, slot: int = 0):
        u = self.uniform(reps, event, slot)
        np.log1p(np.negative(u, out=u), out=u)
        return np.negative(u, out=u)


class MarkView:
    """Draw server handed to jump kernels inside the vectorised engine.

    Quacks like ``RandomStream`` for array draws but routes every request
    to counter marks of the active replications, so a kernel's draws stay
    attached to (replication, event) no matter how the ensemble is
    scheduled or chunked.
    """

    def __init__(self, marks: EventMarks, reps, event: int, first_slot: int = 1):
        self._marks = marks
        self._reps = reps
        self._event = event
        self._slot = first_slot

    def _next_slot(self) -> int:
        if self._slot >= _SLOTS_PER_EVENT:
            raise RuntimeError("jump kernel exhausted its per-event draw slots")
        s = self._slot
        self._slot += 1
        return s

    def _check(self, size):
        n = len(self._reps)
        if size is not None and int(size) != n:
            raise ValueError(f"kernel asked for {size} draws, {n} replications active")

    def uniform(self, size=None):
        self._check(size)
        return self._marks.uniform(self._reps, self._event, self._next_slot())

    def exponential(self, size=None):
        self._check(size)
        return self._marks.exponential(self._reps, self._event, self._next_slot())
