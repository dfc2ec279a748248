"""Embedded chain of a PDMP and reconstruction of the invariant law.

The chain observes the process at its jump instants.  Three kernels
matter: the pre-jump kernel (flow to an inverse-transform jump time), the
chain transition (pre-jump kernel followed by the jump), and the
length-biased kernel whose inter-jump time has density proportional to
the survival factor exp(-cumulative rate).  The invariant law of the
continuous process is the chain's law reweighted by the mean residual
normaliser h and pushed through the length-biased kernel; the module also
provides the direct trajectory time-average route, so the two estimators
can be cross-checked against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .core import Model, _dot, ensemble_states_at
from .rng import RandomStream

__all__ = [
    "EmpiricalMeasure",
    "kernel_K_sample",
    "kernel_Ktilde_sample",
    "chain_step",
    "chain_sample_matrix",
    "chain_invariant_sample",
    "reconstruct_mu",
    "reweight_and_push",
    "h_function",
    "time_average_states",
]

_WEIGHT_TOL = 1e-12
_CSV_BLOCK = 4096


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Weighted, sorted sample representation of a probability measure.

    ``provenance`` names where the atoms came from; only a ``"chain"``
    measure (embedded-chain states) may be reconstructed.
    """

    values: np.ndarray
    weights: np.ndarray
    provenance: str

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if v.ndim != 1 or v.shape != w.shape or v.size == 0:
            raise ValueError("values and weights must be matching nonempty 1-d arrays")
        if np.any(np.diff(v) < 0):
            raise ValueError("values must be sorted")
        if np.any(w <= 0):
            raise ValueError("weights must be positive")
        if abs(w.sum() - 1.0) > _WEIGHT_TOL:
            raise ValueError("weights must sum to one")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "weights", w)

    @classmethod
    def from_samples(cls, samples, weights=None, *, provenance: str):
        samples = np.ravel(np.asarray(samples, dtype=float))
        if weights is None:
            weights = np.full(samples.size, 1.0 / samples.size)
        else:
            weights = np.ravel(np.asarray(weights, dtype=float))
            weights = weights / weights.sum()
        order = np.argsort(samples, kind="stable")
        return cls(samples[order], weights[order], provenance)

    @property
    def size(self) -> int:
        return self.values.size

    def expectation(self, f: Callable) -> float:
        return float(_dot(self.weights, np.asarray(f(self.values), dtype=float)))

    def mean(self) -> float:
        return float(_dot(self.weights, self.values))

    def moment(self, k: int) -> float:
        return float(_dot(self.weights, self.values ** k))

    def var(self) -> float:
        m = self.mean()
        return float(_dot(self.weights, (self.values - m) ** 2))

    def mean_std_error(self) -> float:
        """Standard error of the mean treating atoms as independent."""
        m = self.mean()
        return float(np.sqrt(_dot(self.weights ** 2, (self.values - m) ** 2)))

    def to_csv(self, path):
        """Write a ``value,weight`` header, then for each atom the bytes of
        ``"%.17g,%.17g\\n" % (value, weight)``.

        Seventeen significant digits read back bit-exactly.  The rows are
        formatted in blocks of ``_CSV_BLOCK``, so the text held in memory
        stays small.
        """
        rows = np.column_stack((self.values, self.weights))
        with open(path, "wb") as fh:
            fh.write(b"value,weight\n")
            for block in np.split(rows, np.arange(_CSV_BLOCK, self.size, _CSV_BLOCK)):
                fh.write(_csv_rows(block))

    @classmethod
    def read_csv(cls, path, provenance: str):
        data = np.genfromtxt(path, delimiter=",", skip_header=1)
        data = np.atleast_2d(data)
        return cls.from_samples(data[:, 0], data[:, 1], provenance=provenance)


# measure.csv text.  A finite v with 10**X <= |v| < 10**(X+1) and X in
# [-9, 16] is printed from integers.  Write 10**(16 - X) = p + p_tail with p
# the nearest double; p_tail is 0 up to 10**22.  Dekker's error-free product
# gives |v| * p = hi + lo exactly, and rounding hi + lo half to even gives the
# 17 significant digits of CPython's correctly rounded "%.17g".  For X < -6,
# lo also takes the rounded |v| * p_tail, which is off by less than 2**-44,
# so such a field keeps this route only when lo is further than 2**-40 from
# an integer and from a half-integer, where that error cannot change the
# digits.  X is guessed by log10 and kept only if the product lies in
# [1e16, 1e17).  Rounding never carries to 1e17 in this range: the largest
# double below each power of ten keeps 17 digits.  Every other value
# (zeros, subnormals, inf, nan, other magnitudes, the rare missed guess next
# to a power of ten and the rarer lo too close to call) is formatted by
# "%.17g" itself.  1e-9 is as small as a weight 1/n of n <= 10**9 atoms gets.
#
# A field's text is gathered from a 28-byte source row of seven uint32
# words, ``_CSV_ROW``: ".-e", the 17 digits (A-Q stand for them here) and
# the other characters a field in the exact range needs: "0" of "0.000" and
# of "e-05", the last digits 5-9 of the exponents, and the separators.

_CSV_ROW = ".-eABCDEFGHIJKLMNOPQ056789,\n"
_CSV_BYTE = {ch: i for i, ch in enumerate(_CSV_ROW)}
_CSV_FIELD = 25                  # widest "%.17g" text of a double, plus "," or "\n"


def _split(a):
    """Veltkamp's split of a into two halves of at most 26 significant bits."""
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


@lru_cache(maxsize=None)
def _csv_tables():
    """The double p nearest 10**k for k in [0, 25], its halves and
    10**k - p, and the words of a source row: ".-e" with each lead digit,
    the digits of 0..9999, and the tail."""
    p = np.array([float(10 ** k) for k in range(26)])
    p_tail = np.array([10 ** k - int(x) for k, x in enumerate(p)], float)
    quads = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    return ((p, *_split(p), p_tail),
            np.frombuffer(b"".join(b".-e%d" % d for d in range(10)), np.uint32),
            quads.astype(np.uint8).view(np.uint32).ravel(),
            np.frombuffer(_CSV_ROW[20:].encode(), np.uint32))


@lru_cache(maxsize=None)
def _csv_template(code: int):
    """Source-row bytes of one category of fields, padded to ``_CSV_FIELD``,
    and a mask of the ones to keep.

    ``code`` packs the field's column (value or weight), its sign, its
    decimal exponent x and its number nd of significant digits once
    trailing zeros go.  The C ``%g`` rules: fixed notation for -4 <= x < 17,
    trailing zeros stripped, an exponent of at least 2 digits.
    """
    rest, nd = divmod(code, 18)
    rest, x = divmod(rest, 26)
    column, neg = divmod(rest, 2)
    x -= 9
    digits = _CSV_ROW[3:20][:max(nd, x + 1)]
    if -4 <= x < 0:
        text = "0." + "0" * (-x - 1) + digits
    else:
        point = max(x + 1, 1)
        text = (digits[:point] + "." + digits[point:]).rstrip(".")
        text += "e%+03d" % x if x < -4 else ""
    cols = [_CSV_BYTE[ch] for ch in "-" * neg + text + ",\n"[column]]
    pad = _CSV_FIELD - len(cols)
    return np.array(cols + [0] * pad), np.array([True] * len(cols) + [False] * pad)


def _csv_rows(rows) -> bytes:
    """The bytes ``"%.17g,%.17g\\n" % row`` gives, for every row of an (n, 2) array."""
    (p, p_hi, p_lo, p_tail), lead_words, quad_words, tail_words = _csv_tables()
    v = np.ascontiguousarray(rows, dtype=float).ravel()
    a = np.abs(v)
    exact = (a >= 1e-9) & (a < 1e17)
    a = np.where(exact, a, 1.0)
    k = np.clip(16 - np.floor(np.log10(a)).astype(np.intp), 0, 25)
    a_hi, a_lo = _split(a)
    hi = a * p[k]
    lo = ((a_hi * p_hi[k] - hi) + a_hi * p_lo[k] + a_lo * p_hi[k]) + a_lo * p_lo[k]
    lo += a * p_tail[k]
    exact &= ((hi > 1e16) | (hi == 1e16) & (lo >= 0)) & ((hi < 1e17) | (hi == 1e17) & (lo < 0))

    # round hi + lo half to even; hi is an integer since hi >= 2**53
    f = np.floor(lo)
    n = hi.astype(np.int64) + f.astype(np.int64)
    n += (lo > f + 0.5) | ((lo == f + 0.5) & (n % 2 == 1))
    off_half = np.abs(lo - f - 0.5)
    exact &= (k <= 22) | ((off_half > 2.0 ** -40) & (off_half < 0.5 - 2.0 ** -40))
    n = np.where(exact, n, 10 ** 16)

    lead, rest = np.divmod(n, 10 ** 16)
    quads = np.empty((v.size, 4), np.intp)
    quads[:, 0], quads[:, 1] = np.divmod(rest // 10 ** 8, 10 ** 4)
    quads[:, 2], quads[:, 3] = np.divmod(rest % 10 ** 8, 10 ** 4)
    words = np.empty((v.size, 7), np.uint32)
    words[:, 0] = lead_words[lead]
    words[:, 1:5] = quad_words[quads]
    words[:, 5:] = tail_words
    src = words.view(np.uint8)
    nd = 17 - np.argmax(src[:, 19:2:-1] != ord("0"), axis=1)

    code = ((np.arange(v.size) % 2 * 2 + np.signbit(v)) * 26 + 25 - k) * 18 + nd
    present = np.flatnonzero(np.bincount(code))
    cols, keep = map(np.array, zip(*map(_csv_template, present.tolist())))
    which = np.searchsorted(present, code)
    index = cols[which]
    index += np.arange(0, src.size, src.shape[1])[:, None]
    text = np.take(src.ravel(), index)
    keep = keep[which]
    out = np.flatnonzero(~exact)
    if out.size:
        fields = np.array([(b"%.17g,", b"%.17g\n")[i % 2] % x
                           for i, x in zip(out.tolist(), v[out].tolist())], "S%d" % _CSV_FIELD)
        text[out] = fields[:, None].view(np.uint8)
        keep[out] = np.arange(_CSV_FIELD) < np.char.str_len(fields)[:, None]
    return text[keep].tobytes()


def kernel_K_sample(model: Model, x, stream: RandomStream):
    """Sample the pre-jump position: flow to an inverse-transform jump time."""
    x = np.asarray(x, dtype=float)
    model.require_in_domain(x, "state")
    e = np.reshape(stream.exponential(np.size(x)), np.shape(x))
    return model.flow(x, model.inv_cum_rate(x, e))


def kernel_Ktilde_sample(model: Model, x, stream: RandomStream):
    """Sample the position at a length-biased inter-jump time, whose density
    is exp(-cumulative rate) over its normaliser, by the model's closed-form
    ``ktilde_sampler``."""
    x = np.asarray(x, dtype=float)
    model.require_in_domain(x, "state")
    return model.flow(x, model.ktilde_sampler(x, stream))


def chain_step(model: Model, x, stream: RandomStream):
    """One transition of the embedded chain: flow to the jump, then jump."""
    return model.jump(kernel_K_sample(model, x, stream), stream)


def chain_sample_matrix(
    model: Model, n: int, burn_in: int = 1000, thinning: int = 1,
    stream: Optional[RandomStream] = None, x0: float = 1.0,
    n_chains: Optional[int] = None,
):
    """Post-burn-in, thinned chain states as a (slot, chain) matrix.

    Work is spread over independent chains advanced in lockstep; columns
    are independent of each other, which is what between-chain standard
    errors need.  Flattening row-major and truncating to ``n`` gives the
    merged sample in a schedule-independent order.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    if burn_in < 0 or thinning < 1:
        raise ValueError("burn_in must be >= 0 and thinning >= 1")
    stream = RandomStream(0) if stream is None else stream
    n_chains = min(1024, n) if n_chains is None else int(n_chains)
    quota = -(-n // n_chains)
    states = np.full(n_chains, float(x0))
    model.require_in_domain(states, "chain start")
    node = stream.spawn()
    step = 0
    for _ in range(burn_in):
        states = chain_step(model, states, node.substream(step))
        step += 1
    samples = np.empty((quota, n_chains))
    for q in range(quota):
        for _ in range(thinning):
            states = chain_step(model, states, node.substream(step))
            step += 1
        samples[q] = states
    return samples


def chain_invariant_sample(
    model: Model, n: int, burn_in: int = 1000, thinning: int = 1,
    stream: Optional[RandomStream] = None, x0: float = 1.0,
    n_chains: Optional[int] = None,
) -> EmpiricalMeasure:
    """Post-burn-in, thinned states of the embedded chain as a measure."""
    samples = chain_sample_matrix(model, n, burn_in, thinning, stream, x0, n_chains)
    return EmpiricalMeasure.from_samples(samples.ravel()[:n], provenance="chain")


def h_function(model: Model, x):
    """Mean residual normaliser at each point of ``x``: the integral of
    exp(-cum_rate(x, u)) over u > 0, a float for a scalar ``x``."""
    out = np.asarray(model.h_form(x), dtype=float)
    return float(out) if np.shape(x) == () else out


def reweight_and_push(model: Model, xs, stream: RandomStream):
    """Mean residual normaliser of each chain atom, and the atom pushed
    through the length-biased kernel."""
    hv = h_function(model, xs)
    if np.any(~np.isfinite(hv)) or np.any(hv <= 0):
        raise ValueError("mean residual normaliser must be positive and finite")
    return hv, kernel_Ktilde_sample(model, xs, stream.spawn())


def reconstruct_mu(model: Model, chain_measure: EmpiricalMeasure, stream: RandomStream) -> EmpiricalMeasure:
    """Invariant law of the continuous process from the chain's law.

    Each chain atom is reweighted by the mean residual normaliser and
    pushed through the length-biased kernel.
    """
    if chain_measure.provenance != "chain":
        raise ValueError("reconstruction expects a chain-tagged measure")
    hv, pushed = reweight_and_push(model, chain_measure.values, stream)
    return EmpiricalMeasure.from_samples(pushed, chain_measure.weights * hv,
                                         provenance="reweighted")


def time_average_states(
    model: Model, x0: float, t_burn: float, t_end: float,
    n_paths: int, n_times: int, stream: RandomStream,
):
    """Matrix (path, sample time) of states on an even grid after burn time."""
    if t_end <= t_burn:
        raise ValueError("t_end must exceed t_burn")
    times = t_burn + (t_end - t_burn) * (np.arange(1, n_times + 1) / n_times)
    starts = np.full(int(n_paths), float(x0))
    return ensemble_states_at(model, starts, times, stream.spawn())

