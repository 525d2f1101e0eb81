"""Shared domain types: scheme parameters and super-frame topology, the worker
pool, and the deterministic random-stream contract used by every simulation
trial.

A super-frame topology is the access rule itself, (l, d, wrap); its frame
count m_f and per-frame type counts delta are derived from it. Frames and user
types are 1-indexed in prose and docstrings (type i transmits in frames
i..i+d-1); anything stored as a numpy index array is 0-indexed.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SchemeParams:
    """A d-fold repetition access scheme over a population of alpha = N/M users per slot.

    Its rate is R = 1/d and its nominal code rate R0 = 1 - 1/alpha.
    """

    d: int
    alpha: float = 100.0

    def __post_init__(self):
        object.__setattr__(self, "d", as_int(self.d, "repetition degree d"))
        if self.d < 1:
            raise ValueError(f"repetition degree d must be >= 1, got {self.d}")
        if not (1.0 < self.alpha and self.d * self.alpha < 2.0**1023):  # map_load_bound sums two u <= d*alpha
            raise ValueError(f"population alpha must exceed 1 with d*alpha below 2**1023, got {self.alpha!r}")

    @property
    def nominal_rate(self) -> float:
        return 1.0 - 1.0 / self.alpha


@dataclass(frozen=True)
class LoadPoint:
    """Offered traffic g [packets/slot] and the matching activation probability."""

    g: float
    epsilon: float

    def __post_init__(self):
        if not 0.0 <= self.g < math.inf:
            raise ValueError(f"offered traffic must be finite and >= 0, got {self.g}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"activation probability must lie in [0,1], got {self.epsilon}")

    @classmethod
    def from_g(cls, g: float, alpha: float) -> "LoadPoint":
        return cls(g=g, epsilon=g / alpha)


@dataclass(frozen=True)
class CoupledTopology:
    """The coupled access rule: a type-i user (i = 1..l) transmits in frames
    i..i+d-1 (1-indexed). The terminated chain has m_f = l+d-1 frames, the
    last d-1 of which admit no new arrivals and carry only copies. With wrap
    the frames are counted mod l, so m_f = l and every frame sees d types.
    """

    l: int
    d: int
    wrap: bool = False

    def __post_init__(self):
        object.__setattr__(self, "l", as_int(self.l, "chain length l"))
        object.__setattr__(self, "d", as_int(self.d, "repetition degree d"))
        if self.d < 1 or self.l < (self.d if self.wrap else 1):
            bound = "l >= d >= 1" if self.wrap else "l >= 1 and d >= 1"
            raise ValueError(f"need {bound}, got l={self.l}, d={self.d}")

    @property
    def m_f(self) -> int:
        return self.l if self.wrap else self.l + self.d - 1

    @property
    def delta(self) -> tuple[int, ...]:
        """delta[j-1] is the number of user types transmitting into frame j."""
        l, d = self.l, self.d
        if self.wrap:
            return (d,) * l
        return tuple(min(j, d, l, l + d - j) for j in range(1, l + d))


def as_int(x, what: str) -> int:
    """x as an int: an integral real (4, 4.0, numpy integers) is converted,
    and anything else (4.5, NaN, a string, a bool) is refused, not rounded."""
    if isinstance(x, bool) or not (isinstance(x, numbers.Real) and x % 1 == 0):
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return int(x)


def build_topology(l: int, d: int) -> CoupledTopology:
    """Terminated chain: boundary frames see fewer types than interior ones."""
    return CoupledTopology(l, d)


def build_circulant_topology(l: int, d: int) -> CoupledTopology:
    """Untruncated (wrap-around) variant: every frame sees exactly d types, so
    one coupled update equals the block update at every position. Needs
    l >= d so a type never lands in the same frame twice."""
    return CoupledTopology(l, d, wrap=True)


def pool_size(requested: int, tasks: int) -> int:
    """Worker processes to start for `tasks` independent tasks: no more than
    requested, than the CPUs and than the tasks. 1 means run in-process."""
    return max(1, min(requested, os.cpu_count() or 1, tasks))


def pool_map(fn, tasks: list, requested: int) -> list:
    """[fn(t) for t in tasks], in order, on pool_size(requested, len(tasks))
    worker processes, or in-process when that is 1. fn and the tasks must
    pickle."""
    workers = pool_size(requested, len(tasks))
    if workers == 1:
        return [fn(t) for t in tasks]
    # imported here: loading the process pool machinery costs ~1.4 MB of
    # peak RSS, which an in-process run does not need
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


def rng_stream(seed: int, stream_id: int) -> np.random.Generator:
    """Deterministic, platform-independent random stream.

    Counter-based (Philox) keyed on (seed, stream_id): trial t of a simulation
    uses stream_id=t, so results do not depend on execution order or on how
    trials are distributed over workers. Both arguments are integers (see
    as_int): 1.5 is refused, not drawn as 1.
    """
    key = _key(as_int(seed, "seed"), as_int(stream_id, "stream id"))
    return np.random.Generator(np.random.Philox(key=key))


def rng_streams(seed: int, ids):
    """rng_stream(seed, t) for each t in ids, as one Generator re-keyed per id.

    Before each yield the held state of a fresh Philox (counter and buffer at
    zero) is assigned with its key set to (seed, t), so the draws are
    rng_stream's, at about a quarter of a new Philox's cost. The Generator
    yielded for one id stops being that id's stream at the next.
    """
    rng = rng_stream(seed, 0)
    state = rng.bit_generator.state
    for t in ids:
        state["state"]["key"] = _key(seed, t)
        rng.bit_generator.state = state
        yield rng


def _key(seed: int, stream_id: int) -> np.ndarray:
    return np.array([seed % 2**64, stream_id % 2**64], dtype=np.uint64)
