"""Shared domain types: scheme parameters, super-frame topology, result records,
and the deterministic random-stream contract used by every simulation trial.

Positions and user types are 1-indexed in the public neighbor tuples (matching
the usual prose description of chained frames); anything serialized or stored
as a numpy index array is 0-indexed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SchemeParams:
    """A d-fold repetition access scheme over a population of alpha = N/M users per slot.

    rate R = 1/d, nominal code rate R0 = 1 - 1/alpha, average slot (sum-node)
    degree d_c = d * alpha.
    """

    d: int
    alpha: float = 100.0

    def __post_init__(self):
        if not isinstance(self.d, int) or self.d < 1:
            raise ValueError(f"repetition degree d must be an integer >= 1, got {self.d!r}")
        if not self.alpha > 1.0:
            raise ValueError(f"normalized population alpha must exceed 1, got {self.alpha!r}")

    @property
    def rate(self) -> float:
        return 1.0 / self.d

    @property
    def nominal_rate(self) -> float:
        return 1.0 - 1.0 / self.alpha

    @property
    def avg_check_degree(self) -> float:
        return self.d * self.alpha


@dataclass(frozen=True)
class LoadPoint:
    """Offered traffic g [packets/slot] and the matching activation probability."""

    g: float
    epsilon: float

    def __post_init__(self):
        if self.g < 0.0:
            raise ValueError(f"offered traffic must be >= 0, got {self.g}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"activation probability must lie in [0,1], got {self.epsilon}")

    @classmethod
    def from_g(cls, g: float, alpha: float) -> "LoadPoint":
        return cls(g=g, epsilon=g / alpha)


@dataclass(frozen=True)
class CoupledTopology:
    """Type-level structure of a super-frame: l user types over m_f = l+d-1 frames.

    delta[j-1] is the number of user types transmitting into frame j.
    sn_neighbors[j-1] lists those types; bn_neighbors[i-1] lists the d frames
    type i transmits in. Both are 1-indexed id tuples.
    """

    l: int
    d: int
    m_f: int
    delta: tuple[int, ...]
    sn_neighbors: tuple[tuple[int, ...], ...]
    bn_neighbors: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.delta) != self.m_f or len(self.sn_neighbors) != self.m_f:
            raise ValueError("delta and sn_neighbors must have one entry per frame")
        if len(self.bn_neighbors) != self.l:
            raise ValueError("bn_neighbors must have one entry per user type")
        for i, frames in enumerate(self.bn_neighbors, start=1):
            if len(frames) != self.d:
                raise ValueError(f"user type {i} must transmit in exactly d={self.d} frames")
        for j, types in enumerate(self.sn_neighbors, start=1):
            if len(types) != self.delta[j - 1]:
                raise ValueError(f"delta[{j}] disagrees with the neighbor set size")
            for i in types:
                if j not in self.bn_neighbors[i - 1]:
                    raise ValueError(f"neighbor sets are not symmetric at (type {i}, frame {j})")
        if sum(self.delta) != self.l * self.d:
            raise ValueError("edge count mismatch: sum(delta) != l*d")


def build_topology(l: int, d: int) -> CoupledTopology:
    """Terminated chain: type i transmits in frames i..i+d-1; frames l+1..l+d-1
    carry only copies, so boundary frames see fewer types than interior ones."""
    if l < 1 or d < 1:
        raise ValueError(f"need l >= 1 and d >= 1, got l={l}, d={d}")
    m_f = l + d - 1
    bn = tuple(tuple(range(i, i + d)) for i in range(1, l + 1))
    sn_sets: list[list[int]] = [[] for _ in range(m_f)]
    for i, frames in enumerate(bn, start=1):
        for j in frames:
            sn_sets[j - 1].append(i)
    sn = tuple(tuple(s) for s in sn_sets)
    delta = tuple(len(s) for s in sn)
    return CoupledTopology(l=l, d=d, m_f=m_f, delta=delta, sn_neighbors=sn, bn_neighbors=bn)


def build_circulant_topology(l: int, d: int) -> CoupledTopology:
    """Untruncated (wrap-around) variant: every frame sees exactly d types.

    This removes the termination boundary entirely, which makes one coupled
    update identical to the block update at every position. Needs l >= d so a
    type never lands in the same frame twice.
    """
    if d < 1 or l < d:
        raise ValueError(f"need l >= d >= 1, got l={l}, d={d}")
    bn = tuple(tuple((i - 1 + k) % l + 1 for k in range(d)) for i in range(1, l + 1))
    sn_sets: list[list[int]] = [[] for _ in range(l)]
    for i, frames in enumerate(bn, start=1):
        for j in frames:
            sn_sets[j - 1].append(i)
    sn = tuple(tuple(s) for s in sn_sets)
    delta = tuple(len(s) for s in sn)
    return CoupledTopology(l=l, d=d, m_f=l, delta=delta, sn_neighbors=sn, bn_neighbors=bn)


@dataclass(frozen=True)
class DeResult:
    """Outcome of one density-evolution run.

    final_p is the last sum-node-to-burst-node erasure probability (max over
    positions in the coupled case). trace, when recorded, is a tuple of
    per-iteration (q, p) values; p is an array in the coupled case.
    stop_reason names the rule that ended the run: "target" (final_p reached
    target_p), "stall" (progress fell below stall_eps: a fixed point, or
    slowing near the threshold) or "cap" (max_iters ran out first).
    """

    converged: bool
    final_p: float
    iterations: int
    trace: tuple | None = None
    stop_reason: str | None = None


@dataclass(frozen=True)
class ThresholdResult:
    """A bisection outcome: threshold = bracket midpoint, plus convergence metadata."""

    threshold: float
    bracket_lo: float
    bracket_hi: float
    tolerance: float
    evaluations: int

    def epsilon(self, alpha: float) -> float:
        """Threshold rescaled to an activation probability via g = epsilon * alpha."""
        return self.threshold / alpha


def pool_size(requested: int, tasks: int) -> int:
    """Worker processes to start for `tasks` independent tasks: no more than
    requested, than the CPUs and than the tasks. 1 means run in-process."""
    return max(1, min(requested, os.cpu_count() or 1, tasks))


def rng_stream(seed: int, stream_id: int) -> np.random.Generator:
    """Deterministic, platform-independent random stream.

    Counter-based (Philox) keyed on (seed, stream_id): trial t of a simulation
    uses stream_id=t, so results do not depend on execution order or on how
    trials are distributed over workers.
    """
    key = np.array([seed % 2**64, stream_id % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
