"""Finite-length Monte Carlo machinery: sampled frame graphs, the iterative
peeling (SIC) decoder, an exact GF(2) decoder (peeling plus inactivation)
used as the genie-aided MAP reference, and a trial runner with reproducible
per-trial random streams.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .core import CoupledTopology, build_topology, pool_map, pool_size, rng_stream


@dataclass(eq=False)
class FrameGraph:
    """One sampled frame (or super-frame) instance.

    slots has one row per active burst listing its d distinct slot indices
    (0-indexed, global across the super-frame in the coupled case). user_type
    holds the 1-indexed type of each burst for coupled instances, else None.
    """

    n_slots: int
    d: int
    slots: np.ndarray
    user_type: np.ndarray | None = None

    def __post_init__(self):
        self.slots = np.asarray(self.slots, dtype=np.int64).reshape(-1, self.d)
        if self.n_slots < 1:
            raise ValueError(f"need at least one slot, got {self.n_slots}")
        if self.slots.size:
            if self.slots.min() < 0 or self.slots.max() >= self.n_slots:
                raise ValueError("slot indices out of range")
            srt = np.sort(self.slots, axis=1)
            if self.d > 1 and (np.diff(srt, axis=1) == 0).any():
                raise ValueError("a burst lists the same slot twice")
        if self.user_type is not None:
            self.user_type = np.asarray(self.user_type, dtype=np.int64)
            if self.user_type.shape != (self.slots.shape[0],):
                raise ValueError("user_type must hold one type per burst")

    @property
    def n_active(self) -> int:
        return self.slots.shape[0]


@dataclass(frozen=True)
class DecodeReport:
    """One decoding pass over a frame; the sets hold burst indices (row
    numbers into FrameGraph.slots).

    peeled is what peeling recovers, round-synchronously over numpy arrays;
    peel_iterations is the number of rounds whose frontier was non-empty,
    including a last round whose slots were all cleared in the round before
    it (see peel). recovered is the decoder's result: peeled for peel, and
    for gje_decode the bursts whose value is the same in every solution of
    the slot-by-burst GF(2) system, of rank gje_rank, after inactivating
    `inactivations` bursts. gje_rank and inactivations are None from peel.
    """

    recovered: frozenset[int]
    peeled: frozenset[int]
    peel_iterations: int
    gje_rank: int | None = None
    inactivations: int | None = None


def sample_block_frame(
    m: int, g: float, d: int, rng: np.random.Generator, alpha: float | None = None
) -> FrameGraph:
    """Draw one MAC frame: the active count is Poisson(g*m) (the large-population
    limit) or Binomial(alpha*m, g/alpha) when an explicit population is given;
    each active burst picks d distinct slots uniformly."""
    if d < 1:
        raise ValueError(f"repetition degree must be >= 1, got {d}")
    if m < d:
        raise ValueError(f"need at least d={d} slots, got m={m}")
    n = _draw_active(rng, g, m, alpha)
    slots = rng.integers(0, m, size=(n, d), dtype=np.int64)
    if d > 1:
        while True:
            clash = (np.diff(np.sort(slots, axis=1), axis=1) == 0).any(axis=1)
            if not clash.any():
                break
            slots[clash] = rng.integers(0, m, size=(int(clash.sum()), d), dtype=np.int64)
    return FrameGraph(n_slots=m, d=d, slots=slots)


def sample_coupled_frame(
    m: int, topo: CoupledTopology, g: float, rng: np.random.Generator, alpha: float | None = None
) -> FrameGraph:
    """Draw one super-frame: type-i bursts place one uniform slot in each of
    frames i..i+d-1 (mod m_f); on the terminated chain the last d-1 frames
    carry only copies."""
    if m < 1:
        raise ValueError(f"need at least one slot per frame, got {m}")
    counts = np.array([_draw_active(rng, g, m, alpha) for _ in range(topo.l)])
    n = int(counts.sum())
    frame_of_type = (np.arange(topo.l)[:, None] + np.arange(topo.d)) % topo.m_f  # (l, d)
    offsets = np.repeat(frame_of_type * m, counts, axis=0)  # (n, d)
    in_frame = rng.integers(0, m, size=(n, topo.d), dtype=np.int64)
    types = np.repeat(np.arange(1, topo.l + 1), counts)
    return FrameGraph(
        n_slots=m * topo.m_f, d=topo.d, slots=offsets + in_frame, user_type=types
    )


def _draw_active(rng, g, m, alpha):
    if not 0.0 <= g < math.inf:
        raise ValueError(f"offered traffic must be finite and >= 0, got {g}")
    if alpha is None:
        return int(rng.poisson(g * m))
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"population alpha must be positive and finite, got {alpha}")
    if g > alpha:
        raise ValueError(f"g={g} implies an activation probability above 1 at alpha={alpha}")
    return int(rng.binomial(int(round(alpha * m)), g / alpha))


def peel(frame: FrameGraph) -> DecodeReport:
    """Iterative SIC: repeatedly resolve any slot holding exactly one
    unrecovered burst and cancel that burst from all its slots. The recovered
    set does not depend on the resolution order.

    Peeling is round-synchronous, over numpy arrays. The first frontier is
    the degree-1 slots. A round solves the burst of each frontier slot that
    still has degree 1, cancels all those bursts at once, and makes the next
    frontier the slots whose degree fell from 2 or more to at most 1 in that
    round. peel_iterations is the number of rounds whose frontier was
    non-empty, including a last round whose slots were all cleared in the
    round before it: a two-burst chain over three slots takes two rounds."""
    return _decode(frame)


def gje_decode(frame: FrameGraph) -> DecodeReport:
    """Exact (genie-aided MAP) decoder: peeling plus inactivation (see _decode)."""
    return _decode(frame, exact=True)


def _decode(frame: FrameGraph, exact: bool = False) -> DecodeReport:
    """Peeling, then (if exact) inactivation decoding.

    Peeling runs round-synchronously over numpy arrays (see peel). When it
    stalls and an exact result is asked for, the lowest-numbered unresolved
    burst of the lowest-numbered minimum-degree slot is inactivated: it
    becomes the unknown x_j, is cancelled from its slots, and peeling resumes
    in _peel_rounds, the only loop that carries the masks. Every slot and
    every later-solved burst carries its dependence on x as a bitmask. Once no burst is unresolved,
    the slots that solved no burst hold the constraints mask . x = known; a
    burst is recovered iff its mask lies in their span, and the system's rank
    is n - k + rank(constraints).
    """
    n, m, d = frame.n_active, frame.n_slots, frame.d
    flat = frame.slots.ravel()  # int64 and C-contiguous
    deg_v = np.bincount(flat, minlength=m).astype(np.int64, copy=False)
    acc_v = np.zeros(m, dtype=np.int64)  # XOR of resident burst ids
    np.bitwise_xor.at(acc_v, flat, np.repeat(np.arange(n, dtype=np.int64), d))
    solved_v = np.zeros(n, dtype=np.uint8)  # 1 once solved or inactivated

    rounds = 0
    frontier = (deg_v == 1).nonzero()[0]
    while frontier.size:
        rounds += 1
        b = _distinct(acc_v[frontier[deg_v[frontier] == 1]])
        solved_v[b] = 1
        t = frame.slots.take(b, 0).ravel()
        before = deg_v[t]
        np.subtract.at(deg_v, t, 1)
        np.bitwise_xor.at(acc_v, t, b.repeat(d))
        frontier = t[(before >= 2) & (deg_v[t] <= 1)]
    peeled = frozenset(np.flatnonzero(solved_v).tolist())
    if not exact:
        return DecodeReport(peeled, peeled, rounds)

    # the exact pass indexes through memoryviews: plain ints, no numpy scalars
    rows, deg, acc, solved = map(memoryview, (flat, deg_v, acc_v, solved_v))
    smask: dict[int, int] = {}  # slot -> mask of the x_j in its residual value
    bmask: dict[int, int] = {}  # burst -> mask of the x_j in its value
    residents = np.argsort(flat, kind="stable") // d  # burst ids grouped by slot
    first = np.concatenate(([0], np.cumsum(np.bincount(flat, minlength=m))))
    k = 0
    while (live := np.flatnonzero(deg_v)).size:
        s = int(live[np.argmin(deg_v[live])])
        b = next(int(b) for b in residents[first[s] : first[s + 1]] if not solved[b])
        solved[b] = 1
        bmask[b] = bit = 1 << k
        k += 1
        frontier = []
        for t in rows[b * d : (b + 1) * d]:
            deg[t] -= 1
            acc[t] ^= b
            smask[t] = smask.get(t, 0) ^ bit
            if deg[t] == 1:
                frontier.append(t)
        _peel_rounds(frontier, rows, d, deg, acc, solved, smask, bmask)

    # a slot that solved a burst ends with mask 0, so the nonzero masks left
    # are the constraints; basis maps each leading bit to one echelon row
    basis: dict[int, int] = {}
    for v in smask.values():
        if v := _reduce(v, basis):
            basis[v.bit_length() - 1] = v
    recovered = frozenset(range(n))
    if len(basis) < k:  # at full rank every mask lies in the span
        recovered -= {b for b, v in bmask.items() if _reduce(v, basis)}
    return DecodeReport(recovered, peeled, rounds, n - k + len(basis), k)


def _distinct(a: np.ndarray) -> np.ndarray:
    """The values of a, sorted (in place) and without repeats. Not np.unique:
    its first call adds over 1 MB of resident memory."""
    a.sort()
    keep = np.empty(a.size, dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def _peel_rounds(frontier, rows, d, deg, acc, solved, smask, bmask) -> None:
    """Resolve degree-1 slots until none is left, after an inactivation. A
    solved burst inherits its slot's mask."""
    while frontier:
        nxt = []
        for s in frontier:
            if deg[s] != 1:
                continue
            b = acc[s]
            solved[b] = 1
            lo = b * d
            for t in rows[lo : lo + d]:
                deg[t] -= 1
                acc[t] ^= b
                if deg[t] == 1:
                    nxt.append(t)
            if v := smask.get(s):
                bmask[b] = v
                for t in rows[lo : lo + d]:
                    smask[t] = smask.get(t, 0) ^ v
        frontier = nxt


def _reduce(v: int, basis: dict[int, int]) -> int:
    """Reduce the bitmask v by an echelon basis keyed by leading bit."""
    while v and (r := basis.get(v.bit_length() - 1)):
        v ^= r
    return v


# ------------------------------------------------------------------ trials

@dataclass(frozen=True)
class SimReport:
    """Aggregated packet-loss statistics over independent trials.

    plr is pooled (total unrecovered bursts / total bursts) for the primary
    decoder (peeling unless decoder='gje'); ci95 is a normal-approximation
    half-width from the per-trial ratio estimator. per_position_plr (coupled
    runs) pools losses per user type 1..l. With decoder='both' the gje_*
    fields carry the reference decoder's numbers and gje_extra_recovered, per
    trial, the bursts peeling lost minus those the reference decoder lost
    (which recovers every peeled burst, so never negative).
    """

    scenario: str
    decoder: str
    trials: int
    offered_g: float
    m: int
    d: int
    seed: int
    l: int | None = None
    alpha: float | None = None
    n_bursts: int = 0
    n_lost: int = 0
    plr: float = 0.0
    ci95: float = 0.0
    per_position_plr: tuple[float, ...] | None = None
    gje_n_lost: int | None = None
    gje_plr: float | None = None
    gje_ci95: float | None = None
    gje_extra_recovered: tuple[int, ...] | None = None

    def to_dict(self) -> dict:
        """The fields that are set, with per_position_plr as a list and
        gje_extra_recovered as its total."""
        out = {k: v for k, v in asdict(self).items() if v is not None}
        if "per_position_plr" in out:
            out["per_position_plr"] = list(out["per_position_plr"])
        if "gje_extra_recovered" in out:
            out["gje_extra_recovered_total"] = int(sum(out.pop("gje_extra_recovered")))
        return out


def _trial_batch(ids, sample, n_types, exact, seed):
    """One (3, n_types) int64 record per trial t in ids, counted by user type
    (a block frame has one type): row 0 the bursts generated, row 1 those
    peeling lost, row 2 those the decoder's result lost."""
    out = []
    for t in ids:
        frame = sample(rng=rng_stream(seed, t))
        types = np.zeros(frame.n_active, np.int64) if frame.user_type is None else frame.user_type - 1
        dec = _decode(frame, exact=exact)
        gen = np.bincount(types, minlength=n_types)
        peel_lost = _lost_by_type(dec.peeled, types, gen)
        lost = peel_lost if dec.recovered is dec.peeled else _lost_by_type(dec.recovered, types, gen)
        out.append(np.array([gen, peel_lost, lost]))
        del frame, dec, types  # else they stay alive through the next trial and raise peak memory
    return out


def _lost_by_type(kept, types, gen):
    if len(kept) == len(types):  # decoded in full, as most frames are below threshold
        return gen - gen
    return gen - np.bincount(types[np.fromiter(kept, np.int64, len(kept))], minlength=len(gen))


def _ratio_ci95(lost, gen):
    total = int(gen.sum())
    if total == 0:
        return 0.0, 0.0
    ratio = float(lost.sum()) / total
    t = len(gen)
    if t < 2:
        return ratio, 0.0
    resid = lost - ratio * gen
    var = float((resid**2).sum()) / (t - 1)
    return ratio, 1.96 * np.sqrt(var * t) / total


def run_trials(
    scenario: str,
    m: int,
    d: int,
    g: float,
    trials: int,
    seed: int,
    l: int | None = None,
    alpha: float | None = None,
    decoder: str = "peeling",
    workers: int = 1,
) -> SimReport:
    """Run independent trials (stream t for trial t) and pool loss statistics.

    Results are identical for any worker count because every trial owns its
    own counter-based stream and aggregation is order-independent.
    """
    if scenario not in ("block", "coupled"):
        raise ValueError(f"scenario must be 'block' or 'coupled', got {scenario!r}")
    if decoder not in ("peeling", "gje", "both"):
        raise ValueError(f"decoder must be peeling|gje|both, got {decoder!r}")
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if (l is None) != (scenario == "block"):
        raise ValueError(f"coupled runs need a chain length l and block runs take none, got l={l}")
    if scenario == "block":
        sample, n_types = partial(sample_block_frame, m, g, d, alpha=alpha), 1
    else:
        sample, n_types = partial(sample_coupled_frame, m, build_topology(l, d), g, alpha=alpha), l
    batch = partial(_trial_batch, sample=sample, n_types=n_types, exact=decoder != "peeling", seed=seed)
    # four chunks per worker, so that a slow chunk does not hold up the rest
    chunks = np.array_split(np.arange(trials), min(4 * pool_size(workers, trials), trials))
    counts = np.stack([r for rs in pool_map(batch, [c.tolist() for c in chunks], workers) for r in rs])

    primary = 2 if decoder == "gje" else 1
    by_trial, by_type = counts.sum(axis=2), counts.sum(axis=0)  # (trial, row), (row, type)
    gen, lost = by_trial[:, 0], by_trial[:, primary]
    report = dict(
        scenario=scenario,
        decoder=decoder,
        trials=trials,
        offered_g=g,
        m=m,
        d=d,
        seed=seed,
        l=l,
        alpha=alpha,
        n_bursts=int(gen.sum()),
        n_lost=int(lost.sum()),
    )
    report["plr"], report["ci95"] = _ratio_ci95(lost, gen)
    if scenario == "coupled":
        # a type with no bursts has lost none, so its rate reads 0 / 1
        per_pos = by_type[primary] / np.maximum(by_type[0], 1)
        report["per_position_plr"] = tuple(float(x) for x in per_pos)
    if decoder == "both":
        report["gje_plr"], report["gje_ci95"] = _ratio_ci95(by_trial[:, 2], gen)
        report["gje_n_lost"] = int(by_trial[:, 2].sum())
        report["gje_extra_recovered"] = tuple(int(x) for x in by_trial[:, 1] - by_trial[:, 2])
    return SimReport(**report)
