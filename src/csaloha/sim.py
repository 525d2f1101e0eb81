"""Finite-length Monte Carlo machinery: sampled frame graphs, the iterative
peeling (SIC) decoder, an exact GF(2) decoder (peeling plus inactivation)
used as the genie-aided MAP reference, and a trial runner with reproducible
per-trial random streams.
"""

from __future__ import annotations

import math
from collections import deque
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
        self.slots = _as_index(self.slots, "slot indices").reshape(-1, self.d)
        if self.n_slots < 1:
            raise ValueError(f"need at least one slot, got {self.n_slots}")
        if self.slots.size:
            if self.slots.min() < 0 or self.slots.max() >= self.n_slots:
                raise ValueError("slot indices out of range")
            if _repeats_a_slot(self.slots).any():
                raise ValueError("a burst lists the same slot twice")
        if self.user_type is not None:
            self.user_type = _as_index(self.user_type, "user types")
            if self.user_type.shape != (self.slots.shape[0],):
                raise ValueError("user_type must hold one type per burst")

    @property
    def n_active(self) -> int:
        return self.slots.shape[0]


def _as_index(a, what: str) -> np.ndarray:
    """a as an int64 array; a non-integral value is an error, not truncated."""
    a = np.asarray(a)
    if a.dtype.kind not in "biu" and (a != np.floor(a)).any():  # NaN too
        raise ValueError(f"{what} must be integers")
    return a.astype(np.int64, copy=False)


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
    while (clash := _repeats_a_slot(slots)).any():
        slots[clash] = rng.integers(0, m, size=(int(clash.sum()), d), dtype=np.int64)
    return FrameGraph(n_slots=m, d=d, slots=slots)


def _repeats_a_slot(slots: np.ndarray) -> np.ndarray:
    """Which rows of an (n, d) slot array list some slot twice, by comparing
    every pair of columns: for the small d of a repetition code this is
    cheaper than sorting each row."""
    clash = np.zeros(slots.shape[0], dtype=bool)
    for i in range(1, slots.shape[1]):
        for j in range(i):
            clash |= slots[:, i] == slots[:, j]
    return clash


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
    round before it: a two-burst chain over three slots takes two rounds.
    The frame is decoded as a batch of one (see _decode)."""
    return _report(frame, exact=False)


def gje_decode(frame: FrameGraph) -> DecodeReport:
    """Exact (genie-aided MAP) decoder: peeling plus inactivation (see _decode)."""
    return _report(frame, exact=True)


def _report(frame: FrameGraph, exact: bool) -> DecodeReport:
    peeled, recovered, rounds, rank, k = _decode([frame], exact)
    peeled_set = frozenset(np.flatnonzero(peeled).tolist())
    if not exact:
        return DecodeReport(peeled_set, peeled_set, int(rounds[0]))
    recovered_set = frozenset(np.flatnonzero(recovered).tolist())
    return DecodeReport(recovered_set, peeled_set, int(rounds[0]), int(rank[0]), int(k[0]))


def _decode(frames: list[FrameGraph], exact: bool = False):
    """Peel a batch of frames of one degree d as one disjoint graph, then (if
    exact) finish each frame that stalls by inactivation decoding.

    The union numbers frame f's bursts and slots after those of frames
    0..f-1, so its components are the frames, and each round of the union
    (see peel) is a round of every frame at once: one set of numpy calls per
    round serves the whole batch. A frame's peel_iterations is the last round
    in which its own slots were in the frontier, the count it has when
    decoded alone. The exact continuation (_inactivate) then runs frame by
    frame on the residual that the batched peel leaves.

    A round keeps one copy of a burst that two frontier slots hold, without
    a sort: it writes each candidate's position into pos and keeps those
    whose position survived. Any repeat may win the write: one copy survives,
    and the round's later updates are order-independent integer scatters.

    Returns (peeled, recovered, rounds, rank, inactivations): boolean masks
    over the union's bursts, then one int64 entry per frame. Unless exact,
    recovered is peeled and rank and inactivations are None.
    """
    d = frames[0].d
    n_of = [f.n_active for f in frames]
    b_start = np.cumsum([0, *n_of])
    s_start = np.cumsum([0, *(f.n_slots for f in frames)])
    n, m = int(b_start[-1]), int(s_start[-1])
    rows = np.empty((n, d), dtype=np.int64)
    for f, lo, hi, s0 in zip(frames, b_start, b_start[1:], s_start):
        np.add(f.slots, s0, out=rows[lo:hi])
    flat = rows.ravel()
    deg_v = np.bincount(flat, minlength=m).astype(np.int64, copy=False)
    acc_v = np.zeros(m, dtype=np.int64)  # XOR of resident burst ids
    np.bitwise_xor.at(acc_v, rows, np.arange(n, dtype=np.int64)[:, None])
    solved_v = np.zeros(n, dtype=np.uint8)  # 1 once solved or inactivated
    last = np.zeros(m, dtype=np.int64)  # the last round the slot was in the frontier

    pos = np.empty(n, dtype=np.int64)  # a candidate burst's position in its round
    r = 0
    frontier = (deg_v == 1).nonzero()[0]
    while frontier.size:
        r += 1
        last[frontier] = r
        b = acc_v[frontier[deg_v[frontier] == 1]]
        at = np.arange(b.size)
        pos[b] = at
        b = b[pos[b] == at]
        solved_v[b] = 1
        t = rows.take(b, 0)
        before = deg_v[t]
        np.subtract.at(deg_v, t, 1)
        np.bitwise_xor.at(acc_v, t, b[:, None])
        frontier = t[(before >= 2) & (deg_v[t] <= 1)]
    rounds = np.maximum.reduceat(last, s_start[:-1])  # every frame has a slot
    peeled = solved_v.astype(bool)
    if not exact:
        return peeled, peeled, rounds, None, None

    rank, k = np.array(n_of, dtype=np.int64), np.zeros(len(frames), dtype=np.int64)
    recovered = np.ones(n, dtype=bool)
    for f in np.flatnonzero(np.maximum.reduceat(deg_v, s_start[:-1])):
        (b0, b1), (s0, s1) = b_start[f : f + 2].tolist(), s_start[f : f + 2].tolist()
        lost, rank[f], k[f] = _inactivate(flat, d, deg_v, acc_v, solved_v, b0, b1, s0, s1)
        recovered[lost] = False
    return peeled, recovered, rounds, rank, k


def _inactivate(flat, d, deg_v, acc_v, solved_v, b0, b1, s0, s1) -> tuple[list[int], int, int]:
    """Inactivation decoding of the frame with bursts b0..b1-1 and slots
    s0..s1-1, whose peeling stalled; it updates the union's arrays in place.

    One loop over a FIFO queue of slots cancels one burst per step: that of
    the next queued slot still of degree 1, which inherits the slot's mask,
    or, once the queue is empty, the lowest-numbered unresolved burst of the
    lowest-numbered minimum-degree slot, which is inactivated: it becomes the
    unknown x_j, with mask bit j. A nonzero mask passes on to the cancelled
    burst's slots, so every slot and every later-solved burst carries its
    dependence on x as a bitmask. Once no burst is unresolved, the slots that
    solved no burst hold the constraints mask . x = known. A burst is
    recovered iff its mask lies in their span, that is iff it reduces to 0
    against the constraints' echelon basis. Returns (the bursts not
    recovered, the frame's rank n - k + rank(constraints), k).
    """
    # indexing through memoryviews gives plain ints, no numpy scalars
    rows, deg, acc, solved = map(memoryview, (flat, deg_v, acc_v, solved_v))
    local = flat[b0 * d : b1 * d] - s0
    residents = np.argsort(local, kind="stable")  # burst ids grouped by slot
    residents //= d
    residents += b0
    first = np.concatenate(([0], np.cumsum(np.bincount(local, minlength=s1 - s0))))
    deg_f = deg_v[s0:s1]
    smask: dict[int, int] = {}  # slot -> mask of the x_j in its residual value
    bmask: dict[int, int] = {}  # burst -> mask of the x_j in its value
    queue: deque[int] = deque()
    k = 0
    while queue or (live := np.flatnonzero(deg_f)).size:
        if queue:
            s = queue.popleft()
            if deg[s] != 1:
                continue
            b, v = acc[s], smask.get(s, 0)
        else:
            s = int(live[np.argmin(deg_f[live])])
            b = next(int(b) for b in residents[first[s] : first[s + 1]] if not solved[b])
            v, k = 1 << k, k + 1
        solved[b] = 1
        for t in rows[b * d : (b + 1) * d]:
            deg[t] -= 1
            acc[t] ^= b
            if v:
                smask[t] = smask.get(t, 0) ^ v
            if deg[t] == 1:
                queue.append(t)
        if v:
            bmask[b] = v

    # a slot that solved a burst ends with mask 0, so the nonzero masks left
    # are the constraints; basis maps each leading bit to one echelon row
    basis: dict[int, int] = {}
    for v in smask.values():
        if v := _reduce(v, basis):
            basis[v.bit_length() - 1] = v
    lost = []
    if len(basis) < k:  # at full rank every mask lies in the span
        lost = [b for b, v in bmask.items() if _reduce(v, basis)]
    return lost, b1 - b0 - k + len(basis), k


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


# Bursts that _trial_batch collects before it decodes the frames as one
# graph. Larger batches share each round's numpy calls among more frames but
# hold more memory: at 4096 the sim-exact benchmark's peak resident memory
# rose by ~0.3 MB over decoding frame by frame, and at 2048 no workload's did.
_BATCH_BURSTS = 2048


def _trial_batch(ids, sample, n_types, exact, seed):
    """A (len(ids), 3, n_types) int64 array: per trial t in ids, the bursts
    counted by user type (a block frame has one type), row 0 those generated,
    row 1 those peeling lost, row 2 those the decoder's result lost.

    Frame t is drawn from rng_stream(seed, t). Frames are collected until
    they hold _BATCH_BURSTS bursts, and each such batch is decoded as one
    disjoint graph (see _decode), so the counts do not depend on the
    batching."""
    counts, frames, size = [], [], 0
    for i, t in enumerate(ids, 1):
        frames.append(sample(rng=rng_stream(seed, t)))
        size += frames[-1].n_active
        if size >= _BATCH_BURSTS or i == len(ids):
            counts.append(_count_losses(frames, n_types, exact))
            frames, size = [], 0
    return np.concatenate(counts)


def _count_losses(frames, n_types, exact):
    peeled, recovered, *_ = _decode(frames, exact)
    # one bin per (frame, type)
    types = [np.zeros(f.n_active, np.int64) if f.user_type is None else f.user_type - 1 for f in frames]
    bins = len(frames) * n_types
    key = np.concatenate(types) + np.repeat(np.arange(0, bins, n_types), [f.n_active for f in frames])
    gen = np.bincount(key, minlength=bins)
    peel_lost = np.bincount(key[~peeled], minlength=bins)
    lost = peel_lost if recovered is peeled else np.bincount(key[~recovered], minlength=bins)
    return np.stack([c.reshape(len(frames), n_types) for c in (gen, peel_lost, lost)], axis=1)


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
    counts = np.concatenate(pool_map(batch, [c.tolist() for c in chunks], workers))

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
