"""Finite-length Monte Carlo machinery: sampled frame graphs, the iterative
peeling (SIC) decoder, an exact GF(2) decoder (peeling plus inactivation)
used as the genie-aided MAP reference, and a trial runner with reproducible
per-trial random streams.
"""

from __future__ import annotations

import math
import numbers
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
        slots = _as_index(self.slots, "slot indices")
        self.slots = slots if slots.size else slots.reshape(0, self.d)
        if self.slots.shape[1:] != (self.d,):
            raise ValueError(f"slots must have shape (n, d={self.d}), got {self.slots.shape}")
        if self.n_slots < 1:
            raise ValueError(f"need at least one slot, got {self.n_slots}")
        _check_rows(self.slots, [self.n_active], self.n_slots)
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
    return FrameGraph(n_slots=m, d=d, slots=_draw_block(m, g, d, rng, alpha)[0])


def _draw_block(m, g, d, rng, alpha=None):
    """sample_block_frame's draw: (the slot rows, [the burst count])."""
    if d < 1:
        raise ValueError(f"repetition degree must be >= 1, got {d}")
    if m < d:
        raise ValueError(f"need at least d={d} slots, got m={m}")
    counts = _draw_active(rng, g, m, alpha, 1)
    slots = rng.integers(0, m, size=(int(counts[0]), d), dtype=np.int64)
    redo = np.flatnonzero(_repeats_a_slot(slots))
    while redo.size:
        slots[redo] = rng.integers(0, m, size=(redo.size, d), dtype=np.int64)
        redo = redo[_repeats_a_slot(slots[redo])]  # only a redrawn row can repeat a slot
    return slots, counts


def _repeats_a_slot(slots: np.ndarray) -> np.ndarray:
    """Which rows of an (n, d) slot array list some slot twice, by comparing
    every pair of columns: for the small d of a repetition code this is
    cheaper than sorting each row."""
    clash = np.zeros(slots.shape[0], dtype=bool)
    for i in range(1, slots.shape[1]):
        for j in range(i):
            clash |= slots[:, i] == slots[:, j]
    return clash


def _check_rows(rows, n_of, n_slots):
    """Raise unless every row lists d distinct slots of its own frame f, f*n_slots..(f+1)*n_slots-1."""
    f = np.flatnonzero(n_of)  # the frames with rows, which start at flat[at]
    at, flat = (np.cumsum(n_of) - n_of)[f] * rows.shape[1], rows.ravel()
    lo, hi = (np.minimum.reduceat(flat, at), np.maximum.reduceat(flat, at)) if f.size else (f, f)
    if (lo < f * n_slots).any() or (hi >= (f + 1) * n_slots).any():
        raise ValueError("slot indices out of range")
    if _repeats_a_slot(rows).any():
        raise ValueError("a burst lists the same slot twice")


def sample_coupled_frame(
    m: int, topo: CoupledTopology, g: float, rng: np.random.Generator, alpha: float | None = None
) -> FrameGraph:
    """Draw one super-frame: type-i bursts place one uniform slot in each of
    frames i..i+d-1 (mod m_f); on the terminated chain the last d-1 frames
    carry only copies. The bursts are sorted by type."""
    slots, counts = _draw_coupled(m, topo, g, rng, alpha)
    types = np.repeat(np.arange(1, topo.l + 1), counts)
    return FrameGraph(n_slots=m * topo.m_f, d=topo.d, slots=slots, user_type=types)


def _draw_coupled(m, topo, g, rng, alpha=None):
    """sample_coupled_frame's draw: (the slot rows, sorted by type, and each type's burst count)."""
    if m < 1:
        raise ValueError(f"need at least one slot per frame, got {m}")
    counts = _draw_active(rng, g, m, alpha, topo.l)
    frame_of_type = (np.arange(topo.l)[:, None] + np.arange(topo.d)) % topo.m_f  # (l, d)
    slots = rng.integers(0, m, size=(int(counts.sum()), topo.d), dtype=np.int64)  # slot within its frame
    slots += np.repeat(frame_of_type * m, counts, axis=0)
    return slots, counts


def _draw_active(rng, g, m, alpha, size):
    if not 0.0 <= g < math.inf:
        raise ValueError(f"offered traffic must be finite and >= 0, got {g}")
    if alpha is None:
        return rng.poisson(g * m, size)
    if not (0.0 < alpha and alpha * m < 2.0**63):  # the binomial's user count is an int64
        raise ValueError(f"population alpha must be positive with alpha*m below 2**63, got {alpha} at m={m}")
    if g > alpha:
        raise ValueError(f"g={g} implies an activation probability above 1 at alpha={alpha}")
    return rng.binomial(int(round(alpha * m)), g / alpha, size)


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
    peeled, recovered, rounds, rank, k = _decode(frame.slots, [frame.n_active], [frame.n_slots], exact)
    peeled_set = frozenset(np.flatnonzero(peeled).tolist())
    if not exact:
        return DecodeReport(peeled_set, peeled_set, int(rounds[0]))
    recovered_set = frozenset(np.flatnonzero(recovered).tolist())
    return DecodeReport(recovered_set, peeled_set, int(rounds[0]), int(rank[0]), int(k[0]))


def _decode(rows: np.ndarray, n_of, m_of, exact: bool = False):
    """Peel a batch of frames of one degree d as one disjoint graph, then (if
    exact) finish each frame that stalls by inactivation decoding.

    rows is the batch's union: an (n, d) int64 array holding frame f's slot
    rows after those of frames 0..f-1, each slot id offset by the slot count
    of those frames. n_of and m_of give each frame's burst and slot counts.
    _trial_batch writes the union straight into one buffer reused across its
    batches; peel and gje_decode pass a frame's own slots, at offset 0. The
    union is only read, never written. Its components are the frames, so
    each round of the union (see peel) is a round of every frame at once:
    one set of numpy calls per round serves the whole batch. A frame's
    peel_iterations is the last round in which its own slots were in the
    frontier, the count it has when decoded alone. The exact continuation
    (_inactivate) then runs frame by frame on the residual that the batched
    peel leaves.

    A round keeps one copy of a burst that two frontier slots hold, without
    a sort: it writes each candidate's position into pos and keeps those
    whose position survived. Any repeat may win the write: one copy survives,
    and the round's later updates are order-independent integer scatters.

    acc_v holds each slot's sum of unresolved burst ids: a slot of degree 1
    holds its burst's id, and one of degree k less than k*n, far inside int64.
    Sums, not XORs: numpy's indexed fast loop covers add.at and subtract.at
    on 1-D indices but not bitwise_xor.at, which costs 2.5-5x as much per
    scatter of 330-3300 elements. It is filled one column of rows at a time,
    so no n*d temporary of burst ids exists.

    last and pos hold values only (a round number, a position within a
    round), so they are int32, which halves them. Every array used as an
    index stays intp: numpy casts any other index dtype to intp on each
    fancy index and ufunc.at call, and int32 union arrays made the C8 run
    1.2-2.2x slower (ROADMAP item 6).

    Returns (peeled, recovered, rounds, rank, inactivations): boolean masks
    over the union's bursts, one int32 round count per frame, then one int64
    entry per frame. Unless exact, recovered is peeled and rank and
    inactivations are None.
    """
    n, d = rows.shape
    b_start, s_start = np.cumsum([0, *n_of]), np.cumsum([0, *m_of])
    m = int(s_start[-1])
    flat = rows.ravel()
    deg_v = np.bincount(flat, minlength=m).astype(np.int64, copy=False)
    acc_v = np.zeros(m, dtype=np.int64)  # sum of unresolved burst ids, below deg_v * n
    ids = np.arange(n, dtype=np.int64)
    for j in range(d):
        np.add.at(acc_v, rows[:, j], ids)
    del ids  # freed before the rounds, whose temporaries set the peak
    solved_v = np.zeros(n, dtype=np.uint8)  # 1 once solved or inactivated
    last = np.zeros(m, dtype=np.int32)  # the last round the slot was in the frontier

    pos = np.empty(n, dtype=np.int32)  # a candidate burst's position in its round
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
        t = rows.take(b, 0).ravel()
        before = deg_v[t]
        np.subtract.at(deg_v, t, 1)
        np.subtract.at(acc_v, t, b.repeat(d))
        frontier = t[(before >= 2) & (deg_v[t] <= 1)]
    rounds = np.maximum.reduceat(last, s_start[:-1])  # every frame has a slot
    peeled = solved_v.astype(bool)
    if not exact:
        return peeled, peeled, rounds, None, None

    rank, k = np.array(n_of, dtype=np.int64), np.zeros(len(n_of), dtype=np.int64)
    recovered = np.ones(n, dtype=bool)
    for f in np.flatnonzero(np.maximum.reduceat(deg_v, s_start[:-1])):
        lost, rank[f], k[f] = _inactivate(flat, d, deg_v, acc_v, solved_v, *b_start[f : f + 2].tolist())
        recovered[lost] = False
    return peeled, recovered, rounds, rank, k


def _inactivate(flat, d, deg_v, acc_v, solved_v, b0, b1) -> tuple[list[int], int, int]:
    """Inactivation decoding of the frame with bursts b0..b1-1, whose peeling
    stalled; it updates the union's arrays in place: deg_v holds each slot's
    count of unresolved bursts and acc_v the sum of their ids (see _decode),
    so a slot of degree 1 names its burst.

    One loop over a FIFO queue of slots cancels one burst per step: that of
    the next queued slot still of degree 1, which inherits the slot's mask,
    or, once the queue is empty, the lowest-numbered unresolved burst, which
    becomes the unknown x_j, mask bit j. A solved burst stays solved, so one
    pass over the bursts peeling left finds these with no index by slot.
    Masks pass on to the cancelled burst's slots; at the end the slots that
    solved no burst hold the constraints mask . x = known, and a burst is
    recovered iff its mask reduces to 0 against their echelon basis, whatever
    was inactivated. Returns (lost bursts, rank n - k + rank(constraints), k).
    """
    # indexing through memoryviews gives plain ints, no numpy scalars
    rows, deg, acc, solved = map(memoryview, (flat, deg_v, acc_v, solved_v))
    left = iter((b0 + np.flatnonzero(solved_v[b0:b1] == 0)).tolist())  # the bursts peeling left, ascending
    smask: dict[int, int] = {}  # slot -> mask of the x_j in its residual value
    bmask: dict[int, int] = {}  # burst -> mask of the x_j in its value
    queue: deque[int] = deque()
    k = 0
    while queue or (b := next((j for j in left if not solved[j]), -1)) >= 0:
        if queue:
            s = queue.popleft()
            if deg[s] != 1:
                continue
            b, v = acc[s], smask.get(s, 0)
        else:
            v, k = 1 << k, k + 1
        solved[b] = 1
        for t in rows[b * d : (b + 1) * d]:
            deg[t] -= 1
            acc[t] -= b
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
# hold more memory. Swept on a 2-core host over C7 (block frames of 190-3000
# bursts), C8 (super-frames of ~22k) and sim-exact (EX, ~3.6k): seconds, the
# median of 10 in-process rounds of every budget in turn, in two sittings;
# ru_maxrss in MB, the median over fresh processes:
#
#   budget   C7 s         C8 s         EX s           C7 / C8 / EX MB
#    2,048   0.55 / 0.55  0.94 / 0.80  0.085 / 0.100  36.0 / 37.8 / 36.0
#    8,000   0.39 / 0.33  0.81 / 0.88  0.071 / 0.100  36.4 / 37.8 / 36.4
#   12,000   0.38 / 0.37  0.83 / 0.96  0.070 / 0.107  36.7 / 37.8 / 36.5
#   16,000   0.34 / 0.37  0.78 / 0.85  0.066 / 0.108  37.4 / 38.0 / 36.8
#   24,000   0.32 / 0.34  0.74 / 0.68  0.067 / 0.092  38.2 / 38.8 / 37.3
#   32,000   0.33 / 0.32  0.76 / 0.58  0.067 / 0.079  38.3 / 38.8 / 37.9
#   48,000   0.38 / 0.37  0.70 / 0.64  0.065 / 0.072  39.5 / 40.8 / 39.2
#
# C8 gains as a batch holds more super-frames: 48,000, the smallest budget
# that holds three, cuts its peel rounds from 12,125 to 9,196. C7 gains
# nothing past ~16,000 (24,000 against 48,000: 0.31 against 0.32 s).
_BATCH_BURSTS = 48_000


def _trial_batch(ids, draw, n_slots, exact, seed):
    """A (len(ids), 3, n_types) int64 array: per trial t in ids, the bursts
    counted by user type (a block frame has one type), row 0 those generated,
    row 1 those peeling lost, row 2 those the decoder's result lost.

    Frame t (n_slots slots) is draw(rng=rng_stream(seed, t)): its rows, sorted by type, and
    burst counts per type, which sample_*_frame wraps in a FrameGraph. Frames are collected
    until they hold _BATCH_BURSTS bursts, and each batch is checked and decoded as one disjoint
    graph (see _count_losses), so the counts do not depend on the batching. The rows go into one
    union buffer for all batches, doubled up to the budget and then grown only as a batch needs."""
    counts, held, rows, n = [], [], None, 0
    for i, t in enumerate(ids, 1):
        slots, by_type = draw(rng=rng_stream(seed, t))
        n0, n = n, n + len(slots)
        if rows is None or n > len(rows):
            grown = np.empty((max(n, min(2 * n0, _BATCH_BURSTS)), slots.shape[1]), dtype=np.int64)
            if n0:
                grown[:n0] = rows[:n0]
            rows = grown
        np.add(slots, len(held) * n_slots, out=rows[n0:n])
        held.append(by_type)
        del slots  # its rows now live in the union only
        if n >= _BATCH_BURSTS or i == len(ids):
            counts.append(_count_losses(rows[:n], np.array(held), n_slots, exact))
            held, n = [], 0
    return np.concatenate(counts)


def _count_losses(rows, gen, n_slots, exact):
    """One batch of _trial_batch: frame f's rows, slot ids offset by f*n_slots, and gen[f], its
    burst count per type. The batch is checked once, as FrameGraph checks a frame. A frame's rows
    are sorted by type, so the union is cut into runs of gen.ravel() rows, one per (frame, type),
    and each run counts the lost bursts inside it."""
    n_of = gen.sum(axis=1)
    _check_rows(rows, n_of, n_slots)
    peeled, recovered, *_ = _decode(rows, n_of, [n_slots] * len(gen), exact)
    ends = np.cumsum(gen)  # each run's end
    lost = [np.diff(np.searchsorted(np.flatnonzero(~ok), ends), prepend=0) for ok in (peeled, recovered)]
    return np.stack([gen, *(c.reshape(gen.shape) for c in lost)], axis=1)


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
    for what, x in dict(m=m, d=d, trials=trials, seed=seed, l=l).items():
        if not (x is None or isinstance(x, numbers.Real) and x % 1 == 0):  # refused, not rounded
            raise ValueError(f"{what} must be an integer, got {x!r}")
    m, d, trials, seed, l = (x if x is None else int(x) for x in (m, d, trials, seed, l))
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if (l is None) != (scenario == "block"):
        raise ValueError(f"coupled runs need a chain length l and block runs take none, got l={l}")
    if scenario == "block":
        draw, n_slots = partial(_draw_block, m, g, d, alpha=alpha), m
    else:
        topo = build_topology(l, d)
        draw, n_slots = partial(_draw_coupled, m, topo, g, alpha=alpha), m * topo.m_f
    batch = partial(_trial_batch, draw=draw, n_slots=n_slots, exact=decoder != "peeling", seed=seed)
    # in-process, one chunk, since each chunk starts a new batch; a pool gets
    # four chunks per worker, so that a slow chunk does not hold up the rest
    pool = pool_size(workers, trials)
    chunks = np.array_split(np.arange(trials), 1 if pool == 1 else min(4 * pool, trials))
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
