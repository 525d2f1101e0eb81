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

from .core import CoupledTopology, as_int, build_topology, pool_map, pool_size, rng_streams


@dataclass(frozen=True, eq=False)
class FrameGraph:
    """One sampled frame (or super-frame) instance: slots has one row per
    active burst listing its d distinct slot indices (0-indexed, global
    across the super-frame in the coupled case). A frame is its slot rows;
    a coupled burst's type follows from them (see sample_coupled_frame).
    A frame is checked once, when built, and stays as checked: slots is its
    own read-only int64 copy, and no field can be assigned.
    """

    n_slots: int
    d: int
    slots: np.ndarray

    def __post_init__(self):
        n_slots, d, slots = as_int(self.n_slots, "n_slots"), as_int(self.d, "d"), np.asarray(self.slots)
        if n_slots < 1 or d < 1:
            raise ValueError(f"need at least one slot and d >= 1, got n_slots={n_slots}, d={d}")
        if slots.dtype.kind not in "biu" and not (np.isfinite(slots) & (slots == np.floor(slots))).all():
            raise ValueError("slot indices must be integers")  # NaN and inf too: refused, not cast
        if slots.size and slots.shape[1:] != (d,):
            raise ValueError(f"slots must have shape (n, d={d}), got {slots.shape}")
        if slots.size and (slots.min() < 0 or slots.max() >= n_slots):  # on the given values: a cast could wrap
            raise ValueError("slot indices out of range")
        slots = slots.reshape(-1, d).astype(np.int64)  # the frame's own copy; an empty one of any shape is (0, d)
        if _repeats_a_slot(slots).any():
            raise ValueError("a burst lists the same slot twice")
        slots.setflags(write=False)
        for name, value in (("n_slots", n_slots), ("d", d), ("slots", slots)):
            object.__setattr__(self, name, value)

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
    m, d = as_int(m, "m"), as_int(d, "d")
    return FrameGraph(n_slots=m, d=d, slots=_draw_block(m, g, d, rng, alpha)[0])


def _draw_block(m, g, d, rng, alpha=None):
    """sample_block_frame's draw: (the slot rows, [the burst count]). Every
    row lists d distinct slots of 0..m-1, as _lanes needs: integers(0, m)
    draws in range, and a row is redrawn until it repeats no slot. A draw
    is accepted with probability m!/((m-d)! m^d), so near m = d the redraws
    dominate: 1 in 416 at m = d = 8."""
    if d < 1:
        raise ValueError(f"repetition degree must be >= 1, got {d}")
    if m < d:
        raise ValueError(f"need at least d={d} slots, got m={m}")
    counts = _draw_active(rng, g, m, alpha, 1)
    slots = rng.integers(0, m, size=(int(counts[0]), d), dtype=np.int64)
    redo = np.flatnonzero(_repeats_a_slot(slots)).tolist()
    while redo:  # a few rows a pass, checked as lists: a numpy call costs more than the check
        drawn = rng.integers(0, m, size=(len(redo), d), dtype=np.int64)
        slots[redo] = drawn
        redo = [i for i, row in zip(redo, drawn.tolist()) if len(set(row)) < d]  # only a redrawn row can repeat a slot
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


def sample_coupled_frame(
    m: int, topo: CoupledTopology, g: float, rng: np.random.Generator, alpha: float | None = None
) -> FrameGraph:
    """Draw one super-frame: type-i bursts place one uniform slot in each of
    frames i..i+d-1 (mod m_f); on the terminated chain the last d-1 frames
    carry only copies. The bursts are sorted by type. A type-i burst's first
    slot lies in frame i (i <= l <= m_f, so it never wraps): its type is
    slots[:, 0] // m + 1."""
    m = as_int(m, "m")
    return FrameGraph(n_slots=m * topo.m_f, d=topo.d, slots=_draw_coupled(m, topo, g, rng, alpha)[0])


def _draw_coupled(m, topo, g, rng, alpha=None):
    """sample_coupled_frame's draw: (the slot rows, sorted by type, and each type's burst count).
    Every row lists d distinct slots of 0..m*m_f-1, as _lanes needs: one of 0..m-1 in each of
    frames i..i+d-1 (mod m_f), which are d distinct frames since d <= m_f on a chain and l >= d
    on a circulant."""
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
    users = round(alpha * m)  # 1.1 * 50 is 55.00000000000001: integral up to float rounding
    if not math.isclose(alpha * m, users, rel_tol=1e-12):
        raise ValueError(f"population alpha*m must be an integer, got {alpha}*{m} = {alpha * m}")
    return rng.binomial(users, g / alpha, size)


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
    The frame is decoded in a lane of its own (see _lanes)."""
    return _report(frame, exact=False)


def gje_decode(frame: FrameGraph) -> DecodeReport:
    """Exact (genie-aided MAP) decoder: peeling plus inactivation (see _lanes)."""
    return _report(frame, exact=True)


def _report(frame: FrameGraph, exact: bool) -> DecodeReport:
    lanes = _lanes(partial(next, iter([frame.slots]), None), 1, frame.n_slots, exact)
    _, peeled, recovered, peel_rounds, rank, k = next(lanes)
    peeled_set = frozenset(np.flatnonzero(peeled[0, : frame.n_active]).tolist())
    if not exact:
        return DecodeReport(peeled_set, peeled_set, int(peel_rounds()[0]))
    recovered_set = frozenset(np.flatnonzero(recovered[0, : frame.n_active]).tolist())
    return DecodeReport(recovered_set, peeled_set, int(peel_rounds()[0]), int(rank[0]), int(k[0]))


# Peel rounds between two looks for lanes whose frame has finished: a lane
# idles for up to this many rounds less one, and a look costs a few numpy
# calls (the sweep: ROADMAP, "Measured and set aside").
_CHECK_ROUNDS = 16


def _lanes(next_frame, n_lanes: int, n_slots: int, exact: bool):
    """Peel a stream of frames of one degree d in n_lanes rolling lanes of
    one union graph; if exact, finish each frame that stalls by inactivation
    decoding (_inactivate). next_frame() returns the next frame's (n, d) slot
    rows, or None after the last; the rows are copied, so the caller need
    not keep them. They are decoded as given, unchecked: each row must list
    d distinct slots of 0..n_slots-1. FrameGraph guarantees that for peel
    and gje_decode, and the samplers (_draw_block, _draw_coupled) for
    run_trials.

    Lane i holds one frame at a time: slots i*n_slots..(i+1)*n_slots-1 and
    bursts i*C..i*C+n-1 of the union, where C is the lanes' burst capacity
    and a burst's id is its row in the union buffer. The lanes are the
    union's components, so each round (see peel) is a round of every lane's
    frame at once: one set of numpy calls per round serves all of them.
    Every _CHECK_ROUNDS rounds, each lane with no slot in the frontier has
    finished peeling. Those lanes are evicted together: each one's peeled
    mask is copied and a stalled frame is then finished by _inactivate, which
    leaves deg_v and acc_v as peeling left them: a refill rewrites the lane.
    A fill resets the freed lanes, then draws the next frames of the stream
    into them one at a time. Each frame's rows are copied into its lane and
    read there in place: counted in with one add.at for the degrees and d
    for the id sums, before the next frame is drawn. Then the new frames'
    degree-1 slots join the frontier. A frame larger than C grows every
    lane: the bursts in flight move with their lane, and every lane's
    degrees and id sums are counted again from its unsolved rows, in the
    grown union's dtype. A
    frame's peel_iterations is the last round whose frontier held one of
    its lane's slots, less the round at which it entered: it gets that
    count, and everything else, as when decoded alone.

    A round keeps one copy of a burst that two frontier slots hold, without
    a sort: it writes each candidate's position into pos and keeps those
    whose position survived. Any repeat may win the write: one copy survives,
    and the round's later updates are order-independent integer scatters.
    Its boolean selects are compress calls, which equal x[mask] for less.

    The next frontier needs no gather of the degrees before the round, by an
    invariant: every slot of degree 1 is in the frontier when a round starts
    (a fill adds its frames' degree-1 slots, and a round solves every
    degree-1 slot of its frontier and adds each slot that falls from 2 or
    more to at most 1). So the cancelled slots t that had degree 1 are the
    round's solving slots, one, and each appears in t once: it holds one
    burst, which the round keeps once. The others had degree 2 or more. So
    one is set to 3 before the scatters and ends at 2, deg_v[t] <= 1 then
    picks, in order, the slots that fell from 2 or more to at most 1, and
    one is set to its true degree, 0.

    acc_v holds each slot's sum of unresolved burst ids: a slot of degree 1
    holds its burst's id. Sums, not XORs: numpy's indexed fast loop covers
    add.at and subtract.at on 1-D indices but not bitwise_xor.at. The slot
    rows, degrees and id sums share one dtype, _union_dtype of the union's
    slot and burst counts: int32 unless an id could reach 2**31. The sums
    are then held modulo 2**32, which is enough: a sum of one id is that id,
    below 2**31, so its residue read as an int32 is the id itself, however
    often the sums of a crowded slot wrapped on the way (for _inactivate's
    copies, see there). Every ufunc.at gets values of that dtype: a Python
    int or an int64 array sends an int32 scatter to numpy's slow path. A
    round casts its burst ids and cancelled slots to intp once each, for
    its gathers; the id-sum scatter reads the slots before their cast, as
    the first round after a full fill sets a C8 batch's memory peak.

    Yields, per look that evicts lanes, (seq, peeled, recovered, peel_rounds,
    rank, inactivations): the evicted frames' positions in the stream, (E, C)
    boolean masks over their lanes' bursts (a frame's n bursts come first;
    recovered is peeled unless exact), a function that returns their
    peel_iterations until the stream is resumed, and one int64 entry per
    frame, or None unless exact.
    """
    L, S = n_lanes, n_slots
    # each slot's count of unresolved bursts, and the sum of their ids
    deg_v, acc_v = np.zeros((2, L * S), dtype=_union_dtype(L * S))
    rows, C, d = None, 0, 0
    solved_v = np.zeros(0, dtype=np.uint8)  # 1 once solved or inactivated
    pos = np.empty(0, dtype=np.int32)  # a candidate burst's position in its round
    n, entry, seq = np.zeros((3, L), dtype=np.intp)  # each lane's bursts, entry round, stream position
    active = np.zeros(L, dtype=bool)
    drawn, r = 0, 0

    def count(t, ids):  # bursts ids, of slot rows t, into the degrees and id sums
        t = t.astype(np.intp)  # once: each scatter would cast an int32 index again, at a higher cost
        np.add.at(deg_v, t.ravel(), deg_v.dtype.type(1))
        for j in range(d):
            np.add.at(acc_v, t[:, j], ids)

    def grow(c):
        nonlocal rows, solved_v, pos, C, deg_v, acc_v
        ix = _union_dtype(L * max(S, c))
        grown, solved = np.empty((L * c, d), dtype=ix), np.zeros(L * c, dtype=np.uint8)
        if C:  # move each lane's bursts to its new range
            grown.reshape(L, c, d)[:, :C] = rows.reshape(L, C, d)
            solved.reshape(L, c)[:, :C] = solved_v.reshape(L, C)
        if C or ix != deg_v.dtype:  # count the lanes' unsolved bursts again, by their new ids
            deg_v = acc_v = None  # freed before the new ones are made
            deg_v, acc_v = np.zeros((2, L * S), dtype=ix)
            live = np.flatnonzero((np.arange(c) < n[:, None]).ravel() > solved)
            count(grown[live], live.astype(ix))
        rows, solved_v, pos, C = grown, solved, np.empty(L * c, dtype=np.int32), c

    def fill(lanes):
        nonlocal d, drawn
        deg_v.reshape(L, S)[lanes], acc_v.reshape(L, S)[lanes], n[lanes] = 0, 0, 0
        solved_v.reshape(L, C)[lanes] = 0
        got = 0  # the lanes that drew a frame: lanes[:got]
        for i in lanes.tolist():
            if (slots := next_frame()) is None:
                break
            if rows is None or len(slots) > C:
                d, c = slots.shape[1], max(len(slots), C)
                grow(c + 8 * math.isqrt(c))  # room for eight standard deviations of a Poisson count
            t = rows[i * C : i * C + len(slots)]  # a lane's rows are contiguous: a view, not a gather
            np.add(slots, i * S, out=t)
            n[i], got = len(slots), got + 1
            del slots  # its rows live in the union now, not through the next draw
            count(t, np.arange(i * C, i * C + len(t), dtype=acc_v.dtype))
        got = lanes[:got]
        active[lanes] = False
        active[got], entry[got], seq[got] = True, r, np.arange(drawn, drawn + got.size)
        drawn += got.size
        f = np.flatnonzero(deg_v.reshape(L, S)[got] == 1)  # e*S + s for slot s of lane got[e]
        return f + ((got - np.arange(got.size)) * S)[f // S]

    def evict(lanes, fronts):
        def peel_rounds():  # until the stream resumes; a lane busy at the look before is in fronts
            last = entry.copy()
            at = np.repeat(np.arange(r - len(fronts) + 1, r + 1), [f.size for f in fronts])
            np.maximum.at(last, np.concatenate([last[:0], *fronts]) // S, at)
            return last[lanes] - entry[lanes]

        peeled = solved_v.reshape(L, C)[lanes].view(bool)
        if not exact:
            return seq[lanes], peeled, peeled, peel_rounds, None, None
        rank, k = n[lanes].astype(np.int64), np.zeros(len(lanes), dtype=np.int64)
        recovered = np.ones_like(peeled)
        for j in np.flatnonzero(deg_v.reshape(L, S)[lanes].any(axis=1)).tolist():  # the lanes whose peeling stalled
            b0, i = int(lanes[j]) * C, int(lanes[j])
            lost, rank[j], k[j] = _inactivate(rows.ravel(), d, deg_v, acc_v, solved_v, b0, b0 + int(n[i]), i * S, S)
            recovered[j, np.array(lost, dtype=np.intp) - b0] = False
        return seq[lanes], peeled, recovered, peel_rounds, rank, k

    def run_round(frontier):  # the next frontier; the round's arrays go when it returns
        one = frontier.compress(deg_v[frontier] == 1)  # the solving slots
        b = acc_v[one].astype(np.intp)
        at = np.arange(b.size, dtype=np.int32)  # pos's dtype: a cast would cost more than the scatter
        pos[b] = at
        b = b.compress(pos[b] == at)
        del at  # and b below, before t is cast: a full fill's first round sets a C8 batch's memory peak
        solved_v[b] = 1
        t = rows.take(b, 0).ravel()
        np.subtract.at(acc_v, t, b.astype(acc_v.dtype).repeat(d))
        del b
        t = t.astype(np.intp)
        deg_v[one] = 3  # the sentinel: a solving slot ends the round at 2, out of the frontier
        np.subtract.at(deg_v, t, deg_v.dtype.type(1))
        frontier = t.compress(deg_v[t] <= 1)
        deg_v[one] = 0
        return frontier

    frontier = fill(np.arange(L))
    while active.any():
        fronts = []  # the frontier of each round since the last look
        for _ in range(_CHECK_ROUNDS):
            if not frontier.size:
                break
            r += 1
            fronts.append(frontier)
            frontier = run_round(frontier)
        busy = np.zeros(L, dtype=bool)
        busy[frontier // S] = True
        if (done := np.flatnonzero(active > busy)).size:
            yield evict(done, fronts)
            frontier = np.concatenate([frontier, fill(done)])


def _union_dtype(n: int) -> np.dtype:
    """The dtype of _lanes' slot rows, degrees and id sums over a union of
    n slots or bursts, whichever is more: int32, which halves them, while
    every id (below n) fits in it, else int64."""
    return np.dtype(np.int32 if n <= 2**31 else np.int64)


def _inactivate(flat, d, deg_v, acc_v, solved_v, b0, b1, s0, m) -> tuple[list[int], int, int]:
    """Inactivation decoding of the frame with bursts b0..b1-1 and slots
    s0..s0+m-1, whose peeling stalled, on list copies of deg_v and acc_v (see
    _lanes) over the span of slots that still hold a burst. Of the union it
    writes only solved_v and the frame's rows, which become span positions.
    A copied sum is known only modulo 2**32 on an int32 union, and the loop
    subtracts exact ids from it: a slot's value at degree 1 is its id plus
    j * 2**32 for some j <= 0, since the copy is below 2**31 and so is the
    id. So a value >= 0 is the id, and a negative one is reduced mod 2**32
    (& wrap) before it names its burst. An int64 union holds exact sums.

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
    lo, hi = (s0 + np.flatnonzero(deg_v[s0 : s0 + m])[[0, -1]] + [0, 1]).tolist()
    flat[b0 * d : b1 * d] -= lo  # slot lo + i is i from here on; a refill overwrites the rows
    deg, acc, smask = deg_v[lo:hi].tolist(), acc_v[lo:hi].tolist(), [0] * (hi - lo)  # lists: half a memoryview's cost
    wrap = (1 << 8 * acc_v.itemsize) - 1  # the sums' modulus less 1
    rows, solved = memoryview(flat), memoryview(solved_v)  # plain ints, no numpy scalars
    left = iter((b0 + np.flatnonzero(solved_v[b0:b1] == 0)).tolist())  # the bursts peeling left, ascending
    bmask: dict[int, int] = {}  # burst -> mask of the x_j in its value
    queue: deque[int] = deque()  # slots, as positions in the span
    k = 0
    while queue or (b := next((j for j in left if not solved[j]), -1)) >= 0:
        if queue:
            s = queue.popleft()
            if deg[s] != 1:
                continue
            b, v = acc[s], smask[s]
            if b < 0:  # a sum that wrapped: its residue is the id
                b &= wrap
        else:
            v, k = 1 << k, k + 1
        solved[b] = 1
        for t in rows[b * d : (b + 1) * d]:
            deg[t] -= 1
            acc[t] -= b
            if v:
                smask[t] ^= v
            if deg[t] == 1:
                queue.append(t)
        if v:
            bmask[b] = v

    # the constraints: the distinct nonzero masks left (a solving slot ends at 0); basis: leading bit -> echelon row
    basis: dict[int, int] = {}
    for v in dict.fromkeys(filter(None, smask)):
        if v := _reduce(v, basis):
            basis[v.bit_length() - 1] = v
    gone = set()  # the masks that do not reduce to 0; at full rank every mask lies in the span
    if len(basis) < k:
        gone = {v for v in set(bmask.values()) if _reduce(v, basis)}  # each distinct mask once
    return [b for b, v in bmask.items() if v in gone], b1 - b0 - k + len(basis), k


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


# Slots that _trial_batch's lanes hold at most, unless it takes _MIN_LANES
# lanes to reach them (a frame's slot count stands in for its burst count:
# every workload runs near g=1). More lanes share each round's numpy calls
# among more frames, but hold more memory. C8's super-frames (26,000 slots)
# get _MIN_LANES lanes, whose traced peak stays below that of three lanes of
# int64 union arrays (the sweeps: ROADMAP, "Measured and set aside").
_BATCH_BURSTS = 36_000
_MIN_LANES = 5


def _trial_batch(ids, draw, n_slots, exact, seed):
    """A (len(ids), 3, n_types) int64 array: per trial t in ids, the bursts
    counted by user type (a block frame has one type), row 0 those generated,
    row 1 those peeling lost, row 2 those the decoder's result lost.

    Frame t (n_slots slots) is draw(rng=rng_stream(seed, t)): its rows, sorted by type, and
    burst counts per type, which sample_*_frame wraps in a FrameGraph. The batch holds one
    Philox, re-keyed to (seed, t) before each frame (core.rng_streams), which draws exactly
    rng_stream(seed, t)'s numbers at a quarter of a new stream's cost. The frames are drawn in
    order into the rolling lanes of one union graph (see _lanes and _BATCH_BURSTS), and each
    evicted frame's losses are counted from its own lane, so the counts do not depend on the
    lanes."""
    gens, streams = [], rng_streams(seed, ids)

    def next_frame():  # a generator would hold its last frame until the next
        if (rng := next(streams, None)) is not None:
            slots, by_type = draw(rng=rng)
            gens.append(by_type)
            return slots

    lanes = min(len(ids), max(_MIN_LANES, _BATCH_BURSTS // n_slots))
    seqs, counts = [], []
    for seq, peeled, recovered, *_ in _lanes(next_frame, lanes, n_slots, exact):
        seqs.append(seq)
        counts.append(_count_losses(np.array([gens[f] for f in seq.tolist()]), peeled, recovered))
    return np.concatenate(counts)[np.argsort(np.concatenate(seqs))]


def _count_losses(gen, peeled, recovered):
    """(E, 3, n_types) counts of E evicted frames: gen[e] is frame e's burst count per type, and
    its bursts, sorted by type, lead row e of the (E, C) masks. So each row is cut into runs of
    gen[e] bursts, one per type, and each run counts the bursts a mask leaves out."""
    out = np.empty((len(gen), 3, gen.shape[1] + 1), dtype=np.int64)
    edges = out[:, 0]  # each row's start, then its runs' ends, in the flattened masks
    edges[:, 0] = 0
    np.cumsum(gen, axis=1, out=edges[:, 1:])
    edges += (peeled.shape[1] * np.arange(len(gen)))[:, None]
    out[:, 1] = np.searchsorted(np.flatnonzero(~peeled), edges)
    out[:, 2] = out[:, 1] if recovered is peeled else np.searchsorted(np.flatnonzero(~recovered), edges)
    out[:, 1:, 1:] -= out[:, 1:, :-1].copy()
    out[:, 0, 1:] = gen
    return out[:, :, 1:]


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
    return ratio, 1.96 * math.sqrt(var * t) / total


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
    m, d, trials, seed = as_int(m, "m"), as_int(d, "d"), as_int(trials, "trials"), as_int(seed, "seed")
    workers = as_int(workers, "workers")
    l = l if l is None else as_int(l, "l")
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if m < 1:  # here, since a batch sizes its lanes by m before its first draw checks it
        raise ValueError(f"need at least one slot per frame, got {m}")
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
