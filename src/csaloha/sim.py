"""Finite-length Monte Carlo machinery: sampled frame graphs, the iterative
peeling (SIC) decoder, an exact GF(2) Gauss-Jordan decoder used as the
genie-aided MAP reference, and a trial runner with reproducible per-trial
random streams.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import CoupledTopology, pool_size, rng_stream


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
    """recovered holds burst indices (row numbers into FrameGraph.slots)."""

    recovered: frozenset[int]
    method: str
    peel_iterations: int | None = None
    gje_rank: int | None = None


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
    if g < 0.0:
        raise ValueError(f"offered traffic must be >= 0, got {g}")
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
    frames i..i+d-1; the last d-1 frames carry only copies."""
    if m < 1:
        raise ValueError(f"need at least one slot per frame, got {m}")
    if g < 0.0:
        raise ValueError(f"offered traffic must be >= 0, got {g}")
    counts = np.array([_draw_active(rng, g, m, alpha) for _ in range(topo.l)])
    n = int(counts.sum())
    frame_of_type = np.array(topo.bn_neighbors, dtype=np.int64) - 1  # (l, d)
    offsets = np.repeat(frame_of_type * m, counts, axis=0)  # (n, d)
    in_frame = rng.integers(0, m, size=(n, topo.d), dtype=np.int64)
    types = np.repeat(np.arange(1, topo.l + 1), counts)
    return FrameGraph(
        n_slots=m * topo.m_f, d=topo.d, slots=offsets + in_frame, user_type=types
    )


def _draw_active(rng, g, m, alpha):
    if alpha is None:
        return int(rng.poisson(g * m))
    if alpha <= 0.0:
        raise ValueError(f"population alpha must be positive, got {alpha}")
    if g > alpha:
        raise ValueError(f"g={g} implies an activation probability above 1 at alpha={alpha}")
    return int(rng.binomial(int(round(alpha * m)), g / alpha))


def peel(frame: FrameGraph, slot_order=None) -> DecodeReport:
    """Iterative SIC: repeatedly resolve any slot holding exactly one
    unrecovered burst and cancel that burst from all its slots. The recovered
    set does not depend on the resolution order; peel_iterations counts the
    parallel rounds until no degree-1 slot remains."""
    n = frame.n_active
    deg = np.zeros(frame.n_slots, dtype=np.int64)
    acc = np.zeros(frame.n_slots, dtype=np.int64)  # XOR of resident burst ids
    if n:
        flat = frame.slots.ravel()
        np.add.at(deg, flat, 1)
        np.bitwise_xor.at(acc, flat, np.repeat(np.arange(n, dtype=np.int64), frame.d))
    order = range(frame.n_slots) if slot_order is None else slot_order
    frontier = [s for s in order if deg[s] == 1]
    recovered: set[int] = set()
    rounds = 0
    while frontier:
        rounds += 1
        next_frontier: list[int] = []
        for s in frontier:
            if deg[s] != 1:
                continue
            b = int(acc[s])
            recovered.add(b)
            for t in frame.slots[b]:
                deg[t] -= 1
                acc[t] ^= b
                if deg[t] == 1:
                    next_frontier.append(int(t))
        frontier = next_frontier
    return DecodeReport(frozenset(recovered), "peeling", peel_iterations=rounds)


def gje_decode(frame: FrameGraph) -> DecodeReport:
    """Exact reference decoder: reduce the slot-by-burst GF(2) incidence matrix
    to reduced row-echelon form (bit-packed, word-parallel row XORs). A burst is
    recovered iff its value is the same in every solution of the linear system,
    i.e. iff its pivot row has no other one in a free column."""
    n, m = frame.n_active, frame.n_slots
    if n == 0:
        return DecodeReport(frozenset(), "gje", gje_rank=0)
    words = (n + 63) // 64
    mat = np.zeros((m, words), dtype=np.uint64)
    cols = np.repeat(np.arange(n, dtype=np.int64), frame.d)
    bits = np.left_shift(np.uint64(1), (cols & 63).astype(np.uint64))
    np.bitwise_or.at(mat, (frame.slots.ravel(), cols >> 6), bits)

    pivot_row_of_col: dict[int, int] = {}
    r = 0
    for c in range(n):
        w, b = c >> 6, np.uint64(1) << np.uint64(c & 63)
        nz = np.nonzero(mat[r:, w] & b)[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            mat[[r, pr]] = mat[[pr, r]]
        sel = np.nonzero(mat[:, w] & b)[0]
        sel = sel[sel != r]
        if sel.size:
            mat[sel] ^= mat[r]
        pivot_row_of_col[c] = r
        r += 1
    rank = r

    free_mask = np.zeros(words, dtype=np.uint64)
    free_cols = np.setdiff1d(np.arange(n), np.fromiter(pivot_row_of_col, dtype=np.int64, count=rank))
    if free_cols.size:
        np.bitwise_or.at(
            free_mask,
            free_cols >> 6,
            np.left_shift(np.uint64(1), (free_cols & 63).astype(np.uint64)),
        )
    recovered = frozenset(
        c for c, pr in pivot_row_of_col.items() if not (mat[pr] & free_mask).any()
    )
    return DecodeReport(recovered, "gje", gje_rank=rank)


# ------------------------------------------------------------------ trials

@dataclass(frozen=True)
class SimReport:
    """Aggregated packet-loss statistics over independent trials.

    plr is pooled (total unrecovered bursts / total bursts) for the primary
    decoder (peeling unless decoder='gje'); ci95 is a normal-approximation
    half-width from the per-trial ratio estimator. per_position_plr (coupled
    runs) pools losses per user type 1..l. With decoder='both' the gje_*
    fields carry the reference decoder's numbers and gje_extra_recovered the
    per-trial count of bursts the reference decoder recovered but peeling
    did not (never negative).
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
        out = {
            "scenario": self.scenario,
            "decoder": self.decoder,
            "trials": self.trials,
            "offered_g": self.offered_g,
            "m": self.m,
            "d": self.d,
            "seed": self.seed,
            "n_bursts": self.n_bursts,
            "n_lost": self.n_lost,
            "plr": self.plr,
            "ci95": self.ci95,
        }
        if self.l is not None:
            out["l"] = self.l
        if self.alpha is not None:
            out["alpha"] = self.alpha
        if self.per_position_plr is not None:
            out["per_position_plr"] = list(self.per_position_plr)
        if self.gje_plr is not None:
            out["gje_n_lost"] = self.gje_n_lost
            out["gje_plr"] = self.gje_plr
            out["gje_ci95"] = self.gje_ci95
            out["gje_extra_recovered_total"] = int(sum(self.gje_extra_recovered))
        return out


def _one_trial(scenario, m, d, l, alpha, g, decoder, seed, t, topo):
    rng = rng_stream(seed, t)
    if scenario == "block":
        frame = sample_block_frame(m, g, d, rng, alpha)
    else:
        frame = sample_coupled_frame(m, topo, g, rng, alpha)
    gen = frame.n_active
    run_peel = decoder in ("peeling", "both")
    run_gje = decoder in ("gje", "both")
    peel_rec = peel(frame).recovered if run_peel else None
    gje_rec = gje_decode(frame).recovered if run_gje else None
    primary = gje_rec if decoder == "gje" else peel_rec
    lost = gen - len(primary)
    gje_lost = gen - len(gje_rec) if run_gje else 0
    extra = len(gje_rec - peel_rec) if decoder == "both" else 0
    if scenario == "coupled":
        type_gen = np.bincount(frame.user_type, minlength=l + 1)[1:]
        unrec = np.ones(gen, dtype=bool)
        if primary:
            unrec[list(primary)] = False
        type_lost = np.bincount(frame.user_type[unrec], minlength=l + 1)[1:]
    else:
        type_gen = type_lost = None
    return gen, lost, gje_lost, extra, type_gen, type_lost


def _trial_batch(args):
    scenario, m, d, l, alpha, g, decoder, seed, ids, topo = args
    return [_one_trial(scenario, m, d, l, alpha, g, decoder, seed, t, topo) for t in ids]


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
    topo = None
    if scenario == "coupled":
        if l is None:
            raise ValueError("coupled runs need the chain length l")
        from .core import build_topology

        topo = build_topology(l, d)

    ids = list(range(trials))
    workers = pool_size(workers, trials)
    if workers > 1:
        chunks = np.array_split(ids, min(workers * 4, trials))
        payloads = [
            (scenario, m, d, l, alpha, g, decoder, seed, [int(t) for t in c], topo)
            for c in chunks
            if len(c)
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = [row for batch in pool.map(_trial_batch, payloads) for row in batch]
    else:
        rows = _trial_batch((scenario, m, d, l, alpha, g, decoder, seed, ids, topo))

    gen = np.array([r[0] for r in rows], dtype=np.int64)
    lost = np.array([r[1] for r in rows], dtype=np.int64)
    plr, ci = _ratio_ci95(lost, gen)
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
        plr=plr,
        ci95=ci,
    )
    if scenario == "coupled":
        tgen = np.sum([r[4] for r in rows], axis=0)
        tlost = np.sum([r[5] for r in rows], axis=0)
        with np.errstate(invalid="ignore"):
            per_pos = np.where(tgen > 0, tlost / np.maximum(tgen, 1), 0.0)
        report["per_position_plr"] = tuple(float(x) for x in per_pos)
    if decoder == "both":
        gje_lost = np.array([r[2] for r in rows], dtype=np.int64)
        gje_plr, gje_ci = _ratio_ci95(gje_lost, gen)
        report["gje_n_lost"] = int(gje_lost.sum())
        report["gje_plr"] = gje_plr
        report["gje_ci95"] = gje_ci
        report["gje_extra_recovered"] = tuple(int(r[3]) for r in rows)
    return SimReport(**report)


# ------------------------------------------------------------- text format

def frame_to_text(frame: FrameGraph) -> str:
    """Line-based debug form: header 'n_slots n_active d', then one line per
    burst with its 0-indexed slots. Types of coupled bursts are not part of
    the schema, so only the graph structure round-trips."""
    lines = [f"{frame.n_slots} {frame.n_active} {frame.d}"]
    lines += [" ".join(str(int(s)) for s in row) for row in frame.slots]
    return "\n".join(lines) + "\n"


def frame_from_text(text: str) -> FrameGraph:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty frame text")
    try:
        m, n, d = (int(tok) for tok in lines[0].split())
    except Exception as exc:
        raise ValueError(f"bad header line {lines[0]!r}") from exc
    if len(lines) - 1 != n:
        raise ValueError(f"header promises {n} bursts, found {len(lines) - 1}")
    slots = np.array(
        [[int(tok) for tok in ln.split()] for ln in lines[1:]], dtype=np.int64
    ).reshape(n, d)
    return FrameGraph(n_slots=m, d=d, slots=slots)
