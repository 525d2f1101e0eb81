import dataclasses
import hashlib
import json
import math
import statistics
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest

from csaloha import (
    FrameGraph,
    build_circulant_topology,
    build_topology,
    de_coupled_run,
    gje_decode,
    peel,
    rng_stream,
    run_trials,
    sample_block_frame,
    sample_coupled_frame,
)
from csaloha import core, sim
from oracles import access_frames, dense_gje_decode, enumerate_recoverable, naive_peel


def random_frame(rng, m_max=30, n_max=30, ds=(2, 3, 4)):
    d = int(rng.choice(ds))
    m = int(rng.integers(d, m_max + 1))
    n = int(rng.integers(0, min(n_max, 3 * m) + 1))
    rows = np.array([rng.choice(m, size=d, replace=False) for _ in range(n)], dtype=np.int64)
    return FrameGraph(n_slots=m, d=d, slots=rows.reshape(n, d))


# ------------------------------------------------------------ frame graphs

def test_frame_graph_validation():
    with pytest.raises(ValueError):
        FrameGraph(n_slots=4, d=2, slots=np.array([[0, 0]]))
    with pytest.raises(ValueError):
        FrameGraph(n_slots=4, d=2, slots=np.array([[0, 4]]))
    with pytest.raises(ValueError):
        FrameGraph(n_slots=0, d=1, slots=np.zeros((0, 1)))
    # a degree below 1 is refused: d=0 would drop its three bursts, and d=-1
    # would reach numpy's reshape
    for d, slots in ((0, np.zeros((3, 0))), (-1, np.zeros((0, 1)))):
        with pytest.raises(ValueError, match="d >= 1"):
            FrameGraph(n_slots=5, d=d, slots=slots)
    # a non-integral index is refused, not truncated to [[0, 1]]
    with pytest.raises(ValueError, match="slot indices must be integers"):
        FrameGraph(n_slots=3, d=2, slots=[[0.7, 1.9]])
    with pytest.raises(ValueError, match="slot indices must be integers"):
        FrameGraph(n_slots=3, d=2, slots=[[np.nan, 1.0]])
    # integral floats and empty float arrays stay valid
    f = FrameGraph(n_slots=3, d=2, slots=np.array([[0.0, 2.0]]))
    assert f.slots.dtype == np.int64
    assert f.slots.tolist() == [[0, 2]]
    assert FrameGraph(n_slots=3, d=2, slots=np.zeros((0, 2))).slots.shape == (0, 2)
    assert FrameGraph(n_slots=3, d=3, slots=[]).slots.shape == (0, 3)
    # slots must already be (n, d): a row of 2d slots is not two bursts, a
    # (3, 2) array at d=3 is not two rows mixed from three, and a size that
    # d does not divide is a shape error
    for d, slots in ((2, [[0, 1, 2, 3]]), (3, np.arange(6).reshape(3, 2)), (2, [0, 1, 2]), (2, [0, 1])):
        with pytest.raises(ValueError, match="slots must have shape"):
            FrameGraph(n_slots=10, d=d, slots=slots)
    # integrality and range are checked on the values given, before the
    # int64 cast, which warned on inf and 1e30 and wrapped 2**63 + 5 negative
    refused = (
        ([[0.0, math.inf]], "slot indices must be integers"),
        ([[-math.inf, 1.0]], "slot indices must be integers"),
        ([[0.0, 1e30]], "out of range"),
        (np.array([[0, 2**63 + 5]], dtype=np.uint64), "out of range"),
        (np.array([[0, 2**64 - 1]], dtype=np.uint64), "out of range"),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for slots, match in refused:
            with pytest.raises(ValueError, match=match):
                FrameGraph(n_slots=4, d=2, slots=slots)
        assert FrameGraph(n_slots=4, d=2, slots=np.array([[3, 0]], dtype=np.uint64)).slots.tolist() == [[3, 0]]


def test_frame_graph_stays_as_checked():
    # a frame is its own read-only int64 copy of the rows, with fields that
    # cannot be assigned: what was checked is what peel and gje_decode read
    rows = np.array([[0, 1], [1, 2], [2, 3]], dtype=np.int64)
    f = FrameGraph(n_slots=4, d=2, slots=rows)
    peeled, exact = peel(f), gje_decode(f)
    with pytest.raises(ValueError, match="read-only"):
        f.slots[0, 0] = 1
    for name, value in (("n_slots", 2), ("d", 1), ("slots", np.zeros((0, 2), dtype=np.int64))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(f, name, value)
    rows[:] = [[0, 0], [9, 9], [-1, 5]]  # the caller's array, now three bad rows
    assert f.slots.tolist() == [[0, 1], [1, 2], [2, 3]] and (f.n_slots, f.d) == (4, 2)
    assert peel(f) == peeled and gje_decode(f) == exact
    assert peeled.recovered == frozenset(range(3))


@pytest.mark.parametrize("d", range(1, 9))
def test_repeated_slot_rows_match_the_sort_test(d):
    # the pairwise column comparison flags exactly the rows that sorting each
    # row and looking for equal neighbours flags
    rng = np.random.default_rng(d)
    for m in (d, d + 1, 3 * d, 50):
        slots = rng.integers(0, m, size=(400, d))
        if d > 1:  # force a repeat into every third row, at random columns
            i, j = rng.choice(d, size=2, replace=False)
            slots[::3, i] = slots[::3, j]
        want = (np.diff(np.sort(slots, axis=1), axis=1) == 0).any(axis=1)
        assert np.array_equal(sim._repeats_a_slot(slots), want)
        assert want.any() == (d > 1)
    assert not sim._repeats_a_slot(np.zeros((0, d), dtype=np.int64)).any()


def test_sample_block_frame_zero_load():
    f = sample_block_frame(100, 0.0, 3, rng_stream(0, 0))
    assert f.n_active == 0


def test_sample_block_frame_rows_are_distinct_uniform_slots():
    rng = rng_stream(42, 0)
    for _ in range(50):
        f = sample_block_frame(10, 1.2, 3, rng)
        assert f.slots.shape[1] == 3
        for row in f.slots:
            assert len(set(row.tolist())) == 3
            assert all(0 <= s < 10 for s in row)


def test_sample_block_frame_single_user_structure():
    # scan deterministic trials for an n=1 instance: one burst on d distinct
    # slots of the frame
    rng = rng_stream(7, 0)
    seen = False
    for _ in range(200):
        f = sample_block_frame(4, 0.25, 2, rng)
        if f.n_active == 1:
            seen = True
            assert len(set(f.slots[0].tolist())) == 2
    assert seen


def test_sample_block_frame_binomial_mean():
    # m=100, g=0.5: the active count averages g*m = 50 within 3 sigma/sqrt(T)
    rng = rng_stream(3, 0)
    trials = 10_000
    counts = [sample_block_frame(100, 0.5, 3, rng, alpha=100.0).n_active for _ in range(trials)]
    n, eps = 100 * 100, 0.005
    sigma = math.sqrt(n * eps * (1 - eps))
    assert abs(np.mean(counts) - 50.0) <= 3.0 * sigma / math.sqrt(trials)


def test_sample_block_frame_rejects():
    rng = rng_stream(0, 0)
    with pytest.raises(ValueError):
        sample_block_frame(2, 0.5, 3, rng)  # m < d
    with pytest.raises(ValueError):
        sample_block_frame(10, -0.5, 3, rng)
    with pytest.raises(ValueError):
        sample_block_frame(10, 20.0, 3, rng, alpha=10.0)  # epsilon > 1


def test_sample_block_frame_refuses_a_non_integral_size():
    # it used to return a frame with n_slots=100.5 whose slots came from 0..99
    rng = rng_stream(0, 0)
    for m, d in ((100.5, 3), (100, 2.5)):
        with pytest.raises(ValueError, match="must be an integer"):
            sample_block_frame(m, 0.5, d, rng)
    assert sample_block_frame(100.0, 0.5, 3.0, rng).n_slots == 100


def test_frame_graph_refuses_non_integral_sizes():
    # FrameGraph(n_slots=4.5, ...) used to build and count slot 4 as in range
    with pytest.raises(ValueError, match="n_slots must be an integer"):
        FrameGraph(n_slots=4.5, d=2, slots=[[0, 4]])
    with pytest.raises(ValueError, match="d must be an integer"):
        FrameGraph(n_slots=5, d=2.5, slots=[[0, 4]])
    f = FrameGraph(n_slots=5.0, d=2.0, slots=[[0, 4]])
    assert (f.n_slots, f.d) == (5, 2) and type(f.n_slots) is type(f.d) is int


def test_sample_coupled_frame_refuses_a_non_integral_size():
    # it used to die in numpy's UFuncTypeError
    with pytest.raises(ValueError, match="m must be an integer"):
        sample_coupled_frame(10.5, build_topology(4, 3), 0.5, rng_stream(0, 0))
    f = sample_coupled_frame(10.0, build_topology(4, 3), 0.5, rng_stream(0, 0))
    assert f.n_slots == 60 and f.slots.dtype == np.int64


@pytest.mark.parametrize("alpha", [None, 10.0])
@pytest.mark.parametrize("g", [math.nan, math.inf])
def test_samplers_reject_non_finite_load(g, alpha):
    rng = rng_stream(0, 0)
    with pytest.raises(ValueError, match="offered traffic"):
        sample_block_frame(10, g, 3, rng, alpha=alpha)
    with pytest.raises(ValueError, match="offered traffic"):
        sample_coupled_frame(10, build_topology(4, 3), g, rng, alpha=alpha)


@pytest.mark.parametrize("alpha", [None, 2.0])
@pytest.mark.parametrize("m", [5, 40])
def test_one_vector_count_draw_equals_scalar_draws(m, alpha):
    # a coupled super-frame draws its l per-type counts in one call; they are
    # the draws of l scalar calls, and leave the stream where those leave it
    # (m=5 and m=40 reach both of numpy's Poisson and Binomial algorithms)
    one, each = rng_stream(6, 0), rng_stream(6, 0)
    counts = sim._draw_active(one, 0.9, m, alpha, 50)
    assert counts.tolist() == [sim._draw_active(each, 0.9, m, alpha, None) for _ in range(50)]
    assert one.integers(0, 2**62, 8).tolist() == each.integers(0, 2**62, 8).tolist()


def _spy_fills(draw):
    """draw, wrapped to record the slot rows of each frame it returns: the
    rows a batch's lanes decode, as drawn."""
    seen = []

    def spy(rng):
        slots, by_type = draw(rng=rng)
        seen.append(slots.copy())
        return slots, by_type

    return spy, seen


@pytest.mark.parametrize("alpha", [None, 2.0])
def test_batched_block_draws_are_the_sampled_frames(monkeypatch, alpha):
    # at m=d=3 a row is distinct with probability 2/9, so each frame takes
    # several redraw rounds; re-checking only the redrawn rows draws what
    # re-checking every row draws
    m, g, d, seed, trials = 3, 1.5, 3, 4, 12
    frames = [sample_block_frame(m, g, d, rng_stream(seed, t), alpha=alpha) for t in range(trials)]
    redraws = 0
    for t, f in enumerate(frames):
        rng = rng_stream(seed, t)
        n = rng.poisson(g * m) if alpha is None else rng.binomial(int(round(alpha * m)), g / alpha)
        slots = rng.integers(0, m, size=(n, d))
        while (clash := (np.diff(np.sort(slots, axis=1), axis=1) == 0).any(axis=1)).any():
            slots[clash] = rng.integers(0, m, size=(int(clash.sum()), d))
            redraws += 1
        assert np.array_equal(f.slots, slots)
    assert redraws > 2 * trials
    monkeypatch.setattr(sim, "_BATCH_BURSTS", 12)  # four lanes of three slots
    draw, seen = _spy_fills(partial(sim._draw_block, m, g, d, alpha=alpha))
    counts = sim._trial_batch(range(trials), draw, m, False, seed)
    assert len(seen) > 1
    assert np.array_equal(np.concatenate(seen), np.concatenate([f.slots for f in frames]))
    assert counts[:, 0].ravel().tolist() == [f.n_active for f in frames]


@pytest.mark.parametrize("alpha", [None, 2.0])
@pytest.mark.parametrize(
    "topo", [build_topology(6, 3), build_circulant_topology(6, 3)], ids=["chain", "circulant"]
)
def test_batched_coupled_draws_are_the_sampled_frames(monkeypatch, topo, alpha):
    # the batch decodes each super-frame's rows, at its slot offset, and
    # counts its bursts per type from the draw: they must be the sampled
    # frame's slots and the bincount of its user types, which never decrease
    m, g, seed, trials = 8, 0.9, 5, 10
    frames = [sample_coupled_frame(m, topo, g, rng_stream(seed, t), alpha=alpha) for t in range(trials)]
    types = [f.slots[:, 0] // m + 1 for f in frames]
    assert all((np.diff(u) >= 0).all() for u in types)
    monkeypatch.setattr(sim, "_BATCH_BURSTS", 100)
    draw, seen = _spy_fills(partial(sim._draw_coupled, m, topo, g, alpha=alpha))
    n_slots = m * topo.m_f
    counts = sim._trial_batch(range(trials), draw, n_slots, False, seed)
    assert len(seen) > 1
    assert np.array_equal(np.concatenate(seen), np.concatenate([f.slots for f in frames]))
    want = [np.bincount(u, minlength=topo.l + 1)[1:] for u in types]
    assert np.array_equal(counts[:, 0], np.array(want))


def _assert_valid_rows(rows, d, n_slots):
    # the precondition of the decode lanes, which do not check it: each row
    # lists d distinct slots of 0..n_slots-1 (by the sort test, not _repeats_a_slot)
    assert rows.dtype == np.int64 and rows.ndim == 2 and rows.shape[1] == d
    if rows.size:
        assert 0 <= rows.min() and rows.max() < n_slots
        assert (np.diff(np.sort(rows, axis=1), axis=1) > 0).all()


def test_block_redraws_are_pinned():
    # near m = d most rows are redrawn, pass after pass: each pass draws one
    # (rows left, d) array, so the redraw loop may change but no row may
    def digest(frames):
        return hashlib.sha256(b"".join(rows.tobytes() + n.tobytes() for rows, n in frames)).hexdigest()

    tight = [sim._draw_block(8, 1.0, 8, rng_stream(31, t)) for t in range(4)]  # 1 row in 416 kept
    loose = [sim._draw_block(16, 1.0, 8, rng_stream(31, t)) for t in range(20)]
    assert sum(len(rows) for rows, _ in tight) > 20 and sum(len(rows) for rows, _ in loose) > 200
    assert digest(tight) == "5ea00bc626fe053776c9723831c25dc1939af21014b4b79c009caed19e9eb03e"
    assert digest(loose) == "b706992d6b03c6616ccbf6fd464167b5cdb6aee8a09881fb4b63f0f1e35cae2c"


def test_sampled_rows_are_valid_at_the_edges():
    # the decode lanes read the sampled rows unchecked, so the samplers must
    # draw valid rows at their edges: block frames of m = d slots, where a
    # row is a permutation of the frame (at d=8, one draw in 416 is), and
    # coupled frames of one slot per frame on the shortest and a long chain
    # and on circulants with m_f = l = d, where distinct frames alone keep
    # a row's slots apart
    rng = rng_stream(29, 0)
    for d in range(1, 9):
        for alpha in (None, 2.0):
            for g in (0.0, 1.5):
                n = 0
                for _ in range({6: 10, 7: 4, 8: 2}.get(d, 40)):  # a d=8 frame takes ~0.1 s of redraws
                    rows, counts = sim._draw_block(d, g, d, rng, alpha=alpha)
                    _assert_valid_rows(rows, d, d)
                    assert counts.tolist() == [len(rows)]
                    n += len(rows)
                assert (n > 0) == (g > 0)
        for topo in (build_topology(1, d), build_topology(2, d), build_topology(50, d), build_circulant_topology(d, d)):
            n = 0
            for m, alpha in ((1, None), (1, 2.0), (3, None)):
                for _ in range(5):
                    rows, counts = sim._draw_coupled(m, topo, 1.5, rng, alpha=alpha)
                    _assert_valid_rows(rows, d, m * topo.m_f)
                    assert counts.sum() == len(rows)
                    n += len(rows)
            assert n > 0
    # and the frames a batch draws into its lanes
    for d in (1, 3, 5):
        for draw, n_slots in (
            (partial(sim._draw_block, d, 1.5, d), d),
            (partial(sim._draw_block, d, 1.5, d, alpha=2.0), d),
            (partial(sim._draw_coupled, 1, build_circulant_topology(d, d), 1.5), d),
            (partial(sim._draw_coupled, 2, build_topology(2, d), 1.5, alpha=2.0), 2 * (d + 1)),
        ):
            spy, seen = _spy_fills(draw)
            counts = sim._trial_batch(range(12), spy, n_slots, True, d)
            assert len(seen) == 12 and counts[:, 0].sum() == sum(len(rows) for rows in seen) > 0
            for rows in seen:
                _assert_valid_rows(rows, d, n_slots)


def test_one_rekeyed_stream_draws_what_a_new_stream_draws():
    # a batch re-keys one Philox per trial: each trial's draws (Poisson and
    # Binomial counts, slot rows with their redraws at m=5, uniforms, and a
    # 32-bit draw that leaves half a word buffered) are rng_stream's
    def draws(rng):
        return [
            sim._draw_block(5, 1.5, 3, rng)[0].tolist(),
            sim._draw_block(5, 1.5, 3, rng, alpha=4.0)[0].tolist(),
            rng.random(2).tolist(),
            float(rng.random(dtype=np.float32)),
        ]

    ids = [0, 7, 2**64 + 1, 7, 3]
    for seed in (0, -5, 2**64 + 3):
        got = [draws(rng) for rng in core.rng_streams(seed, ids)]
        assert got == [draws(rng_stream(seed, t)) for t in ids]
        assert got[1] == got[3] != got[4] and got[0][0] and got[0][1]


def test_sample_coupled_frame_structure():
    topo = build_topology(3, 2)
    rng = rng_stream(5, 0)
    f = sample_coupled_frame(4, topo, 2.0, rng)
    assert f.n_slots == 16  # 4 frames of 4 slots
    types = f.slots[:, 0] // 4 + 1
    for row, t in zip(f.slots, types):
        frames = sorted(int(s) // 4 for s in row)
        assert frames == [t - 1, t]  # one copy in its frame, one in the next
    # the last frame carries only copies: no type-4 users exist
    assert types.max() <= 3


def test_sample_coupled_frame_wraps_on_circulant_topology():
    # type i's copies land in frames i..i+d-1 mod l, one in each
    l, d, m = 5, 3, 6
    f = sample_coupled_frame(m, build_circulant_topology(l, d), 3.0, rng_stream(4, 0))
    assert f.n_slots == l * m
    types = f.slots[:, 0] // m + 1
    assert set(types.tolist()) == set(range(1, l + 1))
    for row, t in zip(f.slots, types):
        assert sorted(int(s) // m for s in row) == sorted(j - 1 for j in access_frames(int(t), l, d, wrap=True))


def test_sample_coupled_frame_single_type():
    topo = build_topology(1, 3)
    f = sample_coupled_frame(5, topo, 1.0, rng_stream(8, 0))
    for row in f.slots:
        assert sorted(int(s) // 5 for s in row) == [0, 1, 2]


def test_sample_coupled_frame_slot_degree_scales_with_delta():
    # mean slot degree in frame j approaches g * delta_j
    topo = build_topology(6, 3)
    rng = rng_stream(11, 0)
    m, g, trials = 40, 0.9, 400
    deg = np.zeros(topo.m_f)
    for _ in range(trials):
        f = sample_coupled_frame(m, topo, g, rng)
        counts = np.bincount(f.slots.ravel() // m, minlength=topo.m_f)
        deg += counts / m
    deg /= trials
    expect = g * np.array(topo.delta)
    assert np.all(np.abs(deg - expect) < 0.08)


# ---------------------------------------------------------------- decoders

def test_peel_stopping_set_recovers_nothing():
    # three bursts pairwise sharing slots 0,1,3 of a 4-slot frame: every slot
    # has degree 2, so peeling starts nowhere
    f = FrameGraph(n_slots=4, d=2, slots=np.array([[0, 1], [1, 3], [0, 3]]))
    assert peel(f).recovered == frozenset()


def test_peel_single_user():
    f = FrameGraph(n_slots=2, d=2, slots=np.array([[0, 1]]))
    rep = peel(f)
    assert rep.recovered == frozenset({0}) and rep.peel_iterations == 1


def test_peel_chain_two_rounds():
    f = FrameGraph(n_slots=3, d=2, slots=np.array([[0, 1], [1, 2]]))
    rep = peel(f)
    assert rep.recovered == frozenset({0, 1})
    assert rep.peel_iterations == 2


# d=3 frames whose peel rounds are counted by hand: (rows, peel_iterations);
# every burst is recovered
CRAFTED_PEELS = [
    # round 1 solves bursts 0, 1 and 3, and slot 0 falls 3 -> 1, so it enters
    # the frontier twice; round 2 solves burst 2 through slots 0, 5 and 6
    ([[0, 1, 2], [0, 3, 4], [0, 5, 6], [5, 6, 7]], 2),
    # round 1 solves all three bursts and slot 0 falls 3 -> 0: it is round
    # 2's whole frontier, which solves nothing and is still counted
    ([[0, 1, 2], [0, 3, 4], [0, 5, 6]], 2),
    # burst 0 holds two degree-1 slots, 0 and 1, and is solved once in round
    # 1; slots 2, 3 and 4 fall to 1, and round 2 solves burst 1
    ([[0, 1, 2], [2, 3, 4], [3, 4, 5]], 2),
]


@pytest.mark.parametrize("rows,rounds", CRAFTED_PEELS)
def test_crafted_peel_rounds(rows, rounds):
    f = FrameGraph(n_slots=8, d=3, slots=np.array(rows))
    rep, exact = peel(f), gje_decode(f)
    assert rep.recovered == naive_peel(f) == frozenset(range(len(rows)))
    assert rep.peel_iterations == exact.peel_iterations == rounds
    assert (exact.recovered, exact.gje_rank, exact.inactivations) == (rep.recovered, len(rows), 0)


def test_crafted_peels_in_rolling_lanes(monkeypatch):
    # the same counts and sets in a multi-lane stream, beside frames that
    # peel for longer and one that stalls; only the stalled frames reach the
    # exact pass, so every slot a round solved is left at degree 0
    frames = [FrameGraph(n_slots=8, d=3, slots=np.array(rows)) for rows, _ in CRAFTED_PEELS]
    frames[1:1] = [sample_block_frame(8, 0.9, 3, rng_stream(1, t)) for t in range(3)]  # 4, 1 and 3 rounds
    frames.append(FrameGraph(n_slots=8, d=3, slots=np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])))
    alone = [(g.recovered, g.peeled, g.peel_iterations, g.gje_rank, g.inactivations) for g in map(gje_decode, frames)]
    assert [alone[i][2] for i in (0, 4, 5)] == [rounds for _, rounds in CRAFTED_PEELS]
    stalled = sum(len(a[1]) < f.n_active for f, a in zip(frames, alone))
    calls, inactivate = [], sim._inactivate
    monkeypatch.setattr(sim, "_inactivate", lambda *a: calls.append(a) or inactivate(*a))
    for lanes in (2, 3, len(frames)):
        assert _lane_views(frames, lanes, 8)[0] == alone
        assert _lane_views(frames, lanes, 8, exact=False)[0] == [(p, p, r, None, None) for _, p, r, _, _ in alone]
        assert len(calls) == stalled == 2
        calls.clear()


def test_peel_schedule_independence():
    # relabelling slot s as m-1-s reverses the order in which peeling visits
    # the degree-1 slots; the recovered set must not change
    rng = np.random.default_rng(123)
    for _ in range(300):
        f = random_frame(rng)
        flipped = FrameGraph(n_slots=f.n_slots, d=f.d, slots=f.n_slots - 1 - f.slots)
        fwd, back = peel(f), peel(flipped)
        assert back.recovered == fwd.recovered
        assert back.peel_iterations == fwd.peel_iterations
        assert fwd.recovered == naive_peel(f)


def _peel_digest(frames):
    rows = [(sorted(r.recovered), r.peel_iterations) for r in map(peel, frames)]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def test_peel_rounds_pinned():
    # sha256 of the (sorted(recovered), peel_iterations) list of each group,
    # taken before peeling ran round-synchronously over numpy arrays: 20
    # frames of the C7 block sweep, and 5 coupled frames each of the
    # sim-exact and C8 shapes
    c7 = ((2000, 0.70, 70), (2000, 0.90, 90), (250, 0.75, 75), (1000, 0.75, 75), (4000, 0.75, 75))
    block = [sample_block_frame(m, g, 3, rng_stream(seed, t)) for m, g, seed in c7 for t in range(4)]
    coupled = [
        sample_coupled_frame(m, build_topology(l, 3), g, rng_stream(seed, t))
        for l, m, g, seed in ((20, 200, 0.90, 20), (50, 500, 0.88, 88))
        for t in range(5)
    ]
    assert _peel_digest(block) == BLOCK_PEEL_DIGEST
    assert _peel_digest(coupled) == COUPLED_PEEL_DIGEST
    assert peel(coupled[0]).recovered == naive_peel(coupled[0])
    # an empty frame takes no round; with d=1 a burst alone in its slot is
    # peeled in the first round and a collision is never resolved
    empty = peel(FrameGraph(n_slots=3, d=2, slots=np.zeros((0, 2), dtype=np.int64)))
    assert (empty.recovered, empty.peel_iterations) == (frozenset(), 0)
    single = FrameGraph(n_slots=3, d=1, slots=np.array([[0], [0], [1], [2]]))
    rep = peel(single)
    assert (rep.recovered, rep.peel_iterations) == (frozenset({2, 3}), 1)
    assert rep.recovered == naive_peel(single)


BLOCK_PEEL_DIGEST = "bd94d472eeeee34947fe7af41e7d27bd70d1705d67bc25e2338dce42ed09b38b"
COUPLED_PEEL_DIGEST = "b68dee566a5ef041236f3e3cf2a9d0730cbe861e1712ccde6c192053a15373a4"


@pytest.mark.parametrize("l,g,de_iterations", [(50, 0.85, 99), (20, 0.90, 118), (50, 0.88, 186)])
def test_peel_rounds_follow_the_de_schedule(l, g, de_iterations):
    # The decoding wave seen twice: coupled DE's iterations to target (m -> oo)
    # and the median peel rounds of the m=2000 super-frames that peel in full.
    # At seeds 0-7 (rng_stream(seed, 0..19)) the ratio peel/DE spanned
    # 0.985-1.129 over these three cases; finite m lags the DE schedule, so it
    # sits above 1, most at g=0.88 (seed 0: 210 rounds against 186).
    topo = build_topology(l, 3)
    assert de_coupled_run(topo, g).iterations == de_iterations
    rounds = []
    for s in range(20):
        frame = sample_coupled_frame(2000, topo, g, rng_stream(0, s))
        res = peel(frame)
        if len(res.recovered) == frame.n_active:
            rounds.append(res.peel_iterations)
    assert len(rounds) >= 10
    assert 0.95 <= statistics.median(rounds) / de_iterations <= 1.20


def test_gje_identity_matrix():
    f = FrameGraph(n_slots=2, d=1, slots=np.array([[0], [1]]))
    rep = gje_decode(f)
    assert rep.recovered == frozenset({0, 1}) and rep.gje_rank == 2


def test_gje_beats_peeling_on_complement_rows():
    # 4 bursts of degree 3 over 4 slots, burst j missing slot j: every slot has
    # degree 3 (peeling gets nothing) but the system has full rank
    f = FrameGraph(
        n_slots=4, d=3, slots=np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])
    )
    assert peel(f).recovered == frozenset()
    rep = gje_decode(f)
    assert rep.recovered == frozenset({0, 1, 2, 3}) and rep.gje_rank == 4


def test_gje_triangle_rank_deficient():
    f = FrameGraph(n_slots=3, d=2, slots=np.array([[0, 1], [1, 2], [0, 2]]))
    rep = gje_decode(f)
    assert rep.recovered == frozenset() and rep.gje_rank == 2


def test_gje_empty_frame():
    f = FrameGraph(n_slots=3, d=2, slots=np.zeros((0, 2), dtype=np.int64))
    rep = gje_decode(f)
    assert rep.recovered == frozenset() and rep.gje_rank == 0


def test_gje_matches_exhaustive_enumeration():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        f = random_frame(rng, m_max=20, n_max=10)
        u_true = rng.integers(0, 2, size=f.n_active)
        assert gje_decode(f).recovered == enumerate_recoverable(f, u_true)


def test_peeling_subset_of_gje():
    rng = np.random.default_rng(77)
    for _ in range(2000):
        f = random_frame(rng)
        peeled = peel(f).recovered
        exact = gje_decode(f).recovered
        assert peeled <= exact
        if len(peeled) == f.n_active:  # full peel forces full rank
            assert exact == peeled and gje_decode(f).gje_rank == f.n_active


def test_gje_rank_bounded():
    rng = np.random.default_rng(5)
    for _ in range(100):
        f = random_frame(rng)
        assert gje_decode(f).gje_rank <= min(f.n_slots, f.n_active)


def test_gje_matches_dense_oracle():
    rng = np.random.default_rng(404)
    frames = [
        sample_block_frame(int(rng.integers(20, 300)), float(rng.uniform(0.6, 1.2)), d, rng)
        for d in (2, 3, 4)
        for _ in range(20)
    ]
    topo = build_topology(10, 3)
    frames += [sample_coupled_frame(60, topo, float(g), rng) for g in np.linspace(0.6, 1.2, 13)]
    # one frame of the size the sim-exact benchmark decodes
    frames.append(sample_coupled_frame(200, build_topology(20, 3), 0.9, rng_stream(20, 0)))
    for f in frames:
        rep = gje_decode(f)
        assert (rep.recovered, rep.gje_rank) == dense_gje_decode(f)
        # whatever the rule, k covers the rank deficit and inactivates no peeled burst
        assert f.n_active - rep.gje_rank <= rep.inactivations <= f.n_active - len(rep.peeled)


def test_gje_rank_deficient_matches_dense_oracle():
    # above the block threshold most frames have rank < n: the constraints
    # left after inactivation do not pin every inactivated burst, so some
    # burst's mask does not reduce to 0 against their echelon basis and the
    # recovered set comes from that span test
    loads = ((300, 0.95), (400, 1.0), (200, 1.1))
    frames = [sample_block_frame(m, g, 3, rng_stream(95, t)) for m, g in loads for t in range(4)]
    deficient = 0
    for f in frames:
        rep = gje_decode(f)
        assert (rep.recovered, rep.gje_rank) == dense_gje_decode(f)
        assert f.n_active - rep.gje_rank <= rep.inactivations <= f.n_active - len(rep.peeled)
        deficient += rep.gje_rank < f.n_active
    assert deficient >= 8


def _lane_views(frames, lanes, n_slots, exact=True):
    """Per frame (recovered, peeled, peel_iterations, gje_rank, inactivations)
    from peeling the frames, and finishing them exactly if exact, in `lanes`
    rolling lanes of n_slots slots, as sets and ints; and the look at which
    each frame left its lane."""
    held = iter([f.slots for f in frames])
    out, left = {}, {}
    for look, (seq, peeled, recovered, peel_rounds, rank, k) in enumerate(
        sim._lanes(lambda: next(held, None), lanes, n_slots, exact)
    ):
        for j, (f, rounds) in enumerate(zip(seq.tolist(), peel_rounds())):
            as_set = lambda mask: frozenset(np.flatnonzero(mask[j, : frames[f].n_active]).tolist())  # noqa: E731
            extra = (int(rank[j]), int(k[j])) if exact else (None, None)
            out[f], left[f] = (as_set(recovered), as_set(peeled), int(rounds), *extra), look
    return [out[f] for f in range(len(frames))], left


def test_batched_decoding_matches_frame_by_frame():
    # a batch is one disjoint graph: every frame in it gets the recovered and
    # peeled sets, rounds, rank and inactivations it gets when decoded alone
    empty = FrameGraph(n_slots=7, d=3, slots=np.zeros((0, 3), dtype=np.int64))
    frames = [
        empty,
        sample_block_frame(300, 0.5, 3, rng_stream(1, 0)),  # peels in full
        sample_block_frame(300, 1.0, 3, rng_stream(1, 1)),  # stalls
        FrameGraph(n_slots=4, d=3, slots=np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])),
        sample_coupled_frame(500, build_topology(50, 3), 0.88, rng_stream(88, 0)),  # C8 wave
        empty,
        sample_coupled_frame(40, build_circulant_topology(8, 3), 0.95, rng_stream(2, 0)),
        sample_block_frame(250, 0.75, 3, rng_stream(75, 0)),
        sample_coupled_frame(200, build_topology(20, 3), 0.9, rng_stream(20, 0)),
        empty,
    ]
    alone = [
        (g.recovered, g.peeled, g.peel_iterations, g.gje_rank, g.inactivations)
        for g in map(gje_decode, frames)
    ]
    assert any(a[4] for a in alone) and any(not a[4] for a in alone[1:])
    order = [4, 0, 2, 9, 6, 1, 8, 3, 7, 5]
    for batch in (frames, frames[::-1], [frames[i] for i in order], frames[3:5]):
        want = [alone[frames.index(f)] for f in batch]  # frames compare by identity
        n_slots = max(f.n_slots for f in batch)
        assert _lane_views(batch, len(batch), n_slots)[0] == want
        peeled_only = [(p, p, r, None, None) for _, p, r, _, _ in want]
        assert _lane_views(batch, len(batch), n_slots, exact=False)[0] == peeled_only


def test_rolling_lanes_match_each_frame_decoded_alone(monkeypatch):
    # frames leave their lanes as they finish and the next frames take their
    # place; each gets what it gets alone, at any lane count
    empty = FrameGraph(n_slots=7, d=3, slots=np.zeros((0, 3), dtype=np.int64))
    stuck = FrameGraph(n_slots=4, d=3, slots=np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]))
    wave = sample_coupled_frame(100, build_topology(40, 3), 0.88, rng_stream(1, 2))
    big = sample_coupled_frame(150, build_topology(40, 3), 0.88, rng_stream(2, 0))
    frames = [
        empty,
        empty,
        stuck,  # no slot of degree 1: its first frontier is empty
        wave,  # peels for many rounds, while stuck is finished exactly
        sample_block_frame(300, 1.0, 3, rng_stream(1, 1)),  # stalls
        big,  # more bursts than the lanes hold: they grow under the wave
        sample_block_frame(300, 0.5, 3, rng_stream(1, 0)),  # peels in full
        sample_block_frame(250, 0.75, 3, rng_stream(75, 0)),
        empty,
    ]
    assert big.n_active > 17 / 16 * max(f.n_active for f in frames[:5])
    alone = [(g.recovered, g.peeled, g.peel_iterations, g.gje_rank, g.inactivations) for g in map(gje_decode, frames)]
    assert alone[2][2] == 0 and alone[2][4] > 0 and alone[3][2] > 2 * sim._CHECK_ROUNDS
    n_slots = max(f.n_slots for f in frames)
    for lanes in (1, 2, 3, len(frames)):
        views, left = _lane_views(frames, lanes, n_slots)
        assert views == alone
        if lanes in (2, 3):
            assert left[2] < left[3]  # stuck was finished exactly while wave still peeled
        monkeypatch.setattr(sim, "_MIN_LANES", lanes)
        monkeypatch.setattr(sim, "_BATCH_BURSTS", 0)
        held = iter([(f.slots, np.array([f.n_active])) for f in frames])
        counts = sim._trial_batch(range(len(frames)), lambda rng: next(held), n_slots, True, 0)
        want = [[[f.n_active], [f.n_active - len(a[1])], [f.n_active - len(a[0])]] for f, a in zip(frames, alone)]
        assert counts.tolist() == want


def test_slot_id_sums_decode_crowded_slots():
    # each slot's accumulator holds the sum of its unresolved burst ids, which
    # names the burst only once the slot is down to degree 1: d=8 frames of
    # 40 slots at high load put up to 27 bursts in one slot
    frames = [sample_block_frame(40, g, 8, rng_stream(7, t)) for g in (0.6, 1.2, 2.0) for t in range(20)]
    assert max(np.bincount(f.slots.ravel()).max() for f in frames) >= 20
    views = _lane_views(frames, len(frames), 40)[0]
    assert any(v[1] for v in views) and any(v[0] != v[1] for v in views)
    for f, (recovered, peeled, *_) in zip(frames, views):
        assert peeled == naive_peel(f) == peel(f).recovered
        assert recovered == gje_decode(f).recovered == dense_gje_decode(f)[0]


def _crowded_frames():
    """Two d=2 frames whose slot 0 holds a sum of ids past 2**32. In the
    first, round 1 solves bursts 0..n-2 from slots of their own, and round 2
    solves burst n-1 from slot 0, whose sum is then that id modulo 2**32;
    bursts n and n+1 share both slots and are lost. In the second, peeling
    solves the n1 bursts of slots of their own and stalls; the exact pass
    then inactivates one burst of each pair sharing slot 0 and a slot of
    their own, until slot 0 is left with burst n1+n2, a bridge to a
    triangle: a bridge is recovered, a pair or a cycle is not."""
    n = 100_000
    rows = np.column_stack([np.zeros(n + 2, dtype=np.int64), np.arange(1, n + 3)])
    rows[n:] = [n, n + 1]
    first = FrameGraph(n_slots=n + 2, d=2, slots=rows)
    n1, n2 = 90_000, 24_000
    x = n1 + n2 // 2 + 1
    rows = np.concatenate([
        np.column_stack([np.zeros(n1, dtype=np.int64), np.arange(1, n1 + 1)]),
        np.column_stack([np.zeros(n2, dtype=np.int64), n1 + 1 + np.arange(n2) // 2]),
        [[0, x], [x, x + 1], [x + 1, x + 2], [x + 2, x]],
    ])
    second = FrameGraph(n_slots=x + 3, d=2, slots=rows)
    return (first, n), (second, n1, n2)


def test_slot_id_sums_past_two_to_the_32_decode():
    # on an int32 union a slot's id sum is held modulo 2**32, and a sum of
    # one id, below 2**31, still names its burst: in the rounds, as the
    # int32 scatters wrap, and in the exact pass, which reduces its copies
    (first, n), (second, n1, n2) = _crowded_frames()
    assert sum(range(n)) > 2**32 and sum(range(n1 + n2 + 1)) > 2**32
    assert sum(range(n1, n1 + n2 + 1)) > 2**31  # slot 0 when peeling stalls: its int32 copy wrapped
    rep, exact = peel(first), gje_decode(first)
    assert rep.recovered == naive_peel(first) == frozenset(range(n)) == exact.recovered
    assert (rep.peel_iterations, exact.gje_rank, exact.inactivations) == (2, n + 1, 1)
    rep, exact = peel(second), gje_decode(second)
    assert rep.recovered == naive_peel(second) == frozenset(range(n1)) == exact.peeled
    assert rep.peel_iterations == 1
    assert exact.recovered == frozenset(range(n1)) | {n1 + n2}
    assert (exact.gje_rank, exact.inactivations) == (n1 + n2 // 2 + 3, n2 // 2 + 1)


def test_union_arrays_are_int32_unless_an_id_could_pass_it(monkeypatch):
    # the slot rows, degrees and id sums are int32 while every slot and burst
    # id fits in it, else int64: chosen by size alone and run by the same
    # code. A union that grows past the limit switches with a frame in
    # flight; the limit is lowered for that, so no 2**31-slot union is built
    assert sim._union_dtype(2**31) == np.int32 and sim._union_dtype(2**31 + 1) == np.int64
    empty = FrameGraph(n_slots=7, d=3, slots=np.zeros((0, 3), dtype=np.int64))
    wave = sample_coupled_frame(100, build_topology(40, 3), 0.88, rng_stream(1, 2))  # 4,200 slots
    big = sample_block_frame(4200, 1.5, 3, rng_stream(3, 0))  # more bursts than slots: the lanes grow
    frames = [empty, wave, sample_block_frame(300, 1.0, 3, rng_stream(1, 1)), big, empty]
    assert wave.n_active < 4200 < big.n_active
    alone = [(g.recovered, g.peeled, g.peel_iterations, g.gje_rank, g.inactivations) for g in map(gje_decode, frames)]
    int32, int64 = np.dtype(np.int32), np.dtype(np.int64)
    chosen, seen, inactivate = [], [], sim._inactivate

    def spy(flat, d, deg_v, acc_v, *rest):  # the dtype chosen last, and the union's
        seen.append({chosen[-1], flat.dtype, deg_v.dtype, acc_v.dtype})
        return inactivate(flat, d, deg_v, acc_v, *rest)

    monkeypatch.setattr(sim, "_inactivate", spy)
    # asked at the start and at each grow of three lanes of 4,200 slots: in
    # order, the empty frame's, wave's and big's; reversed, the empty
    # frame's and big's, while no lane holds a burst
    cases = [(frames, 0, [int64] * 4), (frames, 15_000, [int32, int32, int32, int64])]
    cases += [(frames[::-1], 15_000, [int32, int32, int64])]
    for order, limit, want in cases:
        lowered = lambda n, limit=limit: chosen.append(int32 if n <= limit else int64) or chosen[-1]  # noqa: E731
        monkeypatch.setattr(sim, "_union_dtype", lowered)
        want_views = [alone[frames.index(f)] for f in order]
        for exact in (True, False):
            chosen.clear()
            views, left = _lane_views(order, 3, 4200, exact)
            assert views == (want_views if exact else [(p, p, r, None, None) for _, p, r, _, _ in want_views])
            assert chosen == want
        assert seen and all(len(dtypes) == 1 for dtypes in seen)  # rows, degrees and sums as chosen last
        seen.clear()
        if order is frames and limit:
            assert left[1] > left[3]  # wave was in flight while big grew the lanes


@pytest.mark.parametrize("decoder", ["peeling", "gje", "both"])
def test_run_trials_payload_does_not_depend_on_batching(monkeypatch, decoder):
    # one frame per batch, batches that split a worker chunk, and the whole
    # chunk as one batch, against the default budget
    runs = [
        ("block", dict(m=120, d=3, g=0.95, trials=24, seed=5)),
        ("block", dict(m=60, d=3, g=0.0, trials=5, seed=1)),
        ("coupled", dict(m=40, d=3, g=0.9, trials=12, seed=6, l=8)),
    ]
    default = [run_trials(sc, decoder=decoder, **kw).to_dict() for sc, kw in runs]
    for budget in (1, 300, 10**9):
        monkeypatch.setattr(sim, "_BATCH_BURSTS", budget)
        assert [run_trials(sc, decoder=decoder, **kw).to_dict() for sc, kw in runs] == default


def test_decoding_leaves_every_callers_slots_unchanged(monkeypatch):
    # peel and gje_decode read a frame's own slots at offset 0, and a batch
    # copies each drawn frame's rows into the union at its slot offset:
    # neither writes into the rows it is given, also at a nonzero offset
    frames = [sample_block_frame(60, g, 3, rng_stream(3, t)) for t, g in enumerate((0.0, 0.9, 1.1, 0.5))]
    before = [f.slots.tobytes() for f in frames]
    for f in frames:
        peel(f)
        gje_decode(f)
    assert [f.slots.tobytes() for f in frames] == before
    monkeypatch.setattr(sim, "_BATCH_BURSTS", 10**9)
    for exact in (False, True):
        held = iter([(f.slots, np.array([f.n_active])) for f in frames])
        counts = sim._trial_batch(range(len(frames)), lambda rng: next(held), 60, exact, 0)
        assert counts.shape == (4, 3, 1) and counts[1:, 0].min() > 0
        assert [f.slots.tobytes() for f in frames] == before


def test_run_trials_payload_does_not_depend_on_buffer_growth(monkeypatch):
    # the union buffer is sized from the frames it holds and grows within a
    # call: at a budget below the first frame's size every frame is a batch
    # and the buffer grows at each frame larger than those before it; at a
    # budget between the first two frames' sizes the first batch grows it;
    # and a chunk may open with empty frames, of unknown width until a frame
    # with bursts arrives
    assert [sample_block_frame(120, 0.95, 3, rng_stream(1, t)).n_active for t in range(3)] == [108, 137, 108]
    assert [sample_block_frame(20, 0.05, 3, rng_stream(32, t)).n_active for t in range(4)] == [0, 0, 0, 3]
    topo = build_topology(4, 3)
    assert [sample_coupled_frame(10, topo, 0.03, rng_stream(32, t)).n_active for t in range(3)] == [0, 0, 3]
    runs = [
        ("block", dict(m=120, d=3, g=0.95, trials=24, seed=1)),
        ("block", dict(m=20, d=3, g=0.05, trials=30, seed=32)),
        ("coupled", dict(m=10, d=3, g=0.03, trials=12, seed=32, l=4)),
    ]
    for decoder in ("peeling", "both"):
        default = [run_trials(sc, decoder=decoder, **kw).to_dict() for sc, kw in runs]
        for budget in (50, 120, 1, 2):
            monkeypatch.setattr(sim, "_BATCH_BURSTS", budget)
            assert [run_trials(sc, decoder=decoder, **kw).to_dict() for sc, kw in runs] == default
        monkeypatch.undo()


def _c8_batch_peak(monkeypatch, ids, exact):
    """Traced peak bytes and loss counts of one batch of the C8 super-frames
    drawn from rng_stream(88, t) for t in ids."""
    monkeypatch.setattr(sim, "_BATCH_BURSTS", 10**9)
    topo = build_topology(50, 3)
    draw = partial(sim._draw_coupled, 500, topo, 0.88)
    sim._trial_batch([7], draw, 500 * topo.m_f, exact, 88)  # numpy's first-call setup is not the batch's
    tracemalloc.start()
    try:
        counts = sim._trial_batch(ids, draw, 500 * topo.m_f, exact, 88)
        return tracemalloc.get_traced_memory()[1], counts
    finally:
        tracemalloc.stop()


def test_decoding_two_c8_super_frames_stays_under_its_memory_bound(monkeypatch):
    # one batch of two C8 super-frames (~44k bursts, 52k slots): the slots
    # are held once, in the union buffer, and the accumulator is filled
    # without an n*d temporary. Traced peaks, numpy 2.4: 5.09 MB when each
    # batch built fresh union arrays from a list of frames, 3.65 MB with
    # one FrameGraph per frame, 3.30 MB with the rows drawn into the union
    peak, counts = _c8_batch_peak(monkeypatch, [0, 1], exact=False)
    assert counts[:, 0].sum() > 40_000
    assert peak < 4.4e6


def test_decoding_three_c8_super_frames_stays_under_its_memory_bound(monkeypatch):
    # the batch a 48,000-burst budget makes: 6.00 MB with one FrameGraph per
    # frame and its n-long user types, 5.47 MB now (numpy 2.4)
    peak, counts = _c8_batch_peak(monkeypatch, [0, 1, 2], exact=False)
    assert counts[:, 0].sum() > 60_000
    assert peak < 5.7e6


def test_exact_pass_over_two_c8_super_frames_stays_under_its_memory_bound(monkeypatch):
    # peeling 3.23 MB, exact 3.25 MB (numpy 2.4); lists over the whole frame
    # rather than the residual's slot span would break the 1.02x bound
    peak, counts = _c8_batch_peak(monkeypatch, [0, 1], exact=True)
    assert counts[:, 1].sum() > counts[:, 2].sum()  # peeling stalled, inactivation ran
    assert peak < 4.0e6
    assert peak <= 1.02 * _c8_batch_peak(monkeypatch, [0, 1], exact=False)[0]


def test_a_pass_of_c8_lanes_stays_under_the_three_int64_lanes_bound(monkeypatch):
    # a C8 pass runs _MIN_LANES lanes. With int32 union arrays a lane holds
    # ~0.60 MB, not ~1.09 MB, so five lanes peak below what three int64
    # lanes did: 4,416,624 bytes (numpy 2.4). The peak is the first round
    # after a full fill: 4.68 MB while a round's arrays outlived it, 4.57 MB
    # while its burst ids were held through the cast of its slots
    assert sim._BATCH_BURSTS // (500 * build_topology(50, 3).m_f) < sim._MIN_LANES == 5
    peak, counts = _c8_batch_peak(monkeypatch, list(range(sim._MIN_LANES)), exact=False)
    assert counts[:, 0].sum() > 100_000
    assert peak < 4.417e6


def test_gje_inactivation_count():
    # peeling clears the chain, so the exact pass inactivates nothing
    chain = FrameGraph(n_slots=3, d=2, slots=np.array([[0, 1], [1, 2]]))
    assert peel(chain).recovered == frozenset({0, 1})
    assert gje_decode(chain).inactivations == 0
    assert peel(chain).inactivations is None
    # the complement rows stop peeling at once: at least one guess is needed
    rows = FrameGraph(
        n_slots=4, d=3, slots=np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])
    )
    assert gje_decode(rows).inactivations >= 1
    payload = run_trials("block", m=50, d=3, g=1.0, trials=3, seed=0, decoder="both").to_dict()
    assert "inactivations" not in payload


def test_gje_inactivation_counts_pinned():
    # the inactivation rule (the lowest-numbered unresolved burst, whenever no
    # slot of degree 1 is left) fixes k per frame. The recovered sets and
    # ranks do not depend on the rule; k does: the earlier rule, the
    # lowest-numbered burst of the lowest-numbered minimum-degree slot, gave
    # 168 against 173 here and 894 and 1549 against 1013 and 1712 below
    topo = build_topology(20, 3)
    exact = [sample_coupled_frame(200, topo, 0.9, rng_stream(20, t)) for t in range(20)]
    assert tuple(gje_decode(f).inactivations for f in exact) == (
        0, 4, 8, 3, 22, 1, 10, 18, 14, 9, 22, 0, 16, 3, 0, 7, 0, 21, 15, 0
    )
    block = [sample_block_frame(2000, g, 3, rng_stream(500, t)) for g in (0.9, 0.95) for t in range(10)]
    assert tuple(gje_decode(f).inactivations for f in block) == (
        108, 122, 58, 92, 88, 140, 110, 73, 119, 103,  # g = 0.9
        174, 172, 131, 172, 162, 209, 190, 147, 189, 166,  # g = 0.95
    )


def _exact_digest(frames):
    rows = [(sorted(r.recovered), r.gje_rank, r.inactivations) for r in map(gje_decode, frames)]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def test_exact_decoding_pinned():
    # sha256 of the (sorted(recovered), gje_rank, inactivations) list of each
    # group, taken while the exact pass indexed the union's arrays through
    # memoryviews: the frames of the k pins above
    topo = build_topology(20, 3)
    exact = [sample_coupled_frame(200, topo, 0.9, rng_stream(20, t)) for t in range(20)]
    block = [sample_block_frame(2000, g, 3, rng_stream(500, t)) for g in (0.9, 0.95) for t in range(10)]
    assert _exact_digest(exact) == "a92b292f880fbc428b8d5fcd19dc2767930d8227d8160738a45e6c19333e697f"
    assert _exact_digest(block) == "58d42fd646c9daa9ffb41ea9702848a66ef92323f9fcbe6027e26b82c2a220a7"


def test_exact_pass_in_the_last_lane_matches_the_dense_oracle():
    # the exact pass reads a stalled frame at its lane's slot offset, over the
    # slots its residual holds: each frame here is decoded in the last of
    # three lanes, and half of the residuals hold the frame's first and last slot
    m, empty = 300, FrameGraph(n_slots=300, d=3, slots=np.zeros((0, 3), dtype=np.int64))
    frames = [sample_block_frame(m, 0.95, 3, rng_stream(61, t)) for t in range(12)]
    ends, deficient = 0, 0
    for f in frames:
        left = f.slots[sorted(set(range(f.n_active)) - peel(f).recovered)]
        ends += left.min() == 0 and left.max() == m - 1
        recovered, _, _, rank, k = _lane_views([empty, empty, f], 3, m)[0][2]
        assert (recovered, rank) == dense_gje_decode(f)
        assert k == gje_decode(f).inactivations > 0
        deficient += rank < f.n_active
    assert ends >= 5 and 0 < deficient < len(frames)


def test_block_slot_degrees_are_poisson():
    # slot-degree histogram at m=10^4 vs Poisson(g*d), chi-square with known
    # mean; 26.12 is the 99.9% point at 8 degrees of freedom
    m, g, d = 10_000, 0.5, 3
    f = sample_block_frame(m, g, d, rng_stream(99, 0))
    lam = g * d
    hist = np.bincount(np.bincount(f.slots.ravel(), minlength=m), minlength=9)[:9]
    pk = np.array([math.exp(-lam) * lam**k / math.factorial(k) for k in range(8)])
    expected = np.append(pk, 1.0 - pk.sum()) * m
    chi2 = float(((hist - expected) ** 2 / expected).sum())
    assert chi2 < 26.12


# ------------------------------------------------------------- run_trials

def test_run_trials_zero_load():
    rep = run_trials("block", m=50, d=3, g=0.0, trials=10, seed=1)
    assert rep.plr == 0.0 and rep.ci95 == 0.0 and rep.n_bursts == 0


def test_run_trials_deterministic_and_worker_invariant():
    kw = dict(m=200, d=3, g=0.8, trials=30, seed=9, decoder="both")
    a = run_trials("block", **kw)
    b = run_trials("block", **kw)
    c = run_trials("block", workers=3, **kw)
    assert a == b == c
    assert type(a.ci95) is type(a.gje_ci95) is float  # like the other fields, not np.float64


def test_run_trials_coupled_exact_worker_invariant():
    kw = dict(m=60, d=3, g=0.95, l=10, trials=8, seed=3, decoder="both")
    one = run_trials("coupled", workers=1, **kw).to_dict()
    assert one == run_trials("coupled", workers=2, **kw).to_dict()


def test_run_trials_both_decoders_ordered():
    rep = run_trials("block", m=300, d=3, g=0.9, trials=30, seed=4, decoder="both")
    assert rep.gje_plr <= rep.plr
    assert all(x >= 0 for x in rep.gje_extra_recovered)
    assert rep.gje_n_lost <= rep.n_lost


def test_run_trials_coupled_per_position():
    rep = run_trials("coupled", m=100, d=3, g=0.85, l=10, trials=20, seed=2)
    assert rep.per_position_plr is not None and len(rep.per_position_plr) == 10
    assert all(0.0 <= x <= 1.0 for x in rep.per_position_plr)


def test_run_trials_per_trial_values_match_a_replay():
    # replay each trial as rng_stream -> sample -> peel / gje_decode: the
    # per-trial extra counts and the per-type losses, not only their totals
    m, d, g, l, trials, seed = 60, 3, 0.95, 10, 6, 0
    rep = run_trials("coupled", m=m, d=d, g=g, trials=trials, seed=seed, l=l, decoder="both")
    topo = build_topology(l, d)
    extra, gen, lost = [], np.zeros(l, np.int64), np.zeros(l, np.int64)
    for t in range(trials):
        frame = sample_coupled_frame(m, topo, g, rng_stream(seed, t))
        peeled, exact = peel(frame).recovered, gje_decode(frame).recovered
        extra.append(len(exact - peeled))
        unrec = [b for b in range(frame.n_active) if b not in peeled]
        types = frame.slots[:, 0] // m + 1
        gen += np.bincount(types - 1, minlength=l)
        lost += np.bincount(types[unrec] - 1, minlength=l)
    assert len(set(extra)) > 1  # the per-trial values differ, so order shows
    assert rep.gje_extra_recovered == tuple(extra)
    assert rep.per_position_plr == tuple(float(x) / y for x, y in zip(lost, gen))
    assert rep.n_lost == lost.sum() and rep.n_bursts == gen.sum()


def test_run_trials_validation():
    with pytest.raises(ValueError):
        run_trials("block", m=50, d=3, g=0.5, trials=0, seed=0)
    with pytest.raises(ValueError):
        run_trials("coupled", m=50, d=3, g=0.5, trials=5, seed=0)  # missing l
    with pytest.raises(ValueError):
        run_trials("block", m=50, d=3, g=0.5, trials=5, seed=0, decoder="magic")
    with pytest.raises(ValueError):
        run_trials("ring", m=50, d=3, g=0.5, trials=5, seed=0)
    # a non-integral size or seed is refused, not rounded (trials=2.5 ran 3
    # trials, seed=1.5 drew seed 1's streams) or left to fail inside numpy
    ok = dict(m=50, d=3, g=0.5, trials=3, seed=1)
    for bad in (dict(m=100.5), dict(d=3.5), dict(trials=2.5), dict(seed=1.5), dict(m=math.nan), dict(seed="1")):
        with pytest.raises(ValueError, match="must be an integer"):
            run_trials("block", **{**ok, **bad})
    with pytest.raises(ValueError, match="l must be an integer"):
        run_trials("coupled", **ok, l=4.5)
    # a whole number of another type is taken, and reported, as an int
    whole = dict(m=50.0, d=np.int64(3), g=0.5, trials=3.0, seed=np.float64(1))
    assert run_trials("block", **whole).to_dict() == run_trials("block", **ok).to_dict()
    # a worker count too (workers=1.5 died in the pool's set-up, on a float)
    for bad in (1.5, math.nan, "2", True):
        with pytest.raises(ValueError, match="workers must be an integer"):
            run_trials("block", **ok, workers=bad)
    assert run_trials("block", **ok, workers=2.0).to_dict() == run_trials("block", **ok, workers=1).to_dict()


def test_sampler_refusals_reach_run_trials():
    # a degree below 1 and a frame of no slots are refused by the samplers and
    # by run_trials (where m=0 used to divide by zero while sizing the lanes)
    rng, topo = rng_stream(0, 0), build_topology(4, 3)
    with pytest.raises(ValueError, match="repetition degree must be >= 1"):
        sample_block_frame(10, 0.5, 0, rng)
    with pytest.raises(ValueError, match="repetition degree must be >= 1"):
        run_trials("block", m=10, d=0, g=0.5, trials=2, seed=0)
    for m in (0, -3):
        with pytest.raises(ValueError, match="need at least one slot per frame"):
            sample_coupled_frame(m, topo, 0.5, rng)
        for scenario, l in (("coupled", 4), ("block", None)):
            with pytest.raises(ValueError, match="need at least one slot per frame"):
                run_trials(scenario, m=m, d=3, g=0.5, trials=2, seed=0, l=l)


def test_a_non_integral_population_is_refused():
    # binomial(round(alpha*m), g/alpha) simulated 0.6675 bursts a slot at
    # g=0.75, alpha=1.5, m=3 (4.5 users rounded to 4) and 0.803 at m=5 (7.5 to 8)
    rng, topo = rng_stream(0, 0), build_topology(4, 3)
    refused = partial(pytest.raises, ValueError, match=r"population alpha\*m must be an integer")
    for m in (3, 5):
        with refused():
            sample_block_frame(m, 0.75, 3, rng, alpha=1.5)
        with refused():
            sample_coupled_frame(m, topo, 0.75, rng, alpha=1.5)
        with refused():
            run_trials("block", m=m, d=3, g=0.75, alpha=1.5, trials=4, seed=1)
        with refused():
            run_trials("coupled", m=m, d=3, g=0.75, alpha=1.5, trials=4, seed=1, l=4)
    # integral up to float rounding, from either side: the round(alpha*m) users are drawn
    assert (1.1 * 50, 1.4 * 45) == (55.00000000000001, 62.99999999999999)
    for alpha, m, users in ((1.1, 50, 55), (1.4, 45, 63)):
        for t in range(3):
            counts = sim._draw_active(rng_stream(2, t), 0.5, m, alpha, 40)
            assert counts.tolist() == rng_stream(2, t).binomial(users, 0.5 / alpha, 40).tolist()
    rep = run_trials("coupled", m=50, d=3, g=0.5, alpha=1.1, trials=4, seed=2, l=4)
    assert rep.alpha == 1.1 and rep.n_bursts > 0


def test_frame_graph_refuses_bad_rows_with_one_message_each():
    # FrameGraph is the one check of a frame's rows (a batch decodes its
    # sampled rows as drawn), with one message for each kind of bad row
    for bad, match in (([[0, 4]], "out of range"), ([[-1, 0]], "out of range"), ([[2, 2]], "same slot twice")):
        with pytest.raises(ValueError, match=match):
            FrameGraph(n_slots=4, d=2, slots=np.array(bad))


# sha256 of json.dumps(run_trials(scenario, seed=s, decoder=dec, **kw).to_dict(),
# sort_keys=True) for seeds 0, 1, 2, taken before the exact decoder was
# rewritten: any change of sampling, decoding or aggregation shows here.
PINNED_PAYLOADS = [
    ("block", dict(m=300, d=3, g=0.85, trials=12), {
        "peeling": (
            "8967c045c536e6127ef63a6fac3d59a638819db00476eed2758802b6efb37c21",
            "fa39f081e47bd1254991cfc45f7ded84f15f78633ebc2478246ee49ac8c961b7",
            "91525f0cf72b307f582ba6d3d1488b4170c9efdd901b2538c85c5361f6e35351",
        ),
        "gje": (
            "7c44ccbf27ad4d3ae8f8d3ee15121d0f19923223dcf96437dac9ddce12ffd51a",
            "932620f294ae14d6f7a42f1595284ca803bba3c5dff60595a72c20ac17635673",
            "79c5bc74bc6013c3839d5655e32a8480e0bfcd7fbaf0bfd3215b7da4120b2ca6",
        ),
        "both": (
            "799e7fd52453b02a0e8bb73e9acbded93bee2b8f032a9ff0868165b3cad02918",
            "72c921f34da86c3f37d0338ba5fa9acde3b94250df81712874a2a6acdec417ea",
            "e9e181fdce24d3d2eab0f45e472794ac847eb5d61e0f6724b8791cde69ce0a18",
        ),
    }),
    ("block", dict(m=120, d=4, g=0.95, trials=12), {
        "peeling": (
            "f5ab69fb8e4131719f713b7fb577516838188f91cc224716f8c8b15e7df85427",
            "b4bbcfb1958342058bf40ab285f137aef73f8a229b19f4a453e1909bfc325a42",
            "a45fe079ade03e33d7e928416b170f7b565bb5634283afa37e5ee7127aaafbeb",
        ),
        "gje": (
            "ff7df164ddb19327a389686c8e501781e0842bffb10c232f156513a676249166",
            "9e5bff8becef3731ad0554bbbc0d78701bc4d680d762271c7fe5cfe9e7e4a9f2",
            "f03b0b7c14f60136919c8b4f0d483ad7cbd496245b1144c866ef16d9a898dd9f",
        ),
        "both": (
            "9b524215f8f15fef4ed5fe17e81210e48d2c1b9dab9c31e4f9969d66c068698e",
            "43ed439d007f03534774c74edfddb6abe60e9643378e5cf6763ba8ac5b0ae6ed",
            "c727645c842002a9f4320dffc4b22c563c0acd8946cbf1763661969909ac43f0",
        ),
    }),
    ("coupled", dict(m=60, d=3, g=0.95, trials=6, l=10), {
        "peeling": (
            "12750ea092d5cc00b9dd06dd1219ee294cc66e221cdc02fc248841f22068e2b1",
            "363b9eabfef393b6c8a5ff05d177ec82ff5a55ee22c6e48ebb4a290d590c4b4c",
            "6b393c42e704fd676a758a5507abeaf9aaf11ff06fcbc6c25860a919cd2c3c69",
        ),
        "gje": (
            "bff7cf800962b3988e225f9366b603a576ca632cb0c7f402d329a64f4c644c04",
            "7235f81aed01b2ceb1f72f928e0e411881bd5b460d71343b5a57d5cf2ac9eb6b",
            "e94131074af19401823003cb6647513ec65e0069833febb3bb81bbe8ce65442b",
        ),
        "both": (
            "409f8f8330ff288c87c8473781ca92dd78793aee3885283e3b344b1026b1e620",
            "02b41fd32085639c9c760291689fc8ccac5a244a591a932ac4e983b054329fb5",
            "2aa41b2d66758fd28242fc6b3dbca8f03e9be716c95d453ca60fdb1b2b8f6ea0",
        ),
    }),
    ("coupled", dict(m=40, d=4, g=0.9, trials=6, l=12), {
        "peeling": (
            "d997469e30492f7c52a10c1948586f18f9b08ece8cc31865dda745619157ffd3",
            "325f8c2027dd8ebf745254bddbdbc656dcff155c8b37f171827252b15bf57508",
            "038c06ac8bfee866f1ef1af7a6ed43a70912f94d6bcb07800d3c41bf7e74a8e1",
        ),
        "gje": (
            "ae985d3a808687961de66f85fdd9520bd0c373bb3d3e8f6942916b72c9606728",
            "6beb8167ce636ec40c918b46636535d617e9350ebbcffd0397c1fc7230c24394",
            "db1baaeeebd3a0119b1e2d172ef95af759e9180526b8b748f4ad24e12a1bb3a8",
        ),
        "both": (
            "2b2769a02a70dcc1f5bcf48cd50911f3e735a6354c0380cacf3346ccbae7a492",
            "e08c2e25324b99d3c237db4f79c80c60f7a44d50d04f3bbb00ddd478585aa354",
            "0251e716e61b4b3ec0f1a9ee058895b9a9bb504654f845192de66dc6223e2217",
        ),
    }),
]


def test_run_trials_pinned_payloads():
    for scenario, kw, by_decoder in PINNED_PAYLOADS:
        for decoder, digests in by_decoder.items():
            for seed, want in enumerate(digests):
                payload = run_trials(scenario, seed=seed, decoder=decoder, **kw).to_dict()
                got = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
                assert got == want, (scenario, kw, decoder, seed)

