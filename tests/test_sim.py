import hashlib
import json
import math
import statistics

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
from csaloha import sim
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
        FrameGraph(n_slots=4, d=2, slots=np.array([[0, 1]]), user_type=np.array([1, 2]))
    with pytest.raises(ValueError):
        FrameGraph(n_slots=0, d=1, slots=np.zeros((0, 1)))
    # a non-integral index is refused, not truncated to [[0, 1]]
    with pytest.raises(ValueError, match="slot indices must be integers"):
        FrameGraph(n_slots=3, d=2, slots=[[0.7, 1.9]])
    with pytest.raises(ValueError, match="slot indices must be integers"):
        FrameGraph(n_slots=3, d=2, slots=[[np.nan, 1.0]])
    with pytest.raises(ValueError, match="user types must be integers"):
        FrameGraph(n_slots=3, d=2, slots=[[0, 1]], user_type=[1.5])
    # integral floats and empty float arrays stay valid
    f = FrameGraph(n_slots=3, d=2, slots=np.array([[0.0, 2.0]]), user_type=np.array([1.0]))
    assert f.slots.dtype == f.user_type.dtype == np.int64
    assert f.slots.tolist() == [[0, 2]] and f.user_type.tolist() == [1]
    assert FrameGraph(n_slots=3, d=2, slots=np.zeros((0, 2))).slots.shape == (0, 2)


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


@pytest.mark.parametrize("alpha", [None, 10.0])
@pytest.mark.parametrize("g", [math.nan, math.inf])
def test_samplers_reject_non_finite_load(g, alpha):
    rng = rng_stream(0, 0)
    with pytest.raises(ValueError, match="offered traffic"):
        sample_block_frame(10, g, 3, rng, alpha=alpha)
    with pytest.raises(ValueError, match="offered traffic"):
        sample_coupled_frame(10, build_topology(4, 3), g, rng, alpha=alpha)


def test_sample_coupled_frame_structure():
    topo = build_topology(3, 2)
    rng = rng_stream(5, 0)
    f = sample_coupled_frame(4, topo, 2.0, rng)
    assert f.n_slots == 16  # 4 frames of 4 slots
    for row, t in zip(f.slots, f.user_type):
        frames = sorted(int(s) // 4 for s in row)
        assert frames == [t - 1, t]  # one copy in its frame, one in the next
    # the last frame carries only copies: no type-4 users exist
    assert f.user_type.max() <= 3


def test_sample_coupled_frame_wraps_on_circulant_topology():
    # type i's copies land in frames i..i+d-1 mod l, one in each
    l, d, m = 5, 3, 6
    f = sample_coupled_frame(m, build_circulant_topology(l, d), 3.0, rng_stream(4, 0))
    assert f.n_slots == l * m
    assert set(f.user_type.tolist()) == set(range(1, l + 1))
    for row, t in zip(f.slots, f.user_type):
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
        deficient += rep.gje_rank < f.n_active
    assert deficient >= 8


def _batch_views(frames, exact):
    """Per frame (recovered, peeled, peel_iterations, gje_rank, inactivations)
    from decoding the frames as one batch, as sets and ints."""
    peeled, recovered, rounds, rank, k = sim._decode(frames, exact)
    start = np.cumsum([0] + [f.n_active for f in frames])
    out = []
    for i, (lo, hi) in enumerate(zip(start, start[1:])):
        as_set = lambda mask: frozenset(np.flatnonzero(mask[lo:hi]).tolist())  # noqa: E731
        extra = (int(rank[i]), int(k[i])) if exact else (None, None)
        out.append((as_set(recovered), as_set(peeled), int(rounds[i]), *extra))
    return out


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
        assert _batch_views(batch, exact=True) == want
        assert _batch_views(batch, exact=False) == [(p, p, r, None, None) for _, p, r, _, _ in want]


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
    # the inactivation rule (the lowest-numbered unresolved burst of the
    # lowest-numbered minimum-degree slot, whenever no slot of degree 1 is
    # left) fixes k per frame; these counts were taken when the exact pass
    # still resumed peeling in a separate round loop after each inactivation
    topo = build_topology(20, 3)
    exact = [sample_coupled_frame(200, topo, 0.9, rng_stream(20, t)) for t in range(20)]
    assert tuple(gje_decode(f).inactivations for f in exact) == (
        0, 3, 8, 3, 21, 1, 10, 17, 13, 9, 22, 0, 14, 4, 0, 7, 0, 19, 17, 0
    )
    block = [sample_block_frame(2000, g, 3, rng_stream(500, t)) for g in (0.9, 0.95) for t in range(10)]
    assert tuple(gje_decode(f).inactivations for f in block) == (
        99, 91, 53, 84, 82, 137, 98, 56, 111, 83,  # g = 0.9
        157, 154, 116, 147, 147, 207, 172, 132, 167, 150,  # g = 0.95
    )


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
        gen += np.bincount(frame.user_type - 1, minlength=l)
        lost += np.bincount(frame.user_type[unrec] - 1, minlength=l)
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

