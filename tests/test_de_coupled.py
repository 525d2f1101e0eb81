import hashlib
import math

import numpy as np
import pytest

from csaloha import (
    BlockDeConfig,
    LoadPoint,
    SchemeParams,
    build_circulant_topology,
    build_topology,
    coupled_threshold,
    de_block_run,
    de_coupled_run,
    termination_adjusted_load,
)
from csaloha import analysis
from csaloha.analysis import _BLOCK, STALL_EPS, TARGET_P, _CoupledKernel, _iterate, _run, threshold
import oracles
from oracles import coupled_de_step_reference, stop_rule_reference


def test_step_zero_profile_is_absorbing():
    topo = build_topology(5, 3)
    kernel = _CoupledKernel(topo).start(0.9, np.zeros(topo.m_f))
    _, p = kernel.advance(1)
    assert np.all(np.stack(kernel.msgs) == 0.0)
    assert np.all(p == 0.0)


def test_step_all_ones_interior_and_boundary():
    # from the all-ones profile every message is 1, so position j sees
    # p_j = 1 - exp(-g * delta_j)
    topo = build_topology(200, 3)
    kernel = _CoupledKernel(topo).start(0.9)
    p = kernel.advance(1)[1][1]
    assert np.all(np.stack(kernel.msgs) == 1.0)
    assert p[100] == pytest.approx(0.93279448726025023, abs=1e-15)  # delta=3
    assert p[0] == pytest.approx(0.59343034025940089, abs=1e-15)  # delta=1
    assert np.all((p >= 0.0) & (p <= 1.0))


def test_run_spatial_symmetry_and_monotonicity():
    topo = build_topology(30, 3)
    res = de_coupled_run(topo, 0.85, record_trace=True)
    prev = np.ones(topo.m_f)
    for _, p in res.trace:
        assert np.allclose(p, p[::-1], atol=1e-13)  # palindromic chain
        assert np.all(p <= prev + 1e-15)
        prev = p


@pytest.mark.parametrize(
    "d,l,g,expect",
    [(3, 200, 0.90, True), (3, 200, 0.93, False), (2, 200, 0.40, True)],
)
def test_run_convergence_matches_known_thresholds(d, l, g, expect):
    topo = build_topology(l, d)
    res = de_coupled_run(topo, g)
    assert res.converged is expect
    if expect:
        assert res.final_p <= 1e-8


def test_degenerate_chain_has_no_sic():
    # l=1, d=1: single copies, no cancelation possible; q stays 1
    topo = build_topology(1, 1)
    assert not de_coupled_run(topo, 0.05).converged
    assert de_coupled_run(topo, 0.0).converged


def test_circulant_topology_reproduces_block_iterates():
    topo = build_circulant_topology(10, 3)
    params = SchemeParams(3)
    g = 0.7
    block = de_block_run(params, LoadPoint.from_g(g, params.alpha), record_trace=True)
    coupled = de_coupled_run(topo, g, record_trace=True)
    assert len(block.trace) == len(coupled.trace)
    for (qb, pb), (qc, pc) in zip(block.trace, coupled.trace):
        assert np.max(np.abs(pc - pb)) <= 1e-14
        assert np.max(np.abs(qc - qb)) <= 1e-14


def test_coupling_gain_over_block():
    cfg = BlockDeConfig()
    coupled = coupled_threshold(3, l=30, cfg=cfg, bisect_tol=1e-3)
    from csaloha import block_threshold

    block = block_threshold(3, cfg)
    assert coupled.threshold >= block.threshold - 1e-4
    assert coupled.threshold > block.threshold + 0.05  # strict gain at d=3


def test_coupled_threshold_validation():
    with pytest.raises(ValueError):
        coupled_threshold(1, l=10)
    with pytest.raises(ValueError):
        coupled_threshold(3, l=0)


def _g_c(l):
    """The d=2 coupled threshold of the l-chain: 1/rho(A), A the path's adjacency matrix."""
    return 1.0 / (2.0 * math.cos(math.pi / (l + 2)))


@pytest.mark.parametrize("l", [10, 30, 200])
def test_coupled_threshold_d2_is_the_linear_bound(l):
    g_c = _g_c(l)
    res = coupled_threshold(2, l)
    assert abs(res.threshold - g_c) <= 1e-12
    assert (res.bracket_lo, res.bracket_hi, res.evaluations) == (res.threshold, res.threshold, 0)


def _is_certificate(topo, g, y):
    """One kernel step gives f(y) >= y with max y above TARGET_P: no run from
    all ones reaches the target at g (the computed map is monotone)."""
    fy = _CoupledKernel(topo).start(g, y).advance(1)[1][1]
    return bool(np.all(fy >= y)) and y.max() > TARGET_P


def test_coupled_d2_linear_bound_from_both_sides():
    # below g_c density evolution reaches the target ...
    res = de_coupled_run(build_topology(30, 2), _g_c(30) - 1e-3)
    assert res.stop_reason == "target" and res.iterations < 10_000
    # ... and above it a small multiple of the Perron vector is a certificate
    # that it never does, while a large one, beyond the linear regime, is not
    for l in (10, 20, 30, 200):
        topo, g_c = build_topology(l, 2), _g_c(l)
        v = np.sin(np.pi * np.arange(1, l + 2) / (l + 2))
        assert _is_certificate(topo, g_c + 1e-4, 1e-4 * v), l
        assert not _is_certificate(topo, g_c + 1e-4, 1e-2 * v), l
        assert not _is_certificate(topo, g_c - 1e-4, 1e-4 * v), l


def test_termination_adjusted_load():
    assert termination_adjusted_load(0.9, 200, 3) == pytest.approx(0.9 * 200 / 202)
    assert termination_adjusted_load(0.9, 10**6, 3) == pytest.approx(0.9, abs=1e-5)
    assert termination_adjusted_load(0.9, 200, 3) == 0.9 * 200 / 202  # the bits the chain's m_f gives
    # an l that no chain has is refused: l=-1 returned -0.9 and l=2.5 returned 0.5
    for l, d in ((-1, 3), (0, 3), (2.5, 3), (10, 0)):
        with pytest.raises(ValueError):
            termination_adjusted_load(0.9, l, d)


# (builder, l, d, g, converged, final_p, iterations) at max_iters=20_000, taken
# from the original scatter-based (np.add.at) step. Exact equality pins what
# a threshold bisection reads from each probe.
_PINNED_RUNS = [
    ("chain", 200, 2, 0.9, False, 0.7324299666367704, 43),
    ("chain", 200, 2, 0.97, False, 0.7796434231730366, 37),
    ("chain", 200, 3, 0.9, True, 4.206120279016365e-14, 1766),
    ("chain", 200, 3, 0.97, False, 0.9103129227140249, 119),
    ("chain", 200, 3, 0.917, False, 0.8828216252221379, 20000),
    ("chain", 200, 4, 0.9, True, 1.6615686782796992e-12, 490),
    ("chain", 200, 4, 0.97, True, 2.469373038027592e-22, 6076),
    ("chain", 200, 5, 0.95, True, 7.658289040882626e-24, 1012),
    ("chain", 200, 6, 0.9, True, 3.2102544925542325e-35, 428),
    ("chain", 200, 6, 0.97, True, 3.003256541155463e-13, 1627),
    ("chain", 1, 1, 0.05, False, 0.04877057549928599, 2),
    ("chain", 1, 1, 0.0, True, 0.0, 1),
    ("chain", 2, 3, 0.9, True, 2.483681129187924e-11, 8),
    ("chain", 2, 3, 0.5, True, 3.13133899043775e-13, 6),
    ("circulant", 12, 3, 0.7, True, 1.5316818771643292e-09, 14),
    ("circulant", 12, 3, 0.9, False, 0.8711270718942645, 50),
    ("circulant", 12, 4, 0.7, True, 3.576793755500554e-16, 14),
    ("circulant", 12, 5, 0.65, True, 1.1698390151560632e-22, 14),
    ("circulant", 9, 6, 0.6, True, 1.5555024399492115e-12, 14),
]


def test_coupled_run_pinned_outcomes():
    cfg = BlockDeConfig(max_iters=20_000)
    builders = {"chain": build_topology, "circulant": build_circulant_topology}
    got = []
    for kind, l, d, g, *_ in _PINNED_RUNS:
        res = de_coupled_run(builders[kind](l, d), g, cfg)
        got.append((kind, l, d, g, res.converged, res.final_p, res.iterations))
    assert got == _PINNED_RUNS
    t = coupled_threshold(3, l=30, bisect_tol=1e-3)
    assert (t.bracket_lo, t.bracket_hi, t.evaluations) == (0.9175781249999999, 0.9181640624999999, 12)


# sha256 over every traced (q, p) iterate, as little-endian float64, at
# max_iters=500, from the same scatter-based step. final_p is a max and often
# hides a one-ulp change in the order of a sum; these digests do not. The
# circulant l=12, d=3 entry was taken from the kernel that formed each of the
# three d=3 products on its own, before its end messages and folds read one
# shared pair product.
_PINNED_TRACES = [
    ("chain", 30, 3, 0.9, "8274fb4cba1da236fb2341ca495e3a5da5be14d63fd3f81c0679b84be60fbc45"),
    ("chain", 30, 4, 0.95, "00794e4e69ac2cf70382edf5fef03b8a1b9963ad62860273fc3c0cbf40c4d626"),
    ("chain", 200, 3, 0.917, "b80961d5b0a59c658e8c63ba472d842b1d30823ce8d9dc4a3d7d12ae907b54f3"),
    ("circulant", 12, 5, 0.65, "73362d63bc708b3e2ea12e7a602829bb8b3ae3cdceb7b7aef310a009312ce112"),
    ("circulant", 12, 3, 0.85, "679323ddd2248e0053170d0a276752711e1ffdf2d471c772f56decebdf2aeb24"),
    ("chain", 50, 2, 0.45, "ac2aad33c10d24941e5a751f7aab044492f943a390dd63ffe0fe8b2d74640699"),
    ("chain", 200, 6, 0.99, "366e62141de925ca97bf4b354cdf1a805edb4e0d8a81786126771279e67ac999"),
    ("chain", 40, 8, 0.999, "11d23bad1228d55375ae1bd9bbb4c69db2bfd1a13fc48ab50b13594f681225c6"),
    ("circulant", 10, 2, 0.4, "4b3161cee7f62ecb76af1eea575d44fb80b91a1b6861b5cdea5d59d9aed293a8"),
    ("circulant", 8, 8, 0.9, "12d3223b704fa649f1ebb929f8cbb7a95cfb4a428591b2eaa3116a10f1f5613d"),
]


def test_coupled_trace_pinned_digests():
    cfg = BlockDeConfig(max_iters=500)
    builders = {"chain": build_topology, "circulant": build_circulant_topology}
    for kind, l, d, g, digest in _PINNED_TRACES:
        res = de_coupled_run(builders[kind](l, d), g, cfg, record_trace=True)
        h = hashlib.sha256()
        for q, p in res.trace:
            h.update(q.astype("<f8").tobytes())
            h.update(p.astype("<f8").tobytes())
        assert h.hexdigest() == digest, (kind, l, d, g)


def test_a_coupled_search_builds_one_kernel(monkeypatch):
    # the probes of a search start one kernel at each load, and get the
    # brackets of a kernel built per probe (de_coupled_run)
    builds, init = [], _CoupledKernel.__init__
    monkeypatch.setattr(_CoupledKernel, "__init__", lambda self, *a: builds.append(a) or init(self, *a))
    cfg = BlockDeConfig(max_iters=5_000)
    for d, l in ((3, 30), (4, 12), (5, 10)):
        builds.clear()
        got = coupled_threshold(d, l, cfg, bisect_tol=1e-3)
        assert len(builds) == 1 and got.evaluations > 5
        topo = build_topology(l, d)
        assert got == threshold(d, lambda g: de_coupled_run(topo, g, cfg).converged, 1e-3)
    # every iterate of a kernel started again is a new kernel's, after runs at other loads
    cfg = BlockDeConfig(max_iters=300)
    for topo in (build_topology(30, 3), build_circulant_topology(12, 4)):
        kernel = _CoupledKernel(topo)
        for g in (0.95, 0.5, 0.9, 0.917, 0.0):
            a, b = _run(kernel.start(g).advance, cfg, True), de_coupled_run(topo, g, cfg, True)
            assert (a.final_p, a.iterations, a.stop_reason) == (b.final_p, b.iterations, b.stop_reason)
            assert [(q.tobytes(), p.tobytes()) for q, p in a.trace] == [(q.tobytes(), p.tobytes()) for q, p in b.trace]


# The computed coupled map is monotone in the profile and in the load:
# x <= y and g <= g' give f_g(x) <= f_g'(y) for one step of the kernel. Warm
# starts (coupled_threshold) rest on it. Every operation of a step is
# correctly rounded or exact except libm's expm1, whose order is checked
# here, not proved: y one ulp above x in some entries, g' one ulp above g.
@pytest.mark.parametrize("d", range(2, 9))
def test_computed_step_is_monotone_in_profile_and_load(d):
    rng = np.random.default_rng(800 + d)
    for topo in (build_topology(3 * d, d), build_circulant_topology(2 * d, d)):
        kx, ky, m_f = _CoupledKernel(topo), _CoupledKernel(topo), topo.m_f
        for case in range(300):
            y = rng.random(m_f) ** rng.choice([1.0, 8.0, 0.05])  # spread, near 0, near 1
            y[rng.random(m_f) < 0.1] = 1.0
            kind = case % 3
            if kind == 0:
                x = y * rng.random(m_f)
            else:  # x one ulp below y in about half, or in all, of its entries
                x = np.where(rng.random(m_f) < 0.5 * kind, np.nextafter(y, 0.0), y)
            x[rng.random(m_f) < 0.2] = 0.0
            both = rng.random(m_f) < 0.1
            x[both], y[both] = 0.0, 0.0
            g = rng.uniform(0.0, 1.2)
            g2 = (g, np.nextafter(g, 2.0), g + rng.uniform(0.0, 1e-3), rng.uniform(g, 1.2))[case % 4]
            fx = kx.start(g, x).advance(1)[1][1]
            fy = ky.start(g2, y).advance(1)[1][1]
            assert np.all(fx <= fy), (topo, case, g, g2)


# The sandwich: for g <= g_hi and p_T iterate T of the cold run at g_hi,
# f_g^{t+T}(1) <= f_g^t(p_T) <= f_g^t(1). A warm run is never behind the cold
# one, reaches its limit, and reaches the target no later. At g_hi itself it
# is the cold run resumed. Loads are around each d's l=12 threshold.
@pytest.mark.parametrize("d,thr", [(2, 0.5124), (3, 0.9255), (4, 0.9829), (5, 0.9987), (6, 1.0052)])
def test_warm_run_is_sandwiched_by_the_cold_run(d, thr):
    topo, cfg = build_topology(12, d), BlockDeConfig(max_iters=20_000)
    g_hi = thr + 0.02
    hot = de_coupled_run(topo, g_hi, cfg, record_trace=True)
    assert hot.stop_reason == "stall"
    for T in (5, 40, hot.iterations):
        p_T = hot.trace[T - 1][1]
        for g in (g_hi, thr + 0.005, thr - 0.005, thr - 0.1, 0.3):
            cold = de_coupled_run(topo, g, cfg, record_trace=True)
            warm = _run(_CoupledKernel(topo).start(g, p_T).advance, cfg, True)
            cp, wp = [p for _, p in cold.trace], [p for _, p in warm.trace]
            for t, w in enumerate(wp):
                if t < len(cp):
                    assert np.all(w <= cp[t]), (T, g, t)
                if t + T < len(cp):
                    assert np.all(cp[t + T] <= w), (T, g, t)
            assert warm.converged is cold.converged and warm.iterations <= cold.iterations
            assert np.abs(wp[-1] - cp[-1]).max() <= (1e-10 if cold.stop_reason == "stall" else 2 * TARGET_P)
        resumed = _run(_CoupledKernel(topo).start(g_hi, p_T).advance, cfg, True)
        rest = [p.tobytes() for _, p in hot.trace[T:]]
        assert [p.tobytes() for _, p in resumed.trace[: len(rest)]] == rest


# (bracket_lo, bracket_hi, DE iterations) of the warm search at l=20, tol
# 1e-4 and a 5000 cap. The cold search's capped probes hold it one bracket
# lower at d=3 and 4 and cost it 25,131 iterations at d=3, against 23,902.
# d=2 runs no search (test_coupled_threshold_d2_is_the_linear_bound).
_WARM_SEARCHES = {
    3: (0.9179443359374999, 0.918017578125, 23902),
    4: (0.9766845703124998, 0.9767578124999998, 23391),
    5: (0.9922119140624999, 0.9922851562499999, 16976),
    6: (0.9971923828124998, 0.9972656249999998, 13616),
}


def test_warm_search_spends_fewer_iterations_than_the_cold_one(monkeypatch):
    runs, run = [], analysis._run

    def counted(*args):
        runs.append(run(*args))
        return runs[-1]

    monkeypatch.setattr(analysis, "_run", counted)
    cfg = BlockDeConfig(max_iters=5_000)
    for d, pinned in _WARM_SEARCHES.items():
        runs.clear()
        warm = coupled_threshold(d, 20, cfg, bisect_tol=1e-4, workers=1)  # a helper's runs are not counted
        warm_its = sum(r.iterations for r in runs)
        runs.clear()
        topo = build_topology(20, d)
        cold = threshold(d, lambda g: de_coupled_run(topo, g, cfg).converged, 1e-4)
        cold_its = sum(r.iterations for r in runs)
        assert (warm.bracket_lo, warm.bracket_hi, warm_its) == pinned
        assert warm.evaluations == cold.evaluations and warm.bracket_lo >= cold.bracket_lo
        assert warm_its < cold_its, (d, warm_its, cold_its)


def test_coupled_run_takes_an_integral_float_cap():
    # at l=20, g=0.95 the run stalls after 166 iterations; a cap of 100.0
    # used to reach the kernel's call-list slice and die there
    topo = build_topology(20, 3)
    res = de_coupled_run(topo, 0.95, BlockDeConfig(max_iters=100.0))
    assert (res.stop_reason, res.iterations) == ("cap", 100)
    assert res == de_coupled_run(topo, 0.95, BlockDeConfig(max_iters=100))


# Zero erasure probabilities: every q and p must come out +0.0, as the
# per-edge scatter's do, at even d too, where the kernel's messages are
# products of an odd number of non-positive factors and a zero one is -0.0.
@pytest.mark.parametrize("d", [2, 4, 6])
def test_run_from_zeros_has_no_negative_zero(d):
    zeros_seen = 0
    for topo in (build_topology(13, d), build_circulant_topology(13, d)):
        for every in (2, 3, 5):
            p0 = np.ones(topo.m_f)
            p0[::every] = 0.0
            for g in (0.0, 0.9):
                res = _run(_CoupledKernel(topo).start(g, p0).advance, BlockDeConfig(max_iters=100), True)
                for q, p in res.trace:
                    assert not np.signbit(q).any() and not np.signbit(p).any(), (topo, every, g)
                    zeros_seen += np.count_nonzero(q == 0.0) + np.count_nonzero(p == 0.0)
    assert zeros_seen > 0


# numpy calls per coupled step, (terminated chain, circulant): 3(d-2) - 1
# extrinsic products at d >= 3 (at d=2 two copies of the previous iterate),
# d-1 sums, and q and p in three; a circulant adds d-1 folds and the copy of
# its extension. Numpy's per-call overhead sets the cost of a step, so a call
# put back shows here.
_CALLS_PER_STEP = {2: (6, 8), 3: (7, 10), 4: (11, 15), 5: (15, 20), 6: (19, 25), 7: (23, 30), 8: (27, 35)}


def test_step_call_count_pinned():
    for d, counts in _CALLS_PER_STEP.items():
        for build, count in zip((build_topology, build_circulant_topology), counts):
            calls = _CoupledKernel(build(3 * d, d))._calls
            assert len(calls) == _BLOCK
            assert {len(c) for c in calls} == {count}, (build.__name__, d)


@pytest.mark.parametrize(
    "topo,g",
    [(build_topology(30, 4), 0.95), (build_circulant_topology(10, 3), 0.85)],
    ids=["chain-30-4", "circulant-10-3"],
)
def test_run_matches_edge_by_edge_oracle(topo, g):
    res = de_coupled_run(topo, g, BlockDeConfig(max_iters=20), record_trace=True)
    assert len(res.trace) == 20
    prev = [1.0] * topo.m_f
    for q, p in res.trace:
        q_ref, p_ref = coupled_de_step_reference(prev, topo.l, topo.d, g, topo.wrap)
        assert np.max(np.abs(q - q_ref)) <= 1e-15
        assert np.max(np.abs(p - p_ref)) <= 1e-15
        prev = list(p)


def _run_both(g, max_iters):
    """The untraced and traced d=3, l=200 runs, checked to agree."""
    topo, cfg = build_topology(200, 3), BlockDeConfig(max_iters=max_iters)
    res, traced = de_coupled_run(topo, g, cfg), de_coupled_run(topo, g, cfg, record_trace=True)
    outcome = lambda r: (r.converged, r.final_p, r.iterations, r.stop_reason)
    assert outcome(traced) == outcome(res)
    assert len(traced.trace) == res.iterations
    return res, traced


# Runs advance in blocks of _BLOCK = 64 iterates: caps 63, 64, 65 and 128 end
# inside a block, on its last iterate, one past it and two blocks on; at
# g=0.813 the target is met on iteration 64, so it wins over a cap of 64.
@pytest.mark.parametrize(
    "g,max_iters,reason,converged",
    [
        (0.9, 100_000, "target", True), (0.95, 100_000, "stall", False), (0.9, 50, "cap", False),
        (0.9, 63, "cap", False), (0.9, 64, "cap", False), (0.9, 65, "cap", False),
        (0.9, 128, "cap", False), (0.813, 64, "target", True),
    ],
)
def test_run_stop_reason(g, max_iters, reason, converged):
    res, _ = _run_both(g, max_iters)
    assert res.stop_reason == reason
    assert res.converged is converged
    if reason == "cap":
        assert res.iterations == max_iters


@pytest.mark.parametrize(
    "g,reason,iterations",
    [(0.813, "target", 64), (0.81315, "target", 65), (1.046, "stall", 64), (1.043, "stall", 65)],
)
def test_run_stops_on_block_boundary(g, reason, iterations):
    assert _BLOCK == 64  # the iteration counts below sit on and just past a block's end
    res, traced = _run_both(g, 100_000)
    assert (res.stop_reason, res.iterations) == (reason, iterations)
    # the stop rule applied iterate by iterate stops on the same iterate
    _assert_matches_stop_rule_oracle(traced, _CoupledKernel(build_topology(200, 3)).start(g).advance, 1.0, 100_000)


def _assert_matches_stop_rule_oracle(res, advance, p0, cap):
    """res is the stop rule applied one iterate at a time (oracles) to the
    iterates of advance(1), from p0 under cap: every field, and the trace and
    final_p to the byte."""

    def step():
        qs, ps = advance(1)
        return qs[0], ps[1]

    converged, final_p, iterations, reason, trace = stop_rule_reference(step, p0, cap)
    assert (res.converged, res.iterations, res.stop_reason) == (converged, iterations, reason)
    as_bytes = lambda x: np.asarray(x, dtype=np.float64).tobytes()
    assert as_bytes(res.final_p) == as_bytes(final_p)
    assert [(as_bytes(q), as_bytes(p)) for q, p in res.trace] == [(as_bytes(q), as_bytes(p)) for q, p in trace]


# _run screens each block on two witness positions before its full check.
# Every verdict must still be the iterate-by-iterate rule's, through each way
# in: de_coupled_run (cold), _run on a kernel started at p0 (a zero entry
# makes iterates rise and fall, so witnesses fail mid-run; a NaN fails every
# check) and de_block_run (the scalar recursion). At d=2 the iterates near 0
# shrink by a constant factor, so a block can hold the target and still no
# stall. The reason is the run's at a cap of 1000; caps 1, 63, 64 and 65 end
# it inside, on and just past the first block.
_STOP_RULE_RUNS = [
    ("cold", "chain", 30, 3, 0.9, "target"),
    ("cold", "chain", 30, 3, 0.95, "stall"),
    ("cold", "chain", 30, 3, 0.92, "cap"),
    ("cold", "chain", 30, 4, 0.95, "target"),
    ("cold", "chain", 30, 2, 0.45, "target"),
    ("cold", "circulant", 12, 3, 0.85, "stall"),
    ("cold", "circulant", 12, 4, 0.5, "target"),
    ("zero", "chain", 30, 3, 0.9, "target"),
    ("zero", "chain", 30, 3, 0.95, "stall"),
    ("zero", "chain", 30, 3, 0.92, "cap"),
    ("zero", "circulant", 12, 3, 0.9, "stall"),
    ("nan", "chain", 30, 3, 0.9, "cap"),
    ("block", None, None, 2, 0.5, "cap"),
    ("block", None, None, 2, 0.45, "target"),
    ("block", None, None, 3, 0.8184, "target"),
    ("block", None, None, 3, 0.9, "stall"),
    ("block", None, None, 4, 0.8, "stall"),
]


@pytest.mark.parametrize("start,kind,l,d,g,reason", _STOP_RULE_RUNS)
def test_run_matches_the_stop_rule_oracle(start, kind, l, d, g, reason):
    assert (oracles.TARGET_P, oracles.STALL_EPS) == (TARGET_P, STALL_EPS)
    builders = {"chain": build_topology, "circulant": build_circulant_topology}
    for cap in (1, 63, 64, 65, 1000):
        cfg = BlockDeConfig(max_iters=cap)
        if start == "block":
            params = SchemeParams(d)
            res = de_block_run(params, LoadPoint.from_g(g, params.alpha), cfg, record_trace=True)
            _assert_matches_stop_rule_oracle(res, _iterate(d, g), 1.0, cap)
        else:
            topo = builders[kind](l, d)
            p0 = np.ones(topo.m_f)
            if start == "cold":
                res = de_coupled_run(topo, g, cfg, record_trace=True)
            else:  # one entry of p0, mid-chain, set to 0 or NaN
                p0[topo.m_f // 2] = 0.0 if start == "zero" else math.nan
                res = _run(_CoupledKernel(topo).start(g, p0).advance, cfg, True)
            _assert_matches_stop_rule_oracle(res, _CoupledKernel(topo).start(g, p0).advance, p0, cap)
        if cap == 1000:
            assert res.stop_reason == reason


@pytest.mark.parametrize("g", [math.nan, math.inf, -0.1])
def test_run_rejects_bad_load(g):
    with pytest.raises(ValueError, match="offered traffic"):
        de_coupled_run(build_topology(5, 3), g, BlockDeConfig(max_iters=10))
