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
from csaloha.de_block import _BLOCK, STALL_EPS, TARGET_P
from csaloha.de_coupled import _CoupledKernel
from oracles import coupled_de_step_reference


def test_step_zero_profile_is_absorbing():
    topo = build_topology(5, 3)
    kernel = _CoupledKernel(topo, 0.9, np.zeros(topo.m_f))
    _, p = kernel.advance(1)
    assert np.all(kernel.msgs == 0.0)
    assert np.all(p == 0.0)


def test_step_all_ones_interior_and_boundary():
    # from the all-ones profile every message is 1, so position j sees
    # p_j = 1 - exp(-g * delta_j)
    topo = build_topology(200, 3)
    kernel = _CoupledKernel(topo, 0.9)
    p = kernel.advance(1)[1][1]
    assert np.all(kernel.msgs == 1.0)
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


def test_termination_adjusted_load():
    assert termination_adjusted_load(0.9, 200, 3) == pytest.approx(0.9 * 200 / 202)
    assert termination_adjusted_load(0.9, 10**6, 3) == pytest.approx(0.9, abs=1e-5)


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
# hides a one-ulp change in the order of a sum; these digests do not.
_PINNED_TRACES = [
    ("chain", 30, 3, 0.9, "8274fb4cba1da236fb2341ca495e3a5da5be14d63fd3f81c0679b84be60fbc45"),
    ("chain", 30, 4, 0.95, "00794e4e69ac2cf70382edf5fef03b8a1b9963ad62860273fc3c0cbf40c4d626"),
    ("chain", 200, 3, 0.917, "b80961d5b0a59c658e8c63ba472d842b1d30823ce8d9dc4a3d7d12ae907b54f3"),
    ("circulant", 12, 5, 0.65, "73362d63bc708b3e2ea12e7a602829bb8b3ae3cdceb7b7aef310a009312ce112"),
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
    # the stop rule applied iterate by iterate holds first on the last one
    prev, met = np.ones(202), []
    for _, p in traced.trace:
        met.append(p.max() <= TARGET_P or np.abs(prev - p).max() < STALL_EPS)
        prev = p
    assert met.index(True) == iterations - 1


@pytest.mark.parametrize("g", [math.nan, math.inf, -0.1])
def test_run_rejects_bad_load(g):
    with pytest.raises(ValueError, match="offered traffic"):
        de_coupled_run(build_topology(5, 3), g, BlockDeConfig(max_iters=10))
