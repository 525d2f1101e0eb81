import math

import pytest

from csaloha import (
    BlockDeConfig,
    LoadPoint,
    SchemeParams,
    ThresholdBracketError,
    block_threshold,
    block_threshold_grid,
    coupled_threshold,
    de_block_run,
    efficiency,
    solve_load_bound,
)
from csaloha.analysis import bisect_load
from oracles import BLOCK_IT, G_STAR


def test_de_block_run_converges_below_threshold():
    params = SchemeParams(3)
    res = de_block_run(params, LoadPoint.from_g(0.5, params.alpha))
    assert res.converged and res.final_p <= 1e-8


def test_de_block_run_diverges_above_threshold():
    params = SchemeParams(3)
    res = de_block_run(params, LoadPoint.from_g(0.9, params.alpha))
    assert not res.converged
    assert res.final_p > 0.1  # stuck at the nonzero fixed point


def test_de_block_run_zero_load_one_iteration():
    for d in (2, 3, 5):
        res = de_block_run(SchemeParams(d), LoadPoint.from_g(0.0, 100.0))
        assert res.converged and res.iterations == 1 and res.final_p == 0.0


def test_de_block_trace_monotone_in_unit_interval():
    params = SchemeParams(4)
    res = de_block_run(params, LoadPoint.from_g(0.77, params.alpha), record_trace=True)
    ps = [p for _, p in res.trace]
    assert all(0.0 <= p <= 1.0 for p in ps)
    assert all(b <= a for a, b in zip(ps, ps[1:]))
    qs = [q for q, _ in res.trace]
    assert all(0.0 <= q <= 1.0 for q in qs)


@pytest.mark.parametrize(
    "g,max_iters,reason,converged",
    [(0.5, 100_000, "target", True), (0.9, 100_000, "stall", False), (0.8, 5, "cap", False)],
)
def test_de_block_stop_reason(g, max_iters, reason, converged):
    params = SchemeParams(3)
    res = de_block_run(params, LoadPoint.from_g(g, params.alpha), BlockDeConfig(max_iters=max_iters))
    assert res.stop_reason == reason
    assert res.converged is converged
    if reason == "cap":
        assert res.iterations == max_iters


def test_de_block_monotone_in_load():
    # convergence region is a prefix of the load axis: justifies bisection
    params = SchemeParams(3)
    flags = [
        de_block_run(params, LoadPoint.from_g(g / 20, params.alpha)).converged
        for g in range(1, 21)
    ]
    assert flags == sorted(flags, reverse=True)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_block_threshold_matches_analytic_min(d):
    res = block_threshold(d)
    assert res.bracket_lo <= res.threshold <= res.bracket_hi
    assert res.bracket_hi - res.bracket_lo <= 1e-5
    assert res.threshold == pytest.approx(BLOCK_IT[d], abs=1e-4)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8])
def test_block_threshold_grid_is_the_closed_form(d):
    # the load at the jump of the fixed-point curve, which the MAP bound also finds
    assert block_threshold_grid(d) == pytest.approx(BLOCK_IT[d], abs=1e-12)


def test_block_threshold_grid_is_one_half_at_degree_two():
    assert block_threshold_grid(2) == 0.5


def test_block_threshold_cross_check_agrees():
    # the bisection and the closed form are two routes to one threshold
    assert abs(block_threshold(3).threshold - block_threshold_grid(3)) <= 1e-4


def test_bisect_load_stops_at_adjacent_floats():
    # a tolerance below the float spacing ends with hi the float right after lo
    lo, hi, _ = bisect_load(lambda x: x < 0.3, 0.0, 1.0, 1e-20)
    assert hi == math.nextafter(lo, 2.0) and lo < 0.3 <= hi
    res = block_threshold(3, bisect_tol=1e-17)
    assert res.bracket_hi == math.nextafter(res.bracket_lo, 2.0)
    assert res.threshold == pytest.approx(BLOCK_IT[3], abs=1e-4)


def test_bisect_load_probe_order():
    # the upper end first, then midpoints: the order the benchmark replays
    probes = []
    bisect_load(lambda x: probes.append(x) or x < 0.3, 0.0, 1.2, 0.2)
    assert probes == [1.2, 0.6, 0.3, 0.15]


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_bisect_load_rejects_bad_tolerance(tol):
    # a NaN or infinite tolerance used to return the untouched bracket
    with pytest.raises(ValueError):
        bisect_load(lambda x: x < 0.3, 0.0, 1.2, tol)


def test_bisect_load_rejects_a_bracket_without_a_threshold():
    # the predicate still holds at the upper end, so no threshold lies inside
    with pytest.raises(ThresholdBracketError):
        bisect_load(lambda x: True, 0.0, 1.2, 0.1)


@pytest.mark.parametrize("tol", [1.2, 5.0])
def test_threshold_rejects_tolerance_at_bracket_width(tol):
    # such a tolerance used to return the untouched bracket [0, 1.2]: 0.6
    with pytest.raises(ValueError, match="bracket width"):
        block_threshold(2, bisect_tol=tol)
    with pytest.raises(ValueError, match="bracket width"):
        coupled_threshold(2, l=10, bisect_tol=tol)
    # bisect_load itself takes it: the MAP bound bisects narrow brackets
    assert bisect_load(lambda x: x < 0.3, 0.29, 0.31, tol) == (0.29, 0.31, 1)


def test_block_threshold_rejects_degree_one():
    with pytest.raises(ValueError):
        block_threshold(1)
    with pytest.raises(ValueError):
        block_threshold_grid(1)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8])
def test_solve_load_bound_matches_oracle(d):
    g = solve_load_bound(1.0 / d)
    assert g == pytest.approx(G_STAR[d], abs=1e-12)
    assert abs(g - 1.0 + math.exp(-g * d)) <= 1e-12


@pytest.mark.parametrize("rate", [0.9, 0.99, 0.999, 0.9999, 0.99999, 0.999999])
def test_solve_load_bound_near_rate_one_matches_mpmath(rate):
    # the root is ~2(1/R - 1); G - 1 + e^{-G/R} cancels there: it lost 5.7e-10
    # of the root at R = 0.9999 and returned 0.0 from R = 0.99999 on
    import mpmath as mp

    mp.mp.dps = 50
    r = mp.mpf(rate)  # the float's exact value
    root = mp.findroot(lambda g: g - 1 + mp.exp(-g / r), 2 * (1 / r - 1))
    assert solve_load_bound(rate) == pytest.approx(float(root), rel=1e-9, abs=0)


def test_solve_load_bound_degenerate_rate_one():
    assert solve_load_bound(1.0) == 0.0


def test_solve_load_bound_root_below_the_bracket_floor_reads_zero():
    # the root ~2(1/R - 1) falls below the bracket's floor 1e-12 at R = 1 - 1e-13,
    # and lies just above it at R = 1 - 1e-12
    assert solve_load_bound(1.0 - 1e-13) == 0.0
    rate = 1.0 - 1e-12
    g = solve_load_bound(rate)
    assert g > 0.0 and g == pytest.approx(2.0 * (1.0 / rate - 1.0), rel=1e-3, abs=0)


def test_solve_load_bound_rejects():
    for rate in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            solve_load_bound(rate)


def test_efficiency_is_the_ratio():
    assert efficiency(0.9179, 0.9405) == pytest.approx(0.9760, abs=1e-4)
    assert efficiency(0.7, 0.7) == 1.0
    assert efficiency(0.5, G_STAR[2]) == pytest.approx(0.5 / G_STAR[2], abs=1e-15)
    # a load bound is positive and finite: NaN returned NaN and inf returned 0.0
    for g_star in (0.0, -0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="load bound must be positive and finite"):
            efficiency(0.5, g_star)


def test_de_config_validation():
    for max_iters in (0, -1):
        with pytest.raises(ValueError):
            BlockDeConfig(max_iters=max_iters)


def test_de_config_takes_an_integral_cap_as_its_integer():
    # a float cap used to reach the run loop's block sizes: 70.0 died in the
    # block that the cap ends, and 70.5 was accepted
    assert BlockDeConfig(max_iters=70.0) == BlockDeConfig(max_iters=70)
    assert type(BlockDeConfig(max_iters=70.0).max_iters) is int
    for bad in (70.5, math.nan, "70"):
        with pytest.raises(ValueError, match="max_iters must be an integer"):
            BlockDeConfig(max_iters=bad)
    params = SchemeParams(d=3)
    load = LoadPoint.from_g(0.817, params.alpha)
    res = de_block_run(params, load, BlockDeConfig(max_iters=70.0))
    assert (res.stop_reason, res.iterations) == ("cap", 70)
    assert res == de_block_run(params, load, BlockDeConfig(max_iters=70))


def test_threshold_refuses_a_non_integral_degree():
    # block_threshold(3.5) gave 0.80329, the threshold of no degree
    for bad in (3.5, math.nan):
        with pytest.raises(ValueError, match="must be an integer"):
            block_threshold(bad)
        with pytest.raises(ValueError, match="must be an integer"):
            block_threshold_grid(bad)
    assert block_threshold_grid(3.0) == block_threshold_grid(3)
    assert block_threshold(3.0, bisect_tol=1e-3) == block_threshold(3, bisect_tol=1e-3)
