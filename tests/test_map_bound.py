import math

import pytest

import csaloha.map_bound as mb
from csaloha import AreaSolutionError, SchemeParams, map_load_bound
from oracles import (
    BLOCK_IT,
    G_pot,
    MAP_BOUND,
    adaptive_simpson,
    extrinsic_p,
    locate_it_epsilon,
    quadrature_map_bound,
    regenerate_constants,
)


def test_frozen_constants_regenerate():
    for d in (2, 3, 5):
        g_star, block_it, map_bound = regenerate_constants(d)
        assert block_it == pytest.approx(BLOCK_IT[d], abs=1e-12)
        assert map_bound == pytest.approx(MAP_BOUND[d], abs=1e-12)


# the quadrature oracle's parts: the extrinsic curve, its jump, and Simpson


def test_extrinsic_p_zero_input():
    assert extrinsic_p(3, 100.0, 0.0) == 0.0


def test_extrinsic_p_saturates_at_full_load():
    assert extrinsic_p(3, 100.0, 1.0) >= 1.0 - 1e-10


def test_extrinsic_p_vanishes_below_it_threshold():
    eps_it = BLOCK_IT[3] / 100.0
    assert extrinsic_p(3, 100.0, eps_it * 0.999) <= 1e-8
    assert extrinsic_p(3, 100.0, eps_it * 1.01) > 0.3  # jumps to the upper branch


def test_extrinsic_p_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        extrinsic_p(3, 100.0, -0.1)
    with pytest.raises(ValueError):
        extrinsic_p(3, 100.0, 1.1)


def test_locate_it_epsilon_matches_block_threshold():
    assert locate_it_epsilon(3, 100.0) == pytest.approx(BLOCK_IT[3] / 100.0, abs=1e-7)
    assert locate_it_epsilon(4, 100.0) == pytest.approx(BLOCK_IT[4] / 100.0, abs=1e-7)


def test_adaptive_simpson_known_integrals():
    assert adaptive_simpson(lambda x: x * x, 0.0, 1.0, 1e-10) == pytest.approx(1 / 3, abs=1e-10)
    assert adaptive_simpson(math.sin, 0.0, math.pi, 1e-10) == pytest.approx(2.0, abs=1e-9)
    assert adaptive_simpson(lambda x: math.sqrt(abs(x)), 0.0, 1.0, 1e-9) == pytest.approx(
        2 / 3, abs=1e-7
    )
    assert adaptive_simpson(lambda x: 1.0, 1.0, 0.5, 1e-9) == 0.0  # empty interval


# the closed-form balance


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8])
def test_map_load_bound_matches_closed_form(d):
    # at these alpha the balance is alpha-free to far below float precision
    for alpha in (100.0, 200.0):
        assert map_load_bound(SchemeParams(d, alpha)) == pytest.approx(MAP_BOUND[d], abs=1e-8)


@pytest.mark.parametrize("d", [3, 4, 5, 6, 7, 8])
def test_map_load_bound_matches_potential_threshold(d):
    # a second route to the bound that shares no derivation with the area
    # balance or the quadrature oracle: the potential function's zero minimum
    g_pot = G_pot(d)
    for alpha in (100.0, 200.0):
        assert abs(map_load_bound(SchemeParams(d, alpha)) - g_pot) <= 1e-10


def test_map_epsilon_bound_scales_as_inverse_alpha():
    # the bound in G is alpha-free at large alpha, so eps-bar = G/alpha scales as 1/alpha
    for d in (3, 4, 5, 6):
        assert abs(map_load_bound(SchemeParams(d, 100.0)) - map_load_bound(SchemeParams(d, 200.0))) <= 1e-10


@pytest.mark.parametrize("alpha", [1.5, 5.0])
@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_map_load_bound_matches_quadrature(d, alpha):
    assert map_load_bound(SchemeParams(d, alpha)) == pytest.approx(quadrature_map_bound(d, alpha), abs=1e-7)


def test_map_load_bound_small_spare_area():
    # at d=2 the curve rises continuously from its jump at G=1/2; at alpha=5 the
    # area above the jump exceeds R0 by ~9e-6, which moves the bound to
    # 0.5209881 (an mpmath integral of the curve from there gives R0 = 0.8)
    assert map_load_bound(SchemeParams(2, 5.0)) == pytest.approx(0.5209881, abs=1e-7)


def test_map_load_bound_degree_one_is_zero():
    assert map_load_bound(SchemeParams(1, 100.0)) == pytest.approx(0.0, abs=1e-12)


def test_map_bound_orderings():
    # saturation sandwich for d >= 3: block IT < MAP bound <= load bound
    from oracles import G_STAR

    for d in (3, 4, 5):
        g_map = map_load_bound(SchemeParams(d, 100.0))
        assert BLOCK_IT[d] < g_map <= G_STAR[d] + 1e-9


def test_area_solution_error_signaled(monkeypatch):
    # a balance whose area above the jump cannot reach the nominal rate must be rejected
    monkeypatch.setattr(mb, "_area", lambda u, d: 1.0)
    with pytest.raises(AreaSolutionError):
        mb.map_load_bound(SchemeParams(3, 100.0))
