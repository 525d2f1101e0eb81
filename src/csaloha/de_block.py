"""Density evolution for the conventional (single MAC frame) scheme: the
iterative-decoding threshold in offered traffic G, and the fundamental load
bound G* = unique positive root of G = 1 - e^{-G/R}. Coupled DE shares the
run loop (_run) and the threshold search (threshold) defined here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DeResult, LoadPoint, SchemeParams, ThresholdResult


class ThresholdBracketError(RuntimeError):
    """Bisection predicate still true at the upper bracket; no threshold inside."""


# the stop rule of every density-evolution run, block or coupled (BlockDeConfig)
TARGET_P = 1e-8
STALL_EPS = 1e-12
_BLOCK = 64  # iterates per block of a run (_run)
# absolute bisection tolerance in u = -ln(1-q) (_jump_u, map_bound); near a
# large upper bracket end the float spacing ends the search first
_U_TOL = 1e-15


@dataclass(frozen=True)
class BlockDeConfig:
    """The iteration cap of a density-evolution run.

    After each iteration the run stops, tested in this order, when the worst
    erasure probability is at most TARGET_P = 1e-8 ("target", the only
    success), when no erasure probability changed by STALL_EPS = 1e-12
    ("stall": a fixed point, or slowing near the threshold) or after
    max_iters iterations ("cap"); DeResult.stop_reason names which. Near a
    threshold a run that would still converge can so count as a failure:
    at d=3, l=200 three coupled probes hit the 1e5 cap, and the coupled
    threshold lands 3.2e-4 below the MAP bound (tolerance 1e-4, ROADMAP item 1).
    """

    max_iters: int = 100_000

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


_DEFAULT_CFG = BlockDeConfig()


def _run(advance, cfg: BlockDeConfig, record_trace: bool) -> DeResult:
    """Apply the stop rule (see BlockDeConfig) to iterates produced in blocks:
    advance(n) returns the block's n message values q and its n+1 erasure
    probabilities p, p[0] being the iterate before the block (rows of a
    history buffer, or lists of floats). The rule reads the first qualifying
    iterate of a block; blocks end at the cap. trace collects the (q, p)
    pairs."""
    trace: list[tuple] | None = [] if record_trace else None
    it = 0
    while True:
        n = min(_BLOCK, cfg.max_iters - it)
        qs, ps = advance(n)
        p = np.asarray(ps).reshape(n + 1, -1)
        worst = p[1:].max(axis=1)
        hits = np.flatnonzero((worst <= TARGET_P) | (np.abs(p[:-1] - p[1:]).max(axis=1) < STALL_EPS))
        k = int(hits[0]) + 1 if hits.size else n
        if trace is not None:  # copies: advance reuses its buffers
            trace.extend(zip(qs[:k].copy(), ps[1 : k + 1].copy()))
        it += k
        if hits.size or it == cfg.max_iters:
            break
    reason = "cap" if not hits.size else "target" if worst[k - 1] <= TARGET_P else "stall"
    return DeResult(reason == "target", float(worst[k - 1]), it, tuple(trace) if trace is not None else None, reason)


def _iterate(d: int, g: float):
    """The scalar block recursion as an advance function for _run, in Python floats."""
    # q_l = p_{l-1}^{d-1};  p_l = 1 - exp(-g*d*q_l), from p_0 = 1
    p = 1.0

    def advance(n):
        nonlocal p
        qs, ps = [], [p]
        for _ in range(n):
            q = p ** (d - 1)
            p = -math.expm1(-g * d * q)
            qs.append(q)
            ps.append(p)
        return qs, ps

    return advance


def de_block_run(
    params: SchemeParams,
    load: LoadPoint,
    cfg: BlockDeConfig = _DEFAULT_CFG,
    record_trace: bool = False,
) -> DeResult:
    """Run the two-step erasure recursion at offered traffic load.g until the
    erasure probability reaches TARGET_P ("target"), an iteration changes it
    by less than STALL_EPS ("stall") or cfg.max_iters runs out ("cap")."""
    return _run(_iterate(params.d, load.g), cfg, record_trace)


def bisect_load(predicate, lo: float, hi: float, tol: float) -> tuple[float, float, int]:
    """Shrink [lo, hi] to width <= tol assuming predicate is true on the low side,
    probing hi first and then midpoints. A tol below the float spacing stops
    at adjacent floats.

    predicate(hi) must be false, else the bracket is too small and the search
    is meaningless; that case raises ThresholdBracketError.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"bisection tolerance must be finite and > 0, got {tol}")
    evals = 1
    if predicate(hi):
        raise ThresholdBracketError(f"predicate still true at upper bracket {hi}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        evals += 1
        if predicate(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi, evals


def threshold(d: int, converges, tol: float) -> ThresholdResult:
    """The threshold of a degree-d scheme: the largest load G in [0, 1.2] at
    which converges(G) holds, by bisection to width tol."""
    if d < 2:
        raise ValueError(f"threshold search needs d >= 2, got {d}")
    if tol >= 1.2:  # the bracket would come back untouched
        raise ValueError(f"bisection tolerance must be below the bracket width 1.2, got {tol}")
    lo, hi, evals = bisect_load(converges, 0.0, 1.2, tol)
    return ThresholdResult(0.5 * (lo + hi), lo, hi, evals)


def block_threshold(d: int, cfg: BlockDeConfig = _DEFAULT_CFG, bisect_tol: float = 1e-5) -> ThresholdResult:
    """Largest G at which block density evolution still converges."""
    return threshold(d, lambda g: _run(_iterate(d, g), cfg, False).converged, bisect_tol)


def _jump_u(d: int, top: float) -> float:
    """u = -ln(1 - q) at the jump of the block fixed-point curve: the root of
    q/(1-q) + (d-1) ln(1-q) = 0 in (0, top], by bisection to _U_TOL (0 for
    d <= 2, where the curve rises continuously from zero). The block
    threshold and the MAP bound both start from it."""
    # below the jump q/(1-q) + (d-1) ln(1-q) < 0, i.e. q < (d-1) u (1-q)
    u, _, _ = bisect_load(lambda u: -math.expm1(-u) < (d - 1) * u * math.exp(-u), 0.0, top, _U_TOL)
    return u


def block_threshold_grid(d: int) -> float:
    """Closed-form route to the same threshold: the convergence condition
    q > (1 - e^{-q*G*d})^{d-1} for all q in (0,1] first fails at the jump u
    (_jump_u), so the threshold is u / (d (1 - e^{-u})^{d-1}), with the limit
    1/2 at d=2. (The name is from an earlier minimisation over a dense grid.)"""
    if d < 2:
        raise ValueError(f"threshold search needs d >= 2, got {d}")
    if d == 2:
        return 0.5
    u = _jump_u(d, float(d))  # e^d - 1 > (d-1) d for d >= 3: the jump lies below d
    return u / (d * (-math.expm1(-u)) ** (d - 1))


def solve_load_bound(rate: float) -> float:
    """Unique positive root of G - 1 + e^{-G/R} in (0, 1), or 0 when 1/R <= 1
    (the map's slope at the origin is then too small for a positive fixed point)."""
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"rate must lie in (0,1], got {rate}")
    inv_r = 1.0 / rate
    if inv_r <= 1.0:
        return 0.0
    f = lambda g: g - 1.0 + math.exp(-g * inv_r)
    if f(1e-12) >= 0.0:  # slope barely above 1: root collapses to 0
        return 0.0
    lo, hi, _ = bisect_load(lambda g: f(g) < 0.0, 1e-12, 1.0, 1e-15)
    root = 0.5 * (lo + hi)
    if abs(f(root)) > 1e-12:
        raise ArithmeticError(f"load-bound residual {f(root):.3e} exceeds 1e-12")
    return root


def efficiency(g_conv: float, g_star: float) -> float:
    """Normalized efficiency: ratio of an achieved threshold to the load bound."""
    if g_star <= 0.0:
        raise ValueError(f"load bound must be positive, got {g_star}")
    return g_conv / g_star
