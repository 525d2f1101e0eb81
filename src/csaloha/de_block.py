"""Density evolution for the conventional (single MAC frame) scheme: the
iterative-decoding threshold in offered traffic G, and the fundamental load
bound G* = unique positive root of G = 1 - e^{-G/R}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DeResult, LoadPoint, SchemeParams, ThresholdResult


class ThresholdBracketError(RuntimeError):
    """Bisection predicate still true at the upper bracket; no threshold inside."""


@dataclass(frozen=True)
class BlockDeConfig:
    """Stopping rules for the fixed-point iteration.

    Success means the erasure probability falls below target_p. Progress per
    iteration below stall_eps, or max_iters iterations without success, count
    as non-convergence (DeResult.stop_reason says which). Near a threshold
    the iteration slows down, so a run that would still converge can be
    counted as a failure, and the estimated threshold is biased low. For
    coupled DE that bias can exceed the bisection tolerance: at d=3, l=200,
    three probes hit the 1e5 cap, and the coupled threshold lands 3.2e-4
    below the MAP bound with a tolerance of 1e-4 (ROADMAP item 1).
    """

    target_p: float = 1e-8
    max_iters: int = 100_000
    stall_eps: float = 1e-12

    def __post_init__(self):
        if not 0.0 < self.target_p < 1.0:
            raise ValueError(f"target_p must lie in (0,1), got {self.target_p}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.stall_eps < 0.0:
            raise ValueError(f"stall_eps must be >= 0, got {self.stall_eps}")


_DEFAULT_CFG = BlockDeConfig()


def _iterate(d: int, g: float, cfg: BlockDeConfig, record_trace: bool) -> DeResult:
    # q_l = p_{l-1}^{d-1};  p_l = 1 - exp(-g*d*q_l), from p_0 = 1
    p = 1.0
    trace: list[tuple[float, float]] | None = [] if record_trace else None
    for it in range(1, cfg.max_iters + 1):
        q = p ** (d - 1)
        p_next = -math.expm1(-g * d * q)
        if trace is not None:
            trace.append((q, p_next))
        progress = p - p_next
        p = p_next
        if p <= cfg.target_p:
            return DeResult(True, p, it, tuple(trace) if trace is not None else None, "target")
        if progress < cfg.stall_eps:
            return DeResult(False, p, it, tuple(trace) if trace is not None else None, "stall")
    return DeResult(False, p, cfg.max_iters, tuple(trace) if trace is not None else None, "cap")


def de_block_run(
    params: SchemeParams,
    load: LoadPoint,
    cfg: BlockDeConfig = _DEFAULT_CFG,
    record_trace: bool = False,
) -> DeResult:
    """Run the two-step erasure recursion at offered traffic load.g until the
    erasure probability vanishes (converged) or progress stalls."""
    return _iterate(params.d, load.g, cfg, record_trace)


def bisect_load(predicate, lo: float, hi: float, tol: float) -> tuple[float, float, int]:
    """Shrink [lo, hi] to width <= tol assuming predicate is true on the low side,
    probing hi first and then midpoints. A tol below the float spacing stops
    at adjacent floats.

    predicate(hi) must be false, else the bracket is too small and the search
    is meaningless; that case raises ThresholdBracketError.
    """
    if tol <= 0.0:
        raise ValueError(f"bisection tolerance must be > 0, got {tol}")
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


def block_threshold(d: int, cfg: BlockDeConfig = _DEFAULT_CFG, bisect_tol: float = 1e-5) -> ThresholdResult:
    """Largest G at which density evolution still converges, by bisection on [0, 1.2]."""
    if d < 2:
        raise ValueError(f"threshold search needs d >= 2, got {d}")
    lo, hi, evals = bisect_load(lambda g: _iterate(d, g, cfg, False).converged, 0.0, 1.2, bisect_tol)
    return ThresholdResult(0.5 * (lo + hi), lo, hi, hi - lo, evals)


def block_threshold_grid(d: int, n_points: int = 200_000) -> float:
    """Analytic route to the same threshold: the convergence condition
    q > (1 - e^{-q*G*d})^{d-1} for all q in (0,1] first fails where
    G = -ln(1 - q^{1/(d-1)}) / (q*d), so the threshold is that expression's
    minimum over a dense q-grid."""
    if d < 2:
        raise ValueError(f"threshold search needs d >= 2, got {d}")
    if n_points < 10_000:
        raise ValueError("grid condition needs at least 1e4 points")
    q = np.linspace(1e-7, 1.0 - 1e-9, n_points)
    with np.errstate(divide="ignore", invalid="ignore"):
        g_crit = -np.log(1.0 - q ** (1.0 / (d - 1))) / (q * d)
    return float(np.nanmin(g_crit))


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
    lo, hi, _ = bisect_load(lambda g: g - 1.0 + math.exp(-g * inv_r) < 0.0, 1e-12, 1.0, 1e-15)
    root = 0.5 * (lo + hi)
    if abs(f(root)) > 1e-12:
        raise ArithmeticError(f"load-bound residual {f(root):.3e} exceeds 1e-12")
    return root


def efficiency(g_conv: float, g_star: float) -> float:
    """Normalized efficiency: ratio of an achieved threshold to the load bound."""
    if g_star <= 0.0:
        raise ValueError(f"load bound must be positive, got {g_star}")
    return g_conv / g_star
