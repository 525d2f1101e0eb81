"""The asymptotic analysis: density evolution (DE) of the block frame and of
the coupled super-frame, the iterative thresholds in offered traffic G, the
load bound G* = unique positive root of G = 1 - e^{-G/R}, and an upper bound
on the genie-aided MAP threshold. Every DE run stops through one loop (_run)
and every search probes in bisect_load's order; the coupled search hands each
probe that outlasts a block to a forked child and runs the probes that follow
if it converges (_SearchAhead), with the verdicts of the search run alone.

Block DE keeps its scalar loop in Python floats (_iterate) beside the coupled
kernel, which on a d-frame circulant chain gives the same block_threshold
brackets for d = 2..8, bit for bit, at many times the cost.

The MAP bound is the area balance (Maxwell construction): the largest
epsilon-bar with  integral of the extrinsic erasure curve p_e over
[epsilon-bar, 1] = nominal rate R0. Along its smooth branch the curve is
p_e = q^d at epsilon = u / (d alpha q^{d-1}), with u = -ln(1-q), so the
integral has a closed form: it equals (G(q_1) - G(q-bar)) / alpha with
G(q) = q u/d + (1-q) u - q, where q_1 is the top fixed point at epsilon = 1.
Everything is solved in u, which is one-to-one with q and stays finite where
q_1 rounds to 1 (q_1 = 1 - e^{-300} at d=3, alpha=100).
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .core import CoupledTopology, LoadPoint, SchemeParams, as_int, build_topology, pool_size


@dataclass(frozen=True)
class DeResult:
    """Outcome of one density-evolution run.

    final_p is the last sum-node-to-burst-node erasure probability (max over
    positions in the coupled case). trace, when recorded, is a tuple of
    per-iteration (q, p) values; p is an array in the coupled case.
    stop_reason names the rule that ended it (see BlockDeConfig): "target"
    (final_p <= TARGET_P = 1e-8, the only success), "stall" (no erasure
    probability changed by STALL_EPS = 1e-12) or "cap" (max_iters ran out).
    """

    converged: bool
    final_p: float
    iterations: int
    trace: tuple | None = None
    stop_reason: str | None = None


@dataclass(frozen=True)
class ThresholdResult:
    """A bisection outcome: threshold = bracket midpoint, after `evaluations` DE runs."""

    threshold: float
    bracket_lo: float
    bracket_hi: float
    evaluations: int


class ThresholdBracketError(RuntimeError):
    """Bisection predicate still true at the upper bracket; no threshold inside."""


class AreaSolutionError(ArithmeticError):
    """The area under the extrinsic curve is smaller than the nominal rate."""


# the stop rule of every density-evolution run, block or coupled (BlockDeConfig)
TARGET_P = 1e-8
STALL_EPS = 1e-12
_BLOCK = 64  # iterates per block of a run (_run)
# absolute bisection tolerance in u = -ln(1-q) (_jump_u, map_load_bound); near a
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
    at d=3, l=200 two coupled probes hit the 1e5 cap, and the coupled
    threshold lands 2.5e-4 below the MAP bound (tolerance 1e-4, ROADMAP item 2).
    An integral float cap is taken as its integer (core.as_int).
    """

    max_iters: int = 100_000

    def __post_init__(self):
        object.__setattr__(self, "max_iters", as_int(self.max_iters, "max_iters"))
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


def _run(advance, cfg: BlockDeConfig, record_trace: bool) -> DeResult:
    """Apply the stop rule (see BlockDeConfig) to iterates produced in blocks:
    advance(n) returns the block's n message values q and its n+1 erasure
    probabilities p, p[0] being the iterate before the block (rows of a
    history buffer, or lists of floats). The rule reads the first qualifying
    iterate of a block; blocks end at the cap. trace collects the (q, p)
    pairs.

    Each block is first screened on two witness positions from the last row
    of the last full check (position 0 before it): j, the worst one, and s,
    the one that moved most. If p[t, j] > TARGET_P and |p[t, s] - p[t-1, s]|
    >= STALL_EPS in every row t, no row meets the rule, as one entry bounds
    its row's max from below: the screen is exact for any iterates. Only a
    block where a witness fails (NaN fails) gets the full row-wise check.
    DE iterates are monotone, so the witnesses hold long: a d=3..6, l=200
    coupled search fully checks 1.5-2 % of its blocks."""
    trace: list[tuple] | None = [] if record_trace else None
    it = j = s = 0
    while True:
        n = min(_BLOCK, cfg.max_iters - it)
        qs, ps = advance(n)
        p = np.asarray(ps).reshape(n + 1, -1)
        k, hits = n, ()
        if not (p[1:, j].min() > TARGET_P and np.abs(p[:-1, s] - p[1:, s]).min() >= STALL_EPS):
            hits = np.flatnonzero((p[1:].max(axis=1) <= TARGET_P) | (np.abs(p[:-1] - p[1:]).max(axis=1) < STALL_EPS))
            k = int(hits[0]) + 1 if len(hits) else n
            j, s = int(p[k].argmax()), int(np.abs(p[k - 1] - p[k]).argmax())
        if trace is not None:  # copies: advance reuses its buffers
            trace.extend(zip(qs[:k].copy(), ps[1 : k + 1].copy()))
        it += k
        if len(hits) or it == cfg.max_iters:
            break
    final_p = float(p[k].max())
    reason = "cap" if not len(hits) else "target" if final_p <= TARGET_P else "stall"
    return DeResult(reason == "target", final_p, it, tuple(trace) if trace is not None else None, reason)


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
    cfg: BlockDeConfig = BlockDeConfig(),
    record_trace: bool = False,
) -> DeResult:
    """Run the two-step erasure recursion at offered traffic load.g until the
    erasure probability reaches TARGET_P ("target"), an iteration changes it
    by less than STALL_EPS ("stall") or cfg.max_iters runs out ("cap")."""
    return _run(_iterate(params.d, load.g), cfg, record_trace)


def _midpoint(lo: float, hi: float, tol: float) -> float | None:
    """A bisection's probe after the upper end: the midpoint of [lo, hi], or
    None once the width is at most tol or the ends are adjacent floats."""
    mid = 0.5 * (lo + hi)
    return mid if hi - lo > tol and lo != mid != hi else None


def _bracket_error(hi: float) -> ThresholdBracketError:
    return ThresholdBracketError(f"predicate still true at upper bracket {hi}")


def bisect_load(predicate, lo: float, hi: float, tol: float) -> tuple[float, float, int]:
    """Shrink [lo, hi] to width <= tol assuming predicate is true on the low side,
    probing hi first and then midpoints (_midpoint). A tol below the float
    spacing stops at adjacent floats.

    predicate(hi) must be false, else the bracket is too small and the search
    is meaningless; that case raises ThresholdBracketError.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"bisection tolerance must be finite and > 0, got {tol}")
    if predicate(hi):
        raise _bracket_error(hi)
    evals = 1
    while (mid := _midpoint(lo, hi, tol)) is not None:
        evals += 1
        if predicate(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi, evals


class _Bisection:
    """bisect_load's search as a state, which fixes the next probe, load
    (None: the search is done), and can be copied along a branch. p0 is
    carried for a warm-start search: the stop iterate of the last probe that
    missed (record's p_T)."""

    __slots__ = ("lo", "hi", "tol", "p0", "evals", "load")

    def __init__(self, lo: float, hi: float, tol: float, p0=None, evals: int = 0):
        self.lo, self.hi, self.tol, self.p0, self.evals = lo, hi, tol, p0, evals
        self.load = _midpoint(lo, hi, tol) if evals else hi

    def record(self, converged, p_T=None) -> None:
        """Take the verdict on load; a true one at the upper end raises."""
        if converged and not self.evals:
            raise _bracket_error(self.hi)
        self.evals += 1
        if converged:
            self.lo = self.load
        else:
            self.hi, self.p0 = self.load, self.p0 if p_T is None else p_T
        self.load = _midpoint(self.lo, self.hi, self.tol)

    def branch(self) -> "_Bisection | None":
        """The search that follows if load converges, or None where it has no
        probe: at the upper end, where that would raise, and at the last."""
        if self.evals and _midpoint(self.load, self.hi, self.tol) is not None:
            return _Bisection(self.load, self.hi, self.tol, self.p0, self.evals + 1)
        return None


def _search_tol(d: int, tol: float) -> float:
    """tol, after refusing a degree below 2 and a tolerance outside (0, 1.2),
    the width of the search bracket [0, 1.2], which it would return untouched."""
    if (d := as_int(d, "repetition degree d")) < 2:
        raise ValueError(f"threshold search needs d >= 2, got {d}")
    if not 0.0 < tol < 1.2:
        raise ValueError(f"bisection tolerance must be > 0 and below the bracket width 1.2, got {tol}")
    return tol


def threshold(d: int, converges, tol: float) -> ThresholdResult:
    """The threshold of a degree-d scheme: the largest load G in [0, 1.2] at
    which converges(G) holds, by bisection to width tol."""
    lo, hi, evals = bisect_load(converges, 0.0, 1.2, _search_tol(d, tol))
    return ThresholdResult(0.5 * (lo + hi), lo, hi, evals)


def block_threshold(d: int, cfg: BlockDeConfig = BlockDeConfig(), bisect_tol: float = 1e-5) -> ThresholdResult:
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
    if (d := as_int(d, "repetition degree d")) < 2:
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
    f = lambda g: g + math.expm1(-g * inv_r)  # not g - 1 + exp(-g/R), which cancels as R nears 1
    if f(1e-12) >= 0.0:  # 1/R - 1 below ~5e-13: a root below the bracket's floor, read as 0
        return 0.0
    lo, hi, _ = bisect_load(lambda g: f(g) < 0.0, 1e-12, 1.0, 1e-15)
    root = 0.5 * (lo + hi)
    if abs(f(root)) > 1e-12:
        raise ArithmeticError(f"load-bound residual {f(root):.3e} exceeds 1e-12")
    return root


def efficiency(g_conv: float, g_star: float) -> float:
    """Normalized efficiency: ratio of an achieved threshold to the load bound."""
    if not 0.0 < g_star < math.inf:  # NaN too
        raise ValueError(f"load bound must be positive and finite, got {g_star}")
    return g_conv / g_star


class _CoupledKernel:
    """The coupled update, compiled once into a list of numpy calls per
    history row, so that a step allocates nothing and branches on nothing;
    start sets the load and the iterate before the first step, so one
    kernel serves every probe of a threshold search.

    Iterates are produced in blocks of up to _BLOCK into a history buffer:
    row t holds iterate t of the block and row 0 the one before it, so step
    t reads row t-1 through its windows and writes row t in place; _run then
    stops at the block's first iterate that meets the stop rule. Type i's
    k-th frame is i+k (mod m_f), so over all types the k-th frames form the
    window p[k:k+l]. On a circulant chain each row is stored extended by its
    first d-1 entries, so the same windows apply, and the messages that wrap
    past frame l are folded back onto the head. Every product and sum runs in
    the order of a per-edge scatter that visits the types in increasing
    order, so the iterates equal that scatter's bit for bit.

    While a block runs, the history holds r = -p, which expm1 writes
    directly; advance negates the block once before returning it. A
    message, a product of d-1 entries of r, so carries the sign (-1)^(d-1),
    and dividing the sums by delta given that same sign yields q itself.
    Message k sits at columns k..k+l-1 of a row of length l+d-1, so each
    sum is d-1 full-length adds; the row's other entries are never written
    and hold -0.0, which adds nothing, not even to a zero: x + -0.0 = x.
    (With +0.0, a zero sum at even d, -0.0, would turn +0.0, and q would
    come out -0.0.) At d=2 each message is one entry of the previous row,
    and a step copies both into their rows. At d >= 3 each step first forms
    pair[x] = r[x]*r[x+1] over the previous row: its windows at 0 and d-2
    are the first prefix product w0*w1 and the first suffix product
    w_{d-1}*w_{d-2}. At d=3 these are the messages toward the last and the
    first frame, so both are windows of the -0.0-padded pair buffer. Other
    messages have rows of their own; msgs holds the d messages as the last
    step wrote them. The messages, sums and folds are the same arrays at
    every step; only the windows of the previous row move.
    A two-factor product commutes exactly, negation is exact and rounding
    symmetric in sign, so every iterate keeps its bits.
    """

    def __init__(self, topo: CoupledTopology):
        l, d, m_f = topo.l, topo.d, topo.m_f
        n = l + d - 1  # row length: the m_f positions, then a circulant's extension
        delta = np.array(topo.delta, dtype=np.float64)
        signed_delta, neg_g_delta = delta if d % 2 else -delta, np.empty(m_f)
        own = np.full((d, n), -0.0)  # own[k]: message k at columns k..k+l-1
        own[0, :l] = 1.0  # the empty product at d=1; at d >= 2 it is unused or written before it is read
        pair = np.full(n + 3, -0.0)  # pair[x] = r[x]*r[x+1] at column x+2
        q_sum = own[0] if d == 1 else np.empty(n)
        q_head = q_sum[:m_f]
        hist = np.zeros((_BLOCK + 1, n))  # the block's rows of r = -p, extended on a circulant
        self.q = np.empty((_BLOCK, m_f))  # q[t-1]: per-position average of step t's incoming messages
        self.p = hist[:, :m_f]
        self._hist, self._last, self._delta, self._neg_g_delta = hist, 0, delta, neg_g_delta
        mul, add = np.multiply, np.add
        # at d=3 the end messages are windows of the pair product
        rows = [pair[3 : n + 3], own[1], pair[:n]] if d == 3 else list(own)
        m = [rows[k][k : k + l] for k in range(d)]  # m[k][i]: message of type i+1 toward its k-th frame
        self.msgs = tuple(m)
        # each frame adds its types in increasing order, i.e. by decreasing k
        sums = [(add, (rows[k + 1] if k == d - 2 else q_sum, rows[k], q_sum)) for k in range(d - 2, -1, -1)]
        if topo.wrap:
            sums += [(add, (q_sum[:k], m[k][l - k :], q_sum[:k])) for k in range(d - 1, 0, -1)]
        pair0, pair_s = pair[2 : l + 2], pair[d : d + l]  # w[0]*w[1] and w[d-2]*w[d-1]
        self._calls = []  # _calls[t-1]: the (ufunc, args) pairs of step t
        for prev, row, r, q in zip(hist, hist[1:], self.p[1:], self.q):
            w = [prev[k : k + l] for k in range(d)]
            # at d=2 the message toward each frame is the other frame's entry
            calls = [(np.copyto, (m[0], w[1])), (np.copyto, (m[1], w[0]))] if d == 2 else []
            if d > 2:
                calls.append((mul, (prev[: n - 1], prev[1:n], pair[2 : n + 1])))
                prefix = [w[0], pair0] + m[3:]  # prefix[j] = w[0]*...*w[j]
                # prefix products left to right, m[k] = w[0]*...*w[k-1] ...
                calls += [(mul, (prefix[k - 2], w[k - 1], m[k])) for k in range(3, d)]
                # ... times suffix products right to left, m[k] = prefix * w[d-1]*...*w[k+1];
                # the running suffix product is kept in m[0] and ends as its message
                calls.append((mul, (prefix[d - 3], w[d - 1], m[d - 2])))
                right = pair_s
                for k in range(d - 3, 0, -1):
                    calls += [(mul, (prefix[k - 1], right, m[k])), (mul, (right, w[k], m[0]))]
                    right = m[0]
            calls += sums + [(np.divide, (q_head, signed_delta, q)), (mul, (neg_g_delta, q, r)), (np.expm1, (r, r))]
            if topo.wrap:
                calls.append((np.copyto, (row[m_f:], row[: n - m_f])))
            self._calls.append(calls)

    def start(self, g: float, p0: np.ndarray | float = 1.0) -> "_CoupledKernel":
        """Set the load to g and the iterate before the first step to p0."""
        np.multiply(self._delta, -g, out=self._neg_g_delta)
        hist, m_f = self._hist, self.p.shape[1]
        np.copyto(self.p[0], p0)
        hist[0, m_f:] = hist[0, : hist.shape[1] - m_f]
        self._last = 0
        return self

    def advance(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """n <= _BLOCK parallel (flooding) updates; returns their n rows of q
        and n+1 rows of p, row 0 being the iterate before them."""
        hist = self._hist
        np.negative(hist[self._last], hist[0])  # r of the iterate before the block (p0 at the first call)
        self._last = n
        for calls in self._calls[:n]:
            for f, args in calls:
                f(*args)
        np.negative(hist[: n + 1], hist[: n + 1])  # whole rows: one contiguous pass
        return self.q[:n], self.p[: n + 1]


def de_coupled_run(
    topo: CoupledTopology,
    g: float,
    cfg: BlockDeConfig = BlockDeConfig(),
    record_trace: bool = False,
) -> DeResult:
    """Iterate from the all-ones profile under de_block_run's stop rule, on
    the worst position's erasure probability, which is final_p."""
    if not 0.0 <= g < math.inf:
        raise ValueError(f"offered traffic must be finite and >= 0, got {g}")
    return _run(_CoupledKernel(topo).start(g).advance, cfg, record_trace)


def coupled_threshold(
    d: int,
    l: int = 200,
    cfg: BlockDeConfig = BlockDeConfig(),
    bisect_tol: float = 1e-4,
    workers: int | None = None,
) -> ThresholdResult:
    """Threshold search with coupled-DE convergence on the l-chain as the
    predicate, or at d=2 its exact value g_c = 1/(2 cos(pi/(l+2))), returned
    as a zero-width bracket after no DE run.

    At d=2 each message is one entry of p, so the sum into each frame is
    linear, S = A p, with A the adjacency matrix of the path on the l+1
    frames, and a step is p' = 1 - e^{-g S}. Since 1 - e^{-x} <= x, the
    iterates from all ones stay below (gA)^t 1, which goes to 0 when
    g rho(A) < 1, where rho(A) = 2 cos(pi/(l+2)). When g rho(A) > 1, y = s v
    with v_k = sin(pi k/(l+2)), the Perron vector, gives f(y) >= y for small
    s > 0, and since f is monotone every iterate stays >= y: the run never
    reaches the target. (A bisection over DE runs lands 5e-5 to 7e-5 below
    g_c: the stop rule reads the slow runs just below it as failures.)

    The default bisect_tol is looser than the block one because each coupled
    run costs m_f positions per iteration and near-threshold runs are long.

    Each probe runs on one kernel from the stop iterate p_T of the last probe
    that missed the target (all ones before it), the bracket's hi, so every
    later load g is lower. The computed map f_g is monotone in p and in g
    (rounded products, sums and quotients, exact negation, and libm's expm1,
    checked, not proved: ROADMAP item 8), so f_g^T(1) <= p_T <= 1 by induction
    and f_g^{t+T}(1) <= f_g^t(p_T) <= f_g^t(1): a warm run is never behind
    de_coupled_run's cold one, and it reaches the same limit.

    workers counts the processes of the search, the caller's included, and
    defaults (None) to 2: by default a probe that outlasts its first block
    is handed to a forked child while the caller runs the probes that follow
    if it converges (see _SearchAhead). Every child is reaped before the call
    returns or raises. _search_processes clamps workers; the CLI passes its
    share of CSA_THREADS. Every probe's input is fixed by the verdicts before
    it, so the result never depends on workers.
    """
    topo = build_topology(l, d)
    if topo.d == 2:
        _search_tol(2, bisect_tol)
        g_c = 0.5 / math.cos(math.pi / (topo.l + 2))
        return ThresholdResult(g_c, g_c, g_c, 0)
    kernel = _CoupledKernel(topo)
    search = _Bisection(0.0, 1.2, _search_tol(d, bisect_tol), np.ones(kernel.p.shape[1]))
    lo, hi, evals = _SearchAhead(kernel, cfg, search, _search_processes(workers)).run()
    return ThresholdResult(0.5 * (lo + hi), lo, hi, evals)


def _search_processes(workers: int | None) -> int:
    """The processes a coupled search runs on: workers (None: 2), clamped by
    core.pool_size, and 1 without os.fork or while another Python thread
    runs, which a fork would not copy (a lock it held would stay held in the
    child)."""
    n = pool_size(2 if workers is None else workers, 2)
    return n if hasattr(os, "fork") and threading.active_count() == 1 else 1


class _Handed(Exception):
    """Raised through _run from the caller's advance: the probe is no longer the caller's."""


class _SearchAhead:
    """A warm-start search on the caller and at most one forked child, with
    the probes and verdicts of the search run alone.

    A probe that converges leaves p0 alone, so the probes that follow it,
    its branch, are known with their inputs before its verdict. At the
    second block of the search's next probe g, the caller forks a child,
    which runs the rest of g (the stop rule's screen is exact for any
    witnesses), sends (g, converged, p_T) and exits; the caller runs g's
    branch as a search of its own, reading the pipe before each block. A
    "yes" makes the branch the search, whose probe then gets a child in the
    same way; a "no" drops the branch. An end of file before the record, or
    a failed fork, leaves the caller alone. A child runs only the kernel's
    ufuncs, never BLAS, whose threads a fork does not copy, and ends in
    os._exit.
    """

    def __init__(self, kernel: _CoupledKernel, cfg: BlockDeConfig, search: _Bisection, workers: int):
        self.kernel, self.cfg, self.search, self.workers = kernel, cfg, search, workers
        self.mine = self.running = search  # the search the caller runs (a branch beside a child), its probe's
        self.size = 8 * (kernel.p.shape[1] + 2)  # the record: g, converged, p_T, as float64
        self.child, self.blocks = None, 0  # (pid, read end); the blocks of the running probe

    def run(self) -> tuple[float, float, int]:
        try:
            while self.search.load is not None:
                if self.mine.load is None:  # the branch is done: wait for the child's verdict
                    self._receive(block=True)
                    continue
                try:
                    self.kernel.start(self.mine.load, self.mine.p0)
                    self.running, self.blocks = self.mine, 0
                    self.mine.record(*self._verdict(_run(self._advance, self.cfg, False)))
                except _Handed:  # the probe went to a child, or a "no" or a dead child dropped it
                    pass
            return self.search.lo, self.search.hi, self.search.evals
        finally:
            self._drop_child()

    def _verdict(self, res: DeResult) -> tuple[bool, np.ndarray]:
        # the stop iterate: _run's blocks start at multiples of _BLOCK
        return res.converged, self.kernel.p[(res.iterations - 1) % _BLOCK + 1].copy()

    def _advance(self, n: int):
        if self.child and self._receive(block=False) and self.running is not self.search:
            raise _Handed
        if self.blocks and not self.child and self.workers > 1 and (branch := self.search.branch()):
            self._fork(branch)
        self.blocks += 1
        return self.kernel.advance(n)

    def _fork(self, branch: _Bisection) -> None:
        """Hand the search's next probe to a child and turn to its branch."""
        r, w = os.pipe()
        try:
            pid = os.fork()
        except OSError:  # no process to spare: search alone
            os.close(r), os.close(w)
            self.workers = 1
            return
        if pid == 0:  # the child: the rest of the probe, under the cap it has left
            try:
                cfg = BlockDeConfig(self.cfg.max_iters - self.blocks * _BLOCK)
                converged, p_T = self._verdict(_run(self.kernel.advance, cfg, False))
                view = memoryview(np.concatenate(([self.search.load, converged], p_T)).tobytes())
                while view:
                    view = view[os.write(w, view) :]
            finally:
                os._exit(0)
        os.close(w)
        self.child, self.mine = (pid, open(r, "rb")), branch
        raise _Handed

    def _receive(self, block: bool) -> bool:
        """Take the child's record into the search; False while none is ready."""
        import select  # here, as signal below

        if not (block or select.select([self.child[1]], [], [], 0)[0]):
            return False
        data = self.child[1].read(self.size)  # short at an end of file
        self._drop_child()
        if len(data) < self.size:  # the child died: search alone
            self.workers, self.mine = 1, self.search
        elif (record := np.frombuffer(data))[1]:  # "yes": the branch is the search
            self.search = self.mine
        else:  # "no": the branch is dropped
            self.search.record(False, record[2:].copy())
            self.mine = self.search
        return True

    def _drop_child(self) -> None:
        if self.child:
            import signal  # here: its import costs the package's load ~1 ms, and a search may fork nothing

            (pid, pipe), self.child = self.child, None
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def termination_adjusted_load(g: float, l: int, d: int) -> float:
    """Offered traffic recomputed against all m_f = l+d-1 frames, counting the
    termination frames that admit no new arrivals. The arrival-rate definition
    g is the reporting convention everywhere else; this accessor only makes
    the (small, O(d/l)) termination rate loss visible."""
    topo = build_topology(l, d)
    return g * topo.l / topo.m_f


def _area(u: float, d: int) -> float:
    """G at q = 1 - e^{-u}. Below u = 0.5 it is summed from its series,
    d G = sum_{k>=2} (-u)^k (1 - (d-1)(k-1)) / k!, because the closed form
    cancels there to O(u^3) at d=2."""
    if u < 0.5:
        term, total = -u, 0.0
        for k in range(2, 18):
            term *= -u / k  # (-u)^k / k!
            total += term * (1 - (d - 1) * (k - 1))
        return total / d
    q = -math.expm1(-u)
    return q * u / d + math.exp(-u) * u - q


def map_load_bound(params: SchemeParams) -> float:
    """The bound in offered traffic, alpha * epsilon-bar = u/(d q^{d-1}) at q-bar.

    The balance reads G(q-bar) = G(q_1) - (alpha - 1), searched above the
    curve's jump u_jump (_jump_u, 0 for d <= 2), the point whose load is also
    the block threshold (block_threshold_grid). Raises AreaSolutionError if
    the area above the jump falls short of R0.
    """
    d, alpha = params.d, params.alpha
    top = d * alpha  # u at q = 1 on the epsilon = 1 fixed-point map
    u_jump = _jump_u(d, top)
    # below u_1 the epsilon = 1 map u -> d alpha q^{d-1} lies above u
    _, u_1, _ = bisect_load(lambda u: u < top * (-math.expm1(-u)) ** (d - 1), u_jump, top, _U_TOL)
    # G(q_1) - (alpha - 1) written without the cancellation of its two large terms
    e_1 = math.exp(-u_1)
    rhs = alpha * math.expm1(d * math.log1p(-e_1)) + e_1 * (u_1 + 1.0)
    spare = rhs - _area(u_jump, d)
    if spare < 0.0:
        r0 = params.nominal_rate
        raise AreaSolutionError(
            f"area under the extrinsic curve ({r0 + spare / alpha:.9f}) is below the nominal rate {r0:.9f}"
        )
    lo, hi, _ = bisect_load(lambda u: _area(u, d) < rhs, u_jump, u_1, _U_TOL)
    u = 0.5 * (lo + hi)
    return u / (d * (-math.expm1(-u)) ** (d - 1))
