"""Density evolution over the coupled super-frame: per-position erasure
probabilities driven by the terminated chain structure, and the resulting
threshold in offered traffic.
"""

from __future__ import annotations

import math

import numpy as np

from .core import CoupledTopology, DeResult, ThresholdResult, build_topology
from .de_block import _BLOCK, _DEFAULT_CFG, BlockDeConfig, _run, threshold


class _CoupledKernel:
    """The coupled update at one load g, with its constants, scratch buffers
    and array views set up once, so that a step allocates nothing.

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
    """

    def __init__(self, topo: CoupledTopology, g: float, p0: np.ndarray | float = 1.0):
        l, d, m_f = topo.l, topo.d, topo.m_f
        self.d, self.wrap = d, topo.wrap
        self.delta = np.array(topo.delta, dtype=np.float64)
        self.neg_g_delta = -g * self.delta
        self.msgs = np.ones((d, l))  # msgs[k, i]: message of type i+1 toward its k-th frame
        q_sum = np.empty(l + d - 1)
        self._q_sum, self._q_head = q_sum[:m_f], q_sum[: d - 1]
        self._sums = [q_sum[k : k + l] for k in range(d)]
        self._folds = [(q_sum[:k], self.msgs[k, l - k :]) for k in range(d - 1, 0, -1)] if self.wrap else []
        # per row: p, its d windows, and the extension tail with the head it
        # repeats (both empty on a terminated chain)
        hist = np.empty((_BLOCK + 1, l + d - 1))
        self.q = np.empty((_BLOCK, m_f))  # q[t-1]: per-position average of step t's incoming messages
        self.p = hist[:, :m_f]
        self._rows = [(r[:m_f], [r[k : k + l] for k in range(d)], r[m_f:], r[: l + d - 1 - m_f]) for r in hist]
        self._hist, self._last = hist, 0
        np.copyto(self.p[0], p0)
        np.copyto(self._rows[0][2], self._rows[0][3])

    def advance(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """n <= _BLOCK parallel (flooding) updates; returns their n rows of q
        and n+1 rows of p, row 0 being the iterate before them."""
        if self._last:
            self._hist[0] = self._hist[self._last]
        self._last = n
        d, m, wrap, rows, q_rows = self.d, list(self.msgs), self.wrap, self._rows, self.q
        q_sum, q_head, sums, folds = self._q_sum, self._q_head, self._sums, self._folds
        delta, neg_g_delta = self.delta, self.neg_g_delta
        mul, add, div, copyto, expm1, neg = np.multiply, np.add, np.divide, np.copyto, np.expm1, np.negative
        for t in range(1, n + 1):
            w, (p, _, tail, head), q = rows[t - 1][1], rows[t], q_rows[t - 1]
            if d > 2:
                # extrinsic products: prefix products left to right, m[k] = w[0]*...*w[k-1] ...
                mul(w[0], w[1], m[2])
                for k in range(3, d):
                    mul(m[k - 1], w[k - 1], m[k])
                # ... times suffix products right to left, m[k] *= w[d-1]*...*w[k+1];
                # the running suffix product is kept in m[0] and ends as its message
                right = w[d - 1]
                for k in range(d - 2, 1, -1):
                    mul(m[k], right, m[k])
                    mul(right, w[k], m[0])
                    right = m[0]
                mul(w[0], right, m[1])
                mul(right, w[1], m[0])
            elif d == 2:
                copyto(m[1], w[0])
                copyto(m[0], w[1])
            # each frame adds its types in increasing order, i.e. by decreasing k
            q_head.fill(0.0)
            copyto(sums[d - 1], m[d - 1])
            for k in range(d - 2, -1, -1):
                add(sums[k], m[k], sums[k])
            for fold_head, fold_tail in folds:
                add(fold_head, fold_tail, fold_head)
            div(q_sum, delta, q)
            mul(neg_g_delta, q, p)
            expm1(p, p)
            neg(p, p)
            if wrap:
                copyto(tail, head)
        return q_rows[:n], self.p[: n + 1]


def de_coupled_run(
    topo: CoupledTopology,
    g: float,
    cfg: BlockDeConfig = _DEFAULT_CFG,
    record_trace: bool = False,
) -> DeResult:
    """Iterate from the all-ones profile under de_block_run's stop rule, on
    the worst position's erasure probability, which is final_p."""
    if not 0.0 <= g < math.inf:
        raise ValueError(f"offered traffic must be finite and >= 0, got {g}")
    return _run(_CoupledKernel(topo, g).advance, cfg, record_trace)


def coupled_threshold(
    d: int,
    l: int = 200,
    cfg: BlockDeConfig = _DEFAULT_CFG,
    bisect_tol: float = 1e-4,
) -> ThresholdResult:
    """Threshold search with coupled-DE convergence on the l-chain as the predicate.

    The default bisect_tol is looser than the block one because each coupled
    run costs m_f positions per iteration and near-threshold runs are long.
    """
    topo = build_topology(l, d)
    return threshold(d, lambda g: de_coupled_run(topo, g, cfg).converged, bisect_tol)


def termination_adjusted_load(g: float, l: int, d: int) -> float:
    """Offered traffic recomputed against all m_f = l+d-1 frames, counting the
    termination frames that admit no new arrivals. The arrival-rate definition
    g is the reporting convention everywhere else; this accessor only makes
    the (small, O(d/l)) termination rate loss visible."""
    return g * l / (l + d - 1)
