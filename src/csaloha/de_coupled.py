"""Density evolution over the coupled super-frame: per-position erasure
probabilities driven by the terminated chain structure, and the resulting
threshold in offered traffic.
"""

from __future__ import annotations

import numpy as np

from .core import CoupledTopology, DeResult, ThresholdResult, build_topology
from .de_block import _DEFAULT_CFG, BlockDeConfig, _run, threshold


class _CoupledKernel:
    """The coupled update at one load g, with its constants, scratch buffers
    and array views set up once, so that a step allocates nothing.

    Type i's k-th frame is i+k (mod m_f), so over all types the k-th frames
    form the slice p[k:k+l]. On a circulant chain p is stored extended by its
    first d-1 entries, so the same slices apply, and the messages that wrap
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
        self.q = np.empty(m_f)  # per-position average of the incoming messages
        q_sum = np.empty(l + d - 1)
        self._q_sum, self._q_head = q_sum[:m_f], q_sum[: d - 1]
        self._sums = [q_sum[k : k + l] for k in range(d)]
        self._folds = [(q_sum[:k], self.msgs[k, l - k :]) for k in range(d - 1, 0, -1)] if self.wrap else []
        # two p buffers in turn: (p, its d windows, extension tail, head it
        # repeats); the tail is empty on a terminated chain
        n_ext = l + d - 1 - m_f
        bufs = (np.empty(l + d - 1), np.empty(l + d - 1))
        self._bufs = [(b[:m_f], [b[k : k + l] for k in range(d)], b[m_f:], b[:n_ext]) for b in bufs]
        self._cur = 0
        p, _, tail, head = self._bufs[0]
        np.copyto(p, p0)
        np.copyto(tail, head)
        self.p = self.prev = p

    def advance(self) -> None:
        """One parallel (flooding) update: self.prev becomes the old p, self.p
        the new one, and self.q the new per-position message average."""
        d, m = self.d, self.msgs
        self.prev, w, _, _ = self._bufs[self._cur]
        self._cur ^= 1
        p, _, tail, head = self._bufs[self._cur]
        if d > 1:
            # extrinsic products: prefix products left to right, m[k] = w[0]*...*w[k-1] ...
            np.copyto(m[1], w[0])
            for k in range(2, d):
                np.multiply(m[k - 1], w[k - 1], out=m[k])
            # ... times suffix products right to left, m[k] *= w[d-1]*...*w[k+1];
            # the running suffix product is kept in m[0] and ends as its message
            right = w[d - 1]
            for k in range(d - 2, 0, -1):
                m[k] *= right
                np.multiply(right, w[k], out=m[0])
                right = m[0]
            if d == 2:
                np.copyto(m[0], right)
        # each frame adds its types in increasing order, i.e. by decreasing k
        self._q_head.fill(0.0)
        np.copyto(self._sums[d - 1], m[d - 1])
        for k in range(d - 2, -1, -1):
            self._sums[k] += m[k]
        for fold_head, fold_tail in self._folds:
            fold_head += fold_tail
        np.divide(self._q_sum, self.delta, out=self.q)
        np.multiply(self.neg_g_delta, self.q, out=p)
        np.expm1(p, out=p)
        np.negative(p, out=p)
        if self.wrap:
            np.copyto(tail, head)
        self.p = p


def _steps(kernel: _CoupledKernel, record_trace: bool):
    """The kernel's iterates as de_block._run's steps; q and p are copies
    only when traced."""
    diff = np.empty(kernel.p.size)
    while True:
        kernel.advance()
        q, p = (kernel.q.copy(), kernel.p.copy()) if record_trace else (kernel.q, kernel.p)
        np.subtract(kernel.prev, kernel.p, out=diff)
        yield q, p, float(kernel.p.max()), float(np.abs(diff, out=diff).max())


def de_coupled_run(
    topo: CoupledTopology,
    g: float,
    cfg: BlockDeConfig = _DEFAULT_CFG,
    record_trace: bool = False,
) -> DeResult:
    """Iterate from the all-ones profile under de_block_run's stop rule, on
    the worst position's erasure probability, which is final_p."""
    if g < 0.0:
        raise ValueError(f"offered traffic must be >= 0, got {g}")
    return _run(_steps(_CoupledKernel(topo, g), record_trace), cfg, record_trace)


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
