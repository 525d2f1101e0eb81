"""Upper bound on the genie-aided MAP decoding threshold, by the area balance
(Maxwell construction): the largest epsilon-bar with  integral of the
extrinsic erasure curve p_e over [epsilon-bar, 1] = nominal rate R0.

Along its smooth branch the curve is p_e = q^d at epsilon = u / (d alpha
q^{d-1}), with u = -ln(1-q), so the integral has a closed form: it equals
(G(q_1) - G(q-bar)) / alpha with G(q) = q u/d + (1-q) u - q, where q_1 is the
top fixed point at epsilon = 1. Everything is solved in u, which is
one-to-one with q and stays finite where q_1 rounds to 1 (q_1 = 1 - e^{-300}
at d=3, alpha=100).
"""

from __future__ import annotations

import math

from .core import SchemeParams
from .de_block import _U_TOL, _jump_u, bisect_load


class AreaSolutionError(ArithmeticError):
    """The area under the extrinsic curve is smaller than the nominal rate."""


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
