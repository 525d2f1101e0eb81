"""Independent reference implementations and frozen constants used by the tests.

Everything here is deliberately decoupled from the package under test: the
threshold/bound constants come from closed-form expressions evaluated in
mpmath, the MAP bound is also computed by quadrature of the extrinsic curve,
the decoder oracles enumerate all 2^n candidate vectors or run a dense
Gauss-Jordan elimination over the whole system, the reference peeler is a
plain set-based loop, and the coupled DE step is a plain loop over the edges
that the access rule defines.
"""

import math

import numpy as np

# Unique positive root of G - 1 + e^{-G d} (mpmath, 60 digits).
G_STAR = {
    2: 0.79681213002002005,
    3: 0.94047979070735963,
    4: 0.98017259871822159,
    5: 0.99302284634885526,
    6: 0.99748353773376574,
    7: 0.99908224096116498,
    8: 0.99966363344918863,
}

# Iterative threshold min_q -ln(1-q)/(d q^{d-1}); the minimizer solves
# q/(1-q) + (d-1) ln(1-q) = 0 (d=2 degenerates to the q->0 limit, 1/2).
BLOCK_IT = {
    2: 0.5,
    3: 0.81846916076137598,
    4: 0.77227983980250844,
    5: 0.70178026648456897,
    6: 0.63708112727415375,
    7: 0.58177517699960164,
    8: 0.53499728629421206,
}

# Area-balance bound in closed form: with A(q) the antiderivative of the
# extrinsic curve along its smooth branch, the balance reduces to
# A(qbar) = (d-1)/(d alpha), whose solution is alpha-free:
# qbar solves -q - ln(1-q) + (d-1)(1-q)(1-ln(1-q)) = d-1, and the bound is
# -ln(1-qbar)/(d qbar^{d-1}).  (d=2: qbar -> 0, bound 1/2.)
MAP_BOUND = {
    2: 0.5,
    3: 0.91793527665808601,
    4: 0.97677016487804613,
    5: 0.99243839126210063,
    6: 0.99737955277867235,
    7: 0.99906375875368026,
    8: 0.99966039874286382,
}


def regenerate_constants(d):
    """Recompute (G*, block IT, MAP bound) for one degree with mpmath."""
    import mpmath as mp

    mp.mp.dps = 60

    def bisect(f, lo, hi, iters=300):
        flo = f(lo)
        for _ in range(iters):
            mid = (lo + hi) / 2
            fm = f(mid)
            if mp.sign(fm) == mp.sign(flo):
                lo, flo = mid, fm
            else:
                hi = mid
        return (lo + hi) / 2

    g_star = float(mp.findroot(lambda G: G - 1 + mp.e ** (-G * d), mp.mpf("0.9")))
    if d == 2:
        return g_star, 0.5, 0.5
    h = lambda q: q / (1 - q) + (d - 1) * mp.log(1 - q)
    qj = bisect(h, mp.mpf("1e-8"), 1 - mp.mpf("1e-12"))
    block_it = float(-mp.log(1 - qj) / (d * qj ** (d - 1)))
    B = lambda q: -q - mp.log(1 - q) + (d - 1) * (1 - q) * (1 - mp.log(1 - q)) - (d - 1)
    qb = bisect(B, qj, 1 - mp.mpf("1e-40"))
    map_bound = float(-mp.log(1 - qb) / (d * qb ** (d - 1)))
    return g_star, block_it, map_bound


def G_pot(d):
    """The potential threshold of the block recursion x -> 1 - exp(-G d x^{d-1})
    (Yedla-Jian-Nguyen-Pfister, scalar admissible system), in mpmath: the load
    G at which U(x; G) = x^d - x^d/d - F(x^{d-1}; G), with
    F(y; G) = y - (1 - e^{-G d y})/(G d), has a zero minimum over (0, 1].

    The minimum sits at the nontrivial fixed point. Along the fixed points,
    x = 1 - e^{-u} at G = u/(d x^{d-1}); u stays well conditioned where x
    rounds towards 1 (x > 0.999 for d >= 7). On [0.5, 2d] U changes sign
    once along them, from positive at small u to negative. d >= 3.
    """
    import mpmath as mp

    mp.mp.dps = 50

    def U(x, G):
        y = x ** (d - 1)
        return x**d - x**d / d - (y - (1 - mp.exp(-G * d * y)) / (G * d))

    def on_fixed_points(u):
        x = -mp.expm1(-u)
        return U(x, u / (d * x ** (d - 1)))

    u = mp.findroot(on_fixed_points, (mp.mpf("0.5"), mp.mpf(2 * d)), solver="anderson")
    return float(u / (d * (-mp.expm1(-u)) ** (d - 1)))


def extrinsic_p(d, alpha, eps):
    """Extrinsic erasure curve p_e(eps) = lim q^d under
    q <- 1 - exp(-d alpha eps q^{d-1}) from q = 1."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"epsilon must lie in [0,1], got {eps}")
    q = 1.0
    for _ in range(100_000):
        q_next = -math.expm1(-d * alpha * eps * q ** (d - 1))
        done = abs(q - q_next) < 1e-13
        q = q_next
        if done:
            break
    return q**d


def locate_it_epsilon(d, alpha, tol=1e-8):
    """Jump of the extrinsic curve, by bisection on p_e > 1e-9."""
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if extrinsic_p(d, alpha, mid) > 1e-9 else (mid, hi)
    return hi


def adaptive_simpson(f, a, b, tol, max_depth=48):
    """Adaptive composite Simpson with Richardson correction, absolute tolerance."""
    if b <= a:
        return 0.0

    def panel(fa, fm, fb, width):
        return width / 6.0 * (fa + 4.0 * fm + fb)

    def refine(a, b, fa, fm, fb, whole, tol, depth):
        m = 0.5 * (a + b)
        flm, frm = f(0.5 * (a + m)), f(0.5 * (m + b))
        left, right = panel(fa, flm, fm, m - a), panel(fm, frm, fb, b - m)
        if depth >= max_depth or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return refine(a, m, fa, flm, fm, left, 0.5 * tol, depth + 1) + refine(
            m, b, fm, frm, fb, right, 0.5 * tol, depth + 1
        )

    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    return refine(a, b, fa, fm, fb, panel(fa, fm, fb, b - a), tol, 0)


def quadrature_map_bound(d, alpha, quad_tol=1e-7):
    """The area balance by quadrature, in offered traffic: bisect on eps-bar
    over nested adaptive Simpson integrals of the extrinsic curve until
    integral of p_e over [eps-bar, 1] = R0. Accurate to ~1e-7 where the area
    above the jump exceeds R0 by far more than quad_tol; a spare area below
    1e-5 is read as zero (bound at the jump)."""
    r0 = 1.0 - 1.0 / alpha
    cache = {}

    def pe(eps):
        if eps not in cache:
            cache[eps] = extrinsic_p(d, alpha, eps)
        return cache[eps]

    eps_it = locate_it_epsilon(d, alpha)
    spare = adaptive_simpson(pe, eps_it, 1.0, quad_tol) - r0
    if spare < -1e-5:
        raise ArithmeticError("area under the extrinsic curve is below the nominal rate")
    if spare <= 1e-5:
        return alpha * eps_it
    inner_tol = min(quad_tol, max(1e-3 * spare, 1e-12))
    lo, hi = eps_it, 1.0
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if adaptive_simpson(pe, eps_it, mid, inner_tol) < spare else (lo, mid)
    return alpha * 0.5 * (lo + hi)


def enumerate_recoverable(frame, u_true, max_n=16):
    """Exhaustive decoder reference: burst j is recoverable iff its value is
    identical across every u with u Q^T = y, enumerating all 2^n candidates."""
    n = frame.n_active
    if n > max_n:
        raise ValueError(f"enumeration oracle limited to n <= {max_n}")
    q = np.zeros((frame.n_slots, n), dtype=np.int8)
    for j, row in enumerate(frame.slots):
        q[row, j] = 1
    u_true = np.asarray(u_true, dtype=np.int8)
    y = q @ u_true % 2
    candidates = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    sols = candidates[np.all(candidates @ q.T % 2 == y, axis=1)]
    return frozenset(j for j in range(n) if sols[:, j].min() == sols[:, j].max())


def dense_gje_decode(frame):
    """Dense exact decoder: reduce the whole slot-by-burst GF(2) incidence
    matrix to reduced row-echelon form (bit-packed, word-parallel row XORs).
    A burst is recovered iff its pivot row has no other one in a free column.
    Returns (recovered, rank)."""
    n, m = frame.n_active, frame.n_slots
    if n == 0:
        return frozenset(), 0
    words = (n + 63) // 64
    mat = np.zeros((m, words), dtype=np.uint64)
    cols = np.repeat(np.arange(n, dtype=np.int64), frame.d)
    bits = np.left_shift(np.uint64(1), (cols & 63).astype(np.uint64))
    np.bitwise_or.at(mat, (frame.slots.ravel(), cols >> 6), bits)

    pivot_row_of_col: dict[int, int] = {}
    r = 0
    for c in range(n):
        w, b = c >> 6, np.uint64(1) << np.uint64(c & 63)
        nz = np.nonzero(mat[r:, w] & b)[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            mat[[r, pr]] = mat[[pr, r]]
        sel = np.nonzero(mat[:, w] & b)[0]
        sel = sel[sel != r]
        if sel.size:
            mat[sel] ^= mat[r]
        pivot_row_of_col[c] = r
        r += 1
    rank = r

    free_mask = np.zeros(words, dtype=np.uint64)
    free_cols = np.setdiff1d(np.arange(n), np.fromiter(pivot_row_of_col, dtype=np.int64, count=rank))
    if free_cols.size:
        np.bitwise_or.at(
            free_mask,
            free_cols >> 6,
            np.left_shift(np.uint64(1), (free_cols & 63).astype(np.uint64)),
        )
    recovered = frozenset(
        c for c, pr in pivot_row_of_col.items() if not (mat[pr] & free_mask).any()
    )
    return recovered, rank


def naive_peel(frame):
    """Reference peeler: plain sets, one burst at a time, no bookkeeping tricks."""
    residents = {s: set() for s in range(frame.n_slots)}
    for j, row in enumerate(frame.slots):
        for s in row:
            residents[int(s)].add(j)
    recovered = set()
    while True:
        singles = [s for s, r in residents.items() if len(r) == 1]
        if not singles:
            return frozenset(recovered)
        for s in singles:
            if len(residents[s]) != 1:
                continue
            (j,) = residents[s]
            recovered.add(j)
            for t in frame.slots[j]:
                residents[int(t)].discard(j)


def access_frames(i, l, d, wrap=False):
    """The access rule: a type-i user transmits in its own frame and each of
    the following d-1, with frame numbers taken mod l (frames 1..l) when the
    chain wraps."""
    return [(j - 1) % l + 1 if wrap else j for j in range(i, i + d)]


def brute_force_occupancy(l, d, wrap=False):
    """Which user types transmit in each frame, straight from the access rule."""
    frames = {}
    for i in range(1, l + 1):
        for j in access_frames(i, l, d, wrap):
            frames.setdefault(j, []).append(i)
    return frames


def coupled_de_step_reference(p, l, d, g, wrap=False):
    """One coupled DE update, edge by edge, over the edges of the access rule:
    the message of type i toward frame j is the product of p over i's other
    frames, q_j averages the messages arriving at frame j, and
    p_j' = 1 - exp(-g delta_j q_j). Returns (q, p') as lists over the frames."""
    occupancy = brute_force_occupancy(l, d, wrap)
    q, p_new = [], []
    for j in range(1, len(occupancy) + 1):
        types = occupancy[j]
        total = 0.0
        for i in types:
            msg = 1.0
            for f in access_frames(i, l, d, wrap):
                if f != j:
                    msg *= p[f - 1]
            total += msg
        q.append(total / len(types))
        p_new.append(1.0 - math.exp(-g * len(types) * q[-1]))
    return q, p_new
