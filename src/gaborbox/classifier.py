"""Closed-form frame classification.

Fourteen parameter regions cover all positive (a, b, c) with the window
[0, c).  Ten of them have one-line answers; the two generic dynamical
regions reduce to finite certificate searches (an obstruction tuple
(d1, d2) when the lattice ratio is irrational, three gcd/divisibility
cases when it is rational and c sits on the grid); and off-grid c with a
rational ratio resolves by rounding c to its two grid neighbours.
"""

from __future__ import annotations

from math import gcd, isqrt
from typing import List, NamedTuple, Optional, Tuple

from .errors import RegionUnsupported
from .exactnum import ExactReal, NumberContext, _floor_pair, _sign
from .lattice import (
    NormalizedTriple,
    Pair,
    RegionTag,
    grid_value,
    normalize,
)


class GcdCondition(NamedTuple):
    """Witness for the divisor-flavoured boundary regions (cases 1-5 and
    the X/XI edge rules); values pairs each symbol name with its number, an
    int or an ExactReal threshold."""

    case_id: str
    values: Tuple[Tuple[str, object], ...]


class IrrationalParams(NamedTuple):
    """Witness tuple for the irrational-ratio obstruction."""

    d1: int
    d2: int
    m: int
    e_count: int


class RationalParams(NamedTuple):
    """Witness for the on-grid rational obstruction (case 6, 7 or 8)."""

    case_id: int
    d1: Optional[int] = None
    d2: Optional[int] = None
    d3: Optional[int] = None
    d4: Optional[int] = None
    N: Optional[int] = None
    delta: Optional[ExactReal] = None
    e_count: Optional[int] = None


class RecursionPair(NamedTuple):
    low: "FrameDecision"
    high: "FrameDecision"


class FrameDecision(NamedTuple):
    verdict: str  # "Frame" | "NotFrame"
    region: RegionTag
    witness: object = None

    @property
    def is_frame(self) -> bool:
        return self.verdict == "Frame"


def _frame(region: RegionTag) -> FrameDecision:
    return FrameDecision("Frame", region)


def _not_frame(region: RegionTag, witness: object = None) -> FrameDecision:
    return FrameDecision("NotFrame", region, witness)


def classify(a: ExactReal, b: ExactReal, c: ExactReal) -> FrameDecision:
    return classify_triple(normalize(a, b, c))


def classify_triple(nt: NormalizedTriple) -> FrameDecision:
    decide = _DECIDE.get(nt.region)
    return decide(nt) if decide is not None else classify_with_S_existence(nt)[0]


def _fixed(verdict: str, region: RegionTag):
    """The decision of a region whose verdict needs no further look at the triple."""
    decision = FrameDecision(verdict, region)
    return lambda nt: decision


# ---------------------------------------------------------------------------
# boundary regions with divisor rules
# ---------------------------------------------------------------------------


def _c0_against(nt: NormalizedTriple, n: int) -> int:
    """The sign of c0 - n*b/q, for a rational triple: the exact sign of
    q*C0 - n*B on the integer pairs of its form."""
    q = nt.rational[1]
    ctx, _, _, (b0, b1), _, (y0, y1), _ = nt.form
    return _sign(ctx, q * y0 - n * b0, 1, q * y1 - n * b1, 1)


def _grid_point(nt: NormalizedTriple, n: int) -> ExactReal:
    """n grid steps, n*b/q, for a witness."""
    return grid_value(nt.b, n, nt.rational[1])


def _region_vi(nt: NormalizedTriple) -> FrameDecision:
    # c0 >= a and c0 > b-a: obstruction only on rational ratios
    if not nt.is_rational:
        return _frame(RegionTag.VI)
    p, q = nt.rational
    f = nt.floor_cb
    g = gcd(f + 1, p)
    # threshold b - g*b/q (case 1), one grid step higher when g = f+1 (case 2)
    case, n = ("1", q - g) if g != f + 1 else ("2", q - g + 1)
    if _c0_against(nt, n) > 0:
        return _not_frame(RegionTag.VI, GcdCondition(
            case, (("gcd(f+1,p)", g), ("threshold", _grid_point(nt, n)))))
    return _frame(RegionTag.VI)


def _region_vii(nt: NormalizedTriple) -> FrameDecision:
    # c0 <= b-a and c0 < a
    if nt.form.C0 == (0, 0):
        return _not_frame(RegionTag.VII, GcdCondition("3", (("c0", 0),)))
    if not nt.is_rational:
        return _frame(RegionTag.VII)
    p, _ = nt.rational
    f = nt.floor_cb
    g = gcd(f, p)
    # threshold g*b/q (case 4), one grid step lower when g = f (case 5)
    case, n = ("4", g) if g != f else ("5", g - 1)
    if _c0_against(nt, n) < 0:
        return _not_frame(RegionTag.VII, GcdCondition(
            case, (("gcd(f,p)", g), ("threshold", _grid_point(nt, n)))))
    return _frame(RegionTag.VII)


def _region_x(nt: NormalizedTriple) -> FrameDecision:
    # the walk tags X only where c1 = f*b - k*a is 2a - b, that is where
    # (f+1)*b = (k+2)*a: the ratio is rational
    p, q = nt.rational
    f = nt.floor_cb
    n = q - p + 1  # b - a + b/q
    if f + 1 == p and _c0_against(nt, n) <= 0:
        return _frame(RegionTag.X)
    return _not_frame(RegionTag.X, GcdCondition(
        "X", (("p", p), ("f+1", f + 1), ("threshold", _grid_point(nt, n)))))


def _region_xi(nt: NormalizedTriple) -> FrameDecision:
    # the walk tags XI only where c1 = f*b - k*a is 0, that is where
    # f*b = k*a with f >= 1: the ratio is rational
    p, _ = nt.rational
    f = nt.floor_cb
    n = p - 1  # a - b/q
    if f == p and _c0_against(nt, n) >= 0:
        return _frame(RegionTag.XI)
    return _not_frame(RegionTag.XI, GcdCondition(
        "XI", (("p", p), ("f", f), ("threshold", _grid_point(nt, n)))))


# ---------------------------------------------------------------------------
# irrational ratio, generic region
# ---------------------------------------------------------------------------


def _search_obstruction_irrational(
        nt: NormalizedTriple) -> Tuple[Optional[IrrationalParams], bool]:
    """The NotFrame witness, if any, and whether an obstruction tuple
    (d1, d2) passes the membership, window and count conditions at all (a
    nonempty invariant set).

    a and b are independent over Q exactly when a/b is irrational, so every
    value of the field has rational coordinates in the basis (a, b).  There
    c1 = f*b - k*a (k = floor(f*b/a)) and c0 = u*a + v*b, and the membership
    condition s*c1 - c0 + (d1+1)(b-a) = m*a reads, coefficient by
    coefficient,

        b:  d1 + 1 = v - f*s
        a:  m = (f - k)*s - u - v

    Both slopes are integers, so m and d1 are integral for every s or for
    none: exactly when c0 lies in aZ + bZ.  1 <= d1+1 <= s then cuts s to
    v/(f+1) <= s <= (v-1)/f.  Less f*b, with d2 = s - 1 - d1, the window
    conditions c > f*b + (d1+1)*(b-a) and (f+1)*b - (d2+1)*(b-a) > c read

        W = c0 - (d1+1)*(b-a) = (u+v)*a + f*s*(b-a) > 0,
        M - W = b - (d2+1)*(b-a) - c0 = (1-u-v)*a - (f+1)*s*(b-a) > 0,

    with M = a - s*(b-a) (as a = b - (b-a)).  The first rises and the
    second falls with s, so each is one floor cutting s further, and only
    the s left pay the count: `_window_count` of the step c1 - m*(b-a)
    modulo M below W, the one `_xiii_candidates` takes.  Its precondition
    0 <= W <= M holds there, and so does s*(b-a) < a.  Every value is an
    integer pair of the triple's form (`NormalizedTriple.form`, in units
    1/L, as a/b is irrational): (u, v) and k are Cramer's rule in integers,
    exact for k as `normalize` built C1 = f*B - k*A, and each bound a
    `_floor_pair`.

    A tuple is measure-critical, a frame, where its length combination
    c - n*(b-a), n = (d1+1)(f+1) + (d2+1)*f, is a.  With d1 + 1 = v - f*s
    and d2 + 1 = s - d1, n = v + f for every s, so the combination is
    f*b + u*a + v*b - (v+f)(b-a) = (u+v+f)*a: a whole multiple of a, and a
    itself exactly when u + v + f = 1.  Every hit thus gives one verdict,
    and the search ends at the first."""
    if nt.is_rational:
        raise RegionUnsupported("the obstruction solve needs an irrational a/b")
    f = nt.floor_cb
    if f < 1:
        raise RegionUnsupported("the obstruction search needs c >= b")
    ctx, _, (a0, a1), (b0, b1), _, (y0, y1), (z0, z1) = nt.form
    det = a0 * b1 - a1 * b0
    # c1 = -k*a + f*b and c0 = u*a + v*b, each coordinate a quotient by det
    k = (b0 * z1 - b1 * z0) // det
    u, r0 = divmod(y0 * b1 - y1 * b0, det)
    v, r1 = divmod(a0 * y1 - a1 * y0, det)
    if r0 or r1:
        return None, False
    m_slope, t = f - k, u + v
    ba0, ba1 = b0 - a0, b1 - a1
    # W > 0 is s > -t*a/(f*(b-a)), and M - W > 0 is s < (1-t)*a/((f+1)*(b-a)),
    # that is s <= -floor((t-1)*a/((f+1)*(b-a))) - 1
    s_lo = max(1, -(-v // (f + 1)), _floor_pair(ctx, -t * a0, -t * a1, f * ba0, f * ba1) + 1)
    s_hi = min((v - 1) // f,
               -_floor_pair(ctx, (t - 1) * a0, (t - 1) * a1, (f + 1) * ba0, (f + 1) * ba1) - 1)
    for s in range(s_lo, s_hi + 1):
        d1 = v - f * s - 1
        m = m_slope * s - t
        # the k in 1..s with k*(c1 - m*(b-a)) mod (a - s*(b-a)) below the width
        count = _window_count(ctx, s, (z0 - m * ba0, z1 - m * ba1),
                              (a0 - s * ba0, a1 - s * ba1),
                              (y0 - (d1 + 1) * ba0, y1 - (d1 + 1) * ba1))
        if count == d1:
            # measure-critical: the combination (t+f)*a is a
            return (None if t + f == 1 else IrrationalParams(d1, s - 1 - d1, m, count)), True
    return None, False


# ---------------------------------------------------------------------------
# rational ratio with c on the grid
# ---------------------------------------------------------------------------


def _grid_units(nt: NormalizedTriple) -> Tuple[int, int, int, int]:
    """(p, q, gamma1, j0): everything in units of b/q."""
    if not (nt.is_rational and nt.c_on_grid):
        raise RegionUnsupported("the grid certificate needs a/b = p/q and c on the b/q grid")
    p, q = nt.rational
    # on the grid `normalize` has D = 1, so the form's unit is b/q and B = (q, 0)
    _, _, _, _, _, (C0, _), (C1, _) = nt.form
    return p, q, C1, C0


def _divisors_above(n: int, s: int) -> List[int]:
    """The divisors of n greater than s, ascending, from the pairs
    (i, n // i) with i <= sqrt(n)."""
    low, high = [], []
    # past i*s >= n neither i nor n // i exceeds s
    for i in range(1, min(isqrt(n), (n - 1) // s) + 1):
        if not n % i:
            if i > s:
                low.append(i)
            high.append(n // i)
    if low and low[-1] == high[-1]:
        high.pop()  # n = i*i
    return low + high[::-1]


def _floor_sum(ctx: NumberContext, n: int, m: Pair, a: Pair, b: Pair) -> int:
    """sum(floor((a*i + b)/m) for i in range(n)), for n >= 0 and m > 0: m, a
    and b are integer pairs (X0, X1) of one form, X0 + X1*tau over one
    denominator, and each floor is `_floor_pair`'s.  A pass peels off the
    whole parts of a/m and b/m, then swaps the axes by the reciprocity step
    of Concrete Mathematics, section 3.5: for 0 <= a, b < m,

        sum_{i<n} floor((a*i + b)/m) = sum_{j<n'} floor((m*j + r)/a),
        n' = floor((a*n + b)/m),  r = a*n + b - n'*m.

    It holds for reals, as it uses only ceil(x) = -floor(-x): both sides
    count the (i, y) with 0 <= i < n and 1 <= y*m <= a*i + b; no y > n' has
    one, and for y <= n' the i run from ceil((y*m - b)/a) to n - 1, which
    is floor((a*n + b - y*m)/a) of them, or floor((m*j + r)/a) at y = n' - j.

    The loop ends even when a/m is irrational, where Euclid's algorithm on
    the moduli never does.  From the second pass on, a > m on entry (the
    old modulus over the old a reduced), so a pass with n >= 2 adds at
    least 1 to the total, which never passes the whole sum (what is left to
    add is a sum of floors of values >= 0): there are finitely many.  At
    n = 1 the sum is the one floor of b/m."""
    (m0, m1), (a0, a1), (b0, b1) = m, a, b
    total = 0
    while n > 1:
        qa, qb = _floor_pair(ctx, a0, a1, m0, m1), _floor_pair(ctx, b0, b1, m0, m1)
        a0, a1, b0, b1 = a0 - qa * m0, a1 - qa * m1, b0 - qb * m0, b1 - qb * m1
        total += n * (n - 1) // 2 * qa + n * qb
        t0, t1 = a0 * n + b0, a1 * n + b1  # the line at i = n, now with 0 <= a, b < m
        n = _floor_pair(ctx, t0, t1, m0, m1)
        m0, m1, a0, a1, b0, b1 = a0, a1, m0, m1, t0 - n * m0, t1 - n * m1
    return total + _floor_pair(ctx, b0, b1, m0, m1) if n else total


def _window_count(ctx: NumberContext, s: int, v: Pair, M: Pair, W: Pair) -> int:
    """#{1 <= k <= s : k*v mod M < W}, for integer pairs of one form (as in
    `_floor_sum`) with M > 0 and 0 <= W <= M.

    [k*v mod M < W] = 1 - (floor((k*v + M - W)/M) - floor(k*v/M)) for real
    values, so the count is s minus the difference of two floor sums over
    i = k - 1."""
    (v0, v1), (M0, M1), (W0, W1) = v, M, W
    return s + _floor_sum(ctx, s, M, v, v) - _floor_sum(ctx, s, M, v, (v0 + M0 - W0, v1 + M1 - W1))


def _xiii_candidates(nt: NormalizedTriple):
    """Yield (witness, excl_ok) for every obstruction candidate, in search
    order: case 6, case 7, then the case-8 tuples passing the structural
    conditions.  excl_ok is the final exclusion clause that separates
    NotFrame from a measure-critical frame."""
    p, q, gamma1, j0 = _grid_units(nt)
    f = nt.floor_cb
    g1 = gcd(p, gamma1)
    if j0 < g1:
        yield RationalParams(case_id=6), f * (g1 - j0) != g1
    g2 = gcd(p, gamma1 + q)
    if q - j0 < g2:
        yield RationalParams(case_id=7), (f + 1) * (g2 + j0 - q) != g2
    qp = q - p  # b-a in grid units
    # Case 8: every condition depends on w = d1 + d3 + 1 alone.  gcd(q-p, p)
    # is 1, so N*gamma1 + w*(q-p) = 0 mod p fixes w mod p, and N <= p leaves
    # at most one w in [1, N-1].  Then v = (N*gamma1 + w*(q-p))/p is exact,
    # and the tuple's conditions modulo N*p on p*v, divided by p, read
    # s*v = w mod N and gcd(v, N) = 1, its window k*v mod N below w.  The
    # window count must equal d1, which then fixes d3.  One candidate per
    # (s, N), N running over the divisors of bd above s in ascending order.
    inv_qp = pow(qp, -1, p)
    s, bd = 1, p - qp
    while bd > s:  # bd falls and s rises, so no N in (s, bd] is left after
        for N in _divisors_above(bd, s):
            w = (-N * gamma1 * inv_qp) % p
            if not 0 < w < N:
                continue
            v = (N * gamma1 + w * qp) // p
            if (s * v - w) % N or gcd(v, N) != 1:
                continue
            # The count d1 must satisfy d1 < s and 0 <= d3 = w - 1 - d1 < N - s,
            # that is w - N + s <= d1 <= w - 1, and the delta limits: delta
            # times N, delta_n = N*(j0 - (d1 + 1)*qp) - w*bd = top - slope*d1,
            # lies strictly between -m1 = -min(N*(p - j0), bd) and
            # m2 = min(N*(j0 - qp), bd).  slope = N*qp > 0, so delta_n falls
            # strictly as d1 rises, and for integers d1 the two limits read
            #   top - slope*d1 > -m1  <=>  d1 <= (top + m1 - 1) // slope,
            #   top - slope*d1 < m2   <=>  d1 >= (top - m2) // slope + 1.
            # Every condition on d1 thus bounds it to one integer interval
            # [lo, hi], known before the count: where it is empty the count
            # could only fail, so it is skipped, and a count outside it fails
            # exactly the conditions it stands for.  (The count always meets
            # the first three: k = s has residue w by the congruence above,
            # and k = 1..s-1 have s - 1 distinct residues in [1, N-1] other
            # than w, at most w - 1 of them below w and at most N - 1 - w
            # above.  They still narrow the interval that decides the skip.)
            top, slope = N * (j0 - qp) - w * bd, N * qp
            lo = max(0, w - N + s, (top - min(N * (j0 - qp), bd)) // slope + 1)
            hi = min(s - 1, w - 1, (top + min(N * (p - j0), bd) - 1) // slope)
            if lo > hi:
                continue
            # gcd(v, N) = 1, so N | k*v would need N | k, which k <= s < N
            # rules out: no k*v is 0 mod N.  The count runs on integers, the
            # pairs (X, 0) that `_floor_pair` floors on its parallel-pair
            # line, never reading an enclosure
            d1 = _window_count(nt.form.ctx, s, (v, 0), (N, 0), (w, 0))
            if not lo <= d1 <= hi:
                continue
            delta_n = top - slope * d1
            witness = RationalParams(
                case_id=8, d1=d1, d2=s - 1 - d1, d3=w - 1 - d1, d4=N - s - w + d1, N=N,
                delta=grid_value(nt.b, delta_n, N * q), e_count=d1,
            )
            # |delta| + p/(N*f + w) != bd/N, times N*(N*f + w) > 0
            yield witness, (bd - abs(delta_n)) * (N * f + w) != N * p
        s, bd = s + 1, bd - qp


def _xiii_search(nt: NormalizedTriple) -> Tuple[Optional[RationalParams], bool]:
    """One walk of the candidates: the NotFrame witness, if any, and whether
    any candidate turned up at all (a nonempty invariant set)."""
    found = False
    for witness, excl_ok in _xiii_candidates(nt):
        if excl_ok:
            return witness, True
        found = True
    return None, found


def classify_with_S_existence(nt: NormalizedTriple) -> Tuple[FrameDecision, Optional[bool]]:
    """The decision and whether a nonempty invariant set exists (None where
    no closed form says): one search gives both on XII and on XIII, the
    tables give them elsewhere."""
    tag = nt.region
    if tag is RegionTag.XII:
        w, nonempty = _search_obstruction_irrational(nt)
    elif tag is RegionTag.XIII:
        w, nonempty = _xiii_search(nt)
    else:
        return _DECIDE[tag](nt), _S_NONEMPTY.get(tag)
    return (_not_frame(tag, w) if w is not None else _frame(tag)), nonempty


# ---------------------------------------------------------------------------
# rational ratio with c off the grid
# ---------------------------------------------------------------------------


def classify_off_grid(nt: NormalizedTriple) -> FrameDecision:
    """Round c down/up to the grid bZ/q; frame iff both neighbours are."""
    if not nt.is_rational or nt.c_on_grid:
        raise RegionUnsupported("off-grid rounding needs a/b = p/q and c off the b/q grid")
    q = nt.rational[1]
    # k = floor(c*q/b), the pair floor of q*C over B
    ctx, _, _, (b0, b1), (x0, x1), _, _ = nt.form
    k = _floor_pair(ctx, q * x0, q * x1, b0, b1)
    low = classify_triple(normalize(nt.a, nt.b, grid_value(nt.b, k, q)))
    high = classify_triple(normalize(nt.a, nt.b, grid_value(nt.b, k + 1, q)))
    # neither neighbour is tagged XIV: c > b gives k >= q, so k*b/q is
    # positive and on the grid, where `normalize` finds D = 1 and c_on_grid
    verdict = "Frame" if (low.is_frame and high.is_frame) else "NotFrame"
    return FrameDecision(verdict, RegionTag.XIV, RecursionPair(low, high))


# the decision on every region with a closed form; XII and XIII need a
# certificate search (classify_with_S_existence)
_DECIDE = {
    RegionTag.I: _fixed("NotFrame", RegionTag.I),
    # a = c
    RegionTag.II: lambda nt: _frame(RegionTag.II) if nt.a <= nt.b else _not_frame(RegionTag.II),
    RegionTag.III: _fixed("NotFrame", RegionTag.III),
    RegionTag.IV: _fixed("Frame", RegionTag.IV),
    RegionTag.V: _fixed("Frame", RegionTag.V),
    RegionTag.VI: _region_vi,
    RegionTag.VII: _region_vii,
    RegionTag.VIII: _fixed("Frame", RegionTag.VIII),
    RegionTag.IX: _fixed("Frame", RegionTag.IX),
    RegionTag.X: _region_x,
    RegionTag.XI: _region_xi,
    RegionTag.XIV: classify_off_grid,
}
# regions whose invariant set is known to be empty or nonempty without a search
_S_NONEMPTY = {RegionTag.V: False, RegionTag.IX: False, RegionTag.X: True, RegionTag.XI: True}
