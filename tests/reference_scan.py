"""The scans and solves that the certificate searches, their window count,
the set algebra and the grid oracle in gaborbox replaced, kept as test
oracles.  Each job keeps the simplest transcription of its condition (the
independent oracle, first) and the live code's parent (second):

    job           references                            tests (test_reference_scan.py)
    XII search    _search_obstruction_irrational        test_xii_search_matches_scan_*,
                                                        test_reference_classifier.py's
                                                        test_xii_search_matches_reference_on_seeded_draws
                  _search_obstruction_irrational_signs  test_xii_search_matches_cramer_*,
                                                        test_xii_search_matches_window_signs_*
    XIII walk     _xiii_candidates                      test_xiii_candidates_match_scan_*,
                                                        test_xiii_candidates_match_n_scan_*
                  _xiii_candidates_uncut                test_xiii_candidates_match_uncut_*,
                                                        test_cut_skips_most_window_counts_*
    window count  window_count_pairs                    test_*window_count*
                  floor_sum_passes                      test_classifier.py's floor-sum test
    set algebra   union, intersect, complement, minus   test_set_algebra_*, test_restrict_*
    grid oracle   grid_S, grid_D                        test_grid_oracle_matches_walk_*
                  grid_S_lists, grid_D_lists            every test_grid_oracle_*

The oracles try every candidate: the searches every gap count s and tuple
on ExactReals, the window count every k, carrying one residue on integer
pairs, the set operations every pair of intervals, the grid oracle each
residue's orbit from scratch.  The parents are the XII solve that took both
window conditions as exact signs per s, the divisor walk that counted
every (s, N) passing the congruence and the gcd before it tested the d1
interval, the floor-sum loop that ran on past its n = 1 pass, and the grid
oracle that listed every preimage of an index and held S and D as
frozensets.  `xii_result` reads a hit of either XII search as the live
search returns it; `_grid_units` reads the grid indices off the ExactReals
c0 and c1 for both XIII walks, and the uncut walk counts through the live
`_window_count`, so that a test can tally the counts of both walks.
`point`, `bh_forward`, `bh_backward`, `step_forward` and `step_backward`
were methods of `GridModel`.  Everything but `xii_result` is copied
unchanged from the code it replaced, but for a few names.
"""

from fractions import Fraction
from functools import partial
from math import gcd
from typing import FrozenSet, List, Optional, Set, Tuple

from gaborbox.classifier import IrrationalParams, RationalParams, _divisors_above, _window_count
from gaborbox.errors import OracleInconsistency, RegionUnsupported
from gaborbox.exactnum import ExactReal, NumberContext, _floor_pair, _sign, mod, rat
from gaborbox.lattice import (
    Interval,
    NormalizedTriple,
    Pair,
    PeriodicSet,
    form_value,
    grid_value,
)
from gaborbox.oracle import GridModel


def _search_obstruction_irrational(nt: NormalizedTriple):
    """Find the (d1, d2) tuple passing the membership, window and count
    conditions; by exactness of the lattice there is at most one verdict."""
    a, b, c = nt.a, nt.b, nt.c
    f = nt.floor_cb
    ba = b - a
    matches = []
    s = 1
    while (s * ba - a).sign() < 0:  # number of gaps stays below a/(b-a)
        for d1 in range(s):
            d2 = s - 1 - d1
            if (c - (f * b + (d1 + 1) * ba)).sign() <= 0:
                continue
            if ((f * b + b - (d2 + 1) * ba) - c).sign() <= 0:
                continue
            m_ratio = (s * nt.c1 - nt.c0 + (d1 + 1) * ba).ratio(a)
            if m_ratio is None or m_ratio.denominator != 1:
                continue
            m = int(m_ratio)
            expr = c - (d1 + 1) * (f + 1) * ba - (d2 + 1) * f * ba
            e_ratio = expr.ratio(a)
            if e_ratio is None or e_ratio.denominator != 1:
                raise OracleInconsistency(
                    "collapse count is integral but the length combination "
                    "misses the coarse lattice"
                )
            modulus = a - s * ba
            base = nt.c1 - m * ba
            width = nt.c0 - (d1 + 1) * ba
            count = 0
            for k in range(1, s + 1):
                if (mod(k * base, modulus) - width).sign() < 0:
                    count += 1
            if count != d1:
                continue
            matches.append((d1, d2, m, count, expr))
        s += 1
    if len(matches) > 1:
        verdicts = {(e - a).is_zero() for (_, _, _, _, e) in matches}
        if len(verdicts) != 1:
            raise OracleInconsistency(
                f"conflicting obstruction tuples: {matches}"
            )
    return matches[0] if matches else None


def _search_obstruction_irrational_signs(nt: NormalizedTriple):
    """Find the (d1, d2) tuple passing the membership, window and count
    conditions; by exactness of the lattice there is at most one verdict.

    a and b are independent over Q exactly when a/b is irrational, so every
    value of the field has rational coordinates in the basis (a, b).  There
    c1 = f*b - k*a (k = floor(f*b/a)) and c0 = u*a + v*b, and the membership
    condition s*c1 - c0 + (d1+1)(b-a) = m*a reads, coefficient by
    coefficient,

        b:  d1 + 1 = v - f*s
        a:  m = (f - k)*s - u - v

    Both slopes are integers, so m and d1 are integral for every s or for
    none: exactly when c0 lies in aZ + bZ.  1 <= d1+1 <= s then cuts s to
    v/(f+1) <= s <= (v-1)/f, and only the s in that interval pay the window
    conditions and the window count.  Every value is an integer pair of the
    triple's form (`NormalizedTriple.form`, in units 1/L, as a/b is
    irrational): (u, v) is Cramer's rule in integers, and each condition the
    exact sign of a pair.

    The count is the one `_xiii_candidates` takes: `_window_count` of the
    step c1 - m*(b-a) modulo M = a - s*(b-a) below W = c0 - (d1+1)*(b-a),
    by floor sums rather than s residues.  Its precondition 0 <= W <= M
    holds where it is called: W > 0 is exactly the first window test, and
    with s = d1 + d2 + 1 and a = b - (b-a), M - W = b - (d2+1)*(b-a) - c0 > 0
    is exactly the second."""
    if nt.is_rational:
        raise RegionUnsupported("the obstruction solve needs an irrational a/b")
    f = nt.floor_cb
    if f < 1:
        raise RegionUnsupported("the obstruction search needs c >= b")
    ctx, _, (a0, a1), (b0, b1), (x0, x1), (y0, y1), (z0, z1) = nt.form
    det = a0 * b1 - a1 * b0
    # c1 = -k*a + f*b and c0 = u*a + v*b, each coordinate a quotient by det
    k, r0 = divmod(b0 * z1 - b1 * z0, det)
    fb, r1 = divmod(a0 * z1 - a1 * z0, det)
    if r0 or r1 or fb != f:
        raise OracleInconsistency("c1 is not f*b reduced mod a")
    u, r0 = divmod(y0 * b1 - y1 * b0, det)
    v, r1 = divmod(a0 * y1 - a1 * y0, det)
    if r0 or r1:
        return None
    m_slope = f - k
    ba0, ba1 = b0 - a0, b1 - a1
    matches = []
    # s*(b-a) < a: the number of gaps stays below a/(b-a), never equal to it
    s_hi = min(_floor_pair(ctx, a0, a1, ba0, ba1), (v - 1) // f)
    for s in range(max(1, -(-v // (f + 1))), s_hi + 1):
        d1 = v - f * s - 1
        m = m_slope * s - u - v
        d2 = s - 1 - d1
        # c > f*b + (d1+1)*(b-a) and (f+1)*b - (d2+1)*(b-a) > c, less f*b:
        # the window width c0 - (d1+1)*(b-a) and b - (d2+1)*(b-a) - c0 positive
        w0, w1 = y0 - (d1 + 1) * ba0, y1 - (d1 + 1) * ba1
        if _sign(ctx, w0, 1, w1, 1) <= 0:
            continue
        if _sign(ctx, b0 - (d2 + 1) * ba0 - y0, 1, b1 - (d2 + 1) * ba1 - y1, 1) <= 0:
            continue
        n = (d1 + 1) * (f + 1) + (d2 + 1) * f
        e0, e1 = x0 - n * ba0, x1 - n * ba1  # c - n*(b-a), a whole multiple of a
        if e0 * a1 != e1 * a0 or (e1 % a1 if a1 else e0 % a0):
            raise OracleInconsistency(
                "collapse count is integral but the length combination "
                "misses the coarse lattice"
            )
        # the k in 1..s with k*(c1 - m*(b-a)) mod (a - s*(b-a)) below the width
        count = _window_count(ctx, s, (z0 - m * ba0, z1 - m * ba1),
                              (a0 - s * ba0, a1 - s * ba1), (w0, w1))
        if count != d1:
            continue
        matches.append((d1, d2, m, count, form_value(nt.form, (e0, e1))))
    if len(matches) > 1:
        verdicts = {(e - nt.a).is_zero() for (_, _, _, _, e) in matches}
        if len(verdicts) != 1:
            raise OracleInconsistency(
                f"conflicting obstruction tuples: {matches}"
            )
    return matches[0] if matches else None


def _xii_witness(nt: NormalizedTriple, hit) -> Optional[IrrationalParams]:
    """The NotFrame witness a search result gives, if any."""
    if hit is None:
        return None
    d1, d2, m, count, expr = hit
    if (expr - nt.a).is_zero():
        return None  # invariant set exists but is measure-critical: frame
    return IrrationalParams(d1=d1, d2=d2, m=m, e_count=count)


def xii_result(nt: NormalizedTriple, hit) -> Tuple[Optional[IrrationalParams], bool]:
    """A hit of an XII search here, or None, as the live search returns it:
    the NotFrame witness, if any, and whether there was a hit at all."""
    return _xii_witness(nt, hit), hit is not None


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
    s = 1
    while p - s * qp > 0:
        bd = p - s * qp
        for N in range(s + 1, p + 1):
            if bd % N:
                continue
            for d1 in range(s):
                d2 = s - 1 - d1
                for d3 in range(N - s):
                    d4 = N - s - 1 - d3
                    w = d1 + d3 + 1
                    val = N * gamma1 + w * qp
                    if val % p:
                        continue
                    if (s * val - w * p) % (N * p):
                        continue
                    if gcd(val, N * p) != p:
                        continue
                    count = sum(
                        1 for k in range(1, s + 1)
                        if 0 < (k * val) % (N * p) < w * p
                    )
                    if count != d1:
                        continue
                    delta = Fraction(j0) - (d1 + 1) * qp - Fraction(w * bd, N)
                    lim_low = -min(Fraction(p - j0), Fraction(bd, N))
                    lim_high = min(Fraction(j0 - qp), Fraction(bd, N))
                    if not (lim_low < delta < lim_high):
                        continue
                    witness = RationalParams(
                        case_id=8, d1=d1, d2=d2, d3=d3, d4=d4, N=N,
                        delta=nt.b * (delta / q), e_count=count,
                    )
                    yield witness, abs(delta) + Fraction(p, N * f + w) != Fraction(bd, N)
        s += 1


def window_count_pairs(ctx: NumberContext, s: int, v: Pair, M: Pair, W: Pair) -> int:
    """#{1 <= k <= s : k*v mod M < W} on integer pairs of one form, the
    residue carried from one k to the next."""
    (base0, base1), (mod0, mod1), (w0, w1) = v, M, W
    count = r0 = r1 = 0
    for _ in range(s):
        r0, r1 = r0 + base0, r1 + base1
        q = _floor_pair(ctx, r0, r1, mod0, mod1)
        r0, r1 = r0 - q * mod0, r1 - q * mod1
        if _sign(ctx, r0 - w0, 1, r1 - w1, 1) < 0:
            count += 1
    return count


def floor_sum_passes(ctx: NumberContext, n: int, m: Pair, a: Pair, b: Pair):
    """The floor sum of `classifier._floor_sum` by its loop that went on
    until n = 0, and the n each of its passes began with."""
    (m0, m1), (a0, a1), (b0, b1) = m, a, b
    total = 0
    passes = []
    while n:
        passes.append(n)
        qa, qb = _floor_pair(ctx, a0, a1, m0, m1), _floor_pair(ctx, b0, b1, m0, m1)
        a0, a1, b0, b1 = a0 - qa * m0, a1 - qa * m1, b0 - qb * m0, b1 - qb * m1
        total += n * (n - 1) // 2 * qa + n * qb
        t0, t1 = a0 * n + b0, a1 * n + b1  # the line at i = n, now with 0 <= a, b < m
        n = _floor_pair(ctx, t0, t1, m0, m1)
        m0, m1, a0, a1, b0, b1 = a0, a1, m0, m1, t0 - n * m0, t1 - n * m1
    return total, passes


def _xiii_candidates_uncut(nt: NormalizedTriple):
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
    # is 1, so val = N*gamma1 + w*(q-p) = 0 mod p fixes w mod p, and N <= p
    # leaves at most one w in [1, N-1]; the window count must equal d1,
    # which then fixes d3.  One candidate per (s, N), N running over the
    # divisors of bd above s in ascending order.
    inv_qp = pow(qp, -1, p)
    s, bd = 1, p - qp
    while bd > s:  # bd falls and s rises, so no N in (s, bd] is left after
        for N in _divisors_above(bd, s):
            w = (-N * gamma1 * inv_qp) % p
            if not 0 < w < N:
                continue
            val = N * gamma1 + w * qp
            Np = N * p
            if (s * val - w * p) % Np or gcd(val, Np) != p:
                continue
            # gcd(val, Np) = p makes val = p*v with gcd(v, N) = 1, so Np | k*val
            # would need N | k, which k <= s < N rules out: no k*val is 0 mod Np
            d1 = _window_count(nt.form.ctx, s, (val, 0), (Np, 0), (w * p, 0))
            d3 = w - 1 - d1
            if d1 >= s or not 0 <= d3 < N - s:
                continue
            # delta and its window limits, all times N: integers
            delta_n = N * (j0 - (d1 + 1) * qp) - w * bd
            if not (-min(N * (p - j0), bd) < delta_n < min(N * (j0 - qp), bd)):
                continue
            witness = RationalParams(
                case_id=8, d1=d1, d2=s - 1 - d1, d3=d3, d4=N - s - 1 - d3, N=N,
                delta=grid_value(nt.b, delta_n, N * q), e_count=d1,
            )
            # |delta| + p/(N*f + w) != bd/N, times N*(N*f + w) > 0
            yield witness, (bd - abs(delta_n)) * (N * f + w) != Np
        s, bd = s + 1, bd - qp


def _grid_units(nt: NormalizedTriple) -> Tuple[int, int, int, int]:
    """(p, q, gamma1, j0): everything in units of b/q."""
    if not (nt.is_rational and nt.c_on_grid):
        raise RegionUnsupported("the grid certificate needs a/b = p/q and c on the b/q grid")
    p, q = nt.rational
    gamma1 = nt.c1.ratio(nt.b) * q
    j0 = nt.c0.ratio(nt.b) * q
    if gamma1.denominator != 1 or j0.denominator != 1:
        raise OracleInconsistency("c is on the grid but c0 or c1 is not")
    return p, q, int(gamma1), int(j0)


# ---------------------------------------------------------------------------
# PeriodicSet algebra (methods written as functions of the two operands)
# ---------------------------------------------------------------------------


def union(self: PeriodicSet, other: PeriodicSet) -> PeriodicSet:
    self._check(other)
    return PeriodicSet.make(self.period, list(self.intervals) + list(other.intervals))


def intersect(self: PeriodicSet, other: PeriodicSet) -> PeriodicSet:
    self._check(other)
    out: List[Interval] = []
    for alo, ahi in self.intervals:
        for blo, bhi in other.intervals:
            lo = alo if (alo - blo).sign() >= 0 else blo
            hi = ahi if (ahi - bhi).sign() <= 0 else bhi
            if (hi - lo).sign() > 0:
                out.append((lo, hi))
    return PeriodicSet.make(self.period, out)


def complement(self: PeriodicSet) -> PeriodicSet:
    gaps: List[Interval] = []
    cursor = rat(0)
    for lo, hi in self.intervals:
        if (lo - cursor).sign() > 0:
            gaps.append((cursor, lo))
        cursor = hi
    if (self.period - cursor).sign() > 0:
        gaps.append((cursor, self.period))
    return PeriodicSet.make(self.period, gaps)


def minus(self: PeriodicSet, other: PeriodicSet) -> PeriodicSet:
    return intersect(self, complement(other))


# ---------------------------------------------------------------------------
# grid oracle
# ---------------------------------------------------------------------------


def point(gm: GridModel, j: int) -> ExactReal:
    """Real residue represented by index j, i.e. j*(b/q) for j in [0, p)."""
    return grid_value(gm.nt.b, j % gm.p, gm.q)


def bh_forward(gm: GridModel) -> FrozenSet[int]:
    return frozenset(range(gm.j0 - gm.hole_len, gm.j0))


def bh_backward(gm: GridModel) -> FrozenSet[int]:
    return frozenset((gm.j1 + i) % gm.p for i in range(gm.hole_len))


def step_forward(gm: GridModel, j: int) -> int:
    j %= gm.p
    if j < gm.j0 - gm.hole_len:
        return (j + (gm.f + 1) * gm.q) % gm.p
    if j < gm.j0:
        return j
    return (j + gm.f * gm.q) % gm.p


def step_backward(gm: GridModel, j: int) -> int:
    j %= gm.p
    rel = (j - gm.e) % gm.p
    if rel < gm.p - gm.j0:
        return (j - gm.f * gm.q) % gm.p
    if rel < gm.p - gm.j0 + gm.hole_len:
        return j
    return (j - (gm.f + 1) * gm.q) % gm.p


def _orbit_avoids(gm: GridModel, start: int, step, forbidden: FrozenSet[int]) -> bool:
    seen = set()
    j = start % gm.p
    while j not in seen:
        if j in forbidden:
            return False
        seen.add(j)
        j = step(j)
    return True


def grid_S(gm: GridModel) -> FrozenSet[int]:
    """Indices whose forward orbits under both maps avoid the absorbers."""
    bh_f = bh_forward(gm)
    bh_b = bh_backward(gm)
    out = set()
    for j in range(gm.p):
        if _orbit_avoids(gm, j, partial(step_forward, gm), bh_f) and _orbit_avoids(
            gm, j, partial(step_backward, gm), bh_b
        ):
            out.add(j)
    return frozenset(out)


def grid_D(gm: GridModel, S: Optional[FrozenSet[int]] = None) -> FrozenSet[int]:
    """The solvability-two set, from S by shifts and intersections."""
    if S is None:
        S = grid_S(gm)
    p, q, f = gm.p, gm.q, gm.f
    low_window = set(range(0, gm.j0 - gm.hole_len))  # [0, c0+a-b)
    shifted = {j for j in range(p) if (j + f * q) % p in S}  # S - f*b
    out = S & low_window & shifted
    for k in range(1, f):
        shift_k = {j for j in range(p) if (j + k * q) % p in S}  # S - k*b
        out |= S & shift_k
    return frozenset(out)


def _reaching_lists(gm: GridModel, step, absorber: FrozenSet[int]) -> Set[int]:
    """Indices whose forward orbits under `step` enter `absorber`, found by one
    search back from the absorber along the preimages of each index."""
    preimages = [[] for _ in range(gm.p)]
    for j in range(gm.p):
        preimages[step(j)].append(j)
    reached, todo = set(absorber), list(absorber)
    while todo:  # each index has its preimages listed once, so `new` has no repeats
        new = [i for i in preimages[todo.pop()] if i not in reached]
        reached.update(new)
        todo += new
    return reached


def grid_S_lists(gm: GridModel) -> FrozenSet[int]:
    """Indices whose forward orbits under both maps avoid the absorbers."""
    return frozenset(range(gm.p)).difference(
        _reaching_lists(gm, partial(step_forward, gm), bh_forward(gm)),
        _reaching_lists(gm, partial(step_backward, gm), bh_backward(gm)),
    )


def grid_D_lists(gm: GridModel, S: Optional[FrozenSet[int]] = None) -> FrozenSet[int]:
    """The solvability-two set, from S by shifts and intersections."""
    if S is None:
        S = grid_S_lists(gm)
    p, q, f = gm.p, gm.q, gm.f
    low = gm.j0 - gm.hole_len  # [0, c0+a-b) is [0, low)
    # j with j + f*b in S below low, or j + k*b in S for some 0 < k < f
    return frozenset(
        j for j in S
        if (j < low and (j + f * q) % p in S)
        or any((j + k * q) % p in S for k in range(1, f))
    )
