"""The hole propagations, the surgery report, the derived set, the measure
identity and the ergodic average that the live code replaced, kept as test
oracles.  Each job keeps the simplest transcription (first) and, for the
marches, the live march's parent (second):

    job            reference                       tests (test_reference_dynsys.py)
    XIII march     _propagate_rational             test_*reports_match*, through compute_S
                   _propagate_rational_on_sets     test_xiii_march_matches_q_le_16,
                                                   test_certificate_pool_marches_match,
                                                   test_large_p_S_and_chain_match_*,
                                                   test_rational_xiii_reports_match_q_le_24
                                                   past q = 16
    XII march      _propagate_irrational           test_*reports_match*, through compute_S
                   _propagate_irrational_on_reals  test_xii_march_matches_*,
                                                   test_certificate_pool_marches_match,
                                                   test_pi_precision_exhaustion_*
    reports        compute_S, surgery_report,      test_*reports_match*, test_*stages*,
                   compute_D, measure_identity     test_off_grid_S_takes_the_reals_path
    Birkhoff mean  birkhoff_average                test_birkhoff_average_matches_*

`_propagate_rational` runs the XIII march on ExactReal PeriodicSets and
`_propagate_irrational` shifts each XII hole as a PeriodicSet against a
growing covered set, up to a step cap; `_propagate_rational_on_sets` runs
the XIII march on integer PeriodicSets, one set per operation, and
`_propagate_irrational_on_reals` the single-hole XII march on ExactReal
starts, shifted by `mod`.  `surgery_report` builds every cyclic mark point
up front and its `InvariantSetReport` stores the chain; it,
`_rational_extras`, `compute_D` and the measure identity work on ExactReal
endpoints only.  `birkhoff_average` steps its orbit by `apply_R` and
reduces the image mod a again.  Every function here is copied unchanged
from the code it replaced, but for the imports, two names and the bump
half-width of `birkhoff_average`, fixed at (b-a)/8 as in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from gaborbox.dynsys import (
    _SHORT_CIRCUIT_EMPTY,
    HoleChainStep,
    HoleStatus,
    RationalExtras,
    _require_maps,
)
from gaborbox.errors import (
    EmptySet,
    IterationCapExceeded,
    OracleInconsistency,
    RegionUnsupported,
)
from gaborbox.exactnum import ExactReal, floor_div, mod, rat
from gaborbox.lattice import (
    NormalizedTriple,
    PeriodicSet,
    RegionTag,
    black_hole_R,
    black_hole_Rt,
)

@dataclass(frozen=True)
class InvariantSetReport:
    S: PeriodicSet
    chain: Tuple[HoleChainStep, ...]
    Ya: ExactReal
    theta: Optional[ExactReal]
    marks: Optional[Marks]
    rational_extras: Optional[RationalExtras]


@dataclass(frozen=True)
class Marks:
    """Image of the holes on the collapsed circle of circumference Ya.

    kind "cyclic": the marks form the finite cyclic group generator*Z mod Ya.
    kind "finite": the marks are the listed points (n*theta mod Ya, n=1..M).
    """

    kind: str
    points: Tuple[ExactReal, ...]
    generator: Optional[ExactReal] = None
    order: Optional[int] = None


def compute_S(nt: NormalizedTriple) -> InvariantSetReport:
    """Maximal invariant set avoiding both absorbers, by hole propagation.

    Supported regions: the two generic ones (irrational ratio, and rational
    with c on the grid) run the propagation; four degenerate neighbours are
    known in closed form and short-circuit.
    """
    tag = nt.region
    a = nt.a
    if tag in _SHORT_CIRCUIT_EMPTY:
        return InvariantSetReport(
            PeriodicSet.empty(a), (), rat(0), None, None, None
        )
    if tag is RegionTag.X:
        S = PeriodicSet.make(a, [(rat(0), nt.c0 + a - nt.b)])
        return surgery_report(nt, S, ())
    if tag is RegionTag.XI:
        S = PeriodicSet.make(a, [(nt.c0, a)])
        return surgery_report(nt, S, ())
    if tag is RegionTag.XII:
        S, chain = _propagate_irrational(nt)
    elif tag is RegionTag.XIII:
        S, chain = _propagate_rational(nt)
    else:
        raise RegionUnsupported(f"invariant-set construction undefined on region {tag}")
    if S.is_empty:
        return InvariantSetReport(S, tuple(chain), rat(0), None, None, None)
    return surgery_report(nt, S, tuple(chain))


def _propagate_irrational(nt: NormalizedTriple) -> Tuple[PeriodicSet, List[HoleChainStep]]:
    """Single-hole march: the backward absorber must land exactly on the
    forward absorber within floor(a/(b-a))-1 steps, staying strictly inside
    one linear branch the whole way; any anomaly proves S is empty."""
    a, b, f = nt.a, nt.b, nt.floor_cb
    ba = b - a
    bh_lo, bh_hi = black_hole_R(nt)
    hole_lo, hole_hi = black_hole_Rt(nt)
    step_cap = floor_div(a, ba) - 1
    chain: List[HoleChainStep] = []
    covered = PeriodicSet.make(a, [(hole_lo, hole_hi)])
    n = 0
    while True:
        here = PeriodicSet.make(a, [(hole_lo, hole_hi)])
        if (hole_lo - bh_lo).is_zero() and (hole_hi - bh_hi).is_zero():
            chain.append(HoleChainStep(n, here, HoleStatus.FROZEN))
            return covered.complement(), chain
        in_low = hole_lo.sign() > 0 and hole_hi < bh_lo
        in_high = hole_lo > bh_hi and hole_hi < a
        if n >= step_cap or not (in_low or in_high):
            chain.append(HoleChainStep(n, here, HoleStatus.SENTINEL))
            return PeriodicSet.empty(a), chain
        chain.append(HoleChainStep(n, here, HoleStatus.PROPAGATING))
        image = here.shift((f + 1) * b if in_low else f * b)
        if len(image.intervals) != 1 or not image.intersect(covered).is_empty:
            chain.append(HoleChainStep(n + 1, image, HoleStatus.SENTINEL))
            return PeriodicSet.empty(a), chain
        covered = covered.union(image)
        (hole_lo, hole_hi), = image.intervals
        n += 1


def _propagate_rational(nt: NormalizedTriple) -> Tuple[PeriodicSet, List[HoleChainStep]]:
    """Breadth-first saturation: push the backward absorber forward, letting
    portions park inside the forward absorber, until nothing new appears."""
    a, b, f = nt.a, nt.b, nt.floor_cb
    ba = b - a
    bh_lo, bh_hi = black_hole_R(nt)
    bh = PeriodicSet.make(a, [(bh_lo, bh_hi)])
    low = PeriodicSet.make(a, [(rat(0), bh_lo)])
    high = PeriodicSet.make(a, [(bh_hi, a)])
    _, q = nt.rational
    cap = -floor_div(-a, ba) + q + 2
    hole0_lo, hole0_hi = black_hole_Rt(nt)
    front = PeriodicSet.make(a, [(hole0_lo, hole0_hi)])
    covered = front
    chain: List[HoleChainStep] = []
    n = 0
    while not front.is_empty:
        if n > cap:
            raise IterationCapExceeded(
                f"hole propagation still live after {n} steps; proven bound is {cap}"
            )
        parked = front.intersect(bh)
        moving = front.minus(bh)
        if moving.is_empty:
            chain.append(HoleChainStep(n, front, HoleStatus.FROZEN))
            break
        status = HoleStatus.ABSORBED if not parked.is_empty else HoleStatus.PROPAGATING
        chain.append(HoleChainStep(n, front, status))
        image = (
            moving.intersect(low).shift((f + 1) * b)
            .union(moving.intersect(high).shift(f * b))
        )
        front = image.minus(covered)
        covered = covered.union(image)
        n += 1
    S = covered.complement()
    if S.is_empty:
        chain.append(HoleChainStep(len(chain), PeriodicSet.full(a), HoleStatus.SENTINEL))
    elif not S.intersect(bh).is_empty:
        # the construction must have buried both absorbers inside the holes
        raise OracleInconsistency("invariant set touches the forward absorber")
    return S, chain


def surgery_report(
    nt: NormalizedTriple, S: PeriodicSet, chain: Tuple[HoleChainStep, ...]
) -> InvariantSetReport:
    """Collapse the holes of S and report the rotation data (Ya, theta, marks)."""
    if S.is_empty:
        raise EmptySet("surgery needs a nonempty invariant set")
    a, b = nt.a, nt.b
    Ya = S.measure()
    theta_arg = nt.c1 + b - a  # lies in [0, a] on every supported region
    theta = S.restrict(rat(0), theta_arg).measure()
    ratio = theta.ratio(Ya)
    marks: Marks
    extras: Optional[RationalExtras] = None
    if nt.is_rational:
        if ratio is None:
            raise OracleInconsistency("rational lattice must give commensurable rotation")
        v = ratio.denominator
        g = Ya / v
        marks = Marks(
            kind="cyclic",
            points=tuple(g * i for i in range(v)),
            generator=g,
            order=v,
        )
        extras = _rational_extras(nt, S, g, v)
    else:
        marks = _finite_marks(nt, S, theta, Ya)
    return InvariantSetReport(S, tuple(chain), Ya, theta, marks, extras)


def _finite_marks(nt, S, theta, Ya) -> Marks:
    y_c0 = S.restrict(rat(0), nt.c0).measure()
    bound = floor_div(nt.a, nt.b - nt.a) + 2
    pts: List[ExactReal] = []
    for n in range(1, bound + 1):
        pts.append(mod(n * theta, Ya))
        r = (n * theta - y_c0).ratio(Ya)
        if r is not None and r.denominator == 1:
            return Marks(kind="finite", points=tuple(pts))
    raise OracleInconsistency("mark-count search failed; conjugacy data is corrupt")


def _rational_extras(nt, S: PeriodicSet, h: ExactReal, order: int) -> RationalExtras:
    bh_lo, bh_hi = black_hole_R(nt)
    gaps = S.complement().components_cyclic()  # seam-fused
    # the absorber [c0+a-b, c0) lies in [0, a).  Had it lain past the seam
    # of a seam-fused gap (g_lo, first_hi + a), in [0, first_hi), delta and
    # delta' below would both be negative and the flush test would raise, so
    # a lookup one period on could not succeed either
    gap = next(((g_lo, g_hi) for g_lo, g_hi in gaps
                if g_lo <= bh_lo and bh_hi <= g_hi), None)
    if gap is None:
        raise OracleInconsistency("forward absorber is not inside a hole of S")
    g_lo, g_hi = gap
    delta = bh_lo - g_lo
    delta_prime = bh_hi - g_hi
    if not (delta * delta_prime).is_zero():
        raise OracleInconsistency("absorber gap must be flush on one side")
    big_size = (nt.b - nt.a) + delta - delta_prime
    n_big = sum(1 for lo, hi in gaps if (hi - lo - big_size).is_zero())
    N1 = n_big - 1
    N2 = order - n_big
    identity = (N1 + N2 + 1) * (h + delta - delta_prime) + (N1 + 1) * (nt.b - nt.a)
    if not (identity - nt.a).is_zero():
        raise OracleInconsistency("gap bookkeeping violates the length identity")
    return RationalExtras(N1, N2, delta, delta_prime, h)


def compute_D(nt: NormalizedTriple, S: PeriodicSet) -> PeriodicSet:
    """Parameters where the doubled covering equation is solvable, from S by
    shifts and intersections; empty exactly when the system is a frame."""
    _require_maps(nt)
    a, b, f = nt.a, nt.b, nt.floor_cb
    if S.is_empty:
        return PeriodicSet.empty(a)
    low_window = PeriodicSet.make(a, [(rat(0), nt.c0 + a - b)])
    out = S.intersect(low_window).intersect(S.shift(-(f * b)))
    for k in range(1, f):
        out = out.union(S.intersect(S.shift(-(k * b))))
    return out


def measure_identity(nt: NormalizedTriple, S: PeriodicSet) -> bool:
    """Exact test: (f+1)|S ∩ [0, c0+a-b)| + f|S ∩ [c0, a)| = a."""
    if S.is_empty:
        raise EmptySet("measure identity needs a nonempty invariant set")
    return (measure_identity_lhs(nt, S) - nt.a).is_zero()


def measure_identity_lhs(nt: NormalizedTriple, S: PeriodicSet) -> ExactReal:
    a, f = nt.a, nt.floor_cb
    left = S.restrict(rat(0), nt.c0 + a - nt.b).measure()
    right = S.restrict(nt.c0, a).measure()
    return (f + 1) * left + f * right


def _propagate_irrational_on_reals(nt: NormalizedTriple) -> Tuple[List[ExactReal], HoleStatus]:
    """Single-hole march: the backward absorber must land exactly on the
    forward absorber within floor(a/(b-a))-1 steps, staying strictly inside
    one linear branch the whole way; any anomaly proves S is empty.  Holes
    have length b-a: returns their starts and how the last one ended."""
    a, b, f = nt.a, nt.b, nt.floor_cb
    ba = b - a
    bh_lo, bh_hi = black_hole_R(nt)
    low_top, high_top = bh_lo - ba, a - ba  # a hole starting there ends flush with a branch
    low_shift, high_shift = mod((f + 1) * b, a), mod(f * b, a)
    starts: List[ExactReal] = []
    lo = nt.c1
    while True:
        starts.append(lo)
        if lo == bh_lo:
            return starts, HoleStatus.FROZEN
        in_low = lo.sign() > 0 and lo < low_top
        # a hole wrapped across the seam lies in neither branch
        if not (in_low or bh_hi < lo < high_top):
            return starts, HoleStatus.SENTINEL
        lo = lo + (low_shift if in_low else high_shift)
        if lo >= a:
            lo = lo - a


def _propagate_rational_on_sets(nt: NormalizedTriple) -> List[Tuple[PeriodicSet, HoleStatus]]:
    """Breadth-first saturation: push the backward absorber forward, letting
    portions park inside the forward absorber, until all of it parks.

    c sits on the grid, so every endpoint and every shift is a whole number
    of steps b/q: the march runs on integers in those units (the X0 of
    nt.form) and returns its holes in them, each with its status."""
    _, _, (A, _), (B, _), _, (C0, _), (C1, _) = nt.form
    f, q = nt.floor_cb, nt.rational[1]
    ba = B - A
    bh_lo, bh_hi = C0 + A - B, C0
    low_shift, high_shift = (f + 1) * B, f * B
    cap = -(-A // ba) + q + 2
    front = PeriodicSet.make(A, [(C1, C1 + ba)])
    steps: List[Tuple[PeriodicSet, HoleStatus]] = []
    while True:
        if len(steps) > cap:
            raise IterationCapExceeded(
                f"hole propagation still live after {len(steps)} steps; proven bound is {cap}"
            )
        low, high = front.restrict(0, bh_lo), front.restrict(bh_hi, A)
        moving = low.intervals + high.intervals
        if not moving:
            steps.append((front, HoleStatus.FROZEN))
            return steps
        # whatever of the front lies in the absorber parks there
        parked = moving != front.intervals
        steps.append((front, HoleStatus.ABSORBED if parked else HoleStatus.PROPAGATING))
        front = low.shift(low_shift).union(high.shift(high_shift))


def apply_R(t: ExactReal, nt: NormalizedTriple) -> ExactReal:
    """Forward map; input any real, branch chosen by t mod a."""
    _require_maps(nt)
    r = mod(t, nt.a)
    lo, hi = black_hole_R(nt)
    if r < lo:
        return t + nt.floor_cb * nt.b + nt.b
    if r < hi:
        return t
    return t + nt.floor_cb * nt.b


def birkhoff_average(nt: NormalizedTriple, t: ExactReal, n: int) -> float:
    """Average of a fixed bump along the forward orbit of t, as a float.

    The bump is a trapezoid riding just below the forward absorber, with
    half-width eps = (b-a)/8: zero outside [c0+a-b-eps, c0), ramping up over
    [c0+a-b-eps, c0+a-b], flat 1 until c0-eps, ramping back to zero at c0.
    Orbit points are exact; only the ramp values are floated.  Orbits are
    eventually periodic whenever endpoints repeat, and the tail is then
    summed in closed form.
    """
    _require_maps(nt)
    if n < 1:
        raise ValueError("need at least one orbit point")
    a = nt.a
    eps = (nt.b - a) / 8
    k1, hi = black_hole_R(nt)  # plateau edges: [c0+a-b, c0-eps]
    lo = k1 - eps
    k2 = hi - eps

    def bump(x: ExactReal) -> float:
        # periodic extension: the support has length < a, so at most one
        # of x, x-a, x+a lands inside it
        for cand in (x, x - a, x + a):
            if lo <= cand < hi:
                if cand < k1:
                    return float(cand - lo) / float(eps)
                if cand <= k2:
                    return 1.0
                return float(hi - cand) / float(eps)
        return 0.0

    seen = {}
    vals: List[float] = []
    x = mod(t, a)
    while len(vals) < n and x not in seen:
        seen[x] = len(vals)
        vals.append(bump(x))
        x = mod(apply_R(x, nt), a)
    if len(vals) == n:
        return sum(vals) / n
    i = seen[x]
    cycle = vals[i:]
    remaining = n - i
    full, part = divmod(remaining, len(cycle))
    total = sum(vals[:i]) + full * sum(cycle) + sum(cycle[:part])
    return total / n
