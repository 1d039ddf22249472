"""The hole propagations and the surgery report that the live marches
replaced, kept as a test oracle.

`_propagate_rational` runs the XIII march on ExactReal PeriodicSets;
`_propagate_irrational` shifts each XII hole as a PeriodicSet and tests it
against a growing covered set; `surgery_report` builds every cyclic mark
point up front, so `Marks` stores them.  `Marks`, `compute_S`,
`_propagate_irrational`, `_propagate_rational`, `surgery_report`,
`_finite_marks` and `_rational_extras` are copied unchanged from the code
they replaced (only the imports differ); the differential tests in
`test_reference_dynsys.py` hold the live marches to their reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from gaborbox.dynsys import (
    _SHORT_CIRCUIT_EMPTY,
    HoleChainStep,
    HoleStatus,
    InvariantSetReport,
    RationalExtras,
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
