"""Piecewise linear dynamics over one period.

The forward map adds floor(c/b)*b + b on [0, c0+a-b), fixes [c0+a-b, c0)
pointwise (the forward absorber), and adds floor(c/b)*b on [c0, a); the
backward map is its inverse away from the absorbers.  Propagating the
backward absorber forward until everything parks (or the space fills up)
carves out the maximal invariant set S.  On S, collapsing the holes (the
"surgery" Y) conjugates the forward map to a circle rotation, which is what
the mark bookkeeping below records.  The measure identity turns S into the
frame verdict, and the Birkhoff average is a numeric ergodicity diagnostic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple, Union

from .errors import (
    EmptySet,
    IterationCapExceeded,
    OracleInconsistency,
    RegionUnsupported,
)
from .exactnum import ExactReal, floor_div, mod, rat
from .lattice import (
    NormalizedTriple,
    PeriodicSet,
    RegionTag,
    black_hole_R,
    black_hole_Rt,
    grid_value,
)


class HoleStatus(enum.Enum):
    PROPAGATING = "Propagating"
    ABSORBED = "AbsorbedIntoBlackHole"
    FROZEN = "Frozen"
    SENTINEL = "Sentinel"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class HoleChainStep:
    index: int
    hole: PeriodicSet
    status: HoleStatus


@dataclass(frozen=True)
class Marks:
    """Image of the holes on the collapsed circle of circumference Ya.

    kind "cyclic": the marks form the finite cyclic group generator*Z mod Ya,
    of the given order; its points are derived when read.
    kind "finite": the marks are the listed points (n*theta mod Ya, n=1..M).
    """

    kind: str
    listed: Tuple[ExactReal, ...] = ()
    generator: Optional[ExactReal] = None
    order: Optional[int] = None

    @property
    def points(self) -> Tuple[ExactReal, ...]:
        if self.kind == "cyclic":
            g = self.generator
            return tuple(g * i for i in range(self.order))
        return self.listed


@dataclass(frozen=True)
class RationalExtras:
    """Gap bookkeeping when the collapsed rotation is of finite order:
    N1+1 big gaps (size b-a+delta-delta_prime), N2 small ones, components of
    S all multiples of h."""

    N1: int
    N2: int
    delta: ExactReal
    delta_prime: ExactReal
    h: ExactReal


@dataclass(frozen=True)
class InvariantSetReport:
    S: PeriodicSet
    chain: Tuple[HoleChainStep, ...]
    Ya: ExactReal
    theta: Optional[ExactReal]
    marks: Optional[Marks]
    rational_extras: Optional[RationalExtras]


# the diagram reaches VIII-XIV exactly through a < b < c and b-a < c0 < a
_MAP_REGIONS = frozenset((
    RegionTag.VIII, RegionTag.IX, RegionTag.X, RegionTag.XI,
    RegionTag.XII, RegionTag.XIII, RegionTag.XIV,
))


def maps_defined(nt: NormalizedTriple) -> bool:
    """The piecewise maps need a < b < c and b-a < c0 < a."""
    return nt.region in _MAP_REGIONS


def _require_maps(nt: NormalizedTriple) -> None:
    if not maps_defined(nt):
        raise RegionUnsupported(
            "piecewise maps need a < b < c and b-a < c0 < a"
        )


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


def apply_Rt(t: ExactReal, nt: NormalizedTriple) -> ExactReal:
    """Backward map; inverse of the forward map away from the absorbers."""
    _require_maps(nt)
    # one full period of branches starts at c-a
    d = mod(t - (nt.c - nt.a), nt.a)
    seg1 = nt.a - nt.c0
    if d < seg1:
        return t - nt.floor_cb * nt.b
    if d < seg1 + nt.b - nt.a:
        return t
    return t - nt.floor_cb * nt.b - nt.b


def map_image(nt: NormalizedTriple, E: PeriodicSet, backward: bool = False) -> PeriodicSet:
    """Set image of E (one period, mod a) under the forward or backward map."""
    _require_maps(nt)
    a, b, f = nt.a, nt.b, nt.floor_cb
    if not backward:
        lo, hi = black_hole_R(nt)
        seg1 = PeriodicSet.make(a, [(rat(0), lo)])
        bh = PeriodicSet.make(a, [(lo, hi)])
        seg3 = PeriodicSet.make(a, [(hi, a)])
        return (
            E.intersect(seg1).shift((f + 1) * b)
            .union(E.intersect(bh))
            .union(E.intersect(seg3).shift(f * b))
        )
    e = mod(nt.c, a)
    s1 = PeriodicSet.from_wrapped(a, [(e, e + (a - nt.c0))])
    s2 = PeriodicSet.from_wrapped(a, [(e + (a - nt.c0), e + (a - nt.c0) + (b - a))])
    s3 = PeriodicSet.from_wrapped(a, [(e + (a - nt.c0) + (b - a), e + a)])
    return (
        E.intersect(s1).shift(-(f * b))
        .union(E.intersect(s2))
        .union(E.intersect(s3).shift(-((f + 1) * b)))
    )


# ---------------------------------------------------------------------------
# construction of the maximal invariant set
# ---------------------------------------------------------------------------

_SHORT_CIRCUIT_EMPTY = (RegionTag.V, RegionTag.IX)


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
    portions park inside the forward absorber, until nothing new appears.

    c sits on the grid, so every endpoint and every shift is a whole number
    of steps b/q: the march runs on integers in those units (nt.units), and
    its sets are mapped back to ExactReal once, at the end."""
    u = nt.units
    A, B = u.A, u.B
    f = nt.floor_cb
    _, q = nt.rational
    ba = B - A
    bh_lo, bh_hi = u.C0 + A - B, u.C0
    bh = PeriodicSet.make(A, [(bh_lo, bh_hi)])
    low = PeriodicSet.make(A, [(0, bh_lo)])
    high = PeriodicSet.make(A, [(bh_hi, A)])
    low_shift, high_shift = (f + 1) * B, f * B
    cap = -(-A // ba) + q + 2
    front = PeriodicSet.make(A, [(u.C1, u.C1 + ba)])
    covered = front
    steps: List[Tuple[PeriodicSet, HoleStatus]] = []
    n = 0
    while not front.is_empty:
        if n > cap:
            raise IterationCapExceeded(
                f"hole propagation still live after {n} steps; proven bound is {cap}"
            )
        moving = front.minus(bh)
        if moving.is_empty:
            steps.append((front, HoleStatus.FROZEN))
            break
        # whatever of the front lies in the absorber parks there
        parked = moving.intervals != front.intervals
        steps.append((front, HoleStatus.ABSORBED if parked else HoleStatus.PROPAGATING))
        image = (
            moving.intersect(low).shift(low_shift)
            .union(moving.intersect(high).shift(high_shift))
        )
        front = image.minus(covered)
        covered = covered.union(image)
        n += 1
    S = covered.complement()
    if S.is_empty:
        steps.append((PeriodicSet.full(A), HoleStatus.SENTINEL))
    elif not S.intersect(bh).is_empty:
        # the construction must have buried both absorbers inside the holes
        raise OracleInconsistency("invariant set touches the forward absorber")
    real = _grid_reals(nt, S, *(hole for hole, _ in steps))
    chain = [HoleChainStep(i, real(hole), status) for i, (hole, status) in enumerate(steps)]
    return real(S), chain


def _grid_reals(nt: NormalizedTriple, *sets: PeriodicSet):
    """Map from sets in units of b/q (period A) to the same sets over the
    reals (period a), with one ExactReal k*b/q per distinct endpoint k."""
    a, b, A = nt.a, nt.b, nt.units.A
    q, ctx = nt.rational[1], b._join(a)
    ends = {k for E in sets for iv in E.intervals for k in iv} - {A}
    value = {k: grid_value(b, k, q, ctx) for k in ends}
    value[A] = a

    def real(E: PeriodicSet) -> PeriodicSet:
        return PeriodicSet(a, tuple((value[lo], value[hi]) for lo, hi in E.intervals))

    return real


# ---------------------------------------------------------------------------
# derived set, measure identity
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# holes-removal surgery
# ---------------------------------------------------------------------------


def surgery_Y(S: PeriodicSet, t: ExactReal) -> ExactReal:
    """Y(t) = signed measure of [0, t) ∩ S, extended by Y(t+a) = Y(t)+Y(a)."""
    k = floor_div(t, S.period)
    r = t - k * S.period
    inside = S.restrict(rat(0), r).measure()
    return k * S.measure() + inside


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
        marks = Marks(kind="cyclic", generator=g, order=v)
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
            return Marks(kind="finite", listed=tuple(pts))
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


# ---------------------------------------------------------------------------
# orbit diagnostics
# ---------------------------------------------------------------------------


def birkhoff_average(
    nt: NormalizedTriple,
    t: ExactReal,
    n: int,
    epsilon: Union[ExactReal, Fraction, int, None] = None,
) -> float:
    """Average of a fixed bump along the forward orbit of t, as a float.

    The bump is a trapezoid riding just below the forward absorber: zero
    outside [c0+a-b-eps, c0), ramping up over [c0+a-b-eps, c0+a-b], flat 1
    until c0-eps, ramping back to zero at c0.  Orbit points are exact; only
    the ramp values are floated.  Orbits are eventually periodic whenever
    endpoints repeat, and the tail is then summed in closed form.
    """
    _require_maps(nt)
    if n < 1:
        raise ValueError("need at least one orbit point")
    a = nt.a
    eps = epsilon if isinstance(epsilon, ExactReal) else None
    if eps is None:
        eps = (nt.b - nt.a) / 8 if epsilon is None else rat(Fraction(epsilon))
    if eps.sign() <= 0 or eps >= nt.b - nt.a:
        raise ValueError("bump half-width must satisfy 0 < eps < b-a")
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
