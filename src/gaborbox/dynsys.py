"""Piecewise linear dynamics over one period.

The forward map adds floor(c/b)*b + b on [0, c0+a-b), fixes [c0+a-b, c0)
pointwise (the forward absorber), and adds floor(c/b)*b on [c0, a); the
backward map is its inverse away from the absorbers.  Propagating the
backward absorber forward until everything parks (or the space fills up)
carves out the maximal invariant set S; no hole meets an earlier one, so a
march step is two integer adds on the hole start, an integer pair of the
triple's form (irrational ratio; the march keeps one byte per step and
replays the starts when read), or a clip, shift and sort of a tuple of
integer intervals (rational), and S is built once.  On S, collapsing the
holes (the "surgery" Y) conjugates the forward map to a circle rotation,
which is what the mark bookkeeping below records.
The measure identity (or, equivalently, an empty derived set D) turns S
into the frame verdict, and the Birkhoff average is a numeric ergodicity
diagnostic.

Both marches read the triple's integer form (`NormalizedTriple.form`).  In
an integral one (a/b and c/b rational) every X1 is 0, so the X0 are integer
grid units of b/(qD): the rational march runs on them, and compute_S builds
S in them once and keeps it so (`S_units`), mapped to the reals by
`lattice.form_value` only when read.  D, the measure identity and the
surgery work in the units of the S they are handed: grid units for the
integer period A (the X0 of a), the reals for a; any other period raises.
The chain of holes is built only when read (`hole_chain`), by running the
march again.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Iterator, List, NamedTuple, Optional, Tuple

from .errors import (
    EmptySet,
    IterationCapExceeded,
    OracleInconsistency,
    PeriodMismatch,
    RegionUnsupported,
)
from .exactnum import ExactReal, _sign, floor_div, mod, rat
from .lattice import (
    Endpoint,
    NormalizedTriple,
    PeriodicSet,
    RegionTag,
    black_hole_R,
    form_value,
)


_RAT_ZERO = rat(0)


class HoleStatus(enum.Enum):
    PROPAGATING = "Propagating"
    ABSORBED = "AbsorbedIntoBlackHole"
    FROZEN = "Frozen"
    SENTINEL = "Sentinel"

    def __str__(self):
        return self.value


class HoleChainStep(NamedTuple):
    index: int
    hole: PeriodicSet
    status: HoleStatus


class Marks(NamedTuple):
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


class RationalExtras(NamedTuple):
    """Gap bookkeeping when the collapsed rotation is of finite order:
    N1+1 big gaps (size b-a+delta-delta_prime), N2 small ones, components of
    S all multiples of h."""

    N1: int
    N2: int
    delta: ExactReal
    delta_prime: ExactReal
    h: ExactReal


class InvariantSetReport(NamedTuple):
    nt: NormalizedTriple
    S_units: PeriodicSet  # S as built: in grid units (period A, the X0 of a) or over the reals
    Ya: ExactReal
    theta: Optional[ExactReal]
    marks: Optional[Marks]
    rational_extras: Optional[RationalExtras]

    @property
    def S(self) -> PeriodicSet:
        """S over the reals (period a), mapped from grid units when read."""
        E = self.S_units
        return _grid_reals(self.nt, E)(E) if type(E.period) is int else E

    @property
    def chain(self) -> Tuple[HoleChainStep, ...]:
        return hole_chain(self.nt)


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


def _forward_shift(r: ExactReal, absorber: Tuple[ExactReal, ExactReal],
                   low: ExactReal, high: ExactReal) -> ExactReal:
    """The forward map's branch at r = t mod a: its shift is `low` below the
    absorber [lo, hi), 0 on it and `high` above it."""
    return low if r < absorber[0] else _RAT_ZERO if r < absorber[1] else high


def apply_R(t: ExactReal, nt: NormalizedTriple) -> ExactReal:
    """Forward map; input any real, branch chosen by t mod a."""
    _require_maps(nt)
    fb = nt.floor_cb * nt.b
    return t + _forward_shift(mod(t, nt.a), black_hole_R(nt), fb + nt.b, fb)


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
        PeriodicSet.empty(a)._check(E)
        lo, hi = black_hole_R(nt)
        low, mid, high = E.restrict(rat(0), lo), E.restrict(lo, hi), E.restrict(hi, a)
        return low.shift((f + 1) * b).union(mid).union(high.shift(f * b))
    e = mod(nt.c, a)
    w1 = e + (a - nt.c0)
    w2 = w1 + (b - a)
    # the images of the three branches, as windows that may wrap the seam
    high, mid, low = (E.intersect(PeriodicSet.from_wrapped(a, [w]))
                      for w in ((e, w1), (w1, w2), (w2, e + a)))
    return high.shift(-(f * b)).union(mid).union(low.shift(-((f + 1) * b)))


# ---------------------------------------------------------------------------
# construction of the maximal invariant set
# ---------------------------------------------------------------------------

_SHORT_CIRCUIT_EMPTY = (RegionTag.V, RegionTag.IX)


def compute_S(nt: NormalizedTriple) -> InvariantSetReport:
    """Maximal invariant set avoiding both absorbers, by hole propagation.

    Supported regions: the two generic ones (irrational ratio, and rational
    with c on the grid) run the propagation; four degenerate neighbours are
    known in closed form and short-circuit.  S is built once, in grid units
    when the triple's form is integral; the chain of holes is built only
    when read."""
    tag = nt.region
    zero, a, b, c0, _ = _lengths(nt, nt.form.integral)
    if tag in _SHORT_CIRCUIT_EMPTY:
        E = PeriodicSet.empty(a)
    elif tag is RegionTag.X:
        E = PeriodicSet.make(a, [(zero, c0 + a - b)])
    elif tag is RegionTag.XI:
        E = PeriodicSet.make(a, [(c0, a)])
    elif tag is RegionTag.XII:
        steps, end = _propagate_irrational(nt)
        ba = b - a
        E = (PeriodicSet.make(a, [(s, s + ba) for s in _hole_starts(nt, steps)]).complement()
             if end is HoleStatus.FROZEN else PeriodicSet.empty(a))
    elif tag is RegionTag.XIII:
        # the holes are pairwise disjoint (below), so S is empty exactly when
        # their lengths sum to A: only a nonempty S runs the march again
        E = PeriodicSet.empty(a)
        if sum(hi - lo for front, _ in _propagate_rational(nt) for lo, hi in front) != a:
            holes = [iv for front, _ in _propagate_rational(nt) for iv in front]
            E = PeriodicSet.make(a, holes).complement()
            if not E.restrict(c0 + a - b, c0).is_empty:
                # the construction must have buried both absorbers inside the holes
                raise OracleInconsistency("invariant set touches the forward absorber")
    else:
        raise RegionUnsupported(f"invariant-set construction undefined on region {tag}")
    if E.is_empty:
        return InvariantSetReport(nt, E, rat(0), None, None, None)
    return surgery_report(nt, E)


# Why no hole meets an earlier one: off its absorber [c0+a-b, c0) the forward
# map is one-to-one mod a, as less f*b its branches [0, c0+a-b) + b and [c0, a)
# land on [b-a, c0) and [c0, a), i.e. on [0, a) minus the backward absorber
# [c1, c1+b-a), the first hole.  An image meeting a later hole would make two
# earlier holes meet (the preimages), so by induction no two holes ever meet.
#
# Why the single-hole march needs no step cap: its holes all have length b-a
# and are pairwise disjoint arcs of the circle of length a, so at most
# N = floor(a/(b-a)) of them fit.  Had the hole at index N-1 lain in a branch,
# its image would be an (N+1)-th hole, disjoint from the other N; hence the
# march leaves the branches (or freezes) by index N-1 of its own accord.
#
# Why the single-hole march runs on integer pairs: c1 = f*b - k*a with
# k = floor(f*b/a), so c1 is f*b mod a, which is the high branch's shift.
# (f+1)*b mod a, the low branch's shift, is c1+b mod a; c1+b lies in [a, 3a)
# as b < 2a, so it is c1+b less a once or twice, and on XII once: there
# 0 < c1 < 2a-b, so c1+b-a lies in (b-a, a).  A step adds one of the shifts
# and less a on a wrap, so every start is c1 + i*b - j*a = (f+i)*b - (k+j)*a
# for integers i >= 0 and j.  (So no start equals 0, a or 2a-b, as each would
# make a/b rational: the tests against those are strict or not alike.  Each
# start is positive: c1 is, a step adds a positive shift, and a wrap leaves
# a start at least 0, and not 0.)  The triple's form (NormalizedTriple.form)
# has beta = 1/L, L the least common multiple of the denominators of the
# coefficients of a, b and c, and c0 = c - f*b and c1 = f*b - k*a are integer
# combinations of a, b and c: every start, every shift and every threshold
# (c0+a-b, c0, the tops c0+2a-2b and 2a-b) is then (X0 + X1*tau)/L for
# integers X0 and X1, and each comparison is the sign of an integer pair.
# tau is irrational and L is fixed, so two pairs stand for the same value
# exactly when they are equal, and the frozen test is a pair equality.  A
# step is one of four moves (a branch, and a wrap or none), so the march
# records one byte per step and the starts are replayed from c1 only when
# they are read.


def _propagate_irrational(nt: NormalizedTriple) -> Tuple[bytearray, HoleStatus]:
    """Single-hole march: the backward absorber must land exactly on the
    forward absorber within floor(a/(b-a))-1 steps, staying strictly inside
    one linear branch the whole way; any anomaly proves S is empty.  Holes
    have length b-a and the first starts at c1: returns one byte per step,
    its move (0 low branch, 1 high branch, plus 2 on a wrap), and how the
    last hole ended; `_hole_starts` replays the starts."""
    ctx, _, (a0, a1), (b0, b1), _, (hi0, hi1), (s0, s1) = nt.form
    ba0, ba1 = b0 - a0, b1 - a1
    lo0, lo1 = hi0 - ba0, hi1 - ba1  # the forward absorber is [lo, hi), hi = c0
    lt0, lt1 = lo0 - ba0, lo1 - ba1  # a hole starting at a top ends flush with a branch
    ht0, ht1 = a0 - ba0, a1 - ba1
    ls0, ls1 = s0 + ba0, s1 + ba1  # (f+1)*b mod a is c1+b-a, f*b mod a is c1
    steps = bytearray()
    append, sign = steps.append, _sign
    x0, x1 = s0, s1  # the first hole starts at c1
    while True:
        if x0 == lo0 and x1 == lo1:
            return steps, HoleStatus.FROZEN
        # every start is positive (above), so the low branch needs one test
        if sign(ctx, x0 - lt0, 1, x1 - lt1, 1) < 0:
            x0, x1, move = x0 + ls0, x1 + ls1, 0
        elif sign(ctx, x0 - hi0, 1, x1 - hi1, 1) > 0 and sign(ctx, x0 - ht0, 1, x1 - ht1, 1) < 0:
            x0, x1, move = x0 + s0, x1 + s1, 1
        else:  # a hole wrapped across the seam lies in neither branch
            return steps, HoleStatus.SENTINEL
        if sign(ctx, x0 - a0, 1, x1 - a1, 1) >= 0:
            x0, x1, move = x0 - a0, x1 - a1, move + 2
        append(move)


def _hole_starts(nt: NormalizedTriple, steps: bytearray) -> Iterator[ExactReal]:
    """The hole starts of a march, c1 and one per recorded step, replayed
    from its moves and made ExactReal as they are read."""
    form = nt.form
    _, _, (a0, a1), (b0, b1), _, _, (x0, x1) = form
    # the shifts of the low branch, c1+b-a, and of the high one, c1, each
    # less a on a wrap
    low0, low1 = x0 + b0 - a0, x1 + b1 - a1
    moves = ((low0, low1), (x0, x1), (low0 - a0, low1 - a1), (x0 - a0, x1 - a1))
    yield form_value(form, (x0, x1))
    for move in steps:
        d0, d1 = moves[move]
        x0, x1 = x0 + d0, x1 + d1
        yield form_value(form, (x0, x1))


# Why the rational march sorts and never merges: the map is one-to-one off
# the absorber F = [c0+a-b, c0), so no two pieces meet.  Parts in one branch
# take one shift and come from a canonical front, so none touch; a low part
# [l, h) and a high part [l', h') touch only if l'-h or h'-l is b-a mod a
# (the shifts differ by b), and both lie in [b-a, a] with h'-l > b-a: only
# if h = c0+a-b and l' = c0, the hole holding both unit cells next to F.  No
# hole does.  Say the map takes a circle less F one-to-one onto the circle
# less G (the backward absorber; both of length b-a), continuously along the
# arc from c0 round to c0+a-b but for one jump over G at a seam inside that
# arc and not inside G; hole 0 is G, hole i+1 the image of hole i less F.
# Here the seam is 0, as b-a < c0 < a and 0 < c1 < 2a-b.  Hole 0 could hold
# both cells only with F between them, too long, or with the whole arc and
# its seam.  Hole i >= 1 lies in the map's image, off G: if G meets or
# borders F, G holds one of the cells (or is F: hole 1 is empty).  Else
# collapse G to a point g, inside the arc: holes 1, 2, ... are holes 0, 1,
# ... of such a march, with F and its cells unchanged, hole 1 (G's image in
# one branch, too short to hold F and G's neighbours) as G and g as seam,
# where the map now jumps over hole 1 (not over G any more).  Induct on i.


def _propagate_rational(nt: NormalizedTriple) -> Iterator[Tuple[tuple, HoleStatus]]:
    """Breadth-first saturation: push the backward absorber forward, letting
    portions park inside the forward absorber, until all of it parks.

    c sits on the grid, so every endpoint and every shift is a whole number
    of steps b/q: the march runs on integers in those units (the X0 of the
    triple's form), its front a canonical tuple of (lo, hi) pairs, and
    yields each step's hole as that front, with its status, keeping none."""
    _, _, (A, _), (B, _), _, (C0, _), (C1, _) = nt.form
    f, q = nt.floor_cb, nt.rational[1]
    ba = B - A
    bh_lo, bh_hi = C0 + A - B, C0
    low_shift, high_shift = (f + 1) * B % A, f * B % A
    cap = -(-A // ba) + q + 2
    front: Tuple[Tuple[int, int], ...] = ((C1, C1 + ba),)
    for _ in range(cap + 1):
        # the front off the absorber, each part moved by its branch's shift;
        # whatever of it meets the absorber parks there
        moved, parked = [], False
        for lo, hi in front:
            if lo < bh_lo:
                moved.append((lo + low_shift, (hi if hi < bh_lo else bh_lo) + low_shift))
            if hi > bh_hi:
                moved.append(((lo if lo > bh_hi else bh_hi) + high_shift, hi + high_shift))
            parked = parked or lo < bh_hi and hi > bh_lo
        if not moved:
            yield front, HoleStatus.FROZEN
            return
        yield front, HoleStatus.ABSORBED if parked else HoleStatus.PROPAGATING
        # split a part that wraps at A, then sort: no two pieces meet or
        # touch (above), so the front is canonical as it stands
        pieces = []
        for lo, hi in moved:
            if lo >= A:
                lo, hi = lo - A, hi - A
            elif hi > A:
                pieces.append((0, hi - A))
                hi = A
            pieces.append((lo, hi))
        pieces.sort()
        front = tuple(pieces)
    raise IterationCapExceeded(f"hole propagation still live after {cap + 1} steps; "
                               f"proven bound is {cap}")


def hole_chain(nt: NormalizedTriple) -> Tuple[HoleChainStep, ...]:
    """The holes of the march behind compute_S, in order, over the reals, by
    running the march again.  An empty XIII S ends the chain with the full
    circle as a sentinel; V, IX, X and XI have S in closed form and no chain."""
    if nt.region is RegionTag.XII:
        steps, end = _propagate_irrational(nt)
        *inner, last = _hole_starts(nt, steps)
        ba = nt.b - nt.a
        steps = [(PeriodicSet(nt.a, ((s, s + ba),)), HoleStatus.PROPAGATING) for s in inner]
        # only a sentinel hole may wrap
        steps.append((PeriodicSet.from_wrapped(nt.a, [(last, last + ba)]), end))
    elif nt.region is RegionTag.XIII:
        A = nt.form.A[0]
        held = [(PeriodicSet(A, front), status) for front, status in _propagate_rational(nt)]
        # the holes are pairwise disjoint (above): S is empty when they fill the circle
        if sum(hole.measure() for hole, _ in held) == A:
            held.append((PeriodicSet.full(A), HoleStatus.SENTINEL))
        real = _grid_reals(nt, *(hole for hole, _ in held))
        steps = [(real(hole), status) for hole, status in held]
    else:
        return ()
    return tuple(HoleChainStep(i, hole, status) for i, (hole, status) in enumerate(steps))


# ---------------------------------------------------------------------------
# integer grid units
# ---------------------------------------------------------------------------


def _lengths(nt: NormalizedTriple, grid: bool) -> Tuple[Endpoint, ...]:
    """0, a, b, c0 and c1: the X0 of the triple's form, whole numbers of its
    scale b/(qD), when grid holds (the form must then be integral), else the
    reals."""
    if grid:
        _, _, (A, _), (B, _), _, (C0, _), (C1, _) = nt.form
        return 0, A, B, C0, C1
    return _RAT_ZERO, nt.a, nt.b, nt.c0, nt.c1


def _lengths_of(nt: NormalizedTriple, S: PeriodicSet) -> Tuple[Endpoint, ...]:
    """0, a, b, c0 and c1 in the units of S: grid units for an integer period
    equal to the X0 of a in an integral form, the reals for a; any other
    period raises."""
    P = S.period
    grid = type(P) is int
    if (nt.form.integral and P == nt.form.A[0]) if grid else (P is nt.a or P == nt.a):
        return _lengths(nt, grid)
    raise PeriodMismatch(f"S has period {P!r}: neither a nor the grid units of the triple")


def _real(nt: NormalizedTriple, x: Endpoint, m: int = 1) -> ExactReal:
    """x/m as an ExactReal, x either a whole number of grid units (the scale
    of the triple's integral form) or already real."""
    if type(x) is int:
        return form_value(nt.form, (x, 0), m)
    return x if m == 1 else x / m


def _grid_reals(nt: NormalizedTriple, *sets: PeriodicSet):
    """Map from sets in grid units (period A) to the same sets over the
    reals (period a), with one ExactReal per distinct endpoint."""
    a, A = nt.a, nt.form.A[0]
    ends = {k for E in sets for iv in E.intervals for k in iv} - {A}
    value = {k: _real(nt, k) for k in ends}
    value[A] = a

    def real(E: PeriodicSet) -> PeriodicSet:
        return PeriodicSet(a, tuple((value[lo], value[hi]) for lo, hi in E.intervals))

    return real


# ---------------------------------------------------------------------------
# derived set, measure identity
# ---------------------------------------------------------------------------


def compute_D(nt: NormalizedTriple, S: PeriodicSet) -> PeriodicSet:
    """Parameters where the doubled covering equation is solvable, from S by
    shifts and intersections; empty exactly when the system is a frame.  D
    comes back in the units of S."""
    _require_maps(nt)
    zero, a, b, c0, _ = _lengths_of(nt, S)
    f = nt.floor_cb
    out = S.restrict(zero, c0 + a - b).intersect(S.shift(-(f * b)))
    for k in range(1, f):
        out = out.union(S.intersect(S.shift(-(k * b))))
    return out


def measure_identity(nt: NormalizedTriple, S: PeriodicSet) -> bool:
    """Exact test: (f+1)|S ∩ [0, c0+a-b)| + f|S ∩ [c0, a)| = a, in the units of S."""
    if S.is_empty:
        raise EmptySet("measure identity needs a nonempty invariant set")
    return _measure_lhs(nt, S) == S.period


def measure_identity_lhs(nt: NormalizedTriple, S: PeriodicSet) -> ExactReal:
    return _real(nt, _measure_lhs(nt, S))


def _measure_lhs(nt: NormalizedTriple, E: PeriodicSet) -> Endpoint:
    """(f+1)|E ∩ [0, c0+a-b)| + f|E ∩ [c0, a)|, in the units of E."""
    zero, a, b, c0, _ = _lengths_of(nt, E)
    f = nt.floor_cb
    left = E.restrict(zero, c0 + a - b).measure()
    right = E.restrict(c0, a).measure()
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


def surgery_report(nt: NormalizedTriple, S: PeriodicSet) -> InvariantSetReport:
    """Collapse the holes of S and report the rotation data (Ya, theta, marks),
    worked out in the units of S; the report keeps S as it came."""
    if S.is_empty:
        raise EmptySet("surgery needs a nonempty invariant set")
    zero, a, b, _, c1 = _lengths_of(nt, S)
    Ya = S.measure()
    theta_arg = c1 + b - a  # lies in [0, a] on every supported region
    theta = S.restrict(zero, theta_arg).measure()
    if not nt.is_rational:
        return InvariantSetReport(nt, S, Ya, theta, _finite_marks(nt, S, theta, Ya), None)
    ratio = Fraction(theta, Ya) if type(Ya) is int else theta.ratio(Ya)
    if ratio is None:
        raise OracleInconsistency("rational lattice must give commensurable rotation")
    v = ratio.denominator
    extras = _rational_extras(nt, S, Ya, v)
    marks = Marks(kind="cyclic", generator=extras.h, order=v)
    return InvariantSetReport(nt, S, _real(nt, Ya), _real(nt, theta), marks, extras)


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


def _rational_extras(nt, E: PeriodicSet, Ya: Endpoint, order: int) -> RationalExtras:
    """The gap bookkeeping of E, worked out in the units of E, with h = Ya/order."""
    _, a, b, c0, _ = _lengths_of(nt, E)
    bh_lo, bh_hi = c0 + a - b, c0
    gaps = E.complement().components_cyclic()  # seam-fused
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
    if delta != 0 and delta_prime != 0:
        raise OracleInconsistency("absorber gap must be flush on one side")
    big_size = (b - a) + delta - delta_prime
    n_big = sum(1 for lo, hi in gaps if hi - lo == big_size)
    N1 = n_big - 1
    N2 = order - n_big
    # (N1+N2+1)(h + delta - delta') + (N1+1)(b-a) = a, times order: h is
    # not a whole number of grid units in general
    identity = (N1 + N2 + 1) * (Ya + order * (delta - delta_prime)) + order * (N1 + 1) * (b - a)
    if identity != order * a:
        raise OracleInconsistency("gap bookkeeping violates the length identity")
    return RationalExtras(N1, N2, _real(nt, delta), _real(nt, delta_prime), _real(nt, Ya, order))


# ---------------------------------------------------------------------------
# orbit diagnostics
# ---------------------------------------------------------------------------


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

    # the branch shifts taken mod a: a point reduced into [0, a) steps to one
    # below 2a, which one compare brings back
    fb = nt.floor_cb * nt.b
    low, high = mod(fb + nt.b, a), mod(fb, a)
    seen = {}
    vals: List[float] = []
    x = mod(t, a)
    while len(vals) < n and x not in seen:
        seen[x] = len(vals)
        vals.append(bump(x))
        x = x + _forward_shift(x, (k1, hi), low, high)
        if x >= a:
            x = x - a
    if len(vals) == n:
        return sum(vals) / n
    i = seen[x]
    cycle = vals[i:]
    remaining = n - i
    full, part = divmod(remaining, len(cycle))
    total = sum(vals[:i]) + full * sum(cycle) + sum(cycle[:part])
    return total / n
