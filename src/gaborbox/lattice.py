"""Normalized triples, the region decision diagram, and periodic interval algebra.

A PeriodicSet stores a finite disjoint union of half-open intervals inside one
period [0, a) and stands for that union + aZ.  Storage is canonical: sorted,
pairwise disjoint, touching intervals merged — except across the 0/a seam,
which is only fused on demand by cyclic queries (gap analysis), never in
storage.  The endpoints and the period are all ExactReal, or all int (a set
in integer grid units); every comparison is exact either way.  One bisection,
the window cut of `restrict`, serves intersect and minus; union is one make.

`normalize` is the one builder of a NormalizedTriple.  The triple keeps a,
b and c as given and holds a, b, c, c0 and c1 once, in one integer form
(IntegerForm): integer pairs (X0, X1) standing for (X0 + X1*tau)*beta, with
one positive scale beta per triple, b/(qD) with every X1 = 0 when a/b and
c/b are rational, 1/L otherwise.  The region walk and the decisions compare
those pairs; `form_value` alone maps a pair back to an ExactReal, which is
how the properties c0 and c1 are read.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter
from typing import Iterable, List, NamedTuple, Optional, Tuple, Union

from .errors import NonPositiveInput, PeriodMismatch
from .exactnum import (
    _ZERO,
    ExactReal,
    NumberContext,
    _floor_pair,
    _make,
    _sign,
    floor_div,
    mod,
    rat,
)


class RegionTag(enum.Enum):
    I = "I"
    II = "II"
    III = "III"
    IV = "IV"
    V = "V"
    VI = "VI"
    VII = "VII"
    VIII = "VIII"
    IX = "IX"
    X = "X"
    XI = "XI"
    XII = "XII"
    XIII = "XIII"
    XIV = "XIV"

    # The members are singletons and Enum compares them by identity, so
    # hashing by identity agrees with equality; Enum's own hash (of the
    # name) and its `value` descriptor are Python-level calls that every
    # region lookup and every rendered region would pay.
    __hash__ = object.__hash__

    def __str__(self):
        return self._value_


Endpoint = Union[ExactReal, int]
Interval = Tuple[Endpoint, Endpoint]

_start = itemgetter(0)
_end = itemgetter(1)


class PeriodicSet:
    """Union of half-open intervals in [0, period), implicitly + period*Z;
    immutable, equal (and hashing alike) exactly when period and intervals
    are."""

    __slots__ = ("period", "intervals")

    def __init__(self, period: Endpoint, intervals: Tuple[Interval, ...]):
        _set_period(self, period)
        _set_intervals(self, intervals)

    def __setattr__(self, name, value):
        raise AttributeError(f"PeriodicSet is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"PeriodicSet is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return PeriodicSet, (self.period, self.intervals)

    def __eq__(self, other):
        if type(other) is not PeriodicSet:
            return NotImplemented
        return (self.period, self.intervals) == (other.period, other.intervals)

    def __hash__(self):
        return hash((self.period, self.intervals))

    # ---- construction ----------------------------------------------------
    @classmethod
    def make(cls, period: Endpoint, pairs: Iterable[Interval]) -> "PeriodicSet":
        """Canonicalize pairs already lying inside [0, period]."""
        # empty and inverted pairs drop out
        kept = [(lo, hi) for lo, hi in pairs if lo < hi]
        kept.sort(key=_start)
        merged: List[Interval] = []
        for lo, hi in kept:
            if merged and lo <= merged[-1][1]:
                plo, phi = merged[-1]
                merged[-1] = (plo, hi if hi > phi else phi)
            else:
                merged.append((lo, hi))
        # the first start is the least one and the last end the greatest
        if merged and (_negative(merged[0][0]) or merged[-1][1] > period):
            raise ValueError("interval endpoints must lie inside [0, period]")
        return cls(period, tuple(merged))

    @classmethod
    def from_wrapped(cls, period: Endpoint, pairs: Iterable[Interval]) -> "PeriodicSet":
        """Like make(), but intervals may live anywhere on the line; they are
        reduced mod period and split at the seam."""
        reduced: List[Interval] = []
        for lo, hi in pairs:
            # an empty or inverted pair keeps hi <= lo < period after the
            # reduction, so it is appended whole and make() drops it
            if hi - lo > period:
                raise ValueError("interval longer than one period")
            shift = lo // period if type(period) is int else floor_div(lo, period)
            lo = lo - shift * period
            hi = hi - shift * period
            if hi <= period:
                reduced.append((lo, hi))
            else:
                reduced.append((lo, period))
                reduced.append((_zero(period), hi - period))
        return cls.make(period, reduced)

    @classmethod
    def empty(cls, period: Endpoint) -> "PeriodicSet":
        return cls(period, ())

    @classmethod
    def full(cls, period: Endpoint) -> "PeriodicSet":
        return cls(period, ((_zero(period), period),))

    # ---- basic queries -----------------------------------------------------
    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def measure(self) -> Endpoint:
        total = _zero(self.period)
        for lo, hi in self.intervals:
            total = total + (hi - lo)
        return total

    def contains(self, t: Endpoint) -> bool:
        t = _mod(t, self.period)
        return any(lo <= t < hi for lo, hi in self.intervals)

    def components_cyclic(self) -> List[Interval]:
        """Components with the 0/period seam fused; a wrapped component is
        reported as (lo, hi) with hi > period."""
        ivs = list(self.intervals)
        # a single [0, period) is the full circle and stays as it is
        if len(ivs) >= 2 and ivs[0][0] == _zero(self.period) and ivs[-1][1] == self.period:
            first = ivs.pop(0)
            last = ivs.pop()
            ivs.append((last[0], first[1] + self.period))
        return ivs

    # ---- algebra -----------------------------------------------------------
    def _check(self, other: "PeriodicSet") -> None:
        if not isinstance(other, PeriodicSet):
            raise TypeError("expected a PeriodicSet")
        if other.period is not self.period and self.period != other.period:
            raise PeriodMismatch(
                f"periods differ: {self.period!r} vs {other.period!r}"
            )

    def _cut(self, lo: Endpoint, hi: Endpoint) -> List[Interval]:
        """The intervals meeting [lo, hi), clipped to it, for lo < hi: the one
        bisection of the class (ends and starts both increase), then a slice."""
        ivs = self.intervals
        i = bisect_right(ivs, lo, key=_end)  # first one ending past lo
        j = bisect_left(ivs, hi, i, key=_start)  # first one starting at hi or later
        out = list(ivs[i:j])
        if out:  # an endpoint equal to the window's is kept as it is
            out[0] = (max(out[0][0], lo), out[0][1])
            out[-1] = (out[-1][0], min(out[-1][1], hi))
        return out

    def restrict(self, lo: Endpoint, hi: Endpoint) -> "PeriodicSet":
        """Intersection with the single window [lo, hi), 0 <= lo <= hi <= period;
        an empty or inverted window gives the empty set."""
        if not lo < hi:
            return PeriodicSet(self.period, ())
        if _negative(lo) or hi > self.period:
            raise ValueError("interval endpoints must lie inside [0, period]")
        return PeriodicSet(self.period, tuple(self._cut(lo, hi)))

    def union(self, other: "PeriodicSet") -> "PeriodicSet":
        self._check(other)
        return PeriodicSet.make(self.period, self.intervals + other.intervals)

    def intersect(self, other: "PeriodicSet") -> "PeriodicSet":
        # the intervals of the smaller operand never touch: canonical pieces
        self._check(other)
        big, small = self, other
        if len(big.intervals) < len(small.intervals):
            big, small = small, big
        out: List[Interval] = []
        for lo, hi in small.intervals:
            out += big._cut(lo, hi)
        return PeriodicSet(self.period, tuple(out))

    def complement(self) -> "PeriodicSet":
        gaps: List[Interval] = []
        cursor = _zero(self.period)
        for lo, hi in self.intervals:
            if cursor < lo:
                gaps.append((cursor, lo))
            cursor = hi
        if cursor < self.period:
            gaps.append((cursor, self.period))
        return PeriodicSet(self.period, tuple(gaps))

    def minus(self, other: "PeriodicSet") -> "PeriodicSet":
        return self.intersect(other.complement())

    def shift(self, t: Endpoint) -> "PeriodicSet":
        """The set + t, reduced back into [0, period)."""
        s = _mod(t, self.period)
        moved: List[Interval] = []
        for lo, hi in self.intervals:
            nlo, nhi = lo + s, hi + s
            if nhi <= self.period:
                moved.append((nlo, nhi))
            elif nlo >= self.period:
                moved.append((nlo - self.period, nhi - self.period))
            else:
                moved.append((nlo, self.period))
                moved.append((_zero(self.period), nhi - self.period))
        return PeriodicSet.make(self.period, moved)

    def __repr__(self):
        body = " u ".join(f"[{_render(lo)},{_render(hi)})" for lo, hi in self.intervals)
        return f"PeriodicSet({body or 'empty'} mod {_render(self.period)})"


_set_period = PeriodicSet.period.__set__
_set_intervals = PeriodicSet.intervals.__set__

_RAT_ZERO = rat(0)


def _zero(period: Endpoint) -> Endpoint:
    """Zero as an endpoint of a set with this period."""
    return 0 if type(period) is int else _RAT_ZERO


def _negative(x: Endpoint) -> bool:
    return x < 0 if type(x) is int else x.sign() < 0


def _mod(t: Endpoint, period: Endpoint) -> Endpoint:
    return t % period if type(period) is int else mod(t, period)


def _render(x: Endpoint) -> str:
    return str(x) if type(x) is int else x.render()


Pair = Tuple[int, int]


class IntegerForm(NamedTuple):
    """a, b, c, c0 and c1 of a triple as integer pairs (X0, X1), each standing
    for (X0 + X1*tau)*beta, with one positive scale beta per triple.

    A triple with a/b = p/q and c/b rational has beta = b/(q*D), D the
    denominator of c in units of b/q (so D = 1 exactly when c sits on the
    b/q grid), and every X1 is 0: its values are whole numbers of beta, and
    so is every threshold the decisions compare.  Every other triple has
    beta = 1/L, L the least common multiple of the denominators of the
    coefficients of a, b and c; c0 = c - f*b and c1 = f*b - k*a are integer
    combinations of them (f and k are integers), so they need no other
    denominator.  beta > 0 and tau is irrational, so two pairs stand for
    one value exactly when they are equal, and an order is the exact sign
    of a pair difference (exactnum._sign), which settles a pair with X1 = 0
    on X0 alone.  Only `form_value` reads beta.  (beta is not divided out
    into b: Q + Q*pi is not a field.)"""

    ctx: NumberContext  # tau's: the join of the contexts of b and a, else of c and b
    beta: Tuple[int, int, int]  # (n0, n1, d) in lowest terms: beta = (n0 + n1*tau)/d
    A: Pair
    B: Pair
    C: Pair
    C0: Pair  # C - f*B
    C1: Pair  # f*B - k*A

    @property
    def integral(self) -> bool:
        """Every X1 is 0: a/b and c/b are rational, beta = b/(q*D)."""
        return not (self.A[1] or self.B[1] or self.C[1])


def form_value(form: IntegerForm, X: Pair, m: int = 1,
               ctx: Optional[NumberContext] = None) -> ExactReal:
    """The ExactReal (X0 + X1*tau)*beta/m in context ctx (the form's when
    None).  X1 and the tau coefficient of beta are never both nonzero: beta
    has one only when every X1 is 0."""
    x0, x1 = X
    n0, n1, d = form.beta
    d *= m
    return _make(ctx or form.ctx, Fraction(x0 * n0, d),
                 Fraction(x1 * n0 + x0 * n1, d) if x1 or n1 else _ZERO)


class NormalizedTriple:
    """(a, b, c) together with every derived quantity the classification
    uses, its region included: the diagram is walked once, on construction,
    and every consumer reads `region`.  `form` holds a, b, c, c0 and c1 as
    integer pairs over one positive scale (see IntegerForm); `c0` and `c1`
    are read off it as ExactReals when asked for, and the decisions read the
    pairs.  `normalize` alone builds a triple.  Immutable; every other field
    derives from (a, b, c), so two triples are equal (and hash alike) when
    those three are, and a pickle or a copy is `normalize(a, b, c)` again."""

    __slots__ = ("a", "b", "c", "floor_cb", "rational", "c_on_grid", "form", "region")

    def __init__(self, a: ExactReal, b: ExactReal, c: ExactReal, floor_cb: int,
                 rational: Optional[Tuple[int, int]],  # (p, q) coprime, a/b = p/q
                 c_on_grid: Optional[bool],  # c in bZ/q; None when a/b is irrational
                 *, form: IntegerForm):
        set_a, set_b, set_c, set_f, set_r, set_g, set_form, set_t = _SETTERS
        set_a(self, a)
        set_b(self, b)
        set_c(self, c)
        set_f(self, floor_cb)
        set_r(self, rational)
        set_g(self, c_on_grid)
        set_form(self, form)
        set_t(self, _walk_diagram(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"NormalizedTriple is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"NormalizedTriple is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return normalize, (self.a, self.b, self.c)

    def __eq__(self, other):
        if type(other) is not NormalizedTriple:
            return NotImplemented
        return (self.a, self.b, self.c) == (other.a, other.b, other.c)

    def __hash__(self):
        return hash((self.a, self.b, self.c))

    def __repr__(self):
        return (f"NormalizedTriple(a={self.a!r}, b={self.b!r}, c={self.c!r}, "
                f"floor_cb={self.floor_cb!r}, c0={self.c0!r}, c1={self.c1!r}, "
                f"rational={self.rational!r}, c_on_grid={self.c_on_grid!r}, "
                f"region={self.region!r})")

    @property
    def c0(self) -> ExactReal:
        """c - floor(c/b)*b, in the join of the contexts of c and b."""
        return form_value(self.form, self.form.C0, ctx=self.c._join(self.b))

    @property
    def c1(self) -> ExactReal:
        """floor(c/b)*b mod a, in the join of the contexts of b and a."""
        return form_value(self.form, self.form.C1, ctx=self.b._join(self.a))

    @property
    def is_rational(self) -> bool:
        return self.rational is not None


# the slot setters, in __slots__ order, past the immutable __setattr__
_SETTERS = tuple(getattr(NormalizedTriple, name).__set__ for name in NormalizedTriple.__slots__)


def normalize(a: ExactReal, b: ExactReal, c: ExactReal) -> NormalizedTriple:
    """The triple (a, b, c), each positive, with everything it derives.

    Each coefficient is read once as an integer ratio and all six are put
    over one denominator L.  f = floor(c/b) and k = floor(f*b/a) are pair
    floors (`_floor_pair` settles pairs with X1 = 0 on its parallel-pair
    line, with no enclosure), and a/b and c/b are read off the pairs.  The
    form is in units b/(q*D) when a/b and c/b are both rational, else in
    units 1/L.  The contexts are joined in the order that c - f*b, f*b - k*a
    and the walk's first compare, a against c, need them, so a mixed triple
    raises ContextMismatch at the first pair that does not join."""
    for v, name in ((a, "a"), (b, "b"), (c, "c")):
        if not isinstance(v, ExactReal):
            raise TypeError(f"{name} must be an ExactReal")
        # a value of the rational context has no tau coefficient; a rational
        # value is positive when its numerator is
        if (v.x0.numerator if v.ctx.kind == "rational" or not v.x1 else v.sign()) <= 0:
            raise NonPositiveInput(f"{name} must be positive, got {v!r}")
    (a0, e0), (a1, e1), (b0, e2), (b1, e3), (x0, e4), (x1, e5) = (
        a.x0.as_integer_ratio(), a.x1.as_integer_ratio(), b.x0.as_integer_ratio(),
        b.x1.as_integer_ratio(), c.x0.as_integer_ratio(), c.x1.as_integer_ratio())
    L = lcm(e0, e1, e2, e3, e4, e5)
    a0, a1, b0, b1 = a0 * (L // e0), a1 * (L // e1), b0 * (L // e2), b1 * (L // e3)
    x0, x1 = x0 * (L // e4), x1 * (L // e5)
    ctx0 = c._join(b)  # the context of c0
    f = _floor_pair(ctx0, x0, x1, b0, b1)
    ctx1 = b._join(a)  # the context of c1
    rational: Optional[Tuple[int, int]] = None
    on_grid: Optional[bool] = None
    form: Optional[IntegerForm] = None
    if a0 * b1 == a1 * b0:  # a/b is rational, the quotient of either coefficient
        n, d = (a1, b1) if b1 else (a0, b0)
        g = gcd(n, d) if d > 0 else -gcd(n, d)
        p, q = rational = (n // g, d // g)
        on_grid = False
        if x0 * b1 == x1 * b0:  # c/b is rational too: c/(b/q) = C/D in lowest terms
            n, d = (q * x1, b1) if b1 else (q * x0, b0)
            g = gcd(n, d) if d > 0 else -gcd(n, d)
            C, D = n // g, d // g
            on_grid = D == 1
            # the form in units beta = b/(q*D) = (b0 + b1*tau)/(L*B), in lowest
            # terms: a = p*D, b = B, c = C, c0 = C - f*B and c1 = D*(f*q mod p)
            B = q * D
            g = gcd(b0, b1, L * B)
            form = IntegerForm(ctx1, (b0 // g, b1 // g, L * B // g), (p * D, 0), (B, 0), (C, 0),
                               (C - f * B, 0), (D * (f * q % p), 0))
    if form is None:  # the form in units 1/L
        fb0, fb1 = f * b0, f * b1
        k = _floor_pair(ctx1, fb0, fb1, a0, a1)
        form = IntegerForm(ctx1 if ctx1.kind != "rational" else ctx0, (1, 0, L), (a0, a1),
                           (b0, b1), (x0, x1), (x0 - fb0, x1 - fb1), (fb0 - k * a0, fb1 - k * a1))
    a._join(c)  # the walk compares a against c first, so mixed contexts raise here
    return NormalizedTriple(a, b, c, f, rational, on_grid, form=form)


def grid_value(b: ExactReal, n: int, m: int) -> ExactReal:
    """b*n/m, one Fraction per coefficient of b, in b's context: the value
    b * Fraction(n, m) without the intermediate Fraction."""
    x0, x1 = b.x0, b.x1
    return _make(b.ctx, Fraction(x0.numerator * n, x0.denominator * m),
                 Fraction(x1.numerator * n, x1.denominator * m) if x1 else _ZERO)


def region_tag(nt: NormalizedTriple) -> RegionTag:
    """The region of a normalized triple (decided when it was built)."""
    return nt.region


def _walk_diagram(nt: NormalizedTriple) -> RegionTag:
    """Walk the classification diagram; every positive triple gets one tag.

    The operands are the integer pairs of the triple's form, and each order
    is the sign of a pair difference (d0, d1), beta > 0 scaling every
    operand alike: the sign of d0 when d1 is 0, as in every compare of an
    integral form, else the exact sign of the pair (exactnum._sign)."""
    ctx, _, (a0, a1), (b0, b1), (x0, x1), (y0, y1), (z0, z1) = nt.form
    d0, d1 = a0 - x0, a1 - x1  # a against c
    s = _sign(ctx, d0, 1, d1, 1) if d1 else d0
    if s > 0:
        return RegionTag.I
    if s == 0:
        return RegionTag.II
    ba0, ba1 = b0 - a0, b1 - a1  # b against a
    if (_sign(ctx, ba0, 1, ba1, 1) if ba1 else ba0) <= 0:
        return RegionTag.III
    d0, d1 = b0 - x0, b1 - x1  # b against c
    if (_sign(ctx, d0, 1, d1, 1) if d1 else d0) >= 0:
        return RegionTag.IV
    # now a < b < c
    d0, d1 = y0 - a0, y1 - a1  # c0 against a
    s = _sign(ctx, d0, 1, d1, 1) if d1 else d0
    d0, d1 = y0 - ba0, y1 - ba1  # c0 against b - a
    t = _sign(ctx, d0, 1, d1, 1) if d1 else d0
    if s >= 0:
        return RegionTag.V if t <= 0 else RegionTag.VI
    if t <= 0:
        return RegionTag.VII
    # now b - a < c0 < a
    if nt.floor_cb == 1:
        return RegionTag.VIII
    d0, d1 = z0 - a0 + ba0, z1 - a1 + ba1  # c1 against 2a - b
    s = _sign(ctx, d0, 1, d1, 1) if d1 else d0
    if s > 0:
        return RegionTag.IX
    if s == 0:
        return RegionTag.X
    if not (z0 or z1):
        return RegionTag.XI
    # now 0 < c1 < 2a - b
    if not nt.is_rational:
        return RegionTag.XII
    return RegionTag.XIII if nt.c_on_grid else RegionTag.XIV


def black_hole_R(nt: NormalizedTriple) -> Tuple[ExactReal, ExactReal]:
    """Fixed-interval [c0+a-b, c0) of the forward map, inside [0, a).  Its
    start is read off the form in the context of c0 + a, which joining b
    leaves as it is: normalize joined b with a and with c."""
    form, c0 = nt.form, nt.c0
    (y0, y1), (a0, a1), (b0, b1) = form.C0, form.A, form.B
    return form_value(form, (y0 + a0 - b0, y1 + a1 - b1), ctx=c0._join(nt.a)), c0


def black_hole_Rt(nt: NormalizedTriple) -> Tuple[ExactReal, ExactReal]:
    """Fixed interval of the backward map, reduced mod a: [c1, c1+b-a)."""
    c1 = nt.c1
    return c1, c1 + nt.b - nt.a
