"""The normalization that held a triple's integers in two shapes, kept as a
test oracle: the parent of `gaborbox.lattice`'s one integer form, and of
its region walk (`reference_exact.py` holds the oracle of that job).

    job             reference   tests
    normalize and   normalize   test_reference_exact.py's test_form_matches_two_shapes_*;
    region walk                 every region that reference_classifier.py decides

`GridUnits` held a, b, c, c0 and c1 as plain integers in units of b/(qD)
when a/b and c/b were rational (`NormalizedTriple.units`, computed from c/b
by `_units_of` on construction); `TauPairs` held them as integer pairs over
the denominator L for every other triple (`NormalizedTriple.pairs`, built by
`_normalize_on_pairs`); `_walk_diagram` wrote the region walk once per
shape.  They are copied unchanged from the code they replaced (only the
imports differ).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple, Optional, Tuple

from gaborbox.errors import NonPositiveInput
from gaborbox.exactnum import _ZERO, ExactReal, NumberContext, _floor_pair, _make, _sign
from gaborbox.lattice import RegionTag


class GridUnits(NamedTuple):
    """a, b, c, c0 and c1 of a triple with a/b = p/q and c/b rational, as
    integers in units of b/(q*D): D is the denominator of c in units of
    b/q, so D = 1 exactly when c sits on the b/q grid.  Every threshold
    the decisions compare is an integer in these units."""

    A: int  # p*D
    B: int  # q*D
    C: int
    C0: int  # C - f*B
    C1: int  # D*(f*q mod p)


Pair = Tuple[int, int]


class TauPairs(NamedTuple):
    """a, b, c, c0 and c1 of a triple without grid units as integer pairs
    (X0, X1), each standing for (X0 + X1*tau)/L: L is the least common
    multiple of the denominators of the coefficients of a, b and c, and
    c0 = c - f*b and c1 = f*b - k*a are integer combinations of them (f
    and k are integers), so they need no other denominator.  tau is
    irrational, so two pairs stand for one value exactly when they are
    equal, and an order is the exact sign of a pair difference
    (exactnum._sign)."""

    ctx: NumberContext  # tau's: the join of the contexts of a, b and c
    L: int
    A: Pair
    B: Pair
    C: Pair
    C0: Pair  # C - f*B
    C1: Pair  # f*B - k*A


def pair_value(X: Pair, L: int, ctx: NumberContext) -> ExactReal:
    """The ExactReal (X0 + X1*tau)/L in context ctx."""
    x0, x1 = X
    return _make(ctx, Fraction(x0, L), Fraction(x1, L) if x1 else _ZERO)


class NormalizedTriple:
    """(a, b, c) together with every derived quantity the classification
    uses, its region included: the diagram is walked once, on construction,
    and every consumer reads `region`.  `units` holds the triple in integer
    grid units when it has them (see GridUnits), else None; `pairs` holds
    it as integer pairs over one denominator exactly when it has no grid
    units (see TauPairs; normalize hands them over as `with_pairs`), else
    None.  Immutable; two triples are equal (and hash alike) when their
    eight given fields are, whatever they derive."""

    __slots__ = ("a", "b", "c", "floor_cb", "c0", "c1", "rational", "c_on_grid",
                 "units", "pairs", "region")

    def __init__(self, a: ExactReal, b: ExactReal, c: ExactReal, floor_cb: int,
                 c0: ExactReal, c1: ExactReal,
                 rational: Optional[Tuple[int, int]],  # (p, q) coprime, a/b = p/q
                 c_on_grid: Optional[bool],  # c in bZ/q; None when a/b is irrational
                 *, with_pairs: Optional[TauPairs] = None):
        set_a, set_b, set_c, set_f, set_c0, set_c1, set_r, set_g, set_u, set_p, set_t = _SETTERS
        set_a(self, a)
        set_b(self, b)
        set_c(self, c)
        set_f(self, floor_cb)
        set_c0(self, c0)
        set_c1(self, c1)
        set_r(self, rational)
        set_g(self, c_on_grid)
        units = _units_of(self)
        set_u(self, units)
        set_p(self, with_pairs if units is None else None)
        set_t(self, _walk_diagram(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"NormalizedTriple is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"NormalizedTriple is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return _rebuild_triple, (self._given(), self.pairs)

    def _given(self) -> tuple:
        return (self.a, self.b, self.c, self.floor_cb, self.c0, self.c1, self.rational,
                self.c_on_grid)

    def __eq__(self, other):
        if type(other) is not NormalizedTriple:
            return NotImplemented
        return self._given() == other._given()

    def __hash__(self):
        return hash(self._given())

    def __repr__(self):
        return (f"NormalizedTriple(a={self.a!r}, b={self.b!r}, c={self.c!r}, "
                f"floor_cb={self.floor_cb!r}, c0={self.c0!r}, c1={self.c1!r}, "
                f"rational={self.rational!r}, c_on_grid={self.c_on_grid!r}, "
                f"units={self.units!r}, region={self.region!r})")

    @property
    def is_rational(self) -> bool:
        return self.rational is not None


# the slot setters, in __slots__ order, past the immutable __setattr__
_SETTERS = tuple(getattr(NormalizedTriple, name).__set__ for name in NormalizedTriple.__slots__)


def _rebuild_triple(given: tuple, pairs: Optional[TauPairs]) -> NormalizedTriple:
    """The triple that pickles and copies rebuild, its pairs carried over."""
    return NormalizedTriple(*given, with_pairs=pairs)


def _units_of(nt: NormalizedTriple) -> Optional[GridUnits]:
    if nt.rational is None:
        return None
    b, c = nt.b, nt.c
    if b.x1 or c.x1:
        cb = c.ratio(b)
        if cb is None:
            return None
        n, d = cb.numerator, cb.denominator
    else:  # c/b = n/d straight from the coefficients
        n, d = c.x0.numerator * b.x0.denominator, c.x0.denominator * b.x0.numerator
    p, q = nt.rational
    n *= q  # c/(b/q) = n/d = C/D
    g = gcd(n, d)
    C, D = n // g, d // g
    B, f = q * D, nt.floor_cb
    return GridUnits(p * D, B, C, C - f * B, D * (f * q % p))


def normalize(a: ExactReal, b: ExactReal, c: ExactReal) -> NormalizedTriple:
    for v, name in ((a, "a"), (b, "b"), (c, "c")):
        if not isinstance(v, ExactReal):
            raise TypeError(f"{name} must be an ExactReal")
        if v.sign() <= 0:
            raise NonPositiveInput(f"{name} must be positive, got {v!r}")
    if not (a.x1 or b.x1 or c.x1):
        # all three rational: the same quantities straight from the integer
        # numerators and denominators of the coefficients
        an, ad = a.x0.numerator, a.x0.denominator
        bn, bd = b.x0.numerator, b.x0.denominator
        cn, cd = c.x0.numerator, c.x0.denominator
        fcb, r = divmod(cn * bd, cd * bn)  # c/b = fcb + r/(cd*bn)
        c0 = _make(c._join(b), Fraction(r, cd * bd), _ZERO)  # c - fcb*b
        c1 = _make(b._join(a), Fraction(fcb * bn * ad % (an * bd), bd * ad), _ZERO)
        a._join(c)  # the walk compares grid units, so mixed contexts raise here
        n, d = an * bd, ad * bn  # a/b
        g = gcd(n, d)
        q = d // g
        rational, on_grid = (n // g, q), not cn * bd * q % (cd * bn)
        return NormalizedTriple(a, b, c, fcb, c0, c1, rational, on_grid)
    return _normalize_on_pairs(a, b, c)


def _normalize_on_pairs(a: ExactReal, b: ExactReal, c: ExactReal) -> NormalizedTriple:
    """normalize for a triple with a tau coefficient: a, b and c as integer
    pairs over L (TauPairs), f = floor(c/b) and k = floor(f*b/a) by the
    pair floor, and c0, c1, a/b and c/b read off the pairs.  The contexts
    are joined where c - f*b, f*b - k*a and the walk's first compare, a
    against c, join them, so a mixed triple raises there as it always has."""
    coeffs = (a.x0, a.x1, b.x0, b.x1, c.x0, c.x1)
    L = lcm(*(x.denominator for x in coeffs))
    a0, a1, b0, b1, x0, x1 = (x.numerator * (L // x.denominator) for x in coeffs)
    ctx0 = c._join(b)  # the context of c0
    f = _floor_pair(ctx0, x0, x1, b0, b1)
    ctx1 = b._join(a)  # the context of c1
    fb0, fb1 = f * b0, f * b1
    k = _floor_pair(ctx1, fb0, fb1, a0, a1)
    a._join(c)
    P = TauPairs(ctx1 if ctx1.kind != "rational" else ctx0, L, (a0, a1), (b0, b1), (x0, x1),
                 (x0 - fb0, x1 - fb1), (fb0 - k * a0, fb1 - k * a1))
    rational: Optional[Tuple[int, int]] = None
    on_grid: Optional[bool] = None
    if a0 * b1 == a1 * b0:  # a/b is rational, the quotient of either coefficient
        ratio = Fraction(a1, b1) if b1 else Fraction(a0, b0)
        q = ratio.denominator
        rational = (ratio.numerator, q)
        # c/b rational and a whole number of steps 1/q
        on_grid = x0 * b1 == x1 * b0 and not (x1 * q % b1 if b1 else x0 * q % b0)
    return NormalizedTriple(a, b, c, f, pair_value(P.C0, L, ctx0), pair_value(P.C1, L, ctx1),
                            rational, on_grid, with_pairs=P)


def _walk_diagram(nt: NormalizedTriple) -> RegionTag:
    """Walk the classification diagram; every positive triple gets one tag.

    The operands are the integer grid units when the triple has them, else
    its integer pairs over L, where each order is the exact sign of a pair
    difference: the same comparisons, in the same order, decide either way."""
    u = nt.units
    if u is not None:
        a, b, c, c0, c1 = u
        if a > c:
            return RegionTag.I
        if a == c:
            return RegionTag.II
        # now a < c
        if b <= a:
            return RegionTag.III
        if b >= c:
            return RegionTag.IV
        # now a < b < c
        ba = b - a
        if c0 >= a:
            return RegionTag.V if c0 <= ba else RegionTag.VI
        if c0 <= ba:
            return RegionTag.VII
        # now b - a < c0 < a
        if nt.floor_cb == 1:
            return RegionTag.VIII
        two_a_b = a + a - b
        if c1 > two_a_b:
            return RegionTag.IX
        if c1 == two_a_b:
            return RegionTag.X
        if c1 == 0:
            return RegionTag.XI
    else:
        ctx, _, (a0, a1), (b0, b1), (x0, x1), (y0, y1), (z0, z1) = nt.pairs
        s = _sign(ctx, a0 - x0, 1, a1 - x1, 1)  # a against c
        if s > 0:
            return RegionTag.I
        if s == 0:
            return RegionTag.II
        if _sign(ctx, b0 - a0, 1, b1 - a1, 1) <= 0:
            return RegionTag.III
        if _sign(ctx, b0 - x0, 1, b1 - x1, 1) >= 0:
            return RegionTag.IV
        ba0, ba1 = b0 - a0, b1 - a1
        if _sign(ctx, y0 - a0, 1, y1 - a1, 1) >= 0:  # c0 against a, then b - a
            return RegionTag.V if _sign(ctx, y0 - ba0, 1, y1 - ba1, 1) <= 0 else RegionTag.VI
        if _sign(ctx, y0 - ba0, 1, y1 - ba1, 1) <= 0:
            return RegionTag.VII
        if nt.floor_cb == 1:
            return RegionTag.VIII
        s = _sign(ctx, z0 - a0 + ba0, 1, z1 - a1 + ba1, 1)  # c1 against 2a - b
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
