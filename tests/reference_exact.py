"""The exact-number core that the `__slots__` ExactReal replaced, kept as a
test oracle: the simplest transcription of the number core, and of the
normalization and region walk on it.

    job             references                  tests (test_reference_exact.py)
    exact numbers   ExactReal, rat, floor_div,  test_*_operations_match_old_core,
                    mod, _sign                  test_pi_sign_*, test_floor_div_near_*
    normalize and   normalize, region_tag       test_normalize_and_region_tag_*
    region walk     reference_shapes.normalize  test_form_matches_two_shapes_*

`ExactReal` is the frozen-dataclass value class with its arithmetic,
comparisons and rendering; `rat`, `floor_div` and `mod` build and reduce
it; `_sign` and `_interval` take the sign of n0/d0 + (n1/d1)*tau through
`Fraction` interval arithmetic on the pi enclosure.  `NormalizedTriple` is
the eight-field triple without the region field, and `normalize` and
`region_tag` the diagram walk that took signs of differences.  They are
copied unchanged from the code they replaced (only the imports differ).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple, Union

from gaborbox.errors import (
    ContextMismatch,
    NonPositiveInput,
    NonPositiveModulus,
    OracleInconsistency,
)
from gaborbox.exactnum import RATIONAL, NumberContext
from gaborbox.lattice import RegionTag

RationalLike = Union[int, Fraction]


def rat(x: RationalLike) -> "ExactReal":
    """Shorthand for a rational-context value."""
    return ExactReal(RATIONAL, Fraction(x), Fraction(0))


@dataclass(frozen=True)
class ExactReal:
    """x0 + x1*tau with exact rational coefficients; immutable."""

    ctx: NumberContext
    x0: Fraction
    x1: Fraction

    def __post_init__(self):
        if self.ctx.kind == "rational" and self.x1 != 0:
            raise ContextMismatch("rational context cannot carry a tau coefficient")

    # -- plumbing ----------------------------------------------------------
    def _join(self, other: "ExactReal") -> NumberContext:
        if self.ctx != other.ctx:
            # a pure rational is welcome in any context
            if self.ctx.kind == "rational":
                return other.ctx
            if other.ctx.kind == "rational":
                return self.ctx
            raise ContextMismatch(f"cannot mix {self.ctx!r} with {other.ctx!r}")
        return self.ctx

    def _coerce(self, other) -> "ExactReal":
        if isinstance(other, ExactReal):
            return other
        if isinstance(other, (int, Fraction)):
            return ExactReal(RATIONAL, Fraction(other), Fraction(0))
        return NotImplemented

    # -- ring operations ---------------------------------------------------
    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        ctx = self._join(o)
        return ExactReal(ctx, self.x0 + o.x0, self.x1 + o.x1)

    __radd__ = __add__

    def __neg__(self):
        return ExactReal(self.ctx, -self.x0, -self.x1)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self.__add__(-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o.__sub__(self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        ctx = self._join(o)
        cross = self.x0 * o.x1 + self.x1 * o.x0
        if self.x1 != 0 and o.x1 != 0:
            if ctx.kind == "surd":
                return ExactReal(ctx, self.x0 * o.x0 + self.x1 * o.x1 * ctx.d, cross)
            raise ValueError("product of two pi-terms leaves the linear form")
        return ExactReal(ctx, self.x0 * o.x0, cross)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        ctx = self._join(o)
        if o.x0 == 0 and o.x1 == 0:
            raise ZeroDivisionError("division by exact zero")
        if o.x1 == 0:
            return ExactReal(ctx, self.x0 / o.x0, self.x1 / o.x0)
        if ctx.kind == "surd":
            # multiply by the conjugate; the norm x0^2 - d*x1^2 is a nonzero rational
            norm = o.x0 * o.x0 - ctx.d * o.x1 * o.x1
            num = self * ExactReal(ctx, o.x0, -o.x1)
            return ExactReal(ctx, num.x0 / norm, num.x1 / norm)
        q = self.ratio(o)
        if q is None:
            raise ValueError("quotient leaves the linear form over pi")
        return ExactReal(ctx, q, Fraction(0))

    def ratio(self, other: "ExactReal") -> Optional[Fraction]:
        """self/other as an exact Fraction, or None if the quotient is not rational."""
        o = self._coerce(other)
        self._join(o)
        if o.x0 == 0 and o.x1 == 0:
            raise ZeroDivisionError("ratio with exact zero")
        if o.x1 == 0:
            if self.x1 != 0:
                return None
            return self.x0 / o.x0
        if o.x0 == 0:
            if self.x0 != 0:
                return None
            return self.x1 / o.x1
        if self.x0 == 0 and self.x1 == 0:
            return Fraction(0)
        q = self.x1 / o.x1
        if self.x0 == q * o.x0:
            return q
        return None

    # -- decisions ----------------------------------------------------------
    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}; refines the pi enclosure as needed."""
        if self.x1 == 0:
            return _sgn(self.x0)
        if self.x0 == 0:
            return _sgn(self.x1)  # tau > 0 for every supported basis
        s0, s1 = _sgn(self.x0), _sgn(self.x1)
        if s0 == s1:
            return s0
        if self.ctx.kind == "surd":
            lhs = self.x0 * self.x0
            rhs = self.x1 * self.x1 * self.ctx.d
            if lhs == rhs:
                raise OracleInconsistency(
                    "sqrt(d) compared equal to a rational; context is corrupt"
                )
            return s0 if lhs > rhs else s1
        # pi context: refine until the interval excludes zero
        while True:
            lo, hi = self.interval()
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            self.ctx.refine()

    def interval(self) -> Tuple[Fraction, Fraction]:
        """Rational interval containing the value, at current enclosure precision."""
        if self.x1 == 0 or self.ctx.kind == "rational":
            return self.x0, self.x0
        tlo, thi = self.ctx.enclosure()
        if self.x1 > 0:
            return self.x0 + self.x1 * tlo, self.x0 + self.x1 * thi
        return self.x0 + self.x1 * thi, self.x0 + self.x1 * tlo

    def __float__(self):
        lo, hi = self.interval()
        return float((lo + hi) / 2)

    def is_zero(self) -> bool:
        return self.x0 == 0 and self.x1 == 0

    # -- order --------------------------------------------------------------
    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        self._join(o)
        return self.x0 == o.x0 and self.x1 == o.x1

    def __hash__(self):
        # a rational value equals its copy in every context, so it must hash
        # like that copy (and like the plain Fraction)
        if self.x1 == 0:
            return hash(self.x0)
        return hash((self.ctx, self.x0, self.x1))

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    # -- rendering ----------------------------------------------------------
    def render(self) -> str:
        """Canonical expression string; parse_number round-trips it."""
        parts = []
        if self.x0 != 0 or self.x1 == 0:
            parts.append(_render_fraction(self.x0))
        if self.x1 != 0:
            basis = self.ctx.basis_symbol
            mag = abs(self.x1)
            term = basis if mag == 1 else f"{_render_fraction(mag)}*{basis}"
            if not parts:
                parts.append(term if self.x1 > 0 else f"-{term}")
            else:
                parts.append(f"+{term}" if self.x1 > 0 else f"-{term}")
        return "".join(parts)

    def __repr__(self):
        return f"ExactReal({self.render()})"


def _sgn(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _render_fraction(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def floor_div(t: ExactReal, a: ExactReal) -> int:
    """The unique integer k with k*a <= t < (k+1)*a, for a > 0; exact."""
    if not isinstance(t, ExactReal):
        t = rat(t)
    if not isinstance(a, ExactReal):
        a = rat(a)
    if a.sign() <= 0:
        raise NonPositiveModulus(f"floor_div modulus {a!r} is not positive")
    ctx = t._join(a)
    if t.x1 == 0 and a.x1 == 0:
        return (t.x0 / a.x0).__floor__()
    q = t.ratio(a)
    if q is not None:
        return q.__floor__()
    # interval estimate, then exact certification of the candidate
    while True:
        tlo, thi = t.interval()
        alo, ahi = a.interval()
        if alo <= 0:
            ctx.refine()
            continue
        k_lo = (tlo / ahi).__floor__()
        k_hi = (thi / alo).__floor__()
        if k_hi - k_lo <= 1:
            for k in (k_hi, k_lo):
                if (t - k * a).sign() >= 0 and (t - (k + 1) * a).sign() < 0:
                    return k
            raise OracleInconsistency("floor_div certification failed for both candidates")
        ctx.refine()


def mod(t: ExactReal, a: ExactReal) -> ExactReal:
    """t reduced into [0, a)."""
    return t - floor_div(t, a) * a



@dataclass(frozen=True)
class NormalizedTriple:
    """(a, b, c) together with every derived quantity the classification uses."""

    a: ExactReal
    b: ExactReal
    c: ExactReal
    floor_cb: int
    c0: ExactReal
    c1: ExactReal
    rational: Optional[Tuple[int, int]]  # (p, q) coprime, a/b = p/q
    c_on_grid: Optional[bool]  # c in bZ/q; None when a/b is irrational

    @property
    def is_rational(self) -> bool:
        return self.rational is not None


def normalize(a: ExactReal, b: ExactReal, c: ExactReal) -> NormalizedTriple:
    for v, name in ((a, "a"), (b, "b"), (c, "c")):
        if not isinstance(v, ExactReal):
            raise TypeError(f"{name} must be an ExactReal")
        if v.sign() <= 0:
            raise NonPositiveInput(f"{name} must be positive, got {v!r}")
    fcb = floor_div(c, b)
    c0 = c - fcb * b
    k = floor_div(fcb * b, a)
    c1 = fcb * b - k * a
    ratio = a.ratio(b)
    rational: Optional[Tuple[int, int]] = None
    on_grid: Optional[bool] = None
    if ratio is not None:
        p, q = ratio.numerator, ratio.denominator
        rational = (p, q)
        cb = c.ratio(b)
        on_grid = cb is not None and (cb * q).denominator == 1
    return NormalizedTriple(a, b, c, fcb, c0, c1, rational, on_grid)


def region_tag(nt: NormalizedTriple) -> RegionTag:
    """Walk the classification diagram; every positive triple gets one tag."""
    a, b, c = nt.a, nt.b, nt.c
    ac = (a - c).sign()
    if ac > 0:
        return RegionTag.I
    if ac == 0:
        return RegionTag.II
    # now a < c
    if (b - a).sign() <= 0:
        return RegionTag.III
    if (b - c).sign() >= 0:
        return RegionTag.IV
    # now a < b < c
    c0, c1 = nt.c0, nt.c1
    ba = b - a
    if (c0 - a).sign() >= 0:
        return RegionTag.V if (c0 - ba).sign() <= 0 else RegionTag.VI
    if (c0 - ba).sign() <= 0:
        return RegionTag.VII
    # now b - a < c0 < a
    if nt.floor_cb == 1:
        return RegionTag.VIII
    two_a_b = a + a - b
    s = (c1 - two_a_b).sign()
    if s > 0:
        return RegionTag.IX
    if s == 0:
        return RegionTag.X
    if c1.is_zero():
        return RegionTag.XI
    # now 0 < c1 < 2a - b
    if not nt.is_rational:
        return RegionTag.XII
    return RegionTag.XIII if nt.c_on_grid else RegionTag.XIV


def _sign(ctx: NumberContext, n0: int, d0: int, n1: int, d1: int) -> int:
    """Exact sign of n0/d0 + (n1/d1)*tau for d0, d1 > 0, in integers as far
    as a surd goes; shared by ExactReal.sign and ExactReal._cmp."""
    s0, s1 = (n0 > 0) - (n0 < 0), (n1 > 0) - (n1 < 0)
    if s0 == s1 or not s1:
        return s0
    if not s0:
        return s1  # tau > 0 for every supported basis
    if ctx.kind == "surd":
        # |x0| against |x1|*sqrt(d), squared and cleared of denominators
        lhs = n0 * n0 * d1 * d1
        rhs = n1 * n1 * ctx.d * d0 * d0
        if lhs == rhs:
            raise OracleInconsistency(
                "sqrt(d) compared equal to a rational; context is corrupt"
            )
        return s0 if lhs > rhs else s1
    # pi context: refine until the interval excludes zero
    x0, x1 = Fraction(n0, d0), Fraction(n1, d1)
    while True:
        lo, hi = _interval(ctx, x0, x1)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        ctx.refine()


def _interval(ctx: NumberContext, x0: Fraction, x1: Fraction) -> Tuple[Fraction, Fraction]:
    if not x1 or ctx.kind == "rational":
        return x0, x0
    tlo, thi = ctx.enclosure()
    if x1 > 0:
        return x0 + x1 * tlo, x0 + x1 * thi
    return x0 + x1 * thi, x0 + x1 * tlo
