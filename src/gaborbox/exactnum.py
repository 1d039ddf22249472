"""Exact arithmetic on linear forms x0 + x1*tau over one declared irrational.

Every scalar the engine touches is an ExactReal: a pair of Fractions (x0, x1)
read as x0 + x1*tau, where tau is fixed by a NumberContext and is either
absent (rational context), a quadratic surd sqrt(d), or pi.  No decision path
ever consults floating point: sign queries over a surd are settled
algebraically, and sign queries over pi refine a certified rational enclosure
until the interval for the value excludes zero (which always happens unless
the value is exactly zero, detected coefficient-wise).
"""

from __future__ import annotations

import functools
import math
import threading
from fractions import Fraction
from typing import Optional, Tuple, Union

from .errors import (
    ContextMismatch,
    NonPositiveModulus,
    OracleInconsistency,
    PrecisionExhausted,
    UnsupportedRange,
)

RationalLike = Union[int, Fraction]

# an enclosure starts at 64 bits and doubles up to 4096 (six refinements)
_PI_START_BITS = 64
_MAX_BITS = 4096

# square_free_decompose trial-divides, about sqrt(D) steps
_MAX_RADICAND = 10**12


def check_radicand(d: int) -> None:
    """UnsupportedRange for a radicand too large to factor by trial division."""
    if d > _MAX_RADICAND:
        raise UnsupportedRange(
            f"sqrt argument must be at most 10**12, got a {d.bit_length()}-bit integer"
        )


def square_free_decompose(n: int) -> Tuple[int, int]:
    """Write n = s*s*d with d square-free; returns (s, d)."""
    if n <= 0:
        raise ValueError("square_free_decompose needs a positive integer")
    s, d, f = 1, 1, 2
    m = n
    while f * f <= m:
        e = 0
        while m % f == 0:
            m //= f
            e += 1
        s *= f ** (e // 2)
        if e % 2:
            d *= f
        f += 1
    d *= m
    return s, d


def _arctan_inv(x: int, scale: int) -> Tuple[int, int]:
    """(s, n) with |s - scale*arctan(1/x)| < n, for an integer x >= 2.

    Term k of arctan(1/x) = sum (-1)**k / ((2k+1) * x**(2k+1)) is taken as
    the floor of scale times it (nested floor divisions by positive integers
    give the floor of the exact quotient), so each kept term is low by less
    than one unit.  The sum stops at the first k with scale < x**(2k+1):
    that term is below one unit, and the alternating tail it starts is no
    larger.  With K terms kept the error is under K + 1 units.
    """
    power = scale // x  # floor(scale / x**(2k+1))
    x2 = x * x
    total = k = 0
    while power:
        term = power // (2 * k + 1)
        total += -term if k & 1 else term
        power //= x2
        k += 1
    return total, k + 1


def _pi_enclosure(bits: int) -> Tuple[Fraction, Fraction]:
    """Certified rational interval lo < pi < hi with hi - lo <= 2**-bits.

    Machin's formula pi = 16*arctan(1/5) - 4*arctan(1/239), summed in
    integers at scale 2**(bits + 20), is within err = 16*n5 + 4*n239 units
    of pi*scale (n5, n239 from _arctan_inv); lo and hi sit err units either
    side.  With B = bits + 20 the two series keep at most B/4.64 + 1/2 and
    B/15.8 + 1/2 terms, so 2*err < 8*B + 80, which is below 2**20 for bits
    up to 100,000 (the refine cap is 4096): hi - lo = 2*err/scale <= 2**-bits.
    """
    scale = 1 << (bits + 20)
    s5, n5 = _arctan_inv(5, scale)
    s239, n239 = _arctan_inv(239, scale)
    mid = 16 * s5 - 4 * s239
    err = 16 * n5 + 4 * n239
    return Fraction(mid - err, scale), Fraction(mid + err, scale)


# every pi context starts from this one enclosure and refines its own copy
_PI_START = _pi_enclosure(_PI_START_BITS)


def _sqrt_enclosure(d: int, bits: int) -> Tuple[Fraction, Fraction]:
    """Certified rational interval containing sqrt(d), width 2**-bits."""
    scale = 1 << bits
    n = math.isqrt(d * scale * scale)
    return Fraction(n, scale), Fraction(n + 1, scale)


# every surd context of one square-free d starts from one enclosure, as pi
# contexts do from _PI_START; at most _SURD_STARTS_HELD radicands are held,
# the least recently used making way for a new one
_SURD_STARTS_HELD = 64


@functools.lru_cache(maxsize=_SURD_STARTS_HELD)
def _surd_start(d: int) -> Tuple[Fraction, Fraction]:
    """The start enclosure of sqrt(d), held per d."""
    return _sqrt_enclosure(d, _PI_START_BITS)


class NumberContext:
    """The base irrational tau that ExactReal coefficients multiply.

    kind is one of "rational", "surd" (tau = sqrt(d), d square-free >= 2) or
    "pi".  A radicand that makes no surd context raises UnsupportedRange.
    An irrational context holds a refinable enclosure, built at its start
    width here; reading it takes no lock, and refinement is locked so values
    can be shared across worker threads.
    """

    def __init__(self, kind: str, d: Optional[int] = None):
        if kind not in ("rational", "surd", "pi"):
            raise ValueError(f"unknown context kind {kind!r}")
        enclosure = _PI_START if kind == "pi" else None
        if kind == "surd":
            if d is None or d < 2:
                raise UnsupportedRange(f"sqrt context needs an integer >= 2, got {d}")
            check_radicand(d)
            d0 = square_free_decompose(d)[1]
            if d0 == 1:
                raise UnsupportedRange(f"sqrt:{d} is rational; use the rational context")
            # the context itself always carries the square-free part
            d = d0
            enclosure = _surd_start(d)
        else:
            d = None
        self.kind = kind
        self.d = d
        self._bits = _PI_START_BITS
        self._lock = threading.Lock()
        self._enclosure = enclosure

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_lock"]  # locks cannot cross process boundaries
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # -- identity ----------------------------------------------------------
    def __eq__(self, other):
        return (
            isinstance(other, NumberContext)
            and self.kind == other.kind
            and self.d == other.d
        )

    def __hash__(self):
        return hash((self.kind, self.d))

    def __repr__(self):
        if self.kind == "surd":
            return f"NumberContext(surd, d={self.d})"
        return f"NumberContext({self.kind})"

    @property
    def basis_symbol(self) -> str:
        if self.kind == "pi":
            return "pi"
        if self.kind == "surd":
            return f"sqrt({self.d})"
        raise ValueError("rational context has no irrational basis")

    # -- enclosure ---------------------------------------------------------
    def enclosure(self) -> Tuple[Fraction, Fraction]:
        """Current certified interval for tau."""
        if self.kind == "rational":
            raise ValueError("rational context has no enclosure")
        return self._enclosure

    def refine(self) -> Tuple[Fraction, Fraction]:
        """Halve (at least) the enclosure width; PrecisionExhausted past the cap."""
        if self.kind == "rational":
            raise ValueError("rational context has no enclosure")
        with self._lock:
            if self._bits * 2 > _MAX_BITS:
                raise PrecisionExhausted(
                    f"enclosure for {self.basis_symbol} already at {self._bits} bits "
                    f"(cap {_MAX_BITS})"
                )
            self._bits *= 2
            self._enclosure = (_pi_enclosure(self._bits) if self.kind == "pi"
                               else _sqrt_enclosure(self.d, self._bits))
            return self._enclosure

    # -- construction ------------------------------------------------------
    def num(self, x0: RationalLike = 0, x1: RationalLike = 0) -> "ExactReal":
        return ExactReal(self, _fraction(x0), _fraction(x1))


RATIONAL = NumberContext("rational")


def pi_context() -> NumberContext:
    return NumberContext("pi")


def surd_context(d: int) -> NumberContext:
    return NumberContext("surd", d=d)


def rat(x: RationalLike) -> "ExactReal":
    """Shorthand for a rational-context value."""
    return _make(RATIONAL, _fraction(x), _ZERO)


def _fraction(x: RationalLike) -> Fraction:
    """x as a Fraction, the very object when it is one: Fraction(x) of a
    Fraction reruns the pure-Python constructor.  An int (bool included) or
    a Fraction subclass converts; any other type raises TypeError, so no
    float, string or Decimal enters as an exact value."""
    if type(x) is Fraction:
        return x
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise TypeError(f"an exact value takes an int or a Fraction, not {type(x).__name__}")


# the tau coefficient of results known to be rational; Fractions are
# immutable, so one instance serves them all
_ZERO = Fraction(0)


class ExactReal:
    """x0 + x1*tau with exact rational coefficients; immutable.

    ExactReal(ctx, x0, x1) is the validating constructor.  Results of the
    arithmetic come from the unchecked `_make`, whose context is either the
    join of the operands' contexts or carries a zero tau coefficient.
    """

    __slots__ = ("ctx", "x0", "x1")

    def __init__(self, ctx: NumberContext, x0: Fraction, x1: Fraction):
        if ctx.kind == "rational" and x1 != 0:
            raise ContextMismatch("rational context cannot carry a tau coefficient")
        _set_ctx(self, ctx)
        _set_x0(self, x0)
        _set_x1(self, x1)

    def __setattr__(self, name, value):
        raise AttributeError(f"ExactReal is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"ExactReal is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return ExactReal, (self.ctx, self.x0, self.x1)

    # -- plumbing ----------------------------------------------------------
    def _join(self, other: "ExactReal") -> NumberContext:
        ctx, octx = self.ctx, other.ctx
        # a pure rational is welcome in any context
        if ctx is octx or ctx == octx or octx.kind == "rational":
            return ctx
        if ctx.kind == "rational":
            return octx
        raise ContextMismatch(f"cannot mix {ctx!r} with {octx!r}")

    def _coerce(self, other) -> "ExactReal":
        if isinstance(other, ExactReal):
            return other
        if type(other) is Fraction:
            return _make(RATIONAL, other, _ZERO)
        if isinstance(other, (int, Fraction)):
            return _make(RATIONAL, Fraction(other), _ZERO)
        return NotImplemented

    # -- ring operations ---------------------------------------------------
    # A zero tau coefficient is passed through (or replaced by _ZERO) rather
    # than computed: most values the engine builds are rational.
    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        ctx = self._join(o)
        x1, y1 = self.x1, o.x1
        return _make(ctx, self.x0 + o.x0, x1 + y1 if x1 and y1 else x1 or y1)

    __radd__ = __add__

    def __neg__(self):
        x1 = self.x1
        return _make(self.ctx, -self.x0, -x1 if x1 else _ZERO)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        ctx = self._join(o)
        x1, y1 = self.x1, o.x1
        return _make(ctx, self.x0 - o.x0, (x1 - y1 if x1 else -y1) if y1 else x1)

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
        x0, x1, y0, y1 = self.x0, self.x1, o.x0, o.x1
        if not x1:
            return _make(ctx, x0 * y0, x0 * y1 if y1 else _ZERO)
        if not y1:
            return _make(ctx, x0 * y0, x1 * y0)
        if ctx.kind == "surd":
            return _make(ctx, x0 * y0 + x1 * y1 * ctx.d, x0 * y1 + x1 * y0)
        raise ValueError("product of two pi-terms leaves the linear form")

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        ctx = self._join(o)
        x0, x1, y0, y1 = self.x0, self.x1, o.x0, o.x1
        if not y1:
            if not y0:
                raise ZeroDivisionError("division by exact zero")
            return _make(ctx, x0 / y0, x1 / y0 if x1 else _ZERO)
        if ctx.kind == "surd":
            # multiply by the conjugate; the norm y0^2 - d*y1^2 is a nonzero rational
            d = ctx.d
            norm = y0 * y0 - d * y1 * y1
            return _make(ctx, (x0 * y0 - x1 * y1 * d) / norm, (x1 * y0 - x0 * y1) / norm)
        q = self.ratio(o)
        if q is None:
            raise ValueError("quotient leaves the linear form over pi")
        return _make(ctx, q, _ZERO)

    def ratio(self, other: "ExactReal") -> Optional[Fraction]:
        """self/other as an exact Fraction, or None if the quotient is not rational."""
        o = self._coerce(other)
        self._join(o)
        x0, x1, y0, y1 = self.x0, self.x1, o.x0, o.x1
        if not y1:
            if not y0:
                raise ZeroDivisionError("ratio with exact zero")
            return None if x1 else x0 / y0
        if not y0:
            return None if x0 else x1 / y1
        if not x0 and not x1:
            return _ZERO
        q = x1 / y1
        return q if x0 == q * y0 else None

    # -- decisions ----------------------------------------------------------
    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}; refines the pi enclosure as needed."""
        x0, x1 = self.x0, self.x1
        if not x1:
            return _sgn(x0)
        return _sign(self.ctx, x0.numerator, x0.denominator, x1.numerator, x1.denominator)

    def interval(self) -> Tuple[Fraction, Fraction]:
        """Rational interval containing the value, at current enclosure precision."""
        return _interval(self.ctx, self.x0, self.x1)

    def __float__(self):
        if not self.x1:  # the enclosure would be [x0, x0], whose midpoint is x0
            return float(self.x0)
        lo, hi = self.interval()
        return float((lo + hi) / 2)

    def is_zero(self) -> bool:
        return not self.x0 and not self.x1

    # -- order --------------------------------------------------------------
    def _cmp(self, other: "ExactReal") -> int:
        """sign(self - other) in {-1, 0, +1}, without building the difference."""
        ctx = self._join(other)
        # the coefficients of the difference, as integer numerators over
        # (unreduced) positive denominators
        x0, x1, y0, y1 = self.x0, self.x1, other.x0, other.x1
        n0 = x0.numerator * y0.denominator - y0.numerator * x0.denominator
        if x1 is y1:  # one shared tau coefficient (often the zero) cancels
            return (n0 > 0) - (n0 < 0)
        n1 = x1.numerator * y1.denominator - y1.numerator * x1.denominator
        return _sign(ctx, n0, x0.denominator * y0.denominator,
                     n1, x1.denominator * y1.denominator)

    def __eq__(self, other):
        # a rational value is one number in every context; a tau coefficient
        # means the same only over the same tau
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.x0 == o.x0 and self.x1 == o.x1 and (not self.x1 or self.ctx == o.ctx)

    def __hash__(self):
        # a rational value equals its copy in every context, so it must hash
        # like that copy (and like the plain Fraction)
        if not self.x1:
            return hash(self.x0)
        return hash((self.ctx, self.x0, self.x1))

    def __lt__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self._cmp(o) < 0

    def __le__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self._cmp(o) <= 0

    def __gt__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self._cmp(o) > 0

    def __ge__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self._cmp(o) >= 0

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


_new = object.__new__
_set_ctx = ExactReal.ctx.__set__
_set_x0 = ExactReal.x0.__set__
_set_x1 = ExactReal.x1.__set__


def _make(ctx: NumberContext, x0: Fraction, x1: Fraction) -> ExactReal:
    """ExactReal without the context check (see the class docstring)."""
    v = _new(ExactReal)
    _set_ctx(v, ctx)
    _set_x0(v, x0)
    _set_x1(v, x1)
    return v


def _sgn(x: Fraction) -> int:
    n = x.numerator
    return (n > 0) - (n < 0)


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
    # pi context: refine until the value has one sign at both ends of the
    # enclosure tn/td (it is monotone in tau), read off in integers as the
    # sign of n0*d1*td + n1*d0*tn
    a, b = n0 * d1, n1 * d0
    while True:
        lo, hi = ctx.enclosure()
        at_lo = a * lo.denominator + b * lo.numerator
        at_hi = a * hi.denominator + b * hi.numerator
        if at_lo > 0 and at_hi > 0:
            return 1
        if at_lo < 0 and at_hi < 0:
            return -1
        ctx.refine()


def _interval(ctx: NumberContext, x0: Fraction, x1: Fraction) -> Tuple[Fraction, Fraction]:
    if not x1 or ctx.kind == "rational":
        return x0, x0
    tlo, thi = ctx.enclosure()
    if x1 > 0:
        return x0 + x1 * tlo, x0 + x1 * thi
    return x0 + x1 * thi, x0 + x1 * tlo


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
    if not t.x1 and not a.x1:
        return t.x0 // a.x0
    # t and a over the product of their four denominators
    (t0, e0), (t1, e1) = t.x0.as_integer_ratio(), t.x1.as_integer_ratio()
    (a0, d0), (a1, d1) = a.x0.as_integer_ratio(), a.x1.as_integer_ratio()
    return _floor_pair(ctx, t0 * e1 * d0 * d1, t1 * e0 * d0 * d1,
                       a0 * e0 * e1 * d1, a1 * e0 * e1 * d0)


def _floor_pair(ctx: NumberContext, t0: int, t1: int, m0: int, m1: int) -> int:
    """floor((t0 + t1*tau)/(m0 + m1*tau)) for integers with m0 + m1*tau > 0:
    two linear forms over one denominator, which cancels.

    Parallel pairs have a rational quotient, read off the coefficients.
    Else the enclosure of tau bounds the quotient; once the bounds leave at
    most two candidates, each is certified by the exact signs of t - k*m
    and t - (k+1)*m, and the enclosure is refined (PrecisionExhausted past
    the cap) until they do."""
    if t0 * m1 == t1 * m0:
        return t1 // m1 if m1 else t0 // m0
    while True:
        lo, hi = ctx.enclosure()
        ln, ld, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
        # the least and greatest value of each form over the enclosure (it is
        # monotone in tau), as a numerator over that end's denominator
        t_lo, t_hi = (t0 * ld + t1 * ln, ld), (t0 * hd + t1 * hn, hd)
        if t1 <= 0:
            t_lo, t_hi = t_hi, t_lo
        m_lo, m_hi = (m0 * ld + m1 * ln, ld), (m0 * hd + m1 * hn, hd)
        if m1 <= 0:
            m_lo, m_hi = m_hi, m_lo
        if m_lo[0] <= 0:
            ctx.refine()
            continue
        k_lo = t_lo[0] * m_hi[1] // (t_lo[1] * m_hi[0])
        k_hi = t_hi[0] * m_lo[1] // (t_hi[1] * m_lo[0])
        if k_hi - k_lo <= 1:
            for k in (k_hi, k_lo):
                if (_sign(ctx, t0 - k * m0, 1, t1 - k * m1, 1) >= 0
                        and _sign(ctx, t0 - (k + 1) * m0, 1, t1 - (k + 1) * m1, 1) < 0):
                    return k
            raise OracleInconsistency("floor_div certification failed for both candidates")
        ctx.refine()


def mod(t: ExactReal, a: ExactReal) -> ExactReal:
    """t reduced into [0, a)."""
    return t - floor_div(t, a) * a
