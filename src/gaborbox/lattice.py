"""Normalized triples, the region decision diagram, and periodic interval algebra.

A PeriodicSet stores a finite disjoint union of half-open intervals inside one
period [0, a) and stands for that union + aZ.  Storage is canonical: sorted,
pairwise disjoint, touching intervals merged — except across the 0/a seam,
which is only fused on demand by cyclic queries (gap analysis), never in
storage.  All endpoints are ExactReal, all comparisons exact.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, List, Optional, Tuple

from .errors import NonPositiveInput, PeriodMismatch
from .exactnum import ExactReal, floor_div, mod, rat


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

    def __str__(self):
        return self.value


Interval = Tuple[ExactReal, ExactReal]

_start = itemgetter(0)
_end = itemgetter(1)


@dataclass(frozen=True)
class PeriodicSet:
    """Union of half-open intervals in [0, period), implicitly + period*Z."""

    period: ExactReal
    intervals: Tuple[Interval, ...]

    # ---- construction ----------------------------------------------------
    @classmethod
    def make(cls, period: ExactReal, pairs: Iterable[Interval]) -> "PeriodicSet":
        """Canonicalize pairs already lying inside [0, period]."""
        zero = rat(0)
        kept: List[Interval] = []
        for lo, hi in pairs:
            if (hi - lo).sign() <= 0:
                continue  # empty (or inverted, which callers never produce)
            if (lo - zero).sign() < 0 or (hi - period).sign() > 0:
                raise ValueError("interval endpoints must lie inside [0, period]")
            kept.append((lo, hi))
        kept.sort(key=lambda iv: iv[0])
        merged: List[Interval] = []
        for lo, hi in kept:
            if merged and (lo - merged[-1][1]).sign() <= 0:
                plo, phi = merged[-1]
                merged[-1] = (plo, hi if (hi - phi).sign() > 0 else phi)
            else:
                merged.append((lo, hi))
        return cls(period, tuple(merged))

    @classmethod
    def from_wrapped(cls, period: ExactReal, pairs: Iterable[Interval]) -> "PeriodicSet":
        """Like make(), but intervals may live anywhere on the line; they are
        reduced mod period and split at the seam."""
        reduced: List[Interval] = []
        for lo, hi in pairs:
            if (hi - lo).sign() <= 0:
                continue
            if (hi - lo - period).sign() > 0:
                raise ValueError("interval longer than one period")
            shift = floor_div(lo, period)
            lo = lo - shift * period
            hi = hi - shift * period
            if (hi - period).sign() <= 0:
                reduced.append((lo, hi))
            else:
                reduced.append((lo, period))
                reduced.append((rat(0), hi - period))
        return cls.make(period, reduced)

    @classmethod
    def empty(cls, period: ExactReal) -> "PeriodicSet":
        return cls(period, ())

    @classmethod
    def full(cls, period: ExactReal) -> "PeriodicSet":
        return cls(period, ((rat(0), period),))

    # ---- basic queries -----------------------------------------------------
    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def measure(self) -> ExactReal:
        total = rat(0)
        for lo, hi in self.intervals:
            total = total + (hi - lo)
        return total

    def contains(self, t: ExactReal) -> bool:
        t = mod(t, self.period)
        for lo, hi in self.intervals:
            if (t - lo).sign() >= 0 and (t - hi).sign() < 0:
                return True
        return False

    def components_cyclic(self) -> List[Interval]:
        """Components with the 0/period seam fused; a wrapped component is
        reported as (lo, hi) with hi > period."""
        ivs = list(self.intervals)
        if (
            len(ivs) >= 2
            and ivs[0][0].is_zero()
            and (ivs[-1][1] - self.period).sign() == 0
        ):
            first = ivs.pop(0)
            last = ivs.pop()
            ivs.append((last[0], first[1] + self.period))
        elif len(ivs) == 1 and ivs[0][0].is_zero() and (ivs[0][1] - self.period).sign() == 0:
            pass  # full circle; leave as the single [0, period)
        return ivs

    # ---- algebra -----------------------------------------------------------
    def _check(self, other: "PeriodicSet") -> None:
        if not isinstance(other, PeriodicSet):
            raise TypeError("expected a PeriodicSet")
        if not (self.period - other.period).is_zero():
            raise PeriodMismatch(
                f"periods differ: {self.period!r} vs {other.period!r}"
            )

    # Operands are canonical, so every result below is emitted in canonical
    # order directly: the larger operand is searched by bisect (ends and
    # starts are both increasing) and copied by slices, and exact
    # comparisons are only spent where the smaller operand lands.

    def union(self, other: "PeriodicSet") -> "PeriodicSet":
        self._check(other)
        big, small = self.intervals, other.intervals
        if len(big) < len(small):
            big, small = small, big
        if not small:
            return PeriodicSet(self.period, big)
        out: List[Interval] = []
        pos = 0
        for lo, hi in small:
            i = bisect_left(big, lo, pos, key=_end)  # first one reaching lo
            j = bisect_right(big, hi, i, key=_start)  # first one past hi
            out.extend(big[pos:i])
            if i < j:
                if big[i][0] < lo:
                    lo = big[i][0]
                if hi < big[j - 1][1]:
                    hi = big[j - 1][1]
            if i == pos and out and not out[-1][1] < lo:
                # an interval of big already merged above reaches this one
                out[-1] = (out[-1][0], hi if out[-1][1] < hi else out[-1][1])
            else:
                out.append((lo, hi))
            pos = j
        out.extend(big[pos:])
        return PeriodicSet(self.period, tuple(out))

    def intersect(self, other: "PeriodicSet") -> "PeriodicSet":
        self._check(other)
        big, small = self.intervals, other.intervals
        if len(big) < len(small):
            big, small = small, big
        out: List[Interval] = []
        pos = 0
        for lo, hi in small:
            i = bisect_right(big, lo, pos, key=_end)  # first one ending past lo
            j = bisect_left(big, hi, i, key=_start)  # first one starting at hi or later
            for blo, bhi in big[i:j]:
                out.append((lo if blo < lo else blo, bhi if bhi < hi else hi))
            pos = max(i, j - 1)
        return PeriodicSet(self.period, tuple(out))

    def complement(self) -> "PeriodicSet":
        gaps: List[Interval] = []
        cursor = rat(0)
        for lo, hi in self.intervals:
            if cursor < lo:
                gaps.append((cursor, lo))
            cursor = hi
        if cursor < self.period:
            gaps.append((cursor, self.period))
        return PeriodicSet(self.period, tuple(gaps))

    def minus(self, other: "PeriodicSet") -> "PeriodicSet":
        self._check(other)
        mine, cuts = self.intervals, other.intervals
        if len(mine) <= len(cuts):
            hit = range(len(mine))
        else:  # only the intervals some cut reaches need work
            hit, j = [], 0
            for lo, hi in cuts:
                i = bisect_right(mine, lo, j, key=_end)  # mine[:j] is already listed
                j = bisect_left(mine, hi, i, key=_start)
                hit.extend(range(i, j))
        out: List[Interval] = []
        prev = 0
        for t in hit:
            out.extend(mine[prev:t])
            lo, hi = mine[t]
            i = bisect_right(cuts, lo, key=_end)
            j = bisect_left(cuts, hi, i, key=_start)
            for clo, chi in cuts[i:j]:
                if lo < clo:
                    out.append((lo, clo))
                lo = chi
            if lo < hi:
                out.append((lo, hi))
            prev = t + 1
        out.extend(mine[prev:])
        return PeriodicSet(self.period, tuple(out))

    def shift(self, t: ExactReal) -> "PeriodicSet":
        """The set + t, reduced back into [0, period)."""
        s = mod(t, self.period)
        moved: List[Interval] = []
        for lo, hi in self.intervals:
            nlo, nhi = lo + s, hi + s
            if (nhi - self.period).sign() <= 0:
                moved.append((nlo, nhi))
            elif (nlo - self.period).sign() >= 0:
                moved.append((nlo - self.period, nhi - self.period))
            else:
                moved.append((nlo, self.period))
                moved.append((rat(0), nhi - self.period))
        return PeriodicSet.make(self.period, moved)

    def restrict(self, lo: ExactReal, hi: ExactReal) -> "PeriodicSet":
        """Intersection with the single window [lo, hi) 0 <= lo <= hi <= period."""
        return self.intersect(PeriodicSet.make(self.period, [(lo, hi)]))

    def __eq__(self, other):
        if not isinstance(other, PeriodicSet):
            return NotImplemented
        if not (self.period - other.period).is_zero():
            return False
        if len(self.intervals) != len(other.intervals):
            return False
        for (alo, ahi), (blo, bhi) in zip(self.intervals, other.intervals):
            if not ((alo - blo).is_zero() and (ahi - bhi).is_zero()):
                return False
        return True

    def __hash__(self):
        return hash((self.period, self.intervals))

    def __repr__(self):
        body = " u ".join(f"[{lo.render()},{hi.render()})" for lo, hi in self.intervals)
        return f"PeriodicSet({body or 'empty'} mod {self.period.render()})"


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


def black_hole_R(nt: NormalizedTriple) -> Tuple[ExactReal, ExactReal]:
    """Fixed-interval [c0+a-b, c0) of the forward map, inside [0, a)."""
    return nt.c0 + nt.a - nt.b, nt.c0


def black_hole_Rt(nt: NormalizedTriple) -> Tuple[ExactReal, ExactReal]:
    """Fixed interval of the backward map, reduced mod a: [c1, c1+b-a)."""
    return nt.c1, nt.c1 + nt.b - nt.a
