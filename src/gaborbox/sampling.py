"""Stable recovery of bandlimited-style signals from periodic average
samples, decided by reduction to the box-window frame problem.

When c/b is an integer >= 2 the averaging kernel degenerates and stability
is a bare lattice-density comparison; every other shape of c/b defers to
the frame classification of the matching triple.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .classifier import FrameDecision, classify_triple
from .exactnum import ExactReal
from .lattice import normalize


class SamplingDecision(NamedTuple):
    stable: bool
    route: str  # "DegenerateInteger" | "ViaGaborEquivalence"
    underlying: Optional[FrameDecision] = None


def sampling_stable(a: ExactReal, b: ExactReal, c: ExactReal) -> SamplingDecision:
    # normalized once, first: both routes refuse a non-positive value or a
    # mix of irrational contexts alike
    nt = normalize(a, b, c)
    r = nt.c.ratio(nt.b)
    if r is not None and r.denominator == 1 and r >= 2:
        return SamplingDecision(stable=nt.a <= nt.b, route="DegenerateInteger")
    decision = classify_triple(nt)
    return SamplingDecision(
        stable=decision.is_frame,
        route="ViaGaborEquivalence",
        underlying=decision,
    )
