"""Stable recovery of bandlimited-style signals from periodic average
samples, decided by reduction to the box-window frame problem.

When c/b is an integer >= 2 the averaging kernel degenerates and stability
is a bare lattice-density comparison; every other shape of c/b defers to
the frame classification of the matching triple.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .classifier import FrameDecision, classify
from .errors import NonPositiveInput
from .exactnum import ExactReal


class SamplingDecision(NamedTuple):
    stable: bool
    route: str  # "DegenerateInteger" | "ViaGaborEquivalence"
    underlying: Optional[FrameDecision] = None


def sampling_stable(a: ExactReal, b: ExactReal, c: ExactReal) -> SamplingDecision:
    for name, v in (("a", a), ("b", b), ("c", c)):
        if v.sign() <= 0:
            raise NonPositiveInput(f"{name} must be positive")
    r = c.ratio(b)
    if r is not None and r.denominator == 1 and r >= 2:
        return SamplingDecision(stable=a <= b, route="DegenerateInteger")
    decision = classify(a, b, c)
    return SamplingDecision(
        stable=decision.is_frame,
        route="ViaGaborEquivalence",
        underlying=decision,
    )
