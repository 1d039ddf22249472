"""Exact decision engine for the frame property of Gabor systems with box windows.

Given positive reals (a, b, c), decides whether the Gabor family generated by
the indicator of [0, c) over the time-frequency lattice aZ x Z/b is a frame.
Three independent routes are provided and cross-checked: a closed-form
classification, a piecewise-linear dynamical-system construction of the
maximal invariant set, and brute-force oracles (finite-grid orbits plus a
floating-point truncated-matrix diagnostic).
"""

from .exactnum import (
    RATIONAL,
    ExactReal,
    NumberContext,
    floor_div,
    mod,
    pi_context,
    rat,
    surd_context,
)
from .lattice import NormalizedTriple, PeriodicSet, RegionTag, normalize, region_tag
from .classifier import FrameDecision, classify
from .dynsys import compute_S, compute_D, measure_identity, surgery_report
from .sampling import SamplingDecision, sampling_stable

__all__ = [
    "RATIONAL",
    "ExactReal",
    "NumberContext",
    "floor_div",
    "mod",
    "pi_context",
    "rat",
    "surd_context",
    "NormalizedTriple",
    "PeriodicSet",
    "RegionTag",
    "normalize",
    "region_tag",
    "FrameDecision",
    "classify",
    "compute_S",
    "compute_D",
    "measure_identity",
    "surgery_report",
    "SamplingDecision",
    "sampling_stable",
]
