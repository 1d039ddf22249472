"""The loop-per-entry numeric diagnostic that the stacked-array build in
gaborbox.oracle replaced, kept as a test oracle.

    job                 reference             tests (test_reference_numeric.py)
    numeric diagnostic  numeric_frame_bounds  every test, with `==`

`_phase_sampled_extremes` fills each q x p phase symbol one entry at a time
and takes one SVD per (t, phase); `_windowed_extremes` picks its columns in a
Python loop.  `numeric_frame_bounds`, both helpers and `_SINGULAR_FLOOR` are
copied unchanged from the code they replaced (only the imports differ).
"""

from __future__ import annotations

from typing import Tuple

from gaborbox.errors import BadTruncation
from gaborbox.lattice import NormalizedTriple


# Extreme singular values below this are machine noise from an exactly
# singular matrix; snap them to zero so trend comparisons are deterministic.
_SINGULAR_FLOOR = 1e-10


def numeric_frame_bounds(
    nt: NormalizedTriple, t_samples: int = 16, half_width: int = 8
) -> Tuple[float, float]:
    """Singular-value diagnostic on the 0/1 translation matrix of the triple.

    Returns (A_est, B_est): min/max extreme singular values over a grid of
    window offsets t (midpoints of an equispaced partition of [0, a), which
    keeps float samples away from the matrix's discontinuity set).  The
    bi-infinite matrix has rows indexed by mu = m*a and columns by
    lambda = n*b, entries chi_[0,c)(t - mu + lambda), and the system is a
    frame exactly when its singular values stay in a band [A, B] with A > 0
    uniformly in t.

    When a/b = p/q is rational the matrix commutes with the joint shift
    (m, n) -> (m + q, n + p), so its spectrum decomposes over a phase
    variable; A_est/B_est then sample max(1, round((2*half_width+1)/q))
    equispaced phases of the exact q x p symbol.  This converges to the true
    bounds from the correct side and, for non-frames, detects the singular
    phase.  For irrational a/b we fall back to a plain window truncation
    (rows |m| <= half_width, columns kept only when their full support lies
    inside the row window); that variant over-estimates A and only decays
    toward the truth at rate ~1/half_width, so it is trend-only.
    """
    import numpy as np

    if half_width < 4:
        raise BadTruncation("half_width must be at least 4")
    a, b, c = float(nt.a), float(nt.b), float(nt.c)
    if max(a, b) >= c:
        raise BadTruncation("diagnostic needs max(a, b) < c")
    if t_samples < 1:
        raise BadTruncation("need at least one t sample")

    A_est = float("inf")
    B_est = 0.0
    for i in range(t_samples):
        t = (i + 0.5) * a / t_samples
        if nt.rational is not None:
            sig_lo, sig_hi = _phase_sampled_extremes(np, nt, t, half_width)
        else:
            sig_lo, sig_hi = _windowed_extremes(np, a, b, c, t, half_width)
        A_est = min(A_est, sig_lo)
        B_est = max(B_est, sig_hi)
    if A_est < _SINGULAR_FLOOR:
        A_est = 0.0
    return A_est, B_est


def _phase_sampled_extremes(np, nt: NormalizedTriple, t: float, half_width: int):
    """Extreme singular values via the q x p shift symbol at sampled phases."""
    p, q = nt.rational
    a, b, c = float(nt.a), float(nt.b), float(nt.c)
    n_phases = max(1, round((2 * half_width + 1) / q))
    lo = float("inf")
    hi = 0.0
    for k in range(n_phases):
        theta = 2.0 * np.pi * k / n_phases
        sym = np.zeros((q, p), dtype=complex)
        for m in range(q):
            # entries chi(t - m*a + (r + p*j)*b): solve for the j-window
            base = t - m * a
            j_lo = int(np.floor((-base - (p - 1) * b) / (p * b))) - 1
            j_hi = int(np.floor((c - base) / (p * b))) + 1
            for j in range(j_lo, j_hi + 1):
                for r in range(p):
                    x = base + (r + p * j) * b
                    if 0.0 <= x < c:
                        sym[m, r] += np.exp(1j * theta * j)
        s = np.linalg.svd(sym, compute_uv=False)
        lo = min(lo, float(s[-1]) if q >= p else 0.0)
        hi = max(hi, float(s[0]))
    return lo, hi


def _windowed_extremes(np, a: float, b: float, c: float, t: float, half_width: int):
    """Extreme singular values of the truncated matrix, boundary columns pruned."""
    n_max = int(half_width + c / b) + 1
    rows = np.arange(-half_width, half_width + 1) * a
    # keep a column only if its support over ALL rows, the lattice points in
    # (t+l-c, t+l], sits inside the row window
    keep = []
    for n in range(-n_max, n_max + 1):
        l = n * b
        m_lo = int(np.floor((t + l - c) / a)) + 1
        m_hi = int(np.floor((t + l) / a))
        if m_lo >= -half_width and m_hi <= half_width:
            keep.append(l)
    if not keep:
        raise BadTruncation("window too small: no fully supported columns")
    kept = np.array(keep)
    x = t - rows[:, None] + kept[None, :]
    M = ((x >= 0) & (x < c)).astype(float)
    s = np.linalg.svd(M, compute_uv=False)
    lo = float(s[-1]) if M.shape[1] <= M.shape[0] else 0.0
    return lo, float(s[0])
