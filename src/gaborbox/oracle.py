"""Independent verification routes for the frame decision.

Two oracles live here.  The finite-grid oracle works entirely in integer
arithmetic: for a rational density a/b = p/q and c on the b/q-grid, both
dynamics and the derived sets are determined by the p residues
{0, b/q, ..., (p-1)b/q} mod a.  S is every residue whose forward orbits avoid
both absorbing intervals.  Off its absorber each map is one-to-one, which the
oracle checks for itself, so one walk back from each absorber index finds
every index that enters it, and S is what no walk reaches.  The numeric
oracle estimates extreme
singular values of a truncated 0/1 translation matrix and is a trend-only
diagnostic.

The grid route shares nothing with the closed-form classification beyond the
map definitions themselves, which is what makes the cross-check meaningful.
"""

from __future__ import annotations

import math
from array import array
from fractions import Fraction
from typing import NamedTuple, Optional, Tuple

from .dynsys import compute_D, compute_S, maps_defined, measure_identity
from .errors import BadTruncation, OracleInconsistency, RegionUnsupported
from .lattice import NormalizedTriple


# (first index, count, shift): a run of indices, counted on cyclically, that
# a grid map translates by the shift mod p
Move = Tuple[int, int, int]


class GridModel(NamedTuple):
    """Integer shadow of an on-grid rational triple.

    Indices j = 0..p-1 stand for the residues j*(b/q) mod a.  Each map adds
    f*q or (f+1)*q mod p (the backward map subtracts them) on a run of
    indices, and fixes the q-p indices between its two runs: its absorbing
    interval, [j0-(q-p), j0) for the forward map and the cyclic
    [j1, j1+(q-p)) for the backward one, where j1 = e+p-j0 mod p.
    """

    nt: NormalizedTriple
    p: int
    q: int
    f: int  # floor(c/b)
    j0: int  # index of c0
    j1: int  # index of c1
    e: int  # index of c mod a

    @property
    def hole_len(self) -> int:
        return self.q - self.p

    def forward_moves(self) -> Tuple[Move, Move]:
        """(f+1)*q on [0, j0-(q-p)) and f*q on [j0, p)."""
        p, q, f, j0 = self.p, self.q, self.f, self.j0
        return (0, j0 - (q - p), (f + 1) * q), (j0, p - j0, f * q)

    def backward_moves(self) -> Tuple[Move, Move]:
        """-f*q on the p-j0 indices from e, and -(f+1)*q on the j0-(q-p)
        from e+q-j0, both counted on cyclically."""
        p, q, f, j0, e = self.p, self.q, self.f, self.j0, self.e
        return (e, p - j0, -f * q), (e + q - j0, j0 - (q - p), -(f + 1) * q)


def build_grid_model(nt: NormalizedTriple) -> GridModel:
    # c on the grid implies a/b = p/q; of VIII-XIV this leaves out XII and XIV
    if not (maps_defined(nt) and nt.c_on_grid):
        raise RegionUnsupported(
            f"no grid route on region {nt.region} with this lattice: it needs "
            f"a/b = p/q, c on the b/q grid and the maps defined"
        )
    p, q = nt.rational
    # the X0 of the form, whole numbers of b/q on the grid
    _, _, _, B, (C, _), (j0, _), (j1, _) = nt.form
    if B != (q, 0) or not 0 < j0 < p:
        raise OracleInconsistency(
            f"grid indices of c break their identities: c/b*q = {C}/{B[0] // q}, j0 = {j0}"
        )
    f = nt.floor_cb
    e = C % p
    return GridModel(nt, p, q, f, j0, j1, e)


def _pieces(lo: int, n: int, shift: int, p: int):
    """The run of n indices from lo, moved by shift, cut where its sources or
    its targets wrap past p - 1: (first target, first source, count) of each piece."""
    source, target = lo % p, (lo + shift) % p
    while n > 0:
        k = min(n, p - source, p - target)
        yield target, source, k
        source, target, n = (source + k) % p, (target + k) % p, n - k


def _reaching(gm: GridModel, moves: Tuple[Move, ...], start: int) -> bytearray:
    """Flags of the indices whose forward orbits under the map with these
    moves enter its absorber, the hole_len indices from `start` on
    (cyclically), found by one walk back from each absorber index.

    Off its absorber each map is one-to-one, so an index has at most one
    preimage besides itself; a second one raises OracleInconsistency.
    """
    p = gm.p
    preimage = array("q", [-1]) * p
    for lo, n, shift in moves:
        for target, source, k in _pieces(lo, n, shift, p):
            preimage[target:target + k] = array("q", range(source, source + k))
    moved, hit = sum(n for _, n, _ in moves), p - preimage.count(-1)
    if hit < moved:
        raise OracleInconsistency(
            f"a grid map moves {moved} indices onto {hit}: an index has two preimages")
    reached = bytearray(p)
    for k in range(gm.hole_len):
        i = (start + k) % p
        while i >= 0 and not reached[i]:
            reached[i] = 1
            i = preimage[i]
    return reached


_NOT = bytes([1, 0]) + bytes(254)  # flips a 0/1 flag


def _S_flags(gm: GridModel) -> bytearray:
    """Flags of the indices whose forward orbits under both maps avoid the absorbers."""
    # one byte per index, so the bitwise or of the integers is the flags' or
    left = (int.from_bytes(_reaching(gm, gm.forward_moves(), gm.j0 - gm.hole_len), "little")
            | int.from_bytes(_reaching(gm, gm.backward_moves(), gm.j1), "little"))
    return bytearray(left.to_bytes(gm.p, "little").translate(_NOT))


def _D_flags(gm: GridModel, S: bytearray) -> bytearray:
    """Flags of the solvability-two set, from the flags of S by shifts and intersections."""
    p, q, f = gm.p, gm.q, gm.f

    def shifted(k: int) -> int:  # the flags of S - k*b: index j holds S's j + k*q
        r = k * q % p
        return int.from_bytes(S[r:] + S[:r], "little")

    low = gm.j0 - gm.hole_len  # [0, c0+a-b) is [0, low)
    # j in S with j + f*b in S below low, or j + k*b in S for some 0 < k < f
    D = int.from_bytes(bytes([1]) * low, "little") & shifted(f)
    for k in range(1, f):
        D |= shifted(k)
    D &= int.from_bytes(S, "little")
    return bytearray(D.to_bytes(p, "little"))


def grid_frame_decision(nt: NormalizedTriple) -> str:
    """'Frame' or 'NotFrame' by an independent route: the integer orbits give
    S, then D, and the triple is a frame exactly when D is empty.

    Only on-grid rational triples where the maps are defined (regions VIII to
    XIII, XII excluded) have this route; every other triple raises
    RegionUnsupported.
    """
    gm = build_grid_model(nt)
    return "NotFrame" if 1 in _D_flags(gm, _S_flags(gm)) else "Frame"


# Extreme singular values below this are machine noise from an exactly
# singular matrix; snap them to zero so trend comparisons are deterministic.
_SINGULAR_FLOOR = 1e-10

# Most entries one array of the diagnostic may hold: the rational route's
# indicator block and its stack of phase symbols, the irrational route's
# truncated matrices over all t samples.  2**24 complex entries are 256 MB;
# the rational route reaches the limit near q = 460 with p close to q, where
# the SVDs of one call already take seconds.
_MAX_ENTRIES = 2**24


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

    Raises BadTruncation, before building any array, when one array (or, on
    an irrational ratio, the t_samples truncated matrices together) would
    hold more than 2**24 entries, and before any float conversion when
    t_samples or half_width alone is past that bound.
    """
    import numpy as np

    if half_width < 4:
        raise BadTruncation("half_width must be at least 4")
    if max(t_samples, half_width) > _MAX_ENTRIES:  # on the ints, which floats may not hold
        raise BadTruncation(f"t_samples or half_width is more than {_MAX_ENTRIES}, "
                            "the most entries one array may hold")
    a, b, c = float(nt.a), float(nt.b), float(nt.c)
    if max(a, b) >= c:
        raise BadTruncation("diagnostic needs max(a, b) < c")
    if t_samples < 1:
        raise BadTruncation("need at least one t sample")

    if nt.rational is not None:
        p, q = nt.rational
        A_est, B_est = _phase_sampled_extremes(np, p, q, a, b, c, t_samples, half_width)
    else:
        # one truncated matrix of (2*half_width+1) x (2*n_max+1) per t sample
        n_max = int(half_width + c / b) + 1
        entries = t_samples * (2 * half_width + 1) * (2 * n_max + 1)
        if entries > _MAX_ENTRIES:
            raise BadTruncation(
                f"the truncated matrices of {t_samples} t samples would hold {entries} "
                f"entries, more than {_MAX_ENTRIES}"
            )
        A_est = float("inf")
        B_est = 0.0
        for i in range(t_samples):
            t = (i + 0.5) * a / t_samples
            sig_lo, sig_hi = _windowed_extremes(np, a, b, c, t, half_width, n_max)
            A_est = min(A_est, sig_lo)
            B_est = max(B_est, sig_hi)
    if A_est < _SINGULAR_FLOOR:
        A_est = 0.0
    return A_est, B_est


def _phase_sampled_extremes(np, p: int, q: int, a: float, b: float, c: float,
                            t_samples: int, half_width: int):
    """Extreme singular values of the q x p shift symbol over every (t, phase).

    Entry (m, r) of the symbol at phase theta sums exp(i*theta*j) over the j
    with chi(t - m*a + (r + p*j)*b) = 1.  All t samples, rows, j and columns
    go into one indicator block, one einsum over j makes the stack of symbols
    and one stacked SVD takes their singular values, once for each run of t
    samples with equal blocks.
    """
    n_phases = max(1, round((2 * half_width + 1) / q))
    # Row m's hits lie in floor((-base - (p-1)*b)/(p*b)) - 1 <= j <=
    # floor((c - base)/(p*b)) + 1 with base = t - m*a; base is largest at the
    # last t and m = 0 and smallest at the first t and m = q-1, so these two
    # corners bound the j of every row.
    base_hi = (t_samples - 1 + 0.5) * a / t_samples
    base_lo = 0.5 * a / t_samples - (q - 1) * a
    j_lo = math.floor((-base_hi - (p - 1) * b) / (p * b)) - 1
    j_hi = math.floor((c - base_lo) / (p * b)) + 1
    entries = t_samples * q * p * max(j_hi - j_lo + 1, n_phases)
    if entries > _MAX_ENTRIES:
        raise BadTruncation(
            f"the phase-symbol arrays of a {q} x {p} symbol would hold {entries} "
            f"entries, more than {_MAX_ENTRIES}"
        )

    ts = (np.arange(t_samples) + 0.5) * a / t_samples
    base = ts[:, None] - np.arange(q) * a  # (t, m)
    j = np.arange(j_lo, j_hi + 1)
    x = base[:, :, None, None] + (np.arange(p) + p * j[:, None]) * b  # (t, m, j, r)
    hits = (0.0 <= x) & (x < c)
    # a t sample whose block repeats the one before has the same symbols, so
    # dropping it leaves every singular value as it was, bit for bit
    fresh = np.ones(t_samples, dtype=bool)
    fresh[1:] = (hits[1:] != hits[:-1]).any(axis=(1, 2, 3))
    hits = hits[fresh]
    theta = 2.0 * np.pi * np.arange(n_phases) / n_phases
    phases = np.exp(1j * np.multiply.outer(theta, j))  # (k, j)
    symbols = np.einsum("tmjr,kj->tkmr", hits, phases)
    s = np.linalg.svd(symbols, compute_uv=False)
    lo = float(s[..., -1].min()) if q >= p else 0.0
    return lo, float(s[..., 0].max())


def _windowed_extremes(np, a: float, b: float, c: float, t: float, half_width: int,
                       n_max: int):
    """Extreme singular values of the truncated matrix, boundary columns pruned."""
    rows = np.arange(-half_width, half_width + 1) * a
    # keep a column only if its support over ALL rows, the lattice points in
    # (t+l-c, t+l], sits inside the row window
    ls = np.arange(-n_max, n_max + 1) * b
    kept = ls[(np.floor((t + ls - c) / a) + 1 >= -half_width)
              & (np.floor((t + ls) / a) <= half_width)]
    if kept.size == 0:
        raise BadTruncation("window too small: no fully supported columns")
    x = t - rows[:, None] + kept[None, :]
    M = ((x >= 0) & (x < c)).astype(float)
    s = np.linalg.svd(M, compute_uv=False)
    lo = float(s[-1]) if M.shape[1] <= M.shape[0] else 0.0
    return lo, float(s[0])

# ---------------------------------------------------------------------------
# cross-pipeline agreement
# ---------------------------------------------------------------------------


def triple_pipeline_check(nt: NormalizedTriple) -> Optional[str]:
    """Run every applicable verdict route on one triple.

    Returns None when all routes agree, else a one-line description of the
    clash.  Usable on any region the invariant-set construction supports;
    the grid-orbit route joins in whenever the triple sits on its grid.
    """
    from .classifier import classify_with_S_existence

    decision, s_nonempty = classify_with_S_existence(nt)
    verdicts = {"closed-form": decision.verdict}
    try:
        report = compute_S(nt)
    except RegionUnsupported:
        report = None
    if report is not None:
        E, empty = report.S_units, report.S_units.is_empty
        verdicts["measure-identity"] = "Frame" if empty or measure_identity(nt, E) else "NotFrame"
        verdicts["two-solvability"] = "Frame" if empty or compute_D(nt, E).is_empty else "NotFrame"
        if s_nonempty is not None and s_nonempty == empty:
            return (
                f"S-existence clash on {_brief(nt)}: construction says "
                f"{'empty' if empty else 'nonempty'}"
            )
    try:
        verdicts["grid-orbits"] = grid_frame_decision(nt)
    except RegionUnsupported:
        pass
    if len(set(verdicts.values())) > 1:
        detail = ", ".join(f"{k}={v}" for k, v in sorted(verdicts.items()))
        return f"verdict clash on {_brief(nt)}: {detail}"
    return None


def _brief(nt: NormalizedTriple) -> str:
    return f"(a={nt.a.render()}, b={nt.b.render()}, c={nt.c.render()})"


def on_grid_survey(qmax: int, c_lo: int, c_hi: int, regions):
    """Yield every normalized triple with b = 1, a = p/q < 1 (q <= qmax),
    c in the open interval (c_lo, c_hi) on the grid Z/q, in the given regions."""
    from math import gcd as _gcd

    from .exactnum import rat
    from .lattice import normalize

    one = rat(1)
    for q in range(1, qmax + 1):
        for p in range(1, q):
            if _gcd(p, q) != 1:
                continue
            a = rat(Fraction(p, q))
            for k in range(c_lo * q + 1, c_hi * q):
                nt = normalize(a, one, rat(Fraction(k, q)))
                if nt.region in regions:
                    yield nt
