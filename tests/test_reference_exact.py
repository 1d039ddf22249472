"""Differential tests: the `__slots__` ExactReal core, its `_cmp`, the
integer pi sign, `floor_div` on integer pairs and both branches of
`normalize` (the rational one in integers, the irrational one on integer
pairs over one denominator) against the frozen-dataclass core, the
`Fraction`-interval sign and the `ExactReal` normalization they replaced
(`reference_exact.py`), plus the value-class guarantees the dataclasses used
to give every value class of the engine, slots classes and records alike
(immutability, equality, hashing, repr, pickling, copying)."""

import copy
import operator
import pickle
import random
from collections import Counter
from fractions import Fraction as F
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_exact as ref
import reference_shapes as shapes
from gaborbox.classifier import classify
from gaborbox.dynsys import compute_S
from gaborbox.errors import ContextMismatch, GaborBoxError, PrecisionExhausted
from gaborbox.exactnum import (
    RATIONAL,
    ExactReal,
    _pi_enclosure,
    _sign,
    floor_div,
    mod,
    pi_context,
    rat,
    surd_context,
)
from gaborbox.lattice import PeriodicSet, RegionTag, form_value, normalize, region_tag
from gaborbox.oracle import build_grid_model
from gaborbox.sampling import sampling_stable

PI = pi_context()
SQRT2 = surd_context(2)
SQRT3 = surd_context(3)
IRRATIONAL = (SQRT2, SQRT3, PI)

coefs = st.fractions(min_value=-30, max_value=30, max_denominator=12)


def _canon(r):
    """A result of either core in a form the two can be compared by."""
    if isinstance(r, (ExactReal, ref.ExactReal)):
        # the context object itself must be the one the old core picked
        return ("value", id(r.ctx), r.x0, r.x1)
    if hasattr(r, "floor_cb"):  # a NormalizedTriple
        return ("triple", *map(_canon, (r.a, r.b, r.c, r.c0, r.c1)),
                r.floor_cb, r.rational, r.c_on_grid)
    return ("result", type(r), r)


def _outcome(fn, *args):
    """What a call returned, or the error type and message it raised."""
    try:
        r = fn(*args)
    except (GaborBoxError, ArithmeticError, AttributeError, TypeError, ValueError) as e:
        return ("raises", type(e), str(e))
    return _canon(r)


@st.composite
def operands(draw, n, scalars=True):
    """n operands sharing one irrational home context: values in that
    context (often with a zero tau coefficient), rationals that join into it,
    now and then a value in another context, and with scalars also plain ints
    and Fractions.  Each comes as (new core, old core)."""
    home = draw(st.sampled_from(IRRATIONAL))
    kinds = ("home", "home", "rational", "any") + (("scalar",) if scalars else ())
    out = []
    for _ in range(n):
        kind = draw(st.sampled_from(kinds))
        if kind == "scalar":
            s = draw(st.one_of(st.integers(-5, 5), coefs))
            out.append((s, s))
            continue
        if kind == "home":
            ctx = home
        elif kind == "rational":
            ctx = RATIONAL
        else:
            ctx = draw(st.sampled_from(IRRATIONAL))
        x0 = draw(coefs)
        x1 = F(0) if ctx is RATIONAL else draw(st.one_of(st.just(F(0)), coefs))
        out.append((ExactReal(ctx, x0, x1), ref.ExactReal(ctx, x0, x1)))
    return out


def _old_eq(x, y):
    """The old core's ==, save where it raised ContextMismatch: between two
    irrational contexts equality compares coefficients, and a tau
    coefficient never equals one over another tau."""
    try:
        return x == y
    except ContextMismatch:
        return x.x0 == y.x0 and x.x1 == y.x1 == 0


BINARY = {
    "+": (operator.add, operator.add),
    "-": (operator.sub, operator.sub),
    "*": (operator.mul, operator.mul),
    "/": (operator.truediv, operator.truediv),
    "<": (operator.lt, operator.lt),
    "<=": (operator.le, operator.le),
    ">": (operator.gt, operator.gt),
    ">=": (operator.ge, operator.ge),
    "==": (operator.eq, _old_eq),
    "ratio": (lambda x, y: x.ratio(y), lambda x, y: x.ratio(y)),
    "floor_div": (floor_div, ref.floor_div),
    "mod": (mod, ref.mod),
}

UNARY = {
    "neg": operator.neg,
    "sign": lambda x: x.sign(),
    "hash": hash,
    "render": lambda x: x.render(),
    "is_zero": lambda x: x.is_zero(),
}


@given(ops=operands(2), name=st.sampled_from(sorted(BINARY)))
@settings(max_examples=1000, deadline=None)
def test_binary_operations_match_old_core(ops, name):
    (x_new, x_old), (y_new, y_old) = ops
    new_fn, old_fn = BINARY[name]
    assert _outcome(new_fn, x_new, y_new) == _outcome(old_fn, x_old, y_old), (name, x_old, y_old)


@given(ops=operands(1, scalars=False), name=st.sampled_from(sorted(UNARY)))
@settings(max_examples=300, deadline=None)
def test_unary_operations_match_old_core(ops, name):
    [(x_new, x_old)] = ops
    fn = UNARY[name]
    assert _outcome(fn, x_new) == _outcome(fn, x_old), (name, x_old)


@given(ops=operands(3, scalars=False))
@settings(max_examples=300, deadline=None)
def test_normalize_and_region_tag_match_old_core_on_drawn_triples(ops):
    """Irrational triples, rational values in irrational contexts, mixed
    contexts and non-positive inputs, through both branches of normalize.
    The region is decided on construction now, so where the old walk raised
    (a and c in two irrational contexts) normalize raises the same error."""
    new, old = zip(*ops)
    got, want = _outcome(normalize, *new), _outcome(ref.normalize, *old)
    if want[0] == "triple":
        want_tag = _outcome(ref.region_tag, ref.normalize(*old))
        if want_tag[0] == "raises":
            want = want_tag
    assert got == want, old
    if got[0] == "triple":
        assert _outcome(region_tag, normalize(*new)) == want_tag, old


def test_normalize_and_region_tag_match_old_core_q_le_20():
    """Every a = p/q <= 1 with q <= 20, b = 1 and c in (0, 8) on the step
    1/(2q): on-grid and off-grid cells of every rational region."""
    one_new, one_old = rat(1), ref.rat(1)
    triples = off_grid = 0
    for q in range(1, 21):
        for p in range(1, q + 1):
            if gcd(p, q) != 1:
                continue
            a_new, a_old = rat(F(p, q)), ref.rat(F(p, q))
            for k in range(1, 16 * q):
                c = F(k, 2 * q)
                nt_new = normalize(a_new, one_new, rat(c))
                nt_old = ref.normalize(a_old, one_old, ref.rat(c))
                assert _canon(nt_new) == _canon(nt_old), (p, q, c)
                assert region_tag(nt_new) is ref.region_tag(nt_old), (p, q, c)
                triples += 1
                off_grid += not nt_new.c_on_grid
    assert triples == 27_792
    assert 0 < off_grid < triples


def _generic_triples(seed, count):
    """(new core, old core) operand triples off the rational grid.

    Three kinds, picked 3 : 1 : 1, the first and last drawn again until
    they fit.  a in (b/2, b) and c > 2b over sqrt2,
    sqrt3, sqrt5 or pi (b = 1 or a value of the context): regions VI, VII,
    IX and XII without grid units.  a = r*sqrt2 and b = sqrt2 with
    r = p/q <= 2 and c rational, so a/b is rational and c/b is not: every
    region but II, XII and XIII, still walked on pairs.  And c = a with a
    and b of the first kind: region II."""
    rng = random.Random(seed)
    contexts = (SQRT2, SQRT3, surd_context(5), PI)
    out = []
    while len(out) < count:
        kind = rng.choice((0, 0, 0, 1, 2))
        if kind == 1:
            q = rng.randint(1, 6)
            r = F(rng.randint(1, 2 * q), q)
            coefs = [(F(0), r), (F(0), F(1)), (F(rng.randint(1, 16 * q), 2 * q), F(0))]
            ctxs = (SQRT2, SQRT2, rng.choice((SQRT2, RATIONAL)))
        else:
            ctx = rng.choice(contexts)
            b = rng.choice([(F(1), F(0)), (F(rng.randint(-2, 4), rng.randint(1, 3)),
                                           F(rng.randint(1, 4), rng.randint(1, 4)))])
            a = (F(rng.randint(-3, 4), rng.randint(1, 4)), F(rng.randint(1, 12), rng.randint(2, 20)))
            bv, av = ctx.num(*b), ctx.num(*a)
            if not (bv.sign() > 0 and bv < 2 * av and av < bv):
                continue
            k0, k1 = rng.randint(2, 9), rng.randint(-4, 4)
            x = (k0 * b[0] + k1 * a[0] + F(rng.randint(-3, 3), rng.randint(2, 7)),
                 k0 * b[1] + k1 * a[1] + F(rng.randint(-1, 1), rng.randint(2, 7)))
            if not ctx.num(*x) > 2 * bv:
                continue
            coefs, ctxs = [a, b, x], (ctx,) * 3
        if kind == 2:
            coefs[2], ctxs = coefs[0], ctxs[:2] + ctxs[:1]
        out.append([(ExactReal(ctx, *xs), ref.ExactReal(ctx, *xs))
                    for ctx, xs in zip(ctxs, coefs)])
    return out


def test_normalize_and_region_tag_match_old_core_off_the_grid():
    """Triples without grid units, which normalize takes to integer pairs
    over one denominator and walks by signs of pair differences, against
    the ExactReal normalization and walk, contexts included."""
    tally = Counter()
    for ops in _generic_triples(seed=19, count=1500):
        new, old = zip(*ops)
        nt_new, nt_old = normalize(*new), ref.normalize(*old)
        assert _canon(nt_new) == _canon(nt_old), old
        tag = region_tag(nt_new)
        assert tag is ref.region_tag(nt_old), old
        tally[tag] += 1
        tally["units" if nt_new.form.integral else "pairs"] += 1
    assert set(RegionTag) - set(tally) == {RegionTag.XIII}, tally
    assert tally["pairs"] > 1400 and tally[RegionTag.XII] > 50, tally


# -- one integer form against the two shapes it replaced --------------------------------

def _same_as_two_shapes(a, b, c, tally):
    """normalize against the normalization that held grid units or pairs over
    L (`reference_shapes.py`): the same fields, contexts included, and the
    same region; the form's pairs are the old shape's integers, with every X1
    0 on grid units, and each maps back to exactly its value."""
    new, old = normalize(a, b, c), shapes.normalize(a, b, c)
    assert _canon(new) == _canon(old), (a, b, c)
    assert new.region is old.region, (a, b, c)
    form, u = new.form, old.units
    if u is not None:
        assert form.integral and list(form[2:]) == [(X, 0) for X in u], (a, b, c)
        assert form.ctx == b._join(a), (a, b, c)
    else:
        P = old.pairs
        assert not form.integral and list(form[2:]) == list(P[2:]), (a, b, c)
        assert form.ctx is P.ctx and form.beta == (1, 0, P.L), (a, b, c)
    back = [form_value(form, X) for X in form[2:]]
    assert [(v.x0, v.x1) for v in back] == [(v.x0, v.x1) for v in
                                            (new.a, new.b, new.c, new.c0, new.c1)], (a, b, c)
    tally[new.region] += 1
    tally["units" if u is not None else "pairs"] += 1


def test_form_matches_two_shapes_q_le_20():
    """Every a = p/q <= 1 with q <= 20, b = 1 and c in (0, 8) on the step
    1/(2q), and b = 3/2 with q <= 8: the rational fast path, on and off the
    grid."""
    tally = Counter()
    for b, qmax in ((rat(1), 20), (rat(F(3, 2)), 8)):
        for q in range(1, qmax + 1):
            for p in range(1, q + 1):
                if gcd(p, q) == 1:
                    for k in range(1, 16 * q):
                        _same_as_two_shapes(rat(F(p, q)) * b, b, rat(F(k, 2 * q)) * b, tally)
    cells = sum(16 * q - 1 for q in range(1, 9) for p in range(1, q + 1) if gcd(p, q) == 1)
    assert tally["units"] == 27_792 + cells, tally
    assert set(RegionTag) - set(tally) == {RegionTag.XII}, tally


def test_form_matches_two_shapes_on_multiples_of_sqrt2():
    """(r*sqrt2, sqrt2, r'*sqrt2): a/b and c/b rational on tau coefficients,
    so the pair normalization builds grid units; and r'*sqrt2 + 1/7, where
    c/b is irrational and the form keeps its pairs over L."""
    tally = Counter()
    for q in range(1, 9):
        for p in range(1, 2 * q):
            if gcd(p, q) == 1:
                for k in range(1, 16 * q, 3):
                    c = SQRT2.num(0, F(k, 2 * q))
                    for c in (c, c + F(1, 7)):
                        _same_as_two_shapes(SQRT2.num(0, F(p, q)), SQRT2.num(0, 1), c, tally)
    assert tally["units"] == tally["pairs"] > 1000, tally
    assert {RegionTag.XIII, RegionTag.XIV, RegionTag.X, RegionTag.XI} <= set(tally), tally


def test_form_matches_two_shapes_off_the_grid():
    """The seeded draws without grid units (and a few with) of the pair
    normalization's own differential test."""
    tally = Counter()
    for ops in _generic_triples(seed=19, count=1500):
        _same_as_two_shapes(*(new for new, _ in ops), tally)
    assert tally["pairs"] > 1400 and tally[RegionTag.XII] > 50, tally


# -- pi signs in integers ---------------------------------------------------------------

# within 2**-8192 of pi, far finer than the 4096-bit refinement cap
PI_FINE = _pi_enclosure(8192)[0]


@st.composite
def pi_forms(draw):
    """(n0, d0, n1, d1) for n0/d0 + (n1/d1)*pi, denominators positive and
    not always reduced: free draws, and draws within about 2**-bits of zero
    that take (bits - 64)/64 refinements, past the cap for bits > 4096."""
    n1 = draw(st.integers(-60, 60).filter(bool))
    d1 = draw(st.integers(1, 60))
    kind = draw(st.sampled_from(("free", "near", "near", "cap")))
    if kind == "free":
        return draw(st.integers(-600, 600)), draw(st.integers(1, 60)), n1, d1
    bits = draw(st.integers(8, 4000) if kind == "near" else st.integers(4200, 6000))
    scale = 1 << bits
    x0 = -F(n1, d1) * F((PI_FINE * scale).__floor__(), scale)
    x0 += F(draw(st.integers(-3, 3)), scale << draw(st.integers(0, 8)))
    k = draw(st.integers(1, 3))
    return x0.numerator * k, x0.denominator * k, n1, d1


@given(form=pi_forms())
@settings(max_examples=300, deadline=None)
def test_pi_sign_in_integers_matches_fraction_intervals(form):
    """The same sign, or the same PrecisionExhausted, after the same
    refinements, each core on a fresh context."""
    new_ctx, old_ctx = pi_context(), pi_context()
    got = _outcome(_sign, new_ctx, *form)
    want = _outcome(ref._sign, old_ctx, *form)
    assert got == want, form
    assert new_ctx._bits == old_ctx._bits, form


@given(m=pi_forms(), d=pi_forms(), n=st.integers(-4, 4), exact=st.booleans())
@settings(max_examples=300, deadline=None)
def test_floor_div_near_integer_quotients_matches_fraction_intervals(m, d, n, exact):
    """floor_div(n*m + d, m) over pi for d near zero (or zero) and m now and
    then near zero itself: the same quotient, or the same error, after the
    same refinements, each core on a fresh context."""
    m0, m1 = F(m[0], m[1]), F(m[2], m[3])
    t0, t1 = n * m0, n * m1
    if not exact:
        t0, t1 = t0 + F(d[0], d[1]), t1 + F(d[2], d[3])
    new_ctx, old_ctx = pi_context(), pi_context()
    got = _outcome(floor_div, ExactReal(new_ctx, t0, t1), ExactReal(new_ctx, m0, m1))
    want = _outcome(ref.floor_div, ref.ExactReal(old_ctx, t0, t1), ref.ExactReal(old_ctx, m0, m1))
    assert got == want, (m, d, n, exact)
    assert new_ctx._bits == old_ctx._bits, (m, d, n, exact)


def test_pi_sign_draws_reach_refinements_and_the_cap():
    ctx = pi_context()
    near = _pi_enclosure(1000)[0]  # within 2**-1000 of pi
    assert _sign(ctx, -near.numerator, near.denominator, 1, 1) == 1
    assert ctx._bits == 1024
    with pytest.raises(PrecisionExhausted):
        _sign(pi_context(), -PI_FINE.numerator, PI_FINE.denominator, 1, 1)


# -- value-class guarantees ------------------------------------------------------------

def test_exact_real_is_immutable():
    x = SQRT2.num(1, F(1, 2))
    for name in ("ctx", "x0", "x1", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, F(3))
    with pytest.raises(AttributeError):
        del x.x0
    assert (x.x0, x.x1) == (F(1), F(1, 2))


def test_public_constructor_still_checks_the_context():
    with pytest.raises(ContextMismatch):
        ExactReal(RATIONAL, 0, 1)
    assert ExactReal(RATIONAL, F(2), F(0)) == rat(2)


def _values():
    half = F(1, 2)
    xii = normalize(PI.num(0, F(1, 4)), rat(1), PI.num(11, F(-7, 4)))  # a planted obstruction
    xiii = normalize(rat(F(13, 17)), rat(1), rat(F(75, 17)))  # case 8
    xii_report, xiii_report = compute_S(xii), compute_S(xiii)
    values = [rat(F(-3, 7)), PI.num(23, F(-11, 2)), SQRT3.num(0, half),
              PeriodicSet.make(rat(1), [(rat(0), rat(half))]),
              PeriodicSet.make(SQRT2.num(0, half), [(SQRT2.num(-half, half), rat(half))]),
              normalize(rat(F(13, 17)), rat(1), rat(F(77, 17))),
              normalize(PI.num(0, F(1, 4)), rat(1), PI.num(23, F(-11, 2))),
              xii_report, xiii_report, xii_report.marks, xiii_report.marks,
              xiii_report.rational_extras, xiii_report.chain[0], build_grid_model(xiii),
              sampling_stable(rat(F(13, 17)), rat(1), rat(F(75, 17))),
              sampling_stable(rat(half), rat(1), rat(3))]
    # a FrameDecision with each kind of witness: none, a gcd condition, the
    # irrational and the rational obstruction, and an off-grid c's two neighbours
    values += [classify(rat(F(13, 17)), rat(1), rat(F(77, 17))),
               classify(rat(F(2, 3)), rat(1), rat(2)), classify(xii.a, xii.b, xii.c),
               classify(xiii.a, xiii.b, xiii.c), classify(rat(F(13, 17)), rat(1), rat(F(22, 5)))]
    return values


def test_values_cover_every_value_class():
    values = _values()
    assert {type(v).__name__ for v in values} == {
        "ExactReal", "PeriodicSet", "NormalizedTriple", "InvariantSetReport", "Marks",
        "RationalExtras", "HoleChainStep", "GridModel", "SamplingDecision", "FrameDecision"}
    assert {v.marks.kind for v in values if type(v).__name__ == "InvariantSetReport"} == {
        "finite", "cyclic"}
    witnesses = {type(v.witness).__name__ for v in values if type(v).__name__ == "FrameDecision"}
    assert witnesses == {"NoneType", "GcdCondition", "IrrationalParams", "RationalParams",
                         "RecursionPair"}
    # a comparison with another type is left to that type
    assert all(v == mock.ANY for v in values)


@pytest.mark.parametrize("roundtrip", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy,
                                       copy.copy], ids=["pickle", "deepcopy", "copy"])
def test_values_survive_pickle_and_copy(roundtrip):
    for v in _values():
        w = roundtrip(v)
        assert type(w) is type(v)
        assert w == v
        assert hash(w) == hash(v)
        assert repr(w) == repr(v)


def test_values_are_immutable():
    for v in _values():
        first = (getattr(v, "_fields", None) or type(v).__slots__)[0]  # a record's, or a slot
        for name in (first, "other"):
            with pytest.raises(AttributeError):
                setattr(v, name, None)


def test_triple_round_trips_carry_its_pairs_over():
    # a rational triple, a sqrt2 triple without grid units and a pi triple
    triples = (normalize(rat(F(13, 17)), rat(1), rat(F(77, 17))),
               normalize(SQRT2.num(0, F(3, 4)), SQRT2.num(0, 1), rat(F(7, 2))),
               normalize(PI.num(0, F(1, 4)), rat(1), PI.num(23, F(-11, 2))))
    assert [nt.form.integral for nt in triples] == [True, False, False]
    for nt in triples:
        for w in (pickle.loads(pickle.dumps(nt)), copy.deepcopy(nt), copy.copy(nt)):
            assert w == nt and w.form == nt.form and w.region is nt.region
            for got, want in ((w.c0, nt.c0), (w.c1, nt.c1)):
                assert (got.x0, got.x1) == (want.x0, want.x1)
                # the same context object: that of the same inputs, which
                # are nt's own after copy.copy
                assert [got.ctx is v.ctx for v in (w.a, w.b, w.c)] == [
                    want.ctx is v.ctx for v in (nt.a, nt.b, nt.c)]
