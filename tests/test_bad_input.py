"""The library refuses bad input with its own documented errors: each call
below raises exactly the named engine error, never a raw numpy or Python
exception, and never returns a silent answer."""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stmodcat.adams import (AdamsError, ProjectiveClass, adams_resolution, dr_bracket_forms,
                            dr_set, pages, sparse_check)
from stmodcat.linalg import (AffineSpace, DimensionMismatch, EnumerationOverflow, FpMatrix,
                             LinAlgError, as_vector)
from stmodcat.modrep import (ModRepError, Ring, RingMismatch, identity_map,
                             module_from_partition, mu_map)
from stmodcat.stcat import DIRECT, OP, StCatError, stable_hom, susp_ob
from stmodcat.toda import (BracketError, bracket3, bracket_read_off, bracket_tower,
                           filtered_witness, higher_bracket, is_jseq, restricted_higher_bracket)

R24 = Ring(2, 4)
k = module_from_partition(R24, [1])
M = module_from_partition(R24, [2])
M3 = module_from_partition(R24, [3])


@functools.cache
def _res():
    return adams_resolution(M, ProjectiveClass(k), 4)


def _first(A, B):
    return stable_hom(A, B).quotient_basis_maps()[0]


R34_MAP = identity_map(module_from_partition(Ring(3, 4), [2]))
# <g, f> over p=2 m=3: f = mu(x): R/x -> R/x^2, g = mu(1): R/x^2 -> R/x
TWOFOLD = [mu_map(Ring(2, 3), 2, 1, 0), mu_map(Ring(2, 3), 1, 2, 1)]
# <f, g, f> for f = mu(1): M -> k and g = mu(x): k -> M is empty: g . f != 0
EMPTY3 = [mu_map(R24, 2, 1, 0), mu_map(R24, 1, 2, 1), mu_map(R24, 2, 1, 0)]


# <f_3, f_2, f_1> on k -> M -> k -> M3, in the 1-dimensional T(Sigma k, M3)
def _maps():
    return [_first(k, M3), _first(M, k), _first(k, M)]


def _tower():
    # the tail (f_2, f_1) of `_maps()`
    return bracket_tower(_maps()[1:], M3)


CASES = {
    "restricted bracket with no triangles": (
        BracketError, lambda: restricted_higher_bracket([], identity_map(M), identity_map(M))),
    "float stable coordinates": (
        LinAlgError, lambda: stable_hom(M, M).from_stable_coords([0.7, 0.7])),
    "float bracket membership": (
        LinAlgError, lambda: (0.9,) in bracket3(_first(k, M3), _first(M, k), _first(k, M))),
    "float bracket read-off": (
        LinAlgError, lambda: bracket_read_off(_tower(), [0.5] * _tower().space.sdim)),
    "bool stable coordinates": (
        LinAlgError, lambda: stable_hom(M, M).from_stable_coords([True, False])),
    "d_r of a class over another ring": (
        AdamsError, lambda: dr_set(_res(), M, R34_MAP, 1)),
    "resolution by a generator over another ring": (
        RingMismatch, lambda: adams_resolution(M, ProjectiveClass(R34_MAP.src), 2)),
    "reduction sequence out of range": (
        BracketError, lambda: bracket_tower([_first(M, k), _first(k, M)], M3, jseq=(1,))),
    "negative cap": (
        EnumerationOverflow, lambda: dr_set(_res(), M, _first(_res().P[0], M), 1, cap=-1)),
    "2-fold bracket under cap 0": (
        EnumerationOverflow, lambda: higher_bracket(TWOFOLD, cap=0)),
    "2-fold bracket under a negative cap": (
        EnumerationOverflow, lambda: higher_bracket(TWOFOLD, cap=-3)),
    **{f"empty {defn} bracket under a negative cap": (
        EnumerationOverflow, lambda defn=defn: bracket3(*EMPTY3, defn=defn, cap=-1))
       for defn in ("cc", "fc", "ff")},
    "pages with r_max = 0": (AdamsError, lambda: pages(_res(), M, 0)),
    "pages past the resolution length": (AdamsError, lambda: pages(_res(), M, 5)),
    "window at a negative stage": (AdamsError, lambda: _res().window(-1, 2)),
    "window with r = 0": (AdamsError, lambda: _res().window(0, 0)),
    "window past the resolution length": (AdamsError, lambda: _res().window(2, 2)),
    "bracket membership one coordinate over": (
        DimensionMismatch, lambda: (0, 0) in bracket3(*_maps())),
    "bracket membership one coordinate short": (
        DimensionMismatch, lambda: () in bracket3(*_maps())),
    "op bracket membership one coordinate over": (
        DimensionMismatch, lambda: (0, 0) in bracket3(*reversed(_maps()), ctx=OP)),
    "filtered witness one coordinate over": (
        DimensionMismatch, lambda: filtered_witness(_maps(), (1, 0))),
    "float matrix entries": (LinAlgError, lambda: FpMatrix(2, [[0.7, 1.9]])),
    "float affine basis": (LinAlgError, lambda: AffineSpace(2, 2, [0, 0], [[0.5, 1.5]])),
}


def _cached(fn, Y, r, s, t):
    """fn(res, Y, x, r, s, t) for the first class x of E_1^{0,0}, once the
    forms of d_1[x] are read and cached: no memoized read may get ahead of
    the checks."""
    def call():
        x = _first(_res().P[0], M)
        dr_bracket_forms(_res(), M, x, 1)
        return fn(_res(), Y, x, r, s, t)
    return call


CASES |= {
    f"{fn.__name__} of a cached class {what}": (err, _cached(fn, *args))
    for fn in (dr_set, dr_bracket_forms)
    for what, err, args in (("in another slot", AdamsError, (M, 1, 0, 1)),
                            ("into a Y over another ring", RingMismatch,
                             (R34_MAP.src, 1, 0, 0)),
                            ("at r = 0", AdamsError, (M, 0, 0, 0)),
                            ("at s = -1", AdamsError, (M, 1, -1, 0)))}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bad_input_raises_the_named_engine_error(case):
    err, call = CASES[case]
    with pytest.raises(Exception) as raised:
        call()
    assert type(raised.value) is err, (type(raised.value), raised.value)


def test_empty_input_stays_valid():
    # an empty array has numpy's default float dtype, but no entry to truncate
    S = stable_hom(M, M)
    assert S.lifts(np.zeros((0, S.sdim))).shape == (0, M.dim, M.dim)
    assert S.lifts().shape == (S.sdim, M.dim, M.dim)
    assert as_vector([], 2).shape == (0,)
    assert FpMatrix(2, []).a.shape == (1, 0)
    assert AffineSpace(2, 2, [0, 0], []).basis.shape == (0, 2)


def test_a_returned_report_owns_its_metadata():
    # reads are memoized per window and class, but each call gets its own
    # sets and dicts: emptying one call's leaves the next call's whole
    x = _first(_res().P[1], M)
    dr_set(_res(), M, x, 1, 1).metadata.clear()
    assert dr_set(_res(), M, x, 1, 1).metadata == {"r": 1, "s": 1, "t": 0, "chains": 1}

    def dicts(rep):
        return [rep.dr.metadata, rep.full_bracket.metadata,
                rep.variants["operations_bracket"].metadata, rep.checks]

    first = dicts(dr_bracket_forms(_res(), M, x, 1, 1))
    want = [dict(d) for d in first]
    for d in first:
        d.clear()
    assert dicts(dr_bracket_forms(_res(), M, x, 1, 1)) == want
    assert all(want)


ENGINE_ERRORS = (AdamsError, BracketError, LinAlgError, ModRepError, StCatError)
DEGREES = st.sampled_from([-2, -1, 0, 1, 2, 3, 4, 5])   # around the resolution's length 4


@st.composite
def library_calls(draw):
    """A library call (function, arguments) with r, s, t and cap drawn from
    small negatives, zero and values past the resolution, a target Y over
    R24 or another ring, and whether an argument is out of range, so that a
    refusal is due."""
    res, r, s, t = _res(), draw(DEGREES), draw(DEGREES), draw(DEGREES)
    cap = draw(st.sampled_from([-2, -1, 0, 4096]))
    Y = draw(st.sampled_from([M, R34_MAP.src]))
    fn = draw(st.sampled_from([dr_set, dr_bracket_forms, pages, higher_bracket, bracket3,
                               sparse_check, res.window]))
    if fn in (dr_set, dr_bracket_forms):
        # x lies in E_1^{s,t}, or E_1^{s,t+1}, where stage s exists, else at s = 0
        s0, t0 = s if 0 <= s < res.length else 0, t + draw(st.integers(0, 1))
        x = _first(susp_ob(res.P[s0], t0), M)
        due = (r < 1 or s < 0 or s + r >= res.length or Y != M or cap < 1
               or x.src != susp_ob(res.P[s], t))
        return fn, (res, Y, x, r, s, t, cap), due
    if fn is pages:
        return fn, (res, Y, r), r < 1 or r > res.length or Y != M
    if fn is sparse_check:
        return fn, (Y, r, s), r < 1 or s < 0
    if fn == res.window:
        return fn, (s, r), s < 0 or r < 1 or s + r >= res.length
    # the last n maps of a 3-chain, `_maps()` or the empty EMPTY3, its
    # leftmost map over Y's ring, in the order of a drawn context
    n = 3 if fn is bracket3 else draw(st.integers(2, 3))
    ctx, chain = draw(st.sampled_from([DIRECT, OP])), draw(st.sampled_from([_maps(), EMPTY3]))
    maps = (chain if Y == M else [R34_MAP] + chain[1:])[3 - n:]
    maps = maps if ctx is DIRECT else maps[::-1]
    if fn is bracket3:
        defn = draw(st.sampled_from(["cc", "fc", "ff", "xx"]))
        return (functools.partial(bracket3, defn=defn, ctx=ctx, cap=cap), maps,
                cap < 0 or Y != M or defn == "xx")
    jseq = draw(st.sampled_from([None, (0,), (1,), (-1,)]))
    return fn, (maps, jseq, ctx, cap), (
        cap < 0 or (Y != M and n == 3) or (jseq is not None and not is_jseq(jseq, n)))


@given(library_calls())
@example((functools.partial(bracket3, defn="ff", cap=-1), EMPTY3, True))
@settings(max_examples=200, deadline=None)
def test_drawn_bad_calls_raise_engine_errors(call):
    # never a raw IndexError, RecursionError, TypeError or ValueError, and
    # never an answer where an argument is out of range
    fn, args, due = call
    try:
        fn(*args)
    except ENGINE_ERRORS:
        return
    assert not due, call
