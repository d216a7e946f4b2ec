"""The library refuses bad input with its own documented errors: each call
below raises exactly the named engine error, never a raw numpy or Python
exception, and never returns a silent answer."""

import functools

import numpy as np
import pytest

from stmodcat.adams import (AdamsError, ProjectiveClass, adams_resolution, dr_bracket_forms,
                            dr_set, pages)
from stmodcat.linalg import AffineSpace, EnumerationOverflow, FpMatrix, LinAlgError, as_vector
from stmodcat.modrep import Ring, RingMismatch, identity_map, module_from_partition, mu_map
from stmodcat.stcat import stable_hom
from stmodcat.toda import (BracketError, bracket3, bracket_read_off, bracket_tower,
                           higher_bracket, restricted_higher_bracket)

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


def _tower():
    # the tail (f_2, f_1) of <f_3, f_2, f_1> on k -> M -> k -> M3
    return bracket_tower([_first(M, k), _first(k, M)], M3)


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
    "pages with r_max = 0": (AdamsError, lambda: pages(_res(), M, 0)),
    "pages past the resolution length": (AdamsError, lambda: pages(_res(), M, 5)),
    "window at a negative stage": (AdamsError, lambda: _res().window(-1, 2)),
    "window with r = 0": (AdamsError, lambda: _res().window(0, 0)),
    "window past the resolution length": (AdamsError, lambda: _res().window(2, 2)),
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
