"""Bracket composites read off in stable coordinates.

`toda._composite_set` composes only the generators of two affine solution
spaces; it reads the set as one affine space where their cross block is
zero and expands every pair bilinearly (`_pair_coords`) elsewhere.  These
tests hold both read-offs, and the brackets built on them, to the
per-pair compose loop they replaced; and a bracket's tower on
(f_{n-1}, ..., f_1), read off at every class of f_n, to the per-branch
loop (`_loop_bracket`), refusals and empty reasons included.
"""

import itertools
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import (
    RINGS,
    modules,
    random_module,
    random_stable_map,
    random_vanishing_chain,
    vanishing_chains,
    vanishing_triples,
)

import stmodcat.toda as toda
from stmodcat.adams import ProjectiveClass, adams_resolution, dr_bracket_forms
from stmodcat.linalg import (
    AffineSpace,
    EnumerationOverflow,
    FpMatrix,
    enumerate_points,
    row_space_basis,
)
from stmodcat.modrep import (
    Ring,
    block_map,
    identity_map,
    module_from_partition,
    mu_map,
    zero_map,
    zero_module,
)
from stmodcat.stcat import DIRECT, OP
from stmodcat.toda import (
    _composite_set,
    _empty_reason,
    _family,
    _family_solutions,
    _first_trace,
    _generator_composites,
    _pair_coords,
    all_jseqs,
    bracket3,
    bracket3_restricted,
    bracket_read_off,
    bracket_tower,
    filtered_witness,
    higher_bracket,
    indeterminacy_basis,
    susp_in_ctx,
    toda_family,
)

R33 = Ring(3, 3)
k33 = module_from_partition(R33, [1])
M33 = module_from_partition(R33, [2])
F33 = module_from_partition(R33, [3])   # free, so every stable hom into it is 0
MU1 = mu_map(R33, 2, 1, 0)   # M -> k
MUX = mu_map(R33, 1, 2, 1)   # k -> M

# <mu1, mu_x, mu1>: one lift and one extension, in T(Sigma k, k) = F_3
ZERO_DIM_SIDES = (DIRECT, [MU1, MUX, MU1])
# into a free module: T(Sigma M, F) = 0 and T(C, F) = 0
ZERO_AMBIENT = (DIRECT, [zero_map(M33, F33), MUX, MU1])


Z33 = zero_module(R33)


def _per_pair_loop(ctx, A, C, B, alpha_sols, beta_sols):
    """Stable coordinates of b . a, one (extension, lift) pair at a time, b-major."""
    amb, hom_ac, hom_cb = ctx.hom(A, B), ctx.hom(A, C), ctx.hom(C, B)
    return [amb.stable_coords(ctx.compose(hom_cb.from_stable_coords(b),
                                          hom_ac.from_stable_coords(a)))
            for b in enumerate_points(beta_sols, 4096)
            for a in enumerate_points(alpha_sols, 4096)]


@st.composite
def _affine_spaces(draw, p, n):
    """A point of F_p^n and the span of up to two drawn directions."""
    vec = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    rows = draw(st.lists(vec, max_size=2))
    basis = row_space_basis(FpMatrix(p, np.array(rows, dtype=np.int64).reshape(len(rows), n)))
    return AffineSpace(p, n, np.array(draw(vec), dtype=np.int64), basis.a)


def _assert_pair_coords_match(ctx, A, C, B, alpha_sols, beta_sols):
    want = _per_pair_loop(ctx, A, C, B, alpha_sols, beta_sols)
    got = _pair_coords(_generator_composites(ctx, A, C, B, alpha_sols, beta_sols),
                       alpha_sols, beta_sols)
    assert got.shape == (len(want), ctx.hom(A, B).sdim)
    assert [tuple(r) for r in got.tolist()] == want


@given(st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_pair_coords_match_the_per_pair_loop_on_drawn_modules(data):
    # modules on and off canonical layout, on every side, in both contexts
    ring = data.draw(st.sampled_from(RINGS))
    ctx = data.draw(st.sampled_from([DIRECT, OP]))
    A, C, B = (data.draw(modules(ring)) for _ in range(3))
    alpha_sols = data.draw(_affine_spaces(ring.p, ctx.hom(A, C).sdim))
    beta_sols = data.draw(_affine_spaces(ring.p, ctx.hom(C, B).sdim))
    _assert_pair_coords_match(ctx, A, C, B, alpha_sols, beta_sols)


@pytest.mark.parametrize("ctx", [DIRECT, OP], ids=["direct", "op"])
@pytest.mark.parametrize("A, C, B", [(Z33, k33, M33), (k33, Z33, M33), (M33, k33, Z33),
                                     (k33, M33, F33), (F33, M33, k33), (M33, k33, M33)],
                         ids=["empty_A", "empty_C", "empty_B", "free_B", "free_A", "M_k_M"])
def test_pair_coords_on_empty_modules_and_zero_groups(ctx, A, C, B):
    # each side runs over its whole group, which may be 0
    whole = [AffineSpace(R33.p, n, np.zeros(n, dtype=np.int64), np.eye(n, dtype=np.int64))
             for n in (ctx.hom(A, C).sdim, ctx.hom(C, B).sdim)]
    _assert_pair_coords_match(ctx, A, C, B, *whole)


def _family_spaces(ctx, f3, f2, f1):
    C, _, _, alpha_sols, beta_sols = _family_solutions(ctx, f3, f2, f1)
    return ctx.sigma_ob(ctx.src(f1)), C, ctx.tgt(f3), alpha_sols, beta_sols


def test_edge_examples_are_edges():
    ctx, maps = ZERO_DIM_SIDES
    A, C, B, alpha_sols, beta_sols = _family_spaces(ctx, *maps)
    assert alpha_sols.dim == beta_sols.dim == 0 and ctx.hom(A, B).sdim == 1
    ctx, maps = ZERO_AMBIENT
    A, C, B, alpha_sols, beta_sols = _family_spaces(ctx, *maps)
    assert ctx.hom(A, B).sdim == 0 and beta_sols.dim == 0


@given(vanishing_triples())
@example(ZERO_DIM_SIDES)
@example(ZERO_AMBIENT)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_pair_coords_match_the_composite_loop(chain):
    ctx, maps = chain
    A, C, B, alpha_sols, beta_sols = _family_spaces(ctx, *maps)
    assume(alpha_sols.size() * beta_sols.size() <= 256)
    hom = ctx.hom(A, B)
    want = [hom.stable_coords(ctx.compose(b, a))
            for b in ctx.classes(C, B, beta_sols)
            for a in ctx.classes(A, C, alpha_sols)]
    got = _pair_coords(_generator_composites(ctx, A, C, B, alpha_sols, beta_sols),
                       alpha_sols, beta_sols)
    assert got.shape == (len(want), hom.sdim)
    assert [tuple(r) for r in got.tolist()] == want


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_composite_set_is_the_per_pair_loop_on_drawn_spaces(data):
    # two drawn spaces: the cross block is usually nonzero, so this holds
    # the bilinear fallback as a set
    ring = data.draw(st.sampled_from(RINGS))
    ctx = data.draw(st.sampled_from([DIRECT, OP]))
    A, C, B = (data.draw(modules(ring)) for _ in range(3))
    alpha_sols = data.draw(_affine_spaces(ring.p, ctx.hom(A, C).sdim))
    beta_sols = data.draw(_affine_spaces(ring.p, ctx.hom(C, B).sdim))
    want = frozenset(_per_pair_loop(ctx, A, C, B, alpha_sols, beta_sols))
    assert _composite_set(ctx, A, C, B, alpha_sols, beta_sols) == want


@given(vanishing_triples())
@example(ZERO_DIM_SIDES)
@example(ZERO_AMBIENT)
@settings(max_examples=40, deadline=None)
def test_composite_set_is_one_affine_space_on_family_spaces(chain):
    # lifts differ by q . phi and extensions by psi . iota, and iota . q = 0:
    # the cross block of a family vanishes, so the set is one affine space
    ctx, maps = chain
    spaces = _family_spaces(ctx, *maps)
    assume(spaces[3].size() * spaces[4].size() <= 256)
    assert not _generator_composites(ctx, *spaces)[1:, 1:].any()
    assert _composite_set(ctx, *spaces) == frozenset(_per_pair_loop(ctx, *spaces))


def _no_fallback(*args):
    raise AssertionError("the bilinear fallback ran")


def test_zero_cross_blocks_take_the_affine_branch(monkeypatch):
    # the session bracket <mu_1, mu_x, mu_1>, d_2[kappa]'s bracket forms on
    # the worked example, and one set with a one-point side, with no fallback
    ctx, maps = ZERO_DIM_SIDES
    R24 = Ring(2, 4)
    k, M = module_from_partition(R24, [1]), module_from_partition(R24, [2])
    Ok = module_from_partition(R24, [3])
    res = adams_resolution(M, ProjectiveClass(k), 6)
    kappa = block_map([k, Ok], [M], [[mu_map(R24, 1, 2, 1), None]])
    # every class of T(M, M) = F_3, composed with mu_1
    whole = AffineSpace(R33.p, 1, np.zeros(1, dtype=np.int64), np.eye(1, dtype=np.int64))

    def compute():
        return (bracket3(*maps, defn="fc", ctx=ctx),
                bracket3_restricted(*maps, ctx=ctx),
                dr_bracket_forms(res, M, kappa, 2),
                _composite_set(DIRECT, M33, MU1.src, MU1.tgt, whole, toda._single(DIRECT, MU1)))

    want = compute()
    monkeypatch.setattr(toda, "_pair_coords", _no_fallback)
    got = compute()
    assert got == want
    assert got[0].elements == {(2,)}   # {-1}
    assert got[3] == frozenset(_per_pair_loop(DIRECT, M33, M33, k33, whole,
                                              toda._single(DIRECT, MU1)))
    assert len(got[3]) == 3


# ---------------------------------------------------------------------------
# higher_bracket against the per-pair loop


def _loop_bracket(maps, jseq, ctx, cap=10**6, reasons=None):
    """Every branch built and composed, keeping each element's first trace.

    The cap refuses as higher_bracket does, in the per-branch order: in
    every stage but the last two, a family of more than `cap` pairs
    (`_family`), then any stage of more than `cap` branches (the last two
    counted before they are listed), each with higher_bracket's message.
    The empty reason of every failing family is appended to `reasons`, in
    order.
    """
    branches = [(list(maps), [])]
    for k, j in enumerate(reversed(jseq)):
        fams = []
        for bm, trace in branches:
            sols = _family_solutions(ctx, *bm[j:j + 3])
            reason = _empty_reason(*sols[3:])
            if reason and reasons is not None:
                reasons.append(reason)
            fams.append((bm, trace, sols))
        if k >= len(jseq) - 2:
            total = sum(A.size() * B.size() for _, _, (_, _, _, A, B) in fams
                        if A is not None and B is not None)
            if total > cap:
                raise EnumerationOverflow(f"{total} bracket branches exceed cap {cap}")
        nxt = []
        for bm, trace, sols in fams:
            rest = [ctx.sigma_map(g) for g in bm[j + 3:]]
            for el in _family(ctx, bm[j], bm[j + 2], sols, cap):
                nxt.append((bm[:j] + [el.beta, el.sigma_alpha] + rest,
                            trace + [el]))
        if len(nxt) > cap:
            raise EnumerationOverflow(f"{len(nxt)} bracket branches exceed cap {cap}")
        branches = nxt
    space = ctx.hom(susp_in_ctx(ctx, ctx.src(maps[-1]), len(maps) - 2),
                    ctx.tgt(maps[0]))
    first = {}
    for (g, f), trace in branches:
        first.setdefault(space.stable_coords(ctx.compose(g, f)), trace)
    return first, len(branches)


def _trace(ctx, maps, jseq, key, cap):
    """The first trace of key, found on the tower of maps short of f_n."""
    tower = bracket_tower(maps[1:], ctx.tgt(maps[0]), jseq, ctx)
    return _first_trace(tower, tower.space.stable_coords(maps[0]), key, cap)


def _random_chains(seed, count, length):
    rng = np.random.default_rng(seed)
    for i in range(count):
        maps = random_vanishing_chain(rng, RINGS[i % len(RINGS)], length, max_dim=4)
        yield (DIRECT, maps) if i % 2 else (OP, list(reversed(maps)))


def _seeded_chain(seed, length, ctx):
    """A vanishing chain (odd seed) or one of random maps (even seed) over
    RINGS[seed % 6], in ctx's order."""
    rng = np.random.default_rng(seed)
    ring = RINGS[seed % len(RINGS)]
    if seed % 2:
        maps = random_vanishing_chain(rng, ring, length, max_dim=4)
    else:
        objs = [random_module(rng, ring, max_dim=4) for _ in range(length + 1)]
        maps = [random_stable_map(rng, a, b) for a, b in zip(objs, objs[1:])][::-1]
    return maps if ctx is DIRECT else maps[::-1]


@pytest.mark.parametrize("length", [3, 4])
def test_traces_are_the_first_pairs_of_the_loop(length):
    cap = 4096
    checked = 0
    for ctx, maps in _random_chains(40 + length, 12, length):
        for jseq in all_jseqs(length):
            try:
                first, pairs = _loop_bracket(maps, jseq, ctx)
                bs = higher_bracket(maps, jseq, ctx=ctx, cap=cap)
            except EnumerationOverflow:
                continue
            assert bs.elements == frozenset(first)
            assert {c: _trace(ctx, maps, jseq, c, cap) for c in first} == first
            assert bs.metadata["branches"] == pairs
            checked += bool(first)
    assert checked >= 4


def test_over_cap_last_stage_raises():
    # first stage: 4 branches; last stage: 8, 2, 8 and 2 pairs, 20 in all
    rng = np.random.default_rng(12)
    maps = random_vanishing_chain(rng, RINGS[0], 4, max_dim=4)
    assert len(toda_family(DIRECT, *maps[:3], cap=10)) == 4
    bs = higher_bracket(maps, cap=20)
    assert bs.metadata["branches"] == 20
    with pytest.raises(EnumerationOverflow):
        higher_bracket(maps, cap=10)
    with pytest.raises(EnumerationOverflow):
        filtered_witness(maps, next(iter(bs.elements)), cap=10)


def test_empty_reason_solves_each_family_once(monkeypatch):
    # a family is one cone of its middle map: the tower's node builds it
    # once, and the read-off and the walk for the reason both read it
    import stmodcat.stcat as stcat

    calls = []

    def counting(f):
        calls.append(f)
        return cone_triangle(f)

    cone_triangle = stcat.cone_triangle
    monkeypatch.setattr(stcat, "cone_triangle", counting)
    bs = higher_bracket([MU1, MUX, identity_map(k33), MU1])
    assert bs.is_empty() and bs.empty_reason == "f2.f1 not stably zero"
    assert len(calls) == 1


def _assert_matches_the_loop(ctx, maps, jseq, cap):
    """higher_bracket and the first traces against the loop: elements, traces,
    branch count, empty reason, and whether the cap refuses the bracket."""
    reasons = []
    try:
        first, pairs = _loop_bracket(maps, jseq, ctx, cap, reasons)
    except EnumerationOverflow as refused:
        with pytest.raises(EnumerationOverflow, match=f"^{re.escape(str(refused))}$"):
            higher_bracket(maps, jseq, ctx=ctx, cap=cap)
        return None
    bs = higher_bracket(maps, jseq, ctx=ctx, cap=cap)
    assert {c: _trace(ctx, maps, jseq, c, cap) for c in first} == first
    assert bs.elements == frozenset(first)
    assert bs.metadata["branches"] == pairs
    assert bs.empty_reason == (None if first else reasons[0])
    return bs


LOOP_CAP = 64


class _Drawn:
    """An explicit example for a test drawing from st.data(): every draw
    returns the one chain."""

    def __init__(self, chain):
        self.chain = chain

    def draw(self, strategy):
        return self.chain


# a 4-fold chain at p = 3 whose one last-stage group has a nonzero cross
# block: 27 pairs, 9 elements, read through the bilinear fallback
CROSS_CHAIN = (DIRECT, random_vanishing_chain(np.random.default_rng(56), RINGS[3], 4,
                                              max_dim=4), (0, 0))


@pytest.mark.parametrize("length", [3, 4, 5])
@given(data=st.data())
@example(data=_Drawn(CROSS_CHAIN))
@settings(max_examples=20, deadline=None)
def test_higher_bracket_matches_the_loop_in_every_order(length, data):
    ctx, maps, jseq = data.draw(vanishing_chains(length))
    assume(len(maps) == length)
    _assert_matches_the_loop(ctx, maps, jseq, LOOP_CAP)


def test_a_tower_reads_every_class_of_f_n_as_the_loop():
    # one tower per drawn tail (f_{n-1}, ..., f_1), n = 3, 4, 5, and
    # reduction order, both contexts, read at cap 64 and then, warm, at a
    # cap of 3 that refuses some; read off at every class of f_n's hom
    # group, it gives the loop's elements, branch count, empty reason and
    # refusal message at that cap
    seen = {}
    for length in (3, 4, 5):
        for seed in range(16):
            ctx = OP if seed % 4 >= 2 else DIRECT   # with seed % 2, all four kinds
            maps = _seeded_chain(100 * length + seed, length, ctx)
            tail, Xn = maps[1:], ctx.tgt(maps[0])
            space = ctx.hom(ctx.tgt(tail[0]), Xn)
            if space.p ** space.sdim > 27:
                continue
            classes = list(itertools.product(range(space.p), repeat=space.sdim))
            for jseq in all_jseqs(length):
                tower = bracket_tower(tail, Xn, jseq, ctx)
                for cap, c in itertools.product((64, 3), classes):
                    reasons = []
                    try:
                        first, pairs = _loop_bracket([space.from_stable_coords(c)] + tail,
                                                     jseq, ctx, cap, reasons)
                    except EnumerationOverflow as refused:
                        with pytest.raises(EnumerationOverflow,
                                           match=f"^{re.escape(str(refused))}$"):
                            bracket_read_off(tower, c, cap)
                        outcome = str(refused).split(" ", 1)[1]
                    else:
                        bs = bracket_read_off(tower, c, cap)
                        assert bs.elements == frozenset(first), (jseq, cap, c)
                        assert bs.metadata == {"n": length, "jseq": jseq, "branches": pairs}
                        assert bs.empty_reason == (None if first else reasons[0])
                        outcome = bs.empty_reason or "nonempty"
                    seen[length, outcome] = seen.get((length, outcome), 0) + 1
    kinds = {outcome.split(" cap")[0] for _, outcome in seen}
    assert kinds == {"nonempty", "f2.f1 not stably zero", "f3.f2 not stably zero",
                     "bracket branches exceed", "filler pairs exceed"}, seen
    assert all(seen.get((n, "nonempty"), 0) >= 10 for n in (3, 4, 5)), seen


@pytest.mark.parametrize("seed, ctx", [(8, OP), (12, DIRECT), (17, DIRECT)],
                         ids=["op-8", "direct-12", "direct-17"])
def test_the_reason_is_the_first_failing_family_in_the_per_branch_order(seed, ctx):
    # 5-fold chains whose empty brackets have families failing with both
    # reasons in one stage, so the order decides: of a node's children
    # (seeds 8 and 12) and of a family's extensions (seed 17)
    maps = _seeded_chain(seed, 5, ctx)
    tail, Xn = maps[1:], ctx.tgt(maps[0])
    space = ctx.hom(ctx.tgt(tail[0]), Xn)
    empty = 0
    for jseq in all_jseqs(5):
        tower = bracket_tower(tail, Xn, jseq, ctx)
        for c in itertools.product(range(space.p), repeat=space.sdim):
            reasons = []
            first, pairs = _loop_bracket([space.from_stable_coords(c)] + tail, jseq, ctx,
                                         4096, reasons)
            bs = bracket_read_off(tower, c)
            assert (bs.elements, bs.metadata["branches"]) == (frozenset(first), pairs)
            assert bs.empty_reason == (None if first else reasons[0]), (jseq, c)
            empty += not first and len(set(reasons)) == 2
    assert empty


@pytest.mark.parametrize("seed, ctx", [(23, OP), (172, DIRECT)], ids=["op-23", "direct-172"])
def test_a_beta_group_missing_its_extension_names_its_first_target(seed, ctx):
    # under jseq (0, 1) the first group's children lift some of the targets
    # -Sigma(sigma_alpha) but not the first one, so where f_4 does not
    # extend over that group's cone the first branch names f2.f1
    rng = np.random.default_rng(seed)
    ring = RINGS[seed % len(RINGS)]
    tail = random_vanishing_chain(rng, ring, 3, max_dim=4)
    X4 = random_module(rng, ring, max_dim=4)
    tail = tail if ctx is DIRECT else tail[::-1]
    tower = bracket_tower(tail, X4, (0, 1), ctx)
    # the first group lifts, but not its first branch's target
    assert tower.root.groups[0].lifts is not None
    beta, sigma_alpha = tower.root.children[0].maps
    assert ctx.solve_post(ctx.cone(beta)[2], -ctx.sigma_map(sigma_alpha)) is None
    space, named = tower.space, 0
    for c in itertools.product(range(space.p), repeat=space.sdim):
        reasons = []
        first, pairs = _loop_bracket([space.from_stable_coords(c)] + tail, (0, 1), ctx,
                                     4096, reasons)
        bs = bracket_read_off(tower, c)
        assert (bs.elements, bs.metadata["branches"]) == (frozenset(first), pairs)
        assert bs.empty_reason == (None if first else reasons[0]), c
        named += bs.empty_reason == "f2.f1 not stably zero"
    assert named


def test_the_cross_chain_reads_a_nonzero_cross_block(monkeypatch):
    ctx, maps, jseq = CROSS_CHAIN
    monkeypatch.setattr(toda, "_pair_coords", _no_fallback)
    with pytest.raises(AssertionError, match="bilinear fallback"):
        higher_bracket(maps, jseq, ctx=ctx, cap=LOOP_CAP)


@st.composite
def _triples(draw):
    """A context and a 3-chain in its order: a vanishing one, or three
    random maps whose composites need not vanish."""
    if draw(st.booleans()):
        return draw(vanishing_triples())
    ring = draw(st.sampled_from(RINGS))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    objs = [random_module(rng, ring, max_dim=4) for _ in range(4)]
    maps = [random_stable_map(rng, a, b) for a, b in zip(objs, objs[1:])]
    return (OP, maps) if draw(st.booleans()) else (DIRECT, maps[::-1])


@given(_triples(), st.sampled_from([1, 3, 9, 64]))
@example(ZERO_DIM_SIDES, 1)
@example(ZERO_AMBIENT, 1)
@settings(max_examples=60, deadline=None)
def test_fc_bracket_matches_the_loop(chain, cap):
    # fc is the 3-fold higher bracket plus its indeterminacy: held to the
    # per-pair loop in elements, empty reason and the cap's refusal
    ctx, maps = chain
    reasons = []
    try:
        first, pairs = _loop_bracket(maps, (0,), ctx, cap, reasons)
    except EnumerationOverflow:
        with pytest.raises(EnumerationOverflow):
            bracket3(*maps, defn="fc", ctx=ctx, cap=cap)
        return
    bs = bracket3(*maps, defn="fc", ctx=ctx, cap=cap)
    assert bs.elements == frozenset(first)
    assert bs.empty_reason == (None if first else reasons[0])
    assert bs.metadata == {"defn": "fc", "branches": pairs}
    assert bs.indeterminacy == (indeterminacy_basis(ctx, *maps) if first else None)


def _last_stage_by_beta(maps):
    """Under jseq (0, 1), per class beta of the first family: does any of
    its children (f4, beta, sigma_alpha) have a nonempty last stage?"""
    out = {}
    for el in toda_family(DIRECT, *maps[1:], cap=10**6):
        sols = _family_solutions(DIRECT, maps[0], el.beta, el.sigma_alpha)
        key = el.beta.A.a.tobytes()
        out[key] = out.get(key, False) or _empty_reason(*sols[3:]) is None
    return list(out.values())


def test_beta_groups_keep_the_first_branch_reason_and_the_cap():
    # the j = 1 groups share a beta: here one of four has a nonempty last
    # stage, and the rest fail, on a missing lift or extension
    mixed = random_vanishing_chain(np.random.default_rng(51), RINGS[0], 4, max_dim=4)
    assert sorted(_last_stage_by_beta(mixed)) == [False, False, False, True]
    bs = _assert_matches_the_loop(DIRECT, mixed, (0, 1), 10**6)
    branches = bs.metadata["branches"]
    assert bs.elements and bs.empty_reason is None and branches == 16
    for cap in (branches, branches - 1):
        _assert_matches_the_loop(DIRECT, mixed, (0, 1), cap)
    with pytest.raises(EnumerationOverflow):
        higher_bracket(mixed, (0, 1), cap=branches - 1)
    # every group fails: the first group's beta has no extension, yet its
    # first sigma_alpha lifts, so the first branch names f3.f2
    empty = random_vanishing_chain(np.random.default_rng(110), RINGS[1], 4, max_dim=4)
    assert _last_stage_by_beta(empty) == [False, False]
    bs = _assert_matches_the_loop(DIRECT, empty, (0, 1), 10**6)
    assert bs.is_empty() and bs.empty_reason == "f3.f2 not stably zero"
