"""Bracket composites read off in stable coordinates.

`toda._pair_coords` composes only the generators of two affine solution
spaces and expands every pair bilinearly; these tests hold it, and the
brackets built on it, to the per-pair compose loop it replaced.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings

from conftest import RINGS, random_vanishing_chain, vanishing_triples

import stmodcat.toda as toda
from stmodcat.linalg import EnumerationOverflow
from stmodcat.modrep import (
    Ring,
    identity_map,
    module_from_partition,
    mu_map,
    zero_map,
)
from stmodcat.stcat import DIRECT, OP
from stmodcat.toda import (
    _family_solutions,
    _pair_coords,
    all_jseqs,
    higher_bracket,
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
    got = _pair_coords(ctx, A, C, B, alpha_sols, beta_sols)
    assert got.shape == (len(want), hom.sdim)
    assert [tuple(r) for r in got.tolist()] == want


# ---------------------------------------------------------------------------
# higher_bracket against the per-pair loop


def _loop_bracket(maps, jseq, ctx):
    """Every branch built and composed, keeping each element's first trace."""
    branches = [(list(maps), [])]
    for j in reversed(jseq):
        nxt = []
        for bm, trace in branches:
            rest = [ctx.sigma_map(g) for g in bm[j + 3:]]
            for el in toda_family(ctx, *bm[j:j + 3], cap=10**6):
                nxt.append((bm[:j] + [el.beta, el.sigma_alpha] + rest,
                            trace + [el]))
        branches = nxt
    space = ctx.hom(susp_in_ctx(ctx, ctx.src(maps[-1]), len(maps) - 2),
                    ctx.tgt(maps[0]))
    first = {}
    for (g, f), trace in branches:
        first.setdefault(space.stable_coords(ctx.compose(g, f)), trace)
    return first, len(branches)


def _random_chains(seed, count, length):
    rng = np.random.default_rng(seed)
    for i in range(count):
        maps = random_vanishing_chain(rng, RINGS[i % len(RINGS)], length, max_dim=4)
        yield (DIRECT, maps) if i % 2 else (OP, list(reversed(maps)))


@pytest.mark.parametrize("length", [3, 4])
def test_traces_are_the_first_pairs_of_the_loop(length):
    checked = 0
    for ctx, maps in _random_chains(40 + length, 12, length):
        for jseq in all_jseqs(length):
            try:
                first, pairs = _loop_bracket(maps, jseq, ctx)
                bs, traces = higher_bracket(maps, jseq, ctx=ctx, with_trace=True)
            except EnumerationOverflow:
                continue
            assert higher_bracket(maps, jseq, ctx=ctx).elements == bs.elements
            assert bs.elements == frozenset(traces) == frozenset(first)
            assert traces == first
            assert bs.metadata["branches"] == pairs
            checked += bool(first)
    assert checked >= 4


def test_over_cap_last_stage_raises():
    # first stage: 4 branches; last stage: 8, 2, 8 and 2 pairs, 20 in all
    rng = np.random.default_rng(12)
    maps = random_vanishing_chain(rng, RINGS[0], 4, max_dim=4)
    assert len(toda_family(DIRECT, *maps[:3], cap=10)) == 4
    assert higher_bracket(maps, cap=20).metadata["branches"] == 20
    with pytest.raises(EnumerationOverflow):
        higher_bracket(maps, cap=10)
    with pytest.raises(EnumerationOverflow):
        higher_bracket(maps, cap=10, with_trace=True)


def test_empty_reason_solves_each_family_once(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return _family_solutions(*args)

    monkeypatch.setattr(toda, "_family_solutions", counting)
    bs = higher_bracket([MU1, MUX, identity_map(k33), MU1])
    assert bs.is_empty() and bs.empty_reason == "f2.f1 not stably zero"
    assert len(calls) == 1
