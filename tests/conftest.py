"""Shared helpers: random modules, random maps, vanishing chains, and the
per-class restricted read-off kept as a reference."""

import numpy as np
from hypothesis import settings, strategies as st

from stmodcat.linalg import FpMatrix, solve_columns
from stmodcat.modrep import RModule, Ring, module_from_partition
from stmodcat.stcat import DIRECT, OP, stable_hom
from stmodcat.toda import (BracketSet, _check_pairs, _composite_set, _empty_bracket,
                           _single, all_jseqs, susp_in_ctx)

# every property draws the same examples on every run, and none is
# replayed from a local example database
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

RINGS = [Ring(2, 2), Ring(2, 3), Ring(2, 4),
         Ring(3, 2), Ring(3, 3), Ring(3, 4)]


def random_module(rng, ring, max_dim=8):
    parts = []
    total = 0
    while True:
        l = int(rng.integers(1, ring.m + 1))
        if total + l > max_dim or (parts and rng.random() < 0.4):
            break
        parts.append(l)
        total += l
    if not parts:
        parts = [1]
    return module_from_partition(ring, parts)


def random_stable_map(rng, A, B):
    S = stable_hom(A, B)
    return S.from_stable_coords(rng.integers(0, A.ring.p, size=S.sdim))


def random_in_kernel(rng, mat, space):
    """Random stable class in the kernel of a composition operator."""
    from stmodcat.linalg import nullspace
    kern = nullspace(mat)
    coeffs = rng.integers(0, space.p, size=kern.rows)
    v = (coeffs @ kern.a) % space.p if kern.rows else np.zeros(space.sdim, dtype=np.int64)
    return space.from_stable_coords(v)


def random_vanishing_chain(rng, ring, length, max_dim=6):
    """Maps (f_length, ..., f_1) with all consecutive composites stably zero.

    Built middle-out: each new map is sampled from the kernel of the
    relevant composition operator, so the vanishing is exact by
    construction.
    """
    from stmodcat.stcat import pre_matrix

    objs = [random_module(rng, ring, max_dim) for _ in range(length + 1)]
    maps = [None] * length  # maps[i] : objs[i] -> objs[i+1], f_{i+1} in bracket order
    maps[0] = random_stable_map(rng, objs[0], objs[1])
    for i in range(1, length):
        # f_{i+1} . f_i must vanish: sample in ker( (-) . f_i )
        space = stable_hom(objs[i], objs[i + 1])
        mat = pre_matrix(maps[i - 1], objs[i + 1])
        maps[i] = random_in_kernel(rng, mat, space)
    return list(reversed(maps))  # bracket order: f_length first


@st.composite
def vanishing_chains(draw, length):
    """A context, a seeded vanishing chain of `length` maps in that context's
    order, over a drawn ring, and a reduction sequence from all_jseqs."""
    ring = draw(st.sampled_from(RINGS))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    maps = random_vanishing_chain(rng, ring, length, max_dim=4)
    ctx, maps = (OP, list(reversed(maps))) if draw(st.booleans()) else (DIRECT, maps)
    return ctx, maps, draw(st.sampled_from(all_jseqs(length)))


def vanishing_triples():
    """A context and a vanishing 3-chain in its order."""
    return vanishing_chains(3).map(lambda chain: chain[:2])


def change_basis(M: RModule, lower, upper) -> RModule:
    """M moved off canonical layout by C = L U, with L and U the unit
    triangular matrices taken from below and above the diagonals of
    `lower` and `upper`; so C is invertible."""
    n, p = M.dim, M.ring.p
    L = np.tril(lower, -1) + np.eye(n, dtype=np.int64)
    U = np.triu(upper, 1) + np.eye(n, dtype=np.int64)
    C = FpMatrix(p, L @ U)
    return RModule(M.ring, C @ M.X @ solve_columns(C, FpMatrix.identity(p, n)))


@st.composite
def modules(draw, ring):
    """A module of dim <= 5, optionally moved off canonical layout by a change of basis."""
    parts = draw(st.lists(st.integers(1, ring.m), min_size=1, max_size=3)
                 .filter(lambda ps: sum(ps) <= 5))
    M = module_from_partition(ring, parts)
    if not draw(st.booleans()):
        return M
    n, p = M.dim, ring.p
    entries = st.lists(st.integers(0, p - 1), min_size=n * n, max_size=n * n)
    return change_basis(M, np.array(draw(entries)).reshape(n, n),
                        np.array(draw(entries)).reshape(n, n))


def composites_after(ctx, b, A, sols, cap):
    """Stable coordinates of b . a for every class a: A -> src b in sols,
    refused over cap first, as the restricted read-off once listed them."""
    _check_pairs(sols.p, sols.dim, cap)
    return _composite_set(ctx, A, ctx.src(b), ctx.tgt(b), sols, _single(ctx, b))


def restricted_per_class(triangles, stages, g, x, ctx=DIRECT, cap=4096):
    """The restricted bracket at x on a built tower, read for x alone: x
    suspended once per stage, one lift solve through the top stage's iota,
    and the composites of every lift with g . beta; with no stage the one
    composite g . h_1 . x."""
    B, A = ctx.src(x), ctx.tgt(g)
    if not stages:
        comp = ctx.compose(g, ctx.compose(triangles[0].h, x))
        return BracketSet(B, A, ctx.name, frozenset([ctx.hom(B, A).stable_coords(comp)]),
                          None, None, {"n": 2})
    SB, meta = susp_in_ctx(ctx, B, len(stages)), {"n": len(stages) + 2}
    for _ in stages:
        x = ctx.sigma_map(x)
    lift_sols = ctx.solve_post(stages[-1].iota, -x)
    if lift_sols is None:
        return _empty_bracket(ctx, SB, A, "x does not lift", meta)
    elems = composites_after(ctx, ctx.compose(g, stages[-1].beta), SB, lift_sols, cap)
    return BracketSet(SB, A, ctx.name, elems, None, None, meta)
