"""Toda brackets: 3-fold (three definitions), families, n-fold brackets
under arbitrary reduction sequences, restricted brackets, and filtered
object witnesses.

All computations are exact: the defining lifting and extension problems
are solved as affine spaces inside finite stable hom groups, and the
composites over every pair of solutions are read off the composites of
their generators (`_composite_set`): one affine space where the cross
block is zero, as in every family, else the bilinear expansion over the
pairs (`_pair_coords`).  The last stage of an n-fold bracket is read per
group of branches sharing its middle map: their differing side is one
affine preimage, so a group costs one cone, two solves and one read-off,
however many branches it holds.  The fiber-cofiber bracket is the 3-fold
higher bracket, one such group, with its indeterminacy added.  A bracket
is a set of coordinates only; the one branch a filtered witness is built
on is found by walking the branches in order (`_first_trace`).  A
restricted bracket is a tower of octahedra on its triangles alone, then
one lift and read-off at the fed-in map, so one tower serves every map.
Everything runs in a computation context (the category or its opposite),
so every bracket here can also be evaluated in the opposite category for
duality checks.

Conventions: the fiber-cofiber bracket of (f3, f2, f1) collects the
composites beta . Sigma(alpha) where, for the fixed cone triangle
(f2, q, iota), Sigma(alpha) satisfies iota . Sigma(alpha) = -Sigma(f1)
and beta satisfies beta . q = f3.  Empty brackets carry a reason code
naming the composite that failed to vanish.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .linalg import (
    AffineSpace,
    EnumerationOverflow,
    FpMatrix,
    affine_image,
    enumerate_points,
    in_span,
    preimage,
    row_space_basis,
    solve_affine,
    span_points,
    stack_rows,
)
from .modrep import RMap, RModule, identity_map, zero_module
from .stcat import DIRECT, stably_equal


class BracketError(Exception):
    pass


class PrescribedMapError(BracketError):
    """A prescribed lift or extension fails its defining equation."""


class OctahedronError(BracketError):
    """No octahedron completion exists; the input triangles are inconsistent."""


@dataclass(frozen=True)
class BracketSet:
    """A finite subset of a stable hom group, in quotient coordinates."""

    src: RModule
    tgt: RModule
    ctx_name: str
    elements: frozenset
    indeterminacy: tuple | None = None
    empty_reason: str | None = None
    metadata: dict = field(default_factory=dict, compare=False)

    def is_empty(self) -> bool:
        return not self.elements

    def __contains__(self, coords) -> bool:
        return tuple(int(c) for c in coords) in self.elements

    def same_ambient(self, other: "BracketSet") -> bool:
        return (self.src == other.src and self.tgt == other.tgt
                and self.ctx_name == other.ctx_name)

    def equal_sets(self, other: "BracketSet") -> bool:
        return self.same_ambient(other) and self.elements == other.elements

    def subset_of(self, other: "BracketSet") -> bool:
        return self.same_ambient(other) and self.elements <= other.elements

    def negate(self) -> "BracketSet":
        p = self.src.ring.p
        neg = frozenset(tuple((-c) % p for c in e) for e in self.elements)
        return BracketSet(self.src, self.tgt, self.ctx_name, neg,
                          self.indeterminacy, self.empty_reason,
                          dict(self.metadata))

    def sorted_elements(self) -> list[tuple]:
        return sorted(self.elements)

    def rep_maps(self, ctx=DIRECT) -> list[RMap]:
        return [ctx.make(self.src, self.tgt, e) for e in self.sorted_elements()]


@dataclass(frozen=True)
class TodaFamilyElement:
    """One pair (beta, Sigma alpha) through a fixed cone of the middle map."""

    intermediate: RModule
    sigma_alpha: RMap
    beta: RMap
    cone_q: RMap
    cone_iota: RMap


def _family_solutions(ctx, f3, f2, f1):
    """Cone of f2 plus the two affine solution sets (either may be None)."""
    C, q, iota = ctx.cone(f2)
    sf1 = ctx.sigma_map(f1)
    alpha_sols = ctx.solve_post(iota, -sf1)
    beta_sols = ctx.solve_pre(q, f3)
    return C, q, iota, alpha_sols, beta_sols


def _empty_reason(alpha_sols, beta_sols) -> str | None:
    if alpha_sols is None:
        return "f2.f1 not stably zero"
    if beta_sols is None:
        return "f3.f2 not stably zero"
    return None


def _check_pairs(p: int, dim: int, cap: int):
    """Refuse, before listing either side, p^dim (lift, extension) pairs over cap."""
    if p ** dim > cap:
        raise EnumerationOverflow(f"{p ** dim} filler pairs exceed cap {cap}")


def toda_family(ctx, f3, f2, f1, cap: int = 4096) -> list[TodaFamilyElement]:
    """All pairs (beta, Sigma alpha) through the canonical cone of f2."""
    return _family(ctx, f3, f1, _family_solutions(ctx, f3, f2, f1), cap)


def _family(ctx, f3, f1, sols, cap) -> list[TodaFamilyElement]:
    C, q, iota, alpha_sols, beta_sols = sols
    if alpha_sols is None or beta_sols is None:
        return []
    _check_pairs(alpha_sols.p, alpha_sols.dim + beta_sols.dim, cap)
    SX0 = ctx.sigma_ob(ctx.src(f1))
    X3 = ctx.tgt(f3)
    alphas = ctx.classes(SX0, C, alpha_sols, cap)
    betas = ctx.classes(C, X3, beta_sols, cap)
    return [TodaFamilyElement(C, a, b, q, iota)
            for b in betas for a in alphas]


def _single(ctx, f) -> AffineSpace:
    """The 0-dimensional solution space holding the stable class of f alone."""
    coords = ctx.hom(ctx.src(f), ctx.tgt(f)).stable_coords(f)
    return AffineSpace(f.src.ring.p, len(coords), np.array(coords, dtype=np.int64),
                       np.zeros((0, len(coords)), dtype=np.int64))


def _generator_composites(ctx, A, C, B, alpha_sols, beta_sols) -> np.ndarray:
    """G[k, i]: stable coordinates in T(A, B) of beta generator k (in T(C, B))
    composed with alpha generator i (in T(A, C)), in one broadcast product.
    Composition is bilinear on stable classes, so only generators are lifted."""
    alphas = ctx.hom(A, C).lifts(alpha_sols.generators())
    betas = ctx.hom(C, B).lifts(beta_sols.generators())
    return ctx.hom(A, B).coords_of(ctx.compose(betas[:, None], alphas[None]))


def _pair_coords(G, alpha_sols, beta_sols) -> np.ndarray:
    """The bilinear expansion: one row per pair (b, a), b-major, each side
    in enumerate_points order; coefficient rows w, u give sum_ki w_k u_i G[k, i]."""
    out = np.einsum("bk,ai,kis->bas", beta_sols.coefficients(),
                    alpha_sols.coefficients(), G)
    return out.reshape(beta_sols.size() * alpha_sols.size(), G.shape[2]) % alpha_sols.p


def _coord_set(rows: np.ndarray) -> frozenset:
    return frozenset(map(tuple, rows.tolist()))


def _composite_set(ctx, A, C, B, alpha_sols, beta_sols) -> frozenset:
    """Stable coordinates of every composite b . a, a in alpha_sols, b in
    beta_sols.  With a zero cross block G[1:, 1:] (always when a side is
    one point) they are one affine space, G[0, 0] plus the span of G[1:, 0]
    and G[0, 1:]; otherwise every pair is expanded (`_pair_coords`)."""
    G = _generator_composites(ctx, A, C, B, alpha_sols, beta_sols)
    if G[1:, 1:].any():
        return _coord_set(_pair_coords(G, alpha_sols, beta_sols))
    return span_points(alpha_sols.p, G[0, 0].tolist(), G[1:, 0].tolist() + G[0, 1:].tolist())


def _composites_after(ctx, b, A, sols, cap) -> frozenset:
    """Stable coordinates of b . a for every class a: A -> src b in sols."""
    _check_pairs(sols.p, sols.dim, cap)
    return _composite_set(ctx, A, ctx.src(b), ctx.tgt(b), sols, _single(ctx, b))


def indeterminacy_basis(ctx, f3, f2, f1) -> tuple:
    """Basis (rows of stable coordinates) of the indeterminacy subgroup
    f3 . T(Sigma X0, X2) + T(Sigma X1, X3) . Sigma f1: the row space of the
    stacked transposes of the two composition matrices."""
    post = ctx.post_matrix(f3, ctx.sigma_ob(ctx.src(f1)))
    pre = ctx.pre_matrix(ctx.sigma_map(f1), ctx.tgt(f3))
    basis = row_space_basis(FpMatrix(post.p, np.vstack([post.a.T, pre.a.T])))
    return tuple(tuple(int(x) for x in r) for r in basis.a)


def _empty_bracket(ctx, SX0, Xn, reason, meta) -> BracketSet:
    return BracketSet(SX0, Xn, ctx.name, frozenset(), None, reason, meta)


def bracket3(f3, f2, f1, defn: str = "fc", ctx=DIRECT,
             cap: int = 4096) -> BracketSet:
    """The 3-fold Toda bracket, by the chosen construction.

    defn: "cc" (iterated cofiber), "fc" (fiber-cofiber), or "ff"
    (iterated fiber).  All three produce the same subset of
    T(Sigma X0, X3); computing them separately is the point of the
    cross-checks.
    """
    if ctx.tgt(f1) != ctx.src(f2) or ctx.tgt(f2) != ctx.src(f3):
        raise BracketError("maps are not composable")
    build = {"fc": _bracket3_fc, "cc": _bracket3_cc, "ff": _bracket3_ff}.get(defn)
    if build is None:
        raise BracketError(f"unknown bracket definition {defn!r}")
    return build(ctx, f3, f2, f1, cap)


def _bracket3_fc(ctx, f3, f2, f1, cap) -> BracketSet:
    # the fiber-cofiber bracket is the 3-fold higher bracket
    bs = higher_bracket([f3, f2, f1], ctx=ctx, cap=cap)
    return replace(bs, indeterminacy=(indeterminacy_basis(ctx, f3, f2, f1)
                                      if bs.elements else None),
                   metadata={"defn": "fc", "branches": bs.metadata["branches"]})


def _bracket3_cc(ctx, f3, f2, f1, cap) -> BracketSet:
    X0, X3 = ctx.src(f1), ctx.tgt(f3)
    SX0 = ctx.sigma_ob(X0)
    C1, q1, iota1 = ctx.cone(f1)
    phi_sols = ctx.solve_pre(q1, f2)
    if phi_sols is None:
        return _empty_bracket(ctx, SX0, X3, "f2.f1 not stably zero",
                              {"defn": "cc"})
    # psi . iota1 = f3 . phi for some extension phi of f2; only the
    # composite f3 . phi matters, so psi runs over one preimage
    psi_sols = preimage(ctx.pre_matrix(iota1, X3),
                        affine_image(phi_sols, ctx.post_matrix(f3, C1)))
    elements = (frozenset() if psi_sols is None
                else _coord_set(np.array(enumerate_points(psi_sols, cap))))
    return BracketSet(SX0, X3, ctx.name, elements,
                      indeterminacy_basis(ctx, f3, f2, f1),
                      None if elements else "f3.f2 not stably zero",
                      {"defn": "cc"})


def _bracket3_ff(ctx, f3, f2, f1, cap) -> BracketSet:
    X0, X3 = ctx.src(f1), ctx.tgt(f3)
    SX0 = ctx.sigma_ob(X0)
    W = ctx.sigma_inv_ob(X3)
    F, u, v = ctx.fiber(f3)
    gamma_sols = ctx.solve_post(v, f2)
    if gamma_sols is None:
        return _empty_bracket(ctx, SX0, X3, "f3.f2 not stably zero",
                              {"defn": "ff"})
    # u . delta = gamma . f1 for some lift gamma of f2 (v . gamma = f2)
    delta_space = preimage(ctx.post_matrix(u, X0),
                           affine_image(gamma_sols, ctx.pre_matrix(f1, F)))
    if delta_space is None:
        return _empty_bracket(ctx, SX0, X3, "f2.f1 not stably zero",
                              {"defn": "ff"})
    # push through delta -> ident . Sigma delta
    ident = ctx.unit_inverse(X3)
    amb = ctx.hom(SX0, X3)
    L = ctx.hom(X0, W).matrix_to(amb, lambda b: ctx.compose(ident, ctx.sigma_map(b)))
    img = affine_image(delta_space, L)
    return BracketSet(SX0, X3, ctx.name,
                      _coord_set(np.array(enumerate_points(img, cap))),
                      indeterminacy_basis(ctx, f3, f2, f1), None,
                      {"defn": "ff"})


def bracket3_contains(f3, f2, f1, target: RMap, ctx=DIRECT) -> bool:
    """Membership in the 3-fold bracket without enumerating it.

    A nonempty bracket is a single coset of its indeterminacy, so one
    composite plus the subgroup decides membership.
    """
    X0, X3 = ctx.src(f1), ctx.tgt(f3)
    SX0 = ctx.sigma_ob(X0)
    C, q, iota, alpha_sols, beta_sols = _family_solutions(ctx, f3, f2, f1)
    if alpha_sols is None or beta_sols is None:
        return False
    amb = ctx.hom(SX0, X3)
    a0 = ctx.hom(SX0, C).lifts([alpha_sols.representative])
    b0 = ctx.hom(C, X3).lifts([beta_sols.representative])
    e0 = amb.coords_of(ctx.compose(b0, a0))[0]
    tgt = np.array(amb.stable_coords(target), dtype=np.int64)
    indet = indeterminacy_basis(ctx, f3, f2, f1)
    rows = stack_rows(X0.ring.p, [np.array(r, dtype=np.int64) for r in indet],
                      cols=amb.sdim)
    return in_span(rows, (tgt - e0) % X0.ring.p)


def bracket3_restricted(f3, f2, f1, sigma_alpha: RMap | None = None,
                        beta: RMap | None = None, ctx=DIRECT,
                        cap: int = 4096) -> BracketSet:
    """Fiber-cofiber bracket with one side prescribed.

    sigma_alpha prescribes the lift Sigma X0 -> C_{f2}; beta prescribes
    the extension C_{f2} -> X3.  The prescribed map is validated against
    its defining equation.
    """
    X0, X3 = ctx.src(f1), ctx.tgt(f3)
    SX0 = ctx.sigma_ob(X0)
    C, q, iota, alpha_sols, beta_sols = _family_solutions(ctx, f3, f2, f1)
    reason = _empty_reason(alpha_sols, beta_sols)
    if reason:
        return _empty_bracket(ctx, SX0, X3, reason, {"defn": "fc-restricted"})
    if sigma_alpha is not None and not stably_equal(ctx.compose(iota, sigma_alpha),
                                                    -ctx.sigma_map(f1)):
        raise PrescribedMapError(
            "prescribed lift does not satisfy iota . a = -Sigma f1")
    if beta is not None and not stably_equal(ctx.compose(beta, q), f3):
        raise PrescribedMapError(
            "prescribed extension does not satisfy b . q = f3")
    # a prescribed side is the one point at its stable class
    if sigma_alpha is not None:
        alpha_sols = _single(ctx, sigma_alpha)
    if beta is not None:
        beta_sols = _single(ctx, beta)
    _check_pairs(X0.ring.p, alpha_sols.dim + beta_sols.dim, cap)
    return BracketSet(SX0, X3, ctx.name,
                      _composite_set(ctx, SX0, C, X3, alpha_sols, beta_sols),
                      None, None, {"defn": "fc-restricted"})


# ---------------------------------------------------------------------------
# higher brackets


def all_jseqs(n: int):
    """All valid reduction sequences (j_1, ..., j_{n-2}) with 0 <= j_i < i."""
    ranges = [range(i) for i in range(1, n - 1)]
    return [tuple(js) for js in itertools.product(*ranges)]


def is_jseq(jseq, n: int) -> bool:
    """Is jseq in all_jseqs(n)?  Decided without listing the (n-2)! sequences."""
    return len(jseq) == n - 2 and all(0 <= j <= i for i, j in enumerate(jseq))


@dataclass(frozen=True)
class _Group:
    """The last-stage branches (f3, mid, f1) sharing their middle map: one
    of f3, f1 is a map, the other the side they differ in, held as the
    affine space of the targets its branches ask of that side's solve."""

    f3: RMap | AffineSpace
    mid: RMap
    f1: RMap | AffineSpace


def _family_groups(ctx, j, maps, fam, Samb, cap) -> list[_Group]:
    """The children (beta, sigma_alpha) of the branch `maps` through its
    family fam = (C, q, iota, A, B), grouped by the last stage's middle map."""
    C, q, iota, A, B = fam
    X3, SX = ctx.tgt(maps[j]), ctx.sigma_ob(ctx.src(maps[j + 2]))
    if j == 0:
        # children (beta, sigma_alpha, Sigma f1): extensions of every beta at once
        sf1 = ctx.sigma_map(maps[3])
        return [_Group(B, a, sf1) for a in ctx.classes(SX, C, A, cap)]
    # children (f4, beta, sigma_alpha): lifts of every -Sigma(sigma_alpha) at once
    N = ctx.hom(SX, C).matrix_to(ctx.hom(Samb, ctx.sigma_ob(C)),
                                 lambda u: -ctx.sigma_map(u))
    lifts = affine_image(A, N)
    return [_Group(maps[0], b, lifts) for b in ctx.classes(C, X3, B, cap)]


def _last_stage(ctx, grp: _Group, Samb, Xn):
    """(C, q, iota, lifts, extensions) of the group through one cone of its
    middle map.  The fixed side is one one-sided solve; the varying side is
    one preimage, the union of its branches' disjoint solution sets, solved
    only when the fixed side has a solution (else None)."""
    C, q, iota = ctx.cone(grp.mid)
    if isinstance(grp.f3, AffineSpace):
        lifts = ctx.solve_post(iota, -ctx.sigma_map(grp.f1))
        exts = None if lifts is None else preimage(ctx.pre_matrix(q, Xn), grp.f3)
    else:
        exts = ctx.solve_pre(q, grp.f3)
        lifts = None if exts is None else preimage(ctx.post_matrix(iota, Samb), grp.f1)
    return C, q, iota, lifts, exts


def _first_reason(ctx, grp: _Group, sols, Samb) -> str | None:
    """The empty reason of the group's first branch, at the first class of
    its varying side."""
    C, q, iota, lifts, exts = sols
    if exts is None and isinstance(grp.f1, AffineSpace):
        # the lifts were left unsolved: solve the first class's own
        lifts = solve_affine(ctx.post_matrix(iota, Samb), grp.f1.representative)
    return _empty_reason(lifts, exts)


def higher_bracket(maps, jseq=None, ctx=DIRECT, cap: int = 4096) -> BracketSet:
    """n-fold Toda bracket of maps = (f_n, ..., f_1), leftmost first.

    jseq selects which consecutive triple each reduction stage consumes
    (0 <= j_i < i, applied innermost last); all zeros is the standard
    bracket.

    Every stage but the last two carries each pair of its families on as
    a branch.  The stage before the last (j = jseq[1]) makes one family
    (C, q, iota, A, B) per branch, and its children (beta, sigma_alpha)
    are read in groups sharing the last stage's middle map: sigma_alpha
    when j = 0, beta when j = 1.  A group costs one cone, one one-sided
    solve for its fixed side, one preimage for the side its children vary
    in (every extension b' with b' . q' in B, or every lift of -Sigma a
    for a in A), and one `_composite_set` (one affine space where the
    group's cross block is zero).  For n = 3 the one group has no family:
    its varying side is the class of f3 alone, and the bracket is the
    fiber-cofiber one.  The solution sets of different groups' children
    are disjoint, so `branches` counts the per-branch pairs and the cap
    refuses them before any is listed.  The pairs behind one element are
    found by `_first_trace`.
    """
    maps = list(maps)
    n = len(maps)
    if n < 2:
        raise BracketError("need at least two maps")
    for a, b in zip(maps[1:], maps[:-1]):
        if ctx.tgt(a) != ctx.src(b):
            raise BracketError("maps are not composable")
    jseq = (0,) * (n - 2) if jseq is None else tuple(jseq)
    if not is_jseq(jseq, n):
        raise BracketError(f"invalid reduction sequence {jseq} for n={n}")
    X0, Xn = ctx.src(maps[-1]), ctx.tgt(maps[0])
    Samb = susp_in_ctx(ctx, X0, n - 2)
    if n == 2:
        c = ctx.hom(Samb, Xn).stable_coords(ctx.compose(*maps))
        return BracketSet(Samb, Xn, ctx.name, frozenset([c]), None, None,
                          {"n": n, "jseq": jseq, "branches": 1})

    branches = [maps]
    reason = None
    # every stage but the last two carries each family pair on as a branch
    for j in reversed(jseq[2:]):
        new_branches = []
        for bm in branches:
            f3, f2, f1 = bm[j], bm[j + 1], bm[j + 2]
            sols = _family_solutions(ctx, f3, f2, f1)
            reason = reason or _empty_reason(*sols[3:])
            rest = [ctx.sigma_map(g) for g in bm[j + 3:]]
            for el in _family(ctx, f3, f1, sols, cap):
                new_branches.append(bm[:j] + [el.beta, el.sigma_alpha] + rest)
        if len(new_branches) > cap:
            raise EnumerationOverflow(
                f"{len(new_branches)} bracket branches exceed cap {cap}")
        branches = new_branches

    # the last stage, one group of branches per middle map
    if n == 3:
        groups = [_Group(_single(ctx, maps[0]), maps[1], maps[2])]
    else:
        j = jseq[1]
        fams = []
        for bm in branches:
            sols = _family_solutions(ctx, *bm[j:j + 3])
            reason = reason or _empty_reason(*sols[3:])
            if sols[3] is not None and sols[4] is not None:
                fams.append((bm, sols))
        children = sum(A.size() * B.size() for _, (_, _, _, A, B) in fams)
        if children > cap:
            raise EnumerationOverflow(f"{children} bracket branches exceed cap {cap}")
        groups = [grp for bm, fam in fams
                  for grp in _family_groups(ctx, j, bm, fam, Samb, cap)]
    last = [(grp, _last_stage(ctx, grp, Samb, Xn)) for grp in groups]
    if reason is None and last:
        reason = _first_reason(ctx, *last[0], Samb)
    last = [sols for _, sols in last if sols[3] is not None and sols[4] is not None]
    pairs = sum(lifts.size() * exts.size() for _, _, _, lifts, exts in last)
    if pairs > cap:
        raise EnumerationOverflow(f"{pairs} bracket branches exceed cap {cap}")

    elements = frozenset().union(*(_composite_set(ctx, Samb, C, Xn, lifts, exts)
                                   for C, _, _, lifts, exts in last))
    return BracketSet(Samb, Xn, ctx.name, elements, None,
                      None if elements else reason,
                      {"n": n, "jseq": jseq, "branches": pairs})


def _first_trace(ctx, maps, jseq, key, cap) -> list | None:
    """The stages (one TodaFamilyElement each) of the first branch whose
    composite has stable coordinates key, or None.  Branches are walked
    depth-first in the per-branch order: stages in reversed(jseq), each
    family's pairs beta-major."""
    amb = ctx.hom(susp_in_ctx(ctx, ctx.src(maps[-1]), len(maps) - 2),
                  ctx.tgt(maps[0]))

    def walk(bm, js):
        if not js:
            return [] if amb.stable_coords(ctx.compose(*bm)) == key else None
        j = js[-1]
        rest = [ctx.sigma_map(g) for g in bm[j + 3:]]
        for el in toda_family(ctx, *bm[j:j + 3], cap=cap):
            trace = walk(bm[:j] + [el.beta, el.sigma_alpha] + rest, js[:-1])
            if trace is not None:
                return [el] + trace
        return None

    return walk(list(maps), tuple(jseq))


def susp_in_ctx(ctx, M: RModule, k: int) -> RModule:
    for _ in range(k):
        M = ctx.sigma_ob(M)
    return M


# ---------------------------------------------------------------------------
# restricted higher brackets through octahedra


@dataclass(frozen=True)
class CtxTriangle:
    """A (ctx-)distinguished triangle Z -> J -> Z' -> Sigma Z."""

    g: RMap
    h: RMap
    k: RMap


@dataclass(frozen=True)
class RestrictedStage:
    W: RModule
    q: RMap
    iota: RMap
    alpha: RMap
    beta: RMap
    gamma: RMap


def suspend_ctx_triangle(ctx, t: CtxTriangle) -> CtxTriangle:
    return CtxTriangle(ctx.sigma_map(t.g), ctx.sigma_map(t.h),
                       -ctx.sigma_map(t.k))


def _restricted_octahedron(ctx, tA: CtxTriangle, tB: CtxTriangle,
                           cap: int = 4096) -> RestrictedStage:
    """Complete the octahedron on the factorization gB . hA.

    Returns the cone of the composite with maps alpha, beta forming a
    distinguished triangle over gamma = (Sigma kA) . kB, satisfying the
    four commuting squares.  Raises OctahedronError when no completion
    exists (inconsistent input triangles).
    """
    c = ctx.compose(tB.g, tA.h)
    W, q, iota = ctx.cone(c)
    SZA = ctx.tgt(tA.k)
    ZB1 = ctx.tgt(tB.h)
    gamma = ctx.compose(ctx.sigma_map(tA.k), tB.k)
    # alpha: Sigma Z_A -> W with alpha.kA = q.gB and iota.alpha = -Sigma gA
    alpha_sols = ctx.solve_pre_post(tA.k, ctx.compose(q, tB.g),
                                    iota, -ctx.sigma_map(tA.g))
    beta_sols = ctx.solve_pre(q, tB.h)
    if alpha_sols is None or beta_sols is None:
        raise OctahedronError("no octahedron completion for the factorization")
    for av in enumerate_points(alpha_sols, cap):
        alpha = ctx.make(SZA, W, av)
        for bv in enumerate_points(beta_sols, cap):
            beta = ctx.make(W, ZB1, bv)
            if ctx.is_distinguished(alpha, beta, gamma):
                return RestrictedStage(W, q, iota, alpha, beta, gamma)
    raise OctahedronError("no commuting completion is distinguished")


def restricted_tower(triangles, ctx=DIRECT, cap: int = 4096) -> tuple:
    """The octahedron stages of the restricted bracket on `triangles`
    (none for one triangle).  Each stage completes the octahedron on the
    last two triangles and replaces them with its own (alpha, beta,
    gamma), the rest suspended.  The fed-in map plays no part, so one
    tower serves every map read off it (`restricted_read_off`)."""
    triangles, stages = list(triangles), []
    while len(triangles) > 1:
        st = _restricted_octahedron(ctx, triangles[-2], triangles[-1], cap)
        stages.append(st)
        triangles = [suspend_ctx_triangle(ctx, t) for t in triangles[:-2]]
        triangles.append(CtxTriangle(st.alpha, st.beta, st.gamma))
    return tuple(stages)


def restricted_read_off(triangles, stages, g: RMap, x: RMap, ctx=DIRECT,
                        cap: int = 4096) -> BracketSet:
    """The restricted bracket at x on a built tower of k stages: every lift
    of -Sigma^k x through the top stage's iota, composed with g . beta;
    with no stage (n = 2) the one composite g . h_1 . x."""
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
    elems = _composites_after(ctx, ctx.compose(g, stages[-1].beta), SB, lift_sols, cap)
    return BracketSet(SB, A, ctx.name, elems, None, None, meta)


def restricted_higher_bracket(triangles, g: RMap, x: RMap, ctx=DIRECT,
                              cap: int = 4096):
    """The inductively defined restricted bracket for factored maps, and
    the octahedron stages it was built from (none when n = 2): the
    x-free tower (`restricted_tower`), then the read-off at x
    (`restricted_read_off`).

    triangles: CtxTriangle list t_1 ... t_{n-1} (Z_i -> J_i -> Z_{i+1} ->
    Sigma Z_i), rightmost factorization first; g: Z_n -> A caps the left
    end; x: B -> J_1 feeds the right end.  The value is a subset of
    T(Sigma^{n-2} B, A).
    """
    triangles = list(triangles)
    stages = restricted_tower(triangles, ctx, cap)
    return restricted_read_off(triangles, stages, g, x, ctx, cap), list(stages)


# ---------------------------------------------------------------------------
# filtered objects


@dataclass
class FilteredObject:
    """A tower of cones witnessing one element of a higher bracket."""

    stages: list          # F_0 = 0, F_1, ..., F_{n-1}
    i_maps: list          # i_j : F_j -> F_{j+1}
    q_maps: list          # q_j : F_j -> Sigma^{j-1} Y_{n_f - j}
    e_maps: list          # e_j : Sigma^j Y_{n_f-1-j} -> Sigma F_j
    sigma: RMap
    sigma_prime: RMap
    checks: dict


def filtered_witness(maps, element_coords, ctx=DIRECT,
                     cap: int = 4096) -> FilteredObject:
    """Assemble and verify the filtered object behind one bracket element.

    maps = (f_n, ..., f_1), n >= 3, with the standard reduction sequence;
    the element is given in quotient coordinates of T(Sigma^{n-2} X0, Xn).
    The tower is built on the element's first branch in the per-branch
    order (`_first_trace`).  Verifies every stage triangle, the stage
    composites, and the witness diagram for the element; any failure
    lands in .checks.
    """
    maps = list(maps)
    n = len(maps)
    if n < 3:
        raise BracketError("a filtered witness needs at least three maps")
    bs = higher_bracket(maps, ctx=ctx, cap=cap)
    key = tuple(int(c) for c in element_coords)
    if key not in bs.elements:
        raise BracketError("element does not lie in the bracket")
    trace = _first_trace(ctx, maps, (0,) * (n - 2), key, cap)
    nf, f_n, f_1 = n - 1, maps[0], maps[-1]
    lam = list(reversed(maps[1:-1]))  # lambda_1 = f_2, ..., lambda_{nf-1} = f_{n-1}
    X_last = ctx.tgt(maps[1])         # X_{n-1}

    stages = [zero_module(X_last.ring), X_last]
    # q_1 is the identity; i_1 carries the sign of the first cone
    i_maps, q_maps, e_maps = [], [identity_map(X_last)], []
    checks: dict = {}
    for j, el in enumerate(trace, start=1):
        stages.append(el.intermediate)
        i_maps.append(-el.cone_q if j == 1 else el.cone_q)
        q_maps.append(el.cone_iota)
        if j == 1:
            e_maps.append(ctx.sigma_map(maps[1]))       # Sigma f_{n-1}
        else:
            e_maps.append(-ctx.sigma_map(trace[j - 2].sigma_alpha))

    # stage triangles (i_j, q_{j+1}, e_j) must be distinguished
    for j in range(1, nf):
        checks[f"triangle_{j}"] = ctx.is_distinguished(i_maps[j - 1], q_maps[j], e_maps[j - 1])
    # composite conditions (Sigma q_j) . e_j = Sigma^j lambda_{nf-j}
    for j in range(1, nf):
        lhs = ctx.compose(ctx.sigma_map(q_maps[j - 1]), e_maps[j - 1])
        rhs = lam[nf - j - 1]
        for _ in range(j):
            rhs = ctx.sigma_map(rhs)
        checks[f"composite_{j}"] = stably_equal(lhs, rhs)

    sigma = q_maps[-1]
    sigma_prime = -trace[0].cone_q
    for el in trace[1:]:
        sigma_prime = ctx.compose(el.cone_q, sigma_prime)

    a, b = -trace[-1].sigma_alpha, -trace[-1].beta
    snf1 = f_1
    for _ in range(n - 2):
        snf1 = ctx.sigma_map(snf1)
    checks["witness_lift"] = stably_equal(ctx.compose(sigma, a), snf1)
    checks["witness_extension"] = stably_equal(ctx.compose(b, sigma_prime), f_n)
    elem_map = ctx.make(bs.src, bs.tgt, key)
    checks["witness_composite"] = stably_equal(ctx.compose(b, a), elem_map)
    if not all(checks.values()):
        raise BracketError(f"filtered object verification failed: {checks}")
    return FilteredObject(stages, i_maps, q_maps, e_maps, sigma,
                          sigma_prime, checks)
