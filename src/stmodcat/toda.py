"""Toda brackets: 3-fold (three definitions), families, n-fold brackets
under arbitrary reduction sequences, restricted brackets, and filtered
object witnesses.

All computations are exact: the defining lifting and extension problems
are solved as affine spaces inside finite stable hom groups, and the
composites over every pair of solutions are read off the composites of
their generators (`_composites`): one affine space where the cross
block is zero, as in every family, else the bilinear expansion over the
pairs (`_pair_coords`).  An n-fold bracket <f_n, ..., f_1> is built in
two steps.  f_n only ever sits on an extension side, so everything else
is a tower on (f_{n-1}, ..., f_1) (`bracket_tower`): branches that agree
in all maps but the leftmost share one node, whose leftmost maps are a
fiber over f_n's stable coordinates, and the last stage is read per group
of branches sharing its middle map, with fixed lifts and with extensions
that are again such a fiber.  The read-off (`bracket_read_off`) tests and
slices those fibers at f_n's coordinates under its own cap, a few
products per node and group, so one tower serves every f_n and every cap.
The fiber-cofiber bracket is the 3-fold higher bracket, one such group,
with its indeterminacy added.  A bracket is a set of coordinates only:
the read-off refuses an over-cap family off its own list of nodes, and
only the empty reason and the branch of a filtered witness walk the
tower's branches in order (`BracketTower.families`).
A restricted bracket is likewise a tower of octahedra on its triangles
alone and a read linear in the fed-in map's coordinates (`restricted_read`),
so a map costs one fiber test and one product (`restricted_read_off`).
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
from functools import cached_property

import numpy as np

from .linalg import (
    AffineSpace,
    DimensionMismatch,
    EnumerationOverflow,
    Fibers,
    FpMatrix,
    affine_image,
    as_vector,
    enumerate_points,
    fibers,
    identity_fibers,
    in_span,
    preimage,
    row_space_basis,
    span_points,
    stack_rows,
)
from .modrep import RMap, RModule, identity_map, zero_module
from .stcat import DIRECT, OP, is_stably_zero, stably_equal


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
        return self._key(coords) in self.elements

    def _key(self, coords) -> tuple:
        """The element tuple of coordinates given as any integers, of the
        stable group's length."""
        c = as_vector(coords, self.src.ring.p)
        n = (OP if self.ctx_name == OP.name else DIRECT).hom(self.src, self.tgt).sdim
        if len(c) != n:
            raise DimensionMismatch(f"coordinates of length {len(c)}, expected {n}")
        return tuple(int(v) for v in c)

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
    alphas = ctx.classes(ctx.sigma_ob(ctx.src(f1)), C, alpha_sols)
    betas = ctx.classes(C, ctx.tgt(f3), beta_sols)
    return [TodaFamilyElement(C, a, b, q, iota) for b in betas for a in alphas]


def _single(ctx, f) -> AffineSpace:
    """The 0-dimensional solution space holding the stable class of f alone."""
    coords = ctx.hom(ctx.src(f), ctx.tgt(f)).stable_coords(f)
    return AffineSpace(f.src.ring.p, len(coords), np.array(coords, dtype=np.int64),
                       np.zeros((0, len(coords)), dtype=np.int64))


def _generator_composites(ctx, A, C, B, alpha_sols, beta_sols=None) -> np.ndarray:
    """G[k, i]: stable coordinates in T(A, B) of beta generator k (in T(C, B);
    with no beta_sols, basis class k) composed with alpha generator i (in
    T(A, C)), in one broadcast product.  Composition is bilinear on stable
    classes, so only generators are lifted."""
    alphas = ctx.hom(A, C).lifts(alpha_sols.generators())
    betas = ctx.hom(C, B).lifts(None if beta_sols is None else beta_sols.generators())
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
    beta_sols (`_composites` of their generator composites)."""
    G = _generator_composites(ctx, A, C, B, alpha_sols, beta_sols)
    return _composites(G[0], G[1:], alpha_sols, beta_sols)


def _composites(row, dirs, alpha_sols, beta_sols) -> frozenset:
    """The composites b . a read off their generator composites G = [row;
    dirs].  With a zero cross block dirs[:, 1:] (always when a side is one
    point) they are one affine space, row[0] plus the span of dirs[:, 0]
    and row[1:]; otherwise every pair is expanded (`_pair_coords`)."""
    if dirs[:, 1:].any():
        return _coord_set(_pair_coords(np.concatenate([row[None], dirs]), alpha_sols, beta_sols))
    return span_points(alpha_sols.p, row[0].tolist(), dirs[:, 0].tolist() + row[1:].tolist())


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
    if cap < 0:
        raise EnumerationOverflow(f"every bracket exceeds the negative cap {cap}")
    return build(ctx, f3, f2, f1, cap)


def _bracket3_fc(ctx, f3, f2, f1, cap) -> BracketSet:
    return fc_bracket(higher_bracket([f3, f2, f1], ctx=ctx, cap=cap), f3, f2, f1, ctx)


def fc_bracket(bs: BracketSet, f3, f2, f1, ctx=DIRECT) -> BracketSet:
    """The fiber-cofiber bracket <f3, f2, f1> from bs, the 3-fold higher
    bracket of the same maps: bs with the indeterminacy added."""
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
                else _coord_set(enumerate_points(psi_sols, cap)))
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
    if gamma_sols is None:   # f3.f2 != 0, but f2.f1 is named first, as in cc and fc
        first = "f3.f2" if is_stably_zero(ctx.compose(f2, f1)) else "f2.f1"
        return _empty_bracket(ctx, SX0, X3, f"{first} not stably zero", {"defn": "ff"})
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
                      _coord_set(enumerate_points(img, cap)),
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
class _Family:
    """The family of a node's branches at its stage: the cone C of the
    consumed triple's middle map, the lifts A, and the extensions.  At
    j = 0 the extended map is the leftmost, so the extensions of a leftmost
    b are the fiber of P = pre_matrix(q) over b (`ext`), and those of every
    leftmost the node holds at c the fiber of M P over c (`cfib`); at
    j >= 1 they are one solution set B."""

    j: int
    C: RModule
    A: AffineSpace | None
    B: AffineSpace | None = None
    P: FpMatrix | None = None
    cfib: Fibers | None = None

    @cached_property
    def ext(self) -> Fibers:
        return fibers(self.P)

    @property
    def dim(self) -> int:
        """The dimension of each of its families' (lift, extension) pairs."""
        return self.A.dim + (self.ext.kernel.dim if self.j == 0 else self.B.dim)


class _Node:
    """The branches of one stage that agree in every map but the leftmost
    (`maps` holds the others).  At f_n's coordinates c their leftmost maps
    are the fiber of M over c (`fib`), M composing the precomposition
    matrices of the cone maps they were extended along.  The family,
    children and last-stage groups are built the first time a read-off
    reaches the node, and kept."""

    def __init__(self, tower, depth, maps, M, fib):
        self.tower, self.depth, self.maps, self.M, self.fib = tower, depth, maps, M, fib

    @cached_property
    def family(self) -> _Family:
        t, ctx, maps = self.tower, self.tower.ctx, self.maps
        j = t.js[self.depth]
        C, q, iota = ctx.cone(maps[j])
        A = ctx.solve_post(iota, -ctx.sigma_map(maps[j + 1]))
        if j:
            return _Family(j, C, A, B=ctx.solve_pre(q, maps[j - 1]))
        P = ctx.pre_matrix(q, t.Xn)
        return _Family(0, C, A, P=P, cfib=None if A is None else fibers(self.M @ P))

    def branches(self, c) -> int:
        """The branches its families make at c."""
        fam = self.family
        if fam.A is None:
            return 0
        if fam.j == 0:
            return fam.A.size() * fam.cfib.size() if fam.cfib.has(c) else 0
        return 0 if fam.B is None else fam.A.size() * fam.B.size() * self.fib.size()

    def extensions(self, b) -> AffineSpace | None:
        """The extensions in the family of the branch with leftmost b."""
        fam = self.family
        return fam.ext.at(b) if fam.j == 0 else fam.B

    @cached_property
    def children(self) -> list:
        """The next stage's nodes, in the per-branch order of its pairs."""
        t, ctx, fam, maps = self.tower, self.tower.ctx, self.family, self.maps
        j = fam.j
        rest = [ctx.sigma_map(g) for g in maps[j + 2:]]
        alphas = ctx.classes(ctx.sigma_ob(ctx.src(maps[j + 1])), fam.C, fam.A)
        if j == 0:
            M = self.M @ fam.P
            return [_Node(t, self.depth + 1, [a] + rest, M, fam.cfib) for a in alphas]
        betas = ctx.classes(fam.C, ctx.tgt(maps[j - 1]), fam.B)
        return [_Node(t, self.depth + 1, maps[:j - 1] + [b, a] + rest, self.M, self.fib)
                for b in betas for a in alphas]

    @cached_property
    def groups(self) -> list:
        """The last stage's groups of its branches, one per middle map: the
        one group (f_n, f_2, f_1) when n = 3, else the children of the
        family before the last, sigma_alpha (j = 0) or beta (j = 1)."""
        t, ctx, maps = self.tower, self.tower.ctx, self.maps
        if t.n == 3:
            return [_Last(t, self.M, maps[0], _single(ctx, -ctx.sigma_map(maps[1])))]
        fam = self.family
        SX = ctx.sigma_ob(ctx.src(maps[fam.j + 1]))
        if fam.j == 0:
            target = _single(ctx, -ctx.sigma_map(ctx.sigma_map(maps[2])))
            return [_Last(t, self.M @ fam.P, a, target) for a in ctx.classes(SX, fam.C, fam.A)]
        # every beta's children lift one of -Sigma(sigma_alpha), a in A
        N = ctx.hom(SX, fam.C).matrix_to(ctx.hom(t.Samb, ctx.sigma_ob(fam.C)),
                                         lambda u: -ctx.sigma_map(u))
        targets = affine_image(fam.A, N)
        return [_Last(t, self.M, b, targets)
                for b in ctx.classes(fam.C, ctx.tgt(maps[0]), fam.B)]


class _Last:
    """A last-stage group: the branches sharing the middle map `mid`, whose
    lifts are the preimage of `targets`, the classes -Sigma f1 they lift
    (one point but at j = 1), and so are fixed.  Their extensions over the
    parent's leftmost b are the fiber over b of the cone map's
    precomposition, so over c the fiber of M times it (`fib`), M taking
    in the parent's P at j = 0.  Composition is bilinear, so the generator
    composites G of `_composites` are the composites of every basis
    class of T(C, X_n) with the lift generators, read at the fiber's
    generators: the direction rows (`dirs`) and so the cross block are
    fixed, and the offset's row is one product with c (`offset`)."""

    def __init__(self, tower, M, mid, targets):
        ctx, p = tower.ctx, tower.p
        C, q, iota = ctx.cone(mid)
        self.lifts = preimage(ctx.post_matrix(iota, tower.Samb), targets)
        if self.lifts is None:
            return
        self.fib = fibers(M @ ctx.pre_matrix(q, tower.Xn))
        H = _generator_composites(ctx, tower.Samb, C, tower.Xn, self.lifts)
        flat = H.reshape(H.shape[0], H.shape[1] * H.shape[2])
        self.offset = self.fib.T.T @ flat % p
        self.dirs = (self.fib.kernel.basis @ flat % p).reshape(
            (self.fib.kernel.dim,) + H.shape[1:])

    def read(self, c, p: int) -> frozenset:
        """Every composite of the group at c (`_composites`): the fiber at c
        is a translate of the kernel, with the same coefficient rows."""
        row = (c @ self.offset % p).reshape(self.dirs.shape[1:])
        return _composites(row, self.dirs, self.lifts, self.fib.kernel)


class BracketTower:
    """The n-fold bracket <f_n, ..., f_1> short of f_n (`bracket_tower`).

    f_n enters a branch only as its leftmost map, and only on an extension
    side: it is the extended map of every j = 0 stage and the fixed f3 of
    every j = 1 group.  So the branches are held in nodes (`_Node`), and
    the last stage in groups (`_Last`), whose leftmost maps and extensions
    are fibers over f_n's coordinates; `bracket_read_off` reads them."""

    def __init__(self, tail, Xn, jseq, ctx):
        self.ctx, self.Xn = ctx, Xn
        self.n, self.jseq = len(tail) + 1, jseq
        self.space = ctx.hom(ctx.tgt(tail[0]), Xn)   # f_n's hom space
        self.p = self.space.p
        self.Samb = susp_in_ctx(ctx, ctx.src(tail[-1]), self.n - 2)
        # the stages whose families carry branches on: every j but the last
        self.js = list(reversed(jseq[2:])) + list(jseq[1:2])
        if self.n == 2:
            self.pre = ctx.pre_matrix(tail[0], Xn)
        else:
            I = FpMatrix.identity(self.p, self.space.sdim)
            self.root = _Node(self, 0, list(tail), I, identity_fibers(self.p, I.rows))

    def families(self, depth: int, c):
        """The path to every node at `depth` holding a branch at c, in the
        per-branch order (each family's pairs beta-major, the extensions of
        a leftmost in enumerate_points order): its (node, u, child) steps
        from (None, c, root), u the child's leftmost.  One stage past the
        tower, at depth len(js), the paths end at the last stage's branches,
        each the triple (u, *child.maps) (`last_triple`), every family
        bounded by the read-off.  Only `reason` and `_first_trace` walk it."""
        def walk(path):
            _, b, node = path[-1]
            if node.depth == depth:
                yield path
                return
            fam, ext = node.family, node.extensions(b)
            if fam.A is None or ext is None:
                return
            for u in (ext.points() if fam.j == 0 else [b]):
                for child in node.children:
                    yield from walk(path + ((node, u, child),))
        return walk(((None, c, self.root),))

    def last_triple(self, u, node) -> list:
        """The maps of a last-stage branch: u's class, then node.maps."""
        return [self.ctx.make(self.ctx.tgt(node.maps[0]), self.Xn, u)] + node.maps

    def reason(self, c) -> str | None:
        """The empty reason of the per-branch order: the first failing
        family, stage by stage, else that of the first branch's last stage."""
        for depth in range(len(self.js)):
            for *_, (_, b, node) in self.families(depth, c):
                reason = _empty_reason(node.family.A, node.extensions(b))
                if reason:
                    return reason
        *_, (_, u, node) = next(self.families(len(self.js), c))
        return _empty_reason(*_family_solutions(self.ctx, *self.last_triple(u, node))[3:])


def bracket_tower(tail, Xn: RModule, jseq=None, ctx=DIRECT) -> BracketTower:
    """The tower of the n-fold bracket <f_n, ..., f_1> on tail = (f_{n-1},
    ..., f_1), for f_n any map into Xn (`BracketTower`).  jseq selects
    which consecutive triple each reduction stage consumes (0 <= j_i < i,
    applied innermost last); all zeros is the standard bracket.  Every
    stage but the last two carries each pair of its families on as a
    branch, the stage before the last makes one family per branch, and
    the last reads its branches in groups sharing its middle map.  The
    tower holds no cap and refuses nothing: each read-off takes its own."""
    tail = list(tail)
    if not tail:
        raise BracketError("need at least two maps")
    for a, b in zip(tail[1:], tail[:-1]):
        if ctx.tgt(a) != ctx.src(b):
            raise BracketError("maps are not composable")
    n = len(tail) + 1
    jseq = (0,) * (n - 2) if jseq is None else tuple(jseq)
    if not is_jseq(jseq, n):
        raise BracketError(f"invalid reduction sequence {jseq} for n={n}")
    return BracketTower(tail, Xn, jseq, ctx)


def bracket_read_off(tower: BracketTower, coords, cap: int = 4096) -> BracketSet:
    """The bracket at f_n with stable coordinates `coords`, under `cap`.

    Stage by stage, the nodes holding a branch at c (their fiber over c is
    nonempty, and their list is in the per-branch order) count their
    families' children, and the cap refuses the first family whose pairs
    exceed it (`_check_pairs`) and then a stage's branches, before the
    next stage is built.  The last stage's groups count their (lift,
    extension) pairs, which `branches` reports and the cap refuses before
    any is listed, and read their composites.  Only an empty bracket walks
    its branches, for the reason the per-branch order meets first
    (`reason`)."""
    t, p = tower, tower.p
    if len(c := as_vector(coords, p)) != t.space.sdim:
        raise DimensionMismatch(f"coordinates of length {len(c)}, expected {t.space.sdim}")
    meta = {"n": t.n, "jseq": t.jseq}
    if t.n == 2:
        if cap < 1:
            raise EnumerationOverflow(f"1 bracket branches exceed cap {cap}")
        elements = frozenset([tuple(int(v) for v in t.pre.apply(c))])
        return BracketSet(t.Samb, t.Xn, t.ctx.name, elements, None, None,
                          {**meta, "branches": 1})
    nodes, last = [t.root], len(t.js) - 1
    for depth in range(len(t.js)):
        counts = [node.branches(c) for node in nodes]
        nodes = [node for k, node in zip(counts, nodes) if k]
        if depth < last:
            for node in nodes:
                _check_pairs(p, node.family.dim, cap)
        if sum(counts) > cap:
            raise EnumerationOverflow(f"{sum(counts)} bracket branches exceed cap {cap}")
        if depth < last:
            nodes = [child for node in nodes for child in node.children]
    groups = [grp for node in nodes for grp in node.groups
              if grp.lifts is not None and grp.fib.has(c)]
    pairs = sum(grp.lifts.size() * grp.fib.size() for grp in groups)
    if pairs > cap:
        raise EnumerationOverflow(f"{pairs} bracket branches exceed cap {cap}")
    elements = frozenset().union(*(grp.read(c, p) for grp in groups))
    return BracketSet(t.Samb, t.Xn, t.ctx.name, elements, None,
                      None if elements else t.reason(c), {**meta, "branches": pairs})


def higher_bracket(maps, jseq=None, ctx=DIRECT, cap: int = 4096) -> BracketSet:
    """n-fold Toda bracket of maps = (f_n, ..., f_1), leftmost first: the
    tower on (f_{n-1}, ..., f_1) (`bracket_tower`), read off at f_n's
    stable coordinates (`bracket_read_off`).  For n = 3 it is the
    fiber-cofiber bracket.  The pairs behind one element are found on the
    same tower (`_first_trace`).
    """
    return bracket_read_off(*_tower_at(maps, jseq, ctx), cap)


def _tower_at(maps, jseq, ctx):
    """The tower of <f_n, ..., f_1> short of f_n, and f_n's stable coordinates."""
    maps = list(maps)
    if len(maps) < 2:
        raise BracketError("need at least two maps")
    if ctx.tgt(maps[1]) != ctx.src(maps[0]):   # the tower checks the rest
        raise BracketError("maps are not composable")
    tower = bracket_tower(maps[1:], ctx.tgt(maps[0]), jseq, ctx)
    return tower, tower.space.stable_coords(maps[0])


def _first_trace(tower: BracketTower, coords, key, cap: int) -> list | None:
    """The stages (one TodaFamilyElement each) of the first branch of the
    tower at f_n's coordinates whose composite is key, or None: the
    branches in order (`families`), each stage but the last read off the
    path, and the last stage's family solved under cap."""
    ctx, Xn = tower.ctx, tower.Xn
    amb = ctx.hom(tower.Samb, Xn)

    def stage(node, u, child):
        j = node.family.j
        C, q, iota = ctx.cone(node.maps[j])
        beta = ctx.make(C, Xn, u) if j == 0 else child.maps[j - 1]
        return TodaFamilyElement(C, child.maps[j], beta, q, iota)

    for path in tower.families(len(tower.js), as_vector(coords, tower.p)):
        *_, (_, u, node) = path
        for el in toda_family(ctx, *tower.last_triple(u, node), cap=cap):
            if amb.stable_coords(ctx.compose(el.beta, el.sigma_alpha)) == key:
                return [stage(*step) for step in path[1:]] + [el]
    return None


def susp_in_ctx(ctx, x, k: int):
    """Sigma^k of an object or of a map, in ctx."""
    step = ctx.sigma_map if isinstance(x, RMap) else ctx.sigma_ob
    for _ in range(k):
        x = step(x)
    return x


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
    tower serves every map read off it (`restricted_read`)."""
    triangles, stages = list(triangles), []
    while len(triangles) > 1:
        st = _restricted_octahedron(ctx, triangles[-2], triangles[-1], cap)
        stages.append(st)
        triangles = [suspend_ctx_triangle(ctx, t) for t in triangles[:-2]]
        triangles.append(CtxTriangle(st.alpha, st.beta, st.gamma))
    return tuple(stages)


@dataclass(frozen=True)
class RestrictedRead:
    """The restricted bracket on a built tower of k stages, linear in the
    stable coordinates c of x: B -> J_1 (`restricted_read`): S c are those
    of Sigma^k x, the lifts of -Sigma^k x through the top iota are the fiber
    of `lifts` over -S c, and `post` composes a lift with g . beta.  With no
    stage, S = I, iota = -1 and `post` composes with g . h_1."""

    empty: BracketSet   # the value where x does not lift
    S: np.ndarray
    lifts: Fibers
    post: np.ndarray


def restricted_read(triangles, stages, g: RMap, B: RModule, ctx=DIRECT) -> RestrictedRead:
    """The x-free read of the restricted bracket on `stages`, for x: B -> J_1."""
    J = ctx.src(triangles[0].h)
    SB, SJ = (susp_in_ctx(ctx, M, len(stages)) for M in (B, J))
    S = ctx.hom(B, J).matrix_to(ctx.hom(SB, SJ), lambda u: susp_in_ctx(ctx, u, len(stages)))
    if stages:
        iota, b = ctx.post_matrix(stages[-1].iota, SB), ctx.compose(g, stages[-1].beta)
    else:
        iota, b = -FpMatrix.identity(S.p, S.rows), ctx.compose(g, triangles[0].h)
    empty = _empty_bracket(ctx, SB, ctx.tgt(g), "x does not lift", {"n": len(stages) + 2})
    return RestrictedRead(empty, S.a, fibers(iota), ctx.post_matrix(b, SB).a)


def restricted_read_off(read: RestrictedRead, coords, cap: int = 4096) -> BracketSet:
    """The restricted bracket at x's stable coordinates: one fiber test, one product."""
    e, p = read.empty, read.lifts.kernel.p
    if len(c := as_vector(coords, p)) != read.S.shape[1]:
        raise DimensionMismatch(f"coordinates of length {len(c)}, expected {read.S.shape[1]}")
    lifts = read.lifts.at(-read.S @ c % p)
    if lifts is None:
        return replace(e, metadata=dict(e.metadata))
    _check_pairs(p, lifts.dim, cap)
    pts = lifts.generators() @ read.post.T % p
    return replace(e, elements=span_points(p, pts[0].tolist(), pts[1:].tolist()),
                   empty_reason=None, metadata=dict(e.metadata))


def restricted_higher_bracket(triangles, g: RMap, x: RMap, ctx=DIRECT,
                              cap: int = 4096):
    """The inductively defined restricted bracket for factored maps, and
    the octahedron stages it was built from (none when n = 2): the
    x-free tower (`restricted_tower`) and read (`restricted_read`), then
    the read-off at x's stable coordinates (`restricted_read_off`).

    triangles: CtxTriangle list t_1 ... t_{n-1} (Z_i -> J_i -> Z_{i+1} ->
    Sigma Z_i), rightmost factorization first; g: Z_n -> A caps the left
    end; x: B -> J_1 feeds the right end.  The value is a subset of
    T(Sigma^{n-2} B, A).
    """
    triangles = list(triangles)
    if not triangles:
        raise BracketError("need at least one triangle")
    stages = restricted_tower(triangles, ctx, cap)
    read = restricted_read(triangles, stages, g, ctx.src(x), ctx)
    xc = ctx.hom(ctx.src(x), ctx.src(triangles[0].h)).stable_coords(x)
    return restricted_read_off(read, xc, cap), list(stages)


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
    One bracket tower gives both the bracket and the element's first
    branch in the per-branch order (`_first_trace`), on which the filtered
    object is built.  Verifies every stage triangle, the stage
    composites, and the witness diagram for the element; any failure
    lands in .checks.
    """
    maps = list(maps)
    n = len(maps)
    if n < 3:
        raise BracketError("a filtered witness needs at least three maps")
    tower, c = _tower_at(maps, None, ctx)
    bs = bracket_read_off(tower, c, cap)
    key = bs._key(element_coords)
    if key not in bs.elements:
        raise BracketError("element does not lie in the bracket")
    trace = _first_trace(tower, c, key, cap)
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
        # e_1 = Sigma f_{n-1}
        e_maps.append(ctx.sigma_map(maps[1]) if j == 1
                      else -ctx.sigma_map(trace[j - 2].sigma_alpha))

    # stage triangles (i_j, q_{j+1}, e_j) must be distinguished
    for j in range(1, nf):
        checks[f"triangle_{j}"] = ctx.is_distinguished(i_maps[j - 1], q_maps[j], e_maps[j - 1])
    # composite conditions (Sigma q_j) . e_j = Sigma^j lambda_{nf-j}
    for j in range(1, nf):
        lhs = ctx.compose(ctx.sigma_map(q_maps[j - 1]), e_maps[j - 1])
        checks[f"composite_{j}"] = stably_equal(lhs, susp_in_ctx(ctx, lam[nf - j - 1], j))

    sigma = q_maps[-1]
    sigma_prime = -trace[0].cone_q
    for el in trace[1:]:
        sigma_prime = ctx.compose(el.cone_q, sigma_prime)

    a, b = -trace[-1].sigma_alpha, -trace[-1].beta
    checks["witness_lift"] = stably_equal(ctx.compose(sigma, a), susp_in_ctx(ctx, f_1, n - 2))
    checks["witness_extension"] = stably_equal(ctx.compose(b, sigma_prime), f_n)
    elem_map = ctx.make(bs.src, bs.tgt, key)
    checks["witness_composite"] = stably_equal(ctx.compose(b, a), elem_map)
    if not all(checks.values()):
        raise BracketError(f"filtered object verification failed: {checks}")
    return FilteredObject(stages, i_maps, q_maps, e_maps, sigma,
                          sigma_prime, checks)
