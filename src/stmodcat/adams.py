"""Ghost projective classes, Adams-style resolutions, the exact-couple
spectral sequence, and differentials as sets of representatives.

The engine natively resolves the SOURCE: covers are built from module
generators of the graded stable groups T(Sigma^n G, M) over the graded
stable endomorphism ring of the generator G, and each stage takes the
fiber of the cover.  Applying T(-, Y) to the stored fiber triangles
(w_s: X_{s+1} -> P_s, p_s: P_s -> X_s, dbar_s: X_s -> Sigma X_{s+1})
yields an exact couple whose groups are materialized as

    E_1^{s,t} = T(Sigma^t P_s, Y),   D^{s,t} = T(Sigma^t X_s, Y),

with d_r of bidegree (r, r-1) given by one w-composition, r-1
extensions through dbar, and one p-composition.  d_r[x] is returned as
the full set of E_1 representatives.

A class x enters d_r and its bracket forms only linearly, through its
stable coordinates, so everything else is built once and memoized: the
fibers of each alpha^k (`alpha_fibers`, which Z_r, B_r and d_r's chains
read) and the rows of Z_r and B_r (`_zr_rows`, `_br_rows`: d_r[x] is a
coset of B_r at its target), and per slot the towers of the full,
operations and (r = 2) connecting-map brackets (`bracket_slot`, one for
every cap) and the restricted form's octahedron tower and read
(`restricted_slot`), so a class costs a few small products per form.
A slot (r, s, t) reads only the stages s .. s+r, so it is keyed by that
window of the resolution (`AdamsResolution.window`) and t: equal
windows, as a periodic resolution repeats them, share one slot.  A
class's d_r set (`_dr_read`) and its bracket forms (`_forms_read`) are
read once per (window, Y, r, t, class coordinates, cap); `dr_set` and
`dr_bracket_forms` check the query first and add only what depends on
the call: s, and fresh metadata and report dicts.  The injective-variance
statements are exercised through the opposite context: the same
resolution data, arrows reversed, feeds the generic restricted-bracket
machinery.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from .linalg import (
    DimensionMismatch,
    EnumerationOverflow,
    Fibers,
    FpMatrix,
    _affine_space,
    as_vector,
    enumerate_points,
    extending,
    fibers,
    identity_fibers,
    nullspace,
    quotient,
    rank,
    row_space_basis,
    stack_rows,
)
from .modrep import (
    RMap,
    RModule,
    direct_sum,
    jordan_type,
    memo,
    reduce_module,
    zero_map,
    zero_module,
)
from .stcat import (
    OP,
    Triangle,
    fiber_triangle,
    omega_ob,
    post_matrix,
    pre_matrix,
    rotate_back,
    sigma_ob,
    sigma_omega_comparison,
    stable_hom,
    stably_equal,
    susp_map,
    susp_ob,
)
from .toda import (
    BracketSet,
    BracketTower,
    CtxTriangle,
    RestrictedRead,
    bracket_read_off,
    bracket_tower,
    fc_bracket,
    restricted_read,
    restricted_read_off,
    restricted_tower,
    suspend_ctx_triangle,
)


class AdamsError(Exception):
    pass


class NotACycle(AdamsError):
    """The class does not survive far enough for the requested differential."""


@dataclass(frozen=True)
class ProjectiveClass:
    """The ghost class generated by one object: retracts of sums of its shifts.

    The generator is normalized to reduced canonical form; that changes
    neither the class (free summands are stably invisible) nor any
    computation, and it makes the suspension period a literal equality.
    """

    generator: RModule
    period: int = field(init=False)

    def __post_init__(self):
        G = reduce_module(self.generator)[0]
        object.__setattr__(self, "generator", G)
        if G.dim == 0:
            object.__setattr__(self, "period", 1)
            return
        d = 1
        M = susp_ob(G, 1)
        while M != G:
            M = susp_ob(M, 1)
            d += 1
            if d > 2 * G.ring.m + 2:
                raise AdamsError("no suspension period found")
        object.__setattr__(self, "period", d)

    def shifts(self) -> list[RModule]:
        return [susp_ob(self.generator, n) for n in range(self.period)]

    def is_null(self, f: RMap) -> bool:
        """P-null: invisible to T(Sigma^n G, -) for every shift."""
        return not any(post_matrix(f, Gn).a.any() for Gn in self.shifts())

    def is_epic(self, f: RMap) -> bool:
        """P-epic: surjective on T(Sigma^n G, -) for every shift."""
        return all(rank(post_matrix(f, Gn)) == stable_hom(Gn, f.tgt).sdim
                   for Gn in self.shifts())


@memo
def ghost_cover(M: RModule, cls: ProjectiveClass) -> tuple[RModule, RMap]:
    """A cover P -> M built on module generators of the graded stable groups,
    built once per (M, cls).

    One summand Sigma^n G per generator of +_n T(Sigma^n G, M) over the
    graded stable endomorphism ring of G.  Quotient basis map i has stable
    coordinates e_i, so a shift's generators are the rows of the identity
    extending the classes reached from earlier ones by precomposition: the
    columns of their memoized `post_matrix`.  The tautological map is epic
    for the class by construction, and verified.
    """
    shifts = cls.shifts()
    p = M.ring.p
    chosen: list[tuple[int, RMap]] = []
    for n, Gn in enumerate(shifts):
        S = stable_hom(Gn, M)
        if S.sdim == 0:
            continue
        reached = [row for _, rep in chosen for row in post_matrix(rep, Gn).a.T]
        picks = extending(stack_rows(p, reached, cols=S.sdim), FpMatrix.identity(p, S.sdim))
        chosen += [(n, S.from_stable_coords(e)) for e in np.eye(S.sdim, dtype=np.int64)[picks]]
    if not chosen:
        P = zero_module(M.ring)
        return P, zero_map(P, M)
    P, _, _ = direct_sum([shifts[d] for d, _ in chosen])
    A = np.hstack([rep.A.a for _, rep in chosen]).reshape(M.dim, P.dim)
    cover = RMap(P, M, FpMatrix(p, A))
    if not cls.is_epic(cover):
        raise AdamsError("tautological cover is not epic for the class")
    return P, cover


@dataclass
class AdamsResolution:
    """Iterated ghost covers and fibers of one object.

    Stage s stores the distinguished triangle
    X_{s+1} --w_s--> P_s --p_s--> X_s --dbar_s--> Sigma X_{s+1};
    dbar_s is the degree-shifting map of the tower and is null for the
    class, p_s is epic for the class.
    """

    cls: ProjectiveClass
    X: list
    P: list
    w: list
    p: list
    dbar: list

    @property
    def length(self) -> int:
        return len(self.P)

    @functools.cached_property
    def key(self):
        """The memo key: per stage, the keys of its three maps, which fix
        every object of the tower (read once; the stages are never changed
        after construction)."""
        return tuple((w.key, p.key, d.key) for w, p, d in zip(self.w, self.p, self.dbar))

    def window(self, s: int, r: int) -> "AdamsResolution":
        """Stages s .. s+r, re-indexed from 0: all that a d_r slot at s reads.
        Its `key`, the slice of ours for those stages, is the keys of its
        maps, so equal windows are one slot."""
        if s < 0 or r < 1 or s + r >= self.length:
            raise AdamsError(f"a window needs s >= 0, r >= 1 and s + r < length "
                             f"{self.length}, got s = {s}, r = {r}")
        win = AdamsResolution(self.cls, self.X[s:s + r + 2], self.P[s:s + r + 1],
                              self.w[s:s + r + 1], self.p[s:s + r + 1],
                              self.dbar[s:s + r + 1])
        win.key = self.key[s:s + r + 1]
        return win

    def d1op(self, s: int) -> RMap:
        """The primary operation P_{s+1} -> P_s (degree-shifting in the tower)."""
        return self.w[s] @ self.p[s + 1]

    def triangle(self, s: int) -> Triangle:
        return Triangle(self.w[s], self.p[s], self.dbar[s])


def adams_resolution(M: RModule, cls: ProjectiveClass,
                     length: int) -> AdamsResolution:
    if length < 1:
        raise AdamsError("resolution length must be at least 1")
    X = [M]
    P, w, p, dbar = [], [], [], []
    for s in range(length):
        Ps, ps = ghost_cover(X[s], cls)
        t = fiber_triangle(ps)
        if not cls.is_null(t.h):
            raise AdamsError("tower map is not null for the class")
        X.append(t.f.src)
        P.append(Ps)
        w.append(t.f)
        p.append(ps)
        dbar.append(t.h)
    return AdamsResolution(cls, X, P, w, p, dbar)


# ---------------------------------------------------------------------------
# the exact couple and its pages


def _connecting_map(dbar: RMap, t: int) -> RMap:
    """(-1)^t Sigma^t dbar: the connecting map of the t-th suspension of
    the stage's triangle, since suspending a distinguished triangle
    negates its connecting map."""
    sd = susp_map(dbar, t)
    return -sd if t % 2 else sd


def _precompose(f: RMap, Y: RModule, t: int) -> FpMatrix:
    """T(Sigma^t f, Y): precompose the suspended f.  The couple's gamma,
    E^{s,t} -> D^{s+1,t}, is this for f = w_s, and its beta, D^{s,t} ->
    E^{s,t}, for f = p_s."""
    return pre_matrix(susp_map(f, t), Y)


@memo
def alpha_fibers(X: RModule, Y: RModule, t: int, *dbar: RMap) -> Fibers:
    """The fibers (`linalg.fibers`) of alpha^k: D^{s+k,t+k} -> D^{s,t}, for
    X = X_s and the k maps dbar_s .. dbar_{s+k-1}; the identity at k = 0.
    Z_r, B_r and d_r's chains read it by the maps it composes."""
    p, n = Y.ring.p, stable_hom(susp_ob(X, t), Y).sdim
    if not dbar:
        return identity_fibers(p, n)
    out = FpMatrix.identity(p, n)
    for j, d in enumerate(dbar):
        out = out @ pre_matrix(_connecting_map(d, t + j), Y)
    return fibers(out)


@dataclass
class PageGroup:
    """E_r^{s,t} as a subquotient of E_1^{s,t}: cycles modulo boundaries."""

    s: int
    t: int
    Z: FpMatrix      # rows span the surviving cycles in E_1 coordinates (RREF)
    B: FpMatrix      # rows span the boundaries
    dim: int

    @functools.cached_property
    def _class_map(self) -> tuple[list[int], FpMatrix]:
        """(zpiv, Q): Z is in RREF, so v lies in its row span exactly when
        v = v[zpiv] Z, and the class of such a cycle modulo the boundaries
        is Q v[zpiv]."""
        zpiv = [int(np.flatnonzero(row)[0]) for row in self.Z.a]
        return zpiv, quotient(FpMatrix(self.Z.p, self.B.a[:, zpiv]))[0]

    def classes(self, V: np.ndarray) -> np.ndarray:
        """The E_r classes (rows, complement basis) of a stack of E_1 cycles
        (the rows of V, reduced mod p): one cycle test and one product."""
        zpiv, Q = self._class_map
        if ((V[:, zpiv] @ self.Z.a - V) % self.Z.p).any():
            raise NotACycle("class does not survive to this page")
        return V[:, zpiv] @ Q.a.T % self.Z.p

    def class_coords(self, coords) -> tuple[int, ...]:
        """Coordinates of an E_1 cycle in the E_r subquotient (complement basis)."""
        v = as_vector(coords, self.Z.p)
        if v.shape[0] != self.Z.cols:
            raise DimensionMismatch("vector length != E_1 dimension")
        return tuple(int(x) for x in self.classes(v[None])[0])


@dataclass
class SSPage:
    r: int
    groups: dict
    differentials: dict


@memo
def _zr_rows(X: RModule, Y: RModule, t: int, w: RMap, *dbar: RMap) -> FpMatrix:
    # Z_r at (s, t), for X = X_{s+1}, w = w_s and the r-1 maps dbar_{s+1} ..
    # dbar_{s+r-1}: the cycles e with gamma(e) in the image of alpha^{r-1},
    # K gamma(e) = 0; keyed, like alpha_fibers, by the maps it reads
    K, gamma = alpha_fibers(X, Y, t, *dbar).K, _precompose(w, Y, t)
    return row_space_basis(nullspace(FpMatrix(gamma.p, K @ gamma.a)))


@memo
def _br_rows(X: RModule, Y: RModule, t: int, p: RMap, *dbar: RMap) -> FpMatrix:
    # B_r at (s, t), for p = p_s and the k maps dbar_{s-k} .. dbar_{s-1} out
    # of X = X_{s-k}: beta of the kernel of alpha^k out of D^{s,t}
    ker = alpha_fibers(X, Y, t - len(dbar), *dbar).kernel.basis
    return row_space_basis(FpMatrix(Y.ring.p, ker @ _precompose(p, Y, t).a.T))


def pages(res: AdamsResolution, Y: RModule, r_max: int) -> list[SSPage]:
    """Pages E_1 .. E_{r_max} with their differentials where defined.

    Page r lists the slots s <= length - r_max, 0 <= t <= period, and the
    differential out of each slot whose target (s + r, t + r - 1) is listed.
    """
    if r_max < 1:
        raise AdamsError(f"pages need r_max >= 1, got r_max = {r_max}")
    if r_max > res.length:
        raise AdamsError("resolution too short for the requested pages")
    p, out = Y.ring.p, []
    for r in range(1, r_max + 1):
        groups, diffs = {}, {}
        for s in range(res.length - r_max + 1):
            # below stage 0 the tower is extended by identities, so B_r's
            # chain stops at stage 0
            k = min(r - 1, s)
            for t in range(res.cls.period + 1):
                Z = _zr_rows(res.X[s + 1], Y, t, res.w[s], *res.dbar[s + 1:s + r])
                B = _br_rows(res.X[s - k], Y, t, res.p[s], *res.dbar[s - k:s])
                groups[(s, t)] = PageGroup(s, t, Z, B, Z.rows - B.rows)
        for (s, t), g in groups.items():
            tgt = groups.get((s + r, t + r - 1))
            if tgt is None:
                continue
            # one element beta T gamma z of d_r[z] per cycle row z, T the
            # chains' fibers (`_dr_read`); its class is that of all
            T = alpha_fibers(res.X[s + 1], Y, t, *res.dbar[s + 1:s + r]).T
            chains = g.Z.a @ _precompose(res.w[s], Y, t).a.T % p @ T.T % p
            images = chains @ _precompose(res.p[s + r], Y, t + r - 1).a.T % p
            diffs[(s, t)] = FpMatrix(p, tgt.classes(images).T)
        out.append(SSPage(r, groups, diffs))
    return out


def _slot_class(res: AdamsResolution, Y: RModule, x: RMap, r: int,
                s: int, t: int) -> tuple[AdamsResolution, tuple]:
    """The window of d_r's slot at (s, t) and x's stable coordinates there,
    once the query is checked: a bad query is refused before any read."""
    if r < 1 or s < 0:
        raise AdamsError(f"d_r needs r >= 1 and s >= 0, got r = {r}, s = {s}")
    if s + r >= res.length:  # the pushout needs p_{s+r}
        raise AdamsError("insufficient resolution length for this differential")
    E0 = stable_hom(susp_ob(res.P[s], t), Y)
    if x.src != E0.src or x.tgt != Y:
        raise AdamsError("class does not live in the requested E_1 slot")
    return res.window(s, r), E0.stable_coords(x)


def _own(bs: BracketSet, **metadata) -> BracketSet:
    """A memoized set as a call's own: a copy with a fresh metadata dict."""
    return replace(bs, metadata={**metadata, **bs.metadata})


@memo
def _dr_read(win: AdamsResolution, Y: RModule, r: int, t: int, coords: tuple,
             cap: int) -> BracketSet:
    """d_r at the slot of `win` (`AdamsResolution.window`) and t of the class
    with stable coordinates `coords`, under `cap`.  The chains extending
    gamma(x) through j tower maps end in the fiber over gamma(x) of alpha^j
    into the window's D^{1,t} (`alpha_fibers`), and d_r[x] is beta of the
    last fiber: beta T gamma(x) plus B_r at the target (`_br_rows`).
    Nothing in it depends on s; its metadata holds only the chain count."""
    p, gx = Y.ring.p, _precompose(win.w[0], Y, t).apply(coords)
    for j in range(1, r):
        stage = alpha_fibers(win.X[1], Y, t, *win.dbar[1:j + 1])
        if not stage.has(gx):
            raise NotACycle(f"x is not a d_{r-1}-cycle: extension fails at stage {j}")
        if stage.size() > cap:
            raise EnumerationOverflow(f"{stage.size()} chains exceed cap {cap}")
    last = alpha_fibers(win.X[1], Y, t, *win.dbar[1:r])
    offset = _precompose(win.p[r], Y, t + r - 1).apply(last.T @ gx % p)
    B = _br_rows(win.X[1], Y, t + r - 1, win.p[r], *win.dbar[1:r]).a
    elems = enumerate_points(_affine_space(p, offset, B), cap)
    return BracketSet(susp_ob(win.P[r], t + r - 1), Y, "direct",
                      frozenset(map(tuple, elems.tolist())),
                      tuple(tuple(int(v) for v in row) for row in B),
                      None, {"chains": last.size()})


def dr_set(res: AdamsResolution, Y: RModule, x: RMap, r: int,
           s: int = 0, t: int = 0, cap: int = 4096) -> BracketSet:
    """The full set of E_1 representatives of d_r[x].

    x is a representative Sigma^t P_s -> Y.  The chains of extensions
    through the tower maps form one affine space, and d_r[x] is its image
    under p_{s+r}, returned with that image's direction basis as the
    indeterminacy, B_r at the target; both are read off the exact couple
    at x's coordinates, once per window and class (`_dr_read`).  x is a
    d_{r-1}-cycle exactly when some chain extends through every stage.
    """
    win, coords = _slot_class(res, Y, x, r, s, t)
    return _own(_dr_read(win, Y, r, t, coords, cap), r=r, s=s, t=t)


# ---------------------------------------------------------------------------
# bracket forms of the differential


def op_adams_data(win: AdamsResolution, r: int, t: int):
    """Triangles and the capping map for the restricted form of d_r at the
    slot of `win` (`AdamsResolution.window`), in the opposite context:
    triangle i is stage i's fiber triangle at level t+i, read as the
    op-triangle X -> P -> X' -> Sigma_op X and suspended i times."""
    triangles = []
    for i in range(r):
        sw, sp = susp_map(win.w[i], t + i), susp_map(win.p[i], t + i)
        tri = rotate_back(Triangle(sw, sp, _connecting_map(win.dbar[i], t + i)))
        base = CtxTriangle(sp, sw, tri.f)
        for _ in range(i):
            base = suspend_ctx_triangle(OP, base)
        triangles.append(base)
    # Sigma_op^{r-1} of the suspended p_r (the resolution's p_{s+r})
    return triangles, susp_map(susp_map(win.p[r], t + r - 1), 1 - r)


@dataclass(frozen=True)
class RestrictedSlot:
    """The x-free part of d_r's restricted form at one slot (`restricted_slot`)."""

    read: RestrictedRead
    transport: FpMatrix
    checks: dict


@memo
def restricted_slot(win: AdamsResolution, Y: RModule, r: int, t: int,
                    cap: int) -> RestrictedSlot:
    """The x-free part of the restricted form of d_r at the slot of `win`
    (`AdamsResolution.window`) and t: the read (`restricted_read`) of the
    octahedron tower on `op_adams_data`'s triangles and capping map g, the
    matrix carrying the op bracket's elements (maps into Omega^{r-1} Y) to
    maps into Y, and the tower's x-free checks.  Built once per (win, Y, r,
    t, cap): a smaller cap is a new slot, so it refuses what a cold call
    refuses."""
    triangles, g = op_adams_data(win, r, t)
    stages = restricted_tower(triangles, OP, cap)
    checks = {}
    if stages:
        # (e) sigma': W_1 -> W_r is minus the composite of the tower maps,
        # and the chosen extension b = -(g . beta_last) must extend
        # g . h_r over it; the two signs cancel
        sigma_prime = stages[0].q
        for st in stages[1:]:
            sigma_prime = OP.compose(st.q, sigma_prime)
        checks["extension_over_sigma_prime"] = stably_equal(
            OP.compose(OP.compose(g, stages[-1].beta), sigma_prime),
            OP.compose(g, triangles[-1].h))
    # the op bracket lies in T(A, Omega^{r-1} Y), A = OP.tgt(g); an element
    # u goes to comp . Sigma^{r-1} u
    A, comp = OP.tgt(g), sigma_omega_comparison(Y, r - 1)
    transport = stable_hom(A, susp_ob(Y, 1 - r)).matrix_to(
        stable_hom(susp_ob(A, r - 1), Y), lambda u: comp @ susp_map(u, r - 1))
    return RestrictedSlot(restricted_read(triangles, stages, g, Y, OP), transport, checks)


@dataclass(frozen=True)
class BracketSlot:
    """The x-free towers of d_r's unrestricted bracket forms at one slot
    (`bracket_slot`): x enters each only as the leftmost map f_n."""

    full: BracketTower         # <x . w, p, d_1, ..., d_1>
    ops: BracketTower          # <x, d_1, ..., d_1>
    delta: BracketTower | None  # <x, d_1, delta>, for r = 2


@memo
def bracket_slot(win: AdamsResolution, Y: RModule, r: int, t: int) -> BracketSlot:
    """The towers of the full bracket through the cover, the bracket of the
    primary operations and, for r = 2, the bracket with the tower's
    connecting map, each on the maps after x, built once per (win, Y, r, t)
    (`AdamsResolution.window`).  The towers hold no cap: one slot serves
    every cap, and their read-offs refuse under the caller's."""
    ops = [susp_map(win.d1op(j), t) for j in range(r)]
    full = bracket_tower([susp_map(win.p[1], t)] + ops[1:], Y)
    delta = bracket_tower([ops[0], susp_map(win.w[1], t)], Y) if r == 2 else None
    return BracketSlot(full, bracket_tower(ops, Y), delta)


def _images(M: FpMatrix, rows) -> frozenset:
    """The images under M of a set of coordinate rows."""
    return frozenset(map(tuple, (stack_rows(M.p, rows, M.cols) @ M.transpose()).a.tolist()))


@dataclass
class DrFormsReport:
    r: int
    dr: BracketSet
    full_bracket: BracketSet
    restricted_elements: frozenset
    w_filtered_elements: frozenset | None
    equal_full: bool
    equal_restricted: bool
    equal_w_filtered: bool | None
    variants: dict
    checks: dict


@memo
def _forms_read(win: AdamsResolution, Y: RModule, r: int, t: int, coords: tuple,
                cap: int) -> DrFormsReport:
    """d_r's bracket forms at the slot of `win` (`AdamsResolution.window`)
    and t for the class with stable coordinates `coords`, under `cap`, read
    once per (win, Y, r, t, coords, cap).  Every form depends only on x's
    stable class, so `<x, d_1, delta>` reads the class's canonical
    representative.  The d_r set is `_dr_read`'s, whose metadata lacks s."""
    a_set = _dr_read(win, Y, r, t, coords, cap)
    slot = restricted_slot(win, Y, r, t, cap)
    towers = bracket_slot(win, Y, r, t)

    # (b) the (r+1)-fold bracket through the cover: x.w, p, then the
    # primary operations of the deeper stages
    full = bracket_read_off(towers.full, _precompose(win.w[0], Y, t).apply(coords), cap)
    equal_full = full.elements == a_set.elements

    # the unrestricted bracket of the primary operations alone: d_r[x]
    # is contained in it, possibly properly
    ops_bracket = bracket_read_off(towers.ops, coords, cap)

    # (c) restricted bracket in the opposite context, read off the slot at x
    rbs = restricted_read_off(slot.read, coords, cap)
    c_elems = _images(slot.transport, rbs.elements)
    equal_restricted = c_elems == a_set.elements

    # (e) the r-filtered tower (W_1 = J_r, W_{k+1} = stage cones, extension
    # b = -(g . beta_last)) has the elements b . l, l a lift of Sigma^{r-1} x
    # through the top iota; the -l lift -Sigma^{r-1} x, so the set is (c)'s
    checks = dict(slot.checks)
    w_elems, equal_w = (c_elems, equal_restricted) if r > 1 else (None, None)

    variants: dict = {"operations_bracket": ops_bracket}
    checks["dr_subset_of_operations_bracket"] = (
        a_set.elements <= ops_bracket.elements)
    if r == 2:
        x = stable_hom(susp_ob(win.P[0], t), Y).from_stable_coords(coords)
        d1s = susp_map(win.d1op(0), t)
        ws1 = susp_map(win.w[1], t)
        # <x, d_1, delta>: the bracket with the tower's connecting map
        v_delta = fc_bracket(bracket_read_off(towers.delta, coords, cap), x, d1s, ws1)
        variants["with_delta"] = v_delta
        # its composition with Sigma p at the E_1 slot: one product, as
        # composition is linear on stable classes
        assert v_delta.src == susp_ob(win.X[2], t + 1) and v_delta.tgt == Y
        v_delta_p = _images(_precompose(win.p[2], Y, t + 1), v_delta.elements)
        variants["with_delta_composed"] = v_delta_p
        variants["through_cover"] = full
        checks["composed_equals_dr"] = v_delta_p == a_set.elements
        checks["chain_inclusion"] = v_delta_p <= ops_bracket.elements
        checks["chain_proper"] = v_delta_p < ops_bracket.elements

    return DrFormsReport(r, a_set, full, c_elems, w_elems, equal_full,
                         equal_restricted, equal_w, variants, checks)


def dr_bracket_forms(res: AdamsResolution, Y: RModule, x: RMap, r: int,
                     s: int = 0, t: int = 0, cap: int = 4096) -> DrFormsReport:
    """d_r[x] versus its bracket descriptions.

    (a) the exact-couple set, (b) the full (r+1)-fold bracket of the
    primary operations, (c) the restricted bracket through the
    resolution's factorizations (computed in the opposite context),
    (e) the r-filtered tower assembled from the restricted computation,
    whose extension over sigma' is checked and whose elements are (c)'s
    (the lifts it composes with are the negatives of (c)'s); for r = 2
    also the three 3-fold variants and the inclusion chain.  The tower
    of (c) and (e) is shared per slot (`restricted_slot`, built right
    after (a)), the class entering at the lift; so are the towers of the
    other brackets (`bracket_slot`), each read off at x's coordinates.
    The forms are read once per window and class (`_forms_read`, on
    `dr_set`'s read); each call gets its own report and metadata.
    """
    win, coords = _slot_class(res, Y, x, r, s, t)
    rep = _forms_read(win, Y, r, t, coords, cap)
    return replace(rep, dr=_own(rep.dr, r=r, s=s, t=t), full_bracket=_own(rep.full_bracket),
                   variants={k: _own(v) if isinstance(v, BracketSet) else v
                             for k, v in rep.variants.items()},
                   checks=dict(rep.checks))


# ---------------------------------------------------------------------------
# sparseness


@dataclass
class SparseReport:
    generator_type: tuple
    window: int
    dims: dict
    nonzero_degrees: list
    N: int
    sparse: bool
    vacuous: bool


def sparse_check(G: RModule, N: int, window: int) -> SparseReport:
    """Degrees with T(Sigma^n G, G) nonzero over a symmetric window.

    N-sparse means every nonzero degree is a multiple of N; a projective
    generator has no nonzero degrees at all and is vacuously sparse.
    """
    if N < 1 or window < 0:
        raise AdamsError(f"sparseness needs N >= 1 and window >= 0, got {N}, {window}")
    shifts = {0: G}
    for n in range(1, window + 1):
        shifts[n], shifts[-n] = sigma_ob(shifts[n - 1]), omega_ob(shifts[1 - n])
    dims = {n: stable_hom(shifts[n], G).sdim for n in range(-window, window + 1)}
    nonzero = [n for n, d in dims.items() if d]
    sparse = all(n % N == 0 for n in nonzero)
    return SparseReport(jordan_type(G), window, dims, nonzero, N, sparse,
                        vacuous=not nonzero)
