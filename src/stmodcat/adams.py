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

The injective-variance statements are exercised through the opposite
context: the same resolution data, arrows reversed, feeds the generic
restricted-bracket machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    Echelon,
    EnumerationOverflow,
    FpMatrix,
    enumerate_points,
    in_span,
    nullspace,
    quotient_coords,
    rank,
    row_space_basis,
    solve_affine,
    stack_rows,
)
from .modrep import (
    RMap,
    RModule,
    direct_sum,
    jordan_type,
    zero_map,
    zero_module,
)
from .stcat import (
    OP,
    StableHomSpace,
    Triangle,
    fiber_triangle,
    post_matrix,
    pre_matrix,
    rotate_back,
    sigma_omega_comparison,
    stable_hom,
    susp_map,
    susp_ob,
)
from .toda import (
    BracketSet,
    CtxTriangle,
    bracket3,
    higher_bracket,
    restricted_higher_bracket,
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
        from .modrep import reduce_module

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
        for Gn in self.shifts():
            if post_matrix(f, Gn).a.any():
                return False
        return True

    def is_epic(self, f: RMap) -> bool:
        """P-epic: surjective on T(Sigma^n G, -) for every shift."""
        for Gn in self.shifts():
            m = post_matrix(f, Gn)
            if rank(m) < stable_hom(Gn, f.tgt).sdim:
                return False
        return True


def ghost_cover(M: RModule, cls: ProjectiveClass) -> tuple[RModule, RMap]:
    """A cover P -> M built on module generators of the graded stable groups.

    One summand Sigma^n G per generator of +_n T(Sigma^n G, M) over the
    graded stable endomorphism ring of G (classes reachable from earlier
    generators by precomposition are skipped).  The tautological map is
    epic for the class by construction, and that is verified.
    """
    G = cls.generator
    shifts = cls.shifts()
    chosen: list[tuple[int, RMap]] = []
    for n, Gn in enumerate(shifts):
        S = stable_hom(Gn, M)
        if S.sdim == 0:
            continue
        reach = Echelon(M.ring.p, S.sdim)
        for d, rep in chosen:
            for e in stable_hom(Gn, shifts[d]).quotient_basis_maps():
                reach.add(S.stable_coords(rep @ e))
        for b in S.quotient_basis_maps():
            if reach.add(S.stable_coords(b)):
                chosen.append((n, b))
    if not chosen:
        P = zero_module(M.ring)
        return P, zero_map(P, M)
    P, incls, _ = direct_sum([shifts[d] for d, _ in chosen])
    A = np.hstack([rep.A.a for _, rep in chosen]).reshape(M.dim, P.dim)
    p = RMap(P, M, FpMatrix(M.ring.p, A))
    if not cls.is_epic(p):
        raise AdamsError("tautological cover is not epic for the class")
    return P, p


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

    def d1op(self, s: int) -> RMap:
        """The primary operation P_{s+1} -> P_s (degree-shifting in the tower)."""
        return self.w[s] @ self.p[s + 1]

    def triangle(self, s: int) -> Triangle:
        return Triangle(self.w[s], self.p[s], self.dbar[s], "fiber")


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


class CoupleChart:
    """Cached groups and structure maps of the exact couple for T(-, Y)."""

    def __init__(self, res: AdamsResolution, Y: RModule):
        self.res = res
        self.Y = Y

    def E_space(self, s: int, t: int) -> StableHomSpace:
        return stable_hom(susp_ob(self.res.P[s], t), self.Y)

    def D_space(self, s: int, t: int) -> StableHomSpace:
        return stable_hom(susp_ob(self.res.X[s], t), self.Y)

    def gamma_mat(self, s: int, t: int) -> FpMatrix:
        """E^{s,t} -> D^{s+1,t}: precompose the suspended w_s."""
        return pre_matrix(susp_map(self.res.w[s], t), self.Y)

    def beta_mat(self, s: int, t: int) -> FpMatrix:
        """D^{s,t} -> E^{s,t}: precompose the suspended p_s."""
        return pre_matrix(susp_map(self.res.p[s], t), self.Y)

    def alpha_mat(self, s: int, t: int) -> FpMatrix:
        """D^{s+1,t+1} -> D^{s,t}: precompose the suspended dbar_s."""
        return pre_matrix(susp_map(self.res.dbar[s], t), self.Y)

    def alpha_chain_into(self, s1: int, t1: int, k: int) -> FpMatrix:
        """Composite alpha^k : D^{s1+k, t1+k} -> D^{s1,t1}."""
        p = self.Y.ring.p
        out = FpMatrix.identity(p, self.D_space(s1, t1).sdim)
        s, t = s1, t1
        for _ in range(k):
            out = out @ self.alpha_mat(s, t)
            s, t = s + 1, t + 1
        return out

    def alpha_chain_down(self, s: int, t: int, k: int) -> FpMatrix:
        """Composite alpha^k : D^{s,t} -> D^{s-k,t-k}.

        The couple is one-sided: below stage 0 the tower is extended by
        identities, so the chain is clamped at stage 0.
        """
        p = self.Y.ring.p
        d0 = self.D_space(s, t).sdim
        out = FpMatrix.identity(p, d0)
        for j in range(min(k, s)):
            out = self.alpha_mat(s - j - 1, t - j - 1) @ out
        return out


@dataclass
class PageGroup:
    """E_r^{s,t} as a subquotient of E_1^{s,t}: cycles modulo boundaries."""

    s: int
    t: int
    Z: FpMatrix      # rows span the surviving cycles in E_1 coordinates
    B: FpMatrix      # rows span the boundaries
    dim: int

    def contains(self, coords) -> bool:
        return in_span(self.Z, np.asarray(coords, dtype=np.int64))

    def class_coords(self, coords) -> tuple[int, ...]:
        """Coordinates of an E_1 cycle in the E_r subquotient (complement basis)."""
        v = np.asarray(coords, dtype=np.int64)
        if not self.contains(v):
            raise NotACycle("class does not survive to this page")
        # express in the Z basis, then reduce modulo B inside those coordinates
        sol = solve_affine(self.Z.transpose(), v)
        zc = sol.representative
        rows = []
        for b in self.B.a:
            rows.append(solve_affine(self.Z.transpose(), b).representative)
        return tuple(int(x) for x in quotient_coords(
            stack_rows(self.Z.p, rows, cols=self.Z.rows), zc))


@dataclass
class SSPage:
    r: int
    groups: dict
    differentials: dict

    def dim(self, s: int, t: int) -> int:
        g = self.groups.get((s, t))
        return g.dim if g else 0


def _zr_rows(chart: CoupleChart, s: int, t: int, r: int) -> FpMatrix:
    p = chart.Y.ring.p
    E = chart.E_space(s, t)
    if r == 1:
        return FpMatrix.identity(p, E.sdim)
    g = chart.gamma_mat(s, t)
    A = chart.alpha_chain_into(s + 1, t, r - 1)
    joint = np.hstack([g.a, (-A.a) % p]).reshape(g.rows, g.cols + A.cols)
    kern = nullspace(FpMatrix(p, joint))
    proj = kern.a[:, :E.sdim].reshape(kern.rows, E.sdim)
    return row_space_basis(FpMatrix(p, proj))


def _br_rows(chart: CoupleChart, s: int, t: int, r: int) -> FpMatrix:
    p = chart.Y.ring.p
    E = chart.E_space(s, t)
    if r == 1:
        return FpMatrix.zeros(p, 0, E.sdim)
    down = chart.alpha_chain_down(s, t, r - 1)
    ker = nullspace(down)
    beta = chart.beta_mat(s, t)
    img = (ker.a @ beta.a.T) % p
    return row_space_basis(FpMatrix(p, img.reshape(ker.rows, E.sdim)))


def pages(res: AdamsResolution, Y: RModule, r_max: int,
          s_max: int | None = None, t_max: int | None = None) -> list[SSPage]:
    """Pages E_1 .. E_{r_max} with their differentials where defined.

    A slot (s,t) appears when the resolution is long enough to compute
    both the cycles at (s,t) and the differential mapping out of it.
    """
    if s_max is None:
        s_max = res.length - r_max
    if t_max is None:
        t_max = res.cls.period
    if s_max < 0:
        raise AdamsError("resolution too short for the requested pages")
    chart = CoupleChart(res, Y)
    out = []
    for r in range(1, r_max + 1):
        groups, diffs = {}, {}
        for s in range(0, s_max + 1):
            for t in range(0, t_max + 1):
                if s + r > res.length:
                    continue
                Z = _zr_rows(chart, s, t, r)
                B = _br_rows(chart, s, t, r)
                groups[(s, t)] = PageGroup(s, t, Z, B, Z.rows - B.rows)
        for (s, t), g in groups.items():
            tgt = groups.get((s + r, t + r - 1))
            if tgt is None:
                continue
            cols = []
            for row in g.Z.a:
                img = _dr_one_rep(chart, s, t, r, row)
                cols.append(np.array(tgt.class_coords(img), dtype=np.int64))
            mat = (np.array(cols, dtype=np.int64).T.reshape(tgt.dim, g.Z.rows)
                   if cols else np.zeros((tgt.dim, 0), dtype=np.int64))
            diffs[(s, t)] = FpMatrix(Y.ring.p, mat)
        out.append(SSPage(r, groups, diffs))
    return out


def _dr_one_rep(chart: CoupleChart, s: int, t: int, r: int,
                coords) -> np.ndarray:
    """One representative of d_r applied to an E_1 cycle, as E_1 coords."""
    p = chart.Y.ring.p
    g = chart.gamma_mat(s, t).apply(np.asarray(coords, dtype=np.int64))
    cur = g
    for j in range(1, r):
        sol = solve_affine(chart.alpha_mat(s + j, t + j - 1), cur)
        if sol is None:
            raise NotACycle(f"extension fails at stage {j}")
        cur = sol.representative
    return chart.beta_mat(s + r, t + r - 1).apply(cur)


def dr_set(res: AdamsResolution, Y: RModule, x: RMap, r: int,
           s: int = 0, t: int = 0, cap: int = 4096) -> BracketSet:
    """The full set of E_1 representatives of d_r[x].

    x is a representative Sigma^t P_s -> Y.  Enumerates every chain of
    extensions through the tower maps and pushes out along p_{s+r}; the
    result is returned with the subgroup spanned by its differences.
    """
    if s + r >= res.length:  # the pushout needs p_{s+r}
        raise AdamsError("insufficient resolution length for this differential")
    chart = CoupleChart(res, Y)
    E0 = chart.E_space(s, t)
    if x.src != E0.src or x.tgt != Y:
        raise AdamsError("class does not live in the requested E_1 slot")
    p = Y.ring.p
    cur = {tuple(int(v) for v in
                 chart.gamma_mat(s, t).apply(np.array(E0.stable_coords(x),
                                                      dtype=np.int64)))}
    for j in range(1, r):
        nxt = set()
        for c in cur:
            sol = solve_affine(chart.alpha_mat(s + j, t + j - 1),
                               np.array(c, dtype=np.int64))
            if sol is None:
                raise NotACycle(
                    f"x is not a d_{r-1}-cycle: extension fails at stage {j}")
            for v in enumerate_points(sol, cap):
                nxt.add(tuple(int(y) for y in v))
        if len(nxt) > cap:
            raise EnumerationOverflow(f"{len(nxt)} chains exceed cap {cap}")
        cur = nxt
    beta = chart.beta_mat(s + r, t + r - 1)
    elems = frozenset(tuple(int(y) for y in beta.apply(np.array(c, dtype=np.int64)))
                      for c in cur)
    base = next(iter(elems))
    diffs = [np.array(e, dtype=np.int64) - np.array(base, dtype=np.int64)
             for e in elems]
    indet = row_space_basis(stack_rows(p, diffs, cols=len(base)))
    Etgt = chart.E_space(s + r, t + r - 1)
    return BracketSet(Etgt.src, Y, "direct", elems,
                      tuple(tuple(int(v) for v in row) for row in indet.a),
                      None, {"r": r, "s": s, "t": t, "chains": len(cur)})


# ---------------------------------------------------------------------------
# bracket forms of the differential


def _op_stage_triangle(res: AdamsResolution, a: int, level: int) -> CtxTriangle:
    """Stage-a fiber triangle, suspended to `level`, read in the opposite category."""
    sw = susp_map(res.w[a], level)
    sp = susp_map(res.p[a], level)
    sd = susp_map(res.dbar[a], level)
    if level % 2 == 1:
        sd = -sd
    t = rotate_back(Triangle(sw, sp, sd))
    # op-triangle X_a -> P_a -> X_{a+1} -> Sigma_op X_a at this level
    return CtxTriangle(sp, sw, t.f)


def op_adams_data(res: AdamsResolution, r: int, s: int, t: int):
    """Triangles and the capping map for the restricted form, in the opposite context."""
    triangles = []
    for i in range(1, r + 1):
        base = _op_stage_triangle(res, s + i - 1, t + i - 1)
        for _ in range(i - 1):
            base = suspend_ctx_triangle(OP, base)
        triangles.append(base)
    g = susp_map(res.p[s + r], t + r - 1)
    for _ in range(r - 1):
        g = OP.sigma_map(g)
    return triangles, g


def _transport_op_elements(bs: BracketSet, Y: RModule, k: int) -> frozenset:
    """Carry op-bracket elements (maps into Omega^k Y) to maps into Y."""
    comp = sigma_omega_comparison(Y, k)
    out = set()
    space = None
    for u in bs.rep_maps(OP):
        v = comp @ susp_map(u, k)
        space = stable_hom(v.src, v.tgt)
        out.add(space.stable_coords(v))
    return frozenset(out)


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


def dr_bracket_forms(res: AdamsResolution, Y: RModule, x: RMap, r: int,
                     s: int = 0, t: int = 0, cap: int = 4096) -> DrFormsReport:
    """d_r[x] versus its bracket descriptions.

    (a) the exact-couple set, (b) the full (r+1)-fold bracket of the
    primary operations, (c) the restricted bracket through the
    resolution's factorizations (computed in the opposite context),
    (e) the r-filtered tower assembled from the restricted computation;
    for r = 2 also the three 3-fold variants and the inclusion chain.
    """
    a_set = dr_set(res, Y, x, r, s, t, cap)

    # (b) the (r+1)-fold bracket through the cover: x.w, p, then the
    # primary operations of the deeper stages
    chain = [x @ susp_map(res.w[s], t), susp_map(res.p[s + 1], t)]
    chain += [susp_map(res.d1op(s + j), t) for j in range(1, r)]
    full = higher_bracket(chain, cap=cap)
    equal_full = full.elements == a_set.elements

    # the unrestricted bracket of the primary operations alone: d_r[x]
    # is contained in it, possibly properly
    ops_bracket = higher_bracket(
        [x] + [susp_map(res.d1op(s + j), t) for j in range(r)], cap=cap)

    # (c) restricted bracket in the opposite context
    triangles, g = op_adams_data(res, r, s, t)
    rbs, trace = restricted_higher_bracket(triangles, g, x, ctx=OP, cap=cap,
                                           with_trace=True)
    c_elems = _transport_op_elements(rbs, Y, r - 1)
    equal_restricted = c_elems == a_set.elements

    checks: dict = {}
    w_elems = None
    equal_w = None
    if trace.stages:
        # (e) the r-filtered tower: W_1 = J_r, W_{k+1} = stage cones;
        # the chosen extension is b = -(g . beta_last), elements are
        # b composed with lifts of Sigma^{r-1} x through the top iota
        st_last = trace.stages[-1]
        sx = x
        for _ in range(r - 1):
            sx = OP.sigma_map(sx)
        b = OP.negate(OP.compose(g, st_last.beta))
        lifts = OP.solve_post(st_last.iota, sx)
        if lifts is None:
            w_elems = frozenset()
        else:
            SB = OP.src(sx)
            maps = [OP.compose(b, a0)
                    for a0 in OP.classes(SB, st_last.W, lifts, cap)]
            wbs = BracketSet(SB, OP.tgt(b), "op",
                             frozenset(OP.hom(SB, OP.tgt(b)).stable_coords(m)
                                       for m in maps))
            w_elems = _transport_op_elements(wbs, Y, r - 1)
        equal_w = w_elems == a_set.elements
        # sigma': W_1 -> W_r is minus the composite of the tower maps
        sigma_prime = trace.stages[0].q
        for st in trace.stages[1:]:
            sigma_prime = OP.compose(st.q, sigma_prime)
        sigma_prime = OP.negate(sigma_prime)
        d1_top = OP.compose(g, triangles[-1].h)
        checks["extension_over_sigma_prime"] = OP.eq(
            OP.compose(b, sigma_prime), d1_top)

    variants: dict = {"operations_bracket": ops_bracket}
    checks["dr_subset_of_operations_bracket"] = (
        a_set.elements <= ops_bracket.elements)
    if r == 2:
        d1s = susp_map(res.d1op(s), t)
        ws1 = susp_map(res.w[s + 1], t)
        ps2 = susp_map(res.p[s + 2], t + 1)
        # <x, d_1, delta>: the bracket with the tower's connecting map
        v_delta = bracket3(x, d1s, ws1, cap=cap)
        variants["with_delta"] = v_delta
        # its composition with Sigma p: representatives at the E_1 slot
        slot = stable_hom(ps2.src, Y)
        v_delta_p = frozenset(slot.stable_coords(u @ ps2)
                              for u in v_delta.rep_maps())
        variants["with_delta_composed"] = v_delta_p
        variants["through_cover"] = full
        checks["composed_equals_dr"] = v_delta_p == a_set.elements
        checks["chain_inclusion"] = v_delta_p <= ops_bracket.elements
        checks["chain_proper"] = v_delta_p < ops_bracket.elements

    return DrFormsReport(r, a_set, full, c_elems, w_elems, equal_full,
                         equal_restricted, equal_w, variants, checks)


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
    dims = {}
    for n in range(-window, window + 1):
        dims[n] = stable_hom(susp_ob(G, n), G).sdim
    nonzero = [n for n, d in dims.items() if d]
    sparse = all(n % N == 0 for n in nonzero)
    return SparseReport(jordan_type(G), window, dims, nonzero, N, sparse,
                        vacuous=not nonzero)
