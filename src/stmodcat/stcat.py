"""The stable module category as a triangulated category.

Hom groups are taken modulo maps factoring through a projective.  The
triangulation is fixed once and for all: the cone of f: M -> N is the
cokernel of the stabilized monomorphism (f, emb): M -> N + I(M), with
the connecting map induced by the projection onto I(M)/M; the fiber is
the dual kernel construction through the projective cover.  Rotation
introduces a sign on the suspended map.

Suspension is a strict construction (sigma/omega from modrep), so the
comparison isomorphisms Sigma Omega = id and Omega Sigma = id are
stored explicitly (unit and its adjoint mate) and every degree-shifting
identification routes through them.

Two computation contexts share this machinery: the direct category and
the opposite category (arrows reversed, sigma and omega swapped, cones
built from fibers).  Bracket code is written once against the context
interface.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    AffineSpace,
    FpMatrix,
    LinAlgError,
    enumerate_points,
    rank,
    right_inverse,
    rref,
    solve_affine,
    solve_columns,
    stack_rows,
)
from .modrep import (
    KernelData,
    CokernelData,
    RMap,
    RModule,
    RingMismatch,
    direct_sum,
    hom_basis,
    identity_map,
    omega,
    sigma,
    zero_map,
)


class StCatError(Exception):
    pass


# ---------------------------------------------------------------------------
# stable hom spaces


class StableHomSpace:
    """Hom(M, N) with the subspace of projectively-trivial maps split off.

    Quotient coordinates are fixed by the RREF complement of the
    projectively-trivial subspace inside the chosen hom basis, so every
    stable class has one canonical coordinate vector.
    """

    __slots__ = ("src", "tgt", "basis", "_flat", "phom_coords", "_ph_rref",
                 "_ph_pivots", "_free", "sdim", "p", "_solve_T")

    def __init__(self, M: RModule, N: RModule):
        if M.ring != N.ring:
            raise RingMismatch("stable hom between different rings")
        p = M.ring.p
        basis = hom_basis(M, N)
        flat = stack_rows(p, [b.A.a.reshape(-1) for b in basis],
                          cols=M.dim * N.dim)
        object.__setattr__(self, "src", M)
        object.__setattr__(self, "tgt", N)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_flat", flat)
        object.__setattr__(self, "p", p)
        # precompute a solver for coordinates in the hom basis:
        # rref([flat | I_h]) = [E flat | E] with (E flat)[:, piv] = I_h, so a
        # combination v = c flat has c = v[piv] E; _solve_T applies that.
        n, h = M.dim * N.dim, len(basis)
        aug = FpMatrix(p, np.hstack([flat.a, np.eye(h, dtype=np.int64)]))
        R, piv = rref(aug)
        if len([j for j in piv if j < n]) != h:
            raise StCatError("hom basis is not independent")
        T = np.zeros((h, n), dtype=np.int64)
        T[:, piv] = R.a[:, n:].T
        object.__setattr__(self, "_solve_T", FpMatrix(p, T))
        # maps factoring through a projective = maps lifting along the cover of N
        _, _, cover = omega(N)
        lifted = [cover @ u for u in hom_basis(M, cover.src)]
        ph_rows = [self.hom_coords(v) for v in lifted]
        ph = stack_rows(p, ph_rows, cols=h)
        Rp, pivots = rref(ph)
        object.__setattr__(self, "phom_coords",
                           FpMatrix(p, Rp.a[:len(pivots)].reshape(len(pivots), h)))
        object.__setattr__(self, "_ph_rref", Rp.a[:len(pivots)].reshape(len(pivots), h))
        object.__setattr__(self, "_ph_pivots", pivots)
        object.__setattr__(self, "_free",
                           [j for j in range(h) if j not in pivots])
        object.__setattr__(self, "sdim", h - len(pivots))

    def __setattr__(self, *args):
        raise AttributeError("StableHomSpace is immutable")

    def hom_coords(self, f) -> np.ndarray:
        A = f.A if isinstance(f, RMap) else f
        h = len(self.basis)
        if h == 0:
            return np.zeros(0, dtype=np.int64)
        return self._solve_T.apply(A.a.reshape(-1))

    def _check(self, f: RMap):
        if not ((f.src is self.src or f.src == self.src)
                and (f.tgt is self.tgt or f.tgt == self.tgt)):
            raise StCatError("map does not live in this hom space")

    def stable_coords(self, f) -> tuple[int, ...]:
        if isinstance(f, RMap):
            self._check(f)
        c = self.hom_coords(f)
        for i, pc in enumerate(self._ph_pivots):
            c = (c - c[pc] * self._ph_rref[i]) % self.p
        return tuple(int(x) for x in c[self._free])

    def from_stable_coords(self, coords) -> RMap:
        c = np.zeros(len(self.basis), dtype=np.int64)
        c[self._free] = np.asarray(coords, dtype=np.int64) % self.p
        A = np.zeros((self.tgt.dim, self.src.dim), dtype=np.int64)
        for ci, b in zip(c, self.basis):
            if ci:
                A = (A + int(ci) * b.A.a) % self.p
        return RMap(self.src, self.tgt, FpMatrix(self.p, A), check=False)

    def quotient_basis_maps(self) -> list[RMap]:
        eye = np.eye(self.sdim, dtype=np.int64)
        return [self.from_stable_coords(eye[i]) for i in range(self.sdim)]

    def zero(self) -> RMap:
        return zero_map(self.src, self.tgt)

    def full_space(self) -> AffineSpace:
        return AffineSpace(self.p, self.sdim,
                           np.zeros(self.sdim, dtype=np.int64),
                           np.eye(self.sdim, dtype=np.int64))


_HOM_CACHE: dict[tuple, StableHomSpace] = {}


def stable_hom(M: RModule, N: RModule) -> StableHomSpace:
    key = (M.key, N.key)
    if key not in _HOM_CACHE:
        _HOM_CACHE[key] = StableHomSpace(M, N)
    return _HOM_CACHE[key]


def stable_coords(f: RMap) -> tuple[int, ...]:
    return stable_hom(f.src, f.tgt).stable_coords(f)


def is_stably_zero(f: RMap) -> bool:
    return not any(stable_coords(f))


def stably_equal(f: RMap, g: RMap) -> bool:
    if f.src != g.src or f.tgt != g.tgt:
        raise StCatError("maps have different (co)domains")
    return is_stably_zero(f - g)


@dataclass(frozen=True)
class StableMap:
    """A map in the stable category: a representative plus its hom space."""

    rep: RMap

    @property
    def space(self) -> StableHomSpace:
        return stable_hom(self.rep.src, self.rep.tgt)

    def coords(self) -> tuple[int, ...]:
        return self.space.stable_coords(self.rep)

    def __eq__(self, other):
        if not isinstance(other, StableMap):
            return NotImplemented
        return (self.rep.src == other.rep.src and self.rep.tgt == other.rep.tgt
                and self.coords() == other.coords())

    def __hash__(self):
        return hash((self.rep.src, self.rep.tgt, self.coords()))

    def is_zero(self) -> bool:
        return not any(self.coords())


# ---------------------------------------------------------------------------
# composition operators and affine solving inside stable homs


_POST_CACHE: dict[tuple, FpMatrix] = {}
_PRE_CACHE: dict[tuple, FpMatrix] = {}


def post_matrix(g: RMap, A: RModule) -> FpMatrix:
    """Matrix of g . (-) : T(A, src g) -> T(A, tgt g) in stable coordinates."""
    key = (g.src.key, g.tgt.key, g.A.a.tobytes(), A.key)
    if key in _POST_CACHE:
        return _POST_CACHE[key]
    S = stable_hom(A, g.src)
    T = stable_hom(A, g.tgt)
    cols = [T.stable_coords(g @ u) for u in S.quotient_basis_maps()]
    arr = np.array(cols, dtype=np.int64).T.reshape(T.sdim, S.sdim)
    out = FpMatrix(g.src.ring.p, arr)
    _POST_CACHE[key] = out
    return out


def pre_matrix(f: RMap, C: RModule) -> FpMatrix:
    """Matrix of (-) . f : T(tgt f, C) -> T(src f, C) in stable coordinates."""
    key = (f.src.key, f.tgt.key, f.A.a.tobytes(), C.key)
    if key in _PRE_CACHE:
        return _PRE_CACHE[key]
    S = stable_hom(f.tgt, C)
    T = stable_hom(f.src, C)
    cols = [T.stable_coords(u @ f) for u in S.quotient_basis_maps()]
    arr = np.array(cols, dtype=np.int64).T.reshape(T.sdim, S.sdim)
    out = FpMatrix(f.src.ring.p, arr)
    _PRE_CACHE[key] = out
    return out


def solve_post(g: RMap, target: RMap) -> AffineSpace | None:
    """All stable classes u with g . u = target; None when no lift exists."""
    if target.tgt != g.tgt:
        raise StCatError("target does not land in the codomain of g")
    T = stable_hom(target.src, g.tgt)
    return solve_affine(post_matrix(g, target.src),
                        np.array(T.stable_coords(target), dtype=np.int64))


def solve_pre(f: RMap, target: RMap) -> AffineSpace | None:
    """All stable classes u with u . f = target; None when no extension exists."""
    if target.src != f.src:
        raise StCatError("target does not start at the domain of f")
    T = stable_hom(f.src, target.tgt)
    return solve_affine(pre_matrix(f, target.tgt),
                        np.array(T.stable_coords(target), dtype=np.int64))


def classes_from_affine(space: StableHomSpace, sols: AffineSpace,
                        cap: int = 4096) -> list[RMap]:
    """One representative per stable class in an affine solution set."""
    return [space.from_stable_coords(v) for v in enumerate_points(sols, cap)]


# ---------------------------------------------------------------------------
# suspension of maps and the comparison isomorphisms


_SIGMA_MAP_CACHE: dict[tuple, RMap] = {}
_OMEGA_MAP_CACHE: dict[tuple, RMap] = {}


def _solve_exact_intertwiner(candidates: list[RMap], rhs: FpMatrix,
                             compose_left=None, compose_right=None) -> RMap:
    """Pick c_i with sum c_i * L(B_i) = rhs, L a fixed (pre/post) composition."""
    p = rhs.p
    cols = []
    for B in candidates:
        A = B.A
        if compose_right is not None:
            A = A @ compose_right
        if compose_left is not None:
            A = compose_left @ A
        cols.append(A.a.reshape(-1))
    mat = FpMatrix(p, np.array(cols, dtype=np.int64).T.reshape(-1, len(candidates))
                   if candidates else np.zeros((rhs.rows * rhs.cols, 0), dtype=np.int64))
    sol = solve_affine(mat, rhs.a.reshape(-1))
    if sol is None:
        raise StCatError("no exact intertwiner; construction is inconsistent")
    out = None
    for ci, B in zip(sol.representative, candidates):
        term = B.scale(int(ci))
        out = term if out is None else out + term
    if out is None:
        raise StCatError("empty candidate basis with nonzero target")
    return out


def sigma_ob(M: RModule) -> RModule:
    return sigma(M)[0]


def omega_ob(M: RModule) -> RModule:
    return omega(M)[0]


def sigma_map(f: RMap) -> RMap:
    """Suspend a map through the chosen injective envelopes."""
    key = (f.src.key, f.tgt.key, f.A.a.tobytes())
    if key in _SIGMA_MAP_CACHE:
        return _SIGMA_MAP_CACHE[key]
    SM, embM, quotM = sigma(f.src)
    SN, embN, quotN = sigma(f.tgt)
    if SM.dim == 0 or SN.dim == 0:
        out = zero_map(SM, SN)
    else:
        F = _solve_exact_intertwiner(hom_basis(embM.tgt, embN.tgt),
                                     embN.A @ f.A, compose_right=embM.A)
        out = RMap(SM, SN, quotN.A @ F.A @ right_inverse(quotM.A))
    _SIGMA_MAP_CACHE[key] = out
    return out


def omega_map(f: RMap) -> RMap:
    """Desuspend a map through the chosen projective covers."""
    key = (f.src.key, f.tgt.key, f.A.a.tobytes())
    if key in _OMEGA_MAP_CACHE:
        return _OMEGA_MAP_CACHE[key]
    OM, inclM, covM = omega(f.src)
    ON, inclN, covN = omega(f.tgt)
    if OM.dim == 0 or ON.dim == 0:
        out = zero_map(OM, ON)
    else:
        G = _solve_exact_intertwiner(hom_basis(covM.src, covN.src),
                                     f.A @ covM.A, compose_left=covN.A)
        # restrict G to the kernels
        GB = FpMatrix(f.src.ring.p, (G.A.a @ inclM.A.a) % f.src.ring.p)
        try:
            out = RMap(OM, ON, solve_columns(inclN.A, GB))
        except LinAlgError:
            raise StCatError("cover lift does not preserve kernels")
    _OMEGA_MAP_CACHE[key] = out
    return out


def susp_ob(M: RModule, n: int) -> RModule:
    for _ in range(abs(n)):
        M = sigma_ob(M) if n > 0 else omega_ob(M)
    return M


def susp_map(f: RMap, n: int) -> RMap:
    for _ in range(abs(n)):
        f = sigma_map(f) if n > 0 else omega_map(f)
    return f


_UNIT_CACHE: dict[tuple, RMap] = {}
_COUNIT_CACHE: dict[tuple, RMap] = {}


def unit_iso(M: RModule) -> RMap:
    """The comparison M -> Sigma Omega M (a stable isomorphism)."""
    if M.key in _UNIT_CACHE:
        return _UNIT_CACHE[M.key]
    OM, incl, cover = omega(M)
    SOM, embO, quotO = sigma(OM)
    p = M.ring.p
    if M.dim == 0 or SOM.dim == 0:
        out = zero_map(M, SOM)
    else:
        E = _solve_exact_intertwiner(hom_basis(cover.src, embO.tgt),
                                     embO.A, compose_right=incl.A)
        out = RMap(M, SOM, quotO.A @ E.A @ right_inverse(cover.A))
    _UNIT_CACHE[M.key] = out
    return out


def counit_iso(M: RModule) -> RMap:
    """The comparison Omega Sigma M -> M: the adjoint mate of the unit.

    Defined by the triangle identity Sigma(counit_M) . unit_{Sigma M} =
    id_{Sigma M} in the stable category, which pins its stable class.
    """
    if M.key in _COUNIT_CACHE:
        return _COUNIT_CACHE[M.key]
    SM = sigma_ob(M)
    OSM = omega_ob(SM)
    space = stable_hom(OSM, M)
    tgt_space = stable_hom(SM, sigma_ob(OSM))
    u = unit_iso(SM)
    cols = [tgt_space.stable_coords(sigma_map(c) @ u)
            for c in space.quotient_basis_maps()]
    idc = np.array(stable_hom(SM, SM).stable_coords(identity_map(SM)), dtype=np.int64)
    # target of the identity lives in T(SM, SM); transport along sigma_ob(OSM)=SM
    if sigma_ob(OSM) != SM:
        raise StCatError("sigma omega sigma does not close up; unexpected")
    mat = FpMatrix(M.ring.p, np.array(cols, dtype=np.int64).T.reshape(tgt_space.sdim, space.sdim))
    sol = solve_affine(mat, idc)
    if sol is None:
        raise StCatError("no adjoint mate; comparison data inconsistent")
    out = space.from_stable_coords(sol.representative)
    _COUNIT_CACHE[M.key] = out
    return out


def sigma_omega_comparison(A: RModule, k: int) -> RMap:
    """The iterated identification Sigma^k Omega^k A -> A (stable iso)."""
    if k == 0:
        return identity_map(A)
    inner = A
    for _ in range(k - 1):
        inner = omega_ob(inner)
    u = stable_inverse(unit_iso(inner))
    if u is None:
        raise StCatError("unit comparison is not invertible")
    step = susp_map(u, k - 1)
    return sigma_omega_comparison(A, k - 1) @ step


def stable_inverse(f: RMap) -> RMap | None:
    """A two-sided stable inverse of f, or None when f is not invertible."""
    A, B = f.src, f.tgt
    S = stable_hom(B, A)
    m1 = pre_matrix(f, A)    # g -> g . f   in T(A, A)
    m2 = post_matrix(f, B)   # g -> f . g   in T(B, B)
    idA = np.array(stable_hom(A, A).stable_coords(identity_map(A)), dtype=np.int64)
    idB = np.array(stable_hom(B, B).stable_coords(identity_map(B)), dtype=np.int64)
    stacked = FpMatrix(f.src.ring.p, np.vstack([m1.a, m2.a]))
    sol = solve_affine(stacked, np.concatenate([idA, idB]))
    if sol is None:
        return None
    return S.from_stable_coords(sol.representative)


# ---------------------------------------------------------------------------
# triangles


@dataclass(frozen=True)
class Triangle:
    """A (candidate) triangle X -> Y -> Z -> Sigma X."""

    f: RMap
    g: RMap
    h: RMap
    provenance: str = "candidate"

    def __post_init__(self):
        if self.f.tgt != self.g.src or self.g.tgt != self.h.src:
            raise StCatError("triangle maps are not composable")
        if self.h.tgt != sigma_ob(self.f.src):
            raise StCatError("third map must land in the suspension of the first object")

    @property
    def objects(self):
        return (self.f.src, self.f.tgt, self.g.tgt)


_CONE_CACHE: dict[tuple, "Triangle"] = {}
_FIBER_CACHE: dict[tuple, "Triangle"] = {}


def cone_triangle(f: RMap) -> Triangle:
    """The fixed cone construction: stabilize to a monomorphism, take cokernel."""
    key = (f.src.key, f.tgt.key, f.A.a.tobytes())
    if key in _CONE_CACHE:
        return _CONE_CACHE[key]
    M, N = f.src, f.tgt
    SM, embM, quotM = sigma(M)
    E, incls, projs = direct_sum([N, embM.tgt])
    j = RMap(M, E, FpMatrix(M.ring.p,
                            np.vstack([f.A.a, embM.A.a]).reshape(E.dim, M.dim)))
    cd = CokernelData(j)
    C = cd.cokernel
    q = cd.proj @ incls[0]
    if C.dim == 0:
        h = zero_map(C, SM)
    else:
        # induce on the raw quotient (its projection has kernel exactly im j),
        # then restrict along the reduction section
        h_raw = quotM.A @ projs[1].A @ right_inverse(cd.raw_proj.A)
        h = RMap(C, SM, h_raw @ cd.red_incl.A)
    out = Triangle(f, q, h, "cone")
    _CONE_CACHE[key] = out
    return out


def fiber_triangle(f: RMap) -> Triangle:
    """The dual construction: stabilize to a surjection, take the kernel."""
    key = (f.src.key, f.tgt.key, f.A.a.tobytes())
    if key in _FIBER_CACHE:
        return _FIBER_CACHE[key]
    M, N = f.src, f.tgt
    p = M.ring.p
    if rank(f.A) == N.dim:
        e, pM = f, identity_map(M)
    else:
        _, _, cover = omega(N)
        E, incls, projs = direct_sum([M, cover.src])
        e = RMap(E, N, FpMatrix(p, np.hstack([f.A.a, cover.A.a]).reshape(N.dim, E.dim)))
        pM = projs[0]
    kd = KernelData(e)
    K = kd.kernel
    w = pM @ kd.incl
    SK, embK, quotK = sigma(K)
    if K.dim == 0 or N.dim == 0:
        d = zero_map(N, SK)
    else:
        # the extension must be pinned on the whole kernel subspace, with the
        # stripped free part mapped through the reduction
        phi = _solve_exact_intertwiner(hom_basis(e.src, embK.tgt),
                                       FpMatrix(M.ring.p, (embK.A.a @ kd.reduction.a) % p),
                                       compose_right=kd.raw_basis)
        d = RMap(N, SK, quotK.A @ phi.A @ right_inverse(e.A))
    out = Triangle(w, f, d, "fiber")
    _FIBER_CACHE[key] = out
    return out


def rotate(t: Triangle) -> Triangle:
    return Triangle(t.g, t.h, -sigma_map(t.f), "rotation")


def rotate_back(t: Triangle) -> Triangle:
    X, _, Z = t.objects
    a = -(counit_iso(X) @ omega_map(t.h))
    c = unit_iso(Z) @ t.g
    return Triangle(a, t.f, c, "rotation")


def rotate_steps(t: Triangle, steps: int) -> Triangle:
    for _ in range(abs(steps)):
        t = rotate(t) if steps > 0 else rotate_back(t)
    return t


def is_stable_iso(f: RMap) -> bool:
    """True iff the cone of f is stably zero."""
    return cone_triangle(f).g.tgt.dim == 0


def triangles_stably_equal(s: Triangle, t: Triangle) -> bool:
    return (stably_equal(s.f, t.f) and stably_equal(s.g, t.g)
            and stably_equal(s.h, t.h))


def is_distinguished(t: Triangle, cap: int = 4096) -> bool:
    """Ground truth by explicit comparison with the cone construction.

    Searches for a filler phi: C_f -> Z commuting with both squares and
    checks whether some filler is a stable isomorphism.
    """
    ct = cone_triangle(t.f)
    C = ct.g.tgt
    Z = t.g.tgt
    space = stable_hom(C, Z)
    SX = sigma_ob(t.f.src)
    p = t.f.src.ring.p
    m1 = pre_matrix(ct.g, Z)   # phi -> phi . q     in T(Y, Z)
    m2 = post_matrix(t.h, C)   # phi -> h . phi     in T(C, SX)
    rhs = np.concatenate([
        np.array(stable_hom(ct.g.src, Z).stable_coords(t.g), dtype=np.int64),
        np.array(stable_hom(C, SX).stable_coords(ct.h), dtype=np.int64),
    ])
    stacked = FpMatrix(p, np.vstack([m1.a, m2.a]))
    sols = solve_affine(stacked, rhs)
    if sols is None:
        return False
    for v in enumerate_points(sols, cap):
        phi = space.from_stable_coords(v)
        if is_stable_iso(phi):
            return True
    return False


# ---------------------------------------------------------------------------
# computation contexts: the category and its opposite


class DirectContext:
    """The stable module category itself."""

    name = "direct"

    def src(self, f: RMap) -> RModule:
        return f.src

    def tgt(self, f: RMap) -> RModule:
        return f.tgt

    def hom(self, A: RModule, B: RModule) -> StableHomSpace:
        return stable_hom(A, B)

    def coords(self, f: RMap) -> tuple[int, ...]:
        return stable_hom(f.src, f.tgt).stable_coords(f)

    def compose(self, g: RMap, f: RMap) -> RMap:
        return g @ f

    def identity(self, A: RModule) -> RMap:
        return identity_map(A)

    def zero(self, A: RModule, B: RModule) -> RMap:
        return zero_map(A, B)

    def negate(self, f: RMap) -> RMap:
        return -f

    def is_zero(self, f: RMap) -> bool:
        return is_stably_zero(f)

    def eq(self, f: RMap, g: RMap) -> bool:
        return stably_equal(f, g)

    def sigma_ob(self, A: RModule) -> RModule:
        return sigma_ob(A)

    def sigma_map(self, f: RMap) -> RMap:
        return sigma_map(f)

    def cone(self, f: RMap) -> tuple[RModule, RMap, RMap]:
        t = cone_triangle(f)
        return t.g.tgt, t.g, t.h

    def sigma_inv_ob(self, A: RModule) -> RModule:
        return omega_ob(A)

    def fiber(self, f: RMap) -> tuple[RModule, RMap, RMap]:
        """(F, u, v) with a distinguished row SigmaInv(tgt f) -> F -> src f -> tgt f."""
        ft = fiber_triangle(f)
        tb = rotate_back(ft)
        return ft.f.src, tb.f, ft.f

    def unit_inverse(self, A: RModule) -> RMap:
        """The identification Sigma(SigmaInv A) -> A."""
        if A.key not in _UNIT_INV_CACHE:
            inv = stable_inverse(unit_iso(A))
            if inv is None:
                raise StCatError("unit comparison is not a stable isomorphism")
            _UNIT_INV_CACHE[A.key] = inv
        return _UNIT_INV_CACHE[A.key]

    def post_matrix(self, g: RMap, A: RModule) -> FpMatrix:
        return post_matrix(g, A)

    def pre_matrix(self, f: RMap, C: RModule) -> FpMatrix:
        return pre_matrix(f, C)

    def is_distinguished(self, a: RMap, b: RMap, c: RMap) -> bool:
        return is_distinguished(Triangle(a, b, c))

    def solve_post(self, g: RMap, target: RMap) -> AffineSpace | None:
        return solve_post(g, target)

    def solve_pre(self, f: RMap, target: RMap) -> AffineSpace | None:
        return solve_pre(f, target)

    def classes(self, A: RModule, B: RModule, sols: AffineSpace,
                cap: int = 4096) -> list[RMap]:
        return classes_from_affine(stable_hom(A, B), sols, cap)

    def make(self, A: RModule, B: RModule, coords) -> RMap:
        return stable_hom(A, B).from_stable_coords(coords)


_UNIT_INV_CACHE: dict[tuple, RMap] = {}
_COUNIT_INV_CACHE: dict[tuple, RMap] = {}


class OpContext:
    """The opposite category; a map A -> B is stored as its underlying B -> A."""

    name = "op"

    def src(self, f: RMap) -> RModule:
        return f.tgt

    def tgt(self, f: RMap) -> RModule:
        return f.src

    def hom(self, A: RModule, B: RModule) -> StableHomSpace:
        return stable_hom(B, A)

    def coords(self, f: RMap) -> tuple[int, ...]:
        return stable_hom(f.src, f.tgt).stable_coords(f)

    def compose(self, g: RMap, f: RMap) -> RMap:
        return f @ g

    def identity(self, A: RModule) -> RMap:
        return identity_map(A)

    def zero(self, A: RModule, B: RModule) -> RMap:
        return zero_map(B, A)

    def negate(self, f: RMap) -> RMap:
        return -f

    def is_zero(self, f: RMap) -> bool:
        return is_stably_zero(f)

    def eq(self, f: RMap, g: RMap) -> bool:
        return stably_equal(f, g)

    def sigma_ob(self, A: RModule) -> RModule:
        return omega_ob(A)

    def sigma_map(self, f: RMap) -> RMap:
        return omega_map(f)

    def cone(self, f: RMap) -> tuple[RModule, RMap, RMap]:
        # the opposite cone of f is the fiber of the underlying map,
        # with the rotated-back connecting map
        t = rotate_back(fiber_triangle(f))
        return t.f.tgt, t.g, t.f

    def sigma_inv_ob(self, A: RModule) -> RModule:
        return sigma_ob(A)

    def fiber(self, f: RMap) -> tuple[RModule, RMap, RMap]:
        # the opposite fiber of f is the cone of the underlying map
        t = cone_triangle(f)
        return t.g.tgt, t.h, t.g

    def unit_inverse(self, A: RModule) -> RMap:
        if A.key not in _COUNIT_INV_CACHE:
            inv = stable_inverse(counit_iso(A))
            if inv is None:
                raise StCatError("counit comparison is not a stable isomorphism")
            _COUNIT_INV_CACHE[A.key] = inv
        return _COUNIT_INV_CACHE[A.key]

    def post_matrix(self, g: RMap, A: RModule) -> FpMatrix:
        return pre_matrix(g, A)

    def pre_matrix(self, f: RMap, C: RModule) -> FpMatrix:
        return post_matrix(f, C)

    def is_distinguished(self, a: RMap, b: RMap, c: RMap) -> bool:
        # reversal rule: the underlying triangle, read backwards and
        # rotated through the comparison, must be distinguished
        A = self.src(a)
        return is_distinguished(Triangle(c, b, unit_iso(A) @ a))

    def solve_post(self, g: RMap, target: RMap) -> AffineSpace | None:
        return solve_pre(g, target)

    def solve_pre(self, f: RMap, target: RMap) -> AffineSpace | None:
        return solve_post(f, target)

    def classes(self, A: RModule, B: RModule, sols: AffineSpace,
                cap: int = 4096) -> list[RMap]:
        return classes_from_affine(stable_hom(B, A), sols, cap)

    def make(self, A: RModule, B: RModule, coords) -> RMap:
        return stable_hom(B, A).from_stable_coords(coords)


DIRECT = DirectContext()
OP = OpContext()
