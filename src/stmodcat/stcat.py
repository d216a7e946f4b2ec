"""The stable module category as a triangulated category.

Hom groups are taken modulo maps factoring through a projective; between
canonical layouts their coordinates are read off, with no elimination.  The
triangulation is fixed once and for all: the cone of f: M -> N is the
cokernel of the stabilized monomorphism (f, emb): M -> N + I(M), with
the connecting map induced by the projection onto I(M)/M; the fiber is
the dual kernel construction through the projective cover.  Rotation
introduces a sign on the suspended map.

Suspension is a strict construction (sigma/omega from modrep), so the
comparison isomorphisms Sigma Omega = id and Omega Sigma = id are stored
explicitly (the unit and the counit, its adjoint mate) and every
degree-shifting identification routes through them.  These two, Sigma and
Omega of maps, and the fiber's connecting map are each induced through a
free module by one column solve: a lift out of R^r is fixed by its values
at the generators (`_kernel_map`), and an extension into R^r, R being
Frobenius, by its x^{m-1} coefficient functionals (`_cokernel_map`).

Two computation contexts share this machinery: the direct category and
the opposite category.  `OpContext` subclasses `DirectContext` and
overrides only the dualised operations (arrows reversed, sigma and
omega swapped, cone and fiber swapped, pre- and post-composition
swapped, unit and counit swapped); the one-sided solves are written
once against those primitives and inherited.  So bracket code is
written once against the context interface and read in either category.

Memoized constructions go through `modrep.memo`, keyed by the `key` of
their module and map arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    AffineSpace,
    DimensionMismatch,
    FpMatrix,
    LinAlgError,
    as_array,
    enumerate_points,
    quotient,
    rank,
    right_inverse,
    rref,
    solve_affine,
    solve_columns,
)
from .modrep import (
    KernelData,
    CokernelData,
    RMap,
    RModule,
    RingMismatch,
    _hom_blocks,
    direct_sum,
    hom_basis,
    identity_map,
    memo,
    omega,
    partition_layout,
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
    projectively-trivial subspace inside the hom basis, read as the rows of
    the flattened `hom_basis` array, so every stable class has one canonical
    coordinate vector.  Between canonical layouts both eliminations are
    selections, equal entry for entry: basis map mu(x^j): R/x^a -> R/x^b
    alone is nonzero at its first flat entry (so the flat rows are reduced
    up to row order), and it is projectively trivial (through R/x^a -> R,
    1 -> x^(m-a)) exactly when j >= m - a.  Both directions are one product
    on a whole stack: `lifts` of coordinate rows, `coords_of` of matrices.
    """

    __slots__ = ("src", "tgt", "sdim", "p", "_solve_T", "_stable_T", "_lift")

    def __init__(self, M: RModule, N: RModule):
        if M.ring != N.ring:
            raise RingMismatch("stable hom between different rings")
        p = M.ring.p
        H = hom_basis(M, N)
        h, n = len(H), M.dim * N.dim
        flat = H.reshape(h, n)
        object.__setattr__(self, "src", M)
        object.__setattr__(self, "tgt", N)
        object.__setattr__(self, "p", p)
        sparts, tparts = partition_layout(M), partition_layout(N)
        if sparts is not None and tparts is not None:
            blocks = _hom_blocks(sparts, tparts)
            T = np.zeros((h, n), dtype=np.int64)
            T[range(h), [(r + j) * M.dim + c for r, c, _, _, j in blocks]] = 1
            free = [k for k, (_, _, a, _, j) in enumerate(blocks) if j < M.ring.m - a]
            object.__setattr__(self, "_solve_T", FpMatrix(p, T))
            object.__setattr__(self, "_stable_T", FpMatrix(p, T[free]))
        else:
            # precompute a solver for coordinates in the hom basis:
            # rref([flat | I_h]) = [E flat | E] with (E flat)[:, piv] = I_h, so a
            # combination v = c flat has c = v[piv] E; _solve_T applies that.
            aug = FpMatrix(p, np.hstack([flat, np.eye(h, dtype=np.int64)]))
            R, piv = rref(aug)
            if len([j for j in piv if j < n]) != h:
                raise StCatError("hom basis is not independent")
            T = np.zeros((h, n), dtype=np.int64)
            T[:, piv] = R.a[:, n:].T
            object.__setattr__(self, "_solve_T", FpMatrix(p, T))
            # maps factoring through a projective = maps lifting along the cover of N
            _, _, cover = omega(N)
            lifted = (cover.A.a @ hom_basis(M, cover.src)) % p
            # stable coordinates: hom coordinates, then their class modulo those;
            # a class lifts to the combination of the basis maps at the free columns
            Q, free = quotient(FpMatrix(p, lifted.reshape(len(lifted), n) @ T.T))
            object.__setattr__(self, "_stable_T", Q @ self._solve_T)
        object.__setattr__(self, "_lift", flat[free].reshape(len(free), n))
        object.__setattr__(self, "sdim", len(free))

    def __setattr__(self, *args):
        raise AttributeError("StableHomSpace is immutable")

    def _entries(self, f) -> np.ndarray:
        """The flat entries of a matrix, or of a map checked to live here."""
        if isinstance(f, RMap):
            if not ((f.src is self.src or f.src == self.src)
                    and (f.tgt is self.tgt or f.tgt == self.tgt)):
                raise StCatError("map does not live in this hom space")
            f = f.A
        return f.a.reshape(-1)

    def hom_coords(self, f) -> np.ndarray:
        return self._solve_T.apply(self._entries(f))

    def stable_coords(self, f) -> tuple[int, ...]:
        return tuple(int(x) for x in self._stable_T.apply(self._entries(f)))

    def lifts(self, coords=None) -> np.ndarray:
        """(k, dim N, dim M) representatives of the classes whose stable
        coordinates are the rows of coords (by default the quotient basis)."""
        c = as_array(np.eye(self.sdim, dtype=np.int64) if coords is None else coords, self.p)
        if c.ndim != 2 or c.shape[1] != self.sdim:
            raise DimensionMismatch(f"coordinates of shape {c.shape}, expected length {self.sdim}")
        return ((c @ self._lift) % self.p).reshape(len(c), self.tgt.dim, self.src.dim)

    def coords_of(self, mats: np.ndarray) -> np.ndarray:
        """The (..., sdim) stable coordinates of a (..., dim N, dim M) stack
        of matrices, which are not checked to be R-linear."""
        flat = mats.reshape(mats.shape[:-2] + (self.src.dim * self.tgt.dim,)) % self.p
        return (flat @ self._stable_T.a.T) % self.p

    def from_stable_coords(self, coords) -> RMap:
        A = FpMatrix._of(self.p, self.lifts([coords])[0])  # lifts reduces coords mod p
        return RMap(self.src, self.tgt, A, check=False)

    def quotient_basis_maps(self) -> list[RMap]:
        return [self.from_stable_coords(e) for e in np.eye(self.sdim, dtype=np.int64)]

    def matrix_to(self, T: "StableHomSpace", fn) -> FpMatrix:
        """The matrix, in stable coordinates, of a linear map fn from here to T."""
        cols = [T.stable_coords(fn(u)) for u in self.quotient_basis_maps()]
        return FpMatrix(self.p, np.array(cols, dtype=np.int64).T.reshape(T.sdim, self.sdim))

    def zero(self) -> RMap:
        return zero_map(self.src, self.tgt)


@memo
def stable_hom(M: RModule, N: RModule) -> StableHomSpace:
    return StableHomSpace(M, N)


def stable_coords(f: RMap) -> tuple[int, ...]:
    return stable_hom(f.src, f.tgt).stable_coords(f)


def is_stably_zero(f: RMap) -> bool:
    return not any(stable_coords(f))


def stably_equal(f: RMap, g: RMap) -> bool:
    if f.src != g.src or f.tgt != g.tgt:
        raise StCatError("maps have different (co)domains")
    return is_stably_zero(f - g)


# ---------------------------------------------------------------------------
# composition operators and affine solving inside stable homs


@memo
def post_matrix(g: RMap, A: RModule) -> FpMatrix:
    """Matrix of g . (-) : T(A, src g) -> T(A, tgt g) in stable coordinates,
    from one product of g with the stacked basis lifts of T(A, src g)."""
    T = stable_hom(A, g.tgt)
    return FpMatrix._of(g.A.p, T.coords_of(g.A.a @ stable_hom(A, g.src).lifts()).T)


@memo
def pre_matrix(f: RMap, C: RModule) -> FpMatrix:
    """Matrix of (-) . f : T(tgt f, C) -> T(src f, C) in stable coordinates,
    from one product of the stacked basis lifts of T(tgt f, C) with f."""
    T = stable_hom(f.src, C)
    return FpMatrix._of(f.A.p, T.coords_of(stable_hom(f.tgt, C).lifts() @ f.A.a).T)


def solve_pre_post(f: RMap, a: RMap, g: RMap, b: RMap) -> AffineSpace | None:
    """All stable classes u: tgt f -> src g with u . f = a and g . u = b."""
    if not (a.src == f.src and a.tgt == g.src and b.src == f.tgt and b.tgt == g.tgt):
        raise StCatError("targets do not fit the two-sided system")
    mat = np.vstack([pre_matrix(f, g.src).a, post_matrix(g, f.tgt).a])
    rhs = np.array(stable_coords(a) + stable_coords(b), dtype=np.int64)
    return solve_affine(FpMatrix._of(f.src.ring.p, mat), rhs)


# ---------------------------------------------------------------------------
# suspension of maps and the comparison isomorphisms


def _through_free(A: FpMatrix, B: np.ndarray, Y: np.ndarray, m: int) -> np.ndarray:
    """The (n, r, m) stack of Y^e V[:, t] at [:, t, e], for some V with A V = B."""
    try:
        out = [solve_columns(A, FpMatrix._of(A.p, B)).a]
    except LinAlgError:
        raise StCatError("no exact intertwiner; construction is inconsistent")
    for _ in range(m - 1):
        out.append(Y @ out[-1] % A.p)
    return np.stack(out, axis=2)


def _cokernel_map(i: FpMatrix, rhs: FpMatrix, c: RMap, q: RMap) -> RMap:
    """The map tgt c -> tgt q induced by q . F, for some F: src c -> src q
    extending rhs along the mono i (F . i = rhs); c is onto with kernel
    im i, so the induced map is q . F . c^-1.  src q = R^r and R is Frobenius,
    so row t m + s of F is L_t X^{m-1-s}, with L_t . i = rhs[t m + m-1]."""
    if c.tgt.dim == 0 or q.tgt.dim == 0:
        return zero_map(c.tgt, q.tgt)
    m = q.src.ring.m
    L = _through_free(i.transpose(), rhs.a[m - 1::m].T, c.src.X.a.T, m)
    F = FpMatrix._of(i.p, L[:, :, ::-1].reshape(c.src.dim, q.src.dim).T)
    return RMap(c.tgt, q.tgt, q.A @ F @ right_inverse(c.A))


def _kernel_map(c: RMap, rhs: FpMatrix, j: RMap, k: RMap) -> RMap:
    """The map src j -> src k restricting some G: tgt j -> src c that
    lifts rhs through the epi c (c . G = rhs); k is the kernel inclusion
    of c, so G . j lands in its image.  As tgt j = R^r, G is fixed by its
    generator columns t m, one column solve; column t m + e is X^e times it."""
    if j.src.dim == 0 or k.src.dim == 0:
        return zero_map(j.src, k.src)
    m = j.tgt.ring.m
    G = _through_free(c.A, rhs.a[:, ::m], c.src.X.a, m).reshape(c.src.dim, j.tgt.dim)
    try:
        return RMap(j.src, k.src, solve_columns(k.A, FpMatrix._of(c.A.p, G) @ j.A))
    except LinAlgError:
        raise StCatError("lift does not preserve kernels")


def sigma_ob(M: RModule) -> RModule:
    return sigma(M)[0]


def omega_ob(M: RModule) -> RModule:
    return omega(M)[0]


@memo
def sigma_map(f: RMap) -> RMap:
    """Suspend a map through the chosen injective envelopes."""
    _, embM, quotM = sigma(f.src)
    _, embN, quotN = sigma(f.tgt)
    return _cokernel_map(embM.A, embN.A @ f.A, quotM, quotN)


@memo
def omega_map(f: RMap) -> RMap:
    """Desuspend a map through the chosen projective covers."""
    _, inclM, covM = omega(f.src)
    _, inclN, covN = omega(f.tgt)
    return _kernel_map(covN, f.A @ covM.A, inclM, inclN)


def susp_ob(M: RModule, n: int) -> RModule:
    for _ in range(abs(n)):
        M = sigma_ob(M) if n > 0 else omega_ob(M)
    return M


def susp_map(f: RMap, n: int) -> RMap:
    for _ in range(abs(n)):
        f = sigma_map(f) if n > 0 else omega_map(f)
    return f


@memo
def unit_iso(M: RModule) -> RMap:
    """The comparison M -> Sigma Omega M (a stable isomorphism)."""
    OM, incl, cover = omega(M)
    _, embO, quotO = sigma(OM)
    return _cokernel_map(incl.A, embO.A, cover, quotO)


@memo
def counit_iso(M: RModule) -> RMap:
    """The comparison Omega Sigma M -> M, built as the unit's dual: the
    cover of Sigma M lifted through the envelope quotient I(M) -> Sigma M,
    restricted to Omega Sigma M -> M.  It is the unit's adjoint mate
    (Sigma(counit_M) . unit_{Sigma M} = id_{Sigma M}), returned as the
    canonical representative of its stable class."""
    SM, emb, quot = sigma(M)
    _, incl, cover = omega(SM)
    c = _kernel_map(quot, cover.A, incl, emb)
    return stable_hom(c.src, M).from_stable_coords(stable_coords(c))


def stable_inverse(f: RMap) -> RMap | None:
    """A two-sided stable inverse of f, or None when f is not invertible."""
    sol = solve_pre_post(f, identity_map(f.src), f, identity_map(f.tgt))
    if sol is None:
        return None
    return stable_hom(f.tgt, f.src).from_stable_coords(sol.representative)


@memo
def _comparison_inverse(f: RMap) -> RMap:
    """The stable inverse of a comparison isomorphism (unit or counit)."""
    inv = stable_inverse(f)
    if inv is None:
        raise StCatError("comparison is not a stable isomorphism")
    return inv


def sigma_omega_comparison(A: RModule, k: int) -> RMap:
    """The iterated identification Sigma^k Omega^k A -> A (stable iso)."""
    if k < 0:
        raise StCatError(f"no comparison Sigma^k Omega^k A -> A for k = {k} < 0")
    if k == 0:
        return identity_map(A)
    step = susp_map(_comparison_inverse(unit_iso(susp_ob(A, 1 - k))), k - 1)
    return sigma_omega_comparison(A, k - 1) @ step


# ---------------------------------------------------------------------------
# triangles


@dataclass(frozen=True)
class Triangle:
    """A (candidate) triangle X -> Y -> Z -> Sigma X."""

    f: RMap
    g: RMap
    h: RMap

    def __post_init__(self):
        if self.f.tgt != self.g.src or self.g.tgt != self.h.src:
            raise StCatError("triangle maps are not composable")
        if self.h.tgt != sigma_ob(self.f.src):
            raise StCatError("third map must land in the suspension of the first object")

    @property
    def objects(self):
        return (self.f.src, self.f.tgt, self.g.tgt)


@memo
def cone_triangle(f: RMap) -> Triangle:
    """The fixed cone construction: stabilize to a monomorphism, take cokernel."""
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
    return Triangle(f, q, h)


@memo
def fiber_triangle(f: RMap) -> Triangle:
    """The dual construction: stabilize to a surjection, take the kernel."""
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
    _, embK, quotK = sigma(K)
    # the extension must be pinned on the whole kernel subspace, with the
    # stripped free part mapped through the reduction
    d = _cokernel_map(kd.raw_basis, embK.A @ kd.reduction, e, quotK)
    return Triangle(w, f, d)


def rotate(t: Triangle) -> Triangle:
    return Triangle(t.g, t.h, -sigma_map(t.f))


def rotate_back(t: Triangle) -> Triangle:
    X, _, Z = t.objects
    a = -(counit_iso(X) @ omega_map(t.h))
    c = unit_iso(Z) @ t.g
    return Triangle(a, t.f, c)


def rotate_steps(t: Triangle, steps: int) -> Triangle:
    for _ in range(abs(steps)):
        t = rotate(t) if steps > 0 else rotate_back(t)
    return t


def is_stable_iso(f: RMap) -> bool:
    """True iff the cone of f is stably zero."""
    return cone_triangle(f).g.tgt.dim == 0


def is_distinguished(t: Triangle, cap: int = 4096) -> bool:
    """Ground truth by explicit comparison with the cone construction.

    Searches for a filler phi: C_f -> Z commuting with both squares and
    checks whether some filler is a stable isomorphism.
    """
    ct = cone_triangle(t.f)
    space = stable_hom(ct.g.tgt, t.g.tgt)
    # fillers phi . q = g and h . phi = iota, with q, iota the cone's maps
    sols = solve_pre_post(ct.g, t.g, t.h, ct.h)
    if sols is None:
        return False
    return any(is_stable_iso(space.from_stable_coords(v)) for v in enumerate_points(sols, cap))


# ---------------------------------------------------------------------------
# computation contexts: the category and its opposite


class DirectContext:
    """The stable module category itself.

    Methods call the module-level constructions by their global names,
    so a wrapper installed on a module name sees every call.
    """

    name = "direct"

    def src(self, f: RMap) -> RModule:
        return f.src

    def tgt(self, f: RMap) -> RModule:
        return f.tgt

    def hom(self, A: RModule, B: RModule) -> StableHomSpace:
        return stable_hom(A, B)

    def compose(self, g: RMap, f: RMap) -> RMap:
        return g @ f

    def sigma_ob(self, A: RModule) -> RModule:
        return sigma_ob(A)

    def sigma_map(self, f: RMap) -> RMap:
        return sigma_map(f)

    def sigma_inv_ob(self, A: RModule) -> RModule:
        return omega_ob(A)

    def cone(self, f: RMap) -> tuple[RModule, RMap, RMap]:
        """(C, q, iota) with a distinguished row src f -> tgt f -> C -> Sigma(src f)."""
        t = cone_triangle(f)
        return t.g.tgt, t.g, t.h

    def fiber(self, f: RMap) -> tuple[RModule, RMap, RMap]:
        """(F, u, v) with a distinguished row SigmaInv(tgt f) -> F -> src f -> tgt f."""
        ft = fiber_triangle(f)
        tb = rotate_back(ft)
        return ft.f.src, tb.f, ft.f

    def unit_inverse(self, A: RModule) -> RMap:
        """The identification Sigma(SigmaInv A) -> A."""
        return _comparison_inverse(unit_iso(A))

    def post_matrix(self, g: RMap, A: RModule) -> FpMatrix:
        return post_matrix(g, A)

    def pre_matrix(self, f: RMap, C: RModule) -> FpMatrix:
        return pre_matrix(f, C)

    def solve_post(self, g: RMap, target: RMap) -> AffineSpace | None:
        """All classes u with g . u = target; None when no lift exists."""
        if self.tgt(target) != self.tgt(g):
            raise StCatError("target does not land in the codomain of g")
        A = self.src(target)
        coords = self.hom(A, self.tgt(g)).stable_coords(target)
        return solve_affine(self.post_matrix(g, A), np.array(coords, dtype=np.int64))

    def solve_pre(self, f: RMap, target: RMap) -> AffineSpace | None:
        """All classes u with u . f = target; None when no extension exists."""
        if self.src(target) != self.src(f):
            raise StCatError("target does not start at the domain of f")
        C = self.tgt(target)
        coords = self.hom(self.src(f), C).stable_coords(target)
        return solve_affine(self.pre_matrix(f, C), np.array(coords, dtype=np.int64))

    def solve_pre_post(self, f: RMap, a: RMap, g: RMap, b: RMap) -> AffineSpace | None:
        """All classes u with u . f = a and g . u = b."""
        return solve_pre_post(f, a, g, b)

    def is_distinguished(self, a: RMap, b: RMap, c: RMap) -> bool:
        return is_distinguished(Triangle(a, b, c))

    def classes(self, A: RModule, B: RModule, sols: AffineSpace) -> list[RMap]:
        """One representative per stable class in a bounded affine solution set."""
        return list(map(self.hom(A, B).from_stable_coords, sols.points()))

    def make(self, A: RModule, B: RModule, coords) -> RMap:
        return self.hom(A, B).from_stable_coords(coords)


class OpContext(DirectContext):
    """The opposite category; a map A -> B is stored as its underlying B -> A."""

    name = "op"

    def src(self, f: RMap) -> RModule:
        return f.tgt

    def tgt(self, f: RMap) -> RModule:
        return f.src

    def hom(self, A: RModule, B: RModule) -> StableHomSpace:
        return stable_hom(B, A)

    def compose(self, g: RMap, f: RMap) -> RMap:
        return f @ g

    def sigma_ob(self, A: RModule) -> RModule:
        return omega_ob(A)

    def sigma_map(self, f: RMap) -> RMap:
        return omega_map(f)

    def sigma_inv_ob(self, A: RModule) -> RModule:
        return sigma_ob(A)

    def cone(self, f: RMap) -> tuple[RModule, RMap, RMap]:
        # the opposite cone of f is the fiber of the underlying map
        F, u, v = super().fiber(f)
        return F, v, u

    def fiber(self, f: RMap) -> tuple[RModule, RMap, RMap]:
        # the opposite fiber of f is the cone of the underlying map
        C, q, iota = super().cone(f)
        return C, iota, q

    def unit_inverse(self, A: RModule) -> RMap:
        return _comparison_inverse(counit_iso(A))

    def post_matrix(self, g: RMap, A: RModule) -> FpMatrix:
        return pre_matrix(g, A)

    def pre_matrix(self, f: RMap, C: RModule) -> FpMatrix:
        return post_matrix(f, C)

    def solve_pre_post(self, f: RMap, a: RMap, g: RMap, b: RMap) -> AffineSpace | None:
        return solve_pre_post(g, b, f, a)

    def is_distinguished(self, a: RMap, b: RMap, c: RMap) -> bool:
        # reversal rule: the underlying triangle, read backwards and
        # rotated through the comparison, must be distinguished
        return is_distinguished(Triangle(c, b, unit_iso(self.src(a)) @ a))


DIRECT = DirectContext()
OP = OpContext()
