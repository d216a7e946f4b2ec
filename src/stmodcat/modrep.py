"""Finite-dimensional modules over R = F_p[x]/x^m and R-linear maps.

A module is a vector space with a nilpotent operator X (the action of
x); maps are matrices intertwining the operators.  Partitions of block
sizes classify modules up to isomorphism, so Jordan chain bases drive
everything structural: isomorphism tests, projective covers (free on
the chain tops), injective envelopes (each length-l chain embeds in R
by multiplication by x^{m-l}), and the syzygy operators omega and
sigma.

Kernel and cokernel constructions return modules in reduced canonical
form (Jordan blocks sorted descending, free blocks stripped) together
with the comparison maps, so repeated constructions stay at desk scale
and equal shapes share caches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DimensionMismatch,
    Echelon,
    FpMatrix,
    LinAlgError,
    is_prime,
    nullspace,
    rank,
    rref,
    solve_columns,
)


class ModRepError(Exception):
    pass


class RingMismatch(ModRepError):
    pass


class NotRLinear(ModRepError):
    pass


@dataclass(frozen=True)
class Ring:
    """R = F_p[x]/x^m."""

    p: int
    m: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ModRepError(f"{self.p} is not prime")
        if self.m < 1:
            raise ModRepError("truncation exponent must be >= 1")


class RModule:
    """A module over Ring, stored as the nilpotent action matrix X."""

    __slots__ = ("ring", "dim", "X", "key")

    def __init__(self, ring: Ring, X: FpMatrix):
        if X.p != ring.p:
            raise RingMismatch("matrix modulus differs from ring characteristic")
        if X.rows != X.cols:
            raise ModRepError("action matrix must be square")
        if not X.power(ring.m).is_zero():
            raise ModRepError(f"x^{ring.m} does not act as zero")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "dim", X.rows)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "key", (ring.p, ring.m, X.rows, X.a.tobytes()))

    def __setattr__(self, *args):
        raise AttributeError("RModule is immutable")

    def __eq__(self, other):
        return isinstance(other, RModule) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"RModule(p={self.ring.p}, m={self.ring.m}, type={list(jordan_type(self))})"


class RMap:
    """An R-linear map, i.e. a matrix A with A X_src = X_tgt A."""

    __slots__ = ("src", "tgt", "A")

    def __init__(self, src: RModule, tgt: RModule, A: FpMatrix, check: bool = True):
        if src.ring != tgt.ring:
            raise RingMismatch("source and target over different rings")
        if A.rows != tgt.dim or A.cols != src.dim:
            raise DimensionMismatch(
                f"matrix is {A.rows}x{A.cols}, expected {tgt.dim}x{src.dim}")
        if check and not (A @ src.X) == (tgt.X @ A):
            raise NotRLinear("matrix does not commute with the x-action")
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "tgt", tgt)
        object.__setattr__(self, "A", A)

    def __setattr__(self, *args):
        raise AttributeError("RMap is immutable")

    def __matmul__(self, other: "RMap") -> "RMap":
        if other.tgt != self.src:
            raise ModRepError("maps are not composable")
        return RMap(other.src, self.tgt, self.A @ other.A, check=False)

    def __add__(self, other: "RMap") -> "RMap":
        if self.src != other.src or self.tgt != other.tgt:
            raise ModRepError("maps have different shapes")
        return RMap(self.src, self.tgt, self.A + other.A, check=False)

    def __sub__(self, other: "RMap") -> "RMap":
        return self + (-other)

    def __neg__(self) -> "RMap":
        return RMap(self.src, self.tgt, -self.A, check=False)

    def scale(self, c: int) -> "RMap":
        return RMap(self.src, self.tgt, self.A.scale(c), check=False)

    def is_zero(self) -> bool:
        return self.A.is_zero()

    def __eq__(self, other):
        return (isinstance(other, RMap) and self.src == other.src
                and self.tgt == other.tgt and self.A == other.A)

    def __hash__(self):
        return hash((self.src, self.tgt, self.A))

    def __repr__(self):
        return f"RMap({self.A.a.tolist()})"


def identity_map(M: RModule) -> RMap:
    return RMap(M, M, FpMatrix.identity(M.ring.p, M.dim), check=False)


def zero_map(M: RModule, N: RModule) -> RMap:
    return RMap(M, N, FpMatrix.zeros(M.ring.p, N.dim, M.dim), check=False)


def zero_module(ring: Ring) -> RModule:
    return RModule(ring, FpMatrix.zeros(ring.p, 0, 0))


def module_from_partition(ring: Ring, parts) -> RModule:
    """Block-diagonal module with one lower-shift Jordan block per part."""
    parts = list(parts)
    for l in parts:
        if not 1 <= l <= ring.m:
            raise ModRepError(f"part {l} outside [1, {ring.m}]")
    n = sum(parts)
    X = np.zeros((n, n), dtype=np.int64)
    off = 0
    for l in parts:
        for i in range(l - 1):
            X[off + i + 1, off + i] = 1
        off += l
    return RModule(ring, FpMatrix(ring.p, X))


def free_module(ring: Ring, rank_: int) -> RModule:
    return module_from_partition(ring, [ring.m] * rank_)


def jordan_type(M: RModule) -> tuple[int, ...]:
    """Multiset of block sizes, sorted descending, from ranks of powers."""
    ranks = []
    P = FpMatrix.identity(M.ring.p, M.dim)
    for _ in range(M.ring.m + 1):
        ranks.append(rank(P))
        P = P @ M.X
    # blocks of size >= j: rank(X^{j-1}) - rank(X^j); exact size j by differencing
    ranks.append(ranks[-1])
    parts = []
    for j in range(1, M.ring.m + 1):
        count = (ranks[j - 1] - ranks[j]) - (ranks[j] - ranks[j + 1])
        parts.extend([j] * count)
    return tuple(sorted(parts, reverse=True))


def jordan_chains(M: RModule) -> list[list[np.ndarray]]:
    """A Jordan chain basis: chains [v, Xv, ..., X^{l-1}v], lengths descending.

    Deterministic: chain tops are chosen greedily from the canonical
    kernel bases of the powers of X, tallest chains first.
    """
    p, n = M.ring.p, M.dim
    if n == 0:
        return []
    powers = [FpMatrix.identity(p, n)]
    for _ in range(M.ring.m):
        powers.append(powers[-1] @ M.X)
    hmax = next(h for h in range(M.ring.m + 1) if powers[h].is_zero())
    kernels = [nullspace(powers[h]) for h in range(hmax + 1)]

    chains: list[list[np.ndarray]] = []
    for h in range(hmax, 0, -1):
        span = Echelon(p, n)
        for row in kernels[h - 1].a:
            span.add(row)
        for chain in chains:  # all have length > h here
            span.add(chain[len(chain) - h])
        for v in kernels[h].a:
            if span.add(v):
                chain = [v % p]
                for _ in range(h - 1):
                    chain.append(M.X.apply(chain[-1]))
                chains.append(chain)
    return chains


def _invert(C: FpMatrix) -> FpMatrix:
    n = C.rows
    aug = FpMatrix(C.p, np.hstack([C.a, np.eye(n, dtype=np.int64)]))
    R, pivots = rref(aug)
    if pivots != list(range(n)):
        raise LinAlgError("matrix is singular")
    return FpMatrix(C.p, R.a[:, n:])


def canonical_form(M: RModule) -> tuple[RModule, RMap, RMap]:
    """(canonical module, iso M -> canon, inverse iso)."""
    chains = jordan_chains(M)
    parts = [len(c) for c in chains]
    canon = module_from_partition(M.ring, parts)
    if M.dim == 0:
        z = identity_map(M)
        return canon, z, z
    cols = [v for chain in chains for v in chain]
    C = FpMatrix(M.ring.p, np.array(cols, dtype=np.int64).T)
    Cinv = _invert(C)
    return canon, RMap(M, canon, Cinv), RMap(canon, M, C)


def reduce_module(M: RModule) -> tuple[RModule, RMap, RMap]:
    """Strip free summands: (M_red canonical, proj: M -> M_red, incl).

    proj . incl is the identity on M_red; incl . proj differs from the
    identity of M by a map through a free module.
    """
    canon, to_c, from_c = canonical_form(M)
    parts = jordan_type(canon)
    kept: list[int] = []
    off = 0
    red_parts = []
    for l in parts:
        if l < M.ring.m:
            kept.extend(range(off, off + l))
            red_parts.append(l)
        off += l
    red = module_from_partition(M.ring, red_parts)
    sel = np.zeros((len(kept), canon.dim), dtype=np.int64)
    for i, j in enumerate(kept):
        sel[i, j] = 1
    proj = RMap(canon, red, FpMatrix(M.ring.p, sel), check=False)
    incl = RMap(red, canon, FpMatrix(M.ring.p, sel.T), check=False)
    return red, proj @ to_c, from_c @ incl


def module_iso(M: RModule, N: RModule) -> RMap | None:
    """An explicit isomorphism M -> N, or None when the types differ."""
    if M.ring != N.ring or jordan_type(M) != jordan_type(N):
        return None
    _, to_cm, _ = canonical_form(M)
    _, _, from_cn = canonical_form(N)
    return RMap(M, N, from_cn.A @ to_cm.A)


def partition_layout(M: RModule) -> list[int] | None:
    """The literal block layout when M is a concatenation of canonical blocks."""
    X = M.X.a
    n = M.dim
    parts = []
    o = 0
    while o < n:
        l = 1
        while o + l < n and X[o + l, o + l - 1] == 1:
            l += 1
        parts.append(l)
        o += l
    if max(parts, default=0) > M.ring.m or module_from_partition(M.ring, parts) != M:
        return None
    return parts


_HOM_BASIS_CACHE: dict[tuple, list] = {}


def hom_basis(M: RModule, N: RModule) -> list[RMap]:
    """Basis of the F_p-space of R-linear maps M -> N, deterministic order.

    Between canonical-layout modules the basis is assembled blockwise
    from multiplication maps (one basis element per block pair and
    eligible power); otherwise the commuting-matrix system is solved.
    """
    if M.ring != N.ring:
        raise RingMismatch("hom between modules over different rings")
    key = (M.key, N.key)
    if key in _HOM_BASIS_CACHE:
        return _HOM_BASIS_CACHE[key]
    s, t = M.dim, N.dim
    if s == 0 or t == 0:
        out: list[RMap] = []
        _HOM_BASIS_CACHE[key] = out
        return out
    p = M.ring.p
    sparts = partition_layout(M)
    tparts = partition_layout(N)
    if sparts is not None and tparts is not None:
        out = []
        roff = 0
        for b in tparts:
            coff = 0
            for a in sparts:
                for j in range(max(0, b - a), b):
                    A = np.zeros((t, s), dtype=np.int64)
                    for i in range(a):
                        if i + j < b:
                            A[roff + i + j, coff + i] = 1
                    out.append(RMap(M, N, FpMatrix(p, A), check=False))
                coff += a
            roff += b
        _HOM_BASIS_CACHE[key] = out
        return out
    Is = np.eye(s, dtype=np.int64)
    It = np.eye(t, dtype=np.int64)
    system = FpMatrix(p, np.kron(It, M.X.a.T) - np.kron(N.X.a, Is))
    out = [
        RMap(M, N, FpMatrix(p, row.reshape(t, s)), check=False)
        for row in nullspace(system).a
    ]
    _HOM_BASIS_CACHE[key] = out
    return out


def mu_map(ring: Ring, a: int, b: int, j: int, coeff: int = 1) -> RMap:
    """coeff * mu_{x^j}: R/x^a -> R/x^b between canonical single blocks."""
    if j < max(0, b - a):
        raise ModRepError(
            f"mu(x^{j}) is not a well-defined map R/x^{a} -> R/x^{b}")
    src = module_from_partition(ring, [a])
    tgt = module_from_partition(ring, [b])
    A = np.zeros((b, a), dtype=np.int64)
    for i in range(a):
        if i + j < b:
            A[i + j, i] = coeff % ring.p
    return RMap(src, tgt, FpMatrix(ring.p, A))


def direct_sum(modules) -> tuple[RModule, list[RMap], list[RMap]]:
    """(sum, inclusions, projections) of a list of modules."""
    modules = list(modules)
    if not modules:
        raise ModRepError("empty direct sum needs a ring; use zero_module")
    ring = modules[0].ring
    n = sum(M.dim for M in modules)
    X = np.zeros((n, n), dtype=np.int64)
    off = 0
    incls, projs = [], []
    S = None
    offs = []
    for M in modules:
        if M.ring != ring:
            raise RingMismatch("direct sum over mixed rings")
        X[off:off + M.dim, off:off + M.dim] = M.X.a
        offs.append(off)
        off += M.dim
    S = RModule(ring, FpMatrix(ring.p, X))
    for M, off in zip(modules, offs):
        inc = np.zeros((n, M.dim), dtype=np.int64)
        inc[off:off + M.dim, :] = np.eye(M.dim, dtype=np.int64)
        incls.append(RMap(M, S, FpMatrix(ring.p, inc), check=False))
        projs.append(RMap(S, M, FpMatrix(ring.p, inc.T), check=False))
    return S, incls, projs


def block_map(src_summands, tgt_summands, entries) -> RMap:
    """Assemble a map between direct sums from a grid of RMaps (or None)."""
    S, s_incl, _ = direct_sum(src_summands)
    T, _, t_proj = direct_sum(tgt_summands)
    p = S.ring.p
    A = np.zeros((T.dim, S.dim), dtype=np.int64)
    roff = 0
    for i, Mt in enumerate(tgt_summands):
        coff = 0
        for j, Ms in enumerate(src_summands):
            e = entries[i][j]
            if e is not None:
                if e.src != Ms or e.tgt != Mt:
                    raise ModRepError(f"block ({i},{j}) has the wrong shape")
                A[roff:roff + Mt.dim, coff:coff + Ms.dim] = e.A.a
            coff += Ms.dim
        roff += Mt.dim
    return RMap(S, T, FpMatrix(p, A))


def projective_cover(M: RModule) -> tuple[RModule, RMap]:
    """Free cover on the chain tops: P free of rank dim(M/xM), p surjective."""
    ring = M.ring
    chains = jordan_chains(M)
    P = free_module(ring, len(chains))
    A = np.zeros((M.dim, P.dim), dtype=np.int64)
    for i, chain in enumerate(chains):
        top = chain[0]
        v = top
        for jj in range(ring.m):
            A[:, i * ring.m + jj] = v
            v = M.X.apply(v)
    return P, RMap(P, M, FpMatrix(ring.p, A))


def injective_envelope(M: RModule) -> tuple[RModule, RMap]:
    """Free hull on the socle: each length-l chain embeds via mu_{x^{m-l}}."""
    ring = M.ring
    chains = jordan_chains(M)
    I = free_module(ring, len(chains))
    if M.dim == 0:
        return I, RMap(M, I, FpMatrix.zeros(ring.p, 0, 0), check=False)
    # chain vector X^j v of a length-l chain maps to x^{m-l+j} in its block
    cols = []
    for i, chain in enumerate(chains):
        l = len(chain)
        for jj in range(l):
            e = np.zeros(I.dim, dtype=np.int64)
            e[i * ring.m + (ring.m - l + jj)] = 1
            cols.append(e)
    E = np.array(cols, dtype=np.int64).T  # chain coords -> I
    C = np.array([v for chain in chains for v in chain], dtype=np.int64).T
    A = (E @ _invert(FpMatrix(ring.p, C)).a) % ring.p
    return I, RMap(M, I, FpMatrix(ring.p, A))


class KernelData:
    """Kernel of a map, in reduced canonical form.

    kernel: the reduced module; incl: kernel -> src.  The raw pieces
    (raw_basis spanning the full kernel subspace, and the reduction map
    from raw coordinates) are kept because constructions induced on the
    kernel must be pinned on the whole subspace, not just the reduced
    image.
    """

    __slots__ = ("kernel", "incl", "raw_basis", "reduction")

    def __init__(self, f: RMap):
        p = f.src.ring.p
        basis = nullspace(f.A)  # rows span ker f
        k = basis.rows
        # x-action in kernel coordinates: solve basis^T * Y = X * basis^T
        B = basis.a.T.reshape(f.src.dim, k)  # src.dim x k
        XB = FpMatrix(p, (f.src.X.a @ B) % p)
        try:
            Y = solve_columns(FpMatrix(p, B), XB).a
        except LinAlgError:
            raise ModRepError("kernel is not x-stable; map is not R-linear")
        K_raw = RModule(f.src.ring, FpMatrix(p, Y))
        incl_raw = RMap(K_raw, f.src, FpMatrix(p, B))
        K, to_red, from_red = reduce_module(K_raw)
        object.__setattr__(self, "kernel", K)
        object.__setattr__(self, "incl", incl_raw @ from_red)
        object.__setattr__(self, "raw_basis", FpMatrix(p, B))
        object.__setattr__(self, "reduction", to_red.A)

    def __setattr__(self, *args):
        raise AttributeError("KernelData is immutable")


class CokernelData:
    """Cokernel of a map, in reduced canonical form.

    cokernel: the reduced module; proj: tgt -> cokernel.  raw_proj has
    kernel exactly im(f), and red_incl sections the reduction; maps
    induced on the quotient must be built through these, since the
    composed projection has a larger kernel once free summands are
    stripped.
    """

    __slots__ = ("cokernel", "proj", "raw_proj", "red_incl")

    def __init__(self, f: RMap):
        p = f.tgt.ring.p
        n = f.tgt.dim
        sub = FpMatrix(p, f.A.a.T.reshape(f.src.dim, n))  # rows span im f
        R, pivots = rref(sub)
        free = [j for j in range(n) if j not in pivots]
        k = len(free)
        # projection: reduce each standard basis vector by the pivots,
        # read off the free positions
        cols = []
        for j in range(n):
            v = np.zeros(n, dtype=np.int64)
            v[j] = 1
            for i, pc in enumerate(pivots):
                v = (v - v[pc] * R.a[i]) % p
            cols.append(v[free])
        Q = np.array(cols, dtype=np.int64).T.reshape(k, n)
        Y = (Q @ f.tgt.X.a[:, free]) % p  # x-action on the quotient
        C_raw = RModule(f.tgt.ring, FpMatrix(p, Y))
        proj_raw = RMap(f.tgt, C_raw, FpMatrix(p, Q))
        C, to_red, from_red = reduce_module(C_raw)
        object.__setattr__(self, "cokernel", C)
        object.__setattr__(self, "proj", to_red @ proj_raw)
        object.__setattr__(self, "raw_proj", proj_raw)
        object.__setattr__(self, "red_incl", from_red)

    def __setattr__(self, *args):
        raise AttributeError("CokernelData is immutable")


_OMEGA: dict[tuple, tuple[RModule, RMap, RMap]] = {}
_SIGMA: dict[tuple, tuple[RModule, RMap, RMap]] = {}


def omega(M: RModule) -> tuple[RModule, RMap, RMap]:
    """(Omega M, incl: Omega M -> P, cover: P -> M); kernel of the cover."""
    if M.key in _OMEGA:
        return _OMEGA[M.key]
    P, cover = projective_cover(M)
    kd = KernelData(cover)
    result = (kd.kernel, kd.incl, cover)
    _OMEGA[M.key] = result
    return result


def sigma(M: RModule) -> tuple[RModule, RMap, RMap]:
    """(Sigma M, emb: M -> I, quot: I -> Sigma M); cokernel of the envelope."""
    if M.key in _SIGMA:
        return _SIGMA[M.key]
    I, emb = injective_envelope(M)
    cd = CokernelData(emb)
    result = (cd.cokernel, emb, cd.proj)
    _SIGMA[M.key] = result
    return result


def omega_module(M: RModule) -> RModule:
    return omega(M)[0]


def sigma_module(M: RModule) -> RModule:
    return sigma(M)[0]
