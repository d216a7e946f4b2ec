"""Finite-dimensional modules over R = F_p[x]/x^m and R-linear maps.

A module is a vector space with a nilpotent operator X (the action of
x); maps are matrices intertwining the operators.  Partitions of block
sizes classify modules up to isomorphism, so one Jordan chain basis per
module (`_jordan_basis`, built once) drives everything structural: the
type, the canonical and reduced forms, isomorphism tests, projective
covers (free on the chain tops), injective envelopes (each length-l chain
embeds in R by multiplication by x^{m-l}), and omega and sigma.

Kernel and cokernel constructions return modules in reduced canonical
form (Jordan blocks sorted descending, free blocks stripped) together
with the comparison maps, so repeated constructions stay at desk scale
and equal shapes share caches.

`memo` is the one cache of the engine: every memoized construction, here
and in `stcat` and `adams`, is keyed by its arguments' `key`s.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .linalg import (
    MAX_MODULUS,
    DimensionMismatch,
    FpMatrix,
    extending,
    is_prime,
    nullspace,
    quotient,
    right_inverse,
)


class ModRepError(Exception):
    pass


class RingMismatch(ModRepError):
    pass


class NotRLinear(ModRepError):
    pass


CacheInfo = namedtuple("CacheInfo", "hits misses size")


def memo(fn):
    """Cache fn for the life of the process, keyed by its arguments' `key`s
    (a plain int keys as itself).  A raised exception is not cached.  As
    with `functools`, the wrapper's `cache_info()` gives its hits, misses
    and size, and `cache_clear()` empties it (`stmodcat.cache_stats` and
    `clear_caches` walk the engine for these)."""
    cache = {}
    counts = [0, 0]   # hits, misses

    @functools.wraps(fn)
    def wrapper(*args):
        key = tuple([getattr(a, "key", a) for a in args])
        try:
            out = cache[key]
        except KeyError:
            counts[1] += 1
            cache[key] = out = fn(*args)
            return out
        counts[0] += 1
        return out

    def cache_clear():
        cache.clear()
        counts[:] = [0, 0]

    wrapper.cache_info = lambda: CacheInfo(counts[0], counts[1], len(cache))
    wrapper.cache_clear = cache_clear
    return wrapper


@dataclass(frozen=True)
class Ring:
    """R = F_p[x]/x^m."""

    p: int
    m: int

    def __post_init__(self):
        if not (self.p < MAX_MODULUS and is_prime(self.p)):
            raise ModRepError(f"{self.p} is not a prime below {MAX_MODULUS}")
        if self.m < 1:
            raise ModRepError("truncation exponent must be >= 1")


class RModule:
    """A module over Ring, stored as the nilpotent action matrix X."""

    __slots__ = ("ring", "dim", "X", "key")

    def __init__(self, ring: Ring, X: FpMatrix, check: bool = True):
        if X.p != ring.p:
            raise RingMismatch("matrix modulus differs from ring characteristic")
        if X.rows != X.cols:
            raise ModRepError("action matrix must be square")
        if check and not X.power(ring.m).is_zero():
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
        try:
            shape = f"type={list(jordan_type(self))}"
        except ModRepError:
            shape = f"dim={self.dim}, not nilpotent"
        return f"RModule(p={self.ring.p}, m={self.ring.m}, {shape})"


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

    @property
    def key(self):
        return (self.src.key, self.tgt.key, self.A.a.tobytes())

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
    # every part is at most m, so x^m acts as zero by construction
    return RModule(ring, FpMatrix(ring.p, X), check=False)


def free_module(ring: Ring, rank_: int) -> RModule:
    return module_from_partition(ring, [ring.m] * rank_)


def jordan_type(M: RModule) -> tuple[int, ...]:
    """Multiset of block sizes, sorted descending: the Jordan chain lengths."""
    return _jordan_basis(M)[0]


def jordan_chains(M: RModule) -> list[list[np.ndarray]]:
    """A Jordan chain basis: chains [v, Xv, ..., X^{l-1}v], lengths descending.

    Deterministic: the candidates are the canonical basis rows v of ker X^h,
    from the top height h down to 1, and v tops a chain of length h when its
    socle vector X^{h-1} v extends those before it (one `extending` call).
    For W in ker X^h, v lies in ker X^{h-1} + W iff X^{h-1} v lies in
    X^{h-1} W: these are the v that extend ker X^{h-1} and the level-h
    vectors of the chains before them.
    """
    p, n = M.ring.p, M.dim
    if n == 0:
        return []
    powers = [FpMatrix.identity(p, n)]
    while len(powers) <= M.ring.m and not powers[-1].is_zero():
        powers.append(powers[-1] @ M.X)
    if not powers[-1].is_zero():
        raise ModRepError(f"x^{M.ring.m} does not act as zero")
    kernels = [(h, nullspace(powers[h]).a) for h in range(len(powers) - 1, 0, -1)]
    cands = [(h, v) for h, K in kernels for v in K]
    socles = FpMatrix(p, np.vstack([K @ powers[h - 1].a.T for h, K in kernels]))
    tops = extending(FpMatrix.zeros(p, 0, n), socles)
    return [[powers[j].apply(v) for j in range(h)] for h, v in (cands[i] for i in tops)]


@memo
def _jordan_basis(M: RModule) -> tuple[tuple[int, ...], FpMatrix, FpMatrix]:
    """(chain lengths, C, C^-1), C holding the Jordan chain vectors as columns.

    The one place a module's Jordan basis is built, once per module and
    shared, so every part is immutable: C^-1 takes M to the canonical
    module of its chain lengths, and C takes it back.  In canonical layout
    the chains are the blocks' unit vectors, longest first, in block order
    among equals (as `jordan_chains` finds them), so C is a permutation.
    """
    parts = partition_layout(M)
    if parts is not None:
        offs = list(itertools.accumulate(parts, initial=0))
        order = sorted(range(len(parts)), key=lambda b: -parts[b])
        C = FpMatrix._of(M.ring.p, np.eye(M.dim, dtype=np.int64)[
            :, [o for b in order for o in range(offs[b], offs[b + 1])]])
        return tuple(parts[b] for b in order), C, C.transpose()
    chains = jordan_chains(M)
    cols = [v for chain in chains for v in chain]
    C = FpMatrix(M.ring.p, np.array(cols, dtype=np.int64).reshape(M.dim, M.dim).T)
    return tuple(len(chain) for chain in chains), C, right_inverse(C)


def canonical_form(M: RModule) -> tuple[RModule, RMap, RMap]:
    """(canonical module, iso M -> canon, inverse iso)."""
    parts, C, Cinv = _jordan_basis(M)
    canon = module_from_partition(M.ring, parts)
    return canon, RMap(M, canon, Cinv), RMap(canon, M, C)


def reduce_module(M: RModule) -> tuple[RModule, RMap, RMap]:
    """Strip free summands: (M_red canonical, proj: M -> M_red, incl).

    proj . incl is the identity on M_red; incl . proj differs from the
    identity of M by a map through a free module.
    """
    parts, C, Cinv = _jordan_basis(M)
    free = parts.count(M.ring.m)  # free chains are the tallest, so they lead
    red = module_from_partition(M.ring, parts[free:])
    cut, p = free * M.ring.m, M.ring.p
    return (red, RMap(M, red, FpMatrix(p, Cinv.a[cut:]), check=False),
            RMap(red, M, FpMatrix(p, C.a[:, cut:]), check=False))


def module_iso(M: RModule, N: RModule) -> RMap | None:
    """An explicit isomorphism M -> N, or None when the types differ."""
    if M.ring != N.ring:
        return None
    canon_m, to_cm, _ = canonical_form(M)
    canon_n, _, from_cn = canonical_form(N)
    if canon_m != canon_n:
        return None
    return RMap(M, N, from_cn.A @ to_cm.A)


def partition_layout(M: RModule) -> list[int] | None:
    """The literal block layout when M is a concatenation of canonical blocks:
    blocks of at most m marked by subdiagonal ones, and nothing else in X."""
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
    if max(parts, default=0) > M.ring.m or np.count_nonzero(X) != n - len(parts):
        return None
    return parts


def _hom_blocks(sparts, tparts) -> list[tuple[int, int, int, int, int]]:
    """(row offset, column offset, a, b, j) of each hom basis map mu(x^j):
    R/x^a -> R/x^b, max(0, b-a) <= j < b, between two block layouts."""
    roffs = itertools.accumulate(tparts, initial=0)
    coffs = list(itertools.accumulate(sparts, initial=0))
    return [(roff, coff, a, b, j) for roff, b in zip(roffs, tparts)
            for coff, a in zip(coffs, sparts) for j in range(max(0, b - a), b)]


@memo
def hom_basis(M: RModule, N: RModule) -> np.ndarray:
    """Basis of the F_p-space of R-linear maps M -> N, deterministic order.

    One read-only (shared) int64 array of shape (h, dim N, dim M), entry k
    the matrix of basis map k.  Between canonical-layout modules the basis
    is the multiplication maps listed by `_hom_blocks` (one per block pair
    and eligible power); otherwise the commuting-matrix system is solved.
    """
    if M.ring != N.ring:
        raise RingMismatch("hom between modules over different rings")
    s, t = M.dim, N.dim
    # a zero side lists no block pairs
    sparts, tparts = (partition_layout(M), partition_layout(N)) if s and t else ([], [])
    if sparts is not None and tparts is not None:
        blocks = _hom_blocks(sparts, tparts)
        H = np.zeros((len(blocks), t, s), dtype=np.int64)
        for k, (roff, coff, a, b, j) in enumerate(blocks):
            i = np.arange(min(a, b - j))
            H[k, roff + j + i, coff + i] = 1
    else:
        Is = np.eye(s, dtype=np.int64)
        It = np.eye(t, dtype=np.int64)
        system = FpMatrix(M.ring.p, np.kron(It, M.X.a.T) - np.kron(N.X.a, Is))
        H = nullspace(system).a.reshape(-1, t, s)
    H.setflags(write=False)
    return H


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
    if any(M.ring != ring for M in modules):
        raise RingMismatch("direct sum over mixed rings")
    offs = list(itertools.accumulate((M.dim for M in modules), initial=0))
    X = np.zeros((offs[-1], offs[-1]), dtype=np.int64)
    for M, off in zip(modules, offs):
        X[off:off + M.dim, off:off + M.dim] = M.X.a
    S = RModule(ring, FpMatrix(ring.p, X), check=False)  # blocks are nilpotent
    incls, projs = [], []
    for M, off in zip(modules, offs):
        inc = np.zeros((S.dim, M.dim), dtype=np.int64)
        inc[off:off + M.dim, :] = np.eye(M.dim, dtype=np.int64)
        incls.append(RMap(M, S, FpMatrix(ring.p, inc), check=False))
        projs.append(RMap(S, M, FpMatrix(ring.p, inc.T), check=False))
    return S, incls, projs


def block_map(src_summands, tgt_summands, entries) -> RMap:
    """Assemble a map between direct sums from a grid of RMaps (or None)."""
    S = direct_sum(src_summands)[0]
    T = direct_sum(tgt_summands)[0]
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
    m = M.ring.m
    parts, C, _ = _jordan_basis(M)
    P = free_module(M.ring, len(parts))
    # the basis x^j of block i goes to X^j of chain i's top, zero past its end
    cols = [i * m + j for i, l in enumerate(parts) for j in range(l)]
    A = np.zeros((M.dim, P.dim), dtype=np.int64)
    A[:, cols] = C.a
    return P, RMap(P, M, FpMatrix(M.ring.p, A))


def injective_envelope(M: RModule) -> tuple[RModule, RMap]:
    """Free hull on the socle: each length-l chain embeds via mu_{x^{m-l}}."""
    m = M.ring.m
    parts, _, Cinv = _jordan_basis(M)
    I = free_module(M.ring, len(parts))
    # chain vector X^j v of a length-l chain maps to x^{m-l+j} in its block
    rows = [i * m + m - l + j for i, l in enumerate(parts) for j in range(l)]
    A = np.zeros((I.dim, M.dim), dtype=np.int64)
    A[rows] = Cinv.a
    return I, RMap(M, I, FpMatrix(M.ring.p, A))


class KernelData:
    """Kernel of a map, in reduced canonical form.

    kernel: the reduced module; incl: kernel -> src.  The raw pieces
    (raw_basis spanning the full kernel subspace, and the reduction map
    from raw coordinates) are kept because constructions induced on the
    kernel must be pinned on the whole subspace, not just the reduced
    image.  The raw basis is B = Q^T for the quotient map Q of one
    reduction of f, so B[free] = I and the x-action on the kernel is read
    off, Y = (X B)[free]: the dual of CokernelData's Q X[:, free].
    """

    __slots__ = ("kernel", "incl", "raw_basis", "reduction")

    def __init__(self, f: RMap):
        Q, free = quotient(f.A)  # rows of Q span ker f
        B = Q.transpose()  # src.dim x k
        XB = f.src.X @ B
        Y = FpMatrix(f.src.ring.p, XB.a[free])  # B Y = X B holds iff ker f is x-stable
        if B @ Y != XB:
            raise ModRepError("kernel is not x-stable; map is not R-linear")
        K_raw = RModule(f.src.ring, Y, check=False)  # B Y^m = X^m B = 0
        incl_raw = RMap(K_raw, f.src, B, check=False)
        K, to_red, from_red = reduce_module(K_raw)
        object.__setattr__(self, "kernel", K)
        object.__setattr__(self, "incl", incl_raw @ from_red)
        object.__setattr__(self, "raw_basis", B)
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
        Q, free = quotient(sub)  # the projection tgt -> tgt / im f
        Y = (Q.a @ f.tgt.X.a[:, free]) % p  # x-action on the quotient
        C_raw = RModule(f.tgt.ring, FpMatrix(p, Y), check=False)  # Y^m Q = Q X^m = 0
        proj_raw = RMap(f.tgt, C_raw, Q)  # checks Y Q = Q X
        C, to_red, from_red = reduce_module(C_raw)
        object.__setattr__(self, "cokernel", C)
        object.__setattr__(self, "proj", to_red @ proj_raw)
        object.__setattr__(self, "raw_proj", proj_raw)
        object.__setattr__(self, "red_incl", from_red)

    def __setattr__(self, *args):
        raise AttributeError("CokernelData is immutable")


@memo
def omega(M: RModule) -> tuple[RModule, RMap, RMap]:
    """(Omega M, incl: Omega M -> P, cover: P -> M); kernel of the cover."""
    P, cover = projective_cover(M)
    kd = KernelData(cover)
    return kd.kernel, kd.incl, cover


@memo
def sigma(M: RModule) -> tuple[RModule, RMap, RMap]:
    """(Sigma M, emb: M -> I, quot: I -> Sigma M); cokernel of the envelope."""
    I, emb = injective_envelope(M)
    cd = CokernelData(emb)
    return cd.cokernel, emb, cd.proj
