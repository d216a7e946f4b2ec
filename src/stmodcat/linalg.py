"""Dense exact linear algebra over prime fields F_p.

Everything downstream (module homs, lifting problems, bracket
enumeration) reduces to solving affine systems, taking kernels and
quotients, and enumerating points of small affine subspaces, all done
here with deterministic reduced row echelon form: one pure-Python
kernel on list rows, touching only the rows nonzero at each pivot.
Pivoting is fixed (leftmost eligible column, topmost row) so
representatives are bit-reproducible across runs and platforms.

One elimination per query: each function reduces one matrix once and
reads every part of its answer from that reduction.  Even a greedy
selection, the first vectors in order that extend a span, is one
reduction (`extending`): they are the pivot columns of one rref.  Only
the public `FpMatrix` constructor checks and reduces entries; the arrays
reduced by construction here and in `stcat` go through `FpMatrix._of`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


class LinAlgError(Exception):
    pass


class DimensionMismatch(LinAlgError):
    pass


class ModulusMismatch(LinAlgError):
    pass


class EnumerationOverflow(LinAlgError):
    """Raised when an exact enumeration would exceed the requested cap."""


_SMALL_PRIMES = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}

# Residues are int64.  The widest sums the engine forms add triple products
# of residues: the bilinear fallback `toda._pair_coords` adds one per pair
# of generators, (d_a + 1)(d_b + 1) of them, and 2^15 would take
# d_a + d_b >= 360, so p^360 pairs under the cap.  Below 2^16 each product
# stays below 2^48, so int64 holds sums of 2^15 of them exactly.
MAX_MODULUS = 1 << 16


def is_prime(p: int) -> bool:
    if p in _SMALL_PRIMES:
        return True
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def as_array(v, p: int) -> np.ndarray:
    """v as an int64 array reduced mod p; non-integer entries are refused,
    not truncated."""
    a = np.asarray(v)
    if a.size and a.dtype.kind not in "iu":
        raise LinAlgError(f"expected integer entries, got dtype {a.dtype}")
    return a.astype(np.int64, copy=False) % p


def as_vector(v, p: int) -> np.ndarray:
    a = as_array(v, p)
    if a.ndim != 1:
        raise DimensionMismatch(f"expected a vector, got shape {a.shape}")
    return a


class FpMatrix:
    """An immutable dense matrix over F_p (entries stored reduced mod p).

    Only linalg and stcat call the trusted `_of`, on a fresh 2-D int64 array
    reduced mod a checked p that no one else can write to (no check, no copy)."""

    __slots__ = ("p", "a")

    def __init__(self, p: int, entries):
        if not (p < MAX_MODULUS and is_prime(p)):
            raise ModulusMismatch(f"modulus {p} is not a prime below {MAX_MODULUS}")
        a = as_array(entries, p)
        if a.ndim == 1:
            a = a.reshape(1, -1)
        if a.ndim != 2:
            raise DimensionMismatch(f"expected a 2-D array, got shape {a.shape}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "a", a)
        a.setflags(write=False)

    def __setattr__(self, *args):
        raise AttributeError("FpMatrix is immutable")

    @classmethod
    def _of(cls, p: int, a: np.ndarray) -> "FpMatrix":
        M = object.__new__(cls)
        object.__setattr__(M, "p", p)
        object.__setattr__(M, "a", a)
        a.setflags(write=False)
        return M

    @classmethod
    def zeros(cls, p: int, rows: int, cols: int) -> "FpMatrix":
        return cls(p, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, p: int, n: int) -> "FpMatrix":
        return cls(p, np.eye(n, dtype=np.int64))

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    def _check(self, other: "FpMatrix"):
        if self.p != other.p:
            raise ModulusMismatch(f"moduli differ: {self.p} vs {other.p}")

    def __matmul__(self, other: "FpMatrix") -> "FpMatrix":
        self._check(other)
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        return FpMatrix._of(self.p, (self.a @ other.a) % self.p)

    def __add__(self, other: "FpMatrix") -> "FpMatrix":
        self._check(other)
        if self.a.shape != other.a.shape:
            raise DimensionMismatch("shape mismatch in addition")
        return FpMatrix._of(self.p, (self.a + other.a) % self.p)

    def __sub__(self, other: "FpMatrix") -> "FpMatrix":
        self._check(other)
        if self.a.shape != other.a.shape:
            raise DimensionMismatch("shape mismatch in subtraction")
        return FpMatrix._of(self.p, (self.a - other.a) % self.p)

    def __neg__(self) -> "FpMatrix":
        return FpMatrix._of(self.p, -self.a % self.p)

    def scale(self, c: int) -> "FpMatrix":
        return FpMatrix._of(self.p, (c % self.p) * self.a % self.p)

    def __eq__(self, other) -> bool:
        return (isinstance(other, FpMatrix) and self.p == other.p
                and self.a.shape == other.a.shape and np.array_equal(self.a, other.a))

    def __hash__(self):
        return hash((self.p, self.a.shape, self.a.tobytes()))

    def is_zero(self) -> bool:
        return not self.a.any()

    def transpose(self) -> "FpMatrix":
        return FpMatrix._of(self.p, self.a.T)

    def power(self, k: int) -> "FpMatrix":
        if self.rows != self.cols:
            raise DimensionMismatch("power of a non-square matrix")
        out = np.eye(self.rows, dtype=np.int64)
        base = self.a
        for _ in range(k):
            out = (out @ base) % self.p
        return FpMatrix(self.p, out)

    def apply(self, v) -> np.ndarray:
        v = as_vector(v, self.p)
        if v.shape[0] != self.cols:
            raise DimensionMismatch("vector length does not match column count")
        return (self.a @ v) % self.p

    def __repr__(self):
        return f"FpMatrix(p={self.p}, {self.a.tolist()})"


def rref(M: FpMatrix) -> tuple[FpMatrix, list[int]]:
    """Reduced row echelon form with the fixed pivot strategy.

    Returns (R, pivot_cols).  Pivots are searched leftmost column first,
    topmost unused row first; pivot entries are normalized to 1 and
    cleared above and below.  The rows are Python lists; a step changes
    only the rows nonzero at the pivot (most rows the engine reduces are
    sparse), from the pivot column on, where the pivot row starts.
    """
    p = M.p
    m, n = M.a.shape
    rows = M.a.tolist()
    pivots: list[int] = []
    r = 0
    for c in range(n):
        for i in range(r, m):
            if rows[i][c]:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        top = rows[r]
        if top[c] != 1:
            inv = pow(top[c], p - 2, p)
            top[c:] = [x * inv % p for x in top[c:]]
        tail = top[c:]
        for row in rows:
            f = row[c]
            if f and row is not top:
                row[c:] = [(x - f * y) % p for x, y in zip(row[c:], tail)]
        pivots.append(c)
        r += 1
    return FpMatrix._of(p, np.array(rows, dtype=np.int64).reshape(m, n)), pivots


def rank(M: FpMatrix) -> int:
    return len(rref(M)[1])


def nullspace(M: FpMatrix) -> FpMatrix:
    """Basis of the right kernel {x : Mx = 0}, one basis vector per row.

    Deterministic: one vector per free column, in increasing column
    order, with 1 at the free position.
    """
    return quotient(M)[0]


def quotient(sub: FpMatrix) -> tuple[FpMatrix, list[int]]:
    """F_p^n modulo the row space of `sub`, read off one rref: (Q, free).

    The class of v is Q v: v reduced by the RREF pivots and read at the
    free columns, so two vectors get equal classes iff their difference
    lies in the row space.  A class c lifts to the vector holding c at
    `free` and 0 elsewhere.  Row k of Q is 1 at free[k] and minus that
    RREF column at the pivots, the k-th kernel vector: Q = nullspace(sub).
    """
    R, pivots = rref(sub)
    return _kernel(R.a.tolist(), pivots, sub.cols, sub.p)


def _kernel(rows: list, pivots: list[int], n: int, p: int) -> tuple[FpMatrix, list[int]]:
    """The nullspace basis and free columns of A, n columns wide, read off
    the list rows of a reduction whose first n columns are rref(A)."""
    free = [j for j in range(n) if j not in pivots]
    basis = [[0] * f + [1] + [0] * (n - 1 - f) for f in free]
    for c, row in zip(pivots, rows):
        for v, f in zip(basis, free):
            if row[f]:
                v[c] = p - row[f]
    return FpMatrix._of(p, np.array(basis, dtype=np.int64).reshape(len(free), n)), free


def row_space_basis(M: FpMatrix) -> FpMatrix:
    """Nonzero rows of the RREF: a canonical basis of the row space."""
    R, pivots = rref(M)
    return FpMatrix._of(M.p, R.a[: len(pivots)].reshape(len(pivots), M.cols))


@dataclass(frozen=True)
class AffineSpace:
    """A nonempty affine subspace of F_p^n: representative + direction basis."""

    p: int
    ambient_dim: int
    representative: np.ndarray
    basis: np.ndarray  # rows are linearly independent direction vectors

    def __post_init__(self):
        rep = as_vector(self.representative, self.p)
        if rep.shape[0] != self.ambient_dim:
            raise DimensionMismatch("representative length != ambient_dim")
        b = as_array(self.basis, self.p)
        if b.size == 0:
            b = np.zeros((b.shape[0] if b.ndim == 2 else 0, self.ambient_dim),
                         dtype=np.int64)
        else:
            b = b.reshape(-1, self.ambient_dim)
        if b.shape[0] and b.shape[0] != rank(FpMatrix(self.p, b)):
            raise LinAlgError("basis rows are linearly dependent")
        object.__setattr__(self, "representative", rep)
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def size(self) -> int:
        return self.p ** self.dim

    @cached_property
    def _class_map(self) -> FpMatrix:
        """Q with Q v the class of v modulo the basis span, reduced once."""
        return quotient(FpMatrix._of(self.p, self.basis.copy()))[0]

    def through(self, point: np.ndarray) -> "AffineSpace":
        """The parallel space through `point`, a vector already reduced mod p."""
        return _affine_space(self.p, point, self.basis)

    def generators(self) -> np.ndarray:
        """The representative over the basis rows."""
        return np.vstack([self.representative, self.basis])

    def coefficients(self) -> np.ndarray:
        """Rows (1, c_1, ..., c_d), with (c_1, ..., c_d) running over F_p^d
        in lexicographic order: point k is row k @ generators() mod p."""
        d, size = self.dim, self.size()
        out = np.ones((size, d + 1), dtype=np.int64)
        out[:, 1:] = np.indices((self.p,) * d, dtype=np.int64).reshape(d, size).T
        return out

    def points(self) -> np.ndarray:
        """Every point, uncapped: row k is coefficient row k @ generators()."""
        return self.coefficients() @ self.generators() % self.p


def _affine_space(p: int, representative: np.ndarray,
                  basis: np.ndarray) -> AffineSpace:
    """An AffineSpace from arrays already reduced mod p, skipping the rank
    check: for a basis independent by construction (a kernel basis read
    off an RREF, or the nonzero rows of one)."""
    space = object.__new__(AffineSpace)
    for name, value in (("p", p), ("ambient_dim", representative.shape[0]),
                        ("representative", representative), ("basis", basis)):
        object.__setattr__(space, name, value)
    return space


def solve_affine(A: FpMatrix, b) -> AffineSpace | None:
    """Solution set of Ax = b, or None when the system is inconsistent."""
    b = as_vector(b, A.p)
    if b.shape[0] != A.rows:
        raise DimensionMismatch("right-hand side length != row count")
    n = A.cols
    R, pivots = rref(FpMatrix._of(A.p, np.hstack([A.a, b.reshape(-1, 1)])))
    if pivots and pivots[-1] == n:
        return None
    rows = R.a.tolist()
    rep = np.zeros(n, dtype=np.int64)
    rep[pivots] = [row[n] for row in rows[:len(pivots)]]
    # pivoting is column by column, so the first n columns of R are rref(A)
    return _affine_space(A.p, rep, _kernel(rows, pivots, n, A.p)[0].a)


@dataclass(frozen=True)
class Fibers:
    """The fibers {x : M x = c} of a linear map M, for every c at once.

    One reduction of [M | I] reduces its first columns as rref(M) does, so
    its last columns hold the row operations: the rows past the rank of M
    give K, with a fiber over c exactly when K c = 0, and the rows above
    give T, with T c holding those rows applied to c at the pivots.  On such
    a c that is `solve_affine(M, c)`'s representative, and the fiber is the
    kernel of M through it."""

    K: np.ndarray
    T: np.ndarray
    kernel: AffineSpace

    def has(self, c: np.ndarray) -> bool:
        return not (self.K @ c % self.kernel.p).any()

    def size(self) -> int:
        """The points of each nonempty fiber."""
        return self.kernel.size()

    def at(self, c: np.ndarray) -> AffineSpace | None:
        """The fiber over c (a vector reduced mod p), or None when it is empty."""
        return self.kernel.through(self.T @ c % self.kernel.p) if self.has(c) else None


def fibers(M: FpMatrix) -> Fibers:
    """Every fiber of M, read off one reduction of [M | I] (`Fibers`)."""
    m, n = M.rows, M.cols
    R, pivots = rref(FpMatrix._of(M.p, np.hstack([M.a, np.eye(m, dtype=np.int64)])))
    piv = [c for c in pivots if c < n]
    T = np.zeros((n, m), dtype=np.int64)
    T[piv] = R.a[:len(piv), n:]
    basis = _kernel(R.a.tolist(), piv, n, M.p)[0].a
    return Fibers(R.a[len(piv):, n:], T,
                  _affine_space(M.p, np.zeros(n, dtype=np.int64), basis))


def identity_fibers(p: int, n: int) -> Fibers:
    """`fibers` of the n x n identity with no elimination: K is empty, T is
    the identity and the kernel is zero-dimensional."""
    return Fibers(np.zeros((0, n), dtype=np.int64), np.eye(n, dtype=np.int64),
                  _affine_space(p, np.zeros(n, dtype=np.int64),
                                np.zeros((0, n), dtype=np.int64)))


def enumerate_points(space: AffineSpace, cap: int = 4096) -> list[np.ndarray]:
    """All points of the affine space, lexicographic in the coefficients.

    Coefficient tuples (c_1, ..., c_d) run in lexicographic order over
    F_p, so the representative (all zeros) comes first.
    """
    total = space.size()
    if total > cap:
        raise EnumerationOverflow(f"{total} points exceeds cap {cap}")
    return list(space.points())


def span_points(p: int, offset: list, directions: list) -> frozenset:
    """Every point of offset + the row span of `directions` (list rows
    reduced mod p, not necessarily independent), once each, as tuples: a
    direction inside the span so far adds no point, any other multiplies
    the points by p.  No elimination, for the few points a bracket has."""
    pts = {tuple(offset)}
    for v in directions:
        if tuple((x + y) % p for x, y in zip(offset, v)) not in pts:
            pts = {tuple((x + c * y) % p for x, y in zip(pt, v))
                   for pt in pts for c in range(p)}
    return frozenset(pts)


def affine_image(space: AffineSpace, M: FpMatrix) -> AffineSpace:
    """Image of an affine space under a linear map (rows of M are the map)."""
    if M.cols != space.ambient_dim:
        raise DimensionMismatch("map does not act on the ambient space")
    rep = M.apply(space.representative)
    if space.dim:
        dirs = row_space_basis(FpMatrix._of(space.p, (space.basis @ M.a.T) % space.p))
    else:
        dirs = FpMatrix._of(space.p, np.zeros((0, M.rows), dtype=np.int64))
    return _affine_space(space.p, rep, dirs.a)


def preimage(M: FpMatrix, space: AffineSpace) -> AffineSpace | None:
    """{x : M x in space}, or None when M maps nothing into the space.

    M x - rep lies in the span of the basis exactly when its class in the
    quotient by that span is zero, so this is one solve against Q M.  On a
    point the quotient is the identity, and the solve is M x = rep itself.
    """
    if M.rows != space.ambient_dim:
        raise DimensionMismatch("map does not land in the space's ambient")
    if not space.dim:
        return solve_affine(M, space.representative)
    Q = space._class_map
    return solve_affine(Q @ M, Q.apply(space.representative))


def extending(span: FpMatrix, cands: FpMatrix) -> list[int]:
    """Indices of the rows of `cands` that, in order, lie outside the row
    space of `span` and the earlier rows of `cands`: a column of rref is a
    pivot exactly when it is outside the span of the columns before it, so
    these are the pivot columns past span.rows of [span; cands] transposed."""
    pivots = rref(FpMatrix._of(span.p, np.vstack([span.a, cands.a]).T))[1]
    return [c - span.rows for c in pivots if c >= span.rows]


def in_span(rows: FpMatrix, v) -> bool:
    """Is v in the row space of `rows`?"""
    v = as_vector(v, rows.p)
    if v.shape[0] != rows.cols:
        raise DimensionMismatch("vector length != row length")
    return not extending(rows, FpMatrix(rows.p, v))


def solve_columns(A: FpMatrix, B: FpMatrix) -> FpMatrix:
    """Some X with A X = B, solved for all columns with one reduction.

    Raises when any column is inconsistent.
    """
    if A.rows != B.rows:
        raise DimensionMismatch("row counts differ")
    R, pivots = rref(FpMatrix._of(A.p, np.hstack([A.a, B.a])))
    if any(pc >= A.cols for pc in pivots):
        raise LinAlgError("inconsistent column system")
    X = np.zeros((A.cols, B.cols), dtype=np.int64)
    X[pivots] = R.a[:len(pivots), A.cols:]
    return FpMatrix._of(A.p, X)


def right_inverse(M: FpMatrix) -> FpMatrix:
    """Some S with M S = I; exists iff M is surjective (raises otherwise)."""
    try:
        return solve_columns(M, FpMatrix.identity(M.p, M.rows))
    except LinAlgError:
        raise LinAlgError("matrix has no right inverse")


def stack_rows(p: int, vectors, cols: int | None = None) -> FpMatrix:
    """Rows-matrix from a list of vectors; `cols` fixes the width when empty."""
    vs = [as_vector(v, p) for v in vectors]
    if not vs:
        if cols is None:
            raise DimensionMismatch("empty vector list needs an explicit width")
        return FpMatrix(p, np.zeros((0, cols), dtype=np.int64))
    return FpMatrix(p, np.vstack(vs))
