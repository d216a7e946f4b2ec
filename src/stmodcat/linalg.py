"""Dense exact linear algebra over prime fields F_p.

Everything downstream (module homs, lifting problems, bracket
enumeration) reduces to solving affine systems, taking kernels and
quotients, and enumerating points of small affine subspaces, all done
here with deterministic reduced row echelon form.  Pivoting is fixed
(leftmost eligible column, topmost row) so representatives are
bit-reproducible across runs and platforms.

One elimination per query: each function reduces one matrix once and
reads every part of its answer from that reduction, and a span that
grows one vector at a time is kept in an `Echelon` rather than
re-reduced for each membership test.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _inv_mod(a: int, p: int) -> int:
    return pow(int(a) % p, p - 2, p)


def as_vector(v, p: int) -> np.ndarray:
    a = np.asarray(v, dtype=np.int64) % p
    if a.ndim != 1:
        raise DimensionMismatch(f"expected a vector, got shape {a.shape}")
    return a


class FpMatrix:
    """An immutable dense matrix over F_p (entries stored reduced mod p)."""

    __slots__ = ("p", "a")

    def __init__(self, p: int, entries):
        if not is_prime(p):
            raise ModulusMismatch(f"modulus {p} is not prime")
        a = np.asarray(entries, dtype=np.int64)
        if a.ndim == 1:
            a = a.reshape(1, -1)
        if a.ndim != 2:
            raise DimensionMismatch(f"expected a 2-D array, got shape {a.shape}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "a", a % p)
        self.a.setflags(write=False)

    def __setattr__(self, *args):
        raise AttributeError("FpMatrix is immutable")

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
        return FpMatrix(self.p, self.a @ other.a)

    def __add__(self, other: "FpMatrix") -> "FpMatrix":
        self._check(other)
        if self.a.shape != other.a.shape:
            raise DimensionMismatch("shape mismatch in addition")
        return FpMatrix(self.p, self.a + other.a)

    def __sub__(self, other: "FpMatrix") -> "FpMatrix":
        self._check(other)
        if self.a.shape != other.a.shape:
            raise DimensionMismatch("shape mismatch in subtraction")
        return FpMatrix(self.p, self.a - other.a)

    def __neg__(self) -> "FpMatrix":
        return FpMatrix(self.p, -self.a)

    def scale(self, c: int) -> "FpMatrix":
        return FpMatrix(self.p, (c % self.p) * self.a)

    def __eq__(self, other) -> bool:
        return (isinstance(other, FpMatrix) and self.p == other.p
                and self.a.shape == other.a.shape and np.array_equal(self.a, other.a))

    def __hash__(self):
        return hash((self.p, self.a.shape, self.a.tobytes()))

    def is_zero(self) -> bool:
        return not self.a.any()

    def transpose(self) -> "FpMatrix":
        return FpMatrix(self.p, self.a.T)

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
    cleared above and below.
    """
    p = M.p
    A = M.a.copy()
    m, n = A.shape
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
        # row r is zero left of c, so only the columns from c on change
        A[r, c:] = (A[r, c:] * _inv_mod(A[r, c], p)) % p
        col = A[:, c].copy()
        col[r] = 0
        A[:, c:] = (A[:, c:] - np.outer(col, A[r, c:])) % p
        pivots.append(c)
        r += 1
    return FpMatrix(p, A), pivots


def rank(M: FpMatrix) -> int:
    return len(rref(M)[1])


def nullspace(M: FpMatrix) -> FpMatrix:
    """Basis of the right kernel {x : Mx = 0}, one basis vector per row.

    Deterministic: one vector per free column, in increasing column
    order, with 1 at the free position.
    """
    R, pivots = rref(M)
    return FpMatrix(M.p, _kernel_from_rref(R.a, pivots, M.cols, M.p))


def _kernel_from_rref(R: np.ndarray, pivots: list[int], n: int, p: int) -> np.ndarray:
    """The nullspace basis read off a reduction whose first n columns are rref(A)."""
    free = [j for j in range(n) if j not in pivots]
    basis = np.zeros((len(free), n), dtype=np.int64)
    for k, j in enumerate(free):
        basis[k, j] = 1
        for i, pc in enumerate(pivots):
            basis[k, pc] = (-R[i, j]) % p
    return basis


def row_space_basis(M: FpMatrix) -> FpMatrix:
    """Nonzero rows of the RREF: a canonical basis of the row space."""
    R, pivots = rref(M)
    return FpMatrix(M.p, R.a[: len(pivots)].reshape(len(pivots), M.cols))


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
        b = np.asarray(self.basis, dtype=np.int64) % self.p
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


def solve_affine(A: FpMatrix, b) -> AffineSpace | None:
    """Solution set of Ax = b, or None when the system is inconsistent."""
    b = as_vector(b, A.p)
    if b.shape[0] != A.rows:
        raise DimensionMismatch("right-hand side length != row count")
    aug = FpMatrix(A.p, np.hstack([A.a, b.reshape(-1, 1)]))
    R, pivots = rref(aug)
    if A.cols in pivots:
        return None
    rep = np.zeros(A.cols, dtype=np.int64)
    for i, pc in enumerate(pivots):
        rep[pc] = R.a[i, A.cols]
    # pivoting is column by column, so the first A.cols columns of R are rref(A)
    return AffineSpace(A.p, A.cols, rep, _kernel_from_rref(R.a, pivots, A.cols, A.p))


def enumerate_points(space: AffineSpace, cap: int = 4096) -> list[np.ndarray]:
    """All points of the affine space, lexicographic in the coefficients.

    Coefficient tuples (c_1, ..., c_d) run in lexicographic order over
    F_p, so the representative (all zeros) comes first.
    """
    d = space.dim
    total = space.p ** d
    if total > cap:
        raise EnumerationOverflow(f"{total} points exceeds cap {cap}")
    pts = []
    for idx in np.ndindex(*([space.p] * d)):
        v = space.representative.copy()
        for c, row in zip(idx, space.basis):
            v = (v + c * row) % space.p
        pts.append(v)
    return pts


def affine_image(space: AffineSpace, M: FpMatrix) -> AffineSpace:
    """Image of an affine space under a linear map (rows of M are the map)."""
    if M.cols != space.ambient_dim:
        raise DimensionMismatch("map does not act on the ambient space")
    rep = M.apply(space.representative)
    if space.dim:
        dirs = row_space_basis(FpMatrix(space.p, (space.basis @ M.a.T) % space.p))
    else:
        dirs = FpMatrix(space.p, np.zeros((0, M.rows), dtype=np.int64))
    return AffineSpace(space.p, M.rows, rep, dirs.a)


def in_span(rows: FpMatrix, v) -> bool:
    """Is v in the row space of `rows`?"""
    v = as_vector(v, rows.p)
    if v.shape[0] != rows.cols:
        raise DimensionMismatch("vector length != row length")
    aug = FpMatrix(rows.p, np.hstack([rows.a.T, v.reshape(-1, 1)]))
    return rows.rows not in rref(aug)[1]


class Echelon:
    """A growing subspace of F_p^n, kept in reduced row echelon form.

    `add` answers whether a vector was new to the span and, if so, takes
    it in; a run of membership tests against a growing span costs one
    reduction per vector rather than one elimination of the whole span.
    """

    __slots__ = ("p", "n", "_rows", "_pivots")

    def __init__(self, p: int, n: int):
        self.p = p
        self.n = n
        self._rows = np.zeros((0, n), dtype=np.int64)
        self._pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def reduce(self, v) -> np.ndarray:
        """v minus its part in the span: zero exactly when v is in the span."""
        v = as_vector(v, self.p)
        if v.shape[0] != self.n:
            raise DimensionMismatch("vector length != ambient dimension")
        return (v - v[self._pivots] @ self._rows) % self.p

    def add(self, v) -> bool:
        """Take v into the span; True when the rank grew."""
        w = self.reduce(v)
        nz = np.flatnonzero(w)
        if nz.size == 0:
            return False
        c = int(nz[0])
        w = (w * _inv_mod(w[c], self.p)) % self.p
        rows = (self._rows - np.outer(self._rows[:, c], w)) % self.p
        self._rows = np.vstack([rows, w])
        self._pivots.append(c)
        return True


def quotient_coords(subspace_basis: FpMatrix, v) -> np.ndarray:
    """Coordinates of v's class in the fixed complement of a subspace.

    The complement is spanned by the standard basis vectors at the
    non-pivot positions of the subspace's RREF.  Two vectors get equal
    output iff their difference lies in the subspace.
    """
    p = subspace_basis.p
    v = as_vector(v, p)
    if subspace_basis.cols != v.shape[0]:
        raise DimensionMismatch("vector length != subspace ambient dimension")
    R, pivots = rref(subspace_basis)
    w = v.copy()
    for i, pc in enumerate(pivots):
        w = (w - w[pc] * R.a[i]) % p
    free = [j for j in range(subspace_basis.cols) if j not in pivots]
    return w[free]


def lift_quotient_coords(subspace_basis: FpMatrix, coords) -> np.ndarray:
    """A section of quotient_coords: the representative with zeros at pivots."""
    p = subspace_basis.p
    coords = as_vector(coords, p)
    _, pivots = rref(subspace_basis)
    free = [j for j in range(subspace_basis.cols) if j not in pivots]
    if len(free) != coords.shape[0]:
        raise DimensionMismatch("coordinate length != complement dimension")
    v = np.zeros(subspace_basis.cols, dtype=np.int64)
    v[free] = coords
    return v


def solve_columns(A: FpMatrix, B: FpMatrix) -> FpMatrix:
    """Some X with A X = B, solved for all columns with one reduction.

    Raises when any column is inconsistent.
    """
    if A.rows != B.rows:
        raise DimensionMismatch("row counts differ")
    k = B.cols
    aug = FpMatrix(A.p, np.hstack([A.a, B.a]).reshape(A.rows, A.cols + k))
    R, pivots = rref(aug)
    if any(pc >= A.cols for pc in pivots):
        raise LinAlgError("inconsistent column system")
    X = np.zeros((A.cols, k), dtype=np.int64)
    for i, pc in enumerate(pivots):
        X[pc] = R.a[i, A.cols:]
    return FpMatrix(A.p, X)


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
