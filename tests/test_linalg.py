import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stmodcat.linalg import (
    MAX_MODULUS,
    AffineSpace,
    DimensionMismatch,
    EnumerationOverflow,
    FpMatrix,
    ModulusMismatch,
    enumerate_points,
    extending,
    fibers,
    identity_fibers,
    in_span,
    nullspace,
    preimage,
    quotient,
    rank,
    row_space_basis,
    right_inverse,
    rref,
    solve_affine,
    solve_columns,
    span_points,
    stack_rows,
)


def test_modulus_must_be_prime():
    with pytest.raises(ModulusMismatch):
        FpMatrix(4, [[1]])
    with pytest.raises(ModulusMismatch):
        FpMatrix(1, [[0]])


def test_modulus_is_bounded_so_products_stay_exact():
    # at p = 4294967291 one int64 dot product of two residues wraps around
    big = 4294967291
    with pytest.raises(ModulusMismatch):
        FpMatrix(big, [[big - 1, big - 1]])
    p = 65521  # the largest prime below MAX_MODULUS
    assert p < MAX_MODULUS
    row = FpMatrix(p, [[p - 1, p - 1]])
    assert (row @ row.transpose()).a.tolist() == [[2]]
    with pytest.raises(ModulusMismatch):
        FpMatrix(65537, [[1]])  # prime, but above the bound


def test_entries_reduced():
    M = FpMatrix(3, [[4, -1], [9, 7]])
    assert M.a.tolist() == [[1, 2], [0, 1]]


def test_solve_identity_case():
    A = FpMatrix(2, [[1, 0], [0, 1]])
    s = solve_affine(A, [1, 0])
    assert s is not None
    assert s.representative.tolist() == [1, 0]
    assert s.dim == 0


def test_solve_zero_map():
    A = FpMatrix(3, [[0, 0]])
    s = solve_affine(A, [0])
    assert s.representative.tolist() == [0, 0]
    assert sorted(r.tolist() for r in s.basis) == [[0, 1], [1, 0]]


def test_solve_one_equation_matches_brute_force():
    # All solutions of x + y = 1 over F_2, by enumerating every vector.
    A = FpMatrix(2, [[1, 1]])
    expected = sorted(
        [x, y] for x in range(2) for y in range(2) if (x + y) % 2 == 1
    )
    s = solve_affine(A, [1])
    pts = sorted(v.tolist() for v in enumerate_points(s))
    assert pts == expected
    assert s.representative.tolist() == [1, 0]
    assert [r.tolist() for r in s.basis] == [[1, 1]]


def test_solve_inconsistent():
    A = FpMatrix(2, [[0, 0]])
    assert solve_affine(A, [1]) is None


def test_enumerate_zero_dim():
    s = AffineSpace(3, 2, [1, 2], np.zeros((0, 2), dtype=np.int64))
    pts = enumerate_points(s)
    assert len(pts) == 1 and pts[0].tolist() == [1, 2]


@pytest.mark.parametrize("d", range(5))
@pytest.mark.parametrize("p", [2, 3, 5])
def test_coefficients_are_the_lexicographic_table(p, d):
    s = AffineSpace(p, d, np.zeros(d, dtype=np.int64), np.eye(d, dtype=np.int64))
    got = s.coefficients()
    assert got.dtype == np.int64 and got.shape == (p ** d, d + 1)
    assert [tuple(r) for r in got.tolist()] == [
        (1, *c) for c in itertools.product(range(p), repeat=d)]


def test_enumerate_cardinality():
    s = AffineSpace(2, 3, [0, 0, 0], [[1, 0, 0], [0, 1, 0]])
    assert len(enumerate_points(s)) == 4


def test_enumerate_overflow():
    s = AffineSpace(3, 2, [0, 0], [[1, 0], [0, 1]])
    with pytest.raises(EnumerationOverflow):
        enumerate_points(s, cap=8)


def test_quotient_coords_examples():
    Q, free = quotient(stack_rows(2, [[1, 0]]))
    assert Q.apply([1, 1]).tolist() == [1] and free == [1]  # class of (0,1)
    Q, free = quotient(FpMatrix(2, [[1, 0], [0, 1]]))
    assert Q.apply([1, 1]).tolist() == [] and free == []
    Q, free = quotient(stack_rows(2, [], cols=2))
    assert Q.apply([1, 1]).tolist() == [1, 1] and free == [0, 1]


def test_quotient_dimension_mismatch():
    Q, _ = quotient(stack_rows(2, [[1, 0]]))
    with pytest.raises(DimensionMismatch):
        Q.apply([1, 1, 0])


matrix_strategy = st.tuples(
    st.sampled_from([2, 3, 5]),
    st.integers(1, 5),
    st.integers(1, 5),
    st.integers(0, 2**30),
)


@given(matrix_strategy)
@settings(max_examples=120, deadline=None)
def test_rank_nullity(args):
    p, m, n, seed = args
    rng = np.random.default_rng(seed)
    A = FpMatrix(p, rng.integers(0, p, size=(m, n)))
    assert rank(A) + nullspace(A).rows == n


@given(matrix_strategy)
@settings(max_examples=120, deadline=None)
def test_solutions_satisfy_system(args):
    p, m, n, seed = args
    rng = np.random.default_rng(seed)
    A = FpMatrix(p, rng.integers(0, p, size=(m, n)))
    x0 = rng.integers(0, p, size=n)
    b = A.apply(x0)
    s = solve_affine(A, b)
    assert s is not None
    assert np.array_equal(s.basis, nullspace(A).a)
    for v in enumerate_points(s, cap=4096) if s.size() <= 4096 else [s.representative]:
        assert np.array_equal(A.apply(v), b)


def test_solve_affine_reduces_once(monkeypatch):
    # the kernel basis comes off the solve's own RREF, independent by
    # construction, so no second reduction re-checks it
    import stmodcat.linalg as linalg
    calls = []

    def counting(M):
        calls.append(M.a.shape)
        return rref(M)

    monkeypatch.setattr(linalg, "rref", counting)
    A = FpMatrix(3, [[1, 2, 0, 1], [2, 1, 1, 0]])
    s = solve_affine(A, [1, 2])
    assert len(calls) == 1 and s.dim == 2
    checked = AffineSpace(3, 4, s.representative, s.basis)  # passes the public check
    assert np.array_equal(checked.representative, s.representative)
    assert np.array_equal(checked.basis, s.basis)


def kernel_from_rref(R, pivots, n, p):
    """The earlier numpy kernel read-off, kept verbatim as a reference: the
    nullspace basis and free columns of a reduction starting with rref(A)."""
    free = [j for j in range(n) if j not in pivots]
    basis = np.zeros((len(free), n), dtype=np.int64)
    basis[range(len(free)), free] = 1
    basis[:, pivots] = (-R[:len(pivots), free].T) % p
    return basis, free


def assert_as_checked(a, p, ndim=2):
    assert a.ndim == ndim and a.dtype == np.int64
    assert ((0 <= a) & (a < p)).all()


@given(matrix_strategy)
@settings(max_examples=120, deadline=None)
def test_trusted_outputs_are_what_the_checked_constructor_makes(args):
    # every matrix linalg wraps without a check is 2-D int64, reduced,
    # read-only, and equal (with an equal hash) to the checked construction
    p, m, n, seed = args
    rng = np.random.default_rng(seed)
    A, B = (FpMatrix(p, rng.integers(0, p, size=(m, n))) for _ in range(2))
    C = FpMatrix(p, rng.integers(0, p, size=(n, m)))
    X = FpMatrix(p, rng.integers(0, p, size=(n, 2)))
    R, pivots = rref(A)
    Q, free = quotient(A)
    outs = [R, Q, nullspace(A), row_space_basis(A), solve_columns(A, A @ X),
            right_inverse(row_space_basis(A)), A @ C, A + B, A - B, -A,
            A.scale(int(rng.integers(-9, 10))), A.transpose()]
    for out in outs:
        assert_as_checked(out.a, p)
        assert not out.a.flags.writeable
        checked = FpMatrix(p, out.a)
        assert out == checked and hash(out) == hash(checked)
    # the kernel read off the rref's list rows is the numpy read-off
    ref, ref_free = kernel_from_rref(R.a, pivots, n, p)
    assert free == ref_free and np.array_equal(Q.a, ref)
    # and so is solve_affine's, with its representative, off the augmented rref
    b = A.apply(rng.integers(0, p, size=n))
    s = solve_affine(A, b)
    aug, aug_pivots = rref(FpMatrix(p, np.hstack([A.a, b.reshape(-1, 1)])))
    rep = np.zeros(n, dtype=np.int64)
    rep[aug_pivots] = aug.a[:len(aug_pivots), n]
    assert_as_checked(s.representative, p, ndim=1)
    assert_as_checked(s.basis, p)
    assert np.array_equal(s.representative, rep)
    assert np.array_equal(s.basis, kernel_from_rref(aug.a, aug_pivots, n, p)[0])
    assert np.array_equal(s.basis, FpMatrix(p, s.basis).a)


@given(matrix_strategy)
@settings(max_examples=120, deadline=None)
def test_quotient_coords_separates_exactly(args):
    p, m, n, seed = args
    rng = np.random.default_rng(seed)
    sub = FpMatrix(p, rng.integers(0, p, size=(m, n)))
    v = rng.integers(0, p, size=n)
    w = rng.integers(0, p, size=n)
    Q, _ = quotient(sub)
    same = np.array_equal(Q.apply(v), Q.apply(w))
    assert same == in_span(sub, (v - w) % p)


@given(matrix_strategy)
@settings(max_examples=60, deadline=None)
def test_lift_is_section(args):
    p, m, n, seed = args
    rng = np.random.default_rng(seed)
    sub = FpMatrix(p, rng.integers(0, p, size=(m, n)))
    Q, free = quotient(sub)
    c = Q.apply(rng.integers(0, p, size=n))
    lift = np.zeros(n, dtype=np.int64)
    lift[free] = c
    assert np.array_equal(Q.apply(lift), c)


def test_rref_is_idempotent_and_deterministic():
    A = FpMatrix(3, [[2, 1, 0], [1, 2, 1], [0, 1, 2]])
    R1, piv1 = rref(A)
    R2, piv2 = rref(R1)
    assert R1 == R2 and piv1 == piv2


@st.composite
def fp_matrices(draw, max_rows=6, max_cols=7):
    p = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.integers(0, max_rows))
    n = draw(st.integers(1, max_cols))
    entries = draw(st.lists(st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
                            min_size=m, max_size=m))
    return FpMatrix(p, np.array(entries, dtype=np.int64).reshape(m, n))


def reference_rref(M):
    """Gauss-Jordan elimination over the full width at every pivot step."""
    p, A = M.p, M.a.copy()
    m, n = A.shape
    pivots, r = [], 0
    for c in range(n):
        rows = [i for i in range(r, m) if A[i, c]]
        if not rows:
            continue
        A[[r, rows[0]]] = A[[rows[0], r]]
        A[r] = (A[r] * pow(int(A[r, c]), p - 2, p)) % p
        for i in range(m):
            if i != r:
                A[i] = (A[i] - A[i, c] * A[r]) % p
        pivots.append(c)
        r += 1
    return A, pivots


@given(fp_matrices())
@settings(max_examples=150, deadline=None)
def test_rref_matches_full_width_reference(M):
    R, pivots = rref(M)
    ref, ref_pivots = reference_rref(M)
    assert pivots == ref_pivots
    assert np.array_equal(R.a, ref)


def numpy_rref(M):
    """The earlier numpy elimination, kept verbatim as a reference: every
    row is updated at every pivot step, zero multiples included."""
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
        A[r, c:] = (A[r, c:] * pow(int(A[r, c]), p - 2, p)) % p
        col = A[:, c].copy()
        col[r] = 0
        A[:, c:] = (A[:, c:] - np.outer(col, A[r, c:])) % p
        pivots.append(c)
        r += 1
    return FpMatrix(p, A), pivots


def assert_same_rref(M):
    R, pivots = rref(M)
    ref, ref_pivots = numpy_rref(M)
    assert pivots == ref_pivots
    assert R.a.dtype == ref.a.dtype and R.a.shape == ref.a.shape
    assert np.array_equal(R.a, ref.a)
    return R, pivots


@st.composite
def engine_sized_matrices(draw):
    """Up to 24x32 (empty shapes included) at p in {2, 3, 5, 65521}: sparse
    (each entry nonzero with probability <= 0.2), dense, or dense of low rank."""
    p = draw(st.sampled_from([2, 3, 5, 65521]))
    m, n = draw(st.integers(0, 24)), draw(st.integers(0, 32))
    kind = draw(st.sampled_from(["sparse", "dense", "low_rank"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "sparse":
        density = draw(st.floats(0, 0.2))
        a = rng.integers(1, p, size=(m, n)) * (rng.random((m, n)) < density)
    elif kind == "dense":
        a = rng.integers(0, p, size=(m, n))
    else:
        k = draw(st.integers(0, min(m, n)))
        a = rng.integers(0, p, size=(m, k)) @ rng.integers(0, p, size=(k, n))
    return FpMatrix(p, a.reshape(m, n))


@given(engine_sized_matrices())
@settings(max_examples=300, deadline=None)
def test_rref_matches_the_numpy_elimination(M):
    assert_same_rref(M)


@pytest.mark.parametrize("p, rows, want, want_pivots", [
    (3, np.zeros((3, 4), dtype=np.int64), np.zeros((3, 4)), []),
    (5, np.zeros((0, 3), dtype=np.int64), np.zeros((0, 3)), []),
    (5, np.zeros((2, 0), dtype=np.int64), np.zeros((2, 0)), []),
    (7, np.eye(4, dtype=np.int64), np.eye(4), [0, 1, 2, 3]),
    # column 1 is nonzero only in row 0, which column 0 has already used
    (3, [[1, 2, 0], [0, 0, 2]], [[1, 2, 0], [0, 0, 1]], [0, 2]),
    (2, [[0, 1, 1, 0], [0, 0, 0, 1], [0, 0, 0, 1]],
     [[0, 1, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]], [1, 3]),
    # a leading p - 1 is its own inverse
    (65521, [[65520, 5]], [[1, 65516]], [0]),
    (65521, [[65520, 3], [2, 65520]], np.eye(2), [0, 1]),
])
def test_rref_examples(p, rows, want, want_pivots):
    R, pivots = assert_same_rref(FpMatrix(p, np.asarray(rows, dtype=np.int64)))
    assert pivots == want_pivots
    assert np.array_equal(R.a, np.asarray(want, dtype=np.int64))


@given(fp_matrices())
@settings(max_examples=150, deadline=None)
def test_nullspace_by_definition(M):
    # a column is free when it is in the span of the columns before it
    n = M.cols
    free = [j for j in range(n)
            if rank(FpMatrix(M.p, M.a[:, :j + 1])) == rank(FpMatrix(M.p, M.a[:, :j]))]
    N = nullspace(M)
    assert N.rows == n - rank(M) == len(free)
    for k, q in enumerate(N.a):
        assert not M.apply(q).any()
        assert q[free].tolist() == [int(j == free[k]) for j in free]


@given(fp_matrices())
@settings(max_examples=150, deadline=None)
def test_quotient_is_the_nullspace_read_off(sub):
    Q, free = quotient(sub)
    assert Q == nullspace(sub)
    assert np.array_equal(Q.a[:, free], np.eye(len(free), dtype=np.int64))
    assert not ((sub.a @ Q.a.T) % sub.p).any()  # rows of sub map to class 0


@given(fp_matrices(max_rows=4), st.data())
@settings(max_examples=150, deadline=None)
def test_extending_keeps_the_rows_that_grow_the_prefix_rank(span, data):
    rows = data.draw(st.lists(st.lists(st.integers(0, span.p - 1), min_size=span.cols,
                                       max_size=span.cols), max_size=6))
    cands = stack_rows(span.p, rows, cols=span.cols)
    got = extending(span, cands)
    want = []
    for k in range(cands.rows):
        before = rank(stack_rows(span.p, [*span.a, *cands.a[:k]], cols=span.cols))
        after = rank(stack_rows(span.p, [*span.a, *cands.a[:k + 1]], cols=span.cols))
        if after > before:
            want.append(k)
    assert got == want


@given(fp_matrices(max_rows=4, max_cols=5))
@settings(max_examples=100, deadline=None)
def test_fibers_are_the_solve_over_every_right_hand_side(M):
    # every c: a fiber exactly when the system is consistent, through
    # solve_affine's own representative, along its kernel basis
    F = fibers(M)
    for c in itertools.product(range(M.p), repeat=M.rows):
        c = np.array(c, dtype=np.int64)
        want, got = solve_affine(M, c), F.at(c)
        assert (got is None) == (want is None) == (not F.has(c))
        if want is not None:
            assert np.array_equal(got.representative, want.representative)
            assert np.array_equal(got.basis, want.basis)
            assert F.size() == want.size()


@pytest.mark.parametrize("p, n", itertools.product((2, 3, 5), range(7)))
def test_identity_fibers_are_the_reduced_ones(p, n):
    want, got = fibers(FpMatrix.identity(p, n)), identity_fibers(p, n)
    for name in ("K", "T"):
        a, b = getattr(want, name), getattr(got, name)
        assert (a.shape, a.dtype) == (b.shape, b.dtype) and np.array_equal(a, b), name
    for name in ("p", "ambient_dim", "representative", "basis"):
        a, b = getattr(want.kernel, name), getattr(got.kernel, name)
        assert np.shape(a) == np.shape(b) and np.array_equal(a, b), name
        assert getattr(a, "dtype", None) == getattr(b, "dtype", None), name


@given(fp_matrices(), st.data())
@settings(max_examples=150, deadline=None)
def test_in_span_matches_rank(rows, data):
    v = np.array(data.draw(st.lists(st.integers(0, rows.p - 1),
                                    min_size=rows.cols, max_size=rows.cols)))
    grown = stack_rows(rows.p, list(rows.a) + [v], cols=rows.cols)
    assert in_span(rows, v) == (rank(grown) == rank(rows))


@given(fp_matrices(max_rows=5, max_cols=4), st.data())
@settings(max_examples=100, deadline=None)
def test_span_points_is_the_enumerated_affine_space(dirs, data):
    # zero and dependent direction rows add no point: p^rank points
    p = dirs.p
    offset = data.draw(st.lists(st.integers(0, p - 1), min_size=dirs.cols, max_size=dirs.cols))
    space = AffineSpace(p, dirs.cols, np.array(offset), row_space_basis(dirs).a)
    want = {tuple(int(c) for c in v) for v in enumerate_points(space, p ** dirs.cols)}
    got = span_points(p, offset, dirs.a.tolist())
    assert got == want and len(got) == p ** rank(dirs)


def test_preimage_of_a_point_is_the_solve():
    A = FpMatrix(3, [[1, 2, 0], [0, 1, 1]])
    point = AffineSpace(3, 2, [1, 2], np.zeros((0, 2), dtype=np.int64))
    got, want = preimage(A, point), solve_affine(A, [1, 2])
    assert np.array_equal(got.representative, want.representative)
    assert np.array_equal(got.basis, want.basis)


def test_preimage_of_a_point_is_one_solve(monkeypatch):
    # on a point the quotient is the identity: no rref of the 0-row basis,
    # no identity product, just the solve itself, bit for bit
    import stmodcat.linalg as linalg
    shapes = []

    def recording(M):
        shapes.append(M.a.shape)
        return rref(M)

    monkeypatch.setattr(linalg, "rref", recording)
    A = FpMatrix(5, [[1, 2, 0, 4], [0, 1, 1, 3], [2, 4, 0, 3]])
    for rhs in ([1, 2, 2], [1, 2, 3]):
        point = AffineSpace(5, 3, rhs, np.zeros((0, 3), dtype=np.int64))
        got, want = preimage(A, point), solve_affine(A, rhs)
        if want is None:
            assert got is None
            continue
        assert got.ambient_dim == want.ambient_dim
        for a, b in ((got.representative, want.representative),
                     (got.basis, want.basis)):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert len(shapes) == 4 and all(rows for rows, _ in shapes)


def test_preimage_of_the_whole_ambient_is_everything():
    A = FpMatrix(2, [[1, 1], [0, 1]])
    whole = AffineSpace(2, 2, [1, 0], np.eye(2, dtype=np.int64))
    assert preimage(A, whole).dim == 2


def test_preimage_inconsistent_is_none():
    A = FpMatrix(3, [[1, 0], [1, 0]])     # image is the diagonal
    line = AffineSpace(3, 2, [1, 0], [[1, 1]])
    assert preimage(A, line) is None


def test_preimage_dimension_mismatch():
    point = AffineSpace(2, 3, [0, 0, 0], np.zeros((0, 3), dtype=np.int64))
    with pytest.raises(DimensionMismatch):
        preimage(FpMatrix(2, [[1, 0], [0, 1]]), point)


@st.composite
def preimage_problems(draw):
    p = draw(st.sampled_from([2, 3]))
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    entries = st.integers(0, p - 1)
    M = draw(st.lists(st.lists(entries, min_size=k, max_size=k),
                      min_size=n, max_size=n))
    rep = draw(st.lists(entries, min_size=n, max_size=n))
    dirs = draw(st.lists(st.lists(entries, min_size=n, max_size=n), max_size=n))
    basis = row_space_basis(stack_rows(p, dirs, cols=n))
    return (FpMatrix(p, np.array(M, dtype=np.int64).reshape(n, k)),
            AffineSpace(p, n, rep, basis.a))


@given(preimage_problems())
@settings(max_examples=150, deadline=None)
def test_preimage_matches_brute_force(problem):
    M, space = problem
    targets = {tuple(v.tolist()) for v in enumerate_points(space)}
    expected = {x for x in itertools.product(range(M.p), repeat=M.cols)
                if tuple(M.apply(x).tolist()) in targets}
    got = preimage(M, space)
    if got is None:
        assert not expected
    else:
        assert {tuple(v.tolist()) for v in enumerate_points(got)} == expected
