import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stmodcat.linalg import (
    AffineSpace,
    DimensionMismatch,
    Echelon,
    EnumerationOverflow,
    FpMatrix,
    ModulusMismatch,
    enumerate_points,
    in_span,
    lift_quotient_coords,
    nullspace,
    quotient_coords,
    rank,
    rref,
    solve_affine,
    stack_rows,
)


def test_modulus_must_be_prime():
    with pytest.raises(ModulusMismatch):
        FpMatrix(4, [[1]])
    with pytest.raises(ModulusMismatch):
        FpMatrix(1, [[0]])


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


def test_enumerate_cardinality():
    s = AffineSpace(2, 3, [0, 0, 0], [[1, 0, 0], [0, 1, 0]])
    assert len(enumerate_points(s)) == 4


def test_enumerate_overflow():
    s = AffineSpace(3, 2, [0, 0], [[1, 0], [0, 1]])
    with pytest.raises(EnumerationOverflow):
        enumerate_points(s, cap=8)


def test_quotient_coords_examples():
    sub = stack_rows(2, [[1, 0]])
    assert quotient_coords(sub, [1, 1]).tolist() == [1]  # class of (0,1)
    whole = FpMatrix(2, [[1, 0], [0, 1]])
    assert quotient_coords(whole, [1, 1]).tolist() == []
    empty = stack_rows(2, [], cols=2)
    assert quotient_coords(empty, [1, 1]).tolist() == [1, 1]


def test_quotient_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        quotient_coords(stack_rows(2, [[1, 0]]), [1, 1, 0])


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


@given(matrix_strategy)
@settings(max_examples=120, deadline=None)
def test_quotient_coords_separates_exactly(args):
    p, m, n, seed = args
    rng = np.random.default_rng(seed)
    sub = FpMatrix(p, rng.integers(0, p, size=(m, n)))
    v = rng.integers(0, p, size=n)
    w = rng.integers(0, p, size=n)
    same = np.array_equal(quotient_coords(sub, v), quotient_coords(sub, w))
    assert same == in_span(sub, (v - w) % p)


@given(matrix_strategy)
@settings(max_examples=60, deadline=None)
def test_lift_is_section(args):
    p, m, n, seed = args
    rng = np.random.default_rng(seed)
    sub = FpMatrix(p, rng.integers(0, p, size=(m, n)))
    v = rng.integers(0, p, size=n)
    c = quotient_coords(sub, v)
    assert np.array_equal(quotient_coords(sub, lift_quotient_coords(sub, c)), c)


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


@given(fp_matrices(max_rows=8))
@settings(max_examples=150, deadline=None)
def test_echelon_add_reports_rank_growth(M):
    span = Echelon(M.p, M.cols)
    for k, v in enumerate(M.a):
        before = rank(stack_rows(M.p, M.a[:k], cols=M.cols))
        after = rank(stack_rows(M.p, M.a[:k + 1], cols=M.cols))
        assert (not span.reduce(v).any()) == (after == before)
        assert span.add(v) == (after > before)
        assert span.rank == after
    for v in M.a:
        assert not span.reduce(v).any()


@given(fp_matrices(), st.data())
@settings(max_examples=150, deadline=None)
def test_in_span_matches_rank(rows, data):
    v = np.array(data.draw(st.lists(st.integers(0, rows.p - 1),
                                    min_size=rows.cols, max_size=rows.cols)))
    grown = stack_rows(rows.p, list(rows.a) + [v], cols=rows.cols)
    assert in_span(rows, v) == (rank(grown) == rank(rows))
