import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import change_basis, modules

from stmodcat import linalg, stcat
from stmodcat.linalg import (
    FpMatrix,
    quotient,
    right_inverse,
    rref,
    solve_affine,
    solve_columns,
    stack_rows,
)
from stmodcat.modrep import (
    RMap,
    RModule,
    Ring,
    block_map,
    direct_sum,
    free_module,
    hom_basis,
    identity_map,
    jordan_type,
    module_from_partition,
    mu_map,
    omega,
    partition_layout,
    sigma,
    zero_map,
    zero_module,
)
from stmodcat.stcat import (
    DIRECT,
    OP,
    StableHomSpace,
    StCatError,
    Triangle,
    cone_triangle,
    counit_iso,
    fiber_triangle,
    is_distinguished,
    is_stable_iso,
    is_stably_zero,
    omega_ob,
    post_matrix,
    pre_matrix,
    rotate,
    rotate_back,
    sigma_map,
    sigma_ob,
    sigma_omega_comparison,
    stable_hom,
    stable_inverse,
    stably_equal,
    susp_ob,
    unit_iso,
)

R24 = Ring(2, 4)
R33 = Ring(3, 3)

k24 = module_from_partition(R24, [1])
M24 = module_from_partition(R24, [2])
Ok24 = module_from_partition(R24, [3])
k33 = module_from_partition(R33, [1])
M33 = module_from_partition(R33, [2])


def test_stable_hom_k_M():
    S = stable_hom(k24, M24)
    assert S.sdim == 1
    mu_x = mu_map(R24, 1, 2, 1)
    assert S.stable_coords(mu_x) != (0,) * S.sdim


def test_stable_hom_omega_k_M():
    # T(Omega k, M) is 1-dimensional: mu_x dies, mu_1 survives
    S = stable_hom(Ok24, M24)
    assert S.sdim == 1
    assert is_stably_zero(mu_map(R24, 3, 2, 1))
    assert not is_stably_zero(mu_map(R24, 3, 2, 0))


def test_stable_hom_projective_source_and_target():
    R = free_module(R24, 1)
    for N in [k24, M24, Ok24]:
        assert stable_hom(R, N).sdim == 0
        assert stable_hom(N, R).sdim == 0


def test_mu_x_on_M_stably_zero_p3():
    f = mu_map(R33, 2, 2, 1)
    assert is_stably_zero(f)


def test_stably_equal_example():
    f = mu_map(R24, 3, 2, 0)
    g = f + mu_map(R24, 3, 2, 1)
    assert stably_equal(f, g)
    assert not stably_equal(identity_map(k24), zero_map(k24, k24))


def test_stable_dim_invariant_under_free_summands():
    S0 = stable_hom(M24, Ok24).sdim
    Mplus, _, _ = direct_sum([M24, free_module(R24, 2)])
    assert stable_hom(Mplus, Ok24).sdim == S0
    assert stable_hom(M24, direct_sum([Ok24, free_module(R24, 1)])[0]).sdim == S0


def test_cone_of_identity_is_stably_zero():
    t = cone_triangle(identity_map(M24))
    assert t.g.tgt.dim == 0


def test_cone_of_zero_splits():
    t = cone_triangle(zero_map(M24, k24))
    # k + Sigma M, with Sigma M of type [2]
    assert jordan_type(t.g.tgt) == (2, 1)


def test_cone_and_fiber_of_tautological_cover():
    P0 = module_from_partition(R24, [1, 3])
    p = block_map([k24, Ok24], [M24],
                  [[mu_map(R24, 1, 2, 1), mu_map(R24, 3, 2, 0)]])
    ct = cone_triangle(p)
    assert jordan_type(ct.g.tgt) == (2,)  # Sigma M = M
    ft = fiber_triangle(p)
    assert jordan_type(ft.f.src) == (2,)  # the fiber is M again
    # the degree-shifting map M -> Sigma(fiber) = M is mu_x
    SK = sigma_ob(ft.f.src)
    assert SK == M24
    assert stably_equal(ft.h, mu_map(R24, 2, 2, 1))


def test_sigma_map_mu1_is_mu_x_p3():
    # suspending mu_1: M -> k gives mu_x: k -> M under the canonical models
    f = mu_map(R33, 2, 1, 0)
    sf = sigma_map(f)
    assert sf.src == k33 and sf.tgt == M33
    assert stably_equal(sf, mu_map(R33, 1, 2, 1))


def test_unit_counit_are_stable_isos():
    for M in [k24, M24, Ok24, k33, M33]:
        u = unit_iso(M)
        assert is_stable_iso(u)
        c = counit_iso(M)
        assert is_stable_iso(c)


def test_triangle_identity():
    for M in [k24, M24, k33, M33]:
        SM = sigma_ob(M)
        lhs = sigma_map(counit_iso(M)) @ unit_iso(SM)
        assert stably_equal(lhs, identity_map(SM))


def test_stable_inverse():
    u = unit_iso(M33)
    v = stable_inverse(u)
    assert v is not None
    assert stably_equal(v @ u, identity_map(M33))
    assert stable_inverse(zero_map(M24, M24)) is None


def test_rotate_roundtrip():
    t = cone_triangle(mu_map(R33, 1, 2, 1))
    rt = rotate_back(rotate(t))
    assert stably_equal(rt.f, t.f) and stably_equal(rt.g, t.g) and stably_equal(rt.h, t.h)
    tr = rotate(rotate_back(t))
    assert stably_equal(tr.f, t.f) and stably_equal(tr.g, t.g) and stably_equal(tr.h, t.h)


def test_rotations_stay_distinguished():
    for f in [mu_map(R33, 1, 2, 1), mu_map(R24, 3, 2, 0)]:
        t = cone_triangle(f)
        assert is_distinguished(t)
        assert is_distinguished(rotate(t))
        assert is_distinguished(rotate_back(t))


def test_fiber_matches_rotated_cone():
    f = mu_map(R33, 1, 2, 1)
    ft = fiber_triangle(f)
    assert is_distinguished(ft)
    bt = rotate_back(cone_triangle(f))
    assert is_distinguished(bt)
    assert jordan_type(bt.f.src) == jordan_type(ft.f.src)


@pytest.mark.parametrize("A", [k24, M24, Ok24, M33, direct_sum([k33, M33])[0]])
@pytest.mark.parametrize("k", range(4))
def test_sigma_omega_comparison_is_a_stable_iso(A, k):
    f = sigma_omega_comparison(A, k)
    assert f.src == susp_ob(susp_ob(A, -k), k) and f.tgt == A
    assert is_stable_iso(f)


@pytest.mark.parametrize("k", [-1, -3])
def test_sigma_omega_comparison_refuses_a_negative_k(k):
    with pytest.raises(StCatError, match=f"k = {k} < 0"):
        sigma_omega_comparison(M24, k)


def test_is_stable_iso_examples():
    assert is_stable_iso(identity_map(M24))
    assert not is_stable_iso(zero_map(M24, M24))
    assert not is_stable_iso(mu_map(R24, 3, 2, 0))


def test_corrupted_triangle_not_distinguished():
    t = cone_triangle(mu_map(R24, 1, 2, 1))
    if not is_stably_zero(t.h):
        bad = Triangle(t.f, t.g, zero_map(t.h.src, t.h.tgt))
        assert not is_distinguished(bad)


def test_op_cone_is_fiber():
    f = mu_map(R33, 1, 2, 1)
    C_op, q_op, i_op = OP.cone(f)
    assert jordan_type(C_op) == jordan_type(fiber_triangle(f).f.src)


def _single_block_maps(ring):
    m = ring.m
    return [mu_map(ring, a, b, j) for a in range(1, m + 1)
            for b in range(1, m + 1) for j in range(max(0, b - a), b)]


@pytest.mark.parametrize("ctx", [DIRECT, OP], ids=lambda c: c.name)
@pytest.mark.parametrize("p, m", [(2, 3), (3, 3)])
def test_context_cone_is_distinguished(ctx, p, m):
    maps = _single_block_maps(Ring(p, m))
    assert len(maps) == 14
    for f in maps:
        C, q, iota = ctx.cone(f)
        assert ctx.is_distinguished(f, q, iota), f


def test_op_context_hom_and_compose():
    f = mu_map(R33, 1, 2, 1)   # direct: k -> M; op: M -> k
    assert OP.src(f) == M33 and OP.tgt(f) == k33
    g = mu_map(R33, 2, 1, 0)   # direct: M -> k; op: k -> M
    assert stably_equal(OP.compose(f, g), g @ f)


def test_sigma_omega_transport_consistency():
    # susp then desusp returns maps equal up to the stored comparisons
    f = mu_map(R24, 3, 2, 0)
    from stmodcat.stcat import omega_map
    g = omega_map(sigma_map(f))
    lhs = g @ unit_like(f.src)
    rhs = unit_like(f.tgt) @ f
    assert stably_equal(lhs, rhs)


def unit_like(M):
    # comparison M -> Omega Sigma M; the mate direction of counit
    c = counit_iso(M)
    inv = stable_inverse(c)
    assert inv is not None
    return inv


def test_triple_rotation_is_negated_suspension():
    from stmodcat.stcat import rotate_steps

    t = cone_triangle(mu_map(R33, 1, 2, 1))
    r3 = rotate_steps(t, 3)
    assert stably_equal(r3.f, -sigma_map(t.f))
    assert stably_equal(r3.g, -sigma_map(t.g))
    assert stably_equal(r3.h, -sigma_map(t.h))


def test_stable_iso_iff_two_sided_inverse():
    candidates = [
        identity_map(M33),
        zero_map(M33, M33),
        mu_map(R24, 3, 2, 0),
        unit_iso(M24),
    ]
    for f in candidates:
        assert is_stable_iso(f) == (stable_inverse(f) is not None)


def test_zero_module_edges():
    from stmodcat.modrep import zero_module
    from stmodcat.toda import bracket3

    Z = zero_module(R33)
    t = cone_triangle(zero_map(Z, M33))
    assert jordan_type(t.g.tgt) == (2,)
    bs = bracket3(zero_map(M33, Z), zero_map(k33, M33), zero_map(Z, k33))
    assert bs.elements == {()}  # the one class of the zero group


def test_stable_coords_rejects_a_map_from_another_hom_space():
    R = Ring(2, 3)
    k4 = module_from_partition(R, [1] * 4)
    k = module_from_partition(R, [1])
    f = RMap(k4, k, FpMatrix(2, [[1, 1, 1, 1]]))
    M = module_from_partition(R, [2])
    with pytest.raises(StCatError):
        stable_hom(M, M).stable_coords(f)
    assert stable_hom(k4, k).stable_coords(f) == (1, 1, 1, 1)


def test_hom_coords_rejects_a_map_from_another_hom_space():
    # k^4 -> k has as many entries as an endomorphism of R/x^2
    R = Ring(2, 3)
    k4 = module_from_partition(R, [1] * 4)
    f = RMap(k4, module_from_partition(R, [1]), FpMatrix(2, [[1, 1, 1, 1]]))
    M = module_from_partition(R, [2])
    with pytest.raises(StCatError):
        stable_hom(M, M).hom_coords(f)
    assert list(stable_hom(k4, f.tgt).hom_coords(f)) == [1, 1, 1, 1]


def _adjoint_mate(M: RModule) -> RMap:
    """The counit by its defining property: the one stable class c in
    T(Omega Sigma M, M) with Sigma(c) . unit_{Sigma M} = id_{Sigma M},
    solved for by suspending every basis class."""
    SM = sigma_ob(M)
    space, ends = stable_hom(omega_ob(SM), M), stable_hom(SM, SM)
    u = unit_iso(SM)
    mat = space.matrix_to(ends, lambda c: sigma_map(c) @ u)
    sol = solve_affine(mat, np.array(ends.stable_coords(identity_map(SM)), dtype=np.int64))
    assert sol is not None and sol.dim == 0
    return space.from_stable_coords(sol.representative)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_counit_is_the_adjoint_mate_of_the_unit(p):
    # counit_iso is built as the unit's dual; it must be the mate, bit for
    # bit, in canonical layout and off it (free summands included)
    rng = np.random.default_rng(p)
    for m, parts in [(2, [1]), (2, [2, 1]), (3, [2]), (3, [3, 1]), (3, [2, 1, 1]),
                     (4, [3, 2]), (4, [4, 2, 1]), (5, [4, 3, 1]), (5, [3, 2, 2])]:
        M = module_from_partition(Ring(p, m), parts)
        n = M.dim
        for X in (M, change_basis(M, rng.integers(0, p, (n, n)),
                                  rng.integers(0, p, (n, n)))):
            c = counit_iso(X)
            assert c == _adjoint_mate(X)
            SX = sigma_ob(X)
            assert stably_equal(sigma_map(c) @ unit_iso(SX), identity_map(SX))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_hom_coords_round_trip(data):
    ring = Ring(data.draw(st.sampled_from([2, 3, 5])), data.draw(st.integers(2, 3)))
    M, N = data.draw(modules(ring)), data.draw(modules(ring))
    S = stable_hom(M, N)
    H = hom_basis(M, N)
    c = np.array(data.draw(st.lists(st.integers(0, ring.p - 1),
                                    min_size=len(H), max_size=len(H))),
                 dtype=np.int64)
    f = RMap(M, N, FpMatrix(ring.p, np.tensordot(c, H, axes=1)))
    assert np.array_equal(S.hom_coords(f), c)


def _draw_map(data, A, B) -> RMap:
    """A random combination of the hom basis, not just a canonical lift."""
    basis = hom_basis(A, B)
    c = data.draw(st.lists(st.integers(0, A.ring.p - 1),
                           min_size=len(basis), max_size=len(basis)))
    return RMap(A, B, FpMatrix(A.ring.p, np.tensordot(np.array(c, dtype=np.int64),
                                                      basis, axes=1)))


def _same_solutions(got, want) -> bool:
    if want is None:
        return got is None
    return (got is not None
            and np.array_equal(got.representative, want.representative)
            and np.array_equal(got.basis, want.basis))


@given(st.data())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_op_one_sided_solves_are_the_dual_direct_solves(data):
    # OP inherits solve_post/solve_pre from the direct context; they must be
    # the swapped direct solves, bit for bit, including the None case
    ring = Ring(data.draw(st.sampled_from([2, 3])), data.draw(st.integers(2, 3)))
    X, Y, Z = (data.draw(modules(ring)) for _ in range(3))
    # underlying g: X -> Y; OP.solve_post(g, t) solves u . g = t for u: Y -> Z
    g = _draw_map(data, X, Y)
    t = (_draw_map(data, Y, Z) @ g if data.draw(st.booleans())
         else _draw_map(data, X, Z))
    want = solve_affine(pre_matrix(g, Z),
                        np.array(stable_hom(X, Z).stable_coords(t), dtype=np.int64))
    assert _same_solutions(OP.solve_post(g, t), want)
    # underlying f: Y -> X; OP.solve_pre(f, t) solves f . u = t for u: Z -> Y
    f = _draw_map(data, Y, X)
    t = (f @ _draw_map(data, Z, Y) if data.draw(st.booleans())
         else _draw_map(data, Z, X))
    want = solve_affine(post_matrix(f, Z),
                        np.array(stable_hom(Z, X).stable_coords(t), dtype=np.int64))
    assert _same_solutions(OP.solve_pre(f, t), want)


# ---------------------------------------------------------------------------
# composition matrices: one batched product, checked against the matrix of
# the per-class composite loop


def _per_class_matrices(f, A):
    """(post, pre) matrices of f with A, one quotient basis class at a time."""
    post = stable_hom(A, f.src).matrix_to(stable_hom(A, f.tgt), lambda u: f @ u)
    pre = stable_hom(f.tgt, A).matrix_to(stable_hom(f.src, A), lambda u: u @ f)
    return post, pre


@given(st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_composition_matrices_match_the_per_class_loop(data):
    ring = Ring(data.draw(st.sampled_from([2, 3])), data.draw(st.integers(2, 4)))
    X, Y, A = (data.draw(modules(ring)) for _ in range(3))
    f = _draw_map(data, X, Y)
    assert (post_matrix(f, A), pre_matrix(f, A)) == _per_class_matrices(f, A)


Z33, F33 = zero_module(R33), free_module(R33, 1)


@pytest.mark.parametrize("f, A", [
    (identity_map(M33), Z33),            # every group of A is empty
    (zero_map(Z33, k33), M33),           # f starts at the zero module
    (mu_map(R33, 2, 3, 1), k33),         # T(k, F) = 0, with entries
    (identity_map(F33), M33),            # both sides 0, with entries
    (mu_map(R33, 1, 2, 1), M33),
], ids=["empty_A", "empty_src", "zero_group_tgt", "zero_groups", "k_to_M"])
def test_composition_matrices_on_empty_modules_and_zero_groups(f, A):
    post, pre = _per_class_matrices(f, A)
    assert post_matrix(f, A) == post and pre_matrix(f, A) == pre
    assert post.a.shape == (stable_hom(A, f.tgt).sdim, stable_hom(A, f.src).sdim)


# ---------------------------------------------------------------------------
# stable homs between canonical layouts: a selection, checked against the
# elimination every other layout takes


def _eliminated(M, N):
    """(_solve_T, _stable_T, _lift, sdim) of T(M, N) by elimination, for any
    layouts: the hom solver from rref([flat | I_h]), then the quotient by the
    hom coordinates of the maps lifting along the projective cover of N."""
    p, n = M.ring.p, M.dim * N.dim
    basis = hom_basis(M, N)
    h = len(basis)
    flat = stack_rows(p, [b.reshape(-1) for b in basis], cols=n)
    R, piv = rref(FpMatrix(p, np.hstack([flat.a, np.eye(h, dtype=np.int64)])))
    T = np.zeros((h, n), dtype=np.int64)
    T[:, piv] = R.a[:, n:].T
    _, _, cover = omega(N)
    trivial = [(T @ ((cover.A.a @ u) % p).reshape(-1)) % p for u in hom_basis(M, cover.src)]
    Q, free = quotient(stack_rows(p, trivial, cols=h))
    return T, (Q.a @ T) % p, flat.a[free].reshape(len(free), n), len(free)


def _closed_sdim(m, sparts, tparts) -> int:
    return sum(min(a, b, m - a, m - b) for a in sparts for b in tparts)


@st.composite
def canonical_pairs(draw):
    ring = Ring(draw(st.sampled_from([2, 3, 5])), draw(st.integers(1, 6)))
    parts = st.lists(st.integers(1, ring.m), max_size=4)
    return ring, draw(parts), draw(parts)


@given(canonical_pairs())
@example((Ring(2, 1), [1, 1], [1]))
@example((Ring(3, 4), [], [4, 2, 1]))
@example((Ring(5, 3), [3, 1], []))
@settings(max_examples=120, deadline=None)
def test_canonical_stable_hom_is_the_elimination(pair):
    # full arrays, not just values on maps of the space
    ring, sparts, tparts = pair
    M, N = module_from_partition(ring, sparts), module_from_partition(ring, tparts)
    S = StableHomSpace(M, N)
    solve_T, stable_T, lift, sdim = _eliminated(M, N)
    assert np.array_equal(S._solve_T.a, solve_T)
    assert np.array_equal(S._stable_T.a, stable_T)
    assert np.array_equal(S._lift, lift)
    assert S.sdim == sdim == _closed_sdim(ring.m, sparts, tparts)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_off_layout_stable_hom_is_the_per_map_elimination(data):
    # off canonical layout the maps lifting along the cover are composed and
    # read in hom coordinates in one batched product; it must give the arrays
    # of the per-map reference
    ring = Ring(data.draw(st.sampled_from([2, 3, 5])), data.draw(st.integers(1, 4)))
    M, N = data.draw(modules(ring)), data.draw(modules(ring))
    assume(partition_layout(M) is None or partition_layout(N) is None)
    S = StableHomSpace(M, N)
    solve_T, stable_T, lift, sdim = _eliminated(M, N)
    assert np.array_equal(S._solve_T.a, solve_T)
    assert np.array_equal(S._stable_T.a, stable_T)
    assert np.array_equal(S._lift, lift)
    assert S.sdim == sdim


def test_canonical_stable_homs_eliminate_nothing(monkeypatch):
    # a canonical pair must never fall back to elimination
    def refuse(M):
        raise AssertionError("rref on a canonical pair")

    for mod in (linalg, stcat):
        monkeypatch.setattr(mod, "rref", refuse)
    for ring, types in [(Ring(3, 5), [[5, 5, 4, 3, 2, 1], [5, 4, 3, 1], [4, 3, 2, 1],
                                      [2], []]),
                        (Ring(2, 1), [[1, 1], [1], []])]:
        mods = [module_from_partition(ring, t) for t in types]
        for M, s in zip(mods, types):
            for N, t in zip(mods, types):
                assert StableHomSpace(M, N).sdim == _closed_sdim(ring.m, s, t)


# ---------------------------------------------------------------------------
# induced maps through a free module: one column solve each, checked against
# the hom-space solve they replace, kept here as the reference


def _combination(H: np.ndarray, L: np.ndarray, rhs: FpMatrix) -> FpMatrix:
    """sum c_k H[k] for some c with sum c_k L[k] = rhs: H stacks a hom
    basis and L its images under a fixed composition."""
    sol = solve_affine(FpMatrix(rhs.p, L.reshape(len(L), -1).T), rhs.a.reshape(-1))
    if sol is None:
        raise StCatError("no exact intertwiner; construction is inconsistent")
    return FpMatrix(rhs.p, np.tensordot(sol.representative, H, axes=1))


def _ref_cokernel_map(i: FpMatrix, rhs: FpMatrix, c: RMap, q: RMap) -> RMap:
    if c.tgt.dim == 0 or q.tgt.dim == 0:
        return zero_map(c.tgt, q.tgt)
    H = hom_basis(c.src, q.src)
    F = _combination(H, H @ i.a, rhs)
    return RMap(c.tgt, q.tgt, q.A @ F @ right_inverse(c.A))


def _ref_kernel_map(c: RMap, rhs: FpMatrix, j: RMap, k: RMap) -> RMap:
    if j.src.dim == 0 or k.src.dim == 0:
        return zero_map(j.src, k.src)
    H = hom_basis(j.tgt, c.src)
    G = _combination(H, c.A.a @ H, rhs)
    return RMap(j.src, k.src, solve_columns(k.A, G @ j.A))


def _induced_maps(f: RMap) -> list[RMap]:
    """Sigma and Omega of f, the unit and counit of its source, and its
    fiber's connecting map, built afresh (past the memo caches)."""
    return [stcat.sigma_map.__wrapped__(f), stcat.omega_map.__wrapped__(f),
            stcat.unit_iso.__wrapped__(f.src), stcat.counit_iso.__wrapped__(f.src),
            stcat.fiber_triangle.__wrapped__(f).h]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_induced_maps_are_the_hom_space_solve(data):
    # bit for bit, on and off canonical layout: the extension's functionals
    # and the lift's generator values are the hom-space solve's unknowns
    ring = Ring(data.draw(st.sampled_from([2, 3, 5])), data.draw(st.integers(2, 4)))
    f = _draw_map(data, data.draw(modules(ring)), data.draw(modules(ring)))
    got = _induced_maps(f)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stcat, "_cokernel_map", _ref_cokernel_map)
        mp.setattr(stcat, "_kernel_map", _ref_kernel_map)
        want = _induced_maps(f)
    assert got == want


def test_induced_map_without_an_intertwiner_is_refused():
    # both column solves refuse a system with no solution: no map on the
    # zero mono hits a nonzero target, and the zero epi lifts nothing
    _, emb, quot = sigma(M33)
    with pytest.raises(StCatError, match="no exact intertwiner"):
        stcat._cokernel_map(emb.A.scale(0), emb.A, quot, quot)
    _, incl, cover = omega(M33)
    with pytest.raises(StCatError, match="no exact intertwiner"):
        stcat._kernel_map(zero_map(cover.src, M33), cover.A, incl, incl)
