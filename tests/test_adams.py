import functools
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import restricted_per_class

from stmodcat.adams import (
    AdamsError,
    AdamsResolution,
    NotACycle,
    ProjectiveClass,
    _br_rows,
    _connecting_map,
    _precompose,
    _zr_rows,
    adams_resolution,
    bracket_slot,
    dr_bracket_forms,
    dr_set,
    ghost_cover,
    pages,
    restricted_slot,
    sparse_check,
)
from stmodcat.linalg import (
    AffineSpace,
    DimensionMismatch,
    EnumerationOverflow,
    FpMatrix,
    affine_image,
    enumerate_points,
    in_span,
    nullspace,
    preimage,
    quotient,
    row_space_basis,
    rref,
    solve_affine,
    stack_rows,
)
from stmodcat.modrep import (
    RMap,
    Ring,
    block_map,
    free_module,
    hom_basis,
    jordan_type,
    module_from_partition,
    mu_map,
    projective_cover,
)
from stmodcat.stcat import (
    DIRECT,
    is_stably_zero,
    pre_matrix,
    stable_coords,
    stable_hom,
    stably_equal,
    susp_map,
    susp_ob,
)
from stmodcat.toda import (
    BracketSet,
    bracket3,
    bracket_read_off,
    higher_bracket,
    restricted_read_off,
)

R24 = Ring(2, 4)
k = module_from_partition(R24, [1])
Ok = module_from_partition(R24, [3])
M = module_from_partition(R24, [2])
GHOST = ProjectiveClass(k)


@pytest.fixture(scope="module")
def res6():
    return adams_resolution(M, GHOST, 6)


def kappa_map(a=1, b=0):
    entries = [[mu_map(R24, 1, 2, 1, a) if a else None,
                mu_map(R24, 3, 2, 0, b) if b else None]]
    return block_map([k, Ok], [M], entries)


def test_period_detection():
    assert GHOST.period == 2
    assert ProjectiveClass(module_from_partition(Ring(2, 2), [1])).period == 1


def test_ghost_cover_of_M():
    P, p = ghost_cover(M, GHOST)
    assert jordan_type(P) == (3, 1)
    expected = block_map([k, Ok], [M],
                         [[mu_map(R24, 1, 2, 1), mu_map(R24, 3, 2, 0)]])
    assert stably_equal(p, expected)
    assert GHOST.is_epic(p)


def test_ghost_cover_of_generator_is_minimal():
    P, p = ghost_cover(k, GHOST)
    assert jordan_type(P) == (1,)
    assert GHOST.is_epic(p)


def test_ghost_cover_of_projective_is_zero():
    P, p = ghost_cover(free_module(R24, 2), GHOST)
    assert P.dim == 0


def test_resolution_shape(res6):
    assert all(jordan_type(X) == (2,) for X in res6.X)
    assert all(jordan_type(P) == (3, 1) for P in res6.P)
    for s in range(res6.length):
        assert GHOST.is_null(res6.dbar[s])
        assert GHOST.is_epic(res6.p[s])


def test_resolution_of_projective_dies():
    res = adams_resolution(free_module(R24, 1), GHOST, 3)
    assert all(X.dim == 0 for X in res.X[1:])


def test_resolution_of_generator(res6):
    res = adams_resolution(k, GHOST, 3)
    assert jordan_type(res.P[0]) == (1,)
    assert res.X[1].dim == 0
    assert is_stably_zero(res.dbar[0])


def test_d1_simplified_form(res6):
    d1 = res6.d1op(0)
    expected = block_map([k, Ok], [k, Ok],
                         [[None, mu_map(R24, 3, 1, 0)],
                          [mu_map(R24, 1, 3, 2), None]])
    assert stably_equal(d1, expected)


def test_resolution_triangles_distinguished(res6):
    from stmodcat.stcat import is_distinguished
    for s in range(3):
        assert is_distinguished(res6.triangle(s))


def test_e1_dimensions(res6):
    for s in range(5):
        for t in range(2):
            assert stable_hom(susp_ob(res6.P[s], t), M).sdim == 2


def test_pages_e2_is_homology_of_e1(res6):
    pgs = pages(res6, M, 3)
    p1, p2 = pgs[0], pgs[1]
    for (s, t), g2 in p2.groups.items():
        d_out = p1.differentials.get((s, t))
        d_in = p1.differentials.get((s - 1, t))
        g1 = p1.groups[(s, t)]
        from stmodcat.linalg import rank
        kdim = g1.dim - (rank(d_out) if d_out is not None else 0)
        idim = rank(d_in) if d_in is not None else 0
        assert g2.dim == kdim - idim, (s, t)


def _class_coords_reference(g, coords):
    """E_r coordinates as first defined: solve in the Z basis, reduce modulo B."""
    p, zt = g.Z.p, g.Z.transpose()
    zc = solve_affine(zt, coords).representative
    rows = [solve_affine(zt, b).representative for b in g.B.a]
    R, pivots = rref(stack_rows(p, rows, cols=g.Z.rows))
    for i, pc in enumerate(pivots):
        zc = (zc - zc[pc] * R.a[i]) % p
    return tuple(int(x) for j, x in enumerate(zc) if j not in pivots)


@pytest.mark.parametrize("p, m, parts", [(2, 4, [2]), (3, 5, [2, 1])])
def test_class_coords_matches_reference(p, m, parts):
    # the prop_a1 resolution, and one at odd p with boundaries on E_2 and E_3
    ring = Ring(p, m)
    MM = module_from_partition(ring, parts)
    res = adams_resolution(MM, ProjectiveClass(module_from_partition(ring, [1])), 6)
    rng = np.random.default_rng(5)
    for page in pages(res, MM, 3):
        for g in page.groups.values():
            mixed = [rng.integers(0, p, size=g.Z.rows) @ g.Z.a % p for _ in range(8)]
            for v in list(g.Z.a) + list(g.B.a) + mixed:
                assert g.class_coords(v) == _class_coords_reference(g, v), (page.r, g.s, g.t)


@functools.cache
def _prop_a1_groups():
    return [g for page in pages(adams_resolution(M, GHOST, 6), M, 3)
            for g in page.groups.values()]


@given(st.data())
@settings(max_examples=25, deadline=None, derandomize=True)
def test_class_coords_raises_exactly_off_the_cycles(data):
    # membership is read off the RREF pivots of Z; it must agree with in_span
    for g in _prop_a1_groups():
        v = np.array(data.draw(st.lists(st.integers(0, 1), min_size=g.Z.cols,
                                        max_size=g.Z.cols)), dtype=np.int64)
        if in_span(g.Z, v):
            g.class_coords(v)
        else:
            with pytest.raises(NotACycle):
                g.class_coords(v)
        with pytest.raises(DimensionMismatch):
            g.class_coords(np.zeros(g.Z.cols + 1, dtype=np.int64))


@pytest.mark.parametrize("p, m, parts", [(2, 4, [2]), (3, 5, [2, 1]), (3, 4, [2]),
                                        (2, 4, [1, 3])])
def test_page_differentials_match_dr_set(p, m, parts):
    # pages reads d_r off one chain per Z row, dr_set enumerates them all:
    # every element of d_r[z] must have the class in that page's column
    ring = Ring(p, m)
    MM = module_from_partition(ring, parts)
    res = adams_resolution(MM, ProjectiveClass(module_from_partition(ring, [1])), 6)
    rows = 0
    for page in pages(res, MM, 3)[1:]:
        r = page.r
        for (s, t), mat in page.differentials.items():
            tgt = page.groups[(s + r, t + r - 1)]
            E = stable_hom(susp_ob(res.P[s], t), MM)
            for i, z in enumerate(page.groups[(s, t)].Z.a):
                d = dr_set(res, MM, E.from_stable_coords(z), r, s, t)
                for e in d.elements:
                    assert tgt.class_coords(e) == tuple(mat.a[:, i].tolist()), (r, s, t, i)
                rows += 1
    assert rows


def test_page_differentials_square_to_zero(res6):
    pgs = pages(res6, M, 3)
    for page in pgs:
        for (s, t), mat in page.differentials.items():
            nxt = page.differentials.get((s + page.r, t + page.r - 1))
            if nxt is not None:
                assert (nxt @ mat).is_zero(), (page.r, s, t)


def test_d2_kappa_quoted_value(res6):
    d2 = dr_set(res6, M, kappa_map(), 2)
    amb = stable_hom(d2.src, d2.tgt)
    sigma_p = block_map([Ok, k], [M],
                        [[mu_map(R24, 3, 2, 0), mu_map(R24, 1, 2, 1)]])
    assert d2.elements == {amb.stable_coords(sigma_p)}
    assert d2.indeterminacy == ()


def test_d2_defined_without_indeterminacy_for_every_kappa(res6):
    E0 = stable_hom(res6.P[0], M)
    for c in itertools.product(range(2), repeat=E0.sdim):
        x = E0.from_stable_coords(c)
        d2 = dr_set(res6, M, x, 2)
        assert d2.indeterminacy == ()
        assert len(d2.elements) == 1


def test_dr_of_zero_class_is_zero_coset(res6):
    E0 = stable_hom(res6.P[0], M)
    z = E0.zero()
    d2 = dr_set(res6, M, z, 2)
    assert (0,) * len(next(iter(d2.elements))) in d2.elements


def test_dr_dr_lands_in_zero_coset(res6):
    E0 = stable_hom(res6.P[0], M)
    for c in itertools.product(range(2), repeat=E0.sdim):
        x = E0.from_stable_coords(c)
        d2 = dr_set(res6, M, x, 2)
        for e in d2.elements:
            amb = stable_hom(d2.src, d2.tgt)
            rep = amb.from_stable_coords(e)
            dd = dr_set(res6, M, rep, 2, s=2, t=1)
            zero = (0,) * len(next(iter(dd.elements)))
            assert zero in dd.elements


def test_insufficient_length_error():
    res = adams_resolution(M, GHOST, 2)
    with pytest.raises(AdamsError):
        dr_set(res, M, kappa_map(), 3)


def test_not_a_cycle_reports_stage(res6):
    # against Y = P_0 the identity class has nonzero d_1
    Y = res6.P[0]
    E0 = stable_hom(res6.P[0], Y)
    bad = None
    for c in itertools.product(range(2), repeat=E0.sdim):
        x = E0.from_stable_coords(c)
        d1 = dr_set(res6, Y, x, 1)
        if (0,) * len(next(iter(d1.elements))) not in d1.elements:
            bad = x
            break
    assert bad is not None
    with pytest.raises(NotACycle):
        dr_set(res6, Y, bad, 2)


def test_not_a_cycle_exactly_outside_z3():
    # at stage 2 some chains fail to extend and others do: a d_2-cycle
    # must survive through the chains that extend
    ring = Ring(3, 5)
    MM = module_from_partition(ring, [2, 1])
    res = adams_resolution(MM, ProjectiveClass(module_from_partition(ring, [1])), 6)
    Z3 = pages(res, MM, 3)[2].groups[(0, 0)].Z
    E0 = stable_hom(res.P[0], MM)
    outside = next(c for c in itertools.product(range(3), repeat=E0.sdim)
                   if not in_span(Z3, np.array(c, dtype=np.int64)))
    for c in [(0,) * E0.sdim] + [tuple(row) for row in Z3.a]:
        d3 = dr_set(res, MM, E0.from_stable_coords(c), 3)
        assert d3.elements, c
    with pytest.raises(NotACycle):
        dr_set(res, MM, E0.from_stable_coords(outside), 3)


def test_d1_as_composition(res6):
    # d_1(x) is x composed with the primary operation
    E0 = stable_hom(res6.P[0], M)
    E1 = stable_hom(susp_ob(res6.P[1], 0), M)
    for c in itertools.product(range(2), repeat=E0.sdim):
        x = E0.from_stable_coords(c)
        d1 = dr_set(res6, M, x, 1)
        assert d1.elements == {E1.stable_coords(x @ res6.d1op(0))}


def test_forms_r2_all_classes_and_r3(res6):
    E0 = stable_hom(res6.P[0], M)
    r3_defined = 0
    for c in itertools.product(range(2), repeat=E0.sdim):
        x = E0.from_stable_coords(c)
        rep = dr_bracket_forms(res6, M, x, 2)
        assert rep.equal_full and rep.equal_restricted and rep.equal_w_filtered
        assert rep.checks["composed_equals_dr"]
        assert rep.checks["chain_inclusion"]
        try:
            rep3 = dr_bracket_forms(res6, M, x, 3)
        except NotACycle:
            continue
        r3_defined += 1
        assert rep3.equal_full and rep3.equal_restricted and rep3.equal_w_filtered
    assert r3_defined >= 1


@pytest.mark.parametrize("p, m, parts", [(2, 4, [2]), (3, 4, [2]), (2, 4, [2, 1])])
def test_delta_composed_matches_the_per_element_composites(p, m, parts):
    # with_delta_composed is read through pre_matrix(Sigma p, Y); each
    # element's representative composed with Sigma p must land on the same set
    ring = Ring(p, m)
    Y = module_from_partition(ring, parts)
    proj = ProjectiveClass(module_from_partition(ring, [1]))
    res = adams_resolution(Y, proj, 4)
    nonzero = 0
    for t in range(proj.period):
        E0 = stable_hom(susp_ob(res.P[0], t), Y)
        ps2 = susp_map(res.p[2], t + 1)
        slot = stable_hom(ps2.src, Y)
        for c in itertools.product(range(p), repeat=E0.sdim):
            try:
                rep = dr_bracket_forms(res, Y, E0.from_stable_coords(c), 2, t=t, cap=20000)
            except NotACycle:
                continue
            v_delta = rep.variants["with_delta"]
            loop = frozenset(slot.stable_coords(u @ ps2) for u in v_delta.rep_maps())
            assert rep.variants["with_delta_composed"] == loop, (t, c)
            nonzero += sum(map(any, loop))
    assert nonzero >= 2 * proj.period  # not only zero images


def test_proper_inclusion_example(res6):
    rep = dr_bracket_forms(res6, M, kappa_map(), 2)
    assert rep.checks["chain_proper"]
    ops = rep.variants["operations_bracket"]
    assert len(ops.elements) == 2  # {[mu_1, b mu_x] : b in F_2}
    amb = stable_hom(ops.src, ops.tgt)
    for b in range(2):
        want = block_map([Ok, k], [M],
                         [[mu_map(R24, 3, 2, 0),
                           mu_map(R24, 1, 2, 1, b) if b else None]])
        assert amb.stable_coords(want) in ops.elements


def test_sparse_check_tate_ring():
    rep = sparse_check(k, 2, 4)
    assert not rep.sparse
    assert 0 in rep.nonzero_degrees and -1 in rep.nonzero_degrees
    for N in (2, 3, 4):
        assert not sparse_check(k, N, 4).sparse


def test_sparse_projective_vacuous():
    rep = sparse_check(free_module(R24, 1), 2, 4)
    assert rep.sparse and rep.vacuous


def test_sparse_check_refuses_bad_bounds():
    # N = 0 used to divide by zero, and window = -1 to report vacuously sparse
    for N, window in [(0, 4), (-3, 4), (2, -1)]:
        with pytest.raises(AdamsError, match="N >= 1 and window >= 0"):
            sparse_check(k, N, window)


def test_sparse_m2_every_degree():
    ring = Ring(2, 2)
    rep = sparse_check(module_from_partition(ring, [1]), 2, 4)
    assert rep.nonzero_degrees == list(range(-4, 5))
    assert not rep.sparse


@pytest.mark.parametrize("G", [k, M, free_module(R24, 1),
                               module_from_partition(Ring(3, 4), [1, 2])],
                         ids=["k", "M", "free", "p3_mixed"])
def test_sparse_check_walks_one_step_per_degree(G, monkeypatch):
    import stmodcat.adams as adams
    import stmodcat.stcat as stcat

    window = 6
    want = {n: stable_hom(susp_ob(G, n), G).sdim for n in range(-window, window + 1)}
    # count every suspension step, taken directly or through susp_ob (so
    # adams need not hold the names itself)
    steps = []

    def counting(step):
        def counted(X):
            steps.append(X)
            return step(X)
        return counted

    for name in ("sigma_ob", "omega_ob"):
        counted = counting(getattr(stcat, name))
        for mod in (adams, stcat):
            monkeypatch.setattr(mod, name, counted, raising=False)
    rep = sparse_check(G, 2, window)
    assert list(rep.dims.items()) == list(want.items())
    assert 0 < len(steps) <= 2 * window


def test_resolution_triangles_pass_heller(res6):
    from stmodcat.heller import heller_check

    for s in range(2):
        assert heller_check(res6.triangle(s)).distinguished


def test_forms_agree_at_odd_p():
    # the set equalities are convention-sensitive; exercise them away from p=2
    for (p, m) in [(3, 3), (3, 4)]:
        ring = Ring(p, m)
        kk = module_from_partition(ring, [1])
        MM = module_from_partition(ring, [2])
        res = adams_resolution(MM, ProjectiveClass(kk), 6)
        for t in range(4):   # odd t carries the sign of the suspended triangle
            E0 = stable_hom(susp_ob(res.P[0], t), MM)
            tested = 0
            for c in itertools.product(range(p), repeat=E0.sdim):
                x = E0.from_stable_coords(c)
                try:
                    rep = dr_bracket_forms(res, MM, x, 2, t=t, cap=20000)
                except NotACycle:
                    continue
                assert rep.equal_full and rep.equal_restricted, (p, m, t, c)
                assert rep.equal_w_filtered, (p, m, t, c)
                tested += 1
            assert tested >= 3, (p, m, t)


@pytest.mark.parametrize("p, m, a, moved", [(2, 6, 3, 4), (3, 6, 3, 12), (2, 8, 4, 4),
                                             (3, 8, 4, 12), (2, 10, 5, 4)])
def test_forms_agree_where_d_r_is_nonzero_for_r_at_least_3(p, m, a, moved):
    # R/x^a resolved by k has nonzero d_a (r = a = 3, 4, 5): over t in
    # {0, 1} it moves `moved` of the nonzero classes of E^{0,t}; at odd p
    # the signs show
    ring = Ring(p, m)
    MM = module_from_partition(ring, [a])
    res = adams_resolution(MM, ProjectiveClass(module_from_partition(ring, [1])), a + 1)
    nonzero = 0
    for t in (0, 1):
        E0 = stable_hom(susp_ob(res.P[0], t), MM)
        for c in itertools.product(range(p), repeat=E0.sdim):
            if not any(c):
                continue
            try:
                rep = dr_bracket_forms(res, MM, E0.from_stable_coords(c), a, t=t, cap=20000)
            except NotACycle:
                continue
            assert rep.equal_full and rep.equal_restricted, (t, c)
            assert rep.equal_w_filtered and all(rep.checks.values()), (t, c)
            zero = (0,) * stable_hom(rep.dr.src, rep.dr.tgt).sdim
            nonzero += zero not in rep.dr.elements
    assert nonzero == moved


def test_kappa_d1_d1_indeterminacy_subgroup(res6):
    # <kappa, d_1, d_1> has rank-one indeterminacy spanned by [0, mu_x]
    from stmodcat.toda import indeterminacy_basis
    from stmodcat.stcat import DIRECT

    indet = indeterminacy_basis(DIRECT, kappa_map(),
                                res6.d1op(0), res6.d1op(1))
    assert len(indet) == 1
    amb = stable_hom(susp_ob(res6.P[2], 1), M)
    span_map = block_map([Ok, k], [M], [[None, mu_map(R24, 1, 2, 1)]])
    assert tuple(indet[0]) == amb.stable_coords(span_map)


def test_projective_class_normalizes_generator():
    from stmodcat.linalg import FpMatrix, rank, right_inverse
    from stmodcat.modrep import RModule, direct_sum

    # a conjugated copy of k + R generates the same class as k
    rng = np.random.default_rng(3)
    base, _, _ = direct_sum([k, free_module(R24, 1)])
    while True:
        C = FpMatrix(2, rng.integers(0, 2, size=(base.dim, base.dim)))
        if rank(C) == base.dim:
            break
    G = RModule(R24, C @ base.X @ right_inverse(C))
    cls = ProjectiveClass(G)
    assert jordan_type(cls.generator) == (1,)
    assert cls.period == 2
    P, p = ghost_cover(M, cls)
    assert jordan_type(P) == (3, 1)


def test_higher_pages_inject_into_homology(res6):
    from stmodcat.linalg import rank as _rank

    pgs = pages(res6, M, 3)
    p2, p3 = pgs[1], pgs[2]
    for (s, t), g3 in p3.groups.items():
        d_out = p2.differentials.get((s, t))
        d_in = p2.differentials.get((s - 2, t - 1))
        g2 = p2.groups.get((s, t))
        if g2 is None:
            continue
        kdim = g2.dim - (_rank(d_out) if d_out is not None else 0)
        idim = _rank(d_in) if d_in is not None else 0
        assert g3.dim <= kdim - idim + max(idim, 0)
        assert g3.dim <= kdim


def test_pages_require_length():
    res2 = adams_resolution(M, GHOST, 2)
    with pytest.raises(AdamsError, match="too short"):
        pages(res2, M, 5)
    # bounds below their least value are refused by name, not read as no pages
    res4 = adams_resolution(M, GHOST, 4)
    for r_max in (0, -2):
        with pytest.raises(AdamsError, match=f"r_max = {r_max}"):
            pages(res4, M, r_max)


# ---------------------------------------------------------------------------
# the restricted tower, shared per resolution slot


def _ghost_resolution(p, m, a, length):
    """R/x^a over F_p[x]/x^m, resolved by the ghost class of k."""
    ring = Ring(p, m)
    Y = module_from_partition(ring, [a])
    return adams_resolution(Y, ProjectiveClass(module_from_partition(ring, [1])), length), Y


def _cycles(res, Y, r, t, cap=4096):
    """Every nonzero class of E_1^{0,t} that survives to E_r."""
    E0 = stable_hom(susp_ob(res.P[0], t), Y)
    out = []
    for c in itertools.product(range(Y.ring.p), repeat=E0.sdim):
        if not any(c):
            continue
        x = E0.from_stable_coords(c)
        try:
            dr_set(res, Y, x, r, 0, t, cap)
        except NotACycle:
            continue
        out.append(x)
    return out


def _per_class_restricted(res, Y, x, r, s, t, cap):
    """The restricted fields of a `DrFormsReport` as they were read before the
    tower moved into the slot: per class, the stage triangles, the tower
    (the loop of `restricted_tower`), the lift and read-off for x alone
    (`restricted_per_class`), the op bracket carried element by element, and
    the extension over sigma'."""
    from stmodcat.stcat import OP, Triangle, rotate_back, sigma_omega_comparison, stable_coords
    from stmodcat.toda import CtxTriangle, _restricted_octahedron, suspend_ctx_triangle

    assert r >= 2
    triangles = []
    for i in range(1, r + 1):
        a, level = s + i - 1, t + i - 1
        sw, sp = susp_map(res.w[a], level), susp_map(res.p[a], level)
        tri = rotate_back(Triangle(sw, sp, _connecting_map(res.dbar[a], level)))
        base = CtxTriangle(sp, sw, tri.f)
        for _ in range(i - 1):
            base = suspend_ctx_triangle(OP, base)
        triangles.append(base)
    g = susp_map(res.p[s + r], t + r - 1)
    for _ in range(r - 1):
        g = OP.sigma_map(g)
    tri, stages = list(triangles), []
    while True:
        st = _restricted_octahedron(OP, tri[-2], tri[-1], cap)
        stages.append(st)
        if len(tri) == 2:
            break
        tri = [suspend_ctx_triangle(OP, u) for u in tri[:-2]]
        tri.append(CtxTriangle(st.alpha, st.beta, st.gamma))
    comp = sigma_omega_comparison(Y, r - 1)
    c_elems = frozenset(stable_coords(comp @ susp_map(u, r - 1)) for u in
                        restricted_per_class(triangles, stages, g, x, OP, cap).rep_maps(OP))
    sigma_prime = stages[0].q
    for st in stages[1:]:
        sigma_prime = OP.compose(st.q, sigma_prime)
    b = -OP.compose(g, stages[-1].beta)
    extends = stably_equal(OP.compose(b, -sigma_prime), OP.compose(g, triangles[-1].h))
    equal = c_elems == dr_set(res, Y, x, r, s, t, cap).elements
    return {"restricted_elements": c_elems, "w_filtered_elements": c_elems,
            "equal_restricted": equal, "equal_w_filtered": equal}, extends


@pytest.mark.parametrize("p, m, a, r", [(2, 4, 2, 2), (2, 6, 3, 3), (3, 6, 3, 3),
                                        (2, 8, 4, 4), (3, 8, 4, 4), (2, 10, 5, 5)])
def test_the_restricted_tower_is_built_once_per_slot(p, m, a, r, monkeypatch):
    # (2, 4, 2) is the worked example at r = 2; the others are the R/x^a
    # resolutions where d_r is nonzero.  A cap no other test uses keeps the
    # first class of each slot cold; a later class suspends nothing, solves
    # no lift in the opposite context and reads no composite set.
    import dataclasses

    import stmodcat.adams as adams
    import stmodcat.stcat as stcat
    import stmodcat.toda as toda

    res, Y = _ghost_resolution(p, m, a, r + 1)
    cap = 20011
    for t in (0, 1):
        xs = _cycles(res, Y, r, t)
        assert len(xs) >= 2
        want = [_per_class_restricted(res, Y, x, r, 0, t, cap) for x in xs]
        calls = []

        def counted(fn):
            def wrapper(*args):
                calls.append(fn.__name__)
                return fn(*args)
            return wrapper

        def refuse(*args):
            raise AssertionError("a warm slot rebuilt its tower or read a class per class")

        with monkeypatch.context() as mp:
            mp.setattr(toda, "_restricted_octahedron", counted(toda._restricted_octahedron))
            mp.setattr(adams, "op_adams_data", counted(adams.op_adams_data))
            reports = [dr_bracket_forms(res, Y, xs[0], r, t=t, cap=cap)]
            assert sorted(calls) == ["_restricted_octahedron"] * (r - 1) + ["op_adams_data"]
            for mod, name in ((toda, "_restricted_octahedron"), (adams, "op_adams_data"),
                              (stcat, "omega_map"), (stcat.OpContext, "solve_post"),
                              (toda, "_composite_set")):
                mp.setattr(mod, name, refuse)
            reports += [dr_bracket_forms(res, Y, x, r, t=t, cap=cap) for x in xs[1:]]
        for rep, (fields, extends) in zip(reports, want):
            checks = {**rep.checks, "extension_over_sigma_prime": extends}
            assert rep == dataclasses.replace(rep, checks=checks, **fields)
            assert rep.checks["extension_over_sigma_prime"]


@pytest.mark.parametrize("p", [2, 3])
def test_slot_transport_is_the_per_element_loop(p):
    # the worked example (p = 2) and p = 3, m = 4, R/x^2; r = 1 has no stage
    from stmodcat.adams import _images, restricted_slot
    from stmodcat.stcat import OP, sigma_omega_comparison, stable_coords
    from stmodcat.toda import restricted_read_off

    res, Y = _ghost_resolution(p, 4, 2, 6)
    nonzero = 0
    for r, t in itertools.product((1, 2, 3), range(4)):
        slot = restricted_slot(res.window(0, r), Y, r, t, 4096)
        comp = sigma_omega_comparison(Y, r - 1)
        E0 = stable_hom(susp_ob(res.P[0], t), Y)
        for c in itertools.product(range(p), repeat=E0.sdim):
            rbs = restricted_read_off(slot.read, c)
            loop = frozenset(stable_coords(comp @ susp_map(u, r - 1))
                             for u in rbs.rep_maps(OP))
            assert _images(slot.transport, rbs.elements) == loop, (r, t, c)
            nonzero += sum(map(any, loop))
    assert nonzero >= 12


@pytest.mark.parametrize("p, m, a, r, cap", [(2, 6, 3, 3, 15), (3, 6, 3, 3, 9), (2, 8, 4, 4, 4)])
def test_a_warm_restricted_read_refuses_filler_pairs_as_a_cold_call(p, m, a, r, cap):
    # at these caps the tower's octahedra still list their points, but a
    # cycle's lifts through the top stage exceed the cap: a cold call and the
    # per-class read-off refuse at the lifts, and so does a warm slot's read
    from stmodcat.adams import op_adams_data, restricted_slot
    from stmodcat.stcat import OP
    from stmodcat.toda import restricted_higher_bracket, restricted_read_off, restricted_tower

    res, Y = _ghost_resolution(p, m, a, r + 1)
    triangles, g = op_adams_data(res.window(0, r), r, 0)
    read = restricted_slot(res.window(0, r), Y, r, 0, 4096).read
    want = f"{read.lifts.size()} filler pairs exceed cap {cap}"
    assert read.lifts.size() > cap
    E0 = stable_hom(res.P[0], Y)
    for x in _cycles(res, Y, r, 0):
        for refused in (lambda: restricted_read_off(read, E0.stable_coords(x), cap),
                        lambda: restricted_higher_bracket(triangles, g, x, OP, cap),
                        lambda: restricted_per_class(
                            triangles, restricted_tower(triangles, OP, cap), g, x, OP, cap)):
            with pytest.raises(EnumerationOverflow) as e:
                refused()
            assert str(e.value) == want


def test_dr_refuses_r_below_1_and_s_below_0():
    # refused before any slot is built
    import stmodcat

    res, Y = _ghost_resolution(2, 4, 2, 4)
    x = stable_hom(res.P[0], Y).from_stable_coords((1, 0))
    before = stmodcat.cache_stats()
    for fn, r, s in ((dr_set, 0, 0), (dr_set, -1, 0), (dr_set, 1, -1),
                     (dr_bracket_forms, 0, 0), (dr_bracket_forms, 2, -1)):
        with pytest.raises(AdamsError, match=f"got r = {r}, s = {s}$"):
            fn(res, Y, x, r, s)
    after = stmodcat.cache_stats()
    for name in ("adams.alpha_fibers", "adams._br_rows", "adams._dr_read",
                 "adams.restricted_slot", "adams.bracket_slot"):
        assert after[name].misses == before[name].misses, name


def test_a_smaller_cap_on_a_warm_slot_refuses_as_a_cold_call():
    # p = 3, m = 4, R/x^2 at r = 2: d_2 needs 3 chains, the slot's octahedron
    # lists 9 points and the full bracket 81 branches.  The slot is built
    # right after d_r, so a cap of 8 refuses at the octahedron.
    import os
    import subprocess
    import sys
    from pathlib import Path

    from stmodcat.linalg import EnumerationOverflow

    script = """
import sys
from stmodcat.adams import ProjectiveClass, adams_resolution, dr_bracket_forms
from stmodcat.linalg import EnumerationOverflow
from stmodcat.modrep import Ring, module_from_partition
from stmodcat.stcat import stable_hom
ring = Ring(3, 4)
Y = module_from_partition(ring, [2])
res = adams_resolution(Y, ProjectiveClass(module_from_partition(ring, [1])), 4)
x = stable_hom(res.P[0], Y).from_stable_coords((1, 0))
try:
    dr_bracket_forms(res, Y, x, 2, cap=8)
except EnumerationOverflow as e:
    print(e)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    cold = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, check=True).stdout.strip()
    assert cold == "9 points exceeds cap 8"

    res, Y = _ghost_resolution(3, 4, 2, 4)
    x = stable_hom(res.P[0], Y).from_stable_coords((1, 0))
    warm = dr_bracket_forms(res, Y, x, 2)  # the slot under cap 4096
    assert warm.equal_restricted and warm.checks["extension_over_sigma_prime"]
    assert dr_set(res, Y, x, 2, cap=8).elements == warm.dr.elements
    with pytest.raises(EnumerationOverflow) as refused:
        dr_bracket_forms(res, Y, x, 2, cap=8)
    assert str(refused.value) == cold


# ---------------------------------------------------------------------------
# d_r's alpha-chains and the bracket towers, shared per resolution slot


def _alpha_product(res, Y, s, t, k):
    """alpha^k: D^{s+k,t+k} -> D^{s,t} as one product of the alpha maps."""
    out = FpMatrix.identity(Y.ring.p, stable_hom(susp_ob(res.X[s], t), Y).sdim)
    for j in range(k):
        out = out @ pre_matrix(_connecting_map(res.dbar[s + j], t + j), Y)
    return out


@pytest.mark.parametrize("p, m, parts", [(2, 4, [2]), (3, 4, [2]), (3, 5, [2, 1])])
def test_zr_and_br_read_off_the_alpha_fibers_as_the_old_formulas(p, m, parts):
    # the benchmark's resolutions, r = 1..3 and every slot with s + r <= length
    # (s + r = length has no differential out of it): Z_r from the quotient
    # by the image of the transposed product, B_r from its nullspace out of
    # D^{s,t}, each with its own r = 1 case
    ring = Ring(p, m)
    Y = module_from_partition(ring, parts)
    res = adams_resolution(Y, ProjectiveClass(module_from_partition(ring, [1])), 6)
    for r, s, t in itertools.product((1, 2, 3), range(res.length), range(res.cls.period + 1)):
        if s + r > res.length:
            continue
        E = stable_hom(susp_ob(res.P[s], t), Y).sdim
        k = min(r - 1, s)
        if r == 1:
            Z, B = FpMatrix.identity(p, E), FpMatrix.zeros(p, 0, E)
        else:
            Q = quotient(_alpha_product(res, Y, s + 1, t, r - 1).transpose())[0]
            Z = row_space_basis(nullspace(Q @ _precompose(res.w[s], Y, t)))
            ker = nullspace(_alpha_product(res, Y, s - k, t - k, k))
            img = ker.a @ _precompose(res.p[s], Y, t).a.T % p
            B = row_space_basis(FpMatrix(p, img.reshape(ker.rows, E)))
        Zr = _zr_rows(res.X[s + 1], Y, t, res.w[s], *res.dbar[s + 1:s + r])
        Br = _br_rows(res.X[s - k], Y, t, res.p[s], *res.dbar[s - k:s])
        assert np.array_equal(Zr.a, Z.a), (r, s, t)
        assert np.array_equal(Br.a, B.a), (r, s, t)


def test_one_bracket_slot_serves_every_cap():
    # p = 3, m = 8, R/x^4 at r = 4: the zero class's operations bracket has
    # 23085 branches.  The slot built at cap 30000 refuses at cap 20000 as a
    # cold per-class call does, then reads at 30000 again, with no new slot
    import stmodcat

    stmodcat.clear_caches()
    res, Y = _ghost_resolution(3, 8, 4, 5)
    E0 = stable_hom(res.P[0], Y)
    x = E0.from_stable_coords([0] * E0.sdim)
    rep = dr_bracket_forms(res, Y, x, 4, cap=30000)
    assert rep.dr.elements == {(0, 0)}
    assert rep.variants["operations_bracket"].metadata["branches"] == 23085
    cold = _outcome(_cold_forms, res, Y, x, 4, 0, 0, 20000)
    assert cold == ("EnumerationOverflow", "23085 bracket branches exceed cap 20000")
    assert _outcome(dr_bracket_forms, res, Y, x, 4, cap=20000) == cold
    _assert_forms_are_cold(dr_bracket_forms(res, Y, x, 4, cap=30000), rep)
    assert stmodcat.cache_stats()["adams.bracket_slot"].misses == 1


def test_coordinates_of_the_wrong_length_raise_dimension_mismatch():
    # one coordinate short and one over, at every entry point that reads a
    # class's stable coordinates: each names the length it expects
    res, Y = _ghost_resolution(2, 4, 2, 4)
    S = stable_hom(Y, Y)
    towers = bracket_slot(res.window(0, 2), Y, 2, 0)
    read = restricted_slot(res.window(0, 2), Y, 2, 0, 4096).read
    entries = {
        "lifts": (S.sdim, lambda c: S.lifts([c])),
        "from_stable_coords": (S.sdim, S.from_stable_coords),
        "make": (S.sdim, lambda c: DIRECT.make(Y, Y, c)),
        "rep_maps": (S.sdim, lambda c: BracketSet(Y, Y, "direct", frozenset([tuple(c)]))
                     .rep_maps()),
        "membership": (S.sdim, lambda c: c in BracketSet(Y, Y, "direct", frozenset())),
        "op membership": (S.sdim, lambda c: c in BracketSet(Y, Y, "op",
                                                            frozenset({(1,) * S.sdim}))),
        "bracket_read_off": (towers.ops.space.sdim, lambda c: bracket_read_off(towers.ops, c)),
        "restricted_read_off": (read.S.shape[1], lambda c: restricted_read_off(read, c)),
    }
    for name, (n, call) in entries.items():
        assert n >= 1, name
        for c in ([1] * (n - 1), [1] * (n + 1)):
            with pytest.raises(DimensionMismatch, match=f"expected (length )?{n}$"):
                call(c)


def _per_class_chains(res, Y, s, t, r, coords, cap=None):
    """d_r's chains of extensions solved for one class, with no shared
    alpha-chain fibers: the affine space of the chains' last entries, one preimage
    under alpha per stage."""
    g = _precompose(res.w[s], Y, t).apply(coords)
    space = AffineSpace(Y.ring.p, g.shape[0], g,
                        np.zeros((0, g.shape[0]), dtype=np.int64))
    for j in range(1, r):
        space = preimage(pre_matrix(_connecting_map(res.dbar[s + j], t + j - 1), Y), space)
        if space is None:
            raise NotACycle(f"x is not a d_{r-1}-cycle: extension fails at stage {j}")
        if cap is not None and space.size() > cap:
            raise EnumerationOverflow(f"{space.size()} chains exceed cap {cap}")
    return space


def _per_class_dr_set(res, Y, x, r, s=0, t=0, cap=4096):
    """dr_set with the chains solved for x alone (`_per_class_chains`)."""
    E0 = stable_hom(susp_ob(res.P[s], t), Y)
    chains = _per_class_chains(res, Y, s, t, r, E0.stable_coords(x), cap)
    img = affine_image(chains, _precompose(res.p[s + r], Y, t + r - 1))
    elems = frozenset(tuple(int(y) for y in v) for v in enumerate_points(img, cap))
    return BracketSet(susp_ob(res.P[s + r], t + r - 1), Y, "direct", elems,
                      tuple(tuple(int(v) for v in row) for row in img.basis),
                      None, {"r": r, "s": s, "t": t, "chains": chains.size()})


def _outcome(fn, *args, **kwargs):
    """fn's value, or the type and message of the engine error it raises."""
    try:
        return fn(*args, **kwargs)
    except (NotACycle, EnumerationOverflow) as e:
        return type(e).__name__, str(e)


@pytest.mark.parametrize("p, m, parts", [(2, 4, [2]), (3, 4, [2]), (3, 5, [2, 1]),
                                        (2, 4, [1, 3])])
def test_dr_set_and_pages_read_the_per_class_chains(p, m, parts):
    # every slot of the benchmark's resolutions, r = 1..3, the first 81
    # classes of each; cap 2 refuses some chain sets, cap 0 also the one
    # point of d_1.  On R/x + R/x^3 over p = 2, m = 4 three page
    # differentials leave an empty cycle group
    ring = Ring(p, m)
    Y = module_from_partition(ring, parts)
    res = adams_resolution(Y, ProjectiveClass(module_from_partition(ring, [1])), 6)
    seen = set()
    for r, s, t in itertools.product((1, 2, 3), range(5), range(res.cls.period)):
        if s + r >= res.length:
            continue
        E0 = stable_hom(susp_ob(res.P[s], t), Y)
        for c in itertools.islice(itertools.product(range(p), repeat=E0.sdim), 81):
            x = E0.from_stable_coords(c)
            for cap in (0, 2, 4096):
                got = _outcome(dr_set, res, Y, x, r, s, t, cap)
                want = _outcome(_per_class_dr_set, res, Y, x, r, s, t, cap)
                assert got == want, (r, s, t, c, cap)
                if isinstance(got, BracketSet):
                    assert got.metadata == want.metadata
                seen.add("set" if isinstance(got, BracketSet) else
                         got[0] if got[0] == "NotACycle" else got[1].split()[1])
    assert seen == {"set", "NotACycle", "chains", "points"}
    # the page differentials against one per-class chain per cycle row
    for page in pages(res, Y, 3):
        for (s, t), mat in page.differentials.items():
            tgt = page.groups[(s + page.r, t + page.r - 1)]
            beta = _precompose(res.p[s + page.r], Y, t + page.r - 1)
            cols = [tgt.class_coords(beta.apply(
                _per_class_chains(res, Y, s, t, page.r, z).representative))
                for z in page.groups[(s, t)].Z.a]
            assert mat.a.T.tolist() == [list(col) for col in cols], (page.r, s, t)


def _cold_forms(res, Y, x, r, s, t, cap):
    """d_r's bracket forms read per class, as before the slot held their
    towers and alpha-chain fibers: d_r from the chains solved for x alone, each
    bracket built afresh on its own maps, the restricted fields of
    `_per_class_restricted`; the refusals in the order of
    `dr_bracket_forms` (the restricted tower never refuses at these caps)."""
    from stmodcat.adams import DrFormsReport

    a_set = _per_class_dr_set(res, Y, x, r, s, t, cap)
    chain = [x @ susp_map(res.w[s], t), susp_map(res.p[s + 1], t)]
    chain += [susp_map(res.d1op(s + j), t) for j in range(1, r)]
    full = higher_bracket(chain, cap=cap)
    ops = higher_bracket([x] + [susp_map(res.d1op(s + j), t) for j in range(r)], cap=cap)
    fields, extends = _per_class_restricted(res, Y, x, r, s, t, cap)
    c_elems = fields["restricted_elements"]
    checks = {"extension_over_sigma_prime": extends,
              "dr_subset_of_operations_bracket": a_set.elements <= ops.elements}
    variants = {"operations_bracket": ops}
    if r == 2:
        delta = bracket3(x, susp_map(res.d1op(s), t), susp_map(res.w[s + 1], t), cap=cap)
        composed = frozenset(stable_coords(f @ susp_map(res.p[s + 2], t + 1))
                             for f in delta.rep_maps())
        variants.update(with_delta=delta, with_delta_composed=composed, through_cover=full)
        checks.update(composed_equals_dr=composed == a_set.elements,
                      chain_inclusion=composed <= ops.elements,
                      chain_proper=composed < ops.elements)
    equal = c_elems == a_set.elements
    return DrFormsReport(r, a_set, full, c_elems, c_elems, full.elements == a_set.elements,
                         equal, equal, variants, checks)


def _assert_forms_are_cold(rep, cold):
    """A report equals the cold one, metadata (which BracketSet equality
    skips) included."""
    assert rep == cold
    for got, want in ((rep.dr, cold.dr), (rep.full_bracket, cold.full_bracket),
                      *((rep.variants[k], cold.variants[k])
                        for k in ("operations_bracket", "with_delta") if k in cold.variants)):
        assert got.metadata == want.metadata


@pytest.mark.parametrize("p, m, a, r", [(2, 4, 2, 2), (3, 4, 2, 2), (2, 6, 3, 3), (3, 6, 3, 3),
                                        (2, 8, 4, 4)])
def test_the_bracket_towers_and_chain_map_are_built_once_per_slot(p, m, a, r, monkeypatch):
    # the zero class reaches every node of the slot's towers (every fiber
    # holds 0), so after it no class at the slot builds a tower, a node or an
    # alpha-chain's fibers; one slot serves every cap, so the caches are
    # cleared to keep the first class cold
    import stmodcat
    import stmodcat.adams as adams
    import stmodcat.toda as toda

    stmodcat.clear_caches()
    res, Y = _ghost_resolution(p, m, a, r + 1)
    cap = 20021
    for t in (0, 1):
        E0 = stable_hom(susp_ob(res.P[0], t), Y)
        xs = [E0.from_stable_coords([0] * E0.sdim)] + _cycles(res, Y, r, t)
        want = [_cold_forms(res, Y, x, r, 0, t, cap) for x in xs]
        built = []

        def counted(*args, **kwargs):
            built.append(args)
            return bracket_tower(*args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("a later class built a tower, node or fibers")

        bracket_tower = toda.bracket_tower
        before = stmodcat.cache_stats()
        with monkeypatch.context() as mp:
            mp.setattr(adams, "bracket_tower", counted)
            reports = [dr_bracket_forms(res, Y, xs[0], r, t=t, cap=cap)]
            assert len(built) == (3 if r == 2 else 2)
            for mod in (adams, toda):
                mp.setattr(mod, "fibers", refuse)
            mp.setattr(adams, "bracket_tower", refuse)
            reports += [dr_bracket_forms(res, Y, x, r, t=t, cap=cap) for x in xs[1:]]
            reports += [dr_set(res, Y, x, r, 0, t, cap) for x in xs]
        after = stmodcat.cache_stats()
        slot = after["adams.bracket_slot"]
        assert slot.misses == before["adams.bracket_slot"].misses + 1
        assert slot.hits == before["adams.bracket_slot"].hits + len(xs) - 1
        assert after["adams.alpha_fibers"].misses == before["adams.alpha_fibers"].misses
        for rep, cold in zip(reports, want):
            _assert_forms_are_cold(rep, cold)
        assert [d.elements for d in reports[len(xs):]] == [w.dr.elements for w in want]


@pytest.mark.parametrize("p, m, parts, rs, windows", [
    (2, 4, [2], (2, 3), 1), (3, 4, [2], (2, 3), 1), (3, 5, [2, 1], (2,), 3)])
def test_equal_windows_share_a_slot_and_read_every_class_as_a_cold_call(p, m, parts, rs,
                                                                         windows):
    # the benchmark's resolutions: over k, R/x^2 repeats its stages, so every
    # window is one slot; on R/x^2 + k only the windows at s = 1 and s = 3
    # are equal, so a key that ignored a stage would share too many slots.
    # A window's key, sliced off the resolution's, is the one it would read.
    # A class is read once per window: dr_set and dr_bracket_forms, at x and
    # at x + z with z through a projective, give the cold call's report, "s"
    # included; each distinct (window, t, class) cycle read misses once, and
    # a refused call misses every time; under a smaller cap a cached class
    # refuses as the cold call does
    import dataclasses

    import stmodcat

    stmodcat.clear_caches()
    ring = Ring(p, m)
    Y = module_from_partition(ring, parts)
    res = adams_resolution(Y, ProjectiveClass(module_from_partition(ring, [1])), 6)
    F, cover = projective_cover(Y)
    for r, t in itertools.product(rs, (0, 1)):
        before = stmodcat.cache_stats()
        reads, cycles, refused = set(), [], 0
        for s in range(res.length - r):
            win = res.window(s, r)
            assert win.key == dataclasses.replace(win).key
            E0 = stable_hom(susp_ob(res.P[s], t), Y)
            z = cover @ RMap(E0.src, F, FpMatrix(p, hom_basis(E0.src, F).sum(axis=0)))
            assert is_stably_zero(z) and not z.is_zero()
            for c in itertools.product(range(p), repeat=E0.sdim):
                x = E0.from_stable_coords(c)
                cold = _outcome(_cold_forms, res, Y, x, r, s, t, 4096)
                for y in (x, x + z):
                    warm = _outcome(dr_bracket_forms, res, Y, y, r, s, t)
                    warm_set = _outcome(dr_set, res, Y, y, r, s, t)
                    if isinstance(cold, tuple):
                        assert warm == warm_set == cold, (r, s, t, c)
                        refused += 1
                    else:
                        _assert_forms_are_cold(warm, cold)
                        assert warm_set == cold.dr and warm_set.metadata == cold.dr.metadata
                if not isinstance(cold, tuple):
                    _assert_forms_are_cold(_cold_forms(res, Y, x + z, r, s, t, 4096), cold)
                    reads.add((win.key, c))
                    cycles.append((s, x))
        after = stmodcat.cache_stats()
        for name in ("adams.bracket_slot", "adams.restricted_slot"):
            assert after[name].misses - before[name].misses == windows, (name, r, t)
        # a refused dr_bracket_forms misses both reads, a refused dr_set one
        for name, fails in (("adams._forms_read", refused), ("adams._dr_read", 2 * refused)):
            assert after[name].size - before[name].size == len(reads), (name, r, t)
            assert after[name].misses - before[name].misses == len(reads) + fails, (name, r, t)
        for s, x in cycles:
            cold = _outcome(_cold_forms, res, Y, x, r, s, t, 1)
            assert isinstance(cold, tuple)
            assert _outcome(dr_bracket_forms, res, Y, x, r, s, t, 1) == cold


def test_a_window_that_differs_only_in_its_last_stage_is_its_own_slot():
    # windows of one resolution that agree in their first stage agree in all
    # (ghost_cover and fiber_triangle are deterministic), so alt is built by
    # hand: p_2 of the R/x^2 resolution over p=3 m=4 scaled by 2.  Window
    # (0, 2) of alt shares stages 0-1 with res's and differs in stage 2, and
    # so does d_2 of the E_1 basis classes: a key that ignored the last
    # stage would read alt off res's B_2 at the target
    import stmodcat

    res, Y = _ghost_resolution(3, 4, 2, 4)
    alt = AdamsResolution(res.cls, res.X, res.P, res.w,
                          res.p[:2] + [res.p[2].scale(2)] + res.p[3:], res.dbar)
    assert alt.key[:2] == res.key[:2] and alt.key[2] != res.key[2]
    classes = {t: stable_hom(susp_ob(res.P[0], t), Y).quotient_basis_maps() for t in (0, 1)}

    def sweep(r):
        return [dr_set(r, Y, x, 2, 0, t) for t, xs in classes.items() for x in xs]

    stmodcat.clear_caches()
    cold = sweep(alt)
    stmodcat.clear_caches()
    first = sweep(res)
    before = stmodcat.cache_stats()["adams._br_rows"].misses
    warm = sweep(alt)
    assert stmodcat.cache_stats()["adams._br_rows"].misses == before + 2
    assert warm == cold
    assert [d.elements for d in first[:2]] == [{(2, 2)}, {(1, 1)}]
    assert [d.elements for d in warm[:2]] == [{(1, 1)}, {(2, 2)}]


def test_pages_and_every_dr_slot_share_one_reduction_per_alpha_chain():
    # p=3 m=4 R/x^2 over k: pages, then d_r of the zero class at every slot.
    # A chain alpha^k out of D^{s+k,t+k} is its stage X_s, t and its maps
    # dbar_s .. dbar_{s+k-1}, wherever they sit: pages reads Z_r's and
    # B_r's, a slot's d_r read those from s + 1 for j = 1 .. r-1 (j = 0 at
    # r = 1).  Each is reduced once, so the sweep misses only the chains
    # pages did not read
    import stmodcat

    def chain(s, t, k):
        return (res.X[s].key, t) + tuple(d.key for d in res.dbar[s:s + k])

    def misses():
        return stmodcat.cache_stats()["adams.alpha_fibers"].misses

    stmodcat.clear_caches()
    res, Y = _ghost_resolution(3, 4, 2, 6)
    ts = range(res.cls.period + 1)
    pages(res, Y, 3)
    read = {c for r, s, t in itertools.product((1, 2, 3), range(res.length - 2), ts)
            for c in (chain(s + 1, t, r - 1), chain(s - min(r - 1, s), t - min(r - 1, s),
                                                    min(r - 1, s)))}
    assert misses() == len(read)
    swept = set()
    for r in range(1, res.length):
        for s, t in itertools.product(range(res.length - r), ts):
            E0 = stable_hom(susp_ob(res.P[s], t), Y)
            dr_set(res, Y, E0.from_stable_coords([0] * E0.sdim), r, s, t)
            swept |= {chain(s + 1, t, j) for j in {*range(1, r), r - 1}}
    assert swept & read and swept - read
    assert misses() == len(read | swept)


# the slots of test_forms_agree_where_d_r_is_nonzero_for_r_at_least_3, and
# the worked example's at r = 2; against P_0 some classes are not cycles
FORM_SLOTS = [(2, 4, 2, 2), (2, 6, 3, 3), (3, 6, 3, 3), (2, 8, 4, 4), (3, 8, 4, 4),
              (2, 10, 5, 5)]


@functools.lru_cache(maxsize=None)
def _slot_resolution(p, m, a, r):
    return _ghost_resolution(p, m, a, r + 1)


@given(st.sampled_from(FORM_SLOTS), st.booleans(), st.sampled_from([0, 1]),
       st.lists(st.integers(0, 4), min_size=4, max_size=4))
@example((3, 8, 4, 4), False, 0, [0, 0, 0, 0])   # refused: 23085 branches
@example((2, 10, 5, 5), False, 1, [0, 0, 0, 0])
@example((3, 6, 3, 3), True, 1, [1, 2, 0, 1])     # not a cycle
@settings(max_examples=40, deadline=None)
def test_warm_slots_read_every_drawn_class_as_a_cold_class(slot, against_p0, t, coords):
    # E_1 classes drawn at the slots (zero, cycles, non-cycles, refused):
    # the report and dr_set of the shared slot equal the cold per-class ones
    p, m, a, r = slot
    res, Y = _slot_resolution(p, m, a, r)
    Y = res.P[0] if against_p0 else Y
    E0 = stable_hom(susp_ob(res.P[0], t), Y)
    x = E0.from_stable_coords([c % p for c in coords[:E0.sdim]])
    cold = _outcome(_cold_forms, res, Y, x, r, 0, t, 20000)
    warm = _outcome(dr_bracket_forms, res, Y, x, r, t=t, cap=20000)
    if isinstance(cold, tuple):
        assert warm == cold
        assert _outcome(dr_set, res, Y, x, r, 0, t, 20000) == _outcome(
            _per_class_dr_set, res, Y, x, r, 0, t, 20000)
        return
    _assert_forms_are_cold(warm, cold)
    d = dr_set(res, Y, x, r, 0, t, 20000)
    assert d == cold.dr and d.metadata == cold.dr.metadata
