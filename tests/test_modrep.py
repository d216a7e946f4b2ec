import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import change_basis, modules

from stmodcat import linalg
from stmodcat.linalg import FpMatrix, nullspace, rank, right_inverse, stack_rows
from stmodcat.modrep import (
    CokernelData,
    KernelData,
    ModRepError,
    RMap,
    RModule,
    Ring,
    _jordan_basis,
    block_map,
    canonical_form,
    direct_sum,
    free_module,
    hom_basis,
    identity_map,
    injective_envelope,
    jordan_chains,
    jordan_type,
    module_from_partition,
    module_iso,
    mu_map,
    omega,
    partition_layout,
    projective_cover,
    reduce_module,
    sigma,
    zero_map,
)

R24 = Ring(2, 4)
R33 = Ring(3, 3)


def test_partition_module_is_M():
    M = module_from_partition(R24, [2])
    assert M.dim == 2
    assert M.X.a.tolist() == [[0, 0], [1, 0]]
    assert jordan_type(M) == (2,)


def test_partition_module_free():
    F = module_from_partition(R24, [4])
    assert jordan_type(F) == (4,)
    assert F.X.power(4).is_zero() and not F.X.power(3).is_zero()


def test_partition_k_plus_omega_k():
    P = module_from_partition(R24, [1, 3])
    assert P.dim == 4
    assert jordan_type(P) == (3, 1)


def test_partition_part_out_of_range():
    with pytest.raises(ModRepError):
        module_from_partition(R24, [5])


def test_public_constructor_refuses_a_non_nilpotent_action():
    # module_from_partition skips the x^m = 0 check; RModule itself keeps it
    with pytest.raises(ModRepError):
        RModule(Ring(2, 3), FpMatrix(2, [[0, 1], [1, 0]]))


def test_unchecked_action_that_is_not_nilpotent():
    # x acts invertibly on the first; x^2 != 0 = x^3 on the second, over m = 2
    for X in ([[0, 1], [1, 0]], [[0, 0, 0], [1, 0, 0], [0, 1, 0]]):
        M = RModule(Ring(2, 2), FpMatrix(2, X), check=False)
        with pytest.raises(ModRepError):
            jordan_chains(M)
        with pytest.raises(ModRepError):
            jordan_type(M)
        assert repr(M) == f"RModule(p=2, m=2, dim={len(X)}, not nilpotent)"
    assert repr(module_from_partition(Ring(3, 3), [2, 1])) == "RModule(p=3, m=3, type=[2, 1])"


def test_jordan_type_zero_action():
    M = RModule(Ring(5, 2), FpMatrix.zeros(5, 3, 3))
    assert jordan_type(M) == (1, 1, 1)


def test_jordan_type_invariant_under_conjugation():
    rng = np.random.default_rng(7)
    for p, m in [(2, 4), (3, 3)]:
        ring = Ring(p, m)
        M = module_from_partition(ring, [min(m, 3), 1, 2][: m - 1] or [1])
        n = M.dim
        for _ in range(10):
            conj = change_basis(M, rng.integers(0, p, (n, n)), rng.integers(0, p, (n, n)))
            assert jordan_type(conj) == jordan_type(M)


def test_kernel_of_tautological_cover_is_M():
    # p = mu_x + mu_1 : k + Omega k -> M  has kernel of type [2]
    k = module_from_partition(R24, [1])
    Ok = module_from_partition(R24, [3])
    M = module_from_partition(R24, [2])
    f = block_map([k, Ok], [M], [[mu_map(R24, 1, 2, 1), mu_map(R24, 3, 2, 0)]])
    kd = KernelData(f)
    assert jordan_type(kd.kernel) == (2,)


def test_kernel_of_a_map_that_is_not_r_linear_is_refused():
    # [0 1]: R/x^2 -> k kills the top e0 of the block, but x e0 = e1 does not
    # lie in the kernel
    ring = Ring(2, 2)
    f = RMap(module_from_partition(ring, [2]), module_from_partition(ring, [1]),
             FpMatrix(2, [[0, 1]]), check=False)
    with pytest.raises(ModRepError, match="kernel is not x-stable; map is not R-linear"):
        KernelData(f)


def test_hom_k_to_M():
    k = module_from_partition(R24, [1])
    M = module_from_partition(R24, [2])
    basis = hom_basis(k, M)
    assert len(basis) == 1
    assert np.array_equal(basis[0], mu_map(R24, 1, 2, 1).A.a)


def test_hom_omega_k_to_M():
    Ok = module_from_partition(R24, [3])
    M = module_from_partition(R24, [2])
    # the canonical basis is exactly [mu(1), mu(x)], in that order
    want = [mu_map(R24, 3, 2, 0).A.a, mu_map(R24, 3, 2, 1).A.a]
    assert np.array_equal(hom_basis(Ok, M), np.array(want))


def test_hom_basis_is_one_shared_read_only_array():
    # the memo hands every caller the same array, so writing into it must fail
    A = module_from_partition(R33, [3, 1])
    B = module_from_partition(R33, [2, 2])
    rng = np.random.default_rng(7)
    for M in (A, change_basis(A, rng.integers(0, 3, (4, 4)), rng.integers(0, 3, (4, 4)))):
        H = hom_basis(M, B)
        assert H.dtype == np.int64 and H.shape == (6, B.dim, M.dim)
        before = H.copy()
        with pytest.raises(ValueError):
            H[0, 0, 0] = 2
        with pytest.raises(ValueError):
            H += 1
        assert hom_basis(M, B) is H
        assert np.array_equal(H, before)


def _brute_force_hom_dim(ring, a, b):
    # enumerate every matrix and count solutions of A X = X A
    src = module_from_partition(ring, [a])
    tgt = module_from_partition(ring, [b])
    count = 0
    for entries in itertools.product(range(ring.p), repeat=a * b):
        A = np.array(entries, dtype=np.int64).reshape(b, a)
        if np.array_equal((A @ src.X.a) % ring.p, (tgt.X.a @ A) % ring.p):
            count += 1
    dim = 0
    while ring.p**dim < count:
        dim += 1
    assert ring.p**dim == count
    return dim


@pytest.mark.parametrize("p,mlim", [(2, 4), (3, 3)])
def test_hom_dim_min_a_b(p, mlim):
    ring = Ring(p, mlim)
    for a in range(1, mlim + 1):
        for b in range(1, mlim + 1):
            got = len(hom_basis(module_from_partition(ring, [a]),
                                module_from_partition(ring, [b])))
            assert got == min(a, b)
            if a * b <= (16 if p == 2 else 9):
                assert _brute_force_hom_dim(ring, a, b) == min(a, b)


def test_projective_cover_of_simple():
    k = module_from_partition(R24, [1])
    P, cov = projective_cover(k)
    assert jordan_type(P) == (4,)
    assert rank(cov.A) == 1  # surjective onto k


def test_projective_cover_of_projective_is_iso():
    F = free_module(R24, 2)
    P, cov = projective_cover(F)
    assert P.dim == F.dim and rank(cov.A) == F.dim


def test_projective_cover_rank_two():
    P0 = module_from_partition(R24, [1, 3])
    P, cov = projective_cover(P0)
    assert jordan_type(P) == (4, 4)
    assert rank(cov.A) == P0.dim


def test_injective_envelope_single_block():
    for i in range(1, 4):
        M = module_from_partition(R24, [i])
        I, emb = injective_envelope(M)
        assert jordan_type(I) == (4,)
        assert emb.A == mu_map(R24, i, 4, 4 - i).A
        assert rank(emb.A) == i  # injective


def test_injective_envelope_socle_two():
    M, _, _ = direct_sum([module_from_partition(R24, [2]),
                          module_from_partition(R24, [1])])
    I, emb = injective_envelope(M)
    assert jordan_type(I) == (4, 4)
    assert rank(emb.A) == M.dim


def test_omega_examples():
    k = module_from_partition(R24, [1])
    M = module_from_partition(R24, [2])
    Ok, _, _ = omega(k)
    assert jordan_type(Ok) == (3,)
    OM, _, _ = omega(M)
    assert jordan_type(OM) == (2,)
    OOk, _, _ = omega(Ok)
    assert jordan_type(OOk) == (1,)


def test_omega_of_free_is_zero():
    F = free_module(R24, 1)
    OF, _, _ = omega(F)
    assert OF.dim == 0


def test_sigma_example_p3():
    k = module_from_partition(R33, [1])
    Sk, _, _ = sigma(k)
    assert jordan_type(Sk) == (2,)
    M = module_from_partition(R33, [2])
    SM, _, _ = sigma(M)
    assert jordan_type(SM) == (1,)


def test_sigma_omega_block_rule():
    for p, m in [(2, 4), (3, 3), (2, 2)]:
        ring = Ring(p, m)
        for i in range(1, m):
            B = module_from_partition(ring, [i])
            assert jordan_type(omega(B)[0]) == (m - i,)
            assert jordan_type(sigma(B)[0]) == (m - i,)


def test_sigma_omega_roundtrip_types():
    ring = R24
    M, _, _ = direct_sum([module_from_partition(ring, [2]),
                          module_from_partition(ring, [1]),
                          module_from_partition(ring, [4])])
    nonfree = tuple(x for x in jordan_type(M) if x < ring.m)
    SO = sigma(omega(M)[0])[0]
    OS = omega(sigma(M)[0])[0]
    assert jordan_type(SO) == nonfree
    assert jordan_type(OS) == nonfree


def test_canonical_form_round_trip():
    rng = np.random.default_rng(11)
    ring = R24
    M0, _, _ = direct_sum([module_from_partition(ring, [3]),
                           module_from_partition(ring, [1])])
    n = M0.dim
    M = change_basis(M0, rng.integers(0, 2, (n, n)), rng.integers(0, 2, (n, n)))
    canon, to_c, from_c = canonical_form(M)
    assert jordan_type(canon) == (3, 1)
    assert (to_c @ from_c).A == identity_map(canon).A
    assert (from_c @ to_c).A == identity_map(M).A


def test_module_iso_and_reduce():
    A = module_from_partition(R24, [2, 4])
    B = module_from_partition(R24, [4, 2])
    iso = module_iso(A, B)
    assert iso is not None and rank(iso.A) == A.dim
    red, proj, incl = reduce_module(A)
    assert jordan_type(red) == (2,)
    assert (proj @ incl).A == identity_map(red).A


def test_mu_map_not_well_defined():
    with pytest.raises(ModRepError):
        mu_map(R24, 2, 3, 0)  # mu_1: R/x^2 -> R/x^3 is not well-defined


def test_zero_and_identity_maps():
    M = module_from_partition(R24, [2])
    assert zero_map(M, M).is_zero()
    assert identity_map(M).A == FpMatrix.identity(2, 2)


def test_blockwise_hom_basis_matches_commuting_system():
    # the combinatorial basis for canonical modules must span exactly the
    # solutions of the commuting-matrix system
    rng = np.random.default_rng(42)
    from stmodcat.linalg import nullspace
    for p, m in [(2, 4), (3, 3)]:
        ring = Ring(p, m)
        for _ in range(6):
            parts_a = [int(rng.integers(1, m + 1)) for _ in range(int(rng.integers(1, 3)))]
            parts_b = [int(rng.integers(1, m + 1)) for _ in range(int(rng.integers(1, 3)))]
            A = module_from_partition(ring, parts_a)
            B = module_from_partition(ring, parts_b)
            basis = hom_basis(A, B)
            s, t = A.dim, B.dim
            system = FpMatrix(p, np.kron(np.eye(t, dtype=np.int64), A.X.a.T)
                              - np.kron(B.X.a, np.eye(s, dtype=np.int64)))
            assert len(basis) == nullspace(system).rows
            assert rank(FpMatrix(p, basis.reshape(len(basis), s * t))) == len(basis)
            for b in basis:
                assert np.array_equal((b @ A.X.a) % p, (B.X.a @ b) % p)


def test_stable_hom_dims_closed_form():
    # dim T(R/x^a, R/x^b) = max(0, min(a, b, m-a, m-b))
    from stmodcat.stcat import stable_hom
    for p in (2, 3):
        for m in (2, 3, 4):
            ring = Ring(p, m)
            for a in range(1, m + 1):
                for b in range(1, m + 1):
                    got = stable_hom(module_from_partition(ring, [a]),
                                     module_from_partition(ring, [b])).sdim
                    assert got == max(0, min(a, b, m - a, m - b)), (p, m, a, b)


# Reference algorithms: the type from the ranks of the powers of X, which
# reads no chain basis, and every structural map through its own canonical
# form and its own inverse of the chain matrix.

def _ref_jordan_type(M):
    ranks = []
    P = FpMatrix.identity(M.ring.p, M.dim)
    for _ in range(M.ring.m + 1):
        ranks.append(rank(P))
        P = P @ M.X
    ranks.append(ranks[-1])
    parts = []
    for j in range(1, M.ring.m + 1):
        parts.extend([j] * ((ranks[j - 1] - ranks[j]) - (ranks[j] - ranks[j + 1])))
    return tuple(sorted(parts, reverse=True))


def _ref_canonical_form(M):
    chains = jordan_chains(M)
    canon = module_from_partition(M.ring, [len(c) for c in chains])
    if M.dim == 0:
        return canon, identity_map(M), identity_map(M)
    C = FpMatrix(M.ring.p, np.array([v for c in chains for v in c], dtype=np.int64).T)
    return canon, RMap(M, canon, right_inverse(C)), RMap(canon, M, C)


def _ref_reduce_module(M):
    canon, to_c, from_c = _ref_canonical_form(M)
    kept, red_parts, off = [], [], 0
    for l in _ref_jordan_type(canon):
        if l < M.ring.m:
            kept.extend(range(off, off + l))
            red_parts.append(l)
        off += l
    red = module_from_partition(M.ring, red_parts)
    sel = np.zeros((len(kept), canon.dim), dtype=np.int64)
    sel[range(len(kept)), kept] = 1
    proj = RMap(canon, red, FpMatrix(M.ring.p, sel), check=False)
    incl = RMap(red, canon, FpMatrix(M.ring.p, sel.T), check=False)
    return red, proj @ to_c, from_c @ incl


def _ref_module_iso(M, N):
    if M.ring != N.ring or _ref_jordan_type(M) != _ref_jordan_type(N):
        return None
    return RMap(M, N, _ref_canonical_form(N)[2].A @ _ref_canonical_form(M)[1].A)


def _ref_projective_cover(M):
    m = M.ring.m
    chains = jordan_chains(M)
    P = free_module(M.ring, len(chains))
    A = np.zeros((M.dim, P.dim), dtype=np.int64)
    for i, chain in enumerate(chains):
        v = chain[0]
        for j in range(m):
            A[:, i * m + j] = v
            v = M.X.apply(v)
    return P, RMap(P, M, FpMatrix(M.ring.p, A))


def _ref_injective_envelope(M):
    m, p = M.ring.m, M.ring.p
    chains = jordan_chains(M)
    I = free_module(M.ring, len(chains))
    if M.dim == 0:
        return I, RMap(M, I, FpMatrix.zeros(p, 0, 0), check=False)
    cols = []
    for i, chain in enumerate(chains):
        for j in range(len(chain)):
            e = np.zeros(I.dim, dtype=np.int64)
            e[i * m + m - len(chain) + j] = 1
            cols.append(e)
    E = np.array(cols, dtype=np.int64).T
    C = FpMatrix(p, np.array([v for c in chains for v in c], dtype=np.int64).T)
    return I, RMap(M, I, FpMatrix(p, (E @ right_inverse(C).a) % p))


def test_jordan_basis_matches_the_reference_algorithms():
    # every structural construction reads one Jordan basis; each must give
    # its reference's output bit for bit, on and off canonical layout
    rng = np.random.default_rng(2024)
    checked = 0
    for p in (2, 3, 5):
        for m in range(1, 6):
            ring = Ring(p, m)
            for blocks in range(4):
                for _ in range(2 if blocks else 1):
                    M = module_from_partition(ring, rng.integers(1, m + 1, blocks).tolist())
                    n = M.dim
                    X, Y = (change_basis(M, rng.integers(0, p, (n, n)),
                                         rng.integers(0, p, (n, n))) for _ in range(2))
                    assert module_iso(X, module_from_partition(ring, [1] * (n + 1))) is None
                    for Z in (M, X):
                        assert jordan_type(Z) == _ref_jordan_type(Z)
                        assert canonical_form(Z) == _ref_canonical_form(Z)
                        assert reduce_module(Z) == _ref_reduce_module(Z)
                        assert projective_cover(Z) == _ref_projective_cover(Z)
                        assert injective_envelope(Z) == _ref_injective_envelope(Z)
                        assert module_iso(Z, Y) == _ref_module_iso(Z, Y)
                        checked += 1
    assert checked == 210


def _greedy_chains(M):
    """Jordan chains by the greedy rule, membership read off prefix ranks:
    from the top height down, a row of the canonical basis of ker X^h starts
    a chain when it raises the rank of ker X^(h-1), the level-h vectors of
    the taller chains and the tops taken before it at this height."""
    p, n = M.ring.p, M.dim
    chains = []
    for h in range(M.ring.m, 0, -1):
        span = [*nullspace(M.X.power(h - 1)).a] + [c[len(c) - h] for c in chains]
        for v in nullspace(M.X.power(h)).a:
            if rank(stack_rows(p, span + [v], cols=n)) > rank(stack_rows(p, span, cols=n)):
                span.append(v)
                chains.append([v])
                for _ in range(h - 1):
                    chains[-1].append(M.X.apply(chains[-1][-1]))
    return chains


@given(st.sampled_from([2, 3, 5]), st.integers(1, 6), st.data())
@settings(max_examples=100, deadline=None)
def test_jordan_chains_are_the_greedy_prefix_rank_choice(p, m, data):
    M = module_from_partition(Ring(p, m), data.draw(st.lists(st.integers(1, m), max_size=4)))
    n = M.dim
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    Z = change_basis(M, rng.integers(0, p, (n, n)), rng.integers(0, p, (n, n)))
    for Y in (M, Z):
        got, want = jordan_chains(Y), _greedy_chains(Y)
        assert [[v.tolist() for v in c] for c in got] == [[v.tolist() for v in c] for c in want]


@given(st.sampled_from([Ring(2, 2), Ring(2, 4), Ring(3, 3), Ring(5, 2)]), st.data())
@settings(max_examples=60, deadline=None)
def test_unchecked_constructions_are_nilpotent(ring, data):
    # kernels, cokernels and sums skip the public x^m = 0 check; verify it here
    M, N = data.draw(modules(ring)), data.draw(modules(ring))
    H = hom_basis(M, N)
    c = np.array(data.draw(st.lists(st.integers(0, ring.p - 1),
                                    min_size=len(H), max_size=len(H))), dtype=np.int64)
    f = RMap(M, N, FpMatrix(ring.p, np.tensordot(c, H, axes=1).reshape(N.dim, M.dim)))
    raw = []

    def recording(X):
        raw.append(X)
        return reduce_module(X)

    with mock.patch("stmodcat.modrep.reduce_module", recording):
        kd, cd = KernelData(f), CokernelData(f)
    S = direct_sum([M, N, kd.kernel, cd.cokernel])[0]
    assert len(raw) == 2
    for X in (*raw, S, kd.kernel, cd.cokernel):
        assert X.X.power(ring.m).is_zero()
    K_raw, C_raw = raw
    B = kd.raw_basis
    assert (M.X @ B) == (B @ K_raw.X) and (f.A @ B).is_zero()
    assert (cd.raw_proj.A @ N.X) == (C_raw.X @ cd.raw_proj.A)


def test_jordan_basis_is_built_once_per_module():
    # an equal module, a fresh object with the same key, reads the basis
    # built for the first one and makes no elimination
    ring = Ring(3, 4)
    rng = np.random.default_rng(7)
    M = change_basis(module_from_partition(ring, [4, 3, 1, 1]),
                     rng.integers(0, 3, (9, 9)), rng.integers(0, 3, (9, 9)))
    readers = (jordan_type, projective_cover, injective_envelope, reduce_module)
    first = [read(M) for read in readers]
    N = RModule(ring, FpMatrix(3, M.X.a))
    assert N is not M and N.key == M.key
    with mock.patch("stmodcat.linalg.rref", wraps=linalg.rref) as counted:
        again = [read(N) for read in readers]
    assert counted.call_count == 0
    assert again == first
    assert again[0] == (4, 3, 1, 1)


def _ref_partition_layout(M):
    """The layout the subdiagonal ones mark, accepted when rebuilding it
    from its parts gives M back."""
    X, n = M.X.a, M.dim
    parts, o = [], 0
    while o < n:
        l = 1
        while o + l < n and X[o + l, o + l - 1] == 1:
            l += 1
        parts.append(l)
        o += l
    if max(parts, default=0) > M.ring.m or module_from_partition(M.ring, parts) != M:
        return None
    return parts


@st.composite
def layout_probes(draw):
    """(kind, ring, X): a drawn module's action, or a canonical one with one
    entry changed: a stray entry on or above the diagonal, or a nonzero
    entry at a block boundary of the subdiagonal (1 merges the two blocks).
    A changed X need not be nilpotent, so the module is built unchecked in
    the test."""
    ring = draw(st.sampled_from([Ring(2, 2), Ring(2, 3), Ring(3, 2), Ring(3, 3), Ring(3, 4)]))
    kind = draw(st.sampled_from(["module", "above", "boundary"]))
    if kind == "module":
        return kind, ring, draw(modules(ring)).X.a
    parts = draw(st.lists(st.integers(1, ring.m), min_size=2, max_size=4))
    X = module_from_partition(ring, parts).X.a.copy()
    if kind == "above":
        i = draw(st.integers(0, len(X) - 1))
        X[i, draw(st.integers(i, len(X) - 1))] = draw(st.integers(1, ring.p - 1))
    else:
        o = draw(st.sampled_from(list(itertools.accumulate(parts))[:-1]))
        X[o, o - 1] = draw(st.integers(1, ring.p - 1))
    return kind, ring, X


@given(layout_probes())
@settings(max_examples=300, deadline=None)
def test_partition_layout_matches_rebuild_and_compare(probe):
    kind, ring, X = probe
    M = RModule(ring, FpMatrix(ring.p, X), check=False)
    got = partition_layout(M)
    assert got == _ref_partition_layout(M)
    # a layout has 0/1 entries, all below the diagonal
    if kind == "above" or (X > 1).any():
        assert got is None


@given(st.sampled_from([2, 3, 5]), st.integers(1, 6), st.data())
@settings(max_examples=100, deadline=None)
def test_canonical_layout_jordan_basis_needs_no_elimination(p, m, data):
    # on a canonical layout, blocks in any order, the chains are read off
    # the blocks; they must be jordan_chains' own, with C^-1 its inverse
    M = module_from_partition(Ring(p, m), data.draw(st.lists(st.integers(1, m), max_size=6)))
    with mock.patch("stmodcat.linalg.rref", side_effect=AssertionError("rref called")):
        parts, C, Cinv = _jordan_basis.__wrapped__(M)
    chains = jordan_chains(M)
    assert parts == tuple(len(c) for c in chains)
    assert C == FpMatrix(p, np.array([v for c in chains for v in c],
                                     dtype=np.int64).reshape(M.dim, M.dim).T)
    assert Cinv == right_inverse(C)


def test_memo_counts_hits_misses_and_size_and_clears():
    from stmodcat.modrep import memo

    calls = []

    @memo
    def square(n):
        calls.append(n)
        if n < 0:
            raise ValueError(n)
        return n * n

    assert square.cache_info() == (0, 0, 0)
    assert [square(n) for n in (2, 3, 2, 2)] == [4, 9, 4, 4]
    assert square.cache_info() == (2, 2, 2)
    assert square.cache_info().hits == 2 and square.cache_info().size == 2
    with pytest.raises(ValueError):
        square(-1)   # a miss, not cached
    assert square.cache_info() == (2, 3, 2)
    square.cache_clear()
    assert square.cache_info() == (0, 0, 0)
    assert square(2) == 4 and calls == [2, 3, -1, 2]


def test_cache_stats_walks_every_memoized_engine_function():
    import stmodcat
    from stmodcat import stcat

    stats = stmodcat.cache_stats()
    assert {"stcat.stable_hom", "stcat.cone_triangle", "modrep._jordan_basis",
            "adams.restricted_slot", "adams.bracket_slot", "adams.chain_map"} <= set(stats)
    M = module_from_partition(Ring(2, 3), [2])
    stcat.stable_hom(M, M)
    stcat.stable_hom(M, M)
    assert stmodcat.cache_stats()["stcat.stable_hom"].hits >= 1
    stmodcat.clear_caches()
    assert stmodcat.cache_stats()["stcat.stable_hom"] == (0, 0, 0)
    # a wrapper installed over a memoized name (as a tracer does) is seen through
    wrapped = stcat.stable_hom

    def outer(*args):
        return wrapped(*args)

    outer.__wrapped__ = wrapped
    with mock.patch.object(stcat, "stable_hom", outer):
        assert "stcat.stable_hom" in stmodcat.cache_stats()

