"""Exact F_p arithmetic of the benchmark's own, on plain lists of ints.

The checks compare the engine's answers against these computations, so
nothing here imports the engine: rank by Gaussian elimination, the row
space as an explicit set of vectors, and Jordan types from ranks of
powers.
"""

from __future__ import annotations

import itertools


def echelon(rows, p: int) -> list[list[int]]:
    """A row echelon basis of the row space (pivots normalised to 1)."""
    basis: list[list[int]] = []
    pivots: list[int] = []
    for row in rows:
        v = [int(x) % p for x in row]
        for b, c in zip(basis, pivots):
            if v[c]:
                f = v[c]
                v = [(x - f * y) % p for x, y in zip(v, b)]
        lead = next((i for i, x in enumerate(v) if x), None)
        if lead is None:
            continue
        inv = pow(v[lead], p - 2, p)
        basis.append([(x * inv) % p for x in v])
        pivots.append(lead)
    return basis


def rank(rows, p: int) -> int:
    return len(echelon(rows, p))


def transpose(A) -> list[list[int]]:
    return [list(col) for col in zip(*A)]


def matmul(A, B, p: int) -> list[list[int]]:
    Bt = transpose(B)
    return [[sum(a * b for a, b in zip(row, col)) % p for col in Bt] for row in A]


def in_span(rows, v, p: int) -> bool:
    basis = echelon(rows, p)
    return rank(basis + [list(v)], p) == len(basis)


def span(rows, p: int, n: int) -> set[tuple[int, ...]]:
    """Every F_p-linear combination of the length-n rows."""
    basis = echelon(rows, p)
    out = set()
    for cs in itertools.product(range(p), repeat=len(basis)):
        out.add(tuple(sum(c * b[i] for c, b in zip(cs, basis)) % p
                      for i in range(n)))
    return out


def coset(base, rows, p: int) -> set[tuple[int, ...]]:
    n = len(base)
    return {tuple((b + i) % p for b, i in zip(base, v)) for v in span(rows, p, n)}


def negate(elements, p: int) -> set[tuple[int, ...]]:
    return {tuple((-c) % p for c in e) for e in elements}


def jordan_type(X, p: int, m: int) -> tuple[int, ...]:
    """Block sizes of the nilpotent action X, descending, from ranks of powers."""
    n = len(X)
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    ranks = []
    for _ in range(m + 2):
        ranks.append(rank(P, p) if n else 0)
        P = matmul(P, X, p) if n else P
    parts = []
    for j in range(1, m + 1):
        parts += [j] * ((ranks[j - 1] - ranks[j]) - (ranks[j] - ranks[j + 1]))
    return tuple(sorted(parts, reverse=True))


def stable_block_dim(a: int, b: int, m: int) -> int:
    """dim of the stable hom group between the blocks R/x^a and R/x^b."""
    return min(a, b, m - a, m - b)
