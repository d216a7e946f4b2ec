"""Triangle recognition: a candidate is distinguished iff the represented
five-term sequences are exact and the 3-fold bracket of its maps
contains the identity.

The represented-functor condition is checked on one indecomposable test
object per isomorphism class: every module is a finite sum of the
blocks R/x^i, represented functors take sums to products, and the
family of blocks with i < m is closed under suspension up to
isomorphism, so exactness over these test objects decides exactness
over every object.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import FpMatrix, rank
from .modrep import identity_map, module_from_partition
from .stcat import (
    Triangle,
    counit_iso,
    omega_map,
    post_matrix,
    sigma_ob,
)
from .toda import bracket3_contains


@dataclass
class HellerVerdict:
    distinguished: bool
    exactness_ok: bool
    bracket_ok: bool
    failing_test_object: tuple | None

    def __bool__(self):
        return self.distinguished


def _exact_at(into: FpMatrix, out: FpMatrix) -> bool:
    """Is im(into) = ker(out) for a composable pair of matrices?"""
    if (out @ into).a.any():
        return False
    return rank(into) == out.cols - rank(out)


def heller_check(t: Triangle, cap: int = 4096) -> HellerVerdict:
    """Apply both recognition conditions to a candidate triangle.

    Bracket membership is decided as a coset test, with nothing
    enumerated, so `cap` bounds no work here.
    """
    X, Y, Z = t.objects
    ring = X.ring
    # Sigma^{-1} h, transported through the comparison
    v = counit_iso(X) @ omega_map(t.h)
    failing = None
    for i in range(1, ring.m):
        A = module_from_partition(ring, [i])
        mv, mf, mg, mh = (post_matrix(f, A) for f in (v, t.f, t.g, t.h))
        spots = [("X", mv, mf), ("Y", mf, mg), ("Z", mg, mh)]
        failing = next(((i, name) for name, into, out in spots
                        if not _exact_at(into, out)), None)
        if failing:
            break
    exact = failing is None
    bracket_ok = exact and bracket3_contains(t.h, t.g, t.f,
                                             identity_map(sigma_ob(X)))
    return HellerVerdict(exact and bracket_ok, exact, bracket_ok, failing)
