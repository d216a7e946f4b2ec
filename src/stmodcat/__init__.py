"""Exact Toda bracket and Adams spectral sequence calculator for stable
module categories of truncated polynomial rings over prime fields."""

from .modrep import (
    Ring,
    RModule,
    RMap,
    module_from_partition,
    jordan_type,
    hom_basis,
    projective_cover,
    injective_envelope,
    omega,
    sigma,
    mu_map,
    block_map,
)
from .stcat import (
    StableHomSpace,
    Triangle,
    stable_hom,
    stably_equal,
    is_stably_zero,
    cone_triangle,
    fiber_triangle,
    rotate,
    rotate_back,
    rotate_steps,
    is_stable_iso,
    is_distinguished,
    DIRECT,
    OP,
)
from .toda import (
    BracketSet,
    bracket3,
    bracket3_restricted,
    higher_bracket,
    toda_family,
    indeterminacy_basis,
    restricted_higher_bracket,
    filtered_witness,
)
from .adams import (
    ProjectiveClass,
    ghost_cover,
    adams_resolution,
    pages,
    dr_set,
    dr_bracket_forms,
    sparse_check,
)
from .heller import heller_check

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
