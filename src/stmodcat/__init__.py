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


def _memoized() -> dict:
    """Every `memo` wrapper defined in an engine module, by "module.name",
    found through any wrapper installed over it (`__wrapped__`)."""
    import inspect
    from . import adams, cli, heller, linalg, modrep, stcat, toda
    out = {}
    for mod in (linalg, modrep, stcat, toda, adams, heller, cli):
        for name, obj in vars(mod).items():
            fn = inspect.unwrap(obj, stop=lambda f: hasattr(f, "cache_info"))
            if hasattr(fn, "cache_info") and fn.__module__ == mod.__name__:
                out[f"{mod.__name__.rsplit('.', 1)[1]}.{name}"] = fn
    return out


def cache_stats() -> dict:
    """Hits, misses and size (`modrep.CacheInfo`) of every memoized engine
    function, by "module.name"."""
    return {name: fn.cache_info() for name, fn in sorted(_memoized().items())}


def clear_caches() -> None:
    """Empty every memo cache of the engine, so the next call of each
    memoized function computes afresh."""
    for fn in _memoized().values():
        fn.cache_clear()


__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
