"""Every engine name the benchmark's traced run reads must still exist.

`perfbench/tracing.py` wraps the public functions of each engine layer
and builds its per-layer metrics from the names in `METRICS`; a metric
whose function or constructor is gone makes a traced run fail.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_name_is_public_in_its_layer():
    tracing = load_tracing()
    missing = []
    for name, _ in tracing.METRICS:
        layer, *rest = name.split(".")
        if layer == "bench" or len(rest) < 2:  # "layer.self_s" and "bench.*" are sums
            continue
        entry = rest[0]
        obj = getattr(importlib.import_module(f"stmodcat.{layer}"), entry, None)
        if entry in tracing.CONSTRUCTORS.get(layer, ()):
            ok = inspect.isclass(obj)
        else:
            ok = (inspect.isfunction(obj) and not entry.startswith("_")
                  and obj.__module__ == f"stmodcat.{layer}")
        if not ok:
            missing.append(name)
    assert not missing
