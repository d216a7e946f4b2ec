"""One round: a fresh interpreter runs every op of a workload once.

    python3 perfbench/worker.py --inputs inputs.json --trace 0 --check 1

The engine's memo caches live at module level and never shrink, so a
fresh process is the cold start every session pays.  The worker imports
the engine from `src/` of the working directory, loads the serialized
inputs, runs the ops in order (timed one by one), records its peak RSS,
and only then checks the answers.  It prints one JSON line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time


def import_engine():
    """Import stmodcat from ./src, refusing any other copy."""
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import stmodcat
    if os.path.dirname(os.path.dirname(os.path.abspath(stmodcat.__file__))) != src:
        raise SystemExit(f"stmodcat imported from {stmodcat.__file__}, not {src}")
    return stmodcat


def digest(summary) -> str:
    return hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()[:16]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", type=int, choices=(0, 1), default=1)
    ap.add_argument("--setup-only", type=int, choices=(0, 1), default=0,
                    help="stop after loading the inputs (a set-up time sample)")
    args = ap.parse_args(argv)

    import_engine()
    import workloads
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer().install()
    with open(args.inputs, encoding="utf-8") as fh:
        doc = json.load(fh)
    env = workloads.Env(doc)
    ops = doc["ops"]
    if args.setup_only:
        print(json.dumps({"first_op": time.monotonic()}))
        return 0

    clock = time.perf_counter_ns
    latencies, answers, raws, bad = [], {}, {}, {}
    first_op = time.monotonic()
    if tracer:
        tracer.start()
    t_start = clock()
    for op in ops:
        t0 = clock()
        try:
            answers[op["id"]], raws[op["id"]] = workloads.run_op(env, op)
        except Exception as e:  # an op that raises is a failed op, not a crash
            bad[op["id"]] = f"raised {type(e).__name__}: {e}"
        latencies.append(clock() - t0)
    timed_ns = clock() - t_start
    if tracer:
        tracer.stop()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if args.check:
        workloads.check(doc["workload"], env, ops, answers, raws, bad)
    print(json.dumps({
        "first_op": first_op,
        "timed_ns": timed_ns,
        "latency_ns": latencies,
        "rss_kb": rss_kb,
        "digests": [digest(answers.get(op["id"])) for op in ops],
        "bad": {str(k): v for k, v in bad.items()},
        "trace": tracer.metrics() if tracer else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
