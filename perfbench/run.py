"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload toda_battery --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the engine is imported from its `src/`.
A run first generates the inputs from the seed in a separate process
(`gen.py`), then starts fresh single-threaded worker processes
(`worker.py`), each running every op of the workload once (a round), in
one lane of rounds per core (at most two), until the next round would end
past `--seconds`.  Every round attempts the same ops, so the share of
failed ops is the same in every run.

The first round checks every answer; later rounds must reproduce the
first round's answers exactly (compared by digest).  The last line of
standard output is one JSON object: `correct`, `attempted`, `failed`
and `metrics` (the end-to-end metrics with `--trace 0`, the per-layer
ones, averaged over rounds, with `--trace 1`).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("toda_battery", "adams_dr", "wide_modules")
ROUND_TIMEOUT = 120     # seconds for one generator or worker process
RUN_BUDGET = 150        # no new round starts past this many seconds
LANES = min(2, len(os.sched_getaffinity(0)))
SETUP_SAMPLES = 11      # set-up times per run: each round's, then set-up-only workers


def child_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def run_child(args, env):
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=ROUND_TIMEOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{os.path.basename(args[0])} exited with {proc.returncode}")
    return proc.stdout


def percentile(values, q):
    """Nearest-rank percentile."""
    return sorted(values)[max(0, math.ceil(q * len(values)) - 1)]


def end_to_end(rounds, setups):
    """Throughput and percentiles over each op's fastest latency in the run.

    Every round does the same deterministic work from a cold start, and load
    from outside the benchmark only adds time, so an op's minimum over the
    rounds is its least disturbed latency.
    """
    lat_ms = [min(r["latency_ns"][i] for r in rounds) / 1e6
              for i in range(len(rounds[0]["latency_ns"]))]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(lat_ms) / (sum(lat_ms) / 1e3), "1/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_p95_ms": (percentile(lat_ms, 0.95), "ms"),
        "peak_rss_mb": (statistics.median(r["rss_kb"] for r in rounds) / 1024, "MB"),
    }


def per_layer(rounds):
    from tracing import METRICS
    return {name: (statistics.fmean(r["trace"][name] for r in rounds), unit)
            for name, unit in METRICS}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "stmodcat", "__init__.py")):
        print("error: run from a checkout root holding src/stmodcat", file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "_out")
    os.makedirs(out_dir, exist_ok=True)
    inputs = os.path.join(out_dir, f"inputs-{args.workload}-{args.seed}.json")
    env = child_env()
    run_start = time.monotonic()
    run_child([os.path.join(HERE, "gen.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--out", inputs], env)

    worker = os.path.join(HERE, "worker.py")

    def spawn(*flags):
        """(result line of one worker, its set-up time in seconds)."""
        spawned = time.monotonic()
        out = json.loads(run_child([worker, "--inputs", inputs, *flags], env)
                         .strip().splitlines()[-1])
        return out, out["first_op"] - spawned

    def lane(first):
        """Rounds one after another until the next would end past the deadline."""
        done = []
        while True:
            t0 = time.monotonic()
            check = "1" if first and not done else "0"
            done.append(spawn("--trace", str(args.trace), "--check", check))
            now = time.monotonic()
            if now + (now - t0) > deadline or now - run_start + (now - t0) > RUN_BUDGET:
                return done

    # One lane of rounds per core: each op's latency is its minimum over the
    # rounds, so twice the rounds in a run give it twice the chances of a
    # quiet moment on a shared host.  The first round of lane 0 is checked.
    deadline = time.monotonic() + args.seconds
    with ThreadPoolExecutor(LANES) as pool:
        lanes = list(pool.map(lane, [True] + [False] * (LANES - 1)))
    rounds = [out for done in lanes for out, _ in done]
    setups = [setup for done in lanes for _, setup in done]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn("--setup-only", "1")[1])

    first = rounds[0]
    attempted = failed = 0
    unexpected = []
    for r in rounds:
        for i, d in enumerate(r["digests"]):
            attempted += 1
            reason = first["bad"].get(str(i)) or r["bad"].get(str(i))
            if reason is None and d != first["digests"][i]:
                reason = "answer differs from the first round's"
            if reason is not None:
                failed += 1
                if not reason.startswith("F1:"):
                    unexpected.append(f"op {i}: {reason}")
    for line in sorted(set(unexpected)):
        print(f"failed {line}", file=sys.stderr)
    metrics = per_layer(rounds) if args.trace else end_to_end(rounds, setups)
    with open(os.path.join(out_dir, f"run-{args.workload}-{args.seed}-{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"bad": first["bad"], "setups": setups,
                   "latency_ns": [r["latency_ns"] for r in rounds]}, fh)
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
