"""The benchmark's per-op answers stay fixed: one checked round of each gated
workload, generated and run as `perfbench/run.py` runs them, gives the
digests recorded in tests/golden/bench_digests.json (seed 1001) and
tests/golden/bench_digests_4242.json (seed 4242)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _golden(name):
    return json.loads((ROOT / "tests" / "golden" / name).read_text())


GOLDEN = _golden("bench_digests.json")
GOLDEN_4242 = _golden("bench_digests_4242.json")


def _run(args):
    # run.py's child environment: this checkout's src/ only, a fixed hash seed
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _check_round(golden, workload, tmp_path):
    inputs = tmp_path / "inputs.json"
    _run(["perfbench/gen.py", "--workload", workload, "--seed", str(golden["seed"]),
          "--out", str(inputs)])
    out = json.loads(_run(["perfbench/worker.py", "--inputs", str(inputs), "--check", "1"]))
    assert out["bad"] == {}
    assert out["digests"] == golden["digests"][workload]


@pytest.mark.parametrize("workload", sorted(GOLDEN["digests"]))
def test_checked_round_keeps_the_golden_digests(workload, tmp_path):
    _check_round(GOLDEN, workload, tmp_path)


@pytest.mark.parametrize("workload", sorted(GOLDEN_4242["digests"]))
def test_checked_round_keeps_the_golden_digests_at_seed_4242(workload, tmp_path):
    _check_round(GOLDEN_4242, workload, tmp_path)
