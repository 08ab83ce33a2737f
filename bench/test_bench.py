"""Self-test of the benchmark at minimal size.

    python3 -m pytest bench/test_bench.py -q

Runs every workload in smoke mode at the golden seed, traced and untraced,
and checks that each metric named in BENCHMARK.json is reported, finite and
in its unit, that no output fails against the goldens, and that a perturbed
golden is caught.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
GOLDEN_SEED = json.loads((BENCH_DIR / "goldens.json").read_text(encoding="utf-8"))["seed"]


def _run(workload, trace, *extra):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(GOLDEN_SEED), "--seconds", "1", "--trace", str(trace),
           "--smoke", *extra]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_present_finite_and_golden(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True
    if not trace:
        assert result["metrics"]["ok_frac"]["value"] == 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_perturbed_golden_fails(workload, tmp_path):
    goldens = json.loads((BENCH_DIR / "goldens.json").read_text(encoding="utf-8"))
    first = goldens[workload]
    first = first[next(iter(first))] if isinstance(first, dict) else first
    first[0][0][0] *= 1.0 + 1e-6            # unit 0, first item, first value
    path = tmp_path / "goldens.json"
    path.write_text(json.dumps(goldens), encoding="utf-8")
    result = _run(workload, 0, "--goldens", str(path))
    assert result["failed"] > 0 and result["correct"] is False
    assert result["metrics"]["ok_frac"]["value"] < 1.0
