"""Regenerate bench/goldens.json: every workload's outputs at the golden seed.

    python3 bench/make_goldens.py

Run it only on a commit whose outputs are the reference; the benchmark then
fails any item that drifts from them by more than 1e-9 relative.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import workloads  # noqa: E402


def main() -> int:
    goldens = {}
    for name, make in workloads.WORKLOADS.items():
        wl = make(workloads.GOLDEN_SEED, None, BENCH_DIR / "out" / name)
        wl.setup()
        units = [wl.run_unit(j) for j in range(wl.golden_units)]
        if any(s.failed for unit in units for s in unit):
            print(f"{name}: outputs fail their invariants; goldens not written",
                  file=sys.stderr)
            return 1
        if isinstance(wl, workloads.SweepWorkload):
            goldens[name] = {p: [unit[i].output for unit in units]
                             for i, p in enumerate(wl.presets)}
        else:
            goldens[name] = [[s.output for s in unit] for unit in units]
        print(f"{name}: {len(units)} units", file=sys.stderr)
    goldens["seed"] = workloads.GOLDEN_SEED
    (BENCH_DIR / "goldens.json").write_text(json.dumps(goldens) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
