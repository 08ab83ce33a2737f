"""cellfree benchmark: one workload, closed loop, one caller, BLAS on one thread.

    python3 bench/run.py --workload tiny-es --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the workload runs untraced for ``--seconds`` and the last
stdout line is a JSON object with the end-to-end metrics (see README.md in
this directory). With ``--trace 1`` it runs the layer microbenchmarks, then
a fixed block of units, each untraced and traced, and reports the per-layer
metrics. Every call's output is checked; the result line carries
``correct``, ``attempted`` and ``failed``. ``--smoke`` shrinks every part to
its minimum for the self-test.
"""

import os

# Pin BLAS before numpy is imported anywhere: two BLAS threads slow the small
# matrices of this simulator and make timings erratic.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("tiny-es", "large-ls", "ber-multiantenna", "single-trial")
SETUP_PROBES = 5
# units (workload trials) in the traced block: about 6-8 s each way on a 2-core box
TRACE_UNITS = {"tiny-es": 3, "large-ls": 40, "ber-multiantenna": 48, "single-trial": 768}
MICRO_BUDGET_S = 0.25


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="minimal size: one unit, one set-up probe, short microbenchmarks")
    p.add_argument("--goldens", type=Path, default=BENCH_DIR / "goldens.json",
                   help="golden outputs, compared at the golden seed")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _setup(args):
    """Import cellfree, resolve the workload's configs, warm up once per config.

    Returns the workload and the set-up time in wall and nominal seconds.
    """
    import speed
    with speed.SpeedSampler() as sampler:
        start = perf_counter()
        import workloads
        wl = workloads.make_workload(args.workload, args.seed, args.goldens, OUT_DIR)
        wl.setup()
        end = perf_counter()
    return wl, end - start, float(sampler.nominal_seconds([start], [end])[0])


def _setup_seconds(args, probes):
    """Median set-up time (nominal, wall) over fresh interpreters, run in turn."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--goldens", str(args.goldens),
           "--setup-probe"]
    nominal, wall = [], []
    for _ in range(probes):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        probe = json.loads(done.stdout.splitlines()[-1])
        nominal.append(probe["setup_s"])
        wall.append(probe["wall_s"])
    return statistics.median(nominal), statistics.median(wall)


def _run_for(wl, seconds):
    """Run units 0, 1, ... until ``seconds`` have passed; at least one."""
    samples = []
    start = perf_counter()
    j = 0
    while j == 0 or perf_counter() - start < seconds:
        samples.extend(wl.run_unit(j))
        j += 1
    return samples


def _timing(seconds, cells, groups, sample_groups):
    """trials_per_s and the latency percentiles from per-call seconds.

    Groups (presets or antenna splits) differ in cost by design, so each
    percentile is taken within each group and averaged over the groups;
    a pooled percentile would sit in the gaps between them.
    """
    import numpy as np
    seconds = np.asarray(seconds)
    sample_groups = np.asarray(sample_groups)
    per_group = [seconds[sample_groups == g] for g in groups]
    return {"trials_per_s": (float(np.sum(cells) / seconds.sum()), "1/s"),
            "trial_ms_p50": (float(np.mean([np.percentile(x, 50) for x in per_group])) * 1e3, "ms"),
            "trial_ms_p90": (float(np.mean([np.percentile(x, 90) for x in per_group])) * 1e3, "ms")}


def _end_to_end(args, wl):
    import speed
    with speed.SpeedSampler() as sampler:
        samples = _run_for(wl, 0.0 if args.smoke else args.seconds)
    setup_s, setup_wall = _setup_seconds(args, 1 if args.smoke else SETUP_PROBES)
    attempted = sum(s.attempted for s in samples)
    failed = sum(s.failed for s in samples)
    cells = [s.cells for s in samples]
    groups = [s.group for s in samples]
    wall = [s.seconds for s in samples]
    starts = [s.start for s in samples]
    nominal = sampler.nominal_seconds(starts, [a + b for a, b in zip(starts, wall)])
    metrics = {"setup_s": (setup_s, "s"),
               **_timing(nominal, cells, wl.groups, groups),
               "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
               "ok_frac": (1.0 - failed / attempted, "fraction")}
    raw = {"setup_s": setup_wall,
           **{k: v for k, (v, _) in _timing(wall, cells, wl.groups, groups).items()}}
    info = {"latency_samples": {g: groups.count(g) for g in wl.groups},
            "fail_frac": failed / attempted, "slowdown": sampler.slowdown(),
            "wall_clock": raw}
    return metrics, attempted, failed, info


def _per_layer(args, wl):
    import micro
    import tracer
    metrics = micro.run(0.0 if args.smoke else MICRO_BUDGET_S)
    units = 1 if args.smoke else TRACE_UNITS[args.workload]
    # Each unit runs untraced and traced back to back, in alternating order,
    # so that drift in machine speed cancels out of trace_overhead_frac.
    tr = tracer.Tracer()
    plain, traced = [], []
    plain_wall = traced_wall = 0.0
    for j in range(units):
        for with_trace in ((False, True) if j % 2 == 0 else (True, False)):
            start = perf_counter()
            if with_trace:
                with tr.installed():
                    traced.extend(wl.run_unit(j))
                traced_wall += perf_counter() - start
            else:
                plain.extend(wl.run_unit(j))
                plain_wall += perf_counter() - start
    tr.dump(OUT_DIR / f"spans-{args.workload}.npz")
    metrics.update(tr.layer_metrics(traced_wall, plain_wall))
    samples = plain + traced
    attempted = sum(s.attempted for s in samples)
    failed = sum(s.failed for s in samples)
    info = {"trace_units": units, "spans": len(tr.fns),
            "fail_frac": failed / attempted}
    return metrics, attempted, failed, info


def _environment():
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "cellfree" / "__init__.py").is_file():
        print(f"cellfree sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

    wl, setup_wall, setup_s = _setup(args)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s, "wall_s": setup_wall}))
        return 0
    run = _per_layer if args.trace else _end_to_end
    metrics, attempted, failed, info = run(args, wl)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "environment": _environment(), **info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
