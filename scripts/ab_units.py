"""Interleaved in-process A/B of preset units between two checkouts.

Copies each checkout's ``src/cellfree`` into a temporary directory under a
package name of its own (``cellfree_a``, ``cellfree_b``) and imports both in
this one process, with OpenBLAS, OpenMP and MKL on one thread, so that both
sides share the machine's state from moment to moment. A unit is one
``run --preset <name> --trials 1`` call per preset through the side's
``cli_io.main``, at seed ``1 + j`` for unit j on both sides. Each round
times one unit on each side, alternating which side goes first, after one
untimed unit per side at seed 0.

    python scripts/ab_units.py ../parent .
    python scripts/ab_units.py ../parent . --presets fig-large-sumrate --rounds 30

It prints each side's median and quartiles of seconds per unit, the median
over the rounds of B's time over A's, and the rounds B was faster in. Any
call that does not exit 0 stops the run.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import os
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}


def load(checkout: Path, name: str, tmp: Path):
    """``cli_io`` of ``checkout``'s package, imported as ``name``."""
    shutil.copytree(checkout / "src" / "cellfree", tmp / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"{name}.cli_io")


def unit(cli, presets, seed: int, out: Path) -> float:
    """Seconds for one ``--trials 1`` run of every preset at ``seed``."""
    start = perf_counter()
    for preset in presets:
        argv = ["run", "--preset", preset, "--out", str(out / f"{preset}.csv"),
                "--trials", "1", "--seed", str(seed)]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"{cli.__name__} {' '.join(argv)} exited {code}")
    return perf_counter() - start


def quartiles(xs) -> str:
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return f"median {1e3 * q2:.2f} ms per unit (quartiles {1e3 * q1:.2f}-{1e3 * q3:.2f})"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("a", type=Path, help="checkout A, the baseline")
    p.add_argument("b", type=Path, help="checkout B, the change")
    p.add_argument("--presets", default="fig-tiny-opa,fig-tiny-apa",
                   help="comma-separated preset names (default: %(default)s)")
    p.add_argument("--rounds", type=int, default=20)
    args = p.parse_args(argv)
    if args.rounds < 2:
        p.error("--rounds must be at least 2")
    presets = args.presets.split(",")

    os.environ.update(ONE_THREAD)          # before either package imports numpy
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        sys.path.insert(0, str(tmp))
        clis = [load(args.a.resolve(), "cellfree_a", tmp),
                load(args.b.resolve(), "cellfree_b", tmp)]
        outs = [tmp / "out_a", tmp / "out_b"]
        for out in outs:
            out.mkdir()
        for cli, out in zip(clis, outs):
            unit(cli, presets, 0, out)                       # warm-up, untimed
        seconds = [[], []]
        for j in range(args.rounds):
            for side in ((0, 1) if j % 2 == 0 else (1, 0)):
                seconds[side].append(unit(clis[side], presets, 1 + j, outs[side]))
    ratios = [b / a for a, b in zip(*seconds)]
    wins = sum(b < a for a, b in zip(*seconds))
    print(f"presets {','.join(presets)}, {args.rounds} rounds")
    print(f"A {args.a}: {quartiles(seconds[0])}")
    print(f"B {args.b}: {quartiles(seconds[1])}")
    print(f"B/A per round: median {statistics.median(ratios):.4f}; "
          f"B faster in {wins} of {args.rounds} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
