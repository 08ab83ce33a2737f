"""SHA-256 manifest of every preset's CSV and sidecar, and its comparison.

Runs each preset through ``python -m cellfree run`` in a fresh process with
OpenBLAS, OpenMP and MKL on one thread, at a fixed trial count and seed 777,
and hashes each ``<preset>.csv`` and ``<preset>.csv.config.json`` it writes.

    python scripts/preset_manifest.py                          # print the manifest
    python scripts/preset_manifest.py --write manifest.json    # store it
    python scripts/preset_manifest.py --check manifest.json    # compare with a stored one
    python scripts/preset_manifest.py --against ../parent      # compare with a checkout
    python scripts/preset_manifest.py --trials 120 --presets fig-ber,fig-large-sumrate

``--against`` runs the same presets from another checkout's ``src`` (a
parent commit made with ``git archive``, say) and compares file by file.
A comparison prints one line per file and exits 1 if any file differs or
is missing on either side. Under ``--against`` a differing CSV also gets a
line with how many of its rows differ, their schemes, and the largest
relative difference of a numeric field, so that a change meant to stay
within rounding shows by how much it moved. The outputs go to a temporary
directory. Hashes depend on the numpy and BLAS build, so a stored manifest
holds only for the machine that wrote it.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 777
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}


def preset_names(src: Path) -> list:
    """The presets of the checkout whose sources are ``src``, in its order."""
    done = subprocess.run([sys.executable, "-m", "cellfree", "list-presets"],
                          env=_env(src), capture_output=True, text=True, check=True)
    return [line.split()[0] for line in done.stdout.splitlines() if line.strip()]


def _env(src: Path) -> dict:
    return {**os.environ, **ONE_THREAD, "PYTHONPATH": str(src)}


def manifest(src: Path, presets, trials: int, out: Path) -> dict:
    """``{file name: SHA-256}`` of every output of ``presets`` run from ``src``."""
    out.mkdir(parents=True, exist_ok=True)
    files = {}
    for name in presets:
        csv = out / f"{name}.csv"
        subprocess.run([sys.executable, "-m", "cellfree", "run", "--preset", name,
                        "--out", str(csv), "--trials", str(trials), "--seed", str(SEED)],
                       env=_env(src), capture_output=True, check=True)
        for path in (csv, Path(f"{csv}.config.json")):
            files[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return {"trials": trials, "seed": SEED, "files": files}


def _relative(a: str, b: str) -> float:
    """``|a - b| / max(|a|, |b|)`` of two CSV fields, 0 where both are 0;
    inf where they differ and either is not a number."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return 0.0 if a == b else float("inf")
    return abs(x - y) / max(abs(x), abs(y)) if x != y else 0.0


def row_differences(mine: Path, theirs: Path):
    """``(rows, total, schemes, largest)`` of two CSVs: how many rows
    differ, of how many (a row on one side only differs), the ``scheme``
    values of those rows in order, each once, and the largest relative
    difference of a field between two such rows (inf for a row on one side
    only)."""
    with open(mine, newline="") as a, open(theirs, newline="") as b:
        left, right = list(csv.DictReader(a)), list(csv.DictReader(b))
    differ = [(x, y) for x, y in itertools.zip_longest(left, right) if x != y]
    schemes = dict.fromkeys((x or y).get("scheme") for x, y in differ)
    largest = max((float("inf") if None in (x, y) else
                   max(_relative(x[key], y.get(key, "")) for key in x)
                   for x, y in differ), default=0.0)
    return len(differ), max(len(left), len(right)), [s for s in schemes if s], largest


def compare(mine: dict, theirs: dict, outputs=None) -> bool:
    """Print one line per file of either manifest; True if every file matches.
    ``outputs``, the directories that hold the two runs' files, adds a line
    of ``row_differences`` under each CSV that differs."""
    if (mine["trials"], mine["seed"]) != (theirs["trials"], theirs["seed"]):
        print(f"run differs: trials/seed {mine['trials']}/{mine['seed']} "
              f"against {theirs['trials']}/{theirs['seed']}")
        return False
    same = True
    for name in sorted(mine["files"].keys() | theirs["files"].keys()):
        a, b = mine["files"].get(name), theirs["files"].get(name)
        verdict = "identical" if a == b else ("missing" if None in (a, b) else "DIFFERS")
        same &= a == b
        print(f"{verdict:9s} {name}")
        if verdict == "DIFFERS" and outputs is not None and name.endswith(".csv"):
            rows, total, schemes, largest = row_differences(*(Path(d, name) for d in outputs))
            print(f"{'':9s}   {rows} of {total} rows differ"
                  + (f" ({', '.join(schemes)})" if schemes else "")
                  + f"; largest relative difference {largest:.2g}")
    return same


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--presets", help="comma-separated preset names (default: all)")
    p.add_argument("--write", type=Path, help="store the manifest in this JSON file")
    side = p.add_mutually_exclusive_group()
    side.add_argument("--check", type=Path, help="compare with a stored manifest")
    side.add_argument("--against", type=Path, help="compare with this checkout's outputs")
    args = p.parse_args(argv)

    src = ROOT / "src"
    presets = args.presets.split(",") if args.presets else preset_names(src)
    with tempfile.TemporaryDirectory() as tmp:
        mine = manifest(src, presets, args.trials, Path(tmp, "this"))
        if args.write:
            args.write.write_text(json.dumps(mine, indent=2, sort_keys=True) + "\n")
        if args.check:
            return 0 if compare(mine, json.loads(args.check.read_text())) else 1
        if args.against:
            theirs = manifest(args.against.resolve() / "src", presets, args.trials,
                              Path(tmp, "other"))
            return 0 if compare(mine, theirs, (Path(tmp, "this"), Path(tmp, "other"))) else 1
    print(json.dumps(mine, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
