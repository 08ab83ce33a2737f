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
is missing on either side. The outputs go to a temporary directory. Hashes
depend on the numpy and BLAS build, so a stored manifest holds only for the
machine that wrote it.
"""

from __future__ import annotations

import argparse
import hashlib
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


def compare(mine: dict, theirs: dict) -> bool:
    """Print one line per file of either manifest; True if every file matches."""
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
            theirs = json.loads(args.check.read_text())
        elif args.against:
            theirs = manifest(args.against.resolve() / "src", presets, args.trials,
                              Path(tmp, "other"))
        else:
            print(json.dumps(mine, indent=2, sort_keys=True))
            return 0
    return 0 if compare(mine, theirs) else 1


if __name__ == "__main__":
    sys.exit(main())
