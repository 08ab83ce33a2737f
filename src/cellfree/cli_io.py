"""Config files, result serialization and the command-line front end.

Config files are flat ``key = value`` text (UTF-8, ``#`` comments); keys are
the SystemConfig field names and missing keys fall back to the defaults.
Sweep results go to a fixed-schema CSV plus a JSON sidecar holding the fully
resolved configuration, so every output file is reproducible from (config,
seed) alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import operator
import os
import stat
import sys
import typing
from pathlib import Path
from typing import Optional, Sequence

from .channel import ConfigError, SystemConfig
from .pipeline import (SCHEMES, LearningCurveRow, Scheme, SolverParams,
                       SweepRow, TrialError, run_learning_curve, run_sweep)
from .presets import PRESETS

# int, float, str or tuple: each config field's type is its default's
_DEFAULT_CONFIG = SystemConfig()


def _header(row_type) -> str:
    return ",".join(f.name for f in dataclasses.fields(row_type))


CSV_HEADER = _header(SweepRow)


def _parse_value(key: str, raw: str):
    kind = type(getattr(_DEFAULT_CONFIG, key))
    if kind is tuple:
        return tuple(float(part) for part in raw.replace(",", " ").split())
    return kind(raw)


def load_config(path) -> SystemConfig:
    """Parse a flat key = value file into a validated SystemConfig."""
    valid = set(_DEFAULT_CONFIG.field_names())
    values, set_on = {}, {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not UTF-8 text: {err}") from err
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in valid:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in set_on:
            raise ConfigError(f"{path}:{lineno}: key {key!r} already set on line {set_on[key]}")
        set_on[key] = lineno
        try:
            values[key] = _parse_value(key, raw)
        except ValueError as err:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {err}") from err
    return SystemConfig(**values).validate()


def _write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 in place: the bytes, and for a new
    file the mode, of ``open(path, "w")``, without its ``O_TRUNC``. On ext4,
    truncating a file that has blocks to zero length is slow, and closing a
    file truncated that way starts its writeback, which back-to-back short
    runs to one ``--out`` paid on every write. So the file is overwritten
    from its start and then cut to the new length; only a regular file is
    cut (``os.devnull`` refuses it). Like ``open(path, "w")``, this is not
    crash-atomic: a process killed while writing can leave a partial file."""
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, str)):
        return str(value)
    return repr(float(value))


def emit_results(rows: Sequence, path, sidecar: Optional[dict] = None,
                 row_type=SweepRow) -> None:
    """Write sweep rows, or rows of another ``row_type`` such as
    LearningCurveRow, as CSV with one column per field; floats use shortest
    round-trip decimals."""
    values = operator.attrgetter(*(f.name for f in dataclasses.fields(row_type)))
    lines = [_header(row_type)] + [",".join(map(_fmt, values(r))) for r in rows]
    _write_text(path, "\n".join(lines) + "\n")
    if sidecar is not None:
        _write_sidecar(path, sidecar)


def _parser(kind):
    if kind == Optional[float]:
        return lambda raw: float(raw) if raw else None
    return kind


# one parser per results column, from the column's type
_SWEEP_PARSERS = tuple(map(_parser, typing.get_type_hints(SweepRow).values()))


def read_results(path) -> list:
    """Parse a CSV written by emit_results back into SweepRow objects."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: not a results CSV (unexpected header)")
    return [SweepRow(*[parse(raw) for parse, raw
                       in zip(_SWEEP_PARSERS, line.split(","), strict=True)])
            for line in lines[1:]]


def _write_sidecar(path, sidecar: dict) -> None:
    # numpy integers, which a config's counts and seed may be, go out as ints
    text = json.dumps(sidecar, indent=2, sort_keys=True, default=operator.index)
    _write_text(str(path) + ".config.json", text + "\n")


def _sidecar_dict(cfg, solver, preset_name, schemes, axis, trials, seed) -> dict:
    return {
        "config": dataclasses.asdict(cfg),
        "solver": dataclasses.asdict(solver),
        "preset": preset_name,
        "schemes": [s.label for s in schemes],
        "axis": axis,
        "trials": trials,
        "seed": seed,
    }


@functools.cache      # parse_args keeps no state between calls
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cellfree",
        description="Monte-Carlo simulator for a cell-free massive MIMO downlink")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a preset experiment and write CSV results")
    run.add_argument("--config", help="key = value config file (defaults used if omitted)")
    run.add_argument("--preset", required=True, help="experiment preset name")
    run.add_argument("--out", required=True, help="output CSV path")
    run.add_argument("--trials", type=int, help="override the preset's trial count")
    run.add_argument("--seed", type=int, help="override the config's RNG seed")
    run.add_argument("--schemes", help="comma-separated scheme list, e.g. MMSE+OPA+LS,ZF+UPA+NS")

    sub.add_parser("list-presets", help="print available preset names")

    val = sub.add_parser("validate", help="check a config file against all invariants")
    val.add_argument("--config", required=True)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    if args.command == "list-presets":
        for name in PRESETS:
            print(name)
        return 0

    if args.command == "validate":
        try:
            load_config(args.config)
        except (ConfigError, OSError) as err:
            print(f"invalid config: {err}", file=sys.stderr)
            return 1
        print("config ok", file=sys.stderr)
        return 0

    # run
    if args.preset not in PRESETS:
        print(f"unknown preset {args.preset!r}; valid presets: "
              f"{', '.join(PRESETS)}", file=sys.stderr)
        return 2
    preset = PRESETS[args.preset]
    try:
        base = load_config(args.config) if args.config else SystemConfig().validate()
        cfg = preset.resolve_config(base)
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, rng_seed=args.seed).validate()
    except (ConfigError, OSError) as err:
        print(f"invalid config: {err}", file=sys.stderr)
        return 1

    scheme_labels = (args.schemes.split(",") if args.schemes else preset.schemes)
    try:
        schemes = [Scheme.parse(label) for label in scheme_labels]
    except ValueError as err:
        valid = "; ".join(f"{stage}s: {', '.join(options)}"
                          for stage, options in SCHEMES.items())
        print(f"{err}\nvalid {valid}", file=sys.stderr)
        return 2
    labels = [scheme.label for scheme in schemes]
    repeated = next((label for i, label in enumerate(labels) if label in labels[:i]), None)
    if repeated is not None:
        print(f"--schemes lists {repeated} more than once", file=sys.stderr)
        return 2

    trials = args.trials if args.trials is not None else preset.trials
    if trials < 1:
        print(f"--trials must be at least 1, got {trials}", file=sys.stderr)
        return 2
    solver = dataclasses.replace(SolverParams(), **preset.solver)

    print(f"running preset {preset.name!r}: {len(schemes)} scheme(s), "
          f"{trials} trial(s), axis {preset.axis}", file=sys.stderr)
    sidecar = _sidecar_dict(cfg, solver, preset.name, schemes, preset.axis,
                            trials, cfg.rng_seed)
    try:
        if preset.kind == "learning":
            if len(schemes) > 1:
                print(f"learning curves track one scheme; using {schemes[0].label}",
                      file=sys.stderr)
            rows = run_learning_curve(cfg, schemes[0], trials)
            emit_results(rows, args.out, sidecar, row_type=LearningCurveRow)
        else:
            rows = run_sweep(cfg, schemes, preset.axis, trials, solver,
                             with_ber=preset.with_ber,
                             axis_values=preset.axis_values)
            emit_results(rows, args.out, sidecar)
    except TrialError as err:
        print(f"trial failed: {err}", file=sys.stderr)
        return 1
    except ValueError as err:          # refused before the first trial
        print(f"cannot run: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"cannot write results: {err}", file=sys.stderr)
        return 1
    print(f"wrote {args.out}", file=sys.stderr)
    return 0
