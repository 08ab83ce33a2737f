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
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .channel import ConfigError, SystemConfig
from .pipeline import (SCHEMES, LearningCurveRow, Scheme, SolverParams,
                       SweepRow, TrialError, run_learning_curve, run_sweep)
from .presets import PRESETS

CSV_HEADER = ("scheme,axis_name,axis_value,sum_rate_mean,sum_rate_se,"
              "min_sinr_db_mean,min_sinr_db_se,ber_mean,ber_se,trials,seed")
LEARNING_HEADER = "iteration,cost_mean,cost_se,trials,seed"

_INT_FIELDS = {"num_aps", "antennas_per_ap", "num_users", "selected_aps", "rng_seed"}
_STR_FIELDS = {"total_power_policy"}
_TUPLE_FIELDS = {"snr_grid_db"}


def _parse_value(key: str, raw: str):
    if key in _STR_FIELDS:
        return raw
    if key in _TUPLE_FIELDS:
        return tuple(float(part) for part in raw.replace(",", " ").split())
    if key in _INT_FIELDS:
        return int(raw)
    return float(raw)


def load_config(path) -> SystemConfig:
    """Parse a flat key = value file into a validated SystemConfig."""
    valid = set(SystemConfig().field_names())
    values = {}
    text = Path(path).read_text(encoding="utf-8")
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
        try:
            values[key] = _parse_value(key, raw)
        except ValueError as err:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {err}") from err
    return SystemConfig(**values).validate()


def dump_config(cfg: SystemConfig, path) -> None:
    """Serialize a SystemConfig so load_config round-trips it."""
    lines = []
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if f.name in _TUPLE_FIELDS:
            rendered = ",".join(repr(float(v)) for v in value)
        elif f.name in _INT_FIELDS:
            rendered = str(int(value))
        elif f.name in _STR_FIELDS:
            rendered = str(value)
        else:
            rendered = repr(float(value))
        lines.append(f"{f.name} = {rendered}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def emit_results(rows: Sequence[SweepRow], path, sidecar: Optional[dict] = None) -> None:
    """Write sweep rows as CSV; floats use shortest round-trip decimals."""
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join([
            r.scheme, r.axis_name, _fmt(r.axis_value),
            _fmt(r.sum_rate_mean), _fmt(r.sum_rate_se),
            _fmt(r.min_sinr_db_mean), _fmt(r.min_sinr_db_se),
            _fmt(r.ber_mean), _fmt(r.ber_se),
            _fmt(r.trials), _fmt(r.seed),
        ]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    if sidecar is not None:
        _write_sidecar(path, sidecar)


def read_results(path) -> list:
    """Parse a CSV written by emit_results back into SweepRow objects."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: not a results CSV (unexpected header)")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        rows.append(SweepRow(
            scheme=parts[0], axis_name=parts[1], axis_value=float(parts[2]),
            sum_rate_mean=float(parts[3]), sum_rate_se=float(parts[4]),
            min_sinr_db_mean=float(parts[5]), min_sinr_db_se=float(parts[6]),
            ber_mean=float(parts[7]) if parts[7] else None,
            ber_se=float(parts[8]) if parts[8] else None,
            trials=int(parts[9]), seed=int(parts[10])))
    return rows


def emit_learning_curve(rows: Sequence[LearningCurveRow], path,
                        sidecar: Optional[dict] = None) -> None:
    lines = [LEARNING_HEADER]
    for r in rows:
        lines.append(",".join([_fmt(r.iteration), _fmt(r.cost_mean),
                               _fmt(r.cost_se), _fmt(r.trials), _fmt(r.seed)]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    if sidecar is not None:
        _write_sidecar(path, sidecar)


def _write_sidecar(path, sidecar: dict) -> None:
    out = Path(str(path) + ".config.json")
    out.write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")


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
            rows = run_learning_curve(cfg, schemes[0], trials, solver)
            emit_learning_curve(rows, args.out, sidecar)
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


if __name__ == "__main__":
    sys.exit(main())
