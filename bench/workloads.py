"""The four benchmark workloads: inputs from a seed, timed calls, output checks.

A workload runs in *units*. One unit is one Monte-Carlo trial of the
workload's figure(s): for a sweep workload, one ``cellfree run`` CLI call per
preset with ``--trials 1``; for ``single-trial``, one ``run_trial`` call per
antenna-split config. Unit ``j`` draws its randomness from the run seed and
``j`` alone. At the golden seed the units cycle through the inputs the
goldens hold, so that every output is compared.

Every call's output is checked: each expected row or value must be present
and finite, BER must lie in [0, 0.5] up to five standard deviations of a
fair coin over the trial's bits (a link at -24 dB SINR measures 0.505 over
1600 bits), exhaustive selection must never lose to gain-ranked selection, and at ``GOLDEN_SEED`` every value must match the
stored golden to ``REL_TOL`` relative (``ABS_FLOOR`` absolute for exact
zeros such as BER).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import cellfree
from cellfree import cli_io

GOLDEN_SEED = 12345
REL_TOL = 1e-9
ABS_FLOOR = 1e-12
SEED_STRIDE = 1_000_000  # sweep unit j of run seed s calls the CLI with seed s * this + j


@dataclass
class Sample:
    """One timed call and the verdict on its output."""

    group: str           # preset name (sweeps) or antenna-split config label
    start: float         # perf_counter() at the call
    seconds: float
    cells: int           # (scheme, axis point, trial) cells the call completed
    attempted: int       # checked items: CSV rows, or one run_trial result
    failed: int
    output: list         # the checked values, in the goldens' layout


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + ABS_FLOOR


def _finite(*values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


class SweepWorkload:
    """Presets driven through ``cellfree.cli_io.main``, one trial per call."""

    golden_units = 16

    def __init__(self, presets, seed, goldens, out_dir: Path):
        self.presets = tuple(presets)
        self.groups = self.presets
        self.seed = seed
        self.goldens = goldens
        self.out_dir = out_dir

    def call_seed(self, j: int) -> int:
        if self.goldens is not None:
            j %= self.golden_units
        return self.seed * SEED_STRIDE + j

    def _cli(self, preset, seed, extra=()):
        out = self.out_dir / f"{preset}.csv"
        argv = ["run", "--preset", preset, "--out", str(out),
                "--trials", "1", "--seed", str(seed), *extra]
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli_io.main(argv)
        return code, out

    def setup(self):
        """Resolve every preset's config and warm each one up once."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        base = cellfree.SystemConfig().validate()
        self.expected = {}
        self.ber_max = {}
        for name in self.presets:
            preset = cellfree.PRESETS[name]
            cfg = preset.resolve_config(base)
            self.expected[name] = [(s, float(v)) for s in preset.schemes
                                   for v in cfg.snr_grid_db]
            solver = replace(cellfree.SolverParams(), **preset.solver)
            bits = 2 * cfg.num_users * solver.symbols_per_packet * solver.packets_per_trial
            self.ber_max[name] = 0.5 + 5.0 * math.sqrt(0.25 / bits)
            self._cli(name, self.call_seed(0), ("--schemes", preset.schemes[0]))

    def run_unit(self, j: int) -> list:
        samples = []
        seed = self.call_seed(j)
        for preset in self.presets:
            start = perf_counter()
            try:
                code, out = self._cli(preset, seed)
                seconds = perf_counter() - start
                rows = cli_io.read_results(out) if code == 0 else []
            except Exception:                       # a crash fails every row
                seconds = perf_counter() - start
                rows = []
            output, failed = self._check(preset, j, seed, rows)
            n = len(self.expected[preset])
            samples.append(Sample(group=preset, start=start, seconds=seconds, cells=n,
                                  attempted=n, failed=failed, output=output))
        return samples

    def _check(self, preset, j, seed, rows):
        with_ber = cellfree.PRESETS[preset].with_ber
        ber_max = self.ber_max[preset]
        by_key = {(r.scheme, r.axis_value): r for r in rows
                  if r.trials == 1 and r.seed == seed}
        golden = None
        if self.goldens is not None:
            golden = self.goldens[preset][j % self.golden_units]
        output, failed = [], 0
        for i, key in enumerate(self.expected[preset]):
            row = by_key.get(key)
            if row is None:
                output.append(None)
                failed += 1
                continue
            values = [row.sum_rate_mean, row.min_sinr_db_mean, row.ber_mean]
            output.append(values)
            ok = _finite(row.sum_rate_mean, row.sum_rate_se,
                         row.min_sinr_db_mean, row.min_sinr_db_se)
            if with_ber:
                ok = ok and _finite(row.ber_mean, row.ber_se) and 0.0 <= row.ber_mean <= ber_max
            scheme = cellfree.Scheme.parse(row.scheme)
            if ok and scheme.selection == "ES":
                ls = by_key.get((f"{scheme.precoder}+{scheme.allocation}+LS", key[1]))
                ok = (ls is not None and row.min_sinr_db_mean
                      >= ls.min_sinr_db_mean - REL_TOL * abs(ls.min_sinr_db_mean) - ABS_FLOOR)
            if ok and golden is not None:
                ok = golden[i] is not None and all(map(_close, values, golden[i]))
            failed += not ok
        return output, failed


class SingleTrialWorkload:
    """``cellfree.run_trial`` calls, one at a time, over the antenna splits."""

    PRESET = "fig-antenna-split"
    golden_units = 256

    def __init__(self, seed, goldens):
        self.seed = seed
        self.goldens = goldens

    def setup(self):
        """Resolve the four configs and warm each one up once."""
        preset = cellfree.PRESETS[self.PRESET]
        cfg = preset.resolve_config(cellfree.SystemConfig().validate())
        m = cfg.total_antennas
        selected = cfg.selected_aps * cfg.antennas_per_ap
        self.configs = [replace(cfg, antennas_per_ap=int(n), num_aps=m // int(n),
                                selected_aps=selected // int(n)).validate()
                        for n in preset.axis_values]
        self.groups = tuple(f"antennas_per_ap={n}" for n in preset.axis_values)
        self.scheme = cellfree.Scheme.parse(preset.schemes[0])
        self.snr_db = float(cfg.snr_grid_db[0])
        for c in self.configs:
            cellfree.run_trial(c, self.scheme, self.snr_db, 0, seed=self.seed)

    def run_unit(self, j: int) -> list:
        trial = j % self.golden_units if self.goldens is not None else j
        samples = []
        for i, (group, cfg) in enumerate(zip(self.groups, self.configs)):
            start = perf_counter()
            try:
                res = cellfree.run_trial(cfg, self.scheme, self.snr_db, trial,
                                         seed=self.seed)
                seconds = perf_counter() - start
                output = [res.metrics.sum_rate, res.metrics.min_sinr]
                ok = _finite(*output) and output[0] > 0.0 and output[1] >= 0.0
            except Exception:                       # a crash fails the call
                seconds = perf_counter() - start
                output, ok = None, False
            if ok and self.goldens is not None:
                ok = all(map(_close, output, self.goldens[trial][i]))
            samples.append(Sample(group=group, start=start, seconds=seconds, cells=1,
                                  attempted=1, failed=int(not ok), output=output))
        return samples


def _sweep(*presets):
    return lambda seed, goldens, out_dir: SweepWorkload(presets, seed, goldens, out_dir)


WORKLOADS = {
    "tiny-es": _sweep("fig-tiny-opa", "fig-tiny-apa"),
    "large-ls": _sweep("fig-large-sumrate"),
    "ber-multiantenna": _sweep("fig-ber"),
    "single-trial": lambda seed, goldens, out_dir: SingleTrialWorkload(seed, goldens),
}


def make_workload(name, seed, goldens_file: Path, out_dir: Path):
    """Build a workload; goldens are loaded only at the golden seed."""
    goldens = None
    if seed == GOLDEN_SEED:
        goldens = json.loads(goldens_file.read_text(encoding="utf-8"))[name]
    return WORKLOADS[name](seed, goldens, out_dir / name)
