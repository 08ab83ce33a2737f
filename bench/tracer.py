"""Span tracing of cellfree's public functions, from outside the package.

``Tracer.installed()`` replaces every module attribute that refers to a
traced function, in every loaded ``cellfree`` module, with a wrapper. That
covers the defining module (``metrics.analytic_sinr``), every from-import
alias (``power_allocation.analytic_sinr``, ``cellfree.run_trial``,
``cli_io.run_sweep``) and every lookup made at call time through a module
(``pipeline``'s ``pc.mmse_precoder``, and the ES closure's ``run_chain``).
Each call records a span (function, start, end, parent span) in memory; the
spans are written out at the end and give every function's call count, total
time and self time (total minus the time its direct child spans cover).
"""

from __future__ import annotations

import contextlib
import functools
import sys
import warnings
from pathlib import Path
from time import perf_counter

import numpy as np

# layer (module) -> traced public functions
LAYERS = {
    "pipeline": ("run_sweep", "run_trial", "run_chain"),
    "channel": ("generate_realization",),
    "selection": ("ls_aps", "es_aps", "apply_mask", "full_mask"),
    "precoding": ("mmse_precoder", "conventional_mmse_precoder", "zf_precoder",
                  "cb_precoder"),
    "power_allocation": ("opa_bisection", "sinr_feasible", "apa_sgd", "upa"),
    "metrics": ("snr_to_rho_f", "sinr_coefficients", "analytic_sinr", "rates",
                "ber_qpsk"),
    "cli_io": ("main", "emit_results"),
}
# functions whose inclusive time is reported next to their self time
WITH_TOTAL = ("pipeline.run_sweep", "pipeline.run_trial", "pipeline.run_chain",
              "selection.es_aps")
PRECODERS = tuple(f"precoding.{f}" for f in LAYERS["precoding"])
ALLOCATORS = ("power_allocation.opa_bisection", "power_allocation.apa_sgd",
              "power_allocation.upa")


class Tracer:
    def __init__(self):
        self.qualnames = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]
        self.fn_index = {q: i for i, q in enumerate(self.qualnames)}
        self.fns = []                # per span: function index
        self.parents = []            # per span: parent span index, -1 at the root
        self.starts = []
        self.ends = []
        self._stack = [-1]
        self.es_candidates = 0
        self.opa_iterations = 0
        self.ber_degenerate = 0
        self.channel_keys = set()
        self.opa_warnings = 0

    # -- hooks on selected functions -------------------------------------
    def _channel_draw(self, args, kwargs):
        cfg, rng_topology = args[0], args[1]
        state = rng_topology.bit_generator.state["state"]["state"]
        self.channel_keys.add((cfg.num_aps, cfg.antennas_per_ap, cfg.num_users, state))
        return args, kwargs

    def _es_search(self, args, kwargs):
        def counted(evaluate):
            @functools.wraps(evaluate)
            def candidate(mask):
                self.es_candidates += 1
                return evaluate(mask)
            return candidate

        if "evaluate" in kwargs:
            kwargs = dict(kwargs, evaluate=counted(kwargs["evaluate"]))
        else:
            args = args[:4] + (counted(args[4]),) + args[5:]
        return args, kwargs

    def _opa_done(self, result):
        self.opa_iterations += int(getattr(result, "iterations", 0))

    def _ber_done(self, result):
        self.ber_degenerate += int(result[1])

    # -- wrapping ---------------------------------------------------------
    def _wrap(self, index, fn, before=None, after=None):
        fns, parents, starts, ends, stack = (self.fns, self.parents, self.starts,
                                             self.ends, self._stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            span = len(fns)
            fns.append(index)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(span)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = perf_counter()
                stack.pop()
            if after is not None:
                after(result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Trace every cellfree lookup of the listed functions inside the block."""
        hooks = {"channel.generate_realization": (self._channel_draw, None),
                 "selection.es_aps": (self._es_search, None),
                 "power_allocation.opa_bisection": (None, self._opa_done),
                 "metrics.ber_qpsk": (None, self._ber_done)}
        modules = [m for name, m in list(sys.modules.items())
                   if name == "cellfree" or name.startswith("cellfree.")]
        wrappers = {}
        for index, qualname in enumerate(self.qualnames):
            layer, fn_name = qualname.split(".")
            fn = getattr(sys.modules[f"cellfree.{layer}"], fn_name, None)
            if fn is not None:
                wrappers[id(fn)] = self._wrap(index, fn, *hooks.get(qualname, (None, None)))
        patched = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        pa_file = sys.modules["cellfree.power_allocation"].__file__
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                yield self
            self.opa_warnings += sum(1 for w in caught
                                     if issubclass(w.category, RuntimeWarning)
                                     and w.filename == pa_file)
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    # -- results ----------------------------------------------------------
    def arrays(self):
        fns = np.asarray(self.fns, dtype=np.int32)
        parents = np.asarray(self.parents, dtype=np.int64)
        duration = np.asarray(self.ends) - np.asarray(self.starts)
        covered = np.zeros(fns.size)
        nested = parents >= 0
        np.add.at(covered, parents[nested], duration[nested])
        return fns, parents, duration, duration - covered

    def dump(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, function=np.asarray(self.fns, dtype=np.int32),
                 parent=np.asarray(self.parents, dtype=np.int64),
                 start=np.asarray(self.starts), end=np.asarray(self.ends),
                 names=np.asarray(self.qualnames))

    def layer_metrics(self, traced_wall: float, untraced_wall: float) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        fns, parents, duration, self_time = self.arrays()
        out = {}
        calls = {}
        for qualname, index in self.fn_index.items():
            mine = fns == index
            calls[qualname] = int(mine.sum())
            out[f"{qualname}.calls"] = (calls[qualname], "count")
            out[f"{qualname}.self_s"] = (float(self_time[mine].sum()), "s")
            if qualname in WITH_TOTAL:
                out[f"{qualname}.total_s"] = (float(duration[mine].sum()), "s")

        def top_level(group):
            """Spans of ``group`` not nested directly inside another of ``group``."""
            ids = np.array([self.fn_index[q] for q in group])
            inside = np.isin(fns, ids)
            parent_fn = np.where(parents >= 0, fns[np.maximum(parents, 0)], -1)
            return int((inside & ~np.isin(parent_fn, ids)).sum())

        def ratio(num, den):
            return float(num) / den if den else 0.0

        chains = calls["pipeline.run_chain"]
        opa = calls["power_allocation.opa_bisection"]
        out["pipeline.chains_per_trial"] = (ratio(chains, calls["pipeline.run_trial"]), "ratio")
        out["channel.draws_per_unique_trial"] = (
            ratio(calls["channel.generate_realization"], len(self.channel_keys)), "ratio")
        out["selection.es_candidates"] = (
            ratio(self.es_candidates, calls["selection.es_aps"]), "count")
        out["precoding.builds_per_chain"] = (ratio(top_level(PRECODERS), chains), "ratio")
        out["power_allocation.solves_per_chain"] = (ratio(top_level(ALLOCATORS), chains), "ratio")
        out["power_allocation.opa_iterations_mean"] = (ratio(self.opa_iterations, opa), "count")
        out["power_allocation.sinr_feasible_per_opa"] = (
            ratio(calls["power_allocation.sinr_feasible"], opa), "ratio")
        out["power_allocation.opa_bracket_doublings"] = (self.opa_warnings, "count")
        out["metrics.ber_degenerate_gains"] = (self.ber_degenerate, "count")
        out["trace_overhead_frac"] = (traced_wall / untraced_wall - 1.0, "fraction")
        roots = float(duration[parents < 0].sum())
        out["trace_uncovered_frac"] = (1.0 - roots / traced_wall, "fraction")
        return out
