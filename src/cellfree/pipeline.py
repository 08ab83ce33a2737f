"""The scheme table, the one-pass trial chain and Monte-Carlo sweeps.

One trial runs: draw a channel block, map the requested SNR to the
per-antenna power scale, select APs (none / gain-ranked / exhaustive) as a
0/1 mask array, mask the channel estimate and its error variance with it,
precode with an identity allocation, allocate, then score the pair. Only
MMSE+APA re-forms the precoder with that allocation (``P N^(-1)``, a column
scaling) and allocates again: OPA and UPA are invariant to column scaling,
so for them a second pass would reproduce the first. The SINR coefficients
of a precoder are computed once and shared by the allocator and the
metrics.

``run_chain`` runs on one masked channel ``(M, K)`` or on a stack of them
``(B, M, K)``; exhaustive selection scores its candidate masks as such
stacks, in chunks, and the trial then re-runs the 2-D chain on the winning
mask, so every reported number comes from the 2-D chain.

Trials are reproducible in isolation: every random draw of trial ``t`` comes
from sub-streams keyed by (seed, t, stream), so trials can run in any order
or concurrently.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from . import channel as ch
from . import metrics as mt
from . import power_allocation as pa
from . import precoding as pc
from . import selection as sel

_STREAMS = ("topology", "shadowing", "fading", "noise", "symbols")


@dataclass(frozen=True)
class _Precoder:
    build: Callable       # (g_hat, e_tr, rho_f, sigma_w2, sigma_s2), N = I
    reformed: bool        # the allocation re-forms the matrix as P N^(-1)


@dataclass(frozen=True)
class _Allocator:
    solve: Callable       # (precoder, coeffs, g_hat, rho_f, sigma_w2, sigma_s2, solver)
    scale_invariant: bool  # column scaling of P leaves the allocated P N unchanged
    cost_trace: bool = False  # records its cost per iteration (learning curves)


def _mmse(g_hat, e_tr, rho_f, sigma_w2, sigma_s2):
    return pc.mmse_precoder(g_hat, np.ones(g_hat.shape[-1]), e_tr, rho_f,
                            sigma_w2, sigma_s2)


def _opa(precoder, coeffs, g_hat, rho_f, sigma_w2, sigma_s2, solver):
    return pa.opa_bisection(coeffs, precoder.delta,
                            iterations=solver.opa_iterations, tol=solver.opa_tol)


def _apa(precoder, coeffs, g_hat, rho_f, sigma_w2, sigma_s2, solver):
    return pa.apa_sgd(precoder, g_hat, rho_f, sigma_w2, mu=solver.apa_mu,
                      iterations=solver.apa_iterations, sigma_s2=sigma_s2)


def _es(scheme, realization, cfg, rho_f, e_tr, sigma_w2, sigma_s2, solver):
    def evaluate(masks):
        g_hat, err_var = sel.apply_mask(masks, realization)
        result = run_chain(g_hat, err_var, scheme, rho_f, e_tr, sigma_w2,
                           sigma_s2, solver)
        return result.metrics.min_sinr

    mask, _ = sel.es_aps(cfg.num_aps, cfg.num_users, cfg.selected_aps,
                         cfg.antennas_per_ap, evaluate, budget=solver.es_budget)
    return mask, math.comb(cfg.num_aps, cfg.selected_aps) ** cfg.num_users


# Every scheme name, keyed by Scheme field. A selector maps (scheme,
# realization, cfg, rho_f, e_tr, sigma_w2, sigma_s2, solver) to
# ((M, K) mask array, number of ES candidates scored).
SCHEMES = {
    "precoder": {
        "MMSE": _Precoder(_mmse, reformed=True),
        "MMSE_CONV": _Precoder(_mmse, reformed=False),
        "ZF": _Precoder(lambda g_hat, *_: pc.zf_precoder(g_hat), reformed=False),
        "CB": _Precoder(lambda g_hat, *_: pc.cb_precoder(g_hat), reformed=False),
    },
    "allocation": {
        "OPA": _Allocator(_opa, scale_invariant=True),
        "APA": _Allocator(_apa, scale_invariant=False, cost_trace=True),
        "UPA": _Allocator(lambda precoder, *_: pa.upa(precoder.delta),
                          scale_invariant=True),
    },
    "selection": {
        "NS": lambda scheme, realization, cfg, *_: (
            np.ones((cfg.total_antennas, cfg.num_users)), 0),
        "LS": lambda scheme, realization, cfg, *_: (
            sel.ls_aps(realization.beta, cfg.selected_aps, cfg.antennas_per_ap), 0),
        "ES": _es,
    },
}


@dataclass(frozen=True)
class Scheme:
    """A precoder / power-allocation / AP-selection combination."""

    precoder: str
    allocation: str
    selection: str

    def __post_init__(self):
        for stage, options in SCHEMES.items():
            if getattr(self, stage) not in options:
                raise ValueError(f"unknown {stage} {getattr(self, stage)!r}; "
                                 f"valid: {', '.join(options)}")

    @classmethod
    def parse(cls, label: str) -> "Scheme":
        parts = label.strip().split("+")
        if len(parts) != 3:
            raise ValueError(
                f"scheme {label!r} must look like PRECODER+ALLOCATION+SELECTION, "
                f"e.g. MMSE+OPA+LS")
        return cls(precoder=parts[0], allocation=parts[1], selection=parts[2])

    @property
    def label(self) -> str:
        return f"{self.precoder}+{self.allocation}+{self.selection}"


@dataclass(frozen=True)
class SolverParams:
    """Knobs of the iterative solvers and of the BER measurement."""

    opa_iterations: int = 30
    opa_tol: float = 1e-6
    apa_mu: float = 0.25
    apa_iterations: int = 5
    es_budget: int = 10 ** 6
    symbols_per_packet: int = 100
    packets_per_trial: int = 1


@dataclass(frozen=True)
class TrialStreams:
    """Independent per-trial random streams, one per model component."""

    topology: np.random.Generator
    shadowing: np.random.Generator
    fading: np.random.Generator
    noise: np.random.Generator
    symbols: np.random.Generator

    @classmethod
    def for_trial(cls, seed: int, trial: int) -> "TrialStreams":
        gens = {name: np.random.default_rng([seed, trial, i])
                for i, name in enumerate(_STREAMS)}
        return cls(**gens)


@dataclass
class ChainResult:
    precoder: pc.PrecoderOutput
    n_first: pa.AllocationResult
    n_final: pa.AllocationResult
    metrics: mt.LinkMetrics
    trace: dict


@dataclass
class PipelineResult(ChainResult):
    mask: np.ndarray      # (M, K) selection the chain ran on


def run_chain(g_hat, err_var, scheme: Scheme, rho_f: float, e_tr: float,
              sigma_w2: float, sigma_s2: float,
              solver: SolverParams = SolverParams()) -> ChainResult:
    """Precode and allocate on a (masked) channel, or a stack of them;
    re-form and re-allocate only where that changes the result (see the
    module docstring)."""
    precoder = SCHEMES["precoder"][scheme.precoder]
    allocator = SCHEMES["allocation"][scheme.allocation]
    args = (g_hat, rho_f, sigma_w2, sigma_s2, solver)
    t0 = time.perf_counter()
    prec = precoder.build(g_hat, e_tr, rho_f, sigma_w2, sigma_s2)
    t1 = time.perf_counter()
    coeffs = mt.sinr_coefficients(prec.p, g_hat, err_var, rho_f, sigma_w2)
    solves = [allocator.solve(prec, coeffs, *args)]
    t2 = time.perf_counter()
    seconds = {"precoder": t1 - t0, "allocation": t2 - t1}
    if precoder.reformed and not allocator.scale_invariant:
        prec = pc.apply_allocation(prec, solves[0].n_diag)
        t3 = time.perf_counter()
        coeffs = mt.sinr_coefficients(prec.p, g_hat, err_var, rho_f, sigma_w2)
        solves.append(allocator.solve(prec, coeffs, *args))
        seconds["precoder"] += t3 - t2
        seconds["allocation"] += time.perf_counter() - t3
    metrics = mt.rates(mt.analytic_sinr(coeffs, solves[-1].eta))
    trace = {
        "precoder_builds": len(solves),   # every solve has its own precoder
        "allocation_solves": len(solves),
        "allocation_iterations": [n.iterations for n in solves],
        "seconds": seconds,
    }
    return ChainResult(precoder=prec, n_first=solves[0], n_final=solves[-1],
                       metrics=metrics, trace=trace)


def run_trial(cfg: ch.SystemConfig, scheme: Scheme, snr_db: float, trial: int,
              solver: SolverParams = SolverParams(), with_ber: bool = False,
              seed: Optional[int] = None) -> PipelineResult:
    """One Monte-Carlo trial of the full chain at a given SNR grid point."""
    if seed is None:
        seed = cfg.rng_seed
    streams = TrialStreams.for_trial(seed, trial)
    sigma_w2 = cfg.noise_variance_w()
    sigma_s2 = cfg.symbol_power

    t0 = time.perf_counter()
    realization = ch.generate_realization(cfg, streams.topology,
                                          streams.shadowing, streams.fading)
    t1 = time.perf_counter()
    rho_f = mt.snr_to_rho_f(10.0 ** (snr_db / 10.0), realization.g_hat, sigma_w2)
    e_tr = cfg.total_antennas * rho_f

    select = SCHEMES["selection"][scheme.selection]
    mask, es_candidates = select(scheme, realization, cfg, rho_f, e_tr,
                                 sigma_w2, sigma_s2, solver)
    t2 = time.perf_counter()
    g_hat, err_var = sel.apply_mask(mask, realization)
    chain = run_chain(g_hat, err_var, scheme, rho_f, e_tr, sigma_w2, sigma_s2, solver)
    t3 = time.perf_counter()

    if with_ber:
        ber, degenerate = mt.ber_qpsk(chain.precoder.p, chain.n_final.n_diag,
                                      realization.g, g_hat, rho_f, sigma_w2,
                                      solver.symbols_per_packet, streams.symbols,
                                      packets=solver.packets_per_trial,
                                      noise_rng=streams.noise)
        chain.metrics.ber = ber
        chain.trace["ber_degenerate_gains"] = degenerate
    t4 = time.perf_counter()

    chain.trace["es_candidates"] = es_candidates
    chain.trace["seconds"].update({"channel": t1 - t0, "selection": t2 - t1,
                                   "ber": t4 - t3})
    return PipelineResult(**vars(chain), mask=mask)


class TrialError(RuntimeError):
    """A trial of a sweep failed on its random draw.

    Carries what reproduces the failure: ``run_trial`` with the scheme, the
    config and SNR of the axis point, the trial index and the seed raises
    the original error (``__cause__``) again.
    """

    def __init__(self, scheme: str, axis_name: str, axis_value: float, trial: int,
                 seed: int, cause: BaseException):
        self.scheme = scheme
        self.axis_name = axis_name
        self.axis_value = axis_value
        self.trial = trial
        self.seed = seed
        detail = " ".join(f"{type(cause).__name__}: {cause}".split())
        super().__init__(f"{scheme} at {axis_name}={axis_value:g}, trial {trial}, "
                         f"seed {seed}: {detail}")


def _point_trial(cfg, scheme, snr, trial, solver, with_ber, seed, axis_name, axis_value):
    """``run_trial`` at one axis point, its draw-dependent failures named."""
    try:
        return run_trial(cfg, scheme, snr, trial, solver, with_ber=with_ber, seed=seed)
    except (ArithmeticError, ValueError) as err:   # LinAlgError is a ValueError
        raise TrialError(scheme.label, axis_name, axis_value, trial, seed, err) from err


@dataclass(frozen=True)
class SweepRow:
    scheme: str
    axis_name: str
    axis_value: float
    sum_rate_mean: float
    sum_rate_se: float
    min_sinr_db_mean: float
    min_sinr_db_se: float
    ber_mean: Optional[float]
    ber_se: Optional[float]
    trials: int
    seed: int


def _mean_se(values):
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    se = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
    return mean, se


def _axis_points(cfg, axis, axis_values):
    """Yield (axis_value, config, snr_db) for every point of the sweep axis."""
    if axis == "snr_grid":
        return [(float(snr), cfg, float(snr)) for snr in cfg.snr_grid_db]
    snr = float(cfg.snr_grid_db[0])
    points = []
    if axis == "selection_fraction":
        values = axis_values if axis_values is not None else (1.0, 0.5, 0.25, 0.125)
        for frac in values:
            s = max(1, round(frac * cfg.num_aps))
            points.append((float(frac), replace(cfg, selected_aps=s).validate(), snr))
        return points
    if axis == "antennas_per_ap":
        values = axis_values if axis_values is not None else (1, 2, 4)
        m = cfg.total_antennas
        sn = cfg.selected_aps * cfg.antennas_per_ap
        for n in values:
            n = int(n)
            if m % n != 0 or sn % n != 0:
                raise ValueError(
                    f"antennas_per_ap={n} must divide both the antenna total {m} "
                    f"and the selected-antenna total {sn}")
            cfg_n = replace(cfg, antennas_per_ap=n, num_aps=m // n,
                            selected_aps=sn // n).validate()
            points.append((float(n), cfg_n, snr))
        return points
    raise ValueError(f"unknown sweep axis {axis!r}")


def run_sweep(cfg: ch.SystemConfig, schemes: Sequence[Scheme], axis: str,
              trials: int, solver: SolverParams = SolverParams(),
              with_ber: bool = False, axis_values=None,
              seed: Optional[int] = None):
    """Average per-trial metrics per (scheme, axis point).

    The same trial index reuses the same channel block for every scheme and
    axis point, so scheme comparisons are paired. A trial that fails on its
    draw raises ``TrialError``.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if seed is None:
        seed = cfg.rng_seed
    rows = []
    for scheme in schemes:
        for value, cfg_point, snr in _axis_points(cfg, axis, axis_values):
            sums, mins_db, bers = [], [], []
            for t in range(trials):
                res = _point_trial(cfg_point, scheme, snr, t, solver, with_ber, seed,
                                   axis, value)
                sums.append(res.metrics.sum_rate)
                mins_db.append(10.0 * np.log10(res.metrics.min_sinr))
                if with_ber:
                    bers.append(res.metrics.ber)
            sr_mean, sr_se = _mean_se(sums)
            ms_mean, ms_se = _mean_se(mins_db)
            if with_ber:
                ber_mean, ber_se = _mean_se(bers)
            else:
                ber_mean = ber_se = None
            rows.append(SweepRow(scheme=scheme.label, axis_name=axis,
                                 axis_value=value, sum_rate_mean=sr_mean,
                                 sum_rate_se=sr_se, min_sinr_db_mean=ms_mean,
                                 min_sinr_db_se=ms_se, ber_mean=ber_mean,
                                 ber_se=ber_se, trials=trials, seed=seed))
    return rows


@dataclass(frozen=True)
class LearningCurveRow:
    iteration: int
    cost_mean: float
    cost_se: float
    trials: int
    seed: int


def run_learning_curve(cfg: ch.SystemConfig, scheme: Scheme, trials: int,
                       solver: SolverParams = SolverParams(),
                       seed: Optional[int] = None):
    """Per-iteration adaptive-allocation cost, averaged over trials.

    Uses the first allocation pass (identity-allocation precoder), which is
    where the gradient solver starts from scratch.
    """
    if not SCHEMES["allocation"][scheme.allocation].cost_trace:
        raise ValueError("learning curves require an allocation that records its cost: "
                         + ", ".join(n for n, a in SCHEMES["allocation"].items()
                                     if a.cost_trace))
    if seed is None:
        seed = cfg.rng_seed
    snr = float(cfg.snr_grid_db[0])
    traces = []
    for t in range(trials):
        res = _point_trial(cfg, scheme, snr, t, solver, False, seed, "snr_grid", snr)
        traces.append(res.n_first.cost_trace)
    arr = np.asarray(traces, dtype=float)         # (trials, iterations + 1)
    rows = []
    for i in range(arr.shape[1]):
        mean, se = _mean_se(arr[:, i])
        rows.append(LearningCurveRow(iteration=i, cost_mean=mean, cost_se=se,
                                     trials=trials, seed=seed))
    return rows
