"""The scheme table, the one-pass trial chain and Monte-Carlo sweeps.

One trial runs: draw a channel block, map the requested SNR to the
per-antenna power scale, select APs (none / gain-ranked / exhaustive) as a
0/1 mask array, mask the channel estimate and its error variance with it,
precode with an identity allocation, allocate, then score the pair. A chain
re-forms the precoder with that allocation (``P N^(-1)``, a column scaling)
and allocates again exactly when it is APA: OPA and UPA are invariant to
column scaling, so for them a second pass would reproduce the first. APA's
fixed step is scale-free only on a re-formed precoder, so it takes only MMSE
and ``Scheme`` rejects any other pairing; so MMSE_CONV, MMSE without the
re-form, is an alias of MMSE. The SINR coefficients of a precoder are computed
once and shared by the allocator and the metrics; they are all an allocator
reads besides the precoder.
``run_chain`` composes two stages: a build (the precoder of an identity
allocation and its SINR coefficients), which depends only on the precoder,
and an allocate stage, which only reads the build, so that one build can
serve every chain on the same masked channel and SNR points.

``run_chain`` runs on one masked channel ``(M, K)`` or on a stack of them
``(B, M, K)``, at one SNR or at a grid of them, ``rho_f`` of shape
``(S,)`` against one channel or paired with ``(S, M, K)`` channels, or
``(S, 1)`` against a stack. MMSE builds one precoder per item under the
total transmit energy ``E_tr = M rho_f``, from one Gram matrix per channel,
while ZF and CB, whose precoders and SINR coefficients do not depend on the
SNR, build once per channel and are broadcast over the points. Each item
equals its own 2-D chain bitwise.
Exhaustive selection scores its candidate masks as ``(S, B)`` chains, in
chunks, and then runs the ``(S, M, K)`` winners as one chain, so every
reported number is what the 2-D chain on the winning mask gives. A chunk
that leaves ZF rank-deficient runs again without the candidates that fail
ZF's Cholesky test, which score -inf.

A trial is split in two. ``TrialDraw`` holds what every (scheme, SNR) cell
of trial ``t`` at one config shares, each made once on first use and
read-only: the channel block; the NS and LS masks with the estimate and
error variance they mask; and, per (NS or LS selection, precoder build,
SNR points), the build, which MMSE and MMSE_CONV share. ``run_cell`` runs
one cell on a draw; exhaustive selection depends on the scheme and the
SNR, so it searches and builds per cell. ``run_trial`` is one cell on a
fresh draw. ``run_sweep`` runs trial-major, one draw per config and one
cell per scheme over that config's SNR points: the whole grid on the SNR
axis, one point on the others. ES then searches once per cell for every
point's mask. The points of a selection-fraction axis differ only in
``selected_aps``, which the channel draw does not read, so their draws
share one channel block.

Trials are reproducible in isolation: every random draw of trial ``t`` comes
from sub-streams keyed by (seed, t, stream), so trials can run in any order
or concurrently, and a cell that measures BER restarts its symbol and noise
streams, so it sees the same bits and noise whichever cells ran before it.
A cell measures the BER of all its points in one ``ber_qpsk`` call, which
sends the same bits and noise over every point, as a restart per point
would.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from . import channel as ch
from . import metrics as mt
from . import power_allocation as pa
from . import precoding as pc
from . import selection as sel

_STREAMS = ("topology", "shadowing", "fading", "noise", "symbols")


@dataclass(frozen=True)
class _Allocator:
    solve: Callable       # (precoder, coeffs, sigma_s2, solver) -> AllocationResult
    # a gradient solver whose step is not scale-free: the chain re-forms P with
    # its allocation and solves again, and it records its cost per iteration
    adaptive: bool = False
    precoders: Optional[tuple] = None  # the precoders it accepts; None: every one
    # (precoder, coeffs, solver) -> (lo, hi): an interval holding the minimum
    # SINR that ``solve`` gives, for exhaustive selection's screen
    bound: Optional[Callable] = None

    def accepts(self, precoder: str) -> bool:
        return self.precoders is None or precoder in self.precoders


def _mmse(g_hat, rho_f, sigma_w2, sigma_s2):
    return pc.mmse_precoder(g_hat, np.ones(g_hat.shape[-1]), e_tr=g_hat.shape[-2] * rho_f,
                            rho_f=rho_f, sigma_w2=sigma_w2, sigma_s2=sigma_s2)


def _opa(precoder, coeffs, sigma_s2, solver):
    return pa.opa_bisection(coeffs, precoder.delta,
                            iterations=solver.opa_iterations, tol=solver.opa_tol)


def _opa_bound(precoder, coeffs, solver):
    return pa.opa_bound(coeffs, precoder.delta, iterations=solver.opa_iterations,
                        tol=solver.opa_tol)


def _apa(precoder, coeffs, sigma_s2, solver):
    return pa.apa_sgd(precoder, coeffs, mu=solver.apa_mu,
                      iterations=solver.apa_iterations, sigma_s2=sigma_s2)


def _es(scheme, realization, cfg, rho_f, solver):
    """The best mask at one SNR point, ``(M, K)``, or at each point of a grid,
    ``(S, M, K)``, from one search, and its trace counts: ``es_candidates``,
    the (point, candidate) items searched, and ``es_certified``, those scored
    on the whole chain. A stack of B candidates runs as one ``(S, B)``
    chain against ``rho_f`` of shape ``(S, 1)``.

    MMSE+OPA's search is screened: every chunk is first bounded on its own
    MMSE build by ``pa.opa_bound``, the max-min root without bisection, and
    only the candidates whose interval can reach the best run the chain
    (see ``sel.es_aps``), so the winner is the unscreened search's. A chunk
    the screen cannot bound (it raises) has NaN intervals, so the chain
    scores it and meets the same error. APA and UPA have no bound cheaper
    than their own chain, and ZF and CB, which no preset searches with OPA,
    are not screened: their searches score every candidate."""
    points = np.shape(rho_f)
    if points:
        rho_f = rho_f[..., None]
    sigma_w2, sigma_s2 = cfg.noise_variance_w(), cfg.symbol_power
    build = SCHEMES["precoder"][scheme.precoder]
    allocator = SCHEMES["allocation"][scheme.allocation]
    screened = build is _mmse and allocator.bound is not None
    certified = 0

    def min_sinr(g_hat, err_var):
        return run_chain(g_hat, err_var, scheme, rho_f, sigma_w2, sigma_s2,
                         solver).metrics.min_sinr

    def evaluate(masks):
        """Minimum SINRs of a (B, M, K) stack, ``points + (B,)``. A mask that
        leaves ZF rank-deficient scores -inf at every point: when a stack
        raises, the masks that fail ZF's Cholesky test are set aside and the
        rest run again as one stack."""
        nonlocal certified
        certified += len(masks) * math.prod(points)
        g_hat, err_var = sel.apply_mask(masks, realization)
        try:
            return min_sinr(g_hat, err_var)
        except pc.RankDeficientError:
            full = pc.zf_full_rank(g_hat)
        scores = np.full(points + full.shape, -np.inf)
        if full.any():
            scores[..., full] = min_sinr(g_hat[full], err_var[full])
        return scores

    def screen(masks):
        """``(lo, hi)`` around each minimum SINR of a (B, M, K) stack,
        ``points + (B,)``; NaN where the build cannot be bounded."""
        g_hat, err_var = sel.apply_mask(masks, realization)
        try:
            prec = build(g_hat, rho_f, sigma_w2, sigma_s2)
            coeffs = mt.sinr_coefficients(prec.p, g_hat, err_var, rho_f, sigma_w2)
            return allocator.bound(prec, coeffs, solver)
        except (ArithmeticError, ValueError):        # LinAlgError is a ValueError
            return (np.full(points + masks.shape[:1], np.nan),) * 2

    masks, _ = sel.es_aps(cfg.num_aps, cfg.num_users, cfg.selected_aps,
                          cfg.antennas_per_ap, evaluate, budget=solver.es_budget,
                          points=math.prod(points), screen=screen if screened else None)
    if masks is None:
        raise np.linalg.LinAlgError(
            "exhaustive selection has no candidate mask that keeps the channel "
            "full-rank with a finite minimum SINR")
    candidates = sel.es_candidate_count(cfg.num_aps, cfg.num_users, cfg.selected_aps)
    return masks, {"es_candidates": candidates * math.prod(points),
                   "es_certified": certified}


@dataclass(frozen=True)
class _Selector:
    select: Callable      # (scheme, realization, cfg, rho_f, solver)
                          # -> (mask array, ES trace counts)
    per_cell: bool = False  # depends on the scheme and SNR, so a draw cannot share it


# Every scheme name, keyed by Scheme field. A precoder is its build function,
# (g_hat, rho_f, sigma_w2, sigma_s2) with N = I.
SCHEMES = {
    "precoder": {
        "MMSE": _mmse,
        "MMSE_CONV": _mmse,
        "ZF": lambda g_hat, *_: pc.zf_precoder(g_hat),
        "CB": lambda g_hat, *_: pc.cb_precoder(g_hat),
    },
    "allocation": {
        "OPA": _Allocator(_opa, bound=_opa_bound),
        # its step is scale-free only where f cancels the precoder's scale
        "APA": _Allocator(_apa, adaptive=True, precoders=("MMSE",)),
        "UPA": _Allocator(lambda precoder, *_: pa.upa(precoder.delta)),
    },
    "selection": {
        "NS": _Selector(lambda scheme, realization, cfg, *_: (
            np.ones((cfg.total_antennas, cfg.num_users)), {})),
        "LS": _Selector(lambda scheme, realization, cfg, *_: (
            sel.ls_aps(realization.beta, cfg.selected_aps, cfg.antennas_per_ap), {})),
        "ES": _Selector(_es, per_cell=True),
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
        allocator = SCHEMES["allocation"][self.allocation]
        if not allocator.accepts(self.precoder):
            raise ValueError(f"allocation {self.allocation} does not take precoder "
                             f"{self.precoder!r}; it takes: "
                             f"{', '.join(allocator.precoders)}")

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
    """Knobs of the iterative solvers and of the BER measurement; counts are
    integers of at least 1, and the step size and tolerance are finite and
    nonnegative."""

    opa_iterations: int = 30
    opa_tol: float = 1e-6
    apa_mu: float = 0.25
    apa_iterations: int = 5
    es_budget: int = 10 ** 6
    symbols_per_packet: int = 100
    packets_per_trial: int = 1

    def __post_init__(self):
        for name in ("opa_iterations", "apa_iterations", "es_budget",
                     "symbols_per_packet", "packets_per_trial"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and value >= 1):
                raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")
        for name in ("apa_mu", "opa_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")


def _stream(seed: int, trial: int, name: str) -> np.random.Generator:
    """The sub-stream ``name`` of trial ``trial``, from its start."""
    return np.random.default_rng([seed, trial, _STREAMS.index(name)])


def _read_only(*arrays):
    for array in arrays:
        if isinstance(array, np.ndarray):
            array.setflags(write=False)
    return arrays


@dataclass(frozen=True)
class TrialDraw:
    """What every (scheme, SNR) cell of one trial at one config shares.

    The channel block is drawn on first use from the (seed, trial) topology,
    shadowing and fading sub-streams. ``selections`` memoizes, per selection
    name that does not depend on the cell (NS, LS), the mask, the masked
    estimate, the masked error variance and the ES candidate count.
    ``builds`` memoizes, per (NS or LS selection, precoder build function,
    SNR points), the precoder of an identity allocation and its SINR
    coefficients, broadcast over the points: MMSE and MMSE_CONV share one
    build function, so they share one build too. All of these arrays are
    read-only. A draw belongs to one config, so LS masks are never shared
    across configs that select a different number of APs; ``at`` makes the
    draw of such a config, which shares only the channel block.
    """

    cfg: ch.SystemConfig
    trial: int
    seed: int
    selections: dict = field(default_factory=dict, init=False, repr=False,
                             compare=False)
    builds: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def realization(self) -> ch.ChannelRealization:
        realization = ch.generate_realization(
            self.cfg, _stream(self.seed, self.trial, "topology"),
            _stream(self.seed, self.trial, "shadowing"),
            _stream(self.seed, self.trial, "fading"))
        _read_only(*vars(realization).values())
        return realization

    def at(self, cfg: ch.SystemConfig) -> "TrialDraw":
        """This trial's draw at ``cfg``. ``generate_realization`` does not
        read ``selected_aps``, so where ``cfg`` differs from this draw's
        config in nothing else the new draw shares this draw's channel block
        (drawing it now if no cell has yet); its selections and builds are
        its own."""
        draw = TrialDraw(cfg, self.trial, self.seed)
        if replace(cfg, selected_aps=self.cfg.selected_aps) == self.cfg:
            vars(draw)["realization"] = self.realization   # the cached property's slot
        return draw


@dataclass
class ChainResult:
    precoder: pc.PrecoderOutput
    n_first: pa.AllocationResult
    n_final: pa.AllocationResult
    metrics: mt.LinkMetrics
    trace: dict


@dataclass
class PipelineResult(ChainResult):
    mask: np.ndarray      # (M, K) selection the chain ran on; (S, M, K) for ES on a grid


def _build(build: Callable, g_hat, err_var, rho_f, sigma_w2, sigma_s2):
    """The build stage of a chain: ``(precoder, SINR coefficients, seconds)``
    of an identity allocation, the precoder broadcast over the items."""
    t0 = time.perf_counter()
    prec = build(g_hat, rho_f, sigma_w2, sigma_s2)
    coeffs = mt.sinr_coefficients(prec.p, g_hat, err_var, rho_f, sigma_w2)
    items = np.broadcast_shapes(np.shape(rho_f), prec.p.shape[:-2])
    if items != prec.p.shape[:-2]:
        # ZF and CB do not depend on rho_f: one precoder, and one load matrix
        # computed from it, serve every item
        loads = prec.delta
        prec = pc.PrecoderOutput(p=np.broadcast_to(prec.p, items + prec.p.shape[-2:]),
                                 f=np.broadcast_to(prec.f, items))
        vars(prec)["delta"] = np.broadcast_to(loads, prec.p.shape)  # the cached property's slot
    return prec, coeffs, time.perf_counter() - t0


def run_chain(g_hat, err_var, scheme: Scheme, rho_f, sigma_w2: float,
              sigma_s2: float, solver: SolverParams = SolverParams(),
              built: Optional[tuple] = None) -> ChainResult:
    """Precode and allocate on a (masked) channel, or a stack of them;
    re-form and re-allocate only where that changes the result (see the
    module docstring). ``rho_f`` is a scalar or one value per item, and its
    items broadcast against the channel's: ``(S,)`` against one channel,
    ``(S,)`` against ``(S, M, K)`` pairs them, and ``(S, 1)`` against
    ``(B, M, K)`` runs every channel at every point. Every array of the
    result has the broadcast items' leading axes.

    The chain is a build stage (``_build``: the precoder of an identity
    allocation and its SINR coefficients) and an allocate stage, which only
    reads the build. ``built``, the build of the scheme's precoder on the
    same channel and points, skips the first stage, so one build can serve
    several chains."""
    allocator = SCHEMES["allocation"][scheme.allocation]
    if built is None:
        built = _build(SCHEMES["precoder"][scheme.precoder], g_hat, err_var, rho_f,
                       sigma_w2, sigma_s2)
    prec, coeffs, build_seconds = built
    t1 = time.perf_counter()
    solves = [allocator.solve(prec, coeffs, sigma_s2, solver)]
    t2 = time.perf_counter()
    seconds = {"precoder": build_seconds, "allocation": t2 - t1}
    if allocator.adaptive:
        prec = pc.apply_allocation(prec, solves[0].n_diag)
        t3 = time.perf_counter()
        coeffs = mt.sinr_coefficients(prec.p, g_hat, err_var, rho_f, sigma_w2)
        solves.append(allocator.solve(prec, coeffs, sigma_s2, solver))
        seconds["precoder"] += t3 - t2
        seconds["allocation"] += time.perf_counter() - t3
    metrics = mt.rates(mt.analytic_sinr(coeffs, solves[-1].eta))
    trace = {
        "allocation_solves": len(solves),
        "allocation_iterations": [n.iterations for n in solves],
        "allocation_tests": [n.tests for n in solves],
        "seconds": seconds,
    }
    return ChainResult(precoder=prec, n_first=solves[0], n_final=solves[-1],
                       metrics=metrics, trace=trace)


def _select(draw: TrialDraw, scheme: Scheme, rho_f, solver):
    """``(mask, masked g_hat, masked error variance, ES trace counts)`` of
    one cell, read-only; NS and LS come from the draw's memo. ES on a grid
    ``(S,)`` gives one mask per point, ``(S, M, K)``."""
    if scheme.selection in draw.selections:
        return draw.selections[scheme.selection]
    selector = SCHEMES["selection"][scheme.selection]
    realization = draw.realization
    mask, es_counts = selector.select(scheme, realization, draw.cfg, rho_f, solver)
    selected = (*_read_only(mask, *sel.apply_mask(mask, realization)), es_counts)
    if not selector.per_cell:
        draw.selections[scheme.selection] = selected
    return selected


def _cell_build(draw: TrialDraw, scheme: Scheme, snr_db, g_hat, err_var, rho_f,
                sigma_w2, sigma_s2):
    """The ``_build`` of one cell. NS and LS builds come from the draw's
    memo, read-only; a shared build's seconds count only in the cell that
    made it."""
    build = SCHEMES["precoder"][scheme.precoder]
    if SCHEMES["selection"][scheme.selection].per_cell:
        return _build(build, g_hat, err_var, rho_f, sigma_w2, sigma_s2)
    key = (scheme.selection, build, np.shape(snr_db), tuple(np.ravel(snr_db).tolist()))
    if key in draw.builds:
        return (*draw.builds[key], 0.0)
    prec, coeffs, seconds = _build(build, g_hat, err_var, rho_f, sigma_w2, sigma_s2)
    _read_only(prec.p, prec.f, coeffs.psi, coeffs.phi, coeffs.gamma, coeffs.rho_f)
    draw.builds[key] = prec, coeffs
    return prec, coeffs, seconds


def _snr_linear(snr_db) -> np.ndarray:
    """Linear SNR of one point or of a grid, each point converted in Python
    floats, so that a grid point rounds as it does on its own."""
    grid = np.asarray(snr_db, dtype=float)
    return np.array([10.0 ** (snr / 10.0) for snr in grid.ravel().tolist()]
                    ).reshape(grid.shape)


def run_cell(draw: TrialDraw, scheme: Scheme, snr_db,
             solver: SolverParams = SolverParams(),
             with_ber: bool = False) -> PipelineResult:
    """One (scheme, SNR) cell of a trial, on the trial's shared draw.

    ``snr_db`` is one SNR point, or a grid ``(S,)``: the cell then runs one
    stacked chain, every result has a leading grid axis, and each item
    equals its own cell's result. NS and LS share one mask over the grid;
    ES searches once for every point's mask and runs the ``(S, M, K)``
    winners as one chain. BER is measured for every point in one
    ``ber_qpsk`` call on the restarted symbol and noise streams, so each
    point sees the bits and noise it would see on its own.

    ``trace["seconds"]["channel"]`` holds the channel draw's time only in
    the cell that made the draw (the first to run on it), the selection
    time of NS and LS only in the cell that made that selection, and
    ``trace["seconds"]["precoder"]`` the time of a shared build (precoder
    and SINR coefficients) only in the cell that made it. The times of a
    stacked cell cover all of its points.
    """
    cfg = draw.cfg
    sigma_w2 = cfg.noise_variance_w()
    sigma_s2 = cfg.symbol_power

    t0 = time.perf_counter()
    realization = draw.realization
    t1 = time.perf_counter()
    rho_f = mt.snr_to_rho_f(_snr_linear(snr_db), realization.g_hat, sigma_w2)
    mask, g_hat, err_var, es_counts = _select(draw, scheme, rho_f, solver)
    t2 = time.perf_counter()
    built = _cell_build(draw, scheme, snr_db, g_hat, err_var, rho_f, sigma_w2, sigma_s2)
    chain = run_chain(g_hat, err_var, scheme, rho_f, sigma_w2, sigma_s2, solver,
                      built=built)
    t3 = time.perf_counter()

    if with_ber:
        chain.metrics.ber, chain.trace["ber_degenerate_gains"] = mt.ber_qpsk(
            chain.precoder.p, chain.n_final.n_diag, realization.g, g_hat, rho_f,
            sigma_w2, solver.symbols_per_packet, _stream(draw.seed, draw.trial, "symbols"),
            packets=solver.packets_per_trial,
            noise_rng=_stream(draw.seed, draw.trial, "noise"))
    t4 = time.perf_counter()

    chain.trace.update({"es_candidates": 0, "es_certified": 0, **es_counts})
    chain.trace["seconds"].update({"channel": t1 - t0, "selection": t2 - t1,
                                   "ber": t4 - t3})
    return PipelineResult(**vars(chain), mask=mask)


def run_trial(cfg: ch.SystemConfig, scheme: Scheme, snr_db: float, trial: int,
              solver: SolverParams = SolverParams(), with_ber: bool = False,
              seed: Optional[int] = None) -> PipelineResult:
    """One Monte-Carlo trial of the full chain at a given SNR grid point:
    ``run_cell`` on a fresh draw."""
    if seed is None:
        seed = cfg.rng_seed
    return run_cell(TrialDraw(cfg, trial, seed), scheme, snr_db, solver, with_ber)


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


def _check_es_budget(schemes, cfgs, solver):
    """Refuse, before any trial runs, an ES scheme whose candidates at one of
    ``cfgs`` exceed the solver's budget."""
    for scheme in schemes:
        if scheme.selection != "ES":
            continue
        for cfg in cfgs:
            total = sel.es_candidate_count(cfg.num_aps, cfg.num_users, cfg.selected_aps)
            if total > solver.es_budget:
                digits = len(str(total))
                count = str(total) if digits <= 12 else f"about 1e{digits - 1}"
                raise ValueError(
                    f"{scheme.label}: exhaustive selection of {cfg.selected_aps} of "
                    f"{cfg.num_aps} APs for {cfg.num_users} users needs "
                    f"C({cfg.num_aps}, {cfg.selected_aps})^{cfg.num_users} = {count} "
                    f"candidate evaluations, exceeding the budget of {solver.es_budget}")


def _point_cell(draw, scheme, snr, solver, with_ber, axis_name, axis_value):
    """``run_cell``, its draw-dependent failures named at ``axis_value``."""
    try:
        return run_cell(draw, scheme, snr, solver, with_ber=with_ber)
    except (ArithmeticError, ValueError) as err:   # LinAlgError is a ValueError
        raise TrialError(scheme.label, axis_name, axis_value, draw.trial, draw.seed,
                         err) from err


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
    """The sweep axis as groups ``(axis values, config, SNR list)``, one per
    distinct config: the SNR grid is one group, and every selection-fraction
    or antenna-split point is a group of its own, at the grid's first SNR.
    The selection-fraction and antenna-split axes take their points only
    from ``axis_values``; missing or malformed values raise ``ValueError``
    naming the axis."""
    if axis == "snr_grid":
        if axis_values is not None:
            raise ValueError(f"axis snr_grid takes its points from the config's "
                             f"snr_grid_db, not from axis_values={axis_values!r}")
        grid = [float(snr) for snr in cfg.snr_grid_db]
        return [(grid, cfg, grid)]
    if axis not in ("selection_fraction", "antennas_per_ap"):
        raise ValueError(f"unknown sweep axis {axis!r}")
    values = () if axis_values is None else tuple(axis_values)
    if not values:
        raise ValueError(f"axis {axis} needs at least one value")
    snr = [float(cfg.snr_grid_db[0])]
    groups = []
    for value in values:
        if axis == "selection_fraction":
            if not 0.0 < value <= 1.0:
                raise ValueError(f"axis selection_fraction value {value!r} must lie in (0, 1]")
            cfg_point = replace(cfg, selected_aps=max(1, round(value * cfg.num_aps)))
        else:
            if not (value >= 1 and float(value).is_integer()):
                raise ValueError(f"axis antennas_per_ap value {value!r} must be a "
                                 f"positive integer")
            n, m = int(value), cfg.total_antennas
            sn = cfg.selected_aps * cfg.antennas_per_ap
            if m % n != 0 or sn % n != 0:
                raise ValueError(
                    f"antennas_per_ap={n} must divide both the antenna total {m} "
                    f"and the selected-antenna total {sn}")
            cfg_point = replace(cfg, antennas_per_ap=n, num_aps=m // n, selected_aps=sn // n)
        groups.append(([float(value)], cfg_point.validate(), snr))
    return groups


def _trial_samples(groups, schemes, trial, seed, solver, with_ber, axis):
    """Trial ``trial``'s samples, ``(fields, schemes, points)``: the sum
    rate, the minimum SINR in dB and, with BER, the BER of each cell. One
    draw per group and one ``run_cell`` per (group, scheme) over the
    group's SNR list. A failing cell of a one-point group raises its
    ``TrialError``; a failing cell of a larger group re-runs the trial with
    every point a group of its own, which names the first failing cell in
    (point, scheme) order."""
    points = sum(len(values) for values, _, _ in groups)
    samples = np.empty((3 if with_ber else 2, len(schemes), points))
    draw = None
    start = 0
    for values, cfg, snrs in groups:
        draw = TrialDraw(cfg, trial, seed) if draw is None else draw.at(cfg)
        cells = slice(start, start + len(values))
        for s, scheme in enumerate(schemes):
            try:
                metrics = _point_cell(draw, scheme, snrs, solver, with_ber, axis,
                                      values[0]).metrics
            except TrialError:
                if len(values) == 1:
                    raise
                singles = [([value], group_cfg, [snr])
                           for group_values, group_cfg, group_snrs in groups
                           for value, snr in zip(group_values, group_snrs)]
                return _trial_samples(singles, schemes, trial, seed, solver, with_ber, axis)
            samples[0, s, cells] = metrics.sum_rate
            samples[1, s, cells] = 10.0 * np.log10(metrics.min_sinr)
            if with_ber:
                samples[2, s, cells] = metrics.ber
        start = cells.stop
    return samples


def run_sweep(cfg: ch.SystemConfig, schemes: Sequence[Scheme], axis: str,
              trials: int, solver: SolverParams = SolverParams(),
              with_ber: bool = False, axis_values=None,
              seed: Optional[int] = None):
    """Average per-trial metrics per (scheme, axis point).

    The axis is split into groups of points that share one config: the whole
    SNR grid is one group, and every selection-fraction or antenna-split
    point is a group of one. The sweep runs trial-major: for each trial it
    draws the channel block once per group (once per trial on the
    selection-fraction axis), makes the NS and LS masks and builds once per
    group, and runs each scheme over the group's SNR points as one cell, so
    scheme comparisons are paired. Each point of a cell gives what
    ``run_trial`` gives for it. Rows come scheme-major, axis points in
    order. A trial that fails on its draw raises ``TrialError`` for the
    first failing cell in (trial, axis point, scheme) order, so it names the
    smallest failing trial over all schemes and points; a trial whose grid
    cell fails is re-run one point at a time to find that cell. Missing or
    malformed ``axis_values``, and an ES scheme over the solver's candidate
    budget at any axis point, raise ``ValueError`` before the first trial.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if seed is None:
        seed = cfg.rng_seed
    groups = _axis_points(cfg, axis, axis_values)
    _check_es_budget(schemes, [c for _, c, _ in groups], solver)
    # (field, scheme, point, trial): trials along the contiguous last axis,
    # so that each cell's statistics round as a 1-D array's would
    runs = np.stack([_trial_samples(groups, schemes, t, seed, solver, with_ber, axis)
                     for t in range(trials)], axis=-1)
    means = runs.mean(axis=-1)
    ses = (runs.std(axis=-1, ddof=1) / np.sqrt(trials) if trials > 1
           else np.zeros(means.shape))
    values = [value for group_values, _, _ in groups for value in group_values]
    rows = []
    for s, scheme in enumerate(schemes):
        for p, value in enumerate(values):
            ber_mean, ber_se = ((float(means[2, s, p]), float(ses[2, s, p])) if with_ber
                                else (None, None))
            rows.append(SweepRow(scheme=scheme.label, axis_name=axis,
                                 axis_value=value, sum_rate_mean=float(means[0, s, p]),
                                 sum_rate_se=float(ses[0, s, p]),
                                 min_sinr_db_mean=float(means[1, s, p]),
                                 min_sinr_db_se=float(ses[1, s, p]), ber_mean=ber_mean,
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
    if not SCHEMES["allocation"][scheme.allocation].adaptive:
        raise ValueError("learning curves require an allocation that records its cost: "
                         + ", ".join(n for n, a in SCHEMES["allocation"].items()
                                     if a.adaptive))
    if trials < 1:
        raise ValueError("trials must be at least 1")
    _check_es_budget([scheme], [cfg], solver)
    if seed is None:
        seed = cfg.rng_seed
    snr = float(cfg.snr_grid_db[0])
    traces = []
    for t in range(trials):
        res = _point_cell(TrialDraw(cfg, t, seed), scheme, snr, solver, False,
                          "snr_grid", snr)
        traces.append(res.n_first.cost_trace)
    arr = np.asarray(traces, dtype=float)         # (trials, iterations + 1)
    rows = []
    for i in range(arr.shape[1]):
        mean, se = _mean_se(arr[:, i])
        rows.append(LearningCurveRow(iteration=i, cost_mean=mean, cost_se=se,
                                     trials=trials, seed=seed))
    return rows
