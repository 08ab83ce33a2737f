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
``run_chain`` composes two stages: a build, a frozen ``Build`` of the
precoder of an identity allocation and its SINR coefficients, and an
allocate stage, which only reads the build, so that one build can serve
every chain on the same masked channel and SNR points. Every per-item array
of a build carries its full item axes, stride 0 along those it does not
depend on, so that its ``take`` and ``stack`` are one walk (``_map_items``).

``run_chain`` runs on one masked channel ``(M, K)`` or on a stack of them
``(B, M, K)``, at one SNR or at a grid of them, ``rho_f`` of shape
``(S,)`` against one channel or paired with ``(S, M, K)`` channels, or
``(S, 1)`` against a stack. MMSE builds one precoder per item under the
total transmit energy ``E_tr = M rho_f``, from one Gram matrix per channel,
while ZF and CB, whose precoders and SINR coefficients do not depend on the
SNR, build once per channel, stride 0 along the points. Each item equals
its own 2-D chain bitwise.
Exhaustive selection scores its candidate masks as ``(S, B)`` chains, in
chunks, and copies each point's winning item out of the chunk that scored
it (``ChainResult.take``), so every reported number is what the 2-D chain
on the winning mask gives, and no chain runs on the winners again. Each
chunk is masked and built once. A chunk that leaves ZF rank-deficient is
built again without the candidates that fail ZF's rank test
(``pc.zf_full_rank``: a Gram eigenvalue at or below rounding), which score
-inf; the error of the chunk's build carries that test's mask, so no Gram
matrix is tested twice. OPA's search is screened by its closed-form bound
(see ``_es``).

A trial is split in two. ``TrialDraw`` holds the channel block of trial
``t`` at one config, drawn once on first use and read-only. ``run_cells``
runs a list of schemes on a draw over one SNR point or a grid, and each
quantity once. An ES scheme's search depends on the scheme and the SNR, so
it runs per distinct chain, and its search gives that chain. NS and LS
schemes share each selection, with the estimate and error variance it
masks, and each (selection, precoder build), which MMSE and MMSE_CONV
share; all of these are read-only and live only for the call. They run one
chain per distinct (selection, precoder build, allocation), so MMSE and
MMSE_CONV twins share one, and the chains of one allocation run as one
allocate stage, a ``run_chain`` on ``Build.stack`` of their builds, of
which each cell's result is its chain's ``take``.
``run_cell`` is ``run_cells`` of one scheme, and ``run_trial`` one cell on a
fresh draw. ``run_sweep`` runs trial-major: one draw and one ``run_cells``
per config, over that config's SNR points: the whole grid on the SNR axis,
one point on the others. The points of a selection-fraction axis differ
only in ``selected_aps``, which the channel draw does not read, so their
draws share one channel block.

Trials are reproducible in isolation: every random draw of trial ``t`` comes
from sub-streams keyed by (seed, t, stream), so trials can run in any order
or concurrently, and a cell that measures BER restarts its symbol and noise
streams, so it sees the same bits and noise whichever cells ran before it.
``run_cells`` measures the BER of all its chains at all their points in one
``ber_qpsk`` call, which sends the same bits and noise over every item, as
a restart per item would. It hands over each chain's precoder and estimate
as they lie, and the call stacks only each chain's K x K links.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields, replace
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
    solve: Callable       # (precoder, coeffs, sigma_s2) -> AllocationResult
    # a gradient solver whose step is not scale-free: the chain re-forms P with
    # its allocation and solves again, and it records its cost per iteration
    adaptive: bool = False
    precoders: Optional[tuple] = None  # the precoders it accepts; None: every one
    # (precoder, coeffs) -> (lo, hi): an interval holding the minimum
    # SINR that ``solve`` gives, for exhaustive selection's screen
    bound: Optional[Callable] = None

    def accepts(self, precoder: str) -> bool:
        return self.precoders is None or precoder in self.precoders


def _mmse(g_hat, rho_f, sigma_w2, sigma_s2):
    return pc.mmse_precoder(g_hat, None, e_tr=g_hat.shape[-2] * rho_f, rho_f=rho_f,
                            sigma_w2=sigma_w2, sigma_s2=sigma_s2)


def _es(scheme, realization, cfg, rho_f):
    """The best mask at one SNR point, ``(M, K)``, or at each point of a grid,
    ``(S, M, K)``, from one search, and the winners' ``ChainResult``, taken
    from the search. A stack of B candidates runs as one ``(S, B)`` chain
    against ``rho_f`` of shape ``(S, 1)``, and each of its items equals its
    own 2-D chain bitwise, so each point's winning item ``(s, b_s)`` of the
    chunk that scored it is what the chain on that point's mask gives: no
    chain runs again on the winners. The search copies winning items out of
    their chunk as it goes (``ChainResult.take``), keeps no chunk's result
    and gathers each point's newest copy at the end. The result's trace
    holds the counts of the last scored stack a winner was copied from:
    ``allocation_solves``, ``allocation_iterations`` and
    ``allocation_tests``; its precoder and allocation seconds are 0, as the
    search that ran them is the cell's selection time. It also holds
    ``es_candidates``, the (point, candidate) items searched, and
    ``es_certified``, those decided exactly: scored on the chain, or set
    aside by ZF's rank test.

    Each chunk is masked once and built once. A build that ZF's rank test
    refuses names the candidates that fail it, which score -inf at every
    point, and only the rest are built, without being tested again. With an
    allocator ``bound`` (OPA's, ``pa.opa_bound``: a closed-form interval
    with no eigendecomposition and no bisection, at the chain's own
    ``pa.OPA_ITERATIONS`` and ``pa.OPA_TOL``) the search is screened: each
    point keeps the largest ``lo`` so far and its best score so far, both
    only rising, and a candidate whose ``hi`` is below both at every point
    can never win, so it scores -inf without running the chain. A NaN end
    rules nothing out. The candidates left run the allocate stage on their
    columns of the chunk's build, at every point, and the first strict
    maximum among them is the unscreened search's winner, ties included.
    Should a screened search leave some point without a winner, the search
    runs again unscreened, so its errors are the unscreened search's too. APA
    and UPA have no bound cheaper than their own chain: their searches
    score every candidate."""
    points = np.shape(rho_f)
    stack_rho = rho_f[..., None] if points else rho_f
    sigma_w2, sigma_s2 = cfg.noise_variance_w(), cfg.symbol_power
    build = SCHEMES["precoder"][scheme.precoder]
    cut = (slice(None),) * len(points)

    def search(bound):
        """``sel.es_aps`` on the chain, screened by ``bound`` unless it is
        None: the masks, the winners' copies, newest first, as ``(points,
        ChainResult)``, and the certified count."""
        won = []        # newest first: points a chunk raised, their items copied by index
        certified = 0
        floor, best = np.full(points, -np.inf), np.full(points, -np.inf)

        def evaluate(masks):
            """Minimum SINRs of a (B, M, K) stack, ``points + (B,)``, and
            the ``take`` that copies the picked items of its chain result
            into the winners (see ``sel.es_aps``)."""
            nonlocal certified, floor, best
            g_hat, err_var = sel.apply_mask(masks, realization)
            scores = np.full(points + masks.shape[:1], -np.inf)
            certified += scores.size
            run = np.ones(len(masks), dtype=bool)       # the candidates the chain scores
            try:
                built = _build(build, g_hat, err_var, stack_rho, sigma_w2, sigma_s2)
            except pc.RankDeficientError as err:
                run = err.full
                if not run.any():
                    return scores, None                 # no score to take: none beats -inf
                built = _build(build, g_hat[run], err_var[run], stack_rho, sigma_w2, sigma_s2)
            if bound is not None:
                lo, hi = (np.asarray(x, dtype=float) for x in bound(built.precoder, built.coeffs))
                hi = np.where(np.isnan(lo) | np.isnan(hi), np.inf, hi)
                floor = np.maximum(floor, np.where(np.isnan(lo), -np.inf, lo).max(axis=-1))
                live = (hi >= np.maximum(floor, best)[..., None]
                        ).reshape(-1, hi.shape[-1]).any(axis=0)
                certified -= (live.size - np.count_nonzero(live)) * math.prod(points)
                if not live.any():
                    return scores, None
                built = built.take(cut + (live,))
                run[run] = live
            result = run_chain(g_hat[run], err_var[run], scheme, stack_rho, sigma_w2,
                               sigma_s2, built=built)
            scores[..., run] = result.metrics.min_sinr
            best = np.maximum(best, np.where(np.isnan(scores), -np.inf, scores).max(axis=-1))
            rows = np.cumsum(run) - 1

            def take(items, columns):
                at = np.flatnonzero(items)
                won.insert(0, (at, result.take((at, rows[columns]) if points
                                               else (rows[columns],))))
            return scores, take

        masks, _ = sel.es_aps(cfg.num_aps, cfg.num_users, cfg.selected_aps,
                              cfg.antennas_per_ap, evaluate, points=math.prod(points))
        return masks, won, certified

    bound = SCHEMES["allocation"][scheme.allocation].bound
    masks, won, certified = search(bound)
    if masks is None and bound is not None:
        masks, won, certified = search(None)
    if masks is None:
        raise np.linalg.LinAlgError(
            "exhaustive selection has no candidate mask that keeps the channel "
            "full-rank with a finite minimum SINR")
    # point -> (copy, row) of its winner, in the newest copy that names it
    found = {s: (i, j) for i, (at, _) in reversed(list(enumerate(won))) for j, s in enumerate(at)}
    won = (_map_items(lambda _, *xs: np.array([xs[i][j] for _, (i, j) in sorted(found.items())]),
                      *(copy for _, copy in won)) if points else won[0][1].take(0))
    candidates = sel.es_candidate_count(cfg.num_aps, cfg.num_users, cfg.selected_aps)
    won.trace = {**won.trace, "seconds": {"precoder": 0.0, "allocation": 0.0},
                 "es_candidates": candidates * math.prod(points), "es_certified": certified}
    return masks, won


@dataclass(frozen=True)
class _Selector:
    select: Callable      # (scheme, realization, cfg, rho_f)
                          # -> (mask array, the chain ES ran on it or None)
    per_cell: bool = False  # depends on the scheme and SNR: each chain makes its own


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
        "OPA": _Allocator(
            lambda precoder, coeffs, _: pa.opa_bisection(coeffs, precoder.delta),
            bound=lambda precoder, coeffs: pa.opa_bound(coeffs, precoder.delta)),
        # its step is scale-free only where f cancels the precoder's scale
        "APA": _Allocator(
            lambda precoder, coeffs, sigma_s2: pa.apa_sgd(precoder, coeffs, sigma_s2=sigma_s2),
            adaptive=True, precoders=("MMSE",)),
        "UPA": _Allocator(lambda precoder, *_: pa.upa(precoder.delta)),
    },
    "selection": {
        "NS": _Selector(lambda scheme, realization, cfg, *_: (
            np.ones((cfg.total_antennas, cfg.num_users)), None)),
        "LS": _Selector(lambda scheme, realization, cfg, *_: (
            sel.ls_aps(realization.beta, cfg.selected_aps, cfg.antennas_per_ap), None)),
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
    """BER's packet shape: QPSK symbols per packet and packets per trial,
    each an integer of at least 1."""

    symbols_per_packet: int = 100
    packets_per_trial: int = 1

    def __post_init__(self):
        for f in fields(self):
            ch.check_count(f.name, getattr(self, f.name))


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
    """The channel block of one trial at one config, which every (scheme,
    SNR) cell of the trial shares: drawn on first use from the (seed, trial)
    topology, shadowing and fading sub-streams, and read-only. ``at`` makes
    the draw of another config of the same trial."""

    cfg: ch.SystemConfig
    trial: int
    seed: int

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
        (drawing it now if no cell has yet)."""
        draw = TrialDraw(cfg, self.trial, self.seed)
        if replace(cfg, selected_aps=self.cfg.selected_aps) == self.cfg:
            vars(draw)["realization"] = self.realization   # the cached property's slot
        return draw


def _map_items(fn, *values):
    """``values[0]`` rebuilt, each value it holds in turn, with ``fn(core,
    *arrays)`` for each per-item array: its count in ``_LAYOUT`` and that
    field of each of ``values``. Any other field, and a None, is kept. A
    value whose fields all come back as they were is itself, not rebuilt."""
    first, rest = values[0], values[1:]
    new = {}
    for name, core in _LAYOUT[type(first)].items():
        x = getattr(first, name)
        parts = [getattr(value, name) for value in rest] if rest else ()
        if core is None or x is None:
            new[name] = x
        elif core is ...:
            new[name] = _map_items(fn, x, *parts)
        else:
            new[name] = fn(core, x, *parts)
    if all(new[name] is getattr(first, name) for name in new):
        return first
    return type(first)(**new)


class _Items:
    def take(self, index):
        """Items ``index``: ``x[index]`` of each per-item array, except that a
        leading axis ``index`` leaves whole stays stride 0 where it is: an
        index array would copy it, in a memory order of its own."""
        index = index if isinstance(index, tuple) else (index,)
        lead = next((i for i, part in enumerate(index)
                     if not (isinstance(part, slice) and part == slice(None))), len(index))
        def cut(_, x):
            steps = x.strides[:lead]
            out = x[tuple(slice(0, 1) if step == 0 else slice(None) for step in steps)
                    + index[lead:]]
            return (np.broadcast_to(out, x.shape[:lead] + out.shape[lead:]) if 0 in steps
                    else out)
        return _map_items(cut, self)


@dataclass
class ChainResult(_Items):
    precoder: pc.PrecoderOutput
    n_first: pa.AllocationResult
    n_final: pa.AllocationResult
    metrics: mt.LinkMetrics
    trace: dict


@dataclass
class PipelineResult(ChainResult):
    mask: np.ndarray      # (M, K) selection the chain ran on; (S, M, K) on a grid,
                          # stride 0 along the points for NS and LS


@dataclass(frozen=True)
class Build(_Items):
    """A chain's build: the precoder of an identity allocation, its SINR
    coefficients and their seconds. Each per-item array carries the full
    item axes, stride 0 along those it does not depend on (ZF's and CB's SNR
    points, ``rho_f``'s ES candidates): ``broadcast_to`` sets this up."""

    precoder: pc.PrecoderOutput
    coeffs: mt.SinrCoefficients
    seconds: float = 0.0

    def broadcast_to(self, items) -> "Build":
        """The build at the item axes ``items``: a read-only stride-0 view of
        each per-item array along each of them that it lacks; the build
        itself where none lacks one, as an MMSE build outside an ES chunk."""
        items = tuple(items)
        def to(core, x):
            have = np.shape(x)
            shape = items + have[len(have) - core:]
            return x if have == shape else np.broadcast_to(x, shape)
        return _map_items(to, self)

    @staticmethod
    def stack(builds, reform: bool = True) -> "Build":
        """The builds stacked along a new leading axis (``_stack``), read-only,
        with 0 seconds: each build's are its own. Without ``reform`` p and f
        are None: a stage that does not re-form reads only the loads."""
        return _map_items(lambda _, *xs: _read_only(_stack(xs, np.ndim(xs[0])))[0], *(
            Build(b.precoder if reform else pc.PrecoderOutput(None, None, b.precoder.delta),
                  b.coeffs) for b in builds))


# Each value's fields along its item axes: a per-item array's own axes after
# them (APA's cost trace has one, its steps), ... a value laid out in turn,
# and None a field that is one for all the items.
_LAYOUT = {
    Build: {"precoder": ..., "coeffs": ..., "seconds": None},
    ChainResult: {"precoder": ..., "n_first": ..., "n_final": ..., "metrics": ..., "trace": None},
    PipelineResult: {"precoder": ..., "n_first": ..., "n_final": ..., "metrics": ...,
                     "trace": None, "mask": 2},
    pc.PrecoderOutput: {"p": 2, "f": 0, "delta": 2},
    mt.SinrCoefficients: {"psi": 1, "phi": 2, "gamma": 2, "rho_f": 0, "sigma_w2": None},
    pa.AllocationResult: {"eta": 1, "iterations": None, "achieved_t": 0, "tests": None,
                          "cost_trace": 1},
    mt.LinkMetrics: {"per_user_sinr": 1, "per_user_rate": 1, "sum_rate": 0, "min_sinr": 0,
                     "ber": 0},
}


def _build(build: Callable, g_hat, err_var, rho_f, sigma_w2, sigma_s2) -> Build:
    """The ``Build`` of the precoder function ``build`` on a channel, or a
    stack of them, at ``rho_f``, broadcast to their items."""
    t0 = time.perf_counter()
    prec = build(g_hat, rho_f, sigma_w2, sigma_s2)
    coeffs = mt.sinr_coefficients(prec.p, g_hat, err_var, rho_f, sigma_w2, prec.delta)
    items = np.broadcast_shapes(np.shape(rho_f), prec.p.shape[:-2])
    return Build(prec, coeffs, time.perf_counter() - t0).broadcast_to(items)


def run_chain(g_hat, err_var, scheme: Scheme, rho_f, sigma_w2: float,
              sigma_s2: float, built: Optional[Build] = None) -> ChainResult:
    """Precode and allocate on a (masked) channel, or a stack of them;
    re-form and re-allocate only where that changes the result (see the
    module docstring). ``rho_f`` is a scalar or one value per item, and its
    items broadcast against the channel's: ``(S,)`` against one channel,
    ``(S,)`` against ``(S, M, K)`` pairs them, and ``(S, 1)`` against
    ``(B, M, K)`` runs every channel at every point. Every array of the
    result has the broadcast items' leading axes.

    The chain is a build stage (``_build``, a ``Build``) and an allocate
    stage, which only reads the build. ``built``, a ``Build`` of the
    scheme's precoder on the same channel and points, skips the first stage,
    so one build can serve several chains. The chain takes no solver
    settings: OPA and APA run at their module's constants
    (``pa.OPA_ITERATIONS``, ``pa.OPA_TOL``, ``pa.APA_STEP``,
    ``pa.APA_ITERATIONS``)."""
    allocator = SCHEMES["allocation"][scheme.allocation]
    if built is None:
        built = _build(SCHEMES["precoder"][scheme.precoder], g_hat, err_var, rho_f,
                       sigma_w2, sigma_s2)
    prec, coeffs = built.precoder, built.coeffs
    t1 = time.perf_counter()
    solves = [allocator.solve(prec, coeffs, sigma_s2)]
    t2 = time.perf_counter()
    seconds = {"precoder": built.seconds, "allocation": t2 - t1}
    if allocator.adaptive:
        prec = pc.apply_allocation(prec, solves[0].n_diag)
        t3 = time.perf_counter()
        coeffs = mt.sinr_coefficients(prec.p, g_hat, err_var, rho_f, sigma_w2, prec.delta)
        solves.append(allocator.solve(prec, coeffs, sigma_s2))
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


def _snr_linear(snr_db) -> np.ndarray:
    """Linear SNR of one point or of a grid, each point converted in Python
    floats, so that a grid point rounds as it does on its own."""
    grid = np.asarray(snr_db, dtype=float)
    return np.array([10.0 ** (snr / 10.0) for snr in grid.ravel().tolist()]
                    ).reshape(grid.shape)


def _stack(arrays, ndim):
    """``arrays`` stacked along a new leading axis, each first given leading
    length-1 axes up to ``ndim`` axes and, where their shapes then differ,
    broadcast against each other. A lone array is a view, not a copy,
    and an axis along which every array repeats one value (stride 0, as
    ``np.broadcast_to`` makes) stays a stride-0 view of that value."""
    arrays = [a if a.ndim == ndim else a.reshape((1,) * (ndim - a.ndim) + a.shape)
              for a in map(np.asarray, arrays)]
    if len(arrays) == 1:
        return arrays[0][None]
    # ES's per-point estimates beside one mask's
    if len({a.shape for a in arrays}) > 1:
        arrays = np.broadcast_arrays(*arrays)
    repeated = [all(a.strides[i] == 0 for a in arrays) for i in range(ndim)]
    if not any(repeated):
        return np.array(arrays)         # np.stack's copy, at a fifth of its overhead
    one = tuple(slice(0, 1) if cut else slice(None) for cut in repeated)
    return np.broadcast_to(np.array([a[one] for a in arrays]),
                           (len(arrays),) + arrays[0].shape)


def _chain_key(scheme: Scheme):
    """What a scheme's chain computes: its selection, precoder build
    function (MMSE_CONV's is MMSE's) and allocation."""
    return scheme.selection, SCHEMES["precoder"][scheme.precoder], scheme.allocation


def run_cells(draw: TrialDraw, schemes: Sequence[Scheme], snr_db,
              solver: SolverParams = SolverParams(),
              with_ber: bool = False) -> list:
    """The (scheme, SNR) cells of ``schemes`` on a trial's draw, one
    ``PipelineResult`` per scheme, in order, each computing every quantity
    once (see the module docstring).

    ``snr_db`` is one SNR point, or a grid ``(S,)``: every array of a cell
    then has a leading grid axis, and each item, ``take(i)``, equals its own
    point's cell. NS and LS share one mask over the grid, stride 0 along
    it; an ES search finds every
    point's mask, and its chain result is the winners' items of the chunks
    it scored (see ``_es``). Every distinct chain is one item of one
    ``ber_qpsk`` call on the restarted symbol and noise streams, so each
    item sees the bits and noise it would see on its own; the call takes
    the chains' precoders and estimates as a sequence and stacks only
    their K x K links, never the ``(S, M, K)`` precoders. ``solver`` gives
    its packet shape and is read by nothing else. Twins share their chain's
    result objects. Shared arrays are read-only.

    ``trace`` of a cell: its solver counts and its allocate stage's seconds
    (``trace["seconds"]["allocation"]``, and APA's re-form under
    ``"precoder"``) are those of its stage, a ``run_chain`` on
    ``Build.stack`` of every NS and LS build of its allocation: the MMSE, ZF
    and CB cells of one allocation share one stage's
    ``allocation_iterations``, ``allocation_tests`` and seconds. The channel
    draw's seconds (``"channel"``), a selection's (``"selection"``) and a
    ``Build``'s (under ``"precoder"``; a stack's are 0) count only in the
    first cell that used them. An ES search, the winners' chain included, is
    its selection; its precoder and allocation seconds are 0, and its solver
    counts are those of a scored stack (see ``_es``). The BER seconds
    (``"ber"``) and ``ber_degenerate_gains`` are the one BER call's, over
    all its items. A cell's times cover all of its points.
    """
    cfg = draw.cfg
    sigma_w2, sigma_s2 = cfg.noise_variance_w(), cfg.symbol_power
    t0 = time.perf_counter()
    realization = draw.realization
    rho_f = mt.snr_to_rho_f(_snr_linear(snr_db), realization.g_hat, sigma_w2)
    ndim = np.ndim(rho_f)
    channel_seconds = time.perf_counter() - t0
    # selections: per NS or LS, or per ES chain, (mask, masked estimate,
    # masked error variance, ES's chain or None); builds: per (selection,
    # precoder build), its Build; chains: per chain key, its selection; ran:
    # per chain key, its result
    selections, builds, chains, ran = {}, {}, {}, {}
    stacks = {}     # allocation -> one scheme per chain
    cells = []      # per scheme: its chain's key, and the seconds of what it made
    for scheme in schemes:
        key = _chain_key(scheme)
        made = {"channel": 0.0 if cells else channel_seconds, "selection": 0.0,
                "precoder": 0.0}
        cells.append((key, made))
        if key in chains:
            continue
        selector = SCHEMES["selection"][scheme.selection]
        place = key if selector.per_cell else scheme.selection
        if place not in selections:
            t = time.perf_counter()
            mask, chain = selector.select(scheme, realization, cfg, rho_f)
            # the cell's mask carries its points: stride 0 along them for NS and LS
            selections[place] = (np.broadcast_to(mask, np.shape(rho_f) + mask.shape[-2:]),
                                 *_read_only(*sel.apply_mask(mask, realization)), chain)
            made["selection"] = time.perf_counter() - t
        chains[key] = selections[place]
        _, g_hat, err_var, chain = chains[key]
        if chain is not None:           # ES: its search ran the chain
            ran[key] = chain
            continue
        if key[:2] not in builds:
            build = builds[key[:2]] = _build(key[1], g_hat, err_var, rho_f, sigma_w2, sigma_s2)
            made["precoder"] = build.seconds
            _read_only(build.precoder.p, build.precoder.f, build.precoder.delta,
                       build.coeffs.psi, build.coeffs.phi, build.coeffs.gamma, build.coeffs.rho_f)
        stacks.setdefault(scheme.allocation, []).append(scheme)

    for stacked in stacks.values():
        keys = [_chain_key(scheme) for scheme in stacked]
        reform = SCHEMES["allocation"][stacked[0].allocation].adaptive
        g_hat, err_var = ((_stack([chains[key][1] for key in keys], ndim + 2),
                           _stack([chains[key][2] for key in keys], ndim + 2)) if reform
                          else (None, None))
        stage = run_chain(g_hat, err_var, stacked[0], rho_f, sigma_w2, sigma_s2,
                          built=Build.stack([builds[key[:2]] for key in keys], reform))
        if not reform:              # the stage stacked only the loads: each
            stage.precoder = None   # cell's precoder is its build's, not a take
        for i, key in enumerate(keys):
            ran[key] = stage.take(i)
            if not reform:
                ran[key].precoder = builds[key[:2]].precoder

    ber_seconds, degenerate = 0.0, None
    if with_ber and ran:
        t = time.perf_counter()
        p, n_diag, g_hat = zip(*((chain.precoder.p, chain.n_final.n_diag, chains[key][1])
                                 for key, chain in ran.items()))
        ber, degenerate = mt.ber_qpsk(
            p, _stack(n_diag, ndim + 1), realization.g, g_hat, rho_f, sigma_w2,
            solver.symbols_per_packet, _stream(draw.seed, draw.trial, "symbols"),
            packets=solver.packets_per_trial, noise_rng=_stream(draw.seed, draw.trial, "noise"))
        for chain, link in zip(ran.values(), ber):
            chain.metrics.ber = link
        ber_seconds = time.perf_counter() - t

    results = []
    for key, made in cells:
        chain = ran[key]
        ran_seconds = chain.trace["seconds"]
        trace = {"es_candidates": 0, "es_certified": 0, **chain.trace,
                 "seconds": {**made, "precoder": ran_seconds["precoder"] + made["precoder"],
                             "allocation": ran_seconds["allocation"], "ber": ber_seconds}}
        if with_ber:
            trace["ber_degenerate_gains"] = degenerate
        results.append(PipelineResult(precoder=chain.precoder, n_first=chain.n_first,
                                      n_final=chain.n_final, metrics=chain.metrics,
                                      trace=trace, mask=chains[key][0]))
    return results


def run_cell(draw: TrialDraw, scheme: Scheme, snr_db,
             solver: SolverParams = SolverParams(),
             with_ber: bool = False) -> PipelineResult:
    """One (scheme, SNR) cell of a trial on the trial's draw: ``run_cells``
    of one scheme."""
    return run_cells(draw, [scheme], snr_db, solver, with_ber)[0]


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


def _preflight(schemes, cfgs, trials):
    """Refuse, before any trial runs, a ``trials`` that is not an integer of
    at least 1, or an ES scheme whose search at one of ``cfgs`` exceeds
    ``sel.ES_BUDGET``."""
    ch.check_count("trials", trials)
    if any(scheme.selection == "ES" for scheme in schemes):
        for cfg in cfgs:
            sel.check_es_budget(cfg.num_aps, cfg.num_users, cfg.selected_aps)


def _point_cell(draw, scheme, snr, axis_name, axis_value, **options):
    """``run_cell``, its draw-dependent failures named at ``axis_value``."""
    try:
        return run_cell(draw, scheme, snr, **options)
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


def _trial_stats(runs):
    """The mean and standard error of ``runs`` along its last axis, the
    trials; with one trial the standard error is 0. The trials lie along the
    contiguous last axis, so that each cell's statistics round as a 1-D
    array's would."""
    trials = runs.shape[-1]
    means = runs.mean(axis=-1)
    return means, (runs.std(axis=-1, ddof=1) / np.sqrt(trials) if trials > 1
                   else np.zeros(means.shape))


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


def _samples(groups, num_schemes, trial, seed, with_ber, cells_of):
    """``(fields, schemes, points)`` samples of one trial: one draw per
    group, and ``cells_of(draw, values, snrs)``, each scheme's
    ``PipelineResult`` over the group's points, in scheme order."""
    points = sum(len(values) for values, _, _ in groups)
    samples = np.empty((3 if with_ber else 2, num_schemes, points))
    draw = None
    start = 0
    for values, cfg, snrs in groups:
        draw = TrialDraw(cfg, trial, seed) if draw is None else draw.at(cfg)
        cells = slice(start, start + len(values))
        for s, cell in enumerate(cells_of(draw, values, snrs)):
            samples[0, s, cells] = cell.metrics.sum_rate
            samples[1, s, cells] = 10.0 * np.log10(cell.metrics.min_sinr)
            if with_ber:
                samples[2, s, cells] = cell.metrics.ber
        start = cells.stop
    return samples


def _trial_samples(groups, schemes, trial, seed, solver, with_ber, axis):
    """Trial ``trial``'s samples, ``(fields, schemes, points)``: the sum
    rate, the minimum SINR in dB and, with BER, the BER of each cell. One
    draw and one ``run_cells`` per group, over the group's SNR list. If any
    of it fails on the draw, the trial runs again one cell at a time, every
    point a group of its own, which raises the ``TrialError`` of the first
    failing cell in (point, scheme) order."""
    try:
        return _samples(groups, len(schemes), trial, seed, with_ber,
                        lambda draw, _, snrs: run_cells(draw, schemes, snrs, solver, with_ber))
    except (ArithmeticError, ValueError):     # LinAlgError is a ValueError
        pass
    singles = [([value], cfg, [snr]) for values, cfg, snrs in groups
               for value, snr in zip(values, snrs)]
    return _samples(singles, len(schemes), trial, seed, with_ber,
                    lambda draw, values, snrs: [
                        _point_cell(draw, scheme, snrs, axis, values[0], solver=solver,
                                    with_ber=with_ber) for scheme in schemes])


def run_sweep(cfg: ch.SystemConfig, schemes: Sequence[Scheme], axis: str,
              trials: int, solver: SolverParams = SolverParams(),
              with_ber: bool = False, axis_values=None,
              seed: Optional[int] = None):
    """Average per-trial metrics per (scheme, axis point).

    The axis is split into groups of points that share one config: the whole
    SNR grid is one group, and every selection-fraction or antenna-split
    point is a group of one. The sweep runs trial-major: for each trial it
    draws the channel block once per group (once per trial on the
    selection-fraction axis) and runs every scheme over the group's SNR
    points in one ``run_cells``, so scheme comparisons are paired. Each
    (scheme, point) gives what ``run_trial`` gives for it. Rows come
    scheme-major, axis points in order; a scheme listed twice gives its
    rows twice. A trial that fails on its draw raises ``TrialError`` for
    the first failing cell in (trial, axis point, scheme) order, so it
    names the smallest failing trial over all schemes and points: a trial
    whose ``run_cells`` fails is re-run one cell at a time, one point at a
    time, to find that cell. Missing or
    malformed ``axis_values``, a ``trials`` that is not an integer of at least
    1, and an ES scheme over ``sel.ES_BUDGET`` candidates at any axis point
    (``sel.check_es_budget``), raise ``ValueError`` before the first trial.
    ``solver`` shapes the BER measurement only.
    """
    if seed is None:
        seed = cfg.rng_seed
    groups = _axis_points(cfg, axis, axis_values)
    _preflight(schemes, [c for _, c, _ in groups], trials)
    # (field, scheme, point, trial)
    means, ses = _trial_stats(np.stack([
        _trial_samples(groups, schemes, t, seed, solver, with_ber, axis)
        for t in range(trials)], axis=-1))
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
                                 ber_se=ber_se, trials=int(trials), seed=int(seed)))
    return rows


@dataclass(frozen=True)
class LearningCurveRow:
    iteration: int
    cost_mean: float
    cost_se: float
    trials: int
    seed: int


def run_learning_curve(cfg: ch.SystemConfig, scheme: Scheme, trials: int,
                       seed: Optional[int] = None):
    """Per-iteration adaptive-allocation cost, averaged over trials.

    Uses the first allocation pass (identity-allocation precoder), which is
    where the gradient solver starts from scratch.
    """
    if not SCHEMES["allocation"][scheme.allocation].adaptive:
        raise ValueError("learning curves require an allocation that records its cost: "
                         + ", ".join(n for n, a in SCHEMES["allocation"].items()
                                     if a.adaptive))
    _preflight([scheme], [cfg], trials)
    if seed is None:
        seed = cfg.rng_seed
    snr = float(cfg.snr_grid_db[0])
    costs = [_point_cell(TrialDraw(cfg, t, seed), scheme, snr, "snr_grid", snr).n_first.cost_trace
             for t in range(trials)]
    means, ses = _trial_stats(np.stack(costs, axis=-1))      # (iterations + 1, trials)
    return [LearningCurveRow(iteration=i, cost_mean=float(mean), cost_se=float(se),
                             trials=int(trials), seed=int(seed))
            for i, (mean, se) in enumerate(zip(means, ses))]
