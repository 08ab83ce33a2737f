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
re-form, is an alias of MMSE.
A chain is two stages. Its build (``_build``) is a frozen ``Build``: the
precoder of an identity allocation and its SINR coefficients, formed once
from the masked estimate and error variance and shared by the allocator and
the metrics. Its allocate stage, ``run_chain``, reads only its build: the
coefficients are quadratic in P's columns, so APA's re-form divides column
i of P by ``n_i``, and ``psi_i`` and column i of ``phi`` and ``gamma`` by
``eta_i`` (``pc.reform``). So one build can serve every chain on the same
masked channel and SNR points. Every per-item array of a build carries its
full item axes, stride 0 along those it does not depend on, so that its
``take`` and ``stack`` are one walk (``_map_items``).

A build is of one masked channel ``(M, K)`` or of a stack of them ``(B, M,
K)``, at one SNR or at a grid of them, ``rho_f`` of shape ``(S,)`` against
one channel or paired with ``(S, M, K)`` channels, or ``(S, 1)`` against a
stack. MMSE builds one precoder per item under the total transmit energy
``E_tr = M rho_f``, from one Gram matrix per channel, while ZF and CB, whose
precoders and SINR coefficients do not depend on the SNR, build once per
channel, stride 0 along the points. Each item of a chain equals its own 2-D
chain bitwise.
Exhaustive selection is a selection like the others: it scores its
candidate masks as ``(S, B)`` chains, in chunks, and gives each point's
winning mask, on which the cell's chain then runs like any other.
Each chunk is masked and built once. A chunk that leaves ZF rank-deficient
is built again without the candidates that fail ZF's rank test (a Gram
eigenvalue at or below rounding), which score -inf; the error of the
chunk's build carries that test's mask, so no Gram matrix is tested twice.
OPA's one search is screened by its closed-form bound (see ``_es``).

A trial is split in two. ``TrialDraw`` holds the channel block of trial
``t`` at one config, drawn once on first use and read-only. ``run_cells``
runs a list of schemes on a draw over one SNR point or a grid, and each
quantity once. NS and LS schemes share each selection, with the estimate
and error variance it masks, and each (selection, precoder build), which
MMSE and MMSE_CONV share; an ES scheme's search depends on the scheme and
the SNR, so its selection and build are its chain's own. All of these are
read-only and live only for the call. One chain runs per distinct
(selection, precoder build, allocation), so MMSE and MMSE_CONV twins share
one, and the chains of one allocation, ES's included, run as one allocate
stage, a ``run_chain`` on ``Build.stack`` of their builds, of which each
cell's result is its chain's ``take``. The stage reads only the builds, so
no estimate or error variance is stacked for it.
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
    """The best mask at one SNR point, ``(M, K)``, or at each point of a
    grid, ``(S, M, K)``, with the search's ``es_candidates``, the (point,
    candidate) items searched, and ``es_certified``, those decided exactly:
    scored on the chain, or set aside by ZF's rank test. One loop over
    ``sel.es_chunks`` at ``rho_f`` as ``(S, 1)`` scores a chunk of B
    candidates as one ``(S, B)`` chain, each of whose items equals its own
    2-D chain bitwise. Per point the loop keeps one running best, from
    ``sel.first_maxima``, and the mask that set it, in a fresh contiguous
    array; the cell's chain then runs on those masks in its allocation's
    stage (``run_cells``). A point left without a finite score raises
    ``LinAlgError``.

    Each chunk is masked once and built once. A build that ZF's rank test
    refuses names the candidates that fail it, which score -inf at every
    point, and only the rest are built, without being tested again. With an
    allocator ``bound`` (OPA's, ``pa.opa_bound``: a closed-form interval
    with no eigendecomposition and no bisection, at the chain's own
    ``pa.OPA_ITERATIONS`` and ``pa.OPA_TOL``) the search is screened: a
    candidate whose ``hi`` is below, at every point, both the running best
    and the chunk's largest ``lo`` can never win, so it scores -inf without
    running the chain. A NaN end rules nothing out. The candidates left run
    the allocate stage on their columns of the chunk's build, at every
    point, and the first strict maximum among them is the unscreened
    search's winner, ties included. Under a valid bound the candidate that
    set a point's largest finite ``lo`` has ``hi >= lo``, so it stays live
    and scores at least its ``lo``: no point is left without a winner that
    the unscreened search would give one, and the running best, the one
    array carried between chunks, is never below an earlier chunk's ``lo``.
    APA and UPA have no bound cheaper than their own chain: their searches
    score every candidate."""
    rho = np.reshape(rho_f, (-1, 1))
    points = len(rho)
    sigma_w2, sigma_s2 = cfg.noise_variance_w(), cfg.symbol_power
    build = SCHEMES["precoder"][scheme.precoder]
    bound = SCHEMES["allocation"][scheme.allocation].bound
    best = np.full(points, -np.inf)
    masks_won = np.zeros((points, cfg.total_antennas, cfg.num_users))
    certified = 0
    for masks in sel.es_chunks(cfg.num_aps, cfg.num_users, cfg.selected_aps,
                               cfg.antennas_per_ap, points):
        g_hat, err_var = sel.apply_mask(masks, realization)
        certified += points * len(masks)
        run = np.ones(len(masks), dtype=bool)       # the candidates the chain scores
        try:
            built = _build(build, g_hat, err_var, rho, sigma_w2, sigma_s2)
        except pc.RankDeficientError as err:
            run = err.full
            if not run.any():
                continue                            # none beats -inf
            built = _build(build, g_hat[run], err_var[run], rho, sigma_w2, sigma_s2)
        if bound is not None:
            lo, hi = (np.asarray(x, dtype=float) for x in bound(built.precoder, built.coeffs))
            hi = np.where(np.isnan(lo) | np.isnan(hi), np.inf, hi)
            floor = np.maximum(best, np.where(np.isnan(lo), -np.inf, lo).max(axis=-1))
            live = (hi >= floor[:, None]).any(axis=0)
            certified -= (live.size - int(np.count_nonzero(live))) * points
            if not live.any():
                continue
            built = built.take((slice(None), live))
            run[run] = live
        scores = np.full((points, len(masks)), -np.inf)
        scores[:, run] = run_chain(built, scheme, sigma_s2).metrics.min_sinr
        best, better, columns = sel.first_maxima(best, scores)
        masks_won[better] = masks[columns]
    if not np.all(best > -np.inf):
        raise np.linalg.LinAlgError(
            "exhaustive selection has no candidate mask that keeps the channel "
            "full-rank with a finite minimum SINR")
    candidates = sel.es_candidate_count(cfg.num_aps, cfg.num_users, cfg.selected_aps)
    return (masks_won if np.ndim(rho_f) else masks_won[0]), candidates * points, certified


@dataclass(frozen=True)
class _Selector:
    # (scheme, realization, cfg, rho_f) -> (mask array, es_candidates, es_certified)
    select: Callable
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
            np.ones((cfg.total_antennas, cfg.num_users)), 0, 0)),
        "LS": _Selector(lambda scheme, realization, cfg, *_: (
            sel.ls_aps(realization.beta, cfg.selected_aps, cfg.antennas_per_ap), 0, 0)),
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
class PipelineResult(_Items):
    precoder: pc.PrecoderOutput
    n_first: pa.AllocationResult
    n_final: pa.AllocationResult
    metrics: mt.LinkMetrics
    trace: dict
    # (M, K) selection the chain ran on; (S, M, K) on a grid, stride 0 along
    # the points for NS and LS; None from ``run_chain``, which reads only a build
    mask: Optional[np.ndarray] = None


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
        """The build at the item axes ``items``, every per-item array
        read-only: a stride-0 view of each along each of them that it lacks,
        and the array itself, frozen, where it lacks none. A build none of
        whose arrays lacks one, as an MMSE build outside an ES chunk, comes
        back as itself."""
        items = tuple(items)
        def to(core, x):
            have = np.shape(x)
            shape = items + have[len(have) - core:]
            return _read_only(x)[0] if have == shape else np.broadcast_to(x, shape)
        return _map_items(to, self)

    @staticmethod
    def stack(builds, reform: bool) -> "Build":
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


def run_chain(built: Build, scheme: Scheme, sigma_s2: float) -> PipelineResult:
    """The allocate stage of ``scheme``'s chain on ``built``, its ``Build``
    (``_build``), which is all it reads: allocate, and where that changes
    the result (see the module docstring) re-form and allocate again. The
    re-form (``pc.reform``) divides column i of P by ``n_i``, and ``psi_i``
    and column i of ``phi`` and ``gamma`` by ``eta_i``. Every array of the
    result has the build's item axes. OPA and APA run at their module's
    constants (``pa.OPA_ITERATIONS``, ``pa.OPA_TOL``, ``pa.APA_STEP``,
    ``pa.APA_ITERATIONS``)."""
    allocator = SCHEMES["allocation"][scheme.allocation]
    prec, coeffs = built.precoder, built.coeffs
    t1 = time.perf_counter()
    solves = [allocator.solve(prec, coeffs, sigma_s2)]
    t2 = time.perf_counter()
    seconds = {"precoder": built.seconds, "allocation": t2 - t1}
    if allocator.adaptive:
        prec, coeffs = pc.reform(prec, coeffs, solves[0].eta)
        t3 = time.perf_counter()
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
    return PipelineResult(precoder=prec, n_first=solves[0], n_final=solves[-1],
                          metrics=metrics, trace=trace)


def _snr_linear(snr_db) -> np.ndarray:
    """Linear SNR of one point or of a grid, each point converted in Python
    floats, so that a grid point rounds as it does on its own."""
    grid = np.asarray(snr_db, dtype=float)
    return np.array([10.0 ** (snr / 10.0) for snr in grid.ravel().tolist()]
                    ).reshape(grid.shape)


def _stack(arrays, ndim):
    """``arrays``, which share one shape once each is given leading length-1
    axes up to ``ndim`` axes, stacked along a new leading axis. A lone array
    is a view, not a copy, and an axis along which every array repeats one
    value (stride 0, as ``np.broadcast_to`` makes) stays a stride-0 view of
    that value."""
    arrays = [a if a.ndim == ndim else a.reshape((1,) * (ndim - a.ndim) + a.shape)
              for a in map(np.asarray, arrays)]
    if len(arrays) == 1:
        return arrays[0][None]
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
              ber: Optional[SolverParams] = None) -> list:
    """The (scheme, SNR) cells of ``schemes`` on a trial's draw, one
    ``PipelineResult`` per scheme, in order, each computing every quantity
    once (see the module docstring). A selection's masked estimate and error
    variance go to its builds and to BER; an allocate stage reads only its
    builds, APA's re-form included.

    ``snr_db`` is one SNR point, or a grid ``(S,)``: every array of a cell
    then has a leading grid axis, and each item, ``take(i)``, equals its own
    point's cell. NS and LS share one mask over the grid, stride 0 along
    it; an ES search finds every point's mask (see ``_es``). Every distinct
    chain is one item of one ``ber_qpsk`` call on the restarted symbol and
    noise streams, so each item sees the bits and noise it would see on its
    own; the call takes the chains' precoders and estimates as a sequence
    and stacks only their K x K links, never the ``(S, M, K)`` precoders.
    ``ber`` gives its packet shape, and None measures no BER. Twins share
    their chain's result objects. Shared arrays are read-only: a selection's
    as it is made, and a build's as ``_build`` shapes it
    (``Build.broadcast_to``).

    ``trace`` of a cell: its solver counts and its allocate stage's seconds
    (``trace["seconds"]["allocation"]``, and APA's re-form under
    ``"precoder"``) are those of its stage, a ``run_chain`` on
    ``Build.stack`` of every build of its allocation: the cells of one
    allocation share one stage's ``allocation_iterations``,
    ``allocation_tests`` and seconds. The channel draw's seconds
    (``"channel"``), a selection's (``"selection"``, an ES search's whole
    time) and a ``Build``'s (under ``"precoder"``; a stack's are 0) count
    only in the first cell that used them. ``es_candidates`` and
    ``es_certified`` are an ES search's counts (see ``_es``), and 0 for NS
    and LS. The BER seconds
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
    # selections: per place, an NS or LS selection or an ES chain's key,
    # (mask, masked estimate, masked error variance, ES's two counts);
    # builds: per (place, precoder build), its Build; chains: per chain key,
    # its build's key
    selections, builds, chains = {}, {}, {}
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
            mask, *counts = selector.select(scheme, realization, cfg, rho_f)
            # the cell's mask carries its points: stride 0 along them for NS and LS
            selections[place] = (np.broadcast_to(mask, np.shape(rho_f) + mask.shape[-2:]),
                                 *_read_only(*sel.apply_mask(mask, realization)), counts)
            made["selection"] = time.perf_counter() - t
        build_key = chains[key] = place, key[1]
        if build_key not in builds:
            _, g_hat, err_var, _ = selections[place]
            builds[build_key] = _build(key[1], g_hat, err_var, rho_f, sigma_w2, sigma_s2)
            made["precoder"] = builds[build_key].seconds
        stacks.setdefault(scheme.allocation, []).append(scheme)

    ran = {}        # per chain key, its result
    for stacked in stacks.values():
        keys = [_chain_key(scheme) for scheme in stacked]
        reform = SCHEMES["allocation"][stacked[0].allocation].adaptive
        stage = run_chain(Build.stack([builds[chains[key]] for key in keys], reform),
                          stacked[0], sigma_s2)
        if not reform:              # the stage stacked only the loads: each
            stage.precoder = None   # cell's precoder is its build's, not a take
        for i, key in enumerate(keys):
            ran[key] = stage.take(i)
            if not reform:
                ran[key].precoder = builds[chains[key]].precoder

    ber_seconds, degenerate = 0.0, None
    if ber is not None and ran:
        t = time.perf_counter()
        p, n_diag, g_hat = zip(*((chain.precoder.p, chain.n_final.n_diag,
                                  selections[chains[key][0]][1])
                                 for key, chain in ran.items()))
        links, degenerate = mt.ber_qpsk(
            p, _stack(n_diag, ndim + 1), realization.g, g_hat, rho_f, sigma_w2,
            ber.symbols_per_packet, _stream(draw.seed, draw.trial, "symbols"),
            packets=ber.packets_per_trial, noise_rng=_stream(draw.seed, draw.trial, "noise"))
        for chain, link in zip(ran.values(), links):
            chain.metrics.ber = link
        ber_seconds = time.perf_counter() - t

    results = []
    for key, made in cells:
        chain = ran[key]
        mask, _, _, (candidates, certified) = selections[chains[key][0]]
        ran_seconds = chain.trace["seconds"]
        trace = {"es_candidates": candidates, "es_certified": certified, **chain.trace,
                 "seconds": {**made, "precoder": ran_seconds["precoder"] + made["precoder"],
                             "allocation": ran_seconds["allocation"], "ber": ber_seconds}}
        if ber is not None:
            trace["ber_degenerate_gains"] = degenerate
        results.append(replace(chain, trace=trace, mask=mask))
    return results


def run_cell(draw: TrialDraw, scheme: Scheme, snr_db,
             ber: Optional[SolverParams] = None) -> PipelineResult:
    """One (scheme, SNR) cell of a trial on the trial's draw: ``run_cells``
    of one scheme."""
    return run_cells(draw, [scheme], snr_db, ber)[0]


def run_trial(cfg: ch.SystemConfig, scheme: Scheme, snr_db: float, trial: int,
              ber: Optional[SolverParams] = None,
              seed: Optional[int] = None) -> PipelineResult:
    """One Monte-Carlo trial of the full chain at a given SNR grid point:
    ``run_cell`` on a fresh draw of ``seed``, by default ``cfg.rng_seed``."""
    if seed is None:
        seed = cfg.rng_seed
    return run_cell(TrialDraw(cfg, trial, seed), scheme, snr_db, ber)


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


def _point_cell(draw, scheme, snr, axis_name, axis_value, ber=None):
    """``run_cell``, its draw-dependent failures named at ``axis_value``."""
    try:
        return run_cell(draw, scheme, snr, ber)
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


def _samples(groups, num_schemes, trial, ber, cells_of):
    """``(fields, schemes, points)`` samples of one trial: one draw per
    group, of ``cfg.rng_seed``, and ``cells_of(draw, values, snrs)``, each
    scheme's ``PipelineResult`` over the group's points, in scheme order."""
    points = sum(len(values) for values, _, _ in groups)
    samples = np.empty((2 if ber is None else 3, num_schemes, points))
    draw = None
    start = 0
    for values, cfg, snrs in groups:
        draw = TrialDraw(cfg, trial, cfg.rng_seed) if draw is None else draw.at(cfg)
        cells = slice(start, start + len(values))
        for s, cell in enumerate(cells_of(draw, values, snrs)):
            samples[0, s, cells] = cell.metrics.sum_rate
            samples[1, s, cells] = 10.0 * np.log10(cell.metrics.min_sinr)
            if ber is not None:
                samples[2, s, cells] = cell.metrics.ber
        start = cells.stop
    return samples


def _trial_samples(groups, schemes, trial, ber, axis):
    """Trial ``trial``'s samples, ``(fields, schemes, points)``: the sum
    rate, the minimum SINR in dB and, with BER, the BER of each cell. One
    draw and one ``run_cells`` per group, over the group's SNR list. If any
    of it fails on the draw, the trial runs again one cell at a time, every
    point a group of its own, which raises the ``TrialError`` of the first
    failing cell in (point, scheme) order."""
    try:
        return _samples(groups, len(schemes), trial, ber,
                        lambda draw, _, snrs: run_cells(draw, schemes, snrs, ber))
    except (ArithmeticError, ValueError):     # LinAlgError is a ValueError
        pass
    singles = [([value], cfg, [snr]) for values, cfg, snrs in groups
               for value, snr in zip(values, snrs)]
    return _samples(singles, len(schemes), trial, ber,
                    lambda draw, values, snrs: [
                        _point_cell(draw, scheme, snrs, axis, values[0], ber)
                        for scheme in schemes])


def run_sweep(cfg: ch.SystemConfig, schemes: Sequence[Scheme], axis: str,
              trials: int, ber: Optional[SolverParams] = None, axis_values=None):
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
    time, to find that cell. Missing or malformed ``axis_values``, a
    ``trials`` that is not an integer of at least 1, and an ES scheme over
    ``sel.ES_BUDGET`` candidates at any axis point (``sel.check_es_budget``),
    raise ``ValueError`` before the first trial. Every trial draws from
    ``cfg.rng_seed``. ``ber``, BER's packet shape, adds each row's BER.
    """
    groups = _axis_points(cfg, axis, axis_values)
    _preflight(schemes, [c for _, c, _ in groups], trials)
    # (field, scheme, point, trial)
    means, ses = _trial_stats(np.stack([
        _trial_samples(groups, schemes, t, ber, axis)
        for t in range(trials)], axis=-1))
    values = [value for group_values, _, _ in groups for value in group_values]
    rows = []
    for s, scheme in enumerate(schemes):
        for p, value in enumerate(values):
            ber_mean, ber_se = ((float(means[2, s, p]), float(ses[2, s, p]))
                                if ber is not None else (None, None))
            rows.append(SweepRow(scheme=scheme.label, axis_name=axis,
                                 axis_value=value, sum_rate_mean=float(means[0, s, p]),
                                 sum_rate_se=float(ses[0, s, p]),
                                 min_sinr_db_mean=float(means[1, s, p]),
                                 min_sinr_db_se=float(ses[1, s, p]), ber_mean=ber_mean,
                                 ber_se=ber_se, trials=int(trials), seed=int(cfg.rng_seed)))
    return rows


@dataclass(frozen=True)
class LearningCurveRow:
    iteration: int
    cost_mean: float
    cost_se: float
    trials: int
    seed: int


def run_learning_curve(cfg: ch.SystemConfig, scheme: Scheme, trials: int):
    """Per-iteration adaptive-allocation cost, averaged over trials drawn
    from ``cfg.rng_seed``.

    Uses the first allocation pass (identity-allocation precoder), which is
    where the gradient solver starts from scratch.
    """
    if not SCHEMES["allocation"][scheme.allocation].adaptive:
        raise ValueError("learning curves require an allocation that records its cost: "
                         + ", ".join(n for n, a in SCHEMES["allocation"].items()
                                     if a.adaptive))
    _preflight([scheme], [cfg], trials)
    snr = float(cfg.snr_grid_db[0])
    costs = [_point_cell(TrialDraw(cfg, t, cfg.rng_seed), scheme, snr, "snr_grid",
                         snr).n_first.cost_trace for t in range(trials)]
    means, ses = _trial_stats(np.stack(costs, axis=-1))      # (iterations + 1, trials)
    return [LearningCurveRow(iteration=i, cost_mean=float(mean), cost_se=float(se),
                             trials=int(trials), seed=int(cfg.rng_seed))
            for i, (mean, se) in enumerate(zip(means, ses))]
