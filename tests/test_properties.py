"""Properties of exhaustive selection, at one SNR point and over a grid, of
the stacked SNR-grid chain, of the shared MMSE build, of the MMSE build
against a dense ridge solve, of the ``Build`` value's stack and take and of
stacked BER measurement, over random small configurations."""

import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

from cellfree import pipeline, selection
from cellfree.channel import MIN_CSI_QUALITY, SystemConfig
from cellfree.metrics import ber_qpsk, sinr_coefficients, snr_to_rho_f
from cellfree.pipeline import (SCHEMES, Build, Scheme, SolverParams, TrialDraw, run_cell,
                               run_cells, run_chain, run_trial)
from cellfree.power_allocation import CONSTRAINT_TOL, OPA_ITERATIONS, OPA_TOL, _bracket, upa
from cellfree.precoding import RankDeficientError, cb_precoder, mmse_precoder, zf_precoder
from cellfree.presets import PRESETS
from cellfree.selection import ls_aps
from reference import mask_from_choices, zf_full_rank

# candidates of the reference loop per example, to bound the test's run time
MAX_CANDIDATES = 36
# every (precoder, allocation) pair the scheme table accepts
PAIRS = [(p, a) for p in SCHEMES["precoder"]
         for a, allocator in SCHEMES["allocation"].items() if allocator.accepts(p)]


@st.composite
def es_cases(draw):
    """A small config with fewer APs selected than there are, so that ES has
    at least three candidates and LS masks the channel; at most
    ``MAX_CANDIDATES``, which caps the users at 3 with 3 APs and at 2 with
    4 to 6."""
    num_aps = draw(st.integers(3, 6))
    antennas = draw(st.integers(1, 2))
    num_users = draw(st.integers(1, min(3 if num_aps == 3 else 2, num_aps * antennas - 1)))
    selected = draw(st.sampled_from(
        [s for s in range(1, num_aps)
         if math.comb(num_aps, s) ** num_users <= MAX_CANDIDATES]))
    cfg = dataclasses.replace(
        SystemConfig(), num_aps=num_aps, antennas_per_ap=antennas, num_users=num_users,
        selected_aps=selected, csi_quality=draw(st.floats(MIN_CSI_QUALITY, 1.0)))
    scheme = Scheme(*draw(st.sampled_from(PAIRS)), "ES")
    snr = draw(st.floats(-30.0, 40.0))
    return cfg.validate(), scheme, snr, draw(st.integers(0, 10 ** 6))


def reference_winner(cfg, scheme, snr, trial):
    """First strict maximum of the 2-D chain over ``itertools.product``; a
    candidate that leaves ZF rank-deficient scores -inf, any other error
    propagates. None when no candidate scores above -inf."""
    real = TrialDraw(cfg, trial, cfg.rng_seed).realization
    sigma_w2 = cfg.noise_variance_w()
    rho_f = snr_to_rho_f(10.0 ** (snr / 10.0), real.g_hat, sigma_w2)
    best, best_score = None, -np.inf
    for choices in itertools.product(
            itertools.combinations(range(cfg.num_aps), cfg.selected_aps),
            repeat=cfg.num_users):
        mask = mask_from_choices(choices, cfg.num_aps, cfg.antennas_per_ap)
        g_hat, err_var = selection.apply_mask(mask, real)
        try:
            score = run_chain(g_hat, err_var, scheme, rho_f, sigma_w2,
                              cfg.symbol_power).metrics.min_sinr
        except RankDeficientError:
            continue
        if score > best_score:
            best, best_score = mask, score
    return best


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(es_cases())
def test_exhaustive_selection_is_the_loop_winner_and_never_loses_to_ranking(case):
    cfg, scheme, snr, trial = case
    want = reference_winner(cfg, scheme, snr, trial)
    if want is None:
        with pytest.raises(np.linalg.LinAlgError, match="full-rank"):
            run_trial(cfg, scheme, snr, trial)
        return
    es = run_trial(cfg, scheme, snr, trial)
    assert np.array_equal(es.mask, want)
    try:
        ls = run_trial(cfg, dataclasses.replace(scheme, selection="LS"), snr, trial)
    except RankDeficientError:
        # the LS mask is one of the candidates, and a rank-deficient one
        return
    assert es.metrics.min_sinr >= ls.metrics.min_sinr * (1.0 - 1e-9)


@st.composite
def es_grid_cases(draw):
    cfg, scheme, _, trial = draw(es_cases())
    snrs = draw(st.lists(st.floats(-90.0, 60.0), min_size=1, max_size=4))
    return cfg, scheme, snrs, trial


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(es_grid_cases())
def test_an_es_grid_cell_equals_its_per_point_cells_bitwise(case):
    """One search scores every point of the grid; each point's mask and
    chain must be those of its own cell, and a grid cell fails exactly
    when one of its points does."""
    cfg, scheme, snrs, trial = case
    points = []
    for snr in snrs:
        try:
            points.append(run_cell(TrialDraw(cfg, trial, cfg.rng_seed), scheme, snr))
        except np.linalg.LinAlgError as err:
            with pytest.raises(np.linalg.LinAlgError, match=re.escape(str(err))):
                run_cell(TrialDraw(cfg, trial, cfg.rng_seed), scheme, snrs)
            return
    grid = run_cell(TrialDraw(cfg, trial, cfg.rng_seed), scheme, snrs)
    assert grid.mask.shape == (len(snrs),) + points[0].mask.shape
    assert grid.trace["es_candidates"] == points[0].trace["es_candidates"] * len(snrs)
    for i, point in enumerate(points):
        assert np.array_equal(grid.mask[i], point.mask)
        assert np.array_equal(grid.precoder.p[i], point.precoder.p)
        assert np.array_equal(grid.n_final.eta[i], point.n_final.eta)
        for name in ("per_user_sinr", "sum_rate", "min_sinr"):
            assert np.array_equal(getattr(grid.metrics, name)[i],
                                  getattr(point.metrics, name)), (scheme.label, name)


def es_cell(cfg, scheme, snrs, trial):
    """A grid cell's masks, minimum SINRs and trace, or its error's text."""
    try:
        res = run_cell(TrialDraw(cfg, trial, cfg.rng_seed), scheme, snrs)
    except (ArithmeticError, ValueError) as err:
        return f"{type(err).__name__}: {err}"
    return res.mask, res.metrics.min_sinr, res.trace


def assert_the_screen_changes_nothing(cfg, scheme, snrs, trial):
    """With the screen and without it (OPA with no bound, which scores every
    candidate on the chain), one chunk and a chunk that splits the
    candidates give bitwise-equal masks and minimum SINRs, or the same
    error."""
    total = selection.es_candidate_count(cfg.num_aps, cfg.num_users, cfg.selected_aps)
    split = len(snrs) * cfg.total_antennas * cfg.num_users * max(1, total // 3)
    unbounded = dataclasses.replace(SCHEMES["allocation"]["OPA"], bound=None)
    for entries in (selection.ES_CHUNK_ENTRIES, split):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(selection, "ES_CHUNK_ENTRIES", entries)
            screened = es_cell(cfg, scheme, snrs, trial)
            patch.setitem(SCHEMES["allocation"], "OPA", unbounded)
            exhaustive = es_cell(cfg, scheme, snrs, trial)
        if isinstance(exhaustive, str):
            assert screened == exhaustive, (scheme.label, snrs, trial)
            continue
        assert np.array_equal(screened[0], exhaustive[0]), (scheme.label, snrs, trial)
        assert np.array_equal(screened[1], exhaustive[1]), (scheme.label, snrs, trial)
        assert screened[2]["es_certified"] <= exhaustive[2]["es_certified"]
        assert exhaustive[2]["es_certified"] >= exhaustive[2]["es_candidates"]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(es_grid_cases())
def test_the_es_screen_picks_the_winners_of_the_exact_search(case):
    assert_the_screen_changes_nothing(*case)


def test_the_es_screen_picks_the_exact_winners_of_every_scheme():
    cfg = PRESETS["fig-tiny-opa"].resolve_config(SystemConfig())
    for pair in PAIRS:
        for trial in (3, 4):
            assert_the_screen_changes_nothing(cfg, Scheme(*pair, "ES"),
                                              list(cfg.snr_grid_db), trial)
    # one AP per user at 200 dB and up: the ridge is below the rounding of
    # the candidates that give both users one AP, so their MMSE build takes
    # the pseudo-inverse limit, and every cell completes, screened or not
    one_ap = dataclasses.replace(cfg, selected_aps=1).validate()
    for pair in PAIRS:
        if pair[0] == "MMSE":
            assert_the_screen_changes_nothing(one_ap, Scheme(*pair, "ES"),
                                              [0.0, 200.0, 1000.0], 0)
            cell = es_cell(one_ap, Scheme(*pair, "ES"), [200.0], 0)
            assert not isinstance(cell, str), cell
            assert np.isfinite(cell[1]).all() and (cell[1] > 0).all()


@st.composite
def mmse_stacks(draw):
    """A (B, M, K) stack of channels over a wide range of scales, half of
    them masked at random, so that a Gram matrix may be singular, with
    (S, B) ridges from 1e-3 to 10 times each channel's trace, so that the
    dense solve is accurate, and (S, 1) power scales."""
    m, k = draw(st.integers(1, 12)), draw(st.integers(1, 6))
    s, b = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    g = rng.standard_normal((b, m, k)) + 1j * rng.standard_normal((b, m, k))
    if draw(st.booleans()):
        g = g * (rng.random((b, m, k)) < draw(st.floats(0.2, 1.0)))
        g[:, 0, 0] += 1.0                               # no channel all zero
    g = g * 10.0 ** draw(st.floats(-5.0, 5.0))
    rel_ridge = 10.0 ** rng.uniform(-3.0, 1.0, size=(s, b))
    return g, rel_ridge, rng.uniform(0.1, 10.0, size=(s, 1))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(mmse_stacks())
def test_the_mmse_build_agrees_with_a_dense_ridge_solve(case):
    g, rel_ridge, rho_f = case
    k = g.shape[-1]
    sigma_w2 = 0.5
    e_tr = k * sigma_w2 / (rel_ridge * np.linalg.norm(g, axis=(-2, -1)) ** 2)
    got = mmse_precoder(g, None, e_tr, rho_f, sigma_w2)
    for i, j in np.ndindex(e_tr.shape):
        eps = k * sigma_w2 / e_tr[i, j]
        gram = g[j].T @ g[j].conj() + eps * np.eye(k)
        p_tilde = cho_solve(cho_factor(gram, lower=True), g[j].T).conj().T
        want_f = np.sqrt(e_tr[i, j] / np.linalg.norm(p_tilde) ** 2)
        want_p = want_f / np.sqrt(rho_f[i, 0]) * p_tilde
        assert np.linalg.norm(got.p[i, j] - want_p) <= 1e-12 * np.linalg.norm(want_p)
        assert abs(got.f[i, j] - want_f) <= 1e-12 * want_f


@st.composite
def grid_cases(draw):
    num_aps = draw(st.integers(2, 8))
    antennas = draw(st.integers(1, 2))
    cfg = dataclasses.replace(
        SystemConfig(), num_aps=num_aps, antennas_per_ap=antennas,
        num_users=draw(st.integers(1, min(4, num_aps * antennas - 1))),
        selected_aps=draw(st.integers(1, num_aps)),
        csi_quality=draw(st.floats(MIN_CSI_QUALITY, 1.0)))
    snrs = draw(st.lists(st.floats(-90.0, 60.0), min_size=1, max_size=5))
    return (cfg.validate(), draw(st.sampled_from(["NS", "LS"])), snrs,
            draw(st.integers(0, 10 ** 6)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(grid_cases())
def test_a_stacked_snr_grid_chain_equals_its_per_point_chains_bitwise(case):
    """Every (precoder, allocation) pair on one random draw and mask. APA
    also ends with its peak antenna load at the cap."""
    cfg, selected, snrs, trial = case
    real = TrialDraw(cfg, trial, cfg.rng_seed).realization
    mask = (ls_aps(real.beta, cfg.selected_aps, cfg.antennas_per_ap)
            if selected == "LS" else np.ones(real.g_hat.shape))
    g_hat, err_var = selection.apply_mask(mask, real)
    sigma_w2 = cfg.noise_variance_w()
    rho = [snr_to_rho_f(10.0 ** (snr / 10.0), real.g_hat, sigma_w2) for snr in snrs]
    for pair in PAIRS:
        scheme = Scheme(*pair, selected)

        def chain(rho_f):
            return run_chain(g_hat, err_var, scheme, rho_f, sigma_w2, cfg.symbol_power)

        try:
            points = [chain(r) for r in rho]
        except (ArithmeticError, ValueError) as err:   # ZF on a rank-deficient mask
            with pytest.raises(type(err)):
                chain(np.array(rho))
            continue
        stacked = chain(np.array(rho))
        if scheme.allocation == "APA":
            peak = np.matvec(stacked.precoder.delta, stacked.n_final.eta).max(axis=-1)
            np.testing.assert_allclose(peak, 1.0, rtol=1e-9, atol=0.0)
        for i, point in enumerate(points):
            assert np.array_equal(stacked.precoder.p[i], point.precoder.p)
            assert stacked.precoder.f[i] == point.precoder.f
            for got, want in ((stacked.n_first, point.n_first),
                              (stacked.n_final, point.n_final)):
                assert np.array_equal(got.eta[i], want.eta)
                if want.achieved_t is not None:
                    assert got.achieved_t[i] == want.achieved_t
            for name in ("per_user_sinr", "per_user_rate", "sum_rate", "min_sinr"):
                assert np.array_equal(getattr(stacked.metrics, name)[i],
                                      getattr(point.metrics, name)), (scheme.label, name)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(grid_cases())
def test_mmse_conv_equals_mmse_under_every_allocation_it_takes(case):
    """MMSE and MMSE_CONV share one build function, and APA, the one
    allocation that re-forms, does not take MMSE_CONV, so their chains must
    agree bitwise wherever MMSE_CONV is accepted."""
    cfg, selected, snrs, trial = case
    allocations = [a for a, allocator in SCHEMES["allocation"].items()
                   if allocator.accepts("MMSE_CONV")]
    for allocation in allocations:
        mmse, conv = [run_cell(TrialDraw(cfg, trial, cfg.rng_seed),
                               Scheme(precoder, allocation, selected), snrs)
                      for precoder in ("MMSE", "MMSE_CONV")]
        assert np.array_equal(mmse.precoder.p, conv.precoder.p)
        assert np.array_equal(mmse.precoder.f, conv.precoder.f)
        assert np.array_equal(mmse.n_first.eta, conv.n_first.eta)
        assert np.array_equal(mmse.n_final.eta, conv.n_final.eta)
        assert mmse.trace["allocation_solves"] == conv.trace["allocation_solves"]
        for name in ("per_user_sinr", "sum_rate", "min_sinr"):
            assert np.array_equal(getattr(mmse.metrics, name), getattr(conv.metrics, name))


# every scheme the table accepts, and the twin that shares each MMSE one's build
ALL_SCHEMES = [Scheme(*pair, selected) for pair in PAIRS for selected in SCHEMES["selection"]]
TWINS = {s: Scheme({"MMSE": "MMSE_CONV", "MMSE_CONV": "MMSE"}[s.precoder], s.allocation,
                   s.selection)
         for s in ALL_SCHEMES if s.precoder in ("MMSE", "MMSE_CONV")
         and SCHEMES["allocation"][s.allocation].accepts("MMSE_CONV")}


@st.composite
def cells_cases(draw):
    """A small config whose ES search is affordable; a list of schemes: one
    (precoder, allocation) pair on NS, LS and ES, so that an allocate stage
    stacks two chains, some more of the accepted schemes, and repeats and
    twins of them, in any order; and one SNR point or a grid."""
    cfg, _, _, trial = draw(es_cases())
    pair = draw(st.sampled_from(PAIRS))
    schemes = [Scheme(*pair, selected) for selected in SCHEMES["selection"]]
    schemes += draw(st.lists(st.sampled_from(ALL_SCHEMES), max_size=3))
    twins = [TWINS[s] for s in schemes if s in TWINS]
    schemes += draw(st.lists(st.sampled_from(schemes + twins), max_size=3))
    snrs = draw(st.lists(st.floats(-90.0, 60.0), min_size=1, max_size=4))
    snr = snrs if draw(st.booleans()) else snrs[0]
    return cfg, draw(st.permutations(schemes)), snr, trial


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(cells_cases())
def test_run_cells_equals_each_scheme_on_a_fresh_draw_bitwise(case):
    """Every field of each cell of one ``run_cells`` call, BER included,
    equals that scheme's ``run_cell`` on a fresh draw, and the call fails
    exactly when one of those cells does."""
    cfg, schemes, snr, trial = case
    solver = SolverParams(symbols_per_packet=16)

    fresh = []
    for scheme in schemes:
        try:
            fresh.append(run_cell(TrialDraw(cfg, trial, cfg.rng_seed), scheme, snr, solver,
                                  with_ber=True))
        except (ArithmeticError, ValueError):         # LinAlgError is a ValueError
            with pytest.raises((ArithmeticError, ValueError)):
                run_cells(TrialDraw(cfg, trial, cfg.rng_seed), schemes, snr, solver,
                          with_ber=True)
            return
    got = run_cells(TrialDraw(cfg, trial, cfg.rng_seed), schemes, snr, solver, with_ber=True)
    assert len(got) == len(schemes)
    for scheme, cell, want in zip(schemes, got, fresh):
        label = (scheme.label, snr)
        assert np.array_equal(cell.mask, want.mask), label
        assert np.array_equal(cell.precoder.p, want.precoder.p), label
        for mine, theirs in ((cell.n_first, want.n_first), (cell.n_final, want.n_final)):
            for name in ("eta", "achieved_t", "cost_trace"):
                a, b = getattr(mine, name), getattr(theirs, name)
                assert (a is None and b is None) or np.array_equal(a, b), (label, name)
        for field in dataclasses.fields(want.metrics):
            assert np.array_equal(getattr(cell.metrics, field.name),
                                  getattr(want.metrics, field.name)), (label, field.name)


def build_arrays(build):
    """A ``Build``'s per-item arrays, by name."""
    return {name: getattr(part, name)
            for part, names in ((build.precoder, ("p", "f", "delta")),
                                (build.coeffs, ("psi", "phi", "gamma", "rho_f")))
            for name in names}


def the_builds(g_hat, err_var, rho_f, cfg):
    """The MMSE, ZF and CB builds of a channel or a stack at ``rho_f``, by
    precoder; ZF's only where every channel is full rank."""
    builds = {}
    for precoder in ("MMSE", "ZF", "CB"):
        try:
            builds[precoder] = pipeline._build(SCHEMES["precoder"][precoder], g_hat, err_var,
                                               rho_f, cfg.noise_variance_w(), cfg.symbol_power)
        except RankDeficientError:
            pass
    return builds


def assert_same_build(got, want):
    for name, array in build_arrays(want).items():
        assert np.shape(got[name]) == np.shape(array), name
        assert np.array_equal(got[name], array), name


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(grid_cases(), st.booleans(), st.data())
def test_a_stack_of_builds_takes_back_each_build_bitwise(case, grid, data):
    """``Build.stack`` of MMSE, ZF and CB builds on one draw and mask, at one
    SNR point or a grid, in any order and with repeats: ``take(i)`` is build
    i bitwise, an axis that is stride 0 in every build stays stride 0, and
    the stacked arrays are read-only. Without ``reform`` p and f are None."""
    cfg, selected, snrs, trial = case
    real = TrialDraw(cfg, trial, cfg.rng_seed).realization
    mask = (ls_aps(real.beta, cfg.selected_aps, cfg.antennas_per_ap)
            if selected == "LS" else np.ones(real.g_hat.shape))
    g_hat, err_var = selection.apply_mask(mask, real)
    rho_f = snr_to_rho_f(pipeline._snr_linear(snrs if grid else snrs[0]), real.g_hat,
                         cfg.noise_variance_w())
    every = the_builds(g_hat, err_var, rho_f, cfg)
    drawn = data.draw(st.lists(st.sampled_from(list(every.values())), min_size=1, max_size=4))
    # ZF's and CB's builds alone are stride 0 along a grid's points in every array
    fixed = [build for precoder, build in every.items() if precoder != "MMSE"] * 2
    for builds, reform in itertools.product((drawn, fixed), (True, False)):
        stacked = Build.stack(builds, reform)
        assert stacked.seconds == 0.0
        for name, array in build_arrays(stacked).items():
            if array is None:
                assert not reform and name in ("p", "f")
                continue
            assert not array.flags.writeable, name
            inputs = [build_arrays(build)[name] for build in builds]
            for axis in range(np.ndim(inputs[0])):
                if all(x.strides[axis] == 0 for x in inputs):
                    assert array.strides[axis + 1] == 0, (name, axis)
        for i, build in enumerate(builds):
            item = build_arrays(stacked.take(i))
            if not reform:
                item.update(p=build.precoder.p, f=build.precoder.f)
            assert_same_build(item, build)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(es_cases(), st.booleans(), st.integers(1, 6), st.data())
def test_an_es_chunks_take_equals_the_build_of_its_candidates_alone(case, grid, chunk, data):
    """An ES chunk's build, ``(S, B)`` items against ``rho_f`` of shape
    ``(S, 1)`` or ``(B,)`` at one point, cut to some of its candidates by
    ``take`` equals the build of those candidates' masks alone, bitwise,
    for MMSE, ZF and CB."""
    cfg, _, snr, trial = case
    real = TrialDraw(cfg, trial, cfg.rng_seed).realization
    rng = np.random.default_rng(trial)
    masks = np.stack([mask_from_choices(
        [rng.choice(cfg.num_aps, cfg.selected_aps, replace=False)
         for _ in range(cfg.num_users)], cfg.num_aps, cfg.antennas_per_ap)
        for _ in range(chunk)])
    columns = np.array(data.draw(st.lists(st.booleans(), min_size=chunk, max_size=chunk)))
    columns[data.draw(st.integers(0, chunk - 1))] = True
    snrs = [snr, snr + 10.0] if grid else snr
    rho_f = snr_to_rho_f(pipeline._snr_linear(snrs), real.g_hat, cfg.noise_variance_w())
    stack_rho = rho_f[:, None] if grid else rho_f
    g_hat, err_var = selection.apply_mask(masks, real)
    alone = the_builds(g_hat[columns], err_var[columns], stack_rho, cfg)
    cut = (slice(None),) * grid
    for precoder, build in the_builds(g_hat, err_var, stack_rho, cfg).items():
        assert_same_build(build_arrays(build.take(cut + (columns,))), alone[precoder])


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(grid_cases())
def test_every_allocation_keeps_the_caps_and_opa_dominates(case):
    """On one random draw and NS or LS mask, over a random SNR grid: every
    (precoder, allocation) pair keeps each antenna's load at most
    1 + CONSTRAINT_TOL and gives finite, nonnegative SINRs, and each
    precoder's OPA minimum SINR is at least its UPA's and APA's, less
    bisection's final bracket width ``max(OPA_TOL, t_hi 2^-OPA_ITERATIONS)``."""
    cfg, selected, snrs, trial = case
    real = TrialDraw(cfg, trial, cfg.rng_seed).realization
    mask = (ls_aps(real.beta, cfg.selected_aps, cfg.antennas_per_ap)
            if selected == "LS" else np.ones(real.g_hat.shape))
    g_hat, err_var = selection.apply_mask(mask, real)
    sigma_w2 = cfg.noise_variance_w()
    rho_f = snr_to_rho_f(10.0 ** (np.array(snrs) / 10.0), real.g_hat, sigma_w2)
    min_sinr, width = {}, {}
    for pair in PAIRS:
        try:
            res = run_chain(g_hat, err_var, Scheme(*pair, selected), rho_f, sigma_w2,
                            cfg.symbol_power)
        except RankDeficientError:              # ZF on a rank-deficient mask
            assert pair[0] == "ZF"
            continue
        peak = np.matvec(res.precoder.delta, res.n_final.eta).max(axis=-1)
        assert (peak <= 1.0 + CONSTRAINT_TOL).all(), (pair, peak)
        sinr = res.metrics.per_user_sinr
        assert (np.isfinite(sinr) & (sinr >= 0.0)).all(), (pair, sinr)
        min_sinr[pair] = res.metrics.min_sinr
        if pair[1] == "OPA":
            coeffs = sinr_coefficients(res.precoder.p, g_hat, err_var, rho_f, sigma_w2)
            _, _, t_hi = _bracket(coeffs, res.precoder.delta)
            width[pair[0]] = np.maximum(OPA_TOL, t_hi * 2.0 ** -OPA_ITERATIONS)
    for (precoder, allocation), sinr in min_sinr.items():
        if allocation != "OPA" and precoder in width:
            assert (min_sinr[precoder, "OPA"] >= sinr - width[precoder]).all(), \
                (precoder, allocation, snrs)


def reference_ber(p, n_diag, g, g_hat, rho_f, sigma_w2, symbols, rng, packets, noise_rng):
    """One link's BER as a float sum over per-packet error arrays, with a
    degenerate user's bits set to 0.5 errors each."""
    k = p.shape[1]
    gains = np.sqrt(rho_f) * np.einsum("mk,mk->k", g_hat, p) * n_diag
    degenerate = np.abs(gains) < 1e-12
    safe_gains = np.where(degenerate, 1.0, gains)
    total_bits, error_bits = 0, 0.0
    for _ in range(packets):
        bits = rng.integers(0, 2, size=(2, k, symbols))
        s = ((1.0 - 2.0 * bits[0]) + 1j * (1.0 - 2.0 * bits[1])) / np.sqrt(2.0)
        x = np.sqrt(rho_f) * (p * n_diag[None, :]) @ s
        w = np.sqrt(sigma_w2 / 2.0) * (noise_rng.standard_normal((k, symbols))
                                       + 1j * noise_rng.standard_normal((k, symbols)))
        s_hat = (g.T @ x + w) / safe_gains[:, None]
        wrong = np.empty((2, k, symbols))
        wrong[0] = (s_hat.real < 0) != (bits[0] == 1)
        wrong[1] = (s_hat.imag < 0) != (bits[1] == 1)
        wrong[:, degenerate, :] = 0.5
        total_bits += 2 * k * symbols
        error_bits += float(np.sum(wrong))
    return error_bits / total_bits, int(np.sum(degenerate))


def assert_ber_items_equal_their_2d_calls(p, n_diag, g, g_hat, rho_f, sigma_w2,
                                          symbols, packets):
    """Each item of a stacked ``ber_qpsk`` call equals its own 2-D call on
    fresh streams, and the reference loop, BER and degenerate count alike."""
    def streams():
        return np.random.default_rng([5, 1]), np.random.default_rng([5, 2])

    bits, noise = streams()
    ber, degenerate = ber_qpsk(p, n_diag, g, g_hat, rho_f, sigma_w2, symbols, bits,
                               packets=packets, noise_rng=noise)
    assert ber.shape == rho_f.shape
    g_hat = np.broadcast_to(g_hat, p.shape)
    count = 0
    for i in np.ndindex(rho_f.shape):
        bits, noise = streams()
        want, flagged = ber_qpsk(p[i], n_diag[i], g, g_hat[i], rho_f[i], sigma_w2, symbols,
                                 bits, packets=packets, noise_rng=noise)
        assert type(want) is float
        bits, noise = streams()
        assert (want, flagged) == reference_ber(p[i], n_diag[i], g, g_hat[i], rho_f[i],
                                                sigma_w2, symbols, bits, packets, noise)
        assert ber[i] == want
        count += flagged
    assert degenerate == count
    return count


def stacked_ber_link(cfg, trial, snrs, per_item_channels):
    """MMSE precoders and UPA at each SNR on one draw, its estimate shared
    by the items or, as exhaustive selection's winners have, one per item."""
    real = TrialDraw(cfg, trial, cfg.rng_seed).realization
    sigma_w2 = cfg.noise_variance_w()
    rho_f = snr_to_rho_f(10.0 ** (np.array(snrs) / 10.0), real.g_hat, sigma_w2)
    p = mmse_precoder(real.g_hat, np.ones(cfg.num_users), cfg.total_antennas * rho_f,
                      rho_f, sigma_w2).p
    g_hat = np.broadcast_to(real.g_hat, p.shape).copy() if per_item_channels else real.g_hat
    return p, upa(np.abs(p) ** 2).n_diag, real.g, g_hat, rho_f, sigma_w2


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(grid_cases(), st.booleans(), st.integers(1, 2), st.integers(1, 40))
def test_a_stacked_ber_call_equals_its_2d_calls_bitwise(case, per_item, packets, symbols):
    cfg, _, snrs, trial = case
    assert_ber_items_equal_their_2d_calls(*stacked_ber_link(cfg, trial, snrs, per_item),
                                          symbols, packets)


# run_cells' chains as the BER stage receives them: MMSE per point on one
# LS estimate, ZF and CB once for the grid (stride 0 along the points) on
# it, and MMSE on per-point estimates, as exhaustive selection's winners have
BER_CHAINS = ("MMSE+LS", "ZF+LS", "CB+LS", "MMSE+ES")


def per_chain_ber_links(cfg, trial, snrs, names):
    """Each chain of ``names`` as ``(p, n_diag, g_hat)``, with UPA, on one
    draw over the grid ``snrs``; a ZF chain on a rank-deficient estimate is
    left out. Also returns the true channel, ``rho_f (S,)`` and sigma_w2."""
    real = TrialDraw(cfg, trial, cfg.rng_seed).realization
    sigma_w2 = cfg.noise_variance_w()
    rho_f = snr_to_rho_f(10.0 ** (np.array(snrs) / 10.0), real.g_hat, sigma_w2)
    ls, _ = selection.apply_mask(ls_aps(real.beta, cfg.selected_aps, cfg.antennas_per_ap),
                                 real)
    # the points alternate between the LS estimate and the unmasked one
    per_point = np.stack([real.g_hat if i % 2 else ls for i in range(len(snrs))])
    chains = []
    for name in names:
        if name == "ZF+LS" and not zf_full_rank(ls):
            continue
        g_hat = per_point if name == "MMSE+ES" else ls
        if name.startswith("MMSE"):
            p = mmse_precoder(g_hat, np.ones(cfg.num_users), cfg.total_antennas * rho_f,
                              rho_f, sigma_w2).p
        else:
            p = np.broadcast_to((zf_precoder if name == "ZF+LS" else cb_precoder)(ls).p,
                                rho_f.shape + ls.shape)
        chains.append((p, upa(np.abs(p) ** 2).n_diag, g_hat))
    return chains, real.g, rho_f, sigma_w2


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(grid_cases(), st.lists(st.sampled_from(BER_CHAINS), min_size=1, max_size=4,
                              unique=True), st.integers(1, 2), st.integers(1, 40))
def test_a_ber_call_on_per_chain_stacks_equals_the_call_on_their_stack(
        case, names, packets, symbols):
    """``ber_qpsk`` on a sequence of per-chain precoder and estimate stacks
    equals the array call on their stack, and so each item its own 2-D
    call, bitwise; ZF's and CB's precoders are stride 0 along the points,
    beside MMSE's per-point ones, and an ES chain's per-point estimates
    ``(S, M, K)`` sit beside LS's one ``(M, K)``."""
    cfg, _, snrs, trial = case
    chains, g, rho_f, sigma_w2 = per_chain_ber_links(cfg, trial, snrs, names)
    if not chains:
        return
    p, n_diag, g_hat = zip(*chains)
    n_diag = np.stack(n_diag)

    def call(p, g_hat, rho_f):
        return ber_qpsk(p, n_diag, g, g_hat, rho_f, sigma_w2, symbols,
                        np.random.default_rng([5, 1]), packets=packets,
                        noise_rng=np.random.default_rng([5, 2]))

    ber, degenerate = call(p, g_hat, rho_f)
    # each chain's precoders and estimates at the items, (S,), then stacked
    stack, estimates = (np.stack([np.broadcast_to(x, rho_f.shape + x.shape[-2:]) for x in xs])
                        for xs in (p, g_hat))
    want, flagged = call(stack, estimates, rho_f)
    assert np.array_equal(ber, want) and degenerate == flagged
    assert flagged == assert_ber_items_equal_their_2d_calls(
        stack, n_diag, g, estimates, np.broadcast_to(rho_f, ber.shape), sigma_w2, symbols,
        packets)


def test_a_stacked_ber_call_counts_a_degenerate_item_as_its_2d_call_does():
    cfg = dataclasses.replace(SystemConfig(), num_aps=6, num_users=3,
                              selected_aps=3).validate()
    p, n_diag, g, g_hat, rho_f, sigma_w2 = stacked_ber_link(cfg, 4, [-90.0, 10.0, 60.0],
                                                            False)
    p = p.copy()
    p[1, :, 2] = 0.0                          # user 2 of item 1 has no gain
    assert assert_ber_items_equal_their_2d_calls(p, n_diag, g, g_hat, rho_f, sigma_w2,
                                                 16, packets=2) == 1


@pytest.mark.parametrize("per_item", [False, True])
@pytest.mark.parametrize("noiseless", [False, True])
def test_fig_ber_sized_links_in_a_two_axis_stack_equal_the_reference(per_item, noiseless):
    """96 x 8 links, as fig-ber measures them, stacked (2, 3) over its six SNRs;
    every item equals the explicit M-antenna reference, with and without noise."""
    preset = PRESETS["fig-ber"]
    cfg = dataclasses.replace(SystemConfig(), **preset.config).validate()
    p, n_diag, g, g_hat, rho_f, sigma_w2 = stacked_ber_link(cfg, 3, preset.config["snr_grid_db"],
                                                            per_item)
    assert p.shape == (6, 96, 8)
    p = p.reshape(2, 3, 96, 8).copy()
    p[1, 0, :, 5] = 0.0                       # user 5 of item (1, 0) has no gain
    n_diag, rho_f = n_diag.reshape(2, 3, 8), rho_f.reshape(2, 3)
    if per_item:
        g_hat = g_hat.reshape(2, 3, 96, 8)
    assert assert_ber_items_equal_their_2d_calls(p, n_diag, g, g_hat, rho_f,
                                                 0.0 if noiseless else sigma_w2,
                                                 preset.solver["symbols_per_packet"],
                                                 packets=3) == 1


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(grid_cases(), st.lists(st.floats(-90.0, 60.0), min_size=1, max_size=5),
       st.integers(0, 2 ** 32 - 1), st.booleans(), st.integers(1, 3), st.integers(1, 40))
def test_the_sign_slicer_equals_the_division_reference_over_the_snr_range(
        case, snrs, phase_seed, noiseless, packets, symbols):
    """Over SNRs of -90 to 60 dB, with each item's precoder columns turned by
    random phases so the gains carry arbitrary phase, every stacked item's
    BER and degenerate count equal ``reference_ber``'s, which divides the
    M-antenna signal by each gain, with noise and without."""
    cfg, _, _, trial = case
    p, n_diag, g, g_hat, rho_f, sigma_w2 = stacked_ber_link(cfg, trial, snrs, False)
    phases = np.random.default_rng(phase_seed).uniform(0.0, 2.0 * np.pi, n_diag.shape)
    p = p * np.exp(1j * phases)[..., None, :]
    assert_ber_items_equal_their_2d_calls(p, n_diag, g, g_hat, rho_f,
                                          0.0 if noiseless else sigma_w2, symbols, packets)
