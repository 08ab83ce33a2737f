"""Properties of exhaustive selection, at one SNR point and over a grid, and
of the stacked SNR-grid chain over random small configurations."""

import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellfree import selection
from cellfree.channel import MIN_CSI_QUALITY, SystemConfig
from cellfree.metrics import snr_to_rho_f
from cellfree.pipeline import (SCHEMES, Scheme, SolverParams, TrialDraw, run_cell, run_chain,
                               run_trial)
from cellfree.selection import ls_aps

# candidates of the reference loop per example, to bound the test's run time
MAX_CANDIDATES = 36
# every (precoder, allocation) pair the scheme table accepts
PAIRS = [(p, a) for p in SCHEMES["precoder"]
         for a, allocator in SCHEMES["allocation"].items() if allocator.accepts(p)]


@st.composite
def es_cases(draw):
    num_aps = draw(st.integers(3, 6))
    antennas = draw(st.integers(1, 2))
    num_users = draw(st.integers(1, min(3, num_aps * antennas - 1)))
    selected = draw(st.sampled_from(
        [s for s in range(1, num_aps + 1)
         if math.comb(num_aps, s) ** num_users <= MAX_CANDIDATES]))
    cfg = dataclasses.replace(
        SystemConfig(), num_aps=num_aps, antennas_per_ap=antennas, num_users=num_users,
        selected_aps=selected, csi_quality=draw(st.floats(MIN_CSI_QUALITY, 1.0)))
    scheme = Scheme(*draw(st.sampled_from(PAIRS)), "ES")
    snr = draw(st.floats(-30.0, 40.0))
    return cfg.validate(), scheme, snr, draw(st.integers(0, 10 ** 6))


def mask_from_choices(choices, num_aps, antennas_per_ap):
    """The (M, K) mask keeping the APs ``choices[k]`` for each user k."""
    q_ap = np.zeros((num_aps, len(choices)))
    for k, aps in enumerate(choices):
        q_ap[list(aps), k] = 1.0
    return np.repeat(q_ap, antennas_per_ap, axis=0)


def reference_winner(cfg, scheme, snr, trial, solver):
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
            score = run_chain(g_hat, err_var, scheme, rho_f, cfg.total_antennas * rho_f,
                              sigma_w2, cfg.symbol_power, solver).metrics.min_sinr
        except np.linalg.LinAlgError as err:
            if "rank-deficient" not in str(err):
                raise
            continue
        if score > best_score:
            best, best_score = mask, score
    return best


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(es_cases())
def test_exhaustive_selection_is_the_loop_winner_and_never_loses_to_ranking(case):
    cfg, scheme, snr, trial = case
    solver = SolverParams()
    want = reference_winner(cfg, scheme, snr, trial, solver)
    if want is None:
        with pytest.raises(np.linalg.LinAlgError, match="full-rank"):
            run_trial(cfg, scheme, snr, trial, solver)
        return
    es = run_trial(cfg, scheme, snr, trial, solver)
    assert np.array_equal(es.mask, want)
    try:
        ls = run_trial(cfg, dataclasses.replace(scheme, selection="LS"), snr, trial, solver)
    except np.linalg.LinAlgError as err:
        # the LS mask is one of the candidates, and a rank-deficient one
        assert "rank-deficient" in str(err)
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
    """Every (precoder, allocation) pair on one random draw and mask."""
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
            return run_chain(g_hat, err_var, scheme, rho_f, cfg.total_antennas * rho_f,
                             sigma_w2, cfg.symbol_power, SolverParams())

        try:
            points = [chain(r) for r in rho]
        except (ArithmeticError, ValueError) as err:   # ZF on a rank-deficient mask
            with pytest.raises(type(err)):
                chain(np.array(rho))
            continue
        stacked = chain(np.array(rho))
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
