"""Properties of exhaustive selection over random small configurations."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellfree import selection
from cellfree.channel import SystemConfig, generate_realization
from cellfree.metrics import snr_to_rho_f
from cellfree.pipeline import SCHEMES, Scheme, SolverParams, TrialStreams, run_chain, run_trial

# candidates of the reference loop per example, to bound the test's run time
MAX_CANDIDATES = 36


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
        selected_aps=selected, csi_quality=draw(st.floats(0.0, 1.0, exclude_min=True)))
    scheme = Scheme(draw(st.sampled_from(list(SCHEMES["precoder"]))),
                    draw(st.sampled_from(list(SCHEMES["allocation"]))), "ES")
    snr = draw(st.floats(-30.0, 40.0))
    return cfg.validate(), scheme, snr, draw(st.integers(0, 10 ** 6))


def reference_winner(cfg, scheme, snr, trial, solver):
    """First strict maximum of the 2-D chain over ``itertools.product``."""
    streams = TrialStreams.for_trial(cfg.rng_seed, trial)
    real = generate_realization(cfg, streams.topology, streams.shadowing, streams.fading)
    sigma_w2 = cfg.noise_variance_w()
    rho_f = snr_to_rho_f(10.0 ** (snr / 10.0), real.g_hat, sigma_w2)
    best, best_score = None, -np.inf
    for choices in itertools.product(
            itertools.combinations(range(cfg.num_aps), cfg.selected_aps),
            repeat=cfg.num_users):
        mask = selection._mask_from_ap_choices(choices, cfg.num_aps, cfg.antennas_per_ap)
        primed = selection.apply_mask(mask, real)
        score = run_chain(primed.g_hat, primed.error_variance, scheme, rho_f,
                          cfg.total_antennas * rho_f, sigma_w2, cfg.symbol_power,
                          solver).metrics.min_sinr
        if score > best_score:
            best, best_score = mask, score
    return best


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(es_cases())
def test_exhaustive_selection_is_the_loop_winner_and_never_loses_to_ranking(case):
    cfg, scheme, snr, trial = case
    solver = SolverParams()
    try:
        want = reference_winner(cfg, scheme, snr, trial, solver)
    except ValueError as err:
        # some candidate fails on this draw (rank-deficient ZF, diverging APA)
        with pytest.raises(type(err)):
            run_trial(cfg, scheme, snr, trial, solver)
        return
    es = run_trial(cfg, scheme, snr, trial, solver)
    assert es.mask.selected == want.selected
    ls = run_trial(cfg, dataclasses.replace(scheme, selection="LS"), snr, trial, solver)
    assert es.metrics.min_sinr >= ls.metrics.min_sinr * (1.0 - 1e-9)
