"""Properties of exhaustive selection, at one SNR point and over a grid, of
the stacked SNR-grid chain, of the shared MMSE build and of stacked BER
measurement, over random small configurations."""

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
from cellfree.metrics import ber_qpsk, sinr_coefficients, snr_to_rho_f
from cellfree.pipeline import (SCHEMES, Scheme, SolverParams, TrialDraw, run_cell, run_chain,
                               run_trial)
from cellfree.power_allocation import CONSTRAINT_TOL, _bracket, upa
from cellfree.precoding import RankDeficientError, mmse_precoder
from cellfree.presets import PRESETS
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
            score = run_chain(g_hat, err_var, scheme, rho_f, sigma_w2, cfg.symbol_power,
                              solver).metrics.min_sinr
        except RankDeficientError:
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
    # one AP per user at 200 dB and up: the ridge is below rounding, so the
    # MMSE build's Cholesky test rejects the candidates that give both users
    # one AP, and a cell fails with the same error, screened or not
    one_ap = dataclasses.replace(cfg, selected_aps=1).validate()
    for pair in PAIRS:
        if pair[0] == "MMSE":
            assert_the_screen_changes_nothing(one_ap, Scheme(*pair, "ES"),
                                              [0.0, 200.0, 1000.0], 0)
            err = es_cell(one_ap, Scheme(*pair, "ES"), [200.0], 0)
            assert err.startswith("LinAlgError: the MMSE ridge system is not positive")
            assert "rank-deficient" not in err


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
            return run_chain(g_hat, err_var, scheme, rho_f, sigma_w2, cfg.symbol_power,
                             SolverParams())

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
    """The draw's build memo serves MMSE and MMSE_CONV from one build, and
    APA, the one allocation that re-forms, does not take MMSE_CONV, so their
    chains must agree bitwise wherever MMSE_CONV is accepted."""
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


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(grid_cases())
def test_every_allocation_keeps_the_caps_and_opa_dominates(case):
    """On one random draw and NS or LS mask, over a random SNR grid: every
    (precoder, allocation) pair keeps each antenna's load at most
    1 + CONSTRAINT_TOL and gives finite, nonnegative SINRs, and each
    precoder's OPA minimum SINR is at least its UPA's and APA's, less
    bisection's final bracket width ``max(opa_tol, t_hi 2^-iterations)``."""
    cfg, selected, snrs, trial = case
    real = TrialDraw(cfg, trial, cfg.rng_seed).realization
    mask = (ls_aps(real.beta, cfg.selected_aps, cfg.antennas_per_ap)
            if selected == "LS" else np.ones(real.g_hat.shape))
    g_hat, err_var = selection.apply_mask(mask, real)
    sigma_w2 = cfg.noise_variance_w()
    rho_f = snr_to_rho_f(10.0 ** (np.array(snrs) / 10.0), real.g_hat, sigma_w2)
    solver = SolverParams()
    min_sinr, width = {}, {}
    for pair in PAIRS:
        try:
            res = run_chain(g_hat, err_var, Scheme(*pair, selected), rho_f, sigma_w2,
                            cfg.symbol_power, solver)
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
            _, t_hi = _bracket(coeffs, res.precoder.delta)
            width[pair[0]] = np.maximum(solver.opa_tol, t_hi * 2.0 ** -solver.opa_iterations)
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
