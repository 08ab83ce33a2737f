import dataclasses

import numpy as np
import pytest

from cellfree.channel import SystemConfig, generate_realization
from cellfree.pipeline import Scheme, run_chain
from cellfree.selection import apply_mask, es_aps, full_mask, ls_aps


def small_realization(num_aps=6, antennas=1, users=3, n=0.9, seed=0):
    cfg = dataclasses.replace(SystemConfig(), num_aps=num_aps,
                              antennas_per_ap=antennas, num_users=users,
                              selected_aps=min(num_aps, 2),
                              csi_quality=n).validate()
    streams = [np.random.default_rng([seed, i]) for i in range(3)]
    return generate_realization(cfg, *streams)


# ---------------------------------------------------------------- gain-ranked

def test_ranking_single_antenna_example():
    beta = np.array([[3.0], [1.0], [2.0]])
    mask = ls_aps(beta, num_selected=2, antennas_per_ap=1)
    assert np.array_equal(mask.q[:, 0], [1, 0, 1])
    assert mask.selected == ((0, 2),)


def test_ranking_replicates_ap_blocks():
    beta = np.array([[5.0], [5.0], [9.0], [9.0], [1.0], [1.0]])
    mask = ls_aps(beta, num_selected=1, antennas_per_ap=2)
    assert np.array_equal(mask.q[:, 0], [0, 0, 1, 1, 0, 0])


def test_selecting_everything_gives_all_ones():
    beta = np.random.default_rng(0).uniform(size=(8, 3))
    mask = ls_aps(beta, num_selected=8, antennas_per_ap=1)
    assert np.all(mask.q == 1.0)


def test_column_sums_and_block_structure():
    rng = np.random.default_rng(1)
    for _ in range(10):
        l, n, k, s = 7, 3, 4, 4
        beta = np.repeat(rng.uniform(size=(l, k)), n, axis=0)
        mask = ls_aps(beta, s, n)
        assert np.all(mask.q.sum(axis=0) == s * n)
        for ap in range(l):
            block = mask.q[n * ap:n * (ap + 1), :]
            assert np.all(block == block[0])


def test_ranking_invariant_under_positive_rescaling():
    rng = np.random.default_rng(2)
    beta = rng.uniform(size=(9, 4))
    m1 = ls_aps(beta, 3, 1)
    m2 = ls_aps(beta * 173.25, 3, 1)
    assert np.array_equal(m1.q, m2.q)


# ------------------------------------------------------------------- masking

def test_all_ones_mask_preserves_everything_bitwise():
    real = small_realization()
    mask = full_mask(6, 1, 3)
    primed = apply_mask(mask, real)
    for name in ("beta", "alpha", "g", "g_hat", "g_tilde"):
        assert np.array_equal(getattr(primed, name), getattr(real, name))


def test_zero_column_blanks_that_user():
    real = small_realization()
    mask = full_mask(6, 1, 3)
    q = mask.q.copy()
    q[:, 1] = 0.0
    primed = apply_mask(dataclasses.replace(mask, q=q), real)
    assert np.all(primed.g_hat[:, 1] == 0)
    assert np.all(primed.beta[:, 1] == 0)
    assert not np.all(primed.g_hat[:, 0] == 0)


def test_masking_matches_elementwise_product_and_is_idempotent():
    real = small_realization(seed=5)
    rng = np.random.default_rng(9)
    q = np.repeat((rng.uniform(size=(6, 3)) > 0.4).astype(float), 1, axis=0)
    mask = dataclasses.replace(full_mask(6, 1, 3), q=q)
    primed = apply_mask(mask, real)
    assert np.array_equal(primed.g_hat, q * real.g_hat)
    assert np.array_equal(primed.g_tilde, q * real.g_tilde)
    twice = apply_mask(mask, primed)
    assert np.array_equal(twice.g_hat, primed.g_hat)
    # source untouched
    assert not np.array_equal(real.g_hat, primed.g_hat)


# --------------------------------------------------------- exhaustive search

def chain_evaluator(real, cfg, scheme=Scheme("MMSE", "UPA", "NS")):
    """Minimum SINR of the chain on one mask, or on each of a stack of masks."""
    sigma_w2 = cfg.noise_variance_w()
    rho_f = 1e-3
    e_tr = cfg.total_antennas * rho_f

    def evaluate(mask):
        primed = apply_mask(mask, real)
        out = run_chain(primed.g_hat, primed.error_variance, scheme, rho_f,
                        e_tr, sigma_w2, cfg.symbol_power)
        return out.metrics.min_sinr

    return evaluate


def test_single_candidate_when_everything_selected():
    cfg = dataclasses.replace(SystemConfig(), num_aps=4, num_users=2,
                              selected_aps=4, csi_quality=1.0).validate()
    streams = [np.random.default_rng([31, i]) for i in range(3)]
    real = generate_realization(cfg, *streams)
    calls = []
    base = chain_evaluator(real, cfg)

    def counting(mask):
        calls.append(mask)
        return base(mask)

    mask, score = es_aps(4, 2, 4, 1, counting)
    assert len(calls) == 1 and calls[0].q.shape == (1, 4, 2)
    assert np.all(mask.q == 1.0)
    assert score == base(full_mask(4, 1, 2))


def test_candidate_count_for_tiny_system():
    cfg = dataclasses.replace(SystemConfig(), num_aps=5, num_users=2,
                              selected_aps=3, csi_quality=0.99).validate()
    streams = [np.random.default_rng([37, i]) for i in range(3)]
    real = generate_realization(cfg, *streams)
    count = 0
    base = chain_evaluator(real, cfg)

    def counting(masks):
        nonlocal count
        count += masks.q.shape[0]
        return base(masks)

    es_aps(5, 2, 3, 1, counting)
    assert count == 100  # C(5,3)^2


def test_search_picks_the_strong_aps():
    # one AP with essentially no gain; the best pair must avoid it
    cfg = dataclasses.replace(SystemConfig(), num_aps=3, num_users=1,
                              selected_aps=2, csi_quality=1.0).validate()
    streams = [np.random.default_rng([43, i]) for i in range(3)]
    real = generate_realization(cfg, *streams)
    beta = np.array([[1.0], [1e-9], [0.8]])
    real = dataclasses.replace(real, beta=beta, alpha=beta,
                               g_hat=np.sqrt(beta) * (1 + 0j) * np.ones((3, 1)),
                               g_tilde=np.zeros((3, 1), complex),
                               g=np.sqrt(beta) * (1 + 0j) * np.ones((3, 1)))
    evaluate = chain_evaluator(real, cfg)
    mask, best = es_aps(3, 1, 2, 1, evaluate)
    assert mask.selected == ((0, 2),)
    # brute-force re-evaluation of every candidate confirms the choice
    import itertools
    rescored = []
    for aps in itertools.combinations(range(3), 2):
        q = np.zeros((3, 1))
        q[list(aps), 0] = 1.0
        rescored.append((evaluate(dataclasses.replace(mask, q=q,
                                                      selected=(aps,))), aps))
    assert max(rescored)[1] == (0, 2)
    assert np.isclose(max(rescored)[0], best)


def test_budget_refusal_reports_required_count():
    with pytest.raises(ValueError, match="100"):
        es_aps(5, 2, 3, 1, lambda m: 0.0, budget=99)
