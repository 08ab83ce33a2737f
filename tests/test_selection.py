import dataclasses

import numpy as np
import pytest

from cellfree import selection
from cellfree.channel import SystemConfig, generate_realization
from cellfree.pipeline import Scheme, run_chain
from cellfree.selection import apply_mask, es_chunks, first_maxima, ls_aps
from reference import es_search, ls_reference


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
    assert np.array_equal(mask, [[1.0], [0.0], [1.0]])


def test_ranking_replicates_ap_blocks():
    beta = np.array([[5.0], [5.0], [9.0], [9.0], [1.0], [1.0]])
    mask = ls_aps(beta, num_selected=1, antennas_per_ap=2)
    assert np.array_equal(mask[:, 0], [0, 0, 1, 1, 0, 0])


def test_selecting_everything_gives_all_ones():
    beta = np.random.default_rng(0).uniform(size=(8, 3))
    mask = ls_aps(beta, num_selected=8, antennas_per_ap=1)
    assert mask.shape == (8, 3) and np.all(mask == 1.0)


def test_column_sums_and_block_structure():
    rng = np.random.default_rng(1)
    for _ in range(10):
        l, n, k, s = 7, 3, 4, 4
        beta = np.repeat(rng.uniform(size=(l, k)), n, axis=0)
        mask = ls_aps(beta, s, n)
        assert np.all(mask.sum(axis=0) == s * n)
        for ap in range(l):
            block = mask[n * ap:n * (ap + 1), :]
            assert np.all(block == block[0])


def test_ranking_invariant_under_positive_rescaling():
    rng = np.random.default_rng(2)
    beta = rng.uniform(size=(9, 4))
    m1 = ls_aps(beta, 3, 1)
    m2 = ls_aps(beta * 173.25, 3, 1)
    assert np.array_equal(m1, m2)


def test_ranking_equals_the_per_user_loop_when_aps_tie():
    rng = np.random.default_rng(3)
    for _ in range(50):
        l, n, k = (int(x) for x in rng.integers((2, 1, 1), (9, 4, 6)))
        # three gain levels, so most users see several APs with equal gains
        beta = np.repeat(rng.integers(1, 4, size=(l, k)) * 0.1, n, axis=0)
        for s in range(1, l + 1):
            assert np.array_equal(ls_aps(beta, s, n), ls_reference(beta, s, n))
    # and at the presets' sizes, with tied and with distinct gains
    for l, n in ((24, 4), (128, 1), (256, 1)):
        for tied in (True, False):
            gains = (rng.integers(1, 4, size=(l, 16)) * 0.1 if tied
                     else rng.uniform(size=(l, 16)))
            beta = np.repeat(gains, n, axis=0)
            for s in sorted({1, 2, l // 3, l // 2, l - 1, l, *rng.integers(1, l, 4)}):
                assert np.array_equal(ls_aps(beta, s, n), ls_reference(beta, s, n))


@pytest.mark.parametrize("bad", [0, -1, 9, 64])
def test_ranking_refuses_a_budget_outside_one_to_the_ap_count(bad):
    beta = np.repeat(np.random.default_rng(4).uniform(size=(8, 3)), 2, axis=0)
    with pytest.raises(ValueError, match=rf"\[1, 8\].*got {bad}"):
        ls_aps(beta, bad, 2)
    assert ls_aps(beta, 8, 2).sum() == 8 * 2 * 3


def test_ties_across_aps_go_to_the_lower_ap_index():
    gains = np.array([[3.0, 2.0],
                      [1.0, 2.0],
                      [3.0, 2.0],
                      [3.0, 5.0]])
    # user 0: APs 0, 2 and 3 tie for two places; user 1: AP 3 leads and
    # APs 0, 1 and 2 tie for the second place
    want = np.array([[1.0, 1.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mask = ls_aps(np.repeat(gains, 2, axis=0), 2, 2)
    assert np.array_equal(mask, np.repeat(want, 2, axis=0))
    assert np.array_equal(ls_aps(np.ones((4, 3)), 1, 1)[0], [1.0, 1.0, 1.0])


# ------------------------------------------------------------------- masking

def test_all_ones_mask_preserves_everything_bitwise():
    real = small_realization()
    g_hat, err_var = apply_mask(np.ones((6, 3)), real)
    assert np.array_equal(g_hat, real.g_hat)
    assert np.array_equal(err_var, real.error_variance)


def test_zero_column_blanks_that_user():
    real = small_realization()
    q = np.ones((6, 3))
    q[:, 1] = 0.0
    g_hat, err_var = apply_mask(q, real)
    assert np.all(g_hat[:, 1] == 0)
    assert np.all(err_var[:, 1] == 0)
    assert not np.all(g_hat[:, 0] == 0)


def test_masking_matches_elementwise_product_and_is_idempotent():
    real = small_realization(seed=5)
    rng = np.random.default_rng(9)
    q = np.repeat((rng.uniform(size=(6, 3)) > 0.4).astype(float), 1, axis=0)
    g_hat, err_var = apply_mask(q, real)
    assert np.array_equal(g_hat, q * real.g_hat)
    assert np.array_equal(err_var, q * (real.beta - real.alpha))
    primed = dataclasses.replace(real, g_hat=g_hat, beta=q * real.beta,
                                 alpha=q * real.alpha)
    twice = apply_mask(q, primed)
    assert np.array_equal(twice[0], g_hat) and np.array_equal(twice[1], err_var)
    # source untouched
    assert not np.array_equal(real.g_hat, g_hat)


# --------------------------------------------------------- exhaustive search

def chain_evaluator(real, cfg, scheme=Scheme("MMSE", "UPA", "NS")):
    """Minimum SINR of the chain on one mask, or on each of a stack of masks."""
    sigma_w2 = cfg.noise_variance_w()
    rho_f = 1e-3

    def evaluate(mask):
        g_hat, err_var = apply_mask(mask, real)
        return run_chain(g_hat, err_var, scheme, rho_f, sigma_w2,
                         cfg.symbol_power).metrics.min_sinr

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

    mask, score = es_search(4, 2, 4, 1, counting)
    assert len(calls) == 1 and calls[0].shape == (1, 4, 2)
    assert mask.shape == (4, 2) and np.all(mask == 1.0)
    assert score == base(np.ones((4, 2)))


def test_candidate_count_for_tiny_system():
    cfg = dataclasses.replace(SystemConfig(), num_aps=5, num_users=2,
                              selected_aps=3, csi_quality=0.99).validate()
    streams = [np.random.default_rng([37, i]) for i in range(3)]
    real = generate_realization(cfg, *streams)
    count = 0
    base = chain_evaluator(real, cfg)

    def counting(masks):
        nonlocal count
        count += masks.shape[0]
        return base(masks)

    es_search(5, 2, 3, 1, counting)
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
    mask, best = es_search(3, 1, 2, 1, evaluate)
    assert np.array_equal(mask, [[1.0], [0.0], [1.0]])
    # brute-force re-evaluation of every candidate confirms the choice
    import itertools
    rescored = []
    for aps in itertools.combinations(range(3), 2):
        q = np.zeros((3, 1))
        q[list(aps), 0] = 1.0
        rescored.append((evaluate(q), aps))
    assert max(rescored)[1] == (0, 2)
    assert np.isclose(max(rescored)[0], best)


def test_budget_refusal_reports_required_count(monkeypatch):
    # C(5, 3)^2 = 100 candidates: refused over a budget of 99, at the call
    # that would give the chunks, and searched at 100
    monkeypatch.setattr(selection, "ES_BUDGET", 99)
    with pytest.raises(ValueError, match=r"C\(5, 3\)\^2 = 100 .*budget of 99"):
        es_chunks(5, 2, 3, 1, 1)
    monkeypatch.setattr(selection, "ES_BUDGET", 100)
    mask, _ = es_search(5, 2, 3, 1, lambda m: np.zeros(len(m)))
    assert mask.shape == (5, 2)


def test_first_maxima_rise_only_on_a_strict_first_maximum():
    # per point: a tie keeps the first column, NaN never wins, a score equal
    # to the best so far does not replace it, and all NaN leaves -inf
    best = np.array([-np.inf, 1.0, 2.0, -np.inf])
    scores = np.array([[0.5, 3.0, 3.0], [np.nan, 0.5, 1.5], [2.0, np.nan, 2.0],
                       [np.nan, np.nan, np.nan]])
    new, better, columns = first_maxima(best, scores)
    assert new.tolist() == [3.0, 1.5, 2.0, -np.inf]
    assert better.tolist() == [True, True, False, False] and columns.tolist() == [1, 2]
