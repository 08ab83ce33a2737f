"""The stage functions on stacks of links, and exhaustive selection on top.

Every generalized function must give, on a stacked (B, M, K) input, what its
2-D call gives on each item; exhaustive selection must pick the mask a plain
loop over ``itertools.product`` with one 2-D chain per candidate picks.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from cellfree import selection
from cellfree.channel import SystemConfig, generate_realization
from cellfree.metrics import (SinrCoefficients, analytic_sinr, rates,
                              sinr_coefficients, snr_to_rho_f)
from cellfree.pipeline import SCHEMES, Scheme, TrialDraw, run_trial
from cellfree.power_allocation import apa_sgd, opa_bisection, opa_bound, sinr_feasible, upa
from cellfree.precoding import (PrecoderOutput, RankDeficientError, apply_allocation,
                                cb_precoder, mmse_precoder, zf_precoder)
from cellfree.selection import apply_mask
from reference import chain_on, es_search, mask_from_choices

RTOL = 1e-12


def close(batched, items):
    np.testing.assert_allclose(batched, np.stack([np.asarray(x) for x in items]),
                               rtol=RTOL, atol=0.0)


def stacked_channels(rng, batch, m, k):
    shape = batch + (m, k)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return g, rng.uniform(0.0, 0.2, size=shape)


def items(batch):
    return list(np.ndindex(batch))


# ------------------------------------------------------------- precoding

@pytest.mark.parametrize("m, k", [(6, 3), (3, 3), (2, 3)])
def test_precoders_on_a_stack_equal_their_2d_calls(m, k):
    rng = np.random.default_rng(m * 10 + k)
    batch = (2, 3)
    g, _ = stacked_channels(rng, batch, m, k)
    close(mmse_precoder(g, None, k, 1.0, 0.3).p.reshape(-1, m, k),
          [mmse_precoder(g[i], None, k, 1.0, 0.3).p for i in items(batch)])
    n_diag = rng.uniform(0.5, 2.0, size=batch + (k,))
    out = mmse_precoder(g, n_diag, 4.0, 2.0, 0.7, sigma_s2=1.3)
    ref = [mmse_precoder(g[i], n_diag[i], 4.0, 2.0, 0.7, sigma_s2=1.3) for i in items(batch)]
    close(out.p.reshape(-1, m, k), [r.p for r in ref])
    close(out.f.reshape(-1), [r.f for r in ref])
    close(out.delta.reshape(-1, m, k), [r.delta for r in ref])
    shared = mmse_precoder(g, np.ones(k), 4.0, 2.0, 0.7)     # one allocation for all
    close(shared.p.reshape(-1, m, k),
          [mmse_precoder(g[i], np.ones(k), 4.0, 2.0, 0.7).p for i in items(batch)])
    reformed = apply_allocation(out, n_diag)
    close(reformed.p.reshape(-1, m, k),
          [apply_allocation(r, n_diag[i]).p for r, i in zip(ref, items(batch))])
    close(cb_precoder(g).p.reshape(-1, m, k), [cb_precoder(g[i]).p for i in items(batch)])
    if m >= k:
        close(zf_precoder(g).p.reshape(-1, m, k), [zf_precoder(g[i]).p for i in items(batch)])


def test_zero_forcing_stack_with_a_rank_deficient_item_raises():
    rng = np.random.default_rng(1)
    g, _ = stacked_channels(rng, (3,), 4, 2)
    g[1, :, 1] = 0.0
    with pytest.raises(RankDeficientError, match="rank-deficient"):
        zf_precoder(g)


def test_allocation_row_count_must_match_the_users():
    rng = np.random.default_rng(2)
    g, _ = stacked_channels(rng, (3,), 4, 2)
    base = mmse_precoder(g, np.ones(2), 1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="per user"):
        apply_allocation(base, np.ones((3, 3)))
    with pytest.raises(ValueError, match="per user"):
        apply_allocation(base, np.float64(1.0))


# --------------------------------------------------------------- metrics

def test_metrics_on_a_stack_equal_their_2d_calls():
    rng = np.random.default_rng(3)
    batch, m, k = (4,), 7, 3
    g, err = stacked_channels(rng, batch, m, k)
    prec = mmse_precoder(g, np.ones(k), 5.0, 1.5, 0.4)
    coeffs = sinr_coefficients(prec.p, g, err, 1.5, 0.4)
    ref = [sinr_coefficients(prec.p[i], g[i], err[i], 1.5, 0.4) for i in items(batch)]
    for name in ("psi", "phi", "gamma", "phi_cross", "coupling", "rho_psi", "gamma_diag"):
        close(getattr(coeffs, name), [getattr(r, name) for r in ref])
    eta = rng.uniform(0.1, 1.0, size=batch + (k,))
    sinr = analytic_sinr(coeffs, eta)
    close(sinr, [analytic_sinr(r, eta[i]) for r, i in zip(ref, items(batch))])
    out = rates(sinr)
    ref_rates = [rates(sinr[i]) for i in items(batch)]
    close(out.per_user_rate, [r.per_user_rate for r in ref_rates])
    close(out.sum_rate, [r.sum_rate for r in ref_rates])
    close(out.min_sinr, [r.min_sinr for r in ref_rates])
    assert isinstance(ref_rates[0].sum_rate, float)


# ------------------------------------------------------------ allocation

def allocation_stack(rng, batch=(5,), m=6, k=3):
    g, err = stacked_channels(rng, batch, m, k)
    prec = mmse_precoder(g, np.ones(k), float(m), 2.0, 0.5)
    return g, prec, sinr_coefficients(prec.p, g, err, 2.0, 0.5)


def one(coeffs, prec, i):
    return (SinrCoefficients(psi=coeffs.psi[i], phi=coeffs.phi[i], gamma=coeffs.gamma[i],
                             rho_f=coeffs.rho_f, sigma_w2=coeffs.sigma_w2),
            PrecoderOutput(p=prec.p[i], f=prec.f[i]))


def test_allocators_on_a_stack_equal_their_2d_calls():
    rng = np.random.default_rng(4)
    _, prec, coeffs = allocation_stack(rng)
    idx = items((5,))
    close(upa(prec.delta).eta, [upa(prec.delta[i]).eta for i in idx])

    apa = apa_sgd(prec, coeffs, mu=0.25, iterations=5)
    ref = [apa_sgd(prec_i, coeffs_i, mu=0.25, iterations=5)
           for coeffs_i, prec_i in (one(coeffs, prec, i) for i in idx)]
    close(apa.eta, [r.eta for r in ref])
    for step in range(6):
        assert np.array_equal(apa.cost_trace[..., step], [r.cost_trace[step] for r in ref])
    for step in range(1, 5):            # a run of `step` steps ends at that iterate
        close(apa_sgd(prec, coeffs, mu=0.25, iterations=step).eta,
              [apa_sgd(prec_i, coeffs_i, mu=0.25, iterations=step).eta
               for coeffs_i, prec_i in (one(coeffs, prec, i) for i in idx)])

    opa = opa_bisection(coeffs, prec.delta)
    ref = [opa_bisection(one(coeffs, prec, i)[0], prec.delta[i]) for i in idx]
    close(opa.eta, [r.eta for r in ref])
    close(opa.achieved_t, [r.achieved_t for r in ref])
    assert type(opa.iterations) is int
    assert opa.iterations == max(r.iterations for r in ref)

    t = opa.achieved_t * np.array([0.5, 0.9, 1.0, 1.1, 3.0])
    ok, eta = sinr_feasible(t, coeffs, prec.delta)
    for i in idx:
        ok_i, eta_i = sinr_feasible(t[i], one(coeffs, prec, i)[0], prec.delta[i])
        assert ok[i] == ok_i
        if ok_i:
            close(eta[i][None], [eta_i])
        else:
            assert np.all(np.isnan(eta[i]))


def test_bisection_items_keep_their_own_brackets_and_stop_tests():
    rng = np.random.default_rng(5)
    _, prec, coeffs = allocation_stack(rng, batch=(5,), m=5, k=2)
    # scaling an item's psi scales its bracket and its optimum; the last
    # item's zero psi gives it the empty bracket [0, 0]
    scale = np.array([1.0, 0.25, 40.0, 1e-3, 0.0])
    coeffs = dataclasses.replace(coeffs, psi=coeffs.psi * scale[:, None])
    opa = opa_bisection(coeffs, prec.delta, tol=1e-3)
    refs = [opa_bisection(one(coeffs, prec, i)[0], prec.delta[i], tol=1e-3)
            for i in range(5)]
    for i, ref in enumerate(refs):
        assert opa.achieved_t[i] == ref.achieved_t
        assert np.array_equal(opa.eta[i], ref.eta)
    # the absolute tolerance stops the items after different halving counts
    assert len({ref.iterations for ref in refs[:4]}) > 1
    assert opa.achieved_t[4] == 0.0 and np.all(opa.eta[4] == 0.0)


def test_a_singular_feasibility_system_fails_only_its_own_item():
    rng = np.random.default_rng(6)
    _, prec, coeffs = allocation_stack(rng, batch=(3,), m=5, k=2)
    zero = np.zeros_like(coeffs.phi[1])
    stack = SinrCoefficients(psi=np.stack([coeffs.psi[0], np.zeros(2), coeffs.psi[2]]),
                             phi=np.stack([coeffs.phi[0], zero, coeffs.phi[2]]),
                             gamma=np.stack([coeffs.gamma[0], zero, coeffs.gamma[2]]),
                             rho_f=coeffs.rho_f, sigma_w2=coeffs.sigma_w2)
    t = 0.5 * opa_bisection(coeffs, prec.delta).achieved_t
    ok, eta = sinr_feasible(t, stack, prec.delta)
    assert not ok[1] and np.all(np.isnan(eta[1]))
    for i in (0, 2):
        ok_i, eta_i = sinr_feasible(t[i], one(coeffs, prec, i)[0], prec.delta[i])
        assert ok_i and ok[i]
        assert np.array_equal(eta[i], eta_i)


# --------------------------------------------------- exhaustive selection

def choices_of(mask, antennas_per_ap):
    """Each user's selected AP indices, read back from an (M, K) mask."""
    return tuple(tuple(np.flatnonzero(column).tolist())
                 for column in mask[::antennas_per_ap].T)


def es_reference(realization, cfg, scheme, rho_f):
    """First strict maximum over every candidate, one 2-D chain each; a
    candidate that leaves ZF rank-deficient scores -inf, any other error
    propagates. None when no candidate scores above -inf."""
    best, best_score = None, -np.inf
    for choices in itertools.product(
            itertools.combinations(range(cfg.num_aps), cfg.selected_aps),
            repeat=cfg.num_users):
        mask = mask_from_choices(choices, cfg.num_aps, cfg.antennas_per_ap)
        g_hat, err_var = apply_mask(mask, realization)
        try:
            score = chain_on(g_hat, err_var, scheme, rho_f,
                             cfg.noise_variance_w(), cfg.symbol_power).metrics.min_sinr
        except RankDeficientError:
            continue
        if score > best_score:
            best, best_score = mask, score
    return best


TINY = dict(num_aps=5, antennas_per_ap=1, num_users=2, selected_aps=3, csi_quality=0.99)
TWO_ANTENNA = dict(num_aps=3, antennas_per_ap=2, num_users=2, selected_aps=2,
                   csi_quality=0.95)
SNRS = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0)
PAIRS = [(p, a) for p in SCHEMES["precoder"]
         for a, allocator in SCHEMES["allocation"].items() if allocator.accepts(p)]


def short_solvers(monkeypatch):
    """The scheme table's OPA at 16 halvings and a stop width of 1e-2, its
    ES screen bounding that bisection, and APA at 2 steps."""
    opa, apa = SCHEMES["allocation"]["OPA"], SCHEMES["allocation"]["APA"]
    monkeypatch.setitem(SCHEMES["allocation"], "OPA", dataclasses.replace(
        opa, solve=lambda precoder, coeffs, _: opa_bisection(coeffs, precoder.delta, 16,
                                                             1e-2),
        bound=lambda precoder, coeffs: opa_bound(coeffs, precoder.delta, 16, 1e-2)))
    monkeypatch.setitem(SCHEMES["allocation"], "APA", dataclasses.replace(
        apa, solve=lambda precoder, coeffs, sigma_s2: apa_sgd(
            precoder, coeffs, iterations=2, sigma_s2=sigma_s2)))


@pytest.mark.parametrize("config", [TINY, TWO_ANTENNA], ids=["5x2", "3x2-antennas"])
def test_es_winner_equals_the_candidate_loop(config, monkeypatch):
    """Every (trial, SNR) point of a 20 x 6 grid, each precoder x allocator
    pair that ``Scheme`` accepts on its share of the points. Short solver
    runs keep the 100-candidate loop affordable; the bisection still stops
    by its tolerance at a different halving for different candidates, or at
    the iteration cap."""
    cfg = dataclasses.replace(SystemConfig(), **config).validate()
    short_solvers(monkeypatch)
    sigma_w2 = cfg.noise_variance_w()
    compared = failures = 0
    for n, (trial, snr) in enumerate(itertools.product(range(20), SNRS)):
        scheme = Scheme(*PAIRS[n % len(PAIRS)], "ES")
        real = TrialDraw(cfg, trial, cfg.rng_seed).realization
        rho_f = snr_to_rho_f(10.0 ** (snr / 10.0), real.g_hat, sigma_w2)
        want = es_reference(real, cfg, scheme, rho_f)
        if want is None:
            with pytest.raises(np.linalg.LinAlgError, match="full-rank"):
                run_trial(cfg, scheme, snr, trial)
            failures += 1
            continue
        got = run_trial(cfg, scheme, snr, trial)
        assert np.array_equal(got.mask, want), (scheme.label, trial, snr)
        compared += 1
    assert compared >= 100, (compared, failures)


def twin_aps(realization, a, b):
    """``realization`` with single-antenna AP ``b``'s rows made AP ``a``'s."""
    rows = {}
    for name in ("distances", "beta", "alpha", "g", "g_hat", "g_tilde"):
        rows[name] = getattr(realization, name).copy()
        rows[name][b] = rows[name][a]
    return dataclasses.replace(realization, **rows)


@pytest.mark.parametrize("label", ["MMSE+OPA+ES", "MMSE+APA+ES"])
def test_exactly_tied_candidates_keep_the_first_in_product_order(label):
    """Two identical APs make candidates that swap one for the other score
    exactly alike on the chain, while OPA's screen bounds them from the
    max-min root; the first tied candidate must still win."""
    cfg = dataclasses.replace(SystemConfig(), **TINY).validate()
    scheme = Scheme.parse(label)
    sigma_w2 = cfg.noise_variance_w()
    order = list(itertools.product(itertools.combinations(range(5), 3), repeat=2))
    every = np.stack([mask_from_choices(choices, 5, 1) for choices in order])
    tied = 0
    for trial in range(10):
        real = TrialDraw(cfg, trial, cfg.rng_seed).realization
        strongest = int(np.argmax(real.beta.sum(axis=1)))
        real = twin_aps(real, strongest, (strongest + 1) % 5)
        rho_f = snr_to_rho_f(10.0 ** (np.array(SNRS) / 10.0), real.g_hat, sigma_w2)
        # every candidate on the exact chain: the search without a screen
        scores = chain_on(*apply_mask(every, real), scheme, rho_f[:, None],
                          sigma_w2, cfg.symbol_power).metrics.min_sinr
        best = scores.max(axis=-1)
        tied += np.count_nonzero((scores == best[:, None]).sum(axis=-1) > 1)
        masks, candidates, certified = SCHEMES["selection"]["ES"].select(scheme, real, cfg,
                                                                         rho_f)
        if scheme.allocation == "OPA":               # the one screened search
            assert certified < candidates
        for point, first in enumerate(np.argmax(scores, axis=-1)):
            assert np.array_equal(masks[point], every[first]), (trial, SNRS[point])
    # the twins tie the best score at about half of the 60 points
    assert tied >= 15


def test_zero_forcing_es_skips_rank_deficient_candidates():
    # one AP per user on 5 APs: the 5 of 25 candidates that give both users
    # the same AP leave ZF rank-deficient, so the stacked chain raises and
    # ES scores the 20 full-rank candidates again as one stack
    cfg = dataclasses.replace(SystemConfig(), **dict(TINY, selected_aps=1)).validate()
    scheme = Scheme("ZF", "UPA", "ES")
    sigma_w2 = cfg.noise_variance_w()
    for trial in range(10):
        got = run_trial(cfg, scheme, 10.0, trial)
        (first,), (second,) = choices_of(got.mask, 1)
        assert first != second
        real = TrialDraw(cfg, trial, cfg.rng_seed).realization
        rho_f = snr_to_rho_f(10.0, real.g_hat, sigma_w2)
        want = es_reference(real, cfg, scheme, rho_f)
        assert np.array_equal(got.mask, want)
        assert got.trace["es_candidates"] == 25


def test_zero_forcing_es_without_a_full_rank_candidate_raises():
    cfg = dataclasses.replace(SystemConfig(), **TINY).validate()
    real = TrialDraw(cfg, 0, cfg.rng_seed).realization
    g_hat = real.g_hat.copy()
    g_hat[:, 1] = 0.0                         # no mask can make user 1 full-rank
    real = dataclasses.replace(real, g_hat=g_hat)
    sigma_w2 = cfg.noise_variance_w()
    rho_f = snr_to_rho_f(10.0, real.g_hat, sigma_w2)
    es = SCHEMES["selection"]["ES"].select
    with pytest.raises(np.linalg.LinAlgError, match="full-rank"):
        es(Scheme("ZF", "UPA", "ES"), real, cfg, rho_f)


def constant_scores(value):
    return lambda masks: np.full(masks.shape[0], value)


def test_tied_scores_keep_the_first_candidate(monkeypatch):
    for chunk in (selection.ES_CHUNK_ENTRIES, 7 * 5 * 2):
        monkeypatch.setattr(selection, "ES_CHUNK_ENTRIES", chunk)
        mask, score = es_search(5, 2, 3, 1, constant_scores(1.5))
        assert choices_of(mask, 1) == ((0, 1, 2), (0, 1, 2))
        assert score == 1.5


def test_nan_scores_never_win(monkeypatch):
    last = ((2, 3, 4), (2, 3, 4))

    def nan_but_the_last(masks):
        return np.array([0.25 if choices_of(q, 1) == last else np.nan for q in masks])

    for chunk in (selection.ES_CHUNK_ENTRIES, 7 * 5 * 2):
        monkeypatch.setattr(selection, "ES_CHUNK_ENTRIES", chunk)
        mask, score = es_search(5, 2, 3, 1, nan_but_the_last)
        assert choices_of(mask, 1) == last
        assert score == 0.25
    assert es_search(5, 2, 3, 1, constant_scores(np.nan)) == (None, -np.inf)


def test_many_chunks_give_the_winner_of_one_chunk(monkeypatch):
    # 8000 candidates (L=6, S=3, K=3), scored by the chain and by a coarse
    # score whose maximum is shared by hundreds of candidates across chunks
    cfg = dataclasses.replace(SystemConfig(), num_aps=6, num_users=3,
                              selected_aps=3).validate()
    real = generate_realization(cfg, *[np.random.default_rng([53, i]) for i in range(3)])
    gains = np.round(real.beta / real.beta.max(axis=0), 1)
    sigma_w2 = cfg.noise_variance_w()
    rho_f = snr_to_rho_f(10.0, real.g_hat, sigma_w2)
    calls = []

    def coarse(masks):
        calls.append(masks.shape[0])
        return (masks * gains).sum(axis=-2).min(axis=-1)

    def chain(masks):
        calls.append(masks.shape[0])
        g_hat, err_var = apply_mask(masks, real)
        return chain_on(g_hat, err_var, Scheme("MMSE", "UPA", "ES"), rho_f,
                        sigma_w2, 1.0).metrics.min_sinr

    order = list(itertools.product(itertools.combinations(range(6), 3), repeat=3))
    for score in (coarse, chain):
        results = []
        for chunk in (10 ** 9, 18 * 333):
            monkeypatch.setattr(selection, "ES_CHUNK_ENTRIES", chunk)
            calls.clear()
            results.append(es_search(6, 3, 3, 1, score))
            assert sum(calls) == 8000
        assert len(calls) == 25
        (one_mask, one_score), (many_mask, many_score) = results
        assert np.array_equal(one_mask, many_mask) and one_score == many_score
    # the coarse reference: first strict maximum in itertools.product order
    scores = [coarse(mask_from_choices(c, 6, 1)) for c in order]
    first = int(np.argmax(scores))
    assert first >= 333 and scores.count(max(scores)) > 1
    assert choices_of(es_search(6, 3, 3, 1, coarse)[0], 1) == order[first]


def test_a_grid_search_over_many_chunks_keeps_each_points_first_maximum(monkeypatch):
    # 8000 candidates (L=6, S=3, K=3) scored at four points at once: a coarse
    # score whose maximum hundreds of candidates share across chunks, NaN but
    # for one candidate in a later chunk, a tie of every candidate, and the
    # coarse score negated
    cfg = dataclasses.replace(SystemConfig(), num_aps=6, num_users=3,
                              selected_aps=3).validate()
    real = generate_realization(cfg, *[np.random.default_rng([53, i]) for i in range(3)])
    gains = np.round(real.beta / real.beta.max(axis=0), 1)
    order = list(itertools.product(itertools.combinations(range(6), 3), repeat=3))
    late = mask_from_choices(order[7000], 6, 1)
    sizes = []

    def grid(masks):
        sizes.append(masks.shape[0])
        coarse = (masks * gains).sum(axis=-2).min(axis=-1)
        only_late = np.where((masks == late).all(axis=(-2, -1)), 0.25, np.nan)
        return np.stack([coarse, only_late, np.full(masks.shape[0], 1.5), -coarse])

    every = np.stack([mask_from_choices(c, 6, 1) for c in order])
    reference = grid(every)
    first = np.argmax(np.where(np.isnan(reference), -np.inf, reference), axis=-1)
    assert first[0] >= 333 and first[1] == 7000 and first[2] == 0
    for entries in (10 ** 9, 4 * 18 * 333):
        monkeypatch.setattr(selection, "ES_CHUNK_ENTRIES", entries)
        sizes.clear()
        masks, scores = es_search(6, 3, 3, 1, grid, points=4)
        assert sum(sizes) == 8000 and max(sizes) * 4 * 18 <= entries
        assert masks.shape == (4, 6, 3) and scores.shape == (4,)
        for point, winner in enumerate(first):
            assert choices_of(masks[point], 1) == order[winner]
            assert scores[point] == reference[point, winner]
    assert len(sizes) == 25

    def one_point_all_nan(masks):
        return np.stack([grid(masks)[0], np.full(masks.shape[0], np.nan)])

    masks, scores = es_search(6, 3, 3, 1, one_point_all_nan, points=2)
    assert masks is None and scores.tolist() == [reference[0, first[0]], -np.inf]


def test_candidate_masks_follow_product_order(monkeypatch):
    seen = []

    def record(masks):
        for q in masks:
            seen.append(choices_of(q, 2))
            assert np.array_equal(q, mask_from_choices(seen[-1], 4, 2))
        return np.zeros(masks.shape[0])

    monkeypatch.setattr(selection, "ES_CHUNK_ENTRIES", 8 * 3 * 5)
    es_search(4, 3, 2, 2, record)
    assert seen == list(itertools.product(itertools.combinations(range(4), 2), repeat=3))
