import dataclasses

import numpy as np
import pytest

from cellfree.channel import SystemConfig, generate_realization
from cellfree.metrics import analytic_sinr, sinr_coefficients, snr_to_rho_f
from cellfree.pipeline import (Scheme, SolverParams, TrialError, TrialStreams,
                               run_chain, run_learning_curve, run_sweep, run_trial)
from cellfree.power_allocation import apa_sgd, opa_bisection, upa
from cellfree.precoding import mmse_precoder
from cellfree.selection import apply_mask, ls_aps


def cfg_with(**overrides):
    return dataclasses.replace(SystemConfig(), **overrides).validate()


TINY = dict(num_aps=5, antennas_per_ap=1, num_users=2, selected_aps=3,
            csi_quality=0.99)


# ------------------------------------------------------------------- schemes

def test_scheme_parsing():
    s = Scheme.parse("MMSE+OPA+LS")
    assert (s.precoder, s.allocation, s.selection) == ("MMSE", "OPA", "LS")
    assert s.label == "MMSE+OPA+LS"
    with pytest.raises(ValueError, match="PRECODER"):
        Scheme.parse("MMSE+OPA")
    with pytest.raises(ValueError, match="valid"):
        Scheme.parse("FOO+OPA+LS")
    with pytest.raises(ValueError, match="valid"):
        Scheme.parse("MMSE+FOO+LS")
    with pytest.raises(ValueError, match="valid"):
        Scheme.parse("MMSE+OPA+FOO")


# ----------------------------------------------------------------- the chain

def test_identity_channel_chain_by_hand():
    k, rho_f = 3, 2.0
    g = np.eye(k, dtype=complex)
    by_hand = dict(err_var=np.zeros((k, k)), rho_f=rho_f, e_tr=float(k),
                   sigma_w2=1.0, sigma_s2=1.0)

    # UPA is scale-invariant: one build, one solve. A second pass would give
    # P = I / rho_f with eta = rho_f^2; the one pass keeps P = I / sqrt(rho_f)
    # with eta = rho_f. Both have the same P N, so both reach the SINR
    # rho_f * eta * |p_kk|^2 / sigma_w2 = rho_f.
    out = run_chain(g, scheme=Scheme("MMSE", "UPA", "NS"), **by_hand)
    assert np.allclose(out.precoder.p, np.eye(k) / np.sqrt(rho_f))
    assert np.allclose(out.precoder.delta, np.eye(k) / rho_f)
    assert np.allclose(out.n_first.eta, rho_f)
    assert out.n_final is out.n_first
    assert np.allclose(out.metrics.per_user_sinr, rho_f)
    assert out.trace["precoder_builds"] == 1
    assert out.trace["allocation_solves"] == 1
    assert out.trace["allocation_iterations"] == [0]

    # APA is not: the precoder is re-formed as P / n_first and allocated again
    out = run_chain(g, scheme=Scheme("MMSE", "APA", "NS"), **by_hand)
    n1 = np.sqrt(out.n_first.eta)
    assert np.allclose(out.precoder.p, np.eye(k) / np.sqrt(rho_f) / n1[None, :])
    assert not np.allclose(out.n_final.eta, out.n_first.eta)
    assert np.max(out.precoder.delta @ out.n_final.eta) <= 1.0 + 1e-9
    assert out.trace["precoder_builds"] == 2
    assert out.trace["allocation_solves"] == 2
    assert out.trace["allocation_iterations"] == [5, 5]


def test_one_pass_equals_the_explicit_two_pass_chain():
    cfg = cfg_with(num_aps=16, num_users=4, selected_aps=8, csi_quality=0.95)
    solver = SolverParams()
    sigma_w2 = cfg.noise_variance_w()
    for trial in range(4):
        streams = TrialStreams.for_trial(cfg.rng_seed, trial)
        real = generate_realization(cfg, streams.topology, streams.shadowing,
                                    streams.fading)
        g, err = apply_mask(ls_aps(real.beta, cfg.selected_aps, 1), real)
        rho_f = snr_to_rho_f(10.0, real.g_hat, sigma_w2)
        e_tr = cfg.total_antennas * rho_f

        def two_pass(allocate):
            """The paper's chain: allocate, re-solve MMSE with N, allocate again."""
            n_first = allocate(mmse_precoder(g, np.ones(4), e_tr, rho_f, sigma_w2))
            second = mmse_precoder(g, n_first.n_diag, e_tr, rho_f, sigma_w2)
            n_final = allocate(second)
            coeffs = sinr_coefficients(second.p, g, err, rho_f, sigma_w2)
            return second, n_final, analytic_sinr(coeffs, n_final.eta)

        def one_pass(allocation):
            return run_chain(g, err, Scheme("MMSE", allocation, "LS"), rho_f,
                             e_tr, sigma_w2, 1.0, solver)

        def opa(prec):
            coeffs = sinr_coefficients(prec.p, g, err, rho_f, sigma_w2)
            return opa_bisection(coeffs, prec.delta, iterations=solver.opa_iterations,
                                 tol=solver.opa_tol)

        for name, allocate in (("OPA", opa), ("UPA", lambda prec: upa(prec.delta))):
            got = one_pass(name)
            assert got.trace["allocation_solves"] == 1
            assert np.allclose(got.metrics.per_user_sinr, two_pass(allocate)[2],
                               rtol=1e-12, atol=0.0)

        second, n_final, sinr = two_pass(
            lambda prec: apa_sgd(prec, g, rho_f, sigma_w2, mu=solver.apa_mu,
                                 iterations=solver.apa_iterations))
        got = one_pass("APA")
        assert np.array_equal(got.precoder.p, second.p)
        assert np.array_equal(got.n_final.eta, n_final.eta)
        assert np.array_equal(got.metrics.per_user_sinr, sinr)


def test_allocation_independent_precoders_repeat_the_first_pass():
    cfg = cfg_with(**TINY)
    for label in ("ZF+UPA+NS", "CB+OPA+NS", "MMSE_CONV+UPA+NS", "CB+UPA+NS"):
        res = run_trial(cfg, Scheme.parse(label), snr_db=10.0, trial=0)
        assert np.array_equal(res.n_first.eta, res.n_final.eta)
        assert res.trace["precoder_builds"] == 1


def test_final_allocation_respects_final_loadings():
    cfg = cfg_with(num_aps=16, num_users=4, selected_aps=8, csi_quality=0.95)
    for label in ("MMSE+OPA+LS", "MMSE+APA+LS", "MMSE+UPA+LS"):
        res = run_trial(cfg, Scheme.parse(label), snr_db=12.0, trial=1)
        assert np.max(res.precoder.delta @ res.n_final.eta) <= 1.0 + 1e-9
        assert np.all(res.n_final.eta >= 0)


def test_full_selection_reproduces_no_selection_bitwise():
    cfg = cfg_with(**dict(TINY, selected_aps=5))
    for scheme in ("MMSE+OPA+LS", "MMSE+OPA+ES"):
        got = run_trial(cfg, Scheme.parse(scheme), snr_db=10.0, trial=2)
        ref = run_trial(cfg, Scheme.parse("MMSE+OPA+NS"), snr_db=10.0, trial=2)
        assert got.metrics.sum_rate == ref.metrics.sum_rate
        assert got.metrics.min_sinr == ref.metrics.min_sinr
        assert np.array_equal(got.n_final.eta, ref.n_final.eta)
        assert np.array_equal(got.precoder.p, ref.precoder.p)


def test_trials_are_reproducible_and_distinct():
    cfg = cfg_with(**TINY)
    s = Scheme.parse("MMSE+OPA+LS")
    a = run_trial(cfg, s, 10.0, trial=3)
    b = run_trial(cfg, s, 10.0, trial=3)
    c = run_trial(cfg, s, 10.0, trial=4)
    assert a.metrics.sum_rate == b.metrics.sum_rate
    assert np.array_equal(a.n_final.eta, b.n_final.eta)
    assert a.metrics.sum_rate != c.metrics.sum_rate


def test_trial_streams_are_stable_and_separate():
    s1 = TrialStreams.for_trial(11, 0)
    s2 = TrialStreams.for_trial(11, 0)
    assert s1.topology.uniform() == s2.topology.uniform()
    assert s1.fading.uniform() != s2.shadowing.uniform()


def test_measured_error_rate_tracks_the_analytic_ratio():
    # interference-free case: per-user bit errors follow the Gaussian tail
    # of the per-user SINR the chain reports
    from scipy.special import erfc
    cfg = cfg_with(num_aps=12, num_users=3, selected_aps=12, csi_quality=1.0,
                   snr_grid_db=(5.0,))
    solver = SolverParams(symbols_per_packet=40000)
    res = run_trial(cfg, Scheme.parse("ZF+OPA+NS"), 5.0, trial=0,
                    solver=solver, with_ber=True)
    predicted = np.mean(0.5 * erfc(np.sqrt(res.metrics.per_user_sinr / 2.0)))
    n_bits = 2 * 3 * solver.symbols_per_packet
    tol = 4.0 * np.sqrt(predicted * (1 - predicted) / n_bits)
    assert abs(res.metrics.ber - predicted) < tol + 1e-6


def test_large_system_max_min_beats_uniform():
    cfg = cfg_with(num_aps=128, antennas_per_ap=1, num_users=16,
                   selected_aps=64, csi_quality=0.99)
    opa = run_trial(cfg, Scheme.parse("MMSE+OPA+LS"), 10.0, trial=0)
    uni = run_trial(cfg, Scheme.parse("MMSE+UPA+LS"), 10.0, trial=0)
    assert opa.metrics.min_sinr >= uni.metrics.min_sinr * (1 - 1e-6)


# ------------------------------------------------------------------- sweeps

def test_single_trial_sweep_matches_run_trial():
    cfg = cfg_with(**dict(TINY, snr_grid_db=(10.0,)))
    s = Scheme.parse("MMSE+UPA+LS")
    rows = run_sweep(cfg, [s], axis="snr_grid", trials=1)
    direct = run_trial(cfg, s, 10.0, trial=0)
    assert len(rows) == 1
    assert rows[0].sum_rate_mean == direct.metrics.sum_rate
    assert rows[0].sum_rate_se == 0.0
    assert rows[0].min_sinr_db_mean == 10 * np.log10(direct.metrics.min_sinr)


def test_sweep_is_deterministic():
    cfg = cfg_with(**dict(TINY, snr_grid_db=(0.0, 10.0)))
    schemes = [Scheme.parse("MMSE+UPA+NS"), Scheme.parse("ZF+OPA+NS")]
    r1 = run_sweep(cfg, schemes, axis="snr_grid", trials=3)
    r2 = run_sweep(cfg, schemes, axis="snr_grid", trials=3)
    assert r1 == r2
    assert [ (r.scheme, r.axis_value) for r in r1 ] == [
        ("MMSE+UPA+NS", 0.0), ("MMSE+UPA+NS", 10.0),
        ("ZF+OPA+NS", 0.0), ("ZF+OPA+NS", 10.0)]


def test_selection_fraction_axis():
    cfg = cfg_with(num_aps=16, num_users=4, selected_aps=8,
                   csi_quality=1.0, snr_grid_db=(10.0,))
    rows = run_sweep(cfg, [Scheme.parse("MMSE+UPA+LS")],
                     axis="selection_fraction", trials=2,
                     axis_values=(1.0, 0.5, 0.25))
    assert [r.axis_value for r in rows] == [1.0, 0.5, 0.25]
    assert all(r.trials == 2 for r in rows)


def test_antenna_split_axis_keeps_totals():
    cfg = cfg_with(num_aps=16, antennas_per_ap=1, num_users=4,
                   selected_aps=8, csi_quality=1.0, snr_grid_db=(10.0,))
    rows = run_sweep(cfg, [Scheme.parse("MMSE+UPA+LS")],
                     axis="antennas_per_ap", trials=1, axis_values=(1, 2, 4))
    assert [r.axis_value for r in rows] == [1.0, 2.0, 4.0]
    with pytest.raises(ValueError, match="divide"):
        run_sweep(cfg, [Scheme.parse("MMSE+UPA+LS")], axis="antennas_per_ap",
                  trials=1, axis_values=(3,))
    with pytest.raises(ValueError, match="axis"):
        run_sweep(cfg, [Scheme.parse("MMSE+UPA+LS")], axis="bogus", trials=1)


def test_ber_columns_only_when_requested():
    cfg = cfg_with(**dict(TINY, snr_grid_db=(10.0,)))
    s = [Scheme.parse("ZF+UPA+NS")]
    plain = run_sweep(cfg, s, axis="snr_grid", trials=2)
    with_ber = run_sweep(cfg, s, axis="snr_grid", trials=2, with_ber=True)
    assert plain[0].ber_mean is None and plain[0].ber_se is None
    assert 0.0 <= with_ber[0].ber_mean <= 0.5


# ------------------------------------------------------------ learning curve

def test_learning_curve_shape_and_guard():
    cfg = cfg_with(num_aps=8, antennas_per_ap=2, num_users=3,
                   selected_aps=4, csi_quality=1.0, snr_grid_db=(25.0,))
    solver = SolverParams(apa_mu=0.25, apa_iterations=5)
    rows = run_learning_curve(cfg, Scheme.parse("MMSE+APA+LS"), trials=4,
                              solver=solver)
    assert [r.iteration for r in rows] == list(range(6))
    assert rows[-1].cost_mean < rows[0].cost_mean
    with pytest.raises(ValueError, match="APA"):
        run_learning_curve(cfg, Scheme.parse("MMSE+OPA+LS"), trials=1)


# --------------------------------------------------------- failed trials

RANK_DEFICIENT = dict(num_aps=8, num_users=4, selected_aps=1, snr_grid_db=(10.0,))


def test_a_draw_dependent_failure_names_its_trial():
    # one AP per user: ZF's masked channel is rank-deficient whenever two
    # users pick the same AP, which happens on 12 of trials 0-39
    cfg = cfg_with(**RANK_DEFICIENT)
    scheme = Scheme.parse("ZF+OPA+LS")
    with pytest.raises(TrialError) as caught:
        run_sweep(cfg, [scheme], "snr_grid", trials=40, seed=cfg.rng_seed)
    err = caught.value
    assert (err.scheme, err.axis_name, err.axis_value, err.seed) == (
        "ZF+OPA+LS", "snr_grid", 10.0, cfg.rng_seed)
    assert isinstance(err.__cause__, np.linalg.LinAlgError)
    message = str(err)
    assert "\n" not in message
    for part in ("ZF+OPA+LS", "snr_grid=10", f"trial {err.trial}",
                 f"seed {cfg.rng_seed}", "rank-deficient"):
        assert part in message
    # the named trial reproduces the failure; the ones before it run
    with pytest.raises(np.linalg.LinAlgError, match="rank-deficient"):
        run_trial(cfg, scheme, 10.0, err.trial, seed=err.seed)
    for t in range(err.trial):
        run_trial(cfg, scheme, 10.0, t, seed=err.seed)
    failing = 0
    for t in range(40):
        try:
            run_trial(cfg, scheme, 10.0, t)
        except np.linalg.LinAlgError:
            failing += 1
    assert failing == 12
