import collections
import dataclasses
import warnings

import numpy as np
import pytest

from cellfree import channel, metrics, pipeline, precoding, selection
from cellfree.channel import MAX_ABS_SNR_DB, SystemConfig
from cellfree.metrics import analytic_sinr, sinr_coefficients, snr_to_rho_f
from cellfree.pipeline import (SCHEMES, Scheme, SolverParams, SweepRow, TrialDraw,
                               TrialError, _mean_se, _stream, run_cell, run_chain,
                               run_learning_curve, run_sweep, run_trial)
from cellfree.power_allocation import apa_sgd, opa_bisection, upa
from cellfree.precoding import mmse_precoder
from cellfree.presets import PRESETS
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
    # APA's step is scale-free only on a precoder that it re-forms: MMSE
    for label in ("ZF+APA+LS", "CB+APA+NS", "MMSE_CONV+APA+NS"):
        with pytest.raises(ValueError, match="APA.*it takes: MMSE$"):
            Scheme.parse(label)
    for label in ("MMSE+APA+LS", "MMSE_CONV+OPA+NS", "ZF+OPA+LS", "CB+UPA+ES"):
        assert Scheme.parse(label).label == label


# ----------------------------------------------------------------- the chain

def test_identity_channel_chain_by_hand():
    k, rho_f = 3, 2.0
    g = np.eye(k, dtype=complex)
    by_hand = dict(err_var=np.zeros((k, k)), rho_f=rho_f, sigma_w2=1.0, sigma_s2=1.0)

    # M = K = 3, so E_tr = M rho_f = 6 and the ridge is K sigma_w2 / E_tr =
    # 1/2: p_tilde = I / (3/2), f = sqrt(E_tr / ||p_tilde||_F^2) = 3 / sqrt(2),
    # and P = f p_tilde / sqrt(rho_f) = I. UPA is scale-invariant: one build,
    # one solve, eta = 1 under the per-antenna cap, and the SINR
    # rho_f * eta * |p_kk|^2 / sigma_w2 = rho_f. A second pass would re-form
    # P / sqrt(eta) = I and reproduce the first.
    out = run_chain(g, scheme=Scheme("MMSE", "UPA", "NS"), **by_hand)
    assert np.allclose(out.precoder.p, np.eye(k))
    assert np.allclose(out.precoder.f, 3.0 / np.sqrt(2.0))
    assert np.allclose(out.precoder.delta, np.eye(k))
    assert np.allclose(out.n_first.eta, 1.0)
    assert out.n_final is out.n_first
    assert np.allclose(out.metrics.per_user_sinr, rho_f)
    assert out.trace["allocation_solves"] == 1
    assert out.trace["allocation_iterations"] == [0]
    assert out.trace["allocation_tests"] == [0]

    # APA is not: the precoder is re-formed as P / n_first = I / n1 and
    # allocated again. The first pass stops below the cap, eta < 1; the
    # second, on loads 1 / eta_first, climbs to the cap at eta_first, so the
    # link ends at P N = I with the SINR rho_f instead of rho_f * eta_first.
    out = run_chain(g, scheme=Scheme("MMSE", "APA", "NS"), **by_hand)
    n1 = np.sqrt(out.n_first.eta)
    assert np.allclose(out.precoder.p, np.eye(k) / n1[None, :])
    assert np.all(out.n_first.eta < 0.5)
    assert np.allclose(out.n_final.eta, out.n_first.eta)
    assert np.allclose(out.precoder.delta @ out.n_final.eta, 1.0)
    assert np.allclose(out.metrics.per_user_sinr, rho_f)
    assert out.trace["allocation_solves"] == 2
    assert out.trace["allocation_iterations"] == [5, 5]
    assert out.trace["allocation_tests"] == [0, 0]


def test_one_pass_equals_the_explicit_two_pass_chain():
    cfg = cfg_with(num_aps=16, num_users=4, selected_aps=8, csi_quality=0.95)
    solver = SolverParams()
    sigma_w2 = cfg.noise_variance_w()
    for trial in range(4):
        real = TrialDraw(cfg, trial, cfg.rng_seed).realization
        g, err = apply_mask(ls_aps(real.beta, cfg.selected_aps, 1), real)
        rho_f = snr_to_rho_f(10.0, real.g_hat, sigma_w2)
        e_tr = cfg.total_antennas * rho_f         # the chain's total energy

        def two_pass(allocate):
            """The paper's chain: allocate, re-solve MMSE with N, allocate again."""
            n_first = allocate(mmse_precoder(g, np.ones(4), e_tr, rho_f, sigma_w2))
            second = mmse_precoder(g, n_first.n_diag, e_tr, rho_f, sigma_w2)
            n_final = allocate(second)
            coeffs = sinr_coefficients(second.p, g, err, rho_f, sigma_w2)
            return second, n_final, analytic_sinr(coeffs, n_final.eta)

        def one_pass(allocation):
            return run_chain(g, err, Scheme("MMSE", allocation, "LS"), rho_f,
                             sigma_w2, 1.0, solver)

        def opa(prec):
            coeffs = sinr_coefficients(prec.p, g, err, rho_f, sigma_w2)
            return opa_bisection(coeffs, prec.delta, iterations=solver.opa_iterations,
                                 tol=solver.opa_tol)

        for name, allocate in (("OPA", opa), ("UPA", lambda prec: upa(prec.delta))):
            got = one_pass(name)
            assert got.trace["allocation_solves"] == 1
            # OPA reports the feasibility targets it tested, one entry per solve
            assert got.trace["allocation_tests"] == [got.n_final.tests]
            assert (got.n_final.tests > 0) == (name == "OPA")
            assert np.allclose(got.metrics.per_user_sinr, two_pass(allocate)[2],
                               rtol=1e-12, atol=0.0)

        second, n_final, sinr = two_pass(
            lambda prec: apa_sgd(prec, sinr_coefficients(prec.p, g, err, rho_f, sigma_w2),
                                 mu=solver.apa_mu, iterations=solver.apa_iterations))
        got = one_pass("APA")
        assert np.array_equal(got.precoder.p, second.p)
        assert np.array_equal(got.n_final.eta, n_final.eta)
        assert np.array_equal(got.metrics.per_user_sinr, sinr)


def test_mmse_chain_transmits_m_rho_f_on_every_item():
    # the chain's total transmit energy is E_tr = M rho_f: the identity
    # allocation's signal sqrt(rho_f) P s carries rho_f sigma_s2 ||P||_F^2 of it
    rng = np.random.default_rng(7)
    shape = (5, 12, 3)                                        # (B, M, K)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    rho_f = np.array([0.3, 2.0, 45.0, 1e3])[:, None]          # (S, 1)
    sigma_s2 = 1.7
    out = run_chain(g, rng.uniform(0.0, 0.1, shape), Scheme("MMSE", "UPA", "NS"), rho_f,
                    0.4, sigma_s2)
    assert out.precoder.p.shape == (4,) + shape
    sent = rho_f * sigma_s2 * np.linalg.norm(out.precoder.p, axis=(-2, -1)) ** 2
    np.testing.assert_allclose(sent, np.broadcast_to(12 * rho_f, (4, 5)), rtol=1e-12,
                               atol=0.0)


def test_allocation_independent_precoders_repeat_the_first_pass():
    cfg = cfg_with(**TINY)
    for label in ("ZF+UPA+NS", "CB+OPA+NS", "MMSE_CONV+UPA+NS", "CB+UPA+NS"):
        res = run_trial(cfg, Scheme.parse(label), snr_db=10.0, trial=0)
        assert np.array_equal(res.n_first.eta, res.n_final.eta)


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
    assert _stream(11, 0, "topology").uniform() == _stream(11, 0, "topology").uniform()
    assert _stream(11, 0, "fading").uniform() != _stream(11, 0, "shadowing").uniform()


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



@pytest.mark.parametrize("snr_db", [-60.0, -70.0, -80.0, -90.0])
@pytest.mark.parametrize("precoder", ["MMSE", "ZF", "CB"])
def test_max_min_allocation_stays_certified_far_below_its_stop_width(precoder, snr_db):
    # here the max-min SINR is below OPA's absolute stop width (1e-6), so no
    # bisection midpoint is feasible; OPA returns the certified low end of
    # the band around the max-min root t*, t*(1 - 1e-8), instead of eta = 0.
    # That trails an allocation that is itself max-min optimal by 1e-8, as
    # UPA is for ZF on this draw.
    cfg = cfg_with(num_aps=16, num_users=4, selected_aps=8)
    opa = run_trial(cfg, Scheme(precoder, "OPA", "LS"), snr_db, trial=0)
    uni = run_trial(cfg, Scheme(precoder, "UPA", "LS"), snr_db, trial=0)
    t = opa.n_final.achieved_t
    assert uni.metrics.min_sinr > 0.0
    assert opa.metrics.min_sinr >= uni.metrics.min_sinr * (1.0 - 2e-8)
    assert abs(opa.metrics.min_sinr - t) <= 1e-9 * t
    assert np.max(opa.precoder.delta @ opa.n_final.eta) <= 1.0 + 1e-9


def test_a_sweep_at_minus_70_db_reports_a_finite_min_sinr():
    cfg = cfg_with(num_aps=16, num_users=4, selected_aps=8, snr_grid_db=(-70.0,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = run_sweep(cfg, [Scheme.parse("MMSE+OPA+LS"), Scheme.parse("ZF+OPA+LS")],
                         axis="snr_grid", trials=3)
    for row in rows:
        assert np.isfinite(row.min_sinr_db_mean) and np.isfinite(row.min_sinr_db_se)


@pytest.mark.parametrize("precoder", ["MMSE", "ZF", "CB"])
def test_a_grid_below_the_stop_width_equals_its_point_cells_bitwise(precoder):
    # at -70 and -80 dB OPA reports t*(1 - 1e-8), so the last bits of the
    # max-min root reach achieved_t: a root whose decomposition a ZF or CB
    # grid shares must still round as each point's own call rounds it
    cfg = cfg_with(num_aps=16, num_users=4, selected_aps=8)
    snrs = [-80.0, -70.0, -50.0, 0.0, 20.0]
    scheme = Scheme(precoder, "OPA", "LS")
    for trial in range(3):
        grid = run_cell(TrialDraw(cfg, trial, cfg.rng_seed), scheme, snrs)
        for i, snr in enumerate(snrs):
            point = run_trial(cfg, scheme, snr, trial=trial)
            assert grid.n_final.achieved_t[i] == point.n_final.achieved_t, (trial, snr)
            assert np.array_equal(grid.n_final.eta[i], point.n_final.eta)
            assert grid.metrics.min_sinr[i] == point.metrics.min_sinr


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
    # the axis has no default points
    with pytest.raises(ValueError, match="axis antennas_per_ap needs at least one value"):
        run_sweep(cfg, [Scheme.parse("MMSE+UPA+LS")], axis="antennas_per_ap", trials=1)


def test_ber_columns_only_when_requested():
    cfg = cfg_with(**dict(TINY, snr_grid_db=(10.0,)))
    s = [Scheme.parse("ZF+UPA+NS")]
    plain = run_sweep(cfg, s, axis="snr_grid", trials=2)
    with_ber = run_sweep(cfg, s, axis="snr_grid", trials=2, with_ber=True)
    assert plain[0].ber_mean is None and plain[0].ber_se is None
    assert 0.0 <= with_ber[0].ber_mean <= 0.5


# ------------------------------------------------------------ shared draws

MIXED = [Scheme.parse(label) for label in
         ("MMSE+APA+NS", "MMSE+APA+LS", "MMSE+APA+ES", "CB+OPA+LS")]
SMALL = dict(num_aps=6, antennas_per_ap=1, num_users=2, selected_aps=2,
             csi_quality=0.95, snr_grid_db=(0.0, 10.0, 20.0))


def rows_from_trials(schemes, axis, points, trials, solver, seed):
    """Sweep rows built from one independent ``run_trial`` per cell."""
    rows = []
    for scheme in schemes:
        for value, cfg_point, snr in points:
            metrics = [run_trial(cfg_point, scheme, snr, t, solver, with_ber=True,
                                 seed=seed).metrics for t in range(trials)]
            sr = _mean_se([m.sum_rate for m in metrics])
            ms = _mean_se([10.0 * np.log10(m.min_sinr) for m in metrics])
            ber = _mean_se([m.ber for m in metrics])
            rows.append(SweepRow(scheme.label, axis, value, *sr, *ms, *ber,
                                 trials=trials, seed=seed))
    return rows


@pytest.mark.parametrize("axis", ["snr_grid", "selection_fraction", "antennas_per_ap"])
def test_sweep_rows_equal_independent_trials_bitwise(axis):
    cfg = cfg_with(**SMALL)
    solver = SolverParams(symbols_per_packet=64)
    seed = 4242
    if axis == "snr_grid":
        values = None
        points = [(snr, cfg, snr) for snr in cfg.snr_grid_db]
    elif axis == "selection_fraction":
        values = (1.0, 0.5, 0.2)                 # 6, 3 and 1 of the 6 APs
        points = [(f, dataclasses.replace(cfg, selected_aps=s), 0.0)
                  for f, s in zip(values, (6, 3, 1))]
    else:
        values = (1, 2)
        points = [(1.0, cfg, 0.0),
                  (2.0, dataclasses.replace(cfg, antennas_per_ap=2, num_aps=3,
                                            selected_aps=1), 0.0)]
    rows = run_sweep(cfg, MIXED, axis, trials=3, solver=solver, with_ber=True,
                     axis_values=values, seed=seed)
    assert rows == rows_from_trials(MIXED, axis, points, 3, solver, seed)


def counting(calls, name, fn):
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return counted


def test_sweep_draws_channel_and_ls_mask_once_per_trial_and_config(monkeypatch):
    calls = collections.Counter()
    monkeypatch.setattr(channel, "generate_realization",
                        counting(calls, "channel", channel.generate_realization))
    monkeypatch.setattr(selection, "ls_aps", counting(calls, "ls", selection.ls_aps))
    preset = PRESETS["fig-large-sumrate"]
    cfg = preset.resolve_config(SystemConfig().validate())
    schemes = [Scheme.parse(label) for label in preset.schemes]
    assert len(schemes) * len(cfg.snr_grid_db) == 48
    run_sweep(cfg, schemes, "snr_grid", trials=3)
    assert calls == {"channel": 3, "ls": 3}
    calls.clear()
    run_sweep(cfg_with(**SMALL), MIXED, "selection_fraction", trials=2,
              axis_values=(1.0, 0.5, 0.2))
    assert calls == {"channel": 2, "ls": 6}


def test_a_grid_cell_equals_its_point_cells_bitwise():
    cfg = cfg_with(**SMALL)
    # one AP per user: the candidates that give both users the same AP leave
    # ZF rank-deficient, so its stacked ES chains run again without them
    one_ap = cfg_with(**dict(SMALL, selected_aps=1))
    solver = SolverParams(symbols_per_packet=64)
    snrs = list(cfg.snr_grid_db)
    cases = [(cfg, label) for label in ("MMSE+APA+LS", "ZF+OPA+NS", "CB+UPA+LS")]
    cases += [(one_ap, label) for label in ("MMSE+OPA+ES", "MMSE+APA+ES", "ZF+UPA+ES")]
    for config, label in cases:
        scheme = Scheme.parse(label)
        grid = run_cell(TrialDraw(config, 1, 99), scheme, snrs, solver, with_ber=True)
        assert grid.metrics.ber.shape == grid.metrics.min_sinr.shape == (len(snrs),)
        for i, snr in enumerate(snrs):
            point = run_cell(TrialDraw(config, 1, 99), scheme, snr, solver, with_ber=True)
            assert np.array_equal(np.broadcast_to(grid.mask, (len(snrs),) + point.mask.shape)[i],
                                  point.mask), (label, snr)
            assert np.array_equal(grid.precoder.p[i], point.precoder.p)
            assert np.array_equal(grid.n_final.eta[i], point.n_final.eta)
            assert grid.metrics.sum_rate[i] == point.metrics.sum_rate
            assert grid.metrics.min_sinr[i] == point.metrics.min_sinr
            assert grid.metrics.ber[i] == point.metrics.ber
        if scheme.selection == "ES":
            assert grid.trace["es_candidates"] == 6 ** 2 * len(snrs)


def test_an_snr_sweep_runs_one_cell_per_scheme_and_trial(monkeypatch):
    calls = collections.Counter()
    run = pipeline.run_cell

    def counted(draw, scheme, snr_db, *args, **kwargs):
        calls[scheme.selection, np.ndim(snr_db)] += 1
        return run(draw, scheme, snr_db, *args, **kwargs)

    monkeypatch.setattr(pipeline, "run_cell", counted)
    run_sweep(cfg_with(**SMALL), MIXED, "snr_grid", trials=2)
    # every selection, ES too: one grid cell per trial
    assert calls == {("NS", 1): 2, ("LS", 1): 4, ("ES", 1): 2}
    # the other axes run the same loop: one one-point grid cell per (point,
    # scheme, trial)
    for axis, values in (("selection_fraction", (1.0, 0.5, 0.2)), ("antennas_per_ap", (1, 2))):
        calls.clear()
        run_sweep(cfg_with(**SMALL), MIXED, axis, trials=2, axis_values=values)
        cells = len(values) * 2
        assert calls == {("NS", 1): cells, ("LS", 1): 2 * cells, ("ES", 1): cells}


def test_shared_draw_arrays_are_read_only():
    cfg = cfg_with(**TINY)
    for label in ("MMSE+OPA+NS", "MMSE+OPA+LS", "MMSE+OPA+ES"):
        res = run_trial(cfg, Scheme.parse(label), 10.0, trial=0)
        with pytest.raises(ValueError, match="read-only"):
            res.mask[0, 0] = 0.0
    draw = TrialDraw(cfg, 0, cfg.rng_seed)
    run_cell(draw, Scheme.parse("MMSE+OPA+LS"), 10.0)
    run_cell(draw, Scheme.parse("MMSE+UPA+LS"), [0.0, 10.0])
    run_cell(draw, Scheme.parse("ZF+UPA+NS"), [0.0, 10.0])
    assert len(draw.builds) == 3
    mask, g_hat, err_var, _ = draw.selections["LS"]
    built = [array for prec, coeffs in draw.builds.values()
             for array in (prec.p, prec.f, coeffs.psi, coeffs.phi, coeffs.gamma)
             if np.ndim(array)]
    assert len(built) == 14                   # f is a scalar at one SNR point
    for array in (*vars(draw.realization).values(), mask, g_hat, err_var, *built):
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0.0


def same_cell(got, want):
    assert np.array_equal(got.mask, want.mask)
    assert np.array_equal(got.precoder.p, want.precoder.p)
    assert np.array_equal(got.n_final.eta, want.n_final.eta)
    for name in ("sum_rate", "min_sinr", "ber"):
        assert np.array_equal(getattr(got.metrics, name), getattr(want.metrics, name)), name


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_sharing_a_draw_is_invisible(preset):
    """Every cell on one shared draw, in the preset's scheme order and in
    reverse, at a grid and then at one of its points, equals the same cell
    on a fresh draw bitwise."""
    cfg = cfg_with(**dict(TINY, snr_grid_db=(0.0, 10.0, 20.0)))
    solver = SolverParams(symbols_per_packet=32)
    schemes = [Scheme.parse(label) for label in PRESETS[preset].schemes]
    for order in (schemes, schemes[::-1]):
        draw = TrialDraw(cfg, 3, 77)
        for snr in (list(cfg.snr_grid_db), 10.0):
            for scheme in order:
                shared = run_cell(draw, scheme, snr, solver, with_ber=True)
                fresh = run_cell(TrialDraw(cfg, 3, 77), scheme, snr, solver, with_ber=True)
                same_cell(shared, fresh)


def test_one_large_sumrate_trial_builds_each_precoder_once_per_selection(monkeypatch):
    calls = collections.Counter()
    for name in ("mmse_precoder", "zf_precoder", "cb_precoder"):
        monkeypatch.setattr(precoding, name, counting(calls, name, getattr(precoding, name)))
    preset = PRESETS["fig-large-sumrate"]
    cfg = preset.resolve_config(SystemConfig().validate())
    run_sweep(cfg, [Scheme.parse(label) for label in preset.schemes], "snr_grid", trials=1)
    # MMSE and MMSE_CONV share a build: one on the LS mask, one on NS
    assert calls == {"mmse_precoder": 2, "zf_precoder": 1, "cb_precoder": 1}


def test_max_min_roots_decompose_each_coupling_matrix_once(monkeypatch):
    # A does not depend on rho_f: ZF's and CB's one coefficient set per
    # channel serves every grid point, and an ES chunk every point of a
    # candidate; MMSE's coefficients differ per point
    shapes = []
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda a: shapes.append(a.shape) or eig(a))
    preset = PRESETS["fig-large-sumrate"]
    cfg = preset.resolve_config(SystemConfig().validate())
    run_sweep(cfg, [Scheme.parse(label) for label in preset.schemes], "snr_grid", trials=1)
    # MMSE+OPA+LS 6, ZF+OPA+LS 1, CB+OPA+LS 1
    assert sorted(shapes) == [(6, 16, 16), (16, 16), (16, 16)]
    shapes.clear()
    tiny = cfg_with(**dict(TINY, snr_grid_db=(0.0, 10.0, 20.0)))
    run_cell(TrialDraw(tiny, 0, 1), Scheme.parse("ZF+OPA+ES"), list(tiny.snr_grid_db))
    # one matrix per candidate, then one per point for the winners' chain
    assert shapes == [(100, 2, 2), (3, 2, 2)]
    # and UPA and OPA read one load matrix for every point of a ZF grid
    zf = run_cell(TrialDraw(tiny, 0, 1), Scheme.parse("ZF+UPA+LS"), list(tiny.snr_grid_db))
    assert zf.precoder.delta.shape == (3, 5, 2) and zf.precoder.delta.strides[0] == 0


def test_a_ber_sweep_measures_each_scheme_and_trial_in_one_call(monkeypatch):
    calls = collections.Counter()
    monkeypatch.setattr(metrics, "ber_qpsk", counting(calls, "ber", metrics.ber_qpsk))
    preset = PRESETS["fig-ber"]
    cfg = preset.resolve_config(SystemConfig().validate())
    solver = SolverParams(**preset.solver)
    run_sweep(cfg, [Scheme.parse(label) for label in preset.schemes], "snr_grid",
              trials=2, solver=solver, with_ber=True)
    assert calls == {"ber": len(preset.schemes) * 2}


def test_es_scores_few_of_its_candidates_on_the_exact_chain():
    # the trace counts the (point, candidate) items an ES cell searched and
    # those its screen left for the exact chain
    preset = PRESETS["fig-tiny-opa"]
    cfg = preset.resolve_config(SystemConfig().validate())
    snrs = list(cfg.snr_grid_db)
    certified = candidates = 0
    for label in preset.schemes:
        if label.endswith("+ES"):
            for trial in range(10):
                trace = run_cell(TrialDraw(cfg, trial, cfg.rng_seed), Scheme.parse(label),
                                 snrs).trace
                certified += trace["es_certified"]
                candidates += trace["es_candidates"]
    assert candidates == 10 * 100 * len(snrs)
    assert 0 < certified < candidates / 10
    # no screen for ZF: every item is exact; NS and LS search nothing
    zf = run_cell(TrialDraw(cfg, 0, cfg.rng_seed), Scheme.parse("ZF+UPA+ES"), snrs).trace
    assert zf["es_certified"] == zf["es_candidates"] == 100 * len(snrs)
    ls = run_cell(TrialDraw(cfg, 0, cfg.rng_seed), Scheme.parse("MMSE+OPA+LS"), snrs).trace
    assert ls["es_certified"] == ls["es_candidates"] == 0


def test_zero_forcing_es_scores_its_full_rank_candidates_in_one_stack(monkeypatch):
    # one AP per user: the 6 candidates that give both users the same AP
    # leave ZF rank-deficient, and the first stacked chain raises
    calls = collections.Counter()
    monkeypatch.setattr(pipeline, "run_chain", counting(calls, "chain", pipeline.run_chain))
    cfg = cfg_with(**dict(SMALL, selected_aps=1))
    res = run_cell(TrialDraw(cfg, 1, 99), Scheme.parse("ZF+UPA+ES"), list(cfg.snr_grid_db))
    assert res.trace["es_candidates"] == 36 * 3
    assert calls["chain"] <= 3


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


@pytest.mark.parametrize("trials", [0, -1])
def test_sweeps_and_learning_curves_need_a_trial(trials):
    cfg = cfg_with(**TINY)
    with pytest.raises(ValueError, match="trials must be at least 1"):
        run_learning_curve(cfg, Scheme.parse("MMSE+APA+LS"), trials=trials)
    with pytest.raises(ValueError, match="trials must be at least 1"):
        run_sweep(cfg, [Scheme.parse("MMSE+UPA+LS")], "snr_grid", trials=trials)


@pytest.mark.parametrize("field, value", [
    ("opa_iterations", 0), ("apa_iterations", 0), ("es_budget", 0),
    ("symbols_per_packet", 0), ("packets_per_trial", 0),
    ("opa_iterations", 2.5), ("apa_iterations", 2.5), ("es_budget", 1e6),
    ("symbols_per_packet", 10.5), ("packets_per_trial", 2.0),
    ("apa_mu", -1.0), ("opa_tol", -1.0), ("opa_tol", np.nan),
    ("apa_mu", np.inf), ("opa_tol", np.inf)])
def test_solver_params_reject_bad_values_at_construction(field, value):
    with pytest.raises(ValueError, match=field):
        SolverParams(**{field: value})
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(SolverParams(), **{field: value})


def test_every_scheme_completes_at_the_snr_bound():
    cfg = cfg_with(num_aps=4, antennas_per_ap=2, num_users=2, selected_aps=1,
                   snr_grid_db=(-MAX_ABS_SNR_DB, MAX_ABS_SNR_DB))
    schemes = [Scheme(precoder, allocation, selection)
               for precoder in SCHEMES["precoder"]
               for allocation, allocator in SCHEMES["allocation"].items()
               if allocator.accepts(precoder) for selection in SCHEMES["selection"]]
    assert len(schemes) == 27
    for row in run_sweep(cfg, schemes, "snr_grid", trials=3, with_ber=True):
        assert np.isfinite([row.sum_rate_mean, row.min_sinr_db_mean, row.ber_mean]).all()


def test_an_es_scheme_over_budget_is_refused_before_the_first_trial(monkeypatch):
    # 10 APs, 3 users, 5 selected: C(10, 5)^3 = 16,003,008 candidates
    calls = collections.Counter()
    monkeypatch.setattr(channel, "generate_realization",
                        counting(calls, "channel", channel.generate_realization))
    cfg = cfg_with(num_aps=10, num_users=3, selected_aps=5, snr_grid_db=(10.0,))
    ls, es = Scheme.parse("MMSE+OPA+LS"), Scheme.parse("MMSE+APA+ES")
    assert selection.es_candidate_count(10, 3, 5) == 16_003_008
    with pytest.raises(ValueError, match="MMSE[+]APA[+]ES.*16003008.*budget of 1000000"):
        run_sweep(cfg, [ls, es], "snr_grid", trials=2)
    with pytest.raises(ValueError, match="16003008"):
        run_learning_curve(cfg, es, trials=2)
    # every point of the axis counts: all 10 APs is one candidate, half is not
    with pytest.raises(ValueError, match="16003008"):
        run_sweep(cfg, [es], "selection_fraction", trials=1, axis_values=(1.0, 0.5))
    assert calls["channel"] == 0
    run_sweep(cfg, [ls, es], "selection_fraction", trials=1, axis_values=(1.0,))
    assert calls["channel"] == 1


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


def test_a_sweep_names_the_smallest_failing_trial_over_its_schemes():
    # trial-major: the first failing cell in (trial, point, scheme) order. On
    # this config ZF+UPA+LS is rank-deficient from trial 13 on with 2 of 8
    # APs per user and from trial 4 on with 1, and MMSE+OPA+LS never fails,
    # so point-major or scheme-major order would name trial 13.
    cfg = cfg_with(**RANK_DEFICIENT)
    fractions = (0.25, 0.125)
    schemes = [Scheme.parse("MMSE+OPA+LS"), Scheme.parse("ZF+UPA+LS")]
    with pytest.raises(TrialError) as caught:
        run_sweep(cfg, schemes, "selection_fraction", trials=40, axis_values=fractions)
    err = caught.value
    points = {frac: cfg_with(**dict(RANK_DEFICIENT, selected_aps=round(frac * 8)))
              for frac in fractions}

    def fails(frac, scheme, t):
        try:
            run_trial(points[frac], scheme, 10.0, t, seed=err.seed)
        except ValueError:                      # LinAlgError is a ValueError
            return True
        return False

    cells = [(frac, s) for frac in fractions for s in schemes]
    first = min(t for t in range(40) if any(fails(*cell, t) for cell in cells))
    assert err.trial == first == 4
    assert (err.axis_value, err.scheme) == next(
        (frac, s.label) for frac, s in cells if fails(frac, s, first))
    with pytest.raises(type(err.__cause__)):
        run_trial(points[err.axis_value], Scheme.parse(err.scheme), 10.0, err.trial,
                  seed=err.seed)


def fail_at(monkeypatch, allocation, rho_f, error):
    """Make ``allocation`` raise ``error`` on any item whose rho_f is ``rho_f``."""
    allocator = SCHEMES["allocation"][allocation]

    def solve(precoder, coeffs, sigma_s2, solver):
        if np.count_nonzero(coeffs.rho_f == rho_f):
            raise error
        return allocator.solve(precoder, coeffs, sigma_s2, solver)

    monkeypatch.setitem(SCHEMES["allocation"], allocation,
                        dataclasses.replace(allocator, solve=solve))


def test_a_failing_grid_cell_is_named_in_point_then_scheme_order(monkeypatch):
    # the earlier-listed scheme fails at point 2 and the later one at point
    # 0, both only on trial 1's draw; the stacked cells run scheme by scheme,
    # so the sweep re-runs the trial cell by cell to name point 0 first
    cfg = cfg_with(**SMALL)
    real = TrialDraw(cfg, 1, cfg.rng_seed).realization
    rho = [snr_to_rho_f(10.0 ** (snr / 10.0), real.g_hat, cfg.noise_variance_w())
           for snr in cfg.snr_grid_db]
    first, second = Scheme.parse("MMSE+OPA+LS"), Scheme.parse("CB+UPA+NS")
    fail_at(monkeypatch, "OPA", rho[2], FloatingPointError("OPA fails at point 2"))
    fail_at(monkeypatch, "UPA", rho[0], ValueError("UPA fails at point 0"))
    with pytest.raises(TrialError) as caught:
        run_sweep(cfg, [first, second], "snr_grid", trials=3)
    err = caught.value
    assert (err.scheme, err.axis_value, err.trial) == (second.label, 0.0, 1)
    assert isinstance(err.__cause__, ValueError)
    assert "snr_grid=0, trial 1" in str(err) and "UPA fails at point 0" in str(err)
    with pytest.raises(ValueError, match="UPA fails at point 0"):
        run_trial(cfg, second, err.axis_value, err.trial, seed=err.seed)
    run_trial(cfg, first, 0.0, 1)                # the earlier scheme passes point 0

    # with the later scheme listed first, it still fails first; alone, the
    # earlier scheme is named at point 2 with its ArithmeticError
    with pytest.raises(TrialError) as caught:
        run_sweep(cfg, [second, first], "snr_grid", trials=3)
    assert (caught.value.scheme, caught.value.axis_value) == (second.label, 0.0)
    with pytest.raises(TrialError) as caught:
        run_sweep(cfg, [first], "snr_grid", trials=3)
    err = caught.value
    assert (err.scheme, err.axis_value, err.trial) == (first.label, 20.0, 1)
    assert isinstance(err.__cause__, FloatingPointError)
    with pytest.raises(FloatingPointError, match="OPA fails at point 2"):
        run_trial(cfg, first, err.axis_value, err.trial, seed=err.seed)


def test_an_es_grid_point_without_a_finite_candidate_is_named(monkeypatch):
    # every candidate scores NaN at the middle point on trial 1's draw: the
    # stacked ES cell raises, and the sweep names that point cell by cell
    cfg = cfg_with(**SMALL)
    real = TrialDraw(cfg, 1, cfg.rng_seed).realization
    rho = snr_to_rho_f(10.0, real.g_hat, cfg.noise_variance_w())
    upa_allocator = SCHEMES["allocation"]["UPA"]

    def solve(precoder, coeffs, sigma_s2, solver):
        result = upa_allocator.solve(precoder, coeffs, sigma_s2, solver)
        result.eta = np.where((coeffs.rho_f == rho)[..., None], np.nan, result.eta)
        return result

    monkeypatch.setitem(SCHEMES["allocation"], "UPA",
                        dataclasses.replace(upa_allocator, solve=solve))
    scheme = Scheme.parse("MMSE+UPA+ES")
    with pytest.raises(np.linalg.LinAlgError, match="finite minimum SINR"):
        run_cell(TrialDraw(cfg, 1, cfg.rng_seed), scheme, list(cfg.snr_grid_db))
    with pytest.raises(TrialError) as caught:
        run_sweep(cfg, [Scheme.parse("MMSE+UPA+LS"), scheme], "snr_grid", trials=3)
    err = caught.value
    assert (err.scheme, err.axis_value, err.trial) == (scheme.label, 10.0, 1)
    assert isinstance(err.__cause__, np.linalg.LinAlgError)
    run_trial(cfg, scheme, 0.0, 1)
    run_trial(cfg, scheme, 20.0, 1)


def test_a_failing_sweep_re_runs_only_a_grid_trial_and_only_once(monkeypatch):
    calls = collections.Counter()
    run = pipeline.run_cell

    def counted(draw, scheme, snr_db, *args, **kwargs):
        calls[draw.trial, np.shape(snr_db)] += 1
        return run(draw, scheme, snr_db, *args, **kwargs)

    monkeypatch.setattr(pipeline, "run_cell", counted)
    # one-point groups: each cell runs once, up to the failing one (trial 4,
    # the last of the four cells; see the test above)
    cfg = cfg_with(**RANK_DEFICIENT)
    schemes = [Scheme.parse("MMSE+OPA+LS"), Scheme.parse("ZF+UPA+LS")]
    with pytest.raises(TrialError) as caught:
        run_sweep(cfg, schemes, "selection_fraction", trials=40, axis_values=(0.25, 0.125))
    assert caught.value.trial == 4
    assert calls == {(t, (1,)): 4 for t in range(5)}

    # a grid cell that fails re-runs its trial once, split into points: the
    # first scheme's grid cell fails at point 2, the split run names the
    # second scheme at point 0
    calls.clear()
    cfg = cfg_with(**SMALL)
    real = TrialDraw(cfg, 1, cfg.rng_seed).realization
    rho = [snr_to_rho_f(10.0 ** (snr / 10.0), real.g_hat, cfg.noise_variance_w())
           for snr in cfg.snr_grid_db]
    fail_at(monkeypatch, "OPA", rho[2], FloatingPointError("OPA fails at point 2"))
    fail_at(monkeypatch, "UPA", rho[0], ValueError("UPA fails at point 0"))
    with pytest.raises(TrialError) as caught:
        run_sweep(cfg, [Scheme.parse("MMSE+OPA+LS"), Scheme.parse("CB+UPA+NS")],
                  "snr_grid", trials=3)
    assert (caught.value.scheme, caught.value.axis_value) == ("CB+UPA+NS", 0.0)
    assert calls == {(0, (3,)): 2, (1, (3,)): 1, (1, (1,)): 2}


@pytest.mark.parametrize("axis, values", [
    ("antennas_per_ap", (0,)), ("antennas_per_ap", (1.5,)), ("antennas_per_ap", (-2,)),
    ("antennas_per_ap", (float("nan"),)), ("antennas_per_ap", ()),
    ("selection_fraction", (float("nan"),)), ("selection_fraction", (0.0,)),
    ("selection_fraction", (-0.5,)), ("selection_fraction", (1.5,)),
    ("selection_fraction", (0.5, float("inf"))), ("selection_fraction", ()),
    ("snr_grid", (10.0,))], ids=str)
def test_malformed_axis_values_are_refused_before_the_first_trial(monkeypatch, axis, values):
    calls = collections.Counter()
    monkeypatch.setattr(channel, "generate_realization",
                        counting(calls, "channel", channel.generate_realization))
    cfg = cfg_with(**SMALL)                    # 6 single-antenna APs, 2 selected
    with pytest.raises(ValueError) as caught:
        run_sweep(cfg, [Scheme.parse("MMSE+UPA+LS")], axis, trials=1, axis_values=values)
    message = str(caught.value)
    assert f"axis {axis}" in message
    if values:
        assert repr(values[-1]) in message
    else:
        assert "at least one value" in message
    assert calls["channel"] == 0
