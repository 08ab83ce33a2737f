import collections
import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cellfree import channel, metrics, pipeline, power_allocation, precoding, selection
from cellfree.channel import MAX_ABS_SNR_DB, SystemConfig
from cellfree.cli_io import emit_results, read_results
from cellfree.metrics import analytic_sinr, sinr_coefficients, snr_to_rho_f
from cellfree.pipeline import (SCHEMES, Scheme, SolverParams, SweepRow, TrialDraw,
                               TrialError, _stream, run_cell, run_cells, run_chain,
                               run_learning_curve, run_sweep, run_trial)
from cellfree.power_allocation import (APA_ITERATIONS, APA_STEP, OPA_ITERATIONS, OPA_TOL,
                                       apa_sgd, opa_bisection, sinr_feasible, upa)
from cellfree.precoding import mmse_precoder
from cellfree.presets import PRESETS
from cellfree.selection import apply_mask, ls_aps
from reference import cfg_with, mean_se


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
                             sigma_w2, 1.0)

        def opa(prec):
            coeffs = sinr_coefficients(prec.p, g, err, rho_f, sigma_w2)
            return opa_bisection(coeffs, prec.delta, iterations=OPA_ITERATIONS,
                                 tol=OPA_TOL)

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
                                 mu=APA_STEP, iterations=APA_ITERATIONS))
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


def rows_from_trials(schemes, axis, points, trials, solver, seed, with_ber=True):
    """Sweep rows built from one independent ``run_trial`` per cell."""
    rows = []
    for scheme in schemes:
        for value, cfg_point, snr in points:
            metrics = [run_trial(cfg_point, scheme, snr, t, solver, with_ber=with_ber,
                                 seed=seed).metrics for t in range(trials)]
            sr = mean_se([m.sum_rate for m in metrics])
            ms = mean_se([10.0 * np.log10(m.min_sinr) for m in metrics])
            ber = mean_se([m.ber for m in metrics]) if with_ber else (None, None)
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


# every scheme the table accepts: each precoder, allocation and selection
EVERY_SCHEME = [Scheme(p, a, s) for p in SCHEMES["precoder"]
                for a, allocator in SCHEMES["allocation"].items() if allocator.accepts(p)
                for s in SCHEMES["selection"]]


@st.composite
def sweep_cases(draw):
    """A small config whose ES searches take at most 36 candidates at every
    selected-AP count, a scheme list, with an MMSE/MMSE_CONV twin pair
    half the time, and an axis with its points."""
    num_aps = draw(st.integers(2, 4))
    antennas = draw(st.integers(1, 2))
    num_users = draw(st.integers(1, min(3 if num_aps < 4 else 2, num_aps * antennas - 1)))
    cfg = cfg_with(num_aps=num_aps, antennas_per_ap=antennas,
                   num_users=num_users, selected_aps=draw(st.integers(1, num_aps)),
                   csi_quality=draw(st.floats(0.5, 1.0)),
                   snr_grid_db=tuple(draw(st.lists(st.floats(-30.0, 40.0), min_size=1,
                                                   max_size=3))))
    schemes = draw(st.lists(st.sampled_from(EVERY_SCHEME), min_size=1, max_size=5))
    if draw(st.booleans()):
        twin = draw(st.sampled_from([("OPA", "NS"), ("UPA", "LS"), ("OPA", "ES")]))
        schemes += [Scheme("MMSE", *twin), Scheme("MMSE_CONV", *twin)]
    if draw(st.booleans()):
        return cfg, schemes, "snr_grid", None, [(snr, cfg, snr) for snr in cfg.snr_grid_db]
    fractions = draw(st.lists(st.sampled_from([0.25, 0.5, 0.75, 1.0]), min_size=1,
                              max_size=3))
    points = [(f, dataclasses.replace(cfg, selected_aps=max(1, round(f * num_aps))),
               cfg.snr_grid_db[0]) for f in fractions]
    return cfg, schemes, "selection_fraction", fractions, points


# fewer selected antennas than users: at seed 10, both trials' LS masks
# leave ZF rank-deficient, so the failure branch below runs on every run
RANK_DEFICIENT = cfg_with(num_aps=2, antennas_per_ap=2, num_users=3, selected_aps=1,
                          csi_quality=0.9, snr_grid_db=(0.0, 20.0))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(case=sweep_cases(), with_ber=st.booleans(), seed=st.integers(0, 10 ** 6))
@example(case=(RANK_DEFICIENT, [Scheme.parse(label) for label in
                                ("MMSE+OPA+NS", "ZF+UPA+LS", "CB+OPA+ES")],
               "snr_grid", None, [(snr, RANK_DEFICIENT, snr) for snr in (0.0, 20.0)]),
         with_ber=True, seed=10)
def test_sweep_rows_equal_per_cell_rows_bitwise(case, with_ber, seed):
    # a sweep stacks a trial's NS and LS chains by allocation and measures
    # their BER in one call; its rows are those of one run_trial per cell,
    # and where a cell fails on its draw it names a cell that fails
    cfg, schemes, axis, values, points = case
    solver = SolverParams(symbols_per_packet=16)
    try:
        want = rows_from_trials(schemes, axis, points, 2, solver, seed, with_ber)
    except np.linalg.LinAlgError:          # ZF on a rank-deficient selection
        with pytest.raises(TrialError) as caught:
            run_sweep(cfg, schemes, axis, trials=2, solver=solver, with_ber=with_ber,
                      axis_values=values, seed=seed)
        err = caught.value
        point = next(p for p in points if p[0] == err.axis_value)
        with pytest.raises(np.linalg.LinAlgError):
            run_trial(point[1], Scheme.parse(err.scheme), point[2], err.trial, seed=seed)
        return
    assert run_sweep(cfg, schemes, axis, trials=2, solver=solver, with_ber=with_ber,
                     axis_values=values, seed=seed) == want


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


def same_items(got, want):
    """Every per-item array of two results (``pipeline._LAYOUT``), the mask
    of a cell included, is equal bitwise."""
    def same(_, mine, theirs):
        assert np.array_equal(mine, theirs)
        return mine
    pipeline._map_items(same, got, want)


def test_a_grid_cell_equals_its_point_cells_bitwise():
    cfg = cfg_with(**SMALL)
    # one AP per user: the candidates that give both users the same AP leave
    # ZF rank-deficient, so its ES chunks are built again without them
    one_ap = cfg_with(**dict(SMALL, selected_aps=1))
    solver = SolverParams(symbols_per_packet=64)
    snrs = list(cfg.snr_grid_db)
    cases = [(cfg, label) for label in ("MMSE+APA+LS", "ZF+OPA+NS", "CB+UPA+LS")]
    cases += [(one_ap, label) for label in ("MMSE+OPA+ES", "MMSE+APA+ES", "ZF+UPA+ES",
                                            "ZF+OPA+ES")]
    for config, label in cases:
        scheme = Scheme.parse(label)
        grid = run_cell(TrialDraw(config, 1, 99), scheme, snrs, solver, with_ber=True)
        assert grid.metrics.ber.shape == grid.metrics.min_sinr.shape == (len(snrs),)
        assert grid.mask.shape == (len(snrs), 6, 2)
        # NS and LS share one mask over the grid
        assert (grid.mask.strides[0] == 0) == (scheme.selection != "ES"), label
        for i, snr in enumerate(snrs):
            point = run_cell(TrialDraw(config, 1, 99), scheme, snr, solver, with_ber=True)
            same_items(grid.take(i), point)
        if scheme.selection == "ES":
            assert grid.trace["es_candidates"] == 6 ** 2 * len(snrs)


def test_an_snr_sweep_runs_one_cell_per_scheme_and_trial(monkeypatch):
    # one run_cells per trial and group, on every scheme over the group's
    # points; in it, NS and LS run one stacked allocate stage per
    # (allocation, coefficient batch shape), and ES one search per chain
    calls = collections.Counter()
    run, chain = pipeline.run_cells, pipeline.run_chain

    def counted(draw, schemes, snr_db, *args, **kwargs):
        calls["run_cells", len(schemes), np.ndim(snr_db)] += 1
        return run(draw, schemes, snr_db, *args, **kwargs)

    def counted_chain(g_hat, err_var, scheme, rho_f, *args, built=None):
        if np.ndim(rho_f) == 2:                 # an ES chunk, against rho_f (S, 1)
            calls["ES chunk"] += 1
        else:
            # the items whose coefficient sets were computed: a stride-0 axis
            # repeats one set
            psi = built.coeffs.psi
            sets = tuple(1 if step == 0 else n for n, step in zip(psi.shape, psi.strides))
            calls[scheme.allocation, sets[:-1]] += 1
        return chain(g_hat, err_var, scheme, rho_f, *args, built=built)

    monkeypatch.setattr(pipeline, "run_cells", counted)
    monkeypatch.setattr(pipeline, "run_chain", counted_chain)
    run_sweep(cfg_with(**SMALL), MIXED, "snr_grid", trials=2)
    # MMSE+APA+NS and +LS stacked over the 3 points; CB+OPA+LS's one
    # coefficient set serves every point; MMSE+APA+ES's search is one chunk
    assert calls == {("run_cells", 4, 1): 2, ("APA", (2, 3)): 2, ("OPA", (1, 1)): 2,
                     "ES chunk": 2}
    # the other axes run the same loop, each point a grid of length 1
    for axis, values in (("selection_fraction", (1.0, 0.5, 0.2)), ("antennas_per_ap", (1, 2))):
        calls.clear()
        run_sweep(cfg_with(**SMALL), MIXED, axis, trials=2, axis_values=values)
        cells = len(values) * 2
        assert calls == {("run_cells", 4, 1): cells, ("APA", (2, 1)): cells,
                         ("OPA", (1, 1)): cells, "ES chunk": cells}


def test_shared_draw_arrays_are_read_only(monkeypatch):
    cfg = cfg_with(**TINY)
    for label in ("MMSE+OPA+NS", "MMSE+OPA+LS", "MMSE+OPA+ES"):
        res = run_trial(cfg, Scheme.parse(label), 10.0, trial=0)
        with pytest.raises(ValueError, match="read-only"):
            res.mask[0, 0] = 0.0
    masked, builds = [], []
    apply, build = selection.apply_mask, pipeline._build
    monkeypatch.setattr(selection, "apply_mask",
                        lambda *args: masked.append(apply(*args)) or masked[-1])
    monkeypatch.setattr(pipeline, "_build",
                        lambda *args: builds.append(build(*args)) or builds[-1])
    draw = TrialDraw(cfg, 0, cfg.rng_seed)
    opa, upa, zf = run_cells(draw, [Scheme.parse(label) for label in
                                    ("MMSE+OPA+LS", "MMSE+UPA+LS", "ZF+UPA+NS")], [0.0, 10.0])
    # one LS mask and one NS mask, each masked once; one MMSE build on the
    # LS mask, which both LS cells read, and one ZF build on NS
    assert len(masked) == len(builds) == 2
    assert opa.mask is upa.mask and opa.precoder is upa.precoder is builds[0].precoder
    shared = [array for build in builds
              for array in (build.precoder.p, build.precoder.f, build.precoder.delta,
                            build.coeffs.psi, build.coeffs.phi, build.coeffs.gamma)]
    for array in (*vars(draw.realization).values(), opa.mask, zf.mask,
                  *(array for pair in masked for array in pair), *shared):
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0.0


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
                same_items(shared, fresh)


def test_one_large_sumrate_trial_builds_each_precoder_once_per_selection(monkeypatch):
    calls = collections.Counter()
    for name in ("mmse_precoder", "zf_precoder", "cb_precoder"):
        monkeypatch.setattr(precoding, name, counting(calls, name, getattr(precoding, name)))
    preset = PRESETS["fig-large-sumrate"]
    cfg = preset.resolve_config(SystemConfig().validate())
    run_sweep(cfg, [Scheme.parse(label) for label in preset.schemes], "snr_grid", trials=1)
    # MMSE and MMSE_CONV share a build: one on the LS mask, one on NS
    assert calls == {"mmse_precoder": 2, "zf_precoder": 1, "cb_precoder": 1}


def test_opa_runs_no_eigendecomposition_and_one_stage_per_allocation(monkeypatch):
    # the max-min root takes batched K x K solves, so no OPA path calls eig:
    # the NS and LS stage, ES's screen and its exact chain, with every
    # precoder. With no decomposition to share, MMSE's per-point coefficient
    # sets and ZF's and CB's one set stack together: one OPA and one UPA
    # solve per trial
    monkeypatch.setattr(np.linalg, "eig", lambda a: pytest.fail("OPA called eig"))
    calls = collections.Counter()
    for name in ("opa_bisection", "upa"):
        monkeypatch.setattr(power_allocation, name,
                            counting(calls, name, getattr(power_allocation, name)))
    for name in ("fig-large-sumrate", "fig-ber"):
        preset = PRESETS[name]
        cfg = preset.resolve_config(SystemConfig().validate())
        calls.clear()
        run_sweep(cfg, [Scheme.parse(label) for label in preset.schemes], "snr_grid",
                  trials=2, with_ber=preset.with_ber)
        assert calls == {"opa_bisection": 2, "upa": 2}, name
    tiny = cfg_with(**dict(TINY, snr_grid_db=(0.0, 10.0, 20.0)))
    for precoder in ("MMSE", "ZF", "CB"):
        es = run_cell(TrialDraw(tiny, 0, 1), Scheme(precoder, "OPA", "ES"),
                      list(tiny.snr_grid_db))
        assert es.trace["es_certified"] > 0
    # and UPA and OPA read one load matrix for every point of a ZF grid
    zf = run_cell(TrialDraw(tiny, 0, 1), Scheme.parse("ZF+UPA+LS"), list(tiny.snr_grid_db))
    assert zf.precoder.delta.shape == (3, 5, 2) and zf.precoder.delta.strides[0] == 0


def test_an_mmse_build_decomposes_each_channel_once(monkeypatch):
    # one Gram eigendecomposition per channel serves every SNR point, and
    # no Cholesky test or solve runs in the build
    shapes = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: shapes.append(a.shape) or eigh(a))
    with pytest.MonkeyPatch.context() as patch:
        for name in ("cholesky", "solve"):
            patch.setattr(np.linalg, name, lambda *_, name=name: pytest.fail(f"{name} ran"))
        rng = np.random.default_rng(21)
        g = rng.standard_normal((4, 8, 3)) + 1j * rng.standard_normal((4, 8, 3))
        for rho_f in (2.0, np.logspace(-1.0, 1.0, 6)):
            mmse_precoder(g[0], None, 8 * rho_f, rho_f, 0.5)
        mmse_precoder(g, None, 8.0, np.logspace(-1.0, 1.0, 6)[:, None], 0.5)
    assert shapes == [(3, 3), (3, 3), (4, 3, 3)]
    shapes.clear()
    preset = PRESETS["fig-large-sumrate"]
    cfg = preset.resolve_config(SystemConfig().validate())
    run_sweep(cfg, [Scheme.parse(label) for label in preset.schemes], "snr_grid", trials=1)
    # the LS build, shared by MMSE's three LS schemes, and MMSE_CONV+UPA+NS's
    assert shapes == [(16, 16), (16, 16)]


@pytest.mark.parametrize("label", ["MMSE+OPA+ES", "MMSE+APA+ES", "MMSE+UPA+ES",
                                   "ZF+OPA+ES", "ZF+UPA+ES"])
def test_an_es_search_masks_and_builds_each_chunk_once(monkeypatch, label):
    # screened or not, each chunk is masked once and built once; a chunk that
    # ZF's rank test refuses adds one build, of its full-rank candidates. One
    # AP per user on 5 APs puts 1-2 of the 25 candidates that give both users
    # the same AP in each chunk of 10
    calls = collections.Counter()
    build, search = pipeline._build, selection.es_aps

    def counted_build(*args):
        calls["build"] += 1
        try:
            return build(*args)
        except precoding.RankDeficientError:
            calls["refused"] += 1
            raise

    def counted_search(*args, **kwargs):
        return search(*args[:4], counting(calls, "chunk", args[4]), *args[5:], **kwargs)

    monkeypatch.setattr(selection, "apply_mask", counting(calls, "mask", selection.apply_mask))
    monkeypatch.setattr(pipeline, "_build", counted_build)
    monkeypatch.setattr(selection, "es_aps", counted_search)
    scheme = Scheme.parse(label)
    zf = scheme.precoder == "ZF"
    cfg = cfg_with(**dict(TINY, selected_aps=1 if zf else 3, snr_grid_db=(0.0, 10.0, 20.0)))
    monkeypatch.setattr(selection, "ES_CHUNK_ENTRIES", 3 * 5 * 2 * (10 if zf else 40))
    certified = 0
    for trial in range(3):
        res = run_cell(TrialDraw(cfg, trial, cfg.rng_seed), scheme, list(cfg.snr_grid_db))
        certified += res.trace["es_certified"]
    # the search's chunks, and the cell's own mask of its winners
    assert calls["chunk"] == 3 * 3 and calls["mask"] == calls["chunk"] + 3
    assert calls["build"] == calls["chunk"] + calls["refused"]
    assert calls["refused"] == (calls["chunk"] if zf else 0)
    if scheme.allocation == "OPA":              # the screened search
        assert 0 < certified < 3 * res.trace["es_candidates"]


@pytest.mark.parametrize("precoder", ["MMSE", "ZF", "CB"])
def test_a_screen_that_rules_out_every_candidate_searches_again_unscreened(precoder):
    # an OPA bound with lo above hi rules out every candidate, so the
    # screened search finds no winner and the cell is the unscreened search's
    cfg = cfg_with(**dict(TINY, snr_grid_db=(0.0, 10.0, 20.0)))
    scheme = Scheme(precoder, "OPA", "ES")
    solver = SolverParams(symbols_per_packet=64)
    opa = SCHEMES["allocation"]["OPA"]
    bounded = []

    def nowhere(_, coeffs):
        bounded.append(np.shape(coeffs.rho_f))
        return np.ones(np.shape(coeffs.rho_f)), np.zeros(np.shape(coeffs.rho_f))

    cells = []
    for bound in (nowhere, None):
        with pytest.MonkeyPatch.context() as patch:
            patch.setitem(SCHEMES["allocation"], "OPA", dataclasses.replace(opa, bound=bound))
            cells.append(run_cell(TrialDraw(cfg, 2, cfg.rng_seed), scheme,
                                  list(cfg.snr_grid_db), solver, with_ber=True))
    screened, unscreened = cells
    assert bounded == [(3, 100)]
    same_items(screened, unscreened)
    assert ({**screened.trace, "seconds": None} == {**unscreened.trace, "seconds": None}
            and screened.trace["es_certified"] == screened.trace["es_candidates"] == 300)


def test_a_ber_sweep_measures_each_scheme_and_trial_in_one_call(monkeypatch):
    # one call per trial measures every scheme at every point
    shapes = []
    ber_qpsk = metrics.ber_qpsk

    def counted(*args, **kwargs):
        ber, degenerate = ber_qpsk(*args, **kwargs)
        shapes.append(np.shape(ber))
        return ber, degenerate

    monkeypatch.setattr(metrics, "ber_qpsk", counted)
    preset = PRESETS["fig-ber"]
    cfg = preset.resolve_config(SystemConfig().validate())
    solver = SolverParams(**preset.solver)
    run_sweep(cfg, [Scheme.parse(label) for label in preset.schemes], "snr_grid",
              trials=2, solver=solver, with_ber=True)
    assert shapes == [(len(preset.schemes), len(cfg.snr_grid_db))] * 2


def ber_extra_peak(antennas_per_ap):
    """Bytes by which tracemalloc's peak over one fig-ber trial's
    ``run_cells`` with BER exceeds its peak without, at ``antennas_per_ap``
    antennas per AP; each is measured on a drawn channel after a warm-up."""
    preset = PRESETS["fig-ber"]
    cfg = dataclasses.replace(preset.resolve_config(SystemConfig().validate()),
                              antennas_per_ap=antennas_per_ap).validate()
    draw = TrialDraw(cfg, 0, cfg.rng_seed)
    args = (draw, [Scheme.parse(label) for label in preset.schemes], list(cfg.snr_grid_db),
            SolverParams(**preset.solver))
    peaks = []
    for with_ber in (True, False):
        run_cells(*args, with_ber)
        tracemalloc.start()
        try:
            run_cells(*args, with_ber)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks[0] - peaks[1]


# slack on the BER stage's extra peak between fig-ber's M = 96 and M = 384
BER_PEAK_SLACK = 64 * 1024


def test_the_ber_stage_peak_does_not_grow_with_the_antennas():
    # BER stacks each chain's K x K links, not its M x K precoder: the extra
    # peak it adds at 16 antennas per AP (M = 384) is at most its extra peak
    # at fig-ber's 4 (M = 96); stacking the (6, 6, M, 8) precoders doubled it
    assert ber_extra_peak(16) <= ber_extra_peak(4) + BER_PEAK_SLACK


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
    # no screen for UPA: every item is exact; NS and LS search nothing
    zf = run_cell(TrialDraw(cfg, 0, cfg.rng_seed), Scheme.parse("ZF+UPA+ES"), snrs).trace
    assert zf["es_certified"] == zf["es_candidates"] == 100 * len(snrs)
    ls = run_cell(TrialDraw(cfg, 0, cfg.rng_seed), Scheme.parse("MMSE+OPA+LS"), snrs).trace
    assert ls["es_certified"] == ls["es_candidates"] == 0


ES_PAIRS = [(p, a) for p in ("MMSE", "ZF", "CB") for a in SCHEMES["allocation"]
            if SCHEMES["allocation"][a].accepts(p)]


def assert_the_chain_on_its_masks(cfg, scheme, snr_db, trial, solver):
    """An ES cell's result, taken from its search, is what ``run_chain`` on
    the cell's masks gives at the same ``rho_f``, bitwise, BER included."""
    draw = TrialDraw(cfg, trial, cfg.rng_seed)
    res = run_cell(draw, scheme, snr_db, solver, with_ber=True)
    real = draw.realization
    sigma_w2 = cfg.noise_variance_w()
    rho_f = snr_to_rho_f(pipeline._snr_linear(snr_db), real.g_hat, sigma_w2)
    g_hat, err_var = apply_mask(res.mask, real)
    want = run_chain(g_hat, err_var, scheme, rho_f, sigma_w2, cfg.symbol_power)
    ber, _ = metrics.ber_qpsk(want.precoder.p, want.n_final.n_diag, real.g, g_hat, rho_f,
                              sigma_w2, solver.symbols_per_packet,
                              _stream(cfg.rng_seed, trial, "symbols"),
                              packets=solver.packets_per_trial,
                              noise_rng=_stream(cfg.rng_seed, trial, "noise"))
    label = (scheme.label, snr_db, trial)
    assert np.array_equal(res.precoder.p, want.precoder.p), label
    # ZF and CB keep f = 1 unbroadcast on one channel
    assert np.array_equal(np.broadcast_to(res.precoder.f, np.shape(rho_f)),
                          np.broadcast_to(want.precoder.f, np.shape(rho_f))), label
    for got, solve in ((res.n_first, want.n_first), (res.n_final, want.n_final)):
        assert np.array_equal(got.eta, solve.eta), label
        for name in ("achieved_t", "cost_trace"):          # OPA's; APA's
            mine, theirs = getattr(got, name), getattr(solve, name)
            assert (mine is None and theirs is None) or np.array_equal(mine, theirs), label
    for name in ("per_user_sinr", "per_user_rate", "sum_rate", "min_sinr"):
        mine, theirs = getattr(res.metrics, name), getattr(want.metrics, name)
        # a point's numbers are the chain's scalars too, not 0-d arrays
        assert np.array_equal(mine, theirs) and type(mine) is type(theirs), label
    assert np.array_equal(res.metrics.ber, ber), label
    assert res.trace["allocation_solves"] == want.trace["allocation_solves"]
    assert res.trace["seconds"]["precoder"] == res.trace["seconds"]["allocation"] == 0.0
    # the winners are copies: no array of the result pins a scored chunk's
    for array in (res.precoder.p, res.n_final.eta):
        assert array.base is None or array.base.size == array.size, label


def test_an_es_cell_is_the_chain_on_its_masks_bitwise():
    # every ES pair, at the preset's grid and at one point, with a second
    # chunk from a small ES_CHUNK_ENTRIES: no chain runs on the winners
    # again, and the result taken from the search is the winners' chain
    cfg = PRESETS["fig-tiny-opa"].resolve_config(SystemConfig().validate())
    solver = SolverParams(symbols_per_packet=64)
    snrs = list(cfg.snr_grid_db)
    for pair in ES_PAIRS:
        scheme = Scheme(*pair, "ES")
        for trial in range(3):
            for snr_db in (snrs, 10.0):
                assert_the_chain_on_its_masks(cfg, scheme, snr_db, trial, solver)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(selection, "ES_CHUNK_ENTRIES", len(snrs) * 5 * 2 * 40)
            assert_the_chain_on_its_masks(cfg, scheme, snrs, 3, solver)
    # one AP per user: a chunk raises, ZF sets its 1-4 rank-deficient
    # candidates aside, and the winners' columns are those of the full-rank
    # stack
    one_ap = cfg_with(**dict(TINY, selected_aps=1))
    for label in ("ZF+OPA+ES", "ZF+UPA+ES"):
        for trial in range(4):
            assert_the_chain_on_its_masks(one_ap, Scheme.parse(label), snrs[:3], trial,
                                          solver)


def test_an_apa_es_learning_curve_is_the_chain_on_its_masks():
    # the curve averages each trial's first-pass costs, taken from the search
    cfg = cfg_with(**dict(TINY, snr_grid_db=(10.0,)))
    scheme = Scheme.parse("MMSE+APA+ES")
    sigma_w2 = cfg.noise_variance_w()
    traces = []
    for trial in range(4):
        draw = TrialDraw(cfg, trial, cfg.rng_seed)
        mask = run_cell(draw, scheme, 10.0).mask
        rho_f = snr_to_rho_f(10.0, draw.realization.g_hat, sigma_w2)
        chain = run_chain(*apply_mask(mask, draw.realization), scheme, rho_f, sigma_w2,
                          cfg.symbol_power)
        traces.append(chain.n_first.cost_trace)
    rows = run_learning_curve(cfg, scheme, trials=4)
    costs = np.asarray(traces, dtype=float)
    assert [(r.cost_mean, r.cost_se) for r in rows] == [mean_se(costs[:, i])
                                                       for i in range(costs.shape[1])]


def test_zero_forcing_es_scores_its_full_rank_candidates_in_one_stack(monkeypatch):
    # one AP per user: the 6 candidates that give both users the same AP
    # leave ZF rank-deficient, and the first stacked chain raises
    calls = collections.Counter()
    monkeypatch.setattr(pipeline, "run_chain", counting(calls, "chain", pipeline.run_chain))
    cfg = cfg_with(**dict(SMALL, selected_aps=1))
    res = run_cell(TrialDraw(cfg, 1, 99), Scheme.parse("ZF+UPA+ES"), list(cfg.snr_grid_db))
    assert res.trace["es_candidates"] == 36 * 3
    assert calls["chain"] <= 3


@pytest.mark.parametrize("label", ["ZF+OPA+ES", "ZF+UPA+ES"])
def test_zero_forcing_es_tests_each_gram_matrix_once(monkeypatch, label):
    # one AP per user: 5 of the 25 candidates give both users the same AP.
    # The chunk's rank test raises with its mask, in OPA's screen or in
    # UPA's chain, and only the 20 full-rank candidates are built again
    shapes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or eigvalsh(a))
    cfg = cfg_with(**dict(TINY, selected_aps=1))
    res = run_cell(TrialDraw(cfg, 0, cfg.rng_seed), Scheme.parse(label), [0.0, 10.0])
    assert shapes == [(25, 2, 2), (20, 2, 2)]
    assert (res.mask.sum(axis=1) <= 1).all()


def test_zero_forcing_es_never_wins_with_users_sharing_an_ap():
    # one single-antenna AP per user: a mask that gives two users the same AP
    # leaves ZF's Gram matrix singular, although on trials 0 and 19 its
    # rounding passes a Cholesky test and its chain scores a winner
    cfg = cfg_with(num_aps=6, num_users=3, selected_aps=1, snr_grid_db=(10.0,))
    for trial in range(30):
        res = run_cell(TrialDraw(cfg, trial, cfg.rng_seed), Scheme.parse("ZF+OPA+ES"), 10.0)
        assert (res.mask.sum(axis=1) <= 1).all(), trial
        assert np.isfinite(res.metrics.min_sinr), trial


# ------------------------------------------------------------ learning curve

def test_learning_curve_shape_and_guard():
    cfg = cfg_with(num_aps=8, antennas_per_ap=2, num_users=3,
                   selected_aps=4, csi_quality=1.0, snr_grid_db=(25.0,))
    rows = run_learning_curve(cfg, Scheme.parse("MMSE+APA+LS"), trials=4)
    assert [r.iteration for r in rows] == list(range(APA_ITERATIONS + 1))
    assert rows[-1].cost_mean < rows[0].cost_mean
    with pytest.raises(ValueError, match="APA"):
        run_learning_curve(cfg, Scheme.parse("MMSE+OPA+LS"), trials=1)


@pytest.mark.parametrize("trials", [0, -1, True, 2.0, np.float64(3.0)])
def test_sweeps_and_learning_curves_need_a_trial(trials):
    # a bool or a float is refused by name before the first trial, not
    # written to the CSV's trials column or handed to range()
    cfg = cfg_with(**TINY)
    with pytest.raises(ValueError, match="trials must be at least 1 and an integer"):
        run_learning_curve(cfg, Scheme.parse("MMSE+APA+LS"), trials=trials)
    with pytest.raises(ValueError, match="trials must be at least 1 and an integer"):
        run_sweep(cfg, [Scheme.parse("MMSE+UPA+LS")], "snr_grid", trials=trials)


def test_numpy_integer_trials_and_seeds_write_integer_columns(tmp_path):
    cfg = cfg_with(**dict(TINY, snr_grid_db=(10.0,), rng_seed=np.int64(7)))
    rows = run_sweep(cfg, [Scheme.parse("MMSE+UPA+LS")], "snr_grid", trials=np.int64(2))
    assert rows == run_sweep(cfg_with(**dict(TINY, snr_grid_db=(10.0,), rng_seed=7)),
                             [Scheme.parse("MMSE+UPA+LS")], "snr_grid", trials=2)
    emit_results(rows, tmp_path / "x.csv")
    (row,) = read_results(tmp_path / "x.csv")
    assert (row.trials, row.seed) == (2, 7)
    curve = run_learning_curve(cfg, Scheme.parse("MMSE+APA+LS"), trials=np.int32(2))
    assert {(type(r.trials), r.trials, type(r.seed), r.seed) for r in curve} == {
        (int, 2, int, 7)}


def test_solver_params_hold_only_the_ber_packet_shape():
    assert [f.name for f in dataclasses.fields(SolverParams)] == [
        "symbols_per_packet", "packets_per_trial"]
    assert SolverParams(symbols_per_packet=np.int64(7)).symbols_per_packet == 7


@pytest.mark.parametrize("field, value", [
    ("symbols_per_packet", 0), ("packets_per_trial", 0),
    ("symbols_per_packet", 10.5), ("packets_per_trial", 2.0),
    ("symbols_per_packet", True), ("packets_per_trial", np.float64(1.0))])
def test_solver_params_reject_bad_values_at_construction(field, value):
    with pytest.raises(ValueError, match=field):
        SolverParams(**{field: value})
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(SolverParams(), **{field: value})


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_every_preset_solver_dict_builds_solver_params(preset):
    # the benchmark builds BER's packet shape this way from every preset
    solver = dataclasses.replace(SolverParams(), **PRESETS[preset].solver)
    assert dataclasses.asdict(solver).keys() == {"symbols_per_packet", "packets_per_trial"}


def test_learning_and_ber_presets_run_at_their_settings():
    # fig-learning: APA's curve has its start and APA_ITERATIONS steps
    preset = PRESETS["fig-learning"]
    cfg = preset.resolve_config(SystemConfig().validate())
    rows = run_learning_curve(cfg, Scheme.parse(preset.schemes[0]), trials=2)
    assert [r.iteration for r in rows] == list(range(APA_ITERATIONS + 1))
    assert APA_ITERATIONS == 5 and APA_STEP == 0.25
    # fig-ber: each point's BER counts errors over its preset packet shape
    preset = PRESETS["fig-ber"]
    cfg = preset.resolve_config(SystemConfig().validate())
    solver = dataclasses.replace(SolverParams(), **preset.solver)
    bits = 2 * cfg.num_users * solver.symbols_per_packet * solver.packets_per_trial
    assert bits == 1600
    for label in preset.schemes:
        res = run_cell(TrialDraw(cfg, 0, cfg.rng_seed), Scheme.parse(label),
                       list(cfg.snr_grid_db), solver, with_ber=True)
        errors = np.asarray(res.metrics.ber) * bits
        assert np.allclose(errors, np.round(errors), rtol=0.0, atol=1e-9), label


def guarded_link():
    """An MMSE precoder on a 5 x 2 channel, its SINR coefficients and the
    channel."""
    rng = np.random.default_rng(8)
    g = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    prec = mmse_precoder(g, None, 5.0, 1.0, 0.5)
    return prec, sinr_coefficients(prec.p, g, np.zeros((5, 2)), 1.0, 0.5), g


# each guard's bad call on ``guarded_link()``'s link, and its message
GUARDS = {
    "area_side_m below 0": (
        lambda *_: cfg_with(area_side_m=-1.0), "area_side_m must be nonnegative"),
    "shadow_sigma_db below 0": (
        lambda *_: cfg_with(shadow_sigma_db=-1.0), "shadow_sigma_db must be nonnegative"),
    "negative SINR target": (
        lambda prec, coeffs, _: sinr_feasible(np.array([1.0, -1.0]), coeffs, prec.delta),
        "target t must be nonnegative"),
    "OPA without halvings": (
        lambda prec, coeffs, _: opa_bisection(coeffs, prec.delta, iterations=0),
        "iterations must be at least 1"),
    "APA without steps": (
        lambda prec, coeffs, _: apa_sgd(prec, coeffs, iterations=0),
        "iterations must be at least 1"),
    "APA with a negative step": (
        lambda prec, coeffs, _: apa_sgd(prec, coeffs, mu=-0.25),
        "step size mu must be nonnegative"),
    "MMSE with negative noise": (
        lambda *link: mmse_precoder(link[2], None, 5.0, 1.0, -0.5),
        "sigma_w2 must be nonnegative"),
    "MMSE with a non-finite ridge": (
        lambda *link: mmse_precoder(link[2], None, 5.0, 1.0, np.inf),
        "ridge must not contain infs or NaNs"),
}


@pytest.mark.parametrize("guard", GUARDS)
def test_a_guard_refuses_its_bad_input_by_name(guard):
    call, message = GUARDS[guard]
    with pytest.raises(ValueError, match=message):
        call(*guarded_link())


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


def test_mmse_completes_where_users_share_one_single_antenna_ap():
    # from 200 dB the ridge is below the rounding of the rank-1 Gram matrix
    # of two users on one single-antenna AP: MMSE takes its pseudo-inverse
    # limit there, with no RuntimeWarning, where it used to raise
    cfg = cfg_with(num_aps=5, antennas_per_ap=1, num_users=2, selected_aps=1,
                   csi_quality=0.5)
    snrs = [200.0, 500.0, 1000.0]
    runs = [(f"MMSE+{a}+ES", trial) for a in ("OPA", "APA", "UPA") for trial in range(3)]
    runs += [(f"MMSE+{a}+LS", trial) for a in ("OPA", "APA") for trial in range(20)]
    shared = 0
    for label, trial in runs:
        res = run_cell(TrialDraw(cfg, trial, cfg.rng_seed), Scheme.parse(label), snrs)
        assert np.isfinite(res.metrics.per_user_sinr).all(), (label, trial)
        assert np.isfinite(res.metrics.sum_rate).all(), (label, trial)
        shared += label.endswith("LS") and bool((res.mask[..., 0] * res.mask[..., 1]).any())
    assert shared > 0


def test_an_es_scheme_over_budget_is_refused_before_the_first_trial(monkeypatch):
    # 10 APs, 3 users, 5 selected: C(10, 5)^3 = 16,003,008 candidates
    calls = collections.Counter()
    monkeypatch.setattr(channel, "generate_realization",
                        counting(calls, "channel", channel.generate_realization))
    cfg = cfg_with(num_aps=10, num_users=3, selected_aps=5, snr_grid_db=(10.0,))
    ls, es = Scheme.parse("MMSE+OPA+LS"), Scheme.parse("MMSE+APA+ES")
    assert selection.es_candidate_count(10, 3, 5) == 16_003_008
    with pytest.raises(ValueError,
                       match="5 of 10 APs for 3 users.*16003008.*budget of 1000000"):
        run_sweep(cfg, [ls, es], "snr_grid", trials=2)
    with pytest.raises(ValueError, match="16003008"):
        run_learning_curve(cfg, es, trials=2)
    # every point of the axis counts: all 10 APs is one candidate, half is not
    with pytest.raises(ValueError, match="16003008"):
        run_sweep(cfg, [es], "selection_fraction", trials=1, axis_values=(1.0, 0.5))
    assert calls["channel"] == 0
    run_sweep(cfg, [ls, es], "selection_fraction", trials=1, axis_values=(1.0,))
    assert calls["channel"] == 1


def test_es_aps_and_a_sweep_refuse_an_oversized_search_alike():
    # C(16, 8)^4 = 12870^4, about 2.7e16 candidates: one check, one message
    cfg = cfg_with(num_aps=16, num_users=4, selected_aps=8, snr_grid_db=(10.0,))
    with pytest.raises(ValueError) as search:
        selection.es_aps(16, 4, 8, 1, None)
    with pytest.raises(ValueError) as sweep:
        run_sweep(cfg, [Scheme.parse("MMSE+OPA+ES")], "snr_grid", trials=1)
    with pytest.raises(ValueError) as curve:
        run_learning_curve(cfg, Scheme.parse("MMSE+APA+ES"), trials=1)
    assert str(search.value) == str(sweep.value) == str(curve.value) == (
        "exhaustive selection of 8 of 16 APs for 4 users needs C(16, 8)^4 = about 1e16 "
        f"candidate evaluations, exceeding the budget of {selection.ES_BUDGET}")


# --------------------------------------------------------- failed trials

RANK_DEFICIENT = dict(num_aps=8, num_users=4, selected_aps=1, snr_grid_db=(10.0,))


def test_a_draw_dependent_failure_names_its_trial():
    # one AP per user: ZF's masked channel is rank-deficient whenever two
    # users pick the same AP, which happens on 21 of trials 0-39
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
    failing, shared = [], []
    for t in range(40):
        try:
            run_trial(cfg, scheme, 10.0, t)
        except np.linalg.LinAlgError:
            failing.append(t)
        beta = TrialDraw(cfg, t, cfg.rng_seed).realization.beta
        if (selection.ls_aps(beta, 1, 1).sum(axis=1) > 1).any():
            shared.append(t)
    # every trial whose users share an AP fails, trial 25 included, whose
    # Gram matrix has an exact zero eigenvalue but a Cholesky factor
    assert failing == shared and len(failing) == 21 and 25 in failing


def test_a_sweep_names_the_smallest_failing_trial_over_its_schemes():
    # trial-major: the first failing cell in (trial, point, scheme) order. On
    # this config ZF+UPA+LS is rank-deficient from trial 13 on with 2 of 8
    # APs per user and from trial 2 on with 1, and MMSE+OPA+LS never fails,
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
    assert err.trial == first == 2
    assert (err.axis_value, err.scheme) == next(
        (frac, s.label) for frac, s in cells if fails(frac, s, first))
    with pytest.raises(type(err.__cause__)):
        run_trial(points[err.axis_value], Scheme.parse(err.scheme), 10.0, err.trial,
                  seed=err.seed)


def fail_at(monkeypatch, allocation, rho_f, error):
    """Make ``allocation`` raise ``error`` on any item whose rho_f is ``rho_f``."""
    allocator = SCHEMES["allocation"][allocation]

    def solve(precoder, coeffs, sigma_s2):
        if np.count_nonzero(coeffs.rho_f == rho_f):
            raise error
        return allocator.solve(precoder, coeffs, sigma_s2)

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

    def solve(precoder, coeffs, sigma_s2):
        result = upa_allocator.solve(precoder, coeffs, sigma_s2)
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
    # a trial's groups run as stacked stages (trial, "stacked") or, on the
    # trial that fails, once more one cell at a time (trial, SNR points)
    calls = collections.Counter()
    run = pipeline.run_cells

    def counted(draw, schemes, snr_db, *args, **kwargs):
        # the sweep's schemes run together; a re-run cell runs alone
        calls[draw.trial, "stacked" if len(schemes) > 1 else np.shape(snr_db)] += 1
        return run(draw, schemes, snr_db, *args, **kwargs)

    monkeypatch.setattr(pipeline, "run_cells", counted)
    # one-point groups: each group's stages run once per trial; the failing
    # trial (trial 2; see the test above) re-runs each cell once, up to the
    # failing one, the last of the four
    cfg = cfg_with(**RANK_DEFICIENT)
    schemes = [Scheme.parse("MMSE+OPA+LS"), Scheme.parse("ZF+UPA+LS")]
    with pytest.raises(TrialError) as caught:
        run_sweep(cfg, schemes, "selection_fraction", trials=40, axis_values=(0.25, 0.125))
    assert caught.value.trial == 2
    assert calls == {**{(t, "stacked"): 2 for t in range(3)}, (2, (1,)): 4}

    # a grid that fails re-runs its trial once, split into points: the first
    # scheme fails at point 2 and the second at point 0, and the split run
    # names the second scheme at point 0
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
    assert calls == {(0, "stacked"): 1, (1, "stacked"): 1, (1, (1,)): 2}


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
