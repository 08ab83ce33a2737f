"""End-to-end acceptance checks.

Every test prints one `criterion N ...: PASS/FAIL` line (run with
``pytest -s`` or ``-rA`` to see them). Statistical checks use fixed seeds,
paired trials and one-sided 95% confidence bounds; numeric identities carry
the tolerances stated in their assertions.
"""

import dataclasses
import time

import numpy as np

from cellfree.cli_io import main
from cellfree.metrics import analytic_sinr, ber_qpsk, sinr_coefficients
from cellfree.pipeline import Scheme, SolverParams, TrialDraw, _stream, run_trial
from cellfree.power_allocation import apa_sgd, apa_terms, opa_bisection, sinr_feasible, upa
from cellfree.precoding import mmse_precoder, zf_precoder
from reference import apa_cost, cfg_with, grid_max_min, random_channel


def report(num, label, ok, detail=""):
    print(f"criterion {num:2d} ({label}): {'PASS' if ok else 'FAIL'}"
          + (f" — {detail}" if detail else ""))
    assert ok, f"criterion {num} ({label}) failed: {detail}"


def random_opa_instance(rng, m=5, k=2, rho_f=2.0, sigma_w2=0.5):
    g = random_channel(rng, m, k)
    err_var = rng.uniform(0.0, 0.2, size=(m, k))
    pre = mmse_precoder(g, np.ones(k), float(m), rho_f, sigma_w2)
    coeffs = sinr_coefficients(pre.p, g, err_var, rho_f, sigma_w2)
    return coeffs, pre, g


def paired_lower_bound(diffs):
    """One-sided 95% lower confidence bound for the mean of paired diffs."""
    d = np.asarray(diffs, dtype=float)
    return d.mean() - 1.645 * d.std(ddof=1) / np.sqrt(d.size)


# --------------------------------------------------------------------- 1

def test_criterion_1_total_power_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 33))
        k = int(rng.integers(1, min(m, 9)))
        g = random_channel(rng, m, k)
        e_tr = float(rng.uniform(0.5, 50.0))
        rho_f = float(rng.uniform(0.1, 10.0))
        sigma_s2 = float(rng.uniform(0.5, 2.0))
        out = mmse_precoder(g, np.ones(k), e_tr, rho_f,
                            float(rng.uniform(0.1, 3.0)), sigma_s2=sigma_s2)
        total = rho_f * sigma_s2 * np.linalg.norm(out.p) ** 2
        worst = max(worst, abs(total - e_tr) / e_tr)
    elapsed = time.perf_counter() - start
    report(1, "total-power identity", worst < 1e-9 and elapsed < 5.0,
           f"max relative error {worst:.2e}, {elapsed:.2f}s")


# --------------------------------------------------------------------- 2

def test_criterion_2_ridge_system_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_stat, worst_rel = 0.0, 0.0
    for _ in range(100):
        m = int(rng.integers(2, 25))
        k = int(rng.integers(1, min(m, 8)))
        g = random_channel(rng, m, k)
        eps = float(rng.uniform(0.01, 2.0))
        sigma_s2 = float(rng.uniform(0.5, 2.0))
        out = mmse_precoder(g, None, e_tr=k, rho_f=1.0, sigma_w2=eps)   # ridge eps
        p_tilde = out.p / out.f
        a = g.conj() @ g.T + eps * np.eye(m)
        stat = np.linalg.norm(a @ p_tilde - g.conj()) / np.linalg.norm(g)
        worst_stat = max(worst_stat, stat)
        c_s = sigma_s2 * np.eye(k)
        lhs = np.trace(np.real(g.T @ p_tilde @ c_s))
        rhs = np.trace(a @ p_tilde @ c_s @ p_tilde.conj().T).real
        worst_rel = max(worst_rel, abs(lhs - rhs) / abs(rhs))
    elapsed = time.perf_counter() - start
    report(2, "ridge-system identities",
           worst_stat < 1e-9 and worst_rel < 1e-9 and elapsed < 5.0,
           f"stationarity {worst_stat:.2e}, trace relation {worst_rel:.2e}, "
           f"{elapsed:.2f}s")


# --------------------------------------------------------------------- 3

def test_criterion_3_sinr_terms_match_symbol_level_monte_carlo():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    draws = 10 ** 5
    worst = 0.0
    for _ in range(10):
        m = int(rng.integers(3, 7))
        k = int(rng.integers(2, 4))
        g_hat = random_channel(rng, m, k)
        p = random_channel(rng, m, k)
        err_var = rng.uniform(0.05, 0.5, size=(m, k))
        eta = rng.uniform(0.2, 1.0, size=k)
        rho_f = float(rng.uniform(0.5, 3.0))
        coeffs = sinr_coefficients(p, g_hat, err_var, rho_f, 1.0)
        n_diag = np.sqrt(eta)
        sym = (rng.standard_normal((draws, k))
               + 1j * rng.standard_normal((draws, k))) / np.sqrt(2)
        for kk in range(k):
            for i in range(k):
                amp = np.sqrt(rho_f) * (g_hat[:, kk] @ p[:, i]) * n_diag[i]
                mc = np.mean(np.abs(amp * sym[:, i]) ** 2)
                ref = rho_f * eta[i] * coeffs.phi[kk, i]
                worst = max(worst, abs(mc - ref) / ref)
            scale = np.sqrt(err_var[:, kk] / 2.0)
            g_err = scale * (rng.standard_normal((draws, m))
                             + 1j * rng.standard_normal((draws, m)))
            mixed = np.sqrt(rho_f) * np.einsum("dm,mi,i,di->d",
                                               g_err, p, n_diag, sym)
            mc = np.mean(np.abs(mixed) ** 2)
            ref = rho_f * float(coeffs.gamma[kk] @ eta)
            worst = max(worst, abs(mc - ref) / ref)
    elapsed = time.perf_counter() - start
    report(3, "SINR terms vs symbol-level Monte-Carlo",
           worst < 0.02 and elapsed < 60.0,
           f"max relative gap {worst:.3%}, {elapsed:.1f}s")


# --------------------------------------------------------------------- 4

def test_criterion_4_max_min_allocation_correctness():
    start = time.perf_counter()
    # closed-form single-user optimum
    from cellfree.metrics import SinrCoefficients
    rho, sw2, psi, dmax = 1.5, 0.25, 2.0, 0.8
    coeffs1 = SinrCoefficients(psi=np.array([psi]), phi=np.array([[psi]]),
                               gamma=np.zeros((1, 1)), rho_f=rho, sigma_w2=sw2)
    delta1 = np.array([[dmax], [dmax / 3]])
    t_star = rho * psi / (sw2 * dmax)
    got = opa_bisection(coeffs1, delta1, iterations=60, tol=0.0).achieved_t
    closed_ok = abs(got - t_star) < 1e-5 * t_star

    rng = np.random.default_rng(404)
    grid_ok, dominance_ok = True, True
    for _ in range(20):
        coeffs, pre, g = random_opa_instance(rng)
        res = opa_bisection(coeffs, pre.delta, iterations=60, tol=0.0)
        t_grid = grid_max_min(coeffs, pre.delta, resolution=1000)
        grid_ok &= t_grid <= res.achieved_t * (1 + 1e-9) + 1e-15
        grid_ok &= res.achieved_t <= t_grid * 1.05
        ok_low, _ = sinr_feasible(0.95 * t_grid, coeffs, pre.delta)
        ok_high, _ = sinr_feasible(res.achieved_t * 1.0001, coeffs, pre.delta)
        grid_ok &= ok_low and not ok_high
        opa_min = float(np.min(analytic_sinr(coeffs, res.eta)))
        upa_min = float(np.min(analytic_sinr(coeffs, upa(pre.delta).eta)))
        apa = apa_sgd(pre, coeffs, mu=0.25, iterations=5)
        apa_min = float(np.min(analytic_sinr(coeffs, apa.eta)))
        dominance_ok &= opa_min >= upa_min * (1 - 1e-5) - 1e-12
        dominance_ok &= opa_min >= apa_min * (1 - 1e-5) - 1e-12
    elapsed = time.perf_counter() - start
    report(4, "max-min allocation vs closed form and grid oracle",
           closed_ok and grid_ok and dominance_ok and elapsed < 60.0,
           f"closed-form {closed_ok}, grid {grid_ok}, dominance {dominance_ok}, "
           f"{elapsed:.1f}s")


# --------------------------------------------------------------------- 5

def test_criterion_5_adaptive_allocation_learning():
    cfg = cfg_with(num_aps=24, antennas_per_ap=4, num_users=8,
                   selected_aps=12, csi_quality=1.0, snr_grid_db=(25.0,))
    scheme = Scheme.parse("MMSE+APA+LS")
    good = 0
    trials = 50
    for t in range(trials):
        res = run_trial(cfg, scheme, 25.0, t)
        c = np.asarray(res.n_first.cost_trace)
        # converged learning: after the first update the cost never rises
        # above that update's level at curve resolution. The uniform
        # rescaling onto the antenna cap drifts the boundary iterate by
        # well under 1% per realization, while a wrong gradient or an
        # unstable step blows far past this band.
        good += bool(np.all(c[2:] <= c[1] * 1.01) and c[-1] < c[0])
    rate = good / trials

    # the step direction c nu - b is half the derivative of the cost in nu
    rng = np.random.default_rng(505)
    k, ss2 = 5, 0.9
    coeffs, pre, _ = random_opa_instance(rng, m=8, k=k, rho_f=1.7, sigma_w2=0.6)
    nu = rng.uniform(0.3, 1.5, size=k)
    c, b, _ = apa_terms(coeffs, pre.f, ss2)
    analytic = 2.0 * (c * nu - b)
    h = 1e-6
    fd = np.empty(k)
    for i in range(k):
        up, dn = nu.copy(), nu.copy()
        up[i] += h
        dn[i] -= h
        fd[i] = (apa_cost(up, coeffs, pre.f, ss2)
                 - apa_cost(dn, coeffs, pre.f, ss2)) / (2 * h)
    grad_err = np.linalg.norm(fd - analytic) / np.linalg.norm(analytic)
    report(5, "adaptive allocation learning behavior",
           rate >= 0.9 and grad_err < 1e-5,
           f"stable-descent rate {rate:.0%}, gradient error {grad_err:.2e}")


# --------------------------------------------------------------------- 6

def test_criterion_6_exhaustive_beats_gain_ranked_selection():
    start = time.perf_counter()
    cfg = cfg_with(num_aps=5, antennas_per_ap=1, num_users=2,
                   selected_aps=3, csi_quality=0.99, snr_grid_db=(10.0,))
    violations = 0
    for t in range(50):
        es = run_trial(cfg, Scheme.parse("MMSE+OPA+ES"), 10.0, t)
        ls = run_trial(cfg, Scheme.parse("MMSE+OPA+LS"), 10.0, t)
        if es.metrics.min_sinr < ls.metrics.min_sinr * (1 - 1e-9):
            violations += 1
    cfg_all = dataclasses.replace(cfg, selected_aps=5)
    ns = run_trial(cfg_all, Scheme.parse("MMSE+OPA+NS"), 10.0, 0)
    full_ls = run_trial(cfg_all, Scheme.parse("MMSE+OPA+LS"), 10.0, 0)
    full_es = run_trial(cfg_all, Scheme.parse("MMSE+OPA+ES"), 10.0, 0)
    neutral = (full_ls.metrics.min_sinr == ns.metrics.min_sinr
               and full_es.metrics.min_sinr == ns.metrics.min_sinr
               and np.array_equal(full_ls.n_final.eta, ns.n_final.eta)
               and np.array_equal(full_es.precoder.p, ns.precoder.p))
    elapsed = time.perf_counter() - start
    report(6, "exhaustive vs gain-ranked selection",
           violations == 0 and neutral and elapsed < 120.0,
           f"violations {violations}/50, full-selection neutral {neutral}, "
           f"{elapsed:.1f}s")


# --------------------------------------------------------------------- 7

def test_criterion_7_scheme_ordering_at_desk_scale():
    start = time.perf_counter()
    cfg = cfg_with(num_aps=32, antennas_per_ap=1, num_users=8,
                   selected_aps=16, csi_quality=0.99,
                   snr_grid_db=(5.0, 15.0, 25.0))
    trials = 60
    labels = ["MMSE+OPA+LS", "ZF+OPA+LS", "CB+OPA+LS",
              "MMSE+UPA+LS", "ZF+UPA+LS"]
    # per-trial sum rate averaged over the SNR grid; trials are paired
    # across schemes through common channel realizations
    table = {}
    for label in labels:
        scheme = Scheme.parse(label)
        per_trial = np.zeros(trials)
        for snr in cfg.snr_grid_db:
            for t in range(trials):
                per_trial[t] += run_trial(cfg, scheme, snr, t).metrics.sum_rate
        table[label] = per_trial / len(cfg.snr_grid_db)

    checks = {
        "MMSE+OPA>=ZF+OPA": paired_lower_bound(table["MMSE+OPA+LS"] - table["ZF+OPA+LS"]),
        "ZF+OPA>=CB+OPA": paired_lower_bound(table["ZF+OPA+LS"] - table["CB+OPA+LS"]),
        "MMSE+UPA>=ZF+UPA": paired_lower_bound(table["MMSE+UPA+LS"] - table["ZF+UPA+LS"]),
    }
    elapsed = time.perf_counter() - start
    ok = all(lb >= 0.0 for lb in checks.values()) and elapsed < 600.0
    detail = ", ".join(f"{name} lb {lb:+.3f}" for name, lb in checks.items())
    report(7, "scheme ordering over the SNR grid", ok, detail + f", {elapsed:.0f}s")


# --------------------------------------------------------------------- 8

def test_criterion_8_half_selection_keeps_most_of_the_rate():
    cfg_half = cfg_with(num_aps=128, antennas_per_ap=1, num_users=16,
                        selected_aps=64, csi_quality=1.0, snr_grid_db=(10.0,))
    cfg_full = dataclasses.replace(cfg_half, selected_aps=128)
    scheme = Scheme.parse("MMSE+OPA+LS")
    trials = 60
    half = np.array([run_trial(cfg_half, scheme, 10.0, t).metrics.sum_rate
                     for t in range(trials)])
    full = np.array([run_trial(cfg_full, scheme, 10.0, t).metrics.sum_rate
                     for t in range(trials)])
    ratio = half.mean() / full.mean()
    report(8, "half selection keeps 90% of the rate", ratio >= 0.9,
           f"mean sum-rate ratio {ratio:.3f} over {trials} trials")


# --------------------------------------------------------------------- 9

def test_criterion_9_error_rate_sanity():
    # exact zero without noise, ideal zero forcing
    cfg = cfg_with(num_aps=8, antennas_per_ap=1, num_users=3, selected_aps=8,
                   csi_quality=1.0)
    real = TrialDraw(cfg, 0, cfg.rng_seed).realization
    pre = zf_precoder(real.g_hat)
    alloc = upa(pre.delta)
    zero_ber, _ = ber_qpsk(pre.p, alloc.n_diag, real.g, real.g_hat, 1.0, 0.0,
                           500, _stream(cfg.rng_seed, 0, "symbols"),
                           noise_rng=_stream(cfg.rng_seed, 0, "noise"))

    # coin flips when the noise dominates everything
    noisy_ber, _ = ber_qpsk(pre.p, alloc.n_diag, real.g, real.g_hat, 1.0,
                            1e30, 5000, np.random.default_rng(909))

    # monotone in SNR across the BER preset grid (95% one-sided, paired)
    cfg_ber = cfg_with(num_aps=24, antennas_per_ap=4, num_users=8,
                       selected_aps=12, csi_quality=1.0)
    scheme = Scheme.parse("MMSE+OPA+LS")
    trials = 60
    grid = cfg_ber.snr_grid_db
    ber = np.zeros((len(grid), trials))
    for j, snr in enumerate(grid):
        for t in range(trials):
            ber[j, t] = run_trial(cfg_ber, scheme, snr, t,
                                  SolverParams()).metrics.ber
    monotone = True
    for j in range(len(grid) - 1):
        d = ber[j + 1] - ber[j]
        se = d.std(ddof=1) / np.sqrt(trials)
        monotone &= d.mean() <= 1.645 * se + 1e-12
    report(9, "error-rate sanity",
           zero_ber == 0.0 and abs(noisy_ber - 0.5) < 0.02 and monotone,
           f"noiseless {zero_ber}, saturated {noisy_ber:.3f}, "
           f"monotone {monotone}, means {np.round(ber.mean(axis=1), 4).tolist()}")


# -------------------------------------------------------------------- 10

def test_criterion_10_reruns_are_byte_identical(tmp_path):
    for preset, trials in (("fig-tiny-opa", 2), ("fig-learning", 2)):
        paths = []
        for run in range(2):
            out = tmp_path / f"{preset}-{run}.csv"
            code = main(["run", "--preset", preset, "--out", str(out),
                         "--trials", str(trials), "--seed", "20240"])
            assert code == 0
            paths.append(out)
        same_csv = paths[0].read_bytes() == paths[1].read_bytes()
        side = [p.with_name(p.name + ".config.json") for p in paths]
        same_side = side[0].read_bytes() == side[1].read_bytes()
        report(10, f"deterministic rerun of {preset}", same_csv and same_side,
               "CSV and sidecar byte-identical")
