import numpy as np
import pytest

from cellfree.metrics import SinrCoefficients, analytic_sinr, sinr_coefficients
from cellfree.power_allocation import (apa_cost, apa_gradient, apa_sgd,
                                       opa_bisection, sinr_feasible, upa)
from cellfree.precoding import PrecoderOutput, mmse_precoder


def random_instance(rng, m=5, k=2, rho_f=2.0, sigma_w2=0.5):
    """Coefficients and loadings from an actual precoder on a random channel."""
    g = rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
    err_var = rng.uniform(0.0, 0.2, size=(m, k))
    pre = mmse_precoder(g, np.ones(k), e_tr=float(m), rho_f=rho_f, sigma_w2=sigma_w2)
    coeffs = sinr_coefficients(pre.p, g, err_var, rho_f, sigma_w2)
    return coeffs, pre.delta, pre, g


def grid_max_min(coeffs, delta, resolution=1000):
    """Independent oracle: exhaustive grid over the per-user power box."""
    cap = 1.0 / delta.max(axis=0)
    e1 = np.linspace(0.0, cap[0], resolution + 1)[:, None]
    e2 = np.linspace(0.0, cap[1], resolution + 1)[None, :]
    feasible = np.ones((resolution + 1, resolution + 1), dtype=bool)
    for m in range(delta.shape[0]):
        feasible &= delta[m, 0] * e1 + delta[m, 1] * e2 <= 1.0 + 1e-12
    rho, sw2 = coeffs.rho_f, coeffs.sigma_w2
    s1 = rho * e1 * coeffs.psi[0] / (
        sw2 + rho * (coeffs.phi[0, 1] * e2
                     + coeffs.gamma[0, 0] * e1 + coeffs.gamma[0, 1] * e2))
    s2 = rho * e2 * coeffs.psi[1] / (
        sw2 + rho * (coeffs.phi[1, 0] * e1
                     + coeffs.gamma[1, 0] * e1 + coeffs.gamma[1, 1] * e2))
    worst = np.minimum(s1, s2)
    worst[~feasible] = -np.inf
    return float(worst.max())


# ------------------------------------------------------------------ loadings

def test_power_loadings():
    def delta(p):
        return PrecoderOutput(p=p, f=1.0).delta

    assert np.array_equal(delta(np.eye(3, dtype=complex)), np.eye(3))
    assert delta(np.array([[3.0 + 4.0j]]))[0, 0] == 25.0
    rng = np.random.default_rng(0)
    p = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    assert np.array_equal(delta(p), np.abs(p) ** 2)


# ------------------------------------------------------------------- uniform

def test_uniform_allocation_examples():
    delta = np.array([[0.5], [0.2]])
    res = upa(delta)
    assert np.allclose(res.eta, 2.0)
    res_scaled = upa(3.0 * delta)
    assert np.allclose(res_scaled.eta, res.eta / 3.0)
    rng = np.random.default_rng(1)
    delta = rng.uniform(0.1, 1.0, size=(4, 2))
    res = upa(delta)
    assert abs(np.max(delta @ res.eta) - 1.0) < 1e-12
    with pytest.raises(ValueError, match="zero"):
        upa(np.zeros((3, 2)))


# --------------------------------------------------------------- feasibility

def test_zero_target_always_feasible():
    coeffs, delta, _, _ = random_instance(np.random.default_rng(2))
    ok, eta = sinr_feasible(0.0, coeffs, delta)
    assert ok and np.all(eta == 0.0)


def test_single_user_boundary():
    rho, sw2 = 2.0, 0.5
    psi, dmax = 3.0, 0.4
    coeffs = SinrCoefficients(psi=np.array([psi]), phi=np.array([[psi]]),
                              gamma=np.zeros((1, 1)), rho_f=rho, sigma_w2=sw2)
    delta = np.array([[dmax], [dmax / 2]])
    t_star = rho * psi / (sw2 * dmax)
    ok, eta = sinr_feasible(t_star * (1 - 1e-6), coeffs, delta)
    assert ok
    assert np.isclose(analytic_sinr(coeffs, eta)[0], t_star * (1 - 1e-6))
    ok, _ = sinr_feasible(t_star * (1 + 1e-6), coeffs, delta)
    assert not ok


def test_feasibility_monotone_in_target():
    rng = np.random.default_rng(3)
    for _ in range(10):
        coeffs, delta, _, _ = random_instance(rng)
        res = opa_bisection(coeffs, delta, iterations=40, tol=0.0)
        t = res.achieved_t
        for frac in (0.9, 0.5, 0.1):
            ok, _ = sinr_feasible(frac * t, coeffs, delta)
            assert ok


def test_two_user_grid_oracle_and_minimality():
    rng = np.random.default_rng(4)
    for _ in range(5):
        coeffs, delta, _, _ = random_instance(rng)
        t_grid = grid_max_min(coeffs, delta)
        res = opa_bisection(coeffs, delta, iterations=60, tol=0.0)
        t_star = res.achieved_t
        assert t_grid <= t_star * (1 + 1e-9) + 1e-15
        assert t_star <= t_grid * 1.05
        ok, eta = sinr_feasible(0.9 * t_grid, coeffs, delta)
        assert ok
        sinr = analytic_sinr(coeffs, eta)
        assert np.all(sinr >= 0.9 * t_grid * (1 - 1e-9))
        for k in range(2):
            bumped = eta.copy()
            bumped[k] *= 1.0 - 1e-6
            assert analytic_sinr(coeffs, bumped)[k] < 0.9 * t_grid


# ----------------------------------------------------------------- bisection

def test_bisection_reaches_single_user_optimum():
    rho, sw2 = 1.5, 0.25
    psi, dmax = 2.0, 0.8
    delta = np.array([[dmax], [dmax / 3]])
    # no estimation error: optimum at the interference-free cap
    coeffs = SinrCoefficients(psi=np.array([psi]), phi=np.array([[psi]]),
                              gamma=np.zeros((1, 1)), rho_f=rho, sigma_w2=sw2)
    t_star = rho * psi / (sw2 * dmax)
    res = opa_bisection(coeffs, delta, iterations=60, tol=0.0)
    assert abs(res.achieved_t - t_star) < 1e-5 * t_star
    # with estimation error the cap still binds but the target is damped
    gamma = np.array([[0.3]])
    coeffs2 = SinrCoefficients(psi=np.array([psi]), phi=np.array([[psi]]),
                               gamma=gamma, rho_f=rho, sigma_w2=sw2)
    eta_cap = 1.0 / dmax
    t_star2 = rho * eta_cap * psi / (sw2 + rho * eta_cap * gamma[0, 0])
    res2 = opa_bisection(coeffs2, delta, iterations=60, tol=0.0)
    assert abs(res2.achieved_t - t_star2) < 1e-5 * t_star2


def default_t_hi(coeffs, delta):
    """The upper end of OPA's bracket: twice the largest interference-free
    SINR at a user's per-antenna power cap."""
    return 2.0 * float(np.max(coeffs.rho_f * coeffs.psi
                              / (coeffs.sigma_w2 * delta.max(axis=0))))


def test_bisection_interval_arithmetic():
    rng = np.random.default_rng(5)
    coeffs, delta, _, _ = random_instance(rng)
    ref = opa_bisection(coeffs, delta, iterations=60, tol=0.0).achieved_t
    coarse = opa_bisection(coeffs, delta, iterations=12, tol=0.0).achieved_t
    assert ref - coarse <= default_t_hi(coeffs, delta) / 2 ** 12 + 1e-12


def test_the_upper_bracket_end_is_never_feasible():
    # eta_k max_m delta[m,k] <= 1 bounds SINR_k by
    # rho_f psi_k / (sigma_w2 max_m delta[m,k]), at most half of t_hi, so
    # OPA's bracket [0, t_hi] needs no widening
    rng = np.random.default_rng(6)
    for m, k in [(5, 2), (6, 3), (12, 4), (4, 4)]:
        for _ in range(50):
            coeffs, delta, _, _ = random_instance(
                rng, m=m, k=k, rho_f=10.0 ** rng.uniform(-3, 3),
                sigma_w2=10.0 ** rng.uniform(-2, 1))
            ok, eta = sinr_feasible(default_t_hi(coeffs, delta), coeffs, delta)
            assert not ok and np.all(np.isnan(eta))


def test_bisection_result_dominates_uniform_allocation():
    rng = np.random.default_rng(7)
    for _ in range(20):
        coeffs, delta, _, _ = random_instance(rng, m=6, k=3)
        res = opa_bisection(coeffs, delta)
        uni = upa(delta)
        opa_min = float(np.min(analytic_sinr(coeffs, res.eta)))
        upa_min = float(np.min(analytic_sinr(coeffs, uni.eta)))
        assert np.max(delta @ res.eta) <= 1.0 + 1e-9
        assert opa_min >= upa_min * (1 - 1e-5) - 1e-12


# ---------------------------------------------------------------- adaptive SG

def test_zero_step_size_keeps_the_initialization():
    rng = np.random.default_rng(8)
    _, delta, pre, g = random_instance(rng)
    res = apa_sgd(pre, g, rho_f=2.0, sigma_w2=0.5, mu=0.0, iterations=4)
    for eta in res.eta_trace:
        assert np.allclose(eta, 1e-3)


def test_gradient_matches_central_finite_differences():
    rng = np.random.default_rng(9)
    k = 4
    effective = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    nu = rng.uniform(0.3, 1.5, size=k)
    rho_f, f, sw2, ss2 = 1.7, 1.3, 0.6, 0.9
    grad = apa_gradient(nu, effective, rho_f, f, ss2)
    analytic = 2.0 * np.real(np.diag(grad))
    h = 1e-6
    fd = np.empty(k)
    for i in range(k):
        up, dn = nu.copy(), nu.copy()
        up[i] += h
        dn[i] -= h
        fd[i] = (apa_cost(up, effective, rho_f, f, sw2, ss2)
                 - apa_cost(dn, effective, rho_f, f, sw2, ss2)) / (2 * h)
    assert np.linalg.norm(fd - analytic) < 1e-5 * np.linalg.norm(analytic)


def test_every_iteration_respects_the_antenna_cap():
    rng = np.random.default_rng(10)
    for _ in range(5):
        _, delta, pre, g = random_instance(rng, m=6, k=3)
        res = apa_sgd(pre, g, rho_f=2.0, sigma_w2=0.5, mu=0.25, iterations=6)
        for eta in res.eta_trace:
            assert np.max(pre.delta @ eta) <= 1.0 + 1e-9
        assert np.max(pre.delta @ res.eta) <= 1.0 + 1e-9


def test_cost_descends_from_the_initialization():
    rng = np.random.default_rng(11)
    _, delta, pre, g = random_instance(rng, m=8, k=3)
    res = apa_sgd(pre, g, rho_f=2.0, sigma_w2=0.5, mu=0.25, iterations=5)
    costs = np.asarray(res.cost_trace)
    assert costs.shape == (6,)
    assert costs[-1] < costs[0]


def test_oversized_step_raises():
    rng = np.random.default_rng(12)
    _, delta, pre, g = random_instance(rng)
    with pytest.raises(ValueError, match="step size"):
        apa_sgd(pre, g, rho_f=2.0, sigma_w2=0.5, mu=1e9, iterations=50)


def test_allocation_result_diagonal():
    rng = np.random.default_rng(13)
    coeffs, delta, _, _ = random_instance(rng)
    res = opa_bisection(coeffs, delta)
    assert np.array_equal(res.n_diag, np.sqrt(res.eta))
