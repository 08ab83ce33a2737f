import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc

from cellfree.channel import SystemConfig, generate_realization
from cellfree.metrics import (analytic_sinr, ber_qpsk, rates, reduce_axis,
                              sinr_coefficients, snr_to_rho_f)
from cellfree.power_allocation import upa
from cellfree.precoding import cb_precoder, zf_precoder


def random_setup(rng, m=4, k=2, n=0.8):
    g_hat = rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
    p = rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
    err_var = (1 - n) * rng.uniform(0.5, 2.0, size=(m, k))
    eta = rng.uniform(0.1, 1.0, size=k)
    return g_hat, p, err_var, eta


def mc_component_powers(p, eta, g_hat, err_var, rho_f, rng, draws):
    """Symbol-level estimates of the signal/interference/error powers.

    Transmits one user's unit-variance symbols at a time; the estimation
    error term redraws the error channel every trial.
    """
    m, k = p.shape
    n_diag = np.sqrt(eta)
    sym = (rng.standard_normal((draws, k)) + 1j * rng.standard_normal((draws, k))) / np.sqrt(2)
    a1 = np.empty(k)
    a2 = np.zeros((k, k))
    a3 = np.empty(k)
    for kk in range(k):
        for i in range(k):
            amp = np.sqrt(rho_f) * (g_hat[:, kk] @ p[:, i]) * n_diag[i]
            power = np.mean(np.abs(amp * sym[:, i]) ** 2)
            if i == kk:
                a1[kk] = power
            else:
                a2[kk, i] = power
        scale = np.sqrt(err_var[:, kk] / 2.0)
        g_err = scale * (rng.standard_normal((draws, m))
                         + 1j * rng.standard_normal((draws, m)))
        mixed = np.sqrt(rho_f) * np.einsum("dm,mi,i,di->d", g_err, p, n_diag, sym)
        a3[kk] = np.mean(np.abs(mixed) ** 2)
    return a1, a2, a3


# ------------------------------------------------------------- coefficients

def test_perfect_csi_has_zero_error_coefficients():
    rng = np.random.default_rng(0)
    g_hat, p, _, _ = random_setup(rng)
    coeffs = sinr_coefficients(p, g_hat, np.zeros(g_hat.shape), 2.0, 1.0)
    assert np.all(coeffs.gamma == 0.0)


def test_identity_setup_coefficients():
    eye = np.eye(3, dtype=complex)
    coeffs = sinr_coefficients(eye, eye, np.zeros((3, 3)), 1.0, 1.0)
    assert np.allclose(coeffs.psi, 1.0)
    off = coeffs.phi - np.diag(np.diag(coeffs.phi))
    assert np.all(off == 0.0)


def test_error_coefficient_matches_loop_oracle():
    rng = np.random.default_rng(1)
    g_hat, p, err_var, _ = random_setup(rng)
    coeffs = sinr_coefficients(p, g_hat, err_var, 2.0, 1.0)
    k = p.shape[1]
    for kk in range(k):
        for i in range(k):
            oracle = np.sum(err_var[:, kk] * np.abs(p[:, i]) ** 2)
            assert np.isclose(coeffs.gamma[kk, i], oracle)
            assert np.isclose(coeffs.phi[kk, i], np.abs(g_hat[:, kk] @ p[:, i]) ** 2)


def test_error_power_monte_carlo():
    rng = np.random.default_rng(2)
    g_hat, p, err_var, eta = random_setup(rng)
    rho_f = 1.7
    coeffs = sinr_coefficients(p, g_hat, err_var, rho_f, 1.0)
    _, _, a3 = mc_component_powers(p, eta, g_hat, err_var, rho_f,
                                   np.random.default_rng(3), draws=10 ** 5)
    expected = rho_f * (coeffs.gamma @ eta)
    assert np.all(np.abs(a3 - expected) <= 0.02 * expected)


# ------------------------------------------------------------------- ratios

def test_sinr_zero_power_and_single_user():
    rng = np.random.default_rng(4)
    g_hat, p, err_var, _ = random_setup(rng)
    coeffs = sinr_coefficients(p, g_hat, err_var, 2.0, 0.7)
    assert np.all(analytic_sinr(coeffs, np.zeros(2)) == 0.0)
    solo = sinr_coefficients(p[:, :1], g_hat[:, :1], np.zeros((4, 1)), 2.0, 0.7)
    eta = np.array([0.3])
    expected = 2.0 * 0.3 * solo.psi[0] / 0.7
    assert np.isclose(analytic_sinr(solo, eta)[0], expected)


def test_sinr_matches_symbol_level_estimate():
    rng = np.random.default_rng(5)
    g_hat, p, err_var, eta = random_setup(rng)
    rho_f, sw2 = 1.3, 0.4
    coeffs = sinr_coefficients(p, g_hat, err_var, rho_f, sw2)
    a1, a2, a3 = mc_component_powers(p, eta, g_hat, err_var, rho_f,
                                     np.random.default_rng(6), draws=10 ** 5)
    empirical = a1 / (sw2 + a2.sum(axis=1) + a3)
    assert np.all(np.abs(empirical - analytic_sinr(coeffs, eta))
                  <= 0.02 * analytic_sinr(coeffs, eta))


def test_sinr_with_power_absorbed_into_the_precoder():
    rng = np.random.default_rng(7)
    g_hat, p, err_var, eta = random_setup(rng)
    coeffs = sinr_coefficients(p, g_hat, err_var, 2.0, 0.9)
    absorbed = sinr_coefficients(p * np.sqrt(eta)[None, :], g_hat, err_var, 2.0, 0.9)
    direct = analytic_sinr(coeffs, eta)
    unit = analytic_sinr(absorbed, np.ones(2))
    assert np.all(np.abs(direct - unit) <= 1e-9 * direct)


def test_sinr_scale_consistency():
    rng = np.random.default_rng(8)
    g_hat, p, err_var, eta = random_setup(rng)
    c1 = sinr_coefficients(p, g_hat, err_var, 2.0, 0.9)
    c2 = dataclasses.replace(c1, rho_f=2.0 * 7.0, sigma_w2=0.9 * 7.0)
    assert np.allclose(analytic_sinr(c1, eta), analytic_sinr(c2, eta))


# -------------------------------------------------------------------- rates

def test_rate_aggregation():
    lm = rates(np.array([1.0, 3.0]))
    assert np.array_equal(lm.per_user_rate, [1.0, 2.0])
    assert lm.sum_rate == 3.0
    assert lm.min_sinr == 1.0
    assert rates(np.zeros(4)).sum_rate == 0.0
    assert rates(np.array([15.0])).per_user_rate[0] == 4.0


# ---------------------------------------------------------------- snr mapping

def test_power_scale_mapping():
    rng = np.random.default_rng(9)
    k, sw2 = 3, 0.8
    g = rng.standard_normal((5, k)) + 1j * rng.standard_normal((5, k))
    g = g * np.sqrt(k * sw2) / np.linalg.norm(g)
    assert np.isclose(snr_to_rho_f(1.0, g, sw2), 1.0)
    assert np.isclose(snr_to_rho_f(2.0, g, sw2), 2.0 * snr_to_rho_f(1.0, g, sw2))
    g2 = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    snr = 7.321
    rho = snr_to_rho_f(snr, g2, sw2)
    back = rho * np.linalg.norm(g2) ** 2 / (2 * sw2)
    assert abs(back - snr) < 1e-12 * snr
    with pytest.raises(ValueError, match="zero"):
        snr_to_rho_f(1.0, np.zeros((4, 2)), sw2)


def test_power_scale_of_an_snr_grid_equals_its_scalar_calls_bitwise():
    rng = np.random.default_rng(10)
    g = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
    snrs = [10.0 ** (db / 10.0) for db in rng.uniform(-90.0, 60.0, size=40)]
    grid = snr_to_rho_f(np.array(snrs), g, 0.37)
    assert grid.shape == (40,)
    assert all(grid[i] == snr_to_rho_f(snr, g, 0.37) for i, snr in enumerate(snrs))
    # K is the last axis of the estimate
    assert snr_to_rho_f(1.0, g, 0.37) == 1.0 * 3 * 0.37 / np.linalg.norm(g) ** 2


# ----------------------------------------------------------------------- BER

def perfect_csi_realization(seed=0, **overrides):
    cfg = dataclasses.replace(SystemConfig(), csi_quality=1.0, **overrides)
    if cfg.selected_aps > cfg.num_aps:
        cfg = dataclasses.replace(cfg, selected_aps=cfg.num_aps)
    cfg = cfg.validate()
    streams = [np.random.default_rng([seed, i]) for i in range(3)]
    return cfg, generate_realization(cfg, *streams)


def test_noiseless_zero_forcing_is_error_free():
    cfg, real = perfect_csi_realization(num_aps=8, num_users=3)
    pre = zf_precoder(real.g_hat)
    alloc = upa(pre.delta)
    ber, flagged = ber_qpsk(pre.p, alloc.n_diag, real.g, real.g_hat, 1.0, 0.0,
                            500, np.random.default_rng(1))
    assert ber == 0.0 and flagged == 0


def test_overwhelming_noise_gives_coin_flips():
    cfg, real = perfect_csi_realization(num_aps=8, num_users=3, rng_seed=3)
    pre = zf_precoder(real.g_hat)
    alloc = upa(pre.delta)
    ber, _ = ber_qpsk(pre.p, alloc.n_diag, real.g, real.g_hat, 1.0, 1e30,
                      5000, np.random.default_rng(2))
    assert abs(ber - 0.5) < 0.02


def test_single_user_error_rate_matches_gaussian_tail():
    cfg, real = perfect_csi_realization(num_aps=6, num_users=1)
    pre = cb_precoder(real.g_hat)
    alloc = upa(pre.delta)
    coeffs = sinr_coefficients(pre.p, real.g_hat, np.zeros(real.g_hat.shape),
                               1.0, 1.0)
    sinr = analytic_sinr(coeffs, alloc.eta)[0]
    # pick the noise level so the predicted error rate is testable
    sw2 = sinr / 4.0
    target = sinr / sw2  # effective post-detection SINR 4 -> Q(2)
    symbols = 200000
    ber, _ = ber_qpsk(pre.p, alloc.n_diag, real.g, real.g_hat, 1.0, sw2,
                      symbols, np.random.default_rng(5))
    predicted = 0.5 * erfc(np.sqrt(target) / np.sqrt(2))
    tol = 3.0 * np.sqrt(predicted * (1 - predicted) / (2 * symbols))
    assert abs(ber - predicted) < tol + 1e-6


def test_degenerate_gain_counts_as_random_bits():
    cfg, real = perfect_csi_realization(num_aps=8, num_users=2, rng_seed=9)
    pre = zf_precoder(real.g_hat)
    p = pre.p.copy()
    p[:, 1] = 0.0
    alloc = upa(np.abs(p) ** 2 + 1e-30)
    ber, flagged = ber_qpsk(p, alloc.n_diag, real.g, real.g_hat, 1.0, 0.0,
                            400, np.random.default_rng(6))
    assert flagged == 1
    assert np.isclose(ber, 0.25)  # healthy user error-free, dead user at 0.5


def test_bit_and_noise_streams_are_separable():
    cfg, real = perfect_csi_realization(num_aps=8, num_users=2, rng_seed=4)
    pre = zf_precoder(real.g_hat)
    alloc = upa(pre.delta)
    args = (pre.p, alloc.n_diag, real.g, real.g_hat, 1.0, 1e-3, 100)
    b1, _ = ber_qpsk(*args, np.random.default_rng(7),
                     noise_rng=np.random.default_rng(8))
    b2, _ = ber_qpsk(*args, np.random.default_rng(7),
                     noise_rng=np.random.default_rng(8))
    assert b1 == b2


@pytest.mark.parametrize("name, value", [
    ("symbols_per_packet", 0), ("symbols_per_packet", -3), ("symbols_per_packet", 2.0),
    ("symbols_per_packet", True), ("packets", 0), ("packets", -1), ("packets", 1.5),
    ("sigma_w2", -1e-3), ("sigma_w2", np.nan), ("sigma_w2", np.inf)])
def test_ber_refuses_an_invalid_packet_shape_or_noise_variance(name, value):
    """A count that is not an integer of at least 1, or a noise variance that
    is negative or not finite, raises a ValueError naming the argument."""
    _, real = perfect_csi_realization(num_aps=8, num_users=3)
    pre = zf_precoder(real.g_hat)
    args = {"sigma_w2": 1e-3, "symbols_per_packet": 100, "packets": 1, name: value}
    with pytest.raises(ValueError, match=name):
        ber_qpsk(pre.p, upa(pre.delta).n_diag, real.g, real.g_hat, 1.0,
                 rng=np.random.default_rng(1), **args)


@pytest.mark.parametrize("build", [zf_precoder, cb_precoder])
@pytest.mark.parametrize("per_item", [False, True])
def test_stride_zero_precoders_measure_as_their_materialized_copies(build, per_item):
    """An SNR-free precoder broadcast over the SNR points with stride 0, as
    ``run_cell`` hands ZF and CB grids over, and its estimate shared or so
    broadcast too, gives bitwise the BER and degenerate count of its copy."""
    cfg, real = perfect_csi_realization(num_aps=8, num_users=3, rng_seed=11)
    pre = build(real.g_hat)
    p = pre.p.copy()
    p[:, 2] = 0.0                             # user 2 has no gain at any point
    sigma_w2 = cfg.noise_variance_w()
    rho_f = snr_to_rho_f(10.0 ** (np.array([-10.0, 10.0, 30.0]) / 10.0), real.g_hat, sigma_w2)
    p = np.broadcast_to(p, rho_f.shape + p.shape)
    n_diag = np.broadcast_to(upa(pre.delta).n_diag, rho_f.shape + (3,))
    g_hat = np.broadcast_to(real.g_hat, p.shape) if per_item else real.g_hat
    assert 0 in p.strides and 0 in n_diag.strides

    def measure(p, n_diag, rho_f=rho_f):
        return ber_qpsk(p, n_diag, real.g, g_hat, rho_f, sigma_w2, 64, np.random.default_rng(3),
                        packets=2, noise_rng=np.random.default_rng(4))

    ber, flagged = measure(p, n_diag)
    want, want_flagged = measure(p.copy(), n_diag.copy())
    assert ber.tobytes() == want.tobytes() and flagged == want_flagged == 3
    # one rho_f and one n_diag leave the precoder's stride-0 axis the only
    # item axis, which the result still carries, each point counted once
    ber, flagged = measure(p, n_diag[0], rho_f[1])
    want, want_flagged = measure(p.copy(), n_diag[0], rho_f[1])
    assert ber.shape == (3,) and ber.tobytes() == want.tobytes()
    assert flagged == want_flagged == 3


# every ufunc the package hands ``reduce_axis``, and the entries that float
# arithmetic treats apart
REDUCED = (np.add, np.maximum, np.minimum, np.fmax, np.logical_and, np.logical_or)
SPECIAL = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0])


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(ufunc=st.sampled_from(REDUCED), layout=st.sampled_from(["C", "F", "stride 0"]),
       special=st.sampled_from([0.0, 0.05, 0.3, 1.0]), seed=st.integers(0, 2 ** 32 - 1))
def test_reduce_axis_equals_numpys_reduce_bitwise(ufunc, layout, special, seed):
    """Over axes -1 and -2 of 0 to 9 entries, on arrays too small and large
    enough for the chain, C- and Fortran-ordered or stride 0 along their
    leading axis, with a share ``special`` of NaN, +-inf and +-0 entries (of
    True for the logical ufuncs). Bit for bit, except the sign of a zero
    from a row that holds a -0.0 and of a NaN sum: numpy's own reduce signs
    those by memory layout. A numpy whose sums of 2 to 7 entries stop
    running left to right fails here. The output is laid out as numpy's is
    on C-ordered and stride-0 inputs, which are what the package reduces."""
    rng = np.random.default_rng(seed)
    for axis, n, rows in itertools.product((-1, -2), range(10), (1, 6, 400)):
        cols = int(rng.integers(1, 4))
        shape = (rows, n, cols) if axis == -2 else (rows, cols, n)
        if ufunc in (np.logical_and, np.logical_or):
            x = rng.random(shape) < special
        else:
            x = rng.standard_normal(shape) * 10.0 ** rng.integers(-5, 6, shape)
            x = np.where(rng.random(shape) < special, rng.choice(SPECIAL, shape), x)
        x = {"C": x, "F": np.asfortranarray(x),
             "stride 0": np.broadcast_to(x[:1], shape)}[layout]
        with np.errstate(invalid="ignore"):             # inf - inf
            try:
                want = ufunc.reduce(x, axis=axis)
            except ValueError:                          # no entry and no identity
                with pytest.raises(ValueError):
                    reduce_axis(ufunc, x, axis)
                continue
            got = reduce_axis(ufunc, x, axis)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.strides == want.strides or layout == "F"
        same = got == want
        if want.dtype != bool:
            same = got.view(np.uint64) == want.view(np.uint64)
            negative_zero = np.logical_or.reduce((x == 0.0) & np.signbit(x), axis=axis)
            same |= (got == 0.0) & (want == 0.0) & negative_zero
            if ufunc is np.add:
                same |= np.isnan(got) & np.isnan(want)
        assert same.all(), (axis, n, rows)
