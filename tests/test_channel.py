import dataclasses

import numpy as np
import pytest

from cellfree.channel import (MAX_ABS_SNR_DB, MIN_CSI_QUALITY, SYMBOL_POWER_RANGE,
                              ChannelRealization, ConfigError, SystemConfig,
                              attenuation_constant_db,
                              complex_normal, generate_realization, generate_topology,
                              large_scale_coeffs, pairwise_distances, path_loss_db,
                              realize_channel)
from cellfree.selection import ls_aps
from reference import (ls_reference, mmse_pilot_estimate, path_loss_reference,
                       pilot_estimate_variance, realization_reference)


def default_cfg(**overrides):
    cfg = dataclasses.replace(SystemConfig(), **overrides)
    if "selected_aps" not in overrides and cfg.selected_aps > cfg.num_aps:
        cfg = dataclasses.replace(cfg, selected_aps=cfg.num_aps)
    return cfg.validate()


# ---------------------------------------------------------------- topology

def test_topology_is_deterministic_given_seed():
    cfg = default_cfg()
    a1, u1 = generate_topology(cfg, np.random.default_rng(42))
    a2, u2 = generate_topology(cfg, np.random.default_rng(42))
    assert np.array_equal(a1, a2) and np.array_equal(u1, u2)
    a3, _ = generate_topology(cfg, np.random.default_rng(43))
    assert not np.array_equal(a1, a3)


def test_degenerate_square_collapses_to_flat_path_loss():
    cfg = default_cfg(area_side_m=0.0)
    ap, users = generate_topology(cfg, np.random.default_rng(0))
    assert np.all(ap == 0.0) and np.all(users == 0.0)
    d = pairwise_distances(ap, users, cfg.antennas_per_ap)
    assert np.all(d == 0.0)
    const = attenuation_constant_db(cfg)
    flat = -const - 15 * np.log10(cfg.d1_m) - 20 * np.log10(cfg.d0_m)
    assert np.allclose(path_loss_db(d, cfg), flat)


def test_mean_ap_user_distance_matches_uniform_square_oracle():
    # oracle: direct Monte-Carlo of the mean distance between two uniform
    # points on the square (analytic value is about 0.5214 * side)
    side = 1000.0
    rng = np.random.default_rng(2024)
    pairs = rng.uniform(0, side, size=(2 * 10 ** 6, 4))
    oracle_samples = np.hypot(pairs[:, 0] - pairs[:, 2], pairs[:, 1] - pairs[:, 3])
    oracle_mean = oracle_samples.mean()
    oracle_se = oracle_samples.std(ddof=1) / np.sqrt(oracle_samples.size)
    assert abs(oracle_mean - 0.5214 * side) < 1.0

    cfg = default_cfg(num_aps=128, num_users=16)
    reps = 200
    means = []
    for r in range(reps):
        ap, users = generate_topology(cfg, np.random.default_rng([5, r]))
        means.append(pairwise_distances(ap, users, 1).mean())
    means = np.asarray(means)
    grand = means.mean()
    se = means.std(ddof=1) / np.sqrt(reps)
    assert abs(grand - oracle_mean) < 3.0 * np.hypot(se, oracle_se)


# --------------------------------------------------------------- path loss

def test_attenuation_constant_value():
    cfg = default_cfg()  # 1900 MHz, 15 m AP, 1.65 m user
    assert abs(attenuation_constant_db(cfg) - 140.72) < 0.01


def test_inner_branch_is_flat():
    cfg = default_cfg()
    assert path_loss_db(cfg.d0_m, cfg) == path_loss_db(cfg.d0_m / 2, cfg)


def test_outer_branch_value():
    cfg = default_cfg()
    const = attenuation_constant_db(cfg)
    assert np.isclose(path_loss_db(100.0, cfg), -(const + 70.0))


def test_middle_branch_value():
    cfg = default_cfg()
    const = attenuation_constant_db(cfg)
    expected = -const - 15 * np.log10(cfg.d1_m) - 20 * np.log10(30.0)
    assert np.isclose(path_loss_db(30.0, cfg), expected)


def test_path_loss_equals_the_three_mask_form_bitwise():
    # at d = 0, d0 and d1 and their floating-point neighbours, and on random
    # (256, 16) draws that include them, at the default breakpoints and at
    # another pair
    rng = np.random.default_rng(31)
    for cfg in (default_cfg(), default_cfg(d0_m=1.0, d1_m=200.0)):
        breaks = [x for b in (0.0, cfg.d0_m, cfg.d1_m)
                  for x in (b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf))]
        for d in [*breaks, np.array(breaks)]:
            assert path_loss_db(d, cfg).tobytes() == path_loss_reference(d, cfg).tobytes(), d
        for _ in range(50):
            d = rng.uniform(0.0, 1500.0, (256, 16))
            d.flat[rng.choice(d.size, len(breaks), replace=False)] = breaks
            got, want = path_loss_db(d, cfg), path_loss_reference(d, cfg)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


# ------------------------------------------------------- large-scale gains

def test_no_shadowing_at_or_below_d1():
    cfg = default_cfg(num_aps=4, num_users=3)
    d = np.full((4, 3), 40.0)  # below d1 = 50 m
    b1 = large_scale_coeffs(d, cfg, np.random.default_rng(1))
    b2 = large_scale_coeffs(d, cfg, np.random.default_rng(2))
    assert np.array_equal(b1, b2)
    assert np.allclose(10 * np.log10(b1), path_loss_db(d, cfg))


def test_zero_shadow_sigma_is_deterministic():
    cfg = default_cfg(num_aps=4, num_users=3, shadow_sigma_db=0.0)
    d = np.full((4, 3), 400.0)
    b1 = large_scale_coeffs(d, cfg, np.random.default_rng(1))
    b2 = large_scale_coeffs(d, cfg, np.random.default_rng(2))
    assert np.array_equal(b1, b2)


def test_shadowing_standard_deviation():
    cfg = default_cfg(num_aps=10 ** 4, num_users=1)
    d = np.full((10 ** 4, 1), 200.0)
    beta = large_scale_coeffs(d, cfg, np.random.default_rng(7))
    spread = np.std(10 * np.log10(beta), ddof=1)
    assert abs(spread - 8.0) < 0.3


def test_antenna_rows_replicate_per_ap():
    cfg = default_cfg(num_aps=6, antennas_per_ap=4, num_users=5)
    ap, users = generate_topology(cfg, np.random.default_rng(3))
    d = pairwise_distances(ap, users, 4)
    beta = large_scale_coeffs(d, cfg, np.random.default_rng(4))
    for l in range(6):
        block = beta[4 * l:4 * (l + 1), :]
        assert np.array_equal(block, np.repeat(block[:1], 4, axis=0))
        dblock = d[4 * l:4 * (l + 1), :]
        assert np.array_equal(dblock, np.repeat(dblock[:1], 4, axis=0))


# -------------------------------------------------------- fading / CSI split

def test_perfect_csi_has_no_error_component():
    cfg = default_cfg(csi_quality=1.0)
    beta = np.full((8, 3), 2.0)
    g, g_hat, g_tilde, alpha = realize_channel(beta, cfg, np.random.default_rng(0))
    assert np.all(g_tilde == 0)
    assert np.array_equal(g, g_hat)
    assert np.array_equal(alpha, beta)


def test_zero_csi_quality_kills_the_estimate():
    # validate() rejects n = 0 (nothing downstream can run on it), but the
    # channel model itself is defined there
    cfg = dataclasses.replace(SystemConfig(), csi_quality=0.0)
    beta = np.full((8, 3), 2.0)
    g, g_hat, g_tilde, alpha = realize_channel(beta, cfg, np.random.default_rng(0))
    assert np.all(g_hat == 0)
    assert np.all(alpha == 0)
    assert np.array_equal(g, g_tilde)


def test_estimate_and_error_sample_variances():
    cfg = default_cfg(csi_quality=0.99)
    beta = np.full((10 ** 4, 1), 2.0)
    _, g_hat, g_tilde, _ = realize_channel(beta, cfg, np.random.default_rng(11))
    var_hat = np.mean(np.abs(g_hat) ** 2)
    var_tilde = np.mean(np.abs(g_tilde) ** 2)
    assert abs(var_hat - 1.98) < 0.05 * 1.98
    assert abs(var_tilde - 0.02) < 0.05 * 0.02


def test_variance_decomposition_and_sum():
    cfg = default_cfg(num_aps=8, antennas_per_ap=2, num_users=4, csi_quality=0.7)
    streams = [np.random.default_rng([9, i]) for i in range(3)]
    real = generate_realization(cfg, *streams)
    assert isinstance(real, ChannelRealization)
    assert np.array_equal(real.g, real.g_hat + real.g_tilde)
    assert np.allclose(real.alpha, 0.7 * real.beta)
    assert np.allclose(real.error_variance, real.beta - real.alpha)


def test_realization_is_bit_reproducible():
    cfg = default_cfg(num_aps=8, num_users=4, csi_quality=0.9)
    def make():
        streams = [np.random.default_rng([13, i]) for i in range(3)]
        return generate_realization(cfg, *streams)
    r1, r2 = make(), make()
    for name in ("ap_positions", "user_positions", "distances", "beta",
                 "alpha", "g", "g_hat", "g_tilde"):
        assert np.array_equal(getattr(r1, name), getattr(r2, name))


@pytest.mark.parametrize("num_aps, antennas, quality, side", [
    (24, 1, 0.99, 1000.0), (24, 4, 1.0, 1000.0), (64, 4, 0.99, 1000.0),
    (24, 1, 1.0, 20.0), (24, 4, 0.99, 20.0)])
def test_realization_and_ranking_match_the_reference_draw_bitwise(num_aps, antennas,
                                                                  quality, side):
    # on a 20 m square about half the links are closer than d0 = 10 m, where
    # the path loss is flat and unshadowed, so their gains tie exactly
    cfg = default_cfg(num_aps=num_aps, antennas_per_ap=antennas, num_users=8,
                      csi_quality=quality, area_side_m=side)
    for seed in range(3):
        def streams():
            return [np.random.default_rng([seed, i]) for i in range(3)]
        real = generate_realization(cfg, *streams())
        want = realization_reference(cfg, *streams())
        for name in ("distances", "beta", "alpha", "g", "g_hat"):
            assert getattr(real, name).tobytes() == want[name].tobytes(), name
        # equal in value: an exact zero (csi_quality 1) may differ in sign
        assert np.array_equal(real.g_tilde, want["g_tilde"])
        for s in range(1, num_aps + 1):
            assert (ls_aps(real.beta, s, antennas).tobytes()
                    == ls_reference(want["beta"], s, antennas).tobytes())
        if side < cfg.d1_m:     # every user sees tied AP gains
            assert all(len(np.unique(gains)) < num_aps for gains in real.beta[::antennas].T)


# ------------------------------------------------------------ pilot training

def test_pilot_estimate_variance_formula():
    rng = np.random.default_rng(17)
    tau, k, m = 8, 4, 6
    # orthonormal pilot columns from a QR factorization
    q, _ = np.linalg.qr(rng.standard_normal((tau, k)) + 1j * rng.standard_normal((tau, k)))
    beta = np.full((m, k), 1.0)
    rho_r = 1.0 / tau  # rho_r * tau = 1, so the estimate variance is 1/2
    trials = 4000
    acc = np.zeros((m, k))
    for t in range(trials):
        g = complex_normal(np.random.default_rng([21, t]), beta, (m, k))
        g_hat = mmse_pilot_estimate(g, beta, q, rho_r, np.random.default_rng([22, t]))
        acc += np.abs(g_hat) ** 2
    emp = acc / trials
    assert np.all(np.abs(emp - 0.5) < 0.05)
    assert np.allclose(pilot_estimate_variance(beta, rho_r, tau), 0.5)


def test_pilot_estimate_zero_gain_entries():
    pilots = np.eye(3)
    g = np.zeros((4, 3), dtype=complex)
    beta = np.zeros((4, 3))
    g_hat = mmse_pilot_estimate(g, beta, pilots, 2.0, np.random.default_rng(0))
    assert np.all(g_hat == 0)


def test_pilot_estimate_high_power_limit():
    rng = np.random.default_rng(5)
    pilots = np.eye(2)
    beta = np.full((2000, 2), 1.0)
    g = complex_normal(rng, beta, beta.shape)
    g_hat = mmse_pilot_estimate(g, beta, pilots, 1e6 / 2, np.random.default_rng(6))
    err = np.mean(np.abs(g - g_hat) ** 2)
    assert err < 1e-4  # estimate variance approaches beta, error vanishes


def test_pilot_estimate_rejects_overlapping_pilots():
    pilots = np.array([[1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="orthonormal"):
        mmse_pilot_estimate(np.zeros((2, 2), complex), np.ones((2, 2)), pilots,
                            1.0, np.random.default_rng(0))
    with pytest.raises(ValueError, match="tau"):
        mmse_pilot_estimate(np.zeros((2, 3), complex), np.ones((2, 3)),
                            np.eye(3)[:2], 1.0, np.random.default_rng(0))
    with pytest.raises(ValueError, match="per user"):
        mmse_pilot_estimate(np.zeros((2, 3), complex), np.ones((2, 3)),
                            np.eye(2), 1.0, np.random.default_rng(0))


def test_pilot_path_agrees_with_quality_parameterization():
    # setting n to rho*tau*beta / (1 + rho*tau*beta) reproduces the pilot
    # estimator's variance split
    beta = np.array([[0.5, 2.0], [1.0, 4.0]])
    rho_r, tau = 0.8, 4
    n_eff = rho_r * tau * beta / (1 + rho_r * tau * beta)
    assert np.allclose(pilot_estimate_variance(beta, rho_r, tau), n_eff * beta)


# ------------------------------------------------------------- config checks

def test_config_invariants():
    with pytest.raises(ConfigError, match="num_users"):
        default_cfg(num_users=0)
    with pytest.raises(ConfigError, match="exceed"):
        default_cfg(num_aps=4, antennas_per_ap=1, num_users=8)
    with pytest.raises(ConfigError, match="selected_aps"):
        default_cfg(selected_aps=0)
    with pytest.raises(ConfigError, match="selected_aps"):
        default_cfg(selected_aps=64)
    with pytest.raises(ConfigError, match="csi_quality"):
        default_cfg(csi_quality=1.5)
    with pytest.raises(ConfigError, match="d0_m"):
        default_cfg(d0_m=60.0)
    with pytest.raises(ConfigError, match="snr_grid_db"):
        default_cfg(snr_grid_db=())
    with pytest.raises(ConfigError, match="csi_quality"):
        default_cfg(csi_quality=0.0)
    with pytest.raises(ConfigError, match="csi_quality"):
        default_cfg(csi_quality=float("nan"))
    with pytest.raises(ConfigError, match="csi_quality"):
        default_cfg(csi_quality=MIN_CSI_QUALITY / 2)
    assert default_cfg(csi_quality=MIN_CSI_QUALITY).csi_quality == MIN_CSI_QUALITY
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ConfigError, match="snr_grid_db"):
            default_cfg(snr_grid_db=(0.0, bad))
    noise = default_cfg().noise_variance_w()
    assert np.isclose(noise, 290 * 1.381e-23 * 20e6 * 10 ** 0.9)


@pytest.mark.parametrize("field, value", [
    ("num_aps", 32.5), ("antennas_per_ap", 1.0), ("num_users", 8.0), ("selected_aps", 16.0),
    ("num_users", True), ("antennas_per_ap", True), ("rng_seed", True), ("rng_seed", 7.0)])
def test_config_counts_must_be_integers(field, value):
    # a bool is a flag, not a count or a seed
    with pytest.raises(ConfigError, match=f"{field} must be an integer"):
        default_cfg(**{field: value})


def test_config_counts_and_seed_take_numpy_integers():
    cfg = default_cfg(num_aps=np.int64(8), antennas_per_ap=np.int32(2),
                      num_users=np.int64(3), selected_aps=np.uint8(4), rng_seed=np.int64(7))
    assert cfg.total_antennas == 16 and cfg.rng_seed == 7
    with pytest.raises(ConfigError, match="rng_seed must be an unsigned 64-bit integer"):
        default_cfg(rng_seed=np.int64(-1))


FLOAT_FIELDS = [f.name for f in dataclasses.fields(SystemConfig)
                if isinstance(f.default, float)]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", FLOAT_FIELDS)
def test_every_float_field_must_be_finite(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        default_cfg(**{field: value})


def test_snr_grid_is_bounded():
    bound = (-MAX_ABS_SNR_DB, MAX_ABS_SNR_DB)
    assert default_cfg(snr_grid_db=bound).snr_grid_db == bound
    for bad in (np.nextafter(MAX_ABS_SNR_DB, np.inf), -3000.0, 3100.0):
        with pytest.raises(ConfigError, match="snr_grid_db"):
            default_cfg(snr_grid_db=(0.0, bad))


def test_symbol_power_is_bounded_to_where_every_scheme_completes():
    low, high = SYMBOL_POWER_RANGE
    assert low <= 1.0 <= high
    for inside in (low, high):
        assert default_cfg(symbol_power=inside).symbol_power == inside
    for outside in (np.nextafter(low, 0.0), np.nextafter(high, np.inf), 0.0, -1.0, 1e3):
        with pytest.raises(ConfigError, match="symbol_power") as caught:
            default_cfg(symbol_power=outside)
        assert repr(outside) in str(caught.value)
