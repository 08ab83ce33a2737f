"""Network geometry, large-scale fading and channel estimates.

Access points (APs) with ``N`` antennas each and single-antenna users are
dropped uniformly at random on a square. Large-scale gains combine a
three-slope path loss with lognormal shadowing; small-scale fading is i.i.d.
Rayleigh. Channel state information (CSI) quality is controlled by a scalar
``n`` in [0, 1]: the estimate variance is ``alpha = n * beta`` and the
estimation error carries the remaining ``(1 - n) * beta``.

All randomness flows through explicitly passed numpy Generators so trials
can be reproduced (and parallelized) from per-trial sub-streams. The order
of the draws is the reproducibility contract: every output of a seed
depends on it. ``generate_realization`` takes from its topology stream the
(L, 2) AP positions, then the (K, 2) user positions; from its shadowing
stream one standard normal per AP-user pair, (L, K); and from its fading
stream, each in C order over (M, K), the real parts of ``g_hat``, then its
imaginary parts, then those of ``g_tilde`` in the same order. Every block
is drawn whatever its variance, so ``g_tilde``'s is drawn at
``csi_quality`` 1 too.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

# Boltzmann constant in J/K (value used by the noise-power convention here).
BOLTZMANN_J_PER_K = 1.381e-23

# Smallest accepted csi_quality. Below it the estimate holds under a
# millionth of the channel variance, and the power scale and the precoders
# grow like its inverse until their products leave the floating-point range
# (a 3-AP ZF+OPA trial at 0 dB overflows at csi_quality 3.9e-181; at 0 the
# estimate vanishes).
MIN_CSI_QUALITY = 1e-6

# Largest accepted |SNR| in dB on the grid. Every scheme completes within it.
# Beyond it the power scale and the SINR terms leave the floating-point
# range: over 2-16 AP configs, MMSE+OPA returned NaN SINRs from -1600 dB (at
# symbol_power 1e-30) and CB+UPA from +2600 dB (on a 1e6 m area), and at
# 3100 dB the linear SNR itself overflows.
MAX_ABS_SNR_DB = 1000.0

# Accepted symbol_power (sigma_s^2) range. Within it, every (scheme, SNR)
# cell that completed at symbol_power 1 completed too: measured over 5-128
# AP configs, SNRs from -1000 to 1000 dB, and every precoder and allocation
# pair with NS, LS and (on 5-AP configs) ES. APA's fixed step is not
# scale-free in sigma_s^2: MMSE+APA failed on more trials than at 1 from 10
# (one more of 60 at 200 dB) and on some trials at 25 dB from 15, and at
# 1e-200 the MMSE precoder's scale overflowed.
SYMBOL_POWER_RANGE = (1e-100, 5.0)


class ConfigError(ValueError):
    """A scenario configuration violates one of its invariants."""


def is_integer(value) -> bool:
    """The rule for counts, seeds and trial numbers: integral, not ``bool``."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_count(name: str, value) -> None:
    """Refuse ``value``, naming ``name``, unless it is an integer
    (``is_integer``) of at least 1."""
    if not (is_integer(value) and value >= 1):
        raise ValueError(f"{name} must be at least 1 and an integer, got {value!r}")


@dataclass
class SystemConfig:
    """Scenario constants for one simulation campaign.

    ``num_aps * antennas_per_ap`` is the total antenna count M and must
    exceed the user count K. ``selected_aps`` is the per-user AP budget S
    used by the selection stage. ``csi_quality`` is the fraction of channel
    variance captured by the estimate.
    """

    num_aps: int = 32                  # L
    antennas_per_ap: int = 1           # N
    num_users: int = 8                 # K
    selected_aps: int = 16             # S
    area_side_m: float = 1000.0
    carrier_freq_mhz: float = 1900.0
    ap_height_m: float = 15.0
    user_height_m: float = 1.65
    shadow_sigma_db: float = 8.0
    d0_m: float = 10.0
    d1_m: float = 50.0
    noise_temp_k: float = 290.0
    bandwidth_hz: float = 20e6
    noise_figure_db: float = 9.0
    symbol_power: float = 1.0          # sigma_s^2
    csi_quality: float = 1.0           # n
    snr_grid_db: tuple = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0)
    rng_seed: int = 12345

    @property
    def total_antennas(self) -> int:
        return self.num_aps * self.antennas_per_ap

    def noise_variance_w(self) -> float:
        """Receiver noise power T0 * k_B * B * NF in watts."""
        nf_linear = 10.0 ** (self.noise_figure_db / 10.0)
        return self.noise_temp_k * BOLTZMANN_J_PER_K * self.bandwidth_hz * nf_linear

    def validate(self) -> "SystemConfig":
        def positive(name):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")

        for name in ("num_aps", "antennas_per_ap", "num_users", "selected_aps", "rng_seed"):
            if not is_integer(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        # NaN passes every comparison below and inf every positivity test
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, (float, np.floating)) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        for name in ("num_aps", "antennas_per_ap", "num_users", "carrier_freq_mhz",
                     "ap_height_m", "user_height_m", "d0_m", "d1_m", "noise_temp_k",
                     "bandwidth_hz"):
            positive(name)
        low, high = SYMBOL_POWER_RANGE
        if not low <= self.symbol_power <= high:
            raise ConfigError(f"symbol_power must lie in [{low:g}, {high:g}], "
                              f"got {self.symbol_power!r}")
        if self.area_side_m < 0:
            raise ConfigError("area_side_m must be nonnegative")
        if self.shadow_sigma_db < 0:
            raise ConfigError("shadow_sigma_db must be nonnegative")
        if self.total_antennas <= self.num_users:
            raise ConfigError("num_aps * antennas_per_ap must exceed num_users")
        if not 1 <= self.selected_aps <= self.num_aps:
            raise ConfigError("selected_aps must lie in [1, num_aps]")
        if not MIN_CSI_QUALITY <= self.csi_quality <= 1.0:
            raise ConfigError(f"csi_quality must lie in [{MIN_CSI_QUALITY:g}, 1]")
        if self.d0_m >= self.d1_m:
            raise ConfigError("d0_m must be smaller than d1_m")
        if len(self.snr_grid_db) == 0:
            raise ConfigError("snr_grid_db must not be empty")
        if not all(abs(snr) <= MAX_ABS_SNR_DB for snr in self.snr_grid_db):
            raise ConfigError(f"snr_grid_db values must lie in [-{MAX_ABS_SNR_DB:g}, "
                              f"{MAX_ABS_SNR_DB:g}] dB")
        if not 0 <= self.rng_seed < 2 ** 64:
            raise ConfigError("rng_seed must be an unsigned 64-bit integer")
        return self

    def field_names(self) -> tuple:
        return tuple(f.name for f in fields(self))


@dataclass(frozen=True)
class ChannelRealization:
    """Channel state for one coherence block.

    All matrices are (M, K) with AP-block structure: the N rows of one AP
    share distances, ``beta`` and ``alpha``. ``g = g_hat + g_tilde`` holds
    elementwise; ``g_hat`` has per-entry variance ``alpha`` and ``g_tilde``
    the complement ``beta - alpha``.
    """

    ap_positions: np.ndarray      # (L, 2) meters
    user_positions: np.ndarray    # (K, 2) meters
    distances: np.ndarray         # (M, K) meters
    beta: np.ndarray              # (M, K) linear gains
    alpha: np.ndarray             # (M, K) estimate variances
    g: np.ndarray                 # (M, K) complex
    g_hat: np.ndarray             # (M, K) complex
    g_tilde: np.ndarray           # (M, K) complex

    @property
    def error_variance(self) -> np.ndarray:
        """Per-entry variance of the CSI error, beta - alpha."""
        return self.beta - self.alpha


def complex_normal(rng: np.random.Generator, variance, shape) -> np.ndarray:
    """Draw circularly symmetric complex Gaussians with the given variance.

    One standard-normal block of shape ``(2, *shape)`` holds the real parts,
    then the imaginary parts; each is scaled by ``sqrt(variance / 2)``.
    """
    scale = np.sqrt(np.asarray(variance, dtype=float) / 2.0)
    re, im = rng.standard_normal((2,) + tuple(shape))
    out = np.empty(shape, dtype=complex)
    np.multiply(scale, re, out=out.real)
    np.multiply(scale, im, out=out.imag)
    return out


def generate_topology(cfg: SystemConfig, rng: np.random.Generator):
    """Drop L APs and K users i.i.d. uniformly on [0, area_side]^2."""
    ap_positions = rng.uniform(0.0, 1.0, size=(cfg.num_aps, 2)) * cfg.area_side_m
    user_positions = rng.uniform(0.0, 1.0, size=(cfg.num_users, 2)) * cfg.area_side_m
    return ap_positions, user_positions


def pairwise_distances(ap_positions, user_positions, antennas_per_ap: int) -> np.ndarray:
    """Planar AP-to-user distances replicated over each AP's antennas, (M, K)."""
    dx = ap_positions[:, 0, None] - user_positions[:, 0]
    dy = ap_positions[:, 1, None] - user_positions[:, 1]
    return np.repeat(np.sqrt(dx * dx + dy * dy), antennas_per_ap, axis=0)   # (M, K)


def attenuation_constant_db(cfg: SystemConfig) -> float:
    """Fixed offset of the three-slope path loss model, in dB."""
    lf = np.log10(cfg.carrier_freq_mhz)
    return (46.3 + 33.9 * lf - 13.82 * np.log10(cfg.ap_height_m)
            - (1.1 * lf - 0.7) * cfg.user_height_m + (1.56 * lf - 0.8))


def path_loss_db(d, cfg: SystemConfig) -> np.ndarray:
    """Three-slope path loss in dB (negative values).

    Flat below d0, 20 dB/decade between d0 and d1, 35 dB/decade beyond d1.
    The formula is evaluated verbatim; it is not continuous at the
    breakpoints for every constant choice. Below d0 the logarithm takes d0,
    so the flat branch is the middle one's value at d0.
    """
    d = np.asarray(d, dtype=float)
    const = attenuation_constant_db(cfg)
    lg = np.log10(np.maximum(d, cfg.d0_m))
    return np.where(d > cfg.d1_m, -const - 35.0 * lg,
                    -const - 15.0 * np.log10(cfg.d1_m) - 20.0 * lg)


def large_scale_coeffs(distances, cfg: SystemConfig, rng: np.random.Generator) -> np.ndarray:
    """Linear-scale large-scale gains beta, (M, K).

    Lognormal shadowing (sigma_sh dB, one draw per AP-user pair) applies
    only beyond d1; closer links see the deterministic path loss.
    """
    n = cfg.antennas_per_ap
    d_ap = np.asarray(distances, dtype=float)[::n, :]          # (L, K)
    pl_db = path_loss_db(d_ap, cfg)
    z = rng.standard_normal(d_ap.shape)
    beta_db = pl_db + np.where(d_ap > cfg.d1_m, cfg.shadow_sigma_db * z, 0.0)
    return np.repeat(10.0 ** (beta_db / 10.0), n, axis=0)


def realize_channel(beta, cfg: SystemConfig, rng: np.random.Generator):
    """Draw one small-scale realization split into estimate and error.

    Returns (g, g_hat, g_tilde, alpha) where g_hat and g_tilde are drawn
    independently with variances alpha = n * beta and beta - alpha.
    """
    beta = np.asarray(beta, dtype=float)
    alpha = cfg.csi_quality * beta
    g_hat = complex_normal(rng, alpha, beta.shape)
    g_tilde = complex_normal(rng, beta - alpha, beta.shape)
    return g_hat + g_tilde, g_hat, g_tilde, alpha


def generate_realization(cfg: SystemConfig, rng_topology, rng_shadowing, rng_fading) -> ChannelRealization:
    """Full channel block: topology, large-scale gains and fading draws."""
    ap_positions, user_positions = generate_topology(cfg, rng_topology)
    distances = pairwise_distances(ap_positions, user_positions, cfg.antennas_per_ap)
    beta = large_scale_coeffs(distances, cfg, rng_shadowing)
    g, g_hat, g_tilde, alpha = realize_channel(beta, cfg, rng_fading)
    return ChannelRealization(ap_positions=ap_positions, user_positions=user_positions,
                              distances=distances, beta=beta, alpha=alpha,
                              g=g, g_hat=g_hat, g_tilde=g_tilde)
