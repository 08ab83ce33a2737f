"""Helpers and reference oracles that several test modules share: each is
defined once, here.

``eig_max_min_root`` is the max-min root in its eigendecomposition form,
the package's method before its root solve moved to batched K x K solves:
an independent oracle for ``power_allocation._max_min_root``.
``realization_reference`` draws a channel block with the formulas the
package used before its draw was fused (two normal calls per complex block,
distances summed over an (L, K, 2) difference), and ``ls_reference`` ranks
with a stable sort per user: the package must reproduce both bit for bit.
``mmse_pilot_estimate`` is an explicit uplink training round, a check on the
channel model's variance split that the simulation itself never runs.
``apa_cost`` is APA's separable transmit MSE at any allocation, and
``mean_se`` the mean and standard error of one cell's trials as a 1-D
reduction, against which the sweeps' stacked reduction is checked.
``path_loss_reference`` is the three-slope path loss written with one mask
and one gather per branch, which ``channel.path_loss_db`` must reproduce bit
for bit, and ``zf_full_rank`` ZF's rank test on a stack, without a build.
``dump_config`` writes a config file that ``cli_io.load_config`` reads back
as the same config, through the package's own in-place writer.
"""

import dataclasses

import numpy as np

from cellfree import cli_io
from cellfree.channel import (SystemConfig, attenuation_constant_db, complex_normal,
                              generate_topology, large_scale_coeffs)
from cellfree.power_allocation import apa_terms
from cellfree.precoding import _zf_rank

# Newton steps after which the oracle stops, converged or not
ORACLE_MAX_STEPS = 60


def cfg_with(**overrides):
    return dataclasses.replace(SystemConfig(), **overrides).validate()


def random_channel(rng, m, k):
    return rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))


def mask_from_choices(choices, num_aps, antennas_per_ap):
    """The (M, K) mask keeping the APs ``choices[k]`` for each user k."""
    q_ap = np.zeros((num_aps, len(choices)))
    for k, aps in enumerate(choices):
        q_ap[list(aps), k] = 1.0
    return np.repeat(q_ap, antennas_per_ap, axis=0)


def ls_reference(beta, num_selected, antennas_per_ap):
    """Gain ranking one user at a time: a stable argsort of the user's AP gains."""
    beta_ap = np.asarray(beta, dtype=float)[::antennas_per_ap, :]
    q_ap = np.zeros(beta_ap.shape)
    for k in range(beta_ap.shape[1]):
        order = np.argsort(-beta_ap[:, k], kind="stable")
        q_ap[order[:num_selected], k] = 1.0
    return np.repeat(q_ap, antennas_per_ap, axis=0)


def path_loss_reference(d, cfg):
    """The three-slope path loss in dB, each branch gathered and scattered
    through its own boolean mask: flat at or below d0, 20 dB/decade to d1,
    35 dB/decade beyond."""
    d = np.asarray(d, dtype=float)
    const = attenuation_constant_db(cfg)
    out = np.empty_like(d)
    far = d > cfg.d1_m
    mid = (d > cfg.d0_m) & ~far
    near = ~(far | mid)
    out[far] = -const - 35.0 * np.log10(d[far])
    out[mid] = -const - 15.0 * np.log10(cfg.d1_m) - 20.0 * np.log10(d[mid])
    out[near] = -const - 15.0 * np.log10(cfg.d1_m) - 20.0 * np.log10(cfg.d0_m)
    return out


def zf_full_rank(g_hat):
    """Per item of a ``(..., M, K)`` stack of channels, whether
    ``zf_precoder`` accepts it: whether the smallest eigenvalue of its Gram
    matrix is above that matrix's rounding, ``K eps_machine max(lam)``."""
    return _zf_rank(np.asarray(g_hat))[2]


def complex_normal_reference(rng, variance, shape):
    """A complex Gaussian block from two normal calls, real parts first."""
    scale = np.sqrt(np.asarray(variance, dtype=float) / 2.0)
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return scale * (re + 1j * im)


def realization_reference(cfg, rng_topology, rng_shadowing, rng_fading):
    """``generate_realization``'s distances, gains and fading, as a dict, with
    the distances summed over an (L, K, 2) difference and each complex block
    drawn by ``complex_normal_reference``."""
    ap_positions, user_positions = generate_topology(cfg, rng_topology)
    diff = ap_positions[:, None, :] - user_positions[None, :, :]
    distances = np.repeat(np.sqrt(np.sum(diff ** 2, axis=-1)), cfg.antennas_per_ap, axis=0)
    beta = large_scale_coeffs(distances, cfg, rng_shadowing)
    alpha = cfg.csi_quality * beta
    g_hat = complex_normal_reference(rng_fading, alpha, beta.shape)
    g_tilde = complex_normal_reference(rng_fading, beta - alpha, beta.shape)
    return {"distances": distances, "beta": beta, "alpha": alpha,
            "g": g_hat + g_tilde, "g_hat": g_hat, "g_tilde": g_tilde}


def pilot_estimate_variance(beta, rho_r: float, tau: float) -> np.ndarray:
    """Estimate variance of the pilot-based estimator, rho*tau*beta^2 / (1 + rho*tau*beta)."""
    beta = np.asarray(beta, dtype=float)
    return rho_r * tau * beta ** 2 / (1.0 + rho_r * tau * beta)


def mmse_pilot_estimate(g, beta, pilots, rho_r: float, rng: np.random.Generator) -> np.ndarray:
    """Channel estimate from an explicit uplink training round.

    ``pilots`` is (tau, K) with orthonormal columns (one unit-norm sequence
    per user); overlapping pilots are rejected since contamination is not
    modeled. Each antenna observes
    ``y_m = sqrt(rho_r * tau) * sum_k g_{m,k} pilot_k + noise`` and the
    per-entry estimate is the scaled pilot-matched output. Serves as a
    consistency check on the variance-split model used by
    ``channel.realize_channel``.
    """
    g = np.asarray(g)
    beta = np.asarray(beta, dtype=float)
    pilots = np.asarray(pilots)
    tau, k = pilots.shape
    if k != g.shape[1]:
        raise ValueError("one pilot sequence per user is required")
    if tau < k:
        raise ValueError("pilot length tau must be at least the user count")
    gram = pilots.conj().T @ pilots
    if not np.allclose(gram, np.eye(k), atol=1e-10):
        raise ValueError("pilot sequences must be orthonormal (contamination unsupported)")
    m = g.shape[0]
    noise = complex_normal(rng, 1.0, (tau, m))
    y = np.sqrt(rho_r * tau) * pilots @ g.T + noise        # (tau, M)
    matched = (pilots.conj().T @ y).T                      # (M, K), row m holds pilot_k^H y_m
    gain = np.sqrt(rho_r * tau) * beta / (1.0 + rho_r * tau * beta)
    return gain * matched


def apa_cost(n_diag, coeffs, f, sigma_s2=1.0):
    """MSE between the symbols and the gain-normalized receive vector, CSI
    error dropped, at the allocation diagonal n_diag: ``apa_terms``'
    separable quadratic ``const + sum_k (c_k nu_k - 2 b_k) nu_k``."""
    nu = np.asarray(n_diag, dtype=float)
    c, b, const = apa_terms(coeffs, f, sigma_s2)
    return (const + np.vecdot(c * nu - 2.0 * b, nu))[()]


def mean_se(values):
    """The mean of ``values`` and its standard error, 0 for one value."""
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    se = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
    return mean, se


def grid_max_min(coeffs, delta, resolution=1000):
    """Independent oracle for two users: exhaustive grid over the per-user
    power box."""
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


def coupling(coeffs):
    """``(A, b)``: user k's SINR is ``eta_k / (b + A eta)_k`` with ``A =
    (phi_cross + gamma) / psi[:, None]`` and ``b = sigma_w2 / (rho_f psi)``."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return ((coeffs.phi_cross + coeffs.gamma) / coeffs.psi[..., None],
                coeffs.sigma_w2 / coeffs.rho_psi)


def polished_root(coeffs, delta, t, steps=3):
    """``t`` refined by ``steps`` Newton steps, in ``s = 1/t``, on the peak
    antenna load ``max_m delta[m] (sI - A)^-1 b = 1`` that holds at the
    max-min root t*. From within 1e-10 of t* each step squares the error,
    so the result is t* up to rounding."""
    a, b = coupling(coeffs)
    s = 1.0 / np.asarray(t, dtype=float)
    for _ in range(steps):
        shifted = s[..., None, None] * np.eye(b.shape[-1]) - a
        x = np.linalg.solve(shifted, b[..., None])
        y = np.linalg.solve(shifted, x)[..., 0]
        g, slope = np.matvec(delta, x[..., 0]), np.matvec(delta, y)   # slope = -dg/ds
        peak = g.argmax(axis=-1)[..., None]
        s = s + ((np.take_along_axis(g, peak, axis=-1) - 1.0)
                 / np.take_along_axis(slope, peak, axis=-1))[..., 0]
    return 1.0 / s


def eig_max_min_root(coeffs, delta):
    """The max-min SINR target t* of every item, and the Newton steps taken,
    from one eigendecomposition ``A = V diag(lam) V^-1`` per coefficient
    set, which makes each load ``g_m(s) = delta[m] (sI - A)^-1 b`` a sum of
    K poles, ``Re sum_j w[m, j] / (s - lam_j)``. From ``rho(A) (1 + 1e-12)
    + max_m delta[m] b``, each step moves to the largest of the antennas'
    tangent roots of ``1/g_m = 1``, or to the midpoint of the bracket
    ``[max(rho(A), max_m delta[m] b), max_k (peak b_k + (A 1)_k)]`` where
    the tangent leaves it, until an item's step is at most 1e-6 relative.
    NaN where a user has no desired signal, ``A`` or ``b`` is not finite or
    no antenna carries a load."""
    delta = np.asarray(delta, dtype=float)
    peak = delta.sum(axis=-1).max(axis=-1)
    a, b = coupling(coeffs)
    finite = np.isfinite(a).all(axis=(-2, -1))
    rootless = ~(finite & np.isfinite(b).all(axis=-1) & (peak > 0.0))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lam, v = (x.astype(complex)
                  for x in np.linalg.eig(np.where(finite[..., None, None], a, 0.0)))
        w = (delta @ v) * np.linalg.solve(v, b[..., None]).mT
        pole = lam.real.max(axis=-1)
        noise = np.matvec(delta, b).max(axis=-1)
        s_lo = np.maximum(pole, noise)
        s_hi = (peak[..., None] * b + a.sum(axis=-1)).max(axis=-1)
        s = pole * (1.0 + 1e-12) + noise
        done = np.broadcast_to(rootless, s.shape).copy()
        for steps in range(1, ORACLE_MAX_STEPS + 1):
            u = 1.0 / (s[..., None] - lam)
            g = np.matvec(w, u).real
            move = np.fmax.reduce(g * (g - 1.0) / np.matvec(w, u * u).real, axis=-1)
            left = move >= 0.0
            s_lo = np.where(left, s, s_lo)
            s_hi = np.where(left, s_hi, s)
            tangent = s + move
            s = np.where(done, s, np.where((tangent >= s_lo) & (tangent <= s_hi),
                                           tangent, 0.5 * (s_lo + s_hi)))
            done |= np.abs(move) <= 1e-6 * s
            if done.all():
                break
        return np.where(rootless, np.nan, 1.0 / s), steps


def dump_config(cfg: SystemConfig, path) -> None:
    """Serialize a SystemConfig so ``cli_io.load_config`` round-trips it."""
    lines = []
    for name in cfg.field_names():
        value, kind = getattr(cfg, name), type(getattr(SystemConfig(), name))
        if kind is tuple:
            rendered = ",".join(repr(float(v)) for v in value)
        else:
            rendered = cli_io._fmt(kind(value))
        lines.append(f"{name} = {rendered}")
    cli_io._write_text(path, "\n".join(lines) + "\n")
