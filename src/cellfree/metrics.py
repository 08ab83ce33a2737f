"""Closed-form SINR/rate evaluation, the SNR-to-transmit-power mapping and
uncoded QPSK bit-error-rate measurement.

The per-user SINR under a precoder P and power coefficients eta decomposes
into three quadratic coefficient sets computed from the (masked) channel
estimate and the CSI-error variances:

    psi_k      = |g_hat_k^T p_k|^2                    desired signal
    phi_{k,i}  = |g_hat_k^T p_i|^2                    inter-user interference
    gamma_{k,i}= sum_m err_var_{m,k} |p_{m,i}|^2      CSI-error leakage

    SINR_k = rho_f eta_k psi_k /
             (sigma_w^2 + rho_f sum_{i != k} eta_i phi_{k,i}
                        + rho_f sum_i eta_i gamma_{k,i})

``sinr_coefficients``, ``analytic_sinr`` and ``rates`` also accept stacks of
links along leading axes, ``(..., M, K)`` channels and precoders with
``(..., K)`` power coefficients; each item is computed exactly as its own
2-D call. ``rho_f`` may be given per item, ``(...)``, against one channel:
the coefficients of a precoder that does not depend on it are then computed
once and broadcast over the items. ``snr_to_rho_f`` maps a grid of SNRs
the same way, and ``ber_qpsk`` measures a stack of links over one true
channel, sending the same bits and noise over every item. It reads the M
antennas in one product per chain, ``[g, g_hat]^T P``, whose K x K blocks
give each link's effective channel ``g^T P`` and its receivers' gains
``diag(g_hat^T P)``, and stacks only those K x K blocks; ``sqrt(rho_f)``
and ``N`` scale them. Every packet goes through that channel, never
through the M-antenna transmit signal, so the per-packet work is K x K,
not M x K, per symbol, and each receiver decides on the signs of
``y conj(a_k)`` instead of dividing by its gain ``a_k``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import channel as ch


@dataclass(frozen=True)
class SinrCoefficients:
    """Quadratic SINR building blocks; every entry is nonnegative."""

    psi: np.ndarray       # (..., K)
    phi: np.ndarray       # (..., K, K), diagonal unused
    gamma: np.ndarray     # (..., K, K)
    rho_f: float          # one, or one per item, (...)
    sigma_w2: float

    # Terms that do not depend on the power coefficients, computed once per
    # coefficient set for the repeated SINR evaluations of the allocators.
    @cached_property
    def phi_cross(self) -> np.ndarray:
        """phi with its diagonal zeroed: the inter-user interference terms."""
        cross = self.phi.copy()
        np.einsum("...ii->...i", cross)[...] = 0.0     # a writable diagonal view
        return cross

    @cached_property
    def coupling(self) -> np.ndarray:
        """phi_cross + gamma, the coupling of the SINR constraints at equality."""
        return self.phi_cross + self.gamma

    @cached_property
    def rho_user(self) -> np.ndarray:
        """rho_f with a trailing user axis, to broadcast against (..., K) terms."""
        return np.asarray(self.rho_f, dtype=float)[..., None]

    @cached_property
    def rho_psi(self) -> np.ndarray:
        return self.rho_user * self.psi

    @cached_property
    def gamma_diag(self) -> np.ndarray:
        return self.gamma.diagonal(axis1=-2, axis2=-1).copy()


@dataclass
class LinkMetrics:
    per_user_sinr: np.ndarray     # (..., K) linear
    per_user_rate: np.ndarray     # (..., K) bits/s/Hz
    sum_rate: float               # (...)
    min_sinr: float               # (...)
    ber: Optional[float] = None


def sinr_coefficients(p, g_hat, err_var, rho_f: float, sigma_w2: float,
                      delta=None) -> SinrCoefficients:
    """Coefficients (psi, phi, gamma) for the closed-form SINR.

    ``err_var`` is the (..., M, K) per-entry CSI-error variance,
    `(1 - n) * beta` after masking; with perfect CSI it is zero and gamma
    vanishes. ``rho_f`` is one scale or one per item; the coefficients
    themselves do not depend on it. ``delta`` is P's loads ``|P|^2``, as
    its ``PrecoderOutput`` holds them; they are formed from ``p`` if None.
    """
    p = np.asarray(p)
    g_hat = np.asarray(g_hat)
    err_var = np.asarray(err_var, dtype=float)
    effective = g_hat.mT @ p                  # (K, K): row k = g_hat_k^T P
    phi = np.abs(effective) ** 2
    psi = phi.diagonal(axis1=-2, axis2=-1).copy()
    if delta is None:
        delta = np.abs(p) ** 2
    gamma = err_var.mT @ delta                # (K, K): [k, i] couples user i into k
    return SinrCoefficients(psi=psi, phi=phi, gamma=gamma,
                            rho_f=np.asarray(rho_f, dtype=float)[()],
                            sigma_w2=float(sigma_w2))


def analytic_sinr(coeffs: SinrCoefficients, eta) -> np.ndarray:
    """Per-user SINR (linear) for power coefficients eta >= 0; the items of
    ``eta``, the coefficients and a per-item ``rho_f`` broadcast together."""
    eta = np.asarray(eta, dtype=float)
    interference = coeffs.rho_user * np.matvec(coeffs.phi_cross, eta)
    csi_leak = coeffs.rho_user * np.matvec(coeffs.gamma, eta)
    signal = coeffs.rho_user * eta * coeffs.psi
    return signal / (coeffs.sigma_w2 + interference + csi_leak)


def rates(per_user_sinr) -> LinkMetrics:
    """Achievable rates log2(1 + SINR) and their aggregates over the users."""
    sinr = np.asarray(per_user_sinr, dtype=float)
    rate = np.log2(1.0 + sinr)
    return LinkMetrics(per_user_sinr=sinr, per_user_rate=rate,
                       sum_rate=reduce_axis(np.add, rate)[()],
                       min_sinr=reduce_axis(np.minimum, sinr)[()])


def snr_to_rho_f(snr_linear, g_hat, sigma_w2: float):
    """Per-antenna power scale rho_f = SNR * K * sigma_w^2 / tr(G_hat G_hat^H).

    The trace normalizes out the aggregate channel gain so the SNR grid is
    comparable across topologies; the inverse mapping
    snr = rho_f * tr(G_hat G_hat^H) / (K * sigma_w^2) round-trips exactly.
    ``snr_linear`` may be an array of SNRs, each mapped as its own call maps it.
    """
    g_hat = np.asarray(g_hat)
    trace = float(np.linalg.norm(g_hat) ** 2)
    if trace == 0.0:
        raise ValueError("channel estimate is identically zero")
    k = g_hat.shape[-1]
    return (np.asarray(snr_linear, dtype=float) * k * sigma_w2 / trace)[()]


def unrepeated(x):
    """A view of ``x`` with each item axis (all but the last two) along which
    it repeats one matrix (stride 0, as ``np.broadcast_to`` makes) cut to
    length 1, so that work on it is done once and broadcast."""
    return x[tuple(slice(0, 1) if step == 0 else slice(None) for step in x.strides[:-2])]


def reduce_axis(ufunc, x, axis=-1):
    """``ufunc.reduce(x, axis)`` of an array ``x``. numpy's reduce pays per
    output, so where the axis is short against the array, 2 to 7 entries
    and at least ``32 n^2`` entries in all, ``ufunc`` runs instead as a chain
    over the axis's slices into one C-ordered output. With BLAS on one
    thread, the maximum over the users of a (6, 100, 5, 2) exhaustive-search
    chunk took 4 us as a chain against 135 us in one reduce; on (18, 16) numpy's
    reduce is the faster. The 16 users and 96-256 antennas of the large
    presets keep numpy's reduce. Each slice costs one ufunc call, so on small
    arrays the chain loses: a 2-D call's column sums over 5 antennas of a
    (5, 2) precoder took 2.9 us as a chain against 1.1 us, and APA's (2, 6, 5)
    maximum over the antennas 5.4 against 1.9 us. Over every 2- to 7-entry
    reduction of two trials of fig-tiny-opa and fig-tiny-apa, weighted by
    their calls, chains everywhere took 1223 us, chains from ``32 n^2``
    entries 1020 us, and the faster path for each shape 962 us.

    The chain takes the entries in order, as numpy's sum does below 8
    entries (its pairwise blocks start at 8), and maximum and minimum keep
    one of their entries whatever the order. So the result is
    ``ufunc.reduce``'s bit for bit for ``np.add``, ``np.maximum``,
    ``np.minimum``, ``np.fmax``, ``np.logical_and`` and ``np.logical_or``,
    except for the sign of a zero or of a NaN, which numpy's own reduce
    sets differently for different memory layouts of the same entries."""
    n = x.shape[axis]
    if not 2 <= n < 8 or x.size < 32 * n * n:
        return ufunc.reduce(x, axis=axis)
    head = (slice(None),) * (axis % x.ndim)
    out = ufunc(x[head + (0,)], x[head + (1,)], order="C")
    for i in range(2, n):
        ufunc(out, x[head + (i,)], out=out)
    return out


def ber_qpsk(p, n_diag, g, g_hat, rho_f: float, sigma_w2: float,
             symbols_per_packet: int, rng: np.random.Generator,
             packets: int = 1, noise_rng: Optional[np.random.Generator] = None):
    """Uncoded Gray-QPSK bit error rate over the true channel.

    One product ``[g, g_hat]^T P`` reads the M antennas once per chain: its
    first K rows are each link's ``g^T P``, and the diagonal of the last K
    is ``g_hat_k^T p_k``. ``sqrt(rho_f)`` and ``N`` then scale those K x K
    results into the effective channel ``g^T sqrt(rho_f) P N`` and the
    known effective gains ``a_k = sqrt(rho_f) g_hat_k^T p_k sqrt(eta_k)``.
    Symbols ``s`` go through that channel with additive noise of variance
    sigma_w2 per user: receiver k gets row k of the channel times ``s``,
    which is what it would get from the M-antenna signal
    ``x = sqrt(rho_f) P N s`` through ``g``. Each receiver slices ``y / a_k``
    to the nearest constellation point, deciding on the signs of the real
    and imaginary parts of ``y conj(a_k)``, which are those of ``y / a_k``
    as ``|a_k|^2 > 0``. Users whose gain magnitude falls below 1e-12 cannot
    decode; their bits count as random (0.5 error rate).

    Bits come from ``rng``; noise comes from ``noise_rng`` (default: the
    same stream), so the two can be frozen independently.

    Links may be stacked along leading axes: ``p (..., M, K)``,
    ``n_diag (..., K)``, ``g_hat`` and ``rho_f (...)`` broadcast together
    against one true channel ``g``. ``p`` and ``g_hat`` may also be
    equal-length sequences, one precoder stack and its channel estimate per
    chain: the result is the array call's on their stacks along a new
    leading axis, each chain's arrays first broadcast to the items of all of
    them, and ``n_diag`` carries that axis first. Each chain's product is
    formed on its own, once along each item axis on which its precoder
    repeats one matrix (stride 0, as ZF's and CB's over an SNR grid), and
    only the K x K results are stacked, so no stack of M x K arrays is made.
    Each packet's bits and noise are drawn once, in the order a 2-D call
    draws them, and sent over every item, so each item's BER equals its own
    2-D call's on streams restarted from the same state.

    ``symbols_per_packet`` and ``packets`` must be integers of at least 1,
    and ``sigma_w2`` finite and nonnegative; anything else raises a
    ``ValueError`` naming the argument.

    Returns (ber, num_degenerate_gains): the BER, ``(...)``, and the count
    of degenerate gains over all items.
    """
    ch.check_count("symbols_per_packet", symbols_per_packet)
    ch.check_count("packets", packets)
    if not (np.isfinite(sigma_w2) and sigma_w2 >= 0.0):
        raise ValueError(f"sigma_w2 must be finite and nonnegative, got {sigma_w2!r}")
    n_diag = np.asarray(n_diag, dtype=float)
    g = np.asarray(g)
    if noise_rng is None:
        noise_rng = rng
    chains = isinstance(p, (list, tuple))
    if not chains:
        p, g_hat = [p], [g_hat]
    if len(p) != len(g_hat):
        raise ValueError(f"{len(p)} precoders against {len(g_hat)} channel estimates")
    k = np.shape(p[0])[-1]

    # each chain's one product over its M antennas: rows :k are g^T P, rows
    # k: g_hat^T P, once along each item axis that repeats one precoder and
    # then broadcast back over that chain's items
    ends = []
    for precoder, estimate in zip(p, g_hat):
        precoder = np.asarray(precoder)
        lhs = np.concatenate(np.broadcast_arrays(g, np.asarray(estimate)), axis=-1).mT
        items = np.broadcast_shapes(lhs.shape[:-2], precoder.shape[:-2])
        ends.append(np.broadcast_to(lhs @ unrepeated(precoder), items + (2 * k, k)))
    ends = np.stack(np.broadcast_arrays(*ends)) if chains else ends[0]
    scale = np.sqrt(np.asarray(rho_f, dtype=float))[..., None] * n_diag  # sqrt(rho_f) N
    link = ends[..., :k, :] * scale[..., None, :]                        # (..., K, K)
    gains = ends[..., k:, :].diagonal(axis1=-2, axis2=-1) * scale
    degenerate = np.abs(gains) < 1e-12
    # a degenerate user's 2 * symbols_per_packet bits each count half an error
    dead_errors = symbols_per_packet * np.count_nonzero(degenerate, axis=-1)
    # Re and Im of y / a_k have the signs of those of y conj(a_k), as |a_k|^2 > 0
    rotate = np.conj(gains)[..., None]
    noise_scale = np.sqrt(sigma_w2 / 2.0)

    error_bits = 0
    for _ in range(packets):
        bits = rng.integers(0, 2, size=(2, k, symbols_per_packet))
        s = ((1.0 - 2.0 * bits[0]) + 1j * (1.0 - 2.0 * bits[1])) / np.sqrt(2.0)
        w = noise_scale * (noise_rng.standard_normal((k, symbols_per_packet))
                           + 1j * noise_rng.standard_normal((k, symbols_per_packet)))
        # in place: each (..., K, symbols_per_packet) temporary would be a
        # fresh allocation, whose first touch dominates its arithmetic
        z = link @ s
        z += w
        z *= rotate
        # each symbol's (Re, Im) decisions against its (first, second) bits,
        # read from z's interleaved float view, (..., K, 2 symbols_per_packet)
        wrong = z.view(float) < 0.0
        wrong ^= np.moveaxis(bits, 0, -1).reshape(k, -1) == 1
        if degenerate.any():
            wrong &= ~degenerate[..., None]
        error_bits = error_bits + np.count_nonzero(wrong, axis=(-2, -1)) + dead_errors
    ber = error_bits / (2 * k * symbols_per_packet * packets)
    return (ber if np.ndim(ber) else float(ber)), int(np.count_nonzero(degenerate))
