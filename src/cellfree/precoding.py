"""Downlink precoders: regularized MMSE with power-allocation coupling,
plus zero-forcing and conjugate beamforming baselines.

The MMSE precoder minimizes the mean-square error between the symbol vector
and the gain-controlled receive vector under a total transmit-energy budget
``E_tr``. Eliminating the Lagrange multiplier leaves a ridge system with
regularizer ``eps = K * sigma_w^2 / E_tr``:

    p_tilde = (conj(G) G^T + eps I)^(-1) conj(G)
    f       = sqrt(E_tr / tr(p_tilde C_s p_tilde^H))
    P       = (f / sqrt(rho_f)) * p_tilde * N^(-1)

where N is the diagonal power-allocation matrix the transmit stage applies
afterwards. The baselines keep f = 1 and leave power scaling entirely to the
allocation stage.

The ridge system is solved in its K x K Gram form from one
eigendecomposition per channel, ``G^T conj(G) = V diag(lam) V^H`` (Tikhonov
regularisation in the spectral basis):

    p_tilde = conj(G) V diag(d) V^H,   d_j = 1 / (lam_j + eps)
    ||p_tilde||^2 = sum_j |conj(G) v_j|^2 d_j^2

so a ridge, which is all that changes from one SNR point to the next, costs
a K-vector of weights and one (M x K)(K x K) product with ``conj(G) V``;
the gain f and the scaling ``f / sqrt(rho_f)`` fold into that K x K factor.
A shifted eigenvalue ``lam_j + eps`` at or below the Gram matrix's rounding,
``K eps_machine max(lam)``, gets weight 0. That is the pseudo-inverse limit,
reached where users share a selection at very high SNR and the ridge is
below the rounding of a singular Gram matrix.

ZF is the ridge-free limit, ``P = conj(G) (G^T conj(G))^(-1)``, and needs
only the eigenvalues of the same Gram matrix: a channel is rank-deficient,
and ZF rejects it, exactly when its smallest eigenvalue is at or below that
rounding, the threshold of MMSE's pseudo-inverse limit. It inverts a
full-rank Gram matrix by LU (``np.linalg.inv``), which costs less than the
eigenvectors an inverse ``V diag(1 / lam) V^H`` would need.

Every function also accepts a stack of channels ``(..., M, K)`` and then
returns stacked outputs (``f`` of shape ``(...)``); each item of a stack is
computed exactly as its own 2-D call. ``mmse_precoder`` also takes ``e_tr``
and ``rho_f`` per item, ``(...)``, broadcast against the channels' leading
axes: ``(S,)`` against one channel, or ``(S, 1)`` against a stack of B
channels for S x B items; each channel is eigendecomposed once for all of
its items.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .metrics import SinrCoefficients, reduce_axis

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class PrecoderOutput:
    """Precoding matrix with its normalization and per-entry power loadings."""

    p: np.ndarray          # (..., M, K) complex
    f: float               # receive-side gain-control normalization, (...)
    delta: Optional[np.ndarray] = None  # (..., M, K) loadings |P_{m,i}|^2; from p if None

    def __post_init__(self):
        if self.delta is None:
            object.__setattr__(self, "delta", np.abs(self.p) ** 2)


class RankDeficientError(np.linalg.LinAlgError):
    """ZF's Gram matrix of a channel is singular to rounding: the channel is
    rank-deficient. ``full`` holds the rank test's mask of the channels the
    raising call was given (see ``zf_precoder``), so that a caller can set
    the deficient ones aside without testing them again."""

    def __init__(self, message: str, full: np.ndarray):
        super().__init__(message)
        self.full = full


def _gram(g_hat: np.ndarray):
    """``(conj(G), G^T conj(G))``: each channel's conjugate and its K x K
    Gram matrix. Raises ``ValueError`` on a non-finite channel."""
    if not np.isfinite(g_hat).all():
        raise ValueError("the channel must not contain infs or NaNs")
    g_conj = g_hat.conj()
    return g_conj, g_hat.mT @ g_conj


def _rounding(lam: np.ndarray) -> np.ndarray:
    """``K eps_machine max(lam)``, ``(..., 1)``: the rounding of Gram matrices
    with ascending eigenvalues ``lam``; an eigenvalue at or below it is zero
    to rounding."""
    return lam.shape[-1] * _EPS * lam[..., -1:]


def apply_allocation(precoder: PrecoderOutput, n_diag) -> PrecoderOutput:
    """Re-form a precoder for the diagonal power allocation ``n_diag``.

    The allocation enters the precoder as ``P N^(-1)``: it only divides the
    columns and leaves f unchanged.
    """
    n_diag = np.asarray(n_diag, dtype=float)
    if n_diag.ndim == 0 or n_diag.shape[-1] != precoder.p.shape[-1]:
        raise ValueError("n_diag must hold one positive entry per user")
    if (n_diag <= 0).any() or not np.isfinite(n_diag).all():
        raise ValueError("power-allocation diagonal must be strictly positive")
    return PrecoderOutput(p=precoder.p * (1.0 / n_diag)[..., None, :], f=precoder.f)


def reform(precoder: PrecoderOutput, coeffs: SinrCoefficients, eta):
    """``precoder`` and its SINR coefficients re-formed for the allocation
    ``eta``: ``apply_allocation`` with ``N = diag(sqrt(eta))``, which checks
    ``eta`` first, and, as the coefficients are quadratic in P's columns,
    ``psi_i`` and column i of ``phi`` and ``gamma`` divided by ``eta_i``."""
    eta = np.asarray(eta, dtype=float)
    reformed, column = apply_allocation(precoder, np.sqrt(eta)), eta[..., None, :]
    return reformed, replace(coeffs, psi=coeffs.psi / eta, phi=coeffs.phi / column,
                             gamma=coeffs.gamma / column)


def mmse_precoder(g_hat, n_diag, e_tr, rho_f, sigma_w2: float,
                  sigma_s2: float = 1.0) -> PrecoderOutput:
    """MMSE precoder for a given diagonal power allocation.

    ``n_diag`` holds the K strictly positive diagonal entries (sqrt of the
    per-user power coefficients), or one such row per stacked channel, or
    None for the identity allocation, which divides nothing. The auxiliary
    solution and normalization f do not depend on it, so
    ``mmse_precoder(g, n)`` is ``apply_allocation(mmse_precoder(g, None), n)``.
    ``e_tr`` and ``rho_f`` are scalars or one value per item, ``(...)``; the
    items broadcast against the channel's leading axes.

    Each channel's Gram matrix is eigendecomposed once, ``G^T conj(G) = V
    diag(lam) V^H``, and serves every item on it: an item's ridge ``eps``
    only sets its weights ``d = 1 / (lam + eps)``. A shifted eigenvalue
    ``lam_j + eps`` at or below the Gram matrix's rounding, ``K eps_machine
    max(lam)``, gets weight 0: the pseudo-inverse limit of a singular Gram
    matrix whose ridge is below its rounding. Raises ``ValueError`` on a
    non-finite channel or ridge, and on an item whose channel is all zero.
    """
    g_hat = np.asarray(g_hat)
    if np.count_nonzero(np.asarray(e_tr) <= 0):
        raise ValueError("e_tr must be positive")
    if np.count_nonzero(np.asarray(rho_f) <= 0):
        raise ValueError("rho_f must be positive")
    if sigma_w2 < 0:
        raise ValueError("sigma_w2 must be nonnegative")

    k = g_hat.shape[-1]
    eps = np.asarray(k * sigma_w2 / e_tr, dtype=float)[..., None]
    if not np.isfinite(eps).all():
        raise ValueError("the MMSE ridge must not contain infs or NaNs")
    g_conj, gram = _gram(g_hat)
    lam, v = np.linalg.eigh(gram)               # ascending: lam[..., -1] is the largest
    if np.count_nonzero(lam[..., -1] <= 0.0):
        raise ValueError("the MMSE channel must not be all zero")
    hv = g_conj @ v
    # |conj(G) v_j|^2 is lam_j in exact arithmetic, but stays accurate where
    # lam_j is only the rounding of a singular Gram matrix
    columns = reduce_axis(np.add, hv.real ** 2 + hv.imag ** 2, axis=-2)
    shifted = lam + eps
    kept = shifted > _rounding(lam)
    d = np.divide(1.0, shifted, out=np.zeros(kept.shape), where=kept)
    f = np.sqrt(e_tr / (sigma_s2 * reduce_axis(np.add, columns * d * d)))
    # P = conj(G) V diag((f / sqrt(rho_f)) d) V^H: one (M x K)(K x K) product per item
    scale = (f / np.sqrt(rho_f))[..., None] * d
    precoder = PrecoderOutput(p=hv @ (scale[..., :, None] * v.conj().mT), f=f[()])
    return precoder if n_diag is None else apply_allocation(precoder, n_diag)


def _zf_rank(g_hat):
    """``(conj(G), gram, full)``: each channel's conjugate and Gram matrix,
    and whether the matrix's smallest eigenvalue is above its rounding."""
    g_conj, gram = _gram(g_hat)
    lam = np.linalg.eigvalsh(gram)
    return g_conj, gram, lam[..., 0] > _rounding(lam)[..., 0]


def zf_precoder(g_hat) -> PrecoderOutput:
    """Zero-forcing precoder conj(G) (G^T conj(G))^(-1); interference-free
    on the estimated channel. The K x K inverse is formed first, so one
    (M x K)(K x K) product remains. Raises ``RankDeficientError`` if any
    channel fails the rank test, and ``ValueError`` on a non-finite channel:
    a channel passes if the smallest eigenvalue of its Gram matrix is above
    that matrix's rounding, ``K eps_machine max(lam)``, the threshold of
    MMSE's pseudo-inverse limit."""
    g_hat = np.asarray(g_hat)
    g_conj, gram, full = _zf_rank(g_hat)
    if not full.all():
        deficient = full.size - np.count_nonzero(full)
        where = "" if g_hat.ndim == 2 else f" on {deficient} of {full.size} channels"
        raise RankDeficientError(
            "rank-deficient channel: the smallest eigenvalue of the Gram matrix is at or "
            f"below its rounding, K eps_machine times the largest{where}", full)
    return PrecoderOutput(p=g_conj @ np.linalg.inv(gram), f=1.0)


def cb_precoder(g_hat) -> PrecoderOutput:
    """Conjugate beamforming: transmit along the conjugated channel estimate."""
    return PrecoderOutput(p=np.asarray(g_hat).conj(), f=1.0)
