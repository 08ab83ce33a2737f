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

Every function also accepts a stack of channels ``(..., M, K)`` and then
returns stacked outputs (``f`` of shape ``(...)``); each item of a stack is
computed exactly as its own 2-D call. ``mmse_precoder`` also takes ``e_tr``
and ``rho_f`` per item, ``(...)``, broadcast against the channels' leading
axes: ``(S,)`` against one channel, or ``(S, 1)`` against a stack of B
channels for S x B items; each channel is eigendecomposed once for all of
its items. The ZF systems are solved by a loop of LAPACK's Cholesky pair
over the items (``_cho_solve``, SciPy's ``cho_solve(cho_factor(...))``
bitwise): its per-item rank test decides which masks ZF rejects.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import get_lapack_funcs


@dataclass(frozen=True)
class PrecoderOutput:
    """Precoding matrix with its normalization and per-entry power loadings."""

    p: np.ndarray          # (..., M, K) complex
    f: float               # receive-side gain-control normalization, (...)

    @cached_property
    def delta(self) -> np.ndarray:
        """(..., M, K) per-antenna per-user power loadings |P_{m,i}|^2."""
        return np.abs(self.p) ** 2


class RankDeficientError(np.linalg.LinAlgError):
    """ZF's Gram matrix of a channel is not positive definite in floating
    point: the channel is rank-deficient."""


def _cholesky(potrf, a):
    """LAPACK's lower Cholesky factor of one ``(n, n)`` item and its info,
    as ``cho_factor`` calls ``potrf``; info > 0 where it is not positive
    definite."""
    return potrf(a, lower=True, overwrite_a=False, clean=False)


def _cho_solve(a, b) -> np.ndarray:
    """``cho_solve(cho_factor(a, lower=True), b)`` over leading axes.

    ``a`` is ``(..., n, n)`` Hermitian and ``b`` is ``(..., n, r)``; their
    leading axes broadcast. Each item runs LAPACK's ``potrf``/``potrs`` pair
    as SciPy's 2-D calls do, without the per-item checks and lookups of
    SciPy's leading-axis wrapper. A stack is assembled as that wrapper
    assembles it, ``np.stack`` of the items' Fortran-ordered solutions, and a
    2-D call returns ``potrs``'s array itself, so every result has SciPy's
    memory order as well as its values. Raises ``ValueError`` on a
    non-finite operand and ``LinAlgError`` on an item that is not positive
    definite.
    """
    a = np.asarray_chkfinite(a)
    b = np.asarray_chkfinite(b)
    potrf, = get_lapack_funcs(("potrf",), (a,))
    potrs, = get_lapack_funcs(("potrs",), (a, b))

    def solve(a, b):
        c, info = _cholesky(potrf, a)
        if info == 0:
            x, info = potrs(c, b, lower=True, overwrite_b=False)
            if info == 0:
                return x
        if info > 0:
            raise np.linalg.LinAlgError(
                f"{info}-th leading minor of the array is not positive definite")
        raise ValueError(f"LAPACK reported an illegal value in argument {-info}")

    if a.ndim == b.ndim == 2:
        return solve(a, b)
    batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    a = np.broadcast_to(a, batch + a.shape[-2:])
    b = np.broadcast_to(b, batch + b.shape[-2:])
    x = np.stack([solve(a[i], b[i]) for i in np.ndindex(batch)])
    return x.reshape(batch + x.shape[1:])


def _gram(g_hat: np.ndarray) -> np.ndarray:
    """G^T conj(G), the K x K Gram matrix of each channel."""
    return g_hat.mT @ g_hat.conj()


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
    return PrecoderOutput(p=precoder.p / n_diag[..., None, :], f=precoder.f)


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
    if not (np.isfinite(g_hat).all() and np.isfinite(eps).all()):
        raise ValueError("the MMSE channel and ridge must not contain infs or NaNs")
    lam, v = np.linalg.eigh(_gram(g_hat))       # ascending: lam[..., -1] is the largest
    if np.count_nonzero(lam[..., -1] <= 0.0):
        raise ValueError("the MMSE channel must not be all zero")
    hv = g_hat.conj() @ v
    # |conj(G) v_j|^2 is lam_j in exact arithmetic, but stays accurate where
    # lam_j is only the rounding of a singular Gram matrix
    columns = (hv.real ** 2 + hv.imag ** 2).sum(axis=-2)
    shifted = lam + eps
    kept = shifted > k * np.finfo(float).eps * lam[..., -1:]
    d = np.divide(1.0, shifted, out=np.zeros(kept.shape), where=kept)
    f = np.sqrt(e_tr / (sigma_s2 * (columns * d * d).sum(axis=-1)))
    # P = conj(G) V diag((f / sqrt(rho_f)) d) V^H: one (M x K)(K x K) product per item
    scale = (f / np.sqrt(rho_f))[..., None] * d
    precoder = PrecoderOutput(p=hv @ (scale[..., :, None] * v.conj().mT), f=f[()])
    return precoder if n_diag is None else apply_allocation(precoder, n_diag)


def zf_full_rank(g_hat) -> np.ndarray:
    """Per item of a ``(..., M, K)`` stack of channels, whether
    ``zf_precoder`` accepts it: whether the Cholesky factorization of its
    Gram matrix, the test ``zf_precoder``'s solve applies, succeeds."""
    gram = np.asarray_chkfinite(_gram(np.asarray(g_hat)))
    potrf, = get_lapack_funcs(("potrf",), (gram,))
    items = gram.shape[:-2]
    return np.array([_cholesky(potrf, gram[i])[1] == 0 for i in np.ndindex(items)],
                    dtype=bool).reshape(items)


def zf_precoder(g_hat) -> PrecoderOutput:
    """Zero-forcing precoder conj(G) (G^T conj(G))^(-1); interference-free
    on the estimated channel. Raises ``RankDeficientError`` on a
    rank-deficient channel."""
    g_hat = np.asarray(g_hat)
    gram = _gram(g_hat)
    try:
        p = _cho_solve(gram, g_hat.mT).conj().mT
    except np.linalg.LinAlgError as err:
        raise RankDeficientError(f"rank-deficient channel: {err}") from err
    return PrecoderOutput(p=p, f=1.0)


def cb_precoder(g_hat) -> PrecoderOutput:
    """Conjugate beamforming: transmit along the conjugated channel estimate."""
    return PrecoderOutput(p=np.asarray(g_hat).conj(), f=1.0)
