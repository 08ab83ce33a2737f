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

Every function also accepts a stack of channels ``(..., M, K)`` and then
returns stacked outputs (``f`` of shape ``(...)``); each item of a stack is
computed exactly as its own 2-D call. ``mmse_precoder`` also takes ``e_tr``
and ``rho_f`` per item, ``(...)``, broadcast against the channels' leading
axes: ``(S,)`` against one channel, or ``(S, 1)`` against a stack of B
channels for S x B items. Each channel's Gram matrix is formed once and
only the ridge and the scaling differ per item. The ridge systems are
solved by one batched ``np.linalg.solve``, after a batched Cholesky test
that they are positive definite (``_ridge_solve``). The ZF systems are
solved by a loop of LAPACK's Cholesky pair over the items (``_cho_solve``,
SciPy's ``cho_solve(cho_factor(...))`` bitwise): its per-item rank test
decides which masks ZF rejects.
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


def _ridge_solve(g_hat: np.ndarray, eps) -> np.ndarray:
    """Solve (conj(G) G^T + eps I_M) X = conj(G) without forming an inverse,
    in the equivalent K x K Gram form conj(G) (G^T conj(G) + eps I_K)^(-1).
    ``eps`` is one ridge or one per item, ``(...)``, broadcast against the
    channel's leading axes; the Gram matrix is formed once either way, and
    every item is solved by one batched ``np.linalg.solve``.

    The Gram matrix is Hermitian positive definite for eps > 0 in exact
    arithmetic, and a batched Cholesky factorization tests that it is so in
    floating point before the solve. It fails where the ridge is below the
    rounding of a singular Gram matrix, as when users share a selection at
    very high SNR; the ``LinAlgError`` then names that cause.
    """
    k = g_hat.shape[-1]
    ridge = np.asarray(eps, dtype=float)[..., None, None]
    if not (np.isfinite(g_hat).all() and np.isfinite(ridge).all()):
        raise ValueError("the MMSE ridge system must not contain infs or NaNs")
    a = g_hat.mT @ g_hat.conj() + ridge * np.eye(k)
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError as err:
        raise np.linalg.LinAlgError(
            "the MMSE ridge system is not positive definite: its ridge "
            "K sigma_w2 / E_tr is below the rounding of the Gram matrix, as when "
            "users share a selection at very high SNR") from err
    # want conj(G) a^(-1); a is Hermitian, so solve a X = G^T and
    # conjugate-transpose the result
    return np.linalg.solve(a, g_hat.mT).conj().mT


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
    per-user power coefficients), or one such row per stacked channel. The
    auxiliary solution and normalization f do not depend on it, so
    ``mmse_precoder(g, n)`` is ``apply_allocation(mmse_precoder(g, ones), n)``.
    ``e_tr`` and ``rho_f`` are scalars or one value per item, ``(...)``; the
    items broadcast against the channel's leading axes.
    """
    g_hat = np.asarray(g_hat)
    if np.count_nonzero(np.asarray(e_tr) <= 0):
        raise ValueError("e_tr must be positive")
    if np.count_nonzero(np.asarray(rho_f) <= 0):
        raise ValueError("rho_f must be positive")
    if sigma_w2 < 0:
        raise ValueError("sigma_w2 must be nonnegative")

    k = g_hat.shape[-1]
    eps = k * sigma_w2 / e_tr
    p_tilde = _ridge_solve(g_hat, eps)
    norm2 = (p_tilde.real ** 2 + p_tilde.imag ** 2).sum(axis=(-2, -1))
    f = np.sqrt(e_tr / (sigma_s2 * norm2))
    p = (f / np.sqrt(rho_f))[..., None, None] * p_tilde
    return apply_allocation(PrecoderOutput(p=p, f=f[()]), n_diag)


def _zf_gram(g_hat: np.ndarray) -> np.ndarray:
    return g_hat.mT @ g_hat.conj()


def zf_full_rank(g_hat) -> np.ndarray:
    """Per item of a ``(..., M, K)`` stack of channels, whether
    ``zf_precoder`` accepts it: whether the Cholesky factorization of its
    Gram matrix, the test ``zf_precoder``'s solve applies, succeeds."""
    gram = np.asarray_chkfinite(_zf_gram(np.asarray(g_hat)))
    potrf, = get_lapack_funcs(("potrf",), (gram,))
    items = gram.shape[:-2]
    return np.array([_cholesky(potrf, gram[i])[1] == 0 for i in np.ndindex(items)],
                    dtype=bool).reshape(items)


def zf_precoder(g_hat) -> PrecoderOutput:
    """Zero-forcing precoder conj(G) (G^T conj(G))^(-1); interference-free
    on the estimated channel. Raises on a rank-deficient channel."""
    g_hat = np.asarray(g_hat)
    gram = _zf_gram(g_hat)
    try:
        p = _cho_solve(gram, g_hat.mT).conj().mT
    except np.linalg.LinAlgError as err:
        raise np.linalg.LinAlgError(f"rank-deficient channel: {err}") from err
    return PrecoderOutput(p=p, f=1.0)


def cb_precoder(g_hat) -> PrecoderOutput:
    """Conjugate beamforming: transmit along the conjugated channel estimate."""
    return PrecoderOutput(p=np.asarray(g_hat).conj(), f=1.0)
