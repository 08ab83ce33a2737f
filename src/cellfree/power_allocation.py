"""Per-user power coefficients under per-antenna constraints.

Every scheme returns coefficients eta >= 0 satisfying
``sum_i eta_i * delta_{m,i} <= 1`` for each antenna m, where
``delta_{m,i} = |P_{m,i}|^2`` is the precoder's power loading. Three solvers
are provided:

* OPA: max-min SINR via bisection on the target t. Feasibility of a target
  reduces to a K x K linear solve because the SINR constraints, taken at
  equality, form a monotone interference system whose nonnegative solution
  (when it exists) is the componentwise-minimal feasible point.
* APA: gradient descent on the transmit MSE of a fixed MMSE-family
  precoder, a separable per-user quadratic read from the SINR
  coefficients, rescaled to the per-antenna constraint after every update.
* UPA: one common coefficient sized so the hottest antenna transmits at
  full power.

Every solver also accepts stacked coefficient sets and loadings along
leading axes (``(..., M, K)`` loadings, ``(..., K)`` coefficients). Each
item is solved exactly as its own 2-D call would solve it; OPA bisects all
items in lockstep, each with its own bracket and stop test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .metrics import SinrCoefficients, analytic_sinr, sinr_coefficients
from .precoding import PrecoderOutput

# slack for the per-antenna constraint checks; results satisfy the
# constraint to this relative accuracy
CONSTRAINT_TOL = 1e-9


@dataclass
class AllocationResult:
    eta: np.ndarray               # (..., K) nonnegative
    iterations: int               # OPA: halvings (for a stack, the most any item took)
    achieved_t: Optional[float] = None      # OPA: certified lower bound on min SINR, (...)
    cost_trace: Optional[list] = None       # APA: MSE cost per iteration
    eta_trace: Optional[list] = None        # APA: coefficients per iteration

    @property
    def n_diag(self) -> np.ndarray:
        """Diagonal of the power-allocation matrix, sqrt(eta)."""
        return np.sqrt(self.eta)


def upa(delta) -> AllocationResult:
    """Uniform allocation: equal eta sized by the most loaded antenna."""
    delta = np.asarray(delta, dtype=float)
    peak = delta.sum(axis=-1).max(axis=-1)
    if (peak <= 0.0).any():
        raise ValueError("precoder is identically zero; no power loading to size")
    eta = np.full(peak.shape + delta.shape[-1:], (1.0 / peak)[..., None])
    return AllocationResult(eta=eta, iterations=0)


def sinr_feasible(t, coeffs: SinrCoefficients, delta):
    """Test whether some eta >= 0 reaches SINR_k >= t for all users.

    Solves the SINR constraints at equality; the interference coupling is a
    nonnegative monotone map, so an elementwise-nonnegative solution is the
    minimal eta meeting the SINR targets and only the per-antenna caps
    remain to be checked. ``t`` is one target or one per stacked item.
    Returns (feasible, eta): feasible per item, and the minimal eta where
    feasible (NaN rows elsewhere). A singular system makes only its own item
    infeasible.
    """
    t = np.asarray(t, dtype=float)
    if np.count_nonzero(t < 0):
        raise ValueError("SINR target t must be nonnegative")
    delta = np.asarray(delta, dtype=float)
    t_rho = t * coeffs.rho_f
    a = (-t_rho)[..., None, None] * coeffs.coupling
    diagonal = np.einsum("...ii->...i", a)              # a writable view
    diagonal[...] = coeffs.rho_psi - t_rho[..., None] * coeffs.gamma_diag
    b = (t * coeffs.sigma_w2)[..., None, None] * np.ones((a.shape[-1], 1))
    try:
        eta = np.linalg.solve(a, b)[..., 0]
    except np.linalg.LinAlgError:
        eta = np.full(a.shape[:-1], np.nan)
        for i in np.ndindex(a.shape[:-2]):
            try:
                eta[i] = np.linalg.solve(a[i], b[i])[..., 0]
            except np.linalg.LinAlgError:
                pass                    # singular: this item stays infeasible
    if np.count_nonzero(t) < t.size:
        # the zero target is met by eta = 0, whatever the system
        eta = np.where((t == 0.0)[..., None], 0.0, eta)
    ok = ((eta >= 0.0) & (eta < np.inf)).all(axis=-1)
    feasible = np.count_nonzero(ok)
    if not feasible:
        return ok[()], np.full(eta.shape, np.nan)
    checked = eta if feasible == ok.size else np.where(ok[..., None], eta, 0.0)
    # guard against spurious solutions of an indefinite system
    ok &= ~(analytic_sinr(coeffs, checked) < (t * (1.0 - 1e-9))[..., None]).any(axis=-1)
    ok &= ~(np.matvec(delta, checked).max(axis=-1) > 1.0 + CONSTRAINT_TOL)
    return ok[()], np.where(ok[..., None], eta, np.nan)


# Feasibility targets per lockstep round. Each round tests, for each of the
# n items, every midpoint its next `levels` halvings could visit (a probe
# tree of 2**levels - 1 targets) in one call, then follows the item's own
# decisions down the tree: the same targets and decisions as one call per
# halving, with fewer calls. `levels` is the most that keeps n trees within
# this many targets, and at least 1; a single link gets 4.
OPA_PROBES_PER_CALL = 16


def _probe_trees(t_lo, t_hi, levels: int) -> np.ndarray:
    """Midpoints of every bracket the next ``levels`` halvings of each
    [t_lo, t_hi] could test, (n, 2**levels - 1).

    Level l holds 2**l probes from index 2**l - 1 on; the probe at position p
    of level l splits its bracket into those of positions p (lower half) and
    p + 2**l (upper half) of level l + 1.
    """
    lo, hi, mids = t_lo[:, None], t_hi[:, None], []
    for _ in range(levels):
        mid = 0.5 * (lo + hi)
        mids.append(mid)
        lo, hi = np.concatenate((lo, mid), axis=1), np.concatenate((mid, hi), axis=1)
    return np.concatenate(mids, axis=1)


def _bisect(coeffs, delta, t_hi, iterations, tol):
    """Lockstep bisection over a flat batch (coefficients and loadings carry
    a singleton probe axis, ``(n, 1, ...)``) of brackets [0, t_hi] with
    t_hi > 0. Returns (lower bracket ends, eta, steps)."""
    n = t_hi.size
    lo, hi = [0.0] * n, t_hi.tolist()
    best_eta = np.zeros((n, coeffs.psi.shape[-1]))
    levels = max(1, (OPA_PROBES_PER_CALL // n + 1).bit_length() - 1)
    steps = 0
    while steps < iterations:
        depth = min(levels, iterations - steps)
        probes = _probe_trees(np.array(lo), np.array(hi), depth)
        ok, eta = sinr_feasible(probes, coeffs, delta)
        probes, ok = probes.tolist(), ok.tolist()
        deepest = 0
        raised = {}                     # item -> probe of its new best eta
        for i in range(n):
            # the scalar bisection loop, on this round's tested targets
            position = 0
            for level in range(depth):
                if hi[i] - lo[i] < tol:
                    break
                deepest = max(deepest, level + 1)
                j = 2 ** level - 1 + position
                if ok[i][j]:
                    lo[i] = probes[i][j]
                    raised[i] = j
                    position += 2 ** level
                else:
                    hi[i] = probes[i][j]
        if raised:
            rows = list(raised)
            best_eta[rows] = eta[rows, list(raised.values())]
        steps += deepest
        if deepest < depth:
            break
    return np.array(lo), best_eta, steps


def opa_bisection(coeffs: SinrCoefficients, delta, iterations: int = 30,
                  tol: float = 1e-6) -> AllocationResult:
    """Max-min SINR allocation by bisection on the common target.

    The bracket is [0, t_hi], where t_hi doubles the largest of the users'
    interference-free SINRs at their per-antenna power caps. No allocation
    reaches t_hi: ``eta_k max_m delta[m,k] <= 1`` bounds every
    ``SINR_k <= rho_f psi_k / (sigma_w2 max_m delta[m,k])``, so the bracket
    always contains the optimum. Runs ``iterations`` halvings or stops once
    the interval is narrower than ``tol``.

    Stacked items bisect in lockstep, each with its own bracket, stop test
    and best point; ``iterations`` of the result counts the lockstep
    halvings, which for a single item is its number of halvings.
    """
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    delta = np.asarray(delta, dtype=float)
    batch, k = coeffs.psi.shape[:-1], coeffs.psi.shape[-1]
    m = delta.shape[-2]

    col_peak = delta.max(axis=-2)
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = np.where(col_peak > 0,
                         coeffs.rho_f * coeffs.psi / (coeffs.sigma_w2 * col_peak),
                         0.0)
    t_hi = (2.0 * bound.max(axis=-1)).reshape(-1)

    # one flat batch axis plus a singleton probe axis; an empty bracket
    # (t_hi == 0) keeps eta = 0 and achieved_t = 0
    live = ~(t_hi <= 0.0)
    rows = slice(None) if np.count_nonzero(live) == live.size else live
    eta = np.zeros((t_hi.size, k))
    achieved = np.zeros(t_hi.size)
    steps = 0
    if np.count_nonzero(live):
        probed = SinrCoefficients(psi=coeffs.psi.reshape(-1, 1, k)[rows],
                                  phi=coeffs.phi.reshape(-1, 1, k, k)[rows],
                                  gamma=coeffs.gamma.reshape(-1, 1, k, k)[rows],
                                  rho_f=coeffs.rho_f, sigma_w2=coeffs.sigma_w2)
        delta = np.broadcast_to(delta, batch + (m, k)).reshape(-1, 1, m, k)[rows]
        achieved[rows], eta[rows], steps = _bisect(probed, delta, t_hi[rows],
                                                   iterations, tol)
    return AllocationResult(eta=eta.reshape(batch + (k,)), iterations=steps,
                            achieved_t=achieved.reshape(batch)[()])


def apa_terms(coeffs: SinrCoefficients, f, sigma_s2: float = 1.0):
    """``(c, b, const)`` of the transmit MSE of an MMSE-family precoder,
    ``const + sum_k (c_k nu_k^2 - 2 b_k nu_k)`` in ``nu = sqrt(eta)``.

    With ``a = g_hat^T P``: ``c_k = rho_f sigma_s2 / f^2 sum_i |a_ik|^2`` and
    ``b_k = sqrt(rho_f) sigma_s2 / f Re a_kk``, where ``Re a_kk = sqrt(psi_k)``
    because ``a`` is Hermitian positive semidefinite, times a positive
    diagonal once re-formed as ``P N^(-1)``.
    """
    f = np.asarray(f, dtype=float)
    k = coeffs.psi.shape[-1]
    c = (coeffs.rho_f / f ** 2 * sigma_s2)[..., None] * coeffs.phi.sum(axis=-2)
    b = (np.sqrt(coeffs.rho_f) / f * sigma_s2)[..., None] * np.sqrt(coeffs.psi)
    return c, b, k * sigma_s2 + k * coeffs.sigma_w2 / f ** 2


def _mse(nu, c, b, const):
    return (const + np.vecdot(c * nu - 2.0 * b, nu))[()]


def apa_cost(n_diag, coeffs: SinrCoefficients, f, sigma_s2: float = 1.0):
    """MSE between the symbols and the gain-normalized receive vector, CSI
    error dropped, at the allocation diagonal n_diag."""
    return _mse(np.asarray(n_diag, dtype=float), *apa_terms(coeffs, f, sigma_s2))


def apa_sgd(precoder: PrecoderOutput, coeffs, *legacy, mu: float, iterations: int,
            sigma_s2: float = 1.0) -> AllocationResult:
    """Gradient-descent allocation against a fixed MMSE-family precoder.

    From eta = 1e-3 for every user, takes ``iterations`` steps
    ``nu <- nu - mu (c nu - b)`` (see ``apa_terms``), each followed by a
    uniform rescale onto the per-antenna cap when the coefficients exceed
    it, so every iterate is feasible. Raises if a coefficient passes 1e6
    before rescaling: the step is too large for the cost curvature.
    ``cost_trace`` and ``eta_trace`` hold the MSE and coefficients at the
    start and after every step. ``apa_sgd(precoder, g_hat, rho_f, sigma_w2,
    mu=, iterations=)``, as ``bench/micro.py`` calls it, forms ``coeffs``.
    """
    if mu < 0:
        raise ValueError("step size mu must be nonnegative")
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    if legacy:
        g_hat = np.asarray(coeffs)
        coeffs = sinr_coefficients(precoder.p, g_hat, np.zeros(g_hat.shape), *legacy)
    c, b, const = apa_terms(coeffs, precoder.f, sigma_s2)

    eta = np.full(c.shape, 1e-3)
    cost_trace, eta_trace = [_mse(np.sqrt(eta), c, b, const)], [eta]
    for _ in range(iterations):
        nu = np.sqrt(eta)
        eta = (nu - mu * (c * nu - b)) ** 2
        if np.any(eta > 1e6):
            raise ValueError("allocation diverged before rescaling; reduce the step size")
        # x / max(load, 1) is x itself wherever load <= 1
        load = np.matvec(precoder.delta, eta).max(axis=-1)
        eta = eta / np.maximum(load, 1.0)[..., None]
        cost_trace.append(_mse(np.sqrt(eta), c, b, const))
        eta_trace.append(eta)
    return AllocationResult(eta=eta, iterations=iterations,
                            cost_trace=cost_trace, eta_trace=eta_trace)
