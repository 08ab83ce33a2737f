"""Per-user power coefficients under per-antenna constraints.

Every scheme returns coefficients eta >= 0 satisfying
``sum_i eta_i * delta_{m,i} <= 1`` for each antenna m, where
``delta_{m,i} = |P_{m,i}|^2`` is the precoder's power loading. Three solvers
are provided:

* OPA: max-min SINR via bisection on the target t. Feasibility of a target
  reduces to a K x K linear solve because the SINR constraints, taken at
  equality, form a monotone interference system whose nonnegative solution
  (when it exists) is the componentwise-minimal feasible point.
* APA: stochastic-gradient descent on the transmit MSE, rescaled to the
  per-antenna constraint after every update.
* UPA: one common coefficient sized so the hottest antenna transmits at
  full power.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .metrics import SinrCoefficients, analytic_sinr
from .precoding import PrecoderOutput

# slack for the per-antenna constraint checks; results satisfy the
# constraint to this relative accuracy
CONSTRAINT_TOL = 1e-9


@dataclass
class AllocationResult:
    eta: np.ndarray               # (K,) nonnegative
    iterations: int
    achieved_t: Optional[float] = None      # OPA: certified lower bound on min SINR
    cost_trace: Optional[list] = None       # APA: MSE cost per iteration
    eta_trace: Optional[list] = None        # APA: coefficients per iteration

    @property
    def n_diag(self) -> np.ndarray:
        """Diagonal of the power-allocation matrix, sqrt(eta)."""
        return np.sqrt(self.eta)


def upa(delta) -> AllocationResult:
    """Uniform allocation: equal eta sized by the most loaded antenna."""
    delta = np.asarray(delta, dtype=float)
    row_load = delta.sum(axis=1)
    peak = row_load.max()
    if peak <= 0.0:
        raise ValueError("precoder is identically zero; no power loading to size")
    eta = np.full(delta.shape[1], 1.0 / peak)
    return AllocationResult(eta=eta, iterations=0)


def sinr_feasible(t: float, coeffs: SinrCoefficients, delta):
    """Test whether some eta >= 0 reaches SINR_k >= t for all users.

    Solves the SINR constraints at equality; the interference coupling is a
    nonnegative monotone map, so an elementwise-nonnegative solution is the
    minimal eta meeting the SINR targets and only the per-antenna caps
    remain to be checked. Returns (feasible, eta-or-None) with the minimal
    eta on success.
    """
    if t < 0:
        raise ValueError("SINR target t must be nonnegative")
    delta = np.asarray(delta, dtype=float)
    k = coeffs.psi.shape[0]
    if t == 0.0:
        return True, np.zeros(k)

    rho = coeffs.rho_f
    a = -t * rho * (coeffs.phi + coeffs.gamma)
    np.fill_diagonal(a, rho * coeffs.psi - t * rho * np.diag(coeffs.gamma))
    b = np.full(k, t * coeffs.sigma_w2)
    try:
        eta = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return False, None
    if not np.all(np.isfinite(eta)) or np.any(eta < 0):
        return False, None
    # guard against spurious solutions of an indefinite system
    if np.any(analytic_sinr(coeffs, eta) < t * (1.0 - 1e-9)):
        return False, None
    if np.max(delta @ eta) > 1.0 + CONSTRAINT_TOL:
        return False, None
    return True, eta


def opa_bisection(coeffs: SinrCoefficients, delta, t_lo: float = 0.0,
                  t_hi: Optional[float] = None, iterations: int = 30,
                  tol: float = 1e-6) -> AllocationResult:
    """Max-min SINR allocation by bisection on the common target.

    The default upper bracket doubles each user's interference-free SINR at
    its per-antenna power cap. If the bracket turns out feasible it is
    doubled (with a warning) until it is not, so the interval always
    contains the optimum. Runs ``iterations`` halvings or stops once the
    interval is narrower than ``tol``.
    """
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    delta = np.asarray(delta, dtype=float)
    k = coeffs.psi.shape[0]

    if t_hi is None:
        col_peak = delta.max(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = np.where(col_peak > 0,
                             coeffs.rho_f * coeffs.psi / (coeffs.sigma_w2 * col_peak),
                             0.0)
        t_hi = 2.0 * float(np.max(bound))
    if t_hi <= t_lo:
        return AllocationResult(eta=np.zeros(k), iterations=0, achieved_t=0.0)

    for _ in range(60):
        ok, _ = sinr_feasible(t_hi, coeffs, delta)
        if not ok:
            break
        warnings.warn("upper SINR bracket was feasible; doubling it", RuntimeWarning)
        t_lo = t_hi
        t_hi = 2.0 * t_hi

    best_eta = np.zeros(k)
    used = 0
    for _ in range(iterations):
        if t_hi - t_lo < tol:
            break
        t_mid = 0.5 * (t_lo + t_hi)
        ok, eta = sinr_feasible(t_mid, coeffs, delta)
        used += 1
        if ok:
            t_lo = t_mid
            best_eta = eta
        else:
            t_hi = t_mid
    return AllocationResult(eta=best_eta, iterations=used, achieved_t=float(t_lo))


def apa_cost(n_diag, effective, rho_f: float, f: float, sigma_w2: float,
             sigma_s2: float = 1.0) -> float:
    """Transmit MSE for allocation diagonal n_diag.

    ``effective`` is the K x K matrix g_hat^T P of the fixed precoder. The
    cost is the mean-square error between the symbols and the
    gain-normalized receive vector, dropping the CSI-error contribution.
    """
    nu = np.asarray(n_diag, dtype=float)
    k = nu.shape[0]
    a = np.asarray(effective)
    lin = np.real(np.diag(a)) @ nu
    quad = np.real(np.einsum("ik,ik,k->", a.conj(), a, nu ** 2))
    return float(k * sigma_s2 + k * sigma_w2 / f ** 2
                 - 2.0 * np.sqrt(rho_f) / f * sigma_s2 * lin
                 + rho_f / f ** 2 * sigma_s2 * quad)


def apa_gradient(n_diag, effective, rho_f: float, f: float,
                 sigma_s2: float = 1.0) -> np.ndarray:
    """Wirtinger gradient of the transmit MSE with respect to conj(N)."""
    nu = np.asarray(n_diag, dtype=float)
    a = np.asarray(effective)
    return (-np.sqrt(rho_f) / f * sigma_s2 * a.conj().T
            + rho_f / f ** 2 * sigma_s2 * (a.conj().T @ a) * nu[None, :])


def apa_sgd(precoder: PrecoderOutput, g_hat, rho_f: float, sigma_w2: float,
            mu: float, iterations: int, sigma_s2: float = 1.0) -> AllocationResult:
    """Stochastic-gradient power allocation against a fixed precoder.

    Starts from eta = 1e-3 for every user and takes ``iterations`` gradient
    steps on the transmit MSE, keeping the real diagonal of each update.
    After every step the coefficients are rescaled uniformly onto the
    per-antenna cap when they exceed it, and the rescaled state is carried
    into the next step, so every iterate is feasible and the state stays
    bounded. Raises if a coefficient passes 1e6 before rescaling, which
    indicates a step size too large for the cost curvature.

    ``cost_trace`` holds the MSE at the carried state (one entry per
    iteration plus the start); ``eta_trace`` the matching coefficients.
    """
    if mu < 0:
        raise ValueError("step size mu must be nonnegative")
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    g_hat = np.asarray(g_hat)
    delta = precoder.delta
    k = g_hat.shape[1]
    effective = g_hat.T @ precoder.p
    f = precoder.f

    eta = np.full(k, 1e-3)
    cost_trace = [apa_cost(np.sqrt(eta), effective, rho_f, f, sigma_w2, sigma_s2)]
    eta_trace = [eta.copy()]
    for _ in range(iterations):
        nu = np.sqrt(eta)
        grad = apa_gradient(nu, effective, rho_f, f, sigma_s2)
        nu_next = nu - mu * np.real(np.diag(grad))
        eta = nu_next ** 2
        if np.any(eta > 1e6):
            raise ValueError("allocation diverged before rescaling; reduce the step size")
        load = float(np.max(delta @ eta))
        if load > 1.0:
            eta = eta / load
        cost_trace.append(apa_cost(np.sqrt(eta), effective, rho_f, f, sigma_w2, sigma_s2))
        eta_trace.append(eta.copy())
    return AllocationResult(eta=eta, iterations=iterations,
                            cost_trace=cost_trace, eta_trace=eta_trace)
