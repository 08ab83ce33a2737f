"""Per-user power coefficients under per-antenna constraints.

Every scheme returns coefficients eta >= 0 satisfying
``sum_i eta_i * delta_{m,i} <= 1`` for each antenna m, where
``delta_{m,i} = |P_{m,i}|^2`` is the precoder's power loading. Three solvers
are provided:

* OPA: max-min SINR, as bisection on the target t finds it. Feasibility of
  a target reduces to a K x K linear solve because the SINR constraints,
  taken at equality, form a monotone interference system whose nonnegative
  solution (when it exists) is the componentwise-minimal feasible point.
  The max-min target t* itself is an inverse Perron root, found by a few
  Newton steps of two batched K x K solves each, with no
  eigendecomposition; the bisection's halvings are replayed from it, and
  only the midpoints within 1e-8 of t* are tested. The call that returns
  eta also certifies that band; a band that fails widens and the replay
  runs once more. ``opa_bound`` brackets OPA's answer in closed form, with
  no solve, for exhaustive selection's screen.
* APA: gradient descent on the transmit MSE of a fixed MMSE-family
  precoder, a separable per-user quadratic read from the SINR
  coefficients, rescaled to the per-antenna constraint after every update.
* UPA: one common coefficient sized so the hottest antenna transmits at
  full power.

Every solver also accepts stacked coefficient sets and loadings along
leading axes (``(..., M, K)`` loadings, ``(..., K)`` coefficients), and
coefficients whose ``rho_f`` is given per item, ``(...)``; the items of the
loadings, the coefficients and ``rho_f`` broadcast together. Each item is
solved exactly as its own 2-D call would solve it. OPA keeps the items in
the shape they arrive in, with one layout for its bracket, root and
replay. Its root solve steps every item with a root together, one pair of
batched solves per step, and an item freezes at its own stop. Every item
then replays bisection's halvings in a Python float loop; one
``sinr_feasible`` call per round tests the midpoints that some items
cannot decide from their band, and one more returns every item's eta and
checks every band.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .metrics import (SinrCoefficients, analytic_sinr, reduce_axis, sinr_coefficients,
                      unrepeated)
from .precoding import PrecoderOutput

# slack for the per-antenna constraint checks; results satisfy the
# constraint to this relative accuracy
CONSTRAINT_TOL = 1e-9


@dataclass
class AllocationResult:
    eta: np.ndarray               # (..., K) nonnegative
    iterations: int               # OPA: halvings (for a stack, the most any item took)
    achieved_t: Optional[float] = None      # OPA: certified lower bound on min SINR, (...)
    tests: int = 0                          # OPA: targets handed to sinr_feasible
    cost_trace: Optional[np.ndarray] = None  # APA: MSE at the start and after each step,
                                             # (..., iterations + 1)

    @property
    def n_diag(self) -> np.ndarray:
        """Diagonal of the power-allocation matrix, sqrt(eta)."""
        return np.sqrt(self.eta)


def upa(delta) -> AllocationResult:
    """Uniform allocation: equal eta sized by the most loaded antenna."""
    delta = np.asarray(delta, dtype=float)
    peak = reduce_axis(np.maximum, reduce_axis(np.add, delta))
    if (peak <= 0.0).any():
        raise ValueError("precoder is identically zero; no power loading to size")
    eta = np.full(peak.shape + delta.shape[-1:], (1.0 / peak)[..., None])
    return AllocationResult(eta=eta, iterations=0)


def sinr_feasible(t, coeffs: SinrCoefficients, delta):
    """Test whether some eta >= 0 reaches SINR_k >= t for all users.

    Solves the SINR constraints at equality; the interference coupling is a
    nonnegative monotone map, so an elementwise-nonnegative solution is the
    minimal eta meeting the SINR targets and only the per-antenna caps
    remain to be checked. ``t`` is one target or one per stacked item, and
    broadcasts against the items of the coefficients and of their ``rho_f``.
    Returns (feasible, eta): feasible per item, and the minimal eta where
    feasible (NaN rows elsewhere). A singular system makes only its own item
    infeasible.
    """
    t = np.asarray(t, dtype=float)
    if np.count_nonzero(t < 0):
        raise ValueError("SINR target t must be nonnegative")
    delta = np.asarray(delta, dtype=float)
    t_rho = t * np.asarray(coeffs.rho_f)
    a = (-t_rho)[..., None, None] * coeffs.coupling
    diagonal = np.einsum("...ii->...i", a)              # a writable view
    diagonal[...] = coeffs.rho_psi - t_rho[..., None] * coeffs.gamma_diag
    b = (t * coeffs.sigma_w2)[..., None, None] * np.ones((a.shape[-1], 1))
    eta = _solve(a, b)[..., 0]          # a singular system: NaN, infeasible
    # the zero target is met by eta = 0, whatever the system
    eta = np.where((t == 0.0)[..., None], 0.0, eta)
    ok = reduce_axis(np.logical_and, (eta >= 0.0) & (eta < np.inf))
    checked = np.where(ok[..., None], eta, 0.0)
    # guard against spurious solutions of an indefinite system
    ok &= ~reduce_axis(np.logical_or,
                       analytic_sinr(coeffs, checked) < (t * (1.0 - 1e-9))[..., None])
    ok &= ~(reduce_axis(np.maximum, np.matvec(delta, checked)) > 1.0 + CONSTRAINT_TOL)
    return ok[()], np.where(ok[..., None], eta, np.nan)


# The solvers' settings, at which every scheme runs them: OPA's bisection
# halvings and stop width, and APA's step size and step count
OPA_ITERATIONS = 30
OPA_TOL = 1e-6
APA_STEP = 0.25
APA_ITERATIONS = 5
# Half-width, relative to the max-min root t*, of the band
# [t*(1 - w), t*(1 + w)] whose two ends OPA certifies with
# ``sinr_feasible``. It must exceed the root's own error and the 1e-9 slack
# ``sinr_feasible`` allows on the per-antenna loads, so that the band holds
# the target where the feasibility test flips.
OPA_ROOT_BAND = 1e-8
# Newton steps after which the root solve stops, converged or not; the
# certificate catches an item it did not converge on
ROOT_MAX_STEPS = 60


def _coupling(coeffs: SinrCoefficients, loaded):
    """``(A, b, rootless)`` of the SINR constraints, under which user k's
    SINR is ``eta_k / (b + A eta)_k``: ``A = (phi_cross + gamma) /
    psi[:, None]`` and ``b = sigma_w2 / (rho_f psi)``. ``rootless`` marks the
    items with no max-min root: a user with no desired signal
    (``psi_k = 0``), a non-finite ``A`` or ``b``, or no antenna carrying a
    load (``loaded`` False)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a = coeffs.coupling / coeffs.psi[..., None]
        b = coeffs.sigma_w2 / coeffs.rho_psi
    finite = (reduce_axis(np.logical_and, reduce_axis(np.logical_and, np.isfinite(a)))
              & reduce_axis(np.logical_and, np.isfinite(b)))
    return a, b, ~(finite & loaded)


def _solve(a, b):
    """``np.linalg.solve(a, b)`` over a batch of systems. Where one of them
    is singular, the others are solved one by one and the singular ones'
    solutions are NaN, so a singular item fails only itself."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        b = np.broadcast_to(b, a.shape[:-2] + b.shape[-2:])
        x = np.full(b.shape, np.nan)
        for i in np.ndindex(a.shape[:-2]):
            try:
                x[i] = np.linalg.solve(a[i], b[i])
            except np.linalg.LinAlgError:
                pass                    # singular: this item stays NaN
        return x


# Steps of the scaled fixed-point iteration whose iterates give
# ``opa_bound`` its lower end and the root solve its start
OPA_BOUND_STEPS = 2


def _feasible_floor(a, b, loads):
    """The best minimum SINR, ``min_k eta_k / (b + A eta)_k``, of ``eta = b``
    and ``OPA_BOUND_STEPS`` steps of ``eta <- b + A eta``, each scaled to a
    peak antenna load of 1: feasible allocations, so a lower bound on the
    max-min target t*."""
    lo = -np.inf
    eta = b
    for _ in range(OPA_BOUND_STEPS + 1):
        eta = eta / reduce_axis(np.maximum, np.matvec(loads, eta))[..., None]
        step = b + np.matvec(a, eta)
        lo = np.fmax(lo, reduce_axis(np.minimum, eta / step))
        eta = step
    return lo


def _max_min_root(coeffs: SinrCoefficients, delta):
    """The max-min SINR target t* of every item, and the Newton steps taken.

    The items are those of the coefficients, of a per-item ``rho_f`` and of
    the ``(..., M, K)`` loadings, broadcast together. At equality the SINR
    constraints read ``eta = t (b + A eta)`` with
    ``A = (phi_cross + gamma) / psi[:, None]`` and
    ``b = sigma_w2 / (rho_f psi)``, so in ``s = 1/t`` the minimal
    coefficients are ``x = (sI - A)^-1 b`` and antenna m carries the load
    ``g_m(s) = delta[m] x``. Every load falls from a pole at the Perron root
    rho(A) toward 0, and ``t* = 1/s*`` where s* is the largest s at which
    some load is 1 (Cai, Quek, Tan and Low, IEEE TSP 2012). Right of the
    pole ``(sI - A)^-1`` is nonnegative, so x is positive; an x with an
    entry at or below 0, or a singular ``sI - A``, marks s as left of it.

    Each Newton step takes two batched solves, ``(sI - A) x = b`` and
    ``(sI - A) y = x``, for the loads ``g = delta x`` and their slope
    ``-delta y``, and moves to the largest of the antennas' tangent roots of
    ``1/g_m = 1``. ``1/g_m`` is nearly linear in s, where a tangent to
    ``g_m`` itself would overshoot past the pole. s* lies between
    ``max(min_k (A 1)_k, max_m delta[m] b)`` (the smallest row sum bounds
    rho(A) from below) and the bound the uniform allocation gives. The steps
    start strictly right of the pole, at the smaller of two upper bounds on
    s*, each raised by 1e-12 relative: ``max_m delta[m] b`` plus the largest
    row sum, which bounds rho(A) from above, and ``1/lo`` with lo the
    minimum SINR of ``_feasible_floor``'s allocations. A step that leaves
    the bracket known to hold s*, or starts left of the pole, is replaced by
    the bracket's midpoint. The steps converge quadratically, so an item
    stops once its tangent step is at most 1e-6 relative, which leaves it
    about 1e-13 from s*. Every item steps in the batch's shape, and the
    ``(..., M, K)`` loads are read where they lie, never copied. A stopped
    item's s freezes at its root, right of the pole, so each item's root is
    the one its own call finds; the call's steps are the most any item
    takes. An item has no root, NaN, where a user has no desired signal
    (``psi_k = 0``), ``A`` or ``b`` is not finite or no antenna carries a
    load. It never steps: its A is taken as 0 and its s as 1, so it solves
    ``I x = b`` and never makes the batch's system singular.
    """
    peak = reduce_axis(np.maximum, reduce_axis(np.add, delta))
    a, b, rootless = _coupling(coeffs, peak > 0.0)
    k = b.shape[-1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rows = reduce_axis(np.add, a)
        noise = reduce_axis(np.maximum, np.matvec(delta, b))
        s_lo = np.maximum(reduce_axis(np.minimum, rows), noise)
        # the uniform allocation reaches SINR_k = 1 / (peak b_k + (A 1)_k),
        # so s* is at most the largest of those
        s_hi = reduce_axis(np.maximum, peak[..., None] * b + rows)
        floor = np.fmax(_feasible_floor(a, b, delta), 0.0)     # 0 where it gives none
        s = np.fmin(noise + reduce_axis(np.maximum, rows), 1.0 / floor) * (1.0 + 1e-12)

        # an item without a root solves I x = b, never a singular system
        a = np.where(rootless[..., None, None], 0.0, a)
        s = np.where(rootless, 1.0, s)
        live = ~rootless
        eye = np.eye(k)
        steps = 0
        while live.any() and steps < ROOT_MAX_STEPS:
            steps += 1
            shifted = s[..., None, None] * eye - a
            x = _solve(shifted, b[..., None])
            y = _solve(shifted, x)[..., 0]
            x = x[..., 0]
            g, gy = np.matvec(delta, x), np.matvec(delta, y)
            # the largest tangent step; an unloaded antenna (g_m = 0) gives
            # NaN, and left of the pole there is none
            right = reduce_axis(np.logical_and, (x > 0.0) & (x < np.inf))
            move = np.where(right, reduce_axis(np.fmax, g * (g - 1.0) / gy), np.nan)
            left = ~right | (move >= 0.0)                 # some load is at least 1
            s_lo = np.where(left, s, s_lo)
            s_hi = np.where(left, s_hi, s)
            tangent = s + move
            moved = np.where((tangent >= s_lo) & (tangent <= s_hi), tangent, 0.5 * (s_lo + s_hi))
            s = np.where(live, moved, s)          # a stopped item stays right of the pole
            live &= ~(np.abs(move) <= 1e-6 * s)   # a NaN move is no stop
    return np.where(rootless, np.nan, 1.0 / s), steps


def _replay(low, high, step, floor, ceiling, iterations, tol):
    """Bisection's float loop on [low, high] after ``step`` halvings, with a
    midpoint at or below ``floor`` taken as feasible and one at or above
    ``ceiling`` as infeasible. Returns (low, high, step, mid), where mid is
    the first midpoint it cannot decide, or None once the loop stops."""
    while step < iterations and not high - low < tol:
        mid = 0.5 * (low + high)
        if mid <= floor:
            low = mid
        elif mid >= ceiling:
            high = mid
        else:
            return low, high, step, mid
        step += 1
    return low, high, step, None


def _bracket(coeffs: SinrCoefficients, delta):
    """``(loads, col_peak, t_hi)``: ``delta`` with each leading axis along
    which it repeats one load matrix (stride 0, as ``pipeline.Build`` keeps
    ZF's and CB's SNR axis) cut to length 1, each user's peak antenna load
    ``max_m loads[m, k]``, and the upper end of every item's bisection
    bracket, at the items' batch shape: the one reader of stride-0 loads."""
    delta = np.asarray(delta, dtype=float)
    loads = unrepeated(delta)
    col_peak = reduce_axis(np.maximum, loads, axis=-2)
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = np.where(col_peak > 0,
                         coeffs.rho_psi / (coeffs.sigma_w2 * col_peak), 0.0)
    batch = np.broadcast_shapes(bound.shape[:-1], delta.shape[:-2])
    return loads, col_peak, np.broadcast_to(2.0 * reduce_axis(np.maximum, bound), batch)


def opa_bisection(coeffs: SinrCoefficients, delta, iterations: int = OPA_ITERATIONS,
                  tol: float = OPA_TOL) -> AllocationResult:
    """Max-min SINR allocation: bisection's answer on the common target,
    decided from the exact max-min root.

    The bracket is [0, t_hi], where t_hi doubles the largest of the users'
    interference-free SINRs at their per-antenna power caps. No allocation
    reaches t_hi: ``eta_k max_m delta[m,k] <= 1`` bounds every
    ``SINR_k <= rho_f psi_k / (sigma_w2 max_m delta[m,k])``, so the bracket
    always contains the optimum. Bisection runs ``iterations`` halvings or
    stops once the interval is narrower than ``tol``; ``achieved_t`` is its
    lower end and ``eta`` the minimal coefficients reaching it.

    The halvings are replayed from the root t* (see ``_max_min_root``)
    rather than each tested, with the same result. Each item's root gives a
    band [t*(1 - OPA_ROOT_BAND), t*(1 + OPA_ROOT_BAND)]. Feasibility is
    monotone in the target, so if the band's low end is feasible and its
    high end is not, a midpoint at or below the band is feasible and one at
    or above it is not. Every item replays bisection's float loop on those
    decisions; while some items stop at a midpoint inside their band, one
    ``sinr_feasible`` call tests those midpoints (a zero target stands in
    for the other items) and the replay carries on. A last call on three
    targets per item, [result, band's low end, band's high end], returns eta
    and checks every band. If a band fails, its failed side widens to 0 or
    t_hi and the whole batch replays once more; a widened side always
    passes, as eta = 0 meets a zero target and no allocation reaches t_hi.
    Every item so makes the decisions that testing each midpoint would,
    whatever the root. Where no midpoint is feasible, as when t* is below
    ``tol``, the result is the certified t*(1 - OPA_ROOT_BAND), not 0. An
    item with no root, or an empty bracket (t_hi == 0, eta = 0 and
    achieved_t = 0), has the band [0, t_hi].

    Stacked items are solved together, each with its own bracket, stop test
    and result, in the shape they arrive in: the items of the coefficients,
    of a per-item ``rho_f`` and of ``delta``, broadcast together.
    ``iterations`` of the result is the most halvings any item made, and
    ``tests`` counts the targets handed to ``sinr_feasible`` over all items
    and passes. The root solve (see ``_max_min_root``) takes a few Newton
    steps of two batched K x K solves each, with no eigendecomposition, and
    steps each item until its own stop, so a stack of chains with different
    coefficient batch shapes (MMSE's one set per SNR point beside ZF's or
    CB's one set for the grid) costs one call.
    """
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    loads, _, t_hi = _bracket(coeffs, delta)
    batch, n = t_hi.shape, t_hi.size
    # the root comes at the batch of the loads with their repeats cut
    root = np.broadcast_to(_max_min_root(coeffs, loads)[0], batch)
    found_root = root > 0.0                     # False where the root is NaN
    floor = np.where(found_root, root * (1.0 - OPA_ROOT_BAND), 0.0)
    ceiling = np.where(found_root, root * (1.0 + OPA_ROOT_BAND), t_hi)
    tested = 0
    while True:
        # the float loop runs on flat Python lists of the items
        lo, hi, steps, mid = [0.0] * n, t_hi.reshape(-1).tolist(), [0] * n, [None] * n
        band = list(zip(floor.reshape(-1).tolist(), ceiling.reshape(-1).tolist()))
        undecided = range(n)
        while undecided:
            for i in undecided:
                lo[i], hi[i], steps[i], mid[i] = _replay(lo[i], hi[i], steps[i], *band[i],
                                                         iterations, tol)
            undecided = [i for i in undecided if mid[i] is not None]
            if undecided:
                targets = np.zeros(n)
                targets[undecided] = [mid[i] for i in undecided]
                ok = sinr_feasible(targets.reshape(batch), coeffs, loads)[0]
                ok = np.reshape(ok, -1).tolist()
                tested += n
                for i in undecided:
                    lo[i], hi[i] = (mid[i], hi[i]) if ok[i] else (lo[i], mid[i])
                    steps[i] += 1
        # with no feasible midpoint, the band's low end (0 if uncertified)
        low = np.reshape(lo, batch)
        achieved = np.where(low > 0.0, low, floor)
        ok, found = sinr_feasible(np.array([achieved, floor, ceiling]), coeffs, loads)
        tested += ok.size
        # a band is certified when its low end is feasible and its high end
        # is not; a side at 0 or t_hi has nothing left to widen
        wider = np.where(ok[1], floor, 0.0), np.where(ok[2], t_hi, ceiling)
        if np.array_equal(wider, (floor, ceiling)):
            return AllocationResult(eta=found[0], iterations=max(steps, default=0),
                                    achieved_t=achieved[()], tests=tested)
        floor, ceiling = wider


def opa_bound(coeffs: SinrCoefficients, delta, iterations: int = OPA_ITERATIONS,
              tol: float = OPA_TOL):
    """``(lo, hi)`` per item: an interval that holds ``opa_bisection``'s
    ``achieved_t`` with the same ``iterations`` and ``tol`` (the chain's
    ``OPA_ITERATIONS`` and ``OPA_TOL`` by default), and the minimum SINR of
    its eta, in closed form: no eigendecomposition, no root solve, no
    bisection and no feasibility test.

    With ``A = (phi_cross + gamma) / psi[:, None]``, ``b = sigma_w2 /
    (rho_f psi)`` and ``c_k = 1 / max_m delta[m, k]``, user k's SINR is
    ``eta_k / (b + A eta)_k``. An allocation whose minimum SINR is at least
    t has ``eta >= t (b + A eta) >= t b`` and ``eta_k <= c_k``, so the
    max-min target t* is at most
    ``min_k 2 c_k / (beta_k + sqrt(beta_k^2 + 4 r_k c_k))``, with
    ``beta_k = b_k + A_kk c_k`` and ``r_k = sum_{i != k} A_ki b_i``. For the
    lower end, ``eta = b`` and ``OPA_BOUND_STEPS`` steps of
    ``eta <- b + A eta``, each scaled to a peak antenna load of 1, are
    feasible allocations; t* is at least the best of their minimum SINRs.

    Bisection's last bracket lies across the target where feasibility flips,
    within ``OPA_ROOT_BAND`` relative of t*, and is at most
    ``w = max(tol, t_hi 2^-iterations)`` wide (``max(OPA_TOL, t_hi
    2^-OPA_ITERATIONS)`` by default), so its low end lies in
    ``[t*(1 - 2 OPA_ROOT_BAND) - w, t*(1 + 2 OPA_ROOT_BAND)]``: twice the
    band also covers rounding and eta meeting every SINR target to 1e-9
    relative. ``w`` also carries two spacings of ``t_hi`` for the rounding
    of the bracket's midpoints. Those margins widen the two ends. An item
    with no max-min root (a user with no desired signal, ``psi_k = 0``, a
    non-finite ``A`` or ``b``, or no loaded antenna), or whose bracket is
    empty, gets ``(nan, nan)``: it has no bound to give.
    """
    # d = 1/c_k. The upper end in d, 2 / (u + sqrt(u^2 + 4 r d)) with
    # u = b d + A_kk, stays defined for a user no antenna loads (d = 0):
    # 1/A_kk, or inf
    loads, d, t_hi = _bracket(coeffs, delta)
    a, b, rootless = _coupling(coeffs, (reduce_axis(np.maximum, d) > 0.0) & (t_hi > 0.0))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_kk = np.einsum("...ii->...i", a)
        off = a.copy()
        np.einsum("...ii->...i", off)[...] = 0.0
        u = b * d + a_kk
        hi = reduce_axis(np.minimum, 2.0 / (u + np.sqrt(u * u + 4.0 * np.matvec(off, b) * d)))
        lo = _feasible_floor(a, b, loads)
    width = np.maximum(tol, t_hi * 2.0 ** -iterations) + 2.0 * np.spacing(t_hi)
    margin = 2.0 * OPA_ROOT_BAND
    return (np.where(rootless, np.nan, lo * (1.0 - margin) - width),
            np.where(rootless, np.nan, hi * (1.0 + margin)))


def apa_terms(coeffs: SinrCoefficients, f, sigma_s2: float = 1.0):
    """``(c, b, const)`` of the transmit MSE of an MMSE-family precoder,
    ``const + sum_k (c_k nu_k^2 - 2 b_k nu_k)`` in ``nu = sqrt(eta)``; ``f``
    and the coefficients' ``rho_f`` are one value or one per item.

    With ``a = g_hat^T P``: ``c_k = rho_f sigma_s2 / f^2 sum_i |a_ik|^2`` and
    ``b_k = sqrt(rho_f) sigma_s2 / f Re a_kk``, where ``Re a_kk = sqrt(psi_k)``
    because ``a`` is Hermitian positive semidefinite, times a positive
    diagonal once re-formed as ``P N^(-1)``.
    """
    f = np.asarray(f, dtype=float)
    k = coeffs.psi.shape[-1]
    c = (coeffs.rho_f / f ** 2 * sigma_s2)[..., None] * reduce_axis(np.add, coeffs.phi, axis=-2)
    b = (np.sqrt(coeffs.rho_f) / f * sigma_s2)[..., None] * np.sqrt(coeffs.psi)
    return c, b, k * sigma_s2 + k * coeffs.sigma_w2 / f ** 2


def apa_sgd(precoder: PrecoderOutput, coeffs, *legacy, mu: float = APA_STEP,
            iterations: int = APA_ITERATIONS, sigma_s2: float = 1.0) -> AllocationResult:
    """Gradient-descent allocation against a fixed MMSE-family precoder.

    From eta = 1e-3 for every user, takes ``iterations`` steps
    ``nu <- nu - mu (c nu - b)`` (see ``apa_terms``; by default
    ``APA_ITERATIONS`` steps of ``APA_STEP``), each followed by a
    uniform rescale onto the per-antenna cap when the coefficients exceed
    it, so every iterate is feasible. Raises if a coefficient passes 1e6
    before rescaling: the step is too large for the cost curvature.
    ``cost_trace`` holds the MSE at the start and after every step,
    ``(..., iterations + 1)``: the step axis is last, so a 2-D call's is
    ``(iterations + 1,)``. Each iterate's ``nu = sqrt(eta)`` is kept, as the
    next step's start and for one MSE evaluation of all of them at the end.
    ``apa_sgd(precoder, g_hat, rho_f, sigma_w2, mu=, iterations=)``, as
    ``bench/micro.py`` calls it, forms ``coeffs``.
    """
    if mu < 0:
        raise ValueError("step size mu must be nonnegative")
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    if legacy:
        g_hat = np.asarray(coeffs)
        coeffs = sinr_coefficients(precoder.p, g_hat, np.zeros(g_hat.shape), *legacy)
    c, b, const = apa_terms(coeffs, precoder.f, sigma_s2)

    # every iterate's nu, from eta = 1e-3 for every user
    nu = np.empty((iterations + 1,)
                  + np.broadcast_shapes(c.shape, precoder.delta.shape[:-2] + c.shape[-1:]))
    nu[0] = np.sqrt(1e-3)
    for i in range(iterations):
        eta = (nu[i] - mu * (c * nu[i] - b)) ** 2
        if np.any(eta > 1e6):
            raise ValueError("allocation diverged before rescaling; reduce the step size")
        # x / max(load, 1) is x itself wherever load <= 1
        load = reduce_axis(np.maximum, np.matvec(precoder.delta, eta))
        eta = eta / np.maximum(load, 1.0)[..., None]
        np.sqrt(eta, out=nu[i + 1])
    mse = const + np.vecdot(c * nu - 2.0 * b, nu)                   # (iterations + 1, ...)
    return AllocationResult(eta=eta, iterations=iterations, cost_trace=np.moveaxis(mse, 0, -1))
