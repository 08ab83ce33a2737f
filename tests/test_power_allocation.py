import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellfree import power_allocation as pa
from cellfree.channel import SystemConfig
from cellfree.metrics import SinrCoefficients, analytic_sinr, sinr_coefficients
from cellfree.pipeline import Scheme, run_sweep
from cellfree.power_allocation import apa_sgd, apa_terms, opa_bisection, sinr_feasible, upa
from cellfree.precoding import PrecoderOutput, cb_precoder, mmse_precoder, zf_precoder
from cellfree.presets import PRESETS
from reference import (apa_cost, chain_on, coupling, eig_max_min_root, grid_max_min,
                       polished_root)


def random_instance(rng, m=5, k=2, rho_f=2.0, sigma_w2=0.5):
    """Coefficients and loadings from an actual precoder on a random channel."""
    g = rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
    err_var = rng.uniform(0.0, 0.2, size=(m, k))
    pre = mmse_precoder(g, np.ones(k), e_tr=float(m), rho_f=rho_f, sigma_w2=sigma_w2)
    coeffs = sinr_coefficients(pre.p, g, err_var, rho_f, sigma_w2)
    return coeffs, pre.delta, pre, g


def eta_iterates(precoder, coeffs, iterations, **kwargs):
    """APA's coefficients at the start and after each of ``iterations``
    steps: a run of s steps ends at the s-th iterate of a longer run."""
    return [np.full(coeffs.psi.shape, 1e-3)] + [
        apa_sgd(precoder, coeffs, iterations=s, **kwargs).eta
        for s in range(1, iterations + 1)]


# ------------------------------------------------------------------ loadings

def test_power_loadings():
    def delta(p):
        return PrecoderOutput(p=p, f=1.0).delta

    assert np.array_equal(delta(np.eye(3, dtype=complex)), np.eye(3))
    assert delta(np.array([[3.0 + 4.0j]]))[0, 0] == 25.0
    rng = np.random.default_rng(0)
    p = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    assert np.array_equal(delta(p), np.abs(p) ** 2)


# ------------------------------------------------------------------- uniform

def test_uniform_allocation_examples():
    delta = np.array([[0.5], [0.2]])
    res = upa(delta)
    assert np.allclose(res.eta, 2.0)
    res_scaled = upa(3.0 * delta)
    assert np.allclose(res_scaled.eta, res.eta / 3.0)
    rng = np.random.default_rng(1)
    delta = rng.uniform(0.1, 1.0, size=(4, 2))
    res = upa(delta)
    assert abs(np.max(delta @ res.eta) - 1.0) < 1e-12
    with pytest.raises(ValueError, match="zero"):
        upa(np.zeros((3, 2)))


# --------------------------------------------------------------- feasibility

def test_zero_target_always_feasible():
    coeffs, delta, _, _ = random_instance(np.random.default_rng(2))
    ok, eta = sinr_feasible(0.0, coeffs, delta)
    assert ok and np.all(eta == 0.0)


def test_single_user_boundary():
    rho, sw2 = 2.0, 0.5
    psi, dmax = 3.0, 0.4
    coeffs = SinrCoefficients(psi=np.array([psi]), phi=np.array([[psi]]),
                              gamma=np.zeros((1, 1)), rho_f=rho, sigma_w2=sw2)
    delta = np.array([[dmax], [dmax / 2]])
    t_star = rho * psi / (sw2 * dmax)
    ok, eta = sinr_feasible(t_star * (1 - 1e-6), coeffs, delta)
    assert ok
    assert np.isclose(analytic_sinr(coeffs, eta)[0], t_star * (1 - 1e-6))
    ok, _ = sinr_feasible(t_star * (1 + 1e-6), coeffs, delta)
    assert not ok


def test_feasibility_monotone_in_target():
    rng = np.random.default_rng(3)
    for _ in range(10):
        coeffs, delta, _, _ = random_instance(rng)
        res = opa_bisection(coeffs, delta, iterations=40, tol=0.0)
        t = res.achieved_t
        for frac in (0.9, 0.5, 0.1):
            ok, _ = sinr_feasible(frac * t, coeffs, delta)
            assert ok


def test_two_user_grid_oracle_and_minimality():
    rng = np.random.default_rng(4)
    for _ in range(5):
        coeffs, delta, _, _ = random_instance(rng)
        t_grid = grid_max_min(coeffs, delta)
        res = opa_bisection(coeffs, delta, iterations=60, tol=0.0)
        t_star = res.achieved_t
        assert t_grid <= t_star * (1 + 1e-9) + 1e-15
        assert t_star <= t_grid * 1.05
        ok, eta = sinr_feasible(0.9 * t_grid, coeffs, delta)
        assert ok
        sinr = analytic_sinr(coeffs, eta)
        assert np.all(sinr >= 0.9 * t_grid * (1 - 1e-9))
        for k in range(2):
            bumped = eta.copy()
            bumped[k] *= 1.0 - 1e-6
            assert analytic_sinr(coeffs, bumped)[k] < 0.9 * t_grid


# ----------------------------------------------------------------- bisection

def test_bisection_reaches_single_user_optimum():
    rho, sw2 = 1.5, 0.25
    psi, dmax = 2.0, 0.8
    delta = np.array([[dmax], [dmax / 3]])
    # no estimation error: optimum at the interference-free cap
    coeffs = SinrCoefficients(psi=np.array([psi]), phi=np.array([[psi]]),
                              gamma=np.zeros((1, 1)), rho_f=rho, sigma_w2=sw2)
    t_star = rho * psi / (sw2 * dmax)
    res = opa_bisection(coeffs, delta, iterations=60, tol=0.0)
    assert abs(res.achieved_t - t_star) < 1e-5 * t_star
    # with estimation error the cap still binds but the target is damped
    gamma = np.array([[0.3]])
    coeffs2 = SinrCoefficients(psi=np.array([psi]), phi=np.array([[psi]]),
                               gamma=gamma, rho_f=rho, sigma_w2=sw2)
    eta_cap = 1.0 / dmax
    t_star2 = rho * eta_cap * psi / (sw2 + rho * eta_cap * gamma[0, 0])
    res2 = opa_bisection(coeffs2, delta, iterations=60, tol=0.0)
    assert abs(res2.achieved_t - t_star2) < 1e-5 * t_star2


def default_t_hi(coeffs, delta):
    """The upper end of OPA's bracket: twice the largest interference-free
    SINR at a user's per-antenna power cap."""
    return 2.0 * float(np.max(coeffs.rho_f * coeffs.psi
                              / (coeffs.sigma_w2 * delta.max(axis=0))))


def test_bisection_interval_arithmetic():
    rng = np.random.default_rng(5)
    coeffs, delta, _, _ = random_instance(rng)
    ref = opa_bisection(coeffs, delta, iterations=60, tol=0.0).achieved_t
    coarse = opa_bisection(coeffs, delta, iterations=12, tol=0.0).achieved_t
    assert ref - coarse <= default_t_hi(coeffs, delta) / 2 ** 12 + 1e-12


def test_the_upper_bracket_end_is_never_feasible():
    # eta_k max_m delta[m,k] <= 1 bounds SINR_k by
    # rho_f psi_k / (sigma_w2 max_m delta[m,k]), at most half of t_hi, so
    # OPA's bracket [0, t_hi] needs no widening
    rng = np.random.default_rng(6)
    for m, k in [(5, 2), (6, 3), (12, 4), (4, 4)]:
        for _ in range(50):
            coeffs, delta, _, _ = random_instance(
                rng, m=m, k=k, rho_f=10.0 ** rng.uniform(-3, 3),
                sigma_w2=10.0 ** rng.uniform(-2, 1))
            ok, eta = sinr_feasible(default_t_hi(coeffs, delta), coeffs, delta)
            assert not ok and np.all(np.isnan(eta))


def test_bisection_result_dominates_uniform_allocation():
    rng = np.random.default_rng(7)
    for _ in range(20):
        coeffs, delta, _, _ = random_instance(rng, m=6, k=3)
        res = opa_bisection(coeffs, delta)
        uni = upa(delta)
        opa_min = float(np.min(analytic_sinr(coeffs, res.eta)))
        upa_min = float(np.min(analytic_sinr(coeffs, uni.eta)))
        assert np.max(delta @ res.eta) <= 1.0 + 1e-9
        assert opa_min >= upa_min * (1 - 1e-5) - 1e-12


# ------------------------------------------------- bisection replayed from t*

def oracle_opa(coeffs, delta, iterations=30, tol=1e-6):
    """Plain bisection, one ``sinr_feasible`` call per midpoint, on one 2-D
    link: the reference for ``opa_bisection``'s replay. Returns
    (achieved_t, eta, halvings)."""
    col_peak = delta.max(axis=-2)
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = np.where(col_peak > 0,
                         coeffs.rho_f * coeffs.psi / (coeffs.sigma_w2 * col_peak), 0.0)
    lo, hi = 0.0, float(2.0 * bound.max(axis=-1))
    eta, steps = np.zeros(coeffs.psi.shape[-1]), 0
    if hi <= 0.0:
        return lo, eta, steps
    while steps < iterations and not hi - lo < tol:
        mid = 0.5 * (lo + hi)
        ok, found = sinr_feasible(mid, coeffs, delta)
        if ok:
            lo, eta = mid, found
        else:
            hi = mid
        steps += 1
    return lo, eta, steps


def assert_replays_the_oracle(coeffs, delta, **kwargs):
    """``opa_bisection`` equals ``oracle_opa`` and its own 2-D call bitwise,
    item by item for a stack whose items are those of the coefficients, of
    their ``rho_f`` and of the loadings, broadcast together; the stack's
    iteration count is the most any item took."""
    res = opa_bisection(coeffs, delta, **kwargs)
    batch = np.broadcast_shapes(coeffs.psi.shape[:-1], np.shape(coeffs.rho_f),
                                delta.shape[:-2])
    psi, phi, gamma, delta = (np.broadcast_to(x, batch + x.shape[x.ndim - core:])
                              for x, core in ((coeffs.psi, 1), (coeffs.phi, 2),
                                              (coeffs.gamma, 2), (delta, 2)))
    rho_f = np.broadcast_to(coeffs.rho_f, batch)
    steps = []
    for i in np.ndindex(batch):
        item = SinrCoefficients(psi=psi[i], phi=phi[i], gamma=gamma[i], rho_f=rho_f[i],
                                sigma_w2=coeffs.sigma_w2)
        t, eta, n = oracle_opa(item, delta[i], **kwargs)
        assert t > 0.0          # so the low-SNR fallback is not what is compared
        assert np.asarray(res.achieved_t)[i] == t
        assert np.array_equal(res.eta[i], eta)
        own = opa_bisection(item, delta[i], **kwargs)
        assert own.achieved_t == t and np.array_equal(own.eta, eta)
        steps.append(n)
    assert res.iterations == max(steps)
    return res


def precoded_instance(rng, kind, m, k, batch=()):
    """Coefficients and loadings of a precoder on a random channel, with
    leading axes ``batch``: MMSE with imperfect CSI, ZF with perfect CSI (so
    ``A`` is 0 up to rounding), dense CB, or MMSE on an LS-style mask."""
    shape = batch + (m, k)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    g *= 10.0 ** rng.uniform(-1.0, 0.0, size=batch + (m, 1))
    err = rng.uniform(0.0, 0.2, size=shape)
    rho_f, sigma_w2 = 10.0 ** rng.uniform(0.0, 2.0), 0.5
    if kind == "ls":
        keep = rng.random(shape) < 0.5
        keep[..., rng.integers(0, m, size=k), np.arange(k)] = True
        g, err = g * keep, err * keep
    if kind == "zf":
        pre, err = zf_precoder(g), np.zeros(shape)
    elif kind == "cb":
        pre = cb_precoder(g)
    else:
        pre = mmse_precoder(g, np.ones(k), float(m) * rho_f, rho_f, sigma_w2)
    return sinr_coefficients(pre.p, g, err, rho_f, sigma_w2), pre.delta


@pytest.mark.parametrize("batch", [(), (3,), (2, 2)], ids=["2d", "stack", "stack2"])
@pytest.mark.parametrize("kind", ["mmse", "zf", "cb", "ls"])
def test_opa_replays_plain_bisection_bitwise(kind, batch):
    rng = np.random.default_rng([31, len(kind), len(batch)])
    for k in (1, 2, 3, 5, 8, 16):
        coeffs, delta = precoded_instance(rng, kind, max(k, 2 * k - 1), k, batch)
        assert_replays_the_oracle(coeffs, delta)


def test_opa_replays_bisection_with_shared_loadings_and_no_stop_width():
    # one (M, K) loading for a whole stack; tol = 0 runs every halving, so
    # the last ones all fall inside the band and are tested
    rng = np.random.default_rng(32)
    coeffs, delta = precoded_instance(rng, "mmse", 6, 3, (4,))
    res = assert_replays_the_oracle(coeffs, delta[0], iterations=60, tol=0.0)
    assert res.tests > 3 * 4


@pytest.mark.parametrize("per_item", ["loadings", "rho_f"])
def test_opa_replays_bisection_with_items_beyond_the_coefficients(per_item):
    # one 2-D coefficient set against a stride-0 stack of 3 loadings, whose
    # repeats the bracket cuts, or against one loading with rho_f per item
    rng = np.random.default_rng(36)
    coeffs, delta = precoded_instance(rng, "mmse", 6, 3)
    if per_item == "loadings":
        delta = np.broadcast_to(delta, (3,) + delta.shape)
    else:
        coeffs = SinrCoefficients(psi=coeffs.psi, phi=coeffs.phi, gamma=coeffs.gamma,
                                  rho_f=coeffs.rho_f * np.array([0.5, 1.0, 2.0]),
                                  sigma_w2=coeffs.sigma_w2)
    res = assert_replays_the_oracle(coeffs, delta)
    assert res.eta.shape == (3, 3)


def test_opa_replays_bisection_through_a_wide_band(monkeypatch):
    # a band of +-30% puts most midpoints inside it, so most are tested
    monkeypatch.setattr(pa, "OPA_ROOT_BAND", 0.3)
    rng = np.random.default_rng(33)
    for kind in ("mmse", "ls"):
        coeffs, delta = precoded_instance(rng, kind, 8, 4, (3,))
        res = assert_replays_the_oracle(coeffs, delta)
        assert res.tests > 10 * 3


@pytest.mark.parametrize("wrong", [2.0, 0.5, np.nan], ids=["double", "half", "nan"])
def test_opa_replays_bisection_from_a_wrong_root(monkeypatch, wrong):
    # a root that fails its certificate widens that side of the band, and
    # the replay falls back to testing every midpoint there
    right = pa._max_min_root
    monkeypatch.setattr(pa, "_max_min_root",
                        lambda coeffs, delta: (right(coeffs, delta)[0] * wrong, 0))
    rng = np.random.default_rng(34)
    for kind in ("mmse", "zf", "cb", "ls"):
        coeffs, delta = precoded_instance(rng, kind, 7, 3, (2,))
        res = assert_replays_the_oracle(coeffs, delta)
        assert res.tests > 3 * 2


def random_coupling(rng, k):
    """Nonnegative SINR coefficients with no precoder behind them. About one
    instance in three is reducible: block-triangular coupling, so some users
    interfere with others that do not interfere back."""
    psi = 10.0 ** rng.uniform(-1.0, 1.0, size=k)
    phi = rng.uniform(0.0, 1.0, size=(k, k)) * (rng.random((k, k)) < 0.7)
    gamma = rng.uniform(0.0, 0.2, size=(k, k)) * (rng.random((k, k)) < 0.5)
    if rng.integers(3) == 0 and k > 1:
        cut = int(rng.integers(1, k))
        phi[cut:, :cut] = 0.0
        gamma[cut:, :cut] = 0.0
    np.einsum("ii->i", phi)[...] = psi
    np.einsum("ii->i", gamma)[...] = rng.uniform(0.01, 0.2, size=k)
    return psi, phi, gamma


# Newton steps the root solve may take on the instances below; it takes 2-4
ROOT_STEP_CAP = 8


def test_the_max_min_root_is_certified_on_both_sides():
    rng = np.random.default_rng(35)
    steps = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for trial in range(200):
            k = 1 if trial % 10 == 0 else int(rng.integers(2, 9))
            m = int(rng.integers(1, 13))
            psi, phi, gamma = random_coupling(rng, k)
            delta = rng.uniform(0.0, 1.0, size=(m, k)) * (rng.random((m, k)) < 0.6)
            delta[rng.integers(0, m, size=k), np.arange(k)] = rng.uniform(0.1, 1.0, size=k)
            coeffs = SinrCoefficients(psi=psi[None], phi=phi[None], gamma=gamma[None],
                                      rho_f=10.0 ** rng.uniform(-3.0, 3.0),
                                      sigma_w2=10.0 ** rng.uniform(-1.0, 1.0))
            root, taken = pa._max_min_root(coeffs, delta[None])
            ok, _ = sinr_feasible(root * (1.0 - pa.OPA_ROOT_BAND), coeffs, delta[None])
            assert ok
            ok, _ = sinr_feasible(root * (1.0 + pa.OPA_ROOT_BAND), coeffs, delta[None])
            assert not ok
            steps.append(taken)
    assert max(steps) <= ROOT_STEP_CAP


def test_an_item_without_a_root_leaves_its_batch_mates_their_own():
    # a user with no desired signal (psi_k = 0) leaves its item no root; the
    # other items of the stack keep the roots their own calls find
    rng = np.random.default_rng(37)
    coeffs, delta = precoded_instance(rng, "mmse", 7, 3, (3,))
    psi = coeffs.psi.copy()
    psi[1, 0] = 0.0
    stack = SinrCoefficients(psi=psi, phi=coeffs.phi, gamma=coeffs.gamma,
                             rho_f=coeffs.rho_f, sigma_w2=coeffs.sigma_w2)
    root, _ = pa._max_min_root(stack, delta)
    assert np.isnan(root[1])
    for i in (0, 2):
        item = SinrCoefficients(psi=psi[i], phi=coeffs.phi[i], gamma=coeffs.gamma[i],
                                rho_f=coeffs.rho_f, sigma_w2=coeffs.sigma_w2)
        assert root[i] == pa._max_min_root(item, delta[i])[0]


def test_an_item_without_a_root_leaves_its_batch_mates_solves_batched():
    # an item with no loaded antenna and no coupling has A = 0 and would
    # start at s = 0, where sI - A is singular: stepped with its batch mates,
    # it would send every batched solve to the one-by-one fallback
    rng = np.random.default_rng(44)
    coeffs, delta = precoded_instance(rng, "mmse", 7, 3, (3,))
    delta, phi, gamma = delta.copy(), coeffs.phi.copy(), coeffs.gamma.copy()
    delta[0], phi[0], gamma[0] = 0.0, 0.0, 0.0
    stack = SinrCoefficients(psi=coeffs.psi, phi=phi, gamma=gamma,
                             rho_f=coeffs.rho_f, sigma_w2=coeffs.sigma_w2)
    raised = []
    solve = np.linalg.solve

    def counted(a, b):
        try:
            return solve(a, b)
        except np.linalg.LinAlgError:
            raised.append(a.shape)
            raise

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "solve", counted)
        root, _ = pa._max_min_root(stack, delta)
    assert not [shape for shape in raised if len(shape) > 2]
    assert np.isnan(root[0])
    for i in (1, 2):
        item = SinrCoefficients(psi=coeffs.psi[i], phi=phi[i], gamma=gamma[i],
                                rho_f=coeffs.rho_f, sigma_w2=coeffs.sigma_w2)
        assert root[i] == pa._max_min_root(item, delta[i])[0]


def test_the_max_min_root_reads_its_loads_in_place():
    # a contiguous (18, 128, 16) CB stack over rho_f of 1e-4 to 1e4, whose
    # items stop at different steps: each item keeps its own call's root,
    # the stack takes as many steps as its slowest item, and OPA's extra
    # peak stays below one (items, M, K) float array, as no stop copies the
    # loads of the items still stepping
    cb, delta = precoded_instance(np.random.default_rng(43), "cb", 128, 16, (18,))
    assert delta.flags.c_contiguous and delta.shape == (18, 128, 16)
    rho_f = 10.0 ** np.linspace(-4.0, 4.0, 18)
    coeffs = SinrCoefficients(psi=cb.psi, phi=cb.phi, gamma=cb.gamma, rho_f=rho_f,
                              sigma_w2=cb.sigma_w2)
    roots, steps = zip(*(pa._max_min_root(SinrCoefficients(
        psi=cb.psi[i], phi=cb.phi[i], gamma=cb.gamma[i], rho_f=rho_f[i],
        sigma_w2=cb.sigma_w2), delta[i]) for i in range(18)))
    assert len(set(steps)) > 2
    root, taken = pa._max_min_root(coeffs, delta)
    assert np.array_equal(root, roots) and taken == max(steps)
    want = opa_bisection(coeffs, delta)        # and fills the coefficients' caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        got = opa_bisection(coeffs, delta)
        extra = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert np.array_equal(got.eta, want.eta)
    limit = delta.nbytes
    assert extra < limit


def test_a_shared_load_matrix_serves_every_rho_f_item_as_its_own_call(monkeypatch):
    # one coefficient set and one load matrix, broadcast over rho_f items as
    # a ZF or CB build over an SNR grid is: no eigendecomposition runs, and
    # each item equals its own call bitwise
    monkeypatch.setattr(np.linalg, "eig", lambda a: pytest.fail("OPA called eig"))
    rng = np.random.default_rng(38)
    for kind in ("zf", "cb"):
        coeffs, delta = precoded_instance(rng, kind, 9, 4)
        rho = coeffs.rho_f * 10.0 ** np.array([-9.0, -7.0, -3.0, 0.0, 2.0])
        grid = SinrCoefficients(psi=coeffs.psi, phi=coeffs.phi, gamma=coeffs.gamma,
                                rho_f=rho, sigma_w2=coeffs.sigma_w2)
        res = opa_bisection(grid, np.broadcast_to(delta, rho.shape + delta.shape))
        for i, rho_f in enumerate(rho):
            one = SinrCoefficients(psi=coeffs.psi, phi=coeffs.phi, gamma=coeffs.gamma,
                                   rho_f=rho_f, sigma_w2=coeffs.sigma_w2)
            want = opa_bisection(one, delta)
            assert res.achieved_t[i] == want.achieved_t
            assert np.array_equal(res.eta[i], want.eta)


def assert_the_root_matches_the_oracle(coeffs, delta):
    """The root solve's t* of every item equals the eigendecomposition
    oracle's to 1e-12 relative, and both are NaN on the same items. Both
    stop once a Newton step is at most 1e-6 relative, which can leave a
    root a few 1e-12 from t*, and the oracle's residues lose digits on a
    nonnormal coupling, so a few items may differ by more: there the root
    must lie within 1e-11 of t* itself, the oracle's root polished by
    Newton steps. Returns the count of items with a root, and of those
    that differed by more than 1e-12."""
    root, _ = pa._max_min_root(coeffs, delta)
    want, _ = eig_max_min_root(coeffs, delta)
    root, want = np.broadcast_arrays(root, want)
    assert np.array_equal(np.isnan(root), np.isnan(want))
    with np.errstate(invalid="ignore"):
        missed = np.abs(root - want) > 1e-12 * want
    if missed.any():
        exact = polished_root(coeffs, delta, np.where(missed, want, 1.0))
        assert (np.abs(root - exact) <= 1e-11 * exact)[missed].all(), (root[missed],
                                                                       exact[missed])
    return np.count_nonzero(~np.isnan(root)), np.count_nonzero(missed)


def test_the_max_min_root_matches_the_eigendecomposition_oracle():
    # random coupling, one instance in three reducible, over a wide range of
    # rho_f and noise, one item per call and stacks of three
    rng = np.random.default_rng(40)
    items = missed = 0
    for trial in range(300):
        k, m, n = int(rng.integers(1, 9)), int(rng.integers(1, 13)), 1 + 2 * (trial % 2)
        psi, phi, gamma = (np.stack(x) for x in zip(*(random_coupling(rng, k)
                                                       for _ in range(n))))
        delta = rng.uniform(0.0, 1.0, size=(n, m, k)) * (rng.random((n, m, k)) < 0.6)
        delta[:, rng.integers(0, m, size=k), np.arange(k)] = rng.uniform(0.1, 1.0, size=k)
        coeffs = SinrCoefficients(psi=psi, phi=phi, gamma=gamma,
                                  rho_f=10.0 ** rng.uniform(-3.0, 3.0, size=n),
                                  sigma_w2=10.0 ** rng.uniform(-1.0, 1.0))
        counts = assert_the_root_matches_the_oracle(coeffs, delta)
        items, missed = items + counts[0], missed + counts[1]
    assert items == 600 and missed <= items // 100


def test_the_max_min_root_matches_the_oracle_on_the_presets(monkeypatch):
    # every OPA call of three trials of the three presets that run OPA on NS,
    # LS and ES chains, at large and multi-antenna sizes
    captured = []
    solve = pa.opa_bisection
    monkeypatch.setattr(pa, "opa_bisection", lambda coeffs, delta, **kwargs: (
        captured.append((coeffs, delta)) or solve(coeffs, delta, **kwargs)))
    for name in ("fig-tiny-opa", "fig-large-sumrate", "fig-ber"):
        preset = PRESETS[name]
        cfg = preset.resolve_config(SystemConfig().validate())
        run_sweep(cfg, [Scheme.parse(label) for label in preset.schemes], preset.axis,
                  trials=3)
    assert len(captured) == 4 * 3             # tiny: one stage and one ES search
    items = missed = 0
    for coeffs, delta in captured:
        counts = assert_the_root_matches_the_oracle(coeffs, delta)
        items, missed = items + counts[0], missed + counts[1]
    assert items > 100 and missed <= items // 100


def test_a_singular_system_leaves_its_batch_mates_their_own_roots(monkeypatch):
    # an item whose sI - A the solver calls singular at every step is taken
    # as left of the pole each time, so it never stops, and its midpoint
    # steps close in on the bracket's upper end, the uniform allocation's
    # bound; the batched solves fall back to one solve per item, and its
    # batch mates keep the roots their own calls find
    rng = np.random.default_rng(41)
    coeffs, delta = precoded_instance(rng, "mmse", 7, 3, (3,))
    marker = coupling(coeffs)[0][1, 0, 1]      # A[0, 1] of item 1, -A[0, 1] in sI - A
    solve = np.linalg.solve

    def singular_at_marker(a, b):
        if (a[..., 0, 1] == -marker).any():
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "solve", singular_at_marker)
        root, steps = pa._max_min_root(coeffs, delta)
    assert steps == pa.ROOT_MAX_STEPS and np.isfinite(root).all()
    a, b = coupling(coeffs)
    s_hi = (delta[1].sum(axis=-1).max() * b[1] + a[1].sum(axis=-1)).max()
    assert root[1] == pytest.approx(1.0 / s_hi, rel=1e-12)
    for i in (0, 2):
        item = SinrCoefficients(psi=coeffs.psi[i], phi=coeffs.phi[i], gamma=coeffs.gamma[i],
                                rho_f=coeffs.rho_f, sigma_w2=coeffs.sigma_w2)
        assert root[i] == pa._max_min_root(item, delta[i])[0]


def test_opa_replays_bisection_on_coefficients_without_a_precoder():
    # random coupling, often reducible, over a wide range of rho_f and noise;
    # every user keeps one loaded antenna so every bracket is nonempty
    rng = np.random.default_rng(36)
    for _ in range(300):
        k, m, n = int(rng.integers(1, 9)), int(rng.integers(1, 13)), int(rng.integers(1, 4))
        psi, phi, gamma = (np.stack(x) for x in zip(*(random_coupling(rng, k)
                                                       for _ in range(n))))
        delta = rng.uniform(0.0, 1.0, size=(n, m, k)) * (rng.random((n, m, k)) < 0.6)
        delta[:, rng.integers(0, m, size=k), np.arange(k)] = rng.uniform(0.1, 1.0, size=k)
        coeffs = SinrCoefficients(psi=psi, phi=phi, gamma=gamma,
                                  rho_f=10.0 ** rng.uniform(-3.0, 3.0),
                                  sigma_w2=10.0 ** rng.uniform(-1.0, 1.0))
        assert_replays_the_oracle(coeffs, delta)
        assert_replays_the_oracle(coeffs, delta, iterations=60, tol=0.0)


@st.composite
def opa_bound_cases(draw):
    """A stack of coefficient sets and loadings: from a precoder on a random
    channel (see ``precoded_instance``) or random coupling with no precoder
    behind it."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["mmse", "zf", "cb", "ls", "coupling"]))
    k = draw(st.integers(1, 6))
    batch = draw(st.sampled_from([(), (3,), (2, 2)]))
    if kind != "coupling":
        return precoded_instance(rng, kind, max(k, 2 * k - 1), k, batch)
    n, m = math.prod(batch), int(rng.integers(1, 10))
    psi, phi, gamma = (np.stack(x) for x in zip(*(random_coupling(rng, k)
                                                   for _ in range(n))))
    delta = rng.uniform(0.0, 1.0, size=(n, m, k)) * (rng.random((n, m, k)) < 0.6)
    delta[:, rng.integers(0, m, size=k), np.arange(k)] = rng.uniform(0.1, 1.0, size=k)
    return SinrCoefficients(psi=psi, phi=phi, gamma=gamma,
                            rho_f=10.0 ** rng.uniform(-3.0, 3.0),
                            sigma_w2=10.0 ** rng.uniform(-1.0, 1.0)), delta


def with_rho_f(coeffs, rho_f):
    return SinrCoefficients(psi=coeffs.psi, phi=coeffs.phi, gamma=coeffs.gamma,
                            rho_f=rho_f, sigma_w2=coeffs.sigma_w2)


def bracket_ends(coeffs, delta):
    """t_hi of every item, as ``opa_bisection`` sets it."""
    bound = coeffs.rho_psi / (coeffs.sigma_w2 * delta.max(axis=-2))
    return 2.0 * bound.max(axis=-1)


@pytest.mark.parametrize("stop", ["tol", "cap", "no-feasible-midpoint"])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(case=opa_bound_cases(), halvings=st.integers(1, 24))
def test_opa_bound_holds_bisections_target_and_its_minimum_sinr(stop, case, halvings):
    coeffs, delta = case
    t_hi = bracket_ends(coeffs, delta)
    if stop == "tol":
        # a stop width that ends every item's run before the 60-halving cap
        iterations, tol = 60, float(t_hi.min()) * 2.0 ** -halvings
    elif stop == "cap":
        iterations, tol = halvings, 0.0
    else:
        # a bracket below the stop width: no midpoint is tested, as at -60 dB
        coeffs = with_rho_f(coeffs, coeffs.rho_f * 0.5e-6 / t_hi)
        iterations, tol = 30, 1e-6
    res = opa_bisection(coeffs, delta, iterations=iterations, tol=tol)
    lo, hi = pa.opa_bound(coeffs, delta, iterations=iterations, tol=tol)
    min_sinr = analytic_sinr(coeffs, res.eta).min(axis=-1)
    assert np.isfinite(lo).all() and np.isfinite(hi).all()
    assert (lo <= res.achieved_t).all() and (res.achieved_t <= hi).all()
    assert (lo <= min_sinr).all() and (min_sinr <= hi).all()
    if stop == "tol":
        assert res.iterations < iterations
    elif stop == "cap":
        assert res.iterations == iterations
    else:
        root = np.broadcast_to(pa._max_min_root(coeffs, delta)[0], lo.shape)
        assert np.array_equal(res.achieved_t, root * (1.0 - pa.OPA_ROOT_BAND))


def feasible_allocations(coeffs, delta, rng):
    """UPA's, APA's and a random eta, each scaled to a peak antenna load of
    1: allocations whose minimum SINR is at most the max-min target. APA
    runs against a precoder that carries the case's loads, with a step its
    cost's curvature admits."""
    precoder = PrecoderOutput(p=np.sqrt(delta), f=1.0, delta=delta)
    mu = 1.0 / apa_terms(coeffs, precoder.f)[0].max()
    random = rng.uniform(0.01, 1.0, size=delta.shape[:-2] + delta.shape[-1:])
    etas = [upa(delta).eta, apa_sgd(precoder, coeffs, mu=mu, iterations=5).eta,
            random / np.matvec(delta, random).max(axis=-1)[..., None]]
    return [np.broadcast_to(eta, np.broadcast_shapes(eta.shape, coeffs.psi.shape))
            for eta in etas]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=opa_bound_cases(), seed=st.integers(0, 2 ** 32 - 1))
def test_opa_bound_is_closed_form_and_holds_the_max_min_target(case, seed):
    # no eigendecomposition: a call to eig fails the test
    coeffs, delta = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "eig", lambda a: pytest.fail("opa_bound called eig"))
        lo, hi = pa.opa_bound(coeffs, delta)
    root, steps = pa._max_min_root(coeffs, delta)
    assert steps < pa.ROOT_MAX_STEPS and np.isfinite(root).all()
    assert (lo <= root).all() and (root <= hi).all()
    for eta in feasible_allocations(coeffs, delta, np.random.default_rng(seed)):
        assert (np.matvec(delta, eta).max(axis=-1) <= 1.0 + 1e-12).all()
        assert (analytic_sinr(coeffs, eta).min(axis=-1) <= hi).all()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(case=opa_bound_cases(), how=st.sampled_from(["no signal", "infinite A", "no load"]))
def test_opa_bound_is_nan_exactly_where_there_is_no_root(case, how):
    # the first item loses its root: a user with no desired signal (A and b
    # are not finite), an infinite coupling, or no loaded antenna (an empty
    # bracket); the other items keep finite ends
    coeffs, delta = case
    psi, gamma, delta = coeffs.psi.copy(), coeffs.gamma.copy(), delta.copy()
    first = (0,) * (psi.ndim - 1)
    if how == "no signal":
        psi[first + (0,)] = 0.0
    elif how == "infinite A":
        gamma[first + (0, 0)] = np.inf
    else:
        delta[first] = 0.0
    coeffs = SinrCoefficients(psi=psi, phi=coeffs.phi, gamma=gamma,
                              rho_f=coeffs.rho_f, sigma_w2=coeffs.sigma_w2)
    lo, hi = pa.opa_bound(coeffs, delta)
    rootless = np.isnan(np.broadcast_to(pa._max_min_root(coeffs, delta)[0], lo.shape))
    assert rootless[first] and rootless.sum() == 1
    assert np.array_equal(np.isnan(lo), rootless) and np.array_equal(np.isnan(hi), rootless)


def test_opa_bound_has_no_bound_to_give_without_a_root():
    rng = np.random.default_rng(39)
    coeffs, delta = precoded_instance(rng, "mmse", 7, 3, (3,))
    psi = coeffs.psi.copy()
    psi[1, 0] = 0.0                            # no desired signal: no root
    lo, hi = pa.opa_bound(SinrCoefficients(psi=psi, phi=coeffs.phi, gamma=coeffs.gamma,
                                           rho_f=coeffs.rho_f, sigma_w2=coeffs.sigma_w2),
                          delta)
    assert np.isnan([lo[1], hi[1]]).all() and np.isfinite([lo[::2], hi[::2]]).all()


# ---------------------------------------------------------------- adaptive SG

def oracle_cost(nu, effective, rho_f, f, sigma_w2, sigma_s2):
    """Transmit MSE from the full K x K matrix ``g_hat^T P``, without the
    separable shortcut: the reference for ``apa_cost``."""
    k = nu.shape[-1]
    lin = np.vecdot(np.real(effective.diagonal(axis1=-2, axis2=-1)), nu)
    quad = np.real(np.einsum("...ik,...ik,...k->...", effective.conj(), effective,
                             nu ** 2))
    return (k * sigma_s2 + k * sigma_w2 / f ** 2
            - 2.0 * np.sqrt(rho_f) / f * sigma_s2 * lin
            + rho_f / f ** 2 * sigma_s2 * quad)


def oracle_gradient(nu, effective, rho_f, f, sigma_s2):
    """Wirtinger gradient of ``oracle_cost`` with respect to conj(N)."""
    a_h = effective.conj().mT
    linear = np.asarray(-np.sqrt(rho_f) / f * sigma_s2)[..., None, None]
    quadratic = np.asarray(rho_f / f ** 2 * sigma_s2)[..., None, None]
    return linear * a_h + quadratic * (a_h @ effective) * nu[..., None, :]


def oracle_apa(precoder, g_hat, rho_f, sigma_w2, mu, iterations, sigma_s2):
    """The gradient loop on the oracle's full-matrix cost and gradient."""
    effective = g_hat.mT @ precoder.p
    eta = np.full(effective.shape[:-1], 1e-3)
    costs, etas = [oracle_cost(np.sqrt(eta), effective, rho_f, precoder.f, sigma_w2,
                               sigma_s2)], [eta]
    for _ in range(iterations):
        nu = np.sqrt(eta)
        grad = oracle_gradient(nu, effective, rho_f, precoder.f, sigma_s2)
        eta = (nu - mu * np.real(grad.diagonal(axis1=-2, axis2=-1))) ** 2
        eta = eta / np.maximum((precoder.delta @ eta[..., None])[..., 0].max(axis=-1),
                               1.0)[..., None]
        costs.append(oracle_cost(np.sqrt(eta), effective, rho_f, precoder.f, sigma_w2,
                                 sigma_s2))
        etas.append(eta)
    return costs, etas


def test_zero_step_size_keeps_the_initialization():
    rng = np.random.default_rng(8)
    coeffs, _, pre, _ = random_instance(rng)
    for eta in eta_iterates(pre, coeffs, 4, mu=0.0):
        assert np.allclose(eta, 1e-3)


def test_gradient_matches_central_finite_differences():
    # the oracle's gradient, on a generic (non-Hermitian) K x K matrix
    rng = np.random.default_rng(9)
    k = 4
    effective = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    nu = rng.uniform(0.3, 1.5, size=k)
    rho_f, f, sw2, ss2 = 1.7, 1.3, 0.6, 0.9
    grad = oracle_gradient(nu, effective, rho_f, f, ss2)
    analytic = 2.0 * np.real(np.diag(grad))
    h = 1e-6
    fd = np.empty(k)
    for i in range(k):
        up, dn = nu.copy(), nu.copy()
        up[i] += h
        dn[i] -= h
        fd[i] = (oracle_cost(up, effective, rho_f, f, sw2, ss2)
                 - oracle_cost(dn, effective, rho_f, f, sw2, ss2)) / (2 * h)
    assert np.linalg.norm(fd - analytic) < 1e-5 * np.linalg.norm(analytic)


@pytest.mark.parametrize("batch", [(), (4,)], ids=["2d", "stack"])
@pytest.mark.parametrize("csi", ["perfect", "imperfect"])
def test_separable_form_matches_the_full_matrix_oracle(csi, batch):
    """Cost, step direction and the whole gradient loop on both precoders an
    MMSE+APA chain hands APA: the identity-allocation pass, and the pass
    re-formed with the first allocation."""
    rng = np.random.default_rng([77, len(batch), len(csi)])
    m, k, rho_f, sigma_w2, sigma_s2 = 7, 3, 3.0, 0.4, 1.3
    shape = batch + (m, k)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    err = np.zeros(shape) if csi == "perfect" else rng.uniform(0.0, 0.3, size=shape)
    chain = chain_on(g, err, Scheme("MMSE", "APA", "NS"), rho_f, sigma_w2, sigma_s2)
    first = mmse_precoder(g, np.ones(k), float(m) * rho_f, rho_f, sigma_w2, sigma_s2)
    passes = [(first, chain.n_first), (chain.precoder, chain.n_final)]
    assert len(passes) == chain.trace["allocation_solves"]

    def close(got, want):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    for prec, solved in passes:
        coeffs = sinr_coefficients(prec.p, g, err, rho_f, sigma_w2)
        effective = g.mT @ prec.p
        c, b, _ = apa_terms(coeffs, prec.f, sigma_s2)
        iterates = eta_iterates(prec, coeffs, 5, mu=0.25, sigma_s2=sigma_s2)
        if solved is chain.n_first:         # the build's coefficients, as formed here
            assert np.array_equal(iterates[-1], solved.eta)
        else:                   # the re-form's, the build's divided by eta: to rounding
            close(iterates[-1], solved.eta)
        for nu in (rng.uniform(0.05, 3.0, size=batch + (k,)), np.sqrt(iterates[2])):
            close(apa_cost(nu, coeffs, prec.f, sigma_s2),
                  oracle_cost(nu, effective, rho_f, prec.f, sigma_w2, sigma_s2))
            grad = oracle_gradient(nu, effective, rho_f, prec.f, sigma_s2)
            close(c * nu - b, np.real(grad.diagonal(axis1=-2, axis2=-1)))
        costs, etas = oracle_apa(prec, g, rho_f, sigma_w2, 0.25, 5, sigma_s2)
        for step in range(6):
            close(solved.cost_trace[..., step], costs[step])
            close(iterates[step], etas[step])


def test_every_iteration_respects_the_antenna_cap():
    rng = np.random.default_rng(10)
    for _ in range(5):
        coeffs, _, pre, _ = random_instance(rng, m=6, k=3)
        res = apa_sgd(pre, coeffs, mu=0.25, iterations=6)
        for eta in eta_iterates(pre, coeffs, 6, mu=0.25):
            assert np.max(pre.delta @ eta) <= 1.0 + 1e-9
        assert np.max(pre.delta @ res.eta) <= 1.0 + 1e-9


def test_cost_descends_from_the_initialization():
    rng = np.random.default_rng(11)
    coeffs, _, pre, _ = random_instance(rng, m=8, k=3)
    res = apa_sgd(pre, coeffs, mu=0.25, iterations=5)
    costs = np.asarray(res.cost_trace)
    assert costs.shape == (6,)
    assert costs[-1] < costs[0]


def test_oversized_step_raises():
    rng = np.random.default_rng(12)
    coeffs, _, pre, _ = random_instance(rng)
    with pytest.raises(ValueError, match="step size"):
        apa_sgd(pre, coeffs, mu=1e9, iterations=50)


def test_apa_on_a_channel_equals_apa_on_its_coefficients_bitwise():
    # apa_sgd(precoder, g_hat, rho_f, sigma_w2), as bench/micro.py calls it,
    # forms the coefficients of perfect CSI from the channel itself
    rng = np.random.default_rng(14)
    _, _, pre, g = random_instance(rng, m=6, k=3)
    coeffs = sinr_coefficients(pre.p, g, np.zeros(g.shape), 2.0, 0.5, pre.delta)
    want = apa_sgd(pre, coeffs, mu=0.25, iterations=5)
    got = apa_sgd(pre, g, 2.0, 0.5, mu=0.25, iterations=5)
    assert np.array_equal(got.eta, want.eta)
    assert np.array_equal(got.cost_trace, want.cost_trace)


def test_allocation_result_diagonal():
    rng = np.random.default_rng(13)
    coeffs, delta, _, _ = random_instance(rng)
    res = opa_bisection(coeffs, delta)
    assert np.array_equal(res.n_diag, np.sqrt(res.eta))
