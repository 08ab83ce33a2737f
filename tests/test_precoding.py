import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

from cellfree.pipeline import SCHEMES
from cellfree.precoding import (RankDeficientError, apply_allocation, cb_precoder,
                                mmse_precoder, zf_precoder)
from reference import random_channel, zf_full_rank


def ridge_solve(g, eps):
    """conj(G) (G^T conj(G) + eps I)^(-1): the MMSE precoder at ridge eps
    (E_tr = K, rho_f = 1, sigma_w2 = eps) without its gain f."""
    out = mmse_precoder(g, None, e_tr=g.shape[-1], rho_f=1.0, sigma_w2=eps)
    return out.p / out.f


# ------------------------------------------------------------- ridge system

def test_identity_channel_closed_form():
    k = 4
    g = np.eye(k, dtype=complex)
    out = mmse_precoder(g, np.ones(k), e_tr=float(k), rho_f=2.0, sigma_w2=1.0)
    assert np.allclose(out.p, np.eye(k) / np.sqrt(2.0))
    assert np.isclose(out.f, 2.0)
    assert np.allclose(out.delta, np.eye(k) / 2.0)


def test_vanishing_regularizer_approaches_channel_inverse():
    rng = np.random.default_rng(0)
    g = random_channel(rng, 6, 3)
    p_tilde = ridge_solve(g, 1e-12)
    assert np.linalg.norm(g.T @ p_tilde - np.eye(3)) < 1e-8


def test_total_power_identity_on_random_instances():
    rng = np.random.default_rng(1)
    for _ in range(50):
        m = int(rng.integers(2, 33))
        k = int(rng.integers(1, min(m, 9)))
        g = random_channel(rng, m, k)
        e_tr = float(rng.uniform(0.5, 20.0))
        rho_f = float(rng.uniform(0.1, 10.0))
        sigma_s2 = float(rng.uniform(0.5, 2.0))
        out = mmse_precoder(g, np.ones(k), e_tr, rho_f, float(rng.uniform(0.1, 3.0)),
                            sigma_s2=sigma_s2)
        total = rho_f * sigma_s2 * np.linalg.norm(out.p) ** 2
        assert abs(total - e_tr) < 1e-9 * e_tr


def test_stationarity_residual_defines_the_solution():
    # the Gram form solves the M x M system for every shape, M <= K included
    rng = np.random.default_rng(2)
    shapes = [(int(m), int(rng.integers(1, min(m, 7)))) for m in rng.integers(2, 20, 20)]
    shapes += [(1, 1), (1, 4), (2, 2), (3, 5), (4, 4), (6, 9)]
    for m, k in shapes:
        g = random_channel(rng, m, k)
        eps = float(rng.uniform(0.01, 2.0))
        p_tilde = ridge_solve(g, eps)
        lhs = (g.conj() @ g.T + eps * np.eye(m)) @ p_tilde
        assert np.linalg.norm(lhs - g.conj()) < 1e-9 * np.linalg.norm(g)


def test_trace_relation_between_effective_matrix_and_quadratic_form():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m, k = 9, 4
        g = random_channel(rng, m, k)
        eps = float(rng.uniform(0.05, 1.5))
        sigma_s2 = float(rng.uniform(0.5, 2.0))
        c_s = sigma_s2 * np.eye(k)
        p_tilde = ridge_solve(g, eps)
        lhs = np.trace(np.real(g.T @ p_tilde @ c_s))
        a = g.conj() @ g.T + eps * np.eye(m)
        rhs = np.trace(a @ p_tilde @ c_s @ p_tilde.conj().T).real
        assert abs(lhs - rhs) < 1e-9 * abs(rhs)


def scipy_mmse(g, e_tr, rho_f, sigma_w2):
    """The MMSE precoder of one channel and one item, from SciPy's Cholesky
    solve of the Gram form and ``np.linalg.norm``."""
    k = g.shape[-1]
    gram = g.T @ g.conj() + k * sigma_w2 / e_tr * np.eye(k)
    p_tilde = cho_solve(cho_factor(gram, lower=True), g.T).conj().T
    f = np.sqrt(e_tr / np.linalg.norm(p_tilde) ** 2)
    return f / np.sqrt(rho_f) * p_tilde, f


@pytest.mark.parametrize("m, k", [(5, 2), (12, 4), (16, 16)])
def test_mmse_precoder_agrees_with_scipys_cholesky_solve(m, k):
    # (S, 1) items against a (B,) stack of channels, with ridges from the
    # trace of each channel's Gram matrix down to 1e-10 of it
    rng = np.random.default_rng(16)
    s, b = 4, 3
    g = rng.standard_normal((b, m, k)) + 1j * rng.standard_normal((b, m, k))
    trace = np.linalg.norm(g, axis=(-2, -1)) ** 2
    rel_ridge = np.logspace(0.0, -10.0, s)
    sigma_w2 = 0.5
    e_tr = k * sigma_w2 / (rel_ridge[:, None] * trace)          # (S, B)
    rho_f = rng.uniform(0.1, 10.0, size=(s, 1))
    got = mmse_precoder(g, np.ones(k), e_tr, rho_f, sigma_w2)
    assert got.p.shape == (s, b, m, k)
    for i in range(s):
        for j in range(b):
            eps = k * sigma_w2 / e_tr[i, j]
            p_tilde = ridge_solve(g[j], eps)
            want_tilde = cho_solve(cho_factor(g[j].T @ g[j].conj() + eps * np.eye(k),
                                              lower=True), g[j].T).conj().T
            assert np.linalg.norm(p_tilde - want_tilde) <= 1e-12 * np.linalg.norm(want_tilde)
            want_p, want_f = scipy_mmse(g[j], e_tr[i, j], rho_f[i, 0], sigma_w2)
            assert np.linalg.norm(got.p[i, j] - want_p) <= 1e-12 * np.linalg.norm(want_p)
            assert abs(got.f[i, j] - want_f) <= 1e-12 * want_f


def test_mmse_takes_the_pseudo_inverse_limit_below_rounding():
    # two users on one antenna: a rank-1 Gram matrix that a 1e-20 ridge
    # cannot lift above rounding, so its null direction gets weight 0
    g = np.ones((1, 2), dtype=complex)
    out = mmse_precoder(g, None, e_tr=2e20, rho_f=1.0, sigma_w2=1.0)
    assert np.isfinite(out.p).all() and np.isfinite(out.f)
    np.testing.assert_allclose(out.p / out.f, np.linalg.pinv(g.T), rtol=1e-15)
    assert abs(np.linalg.norm(out.p) ** 2 - 2e20) <= 1e-15 * 2e20


def test_mmse_rejects_an_all_zero_channel():
    with pytest.raises(ValueError, match="all zero"):
        mmse_precoder(np.zeros((4, 2), dtype=complex), None, 1.0, 1.0, 1.0)
    stack = np.ones((3, 4, 2), dtype=complex)
    stack[1] = 0.0
    with pytest.raises(ValueError, match="all zero"):
        mmse_precoder(stack, None, 1.0, 1.0, 1.0)


def test_gram_and_primal_solves_agree():
    # the Gram-form solve against a dense solve of the primal M x M system
    rng = np.random.default_rng(4)
    for m, k in [(12, 5)] * 10 + [(5, 5), (3, 5)]:
        g = random_channel(rng, m, k)
        eps = float(rng.uniform(0.01, 1.0))
        primal = np.linalg.solve(g.conj() @ g.T + eps * np.eye(m), g.conj())
        gram = ridge_solve(g, eps)
        assert np.linalg.norm(gram - primal) < 1e-8 * np.linalg.norm(primal)


def test_shrinking_regularizer_converges_to_zero_forcing():
    rng = np.random.default_rng(5)
    g = random_channel(rng, 8, 3)
    zf = zf_precoder(g).p
    zf = zf / np.linalg.norm(zf)
    dists = []
    for e_tr in [1e0, 1e2, 1e4, 1e6, 1e8]:
        out = mmse_precoder(g, np.ones(3), e_tr, 1.0, 1.0)
        p = out.p / np.linalg.norm(out.p)
        dists.append(np.linalg.norm(p - zf))
    assert all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))
    assert dists[-1] < 1e-6


def test_allocation_factor_only_scales_columns():
    rng = np.random.default_rng(6)
    g = random_channel(rng, 10, 4)
    n_diag = rng.uniform(0.2, 3.0, size=4)
    with_n = mmse_precoder(g, n_diag, 5.0, 2.0, 1.0)
    base = mmse_precoder(g, np.ones(4), 5.0, 2.0, 1.0)
    assert np.array_equal(with_n.p, base.p / n_diag[None, :])
    assert with_n.f == base.f
    reformed = apply_allocation(base, n_diag)
    assert np.array_equal(reformed.p, with_n.p)
    assert np.array_equal(reformed.delta, np.abs(with_n.p) ** 2)
    assert reformed.f == base.f


def test_parameter_validation():
    g = np.eye(3, dtype=complex)
    with pytest.raises(ValueError, match="e_tr"):
        mmse_precoder(g, np.ones(3), 0.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="positive"):
        mmse_precoder(g, np.array([1.0, 0.0, 1.0]), 1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="per user"):
        mmse_precoder(g, np.ones(2), 1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="rho_f"):
        mmse_precoder(g, np.ones(3), 1.0, -1.0, 1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="infs or NaNs"):
            mmse_precoder(np.where(np.eye(3) > 0, bad, g), np.ones(3), 1.0, 1.0, 1.0)
    base = mmse_precoder(g, np.ones(3), 1.0, 1.0, 1.0)
    for bad in ([1.0, np.inf, 1.0], [1.0, -1.0, 1.0]):
        with pytest.raises(ValueError, match="positive"):
            apply_allocation(base, np.array(bad))


# ------------------------------------------------------------ zero forcing

def test_zero_forcing_identity_and_generic_property():
    g = np.eye(3, dtype=complex)
    assert np.allclose(zf_precoder(g).p, np.eye(3))
    rng = np.random.default_rng(7)
    g = random_channel(rng, 7, 3)
    out = zf_precoder(g)
    assert out.f == 1.0
    assert np.linalg.norm(g.T @ out.p - np.eye(3)) < 1e-9


def test_zero_forcing_matches_min_norm_least_squares():
    rng = np.random.default_rng(8)
    g = random_channel(rng, 4, 2)
    out = zf_precoder(g)
    oracle = np.linalg.pinv(g.T)   # SVD-based minimum-norm solution
    assert np.allclose(out.p, oracle, atol=1e-9)


def test_zero_forcing_rejects_rank_deficient_channel():
    g = np.ones((4, 2), dtype=complex)  # duplicate columns
    with pytest.raises(RankDeficientError, match="rank-deficient"):
        zf_precoder(g)
    assert not zf_full_rank(g)
    # a stack raises if any item is rank-deficient
    g = np.random.default_rng(15).standard_normal((2, 4, 2)) + 0j
    g[1, :, 1] = 0.0                                # item 1 loses a user
    with pytest.raises(RankDeficientError, match="on 1 of 2 channels"):
        zf_precoder(g)
    assert zf_full_rank(g).tolist() == [True, False]


def test_zero_forcing_rejects_a_nonfinite_channel():
    g = np.random.default_rng(14).standard_normal((3, 6, 3)) + 0j
    for bad in (np.nan, np.inf):
        poisoned = g.copy()
        poisoned[1, 0, 0] = bad
        for call in (zf_precoder, zf_full_rank):
            with pytest.raises(ValueError, match="infs or NaNs"):
                call(poisoned)


def test_zero_forcing_rejects_a_singular_gram_matrix_that_cholesky_passes():
    # two users on one single-antenna AP: the Gram matrix is rank 1, and its
    # eigenvalue 0 is below rounding although LAPACK's Cholesky factor of
    # the rounded matrix may exist
    g = np.zeros((3, 2), dtype=complex)
    g[1] = [0.3 - 1.2j, 2.0 + 0.7j]
    assert not zf_full_rank(g)
    with pytest.raises(RankDeficientError, match="rank-deficient"):
        zf_precoder(g)


@st.composite
def zf_stacks(draw):
    """A (B, M, K) stack of masked channels of L APs with N antennas each:
    each item either gives every user S APs of its own, drawn at random, or
    gives all users the same S APs, so that users may share fewer antennas
    than there are users; large-scale gains spread over 60 dB."""
    num_aps, antennas = draw(st.integers(1, 6)), draw(st.integers(1, 2))
    k = draw(st.integers(1, min(4, num_aps * antennas)))
    selected, b = draw(st.integers(1, num_aps)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (b, num_aps, antennas, k)
    fading = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    gain = 10.0 ** rng.uniform(-6.0, 0.0, size=(b, num_aps, 1, k))
    mask = np.zeros((b, num_aps, 1, k))
    for item in range(b):
        shared = draw(st.booleans())
        aps = rng.choice(num_aps, selected, replace=False)
        for user in range(k):
            mask[item, aps, 0, user] = 1.0
            if not shared:
                aps = rng.choice(num_aps, selected, replace=False)
    return (np.sqrt(gain) * fading * mask).reshape(b, num_aps * antennas, k)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(zf_stacks())
def test_zero_forcing_on_random_masked_stacks(g):
    k = g.shape[-1]
    full = zf_full_rank(g)
    # the rank test flags exactly the items whose 2-D build raises, and
    # exactly the channels of rank below K
    for item, accepted in enumerate(full):
        assert accepted == (np.linalg.matrix_rank(g[item]) == k)
        if not accepted:
            with pytest.raises(RankDeficientError, match="rank-deficient"):
                zf_precoder(g[item])
    if not full.all():
        with pytest.raises(RankDeficientError, match="rank-deficient"):
            zf_precoder(g)
    if not full.any():
        return
    # a stack of the full-rank items equals their 2-D builds bitwise, and
    # agrees with SciPy's Cholesky solve to its condition number's rounding
    stack = zf_precoder(g[full])
    assert stack.f == 1.0
    for got, channel in zip(stack.p, g[full]):
        assert np.array_equal(got, zf_precoder(channel).p)
        gram = channel.T @ channel.conj()
        want = cho_solve(cho_factor(gram, lower=True), channel.T).conj().T
        tol = 16 * np.finfo(float).eps * np.linalg.cond(gram)
        assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want)


@pytest.mark.parametrize("batch", [(), (1,), (100,), (2, 3)], ids=str)
@pytest.mark.parametrize("m, k", [(6, 3), (3, 3), (2, 3)])
def test_zero_forcing_stack_shapes(batch, m, k):
    # any leading shape of i.i.d. channels: a stack equals its items' 2-D
    # builds bitwise and SciPy's Cholesky solve to rounding; fewer antennas
    # than users is rank-deficient on every item
    rng = np.random.default_rng(12)
    g = rng.standard_normal(batch + (m, k)) + 1j * rng.standard_normal(batch + (m, k))
    full = zf_full_rank(g)
    assert full.shape == batch
    if m < k:
        assert not full.any()
        with pytest.raises(RankDeficientError, match="rank-deficient"):
            zf_precoder(g)
        return
    assert full.all()
    got = zf_precoder(g)
    assert got.p.shape == g.shape and got.p.dtype == np.complex128
    for index in np.ndindex(batch):
        channel = g[index]
        assert np.array_equal(got.p[index], zf_precoder(channel).p)
        gram = channel.T @ channel.conj()
        want = cho_solve(cho_factor(gram, lower=True), channel.T).conj().T
        tol = 16 * np.finfo(float).eps * np.linalg.cond(gram)
        assert np.linalg.norm(got.p[index] - want) <= tol * np.linalg.norm(want)


# ----------------------------------------------------- conjugate beamforming

def test_conjugate_beamformer():
    g = np.array([[1.0 + 2.0j]])
    out = cb_precoder(g)
    assert out.p[0, 0] == 1.0 - 2.0j
    assert out.f == 1.0
    real_g = np.random.default_rng(9).standard_normal((5, 2)) + 0j
    assert np.array_equal(cb_precoder(real_g).p, real_g)
    rng = np.random.default_rng(10)
    g = random_channel(rng, 6, 3)
    out = cb_precoder(g)
    assert np.array_equal(out.delta, np.abs(g) ** 2)


# ------------------------------------------------- non-iterative mmse variant

def test_conventional_variant_equals_identity_allocation():
    rng = np.random.default_rng(11)
    g = random_channel(rng, 9, 4)
    # never re-formed: APA, the one allocation that re-forms, does not take it
    assert not SCHEMES["allocation"]["APA"].accepts("MMSE_CONV")
    got = SCHEMES["precoder"]["MMSE_CONV"](g, 1.5, 0.7, 1.0)
    base = mmse_precoder(g, np.ones(4), 9 * 1.5, 1.5, 0.7)       # E_tr = M rho_f
    assert np.array_equal(got.p, base.p)
    assert got.f == base.f
