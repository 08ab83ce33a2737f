"""Layer microbenchmarks on fixed seeded inputs at the preset sizes.

Times ``mmse_precoder`` (the public entry to the ridge solve),
``opa_bisection``, ``apa_sgd`` and ``ber_qpsk`` at M x K = 5x2, 96x8, 128x16
and 256x16 (M antennas, K users), each on one channel drawn from a fixed
seed at 10 dB. Reports the median microseconds per call over batches, and
OPA's bisection iteration count.
"""

from __future__ import annotations

import statistics
import warnings
from time import perf_counter

import numpy as np

import cellfree
from cellfree import metrics, power_allocation, precoding

SIZES = ((5, 2), (96, 8), (128, 16), (256, 16))
FUNCTIONS = ("mmse_precoder", "opa_bisection", "apa_sgd", "ber_qpsk")
MICRO_SEED = 2104


def _cases(m, k):
    """Zero-argument calls of each timed function on one fixed channel."""
    cfg = cellfree.SystemConfig(num_aps=m, antennas_per_ap=1, num_users=k,
                                selected_aps=max(1, m // 2), csi_quality=0.99).validate()
    rngs = [np.random.default_rng([MICRO_SEED, m, k, i]) for i in range(3)]
    real = cellfree.generate_realization(cfg, *rngs)
    sigma_w2 = cfg.noise_variance_w()
    rho_f = metrics.snr_to_rho_f(10.0, real.g_hat, sigma_w2)
    e_tr = m * rho_f
    ones = np.ones(k)
    prec = precoding.mmse_precoder(real.g_hat, ones, e_tr, rho_f, sigma_w2)
    coeffs = metrics.sinr_coefficients(prec.p, real.g_hat, real.error_variance,
                                       rho_f, sigma_w2)
    n_diag = power_allocation.upa(prec.delta).n_diag
    symbols = np.random.default_rng([MICRO_SEED, m, k, 3])
    return {
        "mmse_precoder": lambda: precoding.mmse_precoder(real.g_hat, ones, e_tr,
                                                         rho_f, sigma_w2),
        "opa_bisection": lambda: power_allocation.opa_bisection(coeffs, prec.delta),
        "apa_sgd": lambda: power_allocation.apa_sgd(prec, real.g_hat, rho_f, sigma_w2,
                                                    mu=0.25, iterations=5),
        "ber_qpsk": lambda: metrics.ber_qpsk(prec.p, n_diag, real.g, real.g_hat, rho_f,
                                             sigma_w2, 100, symbols),
    }


def _median_us(call, budget_s: float) -> float:
    """Median per-call time over batches of at least 2 ms, within the budget."""
    start = perf_counter()
    call()
    per_call = max(perf_counter() - start, 1e-7)
    batch = max(1, int(2e-3 / per_call))
    times = []
    deadline = perf_counter() + budget_s
    while len(times) < 3 or (perf_counter() < deadline and len(times) < 200):
        start = perf_counter()
        for _ in range(batch):
            call()
        times.append((perf_counter() - start) / batch)
    return statistics.median(times) * 1e6


def run(budget_s: float) -> dict:
    """Metrics {name: (value, unit)}; ``budget_s`` is per function and size."""
    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for m, k in SIZES:
            cases = _cases(m, k)
            for fn in FUNCTIONS:
                out[f"micro.{fn}.{m}x{k}.us"] = (_median_us(cases[fn], budget_s), "us")
            out[f"micro.opa_bisection.{m}x{k}.iterations"] = (
                cases["opa_bisection"]().iterations, "count")
    return out
