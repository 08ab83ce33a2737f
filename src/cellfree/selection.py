"""Per-user access-point selection masks.

A selection is the binary matrix Q of the paper: a float (M, K) array of
{0.0, 1.0} with AP-block structure (all N antennas of an AP are kept or
dropped together) in which every user keeps exactly S APs. Masked channel
quantities are plain Hadamard products, so selection composes with any
precoder or power-allocation stage downstream. A stack of B masks, shape
(B, M, K), masks a channel into a stack of B channels; this is how
exhaustive selection scores its candidates.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable

import numpy as np

from .channel import ChannelRealization


def ls_aps(beta, num_selected: int, antennas_per_ap: int) -> np.ndarray:
    """Keep, for each user, the S APs with the largest large-scale gain.

    Deterministic given beta; ties resolve to the lower AP index. The ranking
    only compares per-AP gains, so any positive rescaling of beta yields the
    same mask.
    """
    beta = np.asarray(beta, dtype=float)
    beta_ap = beta[::antennas_per_ap, :]               # (L, K), block representative
    order = np.argsort(-beta_ap, axis=0, kind="stable")
    q_ap = np.zeros(beta_ap.shape)
    np.put_along_axis(q_ap, order[:num_selected], 1.0, axis=0)
    return np.repeat(q_ap, antennas_per_ap, axis=0)


# Candidate masks scored per ``evaluate`` call by exhaustive selection, as a
# count of mask entries (candidates x M x K); it bounds the memory of one call.
ES_CHUNK_ENTRIES = 2 ** 15


def es_aps(num_aps: int, num_users: int, num_selected: int, antennas_per_ap: int,
           evaluate: Callable[[np.ndarray], np.ndarray],
           budget: int = 10 ** 6):
    """Exhaustive search over every per-user choice of S APs.

    ``evaluate`` must run the complete downstream chain (precoding, power
    allocation, SINR evaluation) on a stack of candidate masks of shape
    (B, M, K) and return the B minimum per-user SINRs. All C(L, S)^K
    candidates are scored, in chunks of at most ``ES_CHUNK_ENTRIES`` mask
    entries, in the lexicographic order of ``itertools.product`` over the
    users' AP combinations. The best (M, K) mask is returned together with
    its score; ties keep the first candidate in that order, and a NaN score
    never wins (an all-NaN search returns ``(None, -inf)``).
    """
    per_user = math.comb(num_aps, num_selected)
    total = per_user ** num_users
    if total > budget:
        raise ValueError(
            f"exhaustive selection needs {total} candidate evaluations, "
            f"exceeding the budget of {budget}")
    members = np.zeros((per_user, num_aps))            # combination -> AP indicator
    for c, aps in enumerate(itertools.combinations(range(num_aps), num_selected)):
        members[c, list(aps)] = 1.0
    # digit j of a candidate index in base C(L, S) picks user j's combination,
    # most significant first: the order of itertools.product
    place = per_user ** np.arange(num_users - 1, -1, -1)
    chunk = max(1, ES_CHUNK_ENTRIES // (num_aps * antennas_per_ap * num_users))
    best_mask = None
    best_score = -np.inf
    for start in range(0, total, chunk):
        index = np.arange(start, min(start + chunk, total))
        choice = index[:, None] // place % per_user      # (B, K)
        q_ap = members[choice].transpose(0, 2, 1)         # (B, L, K)
        masks = np.repeat(q_ap, antennas_per_ap, axis=1)
        scores = np.asarray(evaluate(masks), dtype=float)
        scores = np.where(np.isnan(scores), -np.inf, scores)
        i = int(np.argmax(scores))                        # first of the maxima
        if scores[i] > best_score:
            best_score = float(scores[i])
            best_mask = masks[i].copy()
    return best_mask, best_score


def apply_mask(q, realization: ChannelRealization):
    """Hadamard-mask the channel estimate and its error variance by ``q``,
    (M, K) or a (B, M, K) stack; returns ``(q * g_hat, q * error_variance)``.
    The realization is untouched."""
    return q * realization.g_hat, q * realization.error_variance
