"""Per-user access-point selection masks.

A selection is the binary matrix Q of the paper: a float (M, K) array of
{0.0, 1.0} with AP-block structure (all N antennas of an AP are kept or
dropped together) in which every user keeps exactly S APs. Masked channel
quantities are plain Hadamard products, so selection composes with any
precoder or power-allocation stage downstream. A stack of B masks, shape
(B, M, K), masks a channel into a stack of B channels; this is how
exhaustive selection scores its candidates, at one SNR point or at a whole
grid of them in one search.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable

import numpy as np

from .channel import ChannelRealization


def ls_aps(beta, num_selected: int, antennas_per_ap: int) -> np.ndarray:
    """Keep, for each user, the S APs with the largest large-scale gain.

    Deterministic given beta; ties resolve to the lower AP index. A
    partition finds each user's S-th largest AP gain, and the user keeps
    its APs above it and, of those at it, the lowest-indexed ones that fill
    the S places: the mask of a stable descending sort's first S. Exact
    ties arise, for instance, among a user's links closer than d0, where
    the path loss is flat and unshadowed. The ranking only compares per-AP
    gains, so any positive rescaling of beta yields the same mask. An S
    outside [1, L] is refused.
    """
    beta_ap = np.asarray(beta, dtype=float)[::antennas_per_ap, :]   # (L, K)
    num_aps = beta_ap.shape[0]
    if not 1 <= num_selected <= num_aps:
        raise ValueError(f"num_selected must lie in [1, L] = [1, {num_aps}], "
                         f"got {num_selected!r}")
    kth = np.partition(beta_ap, num_aps - num_selected, axis=0)[num_aps - num_selected]
    q_ap = beta_ap >= kth
    # each user keeps at least S; more only where gains tie at its kth
    if np.count_nonzero(q_ap) > num_selected * q_ap.shape[1]:
        at = beta_ap == kth
        q_ap &= ~at | (np.cumsum(at, axis=0) <= num_selected - (beta_ap > kth).sum(axis=0))
    return np.repeat(q_ap.astype(float), antennas_per_ap, axis=0)


# Mask entries scored per ``evaluate`` call by exhaustive selection, counted
# as points x candidates x M x K; it bounds the memory of one call, and no
# call's result outlives it but what its ``take`` copies out.
ES_CHUNK_ENTRIES = 2 ** 15


# Most candidate masks an exhaustive search takes on; a larger one is refused
ES_BUDGET = 10 ** 6


def es_candidate_count(num_aps: int, num_users: int, num_selected: int) -> int:
    """C(L, S)^K: the masks exhaustive selection scores, one per per-user
    choice of S of the L APs."""
    return math.comb(num_aps, num_selected) ** num_users


def check_es_budget(num_aps: int, num_users: int, num_selected: int) -> int:
    """The candidate count ``es_candidate_count``; a search of more than
    ``ES_BUDGET`` candidates is refused with a ``ValueError`` that gives it."""
    total = es_candidate_count(num_aps, num_users, num_selected)
    if total > ES_BUDGET:
        digits = len(str(total))
        count = str(total) if digits <= 12 else f"about 1e{digits - 1}"
        raise ValueError(
            f"exhaustive selection of {num_selected} of {num_aps} APs for {num_users} "
            f"users needs C({num_aps}, {num_selected})^{num_users} = {count} candidate "
            f"evaluations, exceeding the budget of {ES_BUDGET}")
    return total


def es_aps(num_aps: int, num_users: int, num_selected: int, antennas_per_ap: int,
           evaluate: Callable[[np.ndarray], tuple], *, points: int = 1):
    """Exhaustive search over every per-user choice of S APs.

    ``evaluate`` must run the complete downstream chain (precoding, power
    allocation, SINR evaluation) on a stack of candidate masks of shape
    (B, M, K) and return ``(scores, take)``: their minimum per-user SINRs,
    ``(..., B)``, one score per candidate for each of ``points`` leading
    items (the SNR points of a grid), or ``(B,)`` for one item, and a
    callable. All C(L, S)^K candidates are scored, in chunks of at most
    ``ES_CHUNK_ENTRIES`` entries counted as points x B x M x K, in the
    lexicographic order of ``itertools.product`` over the users' AP
    combinations. Each item's best (M, K) mask is returned together with
    its score, ``(..., M, K)`` and ``(...)``; ties keep the first candidate
    in that order, and a NaN score never wins. A chunk that raises some
    items' best calls its ``take(items, columns)`` once, with a boolean mask
    of those items (0-d for one item) and their new best's column in the
    chunk, one per item it marks: an item's last call names its winner, so
    ``take`` can copy the winners' results out as the search goes. An item
    on which no candidate wins (every score NaN or -inf) scores -inf, and
    the masks are then None: an all-NaN search of one item returns
    ``(None, -inf)``. ``check_es_budget`` refuses a search over
    ``ES_BUDGET``.
    """
    total = check_es_budget(num_aps, num_users, num_selected)
    per_user = math.comb(num_aps, num_selected)
    members = np.zeros((per_user, num_aps))            # combination -> AP indicator
    for c, aps in enumerate(itertools.combinations(range(num_aps), num_selected)):
        members[c, list(aps)] = 1.0
    # digit j of a candidate index in base C(L, S) picks user j's combination,
    # most significant first: the order of itertools.product
    place = per_user ** np.arange(num_users - 1, -1, -1)

    def masks_of(index):
        choice = index[..., None] // place % per_user     # (..., K)
        q_ap = members[choice].swapaxes(-1, -2)           # (..., L, K)
        return np.repeat(q_ap, antennas_per_ap, axis=-2)

    chunk = max(1, ES_CHUNK_ENTRIES // (points * num_aps * antennas_per_ap * num_users))
    best, best_score = -1, -np.inf
    for start in range(0, total, chunk):
        index = np.arange(start, min(start + chunk, total))
        scores, take = evaluate(masks_of(index))
        scores = np.asarray(scores, dtype=float)
        scores = np.where(np.isnan(scores), -np.inf, scores)
        i = np.argmax(scores, axis=-1)                    # first of the maxima
        top = np.take_along_axis(scores, i[..., None], axis=-1)[..., 0]
        better = top > best_score
        best = np.where(better, index[i], best)
        best_score = np.where(better, top, best_score)
        if np.count_nonzero(better):
            take(better, i[better])
    best_score = best_score[()]
    if np.count_nonzero(best < 0):
        return None, best_score
    return masks_of(best), best_score


def apply_mask(q, realization: ChannelRealization):
    """Hadamard-mask the channel estimate and its error variance by ``q``,
    (M, K) or a (B, M, K) stack; returns ``(q * g_hat, q * error_variance)``.
    The realization is untouched."""
    return q * realization.g_hat, q * realization.error_variance
