"""Per-user access-point selection masks.

A selection is the binary matrix Q of the paper: a float (M, K) array of
{0.0, 1.0} with AP-block structure (all N antennas of an AP are kept or
dropped together) in which every user keeps exactly S APs. Masked channel
quantities are plain Hadamard products, so selection composes with any
precoder or power-allocation stage downstream. A stack of B masks, shape
(B, M, K), masks a channel into a stack of B channels; this is how
exhaustive selection scores its candidates, at one SNR point or at a whole
grid of them in one search: ``es_chunks`` gives its candidates and
``first_maxima`` its winners, and its loop is the ES selector's,
``pipeline._es``, which returns only the winners' masks, as the NS and LS
selectors return theirs.
"""

from __future__ import annotations

import itertools
import math

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


# Mask entries in one chunk of exhaustive selection, counted as points x
# candidates x M x K; it bounds the memory of scoring one chunk.
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


def es_chunks(num_aps: int, num_users: int, num_selected: int, antennas_per_ap: int,
              points: int):
    """Every candidate mask of exhaustive selection, one per per-user choice
    of S APs, as (B, M, K) stacks in ``itertools.product`` order over the
    users' AP combinations, each of at most ``ES_CHUNK_ENTRIES`` entries
    counted as ``points`` x B x M x K. ``check_es_budget`` runs at the call,
    before the first chunk is asked for, and refuses a search over budget."""
    total = check_es_budget(num_aps, num_users, num_selected)
    per_user = math.comb(num_aps, num_selected)
    members = np.zeros((per_user, num_aps))            # combination -> AP indicator
    for c, aps in enumerate(itertools.combinations(range(num_aps), num_selected)):
        members[c, list(aps)] = 1.0
    # digit j of a candidate index in base C(L, S) picks user j's combination,
    # most significant first: the order of itertools.product
    place = per_user ** np.arange(num_users - 1, -1, -1)
    chunk = max(1, ES_CHUNK_ENTRIES // (points * num_aps * antennas_per_ap * num_users))
    def masks(start):
        choice = np.arange(start, min(start + chunk, total))[:, None] // place % per_user
        return np.repeat(members[choice].swapaxes(-1, -2), antennas_per_ap, axis=-2)
    return map(masks, range(0, total, chunk))


def first_maxima(best, scores):
    """Each point's best score so far, ``best`` (P,), after a chunk's
    ``scores`` (P, B): ``(best, better, columns)``, the new best, the points
    at which it rose, and for each of those in turn its first maximum's
    column in the chunk. A NaN score reads as -inf, so it never wins; a tie
    keeps the earlier candidate, and the best changes only on a strict rise,
    so a point that no candidate wins stays at -inf."""
    scores = np.where(np.isnan(scores), -np.inf, scores)
    i = np.argmax(scores, axis=-1)                     # first of the maxima
    top = np.take_along_axis(scores, i[:, None], axis=-1)[:, 0]
    better = top > best
    return np.where(better, top, best), better, i[better]


def apply_mask(q, realization: ChannelRealization):
    """Hadamard-mask the channel estimate and its error variance by ``q``,
    (M, K) or a (B, M, K) stack; returns ``(q * g_hat, q * error_variance)``.
    The realization is untouched."""
    return q * realization.g_hat, q * realization.error_variance
